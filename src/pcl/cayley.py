"""Cayley multigraph construction: complete graphs and truncated balls.

Involutions in the generating set become single undirected edges (one edge
per incident vertex pair); identity generators become loops.  Balls of the
bundled infinite families are exact radius-R balls with frontier flags on
the distance-R shell, vertices named by their normal forms.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .families import Engine, AmalgamEngine, engine_for
from .graph import CayleyGraph
from .groups import GroupModel


class NonGeneratingError(ValueError):
    """Generating set does not generate; carries the subgroup order reached."""

    def __init__(self, reached: int, order: int):
        super().__init__(
            f"generators span a subgroup of order {reached} < {order}")
        self.subgroup_order = reached


@dataclass
class InfiniteFamilySpec:
    tag: str  # a key of families.FAMILIES
    params: dict = field(default_factory=dict)

    def engine(self) -> Engine:
        return engine_for(self.tag, **self.params)


def build_cayley(g: GroupModel, gens: list[str]) -> CayleyGraph:
    """Complete Cayley multigraph of a finite group.

    gens are generator symbols or element names; repeated entries give
    parallel edge classes (a multiset generating set).
    """
    elts = [g.element(s) for s in gens]
    reached = g.closure(elts)
    if len(reached) != g.order:
        raise NonGeneratingError(len(reached), g.order)

    cg = CayleyGraph()
    cg.group = g
    cg.generators = list(gens)
    cg.radius = "complete"
    for name in g.element_names:
        cg.add_vertex(name)
    for i, x in enumerate(elts):
        right = g.right(x)
        involution = x != g.identity and right[x] == g.identity
        for v, w in enumerate(right):
            if not involution or v < w:
                cg.add_generator_edge(v, w, i, involution)
    return cg


def dart_permutation(cg: CayleyGraph, x: int) -> tuple[list[int], list[int]]:
    """Vertex and dart permutations of left multiplication by element x."""
    g = cg.group
    if g is None:
        raise ValueError("left multiplication needs a complete Cayley graph")
    vperm = g.left(x)
    dperm = [0] * cg.n_darts
    for (v, i), d in cg.out_dart.items():
        img = cg.out_dart[(vperm[v], i)]
        dperm[d] = img
        dperm[d ^ 1] = img ^ 1
    return vperm, dperm


def build_ball(spec: InfiniteFamilySpec | Engine, radius: int) -> CayleyGraph:
    """Exact radius-R ball of a bundled infinite Cayley graph.

    The ball is the subgraph induced on vertices at distance <= R from the
    identity; ``depth`` holds each vertex's distance, and vertices at
    distance exactly R carry the frontier flag.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    engine = spec.engine() if isinstance(spec, InfiniteFamilySpec) else spec
    gens = engine.gens()
    cg = CayleyGraph()
    cg.radius = radius
    cg.generators = [gs.label for gs in gens]

    # one breadth-first pass: a vertex is named (and flagged when at
    # distance R) on discovery, and its edges v -> v*s are added when the
    # loop takes it, by which time every neighbour in the ball is named
    order = [engine.identity()]
    index = {order[0]: cg.add_vertex(engine.name(order[0]))}
    depth = cg.depth = [0]
    if radius == 0:
        cg.frontier.add(0)
    for v, key in enumerate(order):
        on_frontier = depth[v] == radius
        for i, gs in enumerate(gens):
            signs = (1,) if gs.is_involution or on_frontier else (1, -1)
            for sg in signs:
                nxt = engine.apply(key, gs.label, sg)
                w = index.get(nxt)
                if w is None:
                    if on_frontier:
                        continue
                    w = index[nxt] = cg.add_vertex(engine.name(nxt))
                    order.append(nxt)
                    depth.append(depth[v] + 1)
                    if depth[w] == radius:
                        cg.frontier.add(w)
                if sg == 1 and (not gs.is_involution or v <= w):
                    cg.add_generator_edge(v, w, i, gs.is_involution)
    return cg


def build_amalgam_ball(a: GroupModel, b_a: str, b: GroupModel, b_b: str,
                       gens_a: list[str], gens_b: list[str],
                       radius: int) -> CayleyGraph:
    """Ball of Cay(A *_{b_a=b_b} B, gens_a u gens_b), involutions identified.

    The two amalgamated involutions become a single undirected edge label
    "b".  Interior vertices have degree deg_A + deg_B - 1.
    """
    return build_ball(AmalgamEngine(a, b, gens_a, gens_b, a.element(b_a),
                                    b.element(b_b)), radius)


def interior_degrees(cg: CayleyGraph) -> set[int]:
    """Distinct degrees over non-frontier vertices of a ball."""
    degree = [0] * cg.n_vertices
    for v in cg.dart_tail:
        degree[v] += 1
    return {d for v, d in enumerate(degree) if v not in cg.frontier}
