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

    # one breadth-first pass: a vertex is numbered on discovery, and its
    # edges v -> v*s are added when the loop takes it, by which time every
    # neighbour in the ball is numbered; names are rendered afterwards
    apply = engine.apply
    add_edge = cg.add_generator_edge
    moves = [(i, gs.label, gs.is_involution) for i, gs in enumerate(gens)]
    order = [engine.identity()]
    index = {order[0]: 0}
    depth = [0]
    for v, key in enumerate(order):
        if depth[v] == radius:
            # frontier: only edges to vertices already in the ball
            for i, label, involution in moves:
                w = index.get(apply(key, label, 1))
                if w is not None and (not involution or v <= w):
                    add_edge(v, w, i, involution)
            continue
        below = depth[v] + 1
        for i, label, involution in moves:
            nxt = apply(key, label, 1)
            w = index.get(nxt)
            if w is None:
                w = index[nxt] = len(order)
                order.append(nxt)
                depth.append(below)
            if not involution:
                add_edge(v, w, i, False)
                nxt = apply(key, label, -1)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    depth.append(below)
            elif v <= w:
                add_edge(v, w, i, True)
    name = engine.name
    for key in order:
        cg.add_vertex(name(key))
    cg.depth = depth
    cg.frontier.update(v for v, d in enumerate(depth) if d == radius)
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
