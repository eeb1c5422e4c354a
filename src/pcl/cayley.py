"""Cayley multigraph construction: complete graphs and truncated balls.

Involutions in the generating set become single undirected edges (one edge
per incident vertex pair); identity generators become loops.  Balls of the
bundled infinite families are exact radius-R balls with frontier flags on
the distance-R shell.  Vertices are named when the names are first read.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain

from .families import BALL_BUDGET, AmalgamEngine, Engine, engine_for
from .graph import CayleyGraph
from .groups import GroupModel


class NonGeneratingError(ValueError):
    """Generating set does not generate; carries the subgroup order reached."""

    def __init__(self, reached: int, order: int):
        super().__init__(
            f"generators span a subgroup of order {reached} < {order}")
        self.subgroup_order = reached


class BallBudgetError(ValueError):
    """A ball passes ``BALL_BUDGET`` vertices; carries how far it got."""

    def __init__(self, radius: int, reached: int, vertices: int):
        super().__init__(
            f"the radius-{radius} ball passes the budget of {BALL_BUDGET} "
            f"vertices: {vertices} vertices found up to radius {reached}")
        self.reached = reached
        self.vertices = vertices


@dataclass
class InfiniteFamilySpec:
    tag: str  # a key of families.FAMILIES
    params: dict = field(default_factory=dict)

    def engine(self) -> Engine:
        return engine_for(self.tag, **self.params)


def build_cayley(g: GroupModel, gens: list[str]) -> CayleyGraph:
    """Complete Cayley multigraph of a finite group.

    gens are texts that ``g.element`` resolves; repeated entries give
    parallel edge classes (a multiset generating set).  They generate g
    iff the graph is connected, its components being the cosets of <gens>.
    """
    elts = [g.element(s) for s in gens]
    cg = CayleyGraph()
    cg.group = g
    cg.generators = list(gens)
    cg.radius = "complete"
    cg.add_keyed_vertices(range(g.order),
                          lambda xs: [g.element_names[x] for x in xs])
    for i, x in enumerate(elts):
        right = g.right(x)
        involution = x != g.identity and right[x] == g.identity
        for v, w in enumerate(right):
            if not involution or v < w:
                cg.add_generator_edge(v, w, i, involution)
    if not cg.is_connected():
        raise NonGeneratingError(g.order // cg.component_count(), g.order)
    return cg


def dart_permutation(cg: CayleyGraph, x: int) -> tuple[list[int], list[int]]:
    """Vertex and dart permutations of left multiplication by element x."""
    g = cg.group
    if g is None:
        raise ValueError("left multiplication needs a complete Cayley graph")
    vperm = g.left(x)
    k = len(cg.generators)
    out = cg.out_dart
    # the image of v's out-dart along i is vperm[v]'s, so the images of
    # out_dart in order are the rows of vperm chained
    images = chain.from_iterable([out[w * k:w * k + k] for w in vperm])
    dperm = [0] * cg.n_darts
    for d, img in zip(out, images):
        dperm[d] = img
        dperm[d ^ 1] = img ^ 1
    return vperm, dperm


def build_ball(spec: InfiniteFamilySpec | Engine, radius: int) -> CayleyGraph:
    """Exact radius-R ball of a bundled infinite Cayley graph.

    The ball is the subgraph induced on vertices at distance <= R from the
    identity; ``depth`` holds each vertex's distance, and vertices at
    distance exactly R carry the frontier flag.  BallBudgetError once the
    ball passes ``BALL_BUDGET`` vertices.  Every vertex is found along an
    edge the pass adds, so the ball is connected, and its ``is_connected``
    verdict is kept from the start.
    """
    if radius < 0:
        raise ValueError("radius must be >= 0")
    engine = spec.engine() if isinstance(spec, InfiniteFamilySpec) else spec
    gens = engine.moves()
    k = len(gens)
    cg = CayleyGraph()
    cg.radius = radius
    cg.engine = engine
    cg.generators = [gen[0] for gen in gens]

    # one breadth-first pass: a vertex is numbered on discovery, and its
    # edges v -> v*s are added when the loop takes it, by which time every
    # neighbour in the ball is numbered.  Its row of out_dart is appended
    # then too: an involution edge to an earlier w was added at w, and its
    # dart at v is the twin of w's.
    tail, out = cg.dart_tail, cg.out_dart
    labels, directed = cg.edge_label, cg.edge_directed
    moves = [(i, times, times_inv, label, involution)
             for i, (label, involution, times, times_inv) in enumerate(gens)]
    order = [0]
    index = {order[0]: 0}
    depth = [0]
    for v, key in enumerate(order):
        if len(order) > BALL_BUDGET:
            raise BallBudgetError(radius, depth[-1], len(order))
        interior = depth[v] < radius
        below = depth[v] + 1
        for i, times, times_inv, label, involution in moves:
            nxt = times(key)
            w = index.get(nxt)
            if w is None:
                if not interior:  # frontier: only edges inside the ball
                    out.append(-1)
                    continue
                w = index[nxt] = len(order)
                order.append(nxt)
                depth.append(below)
            if involution and w < v:
                out.append(out[w * k + i] ^ 1)
                continue
            out.append(len(tail))
            tail.append(v)
            tail.append(w)
            labels.append(label)
            directed.append(not involution)
            if interior and not involution:
                nxt = times_inv(key)
                if nxt not in index:
                    index[nxt] = len(order)
                    order.append(nxt)
                    depth.append(below)
    cg.add_keyed_vertices(order, engine.names)
    cg._connected = True
    cg.depth = depth
    cg.frontier.update(range(bisect_left(depth, radius), len(depth)))
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
