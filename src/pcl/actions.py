"""Group actions on graphs, freeness, blow-ups, Babai contraction.

The contraction picks a deterministic fundamental domain (grown from the
least vertex by least-index edges into unrepresented orbits) and contracts
each of its translates to a point, keeping parallel edges and loops; for a
free action the result is a Cayley multigraph of the acting group with a
derived generating multiset.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .graph import CayleyGraph, MultiGraph, twin
from .groups import GroupModel


@dataclass
class FreenessWitness:
    element: int  # non-identity element index
    vertex: int  # fixed vertex


class NotFreeError(ValueError):
    def __init__(self, witness: FreenessWitness):
        super().__init__(
            f"element {witness.element} fixes vertex {witness.vertex}")
        self.witness = witness


@dataclass
class GraphAction:
    group: GroupModel
    graph: MultiGraph
    vertex_perm: list[list[int]]  # per element
    dart_perm: list[list[int]]  # per element

    def check_axioms(self) -> None:
        g, n = self.group, self.graph.n_vertices
        if self.vertex_perm[0] != list(range(n)):
            raise AssertionError("identity does not act trivially on vertices")
        if self.dart_perm[0] != list(range(self.graph.n_darts)):
            raise AssertionError("identity does not act trivially on darts")
        for x in range(g.order):
            vp, dp = self.vertex_perm[x], self.dart_perm[x]
            for d in range(self.graph.n_darts):
                if dp[twin(d)] != twin(dp[d]):
                    raise AssertionError(f"element {x} breaks twin pairing")
                if self.graph.dart_tail[dp[d]] != vp[self.graph.dart_tail[d]]:
                    raise AssertionError(f"element {x} breaks incidence")
            for y in range(g.order):
                xy = g.mul(x, y)
                if any(vp[self.vertex_perm[y][v]] != self.vertex_perm[xy][v]
                       for v in range(n)):
                    raise AssertionError(f"composition fails at {x},{y}")

    def vertex_orbits(self) -> list[list[int]]:
        seen: set[int] = set()
        orbits = []
        for v in range(self.graph.n_vertices):
            if v in seen:
                continue
            orb = sorted({perm[v] for perm in self.vertex_perm})
            seen.update(orb)
            orbits.append(orb)
        return orbits

    def to_json_dict(self) -> dict:
        return {
            "schema": "pcl/1",
            "group": self.group.name,
            "vertex_perm": {self.group.element_names[x]: self.vertex_perm[x]
                            for x in range(self.group.order)},
            "dart_perm": {self.group.element_names[x]: self.dart_perm[x]
                          for x in range(self.group.order)},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


@dataclass
class FundamentalDomain:
    vertices: list[int]
    tree_edges: list[int]


def left_action(g: GroupModel, cg: CayleyGraph) -> GraphAction:
    """Left multiplication action of g on its complete Cayley graph."""
    if cg.radius != "complete" or cg.group is not g:
        raise ValueError("left action needs the complete Cayley graph of g")
    from .cayley import dart_permutation
    vperms, dperms = [], []
    for x in range(g.order):
        vp, dp = dart_permutation(cg, x)
        vperms.append(vp)
        dperms.append(dp)
    return GraphAction(g, cg, vperms, dperms)


def action_from_vertex_permutations(
        g: GroupModel, graph: MultiGraph,
        vperms: list[list[int]]) -> GraphAction:
    """Derive dart permutations from vertex permutations.

    Requires the graph to have no parallel edges between any vertex pair
    and no loops, so edge images are determined by endpoint images.
    """
    by_ends: dict[tuple[int, int], int] = {}
    for e in range(graph.n_edges):
        u, v = graph.edge_ends(e)
        if u == v or (u, v) in by_ends or (v, u) in by_ends:
            raise ValueError("vertex permutations do not determine dart images "
                             "on multigraphs")
        by_ends[(u, v)] = e
    dperms = []
    for x in range(g.order):
        vp = vperms[x]
        dp = [0] * graph.n_darts
        for e in range(graph.n_edges):
            u, v = graph.edge_ends(e)
            iu, iv = vp[u], vp[v]
            if (iu, iv) in by_ends:
                e2 = by_ends[(iu, iv)]
                flip = False
            else:
                e2 = by_ends[(iv, iu)]
                flip = True
            dp[2 * e] = 2 * e2 + (1 if flip else 0)
            dp[2 * e + 1] = 2 * e2 + (0 if flip else 1)
        dperms.append(dp)
    return GraphAction(g, graph, vperms, dperms)


def is_free(a: GraphAction) -> bool | FreenessWitness:
    for x in range(1, a.group.order):
        vp = a.vertex_perm[x]
        for v in range(a.graph.n_vertices):
            if vp[v] == v:
                return FreenessWitness(x, v)
    return True


def blow_up(g: MultiGraph, vs: set[int],
            rotation: list[list[int]] | None = None,
) -> tuple[MultiGraph, dict[int, int]]:
    """Replace each vertex in vs by a cycle of its degree.

    Each former dart slot attaches to its own cycle vertex, in rotation
    order when a rotation system is supplied (preserving planarity of
    plane inputs), else in dart order.  Returns the new graph and the map
    from old darts to their new tail vertices.
    """
    inc = g.incidence()
    for v in vs:
        if not inc[v]:
            raise ValueError(f"cannot blow up isolated vertex {v}")

    out = MultiGraph()
    out.radius = g.radius
    vmap: dict[int, int] = {}
    dart_host: dict[int, int] = {}
    for v in range(g.n_vertices):
        if v not in vs:
            vmap[v] = out.add_vertex(g.vertex_names[v])
    cycle_of: dict[int, list[int]] = {}
    for v in sorted(vs):
        slots = rotation[v] if rotation is not None else inc[v]
        cyc = [out.add_vertex(f"{g.vertex_names[v]}.{i}")
               for i in range(len(slots))]
        cycle_of[v] = cyc
        for d, host in zip(slots, cyc):
            dart_host[d] = host
    for d in range(g.n_darts):
        if d not in dart_host:
            dart_host[d] = vmap[g.dart_tail[d]]
    for e in range(g.n_edges):
        out.add_edge(dart_host[2 * e], dart_host[2 * e + 1],
                     g.edge_label[e], g.edge_directed[e])
    for v in sorted(vs):
        cyc = cycle_of[v]
        if len(cyc) == 1:
            continue
        for i in range(len(cyc)):
            if len(cyc) == 2 and i == 1:
                break  # avoid a parallel pair for degree-2 vertices
            out.add_edge(cyc[i], cyc[(i + 1) % len(cyc)], "cycle", False)
    return out, dart_host


def babai_contract(a: GraphAction) -> tuple[CayleyGraph, FundamentalDomain]:
    """Contract each translate of a fundamental domain of a free action.

    The domain D is grown deterministically from the least vertex by
    greedily adding the least-index edge reaching an unrepresented orbit.
    The quotient keeps parallel edges and loops and is a Cayley multigraph
    of the acting group; labels name the derived generating multiset.
    """
    witness = is_free(a)
    if witness is not True:
        raise NotFreeError(witness)
    g, h = a.group, a.graph
    if not h.is_connected():
        raise ValueError("Babai contraction needs a connected graph")

    orbits = a.vertex_orbits()
    orbit_of = {}
    for oi, orb in enumerate(orbits):
        for v in orb:
            orbit_of[v] = oi

    inc = h.incidence()
    dom = [0]
    tree: list[int] = []
    covered = {orbit_of[0]}
    while len(covered) < len(orbits):
        best = min(((d >> 1, h.head(d)) for u in dom for d in inc[u]
                    if orbit_of[h.head(d)] not in covered), default=None)
        if best is None:
            raise AssertionError("domain growth stalled; graph disconnected?")
        e, v = best
        dom.append(v)
        tree.append(e)
        covered.add(orbit_of[v])

    # locate each vertex: v = x . d for unique x in the group, d in D
    locate: dict[int, tuple[int, int]] = {}
    for x in range(g.order):
        vp = a.vertex_perm[x]
        for d in dom:
            locate[vp[d]] = (x, d)
    if len(locate) != h.n_vertices:
        raise AssertionError("domain does not tile the graph")

    # edges to drop: the orbit of every tree edge
    drop: set[int] = set()
    for e in tree:
        for x in range(g.order):
            drop.add(a.dart_perm[x][2 * e] // 2)

    # derive a generating label per edge orbit
    edge_orbit: dict[int, int] = {}
    orbit_gen: dict[int, tuple[int, bool]] = {}  # orbit rep edge -> (elt, invol)
    labels: dict[int, str] = {}
    label_count: dict[str, int] = {}
    quotient_edges = []
    for e in range(h.n_edges):
        if e in drop or e in edge_orbit:
            continue
        orb = sorted({a.dart_perm[x][2 * e] // 2 for x in range(g.order)})
        for e2 in orb:
            edge_orbit[e2] = e
        u, v = h.edge_ends(e)
        xu, xv = locate[u][0], locate[v][0]
        s = g.mul(g.inv(xu), xv)
        s_inv = g.inv(s)
        if s_inv < s:
            s, xu, xv = s_inv, xv, xu
        base = g.element_names[s]
        label_count[base] = label_count.get(base, 0) + 1
        name = base if label_count[base] == 1 else f"{base}#{label_count[base]}"
        labels[e] = name
        orbit_gen[e] = (s, s == g.inv(s) and s != g.identity)

    cg = CayleyGraph()
    cg.group = g
    cg.radius = "complete"
    for name in g.element_names:
        cg.add_vertex(name)
    for e in range(h.n_edges):
        if e in drop:
            continue
        rep = edge_orbit[e]
        s, invol = orbit_gen[rep]
        u, v = h.edge_ends(e)
        xu, xv = locate[u][0], locate[v][0]
        if g.mul(g.inv(xu), xv) != s:
            xu, xv = xv, xu
        cg.add_generator_edge(xu, xv, labels[rep], invol)
    cg.generators = [labels[e] for e in sorted(labels)]
    return cg, FundamentalDomain(dom, tree)
