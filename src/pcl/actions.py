"""Group actions on graphs, freeness and Babai contraction (``contract``).

An action is given by the vertex and dart permutations of the group's
generators; the action of every element is read off orbit maps, one
breadth-first search over the group per orbit (a Schreier search).

The contraction picks a deterministic fundamental domain (grown from the
least vertex by least-index edges into unrepresented orbits) and contracts
each of its translates to a point, keeping parallel edges and loops; for a
free action the result is a Cayley multigraph of the acting group with a
derived generating multiset.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from functools import cached_property

from .graph import CayleyGraph, MultiGraph
from .groups import GroupModel, extend


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
    """vertex_image[sym] and dart_image[sym] are the permutations by which
    generator sym of group acts on graph, keyed like ``group.gens``."""

    group: GroupModel
    graph: MultiGraph
    vertex_image: dict[str, list[int]]
    dart_image: dict[str, list[int]]

    @cached_property
    def _left(self) -> list[tuple[str, list[int]]]:
        return [(sym, self.group.left(perm[0]))
                for sym, perm in self.group.gens.items()]

    def orbit_map(self, images: dict[str, list[int]], p: int) -> list[int]:
        """x -> x.p for every element x of the group, where images is
        ``vertex_image`` or ``dart_image`` and p a vertex or dart.

        The extension from the identity along x -> s*x for every generator
        s with (s*x).p = s.(x.p); raises AssertionError where a generator
        edge disagrees.  O(k |G|).
        """
        img = extend(p, [(left, images[sym]) for sym, left in self._left])
        if img is None:
            raise AssertionError("some generator does not act as a group "
                                 f"element at point {p}")
        return img

    def _orbit_maps(self, images: dict[str, list[int]],
                    size: int) -> list[list[int]]:
        """The orbit map of the least point of every orbit on range(size)."""
        seen = [False] * size
        maps = []
        for p in range(size):
            if not seen[p]:
                img = self.orbit_map(images, p)
                for q in img:
                    seen[q] = True
                maps.append(img)
        return maps


@dataclass
class FundamentalDomain:
    vertices: list[int]
    tree_edges: list[int]


def is_free(a: GraphAction) -> bool | FreenessWitness:
    """True, or a non-identity element and a vertex it fixes: an orbit map
    of p with x.p = y.p for x != y gives y^-1 x fixing p."""
    g = a.group
    for img in a._orbit_maps(a.vertex_image, a.graph.n_vertices):
        first: dict[int, int] = {}
        for x, v in enumerate(img):
            y = first.setdefault(v, x)
            if y != x:
                return FreenessWitness(g.mul(g.inv(y), x), img[g.identity])
    return True


def babai_contract(a: GraphAction) -> tuple[CayleyGraph, FundamentalDomain]:
    """Contract each translate of a fundamental domain of a free action.

    The domain D is grown deterministically from the least vertex by
    greedily adding the least-index edge reaching an unrepresented orbit
    (Prim's order).  The quotient keeps parallel edges and loops and is a
    Cayley multigraph of the acting group; labels name the derived
    generating multiset.  One orbit map per domain vertex and per dart
    orbit: O(k (V + E)) for k generators.
    """
    witness = is_free(a)
    if witness is not True:
        raise NotFreeError(witness)
    g, h = a.group, a.graph
    if not h.is_connected():
        raise ValueError("Babai contraction needs a connected graph")

    # element_at[x.d] = x for d in D; (-1, 0) puts the least vertex first
    inc = h.incidence()
    dom: list[int] = []
    tree: list[int] = []
    element_at = [-1] * h.n_vertices
    heap = [(-1, 0)]
    while heap:
        e, v = heapq.heappop(heap)
        if element_at[v] >= 0:
            continue
        dom.append(v)
        if e >= 0:
            tree.append(e)
        for x, w in enumerate(a.orbit_map(a.vertex_image, v)):
            element_at[w] = x
        for d in inc[v]:
            if element_at[h.head(d)] < 0:
                heapq.heappush(heap, (d >> 1, h.head(d)))
    if -1 in element_at:
        raise AssertionError("domain does not tile the graph")

    cg = CayleyGraph()
    cg.group = g
    cg.radius = "complete"
    cg.add_keyed_vertices(range(g.order),
                          lambda xs: [g.element_names[x] for x in xs])
    # the orbits of the tree edges are dropped (-1); every other edge orbit
    # is one derived generator s, named after the element s or s^-1
    gen_of = {d >> 1: -1 for e in tree
              for d in a.orbit_map(a.dart_image, 2 * e)}
    steps: list[tuple[list[int], bool]] = []  # (x -> x*s, s an involution)
    label_count: dict[str, int] = {}
    for e in range(h.n_edges):
        if e in gen_of:
            continue
        gen_of.update((d >> 1, len(steps))
                      for d in a.orbit_map(a.dart_image, 2 * e))
        u, v = h.edge_ends(e)
        s = g.mul(g.inv(element_at[u]), element_at[v])
        s = min(s, g.inv(s))
        base = g.element_names[s]
        label_count[base] = label_count.get(base, 0) + 1
        cg.generators.append(base if label_count[base] == 1 else
                             f"{base}#{label_count[base]}")
        steps.append((g.right(s), s == g.inv(s) and s != g.identity))
    for e in range(h.n_edges):
        i = gen_of[e]
        if i < 0:
            continue
        right_s, involution = steps[i]
        xu, xv = (element_at[w] for w in h.edge_ends(e))
        if right_s[xu] != xv:
            xu, xv = xv, xu
        cg.add_generator_edge(xu, xv, i, involution)
    return cg, FundamentalDomain(dom, tree)
