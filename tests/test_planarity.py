"""The left-right kernel ``pcl.planarity.lr_planarity`` against networkx.

Its verdict and every vertex's clockwise neighbour list must equal those
of ``networkx.check_planarity`` on the simple graph that
``pcl.augment._nx_graph`` builds from the same multigraph, and the
verdict entry ``is_planar`` must agree with both.
"""

from __future__ import annotations

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st
from networkx.algorithms.planarity import ConflictPair

from pcl.augment import _nx_graph
from pcl.cayley import InfiniteFamilySpec, build_ball, build_cayley
from pcl.graph import MultiGraph
from pcl.groups import coset_enumerate
from pcl.planarity import is_planar, lr_planarity, simple_neighbours
from pcl.presentation import parse_presentation
from util import graph_from_edges


def networkx_rotation(g: MultiGraph) -> list[list[int]] | None:
    ok, cert = nx.check_planarity(_nx_graph(g))
    if not ok:
        return None
    return [list(cert.neighbors_cw_order(v)) for v in range(g.n_vertices)]


def assert_kernel_matches(g: MultiGraph) -> None:
    edges = [g.edge_ends(e) for e in range(g.n_edges)]
    want = networkx_rotation(g)
    assert lr_planarity(g.n_vertices, edges) == want
    assert is_planar(simple_neighbours(g.n_vertices, edges)) is (
        want is not None)


def _defaults_empty() -> bool:
    """networkx shares the default intervals of ``ConflictPair()`` between
    all instances; the kernel gives each pair its own, which is the same
    as long as networkx never writes to the shared ones."""
    return all(i.empty() for i in ConflictPair.__init__.__defaults__)


@st.composite
def multigraphs(draw) -> MultiGraph:
    """Up to 40 vertices, shuffled: either random pairs, or stacked
    triangulations side by side with edges dropped and a few chords added;
    then loops and repeated edges.  Isolated vertices and several
    components occur in both."""
    n = draw(st.integers(0, 40))
    if n == 0:
        return graph_from_edges(0, [])
    vertex = st.integers(0, n - 1)
    edges: list[tuple[int, int]] = []
    if draw(st.booleans()):
        start = 0
        while start < n:
            size = draw(st.integers(1, n - start))
            a, b, c = start, start + 1, start + 2
            faces = []
            if size >= 2:
                edges.append((a, b))
            if size >= 3:
                edges += [(b, c), (c, a)]
                faces = [(a, b, c), (a, c, b)]
            for v in range(start + 3, start + size):
                x, y, z = faces.pop(draw(st.integers(0, len(faces) - 1)))
                edges += [(x, v), (y, v), (z, v)]
                faces += [(x, y, v), (y, z, v), (z, x, v)]
            start += size
        keep = draw(st.lists(st.integers(0, 3), min_size=len(edges),
                             max_size=len(edges)))
        edges = [e for e, k in zip(edges, keep) if k]
        edges += draw(st.lists(st.tuples(vertex, vertex), max_size=6))
    else:
        edges = draw(st.lists(st.tuples(vertex, vertex), min_size=n,
                              max_size=3 * n))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=3))]
    if edges:
        edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(edges))
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in order])


@settings(max_examples=400)
@given(multigraphs())
def test_kernel_rotation_equals_networkx_on_random_multigraphs(g):
    assert_kernel_matches(g)
    assert _defaults_empty()


@st.composite
def neighbour_sets(draw) -> list:
    """A graph as ``_reduced_planar`` hands it to ``is_planar``: a set of
    neighbours per vertex, isolated vertices included, and some vertices
    dropped, their edges removed and their sets replaced by an empty
    tuple.  Some sets are lists in a drawn order instead."""
    g = draw(multigraphs())
    n = g.n_vertices
    adj: list = [set(ws) for ws in simple_neighbours(n, g.edges())]
    for v in draw(st.sets(st.integers(0, max(n - 1, 0)), max_size=n // 3)):
        for w in adj[v]:
            adj[w].discard(v)
        adj[v] = ()
    return [draw(st.permutations(sorted(ws))) if ws and draw(st.booleans())
            else ws for ws in adj]


@settings(max_examples=300)
@given(neighbour_sets())
def test_verdict_entry_equals_networkx_and_kernel(adj):
    G = nx.Graph()
    G.add_nodes_from(range(len(adj)))
    edges = [(v, w) for v, ws in enumerate(adj) for w in ws]
    G.add_edges_from(edges)
    want = nx.check_planarity(G)[0]
    assert is_planar(adj) is want
    assert is_planar(simple_neighbours(len(adj), edges)) is want


def test_kernel_on_no_vertices_and_one_edge():
    assert lr_planarity(0, []) == []
    assert lr_planarity(2, [(0, 1), (1, 0), (1, 1)]) == [[1], [0]]
    assert is_planar(simple_neighbours(3, [])) is True


def _finite(relators: str, gens: list[str], names: str = "a b",
            extra: str = "") -> MultiGraph:
    return build_cayley(coset_enumerate(parse_presentation(
        f"group G {{ gens: {names}; rels: {relators}; {extra}}}"), 4096), gens)


def _prism(n: int, gens: list[str]) -> MultiGraph:
    return _finite(f"a^{n}, b^2, a*b*a^-1*b^-1", gens)


def _triangle(m: int) -> MultiGraph:
    return _finite(f"k^2, r^3, (k*r)^{m}", ["k", "r"], "k r",
                   "involutions: k; ")


# the graph shapes of the benchmark's jobs
SHAPES = {
    **{f"amalgam-R{r}": lambda r=r: build_ball(InfiniteFamilySpec("amalgam"), r)
       for r in range(3, 8)},
    "z-cross-z-R8": lambda: build_ball(InfiniteFamilySpec("z-cross-z"), 8),
    "free-R5": lambda: build_ball(InfiniteFamilySpec("free"), 5),
    **{f"c{n}-cross-z-R10": lambda n=n: build_ball(
        InfiniteFamilySpec("cn-cross-z", {"n": n}), 10) for n in (4, 5, 6)},
    **{f"C{n}xC2-{'+'.join(gens)}": lambda n=n, gens=gens: _prism(n, gens)
       for n in (5, 12, 33) for gens in (["a", "b"], ["a", "a*b"])},
    **{f"D{n}": lambda n=n: _finite(f"a^{n}, b^2, (a*b)^2", ["a", "b"])
       for n in (5, 20, 51)},
    **{f"T23{m}": lambda m=m: _triangle(m) for m in (3, 4, 5)},
}


@pytest.mark.parametrize("shape", SHAPES)
def test_kernel_rotation_equals_networkx_on_benchmark_shapes(shape):
    assert_kernel_matches(SHAPES[shape]())
