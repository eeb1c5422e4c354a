"""Fast certificates against their brute-force oracles.

- Kuratowski witnesses against networkx's ``get_counterexample``;
- 3-connectivity read off the faces against ``vertex_connectivity`` and
  exhaustive search, with the separator it reports;
- the exception types of ``whitney_unique``;
- Light's associativity test against the triple loop;
- one-pass interior degrees against ``MultiGraph.degree``.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, strategies as st

from pcl.augment import vertex_connectivity
from pcl.cayley import build_ball, interior_degrees
from pcl.covariance import (NonPlanarError, NotThreeConnectedError,
                            whitney_unique)
from pcl.embedding import KuratowskiWitness, planarity_test, verify_witness
from pcl.families import engine_for
from pcl.graph import CayleyGraph, MultiGraph, graph_from_edges
from pcl.groups import GroupModel, cyclic_group, direct_product

from util import brute_force_connectivity, random_plane_graph

K5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
K33 = [(i, j) for i in range(3) for j in range(3, 6)]


def _simple_nx(g: MultiGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.n_vertices))
    G.add_edges_from(g.edge_ends(e) for e in range(g.n_edges)
                     if len(set(g.edge_ends(e))) == 2)
    return G


def _path_edges(w: KuratowskiWitness) -> set[frozenset[int]]:
    return {frozenset(p[i:i + 2]) for p in w.paths for i in range(len(p) - 1)}


@st.composite
def nonplanar_graphs(draw) -> MultiGraph:
    """A K5 or K3,3 on shuffled vertices, with random extra vertices and
    edges (parallel edges and loops included); connected."""
    n = draw(st.integers(6, 10))
    perm = draw(st.permutations(range(n)))
    base = draw(st.sampled_from([K5, K33]))
    edges = [(perm[u], perm[v]) for u, v in base]
    for v in range(1, n):
        edges.append((perm[v], perm[draw(st.integers(0, v - 1))]))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges += draw(st.lists(pair, max_size=12))
    order = draw(st.permutations(range(len(edges))))
    return graph_from_edges(n, [edges[i] for i in order])


@given(nonplanar_graphs())
def test_witness_matches_networkx_counterexample(g):
    w = planarity_test(g)
    assert isinstance(w, KuratowskiWitness)
    assert verify_witness(g, w)
    ok, ref = nx.check_planarity(_simple_nx(g), counterexample=True)
    assert not ok
    assert _path_edges(w) == {frozenset(e) for e in ref.edges}


@st.composite
def plane_multigraphs(draw) -> MultiGraph:
    """Random 2-connected plane graph, then either parallel edges and
    loops, or also pendant vertices and subdivided edges."""
    rng = draw(st.randoms(use_true_random=False))
    g, _ = random_plane_graph(rng, max_vertices=rng.randrange(4, 10),
                              steps=rng.randrange(0, 100))
    kinds = ["parallel", "loop"]
    if draw(st.booleans()):
        kinds += ["pendant", "subdivide"]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(kinds))
        if kind == "pendant":
            w = g.add_vertex()
            g.add_edge(rng.randrange(w), w, "p", False)
            continue
        e = rng.randrange(g.n_edges)
        u, v = g.edge_ends(e)
        if kind == "subdivide":
            w = g.add_vertex()
            g.add_edge(u, w, "s", False)
            g.add_edge(w, v, "s", False)
        elif kind == "parallel":
            g.add_edge(v, u, "q", False)
        else:
            g.add_edge(u, u, "l", True)
    return g


@given(plane_multigraphs())
def test_face_criterion_agrees_with_connectivity_oracles(g):
    kappa = vertex_connectivity(g)
    assert min(kappa, 3) == min(brute_force_connectivity(g), 3)
    if kappa >= 3:
        whitney_unique(g)
        return
    with pytest.raises(NotThreeConnectedError) as ei:
        whitney_unique(g)
    sep = ei.value.separator
    if g.n_vertices <= 3:  # decided by vertex_connectivity, no certificate
        assert sep is None
        return
    assert sep is not None and 1 <= len(sep) <= 2
    rest = set(range(g.n_vertices)) - set(sep)
    assert len(g.components(rest)) > 1


def test_separator_of_degree_two_vertex_on_triangle():
    # 0 has degree 2 on the triangle 0-1-2; the pair {1, 2} separates it
    g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4),
                             (1, 4)])
    with pytest.raises(NotThreeConnectedError) as ei:
        whitney_unique(g)
    assert ei.value.separator == (1, 2)


def _old_whitney_error(g: MultiGraph) -> type | None:
    """Exception type of the connectivity-first gate: vertex connectivity
    (max-flow), then planarity."""
    try:
        if vertex_connectivity(g) < 3:
            return NotThreeConnectedError
    except ValueError:
        return ValueError
    if isinstance(planarity_test(g), KuratowskiWitness):
        return NonPlanarError
    return None


def _whitney_error(g: MultiGraph) -> type | None:
    try:
        whitney_unique(g)
    except (ValueError, NonPlanarError) as exc:
        return type(exc)
    return None


TWO_K5 = K5 + [(u + 4, v + 4) for u, v in K5]  # sharing vertex 4


@pytest.mark.parametrize("n, edges", [
    (0, []), (1, []), (2, [(0, 1)]), (3, [(0, 1), (1, 2), (2, 0)]),
    (3, [(0, 1), (1, 2)]), (4, [(0, 1), (2, 3)]),
    (8, [(i, j) for i in range(4) for j in range(i + 1, 4)]
     + [(i + 4, j + 4) for i in range(4) for j in range(i + 1, 4)]),
    (5, K5), (6, K33), (6, K5 + [(4, 5)]), (9, TWO_K5),
    (7, K33 + [(5, 6), (6, 0)]),
])
def test_whitney_exception_types_unchanged(n, edges):
    g = graph_from_edges(n, edges)
    assert _whitney_error(g) == _old_whitney_error(g)


@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(
        list(itertools.combinations(range(n), 2)) or [(0, 0)])))))
def test_whitney_exception_types_on_random_graphs(case):
    n, edges = case
    g = graph_from_edges(n, [e for e in edges if e[0] != e[1]])
    assert _whitney_error(g) == _old_whitney_error(g)


# -- Light's associativity test --------------------------------------------

# the smallest loops that are not groups have order 5; this one has
# x*x = e for every x, so identity, inverse and Latin checks all pass
LOOP5 = [[0, 1, 2, 3, 4],
         [1, 0, 3, 4, 2],
         [2, 4, 0, 1, 3],
         [3, 2, 4, 0, 1],
         [4, 3, 1, 2, 0]]


def _model(table: list[list[int]]) -> GroupModel:
    n = len(table)
    inv = [row.index(0) for row in table]
    return GroupModel("T", [f"x{i}" for i in range(n)], table, inv)


def _triple_loop_associative(table: list[list[int]]) -> bool:
    n = len(table)
    return all(table[table[x][y]][z] == table[x][table[y][z]]
               for x in range(n) for y in range(n) for z in range(n))


def test_light_rejects_nonassociative_loop():
    assert not _triple_loop_associative(LOOP5)
    with pytest.raises(AssertionError, match="associativity"):
        _model(LOOP5).check_axioms()
    # Z2 x LOOP5, element 2y + x for (x, y): the first generator (1, e)
    # associates with everything, so every generator has to be tested
    z2_loop5 = [[2 * LOOP5[i // 2][j // 2] + (i + j) % 2 for j in range(10)]
                for i in range(10)]
    assert not _triple_loop_associative(z2_loop5)
    with pytest.raises(AssertionError, match="associativity"):
        _model(z2_loop5).check_axioms()


@st.composite
def relabelled_groups(draw) -> list[list[int]]:
    """A group table of order <= 12 under a random relabelling fixing 0,
    possibly with one 2x2 subsquare off the identity's row and column
    swapped: still a loop, non-associative only around a few elements."""
    rng = draw(st.randoms(use_true_random=False))
    group = draw(st.sampled_from([
        cyclic_group(6), direct_product(cyclic_group(2), cyclic_group(2)),
        direct_product(cyclic_group(2), cyclic_group(6))]))
    n = group.order
    rest = list(range(1, n))
    rng.shuffle(rest)
    relabel = [0] + rest
    table = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            table[relabel[x]][relabel[y]] = relabel[group.mul(x, y)]
    subsquares = [(x1, x2, y1, y2)
                  for x1, x2 in itertools.combinations(range(1, n), 2)
                  for y1, y2 in itertools.combinations(range(1, n), 2)
                  if table[x1][y1] == table[x2][y2]
                  and table[x1][y2] == table[x2][y1]]
    if subsquares and draw(st.booleans()):
        x1, x2, y1, y2 = rng.choice(subsquares)
        table[x1][y1], table[x1][y2] = table[x1][y2], table[x1][y1]
        table[x2][y1], table[x2][y2] = table[x2][y2], table[x2][y1]
    return table


@st.composite
def latin_loops(draw) -> list[list[int]]:
    """A random loop (Latin square with identity 0) of order <= 6."""
    rng = draw(st.randoms(use_true_random=False))
    n = draw(st.integers(1, 6))
    table = [[(x if y == 0 else y if x == 0 else -1) for y in range(n)]
             for x in range(n)]
    cells = [(x, y) for x in range(1, n) for y in range(1, n)]

    def fill(k: int) -> bool:
        if k == len(cells):
            return True
        x, y = cells[k]
        values = list(range(n))
        rng.shuffle(values)
        for val in values:
            if val not in table[x] and all(table[r][y] != val
                                           for r in range(n)):
                table[x][y] = val
                if fill(k + 1):
                    return True
                table[x][y] = -1
        return False

    assert fill(0)
    return table


@given(st.one_of(latin_loops(), relabelled_groups()))
def test_light_agrees_with_triple_loop(table):
    failure = _model(table)._associativity_failure()
    assert (failure is None) == _triple_loop_associative(table)
    if failure is not None:
        x, a, y = failure
        assert table[table[x][a]][y] != table[x][table[a][y]]


# -- interior degrees ------------------------------------------------------

@pytest.mark.parametrize("tag, radius", [("free", 3), ("z-cross-z", 4),
                                         ("amalgam", 2)])
def test_interior_degrees_match_degree(tag, radius):
    ball = build_ball(engine_for(tag), radius)
    assert interior_degrees(ball) == {
        ball.degree(v) for v in range(ball.n_vertices)
        if v not in ball.frontier}


def test_interior_degrees_count_isolated_vertices():
    g = CayleyGraph()
    for _ in range(3):
        g.add_vertex()
    g.add_edge(0, 0, "a")
    g.frontier.add(1)
    assert interior_degrees(g) == {0, 2}
