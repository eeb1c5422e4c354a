"""Fast certificates against their brute-force oracles.

- Kuratowski witnesses against networkx's ``get_counterexample``;
- 3-connectivity read off the faces against ``vertex_connectivity`` and
  exhaustive search, with the separator it reports, and the connectivity
  ``plane_connectivity`` reads off them, also after ladder augmentation;
- the exception types of ``whitney_unique``;
- the group certificate of ``GroupModel.check_axioms`` on actions that
  are not regular, break a relator or are not permutations;
- one-pass interior degrees against ``MultiGraph.degree``.
"""

from __future__ import annotations

import itertools

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from pcl.augment import ladder_augment, vertex_connectivity
from pcl.cayley import build_ball, interior_degrees
from pcl.covariance import (NonPlanarError, NotThreeConnectedError,
                            plane_connectivity, whitney_unique)
from pcl.embedding import (KuratowskiWitness, planarity_test, trace_faces,
                           verify_witness)
from pcl.families import engine_for
from pcl.graph import CayleyGraph, MultiGraph, graph_from_edges
from pcl.groups import GroupModel
from pcl.presentation import parse_presentation

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
def plane_multigraphs(draw, max_vertices: int = 9) -> MultiGraph:
    """Random 2-connected plane graph on at most ``max_vertices``, then
    either parallel edges and loops, or also pendant vertices and
    subdivided edges."""
    rng = draw(st.randoms(use_true_random=False))
    g, _ = random_plane_graph(
        rng, max_vertices=rng.randrange(4, max_vertices + 1),
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


@settings(max_examples=25)
@given(plane_multigraphs(max_vertices=30))
def test_plane_connectivity_equals_flow(g):
    """The face read-off against the max-flow, on the graph and on its
    ladder augmentation, and against exhaustion on small graphs."""
    emb = planarity_test(g)
    kappa = plane_connectivity(emb)
    assert kappa == vertex_connectivity(g)
    if g.n_vertices <= 10:
        assert kappa == brute_force_connectivity(g)
    aug, aug_emb = ladder_augment(g, emb)
    assert plane_connectivity(aug_emb) == vertex_connectivity(aug)


@pytest.mark.parametrize("graph, kappa", [
    (graph_from_edges(3, [(0, 1), (1, 2)]), 1),  # below four vertices
    (graph_from_edges(4, list(itertools.combinations(range(4), 2))), 3),
    (graph_from_edges(6, list(nx.octahedral_graph().edges)), 4),
    (graph_from_edges(12, list(nx.icosahedral_graph().edges)), 5),
])
def test_plane_connectivity_flow_fallbacks(graph, kappa):
    assert plane_connectivity(planarity_test(graph)) == kappa


def test_plane_connectivity_refuses_other_genus():
    k4 = graph_from_edges(4, list(itertools.combinations(range(4), 2)))
    rot = planarity_test(k4).rotation
    rot[0] = [rot[0][0], rot[0][2], rot[0][1]]
    with pytest.raises(ValueError, match="genus-0"):
        plane_connectivity(trace_faces(k4, rot))


def test_separator_of_degree_two_vertex_on_triangle():
    # 0 has degree 2 on the triangle 0-1-2; the pair {1, 2} separates it
    g = graph_from_edges(5, [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4), (3, 4),
                             (1, 4)])
    with pytest.raises(NotThreeConnectedError) as ei:
        whitney_unique(g)
    assert ei.value.separator == (1, 2)


def _old_whitney_error(g: MultiGraph) -> type | None:
    """Exception type of the flow-based gate: vertex connectivity
    (max-flow; TooFewVerticesError below two vertices), with planarity
    checked first on a connected graph."""
    try:
        kappa = vertex_connectivity(g)
    except ValueError as exc:
        return type(exc)
    if kappa > 0 and isinstance(planarity_test(g), KuratowskiWitness):
        return NonPlanarError
    return NotThreeConnectedError if kappa < 3 else None


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


@pytest.mark.parametrize("n, edges", [
    (6, K5 + [(4, 5)]), (9, TWO_K5), (7, K33 + [(5, 6), (6, 0)])])
def test_nonplanar_graph_of_low_connectivity_carries_its_witness(n, edges):
    """Non-planarity is refused first, with a checkable Kuratowski witness,
    also where a cut vertex or 2-separator exists."""
    g = graph_from_edges(n, edges)
    assert vertex_connectivity(g) < 3
    with pytest.raises(NonPlanarError) as ei:
        whitney_unique(g)
    assert verify_witness(g, ei.value.witness)


@given(st.integers(0, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.sets(st.sampled_from(
        list(itertools.combinations(range(n), 2)) or [(0, 0)])))))
def test_whitney_exception_types_on_random_graphs(case):
    n, edges = case
    g = graph_from_edges(n, [e for e in edges if e[0] != e[1]])
    assert _whitney_error(g) == _old_whitney_error(g)


# -- the group certificate ------------------------------------------------

def _action(gens: dict[str, list[int]], rels: str | None = None) -> GroupModel:
    """A model whose generator permutations may not form a regular action."""
    p = None if rels is None else parse_presentation(
        f"group P {{ gens: {' '.join(gens)}; rels: {rels}; }}")
    n = len(next(iter(gens.values())))
    return GroupModel("P", [f"x{i}" for i in range(n)], gens, p)


def test_check_axioms_rejects_transitive_non_regular_action():
    # S3 on 3 points: transitive, satisfies the S3 relators, not regular
    g = _action({"s": [1, 0, 2], "t": [0, 2, 1]}, "s^2, t^2, (s*t)^3")
    with pytest.raises(AssertionError, match="not regular"):
        g.check_axioms()


def test_check_axioms_rejects_relator_failing_off_the_identity():
    # a fixes the identity and swaps the other two points
    g = _action({"a": [0, 2, 1], "b": [1, 2, 0]}, "a, b^3")
    with pytest.raises(AssertionError, match="relator a moves x1"):
        g.check_axioms()


def test_check_axioms_rejects_non_permutation():
    g = _action({"a": [1, 1, 0]})
    with pytest.raises(AssertionError, match="a is not a permutation"):
        g.check_axioms()


def test_check_axioms_rejects_unreached_element():
    g = _action({"a": [1, 0, 2]})
    with pytest.raises(AssertionError, match="do not reach"):
        g.check_axioms()


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
