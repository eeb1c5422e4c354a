"""Fast certificates against their brute-force oracles.

- Kuratowski witnesses against networkx's ``get_counterexample`` and
  against the greedy deletion with every question put to the whole
  graph, their chains against the walk that skips used pairs, and the
  reduced-core planarity verdict against networkx's;
- 3-connectivity read off the faces against ``vertex_connectivity``,
  exhaustive search and the faces traced again over the simple rotation,
  with the separator it reports, and the connectivity
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

import pcl.embedding
from pcl.augment import (TooFewVerticesError, _nx_graph, ladder_augment,
                         vertex_connectivity)
from pcl.cayley import build_ball, build_cayley, interior_degrees
from pcl.covariance import (NonPlanarError, NotThreeConnectedError,
                            _face_separator, plane_connectivity,
                            whitney_unique)
from pcl.embedding import (KuratowskiWitness, _classify_witness,
                           _kuratowski_edges, _reduced_planar,
                           planarity_test, trace_faces, verify_witness)
from pcl.families import engine_for
from pcl.graph import CayleyGraph, MultiGraph
from pcl.groups import GroupModel, coset_enumerate
from pcl.planarity import simple_neighbours
from pcl.presentation import parse_presentation

from util import (brute_force_connectivity, classify_witness_by_used_pairs,
                  face_separator_by_simple_rotation, graph_from_edges,
                  kuratowski_edges_by_whole_runs, random_plane_graph,
                  verify_witness_by_networkx)

K5 = [(i, j) for i in range(5) for j in range(i + 1, 5)]
K33 = [(i, j) for i in range(3) for j in range(3, 6)]
K4 = [e for e in K5 if 4 not in e]
K5_MINUS = [e for e in K5 if e != (3, 4)]
THETA = [(0, 2), (2, 1), (0, 3), (3, 4), (4, 1), (0, 5), (5, 1)]


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


@given(nonplanar_graphs())
def test_witness_check_equals_networkx_oracle(g):
    """On a witness of ``planarity_test`` and on the same witness with a
    path dropped or its kind swapped."""
    w = planarity_test(g)
    other = "K5" if w.kind == "K3,3" else "K3,3"
    for v in (w, KuratowskiWitness(w.kind, w.branch_vertices, w.paths[:-1]),
              KuratowskiWitness(other, w.branch_vertices, w.paths)):
        assert verify_witness(g, v) == verify_witness_by_networkx(g, v)


PRISM = [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (0, 3), (1, 4),
         (2, 5)]  # 3-regular on six vertices, with triangles


def _edges_witness(kind: str, n: int, edges: list[tuple[int, int]],
                   paths: list[list[int]] | None = None):
    """The graph on n vertices with these edges, and the witness whose
    branch vertices are the first five or six and whose paths are the
    edges themselves, or ``paths``."""
    branch = list(range(5 if kind == "K5" else 6))
    return (graph_from_edges(n, edges), KuratowskiWitness(
        kind, branch, paths or [list(e) for e in edges]))


@pytest.mark.parametrize("g, w, valid", [
    (*_edges_witness("K5", 5, K5), True),
    (*_edges_witness("K3,3", 6, K33), True),
    (*_edges_witness("K3,3", 6, K33 + [(0, 1)]), False),  # plus a chord
    (*_edges_witness("K3,3", 6, PRISM), False),  # degrees 3, not bipartite
    (*_edges_witness("K5", 5, K5_MINUS), False),
    # a repeated branch pair: 0-5-1 doubles 0-1, and 2-3 is left out
    (*_edges_witness("K5", 6, K5 + [(0, 5), (5, 1)],
                     [list(e) for e in K5 if e != (2, 3)] + [[0, 5, 1]]),
     False),
    # a path through the branch vertex 3, which stands in for 0-4
    (*_edges_witness("K3,3", 6, K33,
                     [list(e) for e in K33 if e != (0, 4)] + [[0, 3, 1]]),
     False),
], ids=["K5", "K33", "K33-chord", "prism", "K5-minus", "repeated-pair",
        "through-branch"])
def test_witness_check_on_broken_witnesses(g, w, valid):
    assert verify_witness(g, w) == verify_witness_by_networkx(g, w) == valid


def test_witness_check_rejects_a_loop_path():
    """A path from a branch vertex back to itself contracts to a loop,
    which is no edge of K5; the networkx oracle counts it as one."""
    g, w = _edges_witness("K5", 6, K5_MINUS + [(0, 5)],
                          [list(e) for e in K5_MINUS] + [[0, 5, 0]])
    assert verify_witness_by_networkx(g, w)
    assert not verify_witness(g, w)


def _subdivide(edges: list[tuple[int, int]], n: int,
               ks: list[int]) -> tuple[int, list[tuple[int, int]]]:
    """Each edge of a graph on n vertices replaced by a path through k new
    vertices, k from ks in turn; the vertex count and the edges."""
    out = []
    for (u, v), k in zip(edges, ks):
        path = [u, *range(n, n + k), v]
        n += k
        out += zip(path, path[1:])
    return n, out


@st.composite
def subdivided_kuratowski_graphs(draw) -> MultiGraph:
    """A K5 or K3,3 with every edge subdivided up to three times, pendant
    trees hung on it, isolated vertices, a few chords, loops and repeated
    edges: up to 44 vertices on shuffled labels, edges in shuffled order,
    not necessarily connected."""
    base = draw(st.sampled_from([K5, K33]))
    n, edges = _subdivide(base, 1 + max(map(max, base)), draw(st.lists(
        st.integers(0, 3), min_size=len(base), max_size=len(base))))
    for _ in range(draw(st.integers(0, 8))):  # each new vertex a leaf
        edges.append((draw(st.integers(0, n - 1)), n))
        n += 1
    n += draw(st.integers(0, 3))  # isolated, unless a chord lands there
    vertex = st.integers(0, n - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex), max_size=4))
    edges += [(v, v) for v in draw(st.lists(vertex, max_size=2))]
    edges += draw(st.lists(st.sampled_from(edges), max_size=4))
    perm = draw(st.permutations(range(n)))
    order = draw(st.permutations(edges))
    return graph_from_edges(n, [(perm[u], perm[v]) for u, v in order])


@settings(max_examples=100)
@given(subdivided_kuratowski_graphs())
def test_kept_edges_equal_whole_graph_oracle(g):
    adj = simple_neighbours(g.n_vertices, map(g.edge_ends, range(g.n_edges)))
    edges = _kuratowski_edges(g, adj)
    assert edges == kuratowski_edges_by_whole_runs(g, _nx_graph(g))
    assert verify_witness(g, _classify_witness(g, edges))


@settings(max_examples=100)
@given(subdivided_kuratowski_graphs())
def test_witness_chains_equal_used_pair_oracle(g):
    """One set of chains, each walked from both ends, gives the witness
    of the walk that skips the pairs already used."""
    adj = simple_neighbours(g.n_vertices, map(g.edge_ends, range(g.n_edges)))
    edges = _kuratowski_edges(g, adj)
    assert _classify_witness(g, edges) == classify_witness_by_used_pairs(
        g, edges)


@pytest.mark.parametrize("n", range(5, 61))
def test_prism_witness_equals_whole_graph_oracle(n):
    """The ``embed C_n x C_2 --gens a,a*b`` witness."""
    cg = build_cayley(coset_enumerate(parse_presentation(
        f"group P {{ gens: a b; rels: a^{n}, b^2, a*b*a^-1*b^-1; }}"), 1000),
        ["a", "a*b"])
    w = planarity_test(cg)
    assert w == _classify_witness(
        cg, kuratowski_edges_by_whole_runs(cg, _nx_graph(cg)))
    assert verify_witness(cg, w)


def _nx(n: int, edges: list[tuple[int, int]]) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    return G


def _adjacency(G: nx.Graph) -> list[set[int]]:
    return [set(G[v]) for v in range(len(G))]


@pytest.mark.parametrize("n, edges, gated", [
    (0, [], True),
    (2, [(0, 1)], True),
    (3, [(0, 1), (1, 2), (2, 0)], True),
    (6, THETA, True),  # smoothing gives three parallel edges 0-1
    # a triangle hanging at vertex 0: smoothing gives a loop
    (6, K4 + [(0, 4), (4, 5), (5, 0)], True),
    (8, K33 + [(0, 6), (6, 7), (7, 0)], False),
    (5, K5_MINUS, True),  # five of degree >= 3, three of degree 4
    (5, [(0, i) for i in range(1, 5)] + [(1, 2), (2, 3), (3, 4), (4, 1)],
     True),  # wheel: five of degree >= 3, one of degree 4
    # four of degree >= 4 and five of degree >= 3 in the 2-core
    (6, K5_MINUS + [(3, 5), (5, 0)], True),
    (6, K5_MINUS + [(3, 5), (5, 4)], False),  # K5, one edge subdivided
    (5, K5, False),
    (6, K33, False),
    (6, K33[:-1], True),
    (*_subdivide(K5, 5, [4] * 10), False),
    (*_subdivide(K33, 6, [5] * 9), False),
    (*_subdivide(K5_MINUS, 5, [3] * 9), True),
])
def test_reduced_verdict_equals_whole_graph_run(lr_runs, n, edges, gated):
    G = _nx(n, edges)
    want = nx.check_planarity(G)[0]
    lr_runs.clear()
    assert _reduced_planar(_adjacency(G)) == want
    assert len(lr_runs) == (0 if gated else 1)


@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.tuples(st.integers(0, n - 1),
                                   st.integers(0, n - 1)), max_size=30))))
def test_reduced_verdict_on_random_graphs(n_edges):
    n, edges = n_edges
    G = _nx(n, [(u, v) for u, v in edges if u != v])
    assert _reduced_planar(_adjacency(G)) == nx.check_planarity(G)[0]


def test_reduced_verdict_of_subdivisions_with_pendant_trees(lr_runs):
    """Subdivisions of one K3,3 with a pendant path reduce to K3,3: each
    is non-planar after one kernel run."""
    for k in range(3):
        n, edges = _subdivide(K33, 6, [k] * 9)
        edges += [(0, n), (n, n + 1)]
        assert not _reduced_planar(_adjacency(_nx(n + 2, edges)))
    assert len(lr_runs) == 3


@pytest.mark.parametrize("n, runs", [(11, 12), (31, 16), (51, 16)])
def test_prism_witness_verdict_runs_are_bounded(lr_runs, n, runs):
    """The greedy deletion behind the ``embed C_n x C_2 --gens a,a*b``
    witness asks the kernel for at most ``runs`` verdicts, and keeps the
    edges of the whole-graph oracle."""
    cg = build_cayley(coset_enumerate(parse_presentation(
        f"group P {{ gens: a b; rels: a^{n}, b^2, a*b*a^-1*b^-1; }}"), 1000),
        ["a", "a*b"])
    adj = simple_neighbours(cg.n_vertices,
                            map(cg.edge_ends, range(cg.n_edges)))
    lr_runs.clear()
    edges = _kuratowski_edges(cg, adj)
    assert len(lr_runs) <= runs
    assert edges == kuratowski_edges_by_whole_runs(cg, _nx_graph(cg))


def test_question_inside_the_last_planar_answer_makes_no_run(monkeypatch):
    """On the C_11 x C_2 witness graph five of the whole-graph oracle's 27
    questions ask about a subgraph of a graph found planar before: they
    are answered with no call of ``_reduced_planar``, and the kept edges
    are the oracle's."""
    cg = build_cayley(coset_enumerate(parse_presentation(
        "group P { gens: a b; rels: a^11, b^2, a*b*a^-1*b^-1; }"), 1000),
        ["a", "a*b"])
    adj = simple_neighbours(cg.n_vertices, cg.edges())
    G = _nx_graph(cg)
    reduced, asked = [], []
    reduce, check = pcl.embedding._reduced_planar, nx.check_planarity
    monkeypatch.setattr(pcl.embedding, "_reduced_planar",
                        lambda H: reduced.append(1) or reduce(H))
    monkeypatch.setattr(nx, "check_planarity",
                        lambda H: asked.append(1) or check(H))
    assert _kuratowski_edges(cg, adj) == kuratowski_edges_by_whole_runs(cg, G)
    assert (len(reduced), len(asked)) == (22, 27)


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
    assert g.component_count(rest) > 1


@given(plane_multigraphs())
def test_face_separator_equals_simple_rotation_oracle(g):
    """The separator read off the traced faces against the faces traced
    again over the simple rotation, on the embedding, its mirror and its
    ladder augmentation: both find none, or both find one of the same
    size, and each separates."""
    emb = planarity_test(g)
    for e in (emb, emb.mirror(), ladder_augment(g, emb)[1]):
        n = e.graph.n_vertices
        if n < 4:
            continue
        got, want = _face_separator(e), face_separator_by_simple_rotation(e)
        assert (got is None) == (want is None)
        if got is not None:
            assert len(got) == len(want)
            for sep in (got, want):
                assert e.graph.component_count(set(range(n)) - set(sep)) > 1


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


def test_plane_connectivity_below_four_vertices_equals_flow():
    """Every connected multigraph on 2 or 3 vertices with up to two copies
    of each edge and up to two loops at each vertex; one vertex is
    refused, as by the flow."""
    count = 0
    for n in (2, 3):
        pairs = list(itertools.combinations(range(n), 2))
        for copies in itertools.product(range(3), repeat=len(pairs)):
            for loops in itertools.product(range(3), repeat=n):
                g = graph_from_edges(n, [
                    *(p for p, k in zip(pairs, copies) for _ in range(k)),
                    *((v, v) for v, k in enumerate(loops) for _ in range(k))])
                if not g.is_connected():
                    continue
                count += 1
                assert (plane_connectivity(planarity_test(g))
                        == vertex_connectivity(g))
    assert count == 2 * 9 + 20 * 27
    with pytest.raises(TooFewVerticesError):
        plane_connectivity(planarity_test(graph_from_edges(1, [(0, 0)])))


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
    return GroupModel("P", gens, p, [f"x{i}" for i in range(n)])


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
