import json

import pytest
from hypothesis import given, strategies as st

import pcl.embedding
from pcl.actions import babai_contract
from pcl.cayley import InfiniteFamilySpec, build_ball, build_cayley
from pcl.cli import _cayley, _family_spec
from pcl.embedding import ball_embedding, trace_faces
from pcl.families import FAMILIES
from pcl.graph import MultiGraph, twin
from pcl.groups import a4_model, cyclic_group, z4xz2_model
from pcl.planarity import simple_neighbours

from test_actions import _cyclic_subgroup_action
from test_cli import written
from util import (components_by_sets, graph_from_edges, graph_from_json_dict,
                  left_action, shuffled_ball, star_cut)
from test_certificates import nonplanar_graphs, plane_multigraphs


def test_twin_pairing():
    assert twin(0) == 1 and twin(1) == 0
    assert twin(7) == 6


def test_add_vertex_after_keyed_names_refuses_a_taken_name():
    """add_vertex rebuilds its name index after keyed vertices, so a
    rendered name is refused and a new one gets the next id."""
    g = MultiGraph()
    g.add_keyed_vertices([0, 1, 2], lambda keys: [f"k{x}" for x in keys])
    with pytest.raises(ValueError, match="duplicate vertex name 'k1'"):
        g.add_vertex("k1")
    assert g.add_vertex("k3") == 3
    assert g.vertex_names == ["k0", "k1", "k2", "k3"]


def test_add_edge_darts_and_incidence():
    g = MultiGraph()
    u = g.add_vertex("u")
    v = g.add_vertex("v")
    e = g.add_edge(u, v, "s", True)
    assert g.edge_ends(e) == (u, v)
    assert g.head(2 * e) == v and g.head(2 * e + 1) == u
    assert g.incidence()[u] == [2 * e]
    assert g.degree(u) == 1


def test_loop_contributes_two_darts():
    g = MultiGraph()
    v = g.add_vertex()
    g.add_edge(v, v, "l", True)
    assert g.degree(v) == 2
    assert g.incidence()[v] == [0, 1]


def test_components_and_connectivity():
    g = graph_from_edges(4, [(0, 1), (2, 3)])
    assert not g.is_connected()
    assert g.component_count() == 2


@given(st.integers(1, 14), st.data())
def test_components_match_set_based_oracle(n, data):
    """Random multigraphs with loops and parallel edges, on the whole
    vertex set and on random subsets."""
    g = MultiGraph()
    for _ in range(n):
        g.add_vertex()
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                         st.integers(0, n - 1)), max_size=20))
    for u, v in pairs:
        g.add_edge(u, v)
    assert g.component_count() == len(components_by_sets(g))
    subset = data.draw(st.sets(st.integers(0, n - 1)))
    assert g.component_count(subset) == len(components_by_sets(g, subset))


_BALL_SPECS = [InfiniteFamilySpec("z-cross-z"),
               InfiniteFamilySpec("free", {"rank": 2}),
               InfiniteFamilySpec("amalgam")]


@given(st.sampled_from(_BALL_SPECS), st.integers(0, 6), st.randoms(),
       st.sampled_from([None, 0.2, 0.5, 0.8]))
def test_components_match_set_based_oracle_on_balls(spec, radius, rng,
                                                    density):
    """Renumbered balls, whole and on random vertex subsets of the given
    density, which split a ball into many components."""
    ball = shuffled_ball(build_ball(spec, radius), rng)
    subset = (None if density is None else
              {v for v in range(ball.n_vertices) if rng.random() < density})
    assert (ball.component_count(subset)
            == len(components_by_sets(ball, subset)))


def test_json_round_trip():
    g = MultiGraph()
    g.add_vertex("a")
    g.add_vertex("b")
    g.add_edge(0, 1, "s", False)
    g.add_edge(0, 0, "l", True)
    g.frontier.add(1)
    g.radius = 2
    data = g.to_json_dict()
    assert data["schema"] == "pcl/1"
    h = graph_from_json_dict(data)
    assert h.to_json_dict() == data
    printed = graph_from_json_dict(json.loads(written({}, g)))
    assert printed.to_json_dict() == data


def test_dot_output_mentions_labels():
    g = MultiGraph()
    g.add_vertex("a")
    g.add_vertex("b")
    g.add_edge(0, 1, "s", False)
    dot = g.to_dot()
    assert "digraph" in dot and '"s"' in dot or "label" in dot


def test_simple_neighbours_collapses_parallels():
    g = MultiGraph()
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1, "p", False)
    g.add_edge(0, 1, "p", False)
    adj = simple_neighbours(g.n_vertices, g.edges())
    assert list(adj[0]) == [1]


def test_cached_incidence_sees_later_additions():
    g = graph_from_edges(3, [(0, 1)])
    assert g.incidence() == [[0], [1], []]
    assert g.degree(2) == 0 and not g.is_connected()
    g.add_edge(1, 2, "s", True)
    assert g.incidence() == [[0], [1, 2], [3]]
    assert g.degree(1) == 2 and g.is_connected()
    v = g.add_vertex()
    assert g.incidence()[v] == [] and g.degree(v) == 0
    assert not g.is_connected()
    g.add_edge(v, v, "l", True)
    assert g.degree(v) == 2 and g.component_count() == 2


def test_incidence_lists_are_fresh_on_every_call():
    g = graph_from_edges(3, [(0, 1), (1, 2)])
    inc = g.incidence()
    inc[1].append(99)
    inc[0].clear()
    assert g.incidence() == [[0], [1, 2], [3]]


@given(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 7)),
                max_size=20))
def test_degree_counts_incident_darts(edges):
    """Loops count twice and parallel edges once each, as the darts do."""
    g = graph_from_edges(8, edges + edges[:3] + [(u, u) for u, _ in edges[:2]])
    assert [g.degree(v) for v in range(8)] == list(map(len, g.incidence()))


def _star_cut_by_edge_scan(g: MultiGraph, v: int) -> int:
    vec = 0
    for e in range(g.n_edges):
        u, w = g.edge_ends(e)
        if (u == v) != (w == v):
            vec ^= 1 << e
    return vec


@given(st.one_of(plane_multigraphs(), nonplanar_graphs()))
def test_star_cut_matches_edge_scan(g):
    for v in range(g.n_vertices):
        assert star_cut(g, v) == _star_cut_by_edge_scan(g, v)


def _assert_out_darts_leave_their_vertex(cg):
    k = len(cg.generators)
    assert len(cg.out_dart) == cg.n_vertices * k
    assert max(cg.out_dart) >= 0
    for j, d in enumerate(cg.out_dart):
        v, i = divmod(j, k)
        if d >= 0:
            assert cg.dart_tail[d] == v
            assert cg.edge_label[d >> 1] == cg.generators[i]
        else:
            assert v in cg.frontier  # only a ball's frontier lacks darts


@pytest.mark.parametrize("group,gens", [
    ("a4", None), ("a4", "k,r,k"), ("z4xz2", "(1,0),(0,1),(0,0)"),
    ("z4xz2", "(2,0),(0,1),(1,0)"),
])
def test_out_dart_tails_complete_graphs(group, gens):
    _assert_out_darts_leave_their_vertex(_cayley(group, gens, 64))


@pytest.mark.parametrize("family", list(FAMILIES))
def test_out_dart_tails_balls(family):
    spec = _family_spec(family, rank=2, steps=(1,), n=3)
    _assert_out_darts_leave_their_vertex(build_ball(spec, 2))


@pytest.mark.parametrize("family", list(FAMILIES))
@pytest.mark.parametrize("rank, steps, n", [(2, (1,), 3), (3, (2, 3), 5)])
def test_family_balls_are_connected(family, rank, steps, n):
    """The verdict build_ball keeps, against a count of the components."""
    spec = _family_spec(family, rank=rank, steps=steps, n=n)
    for radius in range(5):
        ball = build_ball(spec, radius)
        assert ball.is_connected()
        assert ball.component_count() == 1


def test_out_dart_tails_babai_quotients():
    g = a4_model()
    q, _ = babai_contract(left_action(g, build_cayley(g, ["k", "r"])))
    _assert_out_darts_leave_their_vertex(q)
    for model, sym in ((z4xz2_model(), "(0,1)"), (cyclic_group(6, "g"), "g^3")):
        cg = build_cayley(model, list(model.element_names))
        _, act = _cyclic_subgroup_action(model, cg, sym)
        _assert_out_darts_leave_their_vertex(babai_contract(act)[0])


def test_connectivity_is_checked_again_after_an_edit():
    """is_connected is kept per graph, and every edit drops it, so the
    refusal of disconnected input holds after the graph changes."""
    g = graph_from_edges(3, [(0, 1), (1, 2), (2, 0)])
    rot = [list(inc) for inc in g.incidence()]
    assert trace_faces(g, rot).genus == 0
    w = g.add_vertex()
    with pytest.raises(ValueError, match="connected"):
        trace_faces(g, rot + [[]])
    g.add_edge(0, w, "", False)
    assert trace_faces(g, [list(inc) for inc in g.incidence()]).genus == 0
    assert g.is_connected()


@pytest.mark.parametrize("family, radius, embedded", [
    ("z-cross-z3", 5, True), ("amalgam", 3, False)])
def test_ball_embedding_runs_one_search_per_graph(monkeypatch, family,
                                                  radius, embedded):
    """The probe traces several pairs on Ball(2) (all 960 on the
    amalgam's) and the whole ball once when the probe finds a pair, and
    never searches connectivity: build_ball keeps the verdict."""
    searched, traced = [], []
    component_count = MultiGraph.component_count

    def counted(self, vertices=None):
        searched.append(self.n_vertices)
        return component_count(self, vertices)

    trace = pcl.embedding.trace_faces

    def counted_trace(g, rot):
        traced.append(g.n_vertices)
        return trace(g, rot)

    monkeypatch.setattr(MultiGraph, "component_count", counted)
    monkeypatch.setattr(pcl.embedding, "trace_faces", counted_trace)
    ball = build_ball(_family_spec(family, rank=2, steps=(1,), n=3), radius)
    assert (ball_embedding(ball) is not None) == embedded
    assert len(traced) > 1 + embedded
    assert searched == []
