import pytest

from pcl.graph import MultiGraph, graph_from_edges, twin


def test_twin_pairing():
    assert twin(0) == 1 and twin(1) == 0
    assert twin(7) == 6


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
    assert len(g.components()) == 2


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
    h = MultiGraph.from_json_dict(data)
    assert h.to_json_dict() == data


def test_dot_output_mentions_labels():
    g = MultiGraph()
    g.add_vertex("a")
    g.add_vertex("b")
    g.add_edge(0, 1, "s", False)
    dot = g.to_dot()
    assert "digraph" in dot and '"s"' in dot or "label" in dot


def test_simple_adjacency_collapses_parallels():
    g = MultiGraph()
    g.add_vertex()
    g.add_vertex()
    g.add_edge(0, 1, "p", False)
    g.add_edge(0, 1, "p", False)
    adj = g.simple_adjacency()
    assert adj[0] == {1}
