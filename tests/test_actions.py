import pytest

from pcl.actions import (GraphAction, NotFreeError, babai_contract, blow_up,
                         is_free, left_action)
from pcl.cayley import build_cayley, dart_permutation, \
    left_multiplication_invariant
from pcl.groups import a4_model, cyclic_group, z4xz2_model


def _cyclic_subgroup_action(model, cg, sym):
    x = model.element(sym)
    k = model.element_order(x)
    sub = cyclic_group(k, sym)
    vperms, dperms = [], []
    power = model.identity
    for _ in range(k):
        vp, dp = dart_permutation(cg, power)
        vperms.append(vp)
        dperms.append(dp)
        power = model.mul(power, x)
    return sub, GraphAction(sub, cg, vperms, dperms)


def test_left_action_axioms_and_freeness():
    g = a4_model()
    cg = build_cayley(g, ["k", "r"])
    act = left_action(g, cg)
    act.check_axioms()
    assert is_free(act) is True
    assert len(act.vertex_orbits()) == 1


def test_non_free_action_detected():
    # conjugation-like: the trivial action of Z2 fixing everything
    g = cyclic_group(2, "s")
    cg = build_cayley(g, ["s"])
    n = cg.n_vertices
    act = GraphAction(g, cg, [list(range(n))] * 2,
                      [list(range(cg.n_darts))] * 2)
    w = is_free(act)
    assert w is not True
    with pytest.raises(NotFreeError):
        babai_contract(act)


def test_babai_self_contraction_recovers_cayley_graph():
    g = a4_model()
    cg = build_cayley(g, ["k", "r"])
    act = left_action(g, cg)
    q, dom = babai_contract(act)
    assert dom.vertices == [0] and dom.tree_edges == []
    assert q.n_vertices == 12 and q.n_edges == 18
    assert left_multiplication_invariant(q)


def test_babai_z3_on_hexagon_gives_triangle():
    g6 = cyclic_group(6, "g")
    cg = build_cayley(g6, ["g"])
    sub, act = _cyclic_subgroup_action(g6, cg, "g^2"
                                       if "g^2" in g6.element_names else
                                       g6.element_names[g6.mul(
                                           g6.element("g"), g6.element("g"))])
    act.check_axioms()
    q, dom = babai_contract(act)
    assert q.n_vertices == 3
    assert q.n_edges == 3  # edge count conservation: 6 - |orbit of 1 tree edge|
    assert len(dom.vertices) == 2
    assert left_multiplication_invariant(q)


def test_babai_z2_antipodal_gives_double_edge():
    g6 = cyclic_group(6, "g")
    cg = build_cayley(g6, ["g"])
    x3 = g6.element_names[g6.mul(g6.mul(g6.element("g"), g6.element("g")),
                                 g6.element("g"))]
    sub, act = _cyclic_subgroup_action(g6, cg, x3)
    act.check_axioms()
    q, _ = babai_contract(act)
    assert q.n_vertices == 2
    assert q.n_edges == 2  # parallel pair kept (multigraph, not simple graph)
    assert left_multiplication_invariant(q)


def test_blow_up_counts_and_host_map():
    g = build_cayley(a4_model(), ["k", "r"])
    out, host = blow_up(g, set(range(g.n_vertices)))
    assert out.n_vertices == sum(g.degree(v) for v in range(g.n_vertices))
    assert out.n_edges == g.n_edges + out.n_vertices  # ring edge per slot
    for d in range(g.n_darts):
        assert host[d] < out.n_vertices


def test_blow_up_degree_two_avoids_parallel_pair():
    g = build_cayley(cyclic_group(3, "g"), ["g"])
    out, _ = blow_up(g, {0})
    # degree-2 vertex becomes a single edge, not a digon
    assert out.n_edges == g.n_edges + 1


def test_blow_up_isolated_vertex_rejected():
    from pcl.graph import MultiGraph
    g = MultiGraph()
    g.add_vertex()
    with pytest.raises(ValueError):
        blow_up(g, {0})
