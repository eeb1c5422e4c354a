import pytest
from hypothesis import given, strategies as st

from pcl.actions import GraphAction, NotFreeError, babai_contract, is_free
from pcl.cayley import build_cayley, dart_permutation
from pcl.groups import a4_model, coset_enumerate, cyclic_group, z4xz2_model
from pcl.presentation import parse_presentation
from util import (action_from_vertex_permutations, blow_up, check_axioms,
                  graph_from_edges, left_action, left_multiplication_invariant)


def _cyclic_subgroup_action(model, cg, sym):
    x = model.element(sym)
    sub = cyclic_group(model.element_order(x), sym)
    vp, dp = dart_permutation(cg, x)
    return sub, GraphAction(sub, cg, {sym: vp}, {sym: dp})


def test_left_action_axioms_and_freeness():
    g = a4_model()
    cg = build_cayley(g, ["k", "r"])
    act = left_action(g, cg)
    check_axioms(act)
    assert is_free(act) is True
    assert sorted(act.orbit_map(act.vertex_image, 0)) == list(range(12))


def test_non_free_action_detected():
    # conjugation-like: the trivial action of Z2 fixing everything
    g = cyclic_group(2, "s")
    cg = build_cayley(g, ["s"])
    act = GraphAction(g, cg, {"s": list(range(cg.n_vertices))},
                      {"s": list(range(cg.n_darts))})
    w = is_free(act)
    assert w is not True
    with pytest.raises(NotFreeError):
        babai_contract(act)


def _hexagon_rotation(group):
    """group's one generator acting on Cay(Z6, g) as left multiplication
    by g, a rotation by one step."""
    g6 = cyclic_group(6, "g")
    cg = build_cayley(g6, ["g"])
    vp, dp = dart_permutation(cg, g6.element("g"))
    (sym,) = group.gens
    return GraphAction(group, cg, {sym: vp}, {sym: dp})


def test_check_axioms_accepts_the_rotation_action():
    check_axioms(_hexagon_rotation(cyclic_group(6, "s")))


def test_check_axioms_rejects_non_permutation():
    act = _hexagon_rotation(cyclic_group(6, "s"))
    act.vertex_image["s"][0] = act.vertex_image["s"][1]
    with pytest.raises(AssertionError, match="s is not a permutation"):
        check_axioms(act)


def test_check_axioms_rejects_broken_twins():
    act = _hexagon_rotation(cyclic_group(6, "s"))
    dp = act.dart_image["s"]
    dp[0], dp[2] = dp[2], dp[0]  # still a permutation of the darts
    with pytest.raises(AssertionError, match="s breaks twin pairing"):
        check_axioms(act)


def test_check_axioms_rejects_broken_incidence():
    act = _hexagon_rotation(cyclic_group(6, "s"))
    act.vertex_image["s"] = list(range(6))  # darts rotate, vertices stay
    with pytest.raises(AssertionError, match="s breaks incidence"):
        check_axioms(act)


def test_check_axioms_rejects_images_that_are_no_group_action():
    # each image is a graph automorphism, but s^4 = 1 in Z4 while the
    # rotation has order 6
    act = _hexagon_rotation(cyclic_group(4, "s"))
    with pytest.raises(AssertionError, match="does not act as a group element"):
        check_axioms(act)


def test_is_free_witness_fixes_its_vertex():
    # D6 acts on the hexagon with b the reflection v -> 2 - v.  The first
    # repeat in vertex 0's orbit map is b.0 = a^2.0 = 2, so the witness is
    # b^-1 a^2: v -> -v, and neither a^2 b nor the vertex 2 would do.
    g = coset_enumerate(parse_presentation(
        "group D6 { gens: a b; rels: a^6, b^2, (a*b)^2; involutions: b; }"),
        64)
    hexagon = graph_from_edges(6, [(v, (v + 1) % 6) for v in range(6)])
    act = action_from_vertex_permutations(g, hexagon, {
        "a": [(v + 1) % 6 for v in range(6)],
        "b": [(2 - v) % 6 for v in range(6)]})
    check_axioms(act)
    w = is_free(act)
    assert w is not True and w.element != g.identity
    assert act.orbit_map(act.vertex_image, w.vertex)[w.element] == w.vertex


@pytest.mark.parametrize("edges", [[(0, 0), (0, 1)], [(0, 1), (1, 0)],
                                   [(0, 1), (0, 1)]])
def test_vertex_images_refused_on_loops_and_parallel_edges(edges):
    with pytest.raises(ValueError, match="multigraphs"):
        action_from_vertex_permutations(cyclic_group(1, "s"),
                                        graph_from_edges(2, edges),
                                        {"s": [0, 1]})


def test_babai_contract_with_repeated_generator():
    model = z4xz2_model()
    cg = build_cayley(model, ["(1,0)", "(0,1)", "(0,1)"])
    _, act = _cyclic_subgroup_action(model, cg, "(0,1)")
    check_axioms(act)
    q, _ = babai_contract(act)
    assert q.n_vertices == 2 and left_multiplication_invariant(q)


def test_dart_permutation_is_a_permutation_with_repeated_generator():
    g = a4_model()
    cg = build_cayley(g, ["k", "r", "r"])
    for x in range(g.order):
        vp, dp = dart_permutation(cg, x)
        assert sorted(vp) == list(range(cg.n_vertices))
        assert sorted(dp) == list(range(cg.n_darts))


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
    check_axioms(act)
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
    check_axioms(act)
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


# -- extend against word replay --------------------------------------------

@st.composite
def _small_presentations(draw) -> str:
    """A D_n, C_n x C_m or (2,3,m) triangle group presentation."""
    kind = draw(st.sampled_from(["dihedral", "product", "triangle"]))
    if kind == "dihedral":
        n = draw(st.integers(1, 9))
        gens, rels, invol = "r s", [f"r^{n}", "s^2", "(r*s)^2"], "s"
    elif kind == "product":
        n, m = draw(st.integers(1, 6)), draw(st.integers(1, 6))
        gens, rels, invol = "a b", [f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1"], ""
    else:
        m = draw(st.integers(3, 5))
        gens, rels, invol = "a b", ["a^2", "b^3", f"(a*b)^{m}"], "a"
    rels = draw(st.permutations(rels))
    text = f"group G {{ gens: {gens}; rels: {', '.join(rels)};"
    if invol and draw(st.booleans()):
        text += f" involutions: {invol};"
    return text + " }"


def _element_words(g):
    """Each element's name read as a word in the generators."""
    gens = " ".join(g.gens)
    return [[]] + [
        list(parse_presentation(
            f"group W {{ gens: {gens}; rels: {name}; }}").relators[0])
        for name in g.element_names[1:]]


@given(_small_presentations())
def test_left_and_orbit_map_match_word_replay(text):
    g = coset_enumerate(parse_presentation(text), 200)
    elements = range(g.order)
    for x in elements:
        assert g.left(x) == [g.mul(x, y) for y in elements]
    cg = build_cayley(g, list(g.gens))
    act = left_action(g, cg)
    words = _element_words(g)
    for images in (act.vertex_image, act.dart_image):
        inverse = {sym: {q: p for p, q in enumerate(perm)}
                   for sym, perm in images.items()}

        def replay(word, p):
            # (s1 ... sk).p = s1.(... (sk.p))
            for sym, sign in reversed(word):
                p = images[sym][p] if sign > 0 else inverse[sym][p]
            return p

        for p in range(len(images[next(iter(g.gens))])):
            assert act.orbit_map(images, p) == [replay(w, p) for w in words]
