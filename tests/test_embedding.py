import ast
import math
import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pcl.covariance
import pcl.embedding
from pcl.actions import babai_contract
from pcl.augment import vertex_connectivity
from pcl.cayley import (InfiniteFamilySpec, build_amalgam_ball, build_ball,
                        build_cayley)
from pcl.covariance import is_covariant, orientation_table, whitney_unique
from pcl.embedding import (KuratowskiWitness, RotationError, ball_embedding,
                           brute_force_consistent_embeddings, cayley_map,
                           classify_faces, local_label_items, plane_embedding,
                           planarity_test, search_consistent_embeddings,
                           simple_cayley, trace_faces, verify_witness)
from pcl.graph import MultiGraph
from pcl.groups import (EnumerationBudgetError, a4_model, coset_enumerate,
                        z4xz2_model)
from pcl.presentation import parse_presentation
from util import (build_ball_two_pass, character_by_left_multiplication,
                  check_embedding_bookkeeping, graph_from_edges, left_action,
                  random_plane_graph, shuffled_ball, trace_faces_by_lists)


def _k4():
    return graph_from_edges(4, [(i, j) for i in range(4)
                                for j in range(i + 1, 4)])


def test_trace_faces_tetrahedron():
    g = _k4()
    emb = planarity_test(g)
    assert not isinstance(emb, KuratowskiWitness)
    assert emb.genus == 0
    assert emb.face_vector() == {3: 4}
    check_embedding_bookkeeping(emb)


def test_trace_faces_torus_rotation():
    # K4 with a rotation of genus 1 (swap two darts at one vertex)
    g = _k4()
    emb = planarity_test(g)
    rot = [list(r) for r in emb.rotation]
    rot[0][0], rot[0][1] = rot[0][1], rot[0][0]
    emb2 = trace_faces(g, rot)
    assert emb2.genus == 1
    check_embedding_bookkeeping(emb2)


def test_rotation_validation():
    g = _k4()
    with pytest.raises(RotationError):
        trace_faces(g, [[0], [1], [2], [3]])


def test_loops_and_parallel_edges_embed():
    g = MultiGraph()
    v = g.add_vertex()
    w = g.add_vertex()
    g.add_edge(v, v, "l", True)
    g.add_edge(v, w, "p", False)
    g.add_edge(v, w, "p", False)
    emb = planarity_test(g)
    assert not isinstance(emb, KuratowskiWitness)
    assert emb.genus == 0
    check_embedding_bookkeeping(emb)


def test_k5_witness():
    g = graph_from_edges(5, [(i, j) for i in range(5)
                             for j in range(i + 1, 5)])
    w = planarity_test(g)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K5"
    assert verify_witness(g, w)


def test_k33_witness():
    g = graph_from_edges(6, [(i, j + 3) for i in range(3) for j in range(3)])
    w = planarity_test(g)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K3,3"
    assert verify_witness(g, w)


def test_subdivided_k5_witness():
    # subdivide every edge of K5 once: witness must be a K5 subdivision
    edges = [(i, j) for i in range(5) for j in range(i + 1, 5)]
    g = MultiGraph()
    for _ in range(5):
        g.add_vertex()
    for u, v in edges:
        m = g.add_vertex()
        g.add_edge(u, m, "s", False)
        g.add_edge(m, v, "s", False)
    w = planarity_test(g)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K5"
    assert verify_witness(g, w)


def test_k44_cayley_witness():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(1,1)"])
    w = planarity_test(cg)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K3,3"
    assert verify_witness(cg, w)


def test_search_consistent_a4():
    cg = build_cayley(a4_model(), ["k", "r"])
    results = search_consistent_embeddings(cg)
    assert results, "A4 must admit a consistent planar embedding"
    for _, spins, emb in results:
        assert emb.genus == 0
        assert emb.face_vector() == {3: 4, 6: 4}
        assert spins[0] == 1  # gauge
        check_embedding_bookkeeping(emb)


def test_search_consistent_prism():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])
    results = search_consistent_embeddings(cg)
    assert results
    for _, _, emb in results:
        assert emb.face_vector() == {4: 6}


def test_classify_faces_on_ball():
    ball = build_ball(InfiniteFamilySpec("z-cross-z"), 3)
    emb = planarity_test(ball)
    assert not isinstance(emb, KuratowskiWitness)
    rep = classify_faces(emb)
    assert rep.finite_count > 0
    assert rep.frontier_touching_count > 0
    assert rep.max_finite_face_length == 4  # grid squares


def test_amalgam_ball_planar():
    a, b = a4_model(), z4xz2_model()
    ball = build_amalgam_ball(a, "k", b, "(0,1)", ["k", "r"],
                              ["(1,0)", "(0,1)"], 3)
    emb = planarity_test(ball)
    assert not isinstance(emb, KuratowskiWitness)
    check_embedding_bookkeeping(emb)


# -- ball faces read off the group ------------------------------------------

# (family, parameters, largest R): the families whose balls the read-off
# embeds; free balls are capped near 10^3 vertices
READ_OFF_BALLS = [
    ("free", {"rank": 1}, 8), ("free", {"rank": 2}, 6),
    ("free", {"rank": 3}, 4),
    *[("z", {"steps": s}, 8) for s in ((1,), (1, 2), (2, 3), (1, 2, 3))],
    ("z-cross-z", {}, 8), ("z-cross-z3", {}, 8),
    *[("cn-cross-z", {"n": n}, 8) for n in range(2, 7)],
]


def _report(emb):
    return classify_faces(emb).to_json_dict()


@pytest.mark.parametrize("family, params, top", READ_OFF_BALLS)
@given(radius=st.integers(0, 8), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=10)
def test_ball_faces_do_not_depend_on_numbering(family, params, top, radius,
                                               seed):
    ball = build_ball(InfiniteFamilySpec(family, params), min(radius, top))
    emb = ball_embedding(ball)
    assert emb is not None and emb.genus == 0
    check_embedding_bookkeeping(emb)
    other = shuffled_ball(ball, random.Random(seed))
    assert _report(ball_embedding(other)) == _report(emb)


def test_ball_without_engine_needs_one_from_radius_3():
    """A ball assembled without ``build_ball`` records no engine: up to
    radius 2 it is its own probe, and beyond it ValueError names the
    missing engine."""
    spec = InfiniteFamilySpec("z-cross-z")
    for radius in (0, 1, 2):
        ball = build_ball_two_pass(spec, radius)
        assert ball.engine is None
        emb = ball_embedding(ball)
        assert emb is not None and emb.genus == 0
        built = build_ball(spec, radius)
        assert _report(emb) == _report(ball_embedding(built))
    with pytest.raises(ValueError, match="no family engine"):
        ball_embedding(build_ball_two_pass(spec, 3))


# the families whose planarity_test report does not depend on numbering
# (free balls capped as above); z {1,2} and C2 x Z are left out, as each
# has two covariant label orders and the read-off takes the first
@pytest.mark.parametrize("family, params, top", [
    ("free", {"rank": 1}, 11), ("free", {"rank": 2}, 6),
    ("free", {"rank": 3}, 4),
    *[("z", {"steps": s}, 11) for s in ((1,), (2, 3), (1, 2, 3))],
    ("z-cross-z", {}, 11), ("z-cross-z3", {}, 11),
    *[("cn-cross-z", {"n": n}, 11) for n in range(3, 7)],
])
def test_ball_read_off_equals_planarity_test(family, params, top):
    for radius in range(1, top + 1):
        ball = build_ball(InfiniteFamilySpec(family, params), radius)
        assert _report(ball_embedding(ball)) == \
            _report(planarity_test(ball)), radius


@pytest.mark.parametrize("radius", [3, 4, 5, 6])
def test_amalgam_ball_falls_back_to_planarity_test(radius):
    """No character and label order of the amalgam has genus 0 on its
    radius-2 part from R = 3 on: A4's generators preserve orientation,
    while the prism's (0,1), identified with k, reverses it."""
    assert ball_embedding(build_ball(InfiniteFamilySpec("amalgam"),
                                     radius)) is None


def test_ball_probe_stops_at_budget(monkeypatch):
    """Ball(2) of Z on steps 1-4 contains K5: no pair has genus 0, and the
    probe stops after _PROBE_BUDGET of its 2^4 * 7! pairs."""
    traced = []

    def counted(g, rot):
        traced.append(g.n_vertices)
        return trace_faces(g, rot)
    monkeypatch.setattr(pcl.embedding, "trace_faces", counted)
    ball = build_ball(InfiniteFamilySpec("z", {"steps": (1, 2, 3, 4)}), 5)
    assert ball_embedding(ball) is None
    assert len(traced) == pcl.embedding._PROBE_BUDGET
    assert max(traced) == 17  # Ball(2), not the ball


def _darts(g):
    return (g.dart_tail, g.edge_label, g.edge_directed, g.out_dart, g.depth,
            g.frontier, g.vertex_names)


@pytest.mark.parametrize("family, params", [
    ("z-cross-z", {}), ("free", {"rank": 2}), ("cn-cross-z", {"n": 4}),
    ("amalgam", {})])
@pytest.mark.parametrize("radius", [2, 4])
def test_ball_probe_is_the_family_ball_of_radius_2(monkeypatch, family,
                                                   params, radius):
    """ball_embedding probes build_ball(engine, 2), dart for dart, on a ball
    and on its shuffled copy, so the probe never sees the ball's
    numbering; up to radius 2 the probe is the ball itself."""
    probes = []
    pairs = pcl.embedding._probe_pairs

    def recorded(inner, slots, k):
        probes.append(inner)
        return pairs(inner, slots, k)
    monkeypatch.setattr(pcl.embedding, "_probe_pairs", recorded)
    ball = build_ball(InfiniteFamilySpec(family, params), radius)
    other = shuffled_ball(ball, random.Random(radius))
    assert other.engine is ball.engine
    ball_embedding(ball)
    ball_embedding(other)
    if radius <= 2:
        assert probes[0] is ball and probes[1] is other
    else:
        want = _darts(build_ball(ball.engine, 2))
        assert [_darts(probe) for probe in probes] == [want, want]


def test_only_balls_record_their_engine():
    model = a4_model()
    cg = build_cayley(model, ["k", "r"])
    quotient, _ = babai_contract(left_action(model, cg))
    assert cg.engine is None and quotient.engine is None
    ball = build_ball(InfiniteFamilySpec("z-cross-z"), 1)
    assert ball.engine is not None


def test_ball_embedding_refuses_complete_graph():
    assert ball_embedding(build_cayley(a4_model(), ["k", "r"])) is None


def test_embedding_json_round_trip_stability():
    cg = build_cayley(a4_model(), ["k", "r"])
    e1 = planarity_test(cg)
    e2 = planarity_test(cg)
    assert e1.to_json_dict() == e2.to_json_dict()


# -- the Whitney read-off against the brute-force oracle --------------------

def _group(gens: str, rels: list[str], involutions: str = ""):
    inv = f" involutions: {involutions};" if involutions else ""
    return coset_enumerate(parse_presentation(
        f"group G {{ gens: {gens}; rels: {', '.join(rels)};{inv} }}"), 500)


def _dihedral_rels(n):
    return [f"a^{n}", "b^2", "b*a*b*a"]


def _cyclic_product_rels(n, m):
    return [f"a^{n}", f"b^{m}", "a*b*a^-1*b^-1"]


_PRESENTATIONS = st.one_of(
    st.integers(2, 6).map(_dihedral_rels),
    st.tuples(st.integers(2, 6), st.integers(2, 4))
      .filter(lambda nm: nm[0] * nm[1] <= 12)
      .map(lambda nm: _cyclic_product_rels(*nm)),
    st.just(["a^2", "b^3", "(a*b)^3"]),
)


def _as_data(results):
    return [(order, spins, emb.rotation, [f.darts for f in emb.faces],
             emb.genus) for order, spins, emb in results]


def _count_calls(monkeypatch, name: str, module=pcl.embedding) -> list[int]:
    """Count the calls of module.<name> from here on."""
    calls = [0]
    inner = getattr(module, name)

    def counted(*args):
        calls[0] += 1
        return inner(*args)
    monkeypatch.setattr(module, name, counted)
    return calls


@settings(max_examples=20)
@given(_PRESENTATIONS.flatmap(st.permutations))
def test_read_off_equals_brute_force(rels):
    cg = build_cayley(_group("a b", rels), ["a", "b"])
    assert cg.n_vertices <= 12
    with pytest.MonkeyPatch.context() as mp:
        brute = _count_calls(mp, "brute_force_consistent_embeddings")
        traced = _count_calls(mp, "trace_faces")
        whitney = _count_calls(mp, "whitney_unique", pcl.covariance)
        fast = search_consistent_embeddings(cg)
    assert _as_data(fast) == _as_data(brute_force_consistent_embeddings(cg))
    assert whitney == [0]
    if brute == [0]:
        # the read-off: the two results traced off the generator slots,
        # on a graph that the degree gate promises is 3-connected
        assert vertex_connectivity(cg) >= 3
        assert traced[0] <= 3 and len(fast) in (0, 2)
    elif cg.n_vertices >= 4:
        assert vertex_connectivity(cg) < 3


@pytest.mark.parametrize("rels,involutions", [
    (_dihedral_rels(5), "b"),
    (_dihedral_rels(7), ""),
    (_cyclic_product_rels(6, 2), ""),
    (["a^2", "b^3", "(a*b)^3"], ""),
    (["a^2", "b^3", "(a*b)^4"], ""),
])
def test_read_off_spins_are_the_orientation_classes(rels, involutions):
    cg = build_cayley(_group("a b", rels, involutions), ["a", "b"])
    table = orientation_table(cg)
    reversing = {name for name, c in table.items() if c == "reversing"}
    results = search_consistent_embeddings(cg)
    assert len(results) == 2
    for _, spins, _ in results:
        assert {cg.vertex_names[v] for v, s in enumerate(spins)
                if s < 0} == reversing


@pytest.mark.parametrize("model,gens", [
    (lambda: _group("a", ["a^6"]), ["a"]),  # a 6-cycle: not 3-connected
    (lambda: _group("a b", _dihedral_rels(3), "b"), ["a", "a^-1", "b"]),
    (lambda: _group("a", ["a"]), ["a"]),  # the trivial group: one loop
])
def test_brute_force_stays_on_multigraphs_and_low_connectivity(
        monkeypatch, model, gens):
    cg = build_cayley(model(), gens)
    brute = _count_calls(monkeypatch, "brute_force_consistent_embeddings")
    traced = _count_calls(monkeypatch, "trace_faces")
    results = search_consistent_embeddings(cg)
    m, n = len(local_label_items(cg)), cg.n_vertices
    assert brute == [1] and traced[0] >= math.factorial(m - 1) << (n - 1)
    assert results and all(emb.genus == 0 for _, _, emb in results)


def test_nonplanar_read_off_is_empty_without_tracing(monkeypatch):
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(1,1)"])
    brute = _count_calls(monkeypatch, "brute_force_consistent_embeddings")
    traced = _count_calls(monkeypatch, "trace_faces")
    assert search_consistent_embeddings(cg) == []
    assert brute == traced == [0]


# -- the slot read-off against the kernel and the Whitney oracles -----------

@st.composite
def _generated_cayley_graphs(draw):
    """A Cayley graph of D_n, C_n x C_m, a (2,3,m) group, or a finite
    group of random words on two or three generators with a power of
    each (a dihedral group where that has fewer than four elements or
    passes the coset budget), on 2-4 random elements that generate it:
    the drawn elements, or, if they do not generate, the presentation's
    generators followed by the first drawn ones."""
    kind = draw(st.sampled_from(["dihedral", "product", "triangle",
                                 "random"]))
    if kind == "dihedral":
        gens, rels = ["a", "b"], _dihedral_rels(draw(st.integers(2, 12)))
    elif kind == "product":
        n, m = draw(st.integers(2, 8)), draw(st.integers(2, 6))
        gens, rels = ["a", "b"], _cyclic_product_rels(n, m)
    elif kind == "triangle":
        gens = ["a", "b"]
        rels = ["a^2", "b^3", f"(a*b)^{draw(st.integers(2, 5))}"]
    else:
        gens = ["a", "b", "c"][:draw(st.integers(2, 3))]
        letters = [s for g in gens for s in (g, f"{g}^-1")]
        words = st.lists(st.sampled_from(letters), min_size=1,
                         max_size=6).map("*".join)
        rels = [f"{g}^{draw(st.integers(2, 6))}" for g in gens]
        rels += draw(st.lists(words, min_size=1, max_size=3))
    try:
        model = _group(" ".join(gens), rels)
    except EnumerationBudgetError:
        model = None
    if model is None or model.order < 4:  # no simple graph of degree >= 3
        gens, model = ["a", "b"], _group("a b", _dihedral_rels(len(rels) + 2))
    drawn = draw(st.lists(st.integers(1, max(model.order - 1, 1)),
                          min_size=2, max_size=4, unique=True))
    picked = [model.element_names[x % model.order] for x in drawn]
    if len(model.closure([model.element(s) for s in picked])) < model.order:
        picked = list(model.gens) + picked[:max(0, len(drawn) - len(gens))]
    return build_cayley(model, picked)


@settings(max_examples=100)
@given(_generated_cayley_graphs())
def test_cayley_map_equals_kernel_and_whitney(cg):
    cmap = cayley_map(cg)
    if not simple_cayley(cg):
        assert cmap is None
        return
    emb = plane_embedding(cg)
    assert (cmap is None) == (emb is None)
    if cmap is not None:
        assert cmap.face_vector() == emb.face_vector()
        whitney = whitney_unique(cg)
        assert cmap.spins == character_by_left_multiplication(cg, whitney)
        assert is_covariant(cg, whitney) is True
    m, n = len(local_label_items(cg)), cg.n_vertices
    if n <= 12 and math.factorial(m - 1) << (n - 1) <= 1 << 13:
        assert _as_data(search_consistent_embeddings(cg)) == \
            _as_data(brute_force_consistent_embeddings(cg))


@pytest.mark.parametrize("n", [3, 4, 7, 12])
def test_cayley_map_of_prism_flips_at_b(n):
    """On C_n x C_2, b reverses orientation: the face walk that crosses a
    b-edge turns the other way round the next vertex.  A successor rule
    that ignored chi(b) would find no genus-0 pair."""
    cg = build_cayley(_group("a b", _cyclic_product_rels(n, 2)), ["a", "b"])
    cmap = cayley_map(cg)
    assert cmap is not None
    faces = {4: n, n: 2} if n != 4 else {4: 6}
    assert cmap.face_vector() == faces
    b = cg.head(cg.out_dart[1])
    assert cmap.spins[b] == -1 and cmap.spins[cg.head(cg.out_dart[0])] == 1


def test_embedding_does_not_import_covariance():
    """The read-off needs no Whitney canonical form, so the embedding
    layer stays below covariance."""
    tree = ast.parse(Path(pcl.embedding.__file__).read_text())
    imported = {node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)}
    imported |= {alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.Import) for alias in node.names}
    assert not any("covariance" in (name or "") for name in imported)


def _label_items_by_generator_loop(cg):
    """The slot list as the per-generator loop built it, read off the
    identity's out-darts."""
    items = []
    for i in range(len(cg.generators)):
        if cg.edge_directed[cg.out_dart[i] >> 1]:
            items += [(i, 1), (i, -1)]
        else:
            items.append((i, 0))
    return items


@pytest.mark.parametrize("model,gens", [
    (a4_model, ["k", "r"]), (a4_model, ["k", "r", "r"]),
    (a4_model, ["k", "r", "e"]),
    (z4xz2_model, ["(1,0)", "(0,1)", "(0,1)"])])
def test_label_items_are_the_slot_table_order(model, gens):
    cg = build_cayley(model(), gens)
    assert local_label_items(cg) == _label_items_by_generator_loop(cg)


def test_label_items_of_a_dartless_ball_are_empty():
    assert local_label_items(build_ball(InfiniteFamilySpec("z-cross-z"),
                                        0)) == []


@pytest.mark.parametrize("model, gens, builds", [
    (z4xz2_model, ["(1,0)", "(0,1)", "(0,1)"], 1),  # brute force
    (a4_model, ["k", "r"], 1)])  # read-off, whose table both results use
def test_search_builds_the_slot_table_once_per_pass(monkeypatch, model, gens,
                                                     builds):
    cg = build_cayley(model(), gens)
    calls = _count_calls(monkeypatch, "_label_slots")
    search_consistent_embeddings(cg)
    assert calls == [builds]


# -- the successor array against the list-and-tuple oracle ------------------

def _check_traces(run) -> None:
    """run(), with each embedding that ``trace_faces`` returns, and its
    mirror image's mirror image, checked at once against the oracle's
    tracing of the same rotation (a caller may go on to change the
    graph)."""
    trace = pcl.embedding.trace_faces
    checked, inside = [], []

    def checked_trace(g, rot):
        rot = list(rot)  # ``_rotation`` yields once; both tracers read it
        emb = trace(g, rot)
        if inside:  # the mirror images' own tracings
            return emb
        inside.append(True)
        want = trace_faces_by_lists(g, rot)
        for got in (emb, emb.mirror().mirror()):
            assert got.rotation == want.rotation
            assert got.faces == want.faces
            assert got.face_vector() == want.face_vector()
            assert classify_faces(got) == want.classify()
            assert got.genus == want.genus
        inside.pop()
        checked.append(emb)
        return emb
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pcl.embedding, "trace_faces", checked_trace)
        run()
    assert checked


@given(seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_plane_graph_faces_equal_the_oracle(seed):
    _check_traces(lambda: random_plane_graph(random.Random(seed),
                                             max_vertices=15, steps=6))


@given(rels=_PRESENTATIONS.filter(lambda rels: rels[0] != "a^6"),
       involution=st.booleans())
@settings(max_examples=10, deadline=None)
def test_brute_force_faces_equal_the_oracle(rels, involution):
    group = _group("a b", rels, "b" if involution else "")
    cg = build_cayley(group, ["a", "b"])
    if cg.n_vertices > 8:
        return
    _check_traces(lambda: brute_force_consistent_embeddings(cg))


@given(seed=st.integers(0, 2**32 - 1),
       fault=st.sampled_from(["drop", "repeat", "move", "unknown",
                              "negative"]))
@settings(max_examples=30, deadline=None)
def test_rotation_errors_equal_the_oracle(seed, fault):
    """A rotation that misses, repeats, misplaces or invents a dart is
    refused by ``trace_faces`` as by the oracle."""
    rng = random.Random(seed)
    g, emb = random_plane_graph(rng, max_vertices=10, steps=3)
    rot = emb.rotation
    v = rng.randrange(len(rot))
    d = rng.choice(rot[v])
    if fault == "drop":
        rot[v].remove(d)
    elif fault == "repeat":
        rot[v].insert(rng.randrange(len(rot[v]) + 1), d)
    elif fault == "move":
        rot[v].remove(d)
        rot[(v + 1) % len(rot)].append(d)
    else:
        rot[v].insert(rng.randrange(len(rot[v]) + 1), g.n_darts
                      if fault == "unknown" else -rng.randint(1, g.n_darts))
    for trace in (trace_faces, trace_faces_by_lists):
        with pytest.raises(RotationError):
            trace(g, rot)


# (family, parameters, largest R) with at most about 1,500 vertices
ORACLE_BALLS = [
    ("free", {"rank": 1}, 13), ("free", {"rank": 2}, 5),
    ("free", {"rank": 3}, 3),
    *[("z", {"steps": s}, 13) for s in ((1,), (1, 2), (2, 3), (1, 2, 3))],
    ("z-cross-z", {}, 13), ("z-cross-z3", {}, 13),
    *[("cn-cross-z", {"n": n}, 13) for n in range(2, 7)],
    ("amalgam", {}, 3),
]


@given(ball=st.sampled_from(ORACLE_BALLS), radius=st.integers(0, 13))
@example(ball=("z-cross-z", {}, 13), radius=0)
@settings(max_examples=30, deadline=None)
def test_ball_faces_equal_the_oracle(ball, radius):
    family, params, top = ball
    g = build_ball(InfiniteFamilySpec(family, params), min(radius, top))
    _check_traces(lambda: ball_embedding(g) or plane_embedding(g))


def test_ball_faces_peak_at_most_60_bytes_per_dart(monkeypatch):
    """The face report of a ball walks its faces once, without listing
    them, and folds each vertex's rotation into the successor array as it
    is made: no ``FacialWalk`` is built, and the traced peak stays within
    60 bytes per dart of Z^2's R = 60 ball (116 when every face was kept as
    a dart tuple, 74 when the whole ball's rotation lists were built
    first)."""
    ball = build_ball(InfiniteFamilySpec("z-cross-z"), 60)

    def no_walk(darts, finite):
        raise AssertionError(f"the ball path built FacialWalk({darts}, "
                             f"{finite})")
    monkeypatch.setattr(pcl.embedding, "FacialWalk", no_walk)
    tracemalloc.start()
    try:
        report = classify_faces(ball_embedding(ball))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the unit squares whose corners all lie within distance R - 1
    assert report.finite_count == 2 * 59 * 58
    assert peak <= 60 * ball.n_darts
