"""Acceptance criteria 1-11.  Each test maps to one numbered criterion."""

import itertools
import json

import pytest
from click.testing import CliRunner

from pcl.actions import babai_contract, is_free
from pcl.augment import ladder_augment, vertex_connectivity
from pcl.cayley import (InfiniteFamilySpec, build_amalgam_ball, build_cayley,
                        interior_degrees)
from pcl.cli import main as cli_main
from pcl.covariance import orientation_table, whitney_unique
from pcl.cyclecut import (crossing_parity, crossing_parity_floodfill,
                          edge_vector, is_single_cycle,
                          separating_cycle_between_faces,
                          star_generation_check)
from pcl.embedding import KuratowskiWitness, planarity_test, verify_witness
from pcl.ends import classify_ends
from pcl.graph import MultiGraph
from pcl.groups import (a4_model, coset_enumerate, cyclic_group,
                        direct_product, z4xz2_model)
from pcl.presentation import parse_presentation
from util import (action_from_vertex_permutations, blow_up,
                  check_embedding_bookkeeping, left_action,
                  left_multiplication_invariant, make_rng, random_plane_graph,
                  sep_sum_check)


# -- criterion 1: A4 / truncated tetrahedron --------------------------------

def test_criterion_1_a4():
    p = parse_presentation(
        "group A4 { gens: k r; rels: k^2, r^3, (k*r)^3; involutions: k; }")
    g = coset_enumerate(p, 200)
    assert g.order == 12
    cg = build_cayley(g, ["k", "r"])
    assert cg.n_vertices == 12
    assert cg.n_edges == 18
    emb = whitney_unique(cg)  # raises if non-planar or not 3-connected
    assert vertex_connectivity(cg) == 3
    assert emb.face_vector() == {3: 4, 6: 4}
    check_embedding_bookkeeping(emb)
    table = orientation_table(cg)
    assert all(c == "preserving" for c in table.values())


# -- criterion 2: prism -----------------------------------------------------

def test_criterion_2_prism():
    g = z4xz2_model()
    cg = build_cayley(g, ["(1,0)", "(0,1)"])
    assert cg.n_vertices == 8
    assert cg.n_edges == 12
    emb = whitney_unique(cg)
    assert len(emb.faces) == 6
    assert vertex_connectivity(cg) == 3
    table = orientation_table(cg)
    assert table["(0,1)"] == "reversing"
    assert table["(2,0)"] == "preserving"
    sign = {n: 1 if c == "preserving" else -1 for n, c in table.items()}
    names = g.element_names
    for x in range(8):
        for y in range(8):
            assert sign[names[g.mul(x, y)]] == sign[names[x]] * sign[names[y]]


# -- criterion 3: K4,4 ------------------------------------------------------

def test_criterion_3_k44():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(1,1)"])
    w = planarity_test(cg)
    assert isinstance(w, KuratowskiWitness)
    assert w.kind == "K3,3"
    assert verify_witness(cg, w)


# -- criterion 4: amalgam ball ----------------------------------------------

def test_criterion_4_amalgam_ball():
    a, b = a4_model(), z4xz2_model()
    ball = build_amalgam_ball(a, "k", b, "(0,1)", ["k", "r"],
                              ["(1,0)", "(0,1)"], 3)
    result = planarity_test(ball)
    assert not isinstance(result, KuratowskiWitness)
    check_embedding_bookkeeping(result)
    assert interior_degrees(ball) == {5}
    # the obstruction conjunction
    assert all(c == "preserving"
               for c in orientation_table(build_cayley(a, ["k", "r"])).values())
    assert orientation_table(
        build_cayley(b, ["(1,0)", "(0,1)"]))["(0,1)"] == "reversing"


# -- criterion 5: ends ------------------------------------------------------

def test_criterion_5_ends():
    a, b = a4_model(), z4xz2_model()
    amalgam = InfiniteFamilySpec("amalgam", {
        "a": a, "b": b, "gens_a": ["k", "r"], "gens_b": ["(1,0)", "(0,1)"],
        "b_a": a.element("k"), "b_b": b.element("(0,1)")})
    cases = [
        (a4_model(), 2, 5, "0"),
        (InfiniteFamilySpec("z-cross-z"), 2, 6, "1"),
        (InfiniteFamilySpec("z"), 2, 5, "2"),
        (InfiniteFamilySpec("z-cross-z3"), 2, 6, "2"),
        (InfiniteFamilySpec("free"), 1, 4, "cantor"),
        (amalgam, 1, 3, "cantor"),
    ]
    for spec, r, R, expected in cases:
        rep = classify_ends(spec, r, R)
        assert rep.ends_class == expected, (spec, rep)
        assert rep.stabilized


# -- criterion 6: Babai suite -----------------------------------------------

def _group_pool():
    pool = [cyclic_group(n, "g") for n in range(2, 13)]
    pool.append(direct_product(cyclic_group(2, "a"), cyclic_group(2, "b")))
    pool.append(z4xz2_model())
    pool.append(direct_product(cyclic_group(2, "a"), cyclic_group(6, "b")))
    pool.append(a4_model())
    return [g for g in pool if g.order <= 12]


def _random_generating_set(rng, g, max_size=3):
    names = g.element_names
    for _ in range(50):
        size = rng.randrange(1, max_size + 1)
        elts = rng.sample(range(1, g.order), min(size, g.order - 1))
        if len(g.closure(elts)) == g.order and len(set(elts)) == len(elts):
            return [names[x] for x in elts]
    return None


def _subdivide_twice_action(g, cg):
    """Equivariant double subdivision of every edge of Cay(g, S)."""
    base = left_action(g, cg)
    n, m = cg.n_vertices, cg.n_edges
    out = MultiGraph()
    for name in cg.vertex_names:
        out.add_vertex(name)
    for e in range(m):
        u, v = cg.edge_ends(e)
        a_ = out.add_vertex(f"e{e}a")
        b_ = out.add_vertex(f"e{e}b")
        out.add_edge(u, a_, "s", False)
        out.add_edge(a_, b_, "s", False)
        out.add_edge(b_, v, "s", False)
    vimages = {}
    for sym in g.gens:
        vp_base, dp_base = base.vertex_image[sym], base.dart_image[sym]
        vp = list(range(out.n_vertices))
        for v in range(n):
            vp[v] = vp_base[v]
        for e in range(m):
            d_img = dp_base[2 * e]
            e2, flipped = d_img // 2, d_img % 2 == 1
            if flipped:
                vp[n + 2 * e] = n + 2 * e2 + 1
                vp[n + 2 * e + 1] = n + 2 * e2
            else:
                vp[n + 2 * e] = n + 2 * e2
                vp[n + 2 * e + 1] = n + 2 * e2 + 1
        vimages[sym] = vp
    return action_from_vertex_permutations(g, out, vimages)


def _blowup_action(g, cg):
    """Equivariant blow-up of all vertices using the label rotation."""
    from pcl.embedding import _label_slots, _rotation
    base = left_action(g, cg)
    slots = _label_slots(cg)
    rot = list(_rotation(slots, tuple(slots), [1] * cg.n_vertices))
    out, dart_host = blow_up(cg, set(range(cg.n_vertices)), rotation=rot)
    vimages = {}
    for sym, dp_base in base.dart_image.items():
        vp = [0] * out.n_vertices
        for d in range(cg.n_darts):
            vp[dart_host[d]] = dart_host[dp_base[d]]
        vimages[sym] = vp
    return action_from_vertex_permutations(g, out, vimages)


def test_criterion_6_babai_suite():
    rng = make_rng(6)
    instances = 0
    pool = _group_pool()
    while instances < 100:
        g = rng.choice(pool)
        gens = _random_generating_set(rng, g)
        if gens is None:
            continue
        cg = build_cayley(g, gens)
        kind = rng.choice(["none", "subdivide", "blowup"])
        if kind == "none":
            act = left_action(g, cg)
        elif kind == "subdivide":
            if g.order + 2 * cg.n_edges > 60:
                continue
            act = _subdivide_twice_action(g, cg)
        else:
            if 2 * cg.n_darts > 60 or any(
                    len(set(cg.edge_ends(e))) == 1 for e in range(cg.n_edges)):
                continue
            act = _blowup_action(g, cg)
        if act.graph.n_vertices > 60 or not act.graph.is_connected():
            continue
        if is_free(act) is not True:
            continue
        q, _ = babai_contract(act)
        assert q.n_vertices == g.order
        assert left_multiplication_invariant(q)  # regular, label-preserving
        degs = {q.degree(v) for v in range(q.n_vertices)}
        assert len(degs) == 1  # vertex-transitive in particular regular
        if not isinstance(planarity_test(act.graph), KuratowskiWitness):
            assert not isinstance(planarity_test(q), KuratowskiWitness)
        instances += 1
    assert instances >= 100


# -- criterion 7: ladder suite ----------------------------------------------

def test_criterion_7_ladder_suite():
    rng = make_rng(7)
    for _ in range(20):
        g, emb = random_plane_graph(rng, max_vertices=30, steps=10)
        aug, aemb = ladder_augment(g, emb)
        ks = [len(f.darts) for f in emb.faces if len(f.darts) > 2 and f.finite]
        assert aug.n_vertices == g.n_vertices + sum(ks)
        assert aug.n_edges == g.n_edges + 2 * sum(ks)
        assert aemb.genus == 0
        assert vertex_connectivity(aug) >= 3
        check_embedding_bookkeeping(aemb)


# -- criterion 8: separation suite ------------------------------------------

def test_criterion_8_separation_suite():
    rng = make_rng(8)
    trials = 0
    violations = 0
    while trials < 500:
        g, emb = random_plane_graph(rng, max_vertices=18, steps=8)
        nf = len(emb.faces)
        faces = [edge_vector(d // 2 for d in f.darts) for f in emb.faces]
        for _ in range(10):
            if trials >= 500:
                break
            f1, f2 = rng.sample(range(nf), 2)
            # separating_cycle always has parity 1, on both implementations
            cyc = separating_cycle_between_faces(emb, f1, f2)
            assert crossing_parity(emb, cyc, f1, f2) == 1
            assert crossing_parity_floodfill(emb, cyc, f1, f2) == 1
            # sep-sum: random subset of non-separating facial cycles
            cand = [c for c in faces
                    if crossing_parity(emb, c, f1, f2) == 0
                    and crossing_parity_floodfill(emb, c, f1, f2) == 0]
            if not cand:
                continue
            chosen = rng.sample(cand, min(len(cand), rng.randrange(1, 4)))
            total = 0
            for c in chosen:
                total ^= c
            if not is_single_cycle(g, total):
                continue
            ledger = sep_sum_check(emb, f1, f2, chosen)
            if ledger.verdict == "violation":
                violations += 1
            assert crossing_parity_floodfill(emb, total, f1, f2) == \
                ledger.sum_parity
            trials += 1
    assert violations == 0


# -- criterion 9: cut-space suite -------------------------------------------

def test_criterion_9_cutspace_suite():
    bundles = [
        build_cayley(a4_model(), ["k", "r"]),
        build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"]),
        build_cayley(z4xz2_model(), ["(1,0)", "(1,1)"]),
        build_cayley(cyclic_group(4, "g"), ["g"]),
        build_cayley(cyclic_group(2, "b"), ["b"]),
    ]
    for cg in bundles:
        rep = star_generation_check(cg)
        assert rep.rank == cg.n_vertices - 1


# -- criterion 10: embedding bookkeeping ------------------------------------

def test_criterion_10_bookkeeping():
    embs = []
    embs.append(whitney_unique(build_cayley(a4_model(), ["k", "r"])))
    embs.append(whitney_unique(
        build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])))
    a, b = a4_model(), z4xz2_model()
    ball = build_amalgam_ball(a, "k", b, "(0,1)", ["k", "r"],
                              ["(1,0)", "(0,1)"], 3)
    embs.append(planarity_test(ball))
    rng = make_rng(10)
    for _ in range(5):
        _, emb = random_plane_graph(rng, max_vertices=20, steps=8)
        embs.append(emb)
    for emb in embs:
        check_embedding_bookkeeping(emb)


# -- criterion 11: determinism ----------------------------------------------

def test_criterion_11_corpus_determinism():
    runner = CliRunner()
    a = runner.invoke(cli_main, ["corpus", "verify", "--json"])
    b = runner.invoke(cli_main, ["corpus", "verify", "--json"])
    assert a.exit_code == 0 and b.exit_code == 0
    assert a.output.encode() == b.output.encode()
    assert json.loads(a.output)["pass"] is True
