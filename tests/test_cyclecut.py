import itertools
import random

import pytest
from hypothesis import given, strategies as st

from pcl.cayley import build_cayley
from pcl.covariance import whitney_unique
from pcl.cyclecut import (NotACycleError, crossing_parity,
                          crossing_parity_floodfill, edge_vector,
                          is_single_cycle, separating_cycle_between_faces,
                          star_generation_check, support)
from pcl.embedding import planarity_test
from pcl.graph import MultiGraph
from pcl.groups import a4_model, cyclic_group, z4xz2_model

from util import (gf2_rank, is_single_cycle_by_search, make_rng,
                  random_plane_multigraph, sep_sum_check, star_cut)


def _cube():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])
    return cg, whitney_unique(cg)


def test_edge_vector_xor_and_support():
    v = edge_vector([0, 2, 5])
    assert support(v) == [0, 2, 5]
    assert support(v ^ edge_vector([2, 3])) == [0, 3, 5]


def test_gf2_rank():
    assert gf2_rank([0b011, 0b110, 0b101]) == 2
    assert gf2_rank([0b001, 0b010, 0b100]) == 3
    assert gf2_rank([0]) == 0


def test_is_single_cycle():
    g, _ = _cube()
    face_cycle = edge_vector(d // 2 for d in whitney_unique(g).faces[0].darts)
    assert is_single_cycle(g, face_cycle)
    assert not is_single_cycle(g, edge_vector([0]))
    assert not is_single_cycle(g, 0)


@given(st.integers(0, 2**32 - 1), st.integers(1, 12))
def test_is_single_cycle_equals_search(seed, steps):
    """Random edge vectors, every face boundary and the sum of any two, on
    plane multigraphs with loops, parallel and pendant edges."""
    rng = random.Random(seed)
    g, emb = random_plane_multigraph(rng, steps)
    faces = [edge_vector(d // 2 for d in f.darts) for f in emb.faces]
    vectors = [rng.getrandbits(g.n_edges) for _ in range(20)]
    vectors += faces + [a ^ b for a, b in itertools.combinations(faces, 2)]
    for vec in vectors:
        assert is_single_cycle(g, vec) == is_single_cycle_by_search(g, vec)


def test_triangle_jordan():
    tri = build_cayley(cyclic_group(3, "g"), ["g"])
    emb = planarity_test(tri)
    cyc = edge_vector(range(tri.n_edges))
    assert crossing_parity(emb, cyc, 0, 1) == 1
    assert crossing_parity_floodfill(emb, cyc, 0, 1) == 1


def test_non_cycle_rejected():
    g, emb = _cube()
    with pytest.raises(NotACycleError):
        crossing_parity(emb, edge_vector([0]), 0, 1)


def test_cube_equatorial_cycle_separates_label_faces():
    g, emb = _cube()
    quads = [fi for fi, f in enumerate(emb.faces)
             if {g.edge_label[d // 2] for d in f.darts} == {"(1,0)"}]
    assert len(quads) == 2
    cyc = separating_cycle_between_faces(emb, *quads)
    assert crossing_parity(emb, cyc, *quads) == 1
    assert crossing_parity_floodfill(emb, cyc, *quads) == 1
    assert len(support(cyc)) in (4, 6)


def test_facial_cycle_does_not_separate_same_side_faces():
    g, emb = _cube()
    cyc = edge_vector(d // 2 for d in emb.faces[0].darts)
    others = [fi for fi in range(len(emb.faces)) if fi != 0]
    parities = [crossing_parity(emb, cyc, a, b)
                for a, b in itertools.combinations(others, 2)]
    assert all(p == 0 for p in parities)


def test_parity_oracle_agreement_exhaustive_on_cube():
    g, emb = _cube()
    cycles = [edge_vector(d // 2 for d in f.darts) for f in emb.faces]
    for a, b in itertools.combinations(range(len(cycles)), 2):
        s = cycles[a] ^ cycles[b]
        if is_single_cycle(g, s):
            cycles.append(s)
    for cyc in cycles:
        for f1, f2 in itertools.combinations(range(len(emb.faces)), 2):
            assert crossing_parity(emb, cyc, f1, f2) == \
                crossing_parity_floodfill(emb, cyc, f1, f2)


def test_sep_sum_adjacent_quads():
    g, emb = _cube()
    for a, b in itertools.combinations(range(len(emb.faces)), 2):
        va = edge_vector(d // 2 for d in emb.faces[a].darts)
        vb = edge_vector(d // 2 for d in emb.faces[b].darts)
        if not is_single_cycle(g, va ^ vb):
            continue
        for f1, f2 in itertools.combinations(range(len(emb.faces)), 2):
            try:
                led = sep_sum_check(emb, f1, f2, [va, vb])
            except ValueError:
                continue  # a summand already separates
            assert led.verdict == "ok"
            assert led.sum_parity == 0


def test_sep_sum_trivial_single_cycle():
    g, emb = _cube()
    va = edge_vector(d // 2 for d in emb.faces[0].darts)
    for f1, f2 in itertools.combinations(range(len(emb.faces)), 2):
        try:
            led = sep_sum_check(emb, f1, f2, [va])
        except ValueError:
            continue
        assert led.verdict == "ok" and led.sum_parity == 0


def test_separating_cycle_triangle():
    tri = build_cayley(cyclic_group(3, "g"), ["g"])
    emb = planarity_test(tri)
    cyc = separating_cycle_between_faces(emb, 0, 1)
    assert support(cyc) == [0, 1, 2]


def test_separating_cycle_all_face_pairs_on_cube():
    g, emb = _cube()
    for f1, f2 in itertools.combinations(range(len(emb.faces)), 2):
        cyc = separating_cycle_between_faces(emb, f1, f2)
        assert crossing_parity(emb, cyc, f1, f2) == 1
        assert crossing_parity_floodfill(emb, cyc, f1, f2) == 1


def test_separating_cycle_is_checked_on_plane_multigraphs():
    """Loops, parallel and pendant edges: the answer is a single cycle that
    separates the faces, or ValueError when neither face is bounded by a
    cycle."""
    rng = make_rng(12)
    outcomes = set()
    for _ in range(300):
        g, emb = random_plane_multigraph(rng)
        for f1, f2 in itertools.combinations(range(len(emb.faces)), 2):
            try:
                cyc = separating_cycle_between_faces(emb, f1, f2)
            except ValueError:
                outcomes.add("raised")
                continue
            outcomes.add("cycle")
            assert is_single_cycle(g, cyc)
            assert crossing_parity_floodfill(emb, cyc, f1, f2) == 1
    assert outcomes == {"raised", "cycle"}


def test_separating_cycle_refuses_faces_bounded_by_loops():
    """Cay(Z3, {a, e}): a loop at every vertex lies on one of the two
    triangle faces, so neither boundary is a cycle."""
    cg = build_cayley(cyclic_group(3, "a"), ["a", "e"])
    emb = planarity_test(cg)
    triangles = [fi for fi, f in enumerate(emb.faces) if len(f.darts) >= 3]
    assert len(triangles) == 2
    with pytest.raises(ValueError, match="2-connected"):
        separating_cycle_between_faces(emb, *triangles)


def test_star_generation_known_ranks():
    assert star_generation_check(
        build_cayley(cyclic_group(4, "g"), ["g"])).rank == 3
    cube, _ = _cube()
    assert star_generation_check(cube).rank == 7
    assert star_generation_check(
        build_cayley(cyclic_group(2, "b"), ["b"])).rank == 1
    rep = star_generation_check(build_cayley(a4_model(), ["k", "r"]))
    assert rep.ok and rep.rank == 11


def test_star_rank_reads_the_kept_connectivity(monkeypatch):
    """build_cayley's generation check answers the component count."""
    cg = build_cayley(a4_model(), ["k", "r"])
    monkeypatch.setattr(MultiGraph, "component_count", None)
    assert star_generation_check(cg).rank == 11


def test_parity_labels_equal_floodfill_on_plane_multigraphs():
    """Every face boundary that is a single cycle, on random plane
    multigraphs with loops, parallel and pendant edges."""
    rng = make_rng(13)
    trials = set()
    for _ in range(150):
        g, emb = random_plane_multigraph(rng)
        for f in emb.faces:
            cyc = edge_vector(d // 2 for d in f.darts)
            if not is_single_cycle(g, cyc):
                continue
            for f1, f2 in itertools.permutations(range(len(emb.faces)), 2):
                p = crossing_parity(emb, cyc, f1, f2)
                assert p == crossing_parity_floodfill(emb, cyc, f1, f2)
                trials.add(p)
    assert trials == {0, 1}


def _disjoint_union(g1: MultiGraph, g2: MultiGraph) -> MultiGraph:
    out = MultiGraph()
    for g in (g1, g2):
        offset = out.n_vertices
        for _ in range(g.n_vertices):
            out.add_vertex()
        for e in range(g.n_edges):
            u, v = g.edge_ends(e)
            out.add_edge(u + offset, v + offset, g.edge_label[e], False)
    return out


def test_star_rank_equals_elimination_oracle():
    """|V| minus the number of components, against GF(2) elimination of
    all vertex stars, on random plane multigraphs and on disjoint unions
    of two of them."""
    rng = make_rng(14)
    components = set()
    for _ in range(150):
        g1, _ = random_plane_multigraph(rng)
        g2, _ = random_plane_multigraph(rng)
        for g in (g1, _disjoint_union(g1, g2)):
            rank = star_generation_check(g).rank
            assert rank == gf2_rank([star_cut(g, v)
                                     for v in range(g.n_vertices)])
            components.add(g.n_vertices - rank)
    assert components == {1, 2}
