import json

import pytest
from hypothesis import given, strategies as st

import pcl.cayley
from pcl.cayley import (BallBudgetError, InfiniteFamilySpec,
                        NonGeneratingError, build_amalgam_ball, build_ball,
                        build_cayley, dart_permutation, interior_degrees)
from pcl.embedding import KuratowskiWitness, planarity_test
from pcl.graph import MultiGraph
from pcl.groups import a4_model, coset_enumerate, cyclic_group, z4xz2_model
from pcl.presentation import parse_presentation

from test_actions import _small_presentations
from util import build_ball_two_pass, left_multiplication_invariant


def test_a4_cayley_counts():
    cg = build_cayley(a4_model(), ["k", "r"])
    assert cg.n_vertices == 12
    assert cg.n_edges == 18  # 6 involution edges + 12 directed r-edges
    assert all(cg.degree(v) == 3 for v in range(12))


def test_prism_counts():
    cg = build_cayley(z4xz2_model(), ["(1,0)", "(0,1)"])
    assert cg.n_vertices == 8
    assert cg.n_edges == 12


def test_identity_generator_gives_loops():
    g = cyclic_group(3)
    cg = build_cayley(g, ["a", "e"])
    loops = [e for e in range(cg.n_edges) if len(set(cg.edge_ends(e))) == 1]
    assert len(loops) == 3


def test_non_generating_set_rejected():
    with pytest.raises(NonGeneratingError) as ei:
        build_cayley(a4_model(), ["r"])
    assert ei.value.subgroup_order == 3


@given(_small_presentations(), st.data())
def test_generation_check_equals_closure(text, data):
    """Random element multisets, which may fail to generate: build_cayley
    refuses exactly those whose closure falls short of the group, and
    reports the closure's order."""
    g = coset_enumerate(parse_presentation(text), 200)
    elts = data.draw(st.lists(st.integers(0, g.order - 1), max_size=4))
    reached = len(g.closure(elts))
    gens = [g.element_names[x] for x in elts]
    if reached == g.order:
        assert build_cayley(g, gens).is_connected()
        return
    with pytest.raises(NonGeneratingError) as ei:
        build_cayley(g, gens)
    assert ei.value.subgroup_order == reached


def test_planarity_test_reuses_the_generation_check(monkeypatch):
    """The connectivity that build_cayley found answers planarity_test of
    the C_n x C_2 witness graph without another count on the graph."""
    g = coset_enumerate(parse_presentation(
        "group C12xC2 { gens: a b; rels: a^12, b^2, a*b*a^-1*b^-1; "
        "involutions: b; }"), 64)
    cg = build_cayley(g, ["a", "a*b"])
    counted = []
    component_count = MultiGraph.component_count

    def counting(self, vertices=None):
        counted.append(self)
        return component_count(self, vertices)
    monkeypatch.setattr(MultiGraph, "component_count", counting)
    assert isinstance(planarity_test(cg), KuratowskiWitness)
    assert not any(h is cg for h in counted)


def test_left_multiplication_is_automorphism():
    cg = build_cayley(a4_model(), ["k", "r"])
    g = cg.group
    for x in range(g.order):
        vperm, dperm = dart_permutation(cg, x)
        assert sorted(vperm) == list(range(12))
        for d in range(cg.n_darts):
            assert dperm[d ^ 1] == dperm[d] ^ 1
            assert cg.dart_tail[dperm[d]] == vperm[cg.dart_tail[d]]
    assert left_multiplication_invariant(cg)


def test_ball_z():
    ball = build_ball(InfiniteFamilySpec("z"), 3)
    assert ball.n_vertices == 7
    assert len(ball.frontier) == 2
    assert interior_degrees(ball) == {2}


def test_ball_grid():
    ball = build_ball(InfiniteFamilySpec("z-cross-z"), 2)
    assert ball.n_vertices == 13  # |{|m|+|n| <= 2}|
    assert len(ball.frontier) == 8
    assert interior_degrees(ball) == {4}


def test_ball_free_group():
    ball = build_ball(InfiniteFamilySpec("free", {"rank": 2}), 2)
    assert ball.n_vertices == 17
    assert interior_degrees(ball) == {4}
    # a tree: E = V - 1
    assert ball.n_edges == ball.n_vertices - 1


def test_ball_z_cross_z3():
    ball = build_ball(InfiniteFamilySpec("z-cross-z3"), 4)
    assert interior_degrees(ball) == {4}


def test_amalgam_ball_interior_degree():
    a, b = a4_model(), z4xz2_model()
    ball = build_amalgam_ball(a, "k", b, "(0,1)", ["k", "r"],
                              ["(1,0)", "(0,1)"], 3)
    assert ball.n_vertices == 62
    assert interior_degrees(ball) == {5}  # 3 + 3 - 1


def test_ball_deterministic():
    s = InfiniteFamilySpec("free", {"rank": 2})
    a, b = build_ball(s, 3), build_ball(s, 3)
    assert a.to_json_dict() == b.to_json_dict()


def test_negative_radius_rejected():
    with pytest.raises(ValueError):
        build_ball(InfiniteFamilySpec("z"), -1)


@pytest.mark.parametrize("tag,params,radii", [
    ("free", {"rank": 1}, range(0, 41, 8)),
    ("free", {"rank": 2}, range(0, 6)),
    ("free", {"rank": 3}, range(0, 4)),
    ("free", {"rank": 5}, range(0, 4)),  # generator f follows d
    ("free", {"rank": 25}, range(0, 3)),
    ("z", {}, range(0, 41, 5)),
    ("z", {"steps": (1, 2)}, range(0, 21, 4)),
    ("z", {"steps": (2, 3)}, range(0, 13, 3)),
    ("z-cross-z", {}, range(0, 16, 3)),
    ("z-cross-z3", {}, range(0, 16, 3)),
    ("cn-cross-z", {"n": 2}, range(0, 21, 4)),  # r is an involution
    ("cn-cross-z", {"n": 6}, range(0, 16, 3)),
    ("amalgam", {}, range(0, 5)),
])
def test_one_pass_ball_equals_two_pass_oracle(tag, params, radii):
    spec = InfiniteFamilySpec(tag, params)
    for radius in radii:
        ball = build_ball(spec, radius)
        oracle = build_ball_two_pass(spec, radius)
        # names, darts, frontier
        assert ball.to_json_dict() == oracle.to_json_dict()
        assert ball.depth == oracle.depth
        assert ball.out_dart == oracle.out_dart
        assert len(ball.out_dart) == ball.n_vertices * len(ball.generators)


def test_ball_budget_refuses_a_ball_past_the_cap(monkeypatch):
    """The cap is patched small; no large ball is ever started."""
    monkeypatch.setattr(pcl.cayley, "BALL_BUDGET", 100)
    # F2: |B_3| = 53 fits, |B_4| = 161 does not
    assert build_ball(InfiniteFamilySpec("free"), 3).n_vertices == 53
    with pytest.raises(BallBudgetError) as ei:
        build_ball(InfiniteFamilySpec("free"), 6)
    err = ei.value
    assert err.vertices > 100 and err.reached == 4
    assert str(err) == (f"the radius-6 ball passes the budget of 100 "
                        f"vertices: {err.vertices} vertices found up to "
                        f"radius 4")
    # the last shell alone may pass it: |B_4| = 161 for R = 4
    with pytest.raises(BallBudgetError):
        build_ball(InfiniteFamilySpec("free"), 4)


def test_ball_budget_exits_3(monkeypatch):
    from click.testing import CliRunner
    from pcl.cli import main
    monkeypatch.setattr(pcl.cayley, "BALL_BUDGET", 1000)
    for argv in (["faces", "--family", "free", "--rank", "25", "--ball", "6"],
                 ["ends", "--family", "z-cross-z", "-r", "3", "-R", "40"]):
        res = CliRunner().invoke(main, argv)
        assert res.exit_code == 3, res.output
        err = json.loads(res.stderr)
        assert err["error"] == "BallBudgetError"
        assert "budget of 1000 vertices" in err["message"]
