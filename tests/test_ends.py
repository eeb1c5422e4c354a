import tracemalloc
from unittest import mock

import pytest
from hypothesis import given, strategies as st

import pcl.cayley
import pcl.ends
from pcl.cayley import BallBudgetError, InfiniteFamilySpec, build_ball
from pcl.ends import EndsNotStabilizedError, classify_ends, shell_counts
from pcl.families import FAMILIES
from pcl.graph import CayleyGraph
from pcl.groups import a4_model, z4xz2_model

from util import CountingEngine, components_by_sets, frontier_counts


def _amalgam_spec():
    a, b = a4_model(), z4xz2_model()
    return InfiniteFamilySpec("amalgam", {
        "a": a, "b": b, "gens_a": ["k", "r"], "gens_b": ["(1,0)", "(0,1)"],
        "b_a": a.element("k"), "b_b": b.element("(0,1)")})


def test_finite_group_zero_ends():
    rep = classify_ends(a4_model(), 2, 5)
    assert rep.ends_class == "0"
    assert rep.stabilized
    assert rep.component_counts == {5: 0}


@pytest.mark.parametrize("r,R", [(0, 1), (0, 2), (2, 4)])
def test_finite_group_refused_below_its_diameter(r, R):
    """A4 on k, r has diameter 3: the annulus of Ball(1) minus Ball(0)
    has two components (k, and r with r^-1), so class 0 needs R - 1 > 3."""
    assert a4_model().diameter == 3
    with pytest.raises(ValueError, match="A4 has diameter 3"):
        classify_ends(a4_model(), r, R)


def test_z_two_ends():
    rep = classify_ends(InfiniteFamilySpec("z"), 2, 5)
    assert rep.ends_class == "2"
    assert rep.stabilized
    assert set(rep.component_counts.values()) == {2}


def test_z_generating_set_robustness():
    rep = classify_ends(InfiniteFamilySpec("z", {"steps": (1, 2)}), 2, 5)
    assert rep.ends_class == "2"


def test_grid_one_end():
    rep = classify_ends(InfiniteFamilySpec("z-cross-z"), 2, 6)
    assert rep.ends_class == "1"
    assert rep.stabilized


def test_z_cross_z3_two_ends():
    rep = classify_ends(InfiniteFamilySpec("z-cross-z3"), 2, 6)
    assert rep.ends_class == "2"
    assert rep.stabilized


def test_free_group_cantor():
    rep = classify_ends(InfiniteFamilySpec("free"), 1, 4)
    assert rep.ends_class == "cantor"
    assert rep.stabilized
    # tree component counts grow with the annulus radius class
    assert min(rep.component_counts.values()) >= 3


def test_amalgam_cantor():
    rep = classify_ends(_amalgam_spec(), 1, 3)
    assert rep.ends_class == "cantor"
    assert rep.stabilized


def test_bad_radii_rejected():
    with pytest.raises(ValueError):
        classify_ends(InfiniteFamilySpec("z"), 5, 5)


def test_report_json_shape():
    d = classify_ends(InfiniteFamilySpec("z"), 2, 5).to_json_dict()
    assert "schema" not in d  # stamped by the CLI's writer
    assert d["class"] == "2"
    assert d["certified"] is True


def test_ends_builds_no_ball(monkeypatch):
    """The counts come from the shell sweep: classify_ends neither calls
    build_ball nor makes a CayleyGraph."""
    def refused(*args):
        raise AssertionError(f"a ball was built: {args}")

    monkeypatch.setattr(pcl.cayley, "build_ball", refused)
    monkeypatch.setattr(CayleyGraph, "__init__", refused)
    rep = classify_ends(InfiniteFamilySpec("z-cross-z3"), 2, 6)
    assert rep.component_counts == {5: 2, 6: 2}
    assert classify_ends(_amalgam_spec(), 1, 3).ends_class == "cantor"


@pytest.mark.parametrize("spec,r,R,counts", [
    (InfiniteFamilySpec("z-cross-z"), 9, 10, "{10: 40}"),  # true class 1
    (InfiniteFamilySpec("z-cross-z3"), 9, 10, "{10: 4}"),  # true class 2
    (_amalgam_spec(), 1, 4, "{3: 4, 4: 2}"),  # true class cantor
])
def test_unstabilized_class_is_refused(spec, r, R, counts):
    """One outer radius counted (r = R-1), or two that disagree."""
    with pytest.raises(EndsNotStabilizedError) as ei:
        classify_ends(spec, r, R)
    for part in (f"r = {r}", f"R = {R}", counts):
        assert part in str(ei.value)


def _distances_in(ball):
    """Distances from the identity by a breadth-first search inside the
    ball (the oracle for ``CayleyGraph.depth``)."""
    dist = {0: 0}
    queue = [0]
    for v in queue:
        for d in ball.incidence()[v]:
            w = ball.head(d)
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return [dist[v] for v in range(ball.n_vertices)]


@pytest.mark.parametrize("spec,R", [
    (InfiniteFamilySpec("free", {"rank": 3}), 4),
    (InfiniteFamilySpec("z", {"steps": (2, 3)}), 6),
    (InfiniteFamilySpec("z-cross-z"), 7),
    (InfiniteFamilySpec("cn-cross-z", {"n": 6}), 5),
    (_amalgam_spec(), 4),
    (InfiniteFamilySpec("z"), 0),
])
def test_ball_depth_is_the_distance_inside_the_ball(spec, R):
    ball = build_ball(spec, R)
    assert ball.depth == _distances_in(ball)
    assert ball.frontier == {v for v, d in enumerate(ball.depth) if d == R}


def _counts_by_sets(ball, r):
    """Oracle for ``frontier_counts``: the components of each annulus, by
    set-based search, that hold a vertex of its outer shell."""
    R, depth = ball.radius, ball.depth
    counts = {}
    for outer in (R - 1, R):
        if outer > r:
            annulus = {v for v, d in enumerate(depth) if r < d <= outer}
            counts[outer] = sum(
                any(depth[v] == outer for v in comp)
                for comp in components_by_sets(ball, annulus))
    return counts


@pytest.mark.parametrize("spec,cap", [
    (InfiniteFamilySpec("free", {"rank": 2}), 6),
    (InfiniteFamilySpec("free", {"rank": 3}), 4),
    (InfiniteFamilySpec("z-cross-z"), 9),
    *[(InfiniteFamilySpec("cn-cross-z", {"n": n}), 9) for n in range(2, 7)],
    (_amalgam_spec(), 4),
])
def test_union_find_counts_equal_set_based_components(spec, cap):
    """Every r < R <= cap: the shell sweep counts what two component
    searches over the whole ball count."""
    for R in range(1, cap + 1):
        ball = build_ball(spec, R)
        for r in range(R):
            assert shell_counts(spec.engine(), r, R) == _counts_by_sets(ball, r)


# (tag, params, largest R) per family: every tag, and Z with steps 2, 3
_SWEEP_CASES = [
    ("free", {"rank": 1}, 16), ("free", {"rank": 2}, 6),
    ("free", {"rank": 3}, 4), ("z", {}, 16), ("z", {"steps": (2, 3)}, 12),
    ("z-cross-z", {}, 12), ("z-cross-z3", {}, 12),
    *[("cn-cross-z", {"n": n}, 10) for n in (2, 3, 5)], ("amalgam", {}, 5),
]


def test_sweep_cases_cover_every_family():
    assert {tag for tag, _, _ in _SWEEP_CASES} == set(FAMILIES)


def _ends_outcome(spec, r, R):
    try:
        return classify_ends(spec, r, R)
    except EndsNotStabilizedError as err:
        return str(err)


@given(st.sampled_from(_SWEEP_CASES), st.data())
def test_sweep_equals_the_ball_path(case, data):
    """The shell sweep gives the counts that ``frontier_counts`` reads off
    the whole Ball(R), and so the same report or the same refusal."""
    tag, params, cap = case
    R = data.draw(st.integers(1, cap))
    r = data.draw(st.integers(0, R - 1))
    spec = InfiniteFamilySpec(tag, params)
    by_ball = frontier_counts(build_ball(spec, R), r)
    assert shell_counts(spec.engine(), r, R) == by_ball
    with mock.patch.object(pcl.ends, "shell_counts",
                           lambda engine, r, R: by_ball):
        want = _ends_outcome(spec, r, R)
    assert _ends_outcome(spec, r, R) == want


def _budget_refusal(count, *args):
    try:
        count(*args)
    except BallBudgetError as err:
        return str(err), err.reached, err.vertices
    return None


@pytest.mark.parametrize("budget", [50, 100, 333, 1000])
@pytest.mark.parametrize("spec", [
    InfiniteFamilySpec("free"), InfiniteFamilySpec("z-cross-z"),
    _amalgam_spec(), InfiniteFamilySpec("cn-cross-z", {"n": 4}),
    InfiniteFamilySpec("z", {"steps": (2, 3)}),
], ids=["free", "z-cross-z", "amalgam", "cn-cross-z", "z-steps-2-3"])
def test_sweep_refuses_what_build_ball_refuses(monkeypatch, spec, budget):
    """Under a patched budget the sweep refuses the radii that build_ball
    refuses, with the same message, up to two radii past the first
    refusal, for r = 0, R // 2 and R - 1, so inside Ball(r) too."""
    monkeypatch.setattr(pcl.cayley, "BALL_BUDGET", budget)
    refused, R = [], 0
    while len(refused) < 3:
        R += 1
        want = _budget_refusal(build_ball, spec, R)
        for r in {0, R // 2, R - 1}:
            assert _budget_refusal(shell_counts, spec.engine(), r, R) == want
        if want is not None:
            refused.append(R)
    assert refused == [R - 2, R - 1, R]


@pytest.mark.parametrize("spec,R,calls", [
    (InfiniteFamilySpec("z-cross-z"), 30, 7204),
    (InfiniteFamilySpec("free"), 6, 3884),
    (_amalgam_spec(), 5, 1708),
    (InfiniteFamilySpec("z", {"steps": (2, 3)}), 7, 160),
    (InfiniteFamilySpec("cn-cross-z", {"n": 2}), 8, 92),
], ids=["z-cross-z", "free", "amalgam", "z-steps-2-3", "c2-cross-z"])
def test_sweep_moves_as_often_as_build_ball(spec, R, calls):
    """The sweep calls the engine's moves as often as build_ball does: both
    moves per generator inside the ball and forward moves only on the
    frontier, each vertex once."""
    counted = CountingEngine(spec.engine())
    build_ball(counted, R)
    assert counted.calls == calls
    for r in {0, R // 2, R - 1}:
        sweep = CountingEngine(spec.engine())
        shell_counts(sweep, r, R)
        assert sweep.calls == counted.calls


def _peak_bytes(R: int) -> int:
    tracemalloc.start()
    try:
        classify_ends(InfiniteFamilySpec("z-cross-z"), 3, R)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sweep_memory_grows_with_the_shell():
    """Z^2's shell at R has 4R vertices and its ball 2R^2 + 2R + 1: when
    R doubles, the sweep's peak grows like the shell, about twice, where
    a whole ball's grows about four times."""
    assert _peak_bytes(120) <= 2.5 * _peak_bytes(60)


# every family tag, Z with steps 2, 3 and C2 x Z (an involution generator),
# with the largest R of the grid
_GRID_CASES = [
    ("free", {}, 6), ("z", {}, 10), ("z", {"steps": (2, 3)}, 10),
    ("z-cross-z", {}, 10), ("z-cross-z3", {}, 10),
    ("cn-cross-z", {"n": 2}, 10), ("amalgam", {}, 6),
]


@pytest.mark.parametrize("tag,params,cap", _GRID_CASES)
def test_sweep_equals_the_ball_path_on_every_radius_pair(tag, params, cap):
    """Every 0 <= r < R <= cap, so r = 0, r = R-1 and R = 1 too, where
    the fresh labels of shell r+1 and the joins held back at R-1 meet."""
    spec = InfiniteFamilySpec(tag, params)
    for R in range(1, cap + 1):
        ball = build_ball(spec, R)
        for r in range(R):
            assert shell_counts(spec.engine(), r, R) == frontier_counts(ball, r)


def test_grid_cases_cover_every_family():
    assert {tag for tag, _, _ in _GRID_CASES} == set(FAMILIES)


def test_sweep_peak_per_frontier_vertex():
    """The sweep keeps no list of frontier edges: on F2 its peak is at
    most 150 bytes per vertex of the last shell (4 * 3^8 at R = 9)."""
    tracemalloc.start()
    try:
        shell_counts(FAMILIES["free"](), 3, 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 150 * 4 * 3 ** 8
