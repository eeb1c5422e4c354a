import pytest

import pcl.ends
from pcl.cayley import InfiniteFamilySpec, build_ball
from pcl.ends import EndsNotStabilizedError, classify_ends, frontier_counts
from pcl.groups import a4_model, z4xz2_model

from util import components_by_sets


def _amalgam_spec():
    a, b = a4_model(), z4xz2_model()
    return InfiniteFamilySpec("amalgam", {
        "a": a, "b": b, "gens_a": ["k", "r"], "gens_b": ["(1,0)", "(0,1)"],
        "b_a": a.element("k"), "b_b": b.element("(0,1)")})


def test_finite_group_zero_ends():
    rep = classify_ends(a4_model(), 2, 5)
    assert rep.ends_class == "0"
    assert rep.stabilized


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
    assert d["schema"] == "pcl/1"
    assert d["class"] == "2"
    assert d["certified"] is True


def test_ends_builds_one_ball(monkeypatch):
    """The counts at R-1 are read off the part of Ball(R) at distance
    <= R-1, so classify_ends builds a single ball."""
    radii = []
    build_ball = pcl.ends.build_ball

    def counted(spec, radius):
        radii.append(radius)
        return build_ball(spec, radius)

    monkeypatch.setattr(pcl.ends, "build_ball", counted)
    rep = classify_ends(InfiniteFamilySpec("z-cross-z3"), 2, 6)
    assert radii == [6]
    assert rep.component_counts == {5: 2, 6: 2}


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
    """Every r < R <= cap: the one union-find sweep counts what two
    component searches count."""
    for R in range(1, cap + 1):
        ball = build_ball(spec, R)
        for r in range(R):
            assert frontier_counts(ball, r) == _counts_by_sets(ball, r)
