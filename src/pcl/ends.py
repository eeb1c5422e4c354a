"""Ends classification of bundled Cayley graphs from nested balls.

A finitely generated group has 0, 1, 2, or a Cantor set of ends (Hopf's
trichotomy).  At desk scale we count the components of an annulus
Ball(R) minus Ball(r) that reach the frontier: 0/1/2 components give the
class directly and 3 or more give "cantor".  A class is reported only
when the counts at the outer radii R-1 and R agree on it.  Every accepted
input is a bundled family, whose normal forms make balls exact, or a
finite group.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass

from .cayley import InfiniteFamilySpec, build_ball
from .graph import CayleyGraph, join
from .groups import GroupModel


@dataclass
class EndsReport:
    ends_class: str  # "0" | "1" | "2" | "cantor"
    component_counts: dict[int, int]  # outer radius -> frontier components
    r: int
    R: int
    stabilized: bool

    def to_json_dict(self) -> dict:
        return {
            "schema": "pcl/1",
            "class": self.ends_class,
            "component_counts": {str(k): v
                                 for k, v in sorted(self.component_counts.items())},
            "r": self.r,
            "R": self.R,
            "stabilized": self.stabilized,
            # schema pcl/1 carries this key; every report is from an exact
            # ball or a finite group
            "certified": True,
        }


class EndsNotStabilizedError(ValueError):
    """The counts at the two outer radii R-1 and R do not agree on a class,
    or only R was counted (r = R-1)."""

    def __init__(self, r: int, R: int, counts: dict[int, int]):
        super().__init__(
            f"ends class not stabilized for r = {r}, R = {R}: frontier "
            f"component counts {dict(sorted(counts.items()))} need two outer "
            f"radii agreeing on a class")


def _class_from_count(count: int) -> str:
    if count >= 3:
        return "cantor"
    return str(count)


def classify_ends(spec: InfiniteFamilySpec | GroupModel, r: int,
                  R: int) -> EndsReport:
    """Classify the ends of a bundled family or finite group model.

    Counts frontier-reaching components of Ball(R') minus Ball(r) for
    R' = R-1 and R, both read off one Ball(R).  The class is printed only
    when both radii are counted and agree on it; otherwise
    EndsNotStabilizedError (so a reported ball is always stabilized).
    """
    if not r < R:
        raise ValueError("need r < R")
    if isinstance(spec, GroupModel):
        # a finite group has empty frontier once R exceeds the diameter
        counts = {R: 0}
        return EndsReport("0", counts, r, R, True)
    counts = frontier_counts(build_ball(spec, R), r)
    classes = {_class_from_count(c) for c in counts.values()}
    if len(counts) < 2 or len(classes) > 1:
        raise EndsNotStabilizedError(r, R, counts)
    return EndsReport(classes.pop(), counts, r, R, True)


def frontier_counts(ball: CayleyGraph, r: int) -> dict[int, int]:
    """Components of Ball(R') minus Ball(r) that reach distance R', for
    R' = R-1 (when R-1 > r) and R, with R the ball's radius.

    One union-find sweep over the annulus's edges: vertices are numbered
    breadth-first, so depth is non-decreasing and each shell is a range
    of vertex numbers.  The edges inside Ball(R-1) are joined as the
    sweep meets them and the rest, which reach the last shell, are joined
    after it; the count at R' is the number of roots over the shell at
    R'.  A root is its set's least vertex, so every parent lies below its
    child and one pass upwards points each vertex at its root.
    O((V+E)*alpha).
    """
    dist = ball.depth
    R = ball.radius
    first = bisect_right(dist, r)
    last = bisect_left(dist, R)  # the first vertex at distance R
    parent = list(range(len(dist)))

    def roots(lo: int, hi: int) -> int:
        for v in range(first, hi):
            parent[v] = parent[parent[v]]
        return len(set(parent[lo:hi]))

    outer = []
    for a, b in ball.edges():
        if a >= first and b >= first:
            if a < last and b < last:
                join(parent, a, b)
            else:
                outer.append((a, b))
    counts = {}
    if R - 1 > r:
        counts[R - 1] = roots(bisect_left(dist, R - 1), last)
    for a, b in outer:
        join(parent, a, b)
    counts[R] = roots(last, len(dist))
    return counts
