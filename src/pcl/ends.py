"""Ends classification of bundled Cayley graphs from nested balls.

A finitely generated group has 0, 1, 2, or a Cantor set of ends (Hopf's
trichotomy).  At desk scale we count the components of an annulus
Ball(R) minus Ball(r) that reach the frontier: 0/1/2 components give the
class directly and 3 or more give "cantor".  A class is reported only
when the counts at the outer radii R-1 and R agree on it.  Both counts
come from one breadth-first sweep that holds a few shells at a time and
never builds the ball.  Every accepted input is a bundled family, whose
normal forms make balls exact, or a finite group.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cayley
from .cayley import BallBudgetError, InfiniteFamilySpec
from .families import Engine
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
    R' = R-1 and R in one shell-by-shell sweep (``shell_counts``).  The
    class is printed only when both radii are counted and agree on it;
    otherwise EndsNotStabilizedError (so a reported ball is always
    stabilized).
    """
    if not 0 <= r < R:
        raise ValueError("need 0 <= r < R")
    if isinstance(spec, GroupModel):
        # a finite group has empty frontier once R exceeds the diameter
        counts = {R: 0}
        return EndsReport("0", counts, r, R, True)
    counts = shell_counts(spec.engine(), r, R)
    classes = {_class_from_count(c) for c in counts.values()}
    if len(counts) < 2 or len(classes) > 1:
        raise EndsNotStabilizedError(r, R, counts)
    return EndsReport(classes.pop(), counts, r, R, True)


def shell_counts(engine: Engine, r: int, R: int) -> dict[int, int]:
    """Components of Ball(R') minus Ball(r) that reach distance R', for
    R' = R-1 (when R-1 > r) and R, from one breadth-first sweep over the
    engine's moves that holds the keys of shells d-1, d and d+1 only.

    Every edge joins shells at most one apart, so each edge is met once,
    from its tail's forward move: an edge into shell d-1 or d is joined
    once shell d is swept, and one into shell d+1 after the count at d.
    The union-find (``graph.join`` inlined: least member as root, path
    halving) spans the annulus part of shells d-1 and d.  Once shell d is
    counted, each of its vertices points at the least shell-d member of
    its set and shell d-1 is dropped.  Vertices are numbered as
    ``cayley.build_ball`` numbers them and meet its budget check, so the
    same inputs are refused with the same BallBudgetError.
    O((V+E)*alpha) time and O(shell) memory.
    """
    budget = cayley.BALL_BUDGET
    moves = [(times, times_inv, gs.is_involution)
             for gs, (times, times_inv) in zip(engine.gens(), engine.moves())]
    older: list = []  # keys of shell d-1
    shell = [engine.identity()]  # keys of shell d
    index = {shell[0]: 0}  # key -> vertex number, over shells d-1, d, d+1
    setdefault, get = index.setdefault, index.get
    lo = 0  # the number of shell d's first vertex
    # the union-find, over the vertex numbers from base on
    parent: list[int] = []
    base = 0
    ahead: list[int] = []  # edges from shell d-1 into d, flat tail-head pairs
    counts = {}
    for d in range(R + 1):
        hi = n = lo + len(shell)  # n numbers the next vertex found
        annulus = d > r
        nxt: list = []  # keys of shell d+1, in order of discovery
        edges = ahead  # the edges to join before shell d is counted
        ahead = []
        to_edges, to_ahead = edges.append, ahead.append
        if d < R:
            for v, key in enumerate(shell, lo):
                if n > budget:
                    raise BallBudgetError(R, d + (n > hi), n)
                for times, times_inv, involution in moves:
                    w_key = times(key)
                    w = setdefault(w_key, n)
                    if w == n:
                        nxt.append(w_key)
                        n += 1
                    if annulus and w >= base:
                        if w >= hi:
                            to_ahead(v)
                            to_ahead(w)
                        else:
                            to_edges(v)
                            to_edges(w)
                    if not involution:
                        w_key = times_inv(key)
                        if setdefault(w_key, n) == n:
                            nxt.append(w_key)
                            n += 1
        else:  # the frontier: only edges inside the ball, and no new vertex
            if hi > budget:
                raise BallBudgetError(R, d, hi)
            for v, key in enumerate(shell, lo):
                for times, _, _ in moves:
                    w = get(times(key))
                    if w is not None and w >= base:
                        to_edges(v)
                        to_edges(w)
        if annulus:
            pairs = iter(edges)
            for v, w in zip(pairs, pairs):
                v -= base
                w -= base
                while parent[v] != v:
                    parent[v] = v = parent[parent[v]]
                while parent[w] != w:
                    parent[w] = w = parent[parent[w]]
                if v < w:
                    parent[w] = v
                elif w < v:
                    parent[v] = w
            # every parent lies below its child, so one pass upwards points
            # each vertex at its root; then each root over shell d is
            # renamed to the least shell-d member of its set
            for v in range(len(parent)):
                parent[v] = parent[parent[v]]
            least: dict[int, int] = {}
            parent = [least.setdefault(root, v)
                      for v, root in enumerate(parent[lo - base:])]
            if d >= R - 1:
                counts[d] = len(least)
            parent += range(hi - lo, n - lo)
            base = lo
        elif d == r:  # the annulus starts at shell d+1
            parent, base = list(range(n - hi)), hi
        for key in older:
            del index[key]
        older, shell, lo = shell, nxt, hi
    return counts
