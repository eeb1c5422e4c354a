"""Ends classification of bundled Cayley graphs from nested balls.

A finitely generated group has 0, 1, 2, or a Cantor set of ends (Hopf's
trichotomy).  At desk scale we count the components of an annulus
Ball(R) minus Ball(r) that reach the frontier: 0/1/2 components give the
class directly and 3 or more give "cantor".  A class is reported only
when the counts at the outer radii R-1 and R agree on it.  Both counts
come from one breadth-first sweep that holds a few shells at a time and
never builds the ball.  It labels each annulus vertex with the component
root of the vertex that finds it, one shell nearer, which is sound since
that edge lies in the annulus.  Every accepted input is a bundled family,
whose normal forms make balls exact, or a finite group.
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
    stabilized).  A finite group has class 0, read only where both
    frontiers are empty: ValueError naming its diameter unless R-1
    exceeds it.
    """
    if not 0 <= r < R:
        raise ValueError("need 0 <= r < R")
    if isinstance(spec, GroupModel):
        if R - 1 <= spec.diameter:
            raise ValueError(f"{spec.name} has diameter {spec.diameter}: its "
                             f"ends need R - 1 above it, not R = {R}")
        return EndsReport("0", {R: 0}, r, R, True)
    counts = shell_counts(spec.engine(), r, R)
    classes = {_class_from_count(c) for c in counts.values()}
    if len(counts) < 2 or len(classes) > 1:
        raise EndsNotStabilizedError(r, R, counts)
    return EndsReport(classes.pop(), counts, r, R, True)


def shell_counts(engine: Engine, r: int, R: int) -> dict[int, int]:
    """Components of Ball(R') minus Ball(r) that reach distance R', for
    R' = R-1 (when R-1 > r) and R, from one breadth-first sweep over the
    engine's moves that holds the keys of shells d-1, d and d+1 only.

    Each vertex holds a label, a node of a union-find (path halving);
    Ball(r) is label 0, a root that no edge joins.  One discovery loop over
    d < R finds shell d+1 from shell d, each new vertex with the current
    root of the vertex that finds it (their edge lies in the annulus), and
    joins the labels at the ends of every other edge out of shell d; shell
    r+1, found with label 0, is then relabelled 1..m-1.  An edge joins
    shells at most one apart and is met once, from its tail's forward move.
    Only the edges from shell R-1 into R wait for the count at R-1: shell R
    holds the aliases m + x of the roots x (m counts label 0), which tells
    them apart.  One frontier loop at R joins the edges out of shell R that
    stay in the ball, by forward moves only.  The count at d is the number
    of roots over shell d's labels.  Vertices are counted in
    ``cayley.build_ball``'s order and meet its budget check, so the same
    inputs are refused with the same BallBudgetError.  O((V+E)*alpha) time
    and O(shell) memory.
    """
    budget = cayley.BALL_BUDGET
    # (move, whether by a generator, not its inverse) per move that finds
    # vertices, in build_ball's order
    steps = [(move, move is times)
             for _, involution, times, times_inv in engine.moves()
             for move in ((times,) if involution else (times, times_inv))]
    older: list = []  # keys of shell d-1
    shell = [0]  # keys of shell d
    held = [0]  # their labels
    label = {shell[0]: 0}  # key -> label over shells d-1, d and d+1
    get = label.get
    parent = [0]  # the union-find over the labels
    tag = [0]  # the label of a root x's new vertices
    m = 1  # labels below m are Ball(r)'s and shell r+1's, the rest alias them

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    n = 1  # the number of vertices found
    counts = {}
    for d in range(R):
        nxt: list = []  # keys of shell d+1, in order of discovery
        given: list[int] = []  # their labels
        ahead = []  # edges from shell R-1 into R, as label pairs
        if d == R - 1 > r:
            tag = list(range(m, 2 * m))
            parent += range(m)  # alias m + x of label x
        for key, rv in zip(shell, held):
            if n > budget:
                raise BallBudgetError(R, d + bool(nxt), n)
            while parent[rv] != rv:
                parent[rv] = rv = parent[parent[rv]]
            new = tag[rv]
            for move, forward in steps:
                w_key = move(key)
                lw = get(w_key)
                if lw is None:
                    label[w_key] = new
                    nxt.append(w_key)
                    given.append(new)
                    n += 1
                elif forward and lw != rv:  # an edge out of key
                    if lw >= m:
                        if lw - m != rv:
                            ahead.append((lw, rv))
                    elif lw:
                        while parent[lw] != lw:
                            parent[lw] = lw = parent[parent[lw]]
                        if lw != rv:
                            parent[lw] = rv
        if d == r:  # fresh labels for shell r+1
            m = len(nxt) + 1
            parent = list(range(m))
            tag, given = parent[:], parent[1:]
            label.update(zip(nxt, given))
        elif d == R - 1:
            counts[d] = len({find(x) for x in set(held)})
            for lw, rv in ahead:
                lw, rv = find(lw), find(rv)
                if lw != rv:
                    parent[lw] = rv
        for key in older:
            del label[key]
        older, shell, held = shell, nxt, given
    if n > budget:  # the frontier: only edges inside the ball
        raise BallBudgetError(R, R, n)
    heads = [move for move, forward in steps if forward]
    for key, rv in zip(shell, held):
        for move in heads:
            lw = get(move(key))
            if lw and lw != rv:
                lw, rv = find(lw), find(rv)
                if lw != rv:
                    parent[lw] = rv
    counts[R] = len({find(x) for x in set(held)})
    return counts
