"""Seeded job lists for the three benchmark workloads.

A job is one CLI command on one generated input (or one seeded library
trial).  Each workload is a plan of *slots*; a slot lists the variants the
seed may choose from, and every variant is a short list of jobs.  The seed
picks one variant per slot, permutes the relators of every generated
`.grp` text and shuffles the job order.  The union of all variants of all
slots is the workload's finite job universe, over which the stdout digests
in `digests.json` are recorded.

Variants within a slot are chosen to cost about the same, so that the
run-to-run spread of the end-to-end times stays small across seeds.  On the
finite ladder the D_n and C_n x C_2 inputs of one rung move their n in
opposite directions for the same reason.

This module imports nothing from pcl: the inputs are plain text and argv.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace

WORKLOADS = ("finite-ladder", "ball-ends", "search-small")


@dataclass(frozen=True)
class Group:
    """A finite group given by a generated presentation (or the builtin a4)."""

    kind: str  # "dihedral" | "cn2" | "triangle" | "builtin-a4"
    n: int  # D_n / C_n x C_2 parameter, or m of the (2,3,m) triangle group

    @property
    def label(self) -> str:
        return {"dihedral": f"D{self.n}", "cn2": f"C{self.n}xC2",
                "triangle": f"T23{self.n}", "builtin-a4": "a4"}[self.kind]

    @property
    def order(self) -> int:
        if self.kind == "triangle":
            return {3: 12, 4: 24, 5: 60}[self.n]
        if self.kind == "builtin-a4":
            return 12
        return 2 * self.n

    def generators(self) -> tuple[str, str]:
        return ("k", "r") if self.kind in ("triangle", "builtin-a4") else ("a", "b")

    def relators(self) -> tuple[str, ...]:
        n = self.n
        if self.kind == "dihedral":
            return (f"a^{n}", "b^2", "(a*b)^2")
        if self.kind == "cn2":
            return (f"a^{n}", "b^2", "a*b*a^-1*b^-1")
        if self.kind == "triangle":
            return ("k^2", "r^3", f"(k*r)^{n}")
        raise ValueError(f"{self.kind} has no generated presentation")

    def grp_text(self, relator_order: tuple[int, ...]) -> str:
        rels = self.relators()
        a, b = self.generators()
        involution = a if self.kind == "triangle" else b
        body = ", ".join(rels[i] for i in relator_order)
        return (f"group {self.label} {{ gens: {a} {b}; rels: {body}; "
                f"involutions: {involution}; }}\n")


@dataclass(frozen=True)
class Job:
    """One command on one input.

    `argv` is the CLI argument list; the token "{grp}" stands for the path
    of the generated presentation of `group`.  An argv starting with "lib"
    names a library trial instead of a CLI command.  `key` identifies the
    job for its recorded stdout digest.  It includes the relator order,
    because coset enumeration numbers the elements in the order it defines
    cosets, and that order follows the relators.
    """

    argv: tuple[str, ...]
    rung: int
    group: Group | None = None
    relator_order: tuple[int, ...] | None = None

    @property
    def key(self) -> str:
        label = self.group.label if self.group is not None else ""
        if self.grp_text() is not None:
            label += "/" + "".join(map(str, self.relator_order))
        return " ".join(label if a == "{grp}" else a for a in self.argv)

    def grp_text(self) -> str | None:
        if self.relator_order is None:
            return None
        return self.group.grp_text(self.relator_order)


def _on(group: Group, rung: int, *commands: tuple[str, ...]) -> list[Job]:
    target = "a4" if group.kind == "builtin-a4" else "{grp}"
    return [Job((cmd[0], target) + tuple(cmd[1:]), rung, group)
            for cmd in commands]


FINITE_COMMANDS = (("enumerate",), ("faces",), ("orient",), ("covariant",),
                   ("cutspace",))
WITNESS_COMMAND = ("embed", "--gens", "a,a*b")
# n of D_n and C_n x C_2 per rung: orders about 24 -> 100, ratio about 1.6
LADDER_BASES = (12, 20, 32, 50)


def _finite_ladder() -> list[list[list[Job]]]:
    slots = []
    for rung, base in enumerate(LADDER_BASES):
        variants = []
        for delta in (-1, 0, 1):
            jobs = _on(Group("dihedral", base + delta), rung, *FINITE_COMMANDS)
            jobs += _on(Group("cn2", base - delta), rung, *FINITE_COMMANDS,
                        WITNESS_COMMAND)
            variants.append(jobs)
        slots.append(variants)
    # (2,3,3), (2,3,4), (2,3,5): orders 12, 24 and 60 sit on rungs 0, 0, 2
    triangles = []
    for m, rung in ((3, 0), (4, 0), (5, 2)):
        triangles += _on(Group("triangle", m), rung, *FINITE_COMMANDS)
    slots.append([triangles])
    return slots


BALL_RADII = {
    "free": (4, 5, 6, 7),
    "z-cross-z": (8, 12, 16, 22),
    "cn-cross-z": (10, 20, 30, 40),
    "amalgam": (3, 4, 5, 6),
}
CN_ORDERS = (4, 5, 6)
# (family, r choices, R, rung) for the ends jobs
ENDS_JOBS = (
    ("free", (1, 2), 6, 2),
    ("free", (1, 2, 3), 8, 3),
    ("z-cross-z", (2, 3, 4, 5), 40, 2),
    ("z-cross-z", (2, 3, 4, 5), 80, 3),
    ("cn-cross-z", (3, 4, 5), 40, 3),
    ("amalgam", (2, 3), 5, 2),
    ("amalgam", (2, 3), 6, 3),
)


def _family_args(family: str, n: int | None) -> tuple[str, ...]:
    if family == "amalgam":
        return ("--amalgam",)
    if family == "cn-cross-z":
        return ("--family", family, "-n", str(n))
    return ("--family", family)


def _ball_ends() -> list[list[list[Job]]]:
    slots = []
    for family, radii in BALL_RADII.items():
        for rung, radius in enumerate(radii):
            ns = CN_ORDERS if family == "cn-cross-z" else (None,)
            slots.append([
                [Job((cmd,) + _family_args(family, n) + ("--ball", str(radius)), rung)
                 for cmd in ("build", "faces")]
                for n in ns])
    for family, inner, outer, rung in ENDS_JOBS:
        ns = CN_ORDERS if family == "cn-cross-z" else (None,)
        slots.append([
            [Job(("ends", "--family", family) + (("-n", str(n)) if n else ())
                 + ("-r", str(r), "-R", str(outer)), rung)]
            for n in ns for r in inner])
    return slots


def _search_small() -> list[list[list[Job]]]:
    slots = []
    search = (("embed", "--search-consistent"), ("covariant",))
    # one group per vertex count 10 / 12 / 14; the variants of a slot
    # search the same number of label orders and spins
    for rung, groups in enumerate((
            (Group("dihedral", 5), Group("cn2", 5)),
            (Group("builtin-a4", 3), Group("dihedral", 6), Group("cn2", 6)),
            (Group("cn2", 7),))):
        slots.append([_on(g, rung, *search) for g in groups])
    for rung, ns in enumerate(((8, 9, 10), (28, 30, 32))):
        for by in ("a", "b"):
            slots.append([_on(Group("cn2", n), rung, ("contract", "--by", by))
                          for n in ns])
    slots.append([_on(Group("builtin-a4", 3), 0, ("augment",))
                  + _on(Group("triangle", 4), 1, ("augment",), ("covariant",))
                  + _on(Group("triangle", 5), 2, ("augment",), ("covariant",))])
    slots.append([[Job(("corpus", "verify", "--json"), 1)]])
    slots.append([[Job(("corpus", "verify", "--case", case), 0)]
                  for case in ("a4-truncated-tetrahedron", "amalgam-ball", "k44")])
    # separation trials on every face pair; D_n and C_n x C_2 both give
    # the n-prism
    trial = ("lib", "sepcycle", "{grp}")
    for n in (6, 7):
        slots.append([[Job(trial, 0, Group(kind, n))]
                      for kind in ("dihedral", "cn2")])
    slots.append([[Job(trial, 1, Group("triangle", 4))]])
    slots.append([[Job(("lib", "sepcycle-ball", "z-cross-z", "3"), 0)]])
    return slots


PLANS = {"finite-ladder": _finite_ladder, "ball-ends": _ball_ends,
         "search-small": _search_small}


RELATOR_ORDERS = tuple(itertools.permutations(range(3)))


def generate(workload: str, seed: int) -> list[Job]:
    """The job list of one pass: the same workload and seed give the same
    jobs, relator orders and job order."""
    rng = random.Random(f"{workload}:{seed}")
    jobs = []
    orders: dict[Group, tuple[int, ...]] = {}  # one presentation per group
    for slot in PLANS[workload]():
        for job in rng.choice(slot):
            if _generated(job):
                if job.group not in orders:
                    orders[job.group] = rng.choice(RELATOR_ORDERS)
                job = replace(job, relator_order=orders[job.group])
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


def universe(workload: str) -> list[Job]:
    """Every job any seed can generate, once each."""
    seen: dict[str, Job] = {}
    for slot in PLANS[workload]():
        for variant in slot:
            for job in variant:
                for order in RELATOR_ORDERS if _generated(job) else (None,):
                    job = replace(job, relator_order=order)
                    seen.setdefault(job.key, job)
    return list(seen.values())


def _generated(job: Job) -> bool:
    return job.group is not None and job.group.kind != "builtin-a4"
