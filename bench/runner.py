"""Runs one job in-process and captures what a CLI user would see.

A CLI job calls `pcl.cli.main(argv, standalone_mode=False)` with stdout
captured, so click dispatch and the JSON serialization are inside the
timed region.  A library trial (argv starting with "lib") calls pcl's
library functions and prints its results as JSON in the same way.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

from workloads import Job


@dataclass
class Outcome:
    code: int
    stdout: str
    seconds: float
    error: str | None = None  # exception type and message, if one escaped


def write_inputs(jobs: list[Job], workdir: Path) -> dict[Job, list[str]]:
    """Write every generated presentation once; return each job's argv."""
    workdir.mkdir(parents=True, exist_ok=True)
    argvs = {}
    for job in jobs:
        text = job.grp_text()
        path = ""
        if text is not None:
            order = "".join(map(str, job.relator_order or ()))
            path = str(workdir / f"{job.group.label}-{order}.grp")
            Path(path).write_text(text)
        argvs[job] = [path if a == "{grp}" else a for a in job.argv]
    return argvs


# click caches a wrapper per stdout object in a WeakKeyDictionary whose
# value refers back to a StringIO key, so a fresh buffer per job would
# never be freed; every job reuses this one
_STDOUT = io.StringIO()


def run_job(argv: list[str], tracer=None) -> Outcome:
    """Run one job; with a tracer, a root span named after the job's entry
    ("cli" or "lib") brackets the timed call."""
    from pcl.cli import main
    trial = _TRIALS[argv[1]] if argv[0] == "lib" else None
    buf = _STDOUT
    buf.seek(0)
    buf.truncate()
    code, error = 0, None
    with contextlib.redirect_stdout(buf):
        root = tracer.open("lib" if trial else "cli") if tracer else None
        t0 = time.perf_counter()
        try:
            if trial is not None:
                trial(*argv[2:])
            else:
                main(argv, standalone_mode=False)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # a job that raises is a failed job
            code, error = 1, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if tracer:
            tracer.close(root)
    return Outcome(code, buf.getvalue(), seconds, error)


# -- library trials ---------------------------------------------------------


def _print(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _separation_trials(graph) -> None:
    """Separate every pair of faces of a plane graph and check the cycle
    with both crossing-parity implementations."""
    from pcl.cyclecut import (crossing_parity, crossing_parity_floodfill,
                              separating_cycle_between_faces)
    from pcl.embedding import planarity_test
    emb = planarity_test(graph)
    trials = []
    nf = len(emb.faces)
    for f1 in range(nf):
        for f2 in range(f1 + 1, nf):
            vec = separating_cycle_between_faces(emb, f1, f2)
            edges = [e for e in range(graph.n_edges) if vec >> e & 1]
            trials.append([f1, f2, edges,
                           crossing_parity(emb, vec, f1, f2),
                           crossing_parity_floodfill(emb, vec, f1, f2)])
    _print({"vertices": graph.n_vertices,
            "edges": [list(graph.edge_ends(e)) for e in range(graph.n_edges)],
            "faces": [list(f.darts) for f in emb.faces],
            "trials": trials})


def _sepcycle(grp_path: str) -> None:
    from pcl.cayley import build_cayley
    from pcl.groups import coset_enumerate
    from pcl.presentation import parse_presentation
    p = parse_presentation(Path(grp_path).read_text())
    _separation_trials(build_cayley(coset_enumerate(p, 4096), list(p.generators)))


def _sepcycle_ball(family: str, radius: str) -> None:
    from pcl.cayley import InfiniteFamilySpec, build_ball
    _separation_trials(build_ball(InfiniteFamilySpec(family), int(radius)))


_TRIALS = {"sepcycle": _sepcycle, "sepcycle-ball": _sepcycle_ball}
