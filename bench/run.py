#!/usr/bin/env python3
"""pcl benchmark: time to a certified CLI verdict, end to end and per layer.

Run from the root of a pcl checkout (the program is imported from `src`):

    python3 bench/run.py --workload finite-ladder --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run is one fresh, single-threaded process.  It generates the
workload's jobs from the seed, measures set-up time in fresh interpreters,
then repeats timed passes for `--seconds`.  Every verdict of the first
pass is checked by the independent oracle, and every job's exit code and
stdout digest in every pass against the recorded digests.  With
`--trace 1` untraced and traced passes alternate, and the per-layer
metrics come from the traced ones.  The last stdout line is the result
object; the line before it holds provenance, sample counts and the full
per-layer table.  See bench/README.md for the metrics and workloads.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import runner  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 11
MIN_PASSES = 3
# On a shared virtual machine the CPU's speed can drift by a quarter from
# one second, and one run, to the next.  A fixed pure-Python kernel, timed
# KERNEL_RUNS times before and after every job, measures the speed around
# the job, and each job latency is reported in reference seconds: raw
# seconds * KERNEL_REF_S / (mean of the median kernel times before and
# after the job).
KERNEL_RUNS = 5
KERNEL_REF_S = 0.0013
WARMUP_ARGV = ["corpus", "verify", "--case", "prism"]
SETUP_CODE = (
    "import contextlib, io, sys\n"
    "sys.path.insert(0, 'src')\n"
    "from pcl.cli import main\n"
    "buf = io.StringIO()\n"
    "with contextlib.redirect_stdout(buf):\n"
    f"    main({WARMUP_ARGV!r}, standalone_mode=False)\n"
    "sys.exit(0 if buf.getvalue() == 'PASS  prism\\n' else 3)\n")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s",
                    "top_rung_s": "s", "peak_rss_mb": "MB"}

# per-layer metrics reported in the result line (the detail line has all)
SELF_TIMED = [
    "cli", "groups.coset_enumerate", "groups.a4_model", "groups.z4xz2_model",
    "cayley.build_cayley", "cayley.build_ball", "cayley.build_amalgam_ball",
    "cayley.interior_degrees", "graph.MultiGraph.degree",
    "embedding.planarity_test", "embedding.trace_faces",
    "embedding.search_consistent_embeddings", "covariance.whitney_unique",
    "covariance.orientation_table", "covariance.orientation_class",
    "covariance.is_covariant", "actions.babai_contract",
    "augment.ladder_augment", "augment.vertex_connectivity",
    "cyclecut.separating_cycle_between_faces", "ends.classify_ends",
    "corpus.verify"]
ERROR_COUNTED = [
    "presentation.parse_presentation", "groups.coset_enumerate",
    "cayley.build_cayley", "embedding.trace_faces", "embedding.planarity_test",
    "embedding.search_consistent_embeddings", "covariance.whitney_unique",
    "actions.babai_contract", "augment.ladder_augment",
    "cyclecut.separating_cycle_between_faces", "ends.classify_ends"]
EXPONENTS = {  # metric -> span whose work is the size
    "groups.coset_enumerate.exp": "groups.coset_enumerate",
    "covariance.whitney_unique.exp": "covariance.whitney_unique",
    "cayley.interior_degrees.exp": "cayley.interior_degrees",
    "embedding.planarity_test.exp": "embedding.planarity_test",
}
WORK_UNITS = {
    "groups.elements": "count", "cayley.darts": "count",
    "embedding.trace_faces.darts": "count",
    "embedding.search.candidates": "count",
    "embedding.search.hit_ratio": "ratio", "cli.stdout_bytes": "bytes",
}


def traced_names() -> list[str]:
    names = ["cli"]
    for layer, fns in tracing.TARGETS.items():
        names += [f"{layer}.{fn}" for fn in fns]
    return names + [f"nx.{fn}" for fn in tracing.NX_TARGETS]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric of the result line, with its unit."""
    units = {}
    for name in traced_names():
        units[f"{name}.s"] = "s"
        if name in SELF_TIMED:
            units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        if name in ERROR_COUNTED:
            units[f"{name}.errors"] = "count"
    units.update(WORK_UNITS)
    units.update({m: "exponent" for m in EXPONENTS})
    units["trace_overhead_ratio"] = "ratio"
    return units


def kernel_seconds() -> float:
    """Time of one run of the speed kernel: dict, tuple and str work like
    pcl's, independent of pcl."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, int], int] = {}
    for i in range(4000):
        key = (i % 97, i & 7)
        counts[key] = counts.get(key, 0) + len(str(i))
    sorted(counts)
    return time.perf_counter() - t0


def slowness() -> float:
    """How much slower than the reference the machine runs right now."""
    kernel = statistics.median(kernel_seconds() for _ in range(KERNEL_RUNS))
    return kernel / KERNEL_REF_S


# -- set-up and provenance ------------------------------------------------------


def measure_setup(root: Path) -> tuple[list[float], int]:
    """Seconds from launching a fresh interpreter until pcl.cli is imported
    and the warm-up job is done, SETUP_RUNS times; and the number of failed
    launches.  These stay raw seconds: the kernel does not track the cost
    of starting a process and importing from disk."""
    times, failed = [], 0
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=root,
                              stdout=subprocess.DEVNULL,
                              stderr=subprocess.DEVNULL, timeout=120)
        times.append(time.perf_counter() - t0)
        failed += proc.returncode != 0
    return times, failed


def _git_commit(root: Path) -> str:
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(root: Path, args, jobs_per_pass: int) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "jobs_per_pass": jobs_per_pass,
        "nproc": len(os.sched_getaffinity(0)), "cpu": _cpu_model(),
        "python": platform.python_version(),
        "networkx": metadata.version("networkx"),
        "click": metadata.version("click"), "commit": _git_commit(root),
    }


# -- passes -----------------------------------------------------------------------


def digest(code: int, stdout: str) -> dict:
    return {"code": code, "sha256": hashlib.sha256(stdout.encode()).hexdigest()}


class Checker:
    """Counts attempted and failed jobs and keeps the first reasons."""

    def __init__(self, digests: dict):
        self.digests = digests
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def record(self, job, outcome, verdict: str | None = None) -> None:
        """Check one outcome against the recorded digest; `verdict` is the
        oracle's reason for rejecting it, if the oracle saw it."""
        self.attempted += 1
        want = self.digests.get(job.key)
        if outcome.error is not None:
            reason = outcome.error
        elif want is None:
            reason = "no recorded digest"
        elif digest(outcome.code, outcome.stdout) != want:
            reason = "stdout or exit code differs from the recorded digest"
        else:
            reason = verdict
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 10:
                self.reasons.append(f"{job.key}: {reason}")


def run_pass(jobs, argvs, tracer=None):
    """Run every job once; return the pass's raw wall time (kernel runs
    left out), the outcomes, and the machine's slowness around each job."""
    gc.collect()
    outcomes, around = [], [slowness()]
    wall = 0.0
    for i, job in enumerate(jobs):
        if tracer is not None:
            tracer.job = i
        t0 = time.perf_counter()
        outcomes.append(runner.run_job(argvs[job], tracer))
        wall += time.perf_counter() - t0
        around.append(slowness())
    return wall, outcomes, [(a + b) / 2 for a, b in zip(around, around[1:])]


def layer_figures(spans, jobs, outcomes) -> dict[str, float]:
    """Per-layer figures of one traced pass."""
    out: dict[str, float] = {}
    for name, t in tracing.layer_totals(spans).items():
        for stat, value in t.items():
            out[f"{name}.{stat}"] = value
    work: dict[str, list] = {}
    for s in spans:
        if s.work is not None:
            work.setdefault(s.name, []).append(s.work)
    search = work.get("embedding.search_consistent_embeddings", [])
    candidates = sum(c for c, _ in search)
    out["groups.elements"] = sum(work.get("groups.coset_enumerate", []))
    out["cayley.darts"] = (sum(work.get("cayley.build_cayley", []))
                           + sum(work.get("cayley.build_ball", [])))
    out["embedding.trace_faces.darts"] = sum(work.get("embedding.trace_faces", []))
    out["embedding.search.candidates"] = candidates
    out["embedding.search.hit_ratio"] = (sum(h for _, h in search) / candidates
                                         if candidates else 0.0)
    out["cli.stdout_bytes"] = sum(len(o.stdout.encode())
                                  for j, o in zip(jobs, outcomes)
                                  if j.argv[0] != "lib")
    return out


def run_workload(args, root: Path) -> int:
    jobs = workloads.generate(args.workload, args.seed)
    digests = json.loads((HERE / "digests.json").read_text())
    checker = Checker(digests)

    setup_times: list[float] = []
    if not args.trace:
        setup_times, setup_failed = measure_setup(root)
        checker.attempted += SETUP_RUNS
        checker.failed += setup_failed
        if setup_failed:
            checker.reasons.append(f"set-up job failed {setup_failed} times")

    sys.path.insert(0, str(root / "src"))
    import pcl.cli  # noqa: F401  (the timed passes start warm)
    if not Path(pcl.cli.__file__).resolve().is_relative_to(root / "src"):
        print(f"pcl imported from {pcl.cli.__file__}, not from {root}/src",
              file=sys.stderr)
        return 2

    workdir = root / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    raw: list[list[float]] = [[] for _ in jobs]  # seconds per job and pass
    ref: list[list[float]] = [[] for _ in jobs]  # the same, reference seconds
    ref_traced: list[list[float]] = [[] for _ in jobs]
    walls, layers, spans, traced_slow = [], [], [], []
    tracer = tracing.Tracer() if args.trace else None
    try:
        argvs = runner.write_inputs(jobs, workdir)
        t_start = time.perf_counter()
        while True:
            wall, outcomes, slow = run_pass(jobs, argvs)
            walls.append(wall)
            # the oracle sees the first pass; later passes must match digests
            verdicts = (oracle.verify(jobs, outcomes) if len(walls) == 1
                        else [None] * len(jobs))
            for i, (job, outcome) in enumerate(zip(jobs, outcomes)):
                checker.record(job, outcome, verdicts[i])
                raw[i].append(outcome.seconds)
                ref[i].append(outcome.seconds / slow[i])
            if tracer is not None:
                tracer.spans.clear()
                tracer.install()
                try:
                    _, traced, slow = run_pass(jobs, argvs, tracer)
                finally:
                    tracer.uninstall()
                traced_slow += slow
                for i, outcome in enumerate(traced):
                    ref_traced[i].append(outcome.seconds / slow[i])
                layers.append(layer_figures(tracer.spans, jobs, traced))
                spans += [(len(layers), s.name, s.start, s.end, s.parent, s.job,
                           s.work) for s in tracer.spans]
                for job, plain, outcome in zip(jobs, outcomes, traced):
                    same = (plain.code, plain.stdout) == (outcome.code, outcome.stdout)
                    checker.record(job, outcome,
                                   None if same else "traced stdout differs")
            elapsed = time.perf_counter() - t_start
            if (len(walls) >= MIN_PASSES
                    and elapsed * (len(walls) + 1) / len(walls) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    top = max(job.rung for job in jobs)
    samples = {"passes": len(walls), "jobs_per_pass": len(jobs),
               "top_rung_jobs_per_pass": sum(j.rung == top for j in jobs)}
    detail = {"provenance": provenance(root, args, len(jobs)), "samples": samples,
              "fail_ratio": checker.failed / checker.attempted,
              "failures": checker.reasons, "kernel_ref_s": KERNEL_REF_S}
    if args.trace:
        units = per_layer_units()
        values = {name: statistics.median(f.get(name, 0) for f in layers)
                  for name in units}
        values.update({metric: tracing.ladder_exponent(
            [(s[6], s[3] - s[2]) for s in spans if s[1] == span])
            for metric, span in EXPONENTS.items()})
        values["trace_overhead_ratio"] = (
            end_to_end(jobs, ref_traced, [0.0])["wall_s"]
            / end_to_end(jobs, ref, [0.0])["wall_s"])
        samples["traced_passes"] = len(layers)
        detail["raw"] = values
        detail["per_layer_all"] = {
            k: statistics.median(f.get(k, 0) for f in layers)
            for k in sorted({k for f in layers for k in f})}
        detail["spans_file"] = write_spans(root, args, spans)
        # per-layer seconds are scaled by the traced passes' median slowness
        slow = statistics.median(traced_slow)
        metrics = {k: {"value": values[k] / slow if u == "s" else values[k],
                       "unit": u} for k, u in units.items()}
    else:
        samples["setup_runs"] = SETUP_RUNS
        detail["raw"] = end_to_end(jobs, raw, setup_times)
        detail["job_median_raw_s"] = {j.key: statistics.median(r)
                                      for j, r in zip(jobs, raw)}
        values = end_to_end(jobs, ref, setup_times)
        metrics = {k: {"value": values[k], "unit": u}
                   for k, u in END_TO_END_UNITS.items()}
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted, "failed": checker.failed,
                      "metrics": metrics}))
    return 0


def end_to_end(jobs, latencies: list[list[float]], setup: list[float]) -> dict:
    """End-to-end figures from each job's latencies over the passes.  Each
    job's median damps slowdowns of the machine that last a few seconds;
    a pass is the sum of its jobs' medians."""
    top = max(job.rung for job in jobs)
    job_s = [statistics.median(lat) for lat in latencies]
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(job_s),
        "job_p50_s": statistics.median(job_s),
        "top_rung_s": sum(t for j, t in zip(jobs, job_s) if j.rung == top),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def write_spans(root: Path, args, spans) -> str:
    """Write the traced passes' spans as JSON; return the file's path
    relative to the checkout."""
    path = Path(".bench_trace") / f"{args.workload}-{args.seed}.json"
    (root / path).parent.mkdir(exist_ok=True)
    (root / path).write_text(json.dumps({
        "columns": ["pass", "name", "start", "end", "parent", "job", "work"],
        "spans": spans}))
    return str(path)


# -- all workloads --------------------------------------------------------------


def run_all(args, root: Path) -> int:
    """Run every workload in its own process and print one table."""
    results = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=root, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(f"{name}: run failed\n{proc.stderr}", file=sys.stderr)
            return 1
        detail, result = json.loads(lines[-2]), json.loads(lines[-1])
        results[name] = {"detail": detail, "result": result}
        s = detail["samples"]
        print(f"== {name}: {s['jobs_per_pass']} jobs per pass, "
              f"{s['passes']} timed passes")
        for metric, m in result["metrics"].items():
            print(f"  {metric:48s} {m['value']:14.6g} {m['unit']:9s}"
                  f" n={_sample_count(metric, s)}")
        print(f"  {'fail_ratio':48s} {detail['fail_ratio']:14.6g} {'ratio':9s}"
              f" n={result['attempted']} jobs attempted")
    print(json.dumps(results, sort_keys=True))
    return 0


def _sample_count(metric: str, samples: dict) -> str:
    if metric == "setup_s":
        return f"{samples.get('setup_runs', 0)} launches"
    if metric in ("wall_s", "job_p50_s"):
        return f"{samples['jobs_per_pass']} jobs x {samples['passes']} passes"
    if metric == "top_rung_s":
        return f"{samples['top_rung_jobs_per_pass']} jobs x {samples['passes']} passes"
    if metric == "peak_rss_mb":
        return "1 process"
    if "traced_passes" in samples:
        return f"{samples['traced_passes']} traced passes"
    return f"{samples['passes']} passes"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=list(workloads.WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "pcl" / "cli.py").is_file():
        print("run from the root of a pcl checkout: src/pcl/cli.py not found",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args, root)
    return run_workload(args, root)


if __name__ == "__main__":
    sys.exit(main())
