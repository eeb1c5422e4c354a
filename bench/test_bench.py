"""Self-tests of the benchmark: `python3 -m pytest bench` from the repo root."""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import runner  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Group, Job  # noqa: E402


def _inputs(workload: str, seed: int) -> list:
    return [(job.argv, job.grp_text(), job.rung)
            for job in workloads.generate(workload, seed)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    assert _inputs(workload, 7) == _inputs(workload, 7)
    assert _inputs(workload, 7) != _inputs(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_generated_job_has_a_recorded_digest(workload):
    digests = json.loads((HERE / "digests.json").read_text())
    for seed in range(40):
        jobs = workloads.generate(workload, seed)
        assert len(jobs) >= 20
        assert all(job.key in digests for job in jobs)


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()


# -- the oracle against the README's worked examples ------------------------


def _pcl(argv: list[str]) -> runner.Outcome:
    out = runner.run_job(argv)
    assert out.error is None
    return out


A4 = Group("builtin-a4", 3)
README_EXAMPLES = [
    Job(("cutspace", "a4"), 0, A4),  # rank 11 = |V| - 1
    Job(("covariant", "a4"), 0, A4),
    Job(("embed", "a4", "--search-consistent"), 0, A4),  # {"3": 4, "6": 4}
    Job(("build", "--family", "z-cross-z", "--ball", "3"), 0),
    Job(("build", "--amalgam", "--ball", "3"), 0),  # interior degree 5
    Job(("faces", "--family", "z-cross-z", "--ball", "3"), 0),
    Job(("ends", "--family", "z-cross-z3", "-r", "2", "-R", "6"), 0),  # "2"
    Job(("corpus", "verify", "--json"), 0),
    Job(("corpus", "verify", "--case", "prism"), 0),
]


@pytest.mark.parametrize("job", README_EXAMPLES, ids=lambda j: j.key)
def test_oracle_accepts_readme_examples(job):
    out = _pcl(list(job.argv))
    assert oracle.check(job, out.code, out.stdout) is None


def test_oracle_rejects_wrong_verdicts():
    cut = Job(("cutspace", "a4"), 0, A4)
    wrong = json.dumps({"expected": 10, "ok": True, "rank": 10, "schema": "pcl/1"})
    assert oracle.check(cut, 0, wrong) is not None
    ends = Job(("ends", "--family", "z-cross-z3", "-r", "2", "-R", "6"), 0)
    out = _pcl(list(ends.argv))
    assert oracle.check(ends, out.code, out.stdout.replace('"2"', '"1"')) is not None
    assert oracle.check(ends, 1, out.stdout) is not None


def test_oracle_checks_enumeration_orientation_and_witness():
    g = Group("cn2", 4)  # z4xz2 of the README, as a presentation
    jobs = [Job((cmd, "{grp}") + extra, 0, g, (0, 1, 2)) for cmd, extra in
            (("enumerate", ()), ("orient", ()), ("embed", ("--gens", "a,a*b")))]
    workdir = ROOT / ".bench_work" / "test"
    try:
        argvs = runner.write_inputs(jobs, workdir)
        outcomes = [_pcl(argvs[j]) for j in jobs]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    assert oracle.verify(jobs, outcomes) == [None, None, None]
    # the README's z4xz2: (0,1) = b reverses, (2,0) = a^2 preserves
    orient = json.loads(outcomes[1].stdout)["orientation"]
    assert (orient["b"], orient["a^2"]) == ("reversing", "preserving")
    flipped = outcomes[1].stdout.replace('"b": "reversing"', '"b": "preserving"')
    assert oracle.check(jobs[1], 0, flipped) is not None


def test_witness_checker():
    k5 = {v: {w for w in range(5) if w != v} for v in range(5)}
    paths = [[a, b] for a in range(5) for b in range(a + 1, 5)]
    assert oracle.verify_witness(k5, "K5", list(range(5)), paths)
    assert not oracle.verify_witness(k5, "K5", list(range(5)), paths[:-1])
    k33 = {v: ({3, 4, 5} if v < 3 else {0, 1, 2}) for v in range(6)}
    paths = [[a, b] for a in range(3) for b in range(3, 6)]
    assert oracle.verify_witness(k33, "K3,3", list(range(6)), paths)
    assert not oracle.verify_witness(k33, "K5", list(range(6)), paths)


def test_ball_closed_forms():
    for radius in (1, 2, 5):
        free = Job(("build", "--family", "free", "--ball", str(radius)), 0)
        assert oracle._ball_shape(free) == (2 * 3 ** radius - 1, 2 * 3 ** radius - 2)
        grid = oracle.ball_normal_forms("z-cross-z", radius)
        assert len(grid) == 2 * radius ** 2 + 2 * radius + 1


# -- tracer arithmetic --------------------------------------------------------


def _span(name, start, end, parent):
    return tracing.Span(name, start, end, parent, 0)


def test_self_time_on_a_synthetic_span_tree():
    spans = [
        _span("cli", 0.0, 10.0, -1),
        _span("a", 1.0, 4.0, 0),
        _span("b", 5.0, 9.0, 0),
        _span("c", 2.0, 3.0, 1),
        _span("a", 6.0, 7.0, 2),  # same name nested under b
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 3.0, 1.0, 1.0])
    totals = tracing.layer_totals(spans)
    assert totals["a"]["s"] == pytest.approx(4.0)
    assert totals["a"]["calls"] == 2
    nested = [_span("x", 0.0, 4.0, -1), _span("x", 1.0, 3.0, 0)]
    assert tracing.layer_totals(nested)["x"]["s"] == pytest.approx(4.0)


def test_ladder_exponent_recovers_a_power_law():
    points = [(n, 1e-6 * n ** 2) for n in (10, 20, 40, 80) for _ in range(3)]
    assert tracing.ladder_exponent(points) == pytest.approx(2.0)
    assert tracing.ladder_exponent([(10, 1.0)]) == 0.0


def test_tracer_records_layers_and_restores_pcl():
    import pcl.cyclecut
    original = pcl.cyclecut.star_generation_check
    tr = tracing.Tracer()
    tr.install()
    try:
        out = runner.run_job(["cutspace", "a4"], tr)
    finally:
        tr.uninstall()
    assert pcl.cyclecut.star_generation_check is original
    assert out.stdout == _pcl(["cutspace", "a4"]).stdout
    names = {s.name for s in tr.spans}
    assert {"cli", "groups.coset_enumerate", "cayley.build_cayley",
            "cyclecut.star_generation_check"} <= names
    assert tr.spans[0].name == "cli" and tr.spans[0].parent == -1
    assert all(s.parent >= 0 for s in tr.spans[1:])


# -- fail_ratio -----------------------------------------------------------------


def test_wrong_expected_digest_counts_as_failure():
    job = Job(("cutspace", "a4"), 0, A4)
    out = _pcl(list(job.argv))
    good = run.Checker({job.key: run.digest(out.code, out.stdout)})
    good.record(job, out, oracle.check(job, out.code, out.stdout))
    assert (good.attempted, good.failed) == (1, 0)
    wrong = run.digest(out.code, out.stdout + " ")
    bad = run.Checker({job.key: wrong})
    bad.record(job, out)
    assert (bad.attempted, bad.failed) == (1, 1)
    assert math.isclose(bad.failed / bad.attempted, 1.0)


def test_end_to_end_figures_from_job_medians():
    jobs = [Job(("a",), 0), Job(("b",), 1), Job(("c",), 1)]
    lat = [[1.0, 3.0, 2.0], [0.5, 0.4, 9.0], [0.1, 0.1, 0.1]]
    fig = run.end_to_end(jobs, lat, [0.3, 0.2, 0.4])
    assert fig["wall_s"] == pytest.approx(2.0 + 0.5 + 0.1)
    assert fig["job_p50_s"] == pytest.approx(0.5)
    assert fig["top_rung_s"] == pytest.approx(0.6)
    assert fig["setup_s"] == pytest.approx(0.3)
    assert run.slowness() > 0
