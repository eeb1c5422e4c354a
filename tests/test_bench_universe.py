"""Every job the benchmark can generate, replayed in-process: each must
pass the benchmark's oracle and print the stdout whose digest
``bench/digests.json`` records, so a change to pcl's output shows here
and not only when the benchmark runs.  Reads ``bench/`` and writes
nothing there."""

import json
import sys
from pathlib import Path

import pytest

_BENCH = Path(__file__).resolve().parents[1] / "bench"
sys.path.insert(0, str(_BENCH))

import oracle  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from run import digest  # noqa: E402

_DIGESTS = json.loads((_BENCH / "digests.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_universe_passes_oracle_and_matches_digests(name, tmp_path):
    jobs = workloads.universe(name)
    argvs = runner.write_inputs(jobs, tmp_path)
    outcomes = [runner.run_job(argvs[job]) for job in jobs]
    bad = [f"{job.key}: {out.error or reason}"
           for job, out, reason in zip(jobs, outcomes,
                                       oracle.verify(jobs, outcomes))
           if out.error or reason]
    bad += [f"{job.key}: digest {digest(out.code, out.stdout)}"
            for job, out in zip(jobs, outcomes)
            if digest(out.code, out.stdout) != _DIGESTS[job.key]]
    assert jobs and not bad, "\n".join(bad[:20])
