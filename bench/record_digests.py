#!/usr/bin/env python3
"""Record the stdout digest of every job any seed can generate.

Run from the root of a pcl checkout:

    python3 bench/record_digests.py

Every job of every workload's universe runs once, and every output must
pass the oracle before the digests are written to bench/digests.json.
Re-record only when a change to pcl's output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import runner  # noqa: E402
import workloads  # noqa: E402
from run import digest  # noqa: E402


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    workdir = root / ".bench_work" / "record"
    digests, bad = {}, 0
    try:
        for name in workloads.WORKLOADS:
            jobs = workloads.universe(name)
            argvs = runner.write_inputs(jobs, workdir)
            outcomes = [runner.run_job(argvs[job]) for job in jobs]
            for job, out, reason in zip(jobs, outcomes,
                                        oracle.verify(jobs, outcomes)):
                reason = out.error or reason
                if reason is not None:
                    print(f"{job.key}: {reason}", file=sys.stderr)
                    bad += 1
                digests[job.key] = digest(out.code, out.stdout)
            print(f"{name}: {len(jobs)} jobs", file=sys.stderr)
    finally:
        shutil.rmtree(root / ".bench_work", ignore_errors=True)
    if bad:
        print(f"{bad} jobs failed; digests not written", file=sys.stderr)
        return 1
    (HERE / "digests.json").write_text(
        json.dumps(digests, sort_keys=True, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
