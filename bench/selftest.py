"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

For each workload it runs the first job at DEFAULT_SEED twice through the
same path the benchmark uses (worker.run_job): once against the recorded
reference, where it must pass, and once with that job's reference fingerprint
corrupted, where it must be counted as failed.  Exits 0 when every check
behaves, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)
from worker import Tally, run_job  # noqa: E402


def main() -> int:
    ok = True
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".bench_out")
    try:
        for name in workloads.NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED, workdir)
            job = workload.jobs[0]
            tally = Tally()
            tally.add(job, run_job(workload, job)[1])
            workload.reference[job.key] = "corrupted " + workload.reference[job.key]
            tally.add(job, run_job(workload, job)[1])
            passed = tally.attempted == 2 and tally.failed == 1 and "reference" in tally.problems[0]
            ok &= passed
            print(f"{name}: {'ok' if passed else 'BROKEN'}: intact reference passes, corrupted one fails"
                  f" ({tally.failed} of {tally.attempted} failed)")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
