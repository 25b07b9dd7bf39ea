"""Record reference.json: the output fingerprints of every job at DEFAULT_SEED.

    python3 bench/record_reference.py

Run it only when the library's outputs are meant to change; the benchmark
counts a job whose fingerprint differs from reference.json as failed.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402  (needs src/ on the path)


def main() -> int:
    reference = {}
    (ROOT / ".bench_out").mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="reference-", dir=ROOT / ".bench_out")
    try:
        for name in workloads.NAMES:
            workload = workloads.build(name, workloads.DEFAULT_SEED, workdir, reference=False)
            reference[name] = {}
            for job in workload.jobs:
                problems, fingerprint = job.check(job.call())
                if problems:
                    print(f"error: {name} job {job.key}: {'; '.join(problems)}", file=sys.stderr)
                    return 1
                reference[name][job.key] = fingerprint
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
