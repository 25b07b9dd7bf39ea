"""The benchmark's seed-1 job cycles give the outputs recorded in bench/reference.json.

Each job of the certify-mix, scan-cli and filter-climb cycles runs once, untimed,
and its output must pass the workload's own checks, which at the default seed
include the reference fingerprint.  This catches a change to what certify,
scan or the filtering engine compute without running the benchmark.  The test
only reads bench/.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

WORKLOADS_PATH = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("bench_workloads", WORKLOADS_PATH)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up by name
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", [pytest.param("certify-mix", marks=pytest.mark.skylakex_bytes),
                                  pytest.param("scan-cli", marks=pytest.mark.skylakex_bytes), "filter-climb"])
def test_seed_1_cycle_matches_reference(workloads, name, tmp_path):
    workload = workloads.build(name, workloads.DEFAULT_SEED, str(tmp_path))
    assert workload.reference is not None
    failures = {}
    for job in workload.jobs:
        problems = workload.problems(job, job.call())
        if problems:
            failures[job.key] = problems
    assert failures == {}
