"""One workload process of the memslab benchmark; run.py starts it.

``--mode setup`` imports memslab, builds the job cycle, runs one untimed
warm-up job and reports the set-up time.  ``--mode run`` then repeats the
cycle back to back for ``--seconds`` (whole cycles) and reports every job's
latency; with ``--trace 1`` it runs every job of the cycle untraced and then
traced, and reports the per-layer metrics instead.  The result is one JSON
object on the last line of stdout.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from spans import MODULES, Tracer

ROOT = Path(__file__).resolve().parent.parent


def run_job(workload, job, tracer=None) -> tuple[int, list[str]]:
    """Run one job; return its duration in ns and its problems (empty on success)."""
    error = None
    if tracer is not None:
        tracer.install()
    start = time.perf_counter_ns()
    try:
        output = job.call()
    except Exception as exc:  # a job that raises is a failed job; the run goes on
        error = exc
    finally:
        elapsed = time.perf_counter_ns() - start
        if tracer is not None:
            tracer.uninstall()
    if error is not None:
        return elapsed, [f"raised {type(error).__name__}: {error}"]
    try:
        return elapsed, workload.problems(job, output)
    except Exception as exc:  # unreadable output fails the check
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, job, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{job.key}: {'; '.join(problems)}")


def run_record(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "MEMS_LAB_THREADS": "unset",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }


def timed_loop(workload, seconds: float, tally: Tally) -> dict:
    durations_ms = []
    start = time.perf_counter()
    while True:
        for job in workload.jobs:
            elapsed, problems = run_job(workload, job)
            tally.add(job, problems)
            durations_ms.append(elapsed / 1e6)
        if time.perf_counter() - start >= seconds:
            return {"durations_ms": durations_ms, "cycle_states": [job.states for job in workload.jobs]}


def traced_loop(workload, seconds: float, tally: Tally, modules: dict, out_path: Path) -> dict:
    from workloads import CLIMB_STEPS, GRID

    tracer = Tracer(modules)
    untraced_ns = traced_ns = cycles = 0
    start = time.perf_counter()
    while True:
        for job in workload.jobs:  # each job untraced, then traced: the overhead compares like with like
            elapsed, problems = run_job(workload, job)
            tally.add(job, problems)
            untraced_ns += elapsed
            tracer.job += 1
            elapsed, problems = run_job(workload, job, tracer)
            tally.add(job, problems)
            traced_ns += elapsed
        cycles += 1
        if time.perf_counter() - start >= seconds:
            break
    tracer.save(out_path)

    spans, binding_calls = tracer.totals()
    units = cycles * sum(workload.units(job) for job in workload.jobs)
    metrics = {}
    for name, total in spans.items():
        metrics[f"{name}.calls"] = (total["calls"] // cycles, "count")
        metrics[f"{name}.self_us_per_unit"] = (total["self_ns"] / 1e3 / units, "us/unit")
    for module in MODULES:
        own = sum(total["self_ns"] for name, total in spans.items() if name.split(".")[0] == module)
        metrics[f"{module}.self_share"] = (own / traced_ns, "share")

    def ratio(num, den):
        return num / den if den else 0.0

    kernel = spans["measures.tangle_of_mat"]["calls"] + spans["measures.tangle_batch"]["calls"]
    kernel_states = spans["measures.tangle_of_mat"]["calls"] + spans["measures.tangle_batch"]["size"]
    climbs = spans["frontier.hill_climb"]["calls"]
    metrics["states.make_density.calls_per_state"] = (ratio(spans["states.make_density"]["calls"], units), "ratio")
    metrics["measures.kernel_states_per_call"] = (ratio(kernel_states, kernel), "ratio")
    metrics["filtering.best_filter.kept_ratio"] = (
        ratio(spans["measures.tangle_batch"]["size"], spans["filtering.best_filter"]["calls"] * GRID ** 4), "ratio")
    metrics["frontier.hill_climb.accept_ratio"] = (
        ratio(binding_calls["frontier.psd_sqrt"] - climbs, climbs * CLIMB_STEPS), "ratio")
    metrics["trace.overhead"] = (traced_ns / untraced_ns - 1.0, "ratio")
    return {"per_layer": metrics, "cycles": cycles, "spans": len(tracer.table()),
            "spans_file": str(out_path.relative_to(ROOT))}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--t0-ns", type=int, required=True, help="time.monotonic_ns() when run.py started this process")
    args = parser.parse_args()
    if "MEMS_LAB_THREADS" in os.environ:
        print("error: MEMS_LAB_THREADS is set; the benchmark measures the default worker count", file=sys.stderr)
        return 2

    import numpy as np

    import memslab
    if Path(memslab.__file__).resolve().parent != ROOT / "src" / "memslab":
        print(f"error: imported memslab from {memslab.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import workloads

    out_dir = ROOT / ".bench_out"
    workdir = out_dir / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = workloads.build(args.workload, args.seed, str(workdir))
        tally = Tally()
        warmup = workload.jobs[0]
        tally.add(warmup, run_job(workload, warmup)[1])
        setup_s = (time.monotonic_ns() - args.t0_ns) / 1e9
        result = {"setup_s": setup_s}
        if args.mode == "run":
            if args.trace:
                modules = {name: importlib.import_module(f"memslab.{name}") for name in MODULES}
                result.update(traced_loop(workload, args.seconds, tally, modules,
                                          out_dir / f"spans-{args.workload}.npz"))
            else:
                result.update(timed_loop(workload, args.seconds, tally))
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            result["record"] = run_record(np)
        result.update(attempted=tally.attempted, failed=tally.failed, problems=tally.problems)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
