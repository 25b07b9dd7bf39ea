"""memslab benchmark: one workload per invocation, every metric on stdout.

    python3 bench/run.py --workload certify-mix --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Each invocation starts fresh worker
processes (bench/worker.py) with MEMS_LAB_THREADS unset, BLAS held to one
thread and only this checkout's src/ on PYTHONPATH: the measured one between
two halves of SETUP_PROBES set-up-only processes.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer metrics of a
separate traced run.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  NOTES.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("certify-mix", "scan-cli", "filter-climb")
SETUP_PROBES = 6   # set-up-only processes; with the measured one, setup_s is a median of 7
DEADLINE_S = 170   # every worker of one invocation ends within this many seconds


class WorkerFailed(RuntimeError):
    pass


def git_revision() -> str:
    """The checked-out commit, read from .git without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown (not a git checkout)"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return f"unknown ({ref})"


def spawn(args, mode: str, deadline: float) -> dict:
    """Run one worker process to completion and return its JSON result."""
    env = {key: value for key, value in os.environ.items() if key != "MEMS_LAB_THREADS"}
    env["PYTHONPATH"] = str(ROOT / "src")
    # On a machine of few shared CPUs a second BLAS thread waits on other tenants; the
    # library's own parallelism (MEMS_LAB_THREADS) is off too, so every layer runs on one thread.
    env["OPENBLAS_NUM_THREADS"] = "1"
    t0_ns = time.monotonic_ns()
    cmd = [sys.executable, str(ROOT / "bench" / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--t0-ns", str(t0_ns)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{mode} worker did not finish within {DEADLINE_S} s") from None
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"{mode} worker exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(main: dict, setups: list[float]) -> dict[str, tuple[float, str, str]]:
    """name -> (value, unit, note) of every end-to-end metric."""
    durations, cycle_states = main["durations_ms"], main["cycle_states"]
    width = len(cycle_states)
    cycles = len(durations) // width
    # The run repeats one cycle of distinct jobs.  A job's latency is the fastest of its
    # repeats: other processes on the machine only ever slow a repeat down.
    latency = [min(durations[j::width]) for j in range(width)]
    note = f"n={width} jobs, each the fastest of {cycles} repeats"
    return {
        "states_per_s": (sum(cycle_states) / (sum(latency) / 1e3), "1/s", note),
        "job_ms.p50": (statistics.median(latency), "ms", note),
        "job_ms.p90": (statistics.quantiles(latency, n=10)[8], "ms", note),
        "peak_rss_mb": (main["peak_rss_mb"], "MB", "measured worker"),
        "setup_s": (statistics.median(setups), "s", f"median of n={len(setups)} processes"),
    }


def declared(kind: str) -> dict[str, str]:
    """name -> unit of the metrics BENCHMARK.json declares under ``kind``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if "MEMS_LAB_THREADS" in os.environ:
        print("error: MEMS_LAB_THREADS is set; unset it, the benchmark measures the default worker count",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    try:
        # half the probes before the measured run and half after, so that their median
        # spans the whole run rather than the few seconds before it
        probes = [] if args.trace else [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES // 2)]
        main_run = spawn(args, "run", deadline)
        if not args.trace:
            probes += [spawn(args, "setup", deadline) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    workers = probes + [main_run]
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    if args.trace:
        metrics = {name: (value, unit, "") for name, (value, unit) in main_run["per_layer"].items()}
        expected = declared("per_layer")
    else:
        metrics = end_to_end(main_run, [w["setup_s"] for w in workers])
        expected = declared("end_to_end")
    if {name: unit for name, (_, unit, _) in metrics.items()} != expected:
        print("error: emitted metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1

    record = dict(main_run["record"], git_revision=git_revision(), workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace)
    if args.trace:
        record.update(traced_cycles=main_run["cycles"], spans=main_run["spans"], spans_file=main_run["spans_file"])
    print("run_record " + json.dumps(record))
    for problem in [p for w in workers for p in w["problems"]]:
        print(f"failed job {problem}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} = {value:.6g} {unit}" + (f"  ({note})" if note else ""))
    print(f"error_rate = {failed / attempted:.6g}  ({failed} of {attempted} jobs failed)")
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit} for name, (value, unit, _) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
