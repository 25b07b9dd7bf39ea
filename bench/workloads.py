"""The benchmark's workloads: job cycles built from a seed, and output checks.

A workload is a fixed cycle of jobs made from the seed in set-up.  A run
repeats the cycle back to back with one caller (closed loop).  A job is one
public call into memslab (filter-climb: three calls on one start state).
Every output is checked against invariants that hold for any seed, and at
DEFAULT_SEED also against the fingerprints recorded in reference.json.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from memslab import cli, filtering, frontier, measures, sampling, states

DEFAULT_SEED = 1
REFERENCE_PATH = Path(__file__).with_name("reference.json")
TOLERANCE = 1e-9
MASK64 = (1 << 64) - 1

# Every cycle holds at least 100 distinct jobs, so that job_ms.p90 has ten jobs beyond it,
# and its job sizes or kinds put p50 and p90 inside a group of similar jobs, not between two.
# Cycles are kept under a second (jobs of a few ms, few long ones) so that a run repeats
# every job often (see run.py).

# certify-mix: the acceptance-3 parts, sizes below and above one sampling.CHUNK
CERTIFY_RANKS = (1, 2, 3, 4)
CERTIFY_GAMMAS = tuple(i / 10 for i in range(1, 10))
CERTIFY_SIZES = (16, 24, 32, 40, 48, 56, 64, 96)  # every part, each size once
CERTIFY_LARGE = 1040      # above one sampling.CHUNK of 1024 states
CERTIFY_LARGE_STRIDE = 3  # every third part also runs one large job
PERTURB_EPS = 0.05

# scan-cli: the three invocations of the cycle, each with SCAN_SEEDS seeds
SCAN_KINDS = (
    ("ginibre-linear", ["--ensemble", "ginibre", "--metric", "linear"], 40),
    ("perturb-mems", ["--ensemble", "perturb-mems"], 19 * 2),
    ("ginibre-vn", ["--ensemble", "ginibre", "--metric", "vn"], 40),
)
SCAN_SEEDS = 34

# filter-climb: mems(gamma) starts, one per gamma cell of [0, 1]
CLIMB_GAMMAS = 108
GRID = 4
TRAJECTORY_STEPS = 20
CLIMB_STEPS = 40
CLIMB_BAND = 1e-3


def splitmix64(x: int) -> int:
    x = (x + 0x9E3779B97F4A7C15) & MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & MASK64
    return (z ^ (z >> 31)) & MASK64


def job_seed(seed: int, index: int) -> int:
    """The seed handed to job ``index`` of a workload run with ``seed``."""
    return splitmix64((seed & MASK64) ^ splitmix64(index + 1))


def sha256_file(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


@dataclass
class Job:
    key: str        # reference key, unique within the workload
    states: int     # states this job samples (certify, scan) or measures (filter-climb)
    call: Callable[[], Any]
    check: Callable[[Any], tuple[list[str], str]]  # output -> (problems, fingerprint)


@dataclass
class Workload:
    name: str
    unit: str       # what one per-layer unit is: "state" or "job"
    jobs: list[Job]
    reference: dict[str, str] | None

    def units(self, job: Job) -> int:
        return job.states if self.unit == "state" else 1

    def problems(self, job: Job, output: Any) -> list[str]:
        """Everything wrong with ``output``; empty when the job succeeded."""
        problems, fingerprint = job.check(output)
        if self.reference is not None and self.reference.get(job.key) != fingerprint:
            problems.append(f"fingerprint {fingerprint!r} differs from reference {self.reference.get(job.key)!r}")
        return problems


def certify_mix(seed: int) -> list[Job]:
    parts = [(f"ginibre-rank{k}", sampling.GinibreRank(k)) for k in CERTIFY_RANKS] + [
        (f"perturb-mems-{g:.1f}", sampling.PerturbAbout(states.mems(g), PERTURB_EPS)) for g in CERTIFY_GAMMAS]
    pairs = [(parts[i % len(parts)], CERTIFY_SIZES[i % len(CERTIFY_SIZES)])  # coprime lengths: all pairs
             for i in range(len(parts) * len(CERTIFY_SIZES))]
    pairs += [(part, CERTIFY_LARGE) for part in parts[::CERTIFY_LARGE_STRIDE]]
    jobs = []
    for i, ((label, kind), size) in enumerate(pairs):
        spec = sampling.EnsembleSpec(kind, size, job_seed(seed, i))

        def check(report, size=size):
            problems = []
            if report.verdict != "PASS":
                problems.append(f"verdict {report.verdict}")
            if report.samples_total != size:
                problems.append(f"samples_total {report.samples_total} != {size}")
            if not report.max_violation <= TOLERANCE:
                problems.append(f"max_violation {report.max_violation!r} > {TOLERANCE}")
            lines = (f"samples={report.samples_total}", f"max_violation={report.max_violation:.12g}",
                     f"verdict={report.verdict}")
            return problems, " ".join(lines)

        jobs.append(Job(f"{i:03d}-{label}-{size}", size,
                        lambda spec=spec: frontier.certify(spec, TOLERANCE), check))
    return jobs


def _read_csv(path: str) -> tuple[str, list[list[float]]]:
    with open(path, encoding="ascii") as handle:
        header = handle.readline().rstrip("\n")
        return header, [[float(v) for v in line.split(",")] for line in handle]


def scan_cli(seed: int, workdir: str) -> list[Job]:
    out = os.path.join(workdir, "scan.csv")
    envelope = os.path.join(workdir, "scan_envelope.csv")
    jobs = []
    for i in range(len(SCAN_KINDS) * SCAN_SEEDS):
        label, flags, count = SCAN_KINDS[i % len(SCAN_KINDS)]
        argv = ["scan", *flags, "--count", str(count), "--seed", str(job_seed(seed, i)), "--out", out]
        linear = "vn" not in flags

        def check(code, count=count, linear=linear):
            if code != 0:
                return [f"exit code {code}"], ""
            problems = []
            header, points = _read_csv(out)
            env_header, bins = _read_csv(envelope)
            if header != "tangle,mixedness" or env_header != "bin_lo,bin_hi,max_tangle":
                problems.append(f"headers {header!r}, {env_header!r}")
            if len(points) != count:
                problems.append(f"{len(points)} point rows != count {count}")
            for lo, hi, top in bins:
                if not 0.0 <= lo < hi <= 1.0 or not 0.0 <= top <= 1.0 + TOLERANCE:
                    problems.append(f"bin row {(lo, hi, top)} out of range")
                # the envelope falls with mixedness, so it bounds bin [lo, hi) at lo
                elif linear and top > frontier.envelope_tangle(frontier.MixednessMetric.LINEAR, lo) + TOLERANCE:
                    problems.append(f"bin [{lo}, {hi}) max tangle {top!r} above the envelope")
            if points and bins and max(p[0] for p in points) != max(b[2] for b in bins):
                problems.append("largest bin maximum differs from the largest point tangle")
            return problems, f"{sha256_file(out)} {sha256_file(envelope)}"

        jobs.append(Job(f"{i:03d}-{label}", count, lambda argv=argv: cli.run(argv), check))
    return jobs


def _rows_digest(rows) -> str:
    text = "\n".join(",".join(f"{v:.12g}" for v in row) for row in rows)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def filter_climb(seed: int) -> list[Job]:
    jitter = np.random.default_rng(seed & MASK64).random(CLIMB_GAMMAS)
    schedule = [filtering.two_sided_filter(float(k)) for k in filtering.kappa_schedule(TRAJECTORY_STEPS)]
    vn = frontier.MixednessMetric.VON_NEUMANN_NORMALIZED
    jobs = []
    for i in range(CLIMB_GAMMAS):
        gamma = (i + 0.5 + 0.8 * (float(jitter[i]) - 0.5)) / CLIMB_GAMMAS
        start = states.mems(gamma)
        start_tangle = measures.tangle(start)
        start_vn = measures.von_neumann_entropy(start) / frontier.LN4
        rng_seed = job_seed(seed, i)

        def call(start=start, rng_seed=rng_seed):
            winner = filtering.best_filter(start, GRID)
            points = filtering.trajectory(start, schedule)
            witness = frontier.hill_climb(start, vn, CLIMB_STEPS, np.random.default_rng(rng_seed), band=CLIMB_BAND)
            return winner, points, witness

        def check(output, start_tangle=start_tangle, start_vn=start_vn):
            (chosen, outcome), points, witness = output
            problems = []
            if measures.tangle(outcome.state) < start_tangle - TOLERANCE:
                problems.append(f"best_filter tangle {measures.tangle(outcome.state)!r} < start {start_tangle!r}")
            drift = abs(measures.von_neumann_entropy(witness) / frontier.LN4 - start_vn)
            if not drift <= CLIMB_BAND:
                problems.append(f"hill_climb witness left its band by {drift!r}")
            if len(points) != TRAJECTORY_STEPS:
                problems.append(f"trajectory has {len(points)} of {TRAJECTORY_STEPS} points")
            rows = [(p.filter.a0, p.tangle, p.s_linear, p.success_prob) for p in points]
            winner = ",".join(repr(v) for v in (chosen.a0, chosen.a1, chosen.b0, chosen.b1))
            return problems, f"{winner} {_rows_digest(rows)}"

        jobs.append(Job(f"{i:03d}-gamma-cell", GRID ** 4 + TRAJECTORY_STEPS + CLIMB_STEPS, call, check))
    return jobs


NAMES = ("certify-mix", "scan-cli", "filter-climb")


def build(name: str, seed: int, workdir: str, reference: bool = True) -> Workload:
    """The job cycle of workload ``name`` for ``seed``; scan output goes to ``workdir``.

    At DEFAULT_SEED the outputs are also compared with reference.json, unless
    ``reference`` is false (when the reference is being recorded).
    """
    if name == "certify-mix":
        jobs, unit = certify_mix(seed), "state"
    elif name == "scan-cli":
        jobs, unit = scan_cli(seed, workdir), "state"
    elif name == "filter-climb":
        jobs, unit = filter_climb(seed), "job"
    else:
        raise ValueError(f"unknown workload {name!r}")
    fingerprints = None
    if reference and seed == DEFAULT_SEED:
        fingerprints = json.loads(REFERENCE_PATH.read_text())[name]
    return Workload(name, unit, jobs, fingerprints)
