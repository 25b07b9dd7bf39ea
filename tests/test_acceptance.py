"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; the whole module is also part of the default suite.
"""

import math
import time

import numpy as np

from conftest import random_local_unitary, sampled_states
from memslab import cli
from memslab.frontier import (
    LN4,
    MixednessMetric,
    certify,
    envelope_tangle,
    hill_climb,
    mems_curve,
    werner_curve,
)
from memslab.filtering import kappa_schedule, trajectory, two_sided_filter
from memslab.measures import (
    MeasureReport,
    concurrence,
    linear_entropy,
    measure_report,
    negativity,
    tangle,
    von_neumann_entropy,
)
from memslab.sampling import EnsembleSpec, GinibreRank, PerturbAbout
from memslab.states import make_density, mems, read_matrix_file, werner, write_matrix_file

LINEAR = MixednessMetric.LINEAR


def report(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, detail


def werner_tangle(gamma: float) -> float:
    return max(0.0, (3 * gamma - 1) / 2) ** 2


def test_criterion_1_curve_endpoints():
    start = time.perf_counter()
    worst = 0.0

    points = list(mems_curve(101))
    _, tau, s = points[-1]
    worst = max(worst, abs(tau - 1.0), abs(s))
    _, tau, s = points[0]
    worst = max(worst, abs(tau), abs(s - 8 / 9))

    points = list(werner_curve(101))
    _, tau, s = points[-1]
    worst = max(worst, abs(tau - 1.0), abs(s))
    # the Werner family hits (0, 8/9) at gamma = 1/3 (between grid points)
    state = werner(1 / 3)
    worst = max(worst, abs(tangle(state)), abs(linear_entropy(state) - 8 / 9))

    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(1, ok, f"endpoint deviation {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_2_closed_form_regression():
    start = time.perf_counter()
    worst = 0.0
    for i in range(101):
        gamma = i / 100
        state = mems(gamma)
        g = gamma / 2 if gamma >= 2 / 3 else 1 / 3
        expected_sl = (2 / 3) * (4 * g * (2 - 3 * g) - gamma * gamma)
        worst = max(worst, abs(tangle(state) - gamma * gamma),
                    abs(linear_entropy(state) - expected_sl))

        state = werner(gamma)
        worst = max(worst, abs(tangle(state) - werner_tangle(gamma)),
                    abs(linear_entropy(state) - (1 - gamma * gamma)))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    report(2, ok, f"closed-form deviation {worst:.2e} (tol 1e-12), {elapsed:.2f}s (< 1s)")


def test_criterion_3_optimality_certification():
    start = time.perf_counter()
    worst = -math.inf
    for rank in (1, 2, 3, 4):
        part = certify(EnsembleSpec(GinibreRank(rank), 25_000, seed=100 + rank), tolerance=1e-9)
        worst = max(worst, part.max_violation)
    for i in range(1, 10):
        gamma = i / 10
        spec = EnsembleSpec(PerturbAbout(mems(gamma), 0.05), 10_000, seed=200 + i)
        worst = max(worst, certify(spec, tolerance=1e-9).max_violation)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and elapsed < 60.0
    report(3, ok, f"max violation {worst:.3e} over 190000 samples (tol 1e-9), {elapsed:.1f}s (< 60s)")


def test_criterion_4_dominance_over_werner():
    gaps = []
    for k in range(1, 1001):
        gamma_w = 1 / 3 + (1 - 1 / 3) * k / 1001
        gaps.append(envelope_tangle(LINEAR, 1 - gamma_w**2) - werner_tangle(gamma_w))
    gaps = np.array(gaps)
    interior = gaps[50:-50]  # away from the meeting points
    ok = bool(np.all(gaps > 0.0) and interior.min() > 1e-2)
    report(4, ok, f"min gap {gaps.min():.3e} (all > 0), interior min {interior.min():.3e} (> 1e-2)")


def test_criterion_5_concentration():
    gamma, kappa = 0.8, 1e-3
    points = trajectory(mems(gamma), [two_sided_filter(kappa)])
    outcome_tau, outcome_sl = points[0].tangle, points[0].s_linear
    # closed-form oracle for the filtered coherence weight
    gp = gamma / (gamma + (1 - gamma) * kappa**2)
    oracle_ok = abs(outcome_tau - gp * gp) < 1e-9
    limit_ok = outcome_tau >= 0.999 and outcome_sl <= 1e-3

    improved = []
    for i in range(1, 10):
        g = i / 10
        points = trajectory(mems(g), [two_sided_filter(k) for k in kappa_schedule(100)])
        improved.append(any(p.tangle > g * g for p in points))
    ok = oracle_ok and limit_ok and all(improved)
    report(5, ok, f"mems(0.8) at kappa=1e-3: tangle {outcome_tau:.6f} (>= 0.999), "
                  f"S_L {outcome_sl:.2e} (<= 1e-3); improvement at all gamma: {all(improved)}")


def test_criterion_6_concurrence_negativity_agreement():
    spec = EnsembleSpec(GinibreRank(4), 10_000, seed=4242)
    disagreements = 0
    for state in sampled_states(spec):
        c = concurrence(state)
        n = negativity(state)
        if (c > 1e-7) != (n > 1e-7):
            disagreements += 1
    ok = disagreements == 0
    report(6, ok, f"{disagreements} classification disagreements over 10000 states (need 0)")


def test_criterion_7_local_unitary_invariance():
    rng = np.random.default_rng(777)
    spec = EnsembleSpec(GinibreRank(4), 1_000, seed=777)
    worst = 0.0
    for state in sampled_states(spec):
        u = random_local_unitary(rng)
        rotated = make_density(u @ state.mat @ u.conj().T)
        a = measure_report(state)
        b = measure_report(rotated)
        for field in MeasureReport.FIELDS:
            worst = max(worst, abs(getattr(a, field) - getattr(b, field)))
    ok = worst < 1e-9
    report(7, ok, f"max change over 1000 local-unitary pairs x 7 measures: {worst:.2e} (< 1e-9)")


def test_criterion_8_von_neumann_non_optimality(tmp_path):
    band = 1e-3
    best = None  # (gain, gamma, witness)
    for idx, gamma in enumerate((0.3, 0.4, 0.5, 0.6)):
        start = mems(gamma)
        rng = np.random.default_rng(2026 + idx)
        found = hill_climb(start, MixednessMetric.VON_NEUMANN_NORMALIZED,
                           steps=12_000, rng=rng, band=band)
        gain = tangle(found) - tangle(start)
        if best is None or gain > best[0]:
            best = (gain, gamma, found, start)
    gain, gamma, witness, start = best

    # persist the witness, reload, and re-verify by direct measurement
    path = tmp_path / "vn_witness.mat"
    write_matrix_file(path, witness.mat)
    reloaded = make_density(read_matrix_file(path))
    regain = tangle(reloaded) - tangle(start)
    drift = abs(von_neumann_entropy(reloaded) - von_neumann_entropy(start)) / LN4
    ok = regain > 1e-4 and drift <= band
    report(8, ok, f"witness at gamma={gamma}: tangle gain {regain:.4e} (> 1e-4) at "
                  f"normalized-entropy drift {drift:.2e} (<= 1e-3); persisted to {path.name}")


def test_criterion_9_scan_determinism(tmp_path):
    flags = ["scan", "--ensemble", "ginibre", "--count", "4000", "--seed", "11", "--bins", "100"]
    outputs = {}
    for label in ("run1", "run2", "run3"):
        out = tmp_path / f"{label}.csv"
        assert cli.run(flags + ["--out", str(out)]) == 0
        outputs[label] = (out.read_bytes(), (tmp_path / f"{label}_envelope.csv").read_bytes())
    ok = outputs["run1"] == outputs["run2"] == outputs["run3"]
    report(9, ok, "byte-identical CSV across three repeated runs")
