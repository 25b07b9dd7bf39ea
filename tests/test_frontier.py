import hashlib
import math

import numpy as np
import pytest

from conftest import cli_kind, random_state
from memslab import cli, frontier
from memslab.frontier import (
    LN4,
    S_BRANCH,
    S_EDGE,
    WINDOW,
    CertificationReport,
    MixednessMetric,
    UnsupportedMetric,
    bin_maxima,
    certify,
    certify_states,
    envelope_tangle,
    hill_climb,
    mems_curve,
    mems_linear_entropy,
    scan,
    scan_points,
    werner_curve,
    _step_draws,
)
from memslab.filtering import best_filter
from memslab.linalg import psd_root, psd_sqrt
from memslab.measures import (linear_entropy, linear_entropy_of_mat, tangle, tangle_batch, tangle_of_mat,
                              von_neumann_batch, von_neumann_entropy)
from memslab.sampling import (BLOCK, EnsembleSpec, GinibreRank, PerturbAbout, PureMixture,
                              sample_states, splitmix64, wishart)
from memslab.states import OutOfRange, make_density, mems, validate_eigh, validate_stack, werner

LINEAR = MixednessMetric.LINEAR
VN = MixednessMetric.VON_NEUMANN_NORMALIZED


def werner_tangle(gamma):
    return max(0.0, (3 * gamma - 1) / 2) ** 2


class TestCurves:
    def test_mems_endpoints(self):
        points = list(mems_curve(101))
        g0, t0, s0 = points[0]
        g1, t1, s1 = points[-1]
        assert (g0, t0) == (0.0, 0.0) and abs(s0 - 8 / 9) <= 1e-15
        assert (g1, t1, s1) == (1.0, 1.0, 0.0)

    def test_mems_branch_point(self):
        gamma = 2 / 3
        assert mems_linear_entropy(gamma) == pytest.approx(16 / 27, abs=1e-15)
        # same value from the high-coherence branch formula (8/3) g (1 - g)
        assert (8 / 3) * gamma * (1 - gamma) == pytest.approx(16 / 27, abs=1e-15)

    def test_werner_measured_points(self):
        points = list(werner_curve(11))
        gammas = [p[0] for p in points]
        assert gammas == [i / 10 for i in range(11)]
        g, t, s = points[6]  # gamma = 0.6
        assert t == pytest.approx(0.16, abs=1e-12)
        assert s == pytest.approx(0.64, abs=1e-12)
        assert points[0][1] == 0.0 and points[0][2] == pytest.approx(1.0, abs=1e-12)
        assert points[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert points[-1][2] == pytest.approx(0.0, abs=1e-12)

    def test_curves_match_measured_states(self):
        for gamma, tau, s in mems_curve(21):
            state = mems(gamma)
            assert tangle(state) == pytest.approx(tau, abs=1e-12)
            assert linear_entropy(state) == pytest.approx(s, abs=1e-12)

    def test_point_count_validated(self):
        with pytest.raises(OutOfRange):
            mems_curve(1)
        with pytest.raises(OutOfRange):
            werner_curve(0)

    @pytest.mark.parametrize("curve", [mems_curve, werner_curve])
    def test_points_are_yielded_lazily(self, curve):
        points = curve(10**300)  # a list of these would not fit in memory
        assert next(points)[0] == 0.0 and 0.0 < next(points)[0] < 1e-299
        with pytest.raises(OverflowError):
            curve(10**400)  # past float range: rejected before any point


class TestEnvelope:
    def test_anchor_points(self):
        assert envelope_tangle(LINEAR, 0.0) == 1.0
        assert envelope_tangle(LINEAR, 8 / 9) == pytest.approx(0.0, abs=1e-12)
        assert envelope_tangle(LINEAR, 16 / 27) == pytest.approx(4 / 9, abs=1e-12)
        assert envelope_tangle(LINEAR, 0.95) == 0.0
        assert envelope_tangle(LINEAR, 1.0) == 0.0

    def test_round_trip(self):
        for gamma in np.linspace(0, 1, 101):
            s = mems_linear_entropy(gamma)
            assert envelope_tangle(LINEAR, s) == pytest.approx(gamma * gamma, abs=1e-10)

    def test_branch_continuity(self):
        below = envelope_tangle(LINEAR, S_BRANCH - 1e-12)
        above = envelope_tangle(LINEAR, S_BRANCH + 1e-12)
        assert abs(below - above) < 1e-10
        assert abs(envelope_tangle(LINEAR, S_EDGE - 1e-12)) < 1e-10

    def test_unsupported_metric(self):
        with pytest.raises(UnsupportedMetric):
            envelope_tangle(MixednessMetric.VON_NEUMANN_NORMALIZED, 0.5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            envelope_tangle(LINEAR, -0.1)
        with pytest.raises(OutOfRange):
            envelope_tangle(LINEAR, 1.1)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 1, 500)
        values = [envelope_tangle(LINEAR, s) for s in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestDominance:
    def test_mems_above_werner(self):
        # at equal linear entropy the envelope strictly exceeds the Werner tangle
        for gw in np.linspace(1 / 3 + 1e-3, 1 - 1e-3, 333):
            gap = envelope_tangle(LINEAR, 1 - gw * gw) - werner_tangle(gw)
            assert gap > 0.0

    def test_curves_meet_only_at_endpoints(self):
        # the tangle gap at matched linear entropy vanishes only at s=0 and s=8/9
        for s in np.linspace(1e-3, 8 / 9 - 1e-3, 400):
            gw = math.sqrt(1 - s)  # Werner gamma with this linear entropy
            gap = envelope_tangle(LINEAR, s) - werner_tangle(gw)
            assert gap > 1e-7


class TestScan:
    def test_single_sample_single_bin(self):
        env = scan(EnsembleSpec(GinibreRank(4), 1, seed=3), LINEAR, bins=32)
        assert env.samples_total == 1
        assert len(env.bins) == 1
        assert env.bins[0].count == 1

    def test_bins_respect_envelope(self):
        env = scan(EnsembleSpec(GinibreRank(4), 30_000, seed=9), LINEAR, bins=100)
        assert env.samples_total == 30_000
        for stat in env.bins:
            assert stat.max_tangle <= envelope_tangle(LINEAR, stat.hi) + 1e-9

    def test_perturbed_boundary_hugging(self):
        spec = EnsembleSpec(PerturbAbout(mems(0.9), 0.02), 3000, seed=17)
        env = scan(spec, LINEAR, bins=100)
        target = (8 / 3) * 0.9 * 0.1  # linear entropy of the base state
        occupied = [s for s in env.bins if s.lo <= target <= s.hi or abs(s.lo - target) < 0.05]
        assert occupied
        best = max(s.max_tangle for s in occupied)
        assert best >= envelope_tangle(LINEAR, target) - 0.02

    def test_vn_metric_supported(self):
        env = scan(EnsembleSpec(GinibreRank(4), 500, seed=5),
                   MixednessMetric.VON_NEUMANN_NORMALIZED, bins=20)
        assert env.samples_total == 500
        for stat in env.bins:
            assert 0.0 <= stat.lo < stat.hi <= 1.0

    def test_bin_count_validated(self):
        for bins in (5, 0, -3):
            with pytest.raises(OutOfRange):
                scan(EnsembleSpec(GinibreRank(4), 10, seed=1), LINEAR, bins=bins)

    def test_deterministic(self):
        spec = EnsembleSpec(GinibreRank(3), 2000, seed=123)
        a = scan(spec, LINEAR, bins=40)
        b = scan(spec, LINEAR, bins=40)
        assert a.bins == b.bins


class TestCertify:
    def test_ginibre_passes(self):
        report = certify(EnsembleSpec(GinibreRank(4), 10_000, seed=1), tolerance=1e-9)
        assert report.passed
        assert report.max_violation <= 1e-9
        assert report.samples_total == 10_000

    def test_perturbed_passes(self):
        spec = EnsembleSpec(PerturbAbout(mems(0.5), 0.05), 2000, seed=6)
        assert certify(spec, tolerance=1e-9).passed

    def test_envelope_member_is_tight(self):
        report = certify_states([mems(0.5).mat[None]], tolerance=1e-9)
        assert abs(report.max_violation) <= 1e-12
        assert report.violating_state is not None

    def test_werner_is_interior(self):
        report = certify_states([werner(0.8).mat[None]], tolerance=1e-9)
        assert report.max_violation < -0.1  # far below the envelope

    def test_tolerance_validated(self):
        for tolerance in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OutOfRange):
                certify(EnsembleSpec(GinibreRank(4), 1, seed=0), tolerance=tolerance)
            with pytest.raises(OutOfRange):
                certify_states([mems(0.1).mat[None]], tolerance=tolerance)

    def test_verdict_logic(self):
        fail = CertificationReport(max_violation=1e-3, violating_state=None,
                                   samples_total=1, tolerance=1e-9)
        assert not fail.passed and fail.verdict == "FAIL"
        ok = CertificationReport(max_violation=-0.2, violating_state=None,
                                 samples_total=1, tolerance=1e-9)
        assert ok.passed and ok.verdict == "PASS"


def _clipped(s):
    return min(max(s, 0.0), 1.0)


def test_witnesses_are_first_to_reach_maximum_across_blocks():
    # 300 full-rank states fill blocks of 128, 128 and 44.  Every 7th is swapped for a
    # separable Werner state past S_L = 8/9 (tangle 0, envelope 0), so violation 0 is the
    # largest and ties in every block; the top bin's maximum, 0, is reached in every block.
    spec = EnsembleSpec(GinibreRank(4), 300, seed=21)
    mats = np.concatenate(list(sample_states(spec)))
    mats[::7] = [werner(0.3 * j / 43).mat for j in range(43)]
    stacks = [mats[i:i + BLOCK] for i in range(0, len(mats), BLOCK)]
    states = [make_density(mat) for mat in mats]
    taus = [tangle(state) for state in states]
    mixedness = [_clipped(linear_entropy(state)) for state in states]

    worst, witness, violations = -math.inf, None, []
    for state, tau, s in zip(states, taus, mixedness):
        violations.append(tau - envelope_tangle(LINEAR, s))
        if violations[-1] > worst:
            worst, witness = violations[-1], state
    ties = [i for i, v in enumerate(violations) if v == worst]
    assert worst == 0.0 and ties[0] < BLOCK and ties[-1] >= 2 * BLOCK
    report = certify_states(stacks, tolerance=1e-9)
    assert report.max_violation == worst
    assert np.array_equal(report.violating_state.mat, witness.mat)

    bins = 20
    cells = [min(int(s * bins), bins - 1) for s in mixedness]
    occupied = {}  # bin -> [max tangle, count]
    for tau, cell in zip(taus, cells):
        slot = occupied.setdefault(cell, [-1.0, 0])
        slot[0] = max(slot[0], tau)
        slot[1] += 1
    top = cells[0]  # werner(0): S_L = 1, tangle 0
    assert occupied[top][0] == 0.0 and sum(cells[i] == top for i in range(BLOCK, len(mats))) > 1
    env = bin_maxima(scan_points(stacks, LINEAR), bins)
    assert [(b.lo, b.max_tangle, b.count) for b in env.bins] == [
        (cell / bins, *occupied[cell]) for cell in sorted(occupied)]


# every ensemble kind, on both sides of the BLOCK (128) edge, and the 19-part perturb-mems stream
ONE_EIGH_KINDS = {
    "GinibreFull": cli_kind("ginibre"),  # the full-rank kind --ensemble ginibre samples
    **{f"GinibreRank({k})": GinibreRank(k) for k in (1, 2, 3, 4)},
    "PureMixture(4)": PureMixture(4),
    "PerturbAbout(mems(0.6))": PerturbAbout(mems(0.6), 0.05),
}
ONE_EIGH_STREAMS = {
    **{f"{name}-{count}": [EnsembleSpec(kind, count, seed=count + 7)]
       for name, kind in ONE_EIGH_KINDS.items() for count in (1, 40, 128, 300)},
    "perturb-mems-19-parts": [EnsembleSpec(PerturbAbout(mems(round(0.05 * (i + 1), 2)), 0.02), 16,
                                           seed=9 ^ splitmix64(1 + i)) for i in range(19)],
}


@pytest.mark.parametrize("name", sorted(ONE_EIGH_STREAMS))
def test_scan_and_certify_measure_like_validate_then_tangle_batch(name):
    stacks = list(sample_states(*ONE_EIGH_STREAMS[name]))
    validated = [validate_stack(raw) for raw in stacks]
    for metric in (LINEAR, VN):
        for (taus, mixedness, mats), ref in zip(scan_points(stacks, metric), validated, strict=True):
            if metric is LINEAR:
                expected = np.array([linear_entropy_of_mat(mat) for mat in ref])
            else:
                expected = von_neumann_batch(ref) / LN4
            assert taus.tobytes() == tangle_batch(ref).tobytes()  # bit for bit, not approx
            assert mixedness.tobytes() == expected.tobytes()
            assert mats.tobytes() == ref.tobytes()
    worst, witness = -math.inf, None
    for ref in validated:
        for tau, mat in zip(tangle_batch(ref).tolist(), ref):
            violation = tau - envelope_tangle(LINEAR, _clipped(linear_entropy_of_mat(mat)))
            if violation > worst:
                worst, witness = violation, mat
    report = certify_states(stacks, tolerance=1e-9)
    assert report.max_violation == worst
    assert report.violating_state.mat.tobytes() == witness.tobytes()


def _rotated(eigenvalues):
    """A state with the given spectrum in a fixed non-diagonal basis."""
    q, _ = np.linalg.qr(np.random.default_rng(3).standard_normal((4, 4))
                        + 1j * np.random.default_rng(4).standard_normal((4, 4)))
    return (q * np.asarray(eigenvalues)) @ q.conj().T


def _defective(kind):
    mat = np.eye(4, dtype=np.complex128) / 4
    if kind == "non-finite":
        mat[2, 1] = np.nan
    elif kind == "hermiticity":
        mat[0, 1] += 1j * 2e-10 / math.sqrt(8)  # ||rho - rho^dag||_F = 2e-10
        mat[1, 0] += 1j * 2e-10 / math.sqrt(8)
    elif kind == "trace":
        mat[3, 3] += 2e-10
    else:
        mat = _rotated([0.5, 0.3, 0.2 + 2e-10, -2e-10])
    return mat


@pytest.mark.parametrize("k", [0, 2, 4])
@pytest.mark.parametrize("kind", ["non-finite", "hermiticity", "trace", "psd"])
def test_scan_and_certify_reject_like_validate_stack(kind, k):
    stack = np.stack([mems(0.2 * i).mat for i in range(5)])
    stack[k] = _defective(kind)
    with pytest.raises(ValueError) as alone:
        validate_stack(stack)
    for consume in (lambda: certify_states([stack], 1e-9), lambda: next(scan_points([stack], LINEAR))):
        with pytest.raises(ValueError) as err:
            consume()
        assert type(err.value) is type(alone.value)
        assert str(err.value) == str(alone.value)


def test_eigenvalue_within_the_clamp_passes_every_check():
    stack = np.stack([mems(0.2 * i).mat for i in range(5)])
    stack[2] = _rotated([0.5, 0.3, 0.2 + 5e-11, -5e-11])
    validate_stack(stack)
    assert certify_states([stack], 1e-9).samples_total == 5
    assert len(next(scan_points([stack], LINEAR))[0]) == 5


def test_certify_decomposes_each_stack_once(linalg_calls):
    certify(EnsembleSpec(GinibreRank(4), 300, seed=5), 1e-9)  # stacks of 128, 128 and 44
    # one eigh and one SVD per stack; the one eigvalsh validates the witness (make_density)
    assert linalg_calls == {"eigh": 3, "eigvalsh": 1, "svd": 3}


def test_vn_scan_cli_decomposes_each_stack_once(linalg_calls, tmp_path):
    assert cli.run(["scan", "--metric", "vn", "--count", "300", "--out", str(tmp_path / "vn.csv")]) == 0
    # one eigh (validation and root), one SVD and the entropy's eigvalsh per stack
    assert linalg_calls == {"eigh": 3, "eigvalsh": 3, "svd": 3}


class TestHillClimb:
    def test_werner_is_improvable_at_fixed_linear_entropy(self):
        start = werner(0.8)
        rng = np.random.default_rng(11)
        best = hill_climb(start, LINEAR, steps=3000, rng=rng)
        assert tangle(best) > tangle(start)
        assert abs(linear_entropy(best) - linear_entropy(start)) <= 1e-3

    def test_mems_cannot_beat_envelope_at_fixed_linear_entropy(self):
        # within the +-band the climb may ride up the envelope, but never above it
        start = mems(0.5)
        s0 = linear_entropy(start)
        rng = np.random.default_rng(7)
        best = hill_climb(start, LINEAR, steps=3000, rng=rng, band=1e-3)
        s_best = linear_entropy(best)
        assert abs(s_best - s0) <= 1e-3
        assert tangle(best) <= envelope_tangle(LINEAR, s_best) + 1e-9
        assert tangle(best) <= envelope_tangle(LINEAR, s0 - 1e-3) + 1e-9

    def test_mems_is_improvable_at_fixed_von_neumann(self):
        start = mems(0.6)
        rng = np.random.default_rng(2026)
        best = hill_climb(start, MixednessMetric.VON_NEUMANN_NORMALIZED,
                          steps=8000, rng=rng)
        gain = tangle(best) - tangle(start)
        assert gain > 1e-4
        assert abs(von_neumann_entropy(best) - von_neumann_entropy(start)) / LN4 <= 1e-3

    def test_single_step(self):
        start = mems(0.3)
        best = hill_climb(start, LINEAR, steps=1, rng=np.random.default_rng(0))
        assert tangle(best) >= tangle(start) - 1e-15

    def test_steps_validated(self):
        with pytest.raises(OutOfRange):
            hill_climb(mems(0.3), LINEAR, steps=0, rng=np.random.default_rng(0))

    @pytest.mark.parametrize("kwargs", [
        {"band": math.nan}, {"band": -1.0}, {"band": 0.0}, {"band": math.inf},
    ], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_parameters_validated(self, kwargs):
        with pytest.raises(OutOfRange):
            hill_climb(mems(0.3), LINEAR, steps=10, rng=np.random.default_rng(0), **kwargs)

    def test_widest_parameters_accepted(self):
        best = hill_climb(mems(0.3), LINEAR, steps=10, rng=np.random.default_rng(0), band=1.0)
        assert tangle(best) >= tangle(mems(0.3))


def sequential_hill_climb(start, metric, steps, rng, band=1e-3):
    """Reference climb: draw, build and measure one proposal per step."""
    def mixedness(mat):
        return linear_entropy_of_mat(mat) if metric is LINEAR else von_neumann_entropy(make_density(mat)) / LN4

    anchor = mixedness(start.mat)
    current = start.mat
    current_tangle = tangle_of_mat(current)
    root = psd_sqrt(current)
    ratio = (1e-4 / 0.1) ** (1.0 / max(steps - 1, 1))  # the weight scale runs from 0.1 down to 1e-4
    eps = 0.1
    for _ in range(steps):
        rank = int(rng.integers(1, 5))
        w = eps * (1.0 - rng.random())
        wish = wishart(rng, rank)
        support_weighted = rng.random() < 0.5
        eps *= ratio
        if support_weighted:
            wish = root @ wish @ root
        tr = float(np.trace(wish).real)
        if tr <= 0.0:
            continue
        candidate = (1.0 - w) * current + (w / tr) * wish
        cand_tangle = tangle_of_mat(candidate)
        if cand_tangle > current_tangle and abs(mixedness(candidate) - anchor) <= band:
            current, current_tangle, root = candidate, cand_tangle, psd_sqrt(candidate)
    return current


CLIMB_STARTS = {
    "mems(0.6)": mems(0.6),
    "werner(0.8)": werner(0.8),
    "ginibre-rank1": random_state(5, 1),
    "ginibre-rank2": random_state(6, 2),
}


@pytest.mark.parametrize("steps", [1, 7, 8, 9, 40, 300])  # both sides of the window edges
@pytest.mark.parametrize("start", sorted(CLIMB_STARTS))
@pytest.mark.parametrize("metric", [LINEAR, VN], ids=["linear", "vn"])
def test_hill_climb_matches_sequential_climb(metric, start, steps):
    rng, ref_rng = np.random.default_rng(steps), np.random.default_rng(steps)
    witness = hill_climb(CLIMB_STARTS[start], metric, steps, rng)
    assert np.array_equal(witness.mat, sequential_hill_climb(CLIMB_STARTS[start], metric, steps, ref_rng))
    assert rng.bit_generator.state == ref_rng.bit_generator.state  # every step drawn, nothing more


@pytest.mark.parametrize("metric", [LINEAR, VN], ids=["linear", "vn"])
def test_hill_climb_takes_roots_from_each_windows_eigh(metric, linalg_calls, monkeypatch):
    stacks, rooted = [], []

    def counted(raw):
        stacks.append(len(raw))
        return validate_eigh(raw)

    def counted_root(w, v):
        rooted.append(len(w))
        return psd_root(w, v)

    monkeypatch.setattr(frontier, "validate_eigh", counted)
    monkeypatch.setattr(frontier, "psd_root", counted_root)
    steps = 40
    hill_climb(CLIMB_STARTS["werner(0.8)"], metric, steps, np.random.default_rng(3))
    assert stacks[0] == 1  # the start, validated once for its tangle and its root
    assert len(stacks) - 1 > math.ceil(steps / WINDOW)  # accepts restarted some windows
    # one eigh and one SVD for the start and one of each per window: an accepted proposal's
    # root comes from its window's eigh, not from an eigh of its own
    assert (linalg_calls["eigh"], linalg_calls["svd"]) == (len(stacks), len(stacks))
    # one stacked root per validated stack: the roots the tangles used are the support roots
    assert rooted == stacks
    if metric is LINEAR:
        assert linalg_calls["eigvalsh"] == 0  # the witness is not validated again


@pytest.mark.parametrize("build", [
    lambda: make_density(np.stack([mems(0.6).mat, werner(0.5).mat])[1]),  # a slice of a writable stack
    lambda: best_filter(mems(0.6), 4)[1].state,
    lambda: hill_climb(werner(0.8), LINEAR, 40, np.random.default_rng(3)),
    lambda: certify_states(sample_states(EnsembleSpec(GinibreRank(4), 300, seed=5)), 1e-9).violating_state,
], ids=["make_density", "best_filter", "hill_climb", "certify_states"])
def test_returned_states_are_read_only_and_own_their_data(build):
    mat = build().mat
    # a view would keep the stack it was cut from (a window, a grid block, a sample stack) alive
    assert not mat.flags.writeable and mat.base is None


@pytest.mark.parametrize("n", [1, 40, BLOCK])
def test_step_draws_stack_the_wishart_of_each_step(n):
    rng, ref = np.random.default_rng(n), np.random.default_rng(n)
    weights, wishes, support_weighted, eps = _step_draws(rng, n, 0.1, 0.9)
    ranks, ref_eps = [], 0.1
    for i in range(n):  # the per-step draw order, one sampling.wishart per step
        ranks.append(int(ref.integers(1, 5)))
        assert weights[i] == ref_eps * (1.0 - ref.random())
        assert wishes[i].tobytes() == wishart(ref, ranks[-1]).tobytes()
        assert support_weighted[i] == (ref.random() < 0.5)
        ref_eps *= 0.9
    assert eps == ref_eps
    assert rng.bit_generator.state == ref.bit_generator.state
    if n > 1:
        assert set(ranks) == {1, 2, 3, 4} and ranks != sorted(ranks)  # interleaved ranks


# sha256 of hill_climb witnesses recorded with the one-proposal-per-step climb.  Being
# bytes, they hold for the floating-point arithmetic of the numpy and BLAS builds they
# were recorded with (numpy 2.4, OpenBLAS 0.3.31, x86-64).
CLIMB_GOLDEN = {
    ("mems(0.6)", "linear", 60, 1): "3a7d3ff118432ffd4cfac72981a0297480b6252fa17f5435c4f9067f495341c2",
    ("mems(0.6)", "vn", 60, 2): "446b96e7907b8620390864b74eb94b968137d0b73b3a09e020828c9410cc9dad",
    ("werner(0.8)", "linear", 60, 3): "3095d96f26ecde7df58fd7c02f1a25997d9b56fc1315468e567038bf7f6ce4f2",
    ("werner(0.8)", "vn", 60, 4): "6fcc3ea1d610da7b6f08dd1a74ce4192ccb63ab63ad93a90f396245b6661fea2",
    ("ginibre-rank1", "vn", 60, 5): "2475e669c78ed08cd7438c28a7e423e1a4aa6a6e19991d0c8c3a98956ed8f484",
    ("ginibre-rank2", "linear", 60, 6): "4fd9d6e884560d0bb90665fd4e731d0d7448028d819003a82ad83fd75dc6b18f",
}


@pytest.mark.parametrize("start, metric, steps, seed", sorted(CLIMB_GOLDEN),
                         ids=[f"{s}-{m}-{n}-seed{r}" for s, m, n, r in sorted(CLIMB_GOLDEN)])
def test_hill_climb_witness_is_pinned(start, metric, steps, seed):
    witness = hill_climb(CLIMB_STARTS[start], MixednessMetric(metric), steps, np.random.default_rng(seed))
    assert not np.array_equal(witness.mat, CLIMB_STARTS[start].mat)
    assert hashlib.sha256(witness.mat.tobytes()).hexdigest() == CLIMB_GOLDEN[start, metric, steps, seed]
