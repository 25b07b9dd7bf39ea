import hashlib
import importlib.util
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from conftest import cli_kind, random_local_unitary, random_state
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
from memslab.measures import (linear_entropy, linear_entropy_of_mat, tangle, tangle_batch, tangle_bound,
                              tangle_of_mat, tangle_root, von_neumann_batch, von_neumann_entropy)
from memslab.sampling import (BLOCK, EnsembleSpec, GinibreRank, PerturbAbout, PureMixture,
                              _wishart, sample_states, splitmix64)
from memslab.states import (DensityMatrix, OutOfRange, TraceNotOne, make_density, mems, validate_eigh,
                            validate_stack, werner)

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

    @pytest.mark.parametrize("metric", ["linear", None])
    def test_unknown_metric_raises_type_error(self, metric):
        with pytest.raises(TypeError):  # as scan_points and hill_climb raise, not UnsupportedMetric
            envelope_tangle(metric, 0.5)

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

    @pytest.mark.parametrize("bins", [10.5, 20.0, "20"])
    def test_bin_count_must_be_an_integer(self, bins):
        stacks = iter([(np.array([0.0]), np.array([0.99]), mems(0.0).mat[None])])
        with pytest.raises(TypeError):
            bin_maxima(stacks, bins)
        assert len(list(stacks)) == 1  # checked before the first stack is read

    def test_numpy_integer_bin_count_accepted(self):
        spec = EnsembleSpec(GinibreRank(4), 200, seed=1)
        assert scan(spec, LINEAR, np.int64(10)) == scan(spec, LINEAR, 10)

    @pytest.mark.parametrize("metric", ["linear", None])
    def test_unknown_metric_raises_before_a_stack_is_read(self, metric):
        stacks = iter([mems(0.5).mat[None]])
        with pytest.raises(TypeError):
            next(scan_points(stacks, metric))
        assert len(list(stacks)) == 1
        with pytest.raises(TypeError):
            scan(EnsembleSpec(GinibreRank(4), 200, seed=1), metric, 10)

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
                                   samples_total=1, tolerance=1e-9, screened=0)
        assert not fail.passed and fail.verdict == "FAIL"
        ok = CertificationReport(max_violation=-0.2, violating_state=None,
                                 samples_total=1, tolerance=1e-9, screened=0)
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
        for (taus, mixedness), ref in zip(scan_points(stacks, metric), validated, strict=True):
            if metric is LINEAR:
                expected = np.array([linear_entropy_of_mat(mat) for mat in ref])
            else:
                expected = von_neumann_batch(ref) / LN4
            assert taus.tobytes() == tangle_batch(ref).tobytes()  # bit for bit, not approx
            assert mixedness.tobytes() == expected.tobytes()
    assert_certifies_like_every_state_measured(stacks)


def reference_certification(stacks):
    """(max violation, witness, sample count) of the stacks, measuring every state: tangle_batch, then one at a time."""
    worst, witness, total = -math.inf, None, 0
    for ref in map(validate_stack, stacks):
        total += len(ref)
        for tau, mat in zip(tangle_batch(ref).tolist(), ref):
            violation = tau - envelope_tangle(LINEAR, _clipped(linear_entropy_of_mat(mat)))
            if violation > worst:
                worst, witness = violation, mat
    return worst, witness, total


def assert_certifies_like_every_state_measured(stacks):
    """certify_states' report on the stacks has the reference's max_violation bits, witness bytes and count."""
    worst, witness, total = reference_certification(stacks)
    report = certify_states(stacks, tolerance=1e-9)
    assert report.max_violation.hex() == worst.hex()
    assert report.violating_state.mat.tobytes() == witness.tobytes()
    assert report.samples_total == total
    return report


def _rotated_locally(mats, rng):
    """Each matrix under its own Haar-random local unitary."""
    return np.stack([u @ mat @ u.conj().T for mat, u in zip(mats, [random_local_unitary(rng) for _ in mats])])


def boundary_states(name, n, seed):
    """n states of one of the accuracy floor's boundary sets (tests/test_measures.py::TestAccuracyFloor).

    Rank-3 (gamma < 2/3) and rank-2 mems states and rank-3 X states (diag(x + g/2, a, 0, y + g/2) with
    |00><11| coherences g/2, concurrence g), each under a random local unitary; Gaussian pure states; and
    pure states with an eigenvalue -eps inside the PSD clamp, (1 + eps) psi psi^dag - eps phi phi^dag.
    """
    rng = np.random.default_rng(seed)
    if name in ("mems-rank3", "mems-rank2"):
        lo, hi = (0.0, 2 / 3) if name == "mems-rank3" else (2 / 3, 1.0)
        return _rotated_locally(np.stack([mems(gamma).mat for gamma in rng.uniform(lo, hi, n)]), rng)
    if name == "x-rank3":
        x, y, a, g = rng.dirichlet(np.ones(4), n).T
        mats = np.zeros((n, 4, 4), dtype=np.complex128)
        mats[:, [0, 1, 3], [0, 1, 3]] = np.stack([x + g / 2, a, y + g / 2], axis=1)
        mats[:, 0, 3] = mats[:, 3, 0] = g / 2
        return _rotated_locally(mats, rng)
    vecs = rng.standard_normal((n, 2, 4)) + 1j * rng.standard_normal((n, 2, 4))
    psi = vecs[:, 0] / np.linalg.norm(vecs[:, 0], axis=1, keepdims=True)
    pure = psi[:, :, None] * psi[:, None, :].conj()
    if name == "pure":
        return pure
    phi = vecs[:, 1] - np.einsum("ni,ni->n", psi.conj(), vecs[:, 1])[:, None] * psi  # orthogonal to psi
    phi /= np.linalg.norm(phi, axis=1, keepdims=True)
    eps = rng.uniform(1e-11, 1e-10, n)[:, None, None]
    return (1.0 + eps) * pure - eps * (phi[:, :, None] * phi[:, None, :].conj())


BOUNDARY_SETS = ("mems-rank3", "mems-rank2", "x-rank3", "pure", "pure-clamped")
BOUND_KINDS = {
    **{f"GinibreRank({k})": GinibreRank(k) for k in (1, 2, 3, 4)},
    **{f"PureMixture({m})": PureMixture(m) for m in range(1, 7)},
    **{f"PerturbAbout(mems({g}))": PerturbAbout(mems(g), 0.05) for g in (0.1, 0.5, 0.9)},
}
# tangle_root - tangle_bound on these sets at 20k states, seeds 1 and 7, under the OpenBLAS SkylakeX, Haswell and
# Katmai kernels: at most 5.2e-15 with the bound read from eigh's eigenvalues and 5.9e-15 from eigvalsh's
# (pure states; 4.9e-15 on GinibreRank(1)), below 0 on rotated mems and X states and on clamped pure states, and
# pure states at least -6.5e-15 (the bound is C^2 there).
BOUND_SLACK = 1e-14


def bound_excess(mats, reading):
    """tangle_root - tangle_bound of each state of a stack, the bound read from ``reading``'s eigenvalues."""
    mats, w, v = validate_eigh(mats)
    return tangle_root(psd_root(w, v)) - tangle_bound(mats, w if reading == "eigh" else np.linalg.eigvalsh(mats))


def each_reading(names):
    """(name, reading) for both eigenvalue readings certify_states screens with: its first stack's eigh (the
    test id is the name) and its later stacks' eigvalsh (the id ends in -eigvalsh)."""
    return [pytest.param(name, reading, id=name if reading == "eigh" else f"{name}-{reading}")
            for name in names for reading in ("eigh", "eigvalsh")]


@pytest.mark.parametrize("name, reading", each_reading(sorted(BOUND_KINDS)))
def test_tangle_bound_holds_on_sampled_states(name, reading):
    mats = np.concatenate(list(sample_states(EnsembleSpec(BOUND_KINDS[name], 20_000, seed=7))))
    assert bound_excess(mats, reading).max() <= BOUND_SLACK


@pytest.mark.parametrize("name, reading", each_reading(BOUNDARY_SETS))
def test_tangle_bound_holds_on_boundary_states(name, reading):
    excess = bound_excess(boundary_states(name, 4000, seed=1), reading)
    assert excess.max() <= BOUND_SLACK
    if name == "pure":  # the reduced-purity bound is C^2 itself on a pure state
        assert excess.min() >= -BOUND_SLACK


def test_screen_margin_dwarfs_the_bound_slack():
    assert frontier.MARGIN >= 100 * BOUND_SLACK


def _bench_certify_mix_specs(seed, monkeypatch):
    """The EnsembleSpec of each job of bench/workloads.py's certify-mix cycle at ``seed``, read from its jobs."""
    spec = importlib.util.spec_from_file_location("bench_workloads", Path(__file__).resolve().parents[1]
                                                  / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # dataclasses look their module up by name
    spec.loader.exec_module(workloads)
    monkeypatch.setattr(frontier, "certify", lambda spec, tolerance: spec)  # a job hands frontier.certify its spec
    return [job.call() for job in workloads.certify_mix(seed)]


def _later_stack_stream():
    """Two stacks of pure states (violations well below 0), then rotated mems states, which reach about 0."""
    return [boundary_states("pure", BLOCK, seed=2), boundary_states("pure", BLOCK, seed=3),
            boundary_states("mems-rank2", 40, seed=4)]


SCREEN_STREAMS = {
    **{name: lambda name=name: np.split(boundary_states(name, 3 * BLOCK, seed=5), 3) for name in BOUNDARY_SETS},
    "worst-in-a-later-stack": _later_stack_stream,
}


@pytest.mark.parametrize("name", sorted(SCREEN_STREAMS))
def test_screened_certify_reports_like_every_state_measured(name):
    stacks = SCREEN_STREAMS[name]()
    report = assert_certifies_like_every_state_measured(stacks)
    if name == "worst-in-a-later-stack":
        worst = reference_certification(stacks[:2])[0]
        assert report.max_violation > worst and report.screened > 0


def test_screened_certify_mix_reports_like_every_state_measured(monkeypatch):
    for seed in (1, 2, 3):
        screened = total = 0
        for spec in _bench_certify_mix_specs(seed, monkeypatch):
            report = assert_certifies_like_every_state_measured(list(sample_states(spec)))
            screened, total = screened + report.screened, total + report.samples_total
        assert 0 < screened < total


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


@pytest.mark.parametrize("kind", ["non-finite", "hermiticity", "trace", "psd"])
def test_certify_rejects_a_later_stack_like_validate_stack(kind):
    # the first stack is validated through eigh, every later one through eigvalsh
    stack = np.stack([mems(0.2 * i).mat for i in range(5)])
    stack[3] = _defective(kind)
    with pytest.raises(ValueError) as alone:
        validate_stack(stack)
    with pytest.raises(ValueError) as err:
        certify_states([boundary_states("pure", 8, seed=1), stack[:2], stack], 1e-9)
    assert (type(err.value), str(err.value)) == (type(alone.value), str(alone.value))


def test_eigenvalue_within_the_clamp_passes_every_check():
    stack = np.stack([mems(0.2 * i).mat for i in range(5)])
    stack[2] = _rotated([0.5, 0.3, 0.2 + 5e-11, -5e-11])
    validate_stack(stack)
    assert certify_states([stack], 1e-9).samples_total == 5
    assert len(next(scan_points([stack], LINEAR))[0]) == 5


def _later_kept(stacks, i):
    """The rows of stacks[i] whose violation bound, read from validate_stack's eigvalsh, reaches the worst
    violation of the stacks before it less MARGIN: the rows certify_states measures."""
    mats = validate_stack(stacks[i])
    worst = reference_certification(stacks[:i])[0]
    envelope = np.array([envelope_tangle(LINEAR, _clipped(linear_entropy_of_mat(mat))) for mat in mats])
    return mats[tangle_bound(mats, np.linalg.eigvalsh(mats)) - envelope >= worst - frontier.MARGIN]


def _first_keeps_more_than_its_threshold(stack):
    """Whether the first stack's screen, read from validate_eigh's eigenvalues, keeps a row besides its threshold
    state j (the row with the largest violation bound), whose exact violation sets the threshold."""
    mats, w, _ = validate_eigh(stack)
    envelope = np.array([envelope_tangle(LINEAR, _clipped(linear_entropy_of_mat(mat))) for mat in mats])
    bounds = tangle_bound(mats, w) - envelope
    j = int(np.argmax(bounds))
    threshold = tangle_batch(mats[j:j + 1])[0] - envelope[j]
    return int(np.count_nonzero(bounds >= threshold - frontier.MARGIN)) > 1


def test_certify_decomposes_each_stack_once(linalg_calls, monkeypatch):
    decomposed = []
    counted_eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda mats: decomposed.append(mats.copy()) or counted_eigh(mats))
    for stacks in (list(sample_states(EnsembleSpec(GinibreRank(4), 300, seed=5))),  # stacks of 128, 128 and 44
                   _later_stack_stream()):
        decomposed.clear()
        linalg_calls.update(dict.fromkeys(linalg_calls, 0))  # count from here: building a stream decomposes too
        report = certify_states(stacks, 1e-9)
        calls, rows = dict(linalg_calls), list(decomposed)  # before the references decompose too
        # one eigh of the first stack; one eigvalsh per later stack, and an eigh of exactly the rows its screen
        # kept (none for a stack that keeps none); the witness is not validated again
        expected = [validate_stack(stacks[0])] + [_later_kept(stacks, i) for i in range(1, len(stacks))]
        assert [mats.tobytes() for mats in rows] == [mats.tobytes() for mats in expected if len(mats)]
        assert (calls["eigh"], calls["eigvalsh"]) == (len(rows), len(stacks) - 1)
        # one SVD per decomposed stack: the first stack's is its threshold state's, and a first stack whose screen
        # keeps more than that state measures its kept rows with one more
        assert calls["svd"] == len(rows) + _first_keeps_more_than_its_threshold(stacks[0])
        assert 0 < report.screened and len(rows) < len(stacks)  # some later stack kept none


def test_certify_reuses_the_threshold_of_a_first_stack_that_keeps_only_it(linalg_calls):
    # pure states read violation tau - 1, far below the envelope; the rank-2 mems state sits on it
    stack = np.concatenate([boundary_states("pure", 40, seed=6), boundary_states("mems-rank2", 1, seed=7)])
    linalg_calls.update(dict.fromkeys(linalg_calls, 0))  # count from here: building mems validates it
    report = certify_states([stack], 1e-9)
    # one eigh validates the stack; the threshold state's SVD gives its violation, which is not measured again
    assert linalg_calls == {"eigh": 1, "eigvalsh": 0, "svd": 1}
    assert report.screened == 40
    assert_certifies_like_every_state_measured([stack])


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

    def test_steps_must_be_an_integer_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            hill_climb(mems(0.3), LINEAR, steps=3.0, rng=rng)
        assert rng.bit_generator.state == state
        hill_climb(mems(0.3), LINEAR, steps=np.int64(3), rng=rng)

    @pytest.mark.parametrize("kwargs", [
        {"band": math.nan}, {"band": -1.0}, {"band": 0.0}, {"band": math.inf},
    ], ids=lambda kwargs: ",".join(f"{k}={v}" for k, v in kwargs.items()))
    def test_parameters_validated(self, kwargs):
        with pytest.raises(OutOfRange):
            hill_climb(mems(0.3), LINEAR, steps=10, rng=np.random.default_rng(0), **kwargs)

    @pytest.mark.parametrize("metric", ["linear", None])
    def test_unknown_metric_raises_before_any_draw(self, metric):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TypeError):
            hill_climb(mems(0.5), metric, steps=10, rng=rng)
        assert rng.bit_generator.state == state

    def test_start_is_validated_before_any_draw(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(TraceNotOne):
            hill_climb(DensityMatrix(mat=2.0 * mems(0.5).mat), VN, steps=10, rng=rng)
        assert rng.bit_generator.state == state

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
        wish = _wishart(rng.standard_normal((2, 4, rank)))
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
    for i in range(n):  # the per-step draw order, one (2, 4, rank) Wishart factor per step
        ranks.append(int(ref.integers(1, 5)))
        assert weights[i] == ref_eps * (1.0 - ref.random())
        assert wishes[i].tobytes() == _wishart(ref.standard_normal((2, 4, ranks[-1]))).tobytes()
        assert support_weighted[i] == (ref.random() < 0.5)
        ref_eps *= 0.9
    assert eps == ref_eps
    assert rng.bit_generator.state == ref.bit_generator.state
    if n > 1:
        assert set(ranks) == {1, 2, 3, 4} and ranks != sorted(ranks)  # interleaved ranks


# sha256 of hill_climb witnesses recorded with the one-proposal-per-step climb.  Being
# bytes, they hold for the floating-point arithmetic of the numpy and BLAS builds they
# were recorded with (numpy 2.4, OpenBLAS 0.3.31, x86-64, the SkylakeX kernel); under the
# Haswell or Zen kernels (OPENBLAS_CORETYPE) every one of them differs.
CLIMB_GOLDEN = {
    ("mems(0.6)", "linear", 60, 1): "3a7d3ff118432ffd4cfac72981a0297480b6252fa17f5435c4f9067f495341c2",
    ("mems(0.6)", "vn", 60, 2): "446b96e7907b8620390864b74eb94b968137d0b73b3a09e020828c9410cc9dad",
    ("werner(0.8)", "linear", 60, 3): "3095d96f26ecde7df58fd7c02f1a25997d9b56fc1315468e567038bf7f6ce4f2",
    ("werner(0.8)", "vn", 60, 4): "6fcc3ea1d610da7b6f08dd1a74ce4192ccb63ab63ad93a90f396245b6661fea2",
    ("ginibre-rank1", "vn", 60, 5): "2475e669c78ed08cd7438c28a7e423e1a4aa6a6e19991d0c8c3a98956ed8f484",
    ("ginibre-rank2", "linear", 60, 6): "4fd9d6e884560d0bb90665fd4e731d0d7448028d819003a82ad83fd75dc6b18f",
}


@pytest.mark.skylakex_bytes
@pytest.mark.parametrize("start, metric, steps, seed", sorted(CLIMB_GOLDEN),
                         ids=[f"{s}-{m}-{n}-seed{r}" for s, m, n, r in sorted(CLIMB_GOLDEN)])
def test_hill_climb_witness_is_pinned(start, metric, steps, seed):
    witness = hill_climb(CLIMB_STARTS[start], MixednessMetric(metric), steps, np.random.default_rng(seed))
    assert not np.array_equal(witness.mat, CLIMB_STARTS[start].mat)
    assert hashlib.sha256(witness.mat.tobytes()).hexdigest() == CLIMB_GOLDEN[start, metric, steps, seed]
