import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from memslab.filtering import (
    SUCCESS_FLOOR,
    TIE_RTOL,
    FilterOutcome,
    LocalFilter,
    VanishingSuccess,
    apply_filter,
    best_filter,
    kappa_schedule,
    one_sided_filter,
    trajectory,
    two_sided_filter,
)
from memslab.measures import linear_entropy, linear_entropy_of_mat, tangle, tangle_batch, tangle_of_mat
from memslab.states import (
    BellKind,
    DensityMatrix,
    NotHermitian,
    NotPSD,
    OutOfRange,
    bell,
    make_density,
    maximally_mixed,
    mems,
    pure_from_vector,
    validate_stack,
    werner,
)

filter_entries = st.floats(min_value=0.05, max_value=1.0)
filters = st.builds(LocalFilter, filter_entries, filter_entries, filter_entries, filter_entries)
seeds = st.integers(0, 2**32 - 1)
NO_FILTER = LocalFilter(1.0, 1.0, 1.0, 1.0)


def concentrated_weight(gamma, kappa):
    """Closed-form coherence weight after the symmetric two-sided filter."""
    return gamma / (gamma + (1 - gamma) * kappa**2)


class TestLocalFilter:
    @pytest.mark.parametrize("bad", [0.0, -0.2, 1.2])
    def test_entries_validated(self, bad):
        with pytest.raises(OutOfRange):
            LocalFilter(bad, 1.0, 1.0, 1.0)

    def test_diagonal_ordering(self):
        f = LocalFilter(0.2, 0.3, 0.5, 0.7)
        assert np.allclose(f.diagonal(), [0.1, 0.14, 0.15, 0.21])


class TestApplyFilter:
    def test_identity(self):
        state = mems(0.7)
        outcome = apply_filter(state, NO_FILTER)
        assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(outcome.state.mat, state.mat, atol=1e-15)

    def test_concentrates_boundary_state(self):
        # the symmetric kappa filter drives mems(0.8) toward the Bell state
        gamma, kappa = 0.8, 1e-3
        outcome = apply_filter(mems(gamma), two_sided_filter(kappa))
        gp = concentrated_weight(gamma, kappa)
        expected = gp * bell(BellKind.PHI_PLUS).mat
        expected = expected + (1 - gp) * pure_from_vector([0, 1, 0, 0]).mat
        assert np.allclose(outcome.state.mat, expected, atol=1e-12)
        assert tangle(outcome.state) >= 0.999
        assert linear_entropy(outcome.state) <= 1e-3

    def test_success_prob_definition(self):
        state = mems(0.6)
        f = LocalFilter(0.5, 0.9, 0.8, 0.4)
        d = f.diagonal()
        big = (d[:, None] * state.mat) * d[None, :]
        outcome = apply_filter(state, f)
        assert outcome.success_prob == pytest.approx(np.trace(big).real, abs=1e-12)

    def test_unbalances_pure_bell(self):
        # filtering a maximally entangled pure state can only lose tangle
        for kappa in (0.2, 0.5, 0.9):
            outcome = apply_filter(bell(BellKind.PHI_PLUS), LocalFilter(kappa, 1.0, 1.0, 1.0))
            expected_c = 2 * kappa / (1 + kappa**2)  # pure-state concurrence
            assert tangle(outcome.state) == pytest.approx(expected_c**2, abs=1e-12)
            assert tangle(outcome.state) < 1.0

    def test_vanishing_success(self):
        lopsided = pure_from_vector([1, 0, 0, 0])
        with pytest.raises(VanishingSuccess):
            apply_filter(lopsided, LocalFilter(1e-8, 1.0, 1.0, 1.0))

    def test_scalar_on_support_keeps_state(self):
        state = make_density(np.diag([0.5, 0.5, 0.0, 0.0]).astype(complex))
        f = LocalFilter(1.0, 0.3, 1.0, 1.0)  # differs only off the support
        outcome = apply_filter(state, f)
        assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(outcome.state.mat, state.mat, atol=1e-15)

    def test_nonunit_scalar_lowers_success(self):
        outcome = apply_filter(mems(0.5), LocalFilter(0.5, 0.5, 0.5, 0.5))
        assert outcome.success_prob == pytest.approx(0.5**4, abs=1e-12)
        assert np.allclose(outcome.state.mat, mems(0.5).mat, atol=1e-15)


class TestFilterProperties:
    @given(seeds, filters)
    @settings(max_examples=40, deadline=None)
    def test_success_prob_in_range(self, seed, f):
        outcome = apply_filter(random_state(seed), f)
        assert 0.0 < outcome.success_prob <= 1.0 + 1e-12

    @given(seeds, filters, filters)
    @settings(max_examples=40, deadline=None)
    def test_composition(self, seed, f, g):
        state = random_state(seed)
        chained = apply_filter(apply_filter(state, f).state, g)
        merged = apply_filter(state, LocalFilter(f.a0 * g.a0, f.a1 * g.a1, f.b0 * g.b0, f.b1 * g.b1))
        assert np.allclose(chained.state.mat, merged.state.mat, atol=1e-12)
        p_chain = apply_filter(state, f).success_prob * chained.success_prob
        assert p_chain == pytest.approx(merged.success_prob, abs=1e-12)

    @given(seeds, filters)
    @settings(max_examples=40, deadline=None)
    def test_no_entanglement_from_diagonal_states(self, seed, f):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.ones(4))
        state = make_density(np.diag(probs).astype(complex))
        outcome = apply_filter(state, f)
        assert tangle(outcome.state) <= 1e-12


class TestTrajectory:
    def test_symmetric_sweep_monotone(self):
        points = trajectory(mems(0.8), [two_sided_filter(k) for k in kappa_schedule(40)])
        taus = [p.tangle for p in points]
        assert len(points) == 40
        assert all(b >= a - 1e-12 for a, b in zip(taus, taus[1:]))
        assert taus[-1] >= 0.999

    def test_low_coherence_still_improves(self):
        points = trajectory(mems(0.4), [two_sided_filter(k) for k in kappa_schedule(40)])
        assert max(p.tangle for p in points) > 0.16

    def test_identity_schedule(self):
        state = mems(0.55)
        points = trajectory(state, [NO_FILTER])
        assert len(points) == 1
        assert points[0].tangle == pytest.approx(tangle(state), abs=1e-12)
        assert points[0].s_linear == pytest.approx(linear_entropy(state), abs=1e-12)
        assert points[0].success_prob == pytest.approx(1.0, abs=1e-12)

    def test_empty_schedule_rejected(self):
        with pytest.raises(OutOfRange):
            trajectory(mems(0.5), [])

    def test_skips_vanishing_points(self):
        lopsided = pure_from_vector([1, 0, 0, 0])
        schedule = [NO_FILTER, LocalFilter(1e-8, 1.0, 1.0, 1.0)]
        points = trajectory(lopsided, schedule)
        assert len(points) == 1
        assert points[0].filter == NO_FILTER

    def test_one_sided_mode(self):
        points = trajectory(mems(0.8), [one_sided_filter(k) for k in kappa_schedule(20)])
        assert max(p.tangle for p in points) > 0.64

    def test_pure_function_of_inputs(self):
        schedule = [two_sided_filter(k) for k in kappa_schedule(15)]
        first = trajectory(mems(0.6), schedule)
        second = trajectory(mems(0.6), schedule)
        assert [(p.tangle, p.s_linear, p.success_prob) for p in first] == \
               [(p.tangle, p.s_linear, p.success_prob) for p in second]


class TestKappaSchedule:
    def test_geometric_range(self):
        sched = kappa_schedule(100)
        assert sched[0] == 1.0
        assert sched[-1] == pytest.approx(1e-3, abs=1e-15)
        ratios = sched[1:] / sched[:-1]
        assert np.allclose(ratios, ratios[0])

    def test_single_step(self):
        assert kappa_schedule(1).tolist() == [1.0]

    def test_validated(self):
        with pytest.raises(OutOfRange):
            kappa_schedule(0)


class TestBestFilter:
    def test_bell_keeps_identity(self):
        winner, outcome = best_filter(bell(BellKind.PHI_PLUS), grid_resolution=8)
        assert winner == LocalFilter(1.0, 1.0, 1.0, 1.0)
        assert outcome.success_prob == pytest.approx(1.0, abs=1e-12)
        assert tangle(outcome.state) >= 1.0 - 1e-9

    def test_boundary_state_concentrates(self):
        winner, outcome = best_filter(mems(0.8), grid_resolution=20)
        assert tangle(outcome.state) >= 0.99

    def test_maximally_mixed_stays_separable(self):
        winner, outcome = best_filter(maximally_mixed(), grid_resolution=6)
        assert tangle(outcome.state) <= 1e-12
        # exact tangle tie across the whole grid: success probability breaks it
        assert winner == LocalFilter(1.0, 1.0, 1.0, 1.0)

    def test_resolution_validated(self):
        with pytest.raises(OutOfRange):
            best_filter(mems(0.5), grid_resolution=1)

    def test_outcome_type(self):
        _, outcome = best_filter(mems(0.5), grid_resolution=3)
        assert isinstance(outcome, FilterOutcome)


def sequential_best_filter(start, g):
    """Reference reduce: the spin-flip kernel's tangle at every grid point, then one point at a time.

    Every point whose tangle lies within TIE_RTOL (relative) of the largest
    is tied.  Tied points are visited in lexicographic (a0, a1, b0, b1)
    order, and one wins only on a strictly larger success probability (the
    sum of d_i^2 rho_ii, as apply_filter reports it).
    """
    values = np.arange(1, g + 1) / g
    points = list(itertools.product(values, repeat=4))
    d = np.array([LocalFilter(*q).diagonal() for q in points])
    probs = (d * d * start.mat.real.diagonal()).sum(axis=1)
    taus = tangle_batch(d[:, :, None] * start.mat * d[:, None, :] / probs[:, None, None])
    cutoff = taus.max() * (1 - TIE_RTOL)
    best = None
    for q, tau, prob in zip(points, taus, probs):
        if tau >= cutoff and (best is None or prob > best[1]):
            best = (q, prob)
    return LocalFilter(*best[0])


def climb_cell(i, seed=1):
    """The mems start of cell i (of 108) in the filter-climb benchmark workload at ``seed``."""
    jitter = float(np.random.default_rng(seed).random(108)[i])
    return mems((i + 0.5 + 0.8 * (jitter - 0.5)) / 108)


REDUCE_STARTS = ([mems(gamma) for gamma in (0.2, 0.5, 0.8)]
                 + [werner(gamma) for gamma in (0.3, 0.7)]
                 + [random_state(seed, rank) for seed, rank in ((1, 1), (2, 2), (3, 4))]
                 + [maximally_mixed()]  # all-tie case: every grid tangle is 0
                 # start tangles of 2.5e-5 and 1e-4 shrink the closed-form gaps between grid points
                 + [mems(0.005), werner(0.34)]
                 + [random_state(seed, rank) for seed in (11, 12, 13) for rank in (1, 2, 3)]
                 + [climb_cell(i) for i in range(4, 108, 9)])


@pytest.mark.parametrize("g", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("start", range(len(REDUCE_STARTS)))
def test_best_filter_matches_sequential_reduce(start, g):
    state = REDUCE_STARTS[start]
    winner, outcome = best_filter(state, g)
    expected = sequential_best_filter(state, g)
    assert winner == expected
    reference = apply_filter(state, expected)
    assert np.array_equal(outcome.state.mat, reference.state.mat)
    assert outcome.success_prob == reference.success_prob


def test_best_filter_breaks_scale_ties_toward_success():
    # (0.75, 0.75, 1, 1) is the identity scaled by 0.75: the same state at success 0.5625
    winner, outcome = best_filter(werner(0.7), 4)
    assert winner == NO_FILTER
    assert outcome.success_prob == 1.0


IDENTITY_TOL = 1e-12
IDENTITY_STARTS = {
    **{f"ginibre-rank{rank}": random_state(20 + rank, rank) for rank in (1, 2, 3, 4)},
    "mems(0.005)": mems(0.005),
    "mems(0.4)": mems(0.4),
    "mems(0.9)": mems(0.9),
    "werner(0.34)": werner(0.34),
    "werner(0.8)": werner(0.8),
}


@pytest.mark.parametrize("start", sorted(IDENTITY_STARTS))
def test_filtered_tangle_determinant_identity(start):
    """tau(D rho D / p) = tau(rho) (a0 a1 b0 b1 / p)^2 for grid filters, as best_filter assumes."""
    state = IDENTITY_STARTS[start]
    tau = tangle(state)
    rng = np.random.default_rng(7)
    for _ in range(60):
        g = int(rng.integers(2, 21))
        f = LocalFilter(*(float(k) / g for k in rng.integers(1, g + 1, size=4)))
        outcome = apply_filter(state, f)
        closed = tau * (f.a0 * f.a1 * f.b0 * f.b1 / outcome.success_prob) ** 2
        assert abs(tangle(outcome.state) - closed) <= IDENTITY_TOL, f


def x_state_tangle(r):
    """Tangle of an X state (zero off the diagonal and anti-diagonal) from its entries alone."""
    c = 2 * max(0.0, abs(r[0, 3]) - np.sqrt(r[1, 1].real * r[2, 2].real),
                abs(r[1, 2]) - np.sqrt(r[0, 0].real * r[3, 3].real))
    return c * c


X_STARTS = {**{f"mems({gamma})": mems(gamma) for gamma in (0.005, 0.3, 0.6, 0.9)},
            **{f"werner({gamma})": werner(gamma) for gamma in (0.34, 0.5, 0.7, 0.95)}}


@pytest.mark.parametrize("g", [2, 3, 4, 6])
@pytest.mark.parametrize("start", sorted(X_STARTS))
def test_best_filter_matches_x_state_oracle(start, g):
    """Diagonal filters keep the X form: the closed form and the winner are checked without the kernel."""
    state = X_STARTS[start]
    tau = x_state_tangle(state.mat)
    values = np.arange(1, g + 1) / g
    grid_max = 0.0
    for q in itertools.product(values, repeat=4):
        outcome = apply_filter(state, LocalFilter(*q))
        filtered = x_state_tangle(outcome.state.mat)
        assert abs(filtered - tau * (np.prod(q) / outcome.success_prob) ** 2) <= IDENTITY_TOL, q
        grid_max = max(grid_max, filtered)
    _, outcome = best_filter(state, g)
    assert abs(x_state_tangle(outcome.state.mat) - grid_max) <= IDENTITY_TOL


def unchecked_start(kind):
    """A DensityMatrix built without make_density, failing its checks as ``kind`` says.

    The "hidden" starts pass the checks themselves, and so do their filtered
    states near the tangle maximum; only some filters far from it (with
    a1 = 1/6 at g = 6) amplify the defect past HERM_TOL or PSD_CLAMP.
    """
    if kind == "not-psd":
        return DensityMatrix(mat=mems(0.5).mat + np.diag([0.05, 0.05, -0.1, 0.0]))
    if kind == "not-hermitian":
        mat = mems(0.5).mat.copy()
        mat[0, 3] += 0.01
        return DensityMatrix(mat=mat)
    if kind == "hidden-not-psd":
        # eigenvalue -6e-11 along (|00> - |01>)/sqrt(2), a null vector of the entangled part
        psi = np.array([0.5, 0.5, 0.0, np.sqrt(0.5)])
        null = np.array([1.0, -1.0, 0.0, 0.0]) / np.sqrt(2)
        eps = 6e-11
        mat = 0.7 * np.outer(psi, psi) + np.diag([0.0, 0.0, 0.3 + eps, 0.0]) - eps * np.outer(null, null)
        return DensityMatrix(mat=mat.astype(np.complex128))
    # anti-Hermitian 3e-11j on the |00>,|01> coherences of a mems-like start
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = mat[3, 3] = mat[0, 3] = mat[3, 0] = 0.25
    mat[1, 1] = 0.5
    mat[0, 1] = mat[1, 0] = 3e-11j
    return DensityMatrix(mat=mat)


UNCHECKED_KINDS = [("not-psd", NotPSD), ("not-hermitian", NotHermitian),
                   ("hidden-not-psd", NotPSD), ("hidden-not-hermitian", NotHermitian)]


@pytest.mark.parametrize("kind, error", UNCHECKED_KINDS)
def test_best_filter_validates_every_filtered_state(kind, error):
    with pytest.raises(error):
        best_filter(unchecked_start(kind), 6)


@pytest.mark.parametrize("kind, error", UNCHECKED_KINDS)
def test_trajectory_validates_every_filtered_state(kind, error):
    # the g = 6 grid: the kappa schedules keep the hidden defects within tolerance
    schedule = [LocalFilter(*q) for q in itertools.product(np.arange(1, 7) / 6, repeat=4)]
    start = unchecked_start(kind)
    d = np.array([f.diagonal() for f in schedule])
    probs = (d * d * start.mat.real.diagonal()).sum(axis=1)
    d, probs = d[probs > SUCCESS_FLOOR], probs[probs > SUCCESS_FLOOR]
    with pytest.raises(error) as expected:
        validate_stack(d[:, :, None] * start.mat * d[:, None, :] / probs[:, None, None])
    with pytest.raises(error) as raised:
        trajectory(start, schedule)
    assert (type(raised.value), str(raised.value)) == (type(expected.value), str(expected.value))


def per_filter_trajectory(start, schedule):
    """Reference trajectory: apply and measure one filter at a time."""
    points = []
    for f in schedule:
        try:
            outcome = apply_filter(start, f)
        except VanishingSuccess:
            continue
        mat = outcome.state.mat
        points.append((f, linear_entropy_of_mat(mat), tangle_of_mat(mat), outcome.success_prob))
    return points


TRAJECTORY_STARTS = {
    "mems(0.3)": mems(0.3),
    "mems(0.8)": mems(0.8),
    "werner(0.7)": werner(0.7),
    "ginibre-rank1": random_state(1, 1),
    "ginibre-rank2": random_state(2, 2),
    "ginibre-rank4": random_state(3, 4),
    "lopsided": pure_from_vector([1, 1e-9, 0, 0]),
}
SCHEDULES = {
    "two-sided": [two_sided_filter(k) for k in kappa_schedule(20)],
    "one-sided": [one_sided_filter(k) for k in kappa_schedule(20)],
    "identity": [NO_FILTER],
    # kappa below 1e-7 leaves the lopsided start a success probability below SUCCESS_FLOOR
    "deep-one-sided": [one_sided_filter(k) for k in np.geomspace(1.0, 1e-12, 12)],
    "flat": [two_sided_filter(k) for k in np.geomspace(1.0, 1.0, 3)],
}


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("start", sorted(TRAJECTORY_STARTS))
def test_trajectory_matches_per_filter_loop(start, schedule):
    state, filters = TRAJECTORY_STARTS[start], SCHEDULES[schedule]
    points = trajectory(state, filters)
    expected = per_filter_trajectory(state, filters)
    assert [(p.filter, p.s_linear, p.tangle, p.success_prob) for p in points] == expected
    assert all(type(v) is float for p in points for v in (p.s_linear, p.tangle, p.success_prob))
    if start == "lopsided" and schedule == "deep-one-sided":
        assert 0 < len(points) < len(filters)  # some filters skipped, some kept


def test_trajectory_decomposes_each_filtered_state_once(linalg_calls):
    trajectory(TRAJECTORY_STARTS["mems(0.8)"], SCHEDULES["two-sided"])
    # one eigh validates the stack and gives its roots, one SVD their spin-flip values
    assert linalg_calls == {"eigh": 1, "eigvalsh": 0, "svd": 1}


def test_trajectory_with_every_filter_skipped():
    assert trajectory(pure_from_vector([1, 0, 0, 0]), [LocalFilter(1e-8, 1.0, 1.0, 1.0)]) == []
