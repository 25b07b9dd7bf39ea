import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from memslab.filtering import (
    IDENTITY_FILTER,
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
    OutOfRange,
    bell,
    make_density,
    maximally_mixed,
    mems,
    pure_from_vector,
    werner,
)

filter_entries = st.floats(min_value=0.05, max_value=1.0)
filters = st.builds(LocalFilter, filter_entries, filter_entries, filter_entries, filter_entries)
seeds = st.integers(0, 2**32 - 1)


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

    def test_compose_is_entrywise(self):
        f = LocalFilter(0.5, 1.0, 0.25, 1.0)
        g = LocalFilter(0.5, 0.5, 1.0, 0.5)
        assert f.compose(g) == LocalFilter(0.25, 0.5, 0.25, 0.5)


class TestApplyFilter:
    def test_identity(self):
        state = mems(0.7)
        outcome = apply_filter(state, IDENTITY_FILTER)
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
        merged = apply_filter(state, f.compose(g))
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
        points = trajectory(state, [IDENTITY_FILTER])
        assert len(points) == 1
        assert points[0].tangle == pytest.approx(tangle(state), abs=1e-12)
        assert points[0].s_linear == pytest.approx(linear_entropy(state), abs=1e-12)
        assert points[0].success_prob == pytest.approx(1.0, abs=1e-12)

    def test_empty_schedule_rejected(self):
        with pytest.raises(OutOfRange):
            trajectory(mems(0.5), [])

    def test_skips_vanishing_points(self):
        lopsided = pure_from_vector([1, 0, 0, 0])
        schedule = [IDENTITY_FILTER, LocalFilter(1e-8, 1.0, 1.0, 1.0)]
        points = trajectory(lopsided, schedule)
        assert len(points) == 1
        assert points[0].filter == IDENTITY_FILTER

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

    @pytest.mark.parametrize("kappa_lo", [0.0, -1.0, float("nan"), 1.5, float("inf")])
    @pytest.mark.parametrize("steps", [1, 5])
    def test_kappa_lo_validated(self, steps, kappa_lo):
        with pytest.raises(OutOfRange):
            kappa_schedule(steps, kappa_lo)

    def test_flat_schedule(self):
        assert kappa_schedule(3, 1.0).tolist() == [1.0, 1.0, 1.0]


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
    """Reference reduce: one grid point at a time, keeping the first strict improvement.

    Points are visited in lexicographic (a0, a1, b0, b1) order; a point wins
    on larger tangle, or on equal tangle and larger success probability.
    """
    values = np.arange(1, g + 1) / g
    points = list(itertools.product(values, repeat=4))
    d = np.array([LocalFilter(*q).diagonal() for q in points])
    probs = (d * d) @ start.mat.real.diagonal()
    taus = tangle_batch(d[:, :, None] * start.mat * d[:, None, :] / probs[:, None, None])
    best = None
    for q, tau, prob in zip(points, taus, probs):
        if best is None or tau > best[1] or (tau == best[1] and prob > best[2]):
            best = (q, tau, prob)
    return LocalFilter(*best[0])


REDUCE_STARTS = ([mems(gamma) for gamma in (0.2, 0.5, 0.8)]
                 + [werner(gamma) for gamma in (0.3, 0.7)]
                 + [random_state(seed, rank) for seed, rank in ((1, 1), (2, 2), (3, 4))]
                 + [maximally_mixed()])  # all-tie case: every grid tangle is 0


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
    "identity": [IDENTITY_FILTER],
    # kappa below 1e-7 leaves the lopsided start a success probability below SUCCESS_FLOOR
    "deep-one-sided": [one_sided_filter(k) for k in kappa_schedule(12, 1e-12)],
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


def test_trajectory_with_every_filter_skipped():
    assert trajectory(pure_from_vector([1, 0, 0, 0]), [LocalFilter(1e-8, 1.0, 1.0, 1.0)]) == []
