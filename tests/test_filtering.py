import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_local_unitary, random_state, x_state
from memslab import filtering
from memslab.filtering import (
    SUCCESS_FLOOR,
    TIE_RTOL,
    FilterOutcome,
    LocalFilter,
    VanishingSuccess,
    _diagonals,
    _filtered,
    _success,
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
    TraceNotOne,
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

    def test_steps_must_be_an_integer(self):
        with pytest.raises(TypeError):
            kappa_schedule(3.0)
        assert kappa_schedule(np.int64(3)).tolist() == kappa_schedule(3).tolist()


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

    def test_resolution_must_be_an_integer_before_any_work(self, linalg_calls):
        start = X_STARTS["mems(0.6)"]
        with pytest.raises(TypeError):
            best_filter(start, 4.0)
        assert linalg_calls == {"eigh": 0, "eigvalsh": 0, "svd": 0}
        assert best_filter(start, np.int64(3))[0] == best_filter(start, 3)[0]

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


def full_grid_best_filter(start, g):
    """Reference search: best_filter's reduce after validating every kept grid state, then measuring the start.

    One validate_stack of every kept row raises what validating them in
    blocks does: the error of the first row that fails, in grid order.  A
    start with a non-finite entry raises make_density's error before any
    arithmetic.
    """
    if not np.isfinite(start.mat).all():
        make_density(start.mat)
    values = np.arange(1, g + 1) / g
    a0, a1, b0, b1 = values[:, None, None, None], values[:, None, None], values[:, None], values
    d = _diagonals(a0, a1, b0, b1).reshape(-1, 4)
    p = _success(start.mat, d)
    kept = np.flatnonzero(p > SUCCESS_FLOOR)
    if kept.size == 0:
        raise VanishingSuccess("every grid filter has vanishing success probability")
    validate_stack(_filtered(start.mat, d[kept], p[kept]))
    taus = tangle_of_mat(start.mat) * ((a0 * a1 * b0 * b1).reshape(-1)[kept] / p[kept]) ** 2
    top = kept[taus >= taus.max() * (1 - TIE_RTOL)]
    k = top[np.argmax(p[top])]
    winner = LocalFilter(*(float(values[i]) for i in np.unravel_index(k, (g,) * 4)))
    return winner, FilterOutcome(state=DensityMatrix(mat=_filtered(start.mat, d[k], p[k])), success_prob=float(p[k]))


def search_outcome(search, start, g):
    """The (type, message) of the error a search raises, else its winner, state dtype and bytes, and p."""
    try:
        winner, outcome = search(start, g)
    except ValueError as exc:
        return type(exc), str(exc)
    return winner, outcome.state.mat.dtype, outcome.state.mat.tobytes(), outcome.success_prob


@st.composite
def adversarial_starts(draw):
    """A start built without make_density, near or past the edges of the checks its filtered states face.

    A Ginibre state of rank 1-4, or a mems or X state under a random local
    unitary; its smallest eigenvalue pushed down by up to 1.1e-10, plus
    anti-Hermitian noise of norm up to 5e-11, scaled to a trace in
    [1e-3, 1e6] or of 1e160, sometimes cut to its real part, stored in
    single precision (below 1e160) or given a NaN or infinite entry.
    """
    rng = np.random.default_rng(draw(seeds))
    kind = draw(st.sampled_from(["ginibre", "mems", "x"]))
    if kind == "ginibre":
        mat = random_state(draw(seeds), draw(st.integers(1, 4))).mat
    else:
        base = mems(rng.random()) if kind == "mems" else x_state(*rng.dirichlet(np.ones(5)))
        u = random_local_unitary(rng)
        mat = u @ base.mat @ u.conj().T
    low = np.linalg.eigh(mat)[1][:, 0]
    mat = mat - draw(st.floats(0.0, 1.1e-10)) * np.outer(low, low.conj())
    noise = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    noise = noise - noise.conj().T
    huge = draw(st.integers(0, 9)) == 0  # entries past the range best_filter's certificate takes
    scale = 1e160 if huge else draw(st.one_of(st.just(1.0), st.floats(-3.0, 6.0).map(lambda e: 10.0 ** e)))
    mat = (mat + draw(st.floats(0.0, 5e-11)) * noise / np.linalg.norm(noise)) * scale
    if draw(st.integers(0, 4)) == 0:
        mat = mat.real.copy()
    if not huge and draw(st.integers(0, 4)) == 0:
        mat = mat.astype(np.complex64 if np.iscomplexobj(mat) else np.float32)
    if draw(st.integers(0, 4)) == 0:
        mat[draw(st.integers(0, 3)), draw(st.integers(0, 3))] = draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    return DensityMatrix(mat=mat)


@given(adversarial_starts(), st.sampled_from([2, 4, 6, 9]))
@settings(max_examples=300, deadline=None)
def test_best_filter_matches_full_grid_validation(start, g):
    assert search_outcome(best_filter, start, g) == search_outcome(full_grid_best_filter, start, g)


# a valid start with eigenvalue -9e-11 along |phi->: every filtered state keeps its own above -PSD_CLAMP, but
# best_filter's bound amplifies it by max_i d_i^2 / p, which is large where a filter weights the empty |01>, |10>
PHI_PLUS, PHI_MINUS = np.array([1.0, 0.0, 0.0, 1.0]) / np.sqrt(2), np.array([1.0, 0.0, 0.0, -1.0]) / np.sqrt(2)
PARTLY_VOUCHED = make_density((1 + 9e-11) * np.outer(PHI_PLUS, PHI_PLUS) - 9e-11 * np.outer(PHI_MINUS, PHI_MINUS))


@pytest.mark.parametrize("g, blocks", [(4, 1), (9, 2)])  # 256 and 6561 grid states
def test_best_filter_validates_each_block_once_and_returns_its_winner(g, blocks, linalg_calls, monkeypatch):
    _, outcome = best_filter(X_STARTS["mems(0.6)"], g)
    # the start's one eigvalsh vouches for every grid state; its tangle is one eigh and one SVD
    assert linalg_calls == {"eigh": 1, "eigvalsh": 1, "svd": 1}
    assert not outcome.state.mat.flags.writeable
    stacks = []
    monkeypatch.setattr(filtering, "validate_stack", lambda mats: stacks.append(mats) or validate_stack(mats))
    linalg_calls.update(dict.fromkeys(linalg_calls, 0))
    got = search_outcome(best_filter, PARTLY_VOUCHED, g)
    # one eigvalsh per block of at most 4096 rows the start cannot vouch for, none for the winner
    assert linalg_calls == {"eigh": 1, "eigvalsh": 1 + blocks, "svd": 1}
    assert [len(mats) for mats in stacks[:-1]] == [4096] * (blocks - 1)
    assert isinstance(got[0], LocalFilter) and got == search_outcome(full_grid_best_filter, PARTLY_VOUCHED, g)
    values = np.arange(1, g + 1) / g
    d = _diagonals(values[:, None, None, None], values[:, None, None], values[:, None], values).reshape(-1, 4)
    grid = iter(_filtered(PARTLY_VOUCHED.mat, d, _success(PARTLY_VOUCHED.mat, d)))
    rows = np.concatenate(stacks)
    assert 0 < len(rows) < g ** 4
    assert all(any(np.array_equal(row, later) for later in grid) for row in rows)  # grid rows, in grid order


def unchecked_start(kind):
    """A DensityMatrix built without make_density, failing its checks as ``kind`` says.

    The "hidden" starts pass the checks themselves, and so do their filtered
    states near the tangle maximum; only some filters far from it (with
    a1 = 1/6 at g = 6) amplify the defect past HERM_TOL or PSD_CLAMP.  The
    filtered states of the "trace-2" start pass every check; only the start
    itself fails.  The "complex64" and "int" starts are stored in those
    dtypes, which every check reads as complex128.
    """
    if kind == "trace-2":
        return DensityMatrix(mat=2 * mems(0.5).mat)
    if kind == "hidden-not-hermitian-complex64":
        return DensityMatrix(mat=unchecked_start("hidden-not-hermitian").mat.astype(np.complex64))
    if kind == "int-not-hermitian":
        return DensityMatrix(mat=np.diag([1, 0, 0, 0]) + np.eye(4, k=1, dtype=int))
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


@pytest.mark.parametrize("kind, error", UNCHECKED_KINDS + [("trace-2", TraceNotOne), ("int-not-hermitian", NotHermitian),
                                                           ("hidden-not-hermitian-complex64", NotHermitian)])
def test_best_filter_validates_every_filtered_state(kind, error):
    start = unchecked_start(kind)
    with pytest.raises(error) as expected:
        full_grid_best_filter(start, 6)
    with pytest.raises(error) as raised:
        best_filter(start, 6)
    assert (type(raised.value), str(raised.value)) == (type(expected.value), str(expected.value))


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


@pytest.mark.parametrize("run", [lambda start: apply_filter(start, NO_FILTER),
                                 lambda start: trajectory(start, [NO_FILTER])], ids=["apply_filter", "trajectory"])
def test_start_trace_is_checked_like_make_density(run):
    # dividing by p normalizes the filtered states, so only a check on the start sees its trace of 2
    start = unchecked_start("trace-2")
    with pytest.raises(TraceNotOne) as expected:
        make_density(start.mat)
    with pytest.raises(TraceNotOne) as raised:
        run(start)
    assert str(raised.value) == str(expected.value)


def _non_finite(kind):
    mat = mems(0.5).mat.copy()
    if kind == "nan-diagonal":
        mat[1, 1] = np.nan
    else:
        mat[0, 3] = np.inf if kind == "inf-coherence" else complex(0.25, -np.inf)
    return DensityMatrix(mat=mat)


@pytest.mark.parametrize("kind", ["nan-diagonal", "inf-coherence", "inf-imaginary"])
@pytest.mark.parametrize("run", [lambda start: apply_filter(start, NO_FILTER),
                                 lambda start: trajectory(start, SCHEDULES["two-sided"]),
                                 lambda start: best_filter(start, 4)], ids=["apply_filter", "trajectory", "best_filter"])
def test_non_finite_start_is_rejected_like_make_density(run, kind):
    # before any arithmetic: a NaN p would skip every filter, an infinite entry would warn (an error here)
    start = _non_finite(kind)
    with pytest.raises(ValueError) as expected:
        make_density(start.mat)
    with pytest.raises(ValueError) as raised:
        run(start)
    assert (type(raised.value), str(raised.value)) == (ValueError, str(expected.value))


def test_trajectory_with_every_filter_skipped():
    assert trajectory(pure_from_vector([1, 0, 0, 0]), [LocalFilter(1e-8, 1.0, 1.0, 1.0)]) == []
