import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_local_unitary, random_state
from memslab.linalg import NotHermitian, NotPSD
from memslab.measures import (
    SPIN_FLIP_MAT,
    MeasureReport,
    binary_entropy,
    concurrence,
    eof,
    eof_from_tangle,
    linear_entropy,
    linear_entropy_batch,
    linear_entropy_of_mat,
    measure_report,
    negativity,
    partial_transpose,
    purity,
    purity_batch,
    tangle,
    tangle_batch,
    tangle_of_mat,
    von_neumann_batch,
    von_neumann_entropy,
    wootters_lambdas,
)
from memslab import cli
from memslab.filtering import apply_filter, kappa_schedule, one_sided_filter, trajectory, two_sided_filter
from memslab.sampling import EnsembleSpec, GinibreRank, PerturbAbout, PureMixture, sample_states
from memslab.states import (
    AnsatzParams,
    BellKind,
    DensityMatrix,
    TraceNotOne,
    ansatz,
    bell,
    digest,
    make_density,
    maximally_mixed,
    mems,
    validate_stack,
    werner,
)

seeds = st.integers(0, 2**32 - 1)


def brute_force_lambdas(rho):
    """Oracle: direct eigenvalues of the (non-Hermitian) product rho rhotilde."""
    tilde = SPIN_FLIP_MAT @ rho.mat.conj() @ SPIN_FLIP_MAT
    evs = np.linalg.eigvals(rho.mat @ tilde)
    return np.sqrt(np.abs(np.sort(evs.real)))[::-1]


def pt_oracle(mat):
    """Oracle: explicit index-shuffle partial transpose on the second qubit."""
    out = np.zeros((4, 4), dtype=complex)
    for ia in range(2):
        for ib in range(2):
            for ja in range(2):
                for jb in range(2):
                    out[2 * ia + jb, 2 * ja + ib] = mat[2 * ia + ib, 2 * ja + jb]
    return out


class TestSpinFlip:
    def test_spin_flip_mat_antidiagonal(self):
        # hand expansion of sigma_y (x) sigma_y: anti-diagonal (-1, +1, +1, -1), an involution
        expected = np.zeros((4, 4))
        expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
        assert np.array_equal(SPIN_FLIP_MAT, expected)
        assert np.array_equal(SPIN_FLIP_MAT @ SPIN_FLIP_MAT, np.eye(4))


class TestWoottersLambdas:
    def test_bell(self):
        lam = wootters_lambdas(bell(BellKind.PHI_PLUS))
        assert np.allclose(lam, [1, 0, 0, 0], atol=1e-12)

    def test_maximally_mixed(self):
        lam = wootters_lambdas(maximally_mixed())
        assert np.allclose(lam, [0.25] * 4, atol=1e-14)

    def test_werner_difference_identity(self):
        for gamma in np.linspace(0, 1, 21):
            lam = wootters_lambdas(werner(gamma))
            assert lam[0] - lam[1] - lam[2] - lam[3] == pytest.approx((3 * gamma - 1) / 2, abs=1e-12)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        state = random_state(seed)
        assert np.allclose(wootters_lambdas(state), brute_force_lambdas(state), atol=1e-8)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_descending_nonnegative_and_sum_rule(self, seed):
        state = random_state(seed)
        lam = wootters_lambdas(state)
        assert np.all(np.diff(lam) <= 0) and lam[3] >= 0
        tilde = SPIN_FLIP_MAT @ state.mat.conj() @ SPIN_FLIP_MAT
        assert (lam ** 2).sum() == pytest.approx(np.trace(state.mat @ tilde).real, abs=1e-10)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_pure_states_have_single_lambda(self, seed):
        state = random_state(seed, rank=1)
        lam = wootters_lambdas(state)
        assert np.all(lam[1:] <= 1e-8)


class TestConcurrenceTangle:
    def test_bell(self):
        assert concurrence(bell(BellKind.PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)
        assert tangle(bell(BellKind.PHI_PLUS)) == pytest.approx(1.0, abs=1e-12)

    def test_werner_separability_threshold(self):
        assert concurrence(werner(1 / 3)) == pytest.approx(0.0, abs=1e-12)
        assert concurrence(werner(0.34)) > 0.0
        assert concurrence(werner(0.32)) == 0.0

    def test_mems_closed_form(self):
        for gamma in np.linspace(0, 1, 101):
            assert concurrence(mems(gamma)) == pytest.approx(gamma, abs=1e-12)
            assert tangle(mems(gamma)) == pytest.approx(gamma * gamma, abs=1e-12)


class TestEof:
    def test_endpoints(self):
        assert eof(bell(BellKind.PSI_PLUS)) == pytest.approx(1.0, abs=1e-12)
        assert eof(maximally_mixed()) == 0.0

    def test_mems_08(self):
        # h(0.8) computed independently from the binary-entropy definition
        expected = -(0.8 * math.log2(0.8) + 0.2 * math.log2(0.2))
        assert eof(mems(0.8)) == pytest.approx(expected, abs=1e-12)

    def test_strictly_increasing_in_tangle(self):
        taus = np.linspace(1e-6, 1.0, 500)
        values = [eof_from_tangle(t) for t in taus]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_binary_entropy_edges(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0
        assert binary_entropy(0.5) == 1.0


class TestMixedness:
    def test_pure_state(self):
        state = bell(BellKind.PHI_MINUS)
        assert linear_entropy(state) == pytest.approx(0.0, abs=1e-12)
        assert von_neumann_entropy(state) == pytest.approx(0.0, abs=1e-8)

    def test_maximally_mixed(self):
        state = maximally_mixed()
        assert linear_entropy(state) == pytest.approx(1.0, abs=1e-15)
        assert von_neumann_entropy(state) == pytest.approx(math.log(4), abs=1e-12)

    def test_werner_linear_entropy(self):
        for gamma in np.linspace(0, 1, 21):
            assert linear_entropy(werner(gamma)) == pytest.approx(1 - gamma**2, abs=1e-12)

    def test_werner_third_von_neumann(self):
        expected = -(0.5 * math.log(0.5) + 3 * (1 / 6) * math.log(1 / 6))
        assert von_neumann_entropy(werner(1 / 3)) == pytest.approx(expected, abs=1e-12)


class TestNegativity:
    def test_bell(self):
        assert negativity(bell(BellKind.PHI_PLUS)) == pytest.approx(0.5, abs=1e-12)

    def test_maximally_mixed(self):
        assert negativity(maximally_mixed()) == 0.0

    def test_werner_closed_form(self):
        for gamma in np.linspace(0, 1, 21):
            expected = max(0.0, (3 * gamma - 1) / 4)
            assert negativity(werner(gamma)) == pytest.approx(expected, abs=1e-12)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_partial_transpose_matches_oracle(self, seed):
        state = random_state(seed)
        assert np.allclose(partial_transpose(state), pt_oracle(state.mat), atol=0)


class TestMeasureReport:
    def test_werner_one(self):
        rep = measure_report(werner(1.0))
        assert rep.purity == pytest.approx(1.0, abs=1e-12)
        assert rep.linear_entropy == pytest.approx(0.0, abs=1e-12)
        assert rep.tangle == pytest.approx(1.0, abs=1e-12)
        assert rep.eof == pytest.approx(1.0, abs=1e-12)

    def test_mems_zero(self):
        rep = measure_report(mems(0.0))
        assert rep.tangle == pytest.approx(0.0, abs=1e-12)
        assert rep.linear_entropy == pytest.approx(8 / 9, abs=1e-12)

    def test_maximally_mixed(self):
        rep = measure_report(maximally_mixed())
        assert (rep.purity, rep.linear_entropy, rep.tangle, rep.eof) == (0.25, 1.0, 0.0, 0.0)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_internal_consistency(self, seed):
        rep = measure_report(random_state(seed))
        assert rep.linear_entropy == pytest.approx((4 / 3) * (1 - rep.purity), abs=1e-12)
        assert rep.tangle == pytest.approx(rep.concurrence**2, abs=1e-12)
        assert 0.25 <= rep.purity <= 1.0 + 1e-12
        assert -1e-12 <= rep.negativity <= 0.5 + 1e-12


class TestLocalUnitaryInvariance:
    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_all_measures_invariant(self, seed):
        rng = np.random.default_rng(seed)
        state = random_state(seed)
        u = random_local_unitary(rng)
        rotated = make_density(u @ state.mat @ u.conj().T)
        a, b = measure_report(state), measure_report(rotated)
        for field in MeasureReport.FIELDS:
            assert abs(getattr(a, field) - getattr(b, field)) < 1e-9, field


class TestAnsatzClosedForms:
    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=80, deadline=None)
    def test_concurrence_and_linear_entropy(self, seed):
        rng = np.random.default_rng(seed)
        raw = rng.dirichlet(np.ones(5))
        x, y, a, b, gamma = (float(v) for v in raw)
        # stay numerically clear of the PSD boundary where the spin-flip
        # spectrum develops sqrt-kinks
        assume((x + gamma / 2) * (y + gamma / 2) - (gamma / 2) ** 2 > 1e-8)
        params = AnsatzParams(x=x, y=y, a=a, b=b, gamma=gamma)
        state = ansatz(params)
        expected_c = max(gamma - 2 * math.sqrt(a * b), 0.0)
        assert concurrence(state) == pytest.approx(expected_c, abs=1e-10)
        expected_sl = (4 / 3) * (1 - a*a - b*b - x*x - y*y - gamma * (x + y) - gamma*gamma)
        assert linear_entropy(state) == pytest.approx(expected_sl, abs=1e-10)

    def test_boundary_family_member(self):
        # exact boundary case: mems(0.5) as ansatz parameters
        params = AnsatzParams(x=1 / 3 - 0.25, y=1 / 3 - 0.25, a=1 / 3, b=0.0, gamma=0.5)
        state = ansatz(params)
        assert concurrence(state) == pytest.approx(0.5, abs=1e-12)


class TestConcurrenceNegativityAgreement:
    def test_classification_agreement(self):
        disagreements = 0
        for seed in range(1000):
            state = random_state(seed)
            c, n = concurrence(state), negativity(state)
            if (c > 1e-7) != (n > 1e-7):
                disagreements += 1
        assert disagreements == 0


def kernel_states():
    """Ginibre states of every rank plus mems, werner and Bell family members."""
    mats = [random_state(seed, rank).mat for rank in (1, 2, 3, 4) for seed in range(16)]
    for gamma in np.linspace(0, 1, 11):
        mats += [mems(gamma).mat, werner(gamma).mat]
    mats += [bell(kind).mat for kind in BellKind]
    return np.stack(mats)


def test_tangle_batch_matches_scalar():
    mats = kernel_states()
    scalar = np.array([tangle_of_mat(m) for m in mats])
    assert np.array_equal(tangle_batch(mats), scalar)
    assert tangle_batch(mats[:0]).shape == (0,)
    # only (n, 4, 4) stacks: a stack of stacks and a single unstacked matrix are rejected
    with pytest.raises(ValueError):
        tangle_batch(mats.reshape(-1, 2, 4, 4))
    with pytest.raises(ValueError):
        tangle_batch(mats[0])


@pytest.mark.parametrize("bad, error", [
    (np.diag([0.5, 0.5, 0.1, -0.1]).astype(complex), NotPSD),
    (np.diag([0.25] * 4).astype(complex) + np.diag([0.1j], 3), NotHermitian),
    (2 * np.diag([0.25] * 4).astype(complex), TraceNotOne),
])
def test_tangle_batch_rejects_a_non_state_in_the_stack(bad, error):
    mats = kernel_states()
    mats[5] = bad
    with pytest.raises(error):
        tangle_batch(mats)
    with pytest.raises(error):
        tangle_of_mat(bad)
    with pytest.raises(error):
        concurrence(DensityMatrix(mat=bad))  # built without make_density


MEMS_08 = mems(0.8)  # built before linalg_calls starts counting


def test_tangle_decomposes_the_state_once(linalg_calls):
    assert tangle(MEMS_08) == pytest.approx(0.64, abs=1e-12)
    # one eigh validates the state and gives its root, one SVD its spin-flip values
    assert linalg_calls == {"eigh": 1, "eigvalsh": 0, "svd": 1}


def reference_von_neumann(mat):
    """-Tr[rho ln rho] of one matrix: its own eigvalsh, then the ascending math.log loop."""
    total = 0.0
    for p in np.linalg.eigvalsh(mat).tolist():
        if p > 0.0:
            total -= p * math.log(p)
    return total


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
@pytest.mark.parametrize("count", [1, 40, 300])
def test_von_neumann_batch_matches_single_matrix_reference(rank, count):
    mats = np.concatenate(list(sample_states(EnsembleSpec(GinibreRank(rank), count, seed=rank * 1000 + count))))
    expected = np.array([reference_von_neumann(mat) for mat in mats])
    assert len(mats) == count
    assert np.array_equal(von_neumann_batch(mats), expected)  # bit for bit, not approx


@pytest.mark.parametrize("state", [bell(BellKind.PHI_PLUS), werner(0.0), mems(0.6)], ids=["bell", "werner0", "mems0.6"])
def test_von_neumann_entropy_matches_single_matrix_reference(state):
    assert von_neumann_entropy(state) == reference_von_neumann(state.mat)
    assert von_neumann_batch(state.mat[None])[0] == reference_von_neumann(state.mat)


def reference_purity(mat):
    """Tr[rho^2] of one matrix as np.vdot of its 16 entries with themselves."""
    return float(np.vdot(mat, mat).real)


def reference_linear_entropy(mat):
    return (4.0 / 3.0) * (1.0 - reference_purity(mat))


PURITY_KINDS = {
    **{f"GinibreRank({k})": GinibreRank(k) for k in (1, 2, 3, 4)},
    **{f"PureMixture({m})": PureMixture(m) for m in (2, 3, 6)},
    **{f"PerturbAbout(mems({g}))": PerturbAbout(mems(g), 0.05) for g in (0.1, 0.5, 0.9)},
}


@pytest.mark.parametrize("name", sorted(PURITY_KINDS))
@pytest.mark.parametrize("count", [1, 40, 300])
def test_purity_batch_matches_per_slice_vdot_reference(name, count):
    mats = validate_stack(np.concatenate(list(sample_states(EnsembleSpec(PURITY_KINDS[name], count, seed=count)))))
    expected = np.array([reference_purity(mat) for mat in mats])
    assert np.array_equal(purity_batch(mats), expected)  # bit for bit, not approx
    assert np.array_equal(linear_entropy_batch(mats), np.array([reference_linear_entropy(mat) for mat in mats]))
    assert [purity_batch(mat[None])[0] for mat in mats[:5]] == expected[:5].tolist()  # one-state stacks
    assert np.array_equal(purity_batch(mats[::3]), expected[::3])  # a strided view


@pytest.mark.parametrize("family", [mems, werner], ids=["mems", "werner"])
@pytest.mark.parametrize("make", [two_sided_filter, one_sided_filter], ids=["two-sided", "one-sided"])
def test_linear_entropy_matches_vdot_reference_on_filtered_grids(family, make):
    schedule = [make(float(k)) for k in kappa_schedule(40)]
    for gamma in np.linspace(0.02, 0.98, 25).tolist():
        start = family(gamma)
        filtered = [apply_filter(start, f).state.mat for f in schedule]
        expected = [reference_linear_entropy(mat) for mat in filtered]
        assert linear_entropy_batch(np.array(filtered)).tolist() == expected
        assert [point.s_linear for point in trajectory(start, schedule)] == expected


MEASURED_STATES = [bell(kind) for kind in BellKind] + [maximally_mixed()] + [
    family(gamma) for family in (werner, mems) for gamma in (0.0, 0.1, 0.3, 0.5, 2 / 3, 0.9, 1.0)]


@pytest.mark.parametrize("state", MEASURED_STATES, ids=lambda state: digest(state.mat)[:12])
def test_one_state_purity_matches_vdot_reference(state):
    assert purity(state) == reference_purity(state.mat)
    assert linear_entropy(state) == linear_entropy_of_mat(state.mat) == reference_linear_entropy(state.mat)


@pytest.mark.parametrize("family", cli.FAMILIES)
def test_measure_prints_the_vdot_purity_of_every_family(family, capsys):
    gammas = (0.0, 0.3, 2 / 3, 1.0) if family in ("werner", "mems") else (None,)
    for gamma in gammas:
        flags = [] if gamma is None else ["--gamma", repr(gamma)]
        assert cli.run(["measure", "--family", family, *flags]) == 0
        lines = capsys.readouterr().out.splitlines()
        mat = cli._family_state(family, gamma).mat
        assert lines[:2] == [f"purity={cli.fmt(reference_purity(mat))}",
                             f"linear_entropy={cli.fmt(reference_linear_entropy(mat))}"]


def test_report_fields_tuple():
    assert MeasureReport.FIELDS == ("purity", "linear_entropy", "von_neumann",
                                    "concurrence", "tangle", "eof", "negativity")
