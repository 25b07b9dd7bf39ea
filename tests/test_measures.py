import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_local_unitary, random_state
from memslab.measures import (
    SPIN_FLIP_MAT,
    MeasureReport,
    binary_entropy,
    concurrence,
    eof,
    eof_from_tangle,
    linear_entropy,
    measure_report,
    negativity,
    partial_transpose,
    purity,
    spin_flip,
    tangle,
    tangle_batch,
    tangle_of_mat,
    von_neumann_entropy,
    wootters_lambdas,
)
from memslab.states import (
    AnsatzParams,
    BellKind,
    DensityMatrix,
    ansatz,
    bell,
    make_density,
    maximally_mixed,
    mems,
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

    def test_bell_invariant(self):
        state = bell(BellKind.PHI_PLUS)
        assert np.allclose(spin_flip(state), state.mat, atol=1e-15)

    def test_maximally_mixed_invariant(self):
        state = maximally_mixed()
        assert np.allclose(spin_flip(state), state.mat, atol=0)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_involution(self, seed):
        state = random_state(seed)
        flipped = make_density(spin_flip(state))
        assert np.allclose(spin_flip(flipped), state.mat, atol=1e-14)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_same_spectrum(self, seed):
        state = random_state(seed)
        assert np.allclose(np.linalg.eigvalsh(spin_flip(state)),
                           np.linalg.eigvalsh(state.mat), atol=1e-12)


class TestWoottersLambdas:
    def test_bell(self):
        lam = wootters_lambdas(bell(BellKind.PHI_PLUS)).lambdas
        assert np.allclose(lam, [1, 0, 0, 0], atol=1e-12)

    def test_maximally_mixed(self):
        lam = wootters_lambdas(maximally_mixed()).lambdas
        assert np.allclose(lam, [0.25] * 4, atol=1e-14)

    def test_werner_difference_identity(self):
        for gamma in np.linspace(0, 1, 21):
            lam = wootters_lambdas(werner(gamma)).lambdas
            assert lam[0] - lam[1] - lam[2] - lam[3] == pytest.approx((3 * gamma - 1) / 2, abs=1e-12)

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_oracle(self, seed):
        state = random_state(seed)
        assert np.allclose(wootters_lambdas(state).lambdas, brute_force_lambdas(state), atol=1e-8)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_descending_nonnegative_and_sum_rule(self, seed):
        state = random_state(seed)
        lam = wootters_lambdas(state).lambdas
        assert np.all(np.diff(lam) <= 0) and lam[3] >= 0
        tilde = SPIN_FLIP_MAT @ state.mat.conj() @ SPIN_FLIP_MAT
        assert (lam ** 2).sum() == pytest.approx(np.trace(state.mat @ tilde).real, abs=1e-10)

    @given(seeds)
    @settings(max_examples=40, deadline=None)
    def test_pure_states_have_single_lambda(self, seed):
        state = random_state(seed, rank=1)
        lam = wootters_lambdas(state).lambdas
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


def test_tangle_batch_matches_scalar():
    mats = np.stack([random_state(s).mat for s in range(64)])
    batched = tangle_batch(mats)
    scalar = np.array([tangle_of_mat(m) for m in mats])
    assert np.allclose(batched, scalar, atol=1e-12)


def test_report_fields_tuple():
    assert MeasureReport.FIELDS == ("purity", "linear_entropy", "von_neumann",
                                    "concurrence", "tangle", "eof", "negativity")


def test_spin_flip_returns_plain_matrix():
    out = spin_flip(maximally_mixed())
    assert isinstance(out, np.ndarray) and not isinstance(out, DensityMatrix)
