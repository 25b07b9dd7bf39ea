import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memslab.linalg import NotHermitian, NotPSD
from memslab.measures import linear_entropy, measure_report, purity, tangle
from memslab.states import (
    AnsatzParams,
    BellKind,
    NormalizationViolated,
    OutOfRange,
    TraceNotOne,
    ZeroVector,
    ansatz,
    bell,
    format_matrix,
    make_density,
    maximally_mixed,
    mems,
    mems_population,
    overwrite,
    parse_matrix,
    pure_from_vector,
    read_matrix_file,
    validate_stack,
    werner,
    write_matrix_file,
)


def _non_hermitian():
    mat = np.eye(4, dtype=complex) / 4
    mat[0, 1] = 0.2
    return mat


def _non_finite():
    mat = np.eye(4, dtype=complex) / 4
    mat[2, 1] = np.nan
    return mat


# one matrix failing each check of make_density, with the error it raises
BAD = {
    "trace": (np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex), TraceNotOne),
    "psd": (np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex), NotPSD),
    "hermiticity": (_non_hermitian(), NotHermitian),
    "non-finite": (_non_finite(), ValueError),
}


class TestMakeDensity:
    def test_maximally_mixed_is_valid(self):
        state = make_density(np.eye(4, dtype=complex) / 4)
        assert np.allclose(state.mat, np.eye(4) / 4)

    def test_trace_violation(self):
        with pytest.raises(TraceNotOne) as err:
            make_density(np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex))
        assert "1" in str(err.value)  # magnitude is reported

    def test_psd_violation(self):
        with pytest.raises(NotPSD) as err:
            make_density(np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex))
        assert "-5" in str(err.value)

    def test_hermiticity_violation(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.2
        with pytest.raises(NotHermitian):
            make_density(mat)

    def test_non_finite_violation(self):
        with pytest.raises(ValueError, match="non-finite"):
            make_density(_non_finite())

    @pytest.mark.parametrize("k", [0, 2, 4])
    @pytest.mark.parametrize("case", sorted(BAD))
    def test_stack_rejects_like_make_density(self, case, k):
        bad, error = BAD[case]
        with pytest.raises(error) as alone:
            make_density(bad)
        stack = np.stack([mems(0.2 * i).mat for i in range(5)])
        stack[k] = bad
        # later matrices failing the other checks must not mask the first bad one
        later = [BAD[other][0] for other in sorted(BAD) if other != case]
        with pytest.raises(error) as stacked:
            validate_stack(np.concatenate([stack, later]))
        assert type(stacked.value) is type(alone.value)
        assert str(stacked.value) == str(alone.value)

    def test_stack_shapes(self):
        assert validate_stack(np.empty((0, 4, 4))).shape == (0, 4, 4)
        stack = np.stack([werner(0.3).mat, mems(0.7).mat])
        assert np.array_equal(validate_stack(stack), stack)
        for shape in ((4, 4), (2, 4, 3), (1, 2, 4, 4)):
            with pytest.raises(ValueError, match="stack of 4x4"):
                validate_stack(np.zeros(shape))

    def test_no_silent_repair(self):
        nearly = np.eye(4, dtype=complex) / 4 * (1 + 1e-6)
        with pytest.raises(TraceNotOne):
            make_density(nearly)

    def test_result_is_read_only(self):
        state = maximally_mixed()
        with pytest.raises(ValueError):
            state.mat[0, 0] = 9.0


class TestBell:
    def test_phi_plus_entries(self):
        mat = bell(BellKind.PHI_PLUS).mat
        expected = np.zeros((4, 4), dtype=complex)
        for i, j in [(0, 0), (0, 3), (3, 0), (3, 3)]:
            expected[i, j] = 0.5
        assert np.allclose(mat, expected, atol=1e-15)

    def test_psi_minus_entries(self):
        mat = bell(BellKind.PSI_MINUS).mat
        expected = np.zeros((4, 4), dtype=complex)
        expected[1, 1] = expected[2, 2] = 0.5
        expected[1, 2] = expected[2, 1] = -0.5
        assert np.allclose(mat, expected, atol=1e-15)

    @pytest.mark.parametrize("kind", list(BellKind))
    def test_all_kinds_maximally_entangled(self, kind):
        assert tangle(bell(kind)) == pytest.approx(1.0, abs=1e-12)


class TestWerner:
    def test_gamma_one_is_bell(self):
        state = werner(1.0)
        assert np.allclose(state.mat, bell(BellKind.PHI_PLUS).mat, atol=1e-15)
        rep = measure_report(state)
        assert rep.tangle == pytest.approx(1.0, abs=1e-12)
        assert rep.linear_entropy == pytest.approx(0.0, abs=1e-12)

    def test_gamma_one_third_matrix_and_measures(self):
        state = werner(1.0 / 3.0)
        expected = np.diag([1 / 3, 1 / 6, 1 / 6, 1 / 3]).astype(complex)
        expected[0, 3] = expected[3, 0] = 1 / 6
        assert np.allclose(state.mat, expected, atol=1e-15)
        rep = measure_report(state)
        assert rep.tangle == pytest.approx(0.0, abs=1e-12)
        assert rep.linear_entropy == pytest.approx(8 / 9, abs=1e-12)

    def test_gamma_zero_is_maximally_mixed(self):
        state = werner(0.0)
        assert np.allclose(state.mat, np.eye(4) / 4, atol=0)
        assert tangle(state) == 0.0
        assert linear_entropy(state) == pytest.approx(1.0, abs=1e-12)

    def test_eigenvalues(self):
        for gamma in np.linspace(0, 1, 21):
            evs = np.linalg.eigvalsh(werner(gamma).mat)
            expected = sorted([(1 + 3 * gamma) / 4] + [(1 - gamma) / 4] * 3)
            assert np.allclose(evs, expected, atol=1e-12)

    @pytest.mark.parametrize("gamma", [-0.01, 1.01, 2.0])
    def test_out_of_range(self, gamma):
        with pytest.raises(OutOfRange):
            werner(gamma)


class TestMems:
    def test_gamma_one_is_bell(self):
        assert np.allclose(mems(1.0).mat, bell(BellKind.PHI_PLUS).mat, atol=1e-15)

    def test_gamma_zero_matrix(self):
        assert np.allclose(mems(0.0).mat, np.diag([1 / 3, 1 / 3, 0, 1 / 3]), atol=1e-15)

    def test_branch_point(self):
        # both population branches agree exactly at gamma = 2/3
        gamma = 2.0 / 3.0
        assert mems_population(gamma) == pytest.approx(1 / 3, abs=0)
        rep = measure_report(mems(gamma))
        assert rep.tangle == pytest.approx(4 / 9, abs=1e-12)
        assert rep.linear_entropy == pytest.approx(16 / 27, abs=1e-12)

    def test_continuity_at_branch_point(self):
        lo = mems(2 / 3 - 1e-12).mat
        hi = mems(2 / 3 + 1e-12).mat
        assert np.max(np.abs(lo - hi)) < 1e-11

    @pytest.mark.parametrize("gamma", [-1e-9, 1.5])
    def test_out_of_range(self, gamma):
        with pytest.raises(OutOfRange):
            mems(gamma)


class TestAnsatz:
    def test_reduces_to_mems_high_coherence(self):
        # x = y = 0, a = 1 - gamma reproduces the gamma >= 2/3 branch
        for gamma in np.linspace(2 / 3, 1.0, 16):
            params = AnsatzParams(x=0.0, y=0.0, a=1.0 - gamma, b=0.0, gamma=gamma)
            assert np.max(np.abs(ansatz(params).mat - mems(gamma).mat)) <= 1e-15

    def test_reduces_to_mems_low_coherence(self):
        # x = y = 1/3 - gamma/2, a = 1/3 reproduces the frozen branch
        for gamma in np.linspace(0.0, 2 / 3, 16):
            x = 1 / 3 - gamma / 2
            params = AnsatzParams(x=x, y=x, a=1 / 3, b=0.0, gamma=gamma)
            assert np.max(np.abs(ansatz(params).mat - mems(gamma).mat)) <= 1e-15

    def test_pure_coherence_is_bell(self):
        params = AnsatzParams(x=0.0, y=0.0, a=0.0, b=0.0, gamma=1.0)
        assert np.allclose(ansatz(params).mat, bell(BellKind.PHI_PLUS).mat, atol=1e-15)

    def test_normalization_enforced(self):
        with pytest.raises(NormalizationViolated):
            AnsatzParams(x=0.3, y=0.3, a=0.3, b=0.3, gamma=0.3)

    def test_range_enforced(self):
        with pytest.raises(OutOfRange):
            AnsatzParams(x=-0.1, y=0.4, a=0.4, b=0.3, gamma=0.0)


class TestPureAndMixed:
    def test_maximally_mixed_measures(self):
        state = maximally_mixed()
        assert purity(state) == pytest.approx(0.25, abs=1e-15)
        assert linear_entropy(state) == pytest.approx(1.0, abs=1e-15)

    def test_basis_vector(self):
        assert np.allclose(pure_from_vector([1, 0, 0, 0]).mat, np.diag([1.0, 0, 0, 0]), atol=0)

    def test_renormalizes(self):
        state = pure_from_vector([1, 0, 0, 1])
        assert np.allclose(state.mat, bell(BellKind.PHI_PLUS).mat, atol=1e-15)
        scaled = pure_from_vector([2, 0, 0, 2])
        assert np.allclose(scaled.mat, state.mat, atol=1e-15)

    def test_zero_vector(self):
        with pytest.raises(ZeroVector):
            pure_from_vector([0, 0, 0, 0])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_constructors_all_pass_validation(seed):
    rng = np.random.default_rng(seed)
    gamma = float(rng.uniform(0, 1))
    for state in (werner(gamma), mems(gamma), maximally_mixed(), bell(BellKind.PHI_MINUS)):
        make_density(state.mat)  # revalidation must not raise


class TestTextFormat:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(42)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        mat = g @ g.conj().T
        mat /= np.trace(mat).real
        path = tmp_path / "state.mat"
        write_matrix_file(path, mat)
        back = read_matrix_file(path)
        assert np.array_equal(back, mat)  # bitwise

    def test_comments_and_blanks(self):
        text = """
        # a comment line
        0.25,0.0 0.0,0.0 0.0,0.0 0.0,0.0

        0.0,0.0 0.25,0.0 0.0,0.0 0.0,0.0  # trailing comment
        0.0,0.0 0.0,0.0 0.25,0.0 0.0,0.0
        0.0,0.0 0.0,0.0 0.0,0.0 0.25,0.0
        """
        assert np.allclose(parse_matrix(text), np.eye(4) / 4, atol=0)

    @pytest.mark.parametrize("text", [
        "1,0 0,0 0,0\n0,0 1,0 0,0 0,0\n0,0 0,0 1,0 0,0\n0,0 0,0 0,0 1,0",  # short row
        "a,b 0,0 0,0 0,0\n0,0 1,0 0,0 0,0\n0,0 0,0 1,0 0,0\n0,0 0,0 0,0 1,0",  # not numbers
        "1 0 0 0\n0 1 0 0\n0 0 1 0\n0 0 0 1",  # missing imag parts
        "",  # empty
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(ValueError):
            parse_matrix(text)

    def test_write_over_a_longer_file_matches_a_fresh_write(self, tmp_path):
        fresh, used = tmp_path / "fresh.mat", tmp_path / "used.mat"
        used.write_text("x" * 10_000)
        write_matrix_file(fresh, mems(0.3).mat)
        write_matrix_file(used, mems(0.3).mat)
        assert used.read_bytes() == fresh.read_bytes()

    def test_format_is_line_per_row(self):
        text = format_matrix(np.eye(4, dtype=complex) / 4)
        lines = [l for l in text.splitlines() if l.strip()]
        assert len(lines) == 4
        assert all(len(line.split()) == 4 for line in lines)


def test_an_exception_in_the_writer_leaves_the_bytes_written_so_far(tmp_path):
    # the partial file open(path, "w") leaves: no byte of the longer file it replaces survives
    path = tmp_path / "partial.csv"
    path.write_text("x" * 10_000)
    with pytest.raises(RuntimeError):
        with overwrite(path) as handle:
            handle.write("a,b\n1,2\n")
            raise RuntimeError("stopped mid-write")
    assert path.read_bytes() == b"a,b\n1,2\n"


def test_population_branches():
    assert mems_population(0.9) == 0.45
    assert mems_population(0.2) == pytest.approx(1 / 3, abs=0)
    assert math.isclose(mems_population(2 / 3), 1 / 3)
