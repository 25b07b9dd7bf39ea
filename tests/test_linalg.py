import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_state
from memslab.linalg import HERM_TOL, NotHermitian, NotPSD, as_cmat, hermitian_eig, psd_sqrt
from memslab.measures import SPIN_FLIP_MAT
from memslab.states import maximally_mixed, validate_stack, werner

SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
I4 = np.eye(4, dtype=complex)


def random_complex(rng, n=4):
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def random_hermitian(rng, n=4):
    a = random_complex(rng, n)
    return a + a.conj().T


def test_mul_spin_flip_involutory():
    s = np.kron(SIGMA_Y, SIGMA_Y)
    assert np.allclose(s @ s, I4, atol=0)
    assert np.array_equal(SPIN_FLIP_MAT @ SPIN_FLIP_MAT, np.eye(4))


def test_kron_spin_flip_antidiagonal():
    # hand expansion of sigma_y (x) sigma_y: anti-diagonal (-1, +1, +1, -1)
    s = np.kron(SIGMA_Y, SIGMA_Y)
    expected = np.zeros((4, 4), dtype=complex)
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    assert np.allclose(s, expected, atol=0)
    assert np.array_equal(SPIN_FLIP_MAT, expected.real)


def test_hermitian_eig_diagonal():
    w, _ = hermitian_eig(np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex))
    assert np.allclose(w, [1, 2, 3, 4], atol=1e-14)


def test_hermitian_eig_werner_spectrum():
    # hand-derived spectrum of the Werner matrix: (1+3g)/4 once, (1-g)/4 thrice
    g = 0.62
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    mat = (1 - g) / 4 * I4 + g * np.outer(phi, phi)
    w, _ = hermitian_eig(mat)
    expected = np.array([(1 - g) / 4] * 3 + [(1 + 3 * g) / 4])
    assert np.allclose(w, expected, atol=1e-12)


def test_hermitian_eig_projector():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    w, _ = hermitian_eig(np.outer(phi, phi))
    assert np.allclose(w, [0, 0, 0, 1], atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        hermitian_eig(bad)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_hermitian_eig_invariants(seed):
    rng = np.random.default_rng(seed)
    h = random_hermitian(rng)
    w, v = hermitian_eig(h)
    scale = max(1.0, np.linalg.norm(h))
    assert np.all(np.diff(w) >= 0)
    assert np.linalg.norm(v @ np.diag(w) @ v.conj().T - h) <= 1e-12 * scale
    assert np.linalg.norm(v.conj().T @ v - I4) <= 1e-12
    assert abs(w.sum() - np.trace(h).real) <= 1e-12 * scale


def test_psd_sqrt_identity_and_diagonal():
    assert np.allclose(psd_sqrt(I4), I4, atol=1e-14)
    assert np.allclose(psd_sqrt(np.diag([4.0, 1.0, 0.0, 9.0]).astype(complex)),
                       np.diag([2.0, 1.0, 0.0, 3.0]), atol=1e-14)


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=50, deadline=None)
def test_psd_sqrt_squares_and_commutes(seed):
    rng = np.random.default_rng(seed)
    a = random_complex(rng)
    h = a @ a.conj().T
    h /= np.trace(h).real  # keep scales tame
    r = psd_sqrt(h)
    assert np.linalg.norm(r @ r - h) <= 1e-10
    assert np.linalg.norm(r @ h - h @ r) <= 1e-10
    assert np.linalg.norm(r - r.conj().T) == 0.0


def test_psd_sqrt_rejects_negative():
    with pytest.raises(NotPSD):
        psd_sqrt(np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex))


def test_purity_of_kernel_ops():
    # same input => bit-identical output, input untouched
    rng = np.random.default_rng(11)
    a = random_complex(rng)
    h = a @ a.conj().T
    before = h.copy()
    first, second = psd_sqrt(h), psd_sqrt(h)
    assert np.array_equal(first, second)
    assert np.array_equal(h, before)


def test_as_cmat_rejects_non_finite():
    bad = np.zeros((4, 4), dtype=complex)
    bad[2, 2] = np.nan
    with pytest.raises(ValueError):
        as_cmat(bad)


def test_psd_sqrt_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        psd_sqrt(bad)


def test_stacked_kernels_match_per_matrix():
    rng = np.random.default_rng(5)
    a = rng.standard_normal((3, 5, 4, 4)) + 1j * rng.standard_normal((3, 5, 4, 4))
    stack = a @ a.conj().swapaxes(-1, -2)
    stack[0, 0] = np.diag(np.arange(4, dtype=float))  # exact zero eigenvalue
    (w, v), roots = hermitian_eig(stack), psd_sqrt(stack)
    for idx in np.ndindex(3, 5):
        single_w, single_v = hermitian_eig(stack[idx])
        assert np.array_equal(w[idx], single_w)
        assert np.array_equal(v[idx], single_v)
        assert np.array_equal(roots[idx], psd_sqrt(stack[idx]))


def non_psd():
    return np.diag([1.0, 1.0, 1.0, -1e-6]).astype(complex)


def non_hermitian():
    bad = np.eye(4, dtype=complex)
    bad[0, 1] = 1e-6
    return bad


def non_finite():
    bad = np.eye(4, dtype=complex)
    bad[3, 3] = np.inf
    return bad


@pytest.mark.parametrize("kernel, bad, error", [
    (psd_sqrt, non_psd, NotPSD),
    (psd_sqrt, non_hermitian, NotHermitian),
    (hermitian_eig, non_hermitian, NotHermitian),
    (hermitian_eig, non_finite, ValueError),
])
def test_stack_with_one_bad_matrix_rejected(kernel, bad, error):
    stack = np.stack([I4 / 4] * 6)
    stack[4] = bad()
    with pytest.raises(error):
        kernel(stack)


@pytest.mark.parametrize("shape", [(4,), (3, 3), (2, 4, 4, 2), (4, 2), (5, 2, 2)])
def test_kernel_rejects_non_square_stacks(shape):
    with pytest.raises(ValueError):
        hermitian_eig(np.zeros(shape, dtype=complex))


def rejects_as_not_hermitian(check, mat) -> bool:
    try:
        check(mat)
    except NotHermitian:
        return True
    return False


@pytest.mark.parametrize("factor", [0.5, 0.99, 1.01, 2.0])
def test_validation_and_kernel_share_one_hermiticity_test(factor):
    # rho + K with K anti-Hermitian: ||(rho + K) - (rho + K)^dag||_F = ||2K||_F = 2 sqrt(2) delta
    delta = factor * HERM_TOL / (2.0 * np.sqrt(2.0))
    skew = np.zeros((4, 4))
    skew[0, 1], skew[1, 0] = delta, -delta
    for state in (maximally_mixed(), werner(0.5), random_state(3)):
        mat = state.mat + skew
        in_validation = rejects_as_not_hermitian(lambda m: validate_stack(m[None]), mat)
        assert in_validation == rejects_as_not_hermitian(psd_sqrt, mat) == (factor > 1.0)


def test_kernels_and_validation_take_any_memory_layout():
    mats = np.stack([maximally_mixed().mat, werner(0.5).mat, random_state(3).mat])
    strided = np.ascontiguousarray(mats.transpose(1, 2, 0)).transpose(2, 0, 1)  # equal to mats, no contiguous axis
    assert np.array_equal(strided, mats) and not strided.flags.c_contiguous
    assert np.array_equal(validate_stack(strided), mats)
    assert np.array_equal(psd_sqrt(strided), psd_sqrt(mats))
