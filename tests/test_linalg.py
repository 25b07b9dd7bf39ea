import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from memslab.linalg import HermEig, NotHermitian, NotPSD, as_cmat, hermitian_eig, psd_sqrt
from memslab.measures import SPIN_FLIP_MAT

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
    dec = hermitian_eig(np.diag([4.0, 3.0, 2.0, 1.0]).astype(complex))
    assert np.allclose(dec.eigenvalues, [1, 2, 3, 4], atol=1e-14)


def test_hermitian_eig_werner_spectrum():
    # hand-derived spectrum of the Werner matrix: (1+3g)/4 once, (1-g)/4 thrice
    g = 0.62
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    mat = (1 - g) / 4 * I4 + g * np.outer(phi, phi)
    dec = hermitian_eig(mat)
    expected = np.array([(1 - g) / 4] * 3 + [(1 + 3 * g) / 4])
    assert np.allclose(dec.eigenvalues, expected, atol=1e-12)


def test_hermitian_eig_projector():
    phi = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
    dec = hermitian_eig(np.outer(phi, phi))
    assert np.allclose(dec.eigenvalues, [0, 0, 0, 1], atol=1e-12)


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
    dec = hermitian_eig(h)
    scale = max(1.0, np.linalg.norm(h))
    v, w = dec.eigenvectors, dec.eigenvalues
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


def test_hermeig_is_dataclass():
    dec = hermitian_eig(I4)
    assert isinstance(dec, HermEig)


def test_kernel_supports_2x2():
    h = np.array([[1.0, 0.5j], [-0.5j, 2.0]])
    dec = hermitian_eig(h)
    assert np.linalg.norm(dec.eigenvectors @ np.diag(dec.eigenvalues)
                          @ dec.eigenvectors.conj().T - h) <= 1e-12
    r = psd_sqrt(np.diag([4.0, 9.0]).astype(complex))
    assert np.allclose(r, np.diag([2.0, 3.0]), atol=1e-14)


def test_psd_sqrt_rejects_non_hermitian():
    bad = np.zeros((4, 4), dtype=complex)
    bad[0, 1] = 1.0
    with pytest.raises(NotHermitian):
        psd_sqrt(bad)
