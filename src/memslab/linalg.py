"""Dense complex matrix kernel for the fixed sizes used everywhere here (2x2, 4x4).

All operations are pure functions of their value arguments and are safe to
call concurrently.  Tolerances live in this module so every consumer agrees
on what "Hermitian" and "PSD" mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10    # relative Hermiticity tolerance for eigensolver inputs
PSD_CLAMP = 1e-10   # eigenvalues in [-PSD_CLAMP, 0] count as zero


class NotHermitian(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(ValueError):
    """Input matrix has an eigenvalue below -PSD_CLAMP."""


def _reject_non_finite(mats: np.ndarray) -> np.ndarray:
    if not np.isfinite(mats).all():
        raise ValueError("matrix has non-finite entries")
    return mats


def as_cmat(entries) -> np.ndarray:
    """Coerce to a 4x4 complex128 array, rejecting NaN/Inf entries."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    return _reject_non_finite(mat)


def _frobenius(mats: np.ndarray) -> np.ndarray:
    mag = np.abs(mats)
    return np.sqrt((mag * mag).sum(axis=(-2, -1)))


def herm_defect(a: np.ndarray) -> np.ndarray:
    """Relative departure from Hermiticity, ||a - a^dag||_F / max(1, ||a||_F).

    One value per matrix of a (..., d, d) stack.
    """
    return _frobenius(a - a.conj().swapaxes(-1, -2)) / np.maximum(1.0, _frobenius(a))


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition of a Hermitian matrix or of each matrix in a stack.

    eigenvalues are real and ascending along the last axis; eigenvectors
    holds the matching orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> HermEig:
    """Eigendecomposition of a (..., d, d) stack of Hermitian matrices, d in {2, 4}.

    Eigenvalues are ascending.  Raises ValueError on non-finite entries and
    NotHermitian if any matrix departs from Hermiticity by more than
    HERM_TOL relative to its size.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-2:] not in ((2, 2), (4, 4)):
        raise ValueError(f"expected a stack of 2x2 or 4x4 matrices, got shape {h.shape}")
    defect = float(herm_defect(_reject_non_finite(h)).max(initial=0.0))
    if defect > HERM_TOL:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL:.0e}")
    w, v = np.linalg.eigh(h)
    return HermEig(eigenvalues=w, eigenvectors=v)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root R with R @ R == h up to rounding, per matrix of a stack.

    Eigenvalues in [-PSD_CLAMP, 0] are treated as exact zeros; anything
    below -PSD_CLAMP in any matrix raises NotPSD.
    """
    dec = hermitian_eig(h)
    low = float(dec.eigenvalues.min(initial=0.0))  # initial: an empty stack passes
    if low < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {low:.3e} is below -{PSD_CLAMP:.0e}")
    roots = np.sqrt(np.maximum(dec.eigenvalues, 0.0))
    root = (dec.eigenvectors * roots[..., None, :]) @ dec.eigenvectors.conj().swapaxes(-1, -2)
    return 0.5 * (root + root.conj().swapaxes(-1, -2))
