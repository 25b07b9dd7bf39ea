"""Dense complex matrix kernel for the 4x4 matrices used everywhere here.

All operations are pure functions of their value arguments and are safe to
call concurrently.  Tolerances live in this module so every consumer agrees
on what "Hermitian" and "PSD" mean: herm_defect is the one Hermiticity
measure, used by the eigensolver and by state validation alike.
"""

from __future__ import annotations

import numpy as np

HERM_TOL = 1e-10    # bound on the Hermiticity defect ||a - a^dag||_F
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


def herm_defect(a: np.ndarray) -> np.ndarray:
    """Hermiticity defect ||a - a^dag||_F, one value per matrix of a complex128 (..., d, d) stack."""
    skew = np.ascontiguousarray(a - a.conj().swapaxes(-1, -2)).view(np.float64)
    return np.sqrt(np.einsum("...ij,...ij->...", skew, skew))


def hermitian_eig(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, v) of a (..., 4, 4) stack of Hermitian matrices.

    w holds the real eigenvalues, ascending along the last axis, and v the
    matching orthonormal eigenvectors as columns.  Raises ValueError on other
    shapes or non-finite entries and NotHermitian if any matrix's
    herm_defect exceeds HERM_TOL.
    """
    h = np.asarray(h, dtype=np.complex128)
    if h.ndim < 2 or h.shape[-2:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {h.shape}")
    defect = float(herm_defect(_reject_non_finite(h)).max(initial=0.0))
    if defect > HERM_TOL:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL:.0e}")
    return np.linalg.eigh(h)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root R with R @ R == h up to rounding, per matrix of a stack.

    Eigenvalues in [-PSD_CLAMP, 0] are treated as exact zeros; anything
    below -PSD_CLAMP in any matrix raises NotPSD.
    """
    w, v = hermitian_eig(h)
    low = float(w.min(initial=0.0))  # initial: an empty stack passes
    if low < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {low:.3e} is below -{PSD_CLAMP:.0e}")
    return psd_root(w, v)


def psd_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The root psd_sqrt builds from an eigendecomposition (w, v) that already passed its checks."""
    root = (v * np.sqrt(np.maximum(w, 0.0))[..., None, :]) @ v.conj().swapaxes(-1, -2)
    return 0.5 * (root + root.conj().swapaxes(-1, -2))
