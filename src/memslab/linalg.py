"""Dense complex matrix kernel for the fixed sizes used everywhere here (2x2, 4x4).

All operations are pure functions of their value arguments and are safe to
call concurrently.  Tolerances live in this module so every consumer agrees
on what "Hermitian", "PSD" and "reconstructed" mean.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

HERM_TOL = 1e-10    # relative Hermiticity tolerance for eigensolver inputs
PSD_CLAMP = 1e-10   # eigenvalues in [-PSD_CLAMP, 0] count as zero
RECON_TOL = 1e-12   # eigendecomposition reconstruction / unitarity budget


class NotHermitian(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPSD(ValueError):
    """Input matrix has an eigenvalue below -PSD_CLAMP."""


def as_cmat(entries, dim: int = 4) -> np.ndarray:
    """Coerce to a (dim, dim) complex128 array, rejecting NaN/Inf entries."""
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.shape != (dim, dim):
        raise ValueError(f"expected a {dim}x{dim} matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise ValueError("matrix has non-finite entries")
    return mat


def herm_defect(a: np.ndarray) -> float:
    """Relative departure from Hermiticity, ||a - a^dag||_F / max(1, ||a||_F)."""
    return float(np.linalg.norm(a - a.conj().T) / max(1.0, np.linalg.norm(a)))


@dataclass(frozen=True)
class HermEig:
    """Spectral decomposition of a Hermitian matrix.

    eigenvalues are real and ascending; eigenvectors holds the matching
    orthonormal eigenvectors as columns.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def hermitian_eig(h: np.ndarray) -> HermEig:
    """Eigendecomposition of a Hermitian matrix with ascending eigenvalues.

    Raises NotHermitian if ``h`` departs from Hermiticity by more than
    HERM_TOL relative to its size.
    """
    h = as_cmat(h, h.shape[0] if h.ndim == 2 and h.shape[0] in (2, 4) else 4)
    defect = herm_defect(h)
    if defect > HERM_TOL:
        raise NotHermitian(f"Hermiticity defect {defect:.3e} exceeds {HERM_TOL:.0e}")
    w, v = np.linalg.eigh(h)
    return HermEig(eigenvalues=w, eigenvectors=v)


def psd_sqrt(h: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root R with R @ R == h up to rounding.

    Eigenvalues in [-PSD_CLAMP, 0] are treated as exact zeros; anything
    below -PSD_CLAMP raises NotPSD.
    """
    dec = hermitian_eig(h)
    low = float(dec.eigenvalues[0])
    if low < -PSD_CLAMP:
        raise NotPSD(f"minimum eigenvalue {low:.3e} is below -{PSD_CLAMP:.0e}")
    roots = np.sqrt(np.clip(dec.eigenvalues, 0.0, None))
    root = (dec.eigenvectors * roots) @ dec.eigenvectors.conj().T
    return 0.5 * (root + root.conj().T)
