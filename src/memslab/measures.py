"""Entanglement and mixedness functionals for two-qubit states.

Entanglement side: the spin-flip spectrum, concurrence C, tangle tau = C^2,
and the entanglement of formation (a strictly increasing function of the
tangle, reported in bits).  Mixedness side: purity Tr[rho^2], the linear
entropy S_L = (4/3)(1 - Tr[rho^2]) ranging from 0 (pure) to 1 (maximally
mixed), and the von Neumann entropy in nats.  Negativity from the partial
transpose is carried along as an independent separability witness: for two
qubits it is nonzero exactly when the state is entangled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import psd_root
from .linalg import psd_sqrt  # not called here: bench/spans.py binds measures.psd_sqrt
from .states import DensityMatrix, validate_eigh

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# sigma_y (x) sigma_y: the anti-diagonal (-1, +1, +1, -1), real.
SPIN_FLIP_MAT = np.kron(_SIGMA_Y, _SIGMA_Y).real.astype(np.float64)
_SPIN_FLIP_COMPLEX = SPIN_FLIP_MAT.astype(np.complex128)


@dataclass(frozen=True)
class MeasureReport:
    """All measures of one state.

    von_neumann is in nats, eof in bits; everything else is dimensionless.
    """

    purity: float
    linear_entropy: float
    von_neumann: float
    concurrence: float
    tangle: float
    eof: float
    negativity: float

    FIELDS = ("purity", "linear_entropy", "von_neumann", "concurrence", "tangle", "eof", "negativity")


def _spin_flip_values(root: np.ndarray) -> np.ndarray:
    """Spin-flip singular values, descending, of each matrix of a validated stack from its PSD roots."""
    # The lambdas are the square roots of the eigenvalues of the Hermitian
    # product sqrt(rho) rhotilde sqrt(rho) = A A^dag with
    # A = sqrt(rho) S conj(sqrt(rho)); taking singular values of A avoids the
    # sqrt blow-up of eigenvalue rounding noise on boundary-rank states.
    return np.linalg.svd(root @ _SPIN_FLIP_COMPLEX @ root.conj(), compute_uv=False)


def _concurrences(lambdas: np.ndarray) -> np.ndarray:
    """C = max(0, lambda_1 - lambda_2 - lambda_3 - lambda_4) from the spin-flip values of each state."""
    # subtract.reduce subtracts in index order, ((l1 - l2) - l3) - l4
    return np.maximum(np.subtract.reduce(lambdas, axis=-1), 0.0)


def wootters_lambdas(rho: DensityMatrix) -> np.ndarray:
    """Spin-flip singular values lambda_1 >= ... >= lambda_4 >= 0, from validate_eigh of a one-state stack."""
    return _spin_flip_values(psd_root(*validate_eigh(rho.mat[None])[1:]))[0]


def concurrence(rho: DensityMatrix) -> float:
    return float(_concurrences(wootters_lambdas(rho)))


def tangle(rho: DensityMatrix) -> float:
    """Concurrence squared; 1 for maximally entangled, 0 for separable."""
    return tangle_of_mat(rho.mat)


def binary_entropy(x: float) -> float:
    """Shannon entropy of a bit in bits, h(0) = h(1) = 0 by continuity."""
    if x <= 0.0 or x >= 1.0:
        return 0.0
    return -x * math.log2(x) - (1.0 - x) * math.log2(1.0 - x)


def eof_from_tangle(tau: float) -> float:
    return binary_entropy((1.0 + math.sqrt(max(1.0 - tau, 0.0))) / 2.0)


def eof(rho: DensityMatrix) -> float:
    """Entanglement of formation in bits."""
    return eof_from_tangle(tangle(rho))


def purity(rho: DensityMatrix) -> float:
    return float(purity_batch(rho.mat[None])[0])


def purity_batch(mats: np.ndarray) -> np.ndarray:
    """Tr[rho^2] of each Hermitian matrix of an (n, 4, 4) stack, bit for bit np.vdot(mat, mat).real."""
    flat = mats.reshape(len(mats), 1, 16)
    # one matmul of each conjugated row with its column: numpy reaches BLAS zdotu on
    # (conj a, a), whose real part is that of np.vdot's zdotc(a, a)
    return (flat.conj() @ flat.swapaxes(1, 2))[:, 0, 0].real


def linear_entropy_batch(mats: np.ndarray) -> np.ndarray:
    """S_L = (4/3)(1 - Tr[rho^2]) of each matrix of an (n, 4, 4) stack."""
    return (4.0 / 3.0) * (1.0 - purity_batch(mats))


def linear_entropy(rho: DensityMatrix) -> float:
    return linear_entropy_of_mat(rho.mat)


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho ln rho] in nats, with 0 ln 0 = 0."""
    return float(von_neumann_batch(rho.mat[None])[0])


def von_neumann_batch(mats: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of each matrix of an (n, 4, 4) stack, from one stacked eigvalsh."""
    entropies = []
    for evs in np.linalg.eigvalsh(mats).tolist():  # ascending; stacked and single eigvalsh agree bit for bit
        total = 0.0  # then -=, so a pure state gives 0.0, not -0.0
        for p in evs:
            if p > 0.0:  # eigenvalues in [-PSD_CLAMP, 0] are boundary-rank rounding noise
                total -= p * math.log(p)  # not np.log: it differs from math.log in the last bit on some inputs
        entropies.append(total)
    return np.array(entropies, dtype=np.float64)


def partial_transpose(rho: DensityMatrix) -> np.ndarray:
    """Transposition on the second qubit, in the computational basis."""
    return rho.mat.reshape(2, 2, 2, 2).transpose(0, 3, 2, 1).reshape(4, 4)


def negativity(rho: DensityMatrix) -> float:
    """Sum of |negative eigenvalues| of the partial transpose.

    Independent of the spin-flip machinery; for two qubits positive
    negativity is equivalent to positive concurrence.
    """
    evs = np.linalg.eigvalsh(partial_transpose(rho))
    return abs(float(evs[evs < 0.0].sum()))  # abs also normalizes -0.0


def measure_report(rho: DensityMatrix) -> MeasureReport:
    pur = purity(rho)
    c = concurrence(rho)
    return MeasureReport(
        purity=pur,
        linear_entropy=linear_entropy_of_mat(rho.mat),
        von_neumann=von_neumann_entropy(rho),
        concurrence=c,
        tangle=c * c,
        eof=eof_from_tangle(c * c),
        negativity=negativity(rho),
    )


def tangle_of_mat(mat: np.ndarray) -> float:
    """Tangle of one 4x4 matrix, validated like make_density; tangle_batch on a one-state stack."""
    return float(tangle_batch(mat[None])[0])


def linear_entropy_of_mat(mat: np.ndarray) -> float:
    return float(linear_entropy_batch(mat[None])[0])


def tangle_batch(mats: np.ndarray) -> np.ndarray:
    """Tangle of each matrix of an (n, 4, 4) stack, bit for bit tangle() on each slice.

    Validates the stack with states.validate_eigh: the first non-state raises validate_stack's error.
    """
    return tangle_root(psd_root(*validate_eigh(mats)[1:]))


def tangle_root(root: np.ndarray) -> np.ndarray:
    """Tangles of a stack that states.validate_eigh accepted, from linalg.psd_root of its eigh: the one tangle kernel."""
    c = _concurrences(_spin_flip_values(root))
    return c * c
