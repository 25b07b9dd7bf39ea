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
from .states import DensityMatrix, _checked, validate_eigh, validate_stack

_SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]])
# sigma_y (x) sigma_y: the anti-diagonal (-1, +1, +1, -1), real.
SPIN_FLIP_MAT = np.kron(_SIGMA_Y, _SIGMA_Y).real.astype(np.float64)
_SPIN_FLIP_COMPLEX = SPIN_FLIP_MAT.astype(np.complex128)
BOUND_DELTA = 1e-14  # tangle_bound's outward eigenvalue shift; at 1e-15 rotated mems states beat B^2 by 5e-16


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
    """Tr[rho^2] of rho, validated like make_density (as every functional of one state is)."""
    return float(purity_batch(validate_stack(rho.mat[None]))[0])


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
    return float(linear_entropy_batch(validate_stack(rho.mat[None]))[0])


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-Tr[rho ln rho] in nats, with 0 ln 0 = 0, from the eigvalsh that validates rho (validate_stack's)."""
    return float(_spectral_entropy(_checked(rho.mat[None], vectors=False)[1])[0])


def von_neumann_batch(mats: np.ndarray) -> np.ndarray:
    """von_neumann_entropy of each matrix of an (n, 4, 4) stack, from one stacked eigvalsh."""
    return _spectral_entropy(np.linalg.eigvalsh(mats))  # stacked and single eigvalsh agree bit for bit


def _spectral_entropy(w: np.ndarray) -> np.ndarray:
    """-sum p ln p over each row of an (n, 4) array of ascending eigvalsh eigenvalues, 0 ln 0 = 0."""
    entropies = []
    for evs in w.tolist():
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
    validate_stack(rho.mat[None])  # make_density's checks, as every functional of one state applies
    return _negativity(rho)


def _negativity(rho: DensityMatrix) -> float:
    """negativity of a state already validated."""
    evs = np.linalg.eigvalsh(partial_transpose(rho))
    return abs(float(evs[evs < 0.0].sum()))  # abs also normalizes -0.0


def measure_report(rho: DensityMatrix) -> MeasureReport:
    """Every measure of rho, validated once (validate_eigh, whose eigh gives the concurrence's root).

    Each field has the bits of its one-state functional: the entropy reads
    an eigvalsh of the validated matrix, as von_neumann_entropy does.
    """
    mats, w, v = validate_eigh(rho.mat[None])
    c = float(_concurrences(_spin_flip_values(psd_root(w, v)))[0])
    return MeasureReport(
        purity=float(purity_batch(mats)[0]),
        linear_entropy=float(linear_entropy_batch(mats)[0]),
        von_neumann=float(von_neumann_batch(mats)[0]),
        concurrence=c,
        tangle=c * c,
        eof=eof_from_tangle(c * c),
        negativity=_negativity(rho),
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


def tangle_bound(mats: np.ndarray, w: np.ndarray) -> np.ndarray:
    """An upper bound on tangle_root's tangle of each state of a validated stack, from its eigenvalues ``w``.

    ``w`` holds the ascending eigenvalues of the validation's decomposition: validate_eigh's eigh or
    validate_stack's eigvalsh (certify_states reads the first for its first stack and the second for every
    later one).  Both read the lower triangle and are backward stable: with either, no tested state's tangle
    read more than 5.9e-15 above its bound (tests/test_frontier.py, under three OpenBLAS kernels).
    The smaller of two bounds, each exact on some states and both of degree 2 in rho, like the tangle, so a
    trace off 1 by up to TRACE_TOL is bounded too.  Both read the state that the kernel measures: the
    lower triangle, with each eigenvalue below 0 clamped to 0 (linalg.psd_root).
    - Spectral: B(lambda)^2 with B = lambda1 - lambda3 - 2 sqrt(lambda2 lambda4), lambda descending, the largest
      concurrence of any state with that spectrum (Ishizaka & Hiroshima, PRA 62, 022310; Verstraete,
      Audenaert & De Moor, PRA 64, 012316).  It is read outward, lambda1 raised and the rest lowered by
      BOUND_DELTA, since a zero eigenvalue's rounding noise pulls sqrt(lambda2 lambda4) far off.
    - Reduced purity: 2 ((Tr rho)^2 - max(Tr rho_A^2, Tr rho_B^2)), which is C^2 on pure states and holds on
      mixed ones by the convexity of C and of Tr rho_A^2.  The clamp adds ``neg``, the clamped eigenvalues'
      mass, to the trace and lowers each reduced purity by at most neg^2.
    """
    low = np.maximum(w[:, :3] - BOUND_DELTA, 0.0)  # lambda4, lambda3, lambda2
    spectral = np.maximum(w[:, 3] + BOUND_DELTA - low[:, 1] - 2.0 * np.sqrt(low[:, 2] * low[:, 0]), 0.0)
    d = np.einsum("nii->ni", mats).real
    off_a, off_b = np.abs(mats[:, 2, 0] + mats[:, 3, 1]), np.abs(mats[:, 1, 0] + mats[:, 3, 2])  # rho_A, rho_B (1, 0)
    purity_a = (d[:, 0] + d[:, 1]) ** 2 + (d[:, 2] + d[:, 3]) ** 2 + 2.0 * off_a * off_a
    purity_b = (d[:, 0] + d[:, 2]) ** 2 + (d[:, 1] + d[:, 3]) ** 2 + 2.0 * off_b * off_b
    neg = np.maximum(-w, 0.0).sum(axis=1)
    reduced = 2.0 * ((d.sum(axis=1) + neg) ** 2 + neg * neg - np.maximum(purity_a, purity_b))
    return np.minimum(spectral * spectral, reduced)
