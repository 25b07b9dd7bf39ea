"""Local filtering: probabilistic non-unitary operations on each qubit.

A filter applies A (x) B with A = diag(a0, a1), B = diag(b0, b1) and
renormalizes, succeeding with probability p = Tr[(A (x) B) rho (A (x) B)^dag].
Diagonal entries in (0, 1] keep each factor a valid measurement element with
nonzero success probability on full-support states.  Local unitaries change
neither tangle nor linear entropy, so this diagonal family captures the whole
reachable region of the (tangle, linear entropy) plane for the states of
interest; it contains the classic one-sided "Procrustean" scheme as the
special case B = I.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .linalg import HERM_TOL, PSD_CLAMP, _reject_non_finite, herm_defect
from .measures import linear_entropy_batch, tangle_batch, tangle_of_mat
from .measures import linear_entropy_of_mat  # not called here: bench/spans.py binds filtering.linear_entropy_of_mat
from .states import TRACE_TOL, DensityMatrix, OutOfRange, _check_trace, _held, _trace_off, make_density, validate_stack

SUCCESS_FLOOR = 1e-14
KAPPA_LO = 1e-3  # the last kappa of kappa_schedule
TIE_RTOL = 1e-13  # best_filter: grid tangles within this (relative) of the largest are tied
_ROUNDING = 256 * np.finfo(np.float64).eps  # best_filter's rounding margin per unit of amp ||rho||_F
_VOUCH_MAX = 1e150  # best_filter's start vouches for no row if an entry reaches this: its squares could overflow


class VanishingSuccess(ValueError):
    """Filter success probability is numerically zero on this state."""


@dataclass(frozen=True)
class LocalFilter:
    """Per-qubit diagonal filter entries (a0, a1) and (b0, b1), each in (0, 1]."""

    a0: float
    a1: float
    b0: float
    b1: float

    def __post_init__(self):
        for name in ("a0", "a1", "b0", "b1"):
            value = getattr(self, name)
            if not 0.0 < value <= 1.0:
                raise OutOfRange(f"filter entry {name}={value} outside (0, 1]")

    def diagonal(self) -> np.ndarray:
        """The four diagonal entries of A (x) B in the computational basis."""
        return _diagonals(self.a0, self.a1, self.b0, self.b1)


@dataclass(frozen=True, eq=False)
class FilterOutcome:
    state: DensityMatrix
    success_prob: float


@dataclass(frozen=True, eq=False)
class TrajectoryPoint:
    filter: LocalFilter
    s_linear: float
    tangle: float
    success_prob: float


def _diagonals(a0, a1, b0, b1) -> np.ndarray:
    """LocalFilter.diagonal() of each filter whose entries broadcast together, along a new last axis."""
    d = np.empty(np.broadcast(a0, a1, b0, b1).shape + (4,))
    d[..., 0], d[..., 1], d[..., 2], d[..., 3] = a0 * b0, a0 * b1, a1 * b0, a1 * b1
    return d


def _success(rho: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Success probability sum_i d_i^2 rho_ii of each diagonal filter d[..., :]."""
    return (d * d * rho.real.diagonal()).sum(axis=-1)


def _filtered(rho: np.ndarray, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """(D rho D) / p for each diagonal filter d[..., :] and its success probability p[...]."""
    return (d[..., :, None] * rho) * d[..., None, :] / p[..., None, None]


def apply_filter(rho: DensityMatrix, f: LocalFilter) -> FilterOutcome:
    """Filtered state (A (x) B) rho (A (x) B)^dag / p and its success probability.

    Raises make_density's ValueError for a start with a non-finite entry,
    before any arithmetic reads it; TraceNotOne, as make_density does, when
    the start's trace is off (dividing by p would hide it); and
    VanishingSuccess when p falls at or below the numerical floor.
    """
    _check_trace(_trace_off(_reject_non_finite(rho.mat)))
    d = f.diagonal()
    p = _success(rho.mat, d)
    if p <= SUCCESS_FLOOR:
        raise VanishingSuccess(f"success probability {p:.3e} at or below {SUCCESS_FLOOR:.0e}")
    return FilterOutcome(state=make_density(_filtered(rho.mat, d, p)), success_prob=float(p))


def two_sided_filter(kappa: float) -> LocalFilter:
    """The symmetric concentration filter diag(kappa, 1) (x) diag(1, kappa)."""
    return LocalFilter(kappa, 1.0, 1.0, kappa)


def one_sided_filter(kappa: float) -> LocalFilter:
    """Filter diag(kappa, 1) on qubit A only (Procrustean style)."""
    return LocalFilter(kappa, 1.0, 1.0, 1.0)


def kappa_schedule(steps: int) -> np.ndarray:
    """Geometric kappa sweep of ``steps`` values from 1 down to KAPPA_LO."""
    if operator.index(steps) < 1:
        raise OutOfRange(f"need at least 1 step, got {steps}")
    return np.geomspace(1.0, KAPPA_LO, steps)


def trajectory(start: DensityMatrix, schedule: list[LocalFilter]) -> list[TrajectoryPoint]:
    """Measure apply_filter(start, f) for every filter in the schedule.

    Each point is an independent single-shot application to ``start``.
    Filters whose success probability vanishes are skipped (the returned
    points carry their filter; len(schedule) - len(points) counts them).  The
    filtered states, built with apply_filter's arithmetic, are validated and
    measured as one stack, so every point is bit for bit its result.  A
    start with a non-finite entry, or whose trace is off, raises first, as
    in apply_filter.
    """
    if not schedule:
        raise OutOfRange("filter schedule is empty")
    _check_trace(_trace_off(_reject_non_finite(start.mat)))
    d = _diagonals(*np.array([(f.a0, f.a1, f.b0, f.b1) for f in schedule]).T)
    p = _success(start.mat, d)
    kept = np.flatnonzero(p > SUCCESS_FLOOR)
    mats = _filtered(start.mat, d[kept], p[kept])
    # tangle_batch validates the stack (states.validate_eigh), so it runs before linear_entropy_batch
    return [TrajectoryPoint(filter=schedule[k], s_linear=s, tangle=tau, success_prob=float(p[k]))
            for k, tau, s in zip(kept.tolist(), tangle_batch(mats).tolist(), linear_entropy_batch(mats).tolist())]


def _vouched(rho: np.ndarray, d: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Which filtered states (D rho D) / p the start proves to pass validate_stack (best_filter's certificate)."""
    rho = np.asarray(rho, dtype=np.complex128)  # the exact values _success and _filtered compute with
    if not np.abs(rho).max() < _VOUCH_MAX:
        return np.zeros(p.shape, dtype=bool)
    margin = _ROUNDING * np.linalg.norm(rho)
    low = min(float(np.linalg.eigvalsh(rho)[0]), 0.0)
    reach = max((margin - low) / PSD_CLAMP, (float(herm_defect(rho)) + margin) / min(HERM_TOL, TRACE_TOL))
    return (d * d).max(axis=-1) / p * reach < 1.0


def best_filter(start: DensityMatrix, grid_resolution: int) -> tuple[LocalFilter, FilterOutcome]:
    """Exhaustive search over the (a0, a1, b0, b1) grid {1/g, ..., 1}^4 for the largest filtered tangle.

    A local filter A (x) B scales the unnormalized concurrence by
    |det A det B| (Kent, Linden & Massar 1999; Verstraete, Dehaene & De Moor
    2001), so every grid point's tangle has the closed form
    tau(rho) (a0 a1 b0 b1 / p)^2 from one kernel call on the start.  Points
    whose closed form lies within TIE_RTOL (relative) of the largest are
    tied, as filters that differ by an overall scale give the same state;
    ties go to the largest success probability p, then to the
    lexicographically first grid point.  The outcome is the winner's grid
    state, read-only, and its grid p: bit for bit what
    apply_filter(start, winner) returns, without validating the state again.

    Every kept filtered state F = D rho D / p passes validate_stack, or the
    search raises the error validate_stack raises for the first one that
    fails, in grid order.  The start vouches for most of them: F is
    congruent to rho, so with amp = max_i d_i^2 / p, in exact arithmetic
    - lambda_min(F) >= amp min(lambda_min(rho), 0) (Ostrowski's theorem;
      both eigvalsh read the lower triangle, which the congruence keeps),
    - ||F - F^dag||_F <= amp ||rho - rho^dag||_F (linalg.herm_defect),
    - |Tr F - 1| <= amp sum_i |Im rho_ii| <= amp ||rho - rho^dag||_F,
      so one bound serves HERM_TOL and TRACE_TOL, against the smaller.
    The bounds read the start as complex128, the values F is computed
    from, and lambda_min(rho) comes from one eigvalsh of it.  Each right
    side is widened by amp ||rho||_F _ROUNDING, with _ROUNDING = 256 eps,
    which covers an eigvalsh backward error of 64 eps ||.||_F on rho and
    on F (7 eps at most, measured against 40-digit eigenvalues) plus the
    three roundings of each entry of F, those of p and the checks' own
    sums, each a few eps times amp ||rho||_F.  A row whose widened bounds
    clear -PSD_CLAMP and min(HERM_TOL, TRACE_TOL) cannot fail validate_stack
    and is not built.  A start with an entry of modulus _VOUCH_MAX or more
    (where the bounds' squares could overflow) vouches for none.  The rest
    are validated, in grid order and in blocks of at most 4096, so the
    first failing row, its error type and its message are those of
    validating every kept row.  A start built without make_density
    thus raises NotHermitian or NotPSD even where only filters far from the
    maximum push its defect past tolerance.  A start with a non-finite entry
    raises make_density's ValueError before any arithmetic reads it.
    """
    g = operator.index(grid_resolution)
    if g < 2:
        raise OutOfRange(f"grid resolution {grid_resolution} must be >= 2")
    _reject_non_finite(start.mat)
    values = np.arange(1, g + 1) / g
    a0, a1, b0, b1 = values[:, None, None, None], values[:, None, None], values[:, None], values
    d = _diagonals(a0, a1, b0, b1).reshape(-1, 4)
    p = _success(start.mat, d)
    kept = np.flatnonzero(p > SUCCESS_FLOOR)
    if kept.size == 0:
        raise VanishingSuccess("every grid filter has vanishing success probability")
    unproven = kept[~_vouched(start.mat, d[kept], p[kept])]
    block = 4096
    for lo in range(0, unproven.size, block):
        idx = unproven[lo:lo + block]
        validate_stack(_filtered(start.mat, d[idx], p[idx]))
    taus = tangle_of_mat(start.mat) * ((a0 * a1 * b0 * b1).reshape(-1)[kept] / p[kept]) ** 2
    top = kept[taus >= taus.max() * (1 - TIE_RTOL)]
    k = top[np.argmax(p[top])]  # argmax takes the first of equal p
    winner = LocalFilter(*(float(values[i]) for i in np.unravel_index(k, (g,) * 4)))
    state = _held(_filtered(start.mat, d[k], p[k]))  # a grid row that validate_stack accepts or the start vouches for
    return winner, FilterOutcome(state=state, success_prob=float(p[k]))
