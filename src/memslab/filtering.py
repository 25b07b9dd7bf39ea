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

import logging
from dataclasses import dataclass

import numpy as np

# tangle_of_mat is unused here but stays bound: bench/spans.py traces it at filtering.tangle_of_mat
from .measures import linear_entropy_of_mat, tangle_batch, tangle_of_mat  # noqa: F401
from .states import DensityMatrix, OutOfRange, make_density, validate_stack

log = logging.getLogger(__name__)

SUCCESS_FLOOR = 1e-14


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
        return np.array([self.a0 * self.b0, self.a0 * self.b1,
                         self.a1 * self.b0, self.a1 * self.b1])

    def compose(self, other: "LocalFilter") -> "LocalFilter":
        """Entrywise product: applying ``self`` then ``other`` in one shot."""
        return LocalFilter(self.a0 * other.a0, self.a1 * other.a1,
                           self.b0 * other.b0, self.b1 * other.b1)


IDENTITY_FILTER = LocalFilter(1.0, 1.0, 1.0, 1.0)


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


def apply_filter(rho: DensityMatrix, f: LocalFilter) -> FilterOutcome:
    """Filtered state (A (x) B) rho (A (x) B)^dag / p and its success probability.

    Raises VanishingSuccess when p falls at or below the numerical floor.
    """
    d = f.diagonal()
    p = float((d * d * rho.mat.real.diagonal()).sum())
    if p <= SUCCESS_FLOOR:
        raise VanishingSuccess(f"success probability {p:.3e} at or below {SUCCESS_FLOOR:.0e}")
    filtered = (d[:, None] * rho.mat) * d[None, :]
    return FilterOutcome(state=make_density(filtered / p), success_prob=p)


def two_sided_filter(kappa: float) -> LocalFilter:
    """The symmetric concentration filter diag(kappa, 1) (x) diag(1, kappa)."""
    return LocalFilter(kappa, 1.0, 1.0, kappa)


def one_sided_filter(kappa: float) -> LocalFilter:
    """Filter diag(kappa, 1) on qubit A only (Procrustean style)."""
    return LocalFilter(kappa, 1.0, 1.0, 1.0)


def kappa_schedule(steps: int, kappa_lo: float = 1e-3) -> np.ndarray:
    """Geometric kappa sweep from 1 down to kappa_lo (the default schedule)."""
    if steps < 1:
        raise OutOfRange(f"need at least 1 step, got {steps}")
    if not 0.0 < kappa_lo <= 1.0:
        raise OutOfRange(f"kappa_lo={kappa_lo} outside (0, 1]")
    if steps == 1:
        return np.array([1.0])
    return np.geomspace(1.0, kappa_lo, steps)


def trajectory(start: DensityMatrix, schedule: list[LocalFilter]) -> list[TrajectoryPoint]:
    """Measure apply_filter(start, f) for every filter in the schedule.

    Each point is an independent single-shot application to ``start``.
    Filters whose success probability vanishes are skipped (the returned
    points carry their filter, so gaps are visible to the caller).  The
    filtered states are validated and measured as one stack, with the same
    arithmetic as apply_filter, so every point is bit for bit its result.
    """
    if not schedule:
        raise OutOfRange("filter schedule is empty")
    d = np.array([f.diagonal() for f in schedule])
    p = (d * d * start.mat.real.diagonal()).sum(axis=1)  # apply_filter's sum, one row per filter
    kept = np.flatnonzero(p > SUCCESS_FLOOR)
    if kept.size < len(schedule):
        log.debug("skipping %d filters with success probability at or below %.0e",
                  len(schedule) - kept.size, SUCCESS_FLOOR)
    mats = validate_stack((d[kept, :, None] * start.mat) * d[kept, None, :] / p[kept, None, None])
    return [TrajectoryPoint(filter=schedule[k], s_linear=linear_entropy_of_mat(mat), tangle=tau,
                            success_prob=float(p[k]))
            for k, mat, tau in zip(kept.tolist(), mats, tangle_batch(mats).tolist())]


def best_filter(start: DensityMatrix, grid_resolution: int) -> tuple[LocalFilter, FilterOutcome]:
    """Exhaustive search over the (a0, a1, b0, b1) grid {1/g, ..., 1}^4.

    Maximizes the filtered tangle; exact ties fall back to higher success
    probability, then to the lexicographically first grid point, so the
    winner is deterministic.  Success probabilities come from one pass over
    the grid, tangles from blocks of at most 4096 filtered states.
    """
    if grid_resolution < 2:
        raise OutOfRange(f"grid resolution {grid_resolution} must be >= 2")
    g = grid_resolution
    values = np.arange(1, g + 1) / g
    grids = np.stack(np.meshgrid(values, values, values, values, indexing="ij"), axis=-1).reshape(-1, 4)
    d = np.stack([grids[:, 0] * grids[:, 2], grids[:, 0] * grids[:, 3],
                  grids[:, 1] * grids[:, 2], grids[:, 1] * grids[:, 3]], axis=1)
    p = (d * d) @ start.mat.real.diagonal()
    kept = np.flatnonzero(p > SUCCESS_FLOOR)
    if kept.size == 0:
        raise VanishingSuccess("every grid filter has vanishing success probability")

    block = 4096
    taus = np.empty(kept.size)
    for lo in range(0, kept.size, block):
        idx = kept[lo:lo + block]
        mats = (d[idx, :, None] * start.mat) * d[idx, None, :]
        mats /= p[idx, None, None]
        taus[lo:lo + block] = tangle_batch(mats)
    # lexicographic argmax: largest tangle, then largest success, then lowest index
    top = kept[taus == taus.max()]
    top = top[p[top] == p[top].max()]
    a0, a1, b0, b1 = grids[top[0]]
    winner = LocalFilter(float(a0), float(a1), float(b0), float(b1))
    return winner, apply_filter(start, winner)
