"""The tangle vs. mixedness plane: analytic curves, envelope, certification.

The boundary family mems(gamma) traces the maximum tangle attainable at each
linear entropy: tau = gamma^2 with

    S_L(gamma) = (2/3) [4 g (2 - 3 g) - gamma^2],   g = mems_population(gamma).

Both branches of g make S_L a quadratic in gamma, so the envelope is inverted
in closed form (branch switch at S_L = 16/27).  certify() checks that no
sampled state exceeds the envelope, running the tangle kernel only on the
states that a cheap upper bound (measures.tangle_bound: the spectral and the
reduced-purity bound) cannot decide; scan() records per-bin maxima for plots.
hill_climb() is a stochastic probe: under the linear-entropy metric it
cannot beat the envelope, while at fixed von Neumann entropy it does find
states above the family, which is exactly the sense in which the family is
tied to Tr[rho^2]-based mixedness.
"""

from __future__ import annotations

import enum
import math
import operator
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional

import numpy as np

from .linalg import psd_root
from .linalg import psd_sqrt  # not called here: bench/spans.py binds frontier.psd_sqrt
from .measures import linear_entropy_batch, linear_entropy_of_mat, tangle_bound, tangle_of_mat, tangle_root
from .measures import von_neumann_batch
from .measures import von_neumann_entropy  # not called here: bench/spans.py binds frontier.von_neumann_entropy
from .sampling import BLOCK, EnsembleSpec, _wishart, sample_states
from .states import DensityMatrix, OutOfRange, _checked, _held, mems_population, validate_eigh, werner
from .states import make_density  # not called here: bench/spans.py binds frontier.make_density

LN4 = math.log(4.0)
WINDOW = 8  # hill_climb proposals whose tangles are computed as one stack
EPS_HI, EPS_LO = 0.1, 1e-4  # hill_climb's proposal weight scale, first and last step

S_BRANCH = 16.0 / 27.0  # linear entropy at the gamma = 2/3 branch point
S_EDGE = 8.0 / 9.0      # largest linear entropy the boundary family reaches
MARGIN = 1e-12  # certify_states' screen keeps a state whose violation bound is within MARGIN of the threshold


class UnsupportedMetric(ValueError):
    """No analytic envelope exists for this mixedness metric."""


class MixednessMetric(enum.Enum):
    LINEAR = "linear"
    VON_NEUMANN_NORMALIZED = "vn"


def mems_linear_entropy(gamma: float) -> float:
    g = mems_population(gamma)
    return (2.0 / 3.0) * (4.0 * g * (2.0 - 3.0 * g) - gamma * gamma)


def _curve_gammas(n: int) -> Iterator[float]:
    """n gammas uniform on [0, 1], yielded lazily; n is checked now."""
    if float(n) < 2:  # float() raises OverflowError for an n past float range
        raise OutOfRange(f"need at least 2 curve points, got {n}")
    return (i / (n - 1) for i in range(n))


def mems_curve(n: int) -> Iterator[tuple[float, float, float]]:
    """n closed-form (gamma, tangle, linear_entropy) points, gamma uniform on [0, 1]."""
    return ((gamma, gamma * gamma, mems_linear_entropy(gamma)) for gamma in _curve_gammas(n))


def _werner_point(gamma: float) -> tuple[float, float, float]:
    mat = werner(gamma).mat
    return gamma, tangle_of_mat(mat), linear_entropy_of_mat(mat)


def werner_curve(n: int) -> Iterator[tuple[float, float, float]]:
    """n measured (gamma, tangle, linear_entropy) points for the Werner family.

    Points are produced by constructing each state and measuring it, so this
    doubles as an end-to-end check of the measure pipeline.
    """
    return map(_werner_point, _curve_gammas(n))


def envelope_tangle(metric: MixednessMetric, s: float) -> float:
    """Maximum tangle at mixedness ``s`` under the linear-entropy metric.

    Inverts S_L(gamma) on the correct branch: for s <= 16/27 the branch with
    g = gamma/2, for 16/27 < s <= 8/9 the frozen-population branch (where the
    relation is affine), and 0 beyond 8/9 where the family ends.
    """
    _check_metric(metric)
    if metric is not MixednessMetric.LINEAR:
        raise UnsupportedMetric("analytic envelope is only available for the linear-entropy metric")
    if not 0.0 <= s <= 1.0:
        raise OutOfRange(f"mixedness {s} outside [0, 1]")
    return float(_envelope(np.float64(s)))


def _envelope(s: np.ndarray) -> np.ndarray:
    """envelope_tangle(LINEAR, s) for each linear entropy s in [0, 1]."""
    # S_L = (8/3) gamma (1 - gamma)  =>  gamma on the upper root
    gamma = 0.5 * (1.0 + np.sqrt(np.maximum(1.0 - 1.5 * s, 0.0)))
    # S_L = 8/9 - (2/3) gamma^2  =>  tau = gamma^2 = 4/3 - (3/2) S_L
    return np.where(s > S_EDGE, 0.0, np.where(s > S_BRANCH, 4.0 / 3.0 - 1.5 * s, gamma * gamma))


@dataclass(frozen=True)
class BinStat:
    """Occupied mixedness bin with its running tangle maximum."""

    lo: float
    hi: float
    max_tangle: float
    count: int


@dataclass(frozen=True)
class FrontierEnvelope:
    bins: tuple[BinStat, ...]  # occupied bins only, ascending
    samples_total: int


@dataclass(frozen=True, eq=False)
class CertificationReport:
    """Outcome of an envelope-violation search.

    max_violation is the largest tau - envelope(S_L) over the ensemble
    (signed; positive would mean a sample beat the envelope).  The verdict
    is PASS exactly when max_violation <= tolerance.  screened counts the
    samples whose tangle bound alone showed they could not reach the largest
    violation, so their tangle was never computed.
    """

    max_violation: float
    violating_state: Optional[DensityMatrix]
    samples_total: int
    tolerance: float
    screened: int

    @property
    def passed(self) -> bool:
        return self.max_violation <= self.tolerance

    @property
    def verdict(self) -> str:
        return "PASS" if self.passed else "FAIL"


def _check_metric(metric: MixednessMetric) -> None:
    if not isinstance(metric, MixednessMetric):
        raise TypeError(f"unknown mixedness metric {metric!r}: expected a MixednessMetric")


def _mixedness(metric: MixednessMetric, mats: np.ndarray) -> np.ndarray:
    """The mixedness of each matrix of a validated (n, 4, 4) stack, not clipped; ``metric`` is already checked."""
    if metric is MixednessMetric.LINEAR:
        return linear_entropy_batch(mats)
    return von_neumann_batch(mats) / LN4


ScanStack = tuple[np.ndarray, np.ndarray]  # (tangles, mixedness) of one stack; mixedness not clipped


def scan_points(stacks: Iterable[np.ndarray], metric: MixednessMetric) -> Iterator[ScanStack]:
    """The tangles and mixedness of (n, 4, 4) stacks, one pair per stack, in order.

    Each stack is validated as it is read (states.validate_eigh: the errors of
    validate_stack) and its tangles come from that same eigh, so a stack is
    decomposed once.  A ``metric`` that is not a MixednessMetric raises before
    a stack is read.
    """
    _check_metric(metric)
    for raw in stacks:
        mats, w, v = validate_eigh(raw)
        yield tangle_root(psd_root(w, v)), _mixedness(metric, mats)


def bin_maxima(stacks: Iterable[ScanStack], bins: int) -> FrontierEnvelope:
    """Per-bin tangle maxima of scan_points stacks; every state counts once in samples_total.

    ``bins``, an integer of at least 10, is checked before the first stack is
    read.  Only the occupied bins' maxima and counts are kept, in a dict keyed
    by bin index, so a bin count past the sample count costs nothing.
    """
    if float(operator.index(bins)) < 10:  # an int (10.5 bins overlap); OverflowError here, not at mix * bins
        raise OutOfRange(f"need at least 10 bins, got {bins}")
    occupied: dict[int, list] = {}  # bin index -> [max tangle, count]
    total = 0
    for taus, mixedness in stacks:
        total += len(taus)
        # per state in Python: a lexsort reduction measured slower on stacks of about 40 states
        for tau, mix in zip(taus.tolist(), np.clip(mixedness, 0.0, 1.0).tolist()):
            idx = min(int(mix * bins), bins - 1)
            slot = occupied.get(idx)
            if slot is None:
                occupied[idx] = [tau, 1]
                continue
            slot[1] += 1
            if tau > slot[0]:
                slot[0] = tau
    stats = tuple(BinStat(lo=idx / bins, hi=(idx + 1) / bins, max_tangle=tau, count=count)
                  for idx, (tau, count) in sorted(occupied.items()))
    return FrontierEnvelope(bins=stats, samples_total=total)


def scan(spec: EnsembleSpec, metric: MixednessMetric, bins: int) -> FrontierEnvelope:
    """Per-bin tangle maxima over the ensemble; deterministic given spec."""
    return bin_maxima(scan_points(sample_states(spec), metric), bins)


def certify_states(stacks: Iterable[np.ndarray], tolerance: float) -> CertificationReport:
    """Envelope-violation search over (n, 4, 4) stacks of states (linear metric).

    Each stack is validated with validate_stack's checks and errors and its
    envelope taken at the clipped linear entropy.  measures.tangle_bound then
    bounds each state's violation u = bound - envelope from the validation's
    eigenvalues, and only states with u >= threshold - MARGIN reach the
    tangle kernel (psd_root of their eigh, then tangle_root).  The threshold
    is the running worst violation.  The first stack, which has none, takes
    the exact violation of its state j with the largest u; its screen keeps
    most rows on loose-bound kinds, so it is validated with one eigh
    (states.validate_eigh) whose rows the kept states reuse, and when it
    keeps only j, j's violation is not measured again.  Every later stack
    keeps few rows: it is validated with one eigvalsh (states._checked, as
    validate_stack) and only its kept rows are decomposed by eigh.  A state
    left out has a violation below the threshold (no tested state read more
    than 5.9e-15 above its bound, from either decomposition's eigenvalues,
    against MARGIN = 1e-12), so it can neither set nor tie the maximum, and
    the kernel gives a state the same bits in a subset of its stack as in
    the whole: the report is the one measuring every state gives.
    ``screened`` counts the states the bound decided.  The witness, the only
    state built as a DensityMatrix, is the first to reach the largest
    violation: its validated row, wrapped by states._held as hill_climb's is.
    """
    if not 0.0 < tolerance < math.inf:
        raise OutOfRange(f"tolerance {tolerance} must be positive and finite")
    worst = -math.inf
    witness = None
    total = screened = 0
    for raw in stacks:
        first = worst == -math.inf
        mats, w, v = _checked(raw, vectors=first)
        if not len(mats):
            continue
        total += len(mats)
        envelope = _envelope(np.clip(linear_entropy_batch(mats), 0.0, 1.0))
        bounds = tangle_bound(mats, w) - envelope
        threshold = worst
        if first:
            j = int(np.argmax(bounds))
            exact = tangle_root(psd_root(w[j:j + 1], v[j:j + 1])) - envelope[j:j + 1]
            threshold = float(exact[0])
        keep = np.flatnonzero(bounds >= threshold - MARGIN)
        screened += len(mats) - len(keep)
        if not len(keep):
            continue
        if not first:
            violations = tangle_root(psd_root(*np.linalg.eigh(mats[keep]))) - envelope[keep]
        elif keep.tolist() == [j]:  # the screen kept only the threshold's own state, already measured
            violations = exact
        else:
            violations = tangle_root(psd_root(w[keep], v[keep])) - envelope[keep]
        k = int(np.argmax(violations))  # the first index of the stack's maximum
        if violations[k] > worst:  # strict, so a tie in a later stack keeps the earlier witness
            worst, witness = float(violations[k]), mats[keep[k]]
    if total == 0:
        raise OutOfRange("cannot certify an empty collection of states")
    return CertificationReport(max_violation=worst, violating_state=_held(witness),
                               samples_total=total, tolerance=tolerance, screened=screened)


def certify(spec: EnsembleSpec, tolerance: float) -> CertificationReport:
    """Envelope-violation search over a sampled ensemble (linear metric)."""
    return certify_states(sample_states(spec), tolerance)


def _step_draws(rng: np.random.Generator, n: int, eps: float,
                ratio: float) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
    """n hill_climb steps' weights, Wishart products and support-weighted flags, and the next step's eps.

    Drawn from ``rng`` step by step into the first ``rank`` columns of one zero (n, 2, 4, 4) factor array;
    the zero columns add exact zeros, so each step's product has the bits of _wishart of its own (2, 4, rank) draw.
    """
    weights, support_weighted = np.empty(n), np.empty(n, dtype=bool)
    normals = np.zeros((n, 2, 4, 4))
    for i in range(n):
        rank = int(rng.integers(1, 5))
        weights[i] = eps * (1.0 - rng.random())
        normals[i, :, :, :rank] = rng.standard_normal((2, 4, rank))
        support_weighted[i] = rng.random() < 0.5
        eps *= ratio
    return weights, _wishart(normals), support_weighted, eps


def hill_climb(
    start: DensityMatrix,
    metric: MixednessMetric,
    steps: int,
    rng: np.random.Generator,
    band: float = 1e-3,
) -> DensityMatrix:
    """Greedy stochastic tangle ascent at (nearly) fixed mixedness.

    Proposals are convex mixes (1 - w) rho + w sigma with w uniform on
    (0, eps], eps shrinking geometrically from EPS_HI at the first step to
    EPS_LO at the last.  sigma alternates between plain Ginibre draws of
    random rank and support-weighted draws sqrt(rho) W sqrt(rho) / Tr; the
    latter respect the current support, which is what makes ascent from
    rank-deficient starts possible at all (mixing toward generic full-rank
    noise can only dilute the concurrence).  A move is accepted when the
    tangle strictly increases and the chosen mixedness stays within +-band
    of the start's value.

    The metric and the start are checked before any draw.  Each step draws
    from ``rng`` in a fixed order, in blocks of at most sampling.BLOCK steps
    whose factors are one zero-padded array.  Proposals are built against the
    current state in windows of at most WINDOW steps and validated and
    measured as one stack; the first that passes is accepted and the window
    restarts after it, so the witness is the one that evaluating one proposal
    per step gives.  sqrt(rho) is the root its tangle was measured from
    (linalg.psd_root of the eigh that validated the start or the window).
    """
    if operator.index(steps) < 1:
        raise OutOfRange(f"need at least 1 step, got {steps}")
    if not 0.0 < band < math.inf:
        raise OutOfRange(f"band={band} must be positive and finite")
    _check_metric(metric)
    current, w0, v0 = validate_eigh(start.mat[None])
    anchor = _mixedness(metric, current)[0]
    roots = psd_root(w0, v0)
    current, current_tangle, root = current[0], float(tangle_root(roots)[0]), roots[0]
    ratio = (EPS_LO / EPS_HI) ** (1.0 / max(steps - 1, 1))
    eps = EPS_HI
    for first in range(0, steps, BLOCK):
        weights, wishes, support_weighted, eps = _step_draws(rng, min(BLOCK, steps - first), eps, ratio)
        lo = 0
        while lo < len(weights):
            hi = min(lo + WINDOW, len(weights))
            sigma = wishes[lo:hi].copy()
            weighted = support_weighted[lo:hi]
            sigma[weighted] = root @ sigma[weighted] @ root
            tr = sigma.trace(axis1=1, axis2=2).real
            live = np.flatnonzero(tr > 0.0)  # a step whose Tr vanishes proposes nothing
            w = weights[lo:hi][live, None, None]
            mats, vals, vecs = validate_eigh((1.0 - w) * current + (w / tr[live, None, None]) * sigma[live])
            roots = psd_root(vals, vecs)
            evaluated = hi
            for j, (k, cand_tangle) in enumerate(zip(live.tolist(), tangle_root(roots).tolist())):
                if cand_tangle > current_tangle and abs(_mixedness(metric, mats[j:j + 1])[0] - anchor) <= band:
                    current, current_tangle, root = mats[j], cand_tangle, roots[j]
                    evaluated = lo + k + 1
                    break
            lo = evaluated
    return _held(current)
