"""Seeded random generation of physical two-qubit states.

Determinism contract: the sequence of sampled states is a pure function of
(kind, count, seed).  The stream is cut into chunks of CHUNK states; chunk
``i`` owns a counter-based Philox generator keyed by
``seed XOR splitmix64(i)``, so its states depend only on (kind, seed, i, its
size) and any chunk can be regenerated on its own with generate_chunk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Union

import numpy as np

from .states import DensityMatrix, OutOfRange, make_density

CHUNK = 1024

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; bijective 64-bit hash used to key chunk streams."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """The Philox generator owned by chunk ``index`` of stream ``seed``."""
    return np.random.Generator(np.random.Philox(key=(seed ^ splitmix64(index)) & _MASK64))


@dataclass(frozen=True)
class GinibreFull:
    """Full-rank states rho = G G^dag / Tr, G a 4x4 complex Gaussian matrix."""


@dataclass(frozen=True)
class GinibreRank:
    """Rank-k states from a 4xk complex Gaussian factor, k in 1..4."""

    rank: int

    def __post_init__(self):
        if self.rank not in (1, 2, 3, 4):
            raise OutOfRange(f"ginibre rank {self.rank} outside 1..4")


@dataclass(frozen=True)
class PureMixture:
    """Convex mixture of m Haar-random pure states with flat Dirichlet weights."""

    size: int

    def __post_init__(self):
        if self.size not in (1, 2, 3, 4, 5, 6):
            raise OutOfRange(f"pure mixture size {self.size} outside 1..6")


@dataclass(frozen=True, eq=False)
class PerturbAbout:
    """Convex perturbations (1-w) base + w ginibre with w uniform on (0, eps]."""

    base: DensityMatrix
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise OutOfRange(f"perturbation eps={self.eps} outside (0, 1]")


EnsembleKind = Union[GinibreFull, GinibreRank, PureMixture, PerturbAbout]


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """A reproducible ensemble: what to draw, how many, from which seed."""

    kind: EnsembleKind
    count: int
    seed: int

    def __post_init__(self):
        if self.count < 1:
            raise OutOfRange(f"sample count {self.count} must be >= 1")
        if not 0 <= self.seed <= _MASK64:
            raise OutOfRange("seed must fit in 64 unsigned bits")


def wishart(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Unnormalized G G^dag from a 4x(rank) complex Gaussian factor."""
    g = rng.standard_normal((4, rank)) + 1j * rng.standard_normal((4, rank))
    return g @ g.conj().T


def ginibre_state(rng: np.random.Generator, rank: int = 4) -> DensityMatrix:
    """One Ginibre-induced state of the given rank (rank 4 = Hilbert-Schmidt)."""
    if rank not in (1, 2, 3, 4):
        raise OutOfRange(f"ginibre rank {rank} outside 1..4")
    while True:
        wish = wishart(rng, rank)
        tr = float(np.trace(wish).real)
        if tr > 0.0:  # Tr == 0 is a measure-zero event; resample
            return make_density(wish / tr)


def pure_mixture_state(rng: np.random.Generator, size: int) -> DensityMatrix:
    if size not in (1, 2, 3, 4, 5, 6):
        raise OutOfRange(f"pure mixture size {size} outside 1..6")
    weights = rng.dirichlet(np.ones(size))
    mat = np.zeros((4, 4), dtype=np.complex128)
    for w in weights:
        psi = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        psi /= np.linalg.norm(psi)
        mat += w * np.outer(psi, psi.conj())
    return make_density(mat)


def perturb_about(base: DensityMatrix, eps: float, rng: np.random.Generator) -> DensityMatrix:
    """Convex mix of ``base`` with one full-rank Ginibre state; weight in (0, eps]."""
    if not 0.0 < eps <= 1.0:
        raise OutOfRange(f"perturbation eps={eps} outside (0, 1]")
    w = eps * (1.0 - rng.random())  # uniform on (0, eps]
    noise = ginibre_state(rng, 4)
    return make_density((1.0 - w) * base.mat + w * noise.mat)


def draw_state(kind: EnsembleKind, rng: np.random.Generator) -> DensityMatrix:
    if isinstance(kind, GinibreFull):
        return ginibre_state(rng, 4)
    if isinstance(kind, GinibreRank):
        return ginibre_state(rng, kind.rank)
    if isinstance(kind, PureMixture):
        return pure_mixture_state(rng, kind.size)
    if isinstance(kind, PerturbAbout):
        return perturb_about(kind.base, kind.eps, rng)
    raise TypeError(f"unknown ensemble kind {kind!r}")


def chunk_sizes(count: int) -> list[int]:
    full, rest = divmod(count, CHUNK)
    return [CHUNK] * full + ([rest] if rest else [])


def generate_chunk(spec: EnsembleSpec, index: int, size: int) -> list[DensityMatrix]:
    rng = chunk_generator(spec.seed, index)
    return [draw_state(spec.kind, rng) for _ in range(size)]


def sample_states(spec: EnsembleSpec) -> Iterator[DensityMatrix]:
    """The spec.count states of the ensemble, chunk by chunk in index order."""
    for i, n in enumerate(chunk_sizes(spec.count)):
        yield from generate_chunk(spec, i, n)

