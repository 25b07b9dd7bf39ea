"""Seeded random generation of physical two-qubit states.

Determinism contract: the sequence of sampled states is a pure function of
(kind, count, seed).  The stream is cut into chunks of CHUNK states; chunk
``i`` owns a counter-based Philox generator keyed by
``seed XOR splitmix64(i)``, so its states depend only on (kind, seed, i, its
size) and any chunk can be regenerated on its own with generate_chunk.
Each state's draws come from its chunk's generator in the same order as
when states are drawn one at a time, so how the draws are cut into stacks
does not change which states a seed gives.

sample_states(*specs) is one stream over the specs' chunks in order: it
cuts them into stacks of BLOCK states (the last may be shorter) that run
across chunk and spec boundaries.  For one spec every stack lies inside one
chunk, since CHUNK is a multiple of BLOCK.  The stacks are yielded as drawn,
not validated: their consumer validates each one once, and the measuring
path (frontier.scan_points) does so with the eigendecomposition it measures
from.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Union

import numpy as np

from .states import DensityMatrix, OutOfRange, make_density

CHUNK = 1024
BLOCK = 128  # states drawn, validated and measured together; bounds the temporaries

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


def _wishart(normals: np.ndarray) -> np.ndarray:
    """G G^dag for the complex factor G = normals[..., 0, :, :] + i normals[..., 1, :, :]."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return g @ g.conj().swapaxes(-1, -2)


def wishart(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Unnormalized G G^dag from a 4x(rank) complex Gaussian factor."""
    return _wishart(rng.standard_normal((2, 4, rank)))


def _unit_trace(wish: np.ndarray) -> np.ndarray:
    # Tr == 0 needs every Gaussian of the factor to be exactly 0; the non-finite
    # quotient it would give is rejected by validation, not redrawn
    return wish / np.trace(wish, axis1=1, axis2=2).real[:, None, None]


def _ginibre(rng: np.random.Generator, n: int, rank: int) -> np.ndarray:
    return _unit_trace(_wishart(rng.standard_normal((n, 2, 4, rank))))


def _pure_mixtures(rng: np.random.Generator, n: int, size: int) -> np.ndarray:
    weights = np.empty((n, size))
    normals = np.empty((n, size, 2, 4))
    for i in range(n):  # each state's Dirichlet weights, then its vectors' Gaussians
        weights[i] = rng.dirichlet(np.ones(size))
        rng.standard_normal(out=normals[i])
    psi = normals[:, :, 0] + 1j * normals[:, :, 1]
    re, im = psi.real[..., None, :], psi.imag[..., None, :]
    # the dot products np.linalg.norm takes of one vector, so the same bits
    psi /= np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    mats = np.zeros((n, 4, 4), dtype=np.complex128)
    for k in range(size):
        mats += weights[:, k, None, None] * (psi[:, k, :, None] * psi[:, k, None, :].conj())
    return mats


def _perturbations(rng: np.random.Generator, n: int, base: DensityMatrix, eps: float) -> np.ndarray:
    uniforms = np.empty(n)
    normals = np.empty((n, 2, 4, 4))
    for i in range(n):  # each state's weight, then its noise state's Gaussians
        uniforms[i] = rng.random()
        rng.standard_normal(out=normals[i])
    w = (eps * (1.0 - uniforms))[:, None, None]  # uniform on (0, eps]
    # a non-finite noise state makes its mix non-finite, which validating the mix's stack rejects
    return (1.0 - w) * base.mat + w * _unit_trace(_wishart(normals))


def _draw(kind: EnsembleKind, rng: np.random.Generator, n: int) -> np.ndarray:
    """n unvalidated states of ``kind`` from ``rng``, as one (n, 4, 4) stack."""
    if isinstance(kind, GinibreFull):
        return _ginibre(rng, n, 4)
    if isinstance(kind, GinibreRank):
        return _ginibre(rng, n, kind.rank)
    if isinstance(kind, PureMixture):
        return _pure_mixtures(rng, n, kind.size)
    if isinstance(kind, PerturbAbout):
        return _perturbations(rng, n, kind.base, kind.eps)
    raise TypeError(f"unknown ensemble kind {kind!r}")


def ginibre_state(rng: np.random.Generator, rank: int = 4) -> DensityMatrix:
    """One Ginibre-induced state of the given rank (rank 4 = Hilbert-Schmidt)."""
    return make_density(_draw(GinibreRank(rank), rng, 1)[0])


def pure_mixture_state(rng: np.random.Generator, size: int) -> DensityMatrix:
    return make_density(_draw(PureMixture(size), rng, 1)[0])


def perturb_about(base: DensityMatrix, eps: float, rng: np.random.Generator) -> DensityMatrix:
    """Convex mix of ``base`` with one full-rank Ginibre state; weight in (0, eps]."""
    return make_density(_draw(PerturbAbout(base, eps), rng, 1)[0])


def chunk_sizes(count: int) -> Iterator[int]:
    """The sizes of the chunks of a ``count``-state stream, made as they are read."""
    return (min(CHUNK, count - start) for start in range(0, count, CHUNK))


def _joined(pieces: list[np.ndarray]) -> np.ndarray:
    # a stack drawn in one piece is yielded as it is, not copied
    return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)


def _stacks(chunks: Iterable[tuple[EnsembleKind, np.random.Generator, int]]) -> Iterator[np.ndarray]:
    """The states of (kind, generator, size) chunks, in order, as drawn stacks of BLOCK states.

    A stack takes its states from as many chunks as it needs; only the last
    stack may hold fewer than BLOCK states.  Nothing is validated here.
    """
    pieces, room = [], BLOCK
    for kind, rng, size in chunks:
        while size:
            n = min(room, size)
            pieces.append(_draw(kind, rng, n))
            size -= n
            room -= n
            if not room:
                yield _joined(pieces)
                pieces, room = [], BLOCK
    if pieces:
        yield _joined(pieces)


def generate_chunk(spec: EnsembleSpec, index: int, size: int) -> list[np.ndarray]:
    """Chunk ``index`` of the stream: drawn, unvalidated stacks of at most BLOCK states, in order."""
    return list(_stacks([(spec.kind, chunk_generator(spec.seed, index), size)]))


def sample_states(*specs: EnsembleSpec) -> Iterator[np.ndarray]:
    """The states of every spec, in spec and stream order, as drawn (n, 4, 4) stacks.

    Stacks hold BLOCK states, except the last, and may span chunks and specs.
    They are not validated here: frontier.scan_points (and so scan and
    certify) validates each stack before it measures it.
    """
    return _stacks((spec.kind, chunk_generator(spec.seed, i), n)
                   for spec in specs for i, n in enumerate(chunk_sizes(spec.count)))
