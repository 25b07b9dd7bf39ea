"""Seeded random generation of physical two-qubit states.

sample_states is the one way to draw states; there is no per-state
sampler.  Determinism contract: the sequence of sampled states is a pure
function of (kind, count, seed).  The stream is cut into chunks of CHUNK
states; chunk ``i`` is drawn from a counter-based Philox generator keyed by
``seed XOR splitmix64(i)``, so its states depend only on (kind, seed, i, its
size) and any chunk can be regenerated on its own with generate_chunk
(chunk_generator builds its generator afresh).  A stream holds at most
MAX_COUNT states, 2^64 chunks, so no two of its chunks share a key.  It
builds one generator and re-keys it as each chunk starts, which leaves it
in the state of a freshly built one.  Each state's draws come from its
chunk's generator state by state, in stream order, and the arithmetic that
turns draws into states (Wishart product, unit trace, perturbation mix) is
elementwise or per state; it runs once per stack over each run of pieces of
one draw shape.  So how the draws are cut into stacks does not change
which states a seed gives.

split_specs spreads one count over several kinds and keys part i by
``seed XOR splitmix64(1 + i)``, so every key of a stream is made here.

sample_states(*specs) is one stream over the specs' chunks in order: it
cuts them into stacks of BLOCK states (the last may be shorter) that run
across chunk and spec boundaries.  For one spec every stack lies inside one
chunk, since CHUNK is a multiple of BLOCK.  The stacks are yielded as drawn,
not validated: their consumer validates each one once, and the measuring
path (frontier.scan_points) does so with the eigendecomposition it measures
from.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import groupby
from typing import Callable, Iterable, Iterator, Sequence, Union

import numpy as np

from .states import DensityMatrix, OutOfRange
from .states import make_density  # not called here: bench/spans.py binds sampling.make_density

CHUNK = 1024
MAX_COUNT = CHUNK << 64  # 2^64 chunks: past this a chunk's 64-bit key repeats an earlier chunk's
BLOCK = 128  # states drawn, validated and measured together; bounds the temporaries

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """SplitMix64 finalizer; bijective 64-bit hash used to key chunk streams."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _keyed(rng: np.random.Generator, seed: int, index: int) -> np.random.Generator:
    """``rng`` (Philox) re-keyed to chunk ``index`` of stream ``seed``: the state of a fresh Philox(key=...)."""
    # key words [k, 0], zero counter, empty buffer; cheaper than building a generator,
    # whose SeedSequence the key would override anyway
    rng.bit_generator.state = {"bit_generator": "Philox",
                               "state": {"counter": (0, 0, 0, 0), "key": ((seed ^ splitmix64(index)) & _MASK64, 0)},
                               "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _philox() -> np.random.Generator:
    return np.random.Generator(np.random.Philox(0))  # a fixed seed: no OS entropy for a state _keyed replaces


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """A new Philox generator in the state owned by chunk ``index`` of stream ``seed``."""
    return _keyed(_philox(), seed, index)


@dataclass(frozen=True)
class GinibreRank:
    """Rank-k states G G^dag / Tr from a 4xk complex Gaussian factor G, k in 1..4; rank 4 is Hilbert-Schmidt."""

    rank: int

    def __post_init__(self):
        if operator.index(self.rank) not in (1, 2, 3, 4):
            raise OutOfRange(f"ginibre rank {self.rank} outside 1..4")


@dataclass(frozen=True)
class PureMixture:
    """Convex mixture of m Haar-random pure states with flat Dirichlet weights."""

    size: int

    def __post_init__(self):
        if operator.index(self.size) not in (1, 2, 3, 4, 5, 6):
            raise OutOfRange(f"pure mixture size {self.size} outside 1..6")


@dataclass(frozen=True, eq=False)
class PerturbAbout:
    """Convex perturbations (1-w) base + w ginibre with w uniform on (0, eps]."""

    base: DensityMatrix
    eps: float

    def __post_init__(self):
        if not 0.0 < self.eps <= 1.0:
            raise OutOfRange(f"perturbation eps={self.eps} outside (0, 1]")


EnsembleKind = Union[GinibreRank, PureMixture, PerturbAbout]


@dataclass(frozen=True, eq=False)
class EnsembleSpec:
    """A reproducible ensemble: what to draw, how many, from which seed (count and seed are ints)."""

    kind: EnsembleKind
    count: int
    seed: int

    def __post_init__(self):
        if operator.index(self.count) < 1:
            raise OutOfRange(f"sample count {self.count} must be >= 1")
        if self.count > MAX_COUNT:
            raise OutOfRange(f"sample count {self.count} exceeds 2^64 chunks of {CHUNK}")
        if not 0 <= operator.index(self.seed) <= _MASK64:
            raise OutOfRange("seed must fit in 64 unsigned bits")


def split_specs(kinds: Sequence[EnsembleKind], count: int, seed: int) -> list[EnsembleSpec]:
    """``count`` states over ``kinds``, the first ``count % len(kinds)`` parts one larger, empty parts dropped;
    part i is drawn from the seed ``seed ^ splitmix64(1 + i)``."""
    if not kinds:
        raise OutOfRange("need at least one ensemble kind")
    share, extra = divmod(count, len(kinds))
    parts = ((i, kind, share + (i < extra)) for i, kind in enumerate(kinds))
    return [EnsembleSpec(kind, size, seed ^ splitmix64(1 + i)) for i, kind, size in parts if size]


def _wishart(normals: np.ndarray) -> np.ndarray:
    """G G^dag for the complex factor G = normals[..., 0, :, :] + i normals[..., 1, :, :]."""
    g = normals[..., 0, :, :] + 1j * normals[..., 1, :, :]
    return g @ g.conj().swapaxes(-1, -2)


def _unit_trace(wish: np.ndarray) -> np.ndarray:
    # Tr == 0 needs every Gaussian of the factor to be exactly 0; the non-finite
    # quotient it would give is rejected by validation, not redrawn
    return wish / np.trace(wish, axis1=1, axis2=2).real[:, None, None]


def _ginibre(normals: np.ndarray) -> np.ndarray:
    return _unit_trace(_wishart(normals))


def _mixture_draws(rng: np.random.Generator, n: int, size: int) -> tuple[np.ndarray, np.ndarray]:
    weights = np.empty((n, size))
    normals = np.empty((n, size, 2, 4))
    for i in range(n):  # each state's Dirichlet weights, then its vectors' Gaussians
        weights[i] = rng.dirichlet(np.ones(size))
        rng.standard_normal(out=normals[i])
    return weights, normals


def _pure_mixtures(weights: np.ndarray, normals: np.ndarray) -> np.ndarray:
    psi = normals[:, :, 0] + 1j * normals[:, :, 1]
    re, im = psi.real[..., None, :], psi.imag[..., None, :]
    # the dot products np.linalg.norm takes of one vector, so the same bits
    psi /= np.sqrt(re @ re.swapaxes(-1, -2) + im @ im.swapaxes(-1, -2))[..., 0]
    mats = np.zeros((len(weights), 4, 4), dtype=np.complex128)
    for k in range(weights.shape[1]):
        mats += weights[:, k, None, None] * (psi[:, k, :, None] * psi[:, k, None, :].conj())
    return mats


def _perturbation_draws(rng: np.random.Generator, n: int, base: DensityMatrix,
                        eps: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    w = np.empty(n)
    normals = np.empty((n, 2, 4, 4))
    for i in range(n):  # each state's weight, uniform on (0, eps], then its noise state's Gaussians
        w[i] = eps * (1.0 - rng.random())
        rng.standard_normal(out=normals[i])
    return w, normals, base.mat[None].repeat(n, axis=0)  # the base once per state


def _perturbations(w: np.ndarray, normals: np.ndarray, bases: np.ndarray) -> np.ndarray:
    w = w[:, None, None]
    # a non-finite noise state makes its mix non-finite, which validating the mix's stack rejects
    return (1.0 - w) * bases + w * _unit_trace(_wishart(normals))


Piece = tuple[Callable[..., np.ndarray], tuple[np.ndarray, ...]]  # (assembly, draws: one row per state)


def _piece(kind: EnsembleKind, rng: np.random.Generator, n: int) -> Piece:
    """The draws of n states of ``kind`` from ``rng``, in per-state order, and the function that assembles them."""
    if isinstance(kind, GinibreRank):
        return _ginibre, (rng.standard_normal((n, 2, 4, kind.rank)),)
    if isinstance(kind, PureMixture):
        return _pure_mixtures, _mixture_draws(rng, n, kind.size)
    if isinstance(kind, PerturbAbout):
        return _perturbations, _perturbation_draws(rng, n, kind.base, kind.eps)
    raise TypeError(f"unknown ensemble kind {kind!r}")


def _assembled(pieces: list[Piece]) -> np.ndarray:
    """The unvalidated states of drawn pieces, in order, as one (n, 4, 4) stack.

    Each run of consecutive pieces with one assembly and one draw shape is
    assembled once; the arithmetic is elementwise or per state, so the bits
    are those of assembling each piece on its own.
    """
    # list comprehensions, not map(np.concatenate, zip(...)): scans on that form held about 0.5 MB more
    runs = [assemble(*[np.concatenate(column) for column in zip(*[draws for _, draws in run])])
            for (assemble, _), run in groupby(pieces, key=lambda piece: (piece[0], [a.shape[1:] for a in piece[1]]))]
    return runs[0] if len(runs) == 1 else np.concatenate(runs)


def chunk_sizes(count: int) -> Iterator[int]:
    """The sizes of the chunks of a ``count``-state stream, made as they are read."""
    return (min(CHUNK, count - start) for start in range(0, count, CHUNK))


def _stacks(chunks: Iterable[tuple[EnsembleKind, np.random.Generator, int]]) -> Iterator[np.ndarray]:
    """The states of (kind, generator, size) chunks, in order, as drawn stacks of BLOCK states.

    A stack takes its states from as many chunks as it needs; only the last
    stack may hold fewer than BLOCK states.  A chunk's draws are all made
    before the next chunk is pulled, so its generator may be re-keyed for
    the next one.  Nothing is validated here.
    """
    pieces, room = [], BLOCK
    for kind, rng, size in chunks:
        while size:
            n = min(room, size)
            pieces.append(_piece(kind, rng, n))
            size -= n
            room -= n
            if not room:
                yield _assembled(pieces)
                pieces, room = [], BLOCK
    if pieces:
        yield _assembled(pieces)


def generate_chunk(spec: EnsembleSpec, index: int, size: int) -> list[np.ndarray]:
    """Chunk ``index`` of the stream: drawn, unvalidated stacks of at most BLOCK states, in order."""
    return list(_stacks([(spec.kind, chunk_generator(spec.seed, index), size)]))


def sample_states(*specs: EnsembleSpec) -> Iterator[np.ndarray]:
    """The states of every spec, in spec and stream order, as drawn (n, 4, 4) stacks.

    Stacks hold BLOCK states, except the last, and may span chunks and specs.
    They are not validated here: frontier.scan_points (and so scan and
    certify) validates each stack before it measures it.
    """
    rng = _philox()  # one generator, re-keyed as each chunk is pulled
    return _stacks((spec.kind, _keyed(rng, spec.seed, i), n)
                   for spec in specs for i, n in enumerate(chunk_sizes(spec.count)))
