"""Validated two-qubit density matrices and the named state families.

Basis ordering is the computational basis |00>, |01>, |10>, |11>.
Construction rejects unphysical input instead of repairing it: the frontier
certification in :mod:`memslab.frontier` depends on the sampler never being
silently "fixed up".  Only :func:`pure_from_vector` rescales its input, since
a vector normalization is unambiguous.

Stacks have two validators with one check routine: validate_stack reads the
PSD check from a stacked eigvalsh, and validate_eigh from a stacked eigh that
it returns.  Every measuring path (frontier.scan_points, and tangle_batch
under every other tangle) validates with validate_eigh and measures that
eigh's root with measures.tangle_root, so it decomposes each state once.
"""

from __future__ import annotations

import contextlib
import enum
import hashlib
import os
import stat
from dataclasses import dataclass
from typing import Iterator, TextIO

import numpy as np

from .linalg import HERM_TOL, PSD_CLAMP, NotHermitian, NotPSD, as_cmat, herm_defect

TRACE_TOL = 1e-10


class TraceNotOne(ValueError):
    """Matrix trace differs from 1 beyond tolerance."""


class OutOfRange(ValueError):
    """A parameter lies outside its admissible interval."""


class ZeroVector(ValueError):
    """A state vector with vanishing norm cannot be normalized."""


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated 4x4 two-qubit state: Hermitian, unit trace, PSD.

    Instances are immutable; the wrapped array is a read-only copy that owns
    its data.  Build through :func:`make_density` or a family constructor;
    filtering.best_filter and frontier.hill_climb wrap, through _held, a
    matrix that their own stack validation already accepted.
    """

    mat: np.ndarray


def _checked(raw, vectors: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """(mats, w, v) of an (n, 4, 4) stack whose every matrix passes make_density's checks.

    w holds each matrix's ascending eigenvalues, from eigh when ``vectors``
    (then v holds its eigenvectors) and from eigvalsh otherwise (v is None);
    the PSD check reads w's first column.  The first matrix that fails a
    check raises the error make_density raises for it alone.
    """
    mats = np.asarray(raw, dtype=np.complex128)
    if mats.ndim != 3 or mats.shape[1:] != (4, 4):
        raise ValueError(f"expected a stack of 4x4 matrices, got shape {mats.shape}")
    if not np.isfinite(mats).all():
        first = int(np.argmin(np.isfinite(mats).all(axis=(1, 2))))
        _checked(mats[:first], vectors)  # an earlier matrix may fail another check
        raise ValueError("matrix has non-finite entries")
    defect = herm_defect(mats)
    off = np.abs(np.einsum("nii->n", mats) - 1.0)
    w, v = np.linalg.eigh(mats) if vectors else (np.linalg.eigvalsh(mats), None)
    low = w[:, 0]
    bad = (defect > HERM_TOL) | (off > TRACE_TOL) | (low < -PSD_CLAMP)
    if bad.any():
        k = int(np.argmax(bad))
        if defect[k] > HERM_TOL:
            raise NotHermitian(f"Hermiticity defect ||rho - rho^dag||_F = {defect[k]:.3e} exceeds {HERM_TOL:.0e}")
        if off[k] > TRACE_TOL:
            raise TraceNotOne(f"|Tr rho - 1| = {off[k]:.3e} exceeds {TRACE_TOL:.0e}")
        raise NotPSD(f"minimum eigenvalue {low[k]:.3e} is below -{PSD_CLAMP:.0e}")
    return mats, w, v


def validate_stack(raw) -> np.ndarray:
    """Validate each matrix of an (n, 4, 4) stack as a physical two-qubit state.

    Applies make_density's checks to every matrix: finite entries, the
    Hermiticity defect, the trace and the minimum eigenvalue (from one
    stacked eigvalsh).  The first matrix that fails one raises the error
    make_density raises for it alone.  Returns the stack as a complex128
    array; no repair is attempted.
    """
    return _checked(raw, vectors=False)[0]


def validate_eigh(raw) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """validate_stack's checks and errors, with the PSD check read from one stacked eigh.

    Returns (mats, w, v): the complex128 stack and its eigh, whose root
    measuring code reuses (measures.tangle_root) instead of decomposing again.
    """
    return _checked(raw, vectors=True)


def _held(mat: np.ndarray) -> DensityMatrix:
    """A DensityMatrix of a read-only copy of ``mat``, one matrix of a stack that _checked accepted."""
    mat = mat.copy()
    mat.flags.writeable = False
    return DensityMatrix(mat=mat)


def make_density(raw) -> DensityMatrix:
    """Validate ``raw`` as a physical two-qubit density matrix.

    Raises NotHermitian / TraceNotOne / NotPSD naming the violated invariant
    together with its magnitude.  No repair is attempted.
    """
    return _held(validate_stack(as_cmat(raw)[None])[0])


class BellKind(enum.Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


_BELL_VECTORS = {
    BellKind.PHI_PLUS: (1.0, 0.0, 0.0, 1.0),
    BellKind.PHI_MINUS: (1.0, 0.0, 0.0, -1.0),
    BellKind.PSI_PLUS: (0.0, 1.0, 1.0, 0.0),
    BellKind.PSI_MINUS: (0.0, 1.0, -1.0, 0.0),
}


def bell(kind: BellKind) -> DensityMatrix:
    """Rank-one projector onto the chosen Bell vector."""
    return pure_from_vector(np.array(_BELL_VECTORS[kind], dtype=np.complex128))


def maximally_mixed() -> DensityMatrix:
    return make_density(np.eye(4, dtype=np.complex128) / 4.0)


def pure_from_vector(psi) -> DensityMatrix:
    """Projector |psi><psi| / <psi|psi>; the only constructor that rescales."""
    vec = np.asarray(psi, dtype=np.complex128).reshape(-1)
    if vec.shape != (4,):
        raise ValueError(f"expected 4 amplitudes, got {vec.shape}")
    norm = float(np.linalg.norm(vec))
    if norm < 1e-150:
        raise ZeroVector("state vector has vanishing norm")
    vec = vec / norm
    return make_density(np.outer(vec, vec.conj()))


def werner(gamma: float) -> DensityMatrix:
    """Mixture of the maximally mixed state with the Bell state |phi+>.

    rho = ((1 - gamma)/4) I + gamma |phi+><phi+|; entangled for gamma > 1/3.
    """
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"werner weight gamma={gamma} outside [0, 1]")
    mat = np.eye(4, dtype=np.complex128) * ((1.0 - gamma) / 4.0)
    mat[0, 0] += gamma / 2.0
    mat[3, 3] += gamma / 2.0
    mat[0, 3] += gamma / 2.0
    mat[3, 0] += gamma / 2.0
    return make_density(mat)


def mems_population(gamma: float) -> float:
    """Corner population of the boundary family: gamma/2 above the branch
    point at gamma = 2/3, frozen at 1/3 below it."""
    return gamma / 2.0 if gamma >= 2.0 / 3.0 else 1.0 / 3.0


def mems(gamma: float) -> DensityMatrix:
    """Maximally entangled mixed state at coherence weight ``gamma``.

    Diagonal (g, 1-2g, 0, g) with corner coherences gamma/2, where
    g = mems_population(gamma).  This family attains the maximum tangle for
    each value of the linear entropy.
    """
    if not 0.0 <= gamma <= 1.0:
        raise OutOfRange(f"mems coherence gamma={gamma} outside [0, 1]")
    g = mems_population(gamma)
    mat = np.zeros((4, 4), dtype=np.complex128)
    mat[0, 0] = g
    mat[1, 1] = 1.0 - 2.0 * g
    mat[3, 3] = g
    mat[0, 3] = gamma / 2.0
    mat[3, 0] = gamma / 2.0
    return make_density(mat)


# --- text matrix format -----------------------------------------------------
#
# Four data lines, each holding four whitespace-separated complex entries
# written as "re,im" (e.g. 0.5,0.0), row-major.  Blank lines and '#' comments
# are tolerated.  Written values round-trip exactly.


def format_matrix(mat) -> str:
    mat = as_cmat(mat)
    lines = []
    for row in mat:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def parse_matrix(text: str) -> np.ndarray:
    """Parse the text matrix format into a raw 4x4 complex array.

    The result is unvalidated: feed it to make_density to obtain a state.
    """
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        body = line.split("#", 1)[0].strip()
        if not body:
            continue
        fields = body.split()
        if len(fields) != 4:
            raise ValueError(f"line {lineno}: expected 4 entries, got {len(fields)}")
        row = []
        for field in fields:
            parts = field.split(",")
            if len(parts) != 2:
                raise ValueError(f"line {lineno}: entry {field!r} is not 're,im'")
            try:
                row.append(complex(float(parts[0]), float(parts[1])))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: entry {field!r}: {exc}") from None
        rows.append(row)
    if len(rows) != 4:
        raise ValueError(f"expected 4 matrix rows, got {len(rows)}")
    return as_cmat(rows)


@contextlib.contextmanager
def overwrite(path) -> Iterator[TextIO]:
    """An ASCII text handle that writes ``path`` from its start, in place, cut to length when writing stops.

    The file is opened without O_TRUNC, so an existing file is never cut to
    length 0: ext4 (auto_da_alloc) flushes an already written file so
    truncated to disk when it is closed, and rewriting an existing, non-empty
    file would wait on the disk.  A fresh path was never truncated.
    When the block exits, by return or by exception, a regular file is cut
    at the handle's position, so it holds exactly the bytes written, as with
    open(path, "w"); pipes and devices are left uncut.  Any end that skips
    Python's cleanup (SIGTERM, SIGKILL, an OOM kill, a crash or power loss)
    skips the cut: the old file's tail, possibly starting mid-line, stays
    after the new bytes, and the result can parse as a valid file.
    """
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "w", encoding="ascii", newline="\n") as handle:
        try:
            yield handle
        finally:
            if stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                handle.truncate()


def write_matrix_file(path, mat) -> None:
    """Write ``mat`` to ``path`` in the text matrix format, overwriting any file there in place."""
    with overwrite(path) as handle:
        handle.write(format_matrix(mat))


def read_matrix_file(path) -> np.ndarray:
    with open(path, "r", encoding="ascii") as handle:
        return parse_matrix(handle.read())


def digest(mat: np.ndarray) -> str:
    """Short stable hex digest of a state matrix's raw bytes (witness bookkeeping)."""
    return hashlib.sha256(np.ascontiguousarray(mat).tobytes()).hexdigest()[:16]
