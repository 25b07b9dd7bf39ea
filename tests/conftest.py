import numpy as np
import pytest

from memslab.sampling import sample_states, wishart
from memslab.states import make_density


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_state(seed: int, rank: int = 4):
    """One reproducible Ginibre state of the given rank (test helper, not the library stream)."""
    w = wishart(rng_from(seed), rank)
    return make_density(w / np.trace(w).real)


def sampled_states(spec):
    """The states of sample_states(spec) one DensityMatrix at a time, in stream order."""
    return (make_density(mat) for mats in sample_states(spec) for mat in mats)


def random_local_unitary(rng: np.random.Generator) -> np.ndarray:
    """Haar-random U_A (x) U_B."""
    def haar2(r):
        z = (r.standard_normal((2, 2)) + 1j * r.standard_normal((2, 2))) / np.sqrt(2)
        q, rr = np.linalg.qr(z)
        return q * (np.diagonal(rr) / np.abs(np.diagonal(rr)))
    return np.kron(haar2(rng), haar2(rng))


@pytest.fixture
def rng():
    return rng_from(12345)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Counts of the test's np.linalg eigh/eigvalsh/svd calls, through the module attributes the library looks up."""
    counts = dict.fromkeys(("eigh", "eigvalsh", "svd"), 0)
    for name in counts:
        def counted(*args, _name=name, _fn=getattr(np.linalg, name), **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def assert_close(a, b, tol):
    assert abs(a - b) <= tol, f"|{a} - {b}| = {abs(a - b)} > {tol}"
