import numpy as np
import pytest

from memslab.sampling import ginibre_state, sample_states
from memslab.states import make_density


def rng_from(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def random_state(seed: int, rank: int = 4):
    """One reproducible random state (test helper, not the library stream)."""
    return ginibre_state(rng_from(seed), rank)


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


def assert_close(a, b, tol):
    assert abs(a - b) <= tol, f"|{a} - {b}| = {abs(a - b)} > {tol}"
