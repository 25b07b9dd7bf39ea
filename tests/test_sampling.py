import numpy as np
import pytest

from memslab.measures import linear_entropy, measure_report, purity, tangle
from memslab.sampling import (
    CHUNK,
    EnsembleSpec,
    GinibreFull,
    GinibreRank,
    PerturbAbout,
    PureMixture,
    chunk_generator,
    chunk_sizes,
    generate_chunk,
    ginibre_state,
    perturb_about,
    pure_mixture_state,
    sample_states,
    splitmix64,
)
from memslab.states import OutOfRange, make_density, mems


class TestSpecValidation:
    def test_count_zero_rejected(self):
        with pytest.raises(OutOfRange):
            EnsembleSpec(GinibreFull(), 0, 1)

    def test_bad_rank(self):
        for rank in (0, 5):
            with pytest.raises(OutOfRange):
                GinibreRank(rank)

    def test_bad_mixture_size(self):
        for size in (0, 7):
            with pytest.raises(OutOfRange):
                PureMixture(size)

    def test_bad_eps(self):
        for eps in (0.0, 1.5, -0.1):
            with pytest.raises(OutOfRange):
                PerturbAbout(mems(0.5), eps)

    def test_seed_range(self):
        with pytest.raises(OutOfRange):
            EnsembleSpec(GinibreFull(), 1, -1)
        EnsembleSpec(GinibreFull(), 1, 2**64 - 1)


class TestSplitMix:
    def test_bijective_on_small_range(self):
        values = {splitmix64(i) for i in range(4096)}
        assert len(values) == 4096

    def test_deterministic(self):
        assert splitmix64(0) == splitmix64(0)
        assert splitmix64(1) != splitmix64(2)

    def test_64_bit(self):
        assert 0 <= splitmix64(2**64 - 1) < 2**64


class TestGinibre:
    def test_rank_one_is_pure(self):
        rng = chunk_generator(99, 0)
        for _ in range(50):
            assert linear_entropy(ginibre_state(rng, 1)) <= 1e-10

    def test_full_rank_mean_purity(self):
        # Hilbert-Schmidt expectation of Tr[rho^2] is (n + k)/(n k + 1) = 8/17
        rng = chunk_generator(7, 0)
        mean = np.mean([purity(ginibre_state(rng, 4)) for _ in range(10_000)])
        assert abs(mean - 8 / 17) < 0.01

    def test_fixed_seed_reproducible(self):
        a = ginibre_state(chunk_generator(5, 3), 4)
        b = ginibre_state(chunk_generator(5, 3), 4)
        assert np.array_equal(a.mat, b.mat)

    def test_rank_stratification(self):
        for rank in (1, 2, 3, 4):
            rng = chunk_generator(11, rank)
            hits = 0
            n = 2000
            for _ in range(n):
                evs = np.linalg.eigvalsh(ginibre_state(rng, rank).mat)
                hits += int((evs > 1e-9).sum() == rank)
            assert hits / n >= 0.999

    def test_bad_rank(self):
        with pytest.raises(OutOfRange):
            ginibre_state(chunk_generator(0, 0), 5)


class TestPureMixture:
    def test_single_component_is_pure(self):
        rng = chunk_generator(21, 0)
        assert linear_entropy(pure_mixture_state(rng, 1)) <= 1e-10

    def test_six_components_valid(self):
        rng = chunk_generator(22, 0)
        for _ in range(20):
            make_density(pure_mixture_state(rng, 6).mat)

    def test_reproducible(self):
        a = pure_mixture_state(chunk_generator(23, 0), 3)
        b = pure_mixture_state(chunk_generator(23, 0), 3)
        assert np.array_equal(a.mat, b.mat)


class TestPerturbAbout:
    def test_stays_near_base(self):
        base = mems(0.5)
        rng = chunk_generator(31, 0)
        for _ in range(100):
            eps = 0.01
            out = perturb_about(base, eps, rng)
            # ||(1-w) base + w sigma - base|| = w ||sigma - base|| <= eps * 2
            assert np.linalg.norm(out.mat - base.mat) <= eps * 2

    def test_tangle_continuity(self):
        base = mems(0.5)
        rng = chunk_generator(32, 0)
        for _ in range(200):
            out = perturb_about(base, 0.05, rng)
            assert abs(tangle(out) - 0.25) <= 0.2

    def test_reproducible(self):
        base = mems(0.7)
        a = perturb_about(base, 0.3, chunk_generator(33, 1))
        b = perturb_about(base, 0.3, chunk_generator(33, 1))
        assert np.array_equal(a.mat, b.mat)


def _fingerprint(spec):
    return [(purity(s), tangle(s)) for s in sample_states(spec)]


class TestSampleBatch:
    def test_exact_count(self):
        spec = EnsembleSpec(GinibreFull(), 2 * CHUNK + 17, seed=4)
        assert sum(1 for _ in sample_states(spec)) == spec.count

    def test_identical_sequences_across_runs(self):
        spec = EnsembleSpec(GinibreRank(2), 300, seed=8)
        assert _fingerprint(spec) == _fingerprint(spec)

    def test_stream_matches_generate_chunk(self):
        spec = EnsembleSpec(GinibreFull(), 2 * CHUNK + 50, seed=13)
        chunks = [[(purity(s), tangle(s)) for s in generate_chunk(spec, i, n)]
                  for i, n in enumerate(chunk_sizes(spec.count))]
        assert [len(chunk) for chunk in chunks] == [CHUNK, CHUNK, 50]
        # chunk by chunk the stream is the concatenation of the per-chunk draws
        flattened = [pair for chunk in chunks for pair in chunk]
        assert flattened == _fingerprint(spec)
        assert _fingerprint(spec) == _fingerprint(spec)

    def test_all_samples_validated(self):
        spec = EnsembleSpec(PureMixture(4), 200, seed=2)
        for state in sample_states(spec):
            make_density(state.mat)
            report = measure_report(state)
            assert 0.0 <= report.tangle <= 1.0
            assert -1e-12 <= report.linear_entropy <= 1.0 + 1e-12

    def test_cloud_bounded(self):
        spec = EnsembleSpec(GinibreFull(), 3000, seed=77)
        for state in sample_states(spec):
            report = measure_report(state)
            assert report.tangle <= 1.0 + 1e-12
            assert report.linear_entropy <= 1.0 + 1e-12
