import hashlib
import math

import numpy as np
import pytest

from conftest import cli_kind, random_state, sampled_states
from memslab import cli, sampling
from memslab.frontier import MixednessMetric, bin_maxima, certify_states, envelope_tangle, scan_points
from memslab.measures import (linear_entropy, linear_entropy_batch, measure_report, purity, purity_batch, tangle,
                              tangle_batch)
from memslab.sampling import (
    BLOCK,
    CHUNK,
    EnsembleSpec,
    GinibreRank,
    PerturbAbout,
    PureMixture,
    chunk_generator,
    chunk_sizes,
    generate_chunk,
    sample_states,
    splitmix64,
    wishart,
)
from memslab.states import OutOfRange, make_density, mems, validate_stack, werner


class TestSpecValidation:
    def test_count_zero_rejected(self):
        with pytest.raises(OutOfRange):
            EnsembleSpec(GinibreRank(4), 0, 1)

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
            EnsembleSpec(GinibreRank(4), 1, -1)
        EnsembleSpec(GinibreRank(4), 1, 2**64 - 1)

    def test_count_bound_is_where_chunk_keys_wrap(self):
        # chunk 2^64 + j would be keyed like chunk j and redraw its states
        assert [splitmix64(2**64 + j) for j in (0, 1, 7)] == [splitmix64(j) for j in (0, 1, 7)]
        assert sampling.MAX_COUNT == CHUNK << 64
        spec = EnsembleSpec(GinibreRank(4), CHUNK << 64, 1)  # 2^64 full chunks
        assert len(next(sample_states(spec))) == BLOCK
        for count in ((CHUNK << 64) + 1, (CHUNK << 64) + CHUNK):
            with pytest.raises(OutOfRange, match=r"exceeds 2\^64 chunks of 1024"):
                EnsembleSpec(GinibreRank(4), count, 1)


class TestSplitMix:
    def test_bijective_on_small_range(self):
        values = {splitmix64(i) for i in range(4096)}
        assert len(values) == 4096

    def test_deterministic(self):
        assert splitmix64(0) == splitmix64(0)
        assert splitmix64(1) != splitmix64(2)

    def test_64_bit(self):
        assert 0 <= splitmix64(2**64 - 1) < 2**64


def _chunk(kind, seed, index, n):
    """The first n states of chunk ``index`` of the ``kind`` stream from ``seed``, validated, as one stack."""
    return validate_stack(np.concatenate(generate_chunk(EnsembleSpec(kind, n, seed), index, n)))


class TestGinibre:
    def test_rank_one_is_pure(self):
        assert linear_entropy_batch(_chunk(GinibreRank(1), 99, 0, 50)).max() <= 1e-10

    def test_full_rank_mean_purity(self):
        # Hilbert-Schmidt expectation of Tr[rho^2] is (n + k)/(n k + 1) = 8/17
        mean = np.mean(purity_batch(_chunk(GinibreRank(4), 7, 0, 10_000)))
        assert abs(mean - 8 / 17) < 0.01

    def test_fixed_seed_reproducible(self):
        assert np.array_equal(_chunk(GinibreRank(4), 5, 3, 1), _chunk(GinibreRank(4), 5, 3, 1))

    def test_rank_stratification(self):
        for rank in (1, 2, 3, 4):
            n = 2000
            evs = np.linalg.eigvalsh(_chunk(GinibreRank(rank), 11, rank, n))
            hits = int(((evs > 1e-9).sum(axis=1) == rank).sum())
            assert hits / n >= 0.999

    def test_bad_rank(self):
        with pytest.raises(OutOfRange):
            _chunk(GinibreRank(5), 0, 0, 1)


class TestPureMixture:
    def test_single_component_is_pure(self):
        assert linear_entropy_batch(_chunk(PureMixture(1), 21, 0, 1))[0] <= 1e-10

    def test_six_components_valid(self):
        for mat in _chunk(PureMixture(6), 22, 0, 20):
            make_density(mat)

    def test_reproducible(self):
        assert np.array_equal(_chunk(PureMixture(3), 23, 0, 1), _chunk(PureMixture(3), 23, 0, 1))


class TestPerturbAbout:
    def test_stays_near_base(self):
        base, eps = mems(0.5), 0.01
        # ||(1-w) base + w sigma - base|| = w ||sigma - base|| <= eps * 2
        for mat in _chunk(PerturbAbout(base, eps), 31, 0, 100):
            assert np.linalg.norm(mat - base.mat) <= eps * 2

    def test_tangle_continuity(self):
        taus = tangle_batch(_chunk(PerturbAbout(mems(0.5), 0.05), 32, 0, 200))
        assert np.abs(taus - 0.25).max() <= 0.2

    def test_reproducible(self):
        kind = PerturbAbout(mems(0.7), 0.3)
        assert np.array_equal(_chunk(kind, 33, 1, 1), _chunk(kind, 33, 1, 1))


def _fingerprint(spec):
    return [(purity(s), tangle(s)) for s in sampled_states(spec)]


class TestSampleBatch:
    def test_exact_count(self):
        spec = EnsembleSpec(GinibreRank(4), 2 * CHUNK + 17, seed=4)
        sizes = [len(mats) for mats in sample_states(spec)]
        assert sizes == [BLOCK] * (2 * CHUNK // BLOCK) + [17]

    def test_huge_count_streams_lazily(self):
        # 2^52 chunks: a list of their sizes could not be allocated
        first = next(sample_states(EnsembleSpec(GinibreRank(4), CHUNK << 52, seed=1)))
        assert first.tobytes() == next(sample_states(EnsembleSpec(GinibreRank(4), BLOCK, seed=1))).tobytes()

    def test_identical_sequences_across_runs(self):
        spec = EnsembleSpec(GinibreRank(2), 300, seed=8)
        assert _fingerprint(spec) == _fingerprint(spec)

    def test_stream_matches_generate_chunk(self):
        spec = EnsembleSpec(GinibreRank(4), 2 * CHUNK + 50, seed=13)
        chunks = [np.concatenate(generate_chunk(spec, i, n)) for i, n in enumerate(chunk_sizes(spec.count))]
        assert [len(chunk) for chunk in chunks] == [CHUNK, CHUNK, 50]
        # chunk by chunk the stream is the concatenation of the per-chunk draws
        assert np.array_equal(np.concatenate(chunks), np.concatenate(list(sample_states(spec))))
        assert _fingerprint(spec) == _fingerprint(spec)

    def test_all_samples_validated(self):
        spec = EnsembleSpec(PureMixture(4), 200, seed=2)
        for state in sampled_states(spec):
            make_density(state.mat)
            report = measure_report(state)
            assert 0.0 <= report.tangle <= 1.0
            assert -1e-12 <= report.linear_entropy <= 1.0 + 1e-12

    def test_cloud_bounded(self):
        spec = EnsembleSpec(GinibreRank(4), 3000, seed=77)
        for state in sampled_states(spec):
            report = measure_report(state)
            assert report.tangle <= 1.0 + 1e-12
            assert report.linear_entropy <= 1.0 + 1e-12


KINDS = {
    # the kind --ensemble ginibre samples: its digests were recorded from a separate full-rank
    # class, so these cases pin that the CLI's default ensemble still draws those states
    "GinibreFull": cli_kind("ginibre"),
    **{f"GinibreRank({k})": GinibreRank(k) for k in (1, 2, 3, 4)},
    "PureMixture(1)": PureMixture(1),
    "PureMixture(6)": PureMixture(6),
    "PerturbAbout(mems(0.5),0.05)": PerturbAbout(mems(0.5), 0.05),
}

# sha256 of the bytes of the first ``count`` states of each kind at seed 20260, recorded
# with the sampler that drew and validated one state at a time.  The counts fall on both
# sides of the BLOCK (128) and CHUNK (1024) edges.  Being bytes, the digests hold for the
# floating-point arithmetic of the numpy and BLAS builds they were recorded with
# (numpy 2.4, OpenBLAS 0.3.31, x86-64).
GOLDEN = {
    ("GinibreFull", 1): "8e498257dddfedf2f795c3ee54ab80ab74f215a5f6575ef2b72dd178a0926397",
    ("GinibreFull", 127): "925d9e9336ca3dbe591013755b78529ce0b711c45a1920592cad7dcc91c340c6",
    ("GinibreFull", 129): "2dcc7d6d8f24fbf3e9db014c60df19b492faf83119cab65c9f8385fc9e32c183",
    ("GinibreFull", 1025): "501a65459d883c1bd81059d3ab5469463e63fc0f58b214f0ad76fa2b49ff944f",
    ("GinibreRank(1)", 1): "a0881cb15441c373c973819c5da6ab44b87089754e5cc85946d9e5aa8a7d8d74",
    ("GinibreRank(1)", 127): "ec66d5caa7447861b1fce5a27c94b71c23586e7d757210e0ce8b4ab61f8bd500",
    ("GinibreRank(1)", 129): "256f19d7858a1fe67299c84b842f7c0ecd997b2cec2d2b52bad06b7c031b0519",
    ("GinibreRank(1)", 1025): "f0ebef5dc9e3dc63a49c9b56b31fb9aa967887d851c8c83a9ef856d256941838",
    ("GinibreRank(2)", 1): "a2ca57ceaae9d8a8a2bf17a5ba3ef16a8f6ef761a64e2fdc72078dce06e8f805",
    ("GinibreRank(2)", 127): "243e6c614a7835322e2113eff5e059195d1dd4da465a7d3feb61267bfe068795",
    ("GinibreRank(2)", 129): "9fdc62ef35f62d2dc1581bd8258ad8a68c36c51491f78693ef74c7d8c0049d63",
    ("GinibreRank(2)", 1025): "aee19683fa4e414d31f8df122eea26637fbb6c84a1eb71f2df93a62de4ee1be1",
    ("GinibreRank(3)", 1): "26310eef235cdc3e89bd3ea2ee4fd371c0bb8fc7ceffedfbdc15ea801b97e8bd",
    ("GinibreRank(3)", 127): "8ce45376ff2c9262b7bd9fd629a890dfce99f58844f2433a1a07f938c594c37d",
    ("GinibreRank(3)", 129): "df13f09a9cf850431299d2f5323c5ecd2353454fdb949ca19c6ae6458404b11b",
    ("GinibreRank(3)", 1025): "82e6ddf9d0a98410df889cd58bb2e28997a199524fe8bfa28969802b6c6abcc2",
    ("GinibreRank(4)", 1): "8e498257dddfedf2f795c3ee54ab80ab74f215a5f6575ef2b72dd178a0926397",
    ("GinibreRank(4)", 127): "925d9e9336ca3dbe591013755b78529ce0b711c45a1920592cad7dcc91c340c6",
    ("GinibreRank(4)", 129): "2dcc7d6d8f24fbf3e9db014c60df19b492faf83119cab65c9f8385fc9e32c183",
    ("GinibreRank(4)", 1025): "501a65459d883c1bd81059d3ab5469463e63fc0f58b214f0ad76fa2b49ff944f",
    ("PureMixture(1)", 1): "4640de951da9add58c9cd8cc5bd0ba1dd345d519ce173879007e4c6820f134dc",
    ("PureMixture(1)", 127): "41f56c164d97649288e36c4866a41427ce9ffcb3d2a1f4103941dd137b91b7d3",
    ("PureMixture(1)", 129): "d19966d7c80589918a753ffb2d45e8dd196d6efe139b0c2e0b6abac1df372b81",
    ("PureMixture(1)", 1025): "d4aa1b403b4b53b66bcb53816b3b15fa2f6ee16f659579460226bcd977a85349",
    ("PureMixture(6)", 1): "798218135054823dd16ef3c33f77eeb266478e604cf6498fd7dbd2a865318e0d",
    ("PureMixture(6)", 127): "46067c3aacc667aac7e1368331bf1b703c1781b51817b0397e9df1dd0c0dea47",
    ("PureMixture(6)", 129): "19d53080203f97ac6e47d48866174fcf3d448081b6b85b829fe5d0fb50206cec",
    ("PureMixture(6)", 1025): "8bc5b87a5356f4f04f13722d98af7db8a9659c5d2e18fb86be2517676c57752b",
    ("PerturbAbout(mems(0.5),0.05)", 1): "f27eafb1c0dfecbd634fba657a69f9e9714c5c37e942c95c5b3d5ae5945d2d5b",
    ("PerturbAbout(mems(0.5),0.05)", 127): "59badcaee7465b81fbfd2e0dc78f1f40eb37a3dd044c2c009f04238a235e6fd4",
    ("PerturbAbout(mems(0.5),0.05)", 129): "bd11b9eb302a45121dcbd3aa5fba4d5d1c175ea066e04bcc2b5e867e7d7dd1cc",
    ("PerturbAbout(mems(0.5),0.05)", 1025): "e73ec0a80b2ad82e8ba412680c937fde7e232bad67fdb235a18bbf1272602d11",
}


@pytest.mark.parametrize("name, count", sorted(GOLDEN), ids=[f"{n}-{c}" for n, c in sorted(GOLDEN)])
def test_seed_to_states_mapping_is_pinned(name, count):
    digest = hashlib.sha256()
    for mats in sample_states(EnsembleSpec(KINDS[name], count, seed=20260)):
        digest.update(mats.tobytes())
    assert digest.hexdigest() == GOLDEN[name, count]


def test_random_state_helper_is_pinned():
    # sha256 over random_state(seed, rank).mat, seeds 0-99 by ranks 1-4, recorded with the
    # per-state Ginibre sampler the helper replaces; the same numpy and BLAS builds as GOLDEN
    digest = hashlib.sha256()
    for seed in range(100):
        for rank in (1, 2, 3, 4):
            digest.update(random_state(seed, rank).mat.tobytes())
    assert digest.hexdigest() == "57ce92491934e96c3f5dc3f5f4bee14141b50c4bc44ba4031d7e9317b1637f3e"


@pytest.mark.parametrize("name", sorted(KINDS))
def test_one_state_draw_is_the_first_of_a_chunk(name):
    kind = KINDS[name]
    first = generate_chunk(EnsembleSpec(kind, 1, seed=20260), 0, 1)
    assert np.array_equal(_drawn(kind, chunk_generator(20260, 0), 1), first[0])


@pytest.mark.parametrize("rank", [1, 2, 3, 4])
def test_wishart_matches_two_draw_reference(rank):
    ours, ref = chunk_generator(3, rank), chunk_generator(3, rank)
    for _ in range(200):
        g = ref.standard_normal((4, rank)) + 1j * ref.standard_normal((4, rank))
        assert np.array_equal(wishart(ours, rank), g @ g.conj().T)


def _drawn(kind, rng, n):
    """n states of ``kind`` from ``rng``, drawn and assembled one state at a time."""
    return np.stack([sampling._assembled([sampling._piece(kind, rng, 1)])[0] for _ in range(n)])


def _count_philox(monkeypatch):
    """Record every np.random.Philox built from now on; returns the record."""
    built, philox = [], np.random.Philox

    def counted(*args, **kwargs):
        built.append((args, kwargs))
        return philox(*args, **kwargs)

    monkeypatch.setattr(np.random, "Philox", counted)
    return built


KEYS = [0, 1 << 63 | 7, (1 << 64) - 1]


@pytest.mark.parametrize("key", KEYS)
@pytest.mark.parametrize("index", [0, 3, 1 << 40])
def test_chunk_generator_is_a_fresh_philox_keyed_by_the_chunk(key, index):
    seed = key ^ splitmix64(index)
    ours, fresh = chunk_generator(seed, index), np.random.Generator(np.random.Philox(key=key))
    assert ours.bit_generator.state["state"]["key"].tolist() == [key, 0]
    assert ours.random(5).tolist() == fresh.random(5).tolist()
    assert ours.standard_normal(7).tolist() == fresh.standard_normal(7).tolist()


@pytest.mark.parametrize("key", KEYS)
def test_rekeying_a_used_generator_gives_a_fresh_generators_draws(key):
    rng = chunk_generator(5, 2)
    rng.integers(0, 1 << 31, size=3, dtype=np.int32)  # 32-bit draws leave a buffered half word
    rng.standard_normal(5)
    rng.dirichlet(np.ones(3))
    seed = key ^ splitmix64(7)
    assert sampling._keyed(rng, seed, 7) is rng
    fresh = chunk_generator(seed, 7)
    for draw in (lambda g: g.integers(0, 1 << 31, size=5, dtype=np.int32), lambda g: g.random(3),
                 lambda g: g.standard_normal((2, 4, 4)), lambda g: g.dirichlet(np.ones(4))):
        assert draw(rng).tolist() == draw(fresh).tolist()


def test_perturb_mems_scan_builds_one_bit_generator(monkeypatch, tmp_path):
    built = _count_philox(monkeypatch)
    assert cli.run(["scan", "--ensemble", "perturb-mems", "--count", "38", "--out", str(tmp_path / "p.csv")]) == 0
    assert len(built) == 1  # one per stream, not one per part or chunk


# several specs drawn as one stream: the perturb-mems layout of 19 two-state parts, parts
# that end inside and cross a CHUNK, and parts of every kind
MULTI_SPECS = {
    "perturb-19x2": [EnsembleSpec(PerturbAbout(mems(round(0.05 * (i + 1), 2)), 0.02), 2,
                                  seed=20260 ^ splitmix64(1 + i)) for i in range(19)],
    "chunk-crossing": [EnsembleSpec(GinibreRank(4), 1030, seed=5), EnsembleSpec(GinibreRank(3), 127, seed=6),
                       EnsembleSpec(GinibreRank(4), 1, seed=7)],
    "mixed-kinds": [EnsembleSpec(GinibreRank(2), 200, seed=1), EnsembleSpec(PureMixture(3), 300, seed=2),
                    EnsembleSpec(PerturbAbout(mems(0.7), 0.05), 130, seed=3),
                    EnsembleSpec(GinibreRank(4), 1100, seed=4), EnsembleSpec(PureMixture(6), 1, seed=5)],
    # the generator is re-keyed after PureMixture parts and inside chunk-crossing ones, and
    # stacks hold runs of one kind whose draw shapes differ (ranks, mixture sizes, bases)
    "rekeyed-kinds": [EnsembleSpec(PureMixture(2), 1030, seed=9), EnsembleSpec(GinibreRank(1), 5, seed=10),
                      EnsembleSpec(PureMixture(5), 3, seed=11), EnsembleSpec(GinibreRank(3), 1025, seed=12),
                      EnsembleSpec(GinibreRank(4), 2, seed=13), EnsembleSpec(GinibreRank(4), 2, seed=14),
                      EnsembleSpec(PerturbAbout(mems(0.2), 0.3), 3, seed=15),
                      EnsembleSpec(PerturbAbout(werner(0.9), 0.01), 4, seed=16),
                      EnsembleSpec(PureMixture(1), 2, seed=(1 << 64) - 1)],
}


@pytest.mark.parametrize("name", sorted(MULTI_SPECS))
class TestMultiSpecStream:
    def test_equals_each_spec_stream_and_its_chunks(self, name):
        specs = MULTI_SPECS[name]
        merged = np.concatenate(list(sample_states(*specs)))
        own = np.concatenate([mats for spec in specs for mats in sample_states(spec)])
        chunks = np.concatenate([mats for spec in specs for i, n in enumerate(chunk_sizes(spec.count))
                                 for mats in generate_chunk(spec, i, n)])
        assert merged.tobytes() == own.tobytes()
        assert merged.tobytes() == chunks.tobytes()

    def test_equals_fresh_chunk_generators(self, name):
        specs = MULTI_SPECS[name]
        fresh = np.concatenate([_drawn(spec.kind, chunk_generator(spec.seed, i), n)
                                for spec in specs for i, n in enumerate(chunk_sizes(spec.count))])
        assert np.concatenate(list(sample_states(*specs))).tobytes() == fresh.tobytes()

    def test_one_bit_generator_per_stream(self, name, monkeypatch):
        built = _count_philox(monkeypatch)
        for _ in sample_states(*MULTI_SPECS[name]):
            pass
        assert len(built) == 1

    def test_full_blocks_then_the_rest(self, name):
        total = sum(spec.count for spec in MULTI_SPECS[name])
        full, rest = divmod(total, BLOCK)
        assert [len(mats) for mats in sample_states(*MULTI_SPECS[name])] == [BLOCK] * full + [rest] * bool(rest)

    def test_witnesses_match_a_state_by_state_loop(self, name):
        stacks = list(sample_states(*MULTI_SPECS[name]))
        states = [make_density(mat) for mats in stacks for mat in mats]
        worst, witness = -math.inf, None
        bins = {}  # bin index -> [max tangle, count]
        for state in states:
            tau, s = tangle(state), min(max(linear_entropy(state), 0.0), 1.0)
            violation = tau - envelope_tangle(MixednessMetric.LINEAR, s)
            if violation > worst:
                worst, witness = violation, state
            slot = bins.setdefault(min(int(s * 20), 19), [tau, 0])
            slot[0] = max(slot[0], tau)
            slot[1] += 1
        report = certify_states(stacks, tolerance=1e-9)
        assert (report.max_violation, report.samples_total) == (worst, len(states))
        assert np.array_equal(report.violating_state.mat, witness.mat)
        envelope = bin_maxima(scan_points(stacks, MixednessMetric.LINEAR), 20)
        assert [(b.lo, b.max_tangle, b.count) for b in envelope.bins] == \
            [(idx / 20, *slot) for idx, slot in sorted(bins.items())]


def test_non_finite_noise_is_rejected_by_the_mix_check(monkeypatch, capsys):
    monkeypatch.setattr(sampling, "_unit_trace", lambda wish: np.full_like(wish, np.nan))
    with pytest.raises(ValueError, match="^matrix has non-finite entries$"):
        certify_states(sample_states(EnsembleSpec(PerturbAbout(mems(0.5), 0.05), 3, seed=1)), 1e-9)
    assert cli.run(["certify", "--ensemble", "perturb-mems", "--count", "38"]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: matrix has non-finite entries\n")
