import math

import numpy as np
import pytest

from memslab.frontier import (
    LN4,
    S_BRANCH,
    S_EDGE,
    CertificationReport,
    MixednessMetric,
    UnsupportedMetric,
    certify,
    certify_states,
    envelope_tangle,
    hill_climb,
    mems_curve,
    mems_linear_entropy,
    scan,
    werner_curve,
)
from memslab.measures import linear_entropy, tangle, von_neumann_entropy
from memslab.sampling import EnsembleSpec, GinibreFull, GinibreRank, PerturbAbout
from memslab.states import OutOfRange, mems, werner

LINEAR = MixednessMetric.LINEAR


def werner_tangle(gamma):
    return max(0.0, (3 * gamma - 1) / 2) ** 2


class TestCurves:
    def test_mems_endpoints(self):
        points = mems_curve(101)
        g0, t0, s0 = points[0]
        g1, t1, s1 = points[-1]
        assert (g0, t0) == (0.0, 0.0) and abs(s0 - 8 / 9) <= 1e-15
        assert (g1, t1, s1) == (1.0, 1.0, 0.0)

    def test_mems_branch_point(self):
        gamma = 2 / 3
        assert mems_linear_entropy(gamma) == pytest.approx(16 / 27, abs=1e-15)
        # same value from the high-coherence branch formula (8/3) g (1 - g)
        assert (8 / 3) * gamma * (1 - gamma) == pytest.approx(16 / 27, abs=1e-15)

    def test_werner_measured_points(self):
        points = werner_curve(11)
        gammas = [p[0] for p in points]
        assert gammas == [i / 10 for i in range(11)]
        g, t, s = points[6]  # gamma = 0.6
        assert t == pytest.approx(0.16, abs=1e-12)
        assert s == pytest.approx(0.64, abs=1e-12)
        assert points[0][1] == 0.0 and points[0][2] == pytest.approx(1.0, abs=1e-12)
        assert points[-1][1] == pytest.approx(1.0, abs=1e-12)
        assert points[-1][2] == pytest.approx(0.0, abs=1e-12)

    def test_curves_match_measured_states(self):
        for gamma, tau, s in mems_curve(21):
            state = mems(gamma)
            assert tangle(state) == pytest.approx(tau, abs=1e-12)
            assert linear_entropy(state) == pytest.approx(s, abs=1e-12)

    def test_point_count_validated(self):
        with pytest.raises(OutOfRange):
            mems_curve(1)
        with pytest.raises(OutOfRange):
            werner_curve(0)


class TestEnvelope:
    def test_anchor_points(self):
        assert envelope_tangle(LINEAR, 0.0) == 1.0
        assert envelope_tangle(LINEAR, 8 / 9) == pytest.approx(0.0, abs=1e-12)
        assert envelope_tangle(LINEAR, 16 / 27) == pytest.approx(4 / 9, abs=1e-12)
        assert envelope_tangle(LINEAR, 0.95) == 0.0
        assert envelope_tangle(LINEAR, 1.0) == 0.0

    def test_round_trip(self):
        for gamma in np.linspace(0, 1, 101):
            s = mems_linear_entropy(gamma)
            assert envelope_tangle(LINEAR, s) == pytest.approx(gamma * gamma, abs=1e-10)

    def test_branch_continuity(self):
        below = envelope_tangle(LINEAR, S_BRANCH - 1e-12)
        above = envelope_tangle(LINEAR, S_BRANCH + 1e-12)
        assert abs(below - above) < 1e-10
        assert abs(envelope_tangle(LINEAR, S_EDGE - 1e-12)) < 1e-10

    def test_unsupported_metric(self):
        with pytest.raises(UnsupportedMetric):
            envelope_tangle(MixednessMetric.VON_NEUMANN_NORMALIZED, 0.5)

    def test_out_of_range(self):
        with pytest.raises(OutOfRange):
            envelope_tangle(LINEAR, -0.1)
        with pytest.raises(OutOfRange):
            envelope_tangle(LINEAR, 1.1)

    def test_monotone_decreasing(self):
        grid = np.linspace(0, 1, 500)
        values = [envelope_tangle(LINEAR, s) for s in grid]
        assert all(b <= a + 1e-15 for a, b in zip(values, values[1:]))


class TestDominance:
    def test_mems_above_werner(self):
        # at equal linear entropy the envelope strictly exceeds the Werner tangle
        for gw in np.linspace(1 / 3 + 1e-3, 1 - 1e-3, 333):
            gap = envelope_tangle(LINEAR, 1 - gw * gw) - werner_tangle(gw)
            assert gap > 0.0

    def test_curves_meet_only_at_endpoints(self):
        # the tangle gap at matched linear entropy vanishes only at s=0 and s=8/9
        for s in np.linspace(1e-3, 8 / 9 - 1e-3, 400):
            gw = math.sqrt(1 - s)  # Werner gamma with this linear entropy
            gap = envelope_tangle(LINEAR, s) - werner_tangle(gw)
            assert gap > 1e-7


class TestScan:
    def test_single_sample_single_bin(self):
        env = scan(EnsembleSpec(GinibreFull(), 1, seed=3), LINEAR, bins=32)
        assert env.samples_total == 1
        assert len(env.bins) == 1
        assert env.bins[0].count == 1

    def test_bins_respect_envelope(self):
        env = scan(EnsembleSpec(GinibreFull(), 30_000, seed=9), LINEAR, bins=100)
        assert env.samples_total == 30_000
        for stat in env.bins:
            assert stat.max_tangle <= envelope_tangle(LINEAR, stat.hi) + 1e-9

    def test_perturbed_boundary_hugging(self):
        spec = EnsembleSpec(PerturbAbout(mems(0.9), 0.02), 3000, seed=17)
        env = scan(spec, LINEAR, bins=100)
        target = (8 / 3) * 0.9 * 0.1  # linear entropy of the base state
        occupied = [s for s in env.bins if s.lo <= target <= s.hi or abs(s.lo - target) < 0.05]
        assert occupied
        best = max(s.max_tangle for s in occupied)
        assert best >= envelope_tangle(LINEAR, target) - 0.02

    def test_vn_metric_supported(self):
        env = scan(EnsembleSpec(GinibreFull(), 500, seed=5),
                   MixednessMetric.VON_NEUMANN_NORMALIZED, bins=20)
        assert env.samples_total == 500
        for stat in env.bins:
            assert 0.0 <= stat.lo < stat.hi <= 1.0

    def test_bin_count_validated(self):
        for bins in (5, 0, -3):
            with pytest.raises(OutOfRange):
                scan(EnsembleSpec(GinibreFull(), 10, seed=1), LINEAR, bins=bins)

    def test_deterministic(self):
        spec = EnsembleSpec(GinibreRank(3), 2000, seed=123)
        a = scan(spec, LINEAR, bins=40)
        b = scan(spec, LINEAR, bins=40)
        assert a.bins == b.bins


class TestCertify:
    def test_ginibre_passes(self):
        report = certify(EnsembleSpec(GinibreFull(), 10_000, seed=1), tolerance=1e-9)
        assert report.passed
        assert report.max_violation <= 1e-9
        assert report.samples_total == 10_000

    def test_perturbed_passes(self):
        spec = EnsembleSpec(PerturbAbout(mems(0.5), 0.05), 2000, seed=6)
        assert certify(spec, tolerance=1e-9).passed

    def test_envelope_member_is_tight(self):
        report = certify_states([mems(0.5)], tolerance=1e-9)
        assert abs(report.max_violation) <= 1e-12
        assert report.violating_state is not None

    def test_werner_is_interior(self):
        report = certify_states([werner(0.8)], tolerance=1e-9)
        assert report.max_violation < -0.1  # far below the envelope

    def test_tolerance_validated(self):
        for tolerance in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(OutOfRange):
                certify(EnsembleSpec(GinibreFull(), 1, seed=0), tolerance=tolerance)
            with pytest.raises(OutOfRange):
                certify_states([mems(0.1)], tolerance=tolerance)

    def test_verdict_logic(self):
        fail = CertificationReport(max_violation=1e-3, violating_state=None,
                                   samples_total=1, tolerance=1e-9)
        assert not fail.passed and fail.verdict == "FAIL"
        ok = CertificationReport(max_violation=-0.2, violating_state=None,
                                 samples_total=1, tolerance=1e-9)
        assert ok.passed and ok.verdict == "PASS"


class TestHillClimb:
    def test_werner_is_improvable_at_fixed_linear_entropy(self):
        start = werner(0.8)
        rng = np.random.default_rng(11)
        best = hill_climb(start, LINEAR, steps=3000, rng=rng)
        assert tangle(best) > tangle(start)
        assert abs(linear_entropy(best) - linear_entropy(start)) <= 1e-3

    def test_mems_cannot_beat_envelope_at_fixed_linear_entropy(self):
        # within the +-band the climb may ride up the envelope, but never above it
        start = mems(0.5)
        s0 = linear_entropy(start)
        rng = np.random.default_rng(7)
        best = hill_climb(start, LINEAR, steps=3000, rng=rng, band=1e-3)
        s_best = linear_entropy(best)
        assert abs(s_best - s0) <= 1e-3
        assert tangle(best) <= envelope_tangle(LINEAR, s_best) + 1e-9
        assert tangle(best) <= envelope_tangle(LINEAR, s0 - 1e-3) + 1e-9

    def test_mems_is_improvable_at_fixed_von_neumann(self):
        start = mems(0.6)
        rng = np.random.default_rng(2026)
        best = hill_climb(start, MixednessMetric.VON_NEUMANN_NORMALIZED,
                          steps=8000, rng=rng)
        gain = tangle(best) - tangle(start)
        assert gain > 1e-4
        assert abs(von_neumann_entropy(best) - von_neumann_entropy(start)) / LN4 <= 1e-3

    def test_single_step(self):
        start = mems(0.3)
        best = hill_climb(start, LINEAR, steps=1, rng=np.random.default_rng(0))
        assert tangle(best) >= tangle(start) - 1e-15

    def test_steps_validated(self):
        with pytest.raises(OutOfRange):
            hill_climb(mems(0.3), LINEAR, steps=0, rng=np.random.default_rng(0))
