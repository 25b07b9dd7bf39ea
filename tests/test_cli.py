import subprocess
import sys

import pytest

from memslab import cli, frontier
from memslab.sampling import EnsembleSpec, GinibreRank
from memslab.states import maximally_mixed, write_matrix_file


def run_cli(*argv):
    return cli.run(list(argv))


def parse_kv(captured: str) -> dict:
    out = {}
    for line in captured.strip().splitlines():
        key, _, value = line.partition("=")
        out[key] = value
    return out


class TestMeasure:
    def test_werner_at_threshold(self, capsys):
        assert run_cli("measure", "--family", "werner", "--gamma", "0.3333333333") == 0
        report = parse_kv(capsys.readouterr().out)
        assert abs(float(report["concurrence"])) < 1e-9
        assert set(report) == {"purity", "linear_entropy", "von_neumann",
                               "concurrence", "tangle", "eof", "negativity"}

    def test_mems_zero(self, capsys):
        assert run_cli("measure", "--family", "mems", "--gamma", "0") == 0
        report = parse_kv(capsys.readouterr().out)
        assert float(report["linear_entropy"]) == pytest.approx(8 / 9, abs=1e-11)

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "mixed.mat"
        write_matrix_file(path, maximally_mixed().mat)
        assert run_cli("measure", str(path)) == 0
        report = parse_kv(capsys.readouterr().out)
        assert float(report["tangle"]) == 0.0
        assert float(report["linear_entropy"]) == 1.0

    def test_twelve_significant_digits(self, capsys):
        run_cli("measure", "--family", "mems", "--gamma", "0.5")
        report = parse_kv(capsys.readouterr().out)
        assert report["linear_entropy"].startswith("0.72222222222")

    def test_gamma_required_for_family(self):
        assert run_cli("measure", "--family", "werner") == 2

    def test_gamma_rejected_for_bell(self):
        assert run_cli("measure", "--family", "bell-phi+", "--gamma", "0.5") == 2

    def test_file_and_family_conflict(self, tmp_path):
        path = tmp_path / "m.mat"
        write_matrix_file(path, maximally_mixed().mat)
        assert run_cli("measure", str(path), "--family", "mixed") == 2

    def test_missing_file(self):
        assert run_cli("measure", "/nonexistent/state.mat") == 2

    def test_invalid_matrix_file(self, tmp_path):
        path = tmp_path / "bad.mat"
        path.write_text("1,0 0,0 0,0 0,0\n" * 4)  # trace 4, not a state
        assert run_cli("measure", str(path)) == 2

    def test_unknown_family(self):
        assert run_cli("measure", "--family", "ghz") == 2


class TestCurve:
    def test_mems_endpoint_rows(self, tmp_path):
        out = tmp_path / "mems.csv"
        assert run_cli("curve", "--family", "mems", "--points", "101", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "gamma,tangle,linear_entropy"
        assert len(lines) == 102
        assert lines[-1] == "1,1,0"

    def test_werner_first_row(self, tmp_path):
        out = tmp_path / "werner.csv"
        assert run_cli("curve", "--family", "werner", "--points", "101", "--out", str(out)) == 0
        assert out.read_text().splitlines()[1] == "0,0,1"

    def test_mems_midpoint(self, tmp_path):
        out = tmp_path / "m3.csv"
        run_cli("curve", "--family", "mems", "--points", "3", "--out", str(out))
        gamma, tau, s = out.read_text().splitlines()[2].split(",")
        assert float(gamma) == 0.5
        assert float(tau) == 0.25
        assert float(s) == pytest.approx(8 / 9 - 2 * 0.25 / 3, abs=1e-11)

    def test_bad_points(self, tmp_path):
        assert run_cli("curve", "--family", "mems", "--points", "1",
                       "--out", str(tmp_path / "x.csv")) == 2


class TestScan:
    def test_outputs_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        flags = ["scan", "--ensemble", "ginibre", "--count", "800", "--seed", "7", "--bins", "40"]
        assert run_cli(*flags, "--out", str(out1)) == 0
        assert run_cli(*flags, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        points = out1.read_text().splitlines()
        assert points[0] == "tangle,mixedness"
        assert len(points) == 801
        env_lines = (tmp_path / "a_envelope.csv").read_text().splitlines()
        assert env_lines[0] == "bin_lo,bin_hi,max_tangle"
        assert len(env_lines) > 1

    def test_perturb_mems_determinism(self, tmp_path):
        flags = ["scan", "--ensemble", "perturb-mems", "--count", "600", "--seed", "3",
                 "--bins", "50"]
        out1 = tmp_path / "t1.csv"
        assert run_cli(*flags, "--out", str(out1)) == 0
        out2 = tmp_path / "t2.csv"
        assert run_cli(*flags, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "t1_envelope.csv").read_bytes() == (tmp_path / "t2_envelope.csv").read_bytes()

    def test_envelope_matches_library_scan(self, tmp_path):
        out = tmp_path / "lib.csv"
        assert run_cli("scan", "--ensemble", "ginibre-rank3", "--count", "700", "--seed", "9",
                       "--bins", "25", "--out", str(out)) == 0
        env = frontier.scan(EnsembleSpec(GinibreRank(3), 700, seed=9), frontier.MixednessMetric.LINEAR, 25)
        rows = [",".join(cli.fmt(v) for v in (b.lo, b.hi, b.max_tangle)) for b in env.bins]
        assert (tmp_path / "lib_envelope.csv").read_text().splitlines() == ["bin_lo,bin_hi,max_tangle", *rows]

    def test_no_per_state_report_or_digest(self, tmp_path, monkeypatch):
        def refuse(state):
            raise AssertionError("scan measured a full report")

        digests = []
        monkeypatch.setattr(cli, "measure_report", refuse)
        monkeypatch.setattr(frontier, "digest", lambda state: digests.append(state) or "")
        assert run_cli("scan", "--count", "400", "--seed", "2", "--bins", "10",
                       "--out", str(tmp_path / "d.csv")) == 0
        assert 0 < len(digests) <= 10  # one witness digest per occupied bin

    @pytest.mark.parametrize("bins", ["0", "-3", "5"])
    def test_bad_bins_write_nothing(self, tmp_path, bins):
        out = tmp_path / "bins.csv"
        assert run_cli("scan", "--count", "20", "--bins", bins, "--out", str(out)) == 2
        assert not out.exists()
        assert not (tmp_path / "bins_envelope.csv").exists()

    def test_vn_metric(self, tmp_path):
        out = tmp_path / "vn.csv"
        assert run_cli("scan", "--ensemble", "ginibre", "--count", "200", "--seed", "1",
                       "--metric", "vn", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        mixedness = [float(r.split(",")[1]) for r in rows]
        assert all(0.0 <= m <= 1.0 for m in mixedness)

    def test_unknown_flag_rejected(self, tmp_path):
        assert run_cli("scan", "--count", "10", "--out", str(tmp_path / "x.csv"),
                       "--frobnicate") == 2

    def test_bad_ensemble(self, tmp_path):
        assert run_cli("scan", "--ensemble", "bures", "--count", "10",
                       "--out", str(tmp_path / "x.csv")) == 2


class TestCertify:
    def test_small_pass(self, capsys):
        assert run_cli("certify", "--count", "2000", "--seed", "1", "--tolerance", "1e-9") == 0
        report = parse_kv(capsys.readouterr().out)
        assert report["verdict"] == "PASS"
        assert float(report["max_violation"]) <= 1e-9
        assert report["samples"] == "2000"

    def test_envelope_member(self, capsys):
        assert run_cli("certify", "--ensemble", "mems", "--count", "1") == 0
        report = parse_kv(capsys.readouterr().out)
        assert abs(float(report["max_violation"])) <= 1e-12

    def test_negative_tolerance(self):
        assert run_cli("certify", "--count", "10", "--tolerance", "-1") == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_prints_nothing(self, capsys, tolerance):
        assert run_cli("certify", "--count", "10", "--tolerance", tolerance) == 2
        assert capsys.readouterr().out == ""

    def test_fail_exit_code(self, capsys, monkeypatch):
        # force a verdict flip to exercise the exit-code contract
        monkeypatch.setattr(cli.frontier, "certify_states", lambda states, tolerance:
                            cli.frontier.CertificationReport(1.0, None, 10, tolerance))
        assert run_cli("certify", "--count", "10") == 3
        assert parse_kv(capsys.readouterr().out)["verdict"] == "FAIL"


class TestEnsembleFlags:
    ENSEMBLES = ("ginibre", "ginibre-rank1", "ginibre-rank2", "ginibre-rank3", "ginibre-rank4",
                 "pure-mixture", "perturb-mems")
    BAD_BUDGETS = [("--count", "0"), ("--count", "-5"),
                   ("--count", "10", "--seed", "-1"), ("--count", "10", "--seed", str(2**64))]

    @pytest.mark.parametrize("ensemble", ENSEMBLES + ("mems",))
    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_certify_rejects(self, capsys, ensemble, budget):
        assert run_cli("certify", "--ensemble", ensemble, *budget) == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("ensemble", ENSEMBLES)
    @pytest.mark.parametrize("budget", BAD_BUDGETS)
    def test_scan_rejects(self, tmp_path, ensemble, budget):
        out = tmp_path / "e.csv"
        assert run_cli("scan", "--ensemble", ensemble, *budget, "--out", str(out)) == 2
        assert not out.exists()
        assert not (tmp_path / "e_envelope.csv").exists()


class TestConcentrate:
    def test_high_coherence_limit(self, tmp_path):
        out = tmp_path / "c8.csv"
        assert run_cli("concentrate", "--gamma", "0.8", "--steps", "100", "--out", str(out)) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "kappa,tangle,linear_entropy,success_prob"
        assert len(lines) == 101
        last = lines[-1].split(",")
        assert float(last[0]) == pytest.approx(1e-3, abs=1e-12)
        assert float(last[1]) >= 0.999

    def test_low_coherence_improves(self, tmp_path):
        out = tmp_path / "c4.csv"
        run_cli("concentrate", "--gamma", "0.4", "--steps", "100", "--out", str(out))
        taus = [float(l.split(",")[1]) for l in out.read_text().splitlines()[1:]]
        assert max(taus) > 0.16

    def test_already_maximal(self, tmp_path):
        out = tmp_path / "c1.csv"
        run_cli("concentrate", "--gamma", "1", "--steps", "25", "--out", str(out))
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[1] == "1"

    def test_one_sided_mode(self, tmp_path):
        out = tmp_path / "os.csv"
        assert run_cli("concentrate", "--gamma", "0.8", "--steps", "10",
                       "--mode", "one-sided", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 11

    def test_bad_gamma(self, tmp_path):
        assert run_cli("concentrate", "--gamma", "1.5", "--steps", "5",
                       "--out", str(tmp_path / "x.csv")) == 2


class TestProcessLevel:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "proc.csv"
        result = subprocess.run(
            [sys.executable, "-m", "memslab", "scan", "--count", "300", "--seed", "5",
             "--bins", "30", "--out", str(out)],
            capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        assert out.exists()

    def test_help_exits_zero(self):
        result = subprocess.run([sys.executable, "-m", "memslab", "--help"],
                                capture_output=True, text=True)
        assert result.returncode == 0
        assert "measure" in result.stdout
