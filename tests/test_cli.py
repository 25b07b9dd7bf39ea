import builtins
import contextlib
import hashlib
import io
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import memslab
from memslab import cli, frontier, sampling, states
from memslab.measures import MeasureReport
from memslab.sampling import CHUNK, EnsembleSpec, GinibreRank
from memslab.states import (digest, format_matrix, make_density, maximally_mixed, mems, read_matrix_file, werner,
                            write_matrix_file)


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

    def test_pure_product_file_has_positive_zero_entropy(self, tmp_path, capsys):
        path = tmp_path / "zero.mat"
        write_matrix_file(path, np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex))  # |00><00|
        assert run_cli("measure", str(path)) == 0
        assert parse_kv(capsys.readouterr().out)["von_neumann"] == "0"  # not "-0"

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
            raise AssertionError("scan measured a full report or digested a state")

        monkeypatch.setattr(cli, "measure_report", refuse)
        monkeypatch.setattr(states, "digest", refuse)
        assert not hasattr(frontier, "digest")  # bins hold (lo, hi, max_tangle, count), no witness
        assert run_cli("scan", "--count", "400", "--seed", "2", "--bins", "10",
                       "--out", str(tmp_path / "d.csv")) == 0

    def test_bins_far_past_the_sample_count(self, tmp_path):
        # 10^18 bins, float-sized: only the occupied ones are held, one envelope row each
        bins, spec, linear = 10**18, EnsembleSpec(GinibreRank(4), 200, seed=1), frontier.MixednessMetric.LINEAR
        assert run_cli("scan", "--count", "200", "--seed", "1", "--bins", str(bins),
                       "--out", str(tmp_path / "sparse.csv")) == 0
        env = frontier.scan(spec, linear, bins)
        assert sum(stat.count for stat in env.bins) == env.samples_total == 200
        mixedness = np.concatenate([mix for _, mix in frontier.scan_points(sampling.sample_states(spec), linear)])
        cells = sorted({min(int(s * bins), bins - 1) for s in np.clip(mixedness, 0.0, 1.0).tolist()})
        assert [stat.lo for stat in env.bins] == [idx / bins for idx in cells]
        rows = [",".join(map(cli.fmt, (stat.lo, stat.hi, stat.max_tangle))) for stat in env.bins]
        assert (tmp_path / "sparse_envelope.csv").read_text().splitlines() == ["bin_lo,bin_hi,max_tangle", *rows]

    @pytest.mark.parametrize("bins", ["0", "-3", "5"])
    def test_bad_bins_write_nothing(self, tmp_path, bins):
        out = tmp_path / "bins.csv"
        assert run_cli("scan", "--count", "20", "--bins", bins, "--out", str(out)) == 2
        assert not out.exists()
        assert not (tmp_path / "bins_envelope.csv").exists()

    @pytest.mark.parametrize("out, envelope", [
        ("./cloud", "cloud_envelope"),
        ("results.v2/cloud", "results.v2/cloud_envelope"),
        ("results.v2/x.csv", "results.v2/x_envelope.csv"),
        ("a.tar.gz", "a.tar_envelope.gz"),
        (".hidden", ".hidden_envelope"),
    ])
    def test_envelope_file_name(self, tmp_path, monkeypatch, out, envelope):
        # "_envelope" goes before the file name's own extension; a dot in a directory name is not one
        monkeypatch.chdir(tmp_path)
        (tmp_path / "results.v2").mkdir()
        assert run_cli("scan", "--count", "200", "--seed", "1", "--bins", "10", "--out", out) == 0
        written = {path.relative_to(tmp_path).as_posix() for path in tmp_path.rglob("*") if path.is_file()}
        assert written == {os.path.normpath(out), envelope}
        assert (tmp_path / envelope).read_text().startswith("bin_lo,bin_hi,max_tangle\n")

    def test_vn_metric(self, tmp_path):
        out = tmp_path / "vn.csv"
        assert run_cli("scan", "--ensemble", "ginibre", "--count", "200", "--seed", "1",
                       "--metric", "vn", "--out", str(out)) == 0
        rows = out.read_text().splitlines()[1:]
        mixedness = [float(r.split(",")[1]) for r in rows]
        assert all(0.0 <= m <= 1.0 for m in mixedness)

    @pytest.mark.parametrize("metric", ["linear", "vn"])
    def test_ginibre_is_ginibre_rank4(self, tmp_path, metric):
        for name in ("ginibre", "ginibre-rank4"):  # 1030 states: stacks that cross a CHUNK edge
            assert run_cli("scan", "--ensemble", name, "--metric", metric, "--count", "1030", "--seed", "3",
                           "--bins", "20", "--out", str(tmp_path / f"{name}.csv")) == 0
        for suffix in (".csv", "_envelope.csv"):
            assert (tmp_path / f"ginibre{suffix}").read_bytes() == (tmp_path / f"ginibre-rank4{suffix}").read_bytes()

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

    def test_ginibre_is_ginibre_rank4(self, capsys):
        printed = []
        for name in ("ginibre", "ginibre-rank4"):
            assert run_cli("certify", "--ensemble", name, "--count", "1030", "--seed", "3") == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_screened_count_goes_to_stderr(self, capsys, monkeypatch):
        reports = []
        certify_states = cli.frontier.certify_states
        monkeypatch.setattr(cli.frontier, "certify_states",
                            lambda stacks, tolerance: reports.append(certify_states(stacks, tolerance)) or reports[0])
        assert run_cli("certify", "--count", "2000", "--seed", "1") == 0
        out, err = capsys.readouterr()
        assert err == f"screened={reports[0].screened}\n"
        assert 0 < reports[0].screened < 2000
        assert sorted(parse_kv(out)) == ["max_violation", "samples", "verdict"]

    def test_negative_tolerance(self):
        assert run_cli("certify", "--count", "10", "--tolerance", "-1") == 2

    @pytest.mark.parametrize("tolerance", ["nan", "inf", "0", "-1"])
    def test_bad_tolerance_prints_nothing(self, capsys, tolerance):
        assert run_cli("certify", "--count", "10", "--tolerance", tolerance) == 2
        assert capsys.readouterr().out == ""

    def test_fail_exit_code(self, capsys, monkeypatch):
        # force a verdict flip to exercise the exit-code contract
        monkeypatch.setattr(cli.frontier, "certify_states", lambda states, tolerance:
                            cli.frontier.CertificationReport(1.0, None, 10, tolerance, screened=0))
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


def sha256_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class TestPerturbMemsGoldens:
    """sha256 of perturb-mems outputs at --seed 11, recorded with the per-part sampler.

    At --count 39000 every one of the 19 parts spans three CHUNKs.  Being bytes,
    the digests hold for the numpy and BLAS builds they were recorded with
    (numpy 2.4, OpenBLAS 0.3.31, x86-64, the SkylakeX kernel); under the Haswell
    or Zen kernels (OPENBLAS_CORETYPE) the --count 1000 and 39000 scans differ.
    """

    SCAN = {  # (metric, count) -> (points CSV, envelope CSV)
        ("linear", 1): ("ec6cc924e020d5458ac2f96a1fdbd046901217dbfbda9355bccd330a3734db2d",
                        "9e5f54a7382777d39cacfa352c40bb7c6619e77a21c680b9a0f00230b58a8218"),
        ("vn", 1): ("84c53fcead1818766bec1791c6f798201ed8b4f98ad380a033d8e36e03f0c99d",
                    "ba1e0a1b4162f0bec4686f93db057c0cebad2797d4256c527f5fa1a3f459be2c"),
        ("linear", 38): ("37bb9c5e98410a238eb559ed2b6552a6f11e28bbbaa0d239d9e50acfda345e85",
                         "3b0f86d3eed5636aab155b877f2c96b446b0fcc594007604050109c7a247f67f"),
        ("vn", 38): ("842a73e98266fc88d726ec86e674fd1a31d5ba1f6a0a1be413bf9699a819b572",
                     "5a845f0456e3f6afd26f46279df5581a3b68c527a31ee284b9224062380ed5a4"),
        ("linear", 1000): ("db98ea2d3780d84a60387be1348fc17f4dd4a2d50d4995bf8d7d7b71d2ad7dbd",
                           "b3349c001c6f4d530e8c9a2f2ae8819997c544cc7f375cfe1295ba5947113039"),
        ("vn", 1000): ("a5e6cc29f9d54a2295eb70a094d2dfab20afe3a813107341d436a89f73047347",
                       "e7ecd15d52cf0013d9e0a3c08b681e59c408f34b1e49c068ddee8f8fabe78999"),
        ("linear", 39000): ("4c519351ad4c55f4af8cd42d917a2d109f78a8f3d7eef8c9fc8d1bc21ba0ab8c",
                            "f13bb4240270579cca4069f9a1466f8902816496ed9659b4d0c51cb25f7715ed"),
        ("vn", 39000): ("967bf1f72e36d4fca8d1f3b4087f3bbf2941ea8cbf62979d675d5f5ff1092790",
                        "cdc35b1241a450d343dda32c80d55ef6d9b7b81b22a43e3c745cfbfe4eeac5d7"),
    }
    CERTIFY = {  # count -> (stdout, witness digest)
        1: ("748dedd1bd290ce6012401888df3b16111ee8abc87486447eb36b916dd9c83da", "e5a98701235e2043"),
        38: ("684d3838106fabbd4641060d456de529aecba93fd425bf5642451bebc0cd0d97", "e5a98701235e2043"),
        1000: ("ec5ff5b2afd19393e358d743135044d5644705106ac1d2e85c9f8fcbc0eb43ee", "e5a98701235e2043"),
        39000: ("7437eaeaa5c1862d0121ff670c34e16741990411a53d5f5a720669a0c35d6fe3", "e5a98701235e2043"),
    }

    @pytest.mark.parametrize("metric, count", [pytest.param(*key, marks=pytest.mark.skylakex_bytes) if key[1] >= 1000
                                               else key for key in sorted(SCAN)])
    def test_scan_csvs(self, tmp_path, metric, count):
        out = tmp_path / "p.csv"
        assert run_cli("scan", "--ensemble", "perturb-mems", "--count", str(count), "--seed", "11",
                       "--metric", metric, "--out", str(out)) == 0
        digests = (sha256_bytes(out.read_bytes()), sha256_bytes((tmp_path / "p_envelope.csv").read_bytes()))
        assert digests == self.SCAN[metric, count]

    @pytest.mark.parametrize("count", sorted(CERTIFY))
    def test_certify_stdout_and_witness(self, capsys, monkeypatch, count):
        reports = []
        certify_states = cli.frontier.certify_states

        def keep(stacks, tolerance):
            reports.append(certify_states(stacks, tolerance))
            return reports[-1]

        monkeypatch.setattr(cli.frontier, "certify_states", keep)
        assert run_cli("certify", "--ensemble", "perturb-mems", "--count", str(count), "--seed", "11") == 0
        stdout = sha256_bytes(capsys.readouterr().out.encode("ascii"))
        assert (stdout, digest(reports[0].violating_state.mat)) == self.CERTIFY[count]


def test_reused_parser_matches_a_fresh_one(tmp_path, monkeypatch, capsys):
    # one process, one parser: no default or parsed value may leak from a call into the next
    calls = [
        ["scan", "--count", "10"],  # usage error: --out is missing
        ["scan", "--metric", "vn", "--count", "60", "--seed", "4", "--bins", "20", "--out", "{dir}/vn.csv"],
        ["scan", "--count", "60", "--out", "{dir}/defaults.csv"],
        ["certify", "--count", "60"],
        ["measure", "--family", "mems", "--gamma", "0.5"],
        ["--help"],
    ]

    def outcomes(directory, fresh):
        directory.mkdir()
        seen = []
        for argv in calls:
            if fresh:
                monkeypatch.setattr(cli, "_PARSER", cli.build_parser())
            code = cli.run([arg.format(dir=directory) for arg in argv])
            seen.append((code, *capsys.readouterr()))
        files = {path.name: path.read_bytes() for path in sorted(directory.iterdir())}
        return seen, files

    reused = outcomes(tmp_path / "reused", fresh=False)
    assert [code for code, _, _ in reused[0]] == [2, 0, 0, 0, 0, 0]
    assert len(reused[1]) == 4
    assert reused == outcomes(tmp_path / "fresh", fresh=True)


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


# one run of each command that writes files, with the files it writes into its --out directory
OUTPUT_RUNS = {
    "scan": (["scan", "--ensemble", "perturb-mems", "--count", "300", "--seed", "3", "--bins", "20"],
             ("out.csv", "out_envelope.csv")),
    "curve": (["curve", "--family", "werner", "--points", "7"], ("out.csv",)),
    "concentrate": (["concentrate", "--gamma", "0.6", "--steps", "9"], ("out.csv",)),
}


class TestOutputFiles:
    """Outputs are overwritten in place and cut where writing stops, never truncated to length 0 on open."""

    @pytest.mark.parametrize("command", sorted(OUTPUT_RUNS))
    def test_write_over_longer_files_matches_a_fresh_write(self, tmp_path, command):
        argv, names = OUTPUT_RUNS[command]
        fresh, used = tmp_path / "fresh", tmp_path / "used"
        fresh.mkdir()
        used.mkdir()
        for name in names:
            (used / name).write_text("x" * 10_000)
        assert run_cli(*argv, "--out", str(fresh / "out.csv")) == 0
        assert run_cli(*argv, "--out", str(used / "out.csv")) == 0
        for name in names:
            assert (used / name).read_bytes() == (fresh / name).read_bytes(), name

    def test_a_scan_stopped_by_an_error_leaves_the_rows_written_so_far(self, tmp_path, monkeypatch):
        fresh, out = tmp_path / "fresh.csv", tmp_path / "stopped.csv"
        out.write_text("x" * 10_000)
        assert run_cli("scan", "--count", "100", "--seed", "3", "--out", str(fresh)) == 0  # one stack
        scan_points = frontier.scan_points

        def fail_after_the_stacks(mats, metric):
            yield from scan_points(mats, metric)
            raise states.OutOfRange("stopped after the last stack")

        monkeypatch.setattr(frontier, "scan_points", fail_after_the_stacks)
        assert run_cli("scan", "--count", "100", "--seed", "3", "--out", str(out)) == 2
        assert out.read_bytes() == fresh.read_bytes()

    def test_curve_into_dev_null(self):
        assert run_cli("curve", "--family", "mems", "--points", "5", "--out", os.devnull) == 0

    def test_a_hard_linked_output_keeps_its_inode(self, tmp_path):
        fresh, out, link = tmp_path / "fresh.csv", tmp_path / "out.csv", tmp_path / "link.csv"
        out.write_text("x" * 10_000)
        os.link(out, link)
        inode = out.stat().st_ino
        assert run_cli("curve", "--family", "mems", "--points", "5", "--out", str(fresh)) == 0
        assert run_cli("curve", "--family", "mems", "--points", "5", "--out", str(out)) == 0
        assert out.stat().st_ino == inode
        assert out.read_bytes() == link.read_bytes() == fresh.read_bytes()

    def test_no_output_is_opened_with_o_trunc(self, tmp_path, monkeypatch):
        # ext4 flushes a written file truncated to length 0 when it is closed: rewriting an output would wait on the disk
        flags_by_path, write_opens = {}, []
        real_os_open, real_open = os.open, builtins.open

        def recording_os_open(path, flags, *args, **kwargs):
            flags_by_path[os.fspath(path)] = flags
            return real_os_open(path, flags, *args, **kwargs)

        def recording_open(file, mode="r", *args, **kwargs):
            if not isinstance(file, int) and set(mode) & set("wax+"):
                write_opens.append((file, mode))
            return real_open(file, mode, *args, **kwargs)

        outputs = set()
        for command, (argv, names) in OUTPUT_RUNS.items():
            (tmp_path / command).mkdir()
            for name in names:
                (tmp_path / command / name).write_text("x" * 10_000)
                outputs.add(str(tmp_path / command / name))
        monkeypatch.setattr(os, "open", recording_os_open)  # the os.open the writer calls
        monkeypatch.setattr(builtins, "open", recording_open)
        codes = [run_cli(*argv, "--out", str(tmp_path / command / "out.csv"))
                 for command, (argv, _) in OUTPUT_RUNS.items()]
        monkeypatch.undo()
        assert codes == [0] * len(OUTPUT_RUNS)
        assert write_opens == []
        assert outputs <= set(flags_by_path)
        assert not any(flags_by_path[path] & os.O_TRUNC for path in outputs)

    def test_figure_script_rewrites_its_certification_in_place(self, tmp_path, monkeypatch, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "make_figure_data.py"
        cert, flags_by_path, real_os_open = tmp_path / "certification.txt", {}, os.open
        cert.write_text("x" * 10_000)

        def recording_os_open(path, flags, *args, **kwargs):
            flags_by_path[os.fspath(path)] = flags
            return real_os_open(path, flags, *args, **kwargs)

        monkeypatch.setattr(os, "open", recording_os_open)
        monkeypatch.setattr(sys, "argv", [str(script), "--count", "20", "--certify-count", "20",
                                          "--outdir", str(tmp_path)])
        with pytest.raises(SystemExit) as done:
            runpy.run_path(str(script), run_name="__main__")
        monkeypatch.undo()
        assert done.value.code == 0
        assert not flags_by_path[str(cert)] & os.O_TRUNC
        capsys.readouterr()
        assert run_cli("certify", "--count", "20", "--seed", "9", "--tolerance", "1e-9") == 0  # the script's seed 7 + 2
        assert cert.read_text() == capsys.readouterr().out


HUGE = str(10**400)  # past float and index range: rejected before anything is allocated
PAST_KEYS = str((CHUNK << 64) + 1)  # more than 2^64 chunks: the 64-bit chunk keys would repeat
UNALLOCATABLE = str(10**15)  # float- and index-sized, but its 8 PB kappa schedule fails to allocate before any work


@pytest.mark.parametrize("argv", [
    ["scan", "--count", "10", "--bins", HUGE, "--out"],
    ["scan", "--count", HUGE, "--out"],
    ["certify", "--count", HUGE],
    ["concentrate", "--gamma", "0.5", "--steps", HUGE, "--out"],
    ["concentrate", "--gamma", "0.5", "--steps", UNALLOCATABLE, "--out"],
    ["scan", "--count", PAST_KEYS, "--out"],
    ["certify", "--count", PAST_KEYS],
    ["curve", "--family", "mems", "--points", HUGE, "--out"],
    ["curve", "--family", "werner", "--points", HUGE, "--out"],
], ids=["scan-bins", "scan-count", "certify-count", "concentrate-steps", "concentrate-steps-unallocatable",
        "scan-count-keys", "certify-count-keys", "curve-mems-points", "curve-werner-points"])
def test_oversized_integer_flag_is_a_usage_error(tmp_path, capsys, argv):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "o.csv")]
    assert run_cli(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not any(tmp_path.iterdir())  # not even the --out header line


@pytest.mark.parametrize("ensemble", ["ginibre", "mems"])  # the CLI checks mems, which builds no EnsembleSpec
def test_count_past_the_chunk_keys_names_the_flag(capsys, ensemble):
    assert run_cli("certify", "--ensemble", ensemble, "--count", PAST_KEYS) == 2
    assert capsys.readouterr().err == f"error: --count {PAST_KEYS} exceeds 2^64 chunks of {CHUNK}\n"


# Exit-code fuzzing of the numeric flags.  Each strategy draws (value, valid) pairs, and
# draws only values whose work is bounded: small valid counts, points and steps, values
# rejected before any work, and never a large but float-sized --points or --steps.
PAST_FLOAT = 2**1024  # float() of this or any larger integer raises OverflowError


def _ints(lo, hi, past=None):
    """Valid integers in [lo, hi], invalid ones below lo, and invalid ones from ``past`` on."""
    parts = [st.integers(lo, hi).map(lambda n: (n, True)), st.integers(max_value=lo - 1).map(lambda n: (n, False))]
    if past is not None:
        parts.append(st.integers(min_value=past).map(lambda n: (n, False)))
    return st.one_of(parts)


def _floats(valid):
    return st.floats(allow_nan=True, allow_infinity=True).map(lambda x: (x, valid(x)))


# flag -> (the command it is fuzzed on, its (value, valid) strategy); "--out" is filled in per example
FUZZED_FLAGS = {
    "count": (["scan", "--out"], _ints(1, 300, past=(CHUNK << 64) + 1)),
    "seed": (["scan", "--count", "20", "--out"],
             st.one_of(st.integers(), st.integers(-3, 3), st.integers(2**64 - 3, 2**64 + 3))
             .map(lambda n: (n, 0 <= n < 2**64))),
    "bins": (["scan", "--count", "20", "--out"],
             st.one_of(_ints(10, 10**6, past=PAST_FLOAT), st.integers(10, 2**1000).map(lambda n: (n, True)))),
    "tolerance": (["certify", "--count", "20"], _floats(lambda t: 0.0 < t < math.inf)),
    "eps": (["scan", "--ensemble", "perturb-mems", "--count", "19", "--out"], _floats(lambda e: 0.0 < e <= 1.0)),
    "mixture-size": (["scan", "--ensemble", "pure-mixture", "--count", "20", "--out"],
                     st.integers().map(lambda n: (n, 1 <= n <= 6))),
    "gamma": (["concentrate", "--steps", "5", "--out"], _floats(lambda g: 0.0 <= g <= 1.0)),
    "points": (["curve", "--family", "werner", "--out"], _ints(2, 60, past=PAST_FLOAT)),
    "steps": (["concentrate", "--gamma", "0.5", "--out"], _ints(1, 40, past=PAST_FLOAT)),
}
# ensembles that ignore --eps and --mixture-size still reject their bad values
UNUSED_ON = [["scan", "--ensemble", "ginibre", "--count", "20", "--out"],
             ["certify", "--ensemble", "mems", "--count", "20"]]
ALSO_FUZZED_ON = {"eps": UNUSED_ON, "mixture-size": UNUSED_ON}


def run_captured(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def assert_usage_error(code, out, err):
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("flag", sorted(FUZZED_FLAGS))
@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_numeric_flag_exit_codes(flag, data):
    command, values = FUZZED_FLAGS[flag]
    command = data.draw(st.sampled_from([command, *ALSO_FUZZED_ON.get(flag, [])]))
    value, valid = data.draw(values)
    with tempfile.TemporaryDirectory() as workdir:
        argv = [*command, os.path.join(workdir, "o.csv")] if command[-1] == "--out" else list(command)
        # "--flag=value": argparse would read a separate "-inf" or "-1e-05" as a flag
        code, out, err = run_captured([*argv, f"--{flag}={value!r}"])
        if valid:
            assert code == 0
            # certify's one stderr line counts the samples its tangle bound decided
            assert re.fullmatch(r"screened=\d+\n" if command[0] == "certify" else "", err)
        else:
            assert_usage_error(code, out, err)
            assert not os.listdir(workdir)  # no --out file, not even a header line


ENTRY = st.one_of(st.floats(allow_nan=True, allow_infinity=True).map(repr),
                  st.sampled_from(["0", "0.25", "1e400", "-0.0", "nan", "x", "", "0.5j", "1,2"]))
MATRIX_TEXT = st.one_of(
    st.text(max_size=120),
    # four-ish rows of four-ish "re,im" entries
    st.lists(st.lists(st.tuples(ENTRY, ENTRY).map(",".join), min_size=3, max_size=5).map(" ".join),
             min_size=3, max_size=5).map("\n".join),
    # written states, some of them with one entry overwritten
    st.tuples(st.floats(0.0, 1.0), st.sampled_from([werner, mems]), st.integers(0, 15), st.none() | ENTRY)
    .map(lambda t: _overwritten(format_matrix(t[1](t[0]).mat), t[2], t[3])),
)


def _overwritten(text, index, entry):
    if entry is None:
        return text
    fields = text.split()
    fields[index] = f"{entry},0.0"
    return "\n".join(" ".join(fields[row * 4:row * 4 + 4]) for row in range(4))


def _is_state_file(path) -> bool:
    try:
        make_density(read_matrix_file(path))
    except ValueError:
        return False
    return True


@given(text=MATRIX_TEXT)
@settings(max_examples=150, deadline=None)
def test_matrix_file_exit_codes(text):
    with tempfile.TemporaryDirectory() as workdir:
        path = os.path.join(workdir, "state.mat")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        code, out, err = run_captured(["measure", path])
        if _is_state_file(path):
            assert (code, err) == (0, "")
            assert len(out.splitlines()) == len(MeasureReport.FIELDS)
        else:
            assert_usage_error(code, out, err)


def module_env() -> dict:
    """The environment with the directory of the imported memslab first on PYTHONPATH.

    A child ``python -m memslab`` then runs the package under test, also from
    a checkout without an install.
    """
    src = str(Path(memslab.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


class TestProcessLevel:
    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "proc.csv"
        result = subprocess.run(
            [sys.executable, "-m", "memslab", "scan", "--count", "300", "--seed", "5",
             "--bins", "30", "--out", str(out)],
            capture_output=True, text=True, env=module_env())
        assert result.returncode == 0, result.stderr
        assert out.exists()

    def test_curve_into_a_pipe(self, tmp_path):
        # a pipe cannot be cut: its bytes are the file's, and the run exits 0
        out = tmp_path / "curve.csv"
        assert run_cli("curve", "--family", "mems", "--points", "5", "--out", str(out)) == 0
        result = subprocess.run(
            [sys.executable, "-m", "memslab", "curve", "--family", "mems", "--points", "5", "--out", "/dev/stdout"],
            capture_output=True, env=module_env())
        assert result.returncode == 0, result.stderr
        assert result.stdout == out.read_bytes()

    def test_help_exits_zero(self):
        result = subprocess.run([sys.executable, "-m", "memslab", "--help"],
                                capture_output=True, text=True, env=module_env())
        assert result.returncode == 0
        assert "measure" in result.stdout
