"""Command-line front end emitting CSV / key=value data for external plotting.

Subcommands: measure, curve, scan, certify, concentrate.  All output is
deterministic given the flags (scans and certifications take an explicit
--seed).  certify also writes screened=N to stderr: the samples whose tangle
its bound decided.  Exit codes: 0 success / certification PASS, 2 usage or
input error, 3 certification FAIL.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Iterator

import numpy as np

from . import filtering, frontier, sampling, states
from .measures import MeasureReport, measure_report

USAGE_ERROR = 2
CERTIFY_FAIL = 3

FAMILIES = ("werner", "mems", "bell-phi+", "bell-phi-", "bell-psi+", "bell-psi-", "mixed")
ENSEMBLES = ("ginibre", "ginibre-rank1", "ginibre-rank2", "ginibre-rank3", "ginibre-rank4",
             "pure-mixture", "perturb-mems")  # the sampled ensembles; certify also takes mems

PERTURB_BASES = tuple(states.mems(round(0.05 * i, 2)) for i in range(1, 20))  # gamma 0.05 .. 0.95, built once


def fmt(value: float) -> str:
    """Numeric field formatting: 12 significant digits."""
    return f"{value:.12g}"


def _row_format(header: str) -> str:
    """The printf format of one CSV row under ``header``: "%.12g" per column, the bytes of fmt."""
    return ",".join(["%.12g"] * len(header.split(","))) + "\n"


def _write_csv(path: str, header: str, rows) -> None:
    """Write ``header`` and one "%.12g" row per item of ``rows`` to ``path``, overwriting any file there in place."""
    row_format = _row_format(header)
    with states.overwrite(path) as handle:
        handle.write(header + "\n")
        for row in rows:
            handle.write(row_format % tuple(row))


def _family_state(family: str, gamma: float | None) -> states.DensityMatrix:
    if family in ("werner", "mems"):
        if gamma is None:
            raise states.OutOfRange(f"--gamma is required for family {family!r}")
        return states.werner(gamma) if family == "werner" else states.mems(gamma)
    if gamma is not None:
        raise states.OutOfRange(f"--gamma does not apply to family {family!r}")
    if family == "mixed":
        return states.maximally_mixed()
    return states.bell(states.BellKind(family.removeprefix("bell-")))


def _print_report(report: MeasureReport) -> None:
    for field in MeasureReport.FIELDS:
        print(f"{field}={fmt(getattr(report, field))}")


def cmd_measure(args) -> int:
    if (args.matrix is None) == (args.family is None):
        raise states.OutOfRange("provide either a matrix file or --family, not both")
    if args.matrix is not None:
        if args.gamma is not None:
            raise states.OutOfRange("--gamma does not apply to file input")
        state = states.make_density(states.read_matrix_file(args.matrix))
    else:
        state = _family_state(args.family, args.gamma)
    _print_report(measure_report(state))
    return 0


def cmd_curve(args) -> int:
    points = frontier.werner_curve(args.points) if args.family == "werner" else frontier.mems_curve(args.points)
    _write_csv(args.out, "gamma,tangle,linear_entropy", points)
    return 0


def _ensemble_specs(args) -> list[sampling.EnsembleSpec]:
    """Resolve --ensemble into one or more sampling specs (count preserved)."""
    name = args.ensemble
    if name.startswith("ginibre"):
        rank = 4 if name == "ginibre" else int(name[-1])  # ginibre is full rank: ginibre-rank4's states
        return [sampling.EnsembleSpec(sampling.GinibreRank(rank), args.count, args.seed)]
    if name == "pure-mixture":
        return [sampling.EnsembleSpec(sampling.PureMixture(args.mixture_size), args.count, args.seed)]
    if name == "perturb-mems":
        kinds = [sampling.PerturbAbout(base, args.eps) for base in PERTURB_BASES]  # a gamma sweep of the boundary family
        return sampling.split_specs(kinds, args.count, args.seed)
    raise states.OutOfRange(f"unknown ensemble {name!r}")


def _ensemble_states(args) -> Iterator[np.ndarray]:
    """The --count states of --ensemble, drawn from --seed, as (n, 4, 4) stacks for frontier.scan_points to validate.

    The flags are checked here, before any state is drawn, for every ensemble.
    """
    if args.count < 1:
        raise states.OutOfRange(f"--count {args.count} must be at least 1")
    if args.count > sampling.MAX_COUNT:  # checked here too: the mems ensemble builds no EnsembleSpec
        raise states.OutOfRange(f"--count {args.count} exceeds 2^64 chunks of {sampling.CHUNK}")
    if not 0 <= args.seed < 1 << 64:
        raise states.OutOfRange(f"--seed {args.seed} outside [0, 2^64)")
    if not 0.0 < args.eps <= 1.0:  # also rejects nan
        raise states.OutOfRange(f"--eps {args.eps} outside (0, 1]")
    if not 1 <= args.mixture_size <= 6:
        raise states.OutOfRange(f"--mixture-size {args.mixture_size} outside 1..6")
    if args.ensemble == "mems":
        # deterministic envelope members at interior gamma grid points
        return (np.stack([states.mems((i + 1) / (args.count + 1)).mat
                          for i in range(start, min(start + sampling.BLOCK, args.count))])
                for start in range(0, args.count, sampling.BLOCK))
    return sampling.sample_states(*_ensemble_specs(args))


def _envelope_path(out: str) -> str:
    """The per-bin maxima file of ``scan --out``: "_envelope" before the extension, if any."""
    stem, ext = os.path.splitext(out)
    return f"{stem}_envelope{ext}"


def _streamed_points(path: str, stacks: Iterator[frontier.ScanStack]) -> Iterator[frontier.ScanStack]:
    """Pass scan stacks through, writing each one's tangle,mixedness rows to ``path``.

    The file is created, or overwritten in place, when the first stack is
    requested, and cut to the rows written when the stream ends or stops.
    """
    header = "tangle,mixedness"
    row_format = _row_format(header)
    with states.overwrite(path) as handle:
        handle.write(header + "\n")
        for stack in stacks:
            handle.write("".join([row_format % row for row in zip(stack[0].tolist(), stack[1].tolist())]))
            yield stack


def cmd_scan(args) -> int:
    stacks = frontier.scan_points(_ensemble_states(args), frontier.MixednessMetric(args.metric))
    envelope = frontier.bin_maxima(_streamed_points(args.out, stacks), args.bins)
    _write_csv(_envelope_path(args.out), "bin_lo,bin_hi,max_tangle",
               ((stat.lo, stat.hi, stat.max_tangle) for stat in envelope.bins))
    return 0


def cmd_certify(args) -> int:
    report = frontier.certify_states(_ensemble_states(args), args.tolerance)
    print(f"samples={report.samples_total}")
    print(f"max_violation={fmt(report.max_violation)}")
    print(f"verdict={report.verdict}")
    print(f"screened={report.screened}", file=sys.stderr)
    return 0 if report.passed else CERTIFY_FAIL


def cmd_concentrate(args) -> int:
    start = states.mems(args.gamma)
    kappas = filtering.kappa_schedule(args.steps)
    make = filtering.two_sided_filter if args.mode == "two-sided" else filtering.one_sided_filter
    schedule = [make(float(k)) for k in kappas]
    # both schedule shapes put kappa at a0
    rows = [(p.filter.a0, p.tangle, p.s_linear, p.success_prob) for p in filtering.trajectory(start, schedule)]
    _write_csv(args.out, "kappa,tangle,linear_entropy,success_prob", rows)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="memslab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sampled = argparse.ArgumentParser(add_help=False)  # the flags scan and certify share
    sampled.add_argument("--count", type=int, required=True)
    sampled.add_argument("--seed", type=int, default=0)
    sampled.add_argument("--eps", type=float, default=0.02, help="perturbation size for perturb-mems")
    sampled.add_argument("--mixture-size", type=int, default=4, help="component count for pure-mixture")

    p = sub.add_parser("measure", help="print every measure of one state as key=value lines")
    p.add_argument("matrix", nargs="?", help="path to a matrix file (4 lines of 4 're,im' entries)")
    p.add_argument("--family", choices=FAMILIES, help="named state family instead of a file")
    p.add_argument("--gamma", type=float, help="family weight for werner/mems")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("curve", help="emit an analytic family curve as CSV")
    p.add_argument("--family", choices=("werner", "mems"), required=True)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_curve)

    p = sub.add_parser("scan", parents=[sampled], help="sample an ensemble; emit raw points and per-bin maxima")
    p.add_argument("--ensemble", default="ginibre", choices=ENSEMBLES)
    p.add_argument("--bins", type=int, default=100)
    p.add_argument("--metric", choices=("linear", "vn"), default="linear")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("certify", parents=[sampled], help="search an ensemble for states beating the envelope")
    p.add_argument("--ensemble", default="ginibre", choices=ENSEMBLES + ("mems",))
    p.add_argument("--tolerance", type=float, default=1e-9)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("concentrate", help="filtering trajectory from a boundary state, as CSV")
    p.add_argument("--gamma", type=float, required=True)
    p.add_argument("--steps", type=int, default=100)
    p.add_argument("--mode", choices=("two-sided", "one-sided"), default="two-sided")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_concentrate)

    return parser


_PARSER = build_parser()  # parsing leaves no state in the parser, so one serves every run


def run(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors
        return int(exc.code or 0)
    try:
        return args.func(args)
    # OverflowError: an integer flag past float/index range; MemoryError: one whose array cannot be allocated
    except (ValueError, OverflowError, MemoryError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
