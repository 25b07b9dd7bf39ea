#!/usr/bin/env python3
"""Regenerate all figure data as CSV files via the memslab CLI.

Produces, under --outdir (default ./figure_data):

  werner_curve.csv, mems_curve.csv     analytic family curves
  cloud_points.csv (+ _envelope)       unweighted random-state cloud
  boundary_points.csv (+ _envelope)    boundary-hugging perturbation cloud
  concentrate_gamma*.csv               filtering trajectories per gamma
  certification.txt                    envelope-violation search verdict

Every output is deterministic for a fixed --seed.  Plot with any tool, e.g.

  python -c "import pandas as pd, matplotlib.pyplot as p; \\
             d = pd.read_csv('figure_data/cloud_points.csv'); \\
             p.scatter(d.mixedness, d.tangle, s=1); p.show()"
"""

import argparse
import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

from memslab import cli, states


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="figure_data")
    parser.add_argument("--count", type=int, default=30_000, help="samples per cloud")
    parser.add_argument("--certify-count", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    def run(*argv):
        code = cli.run([str(a) for a in argv])
        if code != 0:
            raise SystemExit(f"command {argv} exited with {code}")

    print("curves ...")
    run("curve", "--family", "werner", "--points", 401, "--out", outdir / "werner_curve.csv")
    run("curve", "--family", "mems", "--points", 401, "--out", outdir / "mems_curve.csv")

    print(f"random-state cloud ({args.count} samples) ...")
    run("scan", "--ensemble", "ginibre", "--count", args.count, "--seed", args.seed,
        "--bins", 100, "--out", outdir / "cloud_points.csv")

    print(f"boundary-weighted cloud ({args.count} samples) ...")
    run("scan", "--ensemble", "perturb-mems", "--count", args.count, "--seed", args.seed + 1,
        "--bins", 100, "--out", outdir / "boundary_points.csv")

    print("filtering trajectories ...")
    for i in range(1, 10):
        gamma = i / 10
        run("concentrate", "--gamma", gamma, "--steps", 100,
            "--out", outdir / f"concentrate_gamma{gamma:.1f}.csv")

    print(f"certification ({args.certify_count} samples) ...")
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.run(["certify", "--count", str(args.certify_count),
                        "--seed", str(args.seed + 2), "--tolerance", "1e-9"])
    with states.overwrite(outdir / "certification.txt") as handle:  # in place, as the CLI writes its files
        handle.write(buffer.getvalue())
    print(buffer.getvalue().strip())
    if code != 0:
        print("certification FAILED", file=sys.stderr)
        return code

    print(f"done; wrote {len(list(outdir.iterdir()))} files to {outdir}/")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
