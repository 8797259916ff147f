#!/usr/bin/env python3
"""Emit the two headline CSV datasets.

fig_majority.csv: the majority rule's revenue / noise-sensitivity curve as
the flip probability sweeps [0, 1/2], at a finite n and in the limit.
fig_frontier_d*.csv: the asymptotic trade-off frontier (minimal noise
sensitivity versus required normalized revenue) at three noise levels.

Example:
  python scripts/reproduce_figures.py --outdir out --n 101
"""

import argparse
from pathlib import Path

import numpy as np

from noisemech.gaussian import INV_SQRT_2PI
from noisemech.mechanism import MechanismParams
from noisemech.noise import MAX_EXACT_COUNT_N
from noisemech.optimize import frontier_csv, majority_curve, pareto_frontier


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--outdir", default="out")
    ap.add_argument("--n", type=int, default=101, help="finite size for the majority curve")
    ap.add_argument("--delta-step", type=float, default=0.01)
    ap.add_argument("--r-points", type=int, default=60)
    args = ap.parse_args()
    if not 1 <= args.n <= MAX_EXACT_COUNT_N:
        ap.error(f"--n must lie in [1, {MAX_EXACT_COUNT_N}], got {args.n}")
    if not 0.0 < args.delta_step <= 0.5:
        ap.error(f"--delta-step must lie in (0, 0.5], got {args.delta_step}")
    if args.r_points < 1:
        ap.error(f"--r-points must be >= 1, got {args.r_points}")

    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    deltas = list(np.arange(0.0, 0.5 + 1e-12, args.delta_step))
    finite = majority_curve(args.n, deltas)
    limit = majority_curve(None, deltas)
    (outdir / "fig_majority.csv").write_text(frontier_csv(finite + limit))
    print(f"wrote {outdir / 'fig_majority.csv'} ({len(finite) + len(limit)} rows)")

    r_grid = list(np.linspace(1e-4, INV_SQRT_2PI, args.r_points))
    for delta in (0.15, 0.25, 0.35):
        params = MechanismParams(2, delta, b=0.0)
        points = pareto_frontier(params, r_grid, "asymptotic")
        path = outdir / f"fig_frontier_d{delta:.2f}.csv"
        path.write_text(frontier_csv(points))
        print(f"wrote {path} ({len(points)} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
