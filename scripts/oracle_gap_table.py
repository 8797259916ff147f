#!/usr/bin/env python3
"""Audit the cutoff family against the exhaustive desk-scale oracle.

For every (delta, b) combination and each revenue target on the grid, the
oracle enumerates all 2^16 Boolean rules at n = 4, keeps the marginally
monotone ones meeting the target, and reports the minimum noise sensitivity
next to the best feasible vote-count cutoff. The gap column measures how far
the cutoff family is from optimal at this small n (the optimality statement
is a large-n limit; mid-grid gaps up to ~0.125 are real at n = 4). The three
grids take the CLI's grid syntax: start:stop:step, a comma list, or one value.

Example:
  python scripts/oracle_gap_table.py --deltas 0.1,0.25 --biases 0,0.5
"""

import argparse

from noisemech.cli import UsageError, parse_grid
from noisemech.gaussian import MAX_REVENUE_TARGET
from noisemech.mechanism import MechanismParams
from noisemech.optimize import MAX_ORACLE_DENSE_N, ns_min_bruteforce


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--n", type=int, default=4)
    ap.add_argument("--deltas", default="0.1,0.25")
    ap.add_argument("--biases", default="0,0.5")
    ap.add_argument("--r-grid", default="0.05:0.35:0.05")
    ap.add_argument("--setting", default="noisy-report",
                    choices=["noisy-report", "imperfect-knowledge"])
    args = ap.parse_args()
    if not 1 <= args.n <= MAX_ORACLE_DENSE_N:
        ap.error(f"--n must lie in [1, {MAX_ORACLE_DENSE_N}], got {args.n}")
    try:
        deltas, biases, r_values = (parse_grid(g) for g in (args.deltas, args.biases, args.r_grid))
        economies = [MechanismParams(args.n, delta, b=b, setting=args.setting) for delta in deltas for b in biases]
    except (UsageError, ValueError) as exc:
        ap.error(str(exc))
    if not all(0.0 < r <= MAX_REVENUE_TARGET for r in r_values):
        ap.error("--r-grid values must lie in (0, 1/sqrt(2 pi)]")

    print("delta,b,r,feasible_count,min_ns,best_ltf_ns,best_ltf_threshold,ltf_gap")
    worst = 0.0
    for params in economies:
        delta, b = params.delta, params.b
        for r in r_values:
            res = ns_min_bruteforce(params, r, "all-boolean")
            if res.feasible_count == 0:
                print(f"{delta:.12g},{b:.12g},{r:.12g},0,nan,nan,,nan")
                continue
            if res.best_ltf_threshold is not None:  # else no cutoff is feasible and the gap is nan
                worst = max(worst, res.ltf_gap)
            print(
                f"{delta:.12g},{b:.12g},{r:.12g},{res.feasible_count},"
                f"{res.min_ns:.12g},{res.best_ltf_ns:.12g},"
                f"{'' if res.best_ltf_threshold is None else res.best_ltf_threshold},{res.ltf_gap:.12g}"
            )
    print(f"# worst gap: {worst:.12g}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
