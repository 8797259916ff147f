"""Command-line surface.

Subcommands: analyze, transfers, optimize, frontier, majority-curve, verify,
privacy. Output is plain text or CSV with 12 significant digits; identical
invocations produce byte-identical files. Exit codes: 0 success, 1
infeasibility or failed verification, 2 usage error.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from functools import lru_cache
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from . import gaussian, hypercube, mechanism, noise, optimize
from .optimize import _fmt

_GRID_TOL = 1e-12
MAX_GRID_POINTS = 10**6


class UsageError(Exception):
    pass


def parse_grid(text: str) -> list[float]:
    """start:stop:step (endpoints inclusive within 1e-12), a comma list, or one value.

    A grid holds at least one value, values must be finite, and a range may
    hold at most MAX_GRID_POINTS points.
    """
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid must be start:stop:step, got {text!r}")
        try:
            start, stop, step = (float(p) for p in parts)
        except ValueError:
            raise UsageError(f"grid endpoints must be reals, got {text!r}") from None
        if not all(map(math.isfinite, (start, stop, step))):
            raise UsageError(f"grid start, stop and step must be finite, got {text!r}")
        if step <= 0 or stop < start:
            raise UsageError(f"grid needs stop >= start and step > 0, got {text!r}")
        span = (stop - start) / step + _GRID_TOL
        if not span < MAX_GRID_POINTS:
            raise UsageError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        count = int(math.floor(span)) + 1
        values = [start + k * step for k in range(count)]
        if abs(values[-1] - stop) <= _GRID_TOL:
            values[-1] = stop  # endpoint inclusive, snapped against 1-ulp drift
        return values
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise UsageError(f"could not parse grid {text!r}") from None
    if not values:
        raise UsageError(f"grid {text!r} holds no values")
    if not all(map(math.isfinite, values)):
        raise UsageError(f"grid values must be finite, got {text!r}")
    return values


@lru_cache(maxsize=1)  # built once per process: parsing keeps no state in the parser
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="noisemech", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def econ(p, delta=None):
        p.add_argument("--delta", type=float, required=delta is None, default=delta)
        p.add_argument("--b", type=float, default=0.0)
        p.add_argument("--setting", choices=mechanism.SETTINGS, default="noisy-report")

    p = sub.add_parser("analyze", help="statistics of one allocation rule")
    p.set_defaults(handler=_cmd_analyze)
    p.add_argument("--spec", dest="spec_path", required=True)
    econ(p)
    p.add_argument("--mc-samples", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)

    p = sub.add_parser("transfers", help="optimal transfers and constraint report")
    p.set_defaults(handler=_cmd_transfers)
    p.add_argument("--spec", dest="spec_path", required=True)
    econ(p)
    p.add_argument("--report-out", default=None)
    p.add_argument("--out", default=None)

    p = sub.add_parser("optimize", help="threshold optimizers and oracles")
    p.set_defaults(handler=_cmd_optimize)
    p.add_argument("--task", required=True,
                   choices=["revenue-max", "surplus-max", "min-bias", "ns-min"])
    p.add_argument("--n", type=int, required=True)
    econ(p)
    p.add_argument("--r", type=float, default=None)
    p.add_argument("--regime", choices=["finite", "asymptotic"], default="finite")
    p.add_argument("--scope", choices=["all-boolean", "anonymous"], default="all-boolean")
    p.add_argument("--out", default=None)

    p = sub.add_parser("frontier", help="noise-sensitivity / revenue frontier CSV")
    p.set_defaults(handler=_cmd_frontier)
    econ(p)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--regime", choices=["finite", "asymptotic"], default="asymptotic")
    p.add_argument("--r-grid", type=parse_grid, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("majority-curve", help="majority rule curve CSV")
    p.set_defaults(handler=_cmd_majority_curve)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--delta-grid", type=parse_grid, required=True)
    p.add_argument("--out", default=None)

    p = sub.add_parser("verify", help="run a verification suite")
    p.set_defaults(handler=_cmd_verify)
    p.add_argument("--suite", required=True, choices=["oracle-n2", "oracle-n4", "identities"])
    econ(p, delta=0.1)
    p.add_argument("--r-grid", type=parse_grid, default="0.05:0.35:0.05")
    p.add_argument("--out", default=None)

    p = sub.add_parser("privacy", help="convert between eps and delta")
    p.set_defaults(handler=_cmd_privacy)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--eps", type=float)
    group.add_argument("--delta", type=float)
    return parser


def parse_args(argv: Sequence[str]) -> argparse.Namespace:
    """The validated namespace of one command: the flags it defines and its handler, nothing else."""
    if not argv:
        raise UsageError("a command is required; see --help")
    cfg = _build_parser().parse_args(argv)
    opts = vars(cfg)
    if cfg.command == "majority-curve":
        for d in cfg.delta_grid:
            if not 0.0 <= d <= 0.5:
                raise UsageError("delta-grid values must be in [0, 0.5]")
        return cfg
    if cfg.delta is not None and not 0.0 < cfg.delta < 0.5:
        raise UsageError("delta must be in (0, 0.5)")
    if cfg.command == "privacy":
        if cfg.eps is not None and not 0.0 < cfg.eps < math.inf:
            raise UsageError("eps must be positive and finite")
        if cfg.eps is not None and (delta := gaussian.privacy_convert("eps_to_delta", cfg.eps)) in (0.0, 0.5):
            raise UsageError(f"eps = {_fmt(cfg.eps)} rounds delta to {_fmt(delta)}, outside (0, 0.5)")
        return cfg
    if not 0.0 <= cfg.b <= 1.0:
        raise UsageError("b must be in [0, 1]")
    for r in [*opts.get("r_grid", ()), opts.get("r")]:
        if r is not None and not 0.0 < r <= gaussian.MAX_REVENUE_TARGET:
            raise UsageError("r must be in (0, 1/sqrt(2 pi)]")
    if cfg.command == "optimize" and cfg.task != "revenue-max" and cfg.r is None:
        raise UsageError(f"--r is required for task {cfg.task}")
    if cfg.command == "frontier" and cfg.regime == "finite" and cfg.n is None:
        raise UsageError("--n is required for the finite regime")
    if opts.get("mc_samples") is not None and cfg.mc_samples < 1:
        raise UsageError("mc-samples must be >= 1")
    if opts.get("seed", 0) < 0:
        raise UsageError(f"--seed must be >= 0, got {cfg.seed}")
    return cfg


def _emit(pieces: Iterable[str], path: Optional[str]) -> None:
    """Write the pieces in order to stdout, or to the file at path."""
    if path is None:
        sys.stdout.writelines(pieces)
    else:
        with open(path, "w") as out:
            out.writelines(pieces)


def _cmd_analyze(cfg: argparse.Namespace) -> int:
    f = hypercube.build_function(Path(cfg.spec_path).read_text())
    params = mechanism.MechanismParams(f.n, cfg.delta, cfg.b, cfg.setting)
    alt = "imperfect-knowledge" if cfg.setting == "noisy-report" else "noisy-report"
    params_alt = mechanism.MechanismParams(f.n, cfg.delta, cfg.b, alt)
    mean, efnu = f.mean(), f.mean_nu()
    dense = isinstance(f, hypercube.DenseFunction)
    kind = "dense" if dense else "anonymous"
    lines = [f"kind = {kind}", f"n = {f.n}", f"mean = {_fmt(mean)}", f"degree1_sum = {_fmt(efnu)}"]
    mono = hypercube.monotonicity_check(f, "monotone")
    marg = hypercube.monotonicity_check(f, "marginally-monotone")
    lines.append(f"monotone = {str(mono).lower()}")
    lines.append(f"marginally_monotone = {str(marg).lower()}")
    if f.n <= hypercube.MAX_DENSE_N:  # a dense rule's cached transform also serves its stability and NS
        spectrum = hypercube.fourier_transform(f if dense else f.to_dense())
        lines.append("spectral_weight_by_degree = " + ",".join(_fmt(v) for v in spectrum.weight_by_degree()))
        lines.append("influences = " + ",".join(_fmt(v) for v in spectrum.influences()))
    revenue = params.revenue_index(mean, efnu)
    lines.append(f"revenue_{params.setting.replace('-', '_')} = {_fmt(revenue)}")
    lines.append(f"revenue_{alt.replace('-', '_')} = {_fmt(params_alt.revenue_index(mean, efnu))}")
    lines.append(f"revenue_normalized = {_fmt(params.normalize(revenue))}")
    surplus = params.surplus_index(mean, efnu)
    lines.append(f"surplus = {_fmt(surplus)}")
    lines.append(f"surplus_per_capita = {_fmt(surplus / f.n)}")
    if f.is_boolean:
        exact_ok = dense or f.n <= noise.MAX_EXACT_COUNT_N
        if exact_ok:
            if dense:
                stab, ns_value = noise.stability_exact(f, cfg.delta), noise.sensitivity_exact(f, cfg.delta)
            else:  # one joint-law build serves both lines
                law = noise.joint_count_distribution(f.n, cfg.delta)
                stab, ns_value = law.stability(f.g), law.sensitivity(f.g)
            lines.append(f"stability = {_fmt(stab)}")
            lines.append(f"ns_exact = {_fmt(ns_value)}")
        else:
            sys.stderr.write(
                f"warning: n = {f.n} exceeds the exact cutoff {noise.MAX_EXACT_COUNT_N}; "
                "falling back to Monte Carlo\n"
            )
        if cfg.mc_samples is not None or not exact_ok:
            est = noise.sensitivity_monte_carlo(f, cfg.delta, cfg.mc_samples or 10**6, cfg.seed)
            lines.append(f"ns_monte_carlo = {_fmt(est.estimate)}")
            lines.append(f"ns_stderr = {_fmt(est.stderr)}")
            if not exact_ok:
                ns_value = est.estimate
        lines.append(
            "surplus_distortion_bound = "
            + _fmt(mechanism.surplus_distortion_bound(f, params, ns=ns_value))
        )
    _emit(["\n".join(lines) + "\n"], cfg.out)
    return 0


def _agent_lines(interim: mechanism.InterimProfile) -> Iterator[str]:
    """The 'agent i: t_bar(-1) = ..., t_bar(+1) = ...' lines, each distinct pair formatted once."""
    vm, vp = interim.v_minus, interim.v_plus
    index, inverse = mechanism.distinct_rows(vm.view(np.int64), vp.view(np.int64))
    pairs = [f"t_bar(-1) = {_fmt(lo)}, t_bar(+1) = {_fmt(hi)}\n"
             for lo, hi in zip(vm[index].tolist(), vp[index].tolist())]
    return (f"agent {i}: {pairs[k]}" for i, k in enumerate(inverse.tolist()))


def _cmd_transfers(cfg: argparse.Namespace) -> int:
    f = hypercube.build_function(Path(cfg.spec_path).read_text())
    params = mechanism.MechanismParams(f.n, cfg.delta, cfg.b, cfg.setting)
    schedule = mechanism.optimal_interim_transfers(f, params)
    lines = [f"expected_total_transfer = {_fmt(schedule.expected_total())}",
             f"revenue_formula = {_fmt(mechanism.revenue(f, params))}"]
    if schedule.anonymous_expost is not None:
        lines.append("anonymous_expost = " + ",".join(map(_fmt, schedule.anonymous_expost.tolist())))
    # interim families only: the min-norm ex-post vector reproduces the
    # interim pairs but is not itself a dominant-strategy implementation
    report = mechanism.check_constraints(f, schedule, params, ("bn-ic", "iir"))
    lines.append(f"constraints_pass = {str(report.ok).lower()}")
    if cfg.report_out is not None:  # first, so that an unwritable report path leaves stdout empty
        with open(cfg.report_out, "w") as out:
            report.write_csv(out)
    _emit(itertools.chain([f"setting = {params.setting}\n"], _agent_lines(schedule.interim), ["\n".join(lines) + "\n"]),
          cfg.out)
    return 0


def _cmd_optimize(cfg: argparse.Namespace) -> int:
    params = mechanism.MechanismParams(cfg.n, cfg.delta, cfg.b, cfg.setting)
    lines = []
    if cfg.task == "revenue-max":
        res = optimize.revenue_max_threshold(params)
        lines.append("tau_closed_form = " + ("undefined" if res.tau_closed_form is None else _fmt(res.tau_closed_form)))
        lines.append(f"tau_pointwise = {_fmt(res.tau_pointwise)}")
        lines.append(f"finite_opt_nu = {res.finite_opt_nu}")
        lines.append(f"finite_opt_revenue = {_fmt(res.finite_opt_revenue)}")
        lines.append(f"finite_opt_revenue_normalized = {_fmt(res.finite_opt_revenue_normalized)}")
        if res.note:
            lines.append(f"note = {res.note}")
    elif cfg.task in ("surplus-max", "min-bias"):
        fn = optimize.surplus_max_threshold if cfg.task == "surplus-max" else optimize.min_bias_threshold
        point = fn(params, cfg.r, cfg.regime)
        for name in ("regime", "n", "delta", "b", "r", "threshold", "ns",
                      "surplus_per_capita", "revenue_normalized", "mean"):
            value = getattr(point, name)
            lines.append(f"{name} = {value if isinstance(value, str) else _fmt(value)}")
    else:
        res = optimize.ns_min_bruteforce(params, cfg.r, cfg.scope)
        lines.append(f"feasible_count = {res.feasible_count}")
        if res.feasible_count == 0:
            lines.append("infeasible = true")
            _emit(["\n".join(lines) + "\n"], cfg.out)
            return 1
        lines.append(f"min_ns = {_fmt(res.min_ns)}")
        lines.append(f"argmin_count = {len(res.argmin_functions)}")
        lines.append("argmin_functions = " + ",".join(str(i) for i in res.argmin_functions[:16]))
        lines.append(f"best_ltf_ns = {_fmt(res.best_ltf_ns)}")
        lines.append(f"best_ltf_threshold = {'nan' if res.best_ltf_threshold is None else res.best_ltf_threshold}")
        lines.append(f"ltf_gap = {_fmt(res.ltf_gap)}")
    _emit(["\n".join(lines) + "\n"], cfg.out)
    return 0


def _cmd_frontier(cfg: argparse.Namespace) -> int:
    n = cfg.n if cfg.regime == "finite" else 1
    params = mechanism.MechanismParams(n, cfg.delta, cfg.b, cfg.setting)
    points = optimize.pareto_frontier(params, cfg.r_grid, cfg.regime)
    if not points:
        sys.stderr.write("infeasible: no grid point is attainable\n")
        return 1
    _emit([optimize.frontier_csv(points)], cfg.out)
    return 0


def _cmd_majority_curve(cfg: argparse.Namespace) -> int:
    points = optimize.majority_curve(cfg.n, cfg.delta_grid)
    _emit([optimize.frontier_csv(points)], cfg.out)
    return 0


def _cmd_verify(cfg: argparse.Namespace) -> int:
    lines = []
    ok = True
    if cfg.suite in ("oracle-n2", "oracle-n4"):
        n = 2 if cfg.suite == "oracle-n2" else 4
        params = mechanism.MechanismParams(n, cfg.delta, cfg.b, cfg.setting)
        lines.append("r,feasible_count,min_ns,best_ltf_ns,ltf_gap,sandwich_ok")
        for r in cfg.r_grid:
            res = optimize.ns_min_bruteforce(params, r, "all-boolean")
            if res.feasible_count == 0:
                lines.append(f"{_fmt(r)},0,nan,nan,nan,true")
                continue
            no_cutoff = res.best_ltf_threshold is None  # both checks hold vacuously
            sandwich = no_cutoff or res.min_ns <= res.best_ltf_ns + 1e-12
            ok &= sandwich and (no_cutoff or res.ltf_gap <= 0.06)
            lines.append(
                f"{_fmt(r)},{res.feasible_count},{_fmt(res.min_ns)},"
                f"{_fmt(res.best_ltf_ns)},{_fmt(res.ltf_gap)},{str(sandwich).lower()}"
            )
    else:
        checks = []
        rho_grid = np.arange(-0.9, 0.95, 0.1)
        worst = max(
            abs(gaussian.binormal_cdf(0.0, 0.0, float(r)) - (0.25 + math.asin(float(r)) / (2 * math.pi)))
            for r in rho_grid
        )
        checks.append(("binormal_orthant_identity", worst, 1e-10))
        dict_f = hypercube.DenseFunction(1, [0.0, 1.0])
        worst = max(abs(noise.sensitivity_exact(dict_f, d) - d) for d in np.arange(0.05, 0.46, 0.05))
        checks.append(("dictator_sensitivity_identity", worst, 1e-12))
        rng = np.random.default_rng(20240901)
        worst_p = worst_rt = 0.0
        for _ in range(20):
            nn = int(rng.integers(2, 9))
            f = hypercube.DenseFunction(nn, rng.random(1 << nn))
            spec = hypercube.fourier_transform(f)
            worst_p = max(worst_p, abs((spec.coeffs**2).sum() - float((f.values**2).mean())))
            back = hypercube.inverse_fourier(spec)
            worst_rt = max(worst_rt, float(np.abs(back.values - f.values).max()))
        checks.append(("parseval", worst_p, 1e-10))
        checks.append(("fourier_round_trip", worst_rt, 1e-12))
        lines.append("check,error,tolerance,pass")
        for name, err, tol in checks:
            good = err <= tol
            ok &= good
            lines.append(f"{name},{_fmt(err)},{_fmt(tol)},{str(good).lower()}")
    lines.append(f"suite_pass = {str(ok).lower()}")
    _emit(["\n".join(lines) + "\n"], cfg.out)
    return 0 if ok else 1


def _cmd_privacy(cfg: argparse.Namespace) -> int:
    if cfg.eps is not None:
        delta = gaussian.privacy_convert("eps_to_delta", cfg.eps)
        sys.stdout.write(f"delta = {_fmt(delta)}\n")
    else:
        eps = gaussian.privacy_convert("delta_to_eps", cfg.delta)
        sys.stdout.write(f"eps = {_fmt(eps)}\n")
    return 0


def run(cfg: argparse.Namespace) -> int:
    try:
        return cfg.handler(cfg)
    except optimize.InfeasibleTargetError as exc:
        sys.stderr.write(f"infeasible: {exc}\n")
        return 1
    except (ValueError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = list(sys.argv[1:] if argv is None else argv)
    try:
        cfg = parse_args(args)
    except UsageError as exc:
        sys.stderr.write(f"usage error: {exc}\n")
        return 2
    return run(cfg)


if __name__ == "__main__":
    sys.exit(main())
