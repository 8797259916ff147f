"""Constrained optimizers over allocation rules, plus brute-force oracles.

The threshold family 1{sum_i x_i >= theta} is searched exhaustively over the
n+1 attainable cutoffs (the vote sum has fixed parity, so only those matter).
That resolves the large-n o(1) calibration exactly at finite n: revenue-max,
surplus-max subject to a revenue floor, minimum-mean subject to a revenue
floor (with a fractional boundary weight for the LP optimum), and the
feasibility-boundary cutoffs that generate the noise-sensitivity frontier.

Desk-scale oracles enumerate every Boolean function (all 2^(2^n) at n <= 4,
or all 2^(n+1) anonymous ones at n <= 20) to audit the threshold family's
optimality gap. Ties break toward the smallest threshold or function index.
The all-Boolean oracle enumerates once per n per process: its rules' Walsh
sums, means, E[f nu] and monotonicity depend on neither delta, b nor r, so a
query computes only the noise sensitivities and the feasibility test.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Optional, Sequence

import numpy as np

from . import gaussian
from .hypercube import MAX_ANONYMOUS_N, binomial_weights, popcounts, spectral_sensitivity, walsh
from .mechanism import MechanismParams
from .noise import MAX_EXACT_COUNT_N, joint_count_distribution

MAX_ORACLE_DENSE_N = 4
MAX_ORACLE_ANONYMOUS_N = 20

_FEAS_TOL = 1e-12


class InfeasibleTargetError(ValueError):
    """No rule in the searched class meets the revenue floor."""


@dataclass(frozen=True)
class FrontierPoint:
    """One point of a revenue / noise-sensitivity trade-off curve.

    `threshold` is an integer vote-sum cutoff for regime="finite" and a
    cutoff in nu/sqrt(n) units for regime="asymptotic". `mean` carries the
    provision probability (for min-bias points, the exact LP value including
    the fractional boundary weight); `ns_high` records the mirrored
    high-cutoff candidate's noise sensitivity alongside the emitted one.
    The majority curve's points fix b = 1 and threshold 0 (see majority_curve).
    """

    regime: str
    n: float
    delta: float
    b: float
    r: float
    threshold: float
    ns: float
    surplus_per_capita: float
    revenue_normalized: float
    mean: float = math.nan
    ns_high: float = math.nan


@dataclass(frozen=True)
class OracleResult:
    """Outcome of a brute-force noise-sensitivity minimization.

    `argmin_functions` are truth-table bitmask identifiers (over the 2^n
    points for scope="all-boolean", over the n+1 counts for
    scope="anonymous"), sorted ascending. `ltf_gap` is the best feasible
    threshold rule's noise sensitivity minus the global minimum (nan/None in
    all three cutoff fields when no cutoff is feasible); infeasible targets
    are reported with feasible_count = 0, not raised.
    """

    min_ns: float
    argmin_functions: tuple[int, ...]
    feasible_count: int
    ltf_gap: float
    best_ltf_ns: float
    best_ltf_threshold: Optional[int]


@dataclass(frozen=True, eq=False)
class ThresholdTable:
    """Exact statistics of every attainable cutoff at one (n, delta, b, setting).

    Index j means the rule 1{m >= j}, i.e. vote-sum cutoff nu = 2j - n.
    """

    nu: np.ndarray
    mean: np.ndarray
    efnu: np.ndarray
    revenue: np.ndarray
    revenue_normalized: np.ndarray
    surplus: np.ndarray

    def feasible_indices(self, r: float) -> np.ndarray:
        return np.nonzero(self.revenue_normalized >= r - _FEAS_TOL)[0]


def threshold_table(params: MechanismParams) -> ThresholdTable:
    if params.n > MAX_ANONYMOUS_N:
        raise ValueError(f"cutoff tables limited to n <= {MAX_ANONYMOUS_N}, got {params.n}")
    w = binomial_weights(params.n)
    nu = 2.0 * np.arange(params.n + 1) - params.n
    mean = w[::-1].cumsum()[::-1]
    efnu = (w * nu)[::-1].cumsum()[::-1]
    rev = params.revenue_index(mean, efnu)
    return ThresholdTable(nu.astype(np.int64), mean, efnu, rev, params.normalize(rev),
                          params.surplus_index(mean, efnu))


def threshold_ns_table(n: int, delta: float) -> np.ndarray:
    """Exact noise sensitivity of every cutoff rule g = 1{m >= j}, j = 0..n.

    NS[j] = 2 P(m_x >= j, m_y < j), the law's crossing mass, in O(n^2) from
    one row-prefix cumsum: below[i, j-1] = P(m_x = i, m_y < j), kept for i >= j.
    """
    below = np.tril(joint_count_distribution(n, delta).pmf[:, :-1].cumsum(axis=1), -1)
    return np.append(0.0, 2.0 * below.sum(axis=0))


@dataclass(frozen=True)
class RevenueMaxResult:
    """The three revenue-maximizing cutoff candidates, reported side by side.

    `tau_closed_form` = 2/((1-b)(1-2 delta)), the analytic large-n cutoff;
    `tau_pointwise` = (1-b)/(2(1-2 delta)) from maximizing the integrand
    (1-2 delta) nu + (b-1)/2 pointwise; `finite_opt_nu` is the exact argmax
    over attainable cutoffs. The first two are asymptotically
    revenue-equivalent; no adjudication between them is attempted.
    """

    tau_closed_form: Optional[float]
    tau_pointwise: float
    finite_opt_nu: int
    finite_opt_revenue: float
    finite_opt_revenue_normalized: float
    note: Optional[str] = None


def revenue_max_threshold(params: MechanismParams) -> RevenueMaxResult:
    table = threshold_table(params)
    revn = table.revenue_normalized  # like feasibility, ties are judged where 1-2 delta -> 0 cannot shrink them
    best = int(np.nonzero(revn >= revn.max() - _FEAS_TOL)[0][0])  # most-provision tie-break
    tau_pointwise = -params.mean_coef / params.rho + 0.0
    if params.b == 1.0:
        tau_closed_form, note = None, "closed-form cutoff undefined at b = 1 (division by 1-b)"
    else:
        tau_closed_form, note = 2.0 / ((1.0 - params.b) * params.rho), None
    return RevenueMaxResult(
        tau_closed_form,
        tau_pointwise,
        int(table.nu[best]),
        float(table.revenue[best]),
        float(table.revenue_normalized[best]),
        note,
    )


def _check_targets(params: MechanismParams, regime: str, r_values: Iterable[float]) -> list[float]:
    """Validate the regime, the revenue targets and, for the finite regime, n."""
    if regime not in ("finite", "asymptotic"):
        raise ValueError(f"regime must be finite or asymptotic, got {regime!r}")
    r_values = [float(r) for r in r_values]
    for r in r_values:
        if not 0.0 < r <= gaussian.MAX_REVENUE_TARGET:
            raise ValueError(f"revenue target must lie in (0, 1/sqrt(2 pi)], got {r}")
    if regime == "finite" and params.n > MAX_EXACT_COUNT_N:
        raise ValueError(f"finite-regime frontier operations need n <= {MAX_EXACT_COUNT_N}")
    return r_values


def _asymptotic_point(params: MechanismParams, r: float, high: bool) -> FrontierPoint:
    """Large-n limit of the cutoff raising normalized revenue r.

    The low cutoff -phi_inv(r) has mean 1 - alpha(r), the high cutoff
    +phi_inv(r) has mean alpha(r), and both share the noise sensitivity
    ltf_ns_asymptotic(r, delta), which also fills `ns_high`.
    """
    t = gaussian.phi_inv_plus(r)
    alpha = gaussian.alpha_limit(r)
    mean = alpha if high else 1.0 - alpha
    ns = gaussian.ltf_ns_asymptotic(r, params.delta)
    return FrontierPoint("asymptotic", math.inf, params.delta, params.b, r, t if high else -t,
                         ns, 0.5 * params.b * mean, r, mean, ns)


def _finite_point(params: MechanismParams, table: ThresholdTable, ns: np.ndarray, r: float, j: int,
                  mean: float, ns_high: float = math.nan) -> FrontierPoint:
    return FrontierPoint(
        "finite", params.n, params.delta, params.b, r, int(table.nu[j]), float(ns[j]),
        float(table.surplus[j] / params.n), float(table.revenue_normalized[j]), float(mean), ns_high,
    )


def surplus_max_threshold(params: MechanismParams, r: float, regime: str = "finite") -> FrontierPoint:
    """Surplus-maximal cutoff rule subject to normalized revenue >= r.

    Finite regime searches the n+1 cutoffs exactly; the large-n limit is the
    low cutoff -phi_inv(r).
    """
    (r,) = _check_targets(params, regime, [r])
    if regime == "asymptotic":
        return _asymptotic_point(params, r, high=False)
    table = threshold_table(params)
    feas = table.feasible_indices(r)
    if feas.size == 0:
        raise InfeasibleTargetError(f"no cutoff rule reaches normalized revenue {r} at n = {params.n}")
    best = int(feas[table.surplus[feas] >= table.surplus[feas].max() - _FEAS_TOL][0])
    ns = threshold_ns_table(params.n, params.delta)
    return _finite_point(params, table, ns, r, best, table.mean[best])


def min_bias_threshold(params: MechanismParams, r: float, regime: str = "finite") -> FrontierPoint:
    """Smallest-mean rule meeting the revenue floor.

    Finite regime: fill the highest vote counts first, with a fractional
    weight in [0, 1] at the boundary cell so the revenue constraint binds
    exactly; that is the LP optimum over unit-range rules and its `mean` is
    the exact minimum. Cell revenue changes sign once, so the feasible
    cutoffs are contiguous and the boundary cell j is the largest feasible
    one; the cells above it are the cutoff j+1. The reported threshold and
    ns belong to the Boolean cutoff containing the boundary cell.
    Asymptotic: cutoff +phi_inv(r), mean ccdf(phi_inv(r)).
    """
    (r,) = _check_targets(params, regime, [r])
    if regime == "asymptotic":
        return _asymptotic_point(params, r, high=True)
    table = threshold_table(params)
    feas = table.feasible_indices(r)
    if feas.size == 0:
        raise InfeasibleTargetError(f"no unit-range rule reaches normalized revenue {r} at n = {params.n}")
    j = int(feas[-1])
    # the cells above j form the cutoff j + 1 (no cells when j = n)
    rev_above, mean_above = (float(np.append(col, 0.0)[j + 1])
                             for col in (table.revenue_normalized, table.mean))
    frac = min(1.0, max(0.0, (r - rev_above) / (table.revenue_normalized[j] - rev_above)))
    ns = threshold_ns_table(params.n, params.delta)
    return _finite_point(params, table, ns, r, j, mean_above + frac * (table.mean[j] - mean_above))


def ns_min_bruteforce(params: MechanismParams, r: float, scope: str = "all-boolean") -> OracleResult:
    """Exact minimum noise sensitivity over every Boolean rule in scope.

    Constraints: marginal monotonicity (checked in integer arithmetic) and
    normalized revenue >= r. Also reports the best feasible cutoff rule and
    the gap to it.
    """
    if scope == "all-boolean":
        if params.n > MAX_ORACLE_DENSE_N:
            raise ValueError(f"all-boolean oracle limited to n <= {MAX_ORACLE_DENSE_N}")
        return _oracle_dense(params, r)
    if scope == "anonymous":
        if params.n > MAX_ORACLE_ANONYMOUS_N:
            raise ValueError(f"anonymous oracle limited to n <= {MAX_ORACLE_ANONYMOUS_N}")
        return _oracle_anonymous(params, r)
    raise ValueError(f"scope must be all-boolean or anonymous, got {scope!r}")


_CHUNK = 1 << 14  # rules per block; the dense NS sums stay bit-identical only on these blocks


def _rule_stats(n: int, counts: np.ndarray, weights: np.ndarray, mono: np.ndarray, per_rule,
                out: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """E[f], E[f nu] and marginal monotonicity of every Boolean rule on the cells, in blocks of rules.

    Rule k is the truth-table bitmask k; its bit t is its value on cell t, which has counts[t] votes
    for +1 and probability weights[t]. A rule g is marginally monotone iff the integers g @ mono are
    all >= 0. per_rule(g) maps each block's rows of rules into the same rows of `out`.
    """
    count = 1 << counts.size
    bits = np.arange(counts.size, dtype=np.int64)
    nu_weights = weights * (2 * counts - n)
    mean, efnu = np.empty((2, count))
    marg = np.empty(count, dtype=bool)
    for start in range(0, count, _CHUNK):
        ids = np.arange(start, min(start + _CHUNK, count), dtype=np.int64)
        g = (ids[:, None] >> bits[None, :]) & 1
        marg[ids] = (g @ mono >= 0).all(axis=1)
        g = g.astype(np.float64)
        mean[ids] = g @ weights
        efnu[ids] = g @ nu_weights
        out[ids] = per_rule(g)
    return mean, efnu, marg


def _oracle(params: MechanismParams, r: float, counts: np.ndarray, mean: np.ndarray, efnu: np.ndarray,
            marg: np.ndarray, ns: np.ndarray) -> OracleResult:
    """Feasibility, the minimizers and the best cutoff, given every rule's statistics (see _rule_stats)."""
    revn = params.normalize(params.revenue_index(mean, efnu))
    feasible = marg & (revn >= r - _FEAS_TOL)
    feasible_count = int(feasible.sum())
    if feasible_count == 0:
        return OracleResult(math.nan, (), 0, math.nan, math.nan, None)
    min_ns = float(ns[feasible].min())
    argmin = tuple(int(i) for i in np.nonzero(feasible & (ns <= min_ns + _FEAS_TOL))[0])
    bits = np.arange(counts.size, dtype=np.int64)
    ltf_ids = np.array([((counts >= j).astype(np.int64) << bits).sum() for j in range(params.n + 1)])
    feas_j = np.nonzero(feasible[ltf_ids])[0]  # cutoffs 1{m >= j} that meet the floor
    if feas_j.size == 0:
        return OracleResult(min_ns, argmin, feasible_count, math.nan, math.nan, None)
    ltf_ns = ns[ltf_ids[feas_j]]
    best_ltf_ns = float(ltf_ns.min())
    best_j = int(feas_j[ltf_ns <= best_ltf_ns + _FEAS_TOL][0])  # mirror cutoffs tie: take the smallest
    return OracleResult(min_ns, argmin, feasible_count, best_ltf_ns - min_ns, best_ltf_ns, 2 * best_j - params.n)


@lru_cache(maxsize=MAX_ORACLE_DENSE_N)  # 1 MB of Walsh sums at n = 4
def _dense_rule_stats(n: int) -> tuple[np.ndarray, ...]:
    """The delta-free statistics of all 2^(2^n) rules on the 2^n points, read-only.

    Returns the exact integer Walsh sums 2^n coeffs[S] (int8: |sum| <= 2^n <= 16), E[f], E[f nu]
    and marginal monotonicity, which reads the per-coordinate signs.
    """
    size = 1 << n
    signs = ((np.arange(size, dtype=np.int64)[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1
    sums = np.empty((1 << size, size), dtype=np.int8)
    stats = (sums, *_rule_stats(n, popcounts(n), np.full(size, 1.0 / size), signs, walsh, sums))
    for a in stats:
        a.setflags(write=False)
    return stats


def _oracle_dense(params: MechanismParams, r: float) -> OracleResult:
    """Cells are the 2^n points; only the noise sensitivities depend on the query."""
    n = params.n
    size = 1 << n
    sums, mean, efnu, marg = _dense_rule_stats(n)
    ns = np.empty(sums.shape[0])
    for start in range(0, ns.size, _CHUNK):
        ns[start:start + _CHUNK] = spectral_sensitivity(sums[start:start + _CHUNK] / size, params.delta)
    return _oracle(params, r, popcounts(n), mean, efnu, marg, ns)


def _oracle_anonymous(params: MechanismParams, r: float) -> OracleResult:
    """Cells are the n+1 vote counts; monotonicity weights are (2m - n) C(n, m)."""
    n = params.n
    counts = np.arange(n + 1, dtype=np.int64)
    mono = np.array([[(2 * m - n) * math.comb(n, m)] for m in range(n + 1)], dtype=np.int64)
    law = joint_count_distribution(n, params.delta)
    ns = np.empty(1 << (n + 1))
    mean, efnu, marg = _rule_stats(n, counts, binomial_weights(n), mono, law.sensitivity, ns)
    return _oracle(params, r, counts, mean, efnu, marg, ns)


def pareto_frontier(
    params: MechanismParams, r_grid: Iterable[float], regime: str = "asymptotic"
) -> list[FrontierPoint]:
    """Feasibility-boundary cutoffs versus required normalized revenue.

    Each point carries the lowest cutoff meeting the floor (the limit: -phi_inv(r)), with the
    highest one's noise sensitivity in `ns_high` (+phi_inv(r), the same value). At finite n
    either may have the smaller NS, and the low cutoff need not maximize surplus: at n = 101,
    delta = 0.1, b = 0, r = 0.02 it is -15 where surplus_max_threshold picks 1. Finite grid
    entries whose revenue floor is unattainable are skipped with a warning so sweeps continue.
    """
    r_grid = _check_targets(params, regime, r_grid)
    if regime == "asymptotic":
        return [_asymptotic_point(params, r, high=False) for r in r_grid]
    table = threshold_table(params)
    ns = threshold_ns_table(params.n, params.delta)
    points: list[FrontierPoint] = []
    for r in r_grid:
        feas = table.feasible_indices(r)
        if feas.size == 0:
            warnings.warn(f"revenue target r = {r} infeasible at n = {params.n}; skipped", stacklevel=2)
            continue
        j_lo, j_hi = int(feas[0]), int(feas[-1])
        points.append(_finite_point(params, table, ns, r, j_lo, table.mean[j_lo], float(ns[j_hi])))
    return points


def majority_curve(n: Optional[int], delta_grid: Iterable[float]) -> list[FrontierPoint]:
    """Trace the majority rule across noise levels; n=None gives the limit curve.

    Each point has b = 1, the bias under which the revenue formula has no
    E[f] term (the term the curve drops as asymptotically negligible), and
    threshold 0. Its `r` is the x-axis value R/sqrt(n) = (1-2 delta)
    E[max(sum x_i, 0)] / sqrt(n) at finite n, or its limit (1-2 delta)/sqrt(2 pi).
    """
    deltas = [float(d) for d in delta_grid]
    for d in deltas:
        if not 0.0 <= d <= 0.5:
            raise ValueError(f"delta grid values must lie in [0, 0.5], got {d}")
    if n is None:
        return [
            FrontierPoint("asymptotic", math.inf, d, 1.0, (1.0 - 2.0 * d) * gaussian.INV_SQRT_2PI, 0.0,
                          gaussian.majority_asymptotics(d, 1).ns, 0.25, gaussian.INV_SQRT_2PI, 0.5)
            for d in deltas
        ]
    if not 1 <= n <= MAX_EXACT_COUNT_N:
        raise ValueError(f"finite majority curve needs 1 <= n <= {MAX_EXACT_COUNT_N}")
    j0 = (n + 1) // 2  # majority is the cutoff 1{m >= j0}
    # the mean and efnu columns depend on neither delta nor b
    table = threshold_table(MechanismParams(n, 0.25, 1.0))
    mean, e_nu_plus = float(table.mean[j0]), float(table.efnu[j0])
    return [
        FrontierPoint("finite", n, d, 1.0, (1.0 - 2.0 * d) * e_nu_plus / math.sqrt(n), 0.0,
                      float(threshold_ns_table(n, d)[j0]), 0.5 * mean + (1.0 - 2.0 * d) * e_nu_plus / (2.0 * n),
                      e_nu_plus / math.sqrt(n), mean)
        for d in deltas
    ]


CSV_HEADER = "regime,n,delta,b,r,threshold,ns,surplus_per_capita,revenue_normalized"


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def frontier_csv(points: Sequence[FrontierPoint]) -> str:
    rows = [",".join([p.regime, *map(_fmt, (p.n, p.delta, p.b, p.r, p.threshold, p.ns, p.surplus_per_capita,
                                             p.revenue_normalized))]) for p in points]
    return "\n".join([CSV_HEADER] + rows) + "\n"
