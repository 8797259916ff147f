"""Economic layer: revenue, surplus, transfers, and constraint checking.

Two settings share one API. In the noisy-report setting the reports pass
through the flip channel on their way to the planner; in the
imperfect-knowledge setting agents observe a noisy signal of their own type
and report it verbatim. The setting changes the incentive and participation
inequalities and shifts the revenue coefficient on E[f] by delta.

Interim quantities written h_bar(+1), h_bar(-1) are conditional expectations
over the other agents' uniform types only; noise enters the constraints
through explicit delta weights.

Note on revenue accounting: revenue() evaluates
(1-2 delta) E[f sum_i x_i] + c E[f] with c = (b-1)/2 (noisy-report) or
(b-1)/2 + delta (imperfect-knowledge). The revenue-maximal transfer profile
built by optimal_interim_transfers() sums instead to
(1-2 delta) E[f sum_i x_i] + n c E[f]: the participation compensation c E[f]
is paid per agent, so the two agree only when n = 1, b = 1 (noisy) or
E[f] = 0. All normalized-revenue optimizations in this package use
revenue(), which keeps the E[f] term O(1) against the O(sqrt(n)) vote term.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Optional, Sequence, TextIO, Union

import numpy as np

from .hypercube import (
    AnonymousFunction,
    HypercubeFunction,
    binomial_weights,
    half_split,
    monotonicity_check,
    popcounts,
)

SETTINGS = ("noisy-report", "imperfect-knowledge")

CONSTRAINT_TOL = 1e-9
_EXPOST_FAMILIES = ("ds-ic", "eir")


@dataclass(frozen=True)
class MechanismParams:
    """Economy description: agent count, flip probability, bias, and setting."""

    n: int
    delta: float
    b: float = 0.0
    setting: str = "noisy-report"

    def __post_init__(self):
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise ValueError(f"agent count must be an integer >= 1, got {self.n}")
        if not 0.0 < self.delta < 0.5:
            raise ValueError(f"delta must lie in the open interval (0, 0.5), got {self.delta}")
        if not 0.0 <= self.b <= 1.0:
            raise ValueError(f"bias b must lie in [0, 1], got {self.b}")
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}, got {self.setting!r}")

    @property
    def rho(self) -> float:
        return 1.0 - 2.0 * self.delta

    @property
    def value_coefs(self) -> tuple[float, float]:
        """Value weights ((b-1)/2, (b+1)/2) of the low and high type.

        Under imperfect knowledge an agent's signal is wrong with probability
        delta, so each weight moves delta toward the other.
        """
        lo, hi = (self.b - 1.0) / 2.0, (self.b + 1.0) / 2.0
        if self.setting == "imperfect-knowledge":
            return lo + self.delta, hi - self.delta
        return lo, hi

    @property
    def mean_coef(self) -> float:
        """Coefficient on E[f] in the revenue formula: the low type's value weight."""
        return self.value_coefs[0]

    def revenue_index(self, mean, efnu):
        """(1-2 delta) E[f sum x_i] + mean_coef E[f], on scalars or arrays."""
        return self.rho * efnu + self.mean_coef * mean

    def normalize(self, revenue):
        """revenue / ((1-2 delta) sqrt(n)), on scalars or arrays."""
        return revenue / (self.rho * math.sqrt(self.n))

    def surplus_index(self, mean, efnu):
        """(b n / 2) E[f] + ((1-2 delta)/2) E[f sum x_i], on scalars or arrays."""
        return 0.5 * self.b * self.n * mean + 0.5 * self.rho * efnu


def _check_dimension(f: HypercubeFunction, params: MechanismParams) -> None:
    if f.n != params.n:
        raise ValueError(f"function dimension {f.n} does not match params.n = {params.n}")


@dataclass(frozen=True, eq=False)
class InterimProfile:
    """Per-agent pairs (h_bar(-1), h_bar(+1)) of interim expectations."""

    v_minus: np.ndarray
    v_plus: np.ndarray

    def __post_init__(self):
        vm = np.atleast_1d(np.asarray(self.v_minus, dtype=np.float64))
        vp = np.atleast_1d(np.asarray(self.v_plus, dtype=np.float64))
        if vm.shape != vp.shape or vm.ndim != 1:
            raise ValueError("interim profile needs matching 1-d minus/plus arrays")
        object.__setattr__(self, "v_minus", vm)
        object.__setattr__(self, "v_plus", vp)

    def __len__(self) -> int:
        return self.v_minus.size


def interim_marginals(f: HypercubeFunction, params: MechanismParams) -> InterimProfile:
    """Allocation marginals (E[f] - E[f x_i], E[f] + E[f x_i]) per agent."""
    if not f.is_unit_range:
        raise ValueError("interim marginals are defined for unit-range allocation rules")
    _check_dimension(f, params)
    mean, d1 = f.mean(), f.degree1()
    return InterimProfile(mean - d1, mean + d1)


def revenue(f: HypercubeFunction, params: MechanismParams) -> float:
    """Revenue index (1-2 delta) E[f sum x_i] + mean_coef E[f].

    The E[f] term is counted once. The revenue-maximal transfers pay it per
    agent, so they sum to this index plus (n-1) mean_coef E[f] (see the note
    on revenue accounting in the module docstring). Evaluates regardless of
    implementability but warns when marginal monotonicity fails.
    """
    _check_dimension(f, params)
    if not monotonicity_check(f, "marginally-monotone"):
        warnings.warn("revenue evaluated for a rule that is not marginally monotone", stacklevel=2)
    return params.revenue_index(f.mean(), f.mean_nu())


def revenue_normalized(f: HypercubeFunction, params: MechanismParams) -> float:
    """revenue / ((1-2 delta) sqrt(n))."""
    return params.normalize(revenue(f, params))


def surplus(f: HypercubeFunction, params: MechanismParams) -> float:
    """Expected social surplus under noisy implementation.

    (b n / 2) E[f] + ((1-2 delta)/2) sum_i E[f x_i]; equals the direct
    expectation E[sum_i ((b+x_i)/2) f(y)] on representable inputs.
    """
    if not f.is_unit_range:
        raise ValueError("surplus is defined for unit-range allocation rules")
    _check_dimension(f, params)
    return params.surplus_index(f.mean(), f.mean_nu())


def surplus_distortion_bound(f: HypercubeFunction, params: MechanismParams, ns: float) -> float:
    """Cauchy-Schwarz cap on E|S(x, f(y)) - S(x, f(x))|.

    sqrt(b^2 n^2 + n)/2 times the square root of the noise sensitivity ns,
    exact or sampled, of f at params.delta.
    """
    if not f.is_boolean:
        raise ValueError("the distortion bound applies to Boolean allocation rules")
    return 0.5 * math.sqrt(params.b**2 * params.n**2 + params.n) * math.sqrt(ns)


@dataclass(frozen=True, eq=False)
class TransferSchedule:
    """Interim transfer pairs, optionally realized by an anonymous ex-post rule.

    When `anonymous_expost` is present it is a vector t(0..n) over vote
    counts, every agent paying t(m(y)); its induced interim pair must match
    `interim` through binomial averaging (checked to 1e-9).
    """

    interim: InterimProfile
    anonymous_expost: Optional[np.ndarray] = None
    setting: str = "noisy-report"

    def __post_init__(self):
        if self.setting not in SETTINGS:
            raise ValueError(f"setting must be one of {SETTINGS}, got {self.setting!r}")
        if self.anonymous_expost is None:
            return
        t = np.asarray(self.anonymous_expost, dtype=np.float64)
        n = len(self.interim)
        if t.shape != (n + 1,):
            raise ValueError(f"ex-post schedule must have length n+1 = {n + 1}")
        beta_minus, beta_plus = induced_interim_pair(t)
        err = max(
            np.abs(self.interim.v_minus - beta_minus).max(),
            np.abs(self.interim.v_plus - beta_plus).max(),
        )
        if err > 1e-9:
            raise ValueError(f"ex-post schedule does not match interim pairs (error {err:.3e})")
        object.__setattr__(self, "anonymous_expost", t)

    def expected_total(self) -> float:
        """Expected revenue collected: sum over agents of (t_bar(-1)+t_bar(+1))/2."""
        return float(0.5 * (self.interim.v_minus + self.interim.v_plus).sum())


def induced_interim_pair(t: np.ndarray) -> tuple[float, float]:
    """Interim pair of an anonymous ex-post rule via binomial averaging.

    beta(-1) = sum_m t(m) C(n-1,m)/2^(n-1), beta(+1) shifts the count by one.
    """
    n = t.size - 1
    if n == 0:
        return float(t[0]), float(t[0])
    w = binomial_weights(n - 1)
    return float(np.dot(t[:n], w)), float(np.dot(t[1:], w))


def solve_anonymous_transfer(n: int, beta_minus: float, beta_plus: float) -> np.ndarray:
    """Minimum-norm anonymous ex-post rule matching a target interim pair.

    The binomial-averaging rows lo = (w, 0) and hi = (0, w) are independent,
    so solutions exist; the Euclidean minimum-norm one is the canonical
    representative. In the Gram eigenbasis s = lo + hi, d = lo - hi it is
    (beta(-1) + beta(+1)) s / |s|^2 + (beta(-1) - beta(+1)) d / |d|^2, with no
    2 x 2 solve to cancel between the nearly parallel rows.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    w = binomial_weights(n - 1)
    lo, hi = np.append(w, 0.0), np.append(0.0, w)
    s, d = lo + hi, lo - hi
    return (beta_minus + beta_plus) / (s @ s) * s + (beta_minus - beta_plus) / (d @ d) * d


def optimal_interim_pair(f_minus, f_plus, params: MechanismParams):
    """Per-agent revenue-maximal transfer pair for given allocation marginals.

    Binds the low-type participation constraint and the high-type incentive
    constraint; for marginally monotone marginals this is the unique maximizer
    of the expected transfer over the BN-IC + IIR polytope (the competing
    extreme point, low-type IC with low-type IIR, collects strictly less
    whenever delta < 1/2).
    """
    d = params.delta
    lo, hi = params.value_coefs
    if params.setting == "noisy-report":
        tm = -d * f_plus + (lo + d) * f_minus
        tp = (hi - d) * f_plus - (1.0 - d) * f_minus
    else:
        tm = lo * f_minus
        tp = hi * f_plus - (1.0 - 2.0 * d) * f_minus
    return tm, tp


def optimal_interim_transfers(f: HypercubeFunction, params: MechanismParams) -> TransferSchedule:
    """Revenue-maximal interim transfers for a marginally monotone Boolean rule."""
    if not f.is_boolean:
        raise ValueError("optimal transfers are defined for Boolean allocation rules")
    if not monotonicity_check(f, "marginally-monotone"):
        raise ValueError("allocation rule is not marginally monotone; no incentive compatible transfers exist")
    prof = interim_marginals(f, params)
    tm, tp = optimal_interim_pair(prof.v_minus, prof.v_plus, params)
    interim = InterimProfile(tm, tp)
    expost = None
    if np.allclose(tm, tm[0], rtol=0.0, atol=1e-12) and np.allclose(tp, tp[0], rtol=0.0, atol=1e-12):
        expost = solve_anonymous_transfer(params.n, float(tm[0]), float(tp[0]))
    return TransferSchedule(interim, expost, params.setting)


ROW_DTYPE = np.dtype([("agent", np.int64), ("constraint", np.uint8), ("lhs", np.float64), ("rhs", np.float64)])
_CSV_CHUNK = 1 << 16  # write_csv holds per-row Python objects for this many rows at a time


def distinct_rows(*columns: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(index, inverse) of the distinct tuples across equal-length integer columns.

    Row index[k] holds the k-th distinct tuple and row r holds tuple inverse[r].
    Floats compare by their bit patterns (pass `.view(np.int64)`), so 0.0 and
    -0.0 stay apart. Each column refines the codes of the ones before it, which
    stay below the row count.
    """
    inverse = np.zeros(len(columns[0]), np.int64)
    for column in columns:
        values, code = np.unique(column, return_inverse=True)
        _, inverse = np.unique(inverse * len(values) + code, return_inverse=True)
    index = np.empty(inverse.max(initial=-1) + 1, np.int64)
    index[inverse] = np.arange(inverse.size)  # any row of a tuple represents it
    return index, inverse


@dataclass(frozen=True, eq=False)
class ConstraintReport:
    """Rows (agent, constraint, lhs, rhs), agent-major; a row passes when lhs - rhs >= -CONSTRAINT_TOL.

    The constraint column holds codes into `names`.
    """

    rows: np.ndarray
    names: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return bool((self.rows["lhs"] - self.rows["rhs"] >= -CONSTRAINT_TOL).all())

    def slack(self, constraint: str) -> np.ndarray:
        if constraint not in self.names:
            raise ValueError(f"constraint {constraint!r} is not in the report")
        rows = self.rows[self.rows["constraint"] == self.names.index(constraint)]
        return rows["lhs"] - rows["rhs"]

    def write_csv(self, out: TextIO) -> None:
        """Write the CSV to an open text file, formatting each distinct (constraint, lhs, rhs) of a chunk once."""
        out.write("agent,constraint,lhs,rhs,slack,pass\n")
        for start in range(0, self.rows.size, _CSV_CHUNK):
            chunk = self.rows[start:start + _CSV_CHUNK]
            index, inverse = distinct_rows(chunk["constraint"], chunk["lhs"].view(np.int64),
                                           chunk["rhs"].view(np.int64))
            tails = [f",{self.names[c]},{lhs:.12g},{rhs:.12g},{lhs - rhs:.12g},"
                     f"{str(lhs - rhs >= -CONSTRAINT_TOL).lower()}\n" for _, c, lhs, rhs in chunk[index].tolist()]
            out.writelines(f"{i}{tails[k]}" for i, k in zip(chunk["agent"].tolist(), inverse.tolist()))


def _expost_context_values(f: HypercubeFunction, t: np.ndarray, agent: int):
    """Per-context (f(+1, y), f(-1, y), t(+1, y), t(-1, y)) for one agent."""
    n = f.n
    if isinstance(f, AnonymousFunction):
        m = np.arange(n)  # count among the other agents
        return f.g[m + 1], f.g[m], t[m + 1], t[m]
    low, high = (half.ravel() for half in half_split(np.arange(1 << n), agent))
    pc = popcounts(n)
    return f.values[high], f.values[low], t[pc[high]], t[pc[low]]


def _inequalities(fam: str, params: MechanismParams, fp, fm, tp, tm):
    """(name, lhs, rhs) of the high- and low-type inequalities of one family, elementwise.

    The inputs are interim pairs per agent (bn-ic, iir) or values per context
    (ds-ic, eir: the same inequalities, in the noisy-report setting only).
    """
    lo, hi = params.value_coefs
    d = params.delta
    if fam in ("bn-ic", "ds-ic"):
        pairs = ((hi * (fp - fm), tp - tm), (tp - tm, lo * (fp - fm)))
    elif params.setting == "imperfect-knowledge":
        pairs = ((hi * fp, tp), (lo * fm, tm))
    else:
        pairs = ((hi * ((1.0 - d) * fp + d * fm), (1.0 - d) * tp + d * tm),
                 (lo * (d * fp + (1.0 - d) * fm), d * tp + (1.0 - d) * tm))
    return [(f"{fam}-{side}", lhs, rhs) for side, (lhs, rhs) in zip(("high", "low"), pairs)]


def check_constraints(
    f: HypercubeFunction,
    transfers: TransferSchedule,
    params: MechanismParams,
    which: Union[str, Sequence[str]] = ("bn-ic", "iir"),
) -> ConstraintReport:
    """Evaluate incentive and participation inequalities, with slacks.

    Families: bn-ic and iir use interim pairs; ds-ic and eir need the
    anonymous ex-post representation and are reported per agent at the
    worst (minimum-slack) context. Binding constraints show slack 0.
    """
    families = (which,) if isinstance(which, str) else tuple(which)
    for fam in families:
        if fam not in ("bn-ic", "ds-ic", "iir", "eir"):
            raise ValueError(f"unknown constraint family: {fam!r}")
    if len(transfers.interim) != params.n:
        raise ValueError("transfer schedule does not match the agent count")
    if transfers.setting != params.setting:
        raise ValueError("transfer schedule was built for a different setting")
    needs_expost = [fam for fam in families if fam in _EXPOST_FAMILIES]
    if needs_expost and transfers.anonymous_expost is None:
        raise ValueError(f"{needs_expost[0]} requires an ex-post transfer representation")
    if needs_expost and params.setting != "noisy-report":
        raise ValueError("ex-post families are defined in the noisy-report setting only")

    prof = interim_marginals(f, params)
    sched = transfers.interim
    ineqs = []  # (name, lhs per agent, rhs per agent) in each agent's row order
    for fam in families:
        if fam not in _EXPOST_FAMILIES:
            ineqs += _inequalities(fam, params, prof.v_plus, prof.v_minus, sched.v_plus, sched.v_minus)
        else:  # an anonymous rule gives every agent the same contexts: evaluate agent 0 only
            agents = 1 if isinstance(f, AnonymousFunction) else params.n
            worst = np.empty((2, 2, agents))  # (high/low, lhs/rhs, agent)
            for i in range(agents):
                family = _inequalities(fam, params, *_expost_context_values(f, transfers.anonymous_expost, i))
                for k, (_, lhs, rhs) in enumerate(family):
                    j = np.argmin(lhs - rhs)
                    worst[k, :, i] = lhs[j], rhs[j]
            worst = np.broadcast_to(worst, (2, 2, params.n))
            ineqs += [(name, *worst[k]) for k, (name, _, _) in enumerate(family)]
    rows = np.empty((params.n, len(ineqs)), ROW_DTYPE)  # agent-major
    rows["agent"] = np.arange(params.n)[:, None]
    rows["constraint"] = np.arange(len(ineqs))
    for k, (_, lhs, rhs) in enumerate(ineqs):
        rows["lhs"][:, k], rows["rhs"][:, k] = lhs, rhs
    return ConstraintReport(rows.ravel(), tuple(name for name, _, _ in ineqs))
