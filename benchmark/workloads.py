"""The three workloads: inputs generated from the seed, jobs, and their checks.

Each workload builds a pool of job descriptors from its seed, plus one small
warm-up job of each kind. A job has `run()` (the timed call into noisemech),
`collect(raw)` (untimed: turns what the call returned or wrote into Python
values) and `check(out)`, which compares those values with `reference` and
returns a list of errors. Pools are blocks of jobs with fixed kinds and
sizes in a fixed order; the seed draws every other parameter, so that every
run does the same amount of work whatever the seed.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from noisemech import cli, hypercube, mechanism, noise, optimize

import reference as ref

SETTINGS = ("noisy-report", "imperfect-knowledge")
NS_TOL = 1e-10  # noise sensitivity and stability: leaves room for an FFT-built law
REL_TOL = 1e-9  # other reals, relative to max(1, |value|); CLI files carry 12 digits
SLACK_TOL = 1e-9  # a binding constraint's slack
FEAS_TOL = 1e-12  # the documented feasibility and tie tolerance of the optimizers
MC_Z = 5.0


class Job:
    kind = "job"

    def prepare(self) -> None:
        """Untimed: materialise the job's inputs."""

    def collect(self, raw):
        """Untimed: turn what the timed call returned or wrote into Python values."""
        return raw

    def release(self) -> None:
        """Drop the inputs `prepare` built, so that spent jobs in the pool hold no tables."""


class Workspace:
    """The files CLI jobs write, shared by every job of a run, and the bytes written to them."""

    def __init__(self, workdir: Path):
        self.spec = workdir / "rule.fn"
        self.outputs = {"analyze": workdir / "analyze.txt", "transfers": workdir / "transfers.txt",
                        "report": workdir / "report.csv"}
        self.curve = workdir / "curve.csv"
        self.bytes_written = 0


class Check:
    def __init__(self):
        self.errors: list[str] = []

    def ok(self, what: str, cond) -> None:
        if not cond:
            self.errors.append(what)

    def close(self, what: str, got, want, atol: float = 0.0, rtol: float = REL_TOL) -> None:
        got, want = float(got), float(want)
        if not abs(got - want) <= atol + rtol * max(1.0, abs(want)):
            self.errors.append(f"{what}: got {got!r}, want {want!r}")

    def monte_carlo(self, what: str, estimate, exact: float, samples: int) -> None:
        stderr = math.sqrt(max(exact * (1.0 - exact), 0.0) / samples)
        self.close(what, estimate, exact, atol=MC_Z * stderr + 1e-12, rtol=0.0)


# ------------------------------------------------------ finite-calibration


@dataclass(frozen=True)
class Economy:
    n: int
    delta: float
    b: float
    setting: str
    targets: tuple[float, ...]

    def params(self) -> mechanism.MechanismParams:
        return mechanism.MechanismParams(self.n, self.delta, self.b, self.setting)

    @property
    def rho(self) -> float:
        return 1.0 - 2.0 * self.delta


TARGETS = 3  # revenue targets per economy; its burst is 2 * TARGETS + 1 jobs


def _economy(rng: np.random.Generator, n: int) -> Economy:
    # below delta = 0.1 the joint law's tails go subnormal and a build at n = 575
    # costs up to 7% more, which would make equal-size economies cost unequally
    delta = float(rng.uniform(0.1, 0.4))
    b = float(rng.uniform(0.0, 1.0))
    setting = SETTINGS[int(rng.integers(2))]
    # attainable revenue from a float estimate, with a 10% margin below it
    m = np.arange(n + 1)
    lf = ref.log_factorials(n)
    w = np.exp(lf[n] - lf[m] - lf[n - m] - n * math.log(2.0))
    rho = 1.0 - 2.0 * delta
    coef = ref.mean_coef(b, delta, setting)
    revn = (rho * (w * (2 * m - n))[::-1].cumsum()[::-1] + coef * w[::-1].cumsum()[::-1]) / (rho * math.sqrt(n))
    cap = 0.9 * min(float(revn.max()), ref.INV_SQRT_2PI)
    return Economy(n, delta, b, setting, tuple(sorted(float(r) for r in rng.uniform(0.02, cap, TARGETS))))


@functools.lru_cache(maxsize=4)
def _cutoff_reference(n: int, delta: float):
    mean, efnu = ref.cutoff_stats(n)
    return mean, efnu, ref.cutoff_ns(ref.joint_law(n, delta))


def _cutoff_table(e: Economy):
    """Reference (mean, revenue, normalized revenue, surplus, ns) of every cutoff."""
    mean, efnu, ns = _cutoff_reference(e.n, e.delta)
    rev = e.rho * efnu + ref.mean_coef(e.b, e.delta, e.setting) * mean
    return mean, rev, rev / (e.rho * math.sqrt(e.n)), 0.5 * e.b * e.n * mean + 0.5 * e.rho * efnu, ns


def _check_cutoff_point(ck: Check, label: str, e: Economy, point, j: int, r: float, mean=None) -> None:
    table_mean, _, revn, surplus, ns = _cutoff_table(e)
    ck.ok(f"{label}: regime {point.regime!r}", point.regime == "finite")
    ck.ok(f"{label}: threshold {point.threshold}, want {2 * j - e.n}", point.threshold == 2 * j - e.n)
    ck.close(f"{label}: ns", point.ns, ns[j], atol=NS_TOL, rtol=0.0)
    ck.close(f"{label}: mean", point.mean, table_mean[j] if mean is None else mean)
    ck.close(f"{label}: revenue_normalized", point.revenue_normalized, revn[j])
    ck.close(f"{label}: surplus_per_capita", point.surplus_per_capita, surplus[j] / e.n)
    ck.ok(f"{label}: r", point.r == r)


def _check_asymptotic_point(ck: Check, label: str, e: Economy, point, r: float, high: bool) -> None:
    t = math.sqrt(max(0.0, -2.0 * math.log(r / ref.INV_SQRT_2PI)))  # pdf(t) = r
    alpha = 0.5 * math.erfc(t / math.sqrt(2.0))
    mean = alpha if high else 1.0 - alpha
    ck.ok(f"{label}: regime {point.regime!r}", point.regime == "asymptotic")
    ck.close(f"{label}: threshold", point.threshold, t if high else -t, rtol=1e-7)
    ck.close(f"{label}: mean", point.mean, mean)
    ck.close(f"{label}: surplus_per_capita", point.surplus_per_capita, 0.5 * e.b * mean)
    ck.ok(f"{label}: revenue_normalized", point.revenue_normalized == r)
    ck.ok(f"{label}: ns_high {point.ns_high!r} != ns {point.ns!r}", abs(point.ns_high - point.ns) <= 1e-14)
    ck.ok(f"{label}: ns {point.ns!r} outside (0, 1)", 0.0 < point.ns < 1.0)
    if r == ref.INV_SQRT_2PI:  # Sheppard: majority's limit is arccos(rho) / pi
        ck.close(f"{label}: Sheppard ns", point.ns, math.acos(e.rho) / math.pi, atol=1e-12, rtol=0.0)


class CalibrationTarget(Job):
    """One economy at one revenue target, for one objective: the finite optimum
    (one exact joint-law build) and its asymptotic counterpart. Surplus-max jobs
    also carry the economy's revenue-max cutoffs."""

    def __init__(self, economy: Economy, r: float, objective: str):
        self.economy, self.r, self.kind = economy, r, objective

    def run(self):
        p, r = self.economy.params(), self.r
        if self.kind == "min-bias":
            return {"min_bias": optimize.min_bias_threshold(p, r, "finite"),
                    "min_bias_asymptotic": optimize.min_bias_threshold(p, r, "asymptotic")}
        return {"revenue_max": optimize.revenue_max_threshold(p),
                "surplus_max": optimize.surplus_max_threshold(p, r, "finite"),
                "surplus_max_asymptotic": optimize.surplus_max_threshold(p, r, "asymptotic")}

    def check(self, out) -> list[str]:
        e, r, ck = self.economy, self.r, Check()
        if self.kind == "min-bias":
            self._check_min_bias(ck, out)
            return ck.errors
        _, rev, revn, surplus, _ = _cutoff_table(e)
        best = int(np.nonzero(rev >= rev.max() - FEAS_TOL)[0].min())
        res = out["revenue_max"]
        ck.ok(f"revenue-max: nu {res.finite_opt_nu}, want {2 * best - e.n}", res.finite_opt_nu == 2 * best - e.n)
        ck.close("revenue-max: revenue", res.finite_opt_revenue, rev[best])
        ck.close("revenue-max: normalized", res.finite_opt_revenue_normalized, revn[best])
        ck.close("revenue-max: tau_pointwise", res.tau_pointwise, -ref.mean_coef(e.b, e.delta, e.setting) / e.rho)
        if e.b < 1.0:
            ck.close("revenue-max: tau_closed_form", res.tau_closed_form, 2.0 / ((1.0 - e.b) * e.rho))

        feasible = np.nonzero(revn >= r - FEAS_TOL)[0]
        ck.ok("surplus-max: no feasible cutoff", feasible.size > 0)
        if feasible.size:
            top = surplus[feasible].max()
            _check_cutoff_point(ck, "surplus-max", e, out["surplus_max"],
                                int(feasible[surplus[feasible] >= top - FEAS_TOL].min()), r)
        _check_asymptotic_point(ck, "surplus-max asymptotic", e, out["surplus_max_asymptotic"], r, high=False)
        return ck.errors

    def _check_min_bias(self, ck: Check, out) -> None:
        e, r = self.economy, self.r
        w = ref.count_weights(e.n)
        # LP optimum: fill the vote counts of highest revenue per unit of mean
        cell = (e.rho * (2.0 * np.arange(e.n + 1) - e.n) + ref.mean_coef(e.b, e.delta, e.setting)) * w
        cell /= e.rho * math.sqrt(e.n)
        filled = mean_lp = 0.0
        boundary = None
        for j in range(e.n, -1, -1):
            if cell[j] <= 0.0:
                break
            if filled + cell[j] >= r - FEAS_TOL:
                mean_lp += min(1.0, max(0.0, (r - filled) / cell[j])) * w[j]
                boundary = j
                break
            filled += cell[j]
            mean_lp += w[j]
        ck.ok("min-bias: LP infeasible", boundary is not None)
        if boundary is not None:
            _check_cutoff_point(ck, "min-bias", e, out["min_bias"], boundary, r, mean=mean_lp)
        _check_asymptotic_point(ck, "min-bias asymptotic", e, out["min_bias_asymptotic"], r, high=True)


class CalibrationFrontier(Job):
    kind = "frontier"

    def __init__(self, economy: Economy):
        self.economy = economy

    def run(self):
        p, grid = self.economy.params(), list(self.economy.targets)
        return {
            "finite": optimize.pareto_frontier(p, grid, "finite"),
            "asymptotic": optimize.pareto_frontier(p, grid + [ref.INV_SQRT_2PI], "asymptotic"),
        }

    def check(self, out) -> list[str]:
        e, ck = self.economy, Check()
        _, _, revn, _, ns = _cutoff_table(e)
        ck.ok(f"frontier: {len(out['finite'])} finite points", len(out["finite"]) == len(e.targets))
        for r, point in zip(e.targets, out["finite"]):
            feasible = np.nonzero(revn >= r - FEAS_TOL)[0]
            _check_cutoff_point(ck, f"frontier r={r}", e, point, int(feasible[0]), r)
            ck.close(f"frontier r={r}: ns_high", point.ns_high, ns[feasible[-1]], atol=NS_TOL, rtol=0.0)
        grid = e.targets + (ref.INV_SQRT_2PI,)
        ck.ok("asymptotic frontier: point count", len(out["asymptotic"]) == len(grid))
        for r, point in zip(grid, out["asymptotic"]):
            _check_asymptotic_point(ck, f"asymptotic frontier r={r}", e, point, r, high=False)
        return ck.errors


# Economy sizes of one block, in the order a block runs them. Sizes are fixed so
# that every run does the same work whatever the seed, which draws delta, b, the
# setting and the targets. Each size holds a fifth of the jobs, so p50 falls in
# the middle of the n = 361 class and p90 in the middle of the n = 551 class;
# those two come first, so the partial block that ends a run only widens them.
CALIBRATION_SIZES = (361, 551, 101, 451, 211)


def _calibration_jobs(e: Economy) -> list[Job]:
    """One economy's burst: both objectives at each target, then its frontier."""
    jobs = [CalibrationTarget(e, r, objective) for r in e.targets for objective in ("surplus-max", "min-bias")]
    return jobs + [CalibrationFrontier(e)]


def finite_calibration(seed: int, seconds: int, workdir: Path):
    rng = np.random.default_rng([seed, 1])
    pool = [job for _ in range(2 * seconds) for n in CALIBRATION_SIZES for job in _calibration_jobs(_economy(rng, n))]
    surplus, min_bias, *_, frontier = _calibration_jobs(_economy(np.random.default_rng([seed, 2]), 101))
    return pool, [surplus, min_bias, frontier], Workspace(workdir)


# ----------------------------------------------------------- rule-analysis


def _monotone_table(rng: np.random.Generator, n: int, ltf: bool) -> np.ndarray:
    """A positive-weight threshold rule, or a monotone DNF, as a Boolean truth table."""
    if ltf:
        weights = rng.uniform(0.2, 1.0, n)
        score = sum(np.where(ref.coordinate(n, i), w, -w) for i, w in enumerate(weights))
        return score >= rng.uniform(-0.3, 0.3) * weights.sum()
    values = np.zeros(1 << n, dtype=bool)
    for _ in range(int(rng.integers(2, 6))):
        term = rng.choice(n, size=int(rng.integers(2, 5)), replace=False)
        values |= np.logical_and.reduce([ref.coordinate(n, int(i)) for i in term])
    return values


def _parse_keyed(text: str) -> dict[str, str]:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


@dataclass(frozen=True)
class Rule:
    kind: str  # threshold, anonymous or dense
    n: int
    delta: float
    b: float
    setting: str
    seed: int
    mc_samples: Optional[int] = None

    def table(self) -> tuple[str, np.ndarray]:
        """(spec text, truth table: g over counts, or values over points)."""
        rng = np.random.default_rng(self.seed)
        n = self.n
        if self.kind == "threshold":
            theta = int(rng.integers(-2 * int(math.sqrt(n)), 2 * int(math.sqrt(n)) + 1))
            m = np.arange(n + 1)
            return f"kind=threshold\nn={n}\ntheta={theta}\n", (2 * m - n >= theta).astype(np.int64)
        if self.kind == "anonymous":
            spread = int(math.sqrt(n))
            while True:  # a cutoff with a few cells toggled, kept if marginally monotone
                g = (np.arange(n + 1) >= n // 2 + rng.integers(-spread, spread + 1)).astype(np.int64)
                cells = rng.choice(np.arange(n // 2 - 2 * spread, n // 2 + 2 * spread + 1),
                                   size=int(rng.integers(1, 4)), replace=False)
                g[cells] ^= 1
                if ref.anonymous_stats(g)[2]:
                    break
            return f"kind=anonymous\nn={n}\ng={','.join(map(str, g))}\n", g
        values = _monotone_table(rng, n, ltf=rng.random() < 0.5).astype(np.int64)
        return f"kind=dense\nn={n}\nvalues={','.join(map(str, values))}\n", values


class RuleJob(Job):
    kind = "rule"

    def __init__(self, rule: Rule, ws: Workspace):
        self.rule, self.ws = rule, ws
        self.values = None

    def prepare(self) -> None:
        text, self.values = self.rule.table()
        self.ws.spec.write_text(text)
        for path in self.ws.outputs.values():
            path.unlink(missing_ok=True)

    def run(self):
        r = self.rule
        files = self.ws.outputs
        econ = ["--spec", str(self.ws.spec), "--delta", repr(r.delta), "--b", repr(r.b), "--setting", r.setting]
        mc = [] if r.mc_samples is None else ["--mc-samples", str(r.mc_samples), "--seed", str(r.seed % 2**31)]
        return (cli.main(["analyze", *econ, *mc, "--out", str(files["analyze"])]),
                cli.main(["transfers", *econ, "--report-out", str(files["report"]), "--out", str(files["transfers"])]))

    def collect(self, raw):
        texts = {key: path.read_text() if path.exists() else "" for key, path in self.ws.outputs.items()}
        self.ws.bytes_written += sum(len(t.encode()) for t in texts.values())
        report = [line.split(",") for line in texts["report"].splitlines()[1:]]
        return {"exit": raw, "analyze": _parse_keyed(texts["analyze"]),
                "transfers": _parse_keyed(texts["transfers"]), "report": report}

    def release(self) -> None:
        self.values = None

    def reference(self) -> dict:
        r, v = self.rule, self.values
        if r.kind == "dense":
            mean = v.sum() / v.size
            degree1 = ref.dense_degree1(v, r.n)
            efnu = degree1.sum() / v.size
            stab = float((v * ref.flip_channel(v, r.n, r.delta)).mean())
            monotone, marginal = ref.dense_monotone(v, r.n), bool((degree1 >= 0).all())
        else:
            mean, efnu, marginal = ref.anonymous_stats(v)
            stab = float(v @ ref.joint_law(r.n, r.delta) @ v)
            monotone = bool((np.diff(v) >= 0).all())
        return {"mean": mean, "efnu": efnu, "stability": stab, "ns": 2.0 * (mean - stab),
                "monotone": monotone, "marginal": marginal}

    def check(self, out) -> list[str]:
        r, ck = self.rule, Check()
        want = self.reference()
        rho = 1.0 - 2.0 * r.delta
        ck.ok(f"exit codes {out['exit']}", out["exit"] == (0, 0))
        a, t = out["analyze"], out["transfers"]
        if not a or not t:
            return ck.errors + ["missing output"]
        revenue = {s: rho * want["efnu"] + ref.mean_coef(r.b, r.delta, s) * want["mean"] for s in SETTINGS}
        ck.ok("kind", a.get("kind") == ("dense" if r.kind == "dense" else "anonymous"))
        ck.close("mean", a["mean"], want["mean"])
        ck.close("degree1_sum", a["degree1_sum"], want["efnu"])
        ck.ok("monotone", a["monotone"] == str(want["monotone"]).lower())
        ck.ok("marginally_monotone", a["marginally_monotone"] == "true" and want["marginal"])
        for s in SETTINGS:
            ck.close(f"revenue_{s}", a[f"revenue_{s.replace('-', '_')}"], revenue[s])
        ck.close("revenue_normalized", a["revenue_normalized"], revenue[r.setting] / (rho * math.sqrt(r.n)))
        ck.close("surplus", a["surplus"], 0.5 * r.b * r.n * want["mean"] + 0.5 * rho * want["efnu"])
        ck.close("stability", a["stability"], want["stability"], atol=NS_TOL, rtol=0.0)
        ck.close("ns_exact", a["ns_exact"], want["ns"], atol=NS_TOL, rtol=0.0)
        if r.mc_samples is not None:
            ck.monte_carlo("ns_monte_carlo", a["ns_monte_carlo"], want["ns"], r.mc_samples)
        if r.kind == "dense":
            got = np.array([float(x) for x in a["influences"].split(",")])
            ck.ok("influences", np.abs(got - ref.dense_influences(self.values, r.n)).max() <= 1e-10)

        ck.ok("setting", t.get("setting") == r.setting)
        total, formula = float(t["expected_total_transfer"]), float(t["revenue_formula"])
        ck.close("revenue_formula", formula, revenue[r.setting])
        ck.close("expected_total_transfer - revenue_formula", total - formula,
                 (r.n - 1) * ref.mean_coef(r.b, r.delta, r.setting) * want["mean"],
                 atol=REL_TOL * max(1.0, abs(total), abs(formula)))
        ck.ok("constraints_pass", t["constraints_pass"] == "true")
        rows = out["report"]
        ck.ok(f"report has {len(rows)} rows, want {4 * r.n}", len(rows) == 4 * r.n)
        for agent, name, _, _, slack, passed in rows:
            ck.ok(f"report: agent {agent} {name} fails", passed == "true")
            if name in ("bn-ic-high", "iir-low"):
                ck.ok(f"report: agent {agent} {name} slack {slack} not binding", abs(float(slack)) <= SLACK_TOL)
        return ck.errors


class CurveJob(Job):
    kind = "curve"

    def __init__(self, n: int, start: float, step: float, points: int, ws: Workspace):
        self.n, self.ws = n, ws
        self.deltas = [start + k * step for k in range(points)]
        self.grid = f"{start}:{round(start + (points - 1) * step, 6)}:{step}"

    def prepare(self) -> None:
        self.ws.curve.unlink(missing_ok=True)

    def run(self):
        return cli.main(["majority-curve", "--n", str(self.n), "--delta-grid", self.grid, "--out", str(self.ws.curve)])

    def collect(self, raw):
        text = self.ws.curve.read_text() if self.ws.curve.exists() else ""
        self.ws.bytes_written += len(text.encode())
        return {"exit": raw, "rows": [line.split(",") for line in text.splitlines()[1:]]}

    def check(self, out) -> list[str]:
        n, ck = self.n, Check()
        ck.ok(f"exit code {out['exit']}", out["exit"] == 0)
        ck.ok(f"{len(out['rows'])} rows, want {len(self.deltas)}", len(out["rows"]) == len(self.deltas))
        mean, efnu = ref.cutoff_stats(n)
        j0 = (n + 1) // 2
        for delta, row in zip(self.deltas, out["rows"]):
            regime, rn, rdelta, rb, rr, rthr, rns, rsurplus, rrevn = row
            rho = 1.0 - 2.0 * delta
            ns = ref.cutoff_ns(ref.joint_law(n, delta))[j0]
            ck.ok(f"row {row}: columns", (regime, rn, rb, rthr) == ("finite", str(n), "1", "0"))
            ck.close(f"delta={delta}: delta", rdelta, delta, atol=1e-11, rtol=0.0)
            ck.close(f"delta={delta}: ns", rns, ns, atol=NS_TOL, rtol=0.0)
            ck.close(f"delta={delta}: r", rr, rho * efnu[j0] / math.sqrt(n))
            ck.close(f"delta={delta}: surplus_per_capita", rsurplus, 0.5 * mean[j0] + rho * efnu[j0] / (2.0 * n))
            ck.close(f"delta={delta}: revenue_normalized", rrevn, efnu[j0] / math.sqrt(n))
        return ck.errors


def _rule(rng: np.random.Generator, kind: str, n: int, mc: bool) -> Rule:
    return Rule(kind, n, float(rng.uniform(0.02, 0.45)), float(rng.uniform(0.0, 1.0)),
                SETTINGS[int(rng.integers(2))], int(rng.integers(2**62)), 100_000 if mc else None)


def _curve(rng: np.random.Generator, n: int, ws: Workspace) -> CurveJob:
    return CurveJob(n, round(float(rng.uniform(0.02, 0.1)), 3), round(float(rng.uniform(0.04, 0.08)), 3),
                    5, ws)


# One block, in order: (kind, n, with Monte Carlo). Curve jobs trace the
# majority rule over 5 noise levels. Fixed sizes keep the work per run the same;
# the block holds four cheap jobs, four near 60 ms and four near 100 ms on this
# machine, so that p50 and p90 fall inside a group rather than between two.
RULE_BLOCK = (
    ("threshold", 201, True), ("dense", 12, False), ("anonymous", 201, False), ("curve", 101, False),
    ("threshold", 201, False), ("dense", 14, True), ("anonymous", 151, True), ("threshold", 151, False),
    ("anonymous", 201, False), ("dense", 13, False), ("threshold", 201, False), ("anonymous", 251, False),
)


def rule_analysis(seed: int, seconds: int, workdir: Path):
    ws = Workspace(workdir)

    def job(rng: np.random.Generator, kind: str, n: int, mc: bool) -> Job:
        if kind == "curve":
            return _curve(rng, n, ws)
        return RuleJob(_rule(rng, kind, n, mc), ws)

    rng = np.random.default_rng([seed, 3])
    pool = [job(rng, *spec) for _ in range(15 * seconds) for spec in RULE_BLOCK]
    rng = np.random.default_rng([seed, 4])
    warm = [job(rng, kind, n, kind == "dense")
            for kind, n in (("threshold", 31), ("anonymous", 31), ("dense", 10), ("curve", 31))]
    return pool, warm, ws


# ------------------------------------------------------------- dense-audit


def _all_boolean_tables() -> np.ndarray:
    """Truth tables of all 2^16 Boolean rules at n = 4, row = rule id."""
    return ((np.arange(1 << 16)[:, None] >> np.arange(16)[None, :]) & 1).astype(np.int8)


@functools.lru_cache(maxsize=1)
def _all_boolean_stats():
    values = _all_boolean_tables()
    degree1 = ref.dense_degree1(values.astype(np.int64), 4)
    return values.mean(axis=1), degree1.sum(axis=1) / 16.0, (degree1 >= 0).all(axis=1)


@functools.lru_cache(maxsize=None)
def _all_boolean_reference(delta: float):
    """ns, E[f], E[f sum x] and marginal monotonicity of all 2^16 rules at n = 4."""
    return (ref.dense_ns(_all_boolean_tables().astype(np.float64), 4, delta), *_all_boolean_stats())


def _anonymous_reference(n: int, delta: float):
    """The same four arrays for all 2^(n+1) Boolean count rules."""
    law = ref.joint_law(n, delta)
    w = ref.count_weights(n)
    nu_int = np.array([(2 * m - n) * math.comb(n, m) for m in range(n + 1)], dtype=np.int64)
    count = 1 << (n + 1)
    ns, mean, efnu, marginal = np.empty(count), np.empty(count), np.empty(count), np.empty(count, dtype=bool)
    for start in range(0, count, 1 << 15):
        ids = np.arange(start, min(start + (1 << 15), count))
        g = ((ids[:, None] >> np.arange(n + 1)[None, :]) & 1)
        mean[ids] = g @ w
        efnu[ids] = g @ (w * (2 * np.arange(n + 1) - n))
        marginal[ids] = g @ nu_int >= 0
        ns[ids] = 2.0 * (mean[ids] - ((g @ law) * g).sum(axis=1))
    return ns, mean, efnu, marginal


class OracleJob(Job):
    def __init__(self, scope: str, n: int, delta: float, b: float, setting: str, r: float):
        self.kind = scope
        self.scope, self.n, self.delta, self.b, self.setting, self.r = scope, n, delta, b, setting, r

    def run(self):
        params = mechanism.MechanismParams(self.n, self.delta, self.b, self.setting)
        return optimize.ns_min_bruteforce(params, self.r, self.scope)

    def reference(self):
        if self.scope == "all-boolean":
            ns, mean, efnu, marginal = _all_boolean_reference(self.delta)
            pc = np.array([bin(k).count("1") for k in range(16)])
            cutoffs = [int(((pc >= j).astype(np.int64) << np.arange(16)).sum()) for j in range(5)]
        else:
            ns, mean, efnu, marginal = _anonymous_reference(self.n, self.delta)
            cutoffs = [sum(1 << m for m in range(j, self.n + 1)) for j in range(self.n + 1)]
        rho = 1.0 - 2.0 * self.delta
        revn = (rho * efnu + ref.mean_coef(self.b, self.delta, self.setting) * mean) / (rho * math.sqrt(self.n))
        return ns, marginal, marginal & (revn >= self.r - FEAS_TOL), cutoffs

    def check(self, res) -> list[str]:
        ck = Check()
        ns, marginal, feasible, cutoffs = self.reference()
        count = int(feasible.sum())
        ck.ok(f"feasible_count {res.feasible_count}, want {count}", res.feasible_count == count)
        if count == 0 or res.feasible_count == 0:
            ck.ok("infeasible target reports no argmin", not res.argmin_functions)
            return ck.errors
        ck.close("min_ns", res.min_ns, ns[feasible].min(), atol=NS_TOL, rtol=0.0)
        ck.ok("no argmin", len(res.argmin_functions) > 0)
        for fid in res.argmin_functions:
            ck.ok(f"argmin {fid} infeasible", feasible[fid])
            ck.ok(f"argmin {fid} not marginally monotone", marginal[fid])
            ck.close(f"argmin {fid}: ns", ns[fid], res.min_ns, atol=NS_TOL, rtol=0.0)
        ltf = [(ns[fid], 2 * j - self.n) for j, fid in enumerate(cutoffs) if feasible[fid]]
        ck.ok("no feasible cutoff", ltf)
        if ltf:
            best = min(v for v, _ in ltf)
            ck.close("best_ltf_ns", res.best_ltf_ns, best, atol=NS_TOL, rtol=0.0)
            ck.ok(f"best_ltf_threshold {res.best_ltf_threshold}",
                  any(nu == res.best_ltf_threshold and abs(v - best) <= NS_TOL for v, nu in ltf))
        ck.ok("min_ns > best_ltf_ns", res.min_ns <= res.best_ltf_ns + FEAS_TOL)
        ck.close("ltf_gap", res.ltf_gap, res.best_ltf_ns - res.min_ns, atol=NS_TOL, rtol=0.0)
        return ck.errors


class SpectralJob(Job):
    kind = "spectral"
    samples = 100_000

    def __init__(self, n: int, delta: float, family: str, seed: int):
        self.n, self.delta, self.family, self.seed = n, delta, family, seed
        self.f = None

    def prepare(self) -> None:
        rng = np.random.default_rng(self.seed)
        if self.family == "ltf":
            weights = rng.normal(size=self.n)
            score = sum(np.where(ref.coordinate(self.n, i), w, -w) for i, w in enumerate(weights))
            values = score >= rng.uniform(-0.5, 0.5) * np.abs(weights).sum()
        elif self.family == "dnf":
            values = _monotone_table(rng, self.n, ltf=False)
        else:
            values = rng.random(1 << self.n) < rng.uniform(0.1, 0.9)
        self.f = hypercube.DenseFunction(self.n, values.astype(np.float64))

    def release(self) -> None:
        self.f = None

    def run(self):
        f, delta = self.f, self.delta
        return {"ns": noise.sensitivity_exact(f, delta), "influences": hypercube.influences(f),
                "noise_operator": noise.noise_operator(f, 1.0 - 2.0 * delta).values,
                "monte_carlo": noise.sensitivity_monte_carlo(f, delta, self.samples, self.seed % 2**31)}


    def check(self, out) -> list[str]:
        ck, v = Check(), self.f.values
        ns = float(ref.dense_ns(v, self.n, self.delta))
        ck.close("ns", out["ns"], ns, atol=NS_TOL, rtol=0.0)
        ck.ok("influences", np.abs(out["influences"] - ref.dense_influences(v, self.n)).max() <= 1e-10)
        ck.ok("noise_operator", np.abs(out["noise_operator"] - ref.flip_channel(v, self.n, self.delta)).max() <= 1e-10)
        ck.monte_carlo("monte carlo ns", out["monte_carlo"].estimate, ns, self.samples)
        return ck.errors


N4_GRID = [(d, b, s, r) for d in (0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35) for b in (0.0, 0.25, 0.5, 0.75, 1.0)
           for s in SETTINGS for r in (0.02, 0.05, 0.1, 0.15, 0.2, 0.25, 0.3, 0.35)]


# One block, in order: anonymous oracles at n = 10..17, spectral jobs at
# n = 14..18 and four points of the n = 4 grid, with cheap and costly jobs
# interleaved. The seed draws the rules, delta, b, the setting and r. On this
# machine the four n = 4 oracles hold ranks 40-60% of the block's latencies
# and the four n = 18 spectral jobs ranks 75-95%, so p50 and p90 each fall
# inside one class rather than between two.
AUDIT_BLOCK = (
    ("spectral", 18), ("anonymous", 10), ("all-boolean", 4), ("spectral", 16), ("anonymous", 17),
    ("anonymous", 11), ("all-boolean", 4), ("spectral", 18), ("anonymous", 15), ("anonymous", 12),
    ("spectral", 14), ("all-boolean", 4), ("spectral", 18), ("anonymous", 13), ("spectral", 17),
    ("anonymous", 16), ("all-boolean", 4), ("spectral", 18), ("anonymous", 14), ("spectral", 15),
)


def _audit_job(rng: np.random.Generator, kind: str, n: int) -> Job:
    if kind == "all-boolean":
        return OracleJob("all-boolean", 4, *N4_GRID[int(rng.integers(len(N4_GRID)))])
    if kind == "anonymous":
        return OracleJob("anonymous", n, float(rng.uniform(0.02, 0.45)), float(rng.uniform(0.0, 1.0)),
                         SETTINGS[int(rng.integers(2))], float(rng.uniform(0.02, 0.35)))
    return SpectralJob(n, float(rng.uniform(0.02, 0.45)), ("ltf", "dnf", "random")[int(rng.integers(3))],
                       int(rng.integers(2**62)))


def dense_audit(seed: int, seconds: int, workdir: Path):
    rng = np.random.default_rng([seed, 5])
    pool = [_audit_job(rng, kind, n) for _ in range(10 * seconds) for kind, n in AUDIT_BLOCK]
    rng = np.random.default_rng([seed, 6])
    warm = [_audit_job(rng, kind, n) for kind, n in (("all-boolean", 4), ("anonymous", 10), ("spectral", 14))]
    return pool, warm, Workspace(workdir)


class Workload(NamedTuple):
    build: Callable  # (seed, seconds, work directory) -> (job pool, warm-up jobs, workspace)
    block: int  # jobs per block; a run attempts whole blocks


WORKLOADS = {
    "finite-calibration": Workload(finite_calibration, (2 * TARGETS + 1) * len(CALIBRATION_SIZES)),
    "rule-analysis": Workload(rule_analysis, len(RULE_BLOCK)),
    "dense-audit": Workload(dense_audit, len(AUDIT_BLOCK)),
}


# ---------------------------------------------------------------- self-test


def _shift_ns(out):
    """Noise sensitivity moved by 1e-9, wherever the job reports one."""
    if "surplus_max" in out:
        return {**out, "surplus_max": dataclasses.replace(out["surplus_max"], ns=out["surplus_max"].ns + 1e-9)}
    if "analyze" in out:
        return {**out, "analyze": {**out["analyze"], "ns_exact": repr(float(out["analyze"]["ns_exact"]) + 1e-9)}}
    return {**out, "ns": out["ns"] + 1e-9}


def _loose_iir_low(out):
    rows = [list(row) for row in out["report"]]
    row = next(row for row in rows if row[1] == "iir-low")
    row[4] = "1e-06"
    return {**out, "report": rows}


def _non_minimal_argmin(job: OracleJob):
    """Report the feasible rule of largest ns as the argmin, if it is not minimal."""
    ns, _, feasible, _ = job.reference()
    if not feasible.any() or ns[feasible].max() - ns[feasible].min() < 1e-6:
        return None
    worst = int(np.argmax(np.where(feasible, ns, -1.0)))
    return lambda res: dataclasses.replace(res, argmin_functions=(worst,))


# (workload, job kind, what is wrong, job -> (output -> wrong output), or None
# when the job cannot show the fault)
SELF_TESTS = (
    ("finite-calibration", "surplus-max", "surplus-max ns + 1e-9", lambda job: _shift_ns),
    ("rule-analysis", "rule", "analyze ns_exact + 1e-9", lambda job: _shift_ns),
    ("dense-audit", "spectral", "spectral ns + 1e-9", lambda job: _shift_ns),
    ("dense-audit", "all-boolean", "non-minimal argmin", _non_minimal_argmin),
    ("rule-analysis", "rule", "iir-low slack 1e-6", lambda job: _loose_iir_low),
)
