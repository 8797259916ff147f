import io
import itertools
import math
import struct
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from noisemech.hypercube import (
    AnonymousFunction,
    DenseFunction,
    half_split,
    majority_function,
    monotonicity_check,
    popcounts,
    threshold_function,
)
from noisemech.mechanism import (
    ROW_DTYPE,
    SETTINGS,
    ConstraintReport,
    InterimProfile,
    MechanismParams,
    TransferSchedule,
    check_constraints,
    induced_interim_pair,
    interim_marginals,
    optimal_interim_transfers,
    revenue,
    revenue_normalized,
    solve_anonymous_transfer,
    surplus,
    surplus_distortion_bound,
)
from noisemech.noise import sensitivity_exact

MAJ3 = majority_function(3)
DICTATOR1 = DenseFunction(1, [0.0, 1.0])


def transfer_lp_oracle(fm, fp, b, d, setting="noisy-report"):
    """Maximize (tm+tp)/2 over the BN-IC + IIR polytope by vertex enumeration.

    Constraints written a1*tm + a2*tp <= c; returns (value, (tm, tp)).
    """
    if setting == "noisy-report":
        cons = [
            (-1.0, 1.0, (b + 1) / 2 * (fp - fm)),
            (1.0, -1.0, -(b - 1) / 2 * (fp - fm)),
            (d, 1 - d, (b + 1) / 2 * ((1 - d) * fp + d * fm)),
            (1 - d, d, (b - 1) / 2 * (d * fp + (1 - d) * fm)),
        ]
    else:
        cons = [
            (-1.0, 1.0, ((b + 1) / 2 - d) * (fp - fm)),
            (1.0, -1.0, -((b - 1) / 2 + d) * (fp - fm)),
            (0.0, 1.0, ((b + 1) / 2 - d) * fp),
            (1.0, 0.0, ((b - 1) / 2 + d) * fm),
        ]
    best = None
    for (a1, a2, c1), (b1, b2, c2) in itertools.combinations(cons, 2):
        mat = np.array([[a1, a2], [b1, b2]])
        if abs(np.linalg.det(mat)) < 1e-13:
            continue
        t = np.linalg.solve(mat, np.array([c1, c2]))
        if all(x * t[0] + y * t[1] <= z + 1e-11 for x, y, z in cons):
            value = (t[0] + t[1]) / 2
            if best is None or value > best[0]:
                best = (value, (float(t[0]), float(t[1])))
    return best


def enumerate_marg_monotone(n, limit=None, seed=0):
    """Yield Boolean DenseFunctions at small n that are marginally monotone."""
    size = 1 << n
    pts = np.arange(size)
    signs = (((pts[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int64)
    ids = np.arange(1 << size)
    if limit is not None:
        ids = np.random.default_rng(seed).permutation(ids)[:limit]
    for fid in ids:
        vals = ((int(fid) >> pts) & 1).astype(np.float64)
        if (vals.astype(np.int64) @ signs >= 0).all():
            yield DenseFunction(n, vals)


class TestParams:
    def test_rejects_delta_endpoints(self):
        for d in (0.0, 0.5, -0.1, 0.7):
            with pytest.raises(ValueError):
                MechanismParams(3, d)

    def test_rejects_bad_bias_and_setting(self):
        with pytest.raises(ValueError):
            MechanismParams(3, 0.1, b=1.5)
        with pytest.raises(ValueError):
            MechanismParams(3, 0.1, setting="oracle")
        with pytest.raises(ValueError):
            MechanismParams(0, 0.1)


class TestInterimMarginals:
    def test_dictator_two_agents(self):
        f = DenseFunction(2, [0.0, 1.0, 0.0, 1.0])
        prof = interim_marginals(f, MechanismParams(2, 0.1))
        assert prof.v_minus.tolist() == pytest.approx([0.0, 0.5], abs=1e-15)
        assert prof.v_plus.tolist() == pytest.approx([1.0, 0.5], abs=1e-15)

    def test_constant_one(self):
        f = DenseFunction(2, np.ones(4))
        prof = interim_marginals(f, MechanismParams(2, 0.2))
        assert np.allclose(prof.v_minus, 1.0) and np.allclose(prof.v_plus, 1.0)

    def test_maj3_by_enumeration(self):
        prof = interim_marginals(MAJ3, MechanismParams(3, 0.1))
        dense = MAJ3.to_dense()
        pts = np.arange(8)
        hi = dense.values[(pts >> 0) & 1 == 1].mean()
        lo = dense.values[(pts >> 0) & 1 == 0].mean()
        assert (lo, hi) == (0.25, 0.75)
        assert np.allclose(prof.v_minus, 0.25) and np.allclose(prof.v_plus, 0.75)


class TestRevenue:
    def test_constant_one(self):
        f = AnonymousFunction(3, np.ones(4))
        assert revenue(f, MechanismParams(3, 0.1, b=0.0)) == pytest.approx(-0.5, abs=1e-14)

    def test_maj3(self):
        assert revenue(MAJ3, MechanismParams(3, 0.25, b=0.0)) == pytest.approx(0.125, abs=1e-14)

    def test_imperfect_gap(self):
        p0 = MechanismParams(3, 0.25, b=0.0, setting="noisy-report")
        p1 = MechanismParams(3, 0.25, b=0.0, setting="imperfect-knowledge")
        assert revenue(MAJ3, p1) == pytest.approx(0.125 + 0.25 * 0.5, abs=1e-14)
        assert revenue(MAJ3, p1) - revenue(MAJ3, p0) == pytest.approx(0.25 * MAJ3.mean(), abs=1e-14)

    def test_warns_without_monotonicity(self):
        f = DenseFunction(1, [1.0, 0.0])
        with pytest.warns(UserWarning):
            revenue(f, MechanismParams(1, 0.1))

    def test_normalization(self):
        p = MechanismParams(3, 0.25, b=0.0)
        assert revenue_normalized(MAJ3, p) == pytest.approx(0.125 / (0.5 * math.sqrt(3)), abs=1e-14)


class TestSurplus:
    def test_constant_one(self):
        f = AnonymousFunction(4, np.ones(5))
        p = MechanismParams(4, 0.2, b=0.6)
        assert surplus(f, p) == pytest.approx(0.6 * 4 / 2, abs=1e-14)

    def test_maj3(self):
        assert surplus(MAJ3, MechanismParams(3, 0.25, b=0.0)) == pytest.approx(0.1875, abs=1e-14)

    def test_against_direct_noisy_expectation(self):
        # E[sum_i ((b+x_i)/2) f(y)] over all (x, y) pairs with flip weights
        rng = np.random.default_rng(21)
        for n, d, b in ((2, 0.1, 0.0), (4, 0.3, 0.5), (6, 0.45, 1.0)):
            f = DenseFunction(n, rng.random(1 << n))
            total = 0.0
            for x in range(1 << n):
                sx = sum(1 if (x >> i) & 1 else -1 for i in range(n))
                for y in range(1 << n):
                    h = bin(x ^ y).count("1")
                    w = d**h * (1 - d) ** (n - h) / (1 << n)
                    total += w * (b * n + sx) / 2 * f.values[y]
            assert surplus(f, MechanismParams(n, d, b=b)) == pytest.approx(total, abs=1e-12)

    def test_high_noise_limit(self):
        p = MechanismParams(3, 0.4999999, b=0.8)
        f = MAJ3
        assert surplus(f, p) == pytest.approx(0.8 * 3 / 2 * f.mean(), abs=1e-6)


class TestDistortionBound:
    def test_zero_noise_like(self):
        f = MAJ3
        p = MechanismParams(3, 1e-12, b=0.0)
        assert surplus_distortion_bound(f, p, sensitivity_exact(f, p.delta)) <= 1e-5

    def test_constant(self):
        # sqrt of the ~1e-16 stability rounding noise caps the achievable tolerance
        f = AnonymousFunction(3, np.ones(4))
        p = MechanismParams(3, 0.2, b=0.3)
        assert surplus_distortion_bound(f, p, sensitivity_exact(f, p.delta)) == pytest.approx(0.0, abs=1e-7)

    def test_dictator_bound_holds(self):
        p = MechanismParams(1, 0.09, b=0.0)
        bound = surplus_distortion_bound(DICTATOR1, p, sensitivity_exact(DICTATOR1, p.delta))
        assert bound == pytest.approx(0.5 * math.sqrt(0.09), abs=1e-12)
        # direct E|S(x, f(y)) - S(x, f(x))|: decision flips w.p. delta, each flip costs 1/2
        direct = 0.09 / 2
        assert direct <= bound + 1e-12


class TestOptimalTransfers:
    def test_dictator_example(self):
        p = MechanismParams(1, 0.1, b=0.0)
        sched = optimal_interim_transfers(DICTATOR1, p)
        assert sched.interim.v_minus[0] == pytest.approx(-0.1, abs=1e-14)
        assert sched.interim.v_plus[0] == pytest.approx(0.4, abs=1e-14)
        assert sched.expected_total() == pytest.approx(0.15, abs=1e-14)
        assert revenue(DICTATOR1, p) == pytest.approx(0.15, abs=1e-14)

    def test_constant_rule_full_bias(self):
        f = AnonymousFunction(2, np.ones(3))
        for setting in ("noisy-report", "imperfect-knowledge"):
            p = MechanismParams(2, 0.2, b=1.0, setting=setting)
            sched = optimal_interim_transfers(f, p)
            per_agent = 0.5 * (sched.interim.v_minus + sched.interim.v_plus)
            expected = 0.0 if setting == "noisy-report" else 0.2
            assert np.allclose(per_agent, expected, atol=1e-14)

    def test_maj3_against_lp_oracle(self):
        # frozen from the vertex-enumeration oracle: the per-agent optimum is
        # (-0.25, 0.0), expected transfer -0.125 per agent
        p = MechanismParams(3, 0.25, b=0.0)
        sched = optimal_interim_transfers(MAJ3, p)
        value, (tm, tp) = transfer_lp_oracle(0.25, 0.75, 0.0, 0.25)
        assert (tm, tp) == pytest.approx((-0.25, 0.0), abs=1e-12)
        assert sched.interim.v_minus[0] == pytest.approx(tm, abs=1e-12)
        assert sched.interim.v_plus[0] == pytest.approx(tp, abs=1e-12)
        assert sched.expected_total() == pytest.approx(3 * value, abs=1e-12)

    @pytest.mark.parametrize("setting", ["noisy-report", "imperfect-knowledge"])
    def test_formulas_are_lp_optimal(self, setting):
        # resolves the binding-pattern dominance question by enumeration: the
        # closed-form pair is the polytope maximum for random marginals
        from noisemech.mechanism import optimal_interim_pair
        rng = np.random.default_rng(31)
        for _ in range(200):
            fm, fp = np.sort(rng.random(2))
            b = float(rng.random())
            d = float(rng.uniform(0.01, 0.49))
            value, (tm, tp) = transfer_lp_oracle(fm, fp, b, d, setting)
            p = MechanismParams(1, d, b=b, setting=setting)
            got_tm, got_tp = optimal_interim_pair(fm, fp, p)
            assert got_tm == pytest.approx(tm, abs=1e-10)
            assert got_tp == pytest.approx(tp, abs=1e-10)
            assert 0.5 * (got_tm + got_tp) == pytest.approx(value, abs=1e-10)

    def test_rejects_non_monotone(self):
        f = DenseFunction(1, [1.0, 0.0])
        with pytest.raises(ValueError):
            optimal_interim_transfers(f, MechanismParams(1, 0.1))

    def test_transfer_sum_identity(self):
        # sum of optimal expected transfers = (1-2d) E[f sum x] + n * mean_coef * E[f];
        # equals revenue() in the b = 1 noisy case where the E[f] term drops
        for n, d, b, setting in ((3, 0.2, 0.3, "noisy-report"), (4, 0.35, 0.0, "imperfect-knowledge")):
            f = majority_function(n)
            p = MechanismParams(n, d, b=b, setting=setting)
            sched = optimal_interim_transfers(f, p)
            expected = p.rho * f.mean_nu() + n * p.mean_coef * f.mean()
            assert sched.expected_total() == pytest.approx(expected, abs=1e-12)
        p1 = MechanismParams(5, 0.2, b=1.0, setting="noisy-report")
        f5 = majority_function(5)
        assert optimal_interim_transfers(f5, p1).expected_total() == pytest.approx(
            revenue(f5, p1), abs=1e-12
        )


class TestSolveAnonymousTransfer:
    def test_identity_at_n1(self):
        t = solve_anonymous_transfer(1, -0.3, 0.7)
        assert np.allclose(t, [-0.3, 0.7], atol=1e-14)

    def test_n2_min_norm(self):
        t = solve_anonymous_transfer(2, 0.0, 1.0)
        assert t[0] + t[1] == pytest.approx(0.0, abs=1e-12)
        assert t[1] + t[2] == pytest.approx(2.0, abs=1e-12)
        # minimum-norm representative among the one-parameter solution family
        grid = [np.array([-s, s, 2.0 - s]) for s in np.linspace(-3, 3, 601)]
        best = min(grid, key=lambda v: float(v @ v))
        assert float(t @ t) <= float(best @ best) + 1e-9

    def test_constant_feasibility(self):
        for n in (1, 4, 9):
            t = solve_anonymous_transfer(n, 0.6, 0.6)
            bm, bp = induced_interim_pair(t)
            assert bm == pytest.approx(0.6, abs=1e-12)
            assert bp == pytest.approx(0.6, abs=1e-12)

    def test_residual_small_generally(self):
        rng = np.random.default_rng(8)
        for n in (2, 7, 33, 150):
            bm, bp = rng.normal(size=2)
            t = solve_anonymous_transfer(n, bm, bp)
            got = induced_interim_pair(t)
            assert got[0] == pytest.approx(bm, abs=1e-9)
            assert got[1] == pytest.approx(bp, abs=1e-9)

    @staticmethod
    def exact_min_norm(n, beta_minus, beta_plus):
        """The minimum-norm solution R^T (R R^T)^-1 beta in rational arithmetic."""
        w = [Fraction(math.comb(n - 1, m), 2 ** (n - 1)) for m in range(n)]
        a = sum(x * x for x in w)
        c = sum(x * y for x, y in zip(w, w[1:]))
        bm, bp = Fraction(beta_minus), Fraction(beta_plus)
        det = a * a - c * c
        x_lo, x_hi = (a * bm - c * bp) / det, (a * bp - c * bm) / det
        return [x_lo * lo + x_hi * hi for lo, hi in zip(w + [0], [0] + w)]

    @pytest.mark.parametrize("n", [1, 2, 5, 40, 101, 301])
    def test_matches_exact_min_norm(self, n):
        for bm, bp in ((-0.3, 0.7), (0.6, 0.6), (-0.0514631567408541, -0.031953154768)):
            t = solve_anonymous_transfer(n, bm, bp)
            want = self.exact_min_norm(n, bm, bp)
            err = max(abs(Fraction(float(x)) / e - 1) for x, e in zip(t, want) if abs(e) > Fraction(1, 10**300))
            assert err <= Fraction(1, 10**14), (n, bm, bp, float(err))

    def test_schedule_rejects_mismatched_expost(self):
        from noisemech.mechanism import InterimProfile, TransferSchedule
        good = solve_anonymous_transfer(3, 0.1, 0.4)
        interim = InterimProfile(np.full(3, 0.1), np.full(3, 0.4))
        TransferSchedule(interim, good, "noisy-report")  # consistent: accepted
        with pytest.raises(ValueError):
            TransferSchedule(interim, good + 0.05, "noisy-report")


class TestCheckConstraints:
    def test_optimal_transfers_bind_where_expected(self):
        p = MechanismParams(3, 0.25, b=0.0)
        sched = optimal_interim_transfers(MAJ3, p)
        report = check_constraints(MAJ3, sched, p, ("bn-ic", "iir"))
        assert report.ok
        assert np.allclose(report.slack("iir-low"), 0.0, atol=1e-12)
        assert np.allclose(report.slack("bn-ic-high"), 0.0, atol=1e-12)
        assert (report.slack("iir-high") >= -1e-12).all()
        assert report.slack("iir-low").shape == (3,)

    def test_slack_of_an_absent_constraint_raises(self):
        p = MechanismParams(3, 0.25, b=0.0)
        report = check_constraints(MAJ3, optimal_interim_transfers(MAJ3, p), p, ("bn-ic", "iir"))
        for name in ("typo", "ds-ic-high", "iir"):
            with pytest.raises(ValueError, match=repr(name)):
                report.slack(name)

    def test_zero_transfers_constant_rule(self):
        f = AnonymousFunction(2, np.ones(3))
        p = MechanismParams(2, 0.3, b=1.0)
        from noisemech.mechanism import InterimProfile, TransferSchedule
        sched = TransferSchedule(InterimProfile(np.zeros(2), np.zeros(2)), None, "noisy-report")
        report = check_constraints(f, sched, p, ("bn-ic", "iir"))
        assert report.ok
        assert (report.rows["lhs"] - report.rows["rhs"] >= -1e-12).all()

    def test_excessive_gap_fails_bn_ic(self):
        f = DenseFunction(1, [0.0, 1.0])
        p = MechanismParams(1, 0.1, b=0.0)
        from noisemech.mechanism import InterimProfile, TransferSchedule
        gap = (p.b + 1.0)  # twice the allowed (b+1)/2 * gap(f) = 1/2... deliberately too big
        sched = TransferSchedule(InterimProfile(np.array([0.0]), np.array([gap])), None, "noisy-report")
        report = check_constraints(f, sched, p, "bn-ic")
        assert not report.ok
        assert report.slack("bn-ic-high")[0] < -1e-9
        assert report.slack("bn-ic-low")[0] >= -1e-9

    def test_expost_required_for_ds_families(self):
        p = MechanismParams(3, 0.25, b=0.0)
        sched = optimal_interim_transfers(MAJ3, p)
        object.__setattr__(sched, "anonymous_expost", None)
        with pytest.raises(ValueError):
            check_constraints(MAJ3, sched, p, "ds-ic")

    def test_expost_families_reject_imperfect_setting(self):
        p = MechanismParams(3, 0.25, b=0.0, setting="imperfect-knowledge")
        sched = optimal_interim_transfers(MAJ3, p)
        object.__setattr__(sched, "anonymous_expost", np.zeros(4))
        with pytest.raises(ValueError):
            check_constraints(MAJ3, sched, p, "eir")

    def test_constant_subsidy_is_dominant_strategy_feasible(self):
        # a flat transfer of -1 (a subsidy) satisfies ds-ic and eir pointwise
        # for any monotone rule; checked on both function representations
        from noisemech.mechanism import InterimProfile, TransferSchedule
        p = MechanismParams(3, 0.25, b=0.0)
        for f in (MAJ3, MAJ3.to_dense()):
            sched = TransferSchedule(
                InterimProfile(np.full(3, -1.0), np.full(3, -1.0)),
                np.full(4, -1.0),
                "noisy-report",
            )
            report = check_constraints(f, sched, p, ("ds-ic", "eir", "bn-ic", "iir"))
            assert report.ok

    def test_minimum_norm_expost_is_not_dominant_strategy(self):
        # interim-optimal transfers realized by the min-norm vector satisfy the
        # interim families but not the pointwise ones; both facts are stable
        p = MechanismParams(3, 0.25, b=0.0)
        sched = optimal_interim_transfers(MAJ3, p)
        assert check_constraints(MAJ3, sched, p, ("bn-ic", "iir")).ok
        assert not check_constraints(MAJ3, sched, p, ("ds-ic", "eir")).ok

    def test_csv_shape(self):
        p = MechanismParams(3, 0.25, b=0.0)
        sched = optimal_interim_transfers(MAJ3, p)
        text = csv_text(check_constraints(MAJ3, sched, p, ("bn-ic", "iir")))
        lines = text.strip().splitlines()
        assert lines[0] == "agent,constraint,lhs,rhs,slack,pass"
        assert len(lines) == 1 + 3 * 4


def reference_constraint_rows(f, transfers, params, families):
    """(agent, constraint, lhs, rhs) tuples from a per-agent, per-family loop with each inequality written out."""
    prof = interim_marginals(f, params)
    lo_coef, hi_coef = params.value_coefs
    d = params.delta
    t = transfers.anonymous_expost

    def contexts(i):
        if isinstance(f, AnonymousFunction):
            m = np.arange(f.n)
            return f.g[m + 1], f.g[m], t[m + 1], t[m]
        low, high = (half.ravel() for half in half_split(np.arange(1 << f.n), i))
        pc = popcounts(f.n)
        return f.values[high], f.values[low], t[pc[high]], t[pc[low]]

    rows = []
    for i in range(params.n):
        fm, fp = prof.v_minus[i], prof.v_plus[i]
        tm, tp = transfers.interim.v_minus[i], transfers.interim.v_plus[i]
        for fam in families:
            if fam == "bn-ic":
                rows.append((i, "bn-ic-high", hi_coef * (fp - fm), tp - tm))
                rows.append((i, "bn-ic-low", tp - tm, lo_coef * (fp - fm)))
            elif fam == "iir" and params.setting == "imperfect-knowledge":
                rows.append((i, "iir-high", hi_coef * fp, tp))
                rows.append((i, "iir-low", lo_coef * fm, tm))
            elif fam == "iir":
                rows.append((i, "iir-high", hi_coef * ((1.0 - d) * fp + d * fm), (1.0 - d) * tp + d * tm))
                rows.append((i, "iir-low", lo_coef * (d * fp + (1.0 - d) * fm), d * tp + (1.0 - d) * tm))
            else:
                fpv, fmv, tpv, tmv = contexts(i)
                if fam == "ds-ic":
                    pairs = (
                        ("ds-ic-high", hi_coef * (fpv - fmv), tpv - tmv),
                        ("ds-ic-low", tpv - tmv, lo_coef * (fpv - fmv)),
                    )
                else:
                    pairs = (
                        ("eir-high", hi_coef * ((1.0 - d) * fpv + d * fmv), (1.0 - d) * tpv + d * tmv),
                        ("eir-low", lo_coef * (d * fpv + (1.0 - d) * fmv), d * tpv + (1.0 - d) * tmv),
                    )
                for name, lhs_v, rhs_v in pairs:
                    worst = int(np.argmin(lhs_v - rhs_v))
                    rows.append((i, name, float(lhs_v[worst]), float(rhs_v[worst])))
    return rows


def csv_text(report):
    out = io.StringIO()
    report.write_csv(out)
    return out.getvalue()


def named_rows(report):
    """The report's rows as (agent, constraint name, lhs, rhs) tuples."""
    return [(agent, report.names[code], lhs, rhs) for agent, code, lhs, rhs in report.rows.tolist()]


def report_of(rows):
    """A ConstraintReport holding (agent, constraint name, lhs, rhs) tuples, names coded in order of appearance."""
    names = tuple(dict.fromkeys(name for _, name, _, _ in rows))
    coded = [(agent, names.index(name), lhs, rhs) for agent, name, lhs, rhs in rows]
    return ConstraintReport(np.array(coded, ROW_DTYPE), names)


def reference_csv(rows):
    """The report CSV written row by row, one f-string per (agent, constraint, lhs, rhs) tuple."""
    lines = ["agent,constraint,lhs,rhs,slack,pass\n"]
    for agent, constraint, lhs, rhs in rows:
        slack = lhs - rhs
        lines.append(f"{agent},{constraint},{lhs:.12g},{rhs:.12g},{slack:.12g},{str(slack >= -1e-9).lower()}\n")
    return "".join(lines)


class TestInequalityTable:
    """check_constraints and its CSV against the written-out reference loop and writer, bit for bit."""

    @staticmethod
    def bits(rows):
        return [(agent, name, struct.pack("<dd", lhs, rhs)) for agent, name, lhs, rhs in rows]

    @pytest.mark.parametrize("setting", SETTINGS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 251])
    def test_rows_match_reference_loop(self, n, setting):
        rng = np.random.default_rng(1000 + n)
        rules = [threshold_function(n, 0.0), threshold_function(n, 1.0 - n), AnonymousFunction(n, rng.random(n + 1))]
        if n <= 8:
            rules += [DenseFunction(n, rng.random(1 << n)), DenseFunction(n, rng.integers(0, 2, 1 << n))]
        families = ("bn-ic", "iir", "ds-ic", "eir") if setting == "noisy-report" else ("bn-ic", "iir")
        for f in rules:
            for b in ((0.0, 0.45, 1.0) if n <= 8 else (0.45,)):
                p = MechanismParams(n, float(rng.uniform(0.01, 0.49)), b, setting)
                t = rng.normal(size=n + 1)
                tm, tp = induced_interim_pair(t)
                schedules = [TransferSchedule(InterimProfile(np.full(n, tm), np.full(n, tp)), t, setting),
                             TransferSchedule(InterimProfile(rng.normal(size=n), rng.normal(size=n)), None, setting)]
                if f.is_boolean and monotonicity_check(f, "marginally-monotone"):
                    schedules.append(optimal_interim_transfers(f, p))
                for sched in schedules:
                    fams = families if sched.anonymous_expost is not None else ("bn-ic", "iir")
                    for which in (fams, fams[::-1]):
                        got = check_constraints(f, sched, p, which)
                        want = reference_constraint_rows(f, sched, p, which)
                        assert got.rows.dtype == ROW_DTYPE
                        assert self.bits(named_rows(got)) == self.bits(want)
                        assert csv_text(got) == reference_csv(want)

    def test_csv_edge_values(self):
        below = -np.nextafter(1e-9, 1.0)  # the first slack below -1e-9
        rows = [(0, "bn-ic-high", 0.0, -0.0), (0, "bn-ic-low", -0.0, 0.0), (0, "iir-high", -0.0, -0.0),
                (1, "iir-low", 5e-324, 0.0), (1, "ds-ic-high", -5e-324, 0.0), (1, "ds-ic-low", 1e-300, -1e-300),
                (2, "eir-high", 1e20, -1e20), (2, "eir-low", -1e20, 1.0),
                (3, "bn-ic-high", 0.0, 1e-9), (3, "bn-ic-low", 0.0, -below), (3, "iir-high", 1.0, 1.0 + 1e-9)]
        report = report_of(rows)
        text = csv_text(report)
        assert text == reference_csv(rows)
        assert [line.rsplit(",", 2)[1:] for line in text.splitlines()[-3:]] == [
            ["-1e-09", "true"], ["-1e-09", "false"], ["-1.00000008274e-09", "false"]]
        assert text.splitlines()[1:3] == ["0,bn-ic-high,0,-0,0,true", "0,bn-ic-low,-0,0,-0,true"]
        assert not report.ok
        assert report.slack("bn-ic-low").tolist() == [-0.0, below]

    def test_csv_chunk_boundaries(self, monkeypatch):
        from noisemech import mechanism

        rng = np.random.default_rng(5)
        rows = [(i // 2, ("iir-high", "iir-low")[i % 2], *rng.normal(size=2)) for i in range(11)]
        want = reference_csv(rows)
        for chunk in (1, 2, 3, 10, 11, 12):
            monkeypatch.setattr(mechanism, "_CSV_CHUNK", chunk)
            assert csv_text(report_of(rows)) == want
        assert csv_text(ConstraintReport(np.array([], ROW_DTYPE), ())) == "agent,constraint,lhs,rhs,slack,pass\n"


    def test_csv_tells_signed_zeros_apart(self, monkeypatch):
        # rows that compare equal as floats but print differently must not share a formatted tail
        from noisemech import mechanism

        pairs = [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (-0.0, -0.0)] * 2
        rows = [(i, name, lhs, rhs) for i, (lhs, rhs) in enumerate(pairs) for name in ("iir-low", "bn-ic-low")]
        want = reference_csv(rows)
        assert len(set(want.splitlines()[1:5])) == 4
        for chunk in (1, 3, 1 << 16):
            monkeypatch.setattr(mechanism, "_CSV_CHUNK", chunk)
            assert csv_text(report_of(rows)) == want

    def test_csv_write_memory_is_bounded(self, tmp_path):
        # the CSV is streamed to the file: the write holds one chunk's rows, never the whole text
        n = 100_000
        f, p = threshold_function(n, 0.0), MechanismParams(n, 0.2, 0.0)
        report = check_constraints(f, optimal_interim_transfers(f, p), p, ("bn-ic", "iir"))
        path = tmp_path / "report.csv"
        tracemalloc.start()
        try:
            with open(path, "w") as out:
                report.write_csv(out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(report.rows) == 4 * n
        assert peak <= 8 * 2**20, peak / 2**20
        assert path.read_text() == reference_csv(named_rows(report))


def test_expost_families_evaluated_once_per_anonymous_rule(monkeypatch):
    # every agent of an anonymous rule sees the same contexts, so each family is one evaluation
    from noisemech import mechanism

    calls, original = [], mechanism._inequalities

    def counting(fam, *args):
        calls.append(fam)
        return original(fam, *args)

    monkeypatch.setattr(mechanism, "_inequalities", counting)
    f, p = threshold_function(251, 3.0), MechanismParams(251, 0.2, 0.4)
    report = check_constraints(f, optimal_interim_transfers(f, p), p, ("ds-ic", "eir"))
    assert calls == ["ds-ic", "eir"]
    assert len(report.rows) == 4 * 251 and len(set(report.rows[["constraint", "lhs", "rhs"]].tolist())) == 4


class TestPropositions:
    def test_noise_monotonicity_of_implementability(self):
        # mechanisms feasible at delta stay feasible at smaller delta
        from noisemech.mechanism import TransferSchedule
        p_hi = MechanismParams(4, 0.3, b=0.0)
        for f in enumerate_marg_monotone(4, limit=400, seed=5):
            sched = optimal_interim_transfers(f, p_hi)
            assert check_constraints(f, sched, p_hi, ("bn-ic", "iir")).ok
            sched_relaxed = TransferSchedule(sched.interim, None, "noisy-report")
            for d in (0.2, 0.1, 0.05):
                p_lo = MechanismParams(4, d, b=0.0)
                assert check_constraints(f, sched_relaxed, p_lo, ("bn-ic", "iir")).ok

    def test_revenue_and_surplus_affine_nonincreasing(self):
        rng = np.random.default_rng(77)
        deltas = np.arange(0.05, 0.46, 0.1)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            vals = (rng.random(1 << n) < 0.5).astype(float)
            pts = np.arange(1 << n)
            # flip coordinates with negative degree-1 weight to force implementability
            f0 = DenseFunction(n, vals)
            d1 = f0.degree1()
            perm = pts.copy()
            for i in np.nonzero(d1 < 0)[0]:
                perm ^= 1 << int(i)
            f = DenseFunction(n, vals[perm])
            revs = [revenue(f, MechanismParams(n, float(d), b=0.4)) for d in deltas]
            surps = [surplus(f, MechanismParams(n, float(d), b=0.4)) for d in deltas]
            for series in (revs, surps):
                second = np.diff(series, 2)
                assert np.abs(second).max() <= 1e-10
                assert all(a >= b - 1e-12 for a, b in zip(series, series[1:]))

    def test_high_type_iir_implied(self):
        # whenever low-type IIR and high-type BN-IC hold, high-type IIR holds
        rng = np.random.default_rng(123)
        for _ in range(500):
            fm, fp = np.sort(rng.random(2))
            b = float(rng.random())
            d = float(rng.uniform(0.01, 0.49))
            tm, tp = rng.normal(size=2)
            bnic_high = (b + 1) / 2 * (fp - fm) - (tp - tm) >= 0
            iir_low = (b - 1) / 2 * (d * fp + (1 - d) * fm) - (d * tp + (1 - d) * tm) >= 0
            if bnic_high and iir_low:
                iir_high = (b + 1) / 2 * ((1 - d) * fp + d * fm) - ((1 - d) * tp + d * tm)
                assert iir_high >= -1e-12


class TestValueCoefficients:
    def test_settings(self):
        noisy = MechanismParams(5, 0.1, b=0.4)
        assert noisy.value_coefs == (-0.3, 0.7)
        assert noisy.mean_coef == -0.3
        imperfect = MechanismParams(5, 0.1, b=0.4, setting="imperfect-knowledge")
        assert imperfect.value_coefs == pytest.approx((-0.2, 0.6), abs=1e-15)
        assert imperfect.mean_coef == imperfect.value_coefs[0]
