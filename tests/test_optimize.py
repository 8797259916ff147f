import math

import numpy as np
import pytest

from noisemech.gaussian import INV_SQRT_2PI, alpha_limit, ltf_ns_asymptotic
from noisemech.hypercube import AnonymousFunction, monotonicity_check, popcounts, threshold_function, walsh
from noisemech.mechanism import SETTINGS, MechanismParams
from noisemech.noise import sensitivity_exact
from noisemech import optimize
from noisemech.optimize import (
    InfeasibleTargetError,
    OracleResult,
    majority_curve,
    frontier_csv,
    min_bias_threshold,
    ns_min_bruteforce,
    pareto_frontier,
    revenue_max_threshold,
    surplus_max_threshold,
    threshold_ns_table,
    threshold_table,
)


class TestRevenueMaxThreshold:
    def test_noise_free_limit(self):
        # formulas evaluated at vanishing noise: printed cutoff 2, pointwise 1/2
        res = revenue_max_threshold(MechanismParams(3, 1e-9, b=0.0))
        assert res.tau_closed_form == pytest.approx(2.0, abs=1e-6)
        assert res.tau_pointwise == pytest.approx(0.5, abs=1e-6)
        assert res.finite_opt_nu == 1

    def test_divergence_near_half(self):
        res = revenue_max_threshold(MechanismParams(3, 0.499999, b=0.0))
        assert res.tau_closed_form > 1e5
        assert res.tau_pointwise > 1e5

    def test_large_n_approaches_majority_revenue(self):
        res = revenue_max_threshold(MechanismParams(101, 0.1, b=0.0))
        assert abs(res.finite_opt_nu) / math.sqrt(101) <= 0.2
        assert res.finite_opt_revenue_normalized == pytest.approx(INV_SQRT_2PI, abs=0.05)

    def test_b_one_degenerate(self):
        res = revenue_max_threshold(MechanismParams(3, 0.1, b=1.0))
        assert res.tau_closed_form is None
        assert res.note is not None
        assert res.tau_pointwise == 0.0
        assert res.finite_opt_nu == 1

    def test_ties_judged_on_normalized_revenue(self):
        # at 1-2 delta = 2e-13 every absolute revenue lies within the 1e-12 tie
        # tolerance, while normalized revenue stays O(1)
        res = revenue_max_threshold(MechanismParams(101, 0.4999999999999, b=0.0))
        assert abs(res.finite_opt_revenue_normalized) <= 1e-11
        res = revenue_max_threshold(MechanismParams(101, 0.4999999999999, b=1.0))
        assert res.finite_opt_nu == 1

    def test_size_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(optimize, "MAX_ANONYMOUS_N", 10)
        assert revenue_max_threshold(MechanismParams(10, 0.1)).tau_pointwise == 0.625
        with pytest.raises(ValueError, match="limited to n <= 10"):
            revenue_max_threshold(MechanismParams(11, 0.1))

    def test_finite_opt_matches_scan(self):
        params = MechanismParams(9, 0.2, b=0.3)
        res = revenue_max_threshold(params)
        table = threshold_table(params)
        assert res.finite_opt_revenue == pytest.approx(float(table.revenue.max()), abs=1e-14)


class TestSurplusMaxThreshold:
    def test_asymptotic_majority_endpoint(self):
        pt = surplus_max_threshold(MechanismParams(10, 0.1, b=0.5), INV_SQRT_2PI, "asymptotic")
        assert pt.threshold == pytest.approx(0.0, abs=1e-9)
        assert pt.revenue_normalized == pytest.approx(INV_SQRT_2PI, abs=1e-12)

    def test_asymptotic_r03(self):
        pt = surplus_max_threshold(MechanismParams(10, 0.1, b=0.5), 0.3, "asymptotic")
        assert pt.threshold == pytest.approx(-0.7550288353715551, abs=1e-9)
        assert pt.ns == pytest.approx(ltf_ns_asymptotic(0.3, 0.1), abs=1e-12)

    def test_finite_n100(self):
        # exact exhaustive search; the integer optimum sits above the
        # asymptotic cutoff -7.55 because the finite binomial tail and the
        # bias term tighten the revenue constraint at n = 100
        pt = surplus_max_threshold(MechanismParams(100, 0.1, b=0.5), 0.3)
        assert pt.regime == "finite"
        assert pt.threshold == -4
        assert pt.revenue_normalized >= 0.3 - 1e-9

    def test_finite_cutoff_converges(self):
        xs = []
        for n in (100, 200, 400):
            pt = surplus_max_threshold(MechanismParams(n, 0.1, b=0.5), 0.3)
            xs.append(pt.threshold / math.sqrt(n))
        assert xs == pytest.approx([-0.4, -8 / math.sqrt(200), -0.6], abs=1e-12)
        errs = [abs(x - (-0.7550288353715551)) for x in xs]
        assert errs[0] > errs[1] > errs[2]

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            surplus_max_threshold(MechanismParams(10, 0.25, b=0.0), 0.39)

    def test_rejects_out_of_range_r(self):
        with pytest.raises(ValueError):
            surplus_max_threshold(MechanismParams(10, 0.25, b=0.0), 0.5)


class TestMinBiasThreshold:
    def test_asymptotic_majority_endpoint(self):
        pt = min_bias_threshold(MechanismParams(10, 0.1, b=0.5), INV_SQRT_2PI, "asymptotic")
        assert pt.threshold == pytest.approx(0.0, abs=1e-9)
        assert pt.mean == pytest.approx(0.5, abs=1e-9)

    def test_asymptotic_r03(self):
        pt = min_bias_threshold(MechanismParams(10, 0.1, b=0.5), 0.3, "asymptotic")
        assert pt.threshold == pytest.approx(0.7550288353715551, abs=1e-9)
        assert pt.mean == pytest.approx(alpha_limit(0.3), abs=1e-12)

    def test_finite_n100_near_limit(self):
        pt = min_bias_threshold(MechanismParams(100, 0.1, b=0.5), 0.3)
        assert pt.mean == pytest.approx(alpha_limit(0.3), abs=0.02)
        # fractional weight keeps the LP mean between the two integer cutoffs
        table = threshold_table(MechanismParams(100, 0.1, b=0.5))
        j = int((pt.threshold + 100) // 2)
        assert table.mean[j + 1] - 1e-12 <= pt.mean <= table.mean[j] + 1e-12

    def test_lp_mean_below_integer_threshold_mean(self):
        params = MechanismParams(60, 0.2, b=0.0)
        pt = min_bias_threshold(params, 0.2)
        table = threshold_table(params)
        feas = table.feasible_indices(0.2)
        assert pt.mean <= float(table.mean[feas].min()) + 1e-12

    def test_infeasible_target(self):
        with pytest.raises(InfeasibleTargetError):
            min_bias_threshold(MechanismParams(10, 0.25, b=0.0), 0.39)


class TestNsMinBruteforce:
    R_N2 = 0.25 / (0.8 * math.sqrt(2))  # unnormalized target 0.25 at n=2, delta=0.1

    def test_n2_unique_feasible_conjunction(self):
        res = ns_min_bruteforce(MechanismParams(2, 0.1, b=0.0), self.R_N2, "all-boolean")
        assert res.feasible_count == 1
        assert res.min_ns == pytest.approx(0.095, abs=1e-12)
        assert res.argmin_functions == (8,)  # truth table 1000: one only at (+1, +1)
        assert res.ltf_gap == pytest.approx(0.0, abs=1e-12)
        assert res.best_ltf_threshold == 2

    @pytest.mark.parametrize("scope", ["all-boolean", "anonymous"])
    def test_mirror_cutoffs_tie_to_smallest_threshold(self, scope):
        # OR and AND of two votes have one noise sensitivity; the smaller cutoff wins the tie
        res = ns_min_bruteforce(MechanismParams(2, 0.2, b=0.3), 0.001, scope)
        assert res.best_ltf_threshold == 0
        assert res.best_ltf_ns == pytest.approx(0.18, abs=1e-12)

    def test_no_feasible_cutoff(self):
        # only the all-zero rule reaches r = 1e-13: every cutoff's revenue is negative
        res = ns_min_bruteforce(MechanismParams(1, 0.4, b=0.0), 1e-13, "all-boolean")
        assert (res.feasible_count, res.min_ns, res.argmin_functions) == (1, 0.0, (0,))
        assert math.isnan(res.best_ltf_ns) and math.isnan(res.ltf_gap) and res.best_ltf_threshold is None

    def test_n2_anonymous_scope_agrees(self):
        res = ns_min_bruteforce(MechanismParams(2, 0.1, b=0.0), self.R_N2, "anonymous")
        assert res.feasible_count == 1
        assert res.min_ns == pytest.approx(0.095, abs=1e-12)
        assert res.argmin_functions == (4,)  # g = (0, 0, 1)

    def test_r_zero_constants_win(self):
        res = ns_min_bruteforce(MechanismParams(2, 0.1, b=0.0), 0.0, "all-boolean")
        assert res.min_ns == 0.0
        assert 0 in res.argmin_functions

    def test_infeasible_reports_zero_count(self):
        res = ns_min_bruteforce(MechanismParams(2, 0.1, b=0.0), 0.39, "all-boolean")
        assert res.feasible_count == 0
        assert math.isnan(res.min_ns)
        assert res.argmin_functions == ()

    def test_scope_limits(self):
        with pytest.raises(ValueError):
            ns_min_bruteforce(MechanismParams(5, 0.1, b=0.0), 0.1, "all-boolean")
        with pytest.raises(ValueError):
            ns_min_bruteforce(MechanismParams(21, 0.1, b=0.0), 0.1, "anonymous")

    def test_sandwich_and_gap_report(self):
        # the global minimum never exceeds the best feasible cutoff rule
        for delta in (0.1, 0.25):
            for b in (0.0, 0.5):
                params = MechanismParams(4, delta, b=b)
                for r in np.arange(0.05, 0.36, 0.05):
                    res = ns_min_bruteforce(params, float(r), "all-boolean")
                    if res.feasible_count == 0:
                        continue
                    assert res.min_ns <= res.best_ltf_ns + 1e-12
                    assert res.ltf_gap >= -1e-12
                    assert res.feasible_count >= len(res.argmin_functions)

    def test_imperfect_setting_also_audited(self):
        params = MechanismParams(4, 0.1, b=0.0, setting="imperfect-knowledge")
        res = ns_min_bruteforce(params, 0.15, "all-boolean")
        assert res.feasible_count > 0
        assert res.min_ns <= res.best_ltf_ns + 1e-12

    def test_scopes_are_consistent(self):
        # anonymous rules are a subset of all rules, so the anonymous minimum
        # can never undercut the dense one; the cutoff audit is shared
        params = MechanismParams(3, 0.2, b=0.3)
        for r in (0.05, 0.15, 0.25):
            dense = ns_min_bruteforce(params, r, "all-boolean")
            anon = ns_min_bruteforce(params, r, "anonymous")
            assert anon.feasible_count <= dense.feasible_count
            if anon.feasible_count:
                assert anon.min_ns >= dense.min_ns - 1e-12
                assert anon.best_ltf_ns == pytest.approx(dense.best_ltf_ns, abs=1e-12)
                assert anon.best_ltf_threshold == dense.best_ltf_threshold


def reference_oracle_dense(params, r):
    """The all-Boolean oracle as one block over all 2^(2^n) truth tables."""
    n = params.n
    size = 1 << n
    count = 1 << size
    pts = np.arange(size, dtype=np.int64)
    pc = popcounts(n)
    nu = 2 * pc - n
    signs = (((pts[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int64)
    vals = ((np.arange(count, dtype=np.int64)[:, None] >> pts[None, :]) & 1).astype(np.int64)
    marg = (vals @ signs >= 0).all(axis=1)
    mean = vals.sum(axis=1) / size
    efnu = (vals @ nu) / size
    coeffs = walsh(vals.astype(np.float64)) / size
    ns = 2 * ((coeffs**2) @ (2 * params.delta * np.append(0.0, np.cumsum(params.rho ** np.arange(n))))[pc])
    revn = (params.rho * efnu + params.mean_coef * mean) / (params.rho * math.sqrt(params.n))
    ltf_ids = [int(((pc >= j).astype(np.int64) << pts).sum()) for j in range(n + 1)]
    feasible = marg & (revn >= r - 1e-12)
    if not feasible.any():
        return OracleResult(math.nan, (), 0, math.nan, math.nan, None)
    min_ns = float(ns[feasible].min())
    argmin = np.nonzero(feasible & (ns <= min_ns + 1e-12))[0]
    feas_ltf = [(2 * j - n, float(ns[fid])) for j, fid in enumerate(ltf_ids) if feasible[fid]]
    best_ltf_ns = min(v for _, v in feas_ltf)
    best_nu = min(nu for nu, v in feas_ltf if v <= best_ltf_ns + 1e-12)
    return OracleResult(min_ns, tuple(int(i) for i in argmin), int(feasible.sum()),
                        best_ltf_ns - min_ns, best_ltf_ns, best_nu)


class TestOracleEnumeration:
    """The chunked oracle against the one-block reference, field for field (repr is bit-exact)."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_small_n_grid(self, n):
        for setting in SETTINGS:
            for delta in (0.01, 0.1, 0.2, 0.25, 0.3, 0.4, 0.49):
                for b in (0.0, 0.3, 0.7, 1.0):
                    params = MechanismParams(n, delta, b, setting)
                    for r in (0.001, 0.05, 0.15, 0.25, 0.35, INV_SQRT_2PI):
                        got = ns_min_bruteforce(params, r, "all-boolean")
                        assert repr(got) == repr(reference_oracle_dense(params, r)), (params, r)

    def test_n4_points(self):
        for params, r in ((MechanismParams(4, 0.1, 0.0), 0.2),
                          (MechanismParams(4, 0.25, 0.5, "imperfect-knowledge"), 0.1)):
            assert repr(ns_min_bruteforce(params, r, "all-boolean")) == repr(reference_oracle_dense(params, r))


class TestDenseOracleStatistics:
    """The all-Boolean oracle enumerates its delta-free statistics once per n."""

    def test_built_once_across_a_sweep(self, monkeypatch):
        calls, original = [], optimize.walsh
        monkeypatch.setattr(optimize, "walsh", lambda g: calls.append(len(g)) or original(g))
        optimize._dense_rule_stats.cache_clear()
        for delta in (0.05, 0.2, 0.4):
            for b in (0.0, 1.0):
                for r in (0.05, 0.2):
                    ns_min_bruteforce(MechanismParams(4, delta, b), r, "all-boolean")
        assert calls == [1 << 14] * 4  # one pass over the 2^16 rules, in blocks of 2^14

    def test_statistics_are_read_only(self):
        for a in optimize._dense_rule_stats(3):
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0

    def test_one_coordinate(self):
        # rules on the points (x = -1, x = +1): 0, the anti-dictator, the dictator and 1
        sums, mean, efnu, marg = optimize._dense_rule_stats(1)
        assert sums.tolist() == [[0, 0], [1, -1], [1, 1], [2, 0]]
        assert mean.tolist() == [0.0, 0.5, 0.5, 1.0]
        assert efnu.tolist() == [0.0, -0.5, 0.5, 0.0]
        assert marg.tolist() == [True, False, True, True]
        for delta in (0.01, 0.1, 0.3, 0.49):
            # at b = 1 revenue has no E[f] term, so the dictator alone reaches r > 0 and its NS is delta
            res = ns_min_bruteforce(MechanismParams(1, delta, 1.0), 0.3, "all-boolean")
            assert res == OracleResult(delta, (2,), 1, 0.0, delta, 1)

    def test_size_limit(self, monkeypatch):
        calls = []
        monkeypatch.setattr(optimize, "_dense_rule_stats", calls.append)
        with pytest.raises(ValueError, match="all-boolean oracle limited to n <= 4"):
            ns_min_bruteforce(MechanismParams(optimize.MAX_ORACLE_DENSE_N + 1, 0.1, 0.0), 0.1, "all-boolean")
        assert calls == []  # rejected before any enumeration


class TestParetoFrontier:
    def test_asymptotic_majority_point(self):
        pts = pareto_frontier(MechanismParams(10, 0.1, b=0.0), [INV_SQRT_2PI], "asymptotic")
        assert pts[0].ns == pytest.approx(0.2048327646991334, abs=1e-9)
        assert pts[0].threshold == pytest.approx(0.0, abs=1e-9)

    def test_asymptotic_small_r_robust(self):
        pts = pareto_frontier(MechanismParams(10, 0.1, b=0.0), [1e-4], "asymptotic")
        assert pts[0].ns <= 1e-3

    def test_low_high_symmetry(self):
        pts = pareto_frontier(MechanismParams(10, 0.2, b=0.0), np.arange(0.02, 0.4, 0.05), "asymptotic")
        for p in pts:
            assert p.ns == pytest.approx(p.ns_high, abs=1e-9)

    def test_monotone_in_r_and_delta(self):
        grid = np.arange(0.02, 0.395, 0.02)
        prev = None
        for d in (0.15, 0.25, 0.35):
            pts = pareto_frontier(MechanismParams(10, d, b=0.0), grid, "asymptotic")
            ns = [p.ns for p in pts]
            assert all(a <= b + 1e-12 for a, b in zip(ns, ns[1:]))
            if prev is not None:
                assert all(a <= b + 1e-12 for a, b in zip(prev, ns))
            prev = ns

    def test_sharper_tradeoff_at_higher_noise(self):
        drops = []
        for d in (0.15, 0.25, 0.35):
            lo = ltf_ns_asymptotic(0.1, d)
            hi = ltf_ns_asymptotic(0.3, d)
            drops.append(hi - lo)
        assert drops[0] < drops[1] < drops[2]

    def test_finite_converges_to_asymptotic(self):
        target = ltf_ns_asymptotic(0.3, 0.25)
        errs = []
        for n in (50, 100, 200):
            pts = pareto_frontier(MechanismParams(n, 0.25, b=0.0), [0.3], "finite")
            errs.append(abs(pts[0].ns - target))
        assert errs[0] > errs[1] > errs[2]

    def test_finite_surplus_dominance_and_feasibility(self):
        params = MechanismParams(200, 0.25, b=0.5)
        table = threshold_table(params)
        for p in pareto_frontier(params, [0.05, 0.15, 0.25, 0.3], "finite"):
            assert p.revenue_normalized >= p.r - 1e-9
            feas = table.feasible_indices(p.r)
            j_lo, j_hi = int(feas[0]), int(feas[-1])
            assert p.threshold == table.nu[j_lo]
            assert table.surplus[j_lo] >= table.surplus[j_hi] - 1e-12

    def test_finite_emits_lowest_feasible_cutoff(self):
        # the emitted cutoff is the feasibility boundary, not the surplus or NS optimum
        p0 = pareto_frontier(MechanismParams(101, 0.1, b=0.0), [0.02], "finite")[0]
        s0 = surplus_max_threshold(MechanismParams(101, 0.1, b=0.0), 0.02)
        assert (p0.threshold, s0.threshold) == (-15, 1)
        assert p0.surplus_per_capita == pytest.approx(0.00446, abs=5e-6)
        assert s0.surplus_per_capita == pytest.approx(0.01592, abs=5e-6)
        assert p0.ns_high < p0.ns
        # at b = 1 every vote count adds surplus, so the lowest feasible cutoff is the surplus optimum
        p1 = pareto_frontier(MechanismParams(101, 0.1, b=1.0), [0.02], "finite")[0]
        s1 = surplus_max_threshold(MechanismParams(101, 0.1, b=1.0), 0.02)
        assert (p1.threshold, p1.surplus_per_capita, p1.ns) == (s1.threshold, s1.surplus_per_capita, s1.ns)

    def test_finite_skips_infeasible_points(self):
        params = MechanismParams(50, 0.25, b=0.0)
        with pytest.warns(UserWarning):
            pts = pareto_frontier(params, [0.1, 0.39], "finite")
        assert len(pts) == 1


class TestMajorityCurve:
    def test_zero_noise_point(self):
        pts = majority_curve(101, [0.0])
        assert pts[0].ns <= 1e-9

    def test_asymptotic_endpoints(self):
        pts = majority_curve(None, [0.0, 0.5])
        assert pts[0].ns == 0.0
        assert pts[0].r == pytest.approx(INV_SQRT_2PI, abs=1e-12)
        assert pts[1].ns == pytest.approx(0.5, abs=1e-12)
        assert pts[1].r == pytest.approx(0.0, abs=1e-12)

    def test_n101_close_to_asymptote(self):
        pts = majority_curve(101, [0.1])
        assert pts[0].ns == pytest.approx(0.2048327646991334, abs=0.05)
        assert pts[0].ns == pytest.approx(
            sensitivity_exact(threshold_function(101, 0), 0.1), abs=1e-12
        )

    def test_rejects_bad_grid(self):
        with pytest.raises(ValueError):
            majority_curve(11, [0.6])

    def test_gap_to_sheppard_shrinks_like_one_over_n(self):
        # each 4x step in odd n shrinks the gap about 4x: rate 1/n, not 1/sqrt(n)
        for d in (0.05, 0.3):
            gaps = [threshold_ns_table(n, d)[(n + 1) // 2] - math.acos(1 - 2 * d) / math.pi
                    for n in (101, 401, 1601)]
            assert all(3.8 <= a / b <= 4.3 for a, b in zip(gaps, gaps[1:])), (d, gaps)


class TestMajorityRevenueRate:
    """The majority's normalized revenue at b = 1, r_n = E[nu+]/sqrt(n), against its limit 1/sqrt(2 pi)."""

    @staticmethod
    def r(n):
        table = threshold_table(MechanismParams(n, 0.1, b=1.0))
        return table.revenue_normalized[np.searchsorted(table.nu, 1)]  # 1{nu > 0}; a tie nu = 0 adds nothing

    @pytest.mark.parametrize("n", [1, 2, 3, 10, 11, 100, 101, 1000, 1001, 10**4, 10**5 + 1, 10**6])
    def test_berry_esseen(self, n):
        assert abs(self.r(n) - INV_SQRT_2PI) <= 0.4748 / math.sqrt(n)

    @pytest.mark.parametrize("n", [100, 101, 1000, 1001, 10**4, 10**5 + 1, 10**6])
    def test_error_is_one_over_4_sqrt_2pi_n(self, n):
        # the sharper rate: n |r_n - 1/sqrt(2 pi)| -> 1/(4 sqrt(2 pi)), above the limit for odd n, below for even
        err = self.r(n) - INV_SQRT_2PI
        assert n * abs(err) == pytest.approx(INV_SQRT_2PI / 4, rel=0.03)
        assert (err > 0) == (n % 2 == 1)


class TestStructuralInvariants:
    def test_monotone_anonymous_boolean_is_threshold(self):
        # so constrained minima over monotone anonymous rules come from cutoff search
        for n in (3, 8, 12):
            for gid in range(1 << (n + 1)):
                g = np.array([(gid >> m) & 1 for m in range(n + 1)], dtype=float)
                f = AnonymousFunction(n, g)
                if monotonicity_check(f, "monotone"):
                    ones = np.nonzero(g)[0]
                    if ones.size:
                        j = ones[0]
                        assert np.all(g[j:] == 1.0) and np.all(g[:j] == 0.0)

    def test_threshold_ns_table_matches_direct(self):
        n, d = 9, 0.2
        ns = threshold_ns_table(n, d)
        for j in (0, 3, 5, 9):
            g = np.zeros(n + 1)
            g[j:] = 1.0
            assert ns[j] == pytest.approx(sensitivity_exact(AnonymousFunction(n, g), d), abs=1e-12)

    def test_alpha_n_convergence(self):
        errs = []
        for n in (50, 100, 200, 400):
            pt = min_bias_threshold(MechanismParams(n, 0.1, b=0.0), 0.3)
            errs.append(abs(pt.mean - alpha_limit(0.3)))
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert errs[-1] <= 0.05


class TestCsvEmission:
    def test_frontier_header_and_digits(self):
        pts = pareto_frontier(MechanismParams(10, 0.1, b=0.0), [0.3989], "asymptotic")
        text = frontier_csv(pts)
        lines = text.strip().splitlines()
        assert lines[0] == "regime,n,delta,b,r,threshold,ns,surplus_per_capita,revenue_normalized"
        assert lines[1].startswith("asymptotic,inf,0.1,0,0.3989,")

    def test_majority_csv_schema(self):
        text = frontier_csv(majority_curve(101, [0.0, 0.25, 0.5]) + majority_curve(None, [0.25]))
        lines = text.strip().splitlines()
        assert lines[0] == "regime,n,delta,b,r,threshold,ns,surplus_per_capita,revenue_normalized"
        assert len(lines) == 5
        assert [line.split(",")[:2] for line in lines[1:]] == [["finite", "101"]] * 3 + [["asymptotic", "inf"]]
        assert all(line.split(",")[3:6:2] == ["1", "0"] for line in lines[1:])  # b and threshold


class TestOneCutoffEngine:
    @pytest.mark.parametrize("delta", [0.05, 0.3])
    def test_cutoff_ns_agrees_across_paths(self, delta):
        # sensitivity_exact, the ns table and the majority curve read NS from
        # one joint law with one identity, so they agree to rounding
        n = 301
        j0 = (n + 1) // 2
        table = threshold_ns_table(n, delta)
        for j in (0, 1, 60, 120, 148, j0 - 1, j0, j0 + 1, 180, 240, n):
            direct = sensitivity_exact(threshold_function(n, 2 * j - n), delta)
            assert abs(direct - table[j]) <= 5e-15, j
        assert abs(majority_curve(n, [delta])[0].ns - table[j0]) <= 5e-15

    @staticmethod
    def _greedy_min_bias(params, r):
        """The former fill loop: highest vote counts first, fractional at the boundary."""
        w = np.array([math.comb(params.n, m) / 2**params.n for m in range(params.n + 1)])
        nu = 2.0 * np.arange(params.n + 1) - params.n
        cell = (params.rho * nu + params.mean_coef) * w / (params.rho * math.sqrt(params.n))
        filled = mean = 0.0
        for j in range(params.n, -1, -1):
            if cell[j] <= 0.0:
                return None
            if filled + cell[j] >= r - 1e-12:
                return j, mean + min(1.0, max(0.0, (r - filled) / cell[j])) * w[j]
            filled += cell[j]
            mean += w[j]
        return None

    def test_min_bias_matches_greedy_fill(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            setting = str(rng.choice(["noisy-report", "imperfect-knowledge"]))
            params = MechanismParams(int(rng.integers(1, 250)), float(rng.uniform(0.02, 0.45)),
                                     float(rng.uniform(0.0, 1.0)), setting)
            r = float(rng.uniform(0.01, INV_SQRT_2PI))
            want = self._greedy_min_bias(params, r)
            if want is None:
                with pytest.raises(InfeasibleTargetError):
                    min_bias_threshold(params, r)
                continue
            pt = min_bias_threshold(params, r)
            assert pt.threshold == 2 * want[0] - params.n
            assert pt.mean == pytest.approx(want[1], rel=1e-11, abs=1e-14)
