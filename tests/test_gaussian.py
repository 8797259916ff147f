import math
from decimal import Context, Decimal

import numpy as np
import pytest

from noisemech.gaussian import (
    INV_SQRT_2PI,
    alpha_limit,
    binormal_cdf,
    ltf_ns_asymptotic,
    majority_asymptotics,
    norm_cdf,
    norm_ccdf,
    norm_pdf,
    norm_quantile,
    phi_inv_plus,
    privacy_convert,
)


def bisect_inverse(func, target, lo, hi, iters=200):
    """Plain bisection oracle, independent of the Newton-accelerated path."""
    flo = func(lo) - target
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fmid = func(mid) - target
        if (fmid > 0) == (flo > 0):
            lo, flo = mid, fmid
        else:
            hi = mid
        if hi - lo < 1e-14:
            break
    return 0.5 * (lo + hi)


def binormal_2d_oracle(t1, t2, rho, span=8.5, nodes=160):
    """Tensor Gauss-Legendre quadrature of the bivariate density over the box."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (t1 + span) * (x + 1) - span
    wu = 0.5 * (t1 + span) * w
    v = 0.5 * (t2 + span) * (x + 1) - span
    wv = 0.5 * (t2 + span) * w
    uu, vv = np.meshgrid(u, v, indexing="ij")
    det = 1 - rho * rho
    pdf = np.exp(-(uu * uu - 2 * rho * uu * vv + vv * vv) / (2 * det)) / (2 * math.pi * math.sqrt(det))
    return float(np.einsum("i,j,ij->", wu, wv, pdf))


class TestScalars:
    def test_cdf_at_zero(self):
        assert norm_cdf(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_pdf_at_zero(self):
        assert norm_pdf(0.0) == pytest.approx(INV_SQRT_2PI, abs=1e-15)
        assert norm_pdf(0.0) == pytest.approx(0.3989422804014327, abs=1e-12)

    def test_quantile_known_value(self):
        assert norm_quantile(0.975) == pytest.approx(1.959963984540054, abs=1e-10)

    def test_quantile_against_bisection(self):
        for p in (0.001, 0.1, 0.5, 0.77, 0.999):
            oracle = bisect_inverse(norm_cdf, p, -10.0, 10.0)
            assert norm_quantile(p) == pytest.approx(oracle, abs=1e-10)

    def test_quantile_round_trip(self):
        for x in (-3.0, -0.5, 0.0, 1.7, 4.0):
            assert norm_quantile(norm_cdf(x)) == pytest.approx(x, abs=1e-10)

    def test_quantile_rejects_endpoints(self):
        for p in (0.0, 1.0):
            with pytest.raises(ValueError):
                norm_quantile(p)

    def test_quantile_rejects_nan(self):
        with pytest.raises(ValueError):
            norm_quantile(math.nan)

    @pytest.mark.parametrize("p", [1e-300, 1e-200, 1e-100, 1e-20, 0.5, 1.0 - 1e-12])
    def test_quantile_far_tails(self, p):
        assert norm_cdf(norm_quantile(p)) / p == pytest.approx(1.0, abs=1e-12)

    def test_cdf_ccdf_complement(self):
        for x in np.arange(-5, 5.1, 0.5):
            assert norm_cdf(x) + norm_ccdf(x) == pytest.approx(1.0, abs=1e-14)


class TestPhiInvPlus:
    def test_density_maximum(self):
        assert phi_inv_plus(INV_SQRT_2PI) == pytest.approx(0.0, abs=1e-12)

    def test_at_pdf_of_one(self):
        assert phi_inv_plus(norm_pdf(1.0)) == pytest.approx(1.0, abs=1e-12)

    def test_r_03_against_bisection(self):
        oracle = bisect_inverse(lambda t: -norm_pdf(t), -0.3, 0.0, 6.0)
        assert oracle == pytest.approx(0.7550288353, abs=1e-9)
        assert phi_inv_plus(0.3) == pytest.approx(oracle, abs=1e-12)

    def test_round_trip_grid(self):
        for r in np.linspace(1e-6, INV_SQRT_2PI, 25):
            assert norm_pdf(phi_inv_plus(float(r))) == pytest.approx(r, abs=1e-10)

    def test_out_of_range(self):
        for r in (0.0, -0.1, 0.5):
            with pytest.raises(ValueError):
                phi_inv_plus(r)


class TestBinormal:
    def test_orthant_identity_grid(self):
        for rho in np.arange(-0.9, 0.95, 0.1):
            expected = 0.25 + math.asin(rho) / (2 * math.pi)
            assert binormal_cdf(0.0, 0.0, float(rho)) == pytest.approx(expected, abs=1e-10)

    def test_orthant_08(self):
        assert binormal_cdf(0.0, 0.0, 0.8) == pytest.approx(0.3975836176504333, abs=1e-10)

    def test_independence(self):
        for t1, t2 in ((0.3, -1.2), (2.0, 0.0)):
            assert binormal_cdf(t1, t2, 0.0) == pytest.approx(norm_cdf(t1) * norm_cdf(t2), abs=1e-12)

    def test_perfect_correlation(self):
        for t in (-1.0, 0.2, 2.5):
            assert binormal_cdf(t, t, 1.0) == pytest.approx(norm_cdf(t), abs=1e-14)

    def test_against_2d_quadrature(self):
        cases = [(0.5, -1.2, 0.8), (-0.755, -0.755, 0.8), (1.5, 2.0, -0.6),
                 (0.0, 0.3, 0.3), (-2.0, 1.0, 0.95)]
        for t1, t2, rho in cases:
            assert binormal_cdf(t1, t2, rho) == pytest.approx(
                binormal_2d_oracle(t1, t2, rho), abs=1e-10
            )

    def test_arccos_identity(self):
        for rho in np.arange(-0.9, 0.95, 0.1):
            lhs = 2 * (0.5 - binormal_cdf(0.0, 0.0, float(rho)))
            assert lhs == pytest.approx(math.acos(rho) / math.pi, abs=1e-10)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            binormal_cdf(0.0, 0.0, 1.5)


class TestMajorityAsymptotics:
    def test_no_noise(self):
        res = majority_asymptotics(0.0, 100)
        assert res.ns == 0.0

    def test_full_noise(self):
        res = majority_asymptotics(0.5, 100)
        assert res.ns == pytest.approx(0.5, abs=1e-14)
        assert res.revenue == pytest.approx(0.0, abs=1e-14)

    def test_delta_01(self):
        res = majority_asymptotics(0.1, 101)
        assert res.ns == pytest.approx(math.acos(0.8) / math.pi, abs=1e-14)
        assert res.ns == pytest.approx(0.2048327646991334, abs=1e-12)
        # cross-check through the bivariate route
        assert res.ns == pytest.approx(2 * (norm_cdf(0.0) - binormal_cdf(0.0, 0.0, 0.8)), abs=1e-10)
        assert res.revenue == pytest.approx(0.8 * math.sqrt(101 / (2 * math.pi)), abs=1e-12)
        assert res.revenue_normalized == pytest.approx(INV_SQRT_2PI, abs=1e-15)


class TestLtfNsAsymptotic:
    def test_majority_endpoint(self):
        for d in (0.05, 0.2, 0.45):
            assert ltf_ns_asymptotic(INV_SQRT_2PI, d) == pytest.approx(
                majority_asymptotics(d, 1).ns, abs=1e-9
            )

    def test_vanishes_for_small_r(self):
        assert ltf_ns_asymptotic(1e-12, 0.2) <= 1e-9

    def test_against_owens_t(self):
        """NS = 4 T(t, sqrt(delta / (1 - delta))), with Owen's T on 200 nodes in long double."""
        x, w = (np.asarray(a, dtype=np.longdouble) for a in np.polynomial.legendre.leggauss(200))

        def owens_t(h, a):
            u = a / 2 * (x + 1)
            return a / 2 * np.sum(w * np.exp(-h * h * (1 + u * u) / 2) / (1 + u * u)) / (2 * np.pi)

        worst = 0.0
        for d in (1e-6, 1e-4, 1e-3, 0.01, 0.1, 0.3, 0.45, 0.49):
            ld = np.longdouble(d)
            for r in (0.01, 0.1, 0.2, 0.3, 0.39, INV_SQRT_2PI):
                want = 4 * owens_t(np.longdouble(phi_inv_plus(r)), np.sqrt(ld / (1 - ld)))
                worst = max(worst, float(abs(ltf_ns_asymptotic(r, d) - want) / want))
            # majority: Sheppard's arccos(1 - 2 delta)/pi, taken as 2 asin(sqrt(delta))/pi to avoid cancellation
            sheppard = 2 * np.arcsin(np.sqrt(ld)) / np.pi
            for ns in (ltf_ns_asymptotic(INV_SQRT_2PI, d), majority_asymptotics(d, 1).ns):
                worst = max(worst, float(abs(ns - sheppard) / sheppard))
        assert worst <= 1e-14

    def test_r03_value_from_oracle(self):
        t = phi_inv_plus(0.3)
        expected = 2 * (norm_cdf(-t) - binormal_2d_oracle(-t, -t, 0.8))
        assert ltf_ns_asymptotic(0.3, 0.1) == pytest.approx(expected, abs=1e-10)

    def test_nonincreasing_as_delta_shrinks(self):
        for r in (0.05, 0.2, 0.35):
            vals = [ltf_ns_asymptotic(r, float(d)) for d in np.arange(0.05, 0.5, 0.05)]
            assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            ltf_ns_asymptotic(0.5, 0.1)


class TestAlphaLimit:
    def test_at_density_maximum(self):
        assert alpha_limit(INV_SQRT_2PI) == pytest.approx(0.5, abs=1e-12)

    def test_at_pdf_of_one(self):
        assert alpha_limit(norm_pdf(1.0)) == pytest.approx(norm_ccdf(1.0), abs=1e-12)
        assert alpha_limit(norm_pdf(1.0)) == pytest.approx(0.15865525393145702, abs=1e-10)

    def test_r03(self):
        assert alpha_limit(0.3) == pytest.approx(norm_ccdf(0.7550288353715551), abs=1e-10)
        assert alpha_limit(0.3) == pytest.approx(0.2251158, abs=1e-6)


class TestPrivacyConvert:
    def test_ln3_quarter(self):
        assert privacy_convert("eps_to_delta", math.log(3.0)) == pytest.approx(0.25, abs=1e-14)

    def test_round_trip(self):
        assert privacy_convert("delta_to_eps", privacy_convert("eps_to_delta", 2.0)) == pytest.approx(
            2.0, abs=1e-12
        )

    def test_large_eps_small_delta(self):
        assert privacy_convert("eps_to_delta", 40.0) < 1e-15

    def test_finite_at_the_extremes(self):
        # e^1000 and (1 - delta)/delta at a subnormal delta overflow a double
        assert privacy_convert("eps_to_delta", 1000.0) == 0.0
        assert privacy_convert("delta_to_eps", 1e-320) == pytest.approx(736.827240891, rel=1e-11, abs=0)
        assert privacy_convert("delta_to_eps", 5e-324) == pytest.approx(-math.log(5e-324), rel=1e-15, abs=0)

    @pytest.mark.parametrize("delta", [0.3, 0.4999, 0.4999999999, 0.4999999999999987])
    def test_delta_to_eps_near_one_half(self, delta):
        # eps -> 0 here, so a difference of two logs near -log 2 would lose its leading digits
        ctx = Context(prec=60)  # the default 28 digits would round 1 - delta
        exact = ctx.ln(ctx.divide(ctx.subtract(1, Decimal(delta)), Decimal(delta)))
        assert privacy_convert("delta_to_eps", delta) == pytest.approx(float(exact), rel=1e-15, abs=0)

    @pytest.mark.parametrize("eps", [0.1, 1.0, 1.0986, 3.0, 10.0, 50.0])
    def test_eps_to_delta_matches_direct_form(self, eps):
        assert privacy_convert("eps_to_delta", eps) == pytest.approx(1.0 / (1.0 + math.exp(eps)), rel=1e-15, abs=0)

    @pytest.mark.parametrize("delta", [0.01, 0.1, 0.25, 0.4999, 1e-10])
    def test_delta_to_eps_matches_direct_form(self, delta):
        assert privacy_convert("delta_to_eps", delta) == pytest.approx(math.log((1.0 - delta) / delta), rel=1e-12, abs=0)

    def test_rejects_out_of_model(self):
        with pytest.raises(ValueError):
            privacy_convert("eps_to_delta", 0.0)
        with pytest.raises(ValueError):
            privacy_convert("delta_to_eps", 0.5)
        with pytest.raises(ValueError):
            privacy_convert("sideways", 0.1)
