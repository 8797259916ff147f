import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisemech.hypercube import (
    MAX_ANONYMOUS_N,
    AnonymousFunction,
    DenseFunction,
    build_function,
    binomial_weights,
    fourier_transform,
    half_split,
    influence,
    influences,
    inverse_fourier,
    majority_function,
    monotonicity_check,
    popcounts,
    threshold_function,
)


def brute_coeff(values, n, mask):
    """E[f chi_S] by direct summation over all points."""
    total = 0.0
    for k in range(1 << n):
        chi = 1.0
        for i in range(n):
            if (mask >> i) & 1:
                chi *= 1.0 if (k >> i) & 1 else -1.0
        total += values[k] * chi
    return total / (1 << n)


class TestBuildFunction:
    def test_threshold_majority(self):
        f = build_function("kind=threshold\nn=3\ntheta=0")
        assert isinstance(f, AnonymousFunction)
        assert f.g.tolist() == [0, 0, 1, 1]

    def test_dense_dictator(self):
        f = build_function("kind=dense\nn=1\nvalues=0,1")
        assert isinstance(f, DenseFunction)
        assert f.values.tolist() == [0, 1]

    def test_anonymous_or(self):
        f = build_function("kind=anonymous\nn=2\ng=0,1,1")
        assert f.g.tolist() == [0, 1, 1]

    def test_comments_and_whitespace(self):
        f = build_function("# the majority rule\n kind = threshold \n\nn=3\ntheta = 0 # cutoff")
        assert f.g.tolist() == [0, 0, 1, 1]

    @pytest.mark.parametrize("text", [
        "kind=banana\nn=2\ng=0,1,1",
        "kind=dense\nvalues=0,1",
        "kind=dense\nn=2\nvalues=0,1,1",     # wrong length
        "kind=anonymous\nn=2\ng=0,2,1",      # outside [0,1]
        "kind=threshold\nn=3",               # missing theta
        "kind=dense\nn=25\nvalues=0,1",      # over the dense representation limit
    ])
    def test_malformed(self, text):
        with pytest.raises(ValueError):
            build_function(text)


class TestFourier:
    def test_max_example(self):
        # max{x1, x2} on +-1 values: coefficients 1/2 on {}, {1}, {2} and -1/2 on {1,2}
        f = DenseFunction(2, [-1.0, 1.0, 1.0, 1.0])
        c = fourier_transform(f).coeffs
        assert np.allclose(c, [0.5, 0.5, 0.5, -0.5], atol=1e-15)

    def test_constant_one(self):
        f = DenseFunction(3, np.ones(8))
        c = fourier_transform(f).coeffs
        assert c[0] == 1.0
        assert np.all(c[1:] == 0.0)

    def test_dictator_halved(self):
        f = DenseFunction(2, [0.0, 1.0, 0.0, 1.0])  # (1+x1)/2
        c = fourier_transform(f).coeffs
        assert np.allclose(c, [0.5, 0.5, 0.0, 0.0], atol=1e-15)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        f = DenseFunction(4, rng.random(16))
        c = fourier_transform(f).coeffs
        for mask in range(16):
            assert c[mask] == pytest.approx(brute_coeff(f.values, 4, mask), abs=1e-13)

    def test_inverse_of_max_spectrum(self):
        spec = fourier_transform(DenseFunction(2, [-1.0, 1.0, 1.0, 1.0]))
        assert np.allclose(inverse_fourier(spec).values, [-1, 1, 1, 1], atol=1e-15)

    def test_inverse_zero_and_constant(self):
        from noisemech.hypercube import FourierSpectrum
        zero = FourierSpectrum(2, np.zeros(4))
        assert np.all(inverse_fourier(zero).values == 0.0)
        half = FourierSpectrum(2, [0.5, 0, 0, 0])
        assert np.all(inverse_fourier(half).values == 0.5)


class TestSpectrumCache:
    """A dense rule keeps one read-only spectrum."""

    def test_transform_returns_the_kept_read_only_spectrum(self):
        f = DenseFunction(3, np.random.default_rng(5).random(8))
        spectrum = fourier_transform(f)
        assert fourier_transform(f) is spectrum is f.spectrum
        before = spectrum.coeffs.copy()
        with pytest.raises(ValueError, match="read-only"):
            spectrum.coeffs[0] = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            f.spectrum = None
        assert np.array_equal(fourier_transform(f).coeffs, before)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=10))
def test_parseval_and_round_trip(seed, n):
    rng = np.random.default_rng(seed)
    f = DenseFunction(n, rng.random(1 << n))
    c = fourier_transform(f).coeffs
    assert abs(float((c**2).sum()) - float((f.values**2).mean())) <= 1e-10
    back = inverse_fourier(fourier_transform(f))
    assert float(np.abs(back.values - f.values).max()) <= 1e-12


class TestInfluence:
    def test_dictator(self):
        f = DenseFunction(2, [0.0, 1.0, 0.0, 1.0])
        assert influence(f, 0) == pytest.approx(0.25, abs=1e-15)
        assert influence(f, 1) == pytest.approx(0.0, abs=1e-15)

    def test_max_function(self):
        f = DenseFunction(2, [-1.0, 1.0, 1.0, 1.0])
        for i in (0, 1):
            assert influence(f, i) == pytest.approx(0.5, abs=1e-15)

    def test_constant(self):
        f = DenseFunction(3, np.full(8, 0.7))
        assert np.allclose(influences(f), 0.0, atol=1e-15)

    def test_equals_derivative_second_moment(self):
        rng = np.random.default_rng(3)
        f = DenseFunction(3, rng.random(8))
        for i in range(3):
            idx = np.arange(8)
            lo = idx[(idx >> i) & 1 == 0]
            deriv = (f.values[lo | (1 << i)] - f.values[lo]) / 2.0
            assert influence(f, i) == pytest.approx(float((deriv**2).mean()), abs=1e-13)

    def test_out_of_range(self):
        f = DenseFunction(2, np.zeros(4))
        with pytest.raises(ValueError):
            influence(f, 2)


class TestMonotonicity:
    def test_max_boolean(self):
        f = DenseFunction(2, [0.0, 1.0, 1.0, 1.0])
        assert monotonicity_check(f, "monotone")
        assert monotonicity_check(f, "marginally-monotone")

    def test_anti_dictator(self):
        f = DenseFunction(1, [1.0, 0.0])  # 1{x1 = -1}
        assert not monotonicity_check(f, "monotone")
        assert not monotonicity_check(f, "marginally-monotone")

    def test_anonymous_bump(self):
        f = AnonymousFunction(2, [0.0, 1.0, 0.0])
        assert not monotonicity_check(f, "monotone")
        assert monotonicity_check(f, "marginally-monotone")  # degree-1 weight exactly zero

    def test_monotone_implies_marginally_monotone(self):
        # full enumeration at n <= 4; vectorized predicates cross-checked below
        for n in (2, 3, 4):
            size = 1 << n
            pts = np.arange(size)
            signs = (((pts[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int64)
            fidx = np.arange(1 << size, dtype=np.int64)
            vals = ((fidx[:, None] >> pts[None, :]) & 1).astype(np.int64)
            marg = (vals @ signs >= 0).all(axis=1)
            mono = np.ones(1 << size, dtype=bool)
            for i in range(n):
                lo = pts[(pts >> i) & 1 == 0]
                mono &= (vals[:, lo | (1 << i)] >= vals[:, lo]).all(axis=1)
            assert not np.any(mono & ~marg)

    def test_vectorized_matches_api(self):
        rng = np.random.default_rng(11)
        n, size = 4, 16
        pts = np.arange(size)
        signs = (((pts[:, None] >> np.arange(n)[None, :]) & 1) * 2 - 1).astype(np.int64)
        for fidx in rng.integers(0, 1 << size, size=300):
            vals = ((int(fidx) >> pts) & 1).astype(np.float64)
            f = DenseFunction(n, vals)
            marg = bool((vals.astype(np.int64) @ signs >= 0).all())
            assert monotonicity_check(f, "marginally-monotone") == marg

    def test_rejects_non_unit_range(self):
        with pytest.raises(ValueError):
            monotonicity_check(DenseFunction(1, [-1.0, 1.0]), "monotone")

    @staticmethod
    def exact_verdict(f, kind):
        """Integer-arithmetic verdict for a Boolean rule: math.comb sums if anonymous, int64 contexts if dense."""
        if isinstance(f, AnonymousFunction):
            if kind == "monotone":
                return bool((np.diff(f.g) >= 0.0).all())
            return sum(int(gm) * (2 * m - f.n) * math.comb(f.n, m) for m, gm in enumerate(f.g)) >= 0
        pairs = [half_split(f.values.astype(np.int64), i) for i in range(f.n)]
        if kind == "monotone":
            return all((hi - lo).min() >= 0 for lo, hi in pairs)
        return all((hi - lo).sum() >= 0 for lo, hi in pairs)

    def test_float_verdict_matches_exact_arithmetic(self):
        rules = [AnonymousFunction(n, (k >> np.arange(n + 1)) & 1)
                 for n in range(1, 11) for k in range(1 << (n + 1))]
        rules += [DenseFunction(n, (k >> np.arange(1 << n)) & 1) for n in (1, 2, 3) for k in range(1 << (1 << n))]
        rng = np.random.default_rng(24)
        for _ in range(200):
            n = int(rng.integers(4, 13))
            rules.append(DenseFunction(n, rng.random(1 << n) < rng.random()))
        for f in rules:
            for kind in ("monotone", "marginally-monotone"):
                assert monotonicity_check(f, kind) == self.exact_verdict(f, kind), (f.n, kind)


class TestAnonymousDenseConsistency:
    @pytest.mark.parametrize("n", [2, 5, 8, 12])
    def test_statistics_agree(self, n):
        rng = np.random.default_rng(n)
        g = rng.random(n + 1)
        f = AnonymousFunction(n, g)
        dense = f.to_dense()
        assert f.mean() == pytest.approx(dense.mean(), abs=1e-12)
        assert f.mean_nu() == pytest.approx(dense.mean_nu(), abs=1e-12)
        assert f.degree1().shape == (n,)
        assert np.allclose(f.degree1(), dense.degree1(), atol=1e-12)
        for kind in ("monotone", "marginally-monotone"):
            assert monotonicity_check(f, kind) == monotonicity_check(dense, kind)

    def test_threshold_boolean_consistency(self):
        for n in (3, 6, 9):
            for theta in (-n, -1, 0, 1, n):
                f = threshold_function(n, theta)
                dense = f.to_dense()
                assert f.mean() == pytest.approx(dense.mean(), abs=1e-12)
                assert monotonicity_check(f, "monotone")
                assert monotonicity_check(dense, "monotone")


def test_degree1_interim_identity():
    # f_bar_i(z) = E[f] + z * E[f x_i], checked by enumeration at n <= 6
    rng = np.random.default_rng(17)
    for n in (2, 4, 6):
        f = DenseFunction(n, rng.random(1 << n))
        mean = f.mean()
        d1 = f.degree1()
        pts = np.arange(1 << n)
        for i in range(n):
            hi = f.values[(pts >> i) & 1 == 1].mean()
            lo = f.values[(pts >> i) & 1 == 0].mean()
            assert hi == pytest.approx(mean + d1[i], abs=1e-12)
            assert lo == pytest.approx(mean - d1[i], abs=1e-12)


def test_binomial_weights_normalized():
    for n in (1, 10, 500, 10**5):
        w = binomial_weights(n)
        assert abs(w.sum() - 1.0) <= 1e-9
        assert w.min() >= 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 10, 101, 301, 1000, 2000])
def test_binomial_weights_match_exact_integers(n):
    # Python's int / int division rounds C(n, m) / 2^n correctly
    want = np.array([math.comb(n, m) / 2**n for m in range(n + 1)])
    cells = want > 1e-300
    assert np.abs(binomial_weights(n)[cells] / want[cells] - 1.0).max() <= 4e-15


def test_binomial_weights_match_fractions_at_n_10000():
    n = 10**4
    w = binomial_weights(n)
    m = np.arange(0, n + 1, 37)
    exact = [Fraction(math.comb(n, int(k)), 2**n) for k in m]
    cells = [i for i, e in enumerate(exact) if e > Fraction(1, 10**300)]
    assert max(abs(Fraction(float(w[m[i]])) / exact[i] - 1) for i in cells) <= Fraction(1, 10**14)


def test_binomial_weights_at_largest_size():
    n = MAX_ANONYMOUS_N
    w = binomial_weights(n)
    assert np.isfinite(w).all() and (w >= 0.0).all()
    assert abs(w.sum() - 1.0) <= 1e-14
    # C(2m, m) / 4^m = (1 - 1/(8m) + 1/(128m^2) + 5/(1024m^3)) / sqrt(pi m), exact to 1e-26 here
    m = n // 2
    central = (1.0 - 1.0 / (8 * m) + 1.0 / (128 * m**2) + 5.0 / (1024 * m**3)) / math.sqrt(math.pi * m)
    assert abs(w[m] / central - 1.0) <= 1e-14


def test_anonymous_large_n_mean():
    n = 10**6 - 1  # odd, so the majority has mean exactly 1/2
    f = majority_function(n)
    assert f.mean() == pytest.approx(0.5, abs=1e-9)
    assert f.mean_nu() / math.sqrt(n) == pytest.approx(1.0 / math.sqrt(2 * math.pi), abs=1e-3)


def test_popcounts():
    pc = popcounts(4)
    assert pc.tolist() == [bin(k).count("1") for k in range(16)]


class TestHalfSplit:
    def test_pairs_contexts_and_keeps_dtype(self):
        n = 4
        idx = np.arange(1 << n, dtype=np.int64)
        for i in range(n):
            lo, hi = half_split(idx, i)
            assert lo.dtype == np.int64 and hi.dtype == np.int64
            assert np.array_equal(hi, lo | (1 << i))
            assert np.array_equal(np.sort(lo.ravel()), idx[(idx >> i) & 1 == 0])


class TestNonFiniteValues:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_constructors_reject(self, bad):
        with pytest.raises(ValueError, match="must be finite"):
            AnonymousFunction(3, [0.0, 0.0, bad, 1.0])
        with pytest.raises(ValueError, match="must be finite"):
            DenseFunction(2, [0.0, 1.0, bad, 1.0])
        with pytest.raises(ValueError, match="theta must be finite"):
            build_function(f"kind=threshold\nn=3\ntheta={bad}\n")
