import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from noisemech import hypercube, optimize
from noisemech.hypercube import (
    MAX_DENSE_N,
    AnonymousFunction,
    DenseFunction,
    majority_function,
    popcounts,
    threshold_function,
    walsh,
)
from noisemech.noise import (
    MAX_EXACT_COUNT_N,
    JointCountDistribution,
    MonteCarloEstimate,
    joint_count_distribution,
    noise_operator,
    sensitivity_exact,
    sensitivity_monte_carlo,
    stability_exact,
)


def pair_enumeration_stability(values, n, delta):
    """E[f(x) f(y)] by summing all 4^n (x, y) pairs with flip weights."""
    total = 0.0
    for x in range(1 << n):
        for y in range(1 << n):
            h = bin(x ^ y).count("1")
            total += values[x] * values[y] * delta**h * (1 - delta) ** (n - h)
    return total / (1 << n)


def _dp_joint_count_pmf(n, delta):
    """Reference law of (m_x, m_y) by a DP over coordinates.

    Each coordinate adds one of four cells (+ +, + -, - +, - -) with
    probabilities ((1-d)/2, d/2, d/2, (1-d)/2). O(n^3) time.
    """
    p_same = (1.0 - delta) / 2.0
    p_diff = delta / 2.0
    cur = np.zeros((n + 1, n + 1))
    nxt = np.zeros((n + 1, n + 1))
    cur[0, 0] = 1.0
    for i in range(n):
        k = i + 1
        src = cur[:k, :k]
        nxt[: k + 1, : k + 1] = 0.0
        nxt[1 : k + 1, 1 : k + 1] += p_same * src
        nxt[1 : k + 1, :k] += p_diff * src
        nxt[:k, 1 : k + 1] += p_diff * src
        nxt[:k, :k] += p_same * src
        cur, nxt = nxt, cur
    return cur


def exact_count_law_stability(g, rho):
    """g' P g under the joint count law at a rational rho, summed in integers over one denominator."""
    n = len(g) - 1
    flip = (1 - rho) / 2
    den, lose = flip.denominator, flip.numerator
    keep = den - lose
    # m_x = j, then a of its j ones are kept and b of its n - j minus-ones flip in: m_y = a + b
    total = sum(math.comb(n, j) * math.comb(j, a) * math.comb(n - j, b) * lose ** (j - a + b) * keep ** (n - j + a - b)
                for j in range(n + 1) if g[j] for a in range(j + 1) for b in range(n - j + 1) if g[a + b])
    return Fraction(total, 2**n * den**n)


def pair_enumeration_ns(values, n, delta):
    total = 0.0
    for x in range(1 << n):
        for y in range(1 << n):
            if values[x] != values[y]:
                h = bin(x ^ y).count("1")
                total += delta**h * (1 - delta) ** (n - h)
    return total / (1 << n)


DICTATOR = DenseFunction(1, [0.0, 1.0])
MAJ3 = majority_function(3)
MAJ3_DENSE = MAJ3.to_dense()


class TestNoiseOperator:
    def test_constant_fixed_point(self):
        f = DenseFunction(2, np.full(4, 0.3))
        out = noise_operator(f, 0.6)
        assert np.allclose(out.values, 0.3, atol=1e-15)

    def test_degree_one_damping(self):
        f = DenseFunction(2, [0.0, 1.0, 0.0, 1.0])  # (1+x1)/2
        out = noise_operator(f, 0.4)
        expected = 0.5 + 0.4 * np.array([-0.5, 0.5, -0.5, 0.5])
        assert np.allclose(out.values, expected, atol=1e-14)

    def test_identity_at_rho_one(self):
        rng = np.random.default_rng(0)
        f = DenseFunction(3, rng.random(8))
        assert np.allclose(noise_operator(f, 1.0).values, f.values, atol=1e-13)

    def test_rejects_bad_rho(self):
        with pytest.raises(ValueError):
            noise_operator(DICTATOR, 1.5)


def test_dense_statistics_share_one_forward_transform(monkeypatch):
    calls, original = [], hypercube.walsh

    def counting(values, inverse=False):
        calls.append("inverse" if inverse else "forward")
        return original(values, inverse)

    monkeypatch.setattr(hypercube, "walsh", counting)
    f = DenseFunction(6, (np.random.default_rng(2).random(64) < 0.4).astype(np.float64))
    sensitivity_exact(f, 0.1)
    stability_exact(f, 0.2)
    hypercube.influences(f)
    noise_operator(f, 0.7)
    assert calls == ["forward", "inverse"]  # the inverse is the noise operator's own


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=0, max_value=2**31 - 1),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_noise_operator_semigroup(seed, rho1, rho2):
    rng = np.random.default_rng(seed)
    f = DenseFunction(3, rng.random(8))
    twice = noise_operator(noise_operator(f, rho2), rho1)
    once = noise_operator(f, rho1 * rho2)
    assert float(np.abs(twice.values - once.values).max()) <= 1e-12


class TestStability:
    def test_constant_one(self):
        f = DenseFunction(2, np.ones(4))
        for d in (0.0, 0.1, 0.3, 0.5):
            assert stability_exact(f, d) == pytest.approx(1.0, abs=1e-14)

    def test_dictator(self):
        assert stability_exact(DICTATOR, 0.1) == pytest.approx(0.45, abs=1e-14)

    def test_maj3(self):
        expected = 0.25 + 3 * 0.8 / 16 + 0.8**3 / 16
        assert expected == pytest.approx(0.432, abs=1e-12)
        assert stability_exact(MAJ3, 0.1) == pytest.approx(0.432, abs=1e-12)
        assert stability_exact(MAJ3_DENSE, 0.1) == pytest.approx(0.432, abs=1e-12)
        assert pair_enumeration_stability(MAJ3_DENSE.values, 3, 0.1) == pytest.approx(0.432, abs=1e-12)

    def test_fourier_form_equals_definition(self):
        rng = np.random.default_rng(5)
        for n in (2, 4, 6):
            f = DenseFunction(n, rng.random(1 << n))
            for d in (0.05, 0.25, 0.45):
                assert stability_exact(f, d) == pytest.approx(
                    pair_enumeration_stability(f.values, n, d), abs=1e-12
                )

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            stability_exact(DICTATOR, 0.6)

    @pytest.mark.parametrize("theta", [0, -4])
    def test_dense_is_exact_at_n20(self, theta):
        # the spectral sum over 2^20 terms against exact rationals at the float rho; np.dot erred 8e-14
        f = threshold_function(20, theta)
        exact = exact_count_law_stability(f.g, Fraction(1.0 - 2.0 * 0.1))
        assert float(abs(Fraction(stability_exact(f.to_dense(), 0.1)) - exact)) <= 1e-15

    def test_exact_reference_on_maj3(self):
        assert exact_count_law_stability(MAJ3.g, Fraction(4, 5)) == Fraction(54, 125)


class TestSensitivity:
    def test_zero_noise(self):
        for f in (DICTATOR, MAJ3, threshold_function(6, 2)):
            assert sensitivity_exact(f, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_dictator_identity(self):
        for d in np.arange(0.05, 0.46, 0.05):
            assert sensitivity_exact(DICTATOR, float(d)) == pytest.approx(d, abs=1e-12)

    def test_maj3(self):
        assert sensitivity_exact(MAJ3, 0.1) == pytest.approx(0.136, abs=1e-12)
        assert pair_enumeration_ns(MAJ3_DENSE.values, 3, 0.1) == pytest.approx(0.136, abs=1e-12)

    def test_rejects_non_boolean(self):
        with pytest.raises(ValueError):
            sensitivity_exact(DenseFunction(2, [0.0, 0.5, 0.0, 1.0]), 0.1)

    def test_monotone_in_delta_for_thresholds(self):
        for n, theta in ((7, 0), (10, 2), (12, -4)):
            f = threshold_function(n, theta)
            values = [sensitivity_exact(f, float(d)) for d in np.arange(0.0, 0.51, 0.05)]
            assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_complement_symmetry(self):
        rng = np.random.default_rng(9)
        for n in (2, 3, 4):
            vals = (rng.random(1 << n) < 0.5).astype(float)
            f = DenseFunction(n, vals)
            comp = DenseFunction(n, 1.0 - vals)
            for d in (0.1, 0.3):
                assert sensitivity_exact(f, d) == pytest.approx(sensitivity_exact(comp, d), abs=1e-12)

    def test_dense_anonymous_agreement(self):
        # the count law against the Walsh spectrum of the same rule; worst seen: 1.7e-15 NS, 1.4e-14 stability
        rng = np.random.default_rng(13)
        for n in range(1, 17):
            for _ in range(3):
                f = AnonymousFunction(n, rng.integers(0, 2, n + 1).astype(float))
                dense = f.to_dense()
                for d in NS_DELTAS + (0.0, 0.5):
                    assert abs(stability_exact(f, d) - stability_exact(dense, d)) <= 1e-13, (n, f.g, d)
                    assert abs(sensitivity_exact(f, d) - sensitivity_exact(dense, d)) <= 1e-13, (n, f.g, d)
        est = sensitivity_monte_carlo(f, 0.1, 200_000, seed=5)
        assert est.stderr > 0 and abs(est.estimate - sensitivity_exact(dense, 0.1)) <= 5 * est.stderr


NS_DELTAS = (1e-6, 1e-4, 0.01, 0.1, 0.3, 0.49)


def _relative_error(got, exact):
    return abs(Fraction(got) - exact) / exact if exact else abs(got)


class TestLargestDenseSize:
    """At n = MAX_DENSE_N the dense spectrum of one threshold rule against the count law (685 MB peak)."""

    @pytest.fixture(scope="class")
    def rule(self):
        f = threshold_function(MAX_DENSE_N, -4)
        yield f, f.to_dense()
        popcounts.cache_clear()  # release the 2^24 popcount table

    def test_stability_matches_the_count_law(self, rule):
        f, dense = rule
        assert abs(stability_exact(dense, 0.1) - stability_exact(f, 0.1)) <= 1e-14

    # np.dot over the 2^24 terms of the crossing sum errs 7.1e-13 at delta = 0.37, the law 1e-16 (ROADMAP)
    @pytest.mark.parametrize("d,bound", [(0.02, 1e-13), (0.1, 1e-13), (0.37, 1e-12)])
    def test_sensitivity_matches_the_count_law(self, rule, d, bound):
        f, dense = rule
        assert abs(sensitivity_exact(dense, d) - sensitivity_exact(f, d)) <= bound

    def test_one_more_coordinate_is_refused_before_any_table(self):
        n = MAX_DENSE_N + 1

        def refuse():
            with pytest.raises(ValueError, match="cannot densify"):
                threshold_function(n, 0).to_dense()
            with pytest.raises(ValueError, match="dense dimension"):
                DenseFunction(n, np.zeros(2))

        assert traced_peak(refuse) < 1 << 20  # a 2^25 table takes 256 MiB


class TestDenseCrossingSum:
    """Dense NS = 2 sum_S (1 - rho^|S|) coeff(S)^2 against exact rationals at the float delta."""

    def test_every_rule_n3_against_flip_enumeration(self):
        worst = 0
        for n in (1, 2, 3):
            size = 1 << n
            x = np.arange(size)
            for k in range(1 << size):
                values = ((k >> x) & 1).astype(float)
                # disagreeing (x, flip mask) pairs per flip weight
                by_weight = np.bincount(popcounts(n), minlength=n + 1, weights=[
                    np.count_nonzero(values[x] != values[x ^ mask]) for mask in range(size)])
                f = DenseFunction(n, values)
                for d in NS_DELTAS:
                    fd = Fraction(d)
                    exact = sum(int(c) * fd**w * (1 - fd) ** (n - w) for w, c in enumerate(by_weight)) / size
                    worst = max(worst, _relative_error(sensitivity_exact(f, d), exact))
        assert worst <= 1e-14

    def test_random_rules_against_exact_spectral_sum(self):
        rng = np.random.default_rng(31)
        worst = 0
        for n in (4, 7, 10, 12):
            for _ in range(3):
                values = (rng.random(1 << n) < rng.random()).astype(float)
                f = DenseFunction(n, values)
                # 2^n coeff(S) are integers, so the squared mass per degree is exact
                ints = walsh(values).astype(np.int64)
                mass = np.bincount(popcounts(n), weights=ints**2, minlength=n + 1).astype(np.int64)
                for d in NS_DELTAS:
                    rho = 1 - 2 * Fraction(d)
                    exact = 2 * sum((1 - rho**k) * int(m) for k, m in enumerate(mass)) / Fraction(4**n)
                    worst = max(worst, _relative_error(sensitivity_exact(f, d), exact))
        assert worst <= 1e-14

    def test_exact_at_both_endpoints(self):
        and2 = DenseFunction(2, [0.0, 0.0, 0.0, 1.0])
        assert sensitivity_exact(and2, 0.0) == 0.0
        assert sensitivity_exact(and2, 0.5) == 0.375
        rng = np.random.default_rng(5)
        for n in (3, 9):
            f = DenseFunction(n, (rng.random(1 << n) < 0.5).astype(float))
            p = Fraction(int(f.values.sum()), 1 << n)
            assert sensitivity_exact(f, 0.0) == 0.0
            assert sensitivity_exact(f, 0.5) == 2 * p * (1 - p)  # y is independent of x


class TestJointCountDistribution:
    def test_single_coordinate(self):
        joint = joint_count_distribution(1, 0.1)
        assert np.allclose(joint.pmf, [[0.45, 0.05], [0.05, 0.45]], atol=1e-15)

    def test_noiseless_diagonal(self):
        joint = joint_count_distribution(2, 0.0)
        assert np.allclose(joint.pmf, np.diag([0.25, 0.5, 0.25]), atol=1e-15)

    def test_n3_matches_enumeration(self):
        d = 0.1
        joint = joint_count_distribution(3, d)
        brute = np.zeros((4, 4))
        for x in range(8):
            for y in range(8):
                h = bin(x ^ y).count("1")
                brute[bin(x).count("1"), bin(y).count("1")] += d**h * (1 - d) ** (3 - h) / 8
        assert np.allclose(joint.pmf, brute, atol=1e-14)

    def test_invariants(self):
        for n, d in ((5, 0.2), (40, 0.07), (150, 0.45)):
            joint = joint_count_distribution(n, d)
            assert joint.pmf.min() >= 0.0
            assert abs(joint.pmf.sum() - 1.0) <= 1e-10
            assert np.allclose(joint.pmf, joint.pmf.T, atol=1e-12)
            binom = np.array([math.comb(n, m) for m in range(n + 1)], dtype=float) / 2**n
            assert np.allclose(joint.pmf.sum(axis=1), binom, atol=1e-12)
            assert np.allclose(joint.pmf.sum(axis=0), binom, atol=1e-12)

    @pytest.mark.parametrize("d", [0.0, 0.02, 0.1, 0.3, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 3, 40, 101, 257, 500])
    def test_matches_coordinate_dp(self, n, d, monkeypatch):
        dp = _dp_joint_count_pmf(n, d)
        assert np.abs(joint_count_distribution(n, d).pmf - dp).max() <= 1e-13
        ns = optimize.threshold_ns_table(n, d)
        monkeypatch.setattr(optimize, "joint_count_distribution",
                            lambda n, d: JointCountDistribution(n, d, dp))
        assert np.abs(ns - optimize.threshold_ns_table(n, d)).max() <= 1e-13

    @pytest.mark.parametrize("d", [0.0, 0.02, 0.1, 0.3, 0.49, 0.5])
    @pytest.mark.parametrize("n", [1, 2, 40, 101, 257, 500])
    def test_crossing_mass_matches_longdouble(self, n, d):
        # NS = 2 P(g(m_x) = 1, g(m_y) = 0), summed over the same pmf in extended precision
        law = joint_count_distribution(n, d)
        pmf = law.pmf.astype(np.longdouble)
        corner = pmf[::-1].cumsum(axis=0)[::-1].cumsum(axis=1)  # P(m_x >= j, m_y <= k)
        want = 2 * np.append(0, np.diagonal(corner, -1))
        assert np.abs(optimize.threshold_ns_table(n, d) - want).max() <= 1e-15
        rng = np.random.default_rng(n)
        rules = (rng.random((16, n + 1)) < rng.random((16, 1))).astype(np.float64)
        want = 2 * ((rules.astype(np.longdouble) @ pmf) * (1 - rules)).sum(axis=1)
        assert np.abs(law.sensitivity(rules) - want).max() <= 2e-15

    def test_largest_exact_size(self):
        n = MAX_EXACT_COUNT_N
        joint = joint_count_distribution(n, 0.1)
        assert abs(joint.pmf.sum() - 1.0) <= 1e-12
        binom = np.array([math.comb(n, m) / 2**n for m in range(n + 1)])
        cells = binom > 1e-300
        assert np.abs(joint.pmf.sum(axis=1)[cells] / binom[cells] - 1.0).max() <= 1e-12

    def test_rejects_over_limit(self):
        with pytest.raises(ValueError):
            joint_count_distribution(MAX_EXACT_COUNT_N + 1, 0.1)

    @pytest.mark.parametrize("n,d", [(6, 0.1), (11, 0.3), (25, 0.45)])
    def test_conditional_rows_are_binomial_convolutions(self, n, d):
        # independent derivation: given m_x = s, the received count is the sum
        # of Binomial(s, 1-d) kept votes and Binomial(n-s, d) flipped-in votes
        joint = joint_count_distribution(n, d)
        for s in range(n + 1):
            keep = np.array([math.comb(s, k) * (1 - d) ** k * d ** (s - k) for k in range(s + 1)])
            gain = np.array([math.comb(n - s, k) * d**k * (1 - d) ** (n - s - k) for k in range(n - s + 1)])
            row = math.comb(n, s) / 2**n * np.convolve(keep, gain)
            assert np.allclose(joint.pmf[s], row, atol=1e-13)


class TestGaussianStabilityCap:
    """The half-space stability bound, used as a numerical audit.

    For anonymous unit-range rules, stability is capped by the bivariate
    Gaussian level Phi_rho(q, q) at q = quantile(E[f]), up to a vanishing
    finite-n term. Cutoff rules attain the cap in the limit.
    """

    @staticmethod
    def cap(mean, delta):
        from noisemech.gaussian import binormal_cdf, norm_quantile
        if mean <= 0.0 or mean >= 1.0:
            return mean
        q = norm_quantile(mean)
        return binormal_cdf(q, q, 1 - 2 * delta)

    def test_random_anonymous_below_cap(self):
        rng = np.random.default_rng(0)
        for n in (50, 200):
            for _ in range(25):
                g = (rng.random(n + 1) < rng.random()).astype(float)
                f = AnonymousFunction(n, g)
                for d in (0.1, 0.25, 0.4):
                    assert stability_exact(f, d) <= self.cap(f.mean(), d) + 1e-9

    def test_threshold_excess_vanishes(self):
        excesses = []
        for n in (51, 101, 201, 401):
            worst = 0.0
            for theta in (0, 2, 6):
                f = threshold_function(n, theta)
                for d in (0.1, 0.25, 0.4):
                    worst = max(worst, stability_exact(f, d) - self.cap(f.mean(), d))
            excesses.append(worst)
        assert all(a > b for a, b in zip(excesses, excesses[1:]))
        assert excesses[0] <= 0.01


class TestMonteCarlo:
    def test_constant_zero(self):
        f = AnonymousFunction(4, np.zeros(5))
        est = sensitivity_monte_carlo(f, 0.3, 1000, seed=42)
        assert est.estimate == 0.0
        assert est.stderr == 0.0

    def test_dictator_calibration(self):
        est = sensitivity_monte_carlo(DICTATOR, 0.2, 10**6, seed=7)
        assert abs(est.estimate - 0.2) <= 5 * est.stderr

    def test_majority_101_calibration(self):
        f = majority_function(101)
        exact = sensitivity_exact(f, 0.1)
        est = sensitivity_monte_carlo(f, 0.1, 10**6, seed=11)
        assert abs(est.estimate - exact) <= 5 * est.stderr

    def test_deterministic_given_seed(self):
        f = majority_function(31)
        a = sensitivity_monte_carlo(f, 0.25, 200_000, seed=123)
        b = sensitivity_monte_carlo(f, 0.25, 200_000, seed=123)
        assert a == b
        c = sensitivity_monte_carlo(f, 0.25, 200_000, seed=124)
        assert c != a

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            sensitivity_monte_carlo(DICTATOR, 0.1, 0, seed=1)
        with pytest.raises(ValueError):
            sensitivity_monte_carlo(DenseFunction(1, [0.0, 0.5]), 0.1, 10, seed=1)


def full_batch_monte_carlo(f, delta, samples, seed):
    """The dense sampler with each batch's flips drawn as one (batch, n) array and a spawned list of child streams."""
    batch = 1 << 16
    children = np.random.SeedSequence(seed).spawn((samples + batch - 1) // batch)
    disagreements, remaining = 0, samples
    for child in children:
        rng = np.random.Generator(np.random.Philox(child))
        size = min(batch, remaining)
        remaining -= size
        x = rng.integers(0, 1 << f.n, size=size, dtype=np.int64)
        flips = rng.random((size, f.n)) < delta
        mask = (flips.astype(np.int64) << np.arange(f.n, dtype=np.int64)).sum(axis=1)
        disagreements += int(np.count_nonzero(f.values[x] != f.values[x ^ mask]))
    p_hat = disagreements / samples
    return MonteCarloEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / samples))


def traced_peak(fn) -> int:
    """Peak bytes that tracemalloc sees while fn runs."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestMonteCarloStreaming:
    """The dense sampler draws flips in slices of rows and builds child streams on demand, bit-identically."""

    @pytest.mark.parametrize("n", [1, 13, 18])
    def test_bit_identical_to_full_batch_draws(self, n):
        f = DenseFunction(n, np.random.default_rng(n).integers(0, 2, 1 << n).astype(np.float64))
        for samples in (1, 4095, 4096, 4097, 65536, 65537, 100_000):
            for delta in (0.0, 0.17, 0.5):
                for seed in (3, 2**40 + 1):
                    want = full_batch_monte_carlo(f, delta, samples, seed)
                    assert sensitivity_monte_carlo(f, delta, samples, seed) == want, (samples, delta, seed)

    def test_child_stream_on_demand_equals_spawned(self):
        for seed in (0, 3, 2**40 + 1):
            spawned = np.random.SeedSequence(seed).spawn(5)
            for i, child in enumerate(spawned):
                on_demand = np.random.SeedSequence(seed, spawn_key=(i,))
                assert on_demand.generate_state(8).tolist() == child.generate_state(8).tolist()
                assert (np.random.Generator(np.random.Philox(on_demand)).random(4).tolist()
                        == np.random.Generator(np.random.Philox(child)).random(4).tolist())

    def test_dense_memory_independent_of_samples(self):
        f = DenseFunction(18, np.random.default_rng(18).integers(0, 2, 1 << 18).astype(np.float64))
        peak_small = traced_peak(lambda: sensitivity_monte_carlo(f, 0.1, 10**5, seed=1))
        peak_large = traced_peak(lambda: sensitivity_monte_carlo(f, 0.1, 10**6, seed=1))
        assert peak_small <= 3 * 2**20
        assert abs(peak_large - peak_small) <= 2**19
