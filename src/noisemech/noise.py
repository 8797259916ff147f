"""The flip channel: noise operator, stability, and noise sensitivity.

Each coordinate of a uniform point x is independently flipped with
probability delta, producing the received vector y. Dense functions get
spectral formulas; anonymous functions get an exact joint law of the two
vote counts (m_x, m_y), which keeps large-n computations closed form. A
seeded Monte Carlo path covers sizes beyond the exact cutoff; it streams its
draws in fixed-size batches, so its memory does not grow with the sample count.

The endpoints delta = 0 and delta = 1/2 are accepted here for limit checks
even though the economic model keeps delta strictly inside (0, 1/2); the
mechanism layer enforces the open interval itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .hypercube import (
    DenseFunction,
    FourierSpectrum,
    HypercubeFunction,
    binomial_weights,
    fourier_transform,
    inverse_fourier,
    popcounts,
    spectral_sensitivity,
)

# The joint law costs O(n^3) time and O(n^2) memory; beyond this the CLI
# falls back to Monte Carlo.
MAX_EXACT_COUNT_N = 2000

_MC_BATCH = 1 << 16
_MC_FLIP_ROWS = 1 << 12  # flips are drawn this many rows at a time


def _check_delta(delta: float) -> None:
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")


def _check_sensitivity_args(f: HypercubeFunction, delta: float) -> None:
    if not f.is_boolean:
        raise ValueError("noise sensitivity requires a Boolean-valued function")
    _check_delta(delta)


@dataclass(frozen=True, eq=False)
class JointCountDistribution:
    """Exact law of (m_x, m_y): vote counts of a uniform x and its noisy copy y."""

    n: int
    delta: float
    pmf: np.ndarray

    def stability(self, g: np.ndarray) -> float:
        """g' P g = E[g(m_x) g(m_y)] for one count-indexed rule g."""
        return float(g @ self.pmf @ g)

    def sensitivity(self, g: np.ndarray):
        """P(g(m_x) != g(m_y)) = 2 g' P (1 - g) by symmetry, for a Boolean g or each row; positive terms only."""
        ns = 2.0 * ((g @ self.pmf) * (1.0 - g)).sum(axis=-1)
        return float(ns) if ns.ndim == 0 else ns


def joint_count_distribution(n: int, delta: float) -> JointCountDistribution:
    """Build the (n+1) x (n+1) pmf row by row from binomial pmfs.

    Given m_x = j, m_y = Bin(j, 1-d) + Bin(n-j, d), so row j is
    binomial_weights(n)[j] times the convolution of the kept and the flipped-in
    counts, whose pmfs come from Pascal steps (positive terms only).
    O(n^3 / 6) multiply-adds inside np.convolve, O(n^2) space.
    """
    if not 1 <= n <= MAX_EXACT_COUNT_N:
        raise ValueError(f"exact joint count law limited to n <= {MAX_EXACT_COUNT_N}, got {n}")
    _check_delta(delta)
    flip = np.zeros((n + 1, n + 1))  # flip[m, k] = P(Bin(m, delta) = k)
    flip[0, 0] = 1.0
    for m in range(n):
        flip[m + 1, : m + 2] = np.convolve(flip[m, : m + 1], [1.0 - delta, delta])
    flip[flip < np.finfo(np.float64).tiny] = 0.0  # subnormal tails only slow the convolutions
    weights = binomial_weights(n)
    pmf = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        pmf[j] = weights[j] * np.convolve(flip[j, : j + 1][::-1], flip[n - j, : n - j + 1])
    pmf.setflags(write=False)
    return JointCountDistribution(n, delta, pmf)


def noise_operator(f: DenseFunction, rho: float) -> DenseFunction:
    """Conditional expectation of f over a rho-correlated copy of the input.

    Damps each coefficient by rho^|S|; a semigroup in rho.
    """
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho must lie in [0, 1], got {rho}")
    spectrum = fourier_transform(f)
    damp = rho ** popcounts(f.n).astype(np.float64)
    return inverse_fourier(FourierSpectrum(f.n, spectrum.coeffs * damp))


def stability_exact(f: HypercubeFunction, delta: float) -> float:
    """E[f(x) f(y)] for the delta-flip channel.

    Dense: sum_S (1-2 delta)^|S| coeff(S)^2. Anonymous: the bilinear form
    g' P g under the joint count law. The two agree on representable inputs.
    """
    _check_delta(delta)
    if isinstance(f, DenseFunction):
        return fourier_transform(f).stability(1.0 - 2.0 * delta)
    return joint_count_distribution(f.n, delta).stability(f.g)


def sensitivity_exact(f: HypercubeFunction, delta: float) -> float:
    """P(f(x) != f(y)) for Boolean f: the spectral crossing sum if dense, the count law's crossing mass if anonymous."""
    _check_sensitivity_args(f, delta)
    if isinstance(f, DenseFunction):
        return spectral_sensitivity(fourier_transform(f).coeffs, delta)
    return joint_count_distribution(f.n, delta).sensitivity(f.g)


class MonteCarloEstimate(NamedTuple):
    estimate: float
    stderr: float


def sensitivity_monte_carlo(
    f: HypercubeFunction, delta: float, samples: int, seed: int
) -> MonteCarloEstimate:
    """Unbiased sampling estimate of P(f(x) != f(y)).

    Batch i of 2^16 samples draws from the child stream
    SeedSequence(seed, spawn_key=(i,)), which equals SeedSequence(seed).spawn(k)[i],
    so a future parallel execution of the batches reproduces the serial result.
    A dense batch draws x, then its flips in slices of 2^12 rows, each packed
    into a bit mask by one integer product: the stream is consumed in the order
    of one (batch, n) draw, and memory stays O(2^16 + 2^12 n) whatever `samples`.
    The standard error is the binomial sqrt(p(1-p)/samples).
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    _check_sensitivity_args(f, delta)

    disagreements = 0
    for batch, start in enumerate(range(0, samples, _MC_BATCH)):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(batch,))))
        size = min(_MC_BATCH, samples - start)
        if isinstance(f, DenseFunction):
            x = rng.integers(0, 1 << f.n, size=size, dtype=np.int64)
            bits = np.int64(1) << np.arange(f.n, dtype=np.int64)
            mask = np.empty(size, np.int64)
            for row in range(0, size, _MC_FLIP_ROWS):
                part = mask[row:row + _MC_FLIP_ROWS]
                np.matmul(rng.random((part.size, f.n)) < delta, bits, out=part)
            disagreements += int(np.count_nonzero(f.values[x] != f.values[x ^ mask]))
        else:
            m_x = rng.binomial(f.n, 0.5, size=size)
            m_y = rng.binomial(m_x, 1.0 - delta) + rng.binomial(f.n - m_x, delta)
            disagreements += int(np.count_nonzero(f.g[m_x] != f.g[m_y]))
    p_hat = disagreements / samples
    return MonteCarloEstimate(p_hat, math.sqrt(p_hat * (1.0 - p_hat) / samples))
