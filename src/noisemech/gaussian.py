"""Scalar and bivariate Gaussian kit plus the closed-form large-n limits.

Everything here is deterministic and stateless. The scalar cdf rides on the
C library's erfc; its inverse is the standard library's (statistics.NormalDist,
Wichura's AS241 rational approximations, accurate to the far tail), and the
inverse density is a closed form with one Newton step. The bivariate cdf uses
a fixed 128-node Gauss-Legendre rule on the arcsin-substituted single
integral, never Monte Carlo, because frontier tables must reproduce exactly.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

SQRT_2PI = math.sqrt(2.0 * math.pi)
INV_SQRT_2PI = 1.0 / SQRT_2PI
MAX_REVENUE_TARGET = INV_SQRT_2PI + 1e-12  # the largest r accepted: feasibility's 1e-12 slack above the limit


def norm_pdf(x: float) -> float:
    return math.exp(-0.5 * x * x) * INV_SQRT_2PI


def norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def norm_ccdf(x: float) -> float:
    return 0.5 * math.erfc(x / math.sqrt(2.0))


def norm_quantile(p: float) -> float:
    """Inverse cdf on (0, 1); nan and the endpoints raise rather than return nan or +-inf."""
    if not 0.0 < p < 1.0:
        raise ValueError(f"quantile argument must lie in (0, 1), got {p}")
    from statistics import NormalDist  # imported here: it loads fractions and decimal, which no command needs

    return NormalDist().inv_cdf(p)


def phi_inv_plus(r: float) -> float:
    """The unique t >= 0 with pdf(t) = r, for 0 < r <= 1/sqrt(2 pi).

    Closed form t = sqrt(-2 log(r sqrt(2 pi))), followed by one Newton step
    when the derivative is usable.
    """
    if not 0.0 < r <= MAX_REVENUE_TARGET:
        raise ValueError(f"density inverse needs 0 < r <= 1/sqrt(2 pi), got {r}")
    t = math.sqrt(max(0.0, -2.0 * math.log(min(r, INV_SQRT_2PI) * SQRT_2PI)))
    if t > 1e-8:
        t -= (norm_pdf(t) - r) / (-t * norm_pdf(t))
    return t


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(128)


def binormal_cdf(t1: float, t2: float, rho: float) -> float:
    """P(Z1 <= t1, Z2 <= t2) for standard Gaussians with correlation rho.

    Single-integral reduction over theta with rho = sin(theta):
    Phi(t1) Phi(t2) + (1/2 pi) int_0^{asin rho} exp(-(t1^2 + t2^2
    - 2 t1 t2 sin theta) / (2 cos^2 theta)) d theta.
    """
    if not -1.0 <= rho <= 1.0:
        raise ValueError(f"correlation must lie in [-1, 1], got {rho}")
    if rho == 1.0:
        return norm_cdf(min(t1, t2))
    if rho == -1.0:
        return max(0.0, norm_cdf(t1) + norm_cdf(t2) - 1.0)
    half = 0.5 * math.asin(rho)
    theta = half * (_GL_NODES + 1.0)
    cos2 = np.cos(theta) ** 2
    expo = -(t1 * t1 + t2 * t2 - 2.0 * t1 * t2 * np.sin(theta)) / (2.0 * cos2)
    integral = half * float(np.dot(_GL_WEIGHTS, np.exp(expo)))
    return norm_cdf(t1) * norm_cdf(t2) + integral / (2.0 * math.pi)


class MajorityAsymptotics(NamedTuple):
    ns: float
    revenue: float
    revenue_normalized: float


def majority_asymptotics(delta: float, n: int) -> MajorityAsymptotics:
    """Large-n behavior of the simple majority rule.

    Noise sensitivity tends to arccos(1-2 delta)/pi, taken as
    2 atan2(sqrt(delta), sqrt(1-delta))/pi: no cancellation at small delta, and
    exact at delta = 0 and 1/2. Expected revenue grows like
    (1-2 delta) sqrt(n / 2 pi), i.e. normalized revenue 1/sqrt(2 pi).
    """
    if not 0.0 <= delta <= 0.5:
        raise ValueError(f"delta must lie in [0, 0.5], got {delta}")
    ns = 2.0 * math.atan2(math.sqrt(delta), math.sqrt(1.0 - delta)) / math.pi
    return MajorityAsymptotics(ns, (1.0 - 2.0 * delta) * math.sqrt(n / (2.0 * math.pi)), INV_SQRT_2PI)


def ltf_ns_asymptotic(r: float, delta: float) -> float:
    """Limiting noise sensitivity of the threshold rules raising normalized revenue r.

    Both optimal cutoffs -phi_inv(r) and +phi_inv(r) share the crossing mass
    2 P(Z1 <= -t < Z2) = (1/pi) int_{asin rho}^{pi/2} exp(-t^2 / (1 + sin theta)) d theta
    with t = phi_inv(r) and rho = 1 - 2 delta, a positive integrand. The interval
    has length acos(rho) = 2 asin(sqrt(delta)), taken in that form so no
    cancellation enters; the substitution phi = pi/2 - theta runs it from 0.
    """
    if not 0.0 < delta < 0.5:
        raise ValueError(f"delta must lie in (0, 0.5), got {delta}")
    t = phi_inv_plus(r)
    half = math.asin(math.sqrt(delta))
    phi = half * (_GL_NODES + 1.0)
    return half * float(np.dot(_GL_WEIGHTS, np.exp(-t * t / (1.0 + np.cos(phi))))) / math.pi


def alpha_limit(r: float) -> float:
    """Limit of the smallest mean among unit-range rules meeting revenue floor r."""
    return norm_ccdf(phi_inv_plus(r))


def privacy_convert(direction: str, value: float) -> float:
    """Map between the privacy budget eps and the flip probability delta.

    eps_to_delta returns the minimal delta attaining an eps-differentially
    private flip channel, delta = 1/(1 + e^eps); delta_to_eps inverts it,
    eps = log((1 - delta)/delta). Both are evaluated in forms with no
    intermediate overflow and no cancellation: e^-eps/(1 + e^-eps), and
    log1p(-delta) - log(delta) below delta = 1/4 (where 1/delta may overflow)
    or log1p((1 - 2 delta)/delta) above it (where 1 - 2 delta is exact).
    """
    if direction == "eps_to_delta":
        if value <= 0.0:
            raise ValueError("eps must be positive (otherwise delta >= 1/2, outside the model)")
        tail = math.exp(-value)
        return tail / (1.0 + tail)
    if direction == "delta_to_eps":
        if not 0.0 < value < 0.5:
            raise ValueError(f"delta must lie in (0, 0.5), got {value}")
        if value < 0.25:
            return math.log1p(-value) - math.log(value)
        return math.log1p((1.0 - 2.0 * value) / value)
    raise ValueError(f"unknown direction: {direction!r}")
