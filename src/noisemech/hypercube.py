"""Functions on the Boolean hypercube {-1,+1}^n and their Walsh expansions.

Two representations coexist. A dense truth table (n <= 24) stores one value
per point of the cube and supports the full Walsh transform. An anonymous,
count-indexed table g[m] (value when exactly m coordinates equal +1) scales
to n around 10^6 and is exact for every statistic that only depends on the
vote count, which is all the mechanism layer ever needs at large n.

Index convention for dense tables: index k encodes the point whose i-th
coordinate is +1 iff bit i of k is set (little-endian, bit i <-> coordinate i).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Union

import numpy as np

MAX_DENSE_N = 24
MAX_ANONYMOUS_N = 10**6

# Slack allowed on marginal coefficients before a function is declared
# non-monotone; implementability predicates gate the optimizers and must
# not flap on float noise.
MONOTONE_TOL = 1e-12

_BOOL_SET = (0.0, 1.0)


@lru_cache(maxsize=32)
def popcounts(n: int) -> np.ndarray:
    """popcount(k) for every k in [0, 2^n), as an immutable int64 array."""
    idx = np.arange(1 << n, dtype=np.int64)
    pc = np.zeros(1 << n, dtype=np.int64)
    for i in range(n):
        pc += (idx >> i) & 1
    pc.setflags(write=False)
    return pc


def binomial_weights(n: int) -> np.ndarray:
    """C(n, m) / 2^n for m = 0..n, as neighbour ratios outward from the central count c = n // 2.

    The ratios (n-m)/(m+1) going up and m/(n-m+1) going down are all <= 1, so
    each side is one cumprod with no cancellation or overflow; dividing by the
    sum normalises. Relative error stays below 1e-14 on cells above 1e-300 up to n = 10^6.
    """
    c = n // 2
    up, down = np.arange(c, n), np.arange(c, 0, -1)
    w = np.concatenate((np.cumprod(down / (n + 1.0 - down))[::-1], [1.0], np.cumprod((n - up) / (up + 1.0))))
    return w / w.sum()


def walsh(values: np.ndarray, inverse: bool = False) -> np.ndarray:
    """In-place-style fast Walsh kernel along the last axis, O(n 2^n).

    Forward applies the character matrix M[S, k] = chi_S(x_k); dividing the
    result by 2^n yields Fourier coefficients. Inverse applies M^T, which
    reconstructs point values from coefficients exactly (M M^T = 2^n I).
    """
    out = np.array(values, dtype=np.float64)
    size = out.shape[-1]
    n = size.bit_length() - 1
    if size != 1 << n:
        raise ValueError("last axis length must be a power of two")
    lead = out.shape[:-1]
    out = out.reshape(-1, size)
    for bit in range(n):
        v = out.reshape(out.shape[0], size >> (bit + 1), 2, 1 << bit)
        lo = v[:, :, 0, :].copy()
        hi = v[:, :, 1, :].copy()
        if inverse:
            v[:, :, 0, :] = lo - hi
            v[:, :, 1, :] = lo + hi
        else:
            v[:, :, 0, :] = lo + hi
            v[:, :, 1, :] = hi - lo
    return out.reshape(*lead, size)


def half_split(values: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Truth-table entries at x_i = -1 and at x_i = +1, paired by context.

    Works on any dtype and on index arrays alike; the two halves are views.
    """
    v = values.reshape(values.size >> (i + 1), 2, 1 << i)
    return v[:, 0, :], v[:, 1, :]


def _freeze(a: np.ndarray, what: str) -> np.ndarray:
    a = np.array(a, dtype=np.float64)
    if not np.isfinite(a).all():
        raise ValueError(f"{what} must be finite reals")
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class DenseFunction:
    """A real-valued function on {-1,+1}^n stored as a full truth table.

    Its Walsh spectrum is computed on first use and kept, a second 2^n table.
    """

    n: int
    values: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSE_N:
            raise ValueError(f"dense dimension must be in [1, {MAX_DENSE_N}], got {self.n}")
        vals = _freeze(self.values, "dense values")
        if vals.ndim != 1 or vals.size != 1 << self.n:
            raise ValueError(f"values must have length 2^{self.n}")
        object.__setattr__(self, "values", vals)

    @property
    def is_boolean(self) -> bool:
        return bool(np.isin(self.values, _BOOL_SET).all())

    @property
    def is_unit_range(self) -> bool:
        return bool((self.values >= 0.0).all() and (self.values <= 1.0).all())

    def mean(self) -> float:
        return float(self.values.mean())

    def degree1(self) -> np.ndarray:
        """E[f(x) x_i] for each coordinate i."""
        return _degree1_sums(self.values) / self.values.size

    def mean_nu(self) -> float:
        """E[f(x) sum_i x_i], the sum of the degree-1 coefficients."""
        return float(self.degree1().sum())

    @cached_property
    def spectrum(self) -> FourierSpectrum:
        """Walsh expansion: coeffs[S] = E[f(x) chi_S(x)] under the uniform measure."""
        return FourierSpectrum(self.n, walsh(self.values) / self.values.size)


@dataclass(frozen=True, eq=False)
class FourierSpectrum:
    """Walsh coefficients indexed by subset bitmask S (bit i <-> coordinate i)."""

    n: int
    coeffs: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_DENSE_N:
            raise ValueError(f"dimension must be in [1, {MAX_DENSE_N}], got {self.n}")
        c = _freeze(self.coeffs, "Fourier coefficients")
        if c.ndim != 1 or c.size != 1 << self.n:
            raise ValueError(f"coeffs must have length 2^{self.n}")
        object.__setattr__(self, "coeffs", c)

    def weight_by_degree(self) -> np.ndarray:
        """Total squared coefficient mass at each degree 0..n."""
        pc = popcounts(self.n)
        return np.bincount(pc, weights=self.coeffs**2, minlength=self.n + 1)

    def influences(self) -> np.ndarray:
        """Squared coefficient mass over the sets containing each coordinate 0..n-1."""
        c2 = self.coeffs**2
        return np.array([half_split(c2, i)[1].sum() for i in range(self.n)])

    def stability(self, rho: float) -> float:
        """sum_S rho^|S| coeffs[S]^2 = E[f(x) f(y)] for rho-correlated x and y."""
        return float((rho ** popcounts(self.n) * self.coeffs**2).sum())  # pairwise: np.dot errs 1e-12 at n = 24


def spectral_sensitivity(coeffs: np.ndarray, delta: float):
    """P(f(x) != f(y)) = 2 sum_S (1 - rho^|S|) coeffs[S]^2 for Boolean f, along the last axis.

    rho = 1 - 2 delta, and 1 - rho^k is summed as 2 delta (1 + rho + ... + rho^(k-1)):
    positive terms only, exact at delta = 0 and delta = 1/2. Takes one spectrum or a batch of rows.
    """
    n = coeffs.shape[-1].bit_length() - 1
    damp = 2.0 * delta * np.append(0.0, np.cumsum((1.0 - 2.0 * delta) ** np.arange(n)))
    ns = 2.0 * ((coeffs**2) @ damp[popcounts(n)])
    return float(ns) if ns.ndim == 0 else ns


@dataclass(frozen=True, eq=False)
class AnonymousFunction:
    """A function of the vote count m = #{i : x_i = +1}, values in [0, 1].

    The induced dense function is invariant under coordinate permutations,
    so every moment reduces to a weighted sum over the n+1 counts.
    """

    n: int
    g: np.ndarray

    def __post_init__(self):
        if not 1 <= self.n <= MAX_ANONYMOUS_N:
            raise ValueError(f"anonymous dimension must be in [1, {MAX_ANONYMOUS_N}], got {self.n}")
        g = _freeze(self.g, "anonymous values")
        if g.ndim != 1 or g.size != self.n + 1:
            raise ValueError(f"g must have length n+1 = {self.n + 1}")
        if (g < 0.0).any() or (g > 1.0).any():
            raise ValueError("anonymous values must lie in [0, 1]")
        object.__setattr__(self, "g", g)

    @property
    def is_boolean(self) -> bool:
        return bool(np.isin(self.g, _BOOL_SET).all())

    @property
    def is_unit_range(self) -> bool:
        return True

    def mean(self) -> float:
        return float(np.dot(self.g, binomial_weights(self.n)))

    def mean_nu(self) -> float:
        """E[f sum_i x_i] = sum_m g[m] (2m - n) C(n,m) / 2^n."""
        nu = 2.0 * np.arange(self.n + 1) - self.n
        return float(np.dot(self.g * nu, binomial_weights(self.n)))

    def degree1(self) -> np.ndarray:
        """E[f(x) x_i] for each coordinate i, the same for every i."""
        return np.full(self.n, self.mean_nu() / self.n)

    def to_dense(self) -> DenseFunction:
        if self.n > MAX_DENSE_N:
            raise ValueError(f"cannot densify beyond n = {MAX_DENSE_N}")
        return DenseFunction(self.n, self.g[popcounts(self.n)])


HypercubeFunction = Union[DenseFunction, AnonymousFunction]


def fourier_transform(f: DenseFunction) -> FourierSpectrum:
    """Walsh expansion of f, transformed once per function (see DenseFunction.spectrum)."""
    return f.spectrum


def inverse_fourier(s: FourierSpectrum) -> DenseFunction:
    """Pointwise reconstruction f(x) = sum_S coeffs[S] chi_S(x)."""
    return DenseFunction(s.n, walsh(s.coeffs, inverse=True))


def influence(f: DenseFunction, i: int) -> float:
    """Influence of coordinate i: sum of squared coefficients over sets containing i.

    Equals E[(D_i f)^2] for the discrete derivative
    D_i f = (f(x^{i->+1}) - f(x^{i->-1})) / 2.
    """
    if not 0 <= i < f.n:
        raise ValueError(f"coordinate must be in [0, {f.n}), got {i}")
    return float(influences(f)[i])


def influences(f: DenseFunction) -> np.ndarray:
    """All n coordinate influences in one transform."""
    return fourier_transform(f).influences()


def _degree1_sums(values: np.ndarray) -> np.ndarray:
    """2^n E[f x_i] per coordinate.

    Differences are taken per context before summing, so tables lose only
    rounding on f(+1, y) - f(-1, y), not on two large sums.
    """
    n = values.size.bit_length() - 1
    return np.array([(hi - lo).sum() for lo, hi in (half_split(values, i) for i in range(n))])


def monotonicity_check(f: HypercubeFunction, kind: str) -> bool:
    """Implementability predicates, decided in floating point with a -1e-12 slack.

    kind="monotone": f never falls when one coordinate moves from -1 to +1,
    in every context. kind="marginally-monotone": every degree-1 coefficient
    is nonnegative, i.e. the interim allocation rises with the report. For a
    Boolean rule at n <= 24 the context differences and 2^n E[f x_i] are
    integers, so a nonzero value is at least 2^-24 in size and the slack
    cannot flip a verdict.
    """
    if kind not in ("monotone", "marginally-monotone"):
        raise ValueError(f"unknown monotonicity kind: {kind!r}")
    if not f.is_unit_range:
        raise ValueError("monotonicity predicates are defined for unit-range functions")

    if kind == "marginally-monotone":
        return bool(np.all(f.degree1() >= -MONOTONE_TOL))
    if isinstance(f, AnonymousFunction):
        return bool((np.diff(f.g) >= -MONOTONE_TOL).all())
    return all((hi - lo).min() >= -MONOTONE_TOL
               for lo, hi in (half_split(f.values, i) for i in range(f.n)))


def threshold_function(n: int, theta: float) -> AnonymousFunction:
    """The rule 1{sum_i x_i >= theta}, stored anonymously (g[m] = 1 iff 2m-n >= theta)."""
    m = np.arange(n + 1)
    return AnonymousFunction(n, (2 * m - n >= theta).astype(np.float64))


def majority_function(n: int) -> AnonymousFunction:
    """Simple majority 1{sum_i x_i >= 0}."""
    return threshold_function(n, 0.0)


def build_function(spec: str) -> HypercubeFunction:
    """Parse the one-record function-spec text format.

    Lines of key=value pairs; '#' starts a comment, whitespace is ignored.
    kind=dense requires values=<2^n comma-separated reals>; kind=anonymous
    requires g=<n+1 reals in [0,1]>; kind=threshold requires theta=<real>.
    NaN and infinite values are rejected.
    """
    fields: dict[str, str] = {}
    for raw in spec.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed function-spec line: {raw!r}")
        key, value = line.split("=", 1)
        key = key.strip().lower()
        if key in fields:
            raise ValueError(f"duplicate key in function-spec: {key!r}")
        fields[key] = value.strip()

    kind = fields.get("kind")
    if kind not in ("dense", "anonymous", "threshold"):
        raise ValueError(f"kind must be dense, anonymous or threshold, got {kind!r}")
    if "n" not in fields:
        raise ValueError("function-spec is missing n=<int>")
    try:
        n = int(fields["n"])
    except ValueError:
        raise ValueError(f"n must be an integer, got {fields['n']!r}") from None

    def parse_list(key: str) -> np.ndarray:
        if key not in fields:
            raise ValueError(f"kind={kind} requires {key}=<comma list>")
        try:
            return np.array([float(tok) for tok in fields[key].split(",") if tok.strip() != ""])
        except ValueError:
            raise ValueError(f"could not parse {key} as a comma list of reals") from None

    if kind == "dense":
        return DenseFunction(n, parse_list("values"))
    if kind == "anonymous":
        return AnonymousFunction(n, parse_list("g"))
    if "theta" not in fields:
        raise ValueError("kind=threshold requires theta=<real>")
    try:
        theta = float(fields["theta"])
    except ValueError:
        raise ValueError(f"theta must be a real, got {fields['theta']!r}") from None
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {fields['theta']!r}")
    return threshold_function(n, theta)
