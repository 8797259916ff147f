"""Reference evaluators written apart from noisemech.

Every program output the benchmark checks is compared with one of these.
None of them imports noisemech or repeats its algorithms:

- the joint vote-count law is built row by row: row j is C(n, j) / 2^n
  times the convolution Bin(j, 1 - delta) * Bin(n - j, delta), where the
  program runs a dynamic program over coordinates;
- dense statistics reshape the truth table to (2,) * n and apply the 2 x 2
  flip matrix along each axis, with no Walsh transform;
- cutoff and anonymous-rule statistics are exact integers from math.comb,
  rounded once to floating point.

Dense helpers accept a leading batch axis, so the n = 4 oracle check can
evaluate all 2^16 Boolean rules at once.
"""

from __future__ import annotations

import math

import numpy as np

INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


# ---------------------------------------------------------------- counts


def log_factorials(n: int) -> np.ndarray:
    """log(k!) for k = 0..n."""
    return np.concatenate(([0.0], np.cumsum(np.log(np.arange(1, n + 1, dtype=np.float64)))))


def count_weights(n: int) -> np.ndarray:
    """C(n, m) / 2^n for m = 0..n, each correctly rounded from exact integers."""
    return np.array([math.comb(n, m) / 2**n for m in range(n + 1)])


def joint_law(n: int, delta: float) -> np.ndarray:
    """P(m_x = j, m_y = k) by row convolution of two binomial laws."""
    lf = log_factorials(n)
    log_p, log_q = math.log(1.0 - delta), math.log(delta)

    def binomial(m: int, log_a: float, log_b: float) -> np.ndarray:
        k = np.arange(m + 1)
        return np.exp(lf[m] - lf[k] - lf[m - k] + k * log_a + (m - k) * log_b)

    weights = count_weights(n)
    law = np.empty((n + 1, n + 1))
    for j in range(n + 1):
        # the j +1 coordinates stay +1 w.p. 1 - delta; the n - j others flip to +1 w.p. delta
        law[j] = weights[j] * np.convolve(binomial(j, log_p, log_q), binomial(n - j, log_q, log_p))
    return law


def cutoff_ns(law: np.ndarray) -> np.ndarray:
    """Noise sensitivity of every cutoff rule 1{m >= j}, j = 0..n, from a joint law."""
    tail_rows = law[::-1].cumsum(axis=0)[::-1]  # P(m_x >= j, m_y = k)
    both = np.array([tail_rows[j, j:].sum() for j in range(law.shape[0])])
    return 2.0 * (tail_rows.sum(axis=1) - both)


def cutoff_stats(n: int) -> tuple[np.ndarray, np.ndarray]:
    """(P(m >= j), E[(2m - n) 1{m >= j}]) for j = 0..n, exact then rounded once."""
    mean, efnu = np.empty(n + 1), np.empty(n + 1)
    tail, tail_nu = 0, 0
    for m in range(n, -1, -1):
        c = math.comb(n, m)
        tail += c
        tail_nu += (2 * m - n) * c
        mean[m], efnu[m] = tail / 2**n, tail_nu / 2**n
    return mean, efnu


def anonymous_stats(g: np.ndarray) -> tuple[float, float, bool]:
    """(E[f], E[f sum x], marginally monotone) of a Boolean count rule, exactly."""
    n = g.size - 1
    ones = [m for m in range(n + 1) if g[m]]
    total = sum(math.comb(n, m) for m in ones)
    total_nu = sum((2 * m - n) * math.comb(n, m) for m in ones)
    return total / 2**n, total_nu / 2**n, total_nu >= 0


def mean_coef(b: float, delta: float, setting: str) -> float:
    """Coefficient of E[f] in the revenue index."""
    return (b - 1.0) / 2.0 + (delta if setting == "imperfect-knowledge" else 0.0)


# ----------------------------------------------------------------- dense


def _cube(values: np.ndarray, n: int) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return values.reshape(values.shape[:-1] + (2,) * n)


def _axis(i: int) -> int:
    # index bit i is coordinate i; a C-order reshape puts bit 0 on the last axis
    return -(i + 1)


def flip_channel(values: np.ndarray, n: int, delta: float) -> np.ndarray:
    """E[f(y) | x] under independent flips with probability delta."""
    cube = _cube(values, n)
    for i in range(n):
        cube = (1.0 - delta) * cube + delta * np.flip(cube, axis=_axis(i))
    return cube.reshape(np.shape(values))


def dense_ns(values: np.ndarray, n: int, delta: float) -> np.ndarray:
    """P(f(x) != f(y)) = 2 (E[f] - E[f(x) f(y)]) of Boolean truth tables."""
    stab = (values * flip_channel(values, n, delta)).mean(axis=-1)
    return 2.0 * (np.mean(values, axis=-1) - stab)


def dense_degree1(values: np.ndarray, n: int) -> np.ndarray:
    """2^n E[f x_i] for each coordinate i (exact for integer tables)."""
    cube = np.asarray(values).reshape(np.shape(values)[:-1] + (2,) * n)
    return np.stack(
        [(np.take(cube, 1, axis=_axis(i)) - np.take(cube, 0, axis=_axis(i)))
         .reshape(np.shape(values)[:-1] + (-1,)).sum(axis=-1) for i in range(n)],
        axis=-1,
    )


def dense_influences(values: np.ndarray, n: int) -> np.ndarray:
    """E[(D_i f)^2] with D_i f = (f(x^{i->+1}) - f(x^{i->-1})) / 2."""
    cube = _cube(values, n)
    return np.array([
        ((np.take(cube, 1, axis=_axis(i)) - np.take(cube, 0, axis=_axis(i))) ** 2).mean() / 4.0
        for i in range(n)
    ])


def dense_monotone(values: np.ndarray, n: int) -> bool:
    cube = _cube(values, n)
    return all((np.take(cube, 1, axis=_axis(i)) >= np.take(cube, 0, axis=_axis(i))).all() for i in range(n))


def coordinate(n: int, i: int) -> np.ndarray:
    """x_i = +1 (True) or -1 (False) at every point index of the n-cube."""
    return ((np.arange(1 << n) >> i) & 1).astype(bool)
