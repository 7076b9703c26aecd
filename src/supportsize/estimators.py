"""Support-size and unseen-species estimators on fingerprints.

Four estimators: the plug-in (number of distinct observed symbols), the Chao
ratio phi_1^2 / (2 phi_2), the modified Chao ratio with denominator
2 (phi_2 + 1) which is always defined, and the Chebyshev linear estimator
whose coefficients come from a shifted-and-scaled Chebyshev polynomial.

Each is defined once, in unseen_estimates, which maps a (rows x W) occupancy
matrix to one unseen-symbol estimate per row. The single-fingerprint
functions are one-row calls of it, and the Monte Carlo harness calls it once
per (cell, estimator) on every trial of the cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import binom

from .poisson_model import Fingerprint

ESTIMATOR_IDS = ("plugin", "chao", "modified_chao", "chebyshev")

DEFAULT_C0 = 0.45
DEFAULT_C1 = 0.5


class UndefinedEstimateError(ZeroDivisionError):
    """The Chao estimator is undefined when phi_2 = 0."""


@dataclass(frozen=True)
class EstimatorOutput:
    value: float
    estimator_id: str


def plugin_support(fp: Fingerprint) -> float:
    """Number of distinct observed symbols, sum of phi_i for i >= 1."""
    return float(sum(fp.phi.values()))


def _degree(k: int, c0: float) -> int:
    """The Chebyshev degree cutoff L = floor(c0 log k)."""
    return math.floor(c0 * math.log(k))


def occupancy_width(k: int | None = None, c0: float = DEFAULT_C0) -> int:
    """Columns phi_0..phi_{W-1} that unseen_estimates reads for any estimator.

    Every estimator reads phi_1 and phi_2; the Chebyshev estimator at support
    bound k also reads phi_1..phi_L, L = floor(c0 log k).
    """
    if k is None or k < 2:
        return 3
    return max(3, _degree(k, c0) + 1)


def unseen_estimates(
    occupancy,
    seen,
    estimator_id: str,
    *,
    k: int | None = None,
    n: float | None = None,
    c0: float = DEFAULT_C0,
    c1: float = DEFAULT_C1,
) -> np.ndarray:
    """Unseen-symbol estimate of every row of a truncated occupancy matrix.

    occupancy[t, i] is phi_i of fingerprint t for i < W, with W at least
    occupancy_width(k, c0); column 0 is never read, so the latent phi_0 may
    sit there. seen[t] is the plug-in count of fingerprint t, the sum of
    phi_i over every i >= 1, counts at or beyond W included.

    plugin: 0. chao: phi_1^2 / (2 phi_2), NaN where phi_2 = 0.
    modified_chao: phi_1^2 / (2 (phi_2 + 1)). chebyshev (needs k and n):
    max(seen + sum_{i<=L} (g_i - 1) phi_i, 0) - seen with an exactly rounded
    sum, so the support estimate seen + unseen is the linear estimator
    sum_i g_i phi_i (g_i = 1 beyond L) clamped at zero: the coefficients
    alternate in sign, so unlucky fingerprints can otherwise dip below any
    attainable support.
    """
    occupancy = np.asarray(occupancy, dtype=np.int64)
    if occupancy.ndim != 2 or occupancy.shape[1] < 3:
        raise ValueError(
            f"occupancy must be 2-D with >= 3 columns, got {occupancy.shape}"
        )
    phi1, phi2 = occupancy[:, 1], occupancy[:, 2]
    if estimator_id == "plugin":
        return np.zeros(len(occupancy))
    if estimator_id == "chao":
        out = np.full(len(occupancy), np.nan)
        return np.divide(phi1 * phi1, 2.0 * phi2, out=out, where=phi2 != 0)
    if estimator_id == "modified_chao":
        return phi1 * phi1 / (2.0 * (phi2 + 1))
    if estimator_id == "chebyshev":
        if k is None or n is None:
            raise ValueError("chebyshev estimator requires k and n")
        if k < 2 or not n > 0:
            raise ValueError("chebyshev estimator requires k >= 2 and n > 0")
        if c0 <= 0 or c1 <= 0:
            raise ValueError("c0 and c1 must be positive")
        g = chebyshev_coefficients(k, float(n), c0, c1)
        if occupancy.shape[1] <= len(g):
            raise ValueError(
                f"chebyshev reads phi_1..phi_{len(g)}; occupancy has only "
                f"{occupancy.shape[1]} columns"
            )
        terms = (g - 1.0) * occupancy[:, 1 : len(g) + 1]
        correction = np.array([math.fsum(row) for row in terms.tolist()])
        seen = np.asarray(seen, dtype=float)
        return np.maximum(seen + correction, 0.0) - seen
    raise ValueError(f"unknown unseen estimator {estimator_id!r}")


def _unseen_one_row(
    fp: Fingerprint, estimator_id: str, k=None, n=None,
    c0: float = DEFAULT_C0, c1: float = DEFAULT_C1,
) -> float:
    """unseen_estimates on one fingerprint; raises where chao is undefined."""
    row = [[fp.phi.get(i, 0) for i in range(occupancy_width(k, c0))]]
    seen = [sum(fp.phi.values())]
    value = float(
        unseen_estimates(row, seen, estimator_id, k=k, n=n, c0=c0, c1=c1)[0]
    )
    if math.isnan(value):
        raise UndefinedEstimateError("phi_2 = 0")
    return value


def chao_unseen(fp: Fingerprint) -> float:
    """phi_1^2 / (2 phi_2); raises when phi_2 = 0."""
    return _unseen_one_row(fp, "chao")


def modified_chao_unseen(fp: Fingerprint) -> float:
    """phi_1^2 / (2 (phi_2 + 1)); defined on every fingerprint."""
    return _unseen_one_row(fp, "modified_chao")


def support_estimate(
    fp: Fingerprint,
    unseen: str,
    *,
    k: int | None = None,
    n: float | None = None,
    c0: float = DEFAULT_C0,
    c1: float = DEFAULT_C1,
) -> EstimatorOutput:
    """Plug-in count plus the selected unseen-symbol estimate (0 for plugin).

    The chebyshev choice is a direct linear support estimator and requires
    k and n. The chao choice propagates UndefinedEstimateError.
    """
    value = plugin_support(fp) + _unseen_one_row(fp, unseen, k, n, c0, c1)
    return EstimatorOutput(value=value, estimator_id=unseen)


def _shift_polynomial(coeffs: np.ndarray, shift: float) -> np.ndarray:
    """Coefficients of p(x + shift) in the monomial basis."""
    out = np.zeros_like(coeffs)
    for i in range(len(coeffs)):
        for j in range(i + 1):
            out[j] += coeffs[i] * shift ** (i - j) * binom(i, j)
    return out


@lru_cache(maxsize=256)
def chebyshev_coefficients(
    k: int, n: float, c0: float = DEFAULT_C0, c1: float = DEFAULT_C1
) -> np.ndarray:
    """Linear-estimator coefficients g_1..g_L for counts up to the degree
    cutoff L = floor(c0 log k); counts above L keep coefficient 1.

    Built from the degree-L Chebyshev polynomial shifted to the interval
    [1/k, c1 log k / n] and rescaled so the estimator interpolates between
    aggressive extrapolation on rare symbols and the plug-in on common ones.
    Returns an empty array (pure plug-in) when the degree cutoff is below 1
    or the interval degenerates, which happens once n is large enough that
    every symbol is well sampled.
    """
    L = _degree(k, c0)
    left, right = 1.0 / k, c1 * math.log(k) / n
    if L < 1 or right <= left:
        return np.zeros(0)
    cheb_coeffs = np.polynomial.chebyshev.cheb2poly(
        np.polynomial.chebyshev.Chebyshev.basis(L).coef
    )
    shift = (right + left) / (right - left)
    scaling = 2.0 / (n * (right - left))
    a = _shift_polynomial(cheb_coeffs, -shift)
    g = -a / a[0]
    g[0] = 0.0
    for j in range(1, L + 1):
        for i in range(1, j + 1):
            g[j] *= i * scaling
        g[j] += 1.0
    coeffs = g[1:]
    coeffs.flags.writeable = False
    return coeffs


def chebyshev_support(
    fp: Fingerprint,
    k: int,
    n: float,
    c0: float = DEFAULT_C0,
    c1: float = DEFAULT_C1,
) -> EstimatorOutput:
    """Chebyshev linear support estimator, sum of g_i * phi_i, clamped at
    zero (see unseen_estimates)."""
    return support_estimate(fp, "chebyshev", k=k, n=n, c0=c0, c1=c1)
