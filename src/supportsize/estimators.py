"""Support-size and unseen-species estimators on fingerprints.

Four estimators: the plug-in (number of distinct observed symbols), the Chao
ratio phi_1^2 / (2 phi_2), the modified Chao ratio with denominator
2 (phi_2 + 1) which is always defined, and the Chebyshev linear estimator
whose coefficients come from a shifted-and-scaled Chebyshev polynomial.

Each is defined once, in unseen_estimates, which maps a (rows x W) occupancy
matrix to one unseen-symbol estimate per row, selected by estimator id. The
two entry points are unseen_estimates itself, which the Monte Carlo harness
calls once per (cell, estimator) on every trial of the cell, and
support_estimate, its one-row call on a single fingerprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import Chebyshev, Polynomial

from .distributions import check_k
from .poisson_model import Fingerprint, check_n

ESTIMATOR_IDS = ("plugin", "chao", "modified_chao", "chebyshev")

DEFAULT_C0 = 0.45
DEFAULT_C1 = 0.5


class UndefinedEstimateError(ZeroDivisionError):
    """The Chao estimator is undefined when phi_2 = 0."""


@dataclass(frozen=True)
class EstimatorOutput:
    value: float
    estimator_id: str


def _degree(k: int, c0: float) -> int:
    """The Chebyshev degree cutoff L = floor(c0 log k)."""
    return math.floor(c0 * math.log(k))


def occupancy_width(k: int | None = None) -> int:
    """Columns phi_0..phi_{W-1} that unseen_estimates reads for any estimator.

    Every estimator reads phi_1 and phi_2; the Chebyshev estimator at support
    bound k also reads phi_1..phi_L, L = floor(DEFAULT_C0 log k).
    """
    if k is None or k < 2:
        return 3
    return max(3, _degree(k, DEFAULT_C0) + 1)


def unseen_estimates(
    occupancy,
    seen,
    estimator_id: str,
    *,
    k: int | None = None,
    n: float | None = None,
) -> np.ndarray:
    """Unseen-symbol estimate of every row of a truncated occupancy matrix.

    occupancy[t, i] is phi_i of fingerprint t for i < W, with W at least
    occupancy_width(k); column 0 is never read, so the latent phi_0 may
    sit there. seen[t] is the plug-in count of fingerprint t, the sum of
    phi_i over every i >= 1, counts at or beyond W included.

    plugin: 0. chao: phi_1^2 / (2 phi_2), NaN where phi_2 = 0.
    modified_chao: phi_1^2 / (2 (phi_2 + 1)). chebyshev (needs k and n):
    max(sum_{i<=L} (g_i - 1) phi_i, -seen), so seen + unseen is the linear
    estimator sum_i g_i phi_i (g_i = 1 beyond L) clamped at zero, as its
    alternating coefficients can dip below any attainable support. Each row
    is summed alone; BLAS (a matrix product) rounds a row by batch shape.
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
        g = chebyshev_coefficients(k, float(n))
        if occupancy.shape[1] <= len(g):
            raise ValueError(
                f"chebyshev reads phi_1..phi_{len(g)}; occupancy has only "
                f"{occupancy.shape[1]} columns"
            )
        correction = ((g - 1.0) * occupancy[:, 1 : len(g) + 1]).sum(axis=1)
        return np.maximum(correction, -np.asarray(seen, dtype=float))
    raise ValueError(f"unknown unseen estimator {estimator_id!r}")


def support_estimate(
    fp: Fingerprint,
    estimator_id: str,
    *,
    k: int | None = None,
    n: float | None = None,
) -> EstimatorOutput:
    """Plug-in count plus the selected unseen-symbol estimate (0 for plugin),
    from a one-row call of unseen_estimates.

    The chebyshev choice is a direct linear support estimator and requires
    k and n. The chao choice raises UndefinedEstimateError when phi_2 = 0.
    k and n are checked whenever they are given, whichever the estimator.
    """
    if k is not None:
        check_k(k)
    if n is not None:
        check_n(n)
    row = [[fp.phi.get(i, 0) for i in range(occupancy_width(k))]]
    seen = sum(fp.phi.values())
    unseen = float(unseen_estimates(row, [seen], estimator_id, k=k, n=n)[0])
    if math.isnan(unseen):
        raise UndefinedEstimateError("phi_2 = 0")
    return EstimatorOutput(value=float(seen) + unseen, estimator_id=estimator_id)


@lru_cache(maxsize=256)
def chebyshev_coefficients(
    k: int, n: float, c0: float = DEFAULT_C0, c1: float = DEFAULT_C1
) -> np.ndarray:
    """Linear-estimator coefficients g_1..g_L for counts up to the degree
    cutoff L = floor(c0 log k); counts above L keep coefficient 1.

    Built from the degree-L Chebyshev polynomial shifted to the interval
    [1/k, c1 log k / n] and rescaled so the estimator interpolates between
    aggressive extrapolation on rare symbols and the plug-in on common ones:
    with p_j the power-series coefficients of that polynomial in y = n x,
    g_j = 1 - j! p_j / p_0.
    Returns an empty array (pure plug-in) when the degree cutoff is below 1
    or the interval degenerates, which happens once n is large enough that
    every symbol is well sampled. k and n are checked as every entry point
    checks them.
    """
    check_k(k)
    check_n(n)
    if not (0 < c0 < math.inf and 0 < c1 < math.inf):
        raise ValueError(f"c0 and c1 must be positive and finite, got {c0}, {c1}")
    L = _degree(k, c0)
    if L < 1 or c1 * math.log(k) / n <= 1.0 / k:
        return np.zeros(0)
    domain = [n / k, c1 * math.log(k)]
    p = Chebyshev.basis(L, domain=domain).convert(kind=Polynomial).coef
    coeffs = 1.0 - np.cumprod(np.arange(1.0, L + 1)) * p[1:] / p[0]
    coeffs.flags.writeable = False
    return coeffs

