"""Closed-form worst-case MSE bounds for the plug-in and modified Chao
estimators, plus the root constant alpha and the sigma correction term.

Two coefficient sets coexist on purpose: the combined modified-Chao bound
carries 22.21 k^2/n^2 while the low-collision bound it derives from carries
21.21 k^2/n^2. Both are exposed verbatim; the combined bound uses the larger
(conservative) value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .distributions import DiscreteDistribution
from .poisson_model import check_n, expected_prevalence, prevalence_second_moment

#: sigma for the Chao functional (beta_2 = 1): 1/sqrt(4 pi).
SIGMA_CHAO = 1.0 / math.sqrt(4.0 * math.pi)


class BoundInapplicableError(ValueError):
    """A bound hypothesis (e.g. a collision-count threshold) is violated."""


@dataclass(frozen=True)
class BoundReport:
    """Named collection of bound values for one (n, k), optionally with the
    moment-dependent collision bounds when a distribution is supplied."""

    n: float
    k: int
    plugin_lower: float
    plugin_upper: float
    chao_worst_case: float | None
    epsilon_term: float | None
    bias_lower: float
    bias_upper: float
    bias_sq_upper: float
    low_collision: float | None = None
    high_collision: float | None = None

    FIELDS = (
        "plugin_lower",
        "plugin_upper",
        "chao_worst_case",
        "epsilon_term",
        "bias_lower",
        "bias_upper",
        "bias_sq_upper",
        "low_collision",
        "high_collision",
    )


def _check_n_k(n: float, k: int, *, allow_zero_n: bool = False) -> None:
    """Bound entry points take a finite n > 0 (n >= 0 where the bound is
    defined at n = 0) and k >= 2."""
    check_n(n, allow_zero=allow_zero_n)
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")


@lru_cache(maxsize=1)
def solve_alpha() -> float:
    """Unique positive root of u^2 = 4 e^{-(u+2)}, about 0.5569.

    Bracketed bisection on [0.1, 1.0] to 1e-12 absolute; computed once and
    memoized so downstream bounds never inherit the 4-digit literal.
    """
    f = lambda u: u * u - 4.0 * math.exp(-(u + 2.0))
    lo, hi = 0.1, 1.0
    assert f(lo) < 0 < f(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sigma_of(coeffs) -> float:
    """beta_0 + sum_{i>=1} beta_i / sqrt(2 pi i) for coefficients in [0,1]."""
    coeffs = list(coeffs)
    if any(b < 0 or b > 1 for b in coeffs):
        raise ValueError("coefficients must lie in [0, 1]")
    if not coeffs:
        return 0.0
    return coeffs[0] + math.fsum(
        b / math.sqrt(2.0 * math.pi * i) for i, b in enumerate(coeffs[1:], start=1)
    )


def plugin_mse_bounds(n: float, k: int) -> tuple[float, float]:
    """Worst-case plug-in MSE bracket (lower, upper).

    upper = k^2 e^{-2n/k} + k e^{-n/k}; lower subtracts k e^{-2n/k} and is
    attained exactly by the uniform distribution on k symbols.
    """
    _check_n_k(n, k, allow_zero_n=True)
    e1 = math.exp(-n / k)
    e2 = math.exp(-2.0 * n / k)
    upper = k * k * e2 + k * e1
    return upper - k * e2, upper


def epsilon_term(n: float, k: int) -> float:
    """The additive error term in the modified-Chao worst-case bound."""
    _check_n_k(n, k)
    thresh = n ** 0.8 - math.sqrt(4.0 / math.pi)
    if thresh <= 0:
        raise BoundInapplicableError(
            f"needs n^(4/5) > sqrt(4/pi); n={n} is too small"
        )
    return (
        4.0 * k**4 / thresh**3
        + 32.28 * k**4 / n**2.4
        + 98.97 * k**3 / n**2.2
        + 2.0 * k**2 / n**1.2
        + 1.77 * k / n**0.2
        + 22.21 * k**2 / n**2
    )


def chao_mse_leading_term(n: float, k: int) -> float:
    """The dominant term of the modified-Chao worst-case MSE bound."""
    _check_n_k(n, k)
    alpha = solve_alpha()
    return k * k * (1.0 + n / (k * alpha)) ** -4 * math.exp(-2.0 * n / k)


def chao_mse_upper(n: float, k: int) -> tuple[float, float]:
    """Worst-case MSE bound for the modified Chao estimator.

    Returns (total, epsilon) where total = leading term + epsilon.
    Raises BoundInapplicableError when n is too small for the epsilon
    denominator to be positive.
    """
    eps = epsilon_term(n, k)
    return chao_mse_leading_term(n, k) + eps, eps


def high_collision_bound(
    e_phi1_sq: float, e_phi2: float, e_phi0: float, k: int
) -> float:
    """MSE bound from exact moments when collisions are plentiful.

    Valid when E[phi_2] > 4 sigma_Chao; equals squared bias plus
    4 k^4 / (E[phi_2] - 4 sigma_Chao)^3.
    """
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    gap = e_phi2 - 4.0 * SIGMA_CHAO
    if gap <= 0:
        raise BoundInapplicableError(
            f"needs E[phi_2] > 4 sigma_Chao = {4 * SIGMA_CHAO:.4f}, got {e_phi2}"
        )
    bias = e_phi1_sq / (2.0 * e_phi2) - e_phi0
    return bias * bias + 4.0 * k**4 / gap**3


def bias_bounds(n: float, k: int) -> tuple[float, float, float]:
    """(lower, upper, sq_upper) for E[phi_1^2]/(2 E[phi_2]) - E[phi_0].

    lower = -k e^{-n/k} / (1 + n/(k alpha))^2, upper = k/n, and sq_upper
    bounds the square of the bias term.
    """
    _check_n_k(n, k)
    alpha = solve_alpha()
    denom = 1.0 + n / (k * alpha)
    lower = -k * math.exp(-n / k) / denom**2
    upper = k / n
    sq_upper = k * k * math.exp(-2.0 * n / k) / denom**4 + k * k / (n * n)
    return lower, upper, sq_upper


#: 1 / (1 - 2 e^{-2})^4, the conditional-moment inflation constant.
LOW_COLLISION_A = 1.0 / (1.0 - 2.0 * math.exp(-2.0)) ** 4


def low_collision_bound(e_phi2: float, n: float, k: int) -> float:
    """MSE bound as a quadratic in E[phi_2], valid for any distribution."""
    _check_n_k(n, k)
    a = LOW_COLLISION_A
    r = k / n
    return (
        (4.0 + 8.0 * a) * r**4 * e_phi2**2
        + (28.0 * a * r**3 + 2.0 * r**2 + 0.5 * a * r) * e_phi2
        + 6.0 * a * r**2
    )


def low_collision_bound_at_threshold(n: float, k: int) -> float:
    """The low-collision bound with E[phi_2] replaced by its n^(4/5) cap,
    using the rounded coefficients as published (21.21 k^2/n^2 term)."""
    _check_n_k(n, k)
    if n < 1:
        raise ValueError("n must be >= 1")
    return (
        32.28 * k**4 / n**2.4
        + 98.97 * k**3 / n**2.2
        + 2.0 * k**2 / n**1.2
        + 1.77 * k / n**0.2
        + 21.21 * k**2 / n**2
    )


def bound_report(
    n: float, k: int, P: DiscreteDistribution | None = None
) -> BoundReport:
    """Evaluate every closed-form bound at (n, k).

    When P is given, the collision-regime bounds are evaluated with exact
    moments of P; the high-collision bound stays None if its hypothesis
    fails, and the combined worst-case total stays None when n is too small.
    """
    _check_n_k(n, k)
    plugin_lower, plugin_upper = plugin_mse_bounds(n, k)
    try:
        total, eps = chao_mse_upper(n, k)
    except BoundInapplicableError:
        total, eps = None, None
    bias_lower, bias_upper, bias_sq_upper = bias_bounds(n, k)

    low = high = None
    if P is not None:
        e0 = expected_prevalence(P, n, 0)
        e2 = expected_prevalence(P, n, 2)
        e1sq = prevalence_second_moment(P, n, 1)
        low = low_collision_bound(e2, n, k)
        try:
            high = high_collision_bound(e1sq, e2, e0, k)
        except BoundInapplicableError:
            high = None

    return BoundReport(
        n=n,
        k=k,
        plugin_lower=plugin_lower,
        plugin_upper=plugin_upper,
        chao_worst_case=total,
        epsilon_term=eps,
        bias_lower=bias_lower,
        bias_upper=bias_upper,
        bias_sq_upper=bias_sq_upper,
        low_collision=low,
        high_collision=high,
    )
