"""Poisson sampling, fingerprints, and exact prevalence moments.

Under Poisson sampling with expected sample size n, the multiplicity of each
supported symbol x is an independent Poisson(n * p_x) variable. The
fingerprint phi_i counts symbols seen exactly i times; phi_0 counts supported
but unseen symbols and is only available when the generating distribution is
known.

Moment calculators are exact closed forms: each phi_i is a sum of independent
Bernoulli indicators, so its mean and second moment follow from per-symbol
Poisson pmf values. Sums over symbols use math.fsum, which is exactly
rounded, so large supports do not accumulate error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .distributions import DiscreteDistribution, support_size


class UndefinedBiasError(ZeroDivisionError):
    """E[phi_2] is zero, so the collision-based bias expression is undefined."""


@dataclass(frozen=True)
class MultiplicitySample:
    """Per-symbol occurrence counts, one entry per supported symbol."""

    counts: np.ndarray

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.int64)
        counts.flags.writeable = False
        object.__setattr__(self, "counts", counts)
        if np.any(counts < 0):
            raise ValueError("multiplicities must be non-negative")


@dataclass(frozen=True)
class Fingerprint:
    """phi[i] = number of symbols seen exactly i >= 1 times.

    Keys with zero value are absent. phi0 is the latent unseen-symbol count,
    present only when the sample was paired with its generating distribution.
    """

    phi: dict[int, int]
    phi0: int | None = None

    def __post_init__(self):
        phi = {int(i): int(c) for i, c in self.phi.items() if c != 0}
        if any(i < 1 for i in phi) or any(c < 0 for c in phi.values()):
            raise ValueError("fingerprint keys must be >= 1 with counts >= 0")
        object.__setattr__(self, "phi", phi)

    def get(self, i: int) -> int:
        if i == 0:
            if self.phi0 is None:
                raise ValueError("phi0 is latent; build the fingerprint with P")
            return self.phi0
        return self.phi.get(i, 0)

    def max_index(self) -> int:
        return max(self.phi, default=0)


def check_n(n: float, *, allow_zero: bool = False) -> None:
    """Reject an expected sample size that is not finite and > 0 (>= 0 with
    allow_zero), the domain of every entry point that takes n."""
    if not (math.isfinite(n) and (n >= 0 if allow_zero else n > 0)):
        raise ValueError(
            f"n must be finite and {'>= 0' if allow_zero else '> 0'}, got {n}"
        )


def sample(P: DiscreteDistribution, n: float, seed) -> MultiplicitySample:
    """Draw per-symbol multiplicities, Poisson(n * p_x) independently.

    Deterministic given the seed. numpy's generator uses exact inversion for
    small means and an exact transformed-rejection method for large ones,
    never a normal approximation.
    """
    check_n(n)
    rng = np.random.default_rng(seed)
    return MultiplicitySample(rng.poisson(n * P.probs))


def fingerprint(
    s: MultiplicitySample, P: DiscreteDistribution | None = None
) -> Fingerprint:
    """Extract the fingerprint; include phi0 when P (the generating
    distribution) is supplied."""
    counts = s.counts
    phi0 = None
    if P is not None:
        if len(counts) != support_size(P):
            raise ValueError("sample length does not match the support of P")
        phi0 = int(np.count_nonzero(counts == 0))
    values, freq = np.unique(counts[counts > 0], return_counts=True)
    return Fingerprint(phi=dict(zip(values.tolist(), freq.tolist())), phi0=phi0)


def _pmf(P: DiscreteDistribution, n: float, i: int) -> np.ndarray:
    """Per-symbol Poisson pmf of i at mean n*p_x (log-space internally)."""
    check_n(n)
    return stats.poisson.pmf(i, n * P.probs)


def expected_prevalence(P: DiscreteDistribution, n: float, i: int) -> float:
    """E[phi_i] = sum_x exp(-n p_x) (n p_x)^i / i!"""
    return math.fsum(_pmf(P, n, i))


def prevalence_second_moment(P: DiscreteDistribution, n: float, i: int) -> float:
    """E[phi_i^2] for the sum-of-independent-indicators phi_i.

    Equals (E[phi_i])^2 + sum_x q_x (1 - q_x) with q_x the per-symbol pmf.
    """
    q = _pmf(P, n, i)
    mu = math.fsum(q)
    return mu * mu + math.fsum(q * (1.0 - q))


def exact_plugin_mse(P: DiscreteDistribution, n: float) -> float:
    """Exact MSE of the plug-in support estimator under P.

    The plug-in error is phi_0, a sum of independent Bernoulli(e^{-n p_x})
    indicators, so E[phi_0^2] decomposes into squared mean plus variance.
    """
    check_n(n)
    z = np.exp(-n * P.probs)
    s = math.fsum(z)
    return s * s + math.fsum(z * (1.0 - z))


def exact_bias_expression(P: DiscreteDistribution, n: float) -> float:
    """E[phi_1^2] / (2 E[phi_2]) - E[phi_0], the collision-ratio bias term."""
    e2 = expected_prevalence(P, n, 2)
    if e2 == 0.0:
        raise UndefinedBiasError("E[phi_2] = 0")
    return prevalence_second_moment(P, n, 1) / (2.0 * e2) - expected_prevalence(
        P, n, 0
    )
