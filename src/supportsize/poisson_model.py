"""Poisson sampling, fingerprints, and exact prevalence moments.

Under Poisson sampling with expected sample size n, the multiplicity of each
supported symbol x is an independent Poisson(n * p_x) variable. The
fingerprint phi_i counts symbols seen exactly i times; phi_0 counts supported
but unseen symbols and is only available when the generating distribution is
known.

Moment calculators are exact closed forms: each phi_i is a sum of independent
Bernoulli indicators, so its mean and second moment follow from per-symbol
Poisson pmf values. A pmf is evaluated once per level of P (P.levels, the
runs of equal masses), and sums over symbols use distributions.exact_sum
with each level's multiplicity. It is exactly rounded, so large supports do
not accumulate error: it returns what math.fsum returns on the per-symbol
terms, from a few exact numpy passes rather than one Python float per symbol.

Every Poisson probability in the library comes from scipy.special: the pmf
is poisson_pmf below, the Monte Carlo draw's cdfs are its running sums over
j (bench._chunk_cdf), and upper tails are pdtrc.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy import special

from .distributions import (DiscreteDistribution, check_integer, exact_sum,
                            support_size)


class UndefinedBiasError(ZeroDivisionError):
    """E[phi_2] is zero, so the collision-based bias expression is undefined."""


def _whole_numbers(what: str, values) -> np.ndarray:
    """values as an int64 array, whole floats converted. ValueError names the
    first entry, in C order, that is not a whole number in int64's range (a
    fraction, inf, NaN, a string, 2**63); int64 input is not copied."""
    array = np.asarray(values)
    if not np.can_cast(array.dtype, np.int64):
        # the entries as given: beside "3", numpy would turn 1 into "1"
        for value in np.asarray(values, dtype=object).ravel().tolist():
            if not (isinstance(value, numbers.Real) and value % 1 == 0
                    and -2**63 <= value < 2**63):
                raise ValueError(f"{what} must be whole numbers, got {value!r}")
    return array.astype(np.int64, copy=False)


@dataclass(frozen=True)
class MultiplicitySample:
    """Per-symbol occurrence counts, one entry per supported symbol."""

    counts: np.ndarray

    def __post_init__(self):
        counts = _whole_numbers("multiplicities", self.counts)
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
        what = "fingerprint keys and counts"
        counts = _whole_numbers(what, list(self.phi.values()))
        keys = _whole_numbers(what, list(self.phi))
        phi = {i: c for i, c in zip(keys.tolist(), counts.tolist()) if c != 0}
        if any(i < 1 for i in phi) or any(c < 0 for c in phi.values()):
            raise ValueError("fingerprint keys must be >= 1 with counts >= 0")
        object.__setattr__(self, "phi", phi)


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


def poisson_pmf(j, mu) -> np.ndarray:
    """Poisson pmf of j at mean mu, elementwise, in log space as
    exp(j log mu - log j! - mu): bitwise the value scipy's Poisson
    distribution object gives for integer j >= 0 and mu >= 0."""
    return np.exp(special.xlogy(j, mu) - special.gammaln(j + 1) - mu)


def _pmf(P: DiscreteDistribution, n: float, i: int) -> np.ndarray:
    """Poisson pmf of i at mean n*p (see poisson_pmf), one value per level
    of P: P.levels[1] gives how many symbols share it."""
    check_n(n)
    check_integer("prevalence index i", i, 0)
    return poisson_pmf(i, n * P.levels[0])


def expected_prevalence(P: DiscreteDistribution, n: float, i: int) -> float:
    """E[phi_i] = sum_x exp(-n p_x) (n p_x)^i / i!"""
    return exact_sum(_pmf(P, n, i), P.levels[1])


def prevalence_second_moment(P: DiscreteDistribution, n: float, i: int) -> float:
    """E[phi_i^2] for the sum-of-independent-indicators phi_i.

    Equals (E[phi_i])^2 + sum_x q_x (1 - q_x) with q_x the per-symbol pmf.
    """
    q = _pmf(P, n, i)
    mu = exact_sum(q, P.levels[1])
    return mu * mu + exact_sum(q * (1.0 - q), P.levels[1])


def exact_plugin_mse(P: DiscreteDistribution, n: float) -> float:
    """Exact MSE of the plug-in support estimator under P.

    The plug-in error is phi_0, a sum of independent Bernoulli(e^{-n p_x})
    indicators, so the MSE is E[phi_0^2].
    """
    return prevalence_second_moment(P, n, 0)


def exact_bias_expression(P: DiscreteDistribution, n: float) -> float:
    """E[phi_1^2] / (2 E[phi_2]) - E[phi_0], the collision-ratio bias term."""
    e2 = expected_prevalence(P, n, 2)
    if e2 == 0.0:
        raise UndefinedBiasError("E[phi_2] = 0")
    return prevalence_second_moment(P, n, 1) / (2.0 * e2) - expected_prevalence(
        P, n, 0
    )
