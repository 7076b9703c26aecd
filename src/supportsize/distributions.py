"""Discrete distribution zoo for support-size estimation experiments.

All distributions live in the class of probability vectors whose nonzero
entries are at least ``1/k`` ("strict" mode), which caps the support size at
``k``. Zipf and geometric weights decay below ``1/k`` on long supports, so in
strict mode their support is truncated to the largest prefix whose
renormalized minimum probability still clears the ``1/k`` floor. Lenient mode
skips the floor and keeps all k symbols.
check_k is the package's one check of a support bound k >= 2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("uniform", "zipf", "geometric", "two_mixture")

_SUM_TOL = 1e-12
_FLOOR_TOL = 1e-12


@dataclass(frozen=True)
class DiscreteDistribution:
    """A validated probability vector over a finite support.

    Attributes:
        probs: strictly positive probabilities, one per supported symbol.
        k: the floor parameter; in strict mode every entry is >= 1/k.
        strict: whether the 1/k floor was enforced at construction.
    """

    probs: np.ndarray
    k: int
    strict: bool = True
    family: str | None = field(default=None, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        if self.k < 1:
            raise ValueError(f"k must be positive, got {self.k}")
        if probs.ndim != 1 or len(probs) == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if not np.all(probs > 0):
            raise ValueError("zero, negative or NaN probabilities are not allowed")
        total = math.fsum(probs.tolist())
        if abs(total - 1.0) > _SUM_TOL:
            raise ValueError(f"probabilities sum to {total}, not 1")
        if self.strict:
            if len(probs) > self.k:
                raise ValueError(
                    f"strict mode: support {len(probs)} exceeds k={self.k}"
                )
            if probs.min() < 1.0 / self.k - _FLOOR_TOL:
                raise ValueError(
                    f"strict mode: min probability {probs.min()} below 1/k"
                )

    def __len__(self) -> int:
        return len(self.probs)


def check_k(k: int) -> None:
    """Reject k unless k >= 2, the domain of every entry point taking k."""
    if not k >= 2:
        raise ValueError(f"k must be >= 2, got {k}")


def support_size(P: DiscreteDistribution) -> int:
    """Number of symbols with nonzero probability."""
    return len(P.probs)


def _truncated_support(weights: np.ndarray, k: int) -> int:
    """Largest prefix length m with weights[m-1]/sum(weights[:m]) >= 1/k.

    ``weights`` holds the first k weights, assumed non-increasing so the
    minimum of a prefix is its last weight. The ratio is non-increasing in
    m, so m is the first index where it fails the floor (k if none does);
    m >= 1, as the first ratio is 1. The prefix sums add left to right, as
    a running total would.
    """
    ok = weights / np.cumsum(weights) >= (1.0 / k) * (1.0 - 1e-12)
    return int(np.append(ok, False).argmin())


def make_distribution(
    family: str,
    k: int,
    strict: bool = True,
) -> DiscreteDistribution:
    """Construct a zoo distribution.

    Args:
        family: one of "uniform", "zipf", "geometric", "two_mixture".
            Zipf puts weight 1/i on symbol i; geometric puts weight
            a^(i-1) with a = 1 - 1/k; two_mixture has k/2 symbols, half
            at probability 1/k and half at 3/k.
        k: floor parameter, k >= 2. Must be even for two_mixture.
        strict: truncate Zipf/geometric supports so the renormalized
            minimum probability is >= 1/k; otherwise they keep k symbols.

    Raises:
        ValueError: unknown family, k < 2, or odd k for two_mixture.
    """
    check_k(k)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")

    if family == "uniform":
        weights = np.ones(k)
    elif family == "zipf":
        weights = 1.0 / np.arange(1, k + 1)
    elif family == "geometric":
        weights = (1.0 - 1.0 / k) ** np.arange(k)
    else:  # two_mixture
        if k % 2 != 0:
            raise ValueError("two_mixture requires even k")
        m = k // 2
        # Exact when 4 | k; otherwise the extra symbol goes to the low
        # weight so renormalization keeps the minimum above 1/k.
        n_low = m - m // 2
        weights = np.concatenate(
            [np.full(n_low, 1.0 / k), np.full(m // 2, 3.0 / k)]
        )

    if strict and family in ("zipf", "geometric"):
        weights = weights[: _truncated_support(weights, k)]
    probs = weights / math.fsum(weights.tolist())
    return DiscreteDistribution(probs=probs, k=k, strict=strict, family=family)
