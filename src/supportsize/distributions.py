"""Discrete distribution zoo for support-size estimation experiments.

All distributions live in the class of probability vectors whose nonzero
entries are at least ``1/k`` ("strict" mode), which caps the support size at
``k``. Zipf and geometric weights decay below ``1/k`` on long supports, so in
strict mode their support is truncated to the largest prefix whose
renormalized minimum probability still clears the ``1/k`` floor. Lenient mode
skips the floor and keeps all k symbols.
check_integer is the package's one check of a scalar integer argument (a
bound, seed, count, index, degree or exponent), check_k its k >= 2 case, and
exact_sum the package's exactly rounded sum of a float array, whose terms
may repeat.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

FAMILIES = ("uniform", "zipf", "geometric", "two_mixture")

_SUM_TOL = 1e-12
_FLOOR_TOL = 1e-12
# exact_sum hands arrays of at most _FSUM_MAX_TERMS terms to math.fsum, whose
# cost per term is below the kernel's fixed cost there, and refuses totals of
# _MAX_TERMS terms or more, where a pass of its kernel need not shrink the rest.
_FSUM_MAX_TERMS = 1000
_MAX_TERMS = 2**51


def exact_sum(x: np.ndarray, counts: np.ndarray | None = None) -> float:
    """Exactly rounded sum of a 1-D float64 array, each term x[g] taken
    counts[g] >= 0 times (once without counts): the float that
    math.fsum(np.repeat(x, counts).tolist()) returns, without a Python float
    per term.

    The kernel is Rump, Ogita and Oishi's error-free extraction (SIAM J.
    Sci. Comput. 31(1), 2008), in passes over a rest r, at first x. With
    T < 2**s terms and 2**e > max|r|, q = (sigma + r) - sigma for sigma =
    2**(e + s) is r rounded to a multiple of u = 2**(e + s - 53), and q and
    r - q are exact. As |q| <= 2**e = 2**(53 - s) * u, each q * count and
    every partial sum of them, in any order, is a multiple of u below
    2**53 * u: the pass's numpy sum is exact. The new rest is at most u a
    term, below B = 2**(e + 2s - 53) in all, and the next e is lower by
    52 - s or more. The passes stop once fsum of their sums is unchanged by
    adding B or -B: rounding is monotone, so every total within B of
    theirs, the exact one too, rounds to that float. The sums drop the sign
    of a zero, so a zero total is answered from the terms instead: +0.0
    when some term is not a zero, else fsum of a single zero, -0.0 when
    every term is -0.0 and +0.0 otherwise, which gives fsum's sign for
    zeros alone. Sums of at most 1000 terms, terms large enough to overflow
    an intermediate sum and non-finite terms go to math.fsum itself; counts
    totalling 2**51 or more are refused.
    """
    if counts is None:
        terms = len(x)
    else:
        if counts.shape != x.shape or counts.dtype.kind not in "iu":
            raise ValueError("counts must be whole numbers, one per term")
        # a float total cannot wrap, and it decides the bound exactly: it is
        # exact below 2**53, and rounding is monotone
        terms = counts.sum(dtype=float)
        if terms >= _MAX_TERMS:
            raise ValueError(f"counts must total less than 2**51, got {terms:g}")
        terms = int(terms)
    if terms > _FSUM_MAX_TERMS:
        # below the floor, x.repeat refuses a negative count itself
        if counts is not None and counts.min() < 0:
            raise ValueError("counts must be >= 0")
        spread = terms.bit_length()
        # NaN in x makes top NaN, and inf or NaN fails isfinite
        top = max(x.max(), -x.min())
        e = math.frexp(top)[1]
        # sum |x| < 2**(e + spread) keeps every pass clear of overflow
        if math.isfinite(top) and e + spread <= 1020:
            r, parts, total = x.astype(float), [], 0.0
            q = np.empty_like(r)
            while top:
                sigma = math.ldexp(1.0, e + spread)
                np.add(r, sigma, out=q)
                q -= sigma
                r -= q
                parts.append((q if counts is None else q * counts).sum())
                # B = 0.0 when it underflows: the rest, a multiple of
                # 2**-1074 below 2**-1075, is then zero
                bound = math.ldexp(1.0, e + 2 * spread - 53)
                total = math.fsum(parts)
                if math.fsum(parts + [bound]) == total == math.fsum(parts + [-bound]):
                    break
                top = max(r.max(), -r.min())
                e = math.frexp(top)[1]
            if total:
                return total
            # an exact zero: terms that are not all zeros cancel to
            # +0.0, and zeros alone sum to fsum's zero of their signs
            taken = x if counts is None else x[counts > 0]
            if taken.any():
                return 0.0
            return math.fsum([-0.0 if np.signbit(taken).all() else 0.0])
    if counts is not None:
        x = x.repeat(counts.astype(np.intp, copy=False))
    return math.fsum(x.tolist())


def _runs(x: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """(values, lengths) of the runs of equal adjacent entries of x, so that
    np.repeat(values, lengths) is x; lengths is None, and values x itself,
    when no two adjacent entries are equal. Equal entries that are not
    adjacent stay in runs of their own."""
    edge = np.empty(len(x) + 1, bool)
    edge[0] = edge[-1] = True
    np.not_equal(x[1:], x[:-1], out=edge[1:-1])
    cuts = np.flatnonzero(edge)  # the start of every run, then len(x)
    if len(cuts) > len(x):
        return x, None
    return x[cuts[:-1]], cuts[1:] - cuts[:-1]


@dataclass(frozen=True)
class DiscreteDistribution:
    """A validated probability vector over a finite support.

    Attributes:
        probs: strictly positive probabilities, one per supported symbol.
        k: the floor parameter, an integer >= 1; in strict mode every
            entry is >= 1/k.
        strict: whether the 1/k floor was enforced at construction.
        levels: (values, lengths), the runs of equal adjacent entries of
            probs (see _runs): per-symbol sums run over values, each taken
            lengths times. The zoo is built as runs, so uniform has one
            level and two_mixture two.
    """

    probs: np.ndarray
    k: int
    strict: bool = True
    family: str | None = field(default=None, compare=False)
    levels: tuple[np.ndarray, np.ndarray | None] = field(
        init=False, repr=False, compare=False)

    def __post_init__(self):
        probs = np.asarray(self.probs, dtype=float)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)
        check_integer("k", self.k, 1)
        if probs.ndim != 1 or len(probs) == 0:
            raise ValueError("probs must be a nonempty 1-D vector")
        if not np.all(probs > 0):
            raise ValueError("zero, negative or NaN probabilities are not allowed")
        values, lengths = _runs(probs)
        values.flags.writeable = False
        if lengths is not None:
            lengths.flags.writeable = False
        object.__setattr__(self, "levels", (values, lengths))
        total = exact_sum(values, lengths)
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


def check_integer(name: str, value, least: int) -> None:
    """Reject value unless operator.index takes it and value >= least. A
    float, whole or not, inf or NaN, is refused, while numpy integers and
    Python ints of any size pass."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


def check_k(k: int) -> None:
    """Reject k unless it is an integer >= 2, the domain of every entry
    point taking k."""
    check_integer("k", k, 2)


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


def _weights(family: str, k: int) -> np.ndarray:
    """The unnormalised weights of k symbols (k // 2 for two_mixture)."""
    if family == "uniform":
        return np.ones(k)
    if family == "zipf":
        return 1.0 / np.arange(1, k + 1)
    if family == "geometric":
        return (1.0 - 1.0 / k) ** np.arange(k)
    m = k // 2
    # Exact when 4 | k; otherwise the extra symbol goes to the low
    # weight so renormalization keeps the minimum above 1/k.
    n_low = m - m // 2
    return np.concatenate([np.full(n_low, 1.0 / k), np.full(m // 2, 3.0 / k)])


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
        ValueError: unknown family, k < 2, odd k for two_mixture, or a k
            too large for numpy to build its weights.
    """
    check_k(k)
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family == "two_mixture" and k % 2 != 0:
        raise ValueError("two_mixture requires even k")

    try:
        weights = _weights(family, k)
        if strict and family in ("zipf", "geometric"):
            weights = weights[: _truncated_support(weights, k)]
    except (ValueError, OverflowError, MemoryError) as exc:
        raise ValueError(f"cannot build the {family} zoo at k={k}: {exc}") from None
    probs = weights / exact_sum(*_runs(weights))
    return DiscreteDistribution(probs=probs, k=k, strict=strict, family=family)
