import gc
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supportsize import distributions
from supportsize.distributions import (
    DiscreteDistribution,
    FAMILIES,
    exact_sum,
    make_distribution,
    support_size,
)
from supportsize.poisson_model import poisson_pmf


def test_uniform_k4():
    P = make_distribution("uniform", 4)
    np.testing.assert_allclose(P.probs, [0.25, 0.25, 0.25, 0.25])
    assert support_size(P) == 4


def test_two_mixture_k4():
    P = make_distribution("two_mixture", 4)
    np.testing.assert_allclose(P.probs, [0.25, 0.75])
    assert support_size(P) == 2


def test_two_mixture_k10_support():
    assert support_size(make_distribution("two_mixture", 10)) == 5


def test_zipf_k10_strict_truncation():
    # largest m with (1/m)/H_m >= 1/10 is m = 4; renormalized probs are
    # [12, 6, 4, 3] / 25
    h = 0.0
    m = 0
    while True:
        cand = h + 1.0 / (m + 1)
        if (1.0 / (m + 1)) / cand < 1.0 / 10:
            break
        h = cand
        m += 1
    assert m == 4
    P = make_distribution("zipf", 10)
    assert support_size(P) == 4
    np.testing.assert_allclose(P.probs, np.array([12, 6, 4, 3]) / 25.0,
                               rtol=1e-14)


def test_uniform_support_is_k():
    for k in (2, 7, 100, 1001):
        assert support_size(make_distribution("uniform", k)) == k


def test_two_mixture_support_is_half_k():
    for k in (2, 10, 100, 1000):
        assert support_size(make_distribution("two_mixture", k)) == k // 2


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("k", [2, 3, 17, 100, 999, 10_000])
def test_invariants_across_k(family, k):
    if family == "two_mixture" and k % 2:
        pytest.skip("two_mixture needs even k")
    P = make_distribution(family, k)
    probs = P.probs
    assert abs(math.fsum(probs) - 1.0) <= 1e-12
    assert np.all(probs > 0)
    assert probs.min() >= 1.0 / k - 1e-12
    assert support_size(P) <= k


def test_geometric_strict_truncation_monotone():
    # geometric weights decay, so the strict support is a proper prefix of k
    P = make_distribution("geometric", 1000)
    assert 1 < support_size(P) < 1000
    assert np.all(np.diff(P.probs) < 0)


def loop_truncated_support(weight, k):
    """Reference: grow the prefix one symbol at a time while the new last
    weight, over the running total, clears the floor (1-based weight)."""
    partial, m = 0.0, 0
    while m < k:
        w = weight(m + 1)
        if w / (partial + w) < (1.0 / k) * (1.0 - 1e-12):
            break
        partial += w
        m += 1
    return m


@settings(deadline=None)
@given(st.integers(2, 20_000))
@example(100_000)
def test_strict_truncation_matches_running_total_loop(k):
    a = 1.0 - 1.0 / k
    m = loop_truncated_support(lambda i: 1.0 / i, k)
    weights = 1.0 / np.arange(1, m + 1)
    expected = weights / math.fsum(weights)
    assert make_distribution("zipf", k).probs.tobytes() == expected.tobytes()
    m = loop_truncated_support(lambda i: a ** (i - 1), k)
    weights = a ** np.arange(m)
    expected = weights / math.fsum(weights)
    assert make_distribution("geometric", k).probs.tobytes() == expected.tobytes()


def test_lenient_mode_skips_floor():
    P = make_distribution("zipf", 100, strict=False)
    assert support_size(P) == 100
    assert P.probs.min() < 1.0 / 100
    assert abs(math.fsum(P.probs) - 1.0) <= 1e-12


def test_errors():
    with pytest.raises(ValueError):
        make_distribution("uniform", 1)
    with pytest.raises(ValueError):
        make_distribution("two_mixture", 7)
    with pytest.raises(ValueError):
        make_distribution("triangular", 10)


def test_validation_rejects_bad_vectors():
    with pytest.raises(ValueError):
        DiscreteDistribution(probs=np.array([0.5, 0.4]), k=2)
    with pytest.raises(ValueError):
        DiscreteDistribution(probs=np.array([1.1, -0.1]), k=2)
    with pytest.raises(ValueError):
        # min prob below the floor in strict mode
        DiscreteDistribution(probs=np.array([0.9, 0.1]), k=4)
    DiscreteDistribution(probs=np.array([0.9, 0.1]), k=4, strict=False)
    # NaN fails every comparison, so each test must be one that NaN fails
    for strict in (True, False):
        with pytest.raises(ValueError):
            DiscreteDistribution(probs=np.array([math.nan, 0.5]), k=2,
                                 strict=strict)


def test_probs_are_immutable():
    P = make_distribution("uniform", 4)
    with pytest.raises(ValueError):
        P.probs[0] = 0.5


def test_zoo_laws_are_shared_and_read_only():
    P = make_distribution("zipf", 1000)
    assert make_distribution("zipf", 1000, True) is P
    assert make_distribution("zipf", 1000, strict=True) is P
    assert make_distribution("zipf", 1000, strict=1) is P
    with pytest.raises(ValueError):
        P.levels[0][0] = 0.5
    lenient = make_distribution("zipf", 1000, strict=False)
    assert lenient is not P and not lenient.strict
    assert make_distribution("zipf", 1000, False) is lenient
    # a float k is refused after the equal integer k is kept
    make_distribution("uniform", 1000)
    with pytest.raises(ValueError):
        make_distribution("uniform", 1000.0)
    # a refused call is never kept, so it is refused again
    for args in [("triangular", 10), ("two_mixture", 7)]:
        for _ in range(2):
            with pytest.raises(ValueError):
                make_distribution(*args)


def test_laws_above_the_cap_are_built_per_call():
    k = distributions._SHARED_MAX_K + 2
    A = make_distribution("two_mixture", k)
    B = make_distribution("two_mixture", k)
    assert A is not B and np.array_equal(A.probs, B.probs)
    assert make_distribution("two_mixture", k - 2) is make_distribution(
        "two_mixture", k - 2)


def test_shared_laws_stay_within_their_bound():
    # more laws of about 2**17 symbols than the cache keeps; what stays
    # held is the kept laws alone
    shared, top = distributions._shared_law, distributions._SHARED_MAX_K
    shared.cache_clear()
    tracemalloc.start()
    try:
        for k in range(top, top - 5, -1):
            for family, strict in [("uniform", True), ("uniform", False),
                                   ("zipf", False), ("geometric", False)]:
                make_distribution(family, k, strict)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
        shared.cache_clear()
    # at most 8 bytes a symbol and 1 KiB of objects a law, as documented
    laws = distributions._SHARED_LAWS
    assert laws * 8 * (top - 4) < held <= laws * (8 * top + 2**10)


def same_float(a, b):
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


@st.composite
def float_arrays(draw, sizes=st.integers(1, 1000) | st.integers(1001, 3000)):
    """Finite float64 arrays on both sides of exact_sum's fsum floor, built
    from one drawn seed so that a 3000-term example stays cheap."""
    size = draw(sizes)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    low = draw(st.integers(-1130, 990))
    high = draw(st.integers(low, min(low + 300, 1000)))
    x = np.ldexp(rng.standard_normal(size), rng.integers(low, high + 1, size))
    shape = draw(st.sampled_from(["mixed", "positive", "constant", "cancel"]))
    if shape == "positive":
        x = np.abs(x)
    elif shape == "constant":
        x = np.full(size, x[0])
    elif shape == "cancel":  # an exact zero, or one term left over
        x = rng.permutation(np.concatenate([x, -x, x[: draw(st.integers(0, 1))]]))
    return x


@settings(deadline=None, max_examples=300)
@given(float_arrays())
@example(np.full(1500, -0.0))
@example(np.full(2000, 5e-324))
@example(np.ldexp(np.full(2000, 1.0 - 2.0**-53), 990))
@example(np.linspace(-1.0, 1.0, 1001))
# ties: 1024 + 2**-43 is the midpoint of 1024 and its next float, and rounds
# to the even 1024; a term of 2**-1074 or -2**-200 moves it off the midpoint.
# Last, terms of 2**900 that cancel down to a subnormal total
@example(np.append(np.ones(1024), 2.0**-43))
@example(np.append(np.ones(1024), [2.0**-43, 2.0**-1074]))
@example(np.append(np.ones(1024), [2.0**-43, -2.0**-200]))
@example(np.append(np.ones(1024), [2.0**-43, 2.0**-200]))
@example(np.concatenate([np.full(600, 2.0**900), np.full(600, -2.0**900), [3e-323]]))
def test_exact_sum_is_fsum(x):
    assert same_float(exact_sum(x), math.fsum(x.tolist()))


@pytest.mark.parametrize("family", FAMILIES)
def test_exact_sum_on_analyze_counts_rows(family):
    # every per-symbol sum of the analyze_counts requests: k up to 10^5 and
    # n = k/2..4k, where zipf's pmf rows run from about 1 to subnormals
    for k in (10**3, 10**4, 10**5):
        P = make_distribution(family, k)
        for n in (0.5 * k, 1.0 * k, 2.0 * k, 4.0 * k):
            for i in (0, 1, 2):
                q = poisson_pmf(i, n * P.probs)
                for x in (q, q * (1.0 - q)):
                    assert same_float(exact_sum(x), math.fsum(x.tolist()))


def fsum_of_repeats(x, counts):
    return math.fsum(np.repeat(x, counts).tolist())


@st.composite
def counted_arrays(draw):
    """(x, counts) whose expanded term count, counts.sum(), falls on both
    sides of exact_sum's fsum floor: few values taken many times, or many
    values taken once."""
    x = draw(float_arrays(st.integers(1, 40) | st.integers(1001, 1200)))
    if draw(st.booleans()):
        return x, np.ones(len(x), np.int64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    total = draw(st.integers(0, 1000) | st.integers(1001, 5000))
    return x, rng.multinomial(total, np.full(len(x), 1.0 / len(x)))


@settings(deadline=None, max_examples=300)
@given(counted_arrays())
@example((np.array([-0.0]), np.array([1500])))
@example((np.array([1.0, -1.0, 0.0]), np.array([3000, 3000, 7])))
@example((np.array([5e-324, 2.0**-1060]), np.array([2000, 3])))
@example((np.array([1.0 - 2.0**-53, 2.0**-80]), np.array([1, 1001])))
@example((np.array([0.1, 0.3]), np.array([1000, 0])))
# the ties of test_exact_sum_is_fsum, with the terms counted
@example((np.array([1.0, 2.0**-43]), np.array([1024, 1])))
@example((np.array([1.0, 2.0**-43, 2.0**-1074]), np.array([1024, 1, 1])))
@example((np.array([1.0, 2.0**-43, -2.0**-200]), np.array([1024, 1, 1])))
@example((np.array([1.0, 2.0**-43, 2.0**-200]), np.array([1024, 1, 1])))
@example((np.array([2.0**900, -2.0**900, 5e-324]), np.array([700, 700, 6])))
def test_weighted_exact_sum_is_fsum_of_repeats(case):
    x, counts = case
    assert same_float(exact_sum(x, counts), fsum_of_repeats(x, counts))


def outcome(sum_, x, counts):
    """The value of a sum, sign of zero included, or the error it raises."""
    try:
        total = sum_(np.array(x), np.array(counts))
    except (ValueError, OverflowError) as exc:
        return type(exc)
    return "nan" if math.isnan(total) else (total, math.copysign(1.0, total))


@pytest.mark.parametrize("x, counts", [
    ([math.inf, 1.0], [1, 1500]),
    ([math.nan, 1.0], [2, 1500]),
    ([math.inf, 1.0], [0, 1500]),  # a term taken 0 times is no term
    ([math.nan, -math.inf, 1.0], [0, 1, 1500]),
    ([math.inf, -math.inf, 1.0], [1, 1, 1500]),  # fsum refuses inf - inf
    # as test_exact_sum_near_overflow_is_fsum, with the terms repeated
    ([1e308, -1e308, 0.0], [2, 1, 1500]),
])
def test_weighted_exact_sum_of_extreme_terms_is_fsum_of_repeats(x, counts):
    assert outcome(exact_sum, x, counts) == outcome(fsum_of_repeats, x, counts)


def test_exact_sum_takes_unsigned_counts():
    # on both sides of the fsum floor, as the same counts signed
    x = np.array([0.1, -2.0 / 3])
    for counts in ([3, 4], [3000, 4]):
        assert same_float(exact_sum(x, np.array(counts, np.uint64)),
                          exact_sum(x, np.array(counts)))


def test_weighted_exact_sum_counts_terms_against_the_fsum_floor(monkeypatch):
    # the floor is on the expanded terms, counts.sum(), not on len(x): two
    # values taken floor terms in all go to fsum, one more to the kernel
    fsum, lengths = math.fsum, []

    def counting_fsum(terms):
        lengths.append(len(terms))
        return fsum(terms)

    floor = distributions._FSUM_MAX_TERMS
    x = np.random.default_rng(0).standard_normal(2)
    counts = {c: np.array([floor // 2, c - floor // 2])
              for c in (floor, floor + 1)}
    expected = {c: fsum_of_repeats(x, counts[c]) for c in counts}
    monkeypatch.setattr(math, "fsum", counting_fsum)
    assert exact_sum(x, counts[floor]) == expected[floor]
    assert lengths == [floor]
    lengths.clear()
    assert exact_sum(x, counts[floor + 1]) == expected[floor + 1]
    assert max(lengths) < 20, "fsum over the repeated terms"


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_exact_sum_at_the_fsum_floor_is_fsum(offset):
    # floor - 1, floor and floor + 1 terms, which take fsum, fsum and the
    # kernel, with and without counts, zeros of both signs among them
    terms = distributions._FSUM_MAX_TERMS + offset
    rng = np.random.default_rng(terms)
    normal = rng.standard_normal(terms)
    normal[:4] = [0.0, -0.0, 0.0, -0.0]
    cancel = np.concatenate([normal[: terms // 2], -normal[: terms // 2],
                             [-0.0] * (terms % 2)])
    cases = [normal, rng.permutation(cancel), np.full(terms, -0.0),
             np.where(rng.random(terms) < 0.5, 0.0, -0.0)]
    # counted: the first half of the values, each taken twice (the last
    # once when terms is odd)
    counts = np.full((terms + 1) // 2, 2)
    counts[-1] -= terms % 2
    for x in cases:
        assert same_float(exact_sum(x), math.fsum(x.tolist()))
        values = x[: len(counts)]
        assert same_float(exact_sum(values, counts),
                          fsum_of_repeats(values, counts))


@pytest.mark.parametrize("family", FAMILIES)
def test_levels_expand_to_probs(family):
    for k in (10**3, 10**4, 10**5):
        P = make_distribution(family, k)
        values, lengths = P.levels
        if family in ("zipf", "geometric"):
            assert lengths is None and values is P.probs
        else:
            assert len(values) == {"uniform": 1, "two_mixture": 2}[family]
            assert np.repeat(values, lengths).tobytes() == P.probs.tobytes()


def test_levels_merge_only_adjacent_masses():
    P = DiscreteDistribution(np.array([0.25, 0.5, 0.25]), k=4)
    assert P.levels[1] is None
    P = DiscreteDistribution(np.array([0.1, 0.3, 0.3, 0.1, 0.1, 0.05, 0.05]),
                             k=10, strict=False)
    values, lengths = P.levels
    assert values.tolist() == [0.1, 0.3, 0.1, 0.05]
    assert lengths.tolist() == [1, 2, 2, 2]


def fraction_sum(x, counts):
    return float(sum(Fraction(v) * c for v, c in zip(x.tolist(), counts.tolist())))


def test_exact_sum_far_past_2_26_terms_is_exact_without_repeats():
    # totals far past 2**26 terms, exact without a Python float per term:
    # a level of 10**8 symbols must not become 10**8 floats
    rng = np.random.default_rng(0)
    for x, counts in [
        (np.array([1e-8]), np.array([10**8])),
        (np.array([1 / 3, 1 / 7, -0.1]), np.array([3 * 10**8, 2**40, 10**9])),
        (rng.standard_normal(1000), rng.integers(0, 2**40, 1000)),
    ]:
        tracemalloc.start()
        try:
            total = exact_sum(x, counts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert same_float(total, fraction_sum(x, counts))
        assert peak < 10**5, "the terms were repeated"


@pytest.mark.parametrize("x, counts", [
    ([0.0, 0.0], [700, 800]),
    ([-0.0], [1500]),
    ([-0.0, 0.0], [900, 600]),
    ([-0.0, 5.0], [1500, 0]),  # a term taken 0 times is no term
    ([1.0, -0.5, -0.0], [1000, 2000, 3]),
    ([0.1, -0.1], [1200, 1200]),
    (np.zeros(1500), None),
    (-np.zeros(1500), None),
    (np.tile([2.5, -2.5], 700), None),
])
def test_exact_sum_of_zero_is_fsum_without_repeats(x, counts, monkeypatch):
    # a zero total takes its sign from the terms, not from an fsum over
    # every repeated term
    x = np.array(x)
    counts = None if counts is None else np.array(counts)
    expected = (math.fsum(x.tolist()) if counts is None
                else fsum_of_repeats(x, counts))
    fsum = math.fsum

    def short_fsum(terms):
        assert len(terms) <= 1000, "fsum over the repeated terms"
        return fsum(terms)

    monkeypatch.setattr(math, "fsum", short_fsum)
    assert same_float(exact_sum(x, counts), expected)


def test_exact_sum_near_overflow_is_fsum():
    # fsum overflows on its running sum 2e308 although the total is 1e308;
    # the kernel's passes would cancel first, so terms this large take fsum
    x = np.zeros(1500)
    x[:3] = [1e308, 1e308, -1e308]
    with pytest.raises(OverflowError):
        math.fsum(x.tolist())
    with pytest.raises(OverflowError):
        exact_sum(x)


def test_long_vector_holding_inf_is_refused():
    # the kernel's passes would turn inf into NaN; non-finite terms take fsum
    probs = np.full(2000, 1 / 2000)
    probs[7] = math.inf
    with pytest.raises(ValueError, match="sum to inf"):
        DiscreteDistribution(probs=probs, k=2000)
