import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import supportsize
from supportsize.distributions import DiscreteDistribution, make_distribution
from supportsize.poisson_model import (
    Fingerprint,
    MultiplicitySample,
    UndefinedBiasError,
    exact_bias_expression,
    exact_plugin_mse,
    expected_prevalence,
    fingerprint,
    poisson_pmf,
    prevalence_second_moment,
    sample,
)


def test_sample_deterministic():
    P = make_distribution("zipf", 100)
    a = sample(P, 500.0, seed=7)
    b = sample(P, 500.0, seed=7)
    np.testing.assert_array_equal(a.counts, b.counts)
    c = sample(P, 500.0, seed=8)
    assert not np.array_equal(a.counts, c.counts)


def test_sample_concentration_uniform2():
    # Poisson(5e5) is within 1e4 of its mean except with probability below
    # the 14-sigma tail
    P = make_distribution("uniform", 2)
    lo = stats.poisson.ppf(1e-12, 5e5)
    hi = stats.poisson.isf(1e-12, 5e5)
    assert 490_000 < lo and hi < 510_000
    for seed in range(5):
        counts = sample(P, 1e6, seed=seed).counts
        assert np.all((counts >= 490_000) & (counts <= 510_000))


def test_sample_empirical_mean():
    # every count is Poisson(2) for uniform(10^4) at n = 2 * 10^4; mean over
    # 10 seeds x 10^4 symbols = 10^5 draws
    P = make_distribution("uniform", 10**4)
    draws = np.concatenate([sample(P, 2e4, seed=seed).counts
                            for seed in range(10)])
    assert len(draws) == 10**5
    stderr = math.sqrt(2.0 / len(draws))
    assert abs(draws.mean() - 2.0) <= 3 * stderr


def test_sample_rejects_nonpositive_n():
    P = make_distribution("uniform", 4)
    with pytest.raises(ValueError):
        sample(P, 0.0, seed=0)


@pytest.mark.parametrize("n", [-5.0, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("entry", [
    lambda P, n: sample(P, n, seed=0),
    lambda P, n: expected_prevalence(P, n, 0),
    lambda P, n: prevalence_second_moment(P, n, 1),
    exact_plugin_mse,
    exact_bias_expression,
], ids=["sample", "expected_prevalence", "prevalence_second_moment",
        "exact_plugin_mse", "exact_bias_expression"])
def test_entry_points_reject_bad_n(entry, n):
    # n must be finite and > 0: at n = -5 the plug-in MSE formula returns
    # 261.1 for uniform k = 10, above the class worst case k^2 + k = 110
    with pytest.raises(ValueError, match="n must be finite and > 0"):
        entry(make_distribution("uniform", 10), n)


def test_fingerprint_examples():
    P = make_distribution("uniform", 4)
    fp = fingerprint(MultiplicitySample(np.array([0, 1, 1, 3])), P)
    assert fp.phi == {1: 2, 3: 1}
    assert fp.phi0 == 1

    P5 = make_distribution("uniform", 5)
    fp = fingerprint(MultiplicitySample(np.zeros(5, dtype=int)), P5)
    assert fp.phi == {} and fp.phi0 == 5

    fp = fingerprint(MultiplicitySample(np.array([2, 2, 2])))
    assert fp.phi == {2: 3}


def test_fingerprint_accounting(zoo_distribution):
    P = zoo_distribution
    fp = fingerprint(sample(P, 150.0, seed=3), P)
    assert fp.phi0 + sum(fp.phi.values()) == len(P)


def test_expected_prevalence_uniform_phi0():
    for k, n in [(10, 5.0), (100, 250.0)]:
        P = make_distribution("uniform", k)
        assert expected_prevalence(P, n, 0) == pytest.approx(
            k * math.exp(-n / k), rel=1e-14
        )


def test_expected_prevalence_uniform2_phi1():
    P = make_distribution("uniform", 2)
    assert expected_prevalence(P, 2.0, 1) == pytest.approx(
        2.0 * math.exp(-1.0), rel=1e-13
    )


def test_prevalence_sums_to_support(zoo_distribution):
    P = zoo_distribution
    n = 120.0
    total = 0.0
    i = 0
    while True:
        term = expected_prevalence(P, n, i)
        total += term
        i += 1
        if term < 1e-15 and i > n * P.probs.max():
            break
    assert total == pytest.approx(len(P), abs=1e-12)


def test_second_moment_single_symbol():
    P = DiscreteDistribution(probs=np.array([1.0]), k=1)
    for n in (0.5, 2.0, 7.0):
        assert prevalence_second_moment(P, n, 0) == pytest.approx(
            math.exp(-n), rel=1e-13
        )


def test_second_moment_thin_sum_limit():
    # with all per-symbol pmf values tiny, E[phi_i^2] -> mu^2 + mu
    P = make_distribution("uniform", 1000)
    n = 20000.0
    mu = expected_prevalence(P, n, 1)
    assert mu < 1e-4
    assert prevalence_second_moment(P, n, 1) == pytest.approx(
        mu * mu + mu, rel=1e-6
    )


@settings(deadline=None)
@given(st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=200),
       st.floats(1e-3, 1e5), st.integers(0, 60))
def test_moments_match_scipy_stats_pmf_bitwise(weights, n, i):
    # scipy.stats.poisson.pmf is the reference for the library's own pmf
    probs = np.array(weights) / math.fsum(weights)
    P = DiscreteDistribution(probs, k=len(probs), strict=False)
    q = stats.poisson.pmf(i, n * P.probs)
    mu = math.fsum(q)
    assert expected_prevalence(P, n, i) == mu
    assert prevalence_second_moment(P, n, i) == mu * mu + math.fsum(q * (1.0 - q))


@pytest.mark.parametrize("probs", [
    [0.25, 0.5, 0.25],  # equal masses that are not adjacent
    [0.1, 0.3, 0.3, 0.1, 0.1, 0.05, 0.05],  # unsorted runs
    # 2000 symbols in random order, so short runs above the fsum floor
    np.random.default_rng(0).permutation(make_distribution("two_mixture", 4000).probs),
])
def test_moments_over_levels_equal_per_symbol_fsum(probs):
    P = DiscreteDistribution(np.array(probs), k=4000, strict=False)
    for n in (0.5, 3.0, 40.0, 4000.0):
        for i in range(4):
            q = poisson_pmf(i, n * P.probs)
            mu = math.fsum(q.tolist())
            assert expected_prevalence(P, n, i) == mu
            assert prevalence_second_moment(P, n, i) == (
                mu * mu + math.fsum((q * (1.0 - q)).tolist()))


def test_import_leaves_scipy_stats_unloaded():
    # the library takes every Poisson probability from scipy.special
    src = str(Path(supportsize.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, supportsize.cli; print('scipy.stats' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "False"


def test_exact_plugin_mse_uniform_formula():
    for k, n in [(10, 5.0), (50, 100.0), (1000, 2000.0)]:
        P = make_distribution("uniform", k)
        expected = (
            k * k * math.exp(-2 * n / k)
            + k * math.exp(-n / k)
            - k * math.exp(-2 * n / k)
        )
        assert exact_plugin_mse(P, n) == pytest.approx(expected, rel=1e-12)


def test_exact_plugin_mse_frozen_value():
    # 100 e^-2 + 10 e^-1 - 10 e^-2, evaluated independently
    P = make_distribution("uniform", 10)
    assert exact_plugin_mse(P, 10.0) == pytest.approx(
        15.858969903009566, rel=1e-12
    )


@settings(deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=1, max_size=8),
       st.floats(0.1, 50.0))
def test_exact_plugin_mse_matches_unseen_subset_sum(weights, n):
    # E[phi_0^2] as a sum over all 2^m sets of unseen symbols, each weighted
    # by its probability under independent Bernoulli(e^{-n p_x}) indicators
    probs = np.array(weights) / math.fsum(weights)
    P = DiscreteDistribution(probs, k=len(probs), strict=False)
    z = np.exp(-n * P.probs).tolist()
    brute = math.fsum(
        sum(unseen) ** 2
        * math.prod(zx if u else 1.0 - zx for zx, u in zip(z, unseen))
        for unseen in itertools.product((False, True), repeat=len(z))
    )
    assert exact_plugin_mse(P, n) == pytest.approx(brute, rel=1e-12)


def test_exact_plugin_mse_vanishes(zoo_distribution):
    assert exact_plugin_mse(zoo_distribution, 1e7) < 1e-12


def test_bias_expression_undefined():
    P = DiscreteDistribution(probs=np.array([1.0]), k=1)
    with pytest.raises(UndefinedBiasError):
        exact_bias_expression(P, 1e4)  # E[phi_2] underflows to 0


def test_cauchy_schwarz_moments(zoo_distribution):
    P = zoo_distribution
    for n in (50.0, 100.0, 400.0):
        e0 = expected_prevalence(P, n, 0)
        e1 = expected_prevalence(P, n, 1)
        e2 = expected_prevalence(P, n, 2)
        assert e1 * e1 <= 2.0 * e0 * e2 * (1 + 1e-12) + 1e-12


def test_cauchy_schwarz_equality_at_uniform():
    P = make_distribution("uniform", 100)
    n = 150.0
    lhs = expected_prevalence(P, n, 1) ** 2
    rhs = 2.0 * expected_prevalence(P, n, 0) * expected_prevalence(P, n, 2)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_collision_ratio_moments(zoo_distribution):
    # E[phi_1] <= (2k/n) E[phi_2] and E[phi_0] <= 2 (k/n)^2 E[phi_2]
    P = zoo_distribution
    k = P.k
    for n in (50.0, 100.0, 300.0):
        e0 = expected_prevalence(P, n, 0)
        e1 = expected_prevalence(P, n, 1)
        e2 = expected_prevalence(P, n, 2)
        assert e1 <= (2.0 * k / n) * e2 * (1 + 1e-12)
        assert e0 <= 2.0 * (k / n) ** 2 * e2 * (1 + 1e-12)


def test_monte_carlo_prevalence_mean(zoo_distribution):
    P = zoo_distribution
    n = 120.0
    trials = 4000
    for i in (0, 1, 2):
        draws = np.empty(trials)
        for t in range(trials):
            counts = sample(P, n, seed=[9, t]).counts
            draws[t] = np.count_nonzero(counts == i)
        mean = draws.mean()
        stderr = draws.std(ddof=1) / math.sqrt(trials)
        assert abs(mean - expected_prevalence(P, n, i)) <= 4 * stderr + 1e-9


@pytest.mark.parametrize("make, value", [
    (lambda: MultiplicitySample([1.5, 2.0]), "1.5"),
    (lambda: MultiplicitySample(np.array([3.0, np.nan])), "nan"),
    (lambda: Fingerprint({1: 2.5, 2.7: 1}), "2.5"),
    (lambda: Fingerprint({2.7: 1}), "2.7"),
])
def test_non_whole_values_are_refused_by_name(make, value):
    with pytest.raises(ValueError, match=f"whole numbers, got {value}$"):
        make()


def test_whole_floats_become_ints():
    counts = MultiplicitySample([2.0, 0.0, 5.0]).counts
    assert counts.dtype == np.int64 and counts.tolist() == [2, 0, 5]
    fp = Fingerprint({1: 2.0, 2.0: 3, 3: 0.0})
    assert fp.phi == {1: 2, 2: 3} and all(
        type(v) is int for item in fp.phi.items() for v in item)
