import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from supportsize.distributions import make_distribution
from supportsize.estimators import (
    UndefinedEstimateError,
    chao_unseen,
    chebyshev_coefficients,
    chebyshev_support,
    modified_chao_unseen,
    plugin_support,
    support_estimate,
)
from supportsize.poisson_model import Fingerprint, fingerprint, sample


def fp(phi, phi0=None):
    return Fingerprint(phi=phi, phi0=phi0)


def test_plugin_examples():
    assert plugin_support(fp({1: 2, 3: 1})) == 3
    assert plugin_support(fp({})) == 0
    assert plugin_support(fp({1: 5})) == 5


def test_chao_examples():
    assert chao_unseen(fp({1: 4, 2: 2})) == 4
    assert chao_unseen(fp({2: 7})) == 0
    with pytest.raises(UndefinedEstimateError):
        chao_unseen(fp({1: 3}))


def test_modified_chao_examples():
    assert modified_chao_unseen(fp({1: 4, 2: 1})) == 4
    assert modified_chao_unseen(fp({1: 3})) == 4.5
    assert modified_chao_unseen(fp({})) == 0


def test_support_estimate_composition():
    out = support_estimate(fp({1: 4, 2: 2}), "modified_chao")
    assert out.value == pytest.approx(6 + 16 / 6)
    assert out.estimator_id == "modified_chao"
    assert support_estimate(fp({}), "modified_chao").value == 0
    assert support_estimate(fp({1: 2, 2: 1}), "chao").value == 5
    with pytest.raises(UndefinedEstimateError):
        support_estimate(fp({1: 3}), "chao")
    with pytest.raises(ValueError):
        support_estimate(fp({1: 3}), "jackknife")


def test_modified_never_exceeds_chao():
    rng = np.random.default_rng(0)
    for _ in range(200):
        phi = {1: int(rng.integers(0, 20)), 2: int(rng.integers(1, 10))}
        f = fp(phi)
        assert modified_chao_unseen(f) <= chao_unseen(f)


def test_estimates_non_negative_and_finite():
    P = make_distribution("geometric", 200)
    for t in range(50):
        f = fingerprint(sample(P, 300.0, seed=[2, t]), P)
        values = [
            plugin_support(f),
            modified_chao_unseen(f),
            chebyshev_support(f, 200, 300.0).value,
        ]
        assert all(v >= 0 and math.isfinite(v) for v in values)
        assert plugin_support(f) + f.phi0 == len(P)


def test_chebyshev_empty_fingerprint():
    assert chebyshev_support(fp({}), 1000, 2000.0).value == 0


def test_chebyshev_coefficients_cutoff():
    k, n = 1000, 2000.0
    g = chebyshev_coefficients(k, n)
    L = math.floor(0.45 * math.log(k))
    assert len(g) == L
    # beyond the cutoff the estimator is the plug-in: a fingerprint
    # supported entirely on counts > L gets coefficient 1 everywhere
    f = fp({L + 1: 4, L + 5: 2})
    assert chebyshev_support(f, k, n).value == pytest.approx(6.0)


def test_chebyshev_degenerate_interval_is_plugin():
    # once c1 log(k)/n <= 1/k every coefficient collapses to the plug-in
    k = 1000
    n = 2.0 * k * math.log(k)
    assert len(chebyshev_coefficients(k, n)) == 0
    f = fp({1: 3, 2: 2})
    assert chebyshev_support(f, k, n).value == 5.0


@pytest.mark.parametrize("k", [10**2, 10**3, 10**4, 10**5, 10**6])
@pytest.mark.parametrize("ratio", [0.25, 0.5, 1.0, 2.0, 4.0])
def test_chebyshev_coefficients_match_shifted_chebyshev_polynomial(k, ratio):
    # 1 + sum_j (1 - g_j) (n x)^j / j! is T_L(t(x)) / T_L(t(0)), with t the
    # affine map of [1/k, c1 ln k / n] onto [-1, 1]
    n = ratio * k
    g = chebyshev_coefficients(k, n)
    left, right = 1.0 / k, 0.5 * math.log(k) / n
    if right <= left:
        assert len(g) == 0
        return
    L = math.floor(0.45 * math.log(k))
    assert len(g) == L
    x = np.linspace(left, right, 50)
    j = np.arange(1, L + 1)
    lhs = 1.0 + ((n * x[:, None]) ** j * (1.0 - g) / np.cumprod(j)).sum(axis=1)
    t = lambda x: (2.0 * x - (left + right)) / (right - left)
    T_L = np.eye(L + 1)[L]
    rhs = chebval(t(x), T_L) / chebval(t(0.0), T_L)
    # |rhs| <= 1 on the interval: the tolerance is relative to the leading 1
    np.testing.assert_allclose(lhs, rhs, rtol=1e-9, atol=1e-9)


def test_chebyshev_monte_carlo_band():
    P = make_distribution("uniform", 1000)
    total = 0.0
    for t in range(500):
        f = fingerprint(sample(P, 2000.0, seed=[11, t]))
        total += chebyshev_support(f, 1000, 2000.0).value
    mean = total / 500
    assert 800.0 <= mean <= 1200.0


def test_chebyshev_argument_validation():
    f = fp({1: 1})
    with pytest.raises(ValueError):
        chebyshev_support(f, 1, 10.0)
    with pytest.raises(ValueError):
        chebyshev_support(f, 10, 0.0)
    with pytest.raises(ValueError):
        chebyshev_support(f, 10, 10.0, c0=-1.0)
    with pytest.raises(ValueError):
        support_estimate(f, "chebyshev")
