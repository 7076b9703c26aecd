import math

import numpy as np
import pytest
from numpy.polynomial.chebyshev import chebval

from supportsize.distributions import make_distribution
from supportsize.estimators import (
    UndefinedEstimateError,
    chebyshev_coefficients,
    support_estimate,
)
from supportsize.poisson_model import Fingerprint, fingerprint, sample


def fp(phi, phi0=None):
    return Fingerprint(phi=phi, phi0=phi0)


def estimate(f, estimator_id, **kwargs):
    return support_estimate(f, estimator_id, **kwargs).value


def unseen(f, estimator_id):
    """The unseen-symbol part of a support estimate."""
    return estimate(f, estimator_id) - sum(f.phi.values())


def test_plugin_examples():
    assert estimate(fp({1: 2, 3: 1}), "plugin") == 3
    assert estimate(fp({}), "plugin") == 0
    assert estimate(fp({1: 5}), "plugin") == 5


def test_chao_examples():
    assert unseen(fp({1: 4, 2: 2}), "chao") == 4
    assert unseen(fp({2: 7}), "chao") == 0
    with pytest.raises(UndefinedEstimateError):
        unseen(fp({1: 3}), "chao")


def test_modified_chao_examples():
    assert unseen(fp({1: 4, 2: 1}), "modified_chao") == 4
    assert unseen(fp({1: 3}), "modified_chao") == 4.5
    assert unseen(fp({}), "modified_chao") == 0


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
        assert unseen(f, "modified_chao") <= unseen(f, "chao")


def test_estimates_non_negative_and_finite():
    P = make_distribution("geometric", 200)
    for t in range(50):
        f = fingerprint(sample(P, 300.0, seed=[2, t]), P)
        values = [
            estimate(f, "plugin"),
            unseen(f, "modified_chao"),
            estimate(f, "chebyshev", k=200, n=300.0),
        ]
        assert all(v >= 0 and math.isfinite(v) for v in values)
        assert estimate(f, "plugin") + f.phi0 == len(P)


def test_chebyshev_empty_fingerprint():
    assert estimate(fp({}), "chebyshev", k=1000, n=2000.0) == 0


def test_chebyshev_coefficients_cutoff():
    k, n = 1000, 2000.0
    g = chebyshev_coefficients(k, n)
    L = math.floor(0.45 * math.log(k))
    assert len(g) == L
    # beyond the cutoff the estimator is the plug-in: a fingerprint
    # supported entirely on counts > L gets coefficient 1 everywhere
    f = fp({L + 1: 4, L + 5: 2})
    assert estimate(f, "chebyshev", k=k, n=n) == pytest.approx(6.0)


def test_chebyshev_degenerate_interval_is_plugin():
    # once c1 log(k)/n <= 1/k every coefficient collapses to the plug-in
    k = 1000
    n = 2.0 * k * math.log(k)
    assert len(chebyshev_coefficients(k, n)) == 0
    f = fp({1: 3, 2: 2})
    assert estimate(f, "chebyshev", k=k, n=n) == 5.0


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
        total += estimate(f, "chebyshev", k=1000, n=2000.0)
    mean = total / 500
    assert 800.0 <= mean <= 1200.0


def test_chebyshev_argument_validation():
    f = fp({1: 1})
    with pytest.raises(ValueError):
        estimate(f, "chebyshev", k=1, n=10.0)
    with pytest.raises(ValueError):
        estimate(f, "chebyshev", k=10, n=0.0)
    with pytest.raises(ValueError):
        chebyshev_coefficients(10, 10.0, c0=-1.0)
    with pytest.raises(ValueError):
        support_estimate(f, "chebyshev")
