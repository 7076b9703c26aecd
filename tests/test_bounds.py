import math

import pytest

from supportsize.bounds import (
    LOW_COLLISION_A,
    SIGMA_CHAO,
    BoundInapplicableError,
    bias_bounds,
    bound_report,
    chao_mse_leading_term,
    chao_mse_upper,
    epsilon_term,
    high_collision_bound,
    low_collision_bound,
    low_collision_bound_at_threshold,
    plugin_mse_bounds,
    sigma_of,
    solve_alpha,
)
from supportsize.distributions import make_distribution
from supportsize.poisson_model import exact_bias_expression, exact_plugin_mse


def test_alpha_regression():
    alpha = solve_alpha()
    assert alpha == pytest.approx(0.5569, abs=5e-5)
    assert abs(alpha**2 - 4.0 * math.exp(-(alpha + 2.0))) < 1e-11


def test_alpha_against_independent_solver():
    # second root-finder: interval halving from the bracket [0.5, 0.6]
    f = lambda u: u * u - 4.0 * math.exp(-(u + 2.0))
    lo, hi = 0.5, 0.6
    assert f(lo) < 0 < f(hi)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    assert solve_alpha() == pytest.approx(0.5 * (lo + hi), abs=1e-12)


def test_sigma_examples():
    assert sigma_of((0.0, 0.0, 1.0)) == pytest.approx(
        1.0 / math.sqrt(4 * math.pi), abs=1e-12
    )
    assert sigma_of((0.0, 0.0, 1.0)) == pytest.approx(0.2821, abs=1e-4)
    assert sigma_of(()) == 0.0
    assert sigma_of((0.0, 0.0, 0.0)) == 0.0
    assert sigma_of((1.0,)) == 1.0
    assert SIGMA_CHAO == sigma_of((0.0, 0.0, 1.0))
    with pytest.raises(ValueError):
        sigma_of((1.5,))


def test_plugin_bounds_n_zero():
    lower, upper = plugin_mse_bounds(0.0, 10)
    assert upper == 110.0
    assert lower == 100.0


def test_plugin_bounds_frozen_value():
    # 1e4 e^-2 + 100 e^-1, evaluated independently
    _, upper = plugin_mse_bounds(100.0, 100)
    assert upper == pytest.approx(1390.1407764832713, rel=1e-12)


def test_plugin_lower_tight_at_uniform():
    for k, n in [(10, 5.0), (100, 300.0), (1000, 2000.0)]:
        lower, upper = plugin_mse_bounds(n, k)
        exact = exact_plugin_mse(make_distribution("uniform", k), n)
        assert lower == pytest.approx(exact, rel=1e-12)
        assert lower <= upper


def test_chao_bound_vanishes():
    # the slowest epsilon term decays like n^(-1/5), so the limit is slow
    ladder = [chao_mse_upper(n, 100)[0] for n in (1e4, 1e8, 1e16, 1e60)]
    assert all(a > b for a, b in zip(ladder, ladder[1:]))
    assert ladder[-1] < 1e-9


def test_chao_leading_term_at_n_equals_k():
    # (1 + 1/alpha)^-4 e^-2 with alpha = 0.55693, evaluated independently
    for k in (10, 100, 1000):
        assert chao_mse_leading_term(float(k), k) == pytest.approx(
            k * k * 0.002215824225828, rel=1e-6
        )


def test_epsilon_coefficients_verbatim():
    # reassemble the term sum with the published coefficients
    n, k = 150.0, 30
    thresh = n**0.8 - math.sqrt(4.0 / math.pi)
    expected = (
        4.0 * k**4 / thresh**3
        + 32.28 * k**4 / n**2.4
        + 98.97 * k**3 / n**2.2
        + 2.0 * k**2 / n**1.2
        + 1.77 * k / n**0.2
        + 22.21 * k**2 / n**2
    )
    assert epsilon_term(n, k) == pytest.approx(expected, rel=1e-14)
    total, eps = chao_mse_upper(n, k)
    assert eps == epsilon_term(n, k)
    assert total == pytest.approx(chao_mse_leading_term(n, k) + eps, rel=1e-14)


def test_epsilon_precondition():
    with pytest.raises(BoundInapplicableError):
        epsilon_term(1.0, 10)
    # n = 2 clears the n^(4/5) > sqrt(4/pi) threshold
    assert epsilon_term(2.0, 10) > 0


def test_high_collision_examples():
    # zero-bias case: only the 4 k^4 / gap^3 term remains
    e2, e0, k = 5.0, 3.0, 20
    value = high_collision_bound(2.0 * e2 * e0, e2, e0, k)
    gap = e2 - 4.0 * SIGMA_CHAO
    assert value == pytest.approx(4.0 * k**4 / gap**3, rel=1e-12)
    # huge collision count: the bias term dominates
    bias = 2.5
    value = high_collision_bound(2.0 * 1e9 * bias, 1e9, 0.0, k)
    assert value == pytest.approx(bias * bias, abs=1e-6)
    with pytest.raises(BoundInapplicableError):
        high_collision_bound(1.0, 1.0, 1.0, k)
    with pytest.raises(ValueError):
        high_collision_bound(1.0, 10.0, 1.0, 1)


def test_bias_bounds_vanish():
    lower, upper, sq_upper = bias_bounds(1e9, 100)
    assert abs(lower) < 1e-12 and upper < 1e-6 and sq_upper < 1e-12


def test_bias_bounds_bracket_exact_expression(zoo_distribution):
    P = zoo_distribution
    k = P.k
    for n in (k / 2, k, 2 * k, 4 * k, 8 * k):
        lower, upper, sq_upper = bias_bounds(float(n), k)
        bias = exact_bias_expression(P, float(n))
        assert lower - 1e-9 <= bias <= upper + 1e-9
        assert bias * bias <= sq_upper + 1e-9


def test_low_collision_constant():
    # a = 1/(1 - 2 e^-2)^4, evaluated independently
    assert LOW_COLLISION_A == pytest.approx(3.5343132355839417, rel=1e-12)


def test_low_collision_at_zero():
    n, k = 50.0, 10
    assert low_collision_bound(0.0, n, k) == pytest.approx(
        6.0 * LOW_COLLISION_A * (k / n) ** 2, rel=1e-12
    )


def test_threshold_coefficients_match_quadratic():
    a = LOW_COLLISION_A
    assert 4.0 + 8.0 * a == pytest.approx(32.28, abs=0.01)
    assert 28.0 * a == pytest.approx(98.97, abs=0.03)
    assert 0.5 * a == pytest.approx(1.768, abs=0.002)
    assert 6.0 * a == pytest.approx(21.21, abs=0.01)
    for n, k in [(100.0, 10), (1000.0, 50), (10000.0, 200)]:
        lhs = low_collision_bound(n**0.8, n, k)
        rhs = low_collision_bound_at_threshold(n, k)
        assert lhs == pytest.approx(rhs, rel=2e-3)


def test_threshold_frozen_value():
    # term-by-term evaluation with an independent high-precision calculator
    assert low_collision_bound_at_threshold(100.0, 10) == pytest.approx(
        17.11091315213633, rel=1e-12
    )
    assert low_collision_bound_at_threshold(1e60, 10) < 1e-9
    with pytest.raises(ValueError):
        low_collision_bound_at_threshold(0.5, 10)


def test_bound_report_shape():
    report = bound_report(200.0, 100, make_distribution("uniform", 100))
    assert report.plugin_lower <= report.plugin_upper
    assert report.chao_worst_case == pytest.approx(
        chao_mse_upper(200.0, 100)[0]
    )
    assert report.bias_lower <= 0 <= report.bias_upper
    assert report.low_collision is not None
    # uniform(100) at n=200 has E[phi_2] ~ 27 > 4 sigma
    assert report.high_collision is not None
    lean = bound_report(200.0, 100)
    assert lean.low_collision is None and lean.high_collision is None
    tiny = bound_report(1.0, 100)
    assert tiny.chao_worst_case is None and tiny.epsilon_term is None


BOUND_ENTRY_POINTS = {
    "plugin_mse_bounds": plugin_mse_bounds,
    "epsilon_term": epsilon_term,
    "chao_mse_leading_term": chao_mse_leading_term,
    "chao_mse_upper": chao_mse_upper,
    "bias_bounds": bias_bounds,
    "low_collision_bound": lambda n, k: low_collision_bound(1.0, n, k),
    "low_collision_bound_at_threshold": low_collision_bound_at_threshold,
    "bound_report": bound_report,
}


@pytest.mark.parametrize("name", sorted(BOUND_ENTRY_POINTS))
def test_bound_entry_points_validate_n_and_k(name):
    # n must be finite and positive (plugin_mse_bounds also takes n = 0),
    # k at least 2; a plain ValueError, not BoundInapplicableError, which
    # marks a violated hypothesis on valid input
    fn = BOUND_ENTRY_POINTS[name]
    for n, k in [(-5.0, 10), (math.nan, 10), (math.inf, 10), (200.0, 1),
                 (200.0, 0)]:
        with pytest.raises(ValueError) as err:
            fn(n, k)
        assert not isinstance(err.value, BoundInapplicableError)
    assert fn(200.0, 10) is not None
