import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from supportsize.distributions import DiscreteDistribution, make_distribution
from supportsize.oracle import (
    DEFAULT_TAIL_TOL,
    LinearFunctional,
    PolyFunctional,
    build_instance,
    certification_campaign,
    charpoly,
    check_cauchy_schwarz,
    check_charpoly_integral,
    check_conditional_moment,
    check_decoupling_lower,
    check_decoupling_upper_concave,
    check_degree2_second_moment,
    check_domination_upper,
    check_inverse_falling_moments,
    check_moment_bound,
    check_negative_regression,
    dominator_value,
    f_inv,
    f_inv_falling2,
    f_inv_sq,
    f_neg_identity,
    moment_coefficients,
    phi_squared,
    summarize_certificates,
)
from supportsize.poisson_model import expected_prevalence


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def test_build_instance_cutoff():
    # the cutoff is the smallest M whose Poisson upper tail clears the
    # tolerance; for mean 0.1 that tail drops below 1e-10 at M = 6
    inst = build_instance([0.1])
    M = inst.max_counts[0]
    assert stats.poisson.sf(M, 0.1) < 1e-10
    assert stats.poisson.sf(M - 1, 0.1) >= 1e-10


def test_build_instance_normalization():
    inst = build_instance([0.7, 1.3, 2.1])
    assert abs(float(inst.probs.sum()) + inst.tail_mass - 1.0) < 1e-13
    assert inst.tail_mass <= 1e-10


def test_build_instance_joint_independence():
    inst = build_instance([1.0, 1.0])
    idx = np.flatnonzero((inst.counts == 0).all(axis=1))
    assert len(idx) == 1
    assert inst.probs[idx[0]] == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_build_instance_validation():
    with pytest.raises(ValueError):
        build_instance([])
    with pytest.raises(ValueError):
        build_instance([1.0] * 5)
    with pytest.raises(ValueError):
        build_instance([1.0, -1.0])
    with pytest.raises(ValueError):
        build_instance([50.0] * 4, cell_cap=1000)


def reference_instance(means, tail_tol=DEFAULT_TAIL_TOL):
    """Cutoffs, cells and cell probabilities by per-symbol quantile search and
    a per-cell itertools.product enumeration."""
    per_tol = tail_tol / len(means)
    cutoffs = []
    for lam in means:
        M = int(stats.poisson.ppf(1.0 - per_tol, lam))
        while stats.poisson.sf(M, lam) >= per_tol:
            M += 1
        cutoffs.append(M)
    axes = [np.arange(M + 1) for M in cutoffs]
    counts = np.array(list(itertools.product(*axes)), dtype=np.int64)
    probs = np.ones(len(counts))
    for j, (lam, M) in enumerate(zip(means, cutoffs)):
        probs *= stats.poisson.pmf(np.arange(M + 1), lam)[counts[:, j]]
    return tuple(cutoffs), counts, probs


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
def test_build_instance_matches_product_enumeration(means):
    inst = build_instance(means)
    cutoffs, counts, probs = reference_instance(means)
    assert inst.max_counts == cutoffs
    per_tol = DEFAULT_TAIL_TOL / len(means)
    for lam, M in zip(means, cutoffs):
        assert stats.poisson.sf(M, lam) < per_tol <= stats.poisson.sf(M - 1, lam)
    assert inst.counts.dtype == counts.dtype
    np.testing.assert_array_equal(inst.counts, counts)
    assert inst.probs.tobytes() == probs.tobytes()
    phi = np.array([np.bincount(row, minlength=max(cutoffs) + 1) for row in counts])
    assert inst.phi_table.dtype == phi.dtype
    np.testing.assert_array_equal(inst.phi_table, phi)
    assert inst.tail_mass <= DEFAULT_TAIL_TOL


def test_prevalence_matches_expected_prevalence():
    # cross-module consistency: the oracle's E[phi_i] equals the analytic
    # moment for the distribution/means pair
    means = [1.0, 1.0]
    inst = build_instance(means)
    P = DiscreteDistribution(probs=np.array([0.5, 0.5]), k=2)
    n = 2.0
    slack = 2 * inst.tail_mass + 1e-13
    for i in range(4):
        oracle_value = float(inst.prevalences(i) @ inst.probs)
        assert oracle_value == pytest.approx(
            expected_prevalence(P, n, i), abs=slack
        )
    assert float(inst.prevalences(1) @ inst.probs) == pytest.approx(
        2.0 * math.exp(-1.0), abs=slack
    )


def test_functional_validation():
    with pytest.raises(ValueError):
        PolyFunctional(degree=2, coeffs={(1,): 1.0})
    with pytest.raises(ValueError):
        LinearFunctional(coeffs=(0.5, 1.5))


# ---------------------------------------------------------------------------
# Decoupling checks
# ---------------------------------------------------------------------------


def test_decoupling_lower_constant_f():
    inst = build_instance([0.8, 1.2])
    poly = phi_squared(1)
    lin = LinearFunctional(coeffs=(0.0, 1.0))
    c = 0.37
    cert = check_decoupling_lower(inst, poly, lin, lambda x: np.full_like(
        np.asarray(x, dtype=float), c))
    assert cert.passed
    assert cert.lhs == pytest.approx(cert.rhs, abs=10 * cert.slack + 1e-12)


def test_decoupling_lower_example():
    inst = build_instance([1.0, 1.0, 1.0])
    poly = phi_squared(1)
    lin = LinearFunctional(coeffs=(0.0, 0.0, 1.0))
    cert = check_decoupling_lower(inst, poly, lin, f_inv)
    assert cert.passed and cert.margin > 0


def test_decoupling_upper_concave_collision_step():
    # f(x) = -x turns the concave upper bound into
    # E[phi_1^2 phi_0] >= E[phi_1^2] (E[phi_0] - 2 sigma_Chao)
    inst = build_instance([0.3, 0.3, 0.3])
    poly = phi_squared(1)
    lin = LinearFunctional(coeffs=(1.0,))
    cert = check_decoupling_upper_concave(inst, poly, lin, f_neg_identity)
    assert cert.passed


def test_decoupling_upper_concave_skips():
    # large means leave E[phi_0] below d*sigma, so the hypothesis fails
    inst = build_instance([6.0, 6.0])
    poly = phi_squared(1)
    lin = LinearFunctional(coeffs=(1.0,))
    cert = check_decoupling_upper_concave(inst, poly, lin, f_neg_identity)
    assert cert.status == "skipped"


def test_domination_identity_pointwise():
    # 1/(1+x)^2 <= 1/((1+x)(2+x)) + 3/((1+x)(2+x)(3+x)) on 0..50
    x = np.arange(51, dtype=float)
    assert np.all(f_inv_sq(x) <= dominator_value((0.0, 0.0, 1.0, 3.0), x) + 1e-15)
    # and 1/((1+x)(2+x)) is its own dominator
    np.testing.assert_allclose(
        dominator_value((0.0, 0.0, 1.0), x), f_inv_falling2(x), rtol=1e-14
    )


def test_domination_upper_example():
    inst = build_instance([0.4, 0.4])
    poly = PolyFunctional(degree=1, coeffs={(1,): 1.0})
    lin = LinearFunctional(coeffs=(1.0,))
    cert = check_domination_upper(inst, poly, lin, f_inv_sq,
                                  (0.0, 0.0, 1.0, 3.0))
    assert cert.passed


def test_domination_upper_sup_bound():
    # fprime = (sup f, 0, ...) dominates any bounded f and gives the
    # trivial bound E[poly] * sup f
    inst = build_instance([0.4, 0.4])
    poly = PolyFunctional(degree=1, coeffs={(1,): 1.0})
    lin = LinearFunctional(coeffs=(1.0,))
    cert = check_domination_upper(inst, poly, lin, f_inv, (1.0,))
    assert cert.passed
    e_poly = float(inst.poly_values(poly) @ inst.probs)
    assert cert.rhs == pytest.approx(e_poly, rel=1e-12)


def test_domination_rejects_bad_dominator():
    inst = build_instance([0.4, 0.4])
    poly = PolyFunctional(degree=1, coeffs={(1,): 1.0})
    lin = LinearFunctional(coeffs=(1.0,))
    with pytest.raises(ValueError):
        check_domination_upper(inst, poly, lin, f_inv, (0.0, 0.5))


# ---------------------------------------------------------------------------
# Characteristic polynomial checks
# ---------------------------------------------------------------------------


def test_charpoly_bernoulli():
    dist = charpoly([[(0.0, 0.7), (1.0, 0.3)]])
    assert dist == pytest.approx({0.0: 0.7, 1.0: 0.3})


def test_charpoly_convolution():
    dist = charpoly([[(0.0, 0.5), (1.0, 0.5)]] * 2)
    assert dist == pytest.approx({0.0: 0.25, 1.0: 0.5, 2.0: 0.25})


def test_charpoly_total_mass():
    rng = np.random.default_rng(4)
    supports = []
    for _ in range(3):
        values = rng.uniform(0, 1, size=3)
        masses = rng.dirichlet(np.ones(3))
        supports.append(list(zip(values.tolist(), masses.tolist())))
    dist = charpoly(supports)
    assert math.fsum(dist.values()) == pytest.approx(1.0, abs=1e-12)


def test_charpoly_validation():
    with pytest.raises(ValueError):
        charpoly([[(0.5, 0.4)]])
    with pytest.raises(ValueError):
        charpoly([[(1.5, 1.0)]])


def test_charpoly_integral_point_mass():
    # X = 1: integral is u^2/2, bound is u
    for u in (0.2, 0.7, 1.0):
        cert = check_charpoly_integral([[(1.0, 1.0)]], u)
        assert cert.passed
        assert cert.lhs == pytest.approx(u * u / 2.0, abs=1e-12)
        assert cert.rhs == pytest.approx(u, abs=1e-12)


def test_inverse_falling_moments_point_mass():
    cert = check_inverse_falling_moments([[(1.0, 1.0)]], max_r=3)
    assert cert.passed


def normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


# values are 0 or at least 1e-3: E[X]^-r overflows a float for E[X] near
# the bottom of the float range
support_values = st.one_of(st.just(0.0), st.floats(1e-3, 1.0))
supports = st.lists(
    st.lists(st.tuples(support_values, st.floats(0.01, 1.0)),
             min_size=1, max_size=4)
    .map(lambda pts: list(zip([v for v, _ in pts],
                              normalized([w for _, w in pts])))),
    min_size=1, max_size=5,
)


@settings(deadline=None)
@given(supports, st.integers(1, 5))
def test_inverse_falling_moments_matches_per_item_products(supports, max_r):
    cert = check_inverse_falling_moments(supports, max_r)
    dist = charpoly(supports)
    ex = math.fsum(s * mass for s, mass in dist.items())
    if ex <= 0:
        assert cert.status == "skipped"
        return
    worst = math.inf
    for r in range(1, max_r + 1):
        lhs = math.fsum(
            mass * np.prod([1.0 / (s + j) for j in range(1, r + 1)])
            for s, mass in dist.items()
        )
        worst = min(worst, ex**-r - lhs)
    assert cert.margin == worst


# ---------------------------------------------------------------------------
# Moment checks
# ---------------------------------------------------------------------------


def brute_force_partition_counts(h):
    """Number of set partitions of {1..h} with exactly b blocks, for b=1..h.

    Exhaustive enumeration: assign each element to an existing block or a
    fresh one (restricted growth strings).
    """
    counts = [0] * h

    def extend(pos, nblocks):
        if pos == h:
            counts[nblocks - 1] += 1
            return
        for b in range(nblocks + 1):
            extend(pos + 1, max(nblocks, b + 1))

    extend(1, 1)
    return tuple(counts)


def test_moment_coefficients_base_cases():
    assert moment_coefficients(1) == (1,)
    assert moment_coefficients(2) == (1, 1)
    assert moment_coefficients(4) == (1, 7, 6, 1)


def test_moment_coefficients_brute_force_oracle():
    # the recursion must reproduce the exhaustive expansion of
    # E[(sum of indicators)^h]: partitions of the h factors by block count
    for h in range(1, 7):
        assert moment_coefficients(h) == brute_force_partition_counts(h)


def test_moment_bound_equality_at_h1():
    inst = build_instance([1.0, 2.0])
    cert = check_moment_bound(inst, 1, 1)
    assert cert.passed
    assert cert.lhs == pytest.approx(cert.rhs, abs=10 * cert.slack + 1e-12)


def test_moment_bound_examples():
    inst = build_instance([1.0, 1.0, 1.0])
    for h in (2, 3, 4):
        cert = check_moment_bound(inst, 1, h)
        assert cert.passed and cert.margin > 0


def test_moment_bound_single_symbol():
    inst = build_instance([0.9])
    for j in (0, 1, 2):
        for h in (1, 2, 3, 4):
            assert check_moment_bound(inst, j, h).passed
    with pytest.raises(ValueError):
        check_moment_bound(inst, 1, 7)


def test_degree2_second_moment():
    inst = build_instance([1.0, 1.0])
    cert = check_degree2_second_moment(inst, phi_squared(1), k=2, L=1)
    assert cert.passed
    zero = PolyFunctional(degree=2, coeffs={(1, 1): 0.0})
    cert = check_degree2_second_moment(inst, zero, k=2, L=1)
    assert cert.passed
    assert cert.lhs == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        check_degree2_second_moment(inst, phi_squared(3), k=2, L=1)


def test_conditional_moment_single_symbol_factor():
    inst = build_instance([1.0])
    cert = check_conditional_moment(inst, 0, 3)
    assert cert.passed
    # with m = 1 the inflation factor is 1/(1 - 2 e^-2), exponent clamped
    uncond = float((inst.prevalences(0) ** 3) @ inst.probs)
    assert cert.rhs == pytest.approx(
        uncond / (1.0 - 2.0 * math.exp(-2.0)), rel=1e-12
    )
    with pytest.raises(ValueError):
        check_conditional_moment(inst, 2, 2)


def test_negative_regression_example():
    inst = build_instance([1.0, 1.0, 1.0])
    cert = check_negative_regression(inst, 1, 2, lambda x: x**4)
    assert cert.passed


def test_negative_regression_validation():
    inst = build_instance([1.0, 1.0])
    with pytest.raises(ValueError):
        check_negative_regression(inst, 1, 1, lambda x: x)


def test_cauchy_schwarz_zoo():
    for family in ("uniform", "zipf", "geometric", "two_mixture"):
        P = make_distribution(family, 100)
        for n in (50.0, 200.0):
            assert check_cauchy_schwarz(P, n).passed


def test_cauchy_schwarz_single_symbol_equality():
    P = DiscreteDistribution(probs=np.array([1.0]), k=1)
    cert = check_cauchy_schwarz(P, 3.0)
    assert cert.passed
    assert cert.lhs == pytest.approx(cert.rhs, rel=1e-12)


# ---------------------------------------------------------------------------
# Campaign
# ---------------------------------------------------------------------------


@pytest.mark.skipif(
    np.__version__.split(".")[:2] != ["2", "4"]
    or scipy.__version__.split(".")[:2] != ["1", "17"],
    reason="the campaign hash was recorded with numpy 2.4 and scipy 1.17")
def test_campaign_certificates_are_pinned():
    # the verify ratios at campaign size 10; instance enumeration, the
    # checks and their slack are part of the output contract
    certs = certification_campaign(
        seed=0, decoupling=10, charpoly_cases=20, moment=10, degree2=10,
        conditional=10, regression=10,
    )
    assert hashlib.sha256(repr(certs).encode()).hexdigest() == (
        "509667bafe17841e9960dacc26691bb829c5d1de7f83532d682a2c282c4e4d90")


def test_campaign_rejects_negative_counts():
    with pytest.raises(ValueError):
        certification_campaign(moment=-1)


def test_small_campaign_has_no_falsifications():
    certs = certification_campaign(
        seed=12345, decoupling=20, charpoly_cases=40, moment=20, degree2=20,
        conditional=20, regression=20,
    )
    summary = summarize_certificates(certs)
    assert sum(v["falsified"] for v in summary.values()) == 0
    # every check family must actually have produced passing certificates
    for name in (
        "decoupling_lower", "decoupling_upper_concave", "domination_upper",
        "charpoly_integral", "inverse_falling_moments", "moment_bound",
        "degree2_second_moment", "conditional_moment", "negative_regression",
        "cauchy_schwarz",
    ):
        assert summary[name]["passed"] > 0
