import collections
import hashlib
import itertools
import math

import numpy as np
import pytest
import scipy
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from supportsize import oracle
from supportsize.distributions import (FAMILIES, DiscreteDistribution,
                                       make_distribution)
from supportsize.oracle import (
    MAX_PREVALENCE,
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
    f_exp_neg,
    f_inv,
    f_inv_falling2,
    f_inv_sq,
    f_neg_identity,
    moment_coefficients,
    phi_squared,
    summarize_certificates,
)
from supportsize.poisson_model import expected_prevalence, prevalence_second_moment


# ---------------------------------------------------------------------------
# Instance construction
# ---------------------------------------------------------------------------


def test_build_instance_normalization():
    inst = build_instance([0.7, 1.3, 2.1])
    assert inst.tail_mass == 0.0
    assert abs(math.fsum(inst.probs.tolist()) - 1.0) <= 1e-15


def test_build_instance_joint_independence():
    inst = build_instance([1.0, 1.0])
    idx = np.flatnonzero((inst.counts == 0).all(axis=1))
    assert len(idx) == 1
    assert inst.probs[idx[0]] == pytest.approx(math.exp(-2.0), rel=1e-13)


def test_build_instance_validation():
    for means in ([], [1.0] * 5, [1.0, -1.0], [1.0, math.nan], [math.inf]):
        with pytest.raises(ValueError):
            build_instance(means)
    # means whose truncated box would hold about 1e8 cells (four of 50) or
    # more than 1e7 phi_table entries (3000 and up) build the same small law:
    # every symbol is almost surely in the top class
    for means in ([50.0] * 4, [3000.0], [1e5], [1e9], [1e300]):
        inst = build_instance(means)
        assert len(inst.probs) == len(inst.counts) == 6 ** len(means)
        assert abs(math.fsum(inst.probs.tolist()) - 1.0) <= 1e-15
        assert inst.tail_mass == 0.0


#: The reference box drops per symbol at most this much tail mass over m.
TAIL_TOL = 1e-10


def reference_instance(means):
    """Full counts, cell probabilities and left-out tail mass of the product
    Poisson law, by per-symbol quantile search for the cutoffs and a per-cell
    itertools.product enumeration of the box below them."""
    per_tol = TAIL_TOL / len(means)
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
    return counts, probs, 1.0 - math.fsum(probs.tolist())


@settings(deadline=None, max_examples=50)
@given(st.lists(st.floats(0.05, 3.0), min_size=1, max_size=4))
def test_build_instance_matches_product_enumeration(means):
    # cell by cell: the capped counts in itertools.product order, each
    # probability the product of its class masses, and the prevalences
    inst = build_instance(means)
    counts = np.array(list(itertools.product(range(6), repeat=len(means))))
    np.testing.assert_array_equal(inst.counts, counts)
    masses = [np.append(stats.poisson.pmf(np.arange(5), lam),
                        stats.poisson.sf(4, lam)) for lam in means]
    probs = np.ones(len(counts))
    for j, mass in enumerate(masses):
        probs *= mass[counts[:, j]]
    assert inst.probs.tobytes() == probs.tobytes()
    phi = np.array([np.bincount(row, minlength=6)[:5] for row in counts])
    assert inst.phi_table.dtype == phi.dtype == np.int64
    np.testing.assert_array_equal(inst.phi_table, phi)


@settings(deadline=None, max_examples=60)
@given(
    st.lists(st.floats(0.05, 3.0, exclude_min=True), min_size=1, max_size=3),
    st.integers(1, 3).flatmap(lambda d: st.dictionaries(
        st.tuples(*[st.integers(0, MAX_PREVALENCE)] * d), st.floats(0.0, 1.0),
        min_size=1, max_size=3)),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=MAX_PREVALENCE + 1),
    st.sampled_from([f_inv, f_inv_sq, f_exp_neg]),
)
def test_class_law_expectations_match_box_enumeration(means, coeffs, beta, f):
    # E[poly * f(beta . phi)] under the class law against the reference box:
    # the box leaves out tail_mass, so the two differ by at most tail_mass
    # times the integrand's sup, plus rounding
    inst = build_instance(means)
    assert abs(math.fsum(inst.probs.tolist()) - 1.0) <= 1e-15
    poly = PolyFunctional(degree=len(next(iter(coeffs))), coeffs=coeffs)
    lin = LinearFunctional(tuple(beta))
    values = inst.poly_values(poly) * f(inst.linear_values(lin))
    counts, probs, tail_mass = reference_instance(means)
    width = max(int(counts.max()), MAX_PREVALENCE) + 1
    phi = np.array([np.bincount(row, minlength=width)[:MAX_PREVALENCE + 1]
                    for row in counts])
    ref_values = f(phi[:, :len(beta)] @ beta) * sum(
        coeff * np.prod(phi[:, list(idx)], axis=1) for idx, coeff in coeffs.items())
    sup = float(np.max(np.abs(ref_values)))
    assert abs(float(values @ inst.probs) - float(ref_values @ probs)) <= (
        tail_mass * sup + 1e-12)


def test_prevalence_matches_expected_prevalence():
    # cross-module consistency: the oracle's E[phi_i] and E[phi_i^2] equal
    # the analytic moments for the distribution/means pair, up to rounding
    for probs, n in (([0.5, 0.5], 2.0), ([0.2, 0.3, 0.5], 3.7)):
        P = DiscreteDistribution(np.array(probs), k=len(probs), strict=False)
        inst = build_instance(n * P.probs)
        for i in range(MAX_PREVALENCE + 1):
            phi = inst.prevalences(i)
            assert float(phi @ inst.probs) == pytest.approx(
                expected_prevalence(P, n, i), rel=4e-15, abs=0.0)
            assert float(phi**2 @ inst.probs) == pytest.approx(
                prevalence_second_moment(P, n, i), rel=4e-15, abs=0.0)
    inst = build_instance([1.0, 1.0])
    assert float(inst.prevalences(1) @ inst.probs) == pytest.approx(
        2.0 * math.exp(-1.0), rel=4e-15, abs=0.0)


@pytest.mark.parametrize("call", [
    lambda inst: inst.prevalences(5),
    lambda inst: inst.poly_values(PolyFunctional(degree=2, coeffs={(1, 5): 1.0})),
    lambda inst: inst.linear_values(LinearFunctional(coeffs=(0.0,) * 6)),
], ids=["prevalences", "poly_values", "linear_values"])
def test_indices_above_the_class_law_are_refused(call):
    # the top class holds counts 5 and up, so phi_5 and beyond are unknown
    with pytest.raises(ValueError, match=r"^[^\n]*index 5[^\n]*above 4[^\n]*$"):
        call(build_instance([1.0, 2.0]))


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
    values, masses = charpoly([[(0.0, 0.7), (1.0, 0.3)]])
    assert values.tolist() == [0.0, 1.0]
    assert masses == pytest.approx([0.7, 0.3])


def test_charpoly_convolution():
    # one entry per choice of support points, the last variable fastest
    values, masses = charpoly([[(0.0, 0.5), (1.0, 0.5)]] * 2)
    assert values.tolist() == [0.0, 1.0, 1.0, 2.0]
    assert masses.tolist() == [0.25, 0.25, 0.25, 0.25]
    law = {s: math.fsum(masses[values == s]) for s in np.unique(values)}
    assert law == pytest.approx({0.0: 0.25, 1.0: 0.5, 2.0: 0.25})
    # the empty sum is the point mass at 0
    assert [a.tolist() for a in charpoly([])] == [[0.0], [1.0]]


def test_charpoly_total_mass():
    rng = np.random.default_rng(4)
    supports = []
    for _ in range(3):
        values = rng.uniform(0, 1, size=3)
        masses = rng.dirichlet(np.ones(3))
        supports.append(list(zip(values.tolist(), masses.tolist())))
    values, masses = charpoly(supports)
    assert math.fsum(masses) == pytest.approx(1.0, abs=1e-12)
    # entry c is the c-th choice of support points in itertools.product order
    choices = list(itertools.product(*supports))
    assert values.tolist() == [sum(v for v, _ in pts) for pts in choices]
    assert masses.tolist() == [math.prod(m for _, m in pts) for pts in choices]


def test_charpoly_validation():
    with pytest.raises(ValueError):
        charpoly([[(0.5, 0.4)]])
    with pytest.raises(ValueError):
        charpoly([[(1.5, 1.0)]])


def test_charpoly_integral_point_mass():
    # X = 1: integral is u^2/2, bound is u
    for u in (0.2, 0.7, 1.0):
        cert = check_charpoly_integral(charpoly([[(1.0, 1.0)]]), u)
        assert cert.passed
        assert cert.lhs == pytest.approx(u * u / 2.0, abs=1e-12)
        assert cert.rhs == pytest.approx(u, abs=1e-12)


def test_inverse_falling_moments_point_mass():
    cert = check_inverse_falling_moments(charpoly([[(1.0, 1.0)]]), max_r=3)
    assert cert.passed


@pytest.mark.parametrize("max_r", [1, 3])
def test_inverse_falling_moments_skips_when_mean_power_overflows(max_r):
    # E[X] = 2.2e-311: E[X]^-r is beyond the float range
    cert = check_inverse_falling_moments(
        charpoly([[(2.225073858507e-311, 1.0)]]), max_r)
    assert cert.status == "skipped"
    assert cert.detail == f"E[X]^-{max_r} overflows"


def normalized(weights):
    total = sum(weights)
    return [w / total for w in weights]


# values are 0 or at least 1e-3: E[X]^-r overflows a float for E[X] near
# the bottom of the float range, a case tested on its own above
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
    cert = check_inverse_falling_moments(charpoly(supports), max_r)
    values, masses = charpoly(supports)
    ex = math.fsum(s * mass for s, mass in zip(values, masses))
    if ex <= 0:
        assert cert.status == "skipped"
        return
    worst = math.inf
    for r in range(1, max_r + 1):
        lhs = math.fsum(
            mass * np.prod([1.0 / (s + j) for j in range(1, r + 1)])
            for s, mass in zip(values, masses)
        )
        worst = min(worst, ex**-r - lhs)
    assert cert.margin == worst


@settings(deadline=None)
@given(supports, st.floats(1e-3, 1.0))
def test_charpoly_integral_matches_per_entry_sums(supports, u):
    # each power is Python's pow of one law entry, so the certificate does
    # not depend on how numpy vectorises power on this CPU
    cert = check_charpoly_integral(charpoly(supports), u)
    law = list(zip(*(a.tolist() for a in charpoly(supports))))
    ex = math.fsum(s * mass for s, mass in law)
    if ex <= 0:
        assert cert.status == "skipped"
        return
    lhs = math.fsum(mass * u ** (s + 1.0) / (s + 1.0) for s, mass in law)
    rhs = math.fsum(mass * u**s for s, mass in law) / ex
    assert (cert.lhs, cert.rhs) == (lhs, rhs)


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
    # the coefficients must reproduce the exhaustive expansion of
    # E[(sum of indicators)^h]: partitions of the h factors by block count
    for h in range(1, 7):
        assert moment_coefficients(h) == brute_force_partition_counts(h)


def test_moment_coefficients_match_stirling_recurrence():
    # S(h, m) = m S(h-1, m) + S(h-1, m-1), S(0, 0) = 1, in exact integers
    row = [1]
    for h in range(1, 30):
        row = [0] + [m * (row[m] if m < len(row) else 0) + row[m - 1]
                     for m in range(1, h + 1)]
        assert moment_coefficients(h) == tuple(row[1:])


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


def test_negative_regression_skips_values_of_zero_mass():
    # at mean 1e300 the pmf of 0..4 underflows to 0: that symbol is in the
    # top class with mass 1, so phi_1 = 2 has zero mass and is not feasible
    inst = build_instance([1e300, 1.0])
    assert float(inst.probs[inst.prevalences(1) == 2].sum()) == 0.0
    with np.errstate(all="raise"):
        cert = check_negative_regression(inst, 0, 1, lambda x: x)
    # E[phi_0 | phi_1 = 0] = e^-1 / (1 - e^-1) and E[phi_0 | phi_1 = 1] = 0
    assert cert.passed
    assert cert.margin == pytest.approx(1.0 / (math.e - 1.0), rel=1e-15, abs=0.0)
    # with that symbol alone, phi_1 = 0 is the one feasible value
    cert = check_negative_regression(build_instance([1e300]), 0, 1, lambda x: x)
    assert cert.status == "skipped"


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


pinned_versions = pytest.mark.skipif(
    np.__version__.split(".")[:2] != ["2", "4"]
    or scipy.__version__.split(".")[:2] != ["1", "17"],
    reason="the campaign hashes were recorded with numpy 2.4 and scipy 1.17")


@pinned_versions
def test_campaign_certificates_are_pinned():
    # the verify ratios at campaign size 10; the instances' class law, the
    # checks and their slack are part of the output contract
    certs = certification_campaign(
        seed=0, decoupling=10, charpoly_cases=20, moment=10, degree2=10,
        conditional=10, regression=10,
    )
    assert hashlib.sha256(repr(certs).encode()).hexdigest() == (
        "94f40757bdc8c21e649c08d8cea9a9b8ba88efb60fe0c6fe7915211928121d17")


@pinned_versions
def test_verify_campaign_certificates_are_pinned():
    # the default `supportsize verify` campaign: the verify ratios at size
    # 100, about 700 instances
    certs = certification_campaign(
        seed=0, decoupling=100, charpoly_cases=200, moment=100, degree2=100,
        conditional=100, regression=100,
    )
    assert hashlib.sha256(repr(certs).encode()).hexdigest() == (
        "0498b4253dba42472ba593948247cfb5bd34f7bee2a50e5f7cbf318f012386f5")


@pytest.mark.parametrize("size", [10, 100])
def test_every_certificate_replays_from_its_case(size):
    # the verify ratios at seed 0; size 100 is the default `supportsize
    # verify` campaign. A certificate's case rebuilds its instance or law
    # and calls the check of its name again.
    certs = certification_campaign(
        seed=0, decoupling=size, charpoly_cases=2 * size, moment=size,
        degree2=size, conditional=size, regression=size,
    )
    for c in certs:
        assert c.case.check == c.name
        assert repr(oracle.run_case(c.case)) == repr(c)


def test_campaign_rejects_negative_counts():
    with pytest.raises(ValueError):
        certification_campaign(moment=-1)


def test_campaign_calls_each_public_check_once_per_case(monkeypatch):
    # every certificate comes from the public check of its name, so a
    # tracer that wraps the public checks sees every call
    calls = {}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kwargs)
        return wrapper

    for name, fn in vars(oracle).copy().items():
        if name.startswith("check_") and fn.__module__ == oracle.__name__:
            monkeypatch.setattr(oracle, name, counted(name, fn))
    certs = certification_campaign(
        seed=3, decoupling=2, charpoly_cases=3, moment=4, degree2=5,
        conditional=6, regression=7,
    )
    assert calls == {
        "check_decoupling_lower": 2,
        "check_decoupling_upper_concave": 2,
        "check_domination_upper": 2,
        "check_charpoly_integral": 3,
        "check_inverse_falling_moments": 3,
        "check_moment_bound": 4,
        "check_degree2_second_moment": 5,
        "check_conditional_moment": 6,
        "check_negative_regression": 7,
        "check_cauchy_schwarz": 4 * len(FAMILIES),
    }
    assert len(certs) == sum(calls.values())


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


def test_campaign_builds_each_instance_and_law_once(monkeypatch):
    # the benchmark's oracle.build_instance and oracle.charpoly spans count
    # these calls: one per instance case and one per charpoly case
    calls = {"build_instance": 0, "charpoly": 0}
    for name in calls:
        def counted(*args, name=name, fn=getattr(oracle, name)):
            calls[name] += 1
            return fn(*args)
        monkeypatch.setattr(oracle, name, counted)
    certification_campaign(
        seed=0, decoupling=10, charpoly_cases=20, moment=10, degree2=10,
        conditional=10, regression=10,
    )
    assert calls == {"build_instance": 70, "charpoly": 20}


def assert_law(values, law):
    """Chi-square test of the observed values against law {value: prob}."""
    counts = collections.Counter(values)
    assert set(counts) <= set(law), set(counts) - set(law)
    observed = [counts[v] for v in law]
    expected = [len(values) * p for p in law.values()]
    assert stats.chisquare(observed, expected).pvalue > 1e-3, (observed, expected)


def uniform_law(values):
    return {v: 1 / len(values) for v in values}


def test_campaign_draws_the_documented_laws(monkeypatch):
    # each check records its arguments instead of checking, an instance is
    # its tuple of means and a charpoly law its support lists
    cases = 10_000
    seen = collections.defaultdict(list)

    def recorder(name):
        def check(*args, **kwargs):
            seen[name].append(args + tuple(kwargs.values()))
            return oracle.Certificate(name=name, status="skipped")
        return check

    for name, fn in vars(oracle).copy().items():
        if name.startswith("check_") and fn.__module__ == oracle.__name__:
            monkeypatch.setattr(oracle, name, recorder(name[len("check_"):]))
    monkeypatch.setattr(oracle, "build_instance", tuple)
    monkeypatch.setattr(oracle, "charpoly", lambda supports: supports)
    certification_campaign(
        seed=20261020, decoupling=cases, charpoly_cases=cases, moment=cases,
        degree2=cases, conditional=cases, regression=cases,
    )
    assert all(len(seen[name]) == cases for name in (
        "decoupling_lower", "decoupling_upper_concave", "domination_upper",
        "charpoly_integral", "inverse_falling_moments", "moment_bound",
        "degree2_second_moment", "conditional_moment", "negative_regression"))

    # means: m ~ U{1, 2, 3} (degree 2 raises m = 1 to 2), each ~ U(0.2, high)
    for name, high in (("decoupling_lower", 3.0),
                       ("decoupling_upper_concave", 1.0),
                       ("domination_upper", 1.0), ("moment_bound", 3.0),
                       ("degree2_second_moment", 3.0),
                       ("conditional_moment", 3.0),
                       ("negative_regression", 3.0)):
        means = [args[0] for args in seen[name]]
        m_law = ({2: 2 / 3, 3: 1 / 3} if name == "degree2_second_moment"
                 else uniform_law([1, 2, 3]))
        assert_law([len(mu) for mu in means], m_law)
        pooled = np.concatenate(means)
        assert pooled.min() >= 0.2 and pooled.max() < high
        assert stats.kstest(pooled, stats.uniform(0.2, high - 0.2).cdf).pvalue > 1e-3

    lower = seen["decoupling_lower"]
    assert_law([poly.degree for _, poly, _, _ in lower], uniform_law([1, 2, 3]))
    assert_law([i for _, poly, _, _ in lower for idx in poly.coeffs for i in idx],
               uniform_law(range(4)))
    assert stats.kstest([c for _, poly, _, _ in lower
                         for c in poly.coeffs.values()], "uniform").pvalue > 1e-3
    assert_law([f for *_, f in lower], uniform_law([f_inv, f_exp_neg, f_inv_sq]))
    betas = [b for _, _, lin, _ in lower for b in lin.coeffs]
    assert len(betas) == 5 * cases
    assert_law([b == 0.0 for b in betas], {True: 0.4, False: 0.6})

    upper = seen["decoupling_upper_concave"]
    assert {(poly.degree, f) for _, poly, _, f in upper} == {(1, f_neg_identity)}
    assert {lin.coeffs[0] for _, _, lin, _ in upper} == {1.0}
    betas = [lin.coeffs[1] for _, _, lin, _ in upper]
    assert min(betas) >= 0.0 and max(betas) < 0.3
    assert stats.kstest(betas, stats.uniform(0.0, 0.3).cdf).pvalue > 1e-3

    dominated = seen["domination_upper"]
    assert {(poly.degree, lin.coeffs) for _, poly, lin, _, _ in dominated} == {
        (1, (1.0,))}
    assert_law([f for *_, f, _ in dominated],
               uniform_law([f_inv, f_inv_sq, f_inv_falling2]))

    supports = [args[0] for args in seen["charpoly_integral"]]
    assert [args[0] for args in seen["inverse_falling_moments"]] == supports
    assert {args[1] for args in seen["inverse_falling_moments"]} == {3}
    assert_law([len(sup) for sup in supports], uniform_law(range(1, 6)))
    assert_law([len(var) for sup in supports for var in sup],
               uniform_law(range(1, 5)))
    for sup in supports:
        for var in sup:
            assert all(0.0 <= v < 1.0 and 0.0 <= w <= 1.0 for v, w in var)
            assert abs(math.fsum(w for _, w in var) - 1.0) <= 1e-12
    us = [args[1] for args in seen["charpoly_integral"]]
    assert min(us) >= 0.05 and max(us) < 1.0

    for name, j_values in (("moment_bound", range(4)),
                           ("conditional_moment", (0, 1, 3))):
        assert_law([j for _, j, _ in seen[name]], uniform_law(j_values))
        assert_law([h for _, _, h in seen[name]], uniform_law(range(1, 5)))

    degree2 = seen["degree2_second_moment"]
    assert {(poly.degree, k) for _, poly, k, _ in degree2} == {(2, 4)}
    assert_law([L for *_, L in degree2], uniform_law([1, 2, 3]))
    for top in (1, 2, 3):
        assert_law([i for _, poly, _, L in degree2 if L == top
                    for idx in poly.coeffs for i in idx],
                   uniform_law(range(top + 1)))

    regression = seen["negative_regression"]
    assert_law([(i, j) for _, i, j, _ in regression],
               uniform_law([(i, j) for i in range(4) for j in range(4) if i != j]))
    shapes = collections.Counter(shape for *_, shape in regression)
    assert len(shapes) == 3
    assert_law([id(shape) for *_, shape in regression],
               uniform_law([id(shape) for shape in shapes]))
