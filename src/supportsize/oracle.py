"""Exhaustive exact-expectation engine for certifying prevalence inequalities.

For a tiny alphabet (at most 4 symbols) with Poisson multiplicity means
lambda_x, each symbol falls into one of the classes {0, 1, 2, 3, 4, >= 5} of
its count, and every vector of classes is enumerated together with its
product probability. The prevalences phi_0..phi_4 are functions of the
classes, so expectations over this law are exact; each check carries only a
rounding slack, and an inequality is reported falsified only when it fails
by more than that.

The checks instantiate the decoupling bounds for polynomial-times-rational
prevalence functionals, the characteristic-polynomial integral inequality,
the prevalence moment recursion, and the negative-regression property.
Values that must lie in [0, 1] go through bounds.check_unit_interval.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy.special import pdtrc, stirling2

from .bounds import CONDITIONAL_FACTOR_BASE, check_unit_interval, sigma_of
from .distributions import FAMILIES, DiscreteDistribution, make_distribution
from .poisson_model import expected_prevalence, poisson_pmf

MAX_SYMBOLS = 4
#: Largest prevalence index an instance answers: each symbol's count is kept
#: only up to MAX_PREVALENCE + 1, which stands for that many or more.
MAX_PREVALENCE = 4


# ---------------------------------------------------------------------------
# Functionals
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolyFunctional:
    """Homogeneous degree-d polynomial in the prevalences.

    coeffs maps an index tuple (i_1, ..., i_d) to its coefficient; the value
    of the functional is sum over tuples of coeff * phi_{i_1} * ... * phi_{i_d}.
    """

    degree: int
    coeffs: dict[tuple[int, ...], float]

    def __post_init__(self):
        if self.degree < 1:
            raise ValueError("degree must be >= 1")
        for idx in self.coeffs:
            if len(idx) != self.degree or any(i < 0 for i in idx):
                raise ValueError(f"bad index tuple {idx} for degree {self.degree}")

    def max_index(self) -> int:
        return max((max(idx) for idx in self.coeffs), default=0)


@dataclass(frozen=True)
class LinearFunctional:
    """sum_i beta_i phi_i with beta_i in [0, 1]."""

    coeffs: tuple[float, ...]

    def __post_init__(self):
        check_unit_interval(self.coeffs)


def phi_squared(i: int) -> PolyFunctional:
    return PolyFunctional(degree=2, coeffs={(i, i): 1.0})


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleInstance:
    """Exact joint law of the capped counts min(N_x, MAX_PREVALENCE + 1) of a
    small alphabet, and so of its prevalences phi_0..phi_{MAX_PREVALENCE}."""

    means: tuple[float, ...]
    counts: np.ndarray  # cells x m capped counts; the top class is "or more"
    probs: np.ndarray  # cells, products of the per-symbol class masses
    tail_mass: float  # mass left out of the law: always 0.0
    phi_table: np.ndarray = field(repr=False)  # cells x phi_0..phi_{MAX_PREVALENCE}

    @property
    def num_symbols(self) -> int:
        return len(self.means)

    def prevalences(self, i: int) -> np.ndarray:
        """phi_i evaluated on every cell."""
        if i < 0:
            raise ValueError(f"prevalence index must be >= 0, got {i}")
        if i > MAX_PREVALENCE:
            raise ValueError(f"prevalence index {i} is above {MAX_PREVALENCE}, "
                             "the largest the class law answers")
        return self.phi_table[:, i].astype(float)

    def linear_values(self, lin: LinearFunctional) -> np.ndarray:
        top = len(lin.coeffs) - 1
        if top > MAX_PREVALENCE:
            raise ValueError(f"linear functional reaches prevalence index {top}, "
                             f"above {MAX_PREVALENCE}, the largest the class "
                             "law answers")
        return self.phi_table[:, :top + 1] @ np.asarray(lin.coeffs, dtype=float)

    def poly_values(self, poly: PolyFunctional) -> np.ndarray:
        out = np.zeros(len(self.probs))
        for idx, coeff in poly.coeffs.items():
            term = np.full(len(self.probs), coeff)
            for i in idx:
                term *= self.prevalences(i)
            out += term
        return out


@lru_cache(maxsize=MAX_SYMBOLS)
def _class_grid(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only capped counts and prevalence table of the m-symbol class box."""
    width = MAX_PREVALENCE + 2
    cells = width**m
    counts = np.indices((width,) * m).reshape(m, cells).T
    entries = np.arange(0, cells * width, width)[:, None] + counts
    phi_table = np.bincount(entries.ravel(), minlength=cells * width)
    phi_table = phi_table.reshape(cells, width)[:, :-1]
    counts.flags.writeable = False
    phi_table.flags.writeable = False
    return counts, phi_table


def build_instance(means) -> OracleInstance:
    """The exact law of the capped counts for the given Poisson means.

    Symbol x falls in class min(N_x, MAX_PREVALENCE + 1) with mass
    poisson_pmf(c, lambda_x) for c = 0..MAX_PREVALENCE and pdtrc(MAX_PREVALENCE,
    lambda_x) = P(N_x > MAX_PREVALENCE) for the top class. Prevalences up to
    MAX_PREVALENCE depend on the counts only through these classes, so every
    expectation of them is exact and nothing is left out: tail_mass is 0.0.

    Cells: every vector of classes in the box {0..MAX_PREVALENCE + 1}^m, in
    row-major order (the last symbol varies fastest). A cell's probability is
    the product of its per-symbol class masses, multiplied in symbol order,
    and row c of phi_table holds the prevalences phi_0..phi_{MAX_PREVALENCE}
    of cell c. The counts and phi_table depend only on m and are shared
    between instances, read-only.
    """
    means = tuple(float(x) for x in means)
    m = len(means)
    if not 1 <= m <= MAX_SYMBOLS:
        raise ValueError(f"alphabet size must be 1..{MAX_SYMBOLS}, got {m}")
    if not all(0 < lam < math.inf for lam in means):
        raise ValueError("all means must be positive and finite")

    lam = np.array(means)
    masses = np.empty((m, MAX_PREVALENCE + 2))
    masses[:, :-1] = poisson_pmf(np.arange(MAX_PREVALENCE + 1), lam[:, None])
    masses[:, -1] = pdtrc(MAX_PREVALENCE, lam)
    probs = reduce(np.multiply.outer, masses).ravel()
    probs.flags.writeable = False
    counts, phi_table = _class_grid(m)
    return OracleInstance(
        means=means, counts=counts, probs=probs, tail_mass=0.0, phi_table=phi_table,
    )


# ---------------------------------------------------------------------------
# Certificates
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Certificate:
    """Outcome of one inequality check.

    margin is the signed slack-free gap in the direction that should be
    non-negative; status is "falsified" when margin < -slack.
    """

    name: str
    status: str  # passed | falsified | skipped
    lhs: float = math.nan
    rhs: float = math.nan
    margin: float = math.nan
    slack: float = 0.0
    detail: str = ""

    @property
    def passed(self) -> bool:
        return self.status == "passed"

    @property
    def falsified(self) -> bool:
        return self.status == "falsified"


def _certify(name: str, margin: float, slack: float, lhs: float, rhs: float,
             detail: str = "") -> Certificate:
    if math.isnan(margin) or math.isnan(slack):
        raise ValueError(f"{name} check gave margin={margin}, slack={slack}: "
                         "a NaN neither passes nor fails")
    status = "passed" if margin >= -slack else "falsified"
    return Certificate(
        name=name, status=status, lhs=lhs, rhs=rhs, margin=margin,
        slack=slack, detail=detail,
    )


def _skip(name: str, detail: str) -> Certificate:
    return Certificate(name=name, status="skipped", detail=detail)


def _check_exponent(name: str, value) -> int:
    """value as an int; ValueError unless it is a whole number >= 1."""
    if not (float(value).is_integer() and value >= 1):
        raise ValueError(f"{name} must be a whole number >= 1, got {value}")
    return int(value)


def _rounding_slack(*value_arrays) -> float:
    """Rounding error bar scaled by the sups of the integrands."""
    return 1e-12 * (1.0 + sum(float(np.max(np.abs(v), initial=0.0))
                              for v in value_arrays))


# ---------------------------------------------------------------------------
# Decoupling checks
# ---------------------------------------------------------------------------


def check_decoupling_lower(
    inst: OracleInstance, poly: PolyFunctional, lin: LinearFunctional, f
) -> Certificate:
    """E[poly * f(linear)] >= E[poly] * E[f(linear + d)] for non-increasing f."""
    pv = inst.poly_values(poly)
    lv = inst.linear_values(lin)
    _assert_non_increasing(f, np.unique(lv))
    p = inst.probs
    pf, shifted = pv * f(lv), f(lv + poly.degree)
    lhs = float(pf @ p)
    rhs = float(pv @ p) * float(shifted @ p)
    slack = _rounding_slack(pf, pv, shifted)
    return _certify("decoupling_lower", lhs - rhs, slack, lhs, rhs)


def check_decoupling_upper_concave(
    inst: OracleInstance, poly: PolyFunctional, lin: LinearFunctional, f
) -> Certificate:
    """E[poly * f(linear)] <= E[poly] * f(E[linear] - d sigma) for concave
    non-increasing f, provided E[linear] >= d sigma."""
    pv = inst.poly_values(poly)
    lv = inst.linear_values(lin)
    support = np.unique(lv)
    _assert_non_increasing(f, support)
    _assert_concave(f, support)
    p = inst.probs
    d_sigma = poly.degree * sigma_of(lin.coeffs)
    e_lin = float(lv @ p)
    if e_lin < d_sigma:
        return _skip(
            "decoupling_upper_concave",
            f"E[linear]={e_lin:.4f} < d*sigma={d_sigma:.4f}",
        )
    pf = pv * f(lv)
    lhs = float(pf @ p)
    rhs = float(pv @ p) * float(f(np.array(e_lin - d_sigma)))
    slack = _rounding_slack(pf, pv, lv)
    return _certify("decoupling_upper_concave", rhs - lhs, slack, lhs, rhs)


def _inverse_rising(x, terms: int) -> np.ndarray:
    """prod_{j=1..t} (x + j)^{-1} for t = 0..terms-1 along a new last axis."""
    factors = np.ones(np.shape(x) + (terms,))
    factors[..., 1:] = 1.0 / (np.asarray(x, float)[..., None] + np.arange(1, terms))
    return np.cumprod(factors, axis=-1)


def dominator_value(fprime, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_t f'_t prod_{j=1..t} (x + j)^{-1} pointwise."""
    return _inverse_rising(x, len(fprime)) @ np.asarray(fprime, dtype=float)


def check_domination_upper(
    inst: OracleInstance, poly: PolyFunctional, lin: LinearFunctional, f, fprime
) -> Certificate:
    """E[poly * f(linear)] <= E[poly] * sum_t f'_t (E[linear] - d sigma)^{-t},
    where the falling-factorial series fprime dominates f pointwise on the
    enumerated support (verified, not assumed)."""
    pv = inst.poly_values(poly)
    lv = inst.linear_values(lin)
    support = np.unique(lv)
    if np.any(f(support) > dominator_value(fprime, support) + 1e-12):
        raise ValueError("fprime does not dominate f on the enumerated support")
    p = inst.probs
    d_sigma = poly.degree * sigma_of(lin.coeffs)
    e_lin = float(lv @ p)
    if e_lin <= d_sigma:
        return _skip(
            "domination_upper",
            f"E[linear]={e_lin:.4f} <= d*sigma={d_sigma:.4f}",
        )
    pf = pv * f(lv)
    lhs = float(pf @ p)
    rhs = float(pv @ p) * math.fsum(
        coeff * (e_lin - d_sigma) ** -t for t, coeff in enumerate(fprime)
    )
    slack = _rounding_slack(pf, pv, lv)
    return _certify("domination_upper", rhs - lhs, slack, lhs, rhs)


# ---------------------------------------------------------------------------
# Characteristic polynomial checks
# ---------------------------------------------------------------------------


def charpoly(supports) -> tuple[np.ndarray, np.ndarray]:
    """Law of X = sum of independent variables with the given (value, mass)
    support lists; values and masses must lie in [0, 1].

    Returns aligned arrays (values, masses) with one entry per choice of a
    support point for each variable, in row-major order (the last variable
    varies fastest); equal sums are not merged. Read as the sparse
    generalized polynomial sum masses * z^values, it is exactly E[z^X].
    """
    for sup in supports:
        check_unit_interval(x for point in sup for x in point)
        if not abs(math.fsum(mass for _, mass in sup) - 1.0) <= 1e-12:
            raise ValueError("masses of each variable must sum to 1")
    values = reduce(np.add.outer, [[v for v, _ in sup] for sup in supports], 0.0)
    masses = reduce(np.multiply.outer, [[m for _, m in sup] for sup in supports], 1.0)
    return np.ravel(values), np.ravel(masses)


def check_charpoly_integral(law, u: float) -> Certificate:
    """integral_0^u E[z^X] dz <= E[X]^{-1} E[u^X] for u in (0, 1], where law
    is the (values, masses) pair that charpoly returns.

    The integral is exact: each z^s term integrates to u^{s+1}/(s+1).
    """
    if not 0.0 < u <= 1.0:
        raise ValueError("u must lie in (0, 1]")
    values, masses = law
    ex = math.fsum(values * masses)
    if ex <= 0:
        return _skip("charpoly_integral", "E[X] = 0")
    # the powers come from Python's pow (libm), one per entry: numpy's
    # vectorised power rounds differently, depending on the CPU's SIMD level
    s1 = values + 1.0
    lhs = math.fsum(masses * [u**s for s in s1.tolist()] / s1)
    rhs = math.fsum(masses * [u**s for s in values.tolist()]) / ex
    slack = 1e-12 * (1.0 + abs(rhs))
    return _certify("charpoly_integral", rhs - lhs, slack, lhs, rhs)


def check_inverse_falling_moments(law, max_r: int = 3) -> Certificate:
    """E[prod_{j=1..r} (X + j)^{-1}] <= E[X]^{-r} for r = 1..max_r, where law
    is the (values, masses) pair that charpoly returns."""
    max_r = _check_exponent("max_r", max_r)
    values, masses = law
    ex = math.fsum(values * masses)
    if ex <= 0:
        return _skip("inverse_falling_moments", "E[X] = 0")
    try:
        top = ex ** -max_r
    except OverflowError:
        return _skip("inverse_falling_moments", f"E[X]^-{max_r} overflows")
    inv = _inverse_rising(values, max_r + 1)
    worst = min(
        ex**-r - math.fsum(masses * inv[:, r]) for r in range(1, max_r + 1)
    )
    slack = 1e-12 * max(1.0, top)
    return _certify("inverse_falling_moments", worst, slack, math.nan, math.nan,
                    detail=f"r up to {max_r}")


# ---------------------------------------------------------------------------
# Moment checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def moment_coefficients(h: int) -> tuple[int, ...]:
    """Integer coefficients (c_{h,1}, ..., c_{h,h}) of the Poisson moment
    bound: the Stirling numbers of the second kind S(h, 1..h), the same
    numbers as the recursion c_{h,1} = 1,
    c_{h,k} = sum_{l=k-1}^{h-1} C(h-1, l) c_{l,k-1}."""
    h = _check_exponent("h", h)
    return tuple(map(int, stirling2(h, np.arange(1, h + 1), exact=True)))


def check_moment_bound(inst: OracleInstance, j: int, h: int) -> Certificate:
    """E[phi_j^h] <= sum_k c_{h,k} E[phi_j]^k by exact enumeration."""
    h = _check_exponent("h", h)
    if h > 6:
        raise ValueError("h > 6 is not supported (enumeration cost)")
    pj = inst.prevalences(j)
    p = inst.probs
    lhs = float((pj**h) @ p)
    mu = float(pj @ p)
    rhs = math.fsum(c * mu**k for k, c in enumerate(moment_coefficients(h), 1))
    slack = _rounding_slack(pj**h, pj)
    return _certify("moment_bound", rhs - lhs, slack, lhs, rhs,
                    detail=f"j={j} h={h}")


def check_degree2_second_moment(
    inst: OracleInstance, poly: PolyFunctional, k: int, L: int
) -> Certificate:
    """E[poly^2] <= E[poly]^2 + 6 k L E[poly] for degree-2 poly with indices
    <= L and coefficients in [0, 1]."""
    if poly.degree != 2:
        raise ValueError("poly must have degree 2")
    check_unit_interval(poly.coeffs.values())
    if poly.max_index() > L or L < 1:
        raise ValueError("poly indices must be <= L with L >= 1")
    if not 1 < inst.num_symbols <= k:
        raise ValueError("needs 1 < alphabet size <= k")
    pv = inst.poly_values(poly)
    p = inst.probs
    lhs = float((pv * pv) @ p)
    mean = float(pv @ p)
    rhs = mean * mean + 6.0 * k * L * mean
    slack = _rounding_slack(pv * pv, pv)
    return _certify("degree2_second_moment", rhs - lhs, slack, lhs, rhs)


def check_conditional_moment(inst: OracleInstance, j: int, h: int) -> Certificate:
    """E[phi_j^h | phi_2 = 0] <= E[phi_j^h] / (1 - 2 e^{-2})^{min(m, h)}."""
    h = _check_exponent("h", h)
    if j == 2:
        raise ValueError("j must differ from the conditioning index 2")
    mask = inst.prevalences(2) == 0
    pz = float(inst.probs[mask].sum())
    if pz <= 0:
        raise ValueError("conditioning event phi_2 = 0 has zero mass")
    pj = inst.prevalences(j)
    lhs = float((pj[mask] ** h) @ inst.probs[mask]) / pz
    factor = CONDITIONAL_FACTOR_BASE ** -min(inst.num_symbols, h)
    rhs = factor * float((pj**h) @ inst.probs)
    slack = 1e-12 * (1.0 + rhs)
    return _certify("conditional_moment", rhs - lhs, slack, lhs, rhs,
                    detail=f"j={j} h={h}")


def check_negative_regression(inst: OracleInstance, i: int, j: int, shape) -> Certificate:
    """E[shape(phi_i) | phi_j = t] is non-increasing over feasible t, for a
    non-decreasing shape function."""
    if i == j:
        raise ValueError("i and j must differ")
    pj = inst.prevalences(j)
    si = shape(inst.prevalences(i))
    prev = None
    worst = math.inf
    for t in range(inst.num_symbols + 1):
        mask = pj == t
        pt = float(inst.probs[mask].sum())
        if pt <= 0:
            continue
        cond = float(si[mask] @ inst.probs[mask]) / pt
        if prev is not None:
            worst = min(worst, prev - cond)
        prev = cond
    if worst is math.inf:
        return _skip("negative_regression", "fewer than two feasible values")
    return _certify("negative_regression", worst, 1e-12,
                    math.nan, math.nan, detail=f"i={i} j={j}")


def check_cauchy_schwarz(P: DiscreteDistribution, n: float) -> Certificate:
    """(E[phi_1])^2 <= 2 E[phi_0] E[phi_2], via exact moments."""
    e0 = expected_prevalence(P, n, 0)
    e1 = expected_prevalence(P, n, 1)
    e2 = expected_prevalence(P, n, 2)
    lhs = e1 * e1
    rhs = 2.0 * e0 * e2
    slack = 1e-12 * max(1.0, lhs, rhs)
    return _certify("cauchy_schwarz", rhs - lhs, slack, lhs, rhs)


# ---------------------------------------------------------------------------
# Functions f for the decoupling and domination checks
# ---------------------------------------------------------------------------


def f_inv(x):
    return 1.0 / (1.0 + np.asarray(x, dtype=float))


def f_inv_sq(x):
    return (1.0 + np.asarray(x, dtype=float)) ** -2.0


def f_inv_falling2(x):
    x = np.asarray(x, dtype=float)
    return 1.0 / ((1.0 + x) * (2.0 + x))


def f_exp_neg(x):
    return np.exp(-np.asarray(x, dtype=float))


def f_neg_identity(x):
    return -np.asarray(x, dtype=float)


def _assert_non_increasing(f, support: np.ndarray):
    """support: the sorted distinct values of the linear functional."""
    if np.any(np.diff(f(support)) > 1e-12):
        raise ValueError("f is not non-increasing on the enumerated support")


def _assert_concave(f, support: np.ndarray):
    """support: the sorted distinct values of the linear functional."""
    if len(support) < 3:
        return
    # second divided differences must be <= 0
    d1 = np.diff(f(support)) / np.diff(support)
    if np.any(np.diff(d1) > 1e-10):
        raise ValueError("f is not concave on the enumerated support")


# ---------------------------------------------------------------------------
# Randomized certification campaign
# ---------------------------------------------------------------------------


# Each _draw_* helper makes all of its generator calls when called and
# builds one case at a time as the campaign's loop takes it, so a loop holds
# its draws as arrays, not as objects.


def _draw_means(rng: np.random.Generator, cases: int, high: float = 3.0,
                fewest: int = 1) -> Iterator[list[float]]:
    """Poisson means of `cases` instances: m ~ U{1, 2, 3} symbols, raised to
    `fewest`, and the means ~ U(0.2, high)^m."""
    m = np.maximum(rng.integers(1, 4, size=cases), fewest)
    values = rng.uniform(0.2, high, size=(cases, 3))
    return (row[:k] for row, k in zip(values.tolist(), m.tolist()))


def _draw_polys(rng: np.random.Generator, degrees,
                top=3) -> Iterator[PolyFunctional]:
    """One two-term polynomial per entry of degrees. A term's index tuple is
    ~ U{0..top}^degree (top: a number, or one per case) and its coefficient
    ~ U(0, 1); a repeated tuple keeps the second coefficient."""
    cases = len(degrees)
    index = rng.integers(0, np.reshape(top, (-1, 1, 1)) + 1, size=(cases, 2, 3))
    coeffs = rng.uniform(0.0, 1.0, size=(cases, 2))
    return (PolyFunctional(d, {tuple(t[:d]): c for t, c in zip(terms, cs)})
            for d, terms, cs in zip(degrees, index.tolist(), coeffs.tolist()))


def _draw_linear(rng: np.random.Generator,
                 cases: int) -> Iterator[LinearFunctional]:
    """Five coefficients each, each ~ U(0, 1) kept with probability 0.6, else 0."""
    beta = rng.uniform(0.0, 1.0, size=(cases, 5))
    beta[rng.random((cases, 5)) >= 0.6] = 0.0
    return (LinearFunctional(tuple(row)) for row in beta.tolist())


def _draw_supports(rng: np.random.Generator, cases: int) -> Iterator[list]:
    """charpoly support lists: 1-5 variables of 1-4 points each, the values
    ~ U(0, 1) and the masses ~ Dirichlet(1, ..., 1), drawn as normalised
    Exp(1) weights."""
    nvars = rng.integers(1, 6, size=cases)
    npts = rng.integers(1, 5, size=(cases, 5))
    values = rng.uniform(0.0, 1.0, size=(cases, 5, 4))
    weights = rng.standard_exponential((cases, 5, 4))
    weights[np.arange(4) >= npts[..., None]] = 0.0
    masses = weights / weights.sum(axis=-1, keepdims=True)
    return ([list(zip(v[:k], w[:k]))
             for v, w, k in zip(vs[:n].tolist(), ws[:n].tolist(), ks)]
            for n, vs, ws, ks in zip(nvars.tolist(), values, masses,
                                     npts.tolist()))


def certification_campaign(
    seed: int = 0,
    decoupling: int = 100,
    charpoly_cases: int = 200,
    moment: int = 100,
    degree2: int = 100,
    conditional: int = 100,
    regression: int = 100,
) -> list[Certificate]:
    """Run every inequality check over randomized instances.

    Returns a flat list of certificates; a single falsification means one
    of the certified inequalities failed numerically beyond rounding slack.

    Each check loop draws all of its cases' parameters up front, a few
    generator calls per loop, then builds each instance and runs each check
    in turn. The laws of a case (U is uniform, m the alphabet size):

    - means: m ~ U{1, 2, 3} and the means ~ U(0.2, 3.0)^m, or U(0.2, 1.0)^m in
      the decoupling-upper and domination loops; the degree-2 loop raises
      m = 1 to 2, so there P(m = 2) = 2/3 and P(m = 3) = 1/3;
    - polynomials: two terms, each an index tuple ~ U{0..top}^degree with a
      coefficient ~ U(0, 1), where top is 3, or L in the degree-2 loop; the
      degree is U{1, 2, 3} in decoupling-lower, 1 in decoupling-upper and
      domination, and 2 in degree-2;
    - linear functionals: five coefficients, each U(0, 1) kept with
      probability 0.6, else 0 (decoupling-lower); (1, U(0, 0.3))
      (decoupling-upper); (1,) (domination);
    - f, (f, f') and shape uniform over their tuples; j ~ U{0..3} (moment)
      or U{0, 1, 3} (conditional), h ~ U{1..4}, L ~ U{1, 2, 3}, and (i, j)
      uniform over the 12 ordered pairs of distinct values in {0..3};
    - charpoly: 1-5 variables of 1-4 points, values ~ U(0, 1), masses ~
      Dirichlet(1, ..., 1), and u ~ U(0.05, 1).
    """
    if min(decoupling, charpoly_cases, moment, degree2, conditional, regression) < 0:
        raise ValueError("per-check counts must be >= 0")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    rng = np.random.default_rng(seed)
    certs: list[Certificate] = []

    monotone = (f_inv, f_exp_neg, f_inv_sq)
    means = _draw_means(rng, decoupling)
    polys = _draw_polys(rng, rng.integers(1, 4, size=decoupling).tolist())
    lins = _draw_linear(rng, decoupling)
    picks = rng.integers(len(monotone), size=decoupling).tolist()
    for mu, poly, lin, pick in zip(means, polys, lins, picks):
        inst = build_instance(mu)
        certs.append(check_decoupling_lower(inst, poly, lin, monotone[pick]))

    # small means and few coefficients keep E[linear] above d*sigma often
    means = _draw_means(rng, decoupling, high=1.0)
    polys = _draw_polys(rng, [1] * decoupling)
    betas = rng.uniform(0.0, 0.3, size=decoupling).tolist()
    for mu, poly, beta in zip(means, polys, betas):
        inst = build_instance(mu)
        lin = LinearFunctional(coeffs=(1.0, beta))
        certs.append(check_decoupling_upper_concave(inst, poly, lin, f_neg_identity))

    # non-increasing functions with a dominating falling-factorial series
    dominated = ((f_inv, (0.0, 1.0)), (f_inv_sq, (0.0, 0.0, 1.0, 3.0)),
                 (f_inv_falling2, (0.0, 0.0, 1.0)))
    lin = LinearFunctional(coeffs=(1.0,))
    means = _draw_means(rng, decoupling, high=1.0)
    polys = _draw_polys(rng, [1] * decoupling)
    picks = rng.integers(len(dominated), size=decoupling).tolist()
    for mu, poly, pick in zip(means, polys, picks):
        inst = build_instance(mu)
        f, fprime = dominated[pick]
        certs.append(check_domination_upper(inst, poly, lin, f, fprime))

    supports = _draw_supports(rng, charpoly_cases)
    us = rng.uniform(0.05, 1.0, size=charpoly_cases).tolist()
    for sup, u in zip(supports, us):
        law = charpoly(sup)  # shared by both checks
        certs.append(check_charpoly_integral(law, u))
        certs.append(check_inverse_falling_moments(law, max_r=3))

    means = _draw_means(rng, moment)
    js = rng.integers(0, 4, size=moment).tolist()
    hs = rng.integers(1, 5, size=moment).tolist()
    for mu, j, h in zip(means, js, hs):
        certs.append(check_moment_bound(build_instance(mu), j, h))

    means = _draw_means(rng, degree2, fewest=2)
    Ls = rng.integers(1, 4, size=degree2)
    polys = _draw_polys(rng, [2] * degree2, top=Ls)
    for mu, poly, L in zip(means, polys, Ls.tolist()):
        certs.append(check_degree2_second_moment(build_instance(mu), poly, k=4, L=L))

    means = _draw_means(rng, conditional)
    js = rng.choice([0, 1, 3], size=conditional).tolist()
    hs = rng.integers(1, 5, size=conditional).tolist()
    for mu, j, h in zip(means, js, hs):
        certs.append(check_conditional_moment(build_instance(mu), j, h))

    shapes = [lambda x: x, lambda x: x**2, lambda x: x**4]
    pairs = [(i, j) for i in range(4) for j in range(4) if i != j]
    means = _draw_means(rng, regression)
    picks = rng.integers(len(pairs), size=regression).tolist()
    shape_picks = rng.integers(len(shapes), size=regression).tolist()
    for mu, pick, shape_pick in zip(means, picks, shape_picks):
        i, j = pairs[pick]
        certs.append(check_negative_regression(build_instance(mu), i, j,
                                               shapes[shape_pick]))

    for family in FAMILIES:  # the zoo at k = 100, n/k in {1/2, 1, 2, 4}
        P = make_distribution(family, 100)
        for n in (50, 100, 200, 400):
            certs.append(check_cauchy_schwarz(P, n))

    return certs


def summarize_certificates(certs) -> dict[str, dict[str, int]]:
    """Per-check-name counts of passed / falsified / skipped."""
    summary: dict[str, dict[str, int]] = {}
    for c in certs:
        entry = summary.setdefault(
            c.name, {"passed": 0, "falsified": 0, "skipped": 0}
        )
        entry[c.status] += 1
    return summary
