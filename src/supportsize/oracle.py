"""Exhaustive exact-expectation engine for certifying prevalence inequalities.

For a tiny alphabet (at most 4 symbols) with Poisson multiplicity means
lambda_x, each symbol falls into one of the classes {0, 1, 2, 3, 4, >= 5} of
its count, and every vector of classes is enumerated together with its
product probability. The prevalences phi_0..phi_4 are functions of the
classes, so expectations over this law are exact; each check carries only a
rounding slack, and an inequality is reported falsified only when it fails
by more than that. The class box of each alphabet size, its prevalence table
and the float rows phi_0..phi_4 that the checks read are built once per
alphabet size and shared read-only by every instance of that size. The
certification campaign builds the instances of each check's cases in one
batch, with one pmf call and one tail call per alphabet size; each is bit
for bit the instance build_instance gives for its means.

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
from itertools import permutations, repeat

import numpy as np
from scipy.special import pdtrc, stirling2

from .bounds import CONDITIONAL_FACTOR_BASE, check_unit_interval, sigma_of
from .distributions import (FAMILIES, DiscreteDistribution, check_integer,
                            check_k, exact_sum, make_distribution)
from .poisson_model import check_n, poisson_pmf

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
        check_integer("degree", self.degree, 1)
        for idx in self.coeffs:
            if len(idx) != self.degree:
                raise ValueError(f"bad index tuple {idx} for degree {self.degree}")
            for i in idx:
                check_integer(f"index in {idx}", i, 0)

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
    phi_rows: tuple[np.ndarray, ...] = field(repr=False)  # phi_table's columns, float

    @property
    def num_symbols(self) -> int:
        return len(self.means)

    def prevalences(self, i: int) -> np.ndarray:
        """phi_i evaluated on every cell, as floats: column i of phi_table.

        The rows are built once per alphabet size and shared read-only by
        every instance of that size, so this returns the same C-contiguous
        array on each call; write to a copy.
        """
        check_integer("prevalence index", i, 0)
        if i > MAX_PREVALENCE:
            raise ValueError(f"prevalence index {i} is above {MAX_PREVALENCE}, "
                             "the largest the class law answers")
        return self.phi_rows[i]

    def linear_values(self, lin: LinearFunctional) -> np.ndarray:
        top = len(lin.coeffs) - 1
        if top > MAX_PREVALENCE:
            raise ValueError(f"linear functional reaches prevalence index {top}, "
                             f"above {MAX_PREVALENCE}, the largest the class "
                             "law answers")
        # the product stays on the int table: a product of the float rows
        # is a BLAS call of another shape, which can round differently and
        # would move every certificate of the campaigns
        return self.phi_table[:, :top + 1] @ np.asarray(lin.coeffs, dtype=float)

    def poly_values(self, poly: PolyFunctional) -> np.ndarray:
        # each term is coeff * phi_{i_1} * ... * phi_{i_d}, multiplied left to right
        terms = (math.prod(map(self.prevalences, idx), start=coeff)
                 for idx, coeff in poly.coeffs.items())
        return sum(terms, np.zeros(len(self.probs)))


#: the counts 0..MAX_PREVALENCE, at which build_instance (every class but the
#: top one) and check_cauchy_schwarz (the first three) take Poisson pmfs
_CLASSES = np.arange(MAX_PREVALENCE + 1)
_CLASSES.flags.writeable = False


@lru_cache(maxsize=MAX_SYMBOLS)
def _class_grid(m: int) -> tuple[np.ndarray, np.ndarray, tuple[np.ndarray, ...]]:
    """Read-only capped counts and prevalence table of the m-symbol class box,
    and the table's columns as C-contiguous float rows (one per prevalence)."""
    width = MAX_PREVALENCE + 2
    cells = width**m
    counts = np.indices((width,) * m).reshape(m, cells).T
    entries = np.arange(0, cells * width, width)[:, None] + counts
    phi_table = np.bincount(entries.ravel(), minlength=cells * width)
    phi_table = phi_table.reshape(cells, width)[:, :-1]
    rows = np.ascontiguousarray(phi_table.T, dtype=float)
    for table in (counts, phi_table, rows):
        table.flags.writeable = False
    return counts, phi_table, tuple(rows)


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
    of cell c. The counts, phi_table and its float rows phi_rows depend only
    on m and are shared between instances, read-only.

    means must be a 1-D sequence of 1..MAX_SYMBOLS real numbers, each
    positive and finite, as numpy reads it: an int or float array. Anything
    else (a scalar, a nested list, complex numbers, strings) is a ValueError.

    This is the one-case call of the builder; certification_campaign builds
    all the instances of a check's cases in one call of it, with the same
    float operations, so each instance is bit for bit this one.
    """
    return _build_instances([means])[0]


def _check_means(means) -> tuple[float, ...]:
    """means as a tuple of floats, refused unless it is a 1-D sequence of
    1..MAX_SYMBOLS real numbers, each positive and finite."""
    lam = np.asarray(means)
    if lam.ndim != 1 or lam.dtype.kind not in "iuf":
        raise ValueError("means must be a 1-D sequence of real numbers, got "
                         f"{means!r}")
    if not 1 <= len(lam) <= MAX_SYMBOLS:
        raise ValueError(f"alphabet size must be 1..{MAX_SYMBOLS}, got {len(lam)}")
    means = tuple(lam.astype(float).tolist())
    if not all(0 < x < math.inf for x in means):
        raise ValueError("all means must be positive and finite")
    return means


def _build_instances(means_list) -> list[OracleInstance]:
    """build_instance of each entry of means_list, in order, built together:
    one poisson_pmf call and one pdtrc call per alphabet size m.

    The cases of m symbols share one read-only (cases, 6^m) array of cell
    probabilities, one row per instance. Its products are taken symbol by
    symbol along a new last axis, the same products in the same order as
    reduce(np.multiply.outer, masses) of each case alone, and the pmf and the
    tail are elementwise, so every row is bitwise the one-case build.
    """
    means_list = [_check_means(means) for means in means_list]
    groups: dict[int, list[int]] = {}  # alphabet size -> positions of its cases
    for pos, means in enumerate(means_list):
        groups.setdefault(len(means), []).append(pos)
    insts = [None] * len(means_list)
    for m, positions in groups.items():
        lam = np.array([means_list[pos] for pos in positions])
        masses = np.empty(lam.shape + (MAX_PREVALENCE + 2,))
        masses[..., :-1] = poisson_pmf(_CLASSES, lam[..., None])
        masses[..., -1] = pdtrc(MAX_PREVALENCE, lam)
        probs = masses[:, 0]
        for j in range(1, m):
            probs = (probs[:, :, None] * masses[:, j, None, :]).reshape(len(positions), -1)
        probs.flags.writeable = False
        counts, phi_table, phi_rows = _class_grid(m)
        for pos, row in zip(positions, probs):
            insts[pos] = OracleInstance(
                means=means_list[pos], counts=counts, probs=row, tail_mass=0.0,
                phi_table=phi_table, phi_rows=phi_rows,
            )
    return insts


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
    case: Case | None = field(default=None, repr=False, compare=False)

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


def _rounding_slack(*value_arrays) -> float:
    """Rounding error bar scaled by the sups of the integrands."""
    return 1e-12 * (1.0 + sum(float(np.abs(v).max(initial=0.0))
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
    _assert_non_increasing(f(_distinct(lv)))
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
    support = _distinct(lv)
    values = f(support)
    _assert_non_increasing(values)
    _assert_concave(support, values)
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
    enumerated support (verified, not assumed). Every coefficient of
    fprime must be finite: a NaN would pass the domination test, and an
    infinite one would make the bound infinite."""
    if not all(map(math.isfinite, fprime)):
        raise ValueError(f"fprime coefficients must be finite, got {fprime!r}")
    pv = inst.poly_values(poly)
    lv = inst.linear_values(lin)
    support = _distinct(lv)
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
    ex = math.fsum((values * masses).tolist())
    if ex <= 0:
        return _skip("charpoly_integral", "E[X] = 0")
    # the powers come from Python's pow (libm), one per entry: numpy's
    # vectorised power rounds differently, depending on the CPU's SIMD level
    s1 = values + 1.0
    lhs = math.fsum((masses * [u**s for s in s1.tolist()] / s1).tolist())
    rhs = math.fsum((masses * [u**s for s in values.tolist()]).tolist()) / ex
    slack = 1e-12 * (1.0 + abs(rhs))
    return _certify("charpoly_integral", rhs - lhs, slack, lhs, rhs)


def check_inverse_falling_moments(law, max_r: int = 3) -> Certificate:
    """E[prod_{j=1..r} (X + j)^{-1}] <= E[X]^{-r} for r = 1..max_r, where law
    is the (values, masses) pair that charpoly returns."""
    check_integer("max_r", max_r, 1)
    values, masses = law
    ex = math.fsum((values * masses).tolist())
    if ex <= 0:
        return _skip("inverse_falling_moments", "E[X] = 0")
    try:
        top = ex ** -max_r
    except OverflowError:
        return _skip("inverse_falling_moments", f"E[X]^-{max_r} overflows")
    inv = _inverse_rising(values, max_r + 1)
    worst = min(
        ex**-r - math.fsum((masses * inv[:, r]).tolist())
        for r in range(1, max_r + 1)
    )
    slack = 1e-12 * max(1.0, top)
    return _certify("inverse_falling_moments", worst, slack, math.nan, math.nan,
                    detail=f"r up to {max_r}")


# ---------------------------------------------------------------------------
# Moment checks
# ---------------------------------------------------------------------------


# typed, so that h = 2.0 is checked, not answered from np.int64(2)'s entry
@lru_cache(maxsize=64, typed=True)
def moment_coefficients(h: int) -> tuple[int, ...]:
    """Integer coefficients (c_{h,1}, ..., c_{h,h}) of the Poisson moment
    bound: the Stirling numbers of the second kind S(h, 1..h), the same
    numbers as the recursion c_{h,1} = 1,
    c_{h,k} = sum_{l=k-1}^{h-1} C(h-1, l) c_{l,k-1}."""
    check_integer("h", h, 1)
    return tuple(map(int, stirling2(h, np.arange(1, h + 1), exact=True)))


def check_moment_bound(inst: OracleInstance, j: int, h: int) -> Certificate:
    """E[phi_j^h] <= sum_k c_{h,k} E[phi_j]^k by exact enumeration."""
    check_integer("h", h, 1)
    if h > 6:
        raise ValueError("h > 6 is not supported (enumeration cost)")
    pj = inst.prevalences(j)
    p = inst.probs
    power = pj**h
    lhs = float(power @ p)
    mu = float(pj @ p)
    rhs = math.fsum(c * mu**k for k, c in enumerate(moment_coefficients(h), 1))
    slack = _rounding_slack(power, pj)
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
    check_integer("L", L, 1)
    if poly.max_index() > L:
        raise ValueError(f"poly indices must be <= L = {L}")
    check_k(k)
    if not 1 < inst.num_symbols <= k:
        raise ValueError("needs 1 < alphabet size <= k")
    pv = inst.poly_values(poly)
    p = inst.probs
    square = pv * pv
    lhs = float(square @ p)
    mean = float(pv @ p)
    rhs = mean * mean + 6.0 * k * L * mean
    slack = _rounding_slack(square, pv)
    return _certify("degree2_second_moment", rhs - lhs, slack, lhs, rhs)


def check_conditional_moment(inst: OracleInstance, j: int, h: int) -> Certificate:
    """E[phi_j^h | phi_2 = 0] <= E[phi_j^h] / (1 - 2 e^{-2})^{min(m, h)}."""
    check_integer("h", h, 1)
    if j == 2:
        raise ValueError("j must differ from the conditioning index 2")
    mask = inst.prevalences(2) == 0
    pm = inst.probs[mask]
    pz = float(pm.sum())
    if pz <= 0:
        raise ValueError("conditioning event phi_2 = 0 has zero mass")
    pj = inst.prevalences(j)
    lhs = float((pj[mask] ** h) @ pm) / pz
    factor = CONDITIONAL_FACTOR_BASE ** -min(inst.num_symbols, h)
    rhs = factor * float((pj**h) @ inst.probs)
    slack = 1e-12 * (1.0 + rhs)
    return _certify("conditional_moment", rhs - lhs, slack, lhs, rhs,
                    detail=f"j={j} h={h}")


def check_negative_regression(inst: OracleInstance, i: int, j: int, shape) -> Certificate:
    """E[shape(phi_i) | phi_j = t] is non-increasing over feasible t, for a
    shape function non-decreasing on phi_i's values 0..m (verified, not
    assumed: any other shape is a ValueError, not a falsification)."""
    if i == j:
        raise ValueError("i and j must differ")
    pj = inst.prevalences(j)
    si = shape(inst.prevalences(i))
    steps = shape(np.arange(inst.num_symbols + 1.0))
    if (steps[1:] - steps[:-1] < -1e-12).any():
        raise ValueError("shape is not non-decreasing on the values 0..m of phi_i")
    conds = []  # E[shape(phi_i) | phi_j = t] over the t of positive mass
    for t in range(inst.num_symbols + 1):
        mask = pj == t
        pm = inst.probs[mask]
        pt = float(pm.sum())
        if pt > 0:
            conds.append(float(si[mask] @ pm) / pt)
    if len(conds) < 2:
        return _skip("negative_regression", "fewer than two feasible values")
    worst = min(a - b for a, b in zip(conds, conds[1:]))
    return _certify("negative_regression", worst, 1e-12,
                    math.nan, math.nan, detail=f"i={i} j={j}")


def check_cauchy_schwarz(P: DiscreteDistribution, n: float) -> Certificate:
    """(E[phi_1])^2 <= 2 E[phi_0] E[phi_2], via exact moments.

    The moments are poisson_model.expected_prevalence(P, n, i) for
    i = 0, 1, 2, bit for bit, from one elementwise pmf call over the three.
    """
    check_n(n)
    pmf = poisson_pmf(_CLASSES[:3, None], n * P.levels[0])
    e0, e1, e2 = (exact_sum(row, P.levels[1]) for row in pmf)
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


def _distinct(values: np.ndarray) -> np.ndarray:
    """The sorted distinct entries of a 1-D float array: np.unique(values),
    bit for bit, by the same sort and neighbour mask without its dispatch.

    Unlike np.unique, it keeps NaNs apart, one entry each. No NaN reaches
    it: its input is a linear functional's values, whose coefficients are
    checked to lie in [0, 1], on the finite counts of the class table.
    """
    ordered = np.sort(values)
    keep = np.empty(len(ordered), dtype=bool)
    keep[:1] = True
    keep[1:] = ordered[1:] != ordered[:-1]
    return ordered[keep]


def _assert_non_increasing(y: np.ndarray):
    """y: f on the sorted distinct values of the linear functional."""
    if (y[1:] - y[:-1] > 1e-12).any():
        raise ValueError("f is not non-increasing on the enumerated support")


def _assert_concave(support: np.ndarray, y: np.ndarray):
    """support: the sorted distinct values of the linear functional; y: f
    on them."""
    # second divided differences must be <= 0; fewer than 3 points have none
    d1 = (y[1:] - y[:-1]) / (support[1:] - support[:-1])
    if (d1[1:] - d1[:-1] > 1e-10).any():
        raise ValueError("f is not concave on the enumerated support")


# ---------------------------------------------------------------------------
# Randomized certification campaign
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    """The input of one check: run_case calls check_<check> with the
    instance of means, when they are set, followed by args."""

    check: str  # the name of the check and of its certificates
    args: tuple
    means: tuple[float, ...] | None = None


#: the checks a Case may name: this module's check_* functions, unprefixed
CHECKS = tuple(name[len("check_"):] for name, obj in globals().items()
               if name.startswith("check_")
               and getattr(obj, "__module__", None) == __name__)


def run_case(case: Case) -> Certificate:
    """The certificate of case, carrying case, so that it replays.

    The case's instance, if it has means, comes from build_instance. The
    campaign builds its instances in batches instead, bitwise the same, so
    a wrapper of build_instance sees the calls of run_case alone; a wrapper
    of a check sees every call, the campaign's too.
    """
    return _run(case, None if case.means is None else build_instance(case.means))


def _run(case: Case, inst: OracleInstance | None) -> Certificate:
    """The certificate of case on inst (None for a check of no instance),
    carrying case. The check is looked up through the module's globals at
    each call, so a wrapper of it sees every call."""
    if case.check not in CHECKS:
        raise ValueError(f"unknown oracle check {case.check!r}; choose from {CHECKS}")
    args = case.args if inst is None else (inst, *case.args)
    cert = globals()[f"check_{case.check}"](*args)
    # the check built cert for this call alone, so its case is set in place,
    # as a __post_init__ would, not by a copy through dataclasses.replace
    object.__setattr__(cert, "case", case)
    return cert


def _cases(check: str, means, *columns) -> Iterator[Case]:
    """One case per instance: its means and the matching entry of each
    column, in the order of the check's arguments."""
    return (Case(check, args, mu) for mu, args in zip(means, zip(*columns)))


# Each _draw_* function makes all of its generator calls when called and
# builds one case at a time as the campaign takes it. The campaign takes one
# check's cases at a time, so it holds at most one check's cases as objects.


def _pick(rng: np.random.Generator, options, cases: int) -> list:
    """`cases` entries of options, each ~ U(options)."""
    return [options[i] for i in rng.integers(len(options), size=cases).tolist()]


def _draw_means(rng: np.random.Generator, cases: int, high: float = 3.0,
                fewest: int = 1) -> Iterator[tuple[float, ...]]:
    """Poisson means of `cases` instances: m ~ U{1, 2, 3} symbols, raised to
    `fewest`, and the means ~ U(0.2, high)^m."""
    m = np.maximum(rng.integers(1, 4, size=cases), fewest)
    values = rng.uniform(0.2, high, size=(cases, 3))
    return (tuple(row[:k]) for row, k in zip(values.tolist(), m.tolist()))


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


def _draw_decoupling_lower(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 3.0)^m; a polynomial of degree ~ U{1, 2, 3} on indices
    up to 3; a linear functional of five coefficients, each ~ U(0, 1) kept
    with probability 0.6, else 0; f ~ U(f_inv, f_exp_neg, f_inv_sq)."""
    means = _draw_means(rng, cases)
    polys = _draw_polys(rng, rng.integers(1, 4, size=cases).tolist())
    beta = rng.uniform(0.0, 1.0, size=(cases, 5))
    beta[rng.random((cases, 5)) >= 0.6] = 0.0
    lins = (LinearFunctional(tuple(row)) for row in beta.tolist())
    fs = _pick(rng, (f_inv, f_exp_neg, f_inv_sq), cases)
    return _cases("decoupling_lower", means, polys, lins, fs)


def _draw_decoupling_upper(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 1.0)^m; a degree-1 polynomial on indices up to 3; the
    linear functional (1, U(0, 0.3)); f = f_neg_identity. Small means and
    few coefficients keep E[linear] above d*sigma often."""
    means = _draw_means(rng, cases, high=1.0)
    polys = _draw_polys(rng, [1] * cases)
    lins = (LinearFunctional((1.0, beta))
            for beta in rng.uniform(0.0, 0.3, size=cases).tolist())
    return _cases("decoupling_upper_concave", means, polys, lins,
                  repeat(f_neg_identity))


def _draw_domination(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 1.0)^m; a degree-1 polynomial on indices up to 3; the
    linear functional (1,); (f, f') uniform over three non-increasing
    functions, each with a dominating falling-factorial series."""
    means = _draw_means(rng, cases, high=1.0)
    polys = _draw_polys(rng, [1] * cases)
    pairs = _pick(rng, ((f_inv, (0.0, 1.0)), (f_inv_sq, (0.0, 0.0, 1.0, 3.0)),
                        (f_inv_falling2, (0.0, 0.0, 1.0))), cases)
    return _cases("domination_upper", means, polys,
                  repeat(LinearFunctional((1.0,))), *zip(*pairs))


def _draw_charpoly(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """Laws of sums of 1-5 variables of 1-4 points each, the values ~ U(0, 1)
    and the masses ~ Dirichlet(1, ..., 1), drawn as normalised Exp(1)
    weights, and u ~ U(0.05, 1). charpoly builds each law once, for two
    cases: the integral at u, and the inverse falling moments up to
    max_r = 3."""
    nvars = rng.integers(1, 6, size=cases)
    npts = rng.integers(1, 5, size=(cases, 5))
    values = rng.uniform(0.0, 1.0, size=(cases, 5, 4))
    weights = rng.standard_exponential((cases, 5, 4))
    weights[np.arange(4) >= npts[..., None]] = 0.0
    masses = weights / weights.sum(axis=-1, keepdims=True)
    us = rng.uniform(0.05, 1.0, size=cases).tolist()
    supports = ([list(zip(v[:k], w[:k])) for v, w, k in zip(vs, ws, ks[:n])]
                for n, vs, ws, ks in zip(nvars.tolist(), values.tolist(),
                                         masses.tolist(), npts.tolist()))
    return (Case(check, (law, arg)) for law, u in zip(map(charpoly, supports), us)
            for check, arg in (("charpoly_integral", u),
                               ("inverse_falling_moments", 3)))


def _draw_moment(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 3.0)^m; j ~ U{0..3}; h ~ U{1..4}."""
    means = _draw_means(rng, cases)
    js = rng.integers(0, 4, size=cases).tolist()
    hs = rng.integers(1, 5, size=cases).tolist()
    return _cases("moment_bound", means, js, hs)


def _draw_degree2(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 3.0)^m with m = 1 raised to 2, so P(m = 2) = 2/3 and
    P(m = 3) = 1/3; L ~ U{1, 2, 3}; a degree-2 polynomial on indices up to
    L; k = 4."""
    means = _draw_means(rng, cases, fewest=2)
    Ls = rng.integers(1, 4, size=cases)
    polys = _draw_polys(rng, [2] * cases, top=Ls)
    return _cases("degree2_second_moment", means, polys, repeat(4), Ls.tolist())


def _draw_conditional(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 3.0)^m; j ~ U{0, 1, 3}; h ~ U{1..4}."""
    means = _draw_means(rng, cases)
    js = _pick(rng, (0, 1, 3), cases)
    hs = rng.integers(1, 5, size=cases).tolist()
    return _cases("conditional_moment", means, js, hs)


def shape_identity(x):
    return x


def shape_square(x):
    return x**2


def shape_fourth_power(x):
    return x**4


#: the non-decreasing shapes of the negative-regression cases
REGRESSION_SHAPES = (shape_identity, shape_square, shape_fourth_power)


def _draw_regression(rng: np.random.Generator, cases: int) -> Iterator[Case]:
    """means ~ U(0.2, 3.0)^m; (i, j) uniform over the 12 ordered pairs of
    distinct values in {0..3}; shape ~ U(REGRESSION_SHAPES)."""
    means = _draw_means(rng, cases)
    pairs = _pick(rng, tuple(permutations(range(4), 2)), cases)
    shapes = _pick(rng, REGRESSION_SHAPES, cases)
    return _cases("negative_regression", means, *zip(*pairs), shapes)


def _draw_cauchy_schwarz(rng: np.random.Generator, cases: None) -> Iterator[Case]:
    """The zoo at k = 100 and n/k in {1/2, 1, 2, 4}: 16 fixed cases, which
    draw nothing; no count keyword sets their number."""
    zoo = [make_distribution(family, 100) for family in FAMILIES]
    return (Case("cauchy_schwarz", (P, n)) for P in zoo for n in (50, 100, 200, 400))


#: The campaign's checks in order: each check's draw and the count keyword
#: of certification_campaign that sets how many cases it draws.
_CAMPAIGN = (
    (_draw_decoupling_lower, "decoupling"),
    (_draw_decoupling_upper, "decoupling"),
    (_draw_domination, "decoupling"),
    (_draw_charpoly, "charpoly_cases"),
    (_draw_moment, "moment"),
    (_draw_degree2, "degree2"),
    (_draw_conditional, "conditional"),
    (_draw_regression, "regression"),
    (_draw_cauchy_schwarz, None),
)


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
    Each certificate carries its case, and run_case(cert.case) replays it.

    The campaign is one loop over _CAMPAIGN: for each check in turn, its
    draw makes its generator calls up front, a few array calls, the
    campaign builds the instances of all the drawn cases in one batch (one
    pmf call and one tail call per alphabet size) and runs the cases one by
    one. The three decoupling draws take `decoupling` cases each and the
    charpoly draw `charpoly_cases` laws, two cases each; the zoo's 16
    Cauchy-Schwarz cases come last. The law of each case parameter is in
    the docstring of its draw (U is uniform and m the alphabet size;
    _draw_means and _draw_polys give the laws of the means and of the
    polynomials). The seed and every count must be integers >= 0.
    """
    counts = dict(locals())  # the seed and the six counts, by keyword
    for name, value in counts.items():
        check_integer(name, value, 0)
    rng = np.random.default_rng(seed)
    certs = []
    for draw, count in _CAMPAIGN:
        cases = list(draw(rng, counts.get(count)))
        insts = iter(_build_instances([c.means for c in cases if c.means is not None]))
        certs += [_run(c, None if c.means is None else next(insts)) for c in cases]
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
