"""Exhaustive exact-expectation engine for certifying prevalence inequalities.

For a tiny alphabet (at most 4 symbols) with Poisson multiplicity means
lambda_x, every multiplicity vector up to a per-symbol truncation cutoff is
enumerated together with its product-Poisson probability. Expectations over
this truncated joint law are exact up to an explicit tail mass, which every
check carries as numerical slack: an inequality is only reported falsified
when it fails by more than the slack.

The checks instantiate the decoupling bounds for polynomial-times-rational
prevalence functionals, the characteristic-polynomial integral inequality,
the prevalence moment recursion, and the negative-regression property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce

import numpy as np
from scipy import stats

from .bounds import sigma_of
from .distributions import FAMILIES, DiscreteDistribution, make_distribution
from .poisson_model import expected_prevalence, prevalence_second_moment

MAX_SYMBOLS = 4
DEFAULT_TAIL_TOL = 1e-10
DEFAULT_CELL_CAP = 10**7

_CONDITIONAL_FACTOR_BASE = 1.0 - 2.0 * math.exp(-2.0)


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
        if any(b < 0 or b > 1 for b in self.coeffs):
            raise ValueError("coefficients must lie in [0, 1]")

    def sigma(self) -> float:
        return sigma_of(self.coeffs)


def phi_squared(i: int) -> PolyFunctional:
    return PolyFunctional(degree=2, coeffs={(i, i): 1.0})


# ---------------------------------------------------------------------------
# Instance
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OracleInstance:
    """Truncated joint law over multiplicity vectors of a small alphabet."""

    means: tuple[float, ...]
    max_counts: tuple[int, ...]
    counts: np.ndarray  # cells x m multiplicity vectors
    probs: np.ndarray  # cells, product-Poisson probabilities
    tail_mass: float
    phi_table: np.ndarray = field(repr=False)  # cells x (max count + 1)

    @property
    def num_symbols(self) -> int:
        return len(self.means)

    def prevalences(self, i: int) -> np.ndarray:
        """phi_i evaluated on every enumerated cell."""
        if i < self.phi_table.shape[1]:
            return self.phi_table[:, i].astype(float)
        return np.zeros(len(self.probs))

    def linear_values(self, lin: LinearFunctional) -> np.ndarray:
        beta = np.zeros(self.phi_table.shape[1])
        m = min(len(lin.coeffs), len(beta))
        beta[:m] = lin.coeffs[:m]
        return self.phi_table @ beta

    def poly_values(self, poly: PolyFunctional) -> np.ndarray:
        out = np.zeros(len(self.probs))
        for idx, coeff in poly.coeffs.items():
            term = np.full(len(self.probs), coeff)
            for i in idx:
                term *= self.prevalences(i)
            out += term
        return out


def build_instance(
    means,
    tail_tol: float = DEFAULT_TAIL_TOL,
    cell_cap: int = DEFAULT_CELL_CAP,
) -> OracleInstance:
    """Enumerate the truncated product-Poisson law for the given means.

    Cutoff rule: symbol x keeps the counts 0..M_x, where M_x is the smallest
    M whose Poisson upper tail P(N_x > M) is below tail_tol / m, so the
    un-enumerated mass is below tail_tol overall. One vectorised Poisson
    quantile gives a first guess that is stepped up where its tail is still
    too heavy.

    Grid: the cells are every multiplicity vector in the box
    prod_x {0..M_x}, in row-major order (the last symbol varies fastest).
    A cell's probability is the product of its per-symbol Poisson pmfs,
    multiplied in symbol order, and row c of phi_table holds the prevalences
    phi_0..phi_{max M} of cell c. The cell count is checked against cell_cap
    before any array is allocated.
    """
    means = tuple(float(x) for x in means)
    m = len(means)
    if not 1 <= m <= MAX_SYMBOLS:
        raise ValueError(f"alphabet size must be 1..{MAX_SYMBOLS}, got {m}")
    if not all(0 < lam < math.inf for lam in means):
        raise ValueError("all means must be positive and finite")

    lam = np.array(means)
    per_tol = tail_tol / m
    guess = stats.poisson.ppf(1.0 - per_tol, lam)
    if not np.all(np.isfinite(guess)):
        raise ValueError(f"tail_tol={tail_tol} gives no finite cutoff")
    cutoffs = guess.astype(np.int64)
    while np.any(heavy := stats.poisson.sf(cutoffs, lam) >= per_tol):
        cutoffs[heavy] += 1

    max_counts = tuple(cutoffs.tolist())
    shape = tuple(M + 1 for M in max_counts)
    cells = math.prod(shape)
    if cells > cell_cap:
        raise ValueError(f"enumeration of {cells} cells exceeds cap {cell_cap}")

    counts = np.indices(shape).reshape(m, cells).T
    width = max(shape)
    pmf = stats.poisson.pmf(np.arange(width), lam[:, None])
    per_symbol = [pmf[j, :M] for j, M in enumerate(shape)]
    probs = reduce(np.multiply.outer, per_symbol).ravel()
    tail_mass = 1.0 - math.fsum(probs)

    phi_table = np.zeros((cells, width), dtype=np.int64)
    rows = np.arange(cells)
    for j in range(m):
        phi_table[rows, counts[:, j]] += 1

    counts.flags.writeable = False
    probs.flags.writeable = False
    phi_table.flags.writeable = False
    return OracleInstance(
        means=means,
        max_counts=max_counts,
        counts=counts,
        probs=probs,
        tail_mass=tail_mass,
        phi_table=phi_table,
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
    status = "passed" if margin >= -slack else "falsified"
    return Certificate(
        name=name, status=status, lhs=lhs, rhs=rhs, margin=margin,
        slack=slack, detail=detail,
    )


def _skip(name: str, detail: str) -> Certificate:
    return Certificate(name=name, status="skipped", detail=detail)


def _tail_slack(inst: OracleInstance, *value_arrays) -> float:
    """Tail-mass error bar combining sups of the enumerated integrands."""
    sups = [float(np.max(np.abs(v), initial=0.0)) for v in value_arrays]
    return sum(inst.tail_mass * sup for sup in sups) + 1e-12 * (1.0 + sum(sups))


# ---------------------------------------------------------------------------
# Decoupling checks
# ---------------------------------------------------------------------------


def check_decoupling_lower(
    inst: OracleInstance, poly: PolyFunctional, lin: LinearFunctional, f
) -> Certificate:
    """E[poly * f(linear)] >= E[poly] * E[f(linear + d)] for non-increasing f."""
    pv = inst.poly_values(poly)
    lv = inst.linear_values(lin)
    _assert_non_increasing(f, lv)
    p = inst.probs
    lhs = float((pv * f(lv)) @ p)
    rhs = float(pv @ p) * float(f(lv + poly.degree) @ p)
    slack = _tail_slack(inst, pv * f(lv), pv, f(lv + poly.degree))
    return _certify("decoupling_lower", lhs - rhs, slack, lhs, rhs)


def check_decoupling_upper_concave(
    inst: OracleInstance, poly: PolyFunctional, lin: LinearFunctional, f
) -> Certificate:
    """E[poly * f(linear)] <= E[poly] * f(E[linear] - d sigma) for concave
    non-increasing f, provided E[linear] >= d sigma."""
    pv = inst.poly_values(poly)
    lv = inst.linear_values(lin)
    _assert_non_increasing(f, lv)
    _assert_concave(f, lv)
    p = inst.probs
    d_sigma = poly.degree * lin.sigma()
    e_lin = float(lv @ p)
    if e_lin < d_sigma:
        return _skip(
            "decoupling_upper_concave",
            f"E[linear]={e_lin:.4f} < d*sigma={d_sigma:.4f}",
        )
    lhs = float((pv * f(lv)) @ p)
    rhs = float(pv @ p) * float(f(np.array(e_lin - d_sigma)))
    slack = _tail_slack(inst, pv * f(lv), pv, lv)
    return _certify("decoupling_upper_concave", rhs - lhs, slack, lhs, rhs)


def dominator_value(fprime, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_t f'_t prod_{j=1..t} (x + j)^{-1} pointwise."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    basis = np.ones_like(x)
    for t, coeff in enumerate(fprime):
        if t > 0:
            basis = basis / (x + t)
        out += coeff * basis
    return out


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
    d_sigma = poly.degree * lin.sigma()
    e_lin = float(lv @ p)
    if e_lin <= d_sigma:
        return _skip(
            "domination_upper",
            f"E[linear]={e_lin:.4f} <= d*sigma={d_sigma:.4f}",
        )
    lhs = float((pv * f(lv)) @ p)
    rhs = float(pv @ p) * math.fsum(
        coeff * (e_lin - d_sigma) ** -t for t, coeff in enumerate(fprime)
    )
    slack = _tail_slack(inst, pv * f(lv), pv, lv)
    return _certify("domination_upper", rhs - lhs, slack, lhs, rhs)


# ---------------------------------------------------------------------------
# Characteristic polynomial checks
# ---------------------------------------------------------------------------


def charpoly(supports) -> dict[float, float]:
    """Distribution of X = sum of independent variables with the given
    (value, mass) support lists; values must lie in [0, 1].

    The returned map exponent -> mass is exactly E[z^X] read as a sparse
    generalized polynomial in z.
    """
    for sup in supports:
        masses = [mass for _, mass in sup]
        if abs(math.fsum(masses) - 1.0) > 1e-12:
            raise ValueError("masses of each variable must sum to 1")
        if any(v < 0 or v > 1 for v, _ in sup):
            raise ValueError("support values must lie in [0, 1]")
    acc: dict[float, float] = {0.0: 1.0}
    for sup in supports:
        nxt: dict[float, float] = {}
        for s, mass in acc.items():
            for v, mv in sup:
                key = s + v
                nxt[key] = nxt.get(key, 0.0) + mass * mv
        acc = nxt
    return acc


def _charpoly_mean(dist: dict[float, float]) -> float:
    return math.fsum(s * m for s, m in dist.items())


def check_charpoly_integral(supports, u: float) -> Certificate:
    """integral_0^u E[z^X] dz <= E[X]^{-1} E[u^X] for u in (0, 1].

    The integral is exact: each z^s term integrates to u^{s+1}/(s+1).
    """
    if not 0.0 < u <= 1.0:
        raise ValueError("u must lie in (0, 1]")
    dist = charpoly(supports)
    ex = _charpoly_mean(dist)
    if ex <= 0:
        return _skip("charpoly_integral", "E[X] = 0")
    lhs = math.fsum(mass * u ** (s + 1.0) / (s + 1.0) for s, mass in dist.items())
    rhs = math.fsum(mass * u**s for s, mass in dist.items()) / ex
    slack = 1e-12 * (1.0 + abs(rhs))
    return _certify("charpoly_integral", rhs - lhs, slack, lhs, rhs)


def check_inverse_falling_moments(supports, max_r: int = 3) -> Certificate:
    """E[prod_{j=1..r} (X + j)^{-1}] <= E[X]^{-r} for r = 1..max_r."""
    dist = charpoly(supports)
    ex = _charpoly_mean(dist)
    if ex <= 0:
        return _skip("inverse_falling_moments", "E[X] = 0")
    s = np.fromiter(dist.keys(), dtype=float, count=len(dist))
    mass = np.fromiter(dist.values(), dtype=float, count=len(dist))
    # column r-1 holds prod_{j=1..r} (s + j)^{-1} at every support point s
    inv = np.cumprod(1.0 / (s[:, None] + np.arange(1, max_r + 1)), axis=1)
    worst = min(
        (ex**-r - math.fsum(mass * inv[:, r - 1]) for r in range(1, max_r + 1)),
        default=math.inf,
    )
    slack = 1e-12 * max(1.0, ex ** -max_r)
    return _certify("inverse_falling_moments", worst, slack, math.nan, math.nan,
                    detail=f"r up to {max_r}")


# ---------------------------------------------------------------------------
# Moment checks
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def moment_coefficients(h: int) -> tuple[int, ...]:
    """Integer coefficients (c_{h,1}, ..., c_{h,h}) of the moment recursion
    c_{h,1} = 1, c_{h,k} = sum_{l=k-1}^{h-1} C(h-1, l) c_{l,k-1}."""
    if h < 1:
        raise ValueError("h must be >= 1")
    if h == 1:
        return (1,)
    out = [1]
    for k in range(2, h + 1):
        out.append(
            sum(
                math.comb(h - 1, l) * moment_coefficients(l)[k - 2]
                for l in range(k - 1, h)
            )
        )
    return tuple(out)


def check_moment_bound(inst: OracleInstance, j: int, h: int) -> Certificate:
    """E[phi_j^h] <= sum_k c_{h,k} E[phi_j]^k by exact enumeration."""
    if h > 6:
        raise ValueError("h > 6 is not supported (enumeration cost)")
    pj = inst.prevalences(j)
    p = inst.probs
    lhs = float((pj**h) @ p)
    mu = float(pj @ p)
    rhs = math.fsum(c * mu**k for k, c in enumerate(moment_coefficients(h), 1))
    slack = _tail_slack(inst, pj**h, pj)
    return _certify("moment_bound", rhs - lhs, slack, lhs, rhs,
                    detail=f"j={j} h={h}")


def check_degree2_second_moment(
    inst: OracleInstance, poly: PolyFunctional, k: int, L: int
) -> Certificate:
    """E[poly^2] <= E[poly]^2 + 6 k L E[poly] for degree-2 poly with indices
    <= L and coefficients in [0, 1]."""
    if poly.degree != 2:
        raise ValueError("poly must have degree 2")
    if any(c < 0 or c > 1 for c in poly.coeffs.values()):
        raise ValueError("coefficients must lie in [0, 1]")
    if poly.max_index() > L or L < 1:
        raise ValueError("poly indices must be <= L with L >= 1")
    if not 1 < inst.num_symbols <= k:
        raise ValueError("needs 1 < alphabet size <= k")
    pv = inst.poly_values(poly)
    p = inst.probs
    lhs = float((pv * pv) @ p)
    mean = float(pv @ p)
    rhs = mean * mean + 6.0 * k * L * mean
    slack = _tail_slack(inst, pv * pv, pv)
    return _certify("degree2_second_moment", rhs - lhs, slack, lhs, rhs)


def check_conditional_moment(inst: OracleInstance, j: int, h: int) -> Certificate:
    """E[phi_j^h | phi_2 = 0] <= E[phi_j^h] / (1 - 2 e^{-2})^{min(m, h)}."""
    if j == 2:
        raise ValueError("j must differ from the conditioning index 2")
    mask = inst.phi_table[:, 2] == 0 if inst.phi_table.shape[1] > 2 else (
        np.ones(len(inst.probs), dtype=bool)
    )
    pz = float(inst.probs[mask].sum())
    if pz <= 0:
        raise ValueError("conditioning event phi_2 = 0 has zero mass")
    pj = inst.prevalences(j)
    lhs = float((pj[mask] ** h) @ inst.probs[mask]) / pz
    factor = _CONDITIONAL_FACTOR_BASE ** -min(inst.num_symbols, h)
    rhs = factor * float((pj**h) @ inst.probs)
    sup = float(np.max(pj**h, initial=0.0))
    slack = inst.tail_mass * sup * (1.0 / pz + factor) + 1e-12 * (1.0 + rhs)
    return _certify("conditional_moment", rhs - lhs, slack, lhs, rhs,
                    detail=f"j={j} h={h}")


def check_negative_regression(inst: OracleInstance, i: int, j: int, shape) -> Certificate:
    """E[shape(phi_i) | phi_j = t] is non-increasing over feasible t, for a
    non-decreasing shape function."""
    if i == j:
        raise ValueError("i and j must differ")
    pj = inst.prevalences(j).astype(np.int64)
    si = shape(inst.prevalences(i))
    sup = float(np.max(np.abs(si), initial=0.0))
    prev = None
    worst = math.inf
    total_slack = 1e-12
    for t in range(inst.num_symbols + 1):
        mask = pj == t
        pt = float(inst.probs[mask].sum())
        if pt <= inst.tail_mass:
            continue
        cond = float(si[mask] @ inst.probs[mask]) / pt
        slack_t = inst.tail_mass * sup / pt
        if prev is not None:
            worst = min(worst, prev - cond)
            total_slack += slack_t + prev_slack
        prev, prev_slack = cond, slack_t
    if prev is None or worst is math.inf:
        return _skip("negative_regression", "fewer than two feasible values")
    return _certify("negative_regression", worst, total_slack,
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
# Function whitelist helpers
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


#: non-increasing functions paired with a concavity flag and, when known,
#: a dominating falling-factorial series.
WHITELIST = {
    "1/(1+x)": (f_inv, False, (0.0, 1.0)),
    "1/(1+x)^2": (f_inv_sq, False, (0.0, 0.0, 1.0, 3.0)),
    "1/((1+x)(2+x))": (f_inv_falling2, False, (0.0, 0.0, 1.0)),
    "exp(-x)": (f_exp_neg, False, None),
    "-x": (f_neg_identity, True, None),
}


def _assert_non_increasing(f, xs: np.ndarray):
    xs = np.unique(xs)
    vals = f(xs)
    if np.any(np.diff(vals) > 1e-12):
        raise ValueError("f is not non-increasing on the enumerated support")


def _assert_concave(f, xs: np.ndarray):
    xs = np.unique(xs)
    if len(xs) < 3:
        return
    vals = f(xs)
    # second divided differences must be <= 0
    d1 = np.diff(vals) / np.diff(xs)
    if np.any(np.diff(d1) > 1e-10):
        raise ValueError("f is not concave on the enumerated support")


# ---------------------------------------------------------------------------
# Randomized certification campaign
# ---------------------------------------------------------------------------


def _random_instance(rng: np.random.Generator, max_symbols: int = 3,
                     mean_range=(0.2, 3.0)) -> OracleInstance:
    m = int(rng.integers(1, max_symbols + 1))
    means = rng.uniform(*mean_range, size=m)
    return build_instance(means)


def _random_poly(rng: np.random.Generator, degree: int, max_index: int = 3,
                 terms: int = 2) -> PolyFunctional:
    coeffs = {}
    for _ in range(terms):
        idx = tuple(int(v) for v in rng.integers(0, max_index + 1, size=degree))
        coeffs[idx] = float(rng.uniform(0.0, 1.0))
    return PolyFunctional(degree=degree, coeffs=coeffs)


def _random_linear(rng: np.random.Generator, length: int = 5) -> LinearFunctional:
    beta = rng.uniform(0.0, 1.0, size=length)
    keep = rng.random(length) < 0.6
    return LinearFunctional(coeffs=tuple(float(b * k) for b, k in zip(beta, keep)))


def certification_campaign(
    seed: int = 0,
    decoupling: int = 100,
    charpoly_cases: int = 200,
    moment: int = 100,
    degree2: int = 100,
    conditional: int = 100,
    regression: int = 100,
    zoo_k: int = 100,
) -> list[Certificate]:
    """Run every inequality check over randomized instances.

    Returns a flat list of certificates; a single falsification means one
    of the certified inequalities failed numerically beyond tail slack.
    """
    if min(decoupling, charpoly_cases, moment, degree2, conditional, regression) < 0:
        raise ValueError("per-check counts must be >= 0")
    rng = np.random.default_rng(seed)
    certs: list[Certificate] = []

    monotone = ["1/(1+x)", "exp(-x)", "1/(1+x)^2"]
    for _ in range(decoupling):
        inst = _random_instance(rng)
        d = int(rng.integers(1, 4))
        poly = _random_poly(rng, d)
        lin = _random_linear(rng)
        f, _, _ = WHITELIST[monotone[int(rng.integers(len(monotone)))]]
        certs.append(check_decoupling_lower(inst, poly, lin, f))

    for _ in range(decoupling):
        # small means and few coefficients keep E[linear] above d*sigma often
        inst = _random_instance(rng, mean_range=(0.2, 1.0))
        poly = _random_poly(rng, degree=1)
        lin = LinearFunctional(coeffs=(1.0, float(rng.uniform(0, 0.3))))
        certs.append(check_decoupling_upper_concave(inst, poly, lin, f_neg_identity))

    dominated = ["1/(1+x)", "1/(1+x)^2", "1/((1+x)(2+x))"]
    for _ in range(decoupling):
        inst = _random_instance(rng, mean_range=(0.2, 1.0))
        poly = _random_poly(rng, degree=1)
        lin = LinearFunctional(coeffs=(1.0,))
        name = dominated[int(rng.integers(len(dominated)))]
        f, _, fprime = WHITELIST[name]
        certs.append(check_domination_upper(inst, poly, lin, f, fprime))

    for _ in range(charpoly_cases):
        nvars = int(rng.integers(1, 6))
        supports = []
        for _ in range(nvars):
            npts = int(rng.integers(1, 5))
            values = rng.uniform(0.0, 1.0, size=npts)
            masses = rng.dirichlet(np.ones(npts))
            supports.append(list(zip(values.tolist(), masses.tolist())))
        u = float(rng.uniform(0.05, 1.0))
        certs.append(check_charpoly_integral(supports, u))
        certs.append(check_inverse_falling_moments(supports))

    for _ in range(moment):
        inst = _random_instance(rng)
        j = int(rng.integers(0, 4))
        h = int(rng.integers(1, 5))
        certs.append(check_moment_bound(inst, j, h))

    for _ in range(degree2):
        inst = _random_instance(rng, max_symbols=3)
        if inst.num_symbols < 2:
            inst = build_instance(rng.uniform(0.2, 3.0, size=2))
        L = int(rng.integers(1, 4))
        poly = _random_poly(rng, degree=2, max_index=L)
        certs.append(check_degree2_second_moment(inst, poly, k=4, L=L))

    for _ in range(conditional):
        inst = _random_instance(rng)
        j = int(rng.choice([0, 1, 3]))
        h = int(rng.integers(1, 5))
        certs.append(check_conditional_moment(inst, j, h))

    shapes = [lambda x: x, lambda x: x**2, lambda x: x**4]
    for _ in range(regression):
        inst = _random_instance(rng)
        i, j = rng.choice(4, size=2, replace=False)
        shape = shapes[int(rng.integers(len(shapes)))]
        certs.append(check_negative_regression(inst, int(i), int(j), shape))

    for family in FAMILIES:
        P = make_distribution(family, zoo_k)
        for n in (zoo_k / 2, zoo_k, 2 * zoo_k, 4 * zoo_k):
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
