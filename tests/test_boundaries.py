"""Every public boundary rejects a value outside its domain with ValueError.

Each domain has one checking function: n finite and > 0
(poisson_model.check_n), k an integer >= 2 (distributions.check_k, which
refuses a float k such as 2.5 or inf), any other integer argument, such as
a seed, a count, a law's own k, a worker count, a prevalence index, a
degree or an exponent, through distributions.check_integer alike (a whole
float such as 2.0 is refused too), and values in [0, 1]
(bounds.check_unit_interval). NaN fails each of them. The table also holds
every other ValueError branch of the library's entry points; counts given
as data, which may be whole floats, are tested in test_poisson_model.py.
(Sweep config files, whose "#" starts a comment only at the start of a line
or after whitespace, are tested in test_bench.py.)
"""

import math
from pathlib import Path

import numpy as np
import pytest

from supportsize.bench import (SweepConfig, estimate_from_counts, ingest_counts,
                               monte_carlo_mse, run_sweep)
from supportsize.bounds import (bound_report, high_collision_bound,
                               low_collision_bound, plugin_mse_bounds,
                               sigma_of)
from supportsize.distributions import (DiscreteDistribution, exact_sum,
                                       make_distribution)
from supportsize.estimators import (chebyshev_coefficients, support_estimate,
                                    unseen_estimates)
from supportsize.oracle import (
    Case,
    LinearFunctional,
    PolyFunctional,
    build_instance,
    certification_campaign,
    charpoly,
    check_charpoly_integral,
    check_conditional_moment,
    check_decoupling_lower,
    check_decoupling_upper_concave,
    check_degree2_second_moment,
    check_inverse_falling_moments,
    check_moment_bound,
    check_negative_regression,
    f_inv,
    moment_coefficients,
    phi_squared,
    run_case,
)
from supportsize.poisson_model import (Fingerprint, MultiplicitySample,
                                       expected_prevalence, fingerprint,
                                       prevalence_second_moment)

INF, NAN = math.inf, math.nan
FP = Fingerprint({1: 3, 2: 1})
ROW, SEEN = [[0, 3, 1, 0, 0, 0]], [4]
PHI1 = PolyFunctional(1, {(1,): 1.0})
PHI0 = LinearFunctional((1.0,))
SMALL_SWEEP = SweepConfig(families=("uniform",), k=10, n_grid=(10.0,),
                          estimators=("plugin",), trials=1)


def counts_file(text: str) -> str:
    # the test runs in a temporary working directory
    Path("counts.csv").write_text(text)
    return "counts.csv"

CASES = {
    "support_estimate chebyshev n=inf":
        lambda: support_estimate(FP, "chebyshev", k=1000, n=INF),
    "support_estimate chebyshev n=nan":
        lambda: support_estimate(FP, "chebyshev", k=1000, n=NAN),
    "unseen_estimates chebyshev n=inf":
        lambda: unseen_estimates(ROW, SEEN, "chebyshev", k=1000, n=INF),
    "unseen_estimates chebyshev n=nan":
        lambda: unseen_estimates(ROW, SEEN, "chebyshev", k=1000, n=NAN),
    "SweepConfig n_grid=(inf,)": lambda: SweepConfig(n_grid=(INF,)),
    "make_distribution k=1": lambda: make_distribution("uniform", 1),
    "SweepConfig k=1": lambda: SweepConfig(k=1),
    "bound_report k=1": lambda: bound_report(200.0, 1),
    "high_collision_bound k=1": lambda: high_collision_bound(1.0, 10.0, 1.0, 1),
    **{f"plugin_mse_bounds k={k}": (lambda k=k: plugin_mse_bounds(10.0, k))
       for k in (INF, 2.5, NAN)},
    **{f"bound_report k={k}": (lambda k=k: bound_report(10.0, k))
       for k in (INF, 2.5, NAN)},
    **{f"make_distribution k={k}": (lambda k=k: make_distribution("uniform", k))
       for k in (INF, 2.5, NAN)},
    "high_collision_bound e_phi2=nan":
        lambda: high_collision_bound(1.0, NAN, 1.0, 10),
    **{f"low_collision_bound e_phi2={e_phi2}":
       (lambda e_phi2=e_phi2: low_collision_bound(e_phi2, 10.0, 10))
       for e_phi2 in (NAN, -1.0)},
    "unseen_estimates chebyshev k=1":
        lambda: unseen_estimates(ROW, SEEN, "chebyshev", k=1, n=100.0),
    "sigma_of [nan]": lambda: sigma_of([NAN]),
    "LinearFunctional (nan,)": lambda: LinearFunctional((NAN,)),
    "check_degree2_second_moment nan coefficient":
        lambda: check_degree2_second_moment(
            build_instance([1.0, 1.0]), PolyFunctional(2, {(1, 1): NAN}),
            k=4, L=1),
    "charpoly nan value": lambda: charpoly([[(NAN, 1.0)]]),
    "charpoly nan mass": lambda: charpoly([[(0.0, NAN), (1.0, 1.0)]]),
    "charpoly masses 1.5, -0.5": lambda: charpoly([[(0.0, 1.5), (1.0, -0.5)]]),
    "check_charpoly_integral u=0":
        lambda: check_charpoly_integral(charpoly([[(1.0, 1.0)]]), 0.0),
    "check_charpoly_integral u=nan":
        lambda: check_charpoly_integral(charpoly([[(1.0, 1.0)]]), NAN),
    **{f"chebyshev_coefficients {name}={value}":
       (lambda name=name, value=value:
        chebyshev_coefficients(1000, 100.0, **{name: value}))
       for name in ("c0", "c1") for value in (0.0, NAN, INF)},
    "monte_carlo_mse trials=0":
        lambda: monte_carlo_mse(make_distribution("uniform", 10), 10.0,
                                "plugin", trials=0, master_seed=0),
    "monte_carlo_mse master_seed=-1":
        lambda: monte_carlo_mse(make_distribution("uniform", 10), 10.0,
                                "plugin", trials=1, master_seed=-1),
    "monte_carlo_mse trials=2.5":
        lambda: monte_carlo_mse(make_distribution("uniform", 10), 10.0,
                                "plugin", trials=2.5, master_seed=0),
    "monte_carlo_mse master_seed=1.5":
        lambda: monte_carlo_mse(make_distribution("uniform", 10), 10.0,
                                "plugin", trials=1, master_seed=1.5),
    **{f"run_sweep workers={workers}":
       (lambda workers=workers: run_sweep(SMALL_SWEEP, workers=workers))
       for workers in (1.5, NAN)},
    "SweepConfig master_seed=-1": lambda: SweepConfig(master_seed=-1),
    "SweepConfig master_seed=1.5": lambda: SweepConfig(master_seed=1.5),
    "SweepConfig trials=2.5": lambda: SweepConfig(trials=2.5),
    "certification_campaign seed=-1":
        lambda: certification_campaign(seed=-1),
    "certification_campaign seed=1.5":
        lambda: certification_campaign(seed=1.5),
    **{f"certification_campaign moment={moment}":
       (lambda moment=moment: certification_campaign(moment=moment))
       for moment in (2.5, INF)},
    "DiscreteDistribution k=0":
        lambda: DiscreteDistribution(np.array([1.0]), k=0),
    **{f"DiscreteDistribution k={k}":
       (lambda k=k: DiscreteDistribution(np.full(2, 0.5), k=k))
       for k in (2.5, INF)},
    "DiscreteDistribution empty probs":
        lambda: DiscreteDistribution(np.array([]), k=2),
    "DiscreteDistribution support > k":
        lambda: DiscreteDistribution(np.full(3, 1 / 3), k=2),
    "unseen_estimates 1-D occupancy":
        lambda: unseen_estimates([0, 3, 1], SEEN, "plugin"),
    "unseen_estimates 2 columns":
        lambda: unseen_estimates([[0, 3]], SEEN, "plugin"),
    "unseen_estimates chebyshev row narrower than L + 1":
        lambda: unseen_estimates([[0, 3, 1]], SEEN, "chebyshev", k=1000, n=100.0),
    "PolyFunctional degree 0": lambda: PolyFunctional(0, {}),
    **{f"PolyFunctional degree {degree}":
       (lambda degree=degree: PolyFunctional(degree, {}))
       for degree in (1.5, 2.0)},
    "PolyFunctional index 1.0": lambda: PolyFunctional(1, {(1.0,): 1.0}),
    "moment_coefficients h=0": lambda: moment_coefficients(0),
    "moment_coefficients h=3.0": lambda: moment_coefficients(3.0),
    # the cache must not answer 2.0 from the entry of an equal numpy integer
    "moment_coefficients h=2.0 after h=np.int64(2)":
        lambda: (moment_coefficients(np.int64(2)), moment_coefficients(2.0)),
    "check_degree2_second_moment degree-1 poly":
        lambda: check_degree2_second_moment(build_instance([1.0, 1.0]), PHI1,
                                            k=4, L=1),
    "check_degree2_second_moment 1 symbol":
        lambda: check_degree2_second_moment(build_instance([1.0]),
                                            phi_squared(1), k=4, L=1),
    "check_degree2_second_moment L=1.5":
        lambda: check_degree2_second_moment(build_instance([1.0, 1.0]),
                                            phi_squared(1), k=4, L=1.5),
    "check_degree2_second_moment k=4.5":
        lambda: check_degree2_second_moment(build_instance([1.0, 1.0]),
                                            phi_squared(1), k=4.5, L=1),
    "prevalences i=-1": lambda: build_instance([0.5, 1.0]).prevalences(-1),
    "prevalences i=1.0": lambda: build_instance([0.5, 1.0]).prevalences(1.0),
    "check_moment_bound j=-1":
        lambda: check_moment_bound(build_instance([0.5, 1.0]), -1, 2),
    "check_moment_bound j=1.0":
        lambda: check_moment_bound(build_instance([0.5, 1.0]), 1.0, 2),
    "check_negative_regression i=-1":
        lambda: check_negative_regression(build_instance([0.5, 1.0]), -1, 1,
                                          lambda x: x),
    **{f"check_negative_regression i={i} j={j}":
       (lambda i=i, j=j: check_negative_regression(build_instance([0.5, 1.0]),
                                                   i, j, lambda x: x))
       for i, j in ((1.0, 0), (1, 0.0))},
    "check_conditional_moment j=1.0":
        lambda: check_conditional_moment(build_instance([0.5, 1.0]), 1.0, 2),
    **{f"check_conditional_moment h={h}":
       (lambda h=h: check_conditional_moment(build_instance([0.5, 1.0]), 1, h))
       for h in (-1, 0, 1.5, 2.0)},
    **{f"check_inverse_falling_moments max_r={max_r}":
       (lambda max_r=max_r: check_inverse_falling_moments(
           charpoly([[(0.5, 1.0)]]), max_r=max_r))
       for max_r in (0, -1, 2.5, 2.0)},
    **{f"check_moment_bound h={h}":
       (lambda h=h: check_moment_bound(build_instance([0.5, 1.0]), 1, h))
       for h in (1.5, 2.0)},
    **{f"run_case {check}": (lambda check=check, args=args:
                             run_case(Case(check, args)))
       for check, args in (("nope", ()), ("unit_interval", ([0.5],)),
                           ("integer", ("x", 1, 0)))},
    "check_decoupling_lower nan f":
        lambda: check_decoupling_lower(
            build_instance([0.5, 1.0]), PHI1, PHI0,
            lambda x: np.full(np.shape(x), np.nan)),
    "check_decoupling_lower increasing f":
        lambda: check_decoupling_lower(build_instance([1.0]), PHI1, PHI0,
                                       lambda x: np.asarray(x, dtype=float)),
    "check_decoupling_upper_concave convex f":
        lambda: check_decoupling_upper_concave(build_instance([1.0] * 3), PHI1,
                                               PHI0, f_inv),
    "MultiplicitySample [-1]": lambda: MultiplicitySample([-1]),
    "Fingerprint {0: 1}": lambda: Fingerprint({0: 1}),
    "MultiplicitySample [1.5, 2.0]": lambda: MultiplicitySample([1.5, 2.0]),
    "MultiplicitySample [1.0, nan]": lambda: MultiplicitySample([1.0, NAN]),
    "MultiplicitySample [inf]": lambda: MultiplicitySample([INF]),
    "Fingerprint {1: 2.5}": lambda: Fingerprint({1: 2.5}),
    "Fingerprint {2.7: 1}": lambda: Fingerprint({2.7: 1}),
    "Fingerprint {1: 0.5}": lambda: Fingerprint({1: 0.5}),
    "fingerprint length mismatch":
        lambda: fingerprint(MultiplicitySample([1, 2]),
                            make_distribution("uniform", 3)),
    "SweepConfig families=()": lambda: SweepConfig(families=()),
    "SweepConfig estimators=()": lambda: SweepConfig(estimators=()),
    "estimate_from_counts no estimators":
        lambda: estimate_from_counts(counts_file("symbol,count\na,1\n"), ()),
    **{f"{moment.__name__} i={i}":
       (lambda moment=moment, i=i:
        moment(make_distribution("uniform", 100), 50.0, i))
       for moment in (expected_prevalence, prevalence_second_moment)
       for i in (-1, 1.5, NAN, INF, 2.0)},
    "exact_sum negative count":
        lambda: exact_sum(np.ones(2), np.array([2000, -1])),
    "exact_sum negative count below the fsum floor":
        lambda: exact_sum(np.ones(2), np.array([3, -1])),
    "exact_sum fractional count":
        lambda: exact_sum(np.ones(2), np.array([1500.0, 0.5])),
    "exact_sum one count for two terms":
        lambda: exact_sum(np.ones(2), np.array([1500])),
    # the totals 2**64 + 1200 and 2**63 wrap in int64
    "exact_sum counts past 2**64":
        lambda: exact_sum(np.array([1 / 3, 1 / 7, 1 / 11, 1 / 13]),
                          np.full(4, 2**62 + 300)),
    "exact_sum counts of 2**63":
        lambda: exact_sum(np.ones(2), np.array([2**62, 2**62])),
    "ingest_counts 3-field row":
        lambda: ingest_counts(counts_file("symbol,count\na,1,2\n")),
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_value_raises(call, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError):
        call()
