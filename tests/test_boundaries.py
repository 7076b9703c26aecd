"""Every public boundary rejects a value outside its domain with ValueError.

Each domain has one checking function: n finite and > 0
(poisson_model.check_n), k >= 2 (distributions.check_k) and values in
[0, 1] (bounds.check_unit_interval). NaN fails each of them.
"""

import math

import pytest

from supportsize.bench import SweepConfig
from supportsize.bounds import bound_report, high_collision_bound, sigma_of
from supportsize.distributions import make_distribution
from supportsize.estimators import support_estimate, unseen_estimates
from supportsize.oracle import (
    LinearFunctional,
    PolyFunctional,
    build_instance,
    charpoly,
    check_degree2_second_moment,
)
from supportsize.poisson_model import Fingerprint

INF, NAN = math.inf, math.nan
FP = Fingerprint({1: 3, 2: 1})
ROW, SEEN = [[0, 3, 1, 0, 0, 0]], [4]

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
}


@pytest.mark.parametrize("call", CASES.values(), ids=CASES.keys())
def test_out_of_domain_value_raises(call):
    with pytest.raises(ValueError):
        call()
