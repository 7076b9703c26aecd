"""Support-size and unseen-species estimation under Poisson sampling.

Library layout:
  distributions  -- the probability-floor distribution zoo
  poisson_model  -- sampling, fingerprints, exact prevalence moments
  estimators     -- plug-in, Chao, modified Chao, Chebyshev estimators:
                    one batched kernel over occupancy matrices
                    (unseen_estimates) and its one-fingerprint call
                    (support_estimate)
  bounds         -- closed-form worst-case MSE and bias bounds
  oracle         -- exhaustive small-alphabet inequality certification
  bench          -- Monte Carlo MSE harness, sweeps, empirical-data path
"""

from .distributions import DiscreteDistribution, make_distribution, support_size
from .poisson_model import (
    Fingerprint,
    MultiplicitySample,
    exact_bias_expression,
    exact_plugin_mse,
    expected_prevalence,
    fingerprint,
    prevalence_second_moment,
    sample,
)
from .estimators import (
    EstimatorOutput,
    UndefinedEstimateError,
    occupancy_width,
    support_estimate,
    unseen_estimates,
)
from .bounds import (
    BoundInapplicableError,
    BoundReport,
    bias_bounds,
    bound_report,
    chao_mse_upper,
    high_collision_bound,
    low_collision_bound,
    low_collision_bound_at_threshold,
    plugin_mse_bounds,
    sigma_of,
    solve_alpha,
)
from .bench import MseRow, SweepConfig, monte_carlo_mse, run_sweep

__version__ = "0.1.0"

__all__ = [
    "DiscreteDistribution",
    "make_distribution",
    "support_size",
    "Fingerprint",
    "MultiplicitySample",
    "sample",
    "fingerprint",
    "expected_prevalence",
    "prevalence_second_moment",
    "exact_plugin_mse",
    "exact_bias_expression",
    "EstimatorOutput",
    "UndefinedEstimateError",
    "support_estimate",
    "unseen_estimates",
    "occupancy_width",
    "BoundReport",
    "BoundInapplicableError",
    "solve_alpha",
    "sigma_of",
    "plugin_mse_bounds",
    "chao_mse_upper",
    "high_collision_bound",
    "bias_bounds",
    "low_collision_bound",
    "low_collision_bound_at_threshold",
    "bound_report",
    "SweepConfig",
    "MseRow",
    "monte_carlo_mse",
    "run_sweep",
]
