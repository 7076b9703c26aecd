"""The package's export list and version, and the library surface perfbench/
reads."""

import inspect
from pathlib import Path

import numpy as np
import pytest

import supportsize
from supportsize import bench, bounds, distributions, estimators, oracle, poisson_model

#: Functions perfbench/spans.py times by module attribute.
TRACED = {
    bench: ("run_sweep", "monte_carlo_mse", "ingest_counts",
            "estimate_from_counts"),
    poisson_model: ("sample", "fingerprint", "expected_prevalence",
                    "prevalence_second_moment", "exact_plugin_mse"),
    estimators: ("support_estimate", "chebyshev_coefficients"),
    distributions: ("make_distribution",),
    bounds: ("bound_report",),
    oracle: ("build_instance", "charpoly", "check_decoupling_lower",
             "check_decoupling_upper_concave", "check_domination_upper",
             "check_charpoly_integral", "check_inverse_falling_moments",
             "check_moment_bound", "check_degree2_second_moment",
             "check_conditional_moment", "check_negative_regression",
             "check_cauchy_schwarz"),
}


def test_every_export_resolves_once():
    names = supportsize.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(supportsize, name)]
    assert missing == []


def test_version_matches_pyproject():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        version = tomllib.load(fh)["project"]["version"]
    assert supportsize.__version__ == version


def test_perfbench_surface(tmp_path):
    # perfbench/workloads.py and perfbench/spans.py call these names and
    # read these fields; renaming one breaks the benchmark, not the tests
    missing = [f"{m.__name__}.{name}" for m, names in TRACED.items()
               for name in names if not callable(getattr(m, name, None))]
    assert missing == []

    inst = oracle.build_instance([0.5, 1.0])
    assert inst.phi_table.dtype == np.int64
    assert len(inst.counts) == len(inst.probs) == len(inst.phi_table)
    assert inst.tail_mass == 0.0

    sizes = dict(decoupling=1, charpoly_cases=2, moment=1, degree2=1,
                 conditional=1, regression=1)
    assert set(sizes) < set(inspect.signature(
        oracle.certification_campaign).parameters)
    certs = oracle.certification_campaign(seed=0, **sizes)
    assert len(certs) == 3 + 2 * 2 + 4 + 16
    for c in certs:
        assert isinstance(c.falsified, bool)
        assert c.status in ("passed", "falsified", "skipped")
        assert isinstance(c.name, str) and isinstance(c.detail, str)

    cfg = bench.SweepConfig(families=("uniform",), k=30, n_grid=(60.0,),
                            estimators=("plugin",), trials=5,
                            output_path=str(tmp_path / "sweep.csv"))
    (row,) = bench.run_sweep(cfg, workers=1)
    assert (row.family, row.n, row.estimator_id, row.trials) == (
        "uniform", 60.0, "plugin", 5)

    path = tmp_path / "counts.csv"
    path.write_text("symbol,count\na,1\nb,1\nc,1\nd,2\n")
    est = bench.estimate_from_counts(
        path, ("plugin", "chao", "modified_chao", "chebyshev"), k=1000, n=2000.0)
    assert est["plugin"].value == 4.0 and est["chao"].value == 8.5

    P = distributions.make_distribution("zipf", 100)
    fp = poisson_model.fingerprint(poisson_model.sample(P, 50.0, [0, 1]), P)
    assert fp.phi0 + sum(fp.phi.values()) == len(P.probs)
    assert bounds.bound_report(50.0, 100, P).plugin_upper >= (
        poisson_model.exact_plugin_mse(P, 50.0))
