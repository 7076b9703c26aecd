import hashlib
import math

import numpy as np
import pytest

from supportsize.bench import (
    CSV_HEADER,
    SweepConfig,
    estimate_from_counts,
    ingest_counts,
    load_config,
    monte_carlo_mse,
    run_sweep,
    write_rows,
)
from supportsize.distributions import make_distribution
from supportsize.estimators import (
    ESTIMATOR_IDS,
    UndefinedEstimateError,
    modified_chao_unseen,
    plugin_support,
    support_estimate,
)
from supportsize.poisson_model import exact_plugin_mse, fingerprint, sample


def test_monte_carlo_deterministic():
    P = make_distribution("zipf", 100)
    a = monte_carlo_mse(P, 200.0, "modified_chao", trials=500, master_seed=3)
    b = monte_carlo_mse(P, 200.0, "modified_chao", trials=500, master_seed=3)
    assert a == b
    c = monte_carlo_mse(P, 200.0, "modified_chao", trials=500, master_seed=4)
    assert a.mse != c.mse


def test_monte_carlo_matches_exact_plugin_mse():
    P = make_distribution("uniform", 50)
    row = monte_carlo_mse(P, 100.0, "plugin", trials=20_000, master_seed=0)
    exact = exact_plugin_mse(P, 100.0)
    assert abs(row.mse - exact) <= 4 * row.stderr
    assert row.undefined_count == 0


def test_monte_carlo_agrees_with_direct_estimators():
    # the vectorized trial path must reproduce the one-shot estimator path
    P = make_distribution("two_mixture", 60)
    n, seed = 90.0, 17
    for estimator_id in ("plugin", "chao", "modified_chao", "chebyshev"):
        row = monte_carlo_mse(P, n, estimator_id, trials=40, master_seed=seed)
        sqerrs = []
        for t in range(40):
            fp = fingerprint(sample(P, n, seed=[seed, t]), P)
            if estimator_id == "plugin":
                unseen = 0.0
            elif estimator_id == "chao":
                try:
                    unseen = support_estimate(fp, "chao").value - plugin_support(fp)
                except UndefinedEstimateError:
                    continue
            elif estimator_id == "modified_chao":
                unseen = modified_chao_unseen(fp)
            else:
                est = support_estimate(fp, "chebyshev", k=P.k, n=n)
                unseen = est.value - plugin_support(fp)
            sqerrs.append((fp.phi0 - unseen) ** 2)
        assert row.mse == pytest.approx(np.mean(sqerrs), rel=1e-12)
        assert row.undefined_count == 40 - len(sqerrs)


def test_squared_error_identity():
    # (S(P) - S_hat)^2 equals (phi_0 - U_hat)^2 for composed estimators
    P = make_distribution("geometric", 80)
    for t in range(20):
        fp = fingerprint(sample(P, 120.0, seed=[5, t]), P)
        s_hat = support_estimate(fp, "modified_chao").value
        u_hat = modified_chao_unseen(fp)
        assert (len(P) - s_hat) ** 2 == pytest.approx(
            (fp.phi0 - u_hat) ** 2, rel=1e-12
        )


def test_chao_undefined_trials_reported():
    # tiny n makes phi_2 = 0 common; those trials must be excluded, counted
    P = make_distribution("uniform", 50)
    row = monte_carlo_mse(P, 5.0, "chao", trials=400, master_seed=1)
    assert 0 < row.undefined_count < 400
    assert math.isfinite(row.mse)


def test_all_trials_undefined_raises():
    P = make_distribution("uniform", 50)
    with pytest.raises(UndefinedEstimateError):
        monte_carlo_mse(P, 1e-6, "chao", trials=20, master_seed=0)


def test_worker_count_does_not_change_results():
    P = make_distribution("zipf", 100)
    rows = [
        monte_carlo_mse(P, 150.0, "modified_chao", trials=600, master_seed=9,
                        workers=w)
        for w in (1, 2, 5)
    ]
    assert rows[0] == rows[1] == rows[2]


def test_workers_must_be_positive(tmp_path):
    P = make_distribution("uniform", 20)
    cfg = SweepConfig(families=("uniform",), k=20, n_grid=(30.0,),
                      estimators=("plugin",), trials=5,
                      output_path=str(tmp_path / "sweep.csv"))
    for workers in (0, -3):
        with pytest.raises(ValueError):
            monte_carlo_mse(P, 30.0, "plugin", trials=5, master_seed=0,
                            workers=workers)
        with pytest.raises(ValueError):
            run_sweep(cfg, workers=workers)
    assert not (tmp_path / "sweep.csv").exists()


def test_monte_carlo_rejects_bad_n():
    P = make_distribution("uniform", 20)
    for n in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            monte_carlo_mse(P, n, "plugin", trials=5, master_seed=0)
    with pytest.raises(ValueError):
        SweepConfig(n_grid=(100.0, -5.0))


def test_shared_draws_match_per_estimator_rows(tmp_path):
    # a sweep draws each (family, n) cell once and scores every estimator on
    # it; each row must equal the one-estimator monte_carlo_mse row exactly
    cfg = SweepConfig(families=("uniform", "zipf"), k=60, n_grid=(12.0, 90.0),
                      estimators=ESTIMATOR_IDS, trials=80, master_seed=4,
                      output_path=str(tmp_path / "sweep.csv"))
    rows = run_sweep(cfg)
    assert len(rows) == 2 * 2 * len(ESTIMATOR_IDS)
    for row in rows:
        P = make_distribution(row.family, cfg.k)
        assert row == monte_carlo_mse(P, row.n, row.estimator_id, cfg.trials,
                                      cfg.master_seed, family=row.family)
    chao = [r for r in rows if r.estimator_id == "chao"]
    assert any(0 < r.undefined_count < cfg.trials for r in chao)


@pytest.mark.skipif(np.__version__.split(".")[:2] != ["2", "4"],
                    reason="CSV hashes were recorded with numpy 2.4")
def test_sweep_csv_bytes_are_pinned(tmp_path):
    # the random stream and the estimator arithmetic are part of the output
    # contract: a change to either must update this hash deliberately
    out = tmp_path / "sweep.csv"
    run_sweep(SweepConfig(k=60, n_grid=(30.0, 90.0, 240.0),
                          estimators=ESTIMATOR_IDS, trials=50, master_seed=5,
                          output_path=str(out)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "c0460c5daf12a5b82fc075e2d1478a71bd5b76a93bf84c527589f6357a734646")


def test_run_sweep_row_count_and_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    cfg = SweepConfig(families=("uniform",), k=30, n_grid=(60.0,),
                      estimators=("plugin",), trials=50,
                      output_path=str(out))
    rows = run_sweep(cfg)
    assert len(rows) == 1
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(CSV_HEADER)
    assert len(lines) == 2
    assert lines[1].startswith("uniform,30,60,plugin,")


def test_run_sweep_determinism_across_workers(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    base = dict(families=("uniform", "two_mixture"), k=40,
                n_grid=(40.0, 80.0), estimators=("plugin", "modified_chao"),
                trials=60, master_seed=2)
    run_sweep(SweepConfig(output_path=str(out1), **base), workers=1)
    run_sweep(SweepConfig(output_path=str(out2), **base), workers=4)
    assert out1.read_bytes() == out2.read_bytes()


def test_default_config_row_count():
    cfg = SweepConfig()
    assert len(cfg.families) * len(cfg.n_grid) * len(cfg.estimators) == 96


def test_sweep_config_validation():
    with pytest.raises(ValueError):
        SweepConfig(trials=0)
    with pytest.raises(ValueError):
        SweepConfig(n_grid=())
    with pytest.raises(ValueError):
        SweepConfig(k=1)
    with pytest.raises(ValueError):
        SweepConfig(estimators=("plugin", "bootstrap"))


def test_load_config(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "# desk-scale check\n"
        "families = uniform, zipf\n"
        "k = 200\n"
        "n_grid = 100, 200.5\n"
        "estimators = plugin\n"
        "trials = 10\n"
        "master_seed = 7\n"
        "output_path = out.csv\n"
    )
    cfg = load_config(cfg_path)
    assert cfg.families == ("uniform", "zipf")
    assert cfg.k == 200 and cfg.trials == 10 and cfg.master_seed == 7
    assert cfg.n_grid == (100.0, 200.5)
    assert cfg.output_path == "out.csv"


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("k: 100\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("horizon = 5\n")
    with pytest.raises(ValueError):
        load_config(bad)


def counts_csv(tmp_path, rows):
    path = tmp_path / "counts.csv"
    path.write_text("symbol,count\n" + "".join(f"{s},{c}\n" for s, c in rows))
    return path


def test_ingest_counts(tmp_path):
    fp = ingest_counts(counts_csv(tmp_path, [("a", 1), ("b", 1), ("c", 2)]))
    assert fp.phi == {1: 2, 2: 1}
    assert fp.phi0 is None
    fp = ingest_counts(counts_csv(tmp_path, []))
    assert fp.phi == {}
    # zero counts are dropped (the symbol was catalogued but not observed)
    fp = ingest_counts(counts_csv(tmp_path, [("a", 0), ("b", 3)]))
    assert fp.phi == {3: 1}


def test_ingest_counts_errors(tmp_path):
    with pytest.raises(ValueError):
        ingest_counts(counts_csv(tmp_path, [("a", 1), ("a", 2)]))
    with pytest.raises(ValueError):
        ingest_counts(counts_csv(tmp_path, [("a", -1)]))
    with pytest.raises(ValueError):
        ingest_counts(counts_csv(tmp_path, [("a", "x")]))
    bad = tmp_path / "bad.csv"
    bad.write_text("sym,cnt\na,1\n")
    with pytest.raises(ValueError):
        ingest_counts(bad)


def test_estimate_from_counts(tmp_path):
    path = counts_csv(tmp_path, [("a", 1), ("b", 1), ("c", 2)])
    report = estimate_from_counts(path)
    assert report["plugin"].value == 3
    assert report["chao"].value == 5
    assert report["modified_chao"].value == 4

    path = counts_csv(tmp_path, [("a", 1), ("b", 1), ("c", 1)])
    report = estimate_from_counts(path)
    assert report["chao"] is None
    assert report["modified_chao"].value == 7.5

    path = counts_csv(tmp_path, [])
    report = estimate_from_counts(path)
    assert report["plugin"].value == 0
    assert report["chao"] is None
    assert report["modified_chao"].value == 0


def test_estimate_from_counts_chebyshev(tmp_path):
    path = counts_csv(tmp_path, [("a", 1), ("b", 2)])
    with pytest.raises(ValueError):
        estimate_from_counts(path, estimators=("chebyshev",))
    report = estimate_from_counts(path, estimators=("chebyshev",), k=100,
                                  n=50.0)
    assert report["chebyshev"].value >= 0


def test_write_rows_is_stable(tmp_path):
    P = make_distribution("uniform", 20)
    row = monte_carlo_mse(P, 30.0, "plugin", trials=25, master_seed=0)
    p1, p2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    write_rows([row], p1)
    write_rows([row], p2)
    assert p1.read_bytes() == p2.read_bytes()
