import csv
import hashlib
import io
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy import special, stats

from supportsize import bench
from supportsize.bench import (
    BLOCK,
    CSV_HEADER,
    DEFAULT_ESTIMATORS,
    SweepConfig,
    _draw_cells,
    estimate_from_counts,
    ingest_counts,
    load_config,
    monte_carlo_mse,
    run_sweep,
    write_rows,
)
from supportsize.distributions import (
    FAMILIES,
    DiscreteDistribution,
    exact_sum,
    make_distribution,
)
from supportsize.estimators import (
    ESTIMATOR_IDS,
    UndefinedEstimateError,
    occupancy_width,
    support_estimate,
    unseen_estimates,
)
from supportsize.oracle import build_instance
from supportsize.poisson_model import (
    Fingerprint,
    MultiplicitySample,
    exact_plugin_mse,
    expected_prevalence,
    fingerprint,
    prevalence_second_moment,
    sample,
)


def draw_cell(P, n, trials, master_seed):
    """The occupancy matrix of one (P, n) cell, drawn alone as
    monte_carlo_mse draws it."""
    (occupancy,) = _draw_cells([(P, n)], trials, master_seed)
    return occupancy


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
    # at k = 1000 uniform and two_mixture are drawn run by run
    for family in ("uniform", "two_mixture"):
        P = make_distribution(family, 1000)
        for n in (500.0, 2000.0):
            row = monte_carlo_mse(P, n, "plugin", trials=20_000, master_seed=2)
            assert abs(row.mse - exact_plugin_mse(P, n)) <= 4 * row.stderr


def plugin_error_moments(P, n):
    """(E[phi_0^2], its per-trial standard deviation, P(phi_0 > 0)) for
    phi_0, the plug-in error: a sum of independent Bernoulli(e^{-n p_x})
    indicators, whose cumulants k1..k4 add over the symbols. With mean
    k1, Var(phi_0^2) = 4 k1^2 k2 + 4 k1 k3 + k4 + 2 k2^2."""
    values, lengths = P.levels
    q = np.exp(-n * values)
    v = q * (1 - q)
    k1, k2, k3, k4 = (exact_sum(c, lengths)
                      for c in (q, v, v * (1 - 2 * q), v * (1 - 6 * v)))
    var = 4 * k1 * k1 * k2 + 4 * k1 * k3 + k4 + 2 * k2 * k2
    p_nonzero = -math.expm1(exact_sum(np.log1p(-q), lengths))
    return k2 + k1 * k1, math.sqrt(var), p_nonzero


def test_sweep_matches_exact_plugin_mse_on_the_default_grid(tmp_path):
    # every plug-in row of the default grid (both draw paths) lies within 6
    # exact standard errors of the exact MSE; a row that expects fewer than
    # 50 trials with a nonzero error is too skewed for the check
    cfg = SweepConfig(estimators=("plugin",), master_seed=1,
                      output_path=str(tmp_path / "sweep.csv"))
    checked = 0
    for row in run_sweep(cfg):
        P = make_distribution(row.family, cfg.k)
        exact = exact_plugin_mse(P, row.n)
        m2, sd, p_nonzero = plugin_error_moments(P, row.n)
        assert m2 == pytest.approx(exact, rel=1e-12)
        if row.trials * p_nonzero < 50:
            continue
        checked += 1
        z = (row.mse - exact) / (sd / math.sqrt(row.trials))
        assert abs(z) <= 6, (row, exact, z)
    assert checked == 31  # all but zipf at n = 8000


def test_monte_carlo_agrees_with_direct_estimators():
    # the vectorized unseen_estimates path must reproduce the one-shot
    # support_estimate path on the same fingerprints: those of the cell's own
    # occupancy rows, with the seen remainder (counts >= W) placed at key W
    P = make_distribution("two_mixture", 60)
    n, seed, trials = 90.0, 17, 40
    width = occupancy_width(P.k)
    fps = []
    for row in draw_cell(P, n, trials, seed).tolist():
        phi = dict(enumerate(row))
        phi0 = phi.pop(0)
        phi[width] = len(P) - phi0 - sum(phi.values())
        fps.append(Fingerprint(phi=phi, phi0=phi0))
    for estimator_id in ("plugin", "chao", "modified_chao", "chebyshev"):
        row = monte_carlo_mse(P, n, estimator_id, trials=trials,
                              master_seed=seed)
        sqerrs = []
        for fp in fps:
            try:
                est = support_estimate(fp, estimator_id, k=P.k, n=n)
            except UndefinedEstimateError:
                continue
            sqerrs.append((len(P) - est.value) ** 2)
        assert row.mse == pytest.approx(np.mean(sqerrs), rel=1e-12)
        assert row.undefined_count == trials - len(sqerrs)


def test_draw_cell_matches_exact_joint_law():
    # chi-square of the drawn (phi_0, phi_1, phi_2) against the exact law
    # that oracle.build_instance enumerates, on 1-4 symbols; cells expected
    # fewer than 5 times are pooled
    rng = np.random.default_rng(20)
    trials = 20_000
    for case in range(8):
        means = rng.uniform(0.2, 3.0, size=case % 4 + 1)
        n = float(means.sum())
        P = DiscreteDistribution(means / n, k=len(means), strict=False)
        inst = build_instance(n * P.probs)
        law = {}
        for key, p in zip(map(tuple, inst.phi_table[:, :3].tolist()),
                          inst.probs.tolist()):
            law[key] = law.get(key, 0.0) + p
        pool, pooled = 0.0, set()
        for key in sorted(law, key=law.get):
            if trials * law[key] >= 5 and pool >= 5:
                break
            pool += trials * law[key]
            pooled.add(key)
        bins = [key for key in law if key not in pooled]
        index = {key: i for i, key in enumerate(bins)}
        observed = np.zeros(len(bins) + 1)
        for row in map(tuple, draw_cell(P, n, trials, case).tolist()):
            observed[index.get(row, len(bins))] += 1
        expected = [trials * law[key] for key in bins] + [pool]
        p_value = stats.chisquare(observed, expected).pvalue
        assert p_value > 1e-3, (case, means, p_value)


def class_law(means, size):
    """law[a, b, d] = P(phi_0 = a, phi_1 = b, phi_2 = d) for independent
    Poisson counts of the given means, added one symbol at a time, for
    a, b, d <= size."""
    law = np.zeros((size + 1,) * 3)
    law[0, 0, 0] = 1.0
    for q0, q1, q2 in stats.poisson.pmf(np.arange(3), np.c_[means]):
        new = law * (1.0 - q0 - q1 - q2)
        new[1:] += q0 * law[:-1]
        new[:, 1:] += q1 * law[:, :-1]
        new[:, :, 1:] += q2 * law[:, :, :-1]
        law = new
    return law


@pytest.mark.parametrize("runs", [(40,), (40, 30)])
def test_level_draw_matches_exact_joint_law(runs, monkeypatch):
    # chi-square of the drawn (phi_0, phi_1, phi_2) of a law drawn run by
    # run against its exact law, which adds the symbols one at a time: a
    # run's multinomial for one run, their convolution for two. The cutoff
    # is lowered so that runs of a few dozen symbols take that path; cells
    # expected fewer than 5 times are pooled. The seed was fixed before
    # the first run.
    monkeypatch.setattr(bench, "_RUN_CUTOFF", 30)
    monkeypatch.setattr(bench, "_chunk_cdf", None)  # no symbol is compared
    masses = np.repeat([1.0, 3.0][: len(runs)], runs)
    P = DiscreteDistribution(masses / masses.sum(), k=100, strict=False)
    assert occupancy_width(P.k) == 3
    n, trials = 1.2 * masses.sum(), 20_000
    drawn = draw_cell(P, n, trials, 11)
    expected = trials * class_law(n * P.probs, len(P)).ravel()
    observed = np.bincount(
        np.ravel_multi_index(drawn.T, (len(P) + 1,) * 3),
        minlength=len(expected))
    rare = expected < 5
    assert expected[rare].sum() >= 5 and (~rare).sum() > 50
    p_value = stats.chisquare(
        np.append(observed[~rare], observed[rare].sum()),
        np.append(expected[~rare], expected[rare].sum())).pvalue
    assert p_value > 1e-3, (runs, p_value)


def test_level_draw_rows_do_not_depend_on_trial_count(monkeypatch):
    # every run but the last draws whole blocks, so the rows for a trial
    # count are the leading rows for any larger one on laws of 1, 2 and 3
    # runs too
    monkeypatch.setattr(bench, "_chunk_cdf", None)  # no symbol is compared
    runs = np.repeat([1.0, 2.0, 3.0], 300)
    stepped = DiscreteDistribution(runs / runs.sum(), k=1000, strict=False)
    for P in (make_distribution("uniform", 1000),
              make_distribution("two_mixture", 1000), stepped):
        full = draw_cell(P, 700.0, 4 * BLOCK + 3, 8)
        for trials in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK - 5):
            np.testing.assert_array_equal(draw_cell(P, 700.0, trials, 8),
                                          full[:trials])


def test_level_draw_of_a_million_symbols_is_fast_and_small():
    # a uniform cell at k = 10^6 is one multinomial per block: no array of
    # the draw has a term in k (one float64 per symbol would be 8 MB)
    P = make_distribution("uniform", 10**6)
    trials = 4 * BLOCK
    counts = trials * occupancy_width(P.k) * 8
    start = time.perf_counter()
    draw_cell(P, 2e6, trials, 0)
    assert time.perf_counter() - start < 0.5
    tracemalloc.start()
    try:
        draw_cell(P, 2e6, trials, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * counts + 2**16, (peak, counts)


@pytest.mark.parametrize("family", FAMILIES)
def test_draw_cell_prevalence_means(family):
    # the mean of every drawn phi_j, j < W, within 4.5 exact standard errors
    # of E[phi_j]
    k, trials = 1000, 4000
    P = make_distribution(family, k)
    width = occupancy_width(k)
    for n in (k / 4, 2.0 * k, 8.0 * k):
        occupancy = draw_cell(P, n, trials, 1)
        for j in range(width):
            mu = expected_prevalence(P, n, j)
            var = max(prevalence_second_moment(P, n, j) - mu * mu, 0.0)
            mean = occupancy[:, j].mean()
            assert abs(mean - mu) <= 4.5 * math.sqrt(var / trials) + 1e-9, (
                n, j, mean, mu)


def test_draw_cell_rows_do_not_depend_on_trial_count():
    P = make_distribution("geometric", 1000)
    full = draw_cell(P, 700.0, 4 * BLOCK + 3, 8)
    assert full.shape[1] == 4
    for trials in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK - 5):
        np.testing.assert_array_equal(draw_cell(P, 700.0, trials, 8),
                                      full[:trials])


def test_draw_cell_does_not_depend_on_symbol_chunk(monkeypatch):
    # uniforms are consumed symbol by symbol, so the chunk size that bounds
    # a block's memory changes no draw
    P = make_distribution("zipf", 1000)
    full = draw_cell(P, 300.0, BLOCK + 5, 2)
    assert full.shape[1] == 4
    monkeypatch.setattr(bench, "_SYMBOL_CHUNK", 7)
    np.testing.assert_array_equal(draw_cell(P, 300.0, BLOCK + 5, 2), full)


def test_draw_cell_memory_is_bounded_per_block():
    # a block's uniforms are drawn in symbol chunks: one (BLOCK x k) float64
    # array alone would be 51 MB at k = 10^5 (geometric keeps 69 % of the
    # symbols, all of distinct masses, so it is drawn by the compare)
    P = make_distribution("geometric", 10**5)
    tracemalloc.start()
    try:
        draw_cell(P, 2e5, 2 * BLOCK, 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BLOCK * P.k * 8 / 2


def test_sweep_memory_is_bounded_per_block(tmp_path):
    # the sweep's shared draw still holds one symbol chunk of uniforms at a
    # time, not a whole (BLOCK x k) block; on top of that it keeps the
    # running counts of every cell
    cfg = SweepConfig(k=10**5, n_grid=(2e5,), trials=2 * BLOCK,
                      output_path=str(tmp_path / "sweep.csv"))
    cells = len(cfg.families) * len(cfg.n_grid)
    counts = cells * 2 * BLOCK * occupancy_width(cfg.k) * 8
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < BLOCK * cfg.k * 8 / 2 + counts


def test_sweep_draw_memory_does_not_grow_with_k(tmp_path):
    # the draw runs chunk by chunk, so at k = 10^5 it holds each cell's cdf
    # for one symbol chunk, one bool buffer for a group's compare, one
    # chunk of uniforms as drawn and transposed, and the counts; a bound
    # twice that has no term in k (holding every cell's whole cdf, as a
    # draw over all symbols at once would, takes about 96 MB here)
    cfg = SweepConfig(k=10**5, trials=2 * BLOCK,
                      output_path=str(tmp_path / "sweep.csv"))
    cells = len(cfg.families) * len(cfg.n_grid)
    assert cells == 32
    width = occupancy_width(cfg.k)
    chunk = bench._SYMBOL_CHUNK
    stacks = cells * width * chunk * 8
    buffer = BLOCK * len(cfg.n_grid) * width * chunk  # one family's cells
    uniforms = 2 * BLOCK * chunk * 8
    counts = cells * cfg.trials * width * 8
    working = stacks + buffer + uniforms + counts
    tracemalloc.start()
    try:
        run_sweep(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * working, (peak, working)


@pytest.mark.parametrize("chunk", [None, 7])
def test_cells_of_equal_support_and_other_width_draw_alone(chunk,
                                                           monkeypatch):
    # cells are compared law by law: two laws of the same 60 distinct
    # masses with W = 3 (k = 60) and W = 5 (k = 10^4) each take their own
    # _chunk_cdf call per chunk, and every cell, drawn among cells of other
    # supports and among laws drawn run by run (uniform and two_mixture at
    # k = 1000, which take no _chunk_cdf call), with a partial last block,
    # equals the cell drawn alone
    if chunk is not None:
        monkeypatch.setattr(bench, "_SYMBOL_CHUNK", chunk)
    masses = 0.97 ** np.arange(60)
    narrow = DiscreteDistribution(masses / masses.sum(), k=60, strict=False)
    wide = DiscreteDistribution(masses / masses.sum(), k=10**4, strict=False)
    assert (occupancy_width(narrow.k), occupancy_width(wide.k)) == (3, 5)
    zipf = make_distribution("zipf", 60)
    geometric = make_distribution("geometric", 200)
    flat = make_distribution("uniform", 1000)
    mixture = make_distribution("two_mixture", 1000)
    cells = [(narrow, 30.0), (flat, 500.0), (zipf, 45.0), (wide, 30.0),
             (mixture, 2000.0), (narrow, 90.0), (geometric, 150.0),
             (wide, 90.0), (flat, 4000.0)]
    trials = 2 * BLOCK + 5
    laws = []
    cdf = bench._chunk_cdf
    monkeypatch.setattr(bench, "_chunk_cdf",
                        lambda P, *args: laws.append(P) or cdf(P, *args))
    drawn = _draw_cells(cells, trials, 6)
    # one call per law for each chunk that law reaches, in order of first
    # appearance; narrow and wide are equal in probs, so compare ids
    order = [narrow, zipf, wide, geometric]
    expected = [P for lo in range(0, len(geometric), bench._SYMBOL_CHUNK)
                for P in order if len(P) > lo]
    assert [id(P) for P in laws] == [id(P) for P in expected]
    monkeypatch.setattr(bench, "_chunk_cdf", cdf)
    for (P, n), occupancy in zip(cells, drawn):
        assert occupancy.shape == (trials, occupancy_width(P.k))
        np.testing.assert_array_equal(occupancy, draw_cell(P, n, trials, 6))


@pytest.mark.parametrize("chunk", [None, 7])
def test_two_laws_of_equal_support_draw_alone(chunk, monkeypatch):
    # each law batches the cdfs of its cells; two laws of equal support and
    # width alternate in the cells, with a partial last block, each law
    # takes one _chunk_cdf call per chunk, and every cell equals the cell
    # drawn alone, also beside two laws of the same support and width that
    # are drawn run by run and take no _chunk_cdf call
    if chunk is not None:
        monkeypatch.setattr(bench, "_SYMBOL_CHUNK", chunk)
    masses = 0.97 ** np.arange(60)
    flat = DiscreteDistribution(masses / masses.sum(), k=60, strict=False)
    runs = np.repeat([1.0, 2.0, 3.0], [20, 25, 15])
    stepped = DiscreteDistribution(runs / runs.sum(), k=60, strict=False)
    assert len(flat) == len(stepped) == 60
    assert occupancy_width(flat.k) == occupancy_width(stepped.k) == 3
    monkeypatch.setattr(bench, "_RUN_CUTOFF", 30)
    uniform = make_distribution("uniform", 60)
    halves = np.repeat([1.0, 3.0], 30)
    mixture = DiscreteDistribution(halves / halves.sum(), k=60, strict=False)
    cells = [(flat, 30.0), (uniform, 30.0), (stepped, 30.0), (flat, 90.0),
             (mixture, 45.0), (stepped, 45.0), (flat, 240.0),
             (uniform, 240.0), (stepped, 240.0), (mixture, 90.0)]
    trials = 2 * BLOCK + 5
    laws = []
    cdf = bench._chunk_cdf
    monkeypatch.setattr(bench, "_chunk_cdf",
                        lambda P, *args: laws.append(P) or cdf(P, *args))
    drawn = _draw_cells(cells, trials, 6)
    chunks = -(-60 // bench._SYMBOL_CHUNK)
    assert laws == [flat, stepped] * chunks
    monkeypatch.setattr(bench, "_chunk_cdf", cdf)
    for (P, n), occupancy in zip(cells, drawn):
        assert occupancy.shape == (trials, 3)
        np.testing.assert_array_equal(occupancy, draw_cell(P, n, trials, 6))


@pytest.mark.parametrize("k", [60, 1000, 10**4])
def test_draw_cdf_is_pdtr(k):
    # the draw's cdfs are running sums of poisson_pmf; they must stay within
    # 1e-15 of scipy's pdtr, non-decreasing in j and at most 1 + 4 ulp, from
    # n = 5e-324 (every mean 0) to 1e308, through means near 745, where exp
    # underflows
    width = occupancy_width(k)
    ns = np.concatenate([[5e-324, 1e-300, 1e-10, 1.0, 1e308],
                         np.geomspace(1.0, 1e308, 24),
                         k * np.array([700.0, 740.0, 744.5, 745.2, 746.0,
                                       750.0, 800.0])])
    j = np.arange(width)[None, :, None]
    for family in FAMILIES:
        P = make_distribution(family, k)
        lengths = P.levels[1]
        ends = None if lengths is None else np.cumsum(lengths)
        F = bench._chunk_cdf(P, ns, ends, width, 0, len(P))
        assert F.shape == (len(ns) * width, len(P))
        F = F.reshape(len(ns), width, len(P))
        exact = special.pdtr(j, np.multiply.outer(ns, P.probs)[:, None, :])
        np.testing.assert_allclose(F, exact, rtol=0, atol=1e-15)
        assert (np.diff(F, axis=1) >= 0).all()
        assert F.max() <= 1 + 4 * np.spacing(1.0)


def test_squared_error_identity():
    # (S(P) - S_hat)^2 equals (phi_0 - U_hat)^2 for composed estimators
    P = make_distribution("geometric", 80)
    for t in range(20):
        fp = fingerprint(sample(P, 120.0, seed=[5, t]), P)
        s_hat = support_estimate(fp, "modified_chao").value
        row = [[fp.phi.get(i, 0) for i in range(3)]]
        u_hat = unseen_estimates(row, [sum(fp.phi.values())], "modified_chao")[0]
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
    with pytest.raises(UndefinedEstimateError, match=(
            "^chao is undefined on every trial of uniform at k=50, n=1e-06$")):
        monte_carlo_mse(P, 1e-6, "chao", trials=20, master_seed=0)


def test_workers_must_be_positive(tmp_path):
    cfg = SweepConfig(families=("uniform",), k=20, n_grid=(30.0,),
                      estimators=("plugin",), trials=5,
                      output_path=str(tmp_path / "sweep.csv"))
    for workers in (0, -3):
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
                                      cfg.master_seed)
    chao = [r for r in rows if r.estimator_id == "chao"]
    assert any(0 < r.undefined_count < cfg.trials for r in chao)


def test_sweep_draws_once_and_scores_once(tmp_path, monkeypatch):
    # one draw and one _score call for the whole sweep, whatever the number
    # of cells and estimators; monte_carlo_mse is one of each
    calls = {"_draw_cells": 0, "_score": 0}
    for name in calls:
        def counted(*args, _name=name, _inner=getattr(bench, name)):
            calls[_name] += 1
            return _inner(*args)
        monkeypatch.setattr(bench, name, counted)
    cfg = SweepConfig(families=("uniform", "zipf"), k=60, n_grid=(30.0, 90.0),
                      estimators=DEFAULT_ESTIMATORS, trials=20,
                      output_path=str(tmp_path / "sweep.csv"))
    assert len(run_sweep(cfg)) == 2 * 2 * 3
    assert calls == {"_draw_cells": 1, "_score": 1}
    calls.update(_draw_cells=0, _score=0)
    monte_carlo_mse(make_distribution("zipf", 60), 30.0, "plugin", 20, 0)
    assert calls == {"_draw_cells": 1, "_score": 1}


def test_monte_carlo_checks_the_estimator_before_drawing(monkeypatch):
    def refused(*args):
        raise AssertionError("drew the trials of an unknown estimator")
    monkeypatch.setattr(bench, "_draw_cells", refused)
    with pytest.raises(ValueError, match="^unknown unseen estimator 'nope'$"):
        monte_carlo_mse(make_distribution("uniform", 60), 30.0, "nope",
                        10**5, 0)


@pytest.mark.parametrize("k, chunk", [(1000, None), (60, 7)])
def test_sweep_rows_equal_one_cell_rows(k, chunk, tmp_path, monkeypatch):
    # a sweep draws each block's uniforms once, up to its largest support,
    # and a cell with S symbols counts against the first S * BLOCK of them;
    # with supports of four sizes, some ending mid-chunk, and a partial last
    # block, every row must equal the row of its cell drawn alone
    if chunk is not None:
        monkeypatch.setattr(bench, "_SYMBOL_CHUNK", chunk)
    cfg = SweepConfig(k=k, n_grid=(k / 4, 3.0 * k), trials=2 * BLOCK + 37,
                      master_seed=9, output_path=str(tmp_path / "sweep.csv"))
    dists = {family: make_distribution(family, k) for family in cfg.families}
    sizes = {len(P) for P in dists.values()}
    assert len(sizes) == 4
    assert any(size % bench._SYMBOL_CHUNK for size in sizes)
    rows = run_sweep(cfg)
    assert len(rows) == 4 * 2 * len(cfg.estimators)
    for row in rows:
        assert row == monte_carlo_mse(dists[row.family], row.n,
                                      row.estimator_id, cfg.trials,
                                      cfg.master_seed)


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
        "64b93ce49c3a9ca88934e36997164269a10c224b075d16e6d67daa5b8d1786f7")
    # k = 60 gives the Chebyshev degree L = 1, a one-term sum that never
    # rounds; at k = 1000, L = 3, so this pin also sees how the kernel sums
    run_sweep(SweepConfig(k=1000, n_grid=(2000.0,), estimators=ESTIMATOR_IDS,
                          trials=64, master_seed=0, output_path=str(out)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "01ea9daa7443f88dbdd19ec23896b0c9db606c73b028cbf331cd3fc908b1cd6c")


@pytest.mark.skipif(np.__version__.split(".")[:2] != ["2", "4"],
                    reason="CSV hashes were recorded with numpy 2.4")
def test_default_grid_csv_bytes_are_pinned(tmp_path):
    # the whole default grid (4 families x 8 n x 3 estimators at k = 1000),
    # with a partial last block, so every law, mean and width the sweep
    # command draws is pinned
    out = tmp_path / "sweep.csv"
    run_sweep(SweepConfig(trials=2 * BLOCK + 5, master_seed=3,
                          output_path=str(out)))
    assert hashlib.sha256(out.read_bytes()).hexdigest() == (
        "09dd04bcc666773bcf1c491a5b59d25ebe2990cc95ac57e4a0464e728702882b")


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


def test_sweep_rows_do_not_depend_on_a_repeated_family(tmp_path):
    # a repeated family is one shared law, whose cells are drawn as one
    # group: each copy's rows are byte-identical to the family's rows alone
    def rows(families):
        cfg = SweepConfig(families=families, k=1000, n_grid=(500.0, 2000.0),
                          trials=130, output_path=str(tmp_path / "s.csv"))
        return [repr(row) for row in run_sweep(cfg)]

    families = ("zipf", "uniform", "zipf", "two_mixture", "uniform")
    assert make_distribution("zipf", 1000) is make_distribution("zipf", 1000)
    alone = {family: rows((family,)) for family in set(families)}
    assert rows(families) == [row for family in families
                              for row in alone[family]]


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
    with pytest.raises(ValueError, match="unknown families"):
        SweepConfig(families=("bogus",))


def test_load_config(tmp_path):
    cfg_path = tmp_path / "sweep.cfg"
    cfg_path.write_text(
        "# desk-scale check\n"
        "families = uniform, zipf\n"
        "k = 200\n"
        "n_grid = 100, 200.5\n"
        "estimators = plugin\n"
        "trials = 10\n"
        "master_seed = 7  # after whitespace, a comment\n"
        "output_path = runs/out#1.csv\n"
    )
    cfg = load_config(cfg_path)
    assert cfg.families == ("uniform", "zipf")
    assert cfg.k == 200 and cfg.trials == 10 and cfg.master_seed == 7
    assert cfg.n_grid == (100.0, 200.5)
    # a "#" inside a value is kept
    assert cfg.output_path == "runs/out#1.csv"


def test_load_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("k: 100\n")
    with pytest.raises(ValueError):
        load_config(bad)
    bad.write_text("horizon = 5\n")
    with pytest.raises(ValueError):
        load_config(bad)
    # a repeated key is refused, never silently won by its last value
    bad.write_text("k = 60\ntrials = 5\nk = 80\n")
    with pytest.raises(ValueError, match=r"bad\.cfg:3: duplicate key 'k'"):
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
    # a count is tallied as an int64 multiplicity, as a sample's is
    fp = ingest_counts(counts_csv(tmp_path, [("a", 2**63 - 1)]))
    assert fp.phi == {2**63 - 1: 1}
    # a blank line inside the file is skipped
    path = tmp_path / "blank.csv"
    path.write_text("symbol,count\na,1\n\nb,2\n")
    assert ingest_counts(path).phi == {1: 1, 2: 1}
    # a spreadsheet export: UTF-8 with a byte-order mark before the header
    path = tmp_path / "bom.csv"
    path.write_bytes("\ufeffsymbol,count\nä,1\nb,2\n".encode())
    assert ingest_counts(path).phi == {1: 1, 2: 1}
    # blank lines, CRLF or CR line ends and a field within csv's limit in
    # characters but past it in UTF-8 bytes take the per-row parse, which
    # reads them
    limit = csv.field_size_limit()
    for text, phi in [("symbol,count\n\na,1\n\n\n b ,2", {1: 1, 2: 1}),
                      ("symbol,count\r\na,1\r\n\r\nb,2\r\n", {1: 1, 2: 1}),
                      ("symbol,count\ra,1\r\rb,2", {1: 1, 2: 1}),
                      (f"symbol,count\n{'ä' * limit},1\n", {1: 1})]:
        assert bench._parse_counts(text) is None
        path.write_bytes(text.encode())
        assert ingest_counts(path).phi == phi
    assert bench._parse_counts(f"symbol,count\n{'ä' * (limit + 1)},1\n") is None


def test_ingest_counts_errors(tmp_path):
    with pytest.raises(ValueError):
        ingest_counts(counts_csv(tmp_path, [("a", 1), ("a", 2)]))
    with pytest.raises(ValueError):
        ingest_counts(counts_csv(tmp_path, [("a", -1)]))
    with pytest.raises(ValueError):
        ingest_counts(counts_csv(tmp_path, [("a", "x")]))
    with pytest.raises(ValueError, match=r":3: count 9223372036854775808 "):
        ingest_counts(counts_csv(tmp_path, [("a", 1), ("b", 2**63)]))
    bad = tmp_path / "bad.csv"
    bad.write_text("sym,cnt\na,1\n")
    with pytest.raises(ValueError):
        ingest_counts(bad)
    # errors name the physical line, past a quoted symbol spanning two
    bad.write_text('symbol,count\n"a\nb",1\nc,x\n')
    with pytest.raises(ValueError, match=r":4: count 'x' is not an integer"):
        ingest_counts(bad)
    # a byte that is not UTF-8 is named by its line in the file, after a
    # byte-order mark and far into the file too
    bad.write_bytes(b"\xef\xbb\xbfsymbol,count\r\ncaf\xe9,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:2: not valid UTF-8 "):
        ingest_counts(bad)
    bad.write_bytes(b"symbol,count\n" + b"abc,1\n" * 5000 + b"caf\xe9,1\n")
    with pytest.raises(ValueError, match=r"bad\.csv:5002: not valid UTF-8 "):
        ingest_counts(bad)


@pytest.mark.parametrize("text, value", [
    ("symbol,count\n{long},1\n", "a"),
    ("symbol,count\na,1\nb,{long}\n", "7"),
    ("symbol,{long}\na,1\n", "count"),
    ('symbol,count\n"{long}",1\n', "a"),
], ids=["symbol", "count", "header", "quoted"])
def test_ingest_counts_field_limit(tmp_path, text, value):
    # a field past csv.field_size_limit() is refused on its own line,
    # whichever parse the file takes; a field at the limit is read
    limit = csv.field_size_limit()
    lineno = text[:text.index("{long}")].count("\n") + 1
    path = tmp_path / "counts.csv"
    path.write_text(text.format(long=value.rjust(limit + 1)))
    with pytest.raises(ValueError,
                       match=rf":{lineno}: field larger than field limit"):
        ingest_counts(path)
    path.write_text(text.format(long=value.rjust(limit)))
    assert sum(ingest_counts(path).phi.values()) == text.count("\n") - 1


_EDITS = ("pad", "quote", "quoted comma", "quoted newline", "blank line",
          "1 field", "3 fields", "duplicate", "count", "header",
          "long field", "control")


@st.composite
def counts_texts(draw):
    """Counts-file texts: a plain file with up to three edits, each of which
    may send it to the per-row parse or make it an error."""
    header = ["symbol", "count"]
    rows = [[f"s{j}", str(c)]
            for j, c in enumerate(draw(st.lists(st.integers(0, 40),
                                                max_size=6)))]
    for edit in draw(st.lists(st.sampled_from(_EDITS), max_size=3)):
        if not rows:
            rows.append(["t", "1"])
        row = draw(st.sampled_from(rows))
        if edit == "pad":
            j = draw(st.integers(0, max(len(row) - 1, 0)))
            row[j:j + 1] = [f" {field}\t" for field in row[j:j + 1]]
        elif edit == "quote":
            row[:1] = [f'"{field}"' for field in row[:1]]
        elif edit == "quoted comma":
            row[:1] = [f'"{field},x"' for field in row[:1]]
        elif edit == "quoted newline":
            row[:1] = [f'"{field}\nx"' for field in row[:1]]
        elif edit == "blank line":
            rows.insert(draw(st.integers(0, len(rows))), [])
        elif edit == "1 field":
            del row[1:]
        elif edit == "3 fields":
            row.append(draw(st.sampled_from(["1", "x"])))
        elif edit == "duplicate":
            form = draw(st.sampled_from(["{}", " {}", '"{}"']))
            row[:1] = [form.format(rows[0][0])] if rows[0] else []
        elif edit == "count":
            row[1:] = [draw(st.sampled_from(
                ["x", "", "1.5", "-1", str(2**63), " 7 ", "1_0",
                 str(2**63 - 1)]))]
        elif edit == "header":
            header = draw(st.sampled_from(
                [[" Symbol ", "COUNT"], ["symbol"], ["sym", "cnt"], []]))
        elif edit == "long field":
            row[:1] = [field.rjust(draw(st.sampled_from([8, 9])),
                                   draw(st.sampled_from(" ä")))
                       for field in row[:1]]
        else:  # a CR or NUL inside a line
            row[:1] = [field + draw(st.sampled_from(["\r", "\0"]))
                       for field in row[:1]]
    eol = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
    lines = [",".join(header)] + [",".join(row) for row in rows]
    return eol.join(lines) + eol * draw(st.booleans())


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture],
          max_examples=300, deadline=None)
@given(counts_texts(), st.sampled_from([None, 8]), st.booleans())
@example("symbol,count\na,1\na,2\n", None, False)
@example("symbol,count\na,1\n a,2\n", None, False)
@example('symbol,count\na,1\n"a",2\n', None, False)
@example("symbol,count\na\r,1\n", None, False)
@example("symbol,count\na,1,2\n7\n", None, False)
@example("symbol,count\na,-1\n", None, False)
@example(f"symbol,count\na,{2**63}\n", None, False)
@example("symbol,count\n  abcdefg,1\n", 8, False)
def test_split_and_per_row_parses_agree(tmp_path, text, limit, bom):
    # ingest_counts gives what the per-row parse gives on every text: the
    # same fingerprint or the same error; and the column split accepts only
    # what the per-row parse accepts, with the same counts in the same order
    path = tmp_path / "counts.csv"
    path.write_bytes(("\ufeff" * bom + text).encode())
    old_limit = csv.field_size_limit()
    try:
        if limit:
            csv.field_size_limit(limit)

        def outcome(read):
            try:
                return read()
            except ValueError as exc:
                return str(exc)

        assert outcome(lambda: ingest_counts(path)) == outcome(
            lambda: fingerprint(MultiplicitySample(
                bench._read_counts(path, io.StringIO(text, newline="")))))
        split = bench._parse_counts(text)
        if split is not None:
            assert split.tolist() == bench._read_counts(
                path, io.StringIO(text, newline=""))
    finally:
        csv.field_size_limit(old_limit)


def _per_row_outcome(path, text):
    """The fingerprint of the per-row parse of text, or its error text."""
    try:
        return fingerprint(MultiplicitySample(
            bench._read_counts(path, io.StringIO(text, newline=""))))
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("rows", [3, 100_000])
@pytest.mark.parametrize("symbol", ["x{}", "s{:07d}"],
                         ids=["short symbols", "8-byte symbols"])
def test_plain_files_take_the_column_parse(tmp_path, monkeypatch, rows,
                                           symbol):
    # files like the benchmark's, with counts of 1 to 18 digits, never reach
    # the per-row reader, and read as it reads them
    rng = np.random.default_rng(rows)
    counts = rng.poisson(2.0, rows)
    counts[-3:] = [0, 10**18 - 1, 12345]
    text = "symbol,count\n" + "".join(
        f"{symbol.format(j)},{c}\n" for j, c in enumerate(counts.tolist()))
    path = tmp_path / "counts.csv"
    path.write_text(text)
    expected = _per_row_outcome(path, text)

    def per_row(*args):
        raise AssertionError("handed to the per-row reader")

    monkeypatch.setattr(bench, "_read_counts", per_row)
    assert ingest_counts(path) == expected == fingerprint(
        MultiplicitySample(counts))


@pytest.mark.parametrize("rows", [
    "a, 7 \nb,2\n", "a,1_0\nb,2\n", "a,+5\nb,2\n", "a,٣\nb,2\n",
    f"a,{10**18}\nb,2\n", f"a,{2**63}\nb,2\n", "a,1\nb,-1\n",
    " a,1\nb,2\n", "a\t,1\nb,2\n", "ä,1\nb,2\n", "aä,1\nb,2\n",
    "a\u00a0,1\na,2\n", "a,1\n a,2\n", "long-symbol,1\nlong-symbol,2\n",
    "species1,1\nspecies1,2\n", "species-1,1\nb,2\n",
    "aaaaaaaa02aabaaa,1\nbaaaaaaa}0aab`aa,2\n",
    f"{'y' * 1025},1\nb,2\n",
], ids=["padded count", "count with _", "signed count", "non-ASCII digit",
        "19 digits", "19 digits past int64", "negative count",
        "leading space", "trailing tab", "leading non-ASCII",
        "trailing non-ASCII", "non-ASCII space, duplicate",
        "duplicate after strip", "long duplicate", "8-byte duplicate",
        "9-byte symbol", "two distinct 16-byte symbols",
        "symbol over 1024 bytes"])
def test_hand_over_cases_match_the_per_row_parse(tmp_path, rows):
    # each text the column parse leaves alone gets the per-row parse's
    # fingerprint or error
    text = "symbol,count\n" + rows
    path = tmp_path / "counts.csv"
    path.write_bytes(text.encode())
    assert bench._parse_counts(text) is None
    try:
        got = ingest_counts(path)
    except ValueError as exc:
        got = str(exc)
    assert got == _per_row_outcome(path, text)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.integers(0, 50), min_size=2, max_size=40))
def test_counts_csv_round_trip_matches_fingerprint(tmp_path, counts):
    # the file is rewritten by every example
    path = counts_csv(tmp_path, [(f"x{j}", c) for j, c in enumerate(counts)])
    multiplicities = MultiplicitySample(np.array(counts))
    assert ingest_counts(path).phi == fingerprint(multiplicities).phi
    fp = fingerprint(multiplicities, make_distribution("uniform", len(counts)))
    assert fp.phi0 + sum(fp.phi.values()) == len(counts)


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
