"""The benchmark's three workloads.

Each workload builds its inputs from the workload seed in ``__init__`` (the
part of set-up after ``import supportsize``) and then serves closed-loop
operations: ``run(i)`` is the timed call into the library and ``check(i,
result)`` is the untimed correctness check, which returns the work the
operation completed and a list of failure messages.

Calls go through module attributes (``bench.run_sweep``, never a name
imported into this file), so that a traced run sees them.
"""

from __future__ import annotations

import math
from dataclasses import replace
from pathlib import Path

import numpy as np

from supportsize import bench, bounds, distributions, oracle, poisson_model

#: Plug-in rows are checked against the exact MSE within this many exact
#: standard errors of the Monte Carlo mean. With 32 rows per sweep, 4 gave a
#: simulated false alarm of 0.2-0.8 % per sweep seed (the squared error is
#: skewed); 6 keeps it far below one in a thousand runs.
PLUGIN_Z_LIMIT = 6.0
#: Rows whose expected number of trials with a nonzero error is below this
#: are too skewed for a normal-theory check and are left out of it.
PLUGIN_MIN_NONZERO = 50.0


def plugin_error_moments(P, n: float) -> tuple[float, float, float]:
    """(E[phi0^2], sd of phi0^2, P(phi0 > 0)) for the plug-in error phi0.

    phi0 is a sum of independent Bernoulli(exp(-n p_x)) indicators, so its
    raw moments follow from the summed Bernoulli cumulants.
    """
    z = np.exp(-n * np.asarray(P.probs))
    k1 = math.fsum(z)
    k2 = math.fsum(z * (1 - z))
    k3 = math.fsum(z * (1 - z) * (1 - 2 * z))
    k4 = math.fsum(z * (1 - z) * (1 - 6 * z + 6 * z * z))
    m2 = k2 + k1 * k1
    m4 = k4 + 4 * k3 * k1 + 3 * k2 * k2 + 6 * k2 * k1 * k1 + k1**4
    p_nonzero = -math.expm1(math.fsum(np.log1p(-z)))
    return m2, math.sqrt(max(m4 - m2 * m2, 0.0)), p_nonzero


class McSweep:
    """``bench.run_sweep`` on the CLI's default grid at ``workers=1``.

    Every operation repeats the same sweep (master seed = workload seed), so
    the CSV bytes must repeat exactly and the statistical plug-in check runs
    on one sample per workload seed, not one per operation.
    """

    name = "mc_sweep"
    work_unit = "estimator-trials"
    TRIALS = 100
    PROBE_TRIALS = 20

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        base = bench.SweepConfig()
        if smoke:
            base = replace(base, n_grid=base.n_grid[::4], trials=10)
        else:
            base = replace(base, trials=self.TRIALS)
        self.workdir = workdir
        self.cfg = replace(base, master_seed=seed,
                           output_path=str(workdir / "sweep-w1.csv"))
        self.dists = {f: distributions.make_distribution(f, self.cfg.k)
                      for f in self.cfg.families}
        self.exact = {
            (f, n): (poisson_model.exact_plugin_mse(P, n),
                     plugin_error_moments(P, n))
            for f, P in self.dists.items() for n in self.cfg.n_grid
        }
        self.reference_csv: bytes | None = None

    def run(self, i: int):
        return bench.run_sweep(self.cfg, workers=1)

    def check(self, i: int, rows) -> tuple[int, list[str]]:
        cfg = self.cfg
        failures = []
        expected = len(cfg.families) * len(cfg.n_grid) * len(cfg.estimators)
        if len(rows) != expected:
            failures.append(f"{len(rows)} rows, expected {expected}")
        for r in rows:
            cell = f"{r.family} n={r.n:g} {r.estimator_id}"
            if r.trials != cfg.trials:
                failures.append(f"{cell}: {r.trials} trials")
            if not (math.isfinite(r.mse) and r.mse >= 0):
                failures.append(f"{cell}: mse {r.mse}")
            if r.estimator_id != "plugin":
                continue
            exact, (m2, sd, p_nonzero) = self.exact[(r.family, r.n)]
            if r.trials * p_nonzero < PLUGIN_MIN_NONZERO:
                continue
            z = abs(r.mse - exact) / (sd / math.sqrt(r.trials))
            if abs(m2 - exact) > 1e-9 * max(exact, 1.0) or z > PLUGIN_Z_LIMIT:
                failures.append(
                    f"{cell}: mse {r.mse:.6g} vs exact {exact:.6g} (z={z:.2f})"
                )
        csv_bytes = Path(cfg.output_path).read_bytes()
        if self.reference_csv is None:
            self.reference_csv = csv_bytes
        elif csv_bytes != self.reference_csv:
            failures.append("sweep CSV differs from the first run's bytes")
        return sum(r.trials for r in rows), failures

    def parallel_csv(self, workers: int) -> bytes:
        """Run the same sweep at ``workers`` and return its CSV bytes."""
        cfg = replace(self.cfg,
                      output_path=str(self.workdir / f"sweep-w{workers}.csv"))
        bench.run_sweep(cfg, workers=workers)
        return Path(cfg.output_path).read_bytes()

    def probe(self) -> list[str]:
        """Single-trial public API on every sweep cell: sample, fingerprint."""
        failures = []
        for family, P in self.dists.items():
            for n in self.cfg.n_grid:
                for t in range(self.PROBE_TRIALS):
                    s = poisson_model.sample(P, n, [self.cfg.master_seed, t])
                    fp = poisson_model.fingerprint(s, P)
                    if fp.phi0 + sum(fp.phi.values()) != len(P.probs):
                        failures.append(f"probe {family} n={n:g}: bad fingerprint")
        return failures


class Certify:
    """``oracle.certification_campaign`` at the ``supportsize verify`` ratios.

    Operation ``i`` runs a campaign seeded by (workload seed, i), so a run
    certifies many distinct random instances.
    """

    name = "certify"
    work_unit = "certificates"
    SIZE = 10

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        self.seed = seed
        self.size = 2 if smoke else self.SIZE

    def campaign_seed(self, i: int) -> int:
        return self.seed * 1_000_000 + i

    def run(self, i: int):
        s = self.size
        return oracle.certification_campaign(
            seed=self.campaign_seed(i), decoupling=s, charpoly_cases=2 * s,
            moment=s, degree2=s, conditional=s, regression=s,
        )

    def check(self, i: int, certs) -> tuple[int, list[str]]:
        s = self.size
        # 3 decoupling checks, 2 per charpoly case, 4 single checks, and the
        # 16 Cauchy-Schwarz checks over the zoo.
        expected = 3 * s + 2 * (2 * s) + s + s + s + s + 16
        failures = [
            f"campaign {self.campaign_seed(i)}: {c.name} falsified {c.detail}"
            for c in certs if c.falsified
        ]
        if len(certs) != expected:
            failures.append(f"{len(certs)} certificates, expected {expected}")
        return len(certs), failures


class AnalyzeCounts:
    """Requests on a seeded mix of ``symbol,count`` CSVs.

    Set-up draws one file per (family, k, n/k) from the zoo. Each request
    estimates the support from one file with all four estimators, rebuilds
    the zoo distribution, and evaluates the bound report and the exact
    plug-in MSE at that (n, k).
    """

    name = "analyze_counts"
    work_unit = "requests"
    KS = (10**3, 10**4, 10**5)
    RATIOS = (0.5, 1.0, 2.0, 4.0)
    ESTIMATORS = ("plugin", "chao", "modified_chao", "chebyshev")
    SCHEDULE = 100_000

    def __init__(self, seed: int, workdir: Path, smoke: bool = False):
        ks = (100, 1000) if smoke else self.KS
        rng = np.random.default_rng([seed, 0])
        self.files = []
        for family in distributions.FAMILIES:
            for k in ks:
                P = distributions.make_distribution(family, k)
                for ratio in self.RATIOS:
                    n = ratio * k
                    counts = rng.poisson(n * P.probs)
                    path = workdir / f"{family}-k{k}-r{ratio:g}.csv"
                    seen = np.flatnonzero(counts)
                    lines = [f"x{j},{counts[j]}" for j in seen.tolist()]
                    path.write_text("symbol,count\n" + "\n".join(lines) + "\n")
                    occupancy = np.bincount(counts, minlength=3)
                    self.files.append({
                        "path": str(path), "family": family, "k": k, "n": n,
                        "seen": int(len(seen)), "phi1": int(occupancy[1]),
                        "phi2": int(occupancy[2]),
                    })
        # Whole shuffled passes over the files keep every run's request mix
        # the same; only the order varies with the seed. Timed runs end on a
        # pass boundary.
        shuffle = np.random.default_rng([seed, 1])
        self.order = [j for _ in range(self.SCHEDULE // len(self.files) + 1)
                      for j in shuffle.permutation(len(self.files)).tolist()]
        self.ops_per_pass = len(self.files)

    def run(self, i: int):
        # Timed operations are numbered from 1, so they start a pass.
        spec = self.files[self.order[(i - 1) % len(self.order)]]
        k, n = spec["k"], spec["n"]
        estimates = bench.estimate_from_counts(spec["path"], self.ESTIMATORS,
                                               k=k, n=n)
        P = distributions.make_distribution(spec["family"], k)
        report = bounds.bound_report(n, k, P)
        mse = poisson_model.exact_plugin_mse(P, n)
        return spec, estimates, report, mse

    def check(self, i: int, result) -> tuple[int, list[str]]:
        spec, est, report, mse = result
        seen, phi1, phi2 = spec["seen"], spec["phi1"], spec["phi2"]
        name = Path(spec["path"]).name
        failures = []

        def close(value, expected):
            return abs(value - expected) <= 1e-12 * max(1.0, abs(expected))

        if not close(est["plugin"].value, seen):
            failures.append(f"{name}: plugin {est['plugin'].value} != {seen}")
        if phi2 == 0:
            if est["chao"] is not None:
                failures.append(f"{name}: chao defined with phi2 = 0")
        elif est["chao"] is None or not close(
                est["chao"].value, seen + phi1 * phi1 / (2.0 * phi2)):
            failures.append(f"{name}: chao {est['chao']}")
        if not close(est["modified_chao"].value,
                     seen + phi1 * phi1 / (2.0 * (phi2 + 1))):
            failures.append(f"{name}: modified_chao {est['modified_chao'].value}")
        cheb = est["chebyshev"].value
        if not (math.isfinite(cheb) and cheb >= 0):
            failures.append(f"{name}: chebyshev {cheb}")
        if not (math.isfinite(mse) and 0 <= mse <= report.plugin_upper * (1 + 1e-12)):
            failures.append(f"{name}: exact plug-in MSE {mse} outside "
                            f"[0, {report.plugin_upper}]")
        return 1, failures


WORKLOADS = {w.name: w for w in (McSweep, Certify, AnalyzeCounts)}
