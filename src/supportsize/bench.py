"""Monte Carlo MSE harness, sweep configuration, and empirical-data paths.

Every trial derives its randomness solely from (master_seed, trial_index),
so every estimator scored on a (distribution, n) cell sees the same counts.
A sweep therefore draws each cell once, as a truncated occupancy matrix,
and scores every configured estimator on it with
estimators.unseen_estimates. Trials run serially; the workers argument is
accepted for compatibility and changes neither results nor run time.
Undefined Chao trials (phi_2 = 0) are excluded from the mean and reported
in undefined_count, never imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import DiscreteDistribution, make_distribution, support_size
from .estimators import (
    DEFAULT_C0,
    DEFAULT_C1,
    ESTIMATOR_IDS,
    EstimatorOutput,
    UndefinedEstimateError,
    occupancy_width,
    support_estimate,
    unseen_estimates,
)
from .poisson_model import Fingerprint

DEFAULT_FAMILIES = ("uniform", "zipf", "geometric", "two_mixture")
DEFAULT_ESTIMATORS = ("plugin", "modified_chao", "chebyshev")


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = DEFAULT_FAMILIES
    k: int = 1000
    n_grid: tuple[float, ...] = field(
        default_factory=lambda: tuple(
            float(round(v)) for v in np.geomspace(250, 8000, 8)
        )
    )
    estimators: tuple[str, ...] = DEFAULT_ESTIMATORS
    trials: int = 2000
    master_seed: int = 0
    output_path: str = "sweep.csv"

    def __post_init__(self):
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if not self.n_grid:
            raise ValueError("n_grid must be nonempty")
        if not all(math.isfinite(n) and n > 0 for n in self.n_grid):
            raise ValueError(
                f"n_grid values must be finite and > 0, got {self.n_grid}"
            )
        if self.k < 2:
            raise ValueError("k must be >= 2")
        unknown = set(self.estimators) - set(ESTIMATOR_IDS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")


@dataclass(frozen=True)
class MseRow:
    family: str
    k: int
    n: float
    estimator_id: str
    mse: float
    stderr: float
    trials: int
    undefined_count: int


CSV_HEADER = ("family", "k", "n", "estimator", "mse", "stderr", "trials",
              "undefined_count")


def _check_workers(workers: int) -> None:
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def _draw_cell(
    P: DiscreteDistribution, n: float, trials: int, master_seed: int,
    width: int,
) -> np.ndarray:
    """(trials x width) occupancy matrix of one (P, n) cell.

    Row t holds phi_0..phi_{width-1} of the Poisson(n p) counts drawn from
    default_rng([master_seed, t]); the counts themselves are not kept.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not (math.isfinite(n) and n > 0):
        raise ValueError(f"n must be finite and > 0, got {n}")
    means = n * P.probs
    occupancy = np.empty((trials, width), dtype=np.int64)
    for t in range(trials):
        counts = np.random.default_rng([master_seed, t]).poisson(means)
        occupancy[t] = np.bincount(counts, minlength=width)[:width]
    return occupancy


def _score(
    P: DiscreteDistribution,
    n: float,
    estimator_id: str,
    occupancy: np.ndarray,
    family: str | None,
    c0: float,
    c1: float,
) -> MseRow:
    """MSE row of one estimator on a drawn cell; NaN errors are undefined.

    The per-trial squared error is measured against the latent phi_0, which
    equals the support-estimation error for plug-in style estimators.
    """
    phi0 = occupancy[:, 0]
    unseen = unseen_estimates(occupancy, support_size(P) - phi0, estimator_id,
                              k=P.k, n=n, c0=c0, c1=c1)
    err = phi0 - unseen
    errors = err * err
    defined = errors[~np.isnan(errors)]
    trials = len(errors)
    if len(defined) == 0:
        raise UndefinedEstimateError("estimator undefined on every trial")
    mse = float(np.mean(defined))
    stderr = (
        float(np.std(defined, ddof=1) / math.sqrt(len(defined)))
        if len(defined) > 1
        else 0.0
    )
    return MseRow(
        family=family or (P.family or "custom"),
        k=P.k,
        n=n,
        estimator_id=estimator_id,
        mse=mse,
        stderr=stderr,
        trials=trials,
        undefined_count=trials - len(defined),
    )


def monte_carlo_mse(
    P: DiscreteDistribution,
    n: float,
    estimator_id: str,
    trials: int,
    master_seed: int,
    family: str | None = None,
    workers: int = 1,
    c0: float = DEFAULT_C0,
    c1: float = DEFAULT_C1,
) -> MseRow:
    """Monte Carlo estimate of the MSE of a support estimator under P.

    Trial t draws from default_rng([master_seed, t]), so the row equals the
    matching run_sweep row, which scores every estimator on one shared draw
    of the cell. workers (>= 1) changes neither the result nor the run time.
    """
    _check_workers(workers)
    occupancy = _draw_cell(P, n, trials, master_seed, occupancy_width(P.k, c0))
    return _score(P, n, estimator_id, occupancy, family, c0, c1)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[MseRow]:
    """Cartesian product of families x n_grid x estimators; writes CSV.

    Each (family, n) cell is drawn once and scored by every estimator.
    Output is deterministic (byte-identical) for a given config regardless
    of worker count.
    """
    _check_workers(workers)
    rows = []
    for family in cfg.families:
        P = make_distribution(family, cfg.k)
        for n in cfg.n_grid:
            occupancy = _draw_cell(P, n, cfg.trials, cfg.master_seed,
                                   occupancy_width(P.k))
            rows.extend(
                _score(P, n, estimator_id, occupancy, family, DEFAULT_C0,
                       DEFAULT_C1)
                for estimator_id in cfg.estimators
            )
    write_rows(rows, cfg.output_path)
    return rows


def write_rows(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for r in rows:
            writer.writerow([
                r.family, r.k, f"{r.n:.17g}", r.estimator_id,
                f"{r.mse:.17g}", f"{r.stderr:.17g}", r.trials,
                r.undefined_count,
            ])


def load_config(path) -> SweepConfig:
    """Parse a flat key=value config file with SweepConfig field names."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key in ("families", "estimators"):
            values[key] = tuple(v.strip() for v in val.split(",") if v.strip())
        elif key == "n_grid":
            values[key] = tuple(float(v) for v in val.split(",") if v.strip())
        elif key in ("k", "trials", "master_seed"):
            values[key] = int(val)
        elif key == "output_path":
            values[key] = val
        else:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
    return SweepConfig(**values)


def ingest_counts(path) -> Fingerprint:
    """Read a symbol,count CSV into a fingerprint (phi0 unknown)."""
    phi: dict[int, int] = {}
    seen: set[str] = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header] != ["symbol", "count"]:
            raise ValueError(f"{path}: expected header 'symbol,count'")
        for lineno, row in enumerate(reader, 2):
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{lineno}: malformed row {row!r}")
            symbol, count_text = row[0].strip(), row[1].strip()
            if symbol in seen:
                raise ValueError(
                    f"{path}:{lineno}: duplicate symbol {symbol!r} "
                    "(multiplicity is ambiguous)"
                )
            seen.add(symbol)
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(
                    f"{path}:{lineno}: count {count_text!r} is not an integer"
                ) from None
            if count < 0:
                raise ValueError(f"{path}:{lineno}: negative count {count}")
            if count >= 1:
                phi[count] = phi.get(count, 0) + 1
    return Fingerprint(phi=phi)


def estimate_from_counts(
    path,
    estimators=("plugin", "chao", "modified_chao"),
    k: int | None = None,
    n: float | None = None,
) -> dict[str, EstimatorOutput | None]:
    """Estimate support size from an empirical counts CSV.

    Returns one entry per requested estimator; the Chao entry is None when
    phi_2 = 0 (undefined). The chebyshev estimator needs k and n.
    """
    fp = ingest_counts(path)
    report: dict[str, EstimatorOutput | None] = {}
    for estimator_id in estimators:
        try:
            report[estimator_id] = support_estimate(fp, estimator_id, k=k, n=n)
        except UndefinedEstimateError:
            report[estimator_id] = None
    return report
