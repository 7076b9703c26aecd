"""Monte Carlo MSE harness, sweep configuration, and empirical-data paths.

A (distribution, n) cell is drawn once, as a truncated occupancy matrix,
and every configured estimator is scored on it with
estimators.unseen_estimates, so all estimators see the same samples. The
draw samples each symbol's class min(N_x, W) by inverting its truncated
Poisson cdf, in blocks of BLOCK trials: block b takes its uniforms from
default_rng([master_seed, b]), so trial t's row depends only on
(master_seed, t), never on the trial count. Trials run serially; only
run_sweep takes a workers argument, accepted for compatibility, and it
changes neither results nor run time. Undefined Chao trials (phi_2 = 0) are
excluded from the mean and reported in undefined_count, never imputed.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy import special

from .distributions import (FAMILIES, DiscreteDistribution, check_k,
                            make_distribution, support_size)
from .estimators import (
    ESTIMATOR_IDS,
    EstimatorOutput,
    UndefinedEstimateError,
    occupancy_width,
    support_estimate,
    unseen_estimates,
)
from .poisson_model import Fingerprint, MultiplicitySample, check_n, fingerprint

DEFAULT_ESTIMATORS = ("plugin", "modified_chao", "chebyshev")

#: Trials per random block of a cell. Part of the output contract: a new
#: value changes every sweep CSV.
BLOCK = 64
#: Symbols per batch of uniforms. It bounds a block's working memory at about
#: BLOCK * _SYMBOL_CHUNK * (8 + W) bytes for any support size; the uniforms
#: are consumed symbol by symbol, so it changes no draw.
_SYMBOL_CHUNK = 4096


@dataclass(frozen=True)
class SweepConfig:
    families: tuple[str, ...] = FAMILIES
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
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        for key in ("families", "n_grid", "estimators"):
            if not getattr(self, key):
                raise ValueError(f"{key} must be nonempty")
        for n in self.n_grid:
            check_n(n)
        check_k(self.k)
        unknown = set(self.families) - set(FAMILIES)
        if unknown:
            raise ValueError(f"unknown families: {sorted(unknown)}")
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


def _draw_cell(
    P: DiscreteDistribution, n: float, trials: int, master_seed: int,
    width: int,
) -> np.ndarray:
    """(trials x width) occupancy matrix of one (P, n) cell.

    Row t holds phi_0..phi_{width-1} of one Poisson(n p) sample. Only each
    symbol's class min(N_x, width) is drawn: with F[x, j] = P(N_x <= j) and
    U uniform on [0, 1), cnt_j = #{x : U_x < F[x, j]} is phi_0 + ... + phi_j.
    Counts at or above width are lumped together; they enter the estimators
    only through seen = support - phi_0. The law is exact up to the float
    rounding of F.

    Trial t is row t mod BLOCK of block t // BLOCK, whose uniforms come from
    default_rng([master_seed, t // BLOCK]), BLOCK per symbol in symbol order.
    Whole blocks are always drawn, so the rows for a trial count are the
    leading rows for any larger one.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    check_n(n)
    cdf = special.pdtr(np.arange(width), n * P.probs[:, None])
    blocks = -(-trials // BLOCK)
    cum = np.zeros((blocks, width, BLOCK), dtype=np.int64)
    for b in range(blocks):
        rng = np.random.default_rng([master_seed, b])
        for lo in range(0, len(cdf), _SYMBOL_CHUNK):
            chunk = cdf[lo : lo + _SYMBOL_CHUNK, :, None]
            u = rng.random((len(chunk), 1, BLOCK))
            cum[b] += np.count_nonzero(u < chunk, axis=0)
    cum = cum.transpose(0, 2, 1).reshape(-1, width)[:trials]
    return np.diff(cum, axis=1, prepend=0)


def _score(
    P: DiscreteDistribution, n: float, estimator_id: str, occupancy: np.ndarray
) -> MseRow:
    """MSE row of one estimator on a drawn cell; NaN errors are undefined.

    The per-trial squared error is measured against the latent phi_0, which
    equals the support-estimation error for plug-in style estimators.
    """
    phi0 = occupancy[:, 0]
    unseen = unseen_estimates(occupancy, support_size(P) - phi0, estimator_id,
                              k=P.k, n=n)
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
        family=P.family or "custom",
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
) -> MseRow:
    """Monte Carlo estimate of the MSE of a support estimator under P.

    The cell is drawn as in run_sweep (see _draw_cell), so the row equals
    the matching run_sweep row, which scores every estimator on one shared
    draw of the cell.
    """
    if master_seed < 0:
        raise ValueError(f"master_seed must be >= 0, got {master_seed}")
    occupancy = _draw_cell(P, n, trials, master_seed, occupancy_width(P.k))
    return _score(P, n, estimator_id, occupancy)


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[MseRow]:
    """Cartesian product of families x n_grid x estimators; writes CSV.

    Each (family, n) cell is drawn once and scored by every estimator.
    Output is deterministic (byte-identical) for a given config regardless
    of worker count; workers (>= 1) changes neither the result nor the run
    time.
    """
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    rows = []
    for family in cfg.families:
        P = make_distribution(family, cfg.k)
        for n in cfg.n_grid:
            occupancy = _draw_cell(P, n, cfg.trials, cfg.master_seed,
                                   occupancy_width(P.k))
            rows.extend(_score(P, n, estimator_id, occupancy)
                        for estimator_id in cfg.estimators)
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


def _items(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


_SETTINGS = {"families": _items, "estimators": _items, "k": int, "trials": int,
             "master_seed": int, "output_path": str,
             "n_grid": lambda text: tuple(map(float, _items(text)))}


def parse_setting(key: str, text: str):
    """Convert one SweepConfig field from its text in a config file or a CLI
    flag. Lists are comma-separated, and empty entries are dropped."""
    if key not in _SETTINGS:
        raise ValueError(f"unknown key {key!r}")
    try:
        return _SETTINGS[key](text.strip())
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


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
        try:
            values[key.strip()] = parse_setting(key.strip(), val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return SweepConfig(**values)


def _is_header(fields) -> bool:
    return [f.strip().lower() for f in fields] == ["symbol", "count"]


def _split_counts(text: str) -> list[int] | None:
    """The counts of a counts file's text, split column-wise; None when the
    text needs the per-row parse of _read_counts.

    Text with a quote, a NUL (which csv refuses before Python 3.11) or a CR
    is handed over whole. Otherwise csv's default dialect ends a line only
    at "\n" and cuts it at every "," and nowhere else, so the lines can be
    split as whole columns, with no per-row Python. The text is also handed
    over when any check fails: a line without exactly one "," (a blank line
    included), a field longer than csv.field_size_limit() in UTF-8 bytes, a
    wrong header, a duplicate symbol, a non-integer count or one outside
    [0, 2**63). This path then accepts only what _read_counts accepts, with
    the same counts in the same order.
    """
    if '"' in text or "\0" in text or "\r" in text:
        return None
    lines = text.rstrip("\n")
    raw = np.frombuffer(f"{lines}\n".encode(), np.uint8)
    cuts = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if raw[cuts].tobytes() != b",\n" * (len(cuts) // 2):
        return None
    # a field's UTF-8 bytes bound its characters, which csv's limit counts
    if np.diff(cuts, prepend=-1).max() - 1 > csv.field_size_limit():
        return None
    fields = lines.replace("\n", ",").split(",")
    symbols = fields[2::2]
    if not _is_header(fields[:2]) or len(set(map(str.strip, symbols))) < len(symbols):
        return None
    try:
        counts = list(map(int, fields[3::2]))
    except ValueError:
        return None
    if counts and not (min(counts) >= 0 and max(counts) < 2**63):
        return None
    return counts


def _read_counts(path, lines) -> list[int]:
    """The counts of a counts file, parsed row by row with csv's default
    dialect from its lines (a file opened with newline=""). It is the one
    parser of quoted files and the one place that words an error, with the
    physical line number of the bad row."""
    reader = csv.reader(lines)
    counts: dict[str, int] = {}
    try:
        header = next(reader, None)
        if header is None or not _is_header(header):
            raise ValueError(f"{path}: expected header 'symbol,count'")
        for row in reader:
            if not row:
                continue
            if len(row) != 2:
                raise ValueError(f"{path}:{reader.line_num}: malformed row {row!r}")
            symbol, count_text = row[0].strip(), row[1].strip()
            if symbol in counts:
                raise ValueError(
                    f"{path}:{reader.line_num}: duplicate symbol {symbol!r} "
                    "(multiplicity is ambiguous)"
                )
            try:
                count = int(count_text)
            except ValueError:
                raise ValueError(
                    f"{path}:{reader.line_num}: count {count_text!r} is not an integer"
                ) from None
            if not 0 <= count < 2**63:  # MultiplicitySample holds int64
                raise ValueError(
                    f"{path}:{reader.line_num}: count {count} outside [0, 2**63)")
            counts[symbol] = count
    except csv.Error as exc:
        raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
    return list(counts.values())


def ingest_counts(path) -> Fingerprint:
    """Read a symbol,count CSV into a fingerprint (phi0 unknown).

    The file is decoded as UTF-8, after a byte-order mark if it has one.
    Unquoted LF-ended files are split column-wise (_split_counts); quoted
    files, files with a CR or a blank line, and files that fail a check are
    read again and parsed row by row (_read_counts), which raises the error.
    A file that is not UTF-8 is refused with the line of its first bad byte.
    """
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            counts = _split_counts(fh.read())
            if counts is None:
                fh.seek(0)
                counts = _read_counts(path, fh)
    except UnicodeDecodeError as exc:
        # read() decodes the whole file after any byte-order mark in one
        # call, so exc.object holds every byte before the bad one
        head = exc.object[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(
            f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    return fingerprint(MultiplicitySample(counts))


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
    if not estimators:
        raise ValueError("estimators must be nonempty")
    fp = ingest_counts(path)
    report: dict[str, EstimatorOutput | None] = {}
    for estimator_id in estimators:
        try:
            report[estimator_id] = support_estimate(fp, estimator_id, k=k, n=n)
        except UndefinedEstimateError:
            report[estimator_id] = None
    return report
