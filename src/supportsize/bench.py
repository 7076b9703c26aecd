"""Monte Carlo MSE harness, sweep configuration, and empirical-data paths.

A Monte Carlo run has two steps, draw then score. _draw_cells draws every
(distribution, n) cell of a run in one call, each as a truncated occupancy
matrix; trial t's row depends only on (master_seed, t), never on the trial
count or on the other cells. A law whose runs of equal mass are long
(uniform and two_mixture) is drawn as one multinomial per run of symbols
and block of trials, so its cost does not grow with the support size.
Every other law is sampled by block-seeded cdf inversion, one symbol chunk
at a time: the cdfs of each law's cells come from one cumulative
poisson_pmf call per chunk, and the uniforms are compared once per law
with the cells of that law, so its memory does not grow with the support
size. _score then scores every configured estimator on every cell
of the run with estimators.unseen_estimates, in one call, so all
estimators see the same samples, and reduces all their squared errors
together. monte_carlo_mse is the two steps on one cell and one estimator,
so its row equals the matching run_sweep row. Trials run serially; only
run_sweep takes a workers argument, accepted for compatibility, and it
changes neither results nor run time. Undefined Chao trials (phi_2 = 0)
are excluded from the mean and reported in undefined_count, never
imputed.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .distributions import (FAMILIES, DiscreteDistribution, check_integer,
                            check_k, make_distribution, support_size)
from .estimators import (
    ESTIMATOR_IDS,
    EstimatorOutput,
    UndefinedEstimateError,
    occupancy_width,
    support_estimate,
    unseen_estimates,
)
from .poisson_model import (Fingerprint, MultiplicitySample, check_n,
                            fingerprint, poisson_pmf)

DEFAULT_ESTIMATORS = ("plugin", "modified_chao", "chebyshev")

#: Trials per random block of a cell. Part of the output contract: a new
#: value changes every sweep CSV.
BLOCK = 64
#: Symbols per batch of uniforms. It bounds the draw's working memory for
#: any support size: the cdf stacks take cells * W * _SYMBOL_CHUNK * 8 bytes
#: and the compare buffer BLOCK * C * W * _SYMBOL_CHUNK bytes for the C
#: cells of the largest law; the uniforms are consumed symbol by symbol, so
#: it changes no draw. Below 2**15, so a chunk's counts fit the int16 sums
#: of _draw_cells, about 3x faster than int64 ones.
_SYMBOL_CHUNK = 1024
#: Least mean run length len(P) / len(P.levels[0]) of a law that
#: _draw_cells draws run by run rather than symbol by symbol. A run's
#: multinomial costs about as much as comparing 130-250 of its symbols
#: (8 cells, W = 4 or 5, measured on a 2-vCPU x86 guest). Part of the
#: output contract: a new value changes the rows of laws it moves.
_RUN_CUTOFF = 192


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
        check_integer("trials", self.trials, 1)
        check_integer("master_seed", self.master_seed, 0)
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


def _chunk_cdf(P: DiscreteDistribution, ns: np.ndarray,
               ends: np.ndarray | None, width: int, lo: int,
               hi: int) -> np.ndarray:
    """F[c * width + j, x] = P(N_x <= j), N_x ~ Poisson(ns[c] p_x), for
    j < width and the symbols lo <= x < hi of P, whose level runs end at
    ends (None when P has no run longer than one symbol).

    Each cdf is the running sum over j of poisson_pmf, within 1e-15 of
    scipy's pdtr and non-decreasing in j. The pmf runs once per cell and
    level run that overlaps the chunk, all of P's cells in one call, so F
    is bitwise the same for any chunking and any cells drawn alongside.
    """
    values, lengths = P.levels
    if lengths is None:
        runs, repeats = slice(lo, hi), None
    else:
        first, last = np.searchsorted(ends, [lo, hi - 1], side="right")
        runs = slice(first, last + 1)
        repeats = (np.minimum(ends[runs], hi)
                   - np.maximum(ends[runs] - lengths[runs], lo))
    mu = np.multiply.outer(ns, values[runs])[:, None, :]
    pmf = poisson_pmf(np.arange(width)[:, None], mu)
    F = np.cumsum(pmf, axis=1).reshape(-1, pmf.shape[-1])
    return F if repeats is None else np.repeat(F, repeats, axis=1)


def _draw_levels(P: DiscreteDistribution, ns: np.ndarray, count: np.ndarray,
                 master_seed: int) -> None:
    """Add to count[c] (trials x W) the occupancy of the cell of P at n =
    ns[c], drawn one level run of P.levels at a time.

    Under Poisson sampling the c symbols of a run fall into the classes
    0, ..., W-1 and >= W independently, each with the same masses q, so
    the run's share of phi_0..phi_{W-1} is one Multinomial(c, q) draw.
    Block b draws from default_rng([master_seed, b, 1]), restarted from
    its first state for each cell, run by run in level order. Every run
    but the last draws the whole block, so the stream the next run starts
    from does not depend on the rows kept; the last draws the kept rows,
    the leading rows of its whole-block draw.
    """
    values, lengths = P.levels
    lengths = lengths.tolist()
    trials, width = count.shape[1:]
    # q[c, v, j] = P(N_x = j) for the symbols of run v in cell c; numpy
    # takes the last class as the rest, so the pmf at W stands in for >= W
    q = poisson_pmf(np.arange(width + 1),
                    np.multiply.outer(ns, values)[..., None])
    for b in range(-(-trials // BLOCK)):
        rows = slice(b * BLOCK, min(trials, (b + 1) * BLOCK))
        sizes = [BLOCK] * (len(lengths) - 1) + [rows.stop - rows.start]
        rng = np.random.default_rng([master_seed, b, 1])
        start = rng.bit_generator.state
        for cell, cell_q in zip(count, q):
            rng.bit_generator.state = start
            for c, run_q, size in zip(lengths, cell_q, sizes):
                drawn = rng.multinomial(c, run_q, size=size)
                cell[rows] += drawn[: rows.stop - rows.start, :width]


def _draw_cells(
    cells: list[tuple[DiscreteDistribution, float]], trials: int,
    master_seed: int,
) -> list[np.ndarray]:
    """(trials x W) occupancy matrix of each (P, n) cell, W =
    occupancy_width(P.k).

    Row t holds phi_0..phi_{W-1} of one Poisson(n p) sample; counts at or
    above W are lumped together and enter the estimators only through
    seen = support - phi_0. Trial t is row t mod BLOCK of block t // BLOCK,
    whose random numbers depend only on (master_seed, t // BLOCK). So a
    cell's rows do not depend on the other cells it is drawn with, and
    whole blocks are always drawn, so the rows for a trial count are the
    leading rows for any larger one. The cells of one law (the same P
    object) are drawn together, by one of two paths.

    A law whose runs of equal mass average at least _RUN_CUTOFF symbols
    (uniform from k = 192 and two_mixture from k = 768) is drawn run by
    run, by _draw_levels: its cost and memory do not grow with the support
    size.

    Every other law is drawn symbol by symbol by block-seeded cdf
    inversion: only each symbol's class min(N_x, W) is drawn. With F[j, x]
    = P(N_x <= j) and U uniform on [0, 1), cnt_j = #{x : U_x < F[j, x]} is
    phi_0 + ... + phi_j. The law is exact up to the float rounding of F
    (see _chunk_cdf), which is computed once per level of P.levels. Block
    b's uniforms come from default_rng([master_seed, b]), BLOCK per symbol
    in symbol order, drawn once for all these laws, up to their largest
    support, one symbol chunk at a time; a cell with S symbols counts
    against the first S * BLOCK of them. The last block compares only the
    rows it keeps.

    That loop runs over symbol chunks on the outside and holds one
    generator per block, each of which reads its chunks in order. A law's
    cdfs for the chunk come from one _chunk_cdf call, stacked as (C cells
    x W) rows, and are compared with a block's uniforms in one step.
    Besides one chunk of uniforms, as drawn and transposed, the draw holds
    the stacks, cells x W x _SYMBOL_CHUNK float64, one bool buffer of
    BLOCK x C x W x _SYMBOL_CHUNK for the C cells of the largest law, and
    the counts, cells x trials x W int64, which become the occupancy
    matrices in place. Nothing grows with the support size. For the zipf
    and geometric cells of the default sweep (16 cells at k = 1000, W = 4,
    2000 trials) the counts take 1 MB, the stacks 0.2 MB and the buffer
    1.4 MB.
    """
    for _, n in cells:
        check_n(n)
    check_integer("trials", trials, 1)
    # id(P) -> the cells of that law, in cell order
    members: dict[int, list[int]] = {}
    for i, (P, _) in enumerate(cells):
        members.setdefault(id(P), []).append(i)
    # the counts of each law's cells, in order of first appearance, and one
    # record per law drawn by the compare: its P, the n of its cells, its
    # level-run ends, its width W and its counts
    counts, laws = [], []
    for law in members.values():
        P = cells[law[0]][0]
        width = occupancy_width(P.k)
        ns = np.array([cells[i][1] for i in law], float)
        count = np.zeros((len(law), trials, width), np.int64)
        counts.append(count)
        if len(P) >= _RUN_CUTOFF * len(P.levels[0]):
            _draw_levels(P, ns, count, master_seed)
        else:
            laws.append((P, ns, None if P.levels[1] is None
                         else np.cumsum(P.levels[1]), width, count))
    symbols = max((len(P) for P, *_ in laws), default=0)
    rngs = [np.random.default_rng([master_seed, b])
            for b in range(-(-trials // BLOCK))] if laws else []
    # one buffer for every compare: a fresh one per step costs more in page
    # faults than the compare itself
    below = np.empty(BLOCK * min(_SYMBOL_CHUNK, symbols) * max(
        (len(ns) * width for _, ns, _, width, _ in laws), default=0), bool)
    for lo in range(0, symbols, _SYMBOL_CHUNK):
        hi = min(lo + _SYMBOL_CHUNK, symbols)
        stacks = [(_chunk_cdf(P, ns, ends, width, lo, min(hi, len(P))), count)
                  for P, ns, ends, width, count in laws if len(P) > lo]
        for b, rng in enumerate(rngs):
            rows = slice(b * BLOCK, min(trials, (b + 1) * BLOCK))
            kept = rows.stop - rows.start
            # drawn symbol by symbol, counted trial-major: u[t, 0, x] is
            # trial t's uniform for symbol lo + x
            u = rng.random((hi - lo, BLOCK))[:, :kept]
            u = np.ascontiguousarray(u.T)[:, None, :]
            for stack, count in stacks:
                # stack row c * W + j is F[j] of the law's cell c; this 3-D
                # compare runs faster than a 4-D (cell, trial, j, x) one
                out = below[: kept * stack.size].reshape(kept, *stack.shape)
                np.less(u[..., : stack.shape[1]], stack, out=out)
                cnt = np.add.reduce(out, axis=-1, dtype=np.int16)
                by_cell = cnt.reshape(kept, len(count), -1)
                count[:, rows] += by_cell.swapaxes(0, 1)
    for *_, count in laws:
        # phi_j = cnt_j - cnt_{j-1} in place; numpy buffers the overlap
        np.subtract(count[..., 1:], count[..., :-1], out=count[..., 1:])
    occupancies = [None] * len(cells)
    for law, count in zip(members.values(), counts):
        for i, occupancy in zip(law, count):
            occupancies[i] = occupancy
    return occupancies


def _score(
    cells: list[tuple[DiscreteDistribution, float]],
    estimator_ids: tuple[str, ...], occupancies: list[np.ndarray],
) -> list[MseRow]:
    """MSE row of each estimator on each drawn cell, cell by cell; NaN
    errors are undefined.

    The per-trial squared error is measured against the latent phi_0, which
    equals the support-estimation error for plug-in style estimators. The
    errors of every cell and estimator are stacked as the rows of one
    (cells x estimators, trials) matrix, and every row's mean and standard
    deviation come from one reduction along the trials, which reduces each
    row alone, as for a matrix of that row only; a row with NaNs (Chao's)
    is reduced again over its defined trials alone.
    """
    trials = len(occupancies[0])
    errors = np.empty((len(cells), len(estimator_ids), trials))
    for (P, n), occupancy, cell_errors in zip(cells, occupancies, errors):
        phi0 = occupancy[:, 0]
        seen = support_size(P) - phi0
        for err, estimator_id in zip(cell_errors, estimator_ids):
            np.subtract(phi0, unseen_estimates(occupancy, seen, estimator_id,
                                               k=P.k, n=n), out=err)
            np.multiply(err, err, out=err)
    errors = errors.reshape(-1, trials)
    means = errors.mean(axis=1)
    stds = errors.std(axis=1, ddof=1) if trials > 1 else np.zeros_like(means)
    labels = [(P, n, estimator_id) for P, n in cells
              for estimator_id in estimator_ids]
    rows = []
    for (P, n, estimator_id), error, mean, std in zip(labels, errors, means,
                                                      stds):
        family = P.family or "custom"
        defined = trials
        if math.isnan(mean):  # squares are never -inf: the row has a NaN
            error = error[~np.isnan(error)]
            defined = len(error)
            if defined == 0:
                raise UndefinedEstimateError(
                    f"{estimator_id} is undefined on every trial of "
                    f"{family} at k={P.k}, n={n:g}")
            mean = error.mean()
            std = error.std(ddof=1) if defined > 1 else 0.0
        stderr = float(std / math.sqrt(defined)) if defined > 1 else 0.0
        rows.append(MseRow(family, P.k, n, estimator_id, float(mean), stderr,
                           trials, trials - defined))
    return rows


def monte_carlo_mse(
    P: DiscreteDistribution,
    n: float,
    estimator_id: str,
    trials: int,
    master_seed: int,
) -> MseRow:
    """Monte Carlo estimate of the MSE of a support estimator under P.

    It is run_sweep on one cell and one estimator: the cell is drawn alone
    by _draw_cells and scored by one _score call, so the row equals the
    matching run_sweep row. The estimator id is checked before the draw.
    """
    check_integer("master_seed", master_seed, 0)
    if estimator_id not in ESTIMATOR_IDS:
        raise ValueError(f"unknown unseen estimator {estimator_id!r}")
    (occupancy,) = _draw_cells([(P, n)], trials, master_seed)
    (row,) = _score([(P, n)], (estimator_id,), [occupancy])
    return row


def run_sweep(cfg: SweepConfig, workers: int = 1) -> list[MseRow]:
    """Cartesian product of families x n_grid x estimators; writes CSV.

    Two steps: every (family, n) cell is drawn in one _draw_cells call,
    which draws each block's uniforms once for the whole sweep, and then
    one _score call scores every estimator on every cell's draw. A family
    listed twice is one shared law (see make_distribution), whose cells
    are drawn together, with the rows each copy would have alone.
    Output is deterministic (byte-identical) for a given config regardless
    of worker count; workers (an integer >= 1) changes neither the result
    nor the run time.
    """
    check_integer("workers", workers, 1)
    dists = [make_distribution(family, cfg.k) for family in cfg.families]
    cells = [(P, n) for P in dists for n in cfg.n_grid]
    occupancies = _draw_cells(cells, cfg.trials, cfg.master_seed)
    rows = _score(cells, cfg.estimators, occupancies)
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
    """Parse a flat key=value config file with SweepConfig field names.

    A "#" starts a comment at the start of a line or after whitespace, so
    a value such as runs/out#1.csv is kept whole. Each key may appear once.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        if key in values:
            raise ValueError(f"{path}:{lineno}: duplicate key {key!r}")
        try:
            values[key] = parse_setting(key, val)
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: {exc}") from None
    return SweepConfig(**values)


def _is_header(fields) -> bool:
    return [f.strip().lower() for f in fields] == ["symbol", "count"]


#: _BYTE_MASKS[j] keeps the first j bytes of a little-endian 8-byte word.
_BYTE_MASKS = np.array([256**j - 1 for j in range(9)], np.uint64)


def _digit_fields(raw: np.ndarray, starts: np.ndarray,
                  lengths: np.ndarray) -> np.ndarray | None:
    """int64 values of the fields raw[start : start + length], each 1 to 18
    ASCII digits, so in [0, 10**18); None when a field is not.

    Horner's rule runs column by column: pass j reads digit j of every field
    that has one, so there are as many passes as the longest field has
    digits and no per-row Python.
    """
    values = np.zeros(len(starts), np.int64)
    if not len(starts):
        return values
    if lengths.min() < 1 or lengths.max() > 18:
        return None
    for j in range(int(lengths.max())):
        rows = np.flatnonzero(lengths > j) if j else slice(None)
        digit = raw[starts[rows] + j] - np.uint8(ord("0"))  # wraps past 9
        if (digit > 9).any():
            return None
        values[rows] = values[rows] * 10 + digit
    return values


def _graphic(byte: np.ndarray) -> np.ndarray:
    """Bytes 0x21-0x7E: ASCII characters that str.strip keeps."""
    return (byte > 0x20) & (byte < 0x7F)


def _parse_counts(data: bytes | str) -> np.ndarray | None:
    """The int64 counts of a counts file's UTF-8 bytes (a text is encoded
    first), parsed as whole numpy columns; None when the file needs the
    per-row parse of _read_counts.

    A file with a quote, a NUL (which csv refuses before Python 3.11) or a
    CR is handed over whole. Otherwise csv's default dialect ends a line only
    at "\n" and cuts it at every "," and nowhere else, so the lines can be
    cut as whole columns, with no per-row Python. This path takes a file
    only when its header reads symbol,count and every other line has
    exactly one ",", every field is within csv.field_size_limit() in UTF-8
    bytes, every count is 1 to 18 ASCII digits, and every symbol has at most
    8 bytes and, unless empty, starts and ends with a byte in 0x21-0x7E (so
    str.strip keeps it), and differs from every other symbol. Everything else
    is handed over: a blank line, a count such as " 7 ", "+5", "1_0", "-1",
    non-ASCII digits or 19 digits, a symbol with whitespace or a non-ASCII
    character at either end, a symbol over 8 bytes, and a duplicate symbol.
    This path then accepts only what _read_counts accepts, with the same
    counts in the same order.
    """
    if isinstance(data, str):
        data = data.encode()
    if b'"' in data or b"\0" in data or b"\r" in data:
        return None
    end = len(data)
    while end and data[end - 1] == ord("\n"):
        end -= 1
    # the lines, each ended by one "\n", then 8 bytes of padding, which let
    # an 8-byte word be read at every field start
    raw = np.zeros(end + 9, np.uint8)
    raw[:end] = np.frombuffer(data, np.uint8, end)
    raw[end] = ord("\n")
    cuts = np.flatnonzero((raw == ord(",")) | (raw == ord("\n")))
    if raw[cuts].tobytes() != b",\n" * (len(cuts) // 2):
        return None
    # field j ends at cuts[j], so widths[j - 1] is the UTF-8 length of field
    # j >= 1; it bounds the field's characters, which csv's limit counts
    widths = np.diff(cuts) - 1
    if max(cuts[0], widths.max()) > csv.field_size_limit():
        return None
    if not _is_header(bytes(raw[: cuts[1]]).decode().split(",")):
        return None
    # row r >= 1 is fields 2r (its symbol) and 2r + 1 (its count)
    commas = cuts[2::2]
    counts = _digit_fields(raw, commas + 1, widths[2::2])
    if counts is None:
        return None
    starts, lengths = cuts[1:-1:2] + 1, widths[1::2]
    if lengths.max(initial=0) > 8 or not (
            (lengths == 0)
            | _graphic(raw[starts]) & _graphic(raw[commas - 1])).all():
        return None
    # a symbol's key is its bytes packed into one little-endian word, which
    # tells any two symbols apart, since the text holds no NUL
    words = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))  # raw[i:i+8]
    keys = np.sort(words[starts] & _BYTE_MASKS[lengths])
    if (keys[1:] == keys[:-1]).any():
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

    The file is read once, as bytes, and must be UTF-8 after a byte-order
    mark if it has one; only a file with a byte of 0x80 or more is decoded
    to check that. An unquoted LF-ended file of plain digit counts and
    distinct symbols of at most 8 bytes is parsed column-wise by numpy from
    its bytes (_parse_counts, which lists the files it hands over). Any
    other file is decoded and parsed row by row (_read_counts), with the
    same result, or the error it raises. A file that is not UTF-8 is refused
    with the line of its first bad byte.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    # as the utf-8-sig codec reads a file: past its byte-order mark, and a
    # file that is only the start of one as empty
    if codecs.BOM_UTF8.startswith(data[:3]):
        data = data[3:]
    try:
        if not data.isascii():
            data.decode()
    except UnicodeDecodeError as exc:
        head = data[: exc.start]
        line = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
        raise ValueError(
            f"{path}:{line}: not valid UTF-8 ({exc.reason})") from None
    counts = _parse_counts(data)
    if counts is None:
        counts = _read_counts(path, io.StringIO(data.decode(), newline=""))
    return fingerprint(MultiplicitySample(counts))


def estimate_from_counts(
    path,
    estimators=("plugin", "chao", "modified_chao"),
    k: int | None = None,
    n: float | None = None,
) -> dict[str, EstimatorOutput | None]:
    """Estimate support size from an empirical counts CSV.

    Returns one entry per requested estimator; the Chao entry is None when
    phi_2 = 0 (undefined). The chebyshev estimator needs k and n; k and n
    are checked whenever they are given, whichever estimators are asked for.
    """
    if not estimators:
        raise ValueError("estimators must be nonempty")
    if k is not None:
        check_k(k)
    if n is not None:
        check_n(n)
    fp = ingest_counts(path)
    report: dict[str, EstimatorOutput | None] = {}
    for estimator_id in estimators:
        try:
            report[estimator_id] = support_estimate(fp, estimator_id, k=k, n=n)
        except UndefinedEstimateError:
            report[estimator_id] = None
    return report
