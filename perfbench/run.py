#!/usr/bin/env python3
"""Benchmark of the supportsize library: one workload, one seed, one run.

    python3 perfbench/run.py --workload mc_sweep --seed 0 --seconds 25 --trace 0

Run it from the root of a checkout; it imports the package from that
checkout's ``src/`` and refuses to run without it. Workloads: ``mc_sweep``,
``certify`` and ``analyze_counts`` (see README.md in this directory).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the same
operations untraced and then traced, and reports the per-layer metrics.
Every metric is printed as ``name value unit``; a JSON record with the
provenance is written under ``perfbench/results/``, and the last line of
standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("mc_sweep", "certify", "analyze_counts")
#: Fresh interpreters started per run to time set-up; setup_s is their median.
SETUP_PROBES = 5
#: Time of ``reference_kernel`` on one core of a 2-vCPU Intel Xeon guest in
#: its fast phase. Reported times are scaled to this machine speed.
REF_NOMINAL_S = 0.004
#: An operation is corrected by the kernel times taken this close to it: the
#: machine's speed holds for about a second.
KERNEL_WINDOW_S = 0.25
#: Workload-specific names of the same figures, kept in the record.
NAMED = {
    "mc_sweep": {"throughput_per_s": "trials_per_s"},
    "certify": {"throughput_per_s": "certs_per_s"},
    "analyze_counts": {"throughput_per_s": "requests_per_s",
                       "op_p50_ms": "request_p50_ms",
                       "op_p90_ms": "request_p90_ms"},
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and one set-up probe")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def import_package() -> float:
    """Import supportsize from this checkout's src/; return the seconds."""
    if not (SRC / "supportsize" / "__init__.py").is_file():
        raise SystemExit(f"error: no package at {SRC / 'supportsize'}; "
                         "run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import supportsize

    elapsed = time.perf_counter() - start
    if Path(supportsize.__file__).resolve().parent != (SRC / "supportsize").resolve():
        raise SystemExit(f"error: imported supportsize from {supportsize.__file__}")
    return elapsed


def reference_kernel() -> float:
    """Wall seconds of a fixed mix of interpreted, numpy and scipy work.

    The three parts are the kinds of work the library does. Run between
    operations, the kernel tracks how fast the machine is at that moment:
    on a shared host one core's speed swings by up to 2x within seconds, and
    dividing an operation's wall time by the kernel's time cancels most of
    that swing but no change in the library.
    """
    import numpy as np
    from scipy import stats

    rng = np.random.default_rng(0)
    means = np.array([0.5, 1.3, 2.2])
    start = time.perf_counter()
    total = 0
    for j in range(20_000):
        total += j * j
    for _ in range(20):
        np.bincount(rng.poisson(np.full(1000, 2.0)))
    for _ in range(8):
        stats.poisson.ppf(0.999, means)
        stats.poisson.sf(5, means)
        stats.poisson.pmf(np.arange(10), 1.5)
    return time.perf_counter() - start


def corrected(seconds: float, kernels) -> float:
    """Wall seconds rescaled to the nominal speed of the reference kernel,
    given kernel times taken around them (their median resists outliers)."""
    return seconds * REF_NOMINAL_S / statistics.median(kernels)


class Runner:
    """Runs and checks operations; counts attempts and failures."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.tracer = None  # when set, each operation is a root span

    def record(self, failures) -> None:
        self.attempted += 1
        if failures:
            self.failed += 1
            self.messages.extend(failures[:5])

    def step(self, i: int):
        """Run operation i and check it; return (wall seconds, work) or None."""
        span = (self.tracer.op(f"op.{self.wl.name}", i) if self.tracer
                else contextlib.nullcontext())
        start = time.perf_counter()
        try:
            with span:
                result = self.wl.run(i)
        except Exception as exc:  # a raising operation is a failed one
            self.record([f"op {i} raised {exc!r}"])
            return None
        seconds = time.perf_counter() - start
        try:
            work, failures = self.wl.check(i, result)
        except Exception as exc:
            work, failures = 0, [f"check of op {i} raised {exc!r}"]
        self.record(failures)
        return seconds, work

    def timed(self, fn):
        """(result, wall seconds, corrected seconds) of ``fn()``."""
        before = reference_kernel()
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        return result, wall, corrected(wall, [before, reference_kernel()])

    def loop(self, seconds: float, ops: int | None = None, min_ops: int = 3):
        """Closed loop from op 1, for ``seconds`` or for exactly ``ops`` ops.

        Returns (samples, ops attempted) with one (wall seconds, corrected
        seconds, work) sample per operation that ran. The kernel runs
        between operations, and each operation is corrected by the kernel
        times taken within ``KERNEL_WINDOW_S`` of it. A timed loop ends on
        a multiple of the workload's ``ops_per_pass``.
        """
        per_pass = getattr(self.wl, "ops_per_pass", 1)
        stamps, kernels = [time.perf_counter()], [reference_kernel()]
        runs, i = [], 1
        start = time.perf_counter()
        while (i <= ops if ops is not None else
               time.perf_counter() - start < seconds or i <= min_ops
               or (i - 1) % per_pass):
            begin = time.perf_counter()
            done = self.step(i)
            end = time.perf_counter()
            stamps.append(end)
            kernels.append(reference_kernel())
            if done is not None:
                runs.append((begin, end, *done))
            i += 1
        if len(runs) < 2:
            raise SystemExit(f"error: fewer than two operations ran: {self.messages[:3]}")
        samples = []
        for begin, end, wall, work in runs:
            near = kernels[bisect.bisect_left(stamps, begin - KERNEL_WINDOW_S):
                           bisect.bisect_right(stamps, end + KERNEL_WINDOW_S)]
            samples.append((wall, corrected(wall, near), work))
        return samples, i - 1


def setup_probe(args) -> dict:
    """Time a fresh interpreter through import and input building."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    before = reference_kernel()
    start = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150,
                          cwd=ROOT)
    wall = time.perf_counter() - start
    after = reference_kernel()
    if proc.returncode != 0:
        raise SystemExit(f"error: set-up probe failed: {proc.stderr.strip()}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    # The child times the kernel too, so the speed is sampled across the
    # process's life; its kernel time is not set-up time.
    probe["wall_s"] = wall - probe.pop("kernel_total_s")
    probe["kernel_s"] = [before, *probe["kernel_s"], after]
    return probe


def setup_seconds(probes) -> float:
    """Median set-up wall time, corrected by the median of every kernel time
    the probes took: single kernel times around a process start are noisy."""
    return corrected(statistics.median(p["wall_s"] for p in probes),
                     [k for p in probes for k in p["kernel_s"]])


def untraced(runner: Runner, args, probes):
    runner.step(0)  # warm-up: checked, not timed
    samples, _ = runner.loop(args.seconds)
    wall = [s[0] for s in samples]
    fixed = [s[1] for s in samples]
    work = sum(s[2] for s in samples)
    metrics = {
        "throughput_per_s": (work / sum(fixed), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(fixed), "ms"),
        "op_p90_ms": (1e3 * statistics.quantiles(fixed, n=10)[8], "ms"),
        "setup_s": (setup_seconds(probes), "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "MB"),
    }
    raw = {
        "throughput_per_s": work / sum(wall),
        "op_p50_ms": 1e3 * statistics.median(wall),
        "op_p90_ms": 1e3 * statistics.quantiles(wall, n=10)[8],
        "setup_s": statistics.median(p["wall_s"] for p in probes),
    }
    return metrics, {"timed_ops": len(samples), "wall_clock": raw,
                     "op_wall_s": wall, "op_corrected_s": fixed}


def traced(runner: Runner, args, probes):
    import spans

    wl = runner.wl
    runner.step(0)
    plain, ops = runner.loop(args.seconds / 2)
    speedup = 0.0
    extra = {"timed_ops": ops}
    if hasattr(wl, "parallel_csv"):
        workers = len(os.sched_getaffinity(0))
        csv_bytes, _, parallel_s = runner.timed(lambda: wl.parallel_csv(workers))
        runner.record([] if csv_bytes == wl.reference_csv else
                      [f"workers={workers} sweep CSV differs from workers=1"])
        speedup = statistics.median(s[1] for s in plain) / parallel_s
        extra["parallel_workers"] = workers

    tracer = runner.tracer = spans.Tracer()
    tracer.install()
    try:
        traced_samples, _ = runner.loop(0, ops=ops)
        if hasattr(wl, "probe"):
            with tracer.op(f"probe.{wl.name}", "probe"):
                runner.record(wl.probe())
    finally:
        tracer.uninstall()
        runner.tracer = None

    span_path = RESULTS / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write(span_path)
    extra["spans"] = str(span_path.relative_to(ROOT))
    extra["oracle_working_set_bytes"] = int(
        tracer.counters["oracle.max_instance_bytes"]) or None
    metrics = spans.layer_metrics(tracer, ops)
    metrics["bench.run_sweep.parallel_speedup"] = (speedup, "ratio")
    metrics["trace.overhead_frac"] = (
        sum(s[1] for s in traced_samples) / sum(s[1] for s in plain) - 1.0,
        "ratio")
    metrics["setup.import_s"] = (
        statistics.median(p["import_s"] for p in probes), "s")
    metrics["setup.inputs_s"] = (
        statistics.median(p["inputs_s"] for p in probes), "s")
    return metrics, extra


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() or None


def l3_bytes():
    """Size of the last-level (L3) cache of CPU 0, or None if unknown."""
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            if (index / "level").read_text().strip() == "3":
                size = (index / "size").read_text().strip()
                scale = {"K": 1024, "M": 1024**2}.get(size[-1], 1)
                return int(size.rstrip("KM")) * scale
    except (OSError, ValueError):
        return None
    return None


def provenance(args) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "supportsize").glob("*.py")):
        digest.update(path.read_bytes())
    return {
        "workload_seed": args.seed,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "l3_bytes": l3_bytes(),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = import_package()
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    RESULTS.mkdir(exist_ok=True)
    workdir = RESULTS / f"work-{args.workload}-{os.getpid()}"
    if args.setup_probe:
        start = time.perf_counter()
        reference_kernel()  # first call pays one-off library set-up
        kernels = [reference_kernel()]
        kernel_total = time.perf_counter() - start
        try:
            workdir.mkdir()
            start = time.perf_counter()
            WORKLOADS[args.workload](args.seed, workdir, args.smoke)
            inputs_s = time.perf_counter() - start
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        kernels.append(reference_kernel())
        print(json.dumps({"import_s": import_s, "inputs_s": inputs_s,
                          "kernel_s": kernels,
                          "kernel_total_s": kernel_total + kernels[-1]}))
        return 0

    probes = [setup_probe(args) for _ in range(1 if args.smoke else SETUP_PROBES)]
    try:
        workdir.mkdir()
        start = time.perf_counter()
        workload = WORKLOADS[args.workload](args.seed, workdir, args.smoke)
        inputs_s = time.perf_counter() - start
        runner = Runner(workload)
        measure = traced if args.trace else untraced
        metrics, extra = measure(runner, args, probes)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed_frac = runner.failed / runner.attempted
    prov = provenance(args)
    prov["oracle_working_set_bytes"] = extra.pop("oracle_working_set_bytes", None)
    named = {alias: metrics[name][0]
             for name, alias in NAMED[args.workload].items() if name in metrics}
    named["failed_frac"] = failed_frac
    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "work_unit": workload.work_unit,
        "provenance": prov,
        "setup": {"import_s": import_s, "inputs_s": inputs_s, "probes": probes},
        "attempted": runner.attempted, "failed": runner.failed,
        "failures": runner.messages[:20], **extra,
        "named": named,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n")

    for message in runner.messages[:20]:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    for name, value in named.items():
        print(f"{name} {value:.6g}")
    print(f"record {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
