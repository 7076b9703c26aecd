"""In-memory span tracing around the library's public layer functions.

``Tracer.install`` replaces every public function of the layer modules with
a wrapper that records a span (name, start, end, parent, run id) and rebinds
every attribute of the package's loaded modules that holds the same function
object. Names imported into other modules (``bench.make_distribution``,
``oracle.build_instance``, ``bounds.expected_prevalence``) are therefore
traced too. Only the process that installs the tracer is affected, and
``uninstall`` restores the originals.

Self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time
from collections import defaultdict

LAYERS = ("distributions", "poisson_model", "estimators", "bounds", "oracle",
          "bench")

SWEEP_FAMILIES = ("uniform", "zipf", "geometric", "two_mixture")
SWEEP_ESTIMATORS = ("plugin", "modified_chao", "chebyshev")
CHECKS = (
    "check_decoupling_lower", "check_decoupling_upper_concave",
    "check_domination_upper", "check_charpoly_integral",
    "check_inverse_falling_moments", "check_moment_bound",
    "check_degree2_second_moment", "check_conditional_moment",
    "check_negative_regression", "check_cauchy_schwarz",
)


def _first_arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


def _mc_row(c, args, kwargs, row, dur):
    key = f"{row.family}.{row.estimator_id}"
    c[f"mc_trials.{key}"] += row.trials
    c[f"mc_seconds.{key}"] += dur


def _instance(c, args, kwargs, inst, dur):
    # Bytes of the arrays the instance holds, computed from their sizes.
    nbytes = inst.counts.nbytes + inst.probs.nbytes + inst.phi_table.nbytes
    c["oracle.cells"] += len(inst.probs)
    c["oracle.computed_bytes"] += nbytes
    c["oracle.max_instance_bytes"] = max(c["oracle.max_instance_bytes"], nbytes)
    c["oracle.max_tail_mass"] = max(c["oracle.max_tail_mass"], inst.tail_mass)


def _check(name):
    def hook(c, args, kwargs, cert, dur):
        c[f"{name}.skipped"] += cert.status == "skipped"
    return hook


def _pmf_symbols(c, args, kwargs, value, dur):
    c["pmf_symbols"] += len(_first_arg(args, kwargs, "P").probs)


def _symbols(c, args, kwargs, P, dur):
    c["symbols"] += len(P.probs)


def _rows(c, args, kwargs, fp, dur):
    # The generated files hold no zero-count rows, so every data row is a
    # seen symbol.
    c["rows"] += sum(fp.phi.values())


HOOKS = {
    "bench.monte_carlo_mse": _mc_row,
    "bench.ingest_counts": _rows,
    "oracle.build_instance": _instance,
    "poisson_model.expected_prevalence": _pmf_symbols,
    "poisson_model.prevalence_second_moment": _pmf_symbols,
    "distributions.make_distribution": _symbols,
}
HOOKS.update({f"oracle.{name}": _check(f"oracle.{name}") for name in CHECKS})


class Tracer:
    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index, run id)
        self.counters: defaultdict = defaultdict(float)
        self.run_id = None
        self._stack: list[int] = []
        self._restore: list = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        hook = HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.run_id)
            if hook is not None:
                hook(self.counters, args, kwargs, result, end - start)
            return result

        return wrapper

    def install(self, package: str = "supportsize") -> None:
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or isinstance(obj, type)
                        or not callable(obj)
                        or getattr(obj, "__module__", None) != module.__name__):
                    continue
                wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        modules = [m for name, m in list(sys.modules.items())
                   if name == package or name.startswith(package + ".")]
        for module in modules:
            for attr, obj in list(vars(module).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._restore):
            setattr(module, attr, obj)
        self._restore.clear()

    @contextlib.contextmanager
    def op(self, name: str, run_id):
        """Root span of one benchmark operation."""
        self.run_id = run_id
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, run_id)
            self.run_id = None

    def stats(self) -> dict[str, list]:
        """name -> [calls, inclusive seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, _, _) in enumerate(self.spans):
            entry = out[name]
            entry[0] += 1
            entry[1] += end - start
            entry[2] += end - start - child[i]
        return out

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics from a traced run of ``ops`` operations.

    Counts and self times are per operation; ``us_per_*`` figures are
    inclusive span time over calls or units of work.
    """
    st, c = tracer.stats(), tracer.counters
    zero = [0, 0.0, 0.0]

    def calls(name):
        return st.get(name, zero)[0] / ops

    def self_s(name):
        return st.get(name, zero)[2] / ops

    def us_per(seconds, count):
        return 1e6 * seconds / count if count else 0.0

    def us_per_call(name):
        calls_, incl, _ = st.get(name, zero)
        return us_per(incl, calls_)

    m: dict[str, tuple[float, str]] = {}
    for family in SWEEP_FAMILIES:
        for est in SWEEP_ESTIMATORS:
            key = f"{family}.{est}"
            m[f"bench.monte_carlo_mse.us_per_trial.{key}"] = (
                us_per(c[f"mc_seconds.{key}"], c[f"mc_trials.{key}"]), "us")
    m["bench.monte_carlo_mse.self_s"] = (self_s("bench.monte_carlo_mse"), "s/op")
    m["bench.ingest_counts.rows"] = (c["rows"] / ops, "count/op")
    m["bench.ingest_counts.us_per_row"] = (
        us_per(st.get("bench.ingest_counts", zero)[1], c["rows"]), "us")
    m["bench.estimate_from_counts.self_s"] = (
        self_s("bench.estimate_from_counts"), "s/op")
    for fn in ("sample", "fingerprint"):
        m[f"poisson_model.{fn}.us_per_call"] = (
            us_per_call(f"poisson_model.{fn}"), "us")
    for fn in ("expected_prevalence", "prevalence_second_moment",
               "exact_plugin_mse"):
        m[f"poisson_model.{fn}.self_s"] = (self_s(f"poisson_model.{fn}"), "s/op")
    m["poisson_model.pmf_symbols"] = (c["pmf_symbols"] / ops, "count/op")
    for fn in ("plugin_support", "support_estimate", "chebyshev_support"):
        m[f"estimators.{fn}.us_per_call"] = (us_per_call(f"estimators.{fn}"), "us")
    m["estimators.chebyshev_coefficients.calls"] = (
        calls("estimators.chebyshev_coefficients"), "count/op")
    m["estimators.chebyshev_coefficients.self_s"] = (
        self_s("estimators.chebyshev_coefficients"), "s/op")
    m["distributions.make_distribution.self_s"] = (
        self_s("distributions.make_distribution"), "s/op")
    m["distributions.make_distribution.symbols"] = (c["symbols"] / ops, "count/op")
    m["bounds.bound_report.calls"] = (calls("bounds.bound_report"), "count/op")
    m["bounds.bound_report.self_s"] = (self_s("bounds.bound_report"), "s/op")
    m["oracle.build_instance.calls"] = (calls("oracle.build_instance"), "count/op")
    m["oracle.build_instance.self_s"] = (self_s("oracle.build_instance"), "s/op")
    m["oracle.build_instance.cells"] = (c["oracle.cells"] / ops, "count/op")
    m["oracle.build_instance.computed_bytes"] = (
        c["oracle.computed_bytes"] / ops, "B/op")
    m["oracle.build_instance.max_tail_mass"] = (c["oracle.max_tail_mass"], "prob")
    for name in CHECKS:
        key = f"oracle.{name}"
        n_calls = st.get(key, zero)[0]
        m[f"{key}.calls"] = (n_calls / ops, "count/op")
        m[f"{key}.self_s"] = (self_s(key), "s/op")
        m[f"{key}.skipped_frac"] = (
            c[f"{key}.skipped"] / n_calls if n_calls else 0.0, "ratio")
    m["oracle.charpoly.self_s"] = (self_s("oracle.charpoly"), "s/op")
    return m
