"""Command line interface.

Subcommands:
  dist dump  -- emit a zoo distribution's probability vector as CSV
  bounds     -- evaluate every closed-form bound at (n, k)
  estimate   -- estimate support size from an empirical counts CSV
  sweep      -- Monte Carlo MSE sweep over the zoo, written as CSV
  verify     -- run the full inequality certification campaign

Exit status: 0 on success, 1 on a usage error or bad input (one
"error: ..." line on stderr), 2 on a falsified certificate.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from dataclasses import fields, replace

from . import bench, bounds, oracle
from .distributions import FAMILIES, check_integer, make_distribution


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="supportsize")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    dist = sub.add_parser("dist", help="distribution utilities")
    dist_sub = dist.add_subparsers(dest="dist_command", required=True, parser_class=_Parser)
    dump = dist_sub.add_parser("dump", help="emit probability vector as CSV")
    dump.add_argument("--family", required=True, choices=FAMILIES)
    dump.add_argument("--k", type=int, required=True)
    dump.add_argument("--lenient", action="store_true",
                      help="skip the 1/k probability floor")
    dump.add_argument("--output", default="-", help="output path (default stdout)")

    b = sub.add_parser("bounds", help="closed-form bound report")
    b.add_argument("--n", type=float, required=True)
    b.add_argument("--k", type=int, required=True)
    b.add_argument("--family", choices=FAMILIES,
                   help="also evaluate moment-dependent bounds for this "
                        "zoo distribution")
    b.add_argument("--csv", action="store_true", help="emit one CSV row")

    est = sub.add_parser("estimate", help="estimate support from counts CSV")
    est.add_argument("--counts", required=True, help="CSV with header symbol,count")
    est.add_argument("--estimators", help="comma-separated estimator ids")
    est.add_argument("--k", type=int)
    est.add_argument("--n", type=float)

    sweep = sub.add_parser("sweep", help="Monte Carlo MSE sweep")
    sweep.add_argument("--config", help="flat key=value config file")
    sweep.add_argument("--families")
    sweep.add_argument("--k")
    sweep.add_argument("--n-grid")
    sweep.add_argument("--estimators")
    sweep.add_argument("--trials")
    sweep.add_argument("--master-seed")
    sweep.add_argument("--output", dest="output_path")
    sweep.add_argument("--workers", type=int, default=1)

    verify = sub.add_parser("verify", help="inequality certification campaign")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--campaign-size", type=int, default=100,
                        help="instances per decoupling/moment check")

    return parser


def _cmd_dist_dump(args) -> int:
    P = make_distribution(args.family, args.k, strict=not args.lenient)
    out = sys.stdout if args.output == "-" else open(args.output, "w", newline="")
    try:
        writer = csv.writer(out)
        writer.writerow(["symbol_index", "probability"])
        for i, p in enumerate(P.probs):
            writer.writerow([i, f"{p:.17g}"])
    finally:
        if out is not sys.stdout:
            out.close()
    return 0


def _cmd_bounds(args) -> int:
    P = make_distribution(args.family, args.k) if args.family else None
    try:
        report = bounds.bound_report(args.n, args.k, P)
    except ArithmeticError as exc:
        # k in full: format(k, "g") overflows on a k past float range
        raise ArithmeticError(f"bounds at n={args.n:g}, k={args.k} leave "
                              f"float range ({exc})") from None
    names = [f.name for f in fields(report) if f.name not in ("n", "k")]
    if args.csv:
        writer = csv.writer(sys.stdout)
        writer.writerow(["n", "k"] + names)
        writer.writerow(
            [f"{args.n:.17g}", args.k]
            + ["" if getattr(report, f) is None else f"{getattr(report, f):.17g}"
               for f in names]
        )
    else:
        print(f"n = {args.n:g}, k = {args.k}")
        for f in names:
            value = getattr(report, f)
            text = "inapplicable" if value is None else f"{value:.6g}"
            print(f"  {f:18s} {text}")
    return 0


def _cmd_estimate(args) -> int:
    chosen = {} if args.estimators is None else {
        "estimators": bench.parse_setting("estimators", args.estimators)}
    report = bench.estimate_from_counts(args.counts, k=args.k, n=args.n,
                                        **chosen)
    for estimator_id, output in report.items():
        text = "undefined" if output is None else f"{output.value:.6g}"
        print(f"{estimator_id:15s} {text}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = bench.load_config(args.config) if args.config else bench.SweepConfig()
    cfg = replace(cfg, **{
        f.name: bench.parse_setting(f.name, getattr(args, f.name))
        for f in fields(cfg) if getattr(args, f.name) is not None
    })
    rows = bench.run_sweep(cfg, workers=args.workers)
    print(f"wrote {len(rows)} rows to {cfg.output_path}")
    return 0


def _cmd_verify(args) -> int:
    size = args.campaign_size
    check_integer("--campaign-size", size, 1)
    start = time.perf_counter()
    certs = oracle.certification_campaign(
        seed=args.seed,
        decoupling=size,
        charpoly_cases=2 * size,
        moment=size,
        degree2=size,
        conditional=size,
        regression=size,
    )
    elapsed = time.perf_counter() - start
    summary = oracle.summarize_certificates(certs)
    any_falsified = False
    for name in sorted(summary):
        entry = summary[name]
        status = "FAIL" if entry["falsified"] else "PASS"
        any_falsified |= bool(entry["falsified"])
        margins = [c.margin for c in certs
                   if c.name == name and c.status == "passed"]
        worst = min(margins) if margins else float("nan")
        print(
            f"{status} {name:26s} passed={entry['passed']:4d} "
            f"falsified={entry['falsified']:3d} skipped={entry['skipped']:3d} "
            f"min_margin={worst:.3g}"
        )
    print(f"total runtime: {elapsed:.3g}s")
    return 2 if any_falsified else 0


_COMMANDS = {
    "dist": _cmd_dist_dump,
    "bounds": _cmd_bounds,
    "estimate": _cmd_estimate,
    "sweep": _cmd_sweep,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    # ArithmeticError covers UndefinedEstimateError and finite input whose
    # bounds overflow or underflow; MemoryError, a zoo too large to build
    except (ValueError, OSError, ArithmeticError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
