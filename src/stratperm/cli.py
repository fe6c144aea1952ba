"""Command-line front end.

Three subcommands: ``analyze`` runs the test battery on a trial CSV,
``simulate`` runs scenario files through the power-study engine, and
``diagnose`` checks residual exchangeability.  Exit codes: 0 success, 2 bad
input (missing files, malformed data or scenarios, counts too large to
allocate), 3 numerical failure (singular designs and the like).  All
randomness flows from --seed; there is no environment-variable
configuration.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from .randomization import derive_seed
from .reporting import (
    TrialDataError,
    _atomic_write,
    _json_text,
    diagnose_exchangeability,
    format_report_text,
    load_trial_csv,
    run_analysis,
    write_report,
)
from .simulation import (
    DEFAULT_TESTS,
    load_scenario,
    run_power_study,
    write_results_csv,
    write_results_json,
)

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3

_DEFAULT_METHODS = ",".join(DEFAULT_TESTS)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stratperm",
        description="Randomization inference for stratified two-arm trials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run the test battery on a trial CSV")
    pa.add_argument("--input", required=True, help="trial CSV file")
    pa.add_argument(
        "--methods",
        default=_DEFAULT_METHODS,
        help=f"comma-separated tests (default: {_DEFAULT_METHODS})",
    )
    pa.add_argument("--permutations", type=int, default=10_000)
    pa.add_argument("--seed", type=int, default=0)
    pa.add_argument("--alpha", type=float, default=0.05)
    pa.add_argument("--control", default=None, help="treatment label to use as control")
    pa.add_argument("--out", default=None, help="write the full report here")
    pa.add_argument(
        "--format",
        choices=("json", "csv"),
        default=None,
        help="report format (default: by --out extension, else json)",
    )

    ps = sub.add_parser("simulate", help="run scenario files and tabulate power")
    ps.add_argument("--scenario", nargs="+", required=True, help="scenario JSON files")
    ps.add_argument("--out", required=True, help="results CSV path")
    ps.add_argument("--json", default=None, help="also write full JSON results here")
    ps.add_argument(
        "--seed",
        type=int,
        default=None,
        help="seed for scenarios that do not pin one themselves",
    )
    ps.add_argument("--workers", type=int, default=1)

    pd = sub.add_parser("diagnose", help="residual exchangeability diagnostic")
    pd.add_argument("--input", required=True, help="trial CSV file")
    pd.add_argument("--permutations", type=int, default=10_000)
    pd.add_argument("--seed", type=int, default=0)
    pd.add_argument("--control", default=None)
    pd.add_argument("--out", default=None, help="write diagnostic JSON here")
    return parser


def _cmd_analyze(args) -> int:
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    dataset = load_trial_csv(args.input, control_label=args.control)
    report = run_analysis(
        dataset,
        methods,
        permutations=args.permutations,
        master_seed=args.seed,
        alpha=args.alpha,
    )
    sys.stdout.write(format_report_text(report))
    if args.out is not None:
        fmt = args.format
        if fmt is None:
            fmt = "csv" if str(args.out).endswith(".csv") else "json"
        write_report(report, args.out, fmt)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    # Parse every scenario before running anything, so a bad file cannot
    # leave partial results behind.
    configs = [load_scenario(path) for path in args.scenario]
    seeded = []
    for index, cfg in enumerate(configs):
        if cfg.master_seed is None:
            if args.seed is None:
                raise ValueError(
                    f"scenario {cfg.scenario_id!r} has no seed; set one in the "
                    "file or pass --seed"
                )
            cfg = dataclasses.replace(
                cfg, master_seed=derive_seed(args.seed, index)
            )
        seeded.append(cfg)
    if args.workers < 1:
        raise ValueError("--workers must be at least 1")
    results = []
    for cfg in seeded:
        res = run_power_study(cfg, workers=args.workers)
        results.append(res)
        for name in cfg.tests:
            est = res.estimates[name]
            sys.stderr.write(
                f"{cfg.scenario_id}: {name} rate {est.rate:.4f} "
                f"(se {est.std_error:.4f})\n"
            )
    write_results_csv(results, args.out)
    if args.json is not None:
        write_results_json(results, args.json)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    dataset = load_trial_csv(args.input, control_label=args.control)
    rows = diagnose_exchangeability(dataset, args.permutations, args.seed)
    width = max(len(r["endpoint"]) for r in rows)
    sys.stdout.write(
        f"{'endpoint':<{width}}  {'statistic':>10}  {'p':>6}  per-stratum p\n"
    )
    for row in rows:
        partial = " ".join(f"{p:.3f}" for p in row["partial_p"])
        sys.stdout.write(
            f"{row['endpoint']:<{width}}  {row['statistic']:>10.4f}  "
            f"{row['p_value']:>6.3f}  {partial}\n"
        )
    if args.out is not None:
        _atomic_write(args.out, _json_text({"diagnostics": rows}))
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "diagnose": _cmd_diagnose,
    }
    try:
        return handlers[args.command](args)
    # SingularDesignError and FloatingPointError are ArithmeticErrors;
    # LinAlgError is a ValueError, so it must be caught before bad input.
    except (ArithmeticError, np.linalg.LinAlgError) as err:
        sys.stderr.write(f"numerical failure: {err}\n")
        return EXIT_NUMERIC
    except (TrialDataError, ValueError, OSError, MemoryError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
