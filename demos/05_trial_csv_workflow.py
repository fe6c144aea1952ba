"""
From a trial CSV to a report
=============================

The command line covers the everyday workflow: a CSV with one row per
subject goes in, a report with every requested test per endpoint comes
out.  This demo writes a synthetic two-endpoint trial export, then drives
the ``analyze`` and ``diagnose`` subcommands exactly as a shell user would,
in a temporary directory that it removes when done.
"""
import json
import pathlib
import sys
import tempfile

import numpy as np

from stratperm.cli import main
from stratperm.reporting import TrialDataset, write_trial_csv

with tempfile.TemporaryDirectory(prefix="stratperm-demo-") as tmp:
    workdir = pathlib.Path(tmp)

    # The expected layout: subject, stratum, treatment, then
    # baseline_*/outcome_* pairs, one pair per endpoint.  Arm labels are
    # free-form; pass --control when the lexicographically smaller label is
    # not the control arm.
    rng = np.random.default_rng(41)
    strata = np.repeat(["site1", "site2", "site3"], 12)
    z = np.tile([1, 0], 18).astype(np.int8)
    baselines, outcomes = {}, {}
    for name, effect in (("daily_score", -0.6), ("night_score", -0.2)):
        x = rng.normal(3.0, 1.0, 36)
        baselines[name] = x
        outcomes[name] = x + effect * z + rng.normal(0.0, 0.9, 36)
    dataset = TrialDataset.build(
        strata, z, baselines, outcomes,
        control_label="placebo", treated_label="drug",
    )
    csv_path = workdir / "trial.csv"
    write_trial_csv(dataset, csv_path)
    print(f"wrote {csv_path}")
    print(csv_path.read_text().splitlines()[0])
    print(csv_path.read_text().splitlines()[1], "...\n")

    # analyze: the battery per endpoint, a JSON report on the side.  Every
    # endpoint and test is scored against the same re-randomizations: one
    # plan of --permutations draws, seeded from --seed, drawn once for the
    # whole trial.  Exit code 0 is success; 2 flags input problems, 3
    # numerical ones.  The demo stops with the command's exit code when it
    # fails.
    report_path = workdir / "report.json"
    code = main([
        "analyze",
        "--input", str(csv_path),
        "--control", "placebo",
        "--permutations", "4999",
        "--seed", "17",
        "--out", str(report_path),
    ])
    print(f"\nanalyze exit code: {code}")
    if code != 0:
        sys.exit(code)

    report = json.loads(report_path.read_text())
    print("report provenance seed:", report["provenance"]["seed"])
    print("rows in report:", len(report["rows"]))

    # diagnose: residual exchangeability per endpoint.  Small p-values warn
    # that residual-permutation tests may be off; here nothing should fire.
    # It scores on the same trial plan as analyze, so with the same
    # --permutations and --seed its rows equal the report's exchangeability
    # rows; this run uses fewer draws, so its p-values differ from them.
    code = main([
        "diagnose",
        "--input", str(csv_path),
        "--control", "placebo",
        "--permutations", "1999",
        "--seed", "17",
    ])
    print(f"diagnose exit code: {code}")
    if code != 0:
        sys.exit(code)
