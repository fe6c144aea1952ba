"""End-to-end acceptance checks.

Every check prints a single PASS or FAIL line with its measured numbers, so

    pytest -s tests/test_acceptance.py

doubles as a capability report.  The default profile keeps Monte-Carlo sizes
small enough for a few minutes on one core; ``--acceptance-full`` runs the
full protocol (10,000 replications x 10,000 permutations per cell, hours).

Power rows.  Each of the ten rows (latent x error law at gamma = 0.2) runs
the four default tests through ``run_power_study`` and compares every rate
with ``tests/reference/power_reference.json``.  That file is written by

    python tests/reference/make_power_reference.py

which imports nothing from stratperm: it reimplements the documented protocol
(a fresh population and a fresh within-stratum assignment per replication,
two-sided tests, add-one p-values) with its own seeds, 10,000 replications
per row, at both permutation counts the profiles use.  A rate passes when

    |measured - reference| <= z * sqrt(se_ref^2 + r (1 - r) / R)

with r the reference rate, R the engine's replications and z = 3.66, the
two-sided Bonferroni quantile for a 1% family-wise false-fail rate over the
40 comparisons (10 rows x 4 tests).  The bound is about 0.04 in the fast
profile and 0.025 in the full one.  It still catches the likely faults: an
engine made one-sided measured 0.08 to 0.10 above the reference on both
normal rows, and one re-randomizing across strata measured 0.076 below it for
``stratified_diff_means`` on heterogeneous/normal.  Before comparing, each row asserts that the reference entry's protocol is
the one the engine ran, so the two cannot drift apart silently.

Each row's report line also shows ``PINNED_POWER_UNRECORDED``: values pinned
when the suite was first written, whose protocol is recorded nowhere.  No
documented protocol reproduces them (they sit up to 0.25 away, in both
directions), so they are printed as a third column and not asserted.

Levels.  At gamma = 0 the potential outcomes coincide, so the observed
assignment and the null draws are i.i.d. uniform on the same within-stratum
orbit.  The assignment-orbit tests then reject with probability exactly
floor(alpha (B + 1)) / (B + 1), 50/1000 at B = 999, whatever the latent and
the error law.  The heterogeneous design is no exception: both level checks
hold ``stratified_diff_means`` at 0.05 +/- 0.01, as they hold ANCOVA,
lm_permutation and Freedman-Lane.
"""
import json
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from stratperm.cli import main
from stratperm.hypothesis_tests import METHODS, TrialData
from stratperm.linear_model import student_t_two_sided_p
from stratperm.randomization import (
    PermutationPlan,
    StratumLayout,
    sample_assignments,
)
from stratperm.reporting import (
    TrialDataset,
    load_trial_csv,
    report_to_json,
    run_analysis,
    write_trial_csv,
)
from stratperm.simulation import ScenarioConfig, run_power_study

from reference.least_squares import build_design, fit_least_squares

pytestmark = pytest.mark.acceptance

TESTS = ("ancova", "stratified_diff_means", "lm_permutation", "freedman_lane")

# Power at gamma=0.2 pinned when the suite was first written, in TESTS order.
# Where these came from is not recorded, and no documented protocol
# reproduces them; the row checks print them beside the reference and do not
# assert them.
PINNED_POWER_UNRECORDED = {
    ("homogeneous", "normal"): (0.835, 0.874, 0.842, 0.841),
    ("homogeneous", "heteroskedastic_normal"): (0.503, 0.541, 0.509, 0.511),
    ("homogeneous", "t2"): (0.440, 0.481, 0.448, 0.450),
    ("homogeneous", "lognormal"): (0.687, 0.709, 0.696, 0.698),
    ("homogeneous", "shifted_exponential"): (0.780, 0.820, 0.793, 0.791),
    ("heterogeneous", "normal"): (0.877, 0.844, 0.887, 0.891),
    ("heterogeneous", "heteroskedastic_normal"): (0.633, 0.631, 0.644, 0.643),
    ("heterogeneous", "t2"): (0.543, 0.512, 0.550, 0.551),
    ("heterogeneous", "lognormal"): (0.711, 0.608, 0.730, 0.731),
    ("heterogeneous", "shifted_exponential"): (0.814, 0.786, 0.820, 0.816),
}

POWER_REFERENCE = json.loads(
    (Path(__file__).parent / "reference" / "power_reference.json").read_text()
)

# Two-sided Bonferroni quantile: 1% family-wise over 10 rows x 4 tests.
BONFERRONI_Z = float(-ndtri(0.01 / (2 * 40)))

TAIL_ROWS = [key for key in PINNED_POWER_UNRECORDED if key[1] != "normal"]

SEED_BASE = 20_260_800


def _verdict(label, ok, detail):
    print(f"\n{label}: {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"{label}: {detail}"


def _run_study(profile, seed, *, replications=None, tests=TESTS, **overrides):
    cfg = dict(
        scenario_id="acceptance",
        family="continuous",
        latent="homogeneous",
        error_dist="normal",
        gamma=0.2,
        replications=replications or profile.replications,
        permutations=profile.permutations,
        tests=tests,
        master_seed=seed,
    )
    cfg.update(overrides)
    result = run_power_study(ScenarioConfig(**cfg))
    return {t: result.estimates[t].rate for t in tests}, result


def _reference_entry(config):
    """The reference entry for the row and permutation count ``config`` ran,
    after checking that it records the same protocol."""
    ran = {
        "family": config.family,
        "latent": config.latent,
        "error_dist": config.error_dist,
        "gamma": config.gamma,
        "sizes": list(config.sizes),
        "treated": list(config.treated),
        "alpha": config.alpha,
        "tests": list(config.tests),
        "permutations": config.permutations,
    }
    for entry in POWER_REFERENCE["entries"]:
        protocol = entry["protocol"]
        if all(protocol[k] == ran[k] for k in ("latent", "error_dist", "permutations")):
            recorded = {k: protocol.get(k) for k in ran}
            assert recorded == ran, (
                f"reference protocol {recorded} differs from the run {ran}"
            )
            return entry
    raise AssertionError(f"no reference entry for {ran}")


def _check_power_row(label, result):
    config = result.config
    entry = _reference_entry(config)
    pinned = PINNED_POWER_UNRECORDED[(config.latent, config.error_dist)]
    cells, bad = [], []
    for test, pin in zip(TESTS, pinned):
        measured = result.estimates[test].rate
        ref = entry["estimates"][test]
        r = ref["rate"]
        bound = BONFERRONI_Z * np.sqrt(
            ref["std_error"] ** 2 + r * (1.0 - r) / config.replications
        )
        cells.append(f"{test} {measured:.3f}/{r:.3f}/{pin:.3f} (+/-{bound:.3f})")
        if abs(measured - r) > bound:
            bad.append(test)
    detail = "measured/reference/pinned: " + "  ".join(cells)
    if bad:
        detail += f"  [outside the bound: {', '.join(bad)}]"
    _verdict(label, not bad, detail)


# ---------------------------------------------------------------------------
# power rows


def test_power_constant_effect_normal_row(profile):
    _, result = _run_study(profile, SEED_BASE + 1)
    _check_power_row("power row homogeneous/normal", result)


def test_power_heterogeneous_normal_row(profile):
    _, result = _run_study(profile, SEED_BASE + 2, latent="heterogeneous")
    _check_power_row("power row heterogeneous/normal", result)


@pytest.mark.parametrize("latent,error_dist", TAIL_ROWS)
def test_power_remaining_rows(profile, latent, error_dist):
    seed = SEED_BASE + 10 + TAIL_ROWS.index((latent, error_dist))
    _, result = _run_study(profile, seed, latent=latent, error_dist=error_dist)
    _check_power_row(f"power row {latent}/{error_dist}", result)


# ---------------------------------------------------------------------------
# null rejection rates


def test_level_homogeneous_continuous(profile):
    rates, _ = _run_study(
        profile, SEED_BASE + 30, gamma=0.0, replications=profile.level_replications
    )
    bad = [t for t in TESTS if abs(rates[t] - 0.05) > 0.01]
    detail = "target 0.05 +/- 0.01: " + "  ".join(
        f"{t} {rates[t]:.4f}" for t in TESTS
    )
    _verdict("level homogeneous", not bad, detail)


def test_level_heterogeneous_continuous(profile):
    """Null rejection rates on the heterogeneous design, all at 0.05 +/- 0.01.

    At gamma = 0 the continuous family gives y1 == y0, so the sharp null
    holds.  The observed assignment and the B = 999 null draws are then
    i.i.d. uniform on the same within-stratum orbit, the add-one p-value of
    ``stratified_diff_means`` has an exactly uniform rank, and
    P(p <= 0.05) = 50/1000 for every latent and every error law.  That is the
    argument ``test_level_homogeneous_continuous`` and
    ``test_exact_pvalues_super_uniform`` rest on as well; nothing about the
    heterogeneous latent changes it.
    """
    rates, _ = _run_study(
        profile,
        SEED_BASE + 31,
        gamma=0.0,
        latent="heterogeneous",
        replications=profile.level_replications,
    )
    bad = [t for t in TESTS if abs(rates[t] - 0.05) > 0.01]
    detail = "target 0.05 +/- 0.01: " + "  ".join(
        f"{t} {rates[t]:.4f}" for t in TESTS
    )
    _verdict("level heterogeneous", not bad, detail)


def test_level_discrete(profile):
    rates, _ = _run_study(
        profile,
        SEED_BASE + 32,
        gamma=0.0,
        family="discrete",
        replications=profile.level_replications,
        tests=("stratified_diff_means",),
    )
    rate = rates["stratified_diff_means"]
    _verdict(
        "level discrete",
        abs(rate - 0.035) <= 0.01,
        f"stratified target 0.035 +/- 0.01: measured {rate:.4f}",
    )


# ---------------------------------------------------------------------------
# sample-ATE calibration


def test_sample_ate_calibration(profile):
    targets = {0.0: 0.0, 0.05: 0.34, 0.1: 0.68, 0.15: 1.02, 0.2: 1.36}
    cells, bad = [], []
    for offset, (gamma, target) in enumerate(sorted(targets.items())):
        _, result = _run_study(
            profile,
            SEED_BASE + 40 + offset,
            gamma=gamma,
            replications=profile.ate_replications,
            permutations=99,
            tests=("ancova",),
        )
        ate = result.mean_sample_ate
        cells.append(f"gamma {gamma:g}: {ate:.4f}/{target:g}")
        if abs(ate - target) > 0.03:
            bad.append(f"gamma {gamma:g}")
    detail = "mean sample ATE vs target at tol 0.03: " + "  ".join(cells)
    if bad:
        detail += f"  [off: {', '.join(bad)}]"
    _verdict("sample-ATE calibration", not bad, detail)


# ---------------------------------------------------------------------------
# nonlinear scenario


def test_nonlinear_parity_and_stratified_deficit(profile):
    tests = ("ancova", "lm_permutation", "stratified_diff_means")
    rates, _ = _run_study(profile, SEED_BASE + 50, family="nonlinear", tests=tests)
    a, lm, strat = (rates[t] for t in tests)
    parity = abs(a - lm) <= 0.015
    deficit = strat <= min(a, lm) - 0.05
    detail = (
        f"ancova {a:.3f}, lm {lm:.3f} (|diff| {abs(a - lm):.4f} <= 0.015), "
        f"stratified {strat:.3f} (needs <= {min(a, lm) - 0.05:.3f})"
    )
    _verdict("nonlinear scenario", parity and deficit, detail)


# ---------------------------------------------------------------------------
# exactness on a fully enumerable design


PERMUTATION_METHODS = tuple(name for name in METHODS if name != "ancova")
# Tests whose re-randomization orbit is the 36-assignment set; these are
# randomization tests proper and carry the exactness guarantee.  The
# residual-permutation variants are approximations by construction and are
# checked only for Monte Carlo / enumeration agreement below.
ASSIGNMENT_ORBIT_METHODS = (
    "stratified_diff_means",
    "stratified_sum_abs",
    "change_scores",
    "lm_permutation",
)

LAYOUT_44 = StratumLayout.from_counts((4, 4), (2, 2))


def _null_trial(rng):
    strata = np.repeat(["a", "b"], 4)
    z = sample_assignments(LAYOUT_44, rng, 1)[0]
    x = rng.normal(size=8)
    y = 0.5 * x + rng.normal(size=8)
    return TrialData.from_arrays(strata, z, x, y)


def test_exact_pvalues_super_uniform(profile):
    rng = np.random.default_rng(SEED_BASE + 60)
    draws = 500
    collected = {name: [] for name in ASSIGNMENT_ORBIT_METHODS}
    for _ in range(draws):
        data = _null_trial(rng)
        for name in ASSIGNMENT_ORBIT_METHODS:
            plan = PermutationPlan(layout=data.layout, mode="exact", master_seed=0)
            collected[name].append(METHODS[name](data, plan).p_value.value)
    ok = True
    tightest = ("", -np.inf)
    for name, values in collected.items():
        pvals = np.asarray(values)
        for alpha in np.unique(pvals):
            frac = float(np.mean(pvals <= alpha + 1e-12))
            slack = 3.0 * np.sqrt(alpha * (1 - alpha) / draws) + 1.0 / draws
            excess = frac - alpha - slack
            if excess > tightest[1]:
                tightest = (f"{name} at alpha {alpha:.3f}", excess)
            if excess > 0:
                ok = False
    _verdict(
        "exactness: super-uniform null p-values",
        ok,
        f"{len(ASSIGNMENT_ORBIT_METHODS)} assignment-orbit tests x {draws} "
        f"sharp-null datasets; tightest margin {tightest[1]:+.4f} "
        f"({tightest[0]}, negative is inside the bound)",
    )


def test_exactness_monte_carlo_tracks_exact(profile):
    rng = np.random.default_rng(SEED_BASE + 61)
    b = 10_000
    worst = -np.inf
    ok = True
    rows = []
    for index in range(3):
        data = _null_trial(rng)
        for name in PERMUTATION_METHODS:
            exact_plan = PermutationPlan(
                layout=data.layout, mode="exact", master_seed=0
            )
            mc_plan = PermutationPlan(
                layout=data.layout,
                mode="monte_carlo",
                draws=b,
                master_seed=SEED_BASE + 62 + index,
            )
            exact = METHODS[name](data, exact_plan).p_value.value
            mc = METHODS[name](data, mc_plan).p_value.value
            bound = 3.0 * np.sqrt(exact * (1 - exact) / b) + 1e-12
            gap = abs(mc - exact)
            worst = max(worst, gap - bound)
            if gap > bound:
                ok = False
                rows.append(f"{name}[{index}] exact {exact:.4f} mc {mc:.4f}")
    detail = (
        f"B={b} across 3 datasets x {len(PERMUTATION_METHODS)} tests; "
        f"worst gap-minus-bound {worst:+.5f}"
    )
    if rows:
        detail += "; offenders: " + ", ".join(rows)
    _verdict("exactness: Monte Carlo tracks enumeration", ok, detail)


# ---------------------------------------------------------------------------
# numerical kernels


def test_numerical_kernels(profile):
    rng = np.random.default_rng(SEED_BASE + 70)
    worst_coef = worst_fit_t = 0.0
    for _ in range(50):
        n_strata = int(rng.integers(2, 5))
        sizes = rng.integers(4, 9, n_strata)
        strata = np.repeat(np.arange(n_strata), sizes)
        n = strata.size
        z = np.zeros(n, dtype=np.int8)
        for j in range(n_strata):
            members = np.flatnonzero(strata == j)
            z[rng.choice(members, members.size // 2, replace=False)] = 1
        x = rng.normal(size=n)
        y = rng.normal(size=n)
        design = build_design(strata, x, z)
        fit = fit_least_squares(design, y)
        m = design.matrix
        direct = np.linalg.solve(m.T @ m, m.T @ y)
        worst_coef = max(worst_coef, float(np.max(np.abs(fit.coefficients - direct))))
        # The package's closed-form ANCOVA t against the textbook one.
        resid = y - m @ direct
        cov_tt = resid @ resid / fit.df * np.linalg.inv(m.T @ m)[-1, -1]
        t_ref = direct[-1] / np.sqrt(cov_tt)
        t_fit = METHODS["ancova"](TrialData.from_arrays(strata, z, x, y)).statistic
        worst_fit_t = max(worst_fit_t, abs(t_fit - t_ref) / abs(t_ref))

    grid = np.linspace(0.1, 5.0, 50)
    worst_t = 0.0
    for t in grid:
        closed_df1 = 1.0 - (2.0 / np.pi) * np.arctan(t)
        closed_df2 = 1.0 - t / np.sqrt(2.0 + t * t)
        worst_t = max(
            worst_t,
            abs(student_t_two_sided_p(t, 1) - closed_df1),
            abs(student_t_two_sided_p(t, 2) - closed_df2),
        )

    ok = worst_coef <= 1e-8 and worst_fit_t <= 1e-8 and worst_t <= 1e-8
    _verdict(
        "numerical kernels",
        ok,
        f"normal-equations max err {worst_coef:.2e} (<=1e-8), "
        f"closed-form ANCOVA t max rel err {worst_fit_t:.2e} (<=1e-8), "
        f"t closed-form max err {worst_t:.2e} (<=1e-8)",
    )


# ---------------------------------------------------------------------------
# determinism


def _write_acceptance_trial(tmp_path):
    rng = np.random.default_rng(SEED_BASE + 80)
    strata = np.repeat(["a", "b", "c"], 8)
    z = np.tile([1, 0], 12).astype(np.int8)
    x = rng.normal(5, 1, 24)
    dataset = TrialDataset.build(
        strata, z, {"pain": x}, {"pain": x + 0.4 * z + rng.normal(0, 1, 24)}
    )
    path = tmp_path / "trial.csv"
    write_trial_csv(dataset, path)
    return path


def test_determinism_across_workers(profile, tmp_path):
    scenario = {
        "id": "det",
        "family": "continuous",
        "latent": "homogeneous",
        "error_dist": "normal",
        "gamma": 0.2,
        "sizes": [8, 8],
        "treated": [4, 4],
        "replications": 60,
        "permutations": 199,
        "tests": ["ancova", "stratified_diff_means", "freedman_lane"],
        "seed": 424242,
    }
    spath = tmp_path / "det.json"
    spath.write_text(json.dumps(scenario))
    outputs = []
    for workers in (1, 4, 16):
        csv_out = tmp_path / f"out{workers}.csv"
        json_out = tmp_path / f"out{workers}.json"
        code = main(
            [
                "simulate",
                "--scenario",
                str(spath),
                "--out",
                str(csv_out),
                "--json",
                str(json_out),
                "--workers",
                str(workers),
            ]
        )
        assert code == 0
        outputs.append(csv_out.read_bytes() + json_out.read_bytes())
    sim_ok = outputs[0] == outputs[1] == outputs[2]

    trial = _write_acceptance_trial(tmp_path)
    reports = []
    for run in ("r1.json", "r2.json"):
        out = tmp_path / run
        code = main(
            [
                "analyze",
                "--input",
                str(trial),
                "--permutations",
                "499",
                "--seed",
                "7",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        reports.append(out.read_bytes())
    ana_ok = reports[0] == reports[1]
    _verdict(
        "determinism",
        sim_ok and ana_ok,
        f"simulate bit-identical across workers 1/4/16: {sim_ok}; "
        f"analyze bit-identical across reruns: {ana_ok}",
    )


# ---------------------------------------------------------------------------
# clinical trial round trip


def test_clinical_csv_pipeline(profile, tmp_path):
    # No clinical export ships with this repository.  If one is dropped into
    # data/ it is analyzed end to end here; otherwise the same pipeline is
    # exercised on synthetic data: a lossless CSV round trip plus a complete,
    # reproducible report.
    data_dir = Path(__file__).resolve().parents[1] / "data"
    external = sorted(data_dir.glob("*.csv")) if data_dir.is_dir() else []
    if external:
        dataset = load_trial_csv(external[0])
        report = run_analysis(dataset, TESTS, permutations=profile.permutations,
                              master_seed=0)
        lines = "  ".join(
            f"{r['endpoint']}/{r['method']} p={r['p_value']:.3f}"
            for r in report.rows
        )
        _verdict(
            "clinical pipeline",
            len(report.rows) == len(dataset.endpoint_names) * len(TESTS),
            f"analyzed {external[0].name}: {lines}",
        )
        return

    rng = np.random.default_rng(SEED_BASE + 90)
    strata = np.repeat(["s1", "s2", "s3"], 10)
    z = np.tile([1, 0], 15).astype(np.int8)
    endpoints = {}
    outcomes = {}
    for name in ("daily_hrdq", "night_hrdq", "regurgitation"):
        x = rng.normal(2.0, 0.8, 30)
        endpoints[name] = x
        outcomes[name] = x - 0.5 * z + rng.normal(0, 0.6, 30)
    dataset = TrialDataset.build(strata, z, endpoints, outcomes)
    path = tmp_path / "synthetic_trial.csv"
    write_trial_csv(dataset, path)
    reloaded = load_trial_csv(path, control_label="control")
    round_trip = all(
        np.array_equal(dataset.endpoints[n].x, reloaded.endpoints[n].x)
        and np.array_equal(dataset.endpoints[n].y, reloaded.endpoints[n].y)
        and np.array_equal(dataset.endpoints[n].z, reloaded.endpoints[n].z)
        for n in dataset.endpoint_names
    )
    report_a = run_analysis(reloaded, TESTS, permutations=499, master_seed=3)
    report_b = run_analysis(reloaded, TESTS, permutations=499, master_seed=3)
    complete = len(report_a.rows) == 3 * len(TESTS) and all(
        0.0 < row["p_value"] <= 1.0 for row in report_a.rows
    )
    reproducible = report_to_json(report_a) == report_to_json(report_b)
    provenance = report_a.provenance["input_sha256"] == reloaded.source_digest
    ok = round_trip and complete and reproducible and provenance
    _verdict(
        "clinical pipeline",
        ok,
        "no external dataset present; synthetic fallback: "
        f"round trip {round_trip}, report complete {complete}, "
        f"reproducible {reproducible}, digest recorded {provenance}",
    )
