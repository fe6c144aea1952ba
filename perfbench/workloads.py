"""The benchmark's workloads: inputs made from the seed, one timed pass, checks.

Every workload enters the package through a public entry point: the
``stratperm`` command line (``stratperm.cli.main``) for the power study and
the trial analysis, and the ``METHODS`` registry with exact plans for the
enumeration workload.  The package receives only files and arrays.

A pass is a fixed amount of work.  ``run_pass`` is the timed part and returns
what the program produced; ``check_pass`` runs after the clock stops and
returns the number of operations attempted and failed.  An operation is one
replication, one (endpoint, method) report row, or one exact (trial, test)
call.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from stratperm import cli
from stratperm.hypothesis_tests import METHODS, TrialData
from stratperm.randomization import (
    PermutationPlan,
    count_assignments,
    count_within_stratum_permutations,
)

ALPHA = 0.05
# The package rejects on p <= alpha with this float slack (simulation.py).
ALPHA_SLACK = 1e-12
# Two-sided tail probability of the null-rejection band on simulate_null.
BAND_TAIL = 1e-6
DEFAULT_TESTS = ("ancova", "stratified_diff_means", "lm_permutation", "freedman_lane")
ASSIGNMENT_TESTS = ("stratified_diff_means", "stratified_sum_abs", "change_scores",
                    "lm_permutation")
RESIDUAL_TESTS = ("freedman_lane", "kennedy", "manly")
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              "exact_reference.json")


@dataclass(frozen=True)
class Scale:
    """Workload sizes.  ``FULL`` is the benchmark; ``TINY`` is for its self-test."""

    name: str
    sim_sizes: tuple
    sim_treated: tuple
    sim_permutations: int
    sim_reps_per_pass: int
    # (label, subjects, treated fraction) per stratum
    analyze_strata: tuple
    analyze_permutations: int
    exact_assignment: tuple  # (sizes, treated) for the assignment-orbit tests
    exact_permutation: tuple  # (sizes, treated) for the residual tests


FULL = Scale(
    name="full",
    sim_sizes=(16, 16, 16),
    sim_treated=(8, 8, 8),
    sim_permutations=10_000,
    sim_reps_per_pass=16,
    analyze_strata=(("north", 700, 0.5), ("south", 600, 0.35),
                    ("east", 450, 0.6), ("west", 250, 0.28)),
    analyze_permutations=10_000,
    # Orbits of 29,400 assignments and 69,120 permutations: a pass takes
    # about 3 s, so a run holds several passes and reports their median.
    exact_assignment=((8, 8, 4), (4, 4, 2)),
    exact_permutation=((5, 4, 4), (3, 2, 2)),
)

TINY = Scale(
    name="tiny",
    sim_sizes=(6, 6, 6),
    sim_treated=(3, 3, 3),
    sim_permutations=99,
    sim_reps_per_pass=2,
    analyze_strata=(("north", 30, 0.5), ("south", 24, 0.35),
                    ("east", 16, 0.6), ("west", 10, 0.3)),
    analyze_permutations=99,
    exact_assignment=((4, 4, 3), (2, 2, 1)),
    exact_permutation=((3, 3, 3), (1, 2, 1)),
)

SCALES = {s.name: s for s in (FULL, TINY)}


def sub_seed(seed: int, *key: int) -> int:
    """A 31-bit seed derived from the workload seed and a key."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint32)[0] >> 1)


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


@contextlib.contextmanager
def _capture(module, attr: str):
    """Record every return value of ``module.attr`` while the block runs."""
    inner = getattr(module, attr)
    got = []

    def capture(*args, **kwargs):
        result = inner(*args, **kwargs)
        got.append(result)
        return result

    setattr(module, attr, capture)
    try:
        yield got
    finally:
        setattr(module, attr, inner)


def is_mc_grid(p: float, draws: int) -> bool:
    """p == (k + 1) / (draws + 1) for an integer k >= 0."""
    scaled = p * (draws + 1)
    return abs(scaled - round(scaled)) < 1e-6 and round(scaled) >= 1


def rejection_band(n: int, alpha: float = ALPHA, tail: float = BAND_TAIL):
    """[lo, hi] with P(X < lo) and P(X > hi) each at most tail / 2, X ~ Bin(n, alpha).

    Computed here rather than with scipy.stats, whose import would double
    the measured set-up time.
    """
    log_a, log_b = math.log(alpha), math.log1p(-alpha)
    pmf = [
        math.exp(math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
                 + k * log_a + (n - k) * log_b)
        for k in range(n + 1)
    ]
    lo, below = 0, pmf[0]
    while below <= tail / 2:
        lo += 1
        below += pmf[lo]
    hi, above = n, pmf[n]
    while above <= tail / 2:
        hi -= 1
        above += pmf[hi]
    return lo, hi


# ---------------------------------------------------------------------------
# simulate_power / simulate_null


def check_power_study(p_values, tests, permutations, csv_rows, reps):
    """Per-replication failures of one ``simulate`` pass.

    ``p_values`` is the (replications, tests) matrix the engine returned and
    ``csv_rows`` the rows of the results CSV the command wrote.  Returns a
    list of problems (empty when correct) and a boolean per replication.
    """
    p_values = np.asarray(p_values, dtype=float)
    problems = []
    rep_ok = np.ones(p_values.shape[0], dtype=bool)
    if p_values.shape != (reps, len(tests)):
        return [f"p-value matrix has shape {p_values.shape}"], np.zeros(reps, bool)
    for col, test in enumerate(tests):
        column = p_values[:, col]
        bad = ~((column > 0.0) & (column <= 1.0))
        if test != "ancova":
            bad |= ~np.array([is_mc_grid(p, permutations) for p in column], dtype=bool)
        if bad.any():
            problems.append(f"{test}: {int(bad.sum())} p-values off (0, 1] or off the add-one grid")
        rep_ok &= ~bad
    by_test = {row["test"]: row for row in csv_rows}
    for col, test in enumerate(tests):
        row = by_test.get(test)
        expected = int(np.count_nonzero(p_values[:, col] <= ALPHA + ALPHA_SLACK))
        if row is None or int(row["rejections"]) != expected or int(row["replications"]) != reps:
            problems.append(f"{test}: CSV rejections do not match the p-values")
            rep_ok[:] = False
    return problems, rep_ok


class Simulate:
    """``stratperm simulate`` on the paper's continuous homogeneous normal cell."""

    min_passes = 1

    def __init__(self, gamma: float, seed: int, scale: Scale, workdir: str):
        self.gamma = gamma
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.tests = DEFAULT_TESTS
        self.rejections = np.zeros(len(self.tests), dtype=int)
        self.replications = 0
        self.ops_per_pass = scale.sim_reps_per_pass
        # The parametric test draws nothing.
        self.draws_per_pass = (scale.sim_reps_per_pass * scale.sim_permutations
                               * (len(self.tests) - 1))
        self.tracer = None
        self._rep = 0

    def _scenario(self, path, replications, permutations):
        scale = self.scale
        scenario = {
            "id": f"gamma{self.gamma}",
            "family": "continuous",
            "latent": "homogeneous",
            "error_dist": "normal",
            "gamma": self.gamma,
            "sizes": list(scale.sim_sizes),
            "treated": list(scale.sim_treated),
            "replications": replications,
            "permutations": permutations,
            "tests": list(self.tests),
            "alpha": ALPHA,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(scenario, fh)

    def setup(self):
        self.scenario = os.path.join(self.workdir, "scenario.json")
        self._scenario(self.scenario, self.scale.sim_reps_per_pass,
                       self.scale.sim_permutations)
        self.out = os.path.join(self.workdir, "power.csv")

    def warm_up(self):
        path = os.path.join(self.workdir, "warm.json")
        self._scenario(path, 1, 99)
        _quiet_main(["simulate", "--scenario", path, "--out", self.out,
                     "--seed", str(sub_seed(self.seed, 999_999)), "--workers", "1"])

    def unit_key(self, name, args):
        if name == "simulation.generate_population":
            self._rep += 1
            return f"replication {self._rep}"
        return None

    def run_pass(self, index: int):
        self._rep = 0
        with _capture(cli, "run_power_study") as got:
            rc = _quiet_main(["simulate", "--scenario", self.scenario, "--out", self.out,
                              "--seed", str(sub_seed(self.seed, index)), "--workers", "1"])
        return rc, got

    def check_pass(self, raw):
        rc, got = raw
        reps = self.scale.sim_reps_per_pass
        if rc != 0 or len(got) != 1:
            return reps, reps, [f"simulate exited {rc} with {len(got)} results"]
        with open(self.out, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        p_values = got[0].p_values
        problems, rep_ok = check_power_study(
            p_values, self.tests, self.scale.sim_permutations, rows, reps)
        self.replications += reps
        self.rejections += np.count_nonzero(p_values <= ALPHA + ALPHA_SLACK, axis=0)
        return reps, int(np.count_nonzero(~rep_ok)), problems

    def finish(self):
        """Run-level checks: null rejection rates within the binomial band."""
        if self.gamma != 0.0:
            return []
        lo, hi = rejection_band(self.replications)
        return [
            f"{test}: {k} rejections in {self.replications} null replications, "
            f"outside [{lo}, {hi}]"
            for test, k in zip(self.tests, self.rejections)
            if not lo <= k <= hi
        ]


# ---------------------------------------------------------------------------
# analyze_large


def write_trial_csv(path: str, seed: int, strata) -> None:
    """Synthetic two-endpoint trial with unequal strata and treated fractions."""
    rng = np.random.default_rng(seed)
    rows = []
    for j, (label, size, fraction) in enumerate(strata):
        treated = int(round(size * fraction))
        z = rng.permutation(np.r_[np.ones(treated, int), np.zeros(size - treated, int)])
        x1 = rng.normal(50.0 + 5.0 * j, 10.0, size)
        y1 = 0.7 * x1 + 2.0 * z + rng.normal(0.0, 8.0, size)
        x2 = rng.gamma(2.0, 1.5, size)
        y2 = 0.5 * x2 + 0.1 * z + rng.normal(0.0, 1.0, size)
        for i in range(size):
            rows.append((label, z[i], x1[i], y1[i], x2[i], y2[i]))
    order = rng.permutation(len(rows))
    lines = ["subject,stratum,treatment,baseline_primary,outcome_primary,"
             "baseline_secondary,outcome_secondary"]
    for n, k in enumerate(order):
        label, z, x1, y1, x2, y2 = rows[k]
        arm = "treated" if z else "control"
        lines.append(f"P{n + 1:05d},{label},{arm},{float(x1)!r},{float(y1)!r},"
                     f"{float(x2)!r},{float(y2)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def check_report(report: dict, endpoints, methods, permutations):
    """Problems with one analysis report and a boolean per expected row."""
    problems = []
    seen = {}
    for row in report.get("rows", []):
        seen.setdefault((row["endpoint"], row["method"]), []).append(row)
    ok = []
    for endpoint in endpoints:
        for method in methods:
            rows = seen.get((endpoint, method), [])
            good = len(rows) == 1
            if good:
                row = rows[0]
                p = row["p_value"]
                good = 0.0 < p <= 1.0
                if row["p_mode"] == "monte_carlo":
                    good = good and row["draws"] == permutations and is_mc_grid(p, permutations)
                else:
                    good = good and method == "ancova" and row["p_mode"] == "analytic"
            if not good:
                problems.append(f"row ({endpoint}, {method}) missing, duplicated or wrong")
            ok.append(good)
    if len(report.get("rows", [])) != len(ok):
        problems.append("report has rows beyond one per (endpoint, method)")
        ok = [False] * len(ok)
    # freedman_lane brings the exchangeability diagnostic, one per endpoint.
    diags = report.get("exchangeability", [])
    wanted = list(endpoints) if "freedman_lane" in methods else []
    if ([d["endpoint"] for d in diags] != wanted
            or not all(0.0 < d["p_value"] <= 1.0 for d in diags)):
        problems.append("exchangeability diagnostics missing or p outside (0, 1]")
        ok = [False] * len(ok)
    return problems, ok


class Analyze:
    """``stratperm analyze --out report.json`` on a 2,000-subject trial CSV."""

    min_passes = 2  # reruns must give byte-identical reports
    endpoints = ("primary", "secondary")

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.methods = DEFAULT_TESTS
        self.ops_per_pass = len(self.endpoints) * len(self.methods)
        # Per endpoint: every method but the parametric one, plus the
        # exchangeability diagnostic that freedman_lane brings.
        self.draws_per_pass = (len(self.endpoints) * (len(self.methods) - 1 + 1)
                               * scale.analyze_permutations)
        self.tracer = None
        self.first_report = None
        self._endpoint = {}

    def setup(self):
        self.csv = os.path.join(self.workdir, "trial.csv")
        write_trial_csv(self.csv, self.seed, self.scale.analyze_strata)
        self.out = os.path.join(self.workdir, "report.json")

    def warm_up(self):
        _quiet_main(["analyze", "--input", self.csv, "--permutations", "99",
                     "--out", self.out, "--seed", "0"])

    def unit_key(self, name, args):
        if args and isinstance(args[0], TrialData):
            data = args[0]
            return self._endpoint.setdefault(id(data), f"endpoint {len(self._endpoint)}")
        return None

    def run_pass(self, index: int):
        self._endpoint = {}
        return _quiet_main(["analyze", "--input", self.csv, "--out", self.out,
                            "--permutations", str(self.scale.analyze_permutations),
                            "--seed", str(sub_seed(self.seed, 1))])

    def check_pass(self, rc):
        n = self.ops_per_pass
        if rc != 0:
            return n, n, [f"analyze exited {rc}"]
        with open(self.out, "rb") as fh:
            blob = fh.read()
        problems, ok = check_report(json.loads(blob), self.endpoints, self.methods,
                                    self.scale.analyze_permutations)
        if self.first_report is None:
            self.first_report = blob
        elif blob != self.first_report:
            problems.append("report differs from the first pass's report")
            ok = [False] * len(ok)
        return n, ok.count(False), problems

    def finish(self):
        return []


# ---------------------------------------------------------------------------
# exact_orbit


def make_trial(rng, sizes, treated) -> TrialData:
    strata = np.repeat(np.arange(len(sizes)), sizes)
    z = np.concatenate([
        rng.permutation(np.r_[np.ones(t, np.int8), np.zeros(n - t, np.int8)])
        for n, t in zip(sizes, treated)
    ])
    x = rng.normal(0.0, 1.0, strata.size)
    y = x + 0.8 * z + rng.normal(0.0, 1.0, strata.size)
    return TrialData.from_arrays(strata, z, x, y)


def load_reference(scale: Scale, seed: int):
    """Stored exceedance counts for this seed, or None if none are stored."""
    if not os.path.exists(REFERENCE_PATH):
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        stored = json.load(fh)
    return stored.get(scale.name, {}).get(str(seed))


def check_exact(records, counts, reference):
    """Problems with one exact pass and a boolean per (trial, test) call.

    ``records`` maps "trial/test" to (exceedances, draws, p, mode); ``counts``
    maps the trial to its orbit size.
    """
    problems = []
    ok = []
    for key, (k, draws, p, mode) in records.items():
        trial = key.split("/")[0]
        good = (
            mode == "exact"
            and draws == counts[trial]
            and 1 <= k <= draws
            and math.isclose(p, k / draws, rel_tol=1e-12)
        )
        if good and reference is not None and reference.get(key) != k:
            problems.append(f"{key}: {k} exceedances, reference {reference.get(key)}")
            good = False
        elif not good:
            problems.append(f"{key}: k={k} draws={draws} p={p} mode={mode}, "
                            f"orbit has {counts[trial]}")
        ok.append(good)
    return problems, ok


class Exact:
    """Exact plans through ``METHODS`` on two small fully enumerable trials."""

    min_passes = 1

    def __init__(self, seed: int, scale: Scale, workdir: str):
        self.seed = seed
        self.scale = scale
        self.tracer = None
        self.ops_per_pass = len(ASSIGNMENT_TESTS) + len(RESIDUAL_TESTS)
        self.first = None
        self.reference = load_reference(scale, seed)

    def _trials(self, seed, scale):
        rng = np.random.default_rng(seed)
        assignment = make_trial(rng, *scale.exact_assignment)
        permutation = make_trial(rng, *scale.exact_permutation)
        return [("assignment", assignment, ASSIGNMENT_TESTS,
                 count_assignments(assignment.layout)),
                ("permutation", permutation, RESIDUAL_TESTS,
                 count_within_stratum_permutations(permutation.layout))]

    def setup(self):
        self.trials = self._trials(self.seed, self.scale)
        self.counts = {name: count for name, _, _, count in self.trials}
        self.draws_per_pass = sum(count * len(tests) for _, _, tests, count in self.trials)

    def warm_up(self):
        self._run(self._trials(sub_seed(self.seed, 999_999), TINY))

    def unit_key(self, name, args):
        return None

    def _run(self, trials):
        records = {}
        for trial, data, tests, _ in trials:
            plan = PermutationPlan(layout=data.layout, mode="exact")
            for test in tests:
                key = f"{trial}/{test}"
                if self.tracer is not None:
                    self.tracer.unit = key
                pv = METHODS[test](data, plan).p_value
                records[key] = (pv.exceedances, pv.draws, pv.value, pv.mode)
        return records

    def run_pass(self, index: int):
        if self.tracer is None:
            return self._run(self.trials)
        with self.tracer.span("bench.exact_calls"):
            return self._run(self.trials)

    def check_pass(self, records):
        problems, ok = check_exact(records, self.counts, self.reference)
        exceedances = {key: rec[0] for key, rec in records.items()}
        if self.first is None:
            self.first = exceedances
        elif exceedances != self.first:
            problems.append("exceedance counts differ between passes")
            ok = [False] * len(ok)
        return self.ops_per_pass, self.ops_per_pass - ok.count(True), problems

    def finish(self):
        return []


def make(name: str, seed: int, scale: Scale, workdir: str):
    if name == "simulate_power":
        return Simulate(0.2, seed, scale, workdir)
    if name == "simulate_null":
        return Simulate(0.0, seed, scale, workdir)
    if name == "analyze_large":
        return Analyze(seed, scale, workdir)
    if name == "exact_orbit":
        return Exact(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("simulate_power", "simulate_null", "analyze_large", "exact_orbit")
