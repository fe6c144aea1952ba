"""Data-generating processes and the replication engine for power studies.

Each scenario draws a stratified population from a latent log-scale variable,
assigns treatment within strata, runs the requested tests, and tallies
rejection rates.  Replication r derives all of its randomness from
(master_seed, r), so the same seed gives bit-identical results no matter how
replications are scheduled across worker processes.

A power study needs only whether each p-value is at most alpha, so a
replication stops drawing once no remaining draw can change any test's
decision (:func:`~stratperm.hypothesis_tests.run_trial` with ``stop_at``;
Besag and Clifford 1991).  The rejection counts are those of a run over
every draw.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .hypothesis_tests import METHODS, TrialData, _check_names, run_trial
from .randomization import (
    PermutationPlan,
    StratumLayout,
    derive_seed,
    derive_stream,
    sample_assignments,
)
from .reporting import _atomic_write, _csv_text, _engine_provenance, _json_text

__all__ = [
    "FAMILIES",
    "LATENTS",
    "ERROR_DISTS",
    "ScenarioConfig",
    "Population",
    "PowerEstimate",
    "PowerStudyResult",
    "draw_latent",
    "draw_error",
    "generate_continuous_population",
    "generate_discrete_population",
    "generate_nonlinear_population",
    "generate_population",
    "run_power_study",
    "power_ratio_table",
    "load_scenario",
    "write_results_csv",
    "write_results_json",
]

FAMILIES = ("continuous", "discrete", "nonlinear")
LATENTS = ("homogeneous", "heterogeneous")
ERROR_DISTS = (
    "normal",
    "heteroskedastic_normal",
    "t2",
    "lognormal",
    "shifted_exponential",
)

# Latent ranges for the heterogeneous design: one per stratum, low to high.
_HETEROGENEOUS_RANGES = ((-4.0, -1.0), (-1.0, 1.0), (1.0, 4.0))

DEFAULT_TESTS = ("ancova", "stratified_diff_means", "lm_permutation", "freedman_lane")

# Rejection uses p <= alpha with a hair of float slack, since add-one
# p-values like 50/1000 should compare equal to a literal 0.05.
_ALPHA_SLACK = 1e-12


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything needed to reproduce one simulation scenario.

    ``layout``, the :class:`StratumLayout` of ``sizes`` and ``treated``, is
    built once, with the config.  It is not a field, so equality and
    ``asdict`` (the JSON output) see only the scenario's settings.
    """

    scenario_id: str
    family: str
    latent: str
    error_dist: str
    gamma: float
    sizes: tuple[int, ...] = (16, 16, 16)
    treated: tuple[int, ...] = (8, 8, 8)
    replications: int = 10_000
    permutations: int = 10_000
    tests: tuple[str, ...] = DEFAULT_TESTS
    alpha: float = 0.05
    master_seed: int | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(f"unknown family {self.family!r}; choose from {FAMILIES}")
        if self.latent not in LATENTS:
            raise ValueError(f"unknown latent {self.latent!r}; choose from {LATENTS}")
        if self.error_dist not in ERROR_DISTS:
            raise ValueError(
                f"unknown error_dist {self.error_dist!r}; choose from {ERROR_DISTS}"
            )
        if self.family == "discrete" and self.error_dist != "normal":
            raise ValueError(
                "the discrete family is only defined with normal errors"
            )
        if self.latent == "heterogeneous" and len(self.sizes) != 3:
            raise ValueError(
                "heterogeneous latent ranges are defined for exactly 3 strata"
            )
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("gamma must be a finite nonnegative number")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        counts = {"sizes": self.sizes, "treated": self.treated,
                  "replications": (self.replications,), "permutations": (self.permutations,),
                  "master_seed": () if self.master_seed is None else (self.master_seed,)}
        for name, values in counts.items():
            if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool)
                       for v in values):
                raise ValueError(f"{name} must be integral, got {getattr(self, name)!r}")
            # Kept as Python ints, so that the config serializes to JSON.
            values = tuple(int(v) for v in values)
            if name in ("sizes", "treated"):
                object.__setattr__(self, name, values)
            elif values:
                object.__setattr__(self, name, values[0])
        if self.replications < 1 or self.permutations < 1:
            raise ValueError("replications and permutations must be positive")
        _check_names(self.tests, METHODS)
        # Validates the sizes/treated pairing.
        object.__setattr__(self, "layout", StratumLayout.from_counts(self.sizes, self.treated))


@dataclass(frozen=True, eq=False)
class Population:
    """Complete potential-outcome table for one simulated population."""

    strata: np.ndarray
    v: np.ndarray
    eps: np.ndarray
    delta: np.ndarray
    x: np.ndarray
    y0: np.ndarray
    y1: np.ndarray

    @property
    def sample_ate(self) -> float:
        return float(np.mean(self.y1 - self.y0))


@dataclass(frozen=True)
class PowerEstimate:
    """Rejection rate of one test across replications, with its MC error."""

    test: str
    alpha: float
    replications: int
    rejections: int
    rate: float
    std_error: float


@dataclass(frozen=True, eq=False)
class PowerStudyResult:
    """Every replication's p-values, the draws behind them, and the tallies.

    ``p_values`` and ``draws_used`` are (replications, tests) arrays, the
    ``p_value.value`` and ``draws_used`` of each replication's
    :class:`~stratperm.hypothesis_tests.TestResult` per test.  A
    permutation test's p-value is (k + 1) / (B + 1), with k its exceedances
    among the first ``draws_used`` of the B = ``config.permutations`` draws.
    Where ``draws_used`` equals B it is the full-run p-value; where it is
    smaller the test was stopped once its decision was fixed, and the value
    is a lower bound on the full-run p-value that already lies above alpha.
    Rejections, p <= alpha, are therefore those of a full run.  The analytic
    ANCOVA test uses 0 draws.
    """

    config: ScenarioConfig
    estimates: dict
    p_values: np.ndarray
    draws_used: np.ndarray
    sample_ates: np.ndarray

    @property
    def mean_sample_ate(self) -> float:
        return float(self.sample_ates.mean())


def draw_latent(latent: str, stratum: int, size: int, stream: np.random.Generator):
    """Latent log-scale variable for one stratum.

    homogeneous: U(-4, 4) for every stratum.  heterogeneous: U(-4, -1),
    U(-1, 1), U(1, 4) for strata 0, 1, 2.
    """
    if latent == "homogeneous":
        return stream.uniform(-4.0, 4.0, size)
    if latent == "heterogeneous":
        if not 0 <= stratum < len(_HETEROGENEOUS_RANGES):
            raise ValueError(
                f"heterogeneous latent is defined for strata 0..2, got {stratum}"
            )
        lo, hi = _HETEROGENEOUS_RANGES[stratum]
        return stream.uniform(lo, hi, size)
    raise ValueError(f"unknown latent {latent!r}")


def draw_error(dist: str, size: int, stream: np.random.Generator, x=None):
    """One iid error vector.

    ``heteroskedastic_normal`` needs the covariate vector ``x``: the sd is 2
    where |x| > 1 and 1 elsewhere.  ``lognormal`` is the standard lognormal
    (not mean-centered); ``shifted_exponential`` is Exp(1) - 1.
    """
    if dist == "normal":
        return stream.standard_normal(size)
    if dist == "heteroskedastic_normal":
        if x is None:
            raise ValueError("heteroskedastic_normal errors need the covariate x")
        x = np.asarray(x, dtype=float)
        if x.shape != (size,):
            raise ValueError("x must have one value per drawn error")
        sd = np.where(np.abs(x) > 1.0, 2.0, 1.0)
        return stream.standard_normal(size) * sd
    if dist == "t2":
        return stream.standard_t(2, size)
    if dist == "lognormal":
        return stream.lognormal(0.0, 1.0, size)
    if dist == "shifted_exponential":
        return stream.exponential(1.0, size) - 1.0
    raise ValueError(f"unknown error distribution {dist!r}")


def _draw_v(config: ScenarioConfig, stream: np.random.Generator) -> np.ndarray:
    layout = config.layout
    v = np.empty(layout.n_units)
    for j, pos in enumerate(layout.stratum_positions()):
        v[pos] = draw_latent(config.latent, j, pos.size, stream)
    return v


def _eps_dist(config: ScenarioConfig) -> str:
    # The covariate's own error stays standard normal in the heteroskedastic
    # scenario; only the outcome error delta picks up the |x|-dependent scale.
    if config.error_dist == "heteroskedastic_normal":
        return "normal"
    return config.error_dist


def generate_continuous_population(
    config: ScenarioConfig, stream: np.random.Generator
) -> Population:
    """Constant-additive-effect family.

    X = (-g e^v + e^{v/2})/2 + eps and Y(z) = ((2z-1) g e^v + e^{v/2})/2 +
    delta, so Y(z) = g e^v z + X + (delta - eps): a unit's effect is g e^v
    and the baseline enters with coefficient one.  eps and delta both follow
    ``config.error_dist``, except that under ``heteroskedastic_normal`` eps
    stays N(0, 1) and only delta's sd depends on |x|.
    """
    layout = config.layout
    n = layout.n_units
    g = config.gamma
    v = _draw_v(config, stream)
    eps = draw_error(_eps_dist(config), n, stream)
    ev = np.exp(v)
    half = np.exp(v / 2.0)
    x = 0.5 * (-g * ev + half) + eps
    delta = draw_error(config.error_dist, n, stream, x=x)
    y0 = 0.5 * (-g * ev + half) + delta
    y1 = 0.5 * (g * ev + half) + delta
    return Population(
        strata=layout.codes.copy(), v=v, eps=eps, delta=delta, x=x, y0=y0, y1=y1
    )


def generate_discrete_population(
    config: ScenarioConfig, stream: np.random.Generator
) -> Population:
    """Continuous family with the fractional parts removed afterwards, by
    truncation toward zero."""
    base = generate_continuous_population(config, stream)
    return dataclasses.replace(
        base, x=np.trunc(base.x), y0=np.trunc(base.y0), y1=np.trunc(base.y1)
    )


def generate_nonlinear_population(
    config: ScenarioConfig, stream: np.random.Generator
) -> Population:
    """Multiplicative-effect family: Y(z) = (1+g)^z X + delta.

    X = (e^v + e^{v/2})/2 + eps.  eps and delta both follow
    ``config.error_dist``, except that under ``heteroskedastic_normal`` eps
    stays N(0, 1) and only delta's sd depends on |x|.
    """
    layout = config.layout
    n = layout.n_units
    g = config.gamma
    v = _draw_v(config, stream)
    eps = draw_error(_eps_dist(config), n, stream)
    x = 0.5 * (np.exp(v) + np.exp(v / 2.0)) + eps
    delta = draw_error(config.error_dist, n, stream, x=x)
    y0 = x + delta
    y1 = (1.0 + g) * x + delta
    return Population(
        strata=layout.codes.copy(), v=v, eps=eps, delta=delta, x=x, y0=y0, y1=y1
    )


_GENERATORS = {
    "continuous": generate_continuous_population,
    "discrete": generate_discrete_population,
    "nonlinear": generate_nonlinear_population,
}


def generate_population(config: ScenarioConfig, stream: np.random.Generator) -> Population:
    return _GENERATORS[config.family](config, stream)


# ---------------------------------------------------------------------------
# the replication engine


def _replication_inputs(config: ScenarioConfig, index: int):
    """Replication ``index``'s trial, its permutation plan and its sample ATE."""
    if config.master_seed is None:
        raise ValueError("scenario has no master seed")
    stream = derive_stream(config.master_seed, index)
    pop = generate_population(config, stream)
    layout = config.layout
    z = sample_assignments(layout, stream, 1)[0]
    y = np.where(z == 1, pop.y1, pop.y0)
    data = TrialData.from_arrays(pop.strata, z, pop.x, y)
    plan = PermutationPlan(
        layout=data.layout,
        mode="monte_carlo",
        draws=config.permutations,
        master_seed=derive_seed(config.master_seed, index, 1),
    )
    return data, plan, pop.sample_ate


def _stop_count(alpha: float, permutations: int) -> int:
    """The smallest exceedance count k that is not rejected: the first k
    with (k + 1) / (B + 1) > alpha + slack, found by testing that very
    expression (it grows with k); B + 1 if there is none."""
    lo, hi = 0, permutations + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if (mid + 1) / (permutations + 1) > alpha + _ALPHA_SLACK:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _replication_block(args):
    """p-value and draws used per test, and the sample ATE, of each of a
    block of replications, each test stopped once decided."""
    config, indices = args
    stop_at = _stop_count(config.alpha, config.permutations)
    block_p = np.empty((len(indices), len(config.tests)))
    block_draws = np.empty((len(indices), len(config.tests)), dtype=np.int64)
    block_ate = np.empty(len(indices))
    for row, index in enumerate(indices):
        data, plan, block_ate[row] = _replication_inputs(config, int(index))
        results = run_trial([data], plan, config.tests, stop_at)[0]
        block_p[row] = [results[name].p_value.value for name in config.tests]
        block_draws[row] = [results[name].draws_used for name in config.tests]
    return indices, block_p, block_draws, block_ate


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _map_blocks(jobs, workers: int):
    """:func:`_replication_block` of each job, in order; in a process pool
    when there is more than one worker."""
    if workers <= 1:
        yield from map(_replication_block, jobs)
        return
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        yield from pool.map(_replication_block, jobs)


def run_power_study(
    config: ScenarioConfig, workers: int = 1, progress=None
) -> PowerStudyResult:
    """Run every replication of one scenario and tally rejection rates.

    ``workers`` > 1 distributes replications across processes, at most one
    per usable CPU and per replication; results are merged by replication
    index, so the output is identical for any worker count.  ``progress``,
    if given, is called as progress(done, total) at block boundaries.
    """
    if config.master_seed is None:
        raise ValueError("scenario has no master seed; set one before running")
    r = config.replications
    k = len(config.tests)
    p_values = np.empty((r, k))
    draws_used = np.empty((r, k), dtype=np.int64)
    ates = np.empty(r)
    indices = np.arange(r)
    # Never more processes than usable CPUs or replications; the blocks below
    # then number at least as many as the workers.
    workers = min(workers, _usable_cpus(), r)
    jobs = [(config, b) for b in np.array_split(indices, max(1, min(r, workers * 4))) if b.size]
    done = 0
    for idx, bp, bd, ba in _map_blocks(jobs, workers):
        p_values[idx] = bp
        draws_used[idx] = bd
        ates[idx] = ba
        done += len(idx)
        if progress is not None:
            progress(done, r)

    estimates = {}
    for col, name in enumerate(config.tests):
        rejections = int(np.count_nonzero(p_values[:, col] <= config.alpha + _ALPHA_SLACK))
        rate = rejections / r
        estimates[name] = PowerEstimate(
            test=name,
            alpha=config.alpha,
            replications=r,
            rejections=rejections,
            rate=rate,
            std_error=float(np.sqrt(rate * (1.0 - rate) / r)),
        )
    return PowerStudyResult(config=config, estimates=estimates, p_values=p_values,
                            draws_used=draws_used, sample_ates=ates)


def power_ratio_table(result: PowerStudyResult, reference: str = "ancova") -> dict:
    """Each test's power as a ratio to the reference test's power."""
    if reference not in result.estimates:
        raise ValueError(f"reference test {reference!r} not among the estimates")
    ref = result.estimates[reference].rate
    if ref == 0.0:
        raise ValueError("reference test has zero power; ratios are undefined")
    return {name: est.rate / ref for name, est in result.estimates.items()}


# ---------------------------------------------------------------------------
# scenario files and result tables

# Scenario-file keys: ScenarioConfig's fields, two of them under shorter
# names; the fields without a default are required.
_RENAMED = {"scenario_id": "id", "master_seed": "seed"}
_SCENARIO_KEYS = {_RENAMED.get(f.name, f.name): f for f in dataclasses.fields(ScenarioConfig)}


def load_scenario(path) -> ScenarioConfig:
    """Read one scenario from a JSON file.

    Unknown keys are rejected (typo safety) and parse errors are reported
    with the file name and line number.
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path}:{err.lineno}: {err.msg}") from err
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scenario file must hold a JSON object")
    unknown = sorted(set(raw) - set(_SCENARIO_KEYS))
    if unknown:
        raise ValueError(f"{path}: unknown scenario keys {unknown}")
    missing = [k for k, f in _SCENARIO_KEYS.items()
               if f.default is dataclasses.MISSING and k not in raw]
    if missing:
        raise ValueError(f"{path}: missing required scenario keys {missing}")
    try:
        kwargs = {}
        for key, value in raw.items():
            field = _SCENARIO_KEYS[key].name
            if field in ("sizes", "treated", "tests"):
                if not isinstance(value, list):
                    raise ValueError(f"{key} must be a JSON array, got {value!r}")
                value = tuple(value)
            elif field in ("gamma", "alpha") and (
                    isinstance(value, bool) or not isinstance(value, (int, float))):
                raise ValueError(f"{key} must be a number, got {value!r}")
            kwargs[field] = value
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err


_CSV_COLUMNS = (
    "scenario", "family", "latent", "error_dist", "gamma", "test", "alpha",
    "replications", "rejections", "rate", "std_error", "mean_sample_ate",
)


def write_results_csv(results, path) -> None:
    """One row per (scenario, test); written atomically."""
    rows = [_CSV_COLUMNS]
    for res in results:
        cfg = res.config
        for name in cfg.tests:
            est = res.estimates[name]
            rows.append([
                cfg.scenario_id, cfg.family, cfg.latent, cfg.error_dist,
                repr(cfg.gamma), name, repr(est.alpha), est.replications,
                est.rejections, repr(est.rate), repr(est.std_error),
                repr(res.mean_sample_ate),
            ])
    _atomic_write(path, _csv_text(rows))


def write_results_json(results, path) -> None:
    """Config echo plus full-precision estimates, each with the mean draws a
    replication used, and the draw scheme; written atomically."""
    payload = []
    for res in results:
        cfg = dataclasses.asdict(res.config)
        payload.append(
            {
                "config": cfg,
                "mean_sample_ate": res.mean_sample_ate,
                "estimates": {
                    name: dict(dataclasses.asdict(est), mean_draws=float(
                        res.draws_used[:, res.config.tests.index(name)].mean()))
                    for name, est in res.estimates.items()
                },
            }
        )
    _atomic_write(path, _json_text({"provenance": _engine_provenance(), "results": payload}))
