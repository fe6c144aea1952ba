"""Data-generating processes and the replication engine for power studies.

Each scenario draws a stratified population from a latent log-scale variable,
assigns treatment within strata, runs the requested tests, and tallies
rejection rates.  Replication r derives all of its randomness from
(master_seed, r), so the same seed gives bit-identical results no matter how
replications are scheduled across worker processes.
"""

from __future__ import annotations

import dataclasses
import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .hypothesis_tests import METHODS, TrialData, run_battery
from .randomization import (
    PermutationPlan,
    StratumLayout,
    derive_seed,
    derive_stream,
    sample_assignments,
)
from .reporting import _atomic_write

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
    """Everything needed to reproduce one simulation scenario."""

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
    rounding: str = "truncate"

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
        if self.rounding not in ("truncate", "floor"):
            raise ValueError(f"unknown rounding {self.rounding!r}")
        if not (np.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError("gamma must be a finite nonnegative number")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        if self.replications < 1 or self.permutations < 1:
            raise ValueError("replications and permutations must be positive")
        unknown = [t for t in self.tests if t not in METHODS]
        if unknown:
            raise ValueError(f"unknown tests {unknown}; choose from {sorted(METHODS)}")
        # Validates sizes/treated pairing.
        StratumLayout.from_counts(self.sizes, self.treated)

    @property
    def layout(self) -> StratumLayout:
        return StratumLayout.from_counts(self.sizes, self.treated)


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
    config: ScenarioConfig
    estimates: dict
    p_values: np.ndarray
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
    """Continuous family with the fractional parts removed afterwards."""
    base = generate_continuous_population(config, stream)
    rounder = np.trunc if config.rounding == "truncate" else np.floor
    return dataclasses.replace(
        base, x=rounder(base.x), y0=rounder(base.y0), y1=rounder(base.y1)
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


def _one_replication(config: ScenarioConfig, index: int):
    """p-value per test plus the sample ATE for replication ``index``."""
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
    results = run_battery(data, plan, config.tests)
    return np.array([results[name].p_value.value for name in config.tests]), pop.sample_ate


def _replication_block(args):
    config, indices = args
    block_p = np.empty((len(indices), len(config.tests)))
    block_ate = np.empty(len(indices))
    for row, index in enumerate(indices):
        block_p[row], block_ate[row] = _one_replication(config, int(index))
    return indices, block_p, block_ate


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


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
    ates = np.empty(r)
    indices = np.arange(r)
    # Never more processes than usable CPUs or replications; the blocks below
    # then number at least as many as the workers.
    workers = min(workers, _usable_cpus(), r)
    blocks = [b for b in np.array_split(indices, max(1, min(r, workers * 4))) if b.size]
    if workers <= 1:
        done = 0
        for block in blocks:
            _, bp, ba = _replication_block((config, block))
            p_values[block] = bp
            ates[block] = ba
            done += block.size
            if progress is not None:
                progress(done, r)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = 0
            for idx, bp, ba in pool.map(
                _replication_block, [(config, b) for b in blocks]
            ):
                p_values[idx] = bp
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
    return PowerStudyResult(
        config=config, estimates=estimates, p_values=p_values, sample_ates=ates
    )


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

_SCENARIO_KEYS = {
    "id": "scenario_id",
    "family": "family",
    "latent": "latent",
    "error_dist": "error_dist",
    "gamma": "gamma",
    "sizes": "sizes",
    "treated": "treated",
    "replications": "replications",
    "permutations": "permutations",
    "tests": "tests",
    "alpha": "alpha",
    "seed": "master_seed",
    "rounding": "rounding",
}

_REQUIRED_SCENARIO_KEYS = ("id", "family", "latent", "error_dist", "gamma")


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
    missing = [k for k in _REQUIRED_SCENARIO_KEYS if k not in raw]
    if missing:
        raise ValueError(f"{path}: missing required scenario keys {missing}")
    kwargs = {}
    for key, value in raw.items():
        field = _SCENARIO_KEYS[key]
        if field in ("sizes", "treated", "tests"):
            value = tuple(value)
        kwargs[field] = value
    try:
        return ScenarioConfig(**kwargs)
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: {err}") from err


_CSV_COLUMNS = (
    "scenario,family,latent,error_dist,gamma,test,alpha,replications,"
    "rejections,rate,std_error,mean_sample_ate"
)


def write_results_csv(results, path) -> None:
    """One row per (scenario, test); written atomically."""
    lines = [_CSV_COLUMNS]
    for res in results:
        cfg = res.config
        for name in cfg.tests:
            est = res.estimates[name]
            lines.append(
                f"{cfg.scenario_id},{cfg.family},{cfg.latent},{cfg.error_dist},"
                f"{cfg.gamma!r},{name},{est.alpha!r},{est.replications},"
                f"{est.rejections},{est.rate!r},{est.std_error!r},"
                f"{res.mean_sample_ate!r}"
            )
    _atomic_write(path, "\n".join(lines) + "\n")


def write_results_json(results, path) -> None:
    """Config echo plus full-precision estimates, written atomically."""
    payload = []
    for res in results:
        cfg = dataclasses.asdict(res.config)
        payload.append(
            {
                "config": cfg,
                "mean_sample_ate": res.mean_sample_ate,
                "estimates": {
                    name: dataclasses.asdict(est)
                    for name, est in res.estimates.items()
                },
            }
        )
    _atomic_write(path, json.dumps({"results": payload}, indent=2, sort_keys=True) + "\n")
