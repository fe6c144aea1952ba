"""Tests for the data-generating families and the replication engine."""
import concurrent.futures
import csv
import dataclasses
import itertools
import json
import math

import numpy as np
import pytest

from stratperm.cli import main
from stratperm.hypothesis_tests import METHODS, run_trial
from stratperm.randomization import StratumLayout, derive_stream
from stratperm.reporting import TrialDataset, write_trial_csv
from stratperm.simulation import (
    DEFAULT_TESTS,
    FAMILIES,
    LATENTS,
    Population,
    PowerEstimate,
    PowerStudyResult,
    ScenarioConfig,
    draw_error,
    draw_latent,
    generate_population,
    load_scenario,
    power_ratio_table,
    run_power_study,
    write_results_csv,
    write_results_json,
)
from stratperm.simulation import (
    _ALPHA_SLACK,
    _replication_block,
    _replication_inputs,
    _stop_count,
)


def config(**overrides):
    base = dict(
        scenario_id="unit",
        family="continuous",
        latent="homogeneous",
        error_dist="normal",
        gamma=0.2,
        master_seed=1234,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


# ---------------------------------------------------------------------------
# latent and error draws


def test_homogeneous_latent_moments_and_range():
    stream = derive_stream(1)
    v = draw_latent("homogeneous", 0, 100_000, stream)
    assert v.min() >= -4.0 and v.max() <= 4.0
    assert abs(v.mean()) < 0.03


def test_heterogeneous_latent_ranges_per_stratum():
    stream = derive_stream(2)
    expected = [(-4.0, -1.0), (-1.0, 1.0), (1.0, 4.0)]
    for j, (lo, hi) in enumerate(expected):
        v = draw_latent("heterogeneous", j, 20_000, stream)
        assert v.min() >= lo and v.max() <= hi
    middle = draw_latent("heterogeneous", 1, 100_000, derive_stream(3))
    assert abs(middle.mean()) < 0.01


def test_heterogeneous_latent_rejects_extra_strata():
    with pytest.raises(ValueError, match="0..2"):
        draw_latent("heterogeneous", 3, 10, derive_stream(4))


def test_shifted_exponential_is_centered():
    e = draw_error("shifted_exponential", 100_000, derive_stream(5))
    assert abs(e.mean()) < 0.01
    assert e.min() >= -1.0


def test_lognormal_error_is_not_centered():
    e = draw_error("lognormal", 200_000, derive_stream(6))
    assert e.min() > 0.0
    assert e.mean() == pytest.approx(math.exp(0.5), abs=0.03)


def test_t2_error_is_symmetric():
    e = draw_error("t2", 100_000, derive_stream(7))
    assert abs(np.median(e)) < 0.02


def test_heteroskedastic_error_scales_with_covariate():
    n = 100_000
    low = draw_error(
        "heteroskedastic_normal", n, derive_stream(8), x=np.full(n, 0.5)
    )
    high = draw_error(
        "heteroskedastic_normal", n, derive_stream(9), x=np.full(n, 3.0)
    )
    assert low.std() == pytest.approx(1.0, abs=0.02)
    assert high.std() == pytest.approx(2.0, abs=0.04)


def test_heteroskedastic_error_requires_covariate():
    with pytest.raises(ValueError, match="covariate"):
        draw_error("heteroskedastic_normal", 10, derive_stream(10))


# ---------------------------------------------------------------------------
# population families


def test_continuous_population_satisfies_linear_identity():
    cfg = config(gamma=0.17)
    pop = generate_population(cfg, derive_stream(11))
    effect = cfg.gamma * np.exp(pop.v)
    shared = pop.delta - pop.eps
    np.testing.assert_allclose(pop.y0, pop.x + shared, atol=1e-12)
    np.testing.assert_allclose(pop.y1, effect + pop.x + shared, atol=1e-12)
    np.testing.assert_allclose(pop.y1 - pop.y0, effect, atol=1e-12)


def test_continuous_sharp_null_at_gamma_zero():
    pop = generate_population(config(gamma=0.0), derive_stream(12))
    np.testing.assert_array_equal(pop.y0, pop.y1)


def test_discrete_population_truncates_toward_zero():
    cfg = config(family="discrete", gamma=0.2)
    pop = generate_population(cfg, derive_stream(13))
    for arr in (pop.x, pop.y0, pop.y1):
        np.testing.assert_array_equal(arr, np.trunc(arr))
    # The same stream under the continuous family: the discrete population is
    # that population with its fractional parts cut off.
    continuous = generate_population(
        dataclasses.replace(cfg, family="continuous"), derive_stream(13))
    assert not np.array_equal(continuous.x, np.trunc(continuous.x))
    np.testing.assert_array_equal(pop.x, np.trunc(continuous.x))
    np.testing.assert_array_equal(pop.y0, np.trunc(continuous.y0))
    np.testing.assert_array_equal(pop.y1, np.trunc(continuous.y1))
    # negative values are truncated up, not floored down
    assert (continuous.y0 < 0).any()


def test_discrete_sharp_null_survives_truncation():
    pop = generate_population(config(family="discrete", gamma=0.0), derive_stream(14))
    np.testing.assert_array_equal(pop.y0, pop.y1)


def test_nonlinear_population_effect_is_multiplicative():
    cfg = config(family="nonlinear", gamma=0.2)
    pop = generate_population(cfg, derive_stream(15))
    np.testing.assert_allclose(pop.y1 - pop.y0, cfg.gamma * pop.x, atol=1e-12)
    np.testing.assert_allclose(
        pop.y1, (1.0 + cfg.gamma) * pop.x + pop.delta, atol=1e-12
    )


def test_generate_population_dispatches_by_family():
    pops = {family: generate_population(config(family=family), derive_stream(16))
            for family in FAMILIES}
    # The families share every draw; they differ in how X, Y(0), Y(1) are formed.
    for pop in pops.values():
        assert isinstance(pop, Population)
        assert pop.x.shape == (48,)
        for name in ("v", "eps", "delta"):
            np.testing.assert_array_equal(getattr(pop, name), getattr(pops["continuous"], name))
    assert not np.array_equal(pops["nonlinear"].x, pops["continuous"].x)


@pytest.mark.parametrize("latent", LATENTS)
def test_continuous_population_matches_the_independent_reference(latent, monkeypatch):
    # The reference sets a BLAS thread count for its own worker processes;
    # keep it out of the environment of later tests.
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    from reference.make_power_reference import ROWS, _population

    laws = [law for row_latent, law in ROWS if row_latent == latent]
    assert len(laws) == 5
    for law, seed in itertools.product(laws, range(5)):
        cfg = config(latent=latent, error_dist=law, gamma=0.2)
        pop = generate_population(cfg, np.random.default_rng([seed, 7]))
        x, y0, y1 = _population(latent, law, np.random.default_rng([seed, 7]))
        for ours, theirs in ((pop.x, x), (pop.y0, y0), (pop.y1, y1)):
            assert ours.tobytes() == theirs.tobytes()


def test_sample_ate_calibration_smoke():
    # E[gamma e^v] = gamma (e^4 - e^-4) / 8 = 1.3645 at gamma = 0.2
    cfg = config(gamma=0.2)
    ates = [
        generate_population(cfg, derive_stream(17, i)).sample_ate
        for i in range(400)
    ]
    assert np.mean(ates) == pytest.approx(0.2 * (math.exp(4) - math.exp(-4)) / 8,
                                          abs=0.08)


# ---------------------------------------------------------------------------
# configuration validation


def test_config_rejects_unknown_family_and_latent():
    with pytest.raises(ValueError, match="family"):
        config(family="mystery")
    with pytest.raises(ValueError, match="latent"):
        config(latent="mixed")
    with pytest.raises(ValueError, match="error_dist"):
        config(error_dist="cauchy")


def test_config_rejects_discrete_with_heavy_tails():
    with pytest.raises(ValueError, match="discrete"):
        config(family="discrete", error_dist="t2")


def test_config_rejects_heterogeneous_with_wrong_stratum_count():
    with pytest.raises(ValueError, match="3 strata"):
        config(latent="heterogeneous", sizes=(16, 16), treated=(8, 8))


def test_config_rejects_bad_numerics():
    with pytest.raises(ValueError, match="gamma"):
        config(gamma=-0.1)
    with pytest.raises(ValueError, match="alpha"):
        config(alpha=1.5)
    with pytest.raises(ValueError, match="positive"):
        config(replications=0)
    with pytest.raises(ValueError, match="unknown tests"):
        config(tests=("ancova", "anova"))


def test_config_counts_and_seed_must_be_integral():
    cfg = config(sizes=(np.int64(8),) * 3, treated=(np.int32(4),) * 3,
                 replications=np.int64(5), master_seed=np.uint32(7))
    assert cfg.layout.sizes == (8, 8, 8)
    for name, value in (("replications", 2.5), ("permutations", True),
                        ("master_seed", 1.5), ("sizes", (16.7, 16, 16))):
        with pytest.raises(ValueError, match=f"{name} must be integral"):
            config(**{name: value})


# ---------------------------------------------------------------------------
# replication engine


def small_study(**overrides):
    base = dict(
        replications=60,
        permutations=99,
        tests=("ancova", "stratified_diff_means"),
        sizes=(6, 6),
        treated=(3, 3),
        latent="homogeneous",
    )
    base.update(overrides)
    return config(**base)


def test_power_study_is_deterministic_and_worker_independent():
    cfg = small_study()
    serial = run_power_study(cfg, workers=1)
    again = run_power_study(cfg, workers=1)
    parallel = run_power_study(cfg, workers=4)
    np.testing.assert_array_equal(serial.p_values, again.p_values)
    np.testing.assert_array_equal(serial.p_values, parallel.p_values)
    np.testing.assert_array_equal(serial.sample_ates, parallel.sample_ates)
    for name in cfg.tests:
        assert serial.estimates[name].rate == parallel.estimates[name].rate


def test_worker_count_is_capped_without_starting_processes(monkeypatch):
    import stratperm.simulation as simulation

    pool_sizes = []

    class InlineExecutor:
        """Stands in for the process pool: records its size, maps in-process."""

        def __init__(self, max_workers):
            pool_sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # The pool is imported only when more than one worker is asked for.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    # Three usable CPUs, whichever way the platform reports them.
    monkeypatch.setattr(simulation.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                        raising=False)
    monkeypatch.setattr(simulation.os, "cpu_count", lambda: 3)
    for replications, cap in ((5, 3), (2, 2)):
        cfg = small_study(replications=replications)
        serial = run_power_study(cfg, workers=1)
        capped = run_power_study(cfg, workers=10**6)
        assert pool_sizes.pop() == cap
        np.testing.assert_array_equal(serial.p_values, capped.p_values)
        np.testing.assert_array_equal(serial.sample_ates, capped.sample_ates)
    assert pool_sizes == []


def test_power_study_requires_seed():
    cfg = small_study(master_seed=None)
    with pytest.raises(ValueError, match="seed"):
        run_power_study(cfg)


def test_power_study_reports_progress():
    ticks = []
    cfg = small_study(replications=16)
    run_power_study(cfg, workers=1, progress=lambda done, total: ticks.append((done, total)))
    assert ticks[-1] == (16, 16)
    assert all(total == 16 for _, total in ticks)


def test_null_rejection_rate_is_near_level():
    cfg = small_study(
        gamma=0.0,
        replications=500,
        permutations=199,
        tests=("stratified_diff_means",),
        master_seed=777,
    )
    rate = run_power_study(cfg).estimates["stratified_diff_means"].rate
    # exact-level test: binomial(500, <=0.05) with add-one conservatism
    assert rate <= 0.05 + 3.0 * math.sqrt(0.05 * 0.95 / 500)


# Every family x latent, with the error laws the family allows among normal,
# t2 and lognormal.
STOPPING_SCENARIOS = [
    (family, latent, error)
    for family in FAMILIES
    for latent in LATENTS
    for error in ("normal", "t2", "lognormal")
    if family != "discrete" or error == "normal"
]


@pytest.mark.parametrize("family,latent,error_dist", STOPPING_SCENARIOS,
                         ids=["-".join(c) for c in STOPPING_SCENARIOS])
def test_stopped_replications_decide_as_full_runs(family, latent, error_dist):
    # 2,500 draws span three blocks, so tests can stop early; 999 is less
    # than one block, so every test runs to the end.
    stopped = 0
    for gamma, alpha, permutations, tests in itertools.product(
            (0.0, 0.3), (0.05, 0.1), (2500, 999), (tuple(METHODS), DEFAULT_TESTS)):
        cfg = config(family=family, latent=latent, error_dist=error_dist, gamma=gamma,
                     alpha=alpha, permutations=permutations, tests=tests,
                     sizes=(8, 8, 8), treated=(4, 4, 4), master_seed=4321)
        stop_at = _stop_count(alpha, permutations)
        # The stop count is the first count whose p-value is not rejected.
        assert (stop_at + 1) / (permutations + 1) > alpha + _ALPHA_SLACK
        assert stop_at / (permutations + 1) <= alpha + _ALPHA_SLACK
        drawn = np.array([t != "ancova" for t in tests])
        _, block_p, block_used, _ = _replication_block((cfg, np.arange(3)))
        for index, (p, used) in enumerate(zip(block_p, block_used)):
            data, plan, _ = _replication_inputs(cfg, index)
            full = run_trial([data], plan, tests)[0]
            full_p = np.array([full[t].p_value.value for t in tests])
            np.testing.assert_array_equal(p <= alpha + _ALPHA_SLACK,
                                          full_p <= alpha + _ALPHA_SLACK)
            ran = used == permutations
            np.testing.assert_array_equal(used[~drawn], 0)
            np.testing.assert_array_equal(p[ran | ~drawn], full_p[ran | ~drawn])
            cut = drawn & ~ran
            assert permutations > 1024 or not cut.any()
            k = np.rint(p[cut] * (permutations + 1)) - 1
            np.testing.assert_array_equal(p[cut], (k + 1) / (permutations + 1))
            assert np.all(k >= stop_at)
            assert np.all(p[cut] > alpha + _ALPHA_SLACK)
            assert np.all(p[cut] <= full_p[cut])
            stopped += int(cut.sum())
    assert stopped > 0


def test_tally_stops_after_the_first_block_whose_count_reaches_stop_at():
    cfg = config(gamma=0.0, permutations=3000, tests=tuple(METHODS), master_seed=99)
    data, plan, _ = _replication_inputs(cfg, 0)
    # The first 1,024 of a plan's draws are those of a plan of 1,024 draws.
    first = run_trial([data], dataclasses.replace(plan, draws=1024), cfg.tests)[0]
    for name in cfg.tests[1:]:
        k = first[name].p_value.exceedances
        res = run_trial([data], plan, (name,), stop_at=k)[0][name]
        p, used = res.p_value.value, res.draws_used
        assert (p, used) == ((k + 1) / 3001, 1024)
        res = run_trial([data], plan, (name,), stop_at=k + 1)[0][name]
        p, used = res.p_value.value, res.draws_used
        assert used > 1024 and p * 3001 - 1 >= k


def test_a_replication_builds_one_layout(monkeypatch):
    cfg = config(permutations=200)
    built = []
    post_init = StratumLayout.__post_init__

    def counting(layout):
        built.append(layout)
        post_init(layout)

    monkeypatch.setattr(StratumLayout, "__post_init__", counting)
    _replication_block((cfg, np.arange(1)))
    assert len(built) <= 1


def test_tally_needs_a_monte_carlo_plan():
    data, plan, _ = _replication_inputs(config(master_seed=3), 0)
    with pytest.raises(ValueError, match="monte_carlo"):
        run_trial([data], dataclasses.replace(plan, mode="exact"), ("kennedy",), stop_at=1)
    with pytest.raises(ValueError, match="unknown"):
        run_trial([data], plan, ("exchangeability",), stop_at=1)


def test_power_study_records_draws_used():
    cfg = small_study(gamma=0.0, replications=20, permutations=3000,
                      tests=("ancova", "stratified_diff_means", "lm_permutation"))
    res = run_power_study(cfg)
    assert res.draws_used.shape == res.p_values.shape
    np.testing.assert_array_equal(res.draws_used[:, 0], 0)
    used = res.draws_used[:, 1:]
    assert np.all((used % 1024 == 0) | (used == 3000))
    assert np.any(used < 3000)
    # A stopped p-value is not rejected; one that ran to the end may be.
    assert np.all(res.p_values[:, 1:][used < 3000] > cfg.alpha)


# (family, gamma) per round trip.  In replication 1, every permutation test
# uses all its draws at gamma 1, some do at 0.2, and all stop early at 0.
ROUND_TRIPS = [("continuous", 1.0), ("discrete", 1.0), ("nonlinear", 0.2), ("continuous", 0.0)]


@pytest.mark.parametrize("family,gamma", ROUND_TRIPS, ids=[f"{f}-{g}" for f, g in ROUND_TRIPS])
def test_a_replication_reruns_in_analyze(tmp_path, capsys, family, gamma):
    # A replication's trial, written as a trial CSV and analysed with its
    # plan's seed, gives the power study's p-values: exactly for a test that
    # used all its draws, and no lower for one stopped once decided.
    # 2,999 draws span three blocks, so tests can stop early.
    cfg = config(family=family, latent="heterogeneous", gamma=gamma, sizes=(8, 8, 8),
                 treated=(4, 4, 4), replications=2, permutations=2999,
                 tests=tuple(METHODS), master_seed=17)
    study = run_power_study(cfg)
    data, plan, _ = _replication_inputs(cfg, 1)
    trial, report = tmp_path / "trial.csv", tmp_path / "report.json"
    write_trial_csv(TrialDataset.build(data.strata, data.z, {"y": data.x}, {"y": data.y}), trial)
    code = main(["analyze", "--input", str(trial), "--methods", ",".join(cfg.tests),
                 "--permutations", str(cfg.permutations), "--seed", str(plan.master_seed),
                 "--out", str(report)])
    capsys.readouterr()
    assert code == 0
    analyzed = {row["method"]: row["p_value"]
                for row in json.loads(report.read_text())["rows"]}
    full = stopped = 0
    for test, p, used in zip(cfg.tests, study.p_values[1], study.draws_used[1]):
        if used in (0, cfg.permutations):
            assert p == analyzed[test], test
            full += test != "ancova"
        else:
            assert p <= analyzed[test], test
            stopped += 1
    if gamma:
        assert full
    else:
        assert stopped == len(cfg.tests) - 1


def test_power_ratio_table_matches_hand_division():
    cfg = small_study(gamma=0.6, replications=80)
    res = run_power_study(cfg)
    ratios = power_ratio_table(res, reference="ancova")
    ref = res.estimates["ancova"].rate
    assert ratios["ancova"] == pytest.approx(1.0)
    assert ratios["stratified_diff_means"] == pytest.approx(
        res.estimates["stratified_diff_means"].rate / ref
    )


def test_power_ratio_table_rejects_zero_reference():
    cfg = small_study()
    est = PowerEstimate(
        test="ancova", alpha=0.05, replications=10, rejections=0,
        rate=0.0, std_error=0.0,
    )
    res = PowerStudyResult(
        config=cfg,
        estimates={"ancova": est},
        p_values=np.ones((10, 1)),
        draws_used=np.zeros((10, 1), dtype=np.int64),
        sample_ates=np.zeros(10),
    )
    with pytest.raises(ValueError, match="zero power"):
        power_ratio_table(res)
    with pytest.raises(ValueError, match="not among"):
        power_ratio_table(res, reference="manly")


# ---------------------------------------------------------------------------
# scenario files and result tables


def test_load_scenario_maps_keys(tmp_path):
    path = tmp_path / "scenario.json"
    path.write_text(
        json.dumps(
            {
                "id": "tableA",
                "family": "continuous",
                "latent": "heterogeneous",
                "error_dist": "t2",
                "gamma": 0.15,
                "seed": 99,
                "tests": ["ancova", "freedman_lane"],
            }
        )
    )
    cfg = load_scenario(path)
    assert cfg.scenario_id == "tableA"
    assert cfg.master_seed == 99
    assert cfg.tests == ("ancova", "freedman_lane")
    assert cfg.gamma == 0.15


def test_load_scenario_rejects_unknown_keys(tmp_path):
    path = tmp_path / "typo.json"
    path.write_text(
        json.dumps(
            {
                "id": "x",
                "family": "continuous",
                "latent": "homogeneous",
                "error_dist": "normal",
                "gamma": 0.1,
                "replicatoins": 100,
            }
        )
    )
    with pytest.raises(ValueError, match="replicatoins"):
        load_scenario(path)


def test_load_scenario_reports_json_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "id": "x",\n  "family": oops\n}\n')
    with pytest.raises(ValueError, match="broken.json:3"):
        load_scenario(path)


def test_load_scenario_names_a_file_that_is_not_utf8(tmp_path):
    path = tmp_path / "latin.json"
    path.write_bytes(b'\xff{"id": "x"}')
    with pytest.raises(ValueError, match=r"latin\.json: 'utf-8' codec can't decode byte 0xff"):
        load_scenario(path)


def test_load_scenario_requires_core_fields(tmp_path):
    path = tmp_path / "missing.json"
    path.write_text(json.dumps({"id": "x", "family": "continuous"}))
    with pytest.raises(ValueError, match=r"missing required scenario keys "
                                         r"\['latent', 'error_dist', 'gamma'\]"):
        load_scenario(path)


def test_result_writers_round_trip(tmp_path):
    cfg = small_study(replications=30)
    res = run_power_study(cfg)

    json_path = tmp_path / "results.json"
    write_results_json([res], json_path)
    payload = json.loads(json_path.read_text())
    block = payload["results"][0]
    assert block["config"]["scenario_id"] == cfg.scenario_id
    for name in cfg.tests:
        assert block["estimates"][name]["rate"] == res.estimates[name].rate
    assert block["mean_sample_ate"] == res.mean_sample_ate

    csv_path = tmp_path / "results.csv"
    write_results_csv([res], csv_path)
    lines = csv_path.read_text().strip().split("\n")
    assert lines[0].startswith("scenario,family")
    assert len(lines) == 1 + len(cfg.tests)
    first = lines[1].split(",")
    assert first[0] == cfg.scenario_id
    assert float(first[9]) == res.estimates[cfg.tests[0]].rate


def test_results_csv_quotes_a_scenario_id_with_commas(tmp_path):
    cfg = small_study(replications=5, scenario_id='site "B", wave 2')
    path = tmp_path / "results.csv"
    write_results_csv([run_power_study(cfg)], path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [12] * (1 + len(cfg.tests))
    assert [row[0] for row in rows[1:]] == [cfg.scenario_id] * len(cfg.tests)


def test_config_of_numpy_integers_writes_the_json_of_plain_integers(tmp_path):
    plain = small_study(replications=2, sizes=(6, 6), treated=(3, 3), master_seed=1234)
    numpy = small_study(replications=np.int64(2), permutations=np.int32(99),
                        sizes=np.array([6, 6]), treated=(np.int64(3), np.uint8(3)),
                        master_seed=np.uint32(1234))
    assert numpy == plain
    texts = []
    for cfg in (plain, numpy):
        path = tmp_path / "results.json"
        write_results_json([run_power_study(cfg)], path)
        texts.append(path.read_text())
    assert texts[1] == texts[0]


def test_result_json_is_timestamp_free(tmp_path):
    cfg = small_study(replications=10)
    res = run_power_study(cfg)
    path = tmp_path / "res.json"
    write_results_json([res], path)
    text = path.read_text().lower()
    assert "time" not in text
    assert "date" not in text
