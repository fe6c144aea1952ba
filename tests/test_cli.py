"""End-to-end tests for the command-line interface."""
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

from stratperm.cli import main
from stratperm.randomization import DRAW_SCHEME
from stratperm.reporting import TrialDataset, _json_text, write_trial_csv

# Subprocesses import the package from this checkout's src/, as the tests do.
SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")
SUBPROCESS_ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p))


@pytest.fixture
def trial_csv(tmp_path):
    rng = np.random.default_rng(31)
    strata = np.repeat(["a", "b", "c"], 8)
    z = np.tile([1, 0], 12).astype(np.int8)
    x = rng.normal(4, 1, 24)
    dataset = TrialDataset.build(
        strata,
        z,
        {"pain": x, "sleep": x * 0.5},
        {"pain": x + 0.6 * z + rng.normal(0, 0.7, 24), "sleep": rng.normal(size=24)},
    )
    path = tmp_path / "trial.csv"
    write_trial_csv(dataset, path)
    return path


def scenario_file(tmp_path, name="s.json", seed=11, **overrides):
    body = {
        "id": name.removesuffix(".json"),
        "family": "continuous",
        "latent": "homogeneous",
        "error_dist": "normal",
        "gamma": 0.2,
        "sizes": [8, 8],
        "treated": [4, 4],
        "replications": 40,
        "permutations": 99,
        "tests": ["ancova", "stratified_diff_means"],
        "seed": seed,
    }
    body.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(body))
    return path


# ---------------------------------------------------------------------------
# analyze


def test_analyze_writes_report_and_prints_table(trial_csv, tmp_path, capsys):
    out = tmp_path / "report.json"
    code = main(
        [
            "analyze",
            "--input",
            str(trial_csv),
            "--permutations",
            "199",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "pain" in stdout and "sleep" in stdout
    blob = json.loads(out.read_text())
    methods = {r["method"] for r in blob["rows"]}
    assert methods == {
        "ancova",
        "stratified_diff_means",
        "lm_permutation",
        "freedman_lane",
    }
    assert blob["provenance"]["input_sha256"]


def test_analyze_csv_format_follows_extension(trial_csv, tmp_path):
    out = tmp_path / "report.csv"
    code = main(
        [
            "analyze",
            "--input",
            str(trial_csv),
            "--methods",
            "ancova",
            "--permutations",
            "99",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    assert out.read_text().startswith("endpoint,method")


def test_analyze_is_deterministic(trial_csv, tmp_path):
    outs = []
    for name in ("one.json", "two.json"):
        out = tmp_path / name
        main(
            [
                "analyze",
                "--input",
                str(trial_csv),
                "--permutations",
                "299",
                "--seed",
                "9",
                "--out",
                str(out),
            ]
        )
        outs.append(out.read_text())
    assert outs[0] == outs[1]


def test_analyze_missing_file_exits_2(tmp_path, capsys):
    code = main(["analyze", "--input", str(tmp_path / "nope.csv")])
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_names_an_unwritable_report_by_its_path(trial_csv, tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code = main(["analyze", "--input", str(trial_csv), "--permutations", "99",
                 "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert f"'{out}'" in err and ".tmp" not in err


def test_analyze_rejects_empty_and_repeated_subject_ids(tmp_path, capsys):
    # P1 appears once in each arm and one row has no subject: nine rows, but
    # not nine subjects.
    path = tmp_path / "trial.csv"
    path.write_text("\n".join([
        "subject,stratum,treatment,baseline_pain,outcome_pain",
        "P1,a,treated,1.0,2.0",
        "P2,a,control,2.0,1.5",
        "P1,a,control,1.5,1.0",
        "P4,a,treated,0.5,2.5",
        "P5,b,treated,1.0,2.0",
        ",b,control,2.5,1.0",
        "P7,b,treated,1.2,2.2",
        "P8,b,control,0.7,0.9",
        "P9,b,control,1.1,1.4",
    ]) + "\n")
    code = main(["analyze", "--input", str(path), "--permutations", "99"])
    assert code == 2
    err = capsys.readouterr().err
    assert "2 empty or repeated subject ids" in err
    assert "line 4 ('P1', as on line 2)" in err and "line 7 (empty)" in err


@pytest.mark.parametrize("command", ["analyze", "diagnose"])
def test_a_field_over_the_csv_limit_exits_2(tmp_path, capsys, command):
    # The csv module refuses fields over 131,072 characters.  The long
    # stratum label is on the record that starts on line 4, after a record
    # whose quoted subject id spans lines 2 and 3.
    path = tmp_path / "trial.csv"
    path.write_text("subject,stratum,treatment,baseline_pain,outcome_pain\n"
                    '"P1\nx",a,treated,1.0,2.0\n'
                    f"P2,{'b' * 200_000},control,2.0,1.5\n")
    code = main([command, "--input", str(path), "--permutations", "99"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 4: field larger than field limit")


@pytest.mark.parametrize("command", ["analyze", "diagnose"])
def test_a_byte_that_is_not_utf8_is_reported_with_its_line(tmp_path, capsys, command):
    # Line n holds subject Pn; the bad byte replaces the digits of P2500, far
    # past the decoder's first 8 KB chunk.
    lines = ["subject,stratum,treatment,baseline_pain,outcome_pain"]
    lines += [f"P{n},{'ab'[n % 2]},{('treated', 'control')[n // 2 % 2]},1.0,2.0"
              for n in range(2, 3001)]
    path = tmp_path / "trial.csv"
    path.write_bytes("\n".join(lines).encode().replace(b"P2500,", b"P\xff,") + b"\n")
    assert path.read_bytes().index(b"\xff") > 8192
    code = main([command, "--input", str(path), "--permutations", "99"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line 2500: byte 0xff is not UTF-8")


def test_analyze_unknown_method_exits_2(trial_csv, capsys):
    code = main(
        ["analyze", "--input", str(trial_csv), "--methods", "ancova,anova"]
    )
    assert code == 2
    assert "anova" in capsys.readouterr().err


def test_analyze_rejects_a_method_named_twice(trial_csv, tmp_path, capsys):
    out = tmp_path / "report.csv"
    code = main(["analyze", "--input", str(trial_csv), "--permutations", "99",
                 "--methods", "lm_permutation,lm_permutation", "--out", str(out)])
    assert code == 2
    assert "lm_permutation" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("methods", ["", ",", " , "])
def test_analyze_rejects_an_empty_method_list(trial_csv, tmp_path, capsys, methods):
    out = tmp_path / "report.csv"
    code = main(["analyze", "--input", str(trial_csv), "--permutations", "99",
                 f"--methods={methods}", "--out", str(out)])
    assert code == 2
    assert "no tests" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["nan", "0", "1", "-3"])
def test_analyze_rejects_alpha_outside_the_unit_interval(trial_csv, tmp_path, capsys, alpha):
    out = tmp_path / "r.json"
    code = main(["analyze", "--input", str(trial_csv), "--permutations", "99",
                 f"--alpha={alpha}", "--out", str(out)])
    assert code == 2
    assert "alpha" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "diagnose", "simulate"])
def test_a_count_too_large_to_allocate_is_an_input_error(trial_csv, tmp_path, capsys, command):
    # 10**15 rows are past any 47-bit address space, so the allocation is
    # refused whatever the overcommit setting.  analyze keeps its default
    # methods: freedman_lane brings in the diagnostic's kept draws.
    out = tmp_path / "out.json"
    if command == "simulate":
        args = ["--scenario", str(scenario_file(tmp_path, replications=10**15))]
    else:
        args = ["--input", str(trial_csv), "--permutations", str(10**15)]
    code = main([command, *args, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_outputs_record_the_draw_scheme_and_libraries(trial_csv, tmp_path):
    report = tmp_path / "report.json"
    assert main(["analyze", "--input", str(trial_csv), "--permutations", "99",
                 "--out", str(report)]) == 0
    blob = tmp_path / "power.json"
    scenario = scenario_file(tmp_path, gamma=0.0, permutations=2500)
    assert main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "p.csv"),
                 "--json", str(blob)]) == 0
    expected = {"draw_scheme": DRAW_SCHEME, "numpy": np.__version__}
    assert DRAW_SCHEME["block_draws"] == 1024
    payload = json.loads(blob.read_text())
    for provenance in (json.loads(report.read_text())["provenance"], payload["provenance"]):
        assert {key: provenance[key] for key in expected} == expected
    estimates = payload["results"][0]["estimates"]
    assert estimates["ancova"]["mean_draws"] == 0.0
    # Null replications stop once their decision is fixed.
    assert 0 < estimates["stratified_diff_means"]["mean_draws"] < 2500


def test_analyze_constant_stratum_baseline_exits_3(tmp_path, capsys):
    # a baseline collinear with the stratum dummies makes the design singular
    strata = np.repeat(["a", "b"], 4)
    z = np.tile([1, 0], 4).astype(np.int8)
    x = np.where(strata == "a", 1.0, 2.0)
    y = np.arange(8.0)
    dataset = TrialDataset.build(strata, z, {"e": x}, {"e": y})
    path = tmp_path / "singular.csv"
    write_trial_csv(dataset, path)
    code = main(
        ["analyze", "--input", str(path), "--methods", "ancova", "--permutations", "9"]
    )
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def _flat_csv(tmp_path, constant, name="gerd", scale=1.0):
    """A 12-subject trial whose outcome is constant everywhere, in stratum
    'a' alone, or nowhere; baseline and outcome are multiplied by ``scale``."""
    rng = np.random.default_rng(12)
    strata = np.repeat(["a", "b"], 6)
    z = np.tile([1, 0], 6).astype(np.int8)
    x = rng.normal(size=12)
    y = x + rng.normal(size=12)
    if constant:
        y = np.where(strata == "a", 2.0, y) if constant == "stratum" else np.full(12, 2.0)
    path = tmp_path / "flat.csv"
    write_trial_csv(TrialDataset.build(strata, z, {name: x * scale}, {name: y * scale}), path)
    return path


@pytest.mark.parametrize("constant", ["everywhere", "stratum"])
def test_an_undefined_correlation_is_null_in_strict_json(tmp_path, constant):
    # A constant outcome has no correlation with the baseline: the report
    # holds null, not NaN, which a strict JSON parser refuses.
    out = tmp_path / "report.json"
    path = _flat_csv(tmp_path, constant)
    assert main(["analyze", "--input", str(path), "--permutations", "99", "--out", str(out)]) == 0

    def refuse(name):
        raise ValueError(f"not JSON: {name}")

    (corr,) = json.loads(out.read_text(), parse_constant=refuse)["correlations"]
    assert corr["per_stratum_r"][0] is None
    if constant == "everywhere":
        assert corr["pooled_r"] is None and corr["per_stratum_r"] == [None, None]
        assert corr["flags"] == ["degenerate"]
    else:
        assert isinstance(corr["pooled_r"], float) and "degenerate" not in corr["flags"]
        assert isinstance(corr["per_stratum_r"][1], float)
    # No output file can hold NaN or an infinity.
    with pytest.raises(ValueError, match="JSON compliant"):
        _json_text({"r": float("nan")})


def _column_ends(text, header, column):
    """Where column ``column`` (0-based, by whitespace) ends on the table's
    header line and on each row after it, up to the first blank line."""
    lines = text.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    table = itertools.takewhile(bool, lines[start:])
    return [list(re.finditer(r"\S+", line))[column].end() for line in table]


@pytest.mark.parametrize("argv,column,scale,lines", [
    (["analyze"], 3, 1.0, 5),
    (["analyze", "--methods", "manly"], 3, 1.0, 2),
    # A difference in means of about 2e7, wider than the statistic header.
    (["analyze", "--methods", "stratified_diff_means,ancova"], 3, 1e8, 3),
    (["diagnose"], 2, 1.0, 2),
], ids=["analyze", "manly", "scaled", "diagnose"])
def test_tables_stay_aligned_under_a_wider_header(tmp_path, capsys, argv, column, scale, lines):
    # Endpoint 'a' and method 'manly' are narrower than their headers.
    path = _flat_csv(tmp_path, None, name="a", scale=scale)
    assert main([*argv, "--input", str(path), "--permutations", "99"]) == 0
    ends = _column_ends(capsys.readouterr().out, "endpoint", column)
    assert len(ends) == lines
    assert len(set(ends)) == 1


# ---------------------------------------------------------------------------
# simulate


def test_simulate_runs_scenarios_and_writes_outputs(tmp_path, capsys):
    s1 = scenario_file(tmp_path, "first.json", seed=5)
    s2 = scenario_file(tmp_path, "second.json", seed=6, gamma=0.0)
    out = tmp_path / "power.csv"
    blob = tmp_path / "power.json"
    code = main(
        [
            "simulate",
            "--scenario",
            str(s1),
            str(s2),
            "--out",
            str(out),
            "--json",
            str(blob),
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("scenario,family")
    assert len(lines) == 1 + 2 * 2  # two scenarios, two tests each
    payload = json.loads(blob.read_text())
    assert {r["config"]["scenario_id"] for r in payload["results"]} == {
        "first",
        "second",
    }
    assert "rate" in capsys.readouterr().err


def test_simulate_bad_second_scenario_writes_nothing(tmp_path):
    good = scenario_file(tmp_path, "good.json")
    bad = tmp_path / "bad.json"
    bad.write_text('{"id": "bad", "family": "continuous"')
    out = tmp_path / "power.csv"
    code = main(
        ["simulate", "--scenario", str(good), str(bad), "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--out", "--json"])
def test_simulate_checks_the_output_directories_before_running(tmp_path, capsys,
                                                               monkeypatch, flag):
    def never(*args, **kwargs):
        raise AssertionError("the study ran before its outputs were checked")

    monkeypatch.setattr("stratperm.cli.run_power_study", never)
    paths = {"--out": tmp_path / "power.csv", "--json": tmp_path / "power.json"}
    paths[flag] = tmp_path / "nodir" / "o.csv"
    code = main(["simulate", "--scenario", str(scenario_file(tmp_path)),
                 *itertools.chain(*((k, str(v)) for k, v in paths.items()))])
    assert code == 2
    assert f"'{paths[flag]}'" in capsys.readouterr().err


def test_simulate_rejects_a_test_named_twice(tmp_path, capsys):
    scenario = scenario_file(tmp_path, tests=["stratified_diff_means"] * 2)
    out = tmp_path / "power.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    assert "stratified_diff_means" in capsys.readouterr().err
    assert not out.exists()


NON_INTEGRAL = [("replications", 2.5), ("permutations", 99.5), ("seed", 1.5),
                ("sizes", [16.7, 16]), ("treated", [4, True]), ("sizes", 16)]


@pytest.mark.parametrize("key,value", NON_INTEGRAL, ids=[f"{k}={v}" for k, v in NON_INTEGRAL])
def test_simulate_rejects_non_integral_counts_and_seeds(tmp_path, capsys, key, value):
    scenario = scenario_file(tmp_path, **{key: value})
    out = tmp_path / "power.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    assert "error:" in capsys.readouterr().err
    assert not out.exists()


WRONG_TYPE = [("tests", "ancova", "tests must be a JSON array"),
              ("sizes", "16", "sizes must be a JSON array"),
              ("treated", {"a": 4}, "treated must be a JSON array"),
              ("gamma", True, "gamma must be a number"),
              ("gamma", "0.2", "gamma must be a number"),
              ("alpha", False, "alpha must be a number")]


@pytest.mark.parametrize("key,value,message", WRONG_TYPE,
                         ids=[f"{k}={v!r}" for k, v, _ in WRONG_TYPE])
def test_simulate_names_a_scenario_value_of_the_wrong_type(tmp_path, capsys, key, value,
                                                           message):
    scenario = scenario_file(tmp_path, **{key: value})
    out = tmp_path / "power.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_simulate_rejects_an_empty_test_list(tmp_path, capsys):
    scenario = scenario_file(tmp_path, tests=[])
    out = tmp_path / "power.csv"
    code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
    assert code == 2
    assert "no tests" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_seed_precedence(tmp_path):
    # a scenario without its own seed needs --seed, and the derived seed is
    # stable so reruns agree
    unseeded = scenario_file(tmp_path, "free.json")
    body = json.loads(unseeded.read_text())
    del body["seed"]
    unseeded.write_text(json.dumps(body))

    code = main(["simulate", "--scenario", str(unseeded), "--out", str(tmp_path / "x.csv")])
    assert code == 2

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    for out in (first, second):
        code = main(
            [
                "simulate",
                "--scenario",
                str(unseeded),
                "--out",
                str(out),
                "--seed",
                "77",
            ]
        )
        assert code == 0
    assert first.read_text() == second.read_text()


def test_simulate_workers_do_not_change_results(tmp_path):
    scenario = scenario_file(tmp_path, "det.json", seed=13)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    assert main(["simulate", "--scenario", str(scenario), "--out", str(serial)]) == 0
    assert (
        main(
            [
                "simulate",
                "--scenario",
                str(scenario),
                "--out",
                str(parallel),
                "--workers",
                "3",
            ]
        )
        == 0
    )
    assert serial.read_text() == parallel.read_text()


def test_simulate_stopping_does_not_depend_on_workers(tmp_path):
    scenario = scenario_file(tmp_path, "stop.json", seed=17, gamma=0.0, replications=12,
                             permutations=2500,
                             tests=["ancova", "stratified_diff_means", "freedman_lane"])
    outputs = []
    for workers in ("1", "2"):
        csv_out, json_out = tmp_path / f"{workers}.csv", tmp_path / f"{workers}.json"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(csv_out),
                     "--json", str(json_out), "--workers", workers]) == 0
        outputs.append(csv_out.read_bytes() + json_out.read_bytes())
    assert outputs[0] == outputs[1]


def test_simulate_rejects_bad_worker_count(tmp_path, capsys):
    scenario = scenario_file(tmp_path)
    code = main(
        [
            "simulate",
            "--scenario",
            str(scenario),
            "--out",
            str(tmp_path / "o.csv"),
            "--workers",
            "0",
        ]
    )
    assert code == 2
    assert "--workers" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# diagnose


def test_diagnose_prints_and_writes_json(trial_csv, tmp_path, capsys):
    out = tmp_path / "diag.json"
    code = main(
        [
            "diagnose",
            "--input",
            str(trial_csv),
            "--permutations",
            "199",
            "--seed",
            "2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "endpoint" in stdout and "pain" in stdout
    payload = json.loads(out.read_text())
    rows = payload["diagnostics"]
    assert [r["endpoint"] for r in rows] == ["pain", "sleep"]
    for row in rows:
        assert 0.0 < row["p_value"] <= 1.0
        assert len(row["stratum_correlations"]) == 3


def test_diagnose_writes_json_atomically(trial_csv, tmp_path, monkeypatch):
    from stratperm import reporting

    renames = []
    real_replace = reporting.os.replace

    def spy(src, dst):
        renames.append((str(src), str(dst)))
        real_replace(src, dst)

    monkeypatch.setattr(reporting.os, "replace", spy)
    out = tmp_path / "diag.json"
    code = main(
        ["diagnose", "--input", str(trial_csv), "--permutations", "99", "--out", str(out)]
    )
    assert code == 0
    assert renames == [(f"{out}.tmp", str(out))]
    assert json.loads(out.read_text())["diagnostics"]


def test_diagnose_matches_analyze_exchangeability(trial_csv, tmp_path):
    # Both commands score every endpoint on the trial's one plan, so the
    # standalone diagnostic equals the one a default analyze attaches.
    diag_out = tmp_path / "diag.json"
    report_out = tmp_path / "report.json"
    common = ["--input", str(trial_csv), "--permutations", "199", "--seed", "6"]
    assert main(["diagnose", *common, "--out", str(diag_out)]) == 0
    assert main(["analyze", *common, "--out", str(report_out)]) == 0
    diag = json.loads(diag_out.read_text())["diagnostics"]
    report = json.loads(report_out.read_text())["exchangeability"]
    assert [d["endpoint"] for d in diag] == ["pain", "sleep"]
    assert diag == report


# ---------------------------------------------------------------------------
# entry point


def test_console_module_invocation(trial_csv):
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "stratperm.cli",
            "analyze",
            "--input",
            str(trial_csv),
            "--methods",
            "stratified_diff_means",
            "--permutations",
            "99",
        ],
        capture_output=True,
        text=True,
        env=SUBPROCESS_ENV,
    )
    assert proc.returncode == 0
    assert "pain" in proc.stdout


def test_commands_leave_scipy_and_the_process_pool_unloaded(trial_csv, tmp_path):
    # numpy is the only runtime dependency: fits are made in closed form and
    # the t tail with math.  One worker needs no process pool.  None of the
    # three commands imports any part of scipy or the pool.
    scenario = scenario_file(tmp_path, replications=4, permutations=19,
                             tests=["ancova", "stratified_diff_means", "freedman_lane"])
    script = "\n".join([
        "import json, sys",
        "from stratperm.cli import main",
        f"csv, scenario, out = {str(trial_csv)!r}, {str(scenario)!r}, {str(tmp_path)!r}",
        "codes = [",
        "    main(['analyze', '--input', csv, '--permutations', '99',",
        "          '--out', out + '/report.json']),",
        "    main(['diagnose', '--input', csv, '--permutations', '99',",
        "          '--out', out + '/diag.json']),",
        "    main(['simulate', '--scenario', scenario, '--workers', '1',",
        "          '--out', out + '/power.csv', '--json', out + '/power.json']),",
        "]",
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'",
        "                or m == 'concurrent.futures.process')",
        "print(json.dumps({'codes': codes, 'loaded': loaded}))",
    ])
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=SUBPROCESS_ENV)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result == {"codes": [0, 0, 0], "loaded": []}
