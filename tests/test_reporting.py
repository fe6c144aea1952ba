"""Tests for trial CSV handling, summaries, and the analysis report."""
import csv
import io
import json

import numpy as np
import pytest

from stratperm import randomization
from stratperm.cli import main
from stratperm.hypothesis_tests import METHODS, run_trial
from stratperm.randomization import PermutationPlan
from stratperm.reporting import (
    TrialDataError,
    TrialDataset,
    baseline_outcome_correlation,
    diagnose_exchangeability,
    format_report_text,
    load_trial_csv,
    report_to_csv,
    report_to_json,
    run_analysis,
    summarize_by_arm,
    write_report,
    write_trial_csv,
)

HEADER = "subject,stratum,treatment,baseline_pain,outcome_pain"


def write_csv(tmp_path, body, name="trial.csv", header=HEADER):
    path = tmp_path / name
    path.write_text(header + "\n" + body)
    return path


def basic_rows():
    rows = []
    rng = np.random.default_rng(55)
    for i in range(16):
        stratum = "north" if i < 8 else "south"
        arm = "drug" if i % 2 == 0 else "placebo"
        x = round(float(rng.normal(5, 1)), 3)
        y = round(x + (0.8 if arm == "drug" else 0.0) + float(rng.normal(0, 0.5)), 3)
        rows.append(f"P{i:02d},{stratum},{arm},{x},{y}")
    return "\n".join(rows)


def synthetic_dataset(n_per=8, endpoints=("pain", "sleep"), seed=7):
    rng = np.random.default_rng(seed)
    strata = np.repeat(["a", "b"], n_per)
    n = 2 * n_per
    z = np.zeros(n, dtype=np.int8)
    for j in range(2):
        z[n_per * j + rng.choice(n_per, n_per // 2, replace=False)] = 1
    baselines, outcomes = {}, {}
    for name in endpoints:
        x = rng.normal(10, 2, n)
        baselines[name] = x
        outcomes[name] = x + 0.5 * z + rng.normal(0, 1, n)
    return TrialDataset.build(strata, z, baselines, outcomes)


# ---------------------------------------------------------------------------
# loading


def test_load_assigns_control_by_lexicographic_order(tmp_path):
    path = write_csv(tmp_path, basic_rows())
    dataset = load_trial_csv(path)
    assert dataset.control_label == "drug"
    assert dataset.treated_label == "placebo"
    assert dataset.endpoint_names == ("pain",)
    assert dataset.n_units == 16
    assert len(dataset.source_digest) == 64


def test_load_honors_control_override(tmp_path):
    path = write_csv(tmp_path, basic_rows())
    dataset = load_trial_csv(path, control_label="placebo")
    assert dataset.control_label == "placebo"
    assert dataset.treated_label == "drug"
    data = dataset.endpoints["pain"]
    # arm flips relative to the default reading
    flipped = load_trial_csv(path).endpoints["pain"]
    np.testing.assert_array_equal(data.z, 1 - flipped.z)


def test_load_rejects_missing_required_column(tmp_path):
    path = write_csv(
        tmp_path,
        "P1,x,1.0,2.0",
        header="subject,treatment,baseline_pain,outcome_pain",
    )
    with pytest.raises(TrialDataError, match="stratum"):
        load_trial_csv(path)


def test_load_rejects_unpaired_endpoints(tmp_path):
    path = write_csv(
        tmp_path,
        "P1,a,drug,1.0,2.0",
        header="subject,stratum,treatment,baseline_pain,outcome_sleep",
    )
    with pytest.raises(TrialDataError, match="unpaired"):
        load_trial_csv(path)


def test_load_rejects_unknown_columns(tmp_path):
    path = write_csv(
        tmp_path,
        "P1,a,drug,1.0,2.0,9",
        header=HEADER + ",age",
    )
    with pytest.raises(TrialDataError, match="age"):
        load_trial_csv(path)


@pytest.mark.parametrize("extra", ["baseline_pain", "stratum", "subject,treatment"])
def test_load_rejects_repeated_columns(tmp_path, extra):
    # Each row repeats its own cells, so only the header is at fault.
    rows = [row.split(",") for row in basic_rows().split("\n")]
    names = HEADER.split(",")
    body = "\n".join(",".join(row + [row[names.index(c)] for c in extra.split(",")])
                     for row in rows)
    path = write_csv(tmp_path, body, header=HEADER + "," + extra)
    with pytest.raises(TrialDataError, match="repeated columns") as info:
        load_trial_csv(path)
    assert str(sorted(extra.split(","))) in str(info.value)


def test_load_lists_bad_cells_with_line_numbers(tmp_path):
    body = basic_rows().split("\n")
    body[2] = body[2].replace(body[2].split(",")[3], "n/a", 1)
    body[5] = ",".join(body[5].split(",")[:4] + [""])
    path = write_csv(tmp_path, "\n".join(body))
    with pytest.raises(TrialDataError, match=r"line 4 .*baseline_pain") as info:
        load_trial_csv(path)
    assert "line 7" in str(info.value)


def test_load_lists_at_most_ten_repeated_subject_ids(tmp_path):
    # Lines 4 to 15 repeat the subject id of line 2: twelve repeats.
    body = basic_rows().split("\n")
    body[2:14] = ["P00," + row.split(",", 1)[1] for row in body[2:14]]
    path = write_csv(tmp_path, "\n".join(body))
    with pytest.raises(TrialDataError, match="12 empty or repeated subject ids") as info:
        load_trial_csv(path)
    assert "line 4 ('P00', as on line 2)" in str(info.value)
    assert str(info.value).endswith("and 2 more")


@pytest.mark.parametrize("subjects", [["S1", "S1", "S3", "S4"], ["S1", "", "S3", "S4"],
                                      ["S1", "S2", "S3"]], ids=["repeated", "empty", "short"])
def test_build_rejects_subject_ids_the_loader_would_reject(subjects):
    x = np.arange(4.0)
    with pytest.raises(TrialDataError, match="4 distinct, non-empty subject ids"):
        TrialDataset.build(["a"] * 4, [1, 0, 1, 0], {"pain": x}, {"pain": x}, subjects=subjects)


def test_load_rejects_wrong_field_count_with_line(tmp_path):
    body = basic_rows() + "\nP99,north,drug,1.0"
    path = write_csv(tmp_path, body)
    with pytest.raises(TrialDataError, match="line 18"):
        load_trial_csv(path)


def test_load_rejects_more_than_two_treatments(tmp_path):
    body = basic_rows() + "\nP99,north,newdrug,1.0,2.0\nP98,north,newdrug,1.5,2.5"
    path = write_csv(tmp_path, body)
    with pytest.raises(TrialDataError, match="2 treatment labels"):
        load_trial_csv(path)


def test_load_rejects_unknown_control_override(tmp_path):
    path = write_csv(tmp_path, basic_rows())
    with pytest.raises(TrialDataError, match="sugar"):
        load_trial_csv(path, control_label="sugar")


def test_load_rejects_empty_and_missing_files(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(TrialDataError, match="empty"):
        load_trial_csv(empty)
    with pytest.raises(TrialDataError, match="cannot read"):
        load_trial_csv(tmp_path / "nope.csv")


def test_load_rejects_single_arm_stratum(tmp_path):
    body = "\n".join(
        [
            "P1,a,drug,1.0,2.0",
            "P2,a,drug,1.1,2.1",
            "P3,b,drug,1.2,2.2",
            "P4,b,placebo,1.3,2.3",
        ]
    )
    path = write_csv(tmp_path, body)
    with pytest.raises(TrialDataError, match="pain"):
        load_trial_csv(path)


# ---------------------------------------------------------------------------
# writing and round-trip


def test_write_then_load_round_trips_exactly(tmp_path):
    dataset = synthetic_dataset()
    path = tmp_path / "round.csv"
    write_trial_csv(dataset, path)
    back = load_trial_csv(path, control_label=dataset.control_label)
    assert back.endpoint_names == dataset.endpoint_names
    assert back.control_label == dataset.control_label
    for name in dataset.endpoint_names:
        a, b = dataset.endpoints[name], back.endpoints[name]
        np.testing.assert_array_equal(a.x, b.x)
        np.testing.assert_array_equal(a.y, b.y)
        np.testing.assert_array_equal(a.z, b.z)
        np.testing.assert_array_equal(a.strata, b.strata)


def test_names_with_commas_and_quotes_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    name = 'pain, "day" 7'
    dataset = TrialDataset.build(
        np.repeat(['site "A", north', "south"], 6),
        np.tile(np.int8([1, 0]), 6),
        {name: rng.normal(size=12)},
        {name: rng.normal(size=12)},
        subjects=[f'S{i}, "x"' for i in range(12)],
    )
    path = tmp_path / "quoted.csv"
    write_trial_csv(dataset, path)
    back = load_trial_csv(path, control_label=dataset.control_label)
    assert back.endpoint_names == (name,)
    assert back.subjects == dataset.subjects
    a, b = dataset.endpoints[name], back.endpoints[name]
    assert b.stratum_labels == a.stratum_labels
    for field in ("strata", "z", "x", "y"):
        np.testing.assert_array_equal(getattr(b, field), getattr(a, field))

    report = run_analysis(back, ("ancova",), permutations=99)
    rows = list(csv.reader(io.StringIO(report_to_csv(report))))
    assert [len(row) for row in rows] == [9, 9]
    assert rows[1][:2] == [name, "ancova"]


@pytest.mark.parametrize("subject", ["S1\nx", "S1\u2028x"],
                         ids=["quoted_line_break", "unquoted_line_separator"])
def test_line_breaks_inside_fields_round_trip(tmp_path, subject):
    # The writer quotes a field holding a line break and leaves U+2028 bare;
    # the reader splits records where csv does, not where str.splitlines would.
    rng = np.random.default_rng(4)
    dataset = TrialDataset.build(
        np.repeat(["north", f"so{subject[2]}uth"], 4),
        np.tile(np.int8([1, 0]), 4),
        {"pain": rng.normal(size=8)},
        {"pain": rng.normal(size=8)},
        subjects=[subject] + [f"S{i}" for i in range(2, 9)],
    )
    path = tmp_path / "breaks.csv"
    write_trial_csv(dataset, path)
    back = load_trial_csv(path, control_label=dataset.control_label)
    assert back.subjects == dataset.subjects
    a, b = dataset.endpoints["pain"], back.endpoints["pain"]
    assert b.stratum_labels == a.stratum_labels
    for field in ("strata", "z", "x", "y"):
        np.testing.assert_array_equal(getattr(b, field), getattr(a, field))


def test_labels_differing_in_other_whitespace_stay_apart(tmp_path):
    # Only spaces and tabs are stripped on loading: a stratum label ending in
    # U+2028 keeps it, so "south" and "south\u2028" stay two strata.
    rng = np.random.default_rng(5)
    dataset = TrialDataset.build(
        np.repeat(["south", "south\u2028"], 4),
        np.tile(np.int8([1, 0]), 4),
        {"pain": rng.normal(size=8)},
        {"pain": rng.normal(size=8)},
    )
    path = tmp_path / "labels.csv"
    write_trial_csv(dataset, path)
    back = load_trial_csv(path, control_label=dataset.control_label)
    assert back.endpoints["pain"].stratum_labels == ("south", "south\u2028")
    np.testing.assert_array_equal(back.endpoints["pain"].strata,
                                  dataset.endpoints["pain"].strata)


@pytest.mark.parametrize("subject,stratum,control",
                         [("S1 ", "north", "placebo"), ("S1", "\tnorth", "placebo"),
                          ("S1", "north", "placebo ")],
                         ids=["subject", "stratum", "arm"])
def test_writer_refuses_labels_the_loader_would_strip(tmp_path, subject, stratum, control):
    rng = np.random.default_rng(6)
    dataset = TrialDataset.build(
        np.repeat([stratum, "south"], 4),
        np.tile(np.int8([1, 0]), 4),
        {"pain": rng.normal(size=8)},
        {"pain": rng.normal(size=8)},
        subjects=[subject] + [f"S{i}" for i in range(2, 9)],
        control_label=control,
    )
    path = tmp_path / "blanks.csv"
    with pytest.raises(ValueError, match="space or tab"):
        write_trial_csv(dataset, path)
    assert not path.exists()


def test_line_numbers_count_the_lines_inside_quoted_fields(tmp_path):
    body = basic_rows().split("\n")
    body[0] = '"P00\nsecond line' + body[0][3:].replace(",", '",', 1)
    body[3] = body[3].replace(body[3].split(",")[3], "n/a", 1)
    path = write_csv(tmp_path, "\n".join(body))
    # The header is line 1, the quoted record lines 2-3, so the fourth record
    # starts on line 6.
    with pytest.raises(TrialDataError, match=r"1 missing .* line 6 \(baseline_pain\)"):
        load_trial_csv(path)


# ---------------------------------------------------------------------------
# summaries


def test_summarize_by_arm_matches_hand_computation():
    dataset = synthetic_dataset(endpoints=("pain",))
    data = dataset.endpoints["pain"]
    rows = summarize_by_arm(dataset)
    assert len(rows) == 2
    control = next(r for r in rows if r["arm"] == dataset.control_label)
    mask = data.z == 0
    assert control["n"] == int(mask.sum())
    assert control["baseline_mean"] == pytest.approx(data.x[mask].mean())
    assert control["outcome_sd"] == pytest.approx(data.y[mask].std(ddof=1))
    assert control["flags"] == []


def test_summarize_flags_single_unit_arm():
    strata = np.array(["a", "a", "a", "b", "b", "b"])
    z = np.array([1, 0, 0, 0, 1, 0], dtype=np.int8)
    x = np.arange(6.0)
    dataset = TrialDataset.build(strata, z, {"e": x}, {"e": x + 1.0})
    rows = summarize_by_arm(dataset)
    treated = next(r for r in rows if r["arm"] == "treated")
    assert treated["n"] == 2
    strata2 = np.array(["a"] * 5)
    z2 = np.array([1, 0, 0, 0, 0], dtype=np.int8)
    tiny = TrialDataset.build(
        strata2, z2, {"e": np.arange(5.0)}, {"e": np.arange(5.0) + 1}
    )
    rows2 = summarize_by_arm(tiny)
    lone = next(r for r in rows2 if r["arm"] == "treated")
    assert lone["n"] == 1
    assert "single_unit_arm" in lone["flags"]
    assert lone["outcome_sd"] == 0.0


def test_correlation_report_flags_weak_baseline():
    rng = np.random.default_rng(12)
    strata = np.repeat(["a", "b"], 10)
    z = np.tile([1, 0], 10).astype(np.int8)
    x = rng.normal(size=20)
    strong = TrialDataset.build(strata, z, {"e": x}, {"e": x + 0.1 * rng.normal(size=20)})
    weak = TrialDataset.build(strata, z, {"e": x}, {"e": rng.normal(size=20)})
    strong_row = baseline_outcome_correlation(strong)[0]
    weak_row = baseline_outcome_correlation(weak)[0]
    assert strong_row["pooled_r"] == pytest.approx(
        np.corrcoef(x, strong.endpoints["e"].y)[0, 1]
    )
    assert strong_row["flags"] == []
    assert "weak_baseline_correlation" in weak_row["flags"]
    assert len(weak_row["per_stratum_r"]) == 2


# ---------------------------------------------------------------------------
# analysis reports


def test_run_analysis_produces_complete_rows():
    dataset = synthetic_dataset()
    methods = ("ancova", "stratified_diff_means", "freedman_lane")
    report = run_analysis(dataset, methods, permutations=199, master_seed=3)
    assert len(report.rows) == len(dataset.endpoint_names) * len(methods)
    for row in report.rows:
        assert 0.0 < row["p_value"] <= 1.0
        assert row["method"] in methods
    assert len(report.exchangeability) == len(dataset.endpoint_names)
    assert report.provenance["input_sha256"] is None
    assert report.provenance["n_units"] == dataset.n_units


def test_exchangeability_only_attached_with_freedman_lane():
    dataset = synthetic_dataset(endpoints=("pain",))
    without = run_analysis(dataset, ("ancova",), permutations=99, master_seed=1)
    assert without.exchangeability == []


def test_run_analysis_is_deterministic_per_seed():
    dataset = synthetic_dataset()
    methods = ("stratified_diff_means", "freedman_lane")
    a = run_analysis(dataset, methods, permutations=299, master_seed=42)
    b = run_analysis(dataset, methods, permutations=299, master_seed=42)
    assert report_to_json(a) == report_to_json(b)
    c = run_analysis(dataset, methods, permutations=299, master_seed=43)
    pa = [r["p_value"] for r in a.rows]
    pc = [r["p_value"] for r in c.rows]
    assert pa != pc


def test_run_analysis_rejects_unknown_method():
    dataset = synthetic_dataset(endpoints=("pain",))
    with pytest.raises(ValueError, match="anova"):
        run_analysis(dataset, ("anova",), permutations=99, master_seed=1)


def three_endpoint_dataset(seed=21):
    """Three endpoints of one trial with interleaved strata of 9, 11 and 10."""
    rng = np.random.default_rng(seed)
    strata = rng.permutation(np.repeat(["p", "q", "r"], (9, 11, 10)))
    z = np.zeros(strata.size, dtype=np.int8)
    for label in ("p", "q", "r"):
        units = np.nonzero(strata == label)[0]
        z[rng.choice(units, units.size // 2, replace=False)] = 1
    baselines, outcomes = {}, {}
    for name, effect in (("pain", 0.8), ("sleep", 0.0), ("mood", -0.4)):
        x = rng.normal(5, 1, strata.size)
        baselines[name] = x
        outcomes[name] = 0.7 * x + effect * z + rng.normal(0, 1, strata.size)
    return TrialDataset.build(strata, z, baselines, outcomes)


@pytest.mark.parametrize("draws", [999, 2500], ids=["one-block", "three-blocks"])
def test_every_row_equals_run_trial_on_the_trial_plan(draws):
    dataset = three_endpoint_dataset()
    methods = list(METHODS)
    report = run_analysis(dataset, methods, permutations=draws, master_seed=17)
    rows = iter(report.rows)
    assert len(report.exchangeability) == len(dataset.endpoint_names)
    for name, diag in zip(dataset.endpoint_names, report.exchangeability):
        data = dataset.endpoints[name]
        plan = PermutationPlan(layout=data.layout, draws=draws, master_seed=17)
        expected = run_trial([data], plan, methods + ["exchangeability"])[0]
        for method in methods:
            row, want = next(rows), expected[method]
            assert (row["endpoint"], row["method"]) == (name, method)
            assert row["statistic"] == want.statistic, (name, method)
            assert row["p_value"] == want.p_value.value, (name, method)
            assert row["exceedances"] == want.p_value.exceedances, (name, method)
            assert row["draws"] == want.p_value.draws, (name, method)
            assert row["degenerate_draws"] == want.degenerate_draws, (name, method)
            assert row["flags"] == list(want.flags), (name, method)
        want = expected["exchangeability"]
        assert diag["endpoint"] == name
        assert diag["statistic"] == want.statistic, name
        assert diag["p_value"] == want.p_value.value, name
        assert diag["partial_p"] == list(want.per_stratum), name
        assert diag["stratum_correlations"] == want.null_summary["stratum_correlations"]
        assert diag["flags"] == list(want.flags), name
    assert next(rows, None) is None


@pytest.mark.parametrize("endpoints", [("pain",), ("pain", "sleep", "mood")])
@pytest.mark.parametrize("command,draws_made", [
    (["analyze", "--methods", ",".join(METHODS)], 1),
    (["analyze", "--methods", "stratified_sum_abs"], 1),
    (["analyze"], 1),
    (["diagnose"], 1),
    (["analyze", "--methods", "ancova"], 0),
], ids=["all-methods", "one-method", "default-methods", "diagnose", "ancova-alone"])
def test_each_command_draws_the_orbit_once_per_trial(tmp_path, monkeypatch, capsys,
                                                     endpoints, command, draws_made):
    full = three_endpoint_dataset()
    dataset = TrialDataset(
        endpoints={name: full.endpoints[name] for name in endpoints},
        subjects=full.subjects,
        control_label=full.control_label,
        treated_label=full.treated_label,
    )
    path = tmp_path / "trial.csv"
    write_trial_csv(dataset, path)
    calls = []
    sampled_blocks = randomization._sampled_blocks

    def counted(chunks, rows):
        for j, lo, units in chunks:
            rows[j] += units.shape[0]
            yield j, lo, units

    def counting(positions, stream, draws):
        # Rows read from the stream per stratum, over every chunk.
        rows = [0] * len(positions)
        calls.append(rows)
        for chunks, replay in sampled_blocks(positions, stream, draws):
            yield counted(chunks, rows), replay

    monkeypatch.setattr(randomization, "_sampled_blocks", counting)
    assert main([*command, "--input", str(path), "--permutations", "2500"]) == 0
    assert len(calls) == draws_made
    for rows in calls:
        assert rows == [2500] * len(rows)


@pytest.mark.parametrize("other", [
    dict(seed=8),  # same strata and treated counts, another assignment
    dict(n_per=10),  # other strata
], ids=["assignment", "strata"])
def test_endpoints_must_share_strata_and_assignment(other):
    first = synthetic_dataset(endpoints=("pain",))
    second = synthetic_dataset(endpoints=("sleep",), **other)
    mixed = TrialDataset(
        endpoints={**first.endpoints, **second.endpoints},
        subjects=first.subjects,
        control_label=first.control_label,
        treated_label=first.treated_label,
    )
    for run in (lambda: run_analysis(mixed, ("ancova",), permutations=99),
                lambda: diagnose_exchangeability(mixed, permutations=99)):
        with pytest.raises(ValueError, match="'sleep' does not share"):
            run()


def test_report_serializations_cover_all_rows(tmp_path):
    dataset = synthetic_dataset()
    report = run_analysis(
        dataset, ("ancova", "lm_permutation"), permutations=99, master_seed=9
    )
    blob = json.loads(report_to_json(report))
    assert {r["method"] for r in blob["rows"]} == {"ancova", "lm_permutation"}

    csv_text = report_to_csv(report)
    lines = csv_text.strip().split("\n")
    assert lines[0].startswith("endpoint,method")
    assert len(lines) == 1 + len(report.rows)

    text = format_report_text(report)
    for name in dataset.endpoint_names:
        assert name in text

    for fmt, name in (("json", "r.json"), ("csv", "r.csv")):
        out = tmp_path / name
        write_report(report, out, fmt)
        assert out.read_text()
    with pytest.raises(ValueError, match="format"):
        write_report(report, tmp_path / "r.x", "yaml")


def test_report_has_no_timestamps():
    dataset = synthetic_dataset(endpoints=("pain",))
    report = run_analysis(dataset, ("ancova",), permutations=99, master_seed=5)
    text = report_to_json(report).lower()
    assert "timestamp" not in text
    assert "date" not in text
