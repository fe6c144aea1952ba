"""Self-test of the benchmark, at tiny sizes.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/test_perfbench.py

It checks that every workload emits every metric BENCHMARK.json names, that
traced spans nest with non-negative self times, and that the correctness
checks fail when handed corrupted results.
"""

import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import tracing  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0, metric["name"]


def test_refuses_to_run_without_the_package():
    with tempfile.TemporaryDirectory() as bare:
        os.mkdir(os.path.join(bare, "perfbench"))
        for name in ("run.py", "workloads.py", "tracing.py"):
            with open(os.path.join(HERE, name), "rb") as src, \
                    open(os.path.join(bare, "perfbench", name), "wb") as dst:
                dst.write(src.read())
        cmd = [sys.executable, os.path.join(bare, "perfbench", "run.py"),
               "--workload", "exact_orbit", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""


def test_spans_nest_and_self_times_are_non_negative(tmp_path):
    tracer = tracing.Tracer()
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, 5, workloads.TINY, str(tmp_path))
        workload.setup()
        tracer.unit_key = workload.unit_key
        workload.tracer = tracer
        tracer.install()
        try:
            tracer.pass_index += 1
            raw = workload.run_pass(0)
        finally:
            tracer.uninstall()
        _, failed, problems = workload.check_pass(raw)
        assert failed == 0, problems
    spans = tracer.spans
    assert spans
    names = {s.name for s in spans}
    assert {"cli.main", "bench.exact_calls", "randomization.enumerate_assignments",
            "hypothesis_tests.npc_combine", "simulation.run_power_study"} <= names
    for span in spans:
        assert span.end >= span.start
        if span.parent >= 0:
            parent = spans[span.parent]
            assert parent.start <= span.start and span.end <= parent.end
            assert parent.pass_index == span.pass_index
    assert min(tracing.self_times(spans)) >= 0.0
    # Spans for the test battery carry a unit of work.
    assert all(s.unit for s in spans if s.name.startswith("hypothesis_tests."))
    # The tracer leaves the package as it found it.
    from stratperm import cli, hypothesis_tests
    assert not hasattr(cli.main, "__wrapped__")
    assert not any(hasattr(f, "__wrapped__") for f in hypothesis_tests.METHODS.values())


def _power_case():
    tests = workloads.DEFAULT_TESTS
    b = 99
    p = np.array([[0.03, 5 / 100, 60 / 100, 1.0],
                  [0.40, 1 / 100, 2 / 100, 30 / 100]])
    rows = [{"test": t, "replications": "2",
             "rejections": str(int(np.count_nonzero(p[:, i] <= 0.05)))}
            for i, t in enumerate(tests)]
    return p, tests, b, rows


def test_power_check_accepts_a_good_pass():
    p, tests, b, rows = _power_case()
    problems, ok = workloads.check_power_study(p, tests, b, rows, 2)
    assert problems == [] and ok.all()


@pytest.mark.parametrize("corrupt", ["zero_p", "off_grid", "rejections"])
def test_power_check_catches_corruption(corrupt):
    p, tests, b, rows = _power_case()
    if corrupt == "zero_p":
        p[0, 1] = 0.0
    elif corrupt == "off_grid":
        p[1, 2] = 0.0234
    else:
        rows[3]["rejections"] = "2"
    problems, ok = workloads.check_power_study(p, tests, b, rows, 2)
    assert problems and not ok.all()


def test_null_band():
    lo, hi = workloads.rejection_band(1000)
    assert lo < 50 < hi
    sim = workloads.Simulate(0.0, 1, workloads.TINY, ".")
    sim.replications = 1000
    sim.rejections[:] = 50
    assert sim.finish() == []
    sim.rejections[2] = hi + 1
    assert len(sim.finish()) == 1


def _report():
    rows = []
    for endpoint in ("primary", "secondary"):
        for method in workloads.DEFAULT_TESTS:
            mc = method != "ancova"
            rows.append({"endpoint": endpoint, "method": method,
                         "p_value": 11 / 100 if mc else 0.2,
                         "p_mode": "monte_carlo" if mc else "analytic",
                         "draws": 99 if mc else 0})
    return {"rows": rows, "exchangeability": [{"endpoint": "primary", "p_value": 0.5},
                                              {"endpoint": "secondary", "p_value": 0.2}]}


@pytest.mark.parametrize("corrupt", [None, "zero_p", "draws", "missing", "duplicate",
                                     "no_diagnostic"])
def test_report_check(corrupt):
    report = _report()
    if corrupt == "zero_p":
        report["rows"][1]["p_value"] = 0.0
    elif corrupt == "draws":
        report["rows"][2]["draws"] = 98
    elif corrupt == "missing":
        del report["rows"][5]
    elif corrupt == "duplicate":
        report["rows"].append(dict(report["rows"][0]))
    elif corrupt == "no_diagnostic":
        del report["exchangeability"][1]
    problems, ok = workloads.check_report(report, ("primary", "secondary"),
                                          workloads.DEFAULT_TESTS, 99)
    assert (problems == [] and all(ok)) if corrupt is None else (problems and not all(ok))


@pytest.mark.parametrize("corrupt", [None, "count", "zero_k", "reference"])
def test_exact_check(corrupt):
    records = {"assignment/lm_permutation": (7, 36, 7 / 36, "exact")}
    counts = {"assignment": 36}
    reference = {"assignment/lm_permutation": 7}
    if corrupt == "count":
        records = {"assignment/lm_permutation": (7, 35, 7 / 35, "exact")}
    elif corrupt == "zero_k":
        records = {"assignment/lm_permutation": (0, 36, 1 / 36, "exact")}
    elif corrupt == "reference":
        reference = {"assignment/lm_permutation": 8}
    problems, ok = workloads.check_exact(records, counts, reference)
    assert (problems == [] and all(ok)) if corrupt is None else (problems and not any(ok))
