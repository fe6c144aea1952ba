"""Benchmark for stratperm.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload simulate_power --seed 1 --seconds 25 --trace 0

Workloads: simulate_power, simulate_null, analyze_large, exact_orbit (see
BENCHMARK.json for why each was chosen).  The seed makes every input.  A run
sets up (imports, inputs, one small untimed warm-up), then repeats the
workload's fixed pass until ``--seconds`` have gone by and it has made the
workload's minimum number of passes, checking every pass's output.

With ``--trace 0`` the last line of standard output holds the end-to-end
metrics; with ``--trace 1`` it holds the per-layer metrics, from a run that
spends half its time untraced and half traced.  Either way the full record
(provenance, every pass, checks, the layer table and, when traced, the spans)
is written to ``perfbench/results/``.

The held-out seed for confirming a claimed gain is 271828.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# A plain single-threaded baseline: BLAS may use at most this many threads
# (never more than the machine's processors).  Fixed before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

# The processors this process may use; passes take turns on them.
CPUS = sorted(os.sched_getaffinity(0))

# Set-up is measured in this process and in SETUP_SAMPLES - 1 fresh ones.
SETUP_SAMPLES = 7
HELD_OUT_SEED = 271828


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny sizes are for the benchmark's self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up, print the set-up time and exit")
    return parser.parse_args(argv)


def _provenance(seed):
    import numpy as np
    import scipy

    commit = "unknown (not a git checkout)"
    try:
        top, head = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.split()
        if os.path.realpath(top) == os.path.realpath(ROOT):
            commit = head
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "stratperm")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "pass_cpus": CPUS,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": BLAS_THREADS,
        "seed": seed,
        "held_out_seed": HELD_OUT_SEED,
        "machine": platform.machine(),
    }


def _probe_setup(args):
    """Set-up time of a fresh process, which sets up and exits."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _passes(workload, seconds, min_passes, first_index, tracer, log, between=None):
    """Repeat the workload's pass; return the wall time of each pass.

    After ``min_passes``, a pass starts only if, taking as long as the last
    one, it would end within ``seconds`` of the start.  ``between(elapsed)``
    runs after each pass and returns the time it took, which does not count
    against ``seconds``.

    Pass ``i`` runs on the ``i``-th usable processor, in turn.  On a shared
    host each processor's speed drifts on its own for tens of seconds at a
    time, and an unpinned process tends to stay on one of them; taking
    turns lets every run's median sample all of them.
    """
    walls = []
    start = time.perf_counter()
    index = first_index
    while len(walls) < min_passes or time.perf_counter() - start + walls[-1] <= seconds:
        gc.collect()
        os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})
        if tracer is not None:
            tracer.pass_index = index
            tracer.unit = None
        t0 = time.perf_counter()
        error = None
        try:
            raw = workload.run_pass(index)
        except Exception:  # counted as failed ops, recorded in the sidecar
            error = traceback.format_exc()
        wall = time.perf_counter() - t0
        os.sched_setaffinity(0, CPUS)
        walls.append(wall)
        if error is None:
            try:
                attempted, failed, problems = workload.check_pass(raw)
            except Exception:  # unreadable output fails the whole pass
                error = traceback.format_exc()
        if error is not None:
            attempted, failed, problems = workload.ops_per_pass, workload.ops_per_pass, [error]
        log.append({"pass": index, "traced": tracer is not None, "wall_s": wall,
                    "attempted": attempted, "failed": failed, "problems": problems})
        index += 1
        if between is not None:
            start += between(time.perf_counter() - start)
    return walls


def end_to_end(workload, walls, setup_samples):
    """End-to-end figures; the time of a pass is the median over passes."""
    wall = statistics.median(walls)
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "ops_per_s": workload.ops_per_pass / wall,
        "draws_per_s": workload.draws_per_pass / wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(table, workload, untraced_walls, traced_walls, root_self_s):
    """Per-layer figures: ``<layer>.<measure>`` from the layer table, plus
    the ratios and tracing figures computed here."""
    figures = {
        f"{layer}.{measure}": value
        for layer, row in table.items()
        for measure, value in row.items()
    }
    rows = sum(row["rows"] for layer, row in table.items()
               if layer.startswith("randomization."))
    degenerate = sum(row["degenerate"] for row in table.values())
    regression_draws = sum(row["regression_draws"] for row in table.values())
    traced = statistics.median(traced_walls)
    figures.update({
        "randomization.rows_per_draw": rows / workload.draws_per_pass,
        "hypothesis_tests.degenerate_ratio":
            degenerate / regression_draws if regression_draws else 0.0,
        "trace.wall_s": traced,
        "trace.overhead_s": traced - statistics.median(untraced_walls),
        "trace.root_self_s": root_self_s,
        "trace.root_self_share": root_self_s / traced,
    })
    return figures


def declared(spec_metrics, figures, absent_is_zero):
    """The metrics BENCHMARK.json names, in its order and with its units.

    A layer that was never called reads 0; an end-to-end figure must exist.
    """
    out = {}
    for metric in spec_metrics:
        name = metric["name"]
        value = figures.get(name, 0) if absent_is_zero else figures[name]
        out[name] = {"value": value, "unit": metric["unit"]}
    return out


def main(argv=None) -> int:
    args = _parse(argv)
    if not os.path.isfile(os.path.join(SRC, "stratperm", "__init__.py")):
        sys.stderr.write(f"perfbench: no package source at {SRC}/stratperm; run from "
                         "the root of a stratperm checkout\n")
        return 2
    sys.path.insert(0, SRC)
    import stratperm
    import tracing
    import workloads

    if not os.path.abspath(stratperm.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported stratperm from {stratperm.__file__}\n")
        return 2
    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}; choose from "
                         f"{', '.join(workloads.WORKLOADS)}\n")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    scale = workloads.SCALES[args.scale]
    os.makedirs(os.path.join(HERE, "work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(HERE, "work"))
    try:
        workload = workloads.make(args.workload, args.seed, scale, workdir)
        workload.setup()
        workload.warm_up()
        setup_here = time.perf_counter() - T0
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_here}))
            return 0
        setup_samples = [setup_here]

        def probe_when_due(elapsed):
            # Fresh set-ups are spread evenly over the timed section, so they
            # sample the machine's state across the run as the passes do.
            t0 = time.perf_counter()
            due = (SETUP_SAMPLES - 1) * min(1.0, elapsed / args.seconds)
            while len(setup_samples) - 1 < due:
                setup_samples.append(_probe_setup(args))
            return time.perf_counter() - t0

        log = []
        tracer = None
        if args.trace:
            untraced = _passes(workload, args.seconds / 2, 1, 0, None, log)
            tracer = tracing.Tracer(unit_key=workload.unit_key)
            workload.tracer = tracer
            tracer.install()
            try:
                traced = _passes(workload, args.seconds / 2, 1, len(untraced), tracer, log)
            finally:
                tracer.uninstall()
                workload.tracer = None
        else:
            untraced = _passes(workload, args.seconds, workload.min_passes, 0, None, log,
                               probe_when_due)
            probe_when_due(args.seconds)
        run_problems = workload.finish()

        attempted = sum(entry["attempted"] for entry in log)
        failed = sum(entry["failed"] for entry in log)
        correct = failed == 0 and not run_problems
        record = {
            "workload": args.workload,
            "scale": args.scale,
            "trace": args.trace,
            "seconds": args.seconds,
            "provenance": _provenance(args.seed),
            "setup_samples_s": setup_samples,
            "passes": log,
            "run_problems": run_problems,
            "ops_failed_ratio": failed / attempted,
        }
        if tracer is None:
            metrics = declared(spec["end_to_end"],
                               end_to_end(workload, untraced, setup_samples), False)
        else:
            spans = tracer.spans
            table = tracing.layer_table(spans)
            figures = per_layer(table, workload, untraced, traced,
                                tracing.root_self_time(spans))
            metrics = declared(spec["per_layer"], figures, True)
            record["layers"] = table
            record["spans"] = [
                {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent,
                 "unit": s.unit, "pass": s.pass_index}
                for s in spans
            ]
        record["metrics"] = metrics
        results = os.path.join(HERE, "results")
        os.makedirs(results, exist_ok=True)
        sidecar = os.path.join(
            results, f"{args.workload}-{args.scale}-seed{args.seed}-trace{args.trace}.json")
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(record, fh, indent=1)
        for entry in log:
            for problem in entry["problems"]:
                sys.stderr.write(f"pass {entry['pass']}: {problem}\n")
        for problem in run_problems:
            sys.stderr.write(f"{problem}\n")
        print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
