"""Layer spans recorded from outside the package.

The tracer replaces each public function of the layer modules with a timing
wrapper, at every name bound to it in those modules' namespaces (the names
the calling modules imported, and the defining module's own name for calls
within a module), and in the shared ``METHODS`` registry.  Spans are kept in
memory: name, start, end, parent span and the unit of work (replication,
endpoint or test) that was current when the span opened.

Per-call memory of the test battery comes from ``tracemalloc``, started
around each outermost test call.  It is paused inside the enumeration
functions, whose Python row loops it would slow about ten-fold; their share
is taken as the size of the matrix they return.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

import numpy as np

LAYER_MODULES = (
    "randomization",
    "linear_model",
    "hypothesis_tests",
    "simulation",
    "reporting",
    "cli",
)

# Tests whose null refits a regression, so their draws can be degenerate.
REGRESSION_TESTS = ("lm_permutation", "freedman_lane", "kennedy", "manly")

_PAUSED = ("randomization.enumerate_assignments",
           "randomization.enumerate_within_stratum_permutations")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    parent: int
    unit: str | None
    pass_index: int
    end: float = 0.0
    rows: int = 0
    nbytes: int = 0
    peak_bytes: int = -1
    degenerate: int = 0
    regression_draws: int = 0
    bytes_read: int = 0


@dataclass
class _MemScope:
    """tracemalloc bookkeeping for one outermost test call."""

    offset: int = 0  # bytes held but not traced (returned while paused)
    peak: int = 0


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    pass_index: int = 0
    unit: str | None = None
    # Called as unit_key(span_name, args) when a span opens; a string return
    # starts a new unit of work.
    unit_key: object = None
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)
    _mem: _MemScope | None = None

    # -- installation -------------------------------------------------------

    def install(self, package: str = "stratperm") -> None:
        modules = {
            short: importlib.import_module(f"{package}.{short}") for short in LAYER_MODULES
        }
        hyp = modules["hypothesis_tests"]
        tests = set(hyp.METHODS.values()) | {hyp.exchangeability_diagnostic}
        wrappers = {}
        for short, mod in modules.items():
            public = getattr(mod, "__all__", None) or [
                n for n in vars(mod) if not n.startswith("_")
            ]
            for attr in public:
                fn = getattr(mod, attr, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{fn.__name__}", fn, fn in tests)
        for mod in modules.values():
            self._patch(vars(mod), wrappers)
        self._patch(hyp.METHODS, wrappers)

    def _patch(self, namespace: dict, wrappers: dict) -> None:
        for key, value in list(namespace.items()):
            if inspect.isfunction(value) and value in wrappers:
                self._patches.append((namespace, key, value))
                namespace[key] = wrappers[value]

    def uninstall(self) -> None:
        while self._patches:
            namespace, key, original = self._patches.pop()
            namespace[key] = original

    # -- spans --------------------------------------------------------------

    def _open(self, name: str, args) -> Span:
        if self.unit_key is not None:
            unit = self.unit_key(name, args)
            if unit is not None:
                self.unit = unit
        parent = self._stack[-1] if self._stack else -1
        span = Span(name=name, start=0.0, parent=parent, unit=self.unit,
                    pass_index=self.pass_index)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        """Span around a block of the benchmark's own code."""
        span = self._open(name, ())
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, name: str, fn, is_test: bool):
        tracer = self
        paused = name in _PAUSED
        orbit = name.startswith("randomization.")
        loads = name == "reporting.load_trial_csv"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = tracer._open(name, args)
            owner = is_test and tracer._mem is None
            if owner:
                tracer._mem = _MemScope()
                tracemalloc.start()
            pause = paused and tracer._mem is not None
            if pause:
                tracer._pause()
            result = None
            try:
                result = fn(*args, **kwargs)
            finally:
                if pause:
                    tracer._resume(result)
                if owner:
                    span.peak_bytes = tracer._finish()
                tracer._close(span)
            if orbit and isinstance(result, np.ndarray) and result.ndim == 2:
                span.rows = int(result.shape[0])
                span.nbytes = int(result.nbytes)
            if is_test and getattr(result, "method", None) in REGRESSION_TESTS:
                span.degenerate = int(result.degenerate_draws)
                span.regression_draws = int(result.p_value.draws)
            if loads and args:
                span.bytes_read = os.path.getsize(args[0])
            return result

        return wrapper

    # -- memory -------------------------------------------------------------

    def _pause(self) -> None:
        current, peak = tracemalloc.get_traced_memory()
        scope = self._mem
        scope.peak = max(scope.peak, scope.offset + peak)
        scope.offset += current
        tracemalloc.stop()

    def _resume(self, result) -> None:
        scope = self._mem
        if isinstance(result, np.ndarray):
            scope.offset += result.nbytes
            scope.peak = max(scope.peak, scope.offset)
        tracemalloc.start()

    def _finish(self) -> int:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        scope, self._mem = self._mem, None
        return max(scope.peak, scope.offset + peak)


def self_times(spans: list) -> list:
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, child)]


def root_self_time(spans: list) -> float:
    """Self time of the root spans of each pass, median over passes."""
    per_pass: dict = {}
    for span, own in zip(spans, self_times(spans)):
        if span.parent < 0:
            per_pass[span.pass_index] = per_pass.get(span.pass_index, 0.0) + own
    return statistics.median(per_pass.values()) if per_pass else 0.0


def layer_table(spans: list) -> dict:
    """Per-pass sums by span name, then the median over traced passes.

    Returns ``{name: {calls, self_s, rows, mb, peak_mb, degenerate,
    regression_draws, mb_read}}``; ``peak_mb`` is the maximum over calls.
    """
    selfs = self_times(spans)
    passes: dict = {}
    peaks: dict = {}
    for span, own in zip(spans, selfs):
        row = passes.setdefault(span.pass_index, {}).setdefault(
            span.name,
            {"calls": 0, "self_s": 0.0, "rows": 0, "mb": 0.0,
             "degenerate": 0, "regression_draws": 0, "mb_read": 0.0},
        )
        row["calls"] += 1
        row["self_s"] += own
        row["rows"] += span.rows
        row["mb"] += span.nbytes / 1e6
        row["degenerate"] += span.degenerate
        row["regression_draws"] += span.regression_draws
        row["mb_read"] += span.bytes_read / 1e6
        if span.peak_bytes >= 0:
            peaks[span.name] = max(peaks.get(span.name, 0.0), span.peak_bytes / 1e6)
    names = {name for table in passes.values() for name in table}
    out = {}
    for name in sorted(names):
        rows = [table.get(name) for table in passes.values()]
        merged = {}
        for key in ("calls", "self_s", "rows", "mb", "degenerate",
                    "regression_draws", "mb_read"):
            merged[key] = statistics.median(r[key] if r else 0 for r in rows)
        merged["peak_mb"] = peaks.get(name, 0.0)
        out[name] = merged
    return out
