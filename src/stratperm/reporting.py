"""Trial-file ingestion, per-arm summaries, and the analysis report.

The on-disk format is one tidy CSV: ``subject``, ``stratum``, ``treatment``,
then a ``baseline_<endpoint>`` / ``outcome_<endpoint>`` column pair per
endpoint.  Loading is strict: unknown columns, missing cells, empty or
repeated subject ids, unpaired endpoint columns, and single-arm strata are
all reported as errors with enough context to find them (file line numbers,
column names).
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import os
from dataclasses import dataclass

import numpy as np

from . import __version__
from .hypothesis_tests import METHODS, TestResult, TrialData, _check_names, run_trial
from .randomization import DRAW_SCHEME, PermutationPlan

__all__ = [
    "TrialDataError",
    "TrialDataset",
    "load_trial_csv",
    "write_trial_csv",
    "summarize_by_arm",
    "baseline_outcome_correlation",
    "run_analysis",
    "diagnose_exchangeability",
    "AnalysisReport",
    "report_to_json",
    "report_to_csv",
    "format_report_text",
    "write_report",
]

# Pooled baseline/outcome correlation below this draws an advisory note:
# covariate adjustment is buying little and the plain stratified test may be
# the better primary analysis.
CORRELATION_ADVISORY_THRESHOLD = 0.5

_ID_COLUMNS = ("subject", "stratum", "treatment")
# What the loader strips from each cell's ends: ASCII spaces and tabs only,
# so labels that differ in other whitespace (line breaks, U+2028, no-break
# spaces) stay distinct.
_BLANKS = " \t"
_BASELINE_PREFIX = "baseline_"
_OUTCOME_PREFIX = "outcome_"


def _atomic_write(path, text: str) -> None:
    """Write ``text`` to a sibling temporary file, then rename it over ``path``,
    so readers never see a half-written file."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _csv_text(rows) -> str:
    """Rows as CSV text, fields quoted where they hold a comma, quote or
    line break, so :func:`load_trial_csv` and other readers split them back."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


def _json_text(payload) -> str:
    """``payload`` as the indented, key-sorted JSON every output file uses."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _engine_provenance() -> dict:
    """The engine, how it draws Monte-Carlo orbits, and the numerical
    library behind a result; recorded in reports and simulation output."""
    return {
        "engine": "stratperm",
        "version": __version__,
        "draw_scheme": dict(DRAW_SCHEME),
        "numpy": np.__version__,
    }


class TrialDataError(ValueError):
    """Malformed or inconsistent trial data file."""


@dataclass(frozen=True, eq=False)
class TrialDataset:
    """All endpoints of one trial, sharing subjects, strata and assignment."""

    endpoints: dict
    subjects: tuple
    control_label: str
    treated_label: str
    source_digest: str | None = None
    source_path: str | None = None

    @property
    def endpoint_names(self) -> tuple:
        return tuple(self.endpoints)

    @property
    def n_units(self) -> int:
        return len(self.subjects)

    @classmethod
    def build(
        cls,
        strata,
        z,
        baselines: dict,
        outcomes: dict,
        subjects=None,
        control_label: str = "control",
        treated_label: str = "treated",
    ) -> "TrialDataset":
        """Assemble a dataset from arrays (one baseline/outcome per endpoint).
        An endpoint's invalid data is a TrialDataError that names it."""
        if set(baselines) != set(outcomes):
            raise TrialDataError("baseline and outcome endpoint names differ")
        n = len(np.asarray(strata))
        subjects = tuple(f"S{i+1:03d}" for i in range(n)) if subjects is None else tuple(subjects)
        # As load_trial_csv requires of the file write_trial_csv makes.
        if len(subjects) != n or len(set(map(str, subjects)) - {""}) != n:
            raise TrialDataError(f"need {n} distinct, non-empty subject ids")
        endpoints = {}
        for name in baselines:
            try:
                endpoints[name] = TrialData.from_arrays(
                    strata, z, baselines[name], outcomes[name]
                )
            except ValueError as err:
                raise TrialDataError(f"endpoint {name!r}: {err}") from err
        return cls(
            endpoints=endpoints,
            subjects=subjects,
            control_label=control_label,
            treated_label=treated_label,
        )


def _records(blob: bytes, path):
    """Each record of the CSV file ``blob`` with the file line it starts on
    (a quoted field may hold line breaks), decoded as it is read so that no
    decoded copy of the file is held.  A record the csv module cannot read,
    or a byte that is not UTF-8, is a TrialDataError."""
    reader = csv.reader(io.TextIOWrapper(io.BytesIO(blob), encoding="utf-8-sig", newline=""))
    start = 1
    try:
        for row in reader:
            yield start, row
            start = reader.line_num + 1
    except csv.Error as err:
        raise TrialDataError(f"{path}: line {start}: {err}") from err
    except UnicodeDecodeError:
        # The reader's error counts bytes from the start of a decoder chunk;
        # decoding the whole file places the byte in it.
        try:
            blob.decode("utf-8")
        except UnicodeDecodeError as err:
            line = len((blob[:err.start] + b".").splitlines())
            raise TrialDataError(f"{path}: line {line}: byte 0x{blob[err.start]:02x} "
                                 f"is not UTF-8 ({err.reason})") from err
        raise


def load_trial_csv(path, control_label: str | None = None) -> TrialDataset:
    """Read a trial CSV, validating as we go.

    Treatment labels map to arms by lexicographic order (smaller label is
    control) unless ``control_label`` picks one explicitly.
    """
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as err:
        raise TrialDataError(f"cannot read {path}: {err}") from err
    digest = hashlib.sha256(blob).hexdigest()

    records = _records(blob, path)
    first = next(records, None)
    if first is None:
        raise TrialDataError(f"{path}: file is empty")
    header = [h.strip(_BLANKS) for h in first[1]]
    repeated = sorted({c for c in header if header.count(c) > 1})
    if repeated:
        raise TrialDataError(f"{path}: repeated columns {repeated}")
    missing = [c for c in _ID_COLUMNS if c not in header]
    if missing:
        raise TrialDataError(f"{path}: missing required columns {missing}")

    endpoint_order = []
    for col in header:
        if col.startswith(_BASELINE_PREFIX):
            endpoint_order.append(col[len(_BASELINE_PREFIX):])
    unpaired = []
    for name in endpoint_order:
        if _OUTCOME_PREFIX + name not in header:
            unpaired.append(_BASELINE_PREFIX + name)
    for col in header:
        if col.startswith(_OUTCOME_PREFIX):
            if col[len(_OUTCOME_PREFIX):] not in endpoint_order:
                unpaired.append(col)
    if unpaired:
        raise TrialDataError(f"{path}: unpaired endpoint columns {sorted(unpaired)}")
    recognized = set(_ID_COLUMNS)
    recognized.update(_BASELINE_PREFIX + n for n in endpoint_order)
    recognized.update(_OUTCOME_PREFIX + n for n in endpoint_order)
    unknown = [c for c in header if c not in recognized]
    if unknown:
        raise TrialDataError(f"{path}: unrecognized columns {unknown}")
    if not endpoint_order:
        raise TrialDataError(f"{path}: no baseline_/outcome_ endpoint columns")

    col_index = {c: i for i, c in enumerate(header)}
    subjects, strata, treatments = [], [], []
    values = {c: [] for c in header if c not in _ID_COLUMNS}
    bad_cells, bad_ids, first_line = [], [], {}
    for line_no, row in records:
        if not row or all(not cell.strip(_BLANKS) for cell in row):
            continue
        if len(row) != len(header):
            raise TrialDataError(
                f"{path}: line {line_no} has {len(row)} fields, expected {len(header)}"
            )
        subject = row[col_index["subject"]].strip(_BLANKS)
        if not subject:
            bad_ids.append(f"line {line_no} (empty)")
        elif subject in first_line:
            bad_ids.append(f"line {line_no} ({subject!r}, as on line {first_line[subject]})")
        else:
            first_line[subject] = line_no
        subjects.append(subject)
        strata.append(row[col_index["stratum"]].strip(_BLANKS))
        treatments.append(row[col_index["treatment"]].strip(_BLANKS))
        for col, store in values.items():
            cell = row[col_index[col]].strip(_BLANKS)
            try:
                store.append(float(cell))
            except ValueError:
                bad_cells.append((line_no, col))
                store.append(np.nan)
    if bad_cells:
        shown = ", ".join(f"line {ln} ({col})" for ln, col in bad_cells[:10])
        more = "" if len(bad_cells) <= 10 else f" and {len(bad_cells) - 10} more"
        raise TrialDataError(
            f"{path}: {len(bad_cells)} missing or non-numeric cells: {shown}{more}"
        )
    if bad_ids:
        more = "" if len(bad_ids) <= 10 else f" and {len(bad_ids) - 10} more"
        raise TrialDataError(f"{path}: {len(bad_ids)} empty or repeated subject ids: "
                             f"{', '.join(bad_ids[:10])}{more}")
    if not subjects:
        raise TrialDataError(f"{path}: no data rows")

    labels = sorted(set(treatments))
    if len(labels) != 2:
        raise TrialDataError(
            f"{path}: expected exactly 2 treatment labels, found {labels}"
        )
    if control_label is None:
        control, treated = labels
    else:
        if control_label not in labels:
            raise TrialDataError(
                f"{path}: control label {control_label!r} not among {labels}"
            )
        control = control_label
        treated = labels[0] if labels[1] == control else labels[1]
    z = np.asarray([0 if t == control else 1 for t in treatments], dtype=np.int8)

    try:
        dataset = TrialDataset.build(
            strata, z,
            {name: values[_BASELINE_PREFIX + name] for name in endpoint_order},
            {name: values[_OUTCOME_PREFIX + name] for name in endpoint_order},
            subjects, control, treated,
        )
    except TrialDataError as err:
        raise TrialDataError(f"{path}: {err}") from err
    return dataclasses.replace(dataset, source_digest=digest, source_path=str(path))


def write_trial_csv(dataset: TrialDataset, path) -> None:
    """Write the canonical CSV; loading it back reproduces the dataset.

    Raises ValueError for a subject id, stratum label or arm label that
    starts or ends with a space or a tab, which the loader would strip.
    """
    names = dataset.endpoint_names
    first = dataset.endpoints[names[0]]
    for kind, labels in (("subject id", dataset.subjects),
                         ("stratum label", first.stratum_labels),
                         ("arm label", (dataset.control_label, dataset.treated_label))):
        for label in map(str, labels):
            if label != label.strip(_BLANKS):
                raise ValueError(f"{kind} {label!r} starts or ends with a space or tab, "
                                 "which loading would strip")
    header = list(_ID_COLUMNS)
    for name in names:
        header += [_BASELINE_PREFIX + name, _OUTCOME_PREFIX + name]
    rows = [header]
    for i, subject in enumerate(dataset.subjects):
        stratum = first.stratum_labels[first.strata[i]]
        arm = dataset.treated_label if first.z[i] == 1 else dataset.control_label
        cells = [str(subject), str(stratum), arm]
        for name in names:
            data = dataset.endpoints[name]
            cells.append(repr(float(data.x[i])))
            cells.append(repr(float(data.y[i])))
        rows.append(cells)
    _atomic_write(path, _csv_text(rows))


def _arm_stats(values: np.ndarray):
    n = values.size
    mean = float(values.mean())
    if n < 2:
        return n, mean, 0.0, True
    return n, mean, float(values.std(ddof=1)), False


def summarize_by_arm(dataset: TrialDataset) -> list:
    """Mean and sd of baseline and outcome per endpoint and arm."""
    out = []
    for name, data in dataset.endpoints.items():
        for arm_label, mask in (
            (dataset.control_label, data.z == 0),
            (dataset.treated_label, data.z == 1),
        ):
            flags = []
            n, x_mean, x_sd, x_single = _arm_stats(data.x[mask])
            _, y_mean, y_sd, y_single = _arm_stats(data.y[mask])
            if x_single or y_single:
                flags.append("single_unit_arm")
            out.append(
                {
                    "endpoint": name,
                    "arm": arm_label,
                    "n": n,
                    "baseline_mean": x_mean,
                    "baseline_sd": x_sd,
                    "outcome_mean": y_mean,
                    "outcome_sd": y_sd,
                    "flags": flags,
                }
            )
    return out


def _pearson(a: np.ndarray, b: np.ndarray) -> float:
    if a.size < 2 or a.std() == 0.0 or b.std() == 0.0:
        return float("nan")
    return float(np.corrcoef(a, b)[0, 1])


def baseline_outcome_correlation(dataset: TrialDataset) -> list:
    """Pooled and per-stratum Pearson correlation of baseline with outcome.

    A pooled correlation under the advisory threshold earns a note: with a
    weak covariate the adjusted tests give up their edge over the plain
    stratified comparison.
    """
    out = []
    for name, data in dataset.endpoints.items():
        pooled = _pearson(data.x, data.y)
        per_stratum = []
        for j in range(data.n_strata):
            mask = data.strata == j
            per_stratum.append(_pearson(data.x[mask], data.y[mask]))
        flags = []
        if np.isnan(pooled):
            flags.append("degenerate")
        elif pooled < CORRELATION_ADVISORY_THRESHOLD:
            flags.append("weak_baseline_correlation")
        out.append(
            {
                "endpoint": name,
                "pooled_r": pooled,
                "per_stratum_r": per_stratum,
                "flags": flags,
            }
        )
    return out


@dataclass(eq=False)
class AnalysisReport:
    """Everything `analyze` produces, ready for serialization."""

    rows: list
    arm_summaries: list
    correlations: list
    exchangeability: list
    provenance: dict


def _trial_results(dataset: TrialDataset, methods, permutations: int,
                   master_seed: int) -> list:
    """Each endpoint's ``{method: TestResult}``, all scored on the trial's one
    plan, whose orbit is drawn once for every endpoint and test."""
    first_name, first = next(iter(dataset.endpoints.items()))
    for name, data in dataset.endpoints.items():
        if not (np.array_equal(data.strata, first.strata)
                and np.array_equal(data.z, first.z)):
            raise TrialDataError(
                f"endpoint {name!r} does not share the strata and treatment "
                f"assignment of endpoint {first_name!r}"
            )
    plan = PermutationPlan(
        layout=first.layout,
        mode="monte_carlo",
        draws=permutations,
        master_seed=master_seed,
    )
    return run_trial(dataset.endpoints.values(), plan, methods)


def _exchangeability_row(name, diag: TestResult) -> dict:
    """One endpoint's exchangeability diagnostic as a report row."""
    return {
        "endpoint": name,
        "statistic": diag.statistic,
        "p_value": diag.p_value.value,
        "partial_p": list(diag.per_stratum),
        "stratum_correlations": diag.null_summary["stratum_correlations"],
        "flags": list(diag.flags),
    }


def diagnose_exchangeability(
    dataset: TrialDataset,
    permutations: int = 10_000,
    master_seed: int = 0,
) -> list:
    """Each endpoint's exchangeability diagnostic as a report row.

    The rows are scored on the plan :func:`run_analysis` uses for the same
    ``permutations`` and ``master_seed``, so they equal its exchangeability
    rows.
    """
    results = _trial_results(dataset, ["exchangeability"], permutations, master_seed)
    return [_exchangeability_row(name, result["exchangeability"])
            for name, result in zip(dataset.endpoint_names, results)]


def run_analysis(
    dataset: TrialDataset,
    methods,
    permutations: int = 10_000,
    master_seed: int = 0,
    alpha: float = 0.05,
) -> AnalysisReport:
    """Run the requested tests on every endpoint, all against one
    re-randomization of the trial.

    The endpoints share the trial's strata and assignment, so one
    Monte-Carlo plan of ``permutations`` draws, seeded from ``master_seed``,
    serves every endpoint and test.  Its orbit is drawn once, block by
    block, and every row is scored from the same draws: the exchangeability
    diagnostic (attached whenever freedman_lane is requested) too, so its
    rows equal :func:`diagnose_exchangeability`'s.  Each row equals its
    test's :data:`~stratperm.hypothesis_tests.METHODS` entry run on its
    endpoint and that plan.  A test named twice is rejected.

    P-values for a given seed differ from those of versions that gave every
    (endpoint, method) pair a stream of its own.  Report contents carry no
    timestamps, so rerunning with the same inputs is byte-identical.
    """
    methods = _check_names(methods, METHODS)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    diagnosed = "freedman_lane" in methods
    scored = methods + ["exchangeability"] if diagnosed else methods
    rows = []
    exchangeability = []
    for name, results in zip(dataset.endpoint_names,
                             _trial_results(dataset, scored, permutations, master_seed)):
        for method in methods:
            result = results[method]
            rows.append(
                {
                    "endpoint": name,
                    "method": method,
                    "statistic": result.statistic,
                    "p_value": result.p_value.value,
                    "p_mode": result.p_value.mode,
                    "draws": result.p_value.draws,
                    "exceedances": result.p_value.exceedances,
                    "df": result.df,
                    "flags": list(result.flags),
                    "degenerate_draws": result.degenerate_draws,
                }
            )
        if diagnosed:
            exchangeability.append(_exchangeability_row(name, results["exchangeability"]))
    provenance = {
        **_engine_provenance(),
        "seed": master_seed,
        "permutations": permutations,
        "alpha": alpha,
        "methods": methods,
        "endpoints": list(dataset.endpoint_names),
        "control_label": dataset.control_label,
        "treated_label": dataset.treated_label,
        "input_sha256": dataset.source_digest,
        "input_path": dataset.source_path,
        "n_units": dataset.n_units,
    }
    return AnalysisReport(
        rows=rows,
        arm_summaries=summarize_by_arm(dataset),
        correlations=baseline_outcome_correlation(dataset),
        exchangeability=exchangeability,
        provenance=provenance,
    )


def report_to_json(report: AnalysisReport) -> str:
    return _json_text(dataclasses.asdict(report))


def report_to_csv(report: AnalysisReport) -> str:
    rows = [["endpoint", "method", "statistic", "p_value", "p_mode", "draws",
             "exceedances", "df", "flags"]]
    for row in report.rows:
        rows.append([
            row["endpoint"], row["method"], repr(row["statistic"]),
            repr(row["p_value"]), row["p_mode"], row["draws"], row["exceedances"],
            "" if row["df"] is None else row["df"], ";".join(row["flags"]),
        ])
    return _csv_text(rows)


def format_report_text(report: AnalysisReport) -> str:
    """Human-readable table: p-values to 3 decimals, advisories spelled out."""
    lines = []
    prov = report.provenance
    lines.append(
        f"analysis of {prov['n_units']} subjects, "
        f"{len(prov['endpoints'])} endpoint(s); seed {prov['seed']}, "
        f"{prov['permutations']} permutations"
    )
    lines.append(
        f"arms: control={prov['control_label']} treated={prov['treated_label']}"
    )
    lines.append("")
    width = max(len(r["endpoint"]) for r in report.rows) if report.rows else 8
    mwidth = max((len(r["method"]) for r in report.rows), default=6)
    lines.append(
        f"{'endpoint':<{width}}  {'method':<{mwidth}}  {'statistic':>10}  {'p':>6}"
    )
    for row in report.rows:
        note = " " + ";".join(row["flags"]) if row["flags"] else ""
        lines.append(
            f"{row['endpoint']:<{width}}  {row['method']:<{mwidth}}  "
            f"{row['statistic']:>10.4f}  {row['p_value']:>6.3f}{note}"
        )
    notes = []
    for corr in report.correlations:
        if "weak_baseline_correlation" in corr["flags"]:
            notes.append(
                f"note: endpoint {corr['endpoint']!r} has pooled baseline/outcome "
                f"correlation {corr['pooled_r']:.2f} (< {CORRELATION_ADVISORY_THRESHOLD}); "
                "covariate adjustment adds little here"
            )
    for diag in report.exchangeability:
        if diag["flags"]:
            notes.append(
                f"note: exchangeability diagnostic for {diag['endpoint']!r} "
                f"flagged {';'.join(diag['flags'])}"
            )
    if notes:
        lines.append("")
        lines.extend(notes)
    return "\n".join(lines) + "\n"


def write_report(report: AnalysisReport, path, fmt: str) -> None:
    """Serialize atomically as json or csv."""
    if fmt == "json":
        text = report_to_json(report)
    elif fmt == "csv":
        text = report_to_csv(report)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    _atomic_write(path, text)
