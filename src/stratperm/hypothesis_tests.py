"""The test battery for stratified two-arm trials with a baseline covariate.

One parametric test (ANCOVA with stratum intercepts) and a family of
permutation strategies that differ only in *what* is shuffled under the null:

* assignment tests re-randomize the treatment labels within strata
  (difference in means, sum of absolute stratum differences, change scores,
  and the permutation version of the linear-model t statistic);
* residual/outcome tests keep the assignment and permute a vector within
  strata (Freedman-Lane permutes null-model residuals, Kennedy regresses
  treatment on permuted residuals, Manly permutes the outcomes).

All permutation tests run on one (data, plan) share one null engine,
:func:`run_battery`.  It draws the plan's orbit once, one row block per
stratum (:func:`~stratperm.randomization.orbit_blocks`), and multiplies each
block by the columns the requested tests need, one matrix product per
stratum.  Every null statistic is a sum of those per-stratum products; no
(draws, units) matrix is built.

The regression tests' nuisance columns are the stratum dummies and the
baseline.  With u the baseline centred within strata, at unit length, a
permuted vector v has projected sum of squares c - (u.v)^2, where c is its
centred sum of squares, which permutation within strata leaves unchanged.
Its cross product with the projected fixed side is one dot product
(Frisch-Waugh-Lovell).  A draw whose difference keeps less than
``_CANCELLED`` of c may have lost its digits to cancellation and is
projected explicitly, so singular draws still score 0.  The test suite
checks the engine against full refits and an explicit-projection oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import ndtri

from .linear_model import (
    DesignMatrix,
    SingularDesignError,
    build_design,
    fit_least_squares,
    student_t_two_sided_p,
)
from .randomization import (
    TIE_TOLERANCE,
    PermutationPlan,
    PValue,
    StratumLayout,
    monte_carlo_pvalue,
    orbit_blocks,
)

__all__ = [
    "TrialData",
    "TestResult",
    "NpcResult",
    "ancova_parametric",
    "stratified_diff_means",
    "stratified_sum_abs",
    "stratified_change_scores",
    "lm_permutation",
    "freedman_lane",
    "kennedy_test",
    "manly_test",
    "npc_combine",
    "exchangeability_diagnostic",
    "run_battery",
    "METHODS",
]


@dataclass(frozen=True, eq=False)
class TrialData:
    """One endpoint's worth of a stratified trial, in canonical form.

    ``strata`` holds consecutive integer codes; ``stratum_labels[code]`` is
    the original label.  Build instances with :meth:`from_arrays`, which
    validates and canonicalizes.
    """

    strata: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    stratum_labels: tuple

    @classmethod
    def from_arrays(cls, strata, z, x, y) -> "TrialData":
        strata = np.asarray(strata)
        z = np.asarray(z)
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        n = strata.shape[0] if strata.ndim == 1 else -1
        for name, arr in (("z", z), ("x", x), ("y", y)):
            if arr.ndim != 1 or arr.shape[0] != n:
                raise ValueError(f"{name} must be one-dimensional with length {n}")
        if n < 4:
            raise ValueError("need at least 4 units")
        if not np.all(np.isfinite(x)):
            raise ValueError("baseline covariate contains missing or non-finite values")
        if not np.all(np.isfinite(y)):
            raise ValueError("outcome contains missing or non-finite values")
        if not np.all(np.isin(z, (0, 1))):
            raise ValueError("treatment indicator must contain only 0 and 1")
        labels, codes = np.unique(strata, return_inverse=True)
        z = z.astype(np.int8)
        for code, label in enumerate(labels):
            arm = z[codes == code]
            if arm.min() == arm.max():
                raise ValueError(
                    f"stratum {label!r} lacks units in both arms"
                )
        return cls(
            strata=codes,
            z=z,
            x=x,
            y=y,
            stratum_labels=tuple(labels.tolist()),
        )

    @property
    def n_units(self) -> int:
        return int(self.strata.shape[0])

    @property
    def n_strata(self) -> int:
        return len(self.stratum_labels)

    @property
    def layout(self) -> StratumLayout:
        sizes = np.bincount(self.strata, minlength=self.n_strata)
        treated = np.bincount(self.strata, weights=self.z, minlength=self.n_strata)
        return StratumLayout(
            sizes=tuple(int(v) for v in sizes),
            treated=tuple(int(v) for v in treated),
            codes=self.strata,
        )


@dataclass(frozen=True, eq=False)
class TestResult:
    """Outcome of one test: the statistic, its p-value, and diagnostics.

    ``degenerate_draws`` counts permuted fits that were singular or had zero
    residual variance; their statistics are recorded as 0.
    """

    method: str
    statistic: float
    p_value: PValue
    df: int | None = None
    per_stratum: tuple | None = None
    null_summary: dict | None = None
    flags: tuple[str, ...] = ()
    degenerate_draws: int = 0


@dataclass(frozen=True, eq=False)
class NpcResult:
    """Nonparametric combination of several dependent permutation tests."""

    statistic: float
    p_value: PValue
    partial_p: np.ndarray
    combiner: str


# ---------------------------------------------------------------------------
# shared machinery


def _check_plan(data: TrialData, plan: PermutationPlan) -> None:
    lay = plan.layout
    mine = data.layout
    if (
        lay.sizes != mine.sizes
        or lay.treated != mine.treated
        or not np.array_equal(lay.codes, mine.codes)
    ):
        raise ValueError("plan layout does not match the trial data")


def _observed_treatment_t(data: TrialData):
    """Full-model t for the treatment column; shared by ancova and the
    regression permutation tests so their observed statistics are identical."""
    design = build_design(data.strata, data.x, data.z)
    fit = fit_least_squares(design, data.y)
    if fit.treatment_t is None:
        return 0.0, fit, ("degenerate_residual_variance",)
    return float(fit.treatment_t), fit, ()


def _fwl_t(dot, target_ss, resp_ss, df, target_raw_ss):
    """t statistics from Frisch-Waugh-Lovell pieces, one per draw.

    dot           target . response after projecting out nuisance columns
    target_ss     squared norm of the projected target
    resp_ss       squared norm of the projected response
    target_raw_ss squared norm of the unprojected target (sets the scale for
                  declaring a draw singular)

    Each piece is per draw or shared by all draws.  Draws whose target is
    numerically inside the nuisance span, or whose t is 0/0, score 0 and are
    counted as degenerate.
    """
    ok = target_ss > 1e-20 * np.maximum(target_raw_ss, 1e-300)
    safe = np.where(ok, target_ss, 1.0)
    gamma = np.where(ok, dot / safe, 0.0)
    rss = np.maximum(resp_ss - dot * dot / safe, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = gamma * np.sqrt(df * safe / rss)
    bad = ~ok | np.isnan(t)
    if np.any(bad):
        t = np.where(bad, 0.0, t)
    return t, int(np.count_nonzero(bad))


def _row_ss(m: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", m, m)


def _t_result(method, t_obs, null, plan, df, flags) -> TestResult:
    t_null, n_deg = null
    return TestResult(
        method=method,
        statistic=t_obs,
        p_value=monte_carlo_pvalue(t_obs, t_null, plan.mode),
        df=df,
        null_summary=_summarize(t_null),
        flags=flags,
        degenerate_draws=n_deg,
    )


def _summarize(draws: np.ndarray) -> dict:
    finite = draws[np.isfinite(draws)]
    if finite.size == 0:
        finite = np.zeros(1)
    q = np.quantile(finite, (0.025, 0.5, 0.975))
    return {
        "draws": int(draws.size),
        "mean": float(finite.mean()),
        "sd": float(finite.std(ddof=1)) if finite.size > 1 else 0.0,
        "q025": float(q[0]),
        "median": float(q[1]),
        "q975": float(q[2]),
    }


# ---------------------------------------------------------------------------
# the null engine

# The rows a test's columns meet: the orbit's assignments, or the null-model
# residuals or the outcomes reordered by its within-stratum permutations.
_ASSIGNMENTS, _RESIDUALS, _OUTCOMES = "assignments", "residuals", "outcomes"

# A draw whose projected sum of squares keeps less than this share of its
# centred sum of squares is projected explicitly (see the module docstring).
_CANCELLED = 1e-3


class _Battery:
    """What the tests run on one (data, plan) share.

    ``needs`` maps each kind of row to the columns the tests multiply into
    it.  Fits, columns and products are made on first use, so a test run
    alone that fails on the observed data fails before anything is drawn.
    """

    def __init__(self, data: TrialData, plan: PermutationPlan, methods):
        _check_plan(data, plan)
        self.data = data
        self.plan = plan
        self.positions = plan.layout.stratum_positions()
        self.needs: dict = {}
        for method in methods:
            for rows, columns in _TESTS[method][1].items():
                self.needs.setdefault(rows, {}).update(dict.fromkeys(columns))
        self._columns: dict = {}

    @cached_property
    def observed(self):
        return _observed_treatment_t(self.data)

    @cached_property
    def null_fit(self):
        return fit_least_squares(build_design(self.data.strata, self.data.x), self.data.y)

    def _project(self, v, with_x: bool = True) -> np.ndarray:
        """v, or each row of v, with the stratum dummies projected out
        (centred within strata) and, if ``with_x``, the baseline too."""
        out = np.array(v, dtype=float)
        for pos in self.positions:
            out[..., pos] -= out[..., pos].mean(axis=-1, keepdims=True)
        if with_x:
            u = self.column("u")
            out -= np.multiply.outer(out @ u, u)
        return out

    def column(self, name: str) -> np.ndarray:
        """y; change (y - x); xc and zc (x and z centred within strata); u
        (xc at unit length); y_t and z_t (y and z, null model projected out)."""
        if name not in self._columns:
            d = self.data
            self._columns[name] = {
                "y": lambda: d.y,
                "change": lambda: d.y - d.x,
                "xc": lambda: self._project(d.x, with_x=False),
                "zc": lambda: self._project(d.z, with_x=False),
                "u": self._unit_baseline,
                "y_t": lambda: self._project(d.y),
                "z_t": lambda: self._project(d.z),
            }[name]()
        return self._columns[name]

    def _unit_baseline(self) -> np.ndarray:
        # With x constant within strata there is no u: the null fit raises
        # SingularDesignError before the division by zero.
        self.null_fit
        xc = self.column("xc")
        return xc / np.linalg.norm(xc)

    def _values(self, rows: str) -> np.ndarray:
        """The vector the rows re-randomize (assignments) or reorder."""
        if rows == _ASSIGNMENTS:
            return self.data.z.astype(float)
        return self.null_fit.residuals if rows == _RESIDUALS else self.data.y

    @cached_property
    def _products(self) -> dict:
        """{rows: (column names, per-stratum (B, k) products, their sum)},
        from one pass over the orbit: one matrix product per stratum and rows."""
        values = {rows: self._values(rows) for rows in self.needs}
        per = {rows: [] for rows in self.needs}
        blocks = orbit_blocks(self.plan, assignments=_ASSIGNMENTS in self.needs,
                              permutations=bool(self.needs.keys() - {_ASSIGNMENTS}))
        for pos, treated, units in blocks:
            for rows, names in self.needs.items():
                block = treated.astype(float) if rows == _ASSIGNMENTS else values[rows][units]
                per[rows].append(block @ np.column_stack([self.column(c)[pos] for c in names]))
        return {rows: (list(names), per[rows], sum(per[rows]))
                for rows, names in self.needs.items()}

    def per_stratum(self, rows: str, column: str) -> list:
        names, per, _ = self._products[rows]
        return [p[:, names.index(column)] for p in per]

    def total(self, rows: str, column: str) -> np.ndarray:
        names, _, total = self._products[rows]
        return total[:, names.index(column)]

    def _rows(self, rows: str, draws) -> np.ndarray:
        """The chosen draws of ``rows`` as a (len(draws), n_units) matrix,
        from a second pass over the orbit."""
        out = np.empty((len(draws), self.data.n_units))
        values = self._values(rows)
        assign = rows == _ASSIGNMENTS
        for pos, treated, units in orbit_blocks(self.plan, assign, not assign):
            out[:, pos] = treated[draws] if assign else values[units[draws]]
        return out

    def permuted_side(self, rows: str, fixed: str, with_x: bool = True):
        """FWL pieces of a regression test's permuted side v, per draw: v's
        cross product with the projected ``fixed`` column, and v's projected
        sum of squares."""
        dot = self.total(rows, fixed).copy()
        centred = self._project(self._values(rows), with_x=False)
        c = float(centred @ centred)
        ss = np.full(dot.shape, c)
        if with_x:
            ss -= self.total(rows, "u") ** 2
        redo = np.nonzero(ss <= _CANCELLED * c)[0]
        if redo.size:
            v = self._project(self._rows(rows, redo), with_x)
            ss[redo] = _row_ss(v)
            dot[redo] = v @ self.column(fixed)
        return dot, ss


# ---------------------------------------------------------------------------
# parametric reference


def _ancova_result(stat, fit, flags) -> TestResult:
    return TestResult(
        method="ancova",
        statistic=stat,
        p_value=PValue(
            value=1.0 if flags else student_t_two_sided_p(stat, fit.df),
            exceedances=0, draws=0, mode="analytic",
        ),
        df=fit.df,
        null_summary={"reference": f"t({fit.df})"},
        flags=flags,
    )


def ancova_parametric(data: TrialData, plan: PermutationPlan | None = None) -> TestResult:
    """ANCOVA t test for the treatment effect, stratum intercepts included.

    The model is y ~ stratum dummies + baseline + treatment; the statistic is
    the treatment coefficient over its standard error and the p-value comes
    from Student's t with N - J - 2 degrees of freedom.  ``plan`` is accepted
    for signature uniformity and ignored.
    """
    return _ancova_result(*_observed_treatment_t(data))


# ---------------------------------------------------------------------------
# assignment-orbit tests


def _stratum_diffs(y, z, strata, n_strata):
    out = np.empty(n_strata)
    for j in range(n_strata):
        in_j = strata == j
        out[j] = y[in_j & (z == 1)].mean() - y[in_j & (z == 0)].mean()
    return out


def _diff_means(battery: _Battery, method: str, column: str) -> TestResult:
    v = battery.column(column)
    z = battery.data.z
    n_t = int(z.sum())
    n_c = battery.data.n_units - n_t
    observed = float(v[z == 1].mean() - v[z == 0].mean())
    treated_sums = battery.total(_ASSIGNMENTS, column)
    draws = treated_sums / n_t - (v.sum() - treated_sums) / n_c
    per_stratum = _stratum_diffs(v, z, battery.data.strata, battery.data.n_strata)
    return TestResult(
        method=method,
        statistic=observed,
        p_value=monte_carlo_pvalue(observed, draws, battery.plan.mode),
        per_stratum=tuple(float(d) for d in per_stratum),
        null_summary=_summarize(draws),
    )


def _sum_abs(battery: _Battery) -> TestResult:
    data, layout = battery.data, battery.plan.layout
    y = data.y
    per_stratum = _stratum_diffs(y, data.z, data.strata, data.n_strata)
    observed = float(np.abs(per_stratum).sum())
    total = 0.0
    for pos, n_j, t_j, sums in zip(battery.positions, layout.sizes, layout.treated,
                                   battery.per_stratum(_ASSIGNMENTS, "y")):
        total += np.abs(sums / t_j - (y[pos].sum() - sums) / (n_j - t_j))
    return TestResult(
        method="stratified_sum_abs",
        statistic=observed,
        p_value=monte_carlo_pvalue(observed, total, battery.plan.mode, tail="right"),
        per_stratum=tuple(float(d) for d in per_stratum),
        null_summary=_summarize(total),
    )


def _lm_permutation(battery: _Battery) -> TestResult:
    t_obs, fit, flags = battery.observed
    dot, ss = battery.permuted_side(_ASSIGNMENTS, "y_t")
    y_t = battery.column("y_t")
    null = _fwl_t(dot, ss, float(y_t @ y_t), fit.df, float(battery.data.z.sum()))
    return _t_result("lm_permutation", t_obs, null, battery.plan, fit.df, flags)


def stratified_diff_means(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Pooled difference in outcome means, re-randomized within strata."""
    return _run_one(data, plan, "stratified_diff_means")


def stratified_change_scores(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Difference in means of the change scores y - x, re-randomized within
    strata.  With x identically zero this coincides with
    :func:`stratified_diff_means` draw for draw."""
    return _run_one(data, plan, "change_scores")


def stratified_sum_abs(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Sum over strata of |treated mean - control mean|, right-tailed."""
    return _run_one(data, plan, "stratified_sum_abs")


def lm_permutation(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Permutation test of the ANCOVA t statistic.

    The observed statistic is the same full-model t as
    :func:`ancova_parametric`; the null distribution refits it under
    re-randomized treatment assignments (the baseline and stratum columns
    stay put, so each draw reduces to two dot products with the projected
    outcome and the baseline direction).
    """
    return _run_one(data, plan, "lm_permutation")


# ---------------------------------------------------------------------------
# residual / outcome permutation tests


def _permuted_response(battery: _Battery, method: str, rows: str) -> TestResult:
    """Refit the full model to each permuted response, design held fixed.

    The response is the null fit plus its residuals permuted within strata
    (Freedman-Lane) or the outcomes permuted within strata (Manly); the null
    fit lies in the nuisance span, so only the permuted part is projected.
    """
    t_obs, fit, flags = battery.observed
    dot, ss = battery.permuted_side(rows, "z_t")
    z_t = battery.column("z_t")
    null = _fwl_t(dot, float(z_t @ z_t), ss, fit.df, float(battery.data.z.sum()))
    return _t_result(method, t_obs, null, battery.plan, fit.df, flags)


def _kennedy(battery: _Battery) -> TestResult:
    data = battery.data
    eps = battery.null_fit.residuals
    dummies = np.equal.outer(data.strata, np.arange(data.n_strata)).astype(float)
    cols = tuple(f"stratum[{lab}]" for lab in data.stratum_labels) + ("null_residual",)
    z = data.z.astype(float)
    flags: tuple[str, ...] = ()
    try:
        design = DesignMatrix(
            matrix=np.hstack([dummies, eps[:, None]]),
            columns=cols,
            n_strata=data.n_strata,
            treatment_column=len(cols) - 1,
        )
        fit_obs = fit_least_squares(design, z)
        if fit_obs.treatment_t is None:
            t_obs = 0.0
            flags = ("degenerate_residual_variance",)
        else:
            t_obs = float(fit_obs.treatment_t)
        df = fit_obs.df
    except SingularDesignError:
        # Null residuals are (numerically) zero: nothing to regress on.
        t_obs = 0.0
        flags = ("degenerate_null_residuals",)
        df = data.n_units - data.n_strata - 1
    # Kennedy's nuisance columns are the stratum dummies alone.
    dot, ss = battery.permuted_side(_RESIDUALS, "zc", with_x=False)
    zc = battery.column("zc")
    null = _fwl_t(dot, ss, float(zc @ zc), df, float(eps @ eps))
    return _t_result("kennedy", t_obs, null, battery.plan, df, flags)


def freedman_lane(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Freedman-Lane permutation of the ANCOVA t statistic.

    Null model (stratum dummies + baseline) is fit once; its residuals are
    permuted within strata, added back to the null fitted values, and the
    full model is refit to each reconstructed response.  The observed
    statistic comes from the unpermuted full fit.
    """
    return _run_one(data, plan, "freedman_lane")


def manly_test(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Manly's variant: outcomes permuted within strata against the fixed
    design.  Same observed statistic as the other regression tests."""
    return _run_one(data, plan, "manly")


def kennedy_test(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Kennedy's variant: treatment regressed on permuted null residuals.

    The observed statistic is the t of the (unpermuted) null-residual column
    in a regression of z on stratum dummies plus those residuals; each draw
    re-estimates it with the residuals permuted within strata.
    """
    return _run_one(data, plan, "kennedy")


# ---------------------------------------------------------------------------
# nonparametric combination


def _partial_pvalues(observed: np.ndarray, draws: np.ndarray, tail: str):
    """Add-one partial p-values for the observed vector and every draw row."""
    if tail == "two_sided":
        a = np.abs(draws)
        o = np.abs(observed)
    elif tail == "right":
        a = draws
        o = observed
    else:
        raise ValueError(f"unknown tail {tail!r}")
    b, j = a.shape
    obs_p = np.empty(j)
    row_p = np.empty((b, j))
    for col in range(j):
        s = np.sort(a[:, col])
        obs_k = b - np.searchsorted(s, o[col] - TIE_TOLERANCE, side="left")
        row_k = b - np.searchsorted(s, a[:, col] - TIE_TOLERANCE, side="left")
        obs_p[col] = (obs_k + 1) / (b + 1)
        row_p[:, col] = (row_k + 1) / (b + 1)
    return obs_p, row_p


def _combine(p: np.ndarray, combiner: str) -> np.ndarray:
    """Combining function applied along the last axis; larger = more extreme."""
    with np.errstate(divide="ignore"):
        if combiner == "fisher":
            return -2.0 * np.sum(np.log(p), axis=-1)
        if combiner == "tippett":
            return 1.0 - np.min(p, axis=-1)
        if combiner == "liptak":
            return np.sum(ndtri(1.0 - p), axis=-1)
    raise ValueError(f"unknown combiner {combiner!r}")


def npc_combine(
    observed,
    draws,
    combiner: str = "fisher",
    tail: str = "two_sided",
) -> NpcResult:
    """Nonparametric combination of J dependent permutation statistics.

    ``observed`` is the length-J vector of observed statistics and ``draws``
    the (B, J) matrix of their joint null draws, rows aligned across strata
    by shared re-randomization.  Partial p-values use the add-one rule within
    each column; the combined statistic is compared right-tailed against its
    own row-wise null.  Fisher is the default; tippett and liptak are
    available (liptak draws can be negative, hence the signed comparison).
    """
    observed = np.asarray(observed, dtype=float)
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or observed.shape != (draws.shape[1],):
        raise ValueError("observed must be (J,) and draws (B, J)")
    obs_p, row_p = _partial_pvalues(observed, draws, tail)
    stat = float(_combine(obs_p, combiner))
    row_stats = _combine(row_p, combiner)
    p = monte_carlo_pvalue(stat, row_stats, "monte_carlo", tail="right")
    return NpcResult(statistic=stat, p_value=p, partial_p=obs_p, combiner=combiner)


def _exchangeability(battery: _Battery, combiner: str = "fisher") -> TestResult:
    data = battery.data
    eps = battery.null_fit.residuals
    j_total = data.n_strata
    flags: list[str] = []

    scale = np.empty(j_total)
    observed = np.zeros(j_total)
    for j, pos in enumerate(battery.positions):
        sx = data.x[pos].std(ddof=1)
        se = eps[pos].std(ddof=1)
        denom = (pos.size - 1) * sx * se
        if denom <= 0.0 or not np.isfinite(denom):
            scale[j] = 0.0
            flags.append(f"constant_in_stratum[{data.stratum_labels[j]}]")
        else:
            scale[j] = 1.0 / denom
            observed[j] = float((eps[pos] @ battery.column("xc")[pos]) * scale[j])

    per = battery.per_stratum(_RESIDUALS, "xc")
    draws = np.zeros((per[0].shape[0], j_total))
    for j in range(j_total):
        if scale[j] > 0.0:
            draws[:, j] = per[j] * scale[j]

    npc = npc_combine(observed, draws, combiner=combiner, tail="two_sided")
    return TestResult(
        method="exchangeability",
        statistic=npc.statistic,
        p_value=npc.p_value,
        per_stratum=tuple(float(v) for v in npc.partial_p),
        null_summary={
            "stratum_correlations": [float(v) for v in observed],
            "combiner": combiner,
        },
        flags=tuple(flags),
    )


def exchangeability_diagnostic(
    data: TrialData,
    plan: PermutationPlan,
    combiner: str = "fisher",
) -> TestResult:
    """Do null-model residuals look exchangeable with respect to baseline?

    Per stratum the statistic is the Pearson correlation between the null
    residuals and the baseline covariate; each stratum's null shuffles the
    residuals within that stratum, and the per-stratum tests are combined
    nonparametrically.  Strata where either column is constant contribute a
    partial p of 1 and are flagged.
    """
    return _exchangeability(_Battery(data, plan, ("exchangeability",)), combiner)


# ---------------------------------------------------------------------------
# the registry and the battery

# Each test's scorer, and the columns it multiplies into each kind of row.
_TESTS = {
    "ancova": (lambda b: _ancova_result(*b.observed), {}),
    "stratified_diff_means": (
        lambda b: _diff_means(b, "stratified_diff_means", "y"), {_ASSIGNMENTS: ("y",)}),
    "stratified_sum_abs": (_sum_abs, {_ASSIGNMENTS: ("y",)}),
    "change_scores": (
        lambda b: _diff_means(b, "change_scores", "change"), {_ASSIGNMENTS: ("change",)}),
    "lm_permutation": (_lm_permutation, {_ASSIGNMENTS: ("y_t", "u")}),
    "freedman_lane": (
        lambda b: _permuted_response(b, "freedman_lane", _RESIDUALS),
        {_RESIDUALS: ("z_t", "u")}),
    "kennedy": (_kennedy, {_RESIDUALS: ("zc",)}),
    "manly": (
        lambda b: _permuted_response(b, "manly", _OUTCOMES), {_OUTCOMES: ("z_t", "u")}),
    "exchangeability": (_exchangeability, {_RESIDUALS: ("xc",)}),
}


def _run_one(data: TrialData, plan: PermutationPlan, method: str) -> TestResult:
    return _TESTS[method][0](_Battery(data, plan, (method,)))


def run_battery(data: TrialData, plan: PermutationPlan, methods) -> dict:
    """Run several tests on one (data, plan), drawing the orbit once.

    ``methods`` are names from :data:`METHODS` or ``"exchangeability"``.
    Returns ``{method: TestResult}``; each result is the one the test's own
    function returns for the same (data, plan), because every test run with
    one plan sees the same draws.
    """
    methods = list(methods)
    unknown = [m for m in methods if m not in _TESTS]
    if unknown:
        raise ValueError(f"unknown tests {unknown}; choose from {sorted(_TESTS)}")
    battery = _Battery(data, plan, methods)
    return {m: _TESTS[m][0](battery) for m in methods}


# Registry used by the simulation engine and the command line.  All entries
# share the (data, plan) signature; the parametric test ignores the plan.
METHODS = {
    "ancova": ancova_parametric,
    "stratified_diff_means": stratified_diff_means,
    "stratified_sum_abs": stratified_sum_abs,
    "change_scores": stratified_change_scores,
    "lm_permutation": lm_permutation,
    "freedman_lane": freedman_lane,
    "kennedy": kennedy_test,
    "manly": manly_test,
}
