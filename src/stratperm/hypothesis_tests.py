"""The test battery for stratified two-arm trials with a baseline covariate.

One parametric test (ANCOVA with stratum intercepts) and a family of
permutation strategies that differ only in *what* is shuffled under the null:

* assignment tests re-randomize the treatment labels within strata
  (difference in means, sum of absolute stratum differences, change scores,
  and the permutation version of the linear-model t statistic);
* residual/outcome tests keep the assignment and permute a vector within
  strata (Freedman-Lane permutes null-model residuals, Kennedy regresses
  treatment on permuted residuals, Manly permutes the outcomes).

All permutation loops run vectorized over the draws.  The four regression
tests share one null path (``_t_null``): the nuisance columns (stratum
dummies and baseline) are projected out once, after which each draw's t
statistic is a couple of dot products.  The batch path is checked against
full refits in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .linear_model import (
    DesignMatrix,
    SingularDesignError,
    build_design,
    fit_least_squares,
    orthonormal_columns,
    student_t_two_sided_p,
)
from .randomization import (
    TIE_TOLERANCE,
    PermutationPlan,
    PValue,
    StratumLayout,
    enumerate_assignments,
    enumerate_within_stratum_permutations,
    monte_carlo_pvalue,
    sample_assignments,
    sample_within_stratum_permutations,
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


def _assignment_matrix(plan: PermutationPlan) -> np.ndarray:
    if plan.mode == "exact":
        return enumerate_assignments(plan.layout, plan.enumeration_cap)
    return sample_assignments(plan.layout, plan.stream(), plan.draws)


def _permutation_matrix(plan: PermutationPlan) -> np.ndarray:
    if plan.mode == "exact":
        return enumerate_within_stratum_permutations(plan.layout, plan.enumeration_cap)
    return sample_within_stratum_permutations(plan.layout, plan.stream(), plan.draws)


def _observed_treatment_t(data: TrialData):
    """Full-model t for the treatment column; shared by ancova and the
    regression permutation tests so their observed statistics are identical."""
    design = build_design(data.strata, data.x, data.z)
    fit = fit_least_squares(design, data.y)
    if fit.treatment_t is None:
        return 0.0, fit, ("degenerate_residual_variance",)
    return float(fit.treatment_t), fit, ()


def _fwl_t(dot, target_ss, resp_ss, df, target_raw_ss):
    """t statistics from Frisch-Waugh-Lovell pieces, one per row.

    dot           target . response after projecting out nuisance columns
    target_ss     squared norm of the projected target, per row
    resp_ss       squared norm of the projected response, per row
    target_raw_ss squared norm of the unprojected target (sets the scale for
                  declaring a row singular)

    Rows whose target is numerically inside the nuisance span, or whose t is
    0/0, score 0 and are counted as degenerate.
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


def _t_null(draws: np.ndarray, fixed: np.ndarray, q: np.ndarray, df: int,
            draws_are_target: bool):
    """Null t statistics of the regression battery, one per row of ``draws``.

    Every regression test scores the same FWL t statistic and differs only in
    which side is permuted: ``draws`` (B, n) holds the permuted target
    (assignments, Kennedy's residuals) or the permuted response (Freedman-Lane,
    Manly), and ``fixed`` is the other side.  Both are residualized against
    the orthonormal nuisance basis ``q``.
    """
    projected = draws - (draws @ q) @ q.T
    fixed_t = fixed - q @ (q.T @ fixed)
    b = draws.shape[0]
    fixed_ss = np.full(b, float(fixed_t @ fixed_t))
    if draws_are_target:
        return _fwl_t(projected @ fixed_t, _row_ss(projected), fixed_ss, df,
                      _row_ss(draws))
    return _fwl_t(projected @ fixed_t, fixed_ss, _row_ss(projected), df,
                  np.full(b, float(fixed @ fixed)))


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


def _null_basis(data: TrialData) -> np.ndarray:
    design0 = build_design(data.strata, data.x)
    return orthonormal_columns(design0.matrix, design0.columns)


def _null_fit(data: TrialData):
    design0 = build_design(data.strata, data.x)
    return fit_least_squares(design0, data.y)


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
# parametric reference


def ancova_parametric(data: TrialData, plan: PermutationPlan | None = None) -> TestResult:
    """ANCOVA t test for the treatment effect, stratum intercepts included.

    The model is y ~ stratum dummies + baseline + treatment; the statistic is
    the treatment coefficient over its standard error and the p-value comes
    from Student's t with N - J - 2 degrees of freedom.  ``plan`` is accepted
    for signature uniformity and ignored.
    """
    stat, fit, flags = _observed_treatment_t(data)
    if flags:
        p = 1.0
    else:
        p = student_t_two_sided_p(stat, fit.df)
    return TestResult(
        method="ancova",
        statistic=stat,
        p_value=PValue(value=p, exceedances=0, draws=0, mode="analytic"),
        df=fit.df,
        null_summary={"reference": f"t({fit.df})"},
        flags=flags,
    )


# ---------------------------------------------------------------------------
# assignment-orbit tests


def _stratum_diffs(y, z, strata, n_strata):
    out = np.empty(n_strata)
    for j in range(n_strata):
        in_j = strata == j
        out[j] = y[in_j & (z == 1)].mean() - y[in_j & (z == 0)].mean()
    return out


def _diff_means_core(data: TrialData, plan: PermutationPlan, y: np.ndarray, method: str) -> TestResult:
    z = data.z
    n_t = int(z.sum())
    n_c = data.n_units - n_t
    observed = float(y[z == 1].mean() - y[z == 0].mean())
    zmat = _assignment_matrix(plan)
    treated_sums = zmat @ y
    draws = treated_sums / n_t - (y.sum() - treated_sums) / n_c
    per_stratum = _stratum_diffs(y, z, data.strata, data.n_strata)
    return TestResult(
        method=method,
        statistic=observed,
        p_value=monte_carlo_pvalue(observed, draws, plan.mode),
        per_stratum=tuple(float(v) for v in per_stratum),
        null_summary=_summarize(draws),
    )


def stratified_diff_means(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Pooled difference in outcome means, re-randomized within strata."""
    _check_plan(data, plan)
    return _diff_means_core(data, plan, data.y, "stratified_diff_means")


def stratified_change_scores(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Difference in means of the change scores y - x, re-randomized within
    strata.  With x identically zero this coincides with
    :func:`stratified_diff_means` draw for draw."""
    _check_plan(data, plan)
    return _diff_means_core(data, plan, data.y - data.x, "change_scores")


def stratified_sum_abs(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Sum over strata of |treated mean - control mean|, right-tailed."""
    _check_plan(data, plan)
    y, z = data.y, data.z
    per_stratum = _stratum_diffs(y, z, data.strata, data.n_strata)
    observed = float(np.abs(per_stratum).sum())
    zmat = _assignment_matrix(plan)
    total = np.zeros(zmat.shape[0])
    for j, pos in enumerate(plan.layout.stratum_positions()):
        t_j = plan.layout.treated[j]
        c_j = plan.layout.sizes[j] - t_j
        sums = zmat[:, pos] @ y[pos]
        total += np.abs(sums / t_j - (y[pos].sum() - sums) / c_j)
    return TestResult(
        method="stratified_sum_abs",
        statistic=observed,
        p_value=monte_carlo_pvalue(observed, total, plan.mode, tail="right"),
        per_stratum=tuple(float(v) for v in per_stratum),
        null_summary=_summarize(total),
    )


def lm_permutation(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Permutation test of the ANCOVA t statistic.

    The observed statistic is the same full-model t as
    :func:`ancova_parametric`; the null distribution refits it under
    re-randomized treatment assignments (the baseline and stratum columns
    stay put, so each draw reduces to two dot products after one shared
    projection).
    """
    _check_plan(data, plan)
    t_obs, fit, flags = _observed_treatment_t(data)
    zmat = _assignment_matrix(plan).astype(float)
    null = _t_null(zmat, data.y, _null_basis(data), fit.df, draws_are_target=True)
    return _t_result("lm_permutation", t_obs, null, plan, fit.df, flags)


# ---------------------------------------------------------------------------
# residual / outcome permutation tests


def _permuted_response_test(
    data: TrialData, plan: PermutationPlan, method: str, permute_residuals: bool
) -> TestResult:
    """Refit the full model to each permuted response, design held fixed.

    The response rows are the null fit plus its residuals permuted within
    strata (Freedman-Lane) or the outcomes permuted within strata (Manly).
    """
    _check_plan(data, plan)
    t_obs, fit, flags = _observed_treatment_t(data)
    if permute_residuals:
        fit0 = _null_fit(data)
        rows = fit0.fitted + fit0.residuals[_permutation_matrix(plan)]
    else:
        rows = data.y[_permutation_matrix(plan)]
    z = data.z.astype(float)
    null = _t_null(rows, z, _null_basis(data), fit.df, draws_are_target=False)
    return _t_result(method, t_obs, null, plan, fit.df, flags)


def freedman_lane(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Freedman-Lane permutation of the ANCOVA t statistic.

    Null model (stratum dummies + baseline) is fit once; its residuals are
    permuted within strata, added back to the null fitted values, and the
    full model is refit to each reconstructed response.  The observed
    statistic comes from the unpermuted full fit.
    """
    return _permuted_response_test(data, plan, "freedman_lane", permute_residuals=True)


def manly_test(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Manly's variant: outcomes permuted within strata against the fixed
    design.  Same observed statistic as the other regression tests."""
    return _permuted_response_test(data, plan, "manly", permute_residuals=False)


def kennedy_test(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Kennedy's variant: treatment regressed on permuted null residuals.

    The observed statistic is the t of the (unpermuted) null-residual column
    in a regression of z on stratum dummies plus those residuals; each draw
    re-estimates it with the residuals permuted within strata.
    """
    _check_plan(data, plan)
    fit0 = _null_fit(data)
    eps = fit0.residuals
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
    qs = orthonormal_columns(dummies, cols[:-1])
    null = _t_null(eps[_permutation_matrix(plan)], z, qs, df, draws_are_target=True)
    return _t_result("kennedy", t_obs, null, plan, df, flags)


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
    _check_plan(data, plan)
    fit0 = _null_fit(data)
    eps = fit0.residuals
    positions = plan.layout.stratum_positions()
    j_total = data.n_strata
    flags: list[str] = []

    centered_x = []
    scale = np.empty(j_total)
    for j, pos in enumerate(positions):
        xj = data.x[pos]
        ej = eps[pos]
        sx = xj.std(ddof=1)
        se = ej.std(ddof=1)
        xc = xj - xj.mean()
        centered_x.append(xc)
        denom = (pos.size - 1) * sx * se
        if denom <= 0.0 or not np.isfinite(denom):
            scale[j] = 0.0
            flags.append(f"constant_in_stratum[{data.stratum_labels[j]}]")
        else:
            scale[j] = 1.0 / denom

    observed = np.zeros(j_total)
    for j, pos in enumerate(positions):
        if scale[j] > 0.0:
            observed[j] = float((eps[pos] @ centered_x[j]) * scale[j])

    perm = _permutation_matrix(plan)
    ep = eps[perm]
    draws = np.zeros((perm.shape[0], j_total))
    for j, pos in enumerate(positions):
        if scale[j] > 0.0:
            draws[:, j] = (ep[:, pos] @ centered_x[j]) * scale[j]

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
