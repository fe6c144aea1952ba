"""Tests for the test battery against brute-force refit oracles.

On layouts small enough to enumerate, every batched permutation test is
compared against a literal reimplementation: loop over the orbit, rebuild
the design, refit with numpy.linalg.lstsq, recount exceedances.  The FWL
shortcuts in the implementation must agree with those full refits exactly
(up to float roundoff).  The shared null engine is also checked against an
explicit-projection oracle that builds each test's whole (draws, units)
matrix, and a battery call against the separate test calls.
"""
import warnings

import numpy as np
import pytest

from stratperm.hypothesis_tests import (
    METHODS,
    TrialData,
    ancova_parametric,
    exchangeability_diagnostic,
    freedman_lane,
    kennedy_test,
    lm_permutation,
    manly_test,
    npc_combine,
    run_battery,
    stratified_change_scores,
    stratified_diff_means,
    stratified_sum_abs,
)
from stratperm.linear_model import (
    DesignMatrix,
    SingularDesignError,
    build_design,
    fit_least_squares,
    orthonormal_columns,
    student_t_two_sided_p,
)
from stratperm.randomization import (
    PermutationPlan,
    StratumLayout,
    derive_stream,
    enumerate_assignments,
    enumerate_within_stratum_permutations,
    monte_carlo_pvalue,
    sample_assignments,
    sample_within_stratum_permutations,
)

TIE = 1e-12


def small_trial(seed=5150, gamma=1.0):
    """(4,4)/(2,2) trial with a real effect, fully enumerable."""
    rng = np.random.default_rng(seed)
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 1, 0, 0, 0, 1, 0, 1], dtype=np.int8)
    x = rng.standard_normal(8)
    y = 0.8 * x + gamma * z + np.where(strata == 0, 0.3, -0.4)
    y = y + 0.6 * rng.standard_normal(8)
    return TrialData.from_arrays(strata, z, x, y)


def exact_plan(data, seed=303):
    return PermutationPlan(layout=data.layout, mode="exact", master_seed=seed)


def mc_plan(data, draws=400, seed=404):
    return PermutationPlan(
        layout=data.layout, mode="monte_carlo", draws=draws, master_seed=seed
    )


def refit_t(strata, x, z, y):
    """Treatment t via an independent lstsq path."""
    dummies = np.equal.outer(strata, np.unique(strata)).astype(float)
    m = np.column_stack([dummies, x, z])
    coef, _, _, _ = np.linalg.lstsq(m, y, rcond=None)
    resid = y - m @ coef
    df = m.shape[0] - m.shape[1]
    sigma2 = resid @ resid / df
    cov = sigma2 * np.linalg.inv(m.T @ m)
    return coef[-1] / np.sqrt(cov[-1, -1])


# ---------------------------------------------------------------------------
# trial construction


def test_from_arrays_canonicalizes_labels():
    data = TrialData.from_arrays(
        np.array(["east", "west", "east", "west", "east", "west"]),
        np.array([1, 0, 0, 1, 1, 0]),
        np.zeros(6),
        np.arange(6.0),
    )
    assert data.stratum_labels == ("east", "west")
    np.testing.assert_array_equal(data.strata, [0, 1, 0, 1, 0, 1])


def test_from_arrays_rejects_single_arm_stratum():
    with pytest.raises(ValueError, match="both arms"):
        TrialData.from_arrays(
            np.array([0, 0, 1, 1]),
            np.array([1, 1, 1, 0]),
            np.zeros(4),
            np.zeros(4),
        )


def test_from_arrays_rejects_non_finite_and_bad_z():
    strata = np.array([0, 0, 1, 1])
    z = np.array([1, 0, 1, 0])
    with pytest.raises(ValueError, match="outcome"):
        TrialData.from_arrays(strata, z, np.zeros(4), np.array([1.0, np.nan, 0, 0]))
    with pytest.raises(ValueError, match="0 and 1"):
        TrialData.from_arrays(strata, np.array([1, 2, 1, 0]), np.zeros(4), np.zeros(4))


# ---------------------------------------------------------------------------
# ancova against an independent construction


def test_ancova_matches_independent_fit():
    data = small_trial()
    result = ancova_parametric(data)
    t_ref = refit_t(data.strata, data.x, data.z, data.y)
    assert result.statistic == pytest.approx(t_ref, abs=1e-10)
    assert result.df == 8 - 2 - 2
    assert result.p_value.value == pytest.approx(
        student_t_two_sided_p(t_ref, 4), abs=1e-12
    )
    assert result.p_value.mode == "analytic"


def test_ancova_and_lm_permutation_share_observed_statistic():
    data = small_trial()
    a = ancova_parametric(data)
    b = lm_permutation(data, exact_plan(data))
    assert a.statistic == b.statistic


# ---------------------------------------------------------------------------
# exact-orbit agreement with literal brute force


def test_stratified_diff_means_exact_matches_brute_force():
    data = small_trial()
    result = stratified_diff_means(data, exact_plan(data))
    zmat = enumerate_assignments(data.layout)
    y = data.y
    obs = y[data.z == 1].mean() - y[data.z == 0].mean()
    draws = np.array([y[r == 1].mean() - y[r == 0].mean() for r in zmat])
    k = np.sum(np.abs(draws) >= abs(obs) - TIE)
    assert result.p_value.value == pytest.approx(k / 36.0, abs=1e-15)
    assert result.p_value.mode == "exact"
    assert result.statistic == pytest.approx(obs, abs=1e-15)


def test_sum_abs_exact_matches_brute_force():
    data = small_trial()
    result = stratified_sum_abs(data, exact_plan(data))
    zmat = enumerate_assignments(data.layout)
    y, s = data.y, data.strata

    def stat(zrow):
        total = 0.0
        for j in (0, 1):
            mask = s == j
            total += abs(
                y[mask & (zrow == 1)].mean() - y[mask & (zrow == 0)].mean()
            )
        return total

    obs = stat(data.z)
    draws = np.array([stat(r) for r in zmat])
    k = np.sum(draws >= obs - TIE)
    assert result.p_value.value == pytest.approx(k / 36.0, abs=1e-15)
    assert result.statistic == pytest.approx(obs, abs=1e-12)


def test_lm_permutation_exact_matches_full_refits():
    data = small_trial()
    result = lm_permutation(data, exact_plan(data))
    zmat = enumerate_assignments(data.layout)
    t_obs = refit_t(data.strata, data.x, data.z, data.y)
    draws = np.array(
        [refit_t(data.strata, data.x, r.astype(float), data.y) for r in zmat]
    )
    k = np.sum(np.abs(draws) >= abs(t_obs) - TIE)
    assert result.p_value.value == pytest.approx(k / 36.0, abs=1e-15)
    assert result.degenerate_draws == 0


def test_freedman_lane_exact_matches_full_refits():
    data = small_trial()
    result = freedman_lane(data, exact_plan(data))

    design0 = build_design(data.strata, data.x)
    fit0 = fit_least_squares(design0, data.y)
    perms = enumerate_within_stratum_permutations(data.layout)
    t_obs = refit_t(data.strata, data.x, data.z, data.y)
    draws = np.array(
        [
            refit_t(
                data.strata,
                data.x,
                data.z.astype(float),
                fit0.fitted + fit0.residuals[perm],
            )
            for perm in perms
        ]
    )
    assert perms.shape[0] == 576
    k = np.sum(np.abs(draws) >= abs(t_obs) - TIE)
    assert result.p_value.value == pytest.approx(k / 576.0, abs=1e-15)


def test_manly_exact_matches_full_refits():
    data = small_trial()
    result = manly_test(data, exact_plan(data))
    perms = enumerate_within_stratum_permutations(data.layout)
    t_obs = refit_t(data.strata, data.x, data.z, data.y)
    draws = np.array(
        [
            refit_t(data.strata, data.x, data.z.astype(float), data.y[perm])
            for perm in perms
        ]
    )
    k = np.sum(np.abs(draws) >= abs(t_obs) - TIE)
    assert result.p_value.value == pytest.approx(k / 576.0, abs=1e-15)


def test_kennedy_exact_matches_full_refits():
    data = small_trial()
    result = kennedy_test(data, exact_plan(data))

    design0 = build_design(data.strata, data.x)
    fit0 = fit_least_squares(design0, data.y)
    eps = fit0.residuals
    dummies = np.equal.outer(data.strata, np.array([0, 1])).astype(float)
    z = data.z.astype(float)

    def t_of(residual_col):
        m = np.column_stack([dummies, residual_col])
        coef, _, _, _ = np.linalg.lstsq(m, z, rcond=None)
        resid = z - m @ coef
        df = m.shape[0] - m.shape[1]
        sigma2 = resid @ resid / df
        cov = sigma2 * np.linalg.inv(m.T @ m)
        return coef[-1] / np.sqrt(cov[-1, -1])

    perms = enumerate_within_stratum_permutations(data.layout)
    t_obs = t_of(eps)
    draws = np.array([t_of(eps[perm]) for perm in perms])
    k = np.sum(np.abs(draws) >= abs(t_obs) - TIE)
    assert result.statistic == pytest.approx(t_obs, abs=1e-10)
    assert result.p_value.value == pytest.approx(k / 576.0, abs=1e-15)


def test_monte_carlo_tracks_exact_on_small_orbit():
    data = small_trial()
    exact = stratified_diff_means(data, exact_plan(data)).p_value.value
    mc = stratified_diff_means(data, mc_plan(data, draws=10_000)).p_value.value
    bound = 3.0 * np.sqrt(exact * (1.0 - exact) / 10_000)
    assert abs(mc - exact) <= bound + 1e-4


def test_lm_permutation_scores_singular_draws_zero():
    # x is an affine image of an assignment of the layout, so two draws of the
    # orbit, that assignment and its mirror, put the treatment column inside
    # the span of the stratum dummies and the baseline: their refits are
    # singular.  With these coefficients the rounding in the engine's
    # subtraction lands above the singular-row threshold, so the draws are
    # caught only by projecting them explicitly.
    rng = np.random.default_rng(606)
    strata = np.repeat([0, 1], 6)
    x = 0.1 + 0.7 * np.array([1, 0, 1, 0, 0, 1, 1, 1, 0, 0, 1, 0], dtype=float)
    z = np.array([1, 1, 0, 0, 1, 0, 0, 1, 1, 0, 0, 1], dtype=np.int8)
    y = 0.7 * x + 0.8 * z + rng.standard_normal(12)
    data = TrialData.from_arrays(strata, z, x, y)
    result = lm_permutation(data, exact_plan(data))
    assert result.degenerate_draws == 2

    dummies = np.equal.outer(strata, np.array([0, 1])).astype(float)
    draws = []
    for row in enumerate_assignments(data.layout).astype(float):
        m = np.column_stack([dummies, x, row])
        singular = np.linalg.matrix_rank(m) < m.shape[1]
        draws.append(0.0 if singular else refit_t(strata, x, row, y))
    k = np.sum(np.abs(draws) >= abs(result.statistic) - TIE)
    assert result.p_value.exceedances == k
    assert result.p_value.value == pytest.approx(k / 400.0, abs=1e-15)


# ---------------------------------------------------------------------------
# degenerate inputs


def test_outcome_equal_to_baseline_gives_p_one():
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 1, 0, 0, 1, 0, 1, 0], dtype=np.int8)
    x = np.arange(8.0)
    data = TrialData.from_arrays(strata, z, x, x.copy())
    a = ancova_parametric(data)
    assert a.p_value.value == 1.0
    assert "degenerate_residual_variance" in a.flags

    fl = freedman_lane(data, exact_plan(data))
    assert fl.p_value.value == 1.0

    lm = lm_permutation(data, exact_plan(data))
    assert lm.p_value.value == 1.0


def test_constant_outcome_gives_p_one_everywhere():
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 1, 0, 0, 1, 0, 1, 0], dtype=np.int8)
    x = np.arange(8.0)
    data = TrialData.from_arrays(strata, z, x, np.full(8, 3.5))
    for method in ("ancova", "stratified_diff_means", "lm_permutation",
                   "freedman_lane", "manly", "kennedy"):
        result = METHODS[method](data, exact_plan(data))
        assert result.p_value.value == 1.0, method


def test_kennedy_flags_zero_null_residuals():
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 1, 0, 0, 1, 0, 1, 0], dtype=np.int8)
    x = np.arange(8.0)
    y = 2.0 * x + np.where(strata == 0, 1.0, -1.0)  # exactly in the null span
    data = TrialData.from_arrays(strata, z, x, y)
    result = kennedy_test(data, exact_plan(data))
    assert "degenerate_null_residuals" in result.flags
    assert result.p_value.value == 1.0


def test_change_scores_reduce_to_diff_means_when_baseline_is_zero():
    rng = np.random.default_rng(8)
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.int8)
    y = rng.standard_normal(8)
    data = TrialData.from_arrays(strata, z, np.zeros(8), y)
    a = stratified_diff_means(data, exact_plan(data))
    b = stratified_change_scores(data, exact_plan(data))
    assert a.p_value.value == b.p_value.value
    assert a.statistic == b.statistic


# ---------------------------------------------------------------------------
# invariances


def test_pvalues_invariant_to_outcome_location_and_scale():
    data = small_trial(seed=99)
    moved = TrialData.from_arrays(
        data.strata, data.z, data.x, 3.0 + 2.5 * data.y
    )
    for method in ("stratified_diff_means", "lm_permutation", "freedman_lane",
                   "manly", "kennedy", "stratified_sum_abs"):
        p_base = METHODS[method](data, exact_plan(data)).p_value.value
        p_moved = METHODS[method](moved, exact_plan(moved)).p_value.value
        assert p_base == pytest.approx(p_moved, abs=1e-12), method


def test_two_sided_pvalues_invariant_to_outcome_sign_flip():
    data = small_trial(seed=100)
    flipped = TrialData.from_arrays(data.strata, data.z, -data.x, -data.y)
    for method in ("ancova", "stratified_diff_means", "lm_permutation"):
        p_base = METHODS[method](data, exact_plan(data)).p_value.value
        p_flip = METHODS[method](flipped, exact_plan(flipped)).p_value.value
        assert p_base == pytest.approx(p_flip, abs=1e-12), method


def test_plan_layout_mismatch_is_rejected():
    data = small_trial()
    wrong = PermutationPlan(
        layout=StratumLayout.from_counts((4, 4), (1, 1)),
        mode="exact",
        master_seed=1,
    )
    with pytest.raises(ValueError, match="layout"):
        stratified_diff_means(data, wrong)


def test_methods_registry_is_complete_and_runnable():
    expected = {
        "ancova",
        "stratified_diff_means",
        "stratified_sum_abs",
        "change_scores",
        "lm_permutation",
        "freedman_lane",
        "kennedy",
        "manly",
    }
    assert set(METHODS) == expected
    data = small_trial()
    plan = mc_plan(data, draws=60)
    for name, func in METHODS.items():
        result = func(data, plan)
        assert result.method == name
        assert 0.0 < result.p_value.value <= 1.0


# ---------------------------------------------------------------------------
# nonparametric combination


def test_npc_single_column_reduces_to_partial_test():
    rng = np.random.default_rng(21)
    draws = rng.standard_normal((499, 1))
    observed = np.array([1.7])
    result = npc_combine(observed, draws, combiner="fisher")
    k = np.sum(np.abs(draws[:, 0]) >= abs(observed[0]) - TIE)
    partial = (k + 1) / 500.0
    assert result.partial_p[0] == pytest.approx(partial, abs=1e-12)
    assert result.p_value.value == pytest.approx(partial, abs=2.0 / 500.0)


def test_npc_fisher_beats_its_weakest_partial_on_consonant_signal():
    rng = np.random.default_rng(22)
    draws = rng.standard_normal((999, 3))
    observed = np.array([2.6, 2.4, 2.8])
    result = npc_combine(observed, draws, combiner="fisher")
    assert result.p_value.value < result.partial_p.max()


def test_npc_tippett_follows_minimum_partial():
    rng = np.random.default_rng(23)
    draws = rng.standard_normal((999, 2))
    observed = np.array([0.1, 3.4])
    fisher = npc_combine(observed, draws, combiner="fisher")
    tippett = npc_combine(observed, draws, combiner="tippett")
    # the strong second component should drive tippett at least as hard
    assert tippett.p_value.value <= fisher.p_value.value + 0.02
    assert tippett.combiner == "tippett"


def test_npc_liptak_runs_and_orders_sensibly():
    rng = np.random.default_rng(24)
    draws = rng.standard_normal((999, 2))
    strong = npc_combine(np.array([2.9, 3.1]), draws, combiner="liptak")
    weak = npc_combine(np.array([0.2, -0.1]), draws, combiner="liptak")
    assert strong.p_value.value < weak.p_value.value


def test_npc_validates_shapes_and_combiner():
    draws = np.zeros((10, 2))
    with pytest.raises(ValueError):
        npc_combine(np.zeros(3), draws)
    with pytest.raises(ValueError):
        npc_combine(np.zeros(2), np.zeros(10))
    with pytest.raises(ValueError):
        npc_combine(np.zeros(2), draws, combiner="median")


# ---------------------------------------------------------------------------
# exchangeability diagnostic


def test_exchangeability_diagnostic_runs_on_regular_data():
    data = small_trial()
    result = exchangeability_diagnostic(data, mc_plan(data, draws=300))
    assert result.method == "exchangeability"
    assert len(result.per_stratum) == 2
    assert 0.0 < result.p_value.value <= 1.0


def test_exchangeability_diagnostic_flags_constant_stratum():
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.int8)
    x = np.array([2.0, 2.0, 2.0, 2.0, 1.0, 3.0, 2.0, 4.0])
    rng = np.random.default_rng(31)
    y = rng.standard_normal(8)
    data = TrialData.from_arrays(strata, z, x, y)
    result = exchangeability_diagnostic(data, mc_plan(data, draws=200))
    assert any("constant_in_stratum" in f for f in result.flags)


def test_exchangeability_detects_planted_association():
    # residual-x association within strata: x itself drives y nonlinearly
    rng = np.random.default_rng(77)
    strata = np.repeat([0, 1, 2], 12)
    sizes = (12, 12, 12)
    z = np.zeros(36, dtype=np.int8)
    for j in range(3):
        pick = 12 * j + rng.choice(12, size=6, replace=False)
        z[pick] = 1
    x = rng.standard_normal(36)
    y = x**2 * 3.0 + 0.1 * rng.standard_normal(36)
    data = TrialData.from_arrays(strata, z, x, y)
    plan = PermutationPlan(
        layout=data.layout, mode="monte_carlo", draws=999, master_seed=11
    )
    result = exchangeability_diagnostic(data, plan)
    assert result.p_value.value < 0.05


# ---------------------------------------------------------------------------
# exactness under the sharp null


def test_exact_tests_are_super_uniform_under_sharp_null():
    rng = np.random.default_rng(2718)
    strata = np.repeat([0, 1], 4)
    layout = StratumLayout.from_counts((4, 4), (2, 2))
    n_sets = 400
    alphas = (0.1, 0.25, 0.5)
    pvals = {m: [] for m in ("stratified_diff_means", "lm_permutation")}
    for i in range(n_sets):
        x = rng.standard_normal(8)
        y = 0.5 * x + rng.standard_normal(8)  # no treatment effect anywhere
        z = np.zeros(8, dtype=np.int8)
        for j in (0, 1):
            pick = 4 * j + rng.choice(4, size=2, replace=False)
            z[pick] = 1
        data = TrialData.from_arrays(strata, z, x, y)
        plan = PermutationPlan(layout=layout, mode="exact", master_seed=i)
        for m in pvals:
            pvals[m].append(METHODS[m](data, plan).p_value.value)
    for m, ps in pvals.items():
        ps = np.asarray(ps)
        for alpha in alphas:
            rate = np.mean(ps <= alpha + TIE)
            margin = 3.0 * np.sqrt(alpha * (1 - alpha) / n_sets)
            assert rate <= alpha + margin, (m, alpha, rate)


# ---------------------------------------------------------------------------
# the shared null engine against an explicit-projection oracle


def _oracle_t(draws, fixed, q, df, draws_are_target):
    """Null t statistics by explicit projection: every row of ``draws`` and
    the ``fixed`` vector are residualized against the orthonormal nuisance
    basis ``q``.  Singular rows and 0/0 rows score 0 and are counted."""
    projected = draws - (draws @ q) @ q.T
    fixed_t = fixed - q @ (q.T @ fixed)
    dot = projected @ fixed_t
    rows_ss = np.einsum("ij,ij->i", projected, projected)
    if draws_are_target:
        target_ss, resp_ss = rows_ss, fixed_t @ fixed_t
        raw_ss = np.einsum("ij,ij->i", draws, draws)
    else:
        target_ss, resp_ss, raw_ss = fixed_t @ fixed_t, rows_ss, fixed @ fixed
    ok = target_ss > 1e-20 * np.maximum(raw_ss, 1e-300)
    safe = np.where(ok, target_ss, 1.0)
    rss = np.maximum(resp_ss - dot * dot / safe, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(ok, dot / safe, 0.0) * np.sqrt(df * safe / rss)
    bad = ~ok | np.isnan(t)
    return np.where(bad, 0.0, t), int(np.count_nonzero(bad))


def _oracle(data, plan, method):
    """(statistic, null draws, degenerate draws) of ``method`` computed the
    direct way: the plan's whole (draws, units) orbit matrix, each test's
    own projections, no shared draws.  Exchangeability returns the
    observed stratum correlations and the (draws, strata) null matrix."""
    layout, exact = plan.layout, plan.mode == "exact"
    if exact:
        zmat = enumerate_assignments(layout)
        perm = enumerate_within_stratum_permutations(layout)
    else:
        zmat = sample_assignments(layout, plan.stream(), plan.draws)
        perm = sample_within_stratum_permutations(layout, plan.stream(), plan.draws)
    z, y, x, strata = data.z, data.y, data.x, data.strata
    dummies = np.equal.outer(strata, np.arange(data.n_strata)).astype(float)
    design0 = build_design(strata, x)
    q = orthonormal_columns(design0.matrix, design0.columns)
    fit0 = fit_least_squares(design0, y)
    fit = fit_least_squares(build_design(strata, x, z), y)
    if method in ("stratified_diff_means", "change_scores"):
        v = y if method == "stratified_diff_means" else y - x
        sums = zmat @ v
        n_t = int(z.sum())
        draws = sums / n_t - (v.sum() - sums) / (data.n_units - n_t)
        return float(v[z == 1].mean() - v[z == 0].mean()), draws, 0
    if method == "stratified_sum_abs":
        observed, draws = 0.0, np.zeros(zmat.shape[0])
        for pos, t in zip(layout.stratum_positions(), layout.treated):
            sums = zmat[:, pos] @ y[pos]
            draws += np.abs(sums / t - (y[pos].sum() - sums) / (pos.size - t))
            observed += abs(y[pos][z[pos] == 1].mean() - y[pos][z[pos] == 0].mean())
        return observed, draws, 0
    if method == "lm_permutation":
        return (fit.treatment_t,) + _oracle_t(zmat.astype(float), y, q, fit.df, True)
    if method in ("freedman_lane", "manly"):
        rows = fit0.fitted + fit0.residuals[perm] if method == "freedman_lane" else y[perm]
        return (fit.treatment_t,) + _oracle_t(rows, z.astype(float), q, fit.df, False)
    eps = fit0.residuals
    if method == "kennedy":
        design = DesignMatrix(matrix=np.column_stack([dummies, eps]),
                              columns=tuple(f"c{j}" for j in range(data.n_strata + 1)),
                              n_strata=data.n_strata, treatment_column=data.n_strata)
        obs = fit_least_squares(design, z.astype(float))
        q_strata = orthonormal_columns(dummies, design.columns[:-1])
        return (obs.treatment_t,) + _oracle_t(eps[perm], z.astype(float), q_strata,
                                              obs.df, True)
    observed, draws = [], []
    for pos in layout.stratum_positions():
        xc = x[pos] - x[pos].mean()
        scale = 1.0 / ((pos.size - 1) * x[pos].std(ddof=1) * eps[pos].std(ddof=1))
        observed.append(eps[pos] @ xc * scale)
        draws.append(eps[perm][:, pos] @ xc * scale)
    return np.array(observed), np.column_stack(draws), 0


def _summary(draws):
    q = np.quantile(draws, (0.025, 0.5, 0.975))
    return [draws.mean(), draws.std(ddof=1), *q]


def interleaved_trial(seed, sizes):
    """A trial whose strata codes interleave, with a real effect."""
    rng = np.random.default_rng(seed)
    strata = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    z = np.zeros(strata.size, dtype=np.int8)
    for j, n in enumerate(sizes):
        z[rng.choice(np.nonzero(strata == j)[0], n // 2, replace=False)] = 1
    x = rng.standard_normal(strata.size) + 3.0
    y = 0.8 * x + 0.6 * z + 0.3 * strata + rng.standard_normal(strata.size)
    return TrialData.from_arrays(strata, z, x, y)


PARITY_CASES = [
    ("monte_carlo", 1, (9, 11, 10)),
    ("monte_carlo", 2, (4, 7, 5, 6)),
    ("exact", 3, (4, 5, 4)),
]


@pytest.mark.parametrize("mode,seed,sizes", PARITY_CASES,
                         ids=[f"{m}-{s}" for m, s, _ in PARITY_CASES])
def test_engine_matches_explicit_projection_oracle(mode, seed, sizes):
    data = interleaved_trial(seed, sizes)
    plan = PermutationPlan(layout=data.layout, mode=mode, draws=400, master_seed=seed)
    for method in [m for m in METHODS if m != "ancova"]:
        result = METHODS[method](data, plan)
        statistic, draws, degenerate = _oracle(data, plan, method)
        tail = "right" if method == "stratified_sum_abs" else "two_sided"
        p = monte_carlo_pvalue(statistic, draws, mode, tail=tail)
        assert result.statistic == statistic, method
        assert result.p_value == p, method
        assert result.degenerate_draws == degenerate, method
        summary = result.null_summary
        np.testing.assert_allclose(
            [summary[k] for k in ("mean", "sd", "q025", "median", "q975")],
            _summary(draws), rtol=1e-9, atol=1e-12, err_msg=method,
        )
    result = exchangeability_diagnostic(data, plan)
    observed, draws, _ = _oracle(data, plan, "exchangeability")
    npc = npc_combine(observed, draws)
    assert result.null_summary["stratum_correlations"] == observed.tolist()
    assert result.statistic == npc.statistic
    assert result.p_value == npc.p_value
    assert result.per_stratum == tuple(npc.partial_p)


@pytest.mark.parametrize("mode,seed,sizes", PARITY_CASES,
                         ids=[f"{m}-{s}" for m, s, _ in PARITY_CASES])
def test_one_battery_call_equals_the_separate_calls(mode, seed, sizes):
    data = interleaved_trial(seed, sizes)
    plan = PermutationPlan(layout=data.layout, mode=mode, draws=400, master_seed=seed)
    names = list(METHODS) + ["exchangeability"]
    together = run_battery(data, plan, names)
    assert list(together) == names
    for name in names:
        alone = (exchangeability_diagnostic if name == "exchangeability"
                 else METHODS[name])(data, plan)
        both = together[name]
        assert both.statistic == alone.statistic, name
        assert both.p_value == alone.p_value, name
        assert both.degenerate_draws == alone.degenerate_draws, name
        assert both.per_stratum == alone.per_stratum, name
        assert both.flags == alone.flags, name
        assert both.null_summary == pytest.approx(alone.null_summary, rel=1e-12), name


def test_battery_rejects_unknown_tests():
    data = small_trial()
    with pytest.raises(ValueError, match="unknown"):
        run_battery(data, mc_plan(data), ["lm_permutation", "t_test"])


def test_battery_raises_singular_design_before_dividing_by_zero():
    # x constant within strata: the regression tests have no null model.
    strata = np.repeat([0, 1], 6)
    x = np.where(strata == 0, 2.0, 5.0)
    y = np.random.default_rng(12).standard_normal(12)
    data = TrialData.from_arrays(strata, np.tile([1, 0], 6), x, y)
    plan = mc_plan(data, draws=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularDesignError):
            run_battery(data, plan, ["stratified_diff_means", "lm_permutation"])
        alone = run_battery(data, plan, ["stratified_diff_means"])
    assert alone["stratified_diff_means"].p_value == stratified_diff_means(data, plan).p_value
