"""Tests for the test battery against brute-force refit oracles.

On layouts small enough to enumerate, every batched permutation test is
compared against a literal reimplementation: loop over the orbit, rebuild
the design, refit with numpy.linalg.lstsq, recount exceedances.  The FWL
shortcuts in the implementation must agree with those full refits exactly
(up to float roundoff).  The shared null engine is also checked against an
explicit-projection oracle that builds each test's whole (draws, units)
matrix, and a battery call against the separate test calls.
"""
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratperm import hypothesis_tests
from stratperm.hypothesis_tests import (
    METHODS,
    TrialData,
    _exceedances,
    _pvalue,
    exchangeability_diagnostic,
    npc_combine,
    run_trial,
)
from stratperm.linear_model import SingularDesignError, student_t_two_sided_p
from stratperm.randomization import PermutationPlan, StratumLayout, sample_assignments

from reference.fwl import _fwl_t as reference_fwl_t
from reference.least_squares import (
    DesignMatrix,
    build_design,
    fit_least_squares,
    orthonormal_columns,
)
from reference.orbits import (
    all_assignments,
    all_within_stratum_permutations,
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
    with pytest.raises(ValueError, match="stratum 0 lacks units in both arms"):
        TrialData.from_arrays(
            np.array([0, 0, 1, 1]),
            np.array([1, 1, 1, 0]),
            np.zeros(4),
            np.zeros(4),
        )


def test_from_arrays_rejects_non_finite_and_bad_z():
    strata = np.array([0, 0, 1, 1])
    z = np.array([1, 0, 1, 0])
    with pytest.raises(ValueError, match="baseline"):
        TrialData.from_arrays(strata, z, np.array([0.0, np.inf, 0, 0]), np.zeros(4))
    with pytest.raises(ValueError, match="outcome"):
        TrialData.from_arrays(strata, z, np.zeros(4), np.array([1.0, np.nan, 0, 0]))
    with pytest.raises(ValueError, match="0 and 1"):
        TrialData.from_arrays(strata, np.array([1, 2, 1, 0]), np.zeros(4), np.zeros(4))


@pytest.mark.parametrize("strata,z,length,match", [
    ([0, 0, 1, 1], [1, 0, 1, 0], 3, "x must be one-dimensional with length 4"),
    ([[0, 0], [1, 1]], [1, 0, 1, 0], 4, "z must be one-dimensional with length -1"),
    ([0, 0, 0], [1, 0, 1], 3, "at least 4 units"),
], ids=["length", "strata-shape", "three-units"])
def test_from_arrays_rejects_mismatched_lengths_and_tiny_trials(strata, z, length, match):
    with pytest.raises(ValueError, match=match):
        TrialData.from_arrays(np.array(strata), np.array(z), np.zeros(length), np.zeros(length))


def test_regression_tests_need_more_units_than_design_columns():
    # Two strata of one treated and one control unit: 4 units, and 4 columns
    # (2 stratum intercepts, the baseline and the treatment).
    data = TrialData.from_arrays([0, 0, 1, 1], [1, 0, 1, 0], [0.1, 0.4, 0.2, 0.9],
                                 [1.0, 2.0, 0.5, 0.3])
    for method in ("ancova", "lm_permutation", "freedman_lane"):
        with pytest.raises(ValueError, match=r"more units \(4\) than design columns \(4\)"):
            METHODS[method](data, exact_plan(data))


# ---------------------------------------------------------------------------
# ancova against an independent construction


def test_ancova_matches_independent_fit():
    data = small_trial()
    result = METHODS["ancova"](data)
    t_ref = refit_t(data.strata, data.x, data.z, data.y)
    assert result.statistic == pytest.approx(t_ref, abs=1e-10)
    assert result.df == 8 - 2 - 2
    assert result.p_value.value == pytest.approx(
        student_t_two_sided_p(t_ref, 4), abs=1e-12
    )
    assert result.p_value.mode == "analytic"


def test_ancova_and_lm_permutation_share_observed_statistic():
    data = small_trial()
    a = METHODS["ancova"](data)
    b = METHODS["lm_permutation"](data, exact_plan(data))
    assert a.statistic == b.statistic


# ---------------------------------------------------------------------------
# exact-orbit agreement with literal brute force


def test_stratified_diff_means_exact_matches_brute_force():
    data = small_trial()
    result = METHODS["stratified_diff_means"](data, exact_plan(data))
    zmat = all_assignments(data.layout)
    y = data.y
    obs = y[data.z == 1].mean() - y[data.z == 0].mean()
    draws = np.array([y[r == 1].mean() - y[r == 0].mean() for r in zmat])
    k = np.sum(np.abs(draws) >= abs(obs) - TIE)
    assert result.p_value.value == pytest.approx(k / 36.0, abs=1e-15)
    assert result.p_value.mode == "exact"
    assert result.statistic == pytest.approx(obs, abs=1e-15)


def test_sum_abs_exact_matches_brute_force():
    data = small_trial()
    result = METHODS["stratified_sum_abs"](data, exact_plan(data))
    zmat = all_assignments(data.layout)
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
    result = METHODS["lm_permutation"](data, exact_plan(data))
    zmat = all_assignments(data.layout)
    t_obs = refit_t(data.strata, data.x, data.z, data.y)
    draws = np.array(
        [refit_t(data.strata, data.x, r.astype(float), data.y) for r in zmat]
    )
    k = np.sum(np.abs(draws) >= abs(t_obs) - TIE)
    assert result.p_value.value == pytest.approx(k / 36.0, abs=1e-15)
    assert result.degenerate_draws == 0


def test_freedman_lane_exact_matches_full_refits():
    data = small_trial()
    result = METHODS["freedman_lane"](data, exact_plan(data))

    design0 = build_design(data.strata, data.x)
    fit0 = fit_least_squares(design0, data.y)
    perms = all_within_stratum_permutations(data.layout)
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
    result = METHODS["manly"](data, exact_plan(data))
    perms = all_within_stratum_permutations(data.layout)
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
    result = METHODS["kennedy"](data, exact_plan(data))

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

    perms = all_within_stratum_permutations(data.layout)
    t_obs = t_of(eps)
    draws = np.array([t_of(eps[perm]) for perm in perms])
    k = np.sum(np.abs(draws) >= abs(t_obs) - TIE)
    assert result.statistic == pytest.approx(t_obs, abs=1e-10)
    assert result.p_value.value == pytest.approx(k / 576.0, abs=1e-15)


def test_monte_carlo_tracks_exact_on_small_orbit():
    data = small_trial()
    exact = METHODS["stratified_diff_means"](data, exact_plan(data)).p_value.value
    mc = METHODS["stratified_diff_means"](data, mc_plan(data, draws=10_000)).p_value.value
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
    result = METHODS["lm_permutation"](data, exact_plan(data))
    assert result.degenerate_draws == 2

    dummies = np.equal.outer(strata, np.array([0, 1])).astype(float)
    draws = []
    for row in all_assignments(data.layout).astype(float):
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
    a = METHODS["ancova"](data)
    assert a.p_value.value == 1.0
    assert "degenerate_residual_variance" in a.flags

    fl = METHODS["freedman_lane"](data, exact_plan(data))
    assert fl.p_value.value == 1.0

    lm = METHODS["lm_permutation"](data, exact_plan(data))
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
    result = METHODS["kennedy"](data, exact_plan(data))
    assert "degenerate_null_residuals" in result.flags
    assert result.p_value.value == 1.0


def test_kennedy_flag_does_not_depend_on_an_offset():
    # Integer outcomes in 0-3 plus an offset are exact in double precision,
    # and the centring within strata removes the offset: the null residuals
    # are the same at every offset, and none of them is flagged as zero.
    rng = np.random.default_rng(12)
    strata = np.repeat([0, 1], 6)
    z = np.tile(np.int8([1, 0]), 6)
    x = rng.standard_normal(12)
    y = rng.integers(0, 4, 12).astype(float)
    results = []
    for offset in (0.0, 1e6, 1e9, 1e10):
        data = TrialData.from_arrays(strata, z, x, y + offset)
        results.append(METHODS["kennedy"](data, mc_plan(data)))
        assert results[-1].flags == (), offset
        assert results[-1].statistic == pytest.approx(results[0].statistic, rel=1e-9), offset
        assert results[-1].p_value == results[0].p_value, offset


def test_a_large_t_ties_with_its_own_draw():
    # y = 3 - z exactly: Kennedy's null residuals are nearly the treatment's
    # own and its t is about -60.  A draw's t is then off by about 1e-13 of
    # itself, which an absolute tie tolerance of 1e-12 cannot absorb, and the
    # exact orbit lost its own observed draw.  In exact arithmetic two draws
    # reach the observed |t|; two more fall 6e-12 short of it, below what
    # the draws resolve, and count as ties.
    strata = np.repeat([0, 1], 3)
    z = np.array([0, 1, 0, 0, 0, 1], dtype=np.int8)
    x = np.array([0.27699685, -1.10587653, 0.47602781, -2.50602894, 1.15255395, 0.96391986])
    data = TrialData.from_arrays(strata, z, x, 3.0 - z)
    result = METHODS["kennedy"](data, exact_plan(data))
    assert result.statistic == pytest.approx(-59.832074100195, rel=1e-12)
    assert result.p_value.exceedances == 4


def test_change_scores_reduce_to_diff_means_when_baseline_is_zero():
    rng = np.random.default_rng(8)
    strata = np.repeat([0, 1], 4)
    z = np.array([1, 0, 1, 0, 0, 1, 0, 1], dtype=np.int8)
    y = rng.standard_normal(8)
    data = TrialData.from_arrays(strata, z, np.zeros(8), y)
    a = METHODS["stratified_diff_means"](data, exact_plan(data))
    b = METHODS["change_scores"](data, exact_plan(data))
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


REGRESSION_TESTS = ("lm_permutation", "freedman_lane", "manly", "kennedy")


def tied_trial(seed):
    """Two strata of 3 to 5 units (exact orbits of at most 14,400 draws), a
    normal baseline and tied integer outcomes in 0-3."""
    rng = np.random.default_rng(seed)
    sizes = rng.integers(3, 6, size=2)
    strata = np.repeat([0, 1], sizes)
    z = np.zeros(strata.size, dtype=np.int8)
    for j, n in enumerate(sizes):
        z[rng.choice(np.nonzero(strata == j)[0], n // 2, replace=False)] = 1
    return strata, z, rng.standard_normal(strata.size), rng.integers(0, 4, strata.size)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(1e-9, 1e9), st.integers(-29, 29),
       st.integers(-(2**20), 2**20))
def test_regression_tests_do_not_depend_on_units(seed, c, k, m):
    # x -> c x, and y -> a + b y with b = 2^k and a = m b: a + b y is then
    # exact in double precision, so the moved trial is exactly an affine
    # image of the first.  Statistics move by rounding only; p-values,
    # flags and degenerate counts do not move at all.
    strata, z, x, y = tied_trial(seed)
    b = 2.0 ** k
    results = []
    for xs, ys in ((x, y), (c * x, y), (x, b * (m + y))):
        data = TrialData.from_arrays(strata, z, xs, ys)
        results.append(run_trial([data], exact_plan(data), REGRESSION_TESTS)[0])
    base = results[0]
    for moved in results[1:]:
        for name in REGRESSION_TESTS:
            assert moved[name].statistic == pytest.approx(base[name].statistic,
                                                          rel=1e-9, abs=0), name
            assert moved[name].p_value == base[name].p_value, name
            assert moved[name].flags == base[name].flags, name
            assert moved[name].degenerate_draws == base[name].degenerate_draws, name


def test_rank_checks_compare_each_column_with_its_own_norm():
    data = small_trial()
    t = METHODS["ancova"](data).statistic
    for scale in (1e-12, 1e12):
        small_x = TrialData.from_arrays(data.strata, data.z, scale * data.x, data.y)
        assert METHODS["ancova"](small_x).statistic == pytest.approx(t, rel=1e-12)
        small_y = TrialData.from_arrays(data.strata, data.z, data.x, scale * data.y)
        assert METHODS["kennedy"](small_y, exact_plan(small_y)).flags == ()
    # x constant within strata, however small: the baseline is the stratum
    # intercepts again.  x a stratum shift plus the treatment: z is in the
    # span of the intercepts and the baseline.
    for x, culprit in ((1e-12 * np.where(data.strata == 0, 2.0, 5.0), "baseline"),
                       (np.where(data.strata == 0, 2.0, 5.0) + 3.0 * data.z, "treatment")):
        moved = TrialData.from_arrays(data.strata, data.z, x, data.y)
        with pytest.raises(SingularDesignError, match=f"'{culprit}'"):
            METHODS["ancova"](moved)


def test_plan_layout_mismatch_is_rejected():
    data = small_trial()
    wrong = PermutationPlan(
        layout=StratumLayout.from_counts((4, 4), (1, 1)),
        mode="exact",
        master_seed=1,
    )
    with pytest.raises(ValueError, match="layout"):
        METHODS["stratified_diff_means"](data, wrong)


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
        assert isinstance(result, hypothesis_tests.TestResult), name
        assert result.method == name
        assert 0.0 < result.p_value.value <= 1.0
    # ANCOVA draws nothing, so it needs no plan; the permutation tests do.
    without = METHODS["ancova"](data)
    assert without.method == "ancova"
    assert without.p_value == METHODS["ancova"](data, plan).p_value
    with pytest.raises(ValueError, match="plan"):
        METHODS["lm_permutation"](data)


# ---------------------------------------------------------------------------
# nonparametric combination


def test_npc_single_column_reduces_to_partial_test():
    rng = np.random.default_rng(21)
    draws = rng.standard_normal((499, 1))
    observed = np.array([1.7])
    result = npc_combine(observed, draws)
    k = np.sum(np.abs(draws[:, 0]) >= abs(observed[0]) - TIE)
    partial = (k + 1) / 500.0
    assert result.partial_p[0] == pytest.approx(partial, abs=1e-12)
    assert result.p_value.value == pytest.approx(partial, abs=2.0 / 500.0)


def test_npc_fisher_beats_its_weakest_partial_on_consonant_signal():
    rng = np.random.default_rng(22)
    draws = rng.standard_normal((999, 3))
    observed = np.array([2.6, 2.4, 2.8])
    given = draws.copy()
    result = npc_combine(observed, draws)
    # The combination ranks in place, but on its own copy of the draws.
    np.testing.assert_array_equal(draws, given)
    assert result.statistic == pytest.approx(-2.0 * np.log(result.partial_p).sum(), rel=1e-12)
    assert result.p_value.value < result.partial_p.max()


def test_npc_validates_shapes():
    draws = np.zeros((10, 2))
    with pytest.raises(ValueError):
        npc_combine(np.zeros(3), draws)
    with pytest.raises(ValueError):
        npc_combine(np.zeros(2), np.zeros(10))
    with pytest.raises(ValueError):
        npc_combine(np.zeros(2), np.zeros((0, 2)))


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
    basis ``q``.  Singular rows and 0/0 rows score 0; they and the perfect
    fits, whose residual sum of squares is at most 1e-12 of the response's,
    are counted."""
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
    return np.where(bad, 0.0, t), int(np.count_nonzero(bad | (rss <= 1e-12 * resp_ss)))


def oracle_p(statistic, draws, mode, tail="two_sided"):
    """The p-value of ``statistic`` against the oracle's null ``draws``."""
    return _pvalue(_exceedances(statistic, draws, tail), draws.shape[0], mode)


def _oracle(data, plan, method):
    """(statistic, null draws, degenerate draws) of ``method`` computed the
    direct way: the plan's whole (draws, units) orbit matrix, each test's
    own projections, no shared draws.  Exchangeability returns the
    observed stratum correlations and the (draws, strata) null matrix."""
    layout, exact = plan.layout, plan.mode == "exact"
    if exact:
        zmat = all_assignments(layout)
        perm = all_within_stratum_permutations(layout)
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


def test_perfect_null_fits_are_degenerate_and_count_as_exceedances():
    # Small integers in strata of 3, 4 and 2 units: one of the 36 assignments
    # and 8 of the 288 outcome permutations fit y exactly with a nonzero
    # treatment coefficient.  Their t is infinite here, so they are
    # degenerate, and they count as exceedances, since no draw can be more
    # extreme.
    data = TrialData.from_arrays(np.repeat([0, 1, 2], [3, 4, 2]), [0, 0, 1, 1, 0, 0, 1, 1, 0],
                                 [3, 3, 2, 0, 0, 2, 0, 0, 3], [3, 1, 3, 2, 0, 2, 0, 1, 3])
    plan = exact_plan(data)
    results = run_trial([data], plan, ["lm_permutation", "manly"])[0]
    for method, degenerate, k, b in (("lm_permutation", 1, 11, 36), ("manly", 8, 96, 288)):
        result = results[method]
        assert (result.degenerate_draws, result.p_value.exceedances,
                result.p_value.draws) == (degenerate, k, b), method
        statistic, draws, counted = _oracle(data, plan, method)
        assert np.count_nonzero(np.isinf(draws)) == counted == degenerate, method
        assert result.p_value == oracle_p(statistic, draws, "exact"), method


# Whether _fwl_t's target and response sums of squares are shared by all
# draws (a float) or per draw, as each test calls it.
FWL_SHAPES = {
    "lm_permutation": (False, True),
    "freedman_lane_manly": (True, False),
    "kennedy": (True, True),
    "per_draw_resp_ss": (False, False),
}


@pytest.mark.parametrize("shape", list(FWL_SHAPES))
def test_fwl_kernel_matches_its_reference_bit_for_bit(shape):
    # Each draw is ordinary, singular (target at most 1e-20 of its raw sum
    # of squares), 0/0 (dot and rss both 0), a perfect fit with a finite t
    # (rss at most 1e-12 of the response's) or one with an infinite t.  Half
    # the inputs have no singular draw, so the kernel divides by the targets
    # as given.
    shared_target, shared_resp = FWL_SHAPES[shape]
    rng = np.random.default_rng(list(FWL_SHAPES).index(shape))
    n, df, raw = 300, 7, 40.0
    degenerate = finite_perfect = unsingular = 0
    for trial in range(60):
        target = rng.uniform(0.1, 10.0, 1 if shared_target else n)
        resp = rng.uniform(0.1, 10.0, 1 if shared_resp else n)
        dot = rng.uniform(-1.0, 1.0, n) * np.sqrt(target * resp)
        kinds = rng.integers(0, 5, n) if trial % 2 else rng.choice([0, 2, 3, 4], n)
        if shared_target and trial % 4 == 1:
            target[:] = 1e-21 * raw
        if shared_resp and trial % 4 == 3:
            resp[:] = 0.0
        full_target, full_resp = np.broadcast_to(target, n), np.broadcast_to(resp, n)
        root = np.sqrt(full_target * full_resp) * np.sign(dot)
        dot = np.select([kinds == 2, kinds == 3, kinds == 4],
                        [0.0, root * math.sqrt(1 - 1e-13), root * (1 + 1e-9)], dot)
        if not shared_target:
            target[kinds == 1] = 1e-21 * raw
        if not shared_resp:
            resp[kinds == 2] = 0.0
        args = [float(v[0]) if shared else v for v, shared in
                ((target, shared_target), (resp, shared_resp))]
        given = dot.copy()
        t, k = hypothesis_tests._fwl_t(dot, args[0], args[1], df, raw)
        t_ref, k_ref = reference_fwl_t(dot, args[0], args[1], df, raw)
        np.testing.assert_array_equal(dot, given)
        assert t.shape == t_ref.shape == (n,)
        np.testing.assert_array_equal(t.view(np.uint64), t_ref.view(np.uint64))
        assert k == k_ref
        degenerate += k
        finite_perfect += int(np.count_nonzero((kinds == 3) & np.isfinite(t) & (t != 0)))
        unsingular += bool(np.all(np.broadcast_to(args[0], n) > 1e-20 * raw))
    assert degenerate and finite_perfect and 0 < unsingular < 60


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


# (mode, seed, stratum sizes, Monte-Carlo draws); 2,500 draws span three blocks.
PARITY_CASES = [
    ("monte_carlo", 1, (9, 11, 10), 400),
    ("monte_carlo", 2, (4, 7, 5, 6), 400),
    ("exact", 3, (4, 5, 4), 400),
    ("monte_carlo", 4, (9, 11, 10), 2500),
    # Four strata of unequal orbits (assignments 2 x 3 x 6 x 10, permutations
    # 2 x 6 x 24 x 120), one of them of 2 units.
    ("exact", 5, (2, 3, 4, 5), 400),
]


@pytest.mark.parametrize("mode,seed,sizes,draws", PARITY_CASES,
                         ids=[f"{m}-{s}" for m, s, _, _ in PARITY_CASES])
def test_engine_matches_explicit_projection_oracle(mode, seed, sizes, draws):
    data = interleaved_trial(seed, sizes)
    plan = PermutationPlan(layout=data.layout, mode=mode, draws=draws, master_seed=seed)
    for method in [m for m in METHODS if m != "ancova"]:
        result = METHODS[method](data, plan)
        statistic, draws, degenerate = _oracle(data, plan, method)
        tail = "right" if method == "stratified_sum_abs" else "two_sided"
        p = oracle_p(statistic, draws, mode, tail)
        # The engine fits in closed form, the oracle by QR: the observed
        # statistics agree to rounding, the p-values exactly.
        assert result.statistic == pytest.approx(statistic, rel=1e-12, abs=0), method
        assert result.p_value == p, method
        assert result.degenerate_draws == degenerate, method
        assert result.null_summary is None, method
    result = exchangeability_diagnostic(data, plan)
    observed, draws, _ = _oracle(data, plan, "exchangeability")
    npc = npc_combine(observed, draws)
    np.testing.assert_allclose(result.null_summary["stratum_correlations"], observed,
                               rtol=1e-12, atol=0)
    assert result.statistic == npc.statistic
    assert result.p_value == npc.p_value
    assert result.per_stratum == tuple(npc.partial_p)


@pytest.mark.parametrize("mode,seed,sizes,draws", PARITY_CASES,
                         ids=[f"{m}-{s}" for m, s, _, _ in PARITY_CASES])
def test_one_battery_call_equals_the_separate_calls(mode, seed, sizes, draws):
    data = interleaved_trial(seed, sizes)
    plan = PermutationPlan(layout=data.layout, mode=mode, draws=draws, master_seed=seed)
    names = list(METHODS) + ["exchangeability"]
    together = run_trial([data], plan, names)[0]
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
        assert both.null_summary == alone.null_summary, name
        if name != "exchangeability":
            assert both.per_stratum is None and both.null_summary is None, name


def test_exact_freedman_lane_reprojects_the_orbits_own_rows(monkeypatch):
    # Strata 0 and 1 share a baseline pattern, constant in stratum 2; the
    # null residuals follow it in stratum 0 and its reverse in stratum 1,
    # plus a little noise.  Draws that reverse one of the two put nearly all
    # of the residuals along the baseline, keep less than _CANCELLED of their
    # sum of squares and are projected explicitly.  An exact orbit's draws
    # are decoded from its strata's rows; the rows projected must be the
    # full enumeration's.  Kennedy's projected sum of squares is the same
    # for every draw, so it never takes that path, but it must match the
    # oracle on the same orbit.  The orbit's 1,152 draws are one sub-grid at
    # the default bound, and sub-grids of 48 draws at a bound of 64, whose
    # draws are decoded within the sub-grid and must map to the same rows.
    rng = np.random.default_rng(83)
    strata = np.repeat([0, 1, 2], (4, 4, 2))
    x = np.array([0.0, 1, 2, 3, 0, 1, 2, 3, 1, 1])
    z = np.array([1, 0, 1, 0, 0, 1, 1, 0, 1, 0], dtype=np.int8)
    pattern = np.array([-1.5, -0.5, 0.5, 1.5, 1.5, 0.5, -0.5, -1.5, 0, 0])
    y = 0.5 * x + strata + pattern + 0.01 * rng.standard_normal(10)
    data = TrialData.from_arrays(strata, z, x, y)
    plan = exact_plan(data)
    seen = []
    rows_of = hypothesis_tests._Block._rows

    def spy(block, rows, draws):
        out = rows_of(block, rows, draws)
        seen.append((rows, draws, out))
        return out

    monkeypatch.setattr(hypothesis_tests._Block, "_rows", spy)
    results = {}
    for method in ("freedman_lane", "kennedy"):
        result = results[method] = METHODS[method](data, plan)
        statistic, draws, degenerate = _oracle(data, plan, method)
        assert result.statistic == pytest.approx(statistic, rel=1e-12, abs=0), method
        assert result.p_value == oracle_p(statistic, draws, "exact"), method
        assert result.degenerate_draws == degenerate, method
    ((rows, redo, out),) = seen
    assert rows == "residuals" and redo.size >= 4
    residuals = hypothesis_tests._Battery(data, plan, ("freedman_lane",)).values(rows)
    perms = all_within_stratum_permutations(data.layout)
    np.testing.assert_array_equal(out, residuals[perms[redo]])

    # Each sub-grid's draws, mapped to the orbit's through its slices of the
    # strata's rows.
    cut = hypothesis_tests._Block.cut
    grid_of_orbit = np.arange(perms.shape[0]).reshape(
        [math.factorial(n) for n in data.layout.sizes])

    def cut_spy(block, grid, replay):
        sub = cut(block, grid, replay)
        sub.grid = grid
        return sub

    def rows_spy(block, rows, draws):
        out = rows_of(block, rows, draws)
        seen.append((rows, grid_of_orbit[block.grid].ravel()[draws], out))
        return out

    monkeypatch.setattr(hypothesis_tests, "_EXACT_BLOCK_DRAWS", 64)
    monkeypatch.setattr(hypothesis_tests._Block, "cut", cut_spy)
    monkeypatch.setattr(hypothesis_tests._Block, "_rows", rows_spy)
    seen.clear()
    result = METHODS["freedman_lane"](data, plan)
    assert result.p_value == results["freedman_lane"].p_value
    assert result.degenerate_draws == results["freedman_lane"].degenerate_draws
    assert len(seen) > 1 and {rows for rows, _, _ in seen} == {"residuals"}
    orbit = np.concatenate([o for _, o, _ in seen])
    np.testing.assert_array_equal(orbit, redo)
    np.testing.assert_array_equal(np.concatenate([out for _, _, out in seen]),
                                  residuals[perms[orbit]])


def _exact_fields(endpoints, plan, names):
    """Every field of each endpoint's results from one run."""
    return [{m: (r.statistic, r.p_value, r.degenerate_draws, r.per_stratum, r.null_summary,
                 r.flags) for m, r in result.items()}
            for result in run_trial(endpoints, plan, names)]


@pytest.mark.parametrize("bound", [1, 7, 64])
def test_exact_results_do_not_depend_on_the_subgrids(bound, monkeypatch):
    # A sub-grid is a contiguous run of the orbit whose products are slices
    # of its strata's whole products, so its null statistics are the ones
    # the whole grid gives, bit for bit, and so is every result: on a
    # contiguous, an interleaved, a 3-stratum and a 4-stratum layout (144
    # permutations and 36 assignments, scored on four grid axes), for every
    # exact test alone and for all of them on two endpoints at once.  With
    # _CANCELLED at 1 every regression draw is projected explicitly, row by
    # row, so it too must not depend on which draws share its sub-grid.
    score = hypothesis_tests._Scored.score

    def spy(scored, block):
        # Each test's nulls, in the order the tests first score a block.
        nulls.setdefault(scored, (scored.method, []))[1].append(scored.null(block)[0])
        score(scored, block)

    monkeypatch.setattr(hypothesis_tests._Scored, "score", spy)
    names = list(METHODS) + ["exchangeability"]
    default = hypothesis_tests._EXACT_BLOCK_DRAWS
    trials = [small_trial(), interleaved_trial(6, (3, 4, 2)), interleaved_trial(7, (3, 3, 4)),
              interleaved_trial(8, (3, 2, 3, 2))]
    for cancelled, data in itertools.product((hypothesis_tests._CANCELLED, 1.0), trials):
        monkeypatch.setattr(hypothesis_tests, "_CANCELLED", cancelled)
        plan = exact_plan(data)
        other = TrialData.from_arrays(data.strata, data.z, data.x, data.y * data.x + data.z)
        runs = {}
        for cut in (default, bound):
            monkeypatch.setattr(hypothesis_tests, "_EXACT_BLOCK_DRAWS", cut)
            nulls = {}
            both = _exact_fields([data, other], plan, names)
            alone = [_exact_fields([data], plan, [name])[0][name] for name in names]
            runs[cut] = both, alone, [(m, np.concatenate(v)) for m, v in nulls.values()]
        (both, alone, null), (both_cut, alone_cut, null_cut) = runs.values()
        assert both_cut == both
        assert alone_cut == alone == [both[0][name] for name in names]
        assert [m for m, _ in null_cut] == [m for m, _ in null]
        for (method, cut_draws), (_, draws) in zip(null_cut, null):
            np.testing.assert_array_equal(cut_draws, draws, err_msg=method)


def test_exact_memory_does_not_grow_with_the_orbit():
    # Orbits of 13,824 and 138,240 within-stratum permutations: scored in
    # sub-grids of at most 8,192 draws, an exact test holds the strata's own
    # small orbits and one sub-grid's per-draw vectors, whatever the orbit.
    peaks = []
    for sizes in ((4, 4, 4), (5, 4, 4, 2)):
        data = interleaved_trial(12, sizes)
        tracemalloc.start()
        try:
            result = METHODS["freedman_lane"](data, exact_plan(data))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert result.p_value.draws == math.prod(math.factorial(n) for n in sizes)
    assert peaks[1] < 1.5 * peaks[0], peaks


def test_exact_memory_is_set_by_the_orbit_not_its_units():
    # 7 + 5 units: 604,800 within-stratum permutations.  Their (orbit, units)
    # index matrix alone is 12 x orbit x 8 bytes; scoring the orbit stratum
    # by stratum, in sub-grids, keeps a few vectors of one sub-grid's draws.
    rng = np.random.default_rng(71)
    strata = np.repeat([0, 1], (7, 5))
    z = np.array([1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0], dtype=np.int8)
    x = rng.standard_normal(12)
    data = TrialData.from_arrays(strata, z, x, x + 0.5 * z + rng.standard_normal(12))
    orbit = 604_800
    tracemalloc.start()
    try:
        result = METHODS["freedman_lane"](data, exact_plan(data))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.p_value.draws == orbit
    assert peak < 12 * orbit * 8, peak / (orbit * 8)


def test_exchangeability_memory_is_within_twice_its_kept_statistics():
    # The 7 + 5-unit orbit above, on two endpoints.  The diagnostic keeps
    # each endpoint's (orbit, strata) null statistics, 9.7 MB, in one array
    # filled sub-grid by sub-grid; the combination ranks and combines one
    # copy of their absolute values in place.
    rng = np.random.default_rng(71)
    strata = np.repeat([0, 1], (7, 5))
    z = np.array([1, 0, 1, 0, 1, 0, 1, 1, 0, 1, 0, 0], dtype=np.int8)
    x = rng.standard_normal(12)
    endpoints = [TrialData.from_arrays(strata, z, x, x + g * z + rng.standard_normal(12))
                 for g in (0.5, 0.0)]
    orbit = 604_800
    kept = len(endpoints) * orbit * 2 * 8
    tracemalloc.start()
    try:
        results = run_trial(endpoints, exact_plan(endpoints[0]),
                            ["freedman_lane", "kennedy", "manly", "exchangeability"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    for result in results:
        assert result["exchangeability"].draws_used == result["manly"].draws_used == orbit
    assert peak <= 2 * kept, peak / kept


def test_draws_used_counts_the_draws_each_statistic_was_scored_on():
    data = small_trial()
    names = list(METHODS)
    for plan in (exact_plan(data), mc_plan(data, draws=2500)):
        results = run_trial([data], plan, names + ["exchangeability"])[0]
        assert results["ancova"].draws_used == 0
        for name, result in results.items():
            if name != "ancova":
                assert result.draws_used == result.p_value.draws > 0, name
    # The first blocks of a plan are a plan of their draws, so a test's count
    # after m blocks says whether stop_at stops it there.  Here some tests
    # stop after one block, some after two and some never.
    prefix = {b: run_trial([data], mc_plan(data, draws=b), names)[0]
              for b in (1024, 2048, 2500)}
    stopped = run_trial([data], mc_plan(data, draws=2500), names, stop_at=100)[0]
    assert stopped["ancova"].draws_used == 0
    used = []
    for name in names[1:]:
        used.append(next((b for b in (1024, 2048)
                          if prefix[b][name].p_value.exceedances >= 100), 2500))
        assert stopped[name].draws_used == used[-1], name
        assert stopped[name].p_value.draws == 2500, name
        if used[-1] == 2500:
            assert stopped[name].p_value == prefix[2500][name].p_value, name
    assert set(used) == {1024, 2048, 2500}


def test_battery_rejects_unknown_tests():
    data = small_trial()
    with pytest.raises(ValueError, match="unknown"):
        run_trial([data], mc_plan(data), ["lm_permutation", "t_test"])


def test_battery_rejects_repeated_tests():
    data = small_trial()
    with pytest.raises(ValueError, match="more than once"):
        run_trial([data], mc_plan(data), ["lm_permutation", "lm_permutation"])


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
            run_trial([data], plan, ["stratified_diff_means", "lm_permutation"])
        alone = run_trial([data], plan, ["stratified_diff_means"])[0]
    diff_means = METHODS["stratified_diff_means"](data, plan)
    assert alone["stratified_diff_means"].p_value == diff_means.p_value


@pytest.mark.parametrize("test", ["lm_permutation", "freedman_lane"])
def test_memory_does_not_grow_with_the_number_of_draws(test):
    # Draws are made and scored in blocks of at most 1,024, so the peak is
    # set by the block and the trial, not by the number of draws.
    rng = np.random.default_rng(61)
    strata = np.repeat([0, 1], 500)
    z = np.tile(np.int8([1, 0]), 500)
    x = rng.standard_normal(1000)
    data = TrialData.from_arrays(strata, z, x, x + 0.1 * z + rng.standard_normal(1000))
    peaks = []
    for draws in (5_000, 20_000):
        tracemalloc.start()
        try:
            METHODS[test](data, mc_plan(data, draws=draws))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.5 * peaks[0], peaks



def test_analysis_holds_one_block_of_draws_at_a_time():
    # 2,048 draws are two blocks.  Each block's within-stratum permutations
    # are a (1,024, 1,000) index array; holding the first block while the
    # second is drawn would take the peak past two of them.
    from stratperm.reporting import TrialDataset, run_analysis

    rng = np.random.default_rng(67)
    strata = np.repeat(["a", "b", "c"], (400, 350, 250))
    z = np.zeros(1000, dtype=np.int8)
    for label in ("a", "b", "c"):
        units = np.nonzero(strata == label)[0]
        z[rng.choice(units, units.size // 2, replace=False)] = 1
    x = {name: rng.standard_normal(1000) for name in ("pain", "sleep")}
    y = {name: x[name] + 0.2 * z + rng.standard_normal(1000) for name in x}
    dataset = TrialDataset.build(strata, z, x, y)
    methods = ("ancova", "stratified_diff_means", "lm_permutation", "freedman_lane")
    one_block = 1024 * 1000 * np.dtype(np.intp).itemsize
    tracemalloc.start()
    try:
        run_analysis(dataset, methods, permutations=2048)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * one_block, peak


def test_replayed_rows_reproject_a_chunked_block(monkeypatch):
    # Strata of 200 and 70 units are drawn in several chunks per block, and
    # a block keeps none of its draws.  With _CANCELLED at 1 every draw is
    # projected explicitly, from rows read by replaying its block: the
    # exceedances must be the unpatched run's and the oracle's.
    data = interleaved_trial(9, (200, 70, 16))
    plan = PermutationPlan(layout=data.layout, draws=2500, master_seed=9)
    methods = ["lm_permutation", "freedman_lane", "manly"]
    plain = run_trial([data], plan, methods)[0]
    redone = []
    rows_of = hypothesis_tests._Block._rows

    def spy(block, rows, draws):
        redone.append(len(draws))
        return rows_of(block, rows, draws)

    monkeypatch.setattr(hypothesis_tests, "_CANCELLED", 1.0)
    monkeypatch.setattr(hypothesis_tests._Block, "_rows", spy)
    replayed = run_trial([data], plan, methods)[0]
    assert redone == [1024, 1024, 1024, 1024, 1024, 1024, 452, 452, 452]
    for method in methods:
        statistic, draws, degenerate = _oracle(data, plan, method)
        p = oracle_p(statistic, draws, plan.mode)
        assert plain[method].p_value == p, method
        assert replayed[method].p_value == p, method
        assert replayed[method].degenerate_draws == plain[method].degenerate_draws == degenerate


def test_replayed_rows_are_the_reference_rows():
    data = interleaved_trial(10, (200, 70, 16))
    plan = PermutationPlan(layout=data.layout, draws=2500, master_seed=10)
    battery = hypothesis_tests._Battery(data, plan, ("lm_permutation", "freedman_lane"))
    zmat = sample_assignments(data.layout, plan.stream(), plan.draws)
    perms = sample_within_stratum_permutations(data.layout, plan.stream(), plan.draws)
    residuals = battery.values("residuals")
    rng = np.random.default_rng(10)
    starts = range(0, plan.draws, 1024)
    for start, (block,) in zip(starts, hypothesis_tests._blocks(plan, [battery]), strict=True):
        picks = rng.choice(min(1024, plan.draws - start), 40, replace=False)
        np.testing.assert_array_equal(block._rows("assignments", picks), zmat[start + picks])
        np.testing.assert_array_equal(block._rows("residuals", picks),
                                      residuals[perms[start + picks]])


def test_memory_is_bounded_in_the_number_of_subjects():
    # 20,000 subjects: one block's (1,024, 20,000) index array alone would
    # take 164 MB.  Drawn and multiplied in chunks of at most 2^16 unit
    # positions, the battery holds one chunk and per-draw vectors at a time.
    rng = np.random.default_rng(73)
    sizes = (9_000, 6_000, 5_000)
    strata = np.repeat(np.arange(3), sizes)
    z = np.concatenate([rng.permutation(np.arange(n) < n // 2) for n in sizes])
    x = rng.standard_normal(strata.size)
    data = TrialData.from_arrays(strata, z.astype(np.int8), x,
                                 x + 0.1 * z + rng.standard_normal(strata.size))
    methods = ["ancova", "stratified_diff_means", "lm_permutation", "freedman_lane",
               "exchangeability"]
    tracemalloc.start()
    try:
        results = run_trial([data], mc_plan(data, draws=1024), methods)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert results["freedman_lane"].p_value.draws == 1024
    assert peak < 16e6, peak
