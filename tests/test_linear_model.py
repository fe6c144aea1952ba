"""Unit tests for the pivoted-QR reference fit and the Student-t tail.

The package fits in closed form; the QR fit in ``reference/least_squares.py``
is what the oracle tests compare it with, so it is checked here against
explicit normal equations solved with numpy.linalg.solve.  The Student-t
tail, which the package computes without scipy, is checked against
closed-form formulas for df=1, df=2 and every even df, against scipy.stats on
a grid and against scipy.special.stdtr on a fine one.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from stratperm.linear_model import SingularDesignError, student_t_two_sided_p

from reference.least_squares import build_design, fit_least_squares, orthonormal_columns

RNG = np.random.default_rng(615243)


def normal_equations(matrix, y):
    return np.linalg.solve(matrix.T @ matrix, matrix.T @ y)


def random_trial(rng, sizes=(6, 5, 7), with_z=True):
    strata = np.repeat(np.arange(len(sizes)), sizes)
    n = strata.size
    x = rng.standard_normal(n)
    z = None
    if with_z:
        z = np.zeros(n)
        start = 0
        for size in sizes:
            pick = start + rng.choice(size, size=size // 2, replace=False)
            z[pick] = 1.0
            start += size
    y = rng.standard_normal(n)
    return strata, x, z, y


# ---------------------------------------------------------------------------
# design construction


def test_build_design_shape_and_columns():
    strata = np.array(["b", "a", "b", "a", "b", "a"])
    x = np.arange(6.0)
    z = np.array([1.0, 0.0, 0.0, 1.0, 1.0, 0.0])
    design = build_design(strata, x, z)
    assert design.matrix.shape == (6, 4)
    assert design.columns == ("stratum[a]", "stratum[b]", "baseline", "treatment")
    assert design.treatment_column == 3
    # dummies are indicators for the sorted stratum labels
    np.testing.assert_array_equal(design.matrix[:, 0], [0, 1, 0, 1, 0, 1])
    np.testing.assert_array_equal(design.matrix[:, 1], [1, 0, 1, 0, 1, 0])
    np.testing.assert_array_equal(design.matrix[:, 2], x)
    np.testing.assert_array_equal(design.matrix[:, 3], z)


def test_build_design_without_treatment_is_null_design():
    strata = np.array([0, 0, 1, 1])
    design = build_design(strata, np.array([1.0, 2.0, 3.0, 4.0]))
    assert design.treatment_column is None
    assert design.matrix.shape == (4, 3)


def test_build_design_rejects_singleton_stratum():
    strata = np.array([0, 0, 1])
    with pytest.raises(ValueError, match="fewer than 2 units"):
        build_design(strata, np.zeros(3))


def test_build_design_rejects_length_mismatch():
    with pytest.raises(ValueError):
        build_design(np.array([0, 0, 1, 1]), np.zeros(3))


# ---------------------------------------------------------------------------
# least squares against explicit normal equations


def test_coefficients_match_normal_equations_on_random_fixtures():
    rng = np.random.default_rng(90125)
    for _ in range(50):
        sizes = tuple(rng.integers(4, 9, size=rng.integers(2, 5)))
        strata, x, z, y = random_trial(rng, sizes)
        design = build_design(strata, x, z)
        fit = fit_least_squares(design, y)
        expected = normal_equations(design.matrix, y)
        np.testing.assert_allclose(fit.coefficients, expected, atol=1e-8)
        np.testing.assert_allclose(
            fit.residuals, y - design.matrix @ expected, atol=1e-8
        )


def test_treatment_t_matches_textbook_construction():
    rng = np.random.default_rng(777)
    strata, x, z, y = random_trial(rng, (8, 8))
    design = build_design(strata, x, z)
    fit = fit_least_squares(design, y)

    m = design.matrix
    coef = normal_equations(m, y)
    resid = y - m @ coef
    df = m.shape[0] - m.shape[1]
    sigma2 = resid @ resid / df
    cov = sigma2 * np.linalg.inv(m.T @ m)
    t_ref = coef[-1] / math.sqrt(cov[-1, -1])

    assert fit.df == df
    assert fit.treatment_t == pytest.approx(t_ref, abs=1e-10)
    assert fit.treatment_se == pytest.approx(math.sqrt(cov[-1, -1]), abs=1e-10)


def test_dependent_column_raises_and_names_a_culprit():
    strata = np.array([0, 0, 0, 1, 1, 1])
    x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    z = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    design = build_design(strata, x, z)
    # make treatment an exact linear combination of strata columns
    broken = design.matrix.copy()
    broken[:, 3] = broken[:, 0] + broken[:, 1]
    bad = type(design)(
        matrix=broken,
        columns=design.columns,
        n_strata=design.n_strata,
        treatment_column=design.treatment_column,
    )
    with pytest.raises(SingularDesignError, match="rank deficient") as info:
        fit_least_squares(bad, np.arange(6.0))
    named = str(info.value)
    assert any(col in named for col in ("stratum[0]", "stratum[1]", "treatment"))


def test_perfect_fit_is_degenerate_not_an_error():
    strata = np.array([0, 0, 0, 1, 1, 1])
    x = np.array([1.0, 2.0, 3.0, 1.0, 2.0, 4.0])
    z = np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
    design = build_design(strata, x, z)
    y = 2.0 * x + z + np.where(strata == 0, 0.5, -0.25)
    fit = fit_least_squares(design, y)
    assert fit.degenerate
    assert fit.treatment_t is None
    assert fit.treatment_se == 0.0
    assert fit.treatment_coef == pytest.approx(1.0, abs=1e-9)


def test_orthonormal_columns_projects_exactly():
    rng = np.random.default_rng(31415)
    strata, x, _, y = random_trial(rng, (6, 6), with_z=False)
    design = build_design(strata, x)
    q = orthonormal_columns(design.matrix, design.columns)
    np.testing.assert_allclose(q.T @ q, np.eye(q.shape[1]), atol=1e-12)
    proj = q @ (q.T @ y)
    fit = fit_least_squares(design, y)
    np.testing.assert_allclose(proj, fit.fitted, atol=1e-10)


# ---------------------------------------------------------------------------
# Student-t tail probabilities


def test_t_pvalue_df1_closed_form():
    for t in np.arange(0.1, 5.05, 0.1):
        expected = 1.0 - (2.0 / math.pi) * math.atan(t)
        assert student_t_two_sided_p(t, 1) == pytest.approx(expected, abs=1e-8)


def test_t_pvalue_df2_closed_form():
    for t in np.arange(0.1, 5.05, 0.1):
        expected = 1.0 - t / math.sqrt(2.0 + t * t)
        assert student_t_two_sided_p(t, 2) == pytest.approx(expected, abs=1e-8)


def even_df_two_sided_p(t, nu):
    """P(|T| >= t) for even nu: 1 - sin(theta) * sum_{k < nu/2} c_k cos^2k(theta),
    with theta = atan(t / sqrt(nu)) and c_k = (2k-1)!! / (2k)!!."""
    theta = math.atan(t / math.sqrt(nu))
    cos2 = math.cos(theta) ** 2
    term, terms = 1.0, [1.0]
    for k in range(1, nu // 2):
        term *= (2 * k - 1) / (2 * k) * cos2
        terms.append(term)
    return 1.0 - math.sin(theta) * math.fsum(terms)


@pytest.mark.parametrize("nu", [44, 1994, 100_000])
def test_t_pvalue_large_even_df_closed_form(nu):
    # Large trials fit with thousands of residual degrees of freedom.
    for t in np.arange(0.1, 4.05, 0.1):
        expected = even_df_two_sided_p(float(t), nu)
        assert student_t_two_sided_p(t, nu) == pytest.approx(expected, rel=0, abs=5e-12)


def test_t_pvalue_center_and_symmetry():
    assert student_t_two_sided_p(0.0, 7) == 1.0
    for t in (0.3, 1.7, 4.2):
        assert student_t_two_sided_p(t, 11) == student_t_two_sided_p(-t, 11)


def test_t_pvalue_matches_scipy_grid():
    for df in (1, 2, 3, 10, 43, 120):
        for t in (0.05, 0.5, 1.0, 1.96, 2.5, 4.0, 8.0):
            expected = 2.0 * stats.t.sf(t, df)
            assert student_t_two_sided_p(t, df) == pytest.approx(
                expected, rel=1e-10, abs=1e-12
            )


def test_t_pvalue_matches_scipy_stdtr_on_a_fine_grid():
    # The tail is computed without scipy; scipy's stdtr is the reference.
    from scipy.special import stdtr

    ts = np.logspace(-3, math.log10(60.0), 6000)
    for df in [*range(1, 201), 499, 1994, 10**4, 10**5]:
        got = np.array([student_t_two_sided_p(t, df) for t in ts])
        assert np.all((got > 0.0) & (got <= 1.0)), df
        expected = 2.0 * stdtr(df, -ts)
        kept = expected > 1e-300
        rel = np.abs(got[kept] - expected[kept]) / expected[kept]
        worst = int(np.argmax(rel))
        bound = 1e-12 if df <= 2000 else 1e-10
        assert rel[worst] <= bound, (df, ts[kept][worst], rel[worst])
    # t^2 overflows and t^2 / df underflows, but the tail is still exact.
    assert student_t_two_sided_p(1e200, 1) == pytest.approx(2.0 / (math.pi * 1e200),
                                                            rel=1e-12)
    assert student_t_two_sided_p(5e-324, 10**6) == 1.0


def test_t_pvalue_extreme_tail_is_tiny_but_positive():
    p = student_t_two_sided_p(60.0, 40)
    assert 0.0 < p < 1e-30


def test_t_pvalue_rejects_bad_df():
    with pytest.raises(ValueError):
        student_t_two_sided_p(1.0, 0)


# ---------------------------------------------------------------------------
# properties


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_residuals_orthogonal_to_design(seed):
    rng = np.random.default_rng(seed)
    strata, x, z, y = random_trial(rng, (5, 6, 5))
    design = build_design(strata, x, z)
    fit = fit_least_squares(design, y)
    gradient = design.matrix.T @ fit.residuals
    np.testing.assert_allclose(gradient, 0.0, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(-50.0, 50.0))
def test_outcome_shift_moves_only_intercepts(seed, shift):
    rng = np.random.default_rng(seed)
    strata, x, z, y = random_trial(rng, (5, 5))
    design = build_design(strata, x, z)
    base = fit_least_squares(design, y)
    moved = fit_least_squares(design, y + shift)
    assert moved.treatment_coef == pytest.approx(base.treatment_coef, abs=1e-8)
    np.testing.assert_allclose(
        moved.coefficients[:2], base.coefficients[:2] + shift, atol=1e-8
    )


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.01, 100.0))
def test_outcome_scale_scales_t_invariantly(seed, scale):
    rng = np.random.default_rng(seed)
    strata, x, z, y = random_trial(rng, (6, 6))
    design = build_design(strata, x, z)
    base = fit_least_squares(design, y)
    scaled = fit_least_squares(design, y * scale)
    assert scaled.treatment_coef == pytest.approx(
        base.treatment_coef * scale, rel=1e-8, abs=1e-10
    )
    if not (base.degenerate or scaled.degenerate):
        assert scaled.treatment_t == pytest.approx(base.treatment_t, rel=1e-6)
