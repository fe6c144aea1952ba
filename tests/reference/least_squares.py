"""Least squares with stratum intercepts by pivoted QR: the tests' reference.

The package fits its models in closed form from columns centred within
strata (``stratperm.hypothesis_tests``).  This module keeps the explicit
route, a dense design of stratum dummies, baseline and treatment fitted by
column-pivoted QR, so that the oracle tests can check the closed form
against an independent construction.  Rank problems surface as the
package's :class:`~stratperm.linear_model.SingularDesignError`, naming the
offending column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import qr as _qr
from scipy.linalg import solve_triangular as _solve_triangular

from stratperm.linear_model import SingularDesignError

# A pivot is negligible when it falls below this fraction of the largest one.
_PIVOT_RTOL = 1e-10


@dataclass(frozen=True, eq=False)
class DesignMatrix:
    """A dense design, its column names, and which column is the target.

    ``treatment_column`` indexes the column whose coefficient, standard error
    and t statistic :func:`fit_least_squares` reports; ``None`` means the fit
    is a nuisance-only (null) fit.
    """

    matrix: np.ndarray
    columns: tuple[str, ...]
    n_strata: int
    treatment_column: int | None = None

    @property
    def n_units(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_columns(self) -> int:
        return self.matrix.shape[1]


@dataclass(frozen=True, eq=False)
class LeastSquaresFit:
    """Coefficients and residual summaries from one least-squares fit.

    ``treatment_t`` is ``None`` either when the design had no treatment column
    or when the residual variance is numerically zero (``degenerate`` is True
    in the latter case and the t statistic is undefined).
    """

    coefficients: np.ndarray
    fitted: np.ndarray
    residuals: np.ndarray
    rss: float
    df: int
    sigma2: float
    columns: tuple[str, ...]
    treatment_coef: float | None = None
    treatment_se: float | None = None
    treatment_t: float | None = None
    degenerate: bool = False


def build_design(strata, x, z=None) -> DesignMatrix:
    """Assemble the ANCOVA design: stratum dummies, baseline, optional treatment.

    Columns are ordered as stratum indicators (one per stratum, labels in
    sorted order, no global intercept), then ``baseline``, then optionally
    ``treatment``, whose index the returned object records.
    """
    strata = np.asarray(strata)
    x = np.asarray(x, dtype=float)
    if strata.ndim != 1 or x.ndim != 1 or strata.shape[0] != x.shape[0]:
        raise ValueError("strata and x must be one-dimensional and equal length")
    n = strata.shape[0]
    if n == 0:
        raise ValueError("empty data: no units")
    if not np.all(np.isfinite(x)):
        raise ValueError("baseline covariate contains non-finite values")

    labels, codes = np.unique(strata, return_inverse=True)
    counts = np.bincount(codes)
    if counts.min() < 2:
        small = labels[int(np.argmin(counts))]
        raise ValueError(f"stratum '{small}' has fewer than 2 units")

    cols = [f"stratum[{label}]" for label in labels]
    parts = [np.equal.outer(codes, np.arange(labels.size)).astype(float), x[:, None]]
    cols.append("baseline")
    treatment_column = None
    if z is not None:
        z = np.asarray(z)
        if z.shape != (n,):
            raise ValueError("z must be one-dimensional and match strata length")
        if not np.all(np.isin(np.unique(z), (0, 1))):
            raise ValueError("treatment indicator must contain only 0 and 1")
        parts.append(z.astype(float)[:, None])
        treatment_column = len(cols)
        cols.append("treatment")

    return DesignMatrix(
        matrix=np.hstack(parts),
        columns=tuple(cols),
        n_strata=int(labels.size),
        treatment_column=treatment_column,
    )


def _pivoted_qr(matrix: np.ndarray, columns: tuple[str, ...]):
    """Economy pivoted QR with a rank check; names the dependent column."""
    q, r, piv = _qr(matrix, mode="economic", pivoting=True)
    diag = np.abs(np.diag(r))
    largest = diag[0] if diag.size else 0.0
    if largest == 0.0:
        raise SingularDesignError(
            f"design is rank deficient: column '{columns[piv[0]]}' is zero"
        )
    deficient = np.nonzero(diag <= _PIVOT_RTOL * largest)[0]
    if deficient.size:
        name = columns[piv[deficient[0]]]
        raise SingularDesignError(
            f"design is rank deficient: column '{name}' is linearly dependent "
            "on the others"
        )
    return q, r, piv


def orthonormal_columns(matrix: np.ndarray, columns: tuple[str, ...]) -> np.ndarray:
    """Orthonormal basis Q for the column span, with the same rank checking
    as :func:`fit_least_squares`."""
    q, _, _ = _pivoted_qr(np.asarray(matrix, dtype=float), tuple(columns))
    return q


def fit_least_squares(design: DesignMatrix, y) -> LeastSquaresFit:
    """Fit ``y`` on the design by pivoted QR.

    Reports the treatment column's coefficient, standard error and t statistic
    when the design has one.  Raises :class:`SingularDesignError` on rank
    deficiency and :class:`ValueError` when there are no residual degrees of
    freedom.  A numerically zero residual variance is flagged as degenerate:
    the coefficient is still reported but ``treatment_se`` is 0 and
    ``treatment_t`` is ``None``.
    """
    y = np.asarray(y, dtype=float)
    a = design.matrix
    n, k = a.shape
    if y.shape != (n,):
        raise ValueError("response length does not match design")
    if not np.all(np.isfinite(y)):
        raise ValueError("response contains non-finite values")
    if n <= k:
        raise ValueError(f"need more units ({n}) than design columns ({k})")

    q, r, piv = _pivoted_qr(a, design.columns)
    beta = np.empty(k)
    beta[piv] = _solve_triangular(r, q.T @ y, lower=False)

    fitted = a @ beta
    residuals = y - fitted
    rss = float(residuals @ residuals)
    df = n - k
    sigma2 = rss / df

    # Residual variance indistinguishable from zero: the t statistic is 0/0.
    scale = max(1.0, float(np.linalg.norm(y)))
    degenerate = rss <= (1e-12 * scale) ** 2

    treatment_coef = treatment_se = treatment_t = None
    t_col = design.treatment_column
    if t_col is not None:
        treatment_coef = float(beta[t_col])
        # (X'X)^{-1}_tt via the pivoted factor: X P = Q R.
        pos = int(np.nonzero(piv == t_col)[0][0])
        e = np.zeros(k)
        e[pos] = 1.0
        w = _solve_triangular(r, e, lower=False, trans="T")
        if degenerate:
            treatment_se = 0.0
        else:
            treatment_se = math.sqrt(sigma2 * float(w @ w))
            treatment_t = treatment_coef / treatment_se

    return LeastSquaresFit(
        coefficients=beta,
        fitted=fitted,
        residuals=residuals,
        rss=rss,
        df=df,
        sigma2=sigma2,
        columns=design.columns,
        treatment_coef=treatment_coef,
        treatment_se=treatment_se,
        treatment_t=treatment_t,
        degenerate=degenerate,
    )
