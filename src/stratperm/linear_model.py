"""What the fits share: the rank error and the Student-t tail probability.

Every model here has stratum intercepts, so the package fits it in closed
form: the columns are centred within strata once, and each t statistic
follows from a few dot products of the centred columns (Frisch-Waugh-Lovell;
see :mod:`stratperm.hypothesis_tests`).  A column that keeps almost nothing
of its norm once the nuisance columns are projected out makes the design
rank deficient, which surfaces as a :class:`SingularDesignError` naming the
column.  The tests keep a dense-design, pivoted-QR fit as the reference the
closed form is checked against.

The Student-t tail probability is scipy's ``stdtr``, which stays accurate at
the thousands of residual degrees of freedom a large trial has; the test
suite checks it against closed forms that share no code with scipy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import stdtr as _stdtr

__all__ = [
    "SingularDesignError",
    "student_t_two_sided_p",
]


class SingularDesignError(ArithmeticError):
    """Raised when a design matrix is rank deficient."""


# Smallest positive probability we ever report; keeps p in (0, 1] even when
# the tail underflows for enormous t statistics.
_P_FLOOR = 5e-324


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t, 2 * P(T <= -|t|).

    The tail comes from ``scipy.special.stdtr``.  ``df`` must be a positive
    integer.
    """
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t statistic must be finite")
    if t == 0.0:
        return 1.0
    p = 2.0 * float(_stdtr(df, -abs(t)))
    return min(1.0, max(_P_FLOOR, p))
