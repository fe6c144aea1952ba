"""What the fits share: the rank error and the Student-t tail probability.

Every model here has stratum intercepts, so the package fits it in closed
form: the columns are centred within strata once, and each t statistic
follows from a few dot products of the centred columns (Frisch-Waugh-Lovell;
see :mod:`stratperm.hypothesis_tests`).  A column that keeps almost nothing
of its norm once the nuisance columns are projected out makes the design
rank deficient, which surfaces as a :class:`SingularDesignError` naming the
column.  The tests keep a dense-design, pivoted-QR fit as the reference the
closed form is checked against.

The Student-t tail probability is computed here with the standard library's
``math``, as a regularized incomplete beta function (see
:func:`student_t_two_sided_p`), so that numpy is the package's only
dependency.  Against ``scipy.special.stdtr`` it agrees to 1e-12
relative up to 2,000 degrees of freedom and to 1e-10 up to 100,000; the test
suite checks it there and against closed forms that share no code with scipy.
"""

from __future__ import annotations

import math
import sys

import numpy as np

__all__ = [
    "SingularDesignError",
    "student_t_two_sided_p",
]


class SingularDesignError(ArithmeticError):
    """Raised when a design matrix is rank deficient."""


# Smallest positive probability we ever report; keeps p in (0, 1] even when
# the tail underflows for enormous t statistics.
_P_FLOOR = 5e-324

_HALF_LOG_PI = 0.5 * math.log(math.pi)
# The continued fraction stops once a step changes it by at most two ulps.
# It took at most 60 steps for df from 1 to 1e15 and |t| from 1e-3 to 1e3.
_CF_EPS = 2.0 * sys.float_info.epsilon
_CF_MAX_STEPS = 1000
_CF_TINY = 1e-300


def student_t_two_sided_p(t: float, df: int) -> float:
    """Two-sided tail probability of Student's t, 2 * P(T <= -|t|).

    With nu = ``df`` and a = nu/2, the tail is the regularized incomplete
    beta function I_x(a, 1/2) at x = nu / (nu + t^2).  Its prefactor
    x^a (1 - x)^(1/2) / B(a, 1/2) is taken in logs from ``log1p(t^2 / nu)``,
    so t^2 never overflows, and the rest is a continued fraction.  Where that
    fraction would converge slowly, x > (a + 1) / (a + 5/2), the symmetry
    I_x(a, b) = 1 - I_{1-x}(b, a) is used instead.  ``df`` must be a positive
    integer.

    Against ``scipy.special.stdtr`` the result agrees to 1e-12 relative for
    df up to 2,000 and to 1e-10 up to df 100,000.  The larger error at large
    df comes from rounding x near 1 and grows about in proportion to df.
    """
    if not isinstance(df, (int, np.integer)) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df!r}")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("t statistic must be finite")
    if t == 0.0:
        return 1.0
    df = int(df)  # numpy integers would make every step below a numpy scalar
    a = 0.5 * df
    s = abs(t) / math.sqrt(df)
    r = s * s  # t^2 / nu; may overflow to inf, its log below does not
    log_r = 2.0 * math.log(s) if s > 0.0 else -math.inf
    x = 1.0 / (1.0 + r)
    if r <= 1.0:
        log1p_r = math.log1p(r)
        log_x, log_y = -log1p_r, log_r - log1p_r
        y = r / (1.0 + r)
    else:
        log1p_inv = math.log1p(1.0 / r)
        log_x, log_y = -(log_r + log1p_inv), -log1p_inv
        y = 1.0 / (1.0 + 1.0 / r)
    front = math.exp(a * log_x + 0.5 * log_y + _log_gamma_ratio(a) - _HALF_LOG_PI)
    if x < (a + 1.0) / (a + 2.5):
        p = front * _beta_continued_fraction(a, 0.5, x) / a
    else:
        p = 1.0 - 2.0 * front * _beta_continued_fraction(0.5, a, y)
    return min(1.0, max(_P_FLOOR, p))


def _log_gamma_ratio(a: float) -> float:
    """ln Gamma(a + 1/2) - ln Gamma(a).

    Above a = 25 the two ``lgamma`` values are large enough that their
    difference would lose digits, so it comes from the asymptotic series
    1/2 ln a - 1/(8a) + 1/(192a^3) - 1/(640a^5) + 17/(14336a^7), whose next
    term is below 5e-16 there.
    """
    if a < 25.0:
        return math.lgamma(a + 0.5) - math.lgamma(a)
    w = 1.0 / (a * a)
    series = 1.0 / 8.0 - w * (1.0 / 192.0 - w * (1.0 / 640.0 - w * (17.0 / 14336.0)))
    return 0.5 * math.log(a) - series / a


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """The continued fraction of I_x(a, b), by the modified Lentz method.

    I_x(a, b) = x^a (1 - x)^b / (a B(a, b)) times this fraction, which
    converges quickly for x < (a + 1) / (a + b + 2).
    """
    c = 1.0
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
    h = d
    for m in range(1, _CF_MAX_STEPS):
        m2 = 2 * m
        for coef in (m * (b - m) * x / ((a + m2 - 1.0) * (a + m2)),
                     -(a + m) * (a + b + m) * x / ((a + m2) * (a + m2 + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > _CF_TINY else _CF_TINY)
            c = 1.0 + coef / c
            if abs(c) < _CF_TINY:
                c = _CF_TINY
            step = d * c
            h *= step
        if abs(step - 1.0) <= _CF_EPS:
            return h
    raise ArithmeticError(
        f"incomplete beta continued fraction did not converge at x={x!r}"
    )
