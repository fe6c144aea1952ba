"""The Frisch-Waugh-Lovell t kernel as first written: the tests' reference.

The package's ``_fwl_t`` builds its pieces in place, by the same
floating-point operations in the same order; this copy keeps the
``np.where`` selects, so the tests can require bit-identical t statistics
and equal degenerate counts.  It imports nothing from the
package.
"""

import numpy as np

# A null fit is perfect when its residual sum of squares, a difference of
# squares, is at most this share of the response's: its rounding is then noise.
_PERFECT_FIT = 1e-12


def _fwl_t(dot, target_ss, resp_ss, df, target_raw_ss):
    """t statistics from Frisch-Waugh-Lovell pieces, one per draw.

    dot           target . response after projecting out nuisance columns
    target_ss     squared norm of the projected target
    resp_ss       squared norm of the projected response
    target_raw_ss squared norm of the unprojected target (sets the scale for
                  declaring a draw singular)

    Each piece is per draw or shared by all draws.  A draw is degenerate
    when its target is numerically inside the nuisance span or its fit is
    perfect: a residual sum of squares of at most ``_PERFECT_FIT`` of the
    response's.  One whose target is in the span, or whose t is 0/0, scores
    0; any other perfect fit keeps its t, +/-inf or near it, which is as
    extreme as a draw can be.
    """
    ok = target_ss > 1e-20 * np.maximum(target_raw_ss, 1e-300)
    safe = np.where(ok, target_ss, 1.0)
    gamma = np.where(ok, dot / safe, 0.0)
    rss = np.maximum(resp_ss - dot * dot / safe, 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = gamma * np.sqrt(df * safe / rss)
    bad = ~ok | np.isnan(t)
    degenerate = int(np.count_nonzero(bad | (rss <= _PERFECT_FIT * resp_ss)))
    if np.any(bad):
        t = np.where(bad, 0.0, t)
    return t, degenerate
