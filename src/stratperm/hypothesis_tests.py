"""The test battery for stratified two-arm trials with a baseline covariate.

One parametric test (ANCOVA with stratum intercepts, its p-value from
Student's t) and a family of permutation strategies that differ only in
*what* is shuffled under the null:

* assignment tests re-randomize the treatment labels within strata
  (difference in means, sum of absolute stratum differences, change scores,
  and the permutation version of the linear-model t statistic);
* residual/outcome tests keep the assignment and permute a vector within
  strata (Freedman-Lane permutes null-model residuals, Kennedy regresses
  treatment on permuted residuals, Manly permutes the outcomes).

All permutation tests run on one (data, plan) share one null engine.  It
draws the plan's orbit once, one block of at most 1,024 draws at a time,
each stratum's part of a block in row chunks of at most 2^16 unit positions
(:func:`~stratperm.randomization.orbit_blocks`).  As each chunk is drawn it
is multiplied by the columns the requested tests need, one matrix product
per stratum and kind of row, for every endpoint, and then dropped.  Each
test is split into its observed side and a null that scores one block from
those products; every null statistic is a sum of per-stratum products, so
nothing of size (draws x units) lives past one chunk, and beyond one block
only the null statistics are kept.  An exact orbit is one crossed block per
kind, each stratum's orbit listed once as one chunk: its per-stratum products
are (columns, orbit_j), multiplied once, and the grid of their combinations
is scored in contiguous sub-grids of at most 8,192 draws (:func:`_subgrids`).
Products are stored columns first, one contiguous row of draws per column.
A block lays each stratum's products along its grid of draws, behind the
column axis: one axis for a Monte-Carlo block and one per stratum for a
sub-grid, whose products are slices of the whole strata's.  It adds them
stratum after stratum by broadcasting, in loops that run along the draws.
Every exact null statistic is thus the one the whole grid would give, and
exact memory is O(8,192 x columns) beyond the strata's own orbits, whatever
the orbit's size.

One loop, :func:`run_trial`, walks the orbit for several endpoints of one
trial and counts each test's exceedances block by block (with ``stop_at``,
until each decision at a given alpha is fixed, for power studies); only the
exchangeability diagnostic keeps its null statistics, for their
nonparametric combination, in one (draws x strata) array filled block by
block, whose absolute values are copied once and ranked and combined in
place (:func:`npc_combine`).  Ties and the add-one rule are decided here
too, by :func:`_exceedances` and :func:`_pvalue`.

The regression tests' nuisance columns are the stratum dummies and the
baseline, and every fit is made in closed form (Frisch-Waugh-Lovell).  x, y
and z are centred within strata once per endpoint, from per-stratum sums;
with u the centred baseline at unit length, y_t and z_t are the centred y
and z with their u component removed.  y_t is the null model's residual
vector; ANCOVA's t is that of y_t regressed on z_t, and Kennedy's that of
the centred z regressed on y_t.  A permuted vector v has projected sum of
squares c - (u.v)^2, where c is its centred sum of squares, which
permutation within strata leaves unchanged, and its cross product with the
projected fixed side is one dot product.  A draw whose difference keeps
less than ``_CANCELLED`` of c may have lost its digits to cancellation and
is projected explicitly, from its rows read again by replaying its block (a
sub-grid's replay gives each stratum's rows of its draws in order, as a
Monte-Carlo block's does), row by row, so singular draws still score 0 and
no draw depends on which others are projected with it.

Rank checks compare a column with its own norm, so they do not depend on
the data's units.  The test suite checks the engine against full refits, a
pivoted-QR reference fit and an explicit-projection oracle.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .linear_model import SingularDesignError, student_t_two_sided_p
from .randomization import (PermutationPlan, StratumLayout, count_within_stratum_permutations,
                            orbit_blocks)

__all__ = [
    "TrialData",
    "PValue",
    "TestResult",
    "NpcResult",
    "npc_combine",
    "exchangeability_diagnostic",
    "run_trial",
    "METHODS",
]

# Absolute tie tolerance when comparing permuted statistics to the observed
# one; draws this close to the observed value count as exceedances.
TIE_TOLERANCE = 1e-12


@dataclass(frozen=True, eq=False)
class TrialData:
    """One endpoint's worth of a stratified trial, in canonical form.

    ``strata`` holds consecutive integer codes; ``stratum_labels[code]`` is
    the original label, and ``layout`` the trial's stratum sizes and treated
    counts.  Build instances with :meth:`from_arrays`, which validates and
    canonicalizes.
    """

    strata: np.ndarray
    z: np.ndarray
    x: np.ndarray
    y: np.ndarray
    stratum_labels: tuple
    layout: StratumLayout

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
        sizes = np.bincount(codes)
        treated = np.bincount(codes, weights=z).astype(int)
        one_arm = np.flatnonzero((treated == 0) | (treated == sizes))
        if one_arm.size:
            raise ValueError(f"stratum {labels[one_arm[0]].item()!r} lacks units in both arms")
        return cls(
            strata=codes,
            z=z,
            x=x,
            y=y,
            stratum_labels=tuple(labels.tolist()),
            layout=StratumLayout(sizes=tuple(sizes.tolist()),
                                 treated=tuple(treated.tolist()), codes=codes),
        )

    @property
    def n_units(self) -> int:
        return int(self.strata.shape[0])

    @property
    def n_strata(self) -> int:
        return len(self.stratum_labels)


@dataclass(frozen=True)
class PValue:
    """A p-value plus how it was computed.

    monte_carlo: value = (exceedances + 1) / (draws + 1), observed excluded
    from the draws.  exact: value = exceedances / draws over the full orbit,
    observed included (so the value is never 0).  analytic: from a reference
    distribution; exceedances and draws are 0.
    """

    value: float
    exceedances: int
    draws: int
    mode: str

    def __post_init__(self):
        if not 0.0 < self.value <= 1.0:
            raise ValueError(f"p-value {self.value} outside (0, 1]")


@dataclass(frozen=True, eq=False)
class TestResult:
    """Outcome of one test: the statistic, its p-value, and diagnostics.

    ``draws_used`` counts the draws the statistic was scored on: the orbit or
    the plan's B, fewer only for a test :func:`run_trial` stopped, 0 for
    ANCOVA.  ``degenerate_draws`` counts permuted fits that were singular or
    perfect (see :func:`_fwl_t`): a singular or 0/0 fit scores 0, and a
    perfect one keeps its t, infinite or near it, which counts as an
    exceedance.  ``per_stratum`` holds the exchangeability diagnostic's
    partial p-values and ``null_summary`` its stratum correlations; both are
    None for every other test.
    """

    method: str
    statistic: float
    p_value: PValue
    df: int | None = None
    per_stratum: tuple | None = None
    null_summary: dict | None = None
    flags: tuple[str, ...] = ()
    degenerate_draws: int = 0
    draws_used: int = 0


@dataclass(frozen=True, eq=False)
class NpcResult:
    """Fisher's nonparametric combination of dependent permutation tests."""

    statistic: float
    p_value: PValue
    partial_p: np.ndarray


# ---------------------------------------------------------------------------
# shared machinery


def _check_names(names, known) -> list:
    """``names`` as a list, after checking it is not empty, each is in
    ``known`` and none repeats."""
    names = list(names)
    if not names:
        raise ValueError(f"no tests named; choose from {sorted(known)}")
    unknown = [m for m in names if m not in known]
    if unknown:
        raise ValueError(f"unknown tests {unknown}; choose from {sorted(known)}")
    repeated = sorted({m for m in names if names.count(m) > 1})
    if repeated:
        raise ValueError(f"tests named more than once: {repeated}")
    return names


def _exceedances(observed: float, draws: np.ndarray, tail: str,
                 tie_tolerance: float = TIE_TOLERANCE) -> int:
    """Number of draws at least as extreme as ``observed``: two_sided
    compares |draw| with |observed|, right compares signed values.  Draws
    within ``tie_tolerance`` of the observed statistic count as exceedances,
    so ties are resolved conservatively."""
    observed = float(observed)
    if not math.isfinite(observed):
        raise ValueError("observed statistic must be finite")
    if tail == "two_sided":
        return int(np.count_nonzero(np.abs(draws) >= abs(observed) - tie_tolerance))
    if tail == "right":
        return int(np.count_nonzero(draws >= observed - tie_tolerance))
    raise ValueError(f"unknown tail {tail!r}")


def _pvalue(k: int, b: int, mode: str) -> PValue:
    """The p-value of k exceedances among b draws: the add-one rule over a
    sample of the orbit, k / b over the whole orbit (see :class:`PValue`)."""
    if mode == "monte_carlo":
        return PValue(value=(k + 1) / (b + 1), exceedances=k, draws=b, mode=mode)
    if mode == "exact":
        if k == 0:
            raise ValueError("exact mode requires the observed statistic's orbit element "
                             "among the draws; got zero exceedances")
        return PValue(value=k / b, exceedances=k, draws=b, mode=mode)
    raise ValueError(f"unknown mode {mode!r}")


def _fit_t(target, resp, df, resp_norm):
    """One observed fit's t and flags, by Frisch-Waugh-Lovell: ``resp`` on
    ``target``, both with the nuisance columns projected out.

    The residual sum of squares is summed from the residual vector, not
    taken as a difference of squares, so an exact fit reads 0 to rounding.
    At most (``_RSS_RTOL`` * the response's norm)^2 it is numerically zero:
    t is 0/0, reported as 0 and flagged.
    """
    target_ss = float(target @ target)
    gamma = float(target @ resp) / target_ss
    resid = resp - gamma * target
    rss = float(resid @ resid)
    if rss <= (_RSS_RTOL * resp_norm) ** 2:
        return 0.0, ("degenerate_residual_variance",)
    return gamma * math.sqrt(df * target_ss / rss), ()


def _t_tie(t, df) -> float:
    """How close a null t must come to the observed t to tie with it.  A
    draw's t is made from dot products, its residual sum of squares a
    difference of squares, so its rounding error grows as |t| (1 + t^2/df):
    TIE_TOLERANCE grows with it, and a draw equal to the observed one in
    exact arithmetic ties with it however large t is."""
    return TIE_TOLERANCE * max(1.0, abs(t)) * (1.0 + t * t / df)


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

    The pieces are built in place, by the same operations in the same order
    as the ``np.where`` form of ``tests/reference/fwl.py``.  A singular
    draw divides by 1 instead of its target, and its gamma and rss are then
    set to 0, so that it scores 0/0 like the perfect fits it is counted with.
    t is searched for 0/0 only when some draw is degenerate: a 0/0 t has
    rss == 0.
    """
    ok = target_ss > 1e-20 * np.maximum(target_raw_ss, 1e-300)
    singular = not ok.all()
    safe = np.where(ok, target_ss, 1.0) if singular else target_ss
    gamma = dot / safe
    rss = np.multiply(dot, dot)
    rss /= safe
    np.subtract(resp_ss, rss, out=rss)
    np.maximum(rss, 0.0, out=rss)
    if singular:
        gamma[~ok] = 0.0
        rss[~ok] = 0.0
    t = df * safe
    with np.errstate(divide="ignore", invalid="ignore"):
        t /= rss  # a new array when safe is shared by all draws
        np.sqrt(t, out=t)
        t *= gamma
    degenerate = int(np.count_nonzero(rss <= _PERFECT_FIT * resp_ss))
    if degenerate:
        t[np.isnan(t)] = 0.0
    return t, degenerate


# ---------------------------------------------------------------------------
# the null engine

# The rows a test's columns meet: the orbit's assignments, or the null-model
# residuals or the outcomes reordered by its within-stratum permutations.
_ASSIGNMENTS, _RESIDUALS, _OUTCOMES = "assignments", "residuals", "outcomes"

# An exact orbit is scored in contiguous sub-grids of at most this many draws.
_EXACT_BLOCK_DRAWS = 1 << 13

# A draw whose projected sum of squares keeps less than this share of its
# centred sum of squares is projected explicitly (see the module docstring).
_CANCELLED = 1e-3

# A column that keeps at most this share of its norm once the nuisance
# columns are projected out lies in their span: the design is singular.
_RANK_RTOL = 1e-10
# A fit's residual variance is numerically zero when its residual norm is at
# most this share of the response's norm.
_RSS_RTOL = 1e-12
# A null fit is perfect when its residual sum of squares, a difference of
# squares, is at most this share of the response's: its rounding is then noise.
_PERFECT_FIT = 1e-12

# Per kind of row, the column holding the vector it re-randomizes or
# reorders, centred within strata.
_CENTRED = {_ASSIGNMENTS: "zc", _RESIDUALS: "y_t", _OUTCOMES: "yc"}


def _rank_error(column: str, span: str) -> SingularDesignError:
    return SingularDesignError(
        f"design is rank deficient: column '{column}' is linearly dependent on {span}")


class _Battery:
    """What the tests run on one (data, plan) share.

    ``needs`` maps each kind of row to the columns the tests multiply into
    it.  Fits and columns are made on first use, and every test's observed
    side is scored before anything is drawn, so a test that fails on the
    observed data fails before the orbit is sampled.  Without a plan only
    the observed sides can be scored.
    """

    def __init__(self, data: TrialData, plan: PermutationPlan | None = None, methods=()):
        self.needs: dict = {}
        for method in methods:
            for rows, columns in _TESTS[method][1].items():
                self.needs.setdefault(rows, {}).update(dict.fromkeys(columns))
        if plan is None and self.needs:
            raise ValueError("permutation tests need a permutation plan")
        # Equal codes give equal stratum sizes.
        if plan is not None and (plan.layout.treated != data.layout.treated
                                 or not np.array_equal(plan.layout.codes, data.layout.codes)):
            raise ValueError("plan layout does not match the trial data")
        self.data = data
        self.plan = plan
        self._columns: dict = {}

    @cached_property
    def positions(self) -> list:
        return self.plan.layout.stratum_positions()

    @cached_property
    def sizes(self) -> np.ndarray:
        return self.sums(None)

    def sums(self, w) -> np.ndarray:
        """Per-stratum sums of w (counts when w is None)."""
        return np.bincount(self.data.strata, weights=w, minlength=self.data.n_strata)

    def _centre(self, v) -> np.ndarray:
        """v, or each row of v, centred within strata.  The stratum means
        are taken out twice: the second pass removes what rounding left of
        the first, so an offset far beyond v's spread leaves no trace."""
        out = np.array(v, dtype=float)
        rows = out.reshape(-1, out.shape[-1])
        strata, n_strata = self.data.strata, self.data.n_strata
        group = (strata + n_strata * np.arange(len(rows))[:, None]).ravel()
        for _ in range(2):
            sums = np.bincount(group, weights=rows.ravel(), minlength=len(rows) * n_strata)
            rows -= (sums.reshape(-1, n_strata) / self.sizes)[:, strata]
        return out

    def _project(self, v, with_x: bool = True) -> np.ndarray:
        """Each row of v with the stratum dummies projected out (centred
        within strata) and, if ``with_x``, the baseline too.  Products are
        taken row by row (``einsum``): a BLAS product may round a row
        differently when other rows share the call."""
        out = self._centre(v)
        if with_x:
            u = self.column("u")
            out -= np.multiply.outer(np.einsum("ij,j->i", out, u), u)
        return out

    def column(self, name: str) -> np.ndarray:
        """y; change (y - x); xc, yc and zc (x, y and z centred within
        strata); u (xc at unit length); y_t and z_t (yc and zc with their u
        component removed: the null model's residuals, and the treatment
        with the null model projected out)."""
        if name not in self._columns:
            d = self.data
            self._columns[name] = {
                "y": lambda: d.y,
                "change": lambda: d.y - d.x,
                "xc": lambda: self._centre(d.x),
                "yc": lambda: self._centre(d.y),
                "zc": lambda: self._centre(d.z),
                "u": self._unit_baseline,
                "y_t": lambda: self._off_baseline("yc"),
                "z_t": lambda: self._off_baseline("zc"),
            }[name]()
        return self._columns[name]

    def _unit_baseline(self) -> np.ndarray:
        xc = self.column("xc")
        norm = float(np.linalg.norm(xc))
        if norm <= _RANK_RTOL * float(np.linalg.norm(self.data.x)):
            raise _rank_error("baseline", "the stratum intercepts")
        return xc / norm

    def _off_baseline(self, name: str) -> np.ndarray:
        v, u = self.column(name), self.column("u")
        return v - (v @ u) * u

    @cached_property
    def observed(self):
        """ANCOVA's treatment t, its degrees of freedom N - J - 2 and its
        flags; shared by ancova and the regression permutation tests so
        their observed statistics are identical."""
        d = self.data
        df = d.n_units - d.n_strata - 2
        if df < 1:
            raise ValueError(f"need more units ({d.n_units}) than design columns "
                             f"({d.n_strata + 2})")
        z_t = self.column("z_t")
        # z is 0/1, so its squared norm is its sum.
        if float(z_t @ z_t) <= _RANK_RTOL ** 2 * float(d.z.sum()):
            raise _rank_error("treatment", "the stratum intercepts and the baseline")
        t, flags = _fit_t(z_t, self.column("y_t"), df, float(np.linalg.norm(d.y)))
        return t, df, flags

    def values(self, rows: str) -> np.ndarray:
        """The vector the rows re-randomize (assignments) or reorder, centred
        within strata."""
        return self.column(_CENTRED[rows])

    @cached_property
    def centred_ss(self) -> dict:
        """Per kind of row, the sum of squares of its values centred within
        strata, which every draw shares."""
        return {rows: float(self.values(rows) @ self.values(rows)) for rows in self.needs}

    @cached_property
    def stratum_columns(self) -> dict:
        """Per kind of row, each stratum's (n_j, k) block of the columns the
        tests multiply into it."""
        return {rows: [np.column_stack([self.column(c)[pos] for c in names])
                       for pos in self.positions]
                for rows, names in self.needs.items()}


def _subgrids(counts):
    """The C-order grid of an exact orbit whose strata have ``counts`` rows,
    cut into contiguous sub-grids of at most ``_EXACT_BLOCK_DRAWS`` draws:
    yields one slice of rows per stratum.

    Walking back from the last stratum, the strata whose row counts multiply
    to at most the bound (their product is ``tail``) are taken whole; the
    stratum before them, s, is cut into runs of max(1, bound // tail) rows,
    and every stratum before s is fixed one row at a time.  Each sub-grid is
    therefore a contiguous range of the orbit's draws, in order.
    """
    s, tail = len(counts), 1
    while s and tail * counts[s - 1] <= _EXACT_BLOCK_DRAWS:
        s -= 1
        tail *= counts[s]
    if not s:
        yield (slice(None),) * len(counts)
        return
    s -= 1
    step = max(1, _EXACT_BLOCK_DRAWS // tail)
    whole = (slice(None),) * (len(counts) - s - 1)
    for head in itertools.product(*map(range, counts[:s])):
        fixed = tuple(slice(r, r + 1) for r in head)
        for lo in range(0, counts[s], step):
            yield fixed + (slice(lo, lo + step),) + whole


def _blocks(plan: PermutationPlan, batteries):
    """The plan's orbit, one block of draws at a time: per block, one
    :class:`_Block` per battery, all cut from the same draws.  Each chunk of
    draws is multiplied in for every battery as it is read, and not kept.
    An exact orbit's crossed block is multiplied in whole and yielded as its
    sub-grids (see :func:`_subgrids`), each replayed as aligned rows."""
    rows = set().union(*(battery.needs for battery in batteries))
    for chunks, replay in orbit_blocks(plan, assignments=_ASSIGNMENTS in rows,
                                       permutations=bool(rows - {_ASSIGNMENTS})):
        blocks = [_Block(battery, replay) for battery in batteries]
        for j, _, treated, units in chunks:
            treated = None if treated is None else treated.astype(float)
            for block in blocks:
                block.add(j, treated, units)
        if plan.mode == "monte_carlo":
            yield blocks
            continue
        # One chunk per stratum, listing the stratum's whole orbit.
        counts = [(u if t is None else t).shape[0] for _, _, t, u in replay()]
        for grid in _subgrids(counts):
            def sub_replay(replay=replay, grid=grid, counts=counts):
                at = np.meshgrid(*(np.arange(n)[g] for n, g in zip(counts, grid)), indexing="ij")
                return ((j, 0, None if t is None else t[a.ravel()],
                         None if u is None else u[a.ravel()])
                        for (j, _, t, u), a in zip(replay(), at))

            yield [block.cut(grid, sub_replay) for block in blocks]


class _Block:
    """One block of draws and its products with the columns the tests need:
    one matrix product per stratum, kind of row and chunk of draws.

    Each stratum's products are stored columns first, as (columns, ...)
    with the block's grid of draws behind the column axis, and per-draw
    totals are their broadcast sums, added stratum after stratum; so one
    column's per-stratum terms and totals (:meth:`per_stratum`,
    :meth:`total`) are contiguous rows.  A Monte-Carlo block's grid has one
    axis: entry b of every stratum's products belongs to draw b, and the
    block holds every kind of row the tests need.  An exact sub-grid
    (:meth:`cut`) holds one kind and has one grid axis per stratum: stratum
    j's rows lie along grid axis j, and draw r is the grid point at r in C
    order, earlier strata slowest.  The draws themselves are not kept:
    ``replay()`` reads the block's chunks again, each stratum's rows of the
    block's draws in order (see :func:`~stratperm.randomization.orbit_blocks`).
    """

    def __init__(self, battery: _Battery, replay, dims: int = 1):
        self.battery = battery
        self.replay = replay
        self.dims = dims
        self._chunks = {rows: [[] for _ in battery.positions] for rows in battery.needs}

    def add(self, j: int, treated, units) -> None:
        """Multiply one chunk of stratum j's draws (``treated`` as floats)
        into the columns each kind of row needs, and store each product
        columns first: a transposed copy of ``drawn @ columns``, so it is
        rounded as the rows-first product is."""
        battery = self.battery
        for rows, chunks in self._chunks.items():
            drawn = treated if rows == _ASSIGNMENTS else units
            if drawn is None:  # an exact orbit of the other kind
                continue
            if rows != _ASSIGNMENTS:
                drawn = battery.values(rows)[drawn]
            chunks[j].append(np.ascontiguousarray((drawn @ battery.stratum_columns[rows][j]).T))

    def cut(self, grid, replay) -> "_Block":
        """The sub-grid of this exact block, one chunk per stratum, that
        takes rows ``grid[j]`` of stratum j, its draws read again by
        ``replay()``: its products are slices of this block's, laid on the
        sub-grid's axes, so each draw's are the whole grid's."""
        sub = _Block(self.battery, replay, len(grid))
        for rows, chunks in self._chunks.items():
            if chunks[0]:
                for j, (part, (product,), g) in enumerate(zip(sub._chunks[rows], chunks, grid)):
                    part.append(product[:, g].reshape(
                        (product.shape[0],) + (1,) * j + (-1,) + (1,) * (len(grid) - 1 - j)))
        return sub

    def holds(self, method: str) -> bool:
        """Whether the block has draws of every kind of row ``method``
        needs; an exact block holds one kind."""
        return all(self._chunks[rows][0] for rows in _TESTS[method][1])

    @cached_property
    def products(self) -> dict:
        """Per kind of row: the column names, each stratum's products and
        their per-draw totals."""
        out = {}
        for rows, names in self.battery.needs.items():
            if self._chunks[rows][0]:
                # A stratum of one chunk, as in every exact block, is not copied.
                per = [p[0] if len(p) == 1 else np.concatenate(p, axis=1)
                       for p in self._chunks[rows]]
                out[rows] = (list(names), per, self.combine(per))
        return out

    def combine(self, terms) -> np.ndarray:
        """Per-stratum terms summed over the strata, one sum per draw (per
        column, for products)."""
        total = sum(terms)
        return total.reshape(total.shape[:total.ndim - self.dims] + (-1,))

    def expand(self, terms) -> np.ndarray:
        """Per-stratum vectors as a (draws, strata) matrix: column j holds
        stratum j's term at each draw."""
        return np.stack(np.broadcast_arrays(*terms), axis=-1).reshape(-1, len(terms))

    def per_stratum(self, rows: str, column: str) -> list:
        names, per, _ = self.products[rows]
        return [p[names.index(column)] for p in per]

    def total(self, rows: str, column: str) -> np.ndarray:
        names, _, total = self.products[rows]
        return total[names.index(column)]

    def _rows(self, rows: str, draws) -> np.ndarray:
        """The chosen draws of ``rows`` as a (len(draws), n_units) matrix,
        read from a replay of the block."""
        battery = self.battery
        out = np.empty((len(draws), battery.data.n_units))
        values = battery.values(rows)
        for j, lo, treated, units in self.replay():
            picked = treated if rows == _ASSIGNMENTS else units
            hit = np.nonzero((draws >= lo) & (draws < lo + picked.shape[0]))[0]
            chosen = picked[draws[hit] - lo]
            out[hit[:, None], battery.positions[j]] = (
                chosen if rows == _ASSIGNMENTS else values[chosen])
        return out

    def permuted_side(self, rows: str, fixed: str, with_x: bool = True):
        """FWL pieces of a regression test's permuted side v, per draw: v's
        cross product with the projected ``fixed`` column, and v's projected
        sum of squares, a float shared by all draws when ``with_x`` is False
        and no draw is projected explicitly.  Unless some draw is, ``dot`` is
        the block's own total, which other tests read: it must not be
        written to."""
        battery = self.battery
        dot = self.total(rows, fixed)
        c = battery.centred_ss[rows]
        # Without the baseline, every draw's sum of squares is c.
        ss = c - self.total(rows, "u") ** 2 if with_x else c
        cancelled = ss <= _CANCELLED * c
        redo = np.nonzero(cancelled)[0] if with_x else np.arange(dot.size if cancelled else 0)
        if redo.size:
            v = battery._project(self._rows(rows, redo), with_x)
            dot, ss = dot.copy(), np.broadcast_to(ss, dot.shape).copy()
            ss[redo] = np.einsum("ij,ij->i", v, v)
            dot[redo] = np.einsum("ij,j->i", v, battery.column(fixed))
        return dot, ss


@dataclass(eq=False)
class _Scored:
    """A test's observed side, how it scores a block of draws, and its tally.

    ``null(block)`` returns the block's null statistics and how many of its
    draws were degenerate; it is None for ANCOVA, whose p-value comes from
    Student's t with ``df`` degrees of freedom.  ``k`` counts the draws at
    least as extreme as the statistic on ``tail``, where draws within ``tie``
    of it count as ties.  ``finish``, when given, builds the result in place
    of the p-value from k, from the ``draws`` rows of ``kept`` filled so
    far: ``kept`` has room for the null statistics of the orbit's
    ``kept_draws`` draws, one array allocated at the first block (once the
    orbit's size has been checked) and filled block by block.
    """

    method: str
    statistic: float
    null: Callable | None
    tail: str = "two_sided"
    tie: float = TIE_TOLERANCE
    df: int | None = None
    flags: tuple[str, ...] = ()
    finish: Callable | None = None
    kept_draws: int = 0
    k: int = 0
    draws: int = 0
    degenerate: int = 0
    kept: np.ndarray | None = None

    def score(self, block) -> None:
        null, degenerate = self.null(block)
        if self.finish is None:
            self.k += _exceedances(self.statistic, null, self.tail, self.tie)
        else:
            if self.kept is None:
                self.kept = np.empty((self.kept_draws,) + null.shape[1:])
            self.kept[self.draws:self.draws + null.shape[0]] = null
        self.draws += null.shape[0]
        self.degenerate += degenerate

    def result(self, plan: PermutationPlan | None) -> TestResult:
        if self.finish is not None:
            return self.finish(self.kept[:self.draws])
        if self.null is None:
            # A flagged fit has no t: its p-value is 1.
            p = PValue(value=1.0 if self.flags else student_t_two_sided_p(self.statistic, self.df),
                       exceedances=0, draws=0, mode="analytic")
        else:
            # A Monte-Carlo test stopped early keeps the add-one rule over B.
            p = _pvalue(self.k, self.draws if plan.mode == "exact" else plan.draws, plan.mode)
        return TestResult(method=self.method, statistic=self.statistic, p_value=p,
                          df=self.df, flags=self.flags, degenerate_draws=self.degenerate,
                          draws_used=self.draws)


# ---------------------------------------------------------------------------
# parametric reference


def _ancova(battery: _Battery) -> _Scored:
    """ANCOVA t test for the treatment effect, stratum intercepts included.

    The model is y ~ stratum dummies + baseline + treatment; the statistic is
    the treatment coefficient over its standard error and the p-value comes
    from Student's t with N - J - 2 degrees of freedom.  The fit is made in
    closed form from the columns centred within strata, by the code that
    gives the regression permutation tests their observed statistic, so the
    two agree exactly.  Nothing is drawn, so no plan is needed.
    """
    stat, df, flags = battery.observed
    return _Scored("ancova", stat, None, df=df, flags=flags)


# ---------------------------------------------------------------------------
# assignment-orbit tests


def _stratum_diffs(battery: _Battery, v) -> np.ndarray:
    """Per stratum, v's treated mean minus its control mean."""
    z = battery.data.z
    treated, n_t = battery.sums(v * z), battery.sums(z)
    return treated / n_t - (battery.sums(v) - treated) / (battery.sizes - n_t)


def _diff_means(battery: _Battery, method: str, column: str) -> _Scored:
    """Pooled difference in means, treated minus control, re-randomized
    within strata: of the outcome (stratified_diff_means) or of the change
    scores y - x (change_scores).  With x identically zero the two coincide
    draw for draw."""
    v = battery.column(column)
    z = battery.data.z
    n_t = int(z.sum())
    n_c = battery.data.n_units - n_t
    v_sum = v.sum()

    def null(block):
        treated_sums = block.total(_ASSIGNMENTS, column)
        return treated_sums / n_t - (v_sum - treated_sums) / n_c, 0

    return _Scored(method, float(v[z == 1].mean() - v[z == 0].mean()), null)


def _sum_abs(battery: _Battery) -> _Scored:
    """Sum over strata of |treated mean - control mean|, re-randomized within
    strata, right-tailed."""
    data, layout = battery.data, battery.plan.layout
    y_sums = battery.sums(data.y)

    def null(block):
        return block.combine([
            np.abs(sums / t_j - (y_sum - sums) / (n_j - t_j))
            for y_sum, n_j, t_j, sums in zip(y_sums, layout.sizes, layout.treated,
                                             block.per_stratum(_ASSIGNMENTS, "y"))]), 0

    return _Scored("stratified_sum_abs", float(np.abs(_stratum_diffs(battery, data.y)).sum()),
                   null, tail="right")


def _lm_permutation(battery: _Battery) -> _Scored:
    """Permutation test of the ANCOVA t statistic.

    The observed statistic is ANCOVA's full-model t; the null refits it
    under re-randomized treatment assignments (the baseline and stratum
    columns stay put, so each draw reduces to two dot products with the
    projected outcome and the baseline direction).
    """
    t_obs, df, flags = battery.observed
    y_t = battery.column("y_t")
    resp_ss, raw_ss = float(y_t @ y_t), float(battery.data.z.sum())

    def null(block):
        dot, ss = block.permuted_side(_ASSIGNMENTS, "y_t")
        return _fwl_t(dot, ss, resp_ss, df, raw_ss)

    return _Scored("lm_permutation", t_obs, null, df=df, flags=flags, tie=_t_tie(t_obs, df))


# ---------------------------------------------------------------------------
# residual / outcome permutation tests


def _permuted_response(battery: _Battery, method: str, rows: str) -> _Scored:
    """Refit the full model to each permuted response, design held fixed.

    Freedman-Lane fits the null model (stratum dummies + baseline) once,
    permutes its residuals within strata and adds them back to the null
    fitted values; Manly permutes the outcomes within strata.  The null fit
    lies in the nuisance span, so only the permuted part is projected.  The
    observed statistic is ANCOVA's, from the unpermuted full fit.
    """
    t_obs, df, flags = battery.observed
    z_t = battery.column("z_t")
    target_ss, raw_ss = float(z_t @ z_t), float(battery.data.z.sum())

    def null(block):
        dot, ss = block.permuted_side(rows, "z_t")
        return _fwl_t(dot, target_ss, ss, df, raw_ss)

    return _Scored(method, t_obs, null, df=df, flags=flags, tie=_t_tie(t_obs, df))


def _kennedy(battery: _Battery) -> _Scored:
    """Kennedy's variant: treatment regressed on permuted null residuals.

    The observed statistic is the t of the (unpermuted) null-residual column
    in a regression of z on the stratum dummies plus those residuals; each
    draw re-estimates it with the residuals permuted within strata.  The
    residuals are numerically zero, and the test flagged, when their norm is
    at most ``_RANK_RTOL`` of the centred outcome's, which an offset of y
    does not change.
    """
    # e is centred within strata already, so the fit needs only e and the
    # centred z.
    data = battery.data
    eps, zc = battery.column("y_t"), battery.column("zc")
    df = data.n_units - data.n_strata - 1
    eps_ss, resp_ss = float(eps @ eps), float(zc @ zc)
    if math.sqrt(eps_ss) <= _RANK_RTOL * float(np.linalg.norm(battery.column("yc"))):
        t_obs, flags = 0.0, ("degenerate_null_residuals",)
    else:
        # z is 0/1, so its norm is the square root of its sum.
        t_obs, flags = _fit_t(eps, zc, df, math.sqrt(float(data.z.sum())))

    def null(block):
        # Kennedy's nuisance columns are the stratum dummies alone.
        dot, ss = block.permuted_side(_RESIDUALS, "zc", with_x=False)
        return _fwl_t(dot, ss, resp_ss, df, eps_ss)

    return _Scored("kennedy", t_obs, null, df=df, flags=flags, tie=_t_tie(t_obs, df))


# ---------------------------------------------------------------------------
# nonparametric combination


def _partial_pvalues(observed: np.ndarray, draws: np.ndarray):
    """Two-sided add-one partial p-values for the observed vector and every
    draw row.  The draws' absolute values are ranked in place, one column at
    a time against its sorted copy, in runs of at most ``_EXACT_BLOCK_DRAWS``
    rows, so beyond the (B, J) result the work holds one column of B."""
    o = np.abs(observed)
    b, j = draws.shape
    obs_p = np.empty(j)
    row_p = np.abs(draws, out=np.empty((b, j)))
    s = np.empty(b)
    for col in range(j):
        a = row_p[:, col]
        s[:] = a
        s.sort()
        obs_k = b - np.searchsorted(s, o[col] - TIE_TOLERANCE, side="left")
        obs_p[col] = (obs_k + 1) / (b + 1)
        for lo in range(0, b, _EXACT_BLOCK_DRAWS):
            run = a[lo:lo + _EXACT_BLOCK_DRAWS]
            run[:] = (b + 1 - np.searchsorted(s, run - TIE_TOLERANCE, side="left")) / (b + 1)
    return obs_p, row_p


def _fisher(p: np.ndarray) -> np.ndarray:
    """Fisher's combination -2 sum(log p) along the last axis, larger = more
    extreme; it overwrites ``p`` with its logarithm."""
    combined = np.sum(np.log(p, out=p), axis=-1)
    combined *= -2.0
    return combined


def npc_combine(observed, draws) -> NpcResult:
    """Nonparametric combination of J dependent permutation statistics.

    ``observed`` is the length-J vector of observed statistics and ``draws``
    the (B, J) matrix of their joint null draws, rows aligned across strata
    by shared re-randomization.  Two-sided partial p-values use the add-one
    rule within each column, so none is 0; Fisher's rule combines them, and
    the combined statistic is compared right-tailed against its own row-wise
    null.
    """
    observed = np.asarray(observed, dtype=float)
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 2 or not draws.shape[0] or observed.shape != (draws.shape[1],):
        raise ValueError("observed must be (J,) and draws (B, J), B >= 1")
    obs_p, row_p = _partial_pvalues(observed, draws)
    stat = float(_fisher(obs_p.copy()))
    k = _exceedances(stat, _fisher(row_p), "right")
    return NpcResult(statistic=stat, p_value=_pvalue(k, draws.shape[0], "monte_carlo"),
                     partial_p=obs_p)


def _exchangeability(battery: _Battery) -> _Scored:
    data = battery.data
    eps, xc = battery.column("y_t"), battery.column("xc")
    # Per stratum, (n_j - 1) sd(x) sd(e): both columns are centred already.
    denom = np.sqrt(battery.sums(xc * xc) * battery.sums(eps * eps))
    constant = ~(np.isfinite(denom) & (denom > 0.0))
    flags = [f"constant_in_stratum[{data.stratum_labels[j]}]" for j in np.flatnonzero(constant)]
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = np.where(constant, 0.0, 1.0 / denom)
    observed = battery.sums(eps * xc) * scale
    plan = battery.plan
    size = (plan.draws if plan.mode == "monte_carlo"
            else count_within_stratum_permutations(plan.layout))

    def null(block):
        return block.expand([p * s for p, s in zip(block.per_stratum(_RESIDUALS, "xc"), scale)]), 0

    def finish(kept):
        npc = npc_combine(observed, kept)
        return TestResult(
            method="exchangeability",
            statistic=npc.statistic,
            p_value=npc.p_value,
            per_stratum=tuple(float(v) for v in npc.partial_p),
            null_summary={"stratum_correlations": [float(v) for v in observed]},
            flags=tuple(flags),
            draws_used=npc.p_value.draws,
        )

    # The combined statistic needs every draw, so it is left to finish.
    return _Scored("exchangeability", float("nan"), null, finish=finish, kept_draws=size)


def exchangeability_diagnostic(data: TrialData, plan: PermutationPlan) -> TestResult:
    """Do null-model residuals look exchangeable with respect to baseline?

    Per stratum the statistic is the Pearson correlation between the null
    residuals and the baseline covariate; each stratum's null shuffles the
    residuals within that stratum, and the per-stratum tests are combined
    nonparametrically by Fisher's rule.  Strata where either column is
    constant contribute a partial p of 1 and are flagged.
    """
    return run_trial([data], plan, ["exchangeability"])[0]["exchangeability"]


# ---------------------------------------------------------------------------
# the registry and the battery

# Each test's scorer, and the columns it multiplies into each kind of row.
_TESTS = {
    "ancova": (_ancova, {}),
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


def run_trial(endpoints, plan: PermutationPlan | None, methods,
              stop_at: int | None = None) -> list:
    """Run the same tests on several endpoints of one trial, drawing the
    orbit once for all of them.

    ``endpoints`` are :class:`TrialData` sharing ``plan``'s layout and
    ``methods`` are names from :data:`METHODS` or ``"exchangeability"``,
    each named once.  Returns one ``{method: TestResult}`` per endpoint, in
    the order of ``methods``: the orbit is walked once, block by block, and
    each block is scored for every endpoint and test, so all results come
    from one re-randomization of the trial, and each equals the one the test
    gives on its own with that plan.  Only ANCOVA runs without a plan.

    ``stop_at``, for power studies, takes a Monte-Carlo plan of B draws and
    names from :data:`METHODS`.  A test stops counting once its count k
    reaches ``stop_at``, and drawing stops once every test has.  Its p-value
    stays (k + 1) / (B + 1), a lower bound on the full-run one, with
    ``draws_used`` below B; with ``stop_at`` the smallest k whose
    (k + 1) / (B + 1) is not rejected, it is not rejected, as in a full run.
    """
    if stop_at is not None and (plan is None or plan.mode != "monte_carlo"):
        raise ValueError("stop_at needs a monte_carlo plan")
    methods = _check_names(methods, _TESTS if stop_at is None else METHODS)
    batteries = [_Battery(data, plan, methods) for data in endpoints]
    runs = [{m: _TESTS[m][0](battery) for m in methods} for battery in batteries]
    live = [(i, s) for i, tests in enumerate(runs) for s in tests.values() if s.null is not None]
    orbit = _blocks(plan, batteries)
    while True:
        live = [(i, s) for i, s in live if stop_at is None or s.k < stop_at]
        blocks = next(orbit, None) if live else None
        if blocks is None:
            break
        for i, s in live:
            if blocks[i].holds(s.method):
                s.score(blocks[i])
        del blocks  # release this block before the next is drawn
    return [{m: s.result(plan) for m, s in tests.items()} for tests in runs]


def _runner(method: str) -> Callable:
    def run(data: TrialData, plan: PermutationPlan | None = None) -> TestResult:
        return run_trial([data], plan, [method])[0][method]
    return run


# Each test run on its own, as ``METHODS[name](data, plan)``; its scorer
# above describes it.  ANCOVA needs no plan.
METHODS = {name: _runner(name) for name in _TESTS if name != "exchangeability"}
