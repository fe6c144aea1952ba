"""Stratified re-randomization: counting, enumeration, sampling, p-values.

Everything here preserves the per-stratum treated counts (the design's
randomization scheme).  Two orbits appear, because two kinds of null live in
the test battery:

* assignments -- which units are treated, C(n_j, t_j) per stratum;
* within-stratum permutations -- reorderings of an arbitrary vector, n_j!
  per stratum (used by tests that shuffle residuals or outcomes).

The test battery reads a plan's draws from :func:`orbit_blocks`, one row
block per stratum, so that no (draws, units) matrix need exist.  A
Monte-Carlo orbit is sampled once and serves both kinds: a uniform
within-stratum permutation, cut at the stratum's treated count, is a
uniform assignment.  Exact orbits are Cartesian products of per-stratum
enumerations, built without a loop over the product's rows.

Randomness is derived, never passed around as global state: a master seed and
an index tuple give an independent stream via ``SeedSequence`` spawn keys, so
results cannot depend on how work is scheduled across workers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "StratumLayout",
    "PermutationPlan",
    "PValue",
    "derive_seed",
    "derive_stream",
    "count_assignments",
    "count_within_stratum_permutations",
    "enumerate_assignments",
    "enumerate_within_stratum_permutations",
    "sample_assignments",
    "sample_within_stratum_permutations",
    "orbit_blocks",
    "monte_carlo_pvalue",
]

DEFAULT_ENUMERATION_CAP = 1_000_000

# Absolute tie tolerance when comparing permuted statistics to the observed
# one; draws this close to the observed value count as exceedances.
TIE_TOLERANCE = 1e-12


def derive_stream(master_seed: int, *key: int) -> np.random.Generator:
    """Independent generator for (master_seed, key...), schedule-invariant.

    The same arguments always yield the same stream, and distinct key tuples
    yield independent streams, so parallel workers can each derive their own
    without any shared state.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=key))


def derive_seed(master_seed: int, *key: int) -> int:
    """A derived 64-bit integer seed for (master_seed, key...)."""
    ss = np.random.SeedSequence(master_seed, spawn_key=key)
    return int(ss.generate_state(1, np.uint64)[0])


@dataclass(frozen=True, eq=False)
class StratumLayout:
    """Stratum sizes and treated counts, plus each unit's stratum code.

    ``codes`` maps unit positions to strata (consecutive integers, one code
    per unit), so sampled assignments and permutations line up with the data
    order they came from.
    """

    sizes: tuple[int, ...]
    treated: tuple[int, ...]
    codes: np.ndarray

    def __post_init__(self):
        if len(self.sizes) != len(self.treated) or not self.sizes:
            raise ValueError("sizes and treated must be equal-length and non-empty")
        for j, (n, t) in enumerate(zip(self.sizes, self.treated)):
            if not 0 < t < n:
                raise ValueError(
                    f"stratum {j}: treated count must satisfy 0 < {t} < {n}"
                )
        codes = np.asarray(self.codes)
        counts = np.bincount(codes, minlength=len(self.sizes))
        if codes.shape != (sum(self.sizes),) or tuple(counts) != self.sizes:
            raise ValueError("codes do not match the stated stratum sizes")

    @classmethod
    def from_counts(cls, sizes, treated) -> "StratumLayout":
        """Layout with units grouped stratum by stratum."""
        sizes = tuple(int(n) for n in sizes)
        codes = np.repeat(np.arange(len(sizes)), sizes)
        return cls(sizes=sizes, treated=tuple(int(t) for t in treated), codes=codes)

    @classmethod
    def from_assignment(cls, strata, z) -> "StratumLayout":
        """Layout inferred from observed stratum labels and treatment."""
        strata = np.asarray(strata)
        z = np.asarray(z)
        labels, codes = np.unique(strata, return_inverse=True)
        sizes = np.bincount(codes)
        treated = np.bincount(codes, weights=z).astype(int)
        for label, n, t in zip(labels, sizes, treated):
            if not 0 < t < n:
                raise ValueError(
                    f"stratum {label!r} needs units in both arms "
                    f"(size {n}, treated {t})"
                )
        return cls(sizes=tuple(int(n) for n in sizes),
                   treated=tuple(int(t) for t in treated), codes=codes)

    @property
    def n_units(self) -> int:
        return int(self.codes.shape[0])

    @property
    def n_strata(self) -> int:
        return len(self.sizes)

    def stratum_positions(self) -> list[np.ndarray]:
        """Unit positions of each stratum, in stratum order."""
        return [np.nonzero(self.codes == j)[0] for j in range(self.n_strata)]


@dataclass(frozen=True)
class PermutationPlan:
    """How a permutation null is to be computed.

    mode "exact" enumerates the whole orbit (subject to ``enumeration_cap``);
    mode "monte_carlo" samples ``draws`` re-randomizations from the stream
    derived from ``master_seed``.  Every test run with one plan sees the same
    draws; in monte_carlo mode the assignments are cut from the sampled
    within-stratum permutations (see :func:`orbit_blocks`).
    """

    layout: StratumLayout
    mode: str = "monte_carlo"
    draws: int = 10_000
    master_seed: int = 0
    enumeration_cap: int = DEFAULT_ENUMERATION_CAP

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.draws < 1:
            raise ValueError("monte_carlo mode needs at least one draw")

    def stream(self, *key: int) -> np.random.Generator:
        return derive_stream(self.master_seed, *key)


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


def count_assignments(layout: StratumLayout) -> int:
    """Number of treatment assignments preserving every stratum's counts."""
    total = 1
    for n, t in zip(layout.sizes, layout.treated):
        total *= math.comb(n, t)
    return total


def count_within_stratum_permutations(layout: StratumLayout) -> int:
    """Number of distinct within-stratum reorderings (product of factorials)."""
    total = 1
    for n in layout.sizes:
        total *= math.factorial(n)
    return total


def _check_cap(total: int, cap: int | None, what: str) -> None:
    cap = DEFAULT_ENUMERATION_CAP if cap is None else cap
    if total > cap:
        raise ValueError(
            f"exact enumeration would produce {total} {what}, "
            f"over the cap of {cap}; use monte_carlo mode"
        )


def _product(layout: StratumLayout, blocks: list, dtype) -> np.ndarray:
    """Rows of the Cartesian product of per-stratum row blocks, earlier
    strata varying slowest, each block written at its stratum's positions."""
    total = math.prod(block.shape[0] for block in blocks)
    out = np.empty((total, layout.n_units), dtype=dtype)
    before = 1
    for pos, block in zip(layout.stratum_positions(), blocks):
        after = total // (before * block.shape[0])
        out[:, pos] = np.tile(np.repeat(block, after, axis=0), (before, 1))
        before *= block.shape[0]
    return out


def _sampled_units(positions, stream: np.random.Generator, draws: int):
    """Per stratum, ``draws`` uniform reorderings of its unit positions,
    drawn from ``stream`` stratum after stratum."""
    for pos in positions:
        block = np.tile(pos, (draws, 1))
        stream.permuted(block, axis=1, out=block)
        yield block


def enumerate_assignments(layout: StratumLayout, cap: int | None = None) -> np.ndarray:
    """All assignments as a (count, n_units) 0/1 matrix, deterministic order.

    Strata vary lexicographically, earlier strata slowest.  Refuses to
    enumerate more than ``cap`` assignments (default 1e6) and reports the
    would-be count in the error.
    """
    _check_cap(count_assignments(layout), cap, "assignments")
    blocks = []
    for n, t in zip(layout.sizes, layout.treated):
        chosen = np.array(list(itertools.combinations(range(n), t)))
        blocks.append(np.zeros((chosen.shape[0], n), dtype=np.int8))
        np.put_along_axis(blocks[-1], chosen, 1, axis=1)
    return _product(layout, blocks, np.int8)


def enumerate_within_stratum_permutations(
    layout: StratumLayout, cap: int | None = None
) -> np.ndarray:
    """All within-stratum reorderings as a (count, n_units) index matrix.

    Row r is a permutation of 0..n-1 moving units only inside their stratum;
    ``values[out[r]]`` is the r-th reordering of ``values``.
    """
    _check_cap(count_within_stratum_permutations(layout), cap, "permutations")
    blocks = [np.array(list(itertools.permutations(pos))) for pos in layout.stratum_positions()]
    return _product(layout, blocks, np.intp)


def sample_assignments(
    layout: StratumLayout, stream: np.random.Generator, draws: int
) -> np.ndarray:
    """(draws, n_units) matrix of independent uniform assignments.

    Row b treats the units to which row b of the within-stratum
    permutations drawn from the same stream moves each stratum's first t_j
    units (the label-shuffling sampler, drawn through the permutations).
    """
    out = np.empty((draws, layout.n_units), dtype=np.int8)
    positions = layout.stratum_positions()
    for pos, t, units in zip(positions, layout.treated,
                             _sampled_units(positions, stream, draws)):
        out[:, pos] = units < pos[t]
    return out


def sample_within_stratum_permutations(
    layout: StratumLayout, stream: np.random.Generator, draws: int
) -> np.ndarray:
    """(draws, n_units) index matrix of uniform within-stratum reorderings."""
    out = np.empty((draws, layout.n_units), dtype=np.intp)
    positions = layout.stratum_positions()
    for pos, units in zip(positions, _sampled_units(positions, stream, draws)):
        out[:, pos] = units
    return out


def orbit_blocks(plan: PermutationPlan, assignments: bool = True,
                 permutations: bool = True):
    """The draws of one plan, one row block per stratum.

    Yields each stratum's unit positions ``pos`` and two (B, n_j) blocks:
    draw b treats the unit at ``pos[i]`` where ``treated[b, i]``, and
    ``values[units[b]]`` is draw b's reordering of ``values[pos]``.
    ``treated`` is None unless ``assignments``, and exact ``units`` unless
    ``permutations``.  One stratum's blocks are held at a time.

    Monte-Carlo blocks are the rows that
    :func:`sample_within_stratum_permutations` and :func:`sample_assignments`
    draw from ``plan.stream()``, sampled once: positions ascend, so
    ``units < pos[t_j]`` marks the units that receive the stratum's first
    t_j units.  Exact blocks are the columns of :func:`enumerate_assignments`
    and :func:`enumerate_within_stratum_permutations`.
    """
    layout, cap = plan.layout, plan.enumeration_cap
    positions = layout.stratum_positions()
    if plan.mode == "monte_carlo":
        sampled = _sampled_units(positions, plan.stream(), plan.draws)
        for pos, t, units in zip(positions, layout.treated, sampled):
            yield pos, units < pos[t] if assignments else None, units
        return
    treated = enumerate_assignments(layout, cap) if assignments else None
    units = enumerate_within_stratum_permutations(layout, cap) if permutations else None
    for pos in positions:
        yield (pos, None if treated is None else treated[:, pos] == 1,
               None if units is None else units[:, pos])


def monte_carlo_pvalue(
    observed: float,
    draws: np.ndarray,
    mode: str = "monte_carlo",
    tail: str = "two_sided",
    tie_tolerance: float = TIE_TOLERANCE,
) -> PValue:
    """Permutation p-value: add-one rule, or exact over a full orbit.

    two_sided compares |draw| against |observed|; right compares signed
    values.  Draws within ``tie_tolerance`` of the observed statistic count
    as exceedances, so ties are resolved conservatively.
    """
    draws = np.asarray(draws, dtype=float)
    if draws.ndim != 1 or draws.size == 0:
        raise ValueError("need a non-empty vector of null draws")
    observed = float(observed)
    if not math.isfinite(observed):
        raise ValueError("observed statistic must be finite")
    if tail == "two_sided":
        k = int(np.count_nonzero(np.abs(draws) >= abs(observed) - tie_tolerance))
    elif tail == "right":
        k = int(np.count_nonzero(draws >= observed - tie_tolerance))
    else:
        raise ValueError(f"unknown tail {tail!r}")
    b = draws.size
    if mode == "monte_carlo":
        return PValue(value=(k + 1) / (b + 1), exceedances=k, draws=b, mode=mode)
    if mode == "exact":
        if k == 0:
            raise ValueError(
                "exact mode requires the observed statistic's orbit element "
                "among the draws; got zero exceedances"
            )
        return PValue(value=k / b, exceedances=k, draws=b, mode=mode)
    raise ValueError(f"unknown mode {mode!r}")
