"""Stratified re-randomization: counting, enumeration and sampling.

Everything here preserves the per-stratum treated counts (the design's
randomization scheme).  Two orbits appear, because two kinds of null live in
the test battery:

* assignments -- which units are treated, C(n_j, t_j) per stratum;
* within-stratum permutations -- reorderings of an arbitrary vector, n_j!
  per stratum (used by tests that shuffle residuals or outcomes).

The test battery reads a plan's draws from :func:`orbit_blocks`, one block
of draws at a time, each block split by stratum and read in row chunks, so
that no (draws, units) matrix need exist.  A Monte-Carlo orbit is sampled
once and serves both kinds: a uniform within-stratum permutation, cut at the
stratum's treated count, is a uniform assignment.  It is drawn in blocks of
1,024 draws from the plan's one stream, block after block and, within a
block, stratum after stratum (:data:`DRAW_SCHEME`).  Each stratum's part of
a block is drawn in chunks of at most 2^16 unit positions, into one buffer
reused from chunk to chunk; ``Generator.permuted`` shuffles row by row, so
the chunks are the rows of the whole block, drawn in the same stream order,
and memory does not grow with the number of units.  Because the stream is
consumed in order, the first m blocks are the same whether or not later
blocks are drawn, which is what lets a power study stop drawing early; a
block is read again by replaying the stream from its state at the block's
start.  An exact orbit is read one kind at a time, each kind as one
crossed block of one chunk per stratum: each stratum's orbit enumerated
once, on its own, by the per-stratum enumerators
(:func:`enumerate_assignments`, :func:`enumerate_within_stratum_permutations`,
in lexicographic order), with draw r the C-order combination of the strata's
rows (earlier strata slowest), so the (orbit, units) matrices are never
built.  How much of that grid is scored at once is the test battery's
decision (:mod:`stratperm.hypothesis_tests`).

Randomness is derived, never passed around as global state: a master seed and
an index tuple give an independent stream via ``SeedSequence`` spawn keys, so
results cannot depend on how work is scheduled across workers.
"""

from __future__ import annotations

import collections
import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DEFAULT_ENUMERATION_CAP",
    "StratumLayout",
    "PermutationPlan",
    "derive_seed",
    "derive_stream",
    "count_assignments",
    "count_within_stratum_permutations",
    "enumerate_assignments",
    "enumerate_within_stratum_permutations",
    "sample_assignments",
    "orbit_blocks",
    "DRAW_SCHEME",
]

# An exact plan refuses an orbit of more draws than this.
DEFAULT_ENUMERATION_CAP = 1_000_000

# Monte-Carlo draws are made and scored in blocks of at most this many.
_BLOCK_DRAWS = 1024

# Each stratum's part of a Monte-Carlo block is drawn in row chunks of at most
# this many unit positions (one row at least).
_CHUNK_UNITS = 1 << 16

# How a Monte-Carlo orbit is drawn, as recorded in report and simulation
# provenance.
DRAW_SCHEME = {
    "sampler": "numpy Generator.permuted within strata",
    "block_draws": _BLOCK_DRAWS,
    "order": "block-major: one stream, block after block, strata in order within a block",
}


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

    mode "exact" enumerates the whole orbit, up to
    ``DEFAULT_ENUMERATION_CAP`` draws, as one crossed block per kind that
    lists each stratum's orbit once, scored in contiguous sub-grids of at
    most 8,192 draws; mode "monte_carlo" samples ``draws``
    re-randomizations from the stream derived from ``master_seed``, in blocks
    of 1,024 draws.  Every test run with one plan sees the same draws; in
    monte_carlo mode the assignments are cut from the sampled within-stratum
    permutations, and the first blocks do not depend on how many follow (see
    :func:`orbit_blocks`).
    """

    layout: StratumLayout
    mode: str = "monte_carlo"
    draws: int = 10_000
    master_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "monte_carlo"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "monte_carlo" and self.draws < 1:
            raise ValueError("monte_carlo mode needs at least one draw")

    def stream(self, *key: int) -> np.random.Generator:
        return derive_stream(self.master_seed, *key)


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


def _chunk_rows(n: int, draws: int) -> int:
    """Rows of a chunk of a stratum of ``n`` units in a block of ``draws``."""
    return min(draws, max(1, _CHUNK_UNITS // n))


def _drawn_chunks(positions, stream: np.random.Generator, draws: int, buffer):
    """``draws`` uniform reorderings of each stratum's unit positions, drawn
    from ``stream`` stratum after stratum in row chunks: yields (j, lo,
    units), where ``units`` is a view on ``buffer`` holding rows lo, lo + 1,
    ... of stratum j's (draws, n_j) reorderings, overwritten by the next
    chunk."""
    for j, pos in enumerate(positions):
        rows = _chunk_rows(pos.size, draws)
        for lo in range(0, draws, rows):
            units = buffer[:min(rows, draws - lo) * pos.size].reshape(-1, pos.size)
            units[:] = pos
            stream.permuted(units, axis=1, out=units)
            yield j, lo, units


def _sampled_blocks(positions, stream: np.random.Generator, draws: int):
    """``draws`` uniform reorderings of each stratum's unit positions, in
    blocks of at most ``_BLOCK_DRAWS``, drawn from ``stream`` block after
    block.  Per block, yields (chunks, replay): ``chunks`` draws the block's
    chunks from ``stream`` (see :func:`_drawn_chunks`), and ``replay()``
    draws them again, from the stream's state at the block's start.  Chunks
    the caller leaves unread are drawn before the next block, so the stream
    is consumed in order."""
    first = min(draws, _BLOCK_DRAWS)
    buffer = np.empty(max(_chunk_rows(pos.size, first) * pos.size for pos in positions),
                      dtype=np.intp)
    for start in range(0, draws, _BLOCK_DRAWS):
        size = min(_BLOCK_DRAWS, draws - start)
        state = stream.bit_generator.state

        def replay(state=state, size=size):
            again = type(stream.bit_generator)()
            again.state = state
            return _drawn_chunks(positions, np.random.Generator(again), size,
                                 np.empty_like(buffer))

        chunks = _drawn_chunks(positions, stream, size, buffer)
        yield chunks, replay
        collections.deque(chunks, maxlen=0)


def enumerate_assignments(n: int, t: int) -> np.ndarray:
    """All C(n, t) ways to treat t of n units, as a (C(n, t), n) boolean
    matrix: row r treats the units of the r-th combination in lexicographic
    order (``itertools.combinations``), read straight into an array."""
    count = math.comb(n, t)
    chosen = np.fromiter(itertools.chain.from_iterable(itertools.combinations(range(n), t)),
                         dtype=np.intp, count=count * t).reshape(count, t)
    out = np.zeros((count, n), dtype=bool)
    np.put_along_axis(out, chosen, True, axis=1)
    return out


def enumerate_within_stratum_permutations(n: int) -> np.ndarray:
    """All n! reorderings of n units, as an (n!, n) index matrix: row r is
    the r-th permutation of 0..n-1 in lexicographic order
    (``itertools.permutations``), read straight into an array."""
    count = math.factorial(n)
    return np.fromiter(itertools.chain.from_iterable(itertools.permutations(range(n))),
                       dtype=np.intp, count=count * n).reshape(count, n)


def sample_assignments(
    layout: StratumLayout, stream: np.random.Generator, draws: int
) -> np.ndarray:
    """(draws, n_units) matrix of independent uniform assignments.

    Row b treats the units to which row b of the within-stratum
    permutations drawn from the same stream (:data:`DRAW_SCHEME`) moves each
    stratum's first t_j units (the label-shuffling sampler, drawn through
    the permutations).
    """
    out = np.empty((draws, layout.n_units), dtype=np.int8)
    positions = layout.stratum_positions()
    for start, (chunks, _) in zip(range(0, draws, _BLOCK_DRAWS),
                                  _sampled_blocks(positions, stream, draws)):
        for j, lo, units in chunks:
            pos = positions[j]
            out[start + lo:start + lo + units.shape[0], pos] = units < pos[layout.treated[j]]
    return out


def orbit_blocks(plan: PermutationPlan, assignments: bool = True,
                 permutations: bool = True):
    """The draws of one plan, one block of draws at a time, each block read
    stratum by stratum in row chunks.

    Per block, yields (chunks, replay).  ``chunks`` yields (j, lo, treated,
    units) for consecutive row chunks of stratum j, strata in order: the
    stratum's rows lo, lo + 1, ... of the block as two (rows, n_j) arrays,
    where draw b treats the unit at ``pos[i]`` where ``treated[b, i]``, and
    ``values[units[b]]`` is draw b's reordering of ``values[pos]``, with
    ``pos`` the stratum's unit positions.  ``treated`` is None unless
    ``assignments``, and ``units`` unless ``permutations``.  ``replay()``
    returns a new iterator over the same chunks.  A chunk is valid until
    the next one is read.

    Monte-Carlo blocks hold at most 1,024 draws, drawn from ``plan.stream()``
    in the order of :data:`DRAW_SCHEME`, in chunks of at most 2^16 unit
    positions: a chunk of stratum j has max(1, 2^16 // n_j) rows, or what
    is left of the block.  ``treated`` is cut from ``units``, sampled once,
    as :func:`sample_assignments` cuts its rows: positions ascend, so
    ``units < pos[t_j]`` marks the units that receive the stratum's first
    t_j units.  Nothing of a block is kept once its chunks are read; its
    replay draws them again from the stream's state at the block's start.

    An exact plan yields one crossed block per kind, once each wanted
    orbit's count is checked against ``DEFAULT_ENUMERATION_CAP``: first the
    assignments, whose stratum j has ``treated`` =
    ``enumerate_assignments(n_j, t_j)`` and ``units`` None, then the
    permutations, whose stratum j has ``treated`` None and ``units`` =
    ``pos`` reordered by ``enumerate_within_stratum_permutations(n_j)``, so
    C(n_j, t_j) and n_j! rows, one chunk per stratum.  The two orbits have
    different sizes, so each is walked on its own.  Draw r of an orbit
    combines row r_j of every stratum, where (r_1, ..., r_J) is r unravelled
    in C order over those row counts (earlier strata slowest); no (orbit,
    units) matrix is built.
    """
    layout = plan.layout
    positions = layout.stratum_positions()
    if plan.mode == "monte_carlo":
        def cut(chunks):
            for j, lo, units in chunks:
                pos = positions[j]
                yield (j, lo, units < pos[layout.treated[j]] if assignments else None,
                       units if permutations else None)

        for chunks, replay in _sampled_blocks(positions, plan.stream(), plan.draws):
            yield cut(chunks), lambda replay=replay: cut(replay())
        return
    for wanted, count, what in ((assignments, count_assignments, "assignments"),
                                (permutations, count_within_stratum_permutations, "permutations")):
        if wanted and count(layout) > DEFAULT_ENUMERATION_CAP:
            raise ValueError(f"exact enumeration would produce {count(layout)} {what}, "
                             f"over the cap of {DEFAULT_ENUMERATION_CAP}; use monte_carlo mode")
    strata = list(enumerate(zip(positions, layout.sizes, layout.treated)))
    if assignments:
        block = [(j, 0, enumerate_assignments(n, t), None) for j, (_, n, t) in strata]
        yield iter(block), lambda block=block: iter(block)
    if permutations:
        block = [(j, 0, None, pos[enumerate_within_stratum_permutations(n)])
                 for j, (pos, n, _) in strata]
        yield iter(block), lambda block=block: iter(block)

