"""Stratified re-randomization: counting, enumeration and sampling.

Everything here preserves the per-stratum treated counts (the design's
randomization scheme).  Two orbits appear, because two kinds of null live in
the test battery:

* assignments -- which units are treated, C(n_j, t_j) per stratum;
* within-stratum permutations -- reorderings of an arbitrary vector, n_j!
  per stratum (used by tests that shuffle residuals or outcomes).

A Monte-Carlo orbit is sampled once and serves both kinds: a uniform
within-stratum permutation, cut at the stratum's treated count, is a uniform
assignment.  It is drawn in blocks of 1,024 draws from the plan's one
stream, block after block and, within a block, stratum after stratum
(:data:`DRAW_SCHEME`), and read one block at a time (:func:`_sampled_blocks`),
so that no (draws, units) matrix need exist.  Each stratum's part of a block
is drawn in chunks of at most 2^16 unit positions, into one buffer reused
from chunk to chunk; ``Generator.permuted`` shuffles row by row, so the
chunks are the rows of the whole block, drawn in the same stream order, and
memory does not grow with the number of units.  Because the stream is
consumed in order, the first m blocks are the same whether or not later
blocks are drawn, which is what lets a power study stop drawing early; a
block is read again by replaying the stream from its state at the block's
start.  An exact orbit is enumerated one stratum at a time, by the
per-stratum enumerators (:func:`enumerate_assignments`,
:func:`enumerate_within_stratum_permutations`, in lexicographic order); how
the test battery walks either orbit is its own decision
(:mod:`stratperm.hypothesis_tests`).

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
    :func:`_sampled_blocks`).
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


def _drawn_chunks(positions, stream: np.random.Generator, draws: int, buffer, treated):
    """``draws`` uniform reorderings of each stratum's unit positions, drawn
    from ``stream`` stratum after stratum in row chunks: yields (j, lo, cut,
    units), where ``units`` is a view on ``buffer`` holding rows lo, lo + 1,
    ... of stratum j's (draws, n_j) reorderings, overwritten by the next
    chunk, and ``cut`` is None unless ``treated`` gives the strata's treated
    counts t_j.  Then it is the chunk's assignments: positions ascend, so
    ``units < pos[t_j]`` marks the units that receive the stratum's first
    t_j units, which is a uniform assignment."""
    for j, pos in enumerate(positions):
        rows = _chunk_rows(pos.size, draws)
        first = None if treated is None else pos[treated[j]]
        for lo in range(0, draws, rows):
            units = buffer[:min(rows, draws - lo) * pos.size].reshape(-1, pos.size)
            units[:] = pos
            stream.permuted(units, axis=1, out=units)
            yield j, lo, None if first is None else units < first, units


def _sampled_blocks(positions, stream: np.random.Generator, draws: int, treated=None):
    """``draws`` uniform reorderings of each stratum's unit positions, in
    blocks of at most ``_BLOCK_DRAWS``, drawn from ``stream`` block after
    block in the order of :data:`DRAW_SCHEME`.

    Per block, yields (chunks, replay).  ``chunks`` draws the block's chunks
    from ``stream``, strata in order and each stratum's rows in order, as
    (j, lo, cut, units) (see :func:`_drawn_chunks`): a chunk of stratum j
    has max(1, 2^16 // n_j) rows, or what is left of the block, and is
    valid until the next one is read.  ``replay()`` reads the block's chunks
    again, from the stream's state at the block's start, and leaves
    ``stream`` alone.  Chunks the caller leaves unread are drawn before the
    next block, so the stream is consumed in order and the first blocks do
    not depend on how many follow."""
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
                                 np.empty_like(buffer), treated)

        chunks = _drawn_chunks(positions, stream, size, buffer, treated)
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
                                  _sampled_blocks(positions, stream, draws, layout.treated)):
        for j, lo, cut, _ in chunks:
            out[start + lo:start + lo + cut.shape[0], positions[j]] = cut
    return out
