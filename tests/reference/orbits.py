"""Whole orbits stacked into one matrix: the tests' reference.

The package never builds a (draws, units) matrix of assignments or
permutations; its test battery walks a plan's orbit block by block, sampling
a Monte-Carlo orbit in chunks and enumerating an exact orbit one stratum at
a time (``stratperm.hypothesis_tests._blocks``).  This module builds the
same orbits the explicit way, from ``itertools`` and a layout's stratum
positions alone, so that the walk and the oracle tests can be checked
against it.  It imports nothing from the package.
"""

from __future__ import annotations

import itertools

import numpy as np

# Draws per block of the package's draw scheme.
BLOCK_DRAWS = 1024


def all_assignments(layout) -> np.ndarray:
    """Every assignment of ``layout`` as a (count, n_units) 0/1 int8 matrix.

    Row order is lexicographic over the strata's treated sets, earlier
    strata slowest: ``itertools.product`` over each stratum's
    ``itertools.combinations`` of its unit positions.
    """
    per_stratum = [itertools.combinations(pos.tolist(), t)
                   for pos, t in zip(layout.stratum_positions(), layout.treated)]
    rows = []
    for chosen in itertools.product(*per_stratum):
        row = [0] * layout.n_units
        for units in chosen:
            for i in units:
                row[i] = 1
        rows.append(row)
    return np.array(rows, dtype=np.int8)


def all_within_stratum_permutations(layout) -> np.ndarray:
    """Every within-stratum reordering of ``layout`` as a (count, n_units)
    index matrix: ``values[out[r]]`` is the r-th reordering of ``values``.

    Row order is lexicographic, earlier strata slowest: ``itertools.product``
    over each stratum's ``itertools.permutations`` of its unit positions.
    """
    positions = [pos.tolist() for pos in layout.stratum_positions()]
    rows = []
    for moved in itertools.product(*(itertools.permutations(pos) for pos in positions)):
        row = [0] * layout.n_units
        for pos, perm in zip(positions, moved):
            for i, unit in zip(pos, perm):
                row[i] = unit
        rows.append(row)
    return np.array(rows, dtype=np.intp)


def sample_within_stratum_permutations(layout, stream: np.random.Generator,
                                       draws: int) -> np.ndarray:
    """(draws, n_units) index matrix of uniform within-stratum reorderings.

    Row b moves units only inside their stratum: ``values[out[b]]`` is draw
    b's reordering of ``values``.  Draws come from ``stream`` in blocks of
    1,024, block after block and, within a block, stratum after stratum:
    each stratum's unit positions, tiled once per draw and shuffled row by
    row with ``Generator.permuted``.
    """
    out = np.empty((draws, layout.n_units), dtype=np.intp)
    for start in range(0, draws, BLOCK_DRAWS):
        rows = slice(start, min(start + BLOCK_DRAWS, draws))
        for pos in layout.stratum_positions():
            block = np.tile(pos, (rows.stop - start, 1))
            stream.permuted(block, axis=1, out=block)
            out[rows, pos] = block
    return out
