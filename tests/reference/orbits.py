"""Monte-Carlo orbits stacked into one matrix: the tests' reference.

The package never builds a (draws, units) matrix of permutations; its test
battery reads a plan's draws block by block from
:func:`stratperm.randomization.orbit_blocks`.  This module draws the same
permutations the explicit way, as ``DRAW_SCHEME`` describes them, so that
the block reader and the oracle tests can be checked against it.
"""

from __future__ import annotations

import numpy as np

# Draws per block of the package's draw scheme.
BLOCK_DRAWS = 1024


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
