"""Tests for stratified assignment sampling, enumeration, and p-value rules.

Enumeration oracles are rebuilt here and in ``reference.orbits`` from
itertools; uniformity checks use binomial confidence bounds wide enough to
keep false alarms effectively impossible at the fixed seeds.
"""
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratperm import hypothesis_tests
from stratperm.hypothesis_tests import (
    METHODS,
    PValue,
    TrialData,
    _exceedances,
    _pvalue,
    _subgrids,
)
from stratperm.randomization import (
    PermutationPlan,
    StratumLayout,
    count_assignments,
    count_within_stratum_permutations,
    derive_seed,
    derive_stream,
    enumerate_assignments,
    enumerate_within_stratum_permutations,
    orbit_blocks,
    sample_assignments,
)

from reference.orbits import (
    all_assignments,
    all_within_stratum_permutations,
    sample_within_stratum_permutations,
)

CONTIGUOUS = StratumLayout.from_counts((5, 7, 4), (2, 3, 1))
INTERLEAVED = StratumLayout(
    sizes=(3, 4, 2), treated=(1, 2, 1), codes=np.array([0, 1, 2, 1, 0, 1, 2, 0, 1])
)

# Strata of 200 and 70 units are drawn in chunks of 327 and 936 rows; one of
# 16 units in one chunk per block.
CHUNKED = StratumLayout.from_counts((200, 70, 16), (90, 35, 5))


# ---------------------------------------------------------------------------
# seed derivation


def test_derive_stream_is_deterministic_per_key():
    a = derive_stream(42, 3, 1).integers(0, 2**63, size=8)
    b = derive_stream(42, 3, 1).integers(0, 2**63, size=8)
    np.testing.assert_array_equal(a, b)


def test_derive_stream_differs_across_keys():
    base = derive_stream(42).integers(0, 2**63, size=8)
    for key in [(0,), (1,), (0, 0), (0, 1), (1, 0)]:
        other = derive_stream(42, *key).integers(0, 2**63, size=8)
        assert not np.array_equal(base, other)


def test_derive_seed_is_stable_and_key_sensitive():
    assert derive_seed(7, 1, 2) == derive_seed(7, 1, 2)
    seen = {derive_seed(7), derive_seed(7, 0), derive_seed(7, 1), derive_seed(8)}
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# layouts


def test_layout_from_counts_and_positions():
    layout = StratumLayout.from_counts((3, 2), (1, 1))
    assert layout.n_units == 5
    assert layout.n_strata == 2
    np.testing.assert_array_equal(layout.codes, [0, 0, 0, 1, 1])
    positions = layout.stratum_positions()
    np.testing.assert_array_equal(positions[0], [0, 1, 2])
    np.testing.assert_array_equal(positions[1], [3, 4])


def test_layout_rejects_empty_arm():
    with pytest.raises(ValueError, match="0 < "):
        StratumLayout.from_counts((4, 4), (2, 4))


def test_layout_rejects_code_mismatch():
    with pytest.raises(ValueError, match="codes"):
        StratumLayout(sizes=(2, 2), treated=(1, 1), codes=np.array([0, 0, 0, 1]))


# ---------------------------------------------------------------------------
# counting and enumeration


def test_orbit_counts():
    assert count_assignments(StratumLayout.from_counts((4, 4), (2, 2))) == 36
    assert count_assignments(StratumLayout.from_counts((16,), (8,))) == 12870
    assert (
        count_within_stratum_permutations(StratumLayout.from_counts((4, 4), (2, 2)))
        == 576
    )
    assert (
        count_within_stratum_permutations(StratumLayout.from_counts((3, 2), (1, 1)))
        == 12
    )


def test_per_stratum_enumerators_follow_itertools_order():
    for n, t in ((2, 1), (4, 2), (5, 3), (7, 1)):
        rows = enumerate_assignments(n, t)
        assert rows.dtype == np.bool_
        assert [tuple(np.flatnonzero(r)) for r in rows] == list(
            itertools.combinations(range(n), t))
        perms = enumerate_within_stratum_permutations(n)
        assert perms.dtype == np.intp
        assert [tuple(r) for r in perms] == list(itertools.permutations(range(n)))


def _traced_peak(build):
    """``build()`` and the peak memory traced while it ran."""
    tracemalloc.start()
    try:
        out = build()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


def test_enumerators_build_no_python_rows():
    # The rows are written straight into their array: a list of Python
    # tuples would take several times the array's size on the way.
    perms, peak = _traced_peak(lambda: enumerate_within_stratum_permutations(8))
    assert perms.shape == (40_320, 8)
    assert peak < 1.25 * perms.nbytes, peak / perms.nbytes
    # An assignment matrix is made from the index matrix of its treated units.
    rows, peak = _traced_peak(lambda: enumerate_assignments(16, 8))
    chosen = rows.shape[0] * 8 * np.dtype(np.intp).itemsize
    assert rows.shape == (12_870, 16)
    assert peak < 1.25 * (rows.nbytes + chosen), peak / (rows.nbytes + chosen)


def test_enumerate_assignments_matches_itertools_oracle():
    # The reference orbit of a two-stratum layout, against a set built here.
    layout = StratumLayout.from_counts((4, 3), (2, 1))
    rows = all_assignments(layout)
    assert rows.shape == (6 * 3, 7)

    oracle = set()
    for left in itertools.combinations(range(4), 2):
        for right in itertools.combinations(range(4, 7), 1):
            z = np.zeros(7, dtype=np.int8)
            z[list(left)] = 1
            z[list(right)] = 1
            oracle.add(tuple(z))
    assert {tuple(r) for r in rows} == oracle
    assert len({tuple(r) for r in rows}) == rows.shape[0]


def test_enumerate_assignments_respects_interleaved_codes():
    layout = StratumLayout(
        sizes=(2, 2), treated=(1, 1), codes=np.array([0, 1, 0, 1])
    )
    rows = all_assignments(layout)
    assert rows.shape == (4, 4)
    # stratum 0 lives at positions 0 and 2, stratum 1 at positions 1 and 3
    np.testing.assert_array_equal(rows[:, [0, 2]].sum(axis=1), np.ones(4))
    np.testing.assert_array_equal(rows[:, [1, 3]].sum(axis=1), np.ones(4))


def test_enumerate_permutations_matches_itertools_oracle():
    layout = StratumLayout.from_counts((3, 2), (1, 1))
    rows = all_within_stratum_permutations(layout)
    assert rows.shape == (12, 5)
    oracle = {
        left + right
        for left in itertools.permutations((0, 1, 2))
        for right in itertools.permutations((3, 4))
    }
    assert {tuple(r) for r in rows} == oracle

    # stratum 0 at positions 0 and 2, stratum 1 at positions 1, 3 and 4
    layout = StratumLayout(sizes=(2, 3), treated=(1, 1), codes=np.array([0, 1, 0, 1, 1]))
    rows = all_within_stratum_permutations(layout)
    oracle = []
    for left in itertools.permutations((0, 2)):
        for right in itertools.permutations((1, 3, 4)):
            oracle.append((left[0], right[0], left[1], right[1], right[2]))
    assert [tuple(r) for r in rows] == oracle


def _exact_trial(sizes, treated):
    """A trial of ``sizes`` units, ``treated`` of them treated per stratum,
    and its exact plan."""
    rng = np.random.default_rng(19)
    strata = np.repeat(np.arange(len(sizes)), sizes)
    z = np.concatenate([np.repeat(np.int8([1, 0]), (t, n - t)) for n, t in zip(sizes, treated)])
    x = rng.standard_normal(strata.size)
    data = TrialData.from_arrays(strata, z, x, x + 0.5 * z + rng.standard_normal(strata.size))
    return data, PermutationPlan(layout=data.layout, mode="exact")


def test_enumeration_cap_reports_count():
    # The cap applies to the whole orbit a plan's tests need: 924^2
    # assignments are under it, (12!)^2 permutations and 12870^2
    # assignments are not.
    data, plan = _exact_trial((12, 12), (6, 6))
    result = METHODS["stratified_diff_means"](data, plan)
    assert result.p_value.draws == 924 ** 2 == 853_776
    with pytest.raises(ValueError, match="229442532802560000 permutations.*monte_carlo"):
        METHODS["freedman_lane"](data, plan)
    data, plan = _exact_trial((16, 16), (8, 8))
    with pytest.raises(ValueError, match=f"{12870 ** 2} assignments.*monte_carlo"):
        METHODS["stratified_diff_means"](data, plan)


# ---------------------------------------------------------------------------
# sampling


def test_sampled_assignments_have_exact_treated_counts():
    layout = StratumLayout.from_counts((5, 7, 4), (2, 3, 1))
    draws = sample_assignments(layout, derive_stream(1), 200)
    positions = layout.stratum_positions()
    for pos, t in zip(positions, layout.treated):
        np.testing.assert_array_equal(draws[:, pos].sum(axis=1), np.full(200, t))


def test_single_pair_assignment_frequency():
    # sizes=(2,), treated=(1,): (1, 0) should come up half the time
    layout = StratumLayout.from_counts((2,), (1,))
    stream = derive_stream(2024)
    draws = sample_assignments(layout, stream, 10_000)
    freq = np.mean((draws[:, 0] == 1) & (draws[:, 1] == 0))
    assert freq == pytest.approx(0.5, abs=0.015)


def test_assignment_sampling_is_uniform_over_orbit():
    layout = StratumLayout.from_counts((4, 4), (2, 2))
    rows = all_assignments(layout)
    keys = {tuple(r): i for i, r in enumerate(rows)}
    stream = derive_stream(77)
    draws = sample_assignments(layout, stream, 36_000)
    counts = np.zeros(36)
    for d in draws:
        counts[keys[tuple(d)]] += 1
    # each cell is Binomial(36000, 1/36): mean 1000, sd ~31; allow 5 sigma
    assert counts.min() > 1000 - 5 * 31.2
    assert counts.max() < 1000 + 5 * 31.2


def test_within_stratum_permutation_sampling_stays_in_blocks():
    layout = StratumLayout.from_counts((4, 6), (2, 3))
    draws = sample_within_stratum_permutations(layout, derive_stream(5), 300)
    for pos in layout.stratum_positions():
        block = draws[:, pos]
        assert np.all(np.sort(block, axis=1) == pos)


def _assignments_by_shuffling_labels(layout, stream, draws):
    """The sampler assignments were first defined by: each stratum's 0/1
    labels shuffled with the stream, in blocks of 1,024 draws, stratum after
    stratum within a block."""
    out = np.empty((draws, layout.n_units), dtype=np.int8)
    for start in range(0, draws, 1024):
        rows = slice(start, min(start + 1024, draws))
        for pos, n, t in zip(layout.stratum_positions(), layout.sizes, layout.treated):
            block = np.tile(np.repeat(np.int8([1, 0]), (t, n - t)), (rows.stop - start, 1))
            stream.permuted(block, axis=1, out=block)
            out[rows, pos] = block
    return out


@pytest.mark.parametrize("layout", [CONTIGUOUS, INTERLEAVED, CHUNKED],
                         ids=["contiguous", "interleaved", "chunked"])
def test_assignments_are_permutation_draws_cut_at_treated_count(layout):
    # The test battery derives every assignment from the within-stratum
    # permutations it draws; this identity keeps the assignment draws those
    # of the label-shuffling sampler.  2,500 draws span three blocks.
    perms = sample_within_stratum_permutations(layout, derive_stream(31), 2500)
    expected = np.empty(perms.shape, dtype=np.int8)
    for pos, t in zip(layout.stratum_positions(), layout.treated):
        expected[:, pos] = np.searchsorted(pos, perms[:, pos]) < t
    np.testing.assert_array_equal(sample_assignments(layout, derive_stream(31), 2500), expected)
    np.testing.assert_array_equal(
        _assignments_by_shuffling_labels(layout, derive_stream(31), 2500), expected
    )


def _copied(chunks) -> list:
    """The chunks as a list, copied: a chunk's arrays are only valid until
    the next chunk is read."""
    return [(j, lo, None if t is None else t.copy(), None if u is None else u.copy())
            for j, lo, t, u in chunks]


def _read(blocks) -> list:
    """Each block as the list of its chunks, read before the next block."""
    return [_copied(chunks) for chunks, _ in blocks]


def _stacked(blocks, n_strata, k):
    """Per stratum, item k (2: treated, 3: units) of its chunks in every
    block, stacked."""
    return [np.concatenate([c[k] for block in blocks for c in block if c[0] == j])
            for j in range(n_strata)]


@pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
def test_orbit_blocks_are_the_columns_of_the_full_draws(mode, monkeypatch):
    plan = PermutationPlan(layout=INTERLEAVED, mode=mode, draws=2500, master_seed=8)
    positions = INTERLEAVED.stratum_positions()
    blocks = _read(orbit_blocks(plan))
    for block in blocks:
        # Strata in order, each stratum's chunks in row order.
        assert [j for j, *_ in block] == sorted(j for j, *_ in block)
        for j, lo, treated, units in block:
            assert units is None or np.all(np.sort(units, axis=1) == positions[j])
    if mode == "exact":
        # One crossed block per kind, assignments first, of one chunk per
        # stratum: each stratum's orbit once, from the per-stratum
        # enumerators.  Draw r combines the strata's rows in C order,
        # earlier strata slowest, which is the reference enumeration's order.
        assignments, permutations = blocks
        assert [(j, lo, u) for j, lo, _, u in assignments] == [(0, 0, None), (1, 0, None),
                                                               (2, 0, None)]
        assert [(j, lo, t) for j, lo, t, _ in permutations] == [(0, 0, None), (1, 0, None),
                                                                (2, 0, None)]
        for j, n, t in zip(range(3), INTERLEAVED.sizes, INTERLEAVED.treated):
            np.testing.assert_array_equal(assignments[j][2], enumerate_assignments(n, t))
            np.testing.assert_array_equal(
                permutations[j][3], positions[j][enumerate_within_stratum_permutations(n)])
        # Per kind, the sub-grids the battery scores, stacked in order, are
        # the whole orbit, and none holds more than the bound: one sub-grid
        # at the default bound, 6 and 48 at a bound of 7.
        for bound, cuts in ((hypothesis_tests._EXACT_BLOCK_DRAWS, (1, 1)), (7, (6, 48))):
            monkeypatch.setattr(hypothesis_tests, "_EXACT_BLOCK_DRAWS", bound)
            for full, block, k, count in ((all_assignments(INTERLEAVED) == 1, assignments, 2,
                                           cuts[0]),
                                          (all_within_stratum_permutations(INTERLEAVED),
                                           permutations, 3, cuts[1])):
                strata = [c[k] for c in block]
                grids = list(_subgrids([rows.shape[0] for rows in strata]))
                assert len(grids) == count
                stacked = [[] for _ in strata]
                for grid in grids:
                    parts = [rows[g] for rows, g in zip(strata, grid)]
                    at = np.unravel_index(np.arange(math.prod(p.shape[0] for p in parts)),
                                          [p.shape[0] for p in parts])
                    assert at[0].size <= bound
                    for out, part, rows in zip(stacked, parts, at):
                        out.append(part[rows])
                for pos, out in zip(positions, stacked):
                    np.testing.assert_array_equal(full[:, pos], np.concatenate(out))
        return
    z = sample_assignments(INTERLEAVED, plan.stream(), 2500)
    perms = sample_within_stratum_permutations(INTERLEAVED, plan.stream(), 2500)
    # Monte-Carlo blocks hold at most 1,024 draws, block-major; strata this
    # small are one chunk per block.
    assert [[(j, lo, t.shape[0], u.shape[0]) for j, lo, t, u in b] for b in blocks] == [
        [(j, 0, size, size) for j in range(3)] for size in (1024, 1024, 452)]
    for pos, treated, units in zip(positions, _stacked(blocks, 3, 2), _stacked(blocks, 3, 3)):
        np.testing.assert_array_equal(treated, z[:, pos] == 1)
        np.testing.assert_array_equal(units, perms[:, pos])


@pytest.mark.parametrize("counts,bound,sizes", [
    # perfbench's exact assignment orbit: stratum 0 in runs of 8,192 // 420.
    ((70, 70, 6), 1 << 13, [19 * 420] * 3 + [13 * 420]),
    ((3, 5, 4), 7, [4] * 15),
    ((3, 5, 4), 1, [1] * 60),
    ((3, 5, 4), 20, [20] * 3),
    ((3, 5, 4), 64, [60]),
    ((9, 4), 8, [8] * 4 + [4]),
])
def test_subgrids_are_contiguous_runs_of_the_orbit(counts, bound, sizes, monkeypatch):
    monkeypatch.setattr(hypothesis_tests, "_EXACT_BLOCK_DRAWS", bound)
    draws = np.arange(math.prod(counts)).reshape(counts)
    runs = [draws[grid].ravel() for grid in _subgrids(counts)]
    assert [run.size for run in runs] == sizes
    np.testing.assert_array_equal(np.concatenate(runs), draws.ravel())


def test_chunked_draws_equal_the_reference(monkeypatch):
    plan = PermutationPlan(layout=CHUNKED, draws=2500, master_seed=21)
    positions = CHUNKED.stratum_positions()
    reference = plan.stream()
    perms = sample_within_stratum_permutations(CHUNKED, reference, 2500)
    stream = plan.stream()
    monkeypatch.setattr(PermutationPlan, "stream", lambda self, *key: stream)
    read, replays = [], []
    for chunks, replay in orbit_blocks(plan):
        read.append(_copied(chunks))
        replays.append(replay)
    # The stream after the plan gives the reference's next draw.
    assert stream.integers(2**62) == reference.integers(2**62)
    assert [[(j, lo, u.shape[0]) for j, lo, _, u in b] for b in read] == [
        [(0, 0, 327), (0, 327, 327), (0, 654, 327), (0, 981, 43),
         (1, 0, 936), (1, 936, 88), (2, 0, 1024)]] * 2 + [
        [(0, 0, 327), (0, 327, 125), (1, 0, 452), (2, 0, 452)]]
    for pos, units in zip(positions, _stacked(read, 3, 3)):
        np.testing.assert_array_equal(units, perms[:, pos])
    z = sample_assignments(CHUNKED, derive_stream(21), 2500)
    for pos, treated in zip(positions, _stacked(read, 3, 2)):
        np.testing.assert_array_equal(treated, z[:, pos] == 1)
    # A replay reads the block's chunks again and leaves the stream alone.
    after = stream.bit_generator.state
    for replay, first in zip(replays, read):
        assert len(_copied(replay())) == len(first)
        for (j, lo, t, u), (j0, lo0, t0, u0) in zip(replay(), first):
            assert (j, lo) == (j0, lo0)
            np.testing.assert_array_equal(t, t0)
            np.testing.assert_array_equal(u, u0)
    assert stream.bit_generator.state == after


def test_first_blocks_do_not_depend_on_the_draw_count():
    # One stream consumed in order: a plan of 1,500 draws begins with the
    # draws of a plan of 1,024, and ends with a block of 476.
    for layout in (CONTIGUOUS, CHUNKED):
        short = PermutationPlan(layout=layout, draws=1024, master_seed=9)
        long = PermutationPlan(layout=layout, draws=1500, master_seed=9)
        (first,), blocks = _read(orbit_blocks(short)), _read(orbit_blocks(long))
        assert [sum(u.shape[0] for j, _, _, u in b if j == 0) for b in blocks] == [1024, 476]
        assert len(first) == len(blocks[0])
        for (j_a, lo_a, t_a, u_a), (j_b, lo_b, t_b, u_b) in zip(first, blocks[0]):
            assert (j_a, lo_a) == (j_b, lo_b)
            np.testing.assert_array_equal(t_a, t_b)
            np.testing.assert_array_equal(u_a, u_b)


def test_sample_assignment_repeatable_from_same_seed():
    layout = StratumLayout.from_counts((6, 6), (3, 3))
    first = sample_assignments(layout, derive_stream(123, 4), 1)
    second = sample_assignments(layout, derive_stream(123, 4), 1)
    np.testing.assert_array_equal(first, second)


# ---------------------------------------------------------------------------
# p-value rules


def _p(observed, draws, mode="monte_carlo", tail="two_sided") -> PValue:
    """The p-value of ``observed`` against the null ``draws``."""
    draws = np.asarray(draws, dtype=float)
    return _pvalue(_exceedances(observed, draws, tail), draws.size, mode)


def test_monte_carlo_pvalue_known_count():
    draws = np.arange(1.0, 11.0)  # 1..10
    p = _p(5.5, draws)
    assert p.exceedances == 5
    assert p.value == pytest.approx(6.0 / 11.0)
    assert p.mode == "monte_carlo"


def test_monte_carlo_pvalue_counts_ties():
    draws = np.array([1.0, 2.0, 3.0])
    assert _exceedances(2.0, draws, "two_sided") == 2  # the tie at 2.0 and the 3.0


def test_right_tail_uses_signed_values():
    draws = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    assert _exceedances(2.0, draws, "two_sided") == 2
    assert _exceedances(2.0, draws, "right") == 1


def test_exact_mode_divides_by_orbit_size():
    draws = np.array([0.5, 1.0, 1.5, 2.0])
    p = _p(1.5, draws, mode="exact")
    assert p.value == pytest.approx(2.0 / 4.0)


def test_exact_mode_requires_observed_in_orbit():
    with pytest.raises(ValueError, match="orbit"):
        _p(9.0, np.array([0.1, 0.2]), mode="exact")


def test_pvalue_validates_range():
    with pytest.raises(ValueError):
        PValue(value=0.0, exceedances=0, draws=10, mode="monte_carlo")
    with pytest.raises(ValueError):
        PValue(value=1.2, exceedances=12, draws=10, mode="monte_carlo")


def test_monte_carlo_pvalue_rejects_bad_input():
    with pytest.raises(ValueError):
        _exceedances(math.inf, np.array([1.0]), "two_sided")
    with pytest.raises(ValueError):
        _exceedances(1.0, np.array([1.0]), "left")
    with pytest.raises(ValueError):
        _pvalue(1, 1, "bootstrap")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=80),
    st.floats(-50, 50),
)
def test_pvalue_bounds_and_monotonicity(draws, observed):
    draws = np.asarray(draws, dtype=float)
    p = _p(observed, draws)
    assert 1.0 / (draws.size + 1) <= p.value <= 1.0
    stronger = _p(observed * 2.0, draws)
    if abs(observed * 2.0) >= abs(observed):
        assert stronger.value <= p.value


# ---------------------------------------------------------------------------
# plans


def test_plan_stream_keys_are_independent():
    layout = StratumLayout.from_counts((4, 4), (2, 2))
    plan = PermutationPlan(layout=layout, mode="monte_carlo", master_seed=11)
    a = plan.stream(0).integers(0, 2**63, size=4)
    b = plan.stream(1).integers(0, 2**63, size=4)
    again = plan.stream(0).integers(0, 2**63, size=4)
    np.testing.assert_array_equal(a, again)
    assert not np.array_equal(a, b)


def test_plan_validates_draws():
    layout = StratumLayout.from_counts((4,), (2,))
    with pytest.raises(ValueError):
        PermutationPlan(layout=layout, mode="monte_carlo", draws=0, master_seed=1)
