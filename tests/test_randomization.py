"""Tests for stratified assignment sampling, enumeration, and p-value rules.

Enumeration oracles are rebuilt here from itertools; uniformity checks use
binomial confidence bounds wide enough to keep false alarms effectively
impossible at the fixed seeds.
"""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stratperm.randomization import (
    PermutationPlan,
    PValue,
    StratumLayout,
    count_assignments,
    count_within_stratum_permutations,
    derive_seed,
    derive_stream,
    enumerate_assignments,
    enumerate_within_stratum_permutations,
    monte_carlo_pvalue,
    orbit_blocks,
    sample_assignments,
    sample_within_stratum_permutations,
)

CONTIGUOUS = StratumLayout.from_counts((5, 7, 4), (2, 3, 1))
INTERLEAVED = StratumLayout(
    sizes=(3, 4, 2), treated=(1, 2, 1), codes=np.array([0, 1, 2, 1, 0, 1, 2, 0, 1])
)


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


def test_layout_from_assignment_roundtrip():
    strata = np.array(["b", "a", "b", "a", "b", "b"])
    z = np.array([1, 0, 0, 1, 1, 0])
    layout = StratumLayout.from_assignment(strata, z)
    assert layout.sizes == (2, 4)
    assert layout.treated == (1, 2)
    np.testing.assert_array_equal(layout.codes, [1, 0, 1, 0, 1, 1])


def test_layout_rejects_empty_arm():
    with pytest.raises(ValueError, match="0 < "):
        StratumLayout.from_counts((4, 4), (2, 4))
    with pytest.raises(ValueError, match="both arms"):
        StratumLayout.from_assignment(np.array([0, 0, 1, 1]), np.array([1, 0, 1, 1]))


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


def test_enumerate_assignments_matches_itertools_oracle():
    layout = StratumLayout.from_counts((4, 3), (2, 1))
    rows = enumerate_assignments(layout)
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
    rows = enumerate_assignments(layout)
    assert rows.shape == (4, 4)
    # stratum 0 lives at positions 0 and 2, stratum 1 at positions 1 and 3
    np.testing.assert_array_equal(rows[:, [0, 2]].sum(axis=1), np.ones(4))
    np.testing.assert_array_equal(rows[:, [1, 3]].sum(axis=1), np.ones(4))


def test_enumerate_permutations_matches_itertools_oracle():
    layout = StratumLayout.from_counts((3, 2), (1, 1))
    rows = enumerate_within_stratum_permutations(layout)
    assert rows.shape == (12, 5)
    oracle = {
        left + right
        for left in itertools.permutations((0, 1, 2))
        for right in itertools.permutations((3, 4))
    }
    assert {tuple(r) for r in rows} == oracle

    # stratum 0 at positions 0 and 2, stratum 1 at positions 1, 3 and 4
    layout = StratumLayout(sizes=(2, 3), treated=(1, 1), codes=np.array([0, 1, 0, 1, 1]))
    rows = enumerate_within_stratum_permutations(layout)
    oracle = []
    for left in itertools.permutations((0, 2)):
        for right in itertools.permutations((1, 3, 4)):
            oracle.append((left[0], right[0], left[1], right[1], right[2]))
    assert [tuple(r) for r in rows] == oracle


def test_enumeration_cap_reports_count():
    layout = StratumLayout.from_counts((16, 16), (8, 8))
    with pytest.raises(ValueError, match=str(12870 * 12870)):
        enumerate_assignments(layout)
    with pytest.raises(ValueError, match="monte_carlo"):
        enumerate_within_stratum_permutations(StratumLayout.from_counts((16,), (8,)))


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
    rows = enumerate_assignments(layout)
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
    labels shuffled with the stream, stratum after stratum."""
    out = np.empty((draws, layout.n_units), dtype=np.int8)
    for pos, n, t in zip(layout.stratum_positions(), layout.sizes, layout.treated):
        block = np.tile(np.repeat(np.int8([1, 0]), (t, n - t)), (draws, 1))
        stream.permuted(block, axis=1, out=block)
        out[:, pos] = block
    return out


@pytest.mark.parametrize("layout", [CONTIGUOUS, INTERLEAVED], ids=["contiguous", "interleaved"])
def test_assignments_are_permutation_draws_cut_at_treated_count(layout):
    # The test battery derives every assignment from the within-stratum
    # permutations it draws; this identity keeps the assignment draws those
    # of the label-shuffling sampler.
    perms = sample_within_stratum_permutations(layout, derive_stream(31), 500)
    expected = np.empty(perms.shape, dtype=np.int8)
    for pos, t in zip(layout.stratum_positions(), layout.treated):
        expected[:, pos] = np.searchsorted(pos, perms[:, pos]) < t
    np.testing.assert_array_equal(sample_assignments(layout, derive_stream(31), 500), expected)
    np.testing.assert_array_equal(
        _assignments_by_shuffling_labels(layout, derive_stream(31), 500), expected
    )


@pytest.mark.parametrize("mode", ["monte_carlo", "exact"])
def test_orbit_blocks_are_the_columns_of_the_full_draws(mode):
    plan = PermutationPlan(layout=INTERLEAVED, mode=mode, draws=300, master_seed=8)
    if mode == "exact":
        z = enumerate_assignments(INTERLEAVED)
        perms = enumerate_within_stratum_permutations(INTERLEAVED)
    else:
        z = sample_assignments(INTERLEAVED, plan.stream(), 300)
        perms = sample_within_stratum_permutations(INTERLEAVED, plan.stream(), 300)
    blocks = list(orbit_blocks(plan))
    assert len(blocks) == INTERLEAVED.n_strata
    for (pos, treated, units), want in zip(blocks, INTERLEAVED.stratum_positions()):
        np.testing.assert_array_equal(pos, want)
        np.testing.assert_array_equal(treated, z[:, pos] == 1)
        np.testing.assert_array_equal(units, perms[:, pos])


def test_sample_assignment_repeatable_from_same_seed():
    layout = StratumLayout.from_counts((6, 6), (3, 3))
    first = sample_assignments(layout, derive_stream(123, 4), 1)
    second = sample_assignments(layout, derive_stream(123, 4), 1)
    np.testing.assert_array_equal(first, second)


# ---------------------------------------------------------------------------
# p-value rules


def test_monte_carlo_pvalue_known_count():
    draws = np.arange(1.0, 11.0)  # 1..10
    p = monte_carlo_pvalue(5.5, draws, tail="two_sided")
    assert p.exceedances == 5
    assert p.value == pytest.approx(6.0 / 11.0)
    assert p.mode == "monte_carlo"


def test_monte_carlo_pvalue_counts_ties():
    draws = np.array([1.0, 2.0, 3.0])
    p = monte_carlo_pvalue(2.0, draws, tail="two_sided")
    assert p.exceedances == 2  # the tie at 2.0 and the 3.0


def test_right_tail_uses_signed_values():
    draws = np.array([-3.0, -1.0, 0.0, 1.0, 3.0])
    two = monte_carlo_pvalue(2.0, draws, tail="two_sided")
    right = monte_carlo_pvalue(2.0, draws, tail="right")
    assert two.exceedances == 2
    assert right.exceedances == 1


def test_exact_mode_divides_by_orbit_size():
    draws = np.array([0.5, 1.0, 1.5, 2.0])
    p = monte_carlo_pvalue(1.5, draws, mode="exact", tail="two_sided")
    assert p.value == pytest.approx(2.0 / 4.0)


def test_exact_mode_requires_observed_in_orbit():
    with pytest.raises(ValueError, match="orbit"):
        monte_carlo_pvalue(9.0, np.array([0.1, 0.2]), mode="exact")


def test_pvalue_validates_range():
    with pytest.raises(ValueError):
        PValue(value=0.0, exceedances=0, draws=10, mode="monte_carlo")
    with pytest.raises(ValueError):
        PValue(value=1.2, exceedances=12, draws=10, mode="monte_carlo")


def test_monte_carlo_pvalue_rejects_bad_input():
    with pytest.raises(ValueError):
        monte_carlo_pvalue(math.inf, np.array([1.0]))
    with pytest.raises(ValueError):
        monte_carlo_pvalue(1.0, np.array([]))
    with pytest.raises(ValueError):
        monte_carlo_pvalue(1.0, np.array([1.0]), tail="left")


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=80),
    st.floats(-50, 50),
)
def test_pvalue_bounds_and_monotonicity(draws, observed):
    draws = np.asarray(draws, dtype=float)
    p = monte_carlo_pvalue(observed, draws, tail="two_sided")
    assert 1.0 / (draws.size + 1) <= p.value <= 1.0
    stronger = monte_carlo_pvalue(observed * 2.0, draws, tail="two_sided")
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
