import math

import numpy as np
import pytest

from wickfield.partitions import (
    CombinatorialBlowupError,
    SetPartition,
    bell_number,
    enumerate_partitions,
    enumerate_restricted,
    factorial_partition_sum,
    verify_comb_est,
    weighted_partition_sum,
)
from wickfield.reports import BoundReport

from conftest import brute_partitions, group_ranges, is_restricted, rgs_ordered_partitions

BELL = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597]


def as_sets(partition: SetPartition):
    return frozenset(frozenset(b) for b in partition.blocks)


@pytest.mark.parametrize("n", range(13))
def test_bell_numbers(n):
    assert bell_number(n) == BELL[n]
    with pytest.raises(ValueError):
        bell_number(-1)


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_matches_brute_force(n):
    ours = [as_sets(p) for p in enumerate_partitions(n)]
    assert len(ours) == len(set(ours)) == bell_number(n)
    assert set(ours) == set(brute_partitions(n))


@pytest.mark.parametrize("n", range(1, 9))
def test_enumeration_streams_restricted_growth_string_order(n):
    assert list(enumerate_partitions(n)) == rgs_ordered_partitions(n)


def test_partitions_are_valid():
    for part in enumerate_partitions(5):
        seen = [i for block in part.blocks for i in block]
        assert sorted(seen) == list(range(5))


def test_blocks_sorted_by_minimum():
    for part in enumerate_partitions(5):
        mins = [min(b) for b in part.blocks]
        assert mins == sorted(mins)
        assert mins[0] == 0


def test_size_guard():
    with pytest.raises(CombinatorialBlowupError, match="partitions of 15 elements") as err:
        list(enumerate_partitions(15))
    assert err.value.n == 15
    assert "size_guard" not in str(err.value)


def test_from_blocks_validation():
    SetPartition.from_blocks([(0, 2), (1,)])
    with pytest.raises(ValueError):
        SetPartition.from_blocks([(0, 1), (1, 2)])  # overlap
    with pytest.raises(ValueError):
        SetPartition.from_blocks([(0,), (2,)], parent_length=3)  # gap


@pytest.mark.parametrize("n,expected", [(1, 1), (2, 3), (3, 13), (4, 73),
                                        (5, 501), (6, 4051)])
def test_factorial_partition_sum_small(n, expected):
    assert factorial_partition_sum(n) == expected


@pytest.mark.parametrize("n", range(1, 8))
def test_factorial_partition_sum_matches_enumeration(n):
    direct = sum(math.prod(math.factorial(len(b)) for b in p.blocks)
                 for p in enumerate_partitions(n))
    assert factorial_partition_sum(n) == direct


def test_factorial_partition_sum_large_no_guard():
    # the recurrence enumerates nothing, so no size guard applies at n = 20
    val = factorial_partition_sum(20)
    assert val > 0


def enumerated_weighted_sum(n, w):
    total = 0
    for part in enumerate_partitions(n):
        total += math.prod(w[len(b)] for b in part.blocks)
    return total


@pytest.mark.parametrize("n", range(1, 9))
def test_weighted_partition_sum_matches_enumeration(n):
    rng = np.random.default_rng(n)
    ints = [0] + [int(v) for v in rng.integers(-3, 6, size=n)]
    assert weighted_partition_sum(n, ints) == enumerated_weighted_sum(n, ints)
    floats = {k: float(v) for k, v in enumerate(rng.random(n + 1))}
    want = enumerated_weighted_sum(n, floats)
    assert weighted_partition_sum(n, floats) == pytest.approx(want, rel=1e-12)
    # bit for bit, the recurrence folded left to right in k, as builtin sum
    # did only before Python 3.12
    a = [1]
    for m in range(1, n + 1):
        total = 0
        for k in range(1, m + 1):
            total = total + math.comb(m - 1, k - 1) * floats[k] * a[m - k]
        a.append(total)
    assert weighted_partition_sum(n, floats) == a[n]


def test_verify_comb_est_beyond_float_range():
    # 2n = 170: (2n)! e^(2n) and the exact sum both overflow a float, so
    # the flag must come from the log-space comparison
    rep = verify_comb_est(85)
    assert rep.lhs == math.inf and rep.rhs == math.inf
    assert rep.flag
    assert rep.log_sides[0] == pytest.approx(math.log(int(rep.witnesses["lhs_exact"])))
    assert 0.0 <= rep.ratio < 1e-50


def test_log_sides_decide_the_flag():
    # overflowed sides read inf <= inf; the logs still reject a violation
    rep = BoundReport("overflowed", math.inf, math.inf, log_sides=(800.0, 700.0))
    assert not rep.flag


@pytest.mark.parametrize("n", range(1, 7))
def test_verify_comb_est_flags(n):
    rep = verify_comb_est(n)
    assert rep.flag
    assert rep.lhs == factorial_partition_sum(2 * n)
    assert rep.rhs == pytest.approx(math.factorial(2 * n) * math.e ** (2 * n))


def test_restricted_no_internal_blocks():
    groups = ((0, 1), (2, 3))
    ranges, _ = group_ranges(groups)
    for part in enumerate_restricted(groups):
        for block in part.blocks:
            for rng in ranges:
                assert not all(i in rng for i in block)


def test_restricted_two_pairs_count():
    # E[:y1 y2: :y3 y4:] expands over exactly three partitions
    parts = [frozenset(frozenset(b) for b in p.blocks)
             for p in enumerate_restricted(((0, 1), (2, 3)))]
    expected = {
        frozenset({frozenset({0, 2}), frozenset({1, 3})}),
        frozenset({frozenset({0, 3}), frozenset({1, 2})}),
        frozenset({frozenset({0, 1, 2, 3})}),
    }
    assert set(parts) == expected


def test_restricted_single_group_with_tail():
    # E[:y1 y2: y3] = kappa(y1, y2, y3): only the full block survives
    parts = list(enumerate_restricted(((0, 1),), tail=(2,)))
    assert len(parts) == 1
    assert as_sets(parts[0]) == frozenset({frozenset({0, 1, 2})})


def test_restricted_tail_blocks_allowed():
    # blocks fully inside the tail are not filtered out
    parts = list(enumerate_restricted((), tail=(0, 1)))
    assert len(parts) == bell_number(2)


def test_restricted_matches_filter():
    groups = ((0, 1, 2), (3, 4))
    ranges, _ = group_ranges(groups, tail=(5,))
    expected = [as_sets(p) for p in rgs_ordered_partitions(6)
                if is_restricted(p, ranges)]
    got = [as_sets(p) for p in enumerate_restricted(groups, tail=(5,))]
    assert got == expected


def shapes(max_positions):
    """Every (group lengths, tail length) with at most max_positions."""
    def compositions(total):
        if total == 0:
            yield ()
            return
        for first in range(1, total + 1):
            for rest in compositions(total - first):
                yield (first,) + rest

    for total in range(1, max_positions + 1):
        for tail_len in range(total + 1):
            for lengths in compositions(total - tail_len):
                yield lengths, tail_len


def test_restricted_every_shape_matches_filter():
    oracle = {n: rgs_ordered_partitions(n) for n in range(1, 8)}
    for lengths, tail_len in shapes(7):
        groups = tuple(tuple(range(k)) for k in lengths)
        tail = tuple(range(tail_len))
        ranges, _ = group_ranges(groups, tail)
        expected = [p for p in oracle[sum(lengths) + tail_len]
                    if is_restricted(p, ranges)]
        first = list(enumerate_restricted(groups, tail))
        assert first == expected, (lengths, tail_len)
        assert list(enumerate_restricted(groups, tail)) == first


def test_restricted_keeps_size_guard():
    with pytest.raises(CombinatorialBlowupError, match="partitions of 15 elements"):
        list(enumerate_restricted((tuple(range(5)), tuple(range(5, 10))),
                                  tail=tuple(range(10, 15))))
