"""Set-partition enumeration and partition-weighted combinatorial sums.

One depth-first walk enumerates both plain and restricted partitions.
Partitions of ``{0, ..., n-1}`` are streamed from it, so memory stays
constant per item and consumers can fold bound checks incrementally.
Restricted partitions depend only on the shape of the groups, so each
shape's walk is run once and kept.  Blocks are emitted sorted by their
smallest element, which makes equality structural.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Iterator

SIZE_GUARD = 14


class CombinatorialBlowupError(ValueError):
    """Raised when an enumeration would exceed the size guard."""

    def __init__(self, n: int):
        super().__init__(
            f"refusing to enumerate partitions of {n} elements "
            f"(Bell({n}) = {bell_number(n)} items exceeds guard of {SIZE_GUARD} elements)"
        )
        self.n = n


@dataclass(frozen=True)
class SetPartition:
    """A partition of ``{0, ..., parent_length-1}`` into disjoint blocks.

    Blocks are tuples of sorted positions; the block list is sorted by
    smallest element.
    """

    blocks: tuple
    parent_length: int

    def __post_init__(self):
        seen = set()
        for block in self.blocks:
            if not block:
                raise ValueError("empty block in partition")
            seen.update(block)
        if seen != set(range(self.parent_length)):
            raise ValueError("blocks do not cover the parent positions")
        if len(seen) != sum(len(b) for b in self.blocks):
            raise ValueError("blocks are not disjoint")

    @classmethod
    def from_blocks(cls, blocks, parent_length=None) -> "SetPartition":
        norm = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        if parent_length is None:
            parent_length = sum(len(b) for b in norm)
        return cls(norm, parent_length)


def bell_number(n: int) -> int:
    """Bell number: the weighted partition sum with every weight 1."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return weighted_partition_sum(n, [1] * (n + 1)) if n else 1


def _check_guard(n: int):
    if n > SIZE_GUARD:
        raise CombinatorialBlowupError(n)


def enumerate_partitions(n: int) -> Iterator[SetPartition]:
    """Stream every partition of ``{0, ..., n-1}`` exactly once, in
    restricted-growth-string order: the walk of a shape with no groups."""
    if n < 1:
        raise ValueError("n must be >= 1")
    _check_guard(n)
    yield from _walk((), n)


def enumerate_restricted(groups, tail=()) -> Iterator[SetPartition]:
    """Partitions of the concatenation of groups and tail with no block
    internal to any one group.  Blocks inside the tail are permitted.

    Only the lengths of the groups matter; positions are assigned in
    concatenation order.  Each shape is enumerated once per process and
    replayed from then on.
    """
    lengths = tuple(len(g) for g in groups)
    total = sum(lengths) + len(tail)
    if total < 1:
        raise ValueError("need at least one position")
    _check_guard(total)
    yield from _restricted_shape(lengths, len(tail))


@functools.lru_cache(maxsize=None)
def _restricted_shape(lengths: tuple, tail_len: int) -> tuple:
    """Every partition the walk of one shape yields, kept for the process."""
    return tuple(_walk(lengths, tail_len))


def _walk(lengths: tuple, tail_len: int) -> Iterator[SetPartition]:
    """The restricted partitions of one shape, in restricted-growth-string
    order.

    A depth-first walk gives each position in turn every open block, then a
    new one.  A block whose positions all lie in one group must still be
    joined by a later position from outside that group, and each later
    position joins one block.  So a prefix is dropped once those blocks
    outnumber the later positions, or once the blocks inside the group of
    the next position outnumber the positions after that group.  The two
    counts are Hall's condition for the nested sets of positions that can
    still join them, so no restricted partition is lost, and at the last
    position they leave exactly the restricted ones.  With no groups
    nothing is dropped, and the walk yields every partition.
    """
    total = sum(lengths) + tail_len
    group_of = [g for g, k in enumerate(lengths) for _ in range(k)] + [None] * tail_len
    beyond = [total - end for end in itertools.accumulate(lengths)]
    blocks = []   # positions of each open block, in order of first position
    inside = []   # the group each block lies inside, or None
    lying = [0] * len(lengths)  # blocks lying inside each group

    def place(pos, loose):
        if loose > total - pos:
            return
        if pos == total:
            yield SetPartition(tuple(map(tuple, blocks)), total)
            return
        g = group_of[pos]
        if g is not None and lying[g] > beyond[g]:
            return
        for b, block in enumerate(blocks):
            was = inside[b]
            freed = was is not None and was != g
            block.append(pos)
            if freed:
                inside[b] = None
                lying[was] -= 1
            yield from place(pos + 1, loose - freed)
            if freed:
                inside[b] = was
                lying[was] += 1
            block.pop()
        blocks.append([pos])
        inside.append(g)
        if g is not None:
            lying[g] += 1
        yield from place(pos + 1, loose + (g is not None))
        if g is not None:
            lying[g] -= 1
        inside.pop()
        blocks.pop()

    yield from place(0, 0)


def weighted_partition_sum(n: int, w):
    """sum over partitions pi of {1..n} of prod_{S in pi} w[|S|].

    Exponential-formula recurrence (Stanley, EC2 5.1), conditioning on the
    block of the last element (choose k-1 companions out of m-1):
    a(m) = sum_k C(m-1, k-1) w[k] a(m-k), a(0) = 1.  O(n^2) terms and no
    enumeration; exact for integer weights, a left fold over k for floats.
    ``w`` is indexed by block size 1..n (a sequence or a mapping).
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    a = [1]
    for m in range(1, n + 1):
        a.append(0)
        for k in range(1, m + 1):
            a[m] += math.comb(m - 1, k - 1) * w[k] * a[m - k]
    return a[n]


def factorial_partition_sum(n: int) -> int:
    """Exact value of  sum over partitions pi of {1..n} of prod_{S in pi} |S|!,
    the weighted partition sum with w_k = k!.  The streamed enumeration is
    kept as a test oracle at small n."""
    return weighted_partition_sum(n, [math.factorial(k) for k in range(n + 1)])


def _float_or_inf(value) -> float:
    try:
        return float(value)
    except OverflowError:
        return math.inf


def verify_comb_est(n: int):
    """Check  sum_pi prod |S|!  <=  (2n)! e^(2n)  for partitions of 2n elements.

    The flag compares natural logarithms, ln of the exact integer against
    lgamma(2n+1) + 2n, so it stays decisive after the float sides overflow
    (2n >= 170); the float lhs and rhs then read inf.
    """
    from .reports import BoundReport

    lhs = factorial_partition_sum(2 * n)
    try:
        rhs = math.factorial(2 * n) * math.e ** (2 * n)
    except OverflowError:
        rhs = math.inf
    return BoundReport(
        inequality_id="factorial-partition-sum",
        lhs=_float_or_inf(lhs),
        rhs=rhs,
        witnesses={"n": n, "elements": 2 * n, "lhs_exact": str(lhs)},
        log_sides=(math.log(lhs), math.lgamma(2 * n + 1) + 2 * n),
    )
