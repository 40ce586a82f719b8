"""Multisets of a law's sites by rank, and the store of a real law's
cumulants.

A multiset of k positions in range(size) is a sorted row of k ints, and
the multisets of one order are ranked in ``combinations_with_replacement``
order by the combinatorial number system (``_multiset_rank``); a store
that holds orders 1, 2, ... one after the other indexes them from
``_order_offset``.  ``_OrderFill`` is that store for the cumulants of a
real law's single field variables, filled by the anchored recursion of
``cumulants`` over the subsets of ``_anchored_subsets``.
"""

from __future__ import annotations

import math
from functools import cache, lru_cache
from itertools import combinations, groupby

import numpy as np

from .indexing import SiteRef, canonical


#: the most entries, multisets times 2^(k - 1) (a moment and the
#: recursion's terms each), that order k is filled with whole; a larger
#: order is filled on demand
_FILL_ENTRIES = 1 << 18

#: the most multisets of one order a store holds; a larger order, of a law
#: of many sites, keeps the per-key recursion
_STORE_ENTRIES = 1 << 20


class _OrderFill:
    """kappa and the moments of the multisets of a real law's sites, by
    global multiset rank.

    The multisets of an order are the rows of ``_multisets`` over the sites
    in ``canonical`` order.  ``moments`` and ``kappas`` hold orders 1 to
    ``order`` one after the other, order k from ``_order_offset``, and
    ``known`` marks the entries filled; the arrays grow one
    order at a time, to the highest order a request has needed.  Each
    entry is filled once, in one of two ways:

    * Whole orders: while the provider gives an order's moments by
      ``order_moments`` and the order's plan fits within ``_FILL_ENTRIES``,
      orders 1 to ``whole`` are filled with ``_order_plan``.
    * On demand: every later order, and every order of a law that gives no
      moments by order.  A request fills its multisets and every
      sub-multiset of theirs of those orders, which is all the recursion
      reads: their moments in one ``provider.multiset_moments`` call, in
      lexicographic order, and their kappas one order at a time from the
      lowest.

    Either way the row of a multiset holds its moment and then the
    recursion's terms, moment times kappa, one per subset of
    ``_anchored_subsets`` in order, and one ``np.subtract.accumulate``
    along the rows subtracts them left to right, as
    ``CumulantTable._recurse`` does.  A
    real product w * kappa is the real part of the recursion's complex
    one, exactly, so each kappa is ``==`` to the recursion's.
    """

    def __init__(self, provider):
        refs = canonical(map(SiteRef, provider.sites))
        self.provider = provider
        self.size = len(refs)
        self._position = {ref.site: i for i, ref in enumerate(refs)}
        self.moments, self.kappas = np.empty(0), np.empty(0)
        self.known = np.empty(0, dtype=bool)
        self.order = self.whole = 0

    def holds(self, order: int) -> bool:
        """Whether the store keeps the multisets of ``order``: at most
        ``_STORE_ENTRIES`` of them."""
        return math.comb(self.size + order - 1, order) <= _STORE_ENTRIES

    def _grow(self, order: int):
        """Hold every order up to ``order``; an order after the whole ones
        is filled whole if the provider gives its moments and its plan
        fits, else left for requests to fill."""
        while self.order < order:
            k = self.order + 1
            count = math.comb(self.size + k - 1, k)
            moments = (self.provider.order_moments(k)
                       if self.whole == self.order and count << (k - 1) <= _FILL_ENTRIES
                       else None)
            filled = moments is not None
            if filled:
                kappas = self._fold(moments, *_order_plan(self.size, k))
            else:
                moments, kappas = np.empty(count), np.empty(count)
            self.moments = np.concatenate((self.moments, moments))
            self.kappas = np.concatenate((self.kappas, kappas))
            self.known = np.concatenate((self.known, np.full(count, filled)))
            self.whole += filled
            self.order = k

    def _fold(self, moments: np.ndarray, sub: np.ndarray, comp: np.ndarray) -> np.ndarray:
        """kappa of the multisets of one order from their moments and the
        store indices of their subsets' sub-multisets and rests, one row
        per multiset and column per subset."""
        rows = np.empty((len(moments), sub.shape[1] + 1))
        rows[:, 0] = moments
        np.multiply(self.moments[comp], self.kappas[sub], out=rows[:, 1:])
        return np.subtract.accumulate(rows, axis=1)[:, -1]

    def values(self, positions: np.ndarray) -> np.ndarray:
        """kappa of the multiset in each row of the int array of positions,
        sorted along its last axis, filled first where it is missing."""
        k = positions.shape[-1]
        if k > self.order:
            self._grow(k)
        ranks = self.index(positions)
        if k > self.whole:
            missing = ~self.known[ranks]
            if missing.any():
                self._fill(positions[missing], ranks[missing])
        return self.kappas[ranks]

    def _fill(self, rows: np.ndarray, ranks: np.ndarray):
        """Fill kappa of the multiset in each row of order k and of every
        sub-multiset of theirs of an order past ``whole``, all that the
        anchored recursion reads: the rows' own ``_subset_ranks`` name each
        of them, the anchored ones in ``sub`` and the rest in ``comp``.
        Their moments are measured in one ``provider.multiset_moments``
        call, in lexicographic order, so that a multiset comes just before
        the ones that extend it; then each order's kappas are folded, from
        the lowest up."""
        k = rows.shape[1]
        rows, ranks = self._unknown(rows, np.arange(k)[None], ranks[:, None])
        sub, comp = _subset_ranks(rows, self.size)
        found = {}
        start = 0
        for chosen, others in _subset_columns(k):
            group = slice(start, start + len(chosen))
            for cols, picked in ((chosen, sub[:, group]), (others, comp[:, group])):
                if cols.shape[1] > self.whole:
                    found.setdefault(cols.shape[1], []).append(self._unknown(rows, cols, picked))
            start = group.stop
        members = []
        for j in sorted(found):
            keys, picked = (np.concatenate(parts) for parts in zip(*found[j]))
            members.append(self._unknown(keys, np.arange(j)[None], picked[:, None]))
        members.append((rows, ranks))
        positions = [row for keys, _ in members for row in keys.tolist()]
        walk = sorted(range(len(positions)), key=positions.__getitem__)
        wanted = np.concatenate([ranks for _, ranks in members])[walk]
        self.moments[wanted] = self.provider.multiset_moments([positions[i] for i in walk])
        for keys, ranks in members:
            plan = (sub, comp) if keys is rows else _subset_ranks(keys, self.size)
            self.kappas[ranks] = self._fold(self.moments[ranks], *plan)
            self.known[ranks] = True

    def _unknown(self, keys: np.ndarray, cols: np.ndarray, ranks: np.ndarray) -> tuple:
        """The distinct multisets not yet known that the rows of ``cols``
        pick from the rows of ``keys``, whose store indices are ``ranks``,
        of shape (keys, cols): their positions and store indices, in rank
        order; a mark per multiset of the order stands in for a sort."""
        k = cols.shape[1]
        start = _order_offset(self.size, k)
        at = np.full(math.comb(self.size + k - 1, k), -1, dtype=np.intp)
        at[ranks.ravel() - start] = np.arange(ranks.size)
        at[self.known[start:start + len(at)]] = -1
        picks = at[at >= 0]
        row, col = np.divmod(picks, len(cols))
        return keys[row[:, None], cols[col]], ranks.ravel()[picks]

    def positions(self, refs) -> list:
        """The canonical position of the site of each ref; KeyError naming
        the first site the law does not have."""
        try:
            return [self._position[ref.site] for ref in refs]
        except KeyError as missing:
            raise KeyError(f"unknown site {missing.args[0]!r}") from None

    def index(self, positions: np.ndarray) -> np.ndarray:
        """The index in ``kappas`` of the multiset in each row of the int
        array of positions, sorted along its last axis."""
        return _multiset_rank(positions, self.size,
                              _order_offset(self.size, positions.shape[-1]))


def _multiset_rank(x: np.ndarray, size: int, start: int = 0) -> np.ndarray:
    """start plus the index in ``combinations_with_replacement(range(size),
    k)`` order of the multiset in each row of the int array x, sorted along
    its last axis of length k; the weights are ``_rank_weights``."""
    weights, steps, last = _rank_weights(size, x.shape[-1])
    return (start + last) - weights[x + steps].sum(axis=-1)


@cache
def _rank_weights(size: int, k: int) -> tuple:
    """(weights, steps, last) of ``_multiset_rank`` for multisets of k
    positions in range(size).

    In the combinatorial number system, z_1 <= ... <= z_k has the colex
    rank sum_i C(z_i + i - 1, i), with i from 1; for z the sorted
    size - 1 - x, that rank counts back from the last multiset, at index
    ``last``.  So the entry x_p of a sorted row, p from 0, adds
    C(size - 2 + k - p - x_p, k - p) to it: that is weights[p * size + x_p],
    and ``steps`` holds the p * size.
    """
    weights = np.array([math.comb(size - 2 + k - p - x, k - p)
                        for p in range(k) for x in range(size)], dtype=np.int64)
    last = math.comb(size + k - 1, k) - 1 if size + k else 0
    return weights, np.arange(k, dtype=np.intp) * size, last


@lru_cache(maxsize=64)
def _multisets(size: int, k: int) -> np.ndarray:
    """The multisets of k positions in range(size), one sorted row each, in
    ``combinations_with_replacement`` order, as a read-only intp array.

    The rows that start at a are a followed by each row of order k - 1 that
    starts at a or later, a tail of that order's rows, so each order is
    built from the one below."""
    rows = np.zeros((1, 0), dtype=np.intp)
    firsts = np.arange(size)
    for _ in range(k):
        starts = (np.searchsorted(rows[:, 0], firsts) if rows.shape[1]
                  else np.zeros(size, dtype=np.intp))
        counts = len(rows) - starts
        tails = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts - starts, counts)
        rows = np.column_stack((np.repeat(firsts, counts), rows[tails]))
    rows.flags.writeable = False
    return rows


@lru_cache(maxsize=32)
def _multiset_expansion(size: int, k: int) -> tuple:
    """``_multisets(size, k)``, and a read-only intp array that holds, for
    each x in product(range(size), repeat=k), in product order, the index
    of the multiset of x: the rank of x sorted.  The x are ranked in blocks
    of one first position, which keeps the temporaries a size-th of the
    array."""
    tails = np.zeros((1, 0), dtype=np.min_scalar_type(max(size - 1, 0)))
    for _ in range(k - 1):  # the last position runs fastest
        tails = np.column_stack((np.repeat(tails, size, axis=0),
                                 np.tile(np.arange(size, dtype=tails.dtype), len(tails))))
    expansion = np.zeros(size ** k, dtype=np.intp)
    if k:
        for first, block in enumerate(expansion.reshape(size, len(tails))):
            x = np.column_stack((np.full(len(tails), first, dtype=tails.dtype), tails))
            x.sort(axis=1)
            block[:] = _multiset_rank(x, size)
    expansion.flags.writeable = False  # every tensor of this shape shares it
    return _multisets(size, k), expansion


def _order_offset(size: int, order: int) -> int:
    """Where the multisets of ``order`` >= 1 of ``size`` sites start in a
    store that holds orders 1, 2, ... one after the other."""
    return math.comb(size + order - 1, order - 1) - 1


@cache
def _order_plan(size: int, k: int) -> tuple:
    """``_subset_ranks`` of every row of ``_multisets(size, k)``, read-only
    and built once per process."""
    plan = _subset_ranks(_multisets(size, k), size)
    for array in plan:
        array.flags.writeable = False
    return plan


def _subset_ranks(keys: np.ndarray, size: int) -> tuple:
    """(sub, comp) for filling the multisets of k positions in range(size)
    in the sorted rows of ``keys`` from a by-order store: for each row and
    each subset of ``_anchored_subsets(k)``, one per column, the store
    index of the sub-multiset the subset picks and of the multiset of the
    rest, as int32 arrays; no column for k = 1."""
    sub, comp = np.empty((2, len(keys), (1 << (keys.shape[1] - 1)) - 1), dtype=np.int32)
    start = 0
    for chosen, others in _subset_columns(keys.shape[1]):
        group = slice(start, start + len(chosen))
        _column_ranks(keys, chosen, size, sub[:, group])
        _column_ranks(keys, others, size, comp[:, group])
        start = group.stop
    return sub, comp


def _column_ranks(keys: np.ndarray, cols: np.ndarray, size: int, out: np.ndarray):
    """Write to ``out``, of shape (keys, cols), the store index of the
    multiset that each row of ``cols`` picks from each row of ``keys``:
    ``_multiset_rank`` of keys[:, cols] from that order's offset, summed
    one position at a time, so that the picked positions are never held
    at once."""
    e = cols.shape[1]
    weights, steps, last = _rank_weights(size, e)
    out[...] = _order_offset(size, e) + last
    for p in range(e):
        out -= weights[keys[:, cols[:, p]] + steps[p]]


@cache
def _subset_columns(k: int) -> tuple:
    """For each size e of the subsets of ``_anchored_subsets(k)``, the
    positions those subsets pick, shape (subsets, e), and the rest, shape
    (subsets, k - e)."""
    out = []
    for e, group in groupby(_anchored_subsets(k), len):
        chosen = np.array([[i in subset for i in range(k)] for subset in group])
        out.append((np.nonzero(chosen)[1].reshape(-1, e),
                    np.nonzero(~chosen)[1].reshape(-1, k - e)))
    return tuple(out)


@cache
def _anchored_subsets(k: int) -> tuple:
    """The subsets E of range(k) that the recursion subtracts for a key of
    k variables anchored at position 0, as sorted position tuples: the
    proper ones that hold position 0, by size and then in ``combinations``
    order."""
    return tuple((0,) + extra for size in range(k - 1)
                 for extra in combinations(range(1, k), size))
