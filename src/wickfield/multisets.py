"""Multisets of a law's store refs by rank, and the store of a
non-Gaussian law's cumulants.

A multiset of k positions in range(size) is a sorted row of k ints, and
the multisets of one order are ranked in ``combinations_with_replacement``
order by the combinatorial number system (``_multiset_rank``); orders 1,
2, ... follow one another in one global rank, order k from
``_order_offset``.  ``_OrderFill`` is the store of the cumulants of a
law's single field variables, filled by the anchored recursion of
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


class OrderOverflowError(ValueError):
    """Requested cumulant/moment order exceeds the provider's declared max,
    or its multisets the store's int64 ranks."""


def _store_refs(provider) -> tuple:
    """The refs whose multisets a provider's store holds, in ``canonical``
    order: a real law's plain site refs, else every (site, flag) ref, so
    that a site's plain ref and its conjugate are neighbours."""
    flags = (False,) if provider.is_real else (False, True)
    return canonical(SiteRef(site, conj) for site in provider.sites for conj in flags)


class _OrderFill:
    """kappa and the moments of the multisets of a law's ``_store_refs``,
    complex for a complex law, by global multiset rank.

    ``ranks`` is the sorted int64 array of the ranks filled, and
    ``moments`` and ``kappas`` hold their values slot for slot.  Each entry
    is filled once, in one of two ways:

    * Whole orders: while the provider gives an order's moments by
      ``order_moments`` and the order's plan fits within ``_FILL_ENTRIES``,
      orders 1 to ``whole`` are filled with ``_order_plan``.  They are the
      leading run of ``ranks``, so each of their ranks is its own slot.
    * On demand: every later order, and every order of a law that gives no
      moments by order.  A request fills its multisets and every
      sub-multiset of theirs that the store lacks, all the recursion reads
      (``_fill``); ``np.searchsorted`` finds their slots in ``ranks``.

    Either way ``_fold`` subtracts a multiset's recursion terms, moment
    times kappa, one per subset of ``_anchored_subsets``, left to right
    from its moment, as the per-key recursion does.  A real product is the
    real part of that recursion's complex one, exactly, and a complex one
    is written out in real parts as Python's complex multiply forms it, so
    each kappa is ``==`` to the per-key recursion's.
    """

    def __init__(self, provider):
        if provider.sites is None:
            raise TypeError(f"{type(provider).__name__} lists no sites, and a "
                            f"non-Gaussian law's cumulants are stored by them")
        refs = _store_refs(provider)
        self.provider = provider
        self.size = len(refs)
        # a real law's refs read the same position with either flag
        self._position = {SiteRef(ref.site, conj): i for i, ref in enumerate(refs)
                          for conj in ((False, True) if provider.is_real else (ref.conj,))}
        dtype = float if provider.is_real else complex
        self.ranks = np.empty(0, dtype=np.int64)
        self.moments, self.kappas = np.empty(0, dtype), np.empty(0, dtype)
        self.order = self.whole = 0

    def _grow(self, order: int):
        """Take up every order up to ``order``: an order after the whole
        ones is filled whole if the provider gives its moments and its
        plan fits, else left for requests to fill.  OrderOverflowError if
        the ranks of ``order`` pass int64."""
        if _order_offset(self.size, order + 1) > np.iinfo(np.int64).max:
            raise OrderOverflowError(f"the multisets of order {order} of {len(self.provider.sites)} "
                                     f"sites overflow the store's int64 ranks")
        while self.order < order:
            k = self.order = self.order + 1
            fits = math.comb(self.size + k - 1, k) << (k - 1) <= _FILL_ENTRIES
            moments = self.provider.order_moments(k) if self.whole == k - 1 and fits else None
            if moments is not None:
                sub, comp = _order_plan(self.size, k)
                kappas = _fold(moments, self.moments[comp], self.kappas[sub])
                # one assignment, so that a failure leaves the store as it was
                self.moments, self.kappas, self.ranks, self.whole = (
                    np.concatenate((self.moments, moments)), np.concatenate((self.kappas, kappas)),
                    np.arange(len(self.ranks) + len(moments), dtype=np.int64), k)

    def values(self, positions: np.ndarray) -> np.ndarray:
        """kappa of the multiset in each row of the int array of positions,
        sorted along its last axis, filled first where it is missing."""
        k = positions.shape[-1]
        if k > self.order:
            self._grow(k)
        ranks = self.index(positions)
        if k > self.whole:
            self._fill(positions.reshape(-1, k), ranks.ravel())
            ranks = np.searchsorted(self.ranks, ranks)
        return self.kappas[ranks]

    def moment(self, refs) -> complex | None:
        """The moment the store has measured for the refs, in canonical
        order, None if it has not filled their multiset."""
        positions = [self._position.get(ref) for ref in refs]
        if len(positions) > self.order or None in positions:
            return None
        rank = self.index(np.array(positions))
        slot = np.searchsorted(self.ranks, rank)
        held = slot < len(self.ranks) and self.ranks[slot] == rank
        return complex(self.moments[slot]) if held else None

    def _fill(self, rows: np.ndarray, ranks: np.ndarray):
        """Fill kappa of the multiset in each row and of every sub-multiset
        of theirs that the store lacks, found one order down at a time, as
        the store holds the sub-multisets of each multiset it holds.  Their
        moments take one ``provider.multiset_moments`` call, in
        lexicographic order, so that a multiset comes just before the ones
        that extend it; then each order is folded, from the lowest up."""
        members = []
        keys, ranks = self._lacking(rows, ranks)
        while len(keys):
            members.insert(0, (keys, ranks))
            if keys.shape[1] <= self.whole + 1:
                break
            # dropping one position keeps a row sorted
            keys = np.concatenate([np.delete(keys, p, axis=1) for p in range(keys.shape[1])])
            keys, ranks = self._lacking(keys, self.index(keys))
        if not members:
            return
        # orders ascend, and so do the ranks of each, so the new ranks are
        # sorted; the store takes them only once all are filled, so a call
        # that raises leaves it as it was
        new = np.concatenate([ranks for _, ranks in members])
        at = np.searchsorted(self.ranks, new)
        ranks, moments, kappas = (np.insert(a, at, v) for a, v in (
            (self.ranks, new), (self.moments, 0), (self.kappas, 0)))
        slots = at + np.arange(len(new))
        positions = [row for keys, _ in members for row in keys.tolist()]
        walk = sorted(range(len(positions)), key=positions.__getitem__)
        moments[slots[walk]] = self.provider.multiset_moments([positions[i] for i in walk])
        start = 0
        for keys, _ in members:
            these = slots[start:start + len(keys)]
            sub, comp = (np.searchsorted(ranks, r) for r in _subset_ranks(keys, self.size, np.int64))
            kappas[these] = _fold(moments[these], moments[comp], kappas[sub])
            start += len(keys)
        self.ranks, self.moments, self.kappas = ranks, moments, kappas

    def _lacking(self, keys: np.ndarray, ranks: np.ndarray) -> tuple:
        """The distinct rows of ``keys``, whose ranks are ``ranks``, that
        the store lacks: their positions and ranks, in rank order."""
        ranks, at = np.unique(ranks, return_index=True)
        lacking = np.append(self.ranks, -1)[np.searchsorted(self.ranks, ranks)] != ranks
        return keys[at[lacking]], ranks[lacking]

    def positions(self, refs) -> list:
        """The position of each ref in ``_store_refs``; KeyError naming the
        first site the law does not have."""
        try:
            return [self._position[ref] for ref in refs]
        except KeyError as missing:
            raise KeyError(f"unknown site {missing.args[0].site!r}") from None

    def index(self, positions: np.ndarray) -> np.ndarray:
        """The global rank of the multiset in each row of the int array of
        positions, sorted along its last axis."""
        return _multiset_rank(positions, self.size,
                              _order_offset(self.size, positions.shape[-1]))


def _fold(moments: np.ndarray, w: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """kappa of the multisets of one order from their moments, the moments
    w of the rests of their subsets and the kappas of the sub-multisets the
    subsets pick, one row per multiset and column per subset: the rows hold
    the moment and then each w * kappa, and one ``np.subtract.accumulate``
    subtracts them left to right."""
    rows = np.empty((len(moments), w.shape[1] + 1))
    if not np.iscomplexobj(moments):
        rows[:, 0] = moments
        np.multiply(w, kappa, out=rows[:, 1:])
        return np.subtract.accumulate(rows, axis=1)[:, -1]
    # numpy's complex multiply may fuse a product's two terms
    folded = np.empty(len(moments), dtype=complex)
    for part, first, terms in (
            (folded.real, moments.real, w.real * kappa.real - w.imag * kappa.imag),
            (folded.imag, moments.imag, w.real * kappa.imag + w.imag * kappa.real)):
        rows[:, 0] = first
        rows[:, 1:] = terms
        part[...] = np.subtract.accumulate(rows, axis=1)[:, -1]
    return folded


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
    """Where the multisets of ``order`` >= 1 of ``size`` positions start in
    the global rank, which counts orders 1, 2, ... one after the other."""
    return math.comb(size + order - 1, order - 1) - 1


@cache
def _order_plan(size: int, k: int) -> tuple:
    """``_subset_ranks`` of every row of ``_multisets(size, k)``, read-only
    and built once per process."""
    plan = _subset_ranks(_multisets(size, k), size)
    for array in plan:
        array.flags.writeable = False
    return plan


def _subset_ranks(keys: np.ndarray, size: int, dtype=np.int32) -> tuple:
    """(sub, comp) for filling the multisets of k positions in range(size)
    in the sorted rows of ``keys``: for each row and each subset of
    ``_anchored_subsets(k)``, one per column, the global rank of the
    sub-multiset the subset picks and of the multiset of the rest, as
    arrays of ``dtype``; no column for k = 1."""
    sub, comp = np.empty((2, len(keys), (1 << (keys.shape[1] - 1)) - 1), dtype=dtype)
    start = 0
    for chosen, others in _subset_columns(keys.shape[1]):
        group = slice(start, start + len(chosen))
        _column_ranks(keys, chosen, size, sub[:, group])
        _column_ranks(keys, others, size, comp[:, group])
        start = group.stop
    return sub, comp


def _column_ranks(keys: np.ndarray, cols: np.ndarray, size: int, out: np.ndarray):
    """Write to ``out``, of shape (keys, cols), the global rank of the
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
