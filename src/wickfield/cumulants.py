"""Moment/cumulant conversion and Wick polynomials over a moment provider.

Cumulants follow the anchored recursion

    kappa[y_I] = E[y^I] - sum_{E: x in E, E proper subset of I} E[y^(I\\E)] kappa[y_E]

with the anchor x always the first position in canonical order (any anchor
gives the same value up to rounding, which the tests check).  Wick polynomials
follow

    :y^I: = y^I - sum_{E proper subset of I} E[y^(I\\E)] :y^E:

and expectations of products of Wick monomials expand over restricted
partitions only (no block internal to a single Wick group).
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain, combinations, groupby
from operator import eq, itemgetter

import numpy as np

from .indexing import IndexSequence, SiteRef, canonical, seq_sort_key, subsequence
from .partitions import enumerate_partitions, enumerate_restricted


class OrderOverflowError(ValueError):
    """Requested cumulant/moment order exceeds the provider's declared max."""


class MomentProvider(ABC):
    """Source of joint moments E[y^I].

    Implementations must be permutation invariant in the index sequence,
    return 1 for the empty sequence, and satisfy the conjugation consistency
    moment(I*) = conj(moment(I)).
    """

    max_order: int = 8
    #: set by zero-mean jointly Gaussian providers; the cumulants of single
    #: field variables of order != 2 are then exactly zero
    #: (CumulantTable.singletons_vanish), and the provider supplies the
    #: second ones by ``covariance(a, b)`` and ``covariance_row(a, refs)``
    is_gaussian: bool = False
    #: set by providers whose law is invariant under lattice shifts; a single
    #: anchor then attains the sup over anchors in the clustering norms
    translation_invariant: bool = False
    #: set by providers whose field variables are all real, so y(x)* = y(x):
    #: ``CumulantTable.cumulant_tensor`` then drops the conjugation flags of
    #: a head, and a conjugated head reads the tensor of the plain one
    is_real: bool = False

    @abstractmethod
    def moment(self, sequence: IndexSequence) -> complex:
        ...

    def order_moments(self, order: int) -> np.ndarray | None:
        """None, or the moments of every multiset of ``order`` >= 1 of the
        provider's ``sites``, as one real array.

        A real law may return them: the multisets are those of
        ``_multisets``, over the sites in ``canonical`` order, and each
        entry must be ``==`` to ``moment`` of its multiset in that order.
        ``CumulantTable`` then fills the cumulants of the law by whole
        orders; a provider that returns None keeps the per-key recursion.
        """
        return None

    def check_order(self, order: int):
        if order > self.max_order:
            raise OrderOverflowError(
                f"order {order} exceeds provider max_order {self.max_order}"
            )


class CumulantTable:
    """Memoized cumulants kappa[y_I] over a backing provider.

    Entries are stored in one memo under the permutation-invariant
    canonical key: the sorted sequence for single field variables, the
    sorted canonical monomials, none equal to a SiteRef, for compound ones.
    A compound key's sub-keys of single field variables only are kept under
    their flat key, where ``cumulant`` reads them: the two keys would hold
    the same value.  ``cumulant`` applies the Gaussian rule to one
    collection of single field variables and ``cumulant_tensor`` to a
    tensor of them, both by ``singletons_vanish``, and ``joint_cumulant``
    hands ``cumulant`` every collection of single field variables.
    Moments of products of the variables are memoized too, each under its
    flat index sequence in the order the recursion builds it; that key is
    deliberately not canonicalised, because a provider may round a product
    differently in another factor order.  For the same reason the
    recursion subtracts its subset terms in one fixed order, the
    ``combinations`` order, read from a plan built once per (order, runs of
    equal variables).  Subsets that pick the same sub-multiset have
    the same term, so the term is built once per such class and subtracted
    once per subset: the same floats in the same order.

    A provider whose ``order_moments`` gives its moments by order, a real
    finite law, has its cumulants of single field variables filled by
    whole orders instead (``_OrderFill``): kappa of every multiset of its
    sites, through the highest order a request has needed, with one array
    recursion per order.  ``cumulant`` and ``cumulant_tensor`` read that
    array by multiset rank, and each value is ``==`` to the one the
    recursion gives.  The recursion stays for every other provider, for
    compound keys, and for an order whose plan would exceed
    ``_FILL_ENTRIES``.

    ``cumulant_tensor`` lays the cumulants of fixed head variables and k
    box sites out over box^k, the one source of the arrays ``clustering``
    folds; a Gaussian one is filled from covariance rows and a filled
    law's from its array, with no cumulant lookup per entry, and a real
    provider's head is taken without its conjugation flags.  ``derived``
    keeps those tensors, the SiteRefs and fill positions of each box, and
    the values ``clustering`` builds from the tensors (clustering norms,
    magnitude constants, Phi_n rows and the stacks of |Phi_n| rows at the
    p = 2 anchors), so checks that share a table build each of them once.
    """

    def __init__(self, provider: MomentProvider):
        self.provider = provider
        self._memo = {}
        self._moments = {}
        self._derived = {}
        # the _OrderFill once a cumulant has asked for it, False for a
        # provider that gives no moments by order
        self._fill = None

    def derived(self, key, build):
        """The value ``build()`` returns, built once per table and ``key``.

        The key must hold every argument the value is computed from, in the
        order given: a value built from other arguments, even a permutation
        of the same ones, may differ in the last bit.
        """
        value = self._derived.get(key)
        if value is None:
            value = self._derived[key] = build()
        return value

    def singletons_vanish(self, order: int) -> bool:
        """True when every cumulant of ``order`` single field variables is
        exactly zero: a zero-mean jointly Gaussian field has only second
        cumulants."""
        return self.provider.is_gaussian and order != 2

    def cumulant(self, sequence: IndexSequence) -> complex:
        """kappa of single field variables, one per position of the sequence.

        The Gaussian rule reads the variables in the caller's order, as
        ``cumulant_tensor`` applies it to a tensor; otherwise the canonical key is
        built with one sort, and a memo hit costs that sort and one probe.
        """
        if self.provider.is_gaussian:
            self._check(len(sequence))
            if self.singletons_vanish(len(sequence)):
                return 0.0
            return self.provider.covariance(sequence[0], sequence[1])
        key = canonical(sequence)
        hit = self._memo.get(key)
        if hit is None:
            self._check(len(key))
            hit = self._single(key)
        return hit

    def _single(self, key) -> complex:
        """kappa of a canonical key of single field variables that is not
        memoised yet, read from the fill where the provider has one, else
        by the recursion; the value is memoised."""
        fill = self._filled(len(key))
        if fill is None:
            return self._recurse(key, True)
        value = self._memo[key] = complex(
            fill.kappas[fill.index(np.array([sorted(fill.positions(key))]))[0]])
        return value

    def _filled(self, order: int):
        """The ``_OrderFill`` of the provider, filled through ``order``; None
        for a provider that gives no moments by order, or where the plan of
        an order up to ``order`` would exceed ``_FILL_ENTRIES``."""
        if self._fill is None:
            first = self.provider.order_moments(1)
            self._fill = first is not None and _OrderFill(self.provider, first)
        return self._fill if self._fill and self._fill.through(order) else None

    def cumulant_tensor(self, head, k: int, box_sites) -> np.ndarray:
        """kappa[v_1, ..., v_h, y(z_1), ..., y(z_k)] for z in box^k in product
        order, a read-only flat complex array built once per table, head, k
        and box: the head holds the variables v as ``joint_cumulant`` takes
        them, and each z is the SiteRef of a box site.

        A cumulant is symmetric in its variables: the tensor takes one value
        per multiset of ``_multiset_expansion``, at its z in box order, and
        indexes them with that expansion array.  A Gaussian head of single
        field variables takes them from ``_covariance_values``, and one of
        a filled law from its array, by the rank of each multiset of head
        and box sites.  For a provider that declares ``is_real`` the head's
        conjugation flags are dropped before the key, once per table and
        head, so kappa[y(a)*, ...] reads the tensor of kappa[y(a), ...]: the
        same cumulants, up to the sign of a zero.
        """
        head, box_sites = tuple(head), tuple(box_sites)
        if self.provider.is_real:
            head = self.derived(("real head", head), lambda: tuple(
                tuple(SiteRef(ref.site) for ref in v) for v in head))

        def build():
            refs = self.derived(("box refs", box_sites), lambda: tuple(map(SiteRef, box_sites)))
            multisets, expansion = _multiset_expansion(len(refs), k)
            if all(len(v) == 1 for v in head):
                values = self._single_values(tuple(chain.from_iterable(head)), k,
                                             box_sites, refs, multisets)
            else:
                values = [self.joint_cumulant(head + tuple((refs[i],) for i in ms))
                          for ms in multisets.tolist()]
            tensor = np.asarray(values, dtype=complex)[expansion]
            tensor.flags.writeable = False
            return tensor

        return self.derived(("cumulant_tensor", head, k, box_sites), build)

    def _single_values(self, head, k: int, box_sites, refs, multisets):
        """The values of ``cumulant_tensor`` for a head of single field
        variables, one per row of ``multisets``: the Gaussian ones, those of
        the fill, by the rank of each multiset of head and box sites, or
        else one ``cumulant`` per multiset."""
        self._check(len(head) + k)
        if self.provider.is_gaussian:
            return self._covariance_values(head, k, refs, len(multisets))
        fill = self._filled(len(head) + k)
        if fill is None:
            return [self.cumulant(head + tuple(refs[i] for i in ms))
                    for ms in multisets.tolist()]
        box = self.derived(("box positions", box_sites),
                           lambda: np.array(fill.positions(refs), dtype=np.intp))
        sites = np.empty((len(multisets), len(head) + k), dtype=np.intp)
        sites[:, :len(head)] = fill.positions(head)
        sites[:, len(head):] = box[multisets]
        sites.sort(axis=1)
        return fill.kappas[fill.index(sites)]

    def _covariance_values(self, head, k: int, refs, count: int) -> np.ndarray:
        """The ``count`` Gaussian values of ``cumulant_tensor``, one per multiset in
        ``combinations_with_replacement`` order: zeros unless len(head) + k = 2,
        else covariance(v, w) of the two variables in head-then-box order."""
        row = self.provider.covariance_row
        if self.singletons_vanish(len(head) + k):
            return np.zeros(count, dtype=complex)
        if k == 0:
            return row(head[0], head[1:])
        if k == 1:
            return row(head[0], refs)
        return np.concatenate([row(a, refs[i:]) for i, a in enumerate(refs)])

    def joint_cumulant(self, variables) -> complex:
        """kappa[v_1, ..., v_k] where each v_i is a monomial in field variables.

        Variables that are all single field variables go to ``cumulant``.
        Otherwise the monomials act as compound random variables, the empty
        one as the constant 1; moments of partial products come from the
        backing provider.
        """
        if all(len(mono) == 1 for mono in variables):
            return self.cumulant(tuple(mono[0] for mono in variables))
        key = tuple(sorted(map(canonical, variables), key=seq_sort_key))
        self.provider.check_order(sum(map(len, key)))
        hit = self._memo.get(key)
        return self._recurse(key, False) if hit is None else hit

    def _check(self, order: int):
        """Reject an empty collection and an order above the provider's
        limit."""
        if order == 0:
            raise ValueError("cumulant of an empty collection is undefined")
        self.provider.check_order(order)

    def _recurse(self, key, flat: bool) -> complex:
        """kappa of the canonical key by the anchored recursion, for a key
        that is not memoised yet; the value is memoised.

        A ``flat`` key is its own moment key; a compound key's moment is
        memoised under the flat sequence of its monomials in key order, and
        its sub-keys of single field variables only go to ``_single`` under
        their flat key.  The moment and memo probes are inline, so a hit
        costs no call.  One term is built per class of the subset plan, and
        the terms are subtracted in ``combinations`` order, one per subset.
        """
        moments, memo, moment = self._moments, self._memo, self.provider.moment
        seq = key if flat else tuple(chain.from_iterable(key))
        value = moments.get(seq)
        if value is None:
            value = moments[seq] = moment(seq)
        distinct, order = _subset_plan(len(key), tuple(map(eq, key, key[1:])))
        terms = []
        for sub_of, comp_of in distinct:
            # the positions increase, so the sub-key of the canonical key is
            # canonical already
            sub = sub_of(key)
            if flat:
                comp = comp_of(key)
            else:
                comp = tuple(chain.from_iterable(comp_of(key)))
                if all(len(mono) == 1 for mono in sub):
                    sub = tuple(mono[0] for mono in sub)
            weight = moments.get(comp)
            if weight is None:
                weight = moments[comp] = moment(comp)
            kappa = memo.get(sub)
            if kappa is None:
                kappa = (self._recurse(sub, flat) if flat or type(sub[0]) is not SiteRef
                         else self._single(sub))
            terms.append(weight * kappa)
        for i in order:
            value -= terms[i]
        memo[key] = value
        return value


#: the most entries, multisets times 2^(k - 1) (a moment and the
#: recursion's terms each), that order k is filled with; a larger order
#: keeps the per-key recursion
_FILL_ENTRIES = 1 << 18


class _OrderFill:
    """kappa of every multiset of a provider's sites, filled by whole orders
    from its ``order_moments``.

    The multisets of an order are the rows of ``_multisets`` over the sites
    in ``canonical`` order.  ``moments`` and ``kappas`` hold orders 1 to
    ``order`` one after the other, order k from ``_order_offset``.  Order k
    is filled with ``_order_plan``: the row of a multiset holds its moment
    and then the recursion's terms, moment times kappa, one per subset in
    subset order, and one ``np.subtract.accumulate`` along the rows
    subtracts them left to right, as ``_recurse`` does.  A real product
    w * kappa is the real part of the recursion's complex one, exactly.
    """

    def __init__(self, provider: MomentProvider, first: np.ndarray):
        refs = canonical(map(SiteRef, provider.sites))
        self.provider = provider
        self.size = len(refs)
        self._position = {ref.site: i for i, ref in enumerate(refs)}
        self.moments = self.kappas = first
        self.order = 1

    def through(self, order: int) -> bool:
        """Fill every order up to ``order``; False, and no fill past the
        order before it, once an order's plan would exceed
        ``_FILL_ENTRIES``."""
        while self.order < order:
            k = self.order + 1
            if math.comb(self.size + k - 1, k) << (k - 1) > _FILL_ENTRIES:
                return False
            sub, comp = _order_plan(self.size, k)
            moments = self.provider.order_moments(k)
            rows = np.empty((len(moments), sub.shape[1] + 1))
            rows[:, 0] = moments
            np.multiply(self.moments[comp], self.kappas[sub], out=rows[:, 1:])
            self.moments = np.concatenate((self.moments, moments))
            self.kappas = np.concatenate(
                (self.kappas, np.subtract.accumulate(rows, axis=1)[:, -1]))
            self.order = k
        return True

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


def table_for(provider: MomentProvider, table: CumulantTable | None) -> CumulantTable:
    """``table``, or a fresh one on ``provider``; ValueError if ``table``
    holds another provider's cumulants."""
    if table is None:
        return CumulantTable(provider)
    if table.provider is not provider:
        raise ValueError("table was built on another provider")
    return table


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
    """(sub, comp) for filling order k >= 2 of a by-order store over size
    sites: for the multiset of each row of ``_multisets(size, k)`` and each
    subset of ``_anchored_subsets(k)``, one per column, the store index of
    the sub-multiset the subset picks and of the multiset of the rest, as
    read-only intp arrays built once per process."""
    keys = _multisets(size, k)
    subs, comps = [], []
    for e, group in groupby(_anchored_subsets(k), len):
        chosen = np.array([[i in subset for i in range(k)] for subset in group])
        picked = keys[:, np.nonzero(chosen)[1].reshape(-1, e)]
        rest = keys[:, np.nonzero(~chosen)[1].reshape(-1, k - e)]
        subs.append(_multiset_rank(picked, size, _order_offset(size, e)))
        comps.append(_multiset_rank(rest, size, _order_offset(size, k - e)))
    plan = np.concatenate(subs, axis=1), np.concatenate(comps, axis=1)
    for array in plan:
        array.flags.writeable = False
    return plan


def _tuple_getter(positions) -> itemgetter:
    """An itemgetter of the positions that returns a tuple for any number of
    them: a lone position is read as a one-item slice."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


@cache
def _anchored_subsets(k: int) -> tuple:
    """The subsets E of range(k) that the recursion subtracts for a key of
    k variables anchored at position 0, as sorted position tuples: the
    proper ones that hold position 0, by size and then in ``combinations``
    order."""
    return tuple((0,) + extra for size in range(k - 1)
                 for extra in combinations(range(1, k), size))


@cache
def _subset_plan(k: int, same: tuple) -> tuple:
    """The recursion's plan for a key of k variables anchored at position 0,
    where ``same[i]`` tells whether variables i and i + 1 are equal.

    The subsets are those of ``_anchored_subsets(k)``.  A canonical key
    holds equal variables next to each other, so two subsets that take as
    many positions from every run of equal variables pick the same sub-key
    and the same complement: one class, one term.  Returns
    (distinct, order): ``distinct`` holds the tuple getters of the chosen
    and complement positions of the first subset of each class, and
    ``order`` the class of every subset, in subset order.  There are
    r_first * prod(r + 1) - 1 classes, with r_first the length of the first
    run and r those of the other runs.
    """
    run = [0]
    for equal in same:
        run.append(run[-1] + (not equal))
    distinct, classes, order = [], {}, []
    for chosen in _anchored_subsets(k):
        cls = classes.setdefault(tuple(run[i] for i in chosen), len(classes))
        if cls == len(distinct):
            distinct.append((_tuple_getter(chosen),
                             _tuple_getter(tuple(i for i in range(1, k) if i not in chosen))))
        order.append(cls)
    return tuple(distinct), tuple(order)


def cumulant(provider: MomentProvider, sequence: IndexSequence) -> complex:
    """kappa[y_I] of single field variables; convenience over CumulantTable."""
    return CumulantTable(provider).cumulant(sequence)


def _block_cumulant_sum(table: CumulantTable, flat: IndexSequence, partitions) -> complex:
    """sum over the partitions of ``flat`` of the product of block cumulants.

    A product stops at its first zero factor; with finite cumulants the rest
    of it could only add +-0.
    """
    total = 0.0 + 0.0j
    for part in partitions:
        prod = 1.0 + 0.0j
        for block in part.blocks:
            prod *= table.cumulant(subsequence(flat, block))
            if prod == 0:
                break
        total += prod
    return total


def moments_from_cumulants(table: CumulantTable, sequence: IndexSequence) -> complex:
    """E[y^I] = sum over partitions of I of the product of block cumulants."""
    return _block_cumulant_sum(table, sequence, enumerate_partitions(len(sequence)))


@dataclass
class WickExpansion:
    """:y^I: as a polynomial in the underlying variables.

    ``terms`` maps a canonical monomial (tuple of SiteRefs) to its complex
    coefficient; the empty monomial is the constant term.
    """

    terms: dict = field(default_factory=dict)

    def expectation(self, provider: MomentProvider) -> complex:
        return sum(c * provider.moment(mono) for mono, c in self.terms.items())

    def __mul__(self, other: "WickExpansion") -> "WickExpansion":
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                mono = canonical(m1 + m2)
                out[mono] = out.get(mono, 0.0) + c1 * c2
        return WickExpansion(out)


def wick_expansion(provider: MomentProvider, sequence: IndexSequence) -> WickExpansion:
    """Expand :y^I: recursively; the leading term is y^I with coefficient 1."""
    provider.check_order(len(sequence))
    memo = {}

    def rec(seq_canon):
        hit = memo.get(seq_canon)
        if hit is not None:
            return hit
        n = len(seq_canon)
        terms = {seq_canon: 1.0 + 0.0j}
        positions = range(n)
        for size in range(0, n):
            for sub in combinations(positions, size):
                comp = tuple(i for i in positions if i not in sub)
                weight = provider.moment(subsequence(seq_canon, comp))
                inner = rec(canonical(subsequence(seq_canon, sub)))
                for mono, c in inner.terms.items():
                    terms[mono] = terms.get(mono, 0.0) - weight * c
        result = WickExpansion(terms)
        memo[seq_canon] = result
        return result

    return rec(canonical(sequence))


def wick_product_expectation(provider: MomentProvider, groups, tail=(),
                             table: CumulantTable | None = None) -> complex:
    """E[ prod_l :y^(J_l): * y^(J') ] via the restricted partition expansion.

    Sums the product of block cumulants over partitions of the concatenation
    of the groups and the tail in which no block is internal to a single
    group.
    """
    flat = tuple(ref for g in groups for ref in g) + tuple(tail)
    provider.check_order(len(flat))
    return _block_cumulant_sum(table_for(provider, table), flat,
                               enumerate_restricted(groups, tail))


def generating_check(provider, sequence: IndexSequence):
    """Compare the cumulant against a finite difference of ln G_m at 0.

    The provider must expose ``log_generating_function(lam)`` with ``lam`` a
    dict from site label to a real argument.  Central differences with step
    h = 1e-3 are O(h^2) accurate; the tolerance budgets rounding on top of
    that.
    """
    from .reports import BoundReport

    if not hasattr(provider, "log_generating_function"):
        raise TypeError("provider has no closed-form generating function")
    if len(sequence) > 4:
        raise OrderOverflowError("generating-function check supports order <= 4")
    h = 1e-3

    def deriv(refs, lam):
        if not refs:
            return provider.log_generating_function(lam)
        head, rest = refs[0], refs[1:]
        up = dict(lam)
        up[head] = up.get(head, 0.0) + h
        dn = dict(lam)
        dn[head] = dn.get(head, 0.0) - h
        return (deriv(rest, up) - deriv(rest, dn)) / (2 * h)

    fd = deriv(tuple(sequence), {})
    exact = cumulant(provider, sequence)
    return BoundReport(
        inequality_id="generating-function-cumulant",
        lhs=abs(fd - exact),
        rhs=100 * h * h + 1e-9,
        witnesses={"order": len(sequence), "h": h,
                   "finite_difference": fd, "cumulant": exact},
    )
