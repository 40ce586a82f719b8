"""Moment/cumulant conversion and Wick polynomials over a moment provider.

Cumulants follow the anchored recursion

    kappa[y_I] = E[y^I] - sum_{E: x in E, E proper subset of I} E[y^(I\\E)] kappa[y_E]

with the anchor x always the first position in canonical order (any anchor
gives the same value up to rounding, which the tests check): in arrays for
single field variables (``multisets._OrderFill``), per key for compound
ones (``CumulantTable._recurse``).  Wick polynomials follow

    :y^I: = y^I - sum_{E proper subset of I} E[y^(I\\E)] :y^E:

and expectations of products of Wick monomials expand over restricted
partitions only (no block internal to a single Wick group).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, combinations
from operator import itemgetter

import numpy as np

from .indexing import IndexSequence, SiteRef, canonical, seq_sort_key, subsequence
from .multisets import (OrderOverflowError, _OrderFill, _anchored_subsets,
                        _multiset_expansion, _store_refs)
from .partitions import enumerate_partitions, enumerate_restricted


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
    #: the site labels, which a non-Gaussian provider must list: its table
    #: keeps the cumulants of single field variables by multiset of their
    #: refs (``multisets._store_refs``), each (site, flag) ref of a complex
    #: law and each site of a real one
    sites: tuple | None = None

    @abstractmethod
    def moment(self, sequence: IndexSequence) -> complex:
        ...

    def order_moments(self, order: int) -> np.ndarray | None:
        """None, or the moments of every multiset of ``order`` >= 1 of the
        refs of ``_store_refs``, as one array, real for a real law.

        The multisets are those of ``_multisets`` over those refs, and
        each entry must be ``==`` to ``moment`` of its multiset in that
        order.  ``CumulantTable`` then fills the cumulants of the law by
        whole orders; a law that returns None has them filled on demand.
        """
        return None

    def multiset_moments(self, rows) -> np.ndarray:
        """The moment of each multiset in ``rows``, as one array: each row
        is a sorted sequence of positions into ``_store_refs``.
        ``CumulantTable`` fills a law on demand through this hook, one call
        per request for every sub-multiset of its rows, in lexicographic
        order.  Each entry must be ``==`` to ``moment`` of its multiset in
        that order, its real part as a float for a real law, as this
        default, one ``moment`` call per row, gives.
        """
        refs = _store_refs(self)
        moments = np.array([self.moment(tuple(map(refs.__getitem__, row))) for row in rows],
                           dtype=complex)
        return moments.real if self.is_real else moments

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
    ``cumulant`` applies the Gaussian rule to one collection of single
    field variables and ``cumulant_tensor`` to a tensor of them, both by
    ``singletons_vanish``, and ``joint_cumulant`` hands ``cumulant`` every
    collection of single field variables.

    A non-Gaussian law, real or complex, keeps its cumulants of single
    field variables in one store, ``multisets._OrderFill``, by global
    multiset rank of its ``_store_refs``, at any order: by whole orders
    while ``order_moments`` gives them, else on demand, the closure of a
    request's multisets in one ``multiset_moments`` call.  ``cumulant`` and
    ``cumulant_tensors`` read it, the latter for many heads in one request.

    Compound keys take the anchored recursion per key, ``_recurse``, which
    reads its sub-keys of single field variables through ``cumulant``.  It
    memoizes each moment of a product under its flat index sequence in the
    order the recursion builds it, not canonicalised, because a provider
    may round a product differently in another factor order; a complex
    law's store gives a canonical one it has measured.  For the same reason
    both recursions subtract one term per subset in one fixed order, that
    of ``_anchored_subsets``.

    ``cumulant_tensors`` lays the cumulants of fixed head variables and k
    box sites out over box^k, one tensor per head, the one source of the
    arrays ``clustering`` folds; a Gaussian one is filled from covariance
    rows and any other from the store, with no cumulant lookup per entry,
    and a real provider's head is taken without its conjugation
    flags.  ``derived`` keeps each tensor, the SiteRefs and store positions
    of each box, and the values ``clustering`` builds from the tensors
    (clustering norms, magnitude constants, Phi_n rows and the stacks of
    |Phi_n| rows at the p = 2 anchors), so checks that share a table build
    each of them once.
    """

    def __init__(self, provider: MomentProvider):
        self.provider = provider
        self._memo = {}
        self._moments = {}
        self._derived = {}
        # the store of a non-Gaussian law's cumulants of single field variables
        self._fill = None if provider.is_gaussian else _OrderFill(provider)

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
            fill = self._fill
            hit = self._memo[key] = complex(
                fill.values(np.array([sorted(fill.positions(key))]))[0])
        return hit

    def _head(self, head) -> tuple:
        """The head as ``cumulant_tensor`` keys it: without its conjugation
        flags for a provider that declares ``is_real``, once per table and
        head."""
        head = tuple(head)
        if self.provider.is_real:
            head = self.derived(("real head", head), lambda: tuple(
                tuple(SiteRef(ref.site) for ref in v) for v in head))
        return head

    def cumulant_tensor(self, head, k: int, box_sites) -> np.ndarray:
        """The tensor of one head, as ``cumulant_tensors`` builds it."""
        return self.cumulant_tensors((head,), k, box_sites)[0]

    def cumulant_tensors(self, heads, k: int, box_sites) -> list:
        """kappa[v_1, ..., v_h, y(z_1), ..., y(z_k)] for z in box^k in
        product order, for each head in the order given: a read-only flat
        complex array built once per table, head, k and box.  A head holds
        the variables v as ``joint_cumulant`` takes them, and each z is the
        SiteRef of a box site.

        A cumulant is symmetric in its variables: a tensor takes one value
        per multiset of ``_multiset_expansion``, at its z in box order, and
        indexes them with that expansion array.  The heads not built yet,
        each once in first-use order, take one ``_tensors`` call: Gaussian
        heads of single field variables take their values from
        ``_covariance_values``, and any other law's from its store in one
        request, by the rank of each multiset of head and box refs.  For a
        provider that declares ``is_real`` a head's conjugation flags are
        dropped before its key, once per table and head, so
        kappa[y(a)*, ...] reads the tensor of kappa[y(a), ...]: the same
        cumulants, up to the sign of a zero.
        """
        box_sites = tuple(box_sites)
        keys = [("cumulant_tensor", self._head(head), k, box_sites) for head in heads]
        derived = self._derived
        try:
            return [derived[key] for key in keys]
        except KeyError:
            new = {key: None for key in keys if key not in derived}
            derived.update(zip(new, self._tensors([key[1] for key in new], k, box_sites)))
        return [derived[key] for key in keys]

    def _tensors(self, heads, k: int, box_sites) -> np.ndarray:
        """The cumulant tensors of the heads, one read-only row each."""
        refs = self.derived(("box refs", box_sites), lambda: tuple(map(SiteRef, box_sites)))
        multisets, expansion = _multiset_expansion(len(refs), k)
        if len({len(head) for head in heads}) == 1 and all(
                len(v) == 1 for head in heads for v in head):
            values = self._single_values([tuple(chain.from_iterable(head)) for head in heads],
                                         k, box_sites, refs, multisets)
        else:
            multisets = multisets.tolist()
            values = [[self.joint_cumulant(head + tuple((refs[i],) for i in ms))
                       for ms in multisets] for head in heads]
        tensors = np.asarray(values, dtype=complex).take(expansion, axis=1)
        tensors.flags.writeable = False
        return tensors

    def _single_values(self, heads, k: int, box_sites, refs, multisets):
        """The values of ``cumulant_tensor`` for heads of as many single
        field variables, one row per head and column per row of
        ``multisets``: the Gaussian ones, or those of the store, by the rank
        of each multiset of head and box refs, in one request."""
        h = len(heads[0])
        self._check(h + k)
        if self.provider.is_gaussian:
            return [self._covariance_values(head, k, refs, len(multisets)) for head in heads]
        fill = self._fill
        box = self.derived(("box positions", box_sites),
                           lambda: np.array(fill.positions(refs), dtype=np.intp))
        sites = np.empty((len(heads), len(multisets), h + k), dtype=np.intp)
        sites[:, :, h:] = box[multisets]
        for head, rows in zip(heads, sites):
            rows[:, :h] = fill.positions(head)
        sites.sort(axis=2)
        return fill.values(sites)

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
        return self._recurse(key) if hit is None else hit

    def _check(self, order: int):
        """Reject an empty collection and an order above the provider's
        limit."""
        if order == 0:
            raise ValueError("cumulant of an empty collection is undefined")
        self.provider.check_order(order)

    def _moment(self, seq) -> complex:
        """The moment of a flat sequence: a complex law's store holds the
        provider's of a canonical one, if it has measured it."""
        if not self.provider.is_real and self._fill and seq == canonical(seq):
            value = self._fill.moment(seq)
            if value is not None:
                return value
        return self.provider.moment(seq)

    def _recurse(self, key) -> complex:
        """kappa of the canonical compound key by the anchored recursion,
        for a key that is not memoised yet; the value is memoised.  Each
        moment, from ``_moment``, is memoised under the flat sequence of its
        monomials in key order, and a sub-key of single field variables is
        read under its flat key; a hit costs no call.
        """
        moments, memo, moment = self._moments, self._memo, self._moment
        seq = tuple(chain.from_iterable(key))
        value = moments.get(seq)
        if value is None:
            value = moments[seq] = moment(seq)
        for sub_of, comp_of in _subset_getters(len(key)):
            # the positions increase, so the sub-key of the canonical key is
            # canonical already
            sub = sub_of(key)
            comp = tuple(chain.from_iterable(comp_of(key)))
            weight = moments.get(comp)
            if weight is None:
                weight = moments[comp] = moment(comp)
            if all(len(mono) == 1 for mono in sub):
                sub = tuple(mono[0] for mono in sub)
            kappa = memo.get(sub)
            if kappa is None:
                kappa = self.cumulant(sub) if type(sub[0]) is SiteRef else self._recurse(sub)
            value -= weight * kappa
        memo[key] = value
        return value


def table_for(provider: MomentProvider, table: CumulantTable | None) -> CumulantTable:
    """``table``, or a fresh one on ``provider``; ValueError if ``table``
    holds another provider's cumulants."""
    if table is None:
        return CumulantTable(provider)
    if table.provider is not provider:
        raise ValueError("table was built on another provider")
    return table


def _tuple_getter(positions) -> itemgetter:
    """An itemgetter of the positions that returns a tuple for any number of
    them: a lone position is read as a one-item slice."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


@cache
def _subset_getters(k: int) -> tuple:
    """The (chosen, rest) tuple getters of each of ``_anchored_subsets(k)``."""
    return tuple((_tuple_getter(chosen),
                  _tuple_getter(tuple(i for i in range(1, k) if i not in chosen)))
                 for chosen in _anchored_subsets(k))


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
