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

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from functools import cache, lru_cache
from itertools import chain, combinations, combinations_with_replacement, product
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

    @abstractmethod
    def moment(self, sequence: IndexSequence) -> complex:
        ...

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
    ``cumulant`` applies the Gaussian rule to one collection of single field
    variables and ``cumulant_tensor`` to a tensor of them, both by
    ``singletons_vanish``, and ``joint_cumulant`` hands ``cumulant`` every
    collection of single field variables.
    Moments of products of the variables are memoized too, each under its
    flat index sequence in the order the recursion builds it; that key is
    deliberately not canonicalised, because a provider may round a product
    differently in another factor order.  For the same reason the
    recursion subtracts its subset terms in one fixed order, the
    ``combinations`` order, read from a plan built once per (order, runs of
    equal variables).  Subsets that pick the same sub-multiset have
    the same term, so the term is built once per such class and subtracted
    once per subset: the same floats in the same order.

    ``cumulant_tensor`` lays the cumulants of fixed head variables and k
    box sites out over box^k, the one source of the arrays ``clustering``
    folds; a Gaussian one is filled from covariance rows, with no cumulant
    lookup per entry.  ``derived`` keeps those tensors and the values ``clustering``
    builds from them (clustering norms, Phi_n rows), so checks that share a
    table build each of them once.
    """

    def __init__(self, provider: MomentProvider):
        self.provider = provider
        self._memo = {}
        self._moments = {}
        self._derived = {}

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
            hit = self._recurse(key, True)
        return hit

    def cumulant_tensor(self, head, k: int, box_sites) -> np.ndarray:
        """kappa[v_1, ..., v_h, y(z_1), ..., y(z_k)] for z in box^k in product
        order, a read-only flat complex array built once per table, head, k
        and box: the head holds the variables v as ``joint_cumulant`` takes
        them, and each z is the SiteRef of a box site.

        A head of single field variables of a Gaussian law follows the rule
        of ``cumulant``: the tensor is zeros unless h + k = 2, and otherwise
        comes from the provider's ``covariance_row``.  Any other tensor
        looks up one cumulant per multiset of box positions, with the z of
        each multiset in box order, and repeats it at every x of that
        multiset.
        """
        head, box_sites = tuple(head), tuple(box_sites)

        def build():
            refs = tuple(map(SiteRef, box_sites))
            singles = all(len(v) == 1 for v in head)
            if singles and self.provider.is_gaussian:
                self._check(len(head) + k)
                tensor = self._covariance_tensor(tuple(v[0] for v in head), k, refs)
            else:
                multisets, expansion = _multiset_expansion(len(refs), k)
                if singles:
                    flat = tuple(v[0] for v in head)
                    values = [self.cumulant(flat + tuple(refs[i] for i in ms))
                              for ms in multisets]
                else:
                    values = [self.joint_cumulant(head + tuple((refs[i],) for i in ms))
                              for ms in multisets]
                tensor = np.array(values, dtype=complex)[expansion]
            tensor.flags.writeable = False
            return tensor

        return self.derived(("cumulant_tensor", head, k, box_sites), build)

    def _covariance_tensor(self, head, k: int, refs) -> np.ndarray:
        """The Gaussian tensor of single field variables: zeros unless
        len(head) + k = 2, else covariance(v, w) of the two variables in
        head-then-box order, for k = 2 at each multiset's z in box order."""
        row = self.provider.covariance_row
        if self.singletons_vanish(len(head) + k):
            return np.zeros(len(refs) ** k, dtype=complex)
        if k == 0:
            return row(head[0], head[1:])
        if k == 1:
            return row(head[0], refs)
        tensor = np.empty((len(refs),) * 2, dtype=complex)
        for i, a in enumerate(refs):
            tensor[i, i:] = tensor[i:, i] = row(a, refs[i:])
        return tensor.ravel()

    def joint_cumulant(self, variables) -> complex:
        """kappa[v_1, ..., v_k] where each v_i is a monomial in field variables.

        Variables that are all single field variables go to ``cumulant``.
        Otherwise the monomials act as compound random variables; moments of
        partial products come from the backing provider.
        """
        if all(len(mono) == 1 for mono in variables):
            return self.cumulant(tuple(mono[0] for mono in variables))
        key = tuple(sorted(map(canonical, variables), key=seq_sort_key))
        self._check(sum(map(len, key)))
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
        memoised under the flat sequence of its monomials in key order.  The
        moment and memo probes are inline, so a hit costs no call.  One term
        is built per class of the subset plan, and the terms are subtracted
        in ``combinations`` order, one per subset.
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
            comp = comp_of(key) if flat else tuple(chain.from_iterable(comp_of(key)))
            weight = moments.get(comp)
            if weight is None:
                weight = moments[comp] = moment(comp)
            kappa = memo.get(sub)
            if kappa is None:
                kappa = self._recurse(sub, flat)
            terms.append(weight * kappa)
        for i in order:
            value -= terms[i]
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


@lru_cache(maxsize=32)
def _multiset_expansion(size: int, k: int) -> tuple:
    """The multisets of k positions in range(size), as sorted tuples in
    combinations_with_replacement order, and a read-only intp array that
    holds, for each x in product(range(size), repeat=k), in product order,
    the index of the multiset of x."""
    multisets = tuple(combinations_with_replacement(range(size), k))
    rank = {ms: i for i, ms in enumerate(multisets)}
    expansion = np.array([rank[tuple(sorted(x))] for x in product(range(size), repeat=k)],
                         dtype=np.intp)
    expansion.flags.writeable = False  # every tensor of this shape shares it
    return multisets, expansion


def _tuple_getter(positions) -> itemgetter:
    """An itemgetter of the positions that returns a tuple for any number of
    them: a lone position is read as a one-item slice."""
    if len(positions) == 1:
        return itemgetter(slice(positions[0], positions[0] + 1))
    return itemgetter(*positions)


@cache
def _subset_plan(k: int, same: tuple) -> tuple:
    """The recursion's plan for a key of k variables anchored at position 0,
    where ``same[i]`` tells whether variables i and i + 1 are equal.

    The subsets E of range(k) that the recursion subtracts are the proper
    ones that hold position 0, by size and then in ``combinations`` order.
    A canonical key holds equal variables next to each other, so two subsets
    that take as many positions from every run of equal variables pick the
    same sub-key and the same complement: one class, one term.  Returns
    (distinct, order): ``distinct`` holds the tuple getters of the chosen
    and complement positions of the first subset of each class, and
    ``order`` the class of every subset, in subset order.  There are
    r_first * prod(r + 1) - 1 classes, with r_first the length of the first
    run and r those of the other runs.
    """
    run = [0]
    for equal in same:
        run.append(run[-1] + (not equal))
    rest = range(1, k)
    distinct, classes, order = [], {}, []
    for size in range(k - 1):
        for extra in combinations(rest, size):
            chosen = (0,) + extra
            cls = classes.setdefault(tuple(run[i] for i in chosen), len(classes))
            if cls == len(distinct):
                distinct.append((_tuple_getter(chosen),
                                 _tuple_getter(tuple(i for i in rest if i not in extra))))
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
