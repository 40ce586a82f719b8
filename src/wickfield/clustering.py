"""Clustering norms, magnitude constants, the Wick kernel, and the
numerical certification of the covariance and joint-cumulant bounds.

The sup over anchor points in the norm definition is approximated by a
finite anchor set that follows from the law and the box by one rule,
``_anchor_tuples``: one anchor for translation-invariant fields, else one
tuple per multiset of box sites, sorted by box position.  No caller
chooses anchors.  Every sup over anchors is ``_first_max``, and the
observable and joint bounds take their lhs from ``_weighted_l2``.  The
walks of a clustering norm and the pinned psi x' of the joint bound take
the tensors of every anchor in one call, ``CumulantTable.cumulant_tensors``,
one tensor per anchor, and fold them one by one; a non-Gaussian law
fills them in one request to its store, and the Phi_n rows read the same
tensors.
Lattice sums are truncated to caller-supplied boxes; no report bounds
the tail beyond its box.

Every array a check folds comes from ``CumulantTable.cumulant_tensors``,
the cumulants of fixed head variables and k box sites in product order
over box^k, one value per multiset: the |kappa| walks of the clustering
norms, the |kappa|^2 maps of the observable and joint bounds and the
block tensors of the Phi_n rows.  |kappa| is ``np.hypot`` of the tensor's
parts, as Python's ``abs`` of a complex rounds it, and every lp sum is the
one left fold in ``_norm_accumulate``.  A Phi_n row is symmetric in x and
in x': it holds one gathered entry per multiset of box positions, expanded
to box^n as a cumulant tensor is.  ``_row_plan``, built once per process
for each n, box size and vanishing rule, lists the restricted partitions
and, for each block, where its block tensor starts in one vector and how
the box positions of x index it; the row multiplies and adds the gathered
values along outer axes, which numpy folds left to right.

Every check on one ``CumulantTable`` shares, through ``derived``, each
clustering norm (by n, p and box), each set of magnitude constants (by p,
N and box), each Phi_n row (by n, x' in ``canonical`` order and box), the
stack of |Phi_n| rows at every anchor of the p = 2 lhs (by n and box) and
each cumulant tensor (by head, k and box): an anchor's tensor, which its
norms at every p fold, a row's block tensor, the tensor of a pinned psi x'
or an observable term.  For a real law a row's block tensor of one x' site
is the walk of that site's clustering norms, since the table drops the
conjugation flags of a real provider's head.  A call
without a table builds a fresh one, so nothing is shared; a table built on
another provider is refused.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, combinations_with_replacement, product
from operator import itemgetter

import numpy as np

from .cumulants import CumulantTable, MomentProvider, table_for
from .indexing import SiteRef, canonical
from .multisets import _multiset_expansion
from .partitions import enumerate_restricted, weighted_partition_sum
from .reports import FLAG_SLACK, BoundReport

#: the induction constant of the joint-cumulant bound; fixed, not tunable
GAMMA = 2 * math.e


@dataclass(frozen=True)
class MagnitudeConstants:
    """Running maxima M_1..M_N of (norm_n / n!)^(1/n); non-decreasing in N."""

    values: tuple

    def top(self) -> float:
        return self.values[-1]


@dataclass(frozen=True, eq=False)
class KernelRow:
    """One row x' -> { x : Phi_n(x', x) } of the order-n Wick kernel.

    ``entries`` is the read-only array of Phi_n(x', x) over product(box_sites,
    repeat=n) that every check on the row's CumulantTable shares, at every
    permutation of x'; every x of one multiset holds the same entry.
    ``values`` builds the dict {x: Phi_n(x', x)} from it on each access."""

    n: int
    box_sites: tuple
    entries: np.ndarray

    @property
    def values(self) -> dict:
        return dict(zip(product(self.box_sites, repeat=self.n), self.entries.tolist()))


class Observable:
    """A finite polynomial in field variables: sum of coeff * monomial."""

    def __init__(self, terms):
        self.terms = tuple((complex(c), tuple(mono)) for c, mono in terms)

    @classmethod
    def of_site(cls, site_label, conj: bool = False) -> "Observable":
        return cls([(1.0, (SiteRef(site_label, conj),))])

    def conjugate(self) -> "Observable":
        return Observable([(c.conjugate(), tuple(r.conjugate() for r in mono))
                           for c, mono in self.terms])

    def singleton_monomials(self) -> bool:
        return all(len(mono) == 1 for _, mono in self.terms)


def observable_cumulant(table: CumulantTable, X: Observable, refs) -> complex:
    """kappa[X, y(r_1), ..., y(r_k)], multilinear in the observable slot."""
    tail_vars = tuple((r,) for r in refs)
    return sum(c * table.joint_cumulant((mono,) + tail_vars)
               for c, mono in X.terms)


def _observable_tensor(table: CumulantTable, X: Observable, k: int,
                       box_sites) -> np.ndarray:
    """kappa[X, y(z_1), ..., y(z_k)] for z in box^k in product order: the sum
    from 0 of coeff times the cumulant tensor of each term, each entry
    rounded as ``observable_cumulant`` rounds it.  The complex products are
    spelled out in real parts, since numpy's complex multiply may fuse them."""
    total = np.zeros(len(box_sites) ** k, dtype=complex)
    for c, mono in X.terms:
        t = table.cumulant_tensor((mono,), k, box_sites)
        total.real += c.real * t.real - c.imag * t.imag
        total.imag += c.real * t.imag + c.imag * t.real
    return total


def observable_covariance(table: CumulantTable, X: Observable) -> float:
    """cov(X*, X) = kappa[X*, X]."""
    Xc = X.conjugate()
    total = 0.0 + 0.0j
    for c1, m1 in Xc.terms:
        for c2, m2 in X.terms:
            total += c1 * c2 * table.joint_cumulant((m1, m2))
    return float(total.real)


def _field_id(provider) -> str:
    return getattr(provider, "name", type(provider).__name__)


def _require_nonempty(name: str, items) -> tuple:
    """The box sites as a tuple; ValueError if there are none, since a sum
    or sup over nothing is 0 and would pass a check vacuously, or if one
    repeats, since a sum would count it twice."""
    items = tuple(items)
    if not items:
        raise ValueError(f"{name} is empty")
    if len(set(items)) < len(items):
        seen = set()
        for item in items:
            if item in seen:
                raise ValueError(f"{name} repeats {item!r}")
            seen.add(item)
    return items


def _require_p(p) -> None:
    """The weighted checks exist for p = 1 and p = 2 only; p is an int, so
    the report's id and witnesses name it as the caller meant it."""
    if isinstance(p, bool) or not isinstance(p, numbers.Integral) or p not in (1, 2):
        raise ValueError(f"p must be 1 or 2, not {p!r}")


def _require_exponent(p) -> None:
    """An lp exponent is a real number in [1, inf], and not a bool."""
    if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 1 <= p <= math.inf:
        raise ValueError(f"p must be in [1, inf], not {p!r}")


def _require_order(name: str, value) -> None:
    """An order n, m or N is an int >= 1: no order-0 norm, constant or row
    exists, and a bool or a float would be echoed in a report as given."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be an int >= 1, not {value!r}")


def _first_max(candidates) -> tuple:
    """The (value, witness) candidate of largest value, the first in scan
    order among equals; (0.0, None) if no value is positive, NaN included.
    Every sup over anchors takes its value and witness here."""
    return max((c for c in candidates if c[0] > 0.0), key=itemgetter(0), default=(0.0, None))


def _norm_accumulate(values, p: float) -> float:
    """The lp norm of a non-empty array of values >= 0, p in [1, inf]; a cumulative
    sum adds the p-th powers left to right, alike on every numpy and Python."""
    if p == math.inf:
        return float(values.max())
    return float(np.add.accumulate(values ** p)[-1]) ** (1.0 / p)


def _singles(sites, conj: bool = False) -> tuple:
    """The head of single field variables, one per site, that
    ``CumulantTable.cumulant_tensor`` takes."""
    return tuple((SiteRef(s, conj),) for s in sites)


def _abs(tensor: np.ndarray) -> np.ndarray:
    """|kappa| of a complex tensor, entry for entry as Python's ``abs``
    rounds it (``np.abs`` may differ in the last bit)."""
    return np.hypot(tensor.real, tensor.imag)


def _abs_sq(tensor: np.ndarray) -> np.ndarray:
    """|kappa|^2 as Python's ``abs(kappa) ** 2`` rounds it: ``float_power``
    calls the C ``pow`` as ``**`` does, where ``np.square`` may differ."""
    return np.float_power(_abs(tensor), 2)


def _anchor_tuples(provider, box, k: int) -> list:
    """The anchor k-tuples a sup over anchors scans, the one rule every sup
    follows: the diagonal tuple of the box's first site for a
    translation-invariant law, else one tuple per multiset of box sites,
    sorted by box position.  A tuple's permutations share its value, as
    cumulants and Phi_n rows are keyed in ``canonical`` order, and follow
    it in product order, so ``_first_max`` takes the sup and witness of box^k."""
    return list(combinations_with_replacement(
        box[:1] if provider.translation_invariant else box, k))


def clustering_norm(provider: MomentProvider, n: int, p: float, box_sites,
                    table: CumulantTable | None = None) -> float:
    """Truncated clustering norm: sup over the anchors of ``_anchor_tuples``
    of the lp-sum over box^(n-1) of |kappa| with the anchor pinned in the
    first slot, folded one row of the tensors of every anchor at a time;
    at n = 1 the row is the one |kappa| of the anchor."""
    _require_order("n", n)
    _require_exponent(p)
    box_sites = _require_nonempty("the norm box", box_sites)
    table = table_for(provider, table)
    if table.singletons_vanish(n):
        return 0.0

    def build():
        anchors = _anchor_tuples(provider, box_sites, 1)
        walks = map(_abs, table.cumulant_tensors(map(_singles, anchors), n - 1, box_sites))
        return _first_max(zip((float(walk[0]) if n == 1 else _norm_accumulate(walk, p)
                               for walk in walks), anchors))[0]

    return table.derived(("clustering_norm", n, p, box_sites), build)


def magnitude_constants(provider: MomentProvider, p: float, N: int, box_sites,
                        table: CumulantTable | None = None) -> MagnitudeConstants:
    """M_N = max over n <= N of (clustering_norm_n / n!)^(1/n), built once
    per table, p, N and box.  The norm of order N is taken first: the
    closure of its cumulants holds those of every lower order, so a table
    that fills them on demand fills them all in one walk."""
    _require_order("N", N)
    table = table_for(provider, table)
    box_sites = tuple(box_sites)

    def build():
        norms = [clustering_norm(provider, n, p, box_sites, table=table)
                 for n in range(N, 0, -1)]
        return MagnitudeConstants(_running_maxima(norms[::-1]))

    return table.derived(("magnitude_constants", p, N, box_sites), build)


def _running_maxima(norms) -> tuple:
    """M_1..M_N from the clustering norms of orders 1..N."""
    scaled = ((value / math.factorial(n)) ** (1.0 / n) for n, value in enumerate(norms, start=1))
    return tuple(accumulate(scaled, max, initial=0.0))[1:]


def phi_kernel(provider: MomentProvider, n: int, xprime, box_sites,
               table: CumulantTable | None = None) -> KernelRow:
    """Phi_n(x', x) = E[ :phi(x'_1)* ... phi(x'_n)*: :phi(x_1) ... phi(x_n): ]
    for every x in box^n: the sum over the restricted partitions of the
    n + n positions of the products of their block cumulants, less the
    partitions with a block that ``CumulantTable.singletons_vanish``.  Each
    block's cumulants over the box are the table's cumulant tensor of its
    x' head.  The row is symmetric in x and in x', as a Wick polynomial is
    in its arguments: it is built once per table, n, box and x' in
    ``canonical`` order, and ``_phi_row`` evaluates one entry per multiset
    of x.  Only the table checks orders.
    """
    _require_order("n", n)
    xprime, box_sites = tuple(xprime), _require_nonempty("the kernel box", box_sites)
    if len(xprime) != n:
        raise ValueError(f"x' has {len(xprime)} sites, but a Phi_{n} row needs {n}")
    table = table_for(provider, table)
    xprime = tuple(ref.site for ref in canonical(map(SiteRef, xprime)))
    entries = table.derived(("phi_kernel", n, xprime, box_sites),
                            lambda: _phi_row(table, n, xprime, box_sites))
    return KernelRow(n, box_sites, entries)


#: about this many block values are gathered per slice of a Phi_n row
_GATHER_CHUNK = 1 << 18


@lru_cache(maxsize=32)
def _row_plan(n: int, size: int, vanish: tuple) -> tuple:
    """How every Phi_n row over a box of ``size`` sites is gathered.

    ``vanish[k]`` tells whether every cumulant of k single field variables
    is zero; the restricted partitions of the n + n positions with such a
    block are dropped.  A block with the x' positions L and r x positions
    reads its block tensor, kappa[x'_L*, phi(z_1), ..., phi(z_r)] for z in
    box^r in product order, at the box positions of its x positions, the
    first the most significant digit.  The row lays the tensors out after
    an exact 1.0 pad in one vector.  A partition's blocks fill its last
    slots in order; the slots before them, slot 0 among them, read the pad.

    Returns (keys, offsets, weights): the distinct (L, r), in first-use
    order, whose tensors the vector holds; where each slot's tensor starts
    in the vector, shape (slots, partitions, 1); and the weight of each x
    position's box position in a slot's index, shape (slots, partitions,
    n).  Indices are integers, so exact.
    """
    keys = {}
    parts = []
    for part in enumerate_restricted((range(n), range(n))):
        if any(vanish[len(b)] for b in part.blocks):
            continue
        blocks = []
        for b in part.blocks:
            lefts = tuple(i for i in b if i < n)
            key = keys.setdefault((lefts, len(b) - len(lefts)), len(keys))
            blocks.append((key, b[len(lefts):]))
        parts.append(blocks)
    starts = [1]
    for _, r in keys:
        starts.append(starts[-1] + size ** r)
    slots = 1 + max(map(len, parts), default=0)
    offsets = np.zeros((slots, len(parts), 1), dtype=np.intp)
    weights = np.zeros((slots, len(parts), n), dtype=np.intp)
    for p, blocks in enumerate(parts):
        for s, (key, xs) in enumerate(blocks, start=slots - len(blocks)):
            offsets[s, p] = starts[key]
            for axis, j in enumerate(xs):
                weights[s, p, j - n] = size ** (len(xs) - 1 - axis)
    offsets.flags.writeable = weights.flags.writeable = False  # every row shares them
    return tuple(keys), offsets, weights


def _phi_row(table: CumulantTable, n: int, xprime, box_sites) -> np.ndarray:
    """The Phi_n row over box^n in product order, a read-only flat array.

    One entry is gathered through ``_row_plan`` per multiset of box
    positions, at its x in box order, about ``_GATHER_CHUNK`` values per
    slice of the multisets.  Each entry multiplies every partition's slots
    in slot order and adds the partitions to 0.0 in plan order; both
    reductions run along the outermost axis, so numpy folds them left to
    right, in the order of the restricted expansion of that x, and with
    real cumulants each entry rounds as it does (numpy's complex multiply
    may not).  numpy keeps that order only while an axis of at least 2 lies
    inside the reduced one, so the multisets are padded with the first one
    to whole slices of at least 2.  The entries are then expanded to every
    x of their multiset, as ``CumulantTable.cumulant_tensor`` expands its."""
    left = _singles(xprime, True)
    size = len(box_sites)
    keys, offsets, weights = _row_plan(
        n, size, tuple(table.singletons_vanish(k) for k in range(2 * n + 1)))
    tensors = [np.ones(1, dtype=complex)]
    for lefts, r in keys:  # rows whose x' share a block's head share its tensor
        tensors.append(table.cumulant_tensor(tuple(left[i] for i in lefts), r, box_sites))
    vector = np.concatenate(tensors)
    multisets, expansion = _multiset_expansion(size, n)
    slices = -(-len(multisets) // max(2, _GATHER_CHUNK // offsets.size))
    width = max(2, -(-len(multisets) // slices))
    positions = np.zeros((slices, width, n), dtype=np.intp)
    positions.reshape(-1, n)[:len(multisets)] = multisets
    terms = np.zeros((weights.shape[1] + 1, width), dtype=complex)  # row 0 stays 0.0
    total = np.empty((slices, width), dtype=complex)
    for chunk, out in zip(positions, total):
        terms[1:] = np.multiply.reduce(vector[offsets + weights @ chunk.T], axis=0)
        np.add.reduce(terms, axis=0, out=out)
    row = total.ravel()[expansion]
    row.flags.writeable = False
    return row


def _weighted_l2(table: CumulantTable, n: int, p: int, box_sites,
                 kappa_sq: np.ndarray) -> tuple:
    """The lhs of the observable and joint bounds for one map kappa_sq of
    |kappa|^2 over box^n, and its anchor.  At p = 1, the l2 sum
    sqrt(sum_x kappa_sq[x]) and None; at p = 2, the max over the anchors y
    in ``_anchor_tuples(provider, box_sites, n)`` of
    sqrt(sum_x |Phi_n(y, x)| kappa_sq[x]) and the first y that attains it,
    as ``_first_max`` takes them.  The |Phi_n(y, .)| of every anchor are
    stacked once per table, n and box, and one cumulative sum along the
    rows folds each anchor's sum left to right, as ``_norm_accumulate``
    does."""
    if p == 1:
        return math.sqrt(_norm_accumulate(kappa_sq, 1)), None
    anchors = _anchor_tuples(table.provider, box_sites, n)

    def build():
        stack = np.stack([np.abs(phi_kernel(table.provider, n, y, box_sites,
                                            table=table).entries) for y in anchors])
        stack.flags.writeable = False
        return stack

    stack = table.derived(("phi_abs_stack", n, box_sites), build)
    sums = np.add.accumulate(stack * kappa_sq, axis=1)[:, -1]
    return _first_max(zip(map(math.sqrt, sums.tolist()), anchors))


def lemma_check(provider: MomentProvider, n: int, p: float, xprime, box_sites,
                norm_box=None, table: CumulantTable | None = None) -> BoundReport:
    """Certify the kernel-row norm chain

        || Phi_n(x', .) ||_lp
          <= sum over partitions of 2n elements of prod ||phi||_p^(|S|)
          <= M_2n(phi; p)^(2n) e^(2n) (2n)!

    Both flags travel in the witnesses; the top-level flag compares the
    outermost pair.  M is the top of ``magnitude_constants`` over the same
    norms.
    """
    _require_exponent(p)
    table = table_for(provider, table)
    if norm_box is None:
        norm_box = box_sites
    row = phi_kernel(provider, n, xprime, box_sites, table=table)
    lhs = _norm_accumulate(np.abs(row.entries), p)
    # M first, which takes the norms from the top order down
    M = magnitude_constants(provider, float(p), 2 * n, norm_box, table=table).top()
    norms = {m: clustering_norm(provider, m, p, norm_box, table=table)
             for m in range(1, 2 * n + 1)}
    middle = weighted_partition_sum(2 * n, norms)
    rhs = M ** (2 * n) * math.e ** (2 * n) * math.factorial(2 * n)
    slack = 1 + FLAG_SLACK
    return BoundReport(
        inequality_id="kernel-row-norm-chain",
        lhs=lhs,
        rhs=rhs,
        witnesses={
            "n": n, "p": p, "xprime": list(xprime),
            "middle": middle,
            "flag_lhs_le_middle": lhs <= middle * slack,
            "flag_middle_le_rhs": middle <= rhs * slack,
            "magnitude_constant": M,
            "field": _field_id(provider),
        },
    )


def theorem41_check(provider: MomentProvider, X: Observable, n: int, p: int,
                    box_sites, norm_box=None,
                    table: CumulantTable | None = None) -> BoundReport:
    """Covariance bound on joint cumulants of an observable with n field
    arguments; one with cov(X*, X) <= 1e-12 E[X* X] does not vary beyond
    rounding, and is rejected.

    p=1: unweighted l2-sum against sqrt(cov) M_2n(phi;1)^n e^n sqrt((2n)!).
    p=2: the Phi_n-weighted l2-sum (sup over x' anchors) against
         sqrt(cov) M_2n(phi;2)^(2n) e^(2n) (2n)!.
    """
    _require_p(p)
    _require_order("n", n)
    box_sites = _require_nonempty("the box", box_sites)
    table = table_for(provider, table)
    if norm_box is None:
        norm_box = box_sites
    cov = observable_covariance(table, X)
    second = cov + abs(observable_cumulant(table, X, ())) ** 2  # E[X* X]
    if not cov > 1e-12 * second:
        raise ValueError(f"cov(X*, X) = {cov!r} is not positive: the observable "
                         f"{X.terms!r} does not vary beyond 1e-12 E[X* X] = {second!r}")
    M = magnitude_constants(provider, float(p), 2 * n, norm_box, table=table).top()

    lhs, witness_x = 0.0, None
    if not (X.singleton_monomials() and table.singletons_vanish(1 + n)):
        kappa_sq = _abs_sq(_observable_tensor(table, X, n, box_sites))
        lhs, witness_x = _weighted_l2(table, n, p, box_sites, kappa_sq)
        if p == 1 and lhs > 0:  # the first largest |kappa|^2
            witness_x = tuple(box_sites[i] for i in np.unravel_index(
                np.argmax(kappa_sq), (len(box_sites),) * n))

    if p == 1:
        rhs = math.sqrt(cov) * M ** n * math.e ** n * math.sqrt(math.factorial(2 * n))
    else:
        rhs = math.sqrt(cov) * M ** (2 * n) * math.e ** (2 * n) * math.factorial(2 * n)
    return BoundReport(
        inequality_id=f"observable-cumulant-l2-p{p}",
        lhs=lhs,
        rhs=rhs,
        witnesses={"n": n, "p": p, "cov": cov, "magnitude_constant": M,
                   "witness_x": list(witness_x) if witness_x else None,
                   "field": _field_id(provider)},
    )


def joint_theorem_check(provider: MomentProvider, m: int, n: int, p: int,
                        psi_sites, phi_box, psi_norm_box=None, phi_norm_box=None,
                        table: CumulantTable | None = None) -> BoundReport:
    """Joint-cumulant l2 bound for two fields living on one provider.

    p=1:  sup_x' [ sum_x |kappa[psi(x'), phi(x)]|^2 ]^(1/2)
              <= (M_joint gamma^m)^(n+m) (n+m)!
    p=2:  the Phi_n-weighted variant with RHS (M_joint gamma^m)^(2(n+m))
          ((n+m)!)^2, sup over x' and the weight anchor y.

    M_joint = max(M_2m(psi; inf), M_2n(phi; 1 or 2)), gamma = 2e.  The
    tensors of every pinned x' are taken at once, one tensor each, and the
    sup scans (x', y) with x' outermost.
    """
    _require_p(p)
    _require_order("m", m)
    _require_order("n", n)
    psi_sites = _require_nonempty("the psi box", psi_sites)
    phi_box = _require_nonempty("the phi box", phi_box)
    table = table_for(provider, table)
    if psi_norm_box is None:
        psi_norm_box = psi_sites
    if phi_norm_box is None:
        phi_norm_box = phi_box

    M_psi = magnitude_constants(provider, math.inf, 2 * m, psi_norm_box,
                                table=table).top()
    M_phi = magnitude_constants(provider, float(p), 2 * n, phi_norm_box,
                                table=table).top()
    M_joint = max(M_psi, M_phi)

    # with vanishing cumulants of order m + n the sum is exactly zero
    xprime_tuples = ([] if table.singletons_vanish(m + n)
                     else _anchor_tuples(provider, psi_sites, m))

    def psi_pinned(xp, row):
        value, y = _weighted_l2(table, n, p, phi_box, _abs_sq(row))
        return value, (xp, y)

    rows = table.cumulant_tensors(map(_singles, xprime_tuples), n, phi_box)
    lhs, where = _first_max(map(psi_pinned, xprime_tuples, rows))
    witness = None
    if where is not None:
        xp, y = where
        witness = {"xprime": list(xp), "y": list(y)} if p == 2 else {"xprime": list(xp)}

    base = M_joint * GAMMA ** m
    if p == 1:
        rhs = base ** (n + m) * math.factorial(n + m)
    else:
        rhs = base ** (2 * (n + m)) * math.factorial(n + m) ** 2
    return BoundReport(
        inequality_id=f"joint-cumulant-l2-p{p}",
        lhs=lhs,
        rhs=rhs,
        witnesses={"m": m, "n": n, "p": p, "gamma": GAMMA,
                   "M_joint": M_joint, "M_psi_inf": M_psi, "M_phi": M_phi,
                   "witness": witness, "field": _field_id(provider)},
    )


@dataclass
class DivergenceProbe:
    """Partial sums of |cross covariance|^exponent over growing radii."""

    exponent: int
    rows: list  # (radius, partial_sum)
    slope_vs_log_radius: float
    odd_harmonic_coefficient: float | None


def l1_divergence_probe(field, radii, exponent: int = 1) -> DivergenceProbe:
    """Partial sums S_R = sum_{|x| <= R} |G(x)|^exponent, R >= 1, for the
    cross covariance of a translation-invariant spectral pair.

    Two fits are reported for exponent 1: the raw slope of S_R against
    ln R, and the coefficient of S_R against the odd-harmonic partial sum
    sum_{odd y <= R} 1/y (which grows like (ln R)/2).  For the band-limited
    coupling example the latter recovers the divergence coefficient 2/pi.
    """
    radii = sorted(int(r) for r in radii)
    if len(set(radii)) < 2 or radii[0] < 1:
        raise ValueError(f"a fit needs two or more distinct radii >= 1, not {radii!r}")
    rmax = radii[-1]
    y = np.arange(1, rmax + 1)
    g_pos = np.abs(np.asarray(field.covariance_profile("psiphi", y))) ** exponent
    g_neg = np.abs(np.asarray(field.covariance_profile("psiphi", -y))) ** exponent
    g0 = abs(field.pair_covariance("psiphi", 0)) ** exponent
    cum = g0 + np.cumsum(g_pos + g_neg)
    sums = [float(cum[r - 1]) for r in radii]
    rows = list(zip(radii, sums))

    logs = np.log(np.asarray(radii, dtype=float))
    slope = float(np.polyfit(logs, sums, 1)[0])
    harmonic = None
    if exponent == 1:
        inv = 1.0 / y
        inv[y % 2 == 0] = 0.0
        hcum = np.cumsum(inv)
        regressor = np.asarray([hcum[r - 1] for r in radii])
        harmonic = float(np.polyfit(regressor, sums, 1)[0])
    return DivergenceProbe(exponent=exponent, rows=rows,
                           slope_vs_log_radius=slope,
                           odd_harmonic_coefficient=harmonic)
