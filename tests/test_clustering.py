import functools
import math
import operator
import re
import sys
import threading
import tracemalloc
from itertools import combinations, permutations, product

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickfield import clustering, cumulants
from wickfield.clustering import (
    GAMMA,
    Observable,
    _anchor_tuples,
    clustering_norm,
    joint_theorem_check,
    l1_divergence_probe,
    lemma_check,
    magnitude_constants,
    observable_covariance,
    observable_cumulant,
    phi_kernel,
    theorem41_check,
)
from wickfield.cumulants import CumulantTable, MomentProvider
from wickfield.fields import (
    EnsembleEstimator,
    FiniteDiscreteField,
    GaussianCovarianceField,
    IidComplexGaussianField,
    IidRealGaussianField,
    random_discrete_field,
    sample_ensemble,
    sinc_coupling_example,
)
from wickfield.indexing import SiteRef, canonical
from wickfield.multisets import _multisets

from conftest import (
    direct_wick_product_expectation,
    hide_bulk,
    left_fold,
    per_anchor_clustering_norm,
    per_anchor_joint_theorem_check,
    product_order_clustering_norm,
    product_order_phi_row,
    product_order_walk,
)


class GrowingVarianceField(GaussianCovarianceField):
    """Independent real Gaussians with variance 1 + s at site s: Gaussian,
    but not translation invariant."""

    def covariance(self, a, b):
        return 1.0 + a.site if a.site == b.site else 0.0


class NonGaussianView(MomentProvider):
    """The same moments with the Gaussian flag off, which sends phi_kernel
    down the restricted-partition expansion; the view lists the given
    sites, over which its tables store the cumulants."""

    def __init__(self, inner, sites):
        self.inner = inner
        self.max_order = inner.max_order
        self.sites = tuple(dict.fromkeys(sites))

    def moment(self, sequence):
        return self.inner.moment(sequence)


class AnchorScanView(NonGaussianView):
    """The same moments with the Gaussian flag kept and translation
    invariance dropped: every sup over anchors scans all of box^k, as it
    does for NonGaussianView, while the Gaussian rule still applies."""

    def __init__(self, inner):
        super().__init__(inner, ())
        self.is_gaussian = inner.is_gaussian

    def covariance(self, a, b):
        return self.inner.covariance(a, b)

    def covariance_row(self, a, refs):
        return self.inner.covariance_row(a, refs)


def test_gamma_constant():
    assert GAMMA == pytest.approx(2 * math.e)


def test_clustering_norm_iid_real():
    f = IidRealGaussianField()
    box = list(range(-5, 6))
    assert clustering_norm(f, 2, 1, box) == pytest.approx(1.0)
    assert clustering_norm(f, 2, math.inf, box) == pytest.approx(1.0)
    assert clustering_norm(f, 3, 1, box) == 0.0
    assert clustering_norm(f, 1, 1, box) == 0.0


def test_clustering_norm_circular_complex_unconjugated():
    # the norm sums cumulants of the bare (unconjugated) variables; for a
    # circularly symmetric complex field E[phi phi] = 0, so the norm vanishes
    f = IidComplexGaussianField()
    assert clustering_norm(f, 2, 1, list(range(-3, 4))) == 0.0


def test_clustering_norm_discrete_anchor_sup(rng):
    # non-invariant field: the sup must scan every anchor
    f = random_discrete_field(rng, sites=[0, 1, 2])
    table = CumulantTable(f)
    per_anchor = []
    for a in f.sites:
        per_anchor.append(sum(abs(table.cumulant((SiteRef(a), SiteRef(b))))
                              for b in f.sites))
    rep = clustering_norm(f, 2, 1, list(f.sites))
    assert rep == pytest.approx(max(per_anchor))


def test_clustering_norm_inhomogeneous_gaussian_scans_anchors():
    f = GrowingVarianceField()
    box = [0, 1, 2, 3]
    assert clustering_norm(f, 2, 1, box) == pytest.approx(4.0)
    assert clustering_norm(f, 2, 1, box[::-1]) == pytest.approx(4.0)


def test_magnitude_constants_monotone():
    f = IidRealGaussianField()
    M = magnitude_constants(f, 1, 6, list(range(-3, 4)))
    vals = list(M.values)
    assert vals == sorted(vals)
    # only n = 2 contributes: M = (1/2!)^(1/2)
    assert M.top() == pytest.approx(1 / math.sqrt(2))


def test_phi_kernel_iid_complex_orthonormal():
    f = IidComplexGaussianField()
    box = list(range(-2, 3))
    row = phi_kernel(f, 1, (0,), box)
    for x, v in row.values.items():
        want = 1.0 if x == (0,) else 0.0
        assert v == pytest.approx(want, abs=1e-12)
    # order 2: E[:phi(0)*^2: :phi(x)^2:] = 2 delta pairings on the diagonal
    row2 = phi_kernel(f, 2, (0, 0), box)
    assert row2.values[(0, 0)] == pytest.approx(2.0)
    assert row2.values[(0, 1)] == pytest.approx(0.0, abs=1e-12)


PAIRING_ROWS = {
    "sinc": (sinc_coupling_example(), [("phi", 0), ("psi", 1), ("psi", -2)],
             (("phi", 0), ("psi", 0), ("phi", 1))),
    # psi against phi: sinc values of both signs, so the order in which the
    # pairings are added shows in the last bits
    "sinc-cross": (sinc_coupling_example(), [("phi", 0), ("phi", 1), ("phi", 3)],
                   (("psi", 0), ("psi", 1), ("psi", 2))),
    "iid-complex": (IidComplexGaussianField(variance=1.3), [0, 1], (0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(PAIRING_ROWS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_kernel_permanent_matches_restricted_expansion(name, n):
    provider, box, xprime = PAIRING_ROWS[name]
    fast = phi_kernel(provider, n, xprime[:n], box)
    slow = phi_kernel(NonGaussianView(provider, box + list(xprime)), n, xprime[:n], box)
    assert list(fast.values) == list(slow.values)
    for x, v in slow.values.items():
        assert abs(fast.values[x] - v) <= 1e-12, x


def _discrete_row_case(n_sites, seed, n):
    """A random discrete field on n_sites sites, its sites as the box, and
    an x' of n sites drawn after the field."""
    rng = np.random.default_rng(seed)
    f = random_discrete_field(rng, sites=list(range(n_sites)))
    return f, list(f.sites), tuple(int(s) for s in rng.integers(0, n_sites, n))


# (law, n): the Gaussian rows of PAIRING_ROWS, and random discrete fields on
# 3 and 4 sites, seeds 0-2
ROW_CASES = (
    [pytest.param(name, n, id=f"{name}-{n}")
     for name in sorted(PAIRING_ROWS) for n in (1, 2, 3)]
    + [pytest.param((n_sites, seed), n, id=f"discrete{n_sites}-seed{seed}-{n}")
       for n_sites in (3, 4) for seed in range(3) for n in (1, 2, 3, 4)])


def _row_case(law, n):
    if law in PAIRING_ROWS:
        provider, box, xprime = PAIRING_ROWS[law]
        return provider, box, xprime[:n]
    return _discrete_row_case(*law, n)


def _sorted_x(x, box):
    """x sorted by box position: the x at which a row evaluates the entry
    that every permutation of x shares."""
    return tuple(sorted(x, key=list(box).index))


def _canonical_xprime(xprime):
    """x' in the ``canonical`` order at which a row is built."""
    return tuple(ref.site for ref in canonical(map(SiteRef, xprime)))


@pytest.mark.parametrize("law,n", ROW_CASES)
def test_phi_kernel_row_equals_product_order(law, n):
    # every row adds the restricted partitions over the whole box in the
    # order the restricted expansion of each sorted x does, and multiplies
    # each partition's blocks in order, so it rounds as that expansion does
    # at the x sorted by box position and the x' in canonical order
    provider, box, xprime = _row_case(law, n)
    got = phi_kernel(provider, n, xprime, box).values
    want = product_order_phi_row(provider, n, _canonical_xprime(xprime), box)
    assert list(got) == list(want)
    for x, v in got.items():
        assert v == want[_sorted_x(x, box)], x


@pytest.mark.parametrize("law,n", ROW_CASES)
def test_phi_kernel_row_is_symmetric_in_x(law, n):
    # one entry per multiset of x: every permutation of x reads it exactly
    provider, box, xprime = _row_case(law, n)
    row = phi_kernel(provider, n, xprime, box).values
    for x, v in row.items():
        assert all(row[y] == v for y in permutations(x)), x


@pytest.mark.parametrize("law,n", ROW_CASES)
def test_phi_kernel_row_matches_product_order_at_x_as_given(law, n):
    # the sorted x and x' round otherwise than the x and x' as given, by
    # far less than the row's largest entry
    provider, box, xprime = _row_case(law, n)
    got = phi_kernel(provider, n, xprime, box).values
    want = product_order_phi_row(provider, n, xprime, box)
    scale = max(abs(v) for v in want.values())
    assert scale > 0
    for x, v in want.items():
        assert abs(got[x] - v) <= 1e-12 * scale, x


@pytest.mark.parametrize("law,n", [case for case in ROW_CASES if case.values[1] >= 2])
def test_phi_kernel_shares_one_row_across_permutations_of_xprime(monkeypatch, law, n):
    # the row is keyed by x' in canonical order, so every permutation of x'
    # reads the one array that a single build made
    builds = []
    _count_calls(monkeypatch, clustering, "_phi_row", builds)
    provider, box, xprime = _row_case(law, n)
    table = CumulantTable(provider)
    rows = [phi_kernel(provider, n, xp, box, table=table).entries
            for xp in permutations(xprime)]
    assert len(builds) == 1
    assert all(row is rows[0] for row in rows)


def test_phi_kernel_gaussian_order_5_is_the_permanent():
    # a Gaussian row needs pair cumulants only, whatever the provider's
    # max_order.  The brute-force permanent pairs x_j with x'_tau(j) and
    # adds the permutations tau in lexicographic order, the order in which
    # the restricted expansion enumerates the pairings; each product
    # multiplies its factors in the order of i, as the expansion does.
    # The row evaluates it at x sorted by box position and x' in canonical
    # order
    provider = sinc_coupling_example()
    box = [("phi", 0), ("phi", 1)]
    xprime = (("psi", 0), ("psi", 1), ("psi", 2), ("psi", -1), ("psi", 3))
    n = len(xprime)
    assert 2 * n > provider.max_order
    row = phi_kernel(provider, n, xprime, box).values
    assert list(row) == list(product(box, repeat=n))
    left = _canonical_xprime(xprime)
    for x in product(box, repeat=n):
        sx = _sorted_x(x, box)
        want = 0.0 + 0.0j
        for tau in permutations(range(n)):
            slot = {i: j for j, i in enumerate(tau)}
            term = 1.0 + 0.0j
            for i in range(n):
                term *= complex(provider.covariance(SiteRef(left[i], True),
                                                    SiteRef(sx[slot[i]])))
            want += term
        assert row[x] == want, x
    assert max(abs(v) for v in row.values()) > 0.01


def _complex_discrete_field(rng, sites) -> FiniteDiscreteField:
    """A random finite field on four atoms with complex values, so it does
    not declare ``is_real`` and its tensors keep their heads' conjugation."""
    probs = rng.random(4) + 0.05
    shape = (4, len(sites))
    values = rng.uniform(-1, 1, shape) + 1j * rng.uniform(-1, 1, shape)
    return FiniteDiscreteField(sites, zip(probs / probs.sum(), values))


@pytest.mark.parametrize("n", [2, 3])
def test_phi_kernel_complex_row_matches_product_order_to_rounding(n):
    # with complex cumulants a row agrees with the restricted expansion to
    # rounding only: numpy's complex multiply may round a*b otherwise than
    # Python's
    rng = np.random.default_rng(n)
    f = _complex_discrete_field(rng, [0, 1, 2])
    box, xprime = [0, 1, 2], tuple(int(s) for s in rng.integers(0, 3, n))
    got = phi_kernel(f, n, xprime, box).values
    want = product_order_phi_row(f, n, xprime, box)
    assert list(got) == list(want)
    scale = max(abs(v) for v in got.values())
    assert scale > 0.01
    assert any(v.imag != 0 for v in got.values())
    for x, v in want.items():
        assert abs(got[x] - v) <= 1e-14 * scale, x


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_sites", [3, 4])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_phi_kernel_row_matches_direct_wick_product(seed, n_sites, n):
    # entries cancel down to 1e-7 of the row's largest, so the tolerance is
    # relative to that
    f, box, xprime = _discrete_row_case(n_sites, seed, n)
    got = phi_kernel(f, n, xprime, box).values
    scale = max(abs(v) for v in got.values())
    left = tuple(SiteRef(s, True) for s in xprime)
    for x, v in got.items():
        direct = direct_wick_product_expectation(f, (left, tuple(SiteRef(s) for s in x)))
        assert abs(v - direct) <= 1e-12 * scale, x


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_phi_kernel_looks_up_each_block_cumulant_once(monkeypatch, n):
    # a row runs no restricted expansion per x: the block tensor of each set
    # L of x' positions and number r of x positions is built once, from the
    # store, with no cumulant lookup; complex atoms keep the conjugation
    # flags that name L
    expansions, lookups, builds = [], [], []
    _count_calls(monkeypatch, cumulants, "wick_product_expectation", expansions)
    _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
    _count_calls(monkeypatch, CumulantTable, "_tensors", builds)
    f = _complex_discrete_field(np.random.default_rng(1), [0, 1, 2, 3])
    assert not f.is_real
    box = [0, 1, 2]
    xprime = tuple(range(n))  # distinct sites, so a head names its L
    row = phi_kernel(f, n, xprime, box)
    assert len(row.values) == len(box) ** n
    assert expansions == [] and lookups == []
    tensors = []
    for _, heads, r, box_sites in builds:
        assert box_sites == tuple(box)
        for head in heads:
            assert all(ref.conj for (ref,) in head), head
            tensors.append((tuple(ref.site for (ref,) in head), r))
    # a block holds L and r x positions; what it leaves must pair up, so
    # r < n unless L is all of x'
    want = {(lefts, r) for k in range(1, n) for lefts in combinations(range(n), k)
            for r in range(1, n)} | {(xprime, n)}
    assert sorted(tensors) == sorted(want)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_real_phi_kernel_reads_the_unconjugated_tensors(monkeypatch, n):
    # a real law has y(x)* = y(x), so the table drops the conjugation flags
    # of a head: the block tensor of a conjugated x' site is the very array
    # of the plain site, the walk its clustering norms fold, and the row
    # equals the one built with the flags kept.  Both the law, filled by
    # whole orders, and the law with its moments by order hidden, filled on
    # demand, gather their tensors from the store, with no lookup
    lookups = []
    _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
    law = random_discrete_field(np.random.default_rng(1), sites=[0, 1, 2, 3])
    box, xprime = (0, 1, 2), tuple(range(n))
    blocks = [(lefts, r) for k in range(1, n) for lefts in combinations(xprime, k)
              for r in range(1, n)] + [(xprime, n)]
    rows = []
    for f in (hide_bulk(law), law):
        assert f.is_real
        table = CumulantTable(f)
        rows.append(phi_kernel(f, n, xprime, box, table=table).values)
        assert lookups == []
        for lefts, r in blocks:  # the row's blocks, with their flags, build nothing
            conj = table.cumulant_tensor(tuple((SiteRef(s, True),) for s in lefts), r, box)
            assert conj is table.cumulant_tensor(tuple((SiteRef(s),) for s in lefts), r, box)
        assert lookups == []
    kept = FiniteDiscreteField(law.sites, law.atoms)
    kept.is_real = False
    assert phi_kernel(kept, n, xprime, box).values == rows[0] == rows[1]


@pytest.mark.parametrize("shape", [(7, 3, 5), (2, 9, 13), (5, 2, 1), (11, 4, 3),
                                   (1, 3, 7), (6, 121, 120), (6, 120, 2)])
def test_numpy_outer_axis_reductions_are_left_folds(shape):
    # a Phi_n row multiplies each partition's slots with np.multiply.reduce
    # along axis 0 of (slots, partitions, multisets), and adds the partitions
    # with np.add.reduce along axis 0 of (partitions, multisets): both must be
    # the left folds the restricted expansion runs, bit for bit.  The fold
    # multiplies with numpy, as the expansion over a box did before rows
    # were gathered: numpy's complex multiply may round otherwise than
    # Python's.  The row keeps an axis of at least 2 inside the reduced one.
    rng = np.random.default_rng(sum(shape))
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    assert np.multiply.reduce(a, axis=0).tobytes() == \
        functools.reduce(np.multiply, a).tobytes()
    b = a.reshape(shape[0], -1)
    want = np.array([functools.reduce(operator.add, column) for column in b.T.tolist()])
    assert np.add.reduce(b, axis=0).tobytes() == want.tobytes()


def _sinc_lemma_row(box_slice=slice(15, 26)):
    """The widest row verify-bounds builds: Phi_5 of the sinc pair at x' =
    (phi 0,) * 5 over the 11 sites phi -5..5, 161,051 entries and 3,003
    multisets; with another slice of the lemma box, that row over it."""
    box = [("phi", x) for x in range(-20, 21)][box_slice]
    return phi_kernel(sinc_coupling_example(), 5, (("phi", 0),) * 5, box).entries


@pytest.mark.parametrize("box_slice", [slice(15, 26), slice(20, 21)], ids=["11-site", "1-site"])
def test_phi_row_chunks_agree_and_bound_memory(monkeypatch, box_slice):
    # the row gathers about 2^18 values at a time, one entry per multiset,
    # and keeps the 2.5 MiB array of entries it expands them to, so its
    # peak stays near the 7.5 MiB that one slice's indices and gathered
    # values take.  With a gather of one value at a time every slice holds
    # 2 multisets, and the one multiset of a one-site box is padded to 2
    clustering._row_plan.cache_clear()
    tracemalloc.start()
    try:
        want = _sinc_lemma_row(box_slice)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, (kept, peak)
    monkeypatch.setattr(clustering, "_GATHER_CHUNK", 1)
    got = _sinc_lemma_row(box_slice)
    size = box_slice.stop - box_slice.start
    assert got.shape == want.shape == (size ** 5,)
    assert got.tobytes() == want.tobytes()


_DISCRETE = random_discrete_field(np.random.default_rng(2), sites=[0, 1, 2])


@pytest.mark.parametrize("call,n,length", [
    (lambda n, xp: phi_kernel(_DISCRETE, n, xp, [0, 1]), 1, 0),
    (lambda n, xp: phi_kernel(_DISCRETE, n, xp, [0, 1]), 1, 2),
    (lambda n, xp: phi_kernel(_DISCRETE, n, xp, [0, 1]), 3, 2),
    (lambda n, xp: lemma_check(_DISCRETE, n, 1.0, xp, [0, 1]), 3, 2),
], ids=["phi_kernel-1-0", "phi_kernel-1-2", "phi_kernel-3-2", "lemma-3-2"])
def test_phi_kernel_rejects_xprime_of_another_length(call, n, length):
    # a Phi_n row pairs n conjugated sites with n sites; any other x' would
    # be a kernel of another order
    with pytest.raises(ValueError, match=f"x' has {length} sites, but a Phi_{n} row needs {n}"):
        call(n, (0,) * length)


_OTHER_DISCRETE = random_discrete_field(np.random.default_rng(3), sites=[0, 1, 2])


@pytest.mark.parametrize("call", [
    lambda table: clustering_norm(_DISCRETE, 2, 1, [0, 1], table=table),
    lambda table: magnitude_constants(_DISCRETE, 1.0, 2, [0, 1], table=table),
    lambda table: phi_kernel(_DISCRETE, 1, (0,), [0, 1], table=table),
    lambda table: lemma_check(_DISCRETE, 1, 1.0, (0,), [0, 1], table=table),
    lambda table: theorem41_check(_DISCRETE, Observable.of_site(2), 1, 2, [0, 1],
                                  table=table),
    lambda table: joint_theorem_check(_DISCRETE, 1, 1, 2, [2], [0, 1], table=table),
    lambda table: cumulants.wick_product_expectation(
        _DISCRETE, ((SiteRef(0), SiteRef(1)),), (SiteRef(2),), table=table),
], ids=["clustering_norm", "magnitude_constants", "phi_kernel", "lemma",
        "theorem41", "joint", "wick_product_expectation"])
def test_table_of_another_provider_is_refused(call):
    # its cumulants would stand in for the provider's, while anchors and
    # witnesses still came from the provider
    call(CumulantTable(_DISCRETE))
    with pytest.raises(ValueError, match="table was built on another provider"):
        call(CumulantTable(_OTHER_DISCRETE))


# name: (Gaussian provider, 5-site box, psi sites, 3-site box)
SMALL_BOXES = {
    "iid-real": (IidRealGaussianField(variance=1.7), [0, 1, 2, 3, 4],
                 [0, 1], [0, 1, 2]),
    "sinc": (sinc_coupling_example(), [("phi", x) for x in range(-2, 3)],
             [("psi", 0), ("psi", 1)], [("phi", x) for x in range(-1, 2)]),
}


def test_anchor_tuples_pin():
    box = [3, 4, 5]
    assert _anchor_tuples(IidRealGaussianField(), box, 1) == [(3,)]
    assert _anchor_tuples(IidRealGaussianField(), box, 3) == [(3, 3, 3)]
    view = NonGaussianView(IidRealGaussianField(), box)
    assert _anchor_tuples(view, box, 1) == [(3,), (4,), (5,)]
    # one tuple per multiset, sorted by box position
    assert _anchor_tuples(view, box[:2], 2) == [(3, 3), (3, 4), (4, 4)]
    assert _anchor_tuples(view, box[:2], 3) == [(3, 3, 3), (3, 3, 4), (3, 4, 4), (4, 4, 4)]
    assert _anchor_tuples(view, box[1::-1], 2) == [(4, 4), (4, 3), (3, 3)]


@pytest.mark.parametrize("name", sorted(SMALL_BOXES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clustering_norm_vanishing_matches_recursion(name, n):
    # both views scan every anchor of the box
    provider, box, _, _ = SMALL_BOXES[name]
    fast = clustering_norm(AnchorScanView(provider), n, 1, box)
    slow = clustering_norm(NonGaussianView(provider, box), n, 1, box)
    assert abs(fast - slow) <= 1e-12


@pytest.mark.parametrize("name", sorted(SMALL_BOXES))
@pytest.mark.parametrize("n,p", [(2, 1), (2, 2), (3, 1), (3, 2)])
@pytest.mark.parametrize("degree", [1, 2], ids=["singleton", "compound"])
def test_theorem41_vanishing_matches_recursion(name, n, p, degree):
    # a compound monomial X has nonvanishing cumulants even when Gaussian
    provider, _, _, small = SMALL_BOXES[name]
    site = small[0] if name == "iid-real" else ("psi", 0)
    X = Observable([(1.0, (SiteRef(site),) * degree)])
    fast = theorem41_check(AnchorScanView(provider), X, n, p, small)
    slow = theorem41_check(NonGaussianView(provider, small + [site]), X, n, p, small)
    if degree == 1:
        assert fast.lhs == 0.0
    elif n == 2:
        assert fast.lhs > 0.1  # kappa[y^2, y, y] = 2 cov cov
    assert fast.lhs == pytest.approx(slow.lhs, rel=1e-12, abs=1e-12)
    assert fast.rhs == pytest.approx(slow.rhs, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("name", sorted(SMALL_BOXES))
@pytest.mark.parametrize("m,n", [(1, 2), (2, 1)])
@pytest.mark.parametrize("p", [1, 2])
def test_joint_theorem_vanishing_matches_recursion(name, m, n, p):
    provider, _, psi_sites, phi_box = SMALL_BOXES[name]
    fast = joint_theorem_check(AnchorScanView(provider), m, n, p, psi_sites, phi_box)
    slow = joint_theorem_check(NonGaussianView(provider, psi_sites + phi_box), m, n, p,
                               psi_sites, phi_box)
    assert fast.lhs == 0.0
    assert abs(fast.lhs - slow.lhs) <= 1e-12
    assert fast.rhs == pytest.approx(slow.rhs, rel=1e-12, abs=1e-12)


# Non-Gaussian fields whose sites all have different laws, so every box sum
# mixes distinct cumulants and a wrong multiplicity or order changes it.
WALK_FIELDS = {
    "discrete-3": random_discrete_field(np.random.default_rng(3), sites=[0, 1, 2]),
    "discrete-4": random_discrete_field(np.random.default_rng(4), sites=[0, 1, 2, 3]),
    "ensemble": sample_ensemble(sinc_coupling_example(), box=2, n_samples=64, seed=5),
}


@pytest.mark.parametrize("name", sorted(WALK_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("p", [1, 2, math.inf])
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_clustering_norm_multiset_walk_matches_product_walk(name, n, p, order):
    # no field here is translation invariant, so the norm scans every anchor,
    # in box order
    provider = WALK_FIELDS[name]
    box = list(provider.sites)[::order]
    got = clustering_norm(provider, n, p, box)
    assert got == product_order_clustering_norm(CumulantTable(provider), n, p, box)


@pytest.mark.parametrize("name", sorted(WALK_FIELDS))
@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2])
def test_theorem41_multiset_walk_matches_product_walk(name, n, p):
    provider = WALK_FIELDS[name]
    sites = list(provider.sites)
    X, box = Observable.of_site(sites[0]), sites[1:]
    table = CumulantTable(provider)
    rep = theorem41_check(provider, X, n, p, box, table=table)
    xs = list(product(box, repeat=n))
    ksq = product_order_walk(
        lambda x: abs(observable_cumulant(table, X, tuple(SiteRef(s) for s in x))) ** 2,
        box, n)
    if p == 1:
        lhs, witness = math.sqrt(left_fold(ksq)), xs[ksq.index(max(ksq))]
    else:
        lhs, witness = 0.0, None
        for xp in xs:
            row = phi_kernel(provider, n, xp, box, table=table)
            val = math.sqrt(left_fold(abs(row.values[x]) * k for x, k in zip(xs, ksq)))
            if val > lhs:
                lhs, witness = val, xp
    assert lhs > 0
    assert rep.lhs == lhs
    assert rep.witnesses["witness_x"] == list(witness)


@pytest.mark.parametrize("name", sorted(WALK_FIELDS))
@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2), (3, 1)])
@pytest.mark.parametrize("p", [1, 2])
def test_joint_theorem_multiset_walk_matches_product_walk(name, m, n, p):
    provider = WALK_FIELDS[name]
    sites = list(provider.sites)
    psi_sites, phi_box = sites[:2], sites[len(sites) // 2:]
    table = CumulantTable(provider)
    rep = joint_theorem_check(provider, m, n, p, psi_sites, phi_box, table=table)
    xs = list(product(phi_box, repeat=n))
    lhs, witness = 0.0, None
    for xp in product(psi_sites, repeat=m):
        ksq = product_order_walk(
            lambda x: abs(table.joint_cumulant(
                tuple((SiteRef(s),) for s in xp + x))) ** 2,
            phi_box, n)
        if p == 1:
            candidates = [(math.sqrt(left_fold(ksq)), {"xprime": list(xp)})]
        else:
            candidates = []
            for y in xs:
                row = phi_kernel(provider, n, y, phi_box, table=table)
                val = math.sqrt(left_fold(abs(row.values[x]) * k for x, k in zip(xs, ksq)))
                candidates.append((val, {"xprime": list(xp), "y": list(y)}))
        for val, where in candidates:
            if val > lhs:
                lhs, witness = val, where
    assert lhs > 0
    assert rep.lhs == lhs
    assert rep.witnesses["witness"] == witness


class EquicorrelatedField(GaussianCovarianceField):
    """Real Gaussians of variance 1 with covariance 1/2 between any two
    sites: exchanging two sites leaves the law alone, so a sup over anchors
    sees the same terms in another order, and ties exactly."""

    def covariance(self, a, b):
        return 1.0 if a.site == b.site else 0.5


_TIED = EquicorrelatedField()


def test_first_max_takes_the_first_largest_positive_value():
    first_max = clustering._first_max
    assert first_max([(math.nan, "a"), (1.0, "b"), (2.0, "c"), (2.0, "d")]) == (2.0, "c")
    assert first_max([(0.0, "a"), (math.nan, "b"), (-1.0, "c")]) == (0.0, None)
    assert first_max([]) == (0.0, None)


# _TIED is not translation invariant, so a sup scans every anchor of the box,
# in box order: reversing the box reverses the scan

@pytest.mark.parametrize("box", [[0, 1], [1, 0]], ids=["forward", "reversed"])
@pytest.mark.parametrize("p", [1, 2, math.inf])
def test_clustering_norm_over_tied_anchors_is_their_common_value(box, p):
    # anchor a sums |kappa[a, x]| = (1, 1/2) or (1/2, 1) over the box
    common = {1: 1.5, 2: 1.25 ** 0.5, math.inf: 1.0}[p]
    assert clustering_norm(_TIED, 2, p, box) == common


@pytest.mark.parametrize("first,second", [(0, 1), (1, 0)])
def test_theorem41_tie_goes_to_the_first_xprime(first, second):
    # Phi_1(y, .) = (1, 1/2) or (1/2, 1) against |kappa[X, x]|^2 = 1/4 each
    rep = theorem41_check(_TIED, Observable.of_site(2), 1, 2, [first, second])
    assert rep.lhs == math.sqrt(0.25 * 1.0 + 0.25 * 0.5)
    assert rep.witnesses["witness_x"] == [first]


@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
@pytest.mark.parametrize("p", [1, 2])
def test_joint_theorem_tie_goes_to_the_first_xprime_and_y(order, p):
    # every x' in {2, 3} and every y in {0, 1} gives the same value
    psi_sites, phi_box = [2, 3][::order], [0, 1][::order]
    rep = joint_theorem_check(_TIED, 1, 1, p, psi_sites, phi_box)
    if p == 1:
        assert rep.lhs == math.sqrt(0.25 + 0.25)
        assert rep.witnesses["witness"] == {"xprime": psi_sites[:1]}
    else:
        assert rep.lhs == math.sqrt(0.25 * 1.0 + 0.25 * 0.5)
        assert rep.witnesses["witness"] == {"xprime": psi_sites[:1], "y": phi_box[:1]}


def _product_anchor_tuples(provider, box, k):
    """Every tuple of box^k in product order, the scan that one tuple per
    multiset stands in for."""
    return list(product(box[:1] if provider.translation_invariant else box, repeat=k))


# name: (provider, observables, box of the observable check, psi sites, phi box)
_SCAN_CASES = {
    name: (provider, [Observable.of_site(provider.sites[0])], list(provider.sites)[1:],
           list(provider.sites)[:2], list(provider.sites)[len(provider.sites) // 2:])
    for name, provider in WALK_FIELDS.items()
}
_SCAN_CASES["tied"] = (_TIED, [Observable.of_site(2), Observable([(1.0, (SiteRef(2),) * 2)])],
                       [0, 1], [2, 3], [0, 1])


@pytest.mark.parametrize("name", sorted(_SCAN_CASES))
@pytest.mark.parametrize("order", [1, -1], ids=["forward", "reversed"])
def test_multiset_anchors_give_the_reports_of_the_product_scan(monkeypatch, name, order):
    # every value a sup runs over is symmetric in its anchor tuple, so one
    # sorted tuple per multiset gives the values and witnesses of the scan
    # over every tuple, ties included
    provider, observables, box, psi_sites, phi_box = _SCAN_CASES[name]
    box, psi_sites, phi_box = box[::order], psi_sites[::order], phi_box[::order]

    def reports():
        table = CumulantTable(provider)
        out = [clustering_norm(provider, n, p, box, table=table)
               for n in (1, 2, 3) for p in (1, 2)]
        out += [theorem41_check(provider, X, n, p, box, table=table).to_record()
                for X in observables for n in (1, 2, 3) for p in (1, 2)]
        out += [joint_theorem_check(provider, m, n, p, psi_sites, phi_box,
                                    table=table).to_record()
                for m in (1, 2, 3) for n in (1, 2, 3) for p in (1, 2)]
        return out

    by_multiset = reports()
    monkeypatch.setattr(clustering, "_anchor_tuples", _product_anchor_tuples)
    assert reports() == by_multiset


@pytest.mark.parametrize("name", sorted(_SCAN_CASES))
def test_batched_sups_give_the_reports_of_the_per_anchor_scan(name):
    # a sup over anchors folds one tensor of every anchor row by row; the
    # scan of one anchor at a time on a fresh table, each folding its own
    # tensor, gives every norm and report bit for bit
    provider, _, box, psi_sites, phi_box = _SCAN_CASES[name]
    table, reference = CumulantTable(provider), CumulantTable(provider)
    for n in (1, 2, 3, 4):
        for p in (1, 2, math.inf):
            got = clustering_norm(provider, n, p, box, table=table)
            assert repr(got) == repr(per_anchor_clustering_norm(reference, n, p, box)), (n, p)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for p in (1, 2):
                got = joint_theorem_check(provider, m, n, p, psi_sites, phi_box, table=table)
                want = per_anchor_joint_theorem_check(reference, m, n, p, psi_sites, phi_box)
                assert got.to_record() == want.to_record(), (m, n, p)


def test_lemma_chain_iid(rng):
    f = IidRealGaussianField()
    box = list(range(-5, 6))
    rep = lemma_check(f, 1, 1, (0,), box)
    assert rep.flag
    assert rep.witnesses["flag_lhs_le_middle"]
    assert rep.witnesses["flag_middle_le_rhs"]
    assert rep.lhs == pytest.approx(1.0)
    assert rep.witnesses["middle"] == pytest.approx(1.0)
    assert rep.rhs == pytest.approx(math.e ** 2)

    rep2 = lemma_check(f, 2, 1, (0, 0), list(range(-3, 4)))
    assert rep2.flag
    assert rep2.witnesses["flag_lhs_le_middle"]
    assert rep2.witnesses["flag_middle_le_rhs"]


def test_lemma_chain_discrete(rng):
    f = random_discrete_field(rng, sites=[0, 1])
    rep = lemma_check(f, 1, 1, (0,), [0, 1])
    assert rep.witnesses["flag_lhs_le_middle"]
    assert rep.witnesses["flag_middle_le_rhs"]
    assert rep.flag


def test_theorem41_item1_sinc():
    f = sinc_coupling_example()
    box = [("phi", x) for x in range(-2000, 2001)]
    norm_box = [("phi", x) for x in range(-20, 21)]
    rep = theorem41_check(f, Observable.of_site(("psi", 0)), 1, 1, box,
                          norm_box=norm_box)
    assert rep.flag
    assert rep.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-4)
    assert rep.rhs == pytest.approx(math.e)
    assert rep.witnesses["cov"] == pytest.approx(1.0)


def test_theorem41_item2_weighted_iid():
    f = IidRealGaussianField()
    box = list(range(-4, 5))
    X = Observable.of_site(0)
    for n in (1, 2):
        rep = theorem41_check(f, X, n, 2, box)
        assert rep.flag
        if n >= 2:
            assert rep.lhs == 0.0  # Gaussian: order n+1 >= 3 cumulants vanish


def test_theorem41_rejects_bad_p():
    f = IidRealGaussianField()
    with pytest.raises(ValueError):
        theorem41_check(f, Observable.of_site(0), 1, 3, [0])


@pytest.mark.parametrize("p", [1.0, 2.0, True, False, 1.5, "1"])
@pytest.mark.parametrize("check", ["theorem41", "joint"])
def test_weighted_checks_reject_p_that_is_not_an_int(check, p):
    # p = 1.0 used to give the id observable-cumulant-l2-p1.0, and p = True
    # was accepted and echoed in the witnesses
    with pytest.raises(ValueError, match=f"^p must be 1 or 2, not {p!r}$"):
        if check == "theorem41":
            theorem41_check(_DISCRETE, Observable.of_site(2), 1, p, [0, 1])
        else:
            joint_theorem_check(_DISCRETE, 1, 1, p, [2], [0, 1])


@pytest.mark.parametrize("p", [1, 2, np.int64(2)])
def test_weighted_checks_accept_integer_p(p):
    rep = theorem41_check(_DISCRETE, Observable.of_site(2), 1, p, [0, 1])
    assert rep.inequality_id == f"observable-cumulant-l2-p{int(p)}"
    rep = joint_theorem_check(_DISCRETE, 1, 1, p, [2], [0, 1])
    assert rep.inequality_id == f"joint-cumulant-l2-p{int(p)}"


@pytest.mark.parametrize("probs,value", [((0.5, 0.5), 1.0), ((0.1,) * 10, 0.1),
                                         ((0.7, 0.2, 0.1), 1.0)],
                         ids=["zero", "below-zero", "rounding-size"])
@pytest.mark.parametrize("p", [1, 2])
def test_theorem41_rejects_an_observable_that_does_not_vary(probs, value, p):
    # site 1 takes one value on every atom, so cov(X*, X) is 0 up to
    # rounding: at 0.0 the check used to flag false, at -3.5e-18 sqrt
    # failed with a bare math domain error, and at 1.1e-16 it passed with
    # a flag that followed the rounding noise
    f = FiniteDiscreteField([0, 1], [(q, (i, value)) for i, q in enumerate(probs)])
    X = Observable.of_site(1)
    with pytest.raises(ValueError, match=r"cov\(X\*, X\) = .* is not positive: "
                                         r"the observable .*SiteRef\(site=1"):
        theorem41_check(f, X, 1, p, [0, 1])
    assert theorem41_check(f, Observable.of_site(0), 1, p, [0, 1]).flag


_INDEPENDENT_SIGNS = FiniteDiscreteField(
    [0, 1], [(0.25, (1, 1)), (0.25, (1, -1)), (0.25, (-1, 1)), (0.25, (-1, -1))])


@pytest.mark.parametrize("p", [1, 2])
def test_zero_lhs_has_no_witness(p):
    # two independent signs: every cumulant of site 1 with site 0 is 0, so
    # no x attains the sup; at p = 1 theorem41_check used to name x = [0]
    rep = theorem41_check(_INDEPENDENT_SIGNS, Observable.of_site(1), 1, p, [0])
    assert (rep.lhs, rep.witnesses["witness_x"]) == (0.0, None)
    assert rep.flag
    for m, n in ((1, 1), (1, 2), (2, 1)):
        rep = joint_theorem_check(_INDEPENDENT_SIGNS, m, n, p, [1], [0])
        assert (rep.lhs, rep.witnesses["witness"]) == (0.0, None), (m, n)


@pytest.mark.parametrize("p", [1, 2])
def test_theorem41_accepts_a_small_real_variance(p):
    # cov(X*, X) = 2.5e-11 of E[X* X] = 1: far above rounding, so it counts
    f = FiniteDiscreteField([0, 1], [(0.5, (0, 1.0)), (0.5, (1, 1.0 + 1e-5))])
    rep = theorem41_check(f, Observable.of_site(1), 1, p, [0, 1])
    assert rep.witnesses["cov"] == pytest.approx(2.5e-11, rel=1e-5)
    assert rep.flag


@pytest.mark.parametrize("p", [math.nan, -1, 0, 0.5, -math.inf, True])
def test_clustering_norm_rejects_p_outside_one_to_inf(rng, p):
    # p = -1 used to give a positive "norm" and p = nan 0.0; p = 0 divided
    # by zero; p = True was taken as 1
    f = random_discrete_field(rng, sites=[0, 1, 2])
    gauss = IidRealGaussianField()
    for provider, n in ((f, 2), (f, 1), (gauss, 3)):
        with pytest.raises(ValueError, match="p must be in"):
            clustering_norm(provider, n, p, [0, 1, 2])
    with pytest.raises(ValueError, match="p must be in"):
        magnitude_constants(f, p, 2, [0, 1, 2])


def test_zero_orders_are_rejected(two_field_provider):
    # no order-0 norm or constant exists; theorem41_check at n = 0 used to
    # fail with a bare IndexError and magnitude_constants at N = 0 returned
    # no constants
    f = two_field_provider
    with pytest.raises(ValueError, match="^N must be an int >= 1, not 0$"):
        magnitude_constants(f, 1, 0, [("phi", 0)])
    for p in (1, 2):
        with pytest.raises(ValueError, match="^n must be an int >= 1, not 0$"):
            theorem41_check(f, Observable.of_site(("psi", 0)), 0, p, [("phi", 0)])


@pytest.mark.parametrize("call", [
    lambda: phi_kernel(_DISCRETE, 0, (), [0, 1]),
    lambda: lemma_check(_DISCRETE, 0, 1.0, (), [0, 1]),
    lambda: phi_kernel(_DISCRETE, -1, (), [0, 1]),
], ids=["phi_kernel", "lemma", "phi_kernel-negative"])
def test_kernel_rows_reject_order_below_one(call):
    # the restricted partitions of no positions used to fail with their own
    # "need at least one position"
    with pytest.raises(ValueError, match="^n must be an int >= 1, not -?[01]$"):
        call()


_PAIR = random_discrete_field(np.random.default_rng(0), sites=[0, 1])


@pytest.mark.parametrize("call,message", [
    (lambda: clustering_norm(_PAIR, 2.5, 1, [0, 1]), "n must be an int >= 1, not 2.5"),
    (lambda: clustering_norm(_PAIR, True, 1, [0, 1]), "n must be an int >= 1, not True"),
    (lambda: magnitude_constants(_PAIR, 1, True, [0, 1]), "N must be an int >= 1, not True"),
    (lambda: magnitude_constants(_PAIR, 1, 2.0, [0, 1]), "N must be an int >= 1, not 2.0"),
    (lambda: phi_kernel(_PAIR, True, (0,), [0, 1]), "n must be an int >= 1, not True"),
    (lambda: phi_kernel(_PAIR, 1.0, (0,), [0, 1]), "n must be an int >= 1, not 1.0"),
    (lambda: lemma_check(_PAIR, True, 1, (0,), [0, 1]), "n must be an int >= 1, not True"),
    (lambda: lemma_check(_PAIR, 1, True, (0,), [0, 1]), "p must be in [1, inf], not True"),
    (lambda: theorem41_check(_PAIR, Observable.of_site(0), True, 1, [0, 1]),
     "n must be an int >= 1, not True"),
    (lambda: theorem41_check(_PAIR, Observable.of_site(0), 1.5, 2, [0, 1]),
     "n must be an int >= 1, not 1.5"),
    (lambda: joint_theorem_check(_PAIR, True, 1, 1, [0], [1]),
     "m must be an int >= 1, not True"),
    (lambda: joint_theorem_check(_PAIR, 1.0, 1, 1, [0], [1]),
     "m must be an int >= 1, not 1.0"),
    (lambda: joint_theorem_check(_PAIR, 1, True, 2, [0], [1]),
     "n must be an int >= 1, not True"),
    (lambda: joint_theorem_check(_PAIR, 1, 0, 1, [0], [1]), "n must be an int >= 1, not 0"),
], ids=["clustering_norm-float", "clustering_norm-bool", "magnitude_constants-bool",
        "magnitude_constants-float", "phi_kernel-bool", "phi_kernel-float", "lemma-bool",
        "lemma-bool-p", "theorem41-bool", "theorem41-float", "joint-m-bool",
        "joint-m-float", "joint-n-bool", "joint-n-zero"])
def test_orders_that_are_not_ints_and_a_bool_p_are_rejected(call, message):
    # theorem41_check(..., True, ...) used to report "n": true and
    # lemma_check(..., p=True, ...) "p": true, n = 2.5 failed with a
    # TypeError from deep inside, and joint_theorem_check took m = True
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("p", ["1", None, True, 0.5], ids=repr)
def test_p_is_refused_before_any_walk_or_row(p):
    # "1" and None used to fail with a bare TypeError from inside, and
    # lemma_check built its Phi_1 row before any p was looked at
    message = f"^p must be in \\[1, inf\\], not {re.escape(repr(p))}$"
    for call in (lambda table: clustering_norm(_PAIR, 2, p, [0, 1], table=table),
                 lambda table: magnitude_constants(_PAIR, p, 2, [0, 1], table=table),
                 lambda table: lemma_check(_PAIR, 1, p, (0,), [0, 1], table=table)):
        table = CumulantTable(_PAIR)
        with pytest.raises(ValueError, match=message):
            call(table)
        assert not table._derived and not table._memo


def test_norms_at_every_p_fold_one_walk_per_anchor(monkeypatch):
    # magnitude constants at p = 1, inf and 2 on one table: the first run
    # builds every anchor's walk of each order in one build of all anchors
    # and measures its moments in one walk, the runs after it read them
    # from the table and measure nothing, and every norm is a fresh
    # table's bit for bit
    est = sample_ensemble(sinc_coupling_example(), box=2, n_samples=200, seed=3)
    box = list(est.sites)
    table = CumulantTable(est)
    builds, walks = [], []
    _count_calls(monkeypatch, CumulantTable, "_tensors", builds)
    _count_calls(monkeypatch, est, "multiset_moments", walks)
    for run, p in enumerate((1.0, math.inf, 2.0)):
        builds.clear()
        walks.clear()
        magnitude_constants(est, p, 4, box, table=table)
        assert [len(heads) for _, heads, *_ in builds] == ([len(box)] * 4 if run == 0 else [])
        assert len(walks) == (1 if run == 0 else 0), p
        for n in range(1, 5):
            shared = clustering_norm(est, n, p, box, table=table)
            assert repr(shared) == repr(clustering_norm(est, n, p, box)), (n, p)


@pytest.mark.parametrize("N", [1, 2, 5])
def test_magnitude_constants_fill_every_order_in_one_walk(monkeypatch, N):
    # the norm of order N comes first, and the closure of its cumulants
    # holds every multiset of the box of orders 1..N: one walk measures
    # them all, each once; each norm is that of a table filled one order at
    # a time, from order 1 up, bit for bit
    est = sample_ensemble(sinc_coupling_example(), box=3, n_samples=300, seed=4)
    box = [("psi", x) for x in range(3)] + [("phi", 0)]
    table = CumulantTable(est)
    walks = []
    _count_calls(monkeypatch, est, "multiset_moments", walks)
    constants = magnitude_constants(est, 1.0, N, box, table=table)
    assert len(walks) == 1
    positions = np.array(table._fill.positions(SiteRef(s) for s in box))
    want = sorted(tuple(row) for k in range(1, N + 1)
                  for row in np.sort(positions[_multisets(len(box), k)], axis=1).tolist())
    assert sorted(map(tuple, walks[0][0])) == want
    monkeypatch.undo()
    ascending = CumulantTable(est)
    norms = [clustering_norm(est, n, 1.0, box, table=ascending) for n in range(1, N + 1)]
    for n, norm in enumerate(norms, start=1):
        assert repr(clustering_norm(est, n, 1.0, box, table=table)) == repr(norm), n
    fresh = magnitude_constants(est, 1.0, N, box, table=ascending)
    assert repr(constants.values) == repr(fresh.values)


def test_clustering_norm_accepts_p_at_the_ends(rng):
    f = random_discrete_field(rng, sites=[0, 1, 2])
    for p in (1, 1.0, 1.5, math.inf):
        assert clustering_norm(f, 2, p, [0, 1, 2]) > 0


def test_empty_boxes_are_rejected(two_field_provider):
    # a sum or sup over nothing is 0, which no check may pass vacuously
    f = two_field_provider
    psi, phi = [("psi", 0), ("psi", 1)], [("phi", 0), ("phi", 1)]
    X = Observable.of_site(("psi", 0))
    calls = {
        "the norm box": [lambda: clustering_norm(f, 2, 1, []),
                         lambda: clustering_norm(IidRealGaussianField(), 3, 1, []),
                         lambda: magnitude_constants(f, 1, 2, []),
                         lambda: joint_theorem_check(f, 1, 1, 1, psi, phi,
                                                     phi_norm_box=[])],
        "the psi box": [lambda p=p: joint_theorem_check(f, 1, 1, p, [], phi)
                        for p in (1, 2)],
        "the phi box": [lambda p=p: joint_theorem_check(f, 1, 1, p, psi, [])
                        for p in (1, 2)],
        "the box": [lambda p=p: theorem41_check(f, X, 1, p, []) for p in (1, 2)],
        "the kernel box": [lambda: phi_kernel(f, 1, [("phi", 0)], []),
                           lambda: lemma_check(f, 1, 1, [("phi", 0)], [],
                                               norm_box=phi)],
    }
    for name, group in calls.items():
        for call in group:
            with pytest.raises(ValueError, match=f"^{name} is empty$"):
                call()


_X2 = Observable.of_site(2)


@pytest.mark.parametrize("name,repeated,call", [
    ("the norm box", 1, lambda: clustering_norm(_DISCRETE, 2, 1, [0, 1, 1])),
    ("the norm box", 0, lambda: magnitude_constants(_DISCRETE, 1, 2, [0, 1, 0])),
    ("the kernel box", 1, lambda: phi_kernel(_DISCRETE, 1, (0,), [0, 1, 1])),
    ("the kernel box", 1, lambda: lemma_check(_DISCRETE, 1, 1, (0,), [0, 1, 1])),
    ("the norm box", 2,
     lambda: lemma_check(_DISCRETE, 1, 1, (0,), [0, 1], norm_box=[2, 2])),
    ("the box", 1, lambda: theorem41_check(_DISCRETE, _X2, 1, 1, [0, 1, 1])),
    ("the norm box", 0,
     lambda: theorem41_check(_DISCRETE, _X2, 1, 1, [0, 1], norm_box=[0, 0])),
    ("the psi box", 2, lambda: joint_theorem_check(_DISCRETE, 1, 1, 1, [2, 2], [0, 1])),
    ("the phi box", 1, lambda: joint_theorem_check(_DISCRETE, 1, 1, 1, [2], [0, 1, 1])),
    ("the norm box", 1, lambda: joint_theorem_check(_DISCRETE, 1, 1, 1, [2], [0, 1],
                                                    phi_norm_box=[1, 1])),
], ids=["clustering_norm-box", "magnitude_constants", "phi_kernel", "lemma-box",
        "lemma-norm-box", "theorem41-box", "theorem41-norm-box", "joint-psi-box",
        "joint-phi-box", "joint-norm-box"])
def test_repeated_box_sites_are_rejected(name, repeated, call):
    # clustering_norm(f, 2, 1, [0, 1, 1]) used to count site 1 twice, while
    # the checks' dict rows over box^n silently counted it once
    with pytest.raises(ValueError, match=f"^{re.escape(name)} repeats "
                                         f"{re.escape(repr(repeated))}$"):
        call()


def test_joint_theorem_sinc_m1_n1():
    f = sinc_coupling_example()
    phi_box = [("phi", x) for x in range(-2000, 2001)]
    rep = joint_theorem_check(
        f, 1, 1, 1, [("psi", 0)], phi_box,
        psi_norm_box=[("psi", x) for x in range(-10, 11)],
        phi_norm_box=[("phi", x) for x in range(-10, 11)])
    assert rep.flag
    assert rep.lhs == pytest.approx(1 / math.sqrt(2), abs=1e-4)
    assert rep.rhs == pytest.approx(4 * math.e ** 2)
    assert rep.witnesses["M_joint"] == pytest.approx(1 / math.sqrt(2))


def test_joint_m1_reduces_to_covariance_bound():
    # m = 1 computes the same l2 sum as the single-observable check
    f = sinc_coupling_example()
    phi_box = [("phi", x) for x in range(-500, 501)]
    norm = [("phi", x) for x in range(-10, 11)]
    joint = joint_theorem_check(
        f, 1, 1, 1, [("psi", 0)], phi_box,
        psi_norm_box=[("psi", x) for x in range(-10, 11)], phi_norm_box=norm)
    single = theorem41_check(f, Observable.of_site(("psi", 0)), 1, 1, phi_box,
                             norm_box=norm)
    assert joint.lhs == pytest.approx(single.lhs, abs=1e-12)


def test_joint_theorem_gaussian_higher_orders_zero():
    f = sinc_coupling_example()
    phi_box = [("phi", x) for x in range(-20, 21)]
    for m, n in [(1, 2), (2, 1), (2, 2)]:
        rep = joint_theorem_check(
            f, m, n, 1, [("psi", 0)], phi_box,
            psi_norm_box=[("psi", x) for x in range(-10, 11)])
        assert rep.lhs == 0.0
        assert rep.flag


def test_joint_theorem_discrete_all_orders(two_field_provider):
    f = two_field_provider
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    for m in (1, 2):
        for n in (1, 2):
            for p in (1, 2):
                rep = joint_theorem_check(f, m, n, p, psi_sites, phi_sites)
                assert rep.flag, (m, n, p)


def test_joint_theorem_shared_table_matches_fresh(two_field_provider):
    f = two_field_provider
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    shared = CumulantTable(f)
    for m in (1, 2, 3):
        for n in (1, 2, 3):
            for p in (1, 2):
                a = joint_theorem_check(f, m, n, p, psi_sites, phi_sites,
                                        table=shared)
                b = joint_theorem_check(f, m, n, p, psi_sites, phi_sites)
                assert (a.lhs, a.rhs) == (b.lhs, b.rhs), (m, n, p)


def test_joint_theorem_lhs_matches_brute_force(two_field_provider):
    f = two_field_provider
    table = CumulantTable(f)
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    rep = joint_theorem_check(f, 1, 1, 1, psi_sites, phi_sites, table=table)
    best = 0.0
    for xp in psi_sites:
        acc = sum(abs(table.cumulant((SiteRef(xp), SiteRef(x)))) ** 2
                  for x in phi_sites)
        best = max(best, math.sqrt(acc))
    assert rep.lhs == pytest.approx(best, abs=1e-12)


def _reuse_calls(psi, phi, box):
    """Certifier calls as (function, args, kwargs) whose arguments overlap,
    among them pairs that a key missing an argument would merge: the same n
    on another box, p = 1, 1.0, 2 and inf, and an x' next to its
    permutation."""
    calls = []
    for n in (1, 2, 3, 4):
        for p in (1, 1.0, 2, math.inf):
            for b in (phi, box):
                calls.append((clustering_norm, (n, p, b), {}))
    for p in (1, 2.0, math.inf):
        for b in (phi, box):
            calls.append((magnitude_constants, (p, 4, b), {}))
    for xp in ((phi[0],), (phi[0], phi[1]), (phi[0], phi[1], phi[1])):
        for x in (xp, xp[::-1]):
            for b in (phi, box):
                calls.append((phi_kernel, (len(x), x, b), {}))
    for n, xp in ((1, (phi[1],)), (2, (phi[0], phi[1]))):
        for x in (xp, xp[::-1]):
            for p in (1, 2):
                calls.append((lemma_check, (n, p, x, phi), {"norm_box": box}))
    compound = Observable([(1.0, (SiteRef(psi[0]),)),
                           (0.5, (SiteRef(psi[1]), SiteRef(psi[1])))])
    for X in (Observable.of_site(psi[0]), compound):
        for n in (1, 2):
            for p in (1, 2):
                calls.append((theorem41_check, (X, n, p, phi), {"norm_box": box}))
                calls.append((theorem41_check, (X, n, p, box), {"norm_box": phi}))
    for m in (1, 2):
        for n in (1, 2):
            for p in (1, 2):
                calls.append((joint_theorem_check, (m, n, p, psi, phi), {}))
                calls.append((joint_theorem_check, (m, n, p, psi, box),
                              {"phi_norm_box": phi}))
    calls.append((joint_theorem_check, (1, 3, 2, psi, phi), {}))
    return calls


def _reuse_case(kind, seed):
    """(provider, psi sites, phi sites, a wider box) for the reuse tests."""
    psi = [("psi", 0), ("psi", 1)]
    if kind == "sinc":
        return (sinc_coupling_example(), psi, [("phi", x) for x in range(-1, 2)],
                [("phi", x) for x in range(-2, 3)])
    phi = [("phi", 0), ("phi", 1)]
    field = random_discrete_field(np.random.default_rng(seed), sites=psi + phi)
    return field, psi, phi, psi + phi


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["discrete", "sinc"])
def test_shared_table_calls_equal_fresh_table_calls(kind, seed):
    # every value a check keeps on a shared table equals the one a fresh
    # table builds for the same arguments, in any order of the calls
    provider, psi, phi, box = _reuse_case(kind, seed)
    calls = _reuse_calls(psi, phi, box)
    shared = CumulantTable(provider)
    for i in np.random.default_rng(seed).permutation(len(calls)):
        fn, args, kwargs = calls[i]
        got = fn(provider, *args, table=shared, **kwargs)
        want = fn(provider, *args, **kwargs)
        assert getattr(got, "values", got) == getattr(want, "values", want), \
            (fn.__name__, args, kwargs)
        if hasattr(want, "to_record"):
            assert got.to_record() == want.to_record(), (fn.__name__, args, kwargs)


def _count_calls(monkeypatch, owner, attr, calls):
    original = getattr(owner, attr)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counting)


def test_joint_theorem_repeat_on_shared_table_builds_nothing(monkeypatch,
                                                             two_field_provider):
    # counted on the law with its real flag off and on the law with its
    # moments by order hidden, whose tables measure each moment by one call
    # on demand, and on the law itself, whose table asks for its moments
    # one whole order at a time; no check looks up a cumulant
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    for f, hook in ((_flags_kept(two_field_provider), "moment"),
                    (hide_bulk(two_field_provider), "moment"),
                    (two_field_provider, "order_moments")):
        lookups, moments = [], []
        _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
        _count_calls(monkeypatch, f, hook, moments)
        table = CumulantTable(f)
        first = joint_theorem_check(f, 2, 2, 2, psi_sites, phi_sites, table=table)
        assert moments and not lookups
        lookups.clear()
        moments.clear()
        again = joint_theorem_check(f, 2, 2, 2, psi_sites, phi_sites, table=table)
        assert (len(lookups), len(moments)) == (0, 0)
        assert again.to_record() == first.to_record()
        monkeypatch.undo()


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2)])
def test_joint_theorem_p1_and_p2_build_one_kappa_map(monkeypatch, two_field_provider,
                                                      m, n):
    # only the |kappa|^2 maps take cumulants of psi and phi sites together
    # (the norms take one field, the rows conjugate x'): one tensor of
    # unconjugated psi sites over the phi box per multiset of x', which p = 2
    # reads again, with no cumulant lookup.  On a real law a head of
    # conjugated psi sites reads that very tensor; the law with its real
    # flag off keeps its heads' flags
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    maps = math.comb(len(psi_sites) + m - 1, m)
    lookups = []
    _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
    for f in (_flags_kept(two_field_provider), two_field_provider):
        table = CumulantTable(f)

        def mixed_tensors():
            return {key: tensor for key, tensor in table._derived.items()
                    if key[0] == "cumulant_tensor"
                    and {ref.site[0] for v in key[1] for ref in v} == {"psi"}
                    and not any(ref.conj for v in key[1] for ref in v)
                    and {site[0] for site in key[3]} == {"phi"}}

        joint_theorem_check(f, m, n, 1, psi_sites, phi_sites, table=table)
        tensors = mixed_tensors()
        assert len(tensors) == maps
        joint_theorem_check(f, m, n, 2, psi_sites, phi_sites, table=table)
        assert mixed_tensors() == tensors
        for (_, head, k, box), tensor in tensors.items():
            conj = tuple((ref.conjugate(),) for (ref,) in head)
            assert (table.cumulant_tensor(conj, k, box) is tensor) == f.is_real
        assert lookups == []


@pytest.mark.parametrize("m,n", [(1, 1), (1, 2), (2, 2), (3, 2)])
def test_joint_theorem_p2_reads_one_row_per_y_multiset(monkeypatch, two_field_provider,
                                                       m, n):
    # the |Phi_n| rows of the weight anchors y, one per multiset of phi
    # sites, are stacked once per table and read for every x'; a later
    # check on the table reads none
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    rows = []
    _count_calls(monkeypatch, clustering, "phi_kernel", rows)
    table = CumulantTable(two_field_provider)
    joint_theorem_check(two_field_provider, m, n, 2, psi_sites, phi_sites, table=table)
    assert len(rows) == math.comb(len(phi_sites) + n - 1, n)
    rows.clear()
    joint_theorem_check(two_field_provider, m + 1, n, 2, psi_sites, phi_sites, table=table)
    assert rows == []


_CONSTANT_CASES = {
    "discrete": (_DISCRETE, 0, [1, 2]),
    # its probabilities sum to 1 - 1.1e-16, and E[1] is 1 all the same
    "discrete-seed6": (random_discrete_field(np.random.default_rng(6), sites=[0, 1, 2]),
                       0, [1, 2]),
    "sinc": (sinc_coupling_example(), ("psi", 0), [("phi", x) for x in range(-1, 2)]),
}


@pytest.mark.parametrize("name", sorted(_CONSTANT_CASES))
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("p", [1, 2])
def test_constant_term_leaves_the_observable_report_alone(name, n, p):
    # a constant shifts X but no cumulant with a field variable, so the
    # report of y(0) + 2 is that of y(0), bit for bit where E[1] is 1 exactly
    provider, site, box = _CONSTANT_CASES[name]
    assert provider.moment(()) == 1
    bare = Observable.of_site(site)
    shifted = Observable([(1.0, (SiteRef(site),)), (2.0, ())])
    want = theorem41_check(provider, bare, n, p, box).to_record()
    assert theorem41_check(provider, shifted, n, p, box).to_record() == want


_TWO_FIELD_SITES = [("psi", 0), ("psi", 1), ("phi", 0), ("phi", 1)]


def _flags_kept(provider):
    """A provider of the same law, built anew, that does not declare
    ``is_real``: its tables keep every head's conjugation flags."""
    if isinstance(provider, EnsembleEstimator):
        kept = EnsembleEstimator(provider.sites, provider.samples)
    else:
        kept = FiniteDiscreteField(provider.sites, provider.atoms)
    kept.is_real = False
    return kept


def _every_report(provider) -> list:
    """The records of every check of orders up to 3 on one shared table,
    with observables of one and of two field variables."""
    psi, phi = _TWO_FIELD_SITES[:2], _TWO_FIELD_SITES[2:]
    table = CumulantTable(provider)
    observables = [Observable.of_site(psi[0]),
                   Observable([(1.0, (SiteRef(psi[0]),)),
                               (0.5, (SiteRef(psi[1]), SiteRef(phi[1])))])]
    out = []
    for p in (1, 2):
        for n in (1, 2, 3):
            out.append(lemma_check(provider, n, p, phi[1:] * n, phi, table=table))
            out += [theorem41_check(provider, X, n, p, phi, table=table)
                    for X in observables]
            out += [joint_theorem_check(provider, m, n, p, psi, phi, table=table)
                    for m in (1, 2, 3)]
    return [rep.to_record() for rep in out]


@st.composite
def _real_two_field_laws(draw):
    seed = draw(st.integers(0, 2 ** 32 - 1))
    if draw(st.booleans()):
        return random_discrete_field(np.random.default_rng(seed), sites=_TWO_FIELD_SITES)
    return sample_ensemble(sinc_coupling_example(), box=2, n_samples=200, seed=seed)


@settings(max_examples=12, deadline=None)
@given(provider=_real_two_field_laws())
def test_real_law_reports_equal_those_with_the_flags_kept(provider):
    # dropping a real law's conjugation flags shares tensors and rows, and
    # moves no report: lemma, observable and joint, p = 1 and 2, m, n <= 3
    assert provider.is_real
    assert _every_report(provider) == _every_report(_flags_kept(provider))


def _per_anchor_weighted_l2(table, n, box, kappa_sq) -> tuple:
    """The p = 2 lhs and witness of ``_weighted_l2`` as one fold per anchor
    row, the loop the stacked fold stands in for."""
    def kernel_weighted(y):
        row = phi_kernel(table.provider, n, y, box, table=table).entries
        return math.sqrt(clustering._norm_accumulate(np.abs(row) * kappa_sq, 1)), y

    return clustering._first_max(map(kernel_weighted,
                                     _anchor_tuples(table.provider, box, n)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), law=st.sampled_from(["real", "complex", "tied"]),
       size=st.integers(1, 3), n=st.integers(1, 3))
def test_stacked_p2_fold_equals_the_per_anchor_loop(seed, law, size, n):
    # one cumulative sum along the rows of the stacked |Phi_n| anchors gives
    # each anchor's left fold, so the lhs and its witness are bit for bit
    # those of one fold per anchor; a map with zeros and repeats makes ties
    rng = np.random.default_rng(seed)
    sites = list(range(size))
    provider = {"real": lambda: random_discrete_field(rng, sites=sites),
                "complex": lambda: _complex_discrete_field(rng, sites),
                "tied": lambda: _TIED}[law]()
    box = tuple(sites)
    kappa_sq = rng.random(size ** n) * rng.integers(0, 2, size ** n)
    kappa_sq[rng.integers(0, size ** n)] = kappa_sq.max()
    table = CumulantTable(provider)
    value, witness = clustering._weighted_l2(table, n, 2, box, kappa_sq)
    want_value, want_witness = _per_anchor_weighted_l2(table, n, box, kappa_sq)
    assert value.hex() == want_value.hex()
    assert witness == want_witness


def test_only_real_laws_declare_is_real():
    rng = np.random.default_rng(0)
    samples = rng.normal(size=(50, 2))
    assert random_discrete_field(rng, sites=[0, 1]).is_real
    assert EnsembleEstimator([0, 1], samples).is_real
    assert sample_ensemble(sinc_coupling_example(), box=2, n_samples=50, seed=0).is_real
    assert not _complex_discrete_field(rng, [0, 1]).is_real
    assert not EnsembleEstimator([0, 1], samples + 1j * rng.normal(size=(50, 2))).is_real
    assert not IidComplexGaussianField().is_real


# complex laws, on which the table keeps the conjugation flags of a head
_COMPLEX_LAWS = {
    "discrete": _complex_discrete_field(np.random.default_rng(7), [0, 1, 2]),
    "ensemble": EnsembleEstimator(
        [0, 1, 2], np.random.default_rng(8).normal(size=(300, 3))
        + 1j * np.random.default_rng(9).normal(size=(300, 3))),
}


@pytest.mark.parametrize("name", sorted(_COMPLEX_LAWS))
@pytest.mark.parametrize("n", [1, 2, 3])
def test_complex_phi_kernel_row_matches_direct_wick_product(name, n):
    # conjugated heads read their own tensors here; entries may cancel, so
    # the tolerance is relative to the row's largest
    f = _COMPLEX_LAWS[name]
    assert not f.is_real
    box, xprime = [0, 1, 2], (2, 0, 2)[:n]
    got = phi_kernel(f, n, xprime, box).values
    scale = max(abs(v) for v in got.values())
    assert scale > 0.01
    left = tuple(SiteRef(s, True) for s in xprime)
    for x, v in got.items():
        direct = direct_wick_product_expectation(f, (left, tuple(SiteRef(s) for s in x)))
        assert abs(v - direct) <= 1e-12 * scale, x


def test_observable_covariance_nonnegative(rng):
    f = random_discrete_field(rng, sites=[0, 1])
    table = CumulantTable(f)
    X = Observable([(1.0, (SiteRef(0),)), (0.5, (SiteRef(0), SiteRef(1)))])
    assert observable_covariance(table, X) >= 0


def test_observable_conjugate():
    X = Observable([(1j, (SiteRef(0),))])
    Xc = X.conjugate()
    assert Xc.terms[0][0] == -1j
    assert Xc.terms[0][1][0].conj is True


@pytest.mark.parametrize("radii", [[0, 10], [0.5, 10], [-3, 10], [], [10], [10, 10]])
def test_divergence_probe_rejects_bad_radii(radii):
    # [0, 10] read the whole partial-sum array's last entry as S_0, [] failed
    # with IndexError and [10] fitted a line through one point
    with pytest.raises(ValueError, match="two or more distinct radii >= 1"):
        l1_divergence_probe(sinc_coupling_example(), radii)


def test_divergence_probe_sinc():
    f = sinc_coupling_example()
    p1 = l1_divergence_probe(f, [100, 1000, 10000], exponent=1)
    assert p1.odd_harmonic_coefficient == pytest.approx(2 / math.pi, rel=1e-3)
    assert p1.slope_vs_log_radius == pytest.approx(1 / math.pi, rel=0.01)
    sums = [s for _, s in p1.rows]
    assert sums == sorted(sums)  # diverging partial sums

    p2 = l1_divergence_probe(f, [100, 1000, 10000], exponent=2)
    assert p2.rows[-1][1] == pytest.approx(0.5, abs=1e-3)
    assert p2.odd_harmonic_coefficient is None


def test_threads_may_share_an_estimator():
    # three threads ask one real and one complex estimator at once, each
    # through tables of its own, and switch often: every magnitude constant
    # and joint report is repr-equal to a serial run's
    rng = np.random.default_rng(9)
    real = sample_ensemble(sinc_coupling_example(), box=3, n_samples=2000, seed=9)
    complex_samples = rng.normal(size=(500, 4)) + 1j * rng.normal(size=(500, 4))
    estimators = [real, EnsembleEstimator(real.sites[:2] + real.sites[3:5], complex_samples)]

    def reports(est):
        table = CumulantTable(est)
        psi = [site for site in est.sites if site[0] == "psi"]
        phi = [site for site in est.sites if site[0] == "phi"]
        out = [magnitude_constants(est, p, 6, psi, table=table).values for p in (1.0, math.inf)]
        for m in (1, 2, 3):
            for n in (1, 2, 3):
                rep = joint_theorem_check(est, m, n, 1, psi[:2], phi, table=table)
                out.append((rep.lhs, rep.rhs, rep.witnesses["witness"]))
        return repr(out)

    serial = [reports(est) for est in estimators]
    start = threading.Barrier(3, timeout=60)
    results = [None] * 3

    def work(i):
        start.wait()
        results[i] = [reports(est) for est in estimators]

    threads = [threading.Thread(target=work, args=(i,)) for i in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == [serial] * 3
