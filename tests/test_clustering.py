import functools
import math
import operator
import re
import tracemalloc
from itertools import combinations, combinations_with_replacement, permutations, product

import numpy as np
import pytest

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
    FiniteDiscreteField,
    GaussianCovarianceField,
    IidComplexGaussianField,
    IidRealGaussianField,
    random_discrete_field,
    sample_ensemble,
    sinc_coupling_example,
)
from wickfield.indexing import SiteRef

from conftest import (
    direct_wick_product_expectation,
    left_fold,
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
    down the restricted-partition expansion."""

    def __init__(self, inner):
        self.inner = inner
        self.max_order = inner.max_order

    def moment(self, sequence):
        return self.inner.moment(sequence)


class AnchorScanView(NonGaussianView):
    """The same moments with the Gaussian flag kept and translation
    invariance dropped: every sup over anchors scans all of box^k, as it
    does for NonGaussianView, while the Gaussian rule still applies."""

    def __init__(self, inner):
        super().__init__(inner)
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
    slow = phi_kernel(NonGaussianView(provider), n, xprime[:n], box)
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


@pytest.mark.parametrize("law,n", ROW_CASES)
def test_phi_kernel_row_equals_product_order(law, n):
    # every row adds the restricted partitions over the whole box in the
    # order the restricted expansion of each x does, and multiplies each
    # partition's blocks in order, so it rounds as that expansion does
    provider, box, xprime = _row_case(law, n)
    got = phi_kernel(provider, n, xprime, box).values
    want = product_order_phi_row(provider, n, xprime, box)
    assert list(got) == list(want)
    assert got == want


def test_phi_kernel_gaussian_order_5_is_the_permanent():
    # a Gaussian row needs pair cumulants only, whatever the provider's
    # max_order.  The brute-force permanent pairs x_j with x'_tau(j) and
    # adds the permutations tau in lexicographic order, the order in which
    # the restricted expansion enumerates the pairings; each product
    # multiplies its factors in the order of i, as the expansion does
    provider = sinc_coupling_example()
    box = [("phi", 0), ("phi", 1)]
    xprime = (("psi", 0), ("psi", 1), ("psi", 2), ("psi", -1), ("psi", 3))
    n = len(xprime)
    assert 2 * n > provider.max_order
    row = phi_kernel(provider, n, xprime, box).values
    assert list(row) == list(product(box, repeat=n))
    for x in product(box, repeat=n):
        want = 0.0 + 0.0j
        for tau in permutations(range(n)):
            slot = {i: j for j, i in enumerate(tau)}
            term = 1.0 + 0.0j
            for i in range(n):
                term *= complex(provider.covariance(SiteRef(xprime[i], True),
                                                    SiteRef(x[slot[i]])))
            want += term
        assert row[x] == want, x
    assert max(abs(v) for v in row.values()) > 0.01


@pytest.mark.parametrize("n", [2, 3])
def test_phi_kernel_complex_row_matches_product_order_to_rounding(n):
    # with complex cumulants a row agrees with the restricted expansion to
    # rounding only: numpy's complex multiply may round a*b otherwise than
    # Python's
    rng = np.random.default_rng(n)
    probs = rng.random(4) + 0.05
    values = rng.uniform(-1, 1, (4, 3)) + 1j * rng.uniform(-1, 1, (4, 3))
    f = FiniteDiscreteField([0, 1, 2], zip(probs / probs.sum(), values))
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
    # L of x' positions and number r of x positions looks up one cumulant
    # per multiset of r box sites
    expansions, lookups = [], []
    _count_calls(monkeypatch, cumulants, "wick_product_expectation", expansions)
    _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
    f = random_discrete_field(np.random.default_rng(1), sites=[0, 1, 2, 3])
    box = [0, 1, 2]
    xprime = tuple(range(n))  # distinct sites, so a lookup names its L
    row = phi_kernel(f, n, xprime, box)
    assert len(row.values) == len(box) ** n
    assert expansions == []
    tensors = {}
    for _, sequence in lookups:
        lefts = tuple(ref.site for ref in sequence if ref.conj)
        z = tuple(ref.site for ref in sequence if not ref.conj)
        tensors.setdefault((lefts, len(z)), []).append(z)
    # a block holds L and r x positions; what it leaves must pair up, so
    # r < n unless L is all of x'
    want = {(lefts, r) for k in range(1, n) for lefts in combinations(range(n), k)
            for r in range(1, n)} | {(xprime, n)}
    assert set(tensors) == want
    for (lefts, r), multisets in tensors.items():
        assert multisets == list(combinations_with_replacement(box, r)), (lefts, r)


@pytest.mark.parametrize("shape", [(7, 3, 5), (2, 9, 13), (5, 2, 1), (11, 4, 3),
                                   (1, 3, 7), (6, 121, 120)])
def test_numpy_outer_axis_reductions_are_left_folds(shape):
    # a Phi_n row multiplies each partition's slots with np.multiply.reduce
    # along axis 0 of (slots, entries, partitions), and adds the partitions
    # with np.add.reduce along axis 0 of (partitions, entries): both must be
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


def _sinc_lemma_row():
    """The widest row verify-bounds builds: Phi_5 of the sinc pair at x' =
    (phi 0,) * 5 over the 11 sites phi -5..5, 161,051 entries."""
    box = [("phi", x) for x in range(-20, 21)][15:26]
    return phi_kernel(sinc_coupling_example(), 5, (("phi", 0),) * 5, box).entries


def test_phi_row_chunks_agree_and_bound_memory(monkeypatch):
    # all of box^5 at once would gather 116 M values, and its indices alone
    # would take 0.9 GB; the row gathers about 2^18 values at a time into
    # the 2.5 MiB array of entries it keeps, so its peak stays near the
    # 8 MiB one chunk's gather takes
    clustering._row_plan.cache_clear()
    tracemalloc.start()
    try:
        want = _sinc_lemma_row()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, (kept, peak)
    monkeypatch.setattr(clustering, "_GATHER_CHUNK", 1)
    clustering._row_plan.cache_clear()
    try:
        vanish = tuple(k != 2 for k in range(11))
        assert clustering._row_plan(5, 11, vanish)[2].shape[1] == 11
        got = _sinc_lemma_row()
    finally:
        clustering._row_plan.cache_clear()
    assert got.shape == want.shape == (11 ** 5,)
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
    view = NonGaussianView(IidRealGaussianField())
    assert _anchor_tuples(view, box, 1) == [(3,), (4,), (5,)]
    assert _anchor_tuples(view, box[:2], 2) == [(3, 3), (3, 4), (4, 3), (4, 4)]


@pytest.mark.parametrize("name", sorted(SMALL_BOXES))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_clustering_norm_vanishing_matches_recursion(name, n):
    # both views scan every anchor of the box
    provider, box, _, _ = SMALL_BOXES[name]
    fast = clustering_norm(AnchorScanView(provider), n, 1, box)
    slow = clustering_norm(NonGaussianView(provider), n, 1, box)
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
    slow = theorem41_check(NonGaussianView(provider), X, n, p, small)
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
    slow = joint_theorem_check(NonGaussianView(provider), m, n, p, psi_sites, phi_box)
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
    # magnitude constants at p = 1, inf and 2 on one table: the runs after
    # the first read every anchor's |kappa| walk from the table and look up
    # no cumulant of order >= 2, and every norm is a fresh table's bit for
    # bit
    est = sample_ensemble(sinc_coupling_example(), box=2, n_samples=200, seed=3)
    box = list(est.sites)
    table = CumulantTable(est)
    orders = []
    lookup = CumulantTable.cumulant
    monkeypatch.setattr(CumulantTable, "cumulant",
                        lambda self, seq: orders.append(len(seq)) or lookup(self, seq))
    for run, p in enumerate((1.0, math.inf, 2.0)):
        orders.clear()
        magnitude_constants(est, p, 4, box, table=table)
        assert max(orders) == (4 if run == 0 else 1), p
        for n in range(1, 5):
            shared = clustering_norm(est, n, p, box, table=table)
            assert repr(shared) == repr(clustering_norm(est, n, p, box)), (n, p)


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
    f = two_field_provider
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    lookups, moments = [], []
    _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
    _count_calls(monkeypatch, f, "moment", moments)
    table = CumulantTable(f)
    first = joint_theorem_check(f, 2, 2, 2, psi_sites, phi_sites, table=table)
    assert lookups and moments
    lookups.clear()
    moments.clear()
    again = joint_theorem_check(f, 2, 2, 2, psi_sites, phi_sites, table=table)
    assert (len(lookups), len(moments)) == (0, 0)
    assert again.to_record() == first.to_record()


@pytest.mark.parametrize("m,n", [(1, 1), (1, 3), (2, 2)])
def test_joint_theorem_p1_and_p2_build_one_kappa_map(monkeypatch, two_field_provider,
                                                      m, n):
    # only the |kappa|^2 maps look up cumulants of psi and phi sites together
    # (the norms take one field, the rows conjugate x'); there is one map
    # per x' anchor, with one lookup per multiset of phi sites
    f = two_field_provider
    psi_sites = [("psi", 0), ("psi", 1)]
    phi_sites = [("phi", 0), ("phi", 1)]
    lookups = []
    _count_calls(monkeypatch, CumulantTable, "cumulant", lookups)
    table = CumulantTable(f)

    def mixed():
        return [seq for _, seq in lookups
                if {ref.site[0] for ref in seq} == {"psi", "phi"}
                and not any(ref.conj for ref in seq)]

    joint_theorem_check(f, m, n, 1, psi_sites, phi_sites, table=table)
    assert len(mixed()) == len(psi_sites) ** m * math.comb(len(phi_sites) + n - 1, n)
    lookups.clear()
    joint_theorem_check(f, m, n, 2, psi_sites, phi_sites, table=table)
    assert mixed() == []


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
