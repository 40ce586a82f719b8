import itertools
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickfield.clustering import magnitude_constants
from wickfield.cumulants import (
    CumulantTable,
    MomentProvider,
    OrderOverflowError,
    WickExpansion,
    _subset_plan,
    cumulant,
    generating_check,
    moments_from_cumulants,
    wick_expansion,
    wick_product_expectation,
)
from wickfield.fields import (
    EnsembleEstimator,
    FiniteDiscreteField,
    GaussianCovarianceField,
    IidComplexGaussianField,
    IidRealGaussianField,
    field_from_config,
    bernoulli_field,
    rademacher_field,
    random_discrete_field,
    sample_ensemble,
    sinc_coupling_example,
)
from wickfield.indexing import SiteRef, canonical, seq_sort_key

from conftest import (
    combinations_cumulant,
    direct_wick_product_expectation,
    mobius_cumulant,
    refs,
)


def test_bernoulli_low_cumulants():
    f = bernoulli_field(0.3)
    assert cumulant(f, refs(0)) == pytest.approx(0.3)
    assert cumulant(f, refs(0, 0)) == pytest.approx(0.21)  # p(1-p)
    # third cumulant of Bernoulli(p): p(1-p)(1-2p)
    assert cumulant(f, refs(0, 0, 0)) == pytest.approx(0.3 * 0.7 * 0.4)


def test_rademacher_cumulants():
    f = rademacher_field()
    assert cumulant(f, refs(0)) == 0
    assert cumulant(f, refs(0, 0)) == pytest.approx(1.0)
    assert cumulant(f, refs(0, 0, 0)) == 0
    # kurtosis cumulant of +-1: E[y^4] - 3 E[y^2]^2 = -2
    assert cumulant(f, refs(0, 0, 0, 0)) == pytest.approx(-2.0)


def test_matches_mobius_oracle(rng):
    for _ in range(20):
        f = random_discrete_field(rng, sites=[0, 1])
        table = CumulantTable(f)
        for order in range(1, 6):
            for labels in itertools.combinations_with_replacement([0, 1], order):
                seq = refs(*labels)
                assert table.cumulant(seq) == pytest.approx(
                    mobius_cumulant(f, seq), abs=1e-10)


def test_round_trip_order_six(rng):
    f = random_discrete_field(rng, sites=[0, 1, 2])
    table = CumulantTable(f)
    for labels in [(0,) * 6, (0, 0, 1, 1, 2, 2), (0, 1, 2, 0, 1, 2),
                   (0, 0, 0, 1, 1, 1), (2, 2, 2, 2, 2, 2)]:
        seq = refs(*labels)
        assert moments_from_cumulants(table, seq) == pytest.approx(
            f.moment(seq), abs=1e-10)


@settings(max_examples=30, deadline=None)
@given(perm=st.permutations(range(5)))
def test_permutation_invariance(perm):
    f = random_discrete_field(np.random.default_rng(7), sites=[0, 1])
    seq = refs(0, 0, 1, 1, 0)
    permuted = tuple(seq[i] for i in perm)
    assert cumulant(f, permuted) == pytest.approx(cumulant(f, seq), abs=1e-12)


@pytest.mark.parametrize("anchor", range(5))
def test_anchor_pick_independence(rng, anchor):
    # the library anchors at position 0; the oracle anchored anywhere else
    # gives the same value up to rounding
    f = random_discrete_field(rng, sites=[0, 1])
    seq = refs(0, 1, 0, 1, 1)
    key = tuple(zip(canonical(seq)))
    got = cumulant(f, seq)
    assert got == combinations_cumulant(f, key, 0)
    assert combinations_cumulant(f, key, anchor) == pytest.approx(got, abs=1e-12)


@pytest.mark.parametrize("provider,sites", [
    (random_discrete_field(np.random.default_rng(11), sites=[0, 1, 2]), [0, 1, 2]),
    (sinc_coupling_example(), [("phi", -2), ("phi", 1), ("psi", 0)]),
], ids=["discrete", "sinc"])
def test_table_cumulant_equals_joint_cumulant_of_singletons(provider, sites):
    # joint_cumulant hands 1-tuples to cumulant; the two must give the very
    # same value (repr tells 0j from 0.0) in every argument order, as both
    # memos fill up.  A compound variable first memoises singleton keys from
    # moments, which the Gaussian rule must outrank.  Without the Gaussian
    # rule the value is the anchor-0 oracle's, bit for bit; the oracle at
    # every other anchor agrees up to rounding.
    rng = np.random.default_rng(12)
    fast, slow = CumulantTable(provider), CumulantTable(provider)
    s0, s1, s2 = (SiteRef(s) for s in sites)
    for table in (fast, slow):
        table.joint_cumulant(((s0,), (s1,), (s0,), (s1,), (s2, s2)))
    memo = {}
    for order in range(1, 6):
        seq = tuple(SiteRef(sites[i], bool(c)) for i, c in zip(
            rng.integers(0, len(sites), order), rng.integers(0, 2, order)))
        key = tuple(zip(canonical(seq)))
        for perm in list(itertools.permutations(seq))[:12]:
            want = slow.joint_cumulant(tuple((r,) for r in perm))
            got = fast.cumulant(perm)
            assert repr(got) == repr(want), perm
        if not provider.is_gaussian:
            assert got == combinations_cumulant(provider, key, 0, memo), seq
        for anchor in range(order):
            assert combinations_cumulant(provider, key, anchor, memo) == pytest.approx(
                got, abs=1e-12), (seq, anchor)
        if not provider.is_gaussian:
            assert canonical(seq) in fast._memo, seq
    # every memo key stays canonical: single field variables under their
    # canonical sequence itself, compound ones as canonical monomials in
    # canonical order
    for key in fast._memo:
        if all(isinstance(item, SiteRef) for item in key):
            assert key == canonical(key)
        else:
            assert key == tuple(sorted((canonical(m) for m in key), key=seq_sort_key))


@pytest.mark.parametrize("calls", list(itertools.permutations([1, 1.0, True])),
                         ids=lambda calls: "-".join(map(repr, calls)))
def test_canonical_ignores_call_history_of_equal_labels(calls):
    # 1 == 1.0 == True, but they print differently, and canonical order is
    # by repr: no label may take the sort key of one seen before
    for label in calls:
        canonical((SiteRef(label), SiteRef(("phi", label))))
    seq = tuple(SiteRef(label) for label in (True, 1.0, 0.5, 1, "1")) \
        + tuple(SiteRef(("phi", label)) for label in (True, 1, 1.0))
    want = sorted(seq, key=lambda r: (repr(r.site), r.conj))
    assert [repr(r) for r in canonical(seq)] == [repr(r) for r in want]


@st.composite
def _small_fields_and_sequences(draw):
    """A field on 1 to 3 sites, FiniteDiscreteField or EnsembleEstimator,
    with real or complex values, and 1 to 5 of its single field variables,
    sites and conjugation flags drawn with repeats."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sites = list(range(draw(st.integers(1, 3))))
    rows = 4 if draw(st.booleans()) else 40
    values = rng.uniform(-1.0, 1.0, size=(rows, len(sites)))
    if draw(st.booleans()):
        values = values + 1j * rng.uniform(-1.0, 1.0, size=values.shape)
    if rows == 4:
        probs = rng.random(rows) + 0.05
        provider = FiniteDiscreteField(sites, list(zip(probs / probs.sum(), map(tuple, values))))
    else:
        provider = EnsembleEstimator(sites, values)
    order = draw(st.integers(1, 5))
    seq = tuple(SiteRef(draw(st.sampled_from(sites)), draw(st.booleans()))
                for _ in range(order))
    return provider, seq


@settings(max_examples=100, deadline=None)
@given(case=_small_fields_and_sequences())
def test_flat_keys_match_the_nested_key_path(case):
    # cumulant memoises single field variables under their canonical
    # sequence itself; the value is, bit for bit (repr tells 0j from 0.0),
    # the anchor-0 oracle's over the key of 1-tuples, the same recursion run
    # on that nested key, and joint_cumulant's of the 1-tuples in every
    # argument order, each on a fresh table
    provider, seq = case
    key = canonical(seq)
    table = CumulantTable(provider)
    got = table.cumulant(seq)
    assert key in table._memo
    assert repr(got) == repr(combinations_cumulant(provider, tuple(zip(key)), 0))
    assert repr(got) == repr(CumulantTable(provider)._recurse(tuple(zip(key)), False))
    for perm in set(itertools.permutations(seq)):
        want = CumulantTable(provider).joint_cumulant(tuple((ref,) for ref in perm))
        assert repr(want) == repr(got), perm


def _recursion_providers(seed):
    rng = np.random.default_rng(seed)
    complex_samples = rng.normal(size=(300, 3)) + 1j * rng.normal(size=(300, 3))
    return [
        random_discrete_field(rng, sites=[0, 1, 2]),
        random_discrete_field(rng, sites=[0, 1]),
        sample_ensemble(sinc_coupling_example(), box=2, n_samples=300, seed=seed),
        EnsembleEstimator([0, 1, 2], complex_samples),
    ]


@pytest.mark.parametrize("seed", range(3))
def test_recursion_plan_matches_inline_combinations(seed):
    # the per-order plan of subset getters subtracts the same terms in the
    # same order as combinations enumerated inline at anchor 0, so every
    # cumulant of single and compound variables, up to order 8, is equal
    # bit for bit; the oracle at every other anchor agrees up to rounding
    rng = np.random.default_rng(100 + seed)
    for provider in _recursion_providers(seed):
        sites = provider.sites
        table = CumulantTable(provider)
        memo = {}
        for k in range(1, 9):
            for compound in (False, True):
                lengths = [1] * k
                if compound:
                    for i in rng.integers(0, k, 8 - k):
                        lengths[i] = min(lengths[i] + 1, 3)
                variables = tuple(
                    tuple(SiteRef(sites[j], bool(c)) for j, c in zip(
                        rng.integers(0, len(sites), n), rng.integers(0, 2, n)))
                    for n in lengths)
                key = tuple(sorted((canonical(m) for m in variables), key=seq_sort_key))
                got = table.joint_cumulant(variables)
                assert got == combinations_cumulant(provider, key, 0, memo), variables
                if not compound:
                    seq = tuple(m[0] for m in variables)
                    assert table.cumulant(seq) == got, seq
                for anchor in range(1, k):
                    assert combinations_cumulant(provider, key, anchor, memo) \
                        == pytest.approx(got, abs=1e-12), (variables, anchor)


#: runs of repeated variables, as (site position, conj) per variable
_REPEATED_KEYS = [
    ((0, 0), (0, 0), (0, 0), (1, 0)),
    ((0, 0), (0, 0), (1, 0), (1, 0), (2, 1)),
    ((0, 0),) * 6,
    ((0, 1), (0, 1), (0, 0), (0, 0), (1, 1)),
    ((1, 0), (1, 0), (1, 0), (1, 0), (0, 0), (0, 0), (0, 0)),
]


@pytest.mark.parametrize("seed", range(2))
@pytest.mark.parametrize("spec", _REPEATED_KEYS, ids=lambda spec: "".join(
    "abc"[i] + "*" * c for i, c in spec))
def test_class_plan_matches_per_subset_oracle(seed, spec):
    # one term per class of subsets that pick the same sub-multiset,
    # subtracted once per subset, equals the per-subset recursion at anchor
    # 0 bit for bit; the oracle at every other anchor agrees up to rounding
    for provider in _recursion_providers(seed):
        sites = provider.sites
        # a provider of two sites folds c onto a
        seq = tuple(SiteRef(sites[i % len(sites)], bool(c)) for i, c in spec)
        key = tuple(zip(canonical(seq)))
        memo = {}
        got = CumulantTable(provider).cumulant(seq)
        assert got == combinations_cumulant(provider, key, 0, memo)
        assert CumulantTable(provider).joint_cumulant(
            tuple((ref,) for ref in seq)) == got
        for anchor in range(1, len(seq)):
            assert combinations_cumulant(provider, key, anchor, memo) == pytest.approx(
                got, abs=1e-12), anchor


@pytest.mark.parametrize("seed", range(2))
def test_class_plan_matches_per_subset_oracle_on_compound_keys(seed):
    for provider in _recursion_providers(seed):
        sites = provider.sites
        a, b, c = (SiteRef(sites[i % len(sites)]) for i in range(3))
        for variables in [((a, b), (a, b), (c,)),
                          ((a,), (a,), (a, b), (a, b)),
                          ((a, b),) * 4,
                          ((b, c), (a,), (b, c), (a,), (b, c))]:
            key = tuple(sorted((canonical(m) for m in variables), key=seq_sort_key))
            memo = {}
            got = CumulantTable(provider).joint_cumulant(variables)
            assert got == combinations_cumulant(provider, key, 0, memo), variables
            for anchor in range(1, len(variables)):
                assert combinations_cumulant(provider, key, anchor, memo) \
                    == pytest.approx(got, abs=1e-12), (variables, anchor)


@pytest.mark.parametrize("runs", [(1,), (3, 1), (2, 2, 1), (6,), (1, 1, 1, 1), (2, 1, 3)])
def test_subset_plan_has_one_class_per_sub_multiset(runs):
    # a class per choice of 1..r_first positions from the first run, which
    # holds the anchor, and 0..r from every other run, less the whole key
    k = sum(runs)
    same = tuple(itertools.chain.from_iterable(
        [True] * (r - 1) + [False] for r in runs))[:-1]
    distinct, order = _subset_plan(k, same)
    assert len(distinct) == runs[0] * math.prod(r + 1 for r in runs[1:]) - 1
    assert len(order) == 2 ** (k - 1) - 1
    # classes are numbered by first appearance
    firsts = [order.index(cls) for cls in range(len(distinct))]
    assert firsts == sorted(firsts) and set(order) == set(range(len(distinct)))


@pytest.mark.parametrize("variables", [
    (refs(0, 1), ()),
    ((), refs(0), refs(1, 2)),
    ((), refs(2, 0), refs(1), ()),
])
def test_joint_cumulant_with_constant_variable(rng, variables):
    # the empty monomial is the constant 1, so with it beside longer
    # monomials the flat sequence is as long as the key while not every
    # variable is single; every complement must still be joined monomial by
    # monomial, and a joint cumulant with a constant vanishes
    provider = random_discrete_field(rng, sites=[0, 1, 2])
    table = CumulantTable(provider)
    key = tuple(sorted((canonical(m) for m in variables), key=seq_sort_key))
    got = table.joint_cumulant(variables)
    assert got == combinations_cumulant(provider, key, 0)
    assert got == pytest.approx(0.0, abs=1e-12)
    for anchor in range(1, len(variables)):
        assert combinations_cumulant(provider, key, anchor) == pytest.approx(
            got, abs=1e-12), anchor


def test_joint_cumulant_anchor_independence(rng):
    f = random_discrete_field(rng, sites=[0, 1, 2])
    table = CumulantTable(f)
    variables = (refs(0, 1), refs(2), refs(0, 2))
    key = tuple(sorted((canonical(m) for m in variables), key=seq_sort_key))
    base = table.joint_cumulant(variables)
    assert base == combinations_cumulant(f, key, 0)
    for anchor in (1, 2):
        assert combinations_cumulant(f, key, anchor) == pytest.approx(base, abs=1e-12)


def test_joint_cumulant_compound_vs_mobius(rng):
    # compound monomial variables behave as single random variables
    f = random_discrete_field(rng, sites=[0, 1])
    table = CumulantTable(f)
    variables = (refs(0, 0), refs(1,), refs(0, 1))
    # oracle: build the moment provider of the three product variables
    atoms = []
    for prob, values in f.atoms:
        vals = {s: v for s, v in zip(f.sites, values)}
        atoms.append((prob, (vals[0] * vals[0], vals[1], vals[0] * vals[1])))
    g = FiniteDiscreteField(["a", "b", "c"], atoms)
    expected = mobius_cumulant(g, refs("a", "b", "c"))
    assert table.joint_cumulant(variables) == pytest.approx(expected, abs=1e-10)


def test_cumulant_independent_split_vanishes():
    # independent sites => cross cumulants vanish
    f = random_discrete_field(np.random.default_rng(3), sites=[0])
    g = random_discrete_field(np.random.default_rng(4), sites=[1])
    atoms = [(pa * pb, (va[0], vb[0]))
             for pa, va in f.atoms for pb, vb in g.atoms]
    h = FiniteDiscreteField([0, 1], atoms)
    assert cumulant(h, refs(0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert cumulant(h, refs(0, 0, 1)) == pytest.approx(0.0, abs=1e-12)
    assert cumulant(h, refs(0, 1, 1, 0)) == pytest.approx(0.0, abs=1e-12)


def test_gaussian_fast_path_matches_generic_recursion():
    gauss = IidRealGaussianField(variance=1.7)

    class NoFlag(IidRealGaussianField):
        is_gaussian = False

    plain = NoFlag(variance=1.7)
    for order in range(1, 7):
        seq = refs(*([0] * order))
        fast = cumulant(gauss, seq)
        slow = cumulant(plain, seq)
        assert fast == pytest.approx(slow, abs=1e-9)
        if order not in (2,):
            assert fast == 0.0


def test_order_overflow():
    f = bernoulli_field(0.5)
    with pytest.raises(OrderOverflowError):
        cumulant(f, refs(*([0] * (f.max_order + 1))))


def test_empty_cumulant_rejected():
    with pytest.raises(ValueError):
        cumulant(bernoulli_field(0.5), ())


GUARD_PROVIDERS = {
    "iid-gaussian": IidRealGaussianField,
    "discrete": lambda: random_discrete_field(np.random.default_rng(5), sites=[0, 1]),
}
SINGLE_ROUTES = {
    "cumulant": lambda table, seq: table.cumulant(seq),
    "joint_cumulant": lambda table, seq: table.joint_cumulant(tuple((r,) for r in seq)),
}


@pytest.mark.parametrize("route", sorted(SINGLE_ROUTES))
@pytest.mark.parametrize("name", sorted(GUARD_PROVIDERS))
def test_single_route_guards(name, route):
    # both entry points of the table refuse an empty collection and an
    # order past the provider's limit, Gaussian rule or not
    provider = GUARD_PROVIDERS[name]()
    table, kappa = CumulantTable(provider), SINGLE_ROUTES[route]
    with pytest.raises(ValueError, match="empty collection"):
        kappa(table, ())
    with pytest.raises(OrderOverflowError):
        kappa(table, refs(*([0] * (provider.max_order + 1))))
    assert kappa(table, refs(*([0] * provider.max_order))) == cumulant(
        provider, refs(*([0] * provider.max_order)))


@pytest.mark.parametrize("name", sorted(GUARD_PROVIDERS))
def test_compound_cumulant_order_guard(name):
    # the order of a compound collection counts every field variable
    provider = GUARD_PROVIDERS[name]()
    table = CumulantTable(provider)
    limit = provider.max_order
    with pytest.raises(OrderOverflowError):
        table.joint_cumulant((refs(*([0] * (limit - 1))), refs(1, 1)))
    at_limit = table.joint_cumulant((refs(*([0] * (limit - 2))), refs(1, 1)))
    assert math.isfinite(abs(at_limit))


def test_wick_expectation_vanishes(rng):
    f = random_discrete_field(rng, sites=[0, 1])
    for labels in [(0,), (0, 1), (0, 0, 1), (0, 1, 1, 0), (0, 0, 0, 1, 1)]:
        exp = wick_expansion(f, refs(*labels))
        assert abs(exp.expectation(f)) < 1e-10


def test_wick_expansion_leading_term(rng):
    f = random_discrete_field(rng, sites=[0, 1])
    seq = canonical(refs(0, 1, 1))
    exp = wick_expansion(f, seq)
    assert exp.terms[seq] == pytest.approx(1.0)


def test_wick_first_order_centers():
    f = bernoulli_field(0.3)
    exp = wick_expansion(f, refs(0))
    assert exp.terms[refs(0)] == pytest.approx(1.0)
    assert exp.terms[()] == pytest.approx(-0.3)


def test_two_pair_product_identity(rng):
    # E[:y1 y2: :y3 y4:] = k13 k24 + k14 k23 + k1234, term by term
    f = random_discrete_field(rng, sites=[0, 1, 2, 3])
    table = CumulantTable(f)
    y = refs(0, 1, 2, 3)
    k = lambda *pos: table.cumulant(tuple(y[i] for i in pos))
    expected = k(0, 2) * k(1, 3) + k(0, 3) * k(1, 2) + k(0, 1, 2, 3)
    got = wick_product_expectation(f, (y[:2], y[2:]))
    assert got == pytest.approx(expected, abs=1e-10)
    assert got == pytest.approx(
        direct_wick_product_expectation(f, (y[:2], y[2:])), abs=1e-10)


def test_wick_product_matches_direct_expansion(rng):
    for trial in range(50):
        f = random_discrete_field(rng, sites=list(range(rng.integers(1, 5))))
        n_groups = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_groups)]
        total = sum(sizes)
        if total > 6:
            continue
        tail_len = int(rng.integers(0, min(3, 7 - total)))
        labels = list(rng.choice(f.sites, size=total + tail_len))
        groups, pos = [], 0
        for s in sizes:
            groups.append(refs(*labels[pos:pos + s]))
            pos += s
        tail = refs(*labels[pos:])
        got = wick_product_expectation(f, tuple(groups), tail)
        want = direct_wick_product_expectation(f, tuple(groups), tail)
        assert got == pytest.approx(want, abs=1e-9), (groups, tail)


def test_single_wick_group_with_tail_is_cumulant(rng):
    f = random_discrete_field(rng, sites=[0, 1])
    got = wick_product_expectation(f, (refs(0, 1),), refs(0))
    assert got == pytest.approx(cumulant(f, refs(0, 1, 0)), abs=1e-12)


def test_generating_check_discrete():
    rep = generating_check(bernoulli_field(0.3), refs(0, 0, 0))
    assert rep.flag


def test_generating_check_gaussian():
    rep = generating_check(IidRealGaussianField(variance=0.8), refs(0, 0))
    assert rep.flag
    assert rep.witnesses["finite_difference"] == pytest.approx(0.8, abs=1e-6)


def test_moments_from_cumulants_gaussian():
    f = IidRealGaussianField()
    table = CumulantTable(f)
    seq = refs(0, 0, 0, 0)
    assert moments_from_cumulants(table, seq) == pytest.approx(3.0)
    assert f.moment(seq) == pytest.approx(3.0)


def test_wick_expansion_algebra():
    a = WickExpansion({refs(0): 2.0, (): 1.0})
    b = WickExpansion({refs(1): 1.0})
    prod = a * b
    assert prod.terms[canonical(refs(0, 1))] == pytest.approx(2.0)
    assert prod.terms[refs(1)] == pytest.approx(1.0)


class CountingProvider(MomentProvider):
    """Delegates moments to ``inner`` and counts the calls per sequence."""

    def __init__(self, inner):
        self.inner = inner
        self.max_order = inner.max_order
        self.calls = Counter()

    def moment(self, sequence):
        self.calls[sequence] += 1
        return self.inner.moment(sequence)


def test_table_evaluates_each_moment_once():
    est = sample_ensemble(sinc_coupling_example(), box=2, n_samples=64, seed=5)
    counting = CountingProvider(est)
    table = CumulantTable(counting)
    sites = list(est.sites)
    for p in (1.0, math.inf):
        magnitude_constants(counting, p, 4, sites, table=table)
    # one moment per multiset of the 4 sites of order 1..4: 4 + 10 + 20 + 35
    assert len(counting.calls) == 69
    # compound variables flatten out of canonical order; the memo keeps that
    # order, in which the estimator multiplies and rounds
    psi0, phi0, phi1 = SiteRef(("psi", 0)), SiteRef(("phi", 0)), SiteRef(("phi", 1))
    for variables in (((phi1,), (phi0, psi0)), ((phi1,), (phi0, psi0), (phi1, phi1))):
        table.joint_cumulant(variables)
    assert any(flat != canonical(flat) for flat in counting.calls)
    assert set(counting.calls.values()) == {1}
    assert table._moments.keys() == counting.calls.keys()
    for flat, value in table._moments.items():
        assert value == est.moment(flat), flat
    for order in (2, 3, 4):
        seq = canonical(SiteRef(s) for s in (sites * 2)[:order])
        assert moments_from_cumulants(table, seq) == pytest.approx(
            est.moment(seq), rel=1e-10, abs=1e-12)
    assert set(counting.calls.values()) == {1}


class BrownianField(GaussianCovarianceField):
    """Real Gaussians at sites s >= 0 with covariance 1 + min(s, t): Gaussian
    and not translation invariant."""

    def covariance(self, a, b):
        return 1.0 + min(a.site, b.site)


_SINC_BOX = [("phi", 2), ("psi", -1), ("phi", -3), ("psi", 0)]

#: provider and box of each law whose cumulant tensors are checked
TENSOR_FIELDS = {
    "sinc": (sinc_coupling_example, _SINC_BOX),
    "quadrature": (lambda: field_from_config({
        "grid": 1024, "f1": {"name": "flat"},
        "f2": {"name": "band", "height": 1.5, "halfwidth": 0.3},
        "g": {"name": "band", "halfwidth": 0.2}}), _SINC_BOX),
    "iid-real": (lambda: IidRealGaussianField(2.5), [3, -1, 0]),
    "iid-complex": (lambda: IidComplexGaussianField(1.5), [3, -1, 0]),
    "brownian": (BrownianField, [2, 0, 3, 1]),
    "discrete": (lambda: random_discrete_field(np.random.default_rng(7), sites=[1, 0, 2]),
                 [1, 0, 2]),
    "ensemble": (lambda: sample_ensemble(sinc_coupling_example(), box=2, n_samples=64,
                                         seed=5), [("phi", 1), ("psi", 0), ("phi", 0)]),
}


def _heads(box):
    """Heads of 0 to 3 single field variables, conjugates among them, and
    one compound variable."""
    a, b = SiteRef(box[1]), SiteRef(box[-1], True)
    return [(), ((a,),), ((b,),), ((a,), (b,)), ((b,), (b,), (a,)), ((a, b),)]


def product_order_tensor(table, head, k, box):
    """kappa[head, z] for each x in box^k in product order, one cumulant
    lookup per x, with the z of each x in box order: the order in which the
    tensor reads the variables of a multiset, and which a Gaussian rule that
    reads its variables in the caller's order sees."""
    refs = [SiteRef(s) for s in box]
    values = []
    for x in itertools.product(range(len(box)), repeat=k):
        tail = tuple((refs[i],) for i in sorted(x))
        if all(len(v) == 1 for v in head):
            values.append(table.cumulant(tuple(v[0] for v in head + tail)))
        else:
            values.append(table.joint_cumulant(head + tail))
    return values


@pytest.mark.parametrize("name", sorted(TENSOR_FIELDS))
def test_cumulant_tensor_equals_product_order_walk(name):
    make, box = TENSOR_FIELDS[name]
    provider = make()
    table = CumulantTable(provider)
    checked = 0
    for head in _heads(box):
        for k in range(4):
            order = sum(map(len, head)) + k
            if not 1 <= order <= 4:
                continue
            tensor = table.cumulant_tensor(head, k, box)
            assert tensor.dtype == complex and tensor.shape == (len(box) ** k,)
            assert not tensor.flags.writeable
            assert table.cumulant_tensor(list(head), k, tuple(box)) is tensor
            walk = product_order_tensor(CumulantTable(provider), head, k, box)
            assert tensor.tolist() == [complex(v) for v in walk], (head, k)
            checked += 1
    assert checked == 19


@pytest.mark.parametrize("name", ["sinc", "iid-real", "brownian"])
def test_gaussian_tensor_is_a_covariance_only_at_order_two(name):
    # the rule is on the head and the box together: zeros wherever they hold
    # other than two single field variables, whatever k is
    make, box = TENSOR_FIELDS[name]
    table = CumulantTable(make())
    a = SiteRef(box[0])
    for head_len in range(4):
        for k in range(4 - head_len):
            if head_len + k == 0:
                continue
            tensor = table.cumulant_tensor(((a,),) * head_len, k, box)
            assert np.any(tensor != 0) == (head_len + k == 2), (head_len, k)
