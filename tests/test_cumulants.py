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
    _subset_getters,
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
from wickfield.multisets import (_anchored_subsets, _multiset_expansion, _multisets,
                                 _order_offset, _order_plan)

from conftest import (
    combinations_cumulant,
    direct_wick_product_expectation,
    hide_bulk,
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
    # the anchor-0 oracle's over the key of 1-tuples, and joint_cumulant's
    # of the 1-tuples in every argument order, each on a fresh table
    provider, seq = case
    key = canonical(seq)
    table = CumulantTable(provider)
    got = table.cumulant(seq)
    assert key in table._memo
    assert repr(got) == repr(combinations_cumulant(provider, tuple(zip(key)), 0))
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
    # keys with runs of equal variables: one term per subset, subtracted
    # in order, equals the per-subset recursion at anchor 0 bit for bit;
    # the oracle at every other anchor agrees up to rounding
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
def test_subset_getters_split_a_key_by_each_anchored_subset(runs):
    # one (chosen, rest) pair per subset of _anchored_subsets(k), in its
    # order, built once per k: the chosen positions, which hold the anchor,
    # and the rest make up the key, and on a canonical key with runs of
    # equal variables both parts are canonical already
    key = refs(*itertools.chain.from_iterable([site] * r for site, r in enumerate(runs)))
    k = len(key)
    assert canonical(key) == key
    getters = _subset_getters(k)
    assert _subset_getters(k) is getters and len(getters) == 2 ** (k - 1) - 1
    for (sub_of, comp_of), chosen in zip(getters, _anchored_subsets(k), strict=True):
        sub, comp = sub_of(key), comp_of(key)
        assert sub == tuple(key[i] for i in chosen) and sub[0] is key[0]
        assert comp == tuple(key[i] for i in range(1, k) if i not in chosen) and comp
        assert canonical(sub) == sub and canonical(comp) == comp
        assert Counter(sub + comp) == Counter(key)


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


def test_joint_cumulant_of_constants(rng):
    # a collection of constants is not empty: kappa[1] = E[1] = 1, and a
    # joint cumulant of a constant with anything else vanishes; the atom
    # probabilities add to 1 exactly, as E[1] must
    values = rng.uniform(-1.0, 1.0, size=(3, 2))
    table = CumulantTable(FiniteDiscreteField([0, 1], zip((0.5, 0.25, 0.25), values)))
    assert table.joint_cumulant(((),)) == 1
    assert table.joint_cumulant(((), ())) == 0
    assert table.joint_cumulant(((), refs(0))) == 0
    assert table.joint_cumulant((refs(1), ())) == 0
    with pytest.raises(ValueError, match="empty collection"):
        table.joint_cumulant(())


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
        sites = (0,)

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
    """Delegates moments to ``inner``, whose sites it lists, and counts the
    calls per sequence."""

    def __init__(self, inner):
        self.inner = inner
        self.max_order = inner.max_order
        self.sites = inner.sites
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
    # the store measures one moment per multiset of the 4 sites of order
    # 1..4: 4 + 10 + 20 + 35
    assert len(counting.calls) == 69
    assert set(counting.calls.values()) == {1}
    # compound variables flatten out of canonical order; the recursion
    # measures each product in that order, in which the estimator multiplies
    # and rounds, reads one in canonical order from the store, and gives the
    # anchor-0 oracle's value
    psi0, phi0, phi1 = SiteRef(("psi", 0)), SiteRef(("phi", 0)), SiteRef(("phi", 1))
    compound = (((phi1,), (phi0, psi0)), ((phi1,), (phi0, psi0), (phi1, phi1)))
    for variables in compound:
        key = tuple(sorted(map(canonical, variables), key=seq_sort_key))
        assert table.joint_cumulant(variables) == combinations_cumulant(est, key, 0), variables
    assert any(flat != canonical(flat) for flat in counting.calls)
    assert set(counting.calls.values()) == {1}
    measured = Counter(counting.calls)
    for variables in compound:
        table.joint_cumulant(variables)
    for order in (2, 3, 4):
        seq = canonical(SiteRef(s) for s in (sites * 2)[:order])
        assert moments_from_cumulants(table, seq) == pytest.approx(
            est.moment(seq), rel=1e-10, abs=1e-12)
    assert counting.calls == measured


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


def _sorting_expansion(size, k):
    """The multisets and expansion array of ``_multiset_expansion`` as a
    Python sort of every product tuple builds them."""
    multisets = list(itertools.combinations_with_replacement(range(size), k))
    rank = {ms: i for i, ms in enumerate(multisets)}
    return multisets, [rank[tuple(sorted(x))]
                       for x in itertools.product(range(size), repeat=k)]


#: every (box size, k) verify-bounds expands through --max-order 5, and three more
_EXPANSION_SHAPES = ([(2, k) for k in range(1, 10)] + [(11, k) for k in range(1, 6)]
                     + [(41, 1), (401, 1), (2, 5), (5, 3), (0, 2), (3, 0)])


@pytest.mark.parametrize("size,k", _EXPANSION_SHAPES)
def test_multiset_expansion_equals_the_sorting_build(size, k):
    # the rows and ranks come from the combinatorial number system, in
    # arrays; they are those of a Python sort of every product tuple
    multisets, expansion = _multiset_expansion(size, k)
    want_multisets, want_expansion = _sorting_expansion(size, k)
    assert multisets.shape == (len(want_multisets), k)
    assert list(map(tuple, multisets.tolist())) == want_multisets
    assert expansion.dtype == np.intp and expansion.tolist() == want_expansion
    assert not multisets.flags.writeable and not expansion.flags.writeable


@pytest.mark.parametrize("size,k", [(1, 2), (2, 3), (3, 4), (4, 5), (2, 7), (4, 6)])
def test_order_plan_equals_a_per_multiset_build(size, k):
    # each column of the plan is a subset of _anchored_subsets(k), the ones
    # the recursion subtracts, and each entry the store index of the sub-multiset
    # it picks or of the rest, orders 1, 2, ... one after the other
    start = {}
    for order in range(1, k):
        start[order] = sum(math.comb(size + j - 1, j) for j in range(1, order))
    ranks = {order: {ms: start[order] + i for i, ms in enumerate(
        itertools.combinations_with_replacement(range(size), order))} for order in start}
    sub, comp = _order_plan(size, k)
    assert sub.dtype == comp.dtype == np.int32
    subsets = _anchored_subsets(k)
    assert len(subsets) == 2 ** (k - 1) - 1
    for row, key in enumerate(itertools.combinations_with_replacement(range(size), k)):
        for col, chosen in enumerate(subsets):
            rest = tuple(key[i] for i in range(k) if i not in chosen)
            assert sub[row, col] == ranks[len(chosen)][tuple(key[i] for i in chosen)]
            assert comp[row, col] == ranks[len(rest)][rest]


@st.composite
def _real_laws(draw):
    """A real FiniteDiscreteField on 1 to 4 sites with 2 to 6 atoms, whose
    site labels sort otherwise in canonical order than as given."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sites = draw(st.sampled_from([[0], [("psi", 0), 1], [10, 9, 2], [3, 20, ("phi", 1), 1]]))
    sites = sites[:draw(st.integers(1, len(sites)))]
    atoms = draw(st.integers(2, 6))
    probs = rng.random(atoms) + 0.05
    values = rng.uniform(-1.0, 1.0, size=(atoms, len(sites)))
    return FiniteDiscreteField(sites, list(zip(probs / probs.sum(), map(tuple, values))))


@settings(max_examples=40, deadline=None)
@given(law=_real_laws(), order=st.integers(1, 10), data=st.data())
def test_order_fill_equals_the_per_key_recursion(law, order, data):
    # the fill of a real law gives every cumulant and every tensor == to the
    # per-key recursion on the same law with its moments by order hidden,
    # and each cumulant is within 1e-12 of the Mobius oracle (through order
    # 7: the oracle walks all Bell(n) partitions)
    assert law.is_real
    fill, per_key = CumulantTable(law), CumulantTable(hide_bulk(law))
    refs_of = [SiteRef(s) for s in law.sites]
    picks = st.lists(st.sampled_from(refs_of), min_size=order, max_size=order)
    for seq in data.draw(st.lists(picks, min_size=1, max_size=3)):
        got = fill.cumulant(tuple(seq))
        assert repr(got) == repr(per_key.cumulant(tuple(seq))), seq
        if order <= 7:
            assert abs(got - mobius_cumulant(law, tuple(seq))) <= 1e-12, seq
    assert fill._fill.order >= order
    k = data.draw(st.integers(0, min(order, 3)))
    head = tuple((SiteRef(s, c),) for s, c in data.draw(
        st.lists(st.tuples(st.sampled_from(law.sites), st.booleans()),
                 min_size=order - k, max_size=order - k)))
    box = data.draw(st.permutations(law.sites))
    tensor = fill.cumulant_tensor(head, k, box)
    assert tensor.tolist() == per_key.cumulant_tensor(head, k, box).tolist(), (head, k)


@st.composite
def _on_demand_laws(draw):
    """A real law without moments by order: an ensemble of 5 to 60 samples
    on 1 to 4 sites, or a finite law with its moments by order hidden."""
    if draw(st.booleans()):
        return hide_bulk(draw(_real_laws()))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sites = [3, ("psi", 0), 0, 10][:draw(st.integers(1, 4))]
    return EnsembleEstimator(sites, rng.uniform(-1.0, 1.0, (draw(st.integers(5, 60)), len(sites))))


@settings(max_examples=40, deadline=None)
@given(law=_on_demand_laws(), data=st.data())
def test_on_demand_fill_equals_the_anchor_zero_recursion(law, data):
    # scalar and tensor requests of orders 1 to 8, interleaved across
    # orders, fill the store of a law without moments by order on demand;
    # every value is the anchor-0 recursion's, repr for repr, and through
    # order 7 within 1e-12 of the Mobius oracle
    table, memo = CumulantTable(law), {}
    sites = list(law.sites)

    def oracle(seq):
        return combinations_cumulant(law, tuple(zip(canonical(seq))), 0, memo)

    for _ in range(data.draw(st.integers(1, 5))):
        order = data.draw(st.integers(1, 8))
        if data.draw(st.booleans()):
            seq = tuple(SiteRef(s) for s in data.draw(
                st.lists(st.sampled_from(sites), min_size=order, max_size=order)))
            got = table.cumulant(seq)
            assert repr(got) == repr(oracle(seq)), seq
            if order <= 7:
                assert abs(got - mobius_cumulant(law, seq)) <= 1e-12, seq
            continue
        k = data.draw(st.integers(0, min(order, 3)))
        head = tuple(SiteRef(s) for s in data.draw(
            st.lists(st.sampled_from(sites), min_size=order - k, max_size=order - k)))
        box = data.draw(st.permutations(sites))
        tensor = table.cumulant_tensor(tuple(zip(head)), k, box)
        for x, got in zip(itertools.product(box, repeat=k), tensor.tolist()):
            seq = head + tuple(map(SiteRef, x))
            assert repr(got) == repr(oracle(seq)), seq
    assert table._fill.whole == 0


def _complex_law():
    rng = np.random.default_rng(3)
    values = rng.uniform(-1, 1, (4, 3)) + 1j * rng.uniform(-1, 1, (4, 3))
    return FiniteDiscreteField([0, 1, 2], [(0.25, tuple(v)) for v in values])


@pytest.mark.parametrize("make", [
    _complex_law,
    lambda: EnsembleEstimator([0, 1, 2], np.random.default_rng(4).normal(size=(50, 3))),
    lambda: hide_bulk(random_discrete_field(np.random.default_rng(5), sites=[0, 1, 2])),
], ids=["complex-discrete", "real-ensemble", "hidden"])
def test_laws_without_moments_by_order_fill_on_demand(monkeypatch, make):
    # a complex law, whose store numbers each site's plain and conjugated
    # refs, and a real law without moments by order, an ensemble or a
    # hidden-bulk law, fill their store on demand: one walk per request,
    # and every value is the anchor-0 oracle's, repr for repr; a complex
    # head keeps its conjugation flag
    provider = make()
    assert provider.order_moments(2) is None
    walks = []
    original = provider.multiset_moments
    monkeypatch.setattr(provider, "multiset_moments", lambda rows: (
        walks.append(rows) or original(rows)))
    table = CumulantTable(provider)
    seq = (SiteRef(0), SiteRef(1, not provider.is_real), SiteRef(1))
    assert repr(table.cumulant(seq)) == repr(
        combinations_cumulant(provider, tuple(zip(canonical(seq)))))
    head = (SiteRef(2, not provider.is_real),)
    tensor = table.cumulant_tensor((head,), 2, [0, 1])
    for x, got in zip(itertools.product([0, 1], repeat=2), tensor.tolist()):
        want = combinations_cumulant(provider, tuple(zip(canonical(head + refs(*x)))))
        assert repr(got) == repr(want), x
    assert len(walks) == 2 and table._fill.whole == 0 and table._fill.order == 3


@pytest.mark.parametrize("make", [
    lambda: random_discrete_field(np.random.default_rng(13), sites=[0, 1, 2]),
    lambda: EnsembleEstimator([0, 1, 2], np.random.default_rng(13).normal(size=(40, 3))),
    _complex_law,
    IidRealGaussianField,
], ids=["discrete", "ensemble", "complex-discrete", "gaussian"])
def test_cumulant_tensors_rows_are_the_heads_tensors(monkeypatch, make):
    # one _tensors call builds the heads the table has not built yet, each
    # once, whatever the law, the head lengths or a compound variable; a
    # repeated head reads the same row, a repeated call builds nothing, and
    # each row is the head's tensor on a fresh table
    provider, box = make(), [2, 0, 1]
    a, b, c = map(SiteRef, range(3))
    pairs = [((SiteRef(x),), (SiteRef(y),)) for x, y in
             itertools.combinations_with_replacement(range(3), 2)]
    heads = pairs + [((b,),), pairs[0], ((a, c),)]
    builds = []
    original = CumulantTable._tensors
    monkeypatch.setattr(CumulantTable, "_tensors", lambda self, new, k, box_sites: (
        builds.append(list(new)) or original(self, new, k, box_sites)))
    table = CumulantTable(provider)
    table.cumulant_tensor(heads[1], 2, box)
    rows = table.cumulant_tensors(iter(heads), 2, box)
    assert len(builds) == 2 and len(builds[1]) == len(heads) - 2
    assert rows[len(pairs) + 1] is rows[0]
    for row in rows:
        assert row.dtype == complex and row.shape == (9,) and not row.flags.writeable
    builds.clear()
    again = table.cumulant_tensors(heads, 2, box)
    assert builds == [] and all(x is y for x, y in zip(again, rows, strict=True))
    for head, row in zip(heads, rows):
        assert row.tolist() == CumulantTable(provider).cumulant_tensor(head, 2, box).tolist(), head
    assert table.cumulant_tensors([], 2, box) == []


def test_order_fill_keeps_the_guards():
    # an unknown site raises the KeyError the per-key recursion raises, and
    # an order past max_order the OrderOverflowError, on both routes
    law = random_discrete_field(np.random.default_rng(6), sites=[0, 1])
    ensemble = EnsembleEstimator([0, 1], np.random.default_rng(6).normal(size=(20, 2)))
    for provider in (law, hide_bulk(law), ensemble):
        table = CumulantTable(provider)
        for call in (lambda: table.cumulant(refs(0, "z")),
                     lambda: table.cumulant_tensor(((SiteRef("z"),),), 1, [0, 1]),
                     lambda: table.cumulant_tensor(((SiteRef(0),),), 2, [1, "z"])):
            with pytest.raises(KeyError, match="^\"unknown site 'z'\"$"):
                call()
        too_many = provider.max_order + 1
        with pytest.raises(OrderOverflowError):
            table.cumulant(refs(*([0] * too_many)))
        with pytest.raises(OrderOverflowError):
            table.cumulant_tensor(((SiteRef(0),),) * (too_many - 1), 1, [0, 1])
    # the providers themselves name the site, the estimator for real and
    # complex samples, for a moment and a standard error
    rng = np.random.default_rng(6)
    complex_ensemble = EnsembleEstimator([0, 1], rng.normal(size=(20, 2)) + 1j)
    for call in (lambda: law.moment(refs(0, "z")),
                 lambda: hide_bulk(law).moment(refs(0, "z")),
                 lambda: ensemble.moment(refs(0, "z", 1)),
                 lambda: ensemble.moment_standard_error(refs(0, "z")),
                 lambda: complex_ensemble.moment((SiteRef(0), SiteRef("z", True))),
                 lambda: complex_ensemble.moment_standard_error(refs("z"))):
        with pytest.raises(KeyError, match="^\"unknown site 'z'\"$"):
            call()


@pytest.mark.parametrize("kind", ["ensemble", "hidden-bulk"])
def test_a_request_fills_exactly_the_sub_multisets_of_its_rows(kind):
    # the anchored recursion of a multiset reads only its sub-multisets, so
    # one request on a fresh table, here the rows {2} + z of a tensor,
    # fills the kappa and moment of each of those and of nothing else
    law = random_discrete_field(np.random.default_rng(5), sites=[0, 1, 2, 3])
    provider = (hide_bulk(law) if kind == "hidden-bulk" else
                EnsembleEstimator([0, 1, 2, 3], np.random.default_rng(5).normal(size=(30, 4))))
    table = CumulantTable(provider)
    box = [0, 1, 3]
    table.cumulant_tensor(((SiteRef(2),),), 3, box)
    fill = table._fill
    assert fill.whole == 0 and fill.order == 4
    assert fill.ranks.tolist() == _closure_ranks(fill, [refs(2, *z) for z in
                                                  itertools.combinations_with_replacement(box, 3)])


def _closure_ranks(fill, sequences) -> list:
    """The sorted global ranks of every sub-multiset of the sequences, as
    the store ``fill`` numbers them."""
    closure = set()
    for seq in sequences:
        row = sorted(fill.positions(seq))
        for size in range(1, len(row) + 1):
            closure.update(fill.index(np.array(list(itertools.combinations(row, size)))).tolist())
    return sorted(closure)


def test_order_fill_fills_a_too_large_order_on_demand():
    # seven sites of order 8 would make a plan of 3,003 multisets times 128
    # columns, past _FILL_ENTRIES: that order is filled on demand, only the
    # multisets a request reads, and the orders below it whole; every value
    # is the anchor-0 recursion's
    law = random_discrete_field(np.random.default_rng(8), sites=list(range(7)))
    table = CumulantTable(law)
    seq = refs(0, 1, 2, 3, 4, 5, 6, 0)
    assert repr(table.cumulant(seq[:7])) == repr(combinations_cumulant(law, tuple(zip(seq[:7]))))
    assert table._fill.whole == table._fill.order == 7
    assert repr(table.cumulant(seq)) == repr(
        combinations_cumulant(law, tuple(zip(canonical(seq)))))
    fill = table._fill
    assert fill.whole == 7 and fill.order == 8 and canonical(seq) in table._memo
    end = _order_offset(fill.size, fill.whole + 1)
    assert fill.ranks[:end].tolist() == list(range(end))
    assert end == math.comb(14, 7) - 1 and 0 < len(fill.ranks) - end < math.comb(14, 8)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_a_fill_that_raises_leaves_the_store_as_it_was(kind):
    # multiset_moments raises once, part way through a request: the store
    # keeps none of its multisets, and the same request, asked again, fills
    # them and gives the anchor-0 oracle's value
    rng = np.random.default_rng(4)
    samples = rng.normal(size=(40, 3))
    if kind == "complex":
        samples = samples + 1j * rng.normal(size=(40, 3))
    est = EnsembleEstimator([0, 1, 2], samples)
    table = CumulantTable(est)
    table.cumulant(refs(0, 1))
    fill = table._fill
    held = fill.ranks.tolist(), fill.moments.tolist(), fill.kappas.tolist()
    seq = (SiteRef(0), SiteRef(1, True), SiteRef(2), SiteRef(2))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(est, "multiset_moments", lambda rows: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            table.cumulant(seq)
    assert (fill.ranks.tolist(), fill.moments.tolist(), fill.kappas.tolist()) == held
    key = canonical(seq)
    assert repr(table.cumulant(seq)) == repr(combinations_cumulant(est, tuple(zip(key)), 0))


def test_a_request_past_a_whole_order_store_fills_its_closure():
    # 300 sites have 344,291,325 multisets of order 4, more than a store of
    # whole orders could hold: an order-4 tensor request on a 3-site box
    # fills exactly the sub-multisets of its rows, and every value is the
    # anchor-0 recursion's, repr for repr
    law = EnsembleEstimator(range(300), np.random.default_rng(9).uniform(-1, 1, (40, 300)))
    assert math.comb(300 + 3, 4) == 344_291_325
    table, memo = CumulantTable(law), {}
    box = [299, 0, 150]
    tensor = table.cumulant_tensor(((SiteRef(7),),), 3, box)
    for x, got in zip(itertools.product(box, repeat=3), tensor.tolist()):
        assert repr(got) == repr(combinations_cumulant(
            law, tuple(zip(canonical(refs(7, *x)))), 0, memo)), x
    fill = table._fill
    assert fill.ranks.tolist() == _closure_ranks(
        fill, [refs(7, *z) for z in itertools.combinations_with_replacement(box, 3)])


def test_the_store_refuses_ranks_past_int64():
    # the multisets of order 8 of 1,000 sites number more than int64 can
    # rank; order 7 still fits
    law = EnsembleEstimator(range(1000), np.random.default_rng(10).uniform(-1, 1, (3, 1000)))
    table = CumulantTable(law)
    assert table.cumulant(refs(*range(7))) == combinations_cumulant(
        law, tuple(zip(canonical(refs(*range(7))))))
    message = "^the multisets of order 8 of 1000 sites overflow the store's int64 ranks$"
    with pytest.raises(OrderOverflowError, match=message):
        table.cumulant(refs(*range(8)))
    with pytest.raises(OrderOverflowError, match=message):
        table.cumulant_tensor(((SiteRef(0),),), 7, [1, 2])


def test_a_non_gaussian_provider_must_list_its_sites():
    # its store numbers them; a Gaussian provider needs none
    class Unlisted(MomentProvider):
        def moment(self, sequence):
            return 0.0

    message = "^Unlisted lists no sites, and a non-Gaussian law's cumulants are stored by them$"
    for call in (lambda table: table.cumulant(refs(0)),
                 lambda table: table.cumulant_tensor(((SiteRef(0),),), 1, [0, 1]),
                 lambda table: table.joint_cumulant(((SiteRef(0), SiteRef(1)), (SiteRef(0),)))):
        with pytest.raises(TypeError, match=message):
            call(CumulantTable(Unlisted()))
    assert CumulantTable(IidRealGaussianField()).cumulant(refs(0, 0)) == 1.0


@st.composite
def _complex_laws(draw):
    """A complex law on 1 to 4 sites: a finite law of 2 to 6 atoms, which
    gives no moments by order, or an ensemble of 5 to 40 samples."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    sites = [3, ("psi", 0), 0, 10][:draw(st.integers(1, 4))]
    rows = draw(st.integers(2, 6) if draw(st.booleans()) else st.integers(5, 40))
    values = rng.uniform(-1, 1, (rows, len(sites))) + 1j * rng.uniform(-1, 1, (rows, len(sites)))
    if rows > 6:
        return EnsembleEstimator(sites, values)
    probs = rng.random(rows) + 0.05
    return FiniteDiscreteField(sites, list(zip(probs / probs.sum(), map(tuple, values))))


@settings(max_examples=40, deadline=None)
@given(law=_complex_laws(), data=st.data())
def test_complex_store_equals_the_anchor_zero_recursion(law, data):
    # scalar and tensor requests of orders 1 to 5 on a complex law, plain
    # and conjugated refs mixed, fill its store on demand; every value is
    # the anchor-0 recursion's, repr for repr
    assert not law.is_real
    table, memo = CumulantTable(law), {}
    ref = st.builds(SiteRef, st.sampled_from(law.sites), st.booleans())

    def oracle(seq):
        return combinations_cumulant(law, tuple(zip(canonical(seq))), 0, memo)

    for _ in range(data.draw(st.integers(1, 4))):
        order = data.draw(st.integers(1, 5))
        if data.draw(st.booleans()):
            seq = tuple(data.draw(st.lists(ref, min_size=order, max_size=order)))
            assert repr(table.cumulant(seq)) == repr(oracle(seq)), seq
            continue
        k = data.draw(st.integers(0, min(order, 3)))
        head = tuple(data.draw(st.lists(ref, min_size=order - k, max_size=order - k)))
        box = data.draw(st.permutations(law.sites))
        tensor = table.cumulant_tensor(tuple(zip(head)), k, box)
        for x, got in zip(itertools.product(box, repeat=k), tensor.tolist()):
            seq = head + tuple(map(SiteRef, x))
            assert repr(got) == repr(oracle(seq)), seq
    assert table._fill.whole == 0


@pytest.mark.parametrize("make", [
    lambda: random_discrete_field(np.random.default_rng(11), sites=[0, 1, 2]),
    lambda: hide_bulk(random_discrete_field(np.random.default_rng(11), sites=[0, 1, 2])),
    lambda: sample_ensemble(sinc_coupling_example(), box=2, n_samples=300, seed=11),
], ids=["discrete", "hidden", "ensemble"])
def test_compound_recursion_keeps_singleton_sub_keys_flat(make):
    # a compound key's sub-keys of single field variables only are kept
    # under their flat key, the one cumulant reads: no memo entry is a
    # nested duplicate, and every value is the anchor-0 oracle's, which
    # runs the recursion over the nested keys
    provider = make()
    s0, s1, s2 = (SiteRef(s) for s in provider.sites[:3])
    table = CumulantTable(provider)
    compound = table.joint_cumulant(((s0,), (s1,), (s0,), (s1,), (s2, s2)))
    flat = table.cumulant((s0, s1, s0, s1))
    memo = {}
    assert compound == combinations_cumulant(
        provider, tuple(sorted(((s0,), (s1,), (s0,), (s1,), (s2, s2)), key=seq_sort_key)),
        0, memo)
    assert flat == combinations_cumulant(provider, tuple(zip(canonical((s0, s1, s0, s1)))),
                                         0, memo)
    for key, value in table._memo.items():
        if all(isinstance(item, SiteRef) for item in key):
            assert value == combinations_cumulant(provider, tuple(zip(key)), 0, memo), key
        else:
            assert not all(len(mono) == 1 for mono in key), key
            assert value == combinations_cumulant(provider, key, 0, memo), key
