import functools
import math
import operator
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wickfield.clustering import clustering_norm
from wickfield.cumulants import CumulantTable, cumulant
from wickfield.fields import (
    EnsembleEstimator,
    FiniteDiscreteField,
    IidComplexGaussianField,
    IidRealGaussianField,
    PSDViolationError,
    SpectralGaussianField,
    check_psd,
    field_from_config,
    sample_ensemble,
    sinc_coupling_example,
    spectrum_from_config,
)
from wickfield.indexing import SiteRef

from conftest import (
    complex_product_moment,
    complex_product_standard_error,
    real_product_moment,
    refs,
)


# --- exact finite distributions -------------------------------------------

def test_discrete_validation():
    with pytest.raises(ValueError):
        FiniteDiscreteField([0], [(0.5, (1,)), (0.6, (0,))])  # sums to 1.1
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        FiniteDiscreteField([0], [(-0.1, (1,)), (1.1, (0,))])
    with pytest.raises(ValueError):
        FiniteDiscreteField([0, 1], [(1.0, (1,))])  # wrong vector length


def test_discrete_rejects_repeated_sites():
    # with two columns for site 0, E[y_0] used to read the second one
    with pytest.raises(ValueError, match="site labels must be distinct; repeated: 0"):
        FiniteDiscreteField([0, 0], [(0.5, (1, 2)), (0.5, (3, 10))])


@pytest.mark.parametrize("atoms", [
    [(math.nan, (1,)), (1.0, (0,))],
    [(math.inf, (1,)), (0.0, (0,))],
    [(0.5, (math.nan,)), (0.5, (1,))],
    [(0.5, (-math.inf,)), (0.5, (1,))],
    [(0.5, (complex(1.0, math.nan),)), (0.5, (1,))],
], ids=["nan-probability", "inf-probability", "nan-value", "minus-inf-value",
        "complex-nan-value"])
def test_discrete_rejects_non_finite_atoms(atoms):
    # a NaN probability passed the sum check and made every moment NaN
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\] and values be finite"):
        FiniteDiscreteField([0], atoms)


def test_discrete_moments_exact():
    f = FiniteDiscreteField([0, 1], [(0.25, (1, 2)), (0.75, (-1, 0))])
    assert f.moment(()) == 1
    assert f.moment(refs(0)) == pytest.approx(0.25 - 0.75)
    assert f.moment(refs(0, 1)) == pytest.approx(0.25 * 2)
    assert f.moment(refs(1, 1)) == pytest.approx(0.25 * 4)


def test_discrete_conjugation():
    f = FiniteDiscreteField([0], [(0.5, (1j,)), (0.5, (-1j,))])
    assert f.moment((SiteRef(0), SiteRef(0, True))) == pytest.approx(1.0)
    assert f.moment(refs(0, 0)) == pytest.approx(-1.0)


def test_discrete_unknown_site():
    f = FiniteDiscreteField([0], [(1.0, (1,))])
    with pytest.raises(KeyError, match="unknown site 99"):
        f.moment(refs(99))
    with pytest.raises(KeyError, match="unknown site 99"):
        f.moment((SiteRef(0), SiteRef(99, True)))


def _atom_by_atom_moment(field, sequence):
    """E[y^I] as a running product from 1 per atom, looking every ref's
    value up in turn, added atom by atom."""
    total = 0.0 + 0.0j
    for p, values in field.atoms:
        prod = 1.0 + 0.0j
        for ref in sequence:
            v = values[field.sites.index(ref.site)]
            prod *= v.conjugate() if ref.conj else v
        total += p * prod
    return total


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("conjugates", [False, True], ids=["plain", "conjugated"])
def test_discrete_moment_equals_atom_by_atom_product(seed, conjugates):
    rng = np.random.default_rng(seed)
    sites = ["a", "b", "c", "d"]
    probs = rng.random(5) + 0.05
    probs /= probs.sum()
    values = rng.uniform(-1, 1, (5, len(sites))) + 1j * rng.uniform(-1, 1, (5, len(sites)))
    f = FiniteDiscreteField(sites, [(q, tuple(v)) for q, v in zip(probs, values)])
    for order in range(0, 9):
        for _ in range(6):
            labels = rng.integers(0, len(sites), order)
            conj = rng.integers(0, 2, order) if conjugates else [0] * order
            seq = tuple(SiteRef(sites[i], bool(c)) for i, c in zip(labels, conj))
            assert f.moment(seq) == _atom_by_atom_moment(f, seq), seq


# --- Gaussian moment providers --------------------------------------------

def test_isserlis_moments():
    f = IidRealGaussianField(variance=2.0)
    assert f.moment(refs(0)) == 0
    assert f.moment(refs(0, 0)) == pytest.approx(2.0)
    assert f.moment(refs(0, 0, 0)) == 0
    assert f.moment(refs(0, 0, 0, 0)) == pytest.approx(3 * 4.0)
    assert f.moment(refs(0, 0, 0, 0, 0, 0)) == pytest.approx(15 * 8.0)


def test_isserlis_cross_site():
    f = IidRealGaussianField()
    assert f.moment(refs(0, 1)) == 0
    assert f.moment(refs(0, 0, 1, 1)) == pytest.approx(1.0)


def test_complex_iid_covariances():
    f = IidComplexGaussianField()
    assert f.covariance(SiteRef(0, True), SiteRef(0)) == pytest.approx(1.0)
    assert f.covariance(SiteRef(0), SiteRef(0)) == 0
    assert f.covariance(SiteRef(0, True), SiteRef(1)) == 0
    # E[|phi|^4] = 2 for a standard circular complex Gaussian
    seq = (SiteRef(0, True), SiteRef(0), SiteRef(0, True), SiteRef(0))
    assert f.moment(seq) == pytest.approx(2.0)


def test_gaussian_higher_cumulants_vanish():
    f = IidRealGaussianField()
    for order in (1, 3, 4, 5, 6):
        assert cumulant(f, refs(*([0] * order))) == 0


# --- spectral pair ---------------------------------------------------------

def test_psd_check_accepts_band_coupling():
    f = sinc_coupling_example()
    assert check_psd(f.f1_hat, f.f2_hat, f.g_hat)


def test_psd_check_rejects_overcoupling():
    one = lambda k: np.ones_like(np.asarray(k, dtype=float))
    big = lambda k: 2.0 * np.ones_like(np.asarray(k, dtype=float))
    assert not check_psd(one, one, big)
    with pytest.raises(PSDViolationError):
        SpectralGaussianField(one, one, big)


def test_sinc_closed_form_covariances():
    f = sinc_coupling_example()
    assert f.pair_covariance("psipsi", 0) == pytest.approx(1.0)
    assert f.pair_covariance("psipsi", 3) == pytest.approx(0.0, abs=1e-12)
    assert f.pair_covariance("phiphi", 0) == pytest.approx(1.0)
    assert f.pair_covariance("psiphi", 0) == pytest.approx(0.5)
    assert f.pair_covariance("psiphi", 1) == pytest.approx(1 / math.pi)
    assert f.pair_covariance("psiphi", 2) == pytest.approx(0.0, abs=1e-12)
    assert f.pair_covariance("psiphi", -3) == pytest.approx(-1 / (3 * math.pi))


def test_sinc_quadrature_matches_closed_form():
    f = SpectralGaussianField(
        f1_hat=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        f2_hat=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        g_hat=lambda k: (np.abs(np.asarray(k, dtype=float)) < 0.25).astype(float),
        grid=1 << 14,
    )
    for x in (0, 1, 2, 5, -7):
        want = 0.5 if x == 0 else math.sin(math.pi * x / 2) / (math.pi * x)
        got = f._table("psiphi")[x % f.grid]
        # band-edge discretization error is O(1/grid)
        assert got == pytest.approx(want, abs=2.0 / f.grid)


def test_covariance_component_resolution():
    f = sinc_coupling_example()
    table = CumulantTable(f)
    a, b = SiteRef(("psi", 0), True), SiteRef(("phi", 1))
    assert table.cumulant((a, b)) == pytest.approx(1 / math.pi)
    # G is even, so both orientations agree at displacement 1
    c, d = SiteRef(("phi", 0), True), SiteRef(("psi", 1))
    assert table.cumulant((c, d)) == pytest.approx(1 / math.pi)
    assert f.pair_covariance("psiphi", 1) == pytest.approx(1 / math.pi)


def test_pair_covariance_memo_keeps_values_and_grid_error():
    # a memoised covariance is the profile's value, and a displacement past
    # the quadrature grid raises on every lookup, since a miss is not kept
    f = SpectralGaussianField(
        f1_hat=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        f2_hat=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        g_hat=lambda k: (np.abs(np.asarray(k, dtype=float)) < 0.25).astype(float),
        grid=64,
    )
    for x in (0, 1, -3, 31, 1, 0):
        want = complex(f.covariance_profile("psiphi", np.asarray([x]))[0])
        assert f.pair_covariance("psiphi", x) == want
    for _ in range(2):
        with pytest.raises(ValueError, match="quadrature grid 64 is too small"):
            f.pair_covariance("psiphi", 32)


def _skewed_pair(grid: int = 256) -> SpectralGaussianField:
    """A quadrature pair whose cross spectrum is not even, so the cross
    covariances are complex and np.real_if_close keeps a profile of them
    complex, while a lone displacement with a small imaginary part (0)
    is made real."""
    ones = lambda k: np.ones_like(np.asarray(k, dtype=float))
    return SpectralGaussianField(
        f1_hat=ones, f2_hat=ones,
        g_hat=lambda k: ((np.asarray(k, dtype=float) >= 0)
                         & (np.asarray(k, dtype=float) < 0.25)).astype(float),
        grid=grid, name="skewed")


#: fields whose vectorised covariance row must equal scalar covariances
_ROW_FIELDS = {
    "sinc": lambda: sinc_coupling_example(),
    "quadrature": lambda: field_from_config({
        "grid": 1024, "f1": {"name": "flat"},
        "f2": {"name": "band", "height": 1.5, "halfwidth": 0.3},
        "g": {"name": "band", "halfwidth": 0.2}}),
    "skewed": _skewed_pair,
}


@pytest.mark.parametrize("name", sorted(_ROW_FIELDS))
def test_covariance_row_equals_scalar_covariance(name):
    # a box of psi and phi sites out of order, conjugates among them, so a
    # row grouped by pair type must scatter its values back in box order
    f = _ROW_FIELDS[name]()
    box = [SiteRef(("phi", 3)), SiteRef(("psi", -2), True), SiteRef(("psi", 0)),
           SiteRef(("phi", -7)), SiteRef(("phi", 0), True), SiteRef(("psi", 5)),
           SiteRef(("psi", 3))]
    for a in box + [SiteRef(("psi", 40)), SiteRef(("phi", -1), True)]:
        row = f.covariance_row(a, box)
        assert row.dtype == complex and row.shape == (len(box),)
        assert row.tolist() == [complex(f.covariance(a, b)) for b in box]


def test_skewed_covariance_row_drops_small_imaginary_parts_entry_by_entry():
    f = _skewed_pair()
    box = [SiteRef(("phi", x)) for x in range(-3, 4)]
    assert np.iscomplexobj(f.covariance_profile("psiphi", np.arange(3, -4, -1)))
    row = f.covariance_row(SiteRef(("psi", 0)), box)
    assert row[3].imag == 0.0 and np.count_nonzero(row.imag) > 0
    assert row.tolist() == [f.pair_covariance("psiphi", -x) for x in range(-3, 4)]


@pytest.mark.parametrize("site", [("chi", 1), ("psi",), ("psi", 0, 1), 3, ("Psi", 0)])
def test_spectral_covariance_refuses_an_unknown_component(site):
    # ("chi", 1) used to be read as ("phi", 1)
    f = sinc_coupling_example()
    message = re.escape(repr(site))
    with pytest.raises(ValueError, match=message):
        f.covariance(SiteRef(("psi", 0)), SiteRef(site))
    with pytest.raises(ValueError, match=message):
        f.covariance(SiteRef(site), SiteRef(("phi", 0)))
    with pytest.raises(ValueError, match=message):
        f.covariance_row(SiteRef(("psi", 0)), [SiteRef(("phi", 0)), SiteRef(site)])
    with pytest.raises(ValueError, match=message):
        f.covariance_row(SiteRef(site), [SiteRef(("phi", 0))])
    for order in (1, 2, 3):
        with pytest.raises(ValueError, match=message):
            f.moment((SiteRef(site),) * order)


@pytest.mark.parametrize("x", [0.5, 1.0, True, "1", None])
def test_spectral_covariance_refuses_a_coordinate_that_is_not_an_integer(x):
    # ("psi", 0.5) used to give a moment of 0j with closed forms and an
    # IndexError through quadrature
    site = ("psi", x)
    message = re.escape(repr(site))
    for f in (sinc_coupling_example(), _ROW_FIELDS["quadrature"]()):
        with pytest.raises(ValueError, match=message):
            f.covariance(SiteRef(("psi", 0)), SiteRef(site))
        for order in (1, 2, 3):
            with pytest.raises(ValueError, match=message):
                f.moment((SiteRef(site),) * order)
        with pytest.raises(ValueError, match=message):
            f.covariance_row(SiteRef(("phi", 0)), [SiteRef(("psi", 1)), SiteRef(site)])
        with pytest.raises(ValueError, match=message):
            f.covariance_row(SiteRef(site), [SiteRef(("phi", 0))])
    # numpy integers are integers
    f = sinc_coupling_example()
    assert f.covariance(SiteRef(("psi", np.int64(1))), SiteRef(("phi", 0))) == \
        f.covariance(SiteRef(("psi", 1)), SiteRef(("phi", 0)))


@pytest.mark.parametrize("name", sorted(_ROW_FIELDS))
def test_gaussian_walk_calls_covariance_profile_once_per_pair_type(name, monkeypatch):
    f = _ROW_FIELDS[name]()
    calls = []
    profile = SpectralGaussianField.covariance_profile
    monkeypatch.setattr(SpectralGaussianField, "covariance_profile",
                        lambda self, which, d: calls.append(which) or profile(self, which, d))
    # translation invariant: one anchor, ("psi", 2), and its walk over a box
    # of both components
    box = [("psi", 2)] + [(comp, x) for x in range(-30, 31) for comp in ("phi", "psi")
                          if (comp, x) != ("psi", 2)]
    table = CumulantTable(f)
    norm = clustering_norm(f, 2, 1, box, table=table)
    assert sorted(calls) == ["psiphi", "psipsi"]
    walk = [f.covariance(SiteRef(box[0]), SiteRef(s)) for s in box]
    assert norm == functools.reduce(operator.add, map(abs, walk), 0.0)


def test_covariance_profile_vectorized():
    f = sinc_coupling_example()
    xs = np.arange(-5, 6)
    prof = f.covariance_profile("psiphi", xs)
    for x, v in zip(xs, prof):
        assert v == pytest.approx(f.pair_covariance("psiphi", int(x)))


# --- sampling --------------------------------------------------------------

def test_sample_ensemble_deterministic():
    f = sinc_coupling_example()
    a = sample_ensemble(f, box=16, n_samples=100, seed=5)
    b = sample_ensemble(f, box=16, n_samples=100, seed=5)
    assert np.array_equal(a.samples, b.samples)
    c = sample_ensemble(f, box=16, n_samples=100, seed=6)
    assert not np.array_equal(a.samples, c.samples)


def test_sample_ensemble_covariances_within_error():
    f = sinc_coupling_example()
    est = sample_ensemble(f, box=64, n_samples=4000, seed=11)
    pairs = [
        ((("psi", 0), ("psi", 0)), 1.0),
        ((("phi", 3), ("phi", 3)), 1.0),
        ((("psi", 0), ("phi", 0)), 0.5),
        ((("psi", 0), ("phi", 1)), 1 / math.pi),
    ]
    for (sa, sb), want in pairs:
        seq = (SiteRef(sa, True), SiteRef(sb))
        got = est.moment(seq).real
        se = est.moment_standard_error(seq)
        assert abs(got - want) < 5 * se + 1e-3


def test_ensemble_estimator_moment_plugin():
    samples = np.array([[1.0], [3.0]])
    est = EnsembleEstimator(["a"], samples)
    assert est.moment((SiteRef("a"),)) == pytest.approx(2.0)
    assert est.moment((SiteRef("a"), SiteRef("a"))) == pytest.approx(5.0)


def _sample_matrix(rng, kind, count, n_sites):
    if kind == "integer":
        return rng.integers(-3, 4, size=(count, n_sites))
    real = rng.normal(size=(count, n_sites))
    if kind == "float32":
        return real.astype(np.float32)
    if kind == "complex":
        return real + 1j * rng.normal(size=(count, n_sites))
    return real


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["real", "complex", "integer", "float32"])
def test_moment_equals_complex_running_product(kind, seed):
    # the estimator multiplies in the samples' dtype; a moment of real
    # samples equals the real running product's einsum with the last column
    # bit for bit, and a moment of complex samples and every standard error
    # equal the complex running product's
    rng = np.random.default_rng(seed)
    sites = ["a", "b", "c"]
    samples = _sample_matrix(rng, kind, 1000, len(sites))
    est = EnsembleEstimator(sites, samples)
    a, b = SiteRef("a"), SiteRef("b", True)
    sequences = [(a,), (b,), (b, b), (a, b, a, b), (b,) * 6]
    for order in range(1, 7):
        for _ in range(8):
            labels = rng.integers(0, len(sites), order)
            conj = rng.integers(0, 2, order)
            sequences.append(tuple(SiteRef(sites[i], bool(c))
                                   for i, c in zip(labels, conj)))
    oracle = complex_product_moment if kind == "complex" else real_product_moment
    for seq in sequences:
        assert est.moment(seq) == oracle(samples, sites, seq), seq
        assert est.moment_standard_error(seq) == \
            complex_product_standard_error(samples, sites, seq), seq
    # the product never writes into the stored columns
    assert np.array_equal(est.samples, samples)


@pytest.mark.parametrize("kind", ["real", "complex"])
def test_prefix_products_never_go_stale(kind):
    # sequences that share a prefix and then diverge, shrink, grow, drop to
    # order 1 and to the empty sequence, asked of two estimators in turn:
    # each answer is the oracle's, so no kept prefix product outlives the
    # path it belongs to, and the estimators share no buffer; a real moment
    # is the answer of a fresh estimator, which keeps no prefix product
    rng = np.random.default_rng(7)
    sites = ["a", "b", "c", "d"]
    a, b, c, d = (SiteRef(s) for s in sites)
    bc, dc = SiteRef("b", True), SiteRef("d", True)
    path = [
        (a, b, c, d), (a, b, c, a), (a, b, d, d, c), (a, b), (a, b, c, d, a, b),
        (a, bc, c), (a, b, c), (b,), (a, b, c, d, a), (), (a, b, c, d, a, c),
        (a, b, c, d, a, c), (a, b, c, dc, a, c), (bc, bc), (bc, bc, bc, a),
        (a,), (a, b, c, d), (c, b, a), (a, b, c, d, a, b, c, d),
    ]
    samples = [_sample_matrix(rng, kind, 200, len(sites)) for _ in range(2)]
    estimators = [EnsembleEstimator(sites, m) for m in samples]
    kept = [m.copy() for m in samples]

    def want(m, seq):
        if kind == "complex":
            return complex_product_moment(m, sites, seq)
        return EnsembleEstimator(sites, m).moment(seq)

    for seq in path:
        for est, m in zip(estimators, samples):
            assert est.moment(seq) == want(m, seq), seq
            assert est.moment_standard_error(seq) == \
                complex_product_standard_error(m, sites, seq), seq
    # a sequence that fails part-way leaves no stale prefix behind
    est, m = estimators[0], samples[0]
    est.moment((a, b, c, d))
    with pytest.raises(KeyError):
        est.moment((a, b, d, SiteRef("z"), c))
    for seq in [(a, b, c, d), (a, b, d, c), (a, b, d, a, c)]:
        assert est.moment(seq) == want(m, seq), seq
    for est, m, copy in zip(estimators, samples, kept):
        assert np.array_equal(est.samples, copy)
        assert np.array_equal(m, copy)


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["real", "integer", "float32"]),
       seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 3000),
       scale=st.integers(-30, 30),
       labels=st.lists(st.integers(0, 2), min_size=1, max_size=8))
def test_real_moment_is_within_a_summation_bound_of_the_exact_mean(
        kind, seed, count, scale, labels):
    # a bound that shares no code with the estimator: the correctly rounded
    # sum of the running product, against the worst-case rounding of any
    # summation order over count terms
    rng = np.random.default_rng(seed)
    sites = ["a", "b", "c"]
    samples = _sample_matrix(rng, kind, count, len(sites))
    if kind != "integer":
        samples = samples * samples.dtype.type(2.0 ** scale)
    est = EnsembleEstimator(sites, samples)
    seq = tuple(SiteRef(sites[i]) for i in labels)
    prod = np.ones(count)
    for i in labels:
        prod = prod * samples[:, i].astype(float)
    got = est.moment(seq)
    assert got.imag == 0.0
    exact = math.fsum(prod) / count
    assert abs(got.real - exact) <= count * 2.0 ** -52 * np.mean(np.abs(prod))


def test_estimator_keeps_column_major_samples_without_copy():
    est = sample_ensemble(sinc_coupling_example(), box=3, n_samples=50, seed=2)
    columns = np.ascontiguousarray(est.samples.T)
    kept = EnsembleEstimator(est.sites, columns.T)
    assert np.shares_memory(kept.samples, columns)
    assert est.samples.T.flags.c_contiguous


def test_ensemble_estimator_rejects_empty_ensemble():
    with pytest.raises(ValueError, match="at least one realization"):
        EnsembleEstimator(["a"], np.empty((0, 1)))


def test_ensemble_estimator_rejects_repeated_sites():
    with pytest.raises(ValueError, match="site labels must be distinct; repeated: 'a'"):
        EnsembleEstimator(["a", "b", "a"], np.zeros((4, 3)))
    # the shape is checked before the labels
    with pytest.raises(ValueError, match=r"samples must be \(count, n_sites\)"):
        EnsembleEstimator(["a", "a"], np.zeros((4, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1.0, np.nan),
                                 complex(0.0, -np.inf)],
                         ids=["nan", "inf", "minus-inf", "complex-nan", "complex-inf"])
def test_ensemble_estimator_rejects_non_finite_samples(bad):
    samples = np.ones((5, 2), dtype=type(bad))
    samples[3, 1] = bad
    with pytest.raises(ValueError, match="samples must be finite"):
        EnsembleEstimator(["a", "b"], samples)


# --- configs and export ----------------------------------------------------

def test_spectrum_from_config():
    flat = spectrum_from_config({"name": "flat", "value": 2.0})
    assert flat(np.array([0.0, 0.3]))[1] == pytest.approx(2.0)
    band = spectrum_from_config({"name": "band", "halfwidth": 0.1})
    assert band(np.array([0.05]))[0] == 1.0
    assert band(np.array([0.2]))[0] == 0.0
    with pytest.raises(ValueError):
        spectrum_from_config({"name": "nope"})


def test_field_from_config_round_trip(tmp_path):
    cfg = {
        "model": "spectral",
        "f1": {"name": "flat"},
        "f2": {"name": "flat"},
        "g": {"name": "band", "halfwidth": 0.25},
        "grid": 4096,
        "name": "configured",
    }
    f = field_from_config(cfg)
    assert f.pair_covariance("psiphi", 0) == pytest.approx(0.5, abs=2.0 / 4096)
    assert field_from_config({"model": "sinc_coupling"}).name == "sinc-coupling"
    with pytest.raises(ValueError):
        field_from_config({**cfg, "model": "mystery"})
    with pytest.raises(ValueError):
        field_from_config({**cfg, "dimension": 2})

