"""Concrete random-field models backing the moment-provider interface.

Three families:

* :class:`FiniteDiscreteField` -- exact finite sample spaces, the brute-force
  oracle used throughout the tests;
* Gaussian covariance fields, including the translation-invariant spectral
  pair (psi, phi) on Z with cross-spectrum G-hat, and i.i.d. real/complex
  special cases;
* :class:`EnsembleEstimator` -- plug-in empirical moments from sampled
  realizations (bias O(1/N); k-statistics are out of scope).
"""

from __future__ import annotations

import cmath
import math
import numbers
import sys

import numpy as np

from .cumulants import MomentProvider
from .indexing import IndexSequence, SiteRef

DEFAULT_GRID = 4096


class PSDViolationError(ValueError):
    """Spectra fail the positive semi-definiteness conditions."""


def _as_ref(s) -> SiteRef:
    return s if isinstance(s, SiteRef) else SiteRef(s)


def _site_index(sites: tuple) -> dict:
    """The column of each site label; ValueError if a label repeats."""
    index = {s: i for i, s in enumerate(sites)}
    if len(index) != len(sites):
        repeated = sorted({repr(s) for s in sites if sites.count(s) > 1})
        raise ValueError(f"site labels must be distinct; repeated: {', '.join(repeated)}")
    return index


# ---------------------------------------------------------------------------
# exact finite distributions


class FiniteDiscreteField(MomentProvider):
    """Exact finite distribution over a handful of sites.

    ``atoms`` is a list of (probability, value-vector) pairs, one value per
    site; the sites are distinct and every number finite.  Every moment is
    a weighted sum over atoms, exact up to rounding.
    """

    max_order = 10

    def __init__(self, sites, atoms):
        self.sites = tuple(sites)
        self.atoms = tuple((float(p), tuple(complex(v) for v in values))
                           for p, values in atoms)
        self._index = _site_index(self.sites)
        # a NaN compares false, so it fails the range check too
        if not all(0 <= p <= 1 and all(map(cmath.isfinite, values))
                   for p, values in self.atoms):
            raise ValueError("atom probabilities must lie in [0, 1] and values be finite")
        total = sum(p for p, _ in self.atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"atom probabilities sum to {total}, not 1")
        for _, values in self.atoms:
            if len(values) != len(self.sites):
                raise ValueError("atom value vector length != number of sites")

    def _column(self, ref: SiteRef) -> tuple:
        """The value column of the ref's site, and whether to conjugate it."""
        try:
            return self._index[ref.site], ref.conj
        except KeyError:
            raise KeyError(f"unknown site {ref.site!r}") from None

    def _value(self, values, ref: SiteRef) -> complex:
        column, conj = self._column(ref)
        return values[column].conjugate() if conj else values[column]

    def moment(self, sequence: IndexSequence) -> complex:
        columns = [self._column(ref) for ref in sequence]
        total = 0.0 + 0.0j
        for p, values in self.atoms:
            prod = 1.0 + 0.0j
            for column, conj in columns:
                prod *= values[column].conjugate() if conj else values[column]
            total += p * prod
        return total

    def log_generating_function(self, lam: dict) -> complex:
        """ln E[e^(lam . y)]; keys may be site labels or SiteRefs."""
        total = 0.0 + 0.0j
        for p, values in self.atoms:
            expo = sum(t * self._value(values, _as_ref(s)) for s, t in lam.items())
            total += p * np.exp(expo)
        return complex(np.log(total))


def bernoulli_field(p: float, site=0) -> FiniteDiscreteField:
    return FiniteDiscreteField([site], [(1 - p, (0,)), (p, (1,))])


def rademacher_field(site=0) -> FiniteDiscreteField:
    return FiniteDiscreteField([site], [(0.5, (1,)), (0.5, (-1,))])


def random_discrete_field(rng, sites=None) -> FiniteDiscreteField:
    """Random real-valued finite field on four atoms; real atoms keep the
    field closed under conjugation, as the bound certifiers assume."""
    if sites is None:
        sites = list(range(rng.integers(1, 5)))
    n_atoms = 4
    probs = rng.random(n_atoms) + 0.05
    probs /= probs.sum()
    values = rng.uniform(-1.0, 1.0, size=(n_atoms, len(sites)))
    atoms = [(probs[i], tuple(values[i])) for i in range(n_atoms)]
    return FiniteDiscreteField(sites, atoms)


# ---------------------------------------------------------------------------
# Gaussian fields


class GaussianCovarianceField(MomentProvider):
    """Zero-mean jointly Gaussian field; moments are Isserlis pairing sums
    over a covariance kernel supplied by the subclass."""

    is_gaussian = True

    def covariance(self, a: SiteRef, b: SiteRef) -> complex:
        raise NotImplementedError

    def covariance_row(self, a: SiteRef, refs) -> np.ndarray:
        """[covariance(a, b) for b in refs] as a complex array; a subclass
        may vectorise it, entry for entry equal to ``covariance``."""
        return np.array([self.covariance(a, b) for b in refs], dtype=complex)

    def moment(self, sequence: IndexSequence) -> complex:
        n = len(sequence)
        if n == 0:
            return 1.0
        self.check_order(n)
        if n % 2 == 1:
            return 0.0
        return self._pairing_sum(tuple(sequence))

    def _pairing_sum(self, refs) -> complex:
        if not refs:
            return 1.0
        head, rest = refs[0], refs[1:]
        total = 0.0 + 0.0j
        for i, other in enumerate(rest):
            c = self.covariance(head, other)
            if c != 0:
                total += c * self._pairing_sum(rest[:i] + rest[i + 1:])
        return total


class IidRealGaussianField(GaussianCovarianceField):
    """Independent real N(0, variance) variables at every site."""

    translation_invariant = True

    def __init__(self, variance: float = 1.0):
        self.variance = variance

    def covariance(self, a: SiteRef, b: SiteRef) -> complex:
        return self.variance if a.site == b.site else 0.0

    def log_generating_function(self, lam: dict) -> complex:
        return 0.5 * self.variance * sum(t * t for t in lam.values())


class IidComplexGaussianField(GaussianCovarianceField):
    """Independent circularly symmetric complex Gaussians: E[|phi|^2] =
    variance, E[phi^2] = 0."""

    translation_invariant = True

    def __init__(self, variance: float = 1.0):
        self.variance = variance

    def covariance(self, a: SiteRef, b: SiteRef) -> complex:
        if a.site != b.site:
            return 0.0
        return self.variance if a.conj != b.conj else 0.0


def _torus_frequencies(n: int) -> np.ndarray:
    """The n grid frequencies j / n of the torus, folded into [-1/2, 1/2)."""
    k = np.arange(n) / n
    return np.where(k >= 0.5, k - 1.0, k)


def check_psd(f1_hat, f2_hat, g_hat, grid: int = DEFAULT_GRID) -> bool:
    """F1-hat >= 0, F2-hat >= 0 and |G-hat|^2 <= F1-hat * F2-hat on the grid,
    up to 1e-12."""
    tol = 1e-12
    k = _torus_frequencies(grid)
    f1 = np.asarray(f1_hat(k), dtype=float)
    f2 = np.asarray(f2_hat(k), dtype=float)
    g = np.asarray(g_hat(k))
    if np.min(f1) < -tol or np.min(f2) < -tol:
        return False
    return bool(np.max(np.abs(g) ** 2 - f1 * f2) <= tol)


class SpectralGaussianField(GaussianCovarianceField):
    """Translation-invariant zero-mean Gaussian pair (psi, phi) on Z.

    Sites are ("psi", x) or ("phi", x) with integer x; a moment or
    covariance of any other site is refused with ValueError.  Covariances are the
    inverse Fourier transforms of the spectra; the quadrature uses a uniform
    grid on the torus (one FFT yields the whole displacement table).  Closed
    forms, when supplied, take precedence over quadrature.
    """

    translation_invariant = True

    def __init__(self, f1_hat, f2_hat, g_hat, grid: int = DEFAULT_GRID,
                 closed_forms: dict | None = None, name: str = "spectral-gaussian"):
        if not check_psd(f1_hat, f2_hat, g_hat, grid=grid):
            raise PSDViolationError(
                "spectra violate F1>=0, F2>=0, |G|^2 <= F1*F2 on the grid")
        self.f1_hat = f1_hat
        self.f2_hat = f2_hat
        self.g_hat = g_hat
        self.grid = grid
        self.closed_forms = dict(closed_forms or {})
        self.name = name
        self._tables = {}
        self._pairs = {}

    # spectra by pair key
    def _spectrum(self, which):
        return {"psipsi": self.f1_hat, "phiphi": self.f2_hat,
                "psiphi": self.g_hat}[which]

    def _table(self, which) -> np.ndarray:
        tab = self._tables.get(which)
        if tab is None:
            k = _torus_frequencies(self.grid)
            tab = np.fft.ifft(np.asarray(self._spectrum(which)(k), dtype=complex))
            self._tables[which] = tab
        return tab

    def covariance_profile(self, which, displacements) -> np.ndarray:
        """Covariance at integer displacements, vectorized."""
        displacements = np.asarray(displacements)
        fn = self.closed_forms.get(which)
        if fn is not None:
            return fn(displacements)
        reach = int(np.max(np.abs(displacements)))
        if reach >= self.grid // 2:
            raise ValueError(f"quadrature grid {self.grid} is too small for "
                             f"displacement {reach}: it needs at least {2 * reach + 2}")
        tab = self._table(which)
        vals = tab[np.mod(displacements, self.grid)]
        return np.real_if_close(vals, tol=1e6)

    def pair_covariance(self, which, displacement) -> complex:
        """Covariance of the selected pair ("psipsi", "phiphi" or "psiphi")
        at a lattice displacement, memoised per (which, displacement)."""
        key = (which, displacement)
        value = self._pairs.get(key)
        if value is None:
            value = self._pairs[key] = complex(
                self.covariance_profile(which, np.asarray([displacement]))[0])
        return value

    def moment(self, sequence: IndexSequence) -> complex:
        # an odd moment is 0 without a covariance, which checks the sites
        for ref in sequence:
            _spectral_site(ref)
        return super().moment(sequence)

    def covariance(self, a: SiteRef, b: SiteRef) -> complex:
        # real-valued fields: the conjugation flags are inert
        comp_a, x = _spectral_site(a)
        comp_b, y = _spectral_site(b)
        which, sign = _PAIR_TYPES[comp_a, comp_b]
        return self.pair_covariance(which, sign * (x - y))

    def covariance_row(self, a: SiteRef, refs) -> np.ndarray:
        """[covariance(a, b) for b in refs] with one ``covariance_profile``
        call per pair type; each entry equals ``pair_covariance``, which
        drops a small imaginary part of a quadrature value entry by entry."""
        comp_a, x = _spectral_site(a)
        groups = {"psi": ([], []), "phi": ([], [])}  # positions and coordinates
        for i, ref in enumerate(refs):
            comp, y = _spectral_site(ref)
            at, ys = groups[comp]
            at.append(i)
            ys.append(y)
        row = np.empty(len(refs), dtype=complex)
        for comp_b, (at, ys) in groups.items():
            if not at:
                continue
            which, sign = _PAIR_TYPES[comp_a, comp_b]
            values = self.covariance_profile(which, sign * (x - np.asarray(ys)))
            if which not in self.closed_forms:
                values = np.where(np.absolute(values.imag) < _REAL_TOL, values.real, values)
            row[at] = values
        return row


#: (pair type, sign of x - y) of the covariance of a ("comp_a", x) and a
#: ("comp_b", y) site
_PAIR_TYPES = {("psi", "psi"): ("psipsi", 1), ("phi", "phi"): ("phiphi", 1),
               ("psi", "phi"): ("psiphi", 1), ("phi", "psi"): ("psiphi", -1)}

#: np.real_if_close(values, tol=1e6) makes values real when every imaginary
#: part is below this
_REAL_TOL = np.finfo(float).eps * 1e6


def _spectral_site(ref: SiteRef) -> tuple:
    """The (component, coordinate) of a site of a spectral pair; ValueError
    naming the site unless it is ("psi" or "phi", an integer)."""
    site = ref.site
    if not (isinstance(site, tuple) and len(site) == 2 and site[0] in ("psi", "phi")
            and (type(site[1]) is int  # the common case, without the ABC check
                 or isinstance(site[1], numbers.Integral) and not isinstance(site[1], bool))):
        raise ValueError(f"site {site!r} of a spectral pair is not "
                         f"('psi' or 'phi', an integer coordinate)")
    return site


def _sinc_g(x):
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        vals = np.sin(0.5 * np.pi * x) / (np.pi * x)
    return np.where(x == 0, 0.5, vals)


def sinc_coupling_example(grid: int = DEFAULT_GRID) -> SpectralGaussianField:
    """The i.i.d. pair with cross-spectrum the indicator of |k| < 1/4.

    F1-hat = F2-hat = 1 (i.i.d. unit variance), G(x) = sin(pi x / 2)/(pi x)
    with G(0) = 1/2; the PSD condition holds with zero margin.
    """
    delta = lambda x: np.where(np.asarray(x) == 0, 1.0, 0.0)
    return SpectralGaussianField(
        f1_hat=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        f2_hat=lambda k: np.ones_like(np.asarray(k, dtype=float)),
        g_hat=lambda k: (np.abs(np.asarray(k, dtype=float)) < 0.25).astype(float),
        grid=grid,
        closed_forms={"psipsi": delta, "phiphi": delta, "psiphi": _sinc_g},
        name="sinc-coupling",
    )


# ---------------------------------------------------------------------------
# spectral sampling and empirical moments


def _hermitian_unit_modes(rng, shape):
    """Complex Gaussian modes z(k) with z(-k) = z(k)* and unit variance,
    so the inverse FFT of sqrt(spectrum)-weighted modes is real."""
    n_samples, length = shape
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    idx = (-np.arange(length)) % length
    z = (z + np.conj(z[:, idx])) / math.sqrt(2)
    return z


def sample_field_pair(field: SpectralGaussianField, length: int, n_samples: int,
                      rng) -> tuple[np.ndarray, np.ndarray]:
    """Draw (psi, phi) realizations on a periodic box of ``length`` sites.

    Per discrete mode the 2x2 spectral matrix [[F1, G], [G, F2]] is factored
    (Cholesky-style, robust to the semi-definite boundary) and applied to two
    independent hermitian-symmetric unit mode fields.
    """
    k = _torus_frequencies(length)
    f1 = np.asarray(field.f1_hat(k), dtype=float)
    f2 = np.asarray(field.f2_hat(k), dtype=float)
    g = np.asarray(field.g_hat(k), dtype=float)
    # lower-triangular factor of [[f1, g], [g, f2]] per mode
    a11 = np.sqrt(np.maximum(f1, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        a21 = np.where(a11 > 0, g / np.where(a11 > 0, a11, 1.0), 0.0)
    a22 = np.sqrt(np.maximum(f2 - a21 ** 2, 0.0))
    z1 = _hermitian_unit_modes(rng, (n_samples, length))
    z2 = _hermitian_unit_modes(rng, (n_samples, length))
    scale = math.sqrt(length)
    psi = np.fft.ifft(scale * a11 * z1, axis=1).real
    phi = np.fft.ifft(scale * (a21 * z1 + a22 * z2), axis=1).real
    return psi, phi


class EnsembleEstimator(MomentProvider):
    """Plug-in empirical moments from a matrix of realizations.

    ``samples`` has shape (count, n_sites), one realization per row; it must
    have at least one row and only finite entries, and the site labels must
    be distinct.  Estimated moments converge to the provider moments at the
    Monte Carlo rate O(N^-1/2).

    The samples are kept once, as C-contiguous columns of shape
    (n_sites, count) in float64, or complex128 for complex samples;
    ``samples`` is the transposed view of them.  A moment multiplies every
    column of the sequence but the last left to right in that dtype,
    conjugating only complex columns.  For real samples the last factor and
    the sum are one ``einsum`` with that product, and an order-1 moment is
    the real pairwise sum of its column.  For complex samples the last
    factor goes into a complex buffer that numpy's complex pairwise
    summation adds up, so such a moment is bit-identical to the mean of a
    complex running product from 1.  A standard error is taken from the
    full product in that complex buffer, the last factor written into its
    real view for real samples, so it is bit-identical to that running
    product's standard error for every kind of sample.  No reduction calls
    BLAS, so no result depends on its thread count.

    The products of the prefixes of the last sequence are kept, one buffer
    per prefix length, and a new sequence starts from the longest prefix it
    shares with the last one.  These buffers make an estimator unsafe to
    share across threads.
    """

    def __init__(self, sites, samples: np.ndarray):
        self.sites = tuple(sites)
        samples = np.asarray(samples)
        if samples.ndim != 2 or samples.shape[1] != len(self.sites):
            raise ValueError("samples must be (count, n_sites)")
        if samples.shape[0] == 0:
            raise ValueError("samples must hold at least one realization")
        dtype = complex if np.iscomplexobj(samples) else float
        self._columns = np.ascontiguousarray(samples.T, dtype=dtype)
        # NaN propagates through min and max, and an infinite entry is one
        # of them, so two reductions check every entry without a mask array
        values = self._columns.view(float)
        if not (np.isfinite(values.min()) and np.isfinite(values.max())):
            raise ValueError("samples must be finite, not NaN or inf")
        self._index = _site_index(self.sites)
        self._complex = dtype is complex
        # _prefix's state: the first n - 1 references of the last sequence
        # and the products of its prefixes of length 2, 3, ...; _product's
        # complex buffer, allocated on first use
        self._path = ()
        self._prefixes = []
        self._out = None

    @property
    def samples(self) -> np.ndarray:
        """The (count, n_sites) realizations, a view of the stored columns."""
        return self._columns.T

    @property
    def count(self) -> int:
        return self._columns.shape[1]

    def _column(self, ref: SiteRef) -> np.ndarray:
        col = self._columns[self._index[ref.site]]
        return np.conj(col) if ref.conj and self._complex else col

    def _prefix(self, sequence: IndexSequence) -> np.ndarray:
        """The product of every column of the sequence but the last, n >= 2,
        in a buffer that a later call may overwrite.

        The prefix products of length 2 to n - 1 go to buffers allocated on
        first use and kept for the next sequence, which starts from the
        longest prefix it shares with this one.  The path is cut to the
        shared prefix before any buffer is written, so a call that fails
        part-way leaves no stale prefix behind.
        """
        n = len(sequence)
        path, prefixes = self._path, self._prefixes
        shared = 0
        for known, ref in zip(path, sequence[:n - 1]):
            if known != ref:
                break
            shared += 1
        self._path = path[:shared]
        prod = prefixes[shared - 2] if shared >= 2 else self._column(sequence[0])
        for j in range(max(shared, 1), n - 1):
            if j > len(prefixes):
                prefixes.append(np.empty(self.count, dtype=self._columns.dtype))
            prod = np.multiply(prod, self._column(sequence[j]), out=prefixes[j - 1])
        self._path = tuple(sequence[:n - 1])
        return prod

    def _product(self, sequence: IndexSequence) -> np.ndarray:
        """The product of the sequence's columns as a complex array, in a
        buffer that the next call overwrites."""
        if self._out is None:
            self._out = np.zeros(self.count, dtype=complex)
        out = self._out
        n = len(sequence)
        if n == 0:
            out.fill(1)
            return out
        last = out if self._complex else out.real
        if n == 1:
            np.copyto(last, self._column(sequence[0]))
        else:
            np.multiply(self._prefix(sequence), self._column(sequence[-1]), out=last)
        return out

    def moment(self, sequence: IndexSequence) -> complex:
        if not sequence:
            return 1.0
        if self._complex:
            # the mean as numpy's _methods._mean takes it, without its Python layer
            return complex(np.add.reduce(self._product(sequence)) / self.count)
        last = self._column(sequence[-1])
        if len(sequence) == 1:
            return complex(np.add.reduce(last) / self.count)
        # one pass over both arrays, no temporary; einsum, not BLAS
        return complex(np.einsum("i,i->", self._prefix(sequence), last) / self.count)

    def moment_standard_error(self, sequence: IndexSequence) -> float:
        return float(np.std(self._product(sequence)) / math.sqrt(self.count))


def sample_ensemble(field: SpectralGaussianField, box: int, n_samples: int,
                    seed: int) -> EnsembleEstimator:
    """Spectral Monte Carlo ensemble of the (psi, phi) pair on a periodic box.

    Deterministic given the seed.  Site labels are ("psi", x) and ("phi", x)
    for x in range(box).
    """
    if n_samples < 2:
        raise ValueError("need at least 2 samples")
    rng = np.random.default_rng(seed)
    psi, phi = sample_field_pair(field, box, n_samples, rng)
    sites = [("psi", x) for x in range(box)] + [("phi", x) for x in range(box)]
    # stacked as columns, so the estimator keeps this array and copies none;
    # psi and phi are views that keep their complex FFT outputs alive
    columns = np.concatenate([psi.T, phi.T])
    del psi, phi
    return EnsembleEstimator(sites, columns.T)


# ---------------------------------------------------------------------------
# config files


def reject_unknown_keys(cfg: dict, known: set) -> None:
    """ValueError naming every key of ``cfg`` outside ``known``."""
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")


def is_finite_number(value) -> bool:
    """True for a real number in float range that is not a bool.

    The bound, not math.isfinite, so a huge int is refused, not raised."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


#: spectrum name -> (the keys it reads, builder)
_SPECTRA = {
    "flat": ({"name", "value"},
             lambda params: (lambda k: np.full_like(np.asarray(k, dtype=float),
                                                    params.get("value", 1.0)))),
    "band": ({"name", "height", "halfwidth"},
             lambda params: (lambda k: params.get("height", 1.0) *
                             (np.abs(np.asarray(k, dtype=float)) <
                              params.get("halfwidth", 0.25)).astype(float))),
    "zero": ({"name"},
             lambda params: (lambda k: np.zeros_like(np.asarray(k, dtype=float)))),
}


def spectrum_from_config(cfg: dict):
    if not isinstance(cfg, dict):
        raise ValueError(f"a spectrum must be an object with a 'name', "
                         f"not {cfg!r}")
    name = cfg.get("name")
    if not (isinstance(name, str) and name in _SPECTRA):
        raise ValueError(f"unknown spectrum {name!r}; "
                         f"choose one of {sorted(_SPECTRA)}")
    keys, builder = _SPECTRA[name]
    reject_unknown_keys(cfg, keys)
    for key in sorted(set(cfg) - {"name"}):
        value = cfg[key]
        if not is_finite_number(value):
            raise ValueError(f"{key} must be a finite number, not {value!r}")
    return builder(cfg)


#: the keys the sinc_coupling model reads; the spectral model reads more
_SINC_KEYS = {"model", "grid", "dimension"}


def field_from_config(cfg: dict) -> SpectralGaussianField:
    """Build a spectral Gaussian field from a declarative config dict."""
    model = cfg.get("model", "spectral")
    grid = cfg.get("grid", DEFAULT_GRID)
    if isinstance(grid, bool) or not isinstance(grid, numbers.Integral) or grid < 1:
        raise ValueError(f"grid must be an integer >= 1, not {grid!r}")
    dimension = cfg.get("dimension", 1)
    if isinstance(dimension, bool) or not isinstance(dimension, numbers.Integral):
        raise ValueError(f"dimension must be an integer, not {dimension!r}")
    if dimension != 1:
        raise ValueError("only dimension 1 spectral fields are supported")
    if model == "sinc_coupling":
        reject_unknown_keys(cfg, _SINC_KEYS)
        return sinc_coupling_example(grid=grid)
    if model != "spectral":
        raise ValueError(f"unknown field model {model!r}")
    reject_unknown_keys(cfg, _SINC_KEYS | {"f1", "f2", "g", "name"})
    missing = [key for key in ("f1", "f2", "g") if key not in cfg]
    if missing:
        raise ValueError(f"missing key(s) {', '.join(map(repr, missing))}")
    name = cfg.get("name", "spectral-gaussian")
    if not isinstance(name, str):
        raise ValueError(f"name must be a string, not {name!r}")
    return SpectralGaussianField(
        f1_hat=spectrum_from_config(cfg["f1"]),
        f2_hat=spectrum_from_config(cfg["f2"]),
        g_hat=spectrum_from_config(cfg["g"]),
        grid=grid,
        name=name,
    )

