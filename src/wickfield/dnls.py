"""Desk-scale DNLS simulator on a periodic lattice.

The evolution  i d/dt psi = alpha * psi + lambda |psi|^2 psi  is integrated
by Strang splitting: the exact harmonic rotation e^{-i s alpha_hat} (the
kick) composed with the pointwise nonlinear phase e^{i theta}, theta =
-dt lambda |psi|^2.  The phase is formed from one tangent of the half
angle, t = tan(theta / 2), as ((1 - t^2) + 2 i t) / (1 + t^2): for |theta|
up to 1e6 it lies within 2 eps of cos theta + i sin theta, and its modulus
within 2 eps of 1.  Both sub-flows conserve the l2 norm, so conservation
holds to rounding per step.  Each step's trailing half kick is merged with
the next step's leading one.

alpha_hat is a sum over the lattice axes, so the kick is one symmetric
L x L circulant per axis, c[(j - k) mod L] with c = ifft(e^{-i s alpha_1}),
and ``evolve`` applies it in real space as one matmul per axis: no FFT runs
in the step loop.  Per site and axis the matmul does O(L) work where an FFT
does O(log L).  On one thread (32,768 sites, whole steps) the circulant
step took 0.6-0.8 of the FFT step's time at d = 1 for L = 16 to 48, about
as long at L = 64 (0.95-1.24), and 1.2-2.0 times as long at L = 128 and
256; at d = 2 it took 0.45-0.9 for L = 8 to 64, and at d = 3 0.36-0.52 for
L = 8 and 16.  The demo, the benchmark and the tests use L <= 32, so there
is one path, with no switch on L.

``evolve`` splits a large ensemble's members into contiguous chunks, one
per CPU the process may use, and steps each chunk on its own thread, with
BLAS held at one thread meanwhile so that its workers do not compete with
the other chunk.  Each member evolves alone, by the same operations in the
same order whichever chunk holds it.  A BLAS gemm gives a row the same bits
at every row count of two or more, but a one-row matmul goes to gemv,
which rounds differently; so a lone member is stepped beside a zero one
and every chunk holds at least two members.  The split therefore leaves
every bit unchanged, and so does the BLAS thread count.  At lambda = 0 the
flow is the harmonic rotation alone, and ``evolve`` jumps to the requested
time with one exact Fourier rotation.

Initial data are drawn from the harmonic Gibbs surrogate: circularly
symmetric complex Gaussian modes with spectral density 1/(beta (alpha_hat
+ mu)).  This stands in for the (not rigorously constructed) interacting
stationary measure; the Duhamel residual constant is therefore fitted, not
guaranteed.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
import os
import threading
from dataclasses import dataclass, field, asdict, fields

import numpy as np

from .fields import is_finite_number


#: the most axes a numpy array has (numpy 2)
_MAX_AXES = 64


@dataclass
class DnlsConfig:
    dimension: int = 1
    length: int = 32
    coupling: float = 0.0          # lambda >= 0
    beta: float = 1.0              # inverse temperature
    mu: float = 1.0                # mass shift in the Gibbs density
    dt: float = 0.05
    n_samples: int = 10_000
    seed: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if f.type == "int":
                ok, what = isinstance(value, numbers.Integral), "an integer"
            else:
                ok, what = is_finite_number(value), "a finite number"
            if isinstance(value, bool) or not ok:
                raise ValueError(f"{f.name} must be {what}, not {value!r}")
        if self.dt <= 0:
            raise ValueError("dt must be > 0")
        if self.coupling < 0:
            raise ValueError("coupling must be >= 0")
        if self.beta <= 0 or self.mu <= 0:
            raise ValueError("beta and mu must be > 0")
        if self.dimension < 1 or self.length < 1:
            raise ValueError("dimension and length must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_samples < 2:
            # one member has no spread: every residual and fitted C would be 0
            raise ValueError("n_samples must be >= 2")
        # the members lie along one axis and the lattice along dimension
        # more, and a complex standard error views them as floats, one axis
        # more again: numpy holds at most _MAX_AXES
        if self.dimension + 2 > _MAX_AXES:
            raise ValueError(f"dimension must be <= {_MAX_AXES - 2}: a sample array "
                             f"needs dimension + 2 of numpy's {_MAX_AXES} axes")
        # sample_initial allocates n_samples x length^dimension complex numbers;
        # the bit-length test spares computing a huge length^dimension
        most = np.iinfo(np.intp).max // np.dtype(complex).itemsize
        if (self.length > 1 and self.dimension >= most.bit_length()) \
                or self.n_samples * self.length ** self.dimension > most:
            raise ValueError(f"n_samples x length^dimension complex values exceed "
                             f"numpy's largest array of {most}")

    @property
    def shape(self) -> tuple:
        return (self.length,) * self.dimension

    def run_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def hopping_symbol(config: DnlsConfig) -> np.ndarray:
    """alpha_hat on the discrete torus for nearest-neighbor hopping:
    alpha_hat(k) = 2 sum_i (1 - cos 2 pi k_i / L) >= 0."""
    axis_vals = _axis_symbol(config.length)
    symbol = np.zeros(config.shape)
    for axis_idx in range(config.dimension):
        shape = [1] * config.dimension
        shape[axis_idx] = config.length
        symbol = symbol + axis_vals.reshape(shape)
    return symbol


def _axis_symbol(length: int) -> np.ndarray:
    """One lattice axis's term of alpha_hat: 2 (1 - cos 2 pi k / L)."""
    k = np.arange(length)
    return 2.0 * (1.0 - np.cos(2.0 * np.pi * k / length))


def gibbs_spectral_density(config: DnlsConfig) -> np.ndarray:
    """Spectral density of the harmonic Gibbs surrogate,
    1/(beta (alpha_hat + mu)); positive since mu > 0."""
    return 1.0 / (config.beta * (hopping_symbol(config) + config.mu))


def initial_covariance(config: DnlsConfig) -> np.ndarray:
    """<psi(0)* psi(x)> of the surrogate: inverse FFT of the density."""
    return np.fft.ifftn(gibbs_spectral_density(config))


@dataclass
class FieldState:
    """psi over the lattice; a leading axis, when present, indexes ensemble
    members."""

    psi: np.ndarray
    t: float = 0.0

    def l2_norm_sq(self, dimension: int = 1) -> np.ndarray:
        axes = tuple(range(self.psi.ndim - dimension, self.psi.ndim))
        return np.sum(np.abs(self.psi) ** 2, axis=axes)


def sample_initial(config: DnlsConfig) -> FieldState:
    """Ensemble draw from the harmonic Gibbs surrogate; deterministic per seed."""
    rng = np.random.default_rng(config.seed)
    shape = (config.n_samples,) + config.shape
    zeta = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2)
    volume = config.length ** config.dimension
    weights = np.sqrt(volume * gibbs_spectral_density(config))
    lattice_axes = tuple(range(1, config.dimension + 1))
    psi = np.fft.ifftn(weights * zeta, axes=lattice_axes)
    return FieldState(psi=psi, t=0.0)


# Fewest lattice sites (members times sites per member) a thread is given.
# Below it, a second thread's start and its share of the per-step Python
# work outweigh the matmul and phase work it takes over.  On 2 cores over
# 100 steps at lambda = 0.05, split into two chunks against one (median
# gain of 21 alternating pairs, or of 31 where marked *; the machine is
# shared, so single pairs spread by +-20%):
#   d = 1, L = 32:  4,800 sites a chunk lost 15%, 6,400 lost 4% and 11%*,
#                   7,200 gained 19%*, 8,000 gained 24%*, 9,600 gained
#                   36% and 24%*, 12,000 gained 40%;
#   d = 2, L = 16:  4,096 lost 14%, 6,144 broke even (+6%, -1%*),
#                   8,192 gained 21% and 11%*, 12,288 gained 47%;
#   d = 2, L = 8:   4,096 lost 19%, 6,144 gained 10% and 11%*,
#                   8,192 gained 21% and 12%*.
# So every case gains from 8,000 sites a chunk on.
_MIN_CHUNK_SITES = 8_000


def _member_chunks(n_members: int, member_sites: int) -> list:
    """Contiguous slices of the member axis, one per CPU this process may
    use, each of at least ``_MIN_CHUNK_SITES`` lattice sites and two members
    (one slice of all members when there are too few for two)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    fewest = max(2, -(-_MIN_CHUNK_SITES // member_sites))
    count = max(1, min(cpus, n_members // fewest))
    bounds = [n_members * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_chunks(work, chunks):
    """``work(chunk)`` for every chunk: the first in the calling thread, each
    other on a pool thread of its own.  Returns once all have ended,
    re-raising the first exception any of them raised, in chunk order.
    ``concurrent.futures`` is imported only here: it adds about 10 ms and
    0.5 MiB to ``import wickfield`` (Python 3.11 on a 2-vCPU Xeon), which a
    run that never evolves at lambda > 0 need not pay."""
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max(1, len(chunks) - 1)) as pool:
        others = [pool.submit(work, chunk) for chunk in chunks[1:]]
        work(chunks[0])
    for future in others:
        future.result()


def _unit_phase(half_angle, phase, scratch):
    """Write e^{i theta} into ``phase`` from ``half_angle`` = theta / 2, by
    the half-angle identity e^{i theta} = ((1 - t^2) + 2 i t) / (1 + t^2)
    with t = tan(theta / 2): one vectorised ``tan`` costs a fraction of a
    ``cos`` and a ``sin``.  theta = +-0 gives exactly 1, so a zero member
    stays zero.  ``half_angle`` and ``scratch`` are overwritten."""
    t = np.tan(half_angle, out=half_angle)
    np.multiply(t, t, out=scratch)
    np.subtract(1.0, scratch, out=phase.real)
    scratch += 1.0
    np.divide(phase.real, scratch, out=phase.real)
    t += t
    np.divide(t, scratch, out=phase.imag)


def _kick_matrix(length: int, s: float) -> np.ndarray:
    """e^{-i s alpha_hat} along one lattice axis as an L x L circulant K: a
    row psi along the axis maps to psi @ K.  K[k, j] = c[(j - k) mod L] with
    c = ifft(e^{-i s alpha_1}), the axis's symbol.  alpha_1 is even in k, so
    c is even up to rounding; c[m] is read as c[min(m, L - m)], which makes
    K exactly symmetric, so K @ v applies it along a leading axis too."""
    column = np.fft.ifft(np.exp(-1j * s * _axis_symbol(length)))
    j = np.arange(length)
    lag = (j[np.newaxis, :] - j[:, np.newaxis]) % length
    return column[np.minimum(lag, length - lag)]


def _kick(kick, src, spare):
    """Apply the circulant ``kick`` along every lattice axis of the members
    in ``src``, one matmul per axis, alternating between ``src`` and
    ``spare`` as source and destination.  Returns (result, free), the two
    buffers with the one that holds the result first."""
    n, *lattice = src.shape
    length = len(kick)
    np.matmul(src.reshape(-1, length), kick, out=spare.reshape(-1, length))
    src, spare = spare, src
    for axis in range(len(lattice) - 2, -1, -1):
        view = (n * length ** axis, length, -1)
        np.matmul(kick, src.reshape(view), out=spare.reshape(view))
        src, spare = spare, src
    return src, spare


@functools.cache
def _blas_thread_calls():
    """(get, set) of the bundled OpenBLAS thread count, or None where numpy
    links no OpenBLAS that exports them.  Looked up once; ``ctypes`` is
    imported only here."""
    import ctypes
    from numpy._core import _multiarray_umath

    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
    except OSError:
        return None
    for prefix, suffix in (("scipy_openblas", "64_"), ("scipy_openblas", ""),
                           ("openblas", "64_"), ("openblas", "")):
        try:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}")
            put = getattr(lib, f"{prefix}_set_num_threads{suffix}")
        except AttributeError:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


class _OneBlasThread:
    """Context manager that holds BLAS at one thread, then restores its
    count.  Each chunk of ``evolve`` already has a core; BLAS threads of
    its own would take that core from the other chunk's phase.  Nested or
    concurrent holders share one saved count, restored by the last to
    leave.  Without the OpenBLAS calls it does nothing."""

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved = None

    def __enter__(self):
        calls = _blas_thread_calls()
        if calls is not None:
            get, put = calls
            with self._lock:
                if self._holders == 0:
                    self._saved = get()
                    put(1)
                self._holders += 1

    def __exit__(self, *exc_info):
        calls = _blas_thread_calls()
        if calls is not None:
            _, put = calls
            with self._lock:
                self._holders -= 1
                if self._holders == 0:
                    put(self._saved)


_one_blas_thread = _OneBlasThread()


def evolve(state: FieldState, until: float, config: DnlsConfig) -> FieldState:
    """Strang split-step to time ``until``; dt must divide the interval.

    Negative intervals integrate backwards (exact reversal at lambda = 0).
    ``state`` is left unchanged.

    At lambda > 0 the harmonic kick is applied in real space, one matmul
    per lattice axis (``_kick``), and the members of a batched ``psi`` are
    split into contiguous chunks (``_member_chunks``).  The calling thread
    steps the first chunk and a thread pool of one thread per other chunk
    steps the rest, to the end; numpy's matmuls and ufuncs release the
    interpreter lock while they run, and BLAS is held at one thread
    meanwhile.  A member's bits do not depend on its chunk (see the module
    docstring).  The step buffers are allocated here, before the split, so
    no thread allocates its own.
    """
    span = until - state.t
    if span == 0:
        return FieldState(psi=state.psi.copy(), t=state.t)
    dt = math.copysign(config.dt, span)
    n_steps = round(span / dt)
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("dt does not divide the requested interval")
    lam = config.coupling
    if lam == 0.0:
        lattice_axes = tuple(range(state.psi.ndim - config.dimension, state.psi.ndim))
        psi = np.fft.fftn(state.psi, axes=lattice_axes)
        psi *= np.exp(-1j * (n_steps * dt) * hopping_symbol(config))
        np.fft.ifftn(psi, axes=lattice_axes, out=psi)
        return FieldState(psi=psi, t=state.t + n_steps * dt)
    # first same as last: the half kicks that meet between two steps
    # are applied as one full kick
    half_kick = _kick_matrix(config.length, 0.5 * dt)
    kick = _kick_matrix(config.length, dt)
    members = state.psi.reshape((-1,) + config.shape)
    psi = np.zeros((max(2, len(members)),) + config.shape, complex)
    psi[:len(members)] = members
    phase = np.empty_like(psi)
    angle = np.empty(psi.shape)
    square = np.empty(psi.shape)

    def steps(rows):
        psi_c, angle_c, square_c = psi[rows], angle[rows], square[rows]
        now, free = _kick(half_kick, psi_c, phase[rows])
        for step in range(n_steps):
            np.multiply(now.real, now.real, out=angle_c)
            np.multiply(now.imag, now.imag, out=square_c)
            angle_c += square_c
            angle_c *= -0.5 * dt * lam
            _unit_phase(angle_c, free, square_c)
            free *= now
            now, free = _kick(kick if step < n_steps - 1 else half_kick, free, now)
        if now is not psi_c:
            psi_c[...] = now

    with _one_blas_thread:
        _run_chunks(steps, _member_chunks(len(psi), math.prod(config.shape)))
    return FieldState(psi=psi[:len(members)].reshape(state.psi.shape),
                      t=state.t + n_steps * dt)


@dataclass
class CorrelationSeries:
    """Monte Carlo estimates of f_t(x) = kappa[psi_0(0)*, psi_t(x)] and of
    the cubic correlator g_t(x), with per-point standard errors."""

    times: np.ndarray
    f: np.ndarray        # (n_times, *lattice)
    g: np.ndarray
    f_se: np.ndarray
    g_se: np.ndarray
    config: DnlsConfig = field(repr=False)


def _covariance_estimate(a: np.ndarray, b: np.ndarray):
    """mean(a b) - mean(a) mean(b) over the sample axis, with the standard
    error of the product term."""
    prod = a * b
    est = prod.mean(axis=0) - a.mean(axis=0) * b.mean(axis=0)
    se = prod.std(axis=0) / math.sqrt(prod.shape[0])
    return est, se


def correlation_series(config: DnlsConfig, times) -> CorrelationSeries:
    """Evolve one ensemble through the time grid, recording f_t and g_t."""
    times = np.asarray(sorted(float(t) for t in times))
    state = sample_initial(config)
    origin = (slice(None),) + (0,) * config.dimension
    a0_conj = np.conj(state.psi[origin])
    a0_conj = a0_conj.reshape((-1,) + (1,) * config.dimension)
    f_rows, g_rows, f_ses, g_ses = [], [], [], []
    for t in times:
        state = evolve(state, t, config)
        psi_t = state.psi
        f_est, f_se = _covariance_estimate(a0_conj, psi_t)
        g_est, g_se = _covariance_estimate(a0_conj, psi_t * np.abs(psi_t) ** 2)
        f_rows.append(f_est)
        g_rows.append(g_est)
        f_ses.append(f_se)
        g_ses.append(g_se)
    return CorrelationSeries(times=times, f=np.asarray(f_rows),
                             g=np.asarray(g_rows), f_se=np.asarray(f_ses),
                             g_se=np.asarray(g_ses), config=config)


def duhamel_residual(series: CorrelationSeries):
    """Residual table: || f_hat_t - exp(-i t alpha_hat) f_hat_0 ||_{L2(torus)}
    per recorded time, with the Monte Carlo noise scale of the residual.

    Returns a list of dict rows (t, coupling, residual, noise_scale).
    """
    config = series.config
    symbol = hopping_symbol(config)
    volume = config.length ** config.dimension
    lattice_axes = tuple(range(1, config.dimension + 1))
    f_hat = np.fft.fftn(series.f, axes=lattice_axes)
    f0_hat = f_hat[0]
    rows = []
    for i, t in enumerate(series.times):
        delta = f_hat[i] - np.exp(-1j * t * symbol) * f0_hat
        residual = math.sqrt(float(np.sum(np.abs(delta) ** 2)) / volume)
        # noise scale: expected residual magnitude under pure sampling noise
        # (Parseval turns per-site standard errors into the residual scale)
        noise = math.sqrt(float(np.sum(series.f_se[i] ** 2)))
        rows.append({"t": float(t), "coupling": config.coupling,
                     "residual": residual, "noise_scale": noise})
    return rows


def fit_residual_constant(rows, coupling: float, t_max: float | None = None) -> float:
    """Least-squares C in residual(t) ~ C * coupling * t, through the origin."""
    if coupling <= 0:
        raise ValueError("fit requires coupling > 0")
    ts = np.asarray([r["t"] for r in rows if t_max is None or r["t"] <= t_max])
    res = np.asarray([r["residual"] for r in rows if t_max is None or r["t"] <= t_max])
    x = coupling * ts
    denom = float(np.dot(x, x))
    if denom == 0:
        raise ValueError("no usable time points for the fit")
    return float(np.dot(x, res) / denom)
