"""Desk-scale DNLS simulator on a periodic lattice.

The evolution  i d/dt psi = alpha * psi + lambda |psi|^2 psi  is integrated
by Strang splitting: exact harmonic rotation in Fourier space composed with
the pointwise nonlinear phase e^{i theta}, theta = -dt lambda |psi|^2.  The
phase is formed from one tangent of the half angle, t = tan(theta / 2), as
((1 - t^2) + 2 i t) / (1 + t^2): for |theta| up to 1e6 it lies within
2 eps of cos theta + i sin theta, and its modulus within 2 eps of 1.  Both
sub-flows conserve the l2 norm, so conservation holds to rounding per step.
Each step's trailing half kick is merged with the next step's leading
one.  ``evolve`` splits a large ensemble's members into contiguous chunks,
one per CPU the process may use, and steps each chunk on its own thread, so
a step costs one FFT pair per chunk.  Each member evolves alone, by the
same operations in the same order whichever chunk holds it, so the split
leaves every bit unchanged.  At lambda = 0 the flow is the harmonic
rotation alone, and ``evolve`` jumps to the requested time with one exact
Fourier rotation.

Initial data are drawn from the harmonic Gibbs surrogate: circularly
symmetric complex Gaussian modes with spectral density 1/(beta (alpha_hat
+ mu)).  This stands in for the (not rigorously constructed) interacting
stationary measure; the Duhamel residual constant is therefore fitted, not
guaranteed.
"""

from __future__ import annotations

import hashlib
import json
import math
import numbers
import os
import sys
import threading
from dataclasses import dataclass, field, asdict, fields

import numpy as np


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
                # the bound, not math.isfinite, so a huge int is refused, not raised
                ok = isinstance(value, numbers.Real) and abs(value) <= sys.float_info.max
                what = "a finite number"
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

    @property
    def shape(self) -> tuple:
        return (self.length,) * self.dimension

    def run_hash(self) -> str:
        blob = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


def hopping_symbol(config: DnlsConfig) -> np.ndarray:
    """alpha_hat on the discrete torus for nearest-neighbor hopping:
    alpha_hat(k) = 2 sum_i (1 - cos 2 pi k_i / L) >= 0."""
    axes = []
    for _ in range(config.dimension):
        k = np.arange(config.length)
        axes.append(2.0 * (1.0 - np.cos(2.0 * np.pi * k / config.length)))
    symbol = np.zeros(config.shape)
    for axis_idx, axis_vals in enumerate(axes):
        shape = [1] * config.dimension
        shape[axis_idx] = config.length
        symbol = symbol + axis_vals.reshape(shape)
    return symbol


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
# work outweigh the FFT and phase work it takes over.  The value is tuned
# for d = 1.  On 2 cores over 100 steps at lambda = 0.05, split into two
# chunks (median of 21 alternating pairs; the machine is shared, so single
# pairs spread by +-20%):
#   d = 1, L = 32:  6,400 sites a chunk lost 13%, 9,600 broke even,
#                   12,000 gained 19%;
#   d = 2, L = 16:  6,144 sites a chunk lost 10%, 8,192 gained 23%,
#                   12,288 gained 24%;
#   d = 2, L = 8:   2,048 sites a chunk lost 32%, 4,096 broke even.
# So at d = 2, L = 16 ensembles of 16,384 to 24,000 sites stay in one
# thread although a split would speed them up somewhat.
_MIN_CHUNK_SITES = 12_000


def _member_chunks(n_members: int, member_sites: int) -> list:
    """Contiguous slices of the member axis, one per CPU this process may
    use, each of at least ``_MIN_CHUNK_SITES`` lattice sites (one slice of
    all members when there are too few for two)."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        cpus = os.cpu_count() or 1
    fewest = -(-_MIN_CHUNK_SITES // member_sites)
    count = max(1, min(cpus, n_members // fewest))
    bounds = [n_members * i // count for i in range(count + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _run_chunks(work, chunks):
    """``work(chunk)`` for every chunk: the first in the calling thread, each
    other on a thread of its own.  Returns once all have ended, re-raising
    the first exception any of them raised."""
    errors = [None] * len(chunks)

    def run(i):
        try:
            work(chunks[i])
        except Exception as exc:  # re-raised in the calling thread below
            errors[i] = exc

    threads = [threading.Thread(target=run, args=(i,)) for i in range(1, len(chunks))]
    for thread in threads:
        thread.start()
    try:
        work(chunks[0])
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


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


def evolve(state: FieldState, until: float, config: DnlsConfig) -> FieldState:
    """Strang split-step to time ``until``; dt must divide the interval.

    Negative intervals integrate backwards (exact reversal at lambda = 0).
    ``state`` is left unchanged.

    At lambda > 0 the members of a batched ``psi`` are split into contiguous
    chunks (``_member_chunks``).  The calling thread steps the first chunk
    and one more thread steps each other chunk, to the end, with one join;
    numpy's FFTs and ufuncs release the interpreter lock while they run.
    Every operation of a step transforms or maps each member on its own,
    and numpy's vectorised ``tan`` gives the same bits at every offset in
    an array, so a member's bits do not depend on its chunk.  The step
    buffers are allocated here, before the split, so no thread allocates
    its own.
    """
    span = until - state.t
    if span == 0:
        return FieldState(psi=state.psi.copy(), t=state.t)
    dt = math.copysign(config.dt, span)
    n_steps = round(span / dt)
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("dt does not divide the requested interval")
    lattice_axes = tuple(range(state.psi.ndim - config.dimension, state.psi.ndim))
    symbol = hopping_symbol(config)
    lam = config.coupling
    # fftn allocates, so every later in-place step leaves state.psi alone
    psi = np.fft.fftn(state.psi, axes=lattice_axes)
    if lam == 0.0:
        psi *= np.exp(-1j * (n_steps * dt) * symbol)
        np.fft.ifftn(psi, axes=lattice_axes, out=psi)
        return FieldState(psi=psi, t=state.t + n_steps * dt)
    # first same as last: the half kicks that meet between two steps
    # are applied as one full kick, so each step needs one FFT pair
    half_kick = np.exp(-0.5j * dt * symbol)
    kick = half_kick * half_kick
    phase = np.empty_like(psi)
    angle = np.empty(psi.shape)
    square = np.empty(psi.shape)
    psi *= half_kick

    def steps(rows):
        psi_c, phase_c, angle_c, square_c = psi[rows], phase[rows], angle[rows], square[rows]
        for step in range(n_steps):
            np.fft.ifftn(psi_c, axes=lattice_axes, out=psi_c)
            np.multiply(psi_c.real, psi_c.real, out=angle_c)
            np.multiply(psi_c.imag, psi_c.imag, out=square_c)
            angle_c += square_c
            angle_c *= -0.5 * dt * lam
            _unit_phase(angle_c, phase_c, square_c)
            psi_c *= phase_c
            np.fft.fftn(psi_c, axes=lattice_axes, out=psi_c)
            psi_c *= kick if step < n_steps - 1 else half_kick
        np.fft.ifftn(psi_c, axes=lattice_axes, out=psi_c)

    if psi.ndim > config.dimension:
        chunks = _member_chunks(len(psi), math.prod(psi.shape[1:]))
    else:
        chunks = [slice(None)]
    _run_chunks(steps, chunks)
    return FieldState(psi=psi, t=state.t + n_steps * dt)


@dataclass
class CorrelationSeries:
    """Monte Carlo estimates of f_t(x) = kappa[psi_0(0)*, psi_t(x)] and of
    the cubic correlator g_t(x), with per-point standard errors."""

    times: np.ndarray
    f: np.ndarray        # (n_times, *lattice)
    g: np.ndarray
    f_se: np.ndarray
    g_se: np.ndarray
    config: DnlsConfig = field(repr=False, default=None)


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


def duhamel_residual(series: CorrelationSeries, config: DnlsConfig | None = None):
    """Residual table: || f_hat_t - exp(-i t alpha_hat) f_hat_0 ||_{L2(torus)}
    per recorded time, with the Monte Carlo noise scale of the residual.

    Returns a list of dict rows (t, coupling, residual, noise_scale).
    """
    if config is None:
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
