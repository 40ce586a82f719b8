import math
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wickfield.dnls as dnls
from conftest import fix_cpus, unfused_evolve
from wickfield.dnls import (
    _MIN_CHUNK_SITES,
    CorrelationSeries,
    DnlsConfig,
    FieldState,
    correlation_series,
    duhamel_residual,
    evolve,
    fit_residual_constant,
    gibbs_spectral_density,
    hopping_symbol,
    initial_covariance,
    sample_initial,
    _kick_matrix,
    _member_chunks,
    _unit_phase,
)


def small(**kw):
    base = dict(length=16, n_samples=400, seed=9)
    base.update(kw)
    return DnlsConfig(**base)


def test_config_validation():
    with pytest.raises(ValueError):
        DnlsConfig(coupling=-1.0)
    with pytest.raises(ValueError):
        DnlsConfig(beta=0.0)
    with pytest.raises(ValueError):
        DnlsConfig(mu=-0.5)
    with pytest.raises(ValueError):
        DnlsConfig(length=0)


def test_run_hash_stable_and_sensitive():
    a, b = DnlsConfig(seed=1), DnlsConfig(seed=1)
    assert a.run_hash() == b.run_hash()
    assert a.run_hash() != DnlsConfig(seed=2).run_hash()


def test_hopping_symbol_properties():
    cfg = small()
    sym = hopping_symbol(cfg)
    assert sym.shape == cfg.shape
    assert sym[0] == pytest.approx(0.0)
    assert np.all(sym >= 0)
    assert np.max(sym) <= 4 * cfg.dimension + 1e-12
    cfg2 = small(dimension=2, length=8)
    sym2 = hopping_symbol(cfg2)
    assert sym2.shape == (8, 8)
    assert sym2[0, 0] == pytest.approx(0.0)


def test_gibbs_density_positive():
    cfg = small(beta=2.0, mu=0.3)
    dens = gibbs_spectral_density(cfg)
    assert np.all(dens > 0)
    assert dens[0] == pytest.approx(1 / (2.0 * 0.3))


def test_initial_covariance_matches_samples():
    cfg = small(n_samples=20000)
    cov = initial_covariance(cfg)
    state = sample_initial(cfg)
    emp = np.mean(np.conj(state.psi[:, :1]) * state.psi, axis=0)
    assert np.allclose(emp, cov, atol=5 / math.sqrt(cfg.n_samples))


def test_sample_initial_deterministic():
    a = sample_initial(small())
    b = sample_initial(small())
    assert np.array_equal(a.psi, b.psi)


def test_l2_conservation():
    # at lambda = 40 a step's phase angle reaches 7 rad
    for lam in (0.0, 0.05, 0.5, 40.0):
        cfg = small(coupling=lam)
        state = sample_initial(cfg)
        n0 = state.l2_norm_sq(cfg.dimension)
        out = evolve(state, 10.0, cfg)
        n1 = out.l2_norm_sq(cfg.dimension)
        assert np.max(np.abs(n1 - n0) / n0) < 1e-10


def test_time_reversibility():
    cfg = small(coupling=0.3)
    state = sample_initial(cfg)
    fwd = evolve(state, 5.0, cfg)
    back = evolve(fwd, 0.0, cfg)
    assert np.max(np.abs(back.psi - state.psi)) < 1e-11


def test_dt_must_divide():
    cfg = small(dt=0.3)
    state = sample_initial(cfg)
    with pytest.raises(ValueError):
        evolve(state, 0.5, cfg)


def test_zero_coupling_exact_transport():
    # lambda = 0: the split flow equals the exact Fourier rotation
    cfg = small(coupling=0.0, n_samples=10)
    state = sample_initial(cfg)
    out = evolve(state, 7.0, cfg)
    sym = hopping_symbol(cfg)
    expected = np.fft.ifft(np.exp(-1j * 7.0 * sym) * np.fft.fft(state.psi,
                                                                axis=1), axis=1)
    assert np.max(np.abs(out.psi - expected)) < 1e-12


@pytest.mark.parametrize("length", [1, 2, 3, 8, 17, 32])
@pytest.mark.parametrize("s", [0.025, -0.05, 0.5, 3.0])
def test_kick_matrix_is_the_fourier_kick(length, s):
    # symmetric bit for bit, unitary to rounding, and column j is the
    # Fourier kick of the unit vector at j
    kick = _kick_matrix(length, s)
    assert np.array_equal(kick, kick.T)
    assert np.max(np.abs(kick @ kick.conj().T - np.eye(length))) <= 1e-14
    symbol = hopping_symbol(DnlsConfig(length=length))
    for j in range(length):
        delta = np.zeros(length)
        delta[j] = 1.0
        column = np.fft.ifft(np.exp(-1j * s * symbol) * np.fft.fft(delta))
        assert np.max(np.abs(kick[:, j] - column)) <= 1e-14


def fewest_split_members(sites_per_member):
    """The fewest members whose lattice sites fill two chunks."""
    return 2 * -(-_MIN_CHUNK_SITES // sites_per_member)


SPANS = {"forward": (0.0, 2.0), "backward": (1.0, -1.0), "one-step": (0.0, 0.05),
         "one-step-back": (0.3, 0.25)}
# lambda = 40 turns a step's phase past pi; over many steps the flow is
# chaotic and rounding differences grow past the tolerance, so it is
# compared over one step only
ORACLE_CASES = [(span, lam) for span in SPANS for lam in (0.0, 0.05, 0.5)] + [
    ("one-step", 40.0), ("one-step-back", 40.0)]


@pytest.mark.parametrize("dimension,length", [(1, 16), (2, 8), (3, 4)],
                         ids=["d1", "d2", "d3"])
@pytest.mark.parametrize("start,until,coupling", [
    pytest.param(*SPANS[span], lam, id=f"{span}-{lam}") for span, lam in ORACLE_CASES])
@pytest.mark.parametrize("members", ["few", "split"])
def test_evolve_matches_unfused_oracle(monkeypatch, dimension, length, coupling, start,
                                       until, members):
    # merged half kicks (lambda > 0) and the exact jump (lambda = 0) against
    # full Strang steps; one step is where the last half kick matters, and
    # "split" members are stepped on two threads
    fix_cpus(monkeypatch, 2)
    n = 20 if members == "few" else fewest_split_members(length ** dimension) + 1
    cfg = DnlsConfig(dimension=dimension, length=length, coupling=coupling,
                     n_samples=n, seed=5)
    state = FieldState(psi=sample_initial(cfg).psi, t=start)
    assert len(_member_chunks(n, length ** dimension)) == (1 if members == "few" else 2)
    before = state.psi.copy()
    out = evolve(state, until, cfg)
    expected = unfused_evolve(state, until, cfg)
    assert np.array_equal(state.psi, before)
    assert out.t == expected.t
    assert np.max(np.abs(out.psi - expected.psi)) <= 1e-12 * np.max(np.abs(expected.psi))


def test_strang_convergence_order():
    def final(dt):
        cfg = small(coupling=0.5, n_samples=30, dt=dt)
        return evolve(sample_initial(cfg), 1.0, cfg).psi

    p1, p2, p3 = final(0.1), final(0.05), final(0.025)
    order = math.log2(np.linalg.norm(p1 - p2) / np.linalg.norm(p2 - p3))
    assert 1.7 <= order <= 2.3


def test_zero_coupling_residual_machine_zero():
    cfg = small(coupling=0.0, n_samples=500)
    series = correlation_series(cfg, [0.0, 2.0, 5.0])
    rows = duhamel_residual(series)
    for row in rows:
        assert row["residual"] < 1e-12
        assert row["noise_scale"] > 0


def test_residual_grows_with_coupling():
    cfg = small(coupling=0.1, n_samples=500)
    series = correlation_series(cfg, [0.0, 2.0, 5.0])
    rows = duhamel_residual(series)
    assert rows[0]["residual"] == pytest.approx(0.0, abs=1e-14)
    assert rows[-1]["residual"] > rows[0]["residual"]


def test_fit_residual_constant_exact():
    rows = [{"t": t, "residual": 0.7 * 0.1 * t} for t in (0.0, 1.0, 2.0, 4.0)]
    assert fit_residual_constant(rows, 0.1) == pytest.approx(0.7)
    # t_max filter drops the late points
    rows.append({"t": 10.0, "residual": 99.0})
    assert fit_residual_constant(rows, 0.1, t_max=4.0) == pytest.approx(0.7)
    with pytest.raises(ValueError):
        fit_residual_constant(rows, 0.0)


def test_correlation_series_shapes():
    cfg = small(n_samples=50)
    series = correlation_series(cfg, [0.0, 1.0])
    assert series.f.shape == (2,) + cfg.shape
    assert series.g.shape == (2,) + cfg.shape
    assert series.f_se.shape == (2,) + cfg.shape
    assert series.times[0] == 0.0
    # equal-time covariance at displacement 0 ~ lattice variance
    cov0 = initial_covariance(cfg)[0].real
    assert series.f[0][0].real == pytest.approx(cov0, abs=0.3)


def test_two_dimensional_evolution():
    cfg = DnlsConfig(dimension=2, length=8, coupling=0.2, n_samples=20, seed=2)
    state = sample_initial(cfg)
    out = evolve(state, 1.0, cfg)
    n0 = state.l2_norm_sq(cfg.dimension)
    n1 = out.l2_norm_sq(cfg.dimension)
    assert np.max(np.abs(n1 - n0) / n0) < 1e-10


@pytest.mark.parametrize("dimension,length", [(1, 32), (2, 8), (3, 4), (1, 17)],
                         ids=["d1", "d2", "d3", "d1-odd"])
@pytest.mark.parametrize("cpus,offset,chunks", [(2, -1, 1), (2, 0, 2), (2, 1, 2), (2, 3, 2),
                                                (3, 0, 2), (3, 800, 3)])
@pytest.mark.parametrize("until", [0.5, -0.5], ids=["forward", "backward"])
def test_split_evolve_equals_blocks_evolved_alone(monkeypatch, dimension, length, cpus,
                                                  offset, chunks, until):
    # members are independent, so stepping the ensemble split over threads
    # gives the very bits of stepping blocks of it one at a time; offsets
    # count members from the fewest that fill two chunks, and odd counts
    # split unevenly.  At the odd length 17 no chunk after the first starts
    # on a multiple of the SIMD width, so the vectorised phase must give the
    # same bits at any offset.  The block of one member is stepped beside a
    # zero member, since a one-row matmul rounds differently
    fix_cpus(monkeypatch, cpus)
    n = fewest_split_members(length ** dimension) + offset
    cfg = DnlsConfig(dimension=dimension, length=length, coupling=0.5, n_samples=n, seed=7)
    state = sample_initial(cfg)
    assert len(_member_chunks(n, length ** dimension)) == chunks
    whole = evolve(state, until, cfg).psi
    cuts = [0, 1, n // 3, n]  # each block too small to split
    blocks = [evolve(FieldState(psi=state.psi[a:b]), until, cfg).psi
              for a, b in zip(cuts, cuts[1:])]
    assert np.array_equal(whole, np.concatenate(blocks))


def test_member_chunks_cover_the_members_in_order(monkeypatch):
    for cpus in (1, 2, 3, 5):
        fix_cpus(monkeypatch, cpus)
        for n in (0, 1, 2, 7, 375, 376, 1001, 10_000):
            chunks = _member_chunks(n, 64)
            assert 1 <= len(chunks) <= max(1, min(cpus, n))
            assert [i for c in chunks for i in range(n)[c]] == list(range(n))
            sizes = [c.stop - c.start for c in chunks]
            assert max(sizes) - min(sizes) <= 1
            if len(chunks) > 1:
                assert min(sizes) * 64 >= _MIN_CHUNK_SITES
                assert min(sizes) >= 2
    # huge members still go two to a chunk, so no chunk is a one-row matmul
    fix_cpus(monkeypatch, 2)
    assert len(_member_chunks(3, _MIN_CHUNK_SITES)) == 1
    assert [c.stop - c.start for c in _member_chunks(4, _MIN_CHUNK_SITES)] == [2, 2]


def test_unbatched_psi_evolves_as_one_member(monkeypatch):
    fix_cpus(monkeypatch, 2)
    cfg = DnlsConfig(length=16, coupling=0.5, n_samples=fewest_split_members(16), seed=3)
    batch = sample_initial(cfg).psi
    state = FieldState(psi=batch[0].copy())
    before = state.psi.copy()
    out = evolve(state, 1.0, cfg)
    assert out.psi.shape == (16,) and out.t == 1.0
    assert np.array_equal(state.psi, before)
    assert np.array_equal(out.psi, evolve(FieldState(psi=batch), 1.0, cfg).psi[0])


class _FailingTan:
    """Stand-in for ``np`` in dnls whose ``tan`` raises on one chunk's
    member count; every other attribute is numpy's own."""

    def __init__(self, members):
        self.members = members

    def tan(self, x, *args, **kwargs):
        if x.shape[0] == self.members:
            raise RuntimeError(f"tan failed on {self.members} members")
        return np.tan(x, *args, **kwargs)

    def __getattr__(self, attr):
        return getattr(np, attr)


@pytest.mark.parametrize("failing", [0, 1], ids=["calling-thread", "worker"])
def test_chunk_exception_reaches_the_caller(monkeypatch, failing):
    fix_cpus(monkeypatch, 2)
    n = fewest_split_members(32) + 1  # odd, so the two chunks differ in size
    cfg = DnlsConfig(length=32, coupling=0.5, n_samples=n, seed=3)
    state = sample_initial(cfg)
    chunks = _member_chunks(n, 32)
    sizes = [c.stop - c.start for c in chunks]
    assert len(sizes) == 2 and sizes[0] != sizes[1]
    threads = threading.active_count()
    monkeypatch.setattr(dnls, "np", _FailingTan(sizes[failing]))
    with pytest.raises(RuntimeError, match=f"tan failed on {sizes[failing]} members"):
        evolve(state, 1.0, cfg)
    # every chunk's thread was joined before the error was raised
    assert threading.active_count() == threads


@pytest.fixture
def blas_threads():
    """get() of the OpenBLAS thread count, set to 2 for the test and
    restored after it."""
    calls = dnls._blas_thread_calls()
    if calls is None:
        pytest.skip("numpy links no OpenBLAS whose thread count can be read")
    get, put = calls
    saved = get()
    put(2)
    yield get
    put(saved)


class _CountingTan:
    """Stand-in for ``np`` in dnls whose ``tan`` records the BLAS thread
    count it runs under."""

    def __init__(self, get):
        self.get, self.seen = get, set()

    def tan(self, *args, **kwargs):
        self.seen.add(self.get())
        return np.tan(*args, **kwargs)

    def __getattr__(self, attr):
        return getattr(np, attr)


@pytest.mark.parametrize("failing", [None, 0, 1], ids=["returns", "calling-thread", "worker"])
def test_evolve_holds_blas_at_one_thread_and_restores_it(monkeypatch, blas_threads,
                                                         failing):
    fix_cpus(monkeypatch, 2)
    n = fewest_split_members(32) + 1
    cfg = DnlsConfig(length=32, coupling=0.5, n_samples=n, seed=3)
    state = sample_initial(cfg)
    before = blas_threads()
    if failing is None:
        counting = _CountingTan(blas_threads)
        monkeypatch.setattr(dnls, "np", counting)
        evolve(state, 1.0, cfg)
        assert counting.seen == {1}
    else:
        sizes = [c.stop - c.start for c in _member_chunks(n, 32)]
        monkeypatch.setattr(dnls, "np", _FailingTan(sizes[failing]))
        with pytest.raises(RuntimeError):
            evolve(state, 1.0, cfg)
    assert blas_threads() == before


EPS = np.finfo(float).eps
ANGLES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.pi / 2,
                     -math.pi / 2, math.pi, -math.pi, 1e6, -1e6]),
    st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=True))


@settings(max_examples=300, deadline=None)
@given(theta=st.lists(ANGLES, min_size=1, max_size=40))
def test_unit_phase_matches_cos_and_sin(theta):
    # the half-angle phase against the cos + i sin it replaced, on arrays of
    # every length so each lane of the vectorised tan is used
    theta = np.asarray(theta)
    phase, scratch = np.empty(theta.shape, complex), np.empty(theta.shape)
    _unit_phase(theta / 2, phase, scratch)
    assert np.all(np.abs(phase - (np.cos(theta) + 1j * np.sin(theta))) <= 2 * EPS)
    assert np.all(np.abs(np.abs(phase) - 1) <= 2 * EPS)


def test_zero_angle_phase_is_one_and_zero_member_stays_zero():
    phase, scratch = np.empty(2, complex), np.empty(2)
    _unit_phase(np.array([0.0, -0.0]), phase, scratch)
    assert np.array_equal(phase, [1.0, 1.0])
    cfg = small(coupling=40.0, n_samples=3)
    psi = sample_initial(cfg).psi
    psi[1] = 0
    assert np.all(evolve(FieldState(psi=psi), 1.0, cfg).psi[1] == 0)
