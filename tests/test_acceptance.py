"""Acceptance gate: eight headline checks at pinned tolerances.

Each test prints a single pass/fail line on the terminal (bypassing
capture) so the gate can be eyeballed from any pytest run.
"""

import itertools
import math
import time

import numpy as np
import pytest

from wickfield.clustering import (
    Observable,
    joint_theorem_check,
    l1_divergence_probe,
    theorem41_check,
)
from wickfield.cumulants import (
    CumulantTable,
    moments_from_cumulants,
    wick_expansion,
    wick_product_expectation,
)
from wickfield.dnls import (
    DnlsConfig,
    correlation_series,
    duhamel_residual,
    evolve,
    fit_residual_constant,
    sample_initial,
)
from wickfield.fields import (
    IidRealGaussianField,
    random_discrete_field,
    sinc_coupling_example,
)
from wickfield.indexing import SiteRef, canonical
from wickfield.partitions import factorial_partition_sum, verify_comb_est

from conftest import (
    combinations_cumulant,
    direct_wick_product_expectation,
    mobius_cumulant,
    refs,
)


def announce(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_combinatorial_estimate(capsys):
    start = time.monotonic()
    ok = factorial_partition_sum(2) == 3 and factorial_partition_sum(4) == 73
    for n in range(1, 7):  # 2n <= 12
        rep = verify_comb_est(n)
        ok = ok and rep.flag
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    announce(capsys, 1, ok,
             f"factorial partition sums 3, 73 and bound up to 2n=12 "
             f"in {elapsed:.2f}s")


def test_criterion_2_restricted_expansion_oracle(capsys):
    rng = np.random.default_rng(42)
    worst = 0.0
    trials = 0
    while trials < 50:
        n_sites = int(rng.integers(1, 5))
        f = random_discrete_field(rng, sites=list(range(n_sites)))
        n_groups = int(rng.integers(1, 4))
        sizes = [int(rng.integers(1, 4)) for _ in range(n_groups)]
        total = sum(sizes)
        if total > 6:
            continue
        tail_len = int(rng.integers(0, 7 - total))
        labels = [int(x) for x in rng.integers(0, n_sites,
                                               size=total + tail_len)]
        groups, pos = [], 0
        for s in sizes:
            groups.append(refs(*labels[pos:pos + s]))
            pos += s
        tail = refs(*labels[pos:])
        got = wick_product_expectation(f, tuple(groups), tail)
        want = direct_wick_product_expectation(f, tuple(groups), tail)
        worst = max(worst, abs(got - want))
        trials += 1

    # two-pair identity, term by term
    f = random_discrete_field(np.random.default_rng(7), sites=[0, 1, 2, 3])
    table = CumulantTable(f)
    y = refs(0, 1, 2, 3)
    k = lambda *pos: table.cumulant(tuple(y[i] for i in pos))
    terms = [k(0, 2) * k(1, 3), k(0, 3) * k(1, 2), k(0, 1, 2, 3)]
    pair_err = abs(wick_product_expectation(f, (y[:2], y[2:])) - sum(terms))

    ok = worst <= 1e-9 and pair_err <= 1e-9
    announce(capsys, 2, ok,
             f"restricted expansion vs direct on {trials} providers, "
             f"max |err| {worst:.2e}; two-pair identity err {pair_err:.2e}")


def test_criterion_3_gaussian_counterexample(capsys):
    start = time.monotonic()
    f = sinc_coupling_example()
    radii = [100, 1000, 10000]
    p1 = l1_divergence_probe(f, radii, exponent=1)
    p2 = l1_divergence_probe(f, radii, exponent=2)
    coeff = p1.odd_harmonic_coefficient
    l2 = p2.rows[-1][1]
    elapsed = time.monotonic() - start
    ok = (abs(coeff - 2 / math.pi) <= 0.05 * 2 / math.pi
          and abs(l2 - 0.5) <= 1e-3 and elapsed < 10)
    announce(capsys, 3, ok,
             f"l1 divergence coefficient {coeff:.5f} (target 2/pi), "
             f"l2 sum {l2:.5f} (target 0.5), {elapsed:.2f}s")


def test_criterion_4_covariance_bound(capsys):
    f = sinc_coupling_example()
    box = [("phi", x) for x in range(-50000, 50001)]
    norm_box = [("phi", x) for x in range(-20, 21)]
    X = Observable.of_site(("psi", 0))
    rep = theorem41_check(f, X, 1, 1, box, norm_box=norm_box)
    item1 = (abs(rep.lhs - 0.70711) <= 1e-5
             and abs(rep.rhs - math.e) <= 1e-12 and rep.flag)

    iid = IidRealGaussianField()
    ibox = list(range(-4, 5))
    item2 = all(theorem41_check(iid, Observable.of_site(0), n, 2, ibox).flag
                for n in (1, 2))
    ok = item1 and item2
    announce(capsys, 4, ok,
             f"unweighted LHS {rep.lhs:.6f} vs RHS e = {math.e:.5f}; "
             f"weighted variant flags {'true' if item2 else 'FALSE'}")


def test_criterion_5_joint_bound_matrix(capsys):
    f = sinc_coupling_example()
    phi_box = [("phi", x) for x in range(-200, 201)]
    psi_box = [("psi", x) for x in range(-200, 201)]
    sinc_ok = True
    for m, n, p in itertools.product((1, 2), (1, 2), (1, 2)):
        rep = joint_theorem_check(
            f, m, n, p, psi_box, phi_box,
            psi_norm_box=[("psi", x) for x in range(-20, 21)],
            phi_norm_box=[("phi", x) for x in range(-20, 21)])
        sinc_ok = sinc_ok and rep.flag

    rng = np.random.default_rng(13)
    discrete_ok = True
    oracle_err = 0.0
    for _ in range(20):
        sites = [("psi", 0), ("psi", 1), ("phi", 0), ("phi", 1)]
        fd = random_discrete_field(rng, sites=sites)
        table = CumulantTable(fd)
        psi_sites, phi_sites = sites[:2], sites[2:]
        for m, n, p in itertools.product((1, 2), (1, 2), (1, 2)):
            rep = joint_theorem_check(fd, m, n, p, psi_sites, phi_sites,
                                      table=table)
            discrete_ok = discrete_ok and rep.flag
            if p == 1:
                # brute-force cumulant oracle for the l2 sup
                best = 0.0
                for xp in itertools.product(psi_sites, repeat=m):
                    acc = 0.0
                    for x in itertools.product(phi_sites, repeat=n):
                        seq = refs(*(xp + x))
                        acc += abs(mobius_cumulant(fd, seq)) ** 2
                    best = max(best, math.sqrt(acc))
                oracle_err = max(oracle_err, abs(rep.lhs - best))
    ok = sinc_ok and discrete_ok and oracle_err <= 1e-9
    announce(capsys, 5, ok,
             f"joint bound flags true on sinc example and 20 discrete "
             f"providers, (m,n)<=(2,2), p in {{1,2}}; "
             f"oracle |err| {oracle_err:.2e}")


def test_criterion_6_cumulant_machinery(capsys):
    rng = np.random.default_rng(5)
    f = random_discrete_field(rng, sites=[0, 1, 2])
    table = CumulantTable(f)

    round_trip = 0.0
    for labels in [(0,) * 6, (0, 0, 1, 1, 2, 2), (0, 1, 2, 0, 1, 2)]:
        seq = refs(*labels)
        round_trip = max(round_trip, abs(
            moments_from_cumulants(table, seq) - f.moment(seq)))

    seq5 = refs(0, 1, 0, 2, 1)
    base = table.cumulant(seq5)
    perm_err = max(abs(table.cumulant(tuple(seq5[i] for i in perm)) - base)
                   for perm in itertools.islice(
                       itertools.permutations(range(5)), 0, None, 7))
    key5 = tuple(zip(canonical(seq5)))
    anchor_err = max(abs(combinations_cumulant(f, key5, a) - base)
                     for a in range(5))
    wick_err = max(abs(wick_expansion(f, refs(*labels)).expectation(f))
                   for labels in [(0,), (0, 1), (0, 1, 2), (0, 0, 1, 1),
                                  (0, 1, 2, 0, 1)])
    ok = (round_trip <= 1e-10 and perm_err <= 1e-10
          and anchor_err <= 1e-10 and wick_err <= 1e-10)
    announce(capsys, 6, ok,
             f"round trip {round_trip:.2e}, permutation {perm_err:.2e}, "
             f"anchor choice {anchor_err:.2e}, E[:y^I:] {wick_err:.2e}")


def test_criterion_7_duhamel_residual(capsys):
    start = time.monotonic()
    zero_ok = True
    cfg0 = DnlsConfig(length=32, n_samples=10_000, coupling=0.0, seed=1)
    times0 = [round(t / cfg0.dt) * cfg0.dt for t in np.linspace(0, 50, 11)]
    for row in duhamel_residual(correlation_series(cfg0, times0)):
        zero_ok = zero_ok and row["residual"] <= 3 * row["noise_scale"] + 1e-12

    fits = {}
    for lam in (0.01, 0.02, 0.05):
        cfg = DnlsConfig(length=32, n_samples=10_000, coupling=lam, seed=1)
        horizon = min(50.0, 1.0 / lam)
        times = [round(t / cfg.dt) * cfg.dt
                 for t in np.linspace(0, horizon, 11)]
        rows = duhamel_residual(correlation_series(cfg, times))
        fits[lam] = fit_residual_constant(rows, lam, t_max=1.0 / lam)
    cvals = list(fits.values())
    spread = (max(cvals) - min(cvals)) / max(cvals)
    elapsed = time.monotonic() - start
    ok = zero_ok and spread <= 0.25 and elapsed < 600
    announce(capsys, 7, ok,
             f"lambda=0 residuals within 3 sigma: {zero_ok}; fitted C "
             f"{ {k: round(v, 4) for k, v in fits.items()} }, spread "
             f"{spread:.1%} (limit 25%), {elapsed:.1f}s")


def test_criterion_8_integrator(capsys):
    cfg = DnlsConfig(length=32, n_samples=200, coupling=0.5, seed=4)
    state = sample_initial(cfg)
    n0 = state.l2_norm_sq(cfg.dimension)
    n1 = evolve(state, 10.0, cfg).l2_norm_sq(cfg.dimension)
    conservation = float(np.max(np.abs(n1 - n0) / n0))

    def final(dt):
        c = DnlsConfig(length=32, n_samples=50, coupling=0.5, seed=4, dt=dt)
        return evolve(sample_initial(c), 1.0, c).psi

    p1, p2, p3 = final(0.1), final(0.05), final(0.025)
    order = math.log2(np.linalg.norm(p1 - p2) / np.linalg.norm(p2 - p3))
    ok = conservation <= 1e-10 and 1.7 <= order <= 2.3
    announce(capsys, 8, ok,
             f"l2 conservation {conservation:.2e} (limit 1e-10), "
             f"convergence order {order:.3f} (window [1.7, 2.3])")
