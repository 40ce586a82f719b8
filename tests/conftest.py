"""Shared fixtures and independent oracles for the test suite.

The oracles deliberately avoid the library's own recursions:

* ``brute_partitions`` enumerates set partitions by direct recursion
  (place element n into each existing block or a new one).
* ``rgs_ordered_partitions`` sorts ``brute_partitions`` by restricted
  growth string, the order ``enumerate_partitions`` must stream them in.
* ``is_restricted`` (with ``group_ranges``) tests a partition for a block
  that lies inside one group; filtering ``rgs_ordered_partitions`` by it
  gives the restricted partitions in the order the generator must yield.
* ``mobius_cumulant`` computes cumulants by Mobius inversion over the
  partition lattice, kappa = sum_pi (-1)^(|pi|-1) (|pi|-1)! prod E[y^A].
* ``direct_wick_product_expectation`` multiplies out the Wick polynomials
  monomial by monomial and takes the expectation term-wise.
* ``unfused_evolve`` takes every Strang step in full, half kick, nonlinear
  phase, half kick, with two FFT pairs per step and no exact jump at
  lambda = 0.  Its phase is numpy's complex ``exp``, not the half-angle form.
* ``product_order_walk`` and ``product_order_clustering_norm`` evaluate a
  box^k cumulant sum once per ordered tuple, in product order, without
  using the symmetry of cumulants; the sum is ``left_fold``.
* ``left_fold`` adds values left to right from 0.0: builtin ``sum``
  compensates float rounding from Python 3.12 on.
* ``product_order_phi_row`` runs the restricted expansion of a Wick kernel
  row once per ordered tuple x, without using its symmetry in x.
* ``complex_product_moment`` and ``complex_product_standard_error`` form a
  plug-in moment as a complex running product from 1, multiplied column by
  column, conjugating every column the sequence marks.
* ``real_product_moment`` forms a plug-in moment of real samples as a plain
  float64 running product of all but the last column, summed against the
  last column by one ``einsum``.
* ``combinations_cumulant`` runs the anchored cumulant recursion with the
  subsets enumerated by ``combinations`` inside every call.
"""

import functools
import math
import operator
from itertools import combinations, product

import numpy as np
import pytest

import wickfield.dnls as dnls
from wickfield.cumulants import (
    CumulantTable,
    WickExpansion,
    wick_expansion,
    wick_product_expectation,
)
from wickfield.dnls import FieldState, hopping_symbol
from wickfield.fields import random_discrete_field
from wickfield.indexing import SiteRef, seq_sort_key, subsequence
from wickfield.partitions import SetPartition


def brute_partitions(n):
    """All set partitions of range(n), each a frozenset of frozensets."""
    if n == 0:
        return [frozenset()]
    out = []
    for part in brute_partitions(n - 1):
        blocks = list(part)
        for i in range(len(blocks)):
            grown = blocks[:i] + [blocks[i] | {n - 1}] + blocks[i + 1:]
            out.append(frozenset(grown))
        out.append(frozenset(blocks + [frozenset({n - 1})]))
    return out


def rgs_ordered_partitions(n):
    """``brute_partitions(n)`` as SetPartitions, sorted by their restricted
    growth strings: entry i is the index of the block holding i, with the
    blocks ordered by their smallest element."""
    def growth_string(blocks):
        block_of = {pos: b for b, block in enumerate(blocks) for pos in block}
        return [block_of[pos] for pos in range(n)]

    ordered = sorted((tuple(sorted(tuple(sorted(b)) for b in part))
                      for part in brute_partitions(n)), key=growth_string)
    return [SetPartition(blocks, n) for blocks in ordered]


def group_ranges(groups, tail=()):
    """Position ranges of concatenated groups; tail occupies the last range."""
    ranges = []
    offset = 0
    for g in groups:
        ranges.append(range(offset, offset + len(g)))
        offset += len(g)
    return ranges, range(offset, offset + len(tail))


def is_restricted(partition, ranges) -> bool:
    """True when no block lies entirely inside a single group range."""
    for block in partition.blocks:
        for rng in ranges:
            if all(pos in rng for pos in block):
                return False
    return True


def mobius_cumulant(provider, sequence):
    """kappa[y_I] by Mobius inversion over the partition lattice."""
    total = 0.0 + 0.0j
    for part in brute_partitions(len(sequence)):
        sign = (-1) ** (len(part) - 1) * math.factorial(len(part) - 1)
        prod = 1.0 + 0.0j
        for block in part:
            prod *= provider.moment(subsequence(sequence, sorted(block)))
        total += sign * prod
    return total


def direct_wick_product_expectation(provider, groups, tail=()):
    """E[prod_l :y^(J_l): * y^(J')] by explicit polynomial multiplication."""
    poly = WickExpansion({(): 1.0 + 0.0j})
    for group in groups:
        poly = poly * wick_expansion(provider, group)
    if tail:
        poly = poly * WickExpansion({tuple(tail): 1.0 + 0.0j})
    return poly.expectation(provider)


def unfused_evolve(state, until, config):
    """Strang split-step to time ``until``, one full step at a time."""
    span = until - state.t
    if span == 0:
        return FieldState(psi=state.psi.copy(), t=state.t)
    dt = math.copysign(config.dt, span)
    n_steps = round(span / dt)
    if abs(n_steps * dt - span) > 1e-9 * max(1.0, abs(span)):
        raise ValueError("dt does not divide the requested interval")
    lattice_axes = tuple(range(state.psi.ndim - config.dimension, state.psi.ndim))
    half_kick = np.exp(-0.5j * dt * hopping_symbol(config))
    lam = config.coupling
    psi = state.psi.copy()
    for _ in range(n_steps):
        psi = np.fft.ifftn(half_kick * np.fft.fftn(psi, axes=lattice_axes),
                           axes=lattice_axes)
        if lam != 0.0:
            psi = psi * np.exp(-1j * dt * lam * np.abs(psi) ** 2)
        psi = np.fft.ifftn(half_kick * np.fft.fftn(psi, axes=lattice_axes),
                           axes=lattice_axes)
    return FieldState(psi=psi, t=state.t + n_steps * dt)


def fix_cpus(monkeypatch, cpus):
    """evolve splits its members over the CPUs this process may use; make
    that ``cpus`` whatever the host has."""
    monkeypatch.setattr(dnls.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)


def product_order_walk(value, box, k):
    """[value(x) for x in product(box, repeat=k)], one call per ordered tuple."""
    return [value(x) for x in product(box, repeat=k)]


def left_fold(values):
    """0.0 + v_1 + v_2 + ..., each addition rounded, on every Python."""
    return functools.reduce(operator.add, values, 0.0)


def product_order_clustering_norm(table, n, p, box):
    """Sup over every anchor in the box of the lp sum over box^(n-1) of
    |kappa| with the anchor pinned in the first slot, walking every ordered
    tuple."""
    best = 0.0
    for anchor in box:
        pinned = (SiteRef(anchor),)
        vals = product_order_walk(
            lambda x: abs(table.cumulant(pinned + tuple(SiteRef(s) for s in x))),
            box, n - 1)
        if n == 1:
            value = vals[0]
        elif p == math.inf:
            value = max(vals)
        else:
            value = left_fold(v ** p for v in vals) ** (1.0 / p)
        best = max(best, value)
    return best


def product_order_phi_row(provider, n, xprime, box):
    """{x: Phi_n(x', x)} for x in box^n, one restricted expansion per
    ordered tuple, in product order."""
    table = CumulantTable(provider)
    left = tuple(SiteRef(s, True) for s in xprime)
    return {x: wick_product_expectation(provider, (left, tuple(SiteRef(s) for s in x)),
                                        (), table=table)
            for x in product(box, repeat=n)}


def _complex_running_product(samples, sites, sequence):
    index = {s: i for i, s in enumerate(sites)}
    prod = np.ones(samples.shape[0], dtype=complex)
    for ref in sequence:
        col = samples[:, index[ref.site]]
        prod = prod * (np.conj(col) if ref.conj else col)
    return prod


def complex_product_moment(samples, sites, sequence):
    """Mean over the (count, n_sites) samples of the complex running product."""
    return complex(_complex_running_product(samples, sites, sequence).mean())


def complex_product_standard_error(samples, sites, sequence):
    """Standard error of ``complex_product_moment``."""
    prod = _complex_running_product(samples, sites, sequence)
    return float(np.std(prod) / math.sqrt(samples.shape[0]))


def real_product_moment(samples, sites, sequence):
    """Mean over the real (count, n_sites) samples of the product of the
    sequence's columns: all but the last multiplied left to right in
    float64, then one einsum with the last; an order-1 moment is the
    pairwise sum of its column."""
    index = {s: i for i, s in enumerate(sites)}
    *head, last = (np.ascontiguousarray(samples[:, index[ref.site]], dtype=float)
                   for ref in sequence)
    if not head:
        return complex(np.add.reduce(last) / samples.shape[0])
    prod = head[0]
    for col in head[1:]:
        prod = prod * col
    return complex(np.einsum("i,i->", prod, last) / samples.shape[0])


def combinations_cumulant(provider, key, anchor=0, memo=None):
    """kappa of the sorted canonical monomials ``key``, anchored at position
    ``anchor``, subtracting the subset terms in ``combinations`` order."""
    if memo is None:
        memo = {}
    if anchor == 0 and key in memo:
        return memo[key]
    k = len(key)
    value = provider.moment(tuple(ref for mono in key for ref in mono))
    if k > 1:
        rest = [i for i in range(k) if i != anchor]
        for size in range(0, k - 1):
            for extra in combinations(rest, size):
                sub = tuple(key[i] for i in (anchor,) + extra)
                if anchor != 0:
                    sub = tuple(sorted(sub, key=seq_sort_key))
                comp = tuple(key[i] for i in rest if i not in extra)
                weight = provider.moment(tuple(ref for mono in comp for ref in mono))
                value -= weight * combinations_cumulant(provider, sub, 0, memo)
    if anchor == 0:
        memo[key] = value
    return value


def refs(*labels):
    return tuple(SiteRef(lab) for lab in labels)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def discrete_field(rng):
    return random_discrete_field(rng, sites=[0, 1, 2])


@pytest.fixture
def two_field_provider(rng):
    sites = [("psi", 0), ("psi", 1), ("phi", 0), ("phi", 1)]
    return random_discrete_field(rng, sites=sites)
