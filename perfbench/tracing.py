"""Outside-in layer tracing for the benchmark's traced run.

Nothing here edits the package.  ``instrument`` replaces, for the duration
of a ``with`` block, the names each caller inside wickfield actually looks
up (a module global such as ``wickfield.cumulants.enumerate_restricted``, a
method on a class, or ``wickfield.dnls.np``) with wrappers that record one
span per call.  Spans are (name, start, end, parent) rows kept in flat
arrays and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children and minus the time
counting hooks spent inside it.
"""

from __future__ import annotations

import contextlib
import functools
import time
from array import array
from collections import Counter

import numpy as np


class Tracer:
    """In-memory span recorder for one single-threaded run."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.excluded = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.keys = {}

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        sid = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self.excluded.append(0.0)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def close(self, sid: int):
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    def bookkeeping(self, hook, *args):
        """Run a counting hook; its time is kept out of the enclosing span's
        self time, so the tracer's own work is not charged to a layer."""
        t0 = time.perf_counter()
        hook(*args)
        parent = self._stack[-1]
        if parent >= 0:
            self.excluded[parent] += time.perf_counter() - t0

    def distinct(self, label: str, key):
        """Count ``key`` once per label (distinct shapes, memo keys)."""
        self.keys.setdefault(label, set()).add(key)

    # -- analysis ---------------------------------------------------------

    def _arrays(self):
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end, dtype=np.float64) - np.frombuffer(self.start, dtype=np.float64)
        return name, parent, dur

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        name, parent, dur = self._arrays()
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        own = dur - child - np.frombuffer(self.excluded, dtype=np.float64)
        calls = np.bincount(name, minlength=len(self.names))
        total = np.bincount(name, weights=dur, minlength=len(self.names))
        self_s = np.bincount(name, weights=own, minlength=len(self.names))
        return {n: {"calls": int(calls[i]), "total_s": float(total[i]),
                    "self_s": float(self_s[i])}
                for i, n in enumerate(self.names)}

    def save(self, path):
        name, parent, _ = self._arrays()
        np.savez(path, names=np.asarray(self.names), name=name, parent=parent,
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 excluded=np.frombuffer(self.excluded, dtype=np.float64))


def traced_call(tracer: Tracer, name: str, fn, after=None):
    """Wrap ``fn`` so each call is one span; ``after(args, kwargs, result)``
    then updates counters as tracer bookkeeping."""
    nid = tracer.intern(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = tracer.open(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(sid)
        if after is not None:
            tracer.bookkeeping(after, args, kwargs, result)
        return result

    return wrapper


def traced_generator(tracer: Tracer, name: str, fn, before=None):
    """Wrap a generator function: producing each item (and the final
    StopIteration) is one span, so the time goes to the generator and not
    to the loop consuming it."""
    nid = tracer.intern(name)
    calls, items = name + ".calls", name + ".yielded"

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[calls] += 1
        if before is not None:
            tracer.bookkeeping(before, args, kwargs)
        it = fn(*args, **kwargs)
        while True:
            sid = tracer.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(sid)
            tracer.counts[items] += 1
            yield item

    return wrapper


class _TracedFft:
    """Stand-in for ``numpy.fft`` whose transforms record ``dnls.fft`` spans."""

    def __init__(self, tracer: Tracer, fft_module):
        self._fft = fft_module
        self._wrapped = {}
        self._tracer = tracer

    def __getattr__(self, attr):
        fn = self._wrapped.get(attr)
        if fn is None:
            fn = self._wrapped[attr] = traced_call(self._tracer, "dnls.fft",
                                                   getattr(self._fft, attr))
        return fn


class _TracedNumpy:
    """Stand-in for the ``np`` name inside ``wickfield.dnls``: ``fft`` is
    traced, every other attribute is numpy's own."""

    def __init__(self, tracer: Tracer, numpy_module):
        self._np = numpy_module
        self.fft = _TracedFft(tracer, numpy_module.fft)

    def __getattr__(self, attr):
        return getattr(self._np, attr)


@functools.lru_cache(maxsize=None)
def _bell(n: int) -> int:
    from wickfield.partitions import bell_number
    return bell_number(n)


@contextlib.contextmanager
def instrument(tracer: Tracer, cli_entry=None):
    """Install every layer wrapper; restore the originals on exit.

    ``cli_entry`` is an (owner, attribute) pair naming the benchmark's own
    function that invokes a CLI command; its span is ``cli.command``.
    """
    import wickfield.cli as cli
    import wickfield.clustering as clustering
    import wickfield.cumulants as cumulants
    import wickfield.dnls as dnls
    import wickfield.fields as fields
    import wickfield.reports as reports
    from wickfield.indexing import canonical, seq_sort_key

    saved = []

    # A name the package no longer defines is skipped, so the benchmark keeps
    # running across refactors; its metrics then read zero.
    def patch(owner, attr, wrap):
        if attr in owner.__dict__:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))

    def call(owner, attr, name, after=None):
        patch(owner, attr, lambda fn: traced_call(tracer, name, fn, after))

    counts = tracer.counts
    if cli_entry is not None:
        call(*cli_entry, "cli.command")

    # partitions, as referenced by cumulants and clustering
    def restricted_shape(args, kwargs):
        groups = args[0]
        tail = args[1] if len(args) > 1 else kwargs.get("tail", ())
        lengths = tuple(len(g) for g in groups)
        tracer.distinct("partitions.enumerate_restricted.shapes", (lengths, len(tail)))
        counts["partitions.enumerate_restricted.candidates"] += _bell(sum(lengths) + len(tail))

    for module in (cumulants, clustering):
        patch(module, "enumerate_partitions",
              lambda fn: traced_generator(tracer, "partitions.enumerate_partitions", fn))
    patch(cumulants, "enumerate_restricted",
          lambda fn: traced_generator(tracer, "partitions.enumerate_restricted", fn,
                                      before=restricted_shape))

    # cumulants
    def memo_key(args, kwargs, result):
        variables = tuple(canonical(mono) for mono in args[1])
        tracer.distinct("cumulants.joint_cumulant.distinct_keys",
                        tuple(sorted(variables, key=seq_sort_key)))

    call(cumulants, "wick_product_expectation", "cumulants.wick_product_expectation")
    call(cumulants.CumulantTable, "joint_cumulant", "cumulants.joint_cumulant",
         after=memo_key)

    # fields: moment and covariance on every provider class that defines them
    for cls in vars(fields).values():
        if isinstance(cls, type) and issubclass(cls, cumulants.MomentProvider) \
                and cls.__module__ == fields.__name__:
            for attr in ("moment", "covariance"):
                call(cls, attr, f"fields.{attr}")
    call(fields, "check_psd", "fields.check_psd")
    call(fields, "sample_ensemble", "fields.sample_ensemble")
    for attr in ("sinc_coupling_example", "random_discrete_field"):
        call(cli, attr, f"fields.{attr}")

    # clustering
    def kernel_entries(args, kwargs, result):
        counts["clustering.phi_kernel.entries"] += len(getattr(result, "values", result))

    call(clustering, "phi_kernel", "clustering.phi_kernel", after=kernel_entries)
    call(clustering, "clustering_norm", "clustering.clustering_norm")
    call(clustering, "magnitude_constants", "clustering.magnitude_constants")
    for owner, attr in ((cli, "theorem41_check"), (cli, "lemma_check"),
                        (cli, "joint_theorem_check"),
                        (clustering, "joint_theorem_check")):
        patch(owner, attr, lambda fn, attr=attr: _check_by_kind(tracer, attr, fn))

    # dnls: stepping, sampling, and numpy.fft as dnls sees it
    def nominal_steps(args, kwargs, result):
        state, until, config = args[:3]
        counts["dnls.evolve.steps"] += round(abs(until - state.t) / config.dt)

    call(dnls, "evolve", "dnls.evolve", after=nominal_steps)
    call(dnls, "sample_initial", "dnls.sample_initial")
    for attr in ("correlation_series", "duhamel_residual", "fit_residual_constant"):
        call(cli, attr, f"dnls.{attr}")
    patch(dnls, "np", lambda module: _TracedNumpy(tracer, module))

    # reports
    call(reports.BoundReport, "to_record", "reports.to_record")

    try:
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _check_by_kind(tracer: Tracer, attr: str, fn):
    """Certifier wrapper whose span name records whether the provider (the
    first argument) is Gaussian."""
    gaussian = tracer.intern(f"clustering.{attr}[gaussian]")
    other = tracer.intern(f"clustering.{attr}[nongaussian]")

    @functools.wraps(fn)
    def wrapper(provider, *args, **kwargs):
        sid = tracer.open(gaussian if provider.is_gaussian else other)
        try:
            return fn(provider, *args, **kwargs)
        finally:
            tracer.close(sid)

    return wrapper


def layer_metrics(tracer: Tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced pass, as (value, unit) pairs;
    a layer the workload never reaches reports zeros."""
    spans = tracer.summary()
    counts = tracer.counts
    zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

    def span(name):
        return spans.get(name, zero)

    def distinct(label):
        return len(tracer.keys.get(label, ()))

    def checks_total(kind):
        return sum(v["total_s"] for n, v in spans.items()
                   if n.startswith("clustering.") and n.endswith(f"[{kind}]"))

    restricted = "partitions.enumerate_restricted"
    candidates = counts[restricted + ".candidates"]
    yielded = counts[restricted + ".yielded"]
    steps = counts["dnls.evolve.steps"]
    m = {
        restricted + ".calls": (counts[restricted + ".calls"], "count"),
        restricted + ".shapes": (distinct(restricted + ".shapes"), "count"),
        restricted + ".candidates": (candidates, "count"),
        restricted + ".yielded": (yielded, "count"),
        restricted + ".yield_ratio": (yielded / candidates if candidates else 0.0, "ratio"),
        restricted + ".self_s": (span(restricted)["self_s"], "s"),
        "partitions.enumerate_partitions.calls":
            (counts["partitions.enumerate_partitions.calls"], "count"),
        "partitions.enumerate_partitions.self_s":
            (span("partitions.enumerate_partitions")["self_s"], "s"),
    }
    for name in ("cumulants.wick_product_expectation", "cumulants.joint_cumulant",
                 "fields.moment", "fields.covariance", "clustering.phi_kernel",
                 "clustering.clustering_norm", "dnls.evolve", "dnls.fft"):
        m[name + ".calls"] = (span(name)["calls"], "count")
        m[name + ".self_s"] = (span(name)["self_s"], "s")
    m["cumulants.joint_cumulant.distinct_keys"] = (
        distinct("cumulants.joint_cumulant.distinct_keys"), "count")
    for name in ("fields.sample_ensemble", "fields.check_psd", "dnls.correlation_series",
                 "dnls.sample_initial", "dnls.duhamel_residual"):
        m[name + ".self_s"] = (span(name)["self_s"], "s")
    m["clustering.phi_kernel.entries"] = (counts["clustering.phi_kernel.entries"], "count")
    m["clustering.magnitude_constants.calls"] = (
        span("clustering.magnitude_constants")["calls"], "count")
    m["clustering.checks.total_s.gaussian"] = (checks_total("gaussian"), "s")
    m["clustering.checks.total_s.nongaussian"] = (checks_total("nongaussian"), "s")
    m["dnls.evolve.steps"] = (steps, "count")
    m["dnls.step_ms"] = (1e3 * span("dnls.evolve")["total_s"] / steps if steps else 0.0, "ms")
    m["cli.self_s"] = (span("cli.command")["self_s"], "s")
    m["reports.to_record.calls"] = (span("reports.to_record")["calls"], "count")
    m["trace.spans"] = (len(tracer.start), "count")
    m["trace.untraced_wall_s"] = (untraced_s, "s")
    m["trace.traced_wall_s"] = (traced_s, "s")
    m["trace.overhead_s"] = (traced_s - untraced_s, "s")
    return m
