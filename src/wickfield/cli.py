"""Batch front end: verification suites and worked-example reproductions.

Subcommands emit JSON bound reports and CSV tables into an output directory,
plus a run manifest.  Exit code is 0 iff every emitted flag is true.  Flags
can be overridden by environment variables with the ``WICKFIELD_`` prefix.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import time
from dataclasses import asdict, fields, replace
from pathlib import Path

import click
import numpy as np
from click.core import ParameterSource

from . import __version__
from .clustering import (
    Observable,
    joint_theorem_check,
    l1_divergence_probe,
    lemma_check,
    theorem41_check,
)
from .cumulants import CumulantTable
from .dnls import (
    DnlsConfig,
    correlation_series,
    duhamel_residual,
    fit_residual_constant,
)
from .fields import (
    FiniteDiscreteField,
    check_psd,
    field_from_config,
    is_finite_number,
    random_discrete_field,
    reject_unknown_keys,
    sinc_coupling_example,
)
from .partitions import verify_comb_est
from .reports import SCHEMA_VERSION


def _read_config(path) -> dict:
    """The JSON object in a config file; ValueError if there is none."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"invalid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    return raw


@contextlib.contextmanager
def _config_errors(config_path):
    """Report a config the body rejects or cannot allocate in one line; exit 2.

    Nothing is written before ``_finish``, so a bad config leaves nothing
    behind.
    """
    try:
        yield
    except (TypeError, ValueError, MemoryError) as exc:
        click.echo(f"Error: {config_path}: {exc}", err=True)
        sys.exit(2)


def _finish(out, subcommand: str, started: float, ok: bool, summary: str, *,
            config_path=None, seed=None, reports=None, sidecar=None, table=None):
    """Write a finished command's outputs, echo its summary and exit.

    This is the only place a command writes: ``out`` is made here, after the
    computation, so a command that fails part-way leaves nothing behind.
    ``reports`` is (name, BoundReports), ``sidecar`` is (name, dict) and
    ``table`` is (name, header, rows); every JSON data file points at the
    manifest.  The exit code is 0 iff ``ok``.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    if reports is not None:
        name, items = reports
        records = [{**r.to_record(), "manifest": "manifest.json"} for r in items]
        (out / f"{name}.json").write_text(json.dumps(records, indent=2, sort_keys=True))
    if sidecar is not None:
        name, record = sidecar
        record = {"schema_version": SCHEMA_VERSION, **record, "manifest": "manifest.json"}
        (out / f"{name}.json").write_text(json.dumps(record, indent=2))
    if table is not None:
        name, header, rows = table
        with open(out / f"{name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": str(config_path) if config_path else None,
        "seed": seed,
        "tool_version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
        "environment": {"python": ".".join(map(str, sys.version_info)),
                        "numpy": np.__version__, "cpu_count": os.cpu_count()},
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    click.echo(f"{subcommand}: {summary}")
    sys.exit(0 if ok else 1)


@click.group(context_settings={"auto_envvar_prefix": "WICKFIELD"})
def main():
    """Cumulant clustering-bound verification toolkit."""


@main.command("partition-stats")
@click.option("--n-max", type=click.IntRange(min=1), default=6, show_default=True,
              help="Check the factorial partition sum bound for n = 1..n_max.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
def cmd_partition_stats(n_max, out):
    """Factorial-partition-sum bound sum_pi prod |S|! <= (2n)! e^(2n)."""
    started = time.time()
    reports = [verify_comb_est(n) for n in range(1, n_max + 1)]
    rows = [[rep.witnesses["n"], f"{rep.lhs:.6g}", f"{rep.rhs:.6g}",
             f"{rep.ratio:.6g}", rep.flag] for rep in reports]
    ok = all(rep.flag for rep in reports)
    _finish(out, "partition-stats", started, ok,
            "all bounds hold" if ok else "BOUND VIOLATION",
            reports=("partition_stats", reports),
            table=("partition_stats", ["n", "lhs", "rhs", "ratio", "flag"], rows))


@main.command("verify-bounds")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="Field config JSON; defaults to the band-limited "
              "coupling example plus random discrete providers.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=0, show_default=True)
# the discrete providers' checks take cumulants of twice the order
@click.option("--max-order", type=click.IntRange(1, FiniteDiscreteField.max_order // 2),
              default=2, show_default=True, help="Check (m, n) up to this order.")
def cmd_verify_bounds(config_path, out, seed, max_order):
    """Certify the covariance and joint-cumulant bounds on example fields."""
    started = time.time()
    radius = 200
    if config_path:
        with _config_errors(config_path):
            spectral = field_from_config(_read_config(config_path))
            # the checks below pair sites up to 2 * radius apart; a config
            # field has closed forms for every pair or for none
            spectral.pair_covariance("psiphi", 2 * radius)
    else:
        spectral = sinc_coupling_example()
    reports = []

    phi_box = [("phi", x) for x in range(-radius, radius + 1)]
    psi_box = [("psi", x) for x in range(-radius, radius + 1)]
    norm_box = [("phi", x) for x in range(-20, 21)]
    psi_norm_box = [("psi", x) for x in range(-20, 21)]
    X = Observable.of_site(("psi", 0))
    # one memo per provider, shared by all of its checks
    table = CumulantTable(spectral)
    for n in range(1, max_order + 1):
        for p in (1, 2):
            reports.append(theorem41_check(
                spectral, X, n, p, phi_box, norm_box=norm_box, table=table))
            reports.append(lemma_check(
                spectral, n, p, tuple(("phi", 0) for _ in range(n)),
                norm_box if n == 1 else norm_box[15:26],
                norm_box=norm_box, table=table))
    for m in range(1, max_order + 1):
        for n in range(1, max_order + 1):
            for p in (1, 2):
                reports.append(joint_theorem_check(
                    spectral, m, n, p, psi_box, phi_box,
                    psi_norm_box=psi_norm_box, phi_norm_box=norm_box,
                    table=table))

    rng = np.random.default_rng(seed)
    for trial in range(5):
        sites = [("psi", 0), ("psi", 1), ("phi", 0), ("phi", 1)]
        fieldd = random_discrete_field(rng, sites=sites)
        table = CumulantTable(fieldd)
        psi_sites = sites[:2]
        phi_sites = sites[2:]
        for m in range(1, max_order + 1):
            for n in range(1, max_order + 1):
                for p in (1, 2):
                    reports.append(joint_theorem_check(
                        fieldd, m, n, p, psi_sites, phi_sites, table=table))

    ok = all(rep.flag for rep in reports)
    _finish(out, "verify-bounds", started, ok,
            f"{len(reports)} checks, {'all flags true' if ok else 'FLAG FALSE'}",
            config_path=config_path, seed=seed, reports=("bound_reports", reports))


@main.command("example-gaussian")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--radius", type=click.IntRange(min=101), default=10_000,
              show_default=True,
              help="Largest partial-sum radius; above 100, so the l1 fit has two radii.")
def cmd_example_gaussian(out, radius):
    """The band-limited coupling pair: divergent l1 sum, finite l2 sum, PSD."""
    started = time.time()
    fieldg = sinc_coupling_example()
    schedule = [r for r in (100, 1000, 10_000, radius) if r <= radius]
    schedule = sorted(set(schedule))
    probe1 = l1_divergence_probe(fieldg, schedule, exponent=1)
    probe2 = l1_divergence_probe(fieldg, schedule, exponent=2)
    rows = [[r, f"{s1:.8g}", f"{s2:.8g}"]
            for (r, s1), (_, s2) in zip(probe1.rows, probe2.rows)]
    psd_ok = check_psd(fieldg.f1_hat, fieldg.f2_hat, fieldg.g_hat)
    record = {
        "psd_check": psd_ok,
        "l1_divergence_coefficient": probe1.odd_harmonic_coefficient,
        "l1_slope_vs_log_radius": probe1.slope_vs_log_radius,
        "l2_limit_estimate": probe2.rows[-1][1],
        "expected": {"coefficient": 2 / math.pi, "l2_limit": 0.5},
    }
    ok = psd_ok and abs(probe2.rows[-1][1] - 0.5) < 1e-3 \
        and abs(probe1.odd_harmonic_coefficient - 2 / math.pi) < 0.05 * 2 / math.pi
    _finish(out, "example-gaussian", started, ok,
            f"{'ok' if ok else 'MISMATCH'} (l2 -> {probe2.rows[-1][1]:.5f}, "
            f"coefficient {probe1.odd_harmonic_coefficient:.5f})",
            sidecar=("gaussian_example", record),
            table=("partial_sums", ["radius", "l1_partial_sum", "l2_partial_sum"], rows))


def _dnls_times(coupling: float, dt: float) -> list:
    """The times dnls-demo records for one coupling: 11 points from 0 to
    min(50, 1/coupling), each rounded to the dt grid."""
    horizon = 50.0 if coupling == 0 else min(50.0, 1.0 / coupling)
    return [round(t / dt) * dt for t in np.linspace(0.0, horizon, 11)]


@main.command("dnls-demo")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="DNLS config JSON.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--seed", type=click.IntRange(min=0), default=1, show_default=True,
              help="Overrides the config's seed when given explicitly.")
def cmd_dnls_demo(config_path, out, seed):
    """Duhamel residual of the time-correlation against harmonic transport."""
    started = time.time()
    couplings = [0.0, 0.01, 0.02, 0.05]
    if config_path:
        with _config_errors(config_path):
            raw = _read_config(config_path)
            if "coupling" in raw:  # each run takes its own from couplings
                raise ValueError("coupling is not a config key; give the list couplings")
            couplings = raw.pop("couplings", couplings)
            if not (isinstance(couplings, list) and couplings and all(
                    is_finite_number(c) and c >= 0 for c in couplings)):
                raise ValueError("couplings must be a non-empty list of "
                                 "finite numbers >= 0")
            if 0 not in couplings:
                raise ValueError("couplings must include 0 for the lambda = 0 gate")
            # an explicit --seed (command line or environment) beats the config's
            source = click.get_current_context().get_parameter_source("seed")
            if source is not ParameterSource.DEFAULT:
                raw["seed"] = seed
            reject_unknown_keys(raw, {f.name for f in fields(DnlsConfig)})
            base = DnlsConfig(**raw)
            for lam in couplings:
                if lam > 0 and not any(0 < t <= 1.0 / lam
                                       for t in _dnls_times(lam, base.dt)):
                    raise ValueError(
                        f"couplings: {lam!r} leaves no recorded time in "
                        f"(0, 1/coupling] on the dt = {base.dt!r} grid to fit")
    else:
        base = DnlsConfig(seed=seed)

    all_rows = []
    fits = {}
    for lam in couplings:
        cfg = replace(base, coupling=lam)
        series = correlation_series(cfg, _dnls_times(lam, cfg.dt))
        rows = duhamel_residual(series)
        all_rows.extend(rows)
        if lam > 0:
            fits[lam] = fit_residual_constant(rows, lam, t_max=1.0 / lam)

    # A zero noise scale or fitted C means the ensemble carried no signal
    # (psi underflows when beta is huge); the gates would then hold vacuously.
    zero_rows = [r for r in all_rows if r["coupling"] == 0]
    cvals = list(fits.values())
    if not all(math.isfinite(r["noise_scale"]) and r["noise_scale"] > 0
               for r in zero_rows):
        zero_msg = "NOISE SCALE ZERO OR NOT FINITE"
    elif all(r["residual"] <= 3 * r["noise_scale"] + 1e-12 for r in zero_rows):
        zero_msg = "ok"
    else:
        zero_msg = "TOO LARGE"
    if not all(c > 0 for c in cvals):
        fit_msg = "; FITTED C NOT POSITIVE"
    elif cvals and max(cvals) - min(cvals) > 0.25 * max(cvals):
        fit_msg = "; FITTED C SPREAD ABOVE 25%"
    else:
        fit_msg = ""
    sidecar = {
        "config": asdict(base),
        "couplings": couplings,
        "fitted_constants": fits,
        "run_hash": base.run_hash(),
    }
    _finish(out, "dnls-demo", started, zero_msg == "ok" and not fit_msg,
            f"lambda=0 residuals {zero_msg}; fitted C per lambda: {fits}{fit_msg}",
            config_path=config_path, seed=base.seed, sidecar=("dnls_run", sidecar),
            table=("duhamel_residuals", ["t", "coupling", "residual", "noise_scale"],
                   [[f"{row['t']:.6g}", row["coupling"], f"{row['residual']:.8g}",
                     f"{row['noise_scale']:.8g}"] for row in all_rows]))


if __name__ == "__main__":
    main()
