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
import sys
import time
from dataclasses import asdict, fields
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
    check_psd,
    field_from_config,
    random_discrete_field,
    sinc_coupling_example,
)
from .partitions import verify_comb_est
from .reports import SCHEMA_VERSION


def _write_manifest(out: Path, subcommand: str, config_path, seed, started: float):
    manifest = {
        "schema_version": SCHEMA_VERSION,
        "subcommand": subcommand,
        "config": str(config_path) if config_path else None,
        "seed": seed,
        "tool_version": __version__,
        "wall_clock_s": round(time.time() - started, 3),
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))


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
    """Report a config the body rejects as one line and exit with code 2.

    Commands read their config in this block before they make the output
    directory, so a bad config leaves nothing behind.
    """
    try:
        yield
    except (TypeError, ValueError) as exc:
        click.echo(f"Error: {config_path}: {exc}", err=True)
        sys.exit(2)


def _write_reports(out: Path, name: str, reports):
    path = out / f"{name}.json"
    records = [r.to_record() for r in reports]
    for rec in records:
        rec["manifest"] = "manifest.json"
    path.write_text(json.dumps(records, indent=2, sort_keys=True))
    return all(r.flag for r in reports)


@click.group(context_settings={"auto_envvar_prefix": "WICKFIELD"})
def main():
    """Cumulant clustering-bound verification toolkit."""


@main.command("partition-stats")
@click.option("--n-max", default=6, show_default=True,
              help="Check the factorial partition sum bound for n = 1..n_max.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
def cmd_partition_stats(n_max, out):
    """Factorial-partition-sum bound sum_pi prod |S|! <= (2n)! e^(2n)."""
    started = time.time()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    reports = [verify_comb_est(n) for n in range(1, n_max + 1)]
    with open(out / "partition_stats.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["n", "lhs", "rhs", "ratio", "flag"])
        for rep in reports:
            writer.writerow([rep.witnesses["n"], f"{rep.lhs:.6g}",
                             f"{rep.rhs:.6g}", f"{rep.ratio:.6g}", rep.flag])
    ok = _write_reports(out, "partition_stats", reports)
    _write_manifest(out, "partition-stats", None, None, started)
    click.echo(f"partition-stats: {'all bounds hold' if ok else 'BOUND VIOLATION'}")
    sys.exit(0 if ok else 1)


@main.command("verify-bounds")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="Field config JSON; defaults to the band-limited "
              "coupling example plus random discrete providers.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--max-order", default=2, show_default=True,
              help="Check (m, n) up to this order.")
@click.option("--rhs-scale", default=1.0, hidden=True,
              help="Test hook: scale every RHS before flagging.")
def cmd_verify_bounds(config_path, out, seed, max_order, rhs_scale):
    """Certify the covariance and joint-cumulant bounds on example fields."""
    started = time.time()
    out = Path(out)
    if config_path:
        with _config_errors(config_path):
            spectral = field_from_config(_read_config(config_path))
    else:
        spectral = sinc_coupling_example()
    out.mkdir(parents=True, exist_ok=True)
    reports = []

    radius = 200
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

    for rep in reports:
        rep.rhs *= rhs_scale
    ok = _write_reports(out, "bound_reports", reports)
    _write_manifest(out, "verify-bounds", config_path, seed, started)
    click.echo(f"verify-bounds: {len(reports)} checks, "
               f"{'all flags true' if ok else 'FLAG FALSE'}")
    sys.exit(0 if ok else 1)


@main.command("example-gaussian")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--radius", default=10_000, show_default=True)
def cmd_example_gaussian(out, radius):
    """The band-limited coupling pair: divergent l1 sum, finite l2 sum, PSD."""
    started = time.time()
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    fieldg = sinc_coupling_example()
    schedule = [r for r in (100, 1000, 10_000, radius) if r <= radius]
    schedule = sorted(set(schedule))
    probe1 = l1_divergence_probe(fieldg, schedule, exponent=1)
    probe2 = l1_divergence_probe(fieldg, schedule, exponent=2)
    with open(out / "partial_sums.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["radius", "l1_partial_sum", "l2_partial_sum"])
        for (r, s1), (_, s2) in zip(probe1.rows, probe2.rows):
            writer.writerow([r, f"{s1:.8g}", f"{s2:.8g}"])
    psd_ok = check_psd(fieldg.f1_hat, fieldg.f2_hat, fieldg.g_hat)
    record = {
        "schema_version": SCHEMA_VERSION,
        "psd_check": psd_ok,
        "l1_divergence_coefficient": probe1.odd_harmonic_coefficient,
        "l1_slope_vs_log_radius": probe1.slope_vs_log_radius,
        "l2_limit_estimate": probe2.rows[-1][1],
        "expected": {"coefficient": 2 / math.pi, "l2_limit": 0.5},
        "manifest": "manifest.json",
    }
    (out / "gaussian_example.json").write_text(json.dumps(record, indent=2))
    _write_manifest(out, "example-gaussian", None, None, started)
    ok = psd_ok and abs(probe2.rows[-1][1] - 0.5) < 1e-3 \
        and abs(probe1.odd_harmonic_coefficient - 2 / math.pi) < 0.05 * 2 / math.pi
    click.echo(f"example-gaussian: {'ok' if ok else 'MISMATCH'} "
               f"(l2 -> {probe2.rows[-1][1]:.5f}, "
               f"coefficient {probe1.odd_harmonic_coefficient:.5f})")
    sys.exit(0 if ok else 1)


@main.command("dnls-demo")
@click.option("--config", "config_path", type=click.Path(exists=True),
              default=None, help="DNLS config JSON.")
@click.option("--out", type=click.Path(file_okay=False), default="out",
              show_default=True)
@click.option("--seed", default=1, show_default=True,
              help="Overrides the config's seed when given explicitly.")
def cmd_dnls_demo(config_path, out, seed):
    """Duhamel residual of the time-correlation against harmonic transport."""
    started = time.time()
    out = Path(out)
    couplings = [0.0, 0.01, 0.02, 0.05]
    if config_path:
        with _config_errors(config_path):
            raw = _read_config(config_path)
            couplings = raw.pop("couplings", couplings)
            if not (isinstance(couplings, list) and couplings and all(
                    isinstance(c, (int, float)) and not isinstance(c, bool)
                    and math.isfinite(c) and c >= 0 for c in couplings)):
                raise ValueError("couplings must be a non-empty list of "
                                 "finite numbers >= 0")
            # an explicit --seed (command line or environment) beats the config's
            source = click.get_current_context().get_parameter_source("seed")
            if source is not ParameterSource.DEFAULT:
                raw["seed"] = seed
            unknown = sorted(set(raw) - {f.name for f in fields(DnlsConfig)})
            if unknown:
                raise ValueError(f"unknown key(s) {', '.join(map(repr, unknown))}")
            base = DnlsConfig(**raw)
    else:
        base = DnlsConfig(seed=seed)
    out.mkdir(parents=True, exist_ok=True)

    all_rows = []
    fits = {}
    for lam in couplings:
        cfg = DnlsConfig(**{**asdict(base), "coupling": lam, "seed": base.seed})
        horizon = 50.0 if lam == 0 else min(50.0, 1.0 / lam)
        times = np.linspace(0.0, horizon, 11)
        times = [round(t / cfg.dt) * cfg.dt for t in times]
        series = correlation_series(cfg, times)
        rows = duhamel_residual(series, cfg)
        all_rows.extend(rows)
        if lam > 0:
            fits[lam] = fit_residual_constant(rows, lam, t_max=1.0 / lam)
    with open(out / "duhamel_residuals.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "coupling", "residual", "noise_scale"])
        for row in all_rows:
            writer.writerow([f"{row['t']:.6g}", row["coupling"],
                             f"{row['residual']:.8g}", f"{row['noise_scale']:.8g}"])
    sidecar = {
        "schema_version": SCHEMA_VERSION,
        "config": asdict(base),
        "couplings": couplings,
        "fitted_constants": fits,
        "run_hash": base.run_hash(),
        "manifest": "manifest.json",
    }
    (out / "dnls_run.json").write_text(json.dumps(sidecar, indent=2))
    _write_manifest(out, "dnls-demo", config_path, base.seed, started)

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
    ok = zero_msg == "ok" and not fit_msg
    click.echo(f"dnls-demo: lambda=0 residuals {zero_msg}; "
               f"fitted C per lambda: {fits}{fit_msg}")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
