"""The benchmark's three workloads.

Each workload builds its inputs from the seed (``setup``), runs one timed
pass through the public CLI or library (``run``), and then, outside the
timed region, turns the pass's outputs into named pass/fail items
(``check``), a fingerprint for traced-versus-untraced comparison and a
flat dict of values for comparison against the recorded reference.

Library calls go through module attributes (``clustering.joint_theorem_check``
rather than a name bound at import), so the traced run sees them.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import wickfield.cli as cli
from wickfield import clustering, cumulants, dnls, fields
from wickfield.indexing import SiteRef, canonical


def invoke_cli(argv) -> int:
    """Run one CLI command in-process and return its exit code."""
    try:
        cli.main.main(list(argv), standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    return 0


def close(a: complex, b: complex, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
    return abs(a - b) <= rtol * abs(b) + atol


@dataclass
class Pass:
    """What one pass left behind: an exit code, an output directory and,
    for library workloads, the returned objects."""

    exit_code: int = 0
    out: Path | None = None
    value: object = None


# ---------------------------------------------------------------------------
# verify-order3: `wickfield verify-bounds --max-order 3 --seed <seed>`


class VerifyOrder3:
    name = "verify-order3"
    reference_seed = 0

    def __init__(self, max_order: int = 3, warmup_order: int = 2):
        self.max_order = max_order
        self.warmup_order = warmup_order

    def checks_per_pass(self, k: int) -> int:
        # per order n and p in {1,2}: theorem41 + lemma on the spectral pair;
        # per (m, n, p): the joint check on the spectral pair and 5 discrete
        # providers
        return 4 * k + 12 * k * k

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "workdir": workdir,
                "argv": ["verify-bounds", "--max-order", str(self.max_order),
                         "--seed", str(seed)]}

    def warmup(self, inputs) -> Pass:
        out = inputs["workdir"] / "warmup"
        code = invoke_cli(["verify-bounds", "--max-order", str(self.warmup_order),
                           "--seed", str(inputs["seed"]), "--out", str(out)])
        return Pass(code, out)

    def run(self, inputs, tag: str) -> Pass:
        out = inputs["workdir"] / tag
        return Pass(invoke_cli(inputs["argv"] + ["--out", str(out)]), out)

    def work(self, inputs) -> float:
        return float(self.checks_per_pass(self.max_order))

    def _records(self, result: Pass):
        return json.loads((result.out / "bound_reports.json").read_text())

    def check(self, result: Pass, inputs) -> list:
        items = [("exit code 0", result.exit_code == 0)]
        records = self._records(result)
        items.append(("report count", len(records) == self.checks_per_pass(self.max_order)))
        for i, rec in enumerate(records):
            ok = rec["flag"] is True and math.isfinite(rec["lhs"]) and math.isfinite(rec["rhs"])
            items.append((f"report {i} {rec['id']} flag", ok))
        return items

    def fingerprint(self, result: Pass):
        return (result.exit_code, (result.out / "bound_reports.json").read_bytes())

    def values(self, result: Pass) -> dict:
        return {f"{i}:{rec['id']}": [rec["lhs"], rec["rhs"]]
                for i, rec in enumerate(self._records(result))}

    def spot_checks(self, inputs, result: Pass) -> list:
        """A few Phi_n entries against explicit Wick-polynomial products."""
        seed = inputs["seed"]
        rng = np.random.default_rng(seed)
        sinc = fields.sinc_coupling_example()
        # the first discrete provider verify-bounds draws for this seed
        discrete = fields.random_discrete_field(
            np.random.default_rng(seed),
            sites=[("psi", 0), ("psi", 1), ("phi", 0), ("phi", 1)])
        cases = []
        sinc_box = [("phi", x) for x in range(-3, 4)]
        for n in (2, 3):
            xprime = tuple(("phi", 0) for _ in range(n))
            for _ in range(2):
                x = tuple(sinc_box[i] for i in rng.integers(0, len(sinc_box), n))
                cases.append((sinc, n, xprime, x))
        disc_box = [("phi", 0), ("phi", 1)]
        for _ in range(4):
            xprime = tuple(disc_box[i] for i in rng.integers(0, 2, 2))
            x = tuple(disc_box[i] for i in rng.integers(0, 2, 2))
            cases.append((discrete, 2, xprime, x))
        items = []
        for provider, n, xprime, x in cases:
            row = clustering.phi_kernel(provider, n, xprime, list(dict.fromkeys(x)))
            row = getattr(row, "values", row)
            left = tuple(SiteRef(s, True) for s in xprime)
            right = tuple(SiteRef(s) for s in x)
            direct = (cumulants.wick_expansion(provider, left)
                      * cumulants.wick_expansion(provider, right)).expectation(provider)
            items.append((f"Phi_{n}{xprime}{x} vs Wick product",
                          close(row[x], direct)))
        return items


# ---------------------------------------------------------------------------
# dnls-transport: `wickfield dnls-demo --config <file>` at the default lattice


DNLS_COUPLINGS = (0.0, 0.01, 0.02, 0.05)


def dnls_nominal_steps(config: dnls.DnlsConfig, couplings) -> int:
    """Steps the demo takes: each coupling runs to 50, or to 1/lambda when
    that is sooner, on the dt grid."""
    total = 0
    for lam in couplings:
        horizon = 50.0 if lam == 0 else min(50.0, 1.0 / lam)
        total += round(horizon / config.dt)
    return total


class DnlsTransport:
    name = "dnls-transport"
    reference_seed = 0

    def __init__(self, n_samples: int = 2000, warmup_until: float = 5.0):
        self.n_samples = n_samples
        self.warmup_until = warmup_until

    def setup(self, seed: int, workdir: Path) -> dict:
        workdir.mkdir(parents=True, exist_ok=True)
        # dnls-demo ignores --seed when --config is given, so the seed goes
        # into the config file and check() asserts that the run echoes it
        config = {"n_samples": self.n_samples, "seed": seed}
        path = workdir / "dnls.json"
        path.write_text(json.dumps(config))
        return {"seed": seed, "workdir": workdir, "config": dnls.DnlsConfig(**config),
                "argv": ["dnls-demo", "--config", str(path)]}

    def warmup(self, inputs) -> Pass:
        cfg = dnls.DnlsConfig(n_samples=self.n_samples, seed=inputs["seed"],
                              coupling=DNLS_COUPLINGS[-1])
        dnls.correlation_series(cfg, np.linspace(0.0, self.warmup_until, 11))
        return Pass()

    def run(self, inputs, tag: str) -> Pass:
        out = inputs["workdir"] / tag
        return Pass(invoke_cli(inputs["argv"] + ["--out", str(out)]), out)

    def work(self, inputs) -> float:
        cfg = inputs["config"]
        sites = cfg.length ** cfg.dimension
        return float(cfg.n_samples * sites * dnls_nominal_steps(cfg, DNLS_COUPLINGS))

    def _outputs(self, result: Pass):
        with open(result.out / "duhamel_residuals.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        sidecar = json.loads((result.out / "dnls_run.json").read_text())
        return rows, sidecar

    def check(self, result: Pass, inputs) -> list:
        items = [("exit code 0", result.exit_code == 0)]
        rows, sidecar = self._outputs(result)
        items.append(("seed echoed in dnls_run.json",
                      sidecar["config"]["seed"] == inputs["seed"]))
        items.append(("residual row count", len(rows) == 11 * len(DNLS_COUPLINGS)))
        for row in rows:
            res, noise = float(row["residual"]), float(row["noise_scale"])
            ok = math.isfinite(res) and math.isfinite(noise)
            if float(row["coupling"]) == 0.0:
                ok = ok and res <= 3 * noise + 1e-12
            items.append((f"residual row t={row['t']} lambda={row['coupling']}", ok))
        cvals = list(sidecar["fitted_constants"].values())
        fitted = sum(1 for lam in DNLS_COUPLINGS if lam > 0)
        spread_ok = len(cvals) == fitted and all(c > 0 for c in cvals) \
            and max(cvals) - min(cvals) <= 0.25 * max(cvals)
        items.append(("fitted C spread gate", spread_ok))
        return items

    def fingerprint(self, result: Pass):
        return (result.exit_code,
                (result.out / "duhamel_residuals.csv").read_bytes(),
                (result.out / "dnls_run.json").read_bytes())

    def values(self, result: Pass) -> dict:
        rows, sidecar = self._outputs(result)
        out = {f"row t={r['t']} lambda={r['coupling']}":
               [float(r["residual"]), float(r["noise_scale"])] for r in rows}
        out.update({f"C lambda={lam}": [c] for lam, c in sidecar["fitted_constants"].items()})
        return out

    def spot_checks(self, inputs, result: Pass) -> list:
        return []


# ---------------------------------------------------------------------------
# ensemble-norms: library run over a sampled ensemble of the sinc pair


class EnsembleNorms:
    name = "ensemble-norms"
    reference_seed = 0

    def __init__(self, box: int = 6, n_samples: int = 20_000, max_order: int = 3,
                 warmup_samples: int = 2000, warmup_order: int = 2):
        self.box = box
        self.n_samples = n_samples
        self.max_order = max_order
        self.warmup_samples = warmup_samples
        self.warmup_order = warmup_order

    def setup(self, seed: int, workdir: Path) -> dict:
        return {"seed": seed, "workdir": workdir,
                "field": fields.sinc_coupling_example(),
                "psi": [("psi", x) for x in range(self.box)],
                "phi": [("phi", x) for x in range(self.box)]}

    def _pass(self, inputs, n_samples: int, k: int) -> Pass:
        est = fields.sample_ensemble(inputs["field"], box=self.box,
                                     n_samples=n_samples, seed=inputs["seed"])
        table = cumulants.CumulantTable(est)
        magnitudes = {p: clustering.magnitude_constants(est, p, 2 * k, inputs["psi"],
                                                        table=table)
                      for p in (1.0, math.inf)}
        reports = [clustering.joint_theorem_check(est, m, n, 1, inputs["psi"][:2],
                                                  inputs["phi"], table=table)
                   for m in range(1, k + 1) for n in range(1, k + 1)]
        return Pass(value=(est, table, magnitudes, reports))

    def warmup(self, inputs) -> Pass:
        return self._pass(inputs, self.warmup_samples, self.warmup_order)

    def run(self, inputs, tag: str) -> Pass:
        return self._pass(inputs, self.n_samples, self.max_order)

    def work(self, inputs) -> float:
        return float(self.max_order ** 2)

    def check(self, result: Pass, inputs) -> list:
        _, _, magnitudes, reports = result.value
        items = [("report count", len(reports) == self.max_order ** 2)]
        for rep in reports:
            w = rep.witnesses
            ok = rep.flag and math.isfinite(rep.lhs) and math.isfinite(rep.rhs)
            items.append((f"joint m={w['m']} n={w['n']} p=1 flag", ok))
        for p, mc in magnitudes.items():
            vals = mc.values
            ok = len(vals) == 2 * self.max_order and all(map(math.isfinite, vals)) \
                and all(a <= b for a, b in zip(vals, vals[1:]))
            items.append((f"magnitude constants p={p}", ok))
        return items

    def fingerprint(self, result: Pass):
        _, _, magnitudes, reports = result.value
        return ({p: mc.values for p, mc in magnitudes.items()},
                [(r.lhs, r.rhs, r.flag) for r in reports])

    def values(self, result: Pass) -> dict:
        _, _, magnitudes, reports = result.value
        out = {f"M p={p}": list(mc.values) for p, mc in magnitudes.items()}
        out.update({f"joint m={r.witnesses['m']} n={r.witnesses['n']}": [r.lhs, r.rhs]
                    for r in reports})
        return out

    def spot_checks(self, inputs, result: Pass) -> list:
        """moments_from_cumulants over the shared table reproduces the
        estimator's own moments."""
        est, table, _, _ = result.value
        rng = np.random.default_rng(inputs["seed"])
        sites = inputs["psi"] + inputs["phi"]
        items = []
        for order in (2, 3, 4, 4):
            seq = canonical(SiteRef(sites[i]) for i in rng.integers(0, len(sites), order))
            direct = est.moment(seq)
            rebuilt = cumulants.moments_from_cumulants(table, seq)
            items.append((f"moment round trip {seq}",
                          abs(rebuilt - direct) <= 1e-10 * max(1.0, abs(direct))))
        return items


WORKLOADS = {w.name: w for w in (VerifyOrder3(), DnlsTransport(), EnsembleNorms())}
