"""The benchmark's own tests: exact counts repeat, tracing changes no
output, and the benchmark refuses to run without the package sources.

    python3 -m pytest -q perfbench/test_determinism.py

The workloads run here at reduced sizes so the file finishes in seconds;
the counted structure is the same as at benchmark size.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402,F401  (pins thread pools before numpy is imported)
import tracing  # noqa: E402
import workloads  # noqa: E402
import wickfield.cumulants as cumulants  # noqa: E402
import wickfield.dnls as dnls  # noqa: E402

SMALL = [
    workloads.VerifyOrder3(max_order=2, warmup_order=1),
    workloads.DnlsTransport(n_samples=64, warmup_until=1.0),
    workloads.EnsembleNorms(n_samples=2000, max_order=2, warmup_samples=500,
                            warmup_order=1),
]
SEED = 3


def traced_pass(workload, inputs, tag):
    tracer = tracing.Tracer()
    with tracing.instrument(tracer, cli_entry=(workloads, "invoke_cli")):
        result = workload.run(inputs, tag)
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    exact = {name: value for name, (value, unit) in metrics.items()
             if unit in ("count", "ratio")}
    return result, exact


@pytest.mark.parametrize("workload", SMALL, ids=lambda w: w.name)
def test_counts_repeat_and_tracing_changes_no_output(workload, tmp_path):
    inputs = workload.setup(SEED, tmp_path)
    originals = (cumulants.enumerate_restricted, cumulants.CumulantTable.joint_cumulant,
                 dnls.np, workloads.invoke_cli)
    plain = workload.run(inputs, "plain")
    first, counts_first = traced_pass(workload, inputs, "traced-1")
    second, counts_second = traced_pass(workload, inputs, "traced-2")

    assert counts_first == counts_second
    assert counts_first["trace.spans"] > 0
    for result in (plain, first, second):
        failed = [label for label, ok in workload.check(result, inputs) if not ok]
        assert not failed
    assert workload.fingerprint(first) == workload.fingerprint(plain)
    assert workload.fingerprint(second) == workload.fingerprint(plain)
    assert (cumulants.enumerate_restricted, cumulants.CumulantTable.joint_cumulant,
            dnls.np, workloads.invoke_cli) == originals


def test_restricted_counts_match_enumeration(tmp_path):
    """Counts made from the generator's inputs agree with a direct count."""
    from wickfield.partitions import enumerate_partitions, enumerate_restricted

    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        yielded = sum(1 for _ in cumulants.enumerate_restricted([(0, 1), (2, 3)], (4,)))
    metrics = tracing.layer_metrics(tracer, 0.0, 0.0)
    assert yielded == sum(1 for _ in enumerate_restricted([(0, 1), (2, 3)], (4,)))
    assert metrics["partitions.enumerate_restricted.yielded"][0] == yielded
    assert metrics["partitions.enumerate_restricted.candidates"][0] == \
        sum(1 for _ in enumerate_partitions(5))
    assert metrics["partitions.enumerate_restricted.calls"][0] == 1
    assert metrics["partitions.enumerate_restricted.shapes"][0] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-order3",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_instrument_skips_names_the_package_no_longer_defines(monkeypatch):
    import wickfield.clustering as clustering

    monkeypatch.delattr(clustering, "enumerate_partitions")
    tracer = tracing.Tracer()
    with tracing.instrument(tracer):
        assert not hasattr(clustering, "enumerate_partitions")
        assert tracer.names  # the other layers were still instrumented
    assert not hasattr(clustering, "enumerate_partitions")
