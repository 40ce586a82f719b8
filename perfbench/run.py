"""wickfield benchmark: one closed-loop client driving the CLI and library.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload verify-order3 --seed 0 --seconds 30 --trace 0

With ``--trace 0`` the run measures set-up, a warm-up pass, then whole timed
passes for up to ``--seconds`` (at least one), and reports the end-to-end
metrics.  With ``--trace 1`` it runs one untraced and one traced pass and
reports the per-layer metrics and the tracing overhead.  Either way every
pass's outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import os

# Thread pools of this process only; nothing of the machine is changed.
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from importlib import metadata  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("verify-order3", "dnls-transport", "ensemble-norms")

# A fresh interpreter times the import, then measures its own loop speed.
IMPORT_PROBE = (
    "import statistics, sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "t = time.perf_counter()\n"
    "import wickfield, wickfield.cli\n"
    "seconds = time.perf_counter() - t\n"
    "from speed import calibration_loop\n"
    "print(seconds, statistics.median(calibration_loop() for _ in range(7)))\n"
)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


class Ledger:
    """Named pass/fail items of one run; failures are echoed to stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def add(self, items, where: str):
        for label, ok in items:
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAILED [{where}] {label}", file=sys.stderr)

    def guard(self, where: str, fn, *args):
        """Run fn; an exception counts as one failed item."""
        try:
            return fn(*args)
        except Exception:  # a failing pass is a result, not a crash
            traceback.print_exc()
            self.add([(f"{where}: exception", False)], where)
            return None


def environment() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "wickfield").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": metadata.version("click"),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest()[:16],
        "thread_env": {v: os.environ[v] for v in THREAD_ENV},
        "machine_settings": "unchanged; only this process's thread-pool "
                            "environment is set",
    }


def git_revision() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unavailable (not a git checkout)"


def measure_import():
    """Import time of wickfield and its CLI in fresh interpreters: lists of
    raw and normalised seconds."""
    raw, norm = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC), str(HERE)],
                              capture_output=True, text=True, timeout=60, check=True)
        seconds, loop = map(float, proc.stdout.split())
        raw.append(seconds)
        norm.append(seconds * speed.REFERENCE_LOOP_S / loop)
    return raw, norm


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def check_pass(ledger: Ledger, workload, result, inputs, where: str):
    if result is None:
        return
    items = ledger.guard(where + " check", workload.check, result, inputs)
    if items is not None:
        ledger.add(items, where)


def compare_reference(ledger: Ledger, workload, result):
    ref_path = HERE / "reference.json"
    reference = json.loads(ref_path.read_text())[workload.name]
    values = workload.values(result)
    items = [("reference keys", sorted(values) == sorted(reference))]
    for key, ref_vals in reference.items():
        got = values.get(key)
        ok = got is not None and len(got) == len(ref_vals) and all(
            abs(g - r) <= 1e-6 * abs(r) + 1e-12 for g, r in zip(got, ref_vals))
        items.append((f"reference {key}", ok))
    ledger.add(items, "reference")


def run_untraced(workload, args, ledger: Ledger, workdir: Path) -> dict:
    import_raw, import_norm = measure_import()
    builds, passes, last, peak_mb = [], [], None, 0.0
    with speed.SpeedProbe() as probe:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            inputs = workload.setup(args.seed, workdir)
            builds.append((t0, time.perf_counter()))
        ledger.guard("warm-up", workload.warmup, inputs)
        begin = time.perf_counter()
        while True:
            tag = f"pass{len(passes)}"
            last = None  # free the previous pass before the next one allocates
            t0 = time.perf_counter()
            last = ledger.guard(tag, workload.run, inputs, tag)
            passes.append((t0, time.perf_counter()))
            if len(passes) == 1:
                # peak through the first pass, so the pass count cannot move it
                peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            check_pass(ledger, workload, last, inputs, tag)
            # start another whole pass only if even the slowest pass so far
            # would still end within the measuring time
            slowest = max(t1 - t0 for t0, t1 in passes)
            if time.perf_counter() - begin + slowest > args.seconds:
                break
    if last is not None:
        ledger.add(ledger.guard("spot checks", workload.spot_checks, inputs, last) or [],
                   "spot checks")
        if args.seed == workload.reference_seed:
            ledger.guard("reference", compare_reference, ledger, workload, last)

    build = [probe.normalise(*span) for span in builds]
    timed_passes = [probe.normalise(*span) for span in passes]
    raw_q = quartiles([p[0] for p in timed_passes])
    norm_q = quartiles([p[1] for p in timed_passes])
    setup_raw = statistics.median(import_raw) + statistics.median(b[0] for b in build)
    setup_norm = statistics.median(import_norm) + statistics.median(b[1] for b in build)
    work = workload.work(inputs)
    print(f"setup_s raw {setup_raw:.4f} normalised {setup_norm:.4f} "
          f"(median of {SETUP_REPEATS} imports and input builds)")
    print(f"passes: n={len(passes)} "
          f"wall_s raw median {raw_q[1]:.4f} q1 {raw_q[0]:.4f} q3 {raw_q[2]:.4f}; "
          f"normalised median {norm_q[1]:.4f} q1 {norm_q[0]:.4f} q3 {norm_q[2]:.4f}; "
          f"loop ms {[round(1e3 * p[2], 4) for p in timed_passes]}")
    print(f"work per pass: {work:.6g}; raw work_per_s {work / raw_q[1]:.6g}")
    print(f"failed_share: {ledger.failed}/{ledger.attempted}")
    return {
        "setup_s": (setup_norm, "s"),
        "norm_wall_s": (norm_q[1], "s"),
        "norm_work_per_s": (work / norm_q[1], "1/s"),
        "peak_rss_mb": (peak_mb, "MiB"),
    }


def run_traced(workload, args, ledger: Ledger, workdir: Path) -> dict:
    import tracing
    import workloads

    inputs = workload.setup(args.seed, workdir)
    ledger.guard("warm-up", workload.warmup, inputs)
    plain, untraced_s = timed(ledger.guard, "untraced pass", workload.run, inputs, "untraced")
    check_pass(ledger, workload, plain, inputs, "untraced pass")

    tracer = tracing.Tracer()
    with tracing.instrument(tracer, cli_entry=(workloads, "invoke_cli")):
        traced, traced_s = timed(ledger.guard, "traced pass", workload.run, inputs, "traced")
    check_pass(ledger, workload, traced, inputs, "traced pass")
    if plain is not None and traced is not None:
        same = workload.fingerprint(plain) == workload.fingerprint(traced)
        ledger.add([("traced outputs identical to untraced", same)], "traced pass")

    OUT.mkdir(exist_ok=True)
    tracer.save(OUT / f"spans-{workload.name}-s{args.seed}.npz")
    metrics = tracing.layer_metrics(tracer, traced_s, untraced_s)
    print(f"failed_share: {ledger.failed}/{ledger.attempted}")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "wickfield" / "__init__.py").is_file():
        print(f"wickfield sources not found under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[args.workload]
    env = environment()
    print("environment: " + json.dumps(env, sort_keys=True))
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds} "
          f"trace {args.trace}")

    workdir = OUT / f"{workload.name}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    ledger = Ledger()
    try:
        if args.trace:
            metrics = run_traced(workload, args, ledger, workdir)
        else:
            metrics = run_untraced(workload, args, ledger, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
