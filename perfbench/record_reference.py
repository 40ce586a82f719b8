"""Record ``perfbench/reference.json``: the values one pass of each workload
produces at its reference seed, which later runs at that seed must
reproduce to a relative tolerance.

    python3 perfbench/record_reference.py

Run it only at a commit whose outputs are known to be right; it refuses to
record a pass whose own checks fail.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    import workloads

    reference = {}
    for name, workload in workloads.WORKLOADS.items():
        workdir = run.OUT / f"reference-{name}"
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            inputs = workload.setup(workload.reference_seed, workdir)
            result = workload.run(inputs, "reference")
            failed = [label for label, ok in workload.check(result, inputs) if not ok]
            if failed:
                print(f"{name}: checks failed, nothing recorded: {failed}", file=sys.stderr)
                return 1
            reference[name] = workload.values(result)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(f"{name}: {len(reference[name])} values")
    path = Path(__file__).resolve().parent / "reference.json"
    path.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
