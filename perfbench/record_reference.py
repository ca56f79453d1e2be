"""Record the headline numbers the benchmark checks its passes against.

Run from the root of a checkout:

    python3 perfbench/record_reference.py

One pass of every workload at each size, at the recorded seed, is stored
in perfbench/reference.json.  Recording is for a commit whose numerics are
known to be right; a later run compares to 1e-9 relative.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
RECORDED_SEED = 11


def main() -> int:
    sys.path.insert(0, str(Path.cwd() / "src"))
    import workloads

    out = {"recorded_seed": RECORDED_SEED}
    for size in ("smoke", "full"):
        out[size] = {}
        for name, workload in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as tmp:
                result = workload.run_pass(workload.setup(RECORDED_SEED, size, Path(tmp)))
            failed = [label for label, ok in result.checks if not ok]
            if failed:
                print(f"error: {size} {name} fails its checks: {failed}", file=sys.stderr)
                return 1
            out[size][name] = {"fixed": result.fixed, "seeded": result.seeded}
            print(size, name, out[size][name])
    (HERE / "reference.json").write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
