"""Run the benchmark over several seeds and report each metric's spread.

Run from the root of a checkout:

    python3 perfbench/spread.py --workloads avg-lattice,patch-cloud --seeds 1-10

For every workload and end-to-end metric it prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
interquartile distance as a share of the median, and writes the raw runs
to perfbench/out/spread-<label>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_from(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += list(range(int(lo), int(hi or lo) + 1))
    return out


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / statistics.median(values)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length; defaults to run_seconds of BENCHMARK.json")
    ap.add_argument("--label", default="latest")
    args = ap.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    runs = {}
    for workload in args.workloads.split(","):
        runs[workload] = []
        for seed in seeds_from(args.seeds):
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            values = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(workload, seed, result["correct"], values, flush=True)
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            stats = summarize([r["metrics"][name]["value"] for r in results])
            summary[workload][name] = stats
            print(f"{workload:16s} {name:12s} median {stats['median']:.6g} "
                  f"IQR/median {stats['iqr_share']:.4f} (bound {metric['bound']})")
        summary[workload]["all_correct"] = all(r["correct"] for r in results)
    (HERE / "out").mkdir(exist_ok=True)
    (HERE / "out" / f"spread-{args.label}.json").write_text(
        json.dumps({"seconds": seconds, "runs": runs, "summary": summary}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
