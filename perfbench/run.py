"""splab benchmark: run one workload, check its outputs, print its metrics.

Usage, from the root of a checkout (the package is imported from src/):

    python3 perfbench/run.py --workload avg-lattice --seed 11 --seconds 20 --trace 0

The workload runs passes of fixed work until ``--seconds`` have elapsed.
With ``--trace 0`` it reports the end-to-end metrics of BENCHMARK.json
(median pass wall time, work units per second, set-up time, peak resident
set); with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics.  The last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, where
attempted and failed count correctness checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# one thread per BLAS / OpenMP pool: the only parallelism is splab's own
# two pair-sum workers
THREAD_ENV = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)}


def pin_allocator() -> dict:
    """Fix glibc malloc's tunables so page faults do not depend on thread timing.

    By default glibc moves its mmap and trim thresholds as blocks are freed
    and gives each worker thread its own arena, so the pair sum's block
    temporaries are faulted in anew a varying number of times per run
    (15k to 340k minor faults for the same work) and the peak resident set
    varies with it.  One arena and fixed thresholds make both repeat.
    Returns the settings that took effect (none off glibc).
    """
    import ctypes

    settings = {"M_ARENA_MAX": (-8, 1), "M_MMAP_THRESHOLD": (-3, 32 << 20),
                "M_TRIM_THRESHOLD": (-1, 1 << 30)}
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return {}
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return {name: value for name, (param, value) in settings.items() if mallopt(param, value) == 1}


HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
# name: (unit, better) for every metric the benchmark prints
END_TO_END = {
    "wall_s": ("s", "lower"),
    "ops_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
PER_LAYER = {
    "pairsum.calls": ("count", "lower"),
    "pairsum.pairs": ("count", "lower"),
    "pairsum.busy_s": ("s", "lower"),
    "pairsum.mpairs_per_s": ("Mpairs/s", "higher"),
    "pairsum.call_p50_ms": ("ms", "lower"),
    "pairsum.call_p95_ms": ("ms", "lower"),
    "pairsum.probe.n2k.w1.mpairs_per_s": ("Mpairs/s", "higher"),
    "pairsum.probe.n2k.w2.mpairs_per_s": ("Mpairs/s", "higher"),
    "pairsum.probe.n8k.w1.mpairs_per_s": ("Mpairs/s", "higher"),
    "pairsum.probe.n8k.w2.mpairs_per_s": ("Mpairs/s", "higher"),
    "pairsum.probe.n2k.scaling_eff": ("ratio", "higher"),
    "pairsum.probe.n8k.scaling_eff": ("ratio", "higher"),
    "energy.calls": ("count", "lower"),
    "energy.self_s": ("s", "lower"),
    "energy.gagliardo_p50_ms": ("ms", "lower"),
    "energy.gagliardo_p95_ms": ("ms", "lower"),
    "sphere.calls": ("count", "lower"),
    "sphere.busy_s": ("s", "lower"),
    "sphere.singular_hits": ("count", "lower"),
    "sphere.degenerate_shifts": ("count", "lower"),
    "chords.calls": ("count", "lower"),
    "chords.cases": ("count", "lower"),
    "chords.busy_s": ("s", "lower"),
    "chords.cases_per_s": ("1/s", "higher"),
    "patches.self_s": ("s", "lower"),
    "patches.layer_ratio_shifts": ("count", "lower"),
    "patches.layer_ratio_shifts_per_s": ("1/s", "higher"),
    "patches.projected_direct_p50_ms": ("ms", "lower"),
    "patches.projected_direct_p95_ms": ("ms", "lower"),
    "patches.energy_direct_calls": ("count", "lower"),
    "patches.memo_hit_ratio": ("ratio", "higher"),
    "retraction.busy_s": ("s", "lower"),
    "retraction.self_s": ("s", "lower"),
    "retraction.rows": ("count", "lower"),
    "harness.self_s": ("s", "lower"),
    "harness.selftest_s": ("s", "lower"),
    "harness.calibration_s": ("s", "lower"),
    "grid.calls": ("count", "lower"),
    "grid.busy_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "report.emit_s": ("s", "lower"),
    "report.files": ("count", "lower"),
    "report.bytes": ("B", "lower"),
    "process.cpu_s": ("s", "lower"),
    "process.cpu_util": ("ratio", "higher"),
    "trace.spans": ("count", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.self_sum_s": ("s", "lower"),
    "trace.remainder_s": ("s", "lower"),
}


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke sizes exist for the benchmark's own tests")
    ap.add_argument("--reference", default=str(HERE / "reference.json"))
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def import_package(root: Path):
    """Import splab from the checkout's src/; None when it is not there."""
    src = root / "src"
    if not (src / "splab" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import splab

    if not Path(splab.__file__).resolve().is_relative_to(src.resolve()):
        return None
    return splab


def run_header(root: Path, malloc: dict) -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": git_commit(root), "thread_env": THREAD_ENV,
            "malloc": malloc}


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repo."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def measure_setup(args) -> float:
    """Interpreter start to first timed call, median over fresh processes."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        done = subprocess.run(cmd, capture_output=True, text=True, check=True)
        samples.append(float(done.stdout.split()[-1]) - t0)
    return statistics.median(samples)


def timed_pass(workload, inputs):
    c0 = time.process_time()
    t0 = time.perf_counter()
    result = workload.run_pass(inputs)
    wall = time.perf_counter() - t0
    return result, wall, time.process_time() - c0


def identical(a, b) -> bool:
    """Bit-for-bit equality of two passes' headline numbers."""
    return a.fixed == b.fixed and a.seeded == b.seeded


def main(argv=None) -> int:
    args = parse_args(argv)
    # before numpy is first imported and before any worker thread starts
    os.environ.update(THREAD_ENV)
    malloc = pin_allocator()
    root = Path.cwd()
    if import_package(root) is None:
        print(f"error: no splab package under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    out_base = HERE / "out"
    out_base.mkdir(exist_ok=True)
    out_root = Path(tempfile.mkdtemp(prefix="run-", dir=out_base))
    try:
        inputs = workload.setup(args.seed, args.size, out_root)
        if args.setup_probe:
            print(time.monotonic())
            return 0
        print(json.dumps({"header": run_header(root, malloc), "workload": args.workload,
                          "seed": args.seed, "size": args.size}))
        ref_all = json.loads(Path(args.reference).read_text())
        ref = ref_all[args.size][args.workload]
        use_seeded = args.seed == ref_all["recorded_seed"]
        if args.trace:
            warmup = workload.setup(args.seed, "smoke", out_root)
            metrics, checks = traced_run(args, workload, inputs, warmup, ref, use_seeded)
        else:
            setup_s = measure_setup(args)
            metrics, checks = untraced_run(args, workload, inputs, ref, use_seeded)
            metrics["setup_s"] = setup_s
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finally:
        shutil.rmtree(out_root, ignore_errors=True)

    failed = [name for name, ok in checks if not ok]
    for name in failed:
        print(f"[FAIL] {name}")
    table = PER_LAYER if args.trace else END_TO_END
    units = {name: unit for name, (unit, _) in table.items()}
    metrics_out = {name: metrics[name] for name in table}
    if not args.trace:
        rows = dict(metrics_out, checks_failed=len(failed) / len(checks))
        for name, value in rows.items():
            print(f"{args.workload:16s} {name:14s} {value:12.6g} {units.get(name, 'ratio')}")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics_out.items()},
    }))
    return 0


def pass_checks(result, first, ref, use_seeded) -> list:
    import workloads

    checks = list(result.checks) + workloads.compare_reference(result, ref, use_seeded)
    if first is not None:
        checks.append(("headline numbers identical to the first pass", identical(result, first)))
    return checks


def untraced_run(args, workload, inputs, ref, use_seeded):
    walls, rates, checks = [], [], []
    first = None
    start = time.perf_counter()
    while True:
        result, wall, _ = timed_pass(workload, inputs)
        checks += pass_checks(result, first, ref, use_seeded)
        first = first or result
        walls.append(wall)
        rates.append(result.ops / wall)
        if time.perf_counter() - start >= args.seconds:
            break
    print(json.dumps({"pass_walls_s": walls}))
    return {"wall_s": statistics.median(walls), "ops_per_s": statistics.median(rates)}, checks


def traced_run(args, workload, inputs, warmup_inputs, ref, use_seeded):
    """Untraced / traced pass pairs until time is up, after a smoke-size warm-up.

    The warm-up pays the one-time costs (lazy imports, heap growth) so that
    the first untraced pass is not slower than the traced one for them.
    """
    import probe
    import tracer

    workload.run_pass(warmup_inputs)
    start = time.perf_counter()
    checks, first = [], None
    plain_walls, plain_cpu, traced_walls, per_pass, all_spans = [], [], [], [], []
    while True:
        plain, wall, cpu = timed_pass(workload, inputs)
        checks += pass_checks(plain, first, ref, use_seeded)
        first = first or plain
        plain_walls.append(wall)
        plain_cpu.append(cpu)

        with tracer.Tracer() as tr:
            traced, traced_wall, _ = timed_pass(workload, inputs)
        checks.append(("tracing wrappers removed after the traced pass",
                       not tracer.leftover_wrappers()))
        checks.append(("traced headline numbers identical to untraced", identical(traced, first)))
        checks += [(f"traced: {name}", ok) for name, ok in traced.checks]
        m = tracer.layer_metrics(tr.spans, traced_wall)
        checks.append(("layer self times plus remainder equal the traced wall time",
                       abs(m["trace.self_sum_s"] + m["trace.remainder_s"] - traced_wall)
                       <= 1e-6 * traced_wall))
        traced_walls.append(traced_wall)
        per_pass.append(m)
        all_spans.append(tr.spans)
        if time.perf_counter() - start >= args.seconds:
            break
    metrics = {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
    probe_metrics, probe_checks = probe.pairsum_probe()
    metrics.update(probe_metrics)
    checks += probe_checks
    plain_wall = statistics.median(plain_walls)
    metrics["process.cpu_s"] = statistics.median(plain_cpu)
    metrics["process.cpu_util"] = metrics["process.cpu_s"] / plain_wall
    metrics["trace.overhead_ratio"] = statistics.median(traced_walls) / plain_wall - 1
    write_spans(args, all_spans)
    return metrics, checks


def write_spans(args, passes) -> None:
    """Write the traced passes' spans out once the run is over."""
    path = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.json"
    rows = [[{"layer": s.layer, "name": s.name, "parent": s.parent, "start": s.start,
              "end": s.end, "error": s.error, "counts": s.counts} for s in spans]
            for spans in passes]
    path.write_text(json.dumps(rows))


if __name__ == "__main__":
    sys.exit(main())
