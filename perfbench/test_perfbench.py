"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from tracer import Span  # noqa: E402


def bench(*args, cwd=ROOT):
    cmd = [sys.executable, "perfbench/run.py", *args]
    done = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


# -- span arithmetic ------------------------------------------------------------


def synthetic_spans() -> list[Span]:
    return [
        Span("harness", "averaging_check", -1, 0.0, 10.0),
        Span("energy", "gagliardo_energy", 0, 1.0, 4.0),
        Span("pairsum", "pair_kernel_sum", 1, 2.0, 3.0, counts={"pairs": 6}),
        Span("sphere", "shifted_projection", 0, 5.0, 6.0, counts={"singular_hits": 2}),
        Span("cli", "main", -1, 11.0, 12.0),
    ]


def test_self_times_subtract_covered_child_time():
    assert tracer.self_times(synthetic_spans()) == [6.0, 2.0, 1.0, 1.0, 1.0]


def test_self_times_count_overlapping_children_once():
    spans = [Span("patches", "layer_ratio", -1, 0.0, 10.0),
             Span("pairsum", "pair_kernel_sum", 0, 1.0, 4.0),
             Span("pairsum", "pair_kernel_sum", 0, 3.0, 5.0)]
    assert tracer.self_times(spans)[0] == 6.0
    assert tracer.union_length([(1.0, 4.0), (3.0, 5.0), (7.0, 8.0)]) == 5.0


def test_layer_metrics_add_up_to_wall_time():
    m = tracer.layer_metrics(synthetic_spans(), wall_s=13.0)
    assert m["harness.self_s"] == 6.0
    assert m["energy.self_s"] == 2.0
    assert m["pairsum.busy_s"] == 1.0 and m["pairsum.pairs"] == 6
    assert m["sphere.singular_hits"] == 2
    assert m["trace.self_sum_s"] == 11.0
    assert m["trace.remainder_s"] == 2.0
    assert m["trace.self_sum_s"] + m["trace.remainder_s"] == m["trace.wall_s"]


# -- wrappers -------------------------------------------------------------------


def test_tracer_wraps_every_binding_and_removes_them():
    import splab.energy
    import splab.harness
    import splab.patches
    from splab import _pairsum
    from splab.energy import FractionalParams

    original = _pairsum.pair_kernel_sum
    with tracer.Tracer() as tr:
        for mod in (_pairsum, splab.energy, splab.patches):
            assert getattr(mod.pair_kernel_sum, "__perfbench_wrapper__", False)
        assert tracer.leftover_wrappers()
        splab.harness.kernel_selftest(1.0, 1000, 1)
        splab.patches.PatchModel(FractionalParams(0.4, 2.5)).profile_energy
    assert tracer.leftover_wrappers() == []
    for mod in (_pairsum, splab.energy, splab.patches):
        assert mod.pair_kernel_sum is original
    assert [s.name for s in tr.spans] == ["kernel_selftest", "pair_kernel_sum"]


# -- end-to-end smoke runs ----------------------------------------------------------


@pytest.mark.parametrize("workload", ["avg-lattice", "patch-cloud", "accounting-scan"])
def test_smoke_run_passes_its_checks(workload):
    result = result_of(bench("--workload", workload, "--seed", "11", "--seconds", "0",
                             "--trace", "0", "--size", "smoke"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("group,key", [("fixed", "slope_s0.4_p2.5"), ("seeded", "bound_ratio.p<ell")])
def test_perturbed_reference_fails(tmp_path, group, key):
    ref = json.loads((HERE / "reference.json").read_text())
    workload = "accounting-scan" if group == "fixed" else "avg-lattice"
    ref["smoke"][workload][group][key] *= 1 + 1e-8
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(ref))
    result = result_of(bench("--workload", workload, "--seed", str(ref["recorded_seed"]),
                             "--seconds", "0", "--size", "smoke", "--reference", str(path)))
    assert not result["correct"] and result["failed"] == 1


def test_traced_smoke_run_reports_every_layer_metric():
    result = result_of(bench("--workload", "patch-cloud", "--seed", "11", "--seconds", "0",
                             "--trace", "1", "--size", "smoke"))
    assert result["correct"]
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(m) == set(run.PER_LAYER)
    assert m["report.files"] > 0 and m["pairsum.calls"] > 0 and m["cli.self_s"] > 0
    assert m["trace.self_sum_s"] + m["trace.remainder_s"] == pytest.approx(m["trace.wall_s"])


def test_benchmark_json_lists_the_printed_metrics():
    bench_json = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in bench_json["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"]) for m in bench_json["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = bench("--workload", "avg-lattice", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
