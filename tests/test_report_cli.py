import dataclasses
import functools
import json
import subprocess
import time
import sys
from pathlib import Path

import numpy as np
import pytest

from splab import chords, cli, harness
from splab.cli import main
from splab.config import validate_config
from splab.energy import FractionalParams, _over, check_grid_budget
from splab.errors import AssertionFailure, BudgetError, ConfigurationError, OutputError, SplabError
from splab.harness import EXPERIMENTS
from splab.report import CSV_COLUMNS, ExperimentReport, _fmt, emit_report, to_csv, to_json, to_svg
from splab.retraction import AlmostModel, almost_projection_scan


def small_report():
    rep = ExperimentReport(name="demo", params={"s": 0.4, "p": 2.5})
    rep.add_row(1, upper=4.0, lower=0.125)
    rep.add_row(2, upper=8.0, lower=0.5)
    rep.add_row(3, upper=16.0, lower=2.0)
    return rep


def test_csv_header_only_when_empty():
    rep = ExperimentReport(name="empty")
    csv = to_csv(rep)
    assert csv == ",".join(CSV_COLUMNS) + "\n"


def test_csv_floats_roundtrip():
    rep = small_report()
    lines = to_csv(rep).strip().splitlines()[1:]
    assert len(lines) == 3
    for line, row in zip(lines, rep.rows):
        fields = line.split(",")
        assert float(fields[1]) == row["upper"]
        assert float(fields[3]) == row["ratio"]
        # shortest round-trip representation re-parses to the same float
        assert repr(float(fields[3])) == fields[3]


def test_ratio_consistency_enforced():
    rep = small_report()
    rep.rows[0]["ratio"] = 0.5  # tamper
    with pytest.raises(ConfigurationError):
        to_csv(rep)


def test_json_contains_assertions_and_constants():
    rep = small_report()
    rep.constants["slope"] = 1.0
    rep.check("demo assertion", True, "fine")
    payload = json.loads(to_json(rep))
    assert payload["constants"]["slope"] == 1.0
    assert payload["assertions"][0]["passed"] is True


def test_svg_structure():
    svg = to_svg(small_report())
    assert svg.startswith("<svg")
    assert "polyline" in svg
    assert "log2 ratio" in svg
    empty = to_svg(ExperimentReport(name="none"))
    assert "polyline" not in empty


def test_emit_report_files(tmp_path):
    rep = small_report()
    written = emit_report(rep, tmp_path, formats=("csv", "json", "svg"))
    assert sorted(Path(w).suffix for w in written) == [".csv", ".json", ".svg"]
    for w in written:
        assert Path(w).exists()


def test_emit_report_unwritable_dir():
    rep = small_report()
    with pytest.raises(OutputError):
        emit_report(rep, "/dev/null/impossible")


def test_cli_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cli_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "--bogus", "1"])
    assert exc.value.code == 2


def test_cli_invalid_config_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"experiments": [{"kind": "geometry", "oops": 1}]}))
    rc = main(["suite", "--config", str(bad), "--out", str(tmp_path)])
    assert rc == 2


@pytest.mark.parametrize("config, argv", [
    ({"experiments": [{"kind": "layer", "s": "abc"}]}, None),
    ({"experiments": [{"kind": "patch", "n_values": 3}]}, None),
    ({"seed": "x"}, None),
    ({"experiments": [{"kind": "seminorm", "map": "nope"}]}, None),
    (None, ["threshold", "--s", "abc"]),
    (None, ["patch", "--n-values", "x"]),
    (None, ["seminorm", "--map", "nope"]),
    (None, ["threshold", "--s", "0.4", "--p", "2.5,1.5", "--n-max", "2"]),
    (None, ["patch", "--n-values", "1", "--shifts", "0"]),
    (None, ["patch", "--n-values", "1", "--shifts", "-1"]),
    (None, ["threshold", "--n-max", "1"]),
    (None, ["almost", "--n-max", "1"]),
    (None, ["almost", "--n-min", "3", "--n-max", "3"]),
    ({"experiments": [{"kind": "seminorm", "spacing": float("nan")}]}, None),
    ({"experiments": [{"kind": "seminorm", "spacing": 10**400}]}, None),
    (None, ["seminorm", "--spacing", "nan"]),
    (None, ["averaging", "--spacing", "nan", "--no-refine"]),
    (None, ["seminorm", "--spacing", "1e-320"]),
    (None, ["averaging", "--spacing", "5e-324"]),
    (None, ["layer", "--n", "1", "--p", "nan"]),
    (None, ["seminorm", "--p", "inf"]),
    (None, ["averaging", "--alpha", "inf"]),
    (None, ["threshold", "--p", "2.5,inf,2.0"]),
    (None, ["geometry", "--n-min", "5", "--n-max", "2", "--samples", "1000"]),
    (None, ["geometry", "--n-min", "3", "--n-max", "3"]),
    (None, ["geometry", "--lemma", "geom2", "--ell", "1"]),
    (None, ["geometry", "--ell", "0"]),
    (None, ["geometry", "--n-min", "0"]),
    (None, ["geometry", "--lemma", "geom2", "--n-min", "-2", "--n-max", "1"]),
    (None, ["geometry", "--n-min", "-2000"]),
    (None, ["geometry", "--n-max", "33"]),
    ({"seed": -1, "experiments": [{"kind": "geometry", "samples": 1000, "n_max": 2}]}, None),
    (None, ["patch", "--n-values", "1", "--seed", "-1"]),
], ids=["config-layer-s", "config-patch-n-values", "config-seed", "config-seminorm-map",
        "flag-threshold-s", "flag-patch-n-values", "flag-seminorm-map", "flag-threshold-unpaired",
        "flag-patch-shifts-0", "flag-patch-shifts-minus-1", "flag-threshold-n-max-1",
        "flag-almost-n-max-1", "flag-almost-one-scale", "config-seminorm-spacing-nan",
        "config-seminorm-spacing-beyond-float",
        "flag-seminorm-spacing-nan", "flag-averaging-spacing-nan",
        "flag-seminorm-spacing-subnormal", "flag-averaging-spacing-subnormal", "flag-layer-p-nan",
        "flag-seminorm-p-inf", "flag-averaging-alpha-inf", "flag-threshold-p-inf",
        "flag-geometry-empty-range", "flag-geometry-one-scale", "flag-geometry-ell-1",
        "flag-geometry-ell-0", "flag-geometry-n-min-0", "flag-geometry-n-min-negative",
        "flag-geometry-n-min-huge", "flag-geometry-n-max-past-float", "config-seed-negative", "flag-patch-seed-negative"])
def test_malformed_input_exits_two(tmp_path, capsys, config, argv):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = ["suite", "--config", str(path)]
    try:
        rc = main(argv + ["--out", str(tmp_path / "out")])
    except SystemExit as exc:  # argparse rejects bad flags itself
        rc = exc.code
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["layer", "--n", "9"],
    ["layer", "--n", "3"],
    ["patch", "--n-values", "5", "--shifts", "1"],
    ["layer", "--n", "300"],
    ["patch", "--n-values", "300"],
], ids=["layer-n-9", "layer-n-3", "patch-n-5", "layer-n-300", "patch-n-300"])
def test_oversized_cloud_exits_two(tmp_path, capsys, argv):
    # the counts are printed to 3 significant digits, however many digits they have
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    lines = [line for line in capsys.readouterr().err.splitlines() if "budget" in line]
    assert lines and all(len(line) < 200 for line in lines)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["patch", "--n-values", "1000"],
    ["layer", "--n", "1000"],
], ids=["patch-n-1000", "layer-n-1000"])
def test_huge_scale_index_exits_two(tmp_path, capsys, argv):
    # 2^((n-1)/s) overflows a float: a budget error, not a traceback
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert f"error: experiment '{argv[0]}': cluster count" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class _ScanRow(Exception):
    pass


def test_almost_scan_budget_exits_two(tmp_path, capsys, monkeypatch):
    # rows n = 2..16 evaluate 317 shifts x 2 center_count(2^-n) = 2.61e9 angles: exit 2 before
    # any row is built; n = 2..15 (1.31e9) passes the check and reaches the rows
    def refuse(self, n, shifts):
        raise _ScanRow(n)

    monkeypatch.setattr(AlmostModel, "scan_row", refuse)
    assert main(["almost", "--n-max", "16", "--out", str(tmp_path / "out")]) == 2
    assert "almost scan up to n = 16 evaluates 2.61e+9 angles > budget 2.00e+9" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    with pytest.raises(_ScanRow):
        almost_projection_scan(harness.AlmostOptions(n_max=15).ctrex, range(2, 16))


def test_geometry_sample_budget_exits_two(tmp_path, capsys, monkeypatch):
    # each n draws (samples, ell) arrays: past the node budget of 4e6 coordinates the
    # options refuse before any draw; at the budget they construct
    def refuse(*args):
        raise AssertionError("drew samples")

    monkeypatch.setattr(chords, "_sample_unit_ball", refuse)
    assert main(["geometry", "--samples", "2000001", "--out", str(tmp_path / "out")]) == 2
    assert "geometry samples x ell = 4000002 > budget 4000000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert harness.GeometryOptions(samples=2_000_000).samples == 2_000_000
    with pytest.raises(BudgetError, match="5.00e"):
        harness.GeometryOptions(samples=1_000_000, ell=5)


def test_averaging_far_shifts(tmp_path, capsys):
    # at alpha = 1e12 the mean projected energy (about 3e-17) is far below 1e-12, and the
    # histogram still spans it; at 1e20 every shift projects the disk onto one value,
    # the mean is 0 and the run exits 2 with the alpha named, never a traceback
    argv = ["averaging", "--spacing", "0.5", "--no-refine", "--alpha"]
    assert main(argv + ["1e12", "--out", str(tmp_path / "near")]) == 0
    report = json.loads((tmp_path / "near" / "averaging.json").read_text())
    assert 0 < report["constants"]["mean_projected_energy"] < 1e-15
    assert main(argv + ["1e20", "--out", str(tmp_path / "far")]) == 2
    err = capsys.readouterr().err
    assert "error: experiment 'averaging': mean projected energy 0 at alpha=1e+20" in err
    assert "Traceback" not in err
    assert not (tmp_path / "far").exists()


def test_suite_failure_keeps_completed_reports(tmp_path, capsys):
    # the first experiment's report is written and printed, then the second one's error:
    # the n = 3 layer cloud exceeds the pair budget once its pairs are counted
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"kind": "seminorm", "spacing": 0.01},
        {"kind": "layer", "n": 3, "name": "coarse"},
    ]}))
    assert main(["suite", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert "[PASS] seminorm:" in out.out
    assert "error: experiment 'coarse'" in out.err
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "seminorm-0.25-2.0.svg", "seminorm.csv", "seminorm.json"]


# one bad value per entry; each is rejected when the options are constructed
BAD_OPTIONS = {
    "seminorm-s-1.5": {"kind": "seminorm", "s": 1.5},
    "seminorm-s-1.0": {"kind": "seminorm", "s": 1.0},
    "seminorm-spacing-3.0": {"kind": "seminorm", "spacing": 3.0},
    "averaging-n_mc-5": {"kind": "averaging", "n_mc": 5},
    "averaging-alpha-minus-1": {"kind": "averaging", "alpha": -1.0},
    "averaging-spacing-0.3": {"kind": "averaging", "spacing": 0.3},
    "threshold-unpaired": {"kind": "threshold", "s_values": [0.4], "p_values": [2.5, 1.5]},
    "threshold-sp-2": {"kind": "threshold", "s_values": [0.9, 0.4], "p_values": [2.5, 1.5]},
    "threshold-no-straddle": {"kind": "threshold", "s_values": [0.4, 0.4], "p_values": [2.5, 2.2]},
    "threshold-repeated-pair": {"kind": "threshold", "s_values": [0.4, 0.4, 0.4],
                                "p_values": [2.5, 2.5, 1.5]},
    "patch-n_values-0": {"kind": "patch", "n_values": [0, 1]},
    "patch-p-0.5": {"kind": "patch", "p": 0.5},
    "layer-n-0": {"kind": "layer", "n": 0},
    "almost-alpha-5": {"kind": "almost", "alpha": 5.0},
    "almost-p-0.5": {"kind": "almost", "p": 0.5},
    "almost-sp-1.35": {"kind": "almost", "s": 0.9, "p": 1.5},
    "almost-n-min-0": {"kind": "almost", "n_min": 0, "n_max": 3},
    "threshold-n-max-12": {"kind": "threshold", "n_max": 12},
    "geometry-samples-10": {"kind": "geometry", "samples": 10},
    "seminorm-spacing-1e-6": {"kind": "seminorm", "spacing": 1e-6},
    "averaging-spacing-1e-9": {"kind": "averaging", "spacing": 1e-9},
    "averaging-p-2-spacing-1e-9": {"kind": "averaging", "p": 2.0, "spacing": 1e-9},
    "averaging-spacing-0.01-refined": {"kind": "averaging", "spacing": 0.01},
}

# a direct quadrature whose grid exceeds its budget, each rejected before any array is built
OVERSIZED_GRIDS = {
    "seminorm-1e-6": ["seminorm", "--spacing", "1e-6"],
    "seminorm-1e-12": ["seminorm", "--spacing", "1e-12"],
    "seminorm-1e-300": ["seminorm", "--spacing", "1e-300"],
    "averaging-p-1.5-1e-9": ["averaging", "--p", "1.5", "--spacing", "1e-9"],
    "averaging-p-2-1e-9": ["averaging", "--p", "2", "--spacing", "1e-9"],
    "averaging-p-2-1e-10": ["averaging", "--p", "2", "--spacing", "1e-10"],  # 4e20 nodes
}


@pytest.mark.parametrize("argv", OVERSIZED_GRIDS.values(), ids=list(OVERSIZED_GRIDS))
def test_oversized_grid_exits_two(tmp_path, capsys, argv):
    t0 = time.perf_counter()
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert time.perf_counter() - t0 < 5.0
    err = capsys.readouterr().err
    assert err.startswith(f"error: experiment '{argv[0]}': grid of ") and "> budget" in err
    assert len(err) < 200  # counts to 3 significant digits
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("entry", [
    {"kind": "seminorm", "spacing": 1e-3},  # 5,001 nodes
    {"kind": "averaging", "spacing": 0.02},  # 10,201 nodes; 40,401 refined (8.2e8 pairs)
    {"kind": "averaging", "spacing": 0.01, "refine": False},  # 40,401 nodes
    {"kind": "averaging", "p": 2.0, "spacing": 0.004},  # FFT route: 1,002,001 nodes refined
], ids=["seminorm-1e-3", "averaging-0.02", "averaging-0.01-unrefined", "averaging-p-2-0.004"])
def test_grid_budget_admits(entry):
    validate_config({"experiments": [entry]})


def test_grid_budget_counts_pairs_and_fft_nodes():
    grid = harness.map_grid("identity2d", 0.005)  # 160,801 nodes, 1.29e10 pairs
    with pytest.raises(BudgetError, match=r"grid of 1\.61e\+5 nodes sums 1\.29e\+10 pairs"):
        check_grid_budget(grid, FractionalParams(s=0.4, p=1.5), planned=True)
    check_grid_budget(grid, FractionalParams(s=0.4, p=2.0), planned=True)
    with pytest.raises(BudgetError, match="pairs"):  # unplanned at p = 2: the pair route
        check_grid_budget(grid, FractionalParams(s=0.4, p=2.0))
    big = harness.map_grid("identity2d", 0.0008)  # 2,501^2 = 6,255,001 nodes
    with pytest.raises(BudgetError, match=r"grid of 6\.26e\+6 nodes > budget 4\.00e\+6"):
        check_grid_budget(big, FractionalParams(s=0.4, p=2.0), planned=True)


def test_budget_counts_read_apart(tmp_path, capsys):
    # the refined grid of 4,004,001 nodes read "4.00e+6 > budget 4.00e+6" at 3 digits
    assert main(["averaging", "--p", "2", "--spacing", "0.002", "--out", str(tmp_path / "out")]) == 2
    assert "grid of 4.004e+6 nodes > budget 4.000e+6" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert _over(6_255_001, 4_000_000) == ("6.26e+6", "4.00e+6")
    assert _over(2_000_000_001, 2_000_000_000) == ("2000000001", "2000000000")


@pytest.mark.parametrize("entry", BAD_OPTIONS.values(), ids=list(BAD_OPTIONS))
def test_validate_config_rejects_bad_option_values(entry):
    with pytest.raises(SplabError) as exc:
        validate_config({"experiments": [dict(entry, name="bad")]})
    assert exc.value.exit_code == 2
    assert str(exc.value).startswith("experiment 'bad': ")


@pytest.mark.parametrize("entry", BAD_OPTIONS.values(), ids=list(BAD_OPTIONS))
def test_suite_checks_every_experiment_before_the_first_runs(tmp_path, capsys, entry):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"kind": "geometry", "samples": 1000, "n_min": 1, "n_max": 2},
        dict(entry, name="bad"),
    ]}))
    assert main(["suite", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    out = capsys.readouterr()
    assert "[PASS]" not in out.out
    assert "error: experiment 'bad': " in out.err
    assert not (tmp_path / "out").exists()


def test_wrong_scheme_error_names_its_experiment(tmp_path, capsys):
    # a WrongSchemeError of the pair-sum quadrature, raised when the options are checked
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"experiments": [
        {"kind": "geometry", "samples": 1000, "n_min": 1, "n_max": 2},
        {"kind": "seminorm", "s": 1.0, "name": "flat"},
    ]}))
    assert main(["suite", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "error: experiment 'flat': the pair-sum quadrature needs 0 < s < 1" in capsys.readouterr().err


def test_error_keeps_its_exit_code_when_named(tmp_path, monkeypatch, capsys):
    def fail(opts, cfg):
        raise AssertionFailure("rate out of range")

    monkeypatch.setitem(EXPERIMENTS, "layer", (EXPERIMENTS["layer"][0], fail))
    assert main(["layer", "--name", "rates", "--out", str(tmp_path / "out")]) == 1
    assert "error: experiment 'rates': rate out of range" in capsys.readouterr().err


# small options of every kind, each field set; patch, geometry and averaging draw from the seed
PARAMS_CASES = {
    "seminorm": ({"map": "bump1d", "s": 0.3, "p": 2.0, "spacing": 0.01}, False),
    "patch": ({"s": 0.4, "p": 2.5, "n_values": [1], "shift_count": 2}, True),
    "layer": ({"s": 0.4, "p": 2.5, "n": 1}, False),
    "geometry": ({"lemma": "geom2", "ell": 2, "samples": 1000, "n_min": 1, "n_max": 2}, True),
    "averaging": ({"s": 0.4, "p": 1.5, "alpha": 0.5, "n_mc": 100, "spacing": 0.1,
                   "refine": False}, True),
    "threshold": ({"s_values": [0.4, 0.5], "p_values": [2.5, 1.5], "n_max": 2}, False),
    "almost": ({"s": 0.6, "p": 1.5, "alpha": 1.2, "n_min": 2, "n_max": 3}, False),
}


def test_params_cases_cover_every_field():
    assert list(PARAMS_CASES) == list(EXPERIMENTS)
    for kind, (options, _) in PARAMS_CASES.items():
        assert sorted(options) == sorted(f.name for f in dataclasses.fields(EXPERIMENTS[kind][0]))


@pytest.mark.parametrize("kind", list(PARAMS_CASES))
def test_report_params_hold_every_option(tmp_path, monkeypatch, kind):
    # the threshold report's params do not depend on the n <= 2 cross-check
    monkeypatch.setattr(harness, "threshold_scan",
                        functools.partial(harness.threshold_scan, cross_validate=False))
    options, seeded = PARAMS_CASES[kind]
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"seed": 3, "experiments": [dict(options, kind=kind, name="run")]}))
    assert main(["suite", "--config", str(path), "--out", str(tmp_path), "--formats", "json"]) == 0
    params = json.loads((tmp_path / "run.json").read_text())["params"]
    for key, value in options.items():
        assert params[key] == value, key
    assert params.get("seed") == (3 if seeded else None)


@pytest.mark.parametrize("kind", list(EXPERIMENTS))
def test_cli_defaults_match_config_defaults(kind, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run_suite", lambda cfg: seen.append(cfg) or [])
    monkeypatch.delenv("SPL_WORKERS", raising=False)
    assert main([kind]) == 0
    from_config = validate_config({"experiments": [{"kind": kind}]}).experiments[0]
    assert seen[0].experiments[0].spec() == from_config.spec()


GEOMETRY_ARGS = ["geometry", "--samples", "200", "--n-min", "1", "--n-max", "2"]


@pytest.mark.parametrize("env, flags", [
    ("abc", []),
    ("0", []),
    ("-3", []),
    (None, ["--workers", "0"]),
], ids=["env-abc", "env-0", "env-minus-3", "flag-0"])
def test_cli_bad_worker_count_exits_two(tmp_path, monkeypatch, capsys, env, flags):
    if env is None:
        monkeypatch.delenv("SPL_WORKERS", raising=False)
    else:
        monkeypatch.setenv("SPL_WORKERS", env)
    rc = main(GEOMETRY_ARGS + flags + ["--out", str(tmp_path / "out")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cli_unknown_format_exits_two(tmp_path, capsys):
    rc = main(GEOMETRY_ARGS + ["--formats", "xyz", "--out", str(tmp_path / "out")])
    assert rc == 2
    err = capsys.readouterr().err
    assert "error:" in err and "csv,json,svg" in err
    assert not (tmp_path / "out").exists()


def test_cli_reports_name_their_scheme(tmp_path):
    rc = main(["seminorm", "--spacing", "0.05", "--out", str(tmp_path), "--formats", "json"])
    assert rc == 0
    scheme = json.loads((tmp_path / "seminorm.json").read_text())["scheme"]
    assert scheme == "pair-sum kernel_exp=1.5 h=0.05"
    rc = main(["averaging", "--spacing", "0.1", "--n-mc", "100", "--out", str(tmp_path),
               "--formats", "json"])
    assert rc == 0
    report = json.loads((tmp_path / "averaging.json").read_text())
    assert report["scheme"] == "pair-sum plan kernel_exp=2.6"
    assert "scheme" not in report["constants"]
    rc = main(["averaging", "--p", "2", "--spacing", "0.1", "--n-mc", "100",
               "--out", str(tmp_path / "p2"), "--formats", "json"])
    assert rc == 0
    report = json.loads((tmp_path / "p2" / "averaging.json").read_text())
    assert report["scheme"] == "fft-convolution kernel_exp=2.8"
    rc = main(["layer", "--n", "1", "--out", str(tmp_path), "--formats", "json"])
    assert rc == 0
    assert json.loads((tmp_path / "layer.json").read_text())["scheme"] == (
        "offset class kernels kernel_exp=3.0: cell lattice counts; class_kernel k=1; outer class_kernel k=1")
    rc = main(["patch", "--n-values", "1,2", "--shifts", "2", "--out", str(tmp_path), "--formats", "json"])
    assert rc == 0
    assert json.loads((tmp_path / "patch.json").read_text())["scheme"] == (
        "class matrices kernel_exp=3.0: cell-background lattice k=6; class_kernel k=1")
    rc = main(["threshold", "--s", "0.4,0.4", "--p", "2.5,1.5", "--n-max", "2", "--out", str(tmp_path),
               "--formats", "json"])
    assert rc == 0
    routes = {1: "class_kernel k=1; outer class_kernel k=1",
              2: "cell-background lattice k=6; outer class_kernel k=6"}
    assert json.loads((tmp_path / "threshold.json").read_text())["scheme"] == "; ".join(
        ["layer_lowers over 5*4^n shifts n=1,2"]
        + [f"direct cross-check s=0.4 p={p} n={n} (offset class kernels kernel_exp={q}: "
           f"cell lattice counts; {routes[n]})" for p, q in ((2.5, 3.0), (1.5, 2.6)) for n in (1, 2)])
    rc = main(["geometry", "--lemma", "geom2", "--samples", "1000", "--n-max", "2", "--out", str(tmp_path),
               "--formats", "json"])
    assert rc == 0
    assert json.loads((tmp_path / "geometry-geom2.json").read_text())["scheme"] == (
        "Monte Carlo minima of the geom2 quantity, 1000 samples per n")
    rc = main(["almost", "--n-max", "3", "--out", str(tmp_path), "--formats", "json"])
    assert rc == 0
    assert json.loads((tmp_path / "almost.json").read_text())["scheme"] == (
        "slot accounting over 317 xi_grid shifts")


def test_cli_geometry_run_and_outputs(tmp_path):
    rc = main([
        "geometry", "--lemma", "geom1", "--samples", "2000",
        "--n-min", "1", "--n-max", "3", "--out", str(tmp_path), "--seed", "7",
    ])
    assert rc == 0
    assert (tmp_path / "geometry-geom1.csv").exists()
    assert (tmp_path / "geometry-geom1.json").exists()
    assert (tmp_path / "geometry-geom1.svg").exists()


def test_cli_geometry_report_records_its_inputs(tmp_path):
    rc = main(["geometry", "--ell", "3", "--samples", "1000", "--n-min", "1", "--n-max", "2",
               "--formats", "json", "--out", str(tmp_path)])
    assert rc == 0
    text = (tmp_path / "geometry-geom1.json").read_text()
    assert '"ell": 3' in text
    params = json.loads(text)["params"]
    assert (params["n_min"], params["n_max"]) == (1, 2)


def test_cli_seminorm_svg_naming(tmp_path):
    rc = main([
        "seminorm", "--map", "indicator1d", "--s", "0.25", "--p", "2.0",
        "--spacing", "0.01", "--out", str(tmp_path),
    ])
    assert rc == 0
    assert (tmp_path / "seminorm-0.25-2.0.svg").exists()


def _strip_timestamp(text: str) -> str:
    return "\n".join(line for line in text.splitlines() if '"timestamp"' not in line)


def test_suite_deterministic_outputs(tmp_path):
    cfg = {
        "seed": 5,
        "experiments": [
            {"kind": "geometry", "name": "geo", "samples": 2000, "n_min": 1, "n_max": 3},
            {"kind": "seminorm", "name": "ind", "map": "indicator1d",
             "s": 0.25, "p": 2.0, "spacing": 0.02},
            {"kind": "almost", "name": "alm", "s": 0.6, "p": 1.5, "n_min": 2, "n_max": 4},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    rc1 = main(["suite", "--config", str(cfg_path), "--out", str(out1), "--workers", "2"])
    rc2 = main(["suite", "--config", str(cfg_path), "--out", str(out2), "--workers", "2"])
    assert rc1 == rc2 == 0
    for f1 in sorted(out1.iterdir()):
        f2 = out2 / f1.name
        assert f2.exists()
        if f1.suffix == ".json":
            assert _strip_timestamp(f1.read_text()) == _strip_timestamp(f2.read_text())
        else:
            assert f1.read_text() == f2.read_text()


def test_entry_point_exists():
    for kind in EXPERIMENTS:
        proc = subprocess.run([sys.executable, "-m", "splab.cli", kind, "--help"],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert f"usage: spl {kind}" in proc.stdout


def test_fmt_writes_numpy_floats_as_plain_floats():
    assert _fmt(np.float64(82.48089356508412)) == "82.48089356508412"
    assert _fmt(np.float32(0.5)) == "0.5"


@pytest.mark.parametrize("argv", [
    ["threshold", "--n-max", "2"],
    ["patch", "--n-values", "1,2", "--shifts", "3"],
])
def test_cli_csv_has_no_numpy_reprs(tmp_path, monkeypatch, argv):
    # the threshold rows do not depend on the n <= 2 cross-check, which takes ~25 s
    monkeypatch.setattr(harness, "threshold_scan",
                        functools.partial(harness.threshold_scan, cross_validate=False))
    assert main(argv + ["--out", str(tmp_path), "--formats", "csv", "--workers", "2"]) == 0
    csvs = list(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert "np.float64(" not in path.read_text(), path.name


def test_compare_reports_names_every_difference(tmp_path, capsys, compare_reports):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, stamp in ((a, "1"), (b, "2")):
        d.mkdir()
        (d / "r.json").write_text('{\n  "timestamp": "%s",\n  "value": 1.5\n}\n' % stamp)
        (d / "r.csv").write_text("n,upper\n1,2.5\n")
    assert compare_reports.differing_files(a, b) == []
    assert compare_reports.main([str(a), str(b)]) == 0
    (b / "r.csv").write_text("n,upper\n1,2.6\n")
    (b / "extra.svg").write_text("<svg/>")
    (a / "r.json").write_text('{\n  "timestamp": "1",\n  "value": 1.25\n}\n')
    for d, stamp in ((a, "1"), (b, "2")):  # outside JSON a timestamp line counts
        (d / "r.svg").write_text('<svg>\n"timestamp": "%s"\n</svg>\n' % stamp)
    differ = ["extra.svg", "r.csv", "r.json", "r.svg"]
    assert compare_reports.differing_files(a, b) == differ
    capsys.readouterr()
    assert compare_reports.main([str(a), str(b)]) == 1
    assert capsys.readouterr().out.split() == differ


def test_compare_numbers_gates_on_report_rtol(tmp_path, capsys, compare_reports):
    # --numbers exits 1 once a report's largest relative change exceeds REPORT_RTOL; a snapshot
    # file of `report_numbers` stands for its directory
    a, b = tmp_path / "a", tmp_path / "b"
    for d in (a, b):
        d.mkdir()
        (d / "r.json").write_text('{"timestamp": "1", "value": 1.5}')
    snapshot = tmp_path / "numbers.json"
    snapshot.write_text(json.dumps(compare_reports.report_numbers(a)))
    rtol = compare_reports.REPORT_RTOL
    for value, code in ((1.5, 0), (1.5 * (1 + rtol / 2), 0), (1.5 * (1 + 2 * rtol), 1)):
        (b / "r.json").write_text('{"timestamp": "2", "value": %r}' % value)
        assert compare_reports.main(["--numbers", str(snapshot), str(b)]) == code
    (b / "r.json").write_text('{"timestamp": "2", "value": "1.5"}')
    assert compare_reports.main(["--numbers", str(a), str(b)]) == 1
    assert capsys.readouterr().out.splitlines()[-1] == "r.json\tinf\tvalue"
    acceptance = compare_reports.report_numbers(Path(__file__).resolve().parent.parent / "scripts"
                                                / "acceptance_numbers.json")
    assert len(acceptance) == 8
