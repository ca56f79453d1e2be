import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splab import cli
from splab.cli import main
from splab.config import validate_config
from splab.errors import ConfigurationError, OutputError
from splab.harness import EXPERIMENTS
from splab.report import CSV_COLUMNS, ExperimentReport, _fmt, emit_report, to_csv, to_json, to_svg


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
], ids=["config-layer-s", "config-patch-n-values", "config-seed", "config-seminorm-map",
        "flag-threshold-s", "flag-patch-n-values", "flag-seminorm-map", "flag-threshold-unpaired",
        "flag-patch-shifts-0", "flag-patch-shifts-minus-1"])
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


def test_cli_geometry_run_and_outputs(tmp_path):
    rc = main([
        "geometry", "--lemma", "geom1", "--samples", "2000",
        "--n-min", "1", "--n-max", "3", "--out", str(tmp_path), "--seed", "7",
    ])
    assert rc == 0
    assert (tmp_path / "geometry-geom1.csv").exists()
    assert (tmp_path / "geometry-geom1.json").exists()
    assert (tmp_path / "geometry-geom1.svg").exists()


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
    ["threshold", "--n-max", "1"],
    ["patch", "--n-values", "1,2", "--shifts", "3"],
])
def test_cli_csv_has_no_numpy_reprs(tmp_path, argv):
    assert main(argv + ["--out", str(tmp_path), "--formats", "csv", "--workers", "2"]) == 0
    csvs = list(tmp_path.glob("*.csv"))
    assert csvs
    for path in csvs:
        assert "np.float64(" not in path.read_text(), path.name
