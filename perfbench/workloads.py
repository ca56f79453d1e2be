"""The benchmark's workloads: inputs from a seed, one timed pass, checks.

Each workload builds its inputs from the seed (``setup``), then runs one
pass of fixed work through splab's public API (``run_pass``).  A pass
returns its headline numbers, the assertions the experiments report as
(name, passed) pairs, and the number of work units it completed.

Headline numbers are split into ``fixed`` ones, which do not depend on the
seed and are compared with the stored reference on every run, and
``seeded`` ones, which are compared only at the reference's recorded seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from splab import cli, harness, retraction
from splab.energy import FractionalParams
from splab.harness import AveragingConfig
from splab.patches import LayerSpec, PatchModel
from splab.retraction import AlmostCtrexSpec

WORKERS = 2


@dataclass
class PassResult:
    fixed: dict
    seeded: dict
    checks: list
    ops: int


# ---------------------------------------------------------------------------
# avg-lattice: shift averaging on one uniform lattice (criterion 7, coarse)
# ---------------------------------------------------------------------------

AVG_SIZES = {
    # arms: (label, s, p, Monte Carlo shifts); the p < ell arm also runs
    # its 100-shift calibration at h = 0.1
    "full": {"spacing": 0.04, "arms": (("p<ell", 0.4, 1.5, 128), ("p=ell", 0.4, 2.0, 100))},
    "smoke": {"spacing": 0.1, "arms": (("p<ell", 0.4, 1.5, 100), ("p=ell", 0.4, 2.0, 100))},
}
CALIBRATION_SHIFTS = 100


def avg_setup(seed: int, size: str, out_root: Path) -> dict:
    spec = AVG_SIZES[size]
    configs = [
        (label, AveragingConfig(params=FractionalParams(s=s, p=p), n_mc=n_mc, seed=seed,
                                spacing=spec["spacing"]))
        for label, s, p, n_mc in spec["arms"]
    ]
    return {"configs": configs}


def avg_pass(inputs: dict) -> PassResult:
    # every pass pays for its calibration run, as a fresh process would
    getattr(harness, "_CALIBRATION_CACHE", {}).clear()
    fixed, seeded, checks = {}, {}, []
    ops = 0
    for label, cfg in inputs["configs"]:
        out = harness.averaging_check(cfg, workers=WORKERS)
        ops += cfg.n_mc
        fixed[f"base_energy.{label}"] = out["base_energy"]
        seeded[f"bound_ratio.{label}"] = out["bound_ratio"]
        checks.append((f"{label} kernel self-test within 2%", out["selftest_rel_err"] <= 0.02))
        if "bound_ok" in out:
            ops += CALIBRATION_SHIFTS
            fixed[f"calibrated_bound.{label}"] = out["calibrated_bound"]
            checks.append((f"{label} bound ratio below calibrated constant", out["bound_ok"]))
    return PassResult(fixed, seeded, checks, ops)


# ---------------------------------------------------------------------------
# patch-cloud: `spl patch` through the CLI (criterion 5)
# ---------------------------------------------------------------------------

PATCH_SIZES = {
    "full": {"n_values": "1,2,3", "shifts": 24},
    "smoke": {"n_values": "1,2", "shifts": 3},
}


def patch_setup(seed: int, size: str, out_root: Path) -> dict:
    spec = PATCH_SIZES[size]
    out_dir = Path(tempfile.mkdtemp(prefix="patch-", dir=out_root))
    argv = ["patch", "--s", "0.4", "--p", "2.5", "--n-values", spec["n_values"],
            "--shifts", str(spec["shifts"]), "--workers", str(WORKERS),
            "--seed", str(seed), "--out", str(out_dir)]
    n_projected = sum(n in (1, 2) for n in map(int, spec["n_values"].split(",")))
    return {"argv": argv, "out_dir": out_dir, "ops": n_projected * spec["shifts"]}


def patch_pass(inputs: dict) -> PassResult:
    out_dir = inputs["out_dir"]
    shutil.rmtree(out_dir, ignore_errors=True)
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(inputs["argv"])
    report = json.loads((out_dir / "patch.json").read_text())
    consts = report["constants"]
    checks = [("spl patch exits 0", code == 0)]
    checks += [(a["name"], a["passed"]) for a in report["assertions"]]
    seeded = {k: v for k, v in consts.items() if k.startswith("min_direct_over_lower")}
    return PassResult({"energy_spread": consts["energy_spread"]}, seeded, checks, inputs["ops"])


# ---------------------------------------------------------------------------
# accounting-scan: compositional accounting (criteria 6 and 8)
# ---------------------------------------------------------------------------

THRESHOLD_PAIRS = ((0.4, 2.5, "diverges"), (0.4, 1.5, "bounded"), (0.5, 2.0, "marginal/logarithmic"))

ACCT_SIZES = {
    "full": {"n_max": 5, "almost_n": (2, 6)},
    "smoke": {"n_max": 3, "almost_n": (2, 4)},
}


def acct_setup(seed: int, size: str, out_root: Path) -> dict:
    spec = ACCT_SIZES[size]
    n_range = range(1, spec["n_max"] + 1)
    params = FractionalParams(s=0.4, p=2.5)
    shifts_per_pair = sum(PatchModel(params).shift_grid(LayerSpec(n)).shape[0] for n in n_range)
    lo, hi = spec["almost_n"]
    return {
        "n_range": n_range,
        "almost_spec": AlmostCtrexSpec(params=FractionalParams(s=0.6, p=1.5)),
        "almost_range": range(lo, hi + 1),
        "ops": shifts_per_pair * len(THRESHOLD_PAIRS),
    }


def acct_pass(inputs: dict) -> PassResult:
    s_values = [s for s, _, _ in THRESHOLD_PAIRS]
    p_values = [p for _, p, _ in THRESHOLD_PAIRS]
    report = harness.threshold_scan(s_values, p_values, inputs["n_range"], workers=WORKERS,
                                    cross_validate=False)
    fixed, checks = {}, [("threshold report assertions", report.all_passed)]
    for s, p, verdict in THRESHOLD_PAIRS:
        fixed[f"slope_s{s}_p{p}"] = report.constants[f"slope_s{s}_p{p}"]
        checks.append((f"s={s} p={p} verdict {verdict}",
                       report.constants[f"verdict_s{s}_p{p}"] == verdict))
    scan = retraction.almost_projection_scan(inputs["almost_spec"], n_range=inputs["almost_range"],
                                             workers=WORKERS)
    for key in ("support", "energy", "projected"):
        fixed[f"{key}_exponent"] = scan[f"{key}_exponent"]
    support_tol = 0.05 * scan["support_target"]
    checks += [
        ("support exponent within 5%", abs(scan["support_exponent"] - scan["support_target"]) <= support_tol),
        ("energy exponent within 0.5", abs(scan["energy_exponent"] - scan["energy_target"]) <= 0.5),
        ("projected exponent within 0.5",
         abs(scan["projected_exponent"] - scan["projected_target"]) <= 0.5),
        ("projected inf-energy diverges", scan["diverges"]),
    ]
    return PassResult(fixed, {}, checks, inputs["ops"])


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, str, Path], dict]
    run_pass: Callable[[dict], PassResult]


WORKLOADS = {
    "avg-lattice": Workload(avg_setup, avg_pass),
    "patch-cloud": Workload(patch_setup, patch_pass),
    "accounting-scan": Workload(acct_setup, acct_pass),
}


def compare_reference(result: PassResult, ref: dict, use_seeded: bool, rel_tol: float = 1e-9) -> list:
    """Checks of a pass's headline numbers against a stored reference."""
    checks = []
    groups = [("fixed", result.fixed)] + ([("seeded", result.seeded)] if use_seeded else [])
    for group, values in groups:
        for key, expected in ref[group].items():
            got = values.get(key)
            ok = got is not None and abs(got - expected) <= rel_tol * abs(expected)
            checks.append((f"{key} matches reference to {rel_tol:g}", ok))
    return checks
