"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runtime budgets are part of the criteria and are asserted with the
measured wall time.  Run with tee-sys capture (the project default) so
the lines appear in live and saved output alike.
"""

import json
import time

import numpy as np

from splab.chords import chords_vectorized, estimate_constant
from splab.cli import main as cli_main
from splab.energy import FractionalParams, gagliardo_energy
from splab.grid import Box, Placement, make_grid, rescale_map, sample_map
from splab.harness import (
    AveragingConfig,
    averaging_check,
    cone_distance_sum,
    kernel_selftest,
    threshold_scan,
)
from splab.patches import PatchModel, PatchSpec
from splab.retraction import (
    AlmostCtrexSpec,
    AlmostRetraction,
    AlmostRetractionSpec,
    almost_projection_scan,
    degree_of,
    lipschitz_rate_check,
)
from splab.sphere import ShiftPoint, restricted_diffeo_check

INDICATOR_TRUNCATED = 10.914604076867487
H16 = 3.3807289932289937
LN16 = 2.772588722239781


def _emit(criterion: str, passed: bool, detail: str, elapsed: float, budget: float):
    status = "PASS" if passed else "FAIL"
    line = f"[acceptance] {criterion}: {status} ({detail}; {elapsed:.1f}s of {budget:.0f}s budget)"
    print(line, flush=True)
    assert passed, line
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.1f}s over budget {budget}s"


def _bump_1d(h):
    g = make_grid(1, [-1.5, 1.5], h)

    def f(x):
        t = np.clip(1.0 - x[:, 0] ** 2, 0.0, None)
        return np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)

    return sample_map(g, f, Box((-1.0,), (1.0,)), [0.0])


def test_criterion_01_scaling_law():
    t0 = time.time()
    params = FractionalParams(s=0.3, p=2.0)
    u = _bump_1d(0.01)
    base = gagliardo_energy(u, params).value
    lam = 2.0
    scaled = gagliardo_energy(rescale_map(u, Placement((0.0,), lam)), params).value
    exact_ratio = scaled / base
    target = lam ** (1 - params.sp)
    exact_ok = abs(exact_ratio / target - 1.0) <= 1e-12

    g2 = make_grid(1, [-3.0, 3.0], 0.01)

    def f2(x):
        t = np.clip(1.0 - (x[:, 0] / lam) ** 2, 0.0, None)
        return np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)

    resampled = gagliardo_energy(sample_map(g2, f2, Box((-lam,), (lam,)), [0.0]), params).value
    resample_ok = abs(resampled / base / target - 1.0) <= 0.02
    _emit(
        "criterion 1 (scaling law)",
        exact_ok and resample_ok,
        f"grid-transforming ratio off by {abs(exact_ratio / target - 1):.2e}, "
        f"resampled off by {abs(resampled / base / target - 1):.2%}",
        time.time() - t0,
        10.0,
    )


def test_criterion_02_closed_form_seminorm():
    t0 = time.time()
    g = make_grid(1, [-2.0, 3.0], 1e-3)
    u = sample_map(g, lambda x: ((x[:, 0] > 0) & (x[:, 0] < 1)).astype(float),
                   Box((-0.5,), (1.5,)), [0.0])
    value = gagliardo_energy(u, FractionalParams(s=0.25, p=2.0), workers=2).value
    rel = abs(value - INDICATOR_TRUNCATED) / INDICATOR_TRUNCATED
    _emit(
        "criterion 2 (closed-form seminorm)",
        rel <= 0.15,
        f"quadrature {value:.4f} vs truncated oracle {INDICATOR_TRUNCATED:.4f} "
        f"(full line 16), rel err {rel:.2%}",
        time.time() - t0,
        60.0,
    )


def test_criterion_03_chord_identity():
    t0 = time.time()
    rng = np.random.default_rng(7)
    n_cases = 10**6
    c = rng.uniform(-0.7, 0.7, (n_cases, 2))
    a = rng.uniform(-1.0, 1.0, (n_cases, 2))
    worst = 0.0
    for n in (1, 3, 6):
        closed = chords_vectorized(c, n, a)
        e1 = np.array([1.0, 0.0])
        disp = 2.0 ** (1 - n)
        dp = c + disp * e1 - a
        dm = c - disp * e1 - a
        direct = np.linalg.norm(
            dp / np.linalg.norm(dp, axis=1)[:, None] - dm / np.linalg.norm(dm, axis=1)[:, None],
            axis=1,
        )
        worst = max(worst, float(np.max(np.abs(closed - direct))))
    _emit(
        "criterion 3 (chord identity)",
        worst <= 1e-12,
        f"max |closed - direct| = {worst:.2e} over 3x{n_cases} cases",
        time.time() - t0,
        30.0,
    )


def test_criterion_04_lemma_constants():
    t0 = time.time()
    details = []
    ok = True
    for lemma in ("geom1", "geom2"):
        est = estimate_constant(lemma, range(1, 9), 100_000, seed=11)
        vals = list(est.per_n.values())
        spread = max(vals) / min(vals) - 1.0
        ok &= est.minimum > 0 and spread <= 0.10
        details.append(f"{lemma}: min {est.minimum:.4f}, spread {spread:.2%}")
    _emit("criterion 4 (chord-bound constants)", ok, "; ".join(details), time.time() - t0, 60.0)


def test_criterion_05_patch_uniformity():
    t0 = time.time()
    params = FractionalParams(s=0.4, p=2.5)
    model = PatchModel(params, workers=2)
    energies = {}
    for n in (1, 2, 3):
        energies[n] = model.patch_energy_direct(PatchSpec((0.3, 0.2), n, params))
    spread = max(energies.values()) / min(energies.values())
    uniform_ok = spread <= 2.0

    rng = np.random.default_rng(23)
    r = np.sqrt(rng.random(100))
    th = 2 * np.pi * rng.random(100)
    shifts = np.column_stack([r * np.cos(th), r * np.sin(th)])
    bound_ok = True
    worst = np.inf
    for n in (1, 2):
        spec = PatchSpec((0.3, 0.2), n, params)
        for a, direct in zip(shifts, model.patch_projected_direct(spec, shifts)):
            lower = model.patch_projected_lower(spec, a)
            if lower > 0:
                ratio = direct / lower
                worst = min(worst, ratio)
                bound_ok &= ratio >= 0.1
    _emit(
        "criterion 5 (patch uniformity and projected bound)",
        uniform_ok and bound_ok,
        f"energy spread {spread:.3f} (<= 2), min direct/lower {worst:.3f} (>= 0.1) "
        f"over 100 shifts at n in {{1, 2}}",
        time.time() - t0,
        600.0,
    )


def test_criterion_06_threshold():
    t0 = time.time()
    report = threshold_scan([0.4, 0.4, 0.5], [2.5, 1.5, 2.0], range(1, 7), workers=2)
    slope = report.constants["slope_s0.4_p2.5"]
    slope_ok = abs(slope - 0.5) <= 0.5
    verdicts_ok = (
        report.constants["verdict_s0.4_p2.5"] == "diverges"
        and report.constants["verdict_s0.4_p1.5"] == "bounded"
        and report.constants["verdict_s0.5_p2.0"] == "marginal/logarithmic"
    )
    cross_ok = report.all_passed
    harmonic = cone_distance_sum(16, 2, 2.0)
    harmonic_ok = abs(harmonic - H16) <= 1e-4 and abs(np.log(16.0) - LN16) <= 1e-4
    _emit(
        "criterion 6 (threshold scan)",
        slope_ok and verdicts_ok and cross_ok and harmonic_ok,
        f"slope {slope:.3f} vs p-ell = 0.5, verdicts "
        f"[{report.constants['verdict_s0.4_p2.5']}/{report.constants['verdict_s0.4_p1.5']}/"
        f"{report.constants['verdict_s0.5_p2.0']}], cross-validation "
        f"{'ok' if cross_ok else 'failed'}, H(16) = {harmonic:.4f} vs ln 16 = {LN16:.4f}",
        time.time() - t0,
        1200.0,
    )


def test_criterion_07_averaging():
    t0 = time.time()
    est, closed = kernel_selftest(1.0, 100_000, seed=12)
    selftest_ok = abs(est - closed) / closed <= 0.02

    params = FractionalParams(s=0.4, p=1.5)
    coarse = averaging_check(AveragingConfig(params=params, spacing=0.04, n_mc=128, seed=11),
                             workers=2)
    fine = averaging_check(AveragingConfig(params=params, spacing=0.02, n_mc=100, seed=11),
                           workers=2)
    drift = abs(fine["bound_ratio"] / coarse["bound_ratio"] - 1.0)
    stable_ok = drift <= 0.25

    control = FractionalParams(s=0.4, p=2.0)
    ratios = []
    for h in (0.08, 0.04, 0.02):
        out = averaging_check(AveragingConfig(params=control, spacing=h, n_mc=100, seed=11),
                              workers=2)
        ratios.append(out["bound_ratio"])
    drift_slope = np.polyfit(np.log(1.0 / np.array([0.08, 0.04, 0.02])), ratios, 1)[0]
    control_ok = ratios[0] < ratios[1] < ratios[2] and drift_slope > 0
    _emit(
        "criterion 7 (averaging)",
        selftest_ok and stable_ok and control_ok,
        f"self-test 4pi within {abs(est - closed) / closed:.2%}, p<ell drift {drift:.2%}, "
        f"p=ell ratios {ratios[0]:.3f}<{ratios[1]:.3f}<{ratios[2]:.3f} "
        f"(slope vs log(1/h) = {drift_slope:.4f})",
        time.time() - t0,
        600.0,
    )


def test_criterion_08_almost_retraction():
    t0 = time.time()
    degree_ok = True
    maxes, mins = [], []
    for m in range(2, 8):
        eps = 2.0**-m
        retr = AlmostRetraction(AlmostRetractionSpec(epsilon=eps))
        degree_ok &= abs(degree_of(retr)) <= 1e-9
        rep = lipschitz_rate_check(retr)
        maxes.append(rep.max_slope_eps)
        mins.append(rep.halfcap_min_slope_eps)
    rate_ok = (max(maxes) / min(maxes) - 1 <= 0.10) and (max(mins) / min(mins) - 1 <= 0.10)

    params = FractionalParams(s=0.6, p=1.5)
    spec = AlmostCtrexSpec(params=params)
    scan = almost_projection_scan(spec, n_range=range(2, 7), workers=2)
    sp = params.sp
    support_ok = abs(scan["support_exponent"] - scan["support_target"]) <= 0.05 * scan["support_target"]
    energy_ok = abs(scan["energy_exponent"] - scan["energy_target"]) <= 0.5
    projected_ok = abs(scan["projected_exponent"] - scan["projected_target"]) <= 0.5
    _emit(
        "criterion 8 (almost retraction)",
        degree_ok and rate_ok and support_ok and energy_ok and projected_ok,
        f"degree <= 1e-9, rate spreads {max(maxes) / min(maxes) - 1:.2%}/"
        f"{max(mins) / min(mins) - 1:.2%}, exponents support "
        f"{scan['support_exponent']:.3f}/{scan['support_target']:.3f}, energy "
        f"{scan['energy_exponent']:.3f}/{scan['energy_target']:.3f}, projected "
        f"{scan['projected_exponent']:.3f}/{scan['projected_target']:.3f}",
        time.time() - t0,
        600.0,
    )


def test_criterion_09_diffeo_check():
    t0 = time.time()
    ok = True
    worst = 1.0
    for radius in (0.0, 0.1, 0.2, 0.3, 0.4, 0.5):
        for angle in (0.0, 1.0, 2.5, 4.0):
            a = (radius * np.cos(angle), radius * np.sin(angle))
            rep = restricted_diffeo_check(ShiftPoint(a), resolution=1e-3)
            ok &= rep.injective and rep.min_jacobian > 0
            worst = min(worst, rep.min_jacobian)
    _emit(
        "criterion 9 (restricted diffeomorphism)",
        ok,
        f"injective with positive derivative for all |a| <= 0.5 "
        f"(min derivative {worst:.4f})",
        time.time() - t0,
        5.0,
    )


def test_criterion_10_determinism(tmp_path, compare_reports):
    t0 = time.time()
    cfg = {
        "seed": 5,
        "experiments": [
            {"kind": "seminorm", "name": "ind", "map": "indicator1d",
             "s": 0.25, "p": 2.0, "spacing": 0.02},
            {"kind": "geometry", "name": "geo", "samples": 5000, "n_min": 1, "n_max": 4},
            {"kind": "patch", "name": "pat", "s": 0.4, "p": 2.5,
             "n_values": [1], "shift_count": 5},
            {"kind": "averaging", "name": "avg", "s": 0.4, "p": 1.5,
             "spacing": 0.1, "n_mc": 100, "refine": False},
            {"kind": "threshold", "name": "thr", "s_values": [0.95, 0.95],
             "p_values": [1.5, 2.1], "n_max": 2},
            {"kind": "almost", "name": "alm", "s": 0.6, "p": 1.5, "n_min": 2, "n_max": 4},
        ],
    }
    cfg_path = tmp_path / "suite.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for run in (1, 2):
        out = tmp_path / f"run{run}"
        rc = cli_main(["suite", "--config", str(cfg_path), "--out", str(out), "--workers", "2"])
        assert rc == 0
        outs.append(out)
    differ = compare_reports.differing_files(*outs)
    compared = len(list(outs[0].iterdir()))
    _emit(
        "criterion 10 (determinism)",
        not differ and compared >= 18,
        f"{compared} report files byte-identical across two runs (timestamp excluded); "
        f"differing: {differ}",
        time.time() - t0,
        600.0,
    )
