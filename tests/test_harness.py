from dataclasses import replace

import numpy as np
import pytest

from splab import harness, sphere
from splab.config import ExperimentConfig, RunConfig, load_config, validate_config
from splab.energy import EnergyPlan, FractionalParams, Region, gagliardo_energy
from splab.errors import ConfigurationError
from splab.harness import (
    SELFTEST_SAMPLES,
    AveragingConfig,
    averaging_check,
    cone_distance_sum,
    identity_map_2d,
    kernel_selftest,
    run_suite,
    threshold_scan,
    threshold_verdict,
)
from splab.sphere import ShiftPoint, shifted_projection, shifted_unit_values, unit_values

H16 = 3.3807289932289937


def test_kernel_selftest_matches_closed_form():
    est, closed = kernel_selftest(1.0, 100_000, seed=13)
    assert closed == pytest.approx(4 * np.pi, rel=1e-12)
    assert abs(est - closed) / closed <= 0.02


@pytest.mark.parametrize("run_seed", [74, 137])
def test_kernel_selftest_passes_where_the_disk_estimator_failed(run_seed):
    # an averaging run at seed S draws its self-test from seed S + 1; the
    # plain Monte Carlo estimate over the whole disk missed 4 pi by 3.2% and
    # 6.6% at these seeds
    est, closed = kernel_selftest(1.0, SELFTEST_SAMPLES, seed=run_seed + 1)
    assert abs(est - closed) / closed <= 0.02


def test_kernel_selftest_catches_a_wrong_sampler(monkeypatch):
    def uniform_radii(rng, count, radius):  # uniform r instead of sqrt: not uniform over the disk
        r = radius * rng.random(count)
        theta = 2 * np.pi * rng.random(count)
        return np.column_stack([r * np.cos(theta), r * np.sin(theta)])

    monkeypatch.setattr(harness, "_uniform_ball_2d", uniform_radii)
    for seed in (12, 13, 75):
        est, closed = kernel_selftest(1.0, SELFTEST_SAMPLES, seed=seed)
        assert abs(est - closed) / closed > 0.02


def test_kernel_selftest_divergent_rejected():
    with pytest.raises(ConfigurationError):
        kernel_selftest(2.0, 1000, seed=1)


def test_averaging_constant_map_zero():
    params = FractionalParams(s=0.4, p=1.5)
    cfg = AveragingConfig(params=params, spacing=0.1, n_mc=100, seed=3)
    out = averaging_check(cfg)
    assert out["mean_projected_energy"] > 0
    assert out["bound_ratio"] > 0
    assert sum(out["tail_histogram"]) <= cfg.n_mc
    assert out["selftest_rel_err"] <= 0.02


def test_averaging_requires_enough_samples():
    params = FractionalParams(s=0.4, p=1.5)
    with pytest.raises(ConfigurationError):
        AveragingConfig(params=params, n_mc=50)


def test_averaging_deterministic():
    params = FractionalParams(s=0.4, p=1.5)
    cfg = AveragingConfig(params=params, spacing=0.1, n_mc=100, seed=3)
    a = averaging_check(cfg)
    b = averaging_check(cfg)
    assert a["mean_projected_energy"] == b["mean_projected_energy"]
    assert a["selftest_estimate"] == b["selftest_estimate"]


def test_averaging_plan_drops_singular_hit():
    # a shift equal to a node value puts that node on the singular set
    params = FractionalParams(s=0.4, p=1.5)
    u = identity_map_2d(0.1)
    region = Region.from_ball((0.0, 0.0), 1.0)
    node = int(np.argmin(np.linalg.norm(u.grid.nodes() - (0.3, -0.2), axis=1)))
    proj, hits = shifted_projection(u, ShiftPoint(tuple(u.values[node])))
    assert [h.node for h in hits] == [node]
    plan = EnergyPlan(u.grid, params, region, workers=2)
    drop = np.isin(np.arange(u.grid.node_count), [h.node for h in hits])
    planned = plan.energy(proj, drop=drop).value
    direct = gagliardo_energy(proj, params, region.without([node])).value
    assert planned == pytest.approx(direct, rel=1e-12)
    assert planned != pytest.approx(plan.energy(proj).value, rel=1e-6)


def averaging_reference(cfg):
    """(energies, degenerate count) of `_averaging_core`, one shift at a time."""
    u = identity_map_2d(cfg.spacing)
    plan = EnergyPlan(u.grid, cfg.params, Region.from_ball((0.0, 0.0), 1.0))
    shifts = harness._uniform_ball_2d(np.random.default_rng(cfg.seed), cfg.n_mc, cfg.alpha)
    energies, degenerate = [], 0
    for a in shifts:
        out = np.empty_like(u.values)
        hits = unit_values(u.values, a, out)
        if hits.sum() > sphere.DEGENERATE_HIT_FRACTION * u.grid.node_count:
            degenerate += 1
        else:
            energies.append(plan.energy(replace(u, values=out), drop=hits).value)
    return energies, degenerate


@pytest.mark.parametrize("fraction", [sphere.DEGENERATE_HIT_FRACTION, 0.0],
                         ids=["hits-dropped", "hits-degenerate"])
@pytest.mark.parametrize("p", [1.5, 2.0])
def test_averaging_core_equals_per_shift_loop(monkeypatch, p, fraction):
    # shifts 3, 40 and 70 sit on node values: each hits one node, and with a
    # hit fraction of 0 each is degenerate; shift 70 lies in the second chunk
    cfg = AveragingConfig(params=FractionalParams(s=0.4, p=p), spacing=0.1, n_mc=100, seed=8)
    values = identity_map_2d(cfg.spacing).values
    real_ball = harness._uniform_ball_2d

    def ball_with_node_values(rng, count, radius):
        shifts = real_ball(rng, count, radius)
        shifts[[3, 40, 70]] = values[[200, 221, 250]]
        return shifts

    monkeypatch.setattr(harness, "_uniform_ball_2d", ball_with_node_values)
    monkeypatch.setattr(sphere, "DEGENERATE_HIT_FRACTION", fraction)
    energies, degenerate = averaging_reference(cfg)
    assert degenerate == (3 if fraction == 0.0 else 0) and len(energies) == 100 - degenerate
    out = harness._averaging_core(cfg, workers=2)
    assert out["degenerate_shifts"] == degenerate
    assert out["mean_projected_energy"] == float(np.mean(energies))
    edges = np.geomspace(max(out["mean_projected_energy"] * 1e-3, 1e-12),
                         out["mean_projected_energy"] * 1e3, 13)
    assert out["tail_histogram"] == np.histogram(energies, bins=edges)[0].tolist()


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_averaging_core_caps_its_shift_stack(monkeypatch, p):
    # an element budget of 30 shifts: 100 shifts project in chunks of 30, 30, 30, 10
    cfg = AveragingConfig(params=FractionalParams(s=0.4, p=p), spacing=0.1, n_mc=100, seed=5)
    budget = 30 * identity_map_2d(cfg.spacing).values.size + 1
    shapes = []

    def recording(u, shifts, out):
        shapes.append(out.shape[0])
        return shifted_unit_values(u, shifts, out)

    monkeypatch.setattr(harness, "SHIFT_CHUNK_ELEMENTS", budget)
    monkeypatch.setattr(harness, "shifted_unit_values", recording)
    energies, degenerate = averaging_reference(cfg)
    out = harness._averaging_core(cfg)
    assert shapes == [30, 30, 30, 10]
    assert out["degenerate_shifts"] == degenerate == 0
    assert out["mean_projected_energy"] == float(np.mean(energies))


def test_cone_distance_sum_harmonic():
    # at p = ell the distance sum is the harmonic number: H(16) vs ln 16
    assert cone_distance_sum(16, 2, 2.0) == pytest.approx(H16, abs=1e-4)
    assert abs(np.log(16.0) - 2.7726) < 1e-4
    assert cone_distance_sum(16, 2, 2.0) > np.log(16.0)


def test_threshold_verdicts_from_shapes():
    ns = [1, 2, 3, 4]
    growing = [1.0, 1.5, 2.2, 3.3]
    verdict, s2, sl = threshold_verdict(ns, growing)
    assert verdict == "diverges"
    log_like = [1.0, 1.15, 1.25, 1.33]
    verdict, s2, sl = threshold_verdict(ns, log_like)
    assert verdict == "marginal/logarithmic"
    decaying = [1.0, 0.8, 0.7, 0.65]
    verdict, s2, sl = threshold_verdict(ns, decaying)
    assert verdict == "bounded"


def test_threshold_scan_preconditions():
    with pytest.raises(ConfigurationError):
        threshold_scan([0.9], [2.5], range(1, 3))  # sp >= ell
    with pytest.raises(ConfigurationError):
        threshold_scan([0.4, 0.4], [2.5, 2.2], range(1, 3))  # no straddle


def test_threshold_scan_three_regimes():
    report = threshold_scan([0.4, 0.4, 0.5], [2.5, 1.5, 2.0], range(1, 4),
                            workers=2, cross_validate=False)
    assert report.constants["verdict_s0.4_p2.5"] == "diverges"
    assert report.constants["verdict_s0.4_p1.5"] == "bounded"
    assert report.constants["verdict_s0.5_p2.0"] == "marginal/logarithmic"
    assert "distance_sum_s0.5_p2.0" in report.constants


def test_run_suite_empty_config():
    assert run_suite(RunConfig()) == []


def test_run_suite_checks_every_spec_before_running(monkeypatch):
    ran = []
    monkeypatch.setitem(harness.EXPERIMENTS, "geometry",
                        (harness.GeometryOptions, lambda opts, cfg: ran.append(opts)))
    cfg = RunConfig(experiments=(
        ExperimentConfig("geometry", {"samples": 1000}),
        ExperimentConfig("threshold", {"n_max": 1}),
    ))
    with pytest.raises(ConfigurationError, match="experiment 'threshold'"):
        run_suite(cfg)
    assert ran == []


def test_run_suite_single_geometry():
    cfg = RunConfig(experiments=(
        ExperimentConfig("geometry", {"samples": 2000, "n_min": 1, "n_max": 3}),
    ))
    reports = run_suite(cfg)
    assert len(reports) == 1
    assert reports[0].all_passed


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigurationError, match="/experiments/0/typo"):
        validate_config({"experiments": [{"kind": "geometry", "typo": 1}]})


def test_config_unknown_kind_rejected():
    with pytest.raises(ConfigurationError, match="kind"):
        validate_config({"experiments": [{"kind": "nonsense"}]})


def test_config_description_allowed_everywhere():
    cfg = validate_config({
        "description": "top",
        "experiments": [{"kind": "geometry", "description": "inner", "samples": 2000}],
    })
    assert cfg.description == "top"


def test_config_missing_file():
    with pytest.raises(ConfigurationError):
        load_config("/nonexistent/path.json")
