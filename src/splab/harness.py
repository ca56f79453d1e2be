"""Top-level experiments: averaging, threshold scan, the table of experiment
kinds (`EXPERIMENTS`), and the suite runner.

Monte Carlo shifts are drawn with a seeded generator through an explicit
polar transform (no rejection), so runs are bit-reproducible.  Every
experiment returns an ExperimentReport whose assertion list drives the
process exit status.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import TYPE_CHECKING

import numpy as np
from numpy.typing import NDArray

from .chords import MAX_SCALE, check_sample_count, estimate_constant
from .energy import (
    DEFAULT_NODE_BUDGET,
    EnergyPlan,
    FractionalParams,
    Region,
    _over,
    check_grid_budget,
    check_pair_sum,
    gagliardo_energy,
)
from .errors import BudgetError, ConfigurationError, DegenerateShiftError, NumericalError, SplabError
from .grid import Box, Grid, SampledMap, make_grid, sample_map
from .patches import ELL, LayerSpec, PatchModel, PatchSpec, check_layer_table
from .report import ExperimentReport
from .retraction import (
    AlmostCtrexSpec,
    AlmostRetraction,
    AlmostRetractionSpec,
    almost_projection_scan,
    check_scan_budget,
    degree_of,
    lipschitz_rate_check,
)
from .sphere import shifted_unit_values

if TYPE_CHECKING:
    from .config import RunConfig

INDICATOR_FULL_LINE = {"s": 0.25, "p": 2.0, "value": 16.0}
INDICATOR_TRUNCATED = 10.914604076867487  # closed form on [-2, 3]
SELFTEST_SAMPLES = 100_000
SELFTEST_INNER_RADIUS = 0.5
SHIFT_CHUNK = 64  # shifts per stacked EnergyPlan call; each call computes its kernel once
SHIFT_CHUNK_ELEMENTS = 2**21  # values of one shift stack (16 MB); bounds its projection temporaries
# |u(x) - a| <= sqrt(2) + alpha on the identity map of [-1, 1]^2: at this alpha its square
# stays below a quarter of the largest float
MAX_SHIFT_RADIUS = float(np.sqrt(np.finfo(float).max)) / 2


# ---------------------------------------------------------------------------
# Standard test maps
# ---------------------------------------------------------------------------


def _indicator_1d(grid: Grid) -> SampledMap:
    f = lambda x: ((x[:, 0] > 0) & (x[:, 0] < 1)).astype(float)
    return sample_map(grid, f, Box((-0.5,), (1.5,)), [0.0])


def _identity_2d(grid: Grid) -> SampledMap:
    return sample_map(grid, lambda x: x, grid.box, (0.0, 0.0))


def _bump_1d(grid: Grid) -> SampledMap:
    def f(x):
        t = np.clip(1.0 - x[:, 0] ** 2, 0.0, None)
        return np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)

    return sample_map(grid, f, Box((-1.0,), (1.0,)), [0.0])


# name -> (the box its grid covers, the map sampled on such a grid)
TEST_MAPS = {
    "indicator1d": (Box((-2.0,), (3.0,)), _indicator_1d),
    "identity2d": (Box.cube(1.0, dim=2), _identity_2d),
    "bump1d": (Box((-1.5,), (1.5,)), _bump_1d),
}


def map_grid(name: str, spacing: float) -> Grid:
    """The grid of test map `name`; a ConfigurationError unless `spacing` divides its box."""
    box = TEST_MAPS[name][0]
    return make_grid(box.dim, box, spacing)


def identity_map_2d(spacing: float) -> SampledMap:
    return _identity_2d(map_grid("identity2d", spacing))


# ---------------------------------------------------------------------------
# Averaging over the shift ball
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AveragingConfig:
    params: FractionalParams
    alpha: float = 1.0
    n_mc: int = 128
    seed: int = 11
    spacing: float = 0.04

    def __post_init__(self):
        check_pair_sum(self.params)
        if self.n_mc < 100:
            raise ConfigurationError(f"need at least 100 Monte Carlo shifts, got {self.n_mc}")
        if self.n_mc > DEFAULT_NODE_BUDGET:  # all shifts are drawn at once
            shown, budget = _over(self.n_mc, DEFAULT_NODE_BUDGET)
            raise BudgetError(f"{shown} Monte Carlo shifts > budget {budget}")
        if self.alpha <= 0:
            raise ConfigurationError("shift ball radius must be positive")
        if self.alpha > MAX_SHIFT_RADIUS:
            raise ConfigurationError(f"shift ball radius {self.alpha:g} > {MAX_SHIFT_RADIUS:.3g}: "
                                     "|u(x) - a|^2 would overflow a float")
        check_grid_budget(map_grid("identity2d", self.spacing), self.params, planned=True)


def _uniform_ball_2d(rng: np.random.Generator, count: int, radius: float) -> NDArray:
    r = radius * np.sqrt(rng.random(count))
    theta = 2 * np.pi * rng.random(count)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def kernel_selftest(p: float, samples: int, seed: int) -> tuple[float, float]:
    """Closed form vs estimate of the shift-kernel integral over B_2.

    The integral of |a|^(-p) over the radius-2 disk is 2*pi*2^(2-p)/(2-p)
    (4*pi at p = 1); it is finite exactly when p < 2.  The estimate takes
    the inner disk of radius SELFTEST_INNER_RADIUS in closed form and the
    annulus by Monte Carlo over points from the shift sampler
    `_uniform_ball_2d`; on the annulus the integrand is bounded, so the
    estimator has finite variance.  A sampler that is not uniform over
    the disk (uniform radii, say) misses the closed form by over 5%.
    """
    if p >= 2:
        raise ConfigurationError("the shift-kernel integral diverges for p >= ell")
    closed = 2 * np.pi * 2.0 ** (2 - p) / (2 - p)
    r0 = SELFTEST_INNER_RADIUS
    inner = 2 * np.pi * r0 ** (2 - p) / (2 - p)
    pts = _uniform_ball_2d(np.random.default_rng(seed), samples, 2.0)
    r = np.linalg.norm(pts, axis=1)
    estimate = float(inner + 4 * np.pi * np.sum(r[r >= r0] ** -p) / samples)
    return estimate, closed


def calibrated_average_bound(params: FractionalParams, workers: int = 1) -> float:
    """Bound constant, measured on the calibration identity map at each call.

    The constant is the calibration run's bound ratio with 50% headroom;
    production runs in the p < ell regime assert against it.
    """
    cal = AveragingConfig(params=params, alpha=1.0, n_mc=100, seed=101, spacing=0.1)
    return 1.5 * _averaging_core(cal, workers)["bound_ratio"]


def averaging_check(cfg: AveragingConfig, workers: int = 1) -> dict:
    """Monte Carlo average of the projected energy over shifts in B_alpha.

    Returns the mean projected energy, its ratio against the unshifted
    energy, a histogram of per-shift energies, and the kernel self-test.
    In the p < ell regime the ratio is checked against the calibration
    constant.
    """
    out = _averaging_core(cfg, workers)
    # the asserted self-test runs at p = 1; the run-p estimate is reported alongside
    est, closed = kernel_selftest(1.0, SELFTEST_SAMPLES, cfg.seed + 1)
    out["selftest_estimate"] = est
    out["selftest_closed_form"] = closed
    out["selftest_rel_err"] = abs(est - closed) / closed
    if cfg.params.p < cfg.params.ell:
        est_p, closed_p = kernel_selftest(cfg.params.p, SELFTEST_SAMPLES, cfg.seed + 1)
        out["selftest_estimate_run_p"] = est_p
        out["selftest_closed_form_run_p"] = closed_p
        c_avg = calibrated_average_bound(cfg.params, workers)
        out["calibrated_bound"] = c_avg
        out["bound_ok"] = bool(out["bound_ratio"] <= c_avg)
    return out


def _averaging_core(cfg: AveragingConfig, workers: int = 1) -> dict:
    u = identity_map_2d(cfg.spacing)
    region = Region.from_ball((0.0, 0.0), 1.0)
    plan = EnergyPlan(u.grid, cfg.params, region, workers=workers)
    base = plan.energy(u).value
    rng = np.random.default_rng(cfg.seed)
    shifts = _uniform_ball_2d(rng, cfg.n_mc, cfg.alpha)
    size = max(1, min(SHIFT_CHUNK, SHIFT_CHUNK_ELEMENTS // u.values.size, cfg.n_mc))
    buffer = np.empty((size,) + u.values.shape)
    energies = []
    degenerate = 0
    for c0 in range(0, cfg.n_mc, size):
        chunk = shifts[c0:c0 + size]
        stack = buffer[:len(chunk)]
        hits, bad = shifted_unit_values(u, chunk, stack)
        degenerate += int(bad.sum())
        if bad.any():  # only a chunk with a degenerate shift copies its stack
            stack, hits = stack[~bad], hits[~bad]
        energies.extend(e.value for e in plan.energies(stack, hits))
    if degenerate > 0.1 * cfg.n_mc:
        raise DegenerateShiftError(
            f"{degenerate} of {cfg.n_mc} shifts collapsed onto the singular set"
        )
    energies = np.asarray(energies)
    mean = float(np.mean(energies))
    if mean * 1e-3 == 0:  # every shift projected the disk onto one value, or the histogram range underflows
        raise NumericalError(f"mean projected energy {mean:.3g} at alpha={cfg.alpha:g} leaves no histogram range")
    edges = np.geomspace(mean * 1e-3, mean * 1e3, 13)
    hist, _ = np.histogram(energies, bins=edges)
    out = {
        "mean_projected_energy": mean,
        "base_energy": base,
        "bound_ratio": mean / base,
        "tail_histogram": hist.tolist(),
        "histogram_edges": edges.tolist(),
        "degenerate_shifts": degenerate,
        "spacing": cfg.spacing,
        "scheme": plan.route,
    }
    return out


# ---------------------------------------------------------------------------
# Threshold scan
# ---------------------------------------------------------------------------


def cone_distance_sum(j_max: int, ell: int, p: float) -> float:
    """The layer's distance sum: sum_{j=1}^{j_max} j^(ell - 1 - p).

    At p = ell this is the harmonic number of j_max, which grows like
    log j_max; for p > ell it converges, and for p < ell it grows like
    j_max^(ell - p).
    """
    j = np.arange(1, j_max + 1, dtype=float)
    return float(np.sum(j ** (ell - 1 - p)))


def fit_log2_slope(ns, values) -> float:
    if len(ns) < 2:
        return 0.0
    ys = np.log2(np.asarray(values, dtype=float))
    return float(np.polyfit(np.asarray(ns, dtype=float), ys, 1)[0])


def threshold_verdict(ns, ratios) -> tuple[str, float, float]:
    """(verdict, log2 slope, linear slope) from the ratio sequence."""
    log2_slope = fit_log2_slope(ns, ratios)
    if len(ns) < 2:
        return "bounded", 0.0, 0.0
    lin_slope = float(np.polyfit(np.asarray(ns, float), np.asarray(ratios, float), 1)[0])
    if log2_slope >= 0.25:
        return "diverges", log2_slope, lin_slope
    if lin_slope > 0:
        return "marginal/logarithmic", log2_slope, lin_slope
    return "bounded", log2_slope, lin_slope


def threshold_params(s_values, p_values) -> list[FractionalParams]:
    """The (s, p) pairs of a threshold scan, checked: distinct, 0 < s < 1 (`check_pair_sum`),
    sp < ell, p values straddling ell."""
    if len(s_values) != len(p_values):
        raise ConfigurationError(
            f"s and p values pair up: got {len(s_values)} s and {len(p_values)} p values"
        )
    pairs = [FractionalParams(s=s, p=p) for s, p in zip(s_values, p_values)]
    for i, params in enumerate(pairs):
        check_pair_sum(params)
        if params.sp >= ELL:
            raise ConfigurationError(f"pair (s={params.s}, p={params.p}) violates sp < ell")
        if params in pairs[:i]:
            raise ConfigurationError(f"pair (s={params.s}, p={params.p}) is given twice")
    if not (min(p_values) < ELL <= max(p_values)):
        raise ConfigurationError("p values must straddle ell")
    return pairs


def threshold_scan(s_values, p_values, n_range, workers: int = 1,
                   cross_validate: bool = True) -> ExperimentReport:
    """Layer ratio growth across the `threshold_params` pairs; verdict per pair.

    Ratios come from compositional accounting; at n <= 2 the bounds are
    cross-validated against the composite direct quadrature.  The scheme
    names the shift table and the routes of each cross-check.  The models
    of the pairs share one geometry store, which ends with the scan.
    """
    s_values, p_values = list(s_values), list(p_values)
    pairs = threshold_params(s_values, p_values)
    report = ExperimentReport(
        name="threshold",
        params={"s_values": s_values, "p_values": p_values, "ell": ELL,
                "n_range": [int(n) for n in n_range]},
    )
    schemes = [f"layer_lowers over 5*4^n shifts n={','.join(map(str, report.params['n_range']))}"]
    store: dict = {}
    for params in pairs:
        s, p = params.s, params.p
        model = PatchModel(params, workers=workers, store=store)
        ns, ratios = [], []
        for n in n_range:
            layer = LayerSpec(n)
            lower, upper, ratio, argmin = model.layer_ratio(layer)
            ns.append(n)
            ratios.append(ratio)
            verdict = ""
            if cross_validate and n <= 2:
                direct = model.layer_energy_direct(layer)
                schemes.append(f"direct cross-check s={s} p={p} n={n} ({model.layer_scheme(layer)})")
                report.check(
                    f"s={s} p={p} n={n} upper bound brackets direct (factor 3)",
                    direct <= upper <= 3.0 * direct,
                    f"direct={direct:.6g} compositional={upper:.6g}",
                )
                direct_proj = model.layer_projected_direct(layer, argmin)
                report.check(
                    f"s={s} p={p} n={n} lower bound below direct projected (tol 0.5)",
                    lower <= 1.5 * direct_proj,
                    f"lower={lower:.6g} direct projected={direct_proj:.6g}",
                )
            report.add_row(n, upper=upper, lower=lower, verdict=verdict,
                           s=s, p=p, argmin_shift=list(map(float, argmin)))
        verdict, log2_slope, lin_slope = threshold_verdict(ns, ratios)
        for row in report.rows:
            if row.get("s") == s and row.get("p") == p:
                row["slope"] = log2_slope
                row["verdict"] = verdict
        report.constants[f"slope_s{s}_p{p}"] = log2_slope
        report.constants[f"linear_slope_s{s}_p{p}"] = lin_slope
        report.constants[f"verdict_s{s}_p{p}"] = verdict
        if p == ELL:
            j_max = 2 ** (max(n_range) - 1)
            report.constants[f"distance_sum_s{s}_p{p}"] = cone_distance_sum(j_max, ELL, p)
    report.scheme = "; ".join(schemes)
    report.validate()
    return report


# ---------------------------------------------------------------------------
# Experiment kinds: one options dataclass and one runner per kind
# ---------------------------------------------------------------------------
#
# The fields of each options class, with their types and defaults, are the
# only declaration of a kind's keys: the `spl` flags, the config schema and
# the report's params come from them.  Field metadata may name the CLI flag
# ("flag") and the allowed values ("choices").  Construction checks the
# values and puts the objects the runner reads in `vars(self)`, beside the
# frozen fields.  A runner that draws from the run seed records it.


@dataclass(frozen=True)
class SeminormOptions:
    """fractional seminorm of a reference map"""

    map: str = field(default="indicator1d", metadata={"choices": tuple(TEST_MAPS)})
    s: float = 0.25
    p: float = 2.0
    spacing: float = 1e-3

    def __post_init__(self):
        vars(self).update(params=FractionalParams(s=self.s, p=self.p),
                          grid=map_grid(self.map, self.spacing))
        check_pair_sum(self.params)
        check_grid_budget(self.grid, self.params)


def _run_seminorm(opts: SeminormOptions, cfg: RunConfig) -> ExperimentReport:
    u = TEST_MAPS[opts.map][1](opts.grid)
    energy = gagliardo_energy(u, opts.params, workers=cfg.worker_count)
    value = energy.value
    report = ExperimentReport(name="seminorm", scheme=energy.scheme)
    report.add_row(opts.spacing, upper=value, lower=value)
    if opts.map == "indicator1d" and opts.s == 0.25 and opts.p == 2.0:
        rel = abs(value - INDICATOR_TRUNCATED) / INDICATOR_TRUNCATED
        report.constants["full_line_value"] = INDICATOR_FULL_LINE["value"]
        report.constants["truncated_oracle"] = INDICATOR_TRUNCATED
        report.check("indicator matches truncated-domain oracle within 15%", rel <= 0.15,
                     f"value={value:.6g} rel_err={rel:.4g}")
    return report


@dataclass(frozen=True)
class PatchOptions:
    """patch energies and projected lower bounds"""

    s: float = 0.4
    p: float = 2.5
    n_values: tuple[int, ...] = (1, 2, 3)
    shift_count: int = field(default=100, metadata={"flag": "--shifts"})

    def __post_init__(self):
        if self.shift_count < 1:
            raise ConfigurationError(f"need at least 1 shift, got {self.shift_count}")
        if len(set(self.n_values)) < len(self.n_values):
            raise ConfigurationError(f"n_values repeat a scale index: {list(self.n_values)}")
        params = FractionalParams(s=self.s, p=self.p)
        check_pair_sum(params)
        vars(self).update(params=params,
                          specs={n: PatchSpec((0.3, 0.2), n, params) for n in self.n_values})


def _run_patch(opts: PatchOptions, cfg: RunConfig) -> ExperimentReport:
    model = PatchModel(opts.params, workers=cfg.worker_count)
    report = ExperimentReport(name="patch", params={"seed": cfg.seed})
    energies = {}
    for n in opts.n_values:
        energies[n] = model.patch_energy_direct(opts.specs[n])
        report.add_row(n, upper=energies[n], lower=model.cluster_energy(opts.specs[n]))
    report.scheme = model.class_scheme(spec.k for spec in opts.specs.values())  # once the clouds fit
    spread = max(energies.values()) / min(energies.values())
    report.constants["energy_spread"] = spread
    report.check("patch energies uniform within factor 2", spread <= 2.0,
                 f"max/min = {spread:.4g}")
    rng = np.random.default_rng(cfg.seed)
    shifts = _uniform_ball_2d(rng, opts.shift_count, 1.0)
    for spec in [opts.specs[n] for n in (1, 2) if n in opts.specs]:
        lower = model.patch_projected_lower(spec, shifts)
        ratios = model.patch_projected_direct(spec, shifts)[lower > 0] / lower[lower > 0]
        worst = float(ratios.min(initial=np.inf))
        report.constants[f"min_direct_over_lower_n{spec.n}"] = worst
        report.check(f"projected lower bound holds at n={spec.n} (0.1 margin)", worst >= 0.1,
                     f"min direct/lower = {worst:.4g} over {opts.shift_count} shifts")
    return report


@dataclass(frozen=True)
class LayerOptions:
    """one glued dyadic layer"""

    s: float = 0.4
    p: float = 2.5
    n: int = 1

    def __post_init__(self):
        vars(self).update(params=FractionalParams(s=self.s, p=self.p), layer=LayerSpec(self.n))
        check_pair_sum(self.params)


def _run_layer(opts: LayerOptions, cfg: RunConfig) -> ExperimentReport:
    model = PatchModel(opts.params, workers=cfg.worker_count)
    direct = model.layer_energy_direct(opts.layer)
    upper = model.layer_upper_compositional(opts.layer)
    report = ExperimentReport(name="layer", params={"patches": opts.layer.count},
                              scheme=model.layer_scheme(opts.layer))
    report.add_row(opts.n, upper=upper, lower=direct)
    report.check("compositional upper bounds direct", direct <= upper,
                 f"direct={direct:.6g} upper={upper:.6g}")
    return report


@dataclass(frozen=True)
class GeometryOptions:
    """empirical chord-bound constants"""

    lemma: str = field(default="geom1", metadata={"choices": ("geom1", "geom2")})
    ell: int = 2
    samples: int = 100_000
    n_min: int = 1
    n_max: int = 8

    def __post_init__(self):
        if self.ell < 2:
            raise ConfigurationError(f"chord geometry needs ell >= 2, got ell={self.ell}")
        if not 1 <= self.n_min < self.n_max <= MAX_SCALE:
            raise ConfigurationError(f"comparing scales needs 1 <= n_min < n_max <= {MAX_SCALE}, "
                                     f"got n_min={self.n_min} n_max={self.n_max}")
        check_sample_count(self.samples)
        draws = self.samples * self.ell  # coordinates of one (samples, ell) array, drawn for each n
        if draws > DEFAULT_NODE_BUDGET:
            shown, budget = _over(draws, DEFAULT_NODE_BUDGET)
            raise BudgetError(f"geometry samples x ell = {shown} > budget {budget}")


def _run_geometry(opts: GeometryOptions, cfg: RunConfig) -> ExperimentReport:
    est = estimate_constant(opts.lemma, range(opts.n_min, opts.n_max + 1), opts.samples,
                            cfg.seed, ell=opts.ell)
    report = ExperimentReport(name=f"geometry-{opts.lemma}", params={"seed": cfg.seed},
                              scheme=f"Monte Carlo minima of the {opts.lemma} quantity, "
                                     f"{opts.samples} samples per n")
    for n, v in est.per_n.items():
        report.add_row(n, upper=v, lower=v)
    spread = max(est.per_n.values()) / min(est.per_n.values()) - 1.0
    report.constants["minimum"] = est.minimum
    report.constants["spread"] = spread
    report.check("empirical minimum positive", est.minimum > 0, f"min={est.minimum:.6g}")
    report.check("minima stable across scales (10%)", spread <= 0.10,
                 f"relative spread {spread:.4g}")
    return report


@dataclass(frozen=True)
class AveragingOptions:
    """Monte Carlo shift averaging"""

    s: float = 0.4
    p: float = 1.5
    alpha: float = 1.0
    n_mc: int = 128
    spacing: float = 0.04
    refine: bool = True

    def __post_init__(self):
        params = FractionalParams(s=self.s, p=self.p)
        averaging = AveragingConfig(params, alpha=self.alpha, n_mc=self.n_mc, spacing=self.spacing)
        fine = None
        if self.refine:  # half the spacing, half the shifts (at least 100)
            fine = replace(averaging, n_mc=max(100, self.n_mc // 2), spacing=self.spacing / 2)
        vars(self).update(averaging=averaging, fine=fine)


def _run_averaging(opts: AveragingOptions, cfg: RunConfig) -> ExperimentReport:
    acfg = replace(opts.averaging, seed=cfg.seed)
    out = averaging_check(acfg, workers=cfg.worker_count)
    report = ExperimentReport(name="averaging", params={"seed": cfg.seed}, scheme=out.pop("scheme"))
    report.add_row(opts.spacing, upper=out["base_energy"], lower=out["mean_projected_energy"])
    report.constants.update({k: v for k, v in out.items() if np.isscalar(v)})
    report.check("kernel self-test within 2%", out["selftest_rel_err"] <= 0.02,
                 f"rel err {out['selftest_rel_err']:.4g}")
    if "bound_ok" in out:
        report.check("bound ratio below calibrated constant", out["bound_ok"],
                     f"ratio {out['bound_ratio']:.4g} vs C_avg {out['calibrated_bound']:.4g}")
    if opts.refine:
        out2 = _averaging_core(replace(opts.fine, seed=cfg.seed), workers=cfg.worker_count)
        report.add_row(opts.fine.spacing, upper=out2["base_energy"],
                       lower=out2["mean_projected_energy"])
        drift = abs(out2["bound_ratio"] / out["bound_ratio"] - 1.0)
        report.constants["ratio_drift_under_halving"] = drift
        if opts.p < ELL:
            report.check("bound ratio stable under h-halving (p < ell)", drift <= 0.25,
                         f"drift {drift:.4g}")
    return report


@dataclass(frozen=True)
class ThresholdOptions:
    """layer ratio growth across parameters"""

    s_values: tuple[float, ...] = field(default=(0.4, 0.4, 0.5), metadata={"flag": "--s"})
    p_values: tuple[float, ...] = field(default=(2.5, 1.5, 2.0), metadata={"flag": "--p"})
    n_max: int = 6

    def __post_init__(self):
        if self.n_max < 2:
            raise ConfigurationError(f"a slope needs n_max >= 2, got {self.n_max}")
        check_layer_table(self.n_max)
        threshold_params(self.s_values, self.p_values)


def _run_threshold(opts: ThresholdOptions, cfg: RunConfig) -> ExperimentReport:
    return threshold_scan(opts.s_values, opts.p_values, range(1, opts.n_max + 1),
                          workers=cfg.worker_count)


@dataclass(frozen=True)
class AlmostOptions:
    """almost retraction rates and blow-up scan"""

    s: float = 0.6
    p: float = 1.5
    alpha: float = 0.0
    n_min: int = 2
    n_max: int = 6

    def __post_init__(self):
        if not 1 <= self.n_min < self.n_max:
            raise ConfigurationError(
                "an exponent fit over eps = 2^-n below pi/4 needs 1 <= n_min < n_max, "
                f"got n_min={self.n_min} n_max={self.n_max}"
            )
        vars(self).update(ctrex=AlmostCtrexSpec(FractionalParams(s=self.s, p=self.p), self.alpha))
        check_scan_budget(self.ctrex, range(self.n_min, self.n_max + 1))


def _run_almost(opts: AlmostOptions, cfg: RunConfig) -> ExperimentReport:
    spec = opts.ctrex
    report = ExperimentReport(name="almost", params={"alpha": spec.alpha})
    products = []
    for m in range(2, 8):
        eps = 2.0**-m
        retr = AlmostRetraction(AlmostRetractionSpec(epsilon=eps))
        deg = degree_of(retr)
        rate = lipschitz_rate_check(retr)
        products.append((rate.max_slope_eps, rate.halfcap_min_slope_eps))
        report.check(f"degree zero at eps=2^-{m}", abs(deg) <= 1e-9, f"degree {deg:.2e}")
    for idx, label in ((0, "max slope"), (1, "half-cap slope")):
        vals = [pr[idx] for pr in products]
        spread = max(vals) / min(vals) - 1.0
        report.constants[f"{label} spread"] = spread
        report.check(f"{label} * eps stable within 10%", spread <= 0.10, f"spread {spread:.4g}")
    scan = almost_projection_scan(spec, n_range=range(opts.n_min, opts.n_max + 1),
                                  workers=cfg.worker_count)
    report.scheme = scan["scheme"]
    for row in scan["rows"]:
        report.add_row(row["n"], upper=row["energy_upper"], lower=row["projected_inf"],
                       eps=row["eps"], support_radius=row["support_radius"],
                       argmin_interior=row["argmin_interior"])
    for key in ("support", "energy", "projected"):
        report.constants[f"{key}_exponent"] = scan[f"{key}_exponent"]
        report.constants[f"{key}_target"] = scan[f"{key}_target"]
    report.check("support exponent within 5%",
                 abs(scan["support_exponent"] - scan["support_target"]) <= 0.05 * scan["support_target"],
                 f"{scan['support_exponent']:.4g} vs {scan['support_target']:.4g}")
    report.check("energy exponent within 0.5",
                 abs(scan["energy_exponent"] - scan["energy_target"]) <= 0.5,
                 f"{scan['energy_exponent']:.4g} vs {scan['energy_target']:.4g}")
    report.check("projected exponent within 0.5",
                 abs(scan["projected_exponent"] - scan["projected_target"]) <= 0.5,
                 f"{scan['projected_exponent']:.4g} vs {scan['projected_target']:.4g}")
    if spec.regime_ok:
        report.check("projected inf-energy diverges", scan["diverges"],
                     f"eps-exponent {scan['projected_exponent']:.4g}")
    return report


EXPERIMENTS = {
    "seminorm": (SeminormOptions, _run_seminorm),
    "patch": (PatchOptions, _run_patch),
    "layer": (LayerOptions, _run_layer),
    "geometry": (GeometryOptions, _run_geometry),
    "averaging": (AveragingOptions, _run_averaging),
    "threshold": (ThresholdOptions, _run_threshold),
    "almost": (AlmostOptions, _run_almost),
}


def named(name: str, step):
    """step(), with a SplabError prefixed by the experiment's name; its class stays.

    An OverflowError (a Python float power past the largest float) becomes a NumericalError.
    """
    try:
        return step()
    except OverflowError as exc:
        raise NumericalError(f"experiment {name!r}: a float overflows ({exc.args[-1]})") from None
    except SplabError as exc:
        exc.args = (f"experiment {name!r}: {exc}",)
        raise


def run_suite(cfg: RunConfig) -> list[ExperimentReport]:
    """Execute the configured experiments in declared order.

    Every experiment's options are checked before the first one runs.  A
    report's params hold its options beside the keys its runner sets.
    When an experiment fails, the error raised carries the reports
    completed before it as ``completed``; every error names its experiment.
    """
    specs = [named(exp.name, exp.spec) for exp in cfg.experiments]
    reports = []
    for exp, spec in zip(cfg.experiments, specs):
        try:
            report = named(exp.name, lambda: EXPERIMENTS[exp.kind][1](spec, cfg))
        except SplabError as exc:
            exc.completed = reports
            raise
        report.params = {**asdict(spec), **report.params}
        report.name = exp.options.get("name", report.name)
        reports.append(report)
    return reports
