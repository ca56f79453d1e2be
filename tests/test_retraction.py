import numpy as np
import pytest

from splab.energy import FractionalParams
from splab import retraction
from splab.errors import BudgetError, ConfigurationError, SamplingError
from splab.retraction import (
    CAP_CENTER,
    FRAME_HALFWIDTH,
    GLUE_MARGIN,
    NET_DENSITY,
    XI_RADIUS,
    AlmostCtrexSpec,
    AlmostModel,
    AlmostRetraction,
    AlmostRetractionSpec,
    almost_projection_scan,
    degree_of,
    lipschitz_rate_check,
    wrap_angle,
    xi_grid,
)
from splab.patches import collar_factor, two_bump_profile

from pairsum_reference import frame_energy


def make_retr(eps):
    return AlmostRetraction(AlmostRetractionSpec(epsilon=eps))


def test_point_far_from_cap_fixed():
    r = make_retr(0.1)
    theta = 0.0  # antipodal to the cap
    assert wrap_angle(np.array([r.angle_map(np.array([theta]))[0] - theta]))[0] == pytest.approx(0.0, abs=1e-14)


def test_cap_endpoints_fixed():
    eps = 0.1
    r = make_retr(eps)
    for phi in (-eps, eps):
        theta = np.pi + phi
        mapped = r.angle_map(np.array([theta]))[0]
        assert wrap_angle(np.array([mapped - theta]))[0] == pytest.approx(0.0, abs=1e-12)


def test_halfcap_pair_image_separation():
    # two points in the half-cap separated by delta map to points about
    # (pi/eps) * delta apart (the affine core slope)
    eps = 0.1
    r = make_retr(eps)
    delta = eps / 50
    t1, t2 = np.pi - delta / 2, np.pi + delta / 2
    m1, m2 = r.angle_map(np.array([t1, t2]))
    measured = abs(m2 - m1) / delta
    claimed = (2 * np.pi - 2 * eps) / (2 * eps)
    assert measured == pytest.approx(claimed, rel=0.15)


def test_rate_products_in_window():
    eps = 0.1
    r = make_retr(eps)
    rep = lipschitz_rate_check(r)
    assert np.pi <= rep.max_slope_eps <= 2 * np.pi
    assert rep.halfcap_min_slope_eps >= 1.0


def test_rate_duality_across_dyadic_sweep():
    maxes, mins = [], []
    for m in range(2, 8):
        eps = 2.0**-m
        rep = lipschitz_rate_check(make_retr(eps))
        maxes.append(rep.max_slope_eps)
        mins.append(rep.halfcap_min_slope_eps)
    assert max(maxes) / min(maxes) - 1 <= 0.10
    assert max(mins) / min(mins) - 1 <= 0.10


def test_degree_zero():
    for eps in (0.25, 2.0**-5):
        assert abs(degree_of(make_retr(eps))) <= 1e-9


def test_idempotent_off_cap_preimage():
    eps = 0.15
    r = make_retr(eps)
    theta = np.linspace(0, 2 * np.pi, 500, endpoint=False)
    once = r.angle_map(theta)
    image_off_cap = np.abs(wrap_angle(once - CAP_CENTER)) > eps
    twice = r.angle_map(once)
    diff = wrap_angle(twice - once)
    assert np.allclose(diff[image_off_cap], 0.0, atol=1e-12)


def test_spec_validation():
    with pytest.raises(ConfigurationError):
        AlmostRetractionSpec(epsilon=1.0)


def test_ctrex_formulas():
    params = FractionalParams(s=0.4, p=1.5)
    spec = AlmostCtrexSpec(params=params)
    assert spec.alpha == pytest.approx(1.25)
    assert spec.regime_ok
    # cluster count at eps = 1/4: ceil(4^(1/0.4)) = ceil(4^2.5) = 32
    assert spec.cluster_count(0.25) == 32
    # the net density guarantees one center per arc of radius NET_DENSITY*eps
    m = spec.center_count(0.25)
    assert m == int(np.ceil(np.pi / (0.1 * 0.25)))
    spacing = 2 * np.pi / m
    assert spacing <= 2 * NET_DENSITY * 0.25


def test_ctrex_regime_gate_at_p_one():
    params = FractionalParams(s=0.5, p=1.0)
    spec = AlmostCtrexSpec(params=params)
    assert not spec.regime_ok  # p > ell - 1 fails at p = 1


def test_support_scales_summable():
    params = FractionalParams(s=0.6, p=1.5)
    spec = AlmostCtrexSpec(params=params)
    # alpha/(1-sp) = 12.5: successive supports shrink geometrically
    radii = [spec.support_scale(2.0**-n) for n in range(2, 7)]
    assert radii[0] == pytest.approx(2.0**-25.0)
    assert sum(radii) < 2 * radii[0]


def test_coverage_holds_on_shift_grid():
    params = FractionalParams(s=0.6, p=1.5)
    spec = AlmostCtrexSpec(params=params)
    model = AlmostModel(spec)
    shifts = xi_grid()
    for n in (2, 4):
        model.scan_row(n, shifts)  # raises SamplingError on failure


def scan_row_per_shift(model, n, shifts):
    """`AlmostModel.scan_row` one shift at a time: the coverage check of every shift, then each lower bound."""
    eps = 2.0**-n
    retr = make_retr(eps)
    centers = model.spec.center_angles(eps)
    half = model.spec.pair_half_separation(eps)
    m = centers.shape[0]

    def cap_angles(xi):
        # the cap-relative angle of each point after the shift: the angle of xi - point
        angles = np.concatenate([centers - half, centers + half])
        return np.arctan2(xi[1] - np.sin(angles), xi[0] - np.cos(angles))

    if model.spec.regime_ok:
        for xi in shifts:
            phi = np.abs(cap_angles(xi))
            if not ((phi[:m] <= eps / 2) & (phi[m:] <= eps / 2)).any():
                raise SamplingError(
                    f"no pair lands in the half-cap for shift {xi} at eps={eps}; increase the net density"
                )
    lowers = []
    for xi in shifts:
        mapped = retr.cap_map(cap_angles(xi))
        imgdist = 2.0 * np.abs(np.sin((mapped[m:] - mapped[:m]) / 2))
        lowers.append(model.cluster_lower_coeff(eps) * float(np.sum(imgdist**model.params.p)))
    lam = model.spec.support_scale(eps)
    scale_pow = lam ** (1 - model.params.sp)
    best = int(np.argmin(lowers))
    return {
        "n": n,
        "eps": eps,
        "support_radius": lam,
        "energy_upper": scale_pow * model.glue_energy_upper(eps),
        "projected_inf": scale_pow * lowers[best],
        "argmin_xi": tuple(float(v) for v in shifts[best]),
        "argmin_interior": bool(np.linalg.norm(shifts[best]) < XI_RADIUS - 1e-9),
        "center_count": model.spec.center_count(eps),
        "cluster_count": model.spec.cluster_count(eps),
    }


def scan_row_wrapped(model, n, shifts):
    """The lower bounds of `scan_row` in their former, wrapped form, one shift at a time (frozen)."""
    eps = 2.0**-n
    retr = make_retr(eps)
    centers = model.spec.center_angles(eps)
    half = model.spec.pair_half_separation(eps)
    m = centers.shape[0]
    angles = np.concatenate([centers - half, centers + half])
    lowers = []
    for xi in shifts:
        z = np.column_stack([np.cos(angles), np.sin(angles)]) - xi
        mapped = retr.angle_map(np.arctan2(z[:, 1], z[:, 0]))
        imgdist = 2.0 * np.abs(np.sin(wrap_angle(mapped[m:] - mapped[:m]) / 2))
        lowers.append(model.cluster_lower_coeff(eps) * float(np.sum(imgdist**model.params.p)))
    lowers = np.array(lowers)
    best = int(np.argmin(lowers))
    return lowers, model.spec.support_scale(eps) ** (1 - model.params.sp) * lowers[best], best


@pytest.mark.parametrize("s, p", [(0.6, 1.5), (0.3, 2.5), (0.4, 1.5), (0.5, 1.0)])
def test_scan_row_matches_per_shift_reference(s, p):
    # n = 2 runs the 317 shifts in chunks of 130, n = 7 in chunks of 4
    model = AlmostModel(AlmostCtrexSpec(FractionalParams(s=s, p=p)))
    shifts = xi_grid()
    for n in (2, 4, 7):
        assert model.scan_row(n, shifts) == scan_row_per_shift(model, n, shifts)


@pytest.mark.parametrize("s, p", [(0.6, 1.5), (0.3, 2.5), (0.4, 1.5), (0.5, 1.0)])
def test_scan_row_matches_wrapped_form(s, p):
    # the angles of xi - point, unwrapped, move each row by at most 1.6e-13 relative from the
    # former wrap_angle(arg(point - xi) - CAP_CENTER) and wrapped image differences; the argmin
    # stays, save where the mirror shifts (x, y) and (x, -y), equal by the y -> -y symmetry of
    # the construction, part by rounding (at n = 7 for s = 0.6 and 0.4: 1.2e-13 relative in
    # the former form, 1.1e-14 in the new one), where it may move to the mirror shift
    model = AlmostModel(AlmostCtrexSpec(FractionalParams(s=s, p=p)))
    shifts = xi_grid()
    for n in (2, 4, 7):
        row = model.scan_row(n, shifts)
        lowers, projected_inf, best = scan_row_wrapped(model, n, shifts)
        assert row["projected_inf"] == pytest.approx(projected_inf, rel=1e-12, abs=0)
        x, y = shifts[best]
        assert row["argmin_xi"] in ((x, y), (x, -y))
        if row["argmin_xi"] != (x, y):
            mirror = np.flatnonzero((shifts[:, 0] == x) & (shifts[:, 1] == -y))
            assert lowers[mirror[0]] == pytest.approx(lowers[best], rel=1e-12, abs=0)


def test_scan_row_coverage_error_matches_per_shift_reference():
    # near |xi| = 1 the shifted pairs spread wider than the half-cap; the bad
    # shift sits in the tenth chunk of 32 shifts
    model = AlmostModel(AlmostCtrexSpec(FractionalParams(s=0.6, p=1.5)))
    shifts = np.vstack([xi_grid(), [[-0.95, 0.0]], xi_grid()[:3]])
    with pytest.raises(SamplingError) as expected:
        scan_row_per_shift(model, 4, shifts)
    with pytest.raises(SamplingError) as got:
        model.scan_row(4, shifts)
    assert str(got.value) == str(expected.value)
    assert "shift [-0.95  0.  ]" in str(got.value)


def test_scan_exponents():
    params = FractionalParams(s=0.6, p=1.5)
    spec = AlmostCtrexSpec(params=params)
    out = almost_projection_scan(spec, n_range=range(2, 6))
    assert out["regime_ok"]
    sp = params.sp
    assert out["support_exponent"] == pytest.approx(spec.alpha / (1 - sp), rel=0.05)
    assert abs(out["energy_exponent"] - (spec.alpha - 1)) <= 0.5
    assert abs(out["projected_exponent"] - (spec.alpha - params.p)) <= 0.5
    assert out["diverges"]


def test_scan_bounded_for_control_regime():
    params = FractionalParams(s=0.5, p=1.0)
    spec = AlmostCtrexSpec(params=params)
    out = almost_projection_scan(spec, n_range=range(2, 5))
    assert not out["regime_ok"]
    assert not out["diverges"]


def glue_energy_upper_loop(model, eps):
    """`AlmostModel.glue_energy_upper` as it was: one slot at a time (frozen)."""
    deltas = wrap_angle(model.spec.center_angles(eps))
    total = 0.0
    cluster = model.slot_cluster_energy(eps)
    q = model.slot_width(eps) / (2 * FRAME_HALFWIDTH)
    for d in deltas:
        total += cluster + q ** (1 - model.params.sp) * abs(float(d)) ** model.params.p * model.collar_unit_energy
    return GLUE_MARGIN * total


ALMOST_PAIRS = [(0.6, 1.5), (0.4, 1.5), (0.3, 2.5)]


@pytest.mark.parametrize("s, p", ALMOST_PAIRS)
def test_plateau_kernel_is_the_profile_class_entry(s, p):
    # 2 K[+1, -1] of the profile class matrix against the double sum over the two plateau intervals
    model = AlmostModel(AlmostCtrexSpec(FractionalParams(s=s, p=p)))
    tau = model._frame_tau[:, 0]
    neg = tau[np.abs(tau + 1.0) <= 0.5]
    pos = tau[np.abs(tau - 1.0) <= 0.5]
    d = np.abs(pos[:, None] - neg[None, :])
    expected = 2.0 * model.h0**2 * np.sum(d ** -model._kernel_exp)
    assert model.plateau_kernel == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("s, p", ALMOST_PAIRS)
def test_frame_energies_match_frame_pair_sum(s, p):
    # the collar and copy frame energies from the class matrices against the point-by-point
    # pair sum over the frame lattice, and the same bit for bit at one and two workers
    spec = AlmostCtrexSpec(FractionalParams(s=s, p=p))
    one, two = AlmostModel(spec, workers=1), AlmostModel(spec, workers=2)
    pts, q, h = one._frame_tau, one._kernel_exp, one.h0
    expected = frame_energy(pts, collar_factor(pts)[:, None], p, q, h, workers=2)
    assert one.collar_unit_energy == pytest.approx(expected, rel=1e-14, abs=0)
    assert one.collar_unit_energy.hex() == two.collar_unit_energy.hex()
    g = two_bump_profile(pts)
    for n in range(2, 10):
        eps = 2.0**-n
        half = spec.pair_half_separation(eps)
        vals = np.column_stack([np.cos(half * g), np.sin(half * g)])
        got = one.copy_frame_energy(eps)
        assert got == pytest.approx(frame_energy(pts, vals, p, q, h, workers=2), rel=1e-14, abs=0)
        assert got.hex() == two.copy_frame_energy(eps).hex()


@pytest.mark.parametrize("s, p", ALMOST_PAIRS)
def test_glue_bound_equals_slot_loop(s, p):
    model = AlmostModel(AlmostCtrexSpec(FractionalParams(s=s, p=p)))
    for n in range(2, 9):
        assert model.glue_energy_upper(2.0**-n).hex() == glue_energy_upper_loop(model, 2.0**-n).hex()


@pytest.mark.parametrize("s, p", ALMOST_PAIRS)
def test_scan_over_mirror_half_matches_all_shifts(s, p):
    # y -> -y maps the construction onto itself, so the scan over the shifts with y >= 0 finds
    # the least lower bound of all 317 up to rounding, and always at a shift with y >= 0
    spec = AlmostCtrexSpec(FractionalParams(s=s, p=p))
    ns = range(2, 9)
    out = almost_projection_scan(spec, ns)
    assert out["scheme"] == "slot accounting over 317 xi_grid shifts"
    model = AlmostModel(spec)
    full = [model.scan_row(n, xi_grid()) for n in ns]
    for row, every in zip(out["rows"], full):
        assert row["argmin_xi"][1] >= 0
        assert row["projected_inf"] == pytest.approx(every["projected_inf"], rel=1e-12, abs=0)
        same = ("n", "eps", "support_radius", "energy_upper", "center_count", "cluster_count")
        assert [row[k] for k in same] == [every[k] for k in same]
    for key in ("support_radius", "energy_upper", "projected_inf"):
        slope = -np.polyfit(np.array(ns, dtype=float), np.log2([r[key] for r in full]), 1)[0]
        assert out[key.split("_")[0] + "_exponent"] == pytest.approx(slope, rel=1e-12, abs=0)


@pytest.mark.parametrize("s, p", ALMOST_PAIRS)
def test_scan_over_mirror_half_raises_as_all_shifts(monkeypatch, s, p):
    # a net too sparse for coverage fails on both halves; the budget counts all 317 shifts
    spec = AlmostCtrexSpec(FractionalParams(s=s, p=p))
    with pytest.raises(BudgetError, match="up to n = 16"):
        almost_projection_scan(spec, range(2, 17))
    if not spec.regime_ok:
        return
    monkeypatch.setattr(retraction, "NET_DENSITY", 0.3)
    model = AlmostModel(spec)
    for n in range(2, 9):
        with pytest.raises(SamplingError):
            model.scan_row(n, xi_grid())
        with pytest.raises(SamplingError):
            almost_projection_scan(spec, range(n, n + 1))
