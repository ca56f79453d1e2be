import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splab.energy import FractionalParams, Region, gagliardo_energy
from splab.errors import DegenerateShiftError, SingularHitError
from splab.grid import make_grid, sample_map
from splab.sphere import (
    ShiftPoint,
    jacobian_blowup_check,
    nearest_point_extension,
    project,
    projection_jacobian,
    restricted_diffeo_check,
    shifted_projection,
    shifted_unit_values,
)


def test_project_fixed_point():
    assert np.allclose(project(np.array([1.0, 0.0])), [1.0, 0.0])


def test_project_ray_collapse():
    assert np.allclose(project(np.array([0.0, -3.0])), [0.0, -1.0])


def test_project_three_four_five():
    assert np.allclose(project(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)


def test_project_singular_rejected():
    with pytest.raises(SingularHitError):
        project(np.array([0.0, 0.0]))


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_project_unit_norm(x, y):
    v = np.array([x, y])
    if np.linalg.norm(v) <= 1e-10:
        return
    assert abs(np.linalg.norm(project(v)) - 1.0) <= 1e-15


@pytest.mark.parametrize("k", [-4, -1, 1, 5])
def test_project_scale_invariant_bitwise(k):
    # exact powers of two scale floats without rounding
    x = np.array([0.3, -1.7])
    lam = 2.0**k
    assert np.array_equal(project(x), project(lam * x))


def test_shifted_projection_constant_map():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.5)
    u = sample_map(g, lambda x: np.tile([0.5, 0.5], (x.shape[0], 1)), g.box, (0.5, 0.5))
    proj, hits = shifted_projection(u, ShiftPoint((0.0, 0.0)))
    assert not hits
    assert np.allclose(proj.values, [0.5, 0.5] / np.sqrt(0.5))
    e = gagliardo_energy(proj, FractionalParams(s=0.5, p=2.0))
    assert e.value == 0.0


def test_shifted_projection_antipodal_two_values():
    n = 3
    amp = 2.0 ** (1 - n)
    g = make_grid(1, [0.0, 1.0], 0.5)
    vals = np.array([[amp, 0.0], [amp, 0.0], [-amp, 0.0]])
    u = sample_map(g, lambda x: vals, g.box, (amp, 0.0))
    proj, hits = shifted_projection(u, ShiftPoint((0.0, 0.0)))
    assert not hits
    assert np.allclose(proj.values[0], [1.0, 0.0])
    assert np.allclose(proj.values[2], [-1.0, 0.0])
    chord = np.linalg.norm(proj.values[0] - proj.values[2])
    assert chord == pytest.approx(2.0)


def test_shifted_projection_degenerate_plateau():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.5)
    u = sample_map(g, lambda x: np.zeros((x.shape[0], 2)), g.box, (0.0, 0.0))
    with pytest.raises(DegenerateShiftError):
        shifted_projection(u, ShiftPoint((0.0, 0.0)))


def test_shifted_unit_values_fills_buffer_and_reports_hits():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.1)  # 441 nodes: one hit is under 1%
    u = sample_map(g, lambda x: x, g.box, (0.0, 0.0))
    a = u.values[7].copy()
    out = np.full_like(u.values, np.nan)
    nodes, dist = shifted_unit_values(u, a, out)
    assert nodes.tolist() == [7] and dist.tolist() == [0.0]
    assert out[7].tolist() == [1.0, 0.0]
    keep = np.arange(g.node_count) != 7
    diff = u.values[keep] - a
    assert np.allclose(out[keep], diff / np.linalg.norm(diff, axis=1)[:, None], rtol=0, atol=1e-15)
    flat = sample_map(g, lambda x: np.zeros((x.shape[0], 2)), g.box, (0.0, 0.0))
    with pytest.raises(DegenerateShiftError):
        shifted_unit_values(flat, (0.0, 0.0), out)


def test_shifted_identity_divergence_at_large_sp():
    # energy of x/|x| on the disk blows up under refinement when sp >= 2
    params_bad = FractionalParams(s=0.8, p=2.6)  # sp = 2.08 >= 2
    params_ok = FractionalParams(s=0.4, p=1.5)
    region = Region.from_ball((0.0, 0.0), 1.0)
    values = {}
    for params in (params_bad, params_ok):
        seq = []
        for h in (0.2, 0.1, 0.05):
            g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], h)
            u = sample_map(g, lambda x: x, g.box, (0.0, 0.0))
            proj, hits = shifted_projection(u, ShiftPoint((0.0, 0.0)))
            reg = region.without([hh.node for hh in hits]) if hits else region
            seq.append(gagliardo_energy(proj, params, reg).value)
        values[params.sp] = seq
    bad = values[params_bad.sp]
    ok = values[params_ok.sp]
    assert bad[2] / bad[1] > 1.3  # keeps growing
    assert abs(ok[2] / ok[1] - 1.0) < 0.12  # stabilizes


def test_jacobian_ratio_is_one():
    assert jacobian_blowup_check([[2.0, 0.0]]) == pytest.approx(1.0, abs=1e-12)
    assert jacobian_blowup_check([[0.01, 0.0]]) == pytest.approx(1.0, abs=1e-12)
    assert jacobian_blowup_check([[2.0, 0.0], [0.3, 0.4], [-5.0, 1.0]]) == pytest.approx(1.0, abs=1e-12)


def test_jacobian_scale_invariant():
    pts = np.array([[0.2, 0.7], [3.0, -1.0]])
    r1 = jacobian_blowup_check(pts)
    r2 = jacobian_blowup_check(64.0 * pts)
    assert r1 == pytest.approx(r2, rel=1e-12)


def test_jacobian_zero_sample_rejected():
    with pytest.raises(SingularHitError):
        jacobian_blowup_check([[0.0, 0.0]])


def test_jacobian_matches_finite_differences():
    x = np.array([0.7, -0.4])
    jac = projection_jacobian(x)
    h = 1e-6
    fd = np.zeros((2, 2))
    for j in range(2):
        dx = np.zeros(2)
        dx[j] = h
        fd[:, j] = (project(x + dx) - project(x - dx)) / (2 * h)
    assert np.allclose(jac, fd, atol=1e-8)


def test_nearest_point_extension_on_sphere():
    x = np.array([0.6, 0.8])
    assert np.allclose(nearest_point_extension(x, 0.3), x, atol=1e-15)


def test_nearest_point_extension_origin():
    assert np.allclose(nearest_point_extension(np.array([0.0, 0.0]), 0.3), [0.0, 0.0])


def test_nearest_point_extension_inside_tube():
    iota = 0.3
    x = np.array([1.0 + iota / 2, 0.0])
    assert np.allclose(nearest_point_extension(x, iota), [1.0, 0.0], atol=1e-15)


def test_nearest_point_extension_bounded_and_continuous():
    iota = 0.25
    radii = np.linspace(0.0, 2.0, 401)
    pts = np.column_stack([radii, np.zeros_like(radii)])
    out = nearest_point_extension(pts, iota)
    norms = np.linalg.norm(out, axis=1)
    assert np.all(norms <= 1.0 + iota + 1e-12)
    assert np.max(np.abs(np.diff(norms))) < 0.02  # no jumps along the ray


def test_diffeo_identity_shift():
    rep = restricted_diffeo_check(ShiftPoint((0.0, 0.0)))
    assert rep.injective
    assert rep.min_jacobian == pytest.approx(1.0, abs=1e-9)


def test_diffeo_small_shift():
    rep = restricted_diffeo_check(ShiftPoint((0.1, 0.0)))
    assert rep.injective
    assert rep.min_jacobian > 0
    # analytic minimum 1/(1 + |a|) at the far point
    assert rep.min_jacobian == pytest.approx(1.0 / 1.1, rel=1e-3)


def test_diffeo_large_shift_reported_only():
    # no pass/fail criterion here: only small shifts carry a guarantee;
    # the derivative range becomes extreme but the minimum stays positive
    rep = restricted_diffeo_check(ShiftPoint((0.0, 0.99)))
    assert rep.min_jacobian > 0
    assert rep.min_jacobian == pytest.approx(1.0 / 1.99, rel=1e-2)


def test_small_shift_flag():
    assert ShiftPoint((0.3, 0.4)).small_shift
    assert not ShiftPoint((0.5, 0.4)).small_shift


def test_chain_rule_pointwise_bound():
    # |D(P(u - a))| <= (1 + tol) |Du| / |u - a| for the identity map away
    # from the shift; tol = 10 h / dist absorbs the finite-difference error
    a = np.array([0.3, 0.0])
    h = 0.01
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], h)
    pts = np.asarray(g.nodes())
    u = sample_map(g, lambda x: x, g.box, (0.0, 0.0))
    proj, hits = shifted_projection(u, ShiftPoint(tuple(a)))
    vals = proj.values.reshape(g.shape + (2,))
    interior = (slice(1, -1), slice(1, -1))
    dx = (vals[2:, 1:-1] - vals[:-2, 1:-1]) / (2 * h)
    dy = (vals[1:-1, 2:] - vals[1:-1, :-2]) / (2 * h)
    frob = np.sqrt(np.sum(dx**2, axis=-1) + np.sum(dy**2, axis=-1))
    grid_pts = pts.reshape(g.shape + (2,))[interior]
    dist = np.linalg.norm(grid_pts - a, axis=-1)
    keep = dist >= 0.2
    lhs = frob[keep]
    rhs = np.sqrt(2.0) / dist[keep]  # |Du|_F = sqrt(2) for the identity
    tol = 10 * h / dist[keep]
    assert np.all(lhs <= (1 + tol) * rhs)
