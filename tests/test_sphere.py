import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splab.energy import FractionalParams, Region, gagliardo_energy
from splab.errors import DegenerateShiftError
from splab.grid import Box, make_grid, sample_map
from splab.harness import _uniform_ball_2d, identity_map_2d
from splab.patches import (
    BLOCK_HALFWIDTH,
    COARSE_SPACING,
    PATCH_MARGIN,
    _midpoint_lattice,
    patch_background,
)
from splab.sphere import (
    DEGENERATE_HIT_FRACTION,
    SINGULAR_EXCLUSION_RADIUS,
    ShiftPoint,
    restricted_diffeo_check,
    shifted_projection,
    shifted_unit_values,
    unit_values,
)


def project(x):
    """`unit_values` of the single point x against the shift 0: (x/|x|, singular hit)."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    out = np.empty_like(pts)
    hits = unit_values(pts, np.zeros(pts.shape[1]), out)
    return out[0], bool(hits[0])


def test_project_fixed_point():
    assert np.allclose(project([1.0, 0.0])[0], [1.0, 0.0])


def test_project_ray_collapse():
    assert np.allclose(project([0.0, -3.0])[0], [0.0, -1.0])


def test_project_three_four_five():
    assert np.allclose(project([3.0, 4.0])[0], [0.6, 0.8], atol=1e-15)


def test_project_singular_rejected():
    # the origin is a singular hit: flagged, and given the placeholder e_1
    value, hit = project([0.0, 0.0])
    assert hit
    assert value.tolist() == [1.0, 0.0]


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-10, max_value=10), st.floats(min_value=-10, max_value=10))
def test_project_unit_norm(x, y):
    v = np.array([x, y])
    if np.linalg.norm(v) <= 1e-10:
        return
    value, hit = project(v)
    assert not hit
    assert abs(np.linalg.norm(value) - 1.0) <= 1e-15


@pytest.mark.parametrize("k", [-4, -1, 1, 5])
def test_project_scale_invariant_bitwise(k):
    # exact powers of two scale floats without rounding
    x = np.array([0.3, -1.7])
    lam = 2.0**k
    assert np.array_equal(project(x)[0], project(lam * x)[0])


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
    out = np.full((1,) + u.values.shape, np.nan)
    hits, degenerate = shifted_unit_values(u, [a], out)
    nodes = np.flatnonzero(hits[0])
    assert nodes.tolist() == [7] and not degenerate[0]
    assert np.linalg.norm(u.values[nodes] - a, axis=1).tolist() == [0.0]
    assert out[0, 7].tolist() == [1.0, 0.0]
    keep = np.arange(g.node_count) != 7
    diff = u.values[keep] - a
    expected = diff / np.linalg.norm(diff, axis=1)[:, None]
    assert np.allclose(out[0, keep], expected, rtol=0, atol=1e-15)
    flat = sample_map(g, lambda x: np.zeros((x.shape[0], 2)), g.box, (0.0, 0.0))
    assert shifted_unit_values(flat, [(0.0, 0.0)], out)[1].tolist() == [True]
    with pytest.raises(DegenerateShiftError):
        shifted_projection(flat, ShiftPoint((0.0, 0.0)))


def test_length_two_reductions_equal_numpy_reductions():
    # the sup norms and norms of 2-vectors are taken as np.maximum of two columns and as the
    # square root of an einsum; on the inputs of their call sites they equal numpy's generic
    # reductions bit for bit, and so do the results of the functions that take them
    rng = np.random.default_rng(11)
    u = identity_map_2d(0.04)
    shifts = _uniform_ball_2d(rng, 128, 1.0)
    stack = np.empty((128,) + u.values.shape)  # (128, 2601, 2)
    hits, _ = shifted_unit_values(u, shifts, stack)
    bg, _ = _midpoint_lattice(PATCH_MARGIN, COARSE_SPACING)
    pts = rng.uniform(-1.5, 1.5, (2000, 2))
    diff = u.values - shifts[:, None, :]
    for x in (diff, stack, bg, pts, np.asarray(u.constant) - shifts, rng.uniform(-1, 1, (7, 300, 2)),
              _uniform_ball_2d(np.random.default_rng(5), 20000, 2.0), rng.normal(size=(1000, 2)) * 1e150):
        assert np.array_equal(np.maximum(abs(x[..., 0]), abs(x[..., 1])), np.max(np.abs(x), axis=-1))
        assert np.array_equal(np.sqrt(np.einsum("...i,...i->...", x, x)), np.linalg.norm(x, axis=-1))
    r = np.linalg.norm(diff, axis=-1)
    expected = diff / np.where(hits, 1.0, r)[..., None]
    expected[hits] = (1.0, 0.0)
    assert np.array_equal(stack, expected)
    assert np.array_equal(patch_background()[0], bg[np.max(np.abs(bg), axis=1) > BLOCK_HALFWIDTH])


def shifted_unit_values_reference(u, a):
    """One shift at a time: (projected values, hit mask, degenerate flag)."""
    out = np.empty_like(u.values)
    hits = unit_values(u.values, np.asarray(a, dtype=float), out)
    on_constant = np.linalg.norm(np.asarray(u.constant) - a) <= SINGULAR_EXCLUSION_RADIUS
    outside = not u.support.contains_box(u.grid.box)
    return out, hits, bool(hits.sum() > DEGENERATE_HIT_FRACTION * u.grid.node_count
                           or (on_constant and outside))


def test_stacked_shifted_unit_values_equal_per_shift():
    # a curve on 201 nodes: a plateau at (0.5, 0.5) on x < 0.2 (20 nodes), the
    # outer constant (3, 3) at the one node x = 2 outside the support
    g = make_grid(1, [0.0, 2.0], 0.01)

    def f(x):
        curve = np.column_stack([np.cos(x[:, 0]), np.sin(x[:, 0])])
        return np.where(x[:, :1] < 0.2, 0.5, curve)

    u = sample_map(g, f, Box((0.0,), (1.995,)), (3.0, 3.0))
    rng = np.random.default_rng(4)
    shifts = np.vstack([rng.normal(size=(3, 2)), u.values[100], [0.5, 0.5], [3.0, 3.0],
                        u.values[150], rng.normal(size=(2, 2))])
    out = np.full((len(shifts),) + u.values.shape, np.nan)
    hits, degenerate = shifted_unit_values(u, shifts, out)
    expected = [shifted_unit_values_reference(u, a) for a in shifts]
    assert np.array_equal(out, np.stack([e[0] for e in expected]))
    assert np.array_equal(hits, np.stack([e[1] for e in expected]))
    assert degenerate.tolist() == [e[2] for e in expected]
    # the node values hit once; the plateau and the outer constant are degenerate
    assert hits.sum(axis=1).tolist() == [0, 0, 0, 1, 20, 1, 1, 0, 0]
    assert degenerate.tolist() == [False] * 4 + [True, True] + [False] * 3
    with pytest.raises(DegenerateShiftError, match="hits the singular set at 20 of 201 nodes"):
        shifted_projection(u, ShiftPoint((0.5, 0.5)))
    with pytest.raises(DegenerateShiftError, match="coincides with the outer constant"):
        shifted_projection(u, ShiftPoint((3.0, 3.0)))
    proj, singular = shifted_projection(u, ShiftPoint(tuple(u.values[150])))
    assert [(h.node, h.distance) for h in singular] == [(150, 0.0)]
    assert np.array_equal(proj.values, out[6])


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
