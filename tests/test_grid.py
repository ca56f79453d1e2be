import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splab.errors import ConfigurationError, ConsistencyError, EvaluationError
from splab.grid import Box, SampledMap, make_grid, sample_map
from splab.patches import radial_cutoff

from grid_reference import Placement, rescale_map


def test_three_node_line():
    g = make_grid(1, [0.0, 1.0], 0.5)
    assert g.node_count == 3
    assert np.allclose(np.asarray(g.nodes()).ravel(), [0.0, 0.5, 1.0])


def test_coarse_square():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 1.0)
    assert g.node_count == 9


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_node_count_matches_enumeration(dim):
    # oracle: explicit coordinate enumeration per axis
    lo = [-1.0, 0.0, 0.5][:dim]
    hi = [1.0, 1.5, 2.0][:dim]
    h = 0.25
    g = make_grid(dim, (lo, hi), h)
    axes = [np.arange(lo[i], hi[i] + h / 2, h) for i in range(dim)]
    expected = list(itertools.product(*axes))
    assert g.node_count == len(expected)
    assert np.allclose(np.asarray(g.nodes()), np.asarray(expected))


def test_non_divisible_sides_rejected():
    with pytest.raises(ConfigurationError):
        make_grid(1, [0.0, 1.0], 0.3)


def test_dim_zero_rejected():
    with pytest.raises(ConfigurationError):
        make_grid(0, [0.0, 1.0], 0.5)


def test_snap_within_tolerance():
    g = make_grid(1, [0.0, 1.0 + 2e-10], 0.25)
    assert g.shape == (5,)
    assert g.box.hi[0] == pytest.approx(1.0, abs=1e-12)


def test_sample_constant():
    g = make_grid(1, [0.0, 1.0], 0.25)
    u = sample_map(g, lambda x: np.full((x.shape[0], 2), 3.5), g.box, (3.5, 3.5))
    assert np.all(u.values == 3.5)


def test_sample_identity():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.5)
    u = sample_map(g, lambda x: x, g.box, (0.0, 0.0))
    assert np.array_equal(u.values, np.asarray(g.nodes()))


def test_sample_smooth_cutoff():
    # bump profile: 1 inside radius 1/2, 0 outside radius 1, monotone between
    g = make_grid(2, [[-1.5, -1.5], [1.5, 1.5]], 0.1)
    u = sample_map(g, lambda x: radial_cutoff(x), g.box, (0.0,))
    pts = np.asarray(g.nodes())
    r = np.linalg.norm(pts, axis=1)
    vals = u.values.ravel()
    assert np.all((vals >= 0.0) & (vals <= 1.0))
    assert np.all(vals[r <= 0.5] == 1.0)
    assert np.all(vals[r >= 1.0] == 0.0)


def test_sample_nonfinite_named():
    g = make_grid(1, [0.0, 1.0], 0.5)

    def bad(x):
        out = x[:, :1].copy()
        out[1] = np.inf
        return out

    with pytest.raises(EvaluationError, match="node 1"):
        sample_map(g, bad, g.box, (0.0,))


def test_rescale_identity_placement():
    g = make_grid(1, [0.0, 1.0], 0.25)
    u = sample_map(g, lambda x: np.sin(x), g.box, (0.0,))
    v = rescale_map(u, Placement((0.0,), 1.0))
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)


def test_rescale_constant_map():
    g = make_grid(1, [0.0, 1.0], 0.25)
    u = sample_map(g, lambda x: np.full((x.shape[0], 1), 2.0), g.box, (2.0,))
    v = rescale_map(u, Placement((0.7,), 3.0))
    assert np.all(v.values == 2.0)
    assert v.grid.box.lo[0] == pytest.approx(0.7)


def test_rescale_round_trip_bit_identical():
    g = make_grid(1, [-1.0, 1.0], 0.125)
    u = sample_map(g, lambda x: np.cos(3 * x), g.box, (float(np.cos(3.0)),))
    fwd = rescale_map(u, Placement((0.5,), 2.0))
    back = rescale_map(fwd, Placement((-0.25,), 0.5))
    assert np.array_equal(back.values, u.values)
    assert np.allclose(np.asarray(back.grid.nodes()), np.asarray(u.grid.nodes()), rtol=0, atol=1e-15)


@settings(max_examples=50, deadline=None)
@given(
    scale_pow=st.integers(min_value=-3, max_value=3),
    translate=st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
)
def test_rescale_inverse_property(scale_pow, translate):
    lam = 2.0**scale_pow
    g = make_grid(1, [0.0, 1.0], 0.25)
    u = sample_map(g, lambda x: x**2, g.box, (1.0,))
    fwd = rescale_map(u, Placement((translate,), lam))
    back = rescale_map(fwd, Placement((-translate / lam,), 1.0 / lam))
    assert np.array_equal(back.values, u.values)
    assert back.grid.spacing == pytest.approx(u.grid.spacing, rel=1e-15)


def test_glue_background_mismatch_rejected():
    # a map whose values outside its support differ from its constant is refused
    g = make_grid(1, [-1.0, 1.0], 0.25)
    u = sample_map(g, lambda x: np.clip(1 - np.abs(x), 0.0, None), (-0.5, 0.5), (0.0,))
    assert np.all(u.values[np.abs(u.grid.nodes()[:, 0]) > 0.5] == 0.0)
    with pytest.raises(ConsistencyError):
        SampledMap(g, u.values, 1, u.support, (1.0,))


def test_glue_localized_energies_almost_add():
    # union map of two disjoint bumps: localized energies sum to the total
    # minus the explicitly recomputed cross-pair term
    from splab.energy import FractionalParams, Region, gagliardo_energy

    def bump(x, center, height):
        return height * np.clip(1 - np.abs(x - center), 0.0, None) ** 2

    ambient = make_grid(1, [-4.0, 4.0], 0.125)
    glued = sample_map(ambient, lambda x: bump(x, -2.0, 1.0) + bump(x, 2.0, -2.0),
                       ambient.box, (0.0,))
    params = FractionalParams(s=0.4, p=2.0)
    left = Region.from_box(Box((-4.0,), (0.0,)))
    right = Region.from_box(Box((0.125,), (4.0,)))
    parts = [gagliardo_energy(glued, params, region) for region in (left, right)]
    total = gagliardo_energy(glued, params).value
    part_sum = sum(p.value for p in parts)
    assert part_sum <= total + 1e-12
    pts = np.asarray(glued.grid.nodes()).ravel()
    vals = glued.values.ravel()
    lm = left.mask(glued.grid)
    rm = right.mask(glued.grid)
    d = np.abs(pts[lm][:, None] - pts[rm][None, :])
    dv = np.abs(vals[lm][:, None] - vals[rm][None, :])
    cross = 2.0 * glued.grid.spacing**2 * float(np.sum(dv**params.p / d ** (1 + params.sp)))
    assert total == pytest.approx(part_sum + cross, rel=1e-10)


def test_glue_dyadic_layer_piece_count():
    # a layer places one piece on each dyadic cube of [-1, 1]^2: the placed
    # frame boxes are those cubes, so they tile the square without overlap
    from splab.patches import PATCH_MARGIN, LayerSpec

    for n, count in ((1, 4), (2, 16)):
        layer = LayerSpec(n)
        centers = layer.centers()
        assert layer.count == len(centers) == count
        r = layer.cube_inradius
        lo = centers - layer.placement_scale * PATCH_MARGIN
        assert layer.placement_scale * PATCH_MARGIN == pytest.approx(r, rel=1e-15)
        idx = np.round((lo + 1.0) / (2 * r))
        assert np.allclose(lo, -1.0 + 2 * r * idx, rtol=0, atol=1e-15)
        assert len({tuple(i) for i in idx.astype(int)}) == count
        assert idx.min() == 0 and idx.max() == 2**n - 1
