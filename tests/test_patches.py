import math
import tracemalloc

import numpy as np
import pytest

from splab import _pairsum, patches
from patch_reference import (
    ResolutionError,
    basic_values,
    build_patch,
    layer_energy_whole_cloud,
    patch_cloud,
    patch_values,
    projected_point_by_point,
)
from splab._pairsum import (
    LatticeCounts,
    class_kernel,
    class_pair_sum,
    half_lattice,
    lattice_index,
    pair_kernel_sum,
)
from splab.chords import chords_vectorized
from splab.energy import FractionalParams, Region, gagliardo_energy
from splab.errors import BudgetError
from splab.grid import Box, make_grid, sample_map
from splab.patches import (
    FRAME_HALFWIDTH,
    LayerSpec,
    PatchModel,
    _midpoint_lattice,
    PatchSpec,
    SUPPORT_HALFWIDTH,
    PATCH_MARGIN,
    cluster_scale,
    _values_from,
    check_layer_table,
    default_cluster_count,
    frame_energy,
    outer_background,
)
from splab.sphere import unit_values

import pairsum_reference


def frame_grid(h):
    return make_grid(2, Box.cube(2.5, dim=2), h)


def test_default_cluster_counts():
    assert default_cluster_count(1, 0.5) == 1
    assert default_cluster_count(2, 0.5) == 4  # 16 copies in the plane
    assert default_cluster_count(2, 0.4) == 6
    assert default_cluster_count(3, 0.4) == 32


def test_cluster_cells_fit_disjointly(model_main):
    k = 4
    centers = model_main._cell_lattice(k)[0]
    assert centers.shape == (16, 2)
    # cells of half-width 1/(4k) tile the central block inside the host ball
    assert np.max(np.abs(centers)) + 1 / (4 * k) <= 0.25 + 1e-12
    assert np.max(np.linalg.norm(np.abs(centers) + 1 / (4 * k), axis=1)) < 0.5


def test_basic_patch_plateau_values(params_main):
    spec = PatchSpec((0.2, -0.1), 2, params_main)
    amp = spec.amplitude
    at_plus, at_minus, far = basic_values(np.array([[1.0, 0.0], [-1.0, 0.0], [2.4, 2.4]]), spec)
    assert np.allclose(at_plus, [0.2 + amp, -0.1])
    assert np.allclose(at_minus, [0.2 - amp, -0.1])
    assert np.allclose(far, [0.2, -0.1])


def test_basic_patch_resolution_gate(params_main):
    # the flat reference refuses a grid with fewer than 4 nodes across the bump's annulus
    spec = PatchSpec((0.0, 0.0), 1, params_main)
    with pytest.raises(ResolutionError):
        build_patch(spec, frame_grid(1 / 4))


def test_basic_patch_amplitude_scaling(params_main):
    # on a fixed grid the energy scales exactly with the amplitude power
    g = frame_grid(1 / 8)
    frame = Box.cube(FRAME_HALFWIDTH, dim=2)
    energies = {}
    for n in (1, 2, 3):
        spec = PatchSpec((0.0, 0.0), n, params_main)
        u = sample_map(g, lambda x: basic_values(x, spec), frame, spec.c)
        energies[n] = gagliardo_energy(u, params_main).value
    p = params_main.p
    assert energies[2] / energies[1] == pytest.approx(2.0**-p, rel=1e-12)
    assert energies[3] / energies[2] == pytest.approx(2.0**-p, rel=1e-12)


def test_clustered_patch_requires_resolution(params_main):
    spec = PatchSpec((0.0, 0.0), 2, params_main)  # k = 6, feature 1/96
    with pytest.raises(ResolutionError):
        build_patch(spec, frame_grid(1 / 64))


def test_clustered_over_single_energy_scales_like_cluster_power():
    # k-fold clustering multiplies the energy by k^(sp) (constants cancel
    # between the two cluster geometries)
    params = FractionalParams(s=0.4, p=2.5)
    model = PatchModel(params)
    n = 2
    single = PatchSpec((0.0, 0.0), n, params, k=1)
    clustered = PatchSpec((0.0, 0.0), n, params)  # k = 6
    ratio = model.cluster_energy(clustered) / model.cluster_energy(single)
    assert ratio == pytest.approx(clustered.k**params.sp, rel=0.30)


def test_patch_support_zero_outside_unit_cube(params_main):
    spec = PatchSpec((0.4, 0.4), 1, params_main)
    g = frame_grid(1 / 64)
    u = build_patch(spec, g)
    pts = np.asarray(g.nodes())
    outside = np.max(np.abs(pts), axis=1) > 1.0
    assert np.all(u.values[outside] == 0.0)
    assert u.support.hi[0] == pytest.approx(SUPPORT_HALFWIDTH)


def test_patch_values_in_prescribed_segments(params_main):
    # every value lies on one of the construction's segments: the cluster
    # segment [c-, c+] or the collar segment [0, c]
    spec = PatchSpec((0.3, 0.2), 2, params_main)
    rng = np.random.default_rng(5)
    pts = rng.uniform(-1.3, 1.3, (4000, 2))
    vals = patch_values(pts, spec)
    c = np.asarray(spec.c)
    e1 = np.array([1.0, 0.0])
    ok = np.zeros(len(pts), dtype=bool)
    # cluster segment: v = c + t*amp*e1, |t| <= 1
    t = (vals - c) @ e1 / spec.amplitude
    on_cluster = (np.abs(t) <= 1 + 1e-12) & (np.linalg.norm(vals - c - np.outer(t * spec.amplitude, e1), axis=1) <= 1e-12)
    # collar segment: v = tau*c, tau in [0, 1]
    tau = vals @ c / (c @ c)
    on_collar = (tau >= -1e-12) & (tau <= 1 + 1e-12) & (np.linalg.norm(vals - np.outer(tau, c), axis=1) <= 1e-12)
    ok = on_cluster | on_collar
    assert np.all(ok)


def test_localized_cluster_cells_symmetric(model_main, params_main):
    # the four cells of a k = 2 cluster are exact translates carrying the
    # same values, so their localized energies coincide and their sum
    # stays below the total
    spec = PatchSpec((0.0, 0.0), 1, params_main, k=2)
    g = make_grid(2, Box.cube(PATCH_MARGIN, dim=2), 1 / 128)
    u = build_patch(spec, g)
    r_cell = 1 / (4 * spec.k)
    cells = [Region.from_box(Box.cube(r_cell - 1e-9, center=c, dim=2))
             for c in model_main._cell_lattice(spec.k)[0]]
    vals = [gagliardo_energy(u, params_main, cell).value for cell in cells]
    assert max(vals) / min(vals) - 1.0 <= 1e-9
    block = gagliardo_energy(u, params_main,
                             Region.from_box(Box.cube(0.25, dim=2))).value
    assert sum(vals) <= block + 1e-12


def test_patch_energy_uniform_in_scale(model_main, params_main):
    energies = {}
    for n in (1, 2):
        spec = PatchSpec((0.3, 0.2), n, params_main)
        energies[n] = model_main.patch_energy_direct(spec)
    spread = max(energies.values()) / min(energies.values())
    assert spread <= 2.0


def test_patch_composite_matches_flat_quadrature(model_main, params_main):
    # dual route at the coarsest scale: flat uniform grid against the
    # multi-resolution composite quadrature
    spec = PatchSpec((0.3, 0.2), 1, params_main)
    g = make_grid(2, Box.cube(PATCH_MARGIN, dim=2), 1 / 64)
    u = build_patch(spec, g)
    flat = gagliardo_energy(u, params_main, workers=2).value
    composite = model_main.patch_energy_direct(spec)
    assert composite == pytest.approx(flat, rel=0.10)


def test_projected_lower_bound_random_shifts(model_main, params_main):
    rng = np.random.default_rng(99)
    for n in (1, 2):
        spec = PatchSpec((0.3, 0.2), n, params_main)
        for _ in range(10):
            r = np.sqrt(rng.random())
            t = 2 * np.pi * rng.random()
            a = np.array([r * np.cos(t), r * np.sin(t)])
            direct = model_main.patch_projected_direct(spec, a)
            lower = model_main.patch_projected_lower(spec, a)
            assert direct >= 0.1 * lower


def test_projected_center_shift_value(model_main, params_main):
    # shift at the patch center: the projected plateaus are antipodal
    spec = PatchSpec((0.3, 0.2), 2, params_main)
    lower = model_main.patch_projected_lower(spec, np.asarray(spec.c))
    expected = model_main.cluster_lower_constant(spec) * 2.0**params_main.p
    assert lower == pytest.approx(expected, rel=1e-12)


def test_layer_counts_and_budget(params_main):
    # the n = 3 layer cloud fits the node budget but not the pair budget
    layer = LayerSpec(1)
    assert layer.count == 4
    assert len(layer.placements()) == 4
    assert LayerSpec(2).count == 16
    with pytest.raises(BudgetError, match="pairs > budget"):
        PatchModel(params_main).layer_energy_direct(LayerSpec(3))


class _Built(Exception):
    pass


def _refuse(*args, **kwargs):
    raise _Built


def test_layer_budget_runs_before_any_build(monkeypatch, params_main):
    # the pair count is arithmetic on k and n: it matches the pairs of the blocks'
    # clouds that touch a cell point, and it rejects s = 0.4 at n = 3 (8.5e10 pairs)
    # and admits s = 0.95 (3.3e8) before a patch cloud or a class kernel is built
    model = PatchModel(params_main)
    for n in (1, 2, 3):
        layer = LayerSpec(n)
        k = default_cluster_count(n, params_main.s)
        _, template, background = model._class_cloud(k)
        cells, bg = model._cell_lattice(k)[0].shape[0] * template.size, background.size
        outer = outer_background(layer)[0].shape[0]
        offsets = half_lattice(2**n, 2).shape[0]
        assert model._layer_pairs(layer) == offsets * cells * (cells + 2 * bg) + layer.count * cells * outer
    monkeypatch.setattr(PatchModel, "_class_cloud", _refuse)
    monkeypatch.setattr(patches, "class_kernel", _refuse)
    with pytest.raises(BudgetError, match="pairs > budget"):
        model.layer_energy_direct(LayerSpec(3))
    with pytest.raises(_Built):
        PatchModel(FractionalParams(s=0.95, p=1.5)).layer_energy_direct(LayerSpec(3))


@pytest.mark.parametrize("s", [0.4, 0.5, 0.6])
def test_layer_budget_rejects_n3(monkeypatch, s):
    # n = 3 exceeds the pair budget at these s also when only the pairs that touch a cell count
    monkeypatch.setattr(PatchModel, "_class_cloud", _refuse)
    with pytest.raises(BudgetError, match="pairs > budget"):
        PatchModel(FractionalParams(s=s, p=2.5)).layer_energy_direct(LayerSpec(3))


@pytest.mark.parametrize("n", [1, 2])
def test_layer_class_kernel_pairs_touch_a_cell(monkeypatch, params_main, n):
    # every sum of the layer blocks that touches a cell stands for as many pairs as it
    # covers: a class_kernel call (one side all cell points) its two sides' product, a
    # cell-center count table with a background its total count times its offsets, per
    # shift, and the center table with itself its summed count times 25^2 template pairs;
    # together they are what _layer_pairs counts
    model = PatchModel(params_main, workers=2)
    k = default_cluster_count(n, params_main.s)
    cell_w = model._cell_lattice(k)[2]
    model._classes(k)
    seen = {"class_kernel": 0, "table": 0, "cell lattice": 0}
    kernels = LatticeCounts.kernels

    def spy(points, labels, q, weights=1.0, split=None, **kwargs):
        if split is not None:  # the frame class matrix, without a split, touches no cell
            sides = np.split(np.asarray(weights), [split])
            assert any(np.all(side == cell_w) for side in sides)
            seen["class_kernel"] += sides[0].size * sides[1].size
        return class_kernel(points, labels, q, weights=weights, split=split, **kwargs)

    def spy_table(self, q, spacing, offsets, shift=None, weight=1.0):
        if self is model._tables.get("centers", (None, None))[1]:  # 25^2 template pairs per count
            half = self.disp[np.arange(self.disp.shape[0]), np.argmax(self.disp != 0, axis=1)] > 0
            rows = half if shift is None else slice(None)
            seen["cell lattice"] += int(self.counts[rows].sum()) * patches.CELL_SUBDIVISION**4
        elif self.shape[0] == 1:  # the cell centers carry one label, the backgrounds seven
            seen["table"] += int(self.counts.sum()) * len(offsets)
        return kernels(self, q, spacing, offsets, shift, weight)

    monkeypatch.setattr(patches, "class_kernel", spy)
    monkeypatch.setattr(LatticeCounts, "kernels", spy_table)
    model.layer_energy_direct(LayerSpec(n))
    assert seen["cell lattice"] > 0 and (seen["table"] > 0) == (n == 2)
    assert sum(seen.values()) == model._layer_pairs(LayerSpec(n))


def test_layer_unit_scale_energy_slope(model_main):
    # the energy of the glued layer grows like the patch count: slope of
    # log2 energy within ell +/- 0.5 once the domain rescaling is divided out
    vals = []
    for n in (1, 2):
        layer = LayerSpec(n)
        sigma = layer.placement_scale
        e = model_main.layer_energy_direct(layer)
        vals.append(e / sigma ** (2 - model_main.params.sp))
    slope = np.log2(vals[1] / vals[0])
    assert abs(slope - 2.0) <= 0.5


def test_layer_ratio_slope_pos_regime(model_main):
    ratios = []
    for n in (1, 2, 3, 4):
        _, _, ratio, _ = model_main.layer_ratio(LayerSpec(n))
        ratios.append(ratio)
    slope = np.polyfit([1, 2, 3, 4], np.log2(ratios), 1)[0]
    assert abs(slope - 0.5) <= 0.5  # p - ell = 0.5


def test_compositional_modes(model_main, params_main):
    layer = LayerSpec(1)
    up = model_main.layer_upper_compositional(layer)
    lo = model_main.layer_lower_compositional(layer, (0.1, 0.2))
    assert up > lo > 0


def test_upper_bound_brackets_direct(model_main):
    for n in (1, 2):
        layer = LayerSpec(n)
        direct = model_main.layer_energy_direct(layer)
        upper = model_main.layer_upper_compositional(layer)
        assert direct <= upper <= 3.0 * direct


def test_lower_bound_below_direct_projected(model_main):
    layer = LayerSpec(1)
    lower, upper, ratio, argmin = model_main.layer_ratio(layer)
    direct_proj = model_main.layer_projected_direct(layer, argmin)
    comp_lower = model_main.layer_lower_compositional(layer, argmin)
    assert comp_lower <= 1.5 * direct_proj


THRESHOLD_PAIRS = ((0.4, 2.5), (0.4, 1.5), (0.5, 2.0))


@pytest.fixture(scope="module")
def threshold_models(model_main):
    models = {(s, p): PatchModel(FractionalParams(s=s, p=p), workers=2) for s, p in THRESHOLD_PAIRS[1:]}
    models[THRESHOLD_PAIRS[0]] = model_main
    return models


def _reference_lower(model, layer, a):
    """Per-shift lower bound from the selection rule: the cube, and the cone for p <= ell."""
    centers = layer.centers()
    r = layer.cube_inradius
    d = a - centers
    dist = np.linalg.norm(d, axis=1)
    sel = np.max(np.abs(d), axis=1) <= r + 1e-12
    if model.params.p <= 2:
        sel |= (8 * np.abs(d[:, 0]) <= dist) & (dist >= r)
    chords = chords_vectorized(centers[sel], layer.n, np.broadcast_to(a, (int(sel.sum()), 2)))
    spec = PatchSpec(tuple(centers[0]), layer.n, model.params)
    coeff = layer.placement_scale ** (2 - model.params.sp) * model.cluster_lower_constant(spec)
    return coeff * float(np.sum(chords**model.params.p))


@pytest.mark.parametrize("pair", [(0.4, 2.5), (0.4, 1.5), (0.5, 2.0), (0.7, 2.8)],
                         ids=lambda pair: f"s{pair[0]}-p{pair[1]}")
def test_plateau_kernel_is_the_frame_class_entry(pair):
    # the plateau balls are the frame classes of profile +1 and -1, so the
    # kernel mass between them, twice that entry of the frame class matrix,
    # is the pair sum over the frame points of the two balls
    model = PatchModel(FractionalParams(*pair), workers=2)
    profile = model._frame_classes()[0]
    assert np.count_nonzero(profile == 1.0) == np.count_nonzero(profile == -1.0) == 1
    pts, e1 = model._frame_pts, np.array([1.0, 0.0])
    pos = pts[np.linalg.norm(pts - e1, axis=1) <= patches.PLATEAU_RADIUS]
    neg = pts[np.linalg.norm(pts + e1, axis=1) <= patches.PLATEAU_RADIUS]
    d = pos[:, None, :] - neg[None, :, :]
    dr2 = np.einsum("ijk,ijk->ij", d, d)
    expected = 2.0 * model.h0**4 * np.sum(dr2 ** (-0.5 * model._kernel_exp))
    assert model.plateau_kernel == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("pair", [(0.4, 2.5), (0.7, 2.8), (0.4, 1.5), (0.6, 1.5)],
                         ids=lambda pair: f"s{pair[0]}-p{pair[1]}")
def test_profile_energy_matches_frame_pair_sum(pair):
    # the profile energy from the frame class matrix against the point-by-point pair sum
    model = PatchModel(FractionalParams(*pair), workers=2)
    expected = frame_energy(model._frame_pts, model._frame_g[:, None], model.params.p,
                            model._kernel_exp, model.h0, workers=2)
    assert model.profile_energy == pytest.approx(expected, rel=1e-13, abs=0)


@pytest.mark.parametrize("pair", THRESHOLD_PAIRS)
def test_layer_energy_matches_whole_cloud(threshold_models, pair):
    model = threshold_models[pair]
    layer = LayerSpec(1)
    expected = layer_energy_whole_cloud(model, layer)
    assert model.layer_energy_direct(layer) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("first, second", [(0, 1), (0, 4), (2, 7), (6, 9), (0, 15)],
                         ids=["D01", "D10", "D11", "D1-1", "D33"])
def test_layer_offset_block_matches_placed_pair_sum(model_main, params_main, first, second):
    # patch (i, j) of the 4 x 4 grid has index 4 i + j; the block of D is
    # the pair sum between patch I and patch I + D in frame units
    layer = LayerSpec(2)
    specs, placements = layer.patch_specs(params_main), layer.placements()
    offset = np.divmod(second, 4)[0] - np.divmod(first, 4)[0], second % 4 - first % 4
    block = model_main._block(specs[0].k, 2 * PATCH_MARGIN * np.array(offset))
    collar, profile, _ = model_main._classes(specs[0].k)
    values, others = (_values_from(collar, profile, specs[i].c, specs[i].amplitude) for i in (first, second))
    got = layer.placement_scale ** (2 - params_main.sp) * class_pair_sum(block, values, params_main.p,
                                                                         others=others)
    clouds = [patch_cloud(model_main, specs[i], placement=placements[i]) for i in (first, second)]
    pts, vals, w = (np.concatenate([c[k] for c in clouds]) for k in range(3))
    groups = np.repeat([0, 1], [c[0].shape[0] for c in clouds])
    expected = pair_kernel_sum(pts, vals, params_main.p, 2 + params_main.sp, weights=w,
                               groups=groups, workers=2)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("index", [0, 5], ids=["corner", "inner"])
def test_layer_outer_block_matches_placed_pair_sum(model_main, params_main, index):
    # the outer block of patch I is its pair sum with the outer background
    # (value 0) in I's frame units; patch 0 is a corner of the 4 x 4 grid, 5 inside it
    layer = LayerSpec(2)
    spec, placement = layer.patch_specs(params_main)[index], layer.placements()[index]
    outer, outer_w = outer_background(layer)
    block = model_main._block(spec.k, outer=((outer - placement.translate) / placement.scale,
                                             outer_w / placement.scale**2))
    collar, profile, _ = model_main._classes(spec.k)
    values = _values_from(collar, profile, spec.c, spec.amplitude)
    got = layer.placement_scale ** (2 - params_main.sp) * class_pair_sum(block, values, params_main.p,
                                                                         others=np.zeros((1, 2)))
    pts, vals, w, _ = patch_cloud(model_main, spec, placement=placement)
    expected = pair_kernel_sum(np.concatenate([pts, outer]), np.concatenate([vals, np.zeros_like(outer)]),
                               params_main.p, 2 + params_main.sp,
                               weights=np.concatenate([w, np.full(outer.shape[0], outer_w)]),
                               groups=np.repeat([0, 1], [pts.shape[0], outer.shape[0]]), workers=2)
    assert got == pytest.approx(expected, rel=1e-12, abs=0)


def test_cross_kernel_rejects_off_lattice_background(model_main, params_main):
    # outer background points moved off their lattice cannot take the lattice-count route
    layer = LayerSpec(1)
    outer, outer_w = outer_background(layer)
    placement = layer.placements()[0]
    frame = (outer - placement.translate) / placement.scale
    frame[3] += 1e-3
    with pytest.raises(ValueError, match="off the lattice"):
        model_main._block(1, outer=(frame, outer_w / placement.scale**2))


def test_class_cloud_built_once_per_k(monkeypatch, params_main):
    # every block of a layer reads the patch cloud of its k: a glued layer at n = 2
    # (its class matrix, 24 offset blocks and 16 outer blocks) builds that cloud once
    calls = []
    check = PatchModel._check_cloud_size
    monkeypatch.setattr(PatchModel, "_check_cloud_size", lambda self, k: calls.append(k) or check(self, k))
    PatchModel(params_main).layer_energy_direct(LayerSpec(2))
    assert calls == [default_cluster_count(2, params_main.s)]


def test_layer_energy_same_for_any_worker_count(model_main, params_main):
    one = PatchModel(params_main, workers=1)
    for n in (1, 2):
        assert one.layer_energy_direct(LayerSpec(n)) == model_main.layer_energy_direct(LayerSpec(n))


@pytest.mark.parametrize("pair", THRESHOLD_PAIRS)
def test_layer_lowers_match_per_shift_reference(threshold_models, pair):
    # p <= ell pairs also select the transverse cone, p > ell the cube alone
    model = threshold_models[pair]
    for n in (1, 2, 3, 4):
        layer = LayerSpec(n)
        shifts = model.shift_grid(layer)
        ref = np.array([_reference_lower(model, layer, a) for a in shifts])
        per_shift = np.array([model.layer_lower_compositional(layer, a) for a in shifts])
        np.testing.assert_allclose(per_shift, ref, rtol=1e-12, atol=0)
        np.testing.assert_allclose(model.layer_lowers(layer), ref, rtol=1e-12, atol=0)
        lower, _, _, argmin = model.layer_ratio(layer)
        assert any(np.array_equal(argmin, a) for a in shifts)
        assert lower == model.layer_lower_compositional(layer, argmin)
        assert np.all(ref >= lower * (1 - 1e-12))


def test_layer_ratio_builds_no_shift_grid(threshold_models, monkeypatch):
    # the argmin shift is one center plus one stencil offset: the row of
    # `shift_grid` that the table's argmin names, with the same four values
    expected = {}
    for pair, model in threshold_models.items():
        for n in range(1, 6):
            layer = LayerSpec(n)
            argmin = model.shift_grid(layer)[int(np.argmin(model.layer_lowers(layer)))]
            upper = model.layer_upper_compositional(layer)
            lower = model.layer_lower_compositional(layer, argmin)
            expected[pair, n] = (lower, upper, lower / upper, argmin.tolist())

    def no_grid(self, layer):
        raise AssertionError("layer_ratio builds the whole shift grid")

    monkeypatch.setattr(PatchModel, "shift_grid", no_grid)
    for (pair, n), values in expected.items():
        lower, upper, ratio, argmin = threshold_models[pair].layer_ratio(LayerSpec(n))
        assert (lower, upper, ratio, argmin.tolist()) == values


def test_layer_table_budget(model_main):
    # n = 11 fits the lower-bound table budget and n = 12 does not; the check
    # is arithmetic and runs before the table or the shift grid is built
    check_layer_table(11)
    tracemalloc.start()
    try:
        for scan in (model_main.layer_lowers, model_main.layer_ratio):
            with pytest.raises(BudgetError, match="lower-bound table at n = 12"):
                scan(LayerSpec(12))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


@pytest.mark.parametrize("pair", THRESHOLD_PAIRS)
def test_layer_upper_closed_form_matches_patch_sum(threshold_models, pair):
    model = threshold_models[pair]
    for n in (1, 2, 3, 4):
        layer = LayerSpec(n)
        weight = layer.placement_scale ** (2 - model.params.sp)
        per_patch = sum(weight * model.patch_margin_factor
                        * (model.cluster_energy(spec)
                           + np.linalg.norm(spec.c) ** model.params.p * model.collar_unit_energy)
                        for spec in layer.patch_specs(model.params))
        expected = model.layer_margin_factor * per_patch
        assert model.layer_upper_compositional(layer) == pytest.approx(expected, rel=1e-12, abs=0)


# ---------------------------------------------------------------------------
# Cell-lattice reduction and stacked projected energies
# ---------------------------------------------------------------------------

LATTICE_CENTERS = ((0.3, 0.2), (0.0, 0.0), (0.5, 0.5))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_cell_lattice_energy_matches_grouped_pair_sum(model_main, params_main, n):
    # reference: the grouped cloud sum with one group per cell, all pairs of
    # distinct cells evaluated point by point (one stacked call for the three c)
    specs = [PatchSpec(c, n, params_main) for c in LATTICE_CENTERS]
    pts, _, w, groups = patch_cloud(model_main, specs[0])
    values = np.stack([patch_cloud(model_main, spec)[1] for spec in specs])
    grouped = pair_kernel_sum(pts, values, params_main.p, 2 + params_main.sp, weights=w,
                              groups=groups, workers=2)
    for spec, pair_sum in zip(specs, grouped):
        expected = 2.0 * pair_sum + model_main.cluster_energy(spec)
        assert model_main.patch_energy_direct(spec) == pytest.approx(expected, rel=1e-12, abs=0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_patch_cloud_cells_share_one_template(model_main, params_main, n):
    for c in LATTICE_CENTERS:
        spec = PatchSpec(c, n, params_main)
        pts, vals, w, groups = patch_cloud(model_main, spec)
        centers, offs, cell_w = model_main._cell_lattice(spec.k)
        cells = centers.shape[0] * offs.shape[0]
        assert np.array_equal(groups[:cells], np.repeat(np.arange(centers.shape[0]), offs.shape[0]))
        assert np.all(groups[cells:] == -1)
        assert np.all(w[:cells] == cell_w)
        local = pts[:cells].reshape(centers.shape[0], -1, 2) - centers[:, None, :]
        np.testing.assert_allclose(local, np.broadcast_to(offs, local.shape), rtol=0, atol=1e-15)
        shared = basic_values(offs / cluster_scale(spec.k), spec)
        np.testing.assert_allclose(vals[:cells].reshape(centers.shape[0], -1, 2),
                                   np.broadcast_to(shared, (centers.shape[0],) + shared.shape),
                                   rtol=0, atol=1e-14)


def test_cell_lattice_sum_matches_point_pairs(monkeypatch, params_main):
    # the pair sum from the center table at the template differences: the 3 x 3 cells of
    # k = 3 holding a 5 x 5 or a 4 x 4 midpoint template against the grouped engine, point
    # by point; the 25 table rows stream in five blocks; one cell has no such pairs; an
    # off-lattice template raises
    monkeypatch.setattr(_pairsum, "LATTICE_ROWS", 5)
    rng = np.random.default_rng(4)
    k = 3
    for side in (5, 4):
        monkeypatch.setattr(patches, "CELL_SUBDIVISION", side)
        model = PatchModel(params_main)
        centers, offs, cell_w = model._cell_lattice(k)
        vals = rng.normal(size=(side * side, 2))
        pts = (centers[:, None, :] + offs).reshape(-1, 2)
        groups = np.repeat(np.arange(k * k), side * side)
        expected = pair_kernel_sum(pts, np.tile(vals, (k * k, 1)), 1.5, model._kernel_exp,
                                   weights=cell_w, groups=groups)
        kern = model._cell_pairs(k)
        got = float(np.sum(kern * np.linalg.norm(vals[:, None] - vals[None, :], axis=-1) ** 1.5))
        assert got == pytest.approx(expected, rel=1e-13)
        assert not model._cell_pairs(1).any()
    off_lattice = (rng.random((4, 2)) - 0.5) * 0.9 * 2 * patches.BLOCK_HALFWIDTH / k
    monkeypatch.setattr(model, "_cell_lattice", lambda k: (centers, off_lattice, cell_w))
    with pytest.raises(ValueError, match="off the lattice"):
        model._cell_pairs(k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_moved_cell_lattice_kernel_matches_point_pairs(monkeypatch, params_main, k):
    # the kernel between the k x k cells (a 5 x 5 or a 4 x 4 midpoint template) and their
    # copy moved by T cell widths (T = 5k D for the patch offsets D = (1, 0) and (-1, 1),
    # and a near copy), from the center table, against every pair of a point and a moved point
    width = 2 * patches.BLOCK_HALFWIDTH / k
    for side in (5, 4):
        monkeypatch.setattr(patches, "CELL_SUBDIVISION", side)
        model = PatchModel(params_main)
        centers, offs, cell_w = model._cell_lattice(k)
        here = centers[:, None, :] + offs
        for shift in ([5 * k, 0], [-5 * k, 5 * k], [k, -1]):
            move = width * np.array(shift)
            sep = here[:, None, :, None, :] - (here + move)[None, :, None, :, :]
            expected = cell_w**2 * np.sum(np.sum(sep**2, axis=-1) ** (-0.5 * model._kernel_exp),
                                          axis=(0, 1))
            np.testing.assert_allclose(model._cell_pairs(k, move), expected, rtol=1e-13, atol=0)


@pytest.mark.parametrize("k", [1, 2, 3, 32])
def test_cell_pairs_equal_frozen_template_kernels(params_main, k):
    # the template differences folded in `_cell_pairs` give the kernels of the table method
    # they replaced, at rest and moved, bit for bit
    model = PatchModel(params_main)
    centers, offs, cell_w = model._cell_lattice(k)
    width = 2 * patches.BLOCK_HALFWIDTH / k
    index = lattice_index(centers, width)[0]
    one = np.zeros(index.shape[0], dtype=np.int64)
    table = LatticeCounts(index, one, index, one)
    for shift in (None, [5 * k, 0], [-5 * k, 5 * k], [k, -1]):
        frozen = pairsum_reference.template_kernels(table, model._kernel_exp, width, offs,
                                                    width / patches.CELL_SUBDIVISION,
                                                    shift, cell_w * cell_w)[:, :, 0, 0]
        move = None if shift is None else width * np.array(shift)
        assert model._cell_pairs(k, move).tobytes() == frozen.tobytes()


def _lattice_always(model, k, points):
    """`PatchModel._lattice_route` without its rule: the count-table route at every k."""
    return 1 / math.lcm(2 * k, 16)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32])
def test_cell_background_kernels_match_class_kernel(monkeypatch, params_main, k):
    # P's cells with its background at rest and moved by T = 2.5 D (D = (1, 0) and (-1, -2)),
    # and with outer background points on the half-step lattice: the route the rule
    # picks and the count-table route against class_kernel of the two sides of a split
    model = PatchModel(params_main, workers=2)
    classes, template, bg_labels = model._class_cloud(k)
    count = classes.shape[0]
    centers, offs, cell_w = model._cell_lattice(k)
    cells = (centers[:, None, :] + offs).reshape(-1, 2)
    labels = np.tile(template, centers.shape[0])
    bg, bg_w = model._background()
    layer = LayerSpec(1)
    placement = layer.placements()[0]
    outer, outer_w = outer_background(layer)
    moves = np.array([[0.0, 0.0], [2.5, 0.0], [-2.5, -5.0]])
    cases = [(bg, bg_labels, bg_w, moves),
             ((outer - placement.translate) / placement.scale, np.zeros(outer.shape[0], dtype=np.int64),
              outer_w / placement.scale**2, moves[:1])]
    for points, q_labels, weight, shifts in cases:
        expected = np.stack([
            class_kernel(np.concatenate([cells, points + move]),
                         np.concatenate([labels, q_labels + count]), model._kernel_exp,
                         weights=np.concatenate([np.full(cells.shape[0], cell_w),
                                                 np.full(points.shape[0], weight)]),
                         split=cells.shape[0], workers=2)[:count, count:]
            for move in shifts])
        for route in (PatchModel._lattice_route, _lattice_always):
            monkeypatch.setattr(PatchModel, "_lattice_route", route)
            got = np.stack([model._cell_kernel(k, points, q_labels, weight, move) for move in shifts])
            assert got.shape == expected.shape
            assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_cell_background_route_rule(params_main):
    # the route of fewer kernel evaluations: 25 per padded table entry against one per pair,
    # unless the table exceeds its budget: at n = 4 (k = 182) the table would take fewer
    # evaluations but hold 18.7M entries (523 MB of counts)
    model = PatchModel(params_main)
    bg = model._background()[0]
    lattice = [k for k in (1, 3, 4, 5, 6, 32, 182) if model._lattice_route(k, bg) is not None]
    assert lattice == [4, 6, 32]
    spacing = 1 / math.lcm(2 * 182, 16)
    entries = LatticeCounts.entries(lattice_index(model._cell_lattice(182)[0], spacing)[0],
                                    lattice_index(bg, spacing)[0])
    assert patches.CELL_TABLE_BUDGET < entries < 182**2 * bg.shape[0]
    assert model.class_scheme([32, 1, 6, 6]) == (
        "class matrices kernel_exp=3.0: cell-background lattice k=6,32; class_kernel k=1")


def test_stacked_projected_equals_per_shift(model_main, params_main):
    rng = np.random.default_rng(17)
    shifts = np.vstack([rng.random((5, 2)) - 0.5, [[0.8, 0.2]]])  # the last one hits at n = 2
    for n in (1, 2):
        spec = PatchSpec((0.3, 0.2), n, params_main)
        per_shift = [model_main.patch_projected_direct(spec, a) for a in shifts]
        assert model_main.patch_projected_direct(spec, shifts).tolist() == per_shift
    assert model_main.patch_projected_direct(spec, np.zeros((0, 2))).shape == (0,)


def test_stacked_projected_lower_equals_per_shift(model_main, params_main):
    rng = np.random.default_rng(17)
    shifts = np.vstack([rng.random((5, 2)) - 0.5, [[0.3, 0.2]]])  # the last one at the patch center
    for n in (1, 2):
        spec = PatchSpec((0.3, 0.2), n, params_main)
        per_shift = [model_main.patch_projected_lower(spec, a) for a in shifts]
        assert all(type(v) is float for v in per_shift)
        assert model_main.patch_projected_lower(spec, shifts).tolist() == per_shift
    assert model_main.patch_projected_lower(spec, np.zeros((0, 2))).shape == (0,)


def test_projected_classes_match_point_by_point(model_main, params_main):
    # class values against every point projected and dropped on its own
    rng = np.random.default_rng(17)
    shifts = np.vstack([rng.random((5, 2)) - 0.5, [[0.8, 0.2]]])
    for n in (1, 2):
        spec = PatchSpec((0.3, 0.2), n, params_main)
        np.testing.assert_allclose(model_main.patch_projected_direct(spec, shifts),
                                   projected_point_by_point(model_main, spec, shifts),
                                   rtol=1e-12, atol=0)
    vals = patch_values(patch_cloud(model_main, spec)[0], spec)
    assert unit_values(vals, shifts[-1], np.empty_like(vals)).any()  # the drop rule runs


def test_patch_cloud_budget(model_main, params_main):
    # n = 4 (828k points) fits the node budget, n = 5 (26M points) does not;
    # the layer ratio builds no cloud and runs at any n
    model = PatchModel(params_main)
    model._check_cloud_size(PatchSpec((0.3, 0.2), 4, params_main).k)
    spec = PatchSpec((0.3, 0.2), 5, params_main)
    with pytest.raises(BudgetError):
        model.patch_energy_direct(spec)
    with pytest.raises(BudgetError):
        model.patch_projected_direct(spec, np.array([0.1, 0.1]))
    for n in (4, 9):
        with pytest.raises(BudgetError):
            model.layer_energy_direct(LayerSpec(n))
    assert model_main.layer_ratio(LayerSpec(8))[2] > 0


def test_layer_projected_is_sum_of_patch_projected(model_main, params_main):
    # one stacked call per layer keeps the per-patch values and their summation order
    for n in (1, 2):
        layer = LayerSpec(n)
        a = np.array([0.1, -0.35])
        weight = layer.placement_scale ** (2 - params_main.sp)
        total = 0.0
        for spec in layer.patch_specs(params_main):
            total += weight * model_main.patch_projected_direct(spec, a)
        assert model_main.layer_projected_direct(layer, a) == total
