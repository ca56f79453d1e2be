import contextlib
import os
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splab import _pairsum
from splab import energy as energy_module
from splab._pairsum import (
    DEFAULT_BLOCK,
    TILE_CHUNK,
    TILE_ROWS,
    _tiles,
    class_kernel,
    class_pair_sum,
    pair_kernel_sum,
    symmetric,
)
from splab.energy import (
    EnergyPlan,
    EnergyValue,
    FractionalParams,
    Region,
    gagliardo_energy,
)
from splab.errors import ConfigurationError, GeometryError, NumericalError, WrongSchemeError
from splab.grid import Box, make_grid, sample_map
from splab.harness import TEST_MAPS, map_grid
from splab.sphere import shifted_unit_values

import pairsum_reference
from grid_reference import Placement, rescale_map

INDICATOR_TRUNCATED = 10.914604076867487  # closed-form double integral on [-2, 3]


def indicator_1d(h):
    g = make_grid(1, [-2.0, 3.0], h)
    return sample_map(g, lambda x: ((x[:, 0] > 0) & (x[:, 0] < 1)).astype(float),
                      Box((-0.5,), (1.5,)), [0.0])


def smooth_bump_1d(h, halfwidth=1.5):
    g = make_grid(1, [-halfwidth, halfwidth], h)

    def f(x):
        t = np.clip(1.0 - x[:, 0] ** 2, 0.0, None)
        return np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)

    return sample_map(g, f, Box((-1.0,), (1.0,)), [0.0])


def test_params_regime_flags():
    p = FractionalParams(s=0.4, p=2.5)
    assert p.sp == pytest.approx(1.0)
    with pytest.raises(ConfigurationError):
        FractionalParams(s=1.2, p=2.0)
    with pytest.raises(ConfigurationError):
        FractionalParams(s=0.5, p=0.5)


def test_non_finite_energy_is_numerical_error():
    for bad in (float("nan"), float("inf"), -1.0):
        with pytest.raises(NumericalError):
            EnergyValue(bad, "pair-sum", 0.1)
    assert NumericalError.exit_code == 2


def test_constant_map_zero_energy():
    g = make_grid(1, [0.0, 1.0], 0.1)
    u = sample_map(g, lambda x: np.full((x.shape[0], 1), 4.2), g.box, (4.2,))
    e = gagliardo_energy(u, FractionalParams(s=0.5, p=2.0))
    assert e.value == 0.0


def test_indicator_closed_form():
    # the full-line value is 4/(sp(1-sp)) = 16; the domain truncation is
    # accounted for by the analytic oracle
    u = indicator_1d(0.005)
    e = gagliardo_energy(u, FractionalParams(s=0.25, p=2.0))
    assert e.value == pytest.approx(INDICATOR_TRUNCATED, rel=0.06)


def test_discrete_scaling_identity_exact():
    u = smooth_bump_1d(0.01)
    params = FractionalParams(s=0.3, p=2.0)
    base = gagliardo_energy(u, params).value
    scaled = gagliardo_energy(rescale_map(u, Placement((0.25,), 2.0)), params).value
    ratio = scaled / base
    assert ratio == pytest.approx(2.0 ** (1 - params.sp), rel=1e-12)


def test_scaling_under_resampling():
    params = FractionalParams(s=0.3, p=2.0)
    u = smooth_bump_1d(0.01)
    base = gagliardo_energy(u, params).value
    lam = 2.0
    g2 = make_grid(1, [-2 * 1.5, 2 * 1.5], 0.01)

    def f(x):
        t = np.clip(1.0 - (x[:, 0] / lam) ** 2, 0.0, None)
        return np.where(t > 0, np.exp(-1.0 / np.where(t > 0, t, 1.0)), 0.0)

    v = sample_map(g2, f, Box((-lam,), (lam,)), [0.0])
    resampled = gagliardo_energy(v, params).value
    assert resampled / base == pytest.approx(lam ** (1 - params.sp), rel=0.02)


def test_s_equal_one_routed_to_dirichlet():
    # s = 1 is the first-order (Dirichlet) energy, which the pair sum refuses
    u = smooth_bump_1d(0.1)
    with pytest.raises(WrongSchemeError, match="0 < s < 1"):
        gagliardo_energy(u, FractionalParams(s=1.0, p=2.0))


def test_empty_region_rejected():
    u = smooth_bump_1d(0.1)
    with pytest.raises(ConfigurationError):
        gagliardo_energy(u, FractionalParams(s=0.5, p=2.0), Region.from_ball((99.0,), 0.1))


def test_localized_whole_equals_total():
    u = indicator_1d(0.02)
    params = FractionalParams(s=0.25, p=2.0)
    total = gagliardo_energy(u, params).value
    assert gagliardo_energy(u, params, Region.whole()).value == total


def test_localized_cross_term_identity():
    u = indicator_1d(0.02)
    params = FractionalParams(s=0.25, p=2.0)
    left = Region.from_box(Box((-2.0,), (0.5,)))
    right = Region.from_box(Box((0.5 + 1e-9,), (3.0,)))
    parts = [gagliardo_energy(u, params, region) for region in (left, right)]
    total = gagliardo_energy(u, params).value
    part_sum = parts[0].value + parts[1].value
    assert part_sum <= total + 1e-12
    # recompute the cross term explicitly: pairs with one node on each side
    pts = np.asarray(u.grid.nodes()).ravel()
    vals = u.values.ravel()
    lm = left.mask(u.grid)
    rm = right.mask(u.grid)
    d = np.abs(pts[lm][:, None] - pts[rm][None, :])
    dv = np.abs(vals[lm][:, None] - vals[rm][None, :])
    cross = 2.0 * u.grid.spacing**2 * float(np.sum(dv**2 / d**1.5))
    assert total - part_sum == pytest.approx(cross, rel=1e-10)


def test_superadditivity_exact():
    u = indicator_1d(0.05)
    params = FractionalParams(s=0.25, p=2.0)
    regions = [Region.from_box(Box((-2.0,), (0.0,))),
               Region.from_box(Box((0.05,), (1.0,))),
               Region.from_box(Box((1.05,), (3.0,)))]
    parts = [gagliardo_energy(u, params, region) for region in regions]
    total = gagliardo_energy(u, params).value
    assert sum(p.value for p in parts) <= total + 1e-12


def test_resolution_convergence_smooth():
    params = FractionalParams(s=0.5, p=2.0)
    coarse = gagliardo_energy(smooth_bump_1d(0.02), params).value
    fine = gagliardo_energy(smooth_bump_1d(0.01), params).value
    assert abs(fine / coarse - 1.0) < 0.05


def test_zero_iff_constant():
    g = make_grid(1, [0.0, 1.0], 0.1)
    u = sample_map(g, lambda x: x, g.box, (0.0,))
    assert gagliardo_energy(u, FractionalParams(s=0.5, p=2.0)).value > 1e-14


def test_workers_bit_stable():
    u = indicator_1d(0.02)
    params = FractionalParams(s=0.25, p=2.0)
    e1 = gagliardo_energy(u, params, workers=1).value
    e2 = gagliardo_energy(u, params, workers=3).value
    assert e1 == e2


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=-2, max_value=2))
def test_scaling_property_random_powers(scale_pow):
    lam = 2.0**scale_pow
    params = FractionalParams(s=0.35, p=1.5)
    u = smooth_bump_1d(0.05)
    base = gagliardo_energy(u, params).value
    scaled = gagliardo_energy(rescale_map(u, Placement((0.0,), lam)), params).value
    assert scaled / base == pytest.approx(lam ** (1 - params.sp), rel=1e-12)


def node_mask(count, nodes):
    """The (count,) boolean mask of the given node indices."""
    return np.isin(np.arange(count), nodes)


def test_energy_plan_matches_gagliardo_energy():
    u = smooth_bump_1d(0.02)
    params = FractionalParams(s=0.35, p=1.5)
    region = Region.from_box(Box((-1.2,), (1.3,)))
    plan = EnergyPlan(u.grid, params, region, workers=2)
    direct = gagliardo_energy(u, params, region)
    assert plan.energy(u).value == pytest.approx(direct.value, rel=1e-12)
    n = u.grid.node_count
    assert plan.energy(u, drop=node_mask(n, [3, 70, 71])).value == pytest.approx(
        gagliardo_energy(u, params, region.without([3, 70, 71])).value, rel=1e-12)
    assert plan.energy(u).scheme.startswith("pair-sum plan kernel_exp=")
    single = EnergyPlan(u.grid, params, region, workers=1)
    assert single.energy(u, drop=node_mask(n, [70])).value == \
        plan.energy(u, drop=node_mask(n, [70])).value


def sampled(name, h):
    return TEST_MAPS[name][1](map_grid(name, h))


def _unit_shifted(u, a):
    d = u.values - np.asarray(a)
    return replace(u, values=d / np.linalg.norm(d, axis=1)[:, None])


BALL = Region.from_ball((0.0, 0.0), 1.0)
FFT_CASES = {
    # map, region, dropped nodes
    "identity2d-ball": (lambda: sampled("identity2d", 0.1), BALL, [0, 60, 61, 200]),
    "shifted-identity2d-box": (lambda: _unit_shifted(sampled("identity2d", 0.05), (0.31, -0.27)),
                               Region.from_box(Box((-0.8, -0.5), (0.9, 1.0))), [1000, 1001]),
    "indicator1d-box": (lambda: sampled("indicator1d", 0.01),
                        Region.from_box(Box((-1.2,), (1.3,))), [5, 200]),
    "bump1d-box": (lambda: sampled("bump1d", 0.01), Region.from_box(Box((-1.2,), (1.3,))), [40]),
}


@pytest.mark.parametrize("case", list(FFT_CASES))
def test_energy_plan_fft_route_matches_pair_sum(case, monkeypatch):
    make, region, drop = FFT_CASES[case]
    u = make()
    params = FractionalParams(s=0.4, p=2.0)
    expected = [gagliardo_energy(u, params, region.without(cut)).value for cut in ([], drop)]

    def no_tiles(*args, **kwargs):
        raise AssertionError("the p = 2 route runs no pair-sum tile")

    monkeypatch.setattr(energy_module, "pair_kernel_sum", no_tiles)
    plan = EnergyPlan(u.grid, params, region)
    assert plan.route.startswith("fft-convolution ")
    masks = [node_mask(u.grid.node_count, cut) for cut in ([], drop)]
    for mask, value in zip(masks, expected):
        assert plan.energy(u, drop=mask).value == pytest.approx(value, rel=1e-12)
    stacked = plan.energies(np.stack([u.values, u.values]), np.stack(masks[::-1]))
    assert [e.value for e in stacked] == [plan.energy(u, drop=masks[1]).value, plan.energy(u).value]


def test_energy_plan_fft_route_constant_and_worker_count():
    u = sampled("identity2d", 0.1)
    params = FractionalParams(s=0.3, p=2.0)
    one = EnergyPlan(u.grid, params, BALL, workers=1)
    three = EnergyPlan(u.grid, params, BALL, workers=3)
    constant = replace(u, values=np.broadcast_to((0.1, -0.7), u.values.shape))
    assert one.energy(constant).value == 0.0
    n = u.grid.node_count
    assert one.energy(constant, drop=node_mask(n, [7])).value == 0.0
    shifted = _unit_shifted(u, (0.2, 0.45))
    assert one.energy(shifted, drop=node_mask(n, [3])).value == \
        three.energy(shifted, drop=node_mask(n, [3])).value


def test_energy_plan_stack_matches_single_calls():
    u = sampled("identity2d", 0.1)
    params = FractionalParams(s=0.4, p=1.5)
    maps = [_unit_shifted(u, a) for a in ((0.1, 0.2), (-0.5, 0.3), (0.05, -0.66))]
    drops = np.stack([node_mask(u.grid.node_count, d) for d in ([], [10, 11], [300])])
    single = [EnergyPlan(u.grid, params, BALL).energy(m, drop=d).value
              for m, d in zip(maps, drops)]
    for workers in (1, 2, 3):
        plan = EnergyPlan(u.grid, params, BALL, workers=workers)
        stacked = plan.energies(np.stack([m.values for m in maps]), drops)
        assert [e.value for e in stacked] == single
    with pytest.raises(GeometryError):
        plan.energies(maps[0].values)
    with pytest.raises(ValueError, match="drop sets"):
        plan.energies(np.stack([m.values for m in maps]), drops[:2])


def test_energy_plan_keeps_no_kernel():
    # the h = 0.04 ball has 1,957 nodes: a stored kernel would take 15.6 MB
    grid = map_grid("identity2d", 0.04)
    params = FractionalParams(s=0.4, p=1.5)
    tracemalloc.start()
    try:
        plan = EnergyPlan(grid, params, BALL, workers=2)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.route.startswith("pair-sum plan ")
    assert held < 1e6


@pytest.mark.parametrize("dim, h", [(1, 0.01), (2, 0.05), (3, 0.25)])
def test_convolution_kernel_unchanged(dim, h):
    # the kernel transform equals the one built from meshgrid offsets, bit for bit
    grid = make_grid(dim, Box.cube(1.0, dim=dim), h)
    conv = energy_module._ConvolutionSum(grid, np.ones(grid.node_count, dtype=bool), 2.7)
    offsets = np.meshgrid(*(np.fft.fftfreq(n, 1.0 / n) for n in conv.pad), indexing="ij")
    r2 = grid.spacing**2 * sum(d * d for d in offsets)
    kern = np.zeros(conv.pad)
    np.power(r2, -0.5 * 2.7, out=kern, where=r2 > 0)
    assert np.array_equal(conv.kernel_hat, np.fft.rfftn(kern))


def test_convolution_setup_peak_memory():
    # the set-up holds about one padded grid and the kernel transform at a time: its peak
    # is under 4 padded real arrays (8.3 when it held the meshgrid offsets and the kernel)
    grid = make_grid(2, Box.cube(1.0, dim=2), 0.005)  # 401^2 nodes, padded to 802^2
    padded = 8 * 4 * grid.node_count
    mask = np.ones(grid.node_count, dtype=bool)
    tracemalloc.start()
    try:
        energy_module._ConvolutionSum(grid, mask, 2.8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * padded


def test_energy_plan_rejects_other_grid():
    params = FractionalParams(s=0.35, p=1.5)
    plan = EnergyPlan(smooth_bump_1d(0.05).grid, params)
    with pytest.raises(GeometryError):
        plan.energy(smooth_bump_1d(0.1))


# ---------------------------------------------------------------------------
# The pair-sum engine against a naive O(N^2) loop
# ---------------------------------------------------------------------------


def naive_pair_sum(points, values, p, q, weights, groups, drop=()):
    """The pair sum by a loop over the points; ``drop`` is a boolean mask (or empty)."""
    n = points.shape[0]
    w = np.broadcast_to(np.asarray(weights, dtype=float), (n,))
    live = ~np.asarray(drop, dtype=bool) if len(drop) else np.ones(n, dtype=bool)
    total = 0.0
    for i in range(n):
        j = np.arange(i + 1, n)
        j = j[live[j]] if live[i] else j[:0]
        if groups is not None and groups[i] >= 0:
            j = j[groups[j] != groups[i]]
        dr = np.linalg.norm(points[j] - points[i], axis=1)
        j, dr = j[dr > 0], dr[dr > 0]
        dv = np.linalg.norm(values[j] - values[i], axis=1)
        total += float(np.sum(w[i] * w[j] * dv**p / dr**q))
    return total


@st.composite
def clouds(draw):
    """Weighted, grouped clouds with coincident points and constant value runs."""
    n = draw(st.integers(min_value=1, max_value=700))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m, nu = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    points = rng.random((n, m))
    for _ in range(draw(st.integers(0, 5))):  # coincident points
        i, j = rng.integers(n, size=2)
        points[i] = points[j]
    if draw(st.booleans()):  # long constant runs, two of them at one value
        cuts = np.sort(rng.integers(0, n + 1, size=3))
        levels = rng.random((2, nu))
        values = np.empty((n, nu))
        for k, (a, b) in enumerate(zip(np.r_[0, cuts], np.r_[cuts, n])):
            values[a:b] = levels[k % 2]
    else:
        values = rng.normal(size=(n, nu))
    weights = draw(st.sampled_from(["one", "scalar", "array"]))
    weights = {"one": 1.0, "scalar": 0.3, "array": rng.random(n) + 0.1}[weights]
    groups = rng.integers(-1, 6, size=n) if draw(st.booleans()) else None
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 2.5, 3.0]))
    q = draw(st.sampled_from([1.3, 2.0, 2.6, 3.0]))
    return points, values, weights, groups, p, q


ENGINE_SETTINGS = settings(max_examples=25, deadline=None, derandomize=True)


@contextlib.contextmanager
def pooled():
    """Every chunk of tiles to the thread pool at workers > 1 (`INLINE_WORK` 0), however small."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairsum, "INLINE_WORK", 0)
        yield


@ENGINE_SETTINGS
@given(clouds(), st.sampled_from([3, 100, TILE_ROWS, DEFAULT_BLOCK]))
@example((np.zeros((1, 1)), np.zeros((1, 1)), 1.0, None, 2.0, 2.0), DEFAULT_BLOCK)
def test_pair_kernel_sum_matches_naive(cloud, block):
    points, values, weights, groups, p, q = cloud
    expected = naive_pair_sum(points, values, p, q, weights, groups)
    with pooled():
        sums = [pair_kernel_sum(points, values, p, q, weights=weights, groups=groups,
                                block=block, workers=w) for w in (1, 2, 3)]
    assert sums[0] == sums[1] == sums[2]
    assert sums[0] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_pair_kernel_sum_many_threads_lose_no_tile(monkeypatch):
    # more threads than cores and a short switch interval: a lost tile changes the sum
    # (every chunk goes to the pool, however small)
    monkeypatch.setattr(_pairsum, "INLINE_WORK", 0)
    rng = np.random.default_rng(5)
    points, values = rng.random((400, 2)), rng.random((400, 2))
    labels = rng.integers(0, 5, size=400)
    expected = pair_kernel_sum(points, values, 1.5, 2.6, block=8)
    expected_classes = class_kernel(points, labels, 2.6, block=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [pair_kernel_sum(points, values, 1.5, 2.6, block=8, workers=8) for _ in range(3)]
        got_classes = [class_kernel(points, labels, 2.6, block=8, workers=8) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 3
    assert all(np.array_equal(k, expected_classes) for k in got_classes)


# ---------------------------------------------------------------------------
# Stacked value sets and the tile walk
# ---------------------------------------------------------------------------


@st.composite
def stacks(draw):
    """A cloud with 1-4 value sets of one shape and one drop mask each.

    Besides the drawn values, a set may be one constant everywhere (every
    tile sums to 0 for it) or the drawn values with one block replaced by a
    constant, so a tile can sum to 0 for one set and not for another.
    """
    points, values, weights, groups, p, q = draw(clouds())
    n = points.shape[0]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    sets = [values]
    for kind in draw(st.lists(st.sampled_from(["const", "patched", "fresh"]), max_size=3)):
        if kind == "const":
            sets.append(np.full_like(values, rng.random()))
        elif kind == "patched":
            patched = values.copy()
            a, b = np.sort(rng.integers(0, n + 1, size=2))
            patched[a:b] = rng.random(values.shape[1])
            sets.append(patched)
        else:
            sets.append(rng.normal(size=values.shape))
    drops = np.stack([node_mask(n, rng.integers(0, n, size=draw(st.integers(0, 4)))) for _ in sets])
    return points, np.stack(sets), weights, groups, p, q, drops


@ENGINE_SETTINGS
@given(stacks(), st.sampled_from([8, 100, DEFAULT_BLOCK]))
@example((np.random.default_rng(1).random((300, 2)),
          np.stack([np.random.default_rng(2).random((300, 1)), np.full((300, 1), 0.5),
                    np.r_[np.zeros((200, 1)), np.random.default_rng(3).random((100, 1))]]),
          1.0, None, 2.5, 2.6, np.stack([node_mask(300, d) for d in ([3, 250], [], [7])])), 8)
def test_stacked_pair_kernel_sum_equals_per_set_calls(stack, block):
    points, values, weights, groups, p, q, drops = stack
    per_set = [pair_kernel_sum(points, vals, p, q, weights=weights, groups=groups, block=block,
                               drop=drop) for vals, drop in zip(values, drops)]
    with pooled():
        for workers in (1, 2, 3):
            stacked = pair_kernel_sum(points, values, p, q, weights=weights, groups=groups,
                                      block=block, workers=workers, drop=drops)
            assert stacked.shape == (values.shape[0],)
            assert stacked.tolist() == per_set
    for vals, drop, got in zip(values, drops, per_set):
        expected = naive_pair_sum(points, vals, p, q, weights, groups, drop)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_stacked_pair_kernel_sum_rejects_mismatched_drops():
    points = np.random.default_rng(0).random((10, 2))
    with pytest.raises(ValueError, match="drop sets"):
        pair_kernel_sum(points, np.zeros((3, 10, 1)), 2.0, 2.0, drop=np.zeros((2, 10), dtype=bool))


def test_walk_maps_tiles_a_chunk_at_a_time(monkeypatch):
    # block 1 over 600 points: 1,720 tiles, more than one chunk; set 1 is constant (sum 0)
    rng = np.random.default_rng(12)
    points, weights = rng.random((600, 2)), rng.random(600) + 0.1
    values = np.stack([rng.normal(size=(600, 2)), np.full((600, 2), 0.3),
                       np.r_[np.zeros((300, 2)), rng.random((300, 2))]])
    drops = np.stack([node_mask(600, d) for d in ([5, 599], [], [0, 130, 131])])
    assert len(list(_tiles(600, 1))) == 1720 > TILE_CHUNK
    mapped = []
    real_map = _pairsum._map_tiles

    def spy(fn, tiles, block, workers):
        mapped.append(len(tiles))
        return real_map(fn, tiles, block, workers)

    monkeypatch.setattr(_pairsum, "_map_tiles", spy)
    per_set = [pair_kernel_sum(points, vals, 2.5, 2.6, weights=weights, block=1, drop=drop)
               for vals, drop in zip(values, drops)]
    for workers in (1, 2, 3):
        stacked = pair_kernel_sum(points, values, 2.5, 2.6, weights=weights, block=1,
                                  workers=workers, drop=drops)
        assert stacked.tolist() == per_set
    assert max(mapped) <= TILE_CHUNK
    assert per_set[1] == 0.0
    for vals, drop, got in zip(values, drops, per_set):
        expected = naive_pair_sum(points, vals, 2.5, 2.6, weights, None, drop)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def tile_threads():
    return [t for t in threading.enumerate() if t.name.startswith("splab-tiles")]


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # a huge worker count runs on the one kept pool, which never holds more threads than
    # there are CPUs, with the same sum
    rng = np.random.default_rng(4)
    points, values = rng.random((700, 2)), rng.normal(size=(700, 1))
    expected = pair_kernel_sum(points, values, 2.5, 2.6, block=16)
    monkeypatch.setattr(_pairsum, "INLINE_WORK", 0)
    pool = _pairsum._pool()
    for _ in range(2):
        assert pair_kernel_sum(points, values, 2.5, 2.6, block=16, workers=100_000) == expected
        assert _pairsum._pool() is pool
        assert len(tile_threads()) <= os.cpu_count()
    if os.cpu_count() > 1:
        assert tile_threads()


def test_small_chunks_run_inline(monkeypatch):
    # a chunk of fewer than INLINE_WORK pair-set evaluations never reaches the pool, at any
    # worker count; one at the floor does
    def no_pool():
        raise AssertionError("a small chunk reached the thread pool")

    rng = np.random.default_rng(6)
    points, values = rng.random((300, 2)), rng.normal(size=(3, 300, 2))
    pairs = sum((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in _tiles(300, DEFAULT_BLOCK))
    expected = pair_kernel_sum(points, values, 1.5, 2.6)
    monkeypatch.setattr(_pairsum, "INLINE_WORK", 3 * pairs + 1)
    monkeypatch.setattr(_pairsum, "_pool", no_pool)
    assert pair_kernel_sum(points, values, 1.5, 2.6, workers=2).tolist() == expected.tolist()
    monkeypatch.setattr(_pairsum, "INLINE_WORK", 3 * pairs)
    if os.cpu_count() > 1:
        with pytest.raises(AssertionError, match="small chunk"):
            pair_kernel_sum(points, values, 1.5, 2.6, workers=2)


@ENGINE_SETTINGS
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([4, 16, DEFAULT_BLOCK]))
def test_one_group_tiles_skipped_exactly(seed, block):
    # long group runs fill whole tiles, which the group mask zeroes (one run at -1 stays
    # live); the sum is the naive one at any worker count
    rng = np.random.default_rng(seed)
    n = int(rng.integers(TILE_ROWS, 3 * TILE_ROWS + 40))
    cuts = np.sort(rng.integers(0, n + 1, size=3))
    groups = np.repeat(np.array([0, -1, 1, 0]), np.diff(np.r_[0, cuts, n]))
    points, values = rng.random((n, 2)), rng.normal(size=(n, 2))
    weights = rng.random(n) + 0.1
    expected = naive_pair_sum(points, values, 2.5, 2.6, weights, groups)
    with pooled():
        got = [pair_kernel_sum(points, values, 2.5, 2.6, weights=weights, groups=groups,
                               block=block, workers=w) for w in (1, 2)]
    assert got[0] == got[1]
    assert got[0] == pytest.approx(expected, rel=1e-12)


# ---------------------------------------------------------------------------
# Class kernels against a naive O(N^2) loop
# ---------------------------------------------------------------------------


def naive_class_kernel(points, labels, q, weights, groups, count):
    n = points.shape[0]
    w = np.broadcast_to(np.asarray(weights, dtype=float), (n,))
    ordered = np.zeros((count, count))
    for i in range(n):
        j = np.arange(i + 1, n)
        if groups is not None and groups[i] >= 0:
            j = j[groups[j] != groups[i]]
        dr = np.linalg.norm(points[j] - points[i], axis=1)
        j, dr = j[dr > 0], dr[dr > 0]
        np.add.at(ordered, (labels[i], labels[j]), w[i] * w[j] / dr**q)
    return ordered + ordered.T - np.diag(ordered.diagonal())


def split_groups(n, split):
    """The groups that leave out the pairs within one side of ``split``: [0]*split + [1]*(n - split)."""
    return None if split is None else np.repeat([0, 1], [split, n - split])


@st.composite
def labelled_clouds(draw):
    """A cloud of `clouds` with 1-6 value classes, the last one held by point 0, and a split:
    none, 0, N, or a point on either side of N/2."""
    points, _, weights, _, p, q = draw(clouds())
    n = points.shape[0]
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(1, 6))
    labels = rng.integers(0, count, size=n)
    labels[0] = count - 1
    split = draw(st.one_of(st.none(), st.sampled_from([0, n]), st.integers(0, n // 2),
                           st.integers(n // 2, n)))
    return points, labels, count, weights, split, p, q


@ENGINE_SETTINGS
@given(labelled_clouds(), st.sampled_from([3, 100, TILE_ROWS, DEFAULT_BLOCK]))
@example((np.random.default_rng(6).random((300, 2)), np.arange(300) % 4, 4, 1.0, 200, 2.5, 2.6), 8)
@example((np.random.default_rng(7).random((300, 2)), np.arange(300) % 3, 3, 0.5, 0, 2.5, 2.6), 8)
@example((np.random.default_rng(7).random((300, 2)), np.arange(300) % 3, 3, 0.5, 300, 2.5, 2.6), 8)
def test_class_kernel_matches_naive(cloud, block):
    points, labels, count, weights, split, _, q = cloud
    expected = naive_class_kernel(points, labels, q, weights, split_groups(points.shape[0], split), count)
    with pooled():
        got = [class_kernel(points, labels, q, weights=weights, split=split, block=block, workers=w)
               for w in (1, 2, 3)]
    assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()
    assert np.array_equal(got[0], got[0].T)
    np.testing.assert_allclose(got[0], expected, rtol=1e-12, atol=0)


@ENGINE_SETTINGS
@given(labelled_clouds(), st.lists(st.integers(0, 5), max_size=2))
def test_class_pair_sum_matches_pair_kernel_sum(cloud, drop):
    # values that are a function of the class; a dropped class drops all its points
    points, labels, count, weights, split, p, q = cloud
    class_values = np.random.default_rng(count).normal(size=(count, 2))
    drop = [c for c in drop if c < count]
    kern = class_kernel(points, labels, q, weights=weights, split=split, block=100, workers=2)
    got = class_pair_sum(kern, class_values, p, drop=np.isin(np.arange(count), drop))
    expected = pair_kernel_sum(points, class_values[labels], p, q, weights=weights,
                               groups=split_groups(points.shape[0], split), drop=np.isin(labels, drop),
                               workers=2)
    assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


@pytest.mark.parametrize("terms", [1, 50, _pairsum.CLASS_TERMS])
def test_stacked_class_pair_sum_equals_single_sets(monkeypatch, terms):
    # each value set of a stack, with its own drop mask, sums as the call on it
    # alone, bit for bit; the small term budgets cut the stack into chunks
    monkeypatch.setattr(_pairsum, "CLASS_TERMS", terms)
    rng = np.random.default_rng(5)
    for count, sets, nu, p in ((1, 3, 2, 2.5), (6, 9, 2, 1.5), (17, 40, 2, 2.8), (5, 4, 1, 2.0)):
        kern = rng.random((count, count))
        kern += kern.T
        values = rng.normal(size=(sets, count, nu))
        drop = rng.random((sets, count)) < 0.3
        got = class_pair_sum(kern, values, p, drop=drop)
        assert got.shape == (sets,)
        assert got.tolist() == [class_pair_sum(kern, v, p, drop=d) for v, d in zip(values, drop)]
        assert class_pair_sum(kern, values, p).tolist() == [class_pair_sum(kern, v, p) for v in values]
    assert class_pair_sum(kern, np.zeros((0, count, nu)), p).shape == (0,)


@ENGINE_SETTINGS
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 5), st.integers(1, 3),
       st.sampled_from([1.0, 1.5, 2.0, 2.5, 2.8]), st.integers(0, 2**32 - 1))
def test_two_set_class_pair_sum_equals_padded_matrix(rows, cols, sets, nu, p, seed):
    # the (Ca, Cb) kernel on V against W sums bit for bit as the symmetric matrix
    # [[0, K], [K^T, 0]] on [V; W]: one fsum per set, and the same nonzero terms
    rng = np.random.default_rng(seed)
    kern = rng.random((rows, cols)) * (rng.random((rows, cols)) < 0.8)
    padded = np.zeros((rows + cols, rows + cols))
    padded[:rows, rows:] = kern
    padded[rows:, :rows] = kern.T
    values, others = rng.normal(size=(sets, rows, nu)), rng.normal(size=(sets, cols, nu))
    got = class_pair_sum(kern, values, p, others=others)
    assert got.shape == (sets,)
    assert got.tobytes() == class_pair_sum(padded, np.concatenate([values, others], axis=1), p).tobytes()
    for v, w, g in zip(values, others, got):
        assert class_pair_sum(kern, v, p, others=w) == g
    with pytest.raises(ValueError, match="drop"):
        class_pair_sum(kern, values, p, drop=np.zeros(rows, dtype=bool), others=others)


@ENGINE_SETTINGS
@given(labelled_clouds(), st.integers(0, 2**32 - 1))
def test_class_kernel_ignores_point_order(cloud, seed):
    # class_kernel sorts each side of the split by label; any order within the sides
    # gives the same matrix
    points, labels, _, weights, split, _, q = cloud
    n = points.shape[0]
    rng = np.random.default_rng(seed)
    cut = n if split is None else split
    perm = np.concatenate([rng.permutation(cut), cut + rng.permutation(n - cut)])
    weights_perm = np.asarray(weights)[perm] if np.ndim(weights) else weights
    expected = class_kernel(points, labels, q, weights=weights, split=split, block=100)
    got = class_kernel(points[perm], labels[perm], q, weights=weights_perm, split=split,
                       block=100, workers=2)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_class_kernel_slabs_stop_at_group_ends(monkeypatch):
    # 25 points against 1,000 on the other side of the split, first or last: the smaller
    # side is the rows, so the tiles hold its 25 rows alone, not TILE_ROWS rows, against
    # the other side's columns
    rng = np.random.default_rng(9)
    labels = rng.integers(0, 3, size=1025)
    points = rng.random((1025, 2))
    tiles = []
    real_map = _pairsum._map_tiles

    def spy(fn, chunk, block, workers):
        tiles.extend(chunk)
        return real_map(fn, chunk, block, workers)

    monkeypatch.setattr(_pairsum, "_map_tiles", spy)
    for split in (25, 1000):
        tiles.clear()
        kern = class_kernel(points, labels, 2.6, split=split, block=DEFAULT_BLOCK, workers=2)
        assert tiles == [(0, 25, b0, min(b0 + DEFAULT_BLOCK, 1025)) for b0 in range(25, 1025, DEFAULT_BLOCK)]
        expected = naive_class_kernel(points, labels, 2.6, 1.0, split_groups(1025, split), 3)
        np.testing.assert_allclose(kern, expected, rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# Lattice displacement counts against class_kernel
# ---------------------------------------------------------------------------


@st.composite
def lattice_pairs(draw):
    """Two labelled random subsets of a 7 x 7 lattice: B the same as A, or its own set
    moved by an integer translation, or also by half a step on each axis."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["same", "moved", "half-step"]))
    nodes = np.stack(np.meshgrid(np.arange(7), np.arange(7), indexing="ij"), axis=-1).reshape(-1, 2)

    def subset(labels):
        index = nodes[rng.choice(nodes.shape[0], size=draw(st.integers(1, 30)), replace=False)]
        return index, rng.integers(0, labels, size=index.shape[0])

    a, la = subset(draw(st.integers(1, 4)))
    b, lb = (a, la) if kind == "same" else subset(draw(st.integers(1, 3)))
    shift = np.zeros(2, dtype=np.int64) if kind == "same" else rng.integers(-9, 10, size=2)
    offset = np.full(2, 0.5) if kind == "half-step" else np.zeros(2)
    return kind, a, la, b, lb, shift, offset, draw(st.floats(2.1, 3.9))


@ENGINE_SETTINGS
@given(lattice_pairs())
def test_lattice_counts_match_class_kernel(case):
    kind, a, la, b, lb, shift, offset, q = case
    h, wa, wb = 0.3, 0.7, 1.9
    pts_a, pts_b = h * a + 0.1, h * (b + shift + offset) + 0.1
    # the indices and the sub-step offset come back from the coordinates
    (ia, off_a), (ib, off_b) = _pairsum.lattice_index(pts_a, h), _pairsum.lattice_index(pts_b, h)
    counts = _pairsum.LatticeCounts(ia, la, ib, lb)
    if kind == "same":  # the half table at one zero offset, as the background pairs of `PatchModel._block(k)`
        got = symmetric(counts.kernels(q, h, np.zeros((1, 2)), weight=wa * wa)[0])
        expected = class_kernel(pts_a, la, q, weights=wa)
    else:
        got = counts.kernels(q, h, [h * (off_b - off_a)], np.zeros(2, dtype=np.int64), wa * wb)[0]
        ca = int(la.max()) + 1
        whole = class_kernel(np.concatenate([pts_a, pts_b]), np.concatenate([la, lb + ca]), q,
                             weights=np.repeat([wa, wb], [a.shape[0], b.shape[0]]), split=a.shape[0])
        expected = whole[:ca, ca:]
    assert got.shape == expected.shape
    assert np.max(np.abs(got - expected), initial=0.0) <= 1e-13 * np.max(np.abs(expected), initial=0.0)


def test_lattice_counts_translate():
    # counts of A and B give the pairs of A and B moved by T, for any T
    rng = np.random.default_rng(3)
    a, b = rng.integers(0, 5, size=(12, 2)), rng.integers(0, 5, size=(9, 2))  # repeats count twice
    la, lb = rng.integers(0, 3, size=12), rng.integers(0, 2, size=9)
    counts = _pairsum.LatticeCounts(a, la, b, lb)
    offset = np.full((1, 2), 0.25)
    for shift in np.array([[7, 0], [-6, 3], [0, 11]]):
        got = counts.kernels(2.5, 0.5, offset, shift)
        moved = _pairsum.LatticeCounts(a, la, b + shift, lb).kernels(2.5, 0.5, offset, [0, 0])
        np.testing.assert_allclose(got, moved, rtol=1e-13, atol=0)


def test_lattice_guards():
    pts = 0.25 * np.array([[0.5, 1.5], [2.5, 0.5], [3.5, 4.5]])
    index, offset = _pairsum.lattice_index(pts, 0.25)
    assert np.array_equal(index * 0.25 + 0.25 * offset, pts)
    # a point off the lattice of the others trips the guard
    with pytest.raises(ValueError, match="off the lattice"):
        _pairsum.lattice_index(pts + [[0.0, 0.0], [1e-6, 0.0], [0.0, 0.0]], 0.25)
    # counts that the correlation does not return as integers trip the count guard
    real = np.fft.irfftn
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.fft, "irfftn", lambda *args, **kwargs: real(*args, **kwargs) + 0.3)
        with pytest.raises(ValueError, match="from an integer"):
            _pairsum.LatticeCounts(index, [0, 1, 1], index, [0, 0, 0])



def test_lattice_counts_offset_stack():
    # an (O, m) stack of offsets gives the matrices of each offset, as one call per offset
    # does, over the whole table at a shift and over the half table without one
    rng = np.random.default_rng(8)
    a, b = rng.integers(0, 6, size=(15, 2)), rng.integers(0, 6, size=(11, 2))
    la, lb = rng.integers(0, 2, size=15), rng.integers(0, 3, size=11)
    counts = _pairsum.LatticeCounts(a, la, b, lb)
    offsets = rng.random((5, 2)) - 0.5
    for shift in ([0, 0], [9, -4], None):
        got = counts.kernels(2.7, 0.4, offsets, shift, 1.3)
        assert got.shape == (5, 2, 3)
        for o, offset in enumerate(offsets):
            np.testing.assert_allclose(got[o], counts.kernels(2.7, 0.4, offset[None], shift, 1.3)[0],
                                       rtol=1e-14, atol=0)
    assert counts.disp.shape[0] == _pairsum.LatticeCounts.entries(a, b)


def test_lattice_counts_build_peak_memory():
    # one label pair at a time: beyond the table, the build holds the spectra of the set of
    # fewer labels and a few padded real arrays (6.9 and 13.1 here, 33 and 41 when every
    # spectrum of B was stacked beside the work arrays of each label of A)
    rng = np.random.default_rng(5)
    a = np.stack(np.meshgrid(np.arange(40), np.arange(40), indexing="ij"), -1).reshape(-1, 2)
    b = a[rng.random(a.shape[0]) < 0.5]
    labels = rng.integers(0, 7, a.shape[0])
    for x, lx, y, ly in ((a, np.zeros(a.shape[0], dtype=np.int64), b, rng.integers(0, 7, b.shape[0])),
                         (a, rng.integers(0, 7, a.shape[0]), b, rng.integers(0, 7, b.shape[0])),
                         (a, labels, a, labels)):  # the last a self-table
        padded = 8 * _pairsum.LatticeCounts.entries(x, y)
        _pairsum.LatticeCounts(x, lx, y, ly)  # first build: the FFT's caches fill
        tracemalloc.start()
        try:
            counts = _pairsum.LatticeCounts(x, lx, y, ly)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = min(counts.rows.size, counts.cols.size)
        assert peak - counts.counts.nbytes - counts.disp.nbytes < (held + 7) * padded


def test_self_table_counts_equal_two_sided_build():
    # a set with itself takes one list of spectra and the label pairs a <= b, and fills the
    # rest from C[-E, b, a] = C[E, a, b]; the same set in another order is built two-sided
    rng = np.random.default_rng(9)
    a = rng.integers(0, 30, size=(400, 2))
    for labels in (np.zeros(400, dtype=np.int64), rng.integers(0, 5, 400), rng.integers(2, 6, 400)):
        order = rng.permutation(400)
        one = _pairsum.LatticeCounts(a, labels, a, labels)
        two = _pairsum.LatticeCounts(a, labels, a[order], labels[order])
        assert np.array_equal(one.counts, two.counts)
        assert np.array_equal(one.disp, two.disp)
        for shift in (None, [0, 0], [5, -3]):
            assert np.array_equal(one.kernels(2.6, 0.2, np.zeros((1, 2)), shift),
                                  two.kernels(2.6, 0.2, np.zeros((1, 2)), shift))


@pytest.mark.parametrize("same", [False, True], ids=["two-sided", "self"])
def test_lattice_kernels_equal_frozen_shared_pass(same):
    # the chunks' per-axis rows and unmasked power against the former shared squared-distance
    # pass with a masked power, bit for bit: half and whole table, a translation, 1 and 25
    # offsets (more than one chunk of rows), and offsets that meet a table entry
    rng = np.random.default_rng(4)
    a = rng.integers(0, 70, size=(600, 2))
    la = rng.integers(0, 4, 600)
    b, lb = (a, la) if same else (rng.integers(0, 50, size=(500, 2)), rng.integers(0, 3, 500))
    counts = _pairsum.LatticeCounts(a, la, b, lb)
    assert counts.disp.shape[0] > _pairsum.LATTICE_ROWS
    many = 0.3 * (rng.random((25, 2)) - 0.5)
    many[7] = [0.0, 0.0]  # coincident with E = 0 of the whole table
    many[11] = [-0.3, 0.6]  # coincident with E = (1, -2)

    def results():
        return [counts.kernels(2.7, 0.3, offsets, shift, 1.3)
                for offsets in (np.zeros((1, 2)), many) for shift in (None, [0, 0], [4, -9])]

    got = results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairsum.LatticeCounts, "_sums", pairsum_reference.lattice_sums_shared)
        frozen = results()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, frozen))


# ---------------------------------------------------------------------------
# The squared-distance pass and the numerator power against frozen forms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("block", [8, DEFAULT_BLOCK])
def test_squared_distances_match_subtract_outer(k, block):
    # every tile of the walk, diagonal and off-diagonal, with and without a split, over
    # points and over the strided columns of one set of a value stack: bit for bit
    rng = np.random.default_rng(k)
    coords = rng.normal(size=(300, k))
    coords[7] = coords[250]  # a coincident pair
    stack = rng.normal(size=(3, 300, k))
    out, tmp = np.empty((2, TILE_ROWS * block))
    for split in (None, 140):
        for a0, a1, b0, b1 in _tiles(300, block, split):
            view = out[:(a1 - a0) * (b1 - b0)].reshape(a1 - a0, b1 - b0)
            work = tmp[:view.size].reshape(view.shape)
            for c in (coords, stack[1]):
                got = _pairsum._squared_distances(c[a0:a1], c[b0:b1], view, work)
                assert got is view
                assert np.array_equal(got, pairsum_reference.squared_distances(c[a0:a1], c[b0:b1]))


@ENGINE_SETTINGS
@given(labelled_clouds(), st.sampled_from([3, 100, DEFAULT_BLOCK]))
def test_class_kernel_equals_frozen_kernel_tile(cloud, block):
    points, labels, _, weights, split, _, q = cloud
    got = class_kernel(points, labels, q, weights=weights, split=split, block=block, workers=2)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairsum._Geometry, "kernel_tile", pairsum_reference.kernel_tile)
        frozen = class_kernel(points, labels, q, weights=weights, split=split, block=block, workers=2)
    assert got.tobytes() == frozen.tobytes()


@ENGINE_SETTINGS
@given(lattice_pairs())
def test_lattice_cross_check_equals_frozen_forms(case):
    # the LatticeCounts sums and the class_kernel they are checked against, both bit for
    # bit as with the frozen difference passes
    kind, a, la, b, lb, shift, offset, q = case
    h = 0.3
    counts = _pairsum.LatticeCounts(a, la, b, lb)
    pts = h * np.concatenate([a, b + shift + offset])
    labels = np.concatenate([la, lb + int(la.max()) + 1])
    offs = 0.25 * np.array([[0, 0], [1, 0], [0, 2]])

    def results():
        return [counts.kernels(q, h, [h * offset], shift, 1.3),
                counts.kernels(q, h, offs),
                counts.kernels(q, h, -offs, shift),
                class_kernel(pts, labels, q, weights=0.7, split=a.shape[0])]

    got = results()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_pairsum.LatticeCounts, "_sums", pairsum_reference.lattice_sums)
        patch.setattr(_pairsum._Geometry, "kernel_tile", pairsum_reference.kernel_tile)
        frozen = results()
    assert all(x.tobytes() == y.tobytes() for x, y in zip(got, frozen))


def ladder_inputs():
    x = np.random.default_rng(23).uniform(0.0, 1e3, 20_000)
    return np.r_[x, 0.0, 5e-324, 1e-300, 1e300]


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.5, 3.0, 3.5])
def test_half_power_ladder_within_four_ulp(p):
    # x^(p/2) of a squared distance
    x = ladder_inputs()
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 overflows to inf either way
        expected = np.power(x, 0.5 * p)
        got = _pairsum._root_power(x.copy(), 0.5 * p, np.empty_like(x))
        same = got == expected  # the zeros and the infinities among them
        assert np.all(same | (np.abs(got - expected) <= 4 * np.spacing(expected)))


@pytest.mark.parametrize("p", [1.6, 2.8, 4.0, 4.5, 0.0])
def test_half_power_other_p_is_np_power(p):
    x = ladder_inputs()
    with np.errstate(over="ignore"):
        got = _pairsum._root_power(x.copy(), 0.5 * p, np.empty_like(x))
        assert got.tobytes() == np.power(x, 0.5 * p).tobytes()


def test_half_power_p2_takes_no_power(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("p = 2 took a power")

    monkeypatch.setattr(np, "power", refuse)
    monkeypatch.setattr(np, "sqrt", refuse)
    x = ladder_inputs()
    before = x.copy()
    assert _pairsum._root_power(x, 1.0, np.empty_like(x)) is x
    assert x.tobytes() == before.tobytes()


@pytest.mark.parametrize("e", [0.25, 0.5, 0.75, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 3.5])
def test_root_power_ladder_within_four_ulp(e):
    # every exponent the roots serve: 4e in 1..7 and 2e in 4..7
    x = ladder_inputs()
    with np.errstate(over="ignore", invalid="ignore"):  # 1e300 overflows to inf either way
        expected = np.power(x, e)
        got = _pairsum._root_power(x.copy(), e, np.empty_like(x))
        same = got == expected  # the zeros and the infinities among them
        assert np.all(same | (np.abs(got - expected) <= 4 * np.spacing(expected)))


@pytest.mark.parametrize("e", [0.8, 1.4, 2.25, 2.75, 3.75, 4.0])
def test_root_power_other_e_is_np_power(e):
    # 4e = 9, 11 and 15 keep np.power, as 4e = 16 and past it do
    x = ladder_inputs()
    with np.errstate(over="ignore"):
        got = _pairsum._root_power(x.copy(), e, np.empty_like(x))
        assert got.tobytes() == np.power(x, e).tobytes()


class UfuncLog(np.ndarray):
    """An array that logs each ufunc call on it as (name, positions of its inputs and of its
    outputs among the logged arrays)."""

    def __array_ufunc__(self, ufunc, method, *inputs, out=(), **kwargs):
        ids = [id(a) for a in self.arrays]
        self.log.append((ufunc.__name__, [ids.index(id(x)) if id(x) in ids else None for x in inputs],
                         [ids.index(id(x)) for x in out]))
        plain = [x.view(np.ndarray) if isinstance(x, UfuncLog) else x for x in inputs]
        if out:
            kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
        result = getattr(ufunc, method)(*plain, **kwargs)
        return out[0] if out else result


def ufunc_sequence(helper, x, exponent):
    """The result of ``helper(x, exponent, tmp)`` and the ufunc calls it made on x and tmp."""
    arrays = [x.copy().view(UfuncLog), np.empty_like(x).view(UfuncLog)]
    log = []
    for a in arrays:
        a.log, a.arrays = log, arrays
    got = helper(arrays[0], exponent, arrays[1])
    return got.view(np.ndarray).copy(), log


@pytest.mark.parametrize("p", [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 1.6, 2.8, 4.0, 4.5])
def test_root_power_equals_frozen_half_power(p):
    # x^(p/2) of a squared distance: the same value bit for bit and, where the old helper
    # took roots, the same ufunc calls in the same order on the same buffers
    x = ladder_inputs()
    with np.errstate(over="ignore"):
        got, calls = ufunc_sequence(_pairsum._root_power, x, 0.5 * p)
        frozen, frozen_calls = ufunc_sequence(pairsum_reference.half_power, x, p)
    assert got.tobytes() == frozen.tobytes()
    if (2 * p).is_integer() and p < 4:
        assert calls == frozen_calls


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 1.6, 2.8, 2.25, 2.75, 4.0])
def test_root_power_equals_frozen_abs_power(p):
    # |t|^p of a cross product, the absolute value taken first: as above
    t = np.r_[-ladder_inputs(), ladder_inputs()]
    with np.errstate(over="ignore"):
        got, calls = ufunc_sequence(_pairsum._root_power, np.abs(t), p)
        frozen, frozen_calls = ufunc_sequence(pairsum_reference.abs_power, t, p)
    assert got.tobytes() == frozen.tobytes()
    if (2 * p).is_integer() and p < 4:
        assert [("absolute", [0], [0])] + calls == frozen_calls


@ENGINE_SETTINGS
@given(stacks(), st.sampled_from([8, DEFAULT_BLOCK]))
def test_numerator_matches_frozen_form(stack, block):
    # bit for bit at p = 2 and any p with 2p not an integer; to the last bits where the
    # power is taken by square roots
    points, values, weights, groups, drawn_p, q, drops = stack
    for p in (drawn_p, 2.8):
        got = pair_kernel_sum(points, values, p, q, weights=weights, groups=groups, block=block,
                              workers=2, drop=drops)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_pairsum, "_numerator_sum", pairsum_reference.numerator_sum)
            frozen = pair_kernel_sum(points, values, p, q, weights=weights, groups=groups,
                                     block=block, workers=2, drop=drops)
        if p in (2.0, 2.8):
            assert got.tobytes() == frozen.tobytes()
        else:
            np.testing.assert_allclose(got, frozen, rtol=1e-14, atol=1e-300)


@pytest.mark.parametrize("workers", [1, 2])
def test_stacked_pair_kernel_sum_copies_no_stack(workers):
    # the 64-set averaging stack on the 1,957-node ball: beyond each thread's tile scratch
    # the call allocates 0.10 MB at workers=1 and 0.18 MB at workers=2 (0.23 MB at
    # workers=1 when the diagonal tiles built np.tril_indices arrays); a transposed or
    # contiguous copy of the stack would add its 2.0 MB
    grid = map_grid("identity2d", 0.04)
    points = grid.nodes()[BALL.mask(grid)]
    shifts = np.random.default_rng(4).uniform(-0.5, 0.5, size=(64, 1, 2))
    stack = points[None] - shifts
    stack /= np.linalg.norm(stack, axis=2, keepdims=True)
    assert stack.shape == (64, 1957, 2)
    pair_kernel_sum(points, stack[:1], 1.5, 2.6, workers=workers)  # the thread pool warmed up
    threads = min(workers, os.cpu_count() or 1)
    scratch = threads * (3 * 8 + 1) * TILE_ROWS * DEFAULT_BLOCK
    tracemalloc.start()
    try:
        pair_kernel_sum(points, stack, 1.5, 2.6, workers=workers)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < scratch + 0.3e6


# ---------------------------------------------------------------------------
# Circle-valued sets by half angles
# ---------------------------------------------------------------------------

CIRCLE_P = [1.0, 1.5, 2.0, 2.5, 2.8, 3.3]


def unit_circle(angles):
    return np.stack([np.cos(angles), np.sin(angles)], axis=-1)


@st.composite
def circle_stacks(draw):
    """A cloud with 1-4 sets of unit 2-vectors and one singular-hit mask each.

    A set's angles straddle theta = +-pi or theta = -pi/2 (where the two
    bisector forms of `to_half_angles` meet, with opposite signs) over arcs
    from 1e-8 to 1 wide, or are uniform with some near-coincident pairs.
    Dropped nodes carry the placeholder e_1, as `sphere.unit_values` leaves
    them.
    """
    n = draw(st.integers(min_value=2, max_value=500))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    m = draw(st.integers(1, 2))
    points = rng.random((n, m))
    sets = []
    for kind in draw(st.lists(st.sampled_from(["pi", "half-pi", "near"]), min_size=1, max_size=4)):
        if kind == "near":
            angles = rng.uniform(-np.pi, np.pi, n)
            i, j = rng.integers(n, size=(2, max(1, n // 10)))
            angles[i] = angles[j] + rng.choice([-1, 1], size=i.size) * 10.0 ** rng.uniform(-12, -6, i.size)
        else:
            center = np.pi if kind == "pi" else -0.5 * np.pi
            angles = center + rng.normal(scale=10.0 ** rng.uniform(-8, 0), size=n)
        sets.append(unit_circle(np.angle(np.exp(1j * angles))))  # wrapped to (-pi, pi]
    values = np.stack(sets)
    drops = np.stack([node_mask(n, rng.integers(0, n, size=draw(st.integers(0, 3)))) for _ in sets])
    values[drops] = (1.0, 0.0)
    weights = rng.random(n) + 0.1 if draw(st.booleans()) else 1.0
    p = draw(st.sampled_from(CIRCLE_P))
    q = draw(st.sampled_from([1.3, 2.0, 2.6, 3.0]))
    return points, values, weights, p, q, drops


@ENGINE_SETTINGS
@given(circle_stacks(), st.sampled_from([8, DEFAULT_BLOCK]))
def test_circle_route_matches_generic_route_and_naive(stack, block):
    points, values, weights, p, q, drops = stack
    halves = values.copy()
    turned = _pairsum.to_half_angles(halves, drops)
    spans = [np.linalg.norm(v[~d] - v[~d][0], axis=1).max() if (~d).any() else 0.0
             for v, d in zip(values, drops)]
    assert turned.tolist() == [span >= _pairsum.CIRCLE_SPAN for span in spans]
    assert halves[~turned].tobytes() == values[~turned].tobytes()
    generic = pair_kernel_sum(points, values, p, q, weights=weights, block=block, drop=drops)
    per_set = [pair_kernel_sum(points, h, p, q, weights=weights, block=block, drop=d, halves=half)
               for h, d, half in zip(halves, drops, turned)]
    with pooled():
        for workers in (1, 2, 3):
            stacked = pair_kernel_sum(points, halves, p, q, weights=weights, block=block,
                                      workers=workers, drop=drops, halves=turned)
            assert stacked.tolist() == per_set
    np.testing.assert_allclose(per_set, generic, rtol=1e-13, atol=1e-300)
    for vals, drop, got in zip(values, drops, per_set):
        expected = naive_pair_sum(points, vals, p, q, weights, None, drop)
        assert got == pytest.approx(expected, rel=1e-13, abs=1e-300)


@st.composite
def half_vector_tiles(draw):
    """(R, 2) rows and (C, 2) columns of unit vectors for one tile: uniform, or each column
    within 1e-16 to 1e-4 of a row's vector, of its opposite or of a right angle to it."""
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    r, c = draw(st.integers(1, TILE_ROWS)), draw(st.integers(1, 2 * DEFAULT_BLOCK))
    rows = rng.uniform(-np.pi, np.pi, r)
    kind = draw(st.sampled_from(["uniform", "parallel", "antiparallel", "perpendicular"]))
    if kind == "uniform":
        cols = rng.uniform(-np.pi, np.pi, c)
    else:
        turn = {"parallel": 0.0, "antiparallel": np.pi, "perpendicular": 0.5 * np.pi}[kind]
        cols = rows[rng.integers(r, size=c)] + turn + rng.choice([-1, 1], c) * 10.0 ** rng.uniform(-16, -4, c)
    return unit_circle(rows), unit_circle(cols)


@ENGINE_SETTINGS
@given(half_vector_tiles())
def test_cross_products_match_two_product_form(tile):
    # one matrix product per tile against r_i0 c_j1 - r_i1 c_j0 by two products and a
    # difference, in the frozen five-pass form: within 2^-52 in absolute terms
    rows, cols = tile
    shape = rows.shape[0], cols.shape[0]
    got = _pairsum._cross_products(rows, cols, np.empty(shape))
    frozen = pairsum_reference.cross_products(rows, cols, np.empty(shape), np.empty(shape))
    explicit = rows[:, 0, None] * cols[:, 1] - rows[:, 1, None] * cols[:, 0]
    assert frozen.tobytes() == explicit.tobytes()
    assert np.max(np.abs(got - explicit)) <= 2.0**-52


@ENGINE_SETTINGS
@given(circle_stacks(), st.sampled_from([1, 2, None]))
def test_half_angles_match_frozen_per_set_form(stack, group_sets):
    # the mask and the turned values bit for bit, whether a group holds one set, two or all
    _, values, _, _, _, drops = stack
    got, frozen = values.copy(), values.copy()
    with pytest.MonkeyPatch.context() as patch:
        if group_sets:
            patch.setattr(_pairsum, "CIRCLE_GROUP", group_sets * values.shape[1])
        turned = _pairsum.to_half_angles(got, drops)
    assert turned.tolist() == pairsum_reference.to_half_angles(frozen, drops).tolist()
    assert got.tobytes() == frozen.tobytes()


def averaging_stack(sets, seed, spacing=0.04):
    """Projected identity maps on the ball under ``sets`` random shifts: the region's nodes,
    the (sets, N, 2) values and the (sets, N) singular-hit mask, as the averaging gathers them."""
    u = sampled("identity2d", spacing)
    mask = BALL.mask(u.grid)
    shifts = np.random.default_rng(seed).uniform(-0.5, 0.5, size=(sets, 2))
    stack = np.empty((sets,) + u.values.shape)
    hits, _ = shifted_unit_values(u, shifts, stack)
    drop = np.zeros((sets, int(mask.sum())), dtype=bool) if hits is None else hits[:, mask]
    drop[0, 5] = drop[-1, [0, 99]] = True  # dropped nodes, as singular hits are
    return u.grid.nodes()[mask], stack[:, mask], drop


def test_half_angles_of_averaging_stacks_match_frozen_per_set_form():
    for seed in (4, 5):
        _, values, hits = averaging_stack(40, seed)
        got, frozen = values.copy(), values.copy()
        turned = _pairsum.to_half_angles(got, hits)
        assert turned.all()
        assert pairsum_reference.to_half_angles(frozen, hits).all()
        assert got.tobytes() == frozen.tobytes()


# column blocks whose (128, 2) @ (2, block) tile products OpenBLAS 0.3.31 with 2 threads ran
# on one thread (512, 2048) and on two (4096): CPU over wall time 1.0 at 2048 and 1.98 at
# 4096 on a 2-core x86-64 machine
BLAS_BLOCKS = [DEFAULT_BLOCK, 2048, 4096]


@pytest.mark.parametrize("block", BLAS_BLOCKS)
def test_half_angle_sums_bit_identical_for_any_worker_count(block):
    points, values, hits = averaging_stack(2, 7, spacing=0.025)
    assert points.shape[0] > TILE_ROWS + block
    turned = _pairsum.to_half_angles(values, hits)
    assert turned.all()
    with pooled():
        sums = [pair_kernel_sum(points, values, 1.5, 2.6, block=block, workers=workers,
                                drop=hits, halves=turned) for workers in (1, 2, 3)]
    assert sums[0].tobytes() == sums[1].tobytes() == sums[2].tobytes()


BLAS_THREADS_SCRIPT = """
import sys
import numpy as np
from splab._pairsum import pair_kernel_sum
data = np.load(sys.argv[1])
for block in map(int, sys.argv[2:]):
    print(pair_kernel_sum(data["points"], data["values"], 2.5, 2.6, block=block, workers=2,
                          drop=data["hits"], halves=data["turned"]).tobytes().hex())
"""


def test_half_angle_sums_bit_identical_for_any_blas_thread_count(tmp_path):
    points, values, hits = averaging_stack(2, 8, spacing=0.025)
    turned = _pairsum.to_half_angles(values, hits)
    assert turned.all()
    np.savez(tmp_path / "stack.npz", points=points, values=values, hits=hits, turned=turned)
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    outputs = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_SCRIPT, str(tmp_path / "stack.npz"),
                               *map(str, BLAS_BLOCKS)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout.split())
    assert outputs[0] == outputs[1]
    assert len(outputs[0]) == len(BLAS_BLOCKS)


@pytest.mark.parametrize("p", CIRCLE_P)
def test_abs_power_matches_np_power(p):
    # |t|^p by at most one square root, to the last bits of np.power
    x = np.r_[-ladder_inputs(), ladder_inputs()]
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.power(np.abs(x), p)
        got = _pairsum._root_power(np.abs(x), p, np.empty_like(x))
        same = got == expected  # the zeros and the infinities among them
        assert np.all(same | (np.abs(got - expected) <= 4 * np.spacing(expected)))


def test_half_angles_of_the_circle():
    # h = +-(cos t/2, sin t/2) to the last bits, around the whole circle and at its joins
    angles = np.r_[np.linspace(-np.pi, np.pi, 1001), 0.5 * np.pi, -0.5 * np.pi, np.pi,
                   np.nextafter(-np.pi, 0.0), 1e-300, -1e-300]
    h = unit_circle(angles)[None].copy()
    assert _pairsum.to_half_angles(h).tolist() == [True]
    half = unit_circle(0.5 * angles)
    cross = half[:, 0] * h[0, :, 1] - half[:, 1] * h[0, :, 0]  # 0 where h = +-half
    assert np.max(np.abs(cross)) < 4e-16
    assert np.max(np.abs(np.einsum("ij,ij->i", h[0], h[0]) - 1.0)) < 4e-16


def test_half_angles_leave_other_sets():
    rng = np.random.default_rng(8)
    units = unit_circle(rng.uniform(-np.pi, np.pi, (3, 50)))
    units[1, 7] *= 1.0 + 1e-9  # one node off the circle
    units[2, 9] = (3.0, 4.0)  # off the circle at a dropped node only
    drop = node_mask(50, [9])[None].repeat(3, axis=0)
    before = units.copy()
    assert _pairsum.to_half_angles(units, drop).tolist() == [True, False, True]
    assert units[1].tobytes() == before[1].tobytes()
    spheres = unit_circle(rng.uniform(-np.pi, np.pi, (2, 50)))[..., [0, 1, 1]] / [1, np.sqrt(2), np.sqrt(2)]
    assert not _pairsum.to_half_angles(spheres.copy()).any()


def spy_halves(monkeypatch):
    """Record the ``halves`` of every `pair_kernel_sum` call of an `EnergyPlan`."""
    seen = []

    def spy(*args, halves=(), **kwargs):
        seen.append(np.asarray(halves).tolist())
        return pair_kernel_sum(*args, halves=halves, **kwargs)

    monkeypatch.setattr(energy_module, "pair_kernel_sum", spy)
    return seen


def test_energy_plan_routes_each_set_on_its_own(monkeypatch):
    u = sampled("identity2d", 0.1)
    params = FractionalParams(s=0.4, p=2.5)
    n = u.grid.node_count
    maps = [_unit_shifted(u, a) for a in ((0.1, 0.2), (-0.5, 0.3), (0.05, -0.66))]
    maps[1] = replace(maps[1], values=maps[1].values * (1.0 + 1e-9))  # 1e-9 off the circle
    drops = np.stack([node_mask(n, d) for d in ([], [10, 11], [300])])
    stack = np.stack([m.values for m in maps])
    seen = spy_halves(monkeypatch)
    single = [EnergyPlan(u.grid, params, BALL).energy(m, drop=d).value for m, d in zip(maps, drops)]
    assert seen == [[True], [False], [True]]
    for workers in (1, 2, 3):
        plan = EnergyPlan(u.grid, params, BALL, workers=workers)
        assert [e.value for e in plan.energies(stack, drops)] == single
        assert seen[-1] == [True, False, True]
    assert stack.tobytes() == np.stack([m.values for m in maps]).tobytes()  # the input is kept
    for m, d, got in zip(maps, drops, single):
        direct = gagliardo_energy(m, params, BALL.without(np.flatnonzero(d)))
        assert got == pytest.approx(direct.value, rel=1e-13)
    rng = np.random.default_rng(9)
    spheres = rng.normal(size=(2, n, 3))
    spheres /= np.linalg.norm(spheres, axis=2, keepdims=True)
    assert len(EnergyPlan(u.grid, params, BALL).energies(spheres)) == 2
    assert seen[-1] == [False, False]


@pytest.mark.parametrize("workers", [1, 2])
def test_energy_plan_circle_stack_copies_one_region_stack(workers, monkeypatch):
    # the plan gathers the 64-set stack over the 1,957-node ball (2.0 MB) and turns it into
    # half angles in place: beyond that copy and each thread's tile scratch it allocates
    # 0.5 MB at most, so a second stack-sized copy (2.0 MB) fails
    u = sampled("identity2d", 0.04)
    params = FractionalParams(s=0.4, p=1.5)
    plan = EnergyPlan(u.grid, params, BALL, workers=workers)
    shifts = np.random.default_rng(4).uniform(-0.5, 0.5, size=(64, 2))
    stack = np.empty((64,) + u.values.shape)
    hits, _ = shifted_unit_values(u, shifts, stack)
    seen = spy_halves(monkeypatch)
    plan.energies(stack[:1], hits[:1])  # the thread pool warmed up
    region = 64 * 1957 * 2 * 8
    threads = min(workers, os.cpu_count() or 1)
    scratch = threads * (3 * 8 + 1) * TILE_ROWS * DEFAULT_BLOCK
    tracemalloc.start()
    try:
        plan.energies(stack, hits)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert seen[-1] == [True] * 64
    assert peak <= region + scratch + 0.5e6
