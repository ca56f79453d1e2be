import os
import sys
import tracemalloc
from concurrent.futures import Future
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
    _one_group_tiles,
    _slab_tiles,
    class_kernel,
    class_pair_sum,
    pair_kernel_sum,
)
from splab.energy import (
    EnergyPlan,
    EnergyValue,
    FractionalParams,
    Region,
    gagliardo_energy,
)
from splab.errors import ConfigurationError, GeometryError, NumericalError, WrongSchemeError
from splab.grid import Box, Placement, make_grid, rescale_map, sample_map
from splab.harness import TEST_MAPS, map_grid

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


@ENGINE_SETTINGS
@given(clouds(), st.sampled_from([3, 100, TILE_ROWS, DEFAULT_BLOCK]))
@example((np.zeros((1, 1)), np.zeros((1, 1)), 1.0, None, 2.0, 2.0), DEFAULT_BLOCK)
def test_pair_kernel_sum_matches_naive(cloud, block):
    points, values, weights, groups, p, q = cloud
    expected = naive_pair_sum(points, values, p, q, weights, groups)
    sums = [pair_kernel_sum(points, values, p, q, weights=weights, groups=groups,
                            block=block, workers=w) for w in (1, 2, 3)]
    assert sums[0] == sums[1] == sums[2]
    assert sums[0] == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_pair_kernel_sum_many_threads_lose_no_tile():
    # more threads than cores and a short switch interval: a lost tile changes the sum
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
# Stacked value sets and the one-group tile skip
# ---------------------------------------------------------------------------


@st.composite
def stacks(draw):
    """A cloud with 1-4 value sets of one shape and one drop mask each.

    Besides the drawn values, a set may be one constant everywhere (every
    tile dead for it) or the drawn values with one block replaced by a
    constant, so a tile can be dead for one set and live for another.
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
    # block 1 over 600 points: 1,720 tiles, more than one chunk; set 1 is constant (all dead)
    rng = np.random.default_rng(12)
    points, weights = rng.random((600, 2)), rng.random(600) + 0.1
    values = np.stack([rng.normal(size=(600, 2)), np.full((600, 2), 0.3),
                       np.r_[np.zeros((300, 2)), rng.random((300, 2))]])
    drops = np.stack([node_mask(600, d) for d in ([5, 599], [], [0, 130, 131])])
    assert len(all_tiles(600, 1)) == 1720 > TILE_CHUNK
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


def test_worker_count_capped_at_cpu_count(monkeypatch):
    # a huge worker count starts no more threads than there are CPUs, with the same sum
    sizes = []

    class InlinePool:
        """A ThreadPoolExecutor stand-in that records its size and runs each task at once."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn):
            future = Future()
            future.set_result(fn())
            return future

    rng = np.random.default_rng(4)
    points, values = rng.random((700, 2)), rng.normal(size=(700, 1))
    expected = pair_kernel_sum(points, values, 2.5, 2.6, block=16)
    monkeypatch.setattr(_pairsum, "ThreadPoolExecutor", InlinePool)
    got = pair_kernel_sum(points, values, 2.5, 2.6, block=16, workers=100_000)
    assert got == expected
    assert max(sizes, default=1) <= os.cpu_count()


def all_tiles(n, block):
    return [tile for a0 in range(0, n, TILE_ROWS) for tile in _slab_tiles(a0, n, block)]


@ENGINE_SETTINGS
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([4, 16, DEFAULT_BLOCK]))
def test_one_group_tiles_skipped_exactly(seed, block):
    # long group runs fill whole tiles (one run at -1 stays live); the sum is the naive one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(TILE_ROWS, 3 * TILE_ROWS + 40))
    cuts = np.sort(rng.integers(0, n + 1, size=3))
    groups = np.repeat(np.array([0, -1, 1, 0]), np.diff(np.r_[0, cuts, n]))
    points, values = rng.random((n, 2)), rng.normal(size=(n, 2))
    weights = rng.random(n) + 0.1
    tiles = all_tiles(n, block)
    skipped = _one_group_tiles(groups, tiles)
    for i in np.flatnonzero(skipped):  # a skipped tile holds no cross-group pair
        a0, a1, b0, b1 = tiles[i]
        assert set(groups[a0:a1]) == set(groups[b0:b1]) == {groups[a0]} and groups[a0] >= 0
    expected = naive_pair_sum(points, values, 2.5, 2.6, weights, groups)
    got = [pair_kernel_sum(points, values, 2.5, 2.6, weights=weights, groups=groups,
                           block=block, workers=w) for w in (1, 2)]
    assert got[0] == got[1]
    assert got[0] == pytest.approx(expected, rel=1e-12)


def test_one_group_tiles_are_found():
    # 600 points in one group: the tiles inside it are skipped, the one meeting -1 is not
    groups = np.r_[np.zeros(600, dtype=np.int64), -np.ones(40, dtype=np.int64)]
    tiles = all_tiles(640, 128)
    skipped = _one_group_tiles(groups, tiles)
    assert [tiles[i] for i in np.flatnonzero(skipped)] == [
        t for t in tiles if t[1] <= 600 and t[3] <= 600
    ]
    assert skipped.sum() == 10


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


@st.composite
def labelled_clouds(draw):
    """A cloud of `clouds` with 1-6 value classes, the last one held by point 0."""
    points, _, weights, groups, p, q = draw(clouds())
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    count = draw(st.integers(1, 6))
    labels = rng.integers(0, count, size=points.shape[0])
    labels[0] = count - 1
    return points, labels, count, weights, groups, p, q


@ENGINE_SETTINGS
@given(labelled_clouds(), st.sampled_from([3, 100, TILE_ROWS, DEFAULT_BLOCK]))
@example((np.random.default_rng(6).random((300, 2)), np.arange(300) % 4, 4, 1.0,
          np.full(300, -1), 2.5, 2.6), 8)  # tiles inside one run of group -1 stay live
def test_class_kernel_matches_naive(cloud, block):
    points, labels, count, weights, groups, _, q = cloud
    expected = naive_class_kernel(points, labels, q, weights, groups, count)
    got = [class_kernel(points, labels, q, weights=weights, groups=groups, block=block, workers=w)
           for w in (1, 2, 3)]
    assert got[0].tobytes() == got[1].tobytes() == got[2].tobytes()
    assert np.array_equal(got[0], got[0].T)
    np.testing.assert_allclose(got[0], expected, rtol=1e-12, atol=0)


@ENGINE_SETTINGS
@given(labelled_clouds(), st.lists(st.integers(0, 5), max_size=2))
def test_class_pair_sum_matches_pair_kernel_sum(cloud, drop):
    # values that are a function of the class; a dropped class drops all its points
    points, labels, count, weights, groups, p, q = cloud
    class_values = np.random.default_rng(count).normal(size=(count, 2))
    drop = [c for c in drop if c < count]
    kern = class_kernel(points, labels, q, weights=weights, groups=groups, block=100, workers=2)
    got = class_pair_sum(kern, class_values, p, drop=np.isin(np.arange(count), drop))
    expected = pair_kernel_sum(points, class_values[labels], p, q, weights=weights, groups=groups,
                               drop=np.isin(labels, drop), workers=2)
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
@given(labelled_clouds(), st.integers(0, 2**32 - 1))
def test_class_kernel_ignores_point_order(cloud, seed):
    # class_kernel sorts the points by (group, label); any input order gives the same matrix
    points, labels, _, weights, groups, _, q = cloud
    perm = np.random.default_rng(seed).permutation(points.shape[0])
    weights_perm = np.asarray(weights)[perm] if np.ndim(weights) else weights
    groups_perm = None if groups is None else groups[perm]
    expected = class_kernel(points, labels, q, weights=weights, groups=groups, block=100)
    got = class_kernel(points[perm], labels[perm], q, weights=weights_perm, groups=groups_perm,
                       block=100, workers=2)
    np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0)


def test_class_kernel_keeps_groups_in_runs(monkeypatch):
    # labels shared across groups 0 and -1: sorting by label alone would interleave the groups
    rng = np.random.default_rng(8)
    groups = np.r_[np.zeros(600, dtype=np.int64), -np.ones(40, dtype=np.int64)]
    labels = rng.integers(0, 4, size=640)
    points = rng.random((640, 2))
    live = []
    real_map = _pairsum._map_tiles

    def spy(fn, tiles, block, workers):
        live.extend(tiles)
        return real_map(fn, tiles, block, workers)

    monkeypatch.setattr(_pairsum, "_map_tiles", spy)
    kern = class_kernel(points, labels, 2.6, groups=groups, block=128)
    # the 40 points of group -1 come first: only the first row slab's 5 tiles are live
    assert len(live) == 5
    expected = naive_class_kernel(points, labels, 2.6, 1.0, groups, 4)
    np.testing.assert_allclose(kern, expected, rtol=1e-12, atol=0)
