import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splab import energy as energy_module
from splab._pairsum import (
    DEFAULT_BLOCK,
    TILE_ROWS,
    KernelPlan,
    _one_group_tiles,
    _tiles,
    pair_kernel_sum,
)
from splab.energy import (
    EnergyPlan,
    EnergyValue,
    FractionalParams,
    Region,
    dirichlet_energy,
    gagliardo_energy,
    localized_energy_table,
    pair_tail_bound,
)
from splab.errors import ConfigurationError, GeometryError, NumericalError, WrongSchemeError
from splab.grid import Box, Placement, make_grid, rescale_map, sample_map
from splab.harness import TEST_MAPS

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
    assert p.regime_sp_lt_ell and p.regime_p_ge_ell
    q = FractionalParams(s=0.4, p=1.5)
    assert q.regime_sp_lt_ell and not q.regime_p_ge_ell
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
    u = smooth_bump_1d(0.1)
    with pytest.raises(WrongSchemeError):
        gagliardo_energy(u, FractionalParams(s=1.0, p=2.0))


def test_empty_region_rejected():
    u = smooth_bump_1d(0.1)
    with pytest.raises(ConfigurationError):
        gagliardo_energy(u, FractionalParams(s=0.5, p=2.0), Region.from_ball((99.0,), 0.1))


def test_dirichlet_constant_zero():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.25)
    u = sample_map(g, lambda x: np.ones((x.shape[0], 2)), g.box, (1.0, 1.0))
    assert dirichlet_energy(u, 2.0).value == 0.0


def test_dirichlet_identity_on_disk():
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.01)
    u = sample_map(g, lambda x: x, g.box, (0.0, 0.0))
    e = dirichlet_energy(u, 2.0, Region.from_ball((0.0, 0.0), 1.0))
    assert e.value == pytest.approx(2 * np.pi, rel=0.02)


def test_dirichlet_linear_exact():
    A = np.array([[1.0, 2.0], [0.5, -1.0]])
    g = make_grid(2, [[-1.0, -1.0], [1.0, 1.0]], 0.05)
    u = sample_map(g, lambda x: x @ A.T, g.box, (0.0, 0.0))
    region = Region.from_box(Box((-0.5, -0.5), (0.5, 0.5)))
    nodes_in = int(region.mask(g).sum())
    e = dirichlet_energy(u, 2.0, region)
    # central differences are exact on linear data; the measure is the node count
    assert e.value == pytest.approx(np.sum(A * A) * nodes_in * g.spacing**2, rel=1e-12)


def test_dirichlet_boundary_flagged():
    g = make_grid(1, [0.0, 1.0], 0.1)
    u = sample_map(g, lambda x: x, g.box, (0.0,))
    e = dirichlet_energy(u, 2.0)
    assert "one-sided" in e.scheme


def test_localized_whole_equals_total():
    u = indicator_1d(0.02)
    params = FractionalParams(s=0.25, p=2.0)
    total = gagliardo_energy(u, params).value
    table = localized_energy_table(u, params, [Region.whole()])
    assert table[0].value == total


def test_localized_cross_term_identity():
    u = indicator_1d(0.02)
    params = FractionalParams(s=0.25, p=2.0)
    left = Region.from_box(Box((-2.0,), (0.5,)))
    right = Region.from_box(Box((0.5 + 1e-9,), (3.0,)))
    parts = localized_energy_table(u, params, [left, right])
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


def test_localized_overlap_rejected():
    u = indicator_1d(0.1)
    params = FractionalParams(s=0.25, p=2.0)
    with pytest.raises(GeometryError):
        localized_energy_table(u, params, [Region.whole(), Region.whole()])


def test_superadditivity_exact():
    u = indicator_1d(0.05)
    params = FractionalParams(s=0.25, p=2.0)
    regions = [Region.from_box(Box((-2.0,), (0.0,))),
               Region.from_box(Box((0.05,), (1.0,))),
               Region.from_box(Box((1.05,), (3.0,)))]
    parts = localized_energy_table(u, params, regions)
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


def test_tail_bound_positive_and_decreasing():
    u = indicator_1d(0.05)
    params = FractionalParams(s=0.25, p=2.0)
    b1 = pair_tail_bound(u, params, 1.0)
    b2 = pair_tail_bound(u, params, 2.0)
    assert b1 > b2 > 0


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


def test_energy_plan_matches_gagliardo_energy():
    u = smooth_bump_1d(0.02)
    params = FractionalParams(s=0.35, p=1.5)
    region = Region.from_box(Box((-1.2,), (1.3,)))
    plan = EnergyPlan(u.grid, params, region, workers=2)
    direct = gagliardo_energy(u, params, region)
    assert plan.energy(u).value == pytest.approx(direct.value, rel=1e-12)
    assert plan.energy(u, drop=[3, 70, 71]).value == pytest.approx(
        gagliardo_energy(u, params, region.without([3, 70, 71])).value, rel=1e-12)
    assert plan.energy(u).scheme.startswith("pair-sum plan kernel_exp=")
    single = EnergyPlan(u.grid, params, region, workers=1)
    assert single.energy(u, drop=[70]).value == plan.energy(u, drop=[70]).value


def _unit_shifted(u, a):
    d = u.values - np.asarray(a)
    return u.with_values(d / np.linalg.norm(d, axis=1)[:, None])


BALL = Region.from_ball((0.0, 0.0), 1.0)
FFT_CASES = {
    # map, region, dropped nodes
    "identity2d-ball": (lambda: TEST_MAPS["identity2d"](0.1), BALL, [0, 60, 61, 200]),
    "shifted-identity2d-box": (lambda: _unit_shifted(TEST_MAPS["identity2d"](0.05), (0.31, -0.27)),
                               Region.from_box(Box((-0.8, -0.5), (0.9, 1.0))), [1000, 1001]),
    "indicator1d-box": (lambda: TEST_MAPS["indicator1d"](0.01),
                        Region.from_box(Box((-1.2,), (1.3,))), [5, 200]),
    "bump1d-box": (lambda: TEST_MAPS["bump1d"](0.01), Region.from_box(Box((-1.2,), (1.3,))), [40]),
}


@pytest.mark.parametrize("case", list(FFT_CASES))
def test_energy_plan_fft_route_matches_pair_sum(case, monkeypatch):
    make, region, drop = FFT_CASES[case]
    u = make()
    params = FractionalParams(s=0.4, p=2.0)
    monkeypatch.setattr(energy_module, "KernelPlan", None)  # this route stores no kernel tiles
    plan = EnergyPlan(u.grid, params, region)
    assert plan.route.startswith("fft-convolution ")
    for cut in ([], drop):
        expected = gagliardo_energy(u, params, region.without(cut)).value
        assert plan.energy(u, drop=cut).value == pytest.approx(expected, rel=1e-12)
    stacked = plan.energies(np.stack([u.values, u.values]), [drop, []])
    assert [e.value for e in stacked] == [plan.energy(u, drop=drop).value, plan.energy(u).value]


def test_energy_plan_fft_route_constant_and_worker_count():
    u = TEST_MAPS["identity2d"](0.1)
    params = FractionalParams(s=0.3, p=2.0)
    one = EnergyPlan(u.grid, params, BALL, workers=1)
    three = EnergyPlan(u.grid, params, BALL, workers=3)
    constant = u.with_values(np.broadcast_to((0.1, -0.7), u.values.shape))
    assert one.energy(constant).value == 0.0
    assert one.energy(constant, drop=[7]).value == 0.0
    shifted = _unit_shifted(u, (0.2, 0.45))
    assert one.energy(shifted, drop=[3]).value == three.energy(shifted, drop=[3]).value


def test_energy_plan_stack_matches_single_calls():
    u = TEST_MAPS["identity2d"](0.1)
    params = FractionalParams(s=0.4, p=1.5)
    plan = EnergyPlan(u.grid, params, BALL, workers=2)
    maps = [_unit_shifted(u, a) for a in ((0.1, 0.2), (-0.5, 0.3), (0.05, -0.66))]
    drops = [[], [10, 11], [300]]
    stacked = plan.energies(np.stack([m.values for m in maps]), drops)
    assert [e.value for e in stacked] == [plan.energy(m, drop=d).value for m, d in zip(maps, drops)]
    with pytest.raises(GeometryError):
        plan.energies(maps[0].values)
    with pytest.raises(ValueError, match="drop sets"):
        plan.energies(np.stack([m.values for m in maps]), drops[:2])


def test_energy_plan_rejects_other_grid():
    params = FractionalParams(s=0.35, p=1.5)
    plan = EnergyPlan(smooth_bump_1d(0.05).grid, params)
    with pytest.raises(GeometryError):
        plan.energy(smooth_bump_1d(0.1))


# ---------------------------------------------------------------------------
# The pair-sum engine against a naive O(N^2) loop
# ---------------------------------------------------------------------------


def naive_pair_sum(points, values, p, q, weights, groups, drop=()):
    n = points.shape[0]
    w = np.broadcast_to(np.asarray(weights, dtype=float), (n,))
    live = np.ones(n, dtype=bool)
    live[list(drop)] = False
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


@ENGINE_SETTINGS
@given(clouds(), st.lists(st.integers(0, 699), max_size=4))
def test_kernel_plan_matches_naive(cloud, drop):
    points, values, weights, groups, p, q = cloud
    drop = [i for i in drop if i < points.shape[0]]
    plan = KernelPlan(points, q, weights=weights, groups=groups, workers=2)
    for vals in (values, values[::-1].copy()):
        expected = naive_pair_sum(points, vals, p, q, weights, groups, drop)
        sums = [plan.sum(vals, p, workers=w, drop=drop) for w in (1, 2, 3)]
        assert sums[0] == sums[1] == sums[2]
        assert sums[0] == pytest.approx(expected, rel=1e-12, abs=1e-300)
    rebuilt = KernelPlan(points, q, weights=weights, groups=groups, workers=3)
    assert rebuilt.sum(values, p, workers=1) == plan.sum(values, p, workers=3)


def test_pair_kernel_sum_many_threads_lose_no_tile():
    # more threads than cores and a short switch interval: a lost tile changes the sum
    rng = np.random.default_rng(5)
    points, values = rng.random((400, 2)), rng.random((400, 2))
    expected = pair_kernel_sum(points, values, 1.5, 2.6, block=8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = [pair_kernel_sum(points, values, 1.5, 2.6, block=8, workers=8) for _ in range(3)]
    finally:
        sys.setswitchinterval(interval)
    assert got == [expected] * 3


# ---------------------------------------------------------------------------
# Stacked value sets and the one-group tile skip
# ---------------------------------------------------------------------------


@st.composite
def stacks(draw):
    """A cloud with 1-4 value sets of one shape and one drop set each.

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
    drops = [rng.integers(0, n, size=draw(st.integers(0, 4))) for _ in sets]
    return points, np.stack(sets), weights, groups, p, q, drops


@ENGINE_SETTINGS
@given(stacks(), st.sampled_from([8, 100, DEFAULT_BLOCK]))
@example((np.random.default_rng(1).random((300, 2)),
          np.stack([np.random.default_rng(2).random((300, 1)), np.full((300, 1), 0.5),
                    np.r_[np.zeros((200, 1)), np.random.default_rng(3).random((100, 1))]]),
          1.0, None, 2.5, 2.6, [np.array([3, 250]), np.array([], dtype=int), np.array([7])]), 8)
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
        pair_kernel_sum(points, np.zeros((3, 10, 1)), 2.0, 2.0, drop=[[1], [2]])


@ENGINE_SETTINGS
@given(stacks())
def test_stacked_kernel_plan_sum_equals_per_set_calls(stack):
    points, values, weights, groups, p, q, drops = stack
    plan = KernelPlan(points, q, weights=weights, groups=groups, workers=2)
    per_set = [plan.sum(vals, p, drop=drop) for vals, drop in zip(values, drops)]
    for workers in (1, 2, 3):
        stacked = plan.sum(values, p, workers=workers, drop=drops)
        assert stacked.shape == (values.shape[0],)
        assert stacked.tolist() == per_set
    for vals, drop, got in zip(values, drops, per_set):
        expected = naive_pair_sum(points, vals, p, q, weights, groups, drop)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)


def test_stacked_kernel_plan_sum_rejects_mismatched_drops():
    plan = KernelPlan(np.random.default_rng(0).random((10, 2)), 2.0)
    with pytest.raises(ValueError, match="drop sets"):
        plan.sum(np.zeros((3, 10, 1)), 2.0, drop=[[1], [2]])


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
    tiles = _tiles(n, block)
    skipped = _one_group_tiles(groups, tiles)
    for i in np.flatnonzero(skipped):  # a skipped tile holds no cross-group pair
        a0, a1, b0, b1 = tiles[i]
        assert set(groups[a0:a1]) == set(groups[b0:b1]) == {groups[a0]} and groups[a0] >= 0
    expected = naive_pair_sum(points, values, 2.5, 2.6, weights, groups)
    got = [pair_kernel_sum(points, values, 2.5, 2.6, weights=weights, groups=groups,
                           block=block, workers=w) for w in (1, 2)]
    assert got[0] == got[1]
    assert got[0] == pytest.approx(expected, rel=1e-12)
    if block == DEFAULT_BLOCK:
        plan = KernelPlan(points, 2.6, weights=weights, groups=groups)
        assert plan.sum(values, 2.5) == pytest.approx(expected, rel=1e-12)


def test_one_group_tiles_are_found():
    # 600 points in one group: the tiles inside it are skipped, the one meeting -1 is not
    groups = np.r_[np.zeros(600, dtype=np.int64), -np.ones(40, dtype=np.int64)]
    tiles = _tiles(640, 128)
    skipped = _one_group_tiles(groups, tiles)
    assert [tiles[i] for i in np.flatnonzero(skipped)] == [
        t for t in tiles if t[1] <= 600 and t[3] <= 600
    ]
    assert skipped.sum() == 10
