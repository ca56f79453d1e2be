"""Numerical Sobolev energies.

The double-sum quadrature of the fractional seminorm (to the p-th power)
for 0 < s < 1, localized to regions.  The raw double integral carries no
dimensional normalization constant; every downstream assertion is a ratio
or a slope, so the choice is immaterial.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from numpy.typing import NDArray

from ._pairsum import _drop_masks, pair_kernel_sum
from .errors import BudgetError, ConfigurationError, GeometryError, NumericalError, WrongSchemeError
from .grid import Box, Grid, SampledMap

DEFAULT_NODE_BUDGET = 4_000_000  # points of one cloud or nodes of one FFT-route grid
PAIR_BUDGET = 2_000_000_000  # point pairs of one direct quadrature


@dataclass(frozen=True)
class FractionalParams:
    """Smoothness s in (0, 1], integrability p >= 1, target parameter ell >= 2."""

    s: float
    p: float
    ell: int = 2

    def __post_init__(self):
        if not 0 < self.s <= 1:
            raise ConfigurationError(f"s must lie in (0, 1], got {self.s}")
        if self.p < 1:
            raise ConfigurationError(f"p must be >= 1, got {self.p}")
        if self.ell < 2:
            raise ConfigurationError(f"ell must be >= 2, got {self.ell}")

    @property
    def sp(self) -> float:
        return self.s * self.p


@dataclass(frozen=True)
class Region:
    """Node-selection predicate: a box, a ball, or the whole grid.

    ``excluded`` holds node indices removed from the region (used to drop
    singular hits from quadrature).
    """

    kind: str = "all"
    box: Box | None = None
    center: tuple[float, ...] | None = None
    radius: float | None = None
    excluded: tuple[int, ...] = ()

    @staticmethod
    def whole() -> "Region":
        return Region(kind="all")

    @staticmethod
    def from_box(box: Box) -> "Region":
        return Region(kind="box", box=box)

    @staticmethod
    def from_ball(center, radius: float) -> "Region":
        return Region(kind="ball", center=tuple(float(c) for c in center), radius=float(radius))

    def mask(self, grid: Grid) -> NDArray:
        pts = grid.nodes()
        if self.kind == "all":
            m = np.ones(pts.shape[0], dtype=bool)
        elif self.kind == "box":
            m = self.box.contains_points(pts)
        elif self.kind == "ball":
            d = pts - np.asarray(self.center)
            m = np.einsum("ij,ij->i", d, d) <= self.radius**2
        else:
            raise ConfigurationError(f"unknown region kind {self.kind!r}")
        if self.excluded:
            m = m.copy()
            m[list(self.excluded)] = False
        return m

    def without(self, indices) -> "Region":
        return Region(self.kind, self.box, self.center, self.radius,
                      tuple(sorted(set(self.excluded) | set(int(i) for i in indices))))


@dataclass(frozen=True)
class EnergyValue:
    """A nonnegative energy (p-th power seminorm) with its quadrature metadata."""

    value: float
    scheme: str
    spacing: float

    def __post_init__(self):
        if not np.isfinite(self.value) or self.value < -0.0:
            raise NumericalError(f"energy value must be finite and >= 0, got {self.value}")


def check_pair_sum(params: FractionalParams) -> None:
    """WrongSchemeError unless the pair-sum quadrature applies: 0 < s < 1."""
    if params.s >= 1:
        raise WrongSchemeError(f"the pair-sum quadrature needs 0 < s < 1, got s = {params.s}")


def _count(n: int) -> str:
    """An integer to 3 significant digits (its float overflows past 1e308)."""
    return format(Decimal(n), ".3g")


def _convolves(params: FractionalParams) -> bool:
    """Whether an `EnergyPlan` takes the FFT route: at p = 2 alone."""
    return params.p == 2.0


def check_grid_budget(grid: Grid, params: FractionalParams, planned: bool = False) -> None:
    """BudgetError unless a direct quadrature on ``grid`` fits, counted before any array exists.

    An `EnergyPlan` (``planned``) at p = 2 convolves fields of N nodes:
    N <= DEFAULT_NODE_BUDGET.  Every other route sums N(N - 1)/2 pairs: at
    most PAIR_BUDGET.
    """
    n = grid.node_count
    if planned and _convolves(params):
        if n > DEFAULT_NODE_BUDGET:
            raise BudgetError(f"grid of {_count(n)} nodes > budget {_count(DEFAULT_NODE_BUDGET)}")
    elif n * (n - 1) // 2 > PAIR_BUDGET:
        raise BudgetError(f"grid of {_count(n)} nodes sums {_count(n * (n - 1) // 2)} pairs > "
                          f"budget {_count(PAIR_BUDGET)}")


def _pair_setup(grid: Grid, params: FractionalParams, region: Region | None):
    """(node indices of the region, kernel exponent m + sp) of a pair-sum energy."""
    check_pair_sum(params)
    mask = (region or Region.whole()).mask(grid)
    if not mask.any():
        raise ConfigurationError("empty region")
    return np.flatnonzero(mask), grid.dim + params.sp


def _pair_energy(pair_sum: float, grid: Grid, route: str) -> EnergyValue:
    # factor 2 restores the ordered double sum from the unordered pair sum
    h = grid.spacing
    return EnergyValue(value=h ** (2 * grid.dim) * 2.0 * pair_sum,
                       scheme=f"{route} h={h!r}", spacing=h)


def gagliardo_energy(
    u: SampledMap,
    params: FractionalParams,
    region: Region | None = None,
    *,
    workers: int = 1,
) -> EnergyValue:
    """Double-sum quadrature of the fractional seminorm to the p-th power.

    Returns h^(2m) * sum over ordered node pairs x != y in the region of
    |u(x)-u(y)|^p / |x-y|^(m+sp), the diagonal excluded.  Deterministic
    for fixed inputs at any worker count.
    """
    nodes, q = _pair_setup(u.grid, params, region)
    s = pair_kernel_sum(u.grid.nodes()[nodes], u.values[nodes], params.p, q, workers=workers)
    return _pair_energy(s, u.grid, f"pair-sum kernel_exp={q!r}")


class _ConvolutionSum:
    """Pair sums at p = 2 over a masked lattice by zero-padded FFT convolution.

    With the kernel K(d) = |h d|^-q on node offsets d, K(0) = 0, and the
    region mask m, the pair sum of a value set u is

        sum_{x < y} m(x) m(y) K(x - y) |u(x) - u(y)|^2
            = sum_x m |v|^2 (K * m) - sum_k (m v_k) . (K * (m v_k)),

    where v = u - mean of u over the mask leaves the sum unchanged and
    keeps the two terms small.  Each axis is padded to twice its node
    count, so the circular convolution equals the linear one on the grid;
    the kernel's transform is computed once.
    """

    def __init__(self, grid: Grid, mask: NDArray, q: float):
        self.shape = grid.shape
        self.pad = tuple(2 * n for n in self.shape)
        self.axes = tuple(range(-grid.dim, 0))
        offsets = np.meshgrid(*(np.fft.fftfreq(n, 1.0 / n) for n in self.pad), indexing="ij")
        r2 = grid.spacing**2 * sum(d * d for d in offsets)
        kern = np.zeros(self.pad)
        np.power(r2, -0.5 * q, out=kern, where=r2 > 0)
        self.kernel_hat = np.fft.rfftn(kern)
        self.mask = mask
        self.k_mask = self._convolve(mask.astype(float))

    def _convolve(self, f: NDArray) -> NDArray:
        """K * f on the grid for (..., node_count) arrays f."""
        spec = np.fft.rfftn(f.reshape(f.shape[:-1] + self.shape), s=self.pad, axes=self.axes)
        spec *= self.kernel_hat
        conv = np.fft.irfftn(spec, s=self.pad, axes=self.axes)
        return conv[(...,) + tuple(slice(0, n) for n in self.shape)].reshape(f.shape)

    def sums(self, stack: NDArray, hits: NDArray | None) -> NDArray:
        """Pair sums of an (S, node_count, nu) stack; set i leaves out the nodes hits[i] marks."""
        out = np.empty(stack.shape[0])
        for i, vals in enumerate(stack):
            mask, k_mask = self.mask, self.k_mask
            if hits is not None and hits[i].any():
                mask = self.mask & ~hits[i]
                k_mask = self._convolve(mask.astype(float))
            nodes = np.flatnonzero(mask)
            v = vals[nodes] - vals[nodes[0]]  # exactly zero for a constant set
            v -= v.mean(axis=0)
            field = np.zeros((vals.shape[1], mask.size))
            field[:, nodes] = v.T
            out[i] = np.sum(v * v * k_mask[nodes, None]) - np.sum(field * self._convolve(field))
        return out


class EnergyPlan:
    """``gagliardo_energy`` of many maps on one grid region, geometry built once.

    The route depends on p alone.  At p = 2 the pair sum is a convolution,
    evaluated exactly by zero-padded FFT (``_ConvolutionSum``).  Otherwise
    ``energies`` hands its whole value stack to one `pair_kernel_sum` call
    over the region's nodes, which computes each kernel tile once for the
    stack and keeps none.  Results equal ``gagliardo_energy`` to rounding
    and are bit-identical for any worker count.
    """

    def __init__(self, grid: Grid, params: FractionalParams, region: Region | None = None,
                 *, workers: int = 1):
        self.grid = grid
        self.params = params
        self.workers = workers
        self._nodes, q = _pair_setup(grid, params, region)
        if _convolves(params):
            self.route = f"fft-convolution kernel_exp={q!r}"
            mask = np.zeros(grid.node_count, dtype=bool)
            mask[self._nodes] = True
            self._fft = _ConvolutionSum(grid, mask, q)
        else:
            self.route = f"pair-sum plan kernel_exp={q!r}"
            self._fft = None
            self._points = grid.nodes()[self._nodes]
            self._q = q

    def energies(self, values: NDArray, drops=()) -> list[EnergyValue]:
        """Energies of an (S, node_count, nu) stack of node values on the plan's grid.

        ``drops`` is an (S, node_count) boolean mask of grid nodes (or empty
        for none); value set k's energy equals ``gagliardo_energy`` over the
        region without the nodes that ``drops[k]`` marks, up to rounding.
        """
        stack = np.asarray(values, dtype=float)
        if stack.ndim != 3 or stack.shape[1] != self.grid.node_count:
            raise GeometryError(f"expected (S, {self.grid.node_count}, nu) values, "
                                f"got shape {stack.shape}")
        hits = _drop_masks(drops, stack.shape[0], self.grid.node_count)
        if self._fft is not None:
            sums = self._fft.sums(stack, hits)
        else:
            sums = pair_kernel_sum(self._points, stack[:, self._nodes], self.params.p, self._q,
                                   workers=self.workers,
                                   drop=() if hits is None else hits[:, self._nodes])
        return [_pair_energy(float(s), self.grid, self.route) for s in sums]

    def energy(self, u: SampledMap, drop=()) -> EnergyValue:
        """Energy of ``u`` over the region without the nodes that the mask ``drop`` marks.

        ``drop`` is a (node_count,) boolean mask (or empty for none).  Equals
        ``gagliardo_energy(u, params, region.without(np.flatnonzero(drop)))``
        up to rounding.
        """
        if u.grid != self.grid:
            raise GeometryError("map grid differs from the plan's grid")
        return self.energies(u.values[None], drop)[0]


def cloud_energy(
    points: NDArray,
    values: NDArray,
    weights: NDArray,
    groups: NDArray,
    params: FractionalParams,
    m: int,
    *,
    workers: int = 1,
) -> float:
    """Cross-pair part of a composite quadrature cloud.

    Group ids >= 0 mark congruent fine blocks whose internal pairs are
    accounted for exactly elsewhere; pairs within one such group are
    excluded from the cross sum.  No production path calls it: it is the
    whole-cloud reference of `tests/patch_reference.py` and a target of
    the perfbench tracer.
    """
    q = m + params.sp
    return 2.0 * pair_kernel_sum(points, values, params.p, q, weights=weights, groups=groups,
                                 workers=workers)
