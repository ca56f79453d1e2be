"""Numerical Sobolev energies.

The double-sum quadrature of the fractional seminorm (to the p-th power)
for 0 < s < 1, localized to regions.  The raw double integral carries no
dimensional normalization constant; every downstream assertion is a ratio
or a slope, so the choice is immaterial.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from decimal import Decimal

import numpy as np
from numpy.typing import NDArray

from ._pairsum import _drop_masks, _fft_size, pair_kernel_sum, to_half_angles
from .errors import BudgetError, ConfigurationError, GeometryError, NumericalError, WrongSchemeError
from .grid import Box, Grid, SampledMap

DEFAULT_NODE_BUDGET = 4_000_000  # points of one cloud, nodes of one FFT-route grid or shifts of one averaging run
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
    """WrongSchemeError unless the pair-sum quadrature applies (0 < s < 1); ConfigurationError where 2^p overflows."""
    if params.s >= 1:
        raise WrongSchemeError(f"the pair-sum quadrature needs 0 < s < 1, got s = {params.s}")
    if params.p >= 1024:
        raise ConfigurationError(f"the pair sum's factor 2^p overflows a float at p = {params.p}; need p < 1024")


def fit_log2_slope(ns, values) -> float:
    """Least-squares slope of log2(values) against n (0 for fewer than two points)."""
    if len(ns) < 2:
        return 0.0
    return float(np.polyfit(np.asarray(ns, dtype=float), np.log2(np.asarray(values, dtype=float)), 1)[0])


def _count(n: int, digits: int = 3) -> str:
    """An integer to ``digits`` significant digits (its float overflows past 1e308)."""
    return format(Decimal(n), f".{digits}g")


def _over(count: int, budget: int) -> tuple[str, str]:
    """A count and its budget, to 3 significant digits or to the first precision that tells them apart."""
    digits = 3
    while _count(count, digits) == _count(budget, digits) and digits < len(str(max(count, budget))):
        digits += 1
    return _count(count, digits), _count(budget, digits)


def check_budget(count: int, budget: int, what: str, after: str = "") -> None:
    """BudgetError unless ``count`` <= ``budget``: ``what`` (count at its {}) "> budget B``after``", by `_over`."""
    if count > budget:
        shown, limit = _over(count, budget)
        raise BudgetError(f"{what.format(shown)} > budget {limit}{after}")


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
        check_budget(n, DEFAULT_NODE_BUDGET, "grid of {} nodes")
    else:
        check_budget(n * (n - 1) // 2, PAIR_BUDGET, f"grid of {_count(n)} nodes sums {{}} pairs")


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
    """Pair sums at p = 2 over a masked lattice by Parseval over zero-padded forward FFTs.

    With K(d) = |h d|^-q on node offsets d, K(0) = 0, and the mask m of a
    value set (the region without its dropped nodes), the pair sum of u is
    sum m |v|^2 (K * m) - sum_k (m v_k) . (K * (m v_k)), where v = u - mean
    of u over the mask leaves it unchanged and keeps both terms small.
    Each axis is padded to `_fft_size(2n - 1)`, so the circular
    convolution is the linear one, and a . (K * b) is
    sum W Re(conj(F a) F b) over the half spectra F of `rfftn`: W is K's
    transform (real: K is even) times the number of frequencies +-xi each
    entry stands for, over the padded size.
    """

    def __init__(self, grid: Grid, mask: NDArray, q: float):
        self.shape = grid.shape
        self.mask = mask
        self.pad = tuple(_fft_size(2 * n - 1) for n in self.shape)
        # h^2 |d|^2 from the 1D squares, raised to -q/2 in place (0 stays 0), then rfftn's passes (complex ones in place)
        squares = [d * d for d in (np.fft.fftfreq(n, 1.0 / n) for n in self.pad)]
        r2 = functools.reduce(np.add.outer, squares)
        r2 *= grid.spacing**2
        np.power(r2, -0.5 * q, out=r2, where=r2 > 0)
        spec = np.fft.rfft(r2)
        del r2
        for axis in range(grid.dim - 2, -1, -1):
            np.fft.fft(spec, axis=axis, out=spec)
        j = np.arange(spec.shape[-1])  # entry j stands for xi and -xi, but at j = 0 and pad/2
        self.weights = spec.real * np.where((j > 0) & (2 * j < self.pad[-1]), 2.0, 1.0) / math.prod(self.pad)

    def _spectrum(self, field: NDArray) -> NDArray:
        return np.fft.rfftn(field.reshape(self.shape), s=self.pad, axes=range(len(self.pad)))

    def _pair(self, a: NDArray, b: NDArray | None = None) -> float:
        """sum W Re(conj(a) b) (b = a if None), summed pairwise: a . (K * b) of the fields of a and b."""
        b = a if b is None else b
        return float(np.sum(self.weights * (a.real * b.real + a.imag * b.imag)))

    def sums(self, stack: NDArray, hits: NDArray | None) -> NDArray:
        """Pair sums of an (S, node_count, nu) stack; set i leaves out the nodes hits[i] marks."""
        out = np.empty(stack.shape[0])
        for i, vals in enumerate(stack):
            mask = self.mask if hits is None else self.mask & ~hits[i]
            nodes = np.flatnonzero(mask)
            v = vals[nodes] - vals[nodes[0]]  # exactly zero for a constant set
            v -= v.mean(axis=0)
            field = np.zeros(mask.size)
            field[nodes] = np.einsum("ij,ij->i", v, v)
            # one field's spectrum at a time, none kept past its term
            out[i] = self._pair(self._spectrum(mask.astype(float)), self._spectrum(field))
            for k in range(v.shape[1]):
                field[nodes] = v[:, k]
                out[i] -= self._pair(self._spectrum(field))
        return out


class EnergyPlan:
    """``gagliardo_energy`` of many maps on one grid region, geometry built once.

    The route depends on p alone.  At p = 2 the pair sum is a convolution,
    evaluated exactly by Parseval over zero-padded forward FFTs
    (``_ConvolutionSum``).  Otherwise ``energies`` hands its whole value
    stack to one `pair_kernel_sum` call over the region's nodes, which
    computes each kernel tile once for the stack and keeps none.  Each set
    of unit 2-vectors (a projection onto the circle, singular hits aside)
    goes in as half angles (`to_half_angles`, on the gathered copy), so its
    numerator is one cross product per pair; every other set takes the
    generic one.  A set's sum is the same alone or stacked.  Results equal
    ``gagliardo_energy`` to rounding and are bit-identical for any worker
    count.
    """

    def __init__(self, grid: Grid, params: FractionalParams, region: Region | None = None,
                 *, workers: int = 1):
        self.grid = grid
        self.params = params
        self.workers = workers
        self._nodes, q = _pair_setup(grid, params, region)
        if _convolves(params):
            self.route = f"fft-convolution kernel_exp={q!r}"
            self._fft = _ConvolutionSum(grid, np.isin(np.arange(grid.node_count), self._nodes), q)
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
            # one contiguous gathered copy (stack[:, nodes] comes out strided, and the pair
            # sum would copy it again), whose circle-valued sets turn into half angles in place
            region = np.take(stack, self._nodes, axis=1)
            drop = None if hits is None else np.take(hits, self._nodes, axis=1)
            halves = to_half_angles(region, drop)
            sums = pair_kernel_sum(self._points, region, self.params.p, self._q,
                                   workers=self.workers, drop=() if drop is None else drop,
                                   halves=halves)
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
