"""Numerical Sobolev energies.

Two schemes: the double-sum quadrature of the fractional seminorm (to the
p-th power) for 0 < s < 1, and a central-difference first-order energy
for s = 1.  Both localize to regions.  The raw double integral carries no
dimensional normalization constant; every downstream assertion is a ratio
or a slope, so the choice is immaterial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._pairsum import KernelPlan, _drop_sets, pair_kernel_sum
from .errors import ConfigurationError, GeometryError, NumericalError, WrongSchemeError
from .grid import Box, Grid, SampledMap


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

    @property
    def regime_sp_lt_ell(self) -> bool:
        return self.sp < self.ell

    @property
    def regime_p_ge_ell(self) -> bool:
        return self.p >= self.ell


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
    def from_box(box: Box, excluded=()) -> "Region":
        return Region(kind="box", box=box, excluded=tuple(excluded))

    @staticmethod
    def from_ball(center, radius: float, excluded=()) -> "Region":
        return Region(kind="ball", center=tuple(float(c) for c in center),
                      radius=float(radius), excluded=tuple(excluded))

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


def _pair_setup(grid: Grid, params: FractionalParams, region: Region | None):
    """(node indices of the region, kernel exponent m + sp) of a pair-sum energy."""
    if params.s >= 1:
        raise WrongSchemeError("s = 1 requires dirichlet_energy, not the pair sum")
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

    def sums(self, stack: NDArray, drops: list) -> NDArray:
        """Pair sums of an (S, node_count, nu) stack, each without its ``drops`` nodes."""
        out = np.empty(stack.shape[0])
        for i, (vals, drop) in enumerate(zip(stack, drops)):
            mask, k_mask = self.mask, self.k_mask
            if len(drop):
                mask = mask.copy()
                mask[np.asarray(drop, dtype=np.int64)] = False
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
    the kernel tiles of the region's node pairs are computed at
    construction and kept (8 B per pair), and each value set costs only
    the numerator.  ``energies`` takes a stack of value sets in one call.
    Results equal ``gagliardo_energy`` to rounding and are bit-identical
    for any worker count.
    """

    def __init__(self, grid: Grid, params: FractionalParams, region: Region | None = None,
                 *, workers: int = 1):
        self.grid = grid
        self.params = params
        self.workers = workers
        self._nodes, q = _pair_setup(grid, params, region)
        if params.p == 2.0:
            self.route = f"fft-convolution kernel_exp={q!r}"
            mask = np.zeros(grid.node_count, dtype=bool)
            mask[self._nodes] = True
            self._fft = _ConvolutionSum(grid, mask, q)
        else:
            self.route = f"pair-sum plan kernel_exp={q!r}"
            self._fft = None
            self._position = np.full(grid.node_count, -1, dtype=np.int64)
            self._position[self._nodes] = np.arange(self._nodes.size)
            self._plan = KernelPlan(grid.nodes()[self._nodes], q, workers=workers)

    def energies(self, values: NDArray, drops=()) -> list[EnergyValue]:
        """Energies of an (S, node_count, nu) stack of node values on the plan's grid.

        ``drops`` holds one set of grid nodes per value set (or is empty for
        none); value set k's energy equals ``gagliardo_energy`` over the
        region without the nodes in ``drops[k]``, up to rounding.
        """
        stack = np.asarray(values, dtype=float)
        if stack.ndim != 3 or stack.shape[1] != self.grid.node_count:
            raise GeometryError(f"expected (S, {self.grid.node_count}, nu) values, "
                                f"got shape {stack.shape}")
        drops = _drop_sets(stack.shape[0], drops)
        if self._fft is not None:
            sums = self._fft.sums(stack, drops)
        else:
            pos = [self._position[np.asarray(d, dtype=np.int64)] for d in drops]
            sums = self._plan.sum(stack[:, self._nodes], self.params.p, self.workers,
                                  drop=[c[c >= 0] for c in pos])
        return [_pair_energy(float(s), self.grid, self.route) for s in sums]

    def energy(self, u: SampledMap, drop=()) -> EnergyValue:
        """Energy of ``u`` over the region without the grid nodes in ``drop``.

        Equals ``gagliardo_energy(u, params, region.without(drop))`` up to
        rounding.
        """
        if u.grid != self.grid:
            raise GeometryError("map grid differs from the plan's grid")
        return self.energies(u.values[None], [drop])[0]


def dirichlet_energy(
    u: SampledMap,
    p: float,
    region: Region | None = None,
) -> EnergyValue:
    """First-order energy: node quadrature of |Du|^p, central differences.

    |Du| is the Frobenius norm of the finite-difference Jacobian.  Nodes on
    the grid boundary use one-sided differences; this is flagged in the
    scheme descriptor.
    """
    region = region or Region.whole()
    mask = region.mask(u.grid)
    if not mask.any():
        raise ConfigurationError("empty region")
    grid = u.grid
    h = grid.spacing
    shape = grid.shape
    vals = u.values.reshape(shape + (u.nu,))
    frob2 = np.zeros(shape)
    boundary = np.zeros(shape, dtype=bool)
    for axis in range(grid.dim):
        idx = [slice(None)] * grid.dim
        idx[axis] = slice(0, 1)
        boundary[tuple(idx)] = True
        idx[axis] = slice(-1, None)
        boundary[tuple(idx)] = True
    one_sided = bool(np.any(boundary.ravel() & mask))
    for axis in range(grid.dim):
        d = np.empty_like(vals)
        fwd = [slice(None)] * grid.dim
        bwd = [slice(None)] * grid.dim
        ctr = [slice(None)] * grid.dim
        fwd[axis] = slice(2, None)
        bwd[axis] = slice(0, -2)
        ctr[axis] = slice(1, -1)
        d[tuple(ctr)] = (vals[tuple(fwd)] - vals[tuple(bwd)]) / (2 * h)
        lo = [slice(None)] * grid.dim
        lo_n = [slice(None)] * grid.dim
        lo[axis] = slice(0, 1)
        lo_n[axis] = slice(1, 2)
        d[tuple(lo)] = (vals[tuple(lo_n)] - vals[tuple(lo)]) / h
        hi = [slice(None)] * grid.dim
        hi_p = [slice(None)] * grid.dim
        hi[axis] = slice(-1, None)
        hi_p[axis] = slice(-2, -1)
        d[tuple(hi)] = (vals[tuple(hi)] - vals[tuple(hi_p)]) / h
        frob2 += np.sum(d * d, axis=-1)
    integrand = np.power(frob2.ravel()[mask], 0.5 * p)
    value = float(h**grid.dim * np.sum(integrand))
    flag = " one-sided-at-boundary" if one_sided else ""
    return EnergyValue(value=value, scheme=f"central-diff h={h!r} p={p!r}{flag}", spacing=h)


def localized_energy_table(
    u: SampledMap,
    params: FractionalParams,
    regions: list[Region],
    *,
    workers: int = 1,
) -> list[EnergyValue]:
    """Per-region energies for pairwise disjoint regions.

    Pair terms crossing two regions are dropped from the per-region
    values, so the table sums to at most the energy over the union.
    """
    masks = [r.mask(u.grid) for r in regions]
    for i in range(len(masks)):
        for j in range(i):
            if np.any(masks[i] & masks[j]):
                raise GeometryError(f"regions {j} and {i} overlap")
    return [gagliardo_energy(u, params, r, workers=workers) for r in regions]


def pair_tail_bound(u: SampledMap, params: FractionalParams, cutoff: float) -> float:
    """Analytic bound on the pair-sum mass beyond a cutoff radius.

    For a bounded map with oscillation osc over a support of measure V in
    dimension m, the pairs with |x-y| > R contribute at most
    osc^p * V * sigma_m * R^(-sp) / sp where sigma_m is the unit-sphere area.
    """
    m = u.grid.dim
    osc = float(np.max(np.linalg.norm(u.values - np.asarray(u.constant), axis=1)))
    vol = float(np.prod(u.support.sides)) if u.support.sides else 0.0
    sigma = 2 * np.pi ** (m / 2) / math.gamma(m / 2) if m > 1 else 2.0
    return (2 * osc) ** params.p * vol * sigma * cutoff ** (-params.sp) / params.sp


@dataclass(frozen=True)
class WeightedCloud:
    """Composite quadrature cloud: points, values, per-node weights, group ids.

    Group ids >= 0 mark congruent fine blocks whose internal pairs are
    accounted for exactly elsewhere; pairs within one such group are
    excluded from the cross sum.
    """

    points: NDArray
    values: NDArray
    weights: NDArray
    groups: NDArray

    def __post_init__(self):
        for name in ("points", "values", "weights", "groups"):
            arr = getattr(self, name)
            arr.setflags(write=False)

    @staticmethod
    def concat(parts: list["WeightedCloud"]) -> "WeightedCloud":
        return WeightedCloud(
            np.ascontiguousarray(np.concatenate([p.points for p in parts])),
            np.ascontiguousarray(np.concatenate([p.values for p in parts])),
            np.ascontiguousarray(np.concatenate([p.weights for p in parts])),
            np.ascontiguousarray(np.concatenate([p.groups for p in parts])),
        )


def cloud_energy(
    cloud: WeightedCloud,
    params: FractionalParams,
    m: int,
    *,
    workers: int = 1,
) -> float:
    """Cross-pair part of the composite quadrature (same-group pairs excluded)."""
    q = m + params.sp
    return 2.0 * pair_kernel_sum(
        cloud.points, cloud.values, params.p, q,
        weights=cloud.weights, groups=cloud.groups, workers=workers,
    )
