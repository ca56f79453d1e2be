"""Uniform grids over boxes in R^m and the algebra of sampled maps.

All types are immutable after construction; every operation is a pure
function, so concurrent use is safe.  Node ordering is C order (last axis
fastest), matching ``np.meshgrid(..., indexing="ij")`` raveled.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.typing import NDArray

from .errors import ConfigurationError, ConsistencyError, EvaluationError

_SNAP_REL_TOL = 1e-9


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its two corners (lo <= hi per axis)."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ConfigurationError("box corners have mismatched dimensions")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ConfigurationError(f"degenerate box: lo={self.lo} hi={self.hi}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple[float, ...]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def contains_points(self, points: NDArray) -> NDArray:
        lo = np.asarray(self.lo)
        hi = np.asarray(self.hi)
        return np.all((points >= lo) & (points <= hi), axis=-1)

    def contains_box(self, other: "Box", tol: float = 1e-12) -> bool:
        return all(ol >= l - tol for ol, l in zip(other.lo, self.lo)) and all(
            oh <= h + tol for oh, h in zip(other.hi, self.hi)
        )

    def transformed(self, translate: Sequence[float], scale: float) -> "Box":
        t = np.asarray(translate, dtype=float)
        lo = np.asarray(self.lo) * scale + t
        hi = np.asarray(self.hi) * scale + t
        return Box(tuple(lo), tuple(hi))

    @staticmethod
    def cube(halfwidth: float, center: Sequence[float] | None = None, dim: int = 2) -> "Box":
        c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
        return Box(tuple(c - halfwidth), tuple(c + halfwidth))


def _normalize_box(box, dim: int) -> Box:
    """Accept Box, ((lo...), (hi...)), or 1D [lo, hi]."""
    if isinstance(box, Box):
        if box.dim != dim:
            raise ConfigurationError(f"box dimension {box.dim} != {dim}")
        return box
    arr = np.asarray(box, dtype=float)
    if dim == 1 and arr.shape == (2,):
        return Box((float(arr[0]),), (float(arr[1]),))
    if arr.shape == (2, dim):
        return Box(tuple(arr[0]), tuple(arr[1]))
    raise ConfigurationError(f"cannot interpret box of shape {arr.shape} in dimension {dim}")


@dataclass(frozen=True)
class Grid:
    """Uniform lattice over a box: nodes at corner + i*h along every axis."""

    dim: int
    box: Box
    spacing: float
    shape: tuple[int, ...] = field(init=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ConfigurationError(f"grid dimension must be >= 1, got {self.dim}")
        if self.spacing <= 0:
            raise ConfigurationError(f"spacing must be positive, got {self.spacing}")
        shape = []
        for side in self.box.sides:
            ratio = float(side) / self.spacing  # a float: inf, not a warning, on overflow
            if not math.isfinite(ratio):
                raise ConfigurationError(f"box side {side} over spacing {self.spacing} overflows")
            snapped = round(ratio)
            if snapped < 1 or abs(ratio - snapped) > _SNAP_REL_TOL * max(1.0, abs(ratio)):
                raise ConfigurationError(
                    f"box side {side} is not an integer multiple of spacing {self.spacing}"
                )
            shape.append(int(snapped) + 1)
        object.__setattr__(self, "shape", tuple(shape))

    @property
    def node_count(self) -> int:
        return math.prod(self.shape)  # exact: np.prod wraps past 2^63

    def axis_coords(self, axis: int) -> NDArray:
        n = self.shape[axis]
        return self.box.lo[axis] + self.spacing * np.arange(n)

    @cached_property
    def _node_array(self) -> NDArray:
        mesh = np.meshgrid(*(self.axis_coords(i) for i in range(self.dim)), indexing="ij")
        pts = np.column_stack([m.ravel() for m in mesh])
        pts.setflags(write=False)
        return pts

    def nodes(self) -> NDArray:
        """All node coordinates as an (N, dim) array, C order. Cached."""
        return self._node_array

    def transformed(self, translate: Sequence[float], scale: float) -> "Grid":
        return Grid(self.dim, self.box.transformed(translate, scale), self.spacing * scale)


@dataclass(frozen=True)
class Placement:
    """Affine placement x -> scale * x + translate of a map's domain."""

    translate: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self):
        if self.scale <= 0:
            raise ConfigurationError(f"placement scale must be positive, got {self.scale}")
        object.__setattr__(self, "translate", tuple(float(t) for t in self.translate))


@dataclass(frozen=True)
class SampledMap:
    """Values in R^nu attached to the nodes of a grid.

    Outside ``support`` the map equals ``constant`` exactly; this is
    verified at construction.
    """

    grid: Grid
    values: NDArray
    nu: int
    support: Box
    constant: tuple[float, ...]

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float))
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (self.grid.node_count, self.nu):
            raise ConfigurationError(
                f"values shape {vals.shape} != ({self.grid.node_count}, {self.nu})"
            )
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "constant", tuple(float(c) for c in self.constant))
        if len(self.constant) != self.nu:
            raise ConfigurationError("constant dimension mismatch")
        if not self.grid.box.contains_box(self.support):
            raise ConfigurationError("support box is not contained in the grid box")
        outside = ~self.support.contains_points(self.grid.nodes())
        if np.any(outside):
            const = np.asarray(self.constant)
            if not np.array_equal(vals[outside], np.broadcast_to(const, (int(outside.sum()), self.nu))):
                raise ConsistencyError("values outside the support differ from the declared constant")


def make_grid(dim: int, box, spacing: float) -> Grid:
    """Build a uniform grid, snapping box sides to multiples of spacing.

    Sides must be divisible by the spacing within 1e-9 relative tolerance;
    they are then snapped exactly.
    """
    if dim < 1:
        raise ConfigurationError(f"grid dimension must be >= 1, got {dim}")
    loose = Grid(dim, _normalize_box(box, dim), spacing)
    hi = tuple(lo + (n - 1) * spacing for lo, n in zip(loose.box.lo, loose.shape))
    return Grid(dim, Box(loose.box.lo, hi), spacing)


def sample_map(
    grid: Grid,
    f: Callable[[NDArray], NDArray],
    support,
    constant,
) -> SampledMap:
    """Sample a vectorized pointwise function on the grid nodes.

    ``f`` receives an (N, dim) array and must return (N, nu) values.
    Inside the support the samples are f(node); outside they are set to
    the constant exactly.
    """
    sup = _normalize_box(support, grid.dim)
    pts = grid.nodes()
    vals = np.array(f(pts), dtype=float)
    if vals.ndim == 1:
        vals = vals[:, None]
    if vals.shape[0] != pts.shape[0]:
        raise EvaluationError(f"function returned {vals.shape[0]} values for {pts.shape[0]} nodes")
    bad = ~np.isfinite(vals).all(axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EvaluationError(f"non-finite value at node {i} (x={pts[i]})")
    const = np.atleast_1d(np.asarray(constant, dtype=float))
    outside = ~sup.contains_points(pts)
    vals[outside] = const
    return SampledMap(grid, vals, vals.shape[1], sup, tuple(const))


def rescale_map(u: SampledMap, placement: Placement) -> SampledMap:
    """Transform the grid with the map: v(x) = u((x - t) / scale).

    Values are copied bit for bit; no re-interpolation happens, so
    applying (scale, t) then (1/scale, -t/scale) is a bit-exact inverse.
    """
    grid = u.grid.transformed(placement.translate, placement.scale)
    support = u.support.transformed(placement.translate, placement.scale)
    return SampledMap(grid, u.values, u.nu, support, u.constant)
