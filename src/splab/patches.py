"""Two-value patches, clustered patches, and dyadic layers (ell = 2).

The basic building block takes the two values c +/- 2^(1-n) e1 on two
plateau balls inside a fixed frame.  A clustered patch packs k^2 scaled
copies into the central block so the total energy stays uniform in n; the
full patch adds a collar that brings the value down to 0, making the
support compact.  Layers glue one patch per dyadic cube of the unit cube.

Energies of clustered constructions are evaluated by a composite
quadrature: pairs inside one cell reduce, by the exact discrete scaling
identity, to a single frame computation shared by all cells; cross pairs
run over a multi-resolution weighted cloud.  Compositional accounting
assembles closed-form bounds from constants measured at small n.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from ._pairsum import cell_lattice_sum, pair_kernel_sum
from .chords import COS_CONE_BOUND, chords_vectorized
from .energy import FractionalParams, Region, WeightedCloud, cloud_energy
from .errors import BudgetError, ConfigurationError, GeometryError, ResolutionError
from .grid import Box, Grid, Placement, SampledMap, glue_disjoint, make_grid, sample_map
from .sphere import SINGULAR_EXCLUSION_RADIUS

# Frame geometry shared by every patch (frame coordinates).
FRAME_HALFWIDTH = 2.0      # two-bump frame box
PLATEAU_RADIUS = 0.5       # each bump is 1 on this ball
BUMP_RADIUS = 1.0          # and supported on this ball
BLOCK_HALFWIDTH = 0.25     # cluster cells tile this central block
PLATEAU_STOP = 0.6         # collar starts here (sup-norm radius)
SUPPORT_HALFWIDTH = 0.95   # collar ends here; support inside the unit cube
PATCH_MARGIN = 1.25        # energy frame box half-width around one patch

DEFAULT_NODE_BUDGET = 4_000_000


def smoothstep5(t: NDArray) -> NDArray:
    """Quintic smoothstep, C^2 at both junctions."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def radial_cutoff(points: NDArray) -> NDArray:
    """Smooth bump: 1 on the ball of radius 1/2, 0 outside the unit ball."""
    r = np.linalg.norm(np.atleast_2d(points), axis=-1)
    return 1.0 - smoothstep5((r - PLATEAU_RADIUS) / (BUMP_RADIUS - PLATEAU_RADIUS))


def two_bump_profile(points: NDArray) -> NDArray:
    """Scalar profile on the frame: +1 near e1, -1 near -e1, 0 far away."""
    pts = np.atleast_2d(points)
    e1 = np.zeros(pts.shape[1])
    e1[0] = 1.0
    return radial_cutoff(pts - e1) - radial_cutoff(pts + e1)


@dataclass(frozen=True)
class PatchSpec:
    """Data of one clustered patch: center value c, scale index n, cluster k."""

    c: tuple[float, ...]
    n: int
    params: FractionalParams
    k: int = 0  # 0 means the default ceil(2^((n-1)/s))
    axis: int = 0

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        if self.n < 1:
            raise ConfigurationError(f"scale index must be >= 1, got {self.n}")
        if self.k == 0:
            object.__setattr__(self, "k", default_cluster_count(self.n, self.params.s))
        if self.k < 1:
            raise ConfigurationError(f"cluster count must be >= 1, got {self.k}")
        if max(abs(v) for v in self.c) > 1.0 + 1e-12:
            raise ConfigurationError(f"patch center must lie in the unit cube, got {self.c}")

    @property
    def amplitude(self) -> float:
        return 2.0 ** (1 - self.n)

    @property
    def ell(self) -> int:
        return len(self.c)

    @property
    def displaced_values_in_ball(self) -> bool:
        """Whether both displaced values stay in the closed unit ball."""
        c = np.asarray(self.c)
        e = np.zeros(self.ell)
        e[self.axis] = self.amplitude
        return bool(np.linalg.norm(c + e) <= 1.0 and np.linalg.norm(c - e) <= 1.0)


def default_cluster_count(n: int, s: float) -> int:
    """Smallest k with k^(sp) >= 2^((n-1)p): k = ceil(2^((n-1)/s))."""
    return int(math.ceil(2.0 ** ((n - 1) / s)))


def cluster_cell_centers(k: int, ell: int = 2) -> NDArray:
    """Centers of the k^ell cells tiling the central block."""
    width = 2 * BLOCK_HALFWIDTH / k
    coords = -BLOCK_HALFWIDTH + width * (np.arange(k) + 0.5)
    mesh = np.meshgrid(*([coords] * ell), indexing="ij")
    return np.column_stack([m.ravel() for m in mesh])


def cluster_scale(k: int) -> float:
    """Frame-to-cell scale: the frame box maps onto one cell box."""
    return (BLOCK_HALFWIDTH / k) / FRAME_HALFWIDTH


def _check_cluster_geometry(k: int, ell: int) -> None:
    # cells tile a block whose corners must stay inside the radius-1/2 ball
    corner = BLOCK_HALFWIDTH * math.sqrt(ell)
    if corner >= 0.5:
        raise GeometryError(f"cluster block corner radius {corner} exceeds the host ball")
    if k**ell > 10**8:
        raise GeometryError(f"cluster count {k}^{ell} is unreasonably large")


def clustered_profile(points: NDArray, k: int) -> NDArray:
    """Scalar cluster profile: scaled two-bump copies on the k^ell cells."""
    pts = np.atleast_2d(points)
    out = np.zeros(pts.shape[0])
    width = 2 * BLOCK_HALFWIDTH / k
    inside = np.all(np.abs(pts) < BLOCK_HALFWIDTH, axis=1)
    if not inside.any():
        return out
    local = pts[inside]
    idx = np.floor((local + BLOCK_HALFWIDTH) / width).astype(int)
    np.clip(idx, 0, k - 1, out=idx)
    centers = -BLOCK_HALFWIDTH + width * (idx + 0.5)
    xi = (local - centers) / cluster_scale(k)
    out[inside] = two_bump_profile(xi)
    return out


def collar_factor(points: NDArray) -> NDArray:
    """Radial (sup-norm) fade from 1 at the plateau stop to 0 at the support edge."""
    rinf = np.max(np.abs(np.atleast_2d(points)), axis=1)
    t = (rinf - PLATEAU_STOP) / (SUPPORT_HALFWIDTH - PLATEAU_STOP)
    return 1.0 - smoothstep5(t)


def patch_values(points: NDArray, spec: PatchSpec) -> NDArray:
    """Full compactly supported patch: cluster + constant plateau + collar."""
    pts = np.atleast_2d(points)
    c = np.asarray(spec.c)
    vals = np.outer(collar_factor(pts), c)
    g = clustered_profile(pts, spec.k)
    vals[:, spec.axis] += spec.amplitude * g
    return vals


def clustered_values(points: NDArray, spec: PatchSpec) -> NDArray:
    """Cluster over the constant background c (no collar, constant outside)."""
    pts = np.atleast_2d(points)
    c = np.asarray(spec.c)
    vals = np.tile(c, (pts.shape[0], 1))
    g = clustered_profile(pts, spec.k)
    vals[:, spec.axis] += spec.amplitude * g
    return vals


def basic_values(points: NDArray, spec: PatchSpec) -> NDArray:
    """Unclustered frame map: c + amplitude * profile(x) along the axis."""
    pts = np.atleast_2d(points)
    c = np.asarray(spec.c)
    vals = np.tile(c, (pts.shape[0], 1))
    vals[:, spec.axis] += spec.amplitude * two_bump_profile(pts)
    return vals


def _check_resolution(spacing: float, scale: float = 1.0) -> None:
    """The bump's transition annulus, shrunk by `scale`, needs 4 nodes across."""
    feature = scale * (BUMP_RADIUS - PLATEAU_RADIUS)
    if spacing > feature / 4 + 1e-15:
        raise ResolutionError(
            f"spacing {spacing} leaves fewer than 4 nodes across the feature {feature}"
        )


def build_basic_patch(spec: PatchSpec, grid: Grid) -> SampledMap:
    """Sample the frame map on a grid; the transition annulus needs 4 nodes."""
    _check_resolution(grid.spacing)
    support = Box.cube(FRAME_HALFWIDTH, dim=grid.dim)
    if not grid.box.contains_box(Box.cube(BUMP_RADIUS + 1.0, dim=grid.dim)):
        raise ResolutionError("grid must cover the two-bump frame")
    return sample_map(grid, lambda p: basic_values(p, spec), support, spec.c)


def build_clustered_patch(spec: PatchSpec, grid: Grid) -> SampledMap:
    """Sample the clustered map; equals c outside the central block."""
    _check_cluster_geometry(spec.k, spec.ell)
    _check_resolution(grid.spacing, cluster_scale(spec.k))
    support = Box.cube(BLOCK_HALFWIDTH, dim=grid.dim)
    return sample_map(grid, lambda p: clustered_values(p, spec), support, spec.c)


def build_patch(spec: PatchSpec, grid: Grid) -> SampledMap:
    """Sample the compactly supported patch; zero outside the unit cube."""
    _check_cluster_geometry(spec.k, spec.ell)
    _check_resolution(grid.spacing, cluster_scale(spec.k))
    support = Box.cube(SUPPORT_HALFWIDTH, dim=grid.dim)
    return sample_map(grid, lambda p: patch_values(p, spec), support, (0.0,) * spec.ell)


@dataclass(frozen=True)
class LayerSpec:
    """One dyadic layer: 2^(n*ell) patches, one per dyadic cube of [-1, 1]^ell."""

    n: int
    ell: int = 2

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"layer scale index must be >= 1, got {self.n}")

    @property
    def count(self) -> int:
        return 2 ** (self.n * self.ell)

    @property
    def cube_inradius(self) -> float:
        return 2.0**-self.n

    def centers(self) -> NDArray:
        coords = -1.0 + self.cube_inradius * (2 * np.arange(2**self.n) + 1)
        mesh = np.meshgrid(*([coords] * self.ell), indexing="ij")
        return np.column_stack([m.ravel() for m in mesh])

    @property
    def placement_scale(self) -> float:
        # the patch frame box (half-width PATCH_MARGIN) shrinks into one cube
        return self.cube_inradius / PATCH_MARGIN

    def placements(self) -> list[Placement]:
        return [Placement(tuple(t), self.placement_scale) for t in self.centers()]

    def patch_specs(self, params: FractionalParams, k: int = 0) -> list[PatchSpec]:
        return [PatchSpec(tuple(c), self.n, params, k=k) for c in self.centers()]


def _stencil_offsets(layer: LayerSpec) -> NDArray:
    """The 5-point shift stencil of one cube: its center and the four half-way points."""
    d = layer.cube_inradius / 2
    return np.array([[0.0, 0.0], [d, 0.0], [-d, 0.0], [0.0, d], [0.0, -d]])


def build_layer(
    spec: LayerSpec,
    params: FractionalParams,
    grid: Grid,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> tuple[SampledMap, list[Region]]:
    """Glue one patch per dyadic cube onto the ambient grid.

    Returns the glued map and the per-patch support regions used for
    localized energy accounting.  Fails with a budget error when the
    ambient grid cannot resolve the construction within the node budget.
    """
    if grid.node_count > node_budget:
        raise BudgetError(
            f"ambient grid has {grid.node_count} nodes > budget {node_budget}; "
            "use compositional accounting instead"
        )
    sigma = spec.placement_scale
    piece_h = grid.spacing / sigma
    pieces = []
    regions = []
    for ps, pl in zip(spec.patch_specs(params), spec.placements()):
        pgrid = make_grid(spec.ell, Box.cube(PATCH_MARGIN, dim=spec.ell), piece_h)
        _check_resolution(piece_h, cluster_scale(ps.k))
        pieces.append((build_patch(ps, pgrid), pl))
        regions.append(Region.from_box(Box.cube(SUPPORT_HALFWIDTH, dim=spec.ell).transformed(pl.translate, pl.scale)))
    glued = glue_disjoint(pieces, grid, (0.0,) * spec.ell)
    return glued, regions


# ---------------------------------------------------------------------------
# Composite quadrature and compositional accounting
# ---------------------------------------------------------------------------


def cell_midpoints(halfwidth: float, spacing: float) -> tuple[NDArray, float]:
    """Cell-centered coordinates tiling [-halfwidth, halfwidth] exactly.

    The spacing is adapted if needed; returns the coordinates and the
    effective spacing actually used.
    """
    n = max(1, int(round(2 * halfwidth / spacing)))
    h = 2 * halfwidth / n
    return -halfwidth + h * (np.arange(n) + 0.5), h


def _midpoint_lattice(halfwidth: float, spacing: float) -> tuple[NDArray, float]:
    """The square lattice of `cell_midpoints` and its effective spacing."""
    coords, h = cell_midpoints(halfwidth, spacing)
    xx, yy = np.meshgrid(coords, coords, indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()]), h


def _project_values(values: NDArray, a: NDArray) -> tuple[NDArray, NDArray]:
    """Normalize values - a; returns (projected, hit mask)."""
    d = values - a
    r = np.linalg.norm(d, axis=1)
    hits = r <= SINGULAR_EXCLUSION_RADIUS
    safe = np.where(hits, 1.0, r)
    out = d / safe[:, None]
    out[hits] = 0.0
    return out, hits


def _per_run(fn, specs):
    """fn(spec) for every spec, computed once per run of equal specs."""
    for spec, run in itertools.groupby(specs):
        vals = fn(spec)
        for _ in run:
            yield vals


def _projected_pair_sums(points: NDArray, value_sets, shifts: NDArray, p: float, q: float,
                         **kwargs) -> NDArray:
    """Stacked `pair_kernel_sum` of value set i projected by shift i, singular hits dropped."""
    stack = np.empty((len(shifts), points.shape[0], shifts.shape[1]))
    hits = []
    for i, (vals, a) in enumerate(zip(value_sets, shifts)):
        stack[i], hit = _project_values(vals, a)
        hits.append(np.flatnonzero(hit))
    return pair_kernel_sum(points, stack, p, q, drop=hits, **kwargs)


class PatchModel:
    """Measured building-block constants for one parameter set (ell = 2).

    All heavy quantities are computed once on frame-level lattices:
    the profile energy, the plateau-block kernel constant, the unit collar
    energy, and the cross-term margins.  Everything downstream composes
    these by exact scaling identities.
    """

    def __init__(
        self,
        params: FractionalParams,
        frame_spacing: float = 1 / 8,
        coarse_spacing: float = 1 / 16,
        cell_subdivision: int = 5,
        workers: int = 1,
    ):
        if params.ell != 2:
            raise ConfigurationError("patch models are specialized to ell = 2")
        self.params = params
        self.h0 = frame_spacing
        self.h_bg = coarse_spacing
        self.cell_subdivision = cell_subdivision
        self.workers = workers
        self._frame_pts, self.h0 = _midpoint_lattice(FRAME_HALFWIDTH, self.h0)
        self._frame_g = two_bump_profile(self._frame_pts)
        self._kernel_exp = 2 + params.sp
        self._profile_energy = None
        self._plateau_kernel = None
        self._collar_unit = None
        self._patch_margin_factor = None
        self._layer_margin_factor = None
        self._memo: dict = {}

    # -- frame-level constants ------------------------------------------------

    @property
    def profile_energy(self) -> float:
        """Energy of the scalar two-bump profile over the frame box."""
        if self._profile_energy is None:
            s = pair_kernel_sum(
                self._frame_pts, self._frame_g[:, None], self.params.p,
                self._kernel_exp, workers=self.workers,
            )
            self._profile_energy = 2.0 * self.h0**4 * s
        return self._profile_energy

    @property
    def plateau_kernel(self) -> float:
        """Kernel mass between the two plateau balls of the frame."""
        if self._plateau_kernel is None:
            e1 = np.array([1.0, 0.0])
            pos = self._frame_pts[np.linalg.norm(self._frame_pts - e1, axis=1) <= PLATEAU_RADIUS]
            neg = self._frame_pts[np.linalg.norm(self._frame_pts + e1, axis=1) <= PLATEAU_RADIUS]
            d = pos[:, None, :] - neg[None, :, :]
            dr2 = np.einsum("ijk,ijk->ij", d, d)
            self._plateau_kernel = float(
                2.0 * self.h0**4 * np.sum(dr2 ** (-0.5 * self._kernel_exp))
            )
        return self._plateau_kernel

    @property
    def collar_unit_energy(self) -> float:
        """Energy of the unit-amplitude collar profile over the patch frame."""
        if self._collar_unit is None:
            pts, h = _midpoint_lattice(PATCH_MARGIN, self.h_bg)
            vals = collar_factor(pts)[:, None]
            s = pair_kernel_sum(pts, vals, self.params.p, self._kernel_exp, workers=self.workers)
            self._collar_unit = 2.0 * h**4 * s
        return self._collar_unit

    def cluster_energy(self, spec: PatchSpec) -> float:
        """Exact-scaling cluster total: k^ell mu^(ell-sp) A^p * profile energy."""
        mu = cluster_scale(spec.k)
        return (
            spec.k ** spec.ell
            * mu ** (spec.ell - self.params.sp)
            * spec.amplitude**self.params.p
            * self.profile_energy
        )

    def cluster_lower_constant(self, spec: PatchSpec) -> float:
        """Per-chord^p coefficient of the cluster's plateau-block lower bound."""
        mu = cluster_scale(spec.k)
        return spec.k ** spec.ell * mu ** (spec.ell - self.params.sp) * self.plateau_kernel

    # -- composite quadrature clouds -------------------------------------------

    def _cell_lattice(self, k: int) -> tuple[NDArray, NDArray, float]:
        """Cell centers, the midpoint offsets every cell shares, and their weight."""
        width = 2 * BLOCK_HALFWIDTH / k
        offs, cell_h = _midpoint_lattice(width / 2, width / self.cell_subdivision)
        return cluster_cell_centers(k), offs, cell_h**2

    def _patch_cloud(self, spec: PatchSpec, group_base: int = 0, placement: Placement | None = None):
        """Coarse cloud for one patch: cell reps (grouped) + background."""
        centers, offs, cell_w = self._cell_lattice(spec.k)
        cell_pts = (centers[:, None, :] + offs[None, :, :]).reshape(-1, 2)
        cell_groups = np.repeat(np.arange(len(centers)) + group_base, offs.shape[0])

        bg, bg_h = _midpoint_lattice(PATCH_MARGIN, self.h_bg)
        bg = bg[np.max(np.abs(bg), axis=1) > BLOCK_HALFWIDTH]
        bg_w = np.full(bg.shape[0], bg_h**2)
        bg_groups = np.full(bg.shape[0], -1, dtype=np.int64)

        pts = np.concatenate([cell_pts, bg])
        w = np.concatenate([np.full(cell_pts.shape[0], cell_w), bg_w])
        groups = np.concatenate([cell_groups, bg_groups])
        vals = patch_values(pts, spec)
        if placement is not None:
            pts = pts * placement.scale + np.asarray(placement.translate)
            w = w * placement.scale**2
        return pts, vals, w, groups

    def patch_energy_direct(self, spec: PatchSpec) -> float:
        """Composite quadrature of the full patch energy over its frame box.

        Pairs inside one cell scale to the frame (`cluster_energy`).  Pairs
        joining two cells come from `cell_lattice_sum` over the congruent
        cells; the cloud sum puts every cell point in one group, so the
        engine evaluates only the pairs that touch the background.  The block
        lies inside the plateau, where `collar_factor` is exactly 1, so every
        cell holds the frame map at its offsets scaled by 1/mu.
        """
        key = ("patch", spec)
        if key not in self._memo:
            pts, vals, w, groups = self._patch_cloud(spec)
            cloud = WeightedCloud(pts, vals, w, np.minimum(groups, 0, out=groups))
            _, offs, cell_w = self._cell_lattice(spec.k)
            cell_vals = basic_values(offs / cluster_scale(spec.k), spec)
            cells = cell_lattice_sum(offs, cell_vals, self.params.p, self._kernel_exp, cell_w,
                                     2 * BLOCK_HALFWIDTH / spec.k, spec.k)
            cross = cloud_energy(cloud, self.params, m=2, workers=self.workers) + 2.0 * cells
            self._memo[key] = cross + self.cluster_energy(spec)
        return self._memo[key]

    def _frame_values(self, spec: PatchSpec) -> NDArray:
        """`basic_values` on the frame lattice, from the cached profile."""
        vals = np.tile(np.asarray(spec.c), (self._frame_pts.shape[0], 1))
        vals[:, spec.axis] += spec.amplitude * self._frame_g
        return vals

    def _projected_energies(self, specs: list[PatchSpec], shifts: NDArray) -> NDArray:
        """`patch_projected_direct` of spec i at shift i, for specs of one n and k.

        Such specs share the frame and the cloud geometry, so the frame sums
        and the cloud sums are one stacked pair sum each; singular hits are
        dropped from their own value set.  A run of equal specs computes its
        unprojected values once.
        """
        if not specs:
            return np.zeros(0)
        pts, _, w, groups = self._patch_cloud(specs[0])
        p, q = self.params.p, self._kernel_exp
        frames = _per_run(self._frame_values, specs)
        frame_sums = _projected_pair_sums(self._frame_pts, frames, shifts, p, q,
                                          weights=self.h0**2, workers=self.workers)
        clouds = _per_run(lambda spec: patch_values(pts, spec), specs)
        cloud_sums = _projected_pair_sums(pts, clouds, shifts, p, q, weights=w, groups=groups,
                                          workers=self.workers)
        k, ell = specs[0].k, specs[0].ell
        fine = k**ell * cluster_scale(k) ** (ell - self.params.sp) * (2.0 * frame_sums)
        return fine + 2.0 * cloud_sums

    def patch_projected_direct(self, spec: PatchSpec, a) -> float | NDArray:
        """Composite quadrature of the projected patch energy, within-patch pairs only.

        ``a`` is one shift (2,), giving a float, or a stack (S, 2), giving the
        (S,) array of the per-shift values (equal to them bit for bit).  Cells
        reuse one frame computation exactly.
        """
        a = np.asarray(a, dtype=float)
        shifts = np.atleast_2d(a)
        energies = self._projected_energies([spec] * shifts.shape[0], shifts)
        return float(energies[0]) if a.ndim == 1 else energies

    def patch_projected_lower(self, spec: PatchSpec, a) -> float:
        """Closed-form plateau-block lower bound: CL(n) * chord^p."""
        a = np.atleast_2d(np.asarray(a, dtype=float))
        chord = chords_vectorized(np.asarray([spec.c]), spec.n, a)[0]
        return self.cluster_lower_constant(spec) * chord**self.params.p

    # -- margins (measured cross-term factors) ---------------------------------

    @property
    def patch_margin_factor(self) -> float:
        """Measured ratio direct/(cluster + collar) at n in {1, 2}, with headroom."""
        if self._patch_margin_factor is None:
            ratios = []
            for n in (1, 2):
                for c in ((0.0, 0.0), (0.5, 0.5)):
                    spec = PatchSpec(c, n, self.params)
                    direct = self.patch_energy_direct(spec)
                    base = self.cluster_energy(spec) + np.linalg.norm(c) ** self.params.p * self.collar_unit_energy
                    ratios.append(direct / base if base > 0 else 1.0)
            self._patch_margin_factor = max(ratios) * 1.15
        return self._patch_margin_factor

    def patch_energy_compositional(self, spec: PatchSpec) -> float:
        c_norm = float(np.linalg.norm(spec.c))
        base = self.cluster_energy(spec) + c_norm**self.params.p * self.collar_unit_energy
        return self.patch_margin_factor * base

    # -- layers -----------------------------------------------------------------

    def layer_cloud(self, layer: LayerSpec) -> WeightedCloud:
        sigma = layer.placement_scale
        parts = []
        specs = layer.patch_specs(self.params)
        for i, (spec, pl) in enumerate(zip(specs, layer.placements())):
            pts, vals, w, groups = self._patch_cloud(spec, group_base=i * spec.k**2, placement=pl)
            parts.append(WeightedCloud(pts, vals, w, groups))
        bg, bg_h = _midpoint_lattice(1.0 + PATCH_MARGIN * sigma, sigma * self.h_bg * 4)
        outside = np.max(np.abs(bg), axis=1) > 1.0  # patch frames tile the unit cube
        bg = bg[outside]
        parts.append(WeightedCloud(
            bg, np.zeros((bg.shape[0], 2)), np.full(bg.shape[0], bg_h**2),
            np.full(bg.shape[0], -1, dtype=np.int64),
        ))
        return WeightedCloud.concat(parts)

    def layer_energy_direct(self, layer: LayerSpec) -> float:
        """Composite quadrature of the glued layer (all cross pairs included)."""
        key = ("layer", layer, self.params)
        if key not in self._memo:
            sigma = layer.placement_scale
            cloud = self.layer_cloud(layer)
            cross = cloud_energy(cloud, self.params, m=2, workers=self.workers)
            fine = 0.0
            for spec in layer.patch_specs(self.params):
                fine += sigma ** (2 - self.params.sp) * self.cluster_energy(spec)
            self._memo[key] = cross + fine
        return self._memo[key]

    def layer_projected_direct(self, layer: LayerSpec, a) -> float:
        """Localized projected layer energy: the sum of per-patch contributions.

        The patches of one layer share their geometry, so their projected
        energies come from one stacked `_projected_energies` call; the sum
        runs in patch order.
        """
        sigma = layer.placement_scale
        specs = layer.patch_specs(self.params)
        shifts = np.broadcast_to(np.asarray(a, dtype=float), (len(specs), 2))
        energies = self._projected_energies(specs, shifts)
        total = 0.0
        for energy in energies:
            total += sigma ** (2 - self.params.sp) * float(energy)
        return total

    @property
    def layer_margin_factor(self) -> float:
        """Measured glue factor at n = 1: layer direct / sum of patch energies."""
        if self._layer_margin_factor is None:
            layer = LayerSpec(1)
            sigma = layer.placement_scale
            direct = self.layer_energy_direct(layer)
            total = sum(
                sigma ** (2 - self.params.sp) * self.patch_energy_direct(s)
                for s in layer.patch_specs(self.params)
            )
            self._layer_margin_factor = max(direct / total, 1.0) * 1.15
        return self._layer_margin_factor

    def layer_upper_compositional(self, layer: LayerSpec) -> float:
        """Sum of the patches' compositional bounds, times the glue margin.

        Every patch of a layer shares n, hence the cluster term, so the sum
        closes to margin * sigma^(2-sp) * (count * cluster + collar * sum |c|^p).
        """
        spec = PatchSpec((0.0,) * layer.ell, layer.n, self.params)
        norms_p = float(np.sum(np.linalg.norm(layer.centers(), axis=1) ** self.params.p))
        base = layer.count * self.cluster_energy(spec) + self.collar_unit_energy * norms_p
        margin = self.layer_margin_factor * self.patch_margin_factor
        return margin * layer.placement_scale ** (2 - self.params.sp) * base

    def _contributes(self, d: NDArray, r: float) -> NDArray:
        """`contributing_patches` as a mask of offsets d = shift - center (last axis)."""
        sel = np.max(np.abs(d), axis=-1) <= r + 1e-12
        if self.params.p <= self.params.ell:
            dist = np.linalg.norm(d, axis=-1)
            sel |= (np.abs(d[..., 0]) <= COS_CONE_BOUND * dist) & (dist >= r)
        return sel

    def contributing_patches(self, layer: LayerSpec, a: NDArray) -> NDArray:
        """Select contributing patch indices for one shift.

        Always the patch of the dyadic cube containing the shift; for
        p <= ell also every patch in the transverse cone (|cos angle to
        e1| <= 1/8) at center distance >= 2^-n.
        """
        return np.nonzero(self._contributes(a - layer.centers(), layer.cube_inradius))[0]

    def _layer_lower_coeff(self, layer: LayerSpec) -> float:
        spec = PatchSpec((0.0,) * layer.ell, layer.n, self.params)
        return layer.placement_scale ** (2 - self.params.sp) * self.cluster_lower_constant(spec)

    def layer_lower_compositional(self, layer: LayerSpec, a) -> float:
        """Sum of plateau-block lower bounds over contributing patches."""
        a = np.asarray(a, dtype=float)
        centers = layer.centers()
        idx = self.contributing_patches(layer, a)
        if idx.size == 0:
            return 0.0
        chords = chords_vectorized(centers[idx], layer.n, np.broadcast_to(a, (idx.size, 2)))
        return self._layer_lower_coeff(layer) * float(np.sum(chords**self.params.p))

    def shift_grid(self, layer: LayerSpec) -> NDArray:
        """Dyadic centers plus a 5-point stencil per cube."""
        return (layer.centers()[:, None, :] + _stencil_offsets(layer)[None, :, :]).reshape(-1, 2)

    def layer_lowers(self, layer: LayerSpec) -> NDArray:
        """`layer_lower_compositional` at every shift of `shift_grid`, in its order.

        The selection and the chord of a (shift, center) pair depend only on
        d = shift - center.  A shift is a center J plus a stencil offset o,
        and the centers fill the N x N grid (N = 2^n), so its sum runs over
        the N x N window at J of the difference lattice 2r k + o,
        k in [1-N, N-1]^2.  One table of sel * chord^p per offset and its
        summed-area table give every window sum from four lookups: O(4^n)
        chords instead of 5 * 16^n pair tests.
        """
        size = 2**layer.n
        r = layer.cube_inradius
        k = 2 * r * np.arange(1 - size, size)
        lattice = np.stack(np.meshgrid(k, k, indexing="ij"), axis=-1).reshape(-1, 2)
        windows = []
        for o in _stencil_offsets(layer):
            d = lattice + o
            sel = self._contributes(d, r)
            terms = np.zeros(d.shape[0])
            # center 0 and shift d: the chord depends on the difference only
            terms[sel] = chords_vectorized(np.zeros_like(d[sel]), layer.n, d[sel]) ** self.params.p
            sat = np.zeros((2 * size, 2 * size))
            sat[1:, 1:] = terms.reshape(2 * size - 1, 2 * size - 1).cumsum(0).cumsum(1)
            windows.append(sat[size:, size:] - sat[:size, size:] - sat[size:, :size] + sat[:size, :size])
        return self._layer_lower_coeff(layer) * np.stack(windows, axis=-1).reshape(-1)

    def layer_ratio(self, layer: LayerSpec) -> tuple[float, float, float, NDArray]:
        """(inf-shift lower, upper, ratio, argmin shift) for one layer.

        The lower value is the per-shift reference sum at the table's argmin,
        so it equals `layer_lower_compositional` there bit for bit.
        """
        upper = self.layer_upper_compositional(layer)
        best_shift = self.shift_grid(layer)[int(np.argmin(self.layer_lowers(layer)))]
        lower = self.layer_lower_compositional(layer, best_shift)
        return lower, upper, lower / upper, best_shift
