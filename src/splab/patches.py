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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray

from ._pairsum import (
    cell_lattice_kernel,
    class_bins,
    class_kernel,
    class_pair_sum,
    half_lattice,
    pair_kernel_sum,
    symmetric,
)
from .chords import COS_CONE_BOUND, chords_vectorized
from .energy import DEFAULT_NODE_BUDGET, PAIR_BUDGET, FractionalParams, _count
from .errors import BudgetError, ConfigurationError
from .grid import Placement
from .sphere import unit_values

ELL = 2  # every patch takes values in R^2, and every layer covers [-1, 1]^2
# Frame geometry shared by every patch (frame coordinates).
FRAME_HALFWIDTH = 2.0      # two-bump frame box
PLATEAU_RADIUS = 0.5       # each bump is 1 on this ball
BUMP_RADIUS = 1.0          # and supported on this ball
BLOCK_HALFWIDTH = 0.25     # cluster cells tile this central block
PLATEAU_STOP = 0.6         # collar starts here (sup-norm radius)
SUPPORT_HALFWIDTH = 0.95   # collar ends here; support inside the unit cube
PATCH_MARGIN = 1.25        # energy frame box half-width around one patch

# Composite quadrature resolution: frame lattice, patch background, midpoints per cell side
FRAME_SPACING = 1 / 8
COARSE_SPACING = 1 / 16
CELL_SUBDIVISION = 5

LAYER_TABLE_BUDGET = 100_000_000  # difference-lattice entries of one layer_lowers table


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


def default_cluster_count(n: int, s: float) -> int:
    """Smallest k with k^(sp) >= 2^((n-1)p): k = ceil(2^((n-1)/s)).

    BudgetError when 2^((n-1)/s) overflows a float.
    """
    try:
        return int(math.ceil(2.0 ** ((n - 1) / s)))
    except OverflowError:
        raise BudgetError(f"cluster count 2^((n-1)/s) overflows at n = {n}, s = {s}") from None


def cluster_scale(k: int) -> float:
    """Frame-to-cell scale: the frame box maps onto one cell box."""
    return (BLOCK_HALFWIDTH / k) / FRAME_HALFWIDTH


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


def _values_from(collar: NDArray, profile: NDArray, centers, amplitude: float) -> NDArray:
    """Patch values collar * c + amplitude * profile * e1: (C, ell) for one c, (S, C, ell) for S centers."""
    vals = collar[:, None] * np.asarray(centers, dtype=float)[..., None, :]
    vals[..., 0] += amplitude * profile
    return vals


@dataclass(frozen=True)
class LayerSpec:
    """One dyadic layer: 2^(n*ell) patches, one per dyadic cube of [-1, 1]^ell."""

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ConfigurationError(f"layer scale index must be >= 1, got {self.n}")

    @property
    def count(self) -> int:
        return 2 ** (self.n * ELL)

    @property
    def cube_inradius(self) -> float:
        return 2.0**-self.n

    def centers(self) -> NDArray:
        return _midpoint_lattice(1.0, 2 * self.cube_inradius)[0]

    @property
    def placement_scale(self) -> float:
        # the patch frame box (half-width PATCH_MARGIN) shrinks into one cube
        return self.cube_inradius / PATCH_MARGIN

    def placements(self) -> list[Placement]:
        return [Placement(tuple(t), self.placement_scale) for t in self.centers()]

    def patch_specs(self, params: FractionalParams) -> list[PatchSpec]:
        return [PatchSpec(tuple(c), self.n, params) for c in self.centers()]


def check_layer_table(n: int) -> None:
    """BudgetError unless the 5 (2^(n+1) - 1)^2 entries of the `layer_lowers` table fit (n <= 11)."""
    entries = 5 * (2 ** (n + 1) - 1) ** 2
    if entries > LAYER_TABLE_BUDGET:
        raise BudgetError(
            f"lower-bound table at n = {n} holds {_count(entries)} entries > budget "
            f"{_count(LAYER_TABLE_BUDGET)}"
        )


def _stencil_offsets(layer: LayerSpec) -> NDArray:
    """The 5-point shift stencil of one cube: its center and the four half-way points."""
    d = layer.cube_inradius / 2
    return np.array([[0.0, 0.0], [d, 0.0], [-d, 0.0], [0.0, d], [0.0, -d]])


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


def outer_background(layer: LayerSpec) -> tuple[NDArray, float]:
    """Points and weight of the layer's lattice outside [-1, 1]^2 (half a patch frame wide, value 0)."""
    sigma = layer.placement_scale
    bg, bg_h = _midpoint_lattice(1.0 + PATCH_MARGIN * sigma, sigma * COARSE_SPACING * 4)
    return bg[np.max(np.abs(bg), axis=1) > 1.0], bg_h**2


def frame_energy(points: NDArray, values: NDArray, p: float, q: float, spacing: float,
                 workers: int = 1) -> float:
    """Energy of values on a midpoint lattice of spacing h in R^m: 2 h^(2m) times the pair sum."""
    s = pair_kernel_sum(points, values, p, q, workers=workers)
    return 2.0 * spacing ** (2 * points.shape[1]) * s


class PatchModel:
    """Measured building-block constants for one parameter set (ell = 2).

    All heavy quantities are computed once on frame-level lattices:
    the profile energy, the plateau-block kernel constant, the unit collar
    energy, and the cross-term margins.  Everything downstream composes
    these by exact scaling identities.
    """

    def __init__(self, params: FractionalParams, workers: int = 1):
        if params.ell != ELL:
            raise ConfigurationError(f"patch models are specialized to ell = {ELL}")
        self.params = params
        self.workers = workers
        self._frame_pts, self.h0 = _midpoint_lattice(FRAME_HALFWIDTH, FRAME_SPACING)
        self._frame_g = two_bump_profile(self._frame_pts)
        self._kernel_exp = 2 + params.sp
        self.layer_scheme = f"offset class kernels kernel_exp={self._kernel_exp!r}"
        self._memo: dict = {}
        self._class_memo: dict = {}

    # -- frame-level constants ------------------------------------------------

    @cached_property
    def profile_energy(self) -> float:
        """Energy of the scalar two-bump profile over the frame box."""
        return frame_energy(self._frame_pts, self._frame_g[:, None], self.params.p,
                            self._kernel_exp, self.h0, self.workers)

    @cached_property
    def plateau_kernel(self) -> float:
        """Kernel mass between the two plateau balls of the frame."""
        e1 = np.array([1.0, 0.0])
        pos = self._frame_pts[np.linalg.norm(self._frame_pts - e1, axis=1) <= PLATEAU_RADIUS]
        neg = self._frame_pts[np.linalg.norm(self._frame_pts + e1, axis=1) <= PLATEAU_RADIUS]
        d = pos[:, None, :] - neg[None, :, :]
        dr2 = np.einsum("ijk,ijk->ij", d, d)
        return float(2.0 * self.h0**4 * np.sum(dr2 ** (-0.5 * self._kernel_exp)))

    @cached_property
    def collar_unit_energy(self) -> float:
        """Energy of the unit-amplitude collar profile over the patch frame."""
        pts, h = _midpoint_lattice(PATCH_MARGIN, COARSE_SPACING)
        return frame_energy(pts, collar_factor(pts)[:, None], self.params.p,
                            self._kernel_exp, h, self.workers)

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
        offs, cell_h = _midpoint_lattice(width / 2, width / CELL_SUBDIVISION)
        return _midpoint_lattice(BLOCK_HALFWIDTH, width)[0], offs, cell_h**2

    def _background(self) -> tuple[NDArray, float]:
        """Background points of one patch frame (outside the cluster block) and their weight."""
        bg, bg_h = _midpoint_lattice(PATCH_MARGIN, COARSE_SPACING)
        return bg[np.max(np.abs(bg), axis=1) > BLOCK_HALFWIDTH], bg_h**2

    def _cloud_size(self, k: int) -> int:
        """Point count of the patch cloud of cluster count k: its cells' points and its background."""
        return k**2 * CELL_SUBDIVISION**2 + self._background()[0].shape[0]

    def _check_cloud_size(self, k: int) -> None:
        """BudgetError unless the patch cloud of cluster count k fits the node budget."""
        size = self._cloud_size(k)
        if size > DEFAULT_NODE_BUDGET:
            raise BudgetError(
                f"patch cloud of {_count(size)} points > budget {_count(DEFAULT_NODE_BUDGET)} "
                f"(cluster count {_count(k)}); use compositional accounting instead"
            )

    def _class_cloud(self, k: int) -> tuple[NDArray, NDArray, NDArray, NDArray, NDArray]:
        """(collar, g) of each value class, and the points, labels, weights and groups of the patch cloud.

        The cell points of cluster count k come first, all in group 0, then
        the background in group -1.  A patch value is collar(x) c + A g(x) e1,
        so points with equal (collar, g) carry equal values for every spec of
        this k.  A cell point takes the class of its offset: the block lies
        inside the plateau, where `collar_factor` is exactly 1, so every cell
        holds the frame profile at its offsets scaled by 1/mu.
        """
        self._check_cloud_size(k)
        centers, offs, cell_w = self._cell_lattice(k)
        bg, bg_w = self._background()
        sizes = [centers.shape[0] * offs.shape[0], bg.shape[0]]
        # (collar, g) of the cell template's offsets, then of the background points
        keys = np.concatenate([
            np.column_stack([np.ones(offs.shape[0]), two_bump_profile(offs / cluster_scale(k))]),
            np.column_stack([collar_factor(bg), clustered_profile(bg, k)]),
        ])
        classes, labels = np.unique(keys, axis=0, return_inverse=True)
        cell_labels, bg_labels = np.split(labels.ravel(), [offs.shape[0]])
        return (
            classes,
            np.concatenate([(centers[:, None, :] + offs).reshape(-1, 2), bg]),
            np.concatenate([np.tile(cell_labels, centers.shape[0]), bg_labels]),
            np.repeat([cell_w, bg_w], sizes),
            np.repeat([0, -1], sizes),
        )

    def _classes(self, k: int) -> tuple[NDArray, NDArray, NDArray]:
        """Collar factor and cluster profile of each class of `_class_cloud`, and their class matrix.

        The symmetric matrix holds all pairs that do not lie in one cell:
        `class_kernel` evaluates the pairs that touch the background, and
        `cell_lattice_kernel`, scattered onto the cells' classes, the pairs
        that join two cells.  Built once per k.
        """
        if k not in self._class_memo:
            classes, pts, labels, weights, groups = self._class_cloud(k)
            kern = class_kernel(pts, labels, self._kernel_exp, weights=weights, groups=groups,
                                workers=self.workers)
            _, offs, cell_w = self._cell_lattice(k)
            cell_labels = labels[:offs.shape[0]]
            lattice = cell_lattice_kernel(offs, self._kernel_exp, cell_w, 2 * BLOCK_HALFWIDTH / k, k)
            kern += symmetric(class_bins(cell_labels, cell_labels, lattice, classes.shape[0]))
            self._class_memo[k] = classes[:, 0], classes[:, 1], kern
        return self._class_memo[k]

    def _cross_kernel(self, cloud: tuple, points: NDArray, labels: NDArray, weights) -> NDArray:
        """`class_kernel` of the pairs between a patch cloud P and another labelled cloud Q.

        ``cloud`` is `_class_cloud` of P, with C classes; Q is ``points`` in
        P's frame units with ``labels`` from 0 and ``weights`` (per point or
        one).  P is group 1 with its labels, Q group 0 with its labels moved
        up by C: only the pairs between P and Q are live, and Q comes first,
        so the walk skips P's row slabs whole.  For class values V of P and W
        of Q, `class_pair_sum` of the matrix and [V; W] is their pair sum in
        frame units.
        """
        classes, pts, cloud_labels, cloud_weights, _ = cloud
        weights = np.concatenate([np.broadcast_to(weights, labels.shape), cloud_weights])
        groups = np.repeat([0, 1], [labels.shape[0], pts.shape[0]])
        return class_kernel(np.concatenate([points, pts]), np.concatenate([labels + classes.shape[0], cloud_labels]),
                            self._kernel_exp, weights=weights, groups=groups, workers=self.workers)

    def _frame_classes(self) -> tuple[NDArray, NDArray]:
        """Profile value of each class of the frame lattice and their `class_kernel` matrix."""
        if "frame" not in self._class_memo:
            profile, labels = np.unique(self._frame_g, return_inverse=True)
            kern = class_kernel(self._frame_pts, labels.ravel(), self._kernel_exp,
                                weights=self.h0**2, workers=self.workers)
            self._class_memo["frame"] = profile, kern
        return self._class_memo["frame"]

    def patch_energy_direct(self, spec: PatchSpec) -> float:
        """Composite quadrature of the full patch energy over its frame box.

        Pairs inside one cell scale to the frame (`cluster_energy`); all
        other pairs come from the class matrix of the patch cloud
        (`_classes`).
        """
        key = ("patch", spec)
        if key not in self._memo:
            collar, profile, kern = self._classes(spec.k)
            vals = _values_from(collar, profile, spec.c, spec.amplitude)
            cross = 2.0 * class_pair_sum(kern, vals, self.params.p)
            self._memo[key] = cross + self.cluster_energy(spec)
        return self._memo[key]

    def _projected_energies(self, spec: PatchSpec, centers: NDArray, shifts: NDArray) -> NDArray:
        """`patch_projected_direct` of the patch of spec's n and k at centers[i], at shift i.

        The frame and the patch cloud of k have one class matrix each, so
        every (center, shift) projects only the class values, all as one
        stack per matrix; a singular hit drops its class.  `class_pair_sum`
        sums each set on its own, so a stack equals the per-shift calls.
        """
        frame_profile, frame_kern = self._frame_classes()
        frame_classes = np.ones(frame_profile.shape[0]), frame_profile, frame_kern
        sums = []
        for collar, profile, kern in (frame_classes, self._classes(spec.k)):
            vals = _values_from(collar, profile, centers, spec.amplitude)
            hits = unit_values(vals, shifts[:, None, :], vals)
            sums.append(class_pair_sum(kern, vals, self.params.p, drop=hits))
        frame, cloud = sums
        fine = spec.k**spec.ell * cluster_scale(spec.k) ** (spec.ell - self.params.sp) * (2.0 * frame)
        return fine + 2.0 * cloud

    def patch_projected_direct(self, spec: PatchSpec, a) -> float | NDArray:
        """Composite quadrature of the projected patch energy, within-patch pairs only.

        ``a`` is one shift (2,), giving a float, or a stack (S, 2), giving the
        (S,) array of the per-shift values (equal to them bit for bit).  Cells
        reuse one frame computation exactly.
        """
        a = np.asarray(a, dtype=float)
        shifts = np.atleast_2d(a)
        energies = self._projected_energies(spec, np.broadcast_to(spec.c, shifts.shape), shifts)
        return float(energies[0]) if a.ndim == 1 else energies

    def patch_projected_lower(self, spec: PatchSpec, a) -> float | NDArray:
        """Closed-form plateau-block lower bound CL(n) * chord^p, of shapes as `patch_projected_direct`."""
        a = np.asarray(a, dtype=float)
        shifts = np.atleast_2d(a)
        chords = chords_vectorized(np.broadcast_to(spec.c, shifts.shape), spec.n, shifts)
        lower = self.cluster_lower_constant(spec) * chords**self.params.p
        return float(lower[0]) if a.ndim == 1 else lower

    # -- margins (measured cross-term factors) ---------------------------------

    @cached_property
    def patch_margin_factor(self) -> float:
        """Measured ratio direct/(cluster + collar) at n in {1, 2}, with headroom."""
        ratios = []
        for n in (1, 2):
            for c in ((0.0, 0.0), (0.5, 0.5)):
                spec = PatchSpec(c, n, self.params)
                direct = self.patch_energy_direct(spec)
                base = self.cluster_energy(spec) + np.linalg.norm(c) ** self.params.p * self.collar_unit_energy
                ratios.append(direct / base if base > 0 else 1.0)
        return max(ratios) * 1.15

    # -- layers -----------------------------------------------------------------

    def _layer_pairs(self, layer: LayerSpec) -> int:
        """Pairs the blocks of `layer_energy_direct` evaluate, by arithmetic from k and n.

        Each of the ((2N-1)^2 - 1)/2 half-offsets joins two patch clouds of
        |P| points, and each of the N^2 patches meets the outer background:
        (N + 1)^2 - N^2 patch frames of ``steps``^2 points.
        """
        size = self._cloud_size(default_cluster_count(layer.n, self.params.s))
        side, steps = 2**layer.n, round(PATCH_MARGIN / (2 * COARSE_SPACING))
        return ((2 * side - 1) ** 2 - 1) // 2 * size**2 + layer.count * size * steps**2 * (2 * side + 1)

    def layer_energy_direct(self, layer: LayerSpec) -> float:
        """Composite quadrature of the glued layer (all cross pairs included).

        Every patch is the cloud P of `_class_cloud` placed by x -> sigma x + t,
        so a pair of placed points carries sigma^(2-sp) times its frame
        kernel, and the pairs of the glued layer split four ways: within one
        patch (the class matrix of `_classes`), between the patches I and
        I + D for each half-offset D of the N x N patch grid (one
        `_cross_kernel` of P and P + D per D, whatever the patch pair),
        between patch I and the outer background (one `_cross_kernel` of P
        and the outer points moved into I's frame, one class of value 0), and
        within one cell (`cluster_energy`).  One stacked `class_pair_sum` sums
        all patches, and one per D all its patch pairs.  The pair budget runs first.
        """
        key = ("layer", layer, self.params)
        if key not in self._memo:
            pairs = self._layer_pairs(layer)
            if pairs > PAIR_BUDGET:
                raise BudgetError(
                    f"layer blocks at n = {layer.n} evaluate {_count(pairs)} pairs > budget "
                    f"{_count(PAIR_BUDGET)}; use compositional accounting instead"
                )
            p, sp = self.params.p, self.params.sp
            sigma = layer.placement_scale
            spec = PatchSpec((0.0,) * ELL, layer.n, self.params)
            collar, profile, kern = self._classes(spec.k)
            vals = _values_from(collar, profile, layer.centers(), spec.amplitude)
            terms = [class_pair_sum(kern, vals, p)]
            cloud = self._class_cloud(spec.k)
            pts, labels, weights = cloud[1:4]
            side = 2**layer.n
            index = np.arange(layer.count).reshape(side, side)  # patch (i, j) of `centers`
            for d in half_lattice(side, ELL):
                block = self._cross_kernel(cloud, pts + 2 * PATCH_MARGIN * d, labels, weights)
                di, dj = d
                firsts = index[max(0, -di):side - max(0, di), max(0, -dj):side - max(0, dj)].ravel()
                joined = np.concatenate([vals[firsts], vals[firsts + di * side + dj]], axis=1)
                terms.append(class_pair_sum(block, joined, p))
            outer, outer_w = outer_background(layer)
            outer_labels = np.zeros(outer.shape[0], dtype=np.int64)
            for v, pl in zip(vals, layer.placements()):
                block = self._cross_kernel(cloud, (outer - pl.translate) / pl.scale, outer_labels,
                                           outer_w / pl.scale**2)
                terms.append([class_pair_sum(block, np.concatenate([v, np.zeros((1, ELL))]), p)])
            cross = 2.0 * sigma ** (2 - sp) * math.fsum(np.concatenate(terms))
            # every patch has the same cells; added one patch at a time
            fine = np.cumsum(np.full(layer.count, sigma ** (2 - sp) * self.cluster_energy(spec)))[-1]
            self._memo[key] = float(cross + fine)
        return self._memo[key]

    def layer_projected_direct(self, layer: LayerSpec, a) -> float:
        """Localized projected layer energy: the sum of per-patch contributions.

        The patches of one layer share their geometry, so their projected
        energies come from one stacked `_projected_energies` call; the sum
        runs in patch order.
        """
        centers = layer.centers()
        shifts = np.broadcast_to(np.asarray(a, dtype=float), centers.shape)
        energies = self._projected_energies(PatchSpec((0.0,) * ELL, layer.n, self.params), centers, shifts)
        return float(np.cumsum(layer.placement_scale ** (2 - self.params.sp) * energies)[-1])

    @cached_property
    def layer_margin_factor(self) -> float:
        """Measured glue factor at n = 1: layer direct / sum of patch energies."""
        layer = LayerSpec(1)
        sigma = layer.placement_scale
        direct = self.layer_energy_direct(layer)
        total = sum(
            sigma ** (2 - self.params.sp) * self.patch_energy_direct(s)
            for s in layer.patch_specs(self.params)
        )
        return max(direct / total, 1.0) * 1.15

    def layer_upper_compositional(self, layer: LayerSpec) -> float:
        """Sum of the patches' compositional bounds, times the glue margin.

        Every patch of a layer shares n, hence the cluster term, so the sum
        closes to margin * sigma^(2-sp) * (count * cluster + collar * sum |c|^p).
        """
        spec = PatchSpec((0.0,) * ELL, layer.n, self.params)
        norms_p = float(np.sum(np.linalg.norm(layer.centers(), axis=1) ** self.params.p))
        base = layer.count * self.cluster_energy(spec) + self.collar_unit_energy * norms_p
        margin = self.layer_margin_factor * self.patch_margin_factor
        return margin * layer.placement_scale ** (2 - self.params.sp) * base

    def _contributes(self, d: NDArray, r: float) -> NDArray:
        """Whether a patch contributes to a shift, by the offsets d = shift - center (last axis).

        Always the patch of the dyadic cube containing the shift (r = 2^-n);
        for p <= ell also every patch in the transverse cone (|cos angle to
        e1| <= 1/8) at center distance >= r.
        """
        sel = np.max(np.abs(d), axis=-1) <= r + 1e-12
        if self.params.p <= self.params.ell:
            dist = np.linalg.norm(d, axis=-1)
            sel |= (np.abs(d[..., 0]) <= COS_CONE_BOUND * dist) & (dist >= r)
        return sel

    def _layer_lower_coeff(self, layer: LayerSpec) -> float:
        spec = PatchSpec((0.0,) * ELL, layer.n, self.params)
        return layer.placement_scale ** (2 - self.params.sp) * self.cluster_lower_constant(spec)

    def layer_lower_compositional(self, layer: LayerSpec, a) -> float:
        """Sum of plateau-block lower bounds over contributing patches."""
        a = np.asarray(a, dtype=float)
        centers = layer.centers()
        idx = np.flatnonzero(self._contributes(a - centers, layer.cube_inradius))
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
        chords instead of 5 * 16^n pair tests.  `check_layer_table` runs first.
        """
        check_layer_table(layer.n)
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
        best = int(np.argmin(self.layer_lowers(layer)))  # first: the table budget precedes any array
        # the row `best` of `shift_grid`, by the same float addition
        best_shift = layer.centers()[best // 5] + _stencil_offsets(layer)[best % 5]
        upper = self.layer_upper_compositional(layer)
        lower = self.layer_lower_compositional(layer, best_shift)
        return lower, upper, lower / upper, best_shift
