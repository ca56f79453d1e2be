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
    LatticeCounts,
    class_bins,
    class_kernel,
    class_pair_sum,
    half_lattice,
    lattice_index,
    symmetric,
)
from .chords import COS_CONE_BOUND, chords_vectorized
from .energy import DEFAULT_NODE_BUDGET, PAIR_BUDGET, FractionalParams, _count, _over, check_pair_sum
from .errors import BudgetError, ConfigurationError
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
CELL_TABLE_BUDGET = 2**19  # entries of one cell-center count table (15 MB of counts at 7 labels)


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

    def patch_specs(self, params: FractionalParams) -> list[PatchSpec]:
        return [PatchSpec(tuple(c), self.n, params) for c in self.centers()]


def check_layer_table(n: int) -> None:
    """BudgetError unless the 5 (2^(n+1) - 1)^2 entries of the `layer_lowers` table fit (n <= 11)."""
    entries = 5 * (2 ** (n + 1) - 1) ** 2
    if entries > LAYER_TABLE_BUDGET:
        shown, budget = _over(entries, LAYER_TABLE_BUDGET)
        raise BudgetError(f"lower-bound table at n = {n} holds {shown} entries > budget {budget}")


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


def class_matrix(points: NDArray, keys: NDArray, q: float, weight: float,
                 workers: int = 1) -> tuple[NDArray, NDArray]:
    """The distinct ``keys`` (one per point) and the `class_kernel` matrix of their classes.

    Every point carries the quadrature ``weight``.  A value that is a
    function of the key then has the pair sum 2 `class_pair_sum` of the
    matrix and the value of each class.
    """
    classes, labels = np.unique(keys, return_inverse=True)
    return classes, class_kernel(points, labels.ravel(), q, weights=weight, workers=workers)


class PatchModel:
    """Measured building-block constants for one parameter set (ell = 2).

    All heavy quantities are computed once on frame-level lattices:
    the profile energy, the plateau-block kernel constant, the unit collar
    energy, and the cross-term margins.  Everything downstream composes
    these by exact scaling identities.

    The geometry behind them is kept in ``store``, a dict keyed by content:
    the lattices, patch clouds, `lattice_index` results and count tables
    depend on the frame alone, the frame and collar class matrices,
    `_classes` and every `_block` also on q = 2 + sp (part of their
    keys).  Models that share a store (one per `threshold_scan`) share
    that geometry; without one, a model keeps its own.  Only the
    energies, kept per model, depend on p.
    """

    def __init__(self, params: FractionalParams, workers: int = 1, store: dict | None = None):
        if params.ell != ELL:
            raise ConfigurationError(f"patch models are specialized to ell = {ELL}")
        check_pair_sum(params)
        self.params = params
        self.workers = workers
        self._frame_pts, self.h0 = _midpoint_lattice(FRAME_HALFWIDTH, FRAME_SPACING)
        self._kernel_exp = 2 + params.sp
        self._memo: dict = {}
        self._store: dict = {} if store is None else store

    def _kept(self, key, build):
        """The store's value at ``key``, built by ``build()`` on the first ask."""
        if key not in self._store:
            self._store[key] = build()
        return self._store[key]

    # -- frame-level constants ------------------------------------------------

    @cached_property
    def profile_energy(self) -> float:
        """Energy of the scalar two-bump profile over the frame box, from the frame's class matrix."""
        profile, kern = self._frame_classes()
        return 2.0 * class_pair_sum(kern, profile, self.params.p)

    @cached_property
    def plateau_kernel(self) -> float:
        """Kernel mass between the two plateau balls of the frame: the frame classes of profile +1 and -1."""
        profile, kern = self._frame_classes()
        plus, minus = (np.flatnonzero(profile == v)[0] for v in (1.0, -1.0))
        return float(2.0 * kern[plus, minus])

    @cached_property
    def collar_unit_energy(self) -> float:
        """Energy of the unit-amplitude collar profile over the patch frame, from its class matrix."""
        collar, kern = self._collar_classes()
        return 2.0 * class_pair_sum(kern, collar, self.params.p)

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
        """Cell centers, the midpoint offsets every cell shares, and their weight; kept per k."""
        def build():
            width = 2 * BLOCK_HALFWIDTH / k
            offs, cell_h = _midpoint_lattice(width / 2, width / CELL_SUBDIVISION)
            return _midpoint_lattice(BLOCK_HALFWIDTH, width)[0], offs, cell_h**2
        return self._kept(("cell lattice", k), build)

    def _background(self) -> tuple[NDArray, float]:
        """Background points of one patch frame (outside the cluster block) and their weight; kept."""
        def build():
            bg, bg_h = _midpoint_lattice(PATCH_MARGIN, COARSE_SPACING)
            return bg[np.max(np.abs(bg), axis=1) > BLOCK_HALFWIDTH], bg_h**2
        return self._kept(("background",), build)

    def _cloud_size(self, k: int) -> int:
        """Point count of the patch cloud of cluster count k: its cells' points and its background."""
        return k**2 * CELL_SUBDIVISION**2 + self._background()[0].shape[0]

    def _check_cloud_size(self, k: int) -> None:
        """BudgetError unless the patch cloud of cluster count k fits the node budget."""
        size = self._cloud_size(k)
        if size > DEFAULT_NODE_BUDGET:
            shown, budget = _over(size, DEFAULT_NODE_BUDGET)
            raise BudgetError(f"patch cloud of {shown} points > budget {budget} (cluster count "
                              f"{_count(k)}); use compositional accounting instead")

    def _class_cloud(self, k: int) -> tuple[NDArray, NDArray, NDArray]:
        """(collar, g) of each class of the patch cloud of k, and the classes of its template and background.

        The cloud is the k x k cells of `_cell_lattice(k)`, each its center
        plus the shared template offsets, and the points of `_background()`.
        A patch value is collar(x) c + A g(x) e1, so points with equal
        (collar, g) carry equal values for every spec of this k.  A cell
        point takes the class of its offset: the block lies inside the
        plateau, where `collar_factor` is exactly 1, so every cell holds the
        frame profile at its offsets scaled by 1/mu; the background lies
        outside the block, where the cluster profile is 0.  Kept per k.
        """
        def build():
            self._check_cloud_size(k)
            offs = self._cell_lattice(k)[1]
            bg = self._background()[0]
            keys = np.concatenate([
                np.column_stack([np.ones(offs.shape[0]), two_bump_profile(offs / cluster_scale(k))]),
                np.column_stack([collar_factor(bg), np.zeros(bg.shape[0])]),
            ])
            classes, labels = np.unique(keys, axis=0, return_inverse=True)
            return (classes, *np.split(labels.ravel(), [offs.shape[0]]))
        return self._kept(("cloud", k), build)

    def _classes(self, k: int) -> tuple[NDArray, NDArray, NDArray]:
        """Collar and profile of each class of `_class_cloud(k)`, and `_block(k)` (kept per q and k)."""
        classes = self._class_cloud(k)[0]
        return classes[:, 0], classes[:, 1], self._block(k)

    def _block(self, k: int, move: NDArray | None = None, outer: tuple | None = None) -> NDArray:
        """(C, C_Q) kernel of the pairs between the patch cloud P of k and a cloud Q, no pair within one cell.

        P is `_class_cloud(k)`, with C classes, one row each.  Q is one of:
        P itself (no ``move`` and no ``outer``), each pair counted once in
        one symmetric (C, C) matrix; P moved by ``move``, a frame vector of
        whole patch frames, one column per class of the copy; or
        ``outer`` = (points, weight), background points of one class (frame
        units, on P's background lattice moved by a fixed sub-step), one
        column.  Four parts are added in this order: P's cells with Q's
        cells (`_cell_pairs`), P's cells with Q's background and P's
        background with Q's cells (P's cells with P's background moved by
        -``move``), both by `_cell_kernel`, and the two backgrounds, from
        their count table (one of P's background with itself, one per
        layer with the outer points).  Kept under q, k, ``move`` and ``outer``.
        """
        key = ("block", self._kernel_exp, k, None if move is None else move.tobytes(),
               None if outer is None else (outer[0].tobytes(), outer[1]))
        if key in self._store:
            return self._store[key]
        classes, cells, bg_labels = self._class_cloud(k)
        count = classes.shape[0]
        bg, bg_w = self._background()
        at = np.zeros(ELL) if move is None else move
        if outer is None:
            points, labels, weight = bg, bg_labels, bg_w
            kern = class_bins(cells, cells, self._cell_pairs(k, move), count)
        else:
            (points, weight), labels = outer, np.zeros(outer[0].shape[0], dtype=np.int64)
            kern = np.zeros((count, 1))
        forth = self._cell_kernel(k, points, labels, weight, at)
        kern[:, :forth.shape[1]] += forth
        if move is not None:
            back = self._cell_kernel(k, bg, bg_labels, bg_w, -move)
            kern[:back.shape[1]] += back.T
        half = move is None and outer is None
        both = self._lattice_kernels(COARSE_SPACING, bg, bg_labels, points, labels,
                                     np.zeros((1, ELL)), None if half else at, bg_w * weight)[0]
        kern[:both.shape[0], :both.shape[1]] += both
        self._store[key] = symmetric(kern) if half else kern
        return self._store[key]

    def _cell_pairs(self, k: int, move=None) -> NDArray:
        """(P, P) kernel by template offsets of the pairs of two cells of k, or of k and k moved by ``move``.

        ``move`` is a frame vector of whole cell widths.  The kernel comes from
        the count table of the k x k cell centers with themselves (shared by
        every block of k): offset a against offset
        b at o_a - o_b over the half table, or at o_b - o_a over the whole
        table at the move, evaluated once per distinct difference (81 of
        the 625 pairs of a 5 x 5 template) and scattered back to (a, b).
        """
        centers, offs, cell_w = self._cell_lattice(k)
        width = 2 * BLOCK_HALFWIDTH / k
        step = width / CELL_SUBDIVISION
        index = self._index(offs, step)[0]
        diffs, inverse = np.unique((index[:, None] - index[None]).reshape(-1, offs.shape[1]),
                                   axis=0, return_inverse=True)
        one = np.zeros(centers.shape[0], dtype=np.int64)
        kern = self._lattice_kernels(width, centers, one, centers, one,
                                     (step if move is None else -step) * diffs, move, cell_w * cell_w)
        return kern[inverse.ravel(), 0, 0].reshape(offs.shape[0], offs.shape[0])

    def _cell_kernel(self, k: int, points: NDArray, labels: NDArray, weight: float, move: NDArray) -> NDArray:
        """(C_P, C_Q) kernel of the cells of the patch cloud P of k with background points Q moved by ``move``.

        P is `_class_cloud(k)`, with C_P classes; Q is ``points`` (frame
        units, one ``weight``, C_Q labels from 0), and ``move`` a frame
        vector that keeps Q on its lattice.  Two routes give the same sums,
        and the one of fewer evaluations runs, decided before any array is
        built (`_lattice_route`): `class_kernel` of P's cells and Q, or the
        count table of the cell centers against Q on their common lattice,
        evaluated at each of the P template offsets o_a.  A cell point is a
        center plus o_a, so its pairs with Q are the table's at the offset
        -o_a; each offset's row goes to its class.  The table is kept
        (`_lattice_kernels`), so the blocks of one k share one.
        """
        classes, cells, _ = self._class_cloud(k)
        count = classes.shape[0]
        centers, offs, cell_w = self._cell_lattice(k)
        spacing = self._lattice_route(k, points)
        if spacing is None:
            cell_points = (centers[:, None, :] + offs).reshape(-1, ELL)
            size = cell_points.shape[0]
            kern = class_kernel(np.concatenate([cell_points, points + move]),
                                np.concatenate([np.tile(cells, centers.shape[0]), labels + count]),
                                self._kernel_exp, weights=np.repeat([cell_w, weight], [size, points.shape[0]]),
                                split=size, workers=self.workers)
            return kern[:count, count:]
        rows = self._lattice_kernels(spacing, centers, np.zeros(centers.shape[0], dtype=np.int64),
                                     points, labels, -offs, move, cell_w * weight)[:, 0]
        return np.eye(count)[cells].T @ rows

    def _lattice_route(self, k: int, points: NDArray) -> float | None:
        """Spacing of the lattice of the cell centers of k and ``points`` if their count table is the route.

        The centers and the points lie on one lattice of spacing
        g = 1/lcm(2k, 1/``COARSE_SPACING``).  The table route evaluates the
        kernel at each of its `LatticeCounts.entries` for each of the P
        template offsets; `class_kernel` at each of the (P k^2) |Q| pairs.
        The route of fewer evaluations wins, unless the table would exceed
        ``CELL_TABLE_BUDGET`` entries: its memory grows with the entries,
        `class_kernel`'s does not.  Gives g, or None for `class_kernel`.
        The indices stay in the store for `_lattice_kernels`.
        """
        centers, offs, _ = self._cell_lattice(k)
        spacing = 1 / math.lcm(2 * k, round(1 / COARSE_SPACING))
        a, b = (self._index(x, spacing)[0] for x in (centers, points))
        entries, pairs = LatticeCounts.entries(a, b), offs.shape[0] * centers.shape[0] * points.shape[0]
        if entries > CELL_TABLE_BUDGET or entries * offs.shape[0] >= pairs:
            return None
        return spacing

    def _routes(self, ks, points=None, prefix: str = "") -> str:
        """Names the route `_lattice_route` picks for the cells of each k of ``ks`` and ``points``."""
        points, ks = self._background()[0] if points is None else points, set(ks)
        lattice = sorted(k for k in ks if self._lattice_route(k, points) is not None)
        groups = (("cell-background lattice", lattice), ("class_kernel", sorted(ks - set(lattice))))
        return "; ".join(f"{prefix}{name} k={','.join(map(str, g))}" for name, g in groups if g)

    def class_scheme(self, ks) -> str:
        """Names the route of the cell-background pairs of the class matrix of each k of ``ks``."""
        return f"class matrices kernel_exp={self._kernel_exp!r}: {self._routes(ks)}"

    def layer_scheme(self, layer: LayerSpec) -> str:
        """Names the routes of the cells of `layer_energy_direct` with cells, background and outer points."""
        ks = [default_cluster_count(layer.n, self.params.s)]
        outer = (outer_background(layer)[0] - layer.centers()[0]) / layer.placement_scale
        return (f"offset class kernels kernel_exp={self._kernel_exp!r}: cell lattice counts; "
                f"{self._routes(ks)}; {self._routes(ks, outer, 'outer ')}")

    def _index(self, points: NDArray, spacing: float) -> tuple[NDArray, NDArray]:
        """`lattice_index` of ``points`` at ``spacing``, kept in the store by content."""
        return self._kept(("index", spacing, points.tobytes()), lambda: lattice_index(points, spacing))

    def _table(self, a: NDArray, labels_a: NDArray, b: NDArray,
               labels_b: NDArray) -> tuple[LatticeCounts, NDArray]:
        """`LatticeCounts` of the index sets moved to the origin, and the translation min b - min a.

        The table is kept in the store under the moved sets and their labels.
        """
        lo_a, lo_b = a.min(axis=0), b.min(axis=0)
        a, b = a - lo_a, b - lo_b
        key = ("table", *(x.tobytes() for x in (a, labels_a, b, labels_b)))
        return self._kept(key, lambda: LatticeCounts(a, labels_a, b, labels_b)), lo_b - lo_a

    def _lattice_kernels(self, spacing: float, a: NDArray, labels_a: NDArray, b: NDArray,
                         labels_b: NDArray, offsets, move, weight: float) -> NDArray:
        """(O, C_A, C_B) kernels of the points ``a`` against ``b`` moved by ``move`` and by each offset o.

        Both point sets lie on one lattice of ``spacing``, each up to a
        sub-step offset: `lattice_index` rounds them to their indices
        within a tolerance (`_index`), `_table` gives their `LatticeCounts`
        and the translation between them, and `kernels` sums the
        table at the sub-step offset spacing (b_off - a_off) plus each o.
        Without ``move``, b is a itself and the half table gives each pair
        once; with it, the full table at the translation plus ``move`` in
        whole steps.
        """
        (a, a_off), (b, b_off) = (self._index(x, spacing) for x in (a, b))
        table, shift = self._table(a, labels_a, b, labels_b)
        shift = None if move is None else shift + np.rint(np.asarray(move) / spacing).astype(np.int64)
        return table.kernels(self._kernel_exp, spacing, spacing * (b_off - a_off) + offsets, shift, weight)

    def _collar_classes(self) -> tuple[NDArray, NDArray]:
        """Collar value of each class of the patch frame lattice and their class matrix; kept per q.

        The lattice is the background's before the cluster block is cut out,
        and its matrix comes from its count table with itself over the half
        table, as the background pairs of `_block`: one table per store,
        whatever p.
        """
        def build():
            pts, h = _midpoint_lattice(PATCH_MARGIN, COARSE_SPACING)
            collar, labels = np.unique(collar_factor(pts), return_inverse=True)
            labels = labels.ravel()
            kern = self._lattice_kernels(COARSE_SPACING, pts, labels, pts, labels,
                                         np.zeros((1, ELL)), None, h**4)[0]
            return collar, symmetric(kern)
        return self._kept(("collar", self._kernel_exp), build)

    def _frame_classes(self) -> tuple[NDArray, NDArray]:
        """Profile value of each class of the frame lattice and their `class_matrix`; kept per q."""
        return self._kept(("frame", self._kernel_exp), lambda: class_matrix(
            self._frame_pts, two_bump_profile(self._frame_pts), self._kernel_exp, self.h0**2, self.workers))

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
        """Pairs of the blocks of `layer_energy_direct` that touch a cell, by arithmetic from k and n.

        They are counted whichever route sums them (`class_kernel` or a
        count table of the cell centers); the background pairs come from
        lattice counts and are not counted.
        Each of the ((2N-1)^2 - 1)/2 half-offsets joins the cells of one patch
        cloud with the other cloud, and its background with the other's
        cells; each of the N^2 patches joins its cells with the outer
        background: (N + 1)^2 - N^2 patch frames of ``steps``^2 points.
        """
        cells = default_cluster_count(layer.n, self.params.s) ** 2 * CELL_SUBDIVISION**2
        bg = self._background()[0].shape[0]
        side, steps = 2**layer.n, round(PATCH_MARGIN / (2 * COARSE_SPACING))
        offsets = ((2 * side - 1) ** 2 - 1) // 2
        return offsets * cells * (cells + 2 * bg) + layer.count * cells * steps**2 * (2 * side + 1)

    def layer_energy_direct(self, layer: LayerSpec) -> float:
        """Composite quadrature of the glued layer (all cross pairs included).

        Every patch is the cloud P of `_class_cloud` placed by x -> sigma x + c,
        c its center and sigma `placement_scale`, so a pair of placed points
        carries sigma^(2-sp) times its frame kernel, and the pairs of the
        glued layer split four ways: within one patch (the class matrix of
        `_classes`), between the patches I and I + D for each half-offset D of
        the N x N patch grid (one `_block` of P and P moved by D patch frames
        per D, whatever the patch pair), between patch I and the outer
        background (one `_block` of P and the outer points moved into I's
        frame, one class of value 0), and within one cell (`cluster_energy`).
        The pairs of every block come from lattice sums, save the
        cell-background pairs where `class_kernel` is the cheaper route
        (`_cell_kernel`).  One stacked `class_pair_sum` sums all patches, and
        one per D all its patch pairs, the values of I against those of I + D
        (``others``).  The pair budget runs first.
        """
        key = ("layer", layer, self.params)
        if key not in self._memo:
            pairs = self._layer_pairs(layer)
            if pairs > PAIR_BUDGET:
                shown, budget = _over(pairs, PAIR_BUDGET)
                raise BudgetError(f"layer blocks at n = {layer.n} evaluate {shown} pairs > budget "
                                  f"{budget}; use compositional accounting instead")
            p, sp = self.params.p, self.params.sp
            sigma = layer.placement_scale
            spec = PatchSpec((0.0,) * ELL, layer.n, self.params)
            collar, profile, kern = self._classes(spec.k)
            vals = _values_from(collar, profile, layer.centers(), spec.amplitude)
            terms = [class_pair_sum(kern, vals, p)]
            side = 2**layer.n
            index = np.arange(layer.count).reshape(side, side)  # patch (i, j) of `centers`
            for d in half_lattice(side, ELL):
                block = self._block(spec.k, 2 * PATCH_MARGIN * d)
                di, dj = d
                firsts = index[max(0, -di):side - max(0, di), max(0, -dj):side - max(0, dj)].ravel()
                terms.append(class_pair_sum(block, vals[firsts], p, others=vals[firsts + di * side + dj]))
            outer, outer_w = outer_background(layer)
            zero = np.zeros((1, ELL))
            for v, c in zip(vals, layer.centers()):
                block = self._block(spec.k, outer=((outer - c) / sigma, outer_w / sigma**2))
                terms.append([class_pair_sum(block, v, p, others=zero)])
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

    def shift_grid(self, layer: LayerSpec) -> NDArray:
        """Dyadic centers plus a 5-point stencil per cube."""
        return (layer.centers()[:, None, :] + _stencil_offsets(layer)[None, :, :]).reshape(-1, 2)

    def layer_lowers(self, layer: LayerSpec) -> NDArray:
        """Plateau-block lower bounds summed over the contributing patches, per shift of `shift_grid`.

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
        spec = PatchSpec((0.0,) * ELL, layer.n, self.params)
        coeff = layer.placement_scale ** (2 - self.params.sp) * self.cluster_lower_constant(spec)
        return coeff * np.stack(windows, axis=-1).reshape(-1)

    def layer_ratio(self, layer: LayerSpec) -> tuple[float, float, float, NDArray]:
        """(inf-shift lower, upper, ratio, argmin shift) of one layer; lower is the least `layer_lowers` entry."""
        lowers = self.layer_lowers(layer)  # first: the table budget precedes any array
        best = int(np.argmin(lowers))
        # the row `best` of `shift_grid`, by the same float addition
        best_shift = layer.centers()[best // 5] + _stencil_offsets(layer)[best % 5]
        upper = self.layer_upper_compositional(layer)
        lower = float(lowers[best])
        return lower, upper, lower / upper, best_shift
