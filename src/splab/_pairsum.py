"""Tiled pairwise kernel summation with deterministic reduction.

Computes sums of the form

    S = sum_{i < j} w_i w_j |v_i - v_j|^p / |x_i - x_j|^q

over a weighted point cloud, excluding the diagonal.  The upper triangle
of the pair matrix is cut into tiles: row slab [a, a + TILE_ROWS) meets
the columns from a onward in chunks of ``block``.  Per-tile partial sums
are combined by a pairwise tree reduction in fixed tile order, so the
result is bit-stable for any worker count.  Tiles whose two value blocks
hold one and the same constant, and tiles whose pairs all share one
nonnegative group, are skipped exactly (their contribution is zero).

A tile's kernel w_i w_j |x_i - x_j|^-q, with the diagonal, same-group
and coincident pairs zeroed, depends on the geometry only.  Both entry
points take a stack of value sets and run one tile loop: each kernel
tile is applied to every value set for which it is live while it is in
cache.  A ``KernelPlan`` computes every kernel tile once and keeps it
(8 B per pair), so each further value set costs only the numerator;
``pair_kernel_sum`` computes each kernel tile in the loop and discards
it.  ``cell_lattice_sum`` sums the pairs between the cells of a lattice
of congruent cells by their index difference.

An optional integer group id per point supports composite quadratures:
pairs within the same nonnegative group are excluded (they are accounted
for separately, e.g. by an exact rescaling identity).  Group id -1 means
"no group"; such self-pairs are kept.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.typing import NDArray

TILE_ROWS = 128
DEFAULT_BLOCK = 512
LATTICE_CHUNK = 32  # displacements per block of cell_lattice_sum


def tree_reduce(values) -> float:
    """Sum a list of floats by fixed pairwise tree; order independent of workers."""
    vals = list(values)
    if not vals:
        return 0.0
    while len(vals) > 1:
        nxt = []
        for i in range(0, len(vals) - 1, 2):
            nxt.append(vals[i] + vals[i + 1])
        if len(vals) % 2:
            nxt.append(vals[-1])
        vals = nxt
    return float(vals[0])


def _tiles(n: int, block: int) -> list[tuple[int, int, int, int]]:
    """(row start, row stop, column start, column stop) of every upper-triangle tile."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return [
        (a0, min(a0 + TILE_ROWS, n), b0, min(b0 + block, n))
        for a0 in range(0, n, TILE_ROWS)
        for b0 in range(a0, n, block)
    ]


def _as_values(values: NDArray) -> NDArray:
    vals = np.ascontiguousarray(values, dtype=float)
    return vals[:, None] if vals.ndim == 1 else vals


def _drop_index(drop) -> NDArray | None:
    return np.unique(np.asarray(drop, dtype=np.int64)) if len(drop) else None


def _within_runs(keys: NDArray, tiles: list) -> NDArray:
    """Per tile: do its row block and its column block lie in runs of one and the same key row?"""
    n = keys.shape[0]
    breaks = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    run_end = np.append(breaks, n)[np.searchsorted(breaks, np.arange(n), side="right")]
    a0, a1, b0, b1 = np.asarray(tiles, dtype=np.int64).reshape(-1, 4).T
    return (run_end[a0] >= a1) & (run_end[b0] >= b1) & np.all(keys[a0] == keys[b0], axis=1)


def _one_group_tiles(groups: NDArray | None, tiles: list) -> NDArray:
    """Tiles whose rows and columns all carry one nonnegative group id (kernel all zero)."""
    if groups is None:
        return np.zeros(len(tiles), dtype=bool)
    first_rows = np.asarray(tiles, dtype=np.int64).reshape(-1, 4)[:, 0]
    return _within_runs(groups[:, None], tiles) & (groups[first_rows] >= 0)


def _live_tiles(stack: NDArray, tiles: list, groups: NDArray | None) -> NDArray:
    """(S, T) mask of the tiles that can contribute for each value set of the stack.

    A tile is dead when its two value blocks hold one identical constant
    (every numerator is zero) or when one group holds all its pairs.
    """
    grouped = _one_group_tiles(groups, tiles)
    dead = np.array([_within_runs(vals, tiles) | grouped for vals in stack], dtype=bool)
    return ~dead.reshape(len(stack), len(tiles))


class _Scratch:
    """One thread's tile-sized work buffers."""

    def __init__(self, size: int):
        self._f = (np.empty(size), np.empty(size), np.empty(size))
        self._mask = np.empty(size, dtype=bool)

    def views(self, rows: int, cols: int):
        k = rows * cols
        f0, f1, f2 = (b[:k].reshape(rows, cols) for b in self._f)
        return f0, f1, f2, self._mask[:k].reshape(rows, cols)


def _map_tiles(fn, tiles: list, block: int, workers: int) -> list[float]:
    """[fn(tile, scratch) for tile in tiles], run by up to ``workers`` threads."""
    size = TILE_ROWS * block
    if workers <= 1 or len(tiles) <= 1:
        scratch = _Scratch(size)
        return [fn(t, scratch) for t in tiles]
    out = [0.0] * len(tiles)
    order = iter(range(len(tiles)))
    lock = threading.Lock()

    def drain():
        scratch = _Scratch(size)
        while True:
            with lock:
                i = next(order, None)
            if i is None:
                return
            out[i] = fn(tiles[i], scratch)

    with ThreadPoolExecutor(max_workers=workers) as pool:
        for f in [pool.submit(drain) for _ in range(min(workers, len(tiles)))]:
            f.result()
    return out


class _Geometry:
    """Points, weights and groups of one cloud; fills kernel tiles."""

    def __init__(self, points: NDArray, q: float, weights, groups):
        self.pts = np.ascontiguousarray(points, dtype=float)
        self.n = self.pts.shape[0]
        self.q = q
        if np.isscalar(weights):
            self.w = None if weights == 1.0 else np.full(self.n, float(weights))
        else:
            self.w = np.ascontiguousarray(weights, dtype=float)
        self.g = None if groups is None else np.ascontiguousarray(groups, dtype=np.int64)

    def kernel_tile(self, tile, out: NDArray, tmp: NDArray, mask: NDArray) -> NDArray:
        """Fill ``out`` with the tile's w_i w_j |x_i - x_j|^-q, excluded pairs zeroed."""
        a0, a1, b0, b1 = tile
        pts = self.pts
        np.subtract.outer(pts[a0:a1, 0], pts[b0:b1, 0], out=out)
        out *= out
        for k in range(1, pts.shape[1]):
            np.subtract.outer(pts[a0:a1, k], pts[b0:b1, k], out=tmp)
            tmp *= tmp
            out += tmp
        np.less_equal(out, 0.0, out=mask)
        coincident = bool(mask.any())
        if coincident:
            np.copyto(out, 1.0, where=mask)
        np.power(out, -0.5 * self.q, out=out)
        if coincident:
            np.copyto(out, 0.0, where=mask)
        if self.w is not None:
            out *= self.w[a0:a1, None]
            out *= self.w[b0:b1]
        if self.g is not None:
            gx = self.g[a0:a1]
            np.equal.outer(gx, self.g[b0:b1], out=mask)
            mask &= (gx >= 0)[:, None]
            np.copyto(out, 0.0, where=mask)
        if b0 < a1:  # the tile reaches the diagonal: keep column > row only
            out[np.tril_indices(a1 - a0, a0 - b0, b1 - b0)] = 0.0
        return out


def _numerator_sum(vals: NDArray, p: float, tile, kern: NDArray, buf: NDArray, tmp: NDArray,
                   drop: NDArray | None = None) -> float:
    """Sum over the tile of |v_i - v_j|^p times the kernel tile, in place in ``buf``."""
    a0, a1, b0, b1 = tile
    np.subtract.outer(vals[a0:a1, 0], vals[b0:b1, 0], out=buf)
    buf *= buf
    for k in range(1, vals.shape[1]):
        np.subtract.outer(vals[a0:a1, k], vals[b0:b1, k], out=tmp)
        tmp *= tmp
        buf += tmp
    if p != 2.0:
        np.power(buf, 0.5 * p, out=buf)
    buf *= kern
    if drop is not None and drop.size:
        buf[drop[(drop >= a0) & (drop < a1)] - a0, :] = 0.0
        buf[:, drop[(drop >= b0) & (drop < b1)] - b0] = 0.0
    return float(buf.sum())


def _drop_sets(count: int, drops) -> list:
    """One drop set per value set: ``drops`` itself, or ``count`` empty sets if it is empty."""
    drops = list(drops) or [()] * count
    if len(drops) != count:
        raise ValueError(f"{count} value sets but {len(drops)} drop sets")
    return drops


def _value_stack(values: NDArray, drop) -> tuple[bool, NDArray, list]:
    """(single set?, (S, N, nu) value stack, per-set drop index arrays) of a sum's input."""
    single = np.ndim(values) < 3
    stack = _as_values(values)[None] if single else np.ascontiguousarray(values, dtype=float)
    drops = _drop_sets(stack.shape[0], [drop] if single else drop)
    return single, stack, [_drop_index(d) for d in drops]


def _stacked_sums(stack: NDArray, p: float, cuts: list, tiles: list, groups: NDArray | None,
                  block: int, workers: int, kernel) -> NDArray:
    """(S,) pair sums of a value stack; ``kernel(i, scratch)`` gives tile i's kernel.

    The kernel may fill any scratch buffer but the second, which holds the
    numerators.  Each live tile's kernel is applied to every set for which
    it is live, and each set is reduced by its own tree over its own live
    tiles, so every sum equals the sum of that set alone bit for bit.
    """
    live = _live_tiles(stack, tiles, groups)
    partials = np.zeros(live.shape)

    def run(i, scratch):
        a0, a1, b0, b1 = tile = tiles[i]
        kern = kernel(i, scratch)
        _, buf, tmp, _ = scratch.views(a1 - a0, b1 - b0)
        for k in np.flatnonzero(live[:, i]):
            partials[k, i] = _numerator_sum(stack[k], p, tile, kern, buf, tmp, cuts[k])

    _map_tiles(run, np.flatnonzero(live.any(axis=0)), block, workers)
    return np.array([tree_reduce(partials[k, live[k]].tolist()) for k in range(stack.shape[0])])


class KernelPlan:
    """Kernel tiles of one point set, computed once and kept for many value sets.

    Memory is 8 B per stored pair (the upper triangle plus one
    TILE_ROWS-wide triangle per row slab).  ``sum`` gives the same tile
    partition, hence the same reduction order, for every worker count.
    """

    def __init__(
        self,
        points: NDArray,
        q: float,
        weights: NDArray | float = 1.0,
        groups: NDArray | None = None,
        workers: int = 1,
    ):
        geo = _Geometry(points, q, weights, groups)
        self.n = geo.n
        self.groups = geo.g
        self.tiles = _tiles(self.n, DEFAULT_BLOCK)

        def build(tile, scratch):
            a0, a1, b0, b1 = tile
            _, tmp, _, mask = scratch.views(a1 - a0, b1 - b0)
            return geo.kernel_tile(tile, np.empty((a1 - a0, b1 - b0)), tmp, mask)

        self.kernels = _map_tiles(build, self.tiles, DEFAULT_BLOCK, workers)

    def sum(self, values: NDArray, p: float, workers: int = 1, drop=()) -> float | NDArray:
        """Pair sum of one value set, or the (S,) sums of an (S, N, nu) stack.

        Pairs touching a ``drop`` index are left out; for a stack, ``drop``
        holds one index set per value set (or is empty for none).
        """
        single, stack, cuts = _value_stack(values, drop)
        if stack.shape[1] != self.n:
            raise ValueError(f"plan holds {self.n} points, got {stack.shape[1]} values")
        sums = _stacked_sums(stack, p, cuts, self.tiles, self.groups, DEFAULT_BLOCK, workers,
                             lambda i, scratch: self.kernels[i])
        return float(sums[0]) if single else sums


def pair_kernel_sum(
    points: NDArray,
    values: NDArray,
    p: float,
    q: float,
    weights: NDArray | float = 1.0,
    groups: NDArray | None = None,
    block: int = DEFAULT_BLOCK,
    workers: int = 1,
    drop=(),
) -> float | NDArray:
    """Off-diagonal weighted kernel sum over unordered pairs (counted once).

    Parameters
    ----------
    points : (N, m) coordinates
    values : (N, nu) or (N,) map values, or an (S, N, nu) stack of S value sets
    p : numerator exponent applied to |v_i - v_j|
    q : kernel exponent applied to |x_i - x_j|
    weights : scalar or (N,) quadrature weights
    groups : optional (N,) int ids; pairs sharing a nonnegative id are skipped
    block : columns per tile; part of the reduction order
    workers : thread count; results are identical for any value
    drop : point indices whose pairs are left out; for a stack, one index
        set per value set (or empty for none)

    One value set gives a float.  A stack gives the (S,) array of its sums:
    each kernel tile is computed once and applied to every set for which
    the tile is live, and each set is reduced by its own tree over its own
    live tiles, so every sum equals the call on that set alone bit for bit.
    """
    geo = _Geometry(points, q, weights, groups)
    single, stack, cuts = _value_stack(values, drop)
    tiles = _tiles(geo.n, block)

    def kernel(i, scratch):
        a0, a1, b0, b1 = tiles[i]
        kern, _, tmp, mask = scratch.views(a1 - a0, b1 - b0)
        return geo.kernel_tile(tiles[i], kern, tmp, mask)

    sums = _stacked_sums(stack, p, cuts, tiles, geo.g, block, workers, kernel)
    return float(sums[0]) if single else sums


def cell_lattice_sum(
    offsets: NDArray,
    values: NDArray,
    p: float,
    q: float,
    weight: float,
    width: float,
    k: int,
) -> float:
    """Pair sum over the pairs that join two different cells of a k^m cell lattice.

    Every cell carries the same ``values`` at the same local ``offsets``
    and the same point ``weight``; the cell of lattice index J sits at
    ``width * J``.  Exactly prod_i (k - |D_i|) ordered cell pairs have the
    index difference D, and D and -D contribute alike, so the sum is

        sum_{D > 0} prod_i (k - |D_i|) sum_{a, b} w^2 |v_a - v_b|^p |width D + o_a - o_b|^-q

    over the half lattice of D whose first nonzero entry is positive:
    (2k - 1)^m / 2 kernel blocks of P^2 values (P points per cell) instead
    of (P k^m)^2 / 2 pairs.  The displacements are streamed
    ``LATTICE_CHUNK`` at a time.  Offsets must lie strictly inside the
    cell, so no two points of different cells coincide.
    """
    offs = np.ascontiguousarray(offsets, dtype=float)
    vals = _as_values(values)
    m = offs.shape[1]
    dv = vals[:, None, :] - vals[None, :, :]
    num = weight * weight * np.einsum("abi,abi->ab", dv, dv) ** (0.5 * p)
    rel = offs[:, None, :] - offs[None, :, :]
    span = np.arange(1 - k, k)
    disp = np.stack(np.meshgrid(*([span] * m), indexing="ij"), axis=-1).reshape(-1, m)
    disp = disp[disp.shape[0] // 2 + 1:]  # lexicographic order: the D after D = 0 are D > 0
    count = np.prod(k - np.abs(disp), axis=1).astype(float)
    parts = []
    for c0 in range(0, disp.shape[0], LATTICE_CHUNK):
        c1 = c0 + LATTICE_CHUNK
        sep = width * disp[c0:c1, None, None, :] + rel
        kern = np.einsum("dabi,dabi->dab", sep, sep) ** (-0.5 * q)
        parts.append(float(count[c0:c1] @ (kern.reshape(kern.shape[0], -1) @ num.ravel())))
    return tree_reduce(parts)
