"""Tiled pairwise kernel summation with deterministic reduction.

Computes sums of the form

    S = sum_{i < j} w_i w_j |v_i - v_j|^p / |x_i - x_j|^q

over a weighted point cloud, excluding the diagonal.  The upper triangle
of the pair matrix is cut into tiles: row slab [a, a + TILE_ROWS) meets
the columns from a onward in chunks of ``block``.  Per-tile partial sums
are combined by a pairwise tree reduction in fixed tile order, so the
result is bit-stable for any worker count.  Tiles whose two value blocks
hold one and the same constant are skipped exactly (their contribution
is zero).

A tile's kernel w_i w_j |x_i - x_j|^-q, with the diagonal, same-group
and coincident pairs zeroed, depends on the geometry only.  A
``KernelPlan`` computes every kernel tile once and keeps it (8 B per
pair), so each further value set costs only the numerator.
``pair_kernel_sum`` is the one-shot pass through the same tile code:
each kernel tile is computed, used and discarded.

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


def _varying_tiles(vals: NDArray, tiles: list) -> list[int]:
    """Indices of the tiles not made of two blocks of one identical constant."""
    n = vals.shape[0]
    breaks = np.flatnonzero(np.any(vals[1:] != vals[:-1], axis=1)) + 1
    run_end = np.append(breaks, n)[np.searchsorted(breaks, np.arange(n), side="right")]
    return [
        i for i, (a0, a1, b0, b1) in enumerate(tiles)
        if not (run_end[a0] >= a1 and run_end[b0] >= b1 and np.array_equal(vals[a0], vals[b0]))
    ]


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
        self.tiles = _tiles(self.n, DEFAULT_BLOCK)

        def build(tile, scratch):
            a0, a1, b0, b1 = tile
            _, tmp, _, mask = scratch.views(a1 - a0, b1 - b0)
            return geo.kernel_tile(tile, np.empty((a1 - a0, b1 - b0)), tmp, mask)

        self.kernels = _map_tiles(build, self.tiles, DEFAULT_BLOCK, workers)

    def sum(self, values: NDArray, p: float, workers: int = 1, drop=()) -> float:
        """Pair sum for one value set; pairs touching a ``drop`` index are left out."""
        vals = _as_values(values)
        if vals.shape[0] != self.n:
            raise ValueError(f"plan holds {self.n} points, got {vals.shape[0]} values")
        cut = np.unique(np.asarray(drop, dtype=np.int64)) if len(drop) else None
        live = _varying_tiles(vals, self.tiles)

        def run(i, scratch):
            a0, a1, b0, b1 = tile = self.tiles[i]
            buf, tmp, _, _ = scratch.views(a1 - a0, b1 - b0)
            return _numerator_sum(vals, p, tile, self.kernels[i], buf, tmp, cut)

        return tree_reduce(_map_tiles(run, live, DEFAULT_BLOCK, workers))


def pair_kernel_sum(
    points: NDArray,
    values: NDArray,
    p: float,
    q: float,
    weights: NDArray | float = 1.0,
    groups: NDArray | None = None,
    block: int = DEFAULT_BLOCK,
    workers: int = 1,
) -> float:
    """Off-diagonal weighted kernel sum over unordered pairs (counted once).

    Parameters
    ----------
    points : (N, m) coordinates
    values : (N, nu) map values
    p : numerator exponent applied to |v_i - v_j|
    q : kernel exponent applied to |x_i - x_j|
    weights : scalar or (N,) quadrature weights
    groups : optional (N,) int ids; pairs sharing a nonnegative id are skipped
    block : columns per tile; part of the reduction order
    workers : thread count; results are identical for any value
    """
    geo = _Geometry(points, q, weights, groups)
    vals = _as_values(values)
    tiles = _tiles(geo.n, block)
    live = [tiles[i] for i in _varying_tiles(vals, tiles)]

    def run(tile, scratch):
        a0, a1, b0, b1 = tile
        kern, buf, tmp, mask = scratch.views(a1 - a0, b1 - b0)
        geo.kernel_tile(tile, kern, tmp, mask)
        return _numerator_sum(vals, p, tile, kern, buf, tmp)

    return tree_reduce(_map_tiles(run, live, block, workers))
