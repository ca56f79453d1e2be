"""Tiled pairwise kernel summation with deterministic reduction.

Computes sums of the form

    S = sum_{i < j} w_i w_j |v_i - v_j|^p / |x_i - x_j|^q

over a weighted point cloud, excluding the diagonal.  The upper triangle
of the pair matrix is cut into tiles: row slab [a, a + TILE_ROWS) meets
the columns from a onward in chunks of ``block``.  One walk (`_walk`)
serves every engine: it lists the tiles of one row slab at a time, drops
the tiles whose pairs all share one nonnegative group (their kernel is
zero), runs a task on each remaining tile on up to ``workers`` threads
and yields the results in tile order.  Partial sums are combined by a
pairwise tree reduction in that order, so the result is bit-stable for
any worker count.

A tile's kernel w_i w_j |x_i - x_j|^-q, with the diagonal, same-group
and coincident pairs zeroed, depends on the geometry only.
``pair_kernel_sum`` takes a stack of value sets: each kernel tile is
computed once, applied to every value set for which it is live while it
is in cache, and discarded.  A tile is dead for a value set whose two
value blocks hold one and the same constant (every numerator is zero).

When the values are a function of a class label with few classes,
``class_kernel`` sums the kernel tiles once into a (C, C) matrix per pair
of classes, and ``class_pair_sum`` gives the pair sum of any such value
set from C^2 / 2 numerators.  ``cell_lattice_kernel`` gives the kernel
between the points of a lattice of congruent cells by their index
difference.

An optional integer group id per point supports composite quadratures:
pairs within the same nonnegative group are excluded (they are accounted
for separately, e.g. by an exact rescaling identity).  Group id -1 means
"no group"; such self-pairs are kept.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from numpy.typing import NDArray

TILE_ROWS = 128
DEFAULT_BLOCK = 512
LATTICE_CHUNK = 32  # displacements per block of cell_lattice_kernel
TILE_CHUNK = 1024  # tiles per thread pool of the walk (their results are held at once)
CLASS_TERMS = 2**16  # terms per term array of a stacked class_pair_sum


def tree_reduce(values, empty=0.0):
    """Sum floats or arrays by a fixed pairwise tree in the order given.

    Neighbours are paired level by level, an odd last one carried up; the
    sum streams, holding O(log n) subtotals (``empty`` for no values).
    The order depends on the input order alone, not on the worker count.
    """
    stack = []  # (leaf count, subtotal), leaf counts strictly decreasing
    for part in values:
        size = 1
        while stack and stack[-1][0] == size:
            size, part = 2 * size, stack.pop()[1] + part
        stack.append((size, part))
    total = stack.pop()[1] if stack else empty
    while stack:
        total = stack.pop()[1] + total
    return total


def _slab_tiles(a0: int, n: int, block: int) -> list[tuple[int, int, int, int]]:
    """(row start, row stop, column start, column stop) of the tiles of row slab a0."""
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    return [(a0, min(a0 + TILE_ROWS, n), b0, min(b0 + block, n)) for b0 in range(a0, n, block)]


def _as_values(values: NDArray) -> NDArray:
    vals = np.ascontiguousarray(values, dtype=float)
    return vals[:, None] if vals.ndim == 1 else vals


def _drop_masks(drop, sets: int, n: int) -> NDArray | None:
    """The (sets, n) mask of ``drop``: () for none (gives None), (n,) for one set or (sets, n)."""
    if not len(drop):
        return None
    mask = np.asarray(drop, dtype=bool)
    if mask.shape not in ((n,), (sets, n)) or mask.size != sets * n:
        raise ValueError(f"{sets} value sets of {n} points but drop sets of shape {mask.shape}")
    return mask.reshape(sets, n)


def _run_ends(keys: NDArray) -> NDArray:
    """Per index: one past the end of the run of equal key rows that holds it."""
    n = keys.shape[0]
    breaks = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    return np.append(breaks, n)[np.searchsorted(breaks, np.arange(n), side="right")]


def _one_group_tiles(groups: NDArray | None, tiles: list, run_end: NDArray | None = None) -> NDArray:
    """Tiles whose rows and columns all carry one nonnegative group id (kernel all zero).

    ``run_end`` is `_run_ends` of the groups, computed here when not given.
    """
    if groups is None:
        return np.zeros(len(tiles), dtype=bool)
    run_end = _run_ends(groups[:, None]) if run_end is None else run_end
    a0, a1, b0, b1 = np.asarray(tiles, dtype=np.int64).reshape(-1, 4).T
    same = (run_end[a0] >= a1) & (run_end[b0] >= b1) & (groups[a0] == groups[b0])
    return same & (groups[a0] >= 0)


class _Scratch:
    """One thread's tile-sized work buffers."""

    def __init__(self, size: int):
        self._f = (np.empty(size), np.empty(size), np.empty(size))
        self._mask = np.empty(size, dtype=bool)

    def views(self, rows: int, cols: int):
        k = rows * cols
        f0, f1, f2 = (b[:k].reshape(rows, cols) for b in self._f)
        return f0, f1, f2, self._mask[:k].reshape(rows, cols)


def _map_tiles(fn, tiles: list, block: int, workers: int) -> list:
    """[fn(tile, scratch) for tile in tiles], run by up to ``workers`` threads.

    At most ``os.cpu_count()`` threads start, whatever ``workers`` asks for.
    """
    size = TILE_ROWS * block
    threads = min(workers, len(tiles), os.cpu_count() or 1)
    if threads <= 1:
        scratch = _Scratch(size)
        return [fn(t, scratch) for t in tiles]
    out = [None] * len(tiles)
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

    with ThreadPoolExecutor(max_workers=threads) as pool:
        for f in [pool.submit(drain) for _ in range(threads)]:
            f.result()
    return out


def _walk(geo: _Geometry, task, block: int, workers: int):
    """Yield task(tile, scratch) for each tile not inside one nonnegative group, in tile order.

    The tiles are listed one row slab at a time and mapped ``TILE_CHUNK``
    per thread pool, so the tile list is never held whole.
    """
    run_end = None if geo.g is None else _run_ends(geo.g[:, None])

    def tiles():
        for a0 in range(0, geo.n, TILE_ROWS):
            slab = _slab_tiles(a0, geo.n, block)
            yield from itertools.compress(slab, ~_one_group_tiles(geo.g, slab, run_end))

    walk = tiles()
    while chunk := list(itertools.islice(walk, TILE_CHUNK)):
        yield from _map_tiles(task, chunk, block, workers)


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
    """Sum over the tile of |v_i - v_j|^p times the kernel tile, pairs of ``drop`` points zeroed."""
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
    if drop is not None:
        buf[drop[a0:a1], :] = 0.0
        buf[:, drop[b0:b1]] = 0.0
    return float(buf.sum())


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
    drop : boolean mask of the points whose pairs are left out: (N,) for
        one value set, (S, N) for a stack, or empty for none

    One value set gives a float.  A stack gives the (S,) array of its sums:
    each kernel tile is computed once and applied to every set for which
    the tile is live, and each set is reduced by its own tree over its own
    live tiles, so every sum equals the call on that set alone bit for bit.
    """
    geo = _Geometry(points, q, weights, groups)
    single = np.ndim(values) < 3
    stack = _as_values(values)[None] if single else np.ascontiguousarray(values, dtype=float)
    hits = _drop_masks(drop, *stack.shape[:2])
    cuts = [None] * stack.shape[0] if hits is None else [h if h.any() else None for h in hits]
    ends = np.array([_run_ends(vals) for vals in stack]).reshape(stack.shape[:2])

    def run(tile, scratch):
        a0, a1, b0, b1 = tile
        live = np.flatnonzero((ends[:, a0] < a1) | (ends[:, b0] < b1)
                              | np.any(stack[:, a0] != stack[:, b0], axis=1))
        if not live.size:
            return live, []
        kern, buf, tmp, mask = scratch.views(a1 - a0, b1 - b0)
        geo.kernel_tile(tile, kern, tmp, mask)
        return live, [_numerator_sum(stack[k], p, tile, kern, buf, tmp, cuts[k]) for k in live]

    partials = [[] for _ in stack]
    for live, sums in _walk(geo, run, block, workers):
        for k, part in zip(live, sums):
            partials[k].append(part)
    sums = [tree_reduce(part) for part in partials]
    return sums[0] if single else np.array(sums)


def class_kernel(
    points: NDArray,
    labels: NDArray,
    q: float,
    weights: NDArray | float = 1.0,
    groups: NDArray | None = None,
    block: int = DEFAULT_BLOCK,
    workers: int = 1,
) -> NDArray:
    """(C, C) kernel of the live pairs between the value classes of a cloud.

    ``labels`` puts point i in class labels[i] of [0, C).  Entry [c, c']
    is sum w_i w_j |x_i - x_j|^-q over the unordered pairs with one point
    in class c and the other in c' (for c = c', both in c), with the same
    pairs left out as in `pair_kernel_sum`; the matrix is symmetric.  For
    any values that are a function of the class, V_c at class c,

        pair_kernel_sum = sum_{c < c'} K[c, c'] |V_c - V_c'|^p   (`class_pair_sum`).

    The points are first put in (group, label) order, which leaves the
    pair set unchanged, keeps each group in one run and lays the labels in
    runs, so the rows and the columns of a tile meet only a few classes.
    The tiles come from the walk of `pair_kernel_sum`.  Each tile's kernel
    is summed over its blocks of one row run and one column run
    (`_run_sums`), so what a tile does while holding the GIL is a few small
    calls, not a pass over its pairs.  The partials are binned into (C, C)
    and combined by a pairwise tree in tile order, so the result is
    bit-identical for any worker count.
    """
    lab = np.ascontiguousarray(labels, dtype=np.int64).ravel()
    count = int(lab.max()) + 1 if lab.size else 0
    order = np.argsort(lab, kind="stable") if groups is None else np.lexsort((lab, groups))
    w = weights if np.isscalar(weights) else np.asarray(weights, dtype=float)[order]
    geo = _Geometry(np.asarray(points, dtype=float)[order], q, w,
                    None if groups is None else np.asarray(groups)[order])
    lab = lab[order]
    run_starts = np.flatnonzero(lab[1:] != lab[:-1]) + 1

    def partial(tile, scratch):
        a0, a1, b0, b1 = tile
        kern, _, tmp, mask = scratch.views(a1 - a0, b1 - b0)
        rows, cols = _runs(run_starts, a0, a1), _runs(run_starts, b0, b1)
        sums = _run_sums(geo.kernel_tile(tile, kern, tmp, mask), rows - a0, cols - b0)
        return lab[rows], lab[cols], sums

    parts = (class_bins(rows, cols, sums, count)
             for rows, cols, sums in _walk(geo, partial, block, workers))
    return symmetric(tree_reduce(parts, np.zeros((count, count))))


def _runs(run_starts: NDArray, i0: int, i1: int) -> NDArray:
    """First index of each run of equal labels in [i0, i1); ``run_starts`` are the cloud's."""
    inside = run_starts[np.searchsorted(run_starts, i0, side="right"):
                        np.searchsorted(run_starts, i1, side="left")]
    return np.concatenate([[i0], inside])


def _run_sums(tile: NDArray, rows: NDArray, cols: NDArray) -> NDArray:
    """Sums of the tile's blocks between the row runs and the column runs starting at rows, cols."""
    return np.add.reduceat(np.add.reduceat(tile, cols, axis=1), rows, axis=0)


def class_bins(rows: NDArray, cols: NDArray, values: NDArray, count: int) -> NDArray:
    """(count, count) sums of the (R, S) ``values`` by (class rows[i], class cols[j])."""
    index = rows[:, None] * count + cols
    return np.bincount(index.ravel(), weights=values.ravel(),
                       minlength=count * count).reshape(count, count)


def symmetric(ordered: NDArray) -> NDArray:
    """The symmetric class matrix of a sum over ordered class pairs (diagonal kept once)."""
    out = ordered + ordered.T
    np.fill_diagonal(out, ordered.diagonal())
    return out


def class_pair_sum(kernel: NDArray, values: NDArray, p: float, drop=()) -> float | NDArray:
    """sum_{c < c'} K[c, c'] |V_c - V_c'|^p, the pairs touching a ``drop`` class left out.

    ``values`` holds one value (or value vector) per class, giving a float,
    or is an (S, C, nu) stack of value sets, giving their (S,) sums;
    ``drop`` is a (C,) or (S, C) boolean class mask.  Each value set's terms
    are summed by one `math.fsum`, so its sum is the same bit for bit
    whatever else is computed with it.
    """
    single = np.ndim(values) < 3
    stack = _as_values(values)[None] if single else np.asarray(values, dtype=float)
    hit = _drop_masks(drop, stack.shape[0], kernel.shape[0])
    rows, cols = np.triu_indices(kernel.shape[0], 1)
    step = max(1, CLASS_TERMS // max(rows.size, 1))
    sums = []
    for s0 in range(0, stack.shape[0], step):
        part = stack[s0:s0 + step]
        diff = (part[:, rows] - part[:, cols]).reshape(-1, stack.shape[2])
        norms = np.einsum("ij,ij->i", diff, diff).reshape(part.shape[0], -1)
        terms = kernel[rows, cols] * norms ** (0.5 * p)
        if hit is not None:
            terms[hit[s0:s0 + step, rows] | hit[s0:s0 + step, cols]] = 0.0
        sums.extend(math.fsum(t) for t in terms)
    return sums[0] if single else np.array(sums)


def half_lattice(k: int, m: int) -> NDArray:
    """Index differences D in [1-k, k-1]^m whose first nonzero entry is positive, lexicographic."""
    span = np.arange(1 - k, k)
    disp = np.stack(np.meshgrid(*([span] * m), indexing="ij"), axis=-1).reshape(-1, m)
    return disp[disp.shape[0] // 2 + 1:]  # lexicographic order: the D after D = 0 are D > 0


def cell_lattice_kernel(offsets: NDArray, q: float, weight: float, width: float, k: int) -> NDArray:
    """(P, P) kernel of the pairs that join two different cells of a k^m cell lattice.

    Every cell holds the same P local ``offsets`` with the same point
    ``weight``; the cell of lattice index J sits at ``width * J``.  Exactly
    prod_i (k - |D_i|) ordered cell pairs have the index difference D, and
    D and -D contribute alike, so for values v_a that every cell shares at
    offset a the pair sum over all pairs of distinct cells is
    sum_{a, b} K[a, b] |v_a - v_b|^p with

        K[a, b] = w^2 sum_{D > 0} prod_i (k - |D_i|) |width D + o_a - o_b|^-q

    over the half lattice of D whose first nonzero entry is positive:
    (2k - 1)^m / 2 kernel blocks of P^2 values instead of (P k^m)^2 / 2
    pairs.  The displacements are streamed ``LATTICE_CHUNK`` at a time.
    Offsets must lie strictly inside the cell, so no two points of
    different cells coincide.
    """
    offs = np.ascontiguousarray(offsets, dtype=float)
    size, m = offs.shape
    rel = offs[:, None, :] - offs[None, :, :]
    disp = half_lattice(k, m)
    count = np.prod(k - np.abs(disp), axis=1).astype(float)

    def chunks():
        for c0 in range(0, disp.shape[0], LATTICE_CHUNK):
            c1 = c0 + LATTICE_CHUNK
            sep = width * disp[c0:c1, None, None, :] + rel
            kern = np.einsum("dabi,dabi->dab", sep, sep) ** (-0.5 * q)
            yield count[c0:c1] @ kern.reshape(kern.shape[0], -1)

    return weight * weight * tree_reduce(chunks(), np.zeros(size * size)).reshape(size, size)
