"""One pair-sum walk and one lattice-count engine, both with deterministic reduction.

The walk computes sums of the form

    S = sum_{i < j} w_i w_j |v_i - v_j|^p / |x_i - x_j|^q

over a weighted point cloud, the diagonal excluded.  `_tiles` cuts the
pairs into tiles (row slab [a, a + TILE_ROWS) against columns in chunks
of ``block``): the upper triangle of the pair matrix, or the rectangle
between the two sides of a split.  `_walk` runs a task on every tile on
up to ``workers`` threads and yields the results in tile order, which a
pairwise tree combines, so the result is bit-stable for any worker count.
The tiles of a walk run on one thread pool kept for the life of the
process, or inline when a chunk is too small to repay the hand-off.
``pair_kernel_sum`` applies each kernel tile to a whole stack of value
sets; ``class_kernel`` sums the tiles into a (C, C) matrix per pair of
value classes, from which ``class_pair_sum`` gives the pair sum of any
class-valued set.  Squared distances come from `_squared_distances` (a value
stack is read in place), the numerator's power from square roots
(`_root_power`).  A set of unit 2-vectors can instead be given by half
angles (`to_half_angles`, in place): for v = (cos t, sin t) and
h = +-(cos t/2, sin t/2), |v_i - v_j| = 2 |h_i x h_j|, so its numerator is
one cross product, a tile's cross products one (R, 2) @ (2, C) matrix
product (`_cross_products`), and its |.|^p the same root power.

The engine, ``LatticeCounts``, counts the label pairs of two labelled
sets on one lattice (``lattice_index`` reads the indices from
coordinates) at each index difference once, by an FFT correlation
rounded to integers (for a set with itself, only the label pairs
a <= b); its one method, ``kernels``, gives their class matrices at a
few offsets, over the whole table at an integer translation or over
half of it for a set with itself.
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
TILE_CHUNK = 1024  # tiles per hand-off to the thread pool (their results are held at once)
# pair-set evaluations below which a chunk of tiles runs on the calling thread: two threads
# repay the hand-off from about 5e4 pairs for one value set and 1e5 for class_kernel tiles
INLINE_WORK = 2**17
_LOWER = np.tri(TILE_ROWS, dtype=bool)  # [i, j]: j <= i, the pairs on and below a tile's diagonal
CIRCLE_TOLERANCE = 8 * np.finfo(float).eps  # largest | |v|^2 - 1 | of a value taken as on the circle
CIRCLE_SPAN = 2.0**-4  # least chord from a set's first value to another for `to_half_angles` to turn it
CIRCLE_GROUP = 2**15  # set nodes per group of sets that `to_half_angles` checks and turns at once
_TURN = np.array([[1.0], [-1.0]])  # (c_1, c_0) to (c_1, -c_0) in `_cross_products`
CLASS_TERMS = 2**16  # terms per term array of a stacked class_pair_sum
LATTICE_TOLERANCE = 1e-9  # steps a point of `lattice_index` may lie off its lattice node
LATTICE_ROWS = 4096  # count-table rows per block of `LatticeCounts` sums


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


def _tiles(n: int, block: int, split: int | None = None):
    """(row start, row stop, column start, column stop) of the tiles of the walk, in walk order.

    Without ``split``: the upper triangle of the n x n pair matrix, each
    row slab of ``TILE_ROWS`` rows against the columns from its first row
    on.  With it: the rows [0, split) against the columns [split, n).
    Either way the columns of a slab come in chunks of ``block``.
    """
    if block < 1:
        raise ValueError(f"block must be >= 1, got {block}")
    rows = n if split is None else split
    for a0 in range(0, rows, TILE_ROWS):
        for b0 in range(a0 if split is None else split, n, block):
            yield a0, min(a0 + TILE_ROWS, rows), b0, min(b0 + block, n)


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


class _Scratch:
    """One thread's tile-sized work buffers."""

    def __init__(self, size: int):
        self._f = (np.empty(size), np.empty(size), np.empty(size))
        self._mask = np.empty(size, dtype=bool)

    def views(self, rows: int, cols: int):
        k = rows * cols
        f0, f1, f2 = (b[:k].reshape(rows, cols) for b in self._f)
        return f0, f1, f2, self._mask[:k].reshape(rows, cols)


_POOL: tuple[int, ThreadPoolExecutor] | None = None  # (process id, the walk's thread pool)
_POOL_LOCK = threading.Lock()


def _pool() -> ThreadPoolExecutor:
    """The walk's thread pool of ``os.cpu_count()`` threads, started on first use and kept.

    A forked child starts its own, since the parent's threads are not in it.
    """
    global _POOL
    with _POOL_LOCK:
        if _POOL is None or _POOL[0] != os.getpid():
            _POOL = os.getpid(), ThreadPoolExecutor(max_workers=os.cpu_count() or 1,
                                                    thread_name_prefix="splab-tiles")
        return _POOL[1]


def _map_tiles(fn, tiles: list, block: int, workers: int) -> list:
    """[fn(tile, scratch) for tile in tiles], run by up to ``workers`` threads.

    The threads are those of the kept `_pool`, so at most ``os.cpu_count()``
    run, whatever ``workers`` asks for; each holds its own tile scratch for
    the call.
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

    pool = _pool()
    for f in [pool.submit(drain) for _ in range(threads)]:
        f.result()
    return out


def _walk(n: int, task, block: int, workers: int, split: int | None = None, sets: int = 1):
    """Yield task(tile, scratch) for each tile of `_tiles`, in order.

    The tiles are mapped ``TILE_CHUNK`` at a time, so the tile list is
    never held whole; a chunk of fewer than ``INLINE_WORK`` pair-set
    evaluations (its pairs times ``sets``) runs on the calling thread.
    """
    tiles = _tiles(n, block, split)
    while chunk := list(itertools.islice(tiles, TILE_CHUNK)):
        work = sets * sum((a1 - a0) * (b1 - b0) for a0, a1, b0, b1 in chunk)
        yield from _map_tiles(task, chunk, block, workers if work >= INLINE_WORK else 1)


def _squared_distances(rows: NDArray, cols: NDArray, out: NDArray, tmp: NDArray) -> NDArray:
    """Fill ``out`` with |r_i - c_j|^2 of the (R, k) ``rows`` and (C, k) ``cols``, as `np.subtract.outer`."""
    for k in range(rows.shape[1]):
        part = tmp if k else out
        np.copyto(part, rows[:, k, None])  # a plain subtract then beats subtract.outer's loop
        np.square(np.subtract(part, np.ascontiguousarray(cols[:, k]), out=part), out=part)
        if k:
            out += part
    return out


def _inverse_power(r2: NDArray, q: float, least: float, mask: NDArray) -> NDArray:
    """r2^(-q/2) in place for squared distances r2, the coincident ones (r2 <= least) set to 0.

    The coincident entries are set to 1 for the power, so it runs unmasked.
    """
    coincident = bool(np.less_equal(r2, least, out=mask).any())
    if coincident:
        np.copyto(r2, 1.0, where=mask)
    np.power(r2, -0.5 * q, out=r2)
    if coincident:
        np.copyto(r2, 0.0, where=mask)
    return r2


def _root_power(x: NDArray, e: float, tmp: NDArray) -> NDArray:
    """x^e in place for x >= 0: for 4e = n in 1..7 or even n in 8..14, by at most two square roots
    and three products (x^(n/4) = sqrt(x)^(2n/4) while n < 4, then x times x^(n/4 - 1) built in
    tmp from sqrt(x), sqrt(sqrt(x)) and x); else by `np.power`."""
    n = 4.0 * e
    if not (n.is_integer() and 1 <= n < 16 and (n < 8 or n % 2 == 0)):
        return np.power(x, e, out=x)
    n = int(n)
    while n < 4:  # the root taken in place
        np.sqrt(x, out=x)
        n *= 2
    if n == 7:  # x sqrt(x), leaving sqrt(x) in tmp, times sqrt(sqrt(x))
        x *= np.sqrt(x, out=tmp)
        return np.multiply(x, np.sqrt(tmp, out=tmp), out=x)
    if n % 4:  # sqrt(x) (sqrt(sqrt(x)) for n = 5) times n // 4 - 1 factors of x
        factor = np.sqrt(x, out=tmp)
        if n == 5:
            np.sqrt(factor, out=factor)
        for _ in range(n // 4 - 1):
            factor *= x
    elif n == 4:
        return x
    else:  # x for n = 8, x^2 for n = 12
        factor = x if n == 8 else np.multiply(x, x, out=tmp)
    x *= factor
    return x


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
        _inverse_power(_squared_distances(self.pts[a0:a1], self.pts[b0:b1], out, tmp), self.q, 0.0, mask)
        if self.w is not None:
            out *= self.w[a0:a1, None]
            out *= self.w[b0:b1]
        if self.g is not None:
            gx = self.g[a0:a1]
            np.equal.outer(gx, self.g[b0:b1], out=mask)
            mask &= (gx >= 0)[:, None]
            np.copyto(out, 0.0, where=mask)
        if b0 < a1:  # the tile reaches the diagonal: zero its pairs of column <= row
            e, k = b0 - a0, min(b1, a1) - b0
            np.copyto(out[:, :k], 0.0, where=_LOWER[:a1 - a0, e:e + k])
        return out


def _cross_products(rows: NDArray, cols: NDArray, out: NDArray) -> NDArray:
    """Fill ``out`` with r_i x c_j = r_i0 c_j1 - r_i1 c_j0 of the (R, 2) ``rows`` and (C, 2) ``cols``.

    One (R, 2) @ (2, C) product with the columns turned to (c_j1, -c_j0),
    a (2, C) array made for the call: each entry is one two-term sum in
    the BLAS kernel (one fused multiply-add where the CPU has it).
    """
    return np.matmul(rows, cols[:, ::-1].T * _TURN, out=out)


def _numerator_sum(vals: NDArray, p: float, tile, kern: NDArray, buf: NDArray, tmp: NDArray,
                   drop: NDArray | None = None, half: bool = False) -> float:
    """Sum over the tile of |v_i - v_j|^p times the kernel tile, pairs of ``drop`` points zeroed.

    For half-angle vectors (``half``, see `to_half_angles`) the numerator
    is |h_i x h_j|^p, which is |v_i - v_j|^p / 2^p.
    """
    a0, a1, b0, b1 = tile
    if half:
        _root_power(np.abs(_cross_products(vals[a0:a1], vals[b0:b1], buf), out=buf), p, tmp)
    else:
        _root_power(_squared_distances(vals[a0:a1], vals[b0:b1], buf, tmp), 0.5 * p, tmp)
    buf *= kern
    if drop is not None:
        buf[drop[a0:a1], :] = 0.0
        buf[:, drop[b0:b1]] = 0.0
    return float(buf.sum())


def to_half_angles(stack: NDArray, drop: NDArray | None = None) -> NDArray:
    """Turn the circle-valued sets of an (S, N, nu) stack into half-angle vectors, in place.

    A set is circle-valued when nu = 2 and | |v|^2 - 1 | <= ``CIRCLE_TOLERANCE``
    at every node that its row of the (S, N) ``drop`` mask leaves in.  Each
    value (c, s) = (cos t, sin t) of such a set becomes h = +-(cos t/2, sin t/2),
    normalized from (1 + c, s) for c >= 0 and from (s, 1 - c) for c < 0 (both
    parallel to h, and neither cancels), so no trigonometric function is
    taken.  The cross product h_i x h_j then errs by about 1e-15 in absolute
    terms, where the squared distance of v_i and v_j errs in relative terms,
    so a set whose kept values all lie within a chord ``CIRCLE_SPAN`` of its
    first kept value (|v - v_0|^2 = 2 - 2 v.v_0 on the circle) stays as it
    is.  Returns the (S,) mask of the sets turned, the ``halves`` of
    `pair_kernel_sum`.  Works on groups of sets of at most ``CIRCLE_GROUP``
    nodes in all (one set if a set is larger), each temporary (G, N): no
    stack-sized one.
    """
    turned = np.zeros(stack.shape[0], dtype=bool)
    if stack.shape[2] != 2 or stack.shape[1] == 0:
        return turned
    step = max(1, CIRCLE_GROUP // stack.shape[1])
    for g0 in range(0, stack.shape[0], step):
        group, turn = stack[g0:g0 + step], turned[g0:g0 + step]
        kept = np.ones(group.shape[:2], dtype=bool) if drop is None else ~drop[g0:g0 + step]
        off = np.abs(np.einsum("sij,sij->si", group, group) - 1.0) > CIRCLE_TOLERANCE
        first = group[np.arange(group.shape[0]), np.argmax(kept, axis=1), :, None]  # (G, 2, 1)
        least = np.min(np.matmul(group, first)[..., 0], axis=1, where=kept, initial=np.inf)  # v.v_0
        turn[:] = kept.any(axis=1) & ~(off & kept).any(axis=1) & ~(least > 1.0 - 0.5 * CIRCLE_SPAN**2)
        if not turn.any():
            continue
        c, s = group[..., 0], group[..., 1]
        back = c < 0
        x, y = np.where(back, s, 1.0 + c), np.where(back, 1.0 - c, s)
        norm = np.hypot(x, y)
        np.divide(x, norm, out=c, where=turn[:, None])
        np.divide(y, norm, out=s, where=turn[:, None])
    return turned


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
    halves=(),
) -> float | NDArray:
    """Off-diagonal weighted kernel sum over unordered pairs (counted once).

    Parameters
    ----------
    points : (N, m) coordinates
    values : (N, nu) or (N,) map values, or an (S, N, nu) stack of S value sets
    p : numerator exponent applied to |v_i - v_j|
    q : kernel exponent applied to |x_i - x_j|
    weights : scalar or (N,) quadrature weights
    groups : optional (N,) int ids; the kernel of pairs sharing a nonnegative
        id is zeroed (the reference's patch mask)
    block : columns per tile; part of the reduction order
    workers : thread count; results are identical for any value
    drop : boolean mask of the points whose pairs are left out: (N,) for
        one value set, (S, N) for a stack, or empty for none
    halves : boolean mask of the value sets given as half-angle vectors
        (`to_half_angles`): one bool for one value set, (S,) for a stack,
        or empty for none

    One value set gives a float.  A stack gives the (S,) array of its sums:
    each kernel tile is computed once and applied to every set, and the
    (S,) partials of the tiles are combined by one tree, element by
    element, so every sum equals the call on that set alone bit for bit.
    A half-angle set takes its numerator 2^p |h_i x h_j|^p from one cross
    product per pair (the 2^p applied to its sum), in the same tile walk.
    """
    geo = _Geometry(points, q, weights, groups)
    single = np.ndim(values) < 3
    stack = _as_values(values)[None] if single else np.ascontiguousarray(values, dtype=float)
    hits = _drop_masks(drop, *stack.shape[:2])
    cuts = [None] * stack.shape[0] if hits is None else [h if h.any() else None for h in hits]
    half = np.zeros(stack.shape[0], dtype=bool) if np.size(halves) == 0 else \
        np.broadcast_to(np.asarray(halves, dtype=bool), stack.shape[:1])

    def run(tile, scratch):
        a0, a1, b0, b1 = tile
        kern, buf, tmp, mask = scratch.views(a1 - a0, b1 - b0)
        geo.kernel_tile(tile, kern, tmp, mask)
        return np.array([_numerator_sum(vals, p, tile, kern, buf, tmp, cut, h)
                         for vals, cut, h in zip(stack, cuts, half)])

    sums = tree_reduce(_walk(geo.n, run, block, workers, sets=stack.shape[0]),
                       np.zeros(stack.shape[0]))
    sums[half] *= 2.0 ** p
    return float(sums[0]) if single else sums


def class_kernel(
    points: NDArray,
    labels: NDArray,
    q: float,
    weights: NDArray | float = 1.0,
    split: int | None = None,
    block: int = DEFAULT_BLOCK,
    workers: int = 1,
) -> NDArray:
    """(C, C) kernel of the pairs between the value classes of a cloud.

    ``labels`` puts point i in class labels[i] of [0, C).  Entry [c, c']
    is sum w_i w_j |x_i - x_j|^-q over the unordered pairs with one point
    in class c and the other in c' (for c = c', both in c), coincident
    points left out; the matrix is symmetric.  With ``split``, only the pairs
    of a point of [0, split) and a point of [split, N) count.  For any
    values that are a function of the class, V_c at class c,

        pair_kernel_sum = sum_{c < c'} K[c, c'] |V_c - V_c'|^p   (`class_pair_sum`).

    The points are first put in label order, each side of a split on its
    own with the smaller side first, which leaves the pair set unchanged
    and lays the labels in runs, so the rows and the columns of a tile
    meet only a few classes.  The tiles come from `_tiles`: the upper
    triangle, or the smaller side's rows against the other side's
    columns, so a few points of one side still fill few-row tiles.  Each
    tile's kernel is summed over its blocks of one row run and one column
    run (`_run_sums`), so what a tile does while holding the GIL is a few
    small calls, not a pass over its pairs.  The partials are binned into
    (C, C) and combined by a pairwise tree in tile order, so the result is
    bit-identical for any worker count.
    """
    lab = np.ascontiguousarray(labels, dtype=np.int64).ravel()
    count = int(lab.max()) + 1 if lab.size else 0
    if split is None:
        order = np.argsort(lab, kind="stable")
    else:
        sides = np.argsort(lab[:split], kind="stable"), split + np.argsort(lab[split:], kind="stable")
        if sides[1].size < sides[0].size:
            sides = sides[::-1]
        order, split = np.concatenate(sides), sides[0].size
    w = weights if np.isscalar(weights) else np.asarray(weights, dtype=float)[order]
    geo = _Geometry(np.asarray(points, dtype=float)[order], q, w, None)
    lab = lab[order]
    run_starts = np.flatnonzero(lab[1:] != lab[:-1]) + 1

    def partial(tile, scratch):
        a0, a1, b0, b1 = tile
        kern, _, tmp, mask = scratch.views(a1 - a0, b1 - b0)
        rows, cols = _runs(run_starts, a0, a1), _runs(run_starts, b0, b1)
        sums = _run_sums(geo.kernel_tile(tile, kern, tmp, mask), rows - a0, cols - b0)
        return lab[rows], lab[cols], sums

    parts = (class_bins(rows, cols, sums, count)
             for rows, cols, sums in _walk(geo.n, partial, block, workers, split))
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


def class_pair_sum(kernel: NDArray, values: NDArray, p: float, drop=(), others=None) -> float | NDArray:
    """sum_{c < c'} K[c, c'] |V_c - V_c'|^p, the pairs touching a ``drop`` class left out.

    ``values`` holds one value (or value vector) per class, giving a float,
    or is an (S, C, nu) stack of value sets, giving their (S,) sums;
    ``drop`` is a (C,) or (S, C) boolean class mask.  With ``others`` W,
    shaped as ``values``, the (Ca, Cb) kernel joins two class sets and the
    sum is sum_{a, b} K[a, b] |V_a - W_b|^p (no drop).  Each value set's
    terms are summed by one `math.fsum`, so its sum is the same bit for bit
    whatever else is computed with it, and equals that of the symmetric
    matrix [[0, K], [K^T, 0]] on [V; W].
    """
    if others is not None and len(drop):
        raise ValueError("drop classes of a sum between two value sets")
    single = np.ndim(values) < 3
    stack, right = (_as_values(v)[None] if single else np.asarray(v, dtype=float)
                    for v in (values, values if others is None else others))
    hit = _drop_masks(drop, stack.shape[0], kernel.shape[0])
    rows, cols = (np.triu_indices(kernel.shape[0], 1) if others is None
                  else np.indices(kernel.shape).reshape(2, -1))
    step = max(1, CLASS_TERMS // max(rows.size, 1))
    sums = []
    for s0 in range(0, stack.shape[0], step):
        part = stack[s0:s0 + step]
        diff = (part[:, rows] - right[s0:s0 + step, cols]).reshape(-1, stack.shape[2])
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


def _fft_size(n: int) -> int:
    """The smallest 2^i 3^j 5^k >= n: a length the FFT transforms without a prime-length pass."""
    while True:
        rest = n
        for f in (2, 3, 5):
            while rest % f == 0:
                rest //= f
        if rest == 1:
            return n
        n += 1


def lattice_index(points: NDArray, spacing: float) -> tuple[NDArray, NDArray]:
    """Integer indices and the common sub-step offset of points on one lattice.

    Point i lies at spacing (index[i] + offset), with the offset (in steps,
    one per axis) read from the first point.  ValueError when a point lies
    more than ``LATTICE_TOLERANCE`` steps off that lattice.
    """
    steps = np.asarray(points, dtype=float) / spacing
    offset = steps[0] - np.rint(steps[0])
    index = np.rint(steps - offset)
    off = np.max(np.abs(steps - offset - index), initial=0.0)
    if off > LATTICE_TOLERANCE:
        raise ValueError(f"points lie {off:.3g} steps off the lattice of spacing {spacing!r}")
    return index.astype(np.int64), offset


def _lattice_pad(a: NDArray, b: NDArray) -> tuple[int, ...]:
    """FFT lengths per axis that hold every index difference of the sets a and b without a wrap."""
    return tuple(_fft_size(int(n)) for n in np.ptp(a, axis=0) + np.ptp(b, axis=0) + 1)


class LatticeCounts:
    """Label pairs between two labelled index sets of one lattice, counted by index difference.

    C[E, a, b] is the number of pairs (i of A with label a, j of B with
    label b) whose indices differ by j - i = E.  The counts come from an
    FFT correlation of the sets' one-hot label grids, one label pair at a
    time, rounded to integers; ValueError if any lies more than 0.25 from
    an integer.  A set with itself (equal indices and labels) correlates
    the label pairs a <= b from one list of spectra and takes the others
    from C[-E, b, a] = C[E, a, b].  They are held as float32, exact below 2^24.  From them,
    `kernels` gives the class matrix of the pairs of A and B moved apart by
    any integer translation T and offset, from one kernel value per E
    instead of one per pair.  `entries` gives the table's length from the
    two index sets alone, before anything is built.
    """

    def __init__(self, a: NDArray, labels_a: NDArray, b: NDArray, labels_b: NDArray):
        a, b = (np.asarray(x, dtype=np.int64) for x in (a, b))
        labels_a, labels_b = (np.asarray(x).ravel() for x in (labels_a, labels_b))
        if min(a.shape[0], b.shape[0]) >= 2**24:
            raise ValueError("lattice pair counts are exact for sets of fewer than 2^24 points")
        lo_a, lo_b = a.min(axis=0), b.min(axis=0)
        size_b = b.max(axis=0) - lo_b + 1
        pad = _lattice_pad(a, b)
        # a set with itself (the same indices, the same labels): C[-E, b, a] = C[E, a, b]
        same = np.array_equal(a, b) and np.array_equal(labels_a, labels_b)
        self.rows, self.cols = np.unique(labels_a), np.unique(labels_b)
        self.shape = (int(self.rows[-1]) + 1, int(self.cols[-1]) + 1)

        def spectra(index, labels, label_set, conj):
            """rfftn of the one-hot grid of each label of a set (conjugated for A), one at a time."""
            for label in label_set:
                grid = np.zeros(pad)
                np.add.at(grid, tuple(index[labels == label].T), 1.0)
                spec = np.fft.rfftn(grid)
                yield np.conj(spec, out=spec) if conj else spec

        def correlations():
            """(label of A, label of B, spectrum of their correlation), one label pair at a time."""
            if same:  # one list of spectra, the label pairs a <= b
                held = list(spectra(a - lo_a, labels_a, self.rows, False))
                for i, j in itertools.combinations_with_replacement(range(len(held)), 2):
                    prod = np.conj(held[i])
                    prod *= held[j]
                    yield i, j, prod
                return
            # the spectra of the set of fewer labels are held, the other set's come one at a time
            sides = (a - lo_a, labels_a, self.rows, True), (b - lo_b, labels_b, self.cols, False)
            hold_a = self.rows.size <= self.cols.size
            held = list(spectra(*sides[not hold_a]))
            for j, spec in enumerate(spectra(*sides[hold_a])):
                for i, other in enumerate(held):
                    yield *((i, j) if hold_a else (j, i)), other * spec

        self.counts = np.empty((math.prod(pad), self.rows.size, self.cols.size), dtype=np.float32)
        dims, off = tuple(range(len(pad))), 0.0
        # each label pair is correlated on its own: a few pad-sized work arrays beside the spectra
        for i, j, prod in correlations():
            # corr[E] = sum_x G_a(x) G_b(x + E), E taken modulo pad
            corr = np.fft.irfftn(prod, s=pad, axes=dims)
            counts = np.rint(corr)
            self.counts[:, i, j] = counts.ravel()
            if same and i != j:  # the entry of -E modulo pad, by a flip and a roll of one step
                self.counts[:, j, i] = np.roll(np.flip(counts), 1, axis=dims).ravel()
            corr -= counts
            off = max(off, float(np.max(np.abs(corr, out=corr))))
        if off > 0.25:
            raise ValueError(f"lattice pair counts lie {off:.3g} from an integer")
        self.counts = self.counts.reshape(math.prod(pad), -1)
        # the index difference of each table row, per axis: the wrapped ones are negative
        axes = [np.where(e >= size, e - n, e) + lo for e, n, size, lo in
                zip(map(np.arange, pad), pad, size_b, lo_b - lo_a)]
        self.disp = np.stack(np.meshgrid(*axes, indexing="ij", copy=False), axis=-1).reshape(-1, len(pad))

    @staticmethod
    def entries(a: NDArray, b: NDArray) -> int:
        """Length of the count table of the index sets a and b (its padded index differences)."""
        return math.prod(_lattice_pad(np.asarray(a), np.asarray(b)))

    def _sums(self, rows, q: float, spacing: float, offsets: NDArray, shift=0) -> NDArray:
        """(O, Ca, Cb): sum_E C[E] |spacing (E + shift) + o|^-q over table ``rows``, per row o of ``offsets``.

        The rows are streamed ``LATTICE_ROWS`` at a time, every offset at
        once, and their partials combined by `tree_reduce`.  A chunk's
        squared distances add one (O, R) square per axis, o_k + spacing
        (E + shift)_k, from a contiguous row of its separations.  Pairs
        closer than twice ``LATTICE_TOLERANCE`` steps count as coincident
        and are left out (`_inverse_power`).
        """
        disp, counts = self.disp[rows], self.counts[rows]
        least = (2 * LATTICE_TOLERANCE * spacing) ** 2

        def chunks():
            for e0 in range(0, disp.shape[0], LATTICE_ROWS):
                sep = np.multiply(spacing, (disp[e0:e0 + LATTICE_ROWS] + shift).T, order="C")  # (m, R)
                kern = np.square(offsets[:, :1] + sep[0])
                for o, s in zip(offsets.T[1:], sep[1:]):
                    kern += np.square(o[:, None] + s)
                _inverse_power(kern, q, least, np.empty(kern.shape, dtype=bool))
                yield kern @ counts[e0:e0 + LATTICE_ROWS].astype(float)

        sums = tree_reduce(chunks(), np.zeros((offsets.shape[0], counts.shape[1])))
        return sums.reshape(offsets.shape[0], self.rows.size, self.cols.size)

    def kernels(self, q: float, spacing: float, offsets, shift=None, weight: float = 1.0) -> NDArray:
        """(O, Ca, Cb) class matrices weight sum_E C[E] |spacing (E + T) + o|^-q, one per row o of ``offsets``.

        With an integer ``shift`` T (one per axis), over the whole table:
        entry [o, a, b] is the kernel over the pairs of A and of B moved by
        T and o, as `class_kernel` sums it (``weight`` is w_A w_B, labels run
        over [0, max + 1) of each set, coincident pairs are left out).
        Without it, T = 0 over the half table E > 0 (first nonzero entry
        positive): for a set with itself, each unordered node pair once.
        """
        disp = self.disp
        if shift is None:
            rows, shift = disp[np.arange(disp.shape[0]), np.argmax(disp != 0, axis=1)] > 0, 0
        else:
            rows, shift = slice(None), np.asarray(shift, dtype=np.int64)
        offsets = np.asarray(offsets, dtype=float)
        out = np.zeros(offsets.shape[:1] + self.shape)
        out[:, self.rows[:, None], self.cols] = weight * self._sums(rows, q, spacing, offsets, shift)
        return out
