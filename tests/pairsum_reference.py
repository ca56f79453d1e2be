"""Frozen copies of pair-sum passes as they stood before they were replaced.

Before the shared squared-distance pass, each component's differences came
from ``np.subtract.outer`` (``np.add.outer`` of the offsets and the
separations in `LatticeCounts`), squared by ``x *= x``, and the numerator
took ``np.power(d2, p / 2)`` at every p but 2.  The tests patch these in for
the current passes and compare the results bit for bit (the kernel and
lattice sums) or to the last bits (the numerator at p with 2p an integer).
The lattice sums then took the shared pass, `lattice_sums_shared`, before
their chunks read one contiguous row of separations per axis.

Before the one root power and the one `LatticeCounts.kernels`, the two
numerators had a power helper each (`half_power`, `abs_power`), and the
kernels of the cell template offsets came from `template_kernels`; the
tests compare the current forms with these bit for bit.

Before the circle route's cross products came from one matrix product per
tile, `cross_products` made them in five passes over the tile, and
`to_half_angles` checked and turned one set at a time; the tests compare
the current forms with these to 2^-52 and bit for bit.

Before every frame constant of the patch and almost models came from a
class matrix, `frame_energy` summed the frame lattice point by point; the
tests check the class-matrix constants against it.
"""

import numpy as np

from splab._pairsum import (
    CIRCLE_SPAN,
    CIRCLE_TOLERANCE,
    LATTICE_ROWS,
    LATTICE_TOLERANCE,
    lattice_index,
    pair_kernel_sum,
    tree_reduce,
)


def frame_energy(points, values, p, q, spacing, workers=1):
    """Energy of values on a midpoint lattice of spacing h in R^m: 2 h^(2m) times the pair sum."""
    s = pair_kernel_sum(points, values, p, q, workers=workers)
    return 2.0 * spacing ** (2 * points.shape[1]) * s


def squared_distances(rows, cols):
    """(R, C) |r_i - c_j|^2 of the (R, k) ``rows`` and (C, k) ``cols``, by subtract.outer."""
    out = np.subtract.outer(rows[:, 0], cols[:, 0])
    out *= out
    for k in range(1, rows.shape[1]):
        tmp = np.subtract.outer(rows[:, k], cols[:, k])
        tmp *= tmp
        out += tmp
    return out


def kernel_tile(self, tile, out, tmp, mask):
    """`_Geometry.kernel_tile` as it was."""
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
    if b0 < a1:
        out[np.tril_indices(a1 - a0, a0 - b0, b1 - b0)] = 0.0
    return out


def numerator_sum(vals, p, tile, kern, buf, tmp, drop=None, half=False):
    """`_numerator_sum` as it was, for value sets (not half-angle sets)."""
    assert not half
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


def lattice_sums(self, rows, q, spacing, offsets, shift=0):
    """`LatticeCounts._sums` as it was."""
    disp, counts = self.disp[rows], self.counts[rows]

    def chunks():
        for e0 in range(0, disp.shape[0], LATTICE_ROWS):
            sep = spacing * (disp[e0:e0 + LATTICE_ROWS] + shift)
            r2 = np.add.outer(offsets[:, 0], sep[:, 0])
            r2 *= r2
            for i in range(1, sep.shape[1]):
                part = np.add.outer(offsets[:, i], sep[:, i])
                part *= part
                r2 += part
            kern = np.zeros_like(r2)
            np.power(r2, -0.5 * q, out=kern, where=r2 > (2 * LATTICE_TOLERANCE * spacing) ** 2)
            yield kern @ counts[e0:e0 + LATTICE_ROWS].astype(float)

    sums = tree_reduce(chunks(), np.zeros((offsets.shape[0], counts.shape[1])))
    return sums.reshape(offsets.shape[0], self.rows.size, self.cols.size)



def lattice_sums_shared(self, rows, q, spacing, offsets, shift=0):
    """`LatticeCounts._sums` as it was before its per-axis rows: the chunk's squared distances
    from the shared pass of the kernel tiles (inlined here) and a power masked by ``where``."""
    disp, counts = self.disp[rows], self.counts[rows]

    def squared_distances(rows, cols, out, tmp):
        for k in range(rows.shape[1]):
            part = tmp if k else out
            np.copyto(part, rows[:, k, None])
            np.square(np.subtract(part, np.ascontiguousarray(cols[:, k]), out=part), out=part)
            if k:
                out += part
        return out

    def chunks():
        for e0 in range(0, disp.shape[0], LATTICE_ROWS):
            sep = -spacing * (disp[e0:e0 + LATTICE_ROWS] + shift)
            shape = (offsets.shape[0], sep.shape[0])
            r2 = squared_distances(offsets, sep, np.empty(shape), np.empty(shape))
            kern = np.zeros_like(r2)
            np.power(r2, -0.5 * q, out=kern, where=r2 > (2 * LATTICE_TOLERANCE * spacing) ** 2)
            yield kern @ counts[e0:e0 + LATTICE_ROWS].astype(float)

    sums = tree_reduce(chunks(), np.zeros((offsets.shape[0], counts.shape[1])))
    return sums.reshape(offsets.shape[0], self.rows.size, self.cols.size)

def half_power(x, p, tmp):
    """`_half_power` as it was: x^(p/2) in place."""
    if not ((2.0 * p).is_integer() and 0.0 < p < 4.0):
        return np.power(x, 0.5 * p, out=x)
    n = int(2 * p)
    while n < 4:
        np.sqrt(x, out=x)
        n *= 2
    if n & 2:
        x *= np.sqrt(x, out=tmp)
    if n & 1:
        x *= np.sqrt(tmp if n & 2 else np.sqrt(x, out=tmp), out=tmp)
    return x


def abs_power(t, p, tmp):
    """`_abs_power` as it was: |t|^p in place."""
    np.abs(t, out=t)
    if not ((2.0 * p).is_integer() and 1.0 <= p < 4.0):
        return np.power(t, p, out=t)
    n = int(2 * p)
    if n & 1:
        factor = np.sqrt(t, out=tmp)
        for _ in range((n - 3) // 2):
            factor *= t
    elif n == 2:
        return t
    else:
        factor = t if n == 4 else np.multiply(t, t, out=tmp)
    t *= factor
    return t


def template_kernels(table, q, spacing, offsets, step, shift=None, weight=1.0):
    """`LatticeCounts.template_kernels` of ``table`` as it was: (P, P, Ca, Cb) kernels of the
    points that are nodes plus one of P template ``offsets``, over the half table without
    ``shift``, else over the whole table at the translation ``shift``."""
    offs = np.asarray(offsets, dtype=float)
    index = lattice_index(offs, step)[0]
    diffs, inverse = np.unique((index[:, None] - index[None]).reshape(-1, offs.shape[1]),
                               axis=0, return_inverse=True)
    if shift is None:
        disp = table.disp
        half = disp[np.arange(disp.shape[0]), np.argmax(disp != 0, axis=1)] > 0
        sums = table._sums(half, q, spacing, step * diffs)
    else:
        sums = table._sums(slice(None), q, spacing, -step * diffs, shift)
    out = np.zeros((diffs.shape[0],) + table.shape)
    out[:, table.rows[:, None], table.cols] = weight * sums
    return out[inverse.ravel()].reshape((offs.shape[0],) * 2 + table.shape)


def cross_products(rows, cols, out, tmp):
    """`_cross_products` as it was: five passes over the tile, no matrix product."""
    np.copyto(out, rows[:, 0, None])
    out *= np.ascontiguousarray(cols[:, 1])
    np.copyto(tmp, rows[:, 1, None])
    tmp *= np.ascontiguousarray(cols[:, 0])
    return np.subtract(out, tmp, out=out)


def to_half_angles(stack, drop=None):
    """`to_half_angles` as it was: one set at a time."""
    turned = np.zeros(stack.shape[0], dtype=bool)
    if stack.shape[2] != 2:
        return turned
    for k, vals in enumerate(stack):
        kept = vals if drop is None or not drop[k].any() else vals[~drop[k]]
        if not kept.size or np.any(np.abs(np.einsum("ij,ij->i", kept, kept) - 1.0) > CIRCLE_TOLERANCE) \
                or np.min(kept @ kept[0]) > 1.0 - 0.5 * CIRCLE_SPAN**2:
            continue
        c, s = vals[:, 0], vals[:, 1]
        back = c < 0
        x, y = np.where(back, s, 1.0 + c), np.where(back, 1.0 - c, s)
        norm = np.hypot(x, y)
        np.divide(x, norm, out=c)
        np.divide(y, norm, out=s)
        turned[k] = True
    return turned
