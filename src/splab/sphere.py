"""The model radial projection x -> x/|x| onto the unit sphere.

Covers shifted compositions, the first-derivative blow-up check, a smooth
nearest-point extension, and the small-shift restricted-diffeomorphism
check on the circle.  All functions are stateless and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateShiftError, SingularHitError
from .grid import SampledMap

SINGULAR_EXCLUSION_RADIUS = 1e-12
SMALL_SHIFT_RADIUS = 0.5
DEGENERATE_HIT_FRACTION = 0.01


@dataclass(frozen=True)
class ShiftPoint:
    """A shift a applied before projecting, with its recorded radius bound."""

    a: tuple[float, ...]
    radius_bound: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        if not np.isfinite(self.a).all():
            raise SingularHitError("shift point must be finite")

    @property
    def small_shift(self) -> bool:
        return float(np.linalg.norm(self.a)) <= SMALL_SHIFT_RADIUS


@dataclass(frozen=True)
class SingularHit:
    """A node whose value fell within the exclusion radius of the origin."""

    node: int
    distance: float


def project(x) -> NDArray:
    """Normalize points onto the unit sphere: x / |x|.

    Raises on any point within the exclusion radius of the origin.
    Positive homogeneous of degree zero: project(lam*x) == project(x).
    """
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    bad = r <= SINGULAR_EXCLUSION_RADIUS
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularHitError(f"point {pts[i]} lies within {SINGULAR_EXCLUSION_RADIUS} of the singular set",
                               point=pts[i])
    out = pts / r[:, None]
    return out[0] if np.asarray(x).ndim == 1 else out


def shifted_unit_values(u: SampledMap, a, out: NDArray) -> tuple[NDArray, NDArray]:
    """Fill ``out`` with the node values (u(x) - a)/|u(x) - a|; return the singular hits.

    Returns the hit nodes and their distances |u(x) - a|.  Hit nodes get
    the placeholder value e_1.  Fails if more than 1% of the nodes are
    hits (the shift sits on a plateau of u), or if a is the outer
    constant of a map that has an outside.
    """
    a = np.asarray(a, dtype=float)
    if u.nu != a.shape[0]:
        raise SingularHitError(f"shift dimension {a.shape[0]} != map dimension {u.nu}")
    np.subtract(u.values, a, out=out)
    r = np.linalg.norm(out, axis=1)
    hit_mask = r <= SINGULAR_EXCLUSION_RADIUS
    nodes = np.flatnonzero(hit_mask)
    shift = tuple(a.tolist())
    if nodes.size > DEGENERATE_HIT_FRACTION * u.grid.node_count:
        raise DegenerateShiftError(
            f"shift {shift} hits the singular set at {nodes.size} of {u.grid.node_count} nodes"
        )
    out /= np.where(hit_mask, 1.0, r)[:, None]
    out[hit_mask] = np.eye(u.nu)[0]
    rc = float(np.linalg.norm(np.asarray(u.constant) - a))
    if rc <= SINGULAR_EXCLUSION_RADIUS and not u.support.contains_box(u.grid.box):
        raise DegenerateShiftError(f"shift {shift} coincides with the outer constant of u")
    return nodes, r[nodes]


def shifted_projection(u: SampledMap, shift: ShiftPoint) -> tuple[SampledMap, list[SingularHit]]:
    """Nodewise x -> (u(x) - a)/|u(x) - a|, excluding singular hits.

    Hit nodes keep a placeholder unit value and are reported; callers must
    drop them from energy regions.  If more than 1% of nodes are hits the
    shift sits on a plateau of u and the call fails.  The averaging fills
    its value stacks through ``shifted_unit_values`` instead; this
    map-level form is kept because the perfbench tracer counts its calls
    and hits.
    """
    out = np.empty_like(u.values, dtype=float)
    nodes, dist = shifted_unit_values(u, shift.a, out)
    const = np.asarray(u.constant) - np.asarray(shift.a)
    rc = float(np.linalg.norm(const))
    proj_const = tuple(np.eye(u.nu)[0]) if rc <= SINGULAR_EXCLUSION_RADIUS else tuple(const / rc)
    projected = SampledMap(u.grid, out, u.nu, u.grid.box, proj_const)
    return projected, [SingularHit(int(i), float(d)) for i, d in zip(nodes, dist)]


def projection_jacobian(x) -> NDArray:
    """Analytic Jacobian of x -> x/|x|: (I - unit unit^T)/|x|, per point."""
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    bad = r <= SINGULAR_EXCLUSION_RADIUS
    if bad.any():
        i = int(np.argmax(bad))
        raise SingularHitError("zero sample in Jacobian evaluation", point=pts[i])
    unit = pts / r[:, None]
    ell = pts.shape[1]
    eye = np.eye(ell)
    jac = (eye[None, :, :] - unit[:, :, None] * unit[:, None, :]) / r[:, None, None]
    return jac[0] if np.asarray(x).ndim == 1 else jac


def jacobian_blowup_check(samples, order: int = 1) -> float:
    """Worst-case |DP(x)| * |x|^order over the samples (operator norm).

    Only first derivatives are supported (the failure constructions use
    no higher order).  For the radial projection the tangential
    eigenvalue is exactly 1/|x|, so the returned ratio equals 1 at every
    sample.
    """
    if order != 1:
        raise SingularHitError("only first-derivative blow-up checks are supported")
    pts = np.atleast_2d(np.asarray(samples, dtype=float))
    jac = projection_jacobian(pts)
    opnorm = np.linalg.norm(jac, ord=2, axis=(1, 2))
    r = np.linalg.norm(pts, axis=1)
    return float(np.max(opnorm * r))


def _smoothstep(t: NDArray) -> NDArray:
    t = np.clip(t, 0.0, 1.0)
    return t * t * (3.0 - 2.0 * t)


def nearest_point_extension(x, iota: float) -> NDArray:
    """Smooth total extension of the nearest-point projection onto the sphere.

    Equals x/|x| whenever ||x| - 1| < iota; elsewhere eta(|x|) * x/|x|
    with the cubic smoothstep profile eta rescaled to [0, 1 - iota], so the
    map vanishes at the origin and is bounded by 1 + iota everywhere.
    """
    if not 0 < iota < 1:
        raise SingularHitError(f"tube radius must lie in (0, 1), got {iota}")
    pts = np.atleast_2d(np.asarray(x, dtype=float))
    r = np.linalg.norm(pts, axis=1)
    eta = _smoothstep(r / (1.0 - iota))
    safe = np.where(r > 0, r, 1.0)
    out = pts * (eta / safe)[:, None]
    return out[0] if np.asarray(x).ndim == 1 else out


@dataclass(frozen=True)
class DiffeoReport:
    injective: bool
    min_jacobian: float
    angular_step: float


def restricted_diffeo_check(shift: ShiftPoint, resolution: float = 1e-3) -> DiffeoReport:
    """Check that theta -> P(x(theta) - a) is a diffeomorphism of the circle.

    Samples the circle at the given angular step, verifies injectivity via
    strict monotonicity of the induced (unwrapped) angle, and returns the
    minimum derivative of the induced circle map, computed analytically as
    (1 - a.x(theta)) / |x(theta) - a|^2.
    """
    a = np.asarray(shift.a, dtype=float)
    if a.shape != (2,):
        raise SingularHitError("restricted diffeomorphism check is specialized to the circle")
    if np.linalg.norm(a) >= 1.0:
        raise SingularHitError("shift magnitude must be < 1 for the restricted check")
    n = int(round(2 * np.pi / resolution))
    theta = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    x = np.column_stack([np.cos(theta), np.sin(theta)])
    d = x - a
    r2 = np.einsum("ij,ij->i", d, d)
    if np.any(r2 <= SINGULAR_EXCLUSION_RADIUS**2):
        raise SingularHitError("shift lies on a sphere sample", point=a)
    jac = (1.0 - x @ a) / r2
    beta = np.arctan2(d[:, 1], d[:, 0])
    increments = np.diff(beta, append=beta[:1])
    increments = np.mod(increments, 2 * np.pi)
    # strict monotonicity plus total winding 2*pi (degree one) on the samples
    injective = bool(np.all(increments > 0) and abs(increments.sum() - 2 * np.pi) < 1e-9)
    return DiffeoReport(injective=injective, min_jacobian=float(np.min(jac)), angular_step=resolution)
