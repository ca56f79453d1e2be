"""The model radial projection x -> x/|x| onto the unit sphere.

Covers shifted compositions and the small-shift restricted-diffeomorphism
check on the circle.  All functions are stateless and pure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

from .errors import DegenerateShiftError, SingularHitError
from .grid import SampledMap

SINGULAR_EXCLUSION_RADIUS = 1e-12
DEGENERATE_HIT_FRACTION = 0.01


@dataclass(frozen=True)
class ShiftPoint:
    """A shift a applied before projecting."""

    a: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(float(x) for x in self.a))
        if not np.isfinite(self.a).all():
            raise SingularHitError("shift point must be finite")


@dataclass(frozen=True)
class SingularHit:
    """A node whose value fell within the exclusion radius of the origin."""

    node: int
    distance: float


def unit_values(values: NDArray, a, out: NDArray) -> NDArray:
    """Fill ``out`` with (v - a)/|v - a| along the last axis; return the singular-hit mask.

    ``values`` and ``a`` broadcast to ``out``, so stacks project at once.  A
    vector within the exclusion radius of a is a singular hit and gets the
    placeholder value e_1.  Positive homogeneous of degree zero in v - a.
    """
    np.subtract(values, a, out=out)
    r = np.linalg.norm(out, axis=-1)
    hits = r <= SINGULAR_EXCLUSION_RADIUS
    out /= np.where(hits, 1.0, r)[..., None]
    out[hits] = np.eye(out.shape[-1])[0]
    return hits


def shifted_unit_values(u: SampledMap, shifts, out: NDArray) -> tuple[NDArray, NDArray]:
    """Fill the (S, N, nu) ``out`` with the node values (u(x) - a)/|u(x) - a|, one a per shift.

    ``shifts`` is (S, nu); one `unit_values` call projects them all.
    Returns the (S, N) singular-hit mask (hit nodes get the placeholder
    value e_1) and the (S,) degenerate flags: a shift is degenerate if more
    than 1% of the nodes are hits (it sits on a plateau of u), or if it is
    the outer constant of a map that has an outside.
    """
    shifts = np.asarray(shifts, dtype=float)
    if u.nu != shifts.shape[-1]:
        raise SingularHitError(f"shift dimension {shifts.shape[-1]} != map dimension {u.nu}")
    hits = unit_values(u.values, shifts[:, None, :], out)
    plateau = hits.sum(axis=1) > DEGENERATE_HIT_FRACTION * u.grid.node_count
    rc = np.linalg.norm(np.asarray(u.constant) - shifts, axis=1)
    outside = not u.support.contains_box(u.grid.box)
    return hits, plateau | ((rc <= SINGULAR_EXCLUSION_RADIUS) & outside)


def shifted_projection(u: SampledMap, shift: ShiftPoint) -> tuple[SampledMap, list[SingularHit]]:
    """Nodewise x -> (u(x) - a)/|u(x) - a|, excluding singular hits.

    Hit nodes keep a placeholder unit value and are reported; callers must
    drop them from energy regions.  A degenerate shift (see
    ``shifted_unit_values``) fails, naming the outer constant if it is one,
    else its hit count.  The averaging projects its shift stacks through
    ``shifted_unit_values`` instead; this map-level form is kept because
    the perfbench tracer counts its calls and hits.
    """
    out = np.empty((1,) + u.values.shape)
    hits, degenerate = shifted_unit_values(u, [shift.a], out)
    nodes = np.flatnonzero(hits[0])
    const = np.asarray(u.constant) - np.asarray(shift.a)
    rc = float(np.linalg.norm(const))
    if degenerate[0]:
        why = ("coincides with the outer constant of u" if rc <= SINGULAR_EXCLUSION_RADIUS
               else f"hits the singular set at {nodes.size} of {u.grid.node_count} nodes")
        raise DegenerateShiftError(f"shift {shift.a} {why}")
    dist = np.linalg.norm(u.values[nodes] - shift.a, axis=1)
    proj_const = tuple(np.eye(u.nu)[0]) if rc <= SINGULAR_EXCLUSION_RADIUS else tuple(const / rc)
    projected = SampledMap(u.grid, out[0], u.nu, u.grid.box, proj_const)
    return projected, [SingularHit(int(i), float(d)) for i, d in zip(nodes, dist)]


@dataclass(frozen=True)
class DiffeoReport:
    injective: bool
    min_jacobian: float


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
    return DiffeoReport(injective=injective, min_jacobian=float(np.min(jac)))
