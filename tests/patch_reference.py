"""Flat-grid and point-by-point references for the patch energies.

`patch_values` and `basic_values` evaluate the clustered patch and the
unclustered frame map point by point.  `build_patch` samples the
compactly supported patch on a uniform grid, so its `gagliardo_energy` is
the flat quadrature that `PatchModel.patch_energy_direct` is checked
against.

`projected_point_by_point` evaluates `PatchModel.patch_projected_direct`
without value classes: every frame point and every cloud point is
projected on its own, singular hits are dropped point by point, and the
pairs of different cells are summed point by point in the grouped cloud.

`patch_cloud` is the coarse cloud of one patch point by point (one group
per cluster cell), and `layer_cloud` glues one per dyadic cube with the
outer background.  `layer_energy_whole_cloud` evaluates
`PatchModel.layer_energy_direct` as one pair sum over that whole glued
cloud, without value classes.
"""

import math

import numpy as np

from splab._pairsum import pair_kernel_sum
from splab.energy import cloud_energy
from splab.errors import GeometryError, SplabError
from splab.grid import Box, Grid, SampledMap, sample_map
from splab.patches import (
    BLOCK_HALFWIDTH,
    BUMP_RADIUS,
    PLATEAU_RADIUS,
    SUPPORT_HALFWIDTH,
    PatchSpec,
    _values_from,
    cluster_scale,
    clustered_profile,
    collar_factor,
    outer_background,
    two_bump_profile,
)
from splab.sphere import unit_values


class ResolutionError(SplabError):
    """Grid too coarse to resolve the finest feature of a construction."""

    exit_code = 2


def patch_values(points, spec: PatchSpec):
    """Full compactly supported patch: cluster + constant plateau + collar."""
    pts = np.atleast_2d(points)
    return _values_from(collar_factor(pts), clustered_profile(pts, spec.k), spec.c, spec.amplitude)


def basic_values(points, spec: PatchSpec):
    """Unclustered frame map: c + amplitude * profile(x) e1."""
    pts = np.atleast_2d(points)
    return _values_from(np.ones(pts.shape[0]), two_bump_profile(pts), spec.c, spec.amplitude)


def _check_cluster_geometry(k: int, ell: int) -> None:
    # cells tile a block whose corners must stay inside the radius-1/2 ball
    corner = BLOCK_HALFWIDTH * math.sqrt(ell)
    if corner >= 0.5:
        raise GeometryError(f"cluster block corner radius {corner} exceeds the host ball")
    if k**ell > 10**8:
        raise GeometryError(f"cluster count {k}^{ell} is unreasonably large")


def _check_resolution(spacing: float, scale: float = 1.0) -> None:
    """The bump's transition annulus, shrunk by `scale`, needs 4 nodes across."""
    feature = scale * (BUMP_RADIUS - PLATEAU_RADIUS)
    if spacing > feature / 4 + 1e-15:
        raise ResolutionError(
            f"spacing {spacing} leaves fewer than 4 nodes across the feature {feature}"
        )


def build_patch(spec: PatchSpec, grid: Grid) -> SampledMap:
    """Sample the compactly supported patch; zero outside the unit cube."""
    _check_cluster_geometry(spec.k, spec.ell)
    _check_resolution(grid.spacing, cluster_scale(spec.k))
    support = Box.cube(SUPPORT_HALFWIDTH, dim=grid.dim)
    return sample_map(grid, lambda p: patch_values(p, spec), support, (0.0,) * spec.ell)


def _projected_pair_sums(points, values, shifts, p, q, **kwargs):
    """Stacked `pair_kernel_sum` of the values projected by each shift, hits dropped."""
    stack = np.empty((len(shifts),) + values.shape)
    hits = np.array([unit_values(values, a, stack[i]) for i, a in enumerate(shifts)])
    return pair_kernel_sum(points, stack, p, q, drop=hits, **kwargs)


def projected_point_by_point(model, spec, shifts):
    """(S,) projected energies of ``spec`` at the (S, 2) ``shifts``."""
    p, sp, q = model.params.p, model.params.sp, 2 + model.params.sp
    frame_pts = model._frame_pts
    frame = _projected_pair_sums(frame_pts, basic_values(frame_pts, spec), shifts, p, q,
                                 weights=model.h0**2, workers=2)
    pts, _, w, groups = patch_cloud(model, spec)
    cloud = _projected_pair_sums(pts, patch_values(pts, spec), shifts, p, q, weights=w,
                                 groups=groups, workers=2)
    fine = spec.k**spec.ell * cluster_scale(spec.k) ** (spec.ell - sp) * (2.0 * frame)
    return fine + 2.0 * cloud


def patch_cloud(model, spec, group_base=0, placement=None):
    """(points, values, weights, groups) of one patch: cell points, one group per cell, then background."""
    centers, offs, cell_w = model._cell_lattice(spec.k)
    cell_pts = (centers[:, None, :] + offs[None, :, :]).reshape(-1, 2)
    cell_groups = np.repeat(np.arange(len(centers)) + group_base, offs.shape[0])
    bg, bg_w = model._background()
    pts = np.concatenate([cell_pts, bg])
    w = np.concatenate([np.full(cell_pts.shape[0], cell_w), np.full(bg.shape[0], bg_w)])
    groups = np.concatenate([cell_groups, np.full(bg.shape[0], -1, dtype=np.int64)])
    vals = patch_values(pts, spec)
    if placement is not None:
        pts = pts * placement.scale + np.asarray(placement.translate)
        w = w * placement.scale**2
    return pts, vals, w, groups


def layer_cloud(model, layer):
    """(points, values, weights, groups) of the glued layer: its patch clouds and the outer background."""
    specs = layer.patch_specs(model.params)
    parts = [patch_cloud(model, spec, group_base=i * spec.k**2, placement=pl)
             for i, (spec, pl) in enumerate(zip(specs, layer.placements()))]
    outer, outer_w = outer_background(layer)
    parts.append((outer, np.zeros((outer.shape[0], 2)), np.full(outer.shape[0], outer_w),
                  np.full(outer.shape[0], -1, dtype=np.int64)))
    return tuple(np.concatenate(arrays) for arrays in zip(*parts))


def layer_energy_whole_cloud(model, layer):
    """Cross pairs of the glued layer cloud by one `cloud_energy`, plus the cells' fine term."""
    sigma, sp = layer.placement_scale, model.params.sp
    cross = cloud_energy(*layer_cloud(model, layer), model.params, m=2, workers=2)
    fine = 0.0
    for spec in layer.patch_specs(model.params):
        fine += sigma ** (2 - sp) * model.cluster_energy(spec)
    return cross + fine
