"""Point-by-point reference for the projected patch energies.

`projected_point_by_point` evaluates `PatchModel.patch_projected_direct`
without value classes: every frame point and every cloud point is
projected on its own, singular hits are dropped point by point, and the
pairs of different cells are summed point by point in the grouped cloud.
"""

import numpy as np

from splab._pairsum import pair_kernel_sum
from splab.patches import _project_values, basic_values, cluster_scale, patch_values


def _projected_pair_sums(points, values, shifts, p, q, **kwargs):
    """Stacked `pair_kernel_sum` of the values projected by each shift, hits dropped."""
    stack = np.empty((len(shifts),) + values.shape)
    hits = []
    for i, a in enumerate(shifts):
        stack[i], hit = _project_values(values, a)
        hits.append(np.flatnonzero(hit))
    return pair_kernel_sum(points, stack, p, q, drop=hits, **kwargs)


def projected_point_by_point(model, spec, shifts):
    """(S,) projected energies of ``spec`` at the (S, 2) ``shifts``."""
    p, sp, q = model.params.p, model.params.sp, 2 + model.params.sp
    frame_pts = model._frame_pts
    frame = _projected_pair_sums(frame_pts, basic_values(frame_pts, spec), shifts, p, q,
                                 weights=model.h0**2, workers=2)
    pts, _, w, groups = model._patch_cloud(spec)
    cloud = _projected_pair_sums(pts, patch_values(pts, spec), shifts, p, q, weights=w,
                                 groups=groups, workers=2)
    fine = spec.k**spec.ell * cluster_scale(spec.k) ** (spec.ell - sp) * (2.0 * frame)
    return fine + 2.0 * cloud
