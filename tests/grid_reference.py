"""Rescaled sampled maps for the scaling tests.

`rescale_map` moves a sampled map's grid and support by a `Placement`,
v(x) = u((x - t) / scale), and copies the values bit for bit: no
re-interpolation happens, so (scale, t) then (1/scale, -t/scale) is a
bit-exact inverse.
"""

from dataclasses import dataclass

import numpy as np

from splab.grid import Box, Grid, SampledMap


@dataclass(frozen=True)
class Placement:
    """Affine placement x -> scale * x + translate of a map's domain."""

    translate: tuple[float, ...]
    scale: float = 1.0


def placed_box(box: Box, placement: Placement) -> Box:
    """The corners of ``box`` under x -> scale x + translate."""
    t = np.asarray(placement.translate, dtype=float)
    return Box(tuple(np.asarray(box.lo) * placement.scale + t), tuple(np.asarray(box.hi) * placement.scale + t))


def rescale_map(u: SampledMap, placement: Placement) -> SampledMap:
    """u on its grid and support moved by ``placement``, values unchanged."""
    grid = Grid(u.grid.dim, placed_box(u.grid.box, placement), u.grid.spacing * placement.scale)
    return SampledMap(grid, u.values, u.nu, placed_box(u.support, placement), u.constant)
