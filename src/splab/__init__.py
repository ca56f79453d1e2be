"""Numerical laboratory for singular projections of fractional Sobolev maps."""

from .energy import FractionalParams, Region, EnergyValue, gagliardo_energy
from .grid import Box, Grid, SampledMap, make_grid, sample_map

__all__ = [
    "Box",
    "EnergyValue",
    "FractionalParams",
    "Grid",
    "Region",
    "SampledMap",
    "gagliardo_energy",
    "make_grid",
    "sample_map",
]

__version__ = "0.1.0"
