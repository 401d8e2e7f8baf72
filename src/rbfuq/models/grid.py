"""Uniform-grid fields used as vector-valued quantities of interest."""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, lru_cache

import numpy as np

from .._checks import _integer, _items, _real


class NonFiniteFieldError(ValueError):
    """A field, such as a model output, holds NaN or infinite values."""


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor grid: per-axis extents and point counts.

    Grid points double as cell centers for averaging purposes; axis d
    carries ``counts[d]`` equispaced points spanning ``extents[d]``.
    """

    extents: tuple
    counts: tuple

    def __post_init__(self):
        extents = tuple(
            tuple(_real(v, f"extents[{d}]") for v in _items(pair, f"extents[{d}]"))
            for d, pair in enumerate(_items(self.extents, "extents"))
        )
        counts = tuple(_integer(c, f"counts[{d}]") for d, c in enumerate(_items(self.counts, "counts")))
        if len(extents) != len(counts) or not counts or any(len(pair) != 2 for pair in extents):
            raise ValueError("extents and counts must align, one pair per axis")
        for d, ((lo, hi), c) in enumerate(zip(extents, counts)):
            if c < 1:
                raise ValueError(f"axis {d} has count {c}")
            if hi < lo:
                raise ValueError(f"axis {d} has bad extent ({lo}, {hi})")
        object.__setattr__(self, "extents", extents)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def npoints(self) -> int:
        return math.prod(self.counts)

    def axes(self) -> tuple:
        return tuple(
            np.linspace(lo, hi, c) for (lo, hi), c in zip(self.extents, self.counts)
        )

    def points(self) -> np.ndarray:
        """All grid points, row-major over the axes, shape (M, dim).

        Built once per grid and shared, so the array is read-only.
        """
        return _grid_points(self)

    @classmethod
    @cache  # one shared instance: the G-function builds a field on it per sample
    def single(cls) -> "GridSpec":
        """One-point grid for scalar quantities of interest."""
        return cls(extents=((0.0, 0.0),), counts=(1,))


@lru_cache(maxsize=16)
def _grid_points(grid: GridSpec) -> np.ndarray:
    grids = np.meshgrid(*grid.axes(), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    pts.flags.writeable = False  # shared by the cache
    return pts


@dataclass(frozen=True)
class GridField:
    """Flat value array over a GridSpec, length M = product of counts."""

    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        if values.size != self.grid.npoints:
            raise ValueError(
                f"{values.size} values on a grid of {self.grid.npoints} points"
            )
        if not np.all(np.isfinite(values)):
            raise NonFiniteFieldError("grid field contains non-finite values")
        object.__setattr__(self, "values", values)

    @classmethod
    def scalar(cls, value: float) -> "GridField":
        return cls(grid=GridSpec.single(), values=np.array([float(value)]))


def center_of_mass(indicator: GridField) -> np.ndarray:
    """Average position of the cells where the indicator is positive.

    Cells are equal-volume on a uniform grid, so the volume-weighted
    center reduces to the plain mean of the positive cells' coordinates.
    """
    mask = indicator.values > 0.0
    if not mask.any():
        raise ValueError("indicator has no positive cells")
    return indicator.grid.points()[mask].mean(axis=0)
