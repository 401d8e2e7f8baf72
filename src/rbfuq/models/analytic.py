"""Closed-form benchmark models.

Each model maps a D-vector of stochastic parameters to a GridField; the
Poisson problem additionally has a closed-form mean used as ground truth.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import GridField, GridSpec


def g_function(y) -> float:
    """Product benchmark u(y) = prod_m (|4 y_m - 2| + a_m) / (1 + a_m).

    Coefficients a_m = (m - 2)/2 on [0, 1]^D; the exact mean is 1 for
    every D, even though the first factor changes sign (a_1 = -1/2).
    """
    y = np.asarray(y, dtype=float).ravel()
    a = (np.arange(1, y.size + 1) - 2.0) / 2.0
    return float(np.prod((np.abs(4.0 * y - 2.0) + a) / (1.0 + a)))


def kl_eigenvalue(m: int, correlation_length: float) -> float:
    """Eigenvalue lambda_m = (sqrt(pi) L_c)^(1/2) exp(-(floor(m/2) pi L_c)^2 / 8)."""
    if m < 2:
        raise ValueError("eigenvalues index the expansion terms m >= 2")
    lc = float(correlation_length)
    return math.sqrt(math.sqrt(math.pi) * lc) * math.exp(
        -((m // 2) * math.pi * lc) ** 2 / 8.0
    )


def kl_log_field(y, x2, correlation_length: float):
    """Truncated log-normal field expansion and the derived force.

    Returns the pair (log_field, force) where

        log_field = 1 + y_1 (sqrt(pi) L_c / 2)^(1/2)
                      + sum_{m=2}^{D} lambda_m phi_m(x2) y_m,
        force     = exp(log_field) - 9.81,

    with phi_m(x2) = sin(floor(m/2) pi x2) for even m and cos for odd m.
    Both outputs broadcast over x2.
    """
    y = np.asarray(y, dtype=float).ravel()
    lc = float(correlation_length)
    x2 = np.asarray(x2, dtype=float)
    log_field = 1.0 + y[0] * math.sqrt(math.sqrt(math.pi) * lc / 2.0) + np.zeros_like(x2)
    for m in range(2, y.size + 1):
        freq = (m // 2) * math.pi
        phi = np.sin(freq * x2) if m % 2 == 0 else np.cos(freq * x2)
        log_field = log_field + kl_eigenvalue(m, lc) * phi * y[m - 1]
    force = np.exp(log_field) - 9.81
    return log_field, force


@dataclass(frozen=True)
class PoissonExact:
    """1-parameter diffusion benchmark sampled from its exact solution.

    The default grid has 33 x 33 points on [-1/2, 1/2]^2.
    """

    grid: GridSpec = field(
        default_factory=lambda: GridSpec(extents=((-0.5, 0.5), (-0.5, 0.5)), counts=(33, 33))
    )

    def __post_init__(self):
        if min(self.grid.counts) < 2:
            raise ValueError(f"the Poisson grid needs at least 2 points per axis, got {self.grid.counts}")

    @property
    def dim(self) -> int:
        return 1

    def evaluate(self, y) -> GridField:
        """Exact diffusion solution u(y, x) = 16 e^(-y1^2) (x1^2 - 1/4)(x2^2 - 1/4).

        The solution is sampled directly on the grid; the boundary rows and
        columns vanish by construction.
        """
        y1 = float(np.asarray(y).ravel()[0])
        x = self.grid.points()
        u = 16.0 * math.exp(-y1 * y1) * (x[:, 0] ** 2 - 0.25) * (x[:, 1] ** 2 - 0.25)
        return GridField(grid=self.grid, values=u)

    def exact_mean(self) -> GridField:
        """Exact mean over y1 ~ U(-sqrt(3), sqrt(3)).

        E[u] = (1/6) erf(sqrt(3)) sqrt(3) sqrt(pi) (16 x1^2 x2^2 - 4 x1^2 - 4 x2^2 + 1),
        the expectation of the e^(-y1^2) factor folded into the polynomial part.
        """
        c = math.erf(math.sqrt(3.0)) * math.sqrt(3.0) * math.sqrt(math.pi) / 6.0
        x = self.grid.points()
        x1s = x[:, 0] ** 2
        x2s = x[:, 1] ** 2
        return GridField(grid=self.grid, values=c * (16.0 * x1s * x2s - 4.0 * x1s - 4.0 * x2s + 1.0))


@dataclass(frozen=True)
class GFunction:
    """Scalar product benchmark on [0, 1]^D with exact mean 1."""

    dim: int

    @property
    def grid(self) -> GridSpec:
        return GridSpec.single()

    def evaluate(self, y) -> GridField:
        return GridField(grid=self.grid, values=np.array([g_function(y)]))

    def exact_mean(self) -> GridField:
        return GridField.scalar(1.0)


@dataclass(frozen=True)
class KLField:
    """Force field exp(log-normal expansion) - 9.81 on an x2-grid."""

    dim: int
    correlation_length: float = 2.0
    grid: GridSpec = field(
        default_factory=lambda: GridSpec(extents=((0.0, 1.0),), counts=(33,))
    )

    def __post_init__(self):
        if not self.correlation_length > 0:
            raise ValueError(f"correlation_length must be positive, got {self.correlation_length}")

    def evaluate(self, y) -> GridField:
        x2 = self.grid.points()[:, -1]
        _, force = kl_log_field(y, x2, self.correlation_length)
        return GridField(grid=self.grid, values=force)
