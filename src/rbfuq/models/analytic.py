"""Closed-form benchmark models.

Each model maps a D-vector of stochastic parameters to a GridField, and
states its closed-form mean, a study's ground truth, and the box of that mean.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .._checks import _integer, _real
from ..param_space import ParameterDomain
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
    return _kl_sum(y, _kl_coefficients(y.size, x2, correlation_length))


def _kl_sum(y: np.ndarray, coeffs: list):
    """(log_field, force) from the coefficients c_m(x2), one per entry of y."""
    log_field = 1.0 + y[0] * coeffs[0]
    for c, ym in zip(coeffs[1:], y[1:]):
        log_field = log_field + c * ym
    force = np.exp(log_field) - 9.81
    return log_field, force


def _kl_coefficients(dim: int, x2, correlation_length: float) -> list:
    """c_m(x2), m = 1..dim, with log_field = 1 + sum_m c_m(x2) y_m."""
    lc = float(correlation_length)
    x2 = np.asarray(x2, dtype=float)
    coeffs = [math.sqrt(math.sqrt(math.pi) * lc / 2.0) + np.zeros_like(x2)]
    for m in range(2, dim + 1):
        freq = (m // 2) * math.pi
        phi = np.sin(freq * x2) if m % 2 == 0 else np.cos(freq * x2)
        coeffs.append(kl_eigenvalue(m, lc) * phi)
    return coeffs


def _check_dim(dim) -> None:
    if _integer(dim, "dim") < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")


@dataclass(frozen=True)
class PoissonExact:
    """1-parameter diffusion benchmark sampled from its exact solution.

    The default grid has 33 x 33 points on [-1/2, 1/2]^2.
    """

    grid: GridSpec = field(
        default_factory=lambda: GridSpec(extents=((-0.5, 0.5), (-0.5, 0.5)), counts=(33, 33))
    )

    def __post_init__(self):
        if not isinstance(self.grid, GridSpec):
            raise ValueError(f"grid must be a GridSpec, got {self.grid!r}")
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

    @property
    def mean_box(self) -> ParameterDomain:
        """The box of ``exact_mean``: [-sqrt(3), sqrt(3)]."""
        return ParameterDomain.symmetric(math.sqrt(3.0), 1)

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

    def __post_init__(self):
        _check_dim(self.dim)

    @property
    def grid(self) -> GridSpec:
        return GridSpec.single()

    def evaluate(self, y) -> GridField:
        return GridField(grid=self.grid, values=np.array([g_function(y)]))

    @property
    def mean_box(self) -> ParameterDomain:
        """The box of ``exact_mean``: [0, 1]^D."""
        return ParameterDomain.unit(self.dim)

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
        _check_dim(self.dim)
        object.__setattr__(self, "correlation_length", _real(self.correlation_length, "correlation_length", positive=True))
        if not isinstance(self.grid, GridSpec):
            raise ValueError(f"grid must be a GridSpec, got {self.grid!r}")

    @cached_property  # built once per model, not once per sample
    def _coefficients(self) -> list:
        return _kl_coefficients(self.dim, self.grid.points()[:, -1], self.correlation_length)

    def evaluate(self, y) -> GridField:
        y = np.asarray(y, dtype=float).ravel()
        if y.size != self.dim:
            raise ValueError(f"KLField of dimension {self.dim} evaluated at a point of dimension {y.size}")
        _, force = _kl_sum(y, self._coefficients)
        return GridField(grid=self.grid, values=force)

    @property
    def mean_box(self) -> ParameterDomain:
        """The box of ``exact_mean``: [-sqrt(3), sqrt(3)]^D."""
        return ParameterDomain.symmetric(math.sqrt(3.0), self.dim)

    def exact_mean(self) -> GridField:
        """Exact mean over y ~ U(-sqrt(3), sqrt(3))^D: the axes are independent, so it is
        e prod_m sinh(sqrt(3) c_m) / (sqrt(3) c_m) - 9.81, with a factor 1 where c_m(x2) = 0."""
        a = math.sqrt(3.0) * np.abs(self._coefficients)
        factors = np.ones_like(a)
        np.divide(np.sinh(a), a, out=factors, where=a > 0.0)
        return GridField(grid=self.grid, values=math.e * np.prod(factors, axis=0) - 9.81)
