"""Radial kernels of the scaled Euclidean distance zeta * |y - c|.

Families follow the usual closed forms: the Gaussian exp(-eps^2 r^2),
the compactly supported Wendland functions phi_{D,k} for k = 0..3, and
the two simplified Matern variants exp(-r) and (1+r)exp(-r) that arise
for the parameter choices beta = (D+1)/2 and (D+3)/2.  All families are
normalized to 1 at r = 0, which leaves interpolation unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from ._checks import _integer, _real, _string

# Entries per block of rows that the profile is applied to in place.
_PROFILE_BLOCK_ENTRIES = 2 ** 15

FAMILIES = (
    "gaussian",
    "wendland0",
    "wendland1",
    "wendland2",
    "wendland3",
    "matern12",
    "matern32",
)


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel family bound to a dimension and a norm scale.

    Attributes
    ----------
    family : str
        One of FAMILIES.
    dim : int
        Parameter-space dimension D (sets the Wendland exponent).
    epsilon : float
        Gaussian shape parameter; ignored by the other families.
    zeta : float
        Scale of the Euclidean norm, > 0: the kernel is phi(zeta * |y - c|).
    """

    family: str
    dim: int
    epsilon: float = 1.0
    zeta: float = 1.0

    def __post_init__(self):
        if _string(self.family, "family") not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        if _integer(self.dim, "kernel dimension") < 1:
            raise ValueError(f"kernel dimension must be >= 1, got {self.dim}")
        object.__setattr__(self, "epsilon", _real(self.epsilon, "epsilon", positive=True))
        object.__setattr__(self, "zeta", _real(self.zeta, "norm scale zeta", positive=True))

    def profile(self, d) -> np.ndarray:
        """Kernel value as a function of the unscaled distance d.

        The norm scale zeta enters here: Wendland and Matern profiles are
        evaluated at r = zeta * d, the Gaussian at (epsilon * zeta * d)^2,
        so that Gaussian(eps) with scale zeta is bitwise identical to
        Gaussian(eps * zeta) with unit scale.
        """
        return self._profile_in_place(np.array(d, dtype=float))

    def _profile_in_place(self, d: np.ndarray) -> np.ndarray:
        """The profile at distances d, computed in d's own buffer."""
        gaussian = self.family == "gaussian"
        d *= self.epsilon * self.zeta if gaussian else self.zeta
        if gaussian:
            d *= d
        if self.family in ("gaussian", "matern12"):
            return np.exp(np.negative(d, out=d), out=d)
        if self.family == "matern32":
            decay = np.negative(d, out=np.empty_like(d))
            np.exp(decay, out=decay)
            d += 1.0
            return np.multiply(d, decay, out=d)
        return _wendland(d, self.dim, int(self.family[-1]))


def _wendland(r: np.ndarray, dim: int, k: int) -> np.ndarray:
    """Minimal-degree Wendland function phi_{dim,k}(r), normalized to phi(0)=1.

    ell = floor(dim/2) + k + 1; the polynomial factors for k = 2, 3 are the
    standard ones with the usual normalizing denominators 3 and 15.  It is
    computed in r's buffer, with at most two more arrays of r's shape.
    """
    ell = dim // 2 + k + 1
    # the polynomial factor first, while r is still the distance
    if k == 1:
        poly = r * (ell + 1.0)
        poly += 1.0
    elif k == 2:
        poly = r * (ell * ell + 4.0 * ell + 3.0)
        poly *= r
        poly += r * (3.0 * ell + 6.0)
        poly += 3.0
    elif k == 3:
        poly = r ** 3
        poly *= ell ** 3 + 9.0 * ell ** 2 + 23.0 * ell + 15.0
        term = r * (6.0 * ell ** 2 + 36.0 * ell + 45.0)
        term *= r
        poly += term
        del term
        poly += r * (15.0 * ell + 45.0)
        poly += 15.0
    base = np.maximum(np.subtract(1.0, r, out=r), 0.0, out=r)
    base **= ell + k
    if k == 0:
        return base
    base *= poly
    if k >= 2:
        base /= (3.0, 15.0)[k - 2]
    return base


def _point_rows(points) -> np.ndarray:
    """points as a float array with one point per row; any other shape is
    refused by name, so that a flat array of 1-D points is not misread."""
    points = np.asarray(points, dtype=float)
    if points.ndim != 2:
        raise ValueError(
            f"points must be a 2-D array with one point per row, got an array of shape {points.shape}"
        )
    return points


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of kernel values between two point arrays (rows of a and b).

    The profile runs in place over blocks of whole rows of the distance
    matrix, about ``_PROFILE_BLOCK_ENTRIES`` entries each, so that its
    temporaries stay cache-sized instead of doubling the result's memory.
    """
    a, b = _point_rows(a), _point_rows(b)
    if a.shape[1] != spec.dim or b.shape[1] != spec.dim:
        raise ValueError(
            f"kernel of dimension {spec.dim} applied to point arrays of "
            f"dimensions {a.shape[1]} and {b.shape[1]}"
        )
    values = cdist(a, b)
    rows = max(1, _PROFILE_BLOCK_ENTRIES // max(1, values.shape[1]))
    for s in range(0, values.shape[0], rows):
        spec._profile_in_place(values[s : s + rows])
    return values
