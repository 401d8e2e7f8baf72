"""Radial kernels under a scaled, optionally anisotropic Euclidean norm.

Families follow the usual closed forms: the Gaussian exp(-eps^2 r^2),
the compactly supported Wendland functions phi_{D,k} for k = 0..3, and
the two simplified Matern variants exp(-r) and (1+r)exp(-r) that arise
for the parameter choices beta = (D+1)/2 and (D+3)/2.  All families are
normalized to 1 at r = 0, which leaves interpolation unchanged.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial.distance import cdist

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
class NormSpec:
    """Scaled anisotropic Euclidean norm  zeta * ||(w_1 y_1, ..., w_D y_D)||_2.

    Attributes
    ----------
    zeta : float
        Global scale factor, > 0.
    weights : tuple of float or None
        Per-dimension weights, all > 0.  None means all ones.
    """

    zeta: float = 1.0
    weights: tuple | None = None

    def __post_init__(self):
        if not self.zeta > 0:
            raise ValueError(f"norm scale zeta must be positive, got {self.zeta}")
        if self.weights is not None:
            w = tuple(float(v) for v in self.weights)
            if len(w) == 0 or any(v <= 0 for v in w):
                raise ValueError("norm weights must all be positive")
            object.__setattr__(self, "weights", w)

    def _apply_weights(self, pts: np.ndarray) -> np.ndarray:
        if self.weights is None:
            return pts
        w = np.asarray(self.weights)
        if pts.shape[-1] != w.size:
            raise ValueError(
                f"norm has {w.size} weights but points have dimension {pts.shape[-1]}"
            )
        return pts * w

    def pairwise(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Unscaled weighted distances between two point arrays.

        Returns ||w (a_i - b_j)||_2 without the zeta factor; kernel
        profiles fold zeta in together with their own shape parameters.
        """
        return cdist(self._apply_weights(a), self._apply_weights(b))


@dataclass(frozen=True)
class KernelSpec:
    """A radial kernel family bound to a dimension and a norm.

    Attributes
    ----------
    family : str
        One of FAMILIES.
    dim : int
        Parameter-space dimension D (sets the Wendland exponent).
    epsilon : float
        Gaussian shape parameter; ignored by the other families.
    norm : NormSpec
    """

    family: str
    dim: int
    epsilon: float = 1.0
    norm: NormSpec = field(default_factory=NormSpec)

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ValueError(
                f"unknown kernel family {self.family!r}; expected one of {', '.join(FAMILIES)}"
            )
        if self.dim < 1:
            raise ValueError(f"kernel dimension must be >= 1, got {self.dim}")
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if self.norm.weights is not None and len(self.norm.weights) != self.dim:
            raise ValueError(
                f"norm has {len(self.norm.weights)} weights for dimension {self.dim}"
            )

    def profile(self, d) -> np.ndarray:
        """Kernel value as a function of the unscaled weighted distance d.

        The norm scale zeta enters here: Wendland and Matern profiles are
        evaluated at r = zeta * d, the Gaussian at (epsilon * zeta * d)^2,
        so that Gaussian(eps) with scale zeta is bitwise identical to
        Gaussian(eps * zeta) with unit scale.
        """
        return self._profile_in_place(np.array(d, dtype=float))

    def _profile_in_place(self, d: np.ndarray) -> np.ndarray:
        """The profile at distances d, computed in d's own buffer."""
        gaussian = self.family == "gaussian"
        d *= self.epsilon * self.norm.zeta if gaussian else self.norm.zeta
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


def kernel_matrix(spec: KernelSpec, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix of kernel values between two point arrays (rows of a and b).

    The profile runs in place over blocks of whole rows of the distance
    matrix, about ``_PROFILE_BLOCK_ENTRIES`` entries each, so that its
    temporaries stay cache-sized instead of doubling the result's memory.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape[1] != spec.dim or b.shape[1] != spec.dim:
        raise ValueError(
            f"kernel of dimension {spec.dim} applied to point arrays of "
            f"dimensions {a.shape[1]} and {b.shape[1]}"
        )
    values = spec.norm.pairwise(a, b)
    rows = max(1, _PROFILE_BLOCK_ENTRIES // max(1, values.shape[1]))
    for s in range(0, values.shape[0], rows):
        spec._profile_in_place(values[s : s + rows])
    return values
