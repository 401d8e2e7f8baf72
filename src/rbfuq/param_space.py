"""Parameter boxes, their product densities, and Halton collocation points.

The stochastic parameter lives in a D-dimensional box with independent
uniform marginals.  Collocation points are drawn from a Halton sequence
(radical inverses in the first D prime bases) and affinely mapped into
the box.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._checks import _integer, _items, _real

# First 64 primes; one base per dimension.
_PRIME_BASES = (
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53,
    59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
    137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281,
    283, 293, 307, 311,
)

MAX_DIM = len(_PRIME_BASES)


def _halton_bases(dim: int) -> tuple:
    """The prime bases of a dim-dimensional Halton sequence; the one place that refuses dim > MAX_DIM."""
    if _integer(dim, "dim") > MAX_DIM:
        raise ValueError(f"domain dimension {dim} exceeds the {MAX_DIM} available prime bases")
    return _PRIME_BASES[:dim]


def radical_inverse(i: int, base: int) -> float:
    """Radical inverse of a positive integer in a given base.

    Reverses the digits of ``i`` in base ``base`` around the radix point,
    so that psi_base(i) = sum_j a_j(i) base^(-j) for the digit expansion
    i = sum_j a_j(i) base^(j-1).

    Parameters
    ----------
    i : int
        Sequence index, must be >= 1.
    base : int
        Digit base, must be >= 2.

    Returns
    -------
    float
        The radical inverse in [0, 1).  The computation accumulates the
        reversed digits as an exact integer fraction and performs a single
        float division, so the result is correctly rounded whenever the
        numerator and denominator are exactly representable.
    """
    if i < 1:
        raise ValueError(f"radical inverse needs index >= 1, got {i}")
    if base < 2:
        raise ValueError(f"radical inverse needs base >= 2, got {base}")
    num = 0
    den = 1
    while i > 0:
        num = num * base + i % base
        den *= base
        i //= base
    return num / den


@dataclass(frozen=True)
class ParameterDomain:
    """A D-dimensional box with independent uniform marginals.

    Attributes
    ----------
    lower, upper : np.ndarray
        Per-dimension interval bounds, each of length D with lower < upper.
    """

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo, hi = (
            [_real(v, f"{name}[{i}]") for i, v in enumerate(_items(bounds, name))]
            for name, bounds in (("lower", self.lower), ("upper", self.upper))
        )
        if len(lo) != len(hi):
            raise ValueError("lower and upper must be 1-d arrays of equal length")
        if not lo:
            raise ValueError("domain needs at least one dimension")
        for d, (a, b) in enumerate(zip(lo, hi)):
            if not a < b:  # before the width, which overflows to -inf for some such
                raise ValueError(f"dimension {d} has empty interval [{a}, {b}]")
            if math.isinf(b - a):
                raise ValueError(f"dimension {d} has interval [{a}, {b}], whose width overflows the float range")
        object.__setattr__(self, "lower", np.array(lo))
        object.__setattr__(self, "upper", np.array(hi))

    @classmethod
    def unit(cls, dim: int) -> "ParameterDomain":
        """The unit box [0, 1]^dim."""
        dim = max(_integer(dim, "dim"), 0)  # a negative dim is refused as 0 is, by __post_init__
        return cls(np.zeros(dim), np.ones(dim))

    @classmethod
    def symmetric(cls, half_width: float, dim: int) -> "ParameterDomain":
        """The box [-half_width, half_width]^dim."""
        half_width = _real(half_width, "half_width")
        dim = max(_integer(dim, "dim"), 0)  # a negative dim is refused as 0 is, by __post_init__
        return cls(np.full(dim, -half_width), np.full(dim, half_width))

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def lengths(self) -> np.ndarray:
        return self.upper - self.lower

    @property
    def volume(self) -> float:
        return float(np.prod(self.lengths))

    def map_from_unit(self, u: np.ndarray) -> np.ndarray:
        """Affinely map points from [0,1)^D into the box."""
        u = np.asarray(u, dtype=float)
        return self.lower + u * self.lengths


@dataclass(frozen=True)
class CollocationSet:
    """An ordered set of collocation points with their provenance.

    Attributes
    ----------
    points : np.ndarray
        N x D array, one point per row.
    source : str
        "halton(start_index=<i>)" or "explicit".
    """

    points: np.ndarray
    source: str = "explicit"

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim == 1:
            pts = pts[:, None]
        if pts.ndim != 2 or pts.shape[0] < 1:
            raise ValueError("points must be a nonempty N x D array")
        object.__setattr__(self, "points", pts)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    def prefix(self, n: int) -> "CollocationSet":
        """The first n points, keeping provenance."""
        if not 1 <= n <= self.n:
            raise ValueError(f"prefix length {n} outside 1..{self.n}")
        return CollocationSet(self.points[:n], self.source)


def _radical_inverses(first: int, n: int, base: int) -> np.ndarray:
    """``radical_inverse(i, base)`` for i = first, ..., first + n - 1, bitwise.

    The digits of the whole axis are reversed at once into int64 numerators
    and denominators, followed by one float division.  Below ``_INDEX_LIMIT``
    both are exact doubles, so each quotient is the correctly rounded one,
    as in ``radical_inverse``.
    """
    i = np.arange(first, first + n, dtype=np.int64)
    num = np.zeros(n, dtype=np.int64)
    den = np.ones(n, dtype=np.int64)
    while i.any():
        more = i > 0  # indices with digits left
        num = np.where(more, num * base + i % base, num)
        den = np.where(more, den * base, den)
        i //= base
    return num / den


# The denominator of an index i is at most base * i < 311 * 2^44 < 2^53.
_INDEX_LIMIT = 2**44


def halton_points(
    domain: ParameterDomain, n: int, start_index: int = 1
) -> CollocationSet:
    """The first n Halton points mapped into the domain box.

    Output slot i (0-based) holds the Halton element of index
    ``start_index + i``; dimension d uses the d-th prime as its base.
    Starting at index 1 skips the all-zeros sequence element, so every
    returned point lies strictly inside the open box.

    Parameters
    ----------
    domain : ParameterDomain
    n : int
        Number of points, >= 1.
    start_index : int
        First Halton index to emit, >= 1 (``radical_inverse`` refuses 0).
        Every index must stay below 2^44: beyond it the reversed-digit
        fraction could pass 2^53 and round.
    """
    if n < 1:
        raise ValueError(f"need at least one point, got n={n}")
    if start_index < 1:
        raise ValueError(f"Halton start_index must be >= 1, got {start_index}")
    if start_index + n > _INDEX_LIMIT:
        raise ValueError(
            f"Halton index {start_index + n - 1} is 2^44 or more, where the "
            "reversed digits no longer divide exactly in double precision"
        )
    unit = np.empty((n, domain.dim))
    for d, base in enumerate(_halton_bases(domain.dim)):
        unit[:, d] = _radical_inverses(start_index, n, base)
    return CollocationSet(
        domain.map_from_unit(unit), source=f"halton(start_index={start_index})"
    )
