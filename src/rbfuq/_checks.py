"""The value checks every config object's rules call first: each returns the value
as its owner stores it, or raises a ValueError naming it (never a TypeError)."""
import math

import numpy as np


def _real(value, name: str, positive: bool = False) -> float:
    """A finite real number (an int or NumPy scalar, not a bool), above zero if ``positive``."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        number = float(value)
    except OverflowError:  # an int beyond the float range
        number = math.inf if value > 0 else -math.inf
    if positive and not number > 0:  # NaN too
        raise ValueError(f"{name} must be positive, got {number}")
    if not math.isfinite(number):
        raise ValueError(f"{name} must be finite, got {number}")
    return number


def _integer(value, name: str) -> int:
    """An integer or NumPy integer, not a bool and not a float such as 2.0."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _string(value, name: str) -> str:
    if not isinstance(value, str) or not value:
        raise ValueError(f"{name} must be a non-empty string, got {value!r}")
    return value


def _items(value, name: str) -> tuple:
    """The entries of a list, a tuple or an array (its rows)."""
    if not isinstance(value, (list, tuple, np.ndarray)) or getattr(value, "ndim", 1) == 0:
        raise ValueError(f"{name} must be a list, got {value!r}")
    return tuple(value)
