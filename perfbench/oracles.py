"""Reference values for the benchmark's checks, computed apart from rbfuq.

Nothing here calls into rbfuq: the closed-form means, the permuted
G-function, the Gaussian moment product and the split tensor quadrature
are written out again from their formulas, so that a fault in the
program cannot hide in its own reference.
"""
from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import numpy as np

SQRT3 = math.sqrt(3.0)


def axis_order(seed: int, dim: int) -> tuple:
    """The seed's relabelling of the parameter axes (a permutation)."""
    order = list(range(dim))
    random.Random(seed).shuffle(order)
    return tuple(order)


def halton_unit(n: int, dim: int, start: int = 1) -> np.ndarray:
    """Halton points of indices start..start+n-1 in [0, 1)^dim.

    Axis d uses the d-th prime as its base; each coordinate is the exact
    fraction of the reversed digits, rounded once to a float.
    """
    primes = [p for p in range(2, 100) if all(p % q for q in range(2, p))][:dim]
    out = np.empty((n, dim))
    for row, i in enumerate(range(start, start + n)):
        for d, base in enumerate(primes):
            value, scale, k = Fraction(0), Fraction(1, base), i
            while k:
                value += (k % base) * scale
                scale /= base
                k //= base
            out[row, d] = float(value)
    return out


def g_permuted(y, perm) -> float:
    """u(y) = prod_m (|4 y_{p_m} - 2| + a_m) / (1 + a_m), a_m = (m - 2)/2.

    The product runs in the same order and with the same operations as
    the stub solver, so the two agree bit for bit.
    """
    u = 1.0
    for m, axis in enumerate(perm):
        a = (m - 1) / 2.0
        u *= (abs(4.0 * float(y[axis]) - 2.0) + a) / (1.0 + a)
    return u


def kl_coefficients(x2, correlation_length: float, dim: int) -> list:
    """c_m(x2) of log a = 1 + sum_m c_m(x2) y_m for the truncated KL field.

    c_1 = (sqrt(pi) L / 2)^(1/2); for m >= 2, c_m = lambda_m phi_m(x2) with
    lambda_m = (sqrt(pi) L)^(1/2) exp(-(floor(m/2) pi L)^2 / 8) and phi_m
    the sine (m even) or cosine (m odd) of floor(m/2) pi x2.
    """
    x2 = np.asarray(x2, dtype=float)
    lc = float(correlation_length)
    coeffs = [np.full(x2.shape, math.sqrt(math.sqrt(math.pi) * lc / 2.0))]
    for m in range(2, dim + 1):
        freq = (m // 2) * math.pi
        lam = math.sqrt(math.sqrt(math.pi) * lc) * math.exp(-((m // 2) * math.pi * lc) ** 2 / 8.0)
        coeffs.append(lam * (np.sin(freq * x2) if m % 2 == 0 else np.cos(freq * x2)))
    return coeffs


def kl_mean(x2, correlation_length: float, dim: int) -> np.ndarray:
    """E[exp(log a) - 9.81] for y uniform on the box [-sqrt 3, sqrt 3]^D.

    The exponential factorises over independent axes, and
    E[exp(c y)] = sinh(sqrt(3) c) / (sqrt(3) c), so the mean is
    e^1 prod_m sinh(sqrt(3) c_m) / (sqrt(3) c_m) - 9.81.
    """
    mean = math.e
    for c in kl_coefficients(x2, correlation_length, dim):
        z = SQRT3 * c
        safe = np.where(z == 0.0, 1.0, z)
        mean = mean * np.where(z == 0.0, 1.0, np.sinh(safe) / safe)
    return mean - 9.81


def poisson_shape(x) -> np.ndarray:
    """Spatial factor 16 (x1^2 - 1/4)(x2^2 - 1/4) of the Poisson solution."""
    x = np.asarray(x, dtype=float)
    return 16.0 * (x[:, 0] ** 2 - 0.25) * (x[:, 1] ** 2 - 0.25)


def poisson_mean_factor(shift: float) -> float:
    """E[exp(-(y - s)^2)] for y uniform on [-sqrt 3, sqrt 3], by math.erf."""
    return math.sqrt(math.pi) / (4.0 * SQRT3) * (math.erf(SQRT3 - shift) + math.erf(SQRT3 + shift))


def gaussian_moments(centres, epsilon: float, lower, upper) -> np.ndarray:
    """Box means of exp(-eps^2 |y - c|^2), one math.erf pair per axis."""
    out = []
    volume = math.prod(u - l for l, u in zip(lower, upper))
    for c in np.asarray(centres, dtype=float):
        value = 1.0
        for cd, l, u in zip(c, lower, upper):
            value *= math.sqrt(math.pi) / (2.0 * epsilon) * (
                math.erf(epsilon * (u - cd)) - math.erf(epsilon * (l - cd))
            )
        out.append(value / volume)
    return np.array(out)


def split_quadrature(profile, centre, lower, upper, order: int) -> float:
    """Box mean of profile(|y - centre|) by tensor Gauss-Legendre.

    The box is split at the centre into 2^D boxes, so the kink of the
    kernel at its centre sits at a corner of each; every axis is graded
    towards that corner by y = c + (f - c) t^3, which smooths the corner.
    ``profile`` maps Euclidean distances to kernel values.
    """
    centre = np.asarray(centre, dtype=float)
    dim = centre.size
    t, w = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (t + 1.0)
    w = 0.5 * w
    total = 0.0
    for faces in itertools.product((0, 1), repeat=dim):
        axes_x, axes_w = [], []
        for d, side in enumerate(faces):
            length = (upper[d] if side else lower[d]) - centre[d]
            axes_x.append(length * t ** 3)
            axes_w.append(abs(length) * 3.0 * t ** 2 * w)
        grids = np.meshgrid(*axes_x, indexing="ij")
        r = np.sqrt(sum(g * g for g in grids))
        weight = axes_w[0]
        for wd in axes_w[1:]:
            weight = np.multiply.outer(weight, wd)
        total += float(np.sum(weight * profile(r)))
    volume = math.prod(u - l for l, u in zip(lower, upper))
    return total / volume
