"""Kernel moments by two exact engines, and Clenshaw-Curtis rules.

The first stochastic moment of a quantity of interest is estimated as
sum_i omega_i u(y_i), where the weights omega solve A_reg omega = b and
b_j = integral k(y, y_j) rho(y) dy is the kernel moment of centre y_j
against the uniform density of the parameter box.

Every kernel here is radial, k(y, c) = phi(|Lambda (y - c)|) with the
scaling Lambda = zeta * I, and phi has a kink at the centre (and, for
the Wendland families, on the support sphere).  A tensor rule over the
box converges only algebraically across those kinks, so the moments
come from one of two exact engines, by family:

- Gaussian scale mixtures (the Gaussian and both Matern families) are
  sums of Gaussians, phi(r) = sum_k c_k exp(-(sigma_k r)^2): one term for
  the Gaussian, a trapezoid rule over the mixture for the Matern profiles
  (``_gaussian_terms``).  Each term's moment is a product of erf
  differences, so these are exact in any D.
- Radial reduction (the Wendland families) goes through the radial
  moments M_j(R) = integral_0^R s^j phi(s) ds and H(R) = M_{D-1}(R).
  On [0, 1] each M_j is R^(j+1) times a polynomial P, whose coefficients
  in powers of R - 1/2 come from the exact rational Wendland polynomial
  (``_exact_moment``) and are rounded to float once; P is evaluated by
  Horner.  That keeps relative accuracy down to R -> 0: over D = 1..3,
  the unit and +-sqrt(3) boxes and zeta from 1e-4 to 1e4, the moments
  agree with the same reduction on exactly evaluated polynomials to
  1.4e-15 relative.  The scaled box is split at the centre into 2^D
  orthants; D = 1 is then exact, and in D = 2 and 3 each orthant is a union
  of D pyramids with apex at the centre, one per far face, whose radial
  direction integrates in closed form to the face integral of
  a_k H(R) / R^D.  In D = 2 each face is a segment; in D = 3 it is split
  at its foot into two right triangles whose radial direction closes in
  form as well.  Both leave 1-D integrals in the variable s with (offset
  along the edge) = x sinh(s), smooth however thin the orthant, split
  where the support sphere crosses the face.  Inside the sphere a
  Gauss-Legendre (GL) segment evaluates the polynomials directly
  and converges spectrally; only segments of positive width are
  evaluated.  Beyond it the integrand is elementary (M_j(R) = M_j(1)),
  and its integral is a closed form in arctangents, with no nodes.
  Only the polynomials differ between the Wendland families: the
  extents, segment splits, nodes, distances and arctangent spans depend
  on the centres, the box and zeta alone.  So the reduction takes a
  tuple of families and, per batch of centres, builds that geometry
  once and evaluates each family's polynomials on it in turn, with the
  same operations as on its own; one family is the one-element case,
  and each row is bitwise that family's vector.

Every inner segment has ``_SEGMENT_NODES`` = 33 nodes, already at the
rounding floor, so the moments need only the box.  Wendland moments in
D >= 4 are refused (``_check_moments``, which names matern32 instead):
a tensor GL rule on each face, where the support sphere is not split,
was still 1e-6 off at about 50 ms per centre in D = 5.  Wendland Gram
matrices and interpolants work in any D.  Both engines take centres in
batches of about ``_BATCH_ENTRIES`` array entries, so the temporaries
do not grow with N.  The tensor Clenshaw-Curtis rule (``cc_rule``,
``cc_nodes_weights``) is kept for direct use.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np
from scipy.special import erf, erfc

from ._checks import _integer
from .collocation import GramMatrix, Regularization, _factorize
from .kernels import KernelSpec, _point_rows
from .param_space import CollocationSet, ParameterDomain

# Bound on array entries per batch of centres, so memory stays flat in N.
_BATCH_ENTRIES = 500_000

# Trapezoid rule in u = ln t for the Matern scale mixtures: the step and
# the top node, both on a grid of 1/16 so that every node is exact (at a
# step of 0.25 the matern32 rule is still 9e-16 off at r = 0).
_MIXTURE_STEP = 3.0 / 16.0
_MIXTURE_TOP = 61.0 / 16.0

# GL nodes per inner segment of the radial reduction: 33 reach the
# rounding floor against a 257-node reference for zeta from 0.3 to 1e4,
# and more nodes do not move the moments further.
_SEGMENT_NODES = 33

# Highest level of a tensor rule, whose 2^(l-1) + 1 nodes per axis stay small.
MAX_LEVEL = 12


def cc_nodes_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Univariate Clenshaw-Curtis nodes and weights on [-1, 1].

    Nodes are the Chebyshev extrema cos(j pi / (n-1)) in ascending order.
    Weights follow the explicit cosine-sum formula

        w_j = (c_j / m) * (1 - sum_{k=1}^{m/2} b_k cos(2 k theta_j) / (4k^2 - 1)),

    with m = n - 1, b_k = 1 for k = m/2 and 2 otherwise, and c_j = 1 at the
    endpoints and 2 inside.  n = 2 means the endpoint rule with weights 1, 1.
    """
    if n < 2:
        raise ValueError(f"Clenshaw-Curtis rule needs at least 2 nodes, got {n}")
    if n == 2:
        return np.array([-1.0, 1.0]), np.array([1.0, 1.0])
    if n % 2 == 0:
        raise ValueError(f"node count must be 2 or odd, got {n}")
    m = n - 1
    theta = np.arange(n) * np.pi / m
    k = np.arange(1, m // 2 + 1)
    bk = np.where(k == m // 2, 1.0, 2.0)
    # sums[j] = sum_k b_k cos(2 k theta_j) / (4 k^2 - 1)
    sums = np.cos(2.0 * np.outer(theta, k)) @ (bk / (4.0 * k * k - 1.0))
    cj = np.full(n, 2.0)
    cj[0] = cj[m] = 1.0
    w = cj / m * (1.0 - sums)
    x = np.cos(theta)
    # symmetrize so the midpoint is exactly 0 and mirror nodes match bitwise
    x = (x - x[::-1]) / 2.0
    w = (w + w[::-1]) / 2.0
    return x[::-1].copy(), w[::-1].copy()


def _level_nodes(level: int) -> int:
    """Nodes per axis at a level; the one place that accepts or refuses a level."""
    if not 1 <= _integer(level, "quadrature level") <= MAX_LEVEL:
        raise ValueError(f"quadrature level must be between 1 and {MAX_LEVEL}, got {level}")
    # 2^(l-1) + 1 would give 2 at l = 1 only with the endpoint convention.
    return 2 if level == 1 else 2 ** (level - 1) + 1


@dataclass(frozen=True)
class TensorRule:
    """Per-dimension Clenshaw-Curtis nodes and weights mapped to a box.

    Attributes
    ----------
    level : int
    nodes, weights : tuple of np.ndarray
        One array per dimension; weights sum to the interval length.
    domain : ParameterDomain
    """

    level: int
    nodes: tuple
    weights: tuple
    domain: ParameterDomain


def cc_rule(domain: ParameterDomain, level: int, max_points: int = 10 ** 8) -> TensorRule:
    """Tensor Clenshaw-Curtis rule over the domain box, for direct use.

    Raises an error when the tensor grid would exceed ``max_points``
    points; in that case lower the level (sparse rules are out of scope).
    ``kernel_moments`` needs no rule: it takes the box itself, or reads
    only the box of a rule.
    """
    n = _level_nodes(level)
    total = n ** domain.dim
    if total > max_points:
        raise ValueError(
            f"tensor rule at level {level} has {n}^{domain.dim} = {total:.3g} "
            f"points, above the cap of {max_points:.3g}; lower the level or "
            "raise max_points"
        )
    x, w = cc_nodes_weights(n)
    nodes = []
    weights = []
    for d in range(domain.dim):
        lo = domain.lower[d]
        hi = domain.upper[d]
        nodes.append((lo + hi) / 2.0 + (hi - lo) / 2.0 * x)
        weights.append((hi - lo) / 2.0 * w)
    return TensorRule(
        level=level, nodes=tuple(nodes), weights=tuple(weights), domain=domain
    )


@lru_cache(maxsize=None)
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [0, 1]; weights sum to 1."""
    x, w = np.polynomial.legendre.leggauss(n)
    nodes, weights = (x + 1.0) / 2.0, w / 2.0
    nodes.flags.writeable = weights.flags.writeable = False  # shared by the cache
    return nodes, weights


def _gaussian_terms(spec: KernelSpec, domain: ParameterDomain) -> tuple[np.ndarray, np.ndarray]:
    """Terms (sigma_k, c_k) with phi(r) = sum_k c_k exp(-(sigma_k r)^2).

    The Gaussian is the single term (epsilon, 1).  The Matern profiles are
    the scale mixtures phi(r) = int_0^inf t^(nu-1) e^-t e^(-r^2/4t) dt / Gamma(nu),
    nu = 1/2 and 3/2, by the trapezoid rule in u = ln t with step h, which
    converges geometrically: c_k = h e^(nu u_k - e^u_k) / Gamma(nu) and
    sigma_k = e^(-u_k/2) / 2.  The nodes run down from t = e^(61/16) ~ 45,
    where e^-t t^nu < 1e-17.  Below t = min(ell, 1)^2 (ell the shortest
    scaled side of the box) a term's box mean falls like t^(nu + D/2), and
    below any t the terms hold at most t^nu of phi(0); the nodes stop once
    the smaller of the two has fallen by e^-60, and 4 units of u beyond.
    """
    if spec.family == "gaussian":
        return np.array([spec.epsilon]), np.array([1.0])
    nu = 0.5 if spec.family == "matern12" else 1.5
    ell = float(np.min(spec.zeta * (domain.upper - domain.lower)))
    box = 2.0 * math.log(min(ell, 1.0)) - 60.0 / (nu + domain.dim / 2.0)
    bottom = max(box, -60.0 / nu) - 4.0
    u = np.arange(_MIXTURE_TOP, bottom, -_MIXTURE_STEP)
    return 0.5 * np.exp(-0.5 * u), _MIXTURE_STEP / math.gamma(nu) * np.exp(nu * u - np.exp(u))


def _gaussian_moments(spec: KernelSpec, pts: np.ndarray, domain: ParameterDomain) -> np.ndarray:
    """Box means of sum_k c_k exp(-(sigma_k r)^2): per term, products of erf
    differences, taken of erfc where both ends lie beyond +-1/2, so that
    neither form cancels.  Centres go in batches whose eight or so
    temporaries hold about ``_BATCH_ENTRIES`` entries; the terms are summed
    in a fixed order, so the batches do not change the result.

    At huge scales sigma_k * zeta can pass the float range.  Each axis
    would give the term a factor below sqrt(pi) / (sigma_k zeta) < 1e-308, so
    the term gets a zero coefficient; it is not removed, so that the sum
    over the terms keeps its order and every other moment its bits.  Ends
    of an erf difference past the float range are +-inf, where erf and
    erfc take their limits exactly.
    """
    sigma, coeff = _gaussian_terms(spec, domain)
    with np.errstate(over="ignore"):
        lam = sigma * spec.zeta
    dead = np.isinf(lam)
    lam[dead] = 1.0
    coeff = np.where(dead, 0.0, coeff)
    lam = lam[:, None]  # one row per term, broadcast over the axes
    batch = max(1, _BATCH_ENTRIES // (8 * lam.size * domain.dim))
    b = np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], batch):
        with np.errstate(over="ignore"):
            lo = (domain.lower - pts[s : s + batch, None]) * lam
            hi = (domain.upper - pts[s : s + batch, None]) * lam
        # an interval below -1/2 is mirrored, so that one test picks erfc
        flip = hi < -0.5
        lo, hi = np.where(flip, -hi, lo), np.where(flip, -lo, hi)
        far = lo > 0.5
        diff = np.empty_like(lo)
        diff[far] = erfc(lo[far]) - erfc(hi[far])
        near = ~far
        diff[near] = erf(hi[near]) - erf(lo[near])
        terms = np.prod(diff * (math.sqrt(math.pi) / 2.0 / lam), axis=2)
        b[s : s + batch] = np.sum(terms * coeff, axis=1)
    return b / domain.volume


@lru_cache(maxsize=None)
def _exact_moment(family: str, dim: int, j: int) -> tuple:
    """Exact rational coefficients p_n of M_j(r) = r^(j+1) sum_n p_n r^n on
    [0, 1] for a Wendland profile.

    phi = (1 - r)^(ell + k) q(r) / c with ell = dim//2 + k + 1 and the
    factor q and its denominator c of ``kernels._wendland``; s^j phi(s) =
    sum_n a_n s^(n+j) integrates to p_n = a_n / (n + j + 1).
    """
    from fractions import Fraction

    k = int(family[-1])
    ell = dim // 2 + k + 1
    factor, denominator = (
        ((1,), 1),
        ((1, ell + 1), 1),
        ((3, 3 * ell + 6, ell * ell + 4 * ell + 3), 3),
        ((15, 15 * ell + 45, 6 * ell ** 2 + 36 * ell + 45, ell ** 3 + 9 * ell ** 2 + 23 * ell + 15), 15),
    )[k]
    phi = [0] * (ell + k + len(factor))
    for i in range(ell + k + 1):
        for m, q in enumerate(factor):
            phi[i + m] += (-1) ** i * math.comb(ell + k, i) * q
    return tuple(Fraction(a, denominator * (n + j + 1)) for n, a in enumerate(phi))


def _horner(lead: int, coeffs: np.ndarray, r):
    """r^lead P(r) with P = sum_m coeffs[m] (r - 1/2)^m, by Horner in place.

    An array or a float goes in, and the same shape comes out.
    """
    r = np.asarray(r, dtype=float)
    t = r - 0.5
    out = t * coeffs[-1]
    for c in coeffs[-2:0:-1]:
        out += c
        out *= t
    out += coeffs[0]
    for _ in range(lead):
        out *= r
    return out if out.ndim else out[()]


def _shifted(lead: int, exact: tuple) -> partial:
    """The evaluator ``_horner`` of r^lead P(r), from P's exact coefficients
    in r: Taylor-shifted to r - 1/2 exactly, each rounded to float once."""
    coeffs = [
        float(sum(a * math.comb(n, m) / 2 ** (n - m) for n, a in enumerate(exact) if n >= m))
        for m in range(len(exact))
    ]
    return partial(_horner, lead, np.array(coeffs))


@lru_cache(maxsize=None)
def _wendland_moment(family: str, dim: int, j: int) -> partial:
    """M_j on [0, 1] for a Wendland profile, as r^(j+1) P(r) with P in
    powers of r - 1/2 (``_shifted``), so it keeps relative accuracy as r
    goes to 0."""
    return _shifted(j + 1, _exact_moment(family, dim, j))


@lru_cache(maxsize=None)
def _wendland_k(family: str, dim: int) -> partial:
    """K = M_1 - M_2 / r on [0, 1] for a Wendland profile, r^2 P(r) with the
    exact difference of the two moments' coefficients (M_2 / r = r^2 sum_n
    p_n r^n)."""
    m1, m2 = (_exact_moment(family, dim, j) for j in (1, 2))
    return _shifted(2, tuple(a - b for a, b in zip(m1, m2)))


def _atan_span(x, lo, hi) -> np.ndarray:
    """atan(hi / x) - atan(lo / x) for x > 0 and 0 <= lo <= hi, as one
    arctan2 that forms neither quotient, so x may be tiny."""
    return np.arctan2(x * (hi - lo), x * x + lo * hi)


def _edge_integral(x, y, kink2, inner, outer) -> np.ndarray:
    """integral_0^asinh(y/x) f(x cosh s) / cosh s ds, one row per family.

    This is the angular integral over a right triangle with its apex at
    the origin, legs x (to the far edge) and y (along it), of a function
    f of the distance x cosh s to the far edge's points, for each of
    several families of f that share the triangles.  The variable s
    stays smooth however small x is relative to y.  f has a kink where
    that distance reaches sqrt(kink2), at the offset p = sqrt(kink2 - x^2)
    along the edge (0 when x is beyond it, y when the edge ends first).
    On the inner segment [0, asinh(p/x)] a GL rule of q nodes
    (``_SEGMENT_NODES``) samples f only for the rows where that segment
    has positive width: the nodes are placed once, and
    inner(distances, rows) may overwrite the distances, shape (live, q),
    and then yields each family's values at them, a new array each,
    which is weighted in place and summed before the next family's is
    made.  Beyond the kink f is elementary, and outer(x, p, y) gives its
    integral from offset p to y in closed form, one row per family, in
    u = sinh s = offset / x with ds / cosh s = du / (1 + u^2); it must
    vanish where p = y.  Rows with
    x below the smallest normal float are empty: their integral is below
    x y, and p / x could pass the float range.  Each row adds its q nodes
    in the same order whatever the batch or the families around it.
    """
    live = x >= np.finfo(float).tiny
    x = np.where(live, x, 1.0)
    y = np.where(live, y, 0.0)
    mid = np.minimum(np.sqrt(np.maximum(kink2 - x * x, 0.0)), y)
    width = np.arcsinh(mid / x)
    rows = np.flatnonzero(width > 0)
    t, w = _gauss_legendre(_SEGMENT_NODES)
    c = width[rows, None] * t
    np.cosh(c, out=c)
    total = outer(x, mid, y)
    for f, vals in enumerate(inner(x[rows, None] * c, rows)):
        vals /= c
        vals *= w
        total[f, rows] += np.sum(vals, axis=1) * width[rows]
    return total


def _edge_term(families: tuple, h, y) -> np.ndarray:
    """D = 2 integral over an edge at distance h of h H(R) / R^2, from its
    foot to y, one row per family.

    With offset h sinh s along the edge, this is the integral of
    M_1(h cosh s) / cosh s: the polynomial M_1 inside the support
    circle, and M_1(1) [atan u] in closed form beyond it.
    """
    m1 = [_wendland_moment(family, 2, 1) for family in families]
    ends = np.array([m(1.0) for m in m1])[:, None]
    return _edge_integral(
        h, y, 1.0, lambda r, rows: (m(r) for m in m1), lambda x, lo, hi: ends * _atan_span(x, lo, hi)
    )


def _foot_triangle(families: tuple, h, x, y) -> np.ndarray:
    """D = 3 integral of h H(R) / R^3 over a right triangle of a face at
    distance h, with its apex at the foot (the face corner nearest the
    centre) and legs x (to the far edge) and y (along it), one row per
    family.

    In polar coordinates about the foot, R dR = rho drho turns the radial
    direction into h (K(R) - K(h)) with K' = H / R^2, which integration by
    parts gives in closed form as K = M_1 - H / R.  The support sphere
    crosses the face at rho^2 = 1 - h^2; inside it K is the polynomial of
    ``_wendland_k`` (h <= 1, as every extent is clamped), and beyond it
    K(R) = K(1) + M_2(1) (1 - 1/R), so the outer part is
    h (K(1) + M_2(1) - K(h)) [atan u] - M_2(1) [atan(h u / R)], by
    integral du / ((1 + u^2) R) = atan(h u / R) / h.  At offset p along
    the edge, u = p / x and R^2 = h^2 + x^2 + p^2.  The distances R and
    both arctangent spans are computed once for all families.
    """
    k = [_wendland_k(family, 3) for family in families]
    m2_end = np.array([_wendland_moment(family, 3, 2)(1.0) for family in families])[:, None]
    k_h = [kf(h) for kf in k]
    flat = np.array([h * (kf(1.0) + m2 - kh) for kf, m2, kh in zip(k, m2_end[:, 0], k_h)])

    def inner(rho, rows):
        height = h[rows, None]
        rho *= rho
        rho += height * height
        radius = np.sqrt(rho, out=rho)
        for kf, kh in zip(k, k_h):
            out = kf(radius)
            out -= kh[rows, None]
            out *= height
            yield out

    def outer(x, lo, hi):
        def angle(p):
            return np.arctan2(h * p, x * np.sqrt(h * h + x * x + p * p))
        return flat * _atan_span(x, lo, hi) - m2_end * (angle(hi) - angle(lo))

    return _edge_integral(x, y, 1.0 - h * h, inner, outer)


def _orthant_integrals(families: tuple, a: np.ndarray) -> np.ndarray:
    """integral over [0, a_1] x ... x [0, a_D] of phi(|u|) du, per row of a,
    one row per Wendland family phi in D = a.shape[1] <= 3.

    The orthant is the union of D pyramids with apex at the origin, one
    per far face u_k = a_k; with u = t p for p on that face, the radial
    direction t integrates to the face integral of a_k H(|p|) / |p|^D.
    In D = 3 each face splits at its foot into two right triangles.  The
    geometry is shared: each family evaluates its own polynomials on the
    same nodes, with the same operations as on its own.
    """
    dim = a.shape[1]
    if dim == 1:
        r = np.minimum(a[:, 0], 1.0)  # M_0 stays at M_0(1) beyond the support
        return np.array([_wendland_moment(family, 1, 0)(r) for family in families])
    total = np.zeros((len(families), a.shape[0]))
    for k in range(dim):
        h, face = a[:, k], np.delete(a, k, axis=1)
        if dim == 2:
            total += _edge_term(families, h, face[:, 0])
        else:  # the two foot triangles of the face, with their legs swapped
            total += _foot_triangle(families, h, *face.T) + _foot_triangle(families, h, *face.T[::-1])
    return total


def _check_moments(family: str, dim: int) -> None:
    """The one rule on which kernel moments exist: a Wendland family's only up to D = 3."""
    if family.startswith("wendland") and dim > 3:
        raise ValueError(
            f"{family} kernel moments are computed only up to 3 dimensions, not {dim}; "
            "use matern32, whose moments are exact in any dimension"
        )


def _moment_plan(family: str, dim: int) -> str:
    """One line on how ``kernel_moments`` computes a family's moments in ``dim`` dimensions."""
    _check_moments(family, dim)
    if not family.startswith("wendland"):
        return "erf products, exact in any dimension"
    if dim == 1:
        return "radial reduction, exact in one dimension"
    return f"radial reduction with {_SEGMENT_NODES}-node Gauss-Legendre segments"


def kernel_moments(
    spec: KernelSpec, points: CollocationSet, box: ParameterDomain | TensorRule, *, more: tuple | None = None
) -> np.ndarray:
    """Kernel moment vector b_j = integral k(y, y_j) rho(y) dy over the box.

    rho is the uniform density of ``box``, a ``ParameterDomain`` or a
    ``TensorRule``, of which only the box is read.  The Gaussian and
    Matern families are exact in any D: they are sums of Gaussians, whose
    moments are erf products.  The Wendland families go through the
    radial reduction: exact in D = 1; in D = 2 and 3, GL segments of
    ``_SEGMENT_NODES`` nodes inside the support sphere and closed forms
    beyond it, at the rounding floor (see the module notes).  In D >= 4
    their moments are refused with a ValueError that names matern32
    (``_check_moments``).  Centres are taken in batches of about
    ``_BATCH_ENTRIES`` entries, so memory does not grow with the number
    of centres.  Centres outside the box are allowed.

    ``more`` names further Wendland kernels of ``spec``'s dimension and
    norm scale (``spec`` itself must be Wendland then): all of them share
    one pass of the radial reduction, which builds the geometry once and
    evaluates each family's polynomials on it, and the result has one
    row per kernel, ``spec`` first.  Each row is bitwise the vector of a
    call for that kernel alone.
    """
    pts = _point_rows(points.points if isinstance(points, CollocationSet) else points)
    domain = box.domain if isinstance(box, TensorRule) else box
    dim = domain.dim
    if pts.shape[1] != dim or spec.dim != dim:
        raise ValueError(
            f"points of dimension {pts.shape[1]} and a kernel of dimension "
            f"{spec.dim} over a box of dimension {dim}"
        )
    specs = (spec,) if more is None else (spec, *more)
    if more is not None and not all(
        s.family.startswith("wendland") and (s.dim, s.zeta) == (dim, spec.zeta) for s in specs
    ):
        raise ValueError(
            "kernels sharing one moment pass must be Wendland kernels of one dimension and "
            f"zeta, got {[(s.family, s.dim, s.zeta) for s in specs]}"
        )
    for s in specs:
        _check_moments(s.family, dim)
    if not spec.family.startswith("wendland"):
        return _gaussian_moments(spec, pts, domain)

    zeta = spec.zeta
    # signed distances to the lower and upper faces in scaled units; the
    # box integral is the signed sum of the 2^D orthant integrals
    half = np.stack([(pts - domain.lower) * zeta, (domain.upper - pts) * zeta], axis=-1)
    ext = np.minimum(np.abs(half), 1.0)  # nothing lies beyond the support radius
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    axes = np.arange(dim)
    extents = ext[:, axes, corners]
    signs = np.prod(np.sign(half)[:, axes, corners], axis=-1)

    families = tuple(s.family for s in specs)
    # GL nodes per orthant: only the inner segment of each of the D (D - 1) edges or triangles
    batch = max(1, _BATCH_ENTRIES // (2 ** dim * max(1, _SEGMENT_NODES * dim * (dim - 1))))
    b = np.empty((len(families), pts.shape[0]))
    for s in range(0, pts.shape[0], batch):
        chunk = extents[s : s + batch]
        orthants = _orthant_integrals(families, chunk.reshape(-1, dim))
        for row, orthant in zip(b, orthants):  # each family's sum as on its own
            row[s : s + batch] = np.sum(signs[s : s + batch] * orthant.reshape(chunk.shape[:2]), axis=1)
    with np.errstate(over="ignore"):  # past the float range every moment underflows to 0
        b /= domain.volume * math.prod([zeta] * dim)
    return b[0] if more is None else b


@dataclass(frozen=True)
class MomentWeights:
    """Collocation quadrature weights for first-moment estimation.

    omega solves A_reg omega = b, so sum_i omega_i g(y_i) integrates the
    kernel interpolant of g against the parameter density.
    """

    omega: np.ndarray
    moments: np.ndarray


def moment_weights(
    gram: GramMatrix, reg: Regularization, b: np.ndarray
) -> MomentWeights:
    """Solve A_reg omega = b for the quadrature weights."""
    b = np.asarray(b, dtype=float)
    if b.shape != (gram.n,):
        raise ValueError(f"moment vector has shape {b.shape}, expected ({gram.n},)")
    return MomentWeights(omega=_factorize(gram, reg)(b), moments=b)


def estimate_mean(weights: MomentWeights, samples: np.ndarray) -> np.ndarray:
    """First-moment estimate sum_i omega_i samples[i, :] per channel."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim == 1:
        samples = samples[:, None]
    if samples.shape[0] != weights.omega.size:
        raise ValueError(
            f"sample table has {samples.shape[0]} rows for "
            f"{weights.omega.size} weights"
        )
    return weights.omega @ samples
