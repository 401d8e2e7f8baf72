"""Kernel moments by two exact engines, and Clenshaw-Curtis rules.

The first stochastic moment of a quantity of interest is estimated as
sum_i omega_i u(y_i), where the weights omega solve A_reg omega = b and
b_j = integral k(y, y_j) rho(y) dy is the kernel moment of centre y_j
against the uniform density of the parameter box.

Every kernel here is radial, k(y, c) = phi(|Lambda (y - c)|) with the
diagonal scaling Lambda = zeta * diag(weights), and phi has a kink at
the centre (and, for the Wendland families, on the support sphere).  A
tensor rule over the box converges only algebraically across those
kinks, so the moments come from one of two exact engines, by family:

- Gaussian scale mixtures (the Gaussian and both Matern families) are
  sums of Gaussians, phi(r) = sum_k c_k exp(-(sigma_k r)^2): one term for
  the Gaussian, a trapezoid rule over the mixture for the Matern profiles
  (``_gaussian_terms``).  Each term's moment is a product of erf
  differences, so these are exact in any D, at any level.
- Radial reduction (the Wendland families) goes through the radial
  moments M_j(R) = integral_0^R s^j phi(s) ds, exact Chebyshev series,
  and H(R) = M_{D-1}(R).  The scaled box is split at the centre into 2^D
  orthants; D = 1 is then exact, and for D >= 2 each orthant is a union
  of D pyramids with apex at the centre, one per far face, whose radial
  direction integrates in closed form to the face integral of
  a_k H(R) / R^D.  In D = 2 each face is a segment; in D = 3 it is split
  at its foot into two right triangles whose radial direction closes in
  form as well.  Both leave 1-D integrals in the variable s with (offset
  along the edge) = x sinh(s), smooth however thin the orthant, done by
  Gauss-Legendre (GL) segments split where the support sphere crosses
  the face, so they converge spectrally.  In D >= 4 the faces take a
  tensor GL rule in the same sinh coordinates that does not split the
  support sphere, so there the convergence is algebraic.

The ``level`` of the rule passed in is the radial reduction's only
resolution input, and ``_moment_resolution`` turns it into node counts:
level l gives n = 2^(l-1) + 1 nodes per GL segment in D <= 3, and the
D >= 4 face rules use the largest per-axis order whose nodes per centre
do not outnumber the n^D nodes of the tensor rule, so two levels are two
distinct computations.  Levels run from 1 to ``MAX_LEVEL``, where the
O(n^2) memory of building one per-axis rule is still small.  No tensor
grid over the box is ever built: both engines take centres in batches of
about ``_BATCH_ENTRIES`` array entries, and a D >= 4 face rule too large
for one centre is summed in slices of that size, so the temporaries do
not grow with N or with the face rule.  The tensor rule itself
(``cc_rule``, ``cc_nodes_weights``) is kept for direct use.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erf, erfc

from .collocation import GramMatrix, Regularization, _factorize
from .kernels import KernelSpec
from .param_space import CollocationSet, ParameterDomain

# Bound on array entries per batch of centres, so memory stays flat in N.
_BATCH_ENTRIES = 500_000

# Trapezoid rule in u = ln t for the Matern scale mixtures: the step and
# the top node, both on a grid of 1/16 so that every node is exact (at a
# step of 0.25 the matern32 rule is still 9e-16 off at r = 0).
_MIXTURE_STEP = 3.0 / 16.0
_MIXTURE_TOP = 61.0 / 16.0

# Highest level: building one per-axis rule of 2^(l-1) + 1 nodes costs
# O(n^2) memory, 32 MiB for leggauss(2049) at level 12.
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
    if not 1 <= level <= MAX_LEVEL:
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

    @property
    def points_per_dim(self) -> int:
        return self.nodes[0].size

    @property
    def npoints(self) -> int:
        return int(np.prod([x.size for x in self.nodes], dtype=np.int64))


def cc_rule(
    domain: ParameterDomain, level: int, max_points: int | None = 10 ** 8
) -> TensorRule:
    """Tensor Clenshaw-Curtis rule over the domain box.

    Raises an error when the tensor grid would exceed ``max_points``
    points; in that case lower the level (sparse rules are out of scope).
    ``max_points=None`` skips the check, for callers that never expand
    the grid, such as ``kernel_moments``.
    """
    n = _level_nodes(level)
    total = n ** domain.dim
    if max_points is not None and total > max_points:
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


def _axis_scales(spec: KernelSpec) -> np.ndarray:
    """Per-axis factors of Lambda, so that the kernel is phi(|Lambda (y - c)|)."""
    weights = np.ones(spec.dim) if spec.norm.weights is None else np.asarray(spec.norm.weights)
    return spec.norm.zeta * weights


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
    ell = float(np.min(_axis_scales(spec) * (domain.upper - domain.lower)))
    box = 2.0 * math.log(min(ell, 1.0)) - 60.0 / (nu + domain.dim / 2.0)
    bottom = max(box, -60.0 / nu) - 4.0
    u = np.arange(_MIXTURE_TOP, bottom, -_MIXTURE_STEP)
    return 0.5 * np.exp(-0.5 * u), _MIXTURE_STEP / math.gamma(nu) * np.exp(nu * u - np.exp(u))


def _gaussian_moments(spec: KernelSpec, pts: np.ndarray, domain: ParameterDomain) -> np.ndarray:
    """Box means of sum_k c_k exp(-(sigma_k r)^2): per term, products of erf
    differences, taken of erfc where both ends lie beyond +-1/2, so that
    neither form cancels.  Centres go in batches whose eight or so
    temporaries hold about ``_BATCH_ENTRIES`` entries; the terms are summed
    in a fixed order, so the batches do not change the result."""
    sigma, coeff = _gaussian_terms(spec, domain)
    lam = sigma[:, None] * _axis_scales(spec)
    batch = max(1, _BATCH_ENTRIES // (8 * lam.size))
    b = np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], batch):
        lo = (domain.lower - pts[s : s + batch, None]) * lam
        hi = (domain.upper - pts[s : s + batch, None]) * lam
        diff = np.where(
            lo > 0.5,
            erfc(lo) - erfc(hi),
            np.where(hi < -0.5, erfc(-hi) - erfc(-lo), erf(hi) - erf(lo)),
        )
        terms = np.prod(diff * (math.sqrt(math.pi) / 2.0 / lam), axis=2)
        b[s : s + batch] = np.sum(terms * coeff, axis=1)
    return b / domain.volume


@lru_cache(maxsize=None)
def _wendland_moment(family: str, dim: int, j: int) -> np.polynomial.Chebyshev:
    """M_j on [0, 1] for a Wendland profile, as an exact Chebyshev series.

    s^j phi(s) is a polynomial of degree dim//2 + 3k + 1 + j there, so
    interpolation at that degree reproduces it up to rounding.
    """
    unit = KernelSpec(family, dim)
    degree = dim // 2 + 3 * int(family[-1]) + 1 + j
    series = np.polynomial.Chebyshev.interpolate(
        lambda s: s ** j * unit.profile(s), degree, domain=[0.0, 1.0]
    )
    return series.integ(lbnd=0.0)


@lru_cache(maxsize=None)
def _wendland_k(family: str, dim: int) -> np.polynomial.Chebyshev:
    """K = M_1 - M_2 / r on [0, 1] for a Wendland profile: a polynomial of
    the degree of M_1, since M_2 vanishes to third order at 0."""
    m1, m2 = (_wendland_moment(family, dim, j) for j in (1, 2))
    return np.polynomial.Chebyshev.interpolate(
        lambda s: m1(s) - m2(s) / s, m1.degree(), domain=[0.0, 1.0]
    )


def _radial_moment(unit: KernelSpec, j: int, r: np.ndarray) -> np.ndarray:
    """M_j(r) = integral_0^r s^j phi(s) ds for the unit-scale Wendland
    profile phi; it stays at M_j(1) beyond the support."""
    r = np.asarray(r, dtype=float)
    series = _wendland_moment(unit.family, unit.dim, j)
    out = np.full(r.shape, series(1.0))
    inside = r < 1.0
    out[inside] = series(r[inside])
    return out


def _big_k(unit: KernelSpec, r: np.ndarray) -> np.ndarray:
    """K(r) = M_1(r) - M_2(r) / r, with K(0) = 0; beyond the support
    K(r) = K(1) + M_2(1) (1 - 1/r)."""
    series = _wendland_k(unit.family, unit.dim)
    m2_end = _wendland_moment(unit.family, unit.dim, 2)(1.0)
    out = series(1.0) + m2_end * (1.0 - 1.0 / np.maximum(r, 1.0))
    inside = r < 1.0
    out[inside] = series(r[inside])
    return out


def _edge_integral(x, y, phi, kink, q: int) -> np.ndarray:
    """integral_0^asinh(y/x) phi(x cosh s) / cosh s ds, per row.

    This is the angular integral over a right triangle with its apex at
    the origin, legs x (to the far edge) and y (along it), of a function
    phi of the distance x cosh s to the far edge's points.  The variable
    s stays smooth however small x is relative to y.  Two GL segments of
    q nodes each split at x cosh s = kink.
    """
    live = x > 0
    x = np.where(live, x, 1.0)
    top = np.where(live, np.arcsinh(y / x), 0.0)
    mid = np.minimum(np.arccosh(np.maximum(kink / x, 1.0)), top)
    t, w = _gauss_legendre(q)
    ends = np.stack([np.zeros_like(mid), mid, top], axis=-1)
    width = np.diff(ends, axis=-1)
    c = np.cosh(ends[:, :2, None] + width[..., None] * t)
    vals = phi(x[:, None, None] * c) / c
    return np.einsum("msq,q,ms->m", vals, w, width)


def _face_integral(unit: KernelSpec, h, b, q: int) -> np.ndarray:
    """integral over [0, b] of h H(R) / R^D dp with R^2 = h^2 + |p|^2, per row.

    Tensor GL rule of order q per axis in the coordinates p_j = h sinh s_j,
    where the integrand is H(h rho) prod_j cosh(s_j) / rho^D with
    rho^2 = 1 + sum_j sinh(s_j)^2.  The trailing face axes, as many as
    fit in ``_BATCH_ENTRIES`` entries, are broadcast, and the leading
    ones are looped over; when the whole grid fits, the loop runs once.
    """
    dim = unit.dim
    live = h > 0
    h = np.where(live, h, 1.0)
    top = np.where(live[:, None], np.arcsinh(b / h[:, None]), 0.0)
    t, w = _gauss_legendre(q)
    s = top[..., None] * t
    sinh2 = np.sinh(s) ** 2
    jac = np.cosh(s) * (top[..., None] * w)
    lead = 0
    while lead < dim - 1 and h.size * q ** (dim - 1 - lead) > _BATCH_ENTRIES:
        lead += 1
    trail = dim - 1 - lead
    height = h.reshape((-1,) + (1,) * trail)
    total = 0.0
    for node in itertools.product(range(q), repeat=lead):
        # the same additions and products, in the same order, as on the full grid
        grid_sinh2 = np.zeros((h.size,) + (1,) * trail)
        grid_jac = np.ones_like(grid_sinh2)
        for d in range(dim - 1):
            shape = [h.size] + [1] * trail
            if d < lead:
                axis = slice(node[d], node[d] + 1)
            else:
                axis = slice(None)
                shape[d - lead + 1] = q
            grid_sinh2 = grid_sinh2 + sinh2[:, d, axis].reshape(shape)
            grid_jac = grid_jac * jac[:, d, axis].reshape(shape)
        rho = np.sqrt(1.0 + grid_sinh2)
        vals = _radial_moment(unit, dim - 1, height * rho) * grid_jac / rho ** dim
        total = total + vals.reshape(h.size, -1).sum(axis=1)
    return total


def _face_triangles(unit: KernelSpec, h, face, q: int) -> np.ndarray:
    """D = 3 face integral of h H(R) / R^3, as two right triangles at the foot.

    In polar coordinates about the foot of the face (its corner nearest the
    centre), R dR = rho drho turns the radial direction into
    h (K(R) - K(h)) with K' = H / R^2, which integration by parts gives in
    closed form as K = M_1 - H / R.  The support sphere crosses the face
    at rho^2 = 1 - h^2.
    """
    h = h[:, None, None]
    k_h = _big_k(unit, h)
    def radial(rho):
        return h * (_big_k(unit, np.sqrt(h * h + rho * rho)) - k_h)

    kink = np.sqrt(np.maximum(1.0 - h[:, 0, 0] ** 2, 0.0))
    return _edge_integral(face[:, 0], face[:, 1], radial, kink, q) + _edge_integral(
        face[:, 1], face[:, 0], radial, kink, q
    )


def _orthant_integrals(unit: KernelSpec, a: np.ndarray, q: int) -> np.ndarray:
    """integral over [0, a_1] x ... x [0, a_D] of phi(|u|) du, per row of a.

    The orthant is the union of D pyramids with apex at the origin, one
    per far face u_k = a_k; with u = t p for p on that face, the radial
    direction t integrates to the face integral of a_k H(|p|) / |p|^D.
    """
    dim = a.shape[1]
    if dim == 1:
        return _radial_moment(unit, 0, a[:, 0])
    total = np.zeros(a.shape[0])
    for k in range(dim):
        h, face = a[:, k], np.delete(a, k, axis=1)
        if dim == 2:
            total += _edge_integral(
                h, face[:, 0], lambda r: _radial_moment(unit, 1, r), 1.0, q
            )
        elif dim == 3:
            total += _face_triangles(unit, h, face, q)
        else:
            total += _face_integral(unit, h, face, q)
    return total


def _face_order(dim: int, points_per_dim: int) -> int:
    """Per-axis GL order of the D >= 4 face rules at a given level.

    The largest order (at least 2) whose 2^D * D * q^(D-1) face nodes per
    centre do not exceed the points_per_dim^D nodes of the tensor rule,
    and at most the per-axis nodes at ``MAX_LEVEL``, which bounds the
    O(q^2) memory of building the rule.
    """
    budget = points_per_dim ** dim
    cap = _level_nodes(MAX_LEVEL)
    q = 2
    while q < cap and dim * 2 ** dim * (q + 1) ** (dim - 1) <= budget:
        q += 1
    return q


def _moment_resolution(dim: int, level: int) -> tuple[int, int]:
    """GL order of the radial reduction at a level, and its nodes per orthant.

    The order counts nodes per segment for D <= 3 and per face axis for
    D >= 4.
    """
    n = _level_nodes(level)
    if dim <= 3:
        return n, max(1, 2 * n * dim * (dim - 1))
    q = _face_order(dim, n)
    return q, dim * q ** (dim - 1)


def _moment_plan(dim: int, level: int) -> str:
    """One line on the resolution of the Wendland moments at this level;
    the Gaussian and Matern moments are exact at every level."""
    q, _ = _moment_resolution(dim, level)
    if dim == 1:
        return f"level {level}, exact in one dimension"
    if dim <= 3:
        return f"level {level}, radial reduction with {q}-node Gauss-Legendre segments"
    return f"level {level}, radial reduction with {q}^{dim - 1}-node face rules"


def kernel_moments(
    spec: KernelSpec, points: CollocationSet, rule: TensorRule
) -> np.ndarray:
    """Kernel moment vector b_j = integral k(y, y_j) rho(y) dy over the box.

    rho is the uniform density of ``rule.domain``.  Only the domain and
    the level of ``rule`` are used, never its tensor nodes, so a rule
    from ``cc_rule(domain, level, max_points=None)`` will do.  The
    Gaussian and Matern families are exact in any D, whatever the level:
    they are sums of Gaussians, whose moments are erf products.  The
    Wendland families go through the radial reduction: exact in D = 1,
    GL segments of 2^(level-1) + 1 nodes that converge spectrally in
    D = 2 and 3, and face rules whose order grows with the level in
    D >= 4 (see the module notes).  Centres are taken in batches and
    large face rules in slices of about ``_BATCH_ENTRIES`` entries, so
    memory does not grow with the number of centres.  Centres outside
    the box are allowed.
    """
    pts = points.points if isinstance(points, CollocationSet) else np.asarray(points)
    dim = rule.domain.dim
    if pts.shape[1] != dim or spec.dim != dim:
        raise ValueError(
            f"points of dimension {pts.shape[1]} and a kernel of dimension "
            f"{spec.dim} under a rule of dimension {dim}"
        )
    domain = rule.domain
    if not spec.family.startswith("wendland"):
        return _gaussian_moments(spec, pts, domain)

    lam = _axis_scales(spec)
    # signed distances to the lower and upper faces in scaled units; the
    # box integral is the signed sum of the 2^D orthant integrals
    half = np.stack([(pts - domain.lower) * lam, (domain.upper - pts) * lam], axis=-1)
    ext = np.minimum(np.abs(half), 1.0)  # nothing lies beyond the support radius
    corners = np.array(list(itertools.product((0, 1), repeat=dim)))
    axes = np.arange(dim)
    extents = ext[:, axes, corners]
    signs = np.prod(np.sign(half)[:, axes, corners], axis=-1)

    unit = KernelSpec(spec.family, dim)
    q, nodes = _moment_resolution(dim, rule.level)
    batch = max(1, _BATCH_ENTRIES // (2 ** dim * nodes))
    b = np.empty(pts.shape[0])
    for s in range(0, pts.shape[0], batch):
        chunk = extents[s : s + batch]
        orthants = _orthant_integrals(unit, chunk.reshape(-1, dim), q)
        b[s : s + batch] = np.sum(signs[s : s + batch] * orthants.reshape(chunk.shape[:2]), axis=1)
    return b / (domain.volume * np.prod(lam))


@dataclass(frozen=True)
class MomentWeights:
    """Collocation quadrature weights for first-moment estimation.

    omega solves A_reg omega = b, so sum_i omega_i g(y_i) integrates the
    kernel interpolant of g against the parameter density.
    """

    omega: np.ndarray
    moments: np.ndarray
    spec: KernelSpec
    points: CollocationSet
    regularization: Regularization


def moment_weights(
    gram: GramMatrix, reg: Regularization, b: np.ndarray
) -> MomentWeights:
    """Solve A_reg omega = b for the quadrature weights."""
    b = np.asarray(b, dtype=float)
    if b.shape != (gram.n,):
        raise ValueError(f"moment vector has shape {b.shape}, expected ({gram.n},)")
    omega = _factorize(gram, reg).solve_vector(b)
    return MomentWeights(
        omega=omega,
        moments=b,
        spec=gram.spec,
        points=gram.points,
        regularization=reg,
    )


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
