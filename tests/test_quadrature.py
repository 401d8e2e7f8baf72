import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rbfuq import (
    CollocationSet,
    KernelSpec,
    NormSpec,
    ParameterDomain,
    Tikhonov,
    assemble_gram,
    cc_nodes_weights,
    cc_rule,
    estimate_mean,
    halton_points,
    kernel_moments,
    moment_weights,
)
from rbfuq import quadrature
from rbfuq.quadrature import MAX_LEVEL, _big_k, _gaussian_terms, _level_nodes, _moment_resolution


class TestUnivariateRule:
    def test_two_node_endpoint_rule(self):
        x, w = cc_nodes_weights(2)
        assert np.array_equal(x, [-1.0, 1.0])
        assert np.array_equal(w, [1.0, 1.0])

    def test_three_node_weights(self):
        x, w = cc_nodes_weights(3)
        assert np.array_equal(x, [-1.0, 0.0, 1.0])
        assert np.max(np.abs(w - np.array([1.0, 4.0, 1.0]) / 3.0)) < 1e-14

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 65, 257])
    def test_weights_sum_to_interval_length(self, n):
        _, w = cc_nodes_weights(n)
        assert abs(w.sum() - 2.0) < 1e-13

    @pytest.mark.parametrize("n", [3, 5, 9, 65])
    def test_nodes_symmetric_ascending(self, n):
        x, w = cc_nodes_weights(n)
        assert np.all(np.diff(x) > 0)
        assert np.array_equal(x, -x[::-1])
        assert np.array_equal(w, w[::-1])
        assert x[n // 2] == 0.0

    def test_polynomial_exactness(self):
        x, w = cc_nodes_weights(5)
        assert abs(w @ x ** 2 - 2.0 / 3.0) < 1e-14
        assert abs(w @ x ** 4 - 2.0 / 5.0) < 1e-14
        assert abs(w @ x ** 3) < 1e-15

    def test_smooth_integrand_converges(self):
        x, w = cc_nodes_weights(65)
        exact = math.exp(1.0) - math.exp(-1.0)
        assert abs(w @ np.exp(x) - exact) < 1e-14

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            cc_nodes_weights(1)
        with pytest.raises(ValueError):
            cc_nodes_weights(4)


class TestTensorRule:
    def test_level_one_gives_endpoints(self):
        rule = cc_rule(ParameterDomain.unit(1), 1)
        assert rule.points_per_dim == 2
        assert np.array_equal(rule.nodes[0], [0.0, 1.0])
        assert np.array_equal(rule.weights[0], [0.5, 0.5])

    @pytest.mark.parametrize("level,n", [(1, 2), (2, 3), (3, 5), (7, 65)])
    def test_level_node_counts(self, level, n):
        rule = cc_rule(ParameterDomain.unit(1), level)
        assert rule.points_per_dim == n

    def test_mapping_to_box(self):
        dom = ParameterDomain.from_bounds([(2.0, 6.0)])
        rule = cc_rule(dom, 2)
        assert np.array_equal(rule.nodes[0], [2.0, 4.0, 6.0])
        assert abs(rule.weights[0].sum() - 4.0) < 1e-13

    def test_npoints(self):
        rule = cc_rule(ParameterDomain.unit(3), 3)
        assert rule.npoints == 125

    def test_point_cap_enforced(self):
        with pytest.raises(ValueError, match="level"):
            cc_rule(ParameterDomain.unit(3), 12)

    def test_point_cap_configurable(self):
        rule = cc_rule(ParameterDomain.unit(2), 7, max_points=10 ** 4)
        assert rule.npoints == 4225
        with pytest.raises(ValueError):
            cc_rule(ParameterDomain.unit(2), 7, max_points=4224)

    def test_rejects_level_zero(self):
        with pytest.raises(ValueError):
            cc_rule(ParameterDomain.unit(1), 0)

    @pytest.mark.parametrize("level", [0, 13])
    def test_level_range_names_the_level(self, level):
        with pytest.raises(ValueError, match=f"between 1 and 12, got {level}"):
            _level_nodes(level)
        with pytest.raises(ValueError, match=f"got {level}"):
            cc_rule(ParameterDomain.unit(1), level, max_points=None)

    def test_no_point_cap(self):
        rule = cc_rule(ParameterDomain.unit(3), 10, max_points=None)
        assert rule.npoints == 513 ** 3


def _oracle_profile(lib, family, dim, r):
    """Kernel profile at scaled distance r, written out from the closed
    forms (Gaussian, Wendland phi_{D,k}, Matern) without rbfuq.kernels."""
    if family == "gaussian":
        return lib.exp(-r * r)
    if family == "matern12":
        return lib.exp(-r)
    if family == "matern32":
        return (1 + r) * lib.exp(-r)
    if r >= 1:
        return 0 * r
    k = int(family[-1])
    ell = dim // 2 + k + 1
    poly = (
        1,
        (ell + 1) * r + 1,
        ((ell * ell + 4 * ell + 3) * r * r + (3 * ell + 6) * r + 3) / 3,
        (
            (ell ** 3 + 9 * ell ** 2 + 23 * ell + 15) * r ** 3
            + (6 * ell ** 2 + 36 * ell + 45) * r * r
            + (15 * ell + 45) * r
            + 15
        )
        / 15,
    )[k]
    return (1 - r) ** (ell + k) * poly


def _oracle_moment(lib, family, bounds, center, zeta=1.0, weights=None, epsilon=1.0):
    """Kernel moment by iterated 1-D ``lib.quad`` in Cartesian coordinates.

    ``lib`` is ``mpmath.mp`` or ``mpmath.fp``.  Every 1-D integral is split
    wherever its integrand has a kink: at the centre, where the support
    circle crosses its line and, for the outer integral in D = 2, where
    the circle meets the box edges (so each piece is smooth up to its ends).
    """
    dim = len(bounds)
    w = weights or (1.0,) * dim
    scale = zeta * (epsilon if family == "gaussian" else 1.0)
    support = 1.0 / zeta if family.startswith("wendland") else math.inf

    def pieces(lo, hi, kinks):
        return sorted({lo, hi} | {p for p in kinks if lo < p < hi})

    def chord(offset):
        # half-width of the support circle at a weighted offset from the centre
        left = support * support - offset * offset
        return lib.sqrt(left) if left > 0 else 0.0

    def radial(d):
        return _oracle_profile(lib, family, dim, scale * d)

    (lo0, hi0), c0 = bounds[0], center[0]
    kinks = [c0, c0 - support / w[0], c0 + support / w[0]]
    if dim == 1:
        total = lib.quad(lambda x: radial(abs(w[0] * (x - c0))), pieces(lo0, hi0, kinks))
    else:
        (lo1, hi1), c1 = bounds[1], center[1]
        for edge in (lo1, hi1):
            reach = chord(w[1] * (edge - c1)) / w[0]
            kinks += [c0 - reach, c0 + reach] if reach > 0 else []

        def inner(x):
            dx = w[0] * (x - c0)
            reach = chord(dx) / w[1]
            return lib.quad(
                lambda y: radial(lib.sqrt(dx * dx + (w[1] * (y - c1)) ** 2)),
                pieces(lo1, hi1, [c1, c1 - reach, c1 + reach]),
            )

        total = lib.quad(inner, pieces(lo0, hi0, kinks))
    return float(total) / float(np.prod([hi - lo for lo, hi in bounds]))


class TestKernelMoments:
    def test_matches_brute_force_tensor_sum(self):
        # Against an iterated Cartesian quadrature split at every kink.  The
        # moments no longer come from the tensor Clenshaw-Curtis sum, which
        # converges only algebraically across those kinks; the comparison is
        # at the default level 7 (the 5-node segments of level 3 are 4.9e-6
        # off here).
        mpmath = pytest.importorskip("mpmath")
        bounds = [(0.0, 1.0), (-1.0, 2.0)]
        dom = ParameterDomain.from_bounds(bounds)
        rule = cc_rule(dom, 7)
        spec = KernelSpec(family="wendland1", dim=2)
        centers = halton_points(dom, 7)
        b = kernel_moments(spec, centers, rule)

        brute = [
            _oracle_moment(mpmath.fp, "wendland1", bounds, tuple(c)) for c in centers.points
        ]
        assert np.max(np.abs(b - brute)) <= 1e-13

    def test_gaussian_moment_against_erf(self):
        # b_j = int_0^1 e^(-(y - c)^2) dy = sqrt(pi)/2 (erf(1-c) + erf(c))
        dom = ParameterDomain.unit(1)
        rule = cc_rule(dom, 9)
        spec = KernelSpec(family="gaussian", dim=1)
        centers = CollocationSet(np.array([[0.0], [0.3], [1.0]]), source="manual")
        b = kernel_moments(spec, centers, rule)
        for j, c in enumerate((0.0, 0.3, 1.0)):
            exact = math.sqrt(math.pi) / 2.0 * (math.erf(1.0 - c) + math.erf(c))
            assert abs(b[j] - exact) < 1e-14
        assert abs(b[0] - 0.7468241328124269) < 1e-15

    def test_density_normalization(self):
        # doubling the box halves the density; moments of the constant
        # profile at zero distance integrate rho to exactly 1
        dom = ParameterDomain.from_bounds([(0.0, 2.0)])
        rule = cc_rule(dom, 5)
        assert abs(rule.weights[0].sum() / dom.volume - 1.0) < 1e-14

    def test_deterministic(self):
        dom = ParameterDomain.unit(3)
        rule = cc_rule(dom, 4)
        spec = KernelSpec(family="matern32", dim=3)
        centers = halton_points(dom, 20)
        b1 = kernel_moments(spec, centers, rule)
        b2 = kernel_moments(spec, centers, rule)
        assert np.array_equal(b1, b2)

    def test_dimension_check(self):
        rule = cc_rule(ParameterDomain.unit(2), 3)
        centers = halton_points(ParameterDomain.unit(3), 5)
        with pytest.raises(ValueError):
            kernel_moments(KernelSpec(family="gaussian", dim=3), centers, rule)


ORACLE_FAMILIES = (
    "gaussian", "wendland0", "wendland1", "wendland2", "wendland3", "matern12", "matern32"
)
# (bounds, centre, zeta, weights)
ORACLE_CASES_1D = {
    "near_face_scaled": ([(0.0, 1.0)], (1e-3,), 1.7, (0.8,)),
    "end_point": ([(-1.0, 2.0)], (2.0,), 1.0, None),
    "support_inside": ([(0.0, 2.0)], (1.1,), 2.5, None),
    "support_crossing": ([(0.0, 1.0)], (0.3,), 1.0, None),
    "outside": ([(0.0, 1.0)], (1.4,), 1.0, None),
}
ORACLE_CASES_2D = {
    "near_face_scaled": ([(0.0, 1.0), (-1.0, 2.0)], (1e-3, 0.4), 1.7, (0.8, 2.0)),
    "corner": ([(0.0, 1.0), (0.0, 1.0)], (0.0, 0.0), 1.0, None),
    "support_inside": ([(0.0, 2.0), (0.0, 2.0)], (1.1, 0.9), 2.5, None),
    "support_crossing": ([(0.0, 2.0), (0.0, 2.0)], (0.8, 1.1), 1.0, None),
    "box_inside_support": ([(0.0, 1.0), (0.0, 1.0)], (0.3, 0.6), 1.0, None),
}


def _engine_moment(family, bounds, center, zeta, weights, level, epsilon=1.0):
    dom = ParameterDomain.from_bounds(bounds)
    spec = KernelSpec(family, len(bounds), epsilon=epsilon, norm=NormSpec(zeta, weights))
    return kernel_moments(spec, np.array([center], dtype=float), cc_rule(dom, level))[0]


class TestMomentOracles:
    """Kernel moments of every family against independent quadratures."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES_1D))
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_one_dimension_exact_at_any_level(self, family, case):
        mpmath = pytest.importorskip("mpmath")
        bounds, center, zeta, weights = ORACLE_CASES_1D[case]
        with mpmath.workdps(30):
            exact = _oracle_moment(mpmath.mp, family, bounds, center, zeta, weights)
        b = _engine_moment(family, bounds, center, zeta, weights, level=1)
        assert abs(b - exact) <= 1e-13, f"{family} {case}: {b!r} vs {exact!r}"

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES_2D))
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_two_dimensions(self, family, case):
        mpmath = pytest.importorskip("mpmath")
        bounds, center, zeta, weights = ORACLE_CASES_2D[case]
        exact = _oracle_moment(mpmath.fp, family, bounds, center, zeta, weights)
        b = _engine_moment(family, bounds, center, zeta, weights, level=7)
        assert abs(b - exact) <= 1e-13, f"{family} {case}: {b!r} vs {exact!r}"

    def test_gaussian_three_dimensions_is_erf_product(self):
        bounds = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)]
        eps, zeta, weights = 1.3, 0.7, (1.0, 2.0, 0.5)
        dom = ParameterDomain.from_bounds(bounds)
        centers = np.vstack(
            [halton_points(dom, 10).points, [[0.0, -1.0, 0.5], [1e-3, 0.5, 1.0], [1.2, 0.0, 1.0]]]
        )
        spec = KernelSpec("gaussian", 3, epsilon=eps, norm=NormSpec(zeta, weights))
        b = kernel_moments(spec, centers, cc_rule(dom, 2))
        for j, c in enumerate(centers):
            exact = 1.0 / dom.volume
            for (lo, hi), cd, wd in zip(bounds, c, weights):
                lam = eps * zeta * wd
                exact *= math.sqrt(math.pi) / (2.0 * lam) * (
                    math.erf(lam * (hi - cd)) - math.erf(lam * (lo - cd))
                )
            assert abs(b[j] - exact) <= 1e-13 * exact, f"centre {c}: {b[j]!r} vs {exact!r}"

    # 1e-6 and 1e-9 put the foot of the Wendland face triangles at small r
    @pytest.mark.parametrize("height", [0.0, 1e-9, 1e-6, 1e-3, 0.1, 0.5])
    @pytest.mark.parametrize(
        "family", ["wendland0", "wendland1", "wendland2", "wendland3", "matern12", "matern32"]
    )
    def test_three_dimensions_cut_by_one_face(self, family, height):
        # The centre sits `height` above the face x = 0 of the unit cube and
        # every other face lies beyond the support (Wendland, zeta = 4) or
        # where the kernel has decayed below e^-40 (Matern, zeta = 80), so the
        # moment is the integral over the half-space x > -height, done in
        # cylindrical coordinates about the axis through the centre.
        mpmath = pytest.importorskip("mpmath")
        fp = mpmath.fp
        wendland = family.startswith("wendland")
        zeta = 4.0 if wendland else 80.0
        # Matern: split at multiples of the decay length, stop at e^-40
        tail = [] if wendland else [1.0 / zeta, 10.0 / zeta, 40.0 / zeta]
        top = 1.0 / zeta if wendland else tail[-1]

        def slab(z):
            reach = [fp.sqrt(top * top - z * z)] if wendland else tail
            return fp.quad(
                lambda r: 2 * math.pi * r
                * _oracle_profile(fp, family, 3, zeta * fp.sqrt(z * z + r * r)),
                [0.0] + reach,
            )

        bottom = -min(height, top)
        exact = fp.quad(slab, sorted({bottom, 0.0, top, *tail}))
        b = _engine_moment(family, [(0.0, 1.0)] * 3, (height, 0.5, 0.5), zeta, None, level=7)
        assert abs(b - exact) <= 1e-13 * exact, f"{family} at {height}: {b!r} vs {exact!r}"

    @pytest.mark.parametrize("family", ORACLE_FAMILIES[1:])
    def test_three_dimensions_converged_at_level_five(self, family):
        # the support sphere of radius 1 crosses the faces of most orthants
        # here; segments split at each crossing keep the convergence spectral
        dom = ParameterDomain.unit(3)
        spec = KernelSpec(family, 3)
        centers = halton_points(dom, 16)
        b5 = kernel_moments(spec, centers, cc_rule(dom, 5))
        b9 = kernel_moments(spec, centers, cc_rule(dom, 9, max_points=2 * 10 ** 7))
        assert np.max(np.abs(b5 - b9)) <= 1e-13

    @pytest.mark.parametrize("family", ["wendland0", "wendland3"])
    def test_four_dimensions_ball_inside_box(self, family):
        mpmath = pytest.importorskip("mpmath")
        zeta = 4.0
        radial = mpmath.quad(lambda s: s ** 3 * _oracle_profile(mpmath.mp, family, 4, s), [0, 1])
        exact = 2.0 * math.pi ** 2 * float(radial) / zeta ** 4
        b = _engine_moment(family, [(0.0, 1.0)] * 4, (0.5,) * 4, zeta, None, level=5)
        assert abs(b - exact) <= 1e-12 * exact

    def test_level_sets_resolution(self):
        dom = ParameterDomain.unit(2)
        spec = KernelSpec("wendland0", 2)
        centers = halton_points(dom, 5)
        coarse, finer = (kernel_moments(spec, centers, cc_rule(dom, lv)) for lv in (2, 3))
        assert np.max(np.abs(coarse - finer)) > 0.0
        b7, b9 = (kernel_moments(spec, centers, cc_rule(dom, lv)) for lv in (7, 9))
        assert np.max(np.abs(b7 - b9)) <= 1e-14


def _split_oracle(profile, bounds, centre, order):
    """Box mean of profile(|y - centre|) by tensor Gauss-Legendre.

    The box is split at the centre into 2^D boxes, one per corner, and
    every axis is graded towards the centre by y = c + (f - c) t^3, which
    smooths the kink that the boxes share at their corner.
    """
    t, w = np.polynomial.legendre.leggauss(order)
    t, w = (t + 1.0) / 2.0, w / 2.0
    total = 0.0
    for corner in itertools.product(*bounds):
        lengths = [abs(f - c) for f, c in zip(corner, centre)]
        axes = np.meshgrid(*[length * t ** 3 for length in lengths], indexing="ij")
        weights = [length * 3.0 * t * t * w for length in lengths]
        weight = functools.reduce(np.multiply.outer, weights)
        total += np.sum(weight * profile(np.sqrt(sum(a * a for a in axes))))
    return total / math.prod(hi - lo for lo, hi in bounds)


def _mixture_oracle(mpmath, family, bounds, centre, lam):
    """Box mean of a Matern kernel from its scale mixture, by mpmath.quad:
    int_0^inf t^(nu-1) e^-t prod_d F_d(t) dt / (Gamma(nu) |box|), where
    F_d(t) = int exp(-lam_d^2 (y_d - c_d)^2 / 4t) dy_d over the box's side
    is a difference of erfs.  The t-axis is split where each face's scaled
    distance d meets the Gaussian's width, t = d^2 / 4."""
    nu = mpmath.mpf(1) / 2 if family == "matern12" else mpmath.mpf(3) / 2

    def integrand(t):
        value = t ** (nu - 1) * mpmath.exp(-t)
        for (lo, hi), c, scale in zip(bounds, centre, lam):
            s = mpmath.mpf(scale) / (2 * mpmath.sqrt(t))
            value *= mpmath.sqrt(mpmath.pi) / (2 * s) * (
                mpmath.erf(s * (hi - mpmath.mpf(c))) - mpmath.erf(s * (lo - mpmath.mpf(c)))
            )
        return value

    splits = {1.0} | {
        (scale * (f - c)) ** 2 / 4
        for (lo, hi), c, scale in zip(bounds, centre, lam)
        for f in (lo, hi)
        if f != c
    }
    total = mpmath.quad(integrand, [0] + sorted(splits) + [mpmath.inf])
    return float(total / mpmath.gamma(nu)) / math.prod(hi - lo for lo, hi in bounds)


class TestScaleMixtures:
    """Gaussian and Matern moments from the erf products of Gaussian terms."""

    @pytest.mark.parametrize("zeta", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_terms_reproduce_profile(self, family, zeta):
        # phi_nu(r) = 2^(1-nu) r^nu K_nu(r) / Gamma(nu); ell = zeta on the unit interval
        mpmath = pytest.importorskip("mpmath")
        spec = KernelSpec(family, 1, norm=NormSpec(zeta))
        sigma, coeff = _gaussian_terms(spec, ParameterDomain.unit(1))
        r = np.geomspace(1e-6 * zeta, 60.0, 200)
        got = np.exp(-np.outer(r, sigma) ** 2) @ coeff
        nu = mpmath.mpf(1) / 2 if family == "matern12" else mpmath.mpf(3) / 2
        with mpmath.workdps(30):
            exact = [
                2 ** (1 - nu) / mpmath.gamma(nu) * x ** nu * mpmath.besselk(nu, x)
                for x in map(mpmath.mpf, r)
            ]
        err = np.abs(got - np.array(exact, dtype=float))
        assert np.max(err) <= 1e-15, f"r = {r[np.argmax(err)]}: off by {np.max(err):.2e}"

    @pytest.mark.parametrize("family", ["gaussian", "matern12", "matern32"])
    def test_tiny_scale_one_dimension(self, family):
        # at r ~ 1e-30 the former Matern closed forms c_j - e^-r q_j(r)
        # cancelled to 0, and so did erfc(0) - erfc(hi) for a centre on a face
        mpmath = pytest.importorskip("mpmath")
        bounds = [(0.0, 1.0)]
        for c in (0.0, 0.3, 1.0, 1.4):
            with mpmath.workdps(40):
                exact = _oracle_moment(mpmath.mp, family, bounds, (c,), zeta=1e-30)
            b = _engine_moment(family, bounds, (c,), 1e-30, None, level=1)
            assert abs(b - exact) <= 1e-15, f"centre {c}: {b!r} vs {exact!r}"

    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_finite_without_warnings_at_zeta_1e300(self, family, dim):
        dom = ParameterDomain.unit(dim)
        centres = np.vstack([halton_points(dom, 3).points, np.zeros((1, dim))])
        spec = KernelSpec(family, dim, norm=NormSpec(1e-300))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = kernel_moments(spec, centres, cc_rule(dom, 1))
        assert np.max(np.abs(b - 1.0)) <= 2e-15

    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_small_scale_three_dimensions(self, family):
        # the former radial reduction was off by up to 7e-3 relative here
        spec = KernelSpec(family, 3, norm=NormSpec(1e-4))
        dom = ParameterDomain.unit(3)
        bounds = list(zip(dom.lower, dom.upper))
        centres = np.vstack([halton_points(dom, 3).points, [[1e-3, 0.5, 0.5]]])
        b = kernel_moments(spec, centres, cc_rule(dom, 1))
        for c, bc in zip(centres, b):
            exact = _split_oracle(spec.profile, bounds, c, 64)
            assert abs(bc - exact) <= 1e-13 * exact, f"centre {c}: {bc!r} vs {exact!r}"

    @pytest.mark.parametrize("zeta", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_five_dimensions_against_mixture_integral(self, family, zeta):
        mpmath = pytest.importorskip("mpmath")
        bounds = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5), (0.0, 1.0), (0.0, 2.0)]
        weights = (1.0, 2.0, 0.5, 1.0, 1.5)
        centres = [(0.3, 0.1, 1.2, 0.7, 1.9), (1e-3, 2.0, 0.6, 0.5, 1.0)]
        dom = ParameterDomain.from_bounds(bounds)
        spec = KernelSpec(family, 5, norm=NormSpec(zeta, weights))
        b = kernel_moments(spec, np.array(centres), cc_rule(dom, 1))
        lam = [zeta * w for w in weights]
        for c, bc in zip(centres, b):
            with mpmath.workdps(30):
                exact = _mixture_oracle(mpmath, family, bounds, c, lam)
            assert abs(bc - exact) <= 1e-13 * exact, f"centre {c}: {bc!r} vs {exact!r}"

    @pytest.mark.parametrize("family", ["gaussian", "matern12", "matern32"])
    def test_level_does_not_matter(self, family):
        dom = ParameterDomain.unit(4)
        spec = KernelSpec(family, 4)
        centres = halton_points(dom, 5)
        coarse, fine = (
            kernel_moments(spec, centres, cc_rule(dom, lv, max_points=None)) for lv in (1, 9)
        )
        assert np.array_equal(coarse, fine)


class TestMemoryBound:
    """kernel_moments keeps its temporaries near _BATCH_ENTRIES entries."""

    @pytest.mark.parametrize("family", ["matern32", "wendland0", "wendland3"])
    @pytest.mark.parametrize("dim,level", [(4, 7), (5, 6)])
    def test_one_centre_peak(self, family, dim, level):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        rule = cc_rule(dom, level, max_points=None)
        centre = halton_points(dom, 1)
        tracemalloc.start()
        try:
            b = kernel_moments(KernelSpec(family, dim), centre, rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b[0] > 0.0
        assert peak <= 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    @pytest.mark.parametrize("dim", [4, 5, 6])
    def test_face_order_within_max_level_nodes(self, dim):
        # building a q-node GL rule takes O(q^2) memory, which MAX_LEVEL bounds
        assert _moment_resolution(dim, MAX_LEVEL)[0] <= _level_nodes(MAX_LEVEL) == 2049

    @pytest.mark.parametrize("entries", [1, 100, 10 ** 4])
    @pytest.mark.parametrize("dim,level", [(1, 5), (2, 5), (3, 4), (4, 4), (5, 4)])
    def test_batch_entries_do_not_change_moments(self, monkeypatch, entries, dim, level):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        rule = cc_rule(dom, level)
        centres = halton_points(dom, 3)
        specs = [KernelSpec(f, dim) for f in ("wendland3", "wendland0", "matern12")]
        default = [kernel_moments(spec, centres, rule) for spec in specs]
        monkeypatch.setattr(quadrature, "_BATCH_ENTRIES", entries)
        for spec, expect in zip(specs, default):
            b = kernel_moments(spec, centres, rule)
            if dim <= 3:
                assert np.array_equal(b, expect)
            else:  # the face grid is split, so only the summation order changes
                assert np.max(np.abs(b - expect) / np.abs(expect)) <= 1e-14


class TestRadialMoments:
    """The Wendland radial moments against mpmath."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("family", ["wendland0", "wendland1", "wendland2", "wendland3"])
    def test_wendland_k_series(self, family, dim):
        mpmath = pytest.importorskip("mpmath")
        r = np.concatenate([np.geomspace(1e-6, 1.0, 25), np.linspace(0.05, 2.0, 40)])
        got = _big_k(KernelSpec(family, dim), r)

        def moment(j, x):
            top = min(x, 1)
            return mpmath.quad(lambda s: s ** j * _oracle_profile(mpmath.mp, family, dim, s), [0, top])

        with mpmath.workdps(30):
            exact = [moment(1, mpmath.mpf(x)) - moment(2, mpmath.mpf(x)) / x for x in r]
        err = np.abs(got - np.array(exact, dtype=float))
        assert np.max(err) <= 1e-14, f"r = {r[np.argmax(err)]}: off by {np.max(err):.2e}"


class TestMomentWeights:
    def test_single_point_closed_form(self):
        # N=1: (1 + eps) omega = b
        dom = ParameterDomain.unit(1)
        points = halton_points(dom, 1)
        spec = KernelSpec(family="gaussian", dim=1)
        gram = assemble_gram(spec, points)
        rule = cc_rule(dom, 7)
        b = kernel_moments(spec, points, rule)
        eps = 1e-12
        weights = moment_weights(gram, Tikhonov(eps), b)
        assert abs(weights.omega[0] - b[0] / (1.0 + eps)) < 1e-16

    def test_constant_data_integrates_close_to_constant(self):
        dom = ParameterDomain.unit(1)
        points = halton_points(dom, 64)
        spec = KernelSpec(family="wendland3", dim=1)
        gram = assemble_gram(spec, points)
        b = kernel_moments(spec, points, cc_rule(dom, 7))
        weights = moment_weights(gram, Tikhonov(1e-12), b)
        est = estimate_mean(weights, np.full(64, 5.0))
        assert abs(est[0] - 5.0) < 1e-5

    def test_rhs_length_checked(self):
        dom = ParameterDomain.unit(1)
        points = halton_points(dom, 4)
        spec = KernelSpec(family="gaussian", dim=1)
        gram = assemble_gram(spec, points)
        with pytest.raises(ValueError):
            moment_weights(gram, None, np.ones(5))

    def test_estimate_mean_shapes(self):
        dom = ParameterDomain.unit(1)
        points = halton_points(dom, 4)
        spec = KernelSpec(family="gaussian", dim=1)
        gram = assemble_gram(spec, points)
        b = kernel_moments(spec, points, cc_rule(dom, 5))
        weights = moment_weights(gram, Tikhonov(1e-12), b)
        flat = estimate_mean(weights, np.ones(4))
        assert flat.shape == (1,)
        table = estimate_mean(weights, np.ones((4, 3)))
        assert table.shape == (3,)
        with pytest.raises(ValueError):
            estimate_mean(weights, np.ones((5, 2)))
