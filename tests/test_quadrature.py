import functools
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rbfuq import (
    FAMILIES,
    CollocationSet,
    KernelSpec,
    ParameterDomain,
    Tikhonov,
    assemble_gram,
    cc_nodes_weights,
    cc_rule,
    estimate_mean,
    halton_points,
    kernel_moments,
    moment_weights,
    solve,
)
from rbfuq import quadrature
from rbfuq.quadrature import _gaussian_terms, _level_nodes


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
        assert rule.nodes[0].size == 2
        assert np.array_equal(rule.nodes[0], [0.0, 1.0])
        assert np.array_equal(rule.weights[0], [0.5, 0.5])

    @pytest.mark.parametrize("level,n", [(1, 2), (2, 3), (3, 5), (7, 65)])
    def test_level_node_counts(self, level, n):
        rule = cc_rule(ParameterDomain.unit(1), level)
        assert rule.nodes[0].size == n

    def test_mapping_to_box(self):
        dom = ParameterDomain([2.0], [6.0])
        rule = cc_rule(dom, 2)
        assert np.array_equal(rule.nodes[0], [2.0, 4.0, 6.0])
        assert abs(rule.weights[0].sum() - 4.0) < 1e-13

    def test_npoints(self):
        rule = cc_rule(ParameterDomain.unit(3), 3)
        assert [x.size for x in rule.nodes] == [5, 5, 5]

    def test_point_cap_enforced(self):
        with pytest.raises(ValueError, match="level"):
            cc_rule(ParameterDomain.unit(3), 12)

    def test_point_cap_configurable(self):
        rule = cc_rule(ParameterDomain.unit(2), 7, max_points=10 ** 4)
        assert [x.size for x in rule.nodes] == [65, 65]
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
            cc_rule(ParameterDomain.unit(1), level)


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


def _oracle_moment(lib, family, bounds, center, zeta=1.0, epsilon=1.0):
    """Kernel moment by iterated 1-D ``lib.quad`` in Cartesian coordinates.

    ``lib`` is ``mpmath.mp`` or ``mpmath.fp``.  Every 1-D integral is split
    wherever its integrand has a kink: at the centre, where the support
    circle crosses its line and, for the outer integral in D = 2, where
    the circle meets the box edges (so each piece is smooth up to its ends).
    """
    dim = len(bounds)
    scale = zeta * (epsilon if family == "gaussian" else 1.0)
    support = 1.0 / zeta if family.startswith("wendland") else math.inf

    def pieces(lo, hi, kinks):
        return sorted({lo, hi} | {p for p in kinks if lo < p < hi})

    def chord(offset):
        # half-width of the support circle at an offset from the centre
        left = support * support - offset * offset
        return lib.sqrt(left) if left > 0 else 0.0

    def radial(d):
        return _oracle_profile(lib, family, dim, scale * d)

    (lo0, hi0), c0 = bounds[0], center[0]
    kinks = [c0, c0 - support, c0 + support]
    if dim == 1:
        total = lib.quad(lambda x: radial(abs(x - c0)), pieces(lo0, hi0, kinks))
    else:
        (lo1, hi1), c1 = bounds[1], center[1]
        for edge in (lo1, hi1):
            reach = chord(edge - c1)
            kinks += [c0 - reach, c0 + reach] if reach > 0 else []

        def inner(x):
            dx = x - c0
            reach = chord(dx)
            return lib.quad(
                lambda y: radial(lib.sqrt(dx * dx + (y - c1) ** 2)),
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
        dom = ParameterDomain(*np.transpose(bounds))
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
        dom = ParameterDomain([0.0], [2.0])
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

    @pytest.mark.parametrize("family", ["gaussian", "wendland3"])
    def test_flat_point_array_is_refused_by_shape(self, family):
        rule = cc_rule(ParameterDomain.unit(1), 3)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            kernel_moments(KernelSpec(family, 1), np.array([0.2, 0.5]), rule)


ORACLE_FAMILIES = (
    "gaussian", "wendland0", "wendland1", "wendland2", "wendland3", "matern12", "matern32"
)
WENDLAND = ORACLE_FAMILIES[1:5]
# (bounds, centre, zeta)
ORACLE_CASES_1D = {
    "near_face_scaled": ([(0.0, 1.0)], (1e-3,), 1.7),
    "end_point": ([(-1.0, 2.0)], (2.0,), 1.0),
    "support_inside": ([(0.0, 2.0)], (1.1,), 2.5),
    "support_crossing": ([(0.0, 1.0)], (0.3,), 1.0),
    "outside": ([(0.0, 1.0)], (1.4,), 1.0),
}
ORACLE_CASES_2D = {
    "near_face_scaled": ([(0.0, 1.0), (-1.0, 2.0)], (1e-3, 0.4), 1.7),
    "corner": ([(0.0, 1.0), (0.0, 1.0)], (0.0, 0.0), 1.0),
    "support_inside": ([(0.0, 2.0), (0.0, 2.0)], (1.1, 0.9), 2.5),
    "support_crossing": ([(0.0, 2.0), (0.0, 2.0)], (0.8, 1.1), 1.0),
    "box_inside_support": ([(0.0, 1.0), (0.0, 1.0)], (0.3, 0.6), 1.0),
}


def _engine_moment(family, bounds, center, zeta, epsilon=1.0):
    dom = ParameterDomain(*np.transpose(bounds))
    spec = KernelSpec(family, len(bounds), epsilon=epsilon, zeta=zeta)
    return kernel_moments(spec, np.array([center], dtype=float), dom)[0]


class TestMomentOracles:
    """Kernel moments of every family against independent quadratures."""

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES_1D))
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_one_dimension_exact_at_any_level(self, family, case):
        mpmath = pytest.importorskip("mpmath")
        bounds, center, zeta = ORACLE_CASES_1D[case]
        with mpmath.workdps(30):
            exact = _oracle_moment(mpmath.mp, family, bounds, center, zeta)
        b = _engine_moment(family, bounds, center, zeta)
        assert abs(b - exact) <= 1e-13, f"{family} {case}: {b!r} vs {exact!r}"

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES_2D))
    @pytest.mark.parametrize("family", ORACLE_FAMILIES)
    def test_two_dimensions(self, family, case):
        mpmath = pytest.importorskip("mpmath")
        bounds, center, zeta = ORACLE_CASES_2D[case]
        exact = _oracle_moment(mpmath.fp, family, bounds, center, zeta)
        b = _engine_moment(family, bounds, center, zeta)
        assert abs(b - exact) <= 1e-13, f"{family} {case}: {b!r} vs {exact!r}"

    def test_gaussian_three_dimensions_is_erf_product(self):
        bounds = [(0.0, 1.0), (-1.0, 2.0), (0.5, 1.5)]
        eps, zeta = 1.3, 0.7
        dom = ParameterDomain(*np.transpose(bounds))
        centers = np.vstack(
            [halton_points(dom, 10).points, [[0.0, -1.0, 0.5], [1e-3, 0.5, 1.0], [1.2, 0.0, 1.0]]]
        )
        spec = KernelSpec("gaussian", 3, epsilon=eps, zeta=zeta)
        b = kernel_moments(spec, centers, cc_rule(dom, 2))
        for j, c in enumerate(centers):
            exact = 1.0 / dom.volume
            lam = eps * zeta
            for (lo, hi), cd in zip(bounds, c):
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
        b = _engine_moment(family, [(0.0, 1.0)] * 3, (height, 0.5, 0.5), zeta)
        assert abs(b - exact) <= 1e-13 * exact, f"{family} at {height}: {b!r} vs {exact!r}"

    @pytest.mark.parametrize("family", ORACLE_FAMILIES[1:])
    def test_three_dimensions_converged_at_level_five(self, monkeypatch, family):
        # the support sphere of radius 1 crosses the faces of most orthants
        # here.  The level does not set the D = 3 resolution, so the
        # Wendland moments are checked against 257-node segments and the
        # Matern moments on 4 of them against their scale-mixture integral
        # by mpmath.
        dom = ParameterDomain.unit(3)
        spec = KernelSpec(family, 3)
        centers = halton_points(dom, 16)
        b5 = kernel_moments(spec, centers, cc_rule(dom, 5))
        if family.startswith("wendland"):
            with monkeypatch.context() as m:
                m.setattr(quadrature, "_SEGMENT_NODES", 257)
                ref = kernel_moments(spec, centers, cc_rule(dom, 5))
        else:
            mpmath = pytest.importorskip("mpmath")
            bounds = list(zip(dom.lower, dom.upper))
            b5 = b5[:4]
            with mpmath.workdps(20):
                ref = [_mixture_oracle(mpmath, family, bounds, c, (1.0,) * 3) for c in centers.points[:4]]
        assert np.max(np.abs(b5 - ref)) <= 1e-13

    def test_level_sets_resolution(self):
        # the level sets the nodes of a tensor rule, and nothing of the moments
        # that take the rule as their box
        dom = ParameterDomain.unit(2)
        centres = halton_points(dom, 5)
        rules = [cc_rule(dom, lv) for lv in range(1, 8)]
        assert [rule.nodes[0].size for rule in rules] == [_level_nodes(lv) for lv in range(1, 8)]
        for family in FAMILIES:
            spec = KernelSpec(family, 2)
            box = kernel_moments(spec, centres, dom)
            for rule in rules:
                assert np.array_equal(kernel_moments(spec, centres, rule), box)

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("family", WENDLAND)
    def test_level_does_not_matter(self, family, dim):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        spec = KernelSpec(family, dim)
        centres = halton_points(dom, 64)
        box = kernel_moments(spec, centres, dom)
        for level in (1, 7):
            assert np.array_equal(kernel_moments(spec, centres, cc_rule(dom, level)), box)

    @pytest.mark.parametrize("box", ["unit", "symmetric"])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_segments_converged_against_257_nodes(self, monkeypatch, dim, box):
        # 33 nodes per segment reach the rounding floor for zeta >= 0.3
        if box == "unit":
            dom = ParameterDomain.unit(dim)
        else:
            dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        rule = cc_rule(dom, 7)
        centres = halton_points(dom, 64)
        for zeta in (0.3, 1.0, 3.0, 100.0, 1e4):
            for family in WENDLAND:
                spec = KernelSpec(family, dim, zeta=zeta)
                b = kernel_moments(spec, centres, rule)
                with monkeypatch.context() as m:
                    m.setattr(quadrature, "_SEGMENT_NODES", 257)
                    ref = kernel_moments(spec, centres, rule)
                err = np.max(np.abs(b - ref) / ref)
                assert err <= 5e-15, f"{family} at zeta {zeta}: {err:.2e}"

    def test_only_live_segments_are_evaluated(self):
        # rows with both segments live, only the inner, only the outer, and x = 0
        x = np.array([0.5, 0.3, 1.0, 0.0, 0.8])
        y = np.array([1.0, 0.4, 0.5, 0.7, 0.2])
        m1 = quadrature._wendland_moment("wendland2", 2, 1)
        seen = []

        def inner(r, rows):
            seen.append(rows)
            yield m1(r)

        def outer(leg, lo, hi):
            return m1(1.0) * quadrature._atan_span(leg, lo, hi)[None]

        batch = quadrature._edge_integral(x, y, 1.0, inner, outer)[0]
        assert np.array_equal(seen[0], [0, 1, 4])  # GL nodes on the inner segments only
        assert batch[3] == 0.0
        assert np.array_equal(batch, quadrature._edge_term(("wendland2",), x, y)[0])
        # a row in a batch of one adds its terms as it does in any batch
        for i in range(x.size):
            alone = quadrature._edge_integral(x[i : i + 1], y[i : i + 1], 1.0, inner, outer)[0]
            assert np.array_equal(alone, batch[i : i + 1])
        # in D = 3 the foot triangles gather each live row's height
        a = np.array(
            [[0.5, 0.5, 0.5], [0.2, 0.9, 0.9], [0.95, 0.6, 0.7], [0.0, 0.3, 0.4], [1.0, 1.0, 0.1]]
        )
        batch = quadrature._orthant_integrals(("wendland2",), a)
        for i in range(a.shape[0]):
            alone = quadrature._orthant_integrals(("wendland2",), a[i : i + 1])
            assert np.array_equal(alone, batch[:, i : i + 1])


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


def _three_branch_moments(spec, pts, domain):
    """``_gaussian_moments`` with all three erf differences computed on
    every entry and one picked by np.where, in one batch."""
    from scipy.special import erf, erfc

    sigma, coeff = _gaussian_terms(spec, domain)
    with np.errstate(over="ignore"):
        lam = sigma * spec.zeta
    dead = np.isinf(lam)
    lam[dead] = 1.0
    coeff = np.where(dead, 0.0, coeff)
    lam = lam[:, None]
    with np.errstate(over="ignore"):
        lo = (domain.lower - pts[:, None]) * lam
        hi = (domain.upper - pts[:, None]) * lam
    diff = np.where(
        lo > 0.5,
        erfc(lo) - erfc(hi),
        np.where(hi < -0.5, erfc(-hi) - erfc(-lo), erf(hi) - erf(lo)),
    )
    terms = np.prod(diff * (math.sqrt(math.pi) / 2.0 / lam), axis=2)
    return np.sum(terms * coeff, axis=1) / domain.volume


class TestScaleMixtures:
    """Gaussian and Matern moments from the erf products of Gaussian terms."""

    @pytest.mark.parametrize("zeta", [1e-4, 1.0, 1e4])
    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_terms_reproduce_profile(self, family, zeta):
        # phi_nu(r) = 2^(1-nu) r^nu K_nu(r) / Gamma(nu); ell = zeta on the unit interval
        mpmath = pytest.importorskip("mpmath")
        spec = KernelSpec(family, 1, zeta=zeta)
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
            b = _engine_moment(family, bounds, (c,), 1e-30)
            assert abs(b - exact) <= 1e-15, f"centre {c}: {b!r} vs {exact!r}"

    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_finite_without_warnings_at_zeta_1e300(self, family, dim):
        dom = ParameterDomain.unit(dim)
        centres = np.vstack([halton_points(dom, 3).points, np.zeros((1, dim))])
        spec = KernelSpec(family, dim, zeta=1e-300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            b = kernel_moments(spec, centres, cc_rule(dom, 1))
        assert np.max(np.abs(b - 1.0)) <= 2e-15

    @pytest.mark.parametrize("family", ["matern12", "matern32"])
    def test_small_scale_three_dimensions(self, family):
        # the former radial reduction was off by up to 7e-3 relative here
        spec = KernelSpec(family, 3, zeta=1e-4)
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
        centres = [(0.3, 0.1, 1.2, 0.7, 1.9), (1e-3, 2.0, 0.6, 0.5, 1.0)]
        dom = ParameterDomain(*np.transpose(bounds))
        spec = KernelSpec(family, 5, zeta=zeta)
        b = kernel_moments(spec, np.array(centres), cc_rule(dom, 1))
        lam = [zeta] * 5
        for c, bc in zip(centres, b):
            with mpmath.workdps(30):
                exact = _mixture_oracle(mpmath, family, bounds, c, lam)
            assert abs(bc - exact) <= 1e-13 * exact, f"centre {c}: {bc!r} vs {exact!r}"

    @pytest.mark.parametrize("dim", [1, 3, 5])
    @pytest.mark.parametrize("family", ["gaussian", "matern12", "matern32"])
    def test_one_erf_branch_per_entry_is_bitwise_the_three_branch_formula(self, family, dim):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        inside = halton_points(dom, 9).points
        centres = np.vstack([inside, inside + 2.5, inside - 4.0, dom.lower, dom.upper])
        for zeta in (1e-3, 1.0, 1e3, 1e300):  # at 1e300 some terms are dead
            spec = KernelSpec(family, dim, zeta=zeta)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = quadrature._gaussian_moments(spec, centres, dom)
            assert np.array_equal(got, _three_branch_moments(spec, centres, dom)), zeta

    @pytest.mark.parametrize("family", ["gaussian", "matern12", "matern32"])
    def test_level_does_not_matter(self, family):
        dom = ParameterDomain.unit(4)
        spec = KernelSpec(family, 4)
        centres = halton_points(dom, 5)
        box = kernel_moments(spec, centres, dom)
        for level in (1, 4):
            assert np.array_equal(kernel_moments(spec, centres, cc_rule(dom, level)), box)


class TestMemoryBound:
    """kernel_moments keeps its temporaries near _BATCH_ENTRIES entries."""

    @pytest.mark.parametrize("family", ["matern32", "wendland0", "wendland3"])
    @pytest.mark.parametrize("dim,level", [(4, 7), (5, 6)])
    def test_one_centre_peak(self, family, dim, level):
        # at every level, as moments read only the box; a Wendland kernel in
        # D >= 4 is refused before any temporary is made
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        centre = halton_points(dom, 1)
        tracemalloc.start()
        try:
            if family.startswith("wendland"):
                with pytest.raises(ValueError, match="use matern32"):
                    kernel_moments(KernelSpec(family, dim), centre, dom)
            else:
                b = kernel_moments(KernelSpec(family, dim), centre, dom)
                assert b[0] > 0.0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MiB"

    @pytest.mark.parametrize("entries", [1, 100, 10 ** 4])
    @pytest.mark.parametrize("dim,level", [(1, 5), (2, 5), (3, 4), (4, 4), (5, 4)])
    def test_batch_entries_do_not_change_moments(self, monkeypatch, entries, dim, level):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        rule = cc_rule(dom, level)
        centres = halton_points(dom, 3)
        families = ("wendland3", "wendland0", "matern12") if dim <= 3 else ("matern12", "matern32")
        specs = [KernelSpec(f, dim) for f in families]
        default = [kernel_moments(spec, centres, rule) for spec in specs]
        monkeypatch.setattr(quadrature, "_BATCH_ENTRIES", entries)
        for spec, expect in zip(specs, default):
            assert np.array_equal(kernel_moments(spec, centres, rule), expect)


class TestWendlandAboveThreeDimensions:
    """Wendland moments are refused in D >= 4; the rest of the method is not."""

    @pytest.mark.parametrize("dim", [4, 5, 8])
    @pytest.mark.parametrize("family", WENDLAND)
    def test_moments_refused_naming_matern32(self, family, dim):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        pts = halton_points(dom, 3)
        refusal = f"{family} kernel moments are computed only up to 3 dimensions, not {dim}; use matern32"
        with pytest.raises(ValueError, match=refusal):
            kernel_moments(KernelSpec(family, dim), pts, dom)
        with pytest.raises(ValueError, match="use matern32"):  # in a shared pass, over a rule
            kernel_moments(KernelSpec("wendland0", dim), pts, cc_rule(dom, 1), more=(KernelSpec(family, dim),))

    @pytest.mark.parametrize("family", WENDLAND)
    def test_gram_and_interpolant_still_work(self, family):
        dom = ParameterDomain.symmetric(math.sqrt(3.0), 5)
        pts = halton_points(dom, 32)
        gram = assemble_gram(KernelSpec(family, 5), pts)
        assert np.array_equal(np.diag(gram.values), np.ones(32))
        data = np.sin(pts.points.sum(axis=1))
        fit = solve(gram, data, None)
        assert np.max(np.abs(fit.eval_many(pts.points)[:, 0] - data)) <= 1e-10


class TestSharedPass:
    """Wendland kernels of one D and zeta share one radial-reduction pass,
    and each row is bitwise the one-family vector."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_rows_are_the_one_family_vectors(self, data):
        dim = data.draw(st.sampled_from([1, 2, 3]), label="D")
        families = data.draw(st.permutations(WENDLAND), label="order")
        families = families[: data.draw(st.integers(1, len(WENDLAND)), label="count")]
        zeta = data.draw(st.sampled_from([1e-4, 0.3, 1.0, 3.0, 1e4]), label="zeta")
        if data.draw(st.booleans(), label="unit box"):
            dom = ParameterDomain.unit(dim)
        else:
            dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        # Halton centres, box corners and centres outside the box, in a drawn order
        corners = np.array(list(itertools.product(*zip(dom.lower, dom.upper))))[:4]
        outside = data.draw(
            st.lists(st.lists(st.floats(-4.0, 4.0), min_size=dim, max_size=dim), max_size=3),
            label="outside",
        )
        pts = np.vstack([halton_points(dom, data.draw(st.integers(1, 12), label="N")).points, corners])
        if outside:
            pts = np.vstack([pts, outside])
        pts = pts[data.draw(st.permutations(range(len(pts))), label="centre order")]
        specs = [KernelSpec(family, dim, zeta=zeta) for family in families]
        rows = kernel_moments(specs[0], pts, dom, more=tuple(specs[1:]))
        assert rows.shape == (len(specs), len(pts))
        for spec, row in zip(specs, rows):
            top = data.draw(st.integers(1, len(pts)), label=f"{spec.family} top")
            assert np.array_equal(row[:top], kernel_moments(spec, pts[:top], dom))

    def test_one_row_for_an_empty_tuple(self):
        dom = ParameterDomain.unit(2)
        spec, pts, rule = KernelSpec("wendland1", 2), halton_points(dom, 5), cc_rule(dom, 3)
        rows = kernel_moments(spec, pts, rule, more=())
        assert rows.shape == (1, 5)
        assert np.array_equal(rows[0], kernel_moments(spec, pts, rule))

    @pytest.mark.parametrize(
        "first,other",
        [
            (KernelSpec("wendland0", 2), KernelSpec("gaussian", 2)),
            (KernelSpec("gaussian", 2), KernelSpec("wendland0", 2)),
            (KernelSpec("wendland0", 2), KernelSpec("wendland3", 2, zeta=2.0)),
            (KernelSpec("wendland0", 2), KernelSpec("wendland3", 3)),
        ],
    )
    def test_kernels_of_another_kind_or_scale_are_refused(self, first, other):
        dom = ParameterDomain.unit(2)
        with pytest.raises(ValueError, match="sharing one moment pass"):
            kernel_moments(first, halton_points(dom, 3), cc_rule(dom, 3), more=(other,))


class TestRadialMoments:
    """The Wendland radial moments against mpmath."""

    @pytest.mark.parametrize("dim", [2, 3, 5])
    @pytest.mark.parametrize("family", ["wendland0", "wendland1", "wendland2", "wendland3"])
    def test_wendland_k_series(self, family, dim):
        # on [0, 1], where the D = 3 moments use it; beyond the support the
        # closed forms of TestClosedFormSegments take over
        mpmath = pytest.importorskip("mpmath")
        r = np.concatenate([np.geomspace(1e-6, 1.0, 25), np.linspace(0.05, 1.0, 20)])
        got = quadrature._wendland_k(family, dim)(r)

        def moment(j, x):
            return mpmath.quad(lambda s: s ** j * _oracle_profile(mpmath.mp, family, dim, s), [0, x])

        with mpmath.workdps(30):
            exact = [moment(1, mpmath.mpf(x)) - moment(2, mpmath.mpf(x)) / x for x in r]
        err = np.abs(got - np.array(exact, dtype=float))
        assert np.max(err) <= 1e-14, f"r = {r[np.argmax(err)]}: off by {np.max(err):.2e}"


@functools.lru_cache(maxsize=None)
def _oracle_moments(family, dim):
    """The symbol r and M_0, M_1, M_2 of a Wendland profile on [0, 1] as
    exact sympy polynomials, from the rational polynomial through
    ``_oracle_profile`` at 20 rational nodes (every profile here has degree
    at most 13, so it is exact)."""
    sympy = pytest.importorskip("sympy")
    r = sympy.Symbol("r")
    nodes = [sympy.Rational(i, 19) for i in range(20)]
    phi = sympy.interpolate([(t, _oracle_profile(sympy, family, dim, t)) for t in nodes], r)
    return r, tuple(sympy.integrate(r ** j * phi, (r, 0, r)) for j in (0, 1, 2))


@functools.lru_cache(maxsize=None)
def _rounded_polynomial(family, dim, j):
    """M_j (j >= 0) or K = M_1 - M_2 / r (j = None) of ``_oracle_moments``,
    as a callable that evaluates it at each float in exact integer
    arithmetic and rounds once, so its values are correctly rounded; arrays
    keep their shape."""
    sympy = pytest.importorskip("sympy")
    r, moment = _oracle_moments(family, dim)
    poly = moment[j] if j is not None else sympy.cancel(moment[1] - moment[2] / r)
    coeffs = sympy.Poly(poly, r).all_coeffs()  # highest power first
    den = math.lcm(*(int(c.q) for c in coeffs))
    ints = [int(c.p) * (den // int(c.q)) for c in coeffs]

    def value(x):
        # x = m / e exactly; the polynomial is sum_i ints[i] m^(N-i) e^i / (den e^N)
        m, e = float(x).as_integer_ratio()
        acc = 0
        for i, a in enumerate(ints):
            acc = acc * m + a * e ** i
        return acc / (den * e ** (len(ints) - 1))  # integer division rounds correctly

    return np.vectorize(value, otypes=[float])


@functools.lru_cache(maxsize=None)
def _exact_radial_moments(family, dim):
    """M_1 and M_2 of ``_oracle_moments`` for mpmath."""
    sympy = pytest.importorskip("sympy")
    r, moment = _oracle_moments(family, dim)
    return tuple(sympy.lambdify(r, moment[j], "mpmath") for j in (1, 2))


class TestExactPolynomials:
    """The Wendland radial polynomials at the rounding level, from their
    exact rational coefficients."""

    @pytest.mark.parametrize("box", ["unit", "symmetric"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("family", WENDLAND)
    def test_moments_against_exact_polynomials(self, monkeypatch, family, dim, box):
        # the same reduction with M_j and K correctly rounded from the exact
        # rationals; the reduction itself is checked by the triangle and edge
        # oracles of TestClosedFormSegments
        if box == "unit":
            dom = ParameterDomain.unit(dim)
        else:
            dom = ParameterDomain.symmetric(math.sqrt(3.0), dim)
        centres, rule = halton_points(dom, 6), cc_rule(dom, 1)
        zetas = (1e-4, 1e-2, 0.3, 1.0, 3.0, 1e4)
        got = [kernel_moments(KernelSpec(family, dim, zeta=z), centres, rule) for z in zetas]
        monkeypatch.setattr(quadrature, "_wendland_moment", _rounded_polynomial)
        monkeypatch.setattr(quadrature, "_wendland_k", lambda f, d: _rounded_polynomial(f, d, None))
        for zeta, b in zip(zetas, got):
            ref = kernel_moments(KernelSpec(family, dim, zeta=zeta), centres, rule)
            err = np.max(np.abs(b - ref) / ref)
            assert err <= 1e-13, f"zeta {zeta}: {err:.2e}"

    @pytest.mark.parametrize("family", WENDLAND)
    def test_values_at_the_support_radius(self, family):
        # every outer closed form in D = 3 multiplies K(1) and M_2(1)
        sympy = pytest.importorskip("sympy")
        r, moment = _oracle_moments(family, 3)
        m1, m2 = (moment[j].subs(r, 1) for j in (1, 2))
        for got, exact in (
            (quadrature._wendland_k(family, 3)(1.0), m1 - m2),
            (quadrature._wendland_moment(family, 3, 2)(1.0), m2),
        ):
            assert abs(sympy.Rational(float(got)) - exact) <= sympy.Rational(2, 10 ** 17), (got, exact)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", WENDLAND)
    def test_derivative_of_m0_is_the_profile(self, family, dim):
        # one Wendland polynomial: the rational one behind the moments and
        # the float one of KernelSpec.profile agree
        from fractions import Fraction

        coeffs = quadrature._exact_moment(family, dim, 0)  # M_0 = r sum_n p_n r^n
        r = np.linspace(0.0, 1.0, 101)
        exact = [float(sum((n + 1) * p * Fraction(x) ** n for n, p in enumerate(coeffs))) for x in r]
        err = np.abs(KernelSpec(family, dim).profile(r) - exact)
        assert np.max(err) <= 1e-15, f"r = {r[np.argmax(err)]}: off by {np.max(err):.2e}"

    @pytest.mark.parametrize("family", WENDLAND)
    def test_shape_in_is_shape_out(self, family):
        m1, k = quadrature._wendland_moment(family, 3, 1), quadrature._wendland_k(family, 3)
        assert np.ndim(m1(0.5)) == 0 and np.ndim(k(0.5)) == 0
        grid = np.linspace(0.0, 1.0, 12).reshape(3, 4)
        assert m1(grid).shape == k(grid).shape == (3, 4)
        assert np.array_equal(m1(grid)[1], m1(grid[1]))


def _angular_oracle(mp, f, x, y, kink2):
    """integral_0^asinh(y/x) f(x cosh s) / cosh s ds by ``mp.quad``, split
    where x cosh s = sqrt(kink2)."""
    x, y, kink2 = mp.mpf(x), mp.mpf(y), mp.mpf(kink2)
    top = mp.asinh(y / x)
    mid = min(mp.asinh(mp.sqrt(max(kink2 - x * x, 0)) / x), top)
    return mp.quad(lambda s: f(x * mp.cosh(s)) / mp.cosh(s), sorted({mp.mpf(0), mid, top}))


def _triangle_oracle(mp, family, h, x, y):
    """The D = 3 foot triangle, h (K(R) - K(h)) with K = M_1 - M_2 / R
    from the exact M_j, M_j(R) = M_j(1) beyond the support."""
    if h == 0:
        return mp.mpf(0)
    m1, m2 = _exact_radial_moments(family, 3)
    h = mp.mpf(h)

    def big_k(radius):
        top = min(radius, 1)
        return m1(top) - m2(top) / radius

    def radial(rho):
        return h * (big_k(mp.sqrt(h * h + rho * rho)) - big_k(h))

    return _angular_oracle(mp, radial, x, y, 1 - h * h)


def _edge_oracle(mp, family, x, y):
    """The D = 2 edge term, M_1(x cosh s) from the exact M_1."""
    m1, _ = _exact_radial_moments(family, 2)
    return _angular_oracle(mp, lambda rho: m1(min(rho, 1)), x, y, 1)


def _segments_reference(f, x, y, kink2, q=257):
    """The same angular integral by q-node GL on both sides of the kink,
    with no closed form anywhere."""
    t, w = np.polynomial.legendre.leggauss(q)
    t, w = (t + 1.0) / 2.0, w / 2.0
    top = np.arcsinh(y / x)
    mid = min(np.arccosh(max(math.sqrt(kink2) / x, 1.0)), top)
    total = 0.0
    for lo, hi in ((0.0, mid), (mid, top)):
        c = np.cosh(lo + (hi - lo) * t)
        total += (hi - lo) * np.sum(w * f(x * c) / c)
    return total


def _k_everywhere(family, r):
    """K for D = 3 on [0, inf): the series on [0, 1], K(1) + M_2(1) (1 - 1/r) beyond."""
    k = quadrature._wendland_k(family, 3)
    m2_end = quadrature._wendland_moment(family, 3, 2)(1.0)
    return np.where(r < 1.0, k(np.minimum(r, 1.0)), k(1.0) + m2_end * (1.0 - 1.0 / np.maximum(r, 1.0)))


# (h, x, y) of a D = 3 foot triangle; (x, y) of a D = 2 edge at distance x
TRIANGLES = {
    "outer_only": (0.9, 0.6, 0.5),
    "both": (0.3, 0.4, 0.9),
    "inner_only": (0.2, 0.3, 0.4),
    "height_zero": (0.0, 0.5, 0.7),
    "height_one": (1.0, 0.5, 0.7),
    "thin": (0.5, 1e-300, 0.8),
    "subnormal": (0.5, 5e-324, 0.8),
    "kink_at_foot": (0.28, 0.96, 0.5),  # 1 - h^2 - x^2 is exactly 0
    "kink_at_top": (0.5, 0.5, math.sqrt(0.5)),
}
EDGES = {
    "outer_only": (1.0, 0.7),  # distance 1, as clamped: the kink at the foot
    "both": (0.4, 0.95),
    "inner_only": (0.3, 0.5),
    "thin": (1e-300, 0.8),
    "subnormal": (5e-324, 0.8),
    "kink_at_top": (0.5, math.sqrt(0.75)),
}


class TestClosedFormSegments:
    """The segments beyond the support sphere, in closed form, against
    30-digit mpmath and against GL on both segments."""

    @pytest.mark.parametrize("case", sorted(TRIANGLES))
    @pytest.mark.parametrize("family", WENDLAND)
    def test_foot_triangle_against_mpmath(self, family, case):
        mpmath = pytest.importorskip("mpmath")
        h, x, y = TRIANGLES[case]
        got = quadrature._foot_triangle((family,), *np.array([[h], [x], [y]]))[0, 0]
        with mpmath.workdps(30):
            exact = float(_triangle_oracle(mpmath.mp, family, h, x, y))
        assert abs(got - exact) <= 1e-15, f"{family} {case}: {got!r} vs {exact!r}"

    @pytest.mark.parametrize("case", sorted(EDGES))
    @pytest.mark.parametrize("family", WENDLAND)
    def test_edge_term_against_mpmath(self, family, case):
        mpmath = pytest.importorskip("mpmath")
        x, y = EDGES[case]
        got = quadrature._edge_term((family,), np.array([x]), np.array([y]))[0, 0]
        with mpmath.workdps(30):
            exact = float(_edge_oracle(mpmath.mp, family, x, y))
        assert abs(got - exact) <= 1e-15, f"{family} {case}: {got!r} vs {exact!r}"

    def test_zero_distance_is_empty(self):
        got = quadrature._edge_term(("wendland0",), np.zeros(2), np.array([0.5, 1.0]))[0]
        assert np.array_equal(got, np.zeros(2))

    @settings(max_examples=60, deadline=None)
    @given(
        family=st.sampled_from(WENDLAND),
        h=st.floats(0.0, 1.0),
        x=st.floats(1e-6, 1.0),
        y=st.floats(0.0, 1.0),
    )
    def test_against_gl_on_both_segments(self, family, h, x, y):
        got = quadrature._foot_triangle((family,), *np.array([[h], [x], [y]]))[0, 0]
        k_h = _k_everywhere(family, np.array(h))

        def radial(rho):
            return h * (_k_everywhere(family, np.sqrt(h * h + rho * rho)) - k_h)

        ref = _segments_reference(radial, x, y, 1.0 - h * h)
        assert abs(got - ref) <= 1e-15, f"triangle: {got!r} vs {ref!r}"
        m1 = quadrature._wendland_moment(family, 2, 1)
        got = quadrature._edge_term((family,), np.array([x]), np.array([y]))[0, 0]
        ref = _segments_reference(
            lambda rho: np.where(rho < 1.0, m1(np.minimum(rho, 1.0)), m1(1.0)), x, y, 1.0
        )
        assert abs(got - ref) <= 1e-15, f"edge: {got!r} vs {ref!r}"


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


def _refused(family, dim) -> bool:
    """Whether ``family``'s moments are refused in ``dim`` dimensions, as they
    are for a Wendland family in D >= 4; that refusal is checked to warn of nothing."""
    if not (family.startswith("wendland") and dim >= 4):
        return False
    dom = ParameterDomain.unit(dim)
    with warnings.catch_warnings(), pytest.raises(ValueError, match="use matern32"):
        warnings.simplefilter("error")
        kernel_moments(KernelSpec(family, dim), halton_points(dom, 2), dom)
    return True


class TestExtremeScale:
    """Moments at huge zeta: finite, warning-free, and 0 where they underflow."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_finite_without_warnings(self, family, dim):
        if _refused(family, dim):
            return
        for dom in (ParameterDomain.unit(dim), ParameterDomain.symmetric(math.sqrt(3.0), dim)):
            face = dom.lower + 0.3 * dom.lengths
            face[0] = dom.lower[0]
            centres = np.vstack([halton_points(dom, 3).points, face, dom.upper + 0.5])
            for zeta in (1e100, 1e200, 1e280, 1e300):
                spec = KernelSpec(family, dim, zeta=zeta)
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    b = kernel_moments(spec, centres, dom)
                # the whole-space integral of every profile is below 4 / zeta in D = 1
                assert np.all((b >= 0.0) & (b <= 4.0 / zeta)), (dom, zeta, b)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_centre_a_hair_off_a_face(self, family, dim):
        # a face at distance 1e-300 or a subnormal one is the face itself
        if _refused(family, dim):
            return
        dom = ParameterDomain.unit(dim)
        on_face = dom.lower + 0.3 * dom.lengths
        on_face[-1] = 0.0
        centres = np.repeat(on_face[None], 4, axis=0)
        centres[1:, -1] = (1e-300, 2.2250738585072014e-308, 1e-310)
        for zeta in (1e-4, 1.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                b = kernel_moments(KernelSpec(family, dim, zeta=zeta), centres, dom)
            assert np.all(np.abs(b - b[0]) <= 1e-15 * b[0]), (zeta, b)

    def test_matern12_closed_form_at_zeta_1e300(self):
        # an interior centre sees int exp(-zeta |y - c|) dy = 2 / zeta
        spec = KernelSpec("matern12", 1, zeta=1e300)
        b = kernel_moments(spec, np.array([[0.3], [0.5]]), cc_rule(ParameterDomain.unit(1), 1))
        assert np.all(np.abs(b - 2e-300) <= 4e-16 * 2e-300), b
