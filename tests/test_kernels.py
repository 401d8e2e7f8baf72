import math

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from rbfuq import FAMILIES, KernelSpec, kernel_matrix


def spec(family, dim=1, **kw):
    return KernelSpec(family=family, dim=dim, **kw)


class TestProfiles:
    # Values at r = 1/2 derived by hand from the minimal-degree closed
    # forms with l = floor(D/2) + k + 1, normalized to phi(0) = 1.
    @pytest.mark.parametrize(
        "family,dim,expected",
        [
            ("wendland0", 1, 0.5),
            ("wendland0", 3, 0.25),
            ("wendland1", 1, 0.3125),
            ("wendland1", 3, 0.1875),
            ("wendland2", 1, 0.171875),
            ("wendland2", 3, 0.10807291666666667),
            ("wendland3", 1, 0.0927734375),
            ("wendland3", 3, 0.0595703125),
        ],
    )
    def test_wendland_closed_forms_at_half(self, family, dim, expected):
        assert float(spec(family, dim).profile(0.5)) == expected

    def test_gaussian_profile(self):
        assert float(spec("gaussian").profile(1.0)) == math.exp(-1.0)
        assert float(spec("gaussian", epsilon=2.0).profile(1.0)) == math.exp(-4.0)

    def test_matern_profiles(self):
        assert float(spec("matern12").profile(1.0)) == math.exp(-1.0)
        assert float(spec("matern32").profile(1.0)) == 2.0 / math.e

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    def test_unit_at_zero(self, family, dim):
        assert float(spec(family, dim).profile(0.0)) == 1.0

    @pytest.mark.parametrize("k", [0, 1, 2, 3])
    def test_wendland_compact_support(self, k):
        s = spec(f"wendland{k}", 3)
        r = np.array([1.0, 1.5, 10.0])
        assert np.all(s.profile(r) == 0.0)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_profiles_monotone_decreasing(self, family):
        r = np.linspace(0.0, 0.999, 200)
        v = spec(family, 2).profile(r)
        assert np.all(np.diff(v) < 0.0)

    def test_support_radius_scales_with_zeta(self):
        s = spec("wendland2", 2, zeta=4.0)
        assert s.profile(0.25) == 0.0 and s.profile(np.nextafter(0.25, 0.0)) > 0.0
        assert spec("gaussian").profile(20.0) > 0.0


class TestScaling:
    def test_gaussian_epsilon_zeta_identity_bitwise(self):
        rng = np.random.default_rng(7)
        a = rng.random((40, 3))
        b = rng.random((25, 3))
        via_zeta = kernel_matrix(spec("gaussian", 3, epsilon=1.7, zeta=2.3), a, b)
        via_eps = kernel_matrix(spec("gaussian", 3, epsilon=1.7 * 2.3), a, b)
        assert np.array_equal(via_zeta, via_eps)

    def test_zeta_shrinks_wendland_support(self):
        wide = spec("wendland0", 1, zeta=0.5)
        narrow = spec("wendland0", 1, zeta=2.0)
        assert float(wide.profile(1.5)) > 0.0
        assert float(narrow.profile(0.75)) == 0.0


class TestNormSpec:
    """The norm is zeta times the Euclidean distance."""

    def test_distance_scaled(self):
        s = spec("matern12", 2, zeta=3.0)
        assert kernel_matrix(s, [[1.0, 0.0]], [[0.0, 0.0]])[0, 0] == math.exp(-3.0)

    def test_pairwise_unscaled(self):
        # kernel_matrix hands the profile unscaled distances; the profile applies zeta
        s = spec("matern12", 1, zeta=3.0)
        assert float(s.profile(2.0)) == math.exp(-6.0)
        assert kernel_matrix(s, [[0.0]], [[2.0]])[0, 0] == math.exp(-6.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension 1 applied to point arrays of dimensions 1 and 2"):
            kernel_matrix(spec("gaussian", 1), np.zeros((1, 1)), np.zeros((1, 2)))

    def test_rejects_bad_zeta(self):
        for zeta in (0.0, -1.0, float("nan")):
            with pytest.raises(ValueError, match="norm scale zeta must be positive"):
                spec("gaussian", 2, zeta=zeta)


class TestMatrixHelpers:
    def test_kernel_matrix_shape_and_values(self):
        s = spec("gaussian", 1)
        a = np.array([[0.0], [1.0]])
        k = kernel_matrix(s, a, a)
        assert k.shape == (2, 2)
        assert k[0, 0] == 1.0 and k[1, 1] == 1.0
        assert k[0, 1] == math.exp(-1.0)

    def test_kernel_matrix_dimension_check(self):
        with pytest.raises(ValueError):
            kernel_matrix(spec("gaussian", 2), np.zeros((3, 1)), np.zeros((3, 1)))

    def test_flat_point_array_is_refused_by_shape(self):
        flat, rows = np.array([0.2, 0.5]), np.array([[0.1]])
        for a, b in ((flat, rows), (rows, flat)):
            with pytest.raises(ValueError, match=r"shape \(2,\)"):
                kernel_matrix(spec("gaussian", 1), a, b)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            KernelSpec(family="cubic", dim=1)

    def test_epsilon_must_be_positive(self):
        with pytest.raises(ValueError):
            KernelSpec(family="gaussian", dim=1, epsilon=0.0)

    def test_quadratic_form_two_points(self):
        # alpha^T K alpha with K = [[1, e^-1], [e^-1, 1]], alpha = (1, 1)
        s = spec("matern12", 1)
        pts = np.array([[0.0], [1.0]])
        alpha = np.array([1.0, 1.0])
        q = alpha @ kernel_matrix(s, pts, pts) @ alpha
        assert abs(q - (2.0 + 2.0 * math.exp(-1.0))) < 1e-15

    @pytest.mark.parametrize("family", FAMILIES)
    def test_quadratic_form_positive(self, family):
        rng = np.random.default_rng(3)
        pts = rng.random((20, 2))
        alpha = rng.standard_normal(20)
        assert alpha @ kernel_matrix(spec(family, 2), pts, pts) @ alpha > 0.0


def _plain_profile(family, dim, eps_zeta, zeta, d):
    """The kernel profiles as plain expressions that allocate every
    intermediate, in the operation order of the in-place code."""
    if family == "gaussian":
        a = eps_zeta * d
        return np.exp(-(a * a))
    r = zeta * d
    if family == "matern12":
        return np.exp(-r)
    if family == "matern32":
        return (1.0 + r) * np.exp(-r)
    k = int(family[-1])
    ell = dim // 2 + k + 1
    base = np.maximum(1.0 - r, 0.0) ** (ell + k)
    if k == 0:
        return base
    if k == 1:
        return base * ((ell + 1.0) * r + 1.0)
    if k == 2:
        return base * ((ell * ell + 4.0 * ell + 3.0) * r * r + (3.0 * ell + 6.0) * r + 3.0) / 3.0
    poly = (
        (ell ** 3 + 9.0 * ell ** 2 + 23.0 * ell + 15.0) * r ** 3
        + (6.0 * ell ** 2 + 36.0 * ell + 45.0) * r * r
        + (15.0 * ell + 45.0) * r
        + 15.0
    )
    return base * poly / 15.0


class TestGramBuffers:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("dim", [1, 3, 5])
    def test_matrix_bitwise_equal_to_plain_expressions(self, family, dim):
        rng = np.random.default_rng(dim)
        a, b = rng.random((60, dim)), rng.random((45, dim))
        s = spec(family, dim, epsilon=0.8, zeta=1.7)
        d = cdist(a, b)
        assert np.array_equal(kernel_matrix(s, a, b), _plain_profile(family, dim, 0.8 * 1.7, 1.7, d))
        assert np.array_equal(s.profile(d), _plain_profile(family, dim, 0.8 * 1.7, 1.7, d))

    @pytest.mark.parametrize("family,dim", [("wendland3", 1), ("matern32", 3), ("gaussian", 2)])
    def test_gram_peak_is_at_most_three_matrices(self, family, dim):
        import tracemalloc

        from rbfuq import ParameterDomain, assemble_gram, halton_points

        n = 512
        pts = halton_points(ParameterDomain.unit(dim), n)
        tracemalloc.start()
        try:
            assemble_gram(spec(family, dim), pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * n * n * 8 + 2 ** 18, f"peak {peak / (8 * n * n):.2f} matrices"

    @pytest.mark.parametrize("entries", [1, 2 ** 15 - 1, 10 ** 9])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_row_blocks_do_not_change_the_matrix(self, monkeypatch, family, entries):
        from rbfuq import kernels

        rng = np.random.default_rng(7)
        a, b = rng.random((300, 3)), rng.random((200, 3))
        s = spec(family, 3, epsilon=0.8, zeta=1.7)
        default = kernel_matrix(s, a, b)
        monkeypatch.setattr(kernels, "_PROFILE_BLOCK_ENTRIES", entries)
        assert np.array_equal(kernel_matrix(s, a, b), default)

    @pytest.mark.parametrize("family,dim", [("wendland3", 1), ("matern32", 3), ("gaussian", 2)])
    def test_gram_peak_under_one_and_a_half_matrices(self, family, dim):
        import tracemalloc

        from rbfuq import ParameterDomain, halton_points

        n = 2048
        pts = halton_points(ParameterDomain.unit(dim), n).points
        tracemalloc.start()
        try:
            kernel_matrix(spec(family, dim), pts, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8, f"peak {peak / (8 * n * n):.2f} matrices"
