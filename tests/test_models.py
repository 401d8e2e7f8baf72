import math

import numpy as np
import pytest

from rbfuq import (
    GFunction,
    GridField,
    GridSpec,
    KLField,
    ParameterDomain,
    PoissonExact,
    cc_rule,
    center_of_mass,
    g_function,
    kl_eigenvalue,
    kl_log_field,
)

# E[u](0,0) = (1/6) erf(sqrt(3)) sqrt(3) sqrt(pi), frozen from the formula
POISSON_MEAN_CENTER = 0.5043435602314388
# lambda_2 at L_c = 2: sqrt(2 sqrt(pi)) exp(-pi^2 / 2), frozen
LAMBDA2_LC2 = 0.013540824241385769


class TestGridSpec:
    def test_axes_and_points_order(self):
        grid = GridSpec(extents=((0.0, 1.0), (0.0, 2.0)), counts=(2, 3))
        pts = grid.points()
        assert pts.shape == (6, 2)
        # row-major: second axis varies fastest
        assert np.array_equal(pts[0], [0.0, 0.0])
        assert np.array_equal(pts[1], [0.0, 1.0])
        assert np.array_equal(pts[3], [1.0, 0.0])

    def test_npoints(self):
        assert GridSpec(extents=((0, 1), (0, 1)), counts=(33, 33)).npoints == 1089

    def test_single(self):
        single = GridSpec.single()
        assert single.npoints == 1
        assert np.array_equal(single.points(), [[0.0]])

    def test_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            GridSpec(extents=((0.0, 1.0),), counts=(0,))

    def test_rejects_a_float_count_instead_of_truncating_it(self):
        with pytest.raises(ValueError, match=r"^counts\[0\] must be an integer, got 2.7$"):
            GridSpec(extents=((0.0, 1.0),), counts=(2.7,))

    def test_rejects_mismatched_metadata(self):
        with pytest.raises(ValueError):
            GridSpec(extents=((0.0, 1.0),), counts=(3, 3))


class TestGridField:
    def test_length_invariant(self):
        grid = GridSpec(extents=((0.0, 1.0),), counts=(4,))
        with pytest.raises(ValueError):
            GridField(grid=grid, values=np.ones(5))

    def test_finite_invariant(self):
        grid = GridSpec(extents=((0.0, 1.0),), counts=(2,))
        with pytest.raises(ValueError):
            GridField(grid=grid, values=np.array([1.0, np.nan]))

    def test_reshaped(self):
        # the flat values reshape to the grid: the second axis varies fastest
        grid = GridSpec(extents=((0.0, 1.0), (0.0, 2.0)), counts=(2, 3))
        field = GridField(grid=grid, values=grid.points()[:, 1])
        assert np.array_equal(field.values.reshape(grid.counts), [[0.0, 1.0, 2.0]] * 2)

    def test_scalar(self):
        f = GridField.scalar(7.0)
        assert f.values.size == 1 and f.values[0] == 7.0


def on_grid(field):
    return field.values.reshape(field.grid.counts)


class TestPoisson:
    def test_center_value_at_zero_parameter(self):
        center = on_grid(PoissonExact().evaluate(0.0))[16, 16]
        assert center == 1.0

    def test_boundary_vanishes(self):
        v = on_grid(PoissonExact().evaluate(0.7))
        assert np.all(v[0] == 0.0) and np.all(v[-1] == 0.0)
        assert np.all(v[:, 0] == 0.0) and np.all(v[:, -1] == 0.0)

    def test_extreme_parameter_value(self):
        field = PoissonExact().evaluate(math.sqrt(3.0))
        assert abs(on_grid(field)[16, 16] - math.exp(-3.0)) < 1e-16

    def test_mean_center_value(self):
        mean = PoissonExact().exact_mean()
        assert abs(on_grid(mean)[16, 16] - POISSON_MEAN_CENTER) < 1e-15

    def test_mean_vanishes_at_corner(self):
        v = on_grid(PoissonExact().exact_mean())
        assert abs(v[-1, -1]) < 1e-16

    def test_mean_symmetries(self):
        v = on_grid(PoissonExact().exact_mean())
        assert np.array_equal(v, v.T)
        assert np.array_equal(v, v[::-1, :])

    def test_mean_matches_quadrature_of_field(self):
        # integrate the exact field against the uniform density in y
        model = PoissonExact()
        dom = ParameterDomain.symmetric(math.sqrt(3.0), 1)
        rule = cc_rule(dom, 10)
        acc = np.zeros(model.grid.npoints)
        for y, w in zip(rule.nodes[0], rule.weights[0]):
            acc += (w / dom.volume) * model.evaluate(y).values
        exact = model.exact_mean().values
        assert np.max(np.abs(acc - exact)) < 1e-10

    def test_grid_points_built_once_read_only(self):
        model = PoissonExact()
        x = model.grid.points()
        assert model.grid.points() is x
        with pytest.raises(ValueError, match="read-only"):
            x[0, 0] = 1.0
        # samples equal the formula on freshly built points, bitwise
        grids = np.meshgrid(*model.grid.axes(), indexing="ij")
        fresh = np.stack([g.ravel() for g in grids], axis=1)
        for y in (-math.sqrt(3.0), -0.4, 0.0, 1.1):
            u = 16.0 * math.exp(-y * y) * (fresh[:, 0] ** 2 - 0.25) * (fresh[:, 1] ** 2 - 0.25)
            assert np.array_equal(model.evaluate(y).values, u)

    def test_model_wrapper(self):
        model = PoissonExact()
        assert model.dim == 1
        field = model.evaluate(np.array([0.3]))
        assert field.values.size == 1089
        assert model.exact_mean().values.size == 1089


class TestGFunction:
    def test_zero_at_midpoint(self):
        assert g_function([0.5, 0.5, 0.5]) == 0.0

    def test_corner_value(self):
        # factors 3, 2, 5/3 at the origin for D = 3
        assert abs(g_function([0.0, 0.0, 0.0]) - 10.0) < 1e-14

    def test_one_dim_pair_averages_to_mean(self):
        assert (g_function([0.0]) + g_function([0.5])) / 2.0 == 1.0

    def test_sign_change_in_first_factor(self):
        assert g_function([0.5]) == -1.0
        assert g_function([0.0]) == 3.0

    def test_monte_carlo_mean_near_one(self):
        rng = np.random.default_rng(42)
        n, dim = 10 ** 6, 3
        y = rng.random((n, dim))
        a = (np.arange(1, dim + 1) - 2.0) / 2.0
        vals = np.prod((np.abs(4.0 * y - 2.0) + a) / (1.0 + a), axis=1)
        # vectorized form agrees with the scalar definition
        for row, v in zip(y[:200], vals[:200]):
            assert abs(g_function(row) - v) < 1e-15
        assert 0.99 < vals.mean() < 1.01

    def test_model_wrapper(self):
        model = GFunction(3)
        assert model.evaluate([0.0, 0.0, 0.0]).values[0] == g_function([0.0, 0.0, 0.0])
        assert model.exact_mean().values[0] == 1.0

    @pytest.mark.parametrize("build", [GFunction, KLField])
    @pytest.mark.parametrize("dim, refusal", [(2.0, "dim must be an integer, got 2.0"), (0, "dim must be >= 1, got 0")])
    def test_dimension_is_a_positive_integer(self, build, dim, refusal):
        with pytest.raises(ValueError, match=f"^{refusal}$"):
            build(dim=dim)

    def test_samples_share_one_scalar_grid(self):
        model = GFunction(3)
        y = np.random.default_rng(3).random((2, 3))
        a, b = model.evaluate(y[0]), model.evaluate(y[1])
        assert a.grid is b.grid is GridSpec.single() is model.exact_mean().grid
        assert a.values[0] == g_function(y[0]) and b.values[0] == g_function(y[1])


class TestKL:
    def test_lambda2_frozen_value(self):
        assert abs(kl_eigenvalue(2, 2.0) - LAMBDA2_LC2) < 1e-15

    def test_paired_eigenvalues(self):
        # floor(m/2) pairs consecutive even/odd terms
        assert kl_eigenvalue(2, 0.5) == kl_eigenvalue(3, 0.5)
        assert kl_eigenvalue(4, 0.5) == kl_eigenvalue(5, 0.5)

    @pytest.mark.parametrize("lc", [0.25, 0.5, 2.0])
    def test_eigenvalue_decay(self, lc):
        for m in range(2, 20):
            assert kl_eigenvalue(m + 2, lc) < kl_eigenvalue(m, lc)

    def test_rejects_first_mode(self):
        with pytest.raises(ValueError):
            kl_eigenvalue(1, 1.0)

    def test_constant_term_only(self):
        log_field, force = kl_log_field(np.array([0.0]), 0.5, 2.0)
        assert float(log_field) == 1.0
        assert abs(float(force) - (math.e - 9.81)) < 1e-15

    def test_force_above_buoyancy_floor(self):
        rng = np.random.default_rng(0)
        x2 = np.linspace(0.0, 1.0, 21)
        for _ in range(50):
            y = rng.uniform(-math.sqrt(3.0), math.sqrt(3.0), size=8)
            _, force = kl_log_field(y, x2, 0.5)
            assert np.all(force > -9.81)

    def test_mode_structure(self):
        # at x2 = 0 the sine modes vanish; only cosine modes contribute
        y = np.array([0.0, 1.0, 1.0])
        log_field, _ = kl_log_field(y, 0.0, 2.0)
        expected = 1.0 + kl_eigenvalue(3, 2.0)
        assert abs(float(log_field) - expected) < 1e-15

    def test_first_term_scale(self):
        y = np.array([2.0])
        log_field, _ = kl_log_field(y, 0.3, 2.0)
        expected = 1.0 + 2.0 * math.sqrt(math.sqrt(math.pi))
        assert abs(float(log_field) - expected) < 1e-15

    def test_model_wrapper(self):
        model = KLField(dim=4, correlation_length=0.5)
        field = model.evaluate(np.array([0.1, -0.2, 0.3, 0.4]))
        assert field.values.size == 33
        assert np.all(np.isfinite(field.values))
        x2 = model.grid.points()[:, -1]
        _, force = kl_log_field(np.array([0.1, -0.2, 0.3, 0.4]), x2, 0.5)
        assert np.array_equal(field.values, force)

    def test_model_refuses_a_point_of_another_dimension(self):
        # the model's coefficients are built once, for its own dimension
        with pytest.raises(ValueError, match="KLField of dimension 4 evaluated at a point of dimension 3"):
            KLField(dim=4).evaluate(np.zeros(3))

    @pytest.mark.parametrize("lc", [0.5, 2.0])
    def test_exact_mean_against_per_axis_quadrature(self, lc):
        # E[exp(c y)] for y ~ U(-sqrt 3, sqrt 3), one mpmath.quad per axis and grid point
        mpmath = pytest.importorskip("mpmath")
        model = KLField(dim=5, correlation_length=lc)
        mean = model.exact_mean().values
        with mpmath.workdps(30):
            h = mpmath.sqrt(3)
            for x2, value in zip(model.grid.points()[:, -1], mean):
                coeffs = [mpmath.sqrt(mpmath.sqrt(mpmath.pi) * lc / 2)]
                for m in range(2, 6):
                    lam = mpmath.sqrt(mpmath.sqrt(mpmath.pi) * lc) * mpmath.exp(-((m // 2) * mpmath.pi * lc) ** 2 / 8)
                    mode = mpmath.sin if m % 2 == 0 else mpmath.cos
                    coeffs.append(lam * mode((m // 2) * mpmath.pi * mpmath.mpf(x2)))
                exact = mpmath.e
                for c in coeffs:
                    exact *= mpmath.quad(lambda y: mpmath.exp(c * y), [-h, h]) / (2 * h)
                exact -= mpmath.mpf("9.81")
                assert abs(value - exact) <= 1e-13 * abs(exact), f"x2 = {x2}: {value!r} vs {exact}"

    def test_exact_mean_where_a_mode_vanishes(self):
        # at x2 = 0 every sine mode is 0, so its factor is exactly 1
        model = KLField(dim=2, correlation_length=0.5, grid=GridSpec(extents=((0.0, 0.0),), counts=(1,)))
        c1 = math.sqrt(3.0) * math.sqrt(math.sqrt(math.pi) * 0.5 / 2.0)
        assert model.exact_mean().values[0] == math.e * (math.sinh(c1) / c1) - 9.81

    def test_mean_box(self):
        box = KLField(dim=3).mean_box
        assert np.array_equal(box.lower, [-math.sqrt(3.0)] * 3)
        assert np.array_equal(box.upper, [math.sqrt(3.0)] * 3)


class TestCenterOfMass:
    def grid3(self):
        return GridSpec(extents=((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), counts=(5, 5, 5))

    def test_single_positive_cell(self):
        grid = self.grid3()
        vals = np.zeros(grid.npoints)
        vals[0] = 1.0
        assert np.array_equal(center_of_mass(GridField(grid=grid, values=vals)), [0, 0, 0])

    def test_symmetric_blob_centers(self):
        grid = self.grid3()
        pts = grid.points()
        r = np.linalg.norm(pts - 0.5, axis=1)
        field = GridField(grid=grid, values=(r < 0.3).astype(float))
        assert np.array_equal(center_of_mass(field), [0.5, 0.5, 0.5])

    def test_two_cell_average(self):
        grid = GridSpec(extents=((0.0, 1.0),), counts=(5,))
        vals = np.zeros(5)
        vals[1] = 1.0  # x = 0.25
        vals[3] = 1.0  # x = 0.75
        assert center_of_mass(GridField(grid=grid, values=vals))[0] == 0.5

    def test_empty_phase_rejected(self):
        grid = GridSpec(extents=((0.0, 1.0),), counts=(3,))
        with pytest.raises(ValueError, match="no positive"):
            center_of_mass(GridField(grid=grid, values=np.zeros(3)))

    def test_translation_equivariance(self):
        base = GridSpec(extents=((0.0, 1.0), (0.0, 1.0)), counts=(5, 5))
        shifted = GridSpec(extents=((2.0, 3.0), (0.5, 1.5)), counts=(5, 5))
        vals = np.zeros(25)
        vals[[3, 7, 11]] = 1.0
        c0 = center_of_mass(GridField(grid=base, values=vals))
        c1 = center_of_mass(GridField(grid=shifted, values=vals))
        assert np.array_equal(c1 - c0, [2.0, 0.5])
