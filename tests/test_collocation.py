import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigh

from rbfuq import (
    FAMILIES,
    GramMatrix,
    KernelSpec,
    ParameterDomain,
    SingularGramError,
    Tikhonov,
    TSVD,
    assemble_gram,
    cc_rule,
    condition_report,
    halton_points,
    kernel_matrix,
    kernel_moments,
    lagrange_values,
    moment_weights,
    solve,
)
from rbfuq import collocation

E1 = math.exp(-1.0)
# 2x2 matern12 system on points {0, 1} with data (1, 0):
# A = [[1, e^-1], [e^-1, 1]] gives alpha = (1, -e^-1) / (1 - e^-2).
ALPHA_1 = 1.0 / (1.0 - math.exp(-2.0))
ALPHA_2 = -E1 / (1.0 - math.exp(-2.0))
COND_2X2 = (1.0 + E1) / (1.0 - E1)


def two_point_gram():
    spec = KernelSpec(family="matern12", dim=1)
    pts = halton_points(ParameterDomain.unit(1), 2)
    # replace with the exact points {0, 1} for the closed-form system
    from rbfuq import CollocationSet

    return assemble_gram(spec, CollocationSet(np.array([[0.0], [1.0]]), source="manual"))


def random_gram(family, n=30, dim=2, seed=0):
    rng = np.random.default_rng(seed)
    from rbfuq import CollocationSet

    pts = CollocationSet(rng.random((n, dim)), source="rng")
    return assemble_gram(KernelSpec(family=family, dim=dim), pts)


class TestAssembly:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_symmetry_exact(self, family):
        gram = random_gram(family)
        assert np.array_equal(gram.values, gram.values.T)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_unit_diagonal(self, family):
        gram = random_gram(family)
        assert np.all(np.diag(gram.values) == 1.0)

    def test_two_point_values(self):
        gram = two_point_gram()
        assert gram.values[0, 1] == E1

    def test_duplicate_points_warn(self):
        from rbfuq import CollocationSet

        pts = CollocationSet(np.array([[0.3], [0.3]]), source="dup")
        with pytest.warns(UserWarning, match="duplicate"):
            assemble_gram(KernelSpec(family="gaussian", dim=1), pts)

    def test_dimension_mismatch(self):
        from rbfuq import CollocationSet

        pts = CollocationSet(np.zeros((3, 2)), source="x")
        with pytest.raises(ValueError):
            assemble_gram(KernelSpec(family="gaussian", dim=1), pts)


# The largest N whose Gram matrix is assembled in one block of rows.
ONE_BLOCK_N = math.isqrt(collocation._GRAM_BLOCK_ENTRIES)


class TestGramPairsOnce:
    """assemble_gram evaluates each pair once and mirrors it."""

    @staticmethod
    def full_matrix(spec, points):
        """Every pair evaluated, and the diagonal set to the value at zero distance."""
        values = kernel_matrix(spec, points.points, points.points)
        np.fill_diagonal(values, float(spec.profile(0.0)))
        return values

    @pytest.mark.parametrize("n", [1, 2, ONE_BLOCK_N - 1, ONE_BLOCK_N, ONE_BLOCK_N + 1, 2048])
    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_bitwise_the_full_matrix(self, family, dim, n):
        spec = KernelSpec(family, dim, epsilon=0.7, zeta=1.3)
        points = halton_points(ParameterDomain.symmetric(1.5, dim), n)
        values = assemble_gram(spec, points).values
        assert values.flags.c_contiguous
        assert np.array_equal(values, self.full_matrix(spec, points))

    @pytest.mark.parametrize("gram_entries,profile_entries", [(1, 2 ** 15), (100, 1), (100, 7), (10 ** 9, 3)])
    @pytest.mark.parametrize("family", FAMILIES)
    def test_block_sizes_do_not_change_the_matrix(self, monkeypatch, family, gram_entries, profile_entries):
        from rbfuq import kernels

        spec = KernelSpec(family, 3, epsilon=0.7, zeta=1.3)
        points = halton_points(ParameterDomain.unit(3), 60)
        expect = {n: self.full_matrix(spec, points.prefix(n)) for n in (1, 2, 9, 10, 11, 60)}
        monkeypatch.setattr(collocation, "_GRAM_BLOCK_ENTRIES", gram_entries)
        monkeypatch.setattr(kernels, "_PROFILE_BLOCK_ENTRIES", profile_entries)
        for n, values in expect.items():
            assert np.array_equal(assemble_gram(spec, points.prefix(n)).values, values)

    @pytest.mark.parametrize("family,dim", [("wendland3", 1), ("matern32", 3), ("gaussian", 2)])
    def test_peak_under_one_and_a_half_matrices(self, family, dim):
        n = 2048
        points = halton_points(ParameterDomain.unit(dim), n)
        tracemalloc.start()
        try:
            assemble_gram(KernelSpec(family, dim), points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * n * n * 8, f"peak {peak / (8 * n * n):.2f} matrices"


class TestSolve:
    def test_two_point_closed_form(self):
        gram = two_point_gram()
        interp = solve(gram, np.array([1.0, 0.0]))
        assert abs(interp.coefficients[0, 0] - ALPHA_1) < 1e-15
        assert abs(interp.coefficients[1, 0] - ALPHA_2) < 1e-15

    def test_interpolation_reproduces_data(self):
        gram = random_gram("wendland3", n=50)
        rng = np.random.default_rng(1)
        f = rng.standard_normal(50)
        interp = solve(gram, f)
        at_nodes = interp.eval_many(gram.points.points)[:, 0]
        assert np.max(np.abs(at_nodes - f)) < 1e-8

    def test_channel_independence_bitwise(self):
        gram = random_gram("gaussian", n=40)
        rng = np.random.default_rng(2)
        f = rng.standard_normal((40, 3))
        joint = solve(gram, f, reg=Tikhonov(1e-12))
        for j in range(3):
            single = solve(gram, f[:, j], reg=Tikhonov(1e-12))
            assert np.array_equal(joint.coefficients[:, j], single.coefficients[:, 0])

    def test_tikhonov_residual_identity(self):
        # (A + eps I) alpha = f  implies  f - A alpha = eps alpha; checked
        # on a well-conditioned system where rounding stays below 1e-12
        gram = random_gram("matern12", n=40, seed=3)
        rng = np.random.default_rng(3)
        f = rng.standard_normal(40)
        eps = 1e-6
        interp = solve(gram, f, reg=Tikhonov(eps))
        alpha = interp.coefficients[:, 0]
        residual = f - gram.values @ alpha
        assert np.max(np.abs(residual - eps * alpha)) < 1e-12

    def test_tikhonov_shift_bitwise_and_gram_untouched(self):
        from scipy.linalg import cho_factor, cho_solve

        gram = random_gram("wendland1", n=40, seed=4)
        before = gram.values.copy()
        f = np.cos(np.arange(40.0))
        interp = solve(gram, f, reg=Tikhonov(1e-6))
        expect = cho_solve(cho_factor(before + 1e-6 * np.eye(40)), f)
        assert np.array_equal(interp.coefficients[:, 0], expect)
        assert np.array_equal(gram.values, before)

    def test_singular_without_regularization(self):
        from rbfuq import CollocationSet

        pts = CollocationSet(np.array([[0.25], [0.25], [0.7]]), source="dup")
        with pytest.warns(UserWarning):
            gram = assemble_gram(KernelSpec(family="gaussian", dim=1), pts)
        with pytest.raises(SingularGramError) as err:
            solve(gram, np.ones(3))
        assert err.value.condition > 1e15

    def test_singular_error_reports_the_shifted_condition(self):
        # ones - I/2 is well conditioned; shifted by 1/2 it is the singular all-ones matrix
        base = random_gram("gaussian", n=40)
        ones = GramMatrix(values=np.ones((40, 40)), spec=base.spec, points=base.points)
        gram = GramMatrix(values=np.ones((40, 40)) - 0.5 * np.eye(40), spec=base.spec, points=base.points)
        assert condition_report(gram).condition < 100.0
        with pytest.raises(SingularGramError) as err:
            with pytest.warns(UserWarning, match=r"Tikhonov\(eps_reg=0.5\).*leading minor 2"):
                solve(gram, np.ones(40), reg=Tikhonov(0.5))
        assert err.value.condition == condition_report(ones).condition

    def test_tikhonov_rescues_duplicates(self):
        from rbfuq import CollocationSet

        pts = CollocationSet(np.array([[0.25], [0.25], [0.7]]), source="dup")
        with pytest.warns(UserWarning):
            gram = assemble_gram(KernelSpec(family="gaussian", dim=1), pts)
        interp = solve(gram, np.ones(3), reg=Tikhonov(1e-10))
        assert np.all(np.isfinite(interp.coefficients))

    def test_tsvd_drops_everything_at_large_tol(self):
        gram = random_gram("matern32", n=20)
        interp = solve(gram, np.ones(20), reg=TSVD(10.0))
        assert np.all(interp.coefficients == 0.0)

    def test_tsvd_matches_unregularized_when_nothing_dropped(self):
        gram = random_gram("gaussian", n=10, seed=5)
        f = np.sin(np.arange(10.0))
        direct = solve(gram, f)
        truncated = solve(gram, f, reg=TSVD(1e-14))
        assert np.max(np.abs(direct.coefficients - truncated.coefficients)) < 1e-6

    def test_shared_svd_tsvd_weights_bitwise(self, monkeypatch):
        # weights on one Gram block share its eigendecomposition, and equal
        # those of a fresh Gram over the same prefix, solved tolerance by tolerance
        from rbfuq import collocation

        domain = ParameterDomain.unit(2)
        spec = KernelSpec(family="wendland2", dim=2)
        points = halton_points(domain, 48)
        prefix = points.prefix(32)
        b = kernel_moments(spec, prefix, cc_rule(domain, 5))
        full = assemble_gram(spec, points).values
        shared = GramMatrix(values=full[:32, :32], spec=spec, points=prefix)
        calls = []
        eigh = collocation.eigh
        monkeypatch.setattr(collocation, "eigh", lambda *a, **k: calls.append(1) or eigh(*a, **k))
        for tol in (1e-3, 1e-1):
            fresh = moment_weights(assemble_gram(spec, prefix), TSVD(tol), b)
            assert np.array_equal(moment_weights(shared, TSVD(tol), b).omega, fresh.omega)
        assert len(calls) == 3  # one shared, one per fresh Gram

    def test_data_length_checked(self):
        gram = random_gram("gaussian", n=10)
        with pytest.raises(ValueError):
            solve(gram, np.ones(11))

    def test_eval_single_point(self):
        gram = two_point_gram()
        interp = solve(gram, np.array([1.0, 0.0]))
        v = interp.eval_many(np.atleast_2d([0.0]))[0]
        assert v.shape == (1,)
        assert abs(v[0] - 1.0) < 1e-14


class TestNestedCholesky:
    """One factor of the largest block solves every leading block."""

    def indefinite(self):
        # leading minors 1..3 are positive after the shift; the 4th is not
        values = 0.1 * np.ones((6, 6)) + np.diag([1.0, 1.0, 1.0, -1.6, 1.0, 1.0])
        base = random_gram("gaussian", n=6)
        return GramMatrix(values=values, spec=base.spec, points=base.points)

    def test_regularized_breakdown_falls_back_to_lu_bitwise(self):
        from scipy.linalg import lu_factor, lu_solve

        reg = Tikhonov(0.5)
        top = self.indefinite().factored(reg)
        b = np.sin(np.arange(1.0, 7.0))
        with pytest.warns(UserWarning, match=r"Tikhonov\(eps_reg=0.5\).*leading minor 4"):
            omega = {n: moment_weights(top.leading(n), reg, b[:n]).omega for n in range(1, 7)}
        for n in range(4, 7):
            shifted = top.values[:n, :n] + 0.5 * np.eye(n)
            assert np.array_equal(omega[n], lu_solve(lu_factor(shifted), b[:n]))
        for n in range(1, 4):
            shifted = top.values[:n, :n] + 0.5 * np.eye(n)
            assert np.max(np.abs(shifted @ omega[n] - b[:n])) <= 1e-15

    def test_unregularized_breakdown_names_n_and_minor(self):
        top = self.indefinite()
        top = GramMatrix(values=top.values + 0.5 * np.eye(6), spec=top.spec, points=top.points).factored(None)
        assert np.all(np.isfinite(solve(top.leading(3), np.ones(3)).coefficients))
        with pytest.raises(SingularGramError, match="gaussian unregularized solve at N=5.*leading minor 4"):
            solve(top.leading(5), np.ones(5))

    @pytest.mark.parametrize("n", [40, 64], ids=["leading-block", "full"])
    def test_straight_copy_factors_bitwise(self, n):
        # the factors copy A^T, a straight copy of the bitwise symmetric A
        from scipy.linalg import cho_solve, lu_factor, lu_solve
        from scipy.linalg.lapack import dpotrf

        top = random_gram("wendland3", n=64, dim=3)
        gram = top.leading(n)
        assert gram.values.flags.c_contiguous == (n == 64)
        shifted = np.array(gram.values, order="F")  # the transposing copy
        shifted[np.diag_indices(n)] += 1e-8
        expected, info = dpotrf(shifted.copy(order="F"), lower=0, clean=0)
        assert info == 0
        b = np.cos(np.arange(float(n)))
        omega = moment_weights(gram, Tikhonov(1e-8), b).omega
        assert np.array_equal(omega, cho_solve((expected, False), b))
        # a negative first pivot breaks Cholesky down at minor 1, so every block is solved by LU
        values = top.values.copy()
        values[0, 0] = -1.0
        indefinite = GramMatrix(values=values, spec=top.spec, points=top.points).leading(n)
        shifted[0, 0] = -1.0 + 1e-8
        with pytest.warns(UserWarning, match="leading minor 1"):
            omega = moment_weights(indefinite, Tikhonov(1e-8), b).omega
        assert np.array_equal(omega, lu_solve(lu_factor(shifted), b))

    def test_factor_of_another_regularization_is_not_used(self):
        # a block carrying a Tikhonov(1e-8) factor solves any other
        # regularization as if it carried none
        top = random_gram("matern12", n=30, seed=7)
        factored = top.factored(Tikhonov(1e-8))
        b = np.sin(np.arange(1.0, 31.0))
        moment_weights(factored, Tikhonov(1e-8), b)  # the factor is taken
        for n in (20, 30):
            for reg in (Tikhonov(1e-6), None, TSVD(1e-3)):
                carried = moment_weights(factored.leading(n), reg, b[:n]).omega
                plain = moment_weights(top.leading(n), reg, b[:n]).omega
                assert np.array_equal(carried, plain)

    def test_unregularized_reciprocal_condition_checked(self):
        # positive definite, so the factorization succeeds, but cond = 1e18
        base = random_gram("gaussian", n=2)
        gram = GramMatrix(values=np.diag([1.0, 1e-18]), spec=base.spec, points=base.points)
        with pytest.raises(SingularGramError, match="reciprocal condition") as err:
            solve(gram, np.ones(2))
        assert err.value.condition == pytest.approx(1e18)
        assert np.all(np.isfinite(solve(gram, np.ones(2), reg=Tikhonov(1e-12)).coefficients))


class TestLanczosTSVD:
    """From LANCZOS_MIN_N points on, TSVD solves use the kept eigenpairs only."""

    N = 2048
    TOLS = (1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0)

    @pytest.fixture(scope="class")
    def system(self):
        # 1-D wendland3 on +-sqrt(3), the system of the TSVD studies
        domain = ParameterDomain.symmetric(math.sqrt(3.0), 1)
        spec = KernelSpec(family="wendland3", dim=1)
        points = halton_points(domain, self.N)
        gram = assemble_gram(spec, points)
        return gram, kernel_moments(spec, points, cc_rule(domain, 7)), eigh(gram.values, driver="evr")

    @staticmethod
    def full_weights(pairs, tol, b):
        # _factorize's TSVD mask and solve, on the full eigendecomposition
        lam, v = pairs
        size = np.abs(lam)
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=size >= tol * size.max())
        return v @ (inv * (v.T @ b))

    @staticmethod
    def fresh(gram, n=None):
        n = gram.n if n is None else n
        return GramMatrix(values=gram.values[:n, :n].copy(), spec=gram.spec, points=gram.points.prefix(n))

    def test_kept_counts_and_weights_match_full_eigh(self, system):
        gram, b, pairs = system
        full = np.abs(pairs[0])
        for tol in self.TOLS:
            lam, _ = gram.tsvd_eigenpairs(tol)
            assert lam.size < self.N  # the Lanczos path, not the fallback
            size = np.abs(lam)
            assert np.sum(size >= tol * size.max()) == np.sum(full >= tol * full.max())
            omega = moment_weights(gram, TSVD(tol), b).omega
            expected = self.full_weights(pairs, tol, b)
            assert np.max(np.abs(omega - expected)) <= 1e-10 * np.max(np.abs(expected), initial=0.0)

    def test_weights_bitwise_repeatable_on_whole_and_leading_blocks(self, system):
        gram, b, _ = system
        top = self.fresh(gram)
        for n in (1024, self.N):
            for tol in (1e-4, 1e-1):
                first = moment_weights(self.fresh(gram, n), TSVD(tol), b[:n]).omega
                again = moment_weights(self.fresh(gram, n), TSVD(tol), b[:n]).omega
                view = moment_weights(top.leading(n), TSVD(tol), b[:n]).omega
                assert np.array_equal(first, again)
                assert np.array_equal(first, view)

    def test_flat_spectrum_falls_back_to_full_eigh_bitwise(self):
        # matern32 in D = 3 keeps every pair at 1e-10, more than any rung holds
        n, tol = 1024, 1e-10
        domain = ParameterDomain.symmetric(math.sqrt(3.0), 3)
        spec = KernelSpec(family="matern32", dim=3)
        points = halton_points(domain, n)
        gram = assemble_gram(spec, points)
        b = kernel_moments(spec, points, cc_rule(domain, 3))
        omega = moment_weights(gram, TSVD(tol), b).omega
        assert gram.tsvd_eigenpairs(tol)[0].size == n
        assert np.array_equal(omega, self.full_weights(eigh(gram.values, driver="evr"), tol, b))

    def test_no_square_eigenvector_array_kept(self, system):
        gram, b, _ = system
        moment_weights(self.fresh(gram), TSVD(1e-3), b)  # the first call imports the eigensolver
        gram = self.fresh(gram)
        square = 8 * self.N * self.N
        tracemalloc.start()
        try:
            moment_weights(gram, TSVD(1e-3), b)
            alive, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert alive < square / 8
        assert peak < square / 4  # a whole C-ordered block is not copied either


class TestLagrange:
    def test_delta_property(self):
        # needs a well-conditioned system (condition well below 1e8)
        gram = random_gram("matern12", n=15, dim=1, seed=8)
        assert condition_report(gram).condition < 1e8
        for j in (0, 7, 14):
            ell = lagrange_values(gram, None, gram.points.points[j])
            expect = np.zeros(15)
            expect[j] = 1.0
            assert np.max(np.abs(ell - expect)) < 1e-8

    def test_partition_like_sum(self):
        # Lagrange values at an interior point sum to roughly one for a
        # kernel with slowly varying profile; sanity bound only.
        gram = random_gram("matern32", n=25, dim=1, seed=9)
        ell = lagrange_values(gram, Tikhonov(1e-12), np.array([0.41]))
        assert 0.5 < float(np.sum(ell)) < 1.5


class TestConditionReport:
    def test_two_point_closed_form(self):
        rep = condition_report(two_point_gram())
        assert abs(rep.condition - COND_2X2) < 1e-13
        assert abs(rep.sigma_max - (1.0 + E1)) < 1e-15
        assert abs(rep.sigma_min - (1.0 - E1)) < 1e-15

    def test_singular_matrix_reports_inf(self):
        from rbfuq import CollocationSet, GramMatrix

        pts = CollocationSet(np.array([[0.0], [0.0]]), source="dup")
        gram = GramMatrix(
            values=np.ones((2, 2)),
            spec=KernelSpec(family="gaussian", dim=1),
            points=pts,
        )
        assert condition_report(gram).condition == np.inf
