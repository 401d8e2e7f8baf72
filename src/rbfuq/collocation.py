"""Gram systems, regularized solves, and kernel interpolants.

The interpolation matrix A[i,j] = k(y_i, y_j) is dense and symmetric.
A plain or Tikhonov-shifted (A + eps_reg I) solve goes through a Cholesky
factorization.  Over a nested point set one factor serves every prefix:
the leading n x n block of the Cholesky factor of A + eps_reg I is the
factor of the first n points' shifted block, so a Gram matrix that is a
leading block can carry the factor of a larger one and solve on its
corner.  Where the factorization breaks down at a leading minor m (the
matrix is not numerically positive definite there), prefixes n < m keep
the factor; an unregularized solve at n >= m raises SingularGramError,
and a shifted one falls back to LU with a warning.  Unregularized solves
also check the reciprocal condition number of their block.  A truncated
solve discards eigenvalues below a relative drop tolerance; a Gram
matrix keeps its symmetric eigendecomposition, so every TSVD tolerance
solved on it shares one.  Multi-channel data is solved channel by
channel against one shared factorization, which makes the result for
each channel independent of how many other channels are solved alongside
it, down to the last bit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, cho_solve, eigh, lu_factor, lu_solve
from scipy.linalg.lapack import dpocon, dpotrf

from .kernels import KernelSpec, kernel_matrix
from .param_space import CollocationSet


class SingularGramError(RuntimeError):
    """Raised when an unregularized Gram system is numerically singular."""

    def __init__(self, message: str, condition: float):
        super().__init__(message)
        self.condition = condition


@dataclass(frozen=True)
class Tikhonov:
    """Shift regularization: solve (A + eps_reg I) alpha = f."""

    eps_reg: float

    def __post_init__(self):
        if not self.eps_reg > 0:
            raise ValueError(f"eps_reg must be positive, got {self.eps_reg}")


@dataclass(frozen=True)
class TSVD:
    """Truncated-SVD regularization.

    Singular values (for the symmetric Gram matrix, the eigenvalue
    moduli) below drop_tol * sigma_max are discarded; the solve applies
    the pseudoinverse of what remains.  The tolerance is relative, so the
    rule is invariant under rescaling of the kernel.
    """

    drop_tol: float

    def __post_init__(self):
        if not self.drop_tol > 0:
            raise ValueError(f"drop_tol must be positive, got {self.drop_tol}")


# A regularization is None (plain solve), Tikhonov, or TSVD.
Regularization = Tikhonov | TSVD | None


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix over a collocation set.

    The pairwise distances are bitwise symmetric with a zero diagonal, so
    the kernel values are too; the diagonal is then set to the kernel's
    value at zero distance.  ``values`` may be a view, such as the
    leading block of a larger Gram matrix over a nested point set; such a
    block may carry ``cholesky``, the shared factor of a larger block,
    which its plain or Tikhonov solves with that factor's shift use.
    """

    values: np.ndarray
    spec: KernelSpec
    points: CollocationSet
    cholesky: _CholFactor | None = field(default=None, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def leading(self, n: int, cholesky: _CholFactor | None = None) -> GramMatrix:
        """The Gram matrix of the first n points, a view of the leading block."""
        return GramMatrix(self.values[:n, :n], self.spec, self.points.prefix(n), cholesky)

    @cached_property
    def eigh(self) -> tuple:
        """(eigenvalues, eigenvectors) of the symmetric matrix, computed once and then kept."""
        return eigh(self.values, driver="evr")


@dataclass(frozen=True)
class ConditionReport:
    sigma_min: float
    sigma_max: float
    condition: float


@dataclass(frozen=True)
class Interpolant:
    """Kernel interpolant s(y) = sum_i coefficients[i, :] k(y, y_i).

    coefficients has shape (N, M) for M output channels.
    """

    coefficients: np.ndarray
    points: CollocationSet
    spec: KernelSpec

    def eval_many(self, queries: np.ndarray) -> np.ndarray:
        """Interpolant values at Q query points, shape (Q, M)."""
        queries = np.asarray(queries, dtype=float)
        if queries.ndim == 1:
            queries = queries[:, None]
        k = kernel_matrix(self.spec, queries, self.points.points)
        return k @ self.coefficients


def assemble_gram(spec: KernelSpec, points: CollocationSet) -> GramMatrix:
    """Assemble the kernel interpolation matrix for a collocation set.

    Duplicate points produce a warning only; the downstream solve may then
    be singular unless regularization is applied.
    """
    pts = points.points
    values = kernel_matrix(spec, pts, pts)  # refuses points of another dimension
    if len(np.unique(pts, axis=0)) < pts.shape[0]:
        warnings.warn(
            "collocation set contains duplicate points; the unregularized "
            "Gram system is singular",
            stacklevel=2,
        )
    np.fill_diagonal(values, float(spec.profile(0.0)))
    return GramMatrix(values=values, spec=spec, points=points)


class _LUFactor:
    """Shared LU factorization of A + shift I with single-vector solves."""

    def __init__(self, values: np.ndarray, shift: float, context: str):
        # one private Fortran-ordered copy, shifted and factored in place
        matrix = np.array(values, order="F")
        matrix[np.diag_indices_from(matrix)] += shift
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LinAlgWarning)
            self._lu = lu_factor(matrix, overwrite_a=True)
        if any(issubclass(w.category, LinAlgWarning) for w in caught):
            shifted = np.array(values)  # error path only; the LU overwrote the first copy
            shifted[np.diag_indices_from(shifted)] += shift
            cond = _singular_extremes(shifted)[2]
            raise SingularGramError(
                f"{context}: Gram matrix is numerically singular "
                f"(condition {cond:.3e}); add regularization or remove "
                "duplicate points",
                condition=cond,
            )

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        return lu_solve(self._lu, rhs)


class _CholFactor:
    """One Cholesky factorization of A + shift I for every leading block of A.

    ``gram`` is the largest block to be solved on.  The factor is taken on
    first use, so it is paid by the first solve, and is kept while this
    object lives.  dpotrf's ``info`` = m > 0 says the leading minor of
    order m is not positive; blocks n < m still solve on the factor.
    """

    def __init__(self, gram: GramMatrix, reg: Tikhonov | None):
        self.reg = reg
        self.shift = 0.0 if reg is None else reg.eps_reg
        kind = "unregularized solve" if reg is None else f"Tikhonov(eps_reg={self.shift:g})"
        self.context = f"{gram.spec.family} {kind}"
        self._gram = gram

    @cached_property
    def _factor(self) -> tuple:
        matrix = np.array(self._gram.values, order="F")  # the factor's own storage
        matrix[np.diag_indices_from(matrix)] += self.shift
        factor, info = dpotrf(matrix, lower=0, clean=0, overwrite_a=1)
        if info > 0 and self.reg is not None:
            warnings.warn(
                f"{self.context}: A + {self.shift:g} I is not positive definite "
                f"(Cholesky breaks down at leading minor {info}); N >= {info} "
                "is solved by LU"
            )
        return factor, info

    def solver(self, gram: GramMatrix):
        """Solver for a leading block of this factor's matrix."""
        factor, info = self._factor
        n = gram.n
        if info == 0 or n < info:
            block = np.asfortranarray(factor[:n, :n])  # no copy when n is the full size
            if self.reg is None:
                self._check_rcond(gram, block)
            return _CholBlock(block)
        if self.reg is None:
            self._singular(gram, f"Cholesky breaks down at leading minor {info}")
        return _LUFactor(gram.values, self.shift, self.context)

    def _check_rcond(self, gram: GramMatrix, block: np.ndarray) -> None:
        rcond, _ = dpocon(block, np.linalg.norm(gram.values, 1))
        if rcond < np.finfo(float).eps:
            self._singular(gram, f"reciprocal condition estimate {rcond:.3e}")

    def _singular(self, gram: GramMatrix, why: str):
        cond = _singular_extremes(gram.values)[2]  # error path only
        raise SingularGramError(
            f"{self.context} at N={gram.n}: Gram matrix is numerically singular "
            f"({why}, condition {cond:.3e}); add regularization or remove "
            "duplicate points",
            condition=cond,
        )


class _CholBlock:
    """Solves with an upper Cholesky factor R, A + shift I = R^T R."""

    def __init__(self, factor: np.ndarray):
        self._factor = factor

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        return cho_solve((self._factor, False), rhs, check_finite=False)


class _TSVDFactor:
    """Truncated pseudoinverse V diag(mask / lambda) V^T from the Gram matrix's eigh."""

    def __init__(self, gram: GramMatrix, drop_tol: float):
        lam, self._v = gram.eigh
        size = np.abs(lam)
        keep = size >= drop_tol * size.max()
        self._inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=keep)

    def solve_vector(self, rhs: np.ndarray) -> np.ndarray:
        return self._v @ (self._inv * (self._v.T @ rhs))


def _factorize(gram: GramMatrix, reg: Regularization):
    """One factorization per (Gram, regularization); shared by all channels.

    A plain or Tikhonov solve uses the factor ``gram`` carries when its
    shift matches, and factors ``gram`` itself otherwise.
    """
    if isinstance(reg, TSVD):
        return _TSVDFactor(gram, reg.drop_tol)
    if reg is not None and not isinstance(reg, Tikhonov):
        raise TypeError(f"unknown regularization {reg!r}")
    factor = gram.cholesky
    if factor is None or factor.reg != reg:
        factor = _CholFactor(gram, reg)
    return factor.solver(gram)


def solve(gram: GramMatrix, data: np.ndarray, reg: Regularization = None) -> Interpolant:
    """Solve the (regularized) Gram system for interpolation coefficients.

    Parameters
    ----------
    gram : GramMatrix
    data : array of shape (N,) or (N, M)
        Sample values per collocation point; M channels are solved one
        column at a time against the shared factorization.
    reg : None, Tikhonov, or TSVD

    Returns
    -------
    Interpolant

    Raises
    ------
    SingularGramError
        If reg is None and the system is numerically singular.
    """
    data = np.asarray(data, dtype=float)
    if data.ndim == 1:
        data = data[:, None]
    if data.shape[0] != gram.n:
        raise ValueError(
            f"data has {data.shape[0]} rows for {gram.n} collocation points"
        )
    factor = _factorize(gram, reg)
    coeffs = np.empty_like(data)
    # Column-wise solves keep each channel bit-identical to a standalone solve.
    for j in range(data.shape[1]):
        coeffs[:, j] = factor.solve_vector(data[:, j])
    return Interpolant(coefficients=coeffs, points=gram.points, spec=gram.spec)


def lagrange_values(gram: GramMatrix, reg: Regularization, z) -> np.ndarray:
    """Values of the N Lagrange basis functions at a point z.

    Returns A_reg^{-1} (k(z, y_1), ..., k(z, y_N)); with z equal to a
    collocation point and no regularization this is a unit vector up to
    conditioning.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    rhs = kernel_matrix(gram.spec, gram.points.points, z)[:, 0]
    return _factorize(gram, reg).solve_vector(rhs)


def _singular_extremes(values: np.ndarray) -> tuple[float, float, float]:
    """Largest and smallest singular values of a symmetric matrix, and their ratio."""
    sv = np.linalg.svd(values, compute_uv=False, hermitian=True)
    smax, smin = float(sv[0]), float(sv[-1])
    return smax, smin, np.inf if smin == 0.0 else smax / smin


def condition_report(gram: GramMatrix) -> ConditionReport:
    """Singular-value extremes of the Gram matrix (diagnostic only)."""
    smax, smin, cond = _singular_extremes(gram.values)
    return ConditionReport(sigma_min=smin, sigma_max=smax, condition=cond)
