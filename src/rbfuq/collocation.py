"""Gram systems, regularized solves, and kernel interpolants.

The interpolation matrix A[i,j] = k(y_i, y_j) is dense and symmetric.
Each factorization is one object, which hands out the solve function of
a block.  A plain or Tikhonov-shifted (A + eps_reg I) solve asks one
Cholesky factor object.  Over a nested point set one factor serves every
prefix: the leading n x n block of the Cholesky factor of A + eps_reg I
is the factor of the first n points' shifted block, so a Gram matrix
that carries a factor (``GramMatrix.factored``) hands it to its leading
blocks, which solve on its corner.  The factor object also owns what
happens where the factorization breaks down at a leading minor m (the
matrix is not numerically positive definite there): prefixes n < m keep
the factor; an unregularized solve at n >= m raises SingularGramError,
and a shifted one falls back to LU with a warning.  Unregularized solves
also check the reciprocal condition number of their block.  A truncated
solve discards eigenvalues below a relative drop tolerance, so it needs
only the eigenpairs of largest modulus: from LANCZOS_MIN_N points on they
come from ARPACK's Lanczos iteration for 32, 64, ... pairs, and a block
whose spectrum is too flat for that (or any smaller block) takes the full
symmetric eigendecomposition.  A Gram matrix keeps each of these, so
every TSVD tolerance solved on it shares them.  Multi-channel data is
solved channel by channel against one shared factorization, which makes
the result for each channel independent of how many other channels are
solved alongside it, down to the last bit.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.linalg import LinAlgWarning, cho_solve, eigh, lu_factor, lu_solve
from scipy.linalg.blas import dsymv
from scipy.linalg.lapack import dpocon, dpotrf

from ._checks import _real
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
        object.__setattr__(self, "eps_reg", _real(self.eps_reg, "eps_reg", positive=True))


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
        object.__setattr__(self, "drop_tol", _real(self.drop_tol, "drop_tol", positive=True))


# A regularization is None (plain solve), Tikhonov, or TSVD.
Regularization = Tikhonov | TSVD | None

# TSVD blocks of at least this many points try Lanczos before the full eigh.
# Measured on 1-D wendland3 over +-sqrt(3) (2 CPUs, OpenBLAS 0.3.31): the
# full eigh takes 0.05 s at N = 512, 0.22 s at 1024 and 1.2-1.4 s at 2048;
# the 32 leading pairs take 0.02 s at 1024 and 0.06-0.08 s at 2048.  Below
# 1024 the saving is at most tens of milliseconds, so those blocks keep the
# full eigh.
LANCZOS_MIN_N = 1024


@dataclass(frozen=True)
class GramMatrix:
    """Dense symmetric kernel matrix over a collocation set.

    The pairwise distances are bitwise symmetric with a zero diagonal, so
    the kernel values are too: ``assemble_gram`` evaluates each pair once
    and mirrors it, which gives bitwise the matrix of evaluating both.
    The diagonal is then set to the kernel's value at zero distance.
    ``values`` may be a view, such as the leading block of a larger Gram
    matrix over a nested point set; such a block keeps ``cholesky``, the
    factor of the larger one (``factored``), which its plain or Tikhonov
    solves with that factor's regularization use.  The eigenpairs its
    TSVD solves use are computed once and kept.
    """

    values: np.ndarray
    spec: KernelSpec
    points: CollocationSet
    cholesky: _CholFactor | None = field(default=None, repr=False, compare=False)
    # each set of pairs computed so far: under k the k Lanczos pairs (None if
    # ARPACK did not converge), under the key None the full eigh
    _eigenpairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    def leading(self, n: int) -> GramMatrix:
        """The Gram matrix of the first n points, a view of the leading block, with this one's factor."""
        return GramMatrix(self.values[:n, :n], self.spec, self.points.prefix(n), self.cholesky)

    def factored(self, reg: Tikhonov | None) -> GramMatrix:
        """This Gram matrix carrying one Cholesky factor of A + eps_reg I for it and its leading blocks.

        The factor is taken by the first plain or Tikhonov solve with ``reg``
        and is freed with the last Gram matrix that carries it.
        """
        return GramMatrix(self.values, self.spec, self.points, _CholFactor(self, reg))

    def tsvd_eigenpairs(self, drop_tol: float) -> tuple:
        """(eigenvalues, eigenvectors) holding every pair with |lambda| >= drop_tol * max |lambda|.

        From LANCZOS_MIN_N points on, the k = 32, 64, ... pairs of largest
        modulus are tried while 32 k <= N.  The first k whose smallest
        modulus falls below the threshold holds every pair the threshold
        keeps, since each pair left out is smaller still.  Otherwise, and
        below LANCZOS_MIN_N, this is the full eigendecomposition.  Each set
        is computed once and kept, so the pairs a tolerance gets depend on
        the block and the tolerance only, never on which tolerances were
        solved before it.
        """
        k = 32
        while self.n >= LANCZOS_MIN_N and 32 * k <= self.n:
            pairs = self._pairs(k)
            if pairs is None:
                break
            size = np.abs(pairs[0])
            if size.min() < drop_tol * size.max():
                return pairs
            k *= 2
        return self._pairs(None)

    def _pairs(self, k: int | None) -> tuple | None:
        """The k Lanczos pairs, or with k None the full eigh, computed on first use."""
        if k not in self._eigenpairs:
            self._eigenpairs[k] = eigh(self.values, driver="evr") if k is None else _lanczos(self.values, k)
        return self._eigenpairs[k]


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


# Entries per row block of the Gram matrix's upper triangle.  On a 2-CPU
# Xeon, against evaluating every pair: wendland3 43 ms instead of 59 ms in
# 1-D at N = 2048, 196 instead of 278 ms in D = 3 at N = 4096, where the
# cheap gaussian and wendland0 profiles break even.  Blocks of 2^15
# entries were up to 25% slower for those, and 2^19 slower for all.
_GRAM_BLOCK_ENTRIES = 2 ** 17


def assemble_gram(spec: KernelSpec, points: CollocationSet) -> GramMatrix:
    """Assemble the kernel interpolation matrix for a collocation set.

    Each pair is evaluated once.  The matrix is filled by blocks of rows
    [s, e) against the columns from s on, about ``_GRAM_BLOCK_ENTRIES``
    entries each: a block goes in as it is, and its part right of the
    diagonal block goes in transposed below it.  The pairwise distances
    are bitwise symmetric, so this is bitwise the matrix of evaluating
    every pair, at about half the kernel evaluations, and the only
    temporaries beside the matrix are one block's.  Duplicate points
    produce a warning only; the downstream solve may then be singular
    unless regularization is applied.
    """
    pts = points.points
    n = pts.shape[0]
    values = np.empty((n, n))
    s = 0
    while s < n:
        e = min(n, s + max(1, _GRAM_BLOCK_ENTRIES // (n - s)))
        block = kernel_matrix(spec, pts[s:e], pts[s:])  # refuses points of another dimension
        values[s:e, s:] = block
        values[e:, s:e] = block[:, e - s :].T
        s = e
    if len(np.unique(pts, axis=0)) < pts.shape[0]:
        warnings.warn(
            "collocation set contains duplicate points; the unregularized "
            "Gram system is singular",
            stacklevel=2,
        )
    np.fill_diagonal(values, float(spec.profile(0.0)))
    return GramMatrix(values=values, spec=spec, points=points)


class _CholFactor:
    """One Cholesky factorization of A + shift I, and the solves of A's leading blocks.

    ``gram`` is the largest block to be solved on.  The factor is taken on
    first use, so it is paid by the first solve, and is kept while this
    object lives.  dpotrf's ``info`` = m > 0 says the leading minor of
    order m is not positive; blocks n < m still solve on the factor, and
    from m on a plain solve is singular and a shifted one is solved by LU.
    """

    def __init__(self, gram: GramMatrix, reg: Tikhonov | None):
        self.reg = reg
        self.shift = 0.0 if reg is None else reg.eps_reg
        kind = "unregularized solve" if reg is None else f"Tikhonov(eps_reg={self.shift:g})"
        self.context = f"{gram.spec.family} {kind}"
        self._values = gram.values

    @cached_property
    def _factor(self) -> tuple:
        factor, info = dpotrf(_shifted(self._values, self.shift), lower=0, clean=0, overwrite_a=1)
        if info > 0 and self.reg is not None:
            warnings.warn(
                f"{self.context}: A + {self.shift:g} I is not positive definite "
                f"(Cholesky breaks down at leading minor {info}); N >= {info} "
                "is solved by LU"
            )
        return factor, info

    def solver(self, gram: GramMatrix):
        """The solve function of a leading block of this factor's matrix."""
        factor, info = self._factor
        n = gram.n
        if info == 0 or n < info:
            block = np.asfortranarray(factor[:n, :n])  # no copy when n is the full size
            if self.reg is None:
                rcond, _ = dpocon(block, np.linalg.norm(gram.values, 1))
                if rcond < np.finfo(float).eps:
                    self._singular(gram, f"reciprocal condition estimate {rcond:.3e}")
            return lambda rhs: cho_solve((block, False), rhs, check_finite=False)
        if self.reg is None:
            self._singular(gram, f"Cholesky breaks down at leading minor {info}")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", LinAlgWarning)
            lu = lu_factor(_shifted(gram.values, self.shift), overwrite_a=True)
        if any(issubclass(w.category, LinAlgWarning) for w in caught):
            self._singular(gram, "zero pivot in LU")
        return lambda rhs: lu_solve(lu, rhs)

    def _singular(self, gram: GramMatrix, why: str):
        cond = _singular_extremes(_shifted(gram.values, self.shift))[2]  # error path only
        raise SingularGramError(
            f"{self.context} at N={gram.n}: Gram matrix is numerically singular "
            f"({why}, condition {cond:.3e}); add regularization or remove "
            "duplicate points",
            condition=cond,
        )


def _shifted(values: np.ndarray, shift: float) -> np.ndarray:
    """A + shift I in a private Fortran-ordered copy, for LAPACK to overwrite.

    A is bitwise symmetric, so the copy of A^T is bitwise A, and a plain
    memory copy when A is C-contiguous.
    """
    matrix = np.array(values.T, order="F")
    matrix[np.diag_indices_from(matrix)] += shift
    return matrix


def _lanczos(values: np.ndarray, k: int) -> tuple | None:
    """The k eigenpairs of largest modulus by ARPACK's Lanczos, or None if it does not converge.

    Largest modulus, not largest value, because the TSVD mask is on
    |lambda|.  The start vector is fixed (ARPACK's default is random), so a
    block gives bitwise the same pairs on every call.  Products read one
    triangle through dsymv, from a contiguous copy where the block is a
    view: for matern32 in D = 3 at N = 2048, 32 and then 64 pairs took
    0.25-0.33 s this way and 0.69-0.86 s with eigsh on the array itself.
    """
    # scipy.sparse.linalg adds about 20 ms to the import, and only large TSVD blocks need it
    from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

    n = values.shape[0]
    matrix = np.asfortranarray(values.T)  # values is symmetric; no copy when it is C-contiguous
    product = LinearOperator((n, n), matvec=lambda x: dsymv(1.0, matrix, x), dtype=float)
    try:
        return eigsh(product, k, which="LM", v0=np.ones(n), tol=0)
    except ArpackNoConvergence:
        return None


def _factorize(gram: GramMatrix, reg: Regularization):
    """The solve function of one factorization per (Gram, regularization), shared by all channels.

    A TSVD solve applies the truncated pseudoinverse V diag(mask / lambda)
    V^T of the Gram matrix's kept eigenpairs.  A plain or Tikhonov solve
    uses the factor ``gram`` carries when its regularization matches, and
    factors ``gram`` itself otherwise.
    """
    if isinstance(reg, TSVD):
        lam, v = gram.tsvd_eigenpairs(reg.drop_tol)
        size = np.abs(lam)
        inv = np.divide(1.0, lam, out=np.zeros_like(lam), where=size >= reg.drop_tol * size.max())
        return lambda rhs: v @ (inv * (v.T @ rhs))
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
    solve_block = _factorize(gram, reg)
    coeffs = np.empty_like(data)
    # Column-wise solves keep each channel bit-identical to a standalone solve.
    for j in range(data.shape[1]):
        coeffs[:, j] = solve_block(data[:, j])
    return Interpolant(coefficients=coeffs, points=gram.points, spec=gram.spec)


def lagrange_values(gram: GramMatrix, reg: Regularization, z) -> np.ndarray:
    """Values of the N Lagrange basis functions at a point z.

    Returns A_reg^{-1} (k(z, y_1), ..., k(z, y_N)); with z equal to a
    collocation point and no regularization this is a unit vector up to
    conditioning.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    rhs = kernel_matrix(gram.spec, gram.points.points, z)[:, 0]
    return _factorize(gram, reg)(rhs)


def _singular_extremes(values: np.ndarray) -> tuple[float, float, float]:
    """Largest and smallest singular values of a symmetric matrix, and their ratio."""
    sv = np.linalg.svd(values, compute_uv=False, hermitian=True)
    smax, smin = float(sv[0]), float(sv[-1])
    return smax, smin, np.inf if smin == 0.0 else smax / smin


def condition_report(gram: GramMatrix) -> ConditionReport:
    """Singular-value extremes of the Gram matrix (diagnostic only)."""
    smax, smin, cond = _singular_extremes(gram.values)
    return ConditionReport(sigma_min=smin, sigma_max=smax, condition=cond)
