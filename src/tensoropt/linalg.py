"""Euclidean geometry induced by a fixed symmetric positive definite operator B.

The primal norm is ``<Bx, x>**0.5`` and the dual norm is ``<s, B^{-1} s>**0.5``.
There are two kinds of operator. The identity bypasses factorization entirely;
a dense operator caches a Cholesky factor B = L Lᵀ at construction. Solver
runs and the exact cubic subsolver work in coordinates where B is the
identity, through ``whiten`` (the congruence L⁻¹ M L⁻ᵀ of a matrix M),
``factor_solve`` (L⁻¹ or L⁻ᵀ applied to a vector or to each row of a matrix:
the rows of a data matrix A become A L⁻ᵀ, so that Aᵀ D A whitens to a product
of the new rows, and run points z map back to L⁻ᵀ z) and ``factor_apply``
(the coordinates z = Lᵀ x); the identity uses the factor I.
``tridiagonal_form`` reduces a Hessian M, once whitened, to T = Qᵀ M Q, and
``apply_q`` applies Q or Qᵀ to a vector. ``inv_sqrt_apply`` applies B^{-1/2}
from an eigendecomposition computed on first use and cached.
``weighted_syrk`` builds α·Aᵀ diag(w) A over the rows of a data matrix A, the
kernel of both data oracles' dense Hessians.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg
from scipy.linalg.blas import dsyrk, dtrmv
from scipy.linalg.lapack import dormqr, dpotrs, dsygst, dsytrd, dsytrd_lwork, dtrtrs

SYM_TOL = 1e-10

# Entries (2 MB) of the blocks in which ``factor_solve`` takes the rows of an
# m×n data matrix. In one call over all rows, a triangular solve with m
# right-hand sides left about 7.5 MB more BLAS workspace resident at m = 3000,
# n = 500 than blocks of this size did.
BLOCK_ENTRIES = 2**18

# Entries (256 KB, inside a core's L2 cache) of the one buffer into which
# ``weighted_syrk`` scales a block of data rows before their syrk. At m = 3000,
# n = 500 on one BLAS thread (2 vCPUs, OpenBLAS 0.3.31 Haswell kernels), 12
# interleaved rounds took a median of 18.1, 17.4, 17.4, 18.9 and 19.9 ms per
# smoothed-max Hessian with blocks of 2**14 to 2**18 entries, against 27–29 ms
# for a fresh 2**18-entry block per step and a mirrored upper triangle.
SYRK_BLOCK_ENTRIES = 2**15


def weighted_syrk(A: np.ndarray, w: np.ndarray, alpha: float) -> np.ndarray:
    """α·Aᵀ diag(w) A, for an m×n C-ordered A and weights w ≥ 0, in the lower triangle
    of a new Fortran-ordered matrix whose strict upper triangle is zero. One sweep
    over A scales a block of rows by √w at a time into one reused buffer of
    ``SYRK_BLOCK_ENTRIES`` entries, which stays in cache, for the block's ``dsyrk``."""
    m, n = A.shape
    rows = min(m, max(1, SYRK_BLOCK_ENTRIES // n))
    buf = np.empty((rows, n))
    out = np.zeros((n, n), order="F")
    for i in range(0, m, rows):
        S = buf[:min(rows, m - i)]
        np.multiply(A[i:i + rows], np.sqrt(w[i:i + rows])[:, None], out=S)
        # Sᵀ is the Fortran-ordered view of the C-ordered S, which BLAS reads in place
        out = dsyrk(alpha, S.T, beta=1.0, c=out, lower=1, overwrite_c=1)
    return out


class FactorizationError(RuntimeError):
    """The operator is numerically singular; the induced dual norm is ill posed."""


class NormOperator:
    """Fixed SPD operator defining a primal/dual norm pair.

    Immutable after construction and safe to share across concurrent solver
    runs. Use the ``identity`` / ``dense`` / ``gram`` constructors rather
    than ``__init__``; a diagonal B is ``dense(np.diag(d))``.
    """

    def __init__(self, kind: str, dim: int, matrix=None, chol=None):
        self.kind = kind
        self.dim = int(dim)
        self._matrix = matrix
        self._chol = chol
        self._eig = None  # lazy (w, Q) of the dense matrix

    @classmethod
    def identity(cls, dim: int) -> "NormOperator":
        if dim < 1:
            raise ValueError("dimension must be positive")
        return cls("identity", dim)

    @classmethod
    def dense(cls, matrix) -> "NormOperator":
        B = np.asarray(matrix, dtype=float)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("operator matrix must be square")
        scale = max(1.0, float(np.abs(B).max()))
        if np.abs(B - B.T).max() > SYM_TOL * scale:
            raise ValueError("operator matrix must be symmetric")
        B = 0.5 * (B + B.T)
        try:
            chol = scipy.linalg.cho_factor(B, lower=True)[0]
        except scipy.linalg.LinAlgError as exc:
            raise FactorizationError(
                "operator is not positive definite; regularize or reduce dimension"
            ) from exc
        return cls("dense", B.shape[0], matrix=B, chol=chol)

    @classmethod
    def gram(cls, rows) -> "NormOperator":
        """Operator sum_i a_i a_i^T built from the rows a_i of a data matrix."""
        A = np.asarray(rows, dtype=float)
        return cls.dense(A.T @ A)

    def _check_dim(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise ValueError(f"expected vector of dimension {self.dim}, got shape {x.shape}")
        return x

    def apply(self, x) -> np.ndarray:
        """B x (primal -> dual)."""
        x = self._check_dim(x)
        if self.kind == "identity":
            return x.copy()
        return self._matrix @ x

    def apply_and_primal(self, x):
        """(B x, ||x||) from one application of B; the norm equals ``primal(x)``."""
        bx = self.apply(x)
        return bx, math.sqrt(max(0.0, float(bx.dot(x))))

    def solve(self, s) -> np.ndarray:
        """B^{-1} s (dual -> primal)."""
        s = self._check_dim(s)
        if self.kind == "identity":
            return s.copy()
        # the LAPACK routine scipy.linalg.cho_solve runs, without its per-call
        # dispatch and finiteness checks on the (finite) factor
        if not np.isfinite(s).all():
            raise ValueError("right-hand side must not contain infs or NaNs")
        x, info = dpotrs(self._chol, s, lower=1)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of dpotrs")
        return x

    def whiten(self, A) -> np.ndarray:
        """L⁻¹ A L⁻ᵀ for the factor L of B = L Lᵀ, computed over ``A``.

        ``A`` is a matrix the caller owns, and it is overwritten: a Fortran-ordered
        one of which only the lower triangle is read, or a symmetric C-ordered
        one. Only the lower triangle of the result is meaningful, the triangle
        LAPACK's ``dsytrd`` reduces with ``lower=1`` from the Fortran-ordered
        result that a Fortran-ordered ``A`` gives. Raises ``LinAlgError`` on a
        non-finite entry in that triangle, which LAPACK would not check.
        """
        _check_lower_finite(A)
        if self.kind == "identity":
            return A
        # a symmetric C-ordered A is its own transpose in Fortran order, which
        # LAPACK overwrites instead of copying
        F = A if A.flags.f_contiguous else A.T
        C, info = dsygst(F, self._chol, itype=1, lower=1, overwrite_a=1)
        if info != 0:
            raise np.linalg.LinAlgError(f"illegal value in argument {-info} of dsygst")
        return C

    def factor_solve(self, X, trans: bool = False) -> np.ndarray:
        """L⁻¹ x, or L⁻ᵀ x when ``trans``, for the factor L of ``whiten``; on a k×n
        matrix, the same map on each row. The rows are solved as the columns of
        Xᵀ, a block of ``BLOCK_ENTRIES`` entries at a time, and returned C-ordered."""
        X = np.asarray(X, dtype=float)
        if X.ndim not in (1, 2) or X.shape[-1] != self.dim:
            raise ValueError(f"expected a vector or rows of dimension {self.dim}, "
                             f"got shape {X.shape}")
        if not np.isfinite(X).all():
            raise np.linalg.LinAlgError("input must not contain infs or NaNs")
        if self.kind == "identity":
            return X.copy()
        cols = np.array(X.reshape(-1, self.dim).T, order="F")
        step = max(1, BLOCK_ENTRIES // self.dim)
        for i in range(0, cols.shape[1], step):
            _, info = dtrtrs(self._chol, cols[:, i:i + step], lower=1, trans=int(trans),
                             overwrite_b=1)
            if info != 0:
                raise np.linalg.LinAlgError(f"dtrtrs failed with info {info}")
        return cols.T.reshape(X.shape)

    def factor_apply(self, x) -> np.ndarray:
        """Lᵀ x for the factor L of ``whiten``: the coordinates z = Lᵀ x in which
        ``primal`` is the Euclidean norm, ``factor_solve(z, trans=True)`` their inverse."""
        x = self._check_dim(x)
        if self.kind == "identity":
            return x.copy()
        return dtrmv(self._chol, x, lower=1, trans=1)

    def primal(self, x) -> float:
        x = self._check_dim(x)
        if self.kind == "identity":
            # np.linalg.norm computes exactly this, behind a costly dispatch
            return math.sqrt(x.dot(x))
        return float(np.sqrt(max(0.0, float(np.dot(self._matrix @ x, x)))))

    def dual(self, s) -> float:
        s = self._check_dim(s)
        if self.kind == "identity":
            return math.sqrt(s.dot(s))
        return float(np.sqrt(max(0.0, float(np.dot(self.solve(s), s)))))

    def _dense_eig(self):
        if self._eig is None:
            # the divide-and-conquer driver: less workspace than np.linalg.eigh
            w, Q = scipy.linalg.eigh(self._matrix, driver="evd")
            if w[0] <= 0:
                raise FactorizationError("operator has nonpositive eigenvalues")
            self._eig = (w, Q)
        return self._eig

    def inv_sqrt_apply(self, x) -> np.ndarray:
        """B^{-1/2} x, for vectors or matrices (applied on the left)."""
        if self.kind == "identity":
            return np.array(x, dtype=float)
        w, Q = self._dense_eig()
        return Q @ ((Q.T @ np.asarray(x, dtype=float)).T / np.sqrt(w)).T


def _check_lower_finite(M: np.ndarray) -> None:
    """Raise ``LinAlgError`` unless the lower triangle of M is finite."""
    # a finite matrix, the usual case, passes the first scan and copies nothing
    if not np.isfinite(M).all() and not np.isfinite(np.tril(M)).all():
        raise np.linalg.LinAlgError("matrix must not contain infs or NaNs")


def tridiagonal_form(M: np.ndarray):
    """(d, e, V, tau) of M = Q T Qᵀ, from LAPACK ``dsytrd`` on the lower triangle
    of the Fortran-ordered M, which it overwrites. T has diagonal d and
    off-diagonal e; Q = diag(1, Q'), Q' the QR factor of the reflectors (V, tau)
    below M's subdiagonal. The strict upper triangle of M is not read. Raises
    ``LinAlgError`` on a non-finite entry in the lower one, which LAPACK would
    not check."""
    _check_lower_finite(M)
    lwork = int(dsytrd_lwork(M.shape[0], lower=1)[0])
    C, d, e, tau, info = dsytrd(M, lower=1, lwork=lwork, overwrite_a=1)
    if info != 0:
        raise np.linalg.LinAlgError(f"illegal value in argument {-info} of dsytrd")
    return d, e, np.asfortranarray(C[1:, :-1]), tau


def apply_q(V: np.ndarray, tau: np.ndarray, x: np.ndarray, trans: bool) -> np.ndarray:
    """Q x, or Qᵀ x when ``trans``, for the reduction of ``tridiagonal_form``."""
    y = x.copy()
    if tau.size:  # a 1×1 matrix has Q = I and no reflectors
        y[1:] = dormqr("L", "T" if trans else "N", V, tau, x[1:, None], 1)[0][:, 0]
    return y


def sym_eig(A, tol: float = SYM_TOL):
    """Eigendecomposition of a symmetric matrix.

    Returns eigenvalues ascending and an orthonormal eigenvector matrix V
    with A = V diag(w) V^T. Raises ValueError if A is not symmetric within
    a relative tolerance.
    """
    A = np.asarray(A, dtype=float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("matrix must be square")
    scale = max(1.0, float(np.abs(A).max()))
    if np.abs(A - A.T).max() > tol * scale:
        raise ValueError("matrix is not symmetric within tolerance")
    w, V = np.linalg.eigh(0.5 * (A + A.T))
    return w, V
