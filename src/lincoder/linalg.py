"""Dense linear-algebra kernel shared by the higher-level modules.

Small dense matrices: the routines favour strict validation and verifiable
contracts over asymptotic performance.  All functions are pure,
accept anything array-like, and return fresh float64 arrays.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np
import scipy.linalg

from .errors import NoEquilibriumError, NotPositiveDefiniteError

#: Largest accepted asymmetry max|S - S^T|, relative to max(1, max|S|).
SYMMETRY_TOL = 1e-9
#: Smallest accepted min|lambda_i + lambda_j| over eigenvalue pairs of the
#: drift, relative to norm1(A).  Below it A and -A^T share an eigenvalue (to
#: working precision) and the Lyapunov equation has no unique solution.
LYAPUNOV_SEPARATION_RTOL = 1e-12


def as_matrix(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D float array."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must be non-empty")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def as_square(value, name: str = "matrix") -> np.ndarray:
    arr = as_matrix(value, name)
    if arr.shape[0] != arr.shape[1]:
        raise ValueError(f"{name} must be square, got shape {arr.shape}")
    return arr


def as_vector(value, name: str = "vector") -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-dimensional, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def check_symmetric(arr: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject asymmetry beyond SYMMETRY_TOL, then return (S + S^T)/2."""
    gap = max_abs(arr - arr.T)
    if gap > SYMMETRY_TOL * max(1.0, max_abs(arr)):
        raise ValueError(f"{name} is not symmetric (max asymmetry {gap:.3e})")
    return 0.5 * (arr + arr.T)


def mat_exp(matrix, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(matrix * t).

    Evaluated by scaling-and-squaring with Pade approximants (order 13 at
    the largest scalings), accurate to ~1e-10 relative for norm(M t) <= 10.
    """
    arr = as_square(matrix)
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time argument must be finite")
    return scipy.linalg.expm(arr * t)


class SymmetricEigen(NamedTuple):
    """Eigendecomposition of a symmetric matrix.

    ``values`` are sorted descending; column i of ``vectors`` pairs with
    ``values[i]`` and the columns are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(matrix) -> SymmetricEigen:
    """Eigenpairs of a symmetric matrix, eigenvalues sorted descending.

    max|Q^T Q - I| <= 1e-10 and max|Q diag(w) Q^T - S| <= 1e-8 * max(1, max|S|).
    """
    sym = check_symmetric(as_square(matrix))
    values, vectors = np.linalg.eigh(sym)
    return SymmetricEigen(values[::-1].copy(), vectors[:, ::-1].copy())


def lyapunov_solve(a, noise) -> np.ndarray:
    """Equilibrium W of the continuous-time Lyapunov equation.

    Solves A W + W A^T + N = 0 by the Bartels-Stewart method (Schur
    decomposition of A) and symmetrizes the result; the residual
    max|A W + W A^T + N| stays within 1e-8 * max(1, max|N|).

    Raises NoEquilibriumError when A and -A^T share an eigenvalue, i.e.
    min|lambda_i + lambda_j| <= LYAPUNOV_SEPARATION_RTOL * norm1(A), so no
    unique equilibrium exists.
    """
    arr = as_square(a, "drift matrix")
    sym = check_symmetric(as_square(noise, "noise matrix"), "noise matrix")
    if sym.shape[0] != arr.shape[0]:
        raise ValueError("drift and noise matrices must have the same size")
    eigs = np.linalg.eigvals(arr)
    separation = float(np.min(np.abs(eigs[:, None] + eigs[None, :])))
    if separation <= LYAPUNOV_SEPARATION_RTOL * float(np.linalg.norm(arr, 1)):
        raise NoEquilibriumError(
            "no unique equilibrium: drift and its negative transpose share an eigenvalue"
        )
    w = scipy.linalg.solve_continuous_lyapunov(arr, -sym)
    return 0.5 * (w + w.T)


def logdet_psd(matrix) -> float:
    """log det of a symmetric positive definite matrix via Cholesky."""
    sym = check_symmetric(as_square(matrix))
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
