"""Dense linear-algebra kernel shared by the higher-level modules.

Small dense matrices: the routines favour strict validation and verifiable
contracts over asymptotic performance.  All functions are pure,
accept anything array-like, and return fresh float64 arrays.
"""

from __future__ import annotations

import math
from contextlib import suppress
from typing import NamedTuple

import numpy as np

from .errors import NoEquilibriumError, NotPositiveDefiniteError

#: Largest accepted asymmetry max|S - S^T|, relative to max(1, max|S|).
SYMMETRY_TOL = 1e-9
#: Eigenvalue real parts must be below -HURWITZ_RTOL * norm1(A) for A to count as stable.
HURWITZ_RTOL = 1e-10
#: Most sign-iteration steps of the Lyapunov solve (random Hurwitz drifts take 2-8).
LYAPUNOV_MAX_STEPS = 100
#: Bytes of each slice of a matrix stack that the exponential works on.
_EXP_CHUNK_BYTES = 1 << 16
#: Bound theta_13 on the power norms d_k = ||A^k||^(1/k) up to which the
#: degree-13 Pade approximant is exact to double precision (Al-Mohy &
#: Higham 2009, Table 3.1).
_PADE_THETA13 = 4.25
#: Coefficients b_j / b_0 of the degree-13 approximant, b_j = (26 - j)! /
#: (j! (13 - j)!).  With b_0 = 1 the approximant of A = 0 is exactly I:
#: LAPACK solves b_0 I X = b_0 I through the reciprocal pivot, which for the
#: raw b_0 = 26!/13! leaves 1 - 1.1e-16 on the diagonal.
_PADE_COEFFICIENTS = tuple(
    math.factorial(26 - j) * math.factorial(13)
    / (math.factorial(j) * math.factorial(13 - j) * math.factorial(26))
    for j in range(14)
)
#: log2 of 1/|c_27| = 26! 27! / (13!)^2, the reciprocal leading coefficient
#: of the Pade error exp(x) - r_13(x).
_PADE_LOG2_ERROR_RECIPROCAL = math.log2(
    math.factorial(26) * math.factorial(27) / math.factorial(13) ** 2
)


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
    """Reject asymmetry beyond SYMMETRY_TOL, then return (S + S^T)/2.

    Works on one matrix or a stack (..., n, n); the tolerance is relative to
    each matrix's own max|S|.
    """
    flipped = arr.swapaxes(-1, -2)
    gap = np.max(np.abs(arr - flipped), axis=(-2, -1))
    if np.any(gap > SYMMETRY_TOL * np.maximum(1.0, np.max(np.abs(arr), axis=(-2, -1)))):
        raise ValueError(f"{name} is not symmetric (max asymmetry {float(np.max(gap)):.3e})")
    return 0.5 * (arr + flipped)


def _as_square_stack(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float stack (..., n, n) of non-empty square matrices."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _squarings(a: np.ndarray, a4, a6, a8) -> np.ndarray:
    """Squaring count s of each matrix A of a stack (m, n, n) for the degree-13 approximant.

    a4, a6 and a8 are the powers A^4, A^6 and A^8 of the stack.

    Al-Mohy & Higham 2009, Algorithm 5.1, at degree 13 only, with exact
    1-norms.  The scaling follows the norms of powers, d_k = ||A^k||^(1/k),
    rather than ||A||.  That avoids overscaling, and the rounding the extra
    squarings would amplify, when ||A|| far exceeds the spectral radius, as
    in the augmented block of a nearly driftless system.  The correction
    ell(A, 13) = ceil(log2(alpha / u) / 26), with alpha = |c_27|
    ||(|A|)^27|| / ||A|| and u = 2^-53, adds squarings where rounding in the
    Pade evaluation of a highly non-normal matrix would dominate.
    ||(|A|)^27|| is the largest entry of 1^T (|A| / ||A||)^27 times
    ||A||^27, taken by vector products so that huge norms cannot overflow.
    """
    count = len(a)
    power_norms = np.linalg.norm(np.concatenate((a, a6, a8, a4 @ a6)), 1, axis=(1, 2))
    exponents = 1.0 / np.array([[1.0], [6.0], [8.0], [10.0]])
    norms, d6, d8, d10 = power_norms.reshape(4, count) ** exponents
    # d_k <= ||A||, which also stands in for a power norm that overflowed.
    eta5 = np.fmin(np.minimum(np.maximum(d6, d8), np.maximum(d8, d10)), norms)
    unit = np.abs(a) / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis, np.newaxis]
    unit2 = unit @ unit
    unit4 = unit2 @ unit2
    row = np.ones((count, 1, a.shape[-1])) @ unit @ unit2
    for _ in range(6):
        row = row @ unit4
    with np.errstate(divide="ignore"):
        log_alpha = 26 * np.log2(norms) + np.log2(row.max(axis=(1, 2)))
        ell = np.ceil((log_alpha - _PADE_LOG2_ERROR_RECIPROCAL + 53.0) / 26)
        # Scaling by 2^-s lowers log2(alpha) by 26 s, so ell(2^-s A, 13) = ell - s.
        squarings = np.maximum(np.ceil(np.log2(eta5 / _PADE_THETA13)), ell)
    return np.maximum(squarings, 0.0).astype(int)


def _pade(a: np.ndarray, a2, a4, a6):
    """Numerator and denominator of the degree-13 Pade approximant of exp for a stack.

    Higham's grouping of the products, with the coefficients scaled to b_0 = 1.
    """
    b = _PADE_COEFFICIENTS
    eye = np.eye(a.shape[-1])
    odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4
    u = a @ (odd + b[3] * a2 + b[1] * eye)
    even = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4
    v = even + b[2] * a2 + eye
    return v + u, v - u


def _exp_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (m, n, n), which it overwrites."""
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        squarings = _squarings(a, a4, a6, a4 @ a4)
        if squarings.any():
            scale = (0.5**squarings)[:, np.newaxis, np.newaxis]
            for k, power in enumerate((a, a2, a4, a6)):
                power *= scale ** max(1, 2 * k)
            # A power that overflowed before scaling is inf, and inf * 2^-2ks
            # is NaN: form those matrices' powers again from the scaled A.
            lost = np.flatnonzero(~np.isfinite(a6).all(axis=(1, 2)))
            if lost.size:
                a2[lost] = a[lost] @ a[lost]
                a4[lost] = a2[lost] @ a2[lost]
                a6[lost] = a4[lost] @ a2[lost]
        numerator, denominator = _pade(a, a2, a4, a6)
    out = np.linalg.solve(denominator, numerator)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(squarings.max(initial=0))):
            picked = np.flatnonzero(squarings > step)
            out[picked] = out[picked] @ out[picked]
    return out


def mat_exp(matrix) -> np.ndarray:
    """Matrix exponential of one matrix or of a stack (..., n, n).

    Scaling and squaring with the degree-13 Pade approximant (Higham 2005,
    SIAM J. Matrix Anal. Appl. 26(4); scaling chosen as in Al-Mohy & Higham
    2009, ibid. 31(3)).  The squaring count is chosen per matrix, and each
    matrix is squared only its own number of times, so a matrix's result
    does not depend on the rest of its stack.  Stacks go through in slices
    of _EXP_CHUNK_BYTES, which keeps the temporaries small and changes no
    result.  The caller's array is never written to.
    """
    arr = _as_square_stack(matrix)
    n = arr.shape[-1]
    a = arr.reshape(-1, n, n).copy()
    size = max(1, _EXP_CHUNK_BYTES // (a.itemsize * n * n))
    chunks = [_exp_stack(a[i : i + size]) for i in range(0, max(len(a), 1), size)]
    return np.concatenate(chunks).reshape(arr.shape)


class SymmetricEigen(NamedTuple):
    """Eigendecomposition of a symmetric matrix or of a stack of them.

    ``values`` are sorted descending along the last axis; column i of
    ``vectors`` pairs with ``values[..., i]`` and the columns are orthonormal.
    """

    values: np.ndarray
    vectors: np.ndarray


def sym_eig(matrix) -> SymmetricEigen:
    """Eigenpairs of a symmetric matrix or stack (..., n, n), eigenvalues descending.

    max|Q^T Q - I| <= 1e-10 and max|Q diag(w) Q^T - S| <= 1e-8 * max(1, max|S|).
    """
    values, vectors = np.linalg.eigh(check_symmetric(_as_square_stack(matrix)))
    return SymmetricEigen(values[..., ::-1].copy(), vectors[..., ::-1].copy())


def is_hurwitz(matrix) -> bool:
    """True when every eigenvalue real part is below -HURWITZ_RTOL * norm1(A); never for A = 0."""
    return bool(np.max(np.linalg.eigvals(matrix).real) < -HURWITZ_RTOL * np.linalg.norm(matrix, 1))


def lyapunov_solve(a, noise) -> np.ndarray:
    """Equilibrium W of A W + W A^T + N = 0 for a Hurwitz drift A.

    Sign-function iteration with determinant scaling (Roberts 1980, Int. J.
    Control 32(4); Benner & Quintana-Orti 1999, Numer. Algorithms 20):
    A <- (A/c + c A^-1)/2, N <- (N/c + c A^-1 N A^-T)/2, c = |det A|^(1/n)
    via slogdet, until A = -I to rounding; W = N/2, symmetrized.  Accuracy
    drops as the spectrum nears the imaginary axis or A grows non-normal.
    Raises NoEquilibriumError unless is_hurwitz(A), and rather than return
    an unconverged or non-finite W.
    """
    arr = as_square(a, "drift matrix")
    sym = check_symmetric(as_square(noise, "noise matrix"), "noise matrix")
    n = arr.shape[0]
    if sym.shape[0] != n:
        raise ValueError("drift and noise matrices must have the same size")
    if not is_hurwitz(arr):
        raise NoEquilibriumError("drift is not Hurwitz: no stable equilibrium exists")
    with np.errstate(all="ignore"), suppress(np.linalg.LinAlgError):
        for _ in range(LYAPUNOV_MAX_STEPS):
            inverse = np.linalg.inv(arr)
            c = np.exp(np.linalg.slogdet(arr)[1] / n)
            sym = 0.5 * (sym / c + c * (inverse @ sym @ inverse.T))
            arr = 0.5 * (arr / c + c * inverse)
            converged = np.linalg.norm(arr + np.eye(n), 1) <= n * np.finfo(float).eps
            if converged and np.all(np.isfinite(sym)):
                return 0.25 * (sym + sym.T)
    raise NoEquilibriumError("sign iteration reached no finite equilibrium")


def logdet_psd(matrix) -> float:
    """log det of a symmetric positive definite matrix via Cholesky."""
    sym = check_symmetric(as_square(matrix))
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
