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
#: Pade degrees m of the exponential, each with the bound theta_m on the
#: power norms d_k = ||A^k||^(1/k) up to which it is exact to double
#: precision (Al-Mohy & Higham 2009, Table 3.1).
_PADE_THETA = {
    3: 1.495585217958292e-2,
    5: 2.539398330063230e-1,
    7: 9.504178996162932e-1,
    9: 2.097847961257068,
    13: 4.25,
}
_PADE_DEGREES = np.array(list(_PADE_THETA))
_PADE_BOUNDS = np.array([[theta] for theta in _PADE_THETA.values()])
#: Row m holds the coefficients b_j = (2m - j)! / (j! (m - j)!) of the
#: degree-m approximant, zero for j > m and for degrees off the ladder.
_PADE_TABLE = np.array(
    [
        [
            math.factorial(2 * m - j) // (math.factorial(j) * math.factorial(m - j))
            if m in _PADE_THETA and j <= m
            else 0
            for j in range(14)
        ]
        for m in range(14)
    ],
    dtype=float,
)
#: log2 of 1/|c_(2m+1)| = (2m)! (2m + 1)! / (m!)^2, the reciprocal leading
#: coefficient of the Pade error exp(x) - r_m(x).
_PADE_LOG2_ERROR_RECIPROCALS = np.log2(
    [
        [math.factorial(2 * m) * math.factorial(2 * m + 1) / math.factorial(m) ** 2]
        for m in _PADE_THETA
    ]
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


def _pade_choice(a: np.ndarray, a4, a6, a8):
    """Pade degree and squaring count of each matrix A of a stack (m, n, n).

    a4, a6 and a8 are the powers A^4, A^6 and A^8 of the stack.

    Al-Mohy & Higham 2009, Algorithm 5.1, with exact 1-norms.  Degree and
    scaling follow the norms of powers, d_k = ||A^k||^(1/k), rather than
    ||A||.  That avoids overscaling, and the rounding the extra squarings
    would amplify, when ||A|| far exceeds the spectral radius, as in the
    augmented block of a nearly driftless system.  The correction ell(A, m)
    = ceil(log2(alpha_m / u) / 2m), with alpha_m = |c_(2m+1)| ||(|A|)^(2m+1)||
    / ||A|| and u = 2^-53, rejects a degree (or adds squarings) where
    rounding in the Pade evaluation of a highly non-normal matrix would
    dominate.  ||(|A|)^p|| is the largest entry of 1^T (|A| / ||A||)^p times
    ||A||^p, taken by vector products so that huge norms cannot overflow.
    """
    count = len(a)
    power_norms = np.linalg.norm(np.concatenate((a, a4, a6, a8, a4 @ a6)), 1, axis=(1, 2))
    exponents = 1.0 / np.array([[1.0], [4.0], [6.0], [8.0], [10.0]])
    norms, d4, d6, d8, d10 = power_norms.reshape(5, count) ** exponents
    eta1, eta3 = np.maximum(d4, d6), np.maximum(d6, d8)
    # d_k <= ||A||, which also stands in for a power norm that overflowed.
    eta5 = np.fmin(np.minimum(eta3, np.maximum(d8, d10)), norms)
    unit = np.abs(a) / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis, np.newaxis]
    unit2 = unit @ unit
    unit4 = unit2 @ unit2
    # Rows 1^T |A|^p / ||A||^p for p = 3, 7, ..., 27; the 2m + 1 of the
    # ladder are p = 7, 11, 15, 19 and 27.
    rows = [np.ones((count, 1, a.shape[-1])) @ unit @ unit2]
    while len(rows) < 7:
        rows.append(rows[-1] @ unit4)
    largest = np.concatenate(rows, axis=1).max(axis=2).T[[1, 2, 3, 4, 6]]
    degrees = _PADE_DEGREES[:, np.newaxis]
    with np.errstate(divide="ignore"):
        log_alpha = 2 * degrees * np.log2(norms) + np.log2(largest) - _PADE_LOG2_ERROR_RECIPROCALS
        ell = np.ceil((log_alpha + 53.0) / (2 * degrees))
        # Scaling by 2^-s lowers log2(alpha_13) by 26 s, so ell(2^-s A, 13) = ell - s.
        squarings = np.maximum(np.ceil(np.log2(eta5 / _PADE_THETA[13])), ell[-1])
    unscaled = (np.array([eta1, eta1, eta3, eta3]) <= _PADE_BOUNDS[:-1]) & (ell[:-1] <= 0.0)
    choice = np.where(unscaled.any(axis=0), _PADE_DEGREES[unscaled.argmax(axis=0)], 13)
    return choice, np.where(choice == 13, np.maximum(squarings, 0.0), 0.0).astype(int)


def _pade(a: np.ndarray, a2, a4, a6, degrees: np.ndarray):
    """Numerator and denominator of the Pade approximant of exp for each matrix of a stack.

    Higham's degree-13 grouping with each matrix's own coefficients; those
    of a lower degree are zero beyond it, so the same products give every
    degree of the ladder.
    """
    b = _PADE_TABLE[degrees][..., np.newaxis, np.newaxis]
    eye = np.eye(a.shape[-1])
    odd = a6 @ (b[:, 13] * a6 + b[:, 11] * a4 + b[:, 9] * a2) + b[:, 7] * a6 + b[:, 5] * a4
    u = a @ (odd + b[:, 3] * a2 + b[:, 1] * eye)
    even = a6 @ (b[:, 12] * a6 + b[:, 10] * a4 + b[:, 8] * a2) + b[:, 6] * a6 + b[:, 4] * a4
    v = even + b[:, 2] * a2 + b[:, 0] * eye
    return v + u, v - u


def _exp_stack(a: np.ndarray) -> np.ndarray:
    """exp of each matrix of a stack (m, n, n), which it overwrites."""
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        degrees, squarings = _pade_choice(a, a4, a6, a4 @ a4)
        if squarings.any():
            scale = (0.5**squarings)[:, np.newaxis, np.newaxis]
            for k, power in enumerate((a, a2, a4, a6)):
                power *= scale ** max(1, 2 * k)
        numerator, denominator = _pade(a, a2, a4, a6, degrees)
    out = np.linalg.solve(denominator, numerator)
    for step in range(int(squarings.max(initial=0))):
        picked = np.flatnonzero(squarings > step)
        out[picked] = out[picked] @ out[picked]
    return out


def mat_exp(matrix, t: float = 1.0) -> np.ndarray:
    """Matrix exponential exp(matrix * t) of one matrix or of a stack (..., n, n).

    Scaling and squaring with Pade approximants of degree 3, 5, 7, 9 or 13
    (Higham 2005, SIAM J. Matrix Anal. Appl. 26(4); degree and scaling
    chosen as in Al-Mohy & Higham 2009, ibid. 31(3)).  Degree, scaling and
    squarings are chosen per matrix, and each matrix is squared only its own
    number of times, so a matrix's result does not depend on the rest of its
    stack.  Stacks go through in slices of _EXP_CHUNK_BYTES, which keeps the
    temporaries small and changes no result.
    """
    arr = _as_square_stack(matrix)
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time argument must be finite")
    n = arr.shape[-1]
    a = (arr * t).reshape(-1, n, n)
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
