"""Dense linear-algebra kernel shared by the higher-level modules.

Small dense matrices: the routines favour strict validation and verifiable
contracts over asymptotic performance.  All functions are pure,
accept anything array-like, and return fresh float64 arrays.
"""

from __future__ import annotations

import math
from contextlib import suppress
from functools import cached_property

import numpy as np

from .errors import NoEquilibriumError, NotPositiveDefiniteError

#: Largest accepted asymmetry max|S - S^T|, relative to max(1, max|S|).
SYMMETRY_TOL = 1e-9
#: Eigenvalue real parts must be below -HURWITZ_RTOL * norm1(A) for A to count as stable.
HURWITZ_RTOL = 1e-10
#: Most sign-iteration steps of the Lyapunov solve (random Hurwitz drifts take 2-8).
LYAPUNOV_MAX_STEPS = 100
#: The message of the NoEquilibriumError of a drift that is not Hurwitz.
_NOT_HURWITZ = "drift is not Hurwitz: no stable equilibrium exists"
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
#: 1/k of the power norms ||A^k|| that _squarings takes, k = 1, 6, 8, 10.
_POWER_NORM_EXPONENTS = 1.0 / np.array([[1.0], [6.0], [8.0], [10.0]])
#: Norm ||A|| below which no power A^k, k <= 10, overflows: every entry and
#: partial sum of A^k is at most ||A||^k, below 2^1020 < 2^maxexp.
_POWER_NORM_LIMIT = 2.0 ** (np.finfo(float).maxexp // 10)


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


def _positive_int(value, name: str) -> int:
    """A Python or numpy integer of at least 1, as an int; bools, floats and the rest raise."""
    if not np.issubdtype(type(value), np.integer) or value < 1:
        raise ValueError(f"{name} must be a positive integer")
    return int(value)


def max_abs(arr: np.ndarray) -> float:
    return float(np.max(np.abs(arr))) if arr.size else 0.0


def _symmetrize(arr: np.ndarray) -> np.ndarray:
    """S/2 + S^T/2 of one matrix or a stack (..., n, n).

    Halving before adding keeps every finite S finite; below the overflow
    it has the bits of (S + S^T)/2.
    """
    return 0.5 * arr + 0.5 * arr.swapaxes(-1, -2)


def check_symmetric(arr: np.ndarray, name: str = "matrix") -> np.ndarray:
    """Reject asymmetry beyond SYMMETRY_TOL, then return S/2 + S^T/2.

    Works on one matrix or a stack (..., n, n); the tolerance is relative to
    each matrix's own max|S|.
    """
    gap = np.max(np.abs(arr - arr.swapaxes(-1, -2)), axis=(-2, -1))
    if np.any(gap > SYMMETRY_TOL * np.maximum(1.0, np.max(np.abs(arr), axis=(-2, -1)))):
        raise ValueError(f"{name} is not symmetric (max asymmetry {float(np.max(gap)):.3e})")
    return _symmetrize(arr)


def _as_square_stack(value, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite float stack (..., n, n) of non-empty square matrices."""
    arr = np.asarray(value, dtype=float)
    if arr.ndim < 2 or arr.shape[-1] != arr.shape[-2] or arr.shape[-1] == 0:
        raise ValueError(f"{name} must be square and non-empty, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite entries")
    return arr


def _power_norms(a: np.ndarray, a4, a6, a8) -> np.ndarray:
    """||A|| and d_k = ||A^k||^(1/k), k = 6, 8, 10, of each matrix A of a stack (m, n, n).

    a4, a6 and a8 are the powers A^4, A^6 and A^8 of the stack; the result
    is one (4, m) array of exact 1-norms.
    """
    power_norms = np.abs(np.concatenate((a, a6, a8, a4 @ a6))).sum(axis=1).max(axis=1)
    return power_norms.reshape(4, len(a)) ** _POWER_NORM_EXPONENTS


def _unit_row_log2(a: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """log2 of the largest entry of 1^T (|A| / ||A||)^27 of each matrix A of a stack.

    Taken by vector products, so that no power of a huge ||A|| is formed;
    -inf where the row is 0 (A = 0, or |A| nilpotent).
    """
    unit = np.abs(a) / np.where(norms > 0.0, norms, 1.0)[:, np.newaxis, np.newaxis]
    unit2 = unit @ unit
    unit4 = unit2 @ unit2
    row = np.ones((len(a), 1, a.shape[-1])) @ unit @ unit2
    for _ in range(6):
        row = row @ unit4
    with np.errstate(divide="ignore"):
        return np.log2(row.max(axis=(1, 2)))


def _squarings_from_norms(norms, d6, d8, d10, unit_row_log2) -> np.ndarray:
    """Squaring count s of each matrix A for the degree-13 approximant, from its norms.

    norms, d6, d8 and d10 are ||A|| and the power norms d_k = ||A^k||^(1/k)
    of each A, all finite; unit_row_log2(picked) is _unit_row_log2 of the
    picked matrices.  log2(0) = -inf is a valid value here, so callers run
    it with divide errors ignored.

    Al-Mohy & Higham 2009, Algorithm 5.1, at degree 13 only, with exact
    1-norms.  The scaling follows the norms of powers rather than ||A||.
    That avoids overscaling, and the rounding the extra squarings would
    amplify, when ||A|| far exceeds the spectral radius, as in the augmented
    block of a nearly driftless system.  The correction ell(A, 13) =
    ceil(log2(alpha / u) / 26), with alpha = |c_27| ||(|A|)^27|| / ||A|| and
    u = 2^-53, adds squarings where rounding in the Pade evaluation of a
    highly non-normal matrix would dominate.  ||(|A|)^27|| is the largest
    entry of 1^T (|A| / ||A||)^27 times ||A||^27.

    The 1-norm is submultiplicative, so ||(|A|)^27|| <= ||A||^27, the
    largest entry is at most 1, and ell <= ceil((26 log2 ||A|| + 1 -
    log2(1/|c_27|) + 53) / 26).  The 1 is the margin for the rounding of the
    computed entry: each of its 54 roundings (nonnegative products, and the
    norm it is divided by) scales it by at most 1 + (n + 1) u, so it stays
    below 2, and its log2 below 1, for any n short of 10^13.  The bound is
    the formula for ell with that log2 replaced by 1, and every step of the
    formula is monotone in floating point, so the computed ell is at most
    the computed bound.  The 27th power is formed only for the matrices
    whose bound exceeds their count from the d_k alone; for the rest ell
    cannot raise the count, which is the one the full formula gives.
    """
    # d_k <= ||A||, which also stands in for a power norm that overflowed.
    eta5 = np.fmin(np.minimum(np.maximum(d6, d8), np.maximum(d8, d10)), norms)
    log_norms = np.log2(norms)
    squarings = np.maximum(np.ceil(np.log2(eta5 / _PADE_THETA13)), 0.0)
    bound = np.ceil((26 * log_norms + 1.0 - _PADE_LOG2_ERROR_RECIPROCAL + 53.0) / 26)
    picked = bound > squarings
    if picked.any():
        log_alpha = 26 * log_norms[picked] + unit_row_log2(picked)
        ell = np.ceil((log_alpha - _PADE_LOG2_ERROR_RECIPROCAL + 53.0) / 26)
        # Scaling by 2^-s lowers log2(alpha) by 26 s, so ell(2^-s A, 13) = ell - s.
        squarings[picked] = np.maximum(squarings[picked], ell)
    return squarings.astype(int)


def _squarings(a: np.ndarray, a4, a6, a8) -> np.ndarray:
    """Squaring count s of each matrix A of a stack (m, n, n), from its own powers.

    a4, a6 and a8 are the powers A^4, A^6 and A^8 of the stack.  Below
    ||A|| = _POWER_NORM_LIMIT = 2^102 no power up to A^10 can overflow.
    Past it they can, and a power norm that overflowed falls back to ||A||.
    For A = M t, d_k(M t) = t d_k(M), so _scaled_exp_multiples reads the
    counts below the limit from the powers of M alone, and takes this
    stacked count past it, where the fallback gives counts that no power
    of M can.
    """
    count = len(a)
    norms, d6, d8, d10 = _power_norms(a, a4, a6, a8)
    overflowed = np.isinf(norms)
    if overflowed.any():
        # ||A|| can overflow while every entry of A is finite.  The count of
        # such an A is e plus that of A 2^-e, with 2^e > n so that its norm
        # cannot overflow: scaling by a power of two is exact, and lowers
        # each log2 of the count by e.
        shift, kept = a.shape[-1].bit_length(), ~overflowed
        counts = np.empty(count, dtype=int)
        counts[kept] = _squarings(a[kept], a4[kept], a6[kept], a8[kept])
        powers = zip((a, a4, a6, a8), (1, 4, 6, 8))
        counts[overflowed] = shift + _squarings(
            *(power[overflowed] * 0.5 ** (k * shift) for power, k in powers)
        )
        return counts
    with np.errstate(divide="ignore"):
        return _squarings_from_norms(
            norms, d6, d8, d10, lambda picked: _unit_row_log2(a[picked], norms[picked])
        )


def _pade(a: np.ndarray, a2, a4, a6) -> np.ndarray:
    """Degree-13 Pade approximant of exp of each matrix of a stack, from its powers.

    Higham's grouping of the products, with the coefficients scaled to b_0 = 1.
    """
    b = _PADE_COEFFICIENTS
    eye = np.eye(a.shape[-1])
    odd = a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2) + b[7] * a6 + b[5] * a4
    u = a @ (odd + b[3] * a2 + b[1] * eye)
    even = a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2) + b[6] * a6 + b[4] * a4
    v = even + b[2] * a2 + eye
    return np.linalg.solve(v - u, v + u)


def _scaled_exp_stack(a: np.ndarray):
    """exp(A 2^-s) of each matrix A of a stack (m, n, n), and the counts s."""
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = a @ a
        a4 = a2 @ a2
        a6 = a4 @ a2
        squarings = _squarings(a, a4, a6, a4 @ a4)
        if squarings.any():
            # Scaling by 2^-s is exact, so the powers of the scaled A are the
            # scaled powers, and finite where the unscaled ones overflowed.
            a = a * (0.5**squarings)[:, np.newaxis, np.newaxis]
            a2 = a @ a
            a4 = a2 @ a2
            a6 = a4 @ a2
        return _pade(a, a2, a4, a6), squarings


class _Multiples:
    """One finite matrix M and what the counts of its multiples M t read of M alone.

    ``top`` is the exponent of M's largest entry, and ``norms`` is the
    (4, 1) array of ||M|| and d_k(M), k = 6, 8, 10, from the powers of
    M 2^-top, whose largest entry lies in [1/2, 1), scaled back by 2^top:
    none of them overflows, and one that underflows is below 2^-102 in
    those units, where it cannot raise the count of an interval short of
    _POWER_NORM_LIMIT.  ||M|| itself can overflow, so both are formed by
    the first _scaled_exp_multiples of M, under its error state (scale);
    ``norms`` is None until then, and constructing a _Multiples forms
    nothing.  ``unit_row_log2``, the log2 of M's 27th-power row
    (_unit_row_log2), is formed on first use only: most stacks never read
    it.  A model builds one _Multiples of its generator
    when it is built, so each of these is formed at most once per model,
    not once per call.
    """

    def __init__(self, matrix: np.ndarray):
        self.matrix = matrix
        self.norms = None

    def scale(self):
        self.top = math.frexp(np.abs(self.matrix).max())[1]
        unit = np.ldexp(self.matrix, -self.top)[np.newaxis]
        unit2 = unit @ unit
        unit4 = unit2 @ unit2
        self.norms = np.ldexp(_power_norms(unit, unit4, unit4 @ unit2, unit4 @ unit4), self.top)

    @cached_property
    def unit_row_log2(self) -> np.ndarray:
        return _unit_row_log2(self.matrix[np.newaxis], self.norms[0])


def _scaled_exp_multiples(multiples: _Multiples, factors: np.ndarray):
    """scaled_exp of the stack M t, t each factor of a 1-D array, for M = multiples.matrix.

    The count of A = M t comes from the powers of M alone (_Multiples,
    whose norms the first call on it forms under this call's error state):
    d_k(M t) = t d_k(M) and ||M t|| = t ||M|| feed the count rule
    _squarings_from_norms that _squarings applies to a stack.  Each
    M (t 2^-s) is then formed directly, and only its Pade approximant is
    evaluated, in slices of _EXP_CHUNK_BYTES.

    Where t ||M|| < _POWER_NORM_LIMIT = 2^102, ||M t||^10 < 2^1020 bounds
    every entry and partial sum of the powers of the stacked count, so that
    count and this one agree to rounding.  The other intervals keep the
    stacked count of scaled_exp: there its powers can overflow, and a power
    norm that did falls back to ||M t||, which the powers of M cannot
    reproduce.  Where t max |M| overflows, so that M t has a non-finite
    entry, they take M (t 2^-e), e = e_t + e_M - 1023 for t < 2^e_t and
    max |M| < 2^e_M, with every entry below 2^1023, and e is added to the
    count: scaling by a power of two is exact, and lowers the count by e.
    Where M t is finite it is taken as it is: the count of a nilpotent M t
    is 0, and that of M (t 2^-e) is 0 too, not -e.
    """
    matrix = multiples.matrix
    n = matrix.shape[-1]
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if multiples.norms is None:
            multiples.scale()
        norms = multiples.norms
        routed = factors * norms[0] >= _POWER_NORM_LIMIT
        # Routed intervals stand in as t = 0 until their stacked count below.
        any_routed = routed.any()
        kept = np.where(routed, 0.0, factors) if any_routed else factors
        counts = _squarings_from_norms(*(norms * kept), lambda picked: multiples.unit_row_log2)
        generators = matrix * np.ldexp(kept, -counts)[:, np.newaxis, np.newaxis]
        exps = np.empty(generators.shape)
        size = max(1, _EXP_CHUNK_BYTES // (generators.itemsize * n * n))
        for i in range(0, len(generators), size):
            a = generators[i : i + size]
            a2 = a @ a
            a4 = a2 @ a2
            exps[i : i + size] = _pade(a, a2, a4, a4 @ a2)
        if any_routed:
            # Rounding is monotone, so M t is finite where t max |M| is.
            finite = np.isfinite(factors[routed] * np.abs(matrix).max())
            shifts = np.where(finite, 0, np.frexp(factors[routed])[1] + multiples.top - 1023)
            stack = matrix * np.ldexp(factors[routed], -shifts)[:, np.newaxis, np.newaxis]
            exps[routed], counts[routed] = scaled_exp(stack)
            counts[routed] += shifts
    return exps, counts


def scaled_exp(matrix):
    """exp(A 2^-s) and the count s of one matrix or of each of a stack (..., n, n).

    The degree-13 Pade approximant (Higham 2005, SIAM J. Matrix Anal. Appl.
    26(4)), s chosen per matrix by _squarings (Al-Mohy & Higham 2009, ibid.
    31(3)), so exp(A) is the result squared s times.  Slices of
    _EXP_CHUNK_BYTES keep the temporaries small and change no result.
    """
    arr = _as_square_stack(matrix)
    n = arr.shape[-1]
    a = arr.reshape(-1, n, n)
    size = max(1, _EXP_CHUNK_BYTES // (a.itemsize * n * n))
    exps, counts = np.empty(a.shape), np.empty(len(a), dtype=int)
    for i in range(0, len(a), size):
        exps[i : i + size], counts[i : i + size] = _scaled_exp_stack(a[i : i + size])
    return exps.reshape(arr.shape), counts.reshape(arr.shape[:-2])


def mat_exp(matrix) -> np.ndarray:
    """exp of one matrix or of a stack (..., n, n): scaled_exp, each result squared its s times."""
    out, squarings = scaled_exp(matrix)
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(int(squarings.max(initial=0))):
            picked = squarings > step
            out[picked] = out[picked] @ out[picked]
    return out


def sym_eig(matrix) -> tuple[np.ndarray, np.ndarray]:
    """(values, vectors) of a symmetric matrix or stack (..., n, n), values descending.

    Column i of vectors pairs with values[..., i], and
    max|Q^T Q - I| <= 1e-10 and max|Q diag(w) Q^T - S| <= 1e-8 * max(1, max|S|).
    """
    values, vectors = np.linalg.eigh(check_symmetric(_as_square_stack(matrix)))
    return values[..., ::-1].copy(), vectors[..., ::-1].copy()


def is_hurwitz(matrix) -> bool:
    """True when every eigenvalue real part is below -HURWITZ_RTOL * norm1(A); never for A = 0.

    Raises ValueError unless A is a finite, non-empty square matrix.
    """
    return _is_hurwitz(as_square(matrix))


def _is_hurwitz(arr: np.ndarray) -> bool:
    """is_hurwitz of a finite, non-empty square float array."""
    return bool(np.max(np.linalg.eigvals(arr).real) < -HURWITZ_RTOL * np.linalg.norm(arr, 1))


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
    if sym.shape[0] != arr.shape[0]:
        raise ValueError("drift and noise matrices must have the same size")
    if not is_hurwitz(arr):
        raise NoEquilibriumError(_NOT_HURWITZ)
    return _sign_iteration(arr, sym)


def _sign_iteration(arr: np.ndarray, sym: np.ndarray) -> np.ndarray:
    """lyapunov_solve of a checked Hurwitz drift and symmetric noise.

    Raises NoEquilibriumError rather than return an unconverged or non-finite W.
    """
    n = arr.shape[0]
    with np.errstate(all="ignore"), suppress(np.linalg.LinAlgError):
        for _ in range(LYAPUNOV_MAX_STEPS):
            inverse = np.linalg.inv(arr)
            c = np.exp(np.linalg.slogdet(arr)[1] / n)
            sym = 0.5 * (sym / c + c * (inverse @ sym @ inverse.T))
            arr = 0.5 * (arr / c + c * inverse)
            converged = np.linalg.norm(arr + np.eye(n), 1) <= n * np.finfo(float).eps
            if converged and np.all(np.isfinite(sym)):
                return 0.5 * _symmetrize(sym)
    raise NoEquilibriumError("sign iteration reached no finite equilibrium")


def logdet_psd(matrix) -> float:
    """log det of a symmetric positive definite matrix via Cholesky."""
    sym = check_symmetric(as_square(matrix))
    try:
        chol = np.linalg.cholesky(sym)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError("matrix is not positive definite") from exc
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
