"""Least-flow-time nonnegative solutions of V x = d over the optimal bases.

Solves   minimize 1.x   subject to  V x = d,  x >= 0
for a stack of targets d.  An optimum is a basic solution x_B = B+ d on
r = rank(V) independent columns B, and B is optimal exactly when x_B >= 0
and its dual y^T = 1^T B+ has y^T v_k <= 1 for every field (Bertsimas &
Tsitsiklis 1997, sec. 3.1).  On B's own fields y^T v_k = 1 exactly, so
only the other fields are tested: rounding there could drop the only
optimal basis.  That dual test reads V alone, so those bases are built once
per family and every target is solved against them at once.

Two more per-basis quantities are built with them.  A target's replay
spread w_B . x_B (w_i = |v_i|^2) equals c_B . d with c_B = w_B^T B+, so
one (S, m) product gives every basis's spread; it rounds differently from
w_B . x_B, which can move a pick only between spreads that tie to within
TIE_RTOL plus that rounding.  And a basis is *exposed* when the a-priori
bound on the computed residual |B x_B - d| over every d with
|d|_inf <= 1 can exceed BASIS_TOL: ||B B+ - I||_inf for the exact residual
of the stored B+, plus 4 m eps || |B| |B+| ||_inf for the rounding of
B B+, of x_B = B+ d and of B x_B.  Only exposed bases have their residual
computed; every other basis passes that test for every target.  Every
basis of a rank-deficient family is exposed (B B+ is then a projector, so
the bound is at least 1); a well-conditioned spanning family has none.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

#: Largest number of column subsets, C(K, rank V), enumerated for one family.
MAX_BASES = 4096
#: Targets per block are chosen so that bases x targets stays under this.
BLOCK_CELLS = 2**14
#: Slack on x_B >= 0 and on |B x_B - d|, with d scaled to unit max-norm.
BASIS_TOL = 1e-9
#: Relative slack on the dual bound y^T v_k <= 1 and on ties in replay spread.
TIE_RTOL = 1e-12


@functools.lru_cache(maxsize=32)
def _optimal_bases(matrix: bytes, shape: tuple) -> tuple:
    """Dual-feasible bases of V: subsets, pseudo-inverses, spread rows c_B,
    and the indices and columns of the exposed bases."""
    constraints = np.frombuffer(matrix).reshape(shape)
    m, k = shape
    rank = int(np.linalg.matrix_rank(constraints))
    if math.comb(k, rank) > MAX_BASES:
        raise ValueError(
            f"family has C({k}, {rank}) = {math.comb(k, rank)} candidate bases, "
            f"more than the {MAX_BASES} supported"
        )
    subsets = np.array(list(itertools.combinations(range(k), rank)), dtype=int)
    columns = np.moveaxis(constraints[:, subsets], 1, 0)  # (S, m, r)
    independent = np.linalg.matrix_rank(columns) == rank
    subsets, columns = subsets[independent], columns[independent]
    inverses = np.linalg.pinv(columns)
    # Each basis's own columns are masked: there y^T v = 1 holds up to rounding alone.
    duals = inverses.sum(axis=1) @ constraints  # (S, k)
    np.put_along_axis(duals, subsets, -np.inf, axis=1)
    optimal = np.max(duals, axis=1) <= 1.0 + TIE_RTOL
    if not optimal.any():
        raise ValueError(
            "rounding leaves no basis of the family dual-feasible; "
            "near-duplicate fields can do this"
        )
    subsets, columns, inverses = subsets[optimal], columns[optimal], inverses[optimal]
    weights = np.sum(constraints * constraints, axis=0)[subsets][:, None, :]  # (S, 1, r)
    spread_rows = (weights @ inverses)[:, 0]  # (S, m)
    off_identity = np.abs(columns @ inverses - np.eye(m)).sum(axis=2).max(axis=1)
    magnitude = (np.abs(columns) @ np.abs(inverses)).sum(axis=2).max(axis=1)
    bound = off_identity + 4 * m * np.finfo(float).eps * magnitude
    exposed = np.flatnonzero(bound > BASIS_TOL)
    return subsets, inverses, spread_rows, exposed, columns[exposed]


def solve_nonnegative_lp(constraints, rhs) -> np.ndarray:
    """Least-flow-time x >= 0 with constraints @ x = rhs, for one or many targets.

    ``rhs`` is one target (m,) or a stack (..., m); the result has shape
    (..., k), with NaN rows for targets outside the conic hull of the
    columns.  A kept (dual-feasible) basis is feasible for a target when
    x_B >= -BASIS_TOL and |B x_B - d| <= BASIS_TOL, both for d scaled to
    unit max-norm, and is then optimal.  The residual is computed only on
    the exposed bases; on the others the a-priori bound (see the module
    docstring) already keeps it within BASIS_TOL.  Where it fails, up to two
    steps of iterative refinement x_B - B+ (B x_B - d) are taken, and the
    first that passes both tests takes the place of x_B (a basis of
    condition number 1e13 can need the second).  The least replay spread
    sum_i x_i |v_i|^2, read as c_B . d, wins, spreads within TIE_RTOL going
    to the lowest subset index.  Entries of x_B up to TIE_RTOL times the
    flow time become 0, so a target along one column gets a one-hot
    solution.  Raises ValueError when the columns have more
    than MAX_BASES candidate bases, or when rounding leaves none of them
    dual-feasible.
    """
    a = np.asarray(constraints, dtype=float)
    b = np.asarray(rhs, dtype=float)
    if a.ndim != 2 or b.ndim < 1:
        raise ValueError("expected a constraint matrix and one or more rhs vectors")
    m, k = a.shape
    if b.shape[-1] != m:
        raise ValueError("constraint and rhs sizes do not agree")
    if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
        raise ValueError("linear program data must be finite")

    subsets, inverses, spread_rows, exposed, exposed_columns = _optimal_bases(
        a.tobytes(), a.shape
    )
    targets = b.reshape(-1, m)
    scale = np.max(np.abs(targets), axis=1)
    scale[scale == 0.0] = 1.0
    unit = targets / scale[:, None]
    x = np.full((targets.shape[0], k), np.nan)
    block = max(1, BLOCK_CELLS // len(subsets))
    for start in range(0, targets.shape[0], block):
        d = unit[start : start + block].T  # (m, t)
        xb = inverses @ d  # (S, r, t)
        feasible = np.min(xb, axis=1, initial=np.inf) >= -BASIS_TOL
        if exposed.size:
            exposed_xb = xb[exposed]
            residual = exposed_columns @ exposed_xb - d
            fits = np.all(np.abs(residual) <= BASIS_TOL, axis=1)
            feasible[exposed] &= fits
            if not fits.all():
                # B+ d is not backward stable on an ill-conditioned basis: up to two
                # steps of iterative refinement, the first that passes both tests kept.
                exposed_inverses, refined, left = inverses[exposed], exposed_xb, ~fits
                for _ in range(2):
                    refined = refined - exposed_inverses @ residual
                    residual = exposed_columns @ refined - d
                    fixed = left & np.all(np.abs(residual) <= BASIS_TOL, axis=1)
                    fixed &= np.min(refined, axis=1, initial=np.inf) >= -BASIS_TOL
                    exposed_xb = np.where(fixed[:, np.newaxis], refined, exposed_xb)
                    feasible[exposed] |= fixed
                    left &= ~fixed
                    if not left.any():
                        break
                xb[exposed] = exposed_xb
        spread = np.where(feasible, spread_rows @ d, np.inf)
        least = spread.min(axis=0)
        pick = np.argmax(spread <= least + TIE_RTOL * np.abs(least), axis=0)
        found = np.flatnonzero(np.isfinite(least))
        rows = start + found
        x[rows] = 0.0
        chosen = xb[pick[found], :, found]  # (found, r)
        chosen[chosen <= TIE_RTOL * chosen.sum(axis=1, keepdims=True)] = 0.0
        x[rows[:, None], subsets[pick[found]]] = chosen * scale[rows, None]
    return x.reshape(b.shape[:-1] + (k,))
