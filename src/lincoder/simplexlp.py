"""Least-flow-time nonnegative solutions of V x = d by basis enumeration.

Solves   minimize 1.x   subject to  V x = d,  x >= 0
for a whole stack of targets d.  By the fundamental theorem of linear
programming an optimum, when one exists, is a basic solution: x is zero off
r = rank(V) linearly independent columns B, and x_B = B+ d there.  The
families used here have at most a few hundred such bases, so every block of
targets is solved against all of them at once.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

#: Largest number of column subsets, C(K, rank V), enumerated for one family.
MAX_BASES = 4096
#: Targets per block are chosen so that bases x targets stays under this.
BLOCK_CELLS = 2**14
#: Slack on x_B >= 0 and on |B x_B - d|, with d scaled to unit max-norm.
BASIS_TOL = 1e-9
#: Relative width within which flow times, then replay spreads, count as tied.
TIE_RTOL = 1e-12


def _bases(constraints: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Column subsets of size rank(V) that are bases, their columns and pseudo-inverses."""
    k = constraints.shape[1]
    rank = int(np.linalg.matrix_rank(constraints))
    if math.comb(k, rank) > MAX_BASES:
        raise ValueError(
            f"family has C({k}, {rank}) = {math.comb(k, rank)} candidate bases, "
            f"more than the {MAX_BASES} supported"
        )
    subsets = np.array(list(itertools.combinations(range(k), rank)), dtype=int)
    columns = np.moveaxis(constraints[:, subsets], 1, 0)  # (S, m, r)
    independent = np.linalg.matrix_rank(columns) == rank
    columns = columns[independent]
    return subsets[independent], columns, np.linalg.pinv(columns)


def solve_nonnegative_lp(constraints, rhs) -> np.ndarray:
    """Least-flow-time x >= 0 with constraints @ x = rhs, for one or many targets.

    ``rhs`` is one target (m,) or a stack (..., m); the result has shape
    (..., k), with NaN rows for targets outside the conic hull of the
    columns.  A basis is feasible when x_B >= -BASIS_TOL and
    |B x_B - d| <= BASIS_TOL, both for d scaled to unit max-norm.
    Among feasible bases the least flow time 1.x wins; flow times within
    TIE_RTOL of it go to the least replay spread sum_i x_i |v_i|^2, and
    spreads within TIE_RTOL to the lowest subset index.  Entries of x_B up
    to TIE_RTOL times the flow time are rounding and become 0, so a target
    along one column gets a one-hot solution.  Raises ValueError when the
    columns have more than MAX_BASES candidate bases.
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

    subsets, columns, inverses = _bases(a)
    weights = np.sum(a * a, axis=0)[subsets][:, :, None]  # (S, r, 1)
    targets = b.reshape(-1, m)
    scale = np.max(np.abs(targets), axis=1)
    scale[scale == 0.0] = 1.0
    unit = targets / scale[:, None]
    x = np.full((targets.shape[0], k), np.nan)
    block = max(1, BLOCK_CELLS // len(subsets))
    for start in range(0, targets.shape[0], block):
        d = unit[start : start + block].T  # (m, t)
        xb = inverses @ d  # (S, r, t)
        residual = columns @ xb - d  # (S, m, t)
        feasible = np.all(xb >= -BASIS_TOL, axis=1) & np.all(
            np.abs(residual) <= BASIS_TOL, axis=1
        )
        flow = np.where(feasible, xb.sum(axis=1), np.inf)
        best = flow.min(axis=0)
        spread = np.where(
            flow <= best + TIE_RTOL * np.abs(best), np.sum(xb * weights, axis=1), np.inf
        )
        least = spread.min(axis=0)
        pick = np.argmax(spread <= least + TIE_RTOL * np.abs(least), axis=0)
        found = np.flatnonzero(np.isfinite(best))
        rows = start + found
        x[rows] = 0.0
        chosen = xb[pick[found], :, found]  # (found, r)
        chosen[chosen <= TIE_RTOL * best[found, None]] = 0.0
        x[rows[:, None], subsets[pick[found]]] = chosen * scale[rows, None]
    return x.reshape(b.shape[:-1] + (k,))
