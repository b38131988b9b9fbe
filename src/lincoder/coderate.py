"""Minimum admissible code rates for linear-system forward increments.

The rate to describe the increment over a sampling interval dt to mean-square
fidelity D is the Gaussian rate distortion function of its covariance.  For
stable time-invariant drift the rate saturates at the value set by the Lyapunov
equilibrium covariance; otherwise it grows without bound as the sampling
interval grows, and a channel of fixed capacity forces a minimum sampling
rate.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass
from itertools import chain
from typing import Optional, Union

import numpy as np

from .errors import CapacityInfeasibleError, NoEquilibriumError
from .linalg import _NOT_HURWITZ
from .linearsystem import LinearSystemModel, _transition_and_gramian
from .ratedistortion import LN2, RdfResult, _budget, _fill_modes, _first_result, _water_fill

#: Safety margin (bits) used when comparing rates against a capacity.
CAPACITY_MARGIN_BITS = 1e-9
#: Smallest sampling interval tried before declaring a capacity infeasible.
DT_FLOOR = 1e-6
#: Largest sampling interval tried before declaring no minimum rate needed.
DT_CEILING = 1e12
#: Relative width at which the crossing refinement stops.
BISECTION_RTOL = 1e-9
#: Geometric parts per refinement round of the crossing decade: one round
#: narrows it as much as four bisection steps, in one stacked evaluation.
_REFINE_PARTS = 16
#: Exponents of the inner edges of a geometric partition into _REFINE_PARTS parts.
_PART_EXPONENTS = np.arange(1.0, _REFINE_PARTS) / _REFINE_PARTS


@dataclass(frozen=True)
class NotNeeded:
    """No minimum sampling rate exists: any rate meets the capacity.

    ``ceiling_bits`` carries the saturation rate when the drift is stable;
    ``zero_rate`` flags the degenerate case of a rate that is zero for
    every sampling interval probed.
    """

    ceiling_bits: Optional[float] = None
    zero_rate: bool = False


@dataclass(frozen=True)
class RateCurve:
    """Code rate (bits) at each interval of a grid, with the saturation rate when it exists."""

    rate_bits: np.ndarray
    asymptote_bits: Optional[float]


def _increment_rates(model: LinearSystemModel, dts: np.ndarray, distortion: float):
    """Water-filling of the increment covariance at each interval of a stack.

    Returns the stacks (rate_nats, water_level, allocations); the one rate
    path behind increment_rate, rate_curve and min_sampling_rate.  The
    increment mean is irrelevant to the rate.  A covariance that overflowed
    to non-finite values (wildly unstable drift at an extreme horizon)
    reports an infinite rate.
    """
    _, covariances = _transition_and_gramian(model, dts)
    finite = np.isfinite(covariances).all(axis=(1, 2))
    if finite.all():
        return _water_fill(covariances, distortion)
    rates = np.full(dts.shape, math.inf)
    levels = np.full(dts.shape, math.inf)
    allocations = np.full(dts.shape + (model.dimension,), math.inf)
    rates[finite], levels[finite], allocations[finite] = _water_fill(
        covariances[finite], distortion
    )
    return rates, levels, allocations


def increment_rate(model: LinearSystemModel, dt: float, distortion: float) -> RdfResult:
    """Minimum admissible code rate of the increment over an interval dt at distortion D."""
    return _first_result(*_increment_rates(model, np.array([float(dt)]), distortion))


def rate_ceiling(model: LinearSystemModel, distortion: float) -> RdfResult:
    """Saturation rate of a stable time-invariant model.

    The increment covariance converges to the Lyapunov equilibrium, so the
    rate at any sampling interval is bounded by the rate of that Gaussian.
    The first ceiling on a model (every rate curve and sampling-rate search
    takes one) solves for the equilibrium and takes its mode variances, which
    the model keeps read-only, so each ceiling only water-fills those.  The
    generator M and its power norms play no part here.  Raises
    NoEquilibriumError, with the message of lyapunov_solve, when the drift
    is not Hurwitz (the increment covariance then has no limit).
    """
    if model._equilibrium is None:
        raise NoEquilibriumError(_NOT_HURWITZ)
    distortion = _budget(distortion)
    return _first_result(*_fill_modes(model._equilibrium_modes, distortion))


def rate_curve(model: LinearSystemModel, distortion: float, dt_grid) -> RateCurve:
    """Code rate at each grid point, with the saturation rate when it exists."""
    grid = np.asarray(dt_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("dt grid must be a non-empty vector")
    if np.any(grid <= 0.0) or np.any(np.diff(grid) <= 0.0):
        raise ValueError("dt grid must be positive and strictly increasing")
    rates = _increment_rates(model, grid, distortion)[0] / LN2
    try:
        asymptote = rate_ceiling(model, distortion).rate_bits
    except NoEquilibriumError:
        asymptote = None
    return RateCurve(rates, asymptote)


def _parts(lo: float, hi: float) -> np.ndarray:
    """The _REFINE_PARTS - 1 inner edges of the geometric partition of [lo, hi]."""
    return lo * (hi / lo) ** _PART_EXPONENTS


def _lattice_path(lo: float, hi: float, point: float) -> tuple:
    """Cells (lower, upper) of the refinement lattice under [lo, hi] that hold ``point``.

    Each cell is the part of the one before it whose upper edge is the first
    at or above the point (the last part past hi, the first below lo), so a
    lattice cell's edges are computed exactly as the plain refinement
    computes them, down to the first cell no wider than BISECTION_RTOL.
    Returns the cells and the edges of each cell cut: [lo, hi], then all but the last.
    """
    # NaN sorts above every edge, as in np.searchsorted.
    point = math.inf if math.isnan(point) else point
    lo, hi = float(lo), float(hi)
    cells, cut = [], []
    while hi / lo > 1.0 + BISECTION_RTOL:
        edges = [lo, *_parts(lo, hi).tolist(), hi]
        part = min(max(bisect_left(edges, point) - 1, 0), _REFINE_PARTS - 1)
        lo, hi = edges[part], edges[part + 1]
        cells.append((lo, hi))
        cut.append(edges)
    return cells, cut


def _predict_crossing(
    below: float, below_bits: float, above: float, above_bits: float, threshold: float
) -> float:
    """Log-linear regula falsi for where the rate reaches the threshold.

    ``below`` is an interval with a rate under the threshold and ``above`` a
    longer one without; an infinite rate at ``above`` gives their geometric
    midpoint.
    """
    if math.isinf(above_bits):
        return math.sqrt(below * above)
    return below * (above / below) ** ((threshold - below_bits) / (above_bits - below_bits))


def min_sampling_rate(
    model: LinearSystemModel, distortion: float, capacity_bits: float
) -> Union[float, NotNeeded]:
    """Smallest sampling rate keeping the code rate below a channel capacity.

    The rate is nondecreasing in the sampling interval (the increment
    covariance grows in the Loewner order) and, for Hurwitz drift, never
    exceeds the Lyapunov ceiling.  So a stable model whose ceiling is below
    capacity returns NotNeeded at once.  Otherwise one stacked evaluation at
    every decade from DT_FLOOR up to their geometric middle 1e3, and only if
    all stay below capacity one at every decade above it up to DT_CEILING,
    finds the first decade at or above capacity.  The decade below it is
    the first cell of a lattice in which every cell is cut into
    _REFINE_PARTS geometric parts, down to cells no wider than
    BISECTION_RTOL; 1 / dt is returned for the lower end of the finest cell
    holding the crossing, the longest interval found below capacity.

    Each round makes one stacked evaluation: the inner edges of the current
    cell, plus the two edges of every finer cell on the lattice path to a
    predicted crossing (log-linear regula falsi on the tightest evaluated
    pair around the threshold).  The descent takes the part whose upper
    edge is the first not below the threshold, then follows the predicted
    path for as long as each of its cells straddles the threshold.  As the
    rate of an interval does not depend on its stack, and a straddling cell
    of a nondecreasing rate is the part the plain refinement would keep,
    the result is that of refining one level per round, in about half the
    evaluations; a wrong prediction costs only its extra stack entries.

    Raises ValueError for a capacity that is not positive and finite,
    CapacityInfeasibleError when the rate is at or above capacity even at
    DT_FLOOR, and ValueError when it overflows short of capacity;
    returns NotNeeded when it stays below capacity up to DT_CEILING.
    """
    capacity_bits = float(capacity_bits)
    if not capacity_bits > 0.0:
        raise ValueError("capacity must be positive")
    if capacity_bits == math.inf:
        raise ValueError("capacity must be finite")
    threshold = capacity_bits - CAPACITY_MARGIN_BITS

    ceiling = None
    try:
        ceiling = rate_ceiling(model, distortion).rate_bits
        if ceiling < capacity_bits:
            return NotNeeded(ceiling_bits=ceiling, zero_rate=(ceiling <= 0.0))
    except NoEquilibriumError:
        pass

    def rate_bits(dts: list) -> list:
        return (_increment_rates(model, np.array(dts), distortion)[0] / LN2).tolist()

    def first_not_below(bits: list) -> int:
        return next((i for i, b in enumerate(bits) if not b < threshold), len(bits))

    first, last = (round(math.log10(dt)) for dt in (DT_FLOOR, DT_CEILING))
    decades = [10.0**decade for decade in range(first, last + 1)]
    bits = rate_bits(decades[: len(decades) // 2 + 1])
    if first_not_below(bits) == len(bits):
        bits += rate_bits(decades[len(bits) :])
    crossing = first_not_below(bits)
    if crossing == len(decades):
        return NotNeeded(ceiling_bits=ceiling, zero_rate=bits[-1] <= 0.0)
    if crossing == 0:
        raise CapacityInfeasibleError(
            f"code rate stays at or above {capacity_bits} bits down to dt={DT_FLOOR}"
        )
    lo, hi = decades[crossing - 1], decades[crossing]
    known = {lo: bits[crossing - 1], hi: bits[crossing]}
    while hi / lo > 1.0 + BISECTION_RTOL:
        # The tightest evaluated pair: the smallest interval in the cell not
        # below the threshold and the largest one below it.
        above = min(dt for dt, b in known.items() if not b < threshold)
        below = max(dt for dt, b in known.items() if dt < above and b < threshold)
        guess = _predict_crossing(below, known[below], above, known[above], threshold)
        path, (edges, *_) = _lattice_path(lo, hi, guess)
        fresh = [dt for dt in dict.fromkeys(chain(edges[1:-1], *path[1:])) if dt not in known]
        known.update(zip(fresh, rate_bits(fresh)))
        part = first_not_below([known[dt] for dt in edges[1:-1]])
        lo, hi = edges[part], edges[part + 1]
        if (lo, hi) == path[0]:
            for lower, upper in path[1:]:
                if not (lower == lo or known[lower] < threshold) or known[upper] < threshold:
                    break
                lo, hi = lower, upper
        known = {dt: b for dt, b in known.items() if lo <= dt <= hi}
    if not math.isfinite(known[hi]):
        raise ValueError(f"code rate overflows at dt={hi!r}, short of {capacity_bits} bits")
    return 1.0 / lo
