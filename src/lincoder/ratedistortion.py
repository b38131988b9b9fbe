"""Rate distortion function of a multivariate Gaussian source.

Mean-square distortion only.  The optimal rate follows from reverse
water-filling on the eigenvalues of the covariance: each eigenmode is
allocated distortion min(theta, sigma_i^2), with the water level theta
chosen so the allocations sum to the distortion budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import FastPathDomainError
from .linalg import as_square, check_symmetric, logdet_psd

#: Most negative eigenvalue accepted (then clamped to zero) before the
#: covariance is rejected as non-PSD.
NEGATIVE_EIGENVALUE_TOL = 1e-9

LN2 = math.log(2.0)


@dataclass(frozen=True)
class RdfResult:
    """Rate, water level and per-eigenmode distortion allocations."""

    rate_nats: float
    rate_bits: float
    water_level: float
    allocations: np.ndarray


def _mode_variances(covariances: np.ndarray) -> np.ndarray:
    """Eigenvalues of each covariance of a stack, descending, unresolved/negative clamped to 0.

    The rate reads the eigenvalues alone, so eigvalsh computes no
    eigenvectors.  An eigenvalue at or below its error floor
    n * eps * lambda_max is a zero mode: it carries no rate, and rounding
    must not produce -inf.  Every caller passes exactly symmetric, finite
    matrices (a symmetrized W or a covariance checked on entry), so
    eigvalsh needs no check before it.
    """
    values = np.linalg.eigvalsh(covariances)[..., ::-1]
    top = values[..., :1]
    if (values[..., -1:] < -NEGATIVE_EIGENVALUE_TOL * np.maximum(1.0, np.abs(top))).any():
        raise ValueError("covariance is not positive semidefinite within tolerance")
    floor = values.shape[-1] * np.finfo(float).eps * np.maximum(top, 0.0)
    return np.where(values > floor, values, 0.0)


def _budget(distortion) -> float:
    """The distortion budget as a float; ValueError unless it is nonnegative."""
    distortion = float(distortion)
    if not distortion >= 0.0:
        raise ValueError("distortion budget must be nonnegative")
    return distortion


def _water_fill(covariances: np.ndarray, distortion: float):
    """Reverse water-filling on a stack of covariances (m, n, n) at one budget.

    Returns the stacks (rate_nats, water_level, allocations).  Every
    covariance is filled on its own, so its result does not depend on the
    rest of the stack.  The budget is checked before any eigenvalue.
    """
    distortion = _budget(distortion)
    return _fill_modes(_mode_variances(covariances), distortion)


def _fill_modes(variances: np.ndarray, distortion: float):
    """_water_fill of the stack whose _mode_variances (m, n) are given, which it only reads."""
    # Finite variances may sum past the float range: their suffix sums are then inf.
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        suffix = np.cumsum(variances[:, ::-1], axis=1)[:, ::-1]  # sum(variances[:, i:])
        # With the k largest modes above water, the level solves k * theta +
        # tails[k - 1] = D (Cover & Thomas, Thm 10.3.3).  As k * theta +
        # tails[k - 1] >= sum(min(theta, variances)) for every theta, each of
        # these n candidate levels is at most the true one, which is among them.
        tails = np.concatenate((suffix[:, 1:], np.zeros((len(suffix), 1))), axis=1)
        theta = ((distortion - tails) / np.arange(1, variances.shape[1] + 1)).max(axis=1)
        allocations = np.minimum(theta[:, None], variances)
        active = variances > allocations
        rate_nats = 0.5 * np.log(np.where(active, variances / allocations, 1.0)).sum(axis=1)
    # A zero budget gives theta = 0 and log(variance / 0) = inf on every
    # positive mode.  A budget covering the total variance costs nothing:
    # every mode is fully allocated.
    free = distortion >= suffix[:, 0]
    rate_nats[free], theta[free], allocations[free] = 0.0, variances[free, 0], variances[free]
    return rate_nats, theta, allocations


def _first_result(rate, level, allocations) -> RdfResult:
    """The first entry of the (rate_nats, water_level, allocations) stacks of _water_fill."""
    return RdfResult(float(rate[0]), float(rate[0]) / LN2, float(level[0]), allocations[0])


def rdf(covariance, distortion: float) -> RdfResult:
    """Rate distortion function of a Gaussian at the given mean-square distortion budget.

    Returns the rate in nats and bits per symbol, the water level, and the
    distortion allocated to each eigenmode.  The rate depends on the
    covariance alone (it is translation invariant), which must be finite,
    square and symmetric within SYMMETRY_TOL.  A budget of exactly zero on
    a source with any positive variance yields an infinite rate.
    """
    covariance = check_symmetric(as_square(covariance, "covariance"), "covariance")
    return _first_result(*_water_fill(covariance[np.newaxis], distortion))


def rdf_small_distortion(covariance, distortion: float) -> float:
    """log-det shortcut for the rate (nats) when no mode is drowned.

    Valid only for distortion/n strictly below the smallest eigenvalue of a
    positive definite covariance; otherwise raises FastPathDomainError and
    the caller must use the full water-filling path.
    """
    covariance = check_symmetric(as_square(covariance, "covariance"), "covariance")
    distortion = _budget(distortion)
    n = covariance.shape[0]
    smallest = float(_mode_variances(covariance)[-1])
    if smallest <= 0.0 or distortion / n >= smallest:
        raise FastPathDomainError(
            "shortcut requires distortion/n strictly below the smallest eigenvalue"
        )
    if distortion == 0.0:
        return math.inf
    return 0.5 * logdet_psd(covariance) - 0.5 * n * math.log(distortion / n)
