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
from .linalg import as_vector, check_symmetric, as_square, logdet_psd, sym_eig

#: Eigenvalues below this fraction of the largest are treated as exact zero
#: modes: they carry no rate and numerical noise must not produce -inf.
ZERO_MODE_RTOL = 1e-12
#: Most negative eigenvalue accepted (then clamped to zero) before the
#: covariance is rejected as non-PSD.
NEGATIVE_EIGENVALUE_TOL = 1e-9

LN2 = math.log(2.0)


@dataclass(frozen=True)
class GaussianSource:
    """Memoryless Gaussian source with the given mean and covariance."""

    mean: np.ndarray
    covariance: np.ndarray

    def __post_init__(self):
        mean = as_vector(self.mean, "mean")
        if mean.size == 0:
            raise ValueError("source dimension must be at least 1")
        cov = check_symmetric(as_square(self.covariance, "covariance"), "covariance")
        if cov.shape[0] != mean.shape[0]:
            raise ValueError("mean and covariance dimensions do not agree")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "covariance", cov)

    @property
    def dimension(self) -> int:
        return self.mean.shape[0]


@dataclass(frozen=True)
class RdfResult:
    """Rate, water level and per-eigenmode distortion allocations."""

    rate_nats: float
    rate_bits: float
    water_level: float
    allocations: np.ndarray


def _mode_variances(source: GaussianSource) -> np.ndarray:
    """Eigenvalues of the covariance, descending, small/negative clamped to 0."""
    values = sym_eig(source.covariance).values
    top = float(values[0])
    if float(values[-1]) < -NEGATIVE_EIGENVALUE_TOL * max(1.0, abs(top)):
        raise ValueError("covariance is not positive semidefinite within tolerance")
    cutoff = ZERO_MODE_RTOL * max(top, 0.0)
    return np.where(values > cutoff, values, 0.0)


def rdf(source: GaussianSource, distortion: float) -> RdfResult:
    """Rate distortion function at the given mean-square distortion budget.

    Returns the rate in nats and bits per symbol, the water level, and the
    distortion allocated to each eigenmode.  The mean is ignored: the rate
    is translation invariant.  A budget of exactly zero on a source with
    any positive variance yields an infinite rate.
    """
    distortion = float(distortion)
    if not distortion >= 0.0:
        raise ValueError("distortion budget must be nonnegative")
    variances = _mode_variances(source)
    suffix = np.cumsum(variances[::-1])[::-1]  # suffix[i] = sum(variances[i:])
    total = float(suffix[0])
    if distortion >= total:
        # Budget covers the total variance: zero rate, every mode fully allocated.
        return RdfResult(0.0, 0.0, float(variances[0]), variances.copy())
    if distortion == 0.0:
        return RdfResult(math.inf, math.inf, 0.0, np.zeros_like(variances))

    # With the k largest modes above water, sum(min(theta, variances)) is
    # k * theta + tails[k - 1]; mode k is above water exactly when that sum at
    # theta = variances[k - 1] exceeds the budget (Cover & Thomas, Thm
    # 10.3.3).  Row k = 1 is the total, so k >= 1.
    tails = np.append(suffix[1:], 0.0)
    ranks = np.arange(1, variances.size + 1)
    k = int(np.count_nonzero(ranks * variances + tails > distortion))
    theta = (distortion - float(tails[k - 1])) / k
    allocations = np.minimum(theta, variances)
    active = variances > allocations
    rate_nats = 0.5 * float(np.sum(np.log(variances[active] / allocations[active])))
    return RdfResult(rate_nats, rate_nats / LN2, theta, allocations)


def rdf_small_distortion(source: GaussianSource, distortion: float) -> float:
    """log-det shortcut for the rate (nats) when no mode is drowned.

    Valid only for distortion/n strictly below the smallest eigenvalue of a
    positive definite covariance; otherwise raises FastPathDomainError and
    the caller must use the full water-filling path.
    """
    distortion = float(distortion)
    if not distortion >= 0.0:
        raise ValueError("distortion budget must be nonnegative")
    n = source.dimension
    smallest = float(_mode_variances(source)[-1])
    if smallest <= 0.0 or distortion / n >= smallest:
        raise FastPathDomainError(
            "shortcut requires distortion/n strictly below the smallest eigenvalue"
        )
    if distortion == 0.0:
        return math.inf
    return 0.5 * logdet_psd(source.covariance) - 0.5 * n * math.log(distortion / n)
