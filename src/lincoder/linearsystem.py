"""Linear stochastic systems driven by additive white noise.

Models dx = A(t) x dt + dw with noise intensity N, computes the Gaussian
law of the forward increment X(t + dt) - X(t) | X(t), and draws sample
paths by exact discretization (the sampled chain has exactly the analyzed
increment law; there is no integrator bias).

The transition matrix Phi and the increment covariance W of both drift
kinds come from one function, which state_transition,
increment_distribution and sample_paths share, and which the rate path in
coderate calls with a whole stack of sampling intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .linalg import as_square, as_vector, check_symmetric, mat_exp, max_abs
from .rng import PATH_LANE, substream
from .trajectories import TrajectoryDataset

#: Most negative eigenvalue accepted in the noise intensity matrix.
NOISE_PSD_TOL = 1e-9
#: Largest norm1(A) * dt of the one augmented exponential; longer horizons
#: are halved below it and rebuilt by interval doubling (avoids overflow
#: of the anti-stable block at large horizons).
GRAMIAN_SPLIT_NORM = 4.0
#: Fixed-substep integrator floor and norm factor for time-varying drift.
MIN_SUBSTEPS = 64
SUBSTEP_NORM_FACTOR = 16.0
#: Cholesky pivot cutoff (relative to the trace) below which the noise
#: square root falls back to the eigenvalue square root.
SQRT_PIVOT_RTOL = 1e-12


@dataclass(frozen=True)
class ConstantDrift:
    """Time-invariant drift matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        arr = as_square(self.matrix, "drift matrix").copy()
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class TimeVaryingDrift:
    """Drift given as a function t -> A(t), evaluable on any finite window."""

    matrix_at: Callable[[float], np.ndarray]
    dimension: int

    def evaluate(self, t: float) -> np.ndarray:
        arr = as_square(self.matrix_at(float(t)), "drift matrix")
        if arr.shape[0] != self.dimension:
            raise ValueError("time-varying drift returned a matrix of wrong size")
        return arr


Drift = Union[ConstantDrift, TimeVaryingDrift]


@dataclass(frozen=True)
class LinearSystemModel:
    """Drift plus symmetric PSD noise intensity (units: state^2 / time)."""

    drift: Drift
    noise_intensity: np.ndarray

    def __post_init__(self):
        noise = check_symmetric(
            as_square(self.noise_intensity, "noise intensity"), "noise intensity"
        )
        if noise.shape[0] != self.drift.dimension:
            raise ValueError("drift and noise intensity sizes do not agree")
        smallest = float(np.linalg.eigvalsh(noise)[0])
        if smallest < -NOISE_PSD_TOL * max(1.0, max_abs(noise)):
            raise ValueError("noise intensity is not positive semidefinite")
        noise.setflags(write=False)
        object.__setattr__(self, "noise_intensity", noise)

    @classmethod
    def constant(cls, a, noise) -> "LinearSystemModel":
        return cls(ConstantDrift(a), noise)

    @classmethod
    def time_varying(cls, matrix_at, dimension, noise) -> "LinearSystemModel":
        return cls(TimeVaryingDrift(matrix_at, int(dimension)), noise)

    @property
    def dimension(self) -> int:
        return self.drift.dimension

    @property
    def is_constant(self) -> bool:
        return isinstance(self.drift, ConstantDrift)


@dataclass(frozen=True)
class IncrementDistribution:
    """Gaussian law of the forward increment over [t, t + dt]."""

    mean: np.ndarray
    covariance: np.ndarray
    t: float
    dt: float


def _substep_count(dt: float, norm: float) -> int:
    return max(MIN_SUBSTEPS, int(math.ceil(dt * norm * SUBSTEP_NORM_FACTOR)))


def _rk4(f, y0: np.ndarray, t0: float, dt: float, steps: int) -> np.ndarray:
    """Classical fourth-order one-step method with fixed substeps."""
    h = dt / steps
    y = y0
    t = t0
    for _ in range(steps):
        k1 = f(t, y)
        k2 = f(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = f(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return y


def _van_loan(a: np.ndarray, noise: np.ndarray, dts: np.ndarray):
    """One augmented exponential per interval: returns (transition, covariance) stacks."""
    n = a.shape[0]
    block = np.zeros((2 * n, 2 * n))
    block[:n, :n] = -a
    block[:n, n:] = noise
    block[n:, n:] = a.T
    exp = mat_exp(block * dts[:, np.newaxis, np.newaxis])
    f12 = exp[:, :n, n:]
    phi = np.ascontiguousarray(exp[:, n:, n:].swapaxes(1, 2))
    w = phi @ f12
    return phi, 0.5 * (w + w.swapaxes(1, 2))


def _transition_and_gramian(model: LinearSystemModel, t: float, dt):
    """Transition matrix Phi and increment covariance W over [t, t + dt].

    dt is a scalar or an array of intervals; Phi and W come back with dt's
    shape followed by (n, n), each interval computed on its own, so its result
    does not depend on the rest of the array.
    Constant drift: per interval, one augmented exponential over dt / 2^k,
    then k interval doublings W(2s) = Phi W Phi^T + W; k is 0 while
    norm1(A) * dt <= GRAMIAN_SPLIT_NORM.  The exponentials of all intervals
    are one stacked call, and each interval is doubled only its own k times.
    For unstable drift at extreme horizons entries may overflow to inf, which
    callers treat as an unbounded-rate signal.
    Time-varying drift: per interval, one fixed-substep fourth-order pass on
    the pair dPhi/dt = A Phi, dW/dt = A W + W A^T + N, so results are
    deterministic.
    """
    dts = np.asarray(dt, dtype=float)
    if not np.all((dts > 0.0) & (dts < math.inf)):
        raise ValueError("sampling interval must be positive and finite")
    intervals = dts.ravel()
    noise = model.noise_intensity
    n = model.dimension
    if model.is_constant:
        a = model.drift.matrix
        scale = np.maximum(np.linalg.norm(a, 1) * intervals, GRAMIAN_SPLIT_NORM)
        doublings = np.minimum(96, np.ceil(np.log2(scale / GRAMIAN_SPLIT_NORM))).astype(int)
        phi, w = _van_loan(a, noise, intervals / 2.0**doublings)
        with np.errstate(over="ignore", invalid="ignore"):
            for step in range(int(doublings.max(initial=0))):
                live = np.flatnonzero(doublings > step)
                p = phi[live]
                v = p @ w[live] @ p.swapaxes(1, 2) + w[live]
                w[live] = 0.5 * (v + v.swapaxes(1, 2))
                phi[live] = p @ p
    else:
        drift = model.drift

        def ode(tau, pair):
            a = drift.evaluate(tau)
            phi, w = pair
            return np.stack((a @ phi, a @ w + w @ a.T + noise))

        norm = float(np.linalg.norm(drift.evaluate(t), 1))
        start = np.stack((np.eye(n), np.zeros((n, n))))
        pairs = np.array(
            [_rk4(ode, start, float(t), h, _substep_count(h, norm)) for h in intervals.tolist()]
        )
        phi, w = pairs[:, 0], pairs[:, 1]
        w = 0.5 * (w + w.swapaxes(1, 2))
    return phi.reshape(dts.shape + (n, n)), w.reshape(dts.shape + (n, n))


def state_transition(model: LinearSystemModel, t: float, dt: float) -> np.ndarray:
    """Transition matrix over [t, t + dt]: the Phi of the increment law, or I at dt = 0."""
    dt = float(dt)
    if dt < 0.0:
        raise ValueError("sampling interval must be nonnegative")
    if dt == 0.0:
        return np.eye(model.dimension)
    return _transition_and_gramian(model, t, dt)[0]


def increment_distribution(
    model: LinearSystemModel, x_t, t: float, dt: float
) -> IncrementDistribution:
    """Gaussian law of X(t + dt) - X(t) given X(t) = x_t."""
    dt = float(dt)
    x = as_vector(x_t, "state")
    if x.shape[0] != model.dimension:
        raise ValueError("state dimension does not match the model")
    phi, cov = _transition_and_gramian(model, t, dt)
    mean = (phi - np.eye(model.dimension)) @ x
    return IncrementDistribution(mean, cov, float(t), dt)


def _covariance_sqrt(cov: np.ndarray) -> np.ndarray:
    """Cholesky factor, or the eigenvalue square root when near-singular."""
    with np.errstate(over="ignore"):
        # A finite W near the float limit can have an infinite trace; the
        # eigenvalue square root then takes over.
        trace = float(np.trace(cov))
    try:
        chol = np.linalg.cholesky(cov)
        if float(np.min(np.diag(chol))) ** 2 >= SQRT_PIVOT_RTOL * max(trace, 0.0):
            return chol
    except np.linalg.LinAlgError:
        pass
    values, vectors = np.linalg.eigh(0.5 * (cov + cov.T))
    return vectors * np.sqrt(np.clip(values, 0.0, None))


def sample_paths(
    model: LinearSystemModel,
    x0,
    dt: float,
    steps: int,
    trials: int,
    seed: int,
) -> TrajectoryDataset:
    """Exact-discretization sample paths of a constant-drift model.

    x_{k+1} = Phi x_k + xi_k with xi_k = R z_k, R R^T = W(dt), and z_k row k
    of one standard_normal((steps, n)) draw from the trial's counter-based
    cell (seed, PATH_LANE, trial, 0), so the dataset is a pure function of
    the arguments regardless of evaluation order, trials are independent,
    and shorter runs are prefixes of longer ones.  The states are held
    step-major, one (trials, n, 1) block per step: all shocks R z_k are one
    stacked product written into the blocks of steps 1..steps, and then
    each step adds Phi times the block before it, in place, through one
    preallocated buffer.  Every stacked (n, n) @ (n, 1) product is the
    matvec Phi @ x itself, so each trial keeps the bits of its own
    Phi @ x + R @ z.  Raises ValueError if Phi or W is not finite at this dt,
    or, naming the first trial and step, if a path leaves the float range.
    """
    if not model.is_constant:
        raise ValueError("sample paths require constant drift")
    dt = float(dt)
    if steps < 1 or trials < 1:
        raise ValueError("need at least one step and one trial")
    x0 = as_vector(x0, "initial state")
    n = model.dimension
    if x0.shape[0] != n:
        raise ValueError("initial state dimension does not match the model")
    phi, cov = _transition_and_gramian(model, 0.0, dt)
    if not (np.isfinite(phi).all() and np.isfinite(cov).all()):
        raise ValueError(f"the increment law overflows at dt = {dt:g}")
    root = _covariance_sqrt(cov)
    z = np.stack(
        [substream(seed, PATH_LANE, t, 0).standard_normal((steps, n)) for t in range(trials)],
        axis=1,
    )
    states = np.empty((steps + 1, trials, n, 1))
    states[0] = x0[:, np.newaxis]
    drift = np.empty((trials, n, 1))
    rows = list(states)
    # Stacked (n, n) @ (n, 1) products round as phi @ x does; x @ phi.T and
    # one product over all trials' columns do not.
    with np.errstate(over="ignore", invalid="ignore"):
        np.matmul(root, z[..., np.newaxis], out=states[1:])
        for before, after in zip(rows, rows[1:]):
            np.matmul(phi, before, out=drift)
            np.add(after, drift, out=after)
    finite = np.isfinite(states).all(axis=(2, 3))
    if not finite.all():
        step, trial = np.argwhere(~finite)[0]
        raise ValueError(f"sample path of trial {trial} overflows at step {step} (dt = {dt:g})")
    return TrajectoryDataset(dt, states[..., 0].swapaxes(0, 1))
