"""Linear stochastic systems driven by additive white noise.

Models dx = A x dt + dw with a constant drift A and noise intensity N,
computes the Gaussian law of the increment over an interval dt from a state,
and draws sample paths by exact discretization (the sampled chain has
exactly the analyzed increment law; there is no integrator bias).

The transition matrix Phi and the increment covariance W come from one
function, which increment_distribution and sample_paths share, and which
the rate path in coderate calls with a whole stack of sampling intervals:
one augmented exponential per interval, rebuilt by the interval-doubling
rule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .linalg import (
    _is_hurwitz,
    _Multiples,
    _positive_int,
    _scaled_exp_multiples,
    _sign_iteration,
    _symmetrize,
    as_square,
    as_vector,
    check_symmetric,
    max_abs,
)
from .ratedistortion import _mode_variances
from .rng import PATH_LANE, substream
from .trajectories import TrajectoryDataset

#: Most negative eigenvalue accepted in the noise intensity matrix.
NOISE_PSD_TOL = 1e-9


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
class LinearSystemModel:
    """Drift plus symmetric PSD noise intensity (units: state^2 / time).

    Both arrays are read-only, so a model keeps what its rates read of
    them: its augmented generator M (_multiples), built with the model; the
    power norms of M, formed by its first increment law or rate (the
    27th-power row only if a count needs it); and its Lyapunov
    equilibrium and its mode variances, formed by its first ceiling (every
    curve and sampling-rate search takes one), None where the drift is not
    Hurwitz (_equilibrium, _equilibrium_modes).  No result of a sampling
    interval is kept.
    """

    drift: ConstantDrift
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
        object.__setattr__(self, "_multiples", _Multiples(_generators(self.drift.matrix, noise)))

    @classmethod
    def constant(cls, a, noise) -> "LinearSystemModel":
        return cls(ConstantDrift(a), noise)

    @property
    def dimension(self) -> int:
        return self.drift.dimension

    @cached_property
    def _equilibrium(self) -> Optional[np.ndarray]:
        """The constant drift's Lyapunov equilibrium, read-only; None if the drift is not Hurwitz.

        The array is the one lyapunov_solve returns for the model's drift and
        noise.  Where the sign iteration reaches no finite equilibrium, this
        raises its NoEquilibriumError, and nothing is kept.
        """
        drift = self.drift.matrix
        if not _is_hurwitz(drift):
            return None
        # lyapunov_solve symmetrizes its noise argument once more.
        equilibrium = _sign_iteration(drift, _symmetrize(self.noise_intensity))
        equilibrium.setflags(write=False)
        return equilibrium

    @cached_property
    def _equilibrium_modes(self) -> Optional[np.ndarray]:
        """_mode_variances of the stack of the one _equilibrium, read-only; None if it is None."""
        if self._equilibrium is None:
            return None
        modes = _mode_variances(self._equilibrium[np.newaxis])
        modes.setflags(write=False)
        return modes


@dataclass(frozen=True)
class IncrementDistribution:
    """Gaussian law of the forward increment over an interval dt."""

    mean: np.ndarray
    covariance: np.ndarray


def _generators(a: np.ndarray, noise: np.ndarray) -> np.ndarray:
    """Augmented generator M = [[-A, N], [0, A^T]] of each drift matrix of a stack (..., n, n)."""
    n = noise.shape[0]
    block = np.zeros(a.shape[:-2] + (2 * n, 2 * n))
    block[..., :n, :n], block[..., :n, n:], block[..., n:, n:] = -a, noise, a.swapaxes(-1, -2)
    return block


def _compose(phi_j, w_j, phi, w):
    """(Phi, W) over [s, u] from (phi, w) over [s, r] and (phi_j, w_j) over [r, u]."""
    return phi_j @ phi, _symmetrize(phi_j @ w @ phi_j.swapaxes(-1, -2) + w_j)


def _van_loan(exp: np.ndarray, doublings: np.ndarray):
    """(Phi, W) of each generator Omega = M dt of a stack over its interval.

    exp and doublings are _scaled_exp_multiples of the multiples M dt of
    the model's generator M, which reads the count s of M dt from the powers
    of M alone: the power norms d_k(M dt) = dt d_k(M), up to dt ||M|| = 2^102
    (past it the stacked powers of M dt can overflow, and their count
    stays).  F = exp(Omega 2^-s)
    gives Phi = F22^T and W = sym(Phi F12) over 1/2^s of the interval (Van
    Loan 1978, IEEE TAC 23(3)), and s doublings (_compose with itself)
    rebuild the interval.  Each generator is doubled only its own s times:
    the stack is ordered by s (stably sorted, and put back at the end,
    unless s already ascends as on an ascending grid), so that those still
    doubling are a suffix.

    At levels 8, 16, 32, ... the doubling ends once every interval of the
    suffix has settled, which depends on its own values alone:
    - the last doubling left its (Phi, W) unchanged bit for bit: _compose is
      a pure function, so every later doubling would too;
    - every entry of its Phi and of its W is non-finite: inf and NaN never
      turn finite under + and *, and sym() keeps each non-finite entry.
    The doubling checked is kept, so every finite entry of (Phi, W) is the
    one all s doublings give, and every non-finite entry is non-finite after
    them too.
    """
    n = exp.shape[-1] // 2
    with np.errstate(over="ignore", invalid="ignore"):
        phi = np.ascontiguousarray(exp[:, n:, n:].swapaxes(1, 2))
        w = _symmetrize(phi @ exp[:, :n, n:])
        order = None
        if (doublings[1:] < doublings[:-1]).any():
            order = np.argsort(doublings, kind="stable")
            phi, w, doublings = phi[order], w[order], doublings[order]
        starts = np.searchsorted(doublings, np.arange(doublings.max(initial=0)), side="right")
        for level, start in enumerate(starts.tolist(), start=1):
            p, q = phi[start:], w[start:]
            new_phi, new_w = _compose(p, q, p, q)
            if level >= 8 and level & (level - 1) == 0:
                same = (new_phi.view(np.uint64) == p.view(np.uint64)).all(axis=(1, 2))
                same &= (new_w.view(np.uint64) == q.view(np.uint64)).all(axis=(1, 2))
                lost = ~np.isfinite(new_phi).any(axis=(1, 2)) & ~np.isfinite(new_w).any(axis=(1, 2))
                if (same | lost).all():
                    phi[start:], w[start:] = new_phi, new_w
                    break
            phi[start:], w[start:] = new_phi, new_w
    if order is None:
        return phi, w
    restore = np.argsort(order)
    return phi[restore], w[restore]


def _transition_and_gramian(model: LinearSystemModel, dt):
    """Transition matrix Phi and increment covariance W over an interval dt.

    dt is a scalar or an array of intervals.  Phi and W come back with dt's
    shape followed by (n, n), each interval computed on its own, so its
    result does not depend on the rest of the array.  The drift is constant,
    so the law does not depend on where the interval starts.  The
    generators M dt of all intervals are one stack for _van_loan, which
    solves H' = H M by H = [[Phi^-1, Phi^-1 W], [0, Phi^T]] and carries each
    exponential's own scaling 2^-s out as s interval doublings, never as
    squarings of the augmented block.  Their counts come from the powers of
    the one generator M, built with the model (its _multiples), whose power
    norms the model's first call here forms and keeps (its equilibrium is
    solved by coderate.rate_ceiling alone): d_k(M dt) = dt d_k(M) for the
    power norms d_k = ||A^k||^(1/k) of the count.  Intervals with dt ||M|| at
    or past 2^102, where the stacked powers of M dt can overflow and the
    count falls back to ||M dt||, keep the stacked count of M dt (see
    linalg._scaled_exp_multiples), so each count agrees with the one the
    stack M dt gives, to rounding.
    For unstable drift at extreme horizons entries may overflow to inf, which
    callers treat as an unbounded-rate signal.
    """
    dts = np.asarray(dt, dtype=float)
    if not ((dts > 0.0) & (dts < math.inf)).all():
        raise ValueError("sampling interval must be positive and finite")
    n = model.dimension
    phi, w = _van_loan(*_scaled_exp_multiples(model._multiples, dts.ravel()))
    return phi.reshape(dts.shape + (n, n)), w.reshape(dts.shape + (n, n))


def increment_distribution(model: LinearSystemModel, x_t, dt: float) -> IncrementDistribution:
    """Gaussian law of the increment over dt from the state x_t; ValueError if it overflows."""
    x = as_vector(x_t, "state")
    if x.shape[0] != model.dimension:
        raise ValueError("state dimension does not match the model")
    phi, cov = _finite_law(model, float(dt))
    return IncrementDistribution((phi - np.eye(model.dimension)) @ x, cov)


def _finite_law(model: LinearSystemModel, dt: float):
    """Phi and W over one interval dt; ValueError unless both are finite."""
    phi, cov = _transition_and_gramian(model, dt)
    if not (np.isfinite(phi).all() and np.isfinite(cov).all()):
        raise ValueError(f"the increment law overflows at dt = {dt:g}")
    return phi, cov


def _covariance_sqrt(cov: np.ndarray) -> np.ndarray:
    """Eigenvalue square root R = V sqrt(max(Lambda, 0)) of W: R R^T = W, singular W included."""
    values, vectors = np.linalg.eigh(cov)
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
    Phi @ x + R @ z.  Raises ValueError if steps or trials is not a positive
    integer, if Phi or W is not finite at this dt, or, naming the first trial
    and step, if a path leaves the float range.
    """
    dt = float(dt)
    steps, trials = _positive_int(steps, "steps"), _positive_int(trials, "trials")
    x0 = as_vector(x0, "initial state")
    n = model.dimension
    if x0.shape[0] != n:
        raise ValueError("initial state dimension does not match the model")
    phi, cov = _finite_law(model, dt)
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
            np.matmul(phi, before, drift)
            np.add(after, drift, after)
    if not np.isfinite(states).all():
        step, trial = np.argwhere(~np.isfinite(states).all(axis=(2, 3)))[0]
        raise ValueError(f"sample path of trial {trial} overflows at step {step} (dt = {dt:g})")
    return TrajectoryDataset(dt, states[..., 0].swapaxes(0, 1))
