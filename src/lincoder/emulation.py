"""Source-family simplex codec and data-based trajectory emulation.

A family of constant vector fields, stored as the columns of one matrix V
and driven by binary activations, defines a control system whose endpoint
map doubles as a decompressor for observed state increments.  Constant
fields commute, so an endpoint depends only on the occupancy, the time
each field is active: it is x + V @ occupancy.  The codec is the simplex
code: relative flow-time fractions plus a total flow time, whose product
is the occupancy, compressed exactly by the linear program minimizing the
total flow time, solved over the family's optimal (dual-feasible) bases,
found once per family; among optimal codes the least replay spread wins.

On top of the simplex codec sits a non-parametric emulator: observed
increments of an unknown system are compressed trial by trial, and each
emulated step replays the code of one feasible trial drawn uniformly at
random, through multinomial draws of its field-selection frequencies, at
the step's cross-trial average flow time.  ``replay_statistics`` measures
how well a replay matches its training data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import InfeasibleTargetError
from .linalg import _positive_int, as_matrix, as_vector
from .rng import EMULATION_LANE, substream
from .simplexlp import solve_nonnegative_lp
from .trajectories import TrajectoryDataset

#: Simplex membership slack accepted by SimplexCode.
SIMPLEX_TOL = 5e-12
#: Floor on the scale of each cov_discrepancy_rms gap, relative to the step's mean
#: squared training increment: below it the covariance is rounding (identical trials).
COV_SCALE_RTOL = 1e-12


class SourceFamily:
    """Finite family of constant vector fields sharing one state dimension.

    The fields are the columns of one read-only (dimension, size) matrix V.
    """

    def __init__(self, matrix):
        matrix = as_matrix(matrix, "field matrix").copy()
        matrix.setflags(write=False)
        self._matrix = matrix

    @classmethod
    def from_vectors(cls, vectors) -> "SourceFamily":
        """Family with one field per row or entry of ``vectors``."""
        fields = [as_vector(v, "field vector") for v in vectors]
        if not fields:
            raise ValueError("a source family needs at least one field")
        if any(f.shape != fields[0].shape for f in fields):
            raise ValueError("all fields must share the same dimension")
        return cls(np.column_stack(fields))

    @property
    def size(self) -> int:
        return self._matrix.shape[1]

    @property
    def dimension(self) -> int:
        return self._matrix.shape[0]

    def field_matrix(self) -> np.ndarray:
        """Field values as columns, shape (dimension, size); read-only."""
        return self._matrix


@dataclass(frozen=True)
class SimplexCode:
    """Relative flow-time fractions plus the total flow time."""

    probabilities: np.ndarray
    flow_time: float

    def __post_init__(self):
        p = as_vector(self.probabilities, "probabilities").copy()
        if p.size == 0:
            raise ValueError("probability vector must be non-empty")
        if np.any(p < -SIMPLEX_TOL) or abs(float(p.sum()) - 1.0) > SIMPLEX_TOL * p.size:
            raise ValueError("probabilities must lie on the simplex")
        z = float(self.flow_time)
        if not np.isfinite(z) or z < 0.0:
            raise ValueError("flow time must be finite and nonnegative")
        p.setflags(write=False)
        object.__setattr__(self, "probabilities", p)
        object.__setattr__(self, "flow_time", z)


def endpoint_map(family: SourceFamily, x_t, occupancy) -> np.ndarray:
    """Terminal state x_t + V @ occupancy, occupancy_i being the time field i is active.

    Constant fields commute, so neither the order of the activations nor
    their overlap moves the endpoint: any binary activation schedule
    reaches it through its occupancy.  A one-hot sequence of N indices over
    a horizon T has occupancy ``bincount(indices, minlength=K) * (T / N)``.
    """
    x = as_vector(x_t, "state")
    occupancy = as_vector(occupancy, "occupancy")
    if x.shape[0] != family.dimension:
        raise ValueError("state dimension does not match the family")
    if occupancy.shape[0] != family.size:
        raise ValueError("occupancy length does not match the family size")
    if np.any(occupancy < 0.0):
        raise ValueError("occupancy must be nonnegative")
    return x + family.field_matrix() @ occupancy


def _simplex_codes(family: SourceFamily, targets: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fractions and total flow times for a stack of increments (..., n).

    Increments outside the conic hull of the fields get NaN fractions and
    flow times; a zero flow time gets uniform fractions.
    """
    per_field = solve_nonnegative_lp(family.field_matrix(), targets)
    z = per_field.sum(axis=-1)
    with np.errstate(invalid="ignore"):
        p = per_field / z[..., None]
    p[z == 0.0] = 1.0 / family.size
    return p, z


def simplex_compress(family: SourceFamily, target_dx) -> SimplexCode:
    """Exact simplex code for a reachable increment of a constant family.

    The per-field flow times x minimize the total flow time 1.x subject to
    V x = target and x >= 0; it is the basic solution of one of the
    family's optimal (dual-feasible) bases, built once per family (see
    ``simplexlp``).  Among optimal bases the least replay spread
    sum_i x_i |v_i|^2 wins, then the lowest basis index; the grid family,
    for one, has many optimal codes on its hull edges, and this rule keeps
    the adjacent fields.  A zero increment gets uniform fractions and flow
    time 0.  Raises InfeasibleTargetError when the increment lies outside
    the conic hull of the fields.
    """
    target = as_vector(target_dx, "target increment")
    if target.shape[0] != family.dimension:
        raise ValueError("target dimension does not match the family")
    p, z = _simplex_codes(family, target)
    if np.isnan(z):
        raise InfeasibleTargetError("increment lies outside the conic hull of the fields")
    return SimplexCode(p, float(z))


def simplex_decompress(family: SourceFamily, code: SimplexCode) -> np.ndarray:
    """Increment V @ p times the flow time, the same from every starting state."""
    if code.probabilities.shape[0] != family.size:
        raise ValueError("code length does not match the family size")
    return code.flow_time * (family.field_matrix() @ code.probabilities)


@dataclass(frozen=True)
class StepCodes:
    """Per-step simplex codes of a compressed training dataset.

    ``probabilities`` and ``flow_times`` are the cross-trial averages over
    the feasible trials.  ``trial_probabilities`` holds each trial's own
    fractions (NaN rows for infeasible trials) and ``trial_feasible`` marks
    the trials whose increment was compressed; without them the codes
    replay as one pseudo-trial with the averaged fractions.
    """

    probabilities: np.ndarray  # (steps, family size)
    flow_times: np.ndarray  # (steps,)
    feasible_trials: np.ndarray  # (steps,) int
    infeasible_trials: np.ndarray  # (steps,) int
    trial_probabilities: Optional[np.ndarray] = None  # (steps, trials, family size)
    trial_feasible: Optional[np.ndarray] = None  # (steps, trials) bool

    def __post_init__(self):
        if (self.trial_probabilities is None) != (self.trial_feasible is None):
            raise ValueError("per-trial fractions and feasibility must be given together")

    @property
    def steps(self) -> int:
        return self.flow_times.shape[0]

    @property
    def infeasible_count(self) -> int:
        return int(self.infeasible_trials.sum())


def compress_dataset(dataset: TrajectoryDataset, family: SourceFamily) -> StepCodes:
    """Compress every observed increment, keeping per-trial and averaged codes.

    All increments are solved in blocks over the same optimal bases and
    tie rule as ``simplex_compress``, so each gets the same code to rounding.
    Increments outside the attainable cone are skipped and counted; the
    per-step averages run over the feasible trials only.  A step with no
    feasible trial gets a zero flow time (the emulator then holds still).
    """
    if dataset.dimension != family.dimension:
        raise ValueError("dataset and family dimensions do not agree")
    trial_probabilities, trial_flow_times = _simplex_codes(
        family, dataset.increments().swapaxes(0, 1)
    )  # (steps, trials, family size), (steps, trials)
    trial_feasible = ~np.isnan(trial_flow_times)
    feasible = trial_feasible.sum(axis=1)
    good = np.maximum(feasible, 1)
    # nansum, not a masked reduce: along the contiguous trials axis of the
    # flow times a masked reduce adds in another order than the pairwise sum.
    probabilities = np.nansum(trial_probabilities, axis=1) / good[:, None]
    probabilities[feasible == 0] = 1.0 / family.size
    flow_times = np.nansum(trial_flow_times, axis=1) / good
    return StepCodes(
        probabilities,
        flow_times,
        feasible,
        trial_feasible.shape[1] - feasible,
        trial_probabilities,
        trial_feasible,
    )


def emulate_steps(
    codes: StepCodes,
    family: SourceFamily,
    x0,
    resolution: int,
    seed: int,
) -> np.ndarray:
    """Replay step codes through a per-step trial draw and multinomial counts.

    Each step draws one feasible trial uniformly, then field-selection counts
    from the multinomial with that trial's fractions, and moves by the step's
    averaged flow time times V @ (counts / resolution), as
    ``simplex_decompress`` would, so the states are one cumulative sum.  The
    mixture keeps the averaged field law and step mean at every resolution and
    restores the cross-trial spread that averaging removes.  Codes without
    per-trial fractions, and steps with no feasible trial, draw no trial index
    and use the averaged fractions.  Cell (seed, EMULATION_LANE, 0, 0) draws all
    trial picks in one integers call, cell (0, 1) all counts in one multinomial
    call; the replay is deterministic and its first k steps replay as a prefix.
    """
    resolution = _positive_int(resolution, "resolution")
    x = as_vector(x0, "initial state")
    if x.shape[0] != family.dimension:
        raise ValueError("initial state dimension does not match the family")
    if codes.probabilities.shape[1] != family.size or (
        codes.trial_probabilities is not None and codes.trial_probabilities.shape[2] != family.size
    ):
        raise ValueError("code length does not match the family size")
    flow_times = codes.flow_times.astype(float)
    if not np.all(np.isfinite(flow_times) & (flow_times >= 0.0)):
        raise ValueError("flow time must be finite and nonnegative")
    p = np.array(codes.probabilities, dtype=float)
    if codes.trial_feasible is not None:
        sizes = codes.trial_feasible.sum(axis=1)
        drawn = np.flatnonzero(sizes)
        picks = substream(seed, EMULATION_LANE, 0, 0).integers(sizes[drawn])
        # The picked trial is the first whose running feasible count exceeds the pick.
        ranks = np.cumsum(codes.trial_feasible[drawn], axis=1)
        p[drawn] = codes.trial_probabilities[drawn, np.argmax(ranks > picks[:, None], axis=1)]
    p = np.maximum(p, 0.0)
    p /= p.sum(axis=1, keepdims=True)
    fractions = substream(seed, EMULATION_LANE, 0, 1).multinomial(resolution, p) / resolution
    states = np.empty((codes.steps + 1, x.shape[0]))
    states[0] = x
    # Stacked (n, K) @ (K, 1) products round as V @ f does; cumsum adds in step order.
    states[1:] = flow_times[:, None] * (family.field_matrix() @ fractions[..., None])[..., 0]
    return np.cumsum(states, axis=0, out=states)


@dataclass(frozen=True)
class EmulationResult:
    """Emulated trajectory plus compression diagnostics."""

    states: np.ndarray
    codes: StepCodes


def emulate(
    dataset: TrajectoryDataset,
    family: SourceFamily,
    resolution: int,
    seed: int,
) -> EmulationResult:
    """Generate one new trajectory resembling a further independent trial.

    Per sampling instant: compress each trial's observed increment to a
    simplex code and average the flow times over the feasible trials, then
    draw one feasible trial, draw field-selection counts from the
    multinomial with that trial's fractions, and decompress them at the
    averaged flow time; the fields are constant, so the move does not
    depend on the emulated state.  The emulated path starts at the mean
    initial state.
    """
    codes = compress_dataset(dataset, family)
    x0 = dataset.states[:, 0, :].mean(axis=0)
    states = emulate_steps(codes, family, x0, resolution, seed)
    return EmulationResult(states, codes)


def replay_statistics(
    dataset: TrajectoryDataset, result: EmulationResult, family: SourceFamily, resolution: int
) -> tuple[float, Optional[float], Optional[np.ndarray]]:
    """mean_discrepancy_rms, cov_discrepancy_rms and pooled increment covariance.

    Per step, all steps at once: the emulated increment's distance from the
    mean training increment, over the RMS training increment; and the
    Frobenius gap between the unbiased training covariance and the replay's
    covariance at this resolution, z^2 [Cov_j(V p_j) + E_j V Cov_Mult(p_j) V^T / R]
    for a uniform draw j over the feasible trials (0 with none), over the
    training covariance's norm floored at COV_SCALE_RTOL times the mean
    squared increment.  The draw is a bootstrap, so Cov_j is (m-1)/m of the
    unbiased estimate.  Codes without per-trial fractions score as the one
    pseudo-trial emulate_steps replays: no cross-trial spread, and the
    multinomial term of the averaged fractions.  Both gaps are reported as
    RMS over steps; the pooled covariance is the mean training covariance.
    With one trial the last two are None.
    """
    increments = dataset.increments()  # (trials, steps, n)
    mean_square = np.mean(np.sum(increments**2, axis=2), axis=0)
    gap = np.diff(result.states, axis=0) - increments.mean(axis=0)
    relative = np.linalg.norm(gap, axis=1) / (np.sqrt(mean_square) + 1e-300)
    mean_rms = float(np.sqrt(np.mean(relative**2)))
    if dataset.trials < 2:
        return mean_rms, None, None
    centered = increments - increments.mean(axis=0)
    training = np.einsum("lkn,lkm->knm", centered, centered) / (dataset.trials - 1)
    codes = result.codes
    vectors = family.field_matrix()
    if codes.trial_probabilities is None:
        p, count = codes.probabilities[:, None], 1
    else:
        p = np.where(codes.trial_feasible[..., None], codes.trial_probabilities, 0.0)
        count = np.maximum(codes.feasible_trials, 1)[:, None, None]
    fields = p @ vectors.T  # (steps, trials, n); zero rows for infeasible trials
    mean_field = fields.sum(axis=1, keepdims=True) / count
    second_moment = fields.swapaxes(1, 2) @ fields / count
    spread = second_moment - mean_field.swapaxes(1, 2) * mean_field
    multinomial = (vectors * (p.sum(axis=1, keepdims=True) / count)) @ vectors.T - second_moment
    model = codes.flow_times[:, None, None] ** 2 * (spread + multinomial / resolution)
    distance = np.linalg.norm(model - training, axis=(1, 2))
    scale = np.maximum(np.linalg.norm(training, axis=(1, 2)), COV_SCALE_RTOL * mean_square)
    gaps = np.divide(distance, scale, out=np.zeros_like(distance), where=distance > 0.0)
    return mean_rms, float(np.sqrt(np.mean(gaps**2))), training.mean(axis=0)
