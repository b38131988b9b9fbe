"""Container for sampled trajectory data on a uniform time grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrajectoryDataset:
    """States of independent trials sampled at k * dt, k = 0..steps.

    ``states`` has shape (trials, steps + 1, dimension).
    """

    dt: float
    states: np.ndarray

    def __post_init__(self):
        dt = float(self.dt)
        if not np.isfinite(dt) or dt <= 0.0:
            raise ValueError("sampling interval must be positive and finite")
        arr = np.asarray(self.states, dtype=float)
        if arr.ndim != 3:
            raise ValueError(f"states must be 3-dimensional, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1 or arr.shape[2] < 1:
            raise ValueError("states array must be non-empty")
        if not np.all(np.isfinite(arr)):
            raise ValueError("states contain non-finite entries")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "dt", dt)
        object.__setattr__(self, "states", arr)

    @property
    def trials(self) -> int:
        return self.states.shape[0]

    @property
    def steps(self) -> int:
        return self.states.shape[1] - 1

    @property
    def dimension(self) -> int:
        return self.states.shape[2]

    def increments(self) -> np.ndarray:
        """Forward differences, shape (trials, steps, dimension)."""
        if self.steps < 1:
            raise ValueError("dataset holds a single time point; no increments")
        return np.diff(self.states, axis=1)
