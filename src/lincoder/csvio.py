"""External file formats: trajectory CSV, rate-curve CSV, family JSON.

Floats are printed with 17 significant digits so every file round-trips
losslessly, and files are written with LF newlines so repeated runs are
byte-identical.  Trajectory writes on one (steps, dt, dimension) grid share
one trial's row layout; the bytes are the same as formatting rows afresh.
"""

from __future__ import annotations

import functools
import hashlib
import json
from pathlib import Path

import numpy as np

from .coderate import RateCurve
from .emulation import SourceFamily
from .linearsystem import LinearSystemModel
from .trajectories import TrajectoryDataset

#: Largest accepted |t - k * dt| in a dataset CSV, relative to the horizon.
TIME_GRID_RTOL = 1e-9


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


@functools.lru_cache(maxsize=1)
def _time_cells(steps: int, dt: float, dimension: int) -> str:
    """One trial's rows on the grid k * dt, k = 0..steps, as one format string.

    Each row is "#" for the trial index, the "k,t" cells, then "%.17g" (which
    formats as format_float) for each state.
    """
    states = ",%.17g" * dimension
    return "".join(f"#,{k},{format_float(k * dt)}{states}\n" for k in range(steps + 1))


def write_trajectories(dataset: TrajectoryDataset, path) -> None:
    """Dataset as CSV: header trial,k,t,x1..xn; rows sorted by (trial, k)."""
    n = dataset.dimension
    header = "trial,k,t," + ",".join(f"x{i + 1}" for i in range(n))
    layout = _time_cells(dataset.steps, dataset.dt, n)
    with open(path, "w", newline="\n") as out:
        out.write(header + "\n")
        for trial, states in enumerate(dataset.states):
            out.write(layout.replace("#", str(trial)) % tuple(states.ravel().tolist()))


def read_trajectories(path) -> TrajectoryDataset:
    """Parse a dataset CSV; requires a complete uniform (trial, k) grid.

    Every (trial, k) pair with trial, k >= 0 must appear exactly once, and
    the time column must read t = k * dt with dt taken from the k = 1 rows,
    to within TIME_GRID_RTOL of the horizon.  Every state cell must be finite.
    """
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"dataset file {path} is empty")
    header = lines[0].split(",")
    if header[:3] != ["trial", "k", "t"] or len(header) < 4:
        raise ValueError(f"dataset file {path} has an unexpected header")
    if len(lines) == 1:
        raise ValueError(f"dataset file {path} contains no data rows")
    try:
        table = np.loadtxt(lines[1:], delimiter=",", comments=None, ndmin=2)
    except ValueError as exc:
        raise ValueError(f"dataset file {path} has a malformed row: {exc}") from exc
    if table.shape[1] != len(header):
        raise ValueError(f"dataset file {path} has a malformed row: {lines[1]!r}")
    index = table[:, :2]
    if not np.all(index % 1 == 0):
        raise ValueError(f"dataset file {path} has a non-integer trial or step index")
    trial, k = index.astype(np.int64).T
    times = table[:, 2]
    if trial.min() < 0 or k.min() < 0:
        raise ValueError(f"dataset file {path} has a negative trial or step index")
    trials, steps = int(trial.max()) + 1, int(k.max())
    if steps < 1:
        raise ValueError(f"dataset file {path} holds a single time point per trial")
    distinct = np.unique(trial * (steps + 1) + k).size
    if distinct < trial.size:
        raise ValueError(f"dataset file {path} repeats a (trial, k) row")
    if distinct < trials * (steps + 1):
        raise ValueError(f"dataset file {path} does not cover a complete grid")
    dt = float(times[k == 1][0])
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dataset file {path} has no usable time column")
    if not np.all(np.abs(times - k * dt) <= TIME_GRID_RTOL * steps * dt):
        raise ValueError(f"dataset file {path} has a non-uniform time column")
    if not np.all(np.isfinite(table[:, 3:])):
        raise ValueError(f"dataset file {path} has non-finite states")
    states = np.empty((trials, steps + 1, len(header) - 3))
    states[trial, k] = table[:, 3:]
    return TrajectoryDataset(dt, states)


def _model_fingerprint(model: LinearSystemModel) -> str:
    """Short content hash of a constant-drift model (drift and noise)."""
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(model.drift.matrix).tobytes())
    digest.update(b"/")
    digest.update(np.ascontiguousarray(model.noise_intensity).tobytes())
    return digest.hexdigest()[:12]


def write_rate_curve(
    model: LinearSystemModel, distortion: float, grid, curve: RateCurve, axis: str, path
) -> None:
    """Rate curve of ``model`` as CSV, after a comment line of run metadata.

    ``grid`` holds the ascending values of the axis, dt or fs, printed as
    given; the other column is 1 / value.  Rows dt,fs,rate_bits follow the
    grid, and the curve, which runs along dt, runs against an fs grid.
    """
    if axis not in ("dt", "fs"):
        raise ValueError("axis must be 'dt' or 'fs'")
    values, rates = np.asarray(grid, dtype=float).tolist(), curve.rate_bits.tolist()
    asymptote = "none" if curve.asymptote_bits is None else format_float(curve.asymptote_bits)
    lines = [
        f"# distortion={format_float(distortion)}"
        f" asymptote_bits={asymptote} model={_model_fingerprint(model)}",
        "dt,fs,rate_bits",
    ]
    for value, rate in zip(values, rates[:: -1 if axis == "fs" else 1], strict=True):
        dt, fs = (value, 1.0 / value) if axis == "dt" else (1.0 / value, value)
        lines.append(f"{format_float(dt)},{format_float(fs)},{format_float(rate)}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def load_family(path) -> SourceFamily:
    """Family JSON: a non-empty array of length-n vectors, one per constant field."""
    try:
        data = json.loads(Path(path).read_text())
        if not isinstance(data, list) or not all(isinstance(v, list) for v in data):
            raise ValueError("expected an array of vectors")
        return SourceFamily.from_vectors(data)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"family file {path}: {exc}") from exc


def dump_family(family: SourceFamily, path) -> None:
    entries = family.field_matrix().T.tolist()
    Path(path).write_text(json.dumps(entries, indent=2) + "\n", newline="\n")
