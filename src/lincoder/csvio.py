"""External file formats: trajectory CSV, rate-curve CSV, family JSON.

Floats are printed with 17 significant digits so every file round-trips
losslessly, and files are written with LF newlines so repeated runs are
byte-identical.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .coderate import RateCurve
from .emulation import AffineField, ConstantField, SourceFamily
from .trajectories import TrajectoryDataset

#: Largest accepted |t - k * dt| in a dataset CSV, relative to the horizon.
TIME_GRID_RTOL = 1e-9


def format_float(value: float) -> str:
    return f"{float(value):.17g}"


def write_trajectories(dataset: TrajectoryDataset, path) -> None:
    """Dataset as CSV: header trial,k,t,x1..xn; rows sorted by (trial, k)."""
    n = dataset.dimension
    header = "trial,k,t," + ",".join(f"x{i + 1}" for i in range(n))
    lines = [header]
    for trial in range(dataset.trials):
        for k in range(dataset.steps + 1):
            row = [str(trial), str(k), format_float(k * dataset.dt)]
            row.extend(format_float(v) for v in dataset.states[trial, k])
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def read_trajectories(path) -> TrajectoryDataset:
    """Parse a dataset CSV; requires a complete uniform (trial, k) grid.

    Every (trial, k) pair with trial, k >= 0 must appear exactly once, and
    the time column must read t = k * dt with dt taken from the k = 1 rows,
    to within TIME_GRID_RTOL of the horizon.
    """
    text = Path(path).read_text()
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise ValueError(f"dataset file {path} is empty")
    header = lines[0].split(",")
    if header[:3] != ["trial", "k", "t"] or len(header) < 4:
        raise ValueError(f"dataset file {path} has an unexpected header")
    n = len(header) - 3
    index, values = [], []
    for line in lines[1:]:
        parts = line.split(",")
        if len(parts) != len(header):
            raise ValueError(f"dataset file {path} has a malformed row: {line!r}")
        index.append((int(parts[0]), int(parts[1])))
        values.append([float(v) for v in parts[2:]])
    if not index:
        raise ValueError(f"dataset file {path} contains no data rows")
    trial, k = np.array(index).T
    table = np.array(values)
    times = table[:, 0]
    if trial.min() < 0 or k.min() < 0:
        raise ValueError(f"dataset file {path} has a negative trial or step index")
    trials, steps = int(trial.max()) + 1, int(k.max())
    if steps < 1:
        raise ValueError(f"dataset file {path} holds a single time point per trial")
    cell = trial * (steps + 1) + k
    counts = np.bincount(cell, minlength=trials * (steps + 1))
    if counts.max() > 1:
        raise ValueError(f"dataset file {path} repeats a (trial, k) row")
    if counts.min() == 0:
        raise ValueError(f"dataset file {path} does not cover a complete grid")
    dt = float(times[k == 1][0])
    if not np.isfinite(dt) or dt <= 0.0:
        raise ValueError(f"dataset file {path} has no usable time column")
    if not np.all(np.abs(times - k * dt) <= TIME_GRID_RTOL * steps * dt):
        raise ValueError(f"dataset file {path} has a non-uniform time column")
    states = np.empty((trials, steps + 1, n))
    states[trial, k] = table[:, 1:]
    return TrajectoryDataset(dt, states)


def write_rate_curve(curve: RateCurve, path) -> None:
    """Rate curve as CSV with a comment line carrying run metadata."""
    asymptote = "none" if curve.asymptote_bits is None else format_float(curve.asymptote_bits)
    lines = [
        f"# distortion={format_float(curve.distortion)}"
        f" asymptote_bits={asymptote} model={curve.model_hash}",
        "dt,fs,rate_bits",
    ]
    for dt, fs, rate in curve.rows():
        lines.append(f"{format_float(dt)},{format_float(fs)},{format_float(rate)}")
    Path(path).write_text("\n".join(lines) + "\n", newline="\n")


def load_family(path) -> SourceFamily:
    """Family JSON: an array whose entries are vectors or {M, b} objects."""
    data = json.loads(Path(path).read_text())
    if not isinstance(data, list) or not data:
        raise ValueError(f"family file {path} must hold a non-empty array")
    fields = []
    for entry in data:
        if isinstance(entry, dict):
            try:
                fields.append(AffineField(np.asarray(entry["M"], dtype=float),
                                          np.asarray(entry["b"], dtype=float)))
            except KeyError as exc:
                raise ValueError(f"family file {path}: affine entries need M and b") from exc
        else:
            fields.append(ConstantField(np.asarray(entry, dtype=float)))
    return SourceFamily(tuple(fields))


def dump_family(family: SourceFamily, path) -> None:
    entries = []
    for field in family.fields:
        if isinstance(field, ConstantField):
            entries.append(list(field.vector))
        else:
            entries.append({"M": field.matrix.tolist(), "b": list(field.offset)})
    Path(path).write_text(json.dumps(entries, indent=2) + "\n", newline="\n")
