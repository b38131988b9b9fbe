"""Command-line front end.

Subcommands: rdf-curve (code rate along a sampling grid), min-rate
(minimum sampling rate under a channel capacity), sample (training
datasets), emulate (data-based trajectory emulation).  All outputs are CSV
or key=value lines; every command is a pure function of its config, input
files and seed.  main builds its parser once per process and reuses it.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .coderate import NotNeeded, min_sampling_rate, rate_curve
from .csvio import (
    _json_numbers,
    format_float,
    load_family,
    read_trajectories,
    write_rate_curve,
    write_trajectories,
)
from .emulation import emulate, replay_statistics
from .errors import LincoderError
from .linalg import as_vector
from .linearsystem import LinearSystemModel, sample_paths
from .presets import demo_model, demo_names
from .ratedistortion import rdf
from .trajectories import TrajectoryDataset


class ConfigError(Exception):
    pass


def _load_config(path) -> dict:
    try:
        with open(path) as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    return config


def _require(config: dict, key: str):
    if key not in config:
        raise ConfigError(f"config is missing required key {key!r}")
    return config[key]


def _read(config: dict, key: str, kind=float):
    """Required config value converted by kind, or a ConfigError.

    The value must hold JSON numbers only (no string or boolean, at any
    depth), and kind=int takes a JSON integer only, so "0.01" is not parsed,
    2.7 is not truncated to 2 nor true read as 1.
    """
    value = _require(config, key)
    if not _json_numbers(value) or (kind is int and not isinstance(value, int)):
        expected = "be a JSON integer" if kind is int else "hold JSON numbers only"
        raise ConfigError(f"{key} must {expected}")
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid {key}: {exc}") from exc


def _model_from_config(spec) -> LinearSystemModel:
    if isinstance(spec, str):
        if spec not in demo_names():
            raise ConfigError(f"unknown system preset {spec!r}; choose from {sorted(demo_names())}")
        return demo_model(spec)
    if isinstance(spec, dict) and "A" in spec and "N" in spec:
        if not (_json_numbers(spec["A"]) and _json_numbers(spec["N"])):
            raise ConfigError("system matrices must hold JSON numbers only")
        try:
            return LinearSystemModel.constant(
                np.asarray(spec["A"], dtype=float), np.asarray(spec["N"], dtype=float)
            )
        except ValueError as exc:
            raise ConfigError(f"invalid system matrices: {exc}") from exc
    raise ConfigError("system must be a preset name or an object with A and N matrices")


def _grid_from_config(spec) -> tuple[np.ndarray, str]:
    if not isinstance(spec, dict):
        raise ConfigError("grid must be an object with min, max and points")
    axis = spec.get("axis", "dt")
    if axis not in ("dt", "fs"):
        raise ConfigError("grid axis must be 'dt' or 'fs'")
    low = _read(spec, "min")
    high = _read(spec, "max")
    points = _read(spec, "points", int)
    log = spec.get("log", True)
    if not isinstance(log, bool):
        raise ConfigError("grid log must be true or false")
    if points < 1 or not 0.0 < low <= high < np.inf or (points > 1 and low == high):
        raise ConfigError("grid needs points >= 1 and 0 < min < max < inf (min = max with 1 point)")
    return (np.geomspace if log else np.linspace)(low, high, points), axis


def _cmd_rdf_curve(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(_require(config, "system"))
    distortion = _read(config, "distortion", _distortion_type)
    grid, axis = _grid_from_config(_require(config, "grid"))
    curve = rate_curve(model, distortion, grid if axis == "dt" else 1.0 / grid[::-1])
    write_rate_curve(model, distortion, grid, curve, axis, args.out)
    if curve.asymptote_bits is not None:
        print(f"asymptote_bits={format_float(curve.asymptote_bits)}")
    print(f"out={args.out}")
    return 0


def _cmd_min_rate(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(_require(config, "system"))
    distortion = _read(config, "distortion", _distortion_type)
    capacity = _read(config, "capacity_bits")
    result = min_sampling_rate(model, distortion, capacity)
    if isinstance(result, NotNeeded):
        ceiling = "none" if result.ceiling_bits is None else format_float(result.ceiling_bits)
        print(f"not_needed ceiling_bits={ceiling} zero_rate={int(result.zero_rate)}")
    else:
        print(f"fs_min={format_float(result)}")
    return 0


def _cmd_sample(args) -> int:
    config = _load_config(args.config)
    model = _model_from_config(_require(config, "system"))
    if ("dt" in config) == ("fs" in config):
        raise ConfigError("config needs exactly one of 'dt' and 'fs'")
    key = "dt" if "dt" in config else "fs"
    value = _read(config, key)
    if not 0.0 < value < np.inf:
        raise ConfigError(f"{key} must be positive and finite")
    dt = value if key == "dt" else 1.0 / value
    x0 = _read(config, "x0", as_vector)
    steps = _read(config, "steps", int)
    trials = _read(config, "trials", int)
    dataset = sample_paths(model, x0, dt, steps, trials, args.seed)
    write_trajectories(dataset, args.out)
    print(f"trials={dataset.trials} steps={dataset.steps} out={args.out}")
    return 0


def _cmd_emulate(args) -> int:
    dataset = read_trajectories(args.dataset)
    family = load_family(args.family)
    result = emulate(dataset, family, args.resolution, args.seed)
    write_trajectories(TrajectoryDataset(dataset.dt, result.states[np.newaxis]), args.out)
    mean_rms, cov_rms, pooled = replay_statistics(dataset, result, family, args.resolution)
    lines = [
        f"steps={dataset.steps}",
        f"trials={dataset.trials}",
        f"infeasible_increments={result.codes.infeasible_count}",
        f"mean_discrepancy_rms={format_float(mean_rms)}",
    ]
    if pooled is not None:
        lines += [
            f"cov_discrepancy_rms={format_float(cov_rms)}",
            f"distortion={format_float(args.distortion)}",
            f"rate_bits_at_distortion={format_float(rdf(pooled, args.distortion).rate_bits)}",
        ]
    lines.append(f"out={args.out}")
    print("\n".join(lines))
    return 0


def _seed_type(value: str) -> int:
    seed = int(value)
    if not 0 <= seed < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return seed


def _resolution_type(value: str) -> int:
    resolution = int(value)
    if resolution < 1:
        raise argparse.ArgumentTypeError("resolution must be a positive integer")
    return resolution


def _distortion_type(value) -> float:
    distortion = float(value)
    if not distortion >= 0.0:
        raise argparse.ArgumentTypeError("distortion must be nonnegative")
    return distortion


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lincoder",
        description="Code rates of linear stochastic systems and data-based emulation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("rdf-curve", help="code rate along a sampling grid")
    curve.add_argument("--config", required=True)
    curve.add_argument("--out", required=True)
    curve.set_defaults(handler=_cmd_rdf_curve)

    rate = sub.add_parser("min-rate", help="minimum sampling rate under a capacity")
    rate.add_argument("--config", required=True)
    rate.set_defaults(handler=_cmd_min_rate)

    sample = sub.add_parser("sample", help="generate a training dataset")
    sample.add_argument("--config", required=True)
    sample.add_argument("--out", required=True)
    sample.add_argument("--seed", type=_seed_type, required=True)
    sample.set_defaults(handler=_cmd_sample)

    emu = sub.add_parser("emulate", help="emulate a trajectory from a dataset")
    emu.add_argument("dataset", help="training dataset CSV")
    emu.add_argument("family", help="vector-field family JSON")
    emu.add_argument(
        "--resolution", type=_resolution_type, required=True, help="multinomial resolution"
    )
    emu.add_argument("--seed", type=_seed_type, required=True)
    emu.add_argument("--out", required=True)
    emu.add_argument("--distortion", type=_distortion_type, default=0.01)
    emu.set_defaults(handler=_cmd_emulate)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, argparse.ArgumentTypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (LincoderError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
