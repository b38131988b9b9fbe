"""lincoder benchmark: one command, one workload, one JSON result line.

    python3 bench/run.py --workload rate-sweep --seed 1 --seconds 30 --trace 0

Run from the repository root (or any copy of it that holds ``src/``).
Every workload runs in fresh processes started here, with the environment
inherited unchanged (BLAS thread variables included).

``--trace 0`` starts SETUP_REPEATS processes that only set up, then one
that also measures for ``--seconds``, and reports the end-to-end metrics.
``--trace 1`` starts one process whose passes alternate traced and
untraced, and reports the per-layer metrics plus the tracing overhead.
Human-readable lines come first; the last line is the JSON result.
Exits non-zero without a result when the package or a worker fails.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("rate-sweep", "emulate-compress", "sample-replay")
#: Set-up-only processes per untraced run; with the measuring process the
#: reported set-up time is the median of SETUP_REPEATS + 1 samples.
SETUP_REPEATS = 6
#: Every process of one run must end within this many seconds.
DEADLINE_S = 170.0
#: Items beyond the tail percentile.
TAIL_ITEMS = 10
#: Seconds the host-speed probe (worker.probe) takes on a quiet host: the
#: 2-vCPU machine of the seed-commit numbers in README.md.  Reported
#: timings are scaled to this host speed.
PROBE_REFERENCE_S = 0.005

# name -> unit; end-to-end metrics, reported with --trace 0.
END_TO_END = {
    "wall_s": "s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# (function, statistics) pairs reported per layer with --trace 1.
FUNCTION_METRICS = (
    ("linalg.mat_exp", ("calls", "self_s", "slow_calls")),
    ("linalg.sym_eig", ("calls", "self_s")),
    ("linalg.lyapunov_solve", ("calls", "self_s")),
    ("linearsystem.increment_distribution", ("calls", "self_s")),
    ("ratedistortion.rdf", ("calls", "self_s")),
    ("coderate.rate_curve", ("calls", "total_s")),
    ("coderate.rate_ceiling", ("calls", "total_s")),
    ("coderate.min_sampling_rate", ("calls", "total_s", "rate_evals_per_call")),
    ("simplexlp.solve_nonnegative_lp", ("calls", "self_s", "infeasible")),
    ("emulation.compress_dataset", ("calls", "total_s")),
    ("emulation.simplex_compress", ("calls", "self_s")),
    ("emulation.emulate_steps", ("calls", "self_s")),
    ("emulation.simplex_decompress", ("calls", "self_s")),
    ("linearsystem.sample_paths", ("calls", "self_s")),
    ("rng.substream", ("calls", "self_s")),
    ("csvio.write_trajectories", ("calls", "self_s", "rows", "bytes")),
    ("csvio.read_trajectories", ("calls", "self_s", "rows", "bytes")),
    ("cli.main", ("calls", "total_s", "self_s")),
)
UNITS = {
    "calls": "count", "self_s": "s", "total_s": "s", "slow_calls": "count",
    "rate_evals_per_call": "count", "infeasible": "count", "rows": "count", "bytes": "B",
}
TRACE_METRICS = {
    "trace.traced_wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_units() -> dict:
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for function, stats in FUNCTION_METRICS:
        for stat in stats:
            units[f"{function}.{stat}"] = UNITS[stat]
    units["emulation.infeasible_frac"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.calls"] = "count"
        units[f"{layer}.self_s"] = "s"
    units.update(TRACE_METRICS)
    return units


class WorkerError(Exception):
    pass


def spawn(args, workdir: Path, deadline: float, *, trace=0, seconds=0.0, setup_only=False,
          min_passes=1) -> dict:
    command = [
        sys.executable, str(BENCH / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(seconds),
        "--trace", str(trace), "--min-passes", str(min_passes), "--workdir", str(workdir),
    ]
    if setup_only:
        command.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    t0 = time.monotonic()
    try:
        done = subprocess.run(
            command + ["--t0", repr(t0)], stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker did not finish within {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise WorkerError(f"worker exited with code {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise WorkerError("worker printed no result")
    result = json.loads(lines[-1])
    expected = (ROOT / "src" / "lincoder" / "__init__.py").resolve()
    if Path(result["lincoder"]).resolve() != expected:
        raise WorkerError(f"worker imported {result['lincoder']}, not {expected}")
    return result


def tail(latencies: list) -> tuple:
    """(value, percentile, items beyond): the highest percentile that still
    has TAIL_ITEMS items beyond it (the maximum when there are too few)."""
    ordered = sorted(latencies)
    count = len(ordered)
    rank = max(0, count - TAIL_ITEMS - 1)
    percentile = 100.0 * rank / (count - 1) if count > 1 else 100.0
    return ordered[rank], percentile, count - rank - 1


def best_total(passes: list, key: str = "item_wall_s") -> float:
    """The fixed job with each item at its best over the passes."""
    return sum(min(times) for times in zip(*(p[key] for p in passes)))


def at_reference_speed(passes: list) -> list:
    """Item times scaled by PROBE_REFERENCE_S over the probes around each item.

    The faster of the two probes is used, so one probe slowed by a passing
    blip does not shrink the item's time.
    """
    scaled = []
    for p in passes:
        probes = p["probe_s"]
        factors = [PROBE_REFERENCE_S / min(a, b) for a, b in zip(probes, probes[1:])]
        scaled.append({key: [t * f for t, f in zip(p[key], factors)] for key in ("item_wall_s", "item_cpu_s")})
    return scaled


def timings(passes: list, setups: list) -> dict:
    """The timing metrics of one run (times in seconds)."""
    repeats = [sorted(times) for times in zip(*(p["item_wall_s"] for p in passes))]
    quarter = math.ceil(len(passes) / 4)
    samples = [t for times in repeats for t in times[:quarter]]
    value, percentile, beyond = tail(samples)
    return {
        "wall_s": best_total(passes),
        "item_p50_ms": 1e3 * statistics.median(samples),
        "item_tail_ms": 1e3 * value,
        "cpu_s": best_total(passes, "item_cpu_s"),
        "setup_s": statistics.median(setups),
        "samples": len(samples),
        "quarter": quarter,
        "percentile": percentile,
        "beyond": beyond,
    }


def end_to_end(args, workdir: Path, deadline: float, lines: list) -> tuple:
    setups = [spawn(args, workdir, deadline, setup_only=True) for _ in range(SETUP_REPEATS)]
    result = spawn(args, workdir, deadline, seconds=args.seconds)
    setups.append(result)
    passes = result["passes"]
    # Other tenants of the host change its speed by up to 2x within seconds
    # and for minutes at a time.  Item times are therefore scaled to the
    # speed at which the host-speed probe takes PROBE_REFERENCE_S, and taken
    # from each item's fastest repeats: the best one for the fixed-job
    # totals, the fastest quarter for the latency distribution.
    # Set-up is not scaled: a probe in a process that has just started runs
    # cold, and scaling by it made set-up times spread more, not less.
    setup_times = [s["setup_s"] for s in setups]
    measured = timings(passes, setup_times)
    metrics = timings(at_reference_speed(passes), setup_times)
    metrics["peak_rss_mb"] = result["peak_rss_mb"]
    measured["peak_rss_mb"] = result["peak_rss_mb"]
    repeats = f"{len(passes)} repeats"
    notes = {
        "wall_s": f"{result['items_per_pass']} items, each at its best of {repeats}, summed",
        "item_p50_ms": f"median of {metrics['samples']} samples, each item's fastest {metrics['quarter']}",
        "item_tail_ms": f"p{metrics['percentile']:.1f} of the same samples, {metrics['beyond']} beyond it",
        "cpu_s": "user + system CPU of the worker, items at their best, summed",
        "setup_s": f"median of {len(setups)} fresh starts: interpreter, import, inputs",
        "peak_rss_mb": "peak resident set of the measuring worker",
    }
    lines.append(f"{'metric':<14} {'reported':>12} {'unit':<4} {'measured':>12}")
    for name, unit in END_TO_END.items():
        lines.append(
            f"{name:<14} {metrics[name]:>12.6g} {unit:<4} {measured[name]:>12.6g}  ({notes[name]})"
        )
    speeds = [PROBE_REFERENCE_S / t for p in passes for t in p["probe_s"]]
    lines.append(
        f"host speed     {min(speeds):.3g} / {statistics.median(speeds):.3g} / {max(speeds):.3g} "
        f"of the reference (min / median / max over {len(speeds)} probes); "
        f"'reported' is scaled to the reference, 'measured' is not"
    )
    return result, metrics, END_TO_END


def per_layer(args, workdir: Path, deadline: float, lines: list) -> tuple:
    result = spawn(args, workdir, deadline, trace=1, seconds=args.seconds, min_passes=2)
    traced = [p for p in result["passes"] if p["traced"]]
    untraced = [p for p in result["passes"] if not p["traced"]]
    jobs = len(traced)

    def mean(function: str, stat: str) -> float:
        return sum(p["trace"]["functions"][function][stat] for p in traced) / jobs

    first = traced[0]["trace"]
    metrics = {}
    for function, stats in FUNCTION_METRICS:
        for stat in stats:
            name = f"{function}.{stat}"
            if stat == "calls":
                metrics[name] = first["functions"][function]["calls"]
            elif stat == "infeasible":
                metrics[name] = first["functions"][function]["errors"]
            elif stat in ("rows", "bytes"):
                metrics[name] = first["meters"][function][stat]
            elif stat == "rate_evals_per_call":
                calls = first["functions"][function]["calls"]
                evals = first["edges"].get(f"{function}>coderate.increment_rate", 0)
                metrics[name] = evals / calls if calls else 0.0
            else:  # times and slow calls: mean per fixed job over traced passes
                metrics[name] = mean(function, stat)
    compress = first["meters"]["emulation.compress_dataset"]
    metrics["emulation.infeasible_frac"] = (
        compress["infeasible"] / compress["increments"] if compress["increments"] else 0.0
    )
    for layer in LAYERS:
        functions = [f for f in first["functions"] if f.startswith(layer + ".")]
        metrics[f"{layer}.calls"] = sum(first["functions"][f]["calls"] for f in functions)
        metrics[f"{layer}.self_s"] = sum(mean(f, "self_s") for f in functions)
    traced_wall = best_total(at_reference_speed(traced))
    untraced_wall = best_total(at_reference_speed(untraced))
    metrics["trace.traced_wall_s"] = traced_wall
    metrics["trace.untraced_wall_s"] = untraced_wall
    metrics["trace.overhead_s"] = traced_wall - untraced_wall
    metrics["trace.overhead_pct"] = 100.0 * (traced_wall - untraced_wall) / untraced_wall

    lines.append(
        f"traced {len(traced)} and untraced {len(untraced)} fixed jobs; "
        f"overhead {metrics['trace.overhead_s']:.4f} s ({metrics['trace.overhead_pct']:.2f}%)"
    )
    lines.append(f"{'function':<40} {'calls':>9} {'self_s':>10} {'total_s':>10} {'slow':>6}")
    ranked = sorted(first["functions"], key=lambda f: -mean(f, "self_s"))
    for function in ranked:
        if first["functions"][function]["calls"]:
            lines.append(
                f"{function:<40} {first['functions'][function]['calls']:>9} "
                f"{mean(function, 'self_s'):>10.4f} {mean(function, 'total_s'):>10.4f} "
                f"{mean(function, 'slow_calls'):>6.1f}"
            )
    return result, metrics, per_layer_units()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("seed must be in [0, 2**63)")
    if not 0 <= args.seconds <= 120:
        parser.error("seconds must be in [0, 120]")
    if not (ROOT / "src" / "lincoder" / "__init__.py").is_file():
        print(f"error: no lincoder sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    lines = [f"lincoder benchmark: workload={args.workload} seed={args.seed} "
             f"seconds={args.seconds:g} trace={args.trace}"]
    try:
        measure = per_layer if args.trace else end_to_end
        result, metrics, units = measure(args, workdir, deadline, lines)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()

    attempted, failed = result["attempted"], result["failed"]
    lines.insert(1, "machine: " + json.dumps(result["machine"], sort_keys=True))
    lines.append(f"failed_frac    {failed / attempted:>12.6g}     ({failed} of {attempted} items failed)")
    lines.extend(f"failure: {note}" for note in result["failure_notes"])
    print("\n".join(lines))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
