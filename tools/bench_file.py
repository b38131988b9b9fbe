"""Write a BENCH_*.json file: the benchmark, the README commands and the
per-call cost of one stacked rate evaluation and of one LP compression, for
checkouts side by side.

    python3 tools/bench_file.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_31.json

Each checkout is a directory holding ``src/lincoder`` and ``bench/``.  For
each one the file records:

- on every workload, the median and quartiles of each end-to-end metric
  over 10 runs of its own ``bench/run.py --seed 5 --seconds 10 --trace 0``,
  alternating with the other checkouts' runs, with the failed items of
  those runs; a checkout after the first also records in how many of the
  10 pairs it beat the first;
- the JSON result line of one ``--trace 1`` run (per-layer metrics from
  ``bench/tracer.py``) on every workload;
- the wall time of the four README commands, each as a fresh process
  (interpreter start and imports included), the minimum of 7 runs, with
  the sha256 of each command's stdout and output file;
- the cost per call of ``coderate._increment_rates`` on six stacks, the
  minimum over PROBE_PROCESSES fresh processes of PROBE_TIMING;
- the cost per call of ``simplexlp.solve_nonnegative_lp`` on 600 seeded
  targets for each bench family type, and of ``compress_dataset`` on one
  300 x 2 dataset, measured the same way.

Processes of different checkouts alternate, so a change in host speed
hits them alike.  Every process inherits this one's environment (BLAS
thread variables included), and the file records the machine: CPU model
and count, CPU affinity, BLAS thread variables, Python, numpy and scipy
versions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

WORKLOADS = ("rate-sweep", "emulate-compress", "sample-replay")
BENCH_SEED = 5
BENCH_SECONDS = 10
BENCH_PAIRS = 10
COMMAND_RUNS = 7
PROBE_PROCESSES = 9
#: Untimed warm-up calls, timed rounds and calls per round of each probe case.
PROBE_WARMUP, PROBE_ROUNDS, PROBE_CALLS = 10, 9, 100
PROBE_TIMING = (
    f"the best of {PROBE_ROUNDS} x {PROBE_CALLS} calls after {PROBE_WARMUP} warm-up calls"
)
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: The README's CLI walk-through: config files, then the four commands with
#: the file each one writes (None for min-rate, which prints only).
README_CONFIGS = {
    "curve.json": {
        "system": "stable",
        "distortion": 0.01,
        "grid": {"min": 0.001, "max": 100.0, "points": 100, "log": True, "axis": "dt"},
    },
    "minrate.json": {"system": "unstable", "distortion": 0.01, "capacity_bits": 8.0},
    "sample.json": {"system": "stable", "x0": [1.0, 1.0], "dt": 0.01, "steps": 300, "trials": 50},
}
README_COMMANDS = {
    "rdf-curve": (["rdf-curve", "--config", "curve.json", "--out", "curve.csv"], "curve.csv"),
    "min-rate": (["min-rate", "--config", "minrate.json"], None),
    "sample": (
        ["sample", "--config", "sample.json", "--out", "train.csv", "--seed", "7"],
        "train.csv",
    ),
    "emulate": (
        ["emulate", "train.csv", "family.json", "--resolution", "1", "--seed", "42",
         "--out", "emulated.csv"],
        "emulated.csv",
    ),
}
CLI = "import sys; from lincoder.cli import main; sys.exit(main(sys.argv[1:]))"
FAMILY = (
    "import lincoder, lincoder.csvio as io; "
    "io.dump_family(lincoder.planar_grid_family(), 'family.json')"
)

#: The tail of every per-call probe: PROBE_TIMING of each of its ``cases``
#: (name -> callable and arguments), in microseconds per call, printed as
#: JSON.
BEST_OF = f"""
best = {{}}
for name, (call, *args) in cases.items():
    for _ in range({PROBE_WARMUP}):
        call(*args)
    times = []
    for _ in range({PROBE_ROUNDS}):
        start = time.perf_counter()
        for _ in range({PROBE_CALLS}):
            call(*args)
        times.append((time.perf_counter() - start) / {PROBE_CALLS})
    best[name] = 1e6 * min(times)
print(json.dumps(best))
"""

#: One process of the per-call measurement of ``_increment_rates``, on six stacks.
RATE_PROBE = r"""
import json, time
import numpy as np
import lincoder as lc
from lincoder.coderate import _increment_rates

stable, marginal, unstable = (lc.demo_model(n) for n in ("stable", "marginal", "unstable"))
# A seeded 8-D Hurwitz drift Q J Q^T, J of 2x2 rotation blocks, as the
# hurwitz8 system of bench/workloads.py: the 16x16 generators behind the
# rate-sweep tail items.
rng = np.random.default_rng(8)
blocks = np.zeros((8, 8))
for i in range(0, 8, 2):
    sigma, omega = -rng.uniform(0.3, 0.8), rng.uniform(0.5, 1.5)
    blocks[i : i + 2, i : i + 2] = [[sigma, omega], [-omega, sigma]]
q = np.linalg.qr(rng.normal(size=(8, 8)))[0]
root = q * rng.uniform(0.5, 1.5, 8) ** 0.5
hurwitz8 = lc.LinearSystemModel.constant(q @ blocks @ q.T, 0.05 * root @ root.T)
stacks = {
    "one interval, unstable": (unstable, np.array([1.0])),
    "20-interval round, unstable": (unstable, np.geomspace(1.0, 10.0, 20)),
    "20-interval round, marginal": (marginal, np.geomspace(1.0, 10.0, 20)),
    "19-decade scan, unstable": (unstable, np.logspace(-6, 12, 19)),
    "100-point curve, stable": (stable, np.logspace(-3, 2, 100)),
    "100-point curve, hurwitz8": (hurwitz8, np.logspace(-3, 2, 100)),
}
cases = {name: (_increment_rates, model, 0.0, dts, 0.01)
         for name, (model, dts) in stacks.items()}
""" + BEST_OF

#: The same for one LP compression: 600 seeded targets on each family type
#: of the emulate-compress workload, and one 300-step x 2-trial dataset.
LP_PROBE = r"""
import json, time
import numpy as np
import lincoder as lc
from lincoder.simplexlp import solve_nonnegative_lp

rng = np.random.default_rng(31)
axes = np.eye(3) * rng.uniform(0.5, 2.0, 3)
angles = rng.uniform(0.0, 2.0 * np.pi) + np.deg2rad(np.linspace(-75.0, 75.0, 9))
families = {
    "grid": lc.planar_grid_family().field_matrix(),
    "3-D, 12 fields": np.hstack([axes, -axes, rng.normal(size=(3, 6))]),
    "150-degree cone": np.vstack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.8, 1.6, 9),
}
cases = {}
for name, vectors in families.items():
    targets = rng.normal(size=(600, vectors.shape[0]))
    cases[f"600 targets, {name}"] = (solve_nonnegative_lp, vectors, targets)
data = lc.sample_paths(lc.demo_model("stable"), [1.0, 1.0], 0.01, 300, 2, 7)
cases["compress_dataset 300x2, grid"] = (lc.compress_dataset, data, lc.planar_grid_family())
""" + BEST_OF


def in_turn(checkouts: dict, turn: int) -> list:
    """The (label, path) pairs, in reverse order on odd turns, so no checkout always runs first."""
    pairs = list(checkouts.items())
    return pairs[::-1] if turn % 2 else pairs


def environment(checkout: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(checkout / "src")
    return env


def machine() -> dict:
    import numpy
    import scipy

    model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_VARIABLES},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def bench_run(label: str, path: Path, workload: str, trace: int) -> dict:
    """The JSON result line of one ``bench/run.py`` run in a checkout."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(BENCH_SEED),
         "--seconds", str(BENCH_SECONDS), "--trace", str(trace)],
        cwd=path, stdout=subprocess.PIPE, text=True, check=True,
    )
    result = json.loads(done.stdout.strip().splitlines()[-1])
    print(f"bench {label} {workload} trace={trace}: failed={result['failed']}",
          file=sys.stderr)
    return result


def spread(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def bench_results(checkouts: dict) -> dict:
    """Per checkout and workload: each end-to-end metric over BENCH_PAIRS
    alternating untraced runs, the failed items of those runs, and one traced run.

    Every checkout after the first also counts, per metric, the pairs it won:
    those in which its value was lower than the first checkout's (every
    end-to-end metric is better lower).
    """
    results = {label: {} for label in checkouts}
    first = next(iter(checkouts))
    for index, workload in enumerate(WORKLOADS):
        runs = {label: [] for label in checkouts}
        for turn in range(BENCH_PAIRS):
            for label, path in in_turn(checkouts, turn):
                runs[label].append(bench_run(label, path, workload, 0))
        values = {
            label: {name: [run["metrics"][name]["value"] for run in by_run]
                    for name in by_run[0]["metrics"]}
            for label, by_run in runs.items()
        }
        for label, path in in_turn(checkouts, index):
            end_to_end = {name: spread(series) for name, series in values[label].items()}
            if label != first:
                for name, series in values[label].items():
                    wins = sum(v < b for v, b in zip(series, values[first][name]))
                    end_to_end[name]["wins"] = wins
            results[label][workload] = {
                "failed": sum(run["failed"] for run in runs[label]),
                "end_to_end": end_to_end,
                "trace1": bench_run(label, path, workload, 1),
            }
    return results


def readme_commands(checkouts: dict) -> tuple:
    """(min seconds, sha256 of stdout and output file) of each README command per checkout."""
    seconds = {label: {name: [] for name in README_COMMANDS} for label in checkouts}
    digests = {label: {} for label in checkouts}
    with tempfile.TemporaryDirectory() as scratch:
        workdirs = {}
        for label, path in checkouts.items():
            workdir = Path(scratch) / label
            workdir.mkdir()
            for name, config in README_CONFIGS.items():
                (workdir / name).write_text(json.dumps(config))
            subprocess.run([sys.executable, "-c", FAMILY], cwd=workdir, env=environment(path),
                           check=True)
            workdirs[label] = workdir
        for turn in range(COMMAND_RUNS):
            for name, (argv, output) in README_COMMANDS.items():
                for label, path in in_turn(checkouts, turn):
                    start = time.perf_counter()
                    done = subprocess.run([sys.executable, "-c", CLI, *argv], cwd=workdirs[label],
                                          env=environment(path), stdout=subprocess.PIPE,
                                          check=True)
                    seconds[label][name].append(time.perf_counter() - start)
                    data = done.stdout + (
                        (workdirs[label] / output).read_bytes() if output else b""
                    )
                    digests[label][name] = hashlib.sha256(data).hexdigest()
    return {label: {name: min(runs) for name, runs in by_name.items()}
            for label, by_name in seconds.items()}, digests


def probe_costs(checkouts: dict, probe: str) -> dict:
    """Per checkout, each case's minimum cost over PROBE_PROCESSES fresh processes."""
    best = {label: {} for label in checkouts}
    for turn in range(PROBE_PROCESSES):
        for label, path in in_turn(checkouts, turn):
            done = subprocess.run([sys.executable, "-c", probe], env=environment(path),
                                  stdout=subprocess.PIPE, text=True, check=True)
            for name, cost in json.loads(done.stdout).items():
                best[label][name] = min(cost, best[label].get(name, float("inf")))
    return best


def ratios(values: dict) -> dict:
    """Each checkout's values over the first checkout's, by name."""
    first = next(iter(values.values()))
    return {label: {name: value / first[name] for name, value in by_name.items()}
            for label, by_name in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--checkout", action="append", required=True, metavar="LABEL=PATH",
                        help="a labelled checkout; the first one is the base of the ratios")
    parser.add_argument("--out", required=True, help="the JSON file to write")
    args = parser.parse_args(argv)
    checkouts = {}
    for entry in args.checkout:
        label, _, path = entry.partition("=")
        checkout = Path(path).resolve()
        if not label or not (checkout / "src" / "lincoder").is_dir():
            parser.error(f"--checkout {entry!r} is not LABEL=PATH of a checkout with src/lincoder")
        checkouts[label] = checkout

    command_s, command_sha = readme_commands(checkouts)
    rate_us = probe_costs(checkouts, RATE_PROBE)
    lp_us = probe_costs(checkouts, LP_PROBE)
    bench = bench_results(checkouts)
    report = {
        "machine": machine(),
        "checkouts": list(checkouts),
        "readme_commands_s": command_s,
        "readme_commands_ratio": ratios(command_s),
        "readme_outputs_sha256": command_sha,
        "rate_eval_us": rate_us,
        "rate_eval_ratio": ratios(rate_us),
        "lp_solve_us": lp_us,
        "lp_solve_ratio": ratios(lp_us),
        "bench": bench,
        "settings": {
            "bench": f"bench/run.py --seed {BENCH_SEED} --seconds {BENCH_SECONDS}: "
            f"{BENCH_PAIRS} alternating --trace 0 runs per checkout, one --trace 1 run",
            "readme_commands": f"fresh process each, min of {COMMAND_RUNS}, checkouts alternating",
            "rate_eval": f"min over {PROBE_PROCESSES} fresh processes of {PROBE_TIMING}",
            "lp_solve": f"min over {PROBE_PROCESSES} fresh processes of {PROBE_TIMING}",
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
