"""Write a BENCH_*.json file: the benchmark, the README commands and the
per-call cost of one stacked rate evaluation, of one LP compression and of
the layers of the ``sample`` command, for checkouts side by side.

    python3 tools/bench_file.py --checkout parent=../parent --checkout change=. \\
        --out BENCH_35.json

Each checkout is a directory holding ``src/lincoder`` and ``bench/``.  For
each one the file records:

- on every workload, the median and quartiles of each end-to-end metric
  over 10 runs of its own ``bench/run.py --seed 5 --seconds 10 --trace 0``,
  alternating with the other checkouts' runs, with the failed items of
  those runs; a checkout after the first also records in how many of the
  10 pairs it beat the first, and whether its runs meet the claim rule
  against the first's (see ``claim``), with the bounds of the first
  checkout's ``BENCHMARK.json``;
- the JSON result line of one ``--trace 1`` run (per-layer metrics from
  ``bench/tracer.py``) on every workload;
- the wall time of the four README commands, each as a fresh process
  (interpreter start and imports included), the minimum of 7 runs, with
  the sha256 of each command's stdout and output file;
- the cost per call of ``coderate._increment_rates`` on six stacks, and of
  a whole ``min_sampling_rate`` (two models) and ``rate_ceiling`` on models
  that earlier calls have warmed, and of the first ``_increment_rates``
  call on a fresh model (one interval, a 20-interval round), with the
  models built before the timing, and of building a model (unstable,
  hurwitz8), the minimum over PROBE_PROCESSES fresh processes of the best
  of PROBE_ROUNDS rounds of PROBE_CALLS calls;
- the cost per call of ``simplexlp.solve_nonnegative_lp`` on 600 seeded
  targets for each bench family type, and of ``compress_dataset`` on one
  300 x 2 dataset, measured the same way;
- the cost per call of each layer of the ``sample`` command and of the
  replay step (Philox setup, ``sample_paths``, CSV formatting and parsing,
  ``emulate_steps``, one in-process ``main``), of the first
  ``sample_paths`` on a fresh model, and of the bare ``%.17g`` formatting
  of the states that the CSV writer cannot go below, measured the same way
  with SAMPLE_CALLS calls per round.

Each probe ratio is a checkout's minimum over the first checkout's; next to
it the file records the median and quartiles of the ratios of the processes
that ran side by side.

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
#: Calls per round of the sample probe, whose cases take up to ~20 ms each.
SAMPLE_CALLS = 10
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



def probe_timing(calls: int) -> str:
    return f"the best of {PROBE_ROUNDS} x {calls} calls after {PROBE_WARMUP} warm-up calls"


def best_of(calls: int) -> str:
    """The tail of every per-call probe: probe_timing(calls) of each of its
    ``cases`` (name -> callable and arguments), in microseconds per call,
    printed as JSON on the last line."""
    return f"""
best = {{}}
for name, (call, *args) in cases.items():
    for _ in range({PROBE_WARMUP}):
        call(*args)
    times = []
    for _ in range({PROBE_ROUNDS}):
        start = time.perf_counter()
        for _ in range({calls}):
            call(*args)
        times.append((time.perf_counter() - start) / {calls})
    best[name] = 1e6 * min(times)
print(json.dumps(best))
"""

#: One process of the per-call measurement of ``_increment_rates``, on six
#: stacks, and of whole searches and ceilings on warm models: their first
#: calls, among the warm-up calls, form what the model keeps.  Two cold cases
#: give every call a fresh model, drawn from an iterator of models built
#: before the timing starts, so they time a model's first call without its
#: construction; two build cases time the construction alone.
RATE_PROBE = f"""
calls = {PROBE_WARMUP + PROBE_ROUNDS * PROBE_CALLS}
""" + r"""
import json, time
import numpy as np
import lincoder as lc
from lincoder.coderate import _increment_rates, min_sampling_rate, rate_ceiling

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
cases = {name: (_increment_rates, model, dts, 0.01)
         for name, (model, dts) in stacks.items()}
cases["min_sampling_rate C=8, unstable"] = (min_sampling_rate, unstable, 0.01, 8.0)
cases["min_sampling_rate C=8, hurwitz8"] = (min_sampling_rate, hurwitz8, 0.01, 8.0)
cases["rate_ceiling, hurwitz8"] = (rate_ceiling, hurwitz8, 0.01)

def first_call(models, dts):
    return _increment_rates(next(models), dts, 0.01)

for name, dts in (("one interval", np.array([1.0])),
                  ("20-interval round", np.geomspace(1.0, 10.0, 20))):
    fresh = iter([lc.demo_model("unstable") for _ in range(calls)])
    cases[f"cold model, {name}, unstable"] = (first_call, fresh, dts)
for name, model in (("unstable", unstable), ("hurwitz8", hurwitz8)):
    cases[f"build model, {name}"] = (
        lc.LinearSystemModel.constant, model.drift.matrix, model.noise_intensity)
""" + best_of(PROBE_CALLS)

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
""" + best_of(PROBE_CALLS)

#: The same for the layers of ``sample`` on the 300-step datasets of the
#: sample-replay workload, and for its replay step.  Each write rewrites its
#: own file in a temporary directory, as the benchmark's items do, and
#: ``main`` prints one line per call before the JSON line.  The warm
#: ``sample_paths`` cases sample one model again and again; the cold case
#: gives every call a fresh model, built before the timing starts.
SAMPLE_PROBE = f"""
calls = {PROBE_WARMUP + PROBE_ROUNDS * SAMPLE_CALLS}
""" + r"""
import json, tempfile, time
from pathlib import Path
import lincoder as lc
from lincoder.cli import main
from lincoder.csvio import read_trajectories, write_trajectories
from lincoder.rng import PATH_LANE, substream

def draw():
    return substream(7, PATH_LANE, 0, 0).standard_normal((300, 2))

def first_sample(models):
    return lc.sample_paths(next(models), [1.0, 1.0], 0.01, 300, 2, 7)

stable, family = lc.demo_model("stable"), lc.planar_grid_family()
workdir = tempfile.TemporaryDirectory()
path = Path(workdir.name)
three = lc.sample_paths(stable, [1.0, 1.0], 0.01, 300, 3, 7)
forty = lc.sample_paths(stable, [1.0, 1.0], 0.01, 300, 40, 7)
write_trajectories(three, path / "three.csv")
codes = lc.compress_dataset(three, family)
(path / "sample.json").write_text(json.dumps(
    {"system": "stable", "x0": [1.0, 1.0], "dt": 0.01, "steps": 300, "trials": 40}))
floats = tuple(forty.states.ravel().tolist())
cases = {
    "substream + standard_normal((300, 2))": (draw,),
    "sample_paths 300x2": (lc.sample_paths, stable, [1.0, 1.0], 0.01, 300, 2, 7),
    "sample_paths 300x40": (lc.sample_paths, stable, [1.0, 1.0], 0.01, 300, 40, 7),
    "cold model, sample_paths 300x2": (
        first_sample, iter([lc.demo_model("stable") for _ in range(calls)])),
    "write_trajectories 300x1": (
        write_trajectories, lc.TrajectoryDataset(0.01, three.states[:1]), path / "one.csv"),
    "write_trajectories 300x40": (write_trajectories, forty, path / "forty.csv"),
    "read_trajectories 300x3": (read_trajectories, path / "three.csv"),
    "emulate_steps 300, resolution 1": (lc.emulate_steps, codes, family, [1.0, 1.0], 1, 5),
    "emulate_steps 300, resolution 100": (lc.emulate_steps, codes, family, [1.0, 1.0], 100, 5),
    "main sample 300x40": (main, ["sample", "--config", str(path / "sample.json"),
                                 "--out", str(path / "main.csv"), "--seed", "7"]),
    f"%.17g floor, {len(floats)} floats": ((",%.17g" * len(floats)).__mod__, floats),
}
""" + best_of(SAMPLE_CALLS)


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


def claim(series: list, base: list, bound: float) -> dict:
    """Whether the runs of a checkout beat the base runs they alternated with.

    The claim rule: lower in at least 9 of 10 pairs, and a median lower by
    more than the base's interquartile range.  When that range exceeds the
    metric's regression bound (relative to the base median), the runs
    cannot show a change of the bound's size either way: "unresolved".
    """
    first = spread(base)
    wins = sum(v < b for v, b in zip(series, base))
    gap = first["median"] - statistics.median(series)
    iqr = first["q3"] - first["q1"]
    if iqr > bound * abs(first["median"]):
        verdict = "unresolved"
    elif 10 * wins >= 9 * len(base) and gap > iqr:
        verdict = "met"
    else:
        verdict = "not met"
    return {"wins": wins, "pairs": len(base), "median_gap": gap, "base_iqr": iqr,
            "bound": bound, "verdict": verdict}


def bench_results(checkouts: dict) -> dict:
    """Per checkout and workload: each end-to-end metric over BENCH_PAIRS
    alternating untraced runs, the failed items of those runs, and one traced run.

    Every checkout after the first also counts, per metric, the pairs it won:
    those in which its value was lower than the first checkout's (every
    end-to-end metric is better lower), and records ``claim`` against the
    first checkout for each metric with a bound in its BENCHMARK.json.
    """
    results = {label: {} for label in checkouts}
    first = next(iter(checkouts))
    declared = json.loads((checkouts[first] / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in declared["end_to_end"]}
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
                    if name in bounds:
                        end_to_end[name]["claim"] = claim(
                            series, values[first][name], bounds[name]
                        )
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


def probe_costs(checkouts: dict, probe: str) -> tuple:
    """Per checkout, each case's minimum cost over PROBE_PROCESSES fresh
    processes, and the median and quartiles of the ratios of each process
    to the first checkout's process of the same turn."""
    runs = {label: [] for label in checkouts}
    for turn in range(PROBE_PROCESSES):
        for label, path in in_turn(checkouts, turn):
            done = subprocess.run([sys.executable, "-c", probe], env=environment(path),
                                  stdout=subprocess.PIPE, text=True, check=True)
            runs[label].append(json.loads(done.stdout.strip().splitlines()[-1]))
    best = {label: {name: min(run[name] for run in by_run) for name in by_run[0]}
            for label, by_run in runs.items()}
    base = next(iter(runs.values()))
    ratio_spread = {
        label: {name: spread([run[name] / first[name] for run, first in zip(by_run, base)])
                for name in by_run[0]}
        for label, by_run in runs.items()
    }
    return best, ratio_spread


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
    rate_us, rate_spread = probe_costs(checkouts, RATE_PROBE)
    lp_us, lp_spread = probe_costs(checkouts, LP_PROBE)
    sample_us, sample_spread = probe_costs(checkouts, SAMPLE_PROBE)
    bench = bench_results(checkouts)
    report = {
        "machine": machine(),
        "checkouts": list(checkouts),
        "readme_commands_s": command_s,
        "readme_commands_ratio": ratios(command_s),
        "readme_outputs_sha256": command_sha,
        "rate_eval_us": rate_us,
        "rate_eval_ratio": ratios(rate_us),
        "rate_eval_ratio_spread": rate_spread,
        "lp_solve_us": lp_us,
        "lp_solve_ratio": ratios(lp_us),
        "lp_solve_ratio_spread": lp_spread,
        "sample_us": sample_us,
        "sample_ratio": ratios(sample_us),
        "sample_ratio_spread": sample_spread,
        "bench": bench,
        "settings": {
            "bench": f"bench/run.py --seed {BENCH_SEED} --seconds {BENCH_SECONDS}: "
            f"{BENCH_PAIRS} alternating --trace 0 runs per checkout, one --trace 1 run",
            "readme_commands": f"fresh process each, min of {COMMAND_RUNS}, checkouts alternating",
            "rate_eval": f"min over {PROBE_PROCESSES} fresh processes of "
            f"{probe_timing(PROBE_CALLS)}",
            "lp_solve": f"min over {PROBE_PROCESSES} fresh processes of "
            f"{probe_timing(PROBE_CALLS)}",
            "sample": f"min over {PROBE_PROCESSES} fresh processes of "
            f"{probe_timing(SAMPLE_CALLS)}",
            "ratio_spread": "median and quartiles over the process pairs of each "
            "process's cost over the first checkout's process of the same turn",
            "claim": "lower in at least 9 of 10 pairs and a median gap above the first "
            "checkout's IQR; unresolved when that IQR exceeds the metric's bound",
        },
    }
    Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=False) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
