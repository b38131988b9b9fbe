"""Self-test of the benchmark itself.

    python3 bench/selftest.py [--seed N]

For every workload it starts two traced workers and one untraced worker
with the same seed and checks that

1. per-layer call counts, work meters (rows, bytes, increments) and
   caller -> callee counts repeat exactly from one traced process to the
   other;
2. the traced workers write byte-identical outputs to the untraced one
   (inside each worker every pass, traced or not, must also reproduce the
   first pass's bytes, or the worker reports a failed item);
3. every item passes its oracle checks.

It also checks that run.py reports exactly the metric names listed in
BENCHMARK.json.  Exits 0 when everything holds.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import shutil
import sys
import time
from types import SimpleNamespace

import run
from worker import counts_of


def check_metric_names() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, units in (("end_to_end", run.END_TO_END), ("per_layer", run.per_layer_units())):
        listed = {m["name"]: m["unit"] for m in spec[key]}
        if listed != units:
            problems.append(f"{key}: BENCHMARK.json lists {listed}, run.py reports {units}")
    workloads = [w["name"] for w in spec["workloads"]]
    if workloads != list(run.WORKLOADS):
        problems.append(f"workloads: BENCHMARK.json lists {workloads}, run.py has {run.WORKLOADS}")
    return problems


def check_workload(workload: str, seed: int) -> list:
    args = SimpleNamespace(workload=workload, seed=seed)
    workdir = run.ROOT / ".bench_work" / f"selftest-{workload}"
    deadline = time.monotonic() + run.DEADLINE_S
    try:
        traced = [
            run.spawn(args, workdir, deadline, trace=1, min_passes=2) for _ in range(2)
        ]
        plain = run.spawn(args, workdir, deadline, trace=0, min_passes=1)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    problems = []
    for label, result in (("traced #1", traced[0]), ("traced #2", traced[1]), ("untraced", plain)):
        if result["failed"]:
            problems.append(f"{label}: {result['failed']} failed: {result['failure_notes']}")
    first, second = (counts_of(r["passes"][0]["trace"]) for r in traced)
    if first != second:
        differing = sorted(k for k in first["calls"] if first["calls"][k] != second["calls"][k])
        problems.append(f"per-layer counts differ between traced processes: {differing}")
    digests = {r["output_sha256"] for r in (*traced, plain)}
    if len(digests) != 1:
        problems.append("traced and untraced outputs differ")
    calls = sum(c for c, _ in first["calls"].values())
    print(f"{workload}: {calls} traced calls per fixed job, output sha256 {plain['output_sha256'][:16]}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Self-test of the lincoder benchmark")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    problems = check_metric_names()
    for workload in run.WORKLOADS:
        problems += [f"{workload}: {p}" for p in check_workload(workload, args.seed)]
    for problem in problems:
        print(f"FAIL {problem}")
    print("self-test passed" if not problems else f"self-test failed: {len(problems)} problems")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
