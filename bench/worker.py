"""One benchmark workload in one fresh process (started by run.py).

Set-up is interpreter start, ``import lincoder`` and input generation, up
to the first timed item; it is measured from the parent's ``--t0`` on the
shared monotonic clock.  The process then runs the workload's fixed job
again and again, one item at a time (a closed loop with one caller), until
``--seconds`` have passed; the pass in progress completes.

With ``--trace 1`` passes alternate traced (even) and untraced (odd).
Every pass must reproduce the first pass's output bytes, and every traced
pass the first traced pass's call counts.  The last line on stdout is one
JSON object with the raw figures; run.py turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Failure messages kept in the result, beyond the counts.
MAX_FAILURE_NOTES = 10


def probe() -> float:
    """Seconds taken by a fixed job that touches neither lincoder nor BLAS.

    It runs next to every timed item, so run.py can tell how fast the host
    was at that moment; the mix of interpreter work and small numpy calls
    is the mix the workloads spend their time in.
    """
    import numpy

    values = numpy.arange(4.0)
    total = 0.0
    start = time.perf_counter()
    for i in range(2000):
        total += float((values * i + 1.0).sum()) + (i * i) % 7
    return time.perf_counter() - start


def machine() -> dict:
    import numpy
    import scipy

    blas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "env": {
            name: os.environ.get(name)
            for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def counts_of(snapshot: dict) -> dict:
    """The exactly repeatable part of a tracer snapshot."""
    return {
        "calls": {k: (v["calls"], v["errors"]) for k, v in snapshot["functions"].items()},
        "meters": snapshot["meters"],
        "edges": snapshot["edges"],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import lincoder

    import workloads

    tracer = None
    pause = contextlib.nullcontext
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

        @contextlib.contextmanager
        def pause():
            tracer.active = False
            try:
                yield
            finally:
                tracer.active = True

    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    items = workload.items
    setup_s = time.monotonic() - args.t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "lincoder": lincoder.__file__}))
        return 0

    references = [None] * len(items)
    first_counts = None
    passes = []
    attempted = failed = 0
    notes = []

    def fail(index: int, message: str) -> None:
        nonlocal failed
        failed += 1
        if len(notes) < MAX_FAILURE_NOTES:
            notes.append(f"pass {len(passes)} item {items[index].name}: {message}")

    start = time.perf_counter()
    while len(passes) < args.min_passes or time.perf_counter() - start < args.seconds:
        traced = tracer is not None and len(passes) % 2 == 0
        if traced:
            tracer.reset()
            tracer.install()
        item_wall = []
        item_cpu = []
        probes = []
        for index, item in enumerate(items):
            attempted += 1
            probes.append(probe())
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                raw = item.run()
                error = None
            except Exception as exc:  # an unexpected error fails the item
                error = exc
            item_wall.append(time.perf_counter() - t0)
            item_cpu.append(time.process_time() - cpu0)
            if error is not None:
                fail(index, f"raised {type(error).__name__}: {error}")
                continue
            try:
                with pause():
                    digest = item.digest(raw)
                    if not passes:
                        item.check(raw)
            except Exception as exc:  # a failed oracle or a crashing check
                fail(index, f"{type(exc).__name__}: {exc}")
                continue
            if references[index] is None:
                references[index] = digest
            elif digest != references[index]:
                fail(index, "output bytes differ from the first pass")
        probes.append(probe())
        record = {
            "traced": traced,
            "item_wall_s": item_wall,
            "item_cpu_s": item_cpu,
            "probe_s": probes,
        }
        if traced:
            tracer.uninstall()
            snapshot = tracer.snapshot()
            record["trace"] = snapshot
            if first_counts is None:
                first_counts = counts_of(snapshot)
            elif counts_of(snapshot) != first_counts:
                attempted += 1
                failed += 1
                notes.append(f"pass {len(passes)}: per-layer counts differ from the first traced pass")
        passes.append(record)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "items_per_pass": len(items),
        "passes": passes,
        "attempted": attempted,
        "failed": failed,
        "failure_notes": notes,
        "output_sha256": hashlib.sha256(b"".join(d or b"" for d in references)).hexdigest(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lincoder": lincoder.__file__,
        "machine": machine(),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
