"""Per-layer tracing of the lincoder package from outside the package.

Every public function of a layer module is wrapped, and every binding of
that function in any ``lincoder`` module (including names copied in by
``from .x import f`` and the re-exports in ``lincoder/__init__``) is
pointed at the wrapper.  The wrappers keep one span stack per process, so
a function's self time is its duration minus the time of the wrapped calls
made under it.  Nothing inside the package changes, and ``uninstall``
restores every original binding, so untraced passes run the plain code.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time

PACKAGE = "lincoder"
#: Modules timed as layers.  ``presets``, ``trajectories`` and ``errors``
#: are too thin to time on their own; their time counts to the caller.
LAYERS = (
    "linalg",
    "linearsystem",
    "ratedistortion",
    "coderate",
    "simplexlp",
    "emulation",
    "rng",
    "csvio",
    "cli",
)

#: Public helpers that coerce, check or format a single value.  They run
#: tens of thousands of times per fixed job for about a microsecond each,
#: so wrapping them would cost more than they do; their time counts to
#: their caller's self time.
THIN_HELPERS = frozenset(
    {
        "linalg.as_matrix",
        "linalg.as_square",
        "linalg.as_vector",
        "linalg.max_abs",
        "linalg.check_symmetric",
        "csvio.format_float",
    }
)

#: A call at least this long counts as slow (an unstalled small-matrix
#: exponential takes tens of microseconds).
SLOW_CALL_S = 2e-3


class Stat:
    """Counters of one wrapped function."""

    __slots__ = ("calls", "total_s", "self_s", "slow_calls", "errors", "depth")

    def __init__(self):
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.slow_calls = 0
        self.errors = 0
        self.depth = 0


def _meter_write(meters, args, result):
    dataset, path = args[0], args[1]
    meters["rows"] += dataset.trials * (dataset.steps + 1)
    meters["bytes"] += os.path.getsize(path)


def _meter_read(meters, args, result):
    meters["rows"] += result.trials * (result.steps + 1)
    meters["bytes"] += os.path.getsize(args[0])


def _meter_compress(meters, args, result):
    meters["increments"] += args[0].trials * args[0].steps
    meters["infeasible"] += result.infeasible_count


#: Work counters taken from a call's arguments and result, after the call.
METERS = {
    "csvio.write_trajectories": ("rows", "bytes", _meter_write),
    "csvio.read_trajectories": ("rows", "bytes", _meter_read),
    "emulation.compress_dataset": ("increments", "infeasible", _meter_compress),
}


class Tracer:
    """Wraps the layer functions of an imported ``lincoder`` package."""

    def __init__(self):
        self.active = True
        self.stats: dict[str, Stat] = {}
        self.meters: dict[str, dict] = {}
        self.edges: dict[tuple, int] = {}
        self._stack: list = []
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            for name, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not name.startswith("_")
                    and f"{layer}.{name}" not in THIN_HELPERS
                ):
                    key = f"{layer}.{name}"
                    self.stats[key] = Stat()
                    wrappers[obj] = self._wrap(obj, key)
        self._bindings = []
        for mod_name, module in list(sys.modules.items()):
            if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                continue
            for name, obj in vars(module).items():
                if inspect.isfunction(obj) and obj in wrappers:
                    self._bindings.append((module, name, obj, wrappers[obj]))

    def _wrap(self, fn, key):
        stat = self.stats[key]
        stack = self._stack
        edges = self.edges
        perf = time.perf_counter
        meter = counts = None
        if key in METERS:
            first, second, meter = METERS[key]
            counts = self.meters[key] = {first: 0, second: 0}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            edges[parent, key] = edges.get((parent, key), 0) + 1
            frame = [key, 0.0]
            stack.append(frame)
            stat.depth += 1
            start = perf()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stat.errors += 1
                raise
            finally:
                elapsed = perf() - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_s += elapsed - frame[1]
                if stat.depth == 0:
                    stat.total_s += elapsed
                if elapsed >= SLOW_CALL_S:
                    stat.slow_calls += 1
                if stack:
                    stack[-1][1] += elapsed
            if meter is not None:
                meter(counts, args, result)
            return result

        return wrapper

    def install(self) -> None:
        for module, name, _, wrapper in self._bindings:
            setattr(module, name, wrapper)

    def uninstall(self) -> None:
        for module, name, original, _ in self._bindings:
            setattr(module, name, original)

    def reset(self) -> None:
        for stat in self.stats.values():
            stat.__init__()
        for counts in self.meters.values():
            for name in counts:
                counts[name] = 0
        self.edges.clear()

    def snapshot(self) -> dict:
        """Counters of everything traced since the last reset, as plain data."""
        return {
            "functions": {
                key: {
                    "calls": s.calls,
                    "total_s": s.total_s,
                    "self_s": s.self_s,
                    "slow_calls": s.slow_calls,
                    "errors": s.errors,
                }
                for key, s in self.stats.items()
            },
            "meters": {key: dict(counts) for key, counts in self.meters.items()},
            "edges": {f"{parent}>{child}": n for (parent, child), n in self.edges.items()},
        }
