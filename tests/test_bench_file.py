"""The per-call probes of tools/bench_file.py run against the working tree."""

import importlib.util
import json
import pathlib
import tempfile

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "bench_file.py"


def _bench_file():
    spec = importlib.util.spec_from_file_location("bench_file", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


BENCH_FILE = _bench_file()


@pytest.mark.parametrize(
    "probe, calls",
    [("RATE_PROBE", "PROBE_CALLS"), ("LP_PROBE", "PROBE_CALLS"), ("SAMPLE_PROBE", "SAMPLE_CALLS")],
)
def test_probe_cases_run_once(probe, calls, monkeypatch, capsys):
    # The probe's timing tail is swapped for one that calls each case once,
    # so a changed call form, or a name the tail rebinds under a case, fails
    # here rather than in a BENCH file.
    source = getattr(BENCH_FILE, probe)
    tail = BENCH_FILE.best_of(getattr(BENCH_FILE, calls))
    assert source.endswith(tail)
    monkeypatch.setattr(BENCH_FILE, "PROBE_WARMUP", 0)
    monkeypatch.setattr(BENCH_FILE, "PROBE_ROUNDS", 1)
    namespace = {}
    try:
        exec(source[: -len(tail)] + BENCH_FILE.best_of(1), namespace)
    finally:
        for value in namespace.values():
            if isinstance(value, tempfile.TemporaryDirectory):
                value.cleanup()
    best = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert list(best) == list(namespace["cases"]) != []
