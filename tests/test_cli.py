"""End-to-end CLI tests: outputs, reports, exit codes, determinism."""

import argparse
import hashlib
import itertools
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

import lincoder
from lincoder import (
    LinearSystemModel,
    SourceFamily,
    TrajectoryDataset,
    compress_dataset,
    planar_grid_family,
    sample_paths,
    simplexlp,
)
from lincoder.cli import main
from lincoder.csvio import dump_family, read_trajectories, write_trajectories
from lincoder.simplexlp import MAX_BASES


def write_config(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestRdfCurve:
    def test_stable_preset_prints_asymptote(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "stable",
                "distortion": 0.01,
                "grid": {"min": 0.01, "max": 50.0, "points": 20},
            },
        )
        out = tmp_path / "curve.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "asymptote_bits=" in printed
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# distortion=0.01 asymptote_bits=")
        assert lines[1] == "dt,fs,rate_bits"
        assert len(lines) == 22
        rates = [float(line.split(",")[2]) for line in lines[2:]]
        assert all(b >= a - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_unstable_preset_has_no_asymptote(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "unstable",
                "distortion": 0.01,
                "grid": {"min": 0.01, "max": 10.0, "points": 10},
            },
        )
        out = tmp_path / "curve.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 0
        assert "asymptote_bits=none" in out.read_text().splitlines()[0]
        assert "asymptote_bits=" not in capsys.readouterr().out

    def test_single_point_grid(self, tmp_path):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "stable",
                "distortion": 0.01,
                "grid": {"min": 1.0, "max": 1.0, "points": 1},
            },
        )
        out = tmp_path / "one.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 3

    @pytest.mark.parametrize("high", [float("inf"), float("nan"), 0.0, -5.0])
    def test_single_point_grid_checks_its_max(self, tmp_path, capsys, high):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "stable",
                "distortion": 0.01,
                "grid": {"min": 1.0, "max": high, "points": 1},
            },
        )
        out = tmp_path / "one.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 2
        assert "0 < min < max < inf" in capsys.readouterr().err
        assert not out.exists()

    def test_log_grid_rows_end_on_the_configured_min_and_max(self, tmp_path):
        # 10^log10(0.3) and 10^log10(30) are not 0.3 and 30; the grid pins both ends.
        config = write_config(
            tmp_path,
            "curve.json",
            {"system": "stable", "distortion": 0.01, "grid": {"min": 0.3, "max": 30, "points": 7}},
        )
        out = tmp_path / "curve.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 7
        assert rows[0].startswith("0.29999999999999999,") and rows[-1].startswith("30,")

    def test_explicit_matrices(self, tmp_path):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": {"A": [[-1.0, 0.0], [0.0, -2.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
                "distortion": 0.1,
                "grid": {"min": 0.1, "max": 10.0, "points": 5},
            },
        )
        out = tmp_path / "curve.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 0

    def test_bad_config_exits_nonzero(self, tmp_path, capsys):
        config = write_config(tmp_path, "bad.json", {"system": "nope"})
        rc = main(["rdf-curve", "--config", config, "--out", str(tmp_path / "x.csv")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_nan_distortion_is_a_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "stable",
                "distortion": float("nan"),
                "grid": {"min": 0.01, "max": 10.0, "points": 3},
            },
        )
        assert main(["rdf-curve", "--config", config, "--out", str(tmp_path / "c.csv")]) == 2
        assert "distortion must be nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"log": "false"}, "grid log must be true or false"),
            ({"max": float("inf")}, "0 < min < max < inf"),
            ({"axis": "hz"}, "grid axis must be 'dt' or 'fs'"),
        ],
    )
    def test_bad_grid_is_a_config_error(self, tmp_path, capsys, grid, message):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "stable",
                "distortion": 0.01,
                "grid": {"min": 1.0, "max": 3.0, "points": 3, **grid},
            },
        )
        out = tmp_path / "c.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        absent, out = str(tmp_path / "absent.json"), str(tmp_path / "curve.csv")
        rc = main(["rdf-curve", "--config", absent, "--out", out])
        assert rc == 2


class TestMinRate:
    def test_not_needed_with_ceiling(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": "stable", "distortion": 0.01, "capacity_bits": 8.0},
        )
        assert main(["min-rate", "--config", config]) == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("not_needed ceiling_bits=")
        ceiling = float(line.split("ceiling_bits=")[1].split()[0])
        assert ceiling == pytest.approx(1.0, abs=1e-6)

    def test_brownian_matches_closed_form(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": "brownian", "distortion": 0.01, "capacity_bits": 8.0},
        )
        assert main(["min-rate", "--config", config]) == 0
        line = capsys.readouterr().out.strip()
        fs = float(line.split("fs_min=")[1])
        expected = 1.0 / (0.01 * 4.0**8)
        assert abs(fs - expected) / expected <= 1e-6

    def test_non_hurwitz_zero_rate_is_not_needed(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": {"A": [[0.0]], "N": [[0.0]]}, "distortion": 0.01, "capacity_bits": 1.0},
        )
        assert main(["min-rate", "--config", config]) == 0
        assert capsys.readouterr().out.strip() == "not_needed ceiling_bits=none zero_rate=1"

    def test_capacity_required(self, tmp_path, capsys):
        config = write_config(tmp_path, "mr.json", {"system": "stable", "distortion": 0.01})
        assert main(["min-rate", "--config", config]) == 2

    def test_nan_distortion_is_a_config_error(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": "unstable", "distortion": float("nan"), "capacity_bits": 8.0},
        )
        assert main(["min-rate", "--config", config]) == 2
        assert "distortion must be nonnegative" in capsys.readouterr().err

    def test_nan_capacity_is_rejected_like_a_negative_one(self, tmp_path, capsys):
        for capacity in (float("nan"), -1.0):
            config = write_config(
                tmp_path,
                "mr.json",
                {"system": "unstable", "distortion": 0.01, "capacity_bits": capacity},
            )
            assert main(["min-rate", "--config", config]) == 1
            assert capsys.readouterr().err == "error: capacity must be positive\n"

    def test_infinite_capacity_is_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": "unstable", "distortion": 0.01, "capacity_bits": math.inf},
        )
        assert "Infinity" in (tmp_path / "mr.json").read_text()
        assert main(["min-rate", "--config", config]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", "error: capacity must be finite\n")

    def test_preset_object_is_not_a_system(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": {"preset": "unstable"}, "distortion": 0.01, "capacity_bits": 8.0},
        )
        assert main(["min-rate", "--config", config]) == 2
        assert capsys.readouterr().err == (
            "error: system must be a preset name or an object with A and N matrices\n"
        )

    @pytest.mark.parametrize("capacity", [1030.0, 1e300])
    def test_capacity_beyond_overflow_horizon_fails_without_warning(
        self, tmp_path, capsys, capacity
    ):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": "unstable", "distortion": 0.01, "capacity_bits": capacity},
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["min-rate", "--config", config]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: code rate overflows at dt=")
        assert captured.err.count("\n") == 1

    def test_infeasible_capacity_fails(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "mr.json",
            {"system": "brownian", "distortion": 1e-30, "capacity_bits": 1.0},
        )
        assert main(["min-rate", "--config", config]) == 1
        assert "error:" in capsys.readouterr().err


class TestSample:
    def test_writes_deterministic_dataset(self, tmp_path):
        config = write_config(
            tmp_path,
            "sample.json",
            {
                "system": "stable",
                "x0": [1.0, 1.0],
                "dt": 0.05,
                "steps": 10,
                "trials": 3,
            },
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert main(["sample", "--config", config, "--out", str(out1), "--seed", "7"]) == 0
        assert main(["sample", "--config", config, "--out", str(out2), "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        data = read_trajectories(out1)
        assert data.trials == 3 and data.steps == 10

    def test_zero_noise_decay(self, tmp_path):
        config = write_config(
            tmp_path,
            "sample.json",
            {
                "system": {"A": [[-1.0]], "N": [[0.0]]},
                "x0": [2.0],
                "dt": 0.5,
                "steps": 4,
                "trials": 2,
            },
        )
        out = tmp_path / "decay.csv"
        assert main(["sample", "--config", config, "--out", str(out), "--seed", "1"]) == 0
        data = read_trajectories(out)
        expected = 2.0 * np.exp(-0.5 * np.arange(5))
        assert np.max(np.abs(data.states[0, :, 0] - expected)) <= 1e-12
        assert np.array_equal(data.states[0], data.states[1])

    @pytest.mark.parametrize(
        "spacing", [{"fs": 0.0}, {"dt": -0.1}, {"dt": float("nan")}, {"fs": float("inf")}]
    )
    def test_bad_sampling_interval_is_a_config_error(self, tmp_path, capsys, spacing):
        config = write_config(
            tmp_path,
            "sample.json",
            {"system": "stable", "x0": [0, 0], "steps": 2, "trials": 1, **spacing},
        )
        out = tmp_path / "x.csv"
        assert main(["sample", "--config", config, "--out", str(out), "--seed", "1"]) == 2
        assert "must be positive and finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("spacing", [{"dt": 0.1, "fs": 100.0}, {}], ids=["both", "neither"])
    def test_dt_and_fs_are_exclusive(self, tmp_path, capsys, spacing):
        config = write_config(
            tmp_path,
            "sample.json",
            {"system": "stable", "x0": [0, 0], "steps": 2, "trials": 1, **spacing},
        )
        out = tmp_path / "x.csv"
        assert main(["sample", "--config", config, "--out", str(out), "--seed", "1"]) == 2
        assert capsys.readouterr().err == "error: config needs exactly one of 'dt' and 'fs'\n"
        assert not out.exists()

    def test_overflowing_paths_fail_cleanly(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "sample.json",
            {"system": "unstable", "x0": [1, 1], "dt": 1000, "steps": 3, "trials": 2},
        )
        out = tmp_path / "x.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["sample", "--config", config, "--out", str(out), "--seed", "7"]) == 1
        assert capsys.readouterr().err == "error: the increment law overflows at dt = 1000\n"
        assert not out.exists()

    def test_seed_is_required(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            "sample.json",
            {"system": "stable", "x0": [0, 0], "dt": 0.1, "steps": 2, "trials": 1},
        )
        with pytest.raises(SystemExit):
            main(["sample", "--config", config, "--out", str(tmp_path / "x.csv")])


class TestEmulate:
    def _write_inputs(self, tmp_path, steps=20, trials=5):
        model = LinearSystemModel.constant(
            [[-0.5, 1.0], [-1.0, -0.5]], [[0.01, 0.0], [0.0, 0.01]]
        )
        data = sample_paths(model, [1.0, 1.0], 0.01, steps, trials, seed=11)
        data_path = tmp_path / "train.csv"
        write_trajectories(data, data_path)
        family_path = tmp_path / "family.json"
        dump_family(planar_grid_family(), family_path)
        return str(data_path), str(family_path)

    def test_report_and_determinism(self, tmp_path, capsys):
        data_path, family_path = self._write_inputs(tmp_path)
        out1 = tmp_path / "e1.csv"
        out2 = tmp_path / "e2.csv"
        args = [data_path, family_path, "--resolution", "20", "--seed", "5"]
        assert main(["emulate", *args, "--out", str(out1)]) == 0
        report = capsys.readouterr().out
        assert main(["emulate", *args, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        for key in (
            "steps=20",
            "trials=5",
            "infeasible_increments=0",
            "mean_discrepancy_rms=",
            "cov_discrepancy_rms=",
            "rate_bits_at_distortion=",
        ):
            assert key in report
        emulated = read_trajectories(out1)
        assert emulated.trials == 1 and emulated.steps == 20

    def test_deterministic_single_field_dataset_reproduced(self, tmp_path, capsys):
        # all increments equal 0.05 * (1, 0): the emulator must replay exactly
        states = np.zeros((3, 11, 2))
        for k in range(11):
            states[:, k, 0] = 0.05 * k
        data_path = tmp_path / "train.csv"
        from lincoder import TrajectoryDataset

        write_trajectories(TrajectoryDataset(0.1, states), data_path)
        family_path = tmp_path / "family.json"
        dump_family(planar_grid_family(), family_path)
        out = tmp_path / "emu.csv"
        rc = main(
            [
                "emulate",
                str(data_path),
                str(family_path),
                "--resolution",
                "9",
                "--seed",
                "3",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        report = capsys.readouterr().out
        assert "infeasible_increments=0" in report
        mean_line = [l for l in report.splitlines() if l.startswith("mean_discrepancy_rms=")][0]
        assert float(mean_line.split("=")[1]) <= 1e-9
        # identical trials: the training covariance is rounding, not a scale
        cov_line = [l for l in report.splitlines() if l.startswith("cov_discrepancy_rms=")][0]
        assert float(cov_line.split("=")[1]) <= 1e-9
        emulated = read_trajectories(out)
        assert np.max(np.abs(emulated.states[0] - states[0])) <= 1e-9

    def test_cov_discrepancy_matches_closed_form(self, tmp_path, capsys):
        # Two trials move by a(1, 1) and a(1, -1) every step.  Over the fields
        # +-e1, +-e2 their codes are p0 = (1/2, 1/2, 0, 0) and
        # p1 = (1/2, 0, 0, 1/2), both at flow time 2a.  The replay draws one
        # of them, then Mult(R, p_j), so its covariance is
        # (2a)^2 [Cov_j(V p_j) + E_j V Cov_Mult(p_j) V^T / R]
        # = a^2 diag(1/R, 1 + 1/R); the training covariance is diag(0, 2a^2).
        a, steps, resolution = 0.05, 6, 4
        states = np.zeros((2, steps + 1, 2))
        for k in range(steps + 1):
            states[0, k] = [a * k, a * k]
            states[1, k] = [a * k, -a * k]
        data_path = tmp_path / "train.csv"
        from lincoder import TrajectoryDataset

        write_trajectories(TrajectoryDataset(0.1, states), data_path)
        family_path = tmp_path / "family.json"
        family_path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]))
        rc = main(
            [
                "emulate",
                str(data_path),
                str(family_path),
                "--resolution",
                str(resolution),
                "--seed",
                "2",
                "--out",
                str(tmp_path / "emu.csv"),
            ]
        )
        assert rc == 0
        report = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        implied = np.diag([1.0 / resolution, 1.0 + 1.0 / resolution])
        training = np.diag([0.0, 2.0])
        expected = np.linalg.norm(implied - training) / np.linalg.norm(training)
        assert float(report["cov_discrepancy_rms"]) == pytest.approx(expected, rel=1e-9)

    def test_single_trial_reports_no_covariance_or_rate(self, tmp_path, capsys):
        data_path, family_path = self._write_inputs(tmp_path, trials=1)
        out = tmp_path / "emu.csv"
        argv = [data_path, family_path, "--resolution", "3", "--seed", "4", "--out", str(out)]
        assert main(["emulate", *argv]) == 0
        keys = [line.split("=", 1)[0] for line in capsys.readouterr().out.splitlines()]
        assert keys == ["steps", "trials", "infeasible_increments", "mean_discrepancy_rms", "out"]

    @pytest.mark.parametrize("trials", [1, 5])
    @pytest.mark.parametrize("distortion", ["nan", "-0.5"])
    def test_bad_distortion_is_a_usage_error(self, tmp_path, capsys, trials, distortion):
        data_path, family_path = self._write_inputs(tmp_path, trials=trials)
        out = tmp_path / "emu.csv"
        argv = [data_path, family_path, "--resolution", "3", "--seed", "4", "--out", str(out)]
        with pytest.raises(SystemExit) as exit_info:
            main(["emulate", *argv, "--distortion", distortion])
        assert exit_info.value.code == 2
        assert "distortion must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("resolution", ["0", "-3"])
    def test_nonpositive_resolution_is_a_usage_error(self, tmp_path, capsys, resolution):
        data_path, family_path = self._write_inputs(tmp_path)
        out = tmp_path / "emu.csv"
        argv = [data_path, family_path, "--resolution", resolution, "--seed", "4"]
        with pytest.raises(SystemExit) as exit_info:
            main(["emulate", *argv, "--out", str(out)])
        assert exit_info.value.code == 2
        assert "resolution must be a positive integer" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_dataset_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        family_path = tmp_path / "family.json"
        dump_family(planar_grid_family(), family_path)
        rc = main(
            [
                "emulate",
                str(empty),
                str(family_path),
                "--resolution",
                "5",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_dimension_mismatch_fails(self, tmp_path, capsys):
        data_path, _ = self._write_inputs(tmp_path)
        family_path = tmp_path / "scalar_family.json"
        family_path.write_text(json.dumps([[1.0], [-1.0]]))
        rc = main(
            [
                "emulate",
                data_path,
                str(family_path),
                "--resolution",
                "5",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_family_above_basis_cap_fails(self, tmp_path, capsys):
        data_path, _ = self._write_inputs(tmp_path)
        k = next(k for k in itertools.count(2) if math.comb(k, 2) > MAX_BASES)
        angles = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        family_path = tmp_path / "large_family.json"
        vectors = np.column_stack([np.cos(angles), np.sin(angles)])
        family_path.write_text(json.dumps(vectors.tolist()))
        rc = main(
            [
                "emulate",
                data_path,
                str(family_path),
                "--resolution",
                "5",
                "--seed",
                "1",
                "--out",
                str(tmp_path / "x.csv"),
            ]
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_family_with_no_dual_feasible_basis_fails(self, tmp_path, capsys, monkeypatch):
        # A negative TIE_RTOL forces the refusal that no family is known to reach.
        data_path, _ = self._write_inputs(tmp_path)
        family_path = tmp_path / "family.json"
        family_path.write_text(json.dumps([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]))
        monkeypatch.setattr(simplexlp, "TIE_RTOL", -2.0)
        simplexlp._optimal_bases.cache_clear()
        out = tmp_path / "emu.csv"
        argv = [data_path, str(family_path), "--resolution", "1", "--seed", "1"]
        assert main(["emulate", *argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rounding leaves no basis of the family dual-feasible")
        assert "Traceback" not in err
        assert not out.exists()

    def test_square_family_with_a_near_duplicate_field_matches_highs(self, tmp_path, capsys):
        # Fields 0 and 1 differ by 1e-9 in one entry.  Even steps move inside
        # the family's cone, odd steps in a random direction; one trial, so
        # each step's flow time is its increment's.
        from scipy.optimize import linprog

        fields = [[0.0, 2.0, -1.0], [1e-9, 2.0, -1.0], [-2.0, -3.0, 0.0]]
        vectors = np.array(fields).T
        rng = np.random.default_rng(11)
        steps = rng.normal(size=(10, 3))
        steps[::2] = (vectors @ rng.uniform(0.1, 1.0, (3, 5))).T
        states = np.cumsum(np.vstack([np.ones((1, 3)), steps]), axis=0)
        data_path = tmp_path / "train3.csv"
        write_trajectories(TrajectoryDataset(0.01, states[np.newaxis]), data_path)
        family_path = tmp_path / "family.json"
        family_path.write_text(json.dumps(fields))
        out = tmp_path / "emu.csv"
        argv = [str(data_path), str(family_path), "--resolution", "1", "--seed", "1"]
        assert main(["emulate", *argv, "--out", str(out)]) == 0
        printed = dict(line.split("=", 1) for line in capsys.readouterr().out.splitlines())
        dataset = read_trajectories(data_path)
        codes = compress_dataset(dataset, SourceFamily(vectors))
        infeasible = 0
        for step, target in enumerate(dataset.increments()[0]):
            reference = linprog(
                np.ones(3), A_eq=vectors, b_eq=target, bounds=(0, None), method="highs"
            )
            if reference.status == 2:
                infeasible += 1
                assert codes.feasible_trials[step] == 0
                continue
            assert reference.status == 0
            assert abs(codes.flow_times[step] - reference.fun) <= 1e-6
        assert 0 < infeasible < 10
        assert int(printed["infeasible_increments"]) == infeasible
        assert out.exists()

    def test_affine_family_fails_without_output(self, tmp_path, capsys):
        data_path, _ = self._write_inputs(tmp_path)
        family_path = tmp_path / "affine_family.json"
        affine = {"M": [[-1.0, 0.0], [0.0, -1.0]], "b": [0.0, 0.0]}
        family_path.write_text(json.dumps([affine, [1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]))
        out = tmp_path / "x.csv"
        args = [data_path, str(family_path), "--resolution", "5", "--seed", "1"]
        assert main(["emulate", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: family file {family_path}: expected an array of vectors\n"
        assert not out.exists()


BASE_CONFIGS = {
    "rdf-curve": {
        "system": "stable",
        "distortion": 0.01,
        "grid": {"min": 0.1, "max": 1.0, "points": 3},
    },
    "min-rate": {"system": "unstable", "distortion": 0.01, "capacity_bits": 8.0},
    "sample": {"system": "stable", "x0": [1.0, 1.0], "dt": 0.1, "steps": 2, "trials": 2},
}


class TestConfigValueTypes:
    @pytest.mark.parametrize(
        "command, change",
        [
            ("rdf-curve", {"distortion": None}),
            ("rdf-curve", {"grid": {"min": 0.1, "max": 1.0, "points": 2.5}}),
            ("min-rate", {"distortion": None}),
            ("min-rate", {"capacity_bits": [1]}),
            ("sample", {"dt": None}),
            ("sample", {"steps": None}),
            ("sample", {"x0": {}}),
            ("sample", {"x0": [1.0, None]}),
            ("sample", {"steps": 2.7}),
            ("sample", {"steps": True}),
            ("sample", {"trials": True}),
            ("sample", {"dt": "0.01"}),
            ("rdf-curve", {"distortion": "0.01"}),
            ("min-rate", {"capacity_bits": "8"}),
            ("rdf-curve", {"grid": {"min": "0.1", "max": 1.0, "points": 3}}),
            ("sample", {"x0": [True, 1.0]}),
            ("sample", {"x0": ["1", 2]}),
            ("min-rate", {"system": {"A": [[True, 0], [0, "-1"]], "N": [[0.01, 0], [0, 0.01]]}}),
        ],
        ids=[
            "curve-distortion-null",
            "curve-points-float",
            "min-rate-distortion-null",
            "capacity-list",
            "dt-null",
            "steps-null",
            "x0-object",
            "x0-null-entry",
            "steps-float",
            "steps-bool",
            "trials-bool",
            "dt-string",
            "curve-distortion-string",
            "capacity-string",
            "grid-min-string",
            "x0-bool-entry",
            "x0-string-entry",
            "drift-bool-and-string-entries",
        ],
    )
    def test_wrong_json_type_is_a_config_error(self, tmp_path, capsys, command, change):
        config = write_config(tmp_path, "config.json", {**BASE_CONFIGS[command], **change})
        out = tmp_path / "out.csv"
        argv = [command, "--config", config]
        if command != "min-rate":
            argv += ["--out", str(out)]
        if command == "sample":
            argv += ["--seed", "1"]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOutputPath:
    @pytest.mark.parametrize("command", ["rdf-curve", "sample"])
    def test_missing_out_is_a_usage_error(self, tmp_path, capsys, command):
        # A config key "out" names no file: --out is the one output path.
        out = tmp_path / "out.csv"
        config = write_config(tmp_path, "config.json", {**BASE_CONFIGS[command], "out": str(out)})
        argv = [command, "--config", config] + (["--seed", "1"] if command == "sample" else [])
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "the following arguments are required: --out" in capsys.readouterr().err
        assert not out.exists()


class TestConfigFileErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"system": "unstable",', "is not valid JSON"),
            ('["unstable"]', "must hold a JSON object"),
        ],
        ids=["invalid-json", "not-an-object"],
    )
    def test_unusable_config_is_a_config_error(self, tmp_path, capsys, text, message):
        path = tmp_path / "mr.json"
        path.write_text(text)
        assert main(["min-rate", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: config {path} {message}")

    @pytest.mark.parametrize(
        "system, message",
        [
            (
                {"A": [[-1.0, 0.0], [0.0, -1.0]], "N": [[1.0, 0.0], [0.0, -1.0]]},
                "noise intensity is not positive semidefinite",
            ),
            (
                {"A": [[-1.0]], "N": [[1.0, 0.0], [0.0, 1.0]]},
                "drift and noise intensity sizes do not agree",
            ),
        ],
        ids=["noise-not-psd", "size-mismatch"],
    )
    def test_invalid_system_matrices_are_a_config_error(self, tmp_path, capsys, system, message):
        config = write_config(tmp_path, "mr.json", {**BASE_CONFIGS["min-rate"], "system": system})
        assert main(["min-rate", "--config", config]) == 2
        assert capsys.readouterr().err == f"error: invalid system matrices: {message}\n"

    def test_grid_that_is_not_an_object_is_a_config_error(self, tmp_path, capsys):
        payload = {**BASE_CONFIGS["rdf-curve"], "grid": [0.1, 1.0]}
        config = write_config(tmp_path, "curve.json", payload)
        out = tmp_path / "curve.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: grid must be an object with min, max and points\n"
        assert not out.exists()

    @pytest.mark.parametrize("seed", ["-1", str(2**64)])
    def test_seed_outside_64_bits_is_a_usage_error(self, tmp_path, capsys, seed):
        config = write_config(tmp_path, "sample.json", BASE_CONFIGS["sample"])
        out = tmp_path / "train.csv"
        with pytest.raises(SystemExit) as exit_info:
            main(["sample", "--config", config, "--out", str(out), "--seed", seed])
        assert exit_info.value.code == 2
        assert "seed must be an unsigned 64-bit integer" in capsys.readouterr().err
        assert not out.exists()


class TestDatasetFileErrors:
    """A malformed training dataset makes emulate exit 1, naming the file, and writes nothing."""

    @pytest.mark.parametrize(
        "text, message",
        [
            ("trial,k,x1\n0,0,1\n", "has an unexpected header"),
            ("trial,k,t,x1,x2\n", "contains no data rows"),
            ("trial,k,t,x1,x2\n0,0,0,1\n0,1,0.1,2\n", "has a malformed row: '0,0,0,1'"),
            ("trial,k,t,x1\n0,0,0,1\n1,0,0,2\n", "holds a single time point per trial"),
            ("trial,k,t,x1\n0,0,0,1\n0,1,0,2\n", "has no usable time column"),
            ("trial,k,t,x1\n0,0,0,1\n0,1,0.1,nan\n", "has non-finite states"),
            ("trial,k,t,x1\n0,0,0,inf\n0,1,0.1,2\n", "has non-finite states"),
            ("trial,k,t,x1,x2\n0,0,0,1,2\n0,1,0.1,3,1e999\n", "has non-finite states"),
        ],
        ids=[
            "header", "no-rows", "column-count", "single-time-point", "zero-dt",
            "nan-state", "inf-state", "overflowing-state",
        ],
    )
    def test_malformed_dataset_fails(self, tmp_path, capsys, text, message):
        data_path, family_path = tmp_path / "train.csv", tmp_path / "family.json"
        data_path.write_text(text)
        dump_family(planar_grid_family(), family_path)
        out = tmp_path / "emulated.csv"
        args = [str(data_path), str(family_path), "--resolution", "1", "--seed", "1"]
        assert main(["emulate", *args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: dataset file {data_path} {message}\n"
        assert not out.exists()


class TestSampleGoldenBytes:
    """sample outputs recorded by sha256; any change to them is a determinism notice."""

    @pytest.mark.parametrize(
        "system, digest",
        [
            # the README walkthrough: W(dt) = w I, whose eigenvectors are the unit vectors
            ("stable", "1d2e8d98804ad2b81653d68b56244233b5b4de35a3050444d16d69853239a273"),
            ("marginal", "078d64018593442a3e00ac25c31423233afd303850103d03d93a340484792e5c"),
        ],
    )
    def test_readme_config(self, tmp_path, capsys, system, digest):
        payload = {"system": system, "x0": [1.0, 1.0], "dt": 0.01, "steps": 300, "trials": 50}
        config = write_config(tmp_path, "sample.json", payload)
        out = tmp_path / "train.csv"
        assert main(["sample", "--config", config, "--out", str(out), "--seed", "7"]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
        assert capsys.readouterr().out == f"trials=50 steps=300 out={out}\n"


class TestCurveByteDeterminism:
    def test_rerun_is_byte_identical(self, tmp_path):
        config = write_config(
            tmp_path,
            "curve.json",
            {
                "system": "marginal",
                "distortion": 0.01,
                "grid": {"min": 0.1, "max": 100.0, "points": 30},
            },
        )
        out1 = tmp_path / "c1.csv"
        out2 = tmp_path / "c2.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out1)]) == 0
        assert main(["rdf-curve", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


class TestCurveGoldenBytes:
    """rdf-curve outputs recorded byte for byte; any change to them is a determinism notice."""

    def run(self, tmp_path, capsys, payload):
        config = write_config(tmp_path, "curve.json", payload)
        out = tmp_path / "curve.csv"
        assert main(["rdf-curve", "--config", config, "--out", str(out)]) == 0
        return out.read_bytes(), capsys.readouterr().out

    def test_readme_stable_config_on_the_dt_axis(self, tmp_path, capsys):
        grid = {"min": 0.001, "max": 100.0, "points": 100, "log": True, "axis": "dt"}
        data, printed = self.run(
            tmp_path, capsys, {"system": "stable", "distortion": 0.01, "grid": grid}
        )
        lines = data.decode().splitlines()
        assert lines[:3] == [
            "# distortion=0.01 asymptote_bits=0.99999999999999967 model=e120e2bc878c",
            "dt,fs,rate_bits",
            "0.001,1000,0",
        ]
        assert lines[-1] == "100,0.01,0.99999999999999989"
        assert hashlib.sha256(data).hexdigest() == (
            "c04e03a5aca17c0835e9d651eb3469f32ba1fec68388a03f21fcbde7a8150ad0"
        )
        assert printed == f"asymptote_bits=0.99999999999999967\nout={tmp_path / 'curve.csv'}\n"

    def test_explicit_matrices_on_a_linear_fs_axis(self, tmp_path, capsys):
        system = {"A": [[-0.3, 2.0], [-1.5, -0.1]], "N": [[0.02, 0.005], [0.005, 0.01]]}
        grid = {"min": 0.5, "max": 20.0, "points": 6, "log": False, "axis": "fs"}
        data, printed = self.run(
            tmp_path, capsys, {"system": system, "distortion": 0.001, "grid": grid}
        )
        assert data == (
            b"# distortion=0.001 asymptote_bits=6.1453425853561825 model=edf704cf8448\n"
            b"dt,fs,rate_bits\n"
            b"2,0.5,5.2839013083622648\n"
            b"0.22727272727272727,4.4000000000000004,2.528353252943202\n"
            b"0.12048192771084336,8.3000000000000007,1.639395191399643\n"
            b"0.081967213114754106,12.199999999999999,1.0939187209989909\n"
            b"0.062111801242236017,16.100000000000001,0.69987590495964891\n"
            b"0.050000000000000003,20,0.42475611522311546\n"
        )
        assert printed == f"asymptote_bits=6.1453425853561825\nout={tmp_path / 'curve.csv'}\n"

    def test_linear_fs_axis_prints_the_configured_values(self, tmp_path, capsys):
        # The fs column holds the grid values as given, not 1 / (1 / fs):
        # the last row once read 49.000000000000007.  The dt column is 1 / fs.
        grid = {"min": 1.0, "max": 49.0, "points": 7, "log": False, "axis": "fs"}
        data, _ = self.run(tmp_path, capsys, {"system": "stable", "distortion": 0.001, "grid": grid})
        assert data == (
            b"# distortion=0.001 asymptote_bits=4.3219280948873626 model=e120e2bc878c\n"
            b"dt,fs,rate_bits\n"
            b"1,1,3.6601997372583948\n"
            b"0.1111111111111111,9,1.0725954196943006\n"
            b"0.058823529411764705,17,0.19224104156978294\n"
            b"0.040000000000000001,25,0\n"
            b"0.030303030303030304,33,0\n"
            b"0.024390243902439025,41,0\n"
            b"0.020408163265306121,49,0\n"
        )


class TestInProcessCalls:
    """Commands run one after another in one process: each gives the bytes of
    a lone call, and only the first builds the argument parser."""

    CALLS = [
        ["sample", "--config", "a.json", "--out", "a.csv", "--seed", "7"],
        ["emulate", "a.csv", "family.json", "--resolution", "20", "--seed", "5", "--out", "e.csv"],
        ["sample", "--config", "b.json", "--out", "b.csv", "--seed", "3"],
    ]

    def _inputs(self, workdir):
        workdir.mkdir()
        a = {"system": "stable", "x0": [1.0, 1.0], "dt": 0.05, "steps": 20, "trials": 3}
        b = {"system": {"A": [[-1.0]], "N": [[1.0]]}, "x0": [0.5], "fs": 8.0, "steps": 7,
             "trials": 2}
        write_config(workdir, "a.json", a)
        write_config(workdir, "b.json", b)
        dump_family(planar_grid_family(), workdir / "family.json")
        return workdir

    def test_repeated_calls_match_lone_calls_and_reuse_the_parser(
        self, tmp_path, capsys, monkeypatch
    ):
        alone = self._inputs(tmp_path / "alone")
        path = [str(pathlib.Path(lincoder.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        code = "import sys; from lincoder.cli import main; sys.exit(main(sys.argv[1:]))"
        expected = []
        for argv in self.CALLS:
            done = subprocess.run(
                [sys.executable, "-c", code, *argv], cwd=alone, env=env, capture_output=True
            )
            assert done.returncode == 0, done.stderr
            expected.append(done.stdout + (alone / argv[argv.index("--out") + 1]).read_bytes())

        together = self._inputs(tmp_path / "together")
        monkeypatch.chdir(together)
        built = []
        for index, argv in enumerate(self.CALLS):
            if index == 1:
                init = argparse.ArgumentParser.__init__
                monkeypatch.setattr(
                    argparse.ArgumentParser,
                    "__init__",
                    lambda parser, *args, **kwargs: built.append(parser)
                    or init(parser, *args, **kwargs),
                )
            assert main(argv) == 0
            out = together / argv[argv.index("--out") + 1]
            assert capsys.readouterr().out.encode() + out.read_bytes() == expected[index]
        assert built == []
