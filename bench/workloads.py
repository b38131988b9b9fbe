"""The benchmark workloads: seeded inputs, timed items and oracle checks.

A workload builds every input from its seed when it is constructed (that
is part of set-up) and exposes ``items``, the fixed job: a list of items,
each one closed-loop call sequence into the public ``lincoder`` API.

* ``run()`` is the timed part and returns the raw outputs.
* ``digest(raw)`` gives the output bytes; they must be the same on every
  pass of a run, traced or not.
* ``check(raw)`` compares the outputs with independent oracles (closed
  forms, scipy, exact arithmetic) and raises ``CheckFailed``.  The worker
  runs it with tracing paused, so the package calls it makes to get
  individual codes or replay a seed again are not counted.

The workloads look every API name up on its module at call time, so the
tracer's wrappers are seen when they are installed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
import scipy.linalg

import lincoder as lc
import lincoder.cli
import lincoder.csvio

DISTORTIONS = (1e-3, 1e-2, 1e-1)
#: Channel capacity for every min_sampling_rate call, bits per sample.
CAPACITY_BITS = 8.0
#: Sampling-interval grid of every rate curve; it crosses the switch from
#: one augmented exponential to interval doubling for every system here.
RATE_GRID = np.logspace(-3.0, 2.0, 100)
#: Grid indices compared against the independent Gramian oracle.
SPOT_INDICES = (0, 33, 66, 99)
DT = 0.01
STEPS = 300


class CheckFailed(Exception):
    """An output disagreed with its oracle."""


@dataclass
class Item:
    name: str
    run: Callable[[], object]
    digest: Callable[[object], bytes]
    check: Callable[[object], None]


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


def sub_seed(seed: int, *path: int) -> int:
    """Deterministic 63-bit seed for one input of a workload."""
    digest = hashlib.sha256(json.dumps([seed, *path]).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rotation_drift(rng: np.random.Generator, n: int, lead: float) -> np.ndarray:
    """Q J Q^T with 2x2 rotation blocks; the first block has real part ``lead``.

    The spectrum is fixed up to the seeded ranges, so every seed gives the
    same stability class (Hurwitz for lead < 0, marginal for lead = 0,
    unstable for lead > 0) and rate curves of the same shape.
    """
    block = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        sigma = lead if i == 0 else -rng.uniform(0.3, 0.8)
        omega = rng.uniform(0.5, 1.5)
        block[i : i + 2, i : i + 2] = [[sigma, omega], [-omega, sigma]]
    if n % 2:
        block[-1, -1] = lead if n == 1 else -rng.uniform(0.3, 0.8)
    q = random_orthogonal(rng, n)
    return q @ block @ q.T


def on_sphere(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    """Seeded direction at a fixed distance, so the work per input is steady."""
    x = rng.normal(size=n)
    return radius * x / np.linalg.norm(x)


def random_noise(rng: np.random.Generator, n: int, scale: float) -> np.ndarray:
    q = random_orthogonal(rng, n)
    noise = scale * (q * rng.uniform(0.5, 1.5, n)) @ q.T
    return 0.5 * (noise + noise.T)


# ---------------------------------------------------------------- oracles


def oracle_gramian(a: np.ndarray, noise: np.ndarray, dt: float) -> np.ndarray:
    """Increment covariance W(dt) from the vectorized covariance ODE.

    vec W(dt) is the top-right block of expm([[A (+) A, vec N], [0, 0]] dt),
    an augmentation independent of the package's Van Loan / doubling path.
    """
    n = a.shape[0]
    eye = np.eye(n)
    block = np.zeros((n * n + 1, n * n + 1))
    block[:-1, :-1] = (np.kron(eye, a) + np.kron(a, eye)) * dt
    block[:-1, -1] = noise.flatten(order="F") * dt
    w = scipy.linalg.expm(block)[:-1, -1].reshape((n, n), order="F")
    return 0.5 * (w + w.T)


def oracle_rate_bits(cov: np.ndarray, distortion: float) -> float:
    """Reverse water-filling with the exact water level."""
    lam = np.sort(np.clip(np.linalg.eigvalsh(cov), 0.0, None))[::-1]
    if distortion >= lam.sum():
        return 0.0
    for k in range(1, lam.size + 1):
        theta = (distortion - lam[k:].sum()) / k
        if k == lam.size or theta >= lam[k]:
            break
    return 0.5 * float(np.sum(np.log2(lam[:k] / theta)))


def close(value: float, expected: float, rtol: float, atol: float = 0.0) -> bool:
    return abs(value - expected) <= atol + rtol * max(1.0, abs(expected))


def parse_trajectory_csv(text: str, dimension: int) -> np.ndarray:
    lines = text.split("\n")
    header = "trial,k,t," + ",".join(f"x{i + 1}" for i in range(dimension))
    require(lines[0] == header, f"unexpected CSV header {lines[0]!r}")
    require(lines[-1] == "", "CSV does not end with a newline")
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


# ------------------------------------------------------------ rate-sweep


@dataclass
class RateSystem:
    name: str
    model: object
    hurwitz: bool


class RateSweep:
    """Rate curves and minimum sampling rates over systems x distortions.

    One item is one (system, distortion) job: a 100-point ``rate_curve``
    over dt in [1e-3, 1e2] plus ``min_sampling_rate`` at a fixed capacity.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(sub_seed(seed, 0))
        systems = [
            RateSystem(name, lc.demo_model(name), name == "stable")
            for name in lc.demo_names()
        ]
        # Scalar Ornstein-Uhlenbeck: the Gramian has a closed form.
        self.ou_a = -rng.uniform(0.5, 2.0)
        self.ou_noise = rng.uniform(0.5, 2.0)
        systems.append(
            RateSystem("ou1", lc.LinearSystemModel.constant([[self.ou_a]], [[self.ou_noise]]), True)
        )
        for name, n, lead in (
            ("unstable2", 2, rng.uniform(0.2, 0.4)),
            ("marginal4", 4, 0.0),
            ("hurwitz8", 8, -rng.uniform(0.3, 0.8)),
        ):
            drift = rotation_drift(rng, n, lead)
            noise = random_noise(rng, n, 0.05)
            systems.append(RateSystem(name, lc.LinearSystemModel.constant(drift, noise), lead < 0))
        self.items = [
            self._item(system, distortion) for system in systems for distortion in DISTORTIONS
        ]

    def _item(self, system: RateSystem, distortion: float) -> Item:
        def run():
            curve = lc.rate_curve(system.model, distortion, RATE_GRID)
            fs = lc.min_sampling_rate(system.model, distortion, CAPACITY_BITS)
            return curve, fs

        def digest(raw) -> bytes:
            curve, fs = raw
            return b"|".join(
                [curve.rate_bits.tobytes(), repr(curve.asymptote_bits).encode(), repr(fs).encode()]
            )

        return Item(
            f"{system.name}@D={distortion:g}",
            run,
            digest,
            lambda raw: self._check(system, distortion, *raw),
        )

    def _check(self, system: RateSystem, distortion: float, curve, fs) -> None:
        a = np.asarray(system.model.drift.matrix)
        noise = np.asarray(system.model.noise_intensity)
        rates = np.asarray(curve.rate_bits)
        require(rates.shape == RATE_GRID.shape, "rate curve has the wrong length")
        require(bool(np.all(np.isfinite(rates)) and np.all(rates >= 0.0)), "rates not finite >= 0")
        slack = 1e-9 * np.maximum(1.0, np.abs(rates[:-1]))
        require(bool(np.all(np.diff(rates) >= -slack)), "rate decreases along dt")
        for i in SPOT_INDICES:
            expected = oracle_rate_bits(oracle_gramian(a, noise, RATE_GRID[i]), distortion)
            require(
                close(rates[i], expected, 1e-7, 1e-7),
                f"rate at dt={RATE_GRID[i]:.3g} is {rates[i]!r}, oracle {expected!r}",
            )
        if system.name == "brownian":
            expected = np.maximum(0.0, 0.5 * np.log2(RATE_GRID / distortion))
            require(bool(np.allclose(rates, expected, rtol=1e-9, atol=1e-9)), "Brownian closed form")
            expected_fs = 1.0 / (distortion * 4.0**CAPACITY_BITS)
            require(abs(fs / expected_fs - 1.0) <= 1e-8, f"Brownian fs_min {fs!r} != 1/(D 4^C)")
        if system.name == "ou1":
            gramian = self.ou_noise * np.expm1(2.0 * self.ou_a * RATE_GRID) / (2.0 * self.ou_a)
            expected = np.maximum(0.0, 0.5 * np.log2(gramian / distortion))
            require(bool(np.allclose(rates, expected, rtol=1e-9, atol=1e-9)), "OU closed form")
        if system.hurwitz:
            equilibrium = scipy.linalg.solve_continuous_lyapunov(a, -noise)
            ceiling = oracle_rate_bits(equilibrium, distortion)
            require(curve.asymptote_bits is not None, "Hurwitz system without a ceiling")
            require(
                close(curve.asymptote_bits, ceiling, 1e-8, 1e-8),
                f"ceiling {curve.asymptote_bits!r}, oracle {ceiling!r}",
            )
            require(bool(np.all(rates <= curve.asymptote_bits + 1e-7)), "rate above the ceiling")
            if system.name == "stable":
                exact = max(0.0, math.log2(0.02 / distortion))
                require(abs(curve.asymptote_bits - exact) <= 1e-12, "stable ceiling not exact")
        else:
            require(curve.asymptote_bits is None, "ceiling reported for a non-Hurwitz system")
        if isinstance(fs, lc.NotNeeded):
            require(system.hurwitz, "NotNeeded for a system whose rate is unbounded")
            require(fs.ceiling_bits == curve.asymptote_bits, "NotNeeded ceiling differs")
            require(fs.ceiling_bits < CAPACITY_BITS, "NotNeeded although the ceiling exceeds C")
            require(fs.zero_rate == (fs.ceiling_bits <= 0.0), "zero_rate flag wrong")
        else:
            require(math.isfinite(fs) and fs > 0.0, f"fs_min {fs!r} not positive")
            at_crossing = oracle_rate_bits(oracle_gramian(a, noise, 1.0 / fs), distortion)
            require(
                abs(at_crossing - CAPACITY_BITS) <= 1e-6,
                f"rate at 1/fs_min is {at_crossing!r}, capacity {CAPACITY_BITS}",
            )


# ------------------------------------------------------- emulate-compress


@dataclass
class EmulationCase:
    name: str
    family: object
    model: object
    x0: np.ndarray
    full_cone: bool


class EmulateCompress:
    """sample_paths -> compress_dataset -> emulate_steps on 300-step datasets.

    One item is one dataset.  Three family types: the 24-field planar
    grid (collinear fields on its hull edges), a seeded 3-D family, and a
    2-D family whose cone spans 150 degrees, so a share of increments
    takes the infeasible exit.
    """

    TRIALS = 2
    DATASETS_PER_FAMILY = 8
    CHECK_STEPS = (0, 150, 299)

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(sub_seed(seed, 1))
        stable = lc.demo_model("stable")
        cases = []
        for _ in range(self.DATASETS_PER_FAMILY):
            cases.append(
                EmulationCase(
                    "grid", lc.planar_grid_family(), stable, on_sphere(rng, 2, 1.5), True
                )
            )
        for _ in range(self.DATASETS_PER_FAMILY):
            axes = np.eye(3) * rng.uniform(0.5, 2.0, 3)
            vectors = np.vstack([axes, -axes, rng.normal(size=(6, 3))])
            model = lc.LinearSystemModel.constant(
                rotation_drift(rng, 3, -rng.uniform(0.3, 0.8)), 0.01 * np.eye(3)
            )
            cases.append(
                EmulationCase(
                    "cube3d",
                    lc.SourceFamily.from_vectors(vectors),
                    model,
                    on_sphere(rng, 3, 1.5),
                    True,
                )
            )
        for _ in range(self.DATASETS_PER_FAMILY):
            phi = rng.uniform(0.0, 2.0 * math.pi)
            angles = phi + np.deg2rad(np.linspace(-75.0, 75.0, 9))
            lengths = rng.uniform(0.8, 1.6, angles.size)
            vectors = np.column_stack([np.cos(angles), np.sin(angles)]) * lengths[:, None]
            # Start where the drift points along the cone's axis.
            x0 = np.linalg.solve(
                stable.drift.matrix, 1.5 * np.array([math.cos(phi), math.sin(phi)])
            )
            cases.append(
                EmulationCase("cone150", lc.SourceFamily.from_vectors(vectors), stable, x0, False)
            )
        self.items = [
            self._item(case, sub_seed(seed, 1, i, 0), sub_seed(seed, 1, i, 1))
            for i, case in enumerate(cases)
        ]

    def _item(self, case: EmulationCase, sample_seed: int, replay_seed: int) -> Item:
        def run():
            data = lc.sample_paths(case.model, case.x0, DT, STEPS, self.TRIALS, sample_seed)
            codes = lc.compress_dataset(data, case.family)
            start = data.states[:, 0, :].mean(axis=0)
            states = lc.emulate_steps(codes, case.family, start, 1, replay_seed)
            return data, codes, states

        def digest(raw) -> bytes:
            data, codes, states = raw
            parts = [
                data.states,
                codes.probabilities,
                codes.flow_times,
                codes.feasible_trials,
                codes.infeasible_trials,
                states,
            ]
            return b"|".join(np.ascontiguousarray(p).tobytes() for p in parts)

        return Item(case.name, run, digest, lambda raw: self._check(case, *raw))

    def _check(self, case: EmulationCase, data, codes, states) -> None:
        from scipy.optimize import linprog

        vectors = case.family.field_matrix()
        n, k = vectors.shape
        require(data.states.shape == (self.TRIALS, STEPS + 1, n), "dataset shape")
        require(bool(np.all(data.states[:, 0, :] == case.x0)), "dataset does not start at x0")
        require(codes.probabilities.shape == (STEPS, k), "code shape")
        require(bool(np.all(codes.feasible_trials + codes.infeasible_trials == self.TRIALS)), "trial accounting")
        require(bool(np.all(codes.probabilities >= -1e-12)), "negative code entry")
        require(bool(np.allclose(codes.probabilities.sum(axis=1), 1.0, atol=1e-9)), "code off the simplex")
        require(bool(np.all(np.isfinite(codes.flow_times)) and np.all(codes.flow_times >= 0.0)), "flow times")
        if case.full_cone:
            require(codes.infeasible_count == 0, "infeasible increment for a spanning family")
        else:
            require(0 < codes.infeasible_count < self.TRIALS * STEPS, "cone family has no infeasible share")

        increments = data.increments()
        for step in self.CHECK_STEPS:
            p_sum, z_sum, good = np.zeros(k), 0.0, 0
            for trial in range(self.TRIALS):
                target = increments[trial, step]
                reference = linprog(
                    np.ones(k), A_eq=vectors, b_eq=target, bounds=(0, None), method="highs"
                )
                try:
                    code = lc.simplex_compress(case.family, target)
                except lc.InfeasibleTargetError:
                    require(reference.status == 2, f"step {step}: LP said infeasible, HiGHS did not")
                    continue
                require(reference.status == 0, f"step {step}: HiGHS found no optimum")
                x = code.flow_time * code.probabilities
                residual = float(np.max(np.abs(vectors @ x - target)))
                require(residual <= 1e-9, f"step {step}: |V x - d| = {residual:.2e}")
                require(
                    abs(code.flow_time - reference.fun) <= 1e-6 * reference.fun + 1e-9,
                    f"step {step}: flow time {code.flow_time!r}, HiGHS {reference.fun!r}",
                )
                p_sum += code.probabilities
                z_sum += code.flow_time
                good += 1
            require(codes.feasible_trials[step] == good, f"step {step}: feasible count")
            if good:
                require(bool(np.allclose(codes.probabilities[step], p_sum / good, rtol=0, atol=1e-12)), "averaged code")
                require(abs(codes.flow_times[step] - z_sum / good) <= 1e-15, "averaged flow time")

        require(states.shape == (STEPS + 1, n), "emulated shape")
        require(bool(np.all(np.isfinite(states))), "emulated states not finite")
        require(bool(np.all(states[0] == data.states[:, 0, :].mean(axis=0))), "emulation start")
        # Resolution 1: each step flows along exactly one field.
        moves = np.diff(states, axis=0)
        for step in range(STEPS):
            z = codes.flow_times[step]
            gap = np.min(np.max(np.abs(moves[step][:, None] - z * vectors), axis=0))
            require(gap <= 1e-12 * max(1.0, float(np.max(np.abs(states[step])))), f"step {step}: not one field")


# ---------------------------------------------------------- sample-replay


class SampleReplay:
    """In-process CLI calls plus an ensemble of multinomial replays.

    Per pass: ``sample`` on two 300x40 datasets, ``sample`` on two 300x3
    datasets, ``emulate`` on the small ones through their CSV files, then
    ``emulate_steps`` replays over 12 seeds at resolutions 1 and 100, each
    written with ``write_trajectories``.  One item is one CLI call or one
    replay.
    """

    LARGE_TRIALS = 40
    SMALL_TRIALS = 3
    REPLAY_SEEDS = 12
    RESOLUTIONS = (1, 100)

    def __init__(self, seed: int, workdir: Path):
        self.workdir = workdir
        rng = np.random.default_rng(sub_seed(seed, 2))
        family = lc.planar_grid_family()
        self.family = family
        self.vectors = family.field_matrix()
        family_path = workdir / "family.json"
        lc.csvio.dump_family(family, family_path)
        drift = rotation_drift(rng, 2, -rng.uniform(0.3, 0.8))
        noise = random_noise(rng, 2, 0.01)
        self.systems = {
            "stable": (lc.demo_model("stable").drift.matrix, lc.demo_model("stable").noise_intensity),
            "random": (drift, noise),
        }
        specs = {"stable": "stable", "random": {"A": drift.tolist(), "N": noise.tolist()}}
        items = []
        small = []
        for size, trials in (("large", self.LARGE_TRIALS), ("small", self.SMALL_TRIALS)):
            for name, spec in specs.items():
                x0 = rng.uniform(-2.0, 2.0, 2)
                config = workdir / f"sample_{size}_{name}.json"
                config.write_text(
                    json.dumps({"system": spec, "x0": x0.tolist(), "dt": DT, "steps": STEPS, "trials": trials})
                )
                out = workdir / f"train_{size}_{name}.csv"
                argv = ["sample", "--config", str(config), "--out", str(out), "--seed", str(sub_seed(seed, 2, len(items)))]
                items.append(self._sample_item(f"sample-{size}-{name}", argv, out, name, x0, trials))
                if size == "small":
                    small.append(out)
        for index, dataset in enumerate(small):
            out = workdir / f"emulated_{index}.csv"
            resolution = self.RESOLUTIONS[index % 2]
            argv = [
                "emulate", str(dataset), str(family_path), "--resolution", str(resolution),
                "--seed", str(sub_seed(seed, 2, 100 + index)), "--out", str(out),
            ]
            items.append(self._emulate_item(f"emulate-{index}", argv, dataset, out))
        # Averaged codes to replay: Dirichlet fractions and seeded flow times.
        self.codes = lc.StepCodes(
            rng.dirichlet(np.full(family.size, 0.3), size=STEPS),
            rng.uniform(0.005, 0.015, STEPS),
            np.full(STEPS, self.SMALL_TRIALS),
            np.zeros(STEPS, dtype=int),
        )
        self.x0 = rng.uniform(-2.0, 2.0, 2)
        for index in range(self.REPLAY_SEEDS):
            for resolution in self.RESOLUTIONS:
                items.append(self._replay_item(index, resolution, sub_seed(seed, 2, 200 + index)))
        self.items = items

    def _cli(self, argv):
        buffer = io.StringIO()
        with contextlib.redirect_stdout(buffer):
            status = lincoder.cli.main(argv)
        return status, buffer.getvalue()

    def _sample_item(self, name, argv, out: Path, system, x0, trials) -> Item:
        def digest(raw) -> bytes:
            return repr(raw).encode() + out.read_bytes()

        def check(raw) -> None:
            status, stdout = raw
            require(status == 0, f"sample exited {status}")
            require(stdout == f"trials={trials} steps={STEPS} out={out}\n", f"sample stdout {stdout!r}")
            table = parse_trajectory_csv(out.read_text(), 2)
            require(table.shape == (trials * (STEPS + 1), 5), "sample CSV row count")
            trial, k = table[:, 0], table[:, 1]
            require(bool(np.all(trial == np.repeat(np.arange(trials), STEPS + 1))), "trial column")
            require(bool(np.all(k == np.tile(np.arange(STEPS + 1), trials))), "k column")
            require(bool(np.all(table[:, 2] == k * DT)), "t column")
            states = table[:, 3:].reshape(trials, STEPS + 1, 2)
            require(bool(np.all(states[:, 0] == x0)), "trials do not start at x0")
            if trials >= self.LARGE_TRIALS:
                a, noise = self.systems[system]
                phi = scipy.linalg.expm(np.asarray(a) * DT)
                shocks = (states[:, 1:] - states[:, :-1] @ phi.T).reshape(-1, 2)
                sample_cov = shocks.T @ shocks / shocks.shape[0]
                expected = oracle_gramian(np.asarray(a), np.asarray(noise), DT)
                gap = np.linalg.norm(sample_cov - expected) / np.linalg.norm(expected)
                require(gap <= 0.1, f"shock covariance off by {gap:.3f} relative")

        return Item(name, lambda: self._cli(argv), digest, check)

    def _emulate_item(self, name, argv, dataset: Path, out: Path) -> Item:
        def digest(raw) -> bytes:
            return repr(raw).encode() + out.read_bytes()

        def check(raw) -> None:
            status, stdout = raw
            require(status == 0, f"emulate exited {status}")
            report = dict(line.split("=", 1) for line in stdout.strip().split("\n"))
            require(report.get("steps") == str(STEPS), "emulate steps line")
            require(report.get("trials") == str(self.SMALL_TRIALS), "emulate trials line")
            require(report.get("infeasible_increments") == "0", "grid family left increments infeasible")
            require(report.get("out") == str(out), "emulate out line")
            for key in ("mean_discrepancy_rms", "cov_discrepancy_rms", "rate_bits_at_distortion"):
                require(math.isfinite(float(report[key])), f"{key} not finite")
            train = parse_trajectory_csv(dataset.read_text(), 2)[:, 3:].reshape(self.SMALL_TRIALS, STEPS + 1, 2)
            table = parse_trajectory_csv(out.read_text(), 2)
            require(table.shape == (STEPS + 1, 5), "emulated CSV row count")
            require(bool(np.all(table[:, 0] == 0)), "emulated trial column")
            require(bool(np.all(np.isfinite(table[:, 3:]))), "emulated states not finite")
            require(bool(np.allclose(table[0, 3:], train[:, 0].mean(axis=0), rtol=0, atol=1e-12)), "emulation start")

        return Item(name, lambda: self._cli(argv), digest, check)

    def _replay(self, resolution: int, seed: int, path: Path) -> np.ndarray:
        states = lc.emulate_steps(self.codes, self.family, self.x0, resolution, seed)
        lc.csvio.write_trajectories(lc.TrajectoryDataset(DT, states[np.newaxis]), path)
        return states

    def _replay_item(self, index: int, resolution: int, seed: int) -> Item:
        path = self.workdir / f"replay_{index}_{resolution}.csv"

        def digest(raw) -> bytes:
            return path.read_bytes()

        def check(states) -> None:
            table = parse_trajectory_csv(path.read_text(), 2)
            require(table.shape == (STEPS + 1, 5), "replay CSV row count")
            require(bool(np.all(table[:, 3:] == states)), "replay CSV does not round-trip")
            require(bool(np.all(states[0] == self.x0)), "replay start")
            # Each move is flow_time * V counts / resolution with integer counts
            # summing to the resolution; the grid fields have integer entries.
            scaled = np.diff(states, axis=0) * resolution / self.codes.flow_times[:, None]
            require(bool(np.all(np.abs(scaled - np.round(scaled)) <= 1e-6)), "move off the count lattice")
            require(bool(np.all(np.abs(np.round(scaled)) <= 2 * resolution)), "move outside the grid hull")
            again = self.workdir / f"replay_{index}_{resolution}.again.csv"
            self._replay(resolution, seed, again)
            require(again.read_bytes() == path.read_bytes(), "same seed gave different bytes")

        return Item(
            f"replay-{index}-r{resolution}", lambda: self._replay(resolution, seed, path), digest, check
        )


WORKLOADS = {
    "rate-sweep": RateSweep,
    "emulate-compress": EmulateCompress,
    "sample-replay": SampleReplay,
}
