"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Expected values come from closed forms or independent oracles
computed inside each test (quadrature, ODE integration, grid search,
vertex enumeration, exhaustive ensembles), never from the code under test.
"""

import itertools
import json
import math
import time

import numpy as np
import scipy.linalg

from lincoder import (
    LinearSystemModel,
    demo_model,
    emulate,
    emulate_steps,
    increment_distribution,
    increment_rate,
    lyapunov_solve,
    min_sampling_rate,
    planar_grid_family,
    rate_ceiling,
    rate_curve,
    rdf,
    rdf_small_distortion,
    sample_paths,
    simplex_compress,
    simplex_decompress,
    SourceFamily,
)
from lincoder.cli import main as cli_main
from lincoder.csvio import dump_family, write_trajectories
from lincoder.errors import FastPathDomainError


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[acceptance {number}] {name}: {status}{suffix}")


def max_abs(a):
    return float(np.max(np.abs(a)))


def random_hurwitz(rng, n, margin=0.5):
    raw = rng.normal(size=(n, n))
    return raw - (np.max(np.linalg.eigvals(raw).real) + margin) * np.eye(n)


def random_psd(rng, n):
    b = rng.normal(size=(n, n))
    return b @ b.T


def test_criterion_1_scalar_gramian_oracle():
    model = LinearSystemModel.constant([[-1.0]], [[1.0]])
    expected = (1.0 - math.exp(-2.0)) / 2.0  # closed-form scalar integral
    increment_distribution(model, [0.0], 1.0)  # warm-up
    best = math.inf
    for _ in range(5):
        start = time.perf_counter()
        law = increment_distribution(model, [0.0], 1.0)
        best = min(best, time.perf_counter() - start)
    error = abs(law.covariance[0, 0] - expected)
    ok = error <= 1e-10 and best < 1e-3
    report(1, "scalar gramian oracle", ok, f"error={error:.2e} time={best * 1e3:.3f}ms")
    assert error <= 1e-10
    assert best < 1e-3


def test_criterion_2_van_loan_vs_quadrature():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    points = 10_000
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_hurwitz(rng, n)
        a *= 1.5 / max(1.0, float(np.linalg.norm(a, 1)))
        noise = random_psd(rng, n)
        dt = float(rng.uniform(0.3, 1.5))
        model = LinearSystemModel.constant(a, noise)
        cov = increment_distribution(model, np.zeros(n), dt).covariance
        # independent trapezoid quadrature of expm(A s) N expm(A s)^T
        h = dt / points
        step = scipy.linalg.expm(a * h)
        current = np.eye(n)
        total = 0.5 * noise.copy()
        for _ in range(points - 1):
            current = current @ step
            total += current @ noise @ current.T
        current = current @ step
        total += 0.5 * (current @ noise @ current.T)
        oracle = total * h
        worst = max(worst, max_abs(cov - oracle))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-6 and elapsed < 5.0
    report(2, "van loan vs quadrature", ok, f"worst={worst:.2e} time={elapsed:.2f}s")
    assert worst <= 1e-6
    assert elapsed < 5.0


def test_criterion_3_lyapunov_consistency():
    rng = np.random.default_rng(202)
    worst_residual = 0.0
    worst_limit = 0.0
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = random_hurwitz(rng, n)
        noise = random_psd(rng, n)
        w_inf = lyapunov_solve(a, noise)
        residual = max_abs(a @ w_inf + w_inf @ a.T + noise) / max(1.0, max_abs(noise))
        worst_residual = max(worst_residual, residual)
        slowest = abs(float(np.max(np.linalg.eigvals(a).real)))
        model = LinearSystemModel.constant(a, noise)
        w = increment_distribution(model, np.zeros(n), 50.0 / slowest).covariance
        worst_limit = max(worst_limit, max_abs(w - w_inf) / max_abs(w_inf))
    ok = worst_residual <= 1e-8 and worst_limit <= 1e-6
    report(
        3,
        "lyapunov consistency",
        ok,
        f"residual={worst_residual:.2e} limit_gap={worst_limit:.2e}",
    )
    assert worst_residual <= 1e-8
    assert worst_limit <= 1e-6


def test_criterion_4_water_filling_correctness():
    rng = np.random.default_rng(303)
    worst_sum = 0.0
    monotone = True
    worst_fast = 0.0
    fast_checked = 0
    for _ in range(100):
        n = int(rng.integers(1, 7))
        q, _ = np.linalg.qr(rng.normal(size=(n, n)))
        eigs = rng.uniform(0.05, 4.0, size=n)
        cov = q @ np.diag(eigs) @ q.T
        trace = float(np.trace(cov))
        d1, d2 = np.sort(rng.uniform(0.0, 1.3, size=2)) * trace
        r1 = rdf(cov, d1)
        r2 = rdf(cov, d2)
        worst_sum = max(
            worst_sum,
            abs(float(r1.allocations.sum()) - min(d1, trace)),
            abs(float(r2.allocations.sum()) - min(d2, trace)),
        )
        if r1.rate_nats < r2.rate_nats - 1e-12:
            monotone = False
        d_fast = float(rng.uniform(0.1, 0.99)) * n * float(eigs.min())
        try:
            fast = rdf_small_distortion(cov, d_fast)
            worst_fast = max(worst_fast, abs(fast - rdf(cov, d_fast).rate_nats))
            fast_checked += 1
        except FastPathDomainError:
            pass
    # brute-force water-level grid search oracle on 10 fresh instances
    worst_grid = 0.0
    thetas = np.linspace(0.0, 1.0, 1_000_000)
    for _ in range(10):
        eigs = np.array([1.0, float(rng.uniform(0.5, 0.9))])
        cov = np.diag(eigs)
        d = float(rng.uniform(1.0, 1.3))  # water level lands around 0.55-0.7
        sums = np.minimum(thetas[:, None], eigs[None, :]).sum(axis=1)
        theta = thetas[np.argmin(np.abs(sums - d))]
        ratios = eigs / np.minimum(theta, eigs)
        oracle = 0.5 * float(np.sum(np.log(np.maximum(ratios, 1.0))))
        worst_grid = max(
            worst_grid, abs(rdf(cov, d).rate_nats - oracle)
        )
    ok = worst_sum <= 1e-9 and monotone and worst_fast <= 1e-9 and worst_grid <= 1e-6
    report(
        4,
        "water-filling correctness",
        ok,
        f"sum={worst_sum:.2e} fast={worst_fast:.2e} ({fast_checked} checked) "
        f"grid={worst_grid:.2e}",
    )
    assert worst_sum <= 1e-9
    assert monotone
    assert fast_checked > 0 and worst_fast <= 1e-9
    assert worst_grid <= 1e-6


def test_criterion_5_stable_curve_reaches_ceiling():
    failures = []
    for name in ("stable",):  # the Hurwitz demo presets
        model = demo_model(name)
        slowest = abs(float(np.max(np.linalg.eigvals(model.drift.matrix).real)))
        grid = np.logspace(-3.0, math.log10(50.0 / slowest), 100)
        curve = rate_curve(model, 0.01, grid)
        ceiling = rate_ceiling(model, 0.01).rate_bits
        drops = float(np.min(np.diff(curve.rate_bits)))
        gap = abs(float(curve.rate_bits[-1]) - ceiling)
        if drops < -1e-9 or gap > 1e-3:
            failures.append((name, drops, gap))
        detail = f"{name}: min_step={drops:.2e} ceiling_gap={gap:.2e}"
    report(5, "stable curve reaches ceiling", not failures, detail)
    assert not failures


def test_criterion_6_min_sampling_rate():
    capacity = 8.0
    distortion = 0.01
    failures = []
    details = []
    for name in ("marginal", "unstable", "brownian"):
        model = demo_model(name)
        fs = min_sampling_rate(model, distortion, capacity)
        if not isinstance(fs, float):
            failures.append((name, "not finite"))
            continue
        below = increment_rate(model, 1.0 / fs, distortion).rate_bits
        above = increment_rate(model, 1.0 / (0.99 * fs), distortion).rate_bits
        if not (below < capacity <= above):
            failures.append((name, f"bracket {below:.6f}/{above:.6f}"))
        details.append(f"{name}: fs={fs:.6g}")
    fs = min_sampling_rate(demo_model("brownian"), distortion, capacity)
    expected = 1.0 / (distortion * 4.0**capacity)  # closed-form scalar inversion
    rel = abs(fs - expected) / expected
    if rel > 1e-6:
        failures.append(("brownian closed form", f"rel={rel:.2e}"))
    ok = not failures
    report(6, "minimum sampling rate", ok, "; ".join(details) + f"; closed_form_rel={rel:.2e}")
    assert not failures


def test_criterion_7_lp_compressor_exactness():
    start = time.perf_counter()
    rng = np.random.default_rng(404)
    vectors = rng.normal(size=(2, 24))
    family = SourceFamily.from_vectors(vectors.T)
    worst_round_trip = 0.0
    for _ in range(1000):
        target = vectors @ rng.uniform(0.0, 1.0, size=24)
        code = simplex_compress(family, target)
        rebuilt = simplex_decompress(family, code)
        worst_round_trip = max(worst_round_trip, max_abs(rebuilt - target))
    worst_gap = 0.0
    instances = 0
    for k, n in itertools.product(range(2, 9), range(1, 4)):
        for _ in range(4):
            sub_vectors = rng.normal(size=(n, k))
            sub_family = SourceFamily.from_vectors(sub_vectors.T)
            target = sub_vectors @ rng.uniform(0.0, 1.0, size=k)
            code = simplex_compress(sub_family, target)
            best = None
            for size in range(1, n + 1):
                for subset in itertools.combinations(range(k), size):
                    sub = sub_vectors[:, subset]
                    sol, _, rank, _ = np.linalg.lstsq(sub, target, rcond=None)
                    if rank < size:
                        continue
                    if max_abs(sub @ sol - target) > 1e-9 or np.any(sol < -1e-12):
                        continue
                    value = float(np.clip(sol, 0.0, None).sum())
                    best = value if best is None else min(best, value)
            assert best is not None
            worst_gap = max(worst_gap, abs(code.flow_time - best))
            instances += 1
    elapsed = time.perf_counter() - start
    ok = worst_round_trip <= 1e-9 and worst_gap <= 1e-9 and elapsed < 10.0
    report(
        7,
        "lp compressor exactness",
        ok,
        f"round_trip={worst_round_trip:.2e} oracle_gap={worst_gap:.2e} "
        f"instances={instances} time={elapsed:.2f}s",
    )
    assert worst_round_trip <= 1e-9
    assert worst_gap <= 1e-9
    assert elapsed < 10.0


def test_criterion_8_emulation_statistical_match():
    # Stable 2-D system, noise intensity 0.01 I, 3 s at 100 Hz, 50 trials;
    # emulate with the 24-field grid family at multinomial resolution 100.
    # Per-step ensemble statistics of the emulated increments are compared
    # against the training statistics at 3 combined Monte-Carlo standard
    # errors, requiring >= 95% of steps to pass for the mean and for the
    # covariance.
    #
    # Note on the covariance clause: each emulated step replays the code of
    # one feasible training trial drawn uniformly at random, then draws
    # counts from Mult(resolution, p_j) at the step's averaged flow time.
    # The trial draw carries the cross-trial spread of the codes and the
    # multinomial adds a 1/resolution share on top; only the spread of the
    # trials' flow times is lost, since every step flows for their average.
    start = time.perf_counter()
    model = demo_model("stable")
    resolution = 100
    trials = 50
    dataset = sample_paths(model, [1.0, 1.0], 0.01, steps=300, trials=trials, seed=2468)
    family = planar_grid_family()
    result = emulate(dataset, family, resolution=resolution, seed=1)
    infeasible = result.codes.infeasible_count

    ensemble = 200
    x0 = dataset.states[:, 0, :].mean(axis=0)
    paths = np.stack(
        [emulate_steps(result.codes, family, x0, resolution, seed) for seed in range(ensemble)]
    )
    emu_inc = np.diff(paths, axis=1)
    train_inc = dataset.increments()
    steps = train_inc.shape[1]

    mean_ok = np.zeros(steps, dtype=bool)
    cov_ok = np.zeros(steps, dtype=bool)
    for k in range(steps):
        m_t = train_inc[:, k, :].mean(axis=0)
        m_e = emu_inc[:, k, :].mean(axis=0)
        c_t = np.cov(train_inc[:, k, :], rowvar=False)
        c_e = np.cov(emu_inc[:, k, :], rowvar=False)
        se_mean = np.sqrt(np.diag(c_t) / trials + np.diag(c_e) / ensemble)
        mean_ok[k] = bool(np.all(np.abs(m_e - m_t) <= 3.0 * se_mean))
        dt_outer = np.outer(np.diag(c_t), np.diag(c_t))
        de_outer = np.outer(np.diag(c_e), np.diag(c_e))
        se_cov = np.sqrt((dt_outer + c_t**2) / trials + (de_outer + c_e**2) / ensemble)
        cov_ok[k] = bool(np.all(np.abs(c_e - c_t) <= 3.0 * se_cov))
    mean_fraction = float(mean_ok.mean())
    cov_fraction = float(cov_ok.mean())
    elapsed = time.perf_counter() - start
    ok = (
        mean_fraction >= 0.95
        and cov_fraction >= 0.95
        and infeasible == 0
        and elapsed < 30.0
    )
    report(
        8,
        "emulation statistical match",
        ok,
        f"mean_pass={mean_fraction:.3f} cov_pass={cov_fraction:.3f} "
        f"infeasible={infeasible} time={elapsed:.1f}s",
    )
    assert infeasible == 0
    assert elapsed < 30.0
    assert mean_fraction >= 0.95
    assert cov_fraction >= 0.95


def test_criterion_9_cli_determinism(tmp_path, capsys):
    curve_config = tmp_path / "curve.json"
    curve_config.write_text(
        json.dumps(
            {
                "system": "stable",
                "distortion": 0.01,
                "grid": {"min": 0.01, "max": 100.0, "points": 40},
            }
        )
    )
    rate_config = tmp_path / "rate.json"
    rate_config.write_text(
        json.dumps({"system": "unstable", "distortion": 0.01, "capacity_bits": 8.0})
    )
    sample_config = tmp_path / "sample.json"
    sample_config.write_text(
        json.dumps(
            {
                "system": "stable",
                "x0": [1.0, 1.0],
                "dt": 0.01,
                "steps": 40,
                "trials": 6,
            }
        )
    )
    family_path = tmp_path / "family.json"
    dump_family(planar_grid_family(), family_path)

    outputs = {}
    for run in ("one", "two"):
        curve_out = tmp_path / f"curve_{run}.csv"
        assert cli_main(["rdf-curve", "--config", str(curve_config), "--out", str(curve_out)]) == 0
        capsys.readouterr()
        assert cli_main(["min-rate", "--config", str(rate_config)]) == 0
        min_rate_line = capsys.readouterr().out
        sample_out = tmp_path / f"sample_{run}.csv"
        assert (
            cli_main(
                ["sample", "--config", str(sample_config), "--out", str(sample_out), "--seed", "9"]
            )
            == 0
        )
        emu_out = tmp_path / f"emu_{run}.csv"
        assert (
            cli_main(
                [
                    "emulate",
                    str(sample_out),
                    str(family_path),
                    "--resolution",
                    "50",
                    "--seed",
                    "4",
                    "--out",
                    str(emu_out),
                ]
            )
            == 0
        )
        outputs[run] = (
            curve_out.read_bytes(),
            sample_out.read_bytes(),
            emu_out.read_bytes(),
            min_rate_line,
        )
    ok = outputs["one"] == outputs["two"]
    report(9, "cli determinism", ok)
    assert ok
