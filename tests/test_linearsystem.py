"""Forward-increment law and sample-path tests with closed-form oracles."""

import math
import warnings

import numpy as np
import pytest

from lincoder import (
    LinearSystemModel,
    RateQuery,
    TrajectoryDataset,
    increment_distribution,
    increment_rate,
    sample_paths,
    state_transition,
)
from lincoder import linearsystem
from lincoder.csvio import read_trajectories, write_trajectories
from lincoder.linearsystem import (
    GRAMIAN_SPLIT_NORM,
    MIN_SUBSTEPS,
    SUBSTEP_NORM_FACTOR,
    _covariance_sqrt,
    _transition_and_gramian,
)
from lincoder.rng import PATH_LANE, substream


def max_abs(a):
    return float(np.max(np.abs(a)))


def quadrature_gramian(a, noise, dt, points=20001):
    """Independent oracle: trapezoid rule over expm(A s) N expm(A s)^T."""
    import scipy.linalg

    h = dt / (points - 1)
    step = scipy.linalg.expm(a * h)
    current = np.eye(a.shape[0])
    total = np.zeros_like(noise)
    for i in range(points):
        term = current @ noise @ current.T
        weight = 0.5 if i in (0, points - 1) else 1.0
        total += weight * term
        current = current @ step
    return total * h


def random_hurwitz(rng, n):
    raw = rng.normal(size=(n, n))
    return raw - (np.max(np.linalg.eigvals(raw).real) + 0.5) * np.eye(n)


class TestStateTransition:
    def test_zero_interval_is_identity(self):
        model = LinearSystemModel.constant([[0.0, 1.0], [0.0, 0.0]], np.eye(2))
        assert np.array_equal(state_transition(model, 0.0, 0.0), np.eye(2))

    def test_diagonal_scalar_oracle(self):
        model = LinearSystemModel.constant(np.diag([-1.0, -2.0]), np.eye(2))
        phi = state_transition(model, 0.0, 1.0)
        assert max_abs(phi - np.diag([math.exp(-1.0), math.exp(-2.0)])) <= 1e-12

    def test_negative_interval_rejected(self):
        model = LinearSystemModel.constant(np.eye(1), np.eye(1))
        with pytest.raises(ValueError):
            state_transition(model, 0.0, -0.5)

    def test_time_varying_scalar_commuting(self):
        # A(t) = sin(t) I commutes with itself: Phi = exp(int sin) I, and the
        # integral has the closed form cos(t) - cos(t + dt).
        model = LinearSystemModel.time_varying(
            lambda t: math.sin(t) * np.eye(2), 2, np.eye(2)
        )
        for t, dt in ((0.3, 1.0), (1.1, 0.5), (0.0, 1.2)):
            phi = state_transition(model, t, dt)
            expected = math.exp(math.cos(t) - math.cos(t + dt)) * np.eye(2)
            assert max_abs(phi - expected) <= 1e-8

    def test_constant_drift_matches_scipy_expm(self):
        import scipy.linalg

        rng = np.random.default_rng(71)
        for n in range(1, 9):
            for reach in (0.1, 1.0, 10.0, 100.0):  # norm1(A) * dt
                a = rng.normal(size=(n, n))
                dt = reach / np.linalg.norm(a, 1)
                expected = scipy.linalg.expm(a * dt)
                phi = state_transition(LinearSystemModel.constant(a, np.eye(n)), 0.0, dt)
                assert max_abs(phi - expected) <= 1e-11 * np.linalg.norm(expected)


def sinusoidal_drift(rng, n):
    """A(t) = A0 + sin(t) A1 with Gaussian A0, A1, and a PSD noise intensity."""
    a0, a1, b = rng.normal(size=(3, n, n))
    return LinearSystemModel.time_varying(lambda t: a0 + math.sin(t) * a1, n, b @ b.T)


def reference_substeps(model, t, dt):
    norm = float(np.linalg.norm(model.drift.evaluate(t), 1))
    return max(MIN_SUBSTEPS, int(math.ceil(dt * norm * SUBSTEP_NORM_FACTOR)))


def two_pass_reference(model, t, dt):
    """Phi and W of a time-varying drift as two separate RK4 passes on one grid."""
    drift, noise, n = model.drift, model.noise_intensity, model.dimension
    steps = reference_substeps(model, t, dt)

    def rk4(f, y):
        h, tau = dt / steps, t
        for _ in range(steps):
            k1 = f(tau, y)
            k2 = f(tau + 0.5 * h, y + 0.5 * h * k1)
            k3 = f(tau + 0.5 * h, y + 0.5 * h * k2)
            k4 = f(tau + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            tau += h
        return y

    def gramian_ode(tau, w):
        a = drift.evaluate(tau)
        return a @ w + w @ a.T + noise

    phi = rk4(lambda tau, p: drift.evaluate(tau) @ p, np.eye(n))
    w = rk4(gramian_ode, np.zeros((n, n)))
    return phi, 0.5 * (w + w.T)


class TestTimeVaryingPass:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_bit_identical_to_two_pass_reference(self, n):
        rng = np.random.default_rng(80 + n)
        for _ in range(5):
            model = sinusoidal_drift(rng, n)
            t, dt = rng.uniform(0.0, 3.0), rng.uniform(0.05, 2.0)
            x = rng.normal(size=n)
            phi, w = two_pass_reference(model, t, dt)
            law = increment_distribution(model, x, t, dt)
            assert np.array_equal(law.covariance, w)
            assert np.array_equal(law.mean, (phi - np.eye(n)) @ x)
            assert np.array_equal(state_transition(model, t, dt), phi)

    def test_one_drift_evaluation_per_stage(self):
        rng = np.random.default_rng(89)
        a0, a1 = rng.normal(size=(2, 3, 3))
        calls = []
        model = LinearSystemModel.time_varying(
            lambda t: calls.append(t) or a0 + math.sin(t) * a1, 3, np.eye(3)
        )
        steps = reference_substeps(model, 0.4, 1.5)
        calls.clear()
        increment_distribution(model, np.zeros(3), 0.4, 1.5)
        assert len(calls) <= 4 * steps + 1


class TestIncrementDistribution:
    def test_pure_brownian_covariance(self):
        noise = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = LinearSystemModel.constant(np.zeros((2, 2)), noise)
        law = increment_distribution(model, [1.0, -1.0], 0.0, 0.75)
        assert max_abs(law.covariance - noise * 0.75) <= 1e-12
        assert max_abs(law.mean) <= 1e-12  # Phi = I

    def test_scalar_closed_form(self):
        # a = -1, sigma^2 = 1, dt = 1: variance (1 - e^-2) / 2
        model = LinearSystemModel.constant([[-1.0]], [[1.0]])
        law = increment_distribution(model, [0.0], 0.0, 1.0)
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert abs(law.covariance[0, 0] - expected) <= 1e-10

    def test_mean_formula(self):
        a = np.array([[-0.3, 0.8], [-0.8, -0.3]])
        model = LinearSystemModel.constant(a, 0.1 * np.eye(2))
        x = np.array([2.0, -1.0])
        law = increment_distribution(model, x, 0.0, 0.4)
        phi = state_transition(model, 0.0, 0.4)
        assert max_abs(law.mean - (phi - np.eye(2)) @ x) <= 1e-12

    def test_van_loan_matches_quadrature(self):
        rng = np.random.default_rng(19)
        a = random_hurwitz(rng, 3)
        b = rng.normal(size=(3, 3))
        noise = b @ b.T
        model = LinearSystemModel.constant(a, noise)
        dt = 0.8
        law = increment_distribution(model, np.zeros(3), 0.0, dt)
        oracle = quadrature_gramian(a, noise, dt)
        assert max_abs(law.covariance - oracle) <= 1e-7

    def test_constant_drift_time_invariance(self):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        x = np.array([1.0, 1.0])
        a = increment_distribution(model, x, 0.0, 0.7)
        b = increment_distribution(model, x, 13.2, 0.7)
        assert max_abs(a.covariance - b.covariance) <= 1e-9
        assert max_abs(a.mean - b.mean) <= 1e-9

    def test_time_varying_constant_function_matches_lti(self):
        a = np.array([[-1.0, 0.4], [0.0, -2.0]])
        noise = np.array([[1.0, 0.2], [0.2, 0.5]])
        lti = LinearSystemModel.constant(a, noise)
        frozen = LinearSystemModel.time_varying(lambda t: a, 2, noise)
        dt = 0.6
        w_lti = increment_distribution(lti, np.zeros(2), 0.0, dt).covariance
        w_tv = increment_distribution(frozen, np.zeros(2), 0.0, dt).covariance
        assert max_abs(w_lti - w_tv) <= 1e-8

    def test_interval_stack_matches_single_intervals_bit_for_bit(self):
        # Shuffled intervals on both sides of the doubling switch: each one
        # gets its own exponential and its own number of doublings.
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3, 3))
        model = LinearSystemModel.constant(a, b @ b.T)
        grid = rng.permutation(np.logspace(-3, 2, 30))
        phis, covariances = _transition_and_gramian(model, 0.0, grid)
        for dt, phi, cov in zip(grid, phis, covariances):
            assert np.array_equal(phi, state_transition(model, 0.0, dt))
            law = increment_distribution(model, np.zeros(3), 0.0, dt)
            assert np.array_equal(cov, law.covariance)

    def test_nonpositive_interval_rejected(self):
        model = LinearSystemModel.constant([[-1.0]], [[1.0]])
        with pytest.raises(ValueError):
            increment_distribution(model, [0.0], 0.0, 0.0)

    @pytest.mark.parametrize("dt", [0.5, 10.0], ids=["one-exponential", "doublings"])
    def test_mean_uses_the_state_transition_bit_for_bit(self, dt):
        # Slowly decaying rotations keep Phi of order one, so a second route
        # to Phi would show in the mean's last bits.
        rng = np.random.default_rng(67)
        for n in (2, 3, 4) * 5:
            s = rng.normal(size=(n, n))
            model = LinearSystemModel.constant(s - s.T - 0.02 * np.eye(n), 0.1 * np.eye(n))
            x = rng.normal(size=n)
            law = increment_distribution(model, x, 0.0, dt)
            assert np.array_equal(law.mean, (state_transition(model, 0.0, dt) - np.eye(n)) @ x)


@pytest.mark.parametrize("dt", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize(
    "entry", ["state_transition", "increment_distribution", "increment_rate", "sample_paths"]
)
def test_non_finite_interval_rejected(entry, dt):
    model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
    calls = {
        "state_transition": lambda: state_transition(model, 0.0, dt),
        "increment_distribution": lambda: increment_distribution(model, [1.0, 1.0], 0.0, dt),
        "increment_rate": lambda: increment_rate(RateQuery(model, dt, 0.01)),
        "sample_paths": lambda: sample_paths(model, [1.0, 1.0], dt, 2, 2, seed=0),
    }
    with pytest.raises(ValueError, match="sampling interval must be positive"):
        calls[entry]()


def gramian_derivative_residual(model, dt_grid, step):
    """Oracle: max-norm residual of dW/ddt = A W + W A^T + N per grid point.

    The derivative of the increment covariance is taken by a central
    difference with the given step.
    """
    a = model.drift.matrix
    noise = model.noise_intensity
    zero = np.zeros(model.dimension)
    out = []
    for dt in dt_grid:
        w0, wp, wm = (
            increment_distribution(model, zero, 0.0, h).covariance
            for h in (dt, dt + step, dt - step)
        )
        diff = (wp - wm) / (2.0 * step)
        out.append(max_abs(diff - (a @ w0 + w0 @ a.T + noise)))
    return np.array(out)


class TestGramianOdeResidual:
    def test_brownian_residual_vanishes(self):
        model = LinearSystemModel.constant(np.zeros((2, 2)), np.eye(2))
        residuals = gramian_derivative_residual(model, [0.5, 1.0, 2.0], step=1e-3)
        assert np.all(residuals <= 1e-8)

    def test_near_equilibrium_residual(self):
        model = LinearSystemModel.constant([[-1.0, 1.0], [0.0, -2.0]], np.eye(2))
        residuals = gramian_derivative_residual(model, [30.0], step=1e-3)
        assert residuals[0] <= 1e-6

    def test_second_order_convergence(self):
        model = LinearSystemModel.constant([[-1.0, 1.0], [0.0, -2.0]], np.eye(2))
        coarse = gramian_derivative_residual(model, [0.4], step=2e-2)[0]
        fine = gramian_derivative_residual(model, [0.4], step=1e-2)[0]
        assert coarse / fine == pytest.approx(4.0, rel=0.25)


UNSTABLE_SPIRAL = [[0.5, 1.0], [-1.0, 0.5]]


class TestSamplePaths:
    def test_zero_noise_is_deterministic(self):
        a = np.array([[-0.5, 0.0], [0.0, -1.0]])
        model = LinearSystemModel.constant(a, np.zeros((2, 2)))
        data = sample_paths(model, [1.0, 2.0], 0.5, steps=4, trials=3, seed=99)
        phi = state_transition(model, 0.0, 0.5)
        x = np.array([1.0, 2.0])
        for k in range(5):
            for trial in range(3):
                assert max_abs(data.states[trial, k] - x) <= 1e-12
            x = phi @ x
        assert np.array_equal(data.states[0], data.states[1])

    def test_same_seed_bit_identical(self):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        a = sample_paths(model, [1.0, 1.0], 0.1, steps=20, trials=4, seed=7)
        b = sample_paths(model, [1.0, 1.0], 0.1, steps=20, trials=4, seed=7)
        assert np.array_equal(a.states, b.states)
        c = sample_paths(model, [1.0, 1.0], 0.1, steps=20, trials=4, seed=8)
        assert not np.array_equal(a.states, c.states)

    def test_brownian_increment_covariance_concentration(self):
        trials = 2000
        model = LinearSystemModel.constant(np.zeros((2, 2)), np.eye(2))
        data = sample_paths(model, [0.0, 0.0], 1.0, steps=1, trials=trials, seed=2024)
        increments = data.increments()[:, 0, :]
        empirical = increments.T @ increments / trials
        bound = 3.0 * math.sqrt(2.0 / trials)
        assert max_abs(empirical - np.eye(2)) <= bound
        assert max_abs(increments.mean(axis=0)) <= bound

    @staticmethod
    def per_cell_reference(model, x0, dt, steps, trials, seed):
        """One fresh Philox cell per trial, drawn step by step, then phi @ x + root @ z."""
        n = model.dimension
        phi = state_transition(model, 0.0, dt)
        root = _covariance_sqrt(increment_distribution(model, np.zeros(n), 0.0, dt).covariance)
        key = np.array([seed, PATH_LANE], dtype=np.uint64)
        states = np.empty((trials, steps + 1, n))
        for trial in range(trials):
            counter = np.array([0, 0, trial, 0], dtype=np.uint64)
            cell = np.random.Generator(np.random.Philox(counter=counter, key=key))
            x = np.asarray(x0, dtype=float)
            states[trial, 0] = x
            for k in range(steps):
                x = phi @ x + root @ cell.standard_normal(n)
                states[trial, k + 1] = x
        return states

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("dt", [0.05, 40.0], ids=["one-exponential", "doublings"])
    @pytest.mark.parametrize("singular", [False, True], ids=["cholesky", "eigen-root"])
    def test_bit_identical_to_per_cell_loop(self, n, dt, singular):
        rng = np.random.default_rng(100 * n + int(singular))
        a = random_hurwitz(rng, n)
        b = rng.normal(size=(n, n))
        if singular:
            # The last coordinate decouples and gets no noise: W(dt) is
            # singular and the noise square root takes the eigen path.
            a[-1, :-1] = a[:-1, -1] = 0.0
            b[-1] = 0.0
        model = LinearSystemModel.constant(a, b @ b.T)
        cov = increment_distribution(model, np.zeros(n), 0.0, dt).covariance
        assert (np.linalg.matrix_rank(cov) < n) == singular
        assert (np.linalg.norm(a, 1) * dt > GRAMIAN_SPLIT_NORM) == (dt > 1.0)
        x0 = rng.normal(size=n)
        seed = 2**64 - 1 if n == 3 else 31
        data = sample_paths(model, x0, dt, steps=25, trials=6, seed=seed)
        assert np.array_equal(data.states, self.per_cell_reference(model, x0, dt, 25, 6, seed))

    @pytest.mark.parametrize("trials", [1, 2, 40])
    def test_bit_identical_to_per_cell_loop_at_bench_widths(self, trials):
        # Each step advances one (trials, n, 1) block in place; every width
        # must keep the bits of the per-trial phi @ x + root @ z.
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        data = sample_paths(model, [1.0, -0.5], 0.05, steps=300, trials=trials, seed=5)
        expected = self.per_cell_reference(model, [1.0, -0.5], 0.05, 300, trials, 5)
        assert np.array_equal(data.states, expected)

    @pytest.mark.parametrize(
        "a, dt, message",
        [
            # Unstable spiral: Phi grows like e^(dt/2) and W like e^dt.
            (UNSTABLE_SPIRAL, 700.0, "sample path of trial 0 overflows at step 3 (dt = 700)"),
            (UNSTABLE_SPIRAL, 1000.0, "the increment law overflows at dt = 1000"),
            (UNSTABLE_SPIRAL, 5000.0, "the increment law overflows at dt = 5000"),
            # W is finite but its trace overflows, which picks the eigen root.
            (0.5 * np.eye(3), 709.0, "sample path of trial 1 overflows at step 2 (dt = 709)"),
        ],
    )
    def test_overflow_is_a_clear_error_without_warnings(self, a, dt, message):
        n = len(a)
        model = LinearSystemModel.constant(a, np.eye(n))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                sample_paths(model, np.ones(n), dt, steps=3, trials=2, seed=7)
        assert str(info.value) == message

    def test_builds_one_generator_per_trial(self, monkeypatch):
        # One Philox per trial (40), not one per (trial, step) cell (12 000).
        built = []
        philox = np.random.Philox
        monkeypatch.setattr(
            np.random, "Philox", lambda *args, **kwargs: built.append(1) or philox(*args, **kwargs)
        )
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        sample_paths(model, [1.0, 1.0], 0.01, steps=300, trials=40, seed=7)
        assert len(built) <= 40

    def test_shorter_run_is_a_prefix(self):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        short = sample_paths(model, [1.0, 1.0], 0.1, steps=10, trials=3, seed=7)
        full = sample_paths(model, [1.0, 1.0], 0.1, steps=25, trials=6, seed=7)
        assert np.array_equal(short.states, full.states[:3, :11])

    @pytest.mark.parametrize("steps", [1, 300])
    def test_positions_one_cell_per_trial(self, monkeypatch, steps):
        positioned = []
        monkeypatch.setattr(
            linearsystem, "substream", lambda *args: positioned.append(1) or substream(*args)
        )
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        sample_paths(model, [1.0, 1.0], 0.01, steps=steps, trials=40, seed=7)
        assert len(positioned) <= 40

    def test_requires_constant_drift(self):
        model = LinearSystemModel.time_varying(lambda t: -np.eye(2), 2, np.eye(2))
        with pytest.raises(ValueError):
            sample_paths(model, [0.0, 0.0], 0.1, 2, 2, 0)


class TestGramianInvariants:
    def test_semigroup_identity(self):
        a = np.array([[-0.4, 0.9], [-0.9, -0.4]])
        noise = np.array([[0.3, 0.1], [0.1, 0.2]])
        model = LinearSystemModel.constant(a, noise)
        s, t = 0.7, 1.1
        w_s = increment_distribution(model, np.zeros(2), 0.0, s).covariance
        w_t = increment_distribution(model, np.zeros(2), 0.0, t).covariance
        w_st = increment_distribution(model, np.zeros(2), 0.0, s + t).covariance
        phi_t = state_transition(model, 0.0, t)
        assert max_abs(w_st - (phi_t @ w_s @ phi_t.T + w_t)) <= 1e-8

    def test_loewner_monotonicity(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            a = rng.normal(size=(3, 3))  # any drift, stable or not
            b = rng.normal(size=(3, 3))
            noise = b @ b.T
            model = LinearSystemModel.constant(a, noise)
            dt1, dt2 = 0.4, 1.0
            w1 = increment_distribution(model, np.zeros(3), 0.0, dt1).covariance
            w2 = increment_distribution(model, np.zeros(3), 0.0, dt2).covariance
            phi = state_transition(model, 0.0, dt2 - dt1)
            gap = w2 - phi @ w1 @ phi.T
            assert np.linalg.eigvalsh(0.5 * (gap + gap.T))[0] >= -1e-9

    def test_long_horizon_reaches_lyapunov_equilibrium(self):
        from lincoder import lyapunov_solve

        rng = np.random.default_rng(47)
        a = random_hurwitz(rng, 3)
        b = rng.normal(size=(3, 3))
        noise = b @ b.T
        model = LinearSystemModel.constant(a, noise)
        slowest = abs(np.max(np.linalg.eigvals(a).real))
        horizon = 50.0 / slowest
        w = increment_distribution(model, np.zeros(3), 0.0, horizon).covariance
        w_inf = lyapunov_solve(a, noise)
        assert max_abs(w - w_inf) <= 1e-6 * max_abs(w_inf)


class TestDatasetCsv:
    def test_round_trip_is_lossless(self, tmp_path):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        data = sample_paths(model, [1.0, 1.0], 0.01, steps=7, trials=3, seed=5)
        path = tmp_path / "data.csv"
        write_trajectories(data, path)
        loaded = read_trajectories(path)
        assert loaded.dt == data.dt
        assert np.array_equal(loaded.states, data.states)

    @pytest.mark.parametrize("dt", [0.1, 0.01, 1.0 / 3.0])
    def test_bytes_match_per_value_writer(self, tmp_path, dt):
        rng = np.random.default_rng(17)
        states = rng.normal(size=(3, 12, 2)) * 10.0 ** rng.integers(-300, 300, size=(3, 12, 2))
        states[0, 1] = [-0.0, 0.0]
        states[2, 5] = [1e-320, -np.finfo(float).max]
        path = tmp_path / "data.csv"
        write_trajectories(TrajectoryDataset(dt, states), path)
        lines = ["trial,k,t,x1,x2"]
        for trial in range(3):
            for k in range(12):
                values = [f"{k * dt:.17g}", *(f"{v:.17g}" for v in states[trial, k])]
                lines.append(",".join([str(trial), str(k), *values]))
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert b"-0," in path.read_bytes()
        assert np.array_equal(read_trajectories(path).states, states)

    def test_header_and_ordering(self, tmp_path):
        model = LinearSystemModel.constant([[0.0]], [[1.0]])
        data = sample_paths(model, [0.0], 0.5, steps=2, trials=2, seed=1)
        path = tmp_path / "data.csv"
        write_trajectories(data, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "trial,k,t,x1"
        keys = [tuple(map(int, line.split(",")[:2])) for line in lines[1:]]
        assert keys == sorted(keys)

    @pytest.mark.parametrize(
        "rows",
        [
            ["0,0,0,1", "0,1,0.5,2", "1,0,0,3", "1,1,0.5,4", "-1,1,0.5,9"],  # negative trial
            ["0,0,0,1", "0,1,0.5,2", "0,1,0.5,9"],  # duplicate (trial, k)
            ["0,0,0,1", "0,1,0.5,2", "0,2,1.5,3"],  # non-uniform time column
            ["0,0,0,1", "0,1,0.5", "0,2,1.0,3"],  # ragged row
            ["0,0,0,1", "0,1,0.5,2", "1.5,0,0,3", "1.5,1,0.5,4"],  # non-integer trial
            ["0,0,0,1", "0,1,0.5,2", "1000000000000000,0,0,3"],  # grid too large to hold
        ],
        ids=[
            "negative-index",
            "duplicate-row",
            "non-uniform-t",
            "ragged-row",
            "non-integer-trial",
            "huge-trial-index",
        ],
    )
    def test_malformed_grid_rejected(self, tmp_path, rows):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(["trial,k,t,x1", *rows]) + "\n")
        with pytest.raises(ValueError):
            read_trajectories(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError):
            read_trajectories(path)
