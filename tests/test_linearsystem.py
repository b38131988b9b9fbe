"""Forward-increment law and sample-path tests with closed-form oracles."""

import hashlib
import itertools
import math
import re
import warnings

import mpmath
import numpy as np
import pytest

from lincoder import (
    LinearSystemModel,
    TrajectoryDataset,
    demo_model,
    increment_distribution,
    increment_rate,
    rate_curve,
    sample_paths,
)
from lincoder import csvio, linalg, linearsystem
from lincoder.csvio import read_trajectories, write_trajectories
from lincoder.linalg import scaled_exp
from lincoder.linearsystem import _covariance_sqrt, _generators, _transition_and_gramian
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


def reference_gramian(a, noise, dt):
    """Independent oracle: W(dt) = int_0^dt e^(As) N e^(A^T s) ds to 80 digits, in mpmath.

    A nilpotent A (A^2 = 0, a Jordan chain such as ``marginal``) has
    e^(As) = I + A s, so W = N dt + (A N + N A^T) dt^2/2 + A N A^T dt^3/3.
    Otherwise A = V diag(lambda) V^-1 and, with Nt = V^-1 N V^-H,
    W = V [Nt_ij expm1((lambda_i + conj lambda_j) dt) / (lambda_i + conj lambda_j)] V^H,
    where a zero exponent gives Nt_ij dt.  Returns an mpmath matrix.
    """
    with mpmath.workdps(80):
        a, noise, dt = mpmath.matrix(a), mpmath.matrix(noise), mpmath.mpf(dt)
        if mpmath.mnorm(a, 1) > 0 and mpmath.mnorm(a * a, 1) == 0:
            return noise * dt + (a * noise + noise * a.T) * dt**2 / 2 + a * noise * a.T * dt**3 / 3
        values, vectors = mpmath.eig(a)
        inverse = vectors**-1
        mixed = inverse * noise * inverse.H
        for i, j in itertools.product(range(a.rows), repeat=2):
            s = values[i] + mpmath.conj(values[j])
            mixed[i, j] *= dt if s == 0 else mpmath.expm1(s * dt) / s
        return (vectors * mixed * vectors.H).apply(mpmath.re)


def reference_rate_bits(w, distortion):
    """Oracle: Gaussian rate of covariance ``w`` in bits at a budget, to 80 digits, in mpmath.

    With the eigenvalues of mpmath.eigsy ascending, the water level is
    theta = (D - sum of the k lowest) / (n - k) for the least k that keeps it
    at or below the next eigenvalue, and R = 1/2 sum log2(lambda_i / theta)
    over the modes above it (0 when D covers the whole trace).
    """
    with mpmath.workdps(80):
        w = mpmath.matrix(w)
        values = sorted(mpmath.eigsy((w + w.T) / 2, eigvals_only=True))
        budget = mpmath.mpf(distortion)
        if budget >= sum(values):
            return mpmath.mpf(0)
        for k in range(len(values)):
            theta = (budget - sum(values[:k])) / (len(values) - k)
            if theta <= values[k]:
                break
        return sum(mpmath.log(v / theta, 2) for v in values[k:]) / 2


def doublings(a, noise, grid):
    """Interval doublings of each dt of grid: the scaling count of its Van Loan exponential."""
    generator = _generators(np.asarray(a), np.asarray(noise))
    return scaled_exp(generator * np.asarray(grid)[:, None, None])[1]


def random_hurwitz(rng, n):
    raw = rng.normal(size=(n, n))
    return raw - (np.max(np.linalg.eigvals(raw).real) + 0.5) * np.eye(n)


class TestStateTransition:
    def test_diagonal_scalar_oracle(self):
        model = LinearSystemModel.constant(np.diag([-1.0, -2.0]), np.eye(2))
        phi = _transition_and_gramian(model, 1.0)[0]
        assert max_abs(phi - np.diag([math.exp(-1.0), math.exp(-2.0)])) <= 1e-12

    def test_negative_interval_rejected(self):
        model = LinearSystemModel.constant(np.eye(1), np.eye(1))
        with pytest.raises(ValueError, match="sampling interval must be positive"):
            _transition_and_gramian(model, -0.5)

    def test_constant_drift_matches_scipy_expm(self):
        import scipy.linalg

        rng = np.random.default_rng(71)
        for n in range(1, 9):
            for reach in (0.1, 1.0, 10.0, 100.0):  # norm1(A) * dt
                a = rng.normal(size=(n, n))
                dt = reach / np.linalg.norm(a, 1)
                expected = scipy.linalg.expm(a * dt)
                model = LinearSystemModel.constant(a, np.eye(n))
                phi = _transition_and_gramian(model, dt)[0]
                assert max_abs(phi - expected) <= 1e-11 * np.linalg.norm(expected)

    @pytest.mark.parametrize("dt", [1e-3, 0.5, 5.0, 40.0])
    @pytest.mark.parametrize("a", [-3.0, -0.4, 0.0, 0.7])
    def test_scalar_closed_form_across_regimes(self, a, dt):
        # dx = a x dt + dw with intensity q: Phi = exp(a dt) and
        # W = q (exp(2 a dt) - 1) / (2 a), which is q dt at a = 0; from a
        # single exponential up to several interval doublings.
        q = 1.3
        phi, w = _transition_and_gramian(LinearSystemModel.constant([[a]], [[q]]), dt)
        exact_w = q * dt if a == 0.0 else q * math.expm1(2.0 * a * dt) / (2.0 * a)
        assert abs(phi[0, 0] / math.exp(a * dt) - 1.0) <= 1e-11
        assert abs(w[0, 0] / exact_w - 1.0) <= 1e-11

    @pytest.mark.parametrize("dt", [0.01, 0.3, 3.0, 30.0])
    def test_damped_rotation_closed_form(self, dt):
        # J = [[-1, 20], [-20, -1]] with N = I: Phi = e^-dt R(20 dt), and
        # J + J^T = -2 I makes W = I (1 - e^(-2 dt)) / 2.
        model = LinearSystemModel.constant([[-1.0, 20.0], [-20.0, -1.0]], np.eye(2))
        phi, w = _transition_and_gramian(model, dt)
        c, s = math.cos(20.0 * dt), math.sin(20.0 * dt)
        exact_phi = math.exp(-dt) * np.array([[c, s], [-s, c]])
        exact_w = -0.5 * math.expm1(-2.0 * dt) * np.eye(2)
        assert np.linalg.norm(phi - exact_phi) <= 1e-10 * np.linalg.norm(exact_phi)
        assert np.linalg.norm(w - exact_w) <= 1e-10 * np.linalg.norm(exact_w)


class TestModelConstruction:
    @pytest.mark.parametrize(
        "drift, noise, message",
        [
            (np.zeros((2, 3)), np.eye(2), "drift matrix must be square, got shape (2, 3)"),
            (np.zeros(2), np.eye(2), "drift matrix must be 2-dimensional, got shape (2,)"),
            (
                -np.eye(2)[np.newaxis],
                np.eye(2),
                "drift matrix must be 2-dimensional, got shape (1, 2, 2)",
            ),
            (np.zeros((0, 0)), np.eye(2), "drift matrix must be non-empty"),
            (
                [[-1.0, math.nan], [0.0, -1.0]],
                np.eye(2),
                "drift matrix contains non-finite entries",
            ),
            ([[-1.0, 0.0], [0.0, math.inf]], np.eye(2), "drift matrix contains non-finite entries"),
            (-np.eye(2), np.zeros((2, 3)), "noise intensity must be square, got shape (2, 3)"),
            (-np.eye(2), np.ones(2), "noise intensity must be 2-dimensional, got shape (2,)"),
            (
                -np.eye(2),
                [[1.0, 0.0], [0.0, -math.inf]],
                "noise intensity contains non-finite entries",
            ),
            (
                -np.eye(2),
                [[1.0, 1.0], [0.0, 1.0]],
                "noise intensity is not symmetric (max asymmetry 1.000e+00)",
            ),
            (-np.eye(2), [[1.0, 0.0], [0.0, -1.0]], "noise intensity is not positive semidefinite"),
            (-np.eye(2), np.eye(3), "drift and noise intensity sizes do not agree"),
        ],
        ids=[
            "drift-non-square",
            "drift-one-dimensional",
            "drift-stack",
            "drift-empty",
            "drift-nan",
            "drift-inf",
            "noise-non-square",
            "noise-one-dimensional",
            "noise-minus-inf",
            "noise-asymmetric",
            "noise-not-psd",
            "size-mismatch",
        ],
    )
    def test_malformed_matrices_refused(self, drift, noise, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LinearSystemModel.constant(drift, noise)

    def test_model_keeps_read_only_copies(self):
        drift = np.array([[-1.0, 0.5], [0.0, -2.0]])
        noise = np.array([[1.0, 0.2], [0.2, 0.5]])
        model = LinearSystemModel.constant(drift, noise)
        before = _transition_and_gramian(model, 0.7)
        drift[0, 1], noise[0, 0] = 9.0, 9.0
        assert model.drift.matrix[0, 1] == 0.5 and model.noise_intensity[0, 0] == 1.0
        for array in (model.drift.matrix, model.noise_intensity):
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0
        after = _transition_and_gramian(model, 0.7)
        assert all(np.array_equal(x, y) for x, y in zip(before, after))


class TestIncrementDistribution:
    def test_pure_brownian_covariance(self):
        noise = np.array([[2.0, 0.5], [0.5, 1.0]])
        model = LinearSystemModel.constant(np.zeros((2, 2)), noise)
        law = increment_distribution(model, [1.0, -1.0], 0.75)
        assert max_abs(law.covariance - noise * 0.75) <= 1e-12
        assert max_abs(law.mean) <= 1e-12  # Phi = I

    def test_scalar_closed_form(self):
        # a = -1, sigma^2 = 1, dt = 1: variance (1 - e^-2) / 2
        model = LinearSystemModel.constant([[-1.0]], [[1.0]])
        law = increment_distribution(model, [0.0], 1.0)
        expected = (1.0 - math.exp(-2.0)) / 2.0
        assert abs(law.covariance[0, 0] - expected) <= 1e-10

    def test_mean_formula(self):
        a = np.array([[-0.3, 0.8], [-0.8, -0.3]])
        model = LinearSystemModel.constant(a, 0.1 * np.eye(2))
        x = np.array([2.0, -1.0])
        law = increment_distribution(model, x, 0.4)
        phi = _transition_and_gramian(model, 0.4)[0]
        assert max_abs(law.mean - (phi - np.eye(2)) @ x) <= 1e-12

    def test_van_loan_matches_quadrature(self):
        rng = np.random.default_rng(19)
        a = random_hurwitz(rng, 3)
        b = rng.normal(size=(3, 3))
        noise = b @ b.T
        model = LinearSystemModel.constant(a, noise)
        dt = 0.8
        law = increment_distribution(model, np.zeros(3), dt)
        oracle = quadrature_gramian(a, noise, dt)
        assert max_abs(law.covariance - oracle) <= 1e-7

    def test_interval_stack_matches_single_intervals_bit_for_bit(self):
        # Shuffled intervals on both sides of the doubling switch: each one
        # gets its own exponential and its own number of doublings.
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=(2, 3, 3))
        model = LinearSystemModel.constant(a, b @ b.T)
        grid = rng.permutation(np.logspace(-3, 2, 30))
        phis, covariances = _transition_and_gramian(model, grid)
        for dt, phi, cov in zip(grid, phis, covariances):
            assert np.array_equal(phi, _transition_and_gramian(model, dt)[0])
            law = increment_distribution(model, np.zeros(3), dt)
            assert np.array_equal(cov, law.covariance)

    @pytest.mark.parametrize("name", ["unstable", "marginal", "stable"])
    def test_mixed_doubling_stack_matches_single_intervals_bit_for_bit(self, name):
        # One shuffled stack with 0 to about 40 doublings on the stable and
        # unstable drifts, sorted by doubling count for the composition and
        # put back; on the unstable drift, dt = 1e4 overflows to inf.  The
        # marginal generator is nilpotent, so its exponential is never
        # scaled and no interval is doubled.  Each entry must come out as if
        # alone.
        model = demo_model(name)
        norm = np.linalg.norm(model.drift.matrix, 1)
        rng = np.random.default_rng(59)
        grid = rng.permutation(np.append(np.logspace(-3, 12.5, 40) / norm, 1e4))
        counts = doublings(model.drift.matrix, model.noise_intensity, grid)
        if name == "marginal":
            assert counts.max() == 0
        else:
            assert counts.min() == 0 and counts.max() >= 38
        calm = rng.permutation(np.logspace(-4, math.log10(3.6 / norm), 12))
        for stack in (grid, calm):
            phis, covariances = _transition_and_gramian(model, stack)
            for dt, phi, cov in zip(stack, phis, covariances):
                single_phi, single_cov = _transition_and_gramian(model, dt)
                assert np.array_equal(phi, single_phi, equal_nan=True)
                assert np.array_equal(cov, single_cov, equal_nan=True)
        overflowed = _transition_and_gramian(model, grid)[1][grid == 1e4]
        assert (not np.isfinite(overflowed).any()) == (name == "unstable")
        # Out to 1e300 the marginal W overflows beside a finite Phi, and at
        # the level-16 check some of the intervals still doubling have
        # settled while others have not.  A settled interval only keeps its
        # finite entries and which entries are finite, so those are compared.
        far = np.geomspace(1e-3, 1e300, 61)
        phis, covariances = _transition_and_gramian(model, far)
        for dt, phi, cov in zip(far, phis, covariances):
            for got, alone in zip((phi, cov), _transition_and_gramian(model, dt)):
                finite = np.isfinite(alone)
                assert np.array_equal(np.isfinite(got), finite)
                assert np.array_equal(got[finite], alone[finite])

    def test_overflow_is_an_infinite_rate_without_warnings(self):
        # An overflowing W reads as an infinite rate; a numpy warning would
        # fail the test under the suite's filter.
        constant = LinearSystemModel.constant(0.5 * np.eye(2), np.eye(2))
        assert increment_rate(constant, 1500.0, 0.01).rate_bits == math.inf

    def test_nonpositive_interval_rejected(self):
        model = LinearSystemModel.constant([[-1.0]], [[1.0]])
        with pytest.raises(ValueError):
            increment_distribution(model, [0.0], 0.0)

    @pytest.mark.parametrize("dt", [709.1, 709.7])
    def test_covariance_stays_finite_near_the_float_limit(self, dt):
        # W = expm1(dt) for a = 1/2, N = 1: finite, but W + W^T overflows.
        model = LinearSystemModel.constant([[0.5]], [[1.0]])
        law = increment_distribution(model, [0.0], dt)
        assert abs(law.covariance[0, 0] / math.expm1(dt) - 1.0) <= 1e-12

    @pytest.mark.parametrize(
        "model, dt, message",
        [
            (demo_model("unstable"), 1e4, "the increment law overflows at dt = 10000"),
            # Phi and W overflow on the eighth and last doubling, a check level.
            (
                LinearSystemModel.constant([[1.0]], [[1e-100]]),
                800.0,
                "the increment law overflows at dt = 800",
            ),
        ],
        ids=["constant", "check-level"],
    )
    def test_overflowed_law_is_refused(self, model, dt, message):
        # The same refusal as sample_paths, not a NaN mean and covariance.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as info:
                increment_distribution(model, np.ones(model.dimension), dt)
        assert str(info.value) == message

    @pytest.mark.parametrize("dt", [0.5, 10.0], ids=["one-exponential", "doublings"])
    def test_mean_uses_the_state_transition_bit_for_bit(self, dt):
        # Slowly decaying rotations keep Phi of order one, so a second route
        # to Phi would show in the mean's last bits.
        rng = np.random.default_rng(67)
        for n in (2, 3, 4) * 5:
            s = rng.normal(size=(n, n))
            model = LinearSystemModel.constant(s - s.T - 0.02 * np.eye(n), 0.1 * np.eye(n))
            x = rng.normal(size=n)
            law = increment_distribution(model, x, dt)
            phi = _transition_and_gramian(model, dt)[0]
            assert np.array_equal(law.mean, (phi - np.eye(n)) @ x)


@pytest.mark.parametrize("dt", [math.inf, math.nan], ids=["inf", "nan"])
@pytest.mark.parametrize("entry", ["increment_distribution", "increment_rate", "sample_paths"])
def test_non_finite_interval_rejected(entry, dt):
    model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
    calls = {
        "increment_distribution": lambda: increment_distribution(model, [1.0, 1.0], dt),
        "increment_rate": lambda: increment_rate(model, dt, 0.01),
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
            increment_distribution(model, zero, h).covariance
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


class TestReferenceGramian:
    """reference_gramian against closed forms, each evaluated in mpmath at 80 digits."""

    @staticmethod
    def assert_agrees(a, noise, dt, exact):
        got = reference_gramian(a, noise, dt)
        with mpmath.workdps(80):
            exact = exact(mpmath.matrix(noise), mpmath.mpf(dt))
            assert mpmath.mnorm(got - exact, 1) <= mpmath.mpf("1e-70") * mpmath.mnorm(exact, 1)

    @pytest.mark.parametrize("dt", [1e-6, 0.75, 1e4, 1e12])
    def test_brownian(self, dt):
        # A = 0: W = N dt, through the eigen path with a zero exponent.
        self.assert_agrees(np.zeros((2, 2)), [[2.0, 0.5], [0.5, 1.0]], dt, lambda n, t: n * t)

    @pytest.mark.parametrize("dt", [1e-3, 0.5, 40.0, 1e3])
    @pytest.mark.parametrize("a", [-3.0, -0.4, 0.7])
    def test_scalar_ornstein_uhlenbeck(self, a, dt):
        # W = q expm1(2 a dt) / (2 a).
        self.assert_agrees([[a]], [[1.3]], dt, lambda n, t: n * mpmath.expm1(2 * a * t) / (2 * a))

    @pytest.mark.parametrize("dt", [1e-3, 0.5, 40.0, 1e3])
    def test_diagonal_ornstein_uhlenbeck(self, dt):
        # Independent rates a_i under correlated noise:
        # W_ij = N_ij expm1((a_i + a_j) dt) / (a_i + a_j).
        rates = [-1.0, -2.5]

        def exact(n, t):
            w = n.copy()
            for i, j in itertools.product(range(2), repeat=2):
                w[i, j] *= mpmath.expm1((rates[i] + rates[j]) * t) / (rates[i] + rates[j])
            return w

        self.assert_agrees(np.diag(rates), [[1.0, 0.3], [0.3, 0.5]], dt, exact)

    @pytest.mark.parametrize("dt", [0.01, 3.0, 30.0, 1e3])
    def test_rotating_ornstein_uhlenbeck(self, dt):
        # J = [[-1, 20], [-20, -1]], N = I: complex eigenvalues, and J + J^T = -2 I
        # makes W = I (1 - e^(-2 dt)) / 2.
        rotation = [[-1.0, 20.0], [-20.0, -1.0]]
        self.assert_agrees(rotation, np.eye(2), dt, lambda n, t: -n * mpmath.expm1(-2 * t) / 2)

    @pytest.mark.parametrize("dt", [1e-3, 1.0, 1e8, 1e12])
    def test_marginal(self, dt):
        # The double integrator's Jordan chain: W = q [[t + t^3/3, t^2/2], [t^2/2, t]].
        model = demo_model("marginal")

        def exact(n, t):
            return n[0, 0] * mpmath.matrix([[t + t**3 / 3, t**2 / 2], [t**2 / 2, t]])

        self.assert_agrees(model.drift.matrix, model.noise_intensity, dt, exact)


class TestReferenceRate:
    """reference_rate_bits against closed forms, then increment_rate against it."""

    @staticmethod
    def assert_agrees(a, noise, dt, distortion, exact):
        got = reference_rate_bits(reference_gramian(a, noise, dt), distortion)
        with mpmath.workdps(80):
            assert abs(got - exact(mpmath.mpf(dt), mpmath.mpf(distortion))) <= mpmath.mpf("1e-50")

    @pytest.mark.parametrize("dt", [1e-3, 4.9e-3, 5.1e-3, 1.0, 1e6])
    def test_brownian(self, dt):
        # W = q dt, so R = max(0, 1/2 log2(q dt / D)), zero below dt = D / q = 5e-3.
        def exact(t, d):
            return max(0, mpmath.log(2 * t / d, 2) / 2)

        self.assert_agrees([[0.0]], [[2.0]], dt, 0.01, exact)

    @pytest.mark.parametrize("dt", [0.5, 1.0, 40.0])
    def test_diagonal_ornstein_uhlenbeck_with_a_submerged_mode(self, dt):
        # W = diag(q_i expm1(2 a_i dt) / (2 a_i)); the second mode lies below
        # the water level D - lambda_2, so R = 1/2 log2(lambda_1 / (D - lambda_2)).
        rates, noise = [-1.0, -2.5], [1.0, 0.01]

        def exact(t, d):
            low, high = (q * mpmath.expm1(2 * a * t) / (2 * a) for a, q in zip(rates, noise))
            assert high < d - high < low
            return mpmath.log(low / (d - high), 2) / 2

        self.assert_agrees(np.diag(rates), np.diag(noise), dt, 0.01, exact)

    @pytest.mark.parametrize("dt", [1.0, 10.0, 1e4, 1e7, 1e12])
    def test_marginal_with_every_mode_active(self, dt):
        # Both modes stay above theta = D / 2, so R = 1/2 log2(det W / (D/2)^2)
        # with det W = q^2 t^2 (1 + t^2 / 12).
        model = demo_model("marginal")
        q = model.noise_intensity[0, 0]

        def exact(t, d):
            return mpmath.log(mpmath.mpf(q) ** 2 * t**2 * (1 + t**2 / 12) / (d / 2) ** 2, 2) / 2

        self.assert_agrees(model.drift.matrix, model.noise_intensity, dt, 0.01, exact)

    @pytest.mark.parametrize("distortion", [1e-3, 1e-2, 0.1])
    @pytest.mark.parametrize(
        "name, dt",
        [("stable", dt) for dt in (0.1, 1.0, 10.0, 100.0, 1e4)]
        + [("unstable", dt) for dt in (0.1, 1.0, 3.0, 10.0, 30.0)]
        + [("marginal", dt) for dt in (0.1, 1.0, 10.0, 1e3, 1e5, 1e7)],
    )
    def test_increment_rate_where_it_is_resolved(self, name, dt, distortion):
        # Only where the README calls the rate right: past dt = 1e7 the
        # marginal rate falls under the eigenvalue error floor.
        model = demo_model(name)
        w = reference_gramian(model.drift.matrix, model.noise_intensity, dt)
        got = increment_rate(model, dt, distortion).rate_bits
        assert abs(got - float(reference_rate_bits(w, distortion))) <= 1e-9


UNSTABLE_SPIRAL = [[0.5, 1.0], [-1.0, 0.5]]


class TestSamplePaths:
    def test_zero_noise_is_deterministic(self):
        a = np.array([[-0.5, 0.0], [0.0, -1.0]])
        model = LinearSystemModel.constant(a, np.zeros((2, 2)))
        data = sample_paths(model, [1.0, 2.0], 0.5, steps=4, trials=3, seed=99)
        phi = _transition_and_gramian(model, 0.5)[0]
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
        phi = _transition_and_gramian(model, dt)[0]
        root = _covariance_sqrt(increment_distribution(model, np.zeros(n), dt).covariance)
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
    @pytest.mark.parametrize("singular", [False, True], ids=["regular", "singular"])
    def test_bit_identical_to_per_cell_loop(self, n, dt, singular):
        rng = np.random.default_rng(100 * n + int(singular))
        a = random_hurwitz(rng, n)
        b = rng.normal(size=(n, n))
        if singular:
            # The last coordinate decouples and gets no noise: W(dt) is
            # singular and its square root has a zero eigenvalue.
            a[-1, :-1] = a[:-1, -1] = 0.0
            b[-1] = 0.0
        model = LinearSystemModel.constant(a, b @ b.T)
        cov = increment_distribution(model, np.zeros(n), dt).covariance
        assert (np.linalg.matrix_rank(cov) < n) == singular
        assert (doublings(a, b @ b.T, [dt])[0] > 0) == (dt > 1.0)
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

    def test_state_of_the_wrong_dimension_rejected(self):
        model = demo_model("stable")
        with pytest.raises(ValueError, match="^state dimension does not match the model$"):
            increment_distribution(model, np.zeros(3), 0.1)
        with pytest.raises(ValueError, match="^initial state dimension does not match the model$"):
            sample_paths(model, np.zeros(3), 0.1, steps=2, trials=1, seed=0)

    @pytest.mark.parametrize("name", ["steps", "trials"])
    @pytest.mark.parametrize(
        "count",
        [2.7, 2.5, True, np.True_, 0, -1, "3"],
        ids=["fraction", "half", "bool", "numpy-bool", "zero", "negative", "string"],
    )
    def test_counts_must_be_positive_integers(self, name, count):
        model = LinearSystemModel.constant([[-0.5]], [[0.1]])
        counts = {"steps": 3, "trials": 2, name: count}
        with pytest.raises(ValueError, match=f"^{name} must be a positive integer$"):
            sample_paths(model, [0.0], 0.1, seed=0, **counts)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_seed_must_be_an_integer(self, seed):
        # A float or bool seed would otherwise be truncated to seed 1's dataset.
        model = LinearSystemModel.constant([[-0.5]], [[0.1]])
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer$"):
            sample_paths(model, [0.0], 0.1, steps=3, trials=2, seed=seed)

    def test_largest_numpy_seed_is_accepted(self):
        model = LinearSystemModel.constant([[-0.5]], [[0.1]])
        plain = sample_paths(model, [0.0], 0.1, steps=3, trials=2, seed=2**64 - 1)
        numpy = sample_paths(model, [0.0], 0.1, steps=3, trials=2, seed=np.uint64(2**64 - 1))
        assert plain.states.tobytes() == numpy.states.tobytes()

    def test_numpy_integer_counts_give_the_same_bytes(self):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        plain = sample_paths(model, [1.0, 1.0], 0.1, steps=3, trials=3, seed=7)
        numpy = sample_paths(model, [1.0, 1.0], 0.1, steps=np.int64(3), trials=np.int64(3), seed=7)
        assert plain.states.tobytes() == numpy.states.tobytes()

    @staticmethod
    def fresh_bytes(dt, seed=7):
        """The states of one sample_paths call on a model that has never sampled."""
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        return sample_paths(model, [1.0, -0.5], dt, steps=50, trials=3, seed=seed).states.tobytes()

    @staticmethod
    def counting_finite_law(monkeypatch):
        formed = []
        finite_law = linearsystem._finite_law

        def counted(model, dt):
            formed.append(dt)
            return finite_law(model, dt)

        monkeypatch.setattr(linearsystem, "_finite_law", counted)
        return formed

    def test_one_model_at_one_interval_forms_its_law_once(self, monkeypatch):
        expected = {seed: self.fresh_bytes(0.01, seed) for seed in (7, 8)}
        formed = self.counting_finite_law(monkeypatch)
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        for seed in (7, 8, 7):
            data = sample_paths(model, [1.0, -0.5], 0.01, steps=50, trials=3, seed=seed)
            assert data.states.tobytes() == expected[seed]
        assert formed == [0.01]

    def test_another_interval_replaces_the_kept_law(self, monkeypatch):
        expected = {dt: self.fresh_bytes(dt) for dt in (0.01, 40.0)}
        formed = self.counting_finite_law(monkeypatch)
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        for dt in (0.01, 40.0, 40.0, 0.01):
            data = sample_paths(model, [1.0, -0.5], dt, steps=50, trials=3, seed=7)
            assert data.states.tobytes() == expected[dt]
            assert model._last_law[0] == dt
        assert formed == [0.01, 40.0, 0.01]

    def test_overflowing_interval_keeps_nothing(self, monkeypatch):
        model = LinearSystemModel.constant(UNSTABLE_SPIRAL, np.eye(2))
        first = sample_paths(model, np.ones(2), 1.0, steps=3, trials=2, seed=7)
        kept = model._last_law
        formed = self.counting_finite_law(monkeypatch)
        for _ in range(2):
            with pytest.raises(ValueError, match=r"^the increment law overflows at dt = 1000$"):
                sample_paths(model, np.ones(2), 1000.0, steps=3, trials=2, seed=7)
            assert model._last_law is kept
        again = sample_paths(model, np.ones(2), 1.0, steps=3, trials=2, seed=7)
        assert again.states.tobytes() == first.states.tobytes()
        assert formed == [1000.0, 1000.0]

    def test_kept_law_is_read_only(self):
        model = demo_model("stable")
        assert model._last_law is None
        sample_paths(model, [1.0, 1.0], 0.01, steps=2, trials=1, seed=0)
        dt, phi, root = model._last_law
        assert dt == 0.01
        for kept in (phi, root):
            assert not kept.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                kept[0, 0] = 0.0
        # increment_distribution forms its own law and hands back a writable W.
        assert increment_distribution(model, [1.0, 1.0], 0.01).covariance.flags.writeable


class TestTrajectoryDataset:
    @pytest.mark.parametrize("dt", [0.0, -0.1, math.inf, math.nan])
    def test_bad_interval_rejected(self, dt):
        with pytest.raises(ValueError, match="^sampling interval must be positive and finite$"):
            TrajectoryDataset(dt, np.zeros((1, 2, 1)))

    @pytest.mark.parametrize(
        "states, message",
        [
            (np.zeros((2, 1)), "^states must be 3-dimensional, got shape \\(2, 1\\)$"),
            (np.zeros((0, 2, 1)), "^states array must be non-empty$"),
            (np.zeros((1, 2, 0)), "^states array must be non-empty$"),
            (np.full((1, 2, 1), np.nan), "^states contain non-finite entries$"),
        ],
        ids=["two-dimensional", "no-trials", "no-dimension", "non-finite"],
    )
    def test_bad_states_rejected(self, states, message):
        with pytest.raises(ValueError, match=message):
            TrajectoryDataset(0.1, states)

    def test_single_time_point_has_no_increments(self):
        data = TrajectoryDataset(0.1, np.zeros((2, 1, 1)))
        with pytest.raises(ValueError, match="^dataset holds a single time point; no increments$"):
            data.increments()


def test_unknown_demo_system_rejected():
    with pytest.raises(ValueError, match="^unknown demo system 'damped'; choose from "):
        demo_model("damped")


class TestGramianInvariants:
    def test_semigroup_identity(self):
        a = np.array([[-0.4, 0.9], [-0.9, -0.4]])
        noise = np.array([[0.3, 0.1], [0.1, 0.2]])
        model = LinearSystemModel.constant(a, noise)
        s, t = 0.7, 1.1
        w_s = increment_distribution(model, np.zeros(2), s).covariance
        w_t = increment_distribution(model, np.zeros(2), t).covariance
        w_st = increment_distribution(model, np.zeros(2), s + t).covariance
        phi_t = _transition_and_gramian(model, t)[0]
        assert max_abs(w_st - (phi_t @ w_s @ phi_t.T + w_t)) <= 1e-8

    def test_loewner_monotonicity(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            a = rng.normal(size=(3, 3))  # any drift, stable or not
            b = rng.normal(size=(3, 3))
            noise = b @ b.T
            model = LinearSystemModel.constant(a, noise)
            dt1, dt2 = 0.4, 1.0
            w1 = increment_distribution(model, np.zeros(3), dt1).covariance
            w2 = increment_distribution(model, np.zeros(3), dt2).covariance
            phi = _transition_and_gramian(model, dt2 - dt1)[0]
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
        w = increment_distribution(model, np.zeros(3), horizon).covariance
        w_inf = lyapunov_solve(a, noise)
        assert max_abs(w - w_inf) <= 1e-6 * max_abs(w_inf)

    def test_double_integrator_matches_the_closed_form(self):
        # Phi = [[1, t], [0, 1]] to 1e-12 t, and each entry of W = q [[t +
        # t^3/3, t^2/2], [t^2/2, t]] to 1e-12 relative, at every dt up to
        # 1e100: the augmented generator is nilpotent, so its exponential is
        # never scaled and no interval is doubled.
        model = demo_model("marginal")
        q, grid = model.noise_intensity[0, 0], np.logspace(0, 100, 201)
        phis, covariances = _transition_and_gramian(model, grid)
        for t, phi, cov in zip(grid, phis, covariances):
            exact_phi = np.array([[1.0, t], [0.0, 1.0]])
            exact_cov = q * np.array([[t + t**3 / 3, t**2 / 2], [t**2 / 2, t]])
            assert max_abs(phi - exact_phi) <= 1e-12 * t
            assert np.all(np.abs(cov - exact_cov) <= 1e-12 * np.abs(exact_cov))


def seeded_constant_model(name):
    """Seeded constant-drift models beside the presets: a Hurwitz 3-D drift,
    a Gaussian 8-D drift (unstable, so its W overflows at long intervals)
    and a marginal 4-D drift, Q J Q^T with a pure rotation block in J."""
    if name == "hurwitz3":
        rng = np.random.default_rng(71)
        a, b = random_hurwitz(rng, 3), rng.normal(size=(3, 3))
    elif name == "gaussian8":
        a, b = np.random.default_rng(73).normal(size=(2, 8, 8))
    else:
        rng = np.random.default_rng(79)
        q = np.linalg.qr(rng.normal(size=(4, 4)))[0]
        block = np.zeros((4, 4))
        block[:2, :2] = [[0.0, 1.3], [-1.3, 0.0]]
        block[2:, 2:] = [[-0.5, 0.9], [-0.9, -0.5]]
        a, b = q @ block @ q.T, rng.normal(size=(4, 4))
    return LinearSystemModel.constant(a, b @ b.T)


def model_named(name):
    if name in ("stable", "marginal", "unstable", "brownian"):
        return demo_model(name)
    return seeded_constant_model(name)


#: Intervals from far below one doubling to far past overflow.
GOLDEN_GRID = np.append(np.logspace(-6, 12.5, 80), [709.0, 1e4, 1e200])


class TestSettledDoubling:
    """Intervals whose (Phi, W) settled stop doubling; no finite (Phi, W) moves."""

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("stable", "0796fd46bdff548fb51d27b07e207de828e0dceb389f87908e3eebc72da0aa99"),
            ("marginal", "6ceec5a158423a2548d1c4a75c105b955a2bf0b2d103ee1a15dd7161258a35f9"),
            ("unstable", "5249c24e5467d936a0b07ee1823c06ad1ab2901c699cae698573b2d09bb87875"),
            ("brownian", "d0311624eaf50ee5bd65113575c2cf13b53f0c54a73f1c819d9a87bda10617e7"),
            ("hurwitz3", "821f3623958aa2cd9df9b2ad86a7ba68ca2c008b350397a5034b903eb5c4b553"),
            ("gaussian8", "c4f3b17a742d0811b5dd0098289ef6bb02c5b16694337bb18e83fd48efa94b99"),
            ("rotation4", "80e439fa5f734ef3cfac948e36f37e5ddcf587bc57925ec910b8fcb3135594f8"),
        ],
    )
    def test_finite_entries_keep_the_bits_of_every_doubling(self, name, digest):
        # Recorded with every interval doubled its full count: the masks of
        # finite Phi and W entries, then every finite entry of Phi and of W.
        # At 1e200 the W of marginal, unstable and gaussian8 intervals has
        # overflowed beside a Phi that is still finite in some entries.
        phi, w = _transition_and_gramian(model_named(name), GOLDEN_GRID)
        finite_phi, finite_w = np.isfinite(phi), np.isfinite(w)
        data = finite_phi.tobytes() + finite_w.tobytes()
        data += phi[finite_phi].tobytes() + w[finite_w].tobytes()
        assert hashlib.sha256(data).hexdigest() == digest

    def test_phi_keeps_doubling_where_w_overflowed(self):
        # W of the double integrator grows as dt^3 and overflows long before
        # Phi = [[1, dt], [0, 1]] does: Phi takes every doubling.
        phi, w = _transition_and_gramian(demo_model("marginal"), 1e200)
        assert not np.isfinite(w).any()
        np.testing.assert_array_equal(phi, [[1.0, 1e200], [0.0, 1.0]])

    @pytest.mark.parametrize(
        "rate, noise", [(1.0, 1e-100), (1.0, 1.0), (1e-2, 1e-100), (1e-4, 1.0)]
    )
    def test_overflow_on_a_check_level_is_kept(self, rate, noise):
        # One interval of the 1-D drift a: Phi = e^(a dt) and
        # W = q (e^(2 a dt) - 1) / (2 a).  Its exponential starts from
        # a dt 2^-s in (2.1, 4.25], so Phi overflows on the eighth doubling,
        # which is a check level: that doubling is the one returned, not the
        # finite (Phi, W) of dt / 2 before it.
        model = LinearSystemModel.constant([[rate]], [[noise]])
        top = math.log(np.finfo(float).max)
        for x in np.linspace(1.0, 2000.0, 400):
            phi, w = _transition_and_gramian(model, x / rate)
            exact = x, math.log(noise / (2 * rate)) + 2 * x + math.log1p(-math.exp(-2 * x))
            for got, log_exact in zip((phi[0, 0], w[0, 0]), exact):
                if log_exact > top + 1e-6:
                    assert math.isinf(got), (x, log_exact, got)
                elif log_exact < top - 1e-6:
                    assert abs(math.log(got) - log_exact) <= 1e-9, (x, log_exact, got)
        assert math.isinf(increment_rate(model, 2000.0 / rate, 0.01).rate_bits)

    @pytest.mark.parametrize(
        "name, grid, full, levels",
        [
            ("unstable", np.logspace(-6, 12, 19), 39, 16),
            ("hurwitz3", np.logspace(-6, 12, 19), 39, 16),
            ("rotation4", np.logspace(-6, 12, 19), 39, 39),
            ("stable", [1e300, 1.7e308], 1023, 16),
        ],
        ids=["unstable", "hurwitz3", "rotation4", "stable-long"],
    )
    def test_settled_intervals_stop_doubling(self, monkeypatch, name, grid, full, levels):
        # The decades up to 1e12 take 39 doublings.  The unstable (Phi, W) has
        # overflowed in every entry and the Hurwitz one has stopped changing
        # well before that, so both stop at the check at level 16; the
        # rotation keeps Phi of order one and W growing, so it takes every
        # level.  The stable pair reaches its equilibrium long before its 996
        # and 1023 doublings.
        model = model_named(name)
        assert doublings(model.drift.matrix, model.noise_intensity, grid).max() == full
        calls, compose = [], linearsystem._compose
        monkeypatch.setattr(
            linearsystem, "_compose", lambda *pairs: calls.append(1) or compose(*pairs)
        )
        _transition_and_gramian(model, np.asarray(grid))
        assert len(calls) == levels

    @pytest.mark.parametrize(
        "name, digest",
        [
            ("hurwitz3", "d2a13f9653643d9243dd5788d0b5f28f50c51d9c7cafe8c982694c5764a84b92"),
            ("gaussian8", "130c0f6c2caedd6c0ddd5d55ed3fb3ab76e23b4614ff923f1e460733514c06fe"),
        ],
    )
    def test_rate_curve_bits_are_golden(self, name, digest):
        # Pins the eigenvalues of W as eigvalsh computes them for n >= 3.
        curve = rate_curve(seeded_constant_model(name), 0.01, GOLDEN_GRID[:80])
        assert hashlib.sha256(curve.rate_bits.tobytes()).hexdigest() == digest


def seeded_drifts(count):
    """Seeded (A, N) pairs of sizes 1 to 6 over six decades of scale; every
    third drift is strictly upper triangular, so its generator is nilpotent
    in the drift blocks."""
    rng = np.random.default_rng(67)
    pairs = []
    for i in range(count):
        n = i % 6 + 1
        a = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        b = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-3.0, 3.0)
        pairs.append((np.triu(a, 1) if i % 3 == 2 else a, b @ b.T))
    return pairs


class TestCountsFromTheGenerator:
    """Constant drift: the counts of M dt come from the powers of the one generator M."""

    def test_counts_equal_the_stacked_counts(self):
        # Below dt ||M|| = 2^102 the count reads dt d_k(M); from there on the
        # stacked count of M dt is kept.  Both sides of that bound are on the
        # grid for every model.  The unstable preset is also taken with A and
        # N scaled by 1e45 and 1e-45, over the grid divided by the same
        # factor: the powers of M itself would overflow or underflow there.
        grid = np.concatenate((GOLDEN_GRID, np.geomspace(1e-8, 1e40, 2000)))
        names = ("stable", "marginal", "unstable", "brownian", "hurwitz3", "gaussian8", "rotation4")
        models = [model_named(name) for name in names]
        pairs = [(m.drift.matrix, m.noise_intensity) for m in models] + seeded_drifts(120)
        cases = [(a, noise, grid) for a, noise in pairs]
        a, noise = pairs[2]
        cases += [(a * scale, noise * scale, grid / scale) for scale in (1e45, 1e-45)]
        for a, noise, grid in cases:
            generator = _generators(a, noise)
            routed = grid * np.linalg.norm(generator, 1) >= 2.0**102
            assert routed.any() and not routed.all()
            counts = linalg._scaled_exp_multiples(linalg._Multiples(generator), grid)[1]
            np.testing.assert_array_equal(counts, doublings(a, noise, grid))

    @pytest.mark.parametrize(
        "name",
        ["stable", "marginal", "unstable", "brownian", "hurwitz3", "gaussian8", "rotation4"],
    )
    def test_routed_exponentials_near_the_float_limit_equal_the_stacked_ones(self, name):
        # Wherever M t is finite, a routed interval keeps the count and the
        # exponential of the stack M t, bit for bit.  A shift of t by 2^-e
        # would not: the nilpotent brownian generator's count stays 0.
        model = model_named(name)
        matrix = model._multiples.matrix
        grid = np.geomspace(1e300, 1.7e308, 200)
        with np.errstate(over="ignore"):
            stacks = matrix * grid[:, np.newaxis, np.newaxis]
        finite = np.isfinite(stacks).all(axis=(1, 2))
        assert finite.sum() >= 20
        exps, counts = linalg._scaled_exp_multiples(linalg._Multiples(matrix), grid[finite])
        stacked_exps, stacked_counts = scaled_exp(stacks[finite])
        np.testing.assert_array_equal(counts, stacked_counts)
        assert np.array_equal(exps, stacked_exps, equal_nan=True)

    def test_constant_drift_forms_no_stacked_power_norm(self, monkeypatch):
        sizes, power_norms = [], linalg._power_norms
        monkeypatch.setattr(
            linalg,
            "_power_norms",
            lambda a, *powers: sizes.append(len(a)) or power_norms(a, *powers),
        )
        # The one power norm of size 1 is that of the generator M; a stacked
        # one holds a matrix per interval.
        _transition_and_gramian(demo_model("unstable"), np.logspace(-6, 12, 19))
        assert sizes == [1]
        # On GOLDEN_GRID only 1e200 is routed to the stacked count.
        sizes.clear()
        _transition_and_gramian(demo_model("marginal"), GOLDEN_GRID)
        assert sizes == [1, 1]


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

    def test_time_column_memo_is_keyed_by_steps_and_dt(self, tmp_path):
        rng = np.random.default_rng(17)
        grids = [(300, 0.01), (300, np.nextafter(0.01, 1.0)), (10, 0.01), (300, 0.01)]
        for index, (steps, dt) in enumerate(grids):
            for trials in (1, 3):
                shape = (trials, steps + 1, 2)
                states = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
                path = tmp_path / f"data_{index}_{trials}.csv"
                write_trajectories(TrajectoryDataset(dt, states), path)
                lines = ["trial,k,t,x1,x2"]
                for trial in range(trials):
                    for k in range(steps + 1):
                        values = [f"{k * dt:.17g}", *(f"{v:.17g}" for v in states[trial, k])]
                        lines.append(",".join([str(trial), str(k), *values]))
                assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
        assert csvio._time_cells.cache_info().currsize == 1

    def test_interleaved_dimensions_on_one_grid(self, tmp_path):
        rng = np.random.default_rng(29)
        steps, dt = 12, 0.3
        for index, (trials, n) in enumerate([(2, 1), (3, 2), (1, 3), (2, 1), (1, 2), (3, 3)]):
            states = rng.normal(size=(trials, steps + 1, n)) * 10.0 ** rng.integers(-9, 9)
            path = tmp_path / f"data_{index}.csv"
            write_trajectories(TrajectoryDataset(dt, states), path)
            lines = ["trial,k,t," + ",".join(f"x{i + 1}" for i in range(n))]
            for trial in range(trials):
                for k in range(steps + 1):
                    values = [f"{k * dt:.17g}", *(f"{v:.17g}" for v in states[trial, k])]
                    lines.append(",".join([str(trial), str(k), *values]))
            assert path.read_bytes() == ("\n".join(lines) + "\n").encode()

    def test_ensemble_formats_time_column_once(self, tmp_path, monkeypatch):
        calls = []
        original = csvio.format_float
        monkeypatch.setattr(csvio, "format_float", lambda value: calls.append(value) or original(value))
        csvio._time_cells.cache_clear()
        states = np.random.default_rng(3).normal(size=(1, 301, 2))
        for seed in range(24):
            write_trajectories(TrajectoryDataset(0.01, states + seed), tmp_path / f"replay_{seed}.csv")
        assert len(calls) == 301

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
