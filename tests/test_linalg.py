"""Kernel tests: matrix exponential, symmetric eigen, Lyapunov, logdet."""

import hashlib
import math
import warnings

import numpy as np
import pytest

from lincoder import (
    NoEquilibriumError,
    NotPositiveDefiniteError,
    is_hurwitz,
    logdet_psd,
    lyapunov_solve,
)
from lincoder import linalg
from lincoder.linalg import _squarings, _symmetrize, mat_exp, sym_eig


def max_abs(a):
    return float(np.max(np.abs(a)))


#: log2 of 26! 27! / (13!)^2, the reciprocal leading coefficient of the
#: degree-13 Pade error.
LOG2_ERROR_RECIPROCAL = math.log2(
    math.factorial(26) * math.factorial(27) / math.factorial(13) ** 2
)


def stack_powers(stack):
    """A, A^4, A^6 and A^8 of a stack, formed as the exponential forms them."""
    with np.errstate(over="ignore", invalid="ignore"):
        a2 = stack @ stack
        a4 = a2 @ a2
        return stack, a4, a4 @ a2, a4 @ a4


def squarings_of(stack):
    with np.errstate(over="ignore", invalid="ignore"):
        return _squarings(*stack_powers(stack))


def full_squarings(stack):
    """Al-Mohy & Higham 2009 squaring counts at degree 13, with the ell term always formed.

    Returns the counts and the terms from the power norms alone.  The norm
    ||(|A| / ||A||)^27|| comes from np.linalg.matrix_power, one matrix at a
    time.
    """
    counts, eta_terms = [], []
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for a, a4, a6, a8 in zip(*stack_powers(stack)):
            norm = np.linalg.norm(a, 1)
            d6, d8, d10 = (
                np.linalg.norm(power, 1) ** (1.0 / k)
                for power, k in ((a6, 6.0), (a8, 8.0), (a4 @ a6, 10.0))
            )
            eta5 = np.fmin(np.minimum(np.maximum(d6, d8), np.maximum(d8, d10)), norm)
            eta = max(np.ceil(np.log2(eta5 / 4.25)), 0.0)
            ell = -math.inf
            if norm > 0.0:
                unit27 = np.linalg.matrix_power(np.abs(a) / norm, 27)
                log_alpha = 26 * np.log2(norm) + np.log2(np.linalg.norm(unit27, 1))
                ell = np.ceil((log_alpha - LOG2_ERROR_RECIPROCAL + 53.0) / 26)
            counts.append(int(max(eta, ell)))
            eta_terms.append(int(eta))
    return counts, eta_terms


class TestMatExp:
    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(mat_exp(np.zeros((3, 3)) * 2.5), np.eye(3))

    def test_nilpotent_closed_form(self):
        # exp([[0,1],[0,0]]) = [[1,1],[0,1]] exactly (series truncates)
        result = mat_exp([[0.0, 1.0], [0.0, 0.0]])
        assert max_abs(result - np.array([[1.0, 1.0], [0.0, 1.0]])) <= 1e-14

    def test_diagonal_matches_scalar_exponentials(self):
        result = mat_exp(np.diag([-1.0, -2.0]) * 0.5)
        expected = np.diag([math.exp(-0.5), math.exp(-1.0)])
        assert max_abs(result - expected) <= 1e-12 * max(1.0, max_abs(expected))

    def test_semigroup_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            m = rng.normal(size=(4, 4))
            m *= 2.0 / (np.linalg.norm(m, 1) + 1e-12)  # keep norm(M(s+t)) <= 5
            s, t = rng.uniform(0.2, 1.0, size=2)
            lhs = mat_exp(m * s) @ mat_exp(m * t)
            rhs = mat_exp(m * (s + t))
            assert max_abs(lhs - rhs) <= 1e-9

    def test_stack_matches_single_matrices_bit_for_bit(self):
        # Norms from 1e-4 to 1e3 need different squaring counts; each
        # matrix must come out as if alone.
        rng = np.random.default_rng(17)
        for n in (1, 2, 5, 16):
            stack = rng.normal(size=(60, n, n))
            norms = np.linalg.norm(stack, 1, axis=(1, 2))
            stack *= (np.logspace(-4, 3, 60) / norms)[:, None, None]
            together = mat_exp(stack * 0.7)
            assert together.shape == stack.shape
            for matrix, result in zip(stack, together):
                assert np.array_equal(result, mat_exp(matrix * 0.7))
        grid = rng.normal(size=(2, 3, 4, 4))
        assert np.array_equal(mat_exp(grid)[1, 2], mat_exp(grid[1, 2]))

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16])
    def test_matches_scipy_expm_oracle(self, n):
        import scipy.linalg

        rng = np.random.default_rng(100 + n)
        for reach in (1e-3, 0.015, 0.1, 0.25, 0.95, 1.0, 2.1, 10.0, 100.0):  # norm1(M) * t
            for _ in range(4):
                m = rng.normal(size=(n, n))
                m /= np.linalg.norm(m, 1)
                expected = scipy.linalg.expm(m * reach)
                gap = max_abs(mat_exp(m * reach) - expected)
                assert gap <= 1e-11 * np.linalg.norm(expected)

    def test_nilpotent_block_is_not_overscaled(self):
        # ||M|| = 1e12 but M^2 = 0: the scaling follows the norms of the
        # powers, so there are no squarings to amplify rounding.
        result = mat_exp([[0.0, 1e12], [0.0, 0.0]])
        assert np.array_equal(result, [[1.0, 1e12], [0.0, 1.0]])

    def test_nonnormal_matrix_is_not_underscaled(self):
        # M^2 = (a^2 - fl(a^2)) I, about 1e-8 I, so exp(M) = I + M to 1e-16
        # relative; but |M|^p grows like (2a)^p.  The power norms alone ask
        # for no squarings, and the unscaled approximant loses 8.6e-6
        # here; the rounding correction ell(M, 13) adds the squarings.
        a = 12345.678
        m = np.array([[a, a * a], [-1.0, -a]])
        expected = np.eye(2) + m
        assert max_abs(mat_exp(m) - expected) <= 1e-6 * np.linalg.norm(expected)

    @pytest.mark.parametrize("entry", [-1e200, -1e160])
    def test_huge_negative_scalar_decays_to_zero(self, entry):
        # A^2 overflows before scaling; the powers of the scaled A do not,
        # where scaling the overflowed power would give inf * 2^-2s = NaN.
        assert np.array_equal(mat_exp([[entry]]), [[0.0]])

    def test_overflowing_matrix_leaves_its_stack_neighbours_unchanged(self):
        together = mat_exp([[[-1e200]], [[-1.0]]])
        assert np.array_equal(together[0], [[0.0]])
        assert np.array_equal(together[1], mat_exp([[-1.0]]))

    def test_huge_positive_scalar_overflows_without_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.array_equal(mat_exp([[1e200]]), [[np.inf]])

    def test_caller_array_is_left_unchanged(self):
        # Both matrices need squarings, so the exponential forms a scaled
        # copy of the stack and its powers; the caller's array stays as given.
        m = np.random.default_rng(3).normal(size=(2, 4, 4))
        m *= 100.0 / np.linalg.norm(m, 1, axis=(1, 2))[:, None, None]
        before = m.copy()
        mat_exp(m)
        mat_exp(m[0])
        assert np.array_equal(m, before)

    def test_golden_bits(self):
        # Recorded bits of seeded stacks, sign bits included: dense matrices
        # (norms 1e-3 to 1e2), negative definite ones (1e-3 to 1e100) and
        # strictly upper triangular ones minus I/2 (1e-3 to 1e40).  They
        # take no squarings, a few and hundreds, and A^6 of the four largest
        # negative definite ones (1e61 to 1e100) overflows before scaling.
        rng = np.random.default_rng(20240607)
        results, counts, overflowed = [], [], []
        for n in (1, 2, 3, 4, 8):
            dense = rng.normal(size=(6, n, n))
            dense *= (np.logspace(-3, 2, 6) / np.linalg.norm(dense, 1, axis=(1, 2)))[:, None, None]
            b = rng.normal(size=(9, n, n))
            spd = b @ b.swapaxes(1, 2) + np.eye(n)
            spd *= (np.logspace(-3, 100, 9) / np.linalg.norm(spd, 1, axis=(1, 2)))[:, None, None]
            upper = np.triu(rng.normal(size=(9, n, n)), 1) * np.logspace(-3, 40, 9)[:, None, None]
            stack = np.concatenate((dense, -spd, upper - 0.5 * np.eye(n)))
            results.append(mat_exp(stack))
            counts.append(squarings_of(stack))
            overflowed.append(~np.isfinite(stack_powers(stack)[2]).all(axis=(1, 2)))
        counts, overflowed = np.concatenate(counts), np.concatenate(overflowed)
        assert (counts == 0).any() and counts.max() > 300 and overflowed.sum() == 20
        assert hashlib.sha256(b"".join(r.tobytes() for r in results)).hexdigest() == (
            "fa02318d676d2a5bc74d2c9b3c850ae8b775ab502db0088b355f557df7a9d27d"
        )

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_exp(np.zeros(3))
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            mat_exp(np.full((2, 2), np.inf))


#: exp(M) = I + M to 1e-16 relative, but |M|^p grows like (2a)^p: the
#: power norms ask for no squarings and ell asks for several.
NONNORMAL = np.array([[12345.678, 12345.678**2], [-1.0, -12345.678]])


class TestSquarings:
    """The count skips ell only where it cannot bind, so it is always the full count."""

    def check(self, stack):
        """The counts of a stack and of each matrix alone equal the full counts."""
        counts, eta_terms = full_squarings(stack)
        assert squarings_of(stack).tolist() == counts
        for matrix, count in zip(stack, counts):
            assert squarings_of(matrix[np.newaxis]).tolist() == [count]
        return counts, eta_terms

    def test_random_matrices(self):
        rng = np.random.default_rng(41)
        for n in (1, 2, 3, 5, 8):
            stack = rng.normal(size=(120, n, n))
            stack *= (np.logspace(-6, 4, 120) / np.linalg.norm(stack, 1, axis=(1, 2)))[
                :, None, None
            ]
            self.check(stack)

    def test_strongly_nonnormal_matrices(self):
        rng = np.random.default_rng(43)
        stack = []
        for n in (2, 3, 4):
            for scale in np.logspace(-12, 2, 15):
                upper = np.triu(np.full((n, n), 1e8), 1)
                stack.append((np.diag(rng.uniform(-1.0, 1.0, n)) + upper) * scale)
            counts, eta_terms = self.check(np.array(stack))
            # ||A|| far above the power norms: the norm bound cannot rule ell out.
            bounds = [
                math.ceil(math.log2(np.linalg.norm(a, 1)) + (53.0 - LOG2_ERROR_RECIPROCAL) / 26)
                for a in stack
            ]
            assert any(b > e for b, e in zip(bounds, eta_terms))
            stack.clear()
        counts, eta_terms = self.check(NONNORMAL[np.newaxis])
        assert counts[0] > eta_terms[0]

    def test_augmented_generator_of_a_nearly_driftless_system(self):
        a, noise = 1e-8 * np.eye(2), np.eye(2)
        generator = np.block([[-a, noise], [np.zeros((2, 2)), a.T]])
        self.check(generator * np.logspace(-3, 8, 45)[:, None, None])

    def test_zero_matrix(self):
        assert squarings_of(np.zeros((3, 4, 4))).tolist() == [0, 0, 0]
        self.check(np.zeros((2, 1, 1)))

    def test_norms_near_the_float_limit(self):
        rng = np.random.default_rng(47)
        stack = rng.normal(size=(6, 3, 3))
        stack *= (np.logspace(298, 300, 6) / np.linalg.norm(stack, 1, axis=(1, 2)))[:, None, None]
        self.check(stack)
        self.check(np.array([[[1e300]], [[-1e300]], [[1.7e308]]]))

    def test_norm_that_overflows_over_finite_entries(self):
        # ||A|| overflows and so does every power: the count is that of
        # A 2^-2 (2^2 > n), whose norm is finite, plus 2, never ceil(log2(inf)).
        for n in (2, 3):
            stack = np.array([np.full((n, n), 1e308), np.diag([1.7e308] * (n - 1) + [-1.0])])
            stack[1, -1, 0] = 1.7e308
            counts = squarings_of(stack)
            with np.errstate(over="ignore"):
                assert np.isinf(np.linalg.norm(stack, 1, axis=(1, 2))).all()
            assert counts.tolist() == [c + 2 for c in full_squarings(stack / 4)[0]]
            assert counts.min() > 1000

    def test_matrix_where_the_norm_bound_equals_the_power_norm_term(self):
        # For [[c]] with log2 c = k + 2, ceil(log2 c + (53 - log2(1/|c_27|)) / 26)
        # and ceil(log2(c / theta_13)) are both k.
        for k in range(-3, 8):
            c = 2.0 ** (k + 2)
            bound = math.ceil(math.log2(c) + (53.0 - LOG2_ERROR_RECIPROCAL) / 26)
            counts, eta_terms = self.check(np.array([[[c]], [[-c]]]))
            assert eta_terms == [max(bound, 0)] * 2
        # Every placement of log2 c within a few units, at 1/64 steps.
        self.check(2.0 ** np.arange(-4.0, 12.0, 1.0 / 64)[:, None, None])

    def test_mixed_stack_with_one_matrix_that_needs_ell(self):
        # Diagonal matrices have ||(|A|)^27|| = ||A||^27, so ell never binds for them.
        rng = np.random.default_rng(53)
        stack = rng.normal(size=(40, 2))[:, :, None] * np.eye(2)
        stack *= (np.logspace(-3, 3, 40) / np.linalg.norm(stack, 1, axis=(1, 2)))[:, None, None]
        for place in (0, 17, 40):
            mixed = np.insert(stack, place, NONNORMAL, axis=0)
            counts, eta_terms = self.check(mixed)
            binding = [i for i, (c, e) in enumerate(zip(counts, eta_terms)) if c > e]
            assert binding == [place]


class TestSymEig:
    def test_identity(self):
        values, _ = sym_eig(np.eye(2))
        assert np.allclose(values, [1.0, 1.0])

    def test_diagonal_axis_aligned(self):
        values, vectors = sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(values, [4.0, 1.0])
        # columns are +-unit vectors along the axes
        assert np.allclose(np.abs(vectors), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_values(self):
        # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 -> eigenvalues 3, 1
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        values, vectors = sym_eig(s)
        assert np.allclose(values, [3.0, 1.0], atol=1e-12)
        recon = vectors @ np.diag(values) @ vectors.T
        assert max_abs(recon - s) <= 1e-8 * max(1.0, max_abs(s))

    def test_orthogonality_and_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            base = rng.normal(size=(n, n))
            s = base + base.T
            values, vectors = sym_eig(s)
            assert max_abs(vectors.T @ vectors - np.eye(n)) <= 1e-10
            recon = vectors @ np.diag(values) @ vectors.T
            assert max_abs(recon - s) <= 1e-8 * max(1.0, max_abs(s))
            assert np.all(np.diff(values) <= 1e-12)

    def test_eigenvalues_invariant_under_conjugation(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(4, 4))
        s = base + base.T
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = q @ s @ q.T
        assert np.allclose(sym_eig(s)[0], sym_eig(rotated)[0], atol=1e-9)

    def test_rejects_nonsquare_and_asymmetric(self):
        with pytest.raises(ValueError):
            sym_eig(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            sym_eig(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestLyapunov:
    def test_scalar_balance(self):
        # A = -I, N = I: 2 w = 1 per mode
        w = lyapunov_solve(-np.eye(2), np.eye(2))
        assert np.allclose(w, 0.5 * np.eye(2), atol=1e-12)

    def test_unconverged_iteration_is_refused(self, monkeypatch):
        monkeypatch.setattr(linalg, "LYAPUNOV_MAX_STEPS", 0)
        with pytest.raises(NoEquilibriumError, match="^sign iteration reached no finite"):
            lyapunov_solve(-np.eye(2), np.eye(2))

    def test_pure_brownian_has_no_equilibrium(self):
        with pytest.raises(NoEquilibriumError):
            lyapunov_solve(np.zeros((2, 2)), np.eye(2))

    def test_rotation_has_no_equilibrium(self):
        # eigenvalues +-i: the Kronecker sum is singular
        with pytest.raises(NoEquilibriumError):
            lyapunov_solve(np.array([[0.0, 1.0], [-1.0, 0.0]]), np.eye(2))

    def test_saddle_has_no_equilibrium(self):
        # eigenvalues -1 and 1 sum to zero although neither is zero
        with pytest.raises(NoEquilibriumError):
            lyapunov_solve(np.diag([-1.0, 1.0]), np.eye(2))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="^drift and noise matrices must have the same size$"):
            lyapunov_solve(-np.eye(2), np.eye(3))

    def test_solvable_anti_stable_drift_has_no_equilibrium(self):
        # A = I has the unique solution W = -I/2, which is not a covariance.
        with pytest.raises(NoEquilibriumError):
            lyapunov_solve(np.eye(2), np.eye(2))

    @staticmethod
    def _large_drift():
        rng = np.random.default_rng(65)
        raw = rng.normal(size=(65, 65))
        a = raw - (np.max(np.linalg.eigvals(raw).real) + 0.5) * np.eye(65)
        b = rng.normal(size=(65, 65))
        return a, b @ b.T

    @pytest.mark.parametrize("case", ["jordan", "chain", "stiff", "large/1e-6", "large/1e6"])
    def test_matches_bartels_stewart_oracle(self, case):
        import scipy.linalg

        if case == "jordan":
            a, noise = -np.eye(4) + np.eye(4, k=1), np.eye(4)
        elif case == "chain":
            a, noise = -np.eye(4) + 100.0 * np.eye(4, k=1), np.eye(4)
        elif case == "stiff":
            a, noise = np.diag([-1e-4, -1.0, -1e4]), np.eye(3)
        else:
            a, noise = self._large_drift()
            a = a * float(case.split("/")[1])
        w = lyapunov_solve(a, noise)
        oracle = scipy.linalg.solve_continuous_lyapunov(a, -noise)
        assert max_abs(w - oracle) <= 1e-12 * max_abs(oracle)

    def test_against_long_horizon_ode_integration(self):
        # independent oracle: integrate dW/dt = A W + W A^T + N to t = 50
        a = np.array([[-1.0, 1.0], [0.0, -2.0]])
        n = np.eye(2)
        w = np.zeros((2, 2))
        h = 1e-3
        f = lambda w: a @ w + w @ a.T + n
        for _ in range(50000):
            k1 = f(w)
            k2 = f(w + 0.5 * h * k1)
            k3 = f(w + 0.5 * h * k2)
            k4 = f(w + h * k3)
            w = w + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        solved = lyapunov_solve(a, n)
        assert max_abs(solved - w) <= 1e-6 * max(1.0, max_abs(w))
        residual = a @ solved + solved @ a.T + n
        assert max_abs(residual) <= 1e-8 * max(1.0, max_abs(n))

    def test_symmetry_and_psd_for_random_hurwitz(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            raw = rng.normal(size=(4, 4))
            a = raw - (np.max(np.linalg.eigvals(raw).real) + 0.5) * np.eye(4)
            b = rng.normal(size=(4, 4))
            noise = b @ b.T
            w = lyapunov_solve(a, noise)
            assert max_abs(w - w.T) <= 1e-10
            assert np.linalg.eigvalsh(w)[0] >= -1e-9
            residual = a @ w + w @ a.T + noise
            assert max_abs(residual) <= 1e-8 * max(1.0, max_abs(noise))

    def test_large_problem_residual(self):
        a, noise = self._large_drift()
        w = lyapunov_solve(a, noise)
        residual = a @ w + w @ a.T + noise
        assert max_abs(residual) <= 1e-8 * max(1.0, max_abs(noise))


class TestIsHurwitz:
    @pytest.mark.parametrize(
        "matrix, message",
        [
            (np.zeros((2, 3)), "must be square, got shape"),
            (np.array([-1.0, -2.0]), "must be 2-dimensional"),
            (np.array([[-1.0, np.nan], [0.0, -1.0]]), "non-finite"),
            (np.zeros((0, 0)), "must be non-empty"),
        ],
        ids=["non-square", "one-dimensional", "non-finite", "empty"],
    )
    def test_malformed_input_is_a_value_error(self, matrix, message):
        with pytest.raises(ValueError, match=message):
            is_hurwitz(matrix)


class TestSymmetrize:
    def test_bits_of_the_half_sum_below_overflow(self):
        scales = np.logspace(-300, 300, 5)[:, np.newaxis, np.newaxis]
        stack = np.random.default_rng(4).normal(size=(5, 3, 3)) * scales
        assert np.array_equal(_symmetrize(stack), 0.5 * (stack + stack.swapaxes(1, 2)))

    def test_finite_where_the_sum_overflows(self):
        half = 2.0**1023  # the sum 2.5 * half is above the float range
        out = _symmetrize(np.array([[1.0, half], [1.5 * half, 1.0]]))
        assert np.array_equal(out, [[1.0, 1.25 * half], [1.25 * half, 1.0]])


class TestLogdet:
    def test_identity_is_zero(self):
        assert logdet_psd(np.eye(5)) == pytest.approx(0.0, abs=1e-14)

    def test_diagonal_exponentials(self):
        value = logdet_psd(np.diag([math.e, math.e**2]))
        assert value == pytest.approx(3.0, rel=1e-12)

    def test_two_by_two_hand_determinant(self):
        # det [[2,1],[1,2]] = 3
        assert logdet_psd([[2.0, 1.0], [1.0, 2.0]]) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            logdet_psd(np.diag([1.0, -1.0]))

    def test_agrees_with_eigenvalue_sum(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            base = rng.normal(size=(5, 5))
            s = base @ base.T + 0.5 * np.eye(5)
            expected = float(np.sum(np.log(sym_eig(s)[0])))
            assert logdet_psd(s) == pytest.approx(expected, abs=1e-8)

