"""Kernel tests: matrix exponential, symmetric eigen, Lyapunov, logdet."""

import math
import warnings

import numpy as np
import pytest

from lincoder import (
    NoEquilibriumError,
    NotPositiveDefiniteError,
    logdet_psd,
    lyapunov_solve,
    mat_exp,
    sym_eig,
)


def max_abs(a):
    return float(np.max(np.abs(a)))


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
        # A^2 overflows before scaling; the powers are formed again from
        # the scaled A instead of giving inf * 2^-2s = NaN.
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
        # The exponential scales its working stack in place before squaring.
        m = np.random.default_rng(3).normal(size=(2, 4, 4))
        m *= 100.0 / np.linalg.norm(m, 1, axis=(1, 2))[:, None, None]
        before = m.copy()
        mat_exp(m)
        mat_exp(m[0])
        assert np.array_equal(m, before)

    def test_rejects_nonsquare_and_nonfinite(self):
        with pytest.raises(ValueError):
            mat_exp(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_exp(np.zeros(3))
        with pytest.raises(ValueError):
            mat_exp(np.array([[np.nan, 0.0], [0.0, 0.0]]))
        with pytest.raises(ValueError):
            mat_exp(np.full((2, 2), np.inf))


class TestSymEig:
    def test_identity(self):
        eig = sym_eig(np.eye(2))
        assert np.allclose(eig.values, [1.0, 1.0])

    def test_diagonal_axis_aligned(self):
        eig = sym_eig(np.diag([4.0, 1.0]))
        assert np.allclose(eig.values, [4.0, 1.0])
        # columns are +-unit vectors along the axes
        assert np.allclose(np.abs(eig.vectors), np.eye(2), atol=1e-12)

    def test_two_by_two_hand_values(self):
        # char poly of [[2,1],[1,2]]: (2-l)^2 - 1 -> eigenvalues 3, 1
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        eig = sym_eig(s)
        assert np.allclose(eig.values, [3.0, 1.0], atol=1e-12)
        recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
        assert max_abs(recon - s) <= 1e-8 * max(1.0, max_abs(s))

    def test_orthogonality_and_reconstruction_random(self):
        rng = np.random.default_rng(11)
        for n in (2, 3, 5, 8):
            base = rng.normal(size=(n, n))
            s = base + base.T
            eig = sym_eig(s)
            assert max_abs(eig.vectors.T @ eig.vectors - np.eye(n)) <= 1e-10
            recon = eig.vectors @ np.diag(eig.values) @ eig.vectors.T
            assert max_abs(recon - s) <= 1e-8 * max(1.0, max_abs(s))
            assert np.all(np.diff(eig.values) <= 1e-12)

    def test_eigenvalues_invariant_under_conjugation(self):
        rng = np.random.default_rng(13)
        base = rng.normal(size=(4, 4))
        s = base + base.T
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        rotated = q @ s @ q.T
        assert np.allclose(sym_eig(s).values, sym_eig(rotated).values, atol=1e-9)

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
            expected = float(np.sum(np.log(sym_eig(s).values)))
            assert logdet_psd(s) == pytest.approx(expected, abs=1e-8)

