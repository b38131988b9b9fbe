"""Reverse water-filling tests, with a brute-force water-level oracle."""

import math

import numpy as np
import pytest

from lincoder import FastPathDomainError, rdf, rdf_small_distortion
from lincoder.linalg import SYMMETRY_TOL
from lincoder.ratedistortion import _water_fill


def grid_search_rate(variances, distortion, points=1_000_000):
    """Independent oracle: scan the water level on a dense grid."""
    variances = np.asarray(variances, dtype=float)
    if distortion >= variances.sum():
        return 0.0
    thetas = np.linspace(0.0, variances.max(), points)
    sums = np.minimum(thetas[:, None], variances[None, :]).sum(axis=1)
    theta = thetas[np.argmin(np.abs(sums - distortion))]
    positive = variances[variances > 0.0]  # zero modes carry no rate
    ratios = positive / np.minimum(theta, positive)
    return 0.5 * float(np.sum(np.log(np.maximum(ratios, 1.0))))


class TestRdfExamples:
    def test_hand_water_filling(self):
        # sigma^2 = (1, 0.1), D = 0.4: theta solves theta + 0.1 = 0.4
        result = rdf(np.diag([1.0, 0.1]), 0.4)
        assert result.water_level == pytest.approx(0.3, abs=1e-12)
        assert np.allclose(result.allocations, [0.3, 0.1], atol=1e-12)
        assert result.rate_nats == pytest.approx(0.5 * math.log(1.0 / 0.3), abs=1e-12)
        oracle = grid_search_rate([1.0, 0.1], 0.4, points=200_001)
        assert result.rate_nats == pytest.approx(oracle, abs=1e-5)

    @pytest.mark.parametrize(
        "variances, distortion",
        [
            ([1.0, 1.0, 1.0], 0.9),  # three tied modes above water
            ([2.0, 1.0, 1.0], 3.0),  # water level lands on a tied pair
            ([3.0, 1.0, 1.0, 0.0], 2.5),  # ties plus an exact zero mode
            ([1.5, 0.0, 0.0], 0.6),  # two exact zero modes
            ([2.0, 2.0, 0.0, 0.0], 1.0),
        ],
    )
    def test_ties_and_zero_modes_match_grid_oracle(self, variances, distortion):
        result = rdf(np.diag(variances), distortion)
        assert result.rate_nats == pytest.approx(grid_search_rate(variances, distortion), abs=1e-5)
        assert float(result.allocations.sum()) == pytest.approx(distortion, abs=1e-12)

    def test_mode_above_the_eigh_error_floor_carries_rate(self):
        # 1e-13 of the top mode is above eigh's error floor 2 eps, and above water.
        result = rdf(np.diag([1.0, 1e-13]), 1e-14)
        assert result.allocations.tolist() == [5e-15, 5e-15]
        assert result.rate_bits == pytest.approx(0.5 * math.log2(1e-13 / 2.5e-29), rel=1e-14)

    def test_mode_under_the_eigh_error_floor_is_a_zero_mode(self):
        result = rdf(np.diag([1.0, 1e-17]), 1e-18)
        assert result.allocations.tolist() == [1e-18, 0.0]
        assert result.rate_bits == pytest.approx(0.5 * math.log2(1e18), rel=1e-14)

    def test_budget_covers_total_variance(self):
        for n in (1, 3, 6):
            result = rdf(np.eye(n), float(n))
            assert result.rate_nats == 0.0
            assert result.rate_bits == 0.0
            assert np.allclose(result.allocations, np.ones(n))

    def test_symmetric_split(self):
        # sigma^2 = (1, 1), D = 0.5: each mode gets 0.25, rate = ln 4 = 2 bits
        result = rdf(np.diag([1.0, 1.0]), 0.5)
        assert result.rate_nats == pytest.approx(math.log(4.0), abs=1e-12)
        assert result.rate_bits == pytest.approx(2.0, abs=1e-12)
        fast = rdf_small_distortion(np.diag([1.0, 1.0]), 0.5)
        assert fast == pytest.approx(result.rate_nats, abs=1e-12)

    def test_zero_budget_is_infinite(self):
        result = rdf(np.eye(2), 0.0)
        assert math.isinf(result.rate_nats)
        assert math.isinf(result.rate_bits)

    def test_zero_budget_rows(self):
        # The closed form gives theta = +0, allocations +0 and log(variance / 0)
        # = inf on every positive mode; the all-zero covariance costs nothing.
        covariances = [np.zeros((2, 2)), np.diag([1.0, 0.0]), np.eye(2)]
        rates = [0.0, math.inf, math.inf]
        for covariance, rate in zip(covariances, rates):
            result = rdf(covariance, 0.0)
            assert (result.rate_nats, result.rate_bits, result.water_level) == (rate, rate, 0.0)
            assert result.allocations.tolist() == [0.0, 0.0]
            assert not np.signbit(result.water_level) and not np.signbit(result.allocations).any()
        rate, level, allocations = _water_fill(np.stack(covariances), 0.0)
        assert rate.tolist() == rates
        assert level.tolist() == [0.0] * 3 and allocations.tolist() == [[0.0, 0.0]] * 3
        assert not np.signbit(level).any() and not np.signbit(allocations).any()

    def test_singular_covariance_zero_mode_carries_no_rate(self):
        result = rdf(np.diag([1.0, 0.0]), 0.5)
        assert result.rate_nats == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert np.allclose(result.allocations, [0.5, 0.0], atol=1e-12)

    def test_input_errors(self):
        with pytest.raises(ValueError):
            rdf(np.eye(2), -0.1)
        with pytest.raises(ValueError):
            rdf(np.diag([1.0, -0.5]), 0.1)
        with pytest.raises(ValueError):
            rdf(np.zeros((0, 0)), 0.1)

    def test_nan_distortion_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            rdf(np.eye(2), math.nan)
        with pytest.raises(ValueError, match="nonnegative"):
            rdf_small_distortion(np.eye(2), math.nan)

    @pytest.mark.parametrize("function", [rdf, rdf_small_distortion])
    @pytest.mark.parametrize(
        "covariance, message",
        [
            (np.eye(2, 3), "square"),
            (np.zeros((0, 0)), "non-empty"),
            (np.array([[1.0, 0.0], [0.0, math.inf]]), "non-finite"),
            (np.array([[1.0, 0.0], [10 * SYMMETRY_TOL, 1.0]]), "not symmetric"),
        ],
    )
    def test_covariance_validation(self, function, covariance, message):
        with pytest.raises(ValueError, match=message):
            function(covariance, 0.1)

    def test_asymmetry_within_tolerance_is_symmetrized(self):
        cov = np.array([[1.0, 0.0], [0.5 * SYMMETRY_TOL, 1.0]])
        symmetric = np.array([[1.0, 0.25 * SYMMETRY_TOL], [0.25 * SYMMETRY_TOL, 1.0]])
        assert rdf(cov, 0.1).rate_nats == rdf(symmetric, 0.1).rate_nats
        assert rdf_small_distortion(cov, 0.1) == rdf_small_distortion(symmetric, 0.1)


class TestFastPath:
    def test_identity_small_budget(self):
        value = rdf_small_distortion(np.eye(2), 0.02)
        assert value == pytest.approx(math.log(100.0), abs=1e-12)
        assert value == pytest.approx(rdf(np.eye(2), 0.02).rate_nats, abs=1e-9)

    def test_equality_of_paths_near_boundary(self):
        cov = np.diag([4.0, 1.0])
        value = rdf_small_distortion(cov, 1.9)  # D/n = 0.95 < 1
        assert value == pytest.approx(rdf(cov, 1.9).rate_nats, abs=1e-9)

    def test_boundary_is_excluded(self):
        with pytest.raises(FastPathDomainError):
            rdf_small_distortion(np.diag([4.0, 1.0]), 2.0)  # D/n = 1 = min

    def test_singular_covariance_rejected(self):
        with pytest.raises(FastPathDomainError):
            rdf_small_distortion(np.diag([1.0, 0.0]), 0.1)

    def test_zero_distortion_needs_infinite_rate(self):
        assert rdf_small_distortion(np.diag([4.0, 1.0]), 0.0) == math.inf


class TestRdfProperties:
    def test_monotone_in_distortion(self):
        rng = np.random.default_rng(23)
        for _ in range(30):
            n = rng.integers(1, 6)
            base = rng.normal(size=(n, n))
            cov = base @ base.T
            budgets = np.sort(rng.uniform(0.0, 1.2 * np.trace(cov), size=2))
            r1 = rdf(cov, budgets[0]).rate_nats
            r2 = rdf(cov, budgets[1]).rate_nats
            assert r1 >= r2 - 1e-12

    def test_scale_covariance(self):
        rng = np.random.default_rng(29)
        base = rng.normal(size=(3, 3))
        cov = base @ base.T
        d = 0.3 * np.trace(cov)
        for c in (0.1, 2.0, 37.5):
            assert rdf(c * cov, c * d).rate_nats == pytest.approx(
                rdf(cov, d).rate_nats, abs=1e-9
            )

    def test_rotation_invariance(self):
        rng = np.random.default_rng(31)
        base = rng.normal(size=(4, 4))
        cov = base @ base.T
        q, _ = np.linalg.qr(rng.normal(size=(4, 4)))
        d = 0.25 * np.trace(cov)
        assert rdf(q @ cov @ q.T, d).rate_nats == pytest.approx(
            rdf(cov, d).rate_nats, abs=1e-8
        )

    def test_water_conservation(self):
        rng = np.random.default_rng(37)
        for _ in range(30):
            n = rng.integers(1, 7)
            base = rng.normal(size=(n, n))
            cov = base @ base.T
            d = rng.uniform(0.0, 1.5 * np.trace(cov))
            result = rdf(cov, d)
            expected = min(d, float(np.trace(cov)))
            assert float(result.allocations.sum()) == pytest.approx(expected, abs=1e-9)

    def test_rate_matches_allocation_formula(self):
        rng = np.random.default_rng(41)
        for _ in range(20):
            base = rng.normal(size=(4, 4))
            cov = base @ base.T
            d = rng.uniform(0.01, 0.9) * np.trace(cov)
            result = rdf(cov, d)
            variances = np.sort(np.linalg.eigvalsh(cov))[::-1]
            with np.errstate(divide="ignore"):
                ratios = np.where(result.allocations > 0, variances / result.allocations, 1.0)
            recomputed = 0.5 * float(np.sum(np.maximum(0.0, np.log(ratios))))
            assert result.rate_nats == pytest.approx(recomputed, abs=1e-9)
            assert result.rate_bits == result.rate_nats / math.log(2.0)
