"""Code-rate, ceiling, curve and minimum-sampling-rate tests."""

import importlib.util
import math
import pathlib
import warnings
from functools import partial

import numpy as np
import pytest

from lincoder import (
    CapacityInfeasibleError,
    LincoderError,
    LinearSystemModel,
    NoEquilibriumError,
    NotNeeded,
    demo_model,
    increment_distribution,
    increment_rate,
    is_hurwitz,
    lyapunov_solve,
    min_sampling_rate,
    rate_ceiling,
    rate_curve,
    rdf,
)
from lincoder import coderate, linalg, linearsystem, ratedistortion
from lincoder.csvio import write_rate_curve
from lincoder.ratedistortion import LN2


def rotation_model(n, seed=8, lead=-1.0):
    """Seeded n-dimensional drift Q J Q^T with 2x2 rotation blocks J.

    The blocks have real parts lead * U(0.3, 0.8), stable by default; an
    odd n leaves one zero eigenvalue, so lead = 0 gives a marginal drift.
    """
    rng = np.random.default_rng(seed)
    block = np.zeros((n, n))
    for i in range(0, n - 1, 2):
        sigma, omega = lead * rng.uniform(0.3, 0.8), rng.uniform(0.5, 1.5)
        block[i : i + 2, i : i + 2] = [[sigma, omega], [-omega, sigma]]
    q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    b = rng.normal(size=(n, n))
    return LinearSystemModel.constant(q @ block @ q.T, 0.05 * b @ b.T / n)


def outcome(call):
    """The value of call(), or the type and message of the error it raises."""
    try:
        return call()
    except (CapacityInfeasibleError, ValueError) as error:
        return type(error), str(error)


def plain_refinement(model, distortion, capacity_bits):
    """min_sampling_rate by cutting the crossing cell into 16 parts per round.

    Returns its outcome and the (dt, bits) it evaluated on the lattice of the
    crossing decade, edges included: the reference for the predicted
    descent, which must keep each cell this loop keeps.
    """
    lattice = {}
    threshold = capacity_bits - coderate.CAPACITY_MARGIN_BITS

    def rate_bits(dts):
        bits = coderate._increment_rates(model, dts, distortion)[0] / LN2
        lattice.update(zip(dts.tolist(), bits.tolist()))
        return bits

    def first_not_below(bits):
        below = bits < threshold
        return below.size if np.all(below) else int(np.argmin(below))

    def search():
        try:
            ceiling = rate_ceiling(model, distortion).rate_bits
            if ceiling < capacity_bits:
                return NotNeeded(ceiling_bits=ceiling, zero_rate=(ceiling <= 0.0))
        except NoEquilibriumError:
            ceiling = None
        decades = np.array([10.0**decade for decade in range(-6, 13)])
        bits = rate_bits(decades)
        crossing = first_not_below(bits)
        if crossing == decades.size:
            return NotNeeded(ceiling_bits=ceiling, zero_rate=bool(bits[-1] <= 0.0))
        if crossing == 0:
            raise CapacityInfeasibleError(
                f"code rate stays at or above {capacity_bits} bits down to dt={1e-6}"
            )
        lo, hi, hi_bits = decades[crossing - 1], decades[crossing], bits[crossing]
        lattice.clear()
        lattice.update({float(lo): float(bits[crossing - 1]), float(hi): float(hi_bits)})
        while hi / lo > 1.0 + 1e-9:
            inner = lo * (hi / lo) ** (np.arange(1.0, 16) / 16)
            edges = np.concatenate(([lo], inner, [hi]))
            inner_bits = rate_bits(inner)
            part = first_not_below(inner_bits)
            lo, hi = edges[part], edges[part + 1]
            hi_bits = np.append(inner_bits, hi_bits)[part]
        if not math.isfinite(hi_bits):
            raise ValueError(
                f"code rate overflows at dt={float(hi)!r}, short of {capacity_bits} bits"
            )
        return 1.0 / float(lo)

    return outcome(search), lattice


class TestIncrementRate:
    def test_scalar_brownian_half_bit(self):
        # a = 0, sigma^2 = 1, dt = 1, D = 0.5: W = 1, rate = ln 2 / 2 nats
        model = demo_model("brownian")
        result = increment_rate(model, dt=1.0, distortion=0.5)
        assert result.rate_nats == pytest.approx(0.5 * math.log(2.0), abs=1e-12)
        assert result.rate_bits == pytest.approx(0.5, abs=1e-12)

    def test_budget_above_total_variance_is_free(self):
        model = demo_model("stable")
        w = 0.01 * np.eye(2)  # equilibrium for this preset
        result = increment_rate(model, dt=100.0, distortion=1.0)
        assert result.rate_bits == 0.0
        assert float(result.allocations.sum()) <= np.trace(w) * 1.01

    def test_rate_vanishes_as_interval_shrinks(self):
        model = demo_model("unstable")
        result = increment_rate(model, dt=1e-6, distortion=0.01)
        assert result.rate_bits == 0.0

    @pytest.mark.parametrize("dt", [0.05, 2.0])
    @pytest.mark.parametrize("name", ["stable", "marginal", "unstable", "brownian"])
    def test_one_interval_query_is_the_rdf_of_its_law(self, name, dt):
        # A query is a stack of one interval, and its rate is the
        # water-filling of exactly the covariance increment_distribution gives.
        model = demo_model(name)
        result = increment_rate(model, dt=dt, distortion=0.01)
        cov = increment_distribution(model, np.zeros(model.dimension), dt).covariance
        expected = rdf(cov, 0.01)
        assert (result.rate_nats, result.water_level) == (expected.rate_nats, expected.water_level)
        assert np.array_equal(result.allocations, expected.allocations)

    def test_monotone_in_distortion(self):
        model = demo_model("stable")
        rates = [
            increment_rate(model, dt=1.0, distortion=d).rate_bits
            for d in (0.001, 0.01, 0.1, 1.0)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(rates, rates[1:]))

    def test_query_validation(self):
        model = demo_model("stable")
        with pytest.raises(ValueError):
            increment_rate(model, dt=0.0, distortion=0.01)
        with pytest.raises(ValueError):
            increment_rate(model, dt=1.0, distortion=-0.01)
        with pytest.raises(ValueError, match="nonnegative"):
            increment_rate(model, dt=1.0, distortion=float("nan"))
        with pytest.raises(ValueError, match="sampling interval"):
            increment_rate(model, dt=float("nan"), distortion=0.01)


class TestRateCeiling:
    def test_closed_form_equilibrium(self):
        # A = -I, N = I: equilibrium covariance I/2; with D = 0.01 both modes
        # stay above water, rate = ln(0.5 / 0.005) per mode.
        model = LinearSystemModel.constant(-np.eye(2), np.eye(2))
        result = rate_ceiling(model, 0.01)
        assert result.rate_nats == pytest.approx(math.log(100.0), rel=1e-10)

    def test_brownian_has_no_ceiling(self):
        with pytest.raises(NoEquilibriumError):
            rate_ceiling(demo_model("brownian"), 0.01)

    def test_unstable_spiral_has_no_ceiling(self):
        # The algebraic Lyapunov equation is solvable here, but the increment
        # covariance diverges, so no ceiling exists.
        with pytest.raises(NoEquilibriumError):
            rate_ceiling(demo_model("unstable"), 0.01)

    def test_hurwitz_detector(self):
        assert is_hurwitz(np.array([[-0.5, 1.0], [-1.0, -0.5]]))
        assert not is_hurwitz(np.zeros((2, 2)))
        assert not is_hurwitz(np.array([[0.5, 1.0], [-1.0, 0.5]]))

    def test_ceiling_is_invariant_to_drift_and_noise_scale(self):
        # Scaling A and N together leaves the equilibrium covariance, and so
        # the ceiling, unchanged: the stable preset gives 1.0 bit at D = 0.01.
        stable = demo_model("stable")
        for scale in (1.0, 1e-9, 1e-11):
            model = LinearSystemModel.constant(
                scale * stable.drift.matrix, scale * stable.noise_intensity
            )
            assert rate_ceiling(model, 0.01).rate_bits == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("dt", [1e33, 1e100, 1e300, 1.7e308])
    def test_stable_rate_reaches_the_ceiling_at_any_horizon(self, dt):
        # Past every mode's decay W is the Lyapunov equilibrium, so the rate
        # is the ceiling, however many doublings the interval takes.
        model = demo_model("stable")
        equilibrium = lyapunov_solve(model.drift.matrix, model.noise_intensity)
        cov = increment_distribution(model, np.zeros(2), dt).covariance
        assert np.max(np.abs(cov - equilibrium)) <= 1e-12 * np.max(np.abs(equilibrium))
        ceiling = rate_ceiling(model, 0.01).rate_bits
        assert increment_rate(model, dt, 0.01).rate_bits == pytest.approx(ceiling, rel=1e-12)


# Near dt = 4.66e103 the first W of the marginal drift overflows in a matmul.
@pytest.mark.parametrize("dt", [1e300, 1.7e308, 4.660210683981821e103])
@pytest.mark.parametrize("name", ["stable", "marginal", "unstable", "brownian"])
def test_no_warning_escapes_at_the_float_limit(name, dt):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rate = increment_rate(demo_model(name), dt, 0.01).rate_bits
    assert not math.isnan(rate)


def test_no_warning_where_finite_mode_variances_sum_past_the_float_range():
    # At this interval both modes of the unstable W are near 1e308; their sum overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert increment_rate(demo_model("unstable"), 713.6998820779036, 0.1).rate_bits == math.inf
        with pytest.raises(ValueError, match="overflows at dt=711.39"):
            min_sampling_rate(demo_model("unstable"), 0.1, 1030.0)


@pytest.mark.parametrize("drift", [[[-2.0]], [[-3.0, 2.0], [-2.0, -3.0]]])
def test_generator_that_overflows_at_the_float_limit_reaches_the_ceiling(drift):
    # At dt = 1e308 an entry of the generator M dt itself overflows.  The
    # exponential starts from M (dt 2^-e), e added to its doublings, so the
    # rate is the ceiling that dt = 1e307 returns, without a warning.
    model = LinearSystemModel.constant(drift, np.eye(len(drift)))
    grid = [1.0, 1e307, 1e308, np.finfo(float).max]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        curve = rate_curve(model, 0.01, grid)
        cov = increment_distribution(model, np.zeros(len(drift)), 1e308).covariance
    ceiling = rate_ceiling(model, 0.01).rate_bits
    assert curve.rate_bits[1:] == pytest.approx([ceiling] * 3, rel=1e-12)
    equilibrium = lyapunov_solve(model.drift.matrix, model.noise_intensity)
    assert np.max(np.abs(cov - equilibrium)) <= 1e-12 * np.max(np.abs(equilibrium))


class TestRateCurve:
    def test_single_point_matches_pointwise_rate(self):
        model = demo_model("stable")
        curve = rate_curve(model, 0.01, [0.5])
        point = increment_rate(model, dt=0.5, distortion=0.01)
        assert curve.rate_bits[0] == point.rate_bits
        assert curve.asymptote_bits is not None

    def test_stable_curve_monotone_and_capped(self):
        model = demo_model("stable")
        grid = np.logspace(-3, 2, 60)
        curve = rate_curve(model, 0.01, grid)
        assert np.all(np.diff(curve.rate_bits) >= -1e-9)
        assert np.all(curve.rate_bits <= curve.asymptote_bits + 1e-9)

    def test_unbounded_curve_for_marginal_system(self):
        model = demo_model("marginal")
        curve = rate_curve(model, 0.01, np.logspace(-2, 3, 40))
        assert curve.asymptote_bits is None
        assert curve.rate_bits[-1] > 12.0  # grows without bound over the grid

    def test_marginal_curve_matches_closed_form(self):
        # A = [[0, 1], [0, 0]], N = q I: W(t) = q [[t + t^3/3, t^2/2], [t^2/2, t]].
        # The small eigenvalue is det / top, det = q^2 (t^2 + t^4/12), which
        # avoids the cancellation of the 2x2 formula; then reverse
        # water-filling on the two modes at D = 0.01.
        q, d = 0.01, 0.01
        grid = np.logspace(-4, 4, 100)
        curve = rate_curve(demo_model("marginal"), d, grid)
        a, b, c = q * (grid + grid**3 / 3), q * grid**2 / 2, q * grid
        top = 0.5 * (a + c + np.hypot(a - c, 2 * b))
        low = q * q * (grid**2 + grid**4 / 12) / top
        level = np.where(low >= d / 2, d / 2, d - low)
        bits = 0.5 * np.log2(top / level) + np.where(low > level, 0.5 * np.log2(low / level), 0.0)
        expected = np.where(d >= top + low, 0.0, bits)
        positive = expected > 0.0
        assert positive.sum() > 40
        assert np.all(curve.rate_bits[~positive] == 0.0)
        gap = np.abs(curve.rate_bits[positive] - expected[positive]) / expected[positive]
        assert np.max(gap) <= 1e-13

    def test_grid_validation(self):
        model = demo_model("stable")
        with pytest.raises(ValueError):
            rate_curve(model, 0.01, [0.5, 0.4])
        with pytest.raises(ValueError):
            rate_curve(model, 0.01, [-1.0, 0.5])

    def test_two_dimensional_grid_refused(self):
        with pytest.raises(ValueError, match="^dt grid must be a non-empty vector$"):
            rate_curve(demo_model("stable"), 0.01, [[0.1, 1.0]])

    @pytest.mark.parametrize(
        "name, top",
        [("stable", 3), ("marginal", 3), ("unstable", 3), ("brownian", 3), ("rotation8", 3),
         ("unstable", 12)],
    )
    def test_curve_matches_pointwise_rates_bit_for_bit(self, name, top):
        # On the stable and unstable grids the scaling count of the Van Loan
        # exponential, which is also the doubling count, runs from 0 to 9
        # (to 39 up to dt = 1e12), so the points differ in Pade scaling and
        # doublings.
        model = rotation_model(8) if name == "rotation8" else demo_model(name)
        grid = np.logspace(-3, top, 10 * (top + 3) + 1)
        curve = rate_curve(model, 0.01, grid)
        for dt, rate in zip(grid, curve.rate_bits):
            point = increment_rate(model, dt=float(dt), distortion=0.01)
            assert rate == point.rate_bits

    def test_unstable_rates_overflow_to_infinity(self):
        grid = np.logspace(-3, 12, 16)
        curve = rate_curve(demo_model("unstable"), 0.01, grid)
        # W grows like exp(2 Re(lambda) dt) = exp(dt): finite up to dt = 100,
        # overflowed (an unbounded rate) from dt = 1e3 on.
        assert np.all(np.isfinite(curve.rate_bits[grid <= 100.0]))
        assert np.all(curve.rate_bits[grid >= 1e3] == math.inf)

    def test_fs_axis_row_ordering(self, tmp_path):
        model, grid = demo_model("stable"), np.array([0.1, 1.0, 10.0])
        curve = rate_curve(model, 0.01, grid)
        write_rate_curve(model, 0.01, grid, curve, "fs", tmp_path / "curve.csv")
        rows = [line.split(",") for line in (tmp_path / "curve.csv").read_text().splitlines()[2:]]
        assert [float(fs) for _, fs, _ in rows] == [0.1, 1.0, 10.0]
        assert [float(bits) for _, _, bits in rows] == curve.rate_bits[::-1].tolist()

    def test_written_curve_refuses_a_bad_axis_or_grid(self, tmp_path):
        model, grid = demo_model("stable"), np.array([0.1, 1.0, 10.0])
        curve = rate_curve(model, 0.01, grid)
        with pytest.raises(ValueError, match="axis must be 'dt' or 'fs'"):
            write_rate_curve(model, 0.01, grid, curve, "hz", tmp_path / "curve.csv")
        with pytest.raises(ValueError):
            write_rate_curve(model, 0.01, grid[:2], curve, "dt", tmp_path / "curve.csv")
        assert not (tmp_path / "curve.csv").exists()


class TestMinSamplingRate:
    def test_capacity_above_ceiling_is_not_needed(self):
        result = min_sampling_rate(demo_model("stable"), 0.01, 2.0)
        assert isinstance(result, NotNeeded)
        assert result.ceiling_bits == pytest.approx(1.0, abs=1e-9)
        assert not result.zero_rate

    def test_zero_noise_flags_zero_rate(self):
        model = LinearSystemModel.constant([[-1.0]], [[0.0]])
        result = min_sampling_rate(model, 0.01, 1.0)
        assert isinstance(result, NotNeeded)
        assert result.zero_rate

    def test_scalar_closed_form(self):
        # Brownian: rate = log2(dt / D) / 2, crossing at dt = D 4^C.
        for capacity in (2.0, 8.0):
            fs = min_sampling_rate(demo_model("brownian"), 0.01, capacity)
            expected = 1.0 / (0.01 * 4.0**capacity)
            assert abs(fs - expected) / expected <= 1e-6

    def test_bracket_certificate(self):
        model = demo_model("unstable")
        capacity = 8.0
        fs = min_sampling_rate(model, 0.01, capacity)
        below = increment_rate(model, dt=1.0 / fs, distortion=0.01).rate_bits
        above = increment_rate(model, dt=1.0 / (0.99 * fs), distortion=0.01).rate_bits
        assert below < capacity
        assert above >= capacity

    def test_crossing_is_consistent_with_curve(self):
        model = demo_model("unstable")
        fs = min_sampling_rate(model, 0.01, 8.0)
        grid = np.logspace(-2, 2, 200)
        curve = rate_curve(model, 0.01, grid)
        crossing = grid[np.argmax(curve.rate_bits >= 8.0)]
        assert 1.0 / fs == pytest.approx(crossing, rel=0.1)

    @pytest.fixture
    def rate_calls(self, monkeypatch):
        """Interval stacks passed to the one stacked rate evaluator."""
        calls = []
        original = coderate._increment_rates

        def counting(model, dts, distortion):
            calls.append(np.array(dts))
            return original(model, dts, distortion)

        monkeypatch.setattr(coderate, "_increment_rates", counting)
        return calls

    def test_ceiling_below_capacity_needs_no_rate_evaluation(self, rate_calls):
        result = min_sampling_rate(demo_model("stable"), 0.01, 2.0)
        assert isinstance(result, NotNeeded)
        assert rate_calls == []

    def test_unstable_crossing_needs_few_rate_evaluations(self, rate_calls):
        fs = min_sampling_rate(demo_model("unstable"), 0.01, 8.0)
        assert isinstance(fs, float)
        assert 1 <= len(rate_calls) <= 12
        # One call holds every decade from DT_FLOOR up to 1e3, below which it crosses.
        assert np.array_equal(rate_calls[0], [10.0**d for d in range(-6, 4)])

    @pytest.mark.parametrize(
        "model, capacity, stacks",
        [
            (partial(demo_model, "unstable"), 8.0, 1),
            # dt* ~ 2.44e5, 4.3e7 and none: each scan reads the decades above 1e3.
            (partial(demo_model, "marginal"), 35.0, 2),
            (partial(demo_model, "brownian"), 16.0, 2),
            (partial(LinearSystemModel.constant, [[0.0]], [[0.0]]), 1.0, 2),
        ],
        ids=["unstable", "marginal", "brownian", "zero-rate"],
    )
    def test_upper_decades_are_scanned_only_past_the_lower(
        self, model, capacity, stacks, rate_calls
    ):
        reference, _ = plain_refinement(model(), 0.01, capacity)
        rate_calls.clear()
        assert outcome(lambda: min_sampling_rate(model(), 0.01, capacity)) == reference
        lower, upper = [10.0**d for d in range(-6, 4)], [10.0**d for d in range(4, 13)]
        assert rate_calls[0].tolist() == lower
        if stacks == 2:
            assert rate_calls[1].tolist() == upper
        # Every later stack refines the crossing decade.
        if isinstance(reference, float):
            lo = 10.0 ** math.floor(math.log10(1.0 / reference))
            assert all(lo < dt < 10.0 * lo for call in rate_calls[stacks:] for dt in call)
        else:
            assert len(rate_calls) == stacks

    def test_brownian_crossings_far_from_unit_interval(self):
        # Crossings at dt = D 4^C ~ 6.6e-4 and ~ 6.6e3, both brackets from dt = 1.
        for distortion in (1e-8, 0.1):
            fs = min_sampling_rate(demo_model("brownian"), distortion, 8.0)
            expected = 1.0 / (distortion * 4.0**8)
            assert abs(fs - expected) / expected <= 1e-8

    def test_non_hurwitz_zero_rate_reaches_ceiling_interval(self):
        model = LinearSystemModel.constant([[0.0]], [[0.0]])
        result = min_sampling_rate(model, 0.01, 1.0)
        assert result == NotNeeded(ceiling_bits=None, zero_rate=True)

    def test_infeasible_capacity(self):
        with pytest.raises(CapacityInfeasibleError):
            min_sampling_rate(demo_model("brownian"), 1e-30, 1.0)

    @pytest.mark.parametrize("capacity", [1030.0, 1e300])
    def test_capacity_beyond_overflow_horizon_raises(self, capacity):
        # The unstable rate is 1015.6 bits at dt = 703.3 and overflows at dt = 709.09.
        with pytest.raises(ValueError, match="overflows"):
            min_sampling_rate(demo_model("unstable"), 0.01, capacity)

    def test_capacity_below_overflow_horizon_is_crossed(self):
        fs = min_sampling_rate(demo_model("unstable"), 0.01, 1000.0)
        rate = increment_rate(demo_model("unstable"), 1.0 / fs, 0.01).rate_bits
        assert 999.0 < rate < 1000.0

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            min_sampling_rate(demo_model("stable"), 0.01, 0.0)

    @pytest.mark.parametrize("name", ["stable", "marginal", "unstable", "brownian"])
    def test_infinite_capacity_raises_before_any_rate(self, name, rate_calls, monkeypatch):
        ceilings = []
        monkeypatch.setattr(coderate, "rate_ceiling", lambda *args: ceilings.append(args))
        with pytest.raises(ValueError, match="capacity must be finite"):
            min_sampling_rate(demo_model(name), 0.01, math.inf)
        assert rate_calls == [] and ceilings == []

    @pytest.mark.parametrize(
        "name, expected",
        [
            ("marginal", ("0.04781211705272364", "0.002968186593429725")),
            ("unstable", ("0.20576925962192485", "0.09617938711533254")),
            ("brownian", ("0.0015258789085970759", "2.3283064399567012e-08")),
            ("stable", ("NotNeeded(ceiling_bits=0.9999999999999997, zero_rate=False)",) * 2),
        ],
    )
    def test_preset_crossings_are_pinned(self, name, expected):
        # Recorded from the plain 16-part refinement; the descent must keep every bit.
        results = tuple(repr(min_sampling_rate(demo_model(name), 0.01, c)) for c in (8.0, 16.0))
        assert results == expected


def marginal_closed_form_bits(dt, distortion, q=0.01):
    """Rate of the marginal preset from det W = q^2 t^2 (1 + t^2 / 12), both modes above water.

    The small eigenvalue det / top needs no extended precision; the oracle
    holds while it exceeds D / 2, which is asserted.
    """
    det = q * q * dt * dt * (1.0 + dt * dt / 12.0)
    top = 0.5 * q * (2 * dt + dt**3 / 3 + math.hypot(dt**3 / 3, dt * dt))
    assert det / top > distortion / 2
    return 0.5 * math.log2(det) - math.log2(distortion / 2)


class TestZeroModeFloor:
    """Modes above eigh's error floor n * eps * lambda_max carry their rate."""

    @pytest.mark.parametrize("dt", [1e6, 1e7])
    def test_marginal_rate_matches_closed_form_at_long_intervals(self, dt):
        rate = increment_rate(demo_model("marginal"), dt, 0.01).rate_bits
        assert abs(rate / marginal_closed_form_bits(dt, 0.01) - 1.0) <= 1e-9

    def test_marginal_crossing_at_35_bits(self):
        fs = min_sampling_rate(demo_model("marginal"), 0.01, 35.0)
        assert 1.0 / fs == pytest.approx(2.4395e5, rel=1e-4)
        assert 35.0 - 1e-6 <= marginal_closed_form_bits(1.0 / fs, 0.01) <= 35.0


PRESET_QUERIES = [
    (name, distortion, capacity)
    for name in ("stable", "marginal", "unstable", "brownian")
    for distortion in (1e-3, 1e-2, 1e-1)
    for capacity in (4.0, 8.0, 16.0, 32.0)
]
#: (n, lead, seed) of the rotation drifts checked against the plain refinement.
ROTATION_DRIFTS = [(2, 1.0, 0), (2, 0.2, 1), (3, 0.0, 2), (4, 0.5, 3), (5, 0.0, 4), (6, 1.5, 5)]


def diagonal_mode_drop_model():
    """A = diag(0.3, -0.2, 0.05) in a seeded orthogonal basis, N = 0.01 I.

    Its reported rate is not monotone at the lattice scale: rounding of the
    small eigenvalue makes it fall by up to 2.6e-6 bits between edges near
    dt = 39.5.  From about dt = 55 eigh cannot resolve the small mode, and
    from dt = 60 it is under eigh's error floor and dropped while still
    above the water level.
    """
    q, _ = np.linalg.qr(np.random.default_rng(3).normal(size=(3, 3)))
    return LinearSystemModel.constant(q @ np.diag([0.3, -0.2, 0.05]) @ q.T, 0.01 * np.eye(3))


class TestPredictedDescent:
    @pytest.fixture
    def evaluated(self, monkeypatch):
        """Every (dt, bits) that min_sampling_rate evaluates, and the call count."""
        record = {"calls": 0, "bits": {}}
        original = coderate._increment_rates

        def recording(model, dts, distortion):
            rates = original(model, dts, distortion)
            record["calls"] += 1
            record["bits"].update(zip(dts.tolist(), (rates[0] / LN2).tolist()))
            return rates

        monkeypatch.setattr(coderate, "_increment_rates", recording)
        return record

    def check_against_plain_refinement(self, model, distortion, capacity, evaluated):
        reference, lattice = plain_refinement(model, distortion, capacity)
        evaluated["bits"].clear()
        result = outcome(lambda: min_sampling_rate(model, distortion, capacity))
        bits = np.array([lattice[dt] for dt in sorted(lattice)])
        if np.all(bits[1:] >= bits[:-1]) or not isinstance(reference, float):
            assert result == reference
            return
        # A rate that falls somewhere along the lattice may move the crossing
        # cell; the result must still be bracketed within BISECTION_RTOL.
        threshold = capacity - coderate.CAPACITY_MARGIN_BITS
        seen = evaluated["bits"]
        lo = next(dt for dt in seen if 1.0 / dt == result)
        hi = min(dt for dt in seen if dt > lo)
        assert seen[lo] < threshold <= seen[hi]
        assert hi / lo <= 1.0 + coderate.BISECTION_RTOL

    @pytest.mark.parametrize("name, distortion, capacity", PRESET_QUERIES)
    def test_presets_match_plain_refinement(self, name, distortion, capacity, evaluated):
        self.check_against_plain_refinement(demo_model(name), distortion, capacity, evaluated)

    @pytest.mark.parametrize("n, lead, seed", ROTATION_DRIFTS)
    @pytest.mark.parametrize("distortion", [1e-3, 1e-2, 1e-1])
    def test_rotation_drifts_match_plain_refinement(self, n, lead, seed, distortion, evaluated):
        model = rotation_model(n, seed, lead)
        for capacity in (4.0, 8.0, 16.0, 32.0):
            self.check_against_plain_refinement(model, distortion, capacity, evaluated)

    @pytest.mark.parametrize("capacity", [20.0, 30.0, 32.0, 35.0])
    def test_falling_rate_keeps_the_bracket(self, capacity, evaluated):
        model = diagonal_mode_drop_model()
        for distortion in (1e-3, 1e-2, 1e-1):
            self.check_against_plain_refinement(model, distortion, capacity, evaluated)

    @pytest.mark.parametrize(
        "wrong",
        [
            lambda below, below_bits, above, above_bits, threshold: below,
            lambda below, below_bits, above, above_bits, threshold: above,
            lambda *args: 1e-300,
            lambda *args: math.inf,
            lambda *args: math.nan,
        ],
        ids=["lower-end", "upper-end", "far-below", "infinite", "nan"],
    )
    @pytest.mark.parametrize("name", ["marginal", "unstable", "brownian"])
    def test_wrong_prediction_costs_at_most_the_plain_rounds(
        self, name, wrong, evaluated, monkeypatch
    ):
        expected = min_sampling_rate(demo_model(name), 0.01, 8.0)
        monkeypatch.setattr(coderate, "_predict_crossing", wrong)
        evaluated["calls"] = 0
        assert min_sampling_rate(demo_model(name), 0.01, 8.0) == expected
        # One decade scan and eight 16-part rounds, as in the plain refinement.
        assert evaluated["calls"] <= 9

    def test_unstable_crossing_takes_at_most_six_evaluations(self, evaluated):
        # The plain refinement takes 9: a decade scan and eight rounds.
        min_sampling_rate(demo_model("unstable"), 0.01, 8.0)
        assert evaluated["calls"] <= 6


def searchsorted_lattice_path(lo, hi, point):
    """The lattice path picked by np.searchsorted over the concatenated edges, clipped."""
    cells = []
    while hi / lo > 1.0 + coderate.BISECTION_RTOL:
        edges = np.concatenate(([lo], coderate._parts(lo, hi), [hi]))
        part = int(np.clip(np.searchsorted(edges, point) - 1, 0, coderate._REFINE_PARTS - 1))
        lo, hi = edges[part], edges[part + 1]
        cells.append((lo, hi))
    return cells


class TestLatticePath:
    @pytest.mark.parametrize("lo, hi", [(1e-6, 1e-5), (0.1, 1.0), (100.0, 1000.0)])
    def test_cells_match_the_searchsorted_choice(self, lo, hi):
        lo, hi = np.float64(lo), np.float64(hi)
        rng = np.random.default_rng(61)
        points = [lo / 2, hi * 2, math.inf, -math.inf, math.nan, 1e-300, 0.0, -1.0]
        points += (lo * (hi / lo) ** rng.uniform(size=20)).tolist()
        # Every edge of every cell on the paths to a few inner points.
        for inner in points[-3:]:
            for cell_lo, cell_hi in [(lo, hi)] + searchsorted_lattice_path(lo, hi, inner):
                points += [cell_lo, *coderate._parts(cell_lo, cell_hi).tolist(), cell_hi]
        for point in points:
            expected = searchsorted_lattice_path(lo, hi, point)
            cells, cut = coderate._lattice_path(lo, hi, point)
            assert len(cells) == len(expected) >= 7
            for cell, reference in zip(cells, expected):
                assert cell == tuple(map(float, reference))
            # The edges of each cell the path cuts: [lo, hi], then all cells but the last.
            assert len(cut) == len(cells)
            for (cell_lo, cell_hi), edges in zip([(lo, hi)] + cells[:-1], cut):
                parts = coderate._parts(cell_lo, cell_hi).tolist()
                assert edges == [float(cell_lo), *parts, float(cell_hi)]
                assert all(type(edge) is float for edge in edges)


#: Builders of the models whose derived values are checked: the four presets
#: and a seeded 8-D Hurwitz drift.  Each call builds a fresh model from the
#: same matrices.
DERIVED_MODELS = {
    **{name: partial(demo_model, name) for name in ("stable", "marginal", "unstable", "brownian")},
    "rotation8": partial(rotation_model, 8),
}
DERIVED_DISTORTIONS = (1e-3, 1e-2, 1e-1)
DERIVED_GRID = np.logspace(-3.0, 2.0, 100)
DERIVED_CAPACITY_BITS = 8.0
#: The model calls of one distortion: a curve across the doubling switch,
#: the minimum sampling rate and the ceiling.
DERIVED_CALLS = {
    "curve": lambda model, d: coderate.rate_curve(model, d, DERIVED_GRID),
    "fs_min": lambda model, d: coderate.min_sampling_rate(model, d, DERIVED_CAPACITY_BITS),
    "ceiling": lambda model, d: coderate.rate_ceiling(model, d),
}
DERIVED_ORDERS = [("curve", "fs_min", "ceiling"), ("fs_min", "curve", "ceiling")]


def shifted_hurwitz_model(n, seed):
    """Seeded drift G - (max Re eig G + 0.5) I, G standard Gaussian, with noise B B^T / n."""
    raw, b = np.random.default_rng(seed).normal(size=(2, n, n))
    shift = np.linalg.eigvals(raw).real.max() + 0.5
    return LinearSystemModel.constant(raw - shift * np.eye(n), b @ b.T / n)


#: Builders of stable models whose ceiling is checked against rdf of
#: lyapunov_solve: the stable preset, a scalar Ornstein-Uhlenbeck model and
#: seeded 3-D and 8-D Hurwitz drifts.
CEILING_MODELS = {
    "stable": partial(demo_model, "stable"),
    "scalar-ou": partial(LinearSystemModel.constant, [[-0.7]], [[0.3]]),
    "hurwitz3": partial(shifted_hurwitz_model, 3, 71),
    "hurwitz8": partial(shifted_hurwitz_model, 8, 83),
}


def pinned(call):
    """The bytes of call()'s result, arrays included, or the type and message of its error."""
    try:
        value = call()
    except (LincoderError, ValueError) as error:
        return type(error), str(error)
    if isinstance(value, coderate.RateCurve):
        return value.rate_bits.tobytes(), repr(value.asymptote_bits)
    if isinstance(value, coderate.RdfResult):
        return repr((value.rate_nats, value.rate_bits, value.water_level)), value.allocations.tobytes()
    return repr(value)


def load_bench_tracer():
    path = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestModelDerivesOnce:
    """A constant-drift model forms its generator's power norms and its equilibrium once."""

    @pytest.mark.parametrize("order", DERIVED_ORDERS, ids=lambda order: order[0] + "-first")
    @pytest.mark.parametrize("name", DERIVED_MODELS)
    def test_reused_model_gives_the_bits_of_fresh_models(self, name, order):
        make = DERIVED_MODELS[name]
        model = make()
        for distortion in DERIVED_DISTORTIONS:
            for step in order:
                call = DERIVED_CALLS[step]
                reused = pinned(lambda: call(model, distortion))
                assert reused == pinned(lambda: call(make(), distortion)), (step, distortion)

    @pytest.mark.parametrize("name", DERIVED_MODELS)
    def test_one_sign_iteration_and_one_power_norm_per_model(self, name, monkeypatch):
        tests, solves, norms = [], [], []
        is_hurwitz, sign_iteration = linearsystem._is_hurwitz, linearsystem._sign_iteration
        power_norms = linalg._power_norms
        monkeypatch.setattr(
            linearsystem, "_is_hurwitz", lambda arr: tests.append(1) or is_hurwitz(arr)
        )
        monkeypatch.setattr(
            linearsystem, "_sign_iteration", lambda *args: solves.append(1) or sign_iteration(*args)
        )
        monkeypatch.setattr(
            linalg, "_power_norms", lambda a, *powers: norms.append(len(a)) or power_norms(a, *powers)
        )
        model = DERIVED_MODELS[name]()
        for order in DERIVED_ORDERS:
            for distortion in DERIVED_DISTORTIONS:
                for step in order:
                    pinned(lambda: DERIVED_CALLS[step](model, distortion))
        # No interval of these calls reaches the stacked count, so the one
        # power norm is that of the generator M.
        assert tests == [1] and norms == [1]
        assert solves == ([1] if name in ("stable", "rotation8") else [])

    @pytest.mark.parametrize("name", ["marginal", "unstable", "brownian"])
    def test_no_equilibrium_raises_the_same_message_on_every_call(self, name):
        model = demo_model(name)
        with pytest.raises(NoEquilibriumError) as solved:
            lyapunov_solve(model.drift.matrix, model.noise_intensity)
        for _ in range(3):
            with pytest.raises(NoEquilibriumError) as raised:
                rate_ceiling(model, 0.01)
            assert str(raised.value) == str(solved.value)
            assert rate_curve(model, 0.01, [1.0]).asymptote_bits is None

    def test_cached_equilibrium_is_read_only_and_is_lyapunov_solve(self):
        model = rotation_model(8)
        ceiling = pinned(lambda: rate_ceiling(model, 0.01))
        equilibrium = model._equilibrium
        assert not equilibrium.flags.writeable
        with pytest.raises(ValueError):
            equilibrium[0, 0] = 0.0
        solved = lyapunov_solve(model.drift.matrix, model.noise_intensity)
        assert equilibrium.tobytes() == solved.tobytes()
        assert ceiling == pinned(lambda: rdf(solved, 0.01))

    @pytest.mark.parametrize("name", CEILING_MODELS)
    def test_generator_is_built_with_the_model_and_its_norms_on_first_use(self, name, monkeypatch):
        sizes, power_norms = [], linalg._power_norms
        monkeypatch.setattr(
            linalg,
            "_power_norms",
            lambda a, *powers: sizes.append(len(a)) or power_norms(a, *powers),
        )
        model = CEILING_MODELS[name]()
        multiples = vars(model)["_multiples"]
        generator = linearsystem._generators(model.drift.matrix, model.noise_intensity)
        assert multiples.matrix.shape == generator.shape
        assert multiples.matrix.tobytes() == generator.tobytes()
        assert multiples.norms is None and sizes == []
        increment_rate(model, 1.0, 0.01)
        rate_curve(model, 0.01, DERIVED_GRID)
        assert sizes == [1]

    @pytest.mark.parametrize("name", CEILING_MODELS)
    def test_ceiling_is_rdf_of_lyapunov_solve_before_and_after_a_curve(self, name):
        model = CEILING_MODELS[name]()
        solved = lyapunov_solve(model.drift.matrix, model.noise_intensity)
        for distortion in DERIVED_DISTORTIONS:
            expected = pinned(lambda: rdf(solved, distortion))
            assert pinned(lambda: rate_ceiling(model, distortion)) == expected
            rate_curve(model, distortion, DERIVED_GRID)
            assert pinned(lambda: rate_ceiling(model, distortion)) == expected

    @pytest.mark.parametrize("name", CEILING_MODELS)
    def test_one_eigvalsh_per_model_across_ceilings(self, name, monkeypatch):
        model = CEILING_MODELS[name]()
        solved = lyapunov_solve(model.drift.matrix, model.noise_intensity)
        expected = [pinned(lambda: rdf(solved, d)) for d in DERIVED_DISTORTIONS]
        shapes, eigvalsh = [], np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: shapes.append(a.shape) or eigvalsh(a))
        for _ in range(3):
            assert [pinned(lambda: rate_ceiling(model, d)) for d in DERIVED_DISTORTIONS] == expected
        n = model.dimension
        assert shapes == [(1, n, n)]
        assert not model._equilibrium_modes.flags.writeable

    @pytest.mark.parametrize("name", ["marginal", "unstable", "brownian"])
    def test_no_mode_variances_without_an_equilibrium(self, name):
        model = demo_model(name)
        with pytest.raises(NoEquilibriumError):
            rate_ceiling(model, 0.01)
        assert model._equilibrium_modes is None

    @pytest.mark.parametrize("name", CEILING_MODELS)
    def test_ceiling_makes_no_symmetry_check(self, name, monkeypatch):
        checks = []
        for module in (linalg, linearsystem, ratedistortion):
            check = module.check_symmetric
            monkeypatch.setattr(
                module,
                "check_symmetric",
                lambda *args, check=check: checks.append(1) or check(*args),
            )
        model = CEILING_MODELS[name]()
        checks.clear()
        for distortion in DERIVED_DISTORTIONS:
            rate_ceiling(model, distortion)
        assert checks == []

    def test_traced_passes_repeat_the_first_traced_counts(self):
        # The benchmark wraps every public layer function and fails a traced
        # pass whose counts differ from the first one's.  Its models are built
        # once, so the first pass also derives each model's values: that may
        # call private functions only.
        import lincoder.cli  # noqa: F401  (the tracer wraps every layer)

        tracer = load_bench_tracer().Tracer()
        models = [make() for make in DERIVED_MODELS.values()]
        passes = []
        for _ in range(2):
            tracer.reset()
            tracer.install()
            try:
                for model in models:
                    for distortion in DERIVED_DISTORTIONS:
                        coderate.rate_curve(model, distortion, DERIVED_GRID)
                        coderate.min_sampling_rate(model, distortion, DERIVED_CAPACITY_BITS)
            finally:
                tracer.uninstall()
            snapshot = tracer.snapshot()
            calls = {key: (f["calls"], f["errors"]) for key, f in snapshot["functions"].items()}
            passes.append((calls, snapshot["edges"]))
        assert passes[0] == passes[1]
        calls = passes[0][0]
        assert calls["coderate.rate_ceiling"][0] > 0
        assert calls["linalg.lyapunov_solve"] == calls["linalg.is_hurwitz"] == (0, 0)
