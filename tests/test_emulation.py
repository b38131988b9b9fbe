"""Codec and emulator tests, with exhaustive/vertex-enumeration oracles."""

import dataclasses
import hashlib
import itertools
import math
import re

import numpy as np
import pytest

from lincoder import (
    InfeasibleTargetError,
    IntegerCode,
    LinearSystemModel,
    SimplexCode,
    SourceFamily,
    StepCodes,
    TrajectoryDataset,
    compress_dataset,
    emulate,
    emulate_steps,
    endpoint_map,
    integer_code_count,
    integer_quantize,
    onehot_code_rate_bits,
    onehot_compress,
    planar_grid_family,
    sample_paths,
    simplex_compress,
    simplex_decompress,
)
from lincoder import emulation
from lincoder.csvio import dump_family, load_family
from lincoder.emulation import COV_SCALE_RTOL, replay_statistics
from lincoder.rng import EMULATION_LANE, substream
from lincoder.simplexlp import (
    BASIS_TOL,
    MAX_BASES,
    TIE_RTOL,
    _optimal_bases,
    solve_nonnegative_lp,
)


def family_from(*vectors):
    return SourceFamily.from_vectors([np.asarray(v, dtype=float) for v in vectors])


def vertex_enumeration_min_flow(vectors, target, tol=1e-9):
    """Oracle: scan every basic solution of V dt = target, dt >= 0."""
    n, k = vectors.shape
    best = None
    for size in range(1, n + 1):
        for subset in itertools.combinations(range(k), size):
            sub = vectors[:, subset]
            sol, residual, rank, _ = np.linalg.lstsq(sub, target, rcond=None)
            if rank < size:
                continue
            if np.max(np.abs(sub @ sol - target)) > tol:
                continue
            if np.any(sol < -1e-12):
                continue
            value = float(np.clip(sol, 0.0, None).sum())
            if best is None or value < best:
                best = value
    return best


class TestSourceFamily:
    @pytest.mark.parametrize(
        "vectors, message",
        [
            ([], "at least one field"),
            ([[1.0, 0.0], [1.0]], "same dimension"),
            ([[1.0, np.nan]], "non-finite"),
            ([[1.0, np.inf], [0.0, 1.0]], "non-finite"),
            ([[[1.0, 0.0], [0.0, 1.0]]], "1-dimensional"),
        ],
        ids=["empty", "ragged", "nan", "inf", "2-d-entry"],
    )
    def test_from_vectors_rejects(self, vectors, message):
        with pytest.raises(ValueError, match=message):
            SourceFamily.from_vectors(vectors)

    def test_rows_are_fields(self):
        rows = np.arange(6.0).reshape(3, 2)
        fam = SourceFamily.from_vectors(rows)
        assert (fam.dimension, fam.size) == (2, 3)
        assert np.array_equal(fam.field_matrix(), rows.T)
        rows[0, 0] = 9.0  # the family keeps its own copy
        assert fam.field_matrix()[0, 0] == 0.0

    @pytest.mark.parametrize(
        "text",
        [
            '[{"M": [[-1, 0], [0, -1]], "b": [0, 0]}, [1, 0]]',
            '[[1, 0], "0 1"]',
            '"[[1, 0], [0, 1]]"',
            "[[[1, 0], [0, 1]]]",
            "[]",
            "[[1, 0], [0, 1]",
        ],
        ids=["affine-object", "string-entry", "string", "nested-list", "empty", "malformed"],
    )
    def test_load_rejects_anything_but_vectors(self, tmp_path, text):
        path = tmp_path / "family.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"family file {path}")):
            load_family(path)

    def test_dump_load_round_trip_is_exact_and_read_only(self, tmp_path):
        rng = np.random.default_rng(12)
        for fam in (planar_grid_family(), SourceFamily.from_vectors(rng.normal(size=(7, 3)))):
            path = tmp_path / "family.json"
            dump_family(fam, path)
            matrix = load_family(path).field_matrix()
            assert np.array_equal(matrix, fam.field_matrix())
            assert not matrix.flags.writeable
            with pytest.raises(ValueError):
                matrix[0, 0] = 1.0


def onehot_occupancy(indices, horizon, size):
    """Occupancy of a one-hot sequence: each index is active for horizon / N."""
    return np.bincount(indices, minlength=size) * (horizon / len(indices))


class TestEndpointMap:
    def test_all_zero_activation_holds_still(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        assert np.array_equal(endpoint_map(fam, [3.0, 4.0], [0.0, 0.0]), [3.0, 4.0])

    def test_one_hot_unit_fields(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        out = endpoint_map(fam, [0.0, 0.0], onehot_occupancy((0, 1), 1.0, 2))
        assert np.allclose(out, [0.5, 0.5], atol=1e-15)

    def test_constant_fields_match_occupancy_formula(self):
        rng = np.random.default_rng(3)
        fam = family_from(*rng.normal(size=(4, 3)))
        x = rng.normal(size=3)
        occupancy = onehot_occupancy((2, 0, 0, 3, 1, 2), 1.8, 4)
        out = endpoint_map(fam, x, occupancy)
        # constants factor out of the integral: dx = sum_i V_i * occupancy_i
        expected = x + sum(fam.field_matrix()[:, i] * t for i, t in enumerate(occupancy))
        assert np.max(np.abs(out - expected)) <= 1e-12

    def test_overlapping_activations_sum_fields(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        # patterns (1, 1) on [0, 0.5) and (0, 1) on [0.5, 1): durations @ patterns
        occupancy = np.diff((0.0, 0.5, 1.0)) @ np.array([[1.0, 1.0], [0.0, 1.0]])
        out = endpoint_map(fam, [0.0, 0.0], occupancy)
        assert np.allclose(out, [0.5, 1.0], atol=1e-15)

    def test_onehot_equals_sequential_flows(self):
        rng = np.random.default_rng(5)
        fam = family_from(*rng.normal(size=(3, 2)))
        x = rng.normal(size=2)
        indices = (1, 2, 0)
        horizon = 0.9
        out = endpoint_map(fam, x, onehot_occupancy(indices, horizon, 3))
        seg = horizon / 3
        manual = x.copy()
        for idx in indices:
            manual = manual + fam.field_matrix()[:, idx] * seg
        assert np.max(np.abs(out - manual)) <= 1e-12

    @pytest.mark.parametrize(
        "occupancy, message",
        [
            ([1.0], "family size"),
            ([1.0, 0.0, 0.0], "family size"),
            ([1.0, -0.5], "nonnegative"),
            ([np.nan, 0.0], "non-finite"),
            ([np.inf, 0.0], "non-finite"),
            ([[1.0, 0.0]], "1-dimensional"),
        ],
        ids=["short", "long", "negative", "nan", "inf", "2-d"],
    )
    def test_rejects_malformed_occupancy(self, occupancy, message):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match=message):
            endpoint_map(fam, [0.0, 0.0], occupancy)


class TestOneHotCompress:
    def test_single_field_target_is_exact(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        dt, segments = 1.0, 4
        target = dt * np.array([0.0, 1.0])  # exactly field 1 all the way
        indices = onehot_compress(fam, target, segments, dt)
        assert list(indices) == [1, 1, 1, 1]
        out = endpoint_map(fam, [0.0, 0.0], onehot_occupancy(indices, dt, 3))
        assert np.max(np.abs(out - target)) <= 1e-12

    def test_antipodal_fields_cancel(self):
        v = np.array([0.7, -0.2])
        fam = family_from(v, -v)
        dt, segments = 1.0, 6
        indices = onehot_compress(fam, np.zeros(2), segments, dt)
        out = endpoint_map(fam, [0.0, 0.0], onehot_occupancy(indices, dt, 2))
        greedy_error = float(np.linalg.norm(out))
        # exhaustive oracle over all K^N sequences
        best = math.inf
        h = dt / segments
        for seq in itertools.product(range(2), repeat=segments):
            occupancy = np.bincount(seq, minlength=2) * h
            best = min(best, float(np.linalg.norm(fam.field_matrix() @ occupancy)))
        assert greedy_error <= best + 2.0 * float(np.linalg.norm(v)) * dt / segments
        assert greedy_error <= 1e-12  # even split reaches zero exactly

    def test_greedy_close_to_exhaustive(self):
        rng = np.random.default_rng(11)
        fam = family_from(*rng.normal(size=(3, 2)))
        dt, segments = 1.0, 6
        h = dt / segments
        vectors = fam.field_matrix()
        for _ in range(5):
            weights = rng.uniform(0.0, 1.0, size=3)
            target = vectors @ weights * (dt / weights.sum())
            indices = onehot_compress(fam, target, segments, dt)
            reached = vectors @ (np.bincount(indices, minlength=3) * h)
            greedy_error = float(np.linalg.norm(reached - target))
            best = min(
                float(np.linalg.norm(vectors @ (np.bincount(seq, minlength=3) * h) - target))
                for seq in itertools.product(range(3), repeat=segments)
            )
            worst_field = max(np.linalg.norm(v) for v in vectors.T)
            assert greedy_error <= best + 2.0 * worst_field * h

    def test_deterministic_with_lowest_index_ties(self):
        fam = family_from([1.0, 0.0], [1.0, 0.0])  # duplicate fields tie everywhere
        indices = onehot_compress(fam, [1.0, 0.0], 5, 1.0)
        assert list(indices) == [0, 0, 0, 0, 0]

    @pytest.mark.parametrize(
        "dt", [np.nan, np.inf, 0.0, -1.0], ids=["nan", "inf", "zero", "negative"]
    )
    def test_rejects_a_horizon_that_is_not_positive_and_finite(self, dt):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        with pytest.raises(ValueError, match="horizon must be positive and finite"):
            onehot_compress(fam, [1.0, 0.0], 4, dt)

    def test_block_code_rate(self):
        assert onehot_code_rate_bits(24, 3, 6) == pytest.approx(0.5 * math.log2(24))
        assert onehot_code_rate_bits(2, 8, 1) == pytest.approx(8.0)


def exhaustive_simplex_code(vectors, target):
    """Reference: every basis, least flow within TIE_RTOL, then least spread, then lowest index.

    Returns (fractions, flow time), or None when no basis is feasible.
    """
    k = vectors.shape[1]
    rank = int(np.linalg.matrix_rank(vectors))
    scale = np.max(np.abs(target)) or 1.0
    d = target / scale
    weights = np.sum(vectors**2, axis=0)
    candidates = []
    for subset in itertools.combinations(range(k), rank):
        columns = vectors[:, subset]
        if rank and np.linalg.matrix_rank(columns) < rank:
            continue
        xb = np.linalg.pinv(columns) @ d
        if np.any(xb < -BASIS_TOL) or np.any(np.abs(columns @ xb - d) > BASIS_TOL):
            continue
        candidates.append((xb.sum(), xb @ weights[list(subset)], subset, xb))
    if not candidates:
        return None
    best = min(c[0] for c in candidates)
    tied = [c for c in candidates if c[0] <= best + TIE_RTOL * abs(best)]
    least = min(c[1] for c in tied)
    _, _, subset, xb = next(c for c in tied if c[1] <= least + TIE_RTOL * abs(least))
    x = np.zeros(k)
    x[list(subset)] = np.where(xb <= TIE_RTOL * best, 0.0, xb) * scale
    z = x.sum()
    return (x / z if z > 0.0 else np.full(k, 1.0 / k)), z


class TestSimplexCodec:
    def test_hand_lp(self):
        fam = family_from([1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0])
        code = simplex_compress(fam, [1.0, 0.5])
        assert code.flow_time == pytest.approx(1.5, abs=1e-12)
        assert np.allclose(code.probabilities, [2 / 3, 0.0, 1 / 3, 0.0], atol=1e-12)

    def test_zero_target_convention(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        code = simplex_compress(fam, [0.0, 0.0])
        assert code.flow_time == 0.0
        assert np.allclose(code.probabilities, [0.5, 0.5])

    def test_infeasible_target(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])  # cone = first quadrant
        with pytest.raises(InfeasibleTargetError):
            simplex_compress(fam, [-1.0, 0.0])

    def test_round_trip_on_random_cone_targets(self):
        rng = np.random.default_rng(21)
        vectors = rng.normal(size=(2, 24))
        fam = family_from(*vectors.T)
        for _ in range(50):
            target = vectors @ rng.uniform(0.0, 1.0, size=24)
            code = simplex_compress(fam, target)
            rebuilt = simplex_decompress(fam, code)
            assert np.max(np.abs(rebuilt - target)) <= 1e-9

    def test_minimality_against_vertex_enumeration(self):
        rng = np.random.default_rng(23)
        for k in (2, 4, 6, 8):
            for n in (1, 2, 3):
                vectors = rng.normal(size=(n, k))
                fam = family_from(*vectors.T)
                target = vectors @ rng.uniform(0.0, 1.0, size=k)
                code = simplex_compress(fam, target)
                oracle = vertex_enumeration_min_flow(vectors, target)
                assert oracle is not None
                assert code.flow_time == pytest.approx(oracle, abs=1e-9)

    def test_matches_highs_on_assorted_families(self):
        from scipy.optimize import linprog

        rng = np.random.default_rng(31)
        angles = np.deg2rad(np.linspace(-75.0, 75.0, 7))
        base = rng.normal(size=(2, 5))
        families = [
            rng.normal(size=(2, 8)),  # full cone
            rng.normal(size=(3, 9)),
            np.vstack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.8, 1.6, 7),  # 150 deg
            rng.normal(size=(3, 2)),  # rank 2 in R^3
            np.hstack([base, base[:, :3]]),  # duplicate fields
        ]
        verdicts = set()
        for vectors in families:
            fam = family_from(*vectors.T)
            n, k = vectors.shape
            targets = np.vstack(
                [rng.normal(size=(20, n)), (vectors @ rng.uniform(0.0, 1.0, (k, 20))).T]
            )
            for target in targets:
                reference = linprog(
                    np.ones(k), A_eq=vectors, b_eq=target, bounds=(0, None), method="highs"
                )
                try:
                    code = simplex_compress(fam, target)
                except InfeasibleTargetError:
                    assert reference.status == 2
                    verdicts.add(False)
                    continue
                assert reference.status == 0
                assert abs(code.flow_time - reference.fun) <= 1e-9
                verdicts.add(True)
        assert verdicts == {True, False}

    def test_near_duplicate_fields_match_highs(self):
        # Field 1 is field 0 plus 1e-9 noise, so optimal bases can be
        # ill-conditioned.  Every in-cone target that HiGHS solves gets a
        # nonnegative solution at a flow time not above HiGHS's by more than
        # 1e-6 relative.  A family that rounding leaves without a
        # dual-feasible basis is refused as a whole, and skipped here.
        from scipy.optimize import linprog

        rng = np.random.default_rng(7)
        solved = 0
        for _ in range(300):
            m = int(rng.integers(2, 5))
            k = int(rng.integers(m, 9))
            vectors = rng.normal(size=(m, k))
            vectors[:, 1] = vectors[:, 0] + 1e-9 * rng.normal(size=m)
            targets = rng.exponential(size=(20, k)) @ vectors.T
            try:
                x = solve_nonnegative_lp(vectors, targets)
            except ValueError:
                continue
            for target, solution in zip(targets, x):
                reference = linprog(
                    np.ones(k), A_eq=vectors, b_eq=target, bounds=(0, None), method="highs"
                )
                if reference.status != 0:
                    continue
                solved += 1
                assert np.all(solution >= 0.0)
                assert np.max(np.abs(vectors @ solution - target)) <= 1e-8 * np.max(np.abs(target))
                assert solution.sum() <= reference.fun * (1.0 + 1e-6)
        assert solved >= 5000

    def test_optimal_bases_match_exhaustive_reference(self):
        rng = np.random.default_rng(41)
        angles = np.deg2rad(np.linspace(-75.0, 75.0, 9))
        axes = np.eye(3) * rng.uniform(0.5, 2.0, 3)
        base = rng.normal(size=(2, 5))
        families = [
            planar_grid_family().field_matrix(),
            np.hstack([axes, -axes, rng.normal(size=(3, 6))]),  # 3-D, 12 fields
            np.vstack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.8, 1.6, 9),  # 150 deg
            rng.normal(size=(3, 2)) @ rng.normal(size=(2, 6)),  # rank 2 in R^3
            np.hstack([base, base[:, :3]]),  # duplicate fields
            np.zeros((2, 3)),
        ]
        verdicts = set()
        for vectors in families:
            fam = family_from(*vectors.T)
            n, k = vectors.shape
            targets = np.vstack(
                [
                    rng.normal(size=(15, n)),
                    (vectors @ rng.uniform(0.0, 1.0, (k, 15))).T,
                    0.7 * vectors.T,  # along one field: a degenerate vertex
                    np.zeros((1, n)),
                ]
            )
            for target in targets:
                reference = exhaustive_simplex_code(vectors, target)
                verdicts.add(reference is not None)
                if reference is None:
                    with pytest.raises(InfeasibleTargetError):
                        simplex_compress(fam, target)
                    continue
                code = simplex_compress(fam, target)
                assert np.allclose(code.probabilities, reference[0], rtol=0, atol=1e-12)
                assert abs(code.flow_time - reference[1]) <= 1e-12 * max(1.0, reference[1])
        assert verdicts == {True, False}

    def test_family_bases_are_built_once(self, monkeypatch):
        calls = []
        pinv = np.linalg.pinv
        monkeypatch.setattr(
            np.linalg, "pinv", lambda *args, **kwargs: calls.append(1) or pinv(*args, **kwargs)
        )
        rng = np.random.default_rng(43)
        vectors = rng.normal(size=(2, 9))
        fam = family_from(*vectors.T)
        for target in (vectors @ rng.uniform(0.0, 1.0, (9, 100))).T:
            simplex_compress(fam, target)
        assert len(calls) == 1

    def test_grid_tie_goes_to_least_spread(self):
        # (2, 0.5) is reached at flow time 1 by any pair of fields on the
        # x = 2 edge that brackets it; the least spread keeps the adjacent pair.
        fam = planar_grid_family()
        vectors = fam.field_matrix()
        code = simplex_compress(fam, [2.0, 0.5])
        assert code.flow_time == pytest.approx(1.0, abs=1e-12)
        used = {tuple(vectors[:, i]): p for i, p in enumerate(code.probabilities) if p > 1e-12}
        assert used == pytest.approx({(2.0, 0.0): 0.5, (2.0, 1.0): 0.5}, abs=1e-12)

    def test_all_zero_family(self):
        fam = family_from([0.0, 0.0], [0.0, 0.0], [0.0, 0.0])
        with pytest.raises(InfeasibleTargetError):
            simplex_compress(fam, [1e-3, 0.0])
        code = simplex_compress(fam, [0.0, 0.0])
        assert code.flow_time == 0.0
        assert np.allclose(code.probabilities, 1.0 / 3.0)

    def test_family_above_basis_cap_rejected(self):
        k = next(k for k in itertools.count(2) if math.comb(k, 2) > MAX_BASES)
        angles = np.linspace(0.0, 2.0 * np.pi, k, endpoint=False)
        fam = family_from(*np.column_stack([np.cos(angles), np.sin(angles)]))
        with pytest.raises(ValueError, match="candidate bases"):
            simplex_compress(fam, [1.0, 0.0])

    def test_family_with_no_dual_feasible_basis_rejected(self):
        # Its own columns give 1^T B^-1 B > 1 + TIE_RTOL, so rounding drops its one basis.
        fam = SourceFamily([[0.0, 1e-9, -2.0], [2.0, 2.0, -3.0], [-1.0, -1.0, 0.0]])
        with pytest.raises(ValueError, match="^rounding leaves no basis of the family"):
            simplex_compress(fam, [1.0, 0.0, 0.0])

    def test_decompress_trivial_cases(self):
        fam = family_from([1.0, 0.0], [0.0, 2.0])
        zero = SimplexCode(np.array([0.5, 0.5]), 0.0)
        assert np.array_equal(simplex_decompress(fam, zero), [0.0, 0.0])
        onehot = SimplexCode(np.array([0.0, 1.0]), 0.3)
        assert np.allclose(simplex_decompress(fam, onehot), [0.0, 0.6])


def lp_families():
    """The bench family types plus rank-deficient, duplicate and all-zero families."""
    rng = np.random.default_rng(31)
    axes = np.eye(3) * rng.uniform(0.5, 2.0, 3)
    angles = rng.uniform(0.0, 2.0 * np.pi) + np.deg2rad(np.linspace(-75.0, 75.0, 9))
    base = rng.normal(size=(2, 5))
    return {
        "grid": planar_grid_family().field_matrix(),
        "3-D, 12 fields": np.hstack([axes, -axes, rng.normal(size=(3, 6))]),
        "150-degree cone": np.vstack([np.cos(angles), np.sin(angles)]) * rng.uniform(0.8, 1.6, 9),
        "rank 1 in R^2": np.outer(rng.normal(size=2), rng.normal(size=6)),
        "rank 2 in R^3": rng.normal(size=(3, 2)) @ rng.normal(size=(2, 6)),
        "duplicate fields": np.hstack([base, base[:, :3]]),
        "all zero": np.zeros((2, 3)),
    }


def lp_targets(vectors, seed):
    """Seeded targets over six decades, inside the cone, outside it, along one field, zero."""
    rng = np.random.default_rng(seed)
    n, k = vectors.shape
    inside = (vectors @ rng.uniform(0.0, 1.0, (k, 300))).T
    return np.vstack(
        [
            rng.normal(size=(300, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (300, 1)),
            inside,
            -inside[:100],
            0.7 * vectors.T,
            vectors.T,
            np.zeros((1, n)),
        ]
    )


class TestLinearProgramBits:
    """Every output bit of solve_nonnegative_lp, recorded by sha256."""

    DIGESTS = {
        "grid": "f71c5073bfb0054074c964cd9aa718e9595d1deb7319b783fb8976d357aafbdc",
        "3-D, 12 fields": "7a8216eb0590d53563b856eedb38e9134144a936eb9820a717d68e8c56108179",
        "150-degree cone": "598644289b036d895fad258e250ce42362706e0f5f82682a8b2b9970dd2d7ecc",
        "rank 1 in R^2": "60aa08997d6775e58d16852952eb2dbea58a1b121506d3540d50c84da9270250",
        "rank 2 in R^3": "fee794c08d0d627353c5dfce447e36074a6825e23179132e576738a837e0ced9",
        "duplicate fields": "f81b25dd720c079587b9a88d036c64f899701463befa7af7605187662b19ad23",
        "all zero": "5c572d6bb0c802ae59aa248173afaae0d0d1c26b712a23f46e41a5ed6f31dbf0",
    }

    @pytest.mark.parametrize("index, name", enumerate(DIGESTS))
    def test_solutions_are_golden(self, index, name):
        vectors = lp_families()[name]
        x = solve_nonnegative_lp(vectors, lp_targets(vectors, index))
        assert hashlib.sha256(x.tobytes()).hexdigest() == self.DIGESTS[name]

    def test_only_rank_deficient_families_have_exposed_bases(self):
        rng = np.random.default_rng(32)
        spanning = [planar_grid_family().field_matrix()]
        for _ in range(20):  # the seeded 3-D and 150-degree families of the bench
            axes = np.eye(3) * rng.uniform(0.5, 2.0, 3)
            spanning.append(np.hstack([axes, -axes, rng.normal(size=(3, 6))]))
            angles = rng.uniform(0.0, 2.0 * np.pi) + np.deg2rad(np.linspace(-75.0, 75.0, 9))
            lengths = rng.uniform(0.8, 1.6, 9)
            spanning.append(np.vstack([np.cos(angles), np.sin(angles)]) * lengths)
        for vectors in spanning:
            assert _optimal_bases(vectors.tobytes(), vectors.shape)[3].size == 0
        families = lp_families()
        for name in ("rank 1 in R^2", "rank 2 in R^3", "all zero"):
            vectors = families[name]
            subsets, _, _, exposed, _ = _optimal_bases(vectors.tobytes(), vectors.shape)
            assert np.array_equal(exposed, np.arange(len(subsets)))

    @pytest.mark.parametrize("name", ["grid", "3-D, 12 fields", "150-degree cone"])
    def test_unexposed_residuals_stay_within_the_tolerance(self, name):
        vectors = lp_families()[name]
        subsets, inverses, _, _, _ = _optimal_bases(vectors.tobytes(), vectors.shape)
        rng = np.random.default_rng(33)
        d = rng.uniform(-1.0, 1.0, (vectors.shape[0], 2000))
        d[rng.integers(0, d.shape[0], d.shape[1]), np.arange(d.shape[1])] = 1.0
        residual = np.moveaxis(vectors[:, subsets], 1, 0) @ (inverses @ d) - d
        assert np.max(np.abs(residual)) <= BASIS_TOL

    def test_spread_rows_give_the_replay_spread(self):
        for vectors in lp_families().values():
            subsets, inverses, spread_rows, _, _ = _optimal_bases(
                vectors.tobytes(), vectors.shape
            )
            d = np.random.default_rng(34).normal(size=(vectors.shape[0], 50))
            weights = np.sum(vectors * vectors, axis=0)[subsets][:, :, None]
            direct = np.sum((inverses @ d) * weights, axis=1)
            assert np.allclose(spread_rows @ d, direct, rtol=1e-12, atol=1e-12)



class TestMalformedArguments:
    """Each refusal through its public entry, with its error type and message."""

    @pytest.mark.parametrize(
        "probabilities, flow_time, message",
        [
            ([], 1.0, "^probability vector must be non-empty$"),
            ([0.7, 0.7], 1.0, "^probabilities must lie on the simplex$"),
            ([1.5, -0.5], 1.0, "^probabilities must lie on the simplex$"),
            ([0.5, 0.5], math.inf, "^flow time must be finite and nonnegative$"),
            ([0.5, 0.5], math.nan, "^flow time must be finite and nonnegative$"),
            ([0.5, 0.5], -1.0, "^flow time must be finite and nonnegative$"),
        ],
        ids=["empty", "off-simplex", "negative-fraction", "inf-time", "nan-time", "negative-time"],
    )
    def test_simplex_code(self, probabilities, flow_time, message):
        with pytest.raises(ValueError, match=message):
            SimplexCode(probabilities, flow_time)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([], "^counts must be a non-empty vector$"),
            ([[1, 2]], "^counts must be a non-empty vector$"),
            ([1, 1], "^counts must be nonnegative and sum to the resolution$"),
            ([-1, 4], "^counts must be nonnegative and sum to the resolution$"),
        ],
        ids=["empty", "matrix", "short-sum", "negative"],
    )
    def test_integer_code(self, counts, message):
        with pytest.raises(ValueError, match=message):
            IntegerCode(np.array(counts, dtype=int), 3)

    def test_state_or_target_of_the_wrong_dimension(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        wrong = [1.0, 1.0, 1.0]
        with pytest.raises(ValueError, match="^state dimension does not match the family$"):
            endpoint_map(fam, wrong, [1.0, 1.0])
        with pytest.raises(ValueError, match="^target dimension does not match the family$"):
            onehot_compress(fam, wrong, 4, 1.0)
        with pytest.raises(ValueError, match="^target dimension does not match the family$"):
            simplex_compress(fam, wrong)
        with pytest.raises(
            ValueError, match="^initial state dimension does not match the family$"
        ):
            emulate_steps(uniform_codes(3, 2), fam, wrong, 1, 0)

    def test_decompress_code_of_the_wrong_length(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        with pytest.raises(ValueError, match="^code length does not match the family size$"):
            simplex_decompress(fam, SimplexCode([0.5, 0.5], 1.0))

    @pytest.mark.parametrize("given", ["trial_probabilities", "trial_feasible"])
    def test_step_codes_with_one_per_trial_field(self, given):
        fields = {
            "trial_probabilities": np.full((3, 2, 2), 0.5),
            "trial_feasible": np.ones((3, 2), dtype=bool),
        }
        with pytest.raises(
            ValueError, match="^per-trial fractions and feasibility must be given together$"
        ):
            dataclasses.replace(uniform_codes(3, 2), **{given: fields[given]})

    @pytest.mark.parametrize(
        "constraints, rhs, message",
        [
            ([1.0, 0.0], [1.0], "^expected a constraint matrix and one or more rhs vectors$"),
            ([[1.0, 0.0]], 1.0, "^expected a constraint matrix and one or more rhs vectors$"),
            ([[1.0, 0.0]], [1.0, 1.0], "^constraint and rhs sizes do not agree$"),
            ([[1.0, np.nan]], [1.0], "^linear program data must be finite$"),
            ([[1.0, 0.0]], [np.inf], "^linear program data must be finite$"),
        ],
        ids=["vector-constraints", "scalar-rhs", "rhs-size", "nan-constraints", "inf-rhs"],
    )
    def test_linear_program(self, constraints, rhs, message):
        with pytest.raises(ValueError, match=message):
            solve_nonnegative_lp(constraints, rhs)


class TestIntegerQuantize:
    def test_one_hot(self):
        code = SimplexCode(np.array([0.0, 1.0, 0.0]), 1.0)
        assert list(integer_quantize(code, 7).counts) == [0, 7, 0]

    def test_exact_thirds(self):
        code = SimplexCode(np.array([1 / 3, 1 / 3, 1 / 3]), 1.0)
        assert list(integer_quantize(code, 3).counts) == [1, 1, 1]

    def test_largest_remainder_by_hand(self):
        code = SimplexCode(np.array([0.5, 0.3, 0.2]), 1.0)
        assert list(integer_quantize(code, 10).counts) == [5, 3, 2]

    def test_apportionment_bound(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            k = int(rng.integers(2, 12))
            p = rng.dirichlet(np.ones(k))
            resolution = int(rng.integers(1, 40))
            quantized = integer_quantize(SimplexCode(p, 1.0), resolution)
            assert int(quantized.counts.sum()) == resolution
            assert np.max(np.abs(quantized.counts / resolution - p)) <= 1.0 / resolution + 1e-12

    @pytest.mark.parametrize(
        "p",
        [
            [0.5 + 2e-12, 0.5 + 2e-12],
            [1 / 3 + 1e-12] * 3,
            [0.5 + 5e-12, 0.5 + 5e-12, 0.0],
            [0.5 - 4e-12, 0.5 - 4e-12],
            [-1e-12, 1.0 + 1e-12],
        ],
        ids=["halves-over", "thirds-over", "zero-field", "halves-under", "negative-fraction"],
    )
    def test_fractions_off_the_simplex_within_tolerance(self, p):
        # Within SIMPLEX_TOL the floors of resolution * p can miss the
        # resolution by more than one unit per field, or fall below zero.
        # The counts still sum to the resolution, and stay within 1/R of p
        # up to p's own distance e from the simplex.
        code = SimplexCode(p, 1.0)
        p = code.probabilities
        e = abs(float(p.sum()) - 1.0) + float(np.maximum(-p, 0.0).sum())
        for resolution in (10**12, 10**15):
            counts = integer_quantize(code, resolution).counts
            assert int(counts.sum()) == resolution and counts.min() >= 0
            assert np.max(np.abs(counts / resolution - p)) <= 1.0 / resolution + e

    def test_extra_units_come_back_from_the_last_tied_fields(self):
        # The mirror of the largest-remainder rule: the floors 333333333334
        # sum two units past the resolution, and the ties give them back
        # from the highest indices.
        code = SimplexCode([1 / 3 + 1e-12] * 3, 1.0)
        counts = integer_quantize(code, 10**12).counts
        assert counts.tolist() == [333333333334, 333333333333, 333333333333]

    def test_quantization_error_bound(self):
        rng = np.random.default_rng(33)
        vectors = rng.normal(size=(2, 6))
        fam = family_from(*vectors.T)
        for resolution in (1, 5, 50):
            target = vectors @ rng.uniform(0.0, 1.0, size=6)
            code = simplex_compress(fam, target)
            quantized = integer_quantize(code, resolution)
            approx = SimplexCode(quantized.counts / resolution, code.flow_time)
            gap = simplex_decompress(fam, code) - simplex_decompress(fam, approx)
            bound = code.flow_time * max(np.linalg.norm(v) for v in vectors.T) * 6 / resolution
            assert float(np.linalg.norm(gap)) <= bound + 1e-12

    def test_code_count_matches_enumeration(self):
        # stars and bars: count vectors of K nonnegative ints summing to N
        brute = sum(
            1
            for counts in itertools.product(range(5), repeat=3)
            if sum(counts) == 4
        )
        assert integer_code_count(3, 4) == brute == math.comb(6, 2)

    def test_integer_decompress_flow_time_choices(self):
        from lincoder import integer_decompress

        fam = family_from([1.0, 0.0], [0.0, 1.0])
        code = simplex_compress(fam, [0.6, 0.2])
        quantized = integer_quantize(code, 4)
        carried = integer_decompress(fam, quantized, code.flow_time)
        assert np.allclose(carried, code.flow_time * (quantized.counts / 4))
        # full-interval convention: the caller passes the sampling interval
        full = integer_decompress(fam, quantized, 1.0)
        assert np.allclose(full, quantized.counts / 4)


def uniform_codes(steps, size):
    """Averaged-only codes moving every step by 0.1 * mean field."""
    return StepCodes(
        np.full((steps, size), 1.0 / size),
        np.full(steps, 0.1),
        np.ones(steps, dtype=int),
        np.zeros(steps, dtype=int),
    )


# Each entry point that takes a count, as a function of that count alone.
COUNT_CALLS = {
    "integer_quantize": lambda n: integer_quantize(SimplexCode([0.5, 0.5], 1.0), n).counts,
    "IntegerCode": lambda n: IntegerCode([0, n], n).counts,
    "emulate_steps": lambda n: emulate_steps(
        uniform_codes(3, 2), family_from([1.0, 0.0], [0.0, 1.0]), [0.0, 0.0], n, 0
    ),
    "onehot_compress": lambda n: onehot_compress(
        family_from([1.0, 0.0], [0.0, 1.0]), [1.0, 1.0], n, 1.0
    ),
    "onehot_code_rate_bits": lambda n: onehot_code_rate_bits(24, n, 1),
    "integer_code_count": lambda n: integer_code_count(3, n),
}


class TestCountArguments:
    @pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS.keys())
    @pytest.mark.parametrize(
        "count",
        [2.7, 3.0, True, np.True_, 0, -1, "3"],
        ids=["fraction", "integral-float", "bool", "numpy-bool", "zero", "negative", "string"],
    )
    def test_refuses_anything_but_a_positive_integer(self, call, count):
        with pytest.raises(ValueError, match="must be a positive integer"):
            call(count)

    @pytest.mark.parametrize("call", COUNT_CALLS.values(), ids=COUNT_CALLS.keys())
    def test_numpy_integers_count_as_python_integers(self, call):
        assert np.array_equal(call(np.int64(3)), call(3))
        assert np.array_equal(call(np.uint8(3)), call(3))

    @pytest.mark.parametrize(
        "counts", [[1.5, 0.5], [1.0, 0.0], [True, False]], ids=["fraction", "float", "bool"]
    )
    def test_integer_code_refuses_counts_that_are_not_integers(self, counts):
        with pytest.raises(ValueError, match="counts must be integers"):
            IntegerCode(counts, 1)


def single_field_dataset(vector, flow_time, steps, trials):
    """Deterministic dataset whose every increment is flow_time * vector."""
    vector = np.asarray(vector, dtype=float)
    start = np.zeros_like(vector)
    path = np.array([start + k * flow_time * vector for k in range(steps + 1)])
    states = np.broadcast_to(path, (trials, steps + 1, vector.size)).copy()
    return TrajectoryDataset(0.1, states)


def half_plane_codes(per_trial, steps=30):
    """Codes of 3 sampled trials for fields spanning only the half-plane y >= 0.

    About one step in eight has no feasible trial and draws no trial pick.
    """
    model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
    data = sample_paths(model, [0.0, 0.0], 0.01, steps=steps, trials=3, seed=3)
    codes = compress_dataset(data, family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]))
    if per_trial:
        return codes
    return StepCodes(
        codes.probabilities, codes.flow_times, codes.feasible_trials, codes.infeasible_trials
    )


def first_steps(codes, k):
    fields = (getattr(codes, f.name) for f in dataclasses.fields(codes))
    return StepCodes(*(None if value is None else value[:k] for value in fields))


class TestEmulate:
    def test_single_field_flow_is_reproduced_exactly(self):
        fam = family_from([1.0, 2.0], [0.0, -1.0])
        data = single_field_dataset([1.0, 2.0], 0.05, steps=10, trials=4)
        result = emulate(data, fam, resolution=7, seed=42)
        assert result.codes.infeasible_count == 0
        assert np.max(np.abs(result.states - data.states[0])) <= 1e-12

    def test_determinism(self):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        data = sample_paths(model, [1.0, 1.0], 0.01, steps=30, trials=8, seed=3)
        fam = planar_grid_family()
        a = emulate(data, fam, resolution=50, seed=77)
        b = emulate(data, fam, resolution=50, seed=77)
        assert np.array_equal(a.states, b.states)
        c = emulate(data, fam, resolution=50, seed=78)
        assert not np.array_equal(a.states, c.states)

    def test_starts_at_mean_initial_state(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])
        states = np.zeros((2, 3, 2))
        states[0, :, :] = [[0.0, 0.0], [0.1, 0.0], [0.2, 0.0]]
        states[1, :, :] = [[2.0, 2.0], [2.1, 2.0], [2.2, 2.0]]
        data = TrajectoryDataset(0.1, states)
        result = emulate(data, fam, resolution=5, seed=0)
        assert np.allclose(result.states[0], [1.0, 1.0])

    def test_infeasible_increments_are_skipped_and_counted(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])  # cone = first quadrant
        states = np.zeros((2, 2, 2))
        states[0, 1] = [0.5, 0.5]  # feasible increment
        states[1, 1] = [-1.0, 0.0]  # infeasible increment
        data = TrajectoryDataset(0.1, states)
        codes = compress_dataset(data, fam)
        assert codes.infeasible_count == 1
        assert codes.feasible_trials[0] == 1
        # averaged code reflects the feasible trial only
        assert codes.flow_times[0] == pytest.approx(1.0, abs=1e-9)

    def test_averages_keep_the_bits_of_nan_skipping_sums(self):
        # 50 trials, a share of them outside the 150-degree cone: the averages
        # must round as sums that skip the infeasible trials' NaN codes.
        angles = np.deg2rad(np.linspace(-75.0, 75.0, 9))
        fam = SourceFamily(np.vstack([np.cos(angles), np.sin(angles)]))
        model = LinearSystemModel.constant(-np.eye(2), np.eye(2))
        data = sample_paths(model, [1.0, 1.0], 0.01, 40, 50, 7)
        codes = compress_dataset(data, fam)
        assert 0 < codes.infeasible_count < codes.trial_feasible.size
        good = np.maximum(codes.feasible_trials, 1)
        probabilities = np.nansum(codes.trial_probabilities, axis=1) / good[:, None]
        probabilities[codes.feasible_trials == 0] = 1.0 / fam.size
        assert np.array_equal(codes.probabilities, probabilities)
        _, trial_flow_times = emulation._simplex_codes(fam, data.increments().swapaxes(0, 1))
        assert np.array_equal(codes.flow_times, np.nansum(trial_flow_times, axis=1) / good)

    def test_all_infeasible_step_holds_still(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])
        states = np.zeros((1, 2, 2))
        states[0, 1] = [-1.0, -1.0]
        data = TrajectoryDataset(0.1, states)
        result = emulate(data, fam, resolution=3, seed=5)
        assert result.codes.infeasible_count == 1
        assert np.array_equal(result.states[1], result.states[0])

    def test_multinomial_variance_scales_inversely_with_resolution(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])
        p = np.tile(np.array([0.4, 0.3, 0.2, 0.1]), (1, 1))
        codes = StepCodes(p, np.array([1.0]), np.array([1]), np.array([0]))
        draws = 400

        def increment_variance(resolution):
            increments = np.array(
                [
                    np.diff(emulate_steps(codes, fam, [0.0, 0.0], resolution, seed), axis=0)[0]
                    for seed in range(draws)
                ]
            )
            return increments.var(axis=0).sum()

        v_small = increment_variance(4)
        v_large = increment_variance(64)
        assert v_small / v_large == pytest.approx(16.0, rel=0.35)

    def test_averaged_codes_replay_as_one_pseudo_trial(self):
        # Codes without per-trial fractions draw no trial index: each step is
        # the next Mult(R, p_bar) of cell (0, 1), decompressed at the flow time.
        rng = np.random.default_rng(4)
        fam = planar_grid_family()
        vectors = fam.field_matrix()
        steps = 25
        codes = StepCodes(
            rng.dirichlet(np.full(fam.size, 0.3), size=steps),
            rng.uniform(0.005, 0.015, steps),
            np.full(steps, 3),
            np.zeros(steps, dtype=int),
        )
        for resolution in (1, 7):
            x = np.array([0.5, -1.0])
            expected = [x]
            bits = np.random.Philox(counter=[0, 1, 0, 0], key=[9, EMULATION_LANE])
            cell = np.random.Generator(bits)
            for step in range(steps):
                p = np.clip(codes.probabilities[step], 0.0, None)
                p /= p.sum()
                counts = cell.multinomial(resolution, p)
                x = x + codes.flow_times[step] * (vectors @ (counts / resolution))
                expected.append(x)
            replay = emulate_steps(codes, fam, [0.5, -1.0], resolution, 9)
            assert np.array_equal(replay, np.array(expected))

    @pytest.mark.parametrize("per_trial", [True, False], ids=["per-trial", "averaged"])
    def test_replay_of_first_steps_is_a_prefix(self, per_trial):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        codes = half_plane_codes(per_trial)
        assert 0 < np.count_nonzero(codes.feasible_trials == 0) < codes.steps
        full = emulate_steps(codes, fam, [1.0, 1.0], 7, 11)
        for k in (1, 12, 29):
            prefix = emulate_steps(first_steps(codes, k), fam, [1.0, 1.0], 7, 11)
            assert np.array_equal(prefix, full[: k + 1])

    @pytest.mark.parametrize("steps", [1, 300])
    def test_replay_positions_two_cells(self, monkeypatch, steps):
        positioned = []
        monkeypatch.setattr(
            emulation, "substream", lambda *args: positioned.append(1) or substream(*args)
        )
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        emulate_steps(half_plane_codes(True, steps), fam, [1.0, 1.0], 7, 11)
        assert len(positioned) <= 2

    @pytest.mark.parametrize("flow_time", [-0.01, np.inf, np.nan])
    def test_replay_rejects_bad_flow_time(self, flow_time):
        fam = planar_grid_family()
        flow_times = np.full(5, 0.01)
        flow_times[3] = flow_time
        probabilities = np.full((5, fam.size), 1.0 / fam.size)
        codes = StepCodes(probabilities, flow_times, np.full(5, 1), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            emulate_steps(codes, fam, [0.0, 0.0], 3, 0)

    def test_replay_rejects_code_length_mismatch(self):
        fam = planar_grid_family()
        probabilities = np.full((5, fam.size - 1), 1.0 / (fam.size - 1))
        codes = StepCodes(probabilities, np.full(5, 0.01), np.full(5, 1), np.zeros(5, dtype=int))
        with pytest.raises(ValueError):
            emulate_steps(codes, fam, [0.0, 0.0], 3, 0)

    @pytest.mark.parametrize("seed", [1.5, True])
    def test_replay_seed_must_be_an_integer(self, seed):
        # A float or bool seed would otherwise be truncated to seed 1's replay.
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        with pytest.raises(ValueError, match="^seed must be an unsigned 64-bit integer$"):
            emulate_steps(half_plane_codes(True), fam, [1.0, 1.0], 7, seed)

    def test_replay_takes_the_largest_numpy_seed(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0])
        codes = half_plane_codes(True)
        plain = emulate_steps(codes, fam, [1.0, 1.0], 7, 2**64 - 1)
        numpy = emulate_steps(codes, fam, [1.0, 1.0], 7, np.uint64(2**64 - 1))
        assert plain.tobytes() == numpy.tobytes()

    def test_each_step_replays_one_trial_not_their_average(self):
        # Three trials move along e1, e2 and -e1 at the same flow time.  The
        # averaged code would move by about (0, z/3) at high resolution; the
        # replay must move by exactly one trial's increment at every step.
        fam = family_from([1.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0])
        z, steps = 0.05, 40
        directions = np.array([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        states = np.zeros((3, steps + 1, 2))
        for trial, direction in enumerate(directions):
            states[trial] = np.outer(np.arange(steps + 1) * z, direction)
        data = TrajectoryDataset(0.1, states)
        result = emulate(data, fam, resolution=1000, seed=6)
        moves = np.diff(result.states, axis=0)
        gaps = np.linalg.norm(moves[:, None, :] - z * directions[None], axis=2)
        assert np.all(gaps.min(axis=1) <= 1e-12)
        assert set(np.argmin(gaps, axis=1)) == {0, 1, 2}
        average = z * directions.mean(axis=0)
        assert np.all(np.linalg.norm(moves - average, axis=1) >= 0.5 * z)

    def test_infeasible_trial_code_is_never_replayed(self):
        fam = family_from([1.0, 0.0], [0.0, 1.0])  # cone = first quadrant
        states = np.zeros((3, 3, 2))
        states[:, 1] = [[0.1, 0.0], [0.0, 0.1], [-0.1, 0.0]]  # trial 2 infeasible
        states[:, 2] = states[:, 1] + [[0.1, 0.0], [0.0, 0.1], [0.1, 0.0]]
        codes = compress_dataset(TrajectoryDataset(0.1, states), fam)
        assert codes.trial_feasible.tolist() == [[True, True, False], [True, True, True]]
        assert codes.flow_times[0] == pytest.approx(0.1, abs=1e-12)
        feasible_moves = np.array([[0.1, 0.0], [0.0, 0.1]])
        seen = set()
        for seed in range(100):
            move = np.diff(emulate_steps(codes, fam, [0.0, 0.0], 50, seed), axis=0)[0]
            gaps = np.max(np.abs(move - feasible_moves), axis=1)
            assert gaps.min() <= 1e-12
            seen.add(int(np.argmin(gaps)))
        assert seen == {0, 1}

    def test_dataset_codes_match_per_increment_codes(self):
        # The tolerances of the benchmark's emulate-compress oracle.
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        data = sample_paths(model, [1.0, 1.0], 0.01, steps=40, trials=6, seed=12)
        angles = np.deg2rad(np.linspace(-75.0, 75.0, 9)) + 1.0
        cone = family_from(*np.column_stack([np.cos(angles), np.sin(angles)]))
        for fam in (planar_grid_family(), cone):
            codes = compress_dataset(data, fam)
            increments = data.increments()
            for step in range(data.steps):
                p_sum, z_sum, good = np.zeros(fam.size), 0.0, 0
                for trial in range(data.trials):
                    try:
                        code = simplex_compress(fam, increments[trial, step])
                    except InfeasibleTargetError:
                        assert not codes.trial_feasible[step, trial]
                        continue
                    assert codes.trial_feasible[step, trial]
                    assert np.allclose(
                        codes.trial_probabilities[step, trial],
                        code.probabilities,
                        rtol=0,
                        atol=1e-12,
                    )
                    p_sum += code.probabilities
                    z_sum += code.flow_time
                    good += 1
                assert codes.feasible_trials[step] == good
                assert codes.infeasible_trials[step] == data.trials - good
                if good:
                    assert np.allclose(codes.probabilities[step], p_sum / good, rtol=0, atol=1e-12)
                    assert abs(codes.flow_times[step] - z_sum / good) <= 1e-15
        assert 0 < codes.infeasible_count < data.trials * data.steps

    def test_dimension_mismatch_rejected(self):
        fam = family_from([1.0])
        data = single_field_dataset([1.0, 0.0], 0.1, steps=2, trials=1)
        with pytest.raises(ValueError):
            emulate(data, fam, resolution=3, seed=0)


def reference_replay_statistics(dataset, result, family, resolution):
    """Per-step loop over the replay statistics: the oracle for the batched version."""
    increments = dataset.increments()
    gap = np.diff(result.states, axis=0) - increments.mean(axis=0)
    scale = np.sqrt(np.mean(np.sum(increments**2, axis=2), axis=0)) + 1e-300
    mean_rms = float(np.sqrt(np.mean((np.linalg.norm(gap, axis=1) / scale) ** 2)))
    if dataset.trials < 2:
        return mean_rms, None, None
    vectors = family.field_matrix()
    codes = result.codes
    cov_gaps = []
    for k in range(dataset.steps):
        train_cov = np.cov(increments[:, k, :], rowvar=False)
        p = codes.trial_probabilities[k][codes.trial_feasible[k]]
        if len(p) == 0:
            model_cov = np.zeros_like(train_cov)  # the replay holds still
        else:
            fields = p @ vectors.T
            mean_field = fields.mean(axis=0)
            second_moment = fields.T @ fields / len(p)
            spread = second_moment - np.outer(mean_field, mean_field)
            multinomial = (vectors * p.mean(axis=0)) @ vectors.T - second_moment
            model_cov = codes.flow_times[k] ** 2 * (spread + multinomial / resolution)
        distance = np.linalg.norm(model_cov - train_cov)
        floor = COV_SCALE_RTOL * np.mean(np.sum(increments[:, k, :] ** 2, axis=1))
        cov_gaps.append(distance / max(np.linalg.norm(train_cov), floor) if distance else 0.0)
    centered = increments - increments.mean(axis=0, keepdims=True)
    pooled = np.einsum("lkn,lkm->nm", centered, centered) / (
        dataset.steps * (dataset.trials - 1)
    )
    return mean_rms, float(np.sqrt(np.mean(np.square(cov_gaps)))), 0.5 * (pooled + pooled.T)


class TestReplayStatistics:
    def assert_matches_reference(self, data, fam, resolution):
        result = emulate(data, fam, resolution, seed=42)
        mean_rms, cov_rms, pooled = replay_statistics(data, result, fam, resolution)
        ref_mean, ref_cov, ref_pooled = reference_replay_statistics(data, result, fam, resolution)
        assert mean_rms == ref_mean
        assert cov_rms == pytest.approx(ref_cov, rel=1e-12, abs=0.0)
        assert np.max(np.abs(pooled - ref_pooled)) <= 1e-12 * np.max(np.abs(ref_pooled))
        return result

    @pytest.mark.parametrize("trials", [3, 50])
    @pytest.mark.parametrize("resolution", [1, 100])
    def test_matches_per_step_reference(self, trials, resolution):
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        data = sample_paths(model, [1.0, 1.0], 0.01, steps=300, trials=trials, seed=7)
        self.assert_matches_reference(data, planar_grid_family(), resolution)

    @pytest.mark.parametrize("resolution", [1, 7])
    def test_partial_cone_with_all_infeasible_step(self, resolution):
        fam = family_from([1.0, 0.0], [0.0, 1.0], [1.0, 1.0])  # cone = first quadrant
        increments = np.random.default_rng(3).uniform(0.01, 0.1, (4, 6, 2))
        increments[:, 2] *= -1.0  # no trial can be compressed at step 2
        increments[0, 4, 0] *= -1.0  # one trial out of the cone at step 4
        states = np.concatenate([np.zeros((4, 1, 2)), np.cumsum(increments, axis=1)], axis=1)
        result = self.assert_matches_reference(TrajectoryDataset(0.1, states), fam, resolution)
        assert result.codes.feasible_trials.tolist() == [4, 4, 0, 4, 3, 4]

    def test_averaged_only_codes_score_as_their_pseudo_trial(self):
        # emulate_steps replays codes without per-trial fractions as one
        # trial with the averaged fractions; they score as that trial would.
        model = LinearSystemModel.constant([[-0.5, 1.0], [-1.0, -0.5]], 0.01 * np.eye(2))
        data = sample_paths(model, [1.0, 1.0], 0.01, steps=40, trials=5, seed=7)
        fam = planar_grid_family()
        codes = compress_dataset(data, fam)
        averaged = StepCodes(
            codes.probabilities, codes.flow_times, codes.feasible_trials, codes.infeasible_trials
        )
        one_trial = StepCodes(
            codes.probabilities,
            codes.flow_times,
            np.ones(codes.steps, dtype=int),
            np.zeros(codes.steps, dtype=int),
            codes.probabilities[:, None],
            np.ones((codes.steps, 1), dtype=bool),
        )
        x0 = data.states[:, 0].mean(axis=0)
        results = [
            emulation.EmulationResult(emulate_steps(c, fam, x0, 4, 3), c)
            for c in (averaged, one_trial)
        ]
        assert np.array_equal(results[0].states, results[1].states)
        scores = [replay_statistics(data, result, fam, 4) for result in results]
        assert scores[0][:2] == scores[1][:2] and np.array_equal(scores[0][2], scores[1][2])
        assert 0.0 < scores[0][1] < math.inf

    def test_single_trial_has_no_covariance_statistics(self):
        data = single_field_dataset([1.0, 0.5], 0.1, steps=4, trials=1)
        fam = planar_grid_family()
        result = emulate(data, fam, 3, seed=1)
        mean_rms, cov_rms, pooled = replay_statistics(data, result, fam, 3)
        assert (cov_rms, pooled) == (None, None)
        assert mean_rms == reference_replay_statistics(data, result, fam, 3)[0]
