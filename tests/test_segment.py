import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from barseg import segment


def brute_force_best(A, max_segment=32):
    """Oracle: enumerate every boundary subset and maximize the total score."""
    b = A.shape[0]
    c8 = segment.compute_ck8max(A)
    best_score, best_bounds = -np.inf, None
    for mask in itertools.product([0, 1], repeat=b - 1):
        bounds = [0] + [i + 1 for i, m in enumerate(mask) if m] + [b]
        if max(np.diff(bounds)) > max_segment:
            continue
        score = sum(
            segment.segment_score(A, lo, hi, c8) for lo, hi in zip(bounds[:-1], bounds[1:])
        )
        # Ties break toward the segmentation the DP picks (larger last j);
        # for the oracle we only compare total scores.
        if score > best_score:
            best_score, best_bounds = score, bounds
    return best_score, best_bounds


def random_autosimilarity(rng, b):
    M = rng.uniform(-1, 1, size=(b, b))
    A = (M + M.T) / 2
    np.fill_diagonal(A, 1.0)
    return np.clip(A, -1, 1)


class TestCosineAutosimilarity:
    def test_identical_columns(self):
        Z = np.array([[1.0, 1.0], [2.0, 2.0]])
        A = segment.cosine_autosimilarity(Z)
        assert A[0, 1] == pytest.approx(1.0)

    def test_orthogonal_columns(self):
        Z = np.array([[1.0, 0.0], [0.0, 1.0]])
        A = segment.cosine_autosimilarity(Z)
        assert A[0, 1] == 0.0

    def test_45_degree_column(self):
        r = 1 / np.sqrt(2)
        Z = np.array([[1.0, 0.0, r], [0.0, 1.0, r]])
        A = segment.cosine_autosimilarity(Z)
        assert A[0, 2] == pytest.approx(r)
        assert A[1, 2] == pytest.approx(r)

    def test_zero_norm_column_zeroed(self):
        Z = np.array([[1.0, 0.0], [1.0, 0.0]])
        A = segment.cosine_autosimilarity(Z)
        assert np.all(A[:, 1] == 0.0)
        assert np.all(A[1, :] == 0.0)
        assert A[1, 1] == 0.0
        assert A[0, 0] == 1.0

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(0)
        Z = rng.standard_normal((6, 40))
        A = segment.cosine_autosimilarity(Z)
        assert np.abs(A - A.T).max() < 1e-12
        assert A.min() >= -1.0 and A.max() <= 1.0
        assert np.allclose(np.diag(A), 1.0)


# Entries are 0 or of magnitude 1e-3..1e3, so column norms neither overflow nor underflow.
entries = st.just(0.0) | st.floats(1e-3, 1e3) | st.floats(-1e3, -1e-3)


@st.composite
def embeddings(draw):
    """d x b finite Z with no zero column, a column index and a positive scale."""
    d, b = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    Z = draw(arrays(np.float64, (d, b), elements=entries))
    Z[0, ~np.any(Z != 0, axis=0)] = 1.0
    return Z, draw(st.integers(0, b - 1)), draw(st.floats(1e-3, 1e3))


class TestCosineAutosimilarityProperties:
    @settings(derandomize=True, deadline=None)
    @given(embeddings())
    def test_symmetric_unit_diagonal_bounded_scale_invariant(self, case):
        Z, j, scale = case
        A = segment.cosine_autosimilarity(Z)
        assert np.array_equal(A, A.T)
        assert np.all(np.diag(A) == 1.0)
        assert A.min() >= -1.0 and A.max() <= 1.0
        scaled = Z.copy()
        scaled[:, j] *= scale
        assert np.abs(segment.cosine_autosimilarity(scaled) - A).max() <= 1e-12

    @settings(derandomize=True, deadline=None)
    @given(embeddings())
    def test_zero_column_gives_zero_row_and_column(self, case):
        Z, j, _ = case
        Z[:, j] = 0.0
        A = segment.cosine_autosimilarity(Z)
        assert np.all(A[j, :] == 0.0) and np.all(A[:, j] == 0.0)


class TestKernelPenalty:
    def test_kernel_size_10_matches_band_structure(self):
        K = segment.kernel(10)
        for i in range(10):
            for j in range(10):
                d = abs(i - j)
                expected = 0.0 if d == 0 else (2.0 if d <= 4 else 1.0)
                assert K[i, j] == expected

    def test_kernel_size_4_all_band(self):
        K = segment.kernel(4)
        assert np.all(K[~np.eye(4, dtype=bool)] == 2.0)
        assert np.all(np.diag(K) == 0.0)

    def test_kernel_size_1(self):
        assert np.array_equal(segment.kernel(1), [[0.0]])

    def test_kernel_closed_form_1_to_64(self):
        for n in range(1, 65):
            K = segment.kernel(n)
            dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
            expected = np.where(dist == 0, 0.0, np.where(dist <= 4, 2.0, 1.0))
            assert np.array_equal(K, expected), f"kernel({n})"

    def test_penalty_values(self):
        assert segment.penalty(8) == 0.0
        assert segment.penalty(4) == 0.25
        assert segment.penalty(2) == 0.5
        assert segment.penalty(10) == 0.5
        assert segment.penalty(7) == 1.0
        assert segment.penalty(1) == 1.0

    def test_penalty_closed_form_1_to_64(self):
        for n in range(1, 65):
            if n == 8:
                expected = 0.0
            elif n == 4:
                expected = 0.25
            elif n % 2 == 0:
                expected = 0.5
            else:
                expected = 1.0
            assert segment.penalty(n) == expected, f"penalty({n})"


class TestSegmentCost:
    def test_all_ones_block_of_4(self):
        A = np.ones((6, 6))
        # Raw kernel sum: 12 off-diagonal pairs, all weight 2 -> 24;
        # normalized by n**1.5.
        assert segment.segment_cost(A, 0, 4) == pytest.approx(24.0 / 4**segment.COST_NORM_EXPONENT)

    def test_identity_costs_zero(self):
        A = np.eye(10)
        for n in (1, 3, 8):
            assert segment.segment_cost(A, 0, n) == 0.0

    def test_single_bar_costs_zero(self):
        A = np.ones((5, 5))
        assert segment.segment_cost(A, 2, 3) == 0.0

    def test_out_of_range_rejected(self):
        A = np.eye(4)
        with pytest.raises(ValueError):
            segment.segment_cost(A, 2, 6)
        with pytest.raises(ValueError):
            segment.segment_cost(A, 3, 3)


class TestCk8Max:
    def test_uniform_matrix(self):
        A = np.ones((12, 12))
        common = segment.segment_cost(A, 0, 8)
        assert segment.compute_ck8max(A) == pytest.approx(common)

    def test_identity_is_degenerate(self):
        A = np.eye(12)
        assert segment.compute_ck8max(A) == 0.0
        with pytest.raises(ValueError, match="degenerate"):
            segment.segment_score(A, 0, 8, segment.compute_ck8max(A))

    def test_max_attained_on_dense_block(self):
        A = np.zeros((20, 20))
        A[6:14, 6:14] = 1.0
        np.fill_diagonal(A, 1.0)
        # Oracle: enumerate all size-8 windows.
        costs = [segment.segment_cost(A, t, t + 8) for t in range(13)]
        assert segment.compute_ck8max(A) == pytest.approx(max(costs))
        assert int(np.argmax(costs)) == 6

    def test_short_matrix_uses_full_size(self):
        A = np.ones((5, 5))
        assert segment.compute_ck8max(A) == pytest.approx(segment.segment_cost(A, 0, 5))


class TestSegmentScore:
    def test_normalization_fixed_point(self):
        A = np.ones((16, 16))
        c8 = segment.compute_ck8max(A)
        assert segment.segment_score(A, 0, 8, c8) == pytest.approx(1.0)

    def test_cost_zero_odd_segment(self):
        A = np.eye(16)
        assert segment.segment_score(A, 0, 7, 1.0) == pytest.approx(-1.0)

    def test_nonpositive_ck8_rejected(self):
        A = np.eye(8)
        with pytest.raises(ValueError):
            segment.segment_score(A, 0, 4, 0.0)


class TestDpSegment:
    def test_two_blocks_of_8(self):
        A = np.zeros((16, 16))
        A[:8, :8] = 1.0
        A[8:, 8:] = 1.0
        seg = segment.dp_segment(A)
        assert np.array_equal(seg.boundaries_bars, [0, 8, 16])
        score, _ = brute_force_best(A)
        assert seg.total_score == pytest.approx(score, abs=1e-12)

    def test_uniform_8_stays_single_segment(self):
        A = np.ones((8, 8))
        seg = segment.dp_segment(A)
        assert np.array_equal(seg.boundaries_bars, [0, 8])
        score, bounds = brute_force_best(A)
        assert bounds == [0, 8]
        assert seg.total_score == pytest.approx(score, abs=1e-12)

    def test_single_bar(self):
        seg = segment.dp_segment(np.ones((1, 1)))
        assert np.array_equal(seg.boundaries_bars, [0, 1])

    def test_oracle_equivalence_random(self):
        rng = np.random.default_rng(42)
        for trial in range(20):
            b = int(rng.integers(6, 13))
            A = random_autosimilarity(rng, b)
            if segment.compute_ck8max(A) <= 0:
                continue
            seg = segment.dp_segment(A)
            score, _ = brute_force_best(A)
            assert seg.total_score == pytest.approx(score, abs=1e-12), f"trial {trial}"

    def test_scale_invariance_of_boundaries(self):
        rng = np.random.default_rng(7)
        Z = rng.random((8, 24))
        for alpha in (0.01, 1.0, 250.0):
            A = segment.cosine_autosimilarity(alpha * Z)
            ref = segment.cosine_autosimilarity(Z)
            assert np.allclose(A, ref, atol=1e-12)
            a = segment.dp_segment(A)
            r = segment.dp_segment(ref)
            assert np.array_equal(a.boundaries_bars, r.boundaries_bars)

    def test_max_segment_enforced(self):
        A = np.ones((40, 40))
        seg = segment.dp_segment(A, max_segment=10)
        assert seg.segment_sizes().max() <= 10

    def test_segmentation_boundaries_validate(self):
        with pytest.raises(ValueError):
            segment.Segmentation(np.array([1, 5]), 0.0)
        with pytest.raises(ValueError):
            segment.Segmentation(np.array([0, 5, 5]), 0.0)
