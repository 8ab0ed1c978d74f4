import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from barseg import segment

from dp_oracle import enumerate_best_score, loop_dp_segment, loop_segment_cost


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


@st.composite
def symmetric_matrices(draw):
    """b x b symmetric A with b <= 14, entries in [-1, 1] and a unit diagonal."""
    b = draw(st.integers(1, 14))
    M = draw(arrays(np.float64, (b, b), elements=st.floats(-1.0, 1.0)))
    A = (M + M.T) / 2
    np.fill_diagonal(A, 1.0)
    return A


class TestDpOracleProperty:
    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(symmetric_matrices())
    def test_dp_score_equals_exhaustive_oracle(self, A):
        assume(segment.compute_ck8max(A) > 0)
        assert abs(segment.dp_segment(A).total_score - enumerate_best_score(A)) <= 1e-12


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

    def test_dp_holds_no_kernel_after_it_returns(self):
        # A kernel lives while its size is scored: a DP over every size to
        # 200 bars would otherwise keep about 21 MB of them.
        A = segment.cosine_autosimilarity(np.random.default_rng(6).random((5, 200)))
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            segment.dp_segment(A, max_segment=200)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert held < 1 << 20

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

    @pytest.mark.parametrize("n", [7, 28])
    def test_numpy_and_python_int_indices_give_the_same_bits(self, n):
        # NumPy's int64 ** 1.5 and Python's int ** 1.5 differ in the last bit at these sizes.
        A = random_autosimilarity(np.random.default_rng(n), 30)
        python_int = segment.segment_cost(A, 0, n)
        numpy_int = segment.segment_cost(A, np.int64(0), np.int64(n))
        assert numpy_int.hex() == python_int.hex() == loop_segment_cost(A, 0, n).hex()

    def test_every_window_matches_the_single_block_sum(self):
        A = np.round(random_autosimilarity(np.random.default_rng(3), 40), 2)
        for n in range(1, 41):
            for t in range(0, 41 - n, 5):
                assert segment.segment_cost(A, t, t + n).hex() == loop_segment_cost(A, t, t + n).hex(), (t, n)


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

    @pytest.mark.parametrize("b", [1, 3, 7, 8, 9, 33])
    def test_equals_the_max_over_segment_cost_windows(self, b):
        A = random_autosimilarity(np.random.default_rng(b), b)
        size = min(8, b)
        windows = [segment.segment_cost(A, t, t + size) for t in range(b - size + 1)]
        assert segment.compute_ck8max(A).hex() == max(windows).hex()
        assert max(windows).hex() == max(loop_segment_cost(A, t, t + size) for t in range(b - size + 1)).hex()


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


def _alternating(b):
    """Bars at cosine -1 to their neighbours, so every window's cost, and c_k8_max, is negative."""
    signs = (-1.0) ** np.arange(b)
    return np.outer(signs, signs)


class TestDpMatchesLoop:
    """`dp_segment` gives the boundaries and total_score bits of the per-segment double loop."""

    @staticmethod
    def assert_same(A, max_segment=segment.DEFAULT_MAX_SEGMENT):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            seg = segment.dp_segment(A, max_segment)
        bounds, score = loop_dp_segment(A, max_segment)
        assert seg.boundaries_bars.tolist() == bounds
        assert seg.total_score.hex() == score.hex()

    @pytest.mark.parametrize("b, max_segment, rounded", [
        (40, 32, False), (60, 32, True), (1, 32, False), (2, 32, False), (5, 32, True), (7, 32, False),
        (24, 1, False), (20, 50, True), (29, 28, False), (64, 40, True), (150, 100, False),
    ])
    def test_random(self, b, max_segment, rounded):
        A = random_autosimilarity(np.random.default_rng(b * 1000 + max_segment), b)
        # Rounding to two decimals makes many candidates tie.
        self.assert_same(np.round(A, 2) if rounded else A, max_segment)

    def test_block_ties(self):
        A = np.zeros((48, 48))
        for lo in range(0, 48, 8):
            A[lo:lo + 8, lo:lo + 8] = 1.0
        self.assert_same(A)
        self.assert_same(np.ones((48, 48)))

    @pytest.mark.parametrize("b", [6, 8, 30])
    def test_rescaled_cosine_path(self, b):
        assert segment.compute_ck8max(_alternating(b)) < 0
        self.assert_same(_alternating(b))

    @pytest.mark.parametrize("b", [2, 8, 30])
    def test_all_zero_path(self, b):
        self.assert_same(np.zeros((b, b)))

    def test_chunked_windows(self, monkeypatch):
        # Windows summed a few at a time give the bits of one pass.
        monkeypatch.setattr(segment, "_WINDOW_VALUES", 50)
        self.assert_same(np.round(random_autosimilarity(np.random.default_rng(9), 45), 2), 40)

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(symmetric_matrices(), st.integers(1, 16))
    def test_property(self, A, max_segment):
        self.assert_same(A, max_segment)


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

    def test_anticorrelated_sections_segment_the_rescaled_cosine(self):
        # Two 4-bar sections at cosine -1 to each other: c_k8_max < 0.
        A = np.ones((8, 8))
        A[:4, 4:] = A[4:, :4] = -1.0
        assert segment.compute_ck8max(A) < 0
        with pytest.warns(UserWarning, match=r"^c_k8_max=-0\.\d+ is not positive; segmenting the rescaled cosine"):
            seg = segment.dp_segment(A)
        assert np.array_equal(seg.boundaries_bars, [0, 4, 8])
        assert seg.total_score == segment.dp_segment((A + 1.0) / 2.0).total_score

    def test_all_zero_autosimilarity_is_one_segment(self):
        with pytest.warns(UserWarning, match=r"c_k8_max=0\.0 is not positive; one segment"):
            seg = segment.dp_segment(np.zeros((8, 8)))
        assert np.array_equal(seg.boundaries_bars, [0, 8]) and seg.total_score == 0.0

    def test_single_bar(self):
        seg = segment.dp_segment(np.ones((1, 1)))
        assert np.array_equal(seg.boundaries_bars, [0, 1])

    @pytest.mark.parametrize("max_segment", [0, -3])
    def test_max_segment_below_one_rejected(self, max_segment):
        with pytest.raises(ValueError, match=f"max_segment must be >= 1, got {max_segment}"):
            segment.dp_segment(np.ones((8, 8)), max_segment=max_segment)

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
        with pytest.raises(ValueError, match="boundaries must start at 0"):
            segment.Segmentation(np.array([]), 0.0)
