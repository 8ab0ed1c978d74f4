import numpy as np
import pytest

from barseg import lowrank, segment


def eckart_young_error(X, d_c):
    """Oracle: best rank-d_c error of the centered matrix from the
    eigenvalues of its Gram matrix. pca_compress uses the same
    decomposition, so svd_tail_error is kept as an independent check."""
    centered = X - X.mean(axis=1, keepdims=True)
    eigvals = np.linalg.eigvalsh(centered.T @ centered)[::-1]
    return float(np.sqrt(np.maximum(eigvals[d_c:], 0.0).sum()))


def svd_tail_error(X, d_c):
    """Oracle: best rank-d_c error of the centered matrix from its singular
    values, computed by an SVD that pca_compress does not use."""
    centered = X - X.mean(axis=1, keepdims=True)
    return float(np.linalg.norm(np.linalg.svd(centered, compute_uv=False)[d_c:]))


def pca_svd_reference(X, d_c):
    """Reference: PCA from the thin SVD of the n x b centered matrix, as
    pca_compress computed it before the Gram-matrix eigendecomposition."""
    X = np.asarray(X, dtype=np.float64)
    n, b = X.shape
    if not (1 <= d_c <= min(n, b)):
        raise ValueError(f"d_c={d_c} out of range for a {n}x{b} matrix")
    mu = X.mean(axis=1)
    centered = X - mu[:, None]
    U, _, _ = np.linalg.svd(centered, full_matrices=False)
    W = U[:, :d_c]
    signs = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(d_c)])
    signs[signs == 0] = 1.0
    W = W * signs
    H = W.T @ centered
    return lowrank.LowRankModel(kind="pca", W=W, H=H, mu=mu)


def synthetic_barwise(seed, noise=0.3):
    """A 7680 x 120 nonnegative barwise matrix (80 bins x 96 frames per bar)
    in 8- and 16-bar sections of four repeated bar templates plus noise."""
    labels = "A" * 8 + "B" * 16 + "A" * 8 + "C" * 16 + "D" * 8 + "B" * 8 + "A" * 16 + "C" * 8 + "D" * 16 + "B" * 8 + "A" * 8
    rng = np.random.default_rng(seed)
    templates = {c: 3 * rng.random((80, 96)) ** 4 for c in "ABCD"}
    bars = [np.log1p(templates[c] * rng.uniform(0.8, 1.2) + noise * rng.random((80, 96))) for c in labels]
    return np.stack([bar.ravel() for bar in bars], axis=1)


class TestPCA:
    def test_identical_columns_give_zero_embedding(self):
        X = np.tile(np.random.default_rng(0).random(10)[:, None], (1, 6))
        model = lowrank.pca_compress(X, 3)
        assert np.allclose(model.H, 0.0, atol=1e-12)
        assert np.allclose(model.reconstruct(), X, atol=1e-12)

    def test_full_rank_exact_reconstruction(self):
        rng = np.random.default_rng(1)
        X = rng.random((20, 8))
        model = lowrank.pca_compress(X, 8)
        err = np.linalg.norm(X - model.reconstruct())
        assert err <= 1e-9 * np.linalg.norm(X)

    def test_eckart_young_50x30(self):
        rng = np.random.default_rng(2)
        X = rng.standard_normal((50, 30))
        model = lowrank.pca_compress(X, 5)
        err = np.linalg.norm(X - model.reconstruct())
        expected = eckart_young_error(X, 5)
        assert err == pytest.approx(expected, rel=1e-9)

    def test_eckart_young_20_random_matrices(self):
        rng = np.random.default_rng(3)
        for trial in range(20):
            X = rng.standard_normal((50, 30)) * rng.uniform(0.1, 10)
            d_c = int(rng.integers(1, 12))
            model = lowrank.pca_compress(X, d_c)
            err = np.linalg.norm(X - model.reconstruct())
            expected = eckart_young_error(X, d_c)
            assert err == pytest.approx(expected, rel=1e-9, abs=1e-12), f"trial {trial}"

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(4)
        model = lowrank.pca_compress(rng.random((30, 15)), 6)
        assert np.allclose(model.W.T @ model.W, np.eye(6), atol=1e-10)

    def test_uncorrelated_embedding_rows(self):
        rng = np.random.default_rng(5)
        model = lowrank.pca_compress(rng.standard_normal((40, 25)), 5)
        gram = model.H @ model.H.T
        off_diag = gram - np.diag(np.diag(gram))
        assert np.abs(off_diag).max() <= 1e-8 * np.abs(np.diag(gram)).max()

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(6)
        X = rng.random((20, 10))
        a = lowrank.pca_compress(X, 4)
        b = lowrank.pca_compress(X.copy(), 4)
        assert np.array_equal(a.W, b.W)
        for j in range(4):
            assert a.W[np.argmax(np.abs(a.W[:, j])), j] > 0

    def test_rank_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            lowrank.pca_compress(np.ones((5, 3)), 4)

    def test_svd_oracle_agrees(self):
        rng = np.random.default_rng(7)
        for shape, d_c in (((50, 30), 5), ((300, 40), 12), ((20, 60), 8)):
            X = rng.standard_normal(shape)
            err = np.linalg.norm(X - lowrank.pca_compress(X, d_c).reconstruct())
            assert err == pytest.approx(svd_tail_error(X, d_c), rel=1e-9)
            assert eckart_young_error(X, d_c) == pytest.approx(svd_tail_error(X, d_c), rel=1e-9)


class TestPCARankDeficient:
    """Components at the rounding floor get zero W columns and H rows."""

    def test_rank_two_at_dc_8(self):
        rng = np.random.default_rng(30)
        X = rng.standard_normal((200, 2)) @ rng.standard_normal((2, 40)) + rng.standard_normal((200, 1))
        model = lowrank.pca_compress(X, 8)
        assert np.all(model.H[2:] == 0.0)
        assert np.all(model.W[:, 2:] == 0.0)
        assert np.all(np.abs(model.H[:2]).max(axis=1) > 0)
        np.testing.assert_allclose(model.W[:, :2].T @ model.W[:, :2], np.eye(2), rtol=0, atol=1e-12)
        np.testing.assert_allclose(model.reconstruct(), X, rtol=0, atol=1e-12 * np.abs(X).max())

    def test_zero_matrix(self):
        model = lowrank.pca_compress(np.zeros((30, 12)), 4)
        assert np.all(model.W == 0.0) and np.all(model.H == 0.0) and np.all(model.mu == 0.0)
        assert np.all(model.reconstruct() == 0.0)

    def test_wide_matrix(self):
        X = np.random.default_rng(31).random((48, 120))
        model = lowrank.pca_compress(X, 40)
        assert np.all(np.isfinite(model.W)) and np.all(np.isfinite(model.H))
        err = np.linalg.norm(X - model.reconstruct())
        assert err == pytest.approx(svd_tail_error(X, 40), rel=1e-9)
        A = segment.cosine_autosimilarity(model.H)
        ref = segment.cosine_autosimilarity(pca_svd_reference(X, 40).H)
        np.testing.assert_allclose(A, ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1e150, 1e-150])
    def test_extreme_scale(self, scale):
        rng = np.random.default_rng(32)
        X = scale * (2.0 + rng.standard_normal((60, 25)))
        model = lowrank.pca_compress(X, 6)
        assert np.all(np.isfinite(model.W)) and np.all(np.isfinite(model.H))
        assert np.all(np.abs(model.H).max(axis=1) > 0)
        err = np.linalg.norm(X - model.reconstruct())
        assert err == pytest.approx(eckart_young_error(X, 6), rel=1e-9)
        np.testing.assert_allclose(model.W.T @ model.W, np.eye(6), rtol=0, atol=1e-12)


class TestPCAMatchesSVDReference:
    """The Gram-matrix PCA spans the SVD's components: the cosine
    autosimilarity of H, which is all the DP reads, agrees to 1e-12."""

    def assert_same_segmentation(self, X, d_c):
        A = segment.cosine_autosimilarity(lowrank.pca_compress(X, d_c).H)
        ref = segment.cosine_autosimilarity(pca_svd_reference(X, d_c).H)
        np.testing.assert_allclose(A, ref, rtol=0, atol=1e-12)
        seg, ref_seg = segment.dp_segment(A), segment.dp_segment(ref)
        assert list(seg.boundaries_bars) == list(ref_seg.boundaries_bars)
        assert seg.total_score == pytest.approx(ref_seg.total_score, rel=1e-12)

    # Centered random bars are near-orthogonal, so every 8-bar window scores
    # below zero and the DP warns that it rescales the cosine. At d_c == b
    # the last component is at the rounding floor.
    @pytest.mark.filterwarnings("ignore:c_k8_max=.* is not positive")
    @pytest.mark.parametrize("shape, d_c", [((2000, 40), 8), ((4000, 64), 16), ((1500, 30), 30)])
    def test_random_tall(self, shape, d_c):
        X = np.random.default_rng(shape[1]).random(shape)
        self.assert_same_segmentation(X, d_c)

    @pytest.mark.parametrize("d_c", [8, 16, 24, 32])
    def test_synthetic_barwise_7680x120(self, d_c):
        self.assert_same_segmentation(synthetic_barwise(seed=0), d_c)

    def test_sign_convention_kept(self):
        X = synthetic_barwise(seed=1)
        W = lowrank.pca_compress(X, 8).W
        np.testing.assert_allclose(W, pca_svd_reference(X, 8).W, rtol=0, atol=1e-10)


class TestNMF:
    def test_exact_rank_one_recovery(self):
        rng = np.random.default_rng(10)
        w = rng.random(15) + 0.1
        h = rng.random(7) + 0.1
        X = np.outer(w, h)
        model = lowrank.nmf_compress(X, 1, seed=0)
        assert model.loss_trace[-1] <= 1e-8 * np.sum(X**2)

    def test_zero_matrix(self):
        model = lowrank.nmf_compress(np.zeros((6, 4)), 2, seed=0)
        assert np.allclose(model.W @ model.H, 0.0)
        assert model.loss_trace[-1] == 0.0

    def test_loss_trace_nonincreasing(self):
        rng = np.random.default_rng(11)
        X = rng.random((40, 20))
        model = lowrank.nmf_compress(X, 4, seed=42)
        diffs = np.diff(model.loss_trace)
        assert np.all(diffs <= 1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_monotone_across_seeds(self, seed):
        rng = np.random.default_rng(seed + 100)
        X = rng.random((30, 15)) * 5
        model = lowrank.nmf_compress(X, 3, seed=seed)
        assert np.all(np.diff(model.loss_trace) <= 1e-12)

    def test_factors_nonnegative(self):
        rng = np.random.default_rng(12)
        model = lowrank.nmf_compress(rng.random((25, 12)), 4, seed=1)
        assert model.W.min() >= 0
        assert model.H.min() >= 0

    def test_negative_input_rejected(self):
        X = np.ones((5, 4))
        X[2, 2] = -0.01
        with pytest.raises(ValueError, match="nonnegative"):
            lowrank.nmf_compress(X, 2)

    def test_seeded_determinism(self):
        rng = np.random.default_rng(13)
        X = rng.random((20, 10))
        a = lowrank.nmf_compress(X, 3, seed=7)
        b = lowrank.nmf_compress(X, 3, seed=7)
        assert np.array_equal(a.H, b.H)
        assert np.array_equal(a.loss_trace, b.loss_trace)

    def test_scale_covariance_at_init(self):
        # Analytic: scaling X by a and both factors by sqrt(a) scales the
        # initial loss by a^2.
        rng = np.random.default_rng(14)
        X = rng.random((12, 8))
        W0 = rng.random((12, 3))
        H0 = rng.random((3, 8))
        alpha = 4.0
        base = lowrank.nmf_compress(X, 3, max_iters=1, init_W=W0, init_H=H0)
        scaled = lowrank.nmf_compress(
            alpha * X, 3, max_iters=1, init_W=np.sqrt(alpha) * W0, init_H=np.sqrt(alpha) * H0
        )
        assert scaled.loss_trace[0] == pytest.approx(alpha**2 * base.loss_trace[0], rel=1e-12)


def column_major_hals_reference(X, d_c, max_iters=500, tol=1e-8, seed=42, init_W=None, init_H=None):
    """Reference: the HALS loop with W kept n x d, updating W[:, j] in place.

    nmf_compress holds W transposed while it iterates; this is the same
    algorithm, update order and stopping rules on the original layout.
    """
    X = np.asarray(X, dtype=np.float64)
    n, b = X.shape
    rng = np.random.default_rng(seed)
    W = rng.random((n, d_c)) if init_W is None else np.array(init_W, dtype=np.float64)
    H = rng.random((d_c, b)) if init_H is None else np.array(init_H, dtype=np.float64)
    norm_x_sq = float(np.sum(X * X))
    R0 = X - W @ H
    trace = [float(np.sum(R0 * R0))]
    for _ in range(max_iters):
        HHt = H @ H.T
        XHt = X @ H.T
        for j in range(d_c):
            denom = HHt[j, j]
            if denom <= 0:
                continue
            W[:, j] = np.maximum(0.0, W[:, j] + (XHt[:, j] - W @ HHt[:, j]) / denom)
        WtW = W.T @ W
        WtX = W.T @ X
        for j in range(d_c):
            denom = WtW[j, j]
            if denom <= 0:
                continue
            H[j, :] = np.maximum(0.0, H[j, :] + (WtX[j, :] - WtW[j, :] @ H) / denom)
        cur = norm_x_sq - 2.0 * float(np.vdot(WtX, H)) + float(np.vdot(WtW, H @ H.T))
        trace.append(max(cur, 0.0))
        prev, cur = trace[-2], trace[-1]
        if prev - cur < tol * max(prev, 1e-300):
            break
        if cur <= 1e-16 * max(norm_x_sq, 1e-300):
            break
    return W, H, np.array(trace)


class TestNMFMatchesColumnMajorReference:
    def assert_matches(self, model, reference):
        W, H, trace = reference
        assert len(model.loss_trace) == len(trace)
        np.testing.assert_allclose(model.W, W, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.H, H, rtol=0, atol=1e-10)
        np.testing.assert_allclose(model.loss_trace, trace, rtol=1e-12, atol=0)

    def test_seeded_init(self):
        X = np.random.default_rng(20).random((60, 25)) * 3
        model = lowrank.nmf_compress(X, 5, seed=9)
        self.assert_matches(model, column_major_hals_reference(X, 5, seed=9))

    def test_given_init_with_zero_row_in_H(self):
        rng = np.random.default_rng(21)
        X = rng.random((50, 18))
        W0 = rng.random((50, 4))
        H0 = rng.random((4, 18))
        H0[1] = 0.0  # HHt[1, 1] == 0, so the first W sweep skips column 1
        one_step = lowrank.nmf_compress(X, 4, max_iters=1, init_W=W0, init_H=H0)
        assert np.array_equal(one_step.W[:, 1], W0[:, 1])
        reference = column_major_hals_reference(X, 4, max_iters=1, init_W=W0, init_H=H0)
        self.assert_matches(one_step, reference)
        model = lowrank.nmf_compress(X, 4, init_W=W0, init_H=H0)
        self.assert_matches(model, column_major_hals_reference(X, 4, init_W=W0, init_H=H0))
