"""Low-rank barwise compression: PCA (method of snapshots) and NMF (HALS).

Both factor an n x b matrix of bar columns into W (n x d) and H (d x b);
H holds the per-bar compressed representations used downstream.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LowRankModel:
    W: np.ndarray
    H: np.ndarray
    mu: np.ndarray
    loss_trace: np.ndarray = field(default_factory=lambda: np.array([]))

    def reconstruct(self):
        return self.mu[:, None] + self.W @ self.H


def pca_compress(X, d_c):
    """PCA of the column-debiased matrix by the method of snapshots.

    The principal components of the n x b centered matrix C come from the
    eigendecomposition of its b x b bar Gram matrix C^T C (Sirovich, Q.
    Appl. Math. 45(3), 1987), which is far cheaper than an SVD of C when
    n >> b. C is first scaled by an exact power of two near 1/max|C|, so
    the Gram matrix neither overflows nor underflows. With lam_j the j-th
    largest eigenvalue and v_j its eigenvector, W's column j is
    C v_j / sqrt(lam_j) (the j-th left singular vector of C), with its sign
    fixed so its largest-magnitude entry is positive, and H = W.T @ C.
    The reconstruction mu + W @ H is the best rank-d_c Frobenius
    approximation of X.

    A component at the rounding floor, lam_j <= b * eps * ||X||_F^2 with X
    on the scale of C, gets a zero W column and so a zero H row. The floor
    is relative to X, not to lam_1 alone: when all bars are identical, C
    holds only the rounding residue of their mean, and its lam_1 would pass
    a floor relative to itself. ||X||_F^2 = ||C||_F^2 + b ||mu||^2 bounds
    lam_1 from above, so the floor also covers lam_1 == 0. That is the
    result for rank-deficient input: silence and identical bars give an
    all-zero H, and d_c above the rank of C gives zero trailing rows.
    """
    X = np.asarray(X, dtype=np.float64)
    n, b = X.shape
    if not (1 <= d_c <= min(n, b)):
        raise ValueError(f"d_c={d_c} out of range for a {n}x{b} matrix")
    mu = X.mean(axis=1)
    centered = X - mu[:, None]
    peak = np.abs(centered).max()
    if not np.isfinite(peak):  # so X holds a NaN or an infinity, or its row means overflow
        raise ValueError("X must be finite")
    exponent = -np.frexp(peak)[1]
    scaled = np.ldexp(centered, exponent)
    gram = scaled.T @ scaled
    lam, V = np.linalg.eigh(gram)
    lam, V = lam[::-1][:d_c], V[:, ::-1][:, :d_c]
    size = np.trace(gram) + b * np.sum(np.ldexp(mu, exponent) ** 2)  # ||X||_F^2 on the scale of `scaled`
    rank = np.count_nonzero(lam > b * np.finfo(np.float64).eps * size)
    W = np.zeros((n, d_c))
    W[:, :rank] = (scaled @ V[:, :rank]) / np.sqrt(lam[:rank])
    signs = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(d_c)])
    signs[signs == 0] = 1.0
    W = W * signs
    H = W.T @ centered
    return LowRankModel(W=W, H=H, mu=mu)


def nmf_compress(X, d_c, max_iters=500, tol=1e-8, seed=42, init_W=None, init_H=None):
    """Nonnegative matrix factorization by HALS block-coordinate updates.

    Minimizes ||X - WH||_F^2 with W, H >= 0. Each column of W (and row of
    H) is updated by an exact nonnegative least-squares step, so the loss
    never increases. The loss is recorded once per outer iteration,
    starting with the initial factors; iteration stops at `max_iters` or
    when the relative loss decrease falls below `tol`. An all-zero X, such
    as the NNLMS of digital silence, gives W = 0 and H = 0.
    """
    X = np.asarray(X, dtype=np.float64)
    n, b = X.shape
    if not np.isfinite(X).all():
        raise ValueError("X must be finite")
    if np.any(X < 0):
        raise ValueError("NMF requires a nonnegative input matrix")
    if not (1 <= d_c <= min(n, b)):
        raise ValueError(f"d_c={d_c} out of range for a {n}x{b} matrix")
    rng = np.random.default_rng(seed)
    W = rng.random((n, d_c)) if init_W is None else np.array(init_W, dtype=np.float64)
    H = rng.random((d_c, b)) if init_H is None else np.array(init_H, dtype=np.float64)
    if np.any(W < 0) or np.any(H < 0):
        raise ValueError("initial factors must be nonnegative")
    if not X.any():
        # HALS would leave H at its random start: the first W sweep takes W to about 1e-16.
        return LowRankModel(W=np.zeros((n, d_c)), H=np.zeros((d_c, b)), mu=np.zeros(n), loss_trace=np.array([0.0]))

    # One n x b scratch buffer gives ||X||^2 and the starting residual. X * X
    # takes X's memory order and X - W @ H the C order of W @ H, and each sum
    # adds its terms in that order, so the buffer is viewed in each in turn.
    scratch = np.multiply(X, X)
    norm_x_sq = float(np.sum(scratch))
    residual = scratch.ravel(order="K").reshape(n, b)
    np.matmul(W, H, out=residual)
    np.subtract(X, residual, out=residual)
    np.multiply(residual, residual, out=residual)
    trace = [float(np.sum(residual))]
    del scratch, residual
    # W is held as d x n while iterating: each column update reads and writes one contiguous row.
    Wt = np.ascontiguousarray(W.T)
    del W
    tmp_n, tmp_b, HXt = np.empty(n), np.empty(b), np.empty((d_c, n))
    HHt = H @ H.T
    for _ in range(max_iters):
        np.matmul(H, X.T, out=HXt)
        _hals_rows(Wt, HHt, HXt, tmp_n)
        WtW = Wt @ Wt.T
        WtX = Wt @ X
        _hals_rows(H, WtW, WtX, tmp_b)
        # ||X - WH||_F^2 via the Gram identity; WtX and WtW use the final W,
        # and the new H's Gram matrix serves the next W sweep too.
        HHt = H @ H.T
        cur = norm_x_sq - 2.0 * float(np.vdot(WtX, H)) + float(np.vdot(WtW, HHt))
        trace.append(max(cur, 0.0))
        prev, cur = trace[-2], trace[-1]
        if prev - cur < tol * max(prev, 1e-300):
            break
        if cur <= 1e-16 * max(norm_x_sq, 1e-300):
            break
    return LowRankModel(W=Wt.T, H=H, mu=np.zeros(n), loss_trace=np.array(trace))


def _hals_rows(F, G, P, tmp):
    """One HALS sweep over the rows of the d x m factor F, in place.

    Row j becomes max(0, F[j] + (P[j] - G[j] @ F) / G[j, j]), its exact
    nonnegative least-squares update with the other rows fixed. G is the
    other factor's d x d Gram matrix, symmetric, so its contiguous row j
    serves as column j; P is that factor's product with the data.
    """
    for j in range(len(F)):
        denom = G[j, j]
        if denom <= 0:
            continue
        np.dot(G[j], F, out=tmp)
        np.subtract(P[j], tmp, out=tmp)
        tmp /= denom
        tmp += F[j]
        np.maximum(tmp, 0.0, out=F[j])
