"""Low-rank barwise compression: PCA (method of snapshots) and NMF (HALS).

Both factor an n x b matrix of bar columns into W (n x d) and H (d x b);
H holds the per-bar compressed representations used downstream.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LowRankModel:
    kind: str
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

    A component at the rounding floor (lam_j <= b * eps * lam_1, or every
    component when lam_1 == 0) gets a zero W column and so a zero H row.
    That is the result for rank-deficient input, such as silence or d_c
    above the rank of C; identical bars keep only the rounding residue of
    their mean, as one component.
    """
    X = np.asarray(X, dtype=np.float64)
    n, b = X.shape
    if not (1 <= d_c <= min(n, b)):
        raise ValueError(f"d_c={d_c} out of range for a {n}x{b} matrix")
    mu = X.mean(axis=1)
    centered = X - mu[:, None]
    scaled = np.ldexp(centered, -np.frexp(np.abs(centered).max())[1])
    lam, V = np.linalg.eigh(scaled.T @ scaled)
    lam, V = lam[::-1][:d_c], V[:, ::-1][:, :d_c]
    rank = np.count_nonzero(lam > b * np.finfo(np.float64).eps * lam[0])
    W = np.zeros((n, d_c))
    W[:, :rank] = (scaled @ V[:, :rank]) / np.sqrt(lam[:rank])
    signs = np.sign(W[np.argmax(np.abs(W), axis=0), np.arange(d_c)])
    signs[signs == 0] = 1.0
    W = W * signs
    H = W.T @ centered
    return LowRankModel(kind="pca", W=W, H=H, mu=mu)


def nmf_compress(X, d_c, max_iters=500, tol=1e-8, seed=42, init_W=None, init_H=None):
    """Nonnegative matrix factorization by HALS block-coordinate updates.

    Minimizes ||X - WH||_F^2 with W, H >= 0. Each column of W (and row of
    H) is updated by an exact nonnegative least-squares step, so the loss
    never increases. The loss is recorded once per outer iteration,
    starting with the initial factors; iteration stops at `max_iters` or
    when the relative loss decrease falls below `tol`.
    """
    X = np.asarray(X, dtype=np.float64)
    n, b = X.shape
    if np.any(X < 0):
        raise ValueError("NMF requires a nonnegative input matrix")
    if not (1 <= d_c <= min(n, b)):
        raise ValueError(f"d_c={d_c} out of range for a {n}x{b} matrix")
    rng = np.random.default_rng(seed)
    W = rng.random((n, d_c)) if init_W is None else np.array(init_W, dtype=np.float64)
    H = rng.random((d_c, b)) if init_H is None else np.array(init_H, dtype=np.float64)
    if np.any(W < 0) or np.any(H < 0):
        raise ValueError("initial factors must be nonnegative")

    norm_x_sq = float(np.sum(X * X))

    R0 = X - W @ H
    trace = [float(np.sum(R0 * R0))]
    # W is held as d x n while iterating: each column update reads and writes one contiguous row.
    Wt = np.ascontiguousarray(W.T)
    tmp = np.empty(n)
    for _ in range(max_iters):
        # Update columns of W (rows of Wt) against fixed H; HHt is symmetric,
        # so its contiguous row j serves as column j.
        HHt = H @ H.T
        HXt = H @ X.T
        for j in range(d_c):
            denom = HHt[j, j]
            if denom <= 0:
                continue
            np.dot(HHt[j], Wt, out=tmp)
            np.subtract(HXt[j], tmp, out=tmp)
            tmp /= denom
            tmp += Wt[j]
            np.maximum(tmp, 0.0, out=Wt[j])
        # Update rows of H against fixed W.
        WtW = Wt @ Wt.T
        WtX = Wt @ X
        for j in range(d_c):
            denom = WtW[j, j]
            if denom <= 0:
                continue
            H[j, :] = np.maximum(0.0, H[j, :] + (WtX[j, :] - WtW[j, :] @ H) / denom)
        # ||X - WH||_F^2 via the Gram identity; WtX and WtW use the final W,
        # so only the cheap d x d / d x b products involve the updated H.
        cur = norm_x_sq - 2.0 * float(np.vdot(WtX, H)) + float(np.vdot(WtW, H @ H.T))
        trace.append(max(cur, 0.0))
        prev, cur = trace[-2], trace[-1]
        if prev - cur < tol * max(prev, 1e-300):
            break
        if cur <= 1e-16 * max(norm_x_sq, 1e-300):
            break
    return LowRankModel(kind="nmf", W=Wt.T, H=H, mu=np.zeros(n), loss_trace=np.array(trace))
