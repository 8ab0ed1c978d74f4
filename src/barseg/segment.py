"""Cosine autosimilarity and dynamic-programming structure segmentation.

A segment's cost aggregates the similarities of its bar pairs through a
fixed homogeneity kernel (0 diagonal, 2 on the four sub/super diagonals,
1 elsewhere), built anew for each size a call scores. Costs are
normalized by the highest size-8 window cost and penalized by a musical
segment-size prior (8 bars free, 4 bars cheap, even sizes mild, odd
sizes expensive); dynamic programming then picks the boundary set with
the maximal total score.

`dp_segment` scores all segments of one size n in one array pass: the
b - n + 1 diagonal n x n windows of A, as a strided view, times the
kernel, summed per window. Each window's sum adds its terms in the order
`np.sum` uses for the single block, so every score has the bits of
`segment_score`. The scores fill a band of b + 1 ends by max_segment
sizes, and each end's best predecessor is one vector max over its row.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

DEFAULT_MAX_SEGMENT = 32

# Segment costs are raw kernel sums divided by n**COST_NORM_EXPONENT.
# The exponent 1.5 balances two needs: a homogeneous 8-bar block must
# outscore its 4+4 split, while a heterogeneous 8-bar window (two
# dissimilar 4-bar halves) must lose to the split. Plain 1/n fails the
# second requirement whenever cross-similarities are nonnegative.
COST_NORM_EXPONENT = 1.5
# Values per product of windows and kernel in `_window_costs`: 8 MB of
# float64, which 900 bars at the default 32-bar segments fit in one pass.
_WINDOW_VALUES = 1 << 20


@dataclass
class Segmentation:
    """Bar-index boundaries (0 ... b inclusive) with optional times."""

    boundaries_bars: np.ndarray
    total_score: float
    boundaries_seconds: np.ndarray = field(default_factory=lambda: np.array([]))

    def __post_init__(self):
        self.boundaries_bars = np.asarray(self.boundaries_bars, dtype=np.int64)
        b = self.boundaries_bars
        if len(b) == 0 or b[0] != 0 or not np.all(np.diff(b) > 0):
            raise ValueError("boundaries must start at 0 and be strictly increasing")

    def segment_sizes(self):
        return np.diff(self.boundaries_bars)

    def with_times(self, grid):
        """Attach boundary times from a BarGrid (boundary i -> downbeat i)."""
        seconds = grid.downbeats[self.boundaries_bars]
        return Segmentation(self.boundaries_bars, self.total_score, seconds)


def cosine_autosimilarity(Z):
    """b x b matrix of cosine similarities between embedding columns.

    Columns with zero norm get an all-zero row and column, diagonal
    included.
    """
    Z = np.asarray(Z, dtype=np.float64)
    if not np.all(np.isfinite(Z)):
        raise ValueError("embedding contains non-finite values")
    norms = np.linalg.norm(Z, axis=0)
    safe = np.where(norms > 0, norms, 1.0)
    normalized = Z / safe
    A = normalized.T @ normalized
    zero = norms == 0
    A[zero, :] = 0.0
    A[:, zero] = 0.0
    # Clip rounding spill, force exact symmetry and an exact unit diagonal.
    A = np.clip((A + A.T) / 2.0, -1.0, 1.0)
    A[np.diag_indices_from(A)] = np.where(zero, 0.0, 1.0)
    return A


def kernel(n):
    """Homogeneity kernel: 0 diagonal, 2 within 4 bars, 1 beyond."""
    if n < 1:
        raise ValueError(f"kernel size must be >= 1, got {n}")
    dist = np.abs(np.subtract.outer(np.arange(n), np.arange(n)))
    K = np.ones((n, n))
    K[dist == 0] = 0.0
    K[(dist >= 1) & (dist <= 4)] = 2.0
    return K


def penalty(n):
    """Segment-size prior: 0 for 8 bars, 1/4 for 4, 1/2 even, 1 odd."""
    if n == 8:
        return 0.0
    if n == 4:
        return 0.25
    if n % 2 == 0:
        return 0.5
    return 1.0


def _size_norm(n):
    """n**COST_NORM_EXPONENT from a Python int: NumPy's int64 power rounds some sizes differently."""
    return int(n) ** COST_NORM_EXPONENT


def _window_costs(A, n):
    """Costs of the segments [t, t + n) of A, for t = 0 ... b - n, as one array.

    Each window's kernel product is C-contiguous, so its sum adds the
    terms in the order `np.sum` uses for the single n x n block.
    """
    windows = np.moveaxis(sliding_window_view(A, (n, n)).diagonal(), -1, 0)
    K, step = kernel(n), max(1, _WINDOW_VALUES // (n * n))
    raw = np.concatenate([(K * windows[t:t + step]).sum(axis=(1, 2))
                          for t in range(0, len(windows), step)])
    return raw / _size_norm(n)


def segment_cost(A, b_start, b_end):
    """Kernel-weighted similarity of the segment [b_start, b_end), normalized by size."""
    b = A.shape[0]
    if not (0 <= b_start < b_end <= b):
        raise ValueError(f"segment [{b_start}, {b_end}) out of range for {b} bars")
    return float(_window_costs(A[b_start:b_end, b_start:b_end], int(b_end - b_start))[0])


def compute_ck8max(A):
    """Highest cost over all size-8 windows (or size-b windows if b < 8)."""
    size = min(8, A.shape[0])
    return max(_window_costs(A, size).tolist())


def segment_score(A, b_start, b_end, c_k8_max):
    """Normalized segment cost minus the size penalty."""
    if c_k8_max <= 0:
        raise ValueError(f"degenerate autosimilarity: c_k8_max={c_k8_max} is not positive")
    return segment_cost(A, b_start, b_end) / c_k8_max - penalty(b_end - b_start)


def dp_segment(A, max_segment=DEFAULT_MAX_SEGMENT):
    """Boundary set maximizing the total segment score.

    best(i) = max over j in [max(0, i - max_segment), i) of
    best(j) + score(j, i); ties go to the larger j (shorter last segment).

    A nonpositive c_k8_max leaves no scale to normalize by. This happens
    when bars are mostly anti-correlated, as PCA's centering makes two
    alternating sections. If A is not all zero, the DP then segments the
    rescaled cosine (A+1)/2, which maps [-1, 1] onto [0, 1], and warns;
    Marmoret, Cohen & Bimbot (TISMIR 2023, "Barwise Music Structure
    Analysis with the Correlation Block-Matching Segmentation Algorithm")
    compare such choices of autosimilarity. An all-zero A (a silent song)
    gives one segment with a warning.
    """
    b = A.shape[0]
    if b < 1:
        raise ValueError("empty autosimilarity")
    if max_segment < 1:
        raise ValueError(f"max_segment must be >= 1, got {max_segment}")
    if b == 1:
        # Only one segmentation exists; no scoring needed.
        return Segmentation(np.array([0, 1]), total_score=0.0)
    c_k8_max = compute_ck8max(A)
    if c_k8_max <= 0 and np.any(A):
        warnings.warn(f"c_k8_max={c_k8_max} is not positive; segmenting the rescaled cosine (A+1)/2",
                      stacklevel=2)
        A = (A + 1.0) / 2.0
        c_k8_max = compute_ck8max(A)
    if c_k8_max <= 0:
        warnings.warn(f"degenerate autosimilarity: c_k8_max={c_k8_max} is not positive; one segment", stacklevel=2)
        return Segmentation(np.array([0, b]), total_score=0.0)
    # band[i, n - 1] is the score of the segment [i - n, i), -inf where n > i.
    sizes = min(max_segment, b)
    band = np.full((b + 1, sizes), -np.inf)
    for n in range(1, sizes + 1):
        band[n:, n - 1] = _window_costs(A, n) / c_k8_max - penalty(n)
    best = np.zeros(b + 1)
    prev = np.zeros(b + 1, dtype=np.int64)
    for i in range(1, b + 1):
        # cands[n - 1] = best(i - n) + score(i - n, i); argmax takes the first
        # maximum, which is the shortest last segment (the largest j).
        k = min(sizes, i)
        cands = best[i - 1::-1][:k] + band[i, :k]
        n = int(np.argmax(cands))
        best[i], prev[i] = cands[n], i - 1 - n
    boundaries = [b]
    while boundaries[-1] != 0:
        boundaries.append(int(prev[boundaries[-1]]))
    boundaries.reverse()
    return Segmentation(np.array(boundaries), total_score=float(best[b]))
