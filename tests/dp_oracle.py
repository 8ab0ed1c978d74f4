"""Exhaustive oracle for the DP segmentation, shared by the test modules."""

import itertools

import numpy as np

from barseg import segment


def enumerate_best_score(A, max_segment=32):
    """Oracle: exhaustive enumeration over all boundary subsets."""
    b = A.shape[0]
    c8 = segment.compute_ck8max(A)
    table = {
        (lo, hi): segment.segment_score(A, lo, hi, c8)
        for lo in range(b)
        for hi in range(lo + 1, min(lo + max_segment, b) + 1)
    }
    best = -np.inf
    for mask in itertools.product((0, 1), repeat=b - 1):
        bounds = [0] + [i + 1 for i, m in enumerate(mask) if m] + [b]
        score = sum(table[pair] for pair in zip(bounds[:-1], bounds[1:]))
        best = max(best, score)
    return best


def loop_segment_cost(A, b_start, b_end):
    """The kernel-weighted cost of one segment as a single block sum, with a Python-int size."""
    n = int(b_end - b_start)
    block = A[b_start:b_end, b_start:b_end]
    return float(np.sum(segment.kernel(n) * block)) / n**segment.COST_NORM_EXPONENT


def loop_dp_segment(A, max_segment=segment.DEFAULT_MAX_SEGMENT):
    """Byte reference for `segment.dp_segment`: (boundaries, total_score) from one cost call per segment.

    It keeps the double loop over ends i and starts j, scoring each
    segment on its own block, with the same fallbacks: the rescaled
    cosine (A+1)/2 when c_k8_max is not positive, and one segment when
    it still is not.
    """
    b = A.shape[0]
    if b == 1:
        return [0, 1], 0.0

    def ck8max(M):
        size = min(8, b)
        return max(loop_segment_cost(M, t, t + size) for t in range(b - size + 1))

    c_k8_max = ck8max(A)
    if c_k8_max <= 0 and np.any(A):
        A = (A + 1.0) / 2.0
        c_k8_max = ck8max(A)
    if c_k8_max <= 0:
        return [0, b], 0.0
    best = np.full(b + 1, -np.inf)
    best[0] = 0.0
    prev = np.zeros(b + 1, dtype=np.int64)
    for i in range(1, b + 1):
        for j in range(max(0, i - max_segment), i):
            cand = best[j] + (loop_segment_cost(A, j, i) / c_k8_max - segment.penalty(i - j))
            if cand >= best[i]:
                best[i] = cand
                prev[i] = j
    boundaries = [b]
    while boundaries[-1] != 0:
        boundaries.append(int(prev[boundaries[-1]]))
    return boundaries[::-1], float(best[b])
