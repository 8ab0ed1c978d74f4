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
