"""Boundary hit-rate evaluation and annotation/downbeat alignment.

Estimated and reference boundary times are matched one-to-one by maximum
bipartite matching within a tolerance window; precision, recall, and
F-measure are reported per tolerance (0.5s strict, 3s lenient), as a
JSON-ready dict keyed by tolerance.
"""

import warnings
from dataclasses import dataclass

import numpy as np

from .bars import check_times

DEFAULT_TOLERANCES = (0.5, 3.0)
_DEDUP_TOL = 1e-6  # annotated times at most this far apart (s) are one boundary


@dataclass
class BoundarySet:
    """Finite, strictly increasing boundary times in seconds."""

    times: np.ndarray

    def __post_init__(self):
        self.times = check_times(self.times, "boundary times")

    def __len__(self):
        return len(self.times)


def hit_rate(est, ref, tol):
    """Precision/recall/F of est vs ref boundaries at a tolerance, as the report dict
    {"tol", "precision", "recall", "f_measure", "n_est", "n_ref", "n_matched"}.

    Boundaries match one-to-one (`_matched_pairs`), and times may come
    unsorted or repeated. Empty inputs yield 0 with a warning.
    """
    if not 0 < tol < np.inf:
        raise ValueError(f"tolerance must be finite and positive, got {tol}")
    est_t = np.asarray(est.times if isinstance(est, BoundarySet) else est, dtype=np.float64)
    ref_t = np.asarray(ref.times if isinstance(ref, BoundarySet) else ref, dtype=np.float64)
    n_est, n_ref = len(est_t), len(ref_t)
    if not (n_est and n_ref):
        warnings.warn("hit_rate called with an empty boundary set; reporting zeros")
    n_matched = len(_matched_pairs(est_t, ref_t, tol))
    precision = n_matched / n_est if n_est else 0.0
    recall = n_matched / n_ref if n_ref else 0.0
    f_measure = 2 * precision * recall / (precision + recall) if n_matched else 0.0
    return {"tol": tol, "precision": precision, "recall": recall, "f_measure": f_measure,
            "n_est": n_est, "n_ref": n_ref, "n_matched": n_matched}


def _matched_pairs(est_t, ref_t, tol):
    """A maximum one-to-one matching of est_t and ref_t within tol, as sorted
    (est index, ref index) pairs.

    It is greedy on the sorted times, pairing the earliest remaining est
    and ref whenever they lie within tol. That gives a maximum matching,
    because each time's tolerance window is an interval of the same width
    (Glover, Naval Res. Logist. Q. 14, 1967).
    """
    est_order, ref_order = np.argsort(est_t, kind="stable"), np.argsort(ref_t, kind="stable")
    e, r = est_t[est_order].tolist(), ref_t[ref_order].tolist()
    pairs = []
    i = j = 0
    while i < len(e) and j < len(r):
        if abs(e[i] - r[j]) <= tol:
            pairs.append((int(est_order[i]), int(ref_order[j])))
            i, j = i + 1, j + 1
        elif e[i] < r[j]:
            i += 1
        else:
            j += 1
    return sorted(pairs)


def tolerance_keys(tolerances):
    """{format(tol, "g"): tol} in the given order, as in "0.5" and "3". Two different
    tolerances with one key raise ValueError, since one's report would replace the other's."""
    keys = {}
    for tol in tolerances:
        key = format(tol, "g")
        if key in keys and keys[key] != tol:
            raise ValueError(f"tolerances {keys[key]!r} and {tol!r} share the report key {key!r}")
        keys.setdefault(key, tol)
    return keys


def evaluate_boundaries(est, ref, tolerances=DEFAULT_TOLERANCES):
    """{key: hit_rate(est, ref, tol)} of `tolerance_keys`, in increasing tolerance order."""
    return {key: hit_rate(est, ref, tol) for key, tol in tolerance_keys(sorted(tolerances)).items()}


def align_to_downbeats(annot, grid):
    """Snap each annotated time to the nearest downbeat (ties go earlier).

    Duplicate snapped times are collapsed.
    """
    t, downbeats = annot.times, grid.downbeats
    # A time outside the grid gets its end pair, whose nearer downbeat is that end.
    idx = np.clip(np.searchsorted(downbeats, t), 1, len(downbeats) - 1)
    earlier, later = downbeats[idx - 1], downbeats[idx]
    # On a tie the strict '<' keeps the earlier downbeat.
    snapped = np.where(np.abs(later - t) < np.abs(earlier - t), later, earlier)
    return BoundarySet(np.unique(snapped))


def load_annotations(path):
    """Parse a segment annotation file into a boundary set.

    Accepted line forms: "start<TAB>end<TAB>label" or "time<TAB>label"
    (any whitespace separator works). Labels are parsed but ignored; the
    boundary set is the union of all start/end times, deduplicated.
    """
    times = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split()
            try:
                if len(fields) >= 2 and _is_float(fields[1]):
                    times.extend((float(fields[0]), float(fields[1])))
                elif len(fields) >= 1:
                    times.append(float(fields[0]))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: unparseable annotation line: {line!r}") from exc
    if not times:
        raise ValueError(f"{path}: no annotated times found")
    times = np.sort(np.asarray(times, dtype=np.float64))
    keep = [times[0]]
    for t in times[1:]:
        if not t - keep[-1] <= _DEDUP_TOL:  # NaN is kept, for BoundarySet to reject
            keep.append(t)
    try:
        return BoundarySet(np.asarray(keep))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _is_float(token):
    try:
        float(token)
        return True
    except ValueError:
        return False
