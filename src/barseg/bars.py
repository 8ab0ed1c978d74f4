"""Barwise slicing: feature + downbeat grid -> barwise TF matrix.

Every bar is resampled to a fixed subdivision of s frames (equally spaced
between its bounding downbeats) and vectorized frequency-major into one
row, giving a b x (f*s) matrix that is comparable across tempo changes.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_SUBDIVISION = 96


@dataclass
class BarGrid:
    """Strictly increasing downbeat times in seconds; b+1 times delimit b bars."""

    downbeats: np.ndarray

    def __post_init__(self):
        self.downbeats = np.asarray(self.downbeats, dtype=np.float64)
        if self.downbeats.ndim != 1 or len(self.downbeats) < 2:
            raise ValueError("BarGrid needs at least 2 downbeat times")
        if self.downbeats[0] < 0:
            raise ValueError("downbeats must be nonnegative")
        if not np.all(np.diff(self.downbeats) > 0):
            raise ValueError("downbeats must be strictly increasing")

    @property
    def n_bars(self):
        return len(self.downbeats) - 1


@dataclass
class BarwiseTF:
    """b x (f*s) matrix; row i is bar i's f x s patch, flattened frequency-major."""

    values: np.ndarray
    n_bins: int
    subdivision: int
    feature_kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2 or self.values.shape[1] != self.n_bins * self.subdivision:
            raise ValueError(
                f"BarwiseTF shape {self.values.shape} inconsistent with "
                f"f={self.n_bins}, s={self.subdivision}"
            )
        if not np.all(np.isfinite(self.values)):
            raise ValueError("BarwiseTF contains non-finite entries")

    @property
    def n_bars(self):
        return self.values.shape[0]

    def bar_patch(self, i):
        """Bar i as its f x s time-frequency patch."""
        return self.values[i].reshape(self.n_bins, self.subdivision)


def load_downbeats(path):
    """Parse a downbeat file: one time in seconds per line."""
    times = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                times.append(float(line))
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: not a number: {line!r}") from exc
    if len(times) < 2:
        raise ValueError(f"{path}: need at least 2 downbeats, got {len(times)}")
    if not all(b > a for a, b in zip(times, times[1:])):
        raise ValueError(f"{path}: downbeat times are not strictly increasing")
    return BarGrid(np.array(times))


def select_frames(f_start, f_end, subdivision):
    """Indices of `subdivision` equally spaced frames in [f_start, f_end).

    Returns f_start + floor(k * (f_end - f_start) / subdivision) for
    0 <= k < subdivision; repeats occur when the bar is shorter than the
    subdivision.
    """
    if f_start < 0 or f_end <= f_start:
        raise ValueError(f"invalid frame range [{f_start}, {f_end})")
    if subdivision < 1:
        raise ValueError(f"subdivision must be >= 1, got {subdivision}")
    k = np.arange(subdivision, dtype=np.int64)
    return f_start + (k * (f_end - f_start)) // subdivision


def barwise_tf(spec, grid, subdivision=DEFAULT_SUBDIVISION):
    """Build the b x (f*s) barwise TF matrix from a feature and bar grid.

    `spec` is a `Spectrogram` or a `FeatureFrames`; either is read only at
    the b*s frames the bars select, through one `spec.at(...)` call. Bar
    edges are the frames nearest each downbeat; frames past the last
    downbeat are ignored.
    """
    frames_per_second = spec.sample_rate / spec.hop
    edges = np.rint(grid.downbeats * frames_per_second).astype(np.int64)
    edges = np.minimum(edges, spec.n_frames)
    if edges[0] >= spec.n_frames:
        raise ValueError("first downbeat lies past the end of the spectrogram")
    plan = np.empty((grid.n_bars, subdivision), dtype=np.int64)
    for i in range(grid.n_bars):
        f_start, f_end = edges[i], edges[i + 1]
        if f_end <= f_start:
            raise ValueError(f"bar {i}: downbeats map to an empty frame range [{f_start}, {f_end})")
        plan[i] = select_frames(f_start, f_end, subdivision)
    values = spec.at(plan.ravel())  # f x (b*s), bar-major columns
    n_bins = values.shape[0]
    rows = values.reshape(n_bins, grid.n_bars, subdivision).transpose(1, 0, 2).reshape(grid.n_bars, -1)
    return BarwiseTF(rows, n_bins=n_bins, subdivision=subdivision, feature_kind=spec.feature_kind)
