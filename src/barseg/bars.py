"""Barwise slicing: feature + downbeat grid -> barwise TF matrix.

Every bar is resampled to a fixed subdivision of s frames (equally spaced
between its bounding downbeats) and vectorized frequency-major into one
row, giving a b x (f*s) matrix that is comparable across tempo changes.
"""

from dataclasses import dataclass

import numpy as np

DEFAULT_SUBDIVISION = 96


def check_times(times, noun):
    """`times` as a float64 array, if it is 1-D, finite, nonnegative and strictly increasing."""
    times = np.asarray(times, dtype=np.float64)
    if times.ndim != 1:
        raise ValueError(f"{noun} must be a 1-D array")
    if not np.all(np.isfinite(times)):
        raise ValueError(f"{noun} must be finite")
    if len(times) and times[0] < 0:
        raise ValueError(f"{noun} must be nonnegative")
    if not np.all(np.diff(times) > 0):
        raise ValueError(f"{noun} must be strictly increasing")
    return times


@dataclass
class BarGrid:
    """Finite, strictly increasing downbeat times in seconds; b+1 times delimit b bars."""

    downbeats: np.ndarray

    def __post_init__(self):
        self.downbeats = check_times(self.downbeats, "downbeats")
        if len(self.downbeats) < 2:
            raise ValueError(f"BarGrid needs at least 2 downbeat times, got {len(self.downbeats)}")

    @property
    def n_bars(self):
        return len(self.downbeats) - 1


@dataclass
class BarwiseTF:
    """b x (f*s) matrix; row i is bar i's f x s patch, flattened frequency-major."""

    values: np.ndarray
    n_bins: int
    subdivision: int

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
    try:
        return BarGrid(np.array(times))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def downbeat_frames(downbeats, frames):
    """Frame nearest each downbeat time on the grid of `frames` (a
    `features.FeatureFrames`: its sample_rate, hop and n_frames), capped at n_frames."""
    return np.minimum(np.rint(downbeats * (frames.sample_rate / frames.hop)).astype(np.int64), frames.n_frames)


def drop_bars_past_end(grid, frames):
    """The grid without the bars that start at or past the last frame of `frames`.

    Such bars hold at most one frame of audio. Returns the cut grid and the
    number of bars dropped; fails if no bar starts before the last frame.
    """
    last = frames.n_frames - 1
    kept = int(np.count_nonzero(downbeat_frames(grid.downbeats[:-1], frames) < last))
    if kept == 0:
        raise ValueError(f"all {grid.n_bars} bars start at or past the last frame ({last})")
    return BarGrid(grid.downbeats[:kept + 1]), grid.n_bars - kept


def select_frames(f_start, f_end, subdivision):
    """Indices of `subdivision` equally spaced frames in [f_start, f_end).

    Returns f_start + floor(k * (f_end - f_start) / subdivision) for
    0 <= k < subdivision; repeats occur when the bar is shorter than the
    subdivision. Column arrays of starts and ends give one row per range.
    All three must be signed integers (with uint64 the sum would be float64).
    """
    if any(np.asarray(v).dtype.kind != "i" for v in (f_start, f_end, subdivision)):
        raise ValueError(f"frame ranges and subdivision must be signed integers, got subdivision={subdivision!r}")
    if np.any(f_start < 0) or np.any(f_end <= f_start):
        raise ValueError(f"invalid frame range [{f_start}, {f_end})")
    if subdivision < 1:
        raise ValueError(f"subdivision must be >= 1, got {subdivision}")
    k = np.arange(subdivision, dtype=np.int64)
    return f_start + (k * (f_end - f_start)) // subdivision


def barwise_tf(spec, grid, subdivision=DEFAULT_SUBDIVISION):
    """Build the b x (f*s) barwise TF matrix from a feature and bar grid.

    `spec` is a `features.FeatureFrames`, read only at the b*s frames the
    bars select, through one `spec.at(...)` call. Bar edges are the frames
    nearest each downbeat; frames past the last downbeat are ignored.
    """
    edges = downbeat_frames(grid.downbeats, spec)
    # Edges are capped at n_frames, so a grid starting past the end has an empty bar 0.
    empty = np.flatnonzero(edges[1:] <= edges[:-1])
    if len(empty):
        i = empty[0]
        raise ValueError(f"bar {i}: downbeats map to an empty frame range [{edges[i]}, {edges[i + 1]})")
    plan = select_frames(edges[:-1, None], edges[1:, None], subdivision)
    values = spec.at(plan.ravel())  # f x (b*s), bar-major columns
    n_bins = values.shape[0]
    rows = values.reshape(n_bins, grid.n_bars, subdivision).transpose(1, 0, 2).reshape(grid.n_bars, -1)
    return BarwiseTF(rows, n_bins=n_bins, subdivision=subdivision)
