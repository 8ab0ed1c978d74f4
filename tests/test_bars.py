import re
import types

import numpy as np
import pytest

from barseg import bars, synthetic
from barseg.features import FEATURES, AudioSignal, FeatureFrames, compute_feature

from conftest import traced_peak


class ArrayFeature:
    """A feature held as an f x T array, with the interface `barwise_tf` reads."""

    def __init__(self, values, hop, sample_rate):
        self.values = values
        self.hop = hop
        self.sample_rate = sample_rate
        self.n_frames = values.shape[1]

    def at(self, frames):
        return self.values[:, frames]


def spec_from(values, hop=32, sr=44100):
    return ArrayFeature(np.asarray(values, dtype=float), hop, sr)


class TestBarGrid:
    @pytest.mark.parametrize("downbeats", [5.0, [[0.0, 1.0], [2.0, 3.0]]])
    def test_non_1d_rejected(self, downbeats):
        with pytest.raises(ValueError, match=r"^downbeats must be a 1-D array$"):
            bars.BarGrid(downbeats)


def per_bar_plan(edges, subdivision):
    """The b x s frame plan, one `select_frames` call per bar."""
    plan = np.empty((len(edges) - 1, subdivision), dtype=np.int64)
    for i in range(len(edges) - 1):
        plan[i] = bars.select_frames(edges[i], edges[i + 1], subdivision)
    return plan


class TestLoadDownbeats:
    def test_two_bars(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("0.0\n2.0\n4.0\n")
        grid = bars.load_downbeats(path)
        assert grid.n_bars == 2
        assert np.array_equal(grid.downbeats, [0.0, 2.0, 4.0])

    def test_non_monotone_rejected(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("0.0\n2.0\n1.5\n")
        with pytest.raises(ValueError, match="increasing"):
            bars.load_downbeats(path)

    def test_single_line_rejected(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("0.5\n")
        with pytest.raises(ValueError, match="at least 2"):
            bars.load_downbeats(path)

    @pytest.mark.parametrize("text", ["0.0\n2.0\ninf\n", "0.0\nnan\n2.0\n", "-inf\n0.0\n2.0\n"])
    def test_non_finite_rejected(self, tmp_path, text):
        path = tmp_path / "db.txt"
        path.write_text(text)
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: downbeats must be finite$"):
            bars.load_downbeats(path)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "db.txt"
        path.write_text("0.0\nhello\n2.0\n")
        with pytest.raises(ValueError, match="not a number"):
            bars.load_downbeats(path)


class TestSelectFrames:
    def test_unit_step(self):
        idx = bars.select_frames(100, 196, 96)
        assert np.array_equal(idx, np.arange(100, 196))

    def test_floor_arithmetic(self):
        assert np.array_equal(bars.select_frames(0, 10, 4), [0, 2, 5, 7])

    def test_repeats_when_bar_short(self):
        assert np.array_equal(bars.select_frames(0, 2, 4), [0, 0, 1, 1])

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            bars.select_frames(5, 5, 4)
        with pytest.raises(ValueError):
            bars.select_frames(5, 3, 4)
        with pytest.raises(ValueError):
            bars.select_frames(np.array([[0], [5]]), np.array([[5], [5]]), 4)

    @pytest.mark.parametrize("f_start, f_end, subdivision", [
        (0, 10, 2.5), (0, 10, 4.0), (0, 10, True), (0.0, 10, 4), (np.array([[0], [5]]), np.array([[5.0], [9.0]]), 4),
        (np.uint64(0), np.uint64(10), 4),
    ])
    def test_non_integer_arguments_rejected(self, f_start, f_end, subdivision):
        with pytest.raises(ValueError, match="frame ranges and subdivision must be signed integers"):
            bars.select_frames(f_start, f_end, subdivision)

    def test_monotone_and_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f_s = int(rng.integers(0, 100))
            f_e = f_s + int(rng.integers(1, 300))
            s = int(rng.integers(1, 100))
            idx = bars.select_frames(f_s, f_e, s)
            assert len(idx) == s
            assert np.all(np.diff(idx) >= 0)
            assert idx.min() >= f_s and idx.max() < f_e


class TestBarwiseTF:
    def test_constant_one_bar(self):
        # 1 bar of 2 seconds at hop 32: constant spectrogram of value c.
        c = 2.5
        n_frames = 1 + int(2.0 * 44100) // 32
        spec = spec_from(np.full((3, n_frames), c))
        grid = bars.BarGrid([0.0, 2.0])
        tf = bars.barwise_tf(spec, grid, subdivision=8)
        assert tf.values.shape == (1, 24)
        assert np.all(tf.values == c)

    def test_periodic_bars_identical_rows(self):
        frames_per_bar = 100
        hop, sr = 32, 3200  # 1 second per bar exactly
        pattern = np.random.default_rng(1).random((4, frames_per_bar))
        values = np.tile(pattern, 2)
        values = np.concatenate([values, values[:, :1]], axis=1)
        spec = spec_from(values, hop=hop, sr=sr)
        grid = bars.BarGrid([0.0, 1.0, 2.0])
        tf = bars.barwise_tf(spec, grid, subdivision=10)
        assert np.array_equal(tf.values[0], tf.values[1])

    def test_row_length_chroma(self):
        # f=12, s=96 -> rows of length 1152
        spec = spec_from(np.zeros((12, 2000)))
        grid = bars.BarGrid([0.0, 1.0])
        tf = bars.barwise_tf(spec, grid, subdivision=96)
        assert tf.values.shape == (1, 1152)

    def test_frequency_major_vectorization(self):
        values = np.arange(12).reshape(3, 4).astype(float)
        spec = spec_from(values, hop=1, sr=4)
        grid = bars.BarGrid([0.0, 1.0])
        tf = bars.barwise_tf(spec, grid, subdivision=4)
        # all frames of bin 0, then bin 1, then bin 2
        assert np.array_equal(tf.values[0], values.ravel())
        assert np.array_equal(tf.bar_patch(0), values)

    def test_degenerate_bar_rejected_with_index(self):
        spec = spec_from(np.zeros((2, 100)), hop=32, sr=3200)
        grid = bars.BarGrid([0.0, 0.5, 0.5001, 0.5002])
        with pytest.raises(ValueError, match=r"^bar 1: downbeats map to an empty frame range \[50, 50\)$"):
            bars.barwise_tf(spec, grid, subdivision=4)

    def test_grid_past_the_end_has_an_empty_bar_0(self):
        spec = spec_from(np.zeros((2, 100)), hop=32, sr=3200)
        with pytest.raises(ValueError, match=r"^bar 0: downbeats map to an empty frame range \[100, 100\)$"):
            bars.barwise_tf(spec, bars.BarGrid([2.0, 3.0]), subdivision=4)

    def test_plan_matches_per_bar_loop(self):
        # A one-bin feature whose value is its frame index reads back the plan.
        hop, sr = 32, 3200
        rng = np.random.default_rng(4)
        for _ in range(200):
            steps = rng.integers(1, 300, int(rng.integers(1, 20)))
            edges = int(rng.integers(0, 50)) + np.concatenate([[0], np.cumsum(steps)])
            n_frames = int(edges[-2] + 1 + rng.integers(0, 2 * steps[-1]))  # may cap the last edge
            grid = bars.BarGrid((edges + rng.uniform(0, 0.4, len(edges))) * hop / sr)
            subdivision = int(rng.integers(1, 130))
            spec = spec_from(np.arange(n_frames)[None, :], hop=hop, sr=sr)
            tf = bars.barwise_tf(spec, grid, subdivision)
            expected = per_bar_plan(bars.downbeat_frames(grid.downbeats, spec), subdivision)
            assert np.array_equal(tf.values, expected)

    def test_bars_from_the_last_frame_on_are_dropped(self):
        # 10 frames a second, 11 frames: the last frame is 10, at 1.0 s.
        frames = types.SimpleNamespace(sample_rate=10, hop=1, n_frames=11)
        grid = bars.BarGrid([0.0, 0.5, 0.94, 0.96, 1.2, 1.4])
        cut, dropped = bars.drop_bars_past_end(grid, frames)
        # Bar 2 starts at frame 9 and is kept; bar 3 starts at frame 10.
        assert cut.downbeats.tolist() == [0.0, 0.5, 0.94, 0.96]
        assert dropped == 2
        same, none_dropped = bars.drop_bars_past_end(cut, frames)
        assert same.downbeats.tolist() == cut.downbeats.tolist() and none_dropped == 0
        with pytest.raises(ValueError, match=r"all 2 bars start at or past the last frame \(10\)"):
            bars.drop_bars_past_end(bars.BarGrid([1.0, 1.5, 2.0]), frames)

    def test_bar_permutation_permutes_rows(self):
        rng = np.random.default_rng(2)
        bar_a = rng.random((4, 50))
        bar_b = rng.random((4, 50))
        hop, sr = 32, 1600  # 1 second per bar
        grid = bars.BarGrid([0.0, 1.0, 2.0])
        ab = spec_from(np.concatenate([bar_a, bar_b, bar_a[:, :1]], axis=1), hop=hop, sr=sr)
        ba = spec_from(np.concatenate([bar_b, bar_a, bar_b[:, :1]], axis=1), hop=hop, sr=sr)
        tf_ab = bars.barwise_tf(ab, grid, subdivision=10)
        tf_ba = bars.barwise_tf(ba, grid, subdivision=10)
        assert np.array_equal(tf_ab.values[0], tf_ba.values[1])
        assert np.array_equal(tf_ab.values[1], tf_ba.values[0])

    def test_output_shape_invariant(self):
        rng = np.random.default_rng(3)
        spec = spec_from(rng.random((7, 500)), hop=32, sr=1600)
        grid = bars.BarGrid([0.0, 2.1, 4.3, 7.7, 9.9])
        tf = bars.barwise_tf(spec, grid, subdivision=13)
        assert tf.values.shape == (4, 7 * 13)


def tempo_change_song():
    """16 bars of 0.5 s, then 16 bars of 0.8 s."""
    first, grid1, _ = synthetic.make_song("AAAAAAAABBBBBBBB", bar_seconds=0.5)
    second, grid2, _ = synthetic.make_song("CCCCCCCCAAAAAAAA", bar_seconds=0.8, seed=5)
    downbeats = np.concatenate([grid1.downbeats, grid1.downbeats[-1] + grid2.downbeats[1:]])
    return np.concatenate([first, second]), bars.BarGrid(downbeats)


SONGS = {
    "acceptance": lambda: synthetic.make_song()[:2],
    "tempo_change": tempo_change_song,
    # 0.05 s bars span 69 frames, fewer than the 96 each bar reads.
    "short_bars": lambda: synthetic.make_song(bar_seconds=0.05)[:2],
}


@pytest.fixture(scope="module", params=list(SONGS))
def song(request):
    samples, grid = SONGS[request.param]()
    return request.param, AudioSignal(samples, 44100), grid


class TestBarwiseFromFeatureFrames:
    @pytest.mark.parametrize("kind", FEATURES)
    def test_matches_dense_feature(self, one_blas_thread, song, kind):
        name, signal, grid = song
        lazy = bars.barwise_tf(FeatureFrames(signal, kind), grid)
        dense = bars.barwise_tf(spec_from(compute_feature(signal, kind)), grid)
        assert (lazy.n_bins, lazy.subdivision) == (dense.n_bins, dense.subdivision)
        if name == "short_bars" and kind != "chroma":
            # The last bar's columns sit at the tail of the dense `fb @ power`
            # product, which BLAS may round differently.
            np.testing.assert_allclose(lazy.values, dense.values, rtol=1e-12, atol=0)
        else:
            assert np.array_equal(lazy.values, dense.values)

    @pytest.mark.parametrize("frame", [-1, 1 + 44100 // 32])
    def test_at_rejects_frames_outside_the_grid(self, frame):
        feature = FeatureFrames(AudioSignal(np.zeros(44100), 44100), "nnlms")
        with pytest.raises(IndexError, match=r"frame indices must lie in \[0, 1379\)"):
            feature.at([0, frame])

    @pytest.mark.parametrize("samples, kwargs, message", [
        (np.zeros(4096), {"n_fft": 16, "hop": 32}, "need n_fft >= hop >= 1"),
        (np.zeros(0), {}, "signal is empty"),
        (np.zeros(1024), {}, r"signal too short for centered frames \(need > 1024 samples\)"),
        (np.zeros(4096), {"kind": "cqt"}, "unknown feature kind 'cqt'"),
    ])
    def test_inputs_checked_when_built(self, samples, kwargs, message):
        kind = kwargs.pop("kind", "nnlms")
        with pytest.raises(ValueError, match=message):
            FeatureFrames(AudioSignal(samples, 44100), kind, **kwargs)

    def test_memory_grows_with_bars_not_duration(self):
        # 600 s in 32 bars: the dense power spectrogram alone would take 6.3 GiB.
        samples, grid, _ = synthetic.make_song(bar_seconds=600 / 32)
        signal = AudioSignal(samples, 44100)

        def build():
            tf = bars.barwise_tf(FeatureFrames(signal, "nnlms"), grid)
            assert tf.values.shape == (32, 80 * 96)

        peak = traced_peak(build)
        assert peak < 3 * samples.nbytes, f"peak {peak / 2**20:.0f} MB for {samples.nbytes / 2**20:.0f} MB of samples"
