import tracemalloc

import numpy as np
import pytest

from barseg import bars, synthetic
from barseg.features import AudioSignal, FeatureFrames, Spectrogram, compute_feature


def spec_from(values, hop=32, sr=44100, kind="nnlms"):
    return Spectrogram(np.asarray(values, dtype=float), hop, sr, kind)


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
        spec = spec_from(np.zeros((12, 2000)), kind="chroma")
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
        grid = bars.BarGrid([0.0, 0.5, 0.5001])
        with pytest.raises(ValueError, match="bar 1"):
            bars.barwise_tf(spec, grid, subdivision=4)

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


FEATURES = ["chroma", "mel", "lms", "nnlms", "mfcc"]


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
    def test_matches_dense_feature(self, song, kind):
        name, signal, grid = song
        lazy = bars.barwise_tf(FeatureFrames(signal, kind), grid)
        dense = bars.barwise_tf(compute_feature(signal, kind), grid)
        assert (lazy.n_bins, lazy.subdivision, lazy.feature_kind) == (dense.n_bins, dense.subdivision, kind)
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
        tracemalloc.start()
        try:
            tf = bars.barwise_tf(FeatureFrames(signal, "nnlms"), grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert tf.values.shape == (32, 80 * 96)
        assert peak < 3 * samples.nbytes, f"peak {peak / 2**20:.0f} MB for {samples.nbytes / 2**20:.0f} MB of samples"
