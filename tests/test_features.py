import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.io.wavfile

from barseg import features


def write_wav(path, samples, sr=44100, dtype=np.int16):
    if dtype == np.int16:
        data = np.clip(np.asarray(samples) * 32768.0, -32768, 32767).astype(np.int16)
    else:
        data = np.asarray(samples, dtype=dtype)
    scipy.io.wavfile.write(path, sr, data)


def sine(freq, seconds=1.0, sr=44100, amp=0.5):
    t = np.arange(int(seconds * sr)) / sr
    return amp * np.sin(2 * np.pi * freq * t)


def padded_stft_power_reference(samples, n_fft, hop):
    """The power STFT as a copy of the reflect-padded signal, frame by frame."""
    padded = np.pad(samples, n_fft // 2, mode="reflect")
    window = features._hann_window(n_fft)
    frames = np.stack([padded[t * hop:t * hop + n_fft] for t in range(1 + len(samples) // hop)])
    spectrum = np.fft.rfft(frames * window, axis=1)
    return (spectrum.real**2 + spectrum.imag**2).T


class TestLoadWav:
    def test_silence_mono(self, tmp_path):
        path = tmp_path / "silence.wav"
        write_wav(path, np.zeros(44100))
        sig = features.load_wav(path)
        assert len(sig.samples) == 44100
        assert sig.sample_rate == 44100
        assert np.all(sig.samples == 0.0)

    def test_stereo_channel_average(self, tmp_path):
        path = tmp_path / "stereo.wav"
        stereo = np.stack([np.full(1000, 0.5), np.full(1000, -0.5)], axis=1)
        scipy.io.wavfile.write(path, 44100, stereo.astype(np.float32))
        sig = features.load_wav(path)
        assert np.allclose(sig.samples, 0.0)

    def test_int16_scaling(self, tmp_path):
        path = tmp_path / "max.wav"
        scipy.io.wavfile.write(path, 44100, np.array([32767, -32768, 0], dtype=np.int16))
        sig = features.load_wav(path)
        # x / 32768: max int16 lands just below 1.0
        assert sig.samples[0] == pytest.approx(32767 / 32768)
        assert sig.samples[1] == -1.0
        assert sig.samples[2] == 0.0

    def test_truncated_file_rejected(self, tmp_path):
        good = tmp_path / "good.wav"
        write_wav(good, np.zeros(5000))
        bad = tmp_path / "bad.wav"
        bad.write_bytes(good.read_bytes()[:50])
        with pytest.raises(ValueError):
            features.load_wav(bad)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "noise.bin"
        path.write_bytes(b"definitely not a wav file")
        with pytest.raises(ValueError):
            features.load_wav(path)


class TestStftPower:
    def test_sine_at_bin_center(self):
        n_fft, sr = 2048, 44100
        k = 100
        sig = features.AudioSignal(sine(k * sr / n_fft), sr)
        spec = features.stft_power(sig, n_fft=n_fft, hop=512)
        # Frames whose window overlaps the reflect padding can smear by a bin.
        interior = spec.values[:, 3:-3]
        assert np.all(interior.argmax(axis=0) == k)

    def test_silence_is_zero(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        spec = features.stft_power(sig)
        assert np.all(spec.values == 0.0)
        assert spec.values.shape == (1025, 1 + 44100 // 32)

    def test_frame_count_convention(self):
        sig = features.AudioSignal(np.random.default_rng(0).standard_normal(10000), 44100)
        spec = features.stft_power(sig, hop=32)
        assert spec.n_frames == 1 + 10000 // 32

    def test_parseval_on_white_noise(self):
        import scipy.signal

        # Oracle: windowed time-domain frame energy computed directly.
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20000)
        n_fft, hop = 2048, 512
        sig = features.AudioSignal(np.clip(x / 4, -1, 1), 44100)
        spec = features.stft_power(sig, n_fft=n_fft, hop=hop)
        window = scipy.signal.get_window("hann", n_fft, fftbins=True)
        padded = np.pad(sig.samples, n_fft // 2, mode="reflect")
        freq_energy, time_energy = [], []
        for t in range(spec.n_frames):
            frame = padded[t * hop : t * hop + n_fft] * window
            time_energy.append(np.sum(frame**2))
            power = spec.values[:, t]
            # One-sided spectrum: double all bins except DC and Nyquist.
            total = power[0] + power[-1] + 2 * power[1:-1].sum()
            freq_energy.append(total / n_fft)
        assert np.mean(freq_energy) == pytest.approx(np.mean(time_energy), rel=1e-6)

    def test_determinism(self, tmp_path):
        path = tmp_path / "tone.wav"
        write_wav(path, sine(440, 0.5))
        a = features.stft_power(features.load_wav(path)).values
        b = features.stft_power(features.load_wav(path)).values
        assert np.array_equal(a, b)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            features.stft_power(features.AudioSignal(np.zeros(0), 44100))

    @pytest.mark.parametrize("n_samples, n_fft, hop", [(44100 * 4, 2048, 32), (10001, 512, 100)])
    def test_matches_padded_reference(self, n_samples, n_fft, hop):
        # 44100*4 samples at hop 32 give 5513 frames, which span many FFT chunks.
        sig = features.AudioSignal(np.random.default_rng(4).uniform(-1, 1, n_samples), 44100)
        expected = padded_stft_power_reference(sig.samples, n_fft, hop)
        assert np.array_equal(features.stft_power(sig, n_fft=n_fft, hop=hop).values, expected)
        # Any frames, in any order, with repeats and both reflected edges.
        feature = features.FeatureFrames(sig, "stft_power", n_fft=n_fft, hop=hop)
        frames = np.random.default_rng(5).integers(0, feature.n_frames, 5000)
        frames[:3] = [feature.n_frames - 1, 0, feature.n_frames - 1]
        assert np.array_equal(feature.at(frames), expected[:, frames])

    @pytest.mark.parametrize("n_fft", [512, 2048, 4096])
    def test_hann_window_matches_scipy(self, n_fft):
        import scipy.signal

        expected = scipy.signal.get_window("hann", n_fft, fftbins=True)
        assert np.array_equal(features._hann_window(n_fft), expected)

    def test_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal costs most of the package import time; the
        # window is built directly so `import barseg` stays cheap.
        src = os.path.dirname(os.path.dirname(features.__file__))
        code = "import sys, barseg; sys.exit('scipy.signal' in sys.modules)"
        env = {**os.environ, "PYTHONPATH": src}
        assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


class TestMel:
    def test_zero_power_gives_zero_mel(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        mel = features.mel_spectrogram(features.stft_power(sig))
        assert mel.values.shape[0] == 80
        assert np.all(mel.values == 0.0)

    def test_filter_support_inside_range(self):
        fb, centers = features.mel_filterbank(80, 2048, 44100, 80.0, 16000.0)
        bin_freqs = np.arange(1025) * 44100 / 2048
        active = fb.sum(axis=0) > 0
        assert bin_freqs[active].min() >= 80.0
        assert bin_freqs[active].max() <= 16000.0
        assert np.all(fb >= 0)

    def test_sine_hits_nearest_band(self):
        sr = 44100
        sig = features.AudioSignal(sine(1000, 0.3, sr), sr)
        mel = features.mel_spectrogram(features.stft_power(sig, hop=512))
        _, centers = features.mel_filterbank(80, 2048, sr, 80.0, 16000.0)
        expected_band = int(np.argmin(np.abs(centers - 1000)))
        band = int(np.bincount(mel.values.argmax(axis=0)).argmax())
        assert abs(band - expected_band) <= 1

    def test_fmax_above_nyquist_rejected(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        with pytest.raises(ValueError):
            features.mel_spectrogram(features.stft_power(sig), fmax=30000.0)

    def test_wrong_input_kind_rejected(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        mel = features.mel_spectrogram(features.stft_power(sig))
        with pytest.raises(ValueError):
            features.mel_spectrogram(mel)


class TestLogVariants:
    def make_mel(self, values):
        return features.Spectrogram(np.asarray(values, dtype=float), 32, 44100, "mel")

    def test_lms_values(self):
        mel = self.make_mel([[1.0, 0.0, 100.0]])
        out = features.lms(mel)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == -100.0  # floored at 1e-10
        assert out.values[0, 2] == pytest.approx(20.0)

    def test_nnlms_values(self):
        mel = self.make_mel([[0.0, np.e - 1.0]])
        out = features.nnlms(mel)
        assert out.values[0, 0] == 0.0
        assert out.values[0, 1] == pytest.approx(1.0)

    def test_nnlms_monotone_and_nonnegative(self):
        rng = np.random.default_rng(3)
        a = np.sort(rng.random(50) * 10)
        out = features.nnlms(self.make_mel(a[None, :])).values[0]
        assert np.all(np.diff(out) > 0)
        assert np.all(out >= 0)


PITCH_CLASSES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]


class TestChroma:
    def chroma_of(self, freq, n_fft=32768):
        sig = features.AudioSignal(sine(freq, 1.5), 44100)
        power = features.stft_power(sig, n_fft=n_fft, hop=4096)
        return features.chroma(power)

    def test_silence(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        out = features.chroma(features.stft_power(sig))
        assert out.values.shape[0] == 12
        assert np.all(out.values == 0.0)

    def test_a440_maps_to_pitch_class_a(self):
        out = self.chroma_of(440.0)
        assert np.all(out.values.argmax(axis=0) == PITCH_CLASSES.index("A"))

    def test_octave_equivalence_a880(self):
        out = self.chroma_of(880.0)
        assert np.all(out.values.argmax(axis=0) == PITCH_CLASSES.index("A"))

    @pytest.mark.parametrize("pc", range(12))
    @pytest.mark.parametrize("octave", [2, 3, 4, 5, 6])
    def test_all_pitch_classes_octaves_2_to_6(self, pc, octave):
        midi = 12 * (octave + 1) + pc
        freq = 440.0 * 2.0 ** ((midi - 69) / 12.0)
        out = self.chroma_of(freq)
        total = out.values.sum(axis=1)
        assert int(np.argmax(total)) == pc


class TestMfcc:
    def test_constant_log_mel_frame(self):
        c = 3.5
        log_mel = np.full((128, 4), c)
        coeffs = features.mfcc_from_log_mel(log_mel, n_coeffs=32)
        assert coeffs.shape == (32, 4)
        assert np.allclose(coeffs[0], c * np.sqrt(128))
        assert np.allclose(coeffs[1:], 0.0, atol=1e-12)

    def test_dct_orthonormal_roundtrip(self):
        rng = np.random.default_rng(11)
        log_mel = rng.standard_normal((128, 5))
        coeffs = features.mfcc_from_log_mel(log_mel, n_coeffs=128)
        back = scipy.fft.idct(coeffs, type=2, norm="ortho", axis=0)
        assert np.allclose(back, log_mel, atol=1e-9)

    def test_identical_frames_identical_mfcc(self):
        sig = features.AudioSignal(np.tile(sine(500, 0.1), 4), 44100)
        out = features.mfcc(features.stft_power(sig, hop=512))
        assert out.values.shape[0] == 32
        mid = out.values.shape[1] // 2
        assert np.array_equal(out.values[:, mid], out.values[:, mid])


class TestSharedProperties:
    @pytest.mark.parametrize("kind", ["chroma", "mel", "lms", "nnlms", "mfcc"])
    def test_shared_time_axis(self, kind):
        sig = features.AudioSignal(sine(330, 0.4), 44100)
        power = features.stft_power(sig)
        feat = features.compute_feature(sig, kind)
        assert feat.n_frames == power.n_frames

    @pytest.mark.parametrize("kind", ["chroma", "mel", "nnlms"])
    def test_nonnegative_kinds(self, kind):
        rng = np.random.default_rng(5)
        sig = features.AudioSignal(np.clip(rng.standard_normal(30000) / 4, -1, 1), 44100)
        feat = features.compute_feature(sig, kind)
        assert feat.values.min() >= 0.0
