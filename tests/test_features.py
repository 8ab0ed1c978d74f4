import os
import re
import struct
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
import scipy.io.wavfile

from barseg import bars, cli, features, workers

from conftest import traced_peak

# Every kind FeatureFrames computes: the power STFT and the features a run can ask for.
KINDS = ("stft_power",) + features.FEATURES


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


def power_at_reference(signal, frames, n_fft, hop):
    """The power STFT at the given frames as one full array.

    A copy of the loop that the per-chunk STFT replaced: a gather of
    reflected indices per 256-frame chunk, stored into one
    (n_fft/2 + 1) x len(frames) array.
    """
    x = signal.samples
    n = len(x)
    offsets = np.arange(n_fft) - n_fft // 2
    window = features._hann_window(n_fft)
    out = np.empty((n_fft // 2 + 1, len(frames)), dtype=np.float64)
    chunk = 256
    for start in range(0, len(frames), chunk):
        block = frames[start:start + chunk]
        idx = block[:, None] * hop + offsets
        if idx[:, 0].min() < 0 or idx[:, -1].max() >= n:
            idx = np.abs(idx)
            idx = np.where(idx >= n, 2 * (n - 1) - idx, idx)
        spectrum = np.fft.rfft(x[idx] * window, axis=1)
        out[:, start:start + len(block)] = (spectrum.real**2 + spectrum.imag**2).T
    return out


def feature_at_reference(signal, kind, frames, n_fft, hop):
    """The feature at the given frames: the full power array, then the feature's arithmetic in one call."""
    power = power_at_reference(signal, frames, n_fft, hop)
    return features._feature_of_power(kind, n_fft, signal.sample_rate)[1](power)


def scipy_load_wav(path):
    """The SciPy-based `features.load_wav` that the struct reader replaced, kept as its reference."""
    try:
        with warnings.catch_warnings():
            # Truncated payloads only warn by default; treat them as corrupt.
            warnings.simplefilter("error", scipy.io.wavfile.WavFileWarning)
            sr, raw = scipy.io.wavfile.read(path)
    except Exception as exc:
        raise ValueError(f"{path}: cannot decode WAV file ({exc})") from exc
    if raw.dtype == np.int16:
        samples = raw.astype(np.float64) / 32768.0
    elif raw.dtype == np.int32:
        samples = raw.astype(np.float64) / 2147483648.0
    elif raw.dtype == np.uint8:
        samples = (raw.astype(np.float64) - 128.0) / 128.0
    elif raw.dtype in (np.float32, np.float64):
        samples = raw.astype(np.float64)
    else:
        raise ValueError(f"{path}: unsupported WAV sample format {raw.dtype}")
    if samples.ndim == 2:
        samples = samples.mean(axis=1)
    return features.AudioSignal(samples=samples, sample_rate=int(sr))


def chunk(chunk_id, body, order="<", size=None):
    """One RIFF chunk: id, size (len(body) unless given), body and the pad byte of an odd size."""
    size = len(body) if size is None else size
    return chunk_id + struct.pack(order + "I", size) + body + b"\0" * (len(body) % 2)


def fmt_chunk(tag, channels, bits, width, rate=44100, order="<", extensible=False):
    """A fmt chunk; an extensible one carries `tag` in its subformat GUID."""
    block = width * channels
    fields = (0xFFFE if extensible else tag, channels, rate, rate * block, block, bits)
    body = struct.pack(order + "HHIIHH", *fields)
    if extensible:
        guid = struct.pack(order + "IHH", tag, 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
        body += struct.pack(order + "HHI", 22, bits, 0) + guid
    return chunk(b"fmt ", body, order)


def riff_file(*chunks, order="<"):
    body = b"WAVE" + b"".join(chunks)
    return (b"RIFX" if order == ">" else b"RIFF") + struct.pack(order + "I", len(body)) + body


def rf64_file(fmt, payload):
    """An RF64 file: sizes in a ds64 chunk, and 0xFFFFFFFF in the RIFF and data size fields."""
    tail = fmt + chunk(b"data", payload, size=0xFFFFFFFF)
    ds64 = chunk(b"ds64", struct.pack("<QQQI", 4 + 36 + len(tail), len(payload), 0, 0))
    return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + b"WAVE" + ds64 + tail


# name: (format tag, bits, bytes per sample, NumPy type of the stored samples or None for 3 bytes)
WAV_FORMATS = {
    "uint8": (1, 8, 1, "u1"),
    "int16": (1, 16, 2, "i2"),
    "int24": (1, 24, 3, None),
    "int32": (1, 32, 4, "i4"),
    "float32": (3, 32, 4, "f4"),
    "float64": (3, 64, 8, "f8"),
}


def wav_payload(name, channels, n_frames=301, order="<", seed=0):
    """Random samples of a format, as the bytes of a data chunk."""
    _, _, width, kind = WAV_FORMATS[name]
    rng = np.random.default_rng(seed)
    n = n_frames * channels
    if kind is None:
        triples = np.frombuffer(rng.bytes(3 * n), np.uint8).reshape(n, 3)
        return (triples[:, ::-1] if order == ">" else triples).tobytes()
    if kind.startswith("f"):
        return rng.uniform(-1, 1, n).astype(order + kind).tobytes()
    info = np.iinfo(kind)
    return rng.integers(info.min, info.max, n, endpoint=True).astype(order + kind).tobytes()


def wav_bytes(name, channels, order="<", extensible=False, seed=0, n_frames=301):
    tag, bits, width, _ = WAV_FORMATS[name]
    fmt = fmt_chunk(tag, channels, bits, width, order=order, extensible=extensible)
    payload = wav_payload(name, channels, n_frames=n_frames, order=order, seed=seed)
    return riff_file(fmt, chunk(b"data", payload, order), order=order)


def decode_bytes(tmp_path, data, reader=None):
    path = tmp_path / "probe.wav"
    path.write_bytes(data)
    return (reader or features.load_wav)(path)


class TestLoadWavMatchesScipy:
    """`load_wav` gives the SciPy-based reader's samples, byte for byte."""

    def assert_same(self, tmp_path, data):
        new = decode_bytes(tmp_path, data)
        old = decode_bytes(tmp_path, data, scipy_load_wav)
        assert new.sample_rate == old.sample_rate
        assert new.samples.tobytes() == old.samples.tobytes()

    @pytest.mark.parametrize("channels", [1, 2, 6])
    @pytest.mark.parametrize("name", list(WAV_FORMATS))
    def test_format(self, tmp_path, name, channels):
        self.assert_same(tmp_path, wav_bytes(name, channels))

    @pytest.mark.parametrize("name", list(WAV_FORMATS))
    def test_extensible(self, tmp_path, name):
        self.assert_same(tmp_path, wav_bytes(name, 2, extensible=True))

    def test_scipy_written_files(self, tmp_path):
        # SciPy's writer adds a fact chunk and a cbSize field to float files.
        rng = np.random.default_rng(3)
        for data in (rng.uniform(-1, 1, (500, 2)).astype(np.float32), rng.integers(-9, 9, 500).astype(np.int16)):
            path = tmp_path / "written.wav"
            scipy.io.wavfile.write(path, 22050, data)
            self.assert_same(tmp_path, path.read_bytes())

    def test_rifx_uint8(self, tmp_path):
        self.assert_same(tmp_path, wav_bytes("uint8", 2, order=">"))

    @pytest.mark.parametrize("name", list(WAV_FORMATS))
    def test_rifx_matches_riff(self, tmp_path, name):
        # Wider RIFX samples came back big-endian from SciPy, which the
        # scaling code did not accept; they now decode as the RIFF file does.
        riff = decode_bytes(tmp_path, wav_bytes(name, 2))
        rifx = decode_bytes(tmp_path, wav_bytes(name, 2, order=">"))
        assert rifx.samples.tobytes() == riff.samples.tobytes()

    @pytest.mark.parametrize("name", ["int16", "int24", "float64"])
    def test_rf64(self, tmp_path, name):
        tag, bits, width, _ = WAV_FORMATS[name]
        self.assert_same(tmp_path, rf64_file(fmt_chunk(tag, 2, bits, width), wav_payload(name, 2)))

    def test_24_bit_is_left_justified(self, tmp_path):
        payload = bytes([0x01, 0x00, 0x80, 0xFF, 0xFF, 0x7F])  # -2**23 + 1, then 2**23 - 1
        sig = decode_bytes(tmp_path, riff_file(fmt_chunk(1, 1, 24, 3), chunk(b"data", payload)))
        assert sig.samples.tolist() == [(-2**23 + 1) / 2**23, (2**23 - 1) / 2**23]

    def test_extra_chunks_are_skipped(self, tmp_path):
        # A Broadcast WAV bext chunk and an odd-sized LIST chunk, with its
        # pad byte, on each side of the data chunk.
        payload = wav_payload("int16", 1)
        extras = chunk(b"bext", b"\0" * 4) + chunk(b"LIST", b"INFOISFT\x05\0\0\0abcd\0")
        plain = decode_bytes(tmp_path, riff_file(fmt_chunk(1, 1, 16, 2), chunk(b"data", payload)))
        data = riff_file(fmt_chunk(1, 1, 16, 2), extras, chunk(b"data", payload), extras)
        assert decode_bytes(tmp_path, data).samples.tobytes() == plain.samples.tobytes()

    @pytest.mark.parametrize("case", [
        "truncated payload", "partial stereo frame", "partial 24-bit sample", "data before fmt",
        "adpcm", "16-bit float", "8-byte pcm", "no channels",
    ])
    def test_rejected(self, tmp_path, case):
        fmt16 = fmt_chunk(1, 2, 16, 2)
        data = {
            "truncated payload": wav_bytes("int16", 2)[:-10],
            "partial stereo frame": riff_file(fmt16, chunk(b"data", b"\1" * 6)),
            "partial 24-bit sample": riff_file(fmt_chunk(1, 1, 24, 3), chunk(b"data", b"\1" * 7)),
            "data before fmt": riff_file(chunk(b"data", b"\0" * 8), fmt16),
            "adpcm": riff_file(fmt_chunk(2, 1, 4, 1), chunk(b"data", b"\0" * 8)),
            "16-bit float": riff_file(fmt_chunk(3, 1, 16, 2), chunk(b"data", b"\0" * 8)),
            "8-byte pcm": riff_file(fmt_chunk(1, 1, 64, 8), chunk(b"data", b"\0" * 16)),
            "no channels": riff_file(fmt_chunk(1, 0, 16, 2), chunk(b"data", b"\0" * 8)),
        }[case]
        with pytest.raises(ValueError, match="cannot decode WAV file"):
            decode_bytes(tmp_path, data)
        with pytest.raises(ValueError):
            decode_bytes(tmp_path, data, scipy_load_wav)


class TestDecodePerSubBlock:
    """`load_wav` keeps the stored samples; features decode them a sub-block at a time."""

    @pytest.mark.parametrize("order", ["<", ">"])
    @pytest.mark.parametrize("channels", [1, 2, 6])
    @pytest.mark.parametrize("name", list(WAV_FORMATS))
    def test_features_match_the_decoded_song(self, one_blas_thread, tmp_path, name, channels, order):
        stored_path, riff_path = tmp_path / "stored.wav", tmp_path / "riff.wav"
        stored_path.write_bytes(wav_bytes(name, channels, order=order, n_frames=6000))
        # SciPy decodes no wide RIFX sample, so the reference reads the RIFF file of the same samples.
        riff_path.write_bytes(wav_bytes(name, channels, n_frames=6000))
        stored = features.load_wav(stored_path)
        reference = scipy_load_wav(riff_path)
        decoded = features.AudioSignal(reference.samples, reference.sample_rate)
        assert stored.samples.flags.writeable
        for kind in KINDS:
            feature = features.FeatureFrames(stored, kind)
            last = feature.n_frames - 1
            # Two chunks; frames below 32 and above 155 reach past an end and are reflected.
            inner = np.random.default_rng(channels).integers(0, feature.n_frames, 600)
            frames = np.concatenate([[0, 1, last, 2], inner, [last - 1, last, 0]])
            expected = features.FeatureFrames(decoded, kind).at(frames)
            assert feature.at(frames).tobytes() == expected.tobytes(), kind

    def test_peak_memory_is_the_file_and_a_few_mib(self, tmp_path):
        # A 60 s 16-bit stereo song of 30 two-second bars. Decoding the whole
        # song to float64, with its channel mean and a finiteness mask, took
        # the peak to 7x the file. What remains beyond the file is two
        # workers' power blocks (5 MiB), the 80 x 2880 output and its
        # bar-major copy (3.5 MiB), and each worker's sub-block temporaries.
        path = tmp_path / "long.wav"
        rng = np.random.default_rng(14)
        scipy.io.wavfile.write(path, 44100, rng.integers(-20000, 20000, (60 * 44100, 2)).astype(np.int16))
        grid = bars.BarGrid(np.arange(31) * 2.0)

        def build():
            assert bars.barwise_tf(features.FeatureFrames(features.load_wav(path), "nnlms"), grid).n_bars == 30

        peak = traced_peak(build)
        assert peak < os.path.getsize(path) + 12 * 2**20


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

    @pytest.mark.parametrize("tag, channels, bits, block_align", [
        (1, 1, 32, 2),  # 32-bit PCM in 2-byte samples would read as int16
        (3, 1, 64, 4),  # 64-bit float in 4 bytes would read as float32
        (1, 2, 16, 5),  # stereo 16-bit in 5-byte frames would read as 4-byte int16 pairs
    ])
    def test_fmt_sizes_must_agree(self, tmp_path, tag, channels, bits, block_align):
        body = struct.pack("<HHIIHH", tag, channels, 44100, 44100 * block_align, block_align, bits)
        data = riff_file(chunk(b"fmt ", body), chunk(b"data", b"\1" * (20 * block_align)))
        with pytest.raises(ValueError, match=r"cannot decode WAV file \(fmt chunk sizes disagree"):
            decode_bytes(tmp_path, data)

    @pytest.mark.parametrize("rate, samples, reason", [
        (0, [0.0, 0.5], "sample_rate must be positive, got 0"),
        (44100, [0.0, np.nan, 0.5], "audio contains non-finite samples"),
    ], ids=["rate_0", "nan"])
    def test_signal_errors_name_the_file(self, tmp_path, capsys, rate, samples, reason):
        path = tmp_path / "bad.wav"
        payload = np.array(samples, "<f4").tobytes()
        path.write_bytes(riff_file(fmt_chunk(3, 1, 32, 4, rate=rate), chunk(b"data", payload)))
        message = f"{path}: cannot decode WAV file ({reason})"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            features.load_wav(path)
        assert cli.main(["features", str(path), "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"barseg: error: {message}\n"

    def test_signal_owns_its_samples(self):
        x = np.zeros(4096)
        signal = features.AudioSignal(x, 44100)
        x[0] = np.nan
        signal.samples[1] = np.inf
        assert np.array_equal(signal.samples, np.zeros(4096))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_rejected(self, bad):
        # The bad sample lies past the first block the check reads.
        samples = np.zeros(2 * features._CHECK_BLOCK)
        samples[features._CHECK_BLOCK + 5] = bad
        with pytest.raises(ValueError, match="audio contains non-finite samples"):
            features.AudioSignal(samples, 44100)


class TestStftPower:
    def test_sine_at_bin_center(self):
        n_fft, sr = 2048, 44100
        k = 100
        sig = features.AudioSignal(sine(k * sr / n_fft), sr)
        spec = features.compute_feature(sig, "stft_power", n_fft=n_fft, hop=512)
        # Frames whose window overlaps the reflect padding can smear by a bin.
        interior = spec[:, 3:-3]
        assert np.all(interior.argmax(axis=0) == k)

    def test_silence_is_zero(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        spec = features.compute_feature(sig, "stft_power")
        assert np.all(spec == 0.0)
        assert spec.shape == (1025, 1 + 44100 // 32)

    def test_frame_count_convention(self):
        sig = features.AudioSignal(np.random.default_rng(0).standard_normal(10000), 44100)
        spec = features.compute_feature(sig, "stft_power", hop=32)
        assert spec.shape[1] == 1 + 10000 // 32

    def test_parseval_on_white_noise(self):
        import scipy.signal

        # Oracle: windowed time-domain frame energy computed directly.
        rng = np.random.default_rng(7)
        x = rng.standard_normal(20000)
        n_fft, hop = 2048, 512
        sig = features.AudioSignal(np.clip(x / 4, -1, 1), 44100)
        spec = features.compute_feature(sig, "stft_power", n_fft=n_fft, hop=hop)
        window = scipy.signal.get_window("hann", n_fft, fftbins=True)
        padded = np.pad(sig.samples, n_fft // 2, mode="reflect")
        freq_energy, time_energy = [], []
        for t in range(spec.shape[1]):
            frame = padded[t * hop : t * hop + n_fft] * window
            time_energy.append(np.sum(frame**2))
            power = spec[:, t]
            # One-sided spectrum: double all bins except DC and Nyquist.
            total = power[0] + power[-1] + 2 * power[1:-1].sum()
            freq_energy.append(total / n_fft)
        assert np.mean(freq_energy) == pytest.approx(np.mean(time_energy), rel=1e-6)

    def test_determinism(self, tmp_path):
        path = tmp_path / "tone.wav"
        write_wav(path, sine(440, 0.5))
        a = features.compute_feature(features.load_wav(path), "stft_power")
        b = features.compute_feature(features.load_wav(path), "stft_power")
        assert np.array_equal(a, b)

    def test_empty_signal_rejected(self):
        with pytest.raises(ValueError):
            features.compute_feature(features.AudioSignal(np.zeros(0), 44100), "stft_power")

    @pytest.mark.parametrize("n_samples, n_fft, hop", [(44100 * 4, 2048, 32), (10001, 512, 100)])
    def test_matches_padded_reference(self, n_samples, n_fft, hop):
        # 44100*4 samples at hop 32 give 5513 frames, which span many FFT chunks.
        sig = features.AudioSignal(np.random.default_rng(4).uniform(-1, 1, n_samples), 44100)
        expected = padded_stft_power_reference(sig.samples, n_fft, hop)
        assert np.array_equal(features.compute_feature(sig, "stft_power", n_fft=n_fft, hop=hop), expected)
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
        # SciPy costs most of the package import time; the window is built
        # directly, the WAV reader uses struct and NumPy, and the MFCC DCT
        # is a NumPy matrix product, so `import barseg` loads no SciPy.
        # The helper threads' concurrent.futures is imported at the call.
        src = os.path.dirname(os.path.dirname(features.__file__))
        code = ("import sys, barseg; print(sorted(m for m in sys.modules"
                " if m.startswith('scipy') or m == 'concurrent.futures'))")
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout == "[]\n"


# The default grid, odd hops, hop == n_fft, and a 33-bin STFT.
FFT_HOP_PAIRS = [(2048, 32), (1024, 3), (512, 7), (256, 256), (2048, 2048), (64, 1)]


class TestFeatureFramesChunks:
    @pytest.mark.parametrize("n_fft, hop", FFT_HOP_PAIRS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_at_equals_whole_array_reference(self, one_blas_thread, kind, n_fft, hop):
        sig = features.AudioSignal(np.random.default_rng(8).uniform(-1, 1, 40000), 44100)
        feature = features.FeatureFrames(sig, kind, n_fft=n_fft, hop=hop)
        last = feature.n_frames - 1
        rng = np.random.default_rng(n_fft + hop)
        # Counts around one and two chunks of 256, and a partial last chunk.
        frame_lists = [rng.integers(0, feature.n_frames, count) for count in (1, 255, 256, 257, 511, 700, 3075)]
        frame_lists += [
            np.array([0, 1, last - 1, last, 0, last, 2]),  # reflected at both ends
            np.repeat(rng.integers(0, feature.n_frames, 300), 3),  # repeated
            rng.permutation(feature.n_frames)[::-1],  # unsorted, every frame
        ]
        # OpenBLAS runs a GEMM of at most 10^6 multiply-adds through a
        # small-matrix kernel that rounds its trailing columns differently.
        # With 80 mel bands and 33 bins, a last chunk narrower than 379
        # frames takes that kernel where one GEMM over all frames does not.
        exact = not (n_fft == 64 and kind in ("mel", "lms", "nnlms"))
        for frames in frame_lists:
            got = feature.at(frames)
            expected = feature_at_reference(sig, kind, frames, n_fft, hop)
            assert got.shape == expected.shape
            if exact:
                assert got.tobytes() == expected.tobytes(), f"{len(frames)} frames"
            else:
                np.testing.assert_allclose(got, expected, rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("kind", KINDS)
    def test_no_frames_give_an_empty_matrix(self, kind):
        sig = features.AudioSignal(np.random.default_rng(9).uniform(-1, 1, 5000), 44100)
        expected = features.compute_feature(sig, kind)[:, :0]
        got = features.FeatureFrames(sig, kind).at([])
        assert isinstance(got, np.ndarray) and got.shape == expected.shape

    @pytest.mark.parametrize("frames", [[1.7], [True, False], np.array([1.0, 2.0])])
    def test_at_rejects_non_integer_indices(self, frames):
        feature = features.FeatureFrames(features.AudioSignal(np.zeros(5000), 44100), "nnlms")
        with pytest.raises(ValueError, match="frame indices must be integers"):
            feature.at(frames)

    def test_filterbank_built_once_per_at_call(self, monkeypatch):
        calls = []
        mel_filterbank = features.mel_filterbank
        monkeypatch.setattr(features, "mel_filterbank", lambda *args: calls.append(args) or mel_filterbank(*args))
        feature = features.FeatureFrames(features.AudioSignal(np.zeros(20000), 44100), "nnlms")
        assert len(calls) == 0
        feature.at(np.arange(600))
        assert len(calls) == 1
        feature.at([3])
        assert len(calls) == 2

    @pytest.mark.parametrize("kind", ["mel", "lms", "nnlms"])
    def test_mel_bands_need_32_khz_before_any_filterbank(self, monkeypatch, kind):
        # MEL_FMAX is 16 kHz, so the 80 bands need a Nyquist frequency at least that high.
        calls = []
        monkeypatch.setattr(features, "mel_filterbank", lambda *args: calls.append(args))
        signal = features.AudioSignal(np.zeros(20000), 22050)
        with pytest.raises(ValueError, match=rf"feature '{kind}' needs a sample rate of at least 32 kHz "
                                             r"\(its mel bands reach 16000 Hz\), got 22050 Hz"):
            features.FeatureFrames(signal, kind)
        assert calls == []
        features.FeatureFrames(features.AudioSignal(np.zeros(20000), 32000), kind)

    def test_peak_memory_stays_below_half_the_power_array(self):
        # 11,520 frames: the 120 bars of 96 frames of a four-minute song.
        n_frames = 11520
        x = np.random.default_rng(10).uniform(-1, 1, n_frames * 32 + 4096)
        feature = features.FeatureFrames(features.AudioSignal(x, 44100), "nnlms")
        frames = np.arange(n_frames)
        assert traced_peak(lambda: feature.at(frames)) < 1025 * n_frames * 8 / 2


class TestFeatureFramesWorkers:
    """`at()` gives the same bytes on one worker and on two, on any host."""

    @pytest.mark.parametrize("blas", ["one_blas_thread", "default_blas_threads"])
    @pytest.mark.parametrize("n_fft, hop", FFT_HOP_PAIRS)
    @pytest.mark.parametrize("kind", KINDS)
    def test_one_and_two_workers_agree(self, monkeypatch, request, blas, kind, n_fft, hop):
        if blas == "one_blas_thread":
            request.getfixturevalue(blas)
        sig = features.AudioSignal(np.random.default_rng(11).uniform(-1, 1, 40000), 44100)
        feature = features.FeatureFrames(sig, kind, n_fft=n_fft, hop=hop)
        rng = np.random.default_rng(n_fft * hop)
        # Five chunks, with frames reflected at both ends in the first and last.
        frames = np.concatenate([[0, 1], rng.integers(0, feature.n_frames, 1530), [feature.n_frames - 1]])
        results = {}
        for count in (1, 2):
            monkeypatch.setattr(workers, "worker_count", lambda: count)
            results[count] = [feature.at(frames).tobytes() for _ in range(2)]
        assert results[1][0] == results[1][1] == results[2][0] == results[2][1]

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_failing_chunk_leaves_no_thread_running(self, monkeypatch, failing):
        feature_of_power = features._feature_of_power
        caller = threading.current_thread()
        helper_took_a_chunk = threading.Event()

        def failing_feature_of_power(*args):
            n_rows, feature_of = feature_of_power(*args)

            def fails_on_one_thread(power):
                on_caller = threading.current_thread() is caller
                if on_caller:
                    # Hold the caller's first chunk until the helper has one,
                    # so both workers run on a slow host too.
                    helper_took_a_chunk.wait(timeout=30)
                else:
                    helper_took_a_chunk.set()
                if on_caller == (failing == "caller"):
                    raise RuntimeError(f"chunk failed on the {failing}")
                return feature_of(power)
            return n_rows, fails_on_one_thread

        monkeypatch.setattr(features, "_feature_of_power", failing_feature_of_power)
        monkeypatch.setattr(workers, "worker_count", lambda: 2)
        sig = features.AudioSignal(np.random.default_rng(12).uniform(-1, 1, 40000), 44100)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match=f"chunk failed on the {failing}"):
            features.FeatureFrames(sig, "nnlms").at(np.arange(1200))
        assert helper_took_a_chunk.is_set()
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", ["caller", "helper"])
    def test_a_failure_leaves_the_other_worker_no_new_chunk(self, monkeypatch, failing):
        feature_of_power = features._feature_of_power
        caller = threading.current_thread()
        holds = {"caller": threading.Event(), "helper": threading.Event()}
        failed, after_failure = threading.Event(), []

        def failing_feature_of_power(*args):
            n_rows, feature_of = feature_of_power(*args)

            def fails_on_one_thread(power):
                on = "caller" if threading.current_thread() is caller else "helper"
                if failed.is_set():
                    after_failure.append(on)
                if not holds[on].is_set():
                    # Each worker holds its first chunk until the other holds one too.
                    holds[on].set()
                    for event in holds.values():
                        event.wait(timeout=30)
                    if on == failing:
                        failed.set()
                        raise RuntimeError(f"chunk failed on the {failing}")
                    failed.wait(timeout=30)
                    time.sleep(0.2)  # the failing worker drains the chunks meanwhile
                return feature_of(power)
            return n_rows, fails_on_one_thread

        monkeypatch.setattr(features, "_feature_of_power", failing_feature_of_power)
        monkeypatch.setattr(workers, "worker_count", lambda: 2)
        sig = features.AudioSignal(np.random.default_rng(12).uniform(-1, 1, 40000), 44100)
        feature = features.FeatureFrames(sig, "nnlms")
        with pytest.raises(RuntimeError, match=f"chunk failed on the {failing}"):
            feature.at(np.arange(20 * features._CHUNK) % feature.n_frames)
        # The other worker finished the chunk it held and computed no other.
        assert all(event.is_set() for event in holds.values())
        assert after_failure == []

    def test_rfft_rows_do_not_depend_on_rows_per_call(self):
        # `_fill_power` takes the rFFT of a chunk's frames a sub-block at a
        # time, and is byte-equal to one call over the chunk only because of this.
        n_fft = 2048
        x = np.random.default_rng(13).uniform(-1, 1, 511 * 32 + n_fft)
        framed = np.lib.stride_tricks.sliding_window_view(x, n_fft)[::32][:511] * features._hann_window(n_fft)
        whole = np.fft.rfft(framed, axis=1).tobytes()
        for rows in (1, 7, features._SUB_BLOCK, 255):
            parts = [np.fft.rfft(framed[lo:lo + rows], axis=1) for lo in range(0, 511, rows)]
            assert np.concatenate(parts).tobytes() == whole, f"{rows} rows per call"


class TestMel:
    def test_zero_power_gives_zero_mel(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        mel = features.compute_feature(sig, "mel")
        assert mel.shape[0] == 80
        assert np.all(mel == 0.0)

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
        mel = features.compute_feature(sig, "mel", hop=512)
        _, centers = features.mel_filterbank(80, 2048, sr, 80.0, 16000.0)
        expected_band = int(np.argmin(np.abs(centers - 1000)))
        band = int(np.bincount(mel.argmax(axis=0)).argmax())
        assert abs(band - expected_band) <= 1

    def test_fmax_above_nyquist_rejected(self):
        with pytest.raises(ValueError):
            features.mel_filterbank(80, 2048, 44100, 80.0, fmax=30000.0)


class TestLogVariants:
    """LMS and NNLMS are logs of the mel feature, as `_feature_of_power` builds them."""

    def mel_and_log(self, kind, power):
        mel = features._feature_of_power("mel", 2048, 44100)[1](power)
        return mel, features._feature_of_power(kind, 2048, 44100)[1](power)

    def one_band_power(self, mel_values):
        """A power block whose mel band 40 takes the given values, one per column, to rounding."""
        fb, _ = features.mel_filterbank(features.N_MELS, 2048, 44100, features.MEL_FMIN, features.MEL_FMAX)
        k = int(np.argmax(fb[40]))
        power = np.zeros((1025, len(mel_values)))
        power[k] = np.asarray(mel_values) / fb[40, k]
        return power

    def test_lms_values(self):
        out = features._decibels(np.array([[1.0, 0.0, 100.0]]))
        assert out[0, 0] == 0.0
        assert out[0, 1] == -100.0  # floored at 1e-10
        assert out[0, 2] == pytest.approx(20.0)
        mel, lms = self.mel_and_log("lms", np.random.default_rng(2).random((1025, 7)))
        assert lms.tobytes() == features._decibels(mel).tobytes()

    def test_nnlms_values(self):
        mel, out = self.mel_and_log("nnlms", self.one_band_power([0.0, np.e - 1.0]))
        assert out[40, 0] == 0.0
        assert out[40, 1] == pytest.approx(1.0)
        assert out.tobytes() == np.log1p(mel).tobytes()

    def test_nnlms_monotone_and_nonnegative(self):
        rng = np.random.default_rng(3)
        a = np.sort(rng.random(50) * 10)
        _, out = self.mel_and_log("nnlms", self.one_band_power(a))
        assert np.all(np.diff(out[40]) > 0)
        assert np.all(out >= 0)


PITCH_CLASSES = ["C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B"]


class TestChroma:
    def chroma_of(self, freq, n_fft=32768):
        sig = features.AudioSignal(sine(freq, 1.5), 44100)
        return features.compute_feature(sig, "chroma", n_fft=n_fft, hop=4096)

    def test_silence(self):
        sig = features.AudioSignal(np.zeros(44100), 44100)
        out = features.compute_feature(sig, "chroma")
        assert out.shape[0] == 12
        assert np.all(out == 0.0)

    def test_a440_maps_to_pitch_class_a(self):
        out = self.chroma_of(440.0)
        assert np.all(out.argmax(axis=0) == PITCH_CLASSES.index("A"))

    def test_octave_equivalence_a880(self):
        out = self.chroma_of(880.0)
        assert np.all(out.argmax(axis=0) == PITCH_CLASSES.index("A"))

    @pytest.mark.parametrize("pc", range(12))
    @pytest.mark.parametrize("octave", [2, 3, 4, 5, 6])
    def test_all_pitch_classes_octaves_2_to_6(self, pc, octave):
        midi = 12 * (octave + 1) + pc
        freq = 440.0 * 2.0 ** ((midi - 69) / 12.0)
        out = self.chroma_of(freq)
        total = out.sum(axis=1)
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

    @pytest.mark.parametrize("n_coeffs", [32, 128])
    def test_matches_scipy_dct(self, n_coeffs):
        import scipy.fft

        log_mel = 20 * np.random.default_rng(n_coeffs).standard_normal((128, 256)) - 60
        expected = scipy.fft.dct(log_mel, type=2, norm="ortho", axis=0)[:n_coeffs]
        coeffs = features.mfcc_from_log_mel(log_mel, n_coeffs=n_coeffs)
        assert coeffs.shape == (n_coeffs, 256)
        assert np.max(np.abs(coeffs - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_identical_frames_identical_mfcc(self):
        # The signal repeats every 4,410 samples, 10 hops of 441. Frames 15
        # and 25 are one period apart and wholly inside the signal; frame
        # 20 is half a period from frame 15.
        sig = features.AudioSignal(np.tile(sine(500, 0.1), 4), 44100)
        out = features.compute_feature(sig, "mfcc", hop=441)
        assert out.shape[0] == 32
        assert np.array_equal(out[:, 15], out[:, 25])
        assert not np.array_equal(out[:, 15], out[:, 20])


class TestSharedProperties:
    @pytest.mark.parametrize("kind", ["chroma", "mel", "lms", "nnlms", "mfcc"])
    def test_shared_time_axis(self, kind):
        sig = features.AudioSignal(sine(330, 0.4), 44100)
        power = features.compute_feature(sig, "stft_power")
        feat = features.compute_feature(sig, kind)
        assert feat.shape[1] == power.shape[1]

    @pytest.mark.parametrize("kind", ["chroma", "mel", "nnlms"])
    def test_nonnegative_kinds(self, kind):
        rng = np.random.default_rng(5)
        sig = features.AudioSignal(np.clip(rng.standard_normal(30000) / 4, -1, 1), 44100)
        feat = features.compute_feature(sig, kind)
        assert feat.min() >= 0.0
