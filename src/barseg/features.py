"""Audio decoding and time-frequency feature extraction.

All features share the same short-time analysis grid: Hann window of
`n_fft` samples, hop of 32 samples at 44.1kHz, centered frames with
reflect padding. Five representations are derived from the power STFT:
chromagram (12 pitch classes), Mel spectrogram (80 bands, 80Hz-16kHz),
its log (LMS) and nonnegative log (NNLMS) variants, and MFCC (32
coefficients from an internal 128-band full-range log-Mel basis).

Features come from `FeatureFrames`, which computes one at chosen frames
only; or from `compute_feature`, at every frame. Both give plain f x T
arrays.

`load_wav` keeps the samples as the file stores them (u1, i2, i4, f4 or
f8 in the file's byte order, frames x channels), with the offset and
scale that map them onto [-1, 1]; no float64 copy of the song is made.
It rejects a fmt chunk whose block align is not channels x bytes per
sample, or whose bits do not fit those bytes. Every `AudioSignal` checks
its float samples for NaN and infinity, 65,536 frames at a time.

`FeatureFrames.at` takes its frames in chunks of 256 or more, each from
samples to feature before its worker takes the next (`workers.share`
splits the chunks between the calling thread and the helper thread),
into disjoint column slices of the output. Within a chunk, the frames
go 16 at a time: gather their stored samples, decode them as (stored -
offset) / scale, average the channels, window, rFFT, and write the
power into that worker's power block. The filterbank GEMM then runs
once over the whole block. So beyond the stored samples and the output,
a call holds one power block per worker, of (n_fft/2 + 1) x 256..511
values (2-4 MB at n_fft=2048), and one sub-block's temporaries per
worker (about 1 MB for mono, plus 256 KB per channel for the float64
decode of the gathered samples). More workers or larger sub-blocks
would raise the peak RSS of the rest of the process: what the helper
thread allocates stays in its own malloc arena after the call. Every
output byte is the same on one worker and on two, and the same as from
the whole song decoded first.
"""

import os
import struct

import numpy as np

from . import workers

DEFAULT_N_FFT = 2048
DEFAULT_HOP = 32
LOG_FLOOR = 1e-10
N_MELS, MEL_FMIN, MEL_FMAX = 80, 80.0, 16000.0
MFCC_BANDS, N_MFCC = 128, 32
# The named features; `FeatureFrames` also gives the power STFT, "stft_power".
FEATURES = ("chroma", "mel", "lms", "nnlms", "mfcc")
# Frames per block of the finiteness check of float samples.
_CHECK_BLOCK = 1 << 16


class AudioSignal:
    """Mono audio in [-1, 1] with its sample rate.

    `AudioSignal(samples, sample_rate)` takes float samples. `load_wav`
    gives one that keeps the file's stored samples (frames, or frames x
    channels) with the offset and scale that map them onto [-1, 1].
    The signal owns its float samples: `AudioSignal` copies them, and
    `.samples` decodes the whole signal into a new float64 array each time
    it is read. `FeatureFrames` decodes only the samples its frames cover.
    """

    def __init__(self, samples, sample_rate):
        samples = np.array(samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ValueError("AudioSignal expects a 1-D sample array")
        self._set(samples, 0.0, 1.0, sample_rate)

    @classmethod
    def _of_stored(cls, stored, offset, scale, sample_rate):
        """A signal over stored samples, which (stored - offset) / scale maps onto [-1, 1]."""
        signal = cls.__new__(cls)
        signal._set(stored, offset, scale, sample_rate)
        return signal

    def _set(self, stored, offset, scale, sample_rate):
        if sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {sample_rate}")
        self._stored, self._offset, self._scale = stored, offset, scale
        self.sample_rate = sample_rate
        if stored.dtype.kind == "f":
            for lo in range(0, len(stored), _CHECK_BLOCK):
                if not np.all(np.isfinite(self._decode(stored[lo:lo + _CHECK_BLOCK]))):
                    raise ValueError("audio contains non-finite samples")

    def __len__(self):
        return len(self._stored)

    @property
    def samples(self):
        """Float64 mono samples of the whole signal, in a new array."""
        samples = self._decode(self._stored)
        return samples.copy() if samples is self._stored else samples

    def _decode(self, stored):
        """Float64 mono samples of stored ones: (stored - offset) / scale, then the channel mean.

        `stored` is any gather of the stored samples that keeps their last
        axis, the channels of a multi-channel signal.
        """
        samples = stored.astype(np.float64, copy=False)  # a copy, unless stored is native float64
        if self._offset:  # only unsigned 8-bit samples have one
            samples -= self._offset
        if self._scale != 1.0:
            # Every scale is a power of two, so multiplying by its inverse gives
            # the bits of `/= scale`, at about a third of the cost.
            samples *= 1.0 / self._scale
        return samples.mean(axis=-1) if self._stored.ndim == 2 else samples


def load_wav(path):
    """Decode a PCM or IEEE-float WAV file into a mono AudioSignal.

    Integer samples are scaled to [-1, 1]; stereo channels are averaged.
    Non-PCM codecs, fmt chunks whose sizes disagree, truncated files,
    partial frames and float samples that decode to NaN or infinity are
    rejected. The signal keeps the samples as stored.
    """
    try:
        with open(path, "rb") as fh:
            sr, raw, offset, scale = _read_wav(fh)
        return AudioSignal._of_stored(raw, offset, scale, int(sr))
    except (OSError, ValueError) as exc:
        raise ValueError(f"{path}: cannot decode WAV file ({exc})") from exc


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE


def _read_exactly(fh, n, array=False):
    """The next n bytes of fh. A size past the file's end raises before any buffer is made.

    Header chunks are read as `bytes`. The data payload (`array=True`)
    is read into an uninitialized uint8 array, which the signal's stored
    samples view; a zero-filled buffer would write every page of a
    payload that the read then overwrites. `.samples` copies them out.
    """
    short = n - (os.fstat(fh.fileno()).st_size - fh.tell())
    if short > 0:
        raise ValueError(f"file ends {short} bytes early")
    if array:
        buf = np.empty(n, np.uint8)
        got = fh.readinto(buf)
    else:
        buf = fh.read(n)
        got = len(buf)
    if got != n:
        raise ValueError("file shrank while being read")
    return buf


def _read_wav(fh):
    """(sample rate, samples, offset, scale) of a RIFF, RIFX or RF64 WAVE file.

    Chunks are read up to the first `data` chunk; chunks other than
    `fmt ` and `ds64` are skipped, with their pad byte. Samples keep
    their stored type and the file's byte order: uint8 (1-8 bits), int16,
    int32 (3-byte samples widened left-justified, so 24-bit x becomes
    x * 256), float32 or float64. Several channels give frames x
    channels. (samples - offset) / scale maps the stored type onto
    [-1, 1].
    """
    riff, _, form = struct.unpack("<4sI4s", _read_exactly(fh, 12))
    if riff not in (b"RIFF", b"RIFX", b"RF64") or form != b"WAVE":
        raise ValueError(f"not a WAVE file (header {riff!r}, form {form!r})")
    order = ">" if riff == b"RIFX" else "<"
    fmt = rf64_data_size = None
    while True:
        chunk_id, size = struct.unpack(order + "4sI", _read_exactly(fh, 8))
        if chunk_id == b"data":
            break
        if chunk_id in (b"fmt ", b"ds64"):
            body = _read_exactly(fh, size)
            if chunk_id == b"fmt ":
                fmt = _parse_fmt(body, order)
            elif size >= 16:
                rf64_data_size = struct.unpack_from("<8xQ", body)[0]
            fh.seek(size % 2, 1)
        else:
            fh.seek(size + size % 2, 1)
    if fmt is None:
        raise ValueError("no fmt chunk before the data chunk")
    if riff == b"RF64":
        if rf64_data_size is None:
            raise ValueError("RF64 file without a ds64 chunk")
        size = rf64_data_size  # the data chunk's own size field is a placeholder
    tag, channels, rate, block_align, bits = fmt
    width = block_align // channels
    if block_align != channels * width or not 1 <= bits <= 8 * width:
        raise ValueError(f"fmt chunk sizes disagree ({channels} channels of {bits} bits in {block_align} bytes)")
    if tag == _PCM and width == 1:
        dtype, offset, scale = "u1", 128.0, 128.0
    elif tag == _PCM and bits > 8 and width in (2, 3, 4):
        dtype, offset, scale = f"{order}i{width}", 0.0, 32768.0 if width == 2 else 2147483648.0
    elif tag == _IEEE_FLOAT and bits == 8 * width and width in (4, 8):
        dtype, offset, scale = f"{order}f{width}", 0.0, 1.0
    else:
        raise ValueError(f"unsupported sample format (format tag {tag}, {bits} bits in {width} bytes)")
    if size % block_align:
        raise ValueError(f"data chunk of {size} bytes holds a partial {block_align}-byte frame")
    payload = _read_exactly(fh, size, array=True)
    if width == 3:
        triples = payload.reshape(-1, 3)
        wide = np.zeros((len(triples), 4), np.uint8)
        (wide[:, 1:] if order == "<" else wide[:, :3])[...] = triples
        payload, dtype = wide, f"{order}i4"
    raw = np.frombuffer(payload, dtype)
    return rate, raw.reshape(-1, channels) if channels > 1 else raw, offset, scale


def _parse_fmt(body, order):
    """(format tag, channels, sample rate, block align, bits per sample) of a fmt chunk.

    A WAVE_FORMAT_EXTENSIBLE tag is replaced by the tag in its subformat
    GUID, {tag-0000-0010-8000-00AA00389B71} (RFC 2361), whose first three
    fields are stored in the file's byte order.
    """
    if len(body) < 16:
        raise ValueError(f"fmt chunk of {len(body)} bytes is too short")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", body)
    if channels == 0:
        raise ValueError("fmt chunk declares no channels")
    guid_tail = struct.pack(order + "HH", 0, 0x10) + b"\x80\x00\x00\xaa\x00\x38\x9b\x71"
    if (tag == _EXTENSIBLE and len(body) >= 40 and struct.unpack_from(order + "H", body, 16)[0] >= 22
            and body[28:40] == guid_tail):
        tag = struct.unpack_from(order + "I", body, 24)[0]
    return tag, channels, rate, block_align, bits


def _hann_window(n_fft):
    """Periodic Hann window, equal to scipy.signal.get_window("hann", n_fft)."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n_fft + 1)[:-1])


# Frames per chunk; `workers.spans` merges a short tail chunk into the one
# before it. Each chunk goes from samples to its feature before its worker
# takes the next, so only the f x frames output grows with the number of
# frames. A chunk's power block is (n_fft/2 + 1) x 256..511 values, 2-4 MB
# at n_fft=2048; 256 frames ran 2.3x faster than 4096 on a 2-core x86-64 host.
_CHUNK = 256
# Frames per decoding, window, rFFT and power step inside a chunk. np.fft.rfft
# gives each row the same bytes whatever the number of rows per call, so the
# sub-blocks change no output byte. At n_fft=2048 their largest temporary is
# the float64 decode of the gathered samples, 256 KB per channel. The helper
# thread's malloc arena keeps what they took: with 64-frame sub-blocks, the
# 16 s acceptance song's AE call peaked at 94.6 MB RSS, against 90.0 MB with
# 16 and 87.4 MB with no helper thread.
_SUB_BLOCK = 16


def _fill_power(signal, rows, window, first, power):
    """Write the power STFT of the frames whose first samples are `first` into `power`.

    `power` is (n_fft/2 + 1) x len(first); column k is the frame of
    `signal` at samples first[k]:first[k] + n_fft, reflected at both ends
    as np.pad(mode="reflect") would give it. The frames go _SUB_BLOCK at
    a time, each gathered from the stored samples and decoded on its own.
    A sub-block wholly inside the signal takes rows of `rows`, the
    sliding-window view of the stored samples (None for a signal shorter
    than n_fft); one that reaches past either end gathers reflected
    indices instead.
    """
    n, n_fft = len(signal), len(window)
    for lo in range(0, len(first), _SUB_BLOCK):
        block = first[lo:lo + _SUB_BLOCK]
        if rows is not None and block.min() >= 0 and block.max() < len(rows):
            stored = rows[block]
        else:
            idx = np.abs(block[:, None] + np.arange(n_fft))
            stored = signal._stored[np.where(idx >= n, 2 * (n - 1) - idx, idx)]
        framed = signal._decode(stored)
        framed *= window
        spectrum = np.fft.rfft(framed, axis=1)
        power[:, lo:lo + len(block)] = (spectrum.real**2 + spectrum.imag**2).T


def _frame_rows(stored, n_fft):
    """Sliding-window view of stored samples: row i holds samples i:i + n_fft, channels last."""
    if len(stored) < n_fft:
        return None
    rows = np.lib.stride_tricks.sliding_window_view(stored, n_fft, axis=0)
    return rows if stored.ndim == 1 else np.moveaxis(rows, 2, 1)


def _feature_of_power(kind, n_fft, sample_rate):
    """Row count of a feature, and the function giving it from a power block.

    `kind` is "stft_power" or one of `FEATURES`. Filterbanks and pitch
    classes are built here, once per call of `FeatureFrames.at`. Chroma
    sums the bin powers of each pitch class; mel applies the 80-band
    filterbank, LMS takes 10*log10 of it floored at 1e-10 and NNLMS
    log(1 + mel); MFCC is the DCT of a 128-band full-range log mel basis,
    which deliberately differs from the 80-band one. The filterbank GEMMs
    use all n_fft/2 + 1 bins, even those every band weights by zero: a GEMM
    over fewer bins sums in another order and is not byte-equal.
    """
    if kind == "stft_power":
        return n_fft // 2 + 1, lambda power: power
    if kind == "chroma":
        classes = _pitch_class_bins(n_fft, sample_rate)
        return 12, lambda power: _fold_pitch_classes(power, classes)
    if kind == "mfcc":
        fb, _ = mel_filterbank(MFCC_BANDS, n_fft, sample_rate, 0.0, sample_rate / 2)
        return N_MFCC, lambda power: mfcc_from_log_mel(_decibels(fb @ power), N_MFCC)
    fb, _ = mel_filterbank(N_MELS, n_fft, sample_rate, MEL_FMIN, MEL_FMAX)
    if kind == "lms":
        return N_MELS, lambda power: _decibels(fb @ power)
    if kind == "nnlms":
        return N_MELS, lambda power: np.log1p(fb @ power)
    return N_MELS, lambda power: fb @ power  # mel


class FeatureFrames:
    """One feature of a signal, computed only at the frames asked for.

    The frame grid has 1 + floor(len/hop) centered frames. `at(frames)`
    gives the columns `compute_feature(...)[:, frames]` without building
    the rest.
    """

    def __init__(self, signal, kind, n_fft=DEFAULT_N_FFT, hop=DEFAULT_HOP):
        if not (n_fft >= hop >= 1):
            raise ValueError(f"need n_fft >= hop >= 1, got n_fft={n_fft}, hop={hop}")
        if len(signal) < 1:
            raise ValueError("signal is empty")
        pad = n_fft // 2
        if len(signal) <= pad:
            raise ValueError(f"signal too short for centered frames (need > {pad} samples)")
        if kind != "stft_power" and kind not in FEATURES:
            raise ValueError(f"unknown feature kind {kind!r}")
        if kind in ("mel", "lms", "nnlms") and MEL_FMAX > signal.sample_rate / 2:
            raise ValueError(f"feature {kind!r} needs a sample rate of at least {2 * MEL_FMAX / 1000:g} kHz "
                             f"(its mel bands reach {MEL_FMAX:g} Hz), got {signal.sample_rate} Hz")
        self.signal = signal
        self.feature_kind = kind
        self.n_fft = n_fft
        self.hop = hop
        self.sample_rate = signal.sample_rate
        self.n_frames = 1 + len(signal) // hop

    def at(self, frames):
        """f x len(frames) feature values at the given frame indices.

        Each chunk of frames is reduced to its feature, in its worker's
        power block, before that worker takes the next (`workers.share`).
        Indices must have an integer dtype; an empty list, which NumPy
        makes float64, gives no columns.
        """
        frames = np.asarray(frames)
        if frames.size and frames.dtype.kind not in "iu":
            raise ValueError(f"frame indices must be integers, got dtype {frames.dtype}")
        frames = frames.astype(np.int64, copy=False)
        if frames.size and not (0 <= frames.min() and frames.max() < self.n_frames):
            raise IndexError(f"frame indices must lie in [0, {self.n_frames})")
        n_rows, feature_of = _feature_of_power(self.feature_kind, self.n_fft, self.sample_rate)
        out = np.empty((n_rows, len(frames)))
        half = self.n_fft // 2
        window = _hann_window(self.n_fft)
        rows = _frame_rows(self.signal._stored, self.n_fft)
        chunks = list(workers.spans(len(frames), _CHUNK))
        widest = max((stop - start for start, stop in chunks), default=0)

        def work(chunk, block):
            start, stop = chunk
            power = block[:(half + 1) * (stop - start)].reshape(half + 1, stop - start)
            _fill_power(self.signal, rows, window, frames[start:stop] * self.hop - half, power)
            out[:, start:stop] = feature_of(power)

        workers.share(chunks, work, lambda: np.empty((half + 1) * widest))
        return out


def _hz_to_mel(f):
    """Slaney mel scale: linear below 1kHz, logarithmic above."""
    f = np.asarray(f, dtype=np.float64)
    mel = f / (200.0 / 3.0)
    log_region = f >= 1000.0
    mel = np.where(log_region, 15.0 + np.log(np.maximum(f, 1e-12) / 1000.0) / (np.log(6.4) / 27.0), mel)
    return mel


def _mel_to_hz(m):
    m = np.asarray(m, dtype=np.float64)
    f = m * (200.0 / 3.0)
    log_region = m >= 15.0
    f = np.where(log_region, 1000.0 * np.exp((m - 15.0) * (np.log(6.4) / 27.0)), f)
    return f


def mel_filterbank(n_mels, n_fft, sample_rate, fmin, fmax):
    """Triangular mel filterbank; each filter is supported inside [fmin, fmax].

    All bands come from one array expression. Its freed n_mels x (n_fft/2 + 1)
    temporaries raise glibc's dynamic mmap threshold, and with it the heap
    trim threshold, before `FeatureFrames.at` starts its STFT loop, so the
    loop's per-sub-block temporaries stay in the heap. Built row by row, the
    bank left them to be trimmed and faulted in again: a lean `song4m_pca`
    call took 27k minor faults instead of 6.9k and 0.37 s of CPU instead of
    0.32 s (2-core x86-64 host, 1 BLAS thread).
    """
    if fmax > sample_rate / 2:
        raise ValueError(f"fmax={fmax} exceeds Nyquist ({sample_rate / 2})")
    mel_points = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    lo, center, hi = (hz_points[i:i + n_mels, None] for i in range(3))
    up = (bin_freqs - lo) / np.maximum(center - lo, 1e-12)
    down = (hi - bin_freqs) / np.maximum(hi - center, 1e-12)
    return np.maximum(0.0, np.minimum(up, down, out=up), out=up), hz_points[1:-1]


def _decibels(values):
    return 10.0 * np.log10(np.maximum(values, LOG_FLOOR))


def _pitch_class_bins(n_fft, sample_rate):
    """For each pitch class C..B, the STFT bins above DC nearest to it.

    A bin's class is the equal-tempered pitch class nearest its center
    frequency (A4 = 440Hz).
    """
    bin_freqs = np.arange(1, n_fft // 2 + 1) * sample_rate / n_fft
    pitch_class = np.mod(np.rint(69.0 + 12.0 * np.log2(bin_freqs / 440.0)).astype(int), 12)
    return [1 + np.flatnonzero(pitch_class == pc) for pc in range(12)]


def _fold_pitch_classes(power_values, classes):
    out = np.zeros((12, power_values.shape[1]))
    for pc, rows in enumerate(classes):
        if rows.size:
            out[pc] = power_values[rows].sum(axis=0)
    return out


def mfcc_from_log_mel(log_mel_values, n_coeffs=N_MFCC):
    """Orthonormal DCT-II over the band axis, keeping the first n_coeffs.

    Row k of the n-band DCT is sqrt(2/n) cos(pi k (2i + 1) / 2n), with row 0
    also divided by sqrt(2); k (2i + 1) is first reduced modulo 4n, the period.
    """
    n = len(log_mel_values)
    k, i = np.ogrid[:min(n_coeffs, n), :n]
    dct = np.sqrt(2.0 / n) * np.cos(np.pi / (2 * n) * (k * (2 * i + 1) % (4 * n)))
    dct[:1] /= np.sqrt(2.0)  # a slice: n_coeffs=0 gives no rows
    return dct @ log_mel_values


@workers.one_blas_thread()
def compute_feature(signal, kind, n_fft=DEFAULT_N_FFT, hop=DEFAULT_HOP):
    """One of the five named features (or the power STFT) at every frame, as an f x T array.

    It runs at one BLAS thread (`workers.one_blas_thread`).
    """
    feature = FeatureFrames(signal, kind, n_fft=n_fft, hop=hop)
    return feature.at(np.arange(feature.n_frames))
