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

`FeatureFrames.at` takes its frames in chunks of 256 or more, each from
samples to feature before its worker takes the next. Two workers, the
calling thread and one helper thread, draw chunks from one shared list
and write disjoint column slices of the output; a process that may use
only one CPU, or a call of one chunk, runs on the calling thread alone.
The threads pay because each step is a NumPy call on thousands of
values, which releases the GIL. Within a chunk, framing, window, rFFT
and power go 16 frames at a time into that worker's power block, and
the filterbank GEMM runs once over the whole block. So beyond the
output, a call holds one power block per worker, of (n_fft/2 + 1) x
256..511 values (2-4 MB at n_fft=2048), and one sub-block's temporaries
per worker (about 1 MB). More workers or larger sub-blocks would raise
the peak RSS of the rest of the process: what the helper thread
allocates stays in its own malloc arena after the call. Every output
byte is the same on one worker and on two.
"""

import os
import struct
from dataclasses import dataclass

import numpy as np

DEFAULT_N_FFT = 2048
DEFAULT_HOP = 32
LOG_FLOOR = 1e-10
N_MELS, MEL_FMIN, MEL_FMAX = 80, 80.0, 16000.0
MFCC_BANDS, N_MFCC = 128, 32

FEATURE_KINDS = ("stft_power", "chroma", "mel", "lms", "nnlms", "mfcc")


@dataclass
class AudioSignal:
    """Mono audio samples in [-1, 1] with their sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.sample_rate <= 0:
            raise ValueError(f"sample_rate must be positive, got {self.sample_rate}")
        if self.samples.ndim != 1:
            raise ValueError("AudioSignal expects a 1-D sample array")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("audio contains non-finite samples")


def load_wav(path):
    """Decode a PCM or IEEE-float WAV file into a mono AudioSignal.

    Integer samples are scaled to [-1, 1]; stereo channels are averaged.
    Non-PCM codecs, truncated files and partial frames are rejected.
    """
    try:
        with open(path, "rb") as fh:
            sr, raw = _read_wav(fh)
    except (OSError, ValueError) as exc:
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
    return AudioSignal(samples=samples, sample_rate=int(sr))


_PCM, _IEEE_FLOAT, _EXTENSIBLE = 0x0001, 0x0003, 0xFFFE


def _read_exactly(fh, n):
    """The next n bytes of fh. A size past the file's end raises before any buffer is made."""
    short = n - (os.fstat(fh.fileno()).st_size - fh.tell())
    if short > 0:
        raise ValueError(f"file ends {short} bytes early")
    return fh.read(n)


def _read_wav(fh):
    """(sample rate, samples) of a RIFF, RIFX or RF64 WAVE file.

    Chunks are read up to the first `data` chunk; chunks other than
    `fmt ` and `ds64` are skipped, with their pad byte. Samples keep
    their stored type in native byte order: uint8 (1-8 bits), int16,
    int32 (3-byte samples widened left-justified, so 24-bit x becomes
    x * 256), float32 or float64. Several channels give frames x
    channels.
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
    if tag == _PCM and 1 <= bits <= 8 and width == 1:
        dtype = "u1"
    elif tag == _PCM and not 1 <= bits <= 8 and (width == 3 or width in (2, 4) and bits <= 64):
        dtype = f"{order}i{width}"
    elif tag == _IEEE_FLOAT and bits in (32, 64) and width in (4, 8):
        dtype = f"{order}f{width}"
    else:
        raise ValueError(f"unsupported sample format (format tag {tag}, {bits} bits in {width} bytes)")
    if size % (width * channels):
        raise ValueError(f"data chunk of {size} bytes holds a partial {width * channels}-byte frame")
    payload = _read_exactly(fh, size)
    if width == 3:
        triples = np.frombuffer(payload, np.uint8).reshape(-1, 3)
        wide = np.zeros((len(triples), 4), np.uint8)
        (wide[:, 1:] if order == "<" else wide[:, :3])[...] = triples
        payload, dtype = wide, f"{order}i4"
    raw = np.frombuffer(payload, dtype)
    raw = raw.astype(raw.dtype.newbyteorder("="), copy=False)
    return rate, raw.reshape(-1, channels) if channels > 1 else raw


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


# Frames per chunk. Each chunk goes from samples to its feature before its
# worker takes the next, so only the f x frames output grows with the number
# of frames. A chunk's power block is (n_fft/2 + 1) x 256..511 values, 2-4 MB
# at n_fft=2048; 256 frames ran 2.3x faster than 4096 on a 2-core x86-64 host.
_CHUNK = 256
# Frames per framing, window, rFFT and power step inside a chunk. np.fft.rfft
# gives each row the same bytes whatever the number of rows per call, so the
# sub-blocks change no output byte. At n_fft=2048 their largest temporaries
# are 256 KB. The helper thread's malloc arena keeps what they took: with
# 64-frame sub-blocks, the 16 s acceptance song's AE call peaked at 94.6 MB
# RSS, against 90.0 MB with 16 and 87.4 MB with no helper thread.
_SUB_BLOCK = 16


def _chunks(n):
    """(start, stop) of each chunk of n frames.

    Chunks start at multiples of _CHUNK and span at least _CHUNK frames:
    the last partial chunk joins the one before it, and fewer than _CHUNK
    frames make one chunk. A GEMM over a few columns can take another
    OpenBLAS kernel, which rounds differently, so a short tail chunk would
    change the last columns of `fb @ power`. With the tail merged, the
    chunks' GEMMs give the bytes of one GEMM over all frames at one BLAS
    thread. With more threads OpenBLAS splits a GEMM's columns at points
    set by its width, so the last bits then vary, as they vary between
    thread counts.
    """
    starts = list(range(0, n, _CHUNK))
    if len(starts) > 1 and n - starts[-1] < _CHUNK:
        del starts[-1]
    return zip(starts, starts[1:] + [n])


def _fill_power(x, rows, window, first, power):
    """Write the power STFT of the frames whose first samples are `first` into `power`.

    `power` is (n_fft/2 + 1) x len(first); column k is the frame at
    x[first[k]:first[k] + n_fft], reflected at both ends as
    np.pad(mode="reflect") would give it. The frames go _SUB_BLOCK at a
    time. A sub-block wholly inside the signal takes rows of `rows`, the
    sliding-window view of x (None for a signal shorter than n_fft); one
    that reaches past either end gathers reflected indices instead.
    """
    n, n_fft = len(x), len(window)
    for lo in range(0, len(first), _SUB_BLOCK):
        block = first[lo:lo + _SUB_BLOCK]
        if rows is not None and block.min() >= 0 and block.max() < len(rows):
            framed = rows[block]
        else:
            idx = np.abs(block[:, None] + np.arange(n_fft))
            framed = x[np.where(idx >= n, 2 * (n - 1) - idx, idx)]
        framed *= window
        spectrum = np.fft.rfft(framed, axis=1)
        power[:, lo:lo + len(block)] = (spectrum.real**2 + spectrum.imag**2).T


def _worker_count():
    """Threads `FeatureFrames.at` runs on: two if the process may use two CPUs, else one.

    A third thread would keep a third malloc arena after the call, which
    adds to the process's peak RSS (see the module docstring).
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity outside Linux
        cpus = os.cpu_count() or 1
    return 2 if cpus >= 2 else 1


def _feature_of_power(kind, n_fft, sample_rate):
    """Row count of a feature, and the function giving it from a power block.

    Filterbanks and pitch classes are built here, once. Chroma sums the
    bin powers of each pitch class; mel applies the 80-band filterbank,
    LMS takes 10*log10 of it floored at 1e-10 and NNLMS log(1 + mel);
    MFCC is the DCT of a 128-band full-range log mel basis, which
    deliberately differs from the 80-band one. The filterbank GEMMs use
    all n_fft/2 + 1 bins, even those every band weights by zero: a GEMM
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
    return N_MELS, lambda power: fb @ power


class FeatureFrames:
    """One feature of a signal, computed only at the frames asked for.

    The frame grid has 1 + floor(len/hop) centered frames. `at(frames)`
    gives the columns `compute_feature(...)[:, frames]` without building
    the rest.
    """

    def __init__(self, signal, kind, n_fft=DEFAULT_N_FFT, hop=DEFAULT_HOP):
        if not (n_fft >= hop >= 1):
            raise ValueError(f"need n_fft >= hop >= 1, got n_fft={n_fft}, hop={hop}")
        if len(signal.samples) < 1:
            raise ValueError("signal is empty")
        pad = n_fft // 2
        if len(signal.samples) <= pad:
            raise ValueError(f"signal too short for centered frames (need > {pad} samples)")
        if kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature kind {kind!r}")
        self.signal = signal
        self.feature_kind = kind
        self.n_fft = n_fft
        self.hop = hop
        self.sample_rate = signal.sample_rate
        self.n_frames = 1 + len(signal.samples) // hop

    def at(self, frames):
        """f x len(frames) feature values at the given frame indices.

        Each chunk of frames is reduced to its feature before its worker
        takes the next chunk, so memory beyond the output stays bounded.
        """
        frames = np.asarray(frames, dtype=np.int64)
        if frames.size and not (0 <= frames.min() and frames.max() < self.n_frames):
            raise IndexError(f"frame indices must lie in [0, {self.n_frames})")
        n_rows, feature_of = _feature_of_power(self.feature_kind, self.n_fft, self.sample_rate)
        out = np.empty((n_rows, len(frames)))
        x, half = self.signal.samples, self.n_fft // 2
        window = _hann_window(self.n_fft)
        rows = np.lib.stride_tricks.sliding_window_view(x, self.n_fft) if len(x) >= self.n_fft else None
        chunks = list(_chunks(len(frames)))
        workers = 2 if len(chunks) >= 2 and _worker_count() >= 2 else 1
        # The calling thread makes every worker's power block: a block made on
        # the helper thread would stay in that thread's malloc arena.
        widest = max((stop - start for start, stop in chunks), default=0)
        blocks = [np.empty((half + 1) * widest) for _ in range(workers)]
        shared = iter(chunks)  # under the GIL, next() hands each chunk to one worker

        def work(block):
            for start, stop in shared:
                power = block[:(half + 1) * (stop - start)].reshape(half + 1, stop - start)
                _fill_power(x, rows, window, frames[start:stop] * self.hop - half, power)
                out[:, start:stop] = feature_of(power)

        if workers == 1:
            work(blocks[0])
            return out
        from concurrent.futures import ThreadPoolExecutor  # imported here: `import barseg` stays lean

        with ThreadPoolExecutor(1) as pool:
            helper = pool.submit(work, blocks[1])
            work(blocks[0])
            helper.result()
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
    """Triangular mel filterbank; each filter is supported inside [fmin, fmax]."""
    if fmax > sample_rate / 2:
        raise ValueError(f"fmax={fmax} exceeds Nyquist ({sample_rate / 2})")
    mel_points = np.linspace(_hz_to_mel(fmin), _hz_to_mel(fmax), n_mels + 2)
    hz_points = _mel_to_hz(mel_points)
    bin_freqs = np.arange(n_fft // 2 + 1) * sample_rate / n_fft
    fb = np.zeros((n_mels, len(bin_freqs)))
    for i in range(n_mels):
        lo, center, hi = hz_points[i], hz_points[i + 1], hz_points[i + 2]
        up = (bin_freqs - lo) / max(center - lo, 1e-12)
        down = (hi - bin_freqs) / max(hi - center, 1e-12)
        fb[i] = np.maximum(0.0, np.minimum(up, down))
    return fb, hz_points[1:-1]


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
    """Orthonormal DCT-II over the band axis, keeping the first n_coeffs."""
    import scipy.fft  # imported here: no other feature needs SciPy

    coeffs = scipy.fft.dct(np.asarray(log_mel_values, dtype=np.float64), type=2, norm="ortho", axis=0)
    return coeffs[:n_coeffs]


def compute_feature(signal, kind, n_fft=DEFAULT_N_FFT, hop=DEFAULT_HOP):
    """One of the five named features (or the power STFT) at every frame, as an f x T array."""
    feature = FeatureFrames(signal, kind, n_fft=n_fft, hop=hop)
    return feature.at(np.arange(feature.n_frames))
