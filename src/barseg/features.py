"""Audio decoding and time-frequency feature extraction.

All features share the same short-time analysis grid: Hann window of
`n_fft` samples, hop of 32 samples at 44.1kHz, centered frames with
reflect padding. Five representations are derived from the power STFT:
chromagram (12 pitch classes), Mel spectrogram (80 bands, 80Hz-16kHz),
its log (LMS) and nonnegative log (NNLMS) variants, and MFCC (32
coefficients from an internal 128-band full-range log-Mel basis).
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.fft
import scipy.io.wavfile

DEFAULT_N_FFT = 2048
DEFAULT_HOP = 32
LOG_FLOOR = 1e-10

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


@dataclass
class Spectrogram:
    """f x T feature matrix plus the frame metadata needed to map to time."""

    values: np.ndarray
    hop: int
    sample_rate: int
    feature_kind: str

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.feature_kind not in FEATURE_KINDS:
            raise ValueError(f"unknown feature_kind {self.feature_kind!r}")
        if self.values.ndim != 2:
            raise ValueError("Spectrogram values must be a 2-D matrix")

    @property
    def n_bins(self):
        return self.values.shape[0]

    @property
    def n_frames(self):
        return self.values.shape[1]


def load_wav(path):
    """Decode a PCM WAV file into a mono AudioSignal.

    Integer samples are scaled to [-1, 1]; stereo channels are averaged.
    Non-PCM codecs and truncated files are rejected.
    """
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
    return AudioSignal(samples=samples, sample_rate=int(sr))


def _hann_window(n_fft):
    """Periodic Hann window, equal to scipy.signal.get_window("hann", n_fft)."""
    return 0.5 + 0.5 * np.cos(np.linspace(-np.pi, np.pi, n_fft + 1)[:-1])


def stft_power(signal, n_fft=DEFAULT_N_FFT, hop=DEFAULT_HOP):
    """Power STFT: Hann window, centered frames with reflect padding.

    Returns n_fft/2 + 1 bins and 1 + floor(len/hop) frames.
    """
    if not (n_fft >= hop >= 1):
        raise ValueError(f"need n_fft >= hop >= 1, got n_fft={n_fft}, hop={hop}")
    x = signal.samples
    if len(x) < 1:
        raise ValueError("signal is empty")
    pad = n_fft // 2
    if len(x) <= pad:
        raise ValueError(f"signal too short for centered frames (need > {pad} samples)")
    padded = np.pad(x, pad, mode="reflect")
    n_frames = 1 + len(x) // hop
    window = _hann_window(n_fft)

    out = np.empty((n_fft // 2 + 1, n_frames), dtype=np.float64)
    # FFT in chunks to bound peak memory on long signals.
    chunk = 4096
    for start in range(0, n_frames, chunk):
        stop = min(start + chunk, n_frames)
        idx = np.arange(start, stop)[:, None] * hop + np.arange(n_fft)[None, :]
        frames = padded[idx] * window
        spectrum = np.fft.rfft(frames, axis=1)
        out[:, start:stop] = (spectrum.real**2 + spectrum.imag**2).T
    return Spectrogram(out, hop=hop, sample_rate=signal.sample_rate, feature_kind="stft_power")


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


def mel_spectrogram(power, n_mels=80, fmin=80.0, fmax=16000.0):
    """Apply a triangular mel filterbank to a power STFT."""
    if power.feature_kind != "stft_power":
        raise ValueError(f"mel_spectrogram needs a power STFT, got {power.feature_kind!r}")
    n_fft = 2 * (power.n_bins - 1)
    fb, _ = mel_filterbank(n_mels, n_fft, power.sample_rate, fmin, fmax)
    return Spectrogram(fb @ power.values, hop=power.hop, sample_rate=power.sample_rate, feature_kind="mel")


def lms(mel):
    """Log mel spectrogram in dB: 10*log10(mel), floored at 1e-10."""
    if mel.feature_kind != "mel":
        raise ValueError(f"lms needs a mel spectrogram, got {mel.feature_kind!r}")
    values = 10.0 * np.log10(np.maximum(mel.values, LOG_FLOOR))
    return Spectrogram(values, hop=mel.hop, sample_rate=mel.sample_rate, feature_kind="lms")


def nnlms(mel):
    """Nonnegative log mel spectrogram: log(mel + 1), elementwise."""
    if mel.feature_kind != "mel":
        raise ValueError(f"nnlms needs a mel spectrogram, got {mel.feature_kind!r}")
    return Spectrogram(np.log1p(mel.values), hop=mel.hop, sample_rate=mel.sample_rate, feature_kind="nnlms")


def chroma(power):
    """12-row chromagram (C, C#, ..., B) by pitch-class folding of STFT bins.

    Each bin above DC is assigned to the equal-tempered pitch class nearest
    its center frequency (A4 = 440Hz); bin powers are summed per class.
    """
    if power.feature_kind != "stft_power":
        raise ValueError(f"chroma needs a power STFT, got {power.feature_kind!r}")
    n_fft = 2 * (power.n_bins - 1)
    bin_freqs = np.arange(power.n_bins) * power.sample_rate / n_fft
    out = np.zeros((12, power.n_frames))
    positive = bin_freqs > 0
    midi = 69.0 + 12.0 * np.log2(bin_freqs[positive] / 440.0)
    pitch_class = np.mod(np.rint(midi).astype(int), 12)
    vals = power.values[positive]
    for pc in range(12):
        rows = pitch_class == pc
        if np.any(rows):
            out[pc] = vals[rows].sum(axis=0)
    return Spectrogram(out, hop=power.hop, sample_rate=power.sample_rate, feature_kind="chroma")


def mfcc_from_log_mel(log_mel_values, n_coeffs=32):
    """Orthonormal DCT-II over the band axis, keeping the first n_coeffs."""
    coeffs = scipy.fft.dct(np.asarray(log_mel_values, dtype=np.float64), type=2, norm="ortho", axis=0)
    return coeffs[:n_coeffs]


def mfcc(power, n_coeffs=32):
    """MFCCs from an internal 128-band full-range log mel basis.

    The mel basis here (128 bands, 0Hz to Nyquist) deliberately differs
    from the 80-band basis used for the LMS feature.
    """
    if power.feature_kind != "stft_power":
        raise ValueError(f"mfcc needs a power STFT, got {power.feature_kind!r}")
    n_fft = 2 * (power.n_bins - 1)
    fb, _ = mel_filterbank(128, n_fft, power.sample_rate, 0.0, power.sample_rate / 2)
    log_mel = 10.0 * np.log10(np.maximum(fb @ power.values, LOG_FLOOR))
    values = mfcc_from_log_mel(log_mel, n_coeffs)
    return Spectrogram(values, hop=power.hop, sample_rate=power.sample_rate, feature_kind="mfcc")


def compute_feature(signal, kind, n_fft=DEFAULT_N_FFT, hop=DEFAULT_HOP):
    """Compute one of the five named features from raw audio."""
    power = stft_power(signal, n_fft=n_fft, hop=hop)
    if kind == "stft_power":
        return power
    if kind == "chroma":
        return chroma(power)
    if kind == "mfcc":
        return mfcc(power)
    mel = mel_spectrogram(power)
    if kind == "mel":
        return mel
    if kind == "lms":
        return lms(mel)
    if kind == "nnlms":
        return nnlms(mel)
    raise ValueError(f"unknown feature kind {kind!r}")
