"""Audio-to-feature front end: log-mel, pitch, and energy, frame-aligned.

An utterance becomes a (T, n_mels + 2) float32 matrix. Columns 0..n_mels-1
are log-mel magnitudes, column -2 is pitch as log-Hz with 0 marking unvoiced
frames, and column -1 is log frame energy. All three extractors share one
framing (no centering): T = floor((N - win) / hop) + 1.

Pitch is searched in 60-400 Hz by short-time autocorrelation; a frame
whose best lag in that range is not a local maximum is unvoiced. The
autocorrelation runs on the shortest fast FFT length N with
N >= win + (largest lag read), the length at which circular and linear
autocorrelation agree on every lag that is read.

Feature matrices persist in the EMOF binary format described at the bottom
of this file.
"""

from __future__ import annotations

import functools
import math
import struct
import warnings
from dataclasses import dataclass

import numpy as np

from .binio import FileFormatError, SectionReader, SectionWriter, atomic_write, open_text

LOG_FLOOR = 1e-10

EMOF_MAGIC = b"EMOF"
EMOF_VERSION = 1

PITCH_FMIN_HZ = 60.0
PITCH_FMAX_HZ = 400.0
PITCH_VOICING_THRESHOLD = 0.3

# frame rows per FFT block in _autocorrelation; bounds its scratch arrays
_ACF_BLOCK_ROWS = 32


@dataclass
class FeatureConfig:
    """Framing and filterbank parameters for feature extraction."""

    sample_rate_hz: int = 16000
    window_ms: float = 50.0
    overlap_ratio: float = 0.5
    n_mels: int = 80
    fmin_hz: float = 0.0
    fmax_hz: float | None = None  # None -> Nyquist

    def __post_init__(self):
        if self.window_ms <= 0:
            raise ValueError(f"window_ms must be positive, got {self.window_ms}")
        if not 0.0 <= self.overlap_ratio < 1.0:
            raise ValueError(f"overlap_ratio must be in [0, 1), got {self.overlap_ratio}")
        if self.n_mels < 1:
            raise ValueError(f"n_mels must be >= 1, got {self.n_mels}")
        if self.sample_rate_hz <= 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        if self.window_samples < 1:
            raise ValueError(f"window_ms {self.window_ms} is under one sample at "
                             f"{self.sample_rate_hz} Hz")

    @property
    def window_samples(self) -> int:
        return int(round(self.sample_rate_hz * self.window_ms / 1000.0))

    @property
    def hop_samples(self) -> int:
        hop = int(round(self.window_samples * (1.0 - self.overlap_ratio)))
        return max(hop, 1)

    @property
    def frame_rate_hz(self) -> float:
        return self.sample_rate_hz / self.hop_samples

    @property
    def n_channels(self) -> int:
        return self.n_mels + 2


@dataclass
class FeatureMatrix:
    """Frame sequence of concatenated mel + pitch + energy channels.

    ``frames`` is float32 (T, C) with C >= 3; the last two columns are pitch
    (log-Hz, 0 = unvoiced) and log-energy, everything before them is mel.
    """

    frames: np.ndarray
    frame_rate_hz: float
    source_id: str
    emotion_label: str
    speaker_id: str = ""

    def __post_init__(self):
        self.frames = np.ascontiguousarray(self.frames, dtype=np.float32)
        if self.frames.ndim != 2 or self.frames.shape[0] < 1 or self.frames.shape[1] < 3:
            raise ValueError(f"frames must be (T>=1, C>=3), got {self.frames.shape}")
        if not np.all(np.isfinite(self.frames)):
            raise ValueError(f"non-finite feature values in '{self.source_id}'")
        if np.any(self.frames[:, -2] < 0):
            raise ValueError(f"negative pitch values in '{self.source_id}'")

    @property
    def n_frames(self) -> int:
        return self.frames.shape[0]

    @property
    def n_channels(self) -> int:
        return self.frames.shape[1]


# ---------------------------------------------------------------------------
# framing and extractors


def _frame_signal(audio: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    audio = np.asarray(audio, dtype=np.float64)
    if audio.ndim != 1:
        raise ValueError(f"audio must be mono (1-D), got shape {audio.shape}")
    win, hop = cfg.window_samples, cfg.hop_samples
    if len(audio) < win:
        raise ValueError(f"audio shorter than one window ({len(audio)} < {win} samples)")
    n_frames = (len(audio) - win) // hop + 1
    frames = np.lib.stride_tricks.sliding_window_view(audio, win)[::hop][:n_frames]
    return np.ascontiguousarray(frames)


def _hann(win: int) -> np.ndarray:
    # periodic Hann, the standard STFT analysis window
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win) / win)


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


def mel_filterbank(cfg: FeatureConfig) -> np.ndarray:
    """(n_mels, n_fft_bins) triangular filters on the HTK mel scale.

    Built once per distinct configuration and shared: the array is
    read-only."""
    return _mel_filterbank(cfg.sample_rate_hz, cfg.window_samples, cfg.n_mels,
                           cfg.fmin_hz, cfg.fmax_hz)


@functools.lru_cache(maxsize=16)
def _mel_filterbank(sample_rate_hz: int, win: int, n_mels: int, fmin_hz: float,
                    fmax_hz: float | None) -> np.ndarray:
    n_bins = win // 2 + 1
    fmax = fmax_hz if fmax_hz is not None else sample_rate_hz / 2.0
    edges_hz = mel_to_hz(np.linspace(hz_to_mel(fmin_hz), hz_to_mel(fmax), n_mels + 2))
    bin_freqs = np.arange(n_bins) * sample_rate_hz / win
    fb = np.zeros((n_mels, n_bins))
    for m in range(n_mels):
        lo, center, hi = edges_hz[m], edges_hz[m + 1], edges_hz[m + 2]
        up = (bin_freqs - lo) / (center - lo)
        down = (hi - bin_freqs) / (hi - center)
        fb[m] = np.maximum(0.0, np.minimum(up, down))
    fb.setflags(write=False)
    return fb


def extract_mel(audio: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """(T, n_mels) log mel-magnitude spectrogram, floored at LOG_FLOOR."""
    frames = _frame_signal(audio, cfg)
    spectrum = np.abs(np.fft.rfft(frames * _hann(cfg.window_samples), axis=1))
    mel = spectrum @ mel_filterbank(cfg).T
    return np.log(np.maximum(mel, LOG_FLOOR))


def extract_energy(audio: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """(T, 1) log L2 norm of each windowed frame, floored at LOG_FLOOR."""
    frames = _frame_signal(audio, cfg)
    norms = np.linalg.norm(frames * _hann(cfg.window_samples), axis=1)
    return np.log(np.maximum(norms, LOG_FLOOR))[:, None]


def _fast_fft_len(n: int) -> int:
    """Smallest 2^a * 3^b * 5^c >= n, the lengths pocketfft is fastest at.

    Equal to ``scipy.fft.next_fast_len(n, real=True)``, without importing
    ``scipy.fft`` (about 7 MB of resident memory) into every process that
    imports this module."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _autocorrelation(frames: np.ndarray, n_lags: int) -> np.ndarray:
    """(T, n_lags) linear autocorrelation of each row at lags 0..n_lags-1.

    Runs on the shortest fast FFT length free of circular aliasing at those
    lags (N - (n_lags - 1) >= win), ``_ACF_BLOCK_ROWS`` rows at a time. Rows
    are transformed independently, so the blocking changes no bits.
    """
    n_rows, win = frames.shape
    nfft = _fast_fft_len(win + n_lags - 1)
    acf = np.empty((n_rows, n_lags))
    for lo in range(0, n_rows, _ACF_BLOCK_ROWS):
        spec = np.fft.rfft(frames[lo:lo + _ACF_BLOCK_ROWS], n=nfft, axis=1)
        power = spec.real ** 2 + spec.imag ** 2
        acf[lo:lo + _ACF_BLOCK_ROWS] = np.fft.irfft(power, n=nfft, axis=1)[:, :n_lags]
    return acf


def extract_pitch(audio: np.ndarray, cfg: FeatureConfig) -> np.ndarray:
    """(T, 1) per-frame F0 as log-Hz; unvoiced frames are exactly 0.

    Short-time autocorrelation with peak picking in the candidate lag range
    (``PITCH_FMIN_HZ``..``PITCH_FMAX_HZ``, 60-400 Hz) and parabolic
    refinement. A frame is voiced when the picked lag is a local maximum of
    the autocorrelation and its normalized peak reaches
    ``PITCH_VOICING_THRESHOLD``, so a tone outside the range reads as unvoiced,
    not as a pitch on the range's edge. The autocorrelation is computed by
    FFT at the shortest fast length N >= win + lag_max + 1, so that no lag
    read by the refinement (up to lag_max + 1) is aliased.
    """
    frames = _frame_signal(audio, cfg)
    frames = frames - frames.mean(axis=1, keepdims=True)
    win = cfg.window_samples
    sr = cfg.sample_rate_hz
    lag_min = max(2, int(sr / PITCH_FMAX_HZ))
    lag_max = min(win - 2, int(math.ceil(sr / PITCH_FMIN_HZ)))
    if lag_min >= lag_max:
        raise ValueError("analysis window too short for the pitch search range")

    acf = _autocorrelation(frames, lag_max + 2)
    out = np.zeros((frames.shape[0], 1))
    rows = np.arange(frames.shape[0])
    r0 = acf[:, 0]
    lag = np.argmax(acf[:, lag_min:lag_max + 1], axis=1) + lag_min
    y0, y1, y2 = acf[rows, lag - 1], acf[rows, lag], acf[rows, lag + 1]
    # an argmax on the range's edge that is still rising toward a period
    # outside the range is no peak: only a local maximum can be voiced
    voiced = (r0 > LOG_FLOOR) & (y1 >= y0) & (y1 >= y2)
    voiced[voiced] = y1[voiced] / r0[voiced] >= PITCH_VOICING_THRESHOLD
    # parabolic interpolation around the integer peak
    y0, y1, y2, lag = y0[voiced], y1[voiced], y2[voiced], lag[voiced]
    denom = y0 - 2.0 * y1 + y2
    flat = denom == 0.0
    shift = 0.5 * (y0 - y2) / np.where(flat, 1.0, denom)
    shift = np.clip(np.where(flat, 0.0, shift), -0.5, 0.5)
    out[voiced, 0] = np.log(sr / (lag + shift))
    return out


def featurize_audio(audio: np.ndarray, cfg: FeatureConfig, source_id: str,
                    emotion_label: str, speaker_id: str = "",
                    pitch_override: np.ndarray | None = None) -> FeatureMatrix:
    """Run all three extractors and assemble a :class:`FeatureMatrix`.

    ``pitch_override`` replaces the built-in pitch column with precomputed
    per-frame F0 in Hz (0 = unvoiced), e.g. from an external vocoder tool.
    """
    mel = extract_mel(audio, cfg)
    energy = extract_energy(audio, cfg)
    if pitch_override is not None:
        pitch = np.asarray(pitch_override, dtype=np.float64).reshape(-1)
        if pitch.shape[0] != mel.shape[0]:
            raise ValueError(
                f"pitch override has {pitch.shape[0]} frames, features have {mel.shape[0]}")
        if not np.all(np.isfinite(pitch)):
            raise ValueError("pitch override contains non-finite F0 values")
        if np.any(pitch < 0):
            raise ValueError("pitch override contains negative F0 values")
        pitch = np.where(pitch > 0, np.log(np.maximum(pitch, 1e-6)), 0.0)[:, None]
    else:
        pitch = extract_pitch(audio, cfg)
    frames = np.concatenate([mel, pitch, energy], axis=1)
    return FeatureMatrix(frames=frames, frame_rate_hz=cfg.frame_rate_hz,
                         source_id=source_id, emotion_label=emotion_label,
                         speaker_id=speaker_id)


# ---------------------------------------------------------------------------
# audio and pitch-CSV input


def load_wav(path) -> tuple[np.ndarray, int]:
    """Mono PCM WAV as float64 samples in [-1, 1) plus the sample rate.

    Accepts 16-bit integer or float32 encodings. A file that ends before its
    header says it does (a data chunk cut short) raises
    :class:`FileFormatError`. scipy's WAV reader, and the hundred-odd scipy
    modules it loads, are imported here, so commands that read no audio do
    without them.
    """
    from scipy.io import wavfile

    try:
        with warnings.catch_warnings():
            # scipy returns the samples that are there and only warns
            warnings.filterwarnings("error", "Reached EOF prematurely", wavfile.WavFileWarning)
            sr, data = wavfile.read(path)
    except struct.error as e:  # scipy unpacks a header cut short without a check
        raise FileFormatError(f"{path}: truncated WAV header: {e}") from e
    except wavfile.WavFileWarning as e:
        raise FileFormatError(f"{path}: truncated WAV data: {e}") from e
    if data.ndim != 1:
        raise FileFormatError(f"{path}: expected mono audio, got {data.ndim} channels")
    if data.dtype == np.int16:
        return data.astype(np.float64) / 32768.0, sr
    if data.dtype in (np.float32, np.float64):
        return data.astype(np.float64), sr
    raise FileFormatError(f"{path}: unsupported sample format {data.dtype}; use 16-bit PCM or float32")


def load_pitch_csv(path) -> np.ndarray:
    """Precomputed pitch column: one F0 value in Hz per line, 0 = unvoiced."""
    values = []
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                value = float(line)
            except ValueError as exc:
                raise FileFormatError(f"{path}:{lineno}: not a number: {line!r}") from exc
            if not math.isfinite(value):
                raise FileFormatError(f"{path}:{lineno}: not a finite number: {line!r}")
            values.append(value)
    return np.asarray(values, dtype=np.float64)


# ---------------------------------------------------------------------------
# EMOF feature files
#
# magic "EMOF" | version u32 | T u32 | C u32 | frame_rate f64
# | emotion_label str | speaker_id str | source_id str
# | T*C float32 row-major | CRC32 of all preceding bytes


def write_emof(path, frames: np.ndarray, frame_rate_hz: float,
               emotion_label: str, speaker_id: str, source_id: str):
    """Low-level writer: any (T, C) float32 matrix, not just feature layouts."""
    frames = np.ascontiguousarray(frames, dtype=np.float32)
    with atomic_write(path) as fh:
        w = SectionWriter(fh)
        w.write(EMOF_MAGIC)
        w.write_u32(EMOF_VERSION)
        w.write_u32(frames.shape[0])
        w.write_u32(frames.shape[1])
        w.write_f64(frame_rate_hz)
        w.write_str(emotion_label)
        w.write_str(speaker_id)
        w.write_str(source_id)
        w.write(memoryview(frames.astype("<f4", copy=False).reshape(-1)).cast("B"))
        w.finish()


def read_emof(path):
    """Inverse of :func:`write_emof`; returns (frames, frame_rate, label, speaker, source).
    A malformed file, or an empty or non-finite matrix, raises FileFormatError."""
    with open(path, "rb") as fh:
        r = SectionReader(fh)
        r.expect_magic(EMOF_MAGIC)
        if (version := r.read_u32()) != EMOF_VERSION:
            raise r.error(f"unsupported EMOF version {version}")
        t_len, n_chan, frame_rate = r.read_u32(), r.read_u32(), r.read_f64()
        emotion, speaker, source = r.read_str(), r.read_str(), r.read_str()
        raw = r.read(t_len * n_chan * 4)
        r.finish()
        frames = np.frombuffer(raw, dtype="<f4").reshape(t_len, n_chan).copy()
        if frames.size == 0:
            raise r.error(f"empty ({t_len}, {n_chan}) feature matrix")
        if not np.all(np.isfinite(frames)):
            raise r.error("non-finite feature values")
    return frames, frame_rate, emotion, speaker, source


def write_features(fm: FeatureMatrix, path):
    write_emof(path, fm.frames, fm.frame_rate_hz, fm.emotion_label, fm.speaker_id, fm.source_id)


def read_features(path) -> FeatureMatrix:
    """An ``.emof`` file's matrix; an invalid one raises :class:`FileFormatError`."""
    frames, frame_rate, emotion, speaker, source = read_emof(path)
    try:
        return FeatureMatrix(frames=frames, frame_rate_hz=frame_rate,
                             source_id=source, emotion_label=emotion, speaker_id=speaker)
    except ValueError as e:
        raise FileFormatError(f"{path}: {e}") from e
