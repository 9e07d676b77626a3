"""Mel filterbank front end: 16-bit PCM audio to sequences of log energy vectors.

The default configuration analyses 31.5 ms Hamming-windowed frames (504
samples at 16 kHz) every 10 ms (160 samples), takes the power spectrum of
each frame at the native frame length, and integrates it through a bank of
24 triangular filters equally spaced on the mel scale. Filter energies are
reported on a natural log scale with a hard floor.
"""

from __future__ import annotations

import hashlib
import json
import warnings
import wave
from dataclasses import asdict, dataclass

import numpy as np

from .errors import AudioFormatError, ConfigurationError, EmptyInputError, SosidError


def hz_to_mel(freq_hz):
    """Map frequency in Hz to mel via 2595 * log10(1 + f / 700)."""
    return 2595.0 * np.log10(1.0 + np.asarray(freq_hz, dtype=float) / 700.0)


def mel_to_hz(mel):
    """Inverse of :func:`hz_to_mel`."""
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=float) / 2595.0) - 1.0)


@dataclass(frozen=True)
class FrontendConfig:
    """Analysis parameters for feature extraction.

    ``mel_high=None`` means the Nyquist frequency of whatever buffer is
    analysed; fixed edges are validated against the sample rate when the
    filterbank is built.
    """

    frame_len: int = 504
    hop: int = 160
    dft_len: int = 504
    n_filters: int = 24
    mel_low: float = 0.0
    mel_high: float | None = None
    log_floor: float = 1e-10

    def __post_init__(self):
        if self.frame_len < 1:
            raise ConfigurationError(f"frame_len must be >= 1, got {self.frame_len}")
        if self.hop < 1:
            raise ConfigurationError(f"hop must be >= 1, got {self.hop}")
        if self.frame_len > self.dft_len:
            raise ConfigurationError(
                f"frame_len ({self.frame_len}) must not exceed dft_len ({self.dft_len})"
            )
        if self.n_filters < 1:
            raise ConfigurationError(f"n_filters must be >= 1, got {self.n_filters}")
        if self.mel_low < 0:
            raise ConfigurationError(f"mel_low must be >= 0, got {self.mel_low}")
        if self.mel_high is not None and self.mel_high <= self.mel_low:
            raise ConfigurationError(
                f"mel_high ({self.mel_high}) must exceed mel_low ({self.mel_low})"
            )
        if self.log_floor <= 0:
            raise ConfigurationError(f"log_floor must be > 0, got {self.log_floor}")

    @property
    def n_bins(self) -> int:
        """Number of non-redundant spectrum bins for dft_len."""
        return self.dft_len // 2 + 1

    def digest(self) -> str:
        """Stable hash of the configuration, stored alongside saved models."""
        payload = json.dumps(asdict(self), sort_keys=True)
        return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class SampleBuffer:
    """Mono PCM samples with their declared sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def duration(self) -> float:
        return len(self.samples) / self.sample_rate


@dataclass(frozen=True)
class SpectralFrames:
    """Ordered sequence of log filterbank vectors, one per analysis frame."""

    vectors: np.ndarray
    frame_period: float = 0.010

    def __post_init__(self):
        vectors = np.asarray(self.vectors, dtype=float)
        if vectors.ndim != 2:
            raise ValueError(f"vectors must be 2-d, got shape {vectors.shape}")
        object.__setattr__(self, "vectors", vectors)

    def __len__(self) -> int:
        return len(self.vectors)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def load_wav(path) -> SampleBuffer:
    """Decode a mono 16-bit PCM WAV file bit-exactly.

    Any sample rate is accepted here; rate requirements are a protocol
    concern, not a decoding one.
    """
    try:
        with wave.open(str(path), "rb") as wav:
            comptype = wav.getcomptype()
            if comptype != "NONE":
                raise AudioFormatError(
                    f"{path}: compression type {comptype!r}, expected uncompressed PCM"
                )
            channels = wav.getnchannels()
            if channels != 1:
                raise AudioFormatError(
                    f"{path}: channels: expected mono, got {channels}"
                )
            width = wav.getsampwidth()
            if width != 2:
                raise AudioFormatError(
                    f"{path}: bit depth: expected 16-bit, got {8 * width}-bit"
                )
            rate = wav.getframerate()
            raw = wav.readframes(wav.getnframes())
    except AudioFormatError:
        raise
    except (wave.Error, EOFError, OSError) as exc:
        raise AudioFormatError(f"{path}: not a readable PCM WAV file ({exc})") from exc
    samples = np.frombuffer(raw, dtype="<i2")
    return SampleBuffer(samples=samples, sample_rate=rate)


def save_wav(path, samples, sample_rate: int) -> None:
    """Write mono 16-bit PCM WAV; values are clipped to the int16 range."""
    data = np.clip(np.asarray(samples), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(int(sample_rate))
        wav.writeframes(data.tobytes())


def frame_signal(buf, cfg: FrontendConfig = FrontendConfig()) -> np.ndarray:
    """Slice a signal into overlapping frames of cfg.frame_len every cfg.hop.

    Returns a (n_frames, frame_len) float array. The trailing partial frame
    is discarded; a signal shorter than one frame is an error.
    """
    samples = buf.samples if isinstance(buf, SampleBuffer) else np.asarray(buf)
    n = len(samples)
    if n < cfg.frame_len:
        raise EmptyInputError(
            f"signal of {n} samples is shorter than one frame ({cfg.frame_len})"
        )
    n_frames = (n - cfg.frame_len) // cfg.hop + 1
    windows = np.lib.stride_tricks.sliding_window_view(samples, cfg.frame_len)
    return windows[:: cfg.hop][:n_frames].astype(float)


def hamming_window(length: int) -> np.ndarray:
    """Symmetric Hamming window, 0.54 - 0.46 cos(2 pi n / (length - 1))."""
    return np.hamming(length)


def power_spectrum(frame: np.ndarray, dft_len: int | None = None) -> np.ndarray:
    """Squared-magnitude half spectrum of an (already windowed) frame.

    Output has dft_len // 2 + 1 bins. The transform is an exact DFT of the
    configured length (mixed radix; 504 factors as 2^3 * 3^2 * 7).
    """
    frame = np.asarray(frame, dtype=float)
    if dft_len is None:
        dft_len = frame.shape[-1]
    if dft_len < frame.shape[-1]:
        raise ValueError(
            f"dft_len ({dft_len}) must be >= frame length ({frame.shape[-1]})"
        )
    power = np.abs(np.fft.rfft(frame, n=dft_len))
    power **= 2  # in place: the same squares, one bin-sized copy fewer
    return power


def mel_edge_frequencies(cfg: FrontendConfig, sample_rate: int) -> np.ndarray:
    """The n_filters + 2 Hz points bounding the triangular filters.

    Points are equally spaced on the mel scale between the configured band
    edges; consecutive triples (lower edge, centre, upper edge) define one
    filter each.
    """
    high = cfg.mel_high if cfg.mel_high is not None else sample_rate / 2.0
    if high > sample_rate / 2.0:
        raise ConfigurationError(
            f"mel_high ({high} Hz) exceeds Nyquist ({sample_rate / 2.0} Hz)"
        )
    if cfg.mel_low >= high:
        raise ConfigurationError(
            f"mel_low ({cfg.mel_low} Hz) must be below mel_high ({high} Hz)"
        )
    mels = np.linspace(hz_to_mel(cfg.mel_low), hz_to_mel(high), cfg.n_filters + 2)
    return mel_to_hz(mels)


def build_mel_filterbank(cfg: FrontendConfig, sample_rate: int) -> np.ndarray:
    """Triangular mel filterbank as an (n_filters, n_bins) weight matrix.

    Each row is a unit-peak triangle rising from the previous centre and
    falling to the next, evaluated at the DFT bin frequencies.
    """
    edges = mel_edge_frequencies(cfg, sample_rate)
    bin_freqs = np.arange(cfg.n_bins) * (sample_rate / cfg.dft_len)
    weights = np.zeros((cfg.n_filters, cfg.n_bins))
    for j in range(cfg.n_filters):
        lo, centre, hi = edges[j], edges[j + 1], edges[j + 2]
        rising = (bin_freqs - lo) / (centre - lo)
        falling = (hi - bin_freqs) / (hi - centre)
        weights[j] = np.maximum(0.0, np.minimum(rising, falling))
    dead = np.flatnonzero(weights.sum(axis=1) == 0.0)
    if dead.size:
        raise ConfigurationError(
            f"filter {dead[0]} covers no spectrum bin; "
            f"n_filters={cfg.n_filters} is too large for {cfg.n_bins} bins"
        )
    return weights


def extract_features(buf: SampleBuffer, cfg: FrontendConfig = FrontendConfig()) -> SpectralFrames:
    """Run the full front end: frame, window, power spectrum, filterbank, log.

    Component j of each output vector is log(max(e_j, log_floor)) with e_j
    the inner product of filter j and the frame's power spectrum (natural
    log).
    """
    frames = frame_signal(buf, cfg)
    frames *= hamming_window(cfg.frame_len)  # a fresh array: no second frame-sized copy
    power = power_spectrum(frames, cfg.dft_len)
    filterbank = build_mel_filterbank(cfg, buf.sample_rate)
    energies = power @ filterbank.T
    vectors = np.log(np.maximum(energies, cfg.log_floor))
    return SpectralFrames(vectors=vectors, frame_period=cfg.hop / buf.sample_rate)


def save_features_csv(frames, path) -> None:
    """Dump features as headerless CSV, one frame per row, full precision."""
    vectors = frames.vectors if isinstance(frames, SpectralFrames) else np.asarray(frames)
    np.savetxt(path, vectors, fmt="%.17g", delimiter=",")


def load_features_csv(path) -> SpectralFrames:
    """Read features written by :func:`save_features_csv`.

    A file that does not parse as a numeric table, or has no rows, is a
    :class:`SosidError` naming the file.
    """
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        with warnings.catch_warnings():
            # an input without rows is reported below, naming the file
            warnings.simplefilter("ignore", UserWarning)
            vectors = np.loadtxt(lines, delimiter=",", ndmin=2)
    except ValueError as exc:
        # numpy's advice to pass ``usecols`` is not one a sosid user can take
        reason = str(exc).split("; use `usecols`")[0]
        raise SosidError(f"{path}: not a numeric feature table: {reason}") from None
    if len(vectors) == 0:
        raise SosidError(f"{path}: no feature rows")
    if not np.isfinite(vectors).all():
        raise SosidError(f"{path}: feature values must be finite (found NaN or inf)")
    return SpectralFrames(vectors=vectors)
