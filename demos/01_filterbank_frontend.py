"""Front end walkthrough: from a WAV file to 24-band log mel features.

Synthesizes a short test tone, runs the analysis chain (31.5 ms Hamming
frames every 10 ms, exact 504-point power spectrum, 24 triangular mel
filters, natural log with a hard floor) and pokes at the intermediate
stages.
"""

import math
import tempfile
from pathlib import Path

import numpy as np

from sosid import (
    FrontendConfig,
    build_mel_filterbank,
    extract_features,
    frame_signal,
    load_features_csv,
    load_wav,
    power_spectrum,
    save_features_csv,
    save_wav,
)

# One second of a 440 Hz tone plus a little noise, 16 kHz mono 16-bit PCM.
rng = np.random.default_rng(0)
t = np.arange(16000)
tone = 6000 * np.sin(2 * np.pi * 440 * t / 16000) + 300 * rng.standard_normal(16000)
with tempfile.TemporaryDirectory() as workdir:
    wav_path = Path(workdir) / "tone.wav"
    save_wav(wav_path, tone, 16000)
    buf = load_wav(wav_path)
print(f"loaded {len(buf)} samples at {buf.sample_rate} Hz ({buf.duration:.2f} s)")

cfg = FrontendConfig()
frames = frame_signal(buf, cfg)
print(f"framing: {frames.shape[0]} frames of {frames.shape[1]} samples (hop {cfg.hop})")

# The power spectrum of one windowed frame: the 440 Hz line sits near bin
# 440 / (16000 / 504) ~= 13.9, so bins 13-14 carry almost all the energy.
spectrum = power_spectrum(frames[10] * np.hamming(cfg.frame_len), cfg.dft_len)
print(f"power spectrum: {spectrum.shape[0]} bins, peak at bin {np.argmax(spectrum)}")

bank = build_mel_filterbank(cfg, buf.sample_rate)
print(f"mel filterbank: {bank.shape[0]} filters x {bank.shape[1]} bins, "
      f"all weights >= 0: {bool(np.all(bank >= 0))}")

features = extract_features(buf, cfg)
print(f"features: {features.vectors.shape}, frame period {features.frame_period*1000:.0f} ms")
print(f"log floor is log(1e-10) = {math.log(1e-10):.4f}; "
      f"observed minimum {features.vectors.min():.4f}")

# Features round-trip through the CSV dump format bit-exactly.
with tempfile.TemporaryDirectory() as workdir:
    csv_path = Path(workdir) / "tone_features.csv"
    save_features_csv(features, csv_path)
    again = load_features_csv(csv_path)
print(f"CSV round trip exact: {bool(np.array_equal(again.vectors, features.vectors))}")
