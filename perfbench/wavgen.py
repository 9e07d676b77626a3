"""Seeded WAV speakers: speaker-specific filtered noise at 16 kHz.

Each speaker is a fixed all-pole filter (three resonances plus a spectral
tilt) and an amplitude-modulation rate; a sentence is white noise through
that filter, modulated and scaled to 16-bit PCM. The spectral envelope is
what the log mel front end sees, so the speakers differ in both the mean
and the covariance of their features. Everything derives from the seed;
the same seed writes the same bytes.
"""

from __future__ import annotations

import json
import math
import wave
from pathlib import Path

import numpy as np
import scipy.signal

SAMPLE_RATE = 16000

# Stream tags under the corpus seed.
_SPEAKER_STREAM = 7
_SENTENCE_STREAM = 8
_TEST_STREAM = 9


def _rng(*keys) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(list(keys)))


def _speaker(seed: int, index: int) -> dict:
    rng = _rng(seed, _SPEAKER_STREAM, index)
    formants = rng.uniform([250.0, 900.0, 2000.0], [800.0, 2200.0, 3800.0])
    bandwidths = rng.uniform(60.0, 250.0, size=3)
    poles = []
    for freq, bandwidth in zip(formants, bandwidths):
        radius = math.exp(-math.pi * bandwidth / SAMPLE_RATE)
        angle = 2.0 * math.pi * freq / SAMPLE_RATE
        poles += [radius * np.exp(1j * angle), radius * np.exp(-1j * angle)]
    denominator = np.convolve(np.poly(poles).real, [1.0, -rng.uniform(0.3, 0.9)])
    return {
        "denominator": denominator,
        "mod_hz": rng.uniform(3.0, 6.0),
        "rms": rng.uniform(1500.0, 5000.0),
    }


def _utterance(speaker: dict, seconds: float, rng: np.random.Generator) -> np.ndarray:
    n = round(seconds * SAMPLE_RATE)
    signal = scipy.signal.lfilter([1.0], speaker["denominator"], rng.standard_normal(n))
    t = np.arange(n) / SAMPLE_RATE
    phase = rng.uniform(0.0, 2.0 * math.pi)
    signal *= 1.0 + 0.6 * np.sin(2.0 * math.pi * speaker["mod_hz"] * t + phase)
    signal *= speaker["rms"] / np.sqrt(np.mean(signal**2))
    return np.clip(np.round(signal), -32768, 32767).astype("<i2")


def _write_wav(path: Path, samples: np.ndarray) -> None:
    with wave.open(str(path), "wb") as out:
        out.setnchannels(1)
        out.setsampwidth(2)
        out.setframerate(SAMPLE_RATE)
        out.writeframes(samples.tobytes())


def write_wav_corpus(
    seed: int,
    out_dir,
    n_speakers: int,
    sentences: int,
    sentence_seconds: float,
    tests: int,
    test_seconds: float,
):
    """Write training sentences, test utterances and a manifest.

    Returns (manifest path, [(speaker id, test wav path), ...]). Test
    utterances come from their own random stream, so they never repeat
    training material.
    """
    out = Path(out_dir)
    manifest = {"seed": seed, "speakers": []}
    test_paths = []
    (out / "tests").mkdir(parents=True, exist_ok=True)
    for index in range(n_speakers):
        speaker_id = f"spk{index:03d}"
        speaker = _speaker(seed, index)
        (out / speaker_id).mkdir(exist_ok=True)
        entries = []
        for sentence in range(sentences):
            rel = f"{speaker_id}/s{sentence:03d}.wav"
            rng = _rng(seed, _SENTENCE_STREAM, index, sentence)
            _write_wav(out / rel, _utterance(speaker, sentence_seconds, rng))
            entries.append({"audio": rel})
        manifest["speakers"].append({"id": speaker_id, "sentences": entries})
        for test in range(tests):
            path = out / "tests" / f"{speaker_id}_t{test}.wav"
            rng = _rng(seed, _TEST_STREAM, index, test)
            _write_wav(path, _utterance(speaker, test_seconds, rng))
            test_paths.append((speaker_id, path))
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    return manifest_path, test_paths
