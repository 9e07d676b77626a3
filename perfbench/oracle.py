"""Reference computations the benchmark checks the program's outputs against.

Written from the published definitions with plain numpy, sharing no code
with ``sosid``: the log mel front end (504-sample Hamming frames every 160
samples, 504-point power spectrum, 24 triangular mel filters up to
Nyquist, natural log floored at 1e-10), maximum-likelihood Gaussian
models with a centred covariance, and the three measures with the
"decomposition" convention for mu_sc.
"""

from __future__ import annotations

import wave

import numpy as np

FRAME_LEN = 504
HOP = 160
N_FILTERS = 24
LOG_FLOOR = 1e-10


def read_wav(path) -> tuple:
    with wave.open(str(path), "rb") as wav:
        rate = wav.getframerate()
        samples = np.frombuffer(wav.readframes(wav.getnframes()), dtype="<i2")
    return samples.astype(float), rate


def _mel(hz):
    return 2595.0 * np.log10(1.0 + hz / 700.0)


def _mel_inverse(mel):
    return 700.0 * (10.0 ** (mel / 2595.0) - 1.0)


def features(samples: np.ndarray, rate: int) -> np.ndarray:
    """(n_frames, 24) log mel filterbank energies."""
    n_frames = (len(samples) - FRAME_LEN) // HOP + 1
    index = np.arange(FRAME_LEN)[None, :] + HOP * np.arange(n_frames)[:, None]
    window = 0.54 - 0.46 * np.cos(2.0 * np.pi * np.arange(FRAME_LEN) / (FRAME_LEN - 1))
    power = np.abs(np.fft.rfft(samples[index] * window, n=FRAME_LEN)) ** 2
    edges = _mel_inverse(np.linspace(_mel(0.0), _mel(rate / 2.0), N_FILTERS + 2))
    bins = np.arange(FRAME_LEN // 2 + 1) * rate / FRAME_LEN
    lo, centre, hi = edges[:-2, None], edges[1:-1, None], edges[2:, None]
    bank = np.maximum(0.0, np.minimum((bins - lo) / (centre - lo), (hi - bins) / (hi - centre)))
    return np.log(np.maximum(power @ bank.T, LOG_FLOOR))


def model(frames: np.ndarray) -> tuple:
    """(mean, ML covariance, count) of a (n, p) frame matrix."""
    mean = frames.mean(axis=0)
    centred = frames - mean
    return mean, centred.T @ centred / len(frames), len(frames)


def measure(kind: str, ref: tuple, test: tuple) -> float:
    """mu_g, mu_gc or mu_sc (decomposition) of a test model against a reference."""
    (xbar, x, m), (ybar, y, n) = ref, test
    p = len(xbar)
    a, b = m / (m + n), n / (m + n)
    tr1 = np.trace(np.linalg.solve(x, y))
    tr2 = np.trace(np.linalg.solve(y, x))
    ldr = np.linalg.slogdet(y)[1] - np.linalg.slogdet(x)[1]
    if kind == "mu_sc":
        return a * np.log(tr1) + b * np.log(tr2) - np.log(p) - (a - b) * ldr / p
    value = (a * tr1 + b * tr2 - (a - b) * ldr) / p - 1.0
    if kind == "mu_g":
        d = ybar - xbar
        value += (a * d @ np.linalg.solve(x, d) + b * d @ np.linalg.solve(y, d)) / p
    return float(value)


def score_sheet(refs: dict, test: tuple, kind: str) -> tuple:
    """(decision, [score per speaker in registry order]); first minimum wins."""
    scores = [measure(kind, ref, test) for ref in refs.values()]
    return list(refs)[int(np.argmin(scores))], scores


def models_match(got: tuple, want: tuple, rtol: float = 1e-9) -> bool:
    """Mean and covariance agree to rtol of their own scale; counts exactly."""
    (gm, gc, gn), (wm, wc, wn) = got, want
    scale = float(np.max(np.abs(wc)))
    return (
        gn == wn
        and np.allclose(gm, wm, rtol=rtol, atol=rtol * float(np.max(np.abs(wm))))
        and np.allclose(gc, wc, rtol=rtol, atol=rtol * scale)
    )
