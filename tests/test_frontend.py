import math
import struct
import wave

import numpy as np
import pytest
from hypothesis import given, strategies as st

from sosid.errors import AudioFormatError, ConfigurationError, EmptyInputError, SosidError
from sosid.frontend import (
    FrontendConfig,
    SampleBuffer,
    build_mel_filterbank,
    extract_features,
    frame_signal,
    hamming_window,
    hz_to_mel,
    load_features_csv,
    load_wav,
    mel_edge_frequencies,
    mel_to_hz,
    power_spectrum,
    save_features_csv,
    save_wav,
)


def _write_wav(path, samples, rate=16000, width=2, channels=1):
    data = np.asarray(samples)
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(channels)
        wav.setsampwidth(width)
        wav.setframerate(rate)
        if width == 2:
            wav.writeframes(data.astype("<i2").tobytes())
        else:
            wav.writeframes((data.astype(np.int16) + 128).astype(np.uint8).tobytes())


class TestLoadWav:
    def test_one_second_of_silence(self, tmp_path):
        path = tmp_path / "silence.wav"
        _write_wav(path, np.zeros(16000, dtype=np.int16))
        buf = load_wav(path)
        assert buf.sample_rate == 16000
        assert len(buf) == 16000
        assert np.all(buf.samples == 0)

    def test_decode_is_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = rng.integers(-32768, 32768, size=1000, dtype=np.int16)
        path = tmp_path / "noise.wav"
        _write_wav(path, samples)
        buf = load_wav(path)
        assert np.array_equal(buf.samples, samples)

    def test_eight_bit_rejected(self, tmp_path):
        path = tmp_path / "eight.wav"
        _write_wav(path, np.zeros(100, dtype=np.int16), width=1)
        with pytest.raises(AudioFormatError, match="bit depth"):
            load_wav(path)

    def test_stereo_rejected(self, tmp_path):
        path = tmp_path / "stereo.wav"
        _write_wav(path, np.zeros(200, dtype=np.int16), channels=2)
        with pytest.raises(AudioFormatError, match="channels"):
            load_wav(path)

    def test_other_sample_rates_pass_through(self, tmp_path):
        path = tmp_path / "cd.wav"
        _write_wav(path, np.zeros(441, dtype=np.int16), rate=44100)
        assert load_wav(path).sample_rate == 44100

    def test_non_pcm_rejected(self, tmp_path):
        # Hand-built RIFF header with format tag 3 (IEEE float).
        path = tmp_path / "float.wav"
        body = struct.pack("<HHIIHH", 3, 1, 16000, 64000, 4, 32)
        chunk = b"fmt " + struct.pack("<I", len(body)) + body
        data = b"data" + struct.pack("<I", 0)
        riff = b"WAVE" + chunk + data
        path.write_bytes(b"RIFF" + struct.pack("<I", len(riff)) + riff)
        with pytest.raises(AudioFormatError):
            load_wav(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "garbage.wav"
        path.write_bytes(b"this is not audio")
        with pytest.raises(AudioFormatError):
            load_wav(path)

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        samples = rng.integers(-3000, 3000, size=500, dtype=np.int16)
        path = tmp_path / "rt.wav"
        save_wav(path, samples, 16000)
        assert np.array_equal(load_wav(path).samples, samples)


class TestFrameSignal:
    def test_one_second_gives_97_frames(self):
        buf = SampleBuffer(samples=np.zeros(16000, dtype=np.int16), sample_rate=16000)
        frames = frame_signal(buf, FrontendConfig())
        assert frames.shape == (97, 504)

    def test_exactly_one_frame(self):
        frames = frame_signal(np.zeros(504), FrontendConfig())
        assert frames.shape == (1, 504)

    def test_too_short_raises(self):
        with pytest.raises(EmptyInputError):
            frame_signal(np.zeros(503), FrontendConfig())

    def test_frames_cover_expected_samples(self):
        cfg = FrontendConfig(frame_len=4, hop=3, dft_len=4)
        frames = frame_signal(np.arange(11.0), cfg)
        assert frames.shape == (3, 4)
        assert np.array_equal(frames[0], [0, 1, 2, 3])
        assert np.array_equal(frames[1], [3, 4, 5, 6])
        assert np.array_equal(frames[2], [6, 7, 8, 9])

    @given(
        n=st.integers(min_value=1, max_value=5000),
        frame_len=st.integers(min_value=1, max_value=600),
        hop=st.integers(min_value=1, max_value=400),
    )
    def test_frame_count_formula(self, n, frame_len, hop):
        cfg = FrontendConfig(frame_len=frame_len, hop=hop, dft_len=frame_len)
        signal = np.zeros(n)
        if n < frame_len:
            with pytest.raises(EmptyInputError):
                frame_signal(signal, cfg)
        else:
            assert len(frame_signal(signal, cfg)) == (n - frame_len) // hop + 1


class TestPowerSpectrum:
    def test_hamming_window_matches_definition(self):
        n = np.arange(504)
        expected = 0.54 - 0.46 * np.cos(2 * np.pi * n / 503)
        np.testing.assert_allclose(hamming_window(504), expected, rtol=0, atol=1e-15)

    def test_zero_frame_gives_zero_spectrum(self):
        out = power_spectrum(np.zeros(504))
        assert out.shape == (253,)
        assert np.all(out == 0)

    def test_unit_impulse_gives_flat_spectrum(self):
        frame = np.zeros(504)
        frame[0] = 1.0
        np.testing.assert_allclose(power_spectrum(frame), np.ones(253), rtol=1e-12)

    def test_bin_count_for_odd_lengths(self):
        assert power_spectrum(np.zeros(505)).shape == (253,)

    def test_sine_at_exact_bin_concentrates(self):
        n = 504
        k = 20
        t = np.arange(n)
        frame = np.sin(2 * np.pi * k * t / n) * hamming_window(n)
        fast = power_spectrum(frame)
        oracle = _dft_oracle(frame)
        assert np.argmax(fast) == k
        assert abs(fast[k] - oracle[k]) <= 1e-9 * oracle[k]
        # leakage bins are near-cancelled sums; compare against the spectrum
        # scale there rather than bin by bin
        np.testing.assert_allclose(fast, oracle, rtol=1e-9, atol=1e-12 * oracle[k])

    def test_matches_quadratic_dft_oracle_on_random_frames(self):
        rng = np.random.default_rng(4242)
        for _ in range(10):
            frame = rng.standard_normal(504) * 3000.0 * hamming_window(504)
            np.testing.assert_allclose(
                power_spectrum(frame), _dft_oracle(frame), rtol=1e-9
            )

    def test_parseval_identity(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            frame = rng.standard_normal(504)
            full = np.fft.fft(frame)
            time_energy = np.sum(frame**2)
            freq_energy = np.sum(np.abs(full) ** 2) / 504
            assert abs(time_energy - freq_energy) <= 1e-6 * time_energy
            # half spectrum returned by power_spectrum carries the same energy
            half = power_spectrum(frame)
            reconstructed = half[0] + half[-1] + 2 * np.sum(half[1:-1])
            np.testing.assert_allclose(reconstructed / 504, time_energy, rtol=1e-9)

    def test_dft_len_shorter_than_frame_rejected(self):
        with pytest.raises(ValueError):
            power_spectrum(np.zeros(504), dft_len=256)

    def test_zero_pad_override(self):
        rng = np.random.default_rng(21)
        frame = rng.standard_normal(504)
        padded = power_spectrum(frame, dft_len=1024)
        assert padded.shape == (513,)
        oracle = np.abs(np.fft.fft(np.concatenate([frame, np.zeros(520)]))[:513]) ** 2
        np.testing.assert_allclose(padded, oracle, rtol=1e-9, atol=1e-12)


def _dft_oracle(frame):
    """O(N^2) reference DFT power spectrum."""
    n = len(frame)
    bins = n // 2 + 1
    out = np.empty(bins)
    for k in range(bins):
        acc = 0.0 + 0.0j
        for t in range(n):
            acc += frame[t] * np.exp(-2j * np.pi * k * t / n)
        out[k] = (acc * acc.conjugate()).real
    return out


class TestMelFilterbank:
    def test_single_filter_peaks_mid_band(self):
        cfg = FrontendConfig(n_filters=1)
        weights = build_mel_filterbank(cfg, 16000)
        assert weights.shape == (1, 253)
        peak_freq = np.argmax(weights[0]) * 16000 / 504
        centre = mel_to_hz(hz_to_mel(8000.0) / 2.0)
        assert abs(peak_freq - centre) < 16000 / 504  # within one bin

    def test_default_bank_rows_positive(self):
        weights = build_mel_filterbank(FrontendConfig(), 16000)
        assert weights.shape == (24, 253)
        assert np.all(weights >= 0)
        assert np.all(weights.sum(axis=1) > 0)

    def test_centres_match_independent_mel_evaluation(self):
        cfg = FrontendConfig()
        edges = mel_edge_frequencies(cfg, 16000)
        # independent recomputation: equally spaced mel points mapped back
        low = 2595.0 * math.log10(1.0)
        high = 2595.0 * math.log10(1.0 + 8000.0 / 700.0)
        expected = [
            700.0 * (10.0 ** ((low + i * (high - low) / 25.0) / 2595.0) - 1.0)
            for i in range(26)
        ]
        np.testing.assert_allclose(edges, expected, rtol=1e-12)
        assert np.all(np.diff(edges) > 0)

    def test_too_many_filters_rejected(self):
        cfg = FrontendConfig(frame_len=32, hop=16, dft_len=32, n_filters=24)
        with pytest.raises(ConfigurationError):
            build_mel_filterbank(cfg, 16000)

    def test_mel_high_above_nyquist_rejected(self):
        cfg = FrontendConfig(mel_high=9000.0)
        with pytest.raises(ConfigurationError):
            build_mel_filterbank(cfg, 16000)

    def test_mel_scale_round_trip(self):
        freqs = np.linspace(0, 8000, 50)
        np.testing.assert_allclose(mel_to_hz(hz_to_mel(freqs)), freqs, atol=1e-9)


class TestFrontendConfig:
    def test_invalid_configs_rejected(self):
        with pytest.raises(ConfigurationError):
            FrontendConfig(hop=0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(frame_len=600, dft_len=504)
        with pytest.raises(ConfigurationError):
            FrontendConfig(n_filters=0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(mel_low=300.0, mel_high=200.0)
        with pytest.raises(ConfigurationError):
            FrontendConfig(log_floor=0.0)

    @pytest.mark.parametrize("field", ["frame_len", "hop", "dft_len", "n_filters"])
    @pytest.mark.parametrize("value", [160.0, True], ids=["float", "bool"])
    def test_non_integer_sizes_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be an integer, got {value}"):
            FrontendConfig(**{field: value})

    @pytest.mark.parametrize("field", ["mel_low", "mel_high", "log_floor"])
    @pytest.mark.parametrize(
        "value", [True, "1.0", math.nan, math.inf], ids=["bool", "string", "nan", "inf"]
    )
    def test_non_real_floats_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"{field} must be a finite number, got"):
            FrontendConfig(**{field: value})

    def test_digest_depends_on_values(self):
        assert FrontendConfig().digest() == FrontendConfig().digest()
        assert FrontendConfig().digest() != FrontendConfig(n_filters=20).digest()


class TestExtractFeatures:
    def test_zero_signal_hits_log_floor_everywhere(self):
        buf = SampleBuffer(samples=np.zeros(16000, dtype=np.int16), sample_rate=16000)
        feats = extract_features(buf)
        assert feats.vectors.shape == (97, 24)
        np.testing.assert_array_equal(feats.vectors, math.log(1e-10))

    def test_all_frames_have_dimension_24(self):
        rng = np.random.default_rng(3)
        buf = SampleBuffer(
            samples=rng.integers(-500, 500, size=9000).astype(np.int16),
            sample_rate=16000,
        )
        feats = extract_features(buf)
        assert feats.dim == 24
        assert feats.frame_period == pytest.approx(0.010)

    def test_every_component_at_least_log_floor(self):
        rng = np.random.default_rng(5)
        buf = SampleBuffer(
            samples=rng.integers(-30000, 30000, size=8000).astype(np.int16),
            sample_rate=16000,
        )
        feats = extract_features(buf)
        assert np.all(feats.vectors >= math.log(1e-10))

    def test_matches_straight_line_reimplementation(self):
        rng = np.random.default_rng(987)
        samples = rng.integers(-20000, 20000, size=16000).astype(np.int16)
        buf = SampleBuffer(samples=samples, sample_rate=16000)
        cfg = FrontendConfig()
        feats = extract_features(buf, cfg)
        oracle = _pipeline_oracle(samples, 16000, cfg)
        np.testing.assert_allclose(feats.vectors, oracle, rtol=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        samples = rng.integers(-500, 500, size=5000).astype(np.int16)
        buf = SampleBuffer(samples=samples, sample_rate=16000)
        a = extract_features(buf).vectors
        b = extract_features(buf).vectors
        assert np.array_equal(a, b)

    def test_csv_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(13)
        buf = SampleBuffer(
            samples=rng.integers(-500, 500, size=5000).astype(np.int16),
            sample_rate=16000,
        )
        feats = extract_features(buf)
        path = tmp_path / "features.csv"
        save_features_csv(feats, path)
        loaded = load_features_csv(path)
        assert np.array_equal(loaded.vectors, feats.vectors)

    def test_single_frame_csv_round_trip(self, tmp_path):
        path = tmp_path / "one.csv"
        row = np.arange(24.0)[None, :]
        save_features_csv(row, path)
        assert load_features_csv(path).vectors.shape == (1, 24)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_csv_rejected(self, tmp_path, bad):
        path = tmp_path / "bad.csv"
        rows = np.ones((5, 24))
        rows[3, 7] = bad
        save_features_csv(rows, path)
        with pytest.raises(SosidError, match="bad.csv"):
            load_features_csv(path)


def _savetxt_table():
    table = np.random.default_rng(17).standard_normal((7, 5)) * 1e3
    table[0, :] = [np.nan, np.inf, -np.inf, -0.0, 5e-324]
    table[1, 2] = 1e300
    return table


class TestSaveFeaturesCsv:
    """The one-format writer against the np.savetxt call it replaces."""

    @pytest.mark.parametrize(
        "array",
        [
            _savetxt_table(),
            np.linspace(-1.0, 1.0, 9),
            np.array([[0.1, -2.5e-17, 3.0]]),
            np.arange(-6, 6).reshape(4, 3),
        ],
        ids=["specials", "1-D", "one-row", "integers"],
    )
    def test_bytes_equal_savetxt(self, tmp_path, array):
        np.savetxt(tmp_path / "want.csv", array, fmt="%.17g", delimiter=",")
        save_features_csv(array, tmp_path / "got.csv")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_three_dimensions_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            save_features_csv(np.zeros((2, 3, 4)), tmp_path / "cube.csv")
        assert not (tmp_path / "cube.csv").exists()


def _pipeline_oracle(samples, rate, cfg):
    """Independent loop-based reimplementation of the whole front end."""
    n = len(samples)
    count = (n - cfg.frame_len) // cfg.hop + 1
    window = np.array(
        [0.54 - 0.46 * math.cos(2 * math.pi * i / (cfg.frame_len - 1))
         for i in range(cfg.frame_len)]
    )
    high = rate / 2.0
    mel_lo = 2595.0 * math.log10(1.0 + cfg.mel_low / 700.0)
    mel_hi = 2595.0 * math.log10(1.0 + high / 700.0)
    edges = [
        700.0 * (10.0 ** ((mel_lo + j * (mel_hi - mel_lo) / (cfg.n_filters + 1)) / 2595.0) - 1.0)
        for j in range(cfg.n_filters + 2)
    ]
    n_bins = cfg.dft_len // 2 + 1
    bin_freqs = [i * rate / cfg.dft_len for i in range(n_bins)]
    bank = np.zeros((cfg.n_filters, n_bins))
    for j in range(cfg.n_filters):
        lo, centre, hi = edges[j], edges[j + 1], edges[j + 2]
        for i, f in enumerate(bin_freqs):
            if lo <= f <= centre:
                bank[j, i] = (f - lo) / (centre - lo)
            elif centre < f <= hi:
                bank[j, i] = (hi - f) / (hi - centre)
    out = np.zeros((count, cfg.n_filters))
    for k in range(count):
        frame = samples[k * cfg.hop : k * cfg.hop + cfg.frame_len].astype(float) * window
        spectrum = np.abs(np.fft.fft(frame, cfg.dft_len)[:n_bins]) ** 2
        for j in range(cfg.n_filters):
            energy = float(bank[j] @ spectrum)
            out[k, j] = math.log(max(energy, cfg.log_floor))
    return out
