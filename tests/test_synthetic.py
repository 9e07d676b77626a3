import math
import re
from dataclasses import replace

import numpy as np
import pytest

from sosid.errors import ConfigurationError
from sosid.experiment import DurationProtocolConfig, run_duration_experiment
from sosid.gaussian import GaussianModel, factorize
from sosid.measures import MEASURE_KINDS, evaluate
from sosid.synthetic import (
    SynthCorpusConfig,
    TrueSpeaker,
    generate_labeled_frames,
    make_corpus,
    sample_speakers,
    true_measure,
    write_corpus,
)


class TestSampleSpeakers:
    def test_same_seed_same_speakers(self):
        cfg = SynthCorpusConfig(n_speakers=5, dim=8, seed=42)
        a, b = sample_speakers(cfg), sample_speakers(cfg)
        for sa, sb in zip(a, b):
            np.testing.assert_array_equal(sa.base_mean, sb.base_mean)
            np.testing.assert_array_equal(sa.base_cov, sb.base_cov)

    def test_zero_separation_collapses_means(self):
        cfg = SynthCorpusConfig(n_speakers=4, dim=8, separation=0.0, seed=1)
        for speaker in sample_speakers(cfg):
            np.testing.assert_array_equal(speaker.base_mean, np.zeros(8))

    def test_mean_radius_is_separation(self):
        cfg = SynthCorpusConfig(n_speakers=6, dim=24, separation=2.5, seed=2)
        for speaker in sample_speakers(cfg):
            assert np.linalg.norm(speaker.base_mean) == pytest.approx(2.5)

    def test_full_scale_covariances_all_factorize(self):
        cfg = SynthCorpusConfig(n_speakers=67, dim=24, seed=3)
        for speaker in sample_speakers(cfg):
            fact = factorize(speaker.base_cov)
            assert fact.loading == 0.0

    def test_unit_average_variance(self):
        cfg = SynthCorpusConfig(n_speakers=3, dim=24, seed=4)
        for speaker in sample_speakers(cfg):
            assert np.trace(speaker.base_cov) / 24 == pytest.approx(1.0, rel=1e-12)

    def test_offsets_scale_with_class_spread(self):
        base = SynthCorpusConfig(n_speakers=2, dim=8, class_spread=0.0, seed=5)
        spread = SynthCorpusConfig(n_speakers=2, dim=8, class_spread=2.0, seed=5)
        for speaker in sample_speakers(base):
            for offset in speaker.class_offsets.values():
                np.testing.assert_array_equal(offset, np.zeros(8))
        assert any(
            np.linalg.norm(offset) > 0.1
            for speaker in sample_speakers(spread)
            for offset in speaker.class_offsets.values()
        )

    def test_invalid_config_rejected(self):
        with pytest.raises(ConfigurationError):
            SynthCorpusConfig(n_speakers=0)
        with pytest.raises(ConfigurationError):
            SynthCorpusConfig(separation=-1.0)
        with pytest.raises(ConfigurationError):
            SynthCorpusConfig(frame_correlation=1.0)
        for spread in (math.nan, math.inf):
            with pytest.raises(ConfigurationError, match="finite"):
                SynthCorpusConfig(separation=spread)
            with pytest.raises(ConfigurationError, match="finite"):
                SynthCorpusConfig(class_spread=spread)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_speakers", 2.5),
            ("dim", True),
            ("frames_per_speaker", 100.5),
            ("sentence_len_frames", "300"),
            ("seed", 1.5),
            ("separation", True),
            ("class_spread", True),
            ("frame_correlation", False),
            ("separation", "1"),
            ("frame_correlation", "0.5"),
            ("class_spread", [1]),
        ],
    )
    def test_non_integer_counts_and_seed_rejected(self, name, value):
        # the float fields take any real number but a bool
        floats = ("separation", "class_spread", "frame_correlation")
        kind = "a number" if name in floats else "an integer"
        message = re.escape(f"{name} must be {kind}, got {value!r}")
        with pytest.raises(ConfigurationError, match=message):
            SynthCorpusConfig(**{name: value})


class TestGenerateLabeledFrames:
    def test_kernels_tile_the_sequence_exactly(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=4, seed=6)
        speaker = sample_speakers(cfg)[0]
        labels = ["a"] * 5 + ["m"] * 3 + ["a"] * 2
        rng = np.random.default_rng(0)
        frames, track = generate_labeled_frames(speaker, labels, rng, "sent")
        assert len(frames) == 10
        assert track.sentence_id == "sent"
        assert track.entries == (("a", 0, 4), ("m", 5, 7), ("a", 8, 9))
        covered = [i for _, s, e in track.entries for i in range(s, e + 1)]
        assert covered == list(range(10))

    @pytest.mark.parametrize("correlation", [0.0, 0.6])
    @pytest.mark.parametrize("seed", range(4))
    def test_frames_and_kernels_equal_a_frame_by_frame_construction(self, seed, correlation):
        # each frame's offset looked up on its own, and each kernel closed
        # where the next label differs; the batched generator matches bit for bit
        cfg = SynthCorpusConfig(n_speakers=1, dim=5, class_spread=2.0, seed=seed)
        speaker = sample_speakers(cfg)[0]
        rng = np.random.default_rng(seed)
        labels = list(rng.choice(["a", "m", "s", "i"], size=int(rng.integers(1, 60))))
        frames, track = generate_labeled_frames(
            speaker, labels, np.random.default_rng(seed), correlation=correlation
        )
        # the same draws with every mean zero: x + 0.0 is x, so this is the noise
        zero = np.zeros(cfg.dim)
        silent = replace(
            speaker, base_mean=zero, class_offsets=dict.fromkeys(speaker.class_offsets, zero)
        )
        noise, _ = generate_labeled_frames(
            silent, labels, np.random.default_rng(seed), correlation=correlation
        )
        noise = noise.vectors
        offsets = np.stack([speaker.class_offsets[label] for label in labels])
        np.testing.assert_array_equal(frames.vectors, noise + speaker.base_mean + offsets)
        entries, start = [], 0
        for position in range(1, len(labels) + 1):
            if position == len(labels) or labels[position] != labels[start]:
                entries.append((labels[start], start, position - 1))
                start = position
        assert track.entries == tuple(entries)
        assert all(type(i) is int for _, start, end in track.entries for i in (start, end))

    def test_empty_label_list_rejected(self):
        speaker = sample_speakers(SynthCorpusConfig(n_speakers=1, dim=4, seed=7))[0]
        with pytest.raises(ValueError, match="need at least one"):
            generate_labeled_frames(speaker, [], np.random.default_rng(0))

    def test_unknown_label_rejected(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=4, seed=7)
        speaker = sample_speakers(cfg)[0]
        with pytest.raises(ValueError, match="xx"):
            generate_labeled_frames(speaker, ["a", "xx"], np.random.default_rng(0))

    def test_zero_class_spread_means_one_distribution(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=6, class_spread=0.0, seed=8)
        speaker = sample_speakers(cfg)[0]
        rng = np.random.default_rng(1)
        labels = (["a"] * 50 + ["m"] * 50) * 100
        frames, _ = generate_labeled_frames(speaker, labels, rng)
        vectors = frames.vectors
        mean_a = vectors[np.array(labels) == "a"].mean(axis=0)
        mean_m = vectors[np.array(labels) == "m"].mean(axis=0)
        assert np.linalg.norm(mean_a - mean_m) < 0.1

    def test_empirical_mean_within_5_percent_of_true_norm(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=24, separation=1.0, seed=9)
        speaker = sample_speakers(cfg)[0]
        rng = np.random.default_rng(2)
        frames, _ = generate_labeled_frames(speaker, ["a"] * 100_000, rng)
        true_mean = speaker.base_mean + speaker.class_offsets["a"]
        error = np.linalg.norm(frames.vectors.mean(axis=0) - true_mean)
        assert error <= 0.05 * np.linalg.norm(true_mean)

    def test_correlation_keeps_marginal_law(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=6, separation=1.0, seed=10)
        speaker = sample_speakers(cfg)[0]
        rng = np.random.default_rng(3)
        frames, _ = generate_labeled_frames(
            speaker, ["a"] * 200_000, rng, correlation=0.9
        )
        model = GaussianModel.from_frames(frames.vectors)
        true_mean = speaker.base_mean + speaker.class_offsets["a"]
        assert np.linalg.norm(model.mean - true_mean) <= 0.1
        rel = np.linalg.norm(model.cov - speaker.base_cov) / np.linalg.norm(
            speaker.base_cov
        )
        assert rel <= 0.15

    def test_correlation_zero_matches_default(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=4, seed=11)
        speaker = sample_speakers(cfg)[0]
        a, _ = generate_labeled_frames(speaker, ["a"] * 50, np.random.default_rng(4))
        b, _ = generate_labeled_frames(
            speaker, ["a"] * 50, np.random.default_rng(4), correlation=0.0
        )
        np.testing.assert_array_equal(a.vectors, b.vectors)

    def test_invalid_correlation_rejected(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=4, seed=12)
        speaker = sample_speakers(cfg)[0]
        with pytest.raises(ValueError):
            generate_labeled_frames(
                speaker, ["a"], np.random.default_rng(0), correlation=1.0
            )


class TestTrueMeasure:
    def _speaker(self, mean, cov, sid="x"):
        return TrueSpeaker(
            speaker_id=sid,
            base_mean=np.atleast_1d(np.asarray(mean, dtype=float)),
            base_cov=np.atleast_2d(np.asarray(cov, dtype=float)),
            class_offsets={},
        )

    def test_identical_speakers_measure_zero(self):
        cfg = SynthCorpusConfig(n_speakers=1, dim=8, seed=13)
        speaker = sample_speakers(cfg)[0]
        for kind in MEASURE_KINDS:
            assert abs(true_measure(speaker, speaker, kind)) <= 1e-10

    def test_scalar_fixtures_reproduced(self):
        a = self._speaker(0.0, 1.0)
        b = self._speaker(0.0, 2.0)
        assert true_measure(a, b, "mu_g") == pytest.approx(0.25, abs=1e-12)
        c = self._speaker(1.0, 1.0)
        assert true_measure(a, c, "mu_g") == pytest.approx(1.0, abs=1e-12)
        d = self._speaker([0.0, 0.0], np.eye(2))
        e = self._speaker([0.0, 0.0], np.diag([1.0, 4.0]))
        expected = math.log(2.5) - math.log(2.0)
        assert true_measure(d, e, "mu_sc") == pytest.approx(expected, abs=1e-12)

    def test_empirical_models_converge_to_true_measure(self):
        cfg = SynthCorpusConfig(n_speakers=2, dim=24, separation=1.0, seed=2024)
        a, b = sample_speakers(cfg)
        models = []
        for index, speaker in enumerate((a, b)):
            rng = np.random.default_rng(np.random.SeedSequence([2024, 9, index]))
            frames, _ = generate_labeled_frames(speaker, ["a"] * 100_000, rng)
            models.append(GaussianModel.from_frames(frames.vectors))
        for kind in MEASURE_KINDS:
            empirical = evaluate(kind, models[0], models[1])
            truth = true_measure(a, b, kind)
            assert abs(empirical - truth) <= 0.05 * abs(truth)

    def test_estimator_error_shrinks_with_sample_size(self):
        # trend over 20 seeds: mean |empirical - true| decreases with frames
        cfg = SynthCorpusConfig(n_speakers=2, dim=8, separation=1.0, seed=31)
        a, b = sample_speakers(cfg)
        sizes = (1_000, 10_000, 100_000)
        errors = {n: [] for n in sizes}
        for seed in range(20):
            for n in sizes:
                models = []
                for index, speaker in enumerate((a, b)):
                    rng = np.random.default_rng(
                        np.random.SeedSequence([31, 7, seed, index])
                    )
                    frames, _ = generate_labeled_frames(speaker, ["a"] * n, rng)
                    models.append(GaussianModel.from_frames(frames.vectors))
                truth = true_measure(a, b, "mu_g")
                errors[n].append(abs(evaluate("mu_g", models[0], models[1]) - truth))
        means = [np.mean(errors[n]) for n in sizes]
        assert means[0] > means[1] > means[2]


class TestCorpusGeneration:
    def test_total_frames_exact(self):
        cfg = SynthCorpusConfig(
            n_speakers=3, dim=4, frames_per_speaker=700, sentence_len_frames=300, seed=14
        )
        corpus = make_corpus(cfg)
        for _, sentences in corpus.speakers:
            assert sum(len(s.frames) for s in sentences) == 700
            assert [len(s.frames) for s in sentences] == [300, 300, 100]

    def test_alignments_tile_every_sentence(self):
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=400, sentence_len_frames=200, seed=15
        )
        for _, sentences in make_corpus(cfg).speakers:
            for sentence in sentences:
                covered = [
                    i
                    for _, s, e in sentence.alignment.entries
                    for i in range(s, e + 1)
                ]
                assert covered == list(range(len(sentence.frames)))

    def test_corpus_deterministic(self):
        cfg = SynthCorpusConfig(n_speakers=2, dim=4, frames_per_speaker=400, seed=16)
        a, b = make_corpus(cfg), make_corpus(cfg)
        for (_, sa), (_, sb) in zip(a.speakers, b.speakers):
            for x, y in zip(sa, sb):
                np.testing.assert_array_equal(x.frames, y.frames)

    def test_write_corpus_round_trip(self, tmp_path):
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=300, sentence_len_frames=150, seed=17
        )
        manifest_path = write_corpus(cfg, tmp_path / "corpus")
        assert manifest_path.name == "manifest.json"
        assert (tmp_path / "corpus" / "spk000" / "s000.csv").exists()
        assert (tmp_path / "corpus" / "spk000" / "s000.ali").exists()


class TestProtocolLevelProperties:
    def test_accuracy_non_decreasing_in_separation(self):
        # trend over seeds, at a difficulty level where accuracy can move
        kinds = ("mu_g",)
        proto = DurationProtocolConfig(
            train_durations=(6.0,),
            test_durations=(1.0,),
            max_tests_per_speaker=10,
            measures=kinds,
        )
        separations = (0.0, 1.0, 3.0)
        means = []
        for separation in separations:
            accs = []
            for seed in range(8):
                cfg = SynthCorpusConfig(
                    n_speakers=10,
                    dim=24,
                    separation=separation,
                    frame_correlation=0.92,
                    frames_per_speaker=1700,
                    sentence_len_frames=200,
                    seed=500 + seed,
                )
                report = run_duration_experiment(make_corpus(cfg), proto)
                accs.append(report.cells[(6.0, 1.0, "mu_g")].global_accuracy)
            means.append(np.mean(accs))
        assert means[0] <= means[1] + 1e-9
        assert means[1] <= means[2] + 1e-9

    def test_end_to_end_easy_corpus_is_perfect(self):
        cfg = SynthCorpusConfig(
            n_speakers=4,
            dim=24,
            separation=10.0,
            class_spread=0.0,
            frames_per_speaker=2600,
            sentence_len_frames=260,
            seed=18,
        )
        proto = DurationProtocolConfig(train_durations=(15.0,), test_durations=(1.0,))
        report = run_duration_experiment(make_corpus(cfg), proto)
        for kind in MEASURE_KINDS:
            assert report.cells[(15.0, 1.0, kind)].global_accuracy == 100.0
