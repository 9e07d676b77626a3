import contextlib
import hashlib
import json
import math
import multiprocessing
import os
import re
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sosid import experiment
from sosid.cli import main
from sosid.errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateModelError,
    InsufficientDataError,
    TaxonomyError,
)
from sosid.experiment import (
    CorpusManifest,
    DurationProtocolConfig,
    ExperimentReport,
    LoadedCorpus,
    LoadedSentence,
    ReportCell,
    SentenceRef,
    compute_metrics,
    emit_report,
    load_corpus,
    load_manifest,
    run_duration_experiment,
    run_phonetic_experiment,
)
from sosid.frontend import save_wav
from sosid.gaussian import GaussianModel, factorize, stack_blocks
from sosid.phonetic import assemble_tests, default_taxonomy, expand_kernels, select_frames
from sosid.synthetic import SynthCorpusConfig, make_corpus, write_corpus


class TestComputeMetrics:
    def test_two_speaker_fixture(self):
        results = [("A", True), ("A", False), ("B", True)]
        global_acc, speaker_mean = compute_metrics(results)
        assert global_acc == pytest.approx(66.6667, abs=1e-3)
        assert speaker_mean == 75.0

    def test_all_correct(self):
        assert compute_metrics([("A", True), ("B", True)]) == (100.0, 100.0)

    def test_equal_counts_make_metrics_coincide(self):
        results = [("A", True), ("A", False), ("B", True), ("B", True)]
        global_acc, speaker_mean = compute_metrics(results)
        assert global_acc == speaker_mean == 75.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            compute_metrics([])


class TestEmitReport:
    def _single_cell_report(self):
        report = ExperimentReport(
            axes=("train_s", "test_s", "measure"),
            metadata={"protocol": "duration", "seed": 1, "config": "cafe"},
        )
        report.cells[(15.0, 1.0, "mu_g")] = ReportCell(87.5, 87.3, 1340)
        return report

    def test_markdown_formatting(self):
        text = emit_report(self._single_cell_report(), "markdown")
        assert "87.5" in text
        assert "(1340)" in text

    def test_csv_full_precision(self):
        report = self._single_cell_report()
        report.cells[(15.0, 1.0, "mu_g")] = ReportCell(200.0 / 3.0, 87.3, 10)
        text = emit_report(report, "csv")
        row = text.strip().split("\n")[-1].split(",")
        assert float(row[3]) == 200.0 / 3.0

    def test_empty_report_is_header_only(self):
        report = ExperimentReport(axes=("selector", "measure"), metadata={"seed": 0})
        lines = emit_report(report, "csv").strip().split("\n")
        assert lines[-1].startswith("selector,measure,")
        assert len(lines) == 2  # metadata comment + header

    def test_emission_is_repeatable(self):
        report = self._single_cell_report()
        assert emit_report(report, "csv") == emit_report(report, "csv")
        assert emit_report(report, "markdown") == emit_report(report, "markdown")

    def test_low_count_flagged(self):
        report = ExperimentReport(axes=("selector", "measure"))
        report.cells[("All", "mu_g")] = ReportCell(90.0, 90.0, 12, low_count=True)
        assert ",1\n" in emit_report(report, "csv")
        assert "(12) *" in emit_report(report, "markdown")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._single_cell_report(), "html")


class TestManifest:
    def test_sentence_ref_needs_exactly_one_source(self):
        with pytest.raises(ConfigurationError):
            SentenceRef()
        with pytest.raises(ConfigurationError):
            SentenceRef(features="a.csv", audio="a.wav")

    def test_duplicate_speakers_rejected(self):
        ref = SentenceRef(features="a.csv")
        with pytest.raises(ConfigurationError):
            CorpusManifest(speakers=(("a", (ref,)), ("a", (ref,))), seed=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigurationError):
            CorpusManifest(speakers=(), seed=-1)

    def test_round_trip_through_disk(self, tmp_path):
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=300, sentence_len_frames=150, seed=3
        )
        manifest_path = write_corpus(cfg, tmp_path / "corpus")
        manifest = load_manifest(manifest_path)
        assert manifest.seed == 3
        assert len(manifest.speakers) == 2
        corpus = load_corpus(manifest_path)
        built = make_corpus(cfg)
        for (sid_a, sents_a), (sid_b, sents_b) in zip(corpus.speakers, built.speakers):
            assert sid_a == sid_b
            for sa, sb in zip(sents_a, sents_b):
                np.testing.assert_array_equal(sa.frames, sb.frames)
                assert sa.alignment == sb.alignment


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs the ordered map sees; count the fork contexts it asks for."""
    forks = []
    get_context = multiprocessing.get_context

    def counting_get_context(method=None):
        forks.append(method)
        return get_context(method)

    monkeypatch.setattr(multiprocessing, "get_context", counting_get_context)

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
        return forks

    return use


def _feature_corpus(tmp_path):
    cfg = SynthCorpusConfig(
        n_speakers=3, dim=4, frames_per_speaker=400, sentence_len_frames=100, seed=5
    )
    return write_corpus(cfg, tmp_path / "corpus")


def _wav_corpus(tmp_path):
    rng = np.random.default_rng(11)
    speakers = []
    for s in range(2):
        sentences = []
        for j in range(3):
            name = f"spk{s}-{j}.wav"
            save_wav(tmp_path / name, rng.normal(0, 2000 * (s + 1), 4000), 16000)
            sentences.append({"audio": name})
        speakers.append({"id": f"spk{s}", "sentences": sentences})
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps({"seed": 2, "speakers": speakers}))
    return manifest


def _assert_identical(got, want):
    assert got.seed == want.seed
    assert [sid for sid, _ in got.speakers] == [sid for sid, _ in want.speakers]
    for (_, got_sentences), (_, want_sentences) in zip(got.speakers, want.speakers):
        assert len(got_sentences) == len(want_sentences)
        for a, b in zip(got_sentences, want_sentences):
            assert a.frames.dtype == b.frames.dtype and a.frames.shape == b.frames.shape
            assert a.frames.tobytes() == b.frames.tobytes()
            assert a.alignment == b.alignment


def _corpus_digest(manifest_path) -> str:
    corpus = load_corpus(manifest_path)
    frames = [s.frames.tobytes() for _, sentences in corpus.speakers for s in sentences]
    return hashlib.sha256(b"".join(frames)).hexdigest()


def _break_feature_corpus(manifest_path, case):
    """Damage a feature corpus as ``case`` says; return the file the first error names."""
    root = manifest_path.parent
    if case == "narrow-then-malformed":
        # sentences 1 and 3 are read by the same process, sentence 2 by the other
        np.savetxt(root / "spk000" / "s001.csv", np.ones((5, 3)), delimiter=",")
        (root / "spk000" / "s002.csv").write_text("1,2,x,4\n")
        (root / "spk000" / "s003.csv").write_text("1,2,3,4\n1,2\n")
        return root / "spk000" / "s001.csv"
    if case == "narrow-without-alignment":
        np.savetxt(root / "spk001" / "s001.csv", np.ones((5, 3)), delimiter=",")
        (root / "spk001" / "s001.ali").unlink()
        return root / "spk001" / "s001.csv"
    if case == "malformed-last-speaker":
        (root / "spk002" / "s003.csv").write_text("1,2,3,4\n1,2\n")
        return root / "spk002" / "s003.csv"
    if case == "missing-features":
        (root / "spk001" / "s002.csv").unlink()
        (root / "spk002" / "s000.csv").write_text("")
        return root / "spk001" / "s002.csv"
    if case == "missing-alignment":
        (root / "spk001" / "s000.ali").unlink()
        return root / "spk001" / "s000.ali"
    raise AssertionError(case)


_BROKEN_CORPORA = [
    "narrow-then-malformed",
    "narrow-without-alignment",
    "malformed-last-speaker",
    "missing-features",
    "missing-alignment",
]


class TestLoadCorpusWorkers:
    """load_corpus reads on worker processes and still equals a serial read."""

    @pytest.mark.parametrize("make", [_feature_corpus, _wav_corpus], ids=["csv", "wav"])
    def test_workers_equal_one_cpu_bit_for_bit(self, tmp_path, cpus, make):
        manifest = make(tmp_path)
        forks = cpus(1)
        serial = load_corpus(manifest)
        assert forks == []
        cpus(2)
        pooled = load_corpus(manifest)
        assert forks == ["fork"]
        _assert_identical(pooled, serial)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("case", _BROKEN_CORPORA)
    def test_first_error_equals_the_serial_one(self, tmp_path, cpus, case):
        manifest = _feature_corpus(tmp_path)
        named = _break_feature_corpus(manifest, case)
        raised = []
        for n in (1, 2):
            cpus(n)
            with pytest.raises(Exception) as info:
                load_corpus(manifest)
            raised.append(info.value)
            assert multiprocessing.active_children() == []
        serial, pooled = raised
        assert type(pooled) is type(serial)
        assert str(pooled) == str(serial)
        assert str(named) in str(serial)
        if case.startswith("narrow"):
            assert "3 feature columns, but the corpus's earlier sentences have 4" in str(serial)

    @pytest.mark.parametrize("case", _BROKEN_CORPORA)
    def test_cli_exit_2_with_the_serial_message(self, tmp_path, cpus, capsys, case):
        manifest = _feature_corpus(tmp_path)
        _break_feature_corpus(manifest, case)
        messages = []
        for n in (1, 2):
            cpus(n)
            for command in (["train", "--out", str(tmp_path / "store")], ["eval-phonetic"]):
                assert main([*command, "--manifest", str(manifest)]) == 2
                messages.append(capsys.readouterr().err)
        assert messages[:2] == messages[2:]
        assert not (tmp_path / "store").exists()
        assert multiprocessing.active_children() == []

    def test_reads_in_process_in_a_daemonic_process(self, tmp_path, cpus):
        manifest = _feature_corpus(tmp_path)
        forks = cpus(2)
        want = _corpus_digest(manifest)
        assert forks == ["fork"]
        # a daemonic pool worker may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_corpus_digest, (str(manifest),)) == want
        assert multiprocessing.active_children() == []


def _easy_corpus(n_speakers=2, frames=2600, seed=0, separation=8.0):
    cfg = SynthCorpusConfig(
        n_speakers=n_speakers,
        dim=8,
        separation=separation,
        frames_per_speaker=frames,
        sentence_len_frames=260,
        seed=seed,
    )
    return make_corpus(cfg)


class TestDurationExperiment:
    def test_well_separated_speakers_reach_100_percent(self):
        corpus = _easy_corpus()
        cfg = DurationProtocolConfig(train_durations=(15.0,), test_durations=(10.0,))
        report = run_duration_experiment(corpus, cfg)
        for kind in ("mu_g", "mu_gc", "mu_sc"):
            cell = report.cells[(15.0, 10.0, kind)]
            assert cell.global_accuracy == 100.0
            assert cell.per_speaker_mean_accuracy == 100.0
            assert cell.n_tests == 2

    def test_reports_are_byte_identical_across_runs(self):
        cfg = DurationProtocolConfig(train_durations=(6.0, 2.0), test_durations=(3.0, 1.0))
        a = emit_report(run_duration_experiment(_easy_corpus(seed=4), cfg), "csv")
        b = emit_report(run_duration_experiment(_easy_corpus(seed=4), cfg), "csv")
        assert a == b

    def test_test_counts_follow_remainder_formula(self):
        corpus = _easy_corpus(n_speakers=3, frames=2600)
        cfg = DurationProtocolConfig(
            train_durations=(15.0, 2.0), test_durations=(10.0, 1.0), max_tests_per_speaker=7
        )
        report = run_duration_experiment(corpus, cfg)
        # per speaker: min(cap, (2600 - train_f) // test_f), summed over 3 speakers
        assert report.cells[(15.0, 10.0, "mu_g")].n_tests == 3 * min(7, 1100 // 1000)
        assert report.cells[(15.0, 1.0, "mu_g")].n_tests == 3 * min(7, 1100 // 100)
        assert report.cells[(2.0, 10.0, "mu_g")].n_tests == 3 * min(7, 2400 // 1000)
        assert report.cells[(2.0, 1.0, "mu_g")].n_tests == 3 * min(7, 2400 // 100)

    def test_speakers_without_tests_and_empty_cells(self):
        speakers = _easy_corpus(n_speakers=2, frames=2600).speakers
        # 1820 frames: three 1 s tests after 15 s of training, no 10 s test
        short = [(sid, sentences[:-3]) for sid, sentences in speakers]
        cfg = DurationProtocolConfig(train_durations=(15.0,), test_durations=(10.0, 1.0))
        # only the first speaker has a 10 s test
        mixed = LoadedCorpus(speakers=(speakers[0], short[1]), seed=0)
        report = run_duration_experiment(mixed, cfg)
        for kind in ("mu_g", "mu_gc", "mu_sc"):
            assert report.cells[(15.0, 10.0, kind)] == ReportCell(100.0, 100.0, 1)
            assert report.cells[(15.0, 1.0, kind)].n_tests == 11 + 3
        # no speaker has a 10 s test
        report = run_duration_experiment(LoadedCorpus(speakers=tuple(short), seed=0), cfg)
        for kind in ("mu_g", "mu_gc", "mu_sc"):
            assert report.cells[(15.0, 10.0, kind)] == ReportCell(0.0, 0.0, 0)
            assert report.cells[(15.0, 1.0, kind)].n_tests == 3 + 3

    def test_cells_count_loaded_tests(self):
        # 5-frame tests at dimension 8 are rank deficient and need loading
        cfg = DurationProtocolConfig(train_durations=(15.0,), test_durations=(10.0, 0.05))
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            report = run_duration_experiment(_easy_corpus(), cfg)
        for kind in ("mu_g", "mu_gc", "mu_sc"):
            assert report.cells[(15.0, 10.0, kind)].n_loaded == 0
            cell = report.cells[(15.0, 0.05, kind)]
            assert cell.n_tests == 2 * 20
            assert cell.n_loaded == cell.n_tests

    @pytest.mark.parametrize(
        "durations", [{"test_durations": (1.0, 0.004)}, {"train_durations": (0.01,)}]
    )
    def test_durations_under_two_frames_rejected(self, durations):
        with pytest.raises(ConfigurationError, match=r"duration 0\.0(04|1) s is [01] frame"):
            DurationProtocolConfig(**durations)
        DurationProtocolConfig(test_durations=(0.02,))  # 2 frames at 100 fps

    @pytest.mark.parametrize(
        "durations, named",
        [
            ({"train_durations": (-1.0,)}, "duration -1 s is -100 frame"),
            ({"test_durations": (0.0,)}, "duration 0 s is 0 frame"),
            ({"test_durations": (math.inf,)}, "duration inf s is not a finite number"),
            ({"train_durations": (math.nan,)}, "duration nan s is not a finite number"),
        ],
        ids=["negative", "zero", "inf", "nan"],
    )
    def test_negative_and_non_finite_durations_rejected(self, durations, named):
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            DurationProtocolConfig(**durations)

    def test_cell_order_matches_grid_conventions(self):
        cfg = DurationProtocolConfig(train_durations=(2.0, 6.0), test_durations=(1.0, 3.0))
        report = run_duration_experiment(_easy_corpus(), cfg)
        keys = list(report.cells)
        assert keys[0] == (6.0, 3.0, "mu_g")
        assert keys[1] == (6.0, 3.0, "mu_gc")
        assert keys[2] == (6.0, 3.0, "mu_sc")
        assert keys[3] == (6.0, 1.0, "mu_g")
        assert keys[6] == (2.0, 3.0, "mu_g")

    def test_config_digest_is_pinned(self):
        # the digest is written into every duration report
        assert DurationProtocolConfig().digest() == "22436463faca"

    @pytest.mark.parametrize(
        "run", [run_duration_experiment, run_phonetic_experiment], ids=["duration", "phonetic"]
    )
    def test_insufficient_material_names_speaker(self, run):
        corpus = _easy_corpus(frames=900)
        named = "spk000: 900 frames .* for 15 s training plus one"
        with pytest.raises(InsufficientDataError, match=named):
            run(corpus)

    @pytest.mark.parametrize(
        "run", [run_duration_experiment, run_phonetic_experiment], ids=["duration", "phonetic"]
    )
    def test_single_speaker_rejected(self, run):
        cfg = SynthCorpusConfig(n_speakers=1, dim=4, frames_per_speaker=2600, seed=0)
        with pytest.raises(InsufficientDataError, match="at least 2 speakers"):
            run(make_corpus(cfg))

    def test_seed_changes_report(self):
        cfg = DurationProtocolConfig(train_durations=(6.0,), test_durations=(1.0,))
        a = run_duration_experiment(_easy_corpus(seed=1), cfg)
        b = run_duration_experiment(_easy_corpus(seed=2), cfg)
        assert a.metadata["seed"] != b.metadata["seed"]

    def test_requested_measures_only(self):
        cfg = DurationProtocolConfig(
            train_durations=(6.0,), test_durations=(1.0,), measures=("mu_gc",)
        )
        report = run_duration_experiment(_easy_corpus(), cfg)
        assert list(report.cells) == [(6.0, 1.0, "mu_gc")]

    @pytest.mark.parametrize("cap", [2.5, 2.0, True, "3", None], ids=repr)
    def test_cap_that_is_not_an_integer_rejected(self, cap):
        # 2.5 would cut 3 tests per speaker, above the cap; True would read as 1
        named = f"max_tests_per_speaker must be an integer, got {cap!r}"
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            DurationProtocolConfig(max_tests_per_speaker=cap)

    @pytest.mark.parametrize("duration", ["15", True, None, [1.0]], ids=repr)
    def test_duration_that_is_not_a_number_rejected(self, duration):
        with pytest.raises(ConfigurationError, match=re.escape(f"duration {duration!r} is not")):
            DurationProtocolConfig(train_durations=(duration,))


@st.composite
def _grids(draw):
    """A random small corpus and duration grid at 100 frames per second.

    Durations are hundredths of a second, so most are not whole seconds and
    the cells' block edges interleave. Test blocks are either long enough
    for a full-rank covariance or 2-3 frames at dimension 7-9, rank deficient
    by at least 5, so diagonal loading is needed whichever way the moments
    are summed.
    """
    dim = draw(st.integers(7, 9))
    short = st.integers(2, 3)
    long = st.integers(dim + 2, 60)
    train_fs = draw(st.lists(long, min_size=1, max_size=3, unique=True))
    test_fs = draw(st.lists(st.one_of(short, long), min_size=1, max_size=3, unique=True))
    cap = draw(st.integers(1, 6))
    needed = max(train_fs) + min(test_fs)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    offset = draw(st.sampled_from([0.0, 20.0]))
    speakers = []
    for i in range(draw(st.integers(2, 3))):
        total = needed + draw(st.integers(0, 150))
        cuts = np.sort(rng.choice(np.arange(1, total), size=3, replace=False))
        frames = rng.standard_normal((total, dim)) * (1 + i) + offset
        sentences = tuple(LoadedSentence(frames=part) for part in np.split(frames, cuts))
        speakers.append((f"spk{i}", sentences))
    cfg = DurationProtocolConfig(
        train_durations=tuple(f / 100 for f in train_fs),
        test_durations=tuple(f / 100 for f in test_fs),
        max_tests_per_speaker=cap,
    )
    return LoadedCorpus(speakers=tuple(speakers), seed=draw(st.integers(0, 99))), cfg


def _assert_close_to_blocks(got, want):
    """Means and covariances within 1e-10 of each model's covariance scale."""
    scale = np.abs(want.covs).max(axis=(1, 2))
    np.testing.assert_array_equal(got.counts, want.counts)
    assert np.all(np.abs(got.covs - want.covs).max(axis=(1, 2)) <= 1e-10 * scale)
    mean_scale = np.abs(want.means).max(axis=1) + np.sqrt(scale)
    assert np.all(np.abs(got.means - want.means).max(axis=1) <= 1e-10 * mean_scale)


class TestSegmentMomentsGrid:
    """The duration protocol's models, summed from segment moments, equal
    per-block estimates from the concatenated stream."""

    @settings(deadline=None, max_examples=40)
    @given(_grids())
    def test_models_match_per_block_estimates(self, case):
        corpus, cfg = case
        seen = []

        def spy(registry, tests, owners, *args):
            seen.append((registry, tests, list(owners)))
            return score_cells(registry, tests, owners, *args)

        score_cells = experiment._score_cells
        # on one CPU every cell is scored in this process, where the spy sees it
        one_cpu = mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short blocks
            with mock.patch.object(experiment, "_score_cells", spy), one_cpu:
                report = run_duration_experiment(corpus, cfg)

            streams = experiment._speaker_streams(corpus)
            cells = [
                (train_s, test_s)
                for train_s in sorted(set(cfg.train_durations), reverse=True)
                for test_s in sorted(set(cfg.test_durations), reverse=True)
            ]
            assert len(seen) == len(cells)
            for (train_s, test_s), (registry, tests, owners) in zip(cells, seen):
                train_f, test_f = round(train_s * 100), round(test_s * 100)
                for speaker_id, concat, _ in streams:
                    want = GaussianModel.from_frames(concat[:train_f])
                    got = registry.model(speaker_id)
                    assert got.count == want.count
                    error = np.abs(got.cov - want.cov).max()
                    assert error <= 1e-10 * np.abs(want.cov).max()
                blocks, want_owners = [], []
                for speaker_id, concat, _ in streams:
                    n = min(cfg.max_tests_per_speaker, (len(concat) - train_f) // test_f)
                    block = concat[train_f : train_f + n * test_f]
                    blocks.append(block.reshape(n, test_f, concat.shape[1]))
                    want_owners += [speaker_id] * n
                want = stack_blocks(blocks)
                _assert_close_to_blocks(tests, want)
                assert owners == want_owners
                for kind in experiment._ordered_measures(cfg.measures):
                    cell = report.cells[(train_s, test_s, kind)]
                    assert cell.n_tests == len(want)
                    assert cell.n_loaded == np.count_nonzero(want.loadings)


def _labeled_corpus(seed=0, class_spread=0.0, n_speakers=3, frames=3000):
    cfg = SynthCorpusConfig(
        n_speakers=n_speakers,
        dim=6,
        separation=6.0,
        class_spread=class_spread,
        frames_per_speaker=frames,
        sentence_len_frames=250,
        seed=seed,
    )
    return cfg, make_corpus(cfg)


class TestPhoneticExperiment:
    def test_runs_and_counts_tests(self):
        _, corpus = _labeled_corpus()
        report = run_phonetic_experiment(
            corpus, selectors=("All", "Vowels", "NasalConsonants"), min_tests=5
        )
        all_cell = report.cells[("All", "mu_g")]
        assert all_cell.n_tests > 0
        assert all_cell.global_accuracy == 100.0  # widely separated speakers
        assert ("NasalConsonants", "mu_sc") in report.cells

    def test_config_digest_is_pinned(self):
        # the digest is written into every phonetic report
        corpus = make_corpus(
            SynthCorpusConfig(
                n_speakers=2, dim=3, frames_per_speaker=1700, sentence_len_frames=250, seed=3
            )
        )
        assert run_phonetic_experiment(corpus).metadata["config"] == "b17597d79428"

    def test_empty_selector_reports_zero_tests(self):
        _, corpus = _labeled_corpus()
        report = run_phonetic_experiment(corpus, selectors=("LiquidsGlides",))
        cell = report.cells[("LiquidsGlides", "mu_g")]
        assert cell.n_tests == 0
        assert cell.low_count

    def test_low_count_flag_below_minimum(self):
        _, corpus = _labeled_corpus()
        report = run_phonetic_experiment(corpus, selectors=("All",), min_tests=10_000)
        assert report.cells[("All", "mu_g")].low_count

    def test_unknown_selector_rejected(self):
        _, corpus = _labeled_corpus()
        with pytest.raises(TaxonomyError):
            run_phonetic_experiment(corpus, selectors=("Klingon",))

    def test_missing_alignerrors(self):
        _, corpus = _labeled_corpus()
        stripped = LoadedCorpus(
            speakers=tuple(
                (sid, tuple(LoadedSentence(frames=s.frames) for s in sentences))
                for sid, sentences in corpus.speakers
            ),
            seed=corpus.seed,
        )
        with pytest.raises(AlignmentError):
            run_phonetic_experiment(stripped, selectors=("All",))

    def test_bookkeeping_matches_independent_selection(self):
        cfg, corpus = _labeled_corpus(seed=9, class_spread=1.0)
        selectors = ("All", "Vowels", "Consonants", "m")
        report = run_phonetic_experiment(corpus, selectors=selectors, min_tests=1)
        taxonomy = default_taxonomy()

        # independent recomputation of the expected number of tests
        from sosid.experiment import _speaker_streams

        train_f = 1500
        for selector in selectors:
            expected = 0
            for speaker_id, concat, placed in _speaker_streams(corpus):
                segments = []
                for offset, sentence in placed:
                    if offset + len(sentence.frames) <= train_f:
                        continue
                    for label, s, e in expand_kernels(
                        sentence.alignment, 5, 5, track_len=len(sentence.frames)
                    ):
                        lo = max(s + offset, train_f)
                        if lo <= e + offset:
                            segments.append((label, lo, e + offset))
                pooled = select_frames(concat, segments, selector, taxonomy)
                expected += len(assemble_tests(pooled, 100))
            for kind in ("mu_g", "mu_gc", "mu_sc"):
                assert report.cells[(selector, kind)].n_tests == expected

    def test_reports_are_byte_identical_across_runs(self):
        _, corpus_a = _labeled_corpus(seed=5)
        _, corpus_b = _labeled_corpus(seed=5)
        text_a = emit_report(run_phonetic_experiment(corpus_a, selectors=("All", "Vowels")), "csv")
        text_b = emit_report(run_phonetic_experiment(corpus_b, selectors=("All", "Vowels")), "csv")
        assert text_a == text_b

    def test_training_matches_duration_protocol_material(self):
        # both protocols train on the same leading 15 s of the same shuffle,
        # and build the same reference models from it, bit for bit
        _, corpus = _labeled_corpus(seed=11)
        registries = []

        def spy(registry, *args):
            registries.append(registry)
            return score_cells(registry, *args)

        score_cells = experiment._score_cells
        with mock.patch.object(experiment, "_score_cells", spy):
            run_phonetic_experiment(corpus, selectors=("All",), min_tests=1)
            phonetic = registries[-1]
            run_duration_experiment(corpus, DurationProtocolConfig(train_durations=(15.0,)))
            duration = registries[-1]
        for speaker_id, concat, _ in experiment._speaker_streams(corpus):
            want = GaussianModel.from_frames(concat[:1500])
            want_fact = factorize(want)
            for registry in (phonetic, duration):
                row = registry.ids.index(speaker_id)
                stack = registry.stack
                assert stack.counts[row] == want.count == 1500
                np.testing.assert_array_equal(stack.means[row], want.mean)
                np.testing.assert_array_equal(stack.covs[row], want.cov)
                np.testing.assert_array_equal(stack.inverses[row], want_fact.inverse)
                assert stack.log_dets[row] == want_fact.log_det
                assert stack.loadings[row] == want_fact.loading

    @pytest.mark.parametrize(
        "kwargs, named",
        [
            ({"train_seconds": -1.0}, "duration -1 s is -100 frame"),
            ({"train_seconds": 0.01}, "duration 0.01 s is 1 frame"),
            ({"test_len": 0}, "got 0"),
            ({"test_len": -5}, "got -5"),
            ({"min_tests": -3}, "got -3"),
            ({"pre_frames": -1}, "pre -1"),
            ({"post_frames": -2}, "post -2"),
            ({"sc_convention": "sideways"}, "sideways"),
            ({"kinds": ("mu_g", "mu_x")}, "unknown measures: ['mu_x']"),
        ],
        ids=[
            "negative-train", "one-frame-train", "zero-test", "negative-test",
            "negative-min-tests", "negative-pre", "negative-post", "unknown-sc",
            "unknown-kind",
        ],
    )
    def test_bad_lengths_and_conventions_rejected(self, kwargs, named):
        _, corpus = _labeled_corpus()
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            run_phonetic_experiment(corpus, selectors=("All",), **kwargs)


def _duration_grid():
    """Six duration cells. Tests of 5 and 3 frames at dimension 8 warn, with
    the frame count in the text, in every cell but the first and the fourth."""
    cfg = DurationProtocolConfig(train_durations=(15.0, 6.0), test_durations=(10.0, 0.05, 0.03))
    return run_duration_experiment(_easy_corpus(), cfg)


def _phonetic_grid():
    """Five phonetic cells. Tests of 5 frames at dimension 6 warn in every cell
    but the first, whose selector matches no frame of the synthetic corpus."""
    _, corpus = _labeled_corpus()
    selectors = ("LiquidsGlides", "All", "Vowels", "Consonants", "m")
    return run_phonetic_experiment(corpus, selectors=selectors, test_len=5, min_tests=1)


def _constant_span(corpus, index, start, stop):
    """The corpus with frames start to stop of its index-th speaker's stream set to 1.

    The stream's sentence order depends on the seed and the sentence count
    only, so the span lands where it is asked to.
    """
    _, placed = experiment._speaker_stream(corpus, index)
    replaced = {}
    for offset, sentence in placed:
        frames = sentence.frames.copy()
        frames[max(start - offset, 0) : max(stop - offset, 0)] = 1.0
        replaced[id(sentence)] = LoadedSentence(frames=frames, alignment=sentence.alignment)
    speakers = list(corpus.speakers)
    speaker_id, sentences = speakers[index]
    speakers[index] = (speaker_id, tuple(replaced[id(s)] for s in sentences))
    return LoadedCorpus(speakers=tuple(speakers), seed=corpus.seed)


def _degenerate_duration_grid():
    # only the fifth cell (2 s training, 10 s tests) has a constant test block;
    # on 2, 3 and 4 CPUs that cell is a worker's
    corpus = _constant_span(_easy_corpus(), 1, 200, 1200)
    cfg = DurationProtocolConfig(test_durations=(10.0,))
    return run_duration_experiment(corpus, cfg)


def _degenerate_phonetic_grid():
    # the second speaker's test material is constant; the first cell has no tests
    _, corpus = _labeled_corpus()
    corpus = _constant_span(corpus, 1, 1500, 3000)
    return run_phonetic_experiment(corpus, selectors=("LiquidsGlides", "All", "Vowels"))


@contextlib.contextmanager
def _recorded(action):
    """The warnings raised in the block under the filter ``action``.

    Python 3.12 warns when a process with threads forks, and BLAS may have
    started threads; that warning comes from the interpreter, not from a
    cell, so it is left out.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(action)
        warnings.filterwarnings("ignore", r"This process .* is multi-threaded", DeprecationWarning)
        yield caught


_GRIDS = [_duration_grid, _phonetic_grid]
_DEGENERATE_GRIDS = [_degenerate_duration_grid, _degenerate_phonetic_grid]


class TestProtocolWorkers:
    """Both protocols score their cells on worker processes and still equal a serial run."""

    @pytest.mark.parametrize("action", ["always", "default"])
    @pytest.mark.parametrize("grid", _GRIDS, ids=["duration", "phonetic"])
    def test_reports_and_warnings_equal_one_cpu(self, cpus, grid, action):
        runs = []
        for n in (1, 2, 3, 4):
            forks = cpus(n)
            with _recorded(action) as caught:
                report = grid()
            runs.append((report, [(w.category, str(w.message)) for w in caught]))
            assert multiprocessing.active_children() == []
        assert forks == ["fork"] * 3
        (serial, serial_warnings), *pooled = runs
        assert serial_warnings and all(c is RuntimeWarning for c, _ in serial_warnings)
        for report, caught in pooled:
            for fmt in ("csv", "markdown"):
                assert emit_report(report, fmt) == emit_report(serial, fmt)
            assert list(report.cells.items()) == list(serial.cells.items())
            assert caught == serial_warnings
        assert any(cell.n_loaded for cell in serial.cells.values())

    @pytest.mark.parametrize("grid", _GRIDS, ids=["duration", "phonetic"])
    def test_error_filter_raises_the_serial_first_warning(self, cpus, grid):
        raised = []
        for n in (1, 2, 3, 4):
            cpus(n)
            with _recorded("error"), pytest.raises(RuntimeWarning) as info:
                grid()
            raised.append(info.value)
            assert multiprocessing.active_children() == []
        serial, *pooled = raised
        assert "rank deficient" in str(serial)
        for error in pooled:
            assert type(error) is type(serial) and str(error) == str(serial)

    @pytest.mark.parametrize("grid", _DEGENERATE_GRIDS, ids=["duration", "phonetic"])
    def test_degenerate_cell_raises_the_serial_error(self, cpus, grid):
        raised = []
        for n in (1, 2, 3, 4):
            cpus(n)
            with pytest.raises(DegenerateModelError) as info:
                grid()
            raised.append(info.value)
            assert multiprocessing.active_children() == []
        serial, *pooled = raised
        assert "not positive definite" in str(serial)
        for error in pooled:
            assert type(error) is type(serial) and str(error) == str(serial)

    def test_scores_in_process_in_a_daemonic_process(self, cpus):
        forks = cpus(2)
        want = _quiet_reports()
        assert forks == ["fork"] * 2
        # a daemonic pool worker may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_quiet_reports) == want
        assert multiprocessing.active_children() == []


def _quiet_reports() -> list:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # short tests
        return [emit_report(grid(), "csv") for grid in _GRIDS]
