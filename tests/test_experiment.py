import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import re
import time
import tracemalloc
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
    PhoneticProtocolConfig,
    ReportCell,
    SentenceRef,
    compute_metrics,
    emit_report,
    load_corpus,
    load_manifest,
    run_duration_experiment,
    run_phonetic_experiment,
)
from sosid.frontend import FrontendConfig, save_features_csv, save_wav
from sosid.gaussian import (
    GaussianModel,
    ModelStack,
    _block_moments,
    _concat_moments,
    factorize,
    save_model_store,
    stack_blocks,
    stack_moments,
)
from sosid.identify import SpeakerRegistry
from sosid.measures import MEASURE_KINDS, measure_matrices
from sosid.phonetic import (
    assemble_tests,
    default_taxonomy,
    expand_kernels,
    format_alignment,
    load_taxonomy,
    select_frames,
)
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

    def test_cell_without_tests_has_no_accuracy_in_markdown(self):
        report = ExperimentReport(axes=("selector", "measure"))
        report.cells[("LiquidsGlides", "mu_g")] = ReportCell(0.0, 0.0, 0, low_count=True)
        report.cells[("All", "mu_g")] = ReportCell(0.0, 0.0, 41)
        markdown = emit_report(report, "markdown")
        assert "| LiquidsGlides | mu_g | n/a | n/a | (0) * |\n" in markdown
        assert "| All | mu_g | 0.0 | 0.0 | (41) |\n" in markdown
        assert "LiquidsGlides,mu_g,0,0,0,1\n" in emit_report(report, "csv")

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


def _feature_corpus(tmp_path, n_speakers=3):
    cfg = SynthCorpusConfig(
        n_speakers=n_speakers, dim=4, frames_per_speaker=400, sentence_len_frames=100, seed=5
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
    if case == "non-utf8-alignment":
        (root / "spk001" / "s002.ali").write_bytes(b"spk001_s002 a 0 \xe9\n")
        return root / "spk001" / "s002.ali"
    raise AssertionError(case)


_BROKEN_CORPORA = [
    "narrow-then-malformed",
    "narrow-without-alignment",
    "malformed-last-speaker",
    "missing-features",
    "missing-alignment",
    "non-utf8-alignment",
]


class TestLoadCorpusWorkers:
    """load_corpus reads on worker processes and still equals a serial read."""

    @pytest.mark.parametrize("make", [_feature_corpus, _wav_corpus], ids=["csv", "wav"])
    def test_workers_equal_one_cpu_bit_for_bit(self, tmp_path, cpus, make):
        forks = cpus(1)
        manifest = make(tmp_path)
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
        cpus(1)
        manifest = _feature_corpus(tmp_path)
        forks = cpus(2)
        want = _corpus_digest(manifest)
        assert forks == ["fork"]
        # a daemonic pool worker may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_corpus_digest, (str(manifest),)) == want
        assert multiprocessing.active_children() == []


def _tree(root) -> dict:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


class TestWriteCorpusWorkers:
    """write_corpus writes on worker processes and still equals a serial write."""

    def test_workers_equal_one_cpu_byte_for_byte(self, tmp_path, cpus):
        trees = []
        for n in (1, 2):
            forks = cpus(n)
            forks.clear()
            manifest = _feature_corpus(tmp_path / str(n))
            assert forks == ([] if n == 1 else ["fork"])
            assert multiprocessing.active_children() == []
            trees.append(_tree(manifest.parent))
        assert len(trees[0]) == 25 and trees[0] == trees[1]

    def test_first_error_equals_the_serial_one(self, tmp_path, cpus, capsys):
        # spk001 falls to this process and spk002 to the worker when there are 2 CPUs
        blocked = ["spk001/s002.csv", "spk002/s001.csv"]
        raised, messages = [], []
        for n in (1, 2):
            cpus(n)
            for root in (tmp_path / f"{n}-api", tmp_path / f"{n}-cli"):
                for name in blocked:
                    (root / "corpus" / name).mkdir(parents=True)
            with pytest.raises(IsADirectoryError) as info:
                _feature_corpus(tmp_path / f"{n}-api")
            raised.append(str(info.value).replace(f"{n}-api", "*"))
            argv = ["synth-corpus", "--out", str(tmp_path / f"{n}-cli" / "corpus"), "--seed", "5"]
            argv += ["--speakers", "3", "--dim", "4", "--frames-per-speaker", "400"]
            assert main([*argv, "--sentence-frames", "100"]) == 2
            messages.append(capsys.readouterr().err.replace(f"{n}-cli", "*"))
            assert multiprocessing.active_children() == []
            assert not (tmp_path / f"{n}-api" / "corpus" / "manifest.json").exists()
        assert raised[0] == raised[1]
        assert str(tmp_path / "*" / "corpus" / blocked[0]) in raised[0]
        assert messages[0] == messages[1] == f"error: {raised[0]}\n"

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_files_are_make_corpus_sentences(self, tmp_path, cpus, n):
        cfg = SynthCorpusConfig(
            n_speakers=5, dim=4, class_spread=0.5, frames_per_speaker=250, sentence_len_frames=100
        )
        want = tmp_path / "want"
        for speaker_id, sentences in make_corpus(cfg).speakers:
            (want / speaker_id).mkdir(parents=True)
            for i, sentence in enumerate(sentences):
                save_features_csv(sentence.frames, want / speaker_id / f"s{i:03d}.csv")
                ali = format_alignment(sentence.alignment)
                (want / speaker_id / f"s{i:03d}.ali").write_text(ali, encoding="utf-8")
        forks = cpus(n)
        forks.clear()
        manifest = write_corpus(cfg, tmp_path / "got")
        assert forks == ([] if n == 1 else ["fork"])
        got = _tree(manifest.parent)
        assert got.pop("manifest.json") and got == _tree(want) and len(got) == 5 * 3 * 2

    def test_holds_one_sentence_of_the_corpus(self, tmp_path, cpus):
        # each sentence is written as it is generated, so the peak does not grow
        # with the speakers
        cpus(1)
        fields = dict(dim=24, frames_per_speaker=3000, sentence_len_frames=300)
        peaks = {}
        for n_speakers in (3, 12):
            cfg = SynthCorpusConfig(n_speakers=n_speakers, **fields)
            peaks[n_speakers], _ = _traced_peak(write_corpus, cfg, tmp_path / str(n_speakers))
        speaker_bytes = 3000 * 24 * 8
        # measured: 1.03 and 0.96 (a sentence's frames and its text, and 12 speakers' manifest)
        assert peaks[12] < 1.1 * peaks[3]
        assert peaks[12] < 1.5 * speaker_bytes


def _traced_peak(fn, *args):
    """(peak bytes traced above the entry level while ``fn(*args)`` ran, its result)."""
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - start, result


def _train(manifest, out, *flags) -> int:
    return main(["train", "--manifest", str(manifest), "--out", str(out), *flags])


class TestTrainWorkers:
    """sosid train reduces each speaker where it is read and still writes a serial run's store."""

    @pytest.mark.parametrize("n", [1, 2, 4])
    @pytest.mark.parametrize(
        "make, seconds",
        [
            (functools.partial(_feature_corpus, n_speakers=5), None),
            (functools.partial(_feature_corpus, n_speakers=5), "2.5"),
            (_wav_corpus, None),
            (_wav_corpus, "0.5"),
        ],
        ids=["csv", "csv-2.5s", "wav", "wav-0.5s"],
    )
    def test_store_is_stack_blocks_of_the_loaded_corpus(self, tmp_path, cpus, n, make, seconds):
        cpus(1)
        manifest = make(tmp_path)
        corpus = load_corpus(manifest)
        limit = None if seconds is None else round(float(seconds) * 100)
        blocks = (
            np.concatenate([s.frames for s in sentences])[None, :limit]
            for _, sentences in corpus.speakers
        )
        ids = [speaker_id for speaker_id, _ in corpus.speakers]
        save_model_store(tmp_path / "want", ids, stack_blocks(blocks), FrontendConfig().digest())
        forks = cpus(n)
        forks.clear()
        flags = [] if seconds is None else ["--train-seconds", seconds]
        assert _train(manifest, tmp_path / "got", *flags) == 0
        assert forks == ([] if n == 1 else ["fork"])
        assert multiprocessing.active_children() == []
        want = _tree(tmp_path / "want")
        assert _tree(tmp_path / "got") == want and len(want) == len(ids)

    def test_first_error_is_a_serial_pass_over_the_speakers(self, tmp_path, cpus, capsys):
        # spk000 is short of 3 s and spk001 has an unreadable sentence: a corpus-wide
        # read would raise spk001's error first
        manifest = _feature_corpus(tmp_path, n_speakers=5)
        doc = json.loads(manifest.read_text())
        doc["speakers"][0]["sentences"] = doc["speakers"][0]["sentences"][:2]
        manifest.write_text(json.dumps(doc))
        (manifest.parent / "spk001" / "s001.csv").write_text("1,2,x,4\n")
        messages = []
        for n in (1, 2, 3, 4):
            cpus(n)
            assert _train(manifest, tmp_path / "store", "--train-seconds", "3") == 2
            messages.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        assert messages == ["error: speaker spk000: 200 frames < 300 needed for 3 s training\n"] * 4
        assert not (tmp_path / "store").exists()

    def test_rank_deficiency_warnings_come_in_speaker_order(self, tmp_path, cpus):
        manifest = _feature_corpus(tmp_path, n_speakers=5)
        for speaker_id, rows in (("spk001", 3), ("spk003", 4)):
            path = manifest.parent / speaker_id / "s000.csv"
            frames = np.loadtxt(path, delimiter=",")[:rows]
            for sentence in (manifest.parent / speaker_id).glob("s*.csv"):
                sentence.unlink()
            save_features_csv(frames, path)
        doc = json.loads(manifest.read_text())
        for index in (1, 3):
            doc["speakers"][index]["sentences"] = doc["speakers"][index]["sentences"][:1]
        manifest.write_text(json.dumps(doc))
        caught = []
        for n in (1, 2, 3, 4):
            cpus(n)
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                assert _train(manifest, tmp_path / str(n)) == 0
            caught.append([str(w.message) for w in record if w.category is RuntimeWarning])
        rank = "covariance from {} vectors at dimension 4 is rank deficient in exact arithmetic"
        assert caught == [[rank.format(3), rank.format(4)]] * 4
        assert _tree(tmp_path / "1") == _tree(tmp_path / "4")

    def test_model_that_does_not_factorize_names_its_speaker(self, tmp_path, cpus, capsys):
        # every frame of spk001 is the same, so its covariance is exactly 0
        manifest = _feature_corpus(tmp_path)
        for path in (manifest.parent / "spk001").glob("s*.csv"):
            save_features_csv(np.ones((100, 4)), path)
        messages = []
        for n in (1, 2):
            cpus(n)
            assert _train(manifest, tmp_path / "store") == 2
            messages.append(capsys.readouterr().err)
            assert multiprocessing.active_children() == []
        reason = "covariance of dimension 4 is not positive definite"
        named = "error: speaker spk001: covariance of a frame block is not positive definite: "
        assert messages == [named + reason + "\n"] * 2
        assert not (tmp_path / "store").exists()

    def test_holds_one_speaker_of_the_corpus(self, tmp_path, cpus):
        # each speaker is reduced to moments as it is read, so the peak does not
        # grow with the speakers
        cpus(1)
        fields = dict(dim=24, frames_per_speaker=3000, sentence_len_frames=300)
        peaks = {}
        for n_speakers in (3, 12):
            cfg = SynthCorpusConfig(n_speakers=n_speakers, **fields)
            manifest = write_corpus(cfg, tmp_path / str(n_speakers))
            peaks[n_speakers], code = _traced_peak(_train, manifest, tmp_path / f"s{n_speakers}")
            assert code == 0
        speaker_bytes = 3000 * 24 * 8
        # measured: 1.01 and 2.32 (a speaker's sentences and their concatenation)
        assert peaks[12] < 1.1 * peaks[3]
        assert peaks[12] < 3 * speaker_bytes


def _eval_phonetic(manifest, out, *flags) -> int:
    return main(["eval-phonetic", "--manifest", str(manifest), "--out", str(out), *flags])


def _phonetic_corpus(root, sentence_frames, frames=2400, n_speakers=3):
    cfg = SynthCorpusConfig(
        n_speakers=n_speakers,
        dim=6,
        separation=1.0,
        class_spread=1.0,
        frames_per_speaker=frames,
        sentence_len_frames=sentence_frames,
        seed=2,
    )
    return write_corpus(cfg, root / "corpus")


def _keep_sentences(manifest, kept: dict) -> None:
    """Keep only the first ``kept[i]`` sentences of the manifest's i-th speaker."""
    doc = json.loads(manifest.read_text())
    for index, n in kept.items():
        doc["speakers"][index]["sentences"] = doc["speakers"][index]["sentences"][:n]
    manifest.write_text(json.dumps(doc))


class TestPhoneticWorkers:
    """sosid eval-phonetic reads each speaker where it is scored and still
    writes the report of the loaded corpus."""

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize(
        "sentence_frames, frames, flags",
        [
            # the 15 s training boundary falls inside the fourth 400-frame sentence
            (400, 2400, ["--min-tests", "0"]),
            # ... and exactly between the sixth and the seventh 250-frame sentence
            (250, 2500, ["--seed", "9", "--format", "markdown"]),
            (300, 2400, ["--taxonomy", "{taxonomy}", "--selectors", "Mixed,Vowels,m"]),
        ],
        ids=["boundary-inside-a-sentence", "boundary-between-sentences-seed", "taxonomy"],
    )
    def test_report_is_that_of_the_loaded_corpus(
        self, tmp_path, cpus, n, sentence_frames, frames, flags
    ):
        manifest = _phonetic_corpus(tmp_path, sentence_frames, frames)
        taxonomy = tmp_path / "taxonomy.json"
        classes = {name: sorted(labels) for name, labels in default_taxonomy().classes.items()}
        taxonomy.write_text(json.dumps({**classes, "Mixed": classes["All"][::2]}))
        flags = [flag.format(taxonomy=taxonomy) for flag in flags]
        given = dict(zip(flags[::2], flags[1::2]))
        fields = {}
        if "--taxonomy" in given:
            fields["taxonomy"] = load_taxonomy(taxonomy)
            fields["selectors"] = tuple(given["--selectors"].split(","))
        if "--min-tests" in given:
            fields["min_tests"] = int(given["--min-tests"])
        loaded = load_manifest(manifest)
        if "--seed" in given:
            loaded = dataclasses.replace(loaded, seed=int(given["--seed"]))
        corpus = load_corpus(loaded, base_dir=manifest.parent)
        report = run_phonetic_experiment(corpus, PhoneticProtocolConfig(**fields))
        want = emit_report(report, given.get("--format", "csv"))
        forks = cpus(n)
        forks.clear()
        assert _eval_phonetic(manifest, tmp_path / "got", *flags) == 0
        assert forks == ([] if n == 1 else ["fork"] * 2)
        assert multiprocessing.active_children() == []
        assert (tmp_path / "got").read_text(encoding="utf-8") == want
        assert report.cells[(fields.get("selectors", ("All",))[0], "mu_g")].n_tests > 0

    @pytest.mark.parametrize(
        "kept, named",
        [
            ({1: 0}, "speaker spk001: 0 frames < 1600"),
            # past the training frames, one 100-frame test short
            ({1: 5}, "speaker spk001: 1500 frames < 1600"),
            # spk000 is short of a test and spk002 of the training frames: every
            # speaker's training comes first
            ({0: 5, 2: 3}, "speaker spk002: 900 frames < 1600"),
        ],
        ids=["no-sentences", "short-of-a-test", "training-before-tests"],
    )
    def test_short_speaker_names_all_its_frames(self, tmp_path, cpus, capsys, kept, named):
        manifest = _phonetic_corpus(tmp_path, 300)
        _keep_sentences(manifest, kept)
        messages, raised = [], []
        for n in (1, 2, 3):
            cpus(n)
            assert _eval_phonetic(manifest, tmp_path / "report") == 2
            messages.append(capsys.readouterr().err)
            with pytest.raises(InsufficientDataError) as info:
                run_phonetic_experiment(load_corpus(manifest))
            raised.append(str(info.value))
            assert multiprocessing.active_children() == []
        want = f"{named} needed for 15 s training plus one test"
        assert messages == [f"error: {want}\n"] * 3
        assert raised == [want] * 3
        assert not (tmp_path / "report").exists()

    def test_two_speakers_are_checked_before_any_read(self, tmp_path, capsys):
        manifest = _phonetic_corpus(tmp_path, 300)
        doc = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**doc, "speakers": doc["speakers"][:1]}))
        for path in (manifest.parent / "spk000").iterdir():
            path.unlink()
        assert _eval_phonetic(manifest, tmp_path / "report") == 2
        assert capsys.readouterr().err == "error: identification needs at least 2 speakers\n"

    def test_holds_one_speaker_of_the_corpus(self, tmp_path, cpus):
        # each speaker's sentences are read as they are scored, so the peak
        # holds one speaker's frames, not the corpus's
        cpus(1)
        cfg = SynthCorpusConfig(
            n_speakers=8, dim=24, frames_per_speaker=3000, sentence_len_frames=300
        )
        manifest = write_corpus(cfg, tmp_path / "corpus")
        peak, code = _traced_peak(_eval_phonetic, manifest, tmp_path / "report")
        assert code == 0
        speaker_bytes = 3000 * 24 * 8
        # measured: 1.87 (a speaker's test sentences, its pooled frames and a
        # chunk's models); load_corpus and then the protocol peak at 13.9
        assert peak < 2 * speaker_bytes


class TestOrderedMap:
    def test_reads_every_ready_outcome_after_each_own_item(self, cpus, monkeypatch):
        cpus(2)  # the worker takes items 0, 2, 4, 6 and this process 1, 3, 5, 7
        caller = os.getpid()
        received = []
        recv = multiprocessing.connection.Connection.recv

        def counting_recv(conn):
            received.append(None)
            return recv(conn)

        monkeypatch.setattr(multiprocessing.connection.Connection, "recv", counting_recv)
        seen = {}

        def fn(item):
            if os.getpid() == caller:
                seen[item] = len(received)
                # sleep until the worker has sent all its outcomes and exited
                deadline = time.monotonic() + 30
                while multiprocessing.active_children() and time.monotonic() < deadline:
                    time.sleep(0.01)
            return item

        assert experiment._ordered_map(fn, list(range(8))) == list(range(8))
        assert seen == {1: 0, 3: 4, 5: 4, 7: 4}


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
            ({"train_durations": (1e307,)}, "duration 1e+307 s is not a finite number of frames"),
            ({"test_durations": (10**400,)}, "0 s is not a finite number of frames"),
        ],
        ids=["negative", "zero", "inf", "nan", "overflow", "beyond-float"],
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
        # the digest is written into every duration report; 1.004 s runs as 1 s
        assert DurationProtocolConfig().digest() == "22436463faca"
        grid = (10.0, 6.0, 3.0, 2.0, 1.0, 1.004)
        assert DurationProtocolConfig(test_durations=grid).digest() == "22436463faca"

    def test_measure_order_changes_neither_digest_nor_report(self):
        # nor does the order, a repeat, 2 against 2.0, or 1.004 against 1 (both
        # 100 frames) in a duration list: a config stores the grid that runs, and
        # the digest hashes that
        configs = [
            DurationProtocolConfig((6.0, 3.0), (2.0, 1.0), measures=("mu_sc", "mu_g")),
            DurationProtocolConfig((6.0, 3.0), (2.0, 1.0), measures=("mu_g", "mu_sc")),
            DurationProtocolConfig(
                (3, 6.0, 3.0), [1, 2, 1.004], measures=("mu_g", "mu_sc", "mu_g")
            ),
        ]
        assert configs[2].train_durations == (6.0, 3.0)
        assert configs[2].test_durations == (2.0, 1.0)
        assert configs[2].measures == ("mu_g", "mu_sc")
        assert len({cfg.digest() for cfg in configs}) == 1
        corpus = _easy_corpus()
        texts = {emit_report(run_duration_experiment(corpus, cfg), "csv") for cfg in configs}
        assert len(texts) == 1
        phonetic = [
            PhoneticProtocolConfig(selectors=("All",), train_seconds=seconds, measures=measures)
            for seconds, measures in (
                (6, ("mu_sc", "mu_g")), (6.0, ("mu_g", "mu_sc")), (6.004, ("mu_g", "mu_sc"))
            )
        ]
        assert phonetic[0].train_seconds == 6.0 and phonetic[0].measures == ("mu_g", "mu_sc")
        assert phonetic[2].train_seconds == 6.0
        assert len({cfg.digest() for cfg in phonetic}) == 1
        texts = {emit_report(run_phonetic_experiment(corpus, cfg), "csv") for cfg in phonetic}
        assert len(texts) == 1

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


def _materialized(chunks) -> tuple:
    """A cell's chunks, drawn: their stacks as one (``None`` without tests), their
    owners as one list, and an iterator of copies of the chunks to score.

    Every chunk but the last holds ``_CELL_CHUNK`` tests.
    """
    chunks = [(tuple(m.copy() for m in moments), list(owners)) for moments, owners in chunks]
    sizes = [len(owners) for _, owners in chunks]
    assert all(size == experiment._CELL_CHUNK for size in sizes[:-1])
    assert all(0 < size <= experiment._CELL_CHUNK for size in sizes)
    stacks = [stack_moments(tuple(m.copy() for m in moments)) for moments, _ in chunks]
    tests = functools.reduce(ModelStack.append, stacks) if stacks else None
    return tests, [owner for _, owners in chunks for owner in owners], iter(chunks)


class TestSegmentMomentsGrid:
    """The duration protocol's models, summed from segment moments, equal
    per-block estimates from the concatenated stream."""

    @settings(deadline=None, max_examples=40)
    @given(_grids())
    def test_models_match_per_block_estimates(self, case):
        corpus, cfg = case
        seen = []

        def spy(registry, chunks, *args):
            tests, owners, chunks = _materialized(chunks)
            seen.append((registry, tests, owners))
            return score_cells(registry, chunks, *args)

        score_cells = experiment._score_cells
        # on one CPU every cell is scored in this process, where the spy sees it
        one_cpu = mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True)
        # chunks of 5 tests, so that cells of up to 18 tests span several
        small_chunks = mock.patch.object(experiment, "_CELL_CHUNK", 5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # short blocks
            with mock.patch.object(experiment, "_score_cells", spy), one_cpu, small_chunks:
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
                if tests is None:
                    assert len(want) == 0
                else:
                    _assert_close_to_blocks(tests, want)
                assert owners == want_owners
                for kind in cfg.measures:
                    cell = report.cells[(train_s, test_s, kind)]
                    assert cell.n_tests == len(want)
                    assert cell.n_loaded == np.count_nonzero(want.loadings)


class TestScoreCells:
    def test_chunks_score_as_one_stack(self):
        # 600 tests in chunks of 256, 256 and 88, the loaded one first in the
        # second chunk, against one measure_matrices call over the whole stack
        rng = np.random.default_rng(7)
        dim, ids = 8, ["a", "b", "c"]
        centres = rng.standard_normal((3, dim))
        registry = SpeakerRegistry(
            ids, stack_blocks([centres[:, None] + rng.standard_normal((3, 200, dim))])
        )
        owners = [ids[i] for i in rng.integers(3, size=600)]
        codes = [ids.index(owner) for owner in owners]
        blocks = [
            centres[codes[:256], None] + rng.standard_normal((256, 30, dim)),
            centres[codes[256:257], None] + rng.standard_normal((1, dim, dim)),
            centres[codes[257:], None] + rng.standard_normal((343, 30, dim)),
        ]
        with pytest.warns(RuntimeWarning, match="rank deficient"):  # dim frames: loaded
            moments = _concat_moments(map(_block_moments, blocks))
        want_tests = stack_moments(tuple(m.copy() for m in moments))
        want = measure_matrices(MEASURE_KINDS, registry.stack, want_tests)
        assert np.count_nonzero(want_tests.loadings) == 1 and want_tests.loadings[256] > 0

        chunk_scores = []

        def recorded(*args):
            chunk_scores.append(measure_matrices(*args))
            return chunk_scores[-1]

        with mock.patch.object(experiment, "measure_matrices", recorded):
            tallies, n_loaded = experiment._score_cells(
                registry, experiment._sliced(moments, owners), MEASURE_KINDS, "decomposition"
            )
        cells = experiment._tallied_cells([(tallies, n_loaded)], MEASURE_KINDS)
        assert [len(scores["mu_g"]) for scores in chunk_scores] == [256, 256, 88]
        for kind in MEASURE_KINDS:
            got = np.concatenate([scores[kind] for scores in chunk_scores])
            np.testing.assert_allclose(got, want[kind], rtol=1e-12, atol=0)
            np.testing.assert_array_equal(got.argmin(axis=1), want[kind].argmin(axis=1))
            decisions = [ids[i] for i in want[kind].argmin(axis=1)]
            results = [(owner, decision == owner) for owner, decision in zip(owners, decisions)]
            assert cells[kind] == ReportCell(*compute_metrics(results), 600, n_loaded=1)


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


def _stream_segments(placed, train_f, pre=5, post=5):
    """Widened kernels of a concatenated stream after its training frames, in
    stream coordinates: the reference the phonetic protocol's pooling equals."""
    segments = []
    for offset, sentence in placed:
        if offset + len(sentence.frames) <= train_f:
            continue
        for label, s, e in expand_kernels(
            sentence.alignment, pre, post, track_len=len(sentence.frames)
        ):
            lo = max(s + offset, train_f)
            if lo <= e + offset:
                segments.append((label, lo, e + offset))
    return segments


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
        assert PhoneticProtocolConfig().digest() == "b17597d79428"
        assert PhoneticProtocolConfig(train_seconds=15.004).digest() == "b17597d79428"

    def test_config_keyword_and_replace_forms_give_the_same_report(self):
        _, corpus = _labeled_corpus()
        fields = {"selectors": ("All", "Vowels"), "measures": ("mu_sc", "mu_g"), "min_tests": 5}
        other = PhoneticProtocolConfig(selectors=("m",), measures=("mu_gc",), min_tests=0)
        reports = [
            run_phonetic_experiment(corpus, PhoneticProtocolConfig(**fields)),
            run_phonetic_experiment(corpus, **fields),
            run_phonetic_experiment(corpus, other, **fields),
        ]
        texts = [emit_report(report, "csv") for report in reports]
        assert texts[0] == texts[1] == texts[2]
        assert "All,mu_sc," in texts[0] and "mu_gc" not in texts[0]
        # fields set over a config are validated as the config's own
        with pytest.raises(ConfigurationError, match="got 0"):
            run_phonetic_experiment(corpus, other, test_len=0)

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

        for selector in selectors:
            expected = 0
            for speaker_id, concat, placed in _speaker_streams(corpus):
                segments = _stream_segments(placed, 1500)
                pooled = select_frames(concat, segments, selector, taxonomy)
                expected += len(assemble_tests(pooled, 100))
            for kind in ("mu_g", "mu_gc", "mu_sc"):
                assert report.cells[(selector, kind)].n_tests == expected

    def test_tests_equal_blocks_pooled_from_concatenated_streams(self, cpus):
        # each cell's test stack is, bit for bit, that of the blocks pooled
        # from every speaker's concatenated stream in stream coordinates; the
        # training boundary falls inside a sentence, so a kernel straddles it
        _, corpus = _labeled_corpus(seed=4, class_spread=1.0)
        selectors = ("All", "Vowels", "m", "LiquidsGlides")
        seen = []

        def spy(registry, chunks, *args):
            tests, owners, chunks = _materialized(chunks)
            seen.append((tests, owners))
            return score_cells(registry, chunks, *args)

        score_cells = experiment._score_cells
        cpus(1)  # every speaker is scored in this process, where the spy sees it
        # chunks of 50 tests, so that chunk edges fall inside a speaker's tests
        # and inside a batch of its pooled sentences
        with mock.patch.object(experiment, "_score_cells", spy), mock.patch.object(
            experiment, "_CELL_CHUNK", 50
        ):
            run_phonetic_experiment(
                corpus, selectors=selectors, train_seconds=14.2, test_len=60, pre_frames=3
            )
        taxonomy = default_taxonomy()
        # one call per speaker and selector, speaker by speaker, each on that
        # speaker's tests only
        ids = [speaker_id for speaker_id, _ in corpus.speakers]
        assert len(seen) == len(ids) * len(selectors)
        for call, (_, owners) in enumerate(seen):
            assert set(owners) <= {ids[call // len(selectors)]}
        for column, selector in enumerate(selectors):
            calls = seen[column :: len(selectors)]
            stacks = [tests for tests, _ in calls if tests is not None]
            tests = functools.reduce(ModelStack.append, stacks) if stacks else None
            owners = [owner for _, call_owners in calls for owner in call_owners]
            blocks, want_owners = [], []
            for speaker_id, concat, placed in experiment._speaker_streams(corpus):
                segments = _stream_segments(placed, 1420, pre=3)
                pooled = select_frames(concat, segments, selector, taxonomy)
                blocks.append(assemble_tests(pooled, 60))
                want_owners += [speaker_id] * len(blocks[-1])
            want = stack_blocks(blocks)
            assert owners == want_owners
            assert (tests is None) == (len(want) == 0) == (selector == "LiquidsGlides")
            if tests is None:
                continue
            for name in ("means", "covs", "counts", "inverses", "log_dets", "loadings"):
                np.testing.assert_array_equal(getattr(tests, name), getattr(want, name))

    def test_holds_the_corpus_once(self, cpus):
        # neither a copy of every stream nor a cell's finalizing temporaries
        # may come near the size of the corpus's own frames
        import tracemalloc

        _, corpus = _labeled_corpus(n_speakers=4, frames=3000)
        frame_bytes = sum(s.frames.nbytes for _, sentences in corpus.speakers for s in sentences)
        cpus(1)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            run_phonetic_experiment(corpus, selectors=("NasalVowels",))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - start < 0.5 * frame_bytes

    def test_a_cell_holds_one_chunk_of_models(self, cpus):
        # the All cell has 904 tests, about 226 a speaker; while a speaker's are
        # built and scored the process holds one chunk's covariances, its
        # inverses and their work buffers, not the cell's stacks (about 14
        # chunks' covariance bytes when the cell was one stack) nor a speaker's
        # whole pool of test frames
        import tracemalloc

        corpus = make_corpus(
            SynthCorpusConfig(n_speakers=4, frames_per_speaker=12000, sentence_len_frames=250)
        )
        peaks = []
        ordered_map = experiment._ordered_map

        def measured(fn, items):
            start, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            outcomes = ordered_map(fn, items)
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return outcomes

        cpus(1)  # the cell is built and scored in this process, where it is measured
        tracemalloc.start()
        try:
            with mock.patch.object(experiment, "_ordered_map", measured):
                report = run_phonetic_experiment(corpus, selectors=("All",), min_tests=0)
        finally:
            tracemalloc.stop()
        assert report.cells[("All", "mu_g")].n_tests == 904
        chunk_covs = experiment._CELL_CHUNK * 24 * 24 * 8
        # the first pass reads the training frames, the second scores the tests
        assert len(peaks) == 2
        assert peaks[1] < 2.5 * chunk_covs

    def test_reports_are_byte_identical_across_runs(self):
        _, corpus_a = _labeled_corpus(seed=5)
        _, corpus_b = _labeled_corpus(seed=5)
        text_a = emit_report(run_phonetic_experiment(corpus_a, selectors=("All", "Vowels")), "csv")
        text_b = emit_report(run_phonetic_experiment(corpus_b, selectors=("All", "Vowels")), "csv")
        assert text_a == text_b

    def test_training_matches_duration_protocol_material(self, cpus):
        # both protocols train on the same leading 15 s of the same shuffle,
        # and build the same reference models from it, bit for bit
        _, corpus = _labeled_corpus(seed=11)
        registries = []

        def spy(registry, *args):
            registries.append(registry)
            return score_cells(registry, *args)

        score_cells = experiment._score_cells
        cpus(1)  # the spy sees only the cells this process scores: all of them
        cfg = DurationProtocolConfig(train_durations=(15.0,))
        n_speakers = len(corpus.speakers)
        with mock.patch.object(experiment, "_score_cells", spy):
            run_phonetic_experiment(corpus, selectors=("All",), min_tests=1)
            # each speaker's tests are scored against the one registry
            assert len(registries) == n_speakers
            assert all(registry is registries[0] for registry in registries)
            phonetic = registries[-1]
            run_duration_experiment(corpus, cfg)
            assert len(registries) == n_speakers + len(cfg.test_durations)
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
            ({"train_seconds": 10**400}, "0 s is not a finite number of frames"),
            ({"test_len": 0}, "got 0"),
            ({"test_len": -5}, "got -5"),
            ({"min_tests": -3}, "got -3"),
            ({"pre_frames": -1}, "pre -1"),
            ({"post_frames": -2}, "post -2"),
            ({"sc_convention": "sideways"}, "sideways"),
            ({"measures": ("mu_g", "mu_x")}, "unknown measures: ['mu_x']"),
            ({"test_len": 2.5}, "test_len must be an integer, got 2.5"),
            ({"test_len": True}, "test_len must be an integer, got True"),
            ({"min_tests": 2.5}, "min_tests must be an integer, got 2.5"),
            ({"min_tests": True}, "min_tests must be an integer, got True"),
            ({"pre_frames": 1.5}, "pre_frames must be an integer, got 1.5"),
            ({"post_frames": False}, "post_frames must be an integer, got False"),
            ({"selectors": ()}, "selectors must be non-empty"),
            ({"selectors": ("All", "m", "All")}, "selector 'All' is given more than once"),
        ],
        ids=[
            "negative-train", "one-frame-train", "beyond-float-train", "zero-test", "negative-test",
            "negative-min-tests", "negative-pre", "negative-post", "unknown-sc",
            "unknown-kind", "fractional-test", "boolean-test", "fractional-min-tests",
            "boolean-min-tests", "fractional-pre", "boolean-post", "no-selectors",
            "repeated-selector",
        ],
    )
    def test_bad_lengths_and_conventions_rejected(self, kwargs, named):
        _, corpus = _labeled_corpus()
        with pytest.raises(ConfigurationError, match=re.escape(named)):
            run_phonetic_experiment(corpus, **{"selectors": ("All",), **kwargs})

    @pytest.mark.parametrize(
        "shape, train_seconds, test_len, seeds, n_tests",
        [
            (dict(n_speakers=6, frames_per_speaker=3000, sentence_len_frames=250,
                  separation=0.3), 15.0, 100, range(4), 90),
            # the 10 s training boundary falls inside a 300-frame sentence
            (dict(n_speakers=5, frames_per_speaker=2650, sentence_len_frames=300,
                  separation=0.2), 10.0, 70, (5, 6), 115),
        ],
        ids=["15s-1s", "boundary-inside-a-sentence"],
    )
    def test_unwidened_all_is_the_contiguous_balanced_cell(
        self, shape, train_seconds, test_len, seeds, n_tests
    ):
        # kernels tile their sentences, so without widening the All pool is
        # the stream after the training seconds, cut into the duration
        # protocol's consecutive blocks: the same tests and decisions
        test_s = test_len / 100
        grid = DurationProtocolConfig(
            (train_seconds,), (test_s,), max_tests_per_speaker=shape["frames_per_speaker"]
        )
        for seed in seeds:
            corpus = make_corpus(SynthCorpusConfig(seed=seed, **shape))
            phonetic = run_phonetic_experiment(
                corpus, selectors=("All",), train_seconds=train_seconds, test_len=test_len,
                min_tests=0, pre_frames=0, post_frames=0,
            )
            duration = run_duration_experiment(corpus, grid)
            for kind in MEASURE_KINDS:
                got = phonetic.cells[("All", kind)]
                want = duration.cells[(train_seconds, test_s, kind)]
                assert got.n_tests == want.n_tests == n_tests
                assert got.global_accuracy == want.global_accuracy
                assert got.per_speaker_mean_accuracy == want.per_speaker_mean_accuracy


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
# ordered maps per run: the phonetic protocol maps its speakers once to
# train and once to score
_MAPS = {_duration_grid: 1, _phonetic_grid: 2}
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
        assert forks == ["fork"] * 3 * _MAPS[grid]
        (serial, serial_warnings), *pooled = runs
        assert serial_warnings and all(c is RuntimeWarning for c, _ in serial_warnings)
        for report, caught in pooled:
            for fmt in ("csv", "markdown"):
                assert emit_report(report, fmt) == emit_report(serial, fmt)
            assert list(report.cells.items()) == list(serial.cells.items())
            assert caught == serial_warnings
        assert any(cell.n_loaded for cell in serial.cells.values())

    def test_phonetic_cell_warns_once_per_speaker_with_tests(self, cpus):
        # as stack_blocks checks each block set once: four cells hold tests
        # of all three speakers, LiquidsGlides none, however the tests are pooled
        cpus(1)
        with _recorded("always") as caught:
            report = _phonetic_grid()
        selectors = ("LiquidsGlides", "All", "Vowels", "Consonants", "m")
        assert [report.cells[(s, "mu_g")].n_tests > 0 for s in selectors] == [False] + [True] * 4
        assert sum("rank deficient" in str(w.message) for w in caught) == 4 * 3

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

    @pytest.mark.parametrize(
        "grid, named",
        [
            (_degenerate_duration_grid, "train_s 2, test_s 10, speaker spk001: "),
            (_degenerate_phonetic_grid, "selector All, speaker spk001: "),
        ],
        ids=["duration", "phonetic"],
    )
    def test_degenerate_cell_names_its_cell_and_speaker(self, cpus, grid, named):
        cpus(1)
        with pytest.raises(DegenerateModelError) as info:
            grid()
        assert str(info.value).startswith(
            named + "covariance of a frame block is not positive definite"
        )

    @pytest.mark.parametrize(
        "grid",
        [
            lambda corpus: run_duration_experiment(
                corpus, DurationProtocolConfig(train_durations=(15.0,), test_durations=(1.0,))
            ),
            lambda corpus: run_phonetic_experiment(corpus, selectors=("All",)),
        ],
        ids=["duration", "phonetic"],
    )
    def test_degenerate_reference_names_its_speaker(self, grid):
        # both protocols train on the leading 15 s of the same stream
        _, corpus = _labeled_corpus()
        with pytest.raises(DegenerateModelError) as info:
            grid(_constant_span(corpus, 1, 0, 1500))
        assert str(info.value).startswith(
            "reference from 1500 training vectors, speaker spk001: "
            "covariance of a frame block is not positive definite"
        )

    def test_scores_in_process_in_a_daemonic_process(self, cpus):
        forks = cpus(2)
        want = _quiet_reports()
        assert forks == ["fork"] * sum(_MAPS.values())
        # a daemonic pool worker may not start processes of its own
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply(_quiet_reports) == want
        assert multiprocessing.active_children() == []


def _quiet_reports() -> list:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # short tests
        return [emit_report(grid(), "csv") for grid in _GRIDS]
