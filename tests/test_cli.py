import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import sosid
from sosid.cli import main
from sosid.experiment import DurationProtocolConfig, PhoneticProtocolConfig
from sosid.frontend import load_features_csv, save_features_csv, save_wav
from sosid.gaussian import GaussianModel
from sosid.synthetic import SynthCorpusConfig, write_corpus


@pytest.fixture()
def corpus_dir(tmp_path):
    cfg = SynthCorpusConfig(
        n_speakers=3,
        dim=6,
        separation=6.0,
        frames_per_speaker=2600,
        sentence_len_frames=260,
        seed=21,
    )
    write_corpus(cfg, tmp_path / "corpus")
    return tmp_path / "corpus"


def test_importing_the_cli_leaves_scipy_signal_unloaded():
    # scipy.signal is most of a cold start, and only synthetic AR(1) frames need it
    env = {**os.environ, "PYTHONPATH": str(Path(sosid.__file__).parents[1])}
    code = "import sys, sosid.cli; sys.exit('scipy.signal' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0


class TestSynthCorpus:
    def test_writes_manifest_and_data(self, tmp_path, capsys):
        out = tmp_path / "c"
        code = main(
            [
                "synth-corpus",
                "--out", str(out),
                "--seed", "5",
                "--speakers", "2",
                "--dim", "4",
                "--frames-per-speaker", "400",
                "--sentence-frames", "200",
            ]
        )
        assert code == 0
        assert (out / "manifest.json").exists()
        printed = capsys.readouterr().out.strip()
        assert printed.endswith("manifest.json")
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["seed"] == 5
        assert len(doc["speakers"]) == 2

    def test_absent_flags_leave_the_config_defaults(self, tmp_path):
        # the CLI passes only the flags given; SynthCorpusConfig fills in the rest
        cli, lib = tmp_path / "cli", tmp_path / "lib"
        argv = ["--speakers", "2", "--frames-per-speaker", "400"]
        assert main(["synth-corpus", "--out", str(cli), *argv]) == 0
        write_corpus(SynthCorpusConfig(n_speakers=2, frames_per_speaker=400), lib)
        files = sorted(path.relative_to(lib) for path in lib.rglob("*") if path.is_file())
        assert files == sorted(path.relative_to(cli) for path in cli.rglob("*") if path.is_file())
        assert len(files) == 2 * 2 * 2 + 1  # a csv and an ali per sentence of 300 and 100 frames
        for name in files:
            assert (cli / name).read_bytes() == (lib / name).read_bytes(), name


class TestExtract:
    def test_wav_to_csv(self, tmp_path):
        t = np.arange(16000)
        tone = (3000 * np.sin(2 * np.pi * 440 * t / 16000)).astype(np.int16)
        wav = tmp_path / "tone.wav"
        save_wav(wav, tone, 16000)
        out = tmp_path / "tone.csv"
        assert main(["extract", str(wav), "--out", str(out)]) == 0
        feats = load_features_csv(out)
        assert feats.vectors.shape == (97, 24)
        assert np.all(feats.vectors >= math.log(1e-10))

    def test_gz_suffix_writes_plain_csv_that_identify_reads(self, tmp_path, capsys):
        cfg = SynthCorpusConfig(n_speakers=2, frames_per_speaker=400, sentence_len_frames=200)
        manifest = write_corpus(cfg, tmp_path / "corpus")
        store = tmp_path / "store"
        assert main(["train", "--manifest", str(manifest), "--out", str(store)]) == 0
        wav = tmp_path / "noise.wav"
        save_wav(wav, np.random.default_rng(3).normal(0, 2000, 16000), 16000)
        out = tmp_path / "noise.csv.gz"
        assert main(["extract", str(wav), "--out", str(out)]) == 0
        assert load_features_csv(out).vectors.shape == (97, 24)
        assert main(["identify", "--store", str(store), str(out)]) == 0
        assert capsys.readouterr().out.startswith("test_id,decision,spk000,spk001\nnoise.csv,")

    def test_missing_wav_is_data_error(self, tmp_path):
        code = main(["extract", str(tmp_path / "nope.wav"), "--out", str(tmp_path / "x.csv")])
        assert code == 2

    def test_missing_out_is_usage_error(self, tmp_path):
        assert main(["extract", str(tmp_path / "nope.wav")]) == 1


class TestTrainAndIdentify:
    def test_round_trip_identifies_own_speakers(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        code = main(
            [
                "train",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--train-seconds", "15",
                "--out", str(store),
            ]
        )
        assert code == 0
        assert sorted(p.name for p in store.glob("*.json")) == [
            "spk000.json", "spk001.json", "spk002.json",
        ]
        # identify each speaker's own feature file
        features = [str(corpus_dir / f"spk{i:03d}" / "s005.csv") for i in range(3)]
        out = tmp_path / "scores.csv"
        code = main(
            ["identify", "--store", str(store), "--measure", "mu_g", "--out", str(out)]
            + features
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "test_id,decision,spk000,spk001,spk002"
        decisions = [line.split(",")[1] for line in lines[1:]]
        assert decisions == ["spk000", "spk001", "spk002"]

    def test_identify_to_stdout(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        code = main(
            ["identify", "--store", str(store), str(corpus_dir / "spk000" / "s000.csv")]
        )
        assert code == 0
        assert capsys.readouterr().out.startswith("test_id,decision,")

    @pytest.mark.parametrize(
        "rows, named",
        [
            ("1,2,3,4,5,6\n", "need at least 2 vectors to estimate a model, got 1"),
            ("1,2,3,4,5,6\n" * 50, "covariance of a frame block is not positive definite"),
        ],
        ids=["one-row", "constant-rows"],
    )
    def test_test_model_that_cannot_be_built_names_its_file(
        self, corpus_dir, tmp_path, capsys, rows, named
    ):
        store = tmp_path / "store"
        manifest = str(corpus_dir / "manifest.json")
        assert main(["train", "--manifest", manifest, "--out", str(store)]) == 0
        features = tmp_path / "test.csv"
        features.write_text(rows)
        assert main(["identify", "--store", str(store), str(features)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {features}: {named}")

    @pytest.mark.parametrize("make_dir", [False, True])
    def test_missing_or_empty_store_is_data_error(
        self, corpus_dir, tmp_path, capsys, make_dir
    ):
        store = tmp_path / "store"
        if make_dir:
            store.mkdir()
        features = str(corpus_dir / "spk000" / "s000.csv")
        code = main(["identify", "--store", str(store), features])
        assert code == 2
        assert str(store) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda doc: {**doc, "mean": [math.nan] + doc["mean"][1:]},
            lambda doc: {**doc, "mean": doc["mean"][:1] + [math.inf] + doc["mean"][2:]},
            lambda doc: {**doc, "covariance": [math.nan] + doc["covariance"][1:]},
            lambda doc: {k: v for k, v in doc.items() if k != "covariance"},
            lambda doc: {**doc, "covariance": doc["covariance"][:-1]},
            lambda doc: {**doc, "count": 0},
            lambda doc: {**doc, "count": 2.7},
            lambda doc: {**doc, "count": True},
            lambda doc: {**doc, "count": "7"},
            lambda doc: {**doc, "count": 1e300},
            lambda doc: {**doc, "id": "spk000"},
            lambda doc: {**doc, "id": 5},
            lambda doc: {**doc, "id": ""},
            lambda doc: {
                **doc,
                "mean": doc["mean"][:-1],
                "covariance": np.reshape(doc["covariance"], (len(doc["mean"]),) * 2)[
                    :-1, :-1
                ].ravel().tolist(),
            },
        ],
        ids=[
            "nan-mean",
            "inf-mean",
            "nan-cov",
            "missing-key",
            "short-cov",
            "zero-count",
            "fractional-count",
            "boolean-count",
            "string-count",
            "huge-float-count",
            "duplicate-id",
            "integer-id",
            "empty-id",
            "other-dim",
        ],
    )
    def test_bad_store_document_is_data_error(self, corpus_dir, tmp_path, capsys, corrupt):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        path = store / "spk001.json"
        path.write_text(json.dumps(corrupt(json.loads(path.read_text()))))
        features = str(corpus_dir / "spk000" / "s000.csv")
        assert main(["identify", "--store", str(store), features]) == 2
        assert "spk001.json" in capsys.readouterr().err

    def test_covariance_that_does_not_factorize_names_its_file(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        path = store / "spk001.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({**doc, "covariance": [0.0] * len(doc["covariance"])}))
        features = str(corpus_dir / "spk000" / "s000.csv")
        assert main(["identify", "--store", str(store), features]) == 2
        reason = "covariance of dimension 6 is not positive definite"
        assert capsys.readouterr().err == f"error: {path}: speaker 'spk001': {reason}\n"

    def test_missing_key_names_the_file_and_the_key(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        path = store / "spk001.json"
        doc = json.loads(path.read_text())
        path.write_text(json.dumps({k: v for k, v in doc.items() if k != "mean"}))
        features = str(corpus_dir / "spk000" / "s000.csv")
        assert main(["identify", "--store", str(store), features]) == 2
        assert capsys.readouterr().err == f"error: {path}: speaker model has no key 'mean'\n"

    def test_renamed_document_is_data_error(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        (store / "spk001.json").rename(store / "zzz.json")
        features = str(corpus_dir / "spk000" / "s000.csv")
        assert main(["identify", "--store", str(store), features]) == 2
        err = capsys.readouterr().err
        assert "zzz.json" in err and "'spk001'" in err

    def test_training_other_speakers_into_a_store_is_data_error(self, tmp_path, capsys):
        sizes = ["--dim", "4", "--frames-per-speaker", "400", "--sentence-frames", "200"]
        store = tmp_path / "store"

        def synth_and_train(name, flags):
            corpus = tmp_path / name
            assert main(["synth-corpus", "--out", str(corpus), *flags, *sizes]) == 0
            capsys.readouterr()
            return main(["train", "--manifest", str(corpus / "manifest.json"), "--out", str(store)])

        assert synth_and_train("three", ["--speakers", "3"]) == 0
        before = {path.name: path.read_bytes() for path in store.iterdir()}
        assert synth_and_train("two", ["--speakers", "2", "--seed", "5"]) == 2
        assert "spk002.json" in capsys.readouterr().err
        assert {path.name: path.read_bytes() for path in store.iterdir()} == before
        assert sorted(before) == ["spk000.json", "spk001.json", "spk002.json"]

    def test_retraining_the_same_speakers_overwrites_their_documents(self, corpus_dir, tmp_path):
        store = tmp_path / "store"
        argv = ["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)]
        assert main(argv) == 0
        first = {path.name: path.read_bytes() for path in store.iterdir()}
        assert main(argv) == 0
        assert {path.name: path.read_bytes() for path in store.iterdir()} == first

    @pytest.mark.parametrize("train_seconds", [[], ["--train-seconds", "15"]], ids=["all", "15s"])
    def test_stored_models_equal_from_frames_of_each_concatenation(
        self, corpus_dir, tmp_path, train_seconds
    ):
        store = tmp_path / "store"
        manifest = corpus_dir / "manifest.json"
        argv = ["train", "--manifest", str(manifest), *train_seconds, "--out", str(store)]
        assert main(argv) == 0
        speakers = json.loads(manifest.read_text())["speakers"]
        assert sorted(p.name for p in store.glob("*.json")) == [f"{s['id']}.json" for s in speakers]
        for speaker in speakers:
            concat = np.concatenate(
                [
                    load_features_csv(corpus_dir / sentence["features"]).vectors
                    for sentence in speaker["sentences"]
                ]
            )
            want = GaussianModel.from_frames(concat[:1500] if train_seconds else concat)
            doc = json.loads((store / f"{speaker['id']}.json").read_text())
            assert doc["id"] == speaker["id"] and doc["count"] == want.count
            np.testing.assert_array_equal(doc["mean"], want.mean)
            np.testing.assert_array_equal(doc["covariance"], want.cov.ravel())

    def test_non_finite_features_are_data_error(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        features = np.loadtxt(corpus_dir / "spk000" / "s000.csv", delimiter=",")
        features[10, 2] = np.nan
        bad = tmp_path / "nan.csv"
        np.savetxt(bad, features, delimiter=",")
        assert main(["identify", "--store", str(store), str(bad)]) == 2
        assert "nan.csv" in capsys.readouterr().err

    def test_many_files_write_the_one_file_sheets_joined(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        features = [str(corpus_dir / f"spk{i:03d}" / "s007.csv") for i in range(3)]
        sheets = []
        for path in features:
            assert main(["identify", "--store", str(store), path]) == 0
            sheets.append(capsys.readouterr().out)
        header = sheets[0].split("\n", 1)[0] + "\n"
        assert all(sheet.startswith(header) for sheet in sheets)
        assert main(["identify", "--store", str(store), *features]) == 0
        joined = header + "".join(sheet[len(header):] for sheet in sheets)
        assert capsys.readouterr().out == joined

    def test_consecutive_calls_share_no_parser_state(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        features = str(corpus_dir / "spk002" / "s006.csv")
        flag_sets = [
            ["--out", str(tmp_path / "first.csv")],
            [],
            ["--measure", "mu_sc", "--sc-convention", "as-printed"],
            ["--measure", "mu_sc"],
            ["--measure", "mu_sc"],
            [],
        ]
        sheets = []
        for flags in flag_sets:
            assert main(["identify", "--store", str(store), *flags, features]) == 0
            sheets.append(capsys.readouterr().out)
        # --out, an appended --measure and --sc-convention hold for their own call only
        assert sheets[0] == "" and (tmp_path / "first.csv").read_text() == sheets[1]
        assert sheets[1] == sheets[5] != sheets[3]
        assert sheets[3] == sheets[4] != sheets[2]


class TestEvalCommands:
    def test_eval_duration_csv(self, corpus_dir, tmp_path):
        out = tmp_path / "report.csv"
        config = tmp_path / "proto.json"
        config.write_text(
            json.dumps({"train_durations": [15, 2], "test_durations": [3, 1]})
        )
        code = main(
            [
                "eval-duration",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--config", str(config),
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert text.startswith("# protocol: duration")
        assert "15,3,mu_g," in text

    def test_eval_duration_deterministic_bytes(self, corpus_dir, tmp_path):
        config = tmp_path / "proto.json"
        config.write_text(
            json.dumps({"train_durations": [6], "test_durations": [1]})
        )
        args = [
            "eval-duration",
            "--manifest", str(corpus_dir / "manifest.json"),
            "--config", str(config),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_eval_phonetic_markdown(self, corpus_dir, tmp_path):
        out = tmp_path / "phonetic.md"
        code = main(
            [
                "eval-phonetic",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--selectors", "All,Vowels,NasalConsonants",
                "--min-tests", "5",
                "--format", "markdown",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "| All | mu_g |" in text

    def test_eval_phonetic_without_flags_runs_the_default_protocol(self, corpus_dir, tmp_path):
        out, manifest = tmp_path / "r.csv", str(corpus_dir / "manifest.json")
        assert main(["eval-phonetic", "--manifest", manifest, "--out", str(out)]) == 0
        assert f"# config: {PhoneticProtocolConfig().digest()}\n" in out.read_text()

    def test_seed_override_changes_report(self, corpus_dir, tmp_path):
        config = tmp_path / "proto.json"
        config.write_text(json.dumps({"train_durations": [6], "test_durations": [1]}))
        base = [
            "eval-duration",
            "--manifest", str(corpus_dir / "manifest.json"),
            "--config", str(config),
        ]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--seed", "99", "--out", str(b)]) == 0
        assert "# seed: 21" in a.read_text()
        assert "# seed: 99" in b.read_text()

    def test_single_measure_flag(self, corpus_dir, tmp_path):
        config = tmp_path / "proto.json"
        config.write_text(json.dumps({"train_durations": [6], "test_durations": [1]}))
        out = tmp_path / "one.csv"
        code = main(
            [
                "eval-duration",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--config", str(config),
                "--measure", "mu_sc",
                "--out", str(out),
            ]
        )
        assert code == 0
        text = out.read_text()
        assert "mu_sc" in text and "mu_gc" not in text

    @pytest.mark.parametrize(
        "in_file, flags, want",
        [
            ("decomposition", ["--sc-convention", "as-printed"], "as-printed"),
            ("as-printed", [], "as-printed"),
        ],
        ids=["flag-over-file", "file-without-flag"],
    )
    def test_flags_override_config_file(self, corpus_dir, tmp_path, in_file, flags, want):
        grid = {"train_durations": [6], "test_durations": [1]}
        config = tmp_path / "proto.json"
        config.write_text(json.dumps({**grid, "measures": ["mu_g"], "sc_convention": in_file}))
        out = tmp_path / "report.csv"
        code = main(
            [
                "eval-duration",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--config", str(config),
                "--measure", "mu_sc",
                *flags,
                "--out", str(out),
            ]
        )
        assert code == 0
        expected = DurationProtocolConfig(
            train_durations=(6,), test_durations=(1,), measures=("mu_sc",), sc_convention=want
        )
        assert f"# config: {expected.digest()}\n" in out.read_text()


class TestExitCodes:
    def test_unknown_command_is_usage_error(self):
        assert main(["frobnicate"]) == 1

    def test_phonetic_test_that_does_not_factorize_names_its_cell(self, tmp_path, capsys):
        # widened kernels repeat frames, so some 2-frame test holds one frame twice
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=400, sentence_len_frames=200
        )
        manifest = write_corpus(cfg, tmp_path / "corpus")
        args = ["eval-phonetic", "--manifest", str(manifest), "--test-frames", "2"]
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            code = main([*args, "--min-tests", "0", "--train-seconds", "2"])
        assert code == 2
        err = capsys.readouterr().err
        named = r"error: selector \w+, speaker spk00[01]: covariance of a frame block is not"
        assert re.match(named, err), err

    def test_duration_test_that_does_not_factorize_names_its_cell(self, tmp_path, capsys):
        # every frame of spk001 comes twice in a row, so each of its 2-frame tests
        # after 1 s of training holds one frame twice
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=400, sentence_len_frames=200, seed=1
        )
        manifest = write_corpus(cfg, tmp_path / "corpus")
        for path in sorted((tmp_path / "corpus" / "spk001").glob("*.csv")):
            frames = load_features_csv(path).vectors
            frames[1::2] = frames[0::2]
            save_features_csv(frames, path)
        config = tmp_path / "grid.json"
        config.write_text(json.dumps({"train_durations": [1], "test_durations": [0.02]}))
        args = ["eval-duration", "--manifest", str(manifest), "--config", str(config)]
        with pytest.warns(RuntimeWarning, match="rank deficient"):
            assert main(args) == 2
        named = "error: train_s 1, test_s 0.02, speaker spk001: covariance of a frame block"
        assert capsys.readouterr().err.startswith(named)

    def test_bad_measure_choice_is_usage_error(self, tmp_path):
        assert main(["identify", "--store", str(tmp_path), "--measure", "nope", "x.csv"]) == 1

    def test_seed_is_not_an_extract_or_identify_flag(self, tmp_path):
        assert main(["extract", "x.wav", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 1
        assert main(["identify", "--store", str(tmp_path), "--seed", "1", "x.csv"]) == 1
        train = ["train", "--manifest", "m.json", "--seed", "1", "--out", str(tmp_path / "s")]
        assert main(train) == 1

    def test_missing_manifest_is_data_error(self, tmp_path):
        assert main(["eval-duration", "--manifest", str(tmp_path / "m.json")]) == 2

    def test_corrupt_manifest_is_data_error(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text("{not json")
        assert main(["eval-duration", "--manifest", str(path)]) == 2

    def test_insufficient_material_is_data_error(self, tmp_path):
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=300, sentence_len_frames=150, seed=1
        )
        manifest = write_corpus(cfg, tmp_path / "tiny")
        assert main(["eval-duration", "--manifest", str(manifest)]) == 2

    @pytest.mark.parametrize(
        "doc", [{"trains": [5]}, {"frames_per_second": 50}], ids=["trains", "frames_per_second"]
    )
    def test_unknown_protocol_config_key_is_data_error(self, corpus_dir, tmp_path, doc):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        code = main(
            [
                "eval-duration",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--config", str(config),
            ]
        )
        assert code == 2

    def test_duration_under_two_frames_is_data_error(self, corpus_dir, tmp_path, capsys):
        config = tmp_path / "short.json"
        config.write_text(json.dumps({"test_durations": [0.004]}))
        code = main(
            [
                "eval-duration",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--config", str(config),
            ]
        )
        assert code == 2
        assert "duration 0.004 s" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"max_tests_per_speaker": 2.5}, "an integer, got 2.5"),
            ({"max_tests_per_speaker": True}, "an integer, got True"),
            ({"train_durations": 15}, "'train_durations' is not an array"),
            ({"test_durations": 1.0}, "'test_durations' is not an array"),
            ({"measures": "mu_g"}, "'measures' is not an array"),
            ({"train_durations": ["15"]}, "duration '15' is not a number"),
            ({"train_durations": [1e307]}, "duration 1e+307 s is not a finite number of frames"),
            ([15, 1], "not a JSON object"),
            ("mu_g", "not a JSON object"),
            (15, "not a JSON object"),
        ],
        ids=[
            "fractional-cap", "boolean-cap", "scalar-train", "scalar-test", "scalar-measures",
            "string-duration", "overflowing-duration", "array-doc", "string-doc", "number-doc",
        ],
    )
    @pytest.mark.parametrize(
        "flags", [[], ["--measure", "mu_g"], ["--sc-convention", "as-printed"]],
        ids=["no-flags", "measure", "sc-convention"],
    )
    def test_malformed_protocol_config_is_data_error(
        self, corpus_dir, tmp_path, capsys, doc, named, flags
    ):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(doc))
        manifest = str(corpus_dir / "manifest.json")
        code = main(["eval-duration", "--manifest", manifest, "--config", str(config), *flags])
        assert code == 2
        err = capsys.readouterr().err
        assert str(config) in err and named in err

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--train-seconds", "-1"], "duration -1 s"),
            (["--train-seconds", "0.01"], "duration 0.01 s"),
            (["--test-frames", "0"], "got 0"),
            (["--test-frames", "-5"], "got -5"),
            (["--min-tests", "-3"], "got -3"),
            (["--train-seconds", "1e307"], "duration 1e+307 s is not a finite number of frames"),
            (["--selectors", "All,All"], "selector 'All' is given more than once"),
        ],
        ids=[
            "negative-train", "one-frame-train", "zero-test", "negative-test", "negative-min",
            "overflowing-train", "repeated-selector",
        ],
    )
    def test_bad_phonetic_lengths_are_data_errors(self, corpus_dir, capsys, flags, named):
        code = main(["eval-phonetic", "--manifest", str(corpus_dir / "manifest.json"), *flags])
        assert code == 2
        assert named in capsys.readouterr().err

    def test_bad_phonetic_flags_are_checked_before_the_manifest(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        code = main(["eval-phonetic", "--manifest", str(missing), "--test-frames", "0"])
        assert code == 2
        err = capsys.readouterr().err
        assert "test length must be at least 2 frames, got 0" in err
        assert "missing.json" not in err

    def test_kernel_past_its_track_names_speaker_and_sentence(self, tmp_path, capsys):
        cfg = SynthCorpusConfig(
            n_speakers=2, dim=4, frames_per_speaker=400, sentence_len_frames=200
        )
        manifest = write_corpus(cfg, tmp_path / "corpus")
        # every sentence of spk001 ends with a kernel 3 frames past its 200 frames
        for ali in sorted((tmp_path / "corpus" / "spk001").glob("*.ali")):
            lines = ali.read_text().splitlines()
            sentence_id, label, start, end = lines[-1].split()
            lines[-1] = f"{sentence_id} {label} {start} {int(end) + 3}"
            ali.write_text("\n".join(lines) + "\n")
        argv = ["eval-phonetic", "--manifest", str(manifest), "--selectors", "All"]
        argv += ["--min-tests", "0", "--train-seconds", "2", "--test-frames", "50"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(
            r"error: speaker spk001, sentence spk001_s00\d: kernel \[\d+, 202\] "
            r"exceeds track length 200\n",
            err,
        ), err

    @pytest.mark.parametrize("seconds", ["-1", "0", "0.01"])
    def test_train_seconds_under_two_frames_is_data_error(
        self, corpus_dir, tmp_path, capsys, seconds
    ):
        store = tmp_path / "store"
        code = main(
            [
                "train",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--train-seconds", seconds,
                "--out", str(store),
            ]
        )
        assert code == 2
        assert f"duration {float(seconds):g} s" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize(
        "speaker_id", ["x/a", "a\\b", ".hidden"], ids=["slash", "backslash", "hidden"]
    )
    def test_unsafe_speaker_id_is_data_error(self, corpus_dir, tmp_path, capsys, speaker_id):
        manifest = corpus_dir / "manifest.json"
        doc = json.loads(manifest.read_text())
        doc["speakers"][0]["id"] = speaker_id
        manifest.write_text(json.dumps(doc))
        store = tmp_path / "store"
        assert main(["train", "--manifest", str(manifest), "--out", str(store)]) == 2
        assert repr(speaker_id) in capsys.readouterr().err
        assert not store.exists()

    def test_overflowing_train_seconds_is_data_error(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        manifest = str(corpus_dir / "manifest.json")
        argv = ["train", "--manifest", manifest, "--train-seconds", "1e307", "--out", str(store)]
        assert main(argv) == 2
        assert "duration 1e+307 s is not a finite number of frames" in capsys.readouterr().err
        assert not store.exists()

    @pytest.mark.parametrize(
        "speakers, named",
        [
            ([], "no speakers to train"),
            ([{"id": "a", "sentences": []}], "speaker a: no sentences to train on"),
        ],
        ids=["no-speakers", "no-sentences"],
    )
    def test_untrainable_manifest_is_data_error(self, tmp_path, capsys, speakers, named):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"seed": 0, "speakers": speakers}))
        store = tmp_path / "store"
        assert main(["train", "--manifest", str(manifest), "--out", str(store)]) == 2
        assert named in capsys.readouterr().err
        assert not store.exists()

    def test_train_seconds_beyond_material_is_data_error(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        code = main(
            [
                "train",
                "--manifest", str(corpus_dir / "manifest.json"),
                "--train-seconds", "27",
                "--out", str(store),
            ]
        )
        assert code == 2
        assert "speaker spk000: 2600 frames < 2700" in capsys.readouterr().err
        assert not store.exists()

    def test_features_of_another_dimension_are_data_error(self, corpus_dir, tmp_path, capsys):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        features = np.loadtxt(corpus_dir / "spk000" / "s000.csv", delimiter=",")
        narrow = tmp_path / "narrow.csv"
        np.savetxt(narrow, features[:, :5], delimiter=",")
        assert main(["identify", "--store", str(store), str(narrow)]) == 2
        err = capsys.readouterr().err
        assert "narrow.csv" in err
        assert "dimension 5" in err and "store's 6" in err

    @pytest.mark.parametrize(
        "text, named",
        [
            ("1,2,3,4,5,6\n1,2,3\n", "number of columns changed"),
            ("1,2,3,4,x,6\n", "could not convert"),
            ("", "no feature rows"),
            ("\n\n", "no feature rows"),
        ],
        ids=["ragged", "non-numeric", "empty", "blank-lines"],
    )
    def test_malformed_features_are_data_errors(self, corpus_dir, tmp_path, capsys, text, named):
        store = tmp_path / "store"
        main(["train", "--manifest", str(corpus_dir / "manifest.json"), "--out", str(store)])
        bad = tmp_path / "bad.csv"
        bad.write_text(text)
        assert main(["identify", "--store", str(store), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.csv" in err and named in err
        assert "usecols" not in err

    @pytest.mark.parametrize(
        "command, sentences, text, named",
        [
            ("train", "s003", "", "no feature rows"),
            ("train", "s003", "1,2,3,4,5\n6,7,8,9,10\n", "5 feature columns"),
            ("eval-duration", "s*", "1,2,3,4,5\n6,7,8,9,10\n", "5 feature columns"),
            ("eval-phonetic", "s003", "1,2,3,4,5,6\n1,2,3\n", "number of columns changed"),
            ("eval-phonetic", "s003", "1,2,3,4,x,6\n", "could not convert"),
        ],
        ids=[
            "train-empty",
            "train-narrow-sentence",
            "duration-narrow-speaker",
            "phonetic-ragged",
            "phonetic-non-numeric",
        ],
    )
    def test_malformed_manifest_features_are_data_errors(
        self, corpus_dir, tmp_path, capsys, command, sentences, text, named
    ):
        for path in (corpus_dir / "spk001").glob(f"{sentences}.csv"):
            path.write_text(text)
        args = [command, "--manifest", str(corpus_dir / "manifest.json")]
        if command == "train":
            args += ["--out", str(tmp_path / "store")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "spk001/s00" in err and named in err
        assert "usecols" not in err
        assert not (tmp_path / "store").exists()

    @pytest.mark.parametrize("command", ["train", "eval-duration", "eval-phonetic"])
    @pytest.mark.parametrize(
        "edit, named",
        [
            (lambda doc: {}, "manifest field 'speakers' is missing"),
            (lambda doc: [doc], "manifest is not a JSON object"),
            (lambda doc: {**doc, "speakers": "spk000"}, "'speakers' is not an array"),
            (
                lambda doc: {**doc, "speakers": [{"sentences": []}, *doc["speakers"]]},
                "speakers[0] field 'id' is missing",
            ),
            (
                lambda doc: {**doc, "speakers": [*doc["speakers"], {"id": "x"}]},
                "speakers[3] field 'sentences' is missing",
            ),
            (
                lambda doc: {**doc, "speakers": [{"id": "x", "sentences": [{"features": 1}]}]},
                "speakers[0].sentences[0] field 'features' is not a string",
            ),
            (lambda doc: {**doc, "seed": "many"}, "'seed' is not an integer"),
            (lambda doc: {**doc, "seed": 2.7}, "'seed' is not an integer"),
            (lambda doc: {**doc, "seed": True}, "'seed' is not an integer"),
            (lambda doc: {**doc, "seed": "3"}, "'seed' is not an integer"),
            (
                lambda doc: {**doc, "speakers": [{"id": "x", "sentences": [{}]}]},
                "exactly one of 'features' or 'audio'",
            ),
            (
                lambda doc: {**doc, "speakers": doc["speakers"] * 2},
                "duplicate speaker ids",
            ),
            (
                lambda doc: {
                    **doc,
                    "speakers": [doc["speakers"][0], {**doc["speakers"][1], "id": ""}],
                },
                "speakers[1] field 'id' is empty",
            ),
        ],
        ids=[
            "empty", "list", "speakers-string", "no-id", "no-sentences", "number-path",
            "seed", "seed-float", "seed-bool", "seed-string", "no-source", "duplicate-id",
            "empty-id",
        ],
    )
    def test_malformed_manifest_is_data_error(
        self, corpus_dir, tmp_path, capsys, command, edit, named
    ):
        manifest = corpus_dir / "manifest.json"
        manifest.write_text(json.dumps(edit(json.loads(manifest.read_text()))))
        args = [command, "--manifest", str(manifest)]
        if command == "train":
            args += ["--out", str(tmp_path / "store")]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert "manifest.json" in err and named in err
        assert not (tmp_path / "store").exists()

    def test_unknown_frontend_config_key_is_data_error(self, tmp_path):
        config = tmp_path / "fc.json"
        config.write_text(json.dumps({"frame_length": 512}))
        wav = tmp_path / "x.wav"
        save_wav(wav, np.zeros(16000, dtype=np.int16), 16000)
        code = main(
            ["extract", str(wav), "--config", str(config), "--out", str(tmp_path / "o.csv")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "doc, named",
        [
            ({"hop": 160.0}, "hop must be an integer, got 160.0"),
            ({"hop": True}, "hop must be an integer, got True"),
            ({"n_filters": 24.5}, "n_filters must be an integer, got 24.5"),
            ({"log_floor": True}, "log_floor must be a finite number, got True"),
            ({"mel_low": False}, "mel_low must be a finite number, got False"),
            ({"mel_high": "4000"}, "mel_high must be a finite number, got '4000'"),
        ],
        ids=[
            "float-hop", "boolean-hop", "float-filters", "boolean-floor", "boolean-low",
            "string-high",
        ],
    )
    def test_non_integer_frontend_size_is_data_error(self, tmp_path, capsys, doc, named):
        config = tmp_path / "fc.json"
        config.write_text(json.dumps(doc))
        wav = tmp_path / "x.wav"
        save_wav(wav, np.zeros(8000, dtype=np.int16), 16000)
        out = tmp_path / "o.csv"
        assert main(["extract", str(wav), "--config", str(config), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert str(config) in err and named in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "content, named",
        [
            (b'{"seed": "\xe9"}', "can't decode byte 0xe9"),
            (b'{"seed": 1,', "Expecting property name"),
            (b"[]", "is not a JSON object"),
        ],
        ids=["non-utf8", "truncated", "list"],
    )
    @pytest.mark.parametrize(
        "command",
        [
            ["eval-phonetic", "--manifest", "{bad}"],
            ["eval-duration", "--manifest", "{manifest}", "--config", "{bad}"],
            ["extract", "{wav}", "--config", "{bad}", "--out", "{out}"],
            ["train", "--manifest", "{manifest}", "--config", "{bad}", "--out", "{out}"],
            ["eval-phonetic", "--manifest", "{manifest}", "--taxonomy", "{bad}"],
        ],
        ids=["manifest", "protocol-config", "extract-config", "train-config", "taxonomy"],
    )
    def test_unreadable_document_is_data_error(
        self, corpus_dir, tmp_path, capsys, command, content, named
    ):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        wav = tmp_path / "x.wav"
        save_wav(wav, np.zeros(8000, dtype=np.int16), 16000)
        paths = {
            "bad": bad, "manifest": corpus_dir / "manifest.json", "wav": wav, "out": tmp_path / "o"
        }
        assert main([arg.format(**paths) for arg in command]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: ") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("flag", ["--separation", "--class-spread"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_synthetic_spread_is_data_error(self, tmp_path, capsys, flag, value):
        out = tmp_path / "c"
        assert main(["synth-corpus", "--out", str(out), flag, value]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()
