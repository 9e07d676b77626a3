import json
import math

import numpy as np
import pytest

from sosid.cli import main
from sosid.experiment import DurationProtocolConfig
from sosid.frontend import load_features_csv, save_wav
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
            lambda doc: {**doc, "id": "spk000"},
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
            "duplicate-id",
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
            ([15, 1], "not a JSON object"),
            ("mu_g", "not a JSON object"),
            (15, "not a JSON object"),
        ],
        ids=[
            "fractional-cap", "boolean-cap", "scalar-train", "scalar-test", "scalar-measures",
            "string-duration", "array-doc", "string-doc", "number-doc",
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
        ],
        ids=["negative-train", "one-frame-train", "zero-test", "negative-test", "negative-min"],
    )
    def test_bad_phonetic_lengths_are_data_errors(self, corpus_dir, capsys, flags, named):
        code = main(["eval-phonetic", "--manifest", str(corpus_dir / "manifest.json"), *flags])
        assert code == 2
        assert named in capsys.readouterr().err

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
            "seed", "no-source", "duplicate-id", "empty-id",
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
