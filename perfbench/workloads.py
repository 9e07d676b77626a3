"""The three benchmark workloads.

Each workload is one closed loop: a single client sends the next request
when the previous one has completed. A workload has four phases:

* ``setup``   makes the corpus (timed as ``setup_s``);
* ``enroll``  builds the speaker models the way this workload's users do
              (timed as ``enroll_s``);
* ``request`` one unit of user work (timed as ``request_s_*``);
* ``check``   compares a request's output with its reference (untimed).

The program is called through module attributes (``experiment.emit_report``
and so on) at call time, so the traced run's wrappers see every call.

Outputs are checked against references made at commit fac62ea
(``reference.json``, written by ``make_reference.py``): protocol reports
byte for byte by SHA-256, score sheets by decision and by score within
1e-9 relative. References exist for a pool of ``pool`` corpus seeds per
workload and a run uses corpus seed ``--seed mod pool``, so every run is
checked.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import shutil
from pathlib import Path

import numpy as np

import oracle
import wavgen

# importlib, because the package rebinds the name ``sosid.identify`` to the
# function of that name.
cli, experiment, gaussian, identify, synthetic = (
    importlib.import_module(f"sosid.{name}")
    for name in ("cli", "experiment", "gaussian", "identify", "synthetic")
)

REFERENCE_FILE = Path(__file__).with_name("reference.json")
KINDS = ("mu_g", "mu_gc", "mu_sc")

# Acceptance criterion 5 corpora.
GRID_CORPUS = dict(
    n_speakers=20,
    dim=24,
    separation=0.4,
    frame_correlation=0.92,
    frames_per_speaker=3600,
    sentence_len_frames=300,
)
PHONETIC_CORPUS = dict(
    n_speakers=20,
    dim=24,
    separation=0.4,
    class_spread=1.5,
    frame_correlation=0.9,
    frames_per_speaker=6000,
    sentence_len_frames=250,
)
WAV_CORPUS = dict(
    n_speakers=20, sentences=6, sentence_seconds=3.0, tests=1, test_seconds=2.0
)
ENROLL_SECONDS = 15.0  # duration-grid enrollment, as the grid's longest row


def _reference(workload: str) -> dict:
    if not REFERENCE_FILE.exists():
        return {}
    return json.loads(REFERENCE_FILE.read_text(encoding="utf-8")).get(workload, {})


def _report_decisions(text: str) -> int:
    """Sum of the n_tests column of a CSV report: one decision per test."""
    rows = [line.split(",") for line in text.splitlines() if not line.startswith("#")]
    column = rows[0].index("n_tests")
    return sum(int(row[column]) for row in rows[1:])


def _tree_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Workload:
    name = ""
    pool = 64
    setup_reps = 5
    enroll_reps = 5
    min_requests = 1

    def __init__(self, seed: int, work: Path, smoke: bool):
        self.corpus_seed = seed % self.pool
        self.reference = _reference(self.name).get(str(self.corpus_seed))
        self.work = work
        if smoke:
            self.setup_reps = self.enroll_reps = 1

    def retire(self, k: int) -> None:
        """Drop what setup repetition k left behind, outside the timed region."""

    def prepare(self) -> None:
        """Untimed work between setup and enrollment, such as oracles."""

    def diagnostics(self) -> dict:
        return {}


class _ProtocolWorkload(Workload):
    """Shared digest check of a protocol's CSV report."""

    def reference_of(self, n, output) -> str:
        return hashlib.sha256(output.encode("utf-8")).hexdigest()

    def make_reference(self) -> str:
        self.setup(0)
        return self.reference_of(0, self.request(0))

    def check(self, n, output) -> tuple:
        if not isinstance(output, str):
            return False, 0
        return self.reference_of(n, output) == self.reference, _report_decisions(output)


class DurationGrid(_ProtocolWorkload):
    """In-memory duration protocol on one acceptance criterion-5 corpus."""

    name = "duration-grid"
    enroll_reps = 30
    protocol = experiment.DurationProtocolConfig(max_tests_per_speaker=10)

    def setup(self, k: int) -> str:
        cfg = synthetic.SynthCorpusConfig(seed=self.corpus_seed, **GRID_CORPUS)
        self.corpus = synthetic.make_corpus(cfg)
        digest = hashlib.sha256()
        for speaker_id, sentences in self.corpus.speakers:
            digest.update(speaker_id.encode())
            for sentence in sentences:
                digest.update(sentence.frames.tobytes())
                digest.update(repr(sentence.alignment.entries).encode())
        return digest.hexdigest()

    def prepare(self) -> None:
        limit = round(ENROLL_SECONDS * 100)
        self.training = {
            speaker_id: np.concatenate([s.frames for s in sentences])[:limit]
            for speaker_id, sentences in self.corpus.speakers
        }

    def enroll(self) -> None:
        self.registry = identify.SpeakerRegistry()
        for speaker_id, frames in self.training.items():
            self.registry.register(speaker_id, gaussian.GaussianModel.from_frames(frames))

    def check_enroll(self) -> bool:
        models = {i: self.registry.model(i) for i in self.registry.ids}
        return list(models) == list(self.training) and all(
            oracle.models_match((m.mean, m.cov, m.count), oracle.model(self.training[i]))
            for i, m in models.items()
        )

    def request(self, n):
        report = experiment.run_duration_experiment(self.corpus, self.protocol)
        return experiment.emit_report(report, "csv")


class PhoneticDisk(_ProtocolWorkload):
    """`sosid eval-phonetic` over every class selector, corpus on disk."""

    name = "phonetic-disk"
    setup_reps = 3
    enroll_reps = 3
    spot_speakers = ("spk000", "spk005", "spk010", "spk015")

    def setup(self, k: int) -> str:
        cfg = synthetic.SynthCorpusConfig(seed=self.corpus_seed, **PHONETIC_CORPUS)
        self.manifest = synthetic.write_corpus(cfg, self.work / f"corpus-{k}")
        return _tree_digest(self.manifest.parent)

    def retire(self, k: int) -> None:
        shutil.rmtree(self.work / f"corpus-{k}")

    def enroll(self) -> int:
        self.store = self.work / "store"
        return cli.main(["train", "--manifest", str(self.manifest), "--out", str(self.store)])

    def check_enroll(self) -> bool:
        corpus = self.manifest.parent
        doc = json.loads(self.manifest.read_text(encoding="utf-8"))
        sentences = {s["id"]: s["sentences"] for s in doc["speakers"]}
        for speaker_id in self.spot_speakers:
            frames = np.concatenate(
                [np.loadtxt(corpus / s["features"], delimiter=",") for s in sentences[speaker_id]]
            )
            if not oracle.models_match(_stored_model(self.store, speaker_id), oracle.model(frames)):
                return False
        return len(list(self.store.glob("*.json"))) == len(sentences)

    def request(self, n):
        out = self.work / "phonetic.csv"
        code = cli.main(["eval-phonetic", "--manifest", str(self.manifest), "--out", str(out)])
        return out.read_text(encoding="utf-8") if code == 0 else code


def _stored_model(store: Path, speaker_id: str) -> tuple:
    doc = json.loads((store / f"{speaker_id}.json").read_text(encoding="utf-8"))
    mean = np.asarray(doc["mean"], dtype=float)
    cov = np.asarray(doc["covariance"], dtype=float).reshape(mean.size, mean.size)
    return mean, cov, int(doc["count"])


class CliWav(Workload):
    """`sosid extract` then `sosid identify --store` per 2 s test WAV."""

    name = "cli-wav"
    pool = 16
    min_requests = 200

    def __init__(self, seed, work, smoke):
        super().__init__(seed, work, smoke)
        if smoke:
            self.min_requests = len(KINDS)
        self.oracle_max_rel = 0.0
        self.oracle_decision_mismatches = 0

    @property
    def cycle(self) -> int:
        """Requests before the (test, measure) sequence repeats."""
        return WAV_CORPUS["n_speakers"] * WAV_CORPUS["tests"] * len(KINDS)

    def setup(self, k: int) -> str:
        self.manifest, self.tests = wavgen.write_wav_corpus(
            self.corpus_seed, self.work / f"corpus-{k}", **WAV_CORPUS
        )
        return _tree_digest(self.manifest.parent)

    def retire(self, k: int) -> None:
        shutil.rmtree(self.work / f"corpus-{k}")

    def prepare(self) -> None:
        """Oracle models of every speaker and score sheets of every request."""
        corpus = self.manifest.parent
        doc = json.loads(self.manifest.read_text(encoding="utf-8"))
        self.refs = {}
        for speaker in doc["speakers"]:
            frames = [
                oracle.features(*oracle.read_wav(corpus / s["audio"]))
                for s in speaker["sentences"]
            ]
            self.refs[speaker["id"]] = oracle.model(np.concatenate(frames))
        self.oracle_sheets = []
        for n in range(self.cycle):
            index, kind = self._pick(n)
            test = oracle.model(oracle.features(*oracle.read_wav(self.tests[index][1])))
            self.oracle_sheets.append(oracle.score_sheet(self.refs, test, kind))
        (self.work / "requests").mkdir(exist_ok=True)

    def enroll(self) -> int:
        self.store = self.work / "store"
        return cli.main(["train", "--manifest", str(self.manifest), "--out", str(self.store)])

    def check_enroll(self) -> bool:
        return len(list(self.store.glob("*.json"))) == len(self.refs) and all(
            oracle.models_match(_stored_model(self.store, speaker_id), ref)
            for speaker_id, ref in self.refs.items()
        )

    def _pick(self, n) -> tuple:
        return (n // len(KINDS)) % len(self.tests), KINDS[n % len(KINDS)]

    def request(self, n):
        index, kind = self._pick(n)
        wav = self.tests[index][1]
        features = self.work / "requests" / f"{wav.stem}.csv"
        sheet = self.work / "requests" / "sheet.csv"
        code = cli.main(["extract", str(wav), "--out", str(features)])
        if code == 0:
            code = cli.main(
                ["identify", "--store", str(self.store), "--measure", kind,
                 "--out", str(sheet), str(features)]
            )
        return code

    def reference_of(self, n, output) -> list:
        """[test id, decision, score per speaker] of the request's score sheet."""
        if output != 0:
            raise ValueError(f"request {n} exited with code {output}")
        header, row = (self.work / "requests" / "sheet.csv").read_text().splitlines()
        header, row = header.split(","), row.split(",")
        if header[2:] != list(self.refs) or len(row) != len(header):
            raise ValueError(f"request {n}: score sheet columns {header}")
        return [row[0], row[1], [float(value) for value in row[2:]]]

    def make_reference(self) -> list:
        self.setup(0)
        self.prepare()
        self.enroll()
        return [self.reference_of(n, self.request(n)) for n in range(self.cycle)]

    def check(self, n, output) -> tuple:
        """Decision exact, every score within 1e-9 relative of the reference.

        The exact oracle's deviation is recorded, not gated: the seed
        commit's one-pass covariance misses it by up to about 1e-8 relative
        on these features.
        """
        test_id, decision, scores = self.reference_of(n, output)
        want_id, want_decision, want_scores = self.reference[n % self.cycle]
        oracle_decision, oracle_scores = self.oracle_sheets[n % self.cycle]
        self.oracle_decision_mismatches += decision != oracle_decision
        self.oracle_max_rel = max(
            self.oracle_max_rel,
            max(abs(got - want) / abs(want) for got, want in zip(scores, oracle_scores)),
        )
        ok = (
            test_id == want_id
            and decision == want_decision
            and all(
                abs(got - want) <= 1e-9 * abs(want)
                for got, want in zip(scores, want_scores)
            )
        )
        return ok, 1

    def diagnostics(self) -> dict:
        return {
            "oracle_max_rel_error": self.oracle_max_rel,
            "oracle_decision_mismatches": self.oracle_decision_mismatches,
        }


WORKLOADS = {w.name: w for w in (DurationGrid, PhoneticDisk, CliWav)}
