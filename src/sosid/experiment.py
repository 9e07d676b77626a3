"""Utterance-duration and phonetic-content identification protocols.

Both protocols run on one skeleton and differ only in their tests. Each
takes a :class:`LoadedCorpus` of at least 2 speakers, lays every speaker's
sentences end to end in a seeded random order (silence handling, if any,
happened upstream; nothing is stripped here), builds the reference models
from the leading training seconds of that stream, and scores every test of
a cell against every speaker for every requested measure, at
``FRAMES_PER_SECOND``.

Duration protocol: for each training duration, the remainder is cut into
consecutive test blocks of each test duration, capped per speaker.

Phonetic protocol: tests come from the material after the training
seconds only: phone kernels are widened, frames matching a phoneme or
class selector are pooled per speaker, and the pool is cut into fixed
one-second tests. It runs speaker by speaker, in two passes over the
stream: the first takes each speaker's sentences up to the training
seconds and returns their raw moments, and the second takes the rest and
returns, for every selector, only the speaker's tallies of tests and
correct decisions. A sentence is indexed once per pass at most, so a
corpus whose sentences are read from disk when indexed
(:func:`_manifest_corpus`) is never held whole: a process holds one
speaker's sentences at a time.

Either protocol builds, factorizes and scores tests ``_CELL_CHUNK`` at a
time (the phonetic protocol a speaker's tests of one selector), so no
process holds a whole cell's models.

Reported metrics per cell: the global percentage of correct decisions over
all tests, and the unweighted mean over speakers of each speaker's own
percentage.
"""

from __future__ import annotations

import collections
import hashlib
import io
import json
import multiprocessing
import multiprocessing.connection
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateModelError,
    InsufficientDataError,
    SosidError,
    json_document,
)
from .frontend import (
    FrontendConfig,
    extract_features,
    load_features_csv,
    load_wav,
)
from .gaussian import (
    SegmentMoments,
    _block_moments,
    _check_count,
    _concat_moments,
    _raw_moments,
    stack_moments,
)
from .identify import SpeakerRegistry, decisions_from_scores
from .measures import MEASURE_KINDS, SC_CONVENTIONS, SC_DECOMPOSITION, measure_matrices
from .phonetic import (
    CLASS_ORDER,
    DEFAULT_POST_FRAMES,
    DEFAULT_PRE_FRAMES,
    PhonemeClassTaxonomy,
    assemble_tests,
    default_taxonomy,
    expand_kernels,
    parse_alignment,
    select_frames,
)

FRAMES_PER_SECOND = 100  # 10 ms frame period

# Tests per chunk of a cell: each chunk is built, factorized and scored, and
# dropped, before the next is built, so a cell never holds all its models.
_CELL_CHUNK = 256

# Selected frames pooled before they are cut into tests; at p = 24 such a pool
# takes a sixth of the bytes of a chunk's covariances.
_POOL_FRAMES = 1024

# Stream tag separating the sentence-shuffle RNG from data-generation RNGs
# that may share the same corpus seed.
_SHUFFLE_STREAM = 2


def _checked_measures(kinds, sc_convention: str) -> tuple:
    """``kinds`` in report order; a ConfigurationError for a kind or convention sosid lacks."""
    unknown = set(kinds) - set(MEASURE_KINDS)
    if unknown:
        raise ConfigurationError(f"unknown measures: {sorted(unknown)}")
    if sc_convention not in SC_CONVENTIONS:
        raise ConfigurationError(f"unknown mu_sc convention {sc_convention!r}")
    return tuple(kind for kind in MEASURE_KINDS if kind in kinds)


def _seconds_to_frames(seconds: float) -> int:
    """Frames in ``seconds`` of material; a ConfigurationError naming it below 2 or not finite."""
    if isinstance(seconds, bool) or not isinstance(seconds, numbers.Real):
        raise ConfigurationError(f"duration {seconds!r} is not a number")
    try:
        frames = round(float(seconds) * FRAMES_PER_SECOND)
    except (OverflowError, ValueError):
        raise ConfigurationError(
            f"duration {seconds} s is not a finite number of frames"
        ) from None
    if frames < 2:
        raise ConfigurationError(
            f"duration {seconds:g} s is {frames} frame(s) at "
            f"{FRAMES_PER_SECOND} frames per second; a model needs at least 2"
        )
    return frames


def _digest(payload: dict) -> str:
    """Short SHA-256 of a protocol config's canonical JSON; written into every report."""
    text = json.dumps(payload, sort_keys=True, ensure_ascii=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class SentenceRef:
    """Paths of one sentence's data; features or audio, plus alignment."""

    features: str | None = None
    audio: str | None = None
    alignment: str | None = None

    def __post_init__(self):
        if (self.features is None) == (self.audio is None):
            raise ConfigurationError(
                "each sentence needs exactly one of 'features' or 'audio'"
            )


@dataclass(frozen=True)
class CorpusManifest:
    """Paths and seed describing an experiment corpus."""

    speakers: tuple
    seed: int

    def __post_init__(self):
        if self.seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {self.seed}")
        ids = [speaker_id for speaker_id, _ in self.speakers]
        if len(set(ids)) != len(ids):
            raise ConfigurationError("duplicate speaker ids in manifest")


def _manifest_field(obj, where: str, key: str, kind, optional: bool = False):
    """``obj[key]`` of a manifest document; a ConfigurationError if missing or ill-typed."""
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{where} is not a JSON object")
    value = obj.get(key)
    if isinstance(value, kind) or (optional and value is None):
        return value
    problem = "missing" if key not in obj else "not an array" if kind is list else "not a string"
    raise ConfigurationError(f"{where} field {key!r} is {problem}")


def load_manifest(path) -> CorpusManifest:
    """Read a manifest JSON file; relative paths stay relative here.

    A missing or ill-typed field, an empty speaker id, or a manifest that
    breaks a rule of :class:`SentenceRef` or :class:`CorpusManifest`, is a
    ConfigurationError naming the file.
    """
    with json_document(path, "manifest") as doc:
        speakers = []
        for i, entry in enumerate(_manifest_field(doc, "manifest", "speakers", list)):
            where = f"speakers[{i}]"
            speaker_id = _manifest_field(entry, where, "id", str)
            if not speaker_id:
                raise ConfigurationError(f"{where} field 'id' is empty")
            sentences = tuple(
                SentenceRef(
                    *(
                        _manifest_field(item, f"{where}.sentences[{j}]", key, str, True)
                        for key in ("features", "audio", "alignment")
                    )
                )
                for j, item in enumerate(_manifest_field(entry, where, "sentences", list))
            )
            speakers.append((speaker_id, sentences))
        seed = doc.get("seed", 0)
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise ConfigurationError("manifest field 'seed' is not an integer")
        return CorpusManifest(speakers=tuple(speakers), seed=seed)


@dataclass(frozen=True)
class LoadedSentence:
    """One sentence's feature matrix and optional alignment track."""

    frames: np.ndarray
    alignment: object = None


@dataclass(frozen=True)
class LoadedCorpus:
    """(speaker_id, sentences) pairs plus the seed.

    ``sentences`` is a sequence of :class:`LoadedSentence`: a tuple of loaded
    ones, or a :class:`_SentenceReads` that reads one each time it is indexed.
    """

    speakers: tuple
    seed: int


def _read_sentence(base: Path, cfg: FrontendConfig, dim, ref: SentenceRef) -> LoadedSentence:
    """One sentence; the frames' error, then a column count other than ``dim``
    (``None``: any), then the alignment's error, in a serial read's order.
    """
    if ref.features is not None:
        frames = load_features_csv(base / ref.features).vectors
    else:
        frames = extract_features(load_wav(base / ref.audio), cfg).vectors
    if dim is not None and frames.shape[1] != dim:
        raise SosidError(
            f"{base / (ref.features or ref.audio)}: {frames.shape[1]} feature "
            f"columns, but the corpus's earlier sentences have {dim}"
        )
    alignment = parse_alignment(base / ref.alignment) if ref.alignment else None
    return LoadedSentence(frames=frames, alignment=alignment)


def _outcome(fn, item) -> tuple:
    """``fn(item)`` or the exception it raised, and every warning it raised, in order."""
    value = error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            value = fn(item)
        except Exception as exc:  # raised again by the calling process, in item order
            error = exc
    return value, error, [(w.message, w.category, w.filename, w.lineno) for w in caught]


def _send_outcomes(fn, items, conn) -> None:
    """Worker body: send the :func:`_outcome` of each of ``items``, in order, down ``conn``."""
    for item in items:
        conn.send(_outcome(fn, item))


def _replayed(outcome):
    """An outcome replayed: its warnings re-emitted here, in order, then its
    exception raised, or else its value returned.

    Each warning goes through ``warn_explicit`` with the module and the
    registry of the code that raised it, so this process's filters decide,
    ``"default"`` and ``"error"`` included, as if it had been raised here.
    """
    value, error, caught = outcome
    if caught:
        modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
        for message, category, filename, lineno in caught:
            module = modules.get(filename)
            name = getattr(module, "__name__", None)
            registry = vars(module).setdefault("__warningregistry__", {}) if module else None
            warnings.warn_explicit(message, category, filename, lineno, name, registry)
    if error is not None:
        raise error
    return value


def _outcomes(fn, items: list, conns: list) -> list:
    """The :func:`_outcome` of every item, with P = ``len(conns) + 1``.

    ``conns[w]`` sends the outcomes of items w, w + P, w + 2P, ... in order,
    and this process computes items P - 1, 2P - 1, ... itself. After each of
    its own it reads every outcome that is ready on every pipe, so that no
    worker waits long for this process to take its results: one outcome of
    a sentence read can nearly fill a pipe.
    """
    processes = len(conns) + 1
    outcomes = [None] * len(items)
    # the items each worker has still to send, in order
    pending = {
        conn: collections.deque(range(w, len(items), processes)) for w, conn in enumerate(conns)
    }

    def receive(timeout):
        busy = [conn for conn in conns if pending[conn]]
        for conn in multiprocessing.connection.wait(busy, timeout):
            while pending[conn] and conn.poll():
                outcomes[pending[conn].popleft()] = conn.recv()

    for j in range(processes - 1, len(items), processes):
        outcomes[j] = _outcome(fn, items[j])
        receive(timeout=0)
    while any(pending.values()):
        receive(timeout=None)
    return outcomes


def _ordered_map(fn, items: list) -> list:
    """The list of ``fn(item)`` over ``items``, in order, computed on every usable CPU.

    It serves :func:`load_corpus`'s sentence reads, the duration
    protocol's cells, the phonetic protocol's speakers (read twice: the
    training sentences reduced to raw moments, then the rest to tallies),
    ``sosid train``'s speakers (each read and reduced to raw moments) and
    :func:`sosid.synthetic.write_corpus`'s speakers (each generated and
    written). ``fn`` and the items reach the workers by ``fork``, not by
    pickling; each outcome comes back pickled, so it should be small (a
    speaker's moments or tallies, or ``None`` for a write): an outcome of a
    megabyte blocks its worker on the pipe until this process reads it.

    With P >= 2 CPUs in ``os.sched_getaffinity`` and as many items, this
    process computes every P-th item itself and P - 1 ``fork``ed workers take
    the others round robin, each sending its outcomes down its own pipe.
    Each item runs under :func:`_outcome`. Once every outcome is in and
    every worker has exited (or been killed, if collecting failed), they are
    replayed in item order: an item's warnings are re-emitted, and then its
    exception raised, when its turn comes, so the warnings the caller sees
    and the first error it gets are a serial run's.
    Otherwise (one CPU, one item, no ``fork``, or a daemonic process, which
    may not have children) it is the builtin ``map``.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cpus, len(items))
    if (
        processes < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        return list(map(fn, items))
    # fork, not spawn: a spawned worker re-imports numpy and scipy on every run
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for w in range(processes - 1):
            recv_end, send_end = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_send_outcomes, args=(fn, items[w::processes], send_end))
            worker.start()
            send_end.close()
            workers.append((worker, recv_end))
        outcomes = _outcomes(fn, items, [conn for _, conn in workers])
    except BaseException:
        for worker, _ in workers:
            worker.kill()
        raise
    finally:
        for worker, conn in workers:
            worker.join()
            conn.close()
    return [_replayed(outcome) for outcome in outcomes]


def load_corpus(
    manifest,
    frontend_config: FrontendConfig | None = None,
    base_dir=None,
) -> LoadedCorpus:
    """Materialize a manifest: read feature CSVs or extract from WAVs.

    Sentences are read on every CPU this process may use
    (``os.sched_getaffinity``): this process and one ``fork``ed worker per
    further CPU, or this process alone where there is one such CPU, no
    ``fork``, or a daemonic caller; there is no option. Either way the
    corpus, its warnings, and the first error raised (its type and
    message), are those of a serial read in manifest order, and no worker
    outlives the call. ``taskset -c 0`` gives a serial run.
    """
    corpus = _manifest_corpus(manifest, frontend_config, base_dir)
    # (a speaker's sentences, index) of every sentence, in manifest order
    items = [(sentences, i) for _, sentences in corpus.speakers for i in range(len(sentences))]

    def read(item):
        sentences, index = item
        return sentences[index]

    # the first sentence is read here, so it fixes the others' column count before any fork
    loaded = iter([read(items[0]), *_ordered_map(read, items[1:])] if items else [])
    speakers = [(sid, tuple(next(loaded) for _ in sentences)) for sid, sentences in corpus.speakers]
    return LoadedCorpus(speakers=tuple(speakers), seed=corpus.seed)


class _SentenceReads:
    """A speaker's manifest sentences as a sequence: indexing reads one with
    ``read``, again on every access, so only its caller holds the frames."""

    def __init__(self, read, refs):
        self._read, self._refs = read, refs

    def __len__(self) -> int:
        return len(self._refs)

    def __getitem__(self, index) -> LoadedSentence:
        return self._read(self._refs[index])


def _manifest_corpus(manifest, frontend_config=None, base_dir=None) -> LoadedCorpus:
    """A manifest as a corpus whose sentences are read when they are indexed.

    It takes :func:`load_corpus`'s arguments, but reads nothing itself. The
    manifest's first sentence fixes the column count of the others: a
    process that has not read it reads it before the first sentence it
    reads.
    """
    if isinstance(manifest, (str, Path)):
        base_dir = Path(manifest).parent if base_dir is None else Path(base_dir)
        manifest = load_manifest(manifest)
    base = Path(base_dir) if base_dir is not None else Path(".")
    cfg = frontend_config if frontend_config is not None else FrontendConfig()
    refs = [ref for _, speaker_refs in manifest.speakers for ref in speaker_refs]
    dim = None

    def read(ref):
        nonlocal dim
        if dim is None:
            first = _read_sentence(base, cfg, None, refs[0])
            dim = first.frames.shape[1]
            if ref is refs[0]:
                return first
        return _read_sentence(base, cfg, dim, ref)

    speakers = tuple(
        (speaker_id, _SentenceReads(read, speaker_refs))
        for speaker_id, speaker_refs in manifest.speakers
    )
    return LoadedCorpus(speakers=speakers, seed=manifest.seed)


@dataclass(frozen=True)
class DurationProtocolConfig:
    """Grid of training and test durations, in seconds."""

    train_durations: tuple = (15.0, 10.0, 6.0, 3.0, 2.0)
    test_durations: tuple = (10.0, 6.0, 3.0, 2.0, 1.0)
    max_tests_per_speaker: int = 20
    measures: tuple = MEASURE_KINDS
    sc_convention: str = SC_DECOMPOSITION

    def __post_init__(self):
        if not self.train_durations or not self.test_durations:
            raise ConfigurationError("duration lists must be non-empty")
        cap = self.max_tests_per_speaker
        if isinstance(cap, bool) or not isinstance(cap, int):
            raise ConfigurationError(f"max_tests_per_speaker must be an integer, got {cap!r}")
        if cap < 1:
            raise ConfigurationError("max_tests_per_speaker must be >= 1")
        # stored as they run (durations as distinct frame counts, longest first),
        # so the digest names the grid that runs
        object.__setattr__(self, "measures", _checked_measures(self.measures, self.sc_convention))
        for name in ("train_durations", "test_durations"):
            frames = sorted({_seconds_to_frames(s) for s in getattr(self, name)}, reverse=True)
            object.__setattr__(self, name, tuple(f / FRAMES_PER_SECOND for f in frames))

    def digest(self) -> str:
        return _digest(
            {
                "train": list(self.train_durations),
                "test": list(self.test_durations),
                "cap": self.max_tests_per_speaker,
                "measures": list(self.measures),
                "sc": self.sc_convention,
                "fps": FRAMES_PER_SECOND,
            }
        )


@dataclass(frozen=True)
class PhoneticProtocolConfig:
    """Selectors, measures, training seconds and test and kernel-widening frames."""

    taxonomy: PhonemeClassTaxonomy = field(default_factory=default_taxonomy)
    selectors: tuple = CLASS_ORDER
    measures: tuple = MEASURE_KINDS
    train_seconds: float = 15.0
    test_len: int = 100
    min_tests: int = 40
    sc_convention: str = SC_DECOMPOSITION
    pre_frames: int = DEFAULT_PRE_FRAMES
    post_frames: int = DEFAULT_POST_FRAMES

    def __post_init__(self):
        train_f = _seconds_to_frames(self.train_seconds)
        object.__setattr__(self, "train_seconds", train_f / FRAMES_PER_SECOND)
        for name in ("test_len", "min_tests", "pre_frames", "post_frames"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        if self.test_len < 2:
            raise ConfigurationError(f"test length must be at least 2 frames, got {self.test_len}")
        if self.min_tests < 0:
            raise ConfigurationError(f"min_tests must be >= 0, got {self.min_tests}")
        if self.pre_frames < 0 or self.post_frames < 0:
            raise ConfigurationError(
                "kernel widening must be >= 0 frames, "
                f"got pre {self.pre_frames}, post {self.post_frames}"
            )
        object.__setattr__(self, "measures", _checked_measures(self.measures, self.sc_convention))
        if not self.selectors:
            raise ConfigurationError("selectors must be non-empty")
        for index, selector in enumerate(self.selectors):
            self.taxonomy.members(selector)  # fail fast on unknown selectors
            if selector in self.selectors[:index]:
                raise ConfigurationError(f"selector {selector!r} is given more than once")

    def digest(self) -> str:
        return _digest(
            {
                "train_seconds": self.train_seconds,
                "test_len": self.test_len,
                "selectors": list(self.selectors),
                "kinds": list(self.measures),
                "min_tests": self.min_tests,
                "sc": self.sc_convention,
                "pre": self.pre_frames,
                "post": self.post_frames,
                "fps": FRAMES_PER_SECOND,
                "taxonomy": {k: sorted(v) for k, v in self.taxonomy.classes.items()},
            }
        )


@dataclass(frozen=True)
class ReportCell:
    """Metrics of one experiment cell.

    ``n_loaded`` counts the cell's tests whose covariance needed diagonal
    loading; it is a diagnostic that :func:`emit_report` does not write.
    """

    global_accuracy: float
    per_speaker_mean_accuracy: float
    n_tests: int
    low_count: bool = False
    n_loaded: int = 0


@dataclass
class ExperimentReport:
    """Ordered cells keyed by coordinate tuples, plus run metadata."""

    axes: tuple
    cells: dict = field(default_factory=dict)
    metadata: dict = field(default_factory=dict)


def compute_metrics(results) -> tuple:
    """(global %, per-speaker-mean %) from (speaker_id, correct) pairs."""
    results = list(results)
    if not results:
        raise ValueError("cannot compute metrics of an empty result list")
    per_speaker: dict[str, list] = {}
    for speaker_id, correct in results:
        per_speaker.setdefault(speaker_id, []).append(bool(correct))
    global_accuracy = 100.0 * sum(c for _, c in results) / len(results)
    speaker_means = [100.0 * sum(v) / len(v) for v in per_speaker.values()]
    return global_accuracy, sum(speaker_means) / len(speaker_means)


def _sentence_order(corpus: LoadedCorpus, index: int) -> np.ndarray:
    """Indices of the corpus's index-th speaker's sentences in their seeded
    random order; the same corpus seed always yields the same order, so the
    duration and phonetic protocols see identical training material."""
    rng = np.random.default_rng(
        np.random.SeedSequence([corpus.seed, _SHUFFLE_STREAM, index])
    )
    return rng.permutation(len(corpus.speakers[index][1]))


def _placed(sentences, order, offset: int = 0):
    """(offset, sentence) of each of ``sentences`` in ``order``, indexed one at a
    time as they are taken, the offset being where the sentence starts in the
    stream, the first at ``offset``."""
    for sentence_index in order:
        sentence = sentences[sentence_index]
        yield offset, sentence
        offset += len(sentence.frames)


def _speaker_stream(corpus: LoadedCorpus, index: int):
    """The concatenated frames of the index-th speaker's sentences in their
    seeded order, and the :func:`_placed` sentences."""
    placed = list(_placed(corpus.speakers[index][1], _sentence_order(corpus, index)))
    concat = (
        np.concatenate([sentence.frames for _, sentence in placed])
        if placed
        else np.empty((0, 0))
    )
    return concat, placed


def _speaker_streams(corpus: LoadedCorpus):
    """(speaker_id, concatenated frames, placed sentences) of every speaker.

    Neither protocol holds all streams at once; this is the plain reference
    their material is checked against.
    """
    return [
        (speaker_id, *_speaker_stream(corpus, index))
        for index, (speaker_id, _) in enumerate(corpus.speakers)
    ]


def _speaker_ids(corpus: LoadedCorpus) -> list:
    """The corpus's speaker ids; an InsufficientDataError below 2 speakers."""
    if len(corpus.speakers) < 2:
        raise InsufficientDataError("identification needs at least 2 speakers")
    return [speaker_id for speaker_id, _ in corpus.speakers]


def _short(speaker_id, n: int, needed: int, material: str) -> InsufficientDataError:
    """The error of a speaker with ``n`` frames, all it has, where ``needed`` are needed."""
    return InsufficientDataError(
        f"speaker {speaker_id}: {n} frames < {needed} needed for {material}"
    )


def _checked_speakers(corpus: LoadedCorpus, needed: int, material: str) -> tuple:
    """Speaker ids and frame counts; an InsufficientDataError below 2 speakers or ``needed``."""
    ids = _speaker_ids(corpus)
    n_frames = [sum(len(s.frames) for s in sentences) for _, sentences in corpus.speakers]
    for speaker_id, n in zip(ids, n_frames):
        if n < needed:
            raise _short(speaker_id, n, needed, material)
    return ids, n_frames


def _reference_registry(ids, moments, train_f: int) -> SpeakerRegistry:
    """Registry of one model per speaker from the raw (sums, outers, counts) moments
    of its first ``train_f`` frames; a reference that does not factorize is a
    DegenerateModelError naming its speaker."""
    try:
        return SpeakerRegistry(ids, stack_moments(moments))
    except DegenerateModelError as exc:
        raise DegenerateModelError(
            f"reference from {train_f} training vectors, speaker {ids[exc.row]}: {exc}"
        ) from exc


def _score_cells(registry, chunks, kinds, sc_convention, where="") -> tuple:
    """Every test scored against every speaker, for every measure kind, as
    (tallies, n_loaded).

    ``chunks`` yields ((sums, outers, counts), owners) pairs of raw test
    moments and their speakers. Each chunk is finalized, factorized, scored
    and reduced to decisions, and its stack dropped, before the next is
    pulled; all kinds of a chunk come from one ``measure_matrices`` call, so
    the terms they share are computed once. ``tallies`` maps each speaker
    with tests, in the order of its first test, to its test count followed
    by its correct decisions under each kind; ``n_loaded`` counts the tests
    whose covariance was loaded. A test that does not factorize is a
    DegenerateModelError naming the cell ``where`` and its speaker.
    """
    tallies, n_loaded = {}, 0
    for moments, owners in chunks:
        try:
            tests = stack_moments(moments)
        except DegenerateModelError as exc:
            raise DegenerateModelError(f"{where}, speaker {owners[exc.row]}: {exc}") from exc
        n_loaded += int(np.count_nonzero(tests.loadings))
        scores = measure_matrices(kinds, registry.stack, tests, sc_convention)
        del moments, tests  # else this chunk's models live on while the next is built
        decided = [decisions_from_scores(registry, scores[kind]) for kind in kinds]
        for owner, *decisions in zip(owners, *decided):
            tally = tallies.setdefault(owner, [0] * (1 + len(kinds)))
            tally[0] += 1
            for column, decision in enumerate(decisions, 1):
                tally[column] += decision == owner
    return tallies, n_loaded


def _sliced(moments, owners):
    """Chunks of a (sums, outers, counts) triple and its owners: views of at most
    ``_CELL_CHUNK`` rows each."""
    for lo in range(0, len(owners), _CELL_CHUNK):
        rows = slice(lo, lo + _CELL_CHUNK)
        yield tuple(m[rows] for m in moments), owners[rows]


def _filled(pieces, test_len: int):
    """Chunks of ``_CELL_CHUNK`` tests, and a last one of the rest, joined in order
    from (owner, sums, outers) pieces of ``test_len``-frame tests into arrays of
    their own, so the caller may finalize them in place; a chunk's arrays hold
    its tests only, however few."""
    waiting, owners = [], []

    def joined():
        nonlocal waiting, owners
        sums, outers = (np.concatenate(parts) for parts in zip(*waiting))
        chunk = (sums, outers, np.full(len(owners), float(test_len))), owners
        waiting, owners = [], []  # else the pieces live on beside their copy
        return chunk

    for owner, sums, outers in pieces:
        while len(sums):
            take = min(_CELL_CHUNK - len(owners), len(sums))
            waiting.append((sums[:take], outers[:take]))
            owners += [owner] * take
            sums, outers = sums[take:], outers[take:]
            if len(owners) == _CELL_CHUNK:
                yield joined()
    if owners:
        yield joined()


def _tallied_cells(parts, kinds, min_tests=None) -> dict:
    """One :class:`ReportCell` per kind from the (tallies, n_loaded) that
    :func:`_score_cells` returned for each part of a cell, in speaker order.

    The accuracies are :func:`compute_metrics`' of the cell's decisions, to
    the bit: the global one is ``100.0 * correct / tests``, and the
    per-speaker mean that of each speaker's ``100.0 * correct / tests``,
    summed in speaker order over the speakers with tests. With
    ``min_tests`` set, a cell without tests is low-count even at 0.
    """
    counts = [tally for tallies, _ in parts for tally in tallies.values()]
    n_loaded = sum(loaded for _, loaded in parts)
    n = sum(tally[0] for tally in counts)
    low = min_tests is not None and n < max(min_tests, 1)
    cells = {}
    for column, kind in enumerate(kinds, 1):
        accuracies = (0.0, 0.0)
        if n:
            means = [100.0 * tally[column] / tally[0] for tally in counts]
            correct = sum(tally[column] for tally in counts)
            accuracies = (100.0 * correct / n, sum(means) / len(means))
        cells[kind] = ReportCell(*accuracies, n, low_count=low, n_loaded=n_loaded)
    return cells


def _report(protocol, axes, seed, cfg, cells, min_tests=None) -> ExperimentReport:
    """The report of (coords, parts) cells, in cell order, for each of ``cfg``'s
    measures; see :func:`_tallied_cells`."""
    report = ExperimentReport(
        axes=(*axes, "measure"),
        metadata={"protocol": protocol, "seed": seed, "config": cfg.digest()},
    )
    for coords, parts in cells:
        for kind, cell in _tallied_cells(parts, cfg.measures, min_tests).items():
            report.cells[(*coords, kind)] = cell
    return report


def run_duration_experiment(
    corpus: LoadedCorpus, cfg: DurationProtocolConfig | None = None
) -> ExperimentReport:
    """Run the training-duration x test-duration grid over a corpus.

    The segment moments and the reference registries are computed here; the
    grid's cells are then scored on every CPU this process may use (see
    :func:`load_corpus`), and the report is that of a serial run, which
    ``taskset -c 0`` gives.
    """
    cfg = DurationProtocolConfig() if cfg is None else cfg
    cap = cfg.max_tests_per_speaker
    train_frames = [_seconds_to_frames(train_s) for train_s in cfg.train_durations]
    test_frames = [_seconds_to_frames(test_s) for test_s in cfg.test_durations]
    ids, n_frames = _checked_speakers(
        corpus,
        max(train_frames) + min(test_frames),
        f"{max(cfg.train_durations):g} s training plus one {min(cfg.test_durations):g} s test",
    )

    def cut_streams():
        # every edge of every cell; only the segment moments outlive the stream
        for index, n in enumerate(n_frames):
            concat, _ = _speaker_stream(corpus, index)
            edges = [
                _test_bounds(n, train_f, test_f, cap)
                for train_f in train_frames
                for test_f in test_frames
            ]
            yield concat, np.concatenate(edges)

    moments = SegmentMoments(cut_streams())
    registries = [
        _reference_registry(ids, moments.spans([[0, train_f]] * len(ids)), train_f)
        for train_f in train_frames
    ]

    def score(cell):
        # every test of one cell, its chunks sliced from the segment moments
        (train_s, test_s), registry, train_f, test_f = cell
        bounds = [_test_bounds(n, train_f, test_f, cap) for n in n_frames]
        owners = [sid for sid, b in zip(ids, bounds) for _ in range(len(b) - 1)]
        chunks = _sliced(moments.spans(bounds), owners)
        where = f"train_s {train_s:g}, test_s {test_s:g}"
        return _score_cells(registry, chunks, cfg.measures, cfg.sc_convention, where)

    cells = [
        ((train_s, test_s), registry, train_f, test_f)
        for train_s, train_f, registry in zip(cfg.train_durations, train_frames, registries)
        for test_s, test_f in zip(cfg.test_durations, test_frames)
    ]
    scored = _ordered_map(score, cells)
    tallied = [(cell[0], [part]) for cell, part in zip(cells, scored)]
    return _report("duration", ("train_s", "test_s"), corpus.seed, cfg, tallied)


def _test_bounds(n_frames: int, train_f: int, test_f: int, cap: int) -> np.ndarray:
    """Edges of a speaker's consecutive test blocks after ``train_f`` training frames."""
    n_blocks = min(cap, (n_frames - train_f) // test_f)
    # tests start at train_f, so they never reach into training frames
    return train_f + test_f * np.arange(n_blocks + 1)


def _test_segments(speaker_id, placed, train_f: int, pre_frames: int, post_frames: int) -> list:
    """(frames, segments) of each sentence of a stream that reaches past its
    ``train_f`` training frames, in stream order: the sentence's frame array
    and its widened kernels' (label, start, end), in sentence coordinates.
    """
    sentences = []
    for offset, sentence in placed:
        length = len(sentence.frames)
        if offset + length <= train_f:
            continue  # training-only material
        if sentence.alignment is None:
            raise AlignmentError(
                f"speaker {speaker_id}: a sentence in the test region has no alignment"
            )
        try:
            kernels = expand_kernels(sentence.alignment, pre_frames, post_frames, track_len=length)
        except AlignmentError as exc:
            raise AlignmentError(
                f"speaker {speaker_id}, sentence {sentence.alignment.sentence_id}: {exc}"
            ) from None
        segments = []
        for label, start, end in kernels:
            # segments straddling the training boundary are clipped so no
            # training frame can reach a test
            start = max(start, train_f - offset)
            if start <= end:
                segments.append((label, start, end))
        sentences.append((sentence.frames, segments))
    return sentences


def _pooled_moments(speaker_id, sentences, selector, taxonomy, test_len: int):
    """(speaker_id, sums, outers): raw moments of a speaker's tests from its
    (frames, segments) sentences, a few sentences at a time.

    The tests are the frames of the sentences that match ``selector``, pooled
    in order and cut into consecutive ``test_len``-frame blocks. Sentences
    are pooled until ``_POOL_FRAMES`` frames are waiting, and the frames
    after the last whole test begin the next pool, so the blocks are those
    of the speaker's whole pool without ever copying it. A speaker with
    tests gets one count check, as a block set of
    :func:`~sosid.gaussian.stack_blocks` does.
    """
    pending, checked = [], False
    for index, (frames, segments) in enumerate(sentences, 1):
        pending.append(select_frames(frames, segments, selector, taxonomy))
        if sum(map(len, pending)) < _POOL_FRAMES and index < len(sentences):
            continue
        pool = np.concatenate(pending)
        n = len(pool) // test_len
        pending = [pool[n * test_len :].copy()]
        if n:
            if not checked:
                _check_count(test_len, pool.shape[1])
                checked = True
            moments = _raw_moments(assemble_tests(pool, test_len))
            del pool  # only the moments and the frames left over wait on the consumer
            yield (speaker_id, *moments)


def run_phonetic_experiment(
    corpus: LoadedCorpus, cfg: PhoneticProtocolConfig | None = None, **fields
) -> ExperimentReport:
    """Score phonetically biased one-second tests against unbiased training.

    The protocol is ``cfg``, or the defaults, with ``fields`` set over it.
    Its speakers are taken on every CPU, as :func:`_ordered_map` says, in two
    passes. The first indexes each speaker's sentences in stream order until
    it has the training frames and returns their raw moments, from which
    this process builds the references. The second indexes the rest, from
    the sentence that reaches past the training frames, builds every
    selector's tests and scores them, a speaker's tests of one selector
    ``_CELL_CHUNK`` at a time, and returns only the speaker's tallies.

    The warnings, and the first error, are those of a serial run in this
    order: each speaker's training sentences (read errors, then a speaker
    short of the training frames), then the references, then each
    speaker's test sentences (read errors, then a speaker short of one
    test, then its alignments), then its selectors' tests. A speaker's
    shortfall names all its frames.
    """
    cfg = PhoneticProtocolConfig(**fields) if cfg is None else replace(cfg, **fields)
    train_f = _seconds_to_frames(cfg.train_seconds)
    ids = _speaker_ids(corpus)
    needed = train_f + cfg.test_len
    material = f"{cfg.train_seconds:g} s training plus one test"

    def training(index):
        # (raw moments of the first train_f frames, (position, offset) in the
        # stream of the first sentence that reaches past them)
        blocks, end = [], 0
        order = _sentence_order(corpus, index)
        for position, (offset, sentence) in enumerate(_placed(corpus.speakers[index][1], order)):
            blocks.append(sentence.frames)
            end = offset + len(sentence.frames)
            if end >= train_f:
                first_test = (position, offset) if end > train_f else (position + 1, end)
                return _block_moments(np.concatenate(blocks)[None, :train_f]), first_test
        raise _short(ids[index], end, needed, material)

    trained = _ordered_map(training, list(range(len(ids))))
    registry = _reference_registry(ids, _concat_moments(m for m, _ in trained), train_f)

    def tallies(item):
        # {selector: (tallies, n_loaded)} of the index-th speaker's tests
        index, (position, offset) = item
        speaker_id, sentences = corpus.speakers[index]
        order = _sentence_order(corpus, index)[position:]
        placed = list(_placed(sentences, order, offset))
        n = placed[-1][0] + len(placed[-1][1].frames) if placed else offset
        if n < needed:
            raise _short(speaker_id, n, needed, material)
        tests = _test_segments(speaker_id, placed, train_f, cfg.pre_frames, cfg.post_frames)
        del placed  # their alignments go; their frames live on in tests
        by_selector = {}
        for selector in cfg.selectors:
            pieces = _pooled_moments(speaker_id, tests, selector, cfg.taxonomy, cfg.test_len)
            by_selector[selector] = _score_cells(
                registry,
                _filled(pieces, cfg.test_len),
                cfg.measures,
                cfg.sc_convention,
                f"selector {selector}",
            )
        return by_selector

    scored = _ordered_map(tallies, [(index, first) for index, (_, first) in enumerate(trained)])
    cells = [((sel,), [by_selector[sel] for by_selector in scored]) for sel in cfg.selectors]
    return _report("phonetic", ("selector",), corpus.seed, cfg, cells, cfg.min_tests)


def _format_axis_value(value) -> str:
    if isinstance(value, float):
        return format(value, "g")
    return str(value)


def emit_report(report: ExperimentReport, fmt: str = "csv") -> str:
    """Serialize a report deterministically as CSV or markdown."""
    if fmt == "csv":
        return _emit_csv(report)
    if fmt == "markdown":
        return _emit_markdown(report)
    raise ValueError(f"unknown report format {fmt!r}")


def _emit_csv(report: ExperimentReport) -> str:
    out = io.StringIO()
    for key, value in report.metadata.items():
        out.write(f"# {key}: {value}\n")
    header = list(report.axes) + [
        "global_accuracy",
        "per_speaker_mean_accuracy",
        "n_tests",
        "low_count",
    ]
    out.write(",".join(header) + "\n")
    for coords, cell in report.cells.items():
        row = [_format_axis_value(v) for v in coords]
        row.append(format(cell.global_accuracy, ".17g"))
        row.append(format(cell.per_speaker_mean_accuracy, ".17g"))
        row.append(str(cell.n_tests))
        row.append("1" if cell.low_count else "0")
        out.write(",".join(row) + "\n")
    return out.getvalue()


def _emit_markdown(report: ExperimentReport) -> str:
    out = io.StringIO()
    meta = ", ".join(f"{key}: {value}" for key, value in report.metadata.items())
    if meta:
        out.write(meta + "\n\n")
    header = list(report.axes) + ["global %", "per-speaker mean %", "tests"]
    out.write("| " + " | ".join(header) + " |\n")
    out.write("|" + "|".join(" --- " for _ in header) + "|\n")
    flagged = False
    for coords, cell in report.cells.items():
        row = [_format_axis_value(v) for v in coords]
        # a cell without tests has no accuracy; the CSV keeps its 0.0
        for accuracy in (cell.global_accuracy, cell.per_speaker_mean_accuracy):
            row.append(f"{accuracy:.1f}" if cell.n_tests else "n/a")
        tests = f"({cell.n_tests})"
        if cell.low_count:
            tests += " *"
            flagged = True
        row.append(tests)
        out.write("| " + " | ".join(row) + " |\n")
    if flagged:
        out.write("\n\\* cell has fewer tests than the configured minimum\n")
    return out.getvalue()
