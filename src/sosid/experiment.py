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
one-second tests. It reads each sentence's own frame array and never
concatenates a whole stream, so it holds the corpus once.

Either protocol builds, factorizes and scores a cell's tests ``_CELL_CHUNK``
at a time, so no process holds a whole cell's models.

Reported metrics per cell: the global percentage of correct decisions over
all tests, and the unweighted mean over speakers of each speaker's own
percentage.
"""

from __future__ import annotations

import collections
import functools
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
    NotPositiveDefiniteError,
    SosidError,
    json_document,
)
from .frontend import (
    FrontendConfig,
    extract_features,
    load_features_csv,
    load_wav,
)
from .gaussian import SegmentMoments, _check_count, _factorize_stack, _raw_moments, stack_moments
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
    """Fully loaded corpus: (speaker_id, sentences) pairs plus the seed."""

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

    It serves :func:`load_corpus`'s sentence reads, both protocols' cells,
    ``sosid train``'s speakers (each read and reduced to raw moments) and
    :func:`sosid.synthetic.write_corpus`'s speakers (each generated and
    written). ``fn`` and the items reach the workers by ``fork``, not by
    pickling; each outcome comes back pickled, so it should be small (a
    speaker's moments, or ``None`` for a write): an outcome of a megabyte
    blocks its worker on the pipe until this process reads it.

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
    if isinstance(manifest, (str, Path)):
        base_dir = Path(manifest).parent if base_dir is None else Path(base_dir)
        manifest = load_manifest(manifest)
    base = Path(base_dir) if base_dir is not None else Path(".")
    cfg = frontend_config if frontend_config is not None else FrontendConfig()
    refs = [ref for _, speaker_refs in manifest.speakers for ref in speaker_refs]
    sentences = []
    if refs:
        sentences.append(_read_sentence(base, cfg, None, refs[0]))
        read = functools.partial(_read_sentence, base, cfg, sentences[0].frames.shape[1])
        sentences.extend(_ordered_map(read, refs[1:]))
    loaded = iter(sentences)
    speakers = []
    for speaker_id, speaker_refs in manifest.speakers:
        speakers.append((speaker_id, tuple(next(loaded) for _ in speaker_refs)))
    return LoadedCorpus(speakers=tuple(speakers), seed=manifest.seed)


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


def _speaker_order(corpus: LoadedCorpus, index: int) -> list:
    """Seeded random order of the sentences of the corpus's index-th speaker.

    Returns (offset, sentence) pairs, the offset being where the sentence
    starts in the concatenation of the order; the same corpus seed always
    yields the same order, so the duration and phonetic protocols see
    identical training material.
    """
    _, sentences = corpus.speakers[index]
    rng = np.random.default_rng(
        np.random.SeedSequence([corpus.seed, _SHUFFLE_STREAM, index])
    )
    placed = []
    offset = 0
    for sentence_index in rng.permutation(len(sentences)):
        sentence = sentences[sentence_index]
        placed.append((offset, sentence))
        offset += len(sentence.frames)
    return placed


def _speaker_stream(corpus: LoadedCorpus, index: int):
    """The concatenated frames of :func:`_speaker_order`'s sentences, and that order."""
    placed = _speaker_order(corpus, index)
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


def _checked_speakers(corpus: LoadedCorpus, needed: int, material: str) -> tuple:
    """Speaker ids and frame counts; an InsufficientDataError below 2 speakers or ``needed``."""
    if len(corpus.speakers) < 2:
        raise InsufficientDataError("identification needs at least 2 speakers")
    ids = [speaker_id for speaker_id, _ in corpus.speakers]
    n_frames = [sum(len(s.frames) for s in sentences) for _, sentences in corpus.speakers]
    for speaker_id, n in zip(ids, n_frames):
        if n < needed:
            raise InsufficientDataError(
                f"speaker {speaker_id}: {n} frames < {needed} needed for {material}"
            )
    return ids, n_frames


def _reference_registry(ids, moments: SegmentMoments, train_f: int) -> SpeakerRegistry:
    """Registry of one model per speaker from the raw moments of its first ``train_f`` frames."""
    try:
        return SpeakerRegistry(ids, stack_moments(moments.spans([[0, train_f]] * len(ids))))
    except DegenerateModelError as exc:
        raise DegenerateModelError(f"reference from {train_f} training vectors: {exc}") from exc


def _chunk_stack(moments, owners, where: str):
    """:func:`stack_moments` of one chunk; a covariance that does not factorize
    is a DegenerateModelError naming the cell ``where`` and the test's speaker.
    """
    try:
        return stack_moments(moments)
    except DegenerateModelError as exc:
        # stack_moments finalized the covariances in place; the first one that
        # fails on its own, under the same loading policy, is the one that failed
        _, covs, counts = moments
        for row, owner in enumerate(owners):
            try:
                _factorize_stack(covs[row : row + 1], counts[row : row + 1] <= covs.shape[-1])
            except NotPositiveDefiniteError:
                raise DegenerateModelError(f"{where}, speaker {owner}: {exc}") from exc
        raise


def _score_cells(registry, chunks, kinds, sc_convention, min_tests=None, where="") -> dict:
    """One cell per measure kind: every test scored against every speaker.

    ``chunks`` yields ((sums, outers, counts), owners) pairs of raw test
    moments and their speakers. Each chunk is finalized, factorized, scored
    and reduced to decisions, and its stack dropped, before the next is
    pulled; all kinds of a chunk come from one ``measure_matrices`` call, so
    the terms they share are computed once.
    """
    owners, decisions, n_loaded = [], {kind: [] for kind in kinds}, 0
    for moments, chunk_owners in chunks:
        tests = _chunk_stack(moments, chunk_owners, where)
        n_loaded += int(np.count_nonzero(tests.loadings))
        for kind, values in measure_matrices(kinds, registry.stack, tests, sc_convention).items():
            decisions[kind] += decisions_from_scores(registry, values)
        owners += chunk_owners
        del moments, tests  # else this chunk's models live on while the next is built
    # with a minimum set, a cell without tests is low-count even at min_tests 0
    low = min_tests is not None and len(owners) < max(min_tests, 1)
    cells = {}
    for kind, kind_decisions in decisions.items():
        results = [
            (owner, decision == owner) for owner, decision in zip(owners, kind_decisions)
        ]
        accuracies = compute_metrics(results) if results else (0.0, 0.0)
        cells[kind] = ReportCell(*accuracies, len(results), low_count=low, n_loaded=n_loaded)
    return cells


def _sliced(moments, owners):
    """Chunks of a (sums, outers, counts) triple and its owners: views of at most
    ``_CELL_CHUNK`` rows each."""
    for lo in range(0, len(owners), _CELL_CHUNK):
        rows = slice(lo, lo + _CELL_CHUNK)
        yield tuple(m[rows] for m in moments), owners[rows]


def _filled(pieces, test_len: int):
    """Chunks of ``_CELL_CHUNK`` tests, and a last one of the rest, copied in order
    from (owner, sums, outers) pieces of ``test_len``-frame tests into buffers of
    their own, so the caller may finalize them in place."""
    sums = outers = None
    owners = []
    for owner, piece_sums, piece_outers in pieces:
        done = 0
        while done < len(piece_sums):
            if sums is None:
                sums = np.empty((_CELL_CHUNK, *piece_sums.shape[1:]))
                outers = np.empty((_CELL_CHUNK, *piece_outers.shape[1:]))
            lo = len(owners)
            take = min(_CELL_CHUNK - lo, len(piece_sums) - done)
            sums[lo : lo + take] = piece_sums[done : done + take]
            outers[lo : lo + take] = piece_outers[done : done + take]
            owners += [owner] * take
            done += take
            if len(owners) == _CELL_CHUNK:
                yield (sums, outers, np.full(_CELL_CHUNK, float(test_len))), owners
                sums = outers = None
                owners = []
    if owners:
        n = len(owners)
        yield (sums[:n], outers[:n], np.full(n, float(test_len))), owners


def _report(protocol, axes, seed, cfg, cells: list, min_tests=None):
    """The report of every (coords, build) cell, for each of ``cfg``'s measures.

    ``build()`` returns the cell's registry and an iterator of its tests'
    ((sums, outers, counts), owners) chunks, at most ``_CELL_CHUNK`` tests
    each; :func:`_score_cells` scores one chunk at a time, so the process
    scoring a cell holds one chunk's models, never the whole cell's. Cells
    are built and scored on every CPU this process may use, as
    :func:`_ordered_map` says, and only their :class:`ReportCell` dicts come
    back, in cell order.
    """
    report = ExperimentReport(
        axes=(*axes, "measure"),
        metadata={"protocol": protocol, "seed": seed, "config": cfg.digest()},
    )

    def score(cell):
        coords, build = cell
        where = ", ".join(f"{a} {_format_axis_value(v)}" for a, v in zip(axes, coords))
        return _score_cells(*build(), cfg.measures, cfg.sc_convention, min_tests, where)

    for (coords, _), by_kind in zip(cells, _ordered_map(score, cells)):
        for kind, cell in by_kind.items():
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
    registries = [_reference_registry(ids, moments, train_f) for train_f in train_frames]

    def build(registry, train_f, test_f):
        bounds = [_test_bounds(n, train_f, test_f, cap) for n in n_frames]
        owners = [sid for sid, b in zip(ids, bounds) for _ in range(len(b) - 1)]
        return registry, _sliced(moments.spans(bounds), owners)

    cells = [
        ((train_s, test_s), functools.partial(build, registry, train_f, test_f))
        for train_s, train_f, registry in zip(cfg.train_durations, train_frames, registries)
        for test_s, test_f in zip(cfg.test_durations, test_frames)
    ]
    return _report("duration", ("train_s", "test_s"), corpus.seed, cfg, cells)


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


def _pooled_moments(tests, selector, taxonomy, test_len: int):
    """(speaker id, sums, outers): raw moments of the tests of each (speaker
    id, (frames, segments) sentences) pair, a few sentences at a time.

    A speaker's tests are the frames of its sentences that match
    ``selector``, pooled in order and cut into consecutive ``test_len``-frame
    blocks. Sentences are pooled until ``_POOL_FRAMES`` frames are waiting,
    and the frames after the last whole test begin the next pool, so the
    blocks are those of the speaker's whole pool without ever copying it. A
    speaker with tests gets one count check, as a block set of
    :func:`~sosid.gaussian.stack_blocks` does.
    """
    for speaker_id, sentences in tests:
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

    The protocol is ``cfg``, or the defaults, with ``fields`` set over it. Its
    cells, one per selector, are scored on every CPU, as in :func:`run_duration_experiment`.
    """
    cfg = PhoneticProtocolConfig(**fields) if cfg is None else replace(cfg, **fields)
    train_f = _seconds_to_frames(cfg.train_seconds)
    ids, _ = _checked_speakers(
        corpus, train_f + cfg.test_len, f"{cfg.train_seconds:g} s training plus one test"
    )

    # tests read each sentence's own array; only a training block is ever concatenated
    orders = [_speaker_order(corpus, index) for index in range(len(ids))]
    tests = [
        (sid, _test_segments(sid, placed, train_f, cfg.pre_frames, cfg.post_frames))
        for sid, placed in zip(ids, orders)
    ]

    def leading_frames():
        # one speaker's training block alive at a time
        for placed in orders:
            frames = [sentence.frames for offset, sentence in placed if offset < train_f]
            yield np.concatenate(frames)[:train_f], [train_f]

    registry = _reference_registry(ids, SegmentMoments(leading_frames()), train_f)

    def build(selector):
        pieces = _pooled_moments(tests, selector, cfg.taxonomy, cfg.test_len)
        return registry, _filled(pieces, cfg.test_len)

    cells = [((selector,), functools.partial(build, selector)) for selector in cfg.selectors]
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
