"""Utterance-duration and phonetic-content identification protocols.

Both protocols run on one skeleton and differ only in their tests. Each
takes a :class:`LoadedCorpus` of at least 2 speakers, concatenates every
speaker's sentences in a seeded random order (silence handling, if any,
happened upstream; nothing is stripped here), builds the reference models
from the leading training seconds of that concatenation, and scores every
test of a cell against every speaker for every requested measure, at
``FRAMES_PER_SECOND``.

Duration protocol: for each training duration, the remainder is cut into
consecutive test blocks of each test duration, capped per speaker.

Phonetic protocol: tests come from the material after the training
seconds only: phone kernels are widened, frames matching a phoneme or
class selector are pooled per speaker, and the pool is cut into fixed
one-second tests.

Reported metrics per cell: the global percentage of correct decisions over
all tests, and the unweighted mean over speakers of each speaker's own
percentage.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import hashlib
import io
import json
import math
import multiprocessing
import multiprocessing.connection
import numbers
import os
import sys
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import (
    AlignmentError,
    ConfigurationError,
    DegenerateModelError,
    InsufficientDataError,
    SosidError,
)
from .frontend import (
    FrontendConfig,
    extract_features,
    load_features_csv,
    load_wav,
)
from .gaussian import SegmentMoments, stack_blocks, stack_moments
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

# Stream tag separating the sentence-shuffle RNG from data-generation RNGs
# that may share the same corpus seed.
_SHUFFLE_STREAM = 2


def _check_measures(kinds, sc_convention: str) -> None:
    """A ConfigurationError for a measure kind or mu_sc convention sosid does not know."""
    unknown = set(kinds) - set(MEASURE_KINDS)
    if unknown:
        raise ConfigurationError(f"unknown measures: {sorted(unknown)}")
    if sc_convention not in SC_CONVENTIONS:
        raise ConfigurationError(f"unknown mu_sc convention {sc_convention!r}")


def _seconds_to_frames(seconds: float) -> int:
    """Frames in ``seconds`` of material; a ConfigurationError naming it below 2."""
    if isinstance(seconds, bool) or not isinstance(seconds, numbers.Real):
        raise ConfigurationError(f"duration {seconds!r} is not a number")
    if not math.isfinite(seconds):
        raise ConfigurationError(f"duration {seconds:g} s is not a finite number")
    frames = round(seconds * FRAMES_PER_SECOND)
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
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
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
        try:
            seed = int(doc.get("seed", 0))
        except (TypeError, ValueError):
            raise ConfigurationError("manifest field 'seed' is not an integer") from None
        return CorpusManifest(speakers=tuple(speakers), seed=seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None


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


def _read_sentence(base: Path, cfg: FrontendConfig, ref: SentenceRef) -> tuple:
    """One sentence's frames, and its alignment as read or as the exception raised.

    The alignment's error is returned, not raised, so that :func:`load_corpus`
    raises it only after the frames' width check, as a serial read does.
    """
    if ref.features is not None:
        frames = load_features_csv(base / ref.features).vectors
    else:
        frames = extract_features(load_wav(base / ref.audio), cfg).vectors
    try:
        return frames, parse_alignment(base / ref.alignment) if ref.alignment else None
    except Exception as exc:  # raised by load_corpus after the width check
        return frames, exc


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
    its own it reads every pipe that is ready, so that no worker waits long
    for this process to take its results.
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
            outcomes[pending[conn].popleft()] = conn.recv()

    for j in range(processes - 1, len(items), processes):
        outcomes[j] = _outcome(fn, items[j])
        receive(timeout=0)
    while any(pending.values()):
        receive(timeout=None)
    return outcomes


@contextlib.contextmanager
def _ordered_map(fn, items: list):
    """An iterator of ``fn(item)`` over ``items``, in order, computed on every usable CPU.

    With P >= 2 CPUs in ``os.sched_getaffinity`` and as many items, this
    process computes every P-th item itself and P - 1 ``fork``ed workers take
    the others round robin, each sending its outcomes down its own pipe.
    Each item runs under :func:`_outcome`. Once every outcome is in, they
    are replayed in item order: an item's warnings are re-emitted, and then
    its exception raised, when its turn comes, so the warnings the caller
    sees and the first error it gets are a serial run's.
    Otherwise (one CPU, one item, no ``fork``, or a daemonic process, which
    may not have children) it is the builtin ``map``. Every worker has
    exited, or is killed if the body raised, before the context exits.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cpus, len(items))
    if (
        processes < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        yield map(fn, items)
        return
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
        yield map(_replayed, _outcomes(fn, items, [conn for _, conn in workers]))
    except BaseException:
        for worker, _ in workers:
            worker.kill()
        raise
    finally:
        for worker, conn in workers:
            worker.join()
            conn.close()


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
    speakers = []
    dim = None  # every sentence needs the first one's column count
    with _ordered_map(functools.partial(_read_sentence, base, cfg), refs) as results:
        for speaker_id, speaker_refs in manifest.speakers:
            sentences = []
            for ref in speaker_refs:
                frames, alignment = next(results)
                dim = frames.shape[1] if dim is None else dim
                if frames.shape[1] != dim:
                    raise SosidError(
                        f"{base / (ref.features or ref.audio)}: {frames.shape[1]} feature "
                        f"columns, but the corpus's earlier sentences have {dim}"
                    )
                if isinstance(alignment, Exception):
                    raise alignment
                sentences.append(LoadedSentence(frames=frames, alignment=alignment))
            speakers.append((speaker_id, tuple(sentences)))
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
        _check_measures(self.measures, self.sc_convention)
        for duration in self.train_durations + self.test_durations:
            _seconds_to_frames(duration)

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


def _speaker_stream(corpus: LoadedCorpus, index: int):
    """Seeded random concatenation of the sentences of the corpus's index-th speaker.

    Returns the concatenated frames and the ordered (offset, sentence)
    pairs; the same corpus seed always yields the same order, so the
    duration and phonetic protocols see identical training material.
    """
    _, sentences = corpus.speakers[index]
    rng = np.random.default_rng(
        np.random.SeedSequence([corpus.seed, _SHUFFLE_STREAM, index])
    )
    order = rng.permutation(len(sentences))
    placed = []
    offset = 0
    for sentence_index in order:
        sentence = sentences[sentence_index]
        placed.append((offset, sentence))
        offset += len(sentence.frames)
    concat = (
        np.concatenate([sentence.frames for _, sentence in placed])
        if placed
        else np.empty((0, 0))
    )
    return concat, placed


def _speaker_streams(corpus: LoadedCorpus):
    """(speaker_id, concatenated frames, placed sentences) of every speaker."""
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


def _score_cells(registry, tests, owners, kinds, sc_convention, min_tests=None) -> dict:
    """One cell per measure kind: every test of a stack scored against every speaker.

    All kinds come from one ``measure_matrices`` call, so the terms they
    share are computed once per cell.
    """
    n_loaded = int(np.count_nonzero(tests.loadings))
    # with a minimum set, a cell without tests is low-count even at min_tests 0
    low = min_tests is not None and len(owners) < max(min_tests, 1)
    cells = {}
    for kind, values in measure_matrices(kinds, registry.stack, tests, sc_convention).items():
        decisions = decisions_from_scores(registry, values)
        results = [
            (owner, decision == owner) for owner, decision in zip(owners, decisions)
        ]
        accuracies = compute_metrics(results) if results else (0.0, 0.0)
        cells[kind] = ReportCell(*accuracies, len(results), low_count=low, n_loaded=n_loaded)
    return cells


def _report(protocol, axes, seed, digest, cells: list, kinds, sc_convention, min_tests=None):
    """The report of every (coords, build) cell, for each measure kind.

    ``build()`` returns the cell's (registry, tests, owners). Cells are built
    and scored on every CPU this process may use, as :func:`_ordered_map`
    says, and only their :class:`ReportCell` dicts come back, in cell order.
    """
    report = ExperimentReport(
        axes=(*axes, "measure"),
        metadata={"protocol": protocol, "seed": seed, "config": digest},
    )

    def score(cell):
        _, build = cell
        return _score_cells(*build(), kinds, sc_convention, min_tests)

    with _ordered_map(score, cells) as scored:
        for (coords, _), by_kind in zip(cells, scored):
            for kind, cell in by_kind.items():
                report.cells[(*coords, kind)] = cell
    return report


def _ordered_measures(requested) -> tuple:
    return tuple(kind for kind in MEASURE_KINDS if kind in requested)


def run_duration_experiment(
    corpus: LoadedCorpus, cfg: DurationProtocolConfig | None = None
) -> ExperimentReport:
    """Run the training-duration x test-duration grid over a corpus.

    The segment moments and the reference registries are computed here; the
    grid's cells are then scored on every CPU this process may use (see
    :func:`load_corpus`), and the report is that of a serial run, which
    ``taskset -c 0`` gives.
    """
    if cfg is None:
        cfg = DurationProtocolConfig()
    train_grid = sorted(set(cfg.train_durations), reverse=True)
    test_grid = sorted(set(cfg.test_durations), reverse=True)
    cap = cfg.max_tests_per_speaker
    train_frames = [_seconds_to_frames(train_s) for train_s in train_grid]
    test_frames = [_seconds_to_frames(test_s) for test_s in test_grid]
    ids, n_frames = _checked_speakers(
        corpus,
        max(train_frames) + min(test_frames),
        f"{max(train_grid):g} s training plus one {min(test_grid):g} s test",
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
        return registry, stack_moments(moments.spans(bounds)), owners

    cells = [
        ((train_s, test_s), functools.partial(build, registry, train_f, test_f))
        for train_s, train_f, registry in zip(train_grid, train_frames, registries)
        for test_s, test_f in zip(test_grid, test_frames)
    ]
    kinds = _ordered_measures(cfg.measures)
    axes = ("train_s", "test_s")
    return _report("duration", axes, corpus.seed, cfg.digest(), cells, kinds, cfg.sc_convention)


def _test_bounds(n_frames: int, train_f: int, test_f: int, cap: int) -> np.ndarray:
    """Edges of a speaker's consecutive test blocks after ``train_f`` training frames."""
    n_blocks = min(cap, (n_frames - train_f) // test_f)
    # tests start at train_f, so they never reach into training frames
    return train_f + test_f * np.arange(n_blocks + 1)


def _test_segments(speaker_id, placed, train_f: int, pre_frames: int, post_frames: int) -> list:
    """(label, start, end) of a stream's widened kernels after its ``train_f`` training frames."""
    segments = []
    for offset, sentence in placed:
        length = len(sentence.frames)
        if offset + length <= train_f:
            continue  # training-only material
        if sentence.alignment is None:
            raise AlignmentError(
                f"speaker {speaker_id}: a sentence in the test region has no alignment"
            )
        for label, start, end in expand_kernels(
            sentence.alignment, pre_frames, post_frames, track_len=length
        ):
            # segments straddling the training boundary are clipped so no
            # training frame can reach a test
            start = max(start + offset, train_f)
            if start <= end + offset:
                segments.append((label, start, end + offset))
    return segments


def run_phonetic_experiment(
    corpus: LoadedCorpus,
    taxonomy: PhonemeClassTaxonomy | None = None,
    selectors=None,
    kinds=MEASURE_KINDS,
    train_seconds: float = 15.0,
    test_len: int = 100,
    min_tests: int = 40,
    sc_convention: str = SC_DECOMPOSITION,
    pre_frames: int = DEFAULT_PRE_FRAMES,
    post_frames: int = DEFAULT_POST_FRAMES,
) -> ExperimentReport:
    """Score phonetically biased one-second tests against unbiased training.

    As in :func:`run_duration_experiment`, the cells, one per selector, are
    scored on every CPU this process may use, and the report is that of a
    serial run.
    """
    train_f = _seconds_to_frames(train_seconds)
    if test_len < 2:
        raise ConfigurationError(f"test length must be at least 2 frames, got {test_len}")
    if min_tests < 0:
        raise ConfigurationError(f"min_tests must be >= 0, got {min_tests}")
    if pre_frames < 0 or post_frames < 0:
        raise ConfigurationError(
            f"kernel widening must be >= 0 frames, got pre {pre_frames}, post {post_frames}"
        )
    _check_measures(kinds, sc_convention)
    if taxonomy is None:
        taxonomy = default_taxonomy()
    if selectors is None:
        selectors = CLASS_ORDER
    for selector in selectors:
        taxonomy.members(selector)  # fail fast on unknown selectors
    kinds = _ordered_measures(kinds)
    ids, _ = _checked_speakers(
        corpus, train_f + test_len, f"{train_seconds:g} s training plus one test"
    )

    streams = [
        (speaker_id, concat, _test_segments(speaker_id, placed, train_f, pre_frames, post_frames))
        for speaker_id, concat, placed in _speaker_streams(corpus)
    ]
    training = SegmentMoments((concat, [train_f]) for _, concat, _ in streams)
    registry = _reference_registry(ids, training, train_f)

    def build(selector):
        owners = []

        def speaker_tests():
            # one speaker's pooled frames alive at a time
            for speaker_id, concat, segments in streams:
                pooled = select_frames(concat, segments, selector, taxonomy)
                blocks = assemble_tests(pooled, test_len)
                owners.extend([speaker_id] * len(blocks))
                yield blocks

        return registry, stack_blocks(speaker_tests()), owners

    cells = [((selector,), functools.partial(build, selector)) for selector in selectors]

    digest = _digest(
        {
            "train_seconds": train_seconds,
            "test_len": test_len,
            "selectors": list(selectors),
            "kinds": list(kinds),
            "min_tests": min_tests,
            "sc": sc_convention,
            "pre": pre_frames,
            "post": post_frames,
            "fps": FRAMES_PER_SECOND,
            "taxonomy": {k: sorted(v) for k, v in taxonomy.classes.items()},
        }
    )
    return _report(
        "phonetic", ("selector",), corpus.seed, digest, cells, kinds, sc_convention, min_tests
    )


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
        row.append(f"{cell.global_accuracy:.1f}")
        row.append(f"{cell.per_speaker_mean_accuracy:.1f}")
        tests = f"({cell.n_tests})"
        if cell.low_count:
            tests += " *"
            flagged = True
        row.append(tests)
        out.write("| " + " | ".join(row) + " |\n")
    if flagged:
        out.write("\n\\* cell has fewer tests than the configured minimum\n")
    return out.getvalue()
