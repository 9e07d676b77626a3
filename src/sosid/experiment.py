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
import os
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
    """One sentence's frames, then its alignment, each as read or as the exception raised.

    Errors are returned, not raised, so that a worker process can send them
    and :func:`load_corpus` can raise them where a serial read would: in
    manifest order, and an alignment's only after the frames' width check.
    A failed frame read skips the alignment.
    """
    try:
        if ref.features is not None:
            frames = load_features_csv(base / ref.features).vectors
        else:
            frames = extract_features(load_wav(base / ref.audio), cfg).vectors
    except Exception as exc:  # raised by load_corpus, in manifest order
        return exc, None
    try:
        return frames, parse_alignment(base / ref.alignment) if ref.alignment else None
    except Exception as exc:  # raised by load_corpus after the width check
        return frames, exc


def _send_reads(read, refs, conn) -> None:
    """Worker body: send ``read(ref)`` for each of ``refs``, in order, down ``conn``."""
    for ref in refs:
        conn.send(read(ref))


def _received_in_order(conns: list, n: int):
    """Results 0 to n - 1, where ``conns[w]`` sends results w, w + P, w + 2P, ... in order.

    Whichever pipe is ready is read, so that no worker waits for this
    process to want its next result.
    """
    received = [collections.deque() for _ in conns]
    left = {conn: len(range(w, n, len(conns))) for w, conn in enumerate(conns)}
    for i in range(n):
        wanted = received[i % len(conns)]
        while not wanted:
            for conn in multiprocessing.connection.wait([c for c in conns if left[c]]):
                received[conns.index(conn)].append(conn.recv())
                left[conn] -= 1
        yield wanted.popleft()


@contextlib.contextmanager
def _reads_in_order(read, refs: list):
    """An iterator of ``read(ref)`` over ``refs``, in order, read on every usable CPU.

    With two or more CPUs in ``os.sched_getaffinity``, ``fork``ed workers
    take the refs round robin and send each result down their own pipe;
    this process reads the pipes as they fill and yields in manifest order,
    so it unpickles every result itself. Otherwise (one CPU, one ref, no
    ``fork``, or a daemonic process, which may not have children) it is the
    builtin ``map``. Every worker has exited, or is killed if the body
    raised, before the context exits.
    """
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    processes = min(cpus, len(refs))
    if (
        processes < 2
        or "fork" not in multiprocessing.get_all_start_methods()
        or multiprocessing.current_process().daemon
    ):
        yield map(read, refs)
        return
    # fork, not spawn: a spawned worker re-imports numpy and scipy on every run
    ctx = multiprocessing.get_context("fork")
    workers = []
    try:
        for w in range(processes):
            recv_end, send_end = ctx.Pipe(duplex=False)
            worker = ctx.Process(target=_send_reads, args=(read, refs[w::processes], send_end))
            worker.start()
            send_end.close()
            workers.append((worker, recv_end))
        yield _received_in_order([conn for _, conn in workers], len(refs))
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

    Sentences are read by ``fork``ed worker processes, one per CPU this
    process may use (``os.sched_getaffinity``), or in-process where there is
    one such CPU, no ``fork``, or a daemonic caller; there is no option.
    Either way the corpus, and the first error raised (its type and
    message), are those of a serial read in manifest order, and no worker
    outlives the call. ``taskset -c 0`` runs it on one CPU.
    """
    if isinstance(manifest, (str, Path)):
        base_dir = Path(manifest).parent if base_dir is None else Path(base_dir)
        manifest = load_manifest(manifest)
    base = Path(base_dir) if base_dir is not None else Path(".")
    cfg = frontend_config if frontend_config is not None else FrontendConfig()
    refs = [ref for _, speaker_refs in manifest.speakers for ref in speaker_refs]
    speakers = []
    dim = None  # every sentence needs the first one's column count
    with _reads_in_order(functools.partial(_read_sentence, base, cfg), refs) as results:
        for speaker_id, speaker_refs in manifest.speakers:
            sentences = []
            for ref in speaker_refs:
                frames, alignment = next(results)
                if isinstance(frames, Exception):
                    raise frames
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
        if self.max_tests_per_speaker < 1:
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


def _report(protocol, axes, seed, digest, cells, kinds, sc_convention, min_tests=None):
    """The report of every (coords, registry, tests, owners) cell, for each measure kind."""
    report = ExperimentReport(
        axes=(*axes, "measure"),
        metadata={"protocol": protocol, "seed": seed, "config": digest},
    )
    for coords, registry, tests, owners in cells:
        scored = _score_cells(registry, tests, owners, kinds, sc_convention, min_tests)
        for kind, cell in scored.items():
            report.cells[(*coords, kind)] = cell
    return report


def _ordered_measures(requested) -> tuple:
    return tuple(kind for kind in MEASURE_KINDS if kind in requested)


def run_duration_experiment(
    corpus: LoadedCorpus, cfg: DurationProtocolConfig | None = None
) -> ExperimentReport:
    """Run the training-duration x test-duration grid over a corpus."""
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

    def cells():
        for train_s, train_f in zip(train_grid, train_frames):
            registry = _reference_registry(ids, moments, train_f)
            for test_s, test_f in zip(test_grid, test_frames):
                bounds = [_test_bounds(n, train_f, test_f, cap) for n in n_frames]
                owners = [sid for sid, b in zip(ids, bounds) for _ in range(len(b) - 1)]
                yield (train_s, test_s), registry, stack_moments(moments.spans(bounds)), owners

    kinds = _ordered_measures(cfg.measures)
    axes = ("train_s", "test_s")
    return _report("duration", axes, corpus.seed, cfg.digest(), cells(), kinds, cfg.sc_convention)


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
    """Score phonetically biased one-second tests against unbiased training."""
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

    def cells():
        for selector in selectors:
            owners = []

            def speaker_tests():
                # one speaker's pooled frames alive at a time
                for speaker_id, concat, segments in streams:
                    pooled = select_frames(concat, segments, selector, taxonomy)
                    blocks = assemble_tests(pooled, test_len)
                    owners.extend([speaker_id] * len(blocks))
                    yield blocks

            yield (selector,), registry, stack_blocks(speaker_tests()), owners

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
        "phonetic", ("selector",), corpus.seed, digest, cells(), kinds, sc_convention, min_tests
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
