"""Seeded synthetic Gaussian speakers for desk-scale verification.

Real corpora for the identification protocols are rarely at hand, so this
module fabricates speakers directly in feature space: each speaker is a
24-dimensional Gaussian (random SPD covariance, mean on a sphere whose
radius is the separation parameter) plus optional per-phoneme mean offsets
that give phonetically labeled material a class structure. Because the
true parameters are known, measure values between estimated models can be
checked against their closed-form counterparts.

Frames are independent by default. ``frame_correlation`` blends in an
AR(1) memory within each sentence; every frame keeps the exact marginal
law above, but consecutive frames stop being independent, which is what
makes one-second tests genuinely hard the way real speech is (a 100-frame
test then carries far fewer than 100 independent observations).

Everything is deterministic in the configured seed; speakers, sentences
and labels each draw from independently derived random streams.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .experiment import LoadedCorpus, LoadedSentence, _ordered_map
from .frontend import SpectralFrames, save_features_csv
from .gaussian import GaussianModel
from .measures import SC_DECOMPOSITION, evaluate
from .phonetic import AlignmentTrack, default_taxonomy, format_alignment

# A sentence is runs of these labels, each run of a random length in this range;
# every synthetic corpus, and every benchmark reference, depends on these values.
_LABELS = tuple(sorted(default_taxonomy().classes["All"]))
_MIN_RUN_FRAMES = 4
_MAX_RUN_FRAMES = 12

# Stream tags under the corpus seed: 0 speaker parameters, 1 sentence data.
# (The experiment harness reserves tag 2 for its sentence shuffle.)
_SPEAKER_STREAM = 0
_SENTENCE_STREAM = 1


@dataclass(frozen=True)
class TrueSpeaker:
    """Known generating parameters of one synthetic speaker."""

    speaker_id: str
    base_mean: np.ndarray
    base_cov: np.ndarray
    class_offsets: dict


@dataclass(frozen=True)
class SynthCorpusConfig:
    """Shape and difficulty of a synthetic corpus."""

    n_speakers: int = 20
    dim: int = 24
    separation: float = 1.0
    class_spread: float = 0.0
    frame_correlation: float = 0.0
    frames_per_speaker: int = 3000
    sentence_len_frames: int = 300
    seed: int = 0

    def __post_init__(self):
        for name in ("n_speakers", "dim", "frames_per_speaker", "sentence_len_frames", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigurationError(f"{name} must be an integer, got {value!r}")
        for name in ("separation", "class_spread", "frame_correlation"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ConfigurationError(f"{name} must be a number, got {value!r}")
        if self.n_speakers < 1 or self.dim < 1:
            raise ConfigurationError("n_speakers and dim must be >= 1")
        # a NaN fails both comparisons
        if not (0 <= self.separation < math.inf and 0 <= self.class_spread < math.inf):
            raise ConfigurationError("separation and class_spread must be finite and >= 0")
        if not 0.0 <= self.frame_correlation < 1.0:
            raise ConfigurationError("frame_correlation must be in [0, 1)")
        if self.frames_per_speaker < 1 or self.sentence_len_frames < 1:
            raise ConfigurationError("frame counts must be >= 1")
        if self.seed < 0:
            raise ConfigurationError("seed must be >= 0")


def sample_speakers(cfg: SynthCorpusConfig) -> list:
    """Draw the true parameters of every speaker, deterministically."""
    return [_sample_speaker(cfg, index) for index in range(cfg.n_speakers)]


def _speaker_id(index: int) -> str:
    return f"spk{index:03d}"


def _sample_speaker(cfg: SynthCorpusConfig, index: int) -> TrueSpeaker:
    """Draw speaker ``index``'s true parameters from its own stream."""
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, _SPEAKER_STREAM, index]))
    direction = rng.standard_normal(cfg.dim)
    norm = float(np.linalg.norm(direction))
    mean = cfg.separation * direction / norm
    square = rng.standard_normal((cfg.dim, cfg.dim)) / math.sqrt(cfg.dim)
    cov = square @ square.T + np.eye(cfg.dim)
    cov *= cfg.dim / np.trace(cov)  # unit average variance
    offsets = {
        label: cfg.class_spread * rng.standard_normal(cfg.dim) / math.sqrt(cfg.dim)
        for label in _LABELS
    }
    return TrueSpeaker(
        speaker_id=_speaker_id(index), base_mean=mean, base_cov=cov, class_offsets=offsets
    )


def generate_labeled_frames(
    speaker: TrueSpeaker,
    label_sequence,
    rng: np.random.Generator,
    sentence_id: str = "s000",
    correlation: float = 0.0,
):
    """Draw one frame per label and the alignment track of the label runs.

    A frame labeled l comes from Normal(base_mean + class_offsets[l],
    base_cov); kernels in the returned track tile the frame sequence
    exactly, one per maximal run of equal labels. With correlation r > 0
    the deviations follow e_t = r e_{t-1} + sqrt(1 - r^2) L z_t, which
    leaves each frame's marginal law untouched.
    """
    labels = list(label_sequence)
    unknown = sorted(set(labels) - set(speaker.class_offsets))
    if unknown:
        raise ValueError(f"labels not in speaker's offset map: {unknown}")
    if not 0.0 <= correlation < 1.0:
        raise ValueError(f"correlation must be in [0, 1), got {correlation}")
    dim = speaker.base_mean.size
    factor = np.linalg.cholesky(speaker.base_cov)
    noise = rng.standard_normal((len(labels), dim)) @ factor.T
    if correlation > 0.0 and len(labels) > 1:
        # y[0] = noise[0], y[t] = corr * y[t-1] + sqrt(1-corr^2) * noise[t]
        driven = noise * math.sqrt(1.0 - correlation**2)
        driven[0] = noise[0]
        # imported here, not at the top: scipy.signal is most of the cost of
        # importing sosid, and only correlated synthetic frames need it
        import scipy.signal

        noise = scipy.signal.lfilter([1.0], [1.0, -correlation], driven, axis=0)
    if not labels:
        raise ValueError("need at least one label to draw a frame")
    names = list(speaker.class_offsets)
    index = {name: code for code, name in enumerate(names)}
    codes = np.array([index[label] for label in labels])
    offsets = np.stack([speaker.class_offsets[name] for name in names])[codes]
    frames = noise + speaker.base_mean + offsets

    # one kernel per maximal run of equal labels
    starts = np.flatnonzero(np.diff(codes, prepend=-1))
    ends = np.append(starts[1:], len(labels)) - 1
    entries = tuple(
        (names[code], start, end)
        for code, start, end in zip(codes[starts].tolist(), starts.tolist(), ends.tolist())
    )
    track = AlignmentTrack(sentence_id=sentence_id, entries=entries)
    return SpectralFrames(vectors=frames), track


def true_measure(
    a: TrueSpeaker,
    b: TrueSpeaker,
    kind: str,
    sc_convention: str = SC_DECOMPOSITION,
) -> float:
    """Measure between the true parameters of two speakers, equal weights."""
    model_a = GaussianModel(mean=a.base_mean, cov=a.base_cov, count=1)
    model_b = GaussianModel(mean=b.base_mean, cov=b.base_cov, count=1)
    return evaluate(kind, model_a, model_b, sc_convention=sc_convention)


def _sentence_labels(length: int, rng: np.random.Generator):
    labels = []
    while len(labels) < length:
        label = _LABELS[int(rng.integers(len(_LABELS)))]
        run = int(rng.integers(_MIN_RUN_FRAMES, _MAX_RUN_FRAMES + 1))
        labels.extend([label] * run)
    return labels[:length]


def _sentences_per_speaker(cfg: SynthCorpusConfig) -> int:
    return math.ceil(cfg.frames_per_speaker / cfg.sentence_len_frames)


def _speaker_sentences(cfg: SynthCorpusConfig, index: int, speaker: TrueSpeaker):
    """Yield speaker ``index``'s sentences in order, each generated as it is taken."""
    remaining = cfg.frames_per_speaker
    for sentence_index in range(_sentences_per_speaker(cfg)):
        length = min(cfg.sentence_len_frames, remaining)
        remaining -= length
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _SENTENCE_STREAM, index, sentence_index])
        )
        labels = _sentence_labels(length, rng)
        frames, track = generate_labeled_frames(
            speaker,
            labels,
            rng,
            sentence_id=f"{speaker.speaker_id}_s{sentence_index:03d}",
            correlation=cfg.frame_correlation,
        )
        yield LoadedSentence(frames=frames.vectors, alignment=track)


def make_corpus(cfg: SynthCorpusConfig) -> LoadedCorpus:
    """Generate a corpus in memory, ready for the experiment harness."""
    speakers = tuple(
        (speaker.speaker_id, tuple(_speaker_sentences(cfg, index, speaker)))
        for index, speaker in enumerate(sample_speakers(cfg))
    )
    return LoadedCorpus(speakers=speakers, seed=cfg.seed)


def write_corpus(cfg: SynthCorpusConfig, out_dir) -> Path:
    """Write a synthetic corpus to disk and return the manifest path.

    Layout: one directory per speaker holding feature CSVs and alignment
    files, plus a manifest.json at the root that the harness and the CLI
    consume directly.

    The speaker directories are made here, in order. Each speaker is then
    sampled, generated and written, a sentence at a time, by the process
    that takes it in :func:`~sosid.experiment._ordered_map`, on every CPU
    this process may use, so no process holds more than one speaker's
    parameters and one sentence; the manifest is written last. There is no
    option: every file's bytes are those of :func:`make_corpus`'s sentences,
    the first error raised is that of a serial write in manifest order, and
    no worker outlives the call. ``taskset -c 0`` gives a serial write.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    manifest = {"seed": cfg.seed, "speakers": []}
    for index in range(cfg.n_speakers):
        speaker_id = _speaker_id(index)
        (out / speaker_id).mkdir(exist_ok=True)
        stems = [f"{speaker_id}/s{i:03d}" for i in range(_sentences_per_speaker(cfg))]
        entries = [{"features": f"{stem}.csv", "alignment": f"{stem}.ali"} for stem in stems]
        manifest["speakers"].append({"id": speaker_id, "sentences": entries})

    def write_speaker(index):
        sentences = _speaker_sentences(cfg, index, _sample_speaker(cfg, index))
        for entry, sentence in zip(manifest["speakers"][index]["sentences"], sentences):
            save_features_csv(sentence.frames, out / entry["features"])
            (out / entry["alignment"]).write_text(
                format_alignment(sentence.alignment), encoding="utf-8"
            )

    _ordered_map(write_speaker, list(range(cfg.n_speakers)))
    manifest_path = out / "manifest.json"
    manifest_path.write_text(
        json.dumps(manifest, indent=2, ensure_ascii=False) + "\n", encoding="utf-8"
    )
    return manifest_path
