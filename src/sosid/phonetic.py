"""Phone alignments, kernel expansion, frame selection and test assembly.

Alignments arrive as text files produced by an external phonetic decoder:
one kernel per line, ``sentence_id phoneme_label start_frame end_frame``
(frame indices inclusive, ``#`` starts a comment). Kernels are the
high-confidence core of a recognized phone; before selection they are
widened by a few frames on each side, so selected segments deliberately
include some transition material and may overlap.

Selection pools, in temporal order, every frame of every segment whose
label matches a phoneme or a named phoneme class. A frame covered by two
overlapping matching segments is emitted once per covering segment; pooling
is concatenation, not set union. The pooled stream is then cut into
fixed-length tests, dropping the remainder.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AlignmentError, TaxonomyError, json_document

DEFAULT_PRE_FRAMES = 5
DEFAULT_POST_FRAMES = 5

# Report order for class selectors.
CLASS_ORDER = (
    "All",
    "Vowels",
    "OralVowels",
    "NasalVowels",
    "Consonants",
    "NonNasalConsonants",
    "NasalConsonants",
    "StopConsonants",
    "Fricatives",
    "LiquidsGlides",
)


@dataclass(frozen=True)
class AlignmentTrack:
    """Sorted, non-overlapping phone kernels of one sentence."""

    sentence_id: str | None
    entries: tuple

    def __len__(self) -> int:
        return len(self.entries)


def _validate_entries(entries, source: str) -> tuple:
    entries = sorted(entries, key=lambda e: (e[1], e[2]))
    previous_end = -1
    for label, start, end in entries:
        if start <= previous_end:
            raise AlignmentError(
                f"{source}: kernel [{start}, {end}] overlaps the previous one"
            )
        previous_end = end
    return tuple(entries)


def parse_alignment(path) -> AlignmentTrack:
    """Read and validate one sentence's alignment file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise AlignmentError(f"{path}: {exc}") from None
    return parse_alignment_text(text, source=str(path))


def parse_alignment_text(text: str, source: str = "<string>") -> AlignmentTrack:
    """Parse alignment lines; see module docstring for the format."""
    sentence_id = None
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 4:
            raise AlignmentError(
                f"{source}:{lineno}: expected 4 fields "
                f"(sentence_id label start end), got {len(parts)}"
            )
        sid, label, start_text, end_text = parts
        try:
            start = int(start_text)
            end = int(end_text)
        except ValueError:
            raise AlignmentError(
                f"{source}:{lineno}: frame indices must be integers, "
                f"got {start_text!r} {end_text!r}"
            ) from None
        if start < 0:
            raise AlignmentError(f"{source}:{lineno}: negative start frame {start}")
        if end < start:
            raise AlignmentError(
                f"{source}:{lineno}: reversed kernel [{start}, {end}]"
            )
        if sentence_id is None:
            sentence_id = sid
        elif sid != sentence_id:
            raise AlignmentError(
                f"{source}:{lineno}: sentence id {sid!r} differs from {sentence_id!r}"
            )
        entries.append((label, start, end))
    return AlignmentTrack(
        sentence_id=sentence_id, entries=_validate_entries(entries, source)
    )


def format_alignment(track: AlignmentTrack) -> str:
    """Render a track back into the alignment file format."""
    sid = track.sentence_id if track.sentence_id is not None else "-"
    lines = [f"{sid} {label} {start} {end}" for label, start, end in track.entries]
    return "\n".join(lines) + ("\n" if lines else "")


def expand_kernels(
    track: AlignmentTrack,
    pre_frames: int = DEFAULT_PRE_FRAMES,
    post_frames: int = DEFAULT_POST_FRAMES,
    *,
    track_len: int,
) -> list:
    """Widen each kernel by pre/post frames, clipped to [0, track_len).

    Returns (label, segment_start, segment_end) triples; expanded segments
    may overlap each other even though kernels never do.
    """
    segments = []
    for label, start, end in track.entries:
        if end >= track_len:
            raise AlignmentError(
                f"kernel [{start}, {end}] exceeds track length {track_len}"
            )
        segments.append(
            (label, max(0, start - pre_frames), min(track_len - 1, end + post_frames))
        )
    return segments


@dataclass(frozen=True)
class PhonemeClassTaxonomy:
    """Named phoneme classes used as selectors.

    All ten class names of CLASS_ORDER must be present. Class membership
    invariants are checked at construction, for the shipped default and for
    any user-supplied taxonomy alike.
    """

    classes: dict

    def __post_init__(self):
        classes = {name: frozenset(members) for name, members in self.classes.items()}
        object.__setattr__(self, "classes", classes)
        missing = [name for name in CLASS_ORDER if name not in classes]
        if missing:
            raise TaxonomyError(f"taxonomy is missing classes: {', '.join(missing)}")
        c = classes
        if c["Vowels"] != c["OralVowels"] | c["NasalVowels"]:
            raise TaxonomyError("Vowels must equal OralVowels union NasalVowels")
        if not (c["NasalConsonants"] | c["NonNasalConsonants"]) <= c["Consonants"]:
            raise TaxonomyError(
                "Consonants must contain NasalConsonants and NonNasalConsonants"
            )
        if not c["LiquidsGlides"] <= c["Consonants"]:
            raise TaxonomyError("LiquidsGlides must be a subset of Consonants")
        if c["NasalConsonants"] & c["NonNasalConsonants"]:
            raise TaxonomyError(
                "NasalConsonants and NonNasalConsonants must be disjoint"
            )

    @property
    def phonemes(self) -> frozenset:
        """Union of all class member sets."""
        out = frozenset()
        for members in self.classes.values():
            out |= members
        return out

    def members(self, selector: str) -> frozenset:
        """Labels matched by a selector (class name or single phoneme)."""
        if selector in self.classes:
            return self.classes[selector]
        if selector in self.phonemes:
            return frozenset((selector,))
        raise TaxonomyError(
            f"unknown selector {selector!r}: neither a class name nor a known phoneme"
        )


# Default inventory: 18 French phonemes that occur often enough in read
# speech to evaluate reliably. The nasal vowel ships as the nasal a, an
# uncertain reading of a symbol that renders ambiguously in common
# transcriptions. LiquidsGlides starts empty; add /l/ /ʁ/ /j/ /w/ through a
# taxonomy JSON file if your alignments label them.
_ORAL_VOWELS = frozenset({"i", "e", "ɛ", "y", "ə", "a", "o", "u"})
_NASAL_VOWELS = frozenset({"ɑ̃"})
_STOPS = frozenset({"p", "t", "k", "d"})
_FRICATIVES = frozenset({"s", "v", "ʒ"})
_NASAL_CONSONANTS = frozenset({"m", "n"})
_LIQUIDS_GLIDES = frozenset()


def default_taxonomy() -> PhonemeClassTaxonomy:
    """The shipped French taxonomy."""
    consonants = _STOPS | _FRICATIVES | _NASAL_CONSONANTS | _LIQUIDS_GLIDES
    vowels = _ORAL_VOWELS | _NASAL_VOWELS
    return PhonemeClassTaxonomy(
        classes={
            "All": vowels | consonants,
            "Vowels": vowels,
            "OralVowels": _ORAL_VOWELS,
            "NasalVowels": _NASAL_VOWELS,
            "Consonants": consonants,
            "NonNasalConsonants": consonants - _NASAL_CONSONANTS,
            "NasalConsonants": _NASAL_CONSONANTS,
            "StopConsonants": _STOPS,
            "Fricatives": _FRICATIVES,
            "LiquidsGlides": _LIQUIDS_GLIDES,
        }
    )


def load_taxonomy(path) -> PhonemeClassTaxonomy:
    """Load a taxonomy from a JSON file mapping class name to label array."""
    with json_document(path, "taxonomy", TaxonomyError) as doc:
        for name, members in doc.items():
            if not isinstance(members, list) or not all(isinstance(m, str) for m in members):
                raise TaxonomyError(f"class {name!r} must map to an array of labels")
        return PhonemeClassTaxonomy(classes=doc)


def select_frames(
    frames,
    segments,
    selector: str,
    taxonomy: PhonemeClassTaxonomy | None = None,
) -> np.ndarray:
    """Concatenate the rows of a (n, p) frame array of every segment matching selector."""
    if taxonomy is None:
        taxonomy = default_taxonomy()
    matching = taxonomy.members(selector)
    picked = []
    for label, start, end in segments:
        if end >= len(frames):
            raise ValueError(
                f"segment [{start}, {end}] exceeds feature length {len(frames)}"
            )
        if label in matching:
            picked.append(frames[start : end + 1])
    if not picked:
        return np.empty((0, frames.shape[1]))
    return np.concatenate(picked)


def assemble_tests(frames, test_len: int) -> np.ndarray:
    """Cut pooled (m, p) frames into a (n_tests, test_len, p) view of consecutive blocks.

    Leftover frames shorter than a full test are discarded; zero tests is a
    valid result.
    """
    if test_len < 1:
        raise ValueError(f"test_len must be >= 1, got {test_len}")
    n_tests = len(frames) // test_len
    return frames[: n_tests * test_len].reshape(n_tests, test_len, frames.shape[1])
