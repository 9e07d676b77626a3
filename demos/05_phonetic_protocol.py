"""Phonetic-content protocol: class-biased one-second tests.

Training uses 15 s of unselected material per speaker (the same material
the duration protocol would use). Tests pool only the frames of a phoneme
or phoneme class, taken from widened kernels in the remaining material,
and are cut into one-second blocks. With per-speaker class offsets in the
generator, selector choice visibly moves accuracy.
"""

from sosid import (
    PhoneticProtocolConfig,
    SynthCorpusConfig,
    emit_report,
    make_corpus,
    run_phonetic_experiment,
)

protocol = PhoneticProtocolConfig(
    selectors=("All", "Vowels", "OralVowels", "Consonants", "NasalConsonants",
               "StopConsonants", "Fricatives", "m"),
    min_tests=40,
)
print("shipped phoneme classes:")
for name in ("Vowels", "NasalConsonants", "Fricatives", "LiquidsGlides"):
    members = ", ".join(sorted(protocol.taxonomy.classes[name])) or "(empty, extend via JSON)"
    print(f"  {name:18s} {members}")

corpus = make_corpus(
    SynthCorpusConfig(
        n_speakers=10,
        dim=24,
        separation=0.5,
        class_spread=1.5,
        frame_correlation=0.9,
        frames_per_speaker=3500,
        sentence_len_frames=250,
        seed=23,
    )
)

report = run_phonetic_experiment(corpus, protocol)
print()
print(emit_report(report, "markdown"))
print(f"cells marked * have fewer tests than the configured minimum of {protocol.min_tests}")
