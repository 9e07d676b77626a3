"""Closed-set identification: registry, argmin decision, score sheets.

Registers reference models for a handful of synthetic speakers, scores
one-second tests from each of them, and exports the score sheets as CSV.
"""

import numpy as np

from sosid import (
    GaussianModel,
    SpeakerRegistry,
    identify,
    sample_speakers,
    score_sheets_csv,
    SynthCorpusConfig,
    generate_labeled_frames,
)
from sosid.gaussian import stack_blocks

cfg = SynthCorpusConfig(n_speakers=5, dim=24, separation=1.0, seed=7)
speakers = sample_speakers(cfg)

# Reference models from 15 s of material each (1500 frames at 10 ms),
# estimated and factorized as one batch: one (1, frames, p) block per speaker.
training = []
for index, speaker in enumerate(speakers):
    rng = np.random.default_rng(np.random.SeedSequence([7, 10, index]))
    frames, _ = generate_labeled_frames(speaker, ["a"] * 1500, rng)
    training.append(frames.vectors)
ids = [speaker.speaker_id for speaker in speakers]
registry = SpeakerRegistry(ids, stack_blocks(x[None] for x in training))

print(f"registry holds {len(registry)} speakers of dimension {registry.dim}")

# One-second tests (100 frames) from every speaker, scored with each measure.
sheets = []
correct = {kind: 0 for kind in ("mu_g", "mu_gc", "mu_sc")}
for index, speaker in enumerate(speakers):
    rng = np.random.default_rng(np.random.SeedSequence([7, 20, index]))
    frames, _ = generate_labeled_frames(speaker, ["a"] * 100, rng)
    test = GaussianModel.from_frames(frames.vectors)
    for kind in correct:
        sheet = identify(registry, test, kind, test_id=f"{speaker.speaker_id}_{kind}")
        correct[kind] += sheet.decision == speaker.speaker_id
        if kind == "mu_g":
            sheets.append(sheet)

for kind, hits in correct.items():
    print(f"{kind}: {hits}/{len(speakers)} one-second tests identified correctly")

print("\nscore sheet CSV (mu_g):")
print(score_sheets_csv(sheets))
