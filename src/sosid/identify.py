"""Closed-set identification against a registry of reference models.

The decision rule is the argmin of the chosen measure over all registered
speakers; every measure is zero at identity and positive elsewhere, so
smaller means more similar. Ties break to the earliest-registered speaker,
keeping results reproducible.
"""

from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .gaussian import GaussianModel, ModelStack, stack_models
from .measures import MU_G, SC_DECOMPOSITION, measure_matrices


@dataclass(frozen=True)
class ScoreSheet:
    """Measure values of one test against every registered speaker."""

    test_id: str
    scores: tuple
    decision: str

    @classmethod
    def from_row(cls, test_id: str, ids, values: np.ndarray) -> "ScoreSheet":
        """Sheet of one score-matrix row over the speaker ids; the first minimum decides."""
        return cls(test_id, tuple(zip(ids, values.tolist())), ids[int(np.argmin(values))])


class SpeakerRegistry:
    """Ordered speaker ids and one stack of their factorized reference models.

    ``stack`` row i is speaker ``ids[i]``; an empty registry has no stack.
    """

    def __init__(self, ids=(), stack: ModelStack | None = None):
        self.ids, self.stack = tuple(ids), stack
        n_models = 0 if stack is None else len(stack)
        if len(self.ids) != n_models or len(set(self.ids)) != n_models:
            raise ValueError(
                f"need one unique speaker id per model: {len(self.ids)} ids for {n_models} models"
            )

    def __len__(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int | None:
        return None if self.stack is None else self.stack.dim

    def model(self, speaker_id: str) -> GaussianModel:
        i = self.ids.index(speaker_id)
        return GaussianModel(self.stack.means[i], self.stack.covs[i], int(self.stack.counts[i]))

    def register(self, speaker_id: str, model: GaussianModel) -> "SpeakerRegistry":
        if speaker_id in self.ids:
            raise ValueError(f"speaker id {speaker_id!r} already registered")
        if self.dim is not None and model.dim != self.dim:
            raise ValueError(
                f"model dimension {model.dim} does not match registry dimension {self.dim}"
            )
        row = stack_models([model])
        self.stack = row if self.stack is None else self.stack.append(row)
        self.ids += (speaker_id,)
        return self


def identify(
    registry: SpeakerRegistry,
    test: GaussianModel,
    kind: str = MU_G,
    sc_convention: str = SC_DECOMPOSITION,
    test_id: str = "",
) -> ScoreSheet:
    """Score a test model against every speaker and pick the argmin."""
    values = score_matrix(registry, stack_models([test]), kind, sc_convention)[0]
    return ScoreSheet.from_row(test_id, registry.ids, values)


def score_matrix(
    registry: SpeakerRegistry,
    tests: ModelStack,
    kind: str,
    sc_convention: str = SC_DECOMPOSITION,
) -> np.ndarray:
    """(n_tests, n_speakers) matrix of measure values against a registry."""
    if len(registry) == 0:
        raise ValueError("cannot score against an empty registry")
    return measure_matrices((kind,), registry.stack, tests, sc_convention)[kind]


def decisions_from_scores(registry: SpeakerRegistry, values: np.ndarray) -> list:
    """Argmin speaker id per row of a score matrix (first minimum wins)."""
    ids = registry.ids
    return [ids[int(i)] for i in np.argmin(values, axis=1)]


def score_sheets_csv(sheets) -> str:
    """CSV export: test_id, decision, then one score column per speaker."""
    sheets = list(sheets)
    out = io.StringIO()
    if not sheets:
        out.write("test_id,decision\n")
        return out.getvalue()
    speaker_ids = [speaker_id for speaker_id, _ in sheets[0].scores]
    out.write("test_id,decision," + ",".join(speaker_ids) + "\n")
    for sheet in sheets:
        row_ids = [speaker_id for speaker_id, _ in sheet.scores]
        if row_ids != speaker_ids:
            raise ValueError("score sheets come from different registries")
        values = ",".join(format(value, ".17g") for _, value in sheet.scores)
        out.write(f"{sheet.test_id},{sheet.decision},{values}\n")
    return out.getvalue()
