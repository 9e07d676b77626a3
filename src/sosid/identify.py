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

from .gaussian import (
    GaussianModel,
    ModelStack,
    SpdFactorization,
    factorize,
    factorize_all,
    stack_models,
)
from .measures import MU_G, SC_DECOMPOSITION, measure_matrix


@dataclass(frozen=True)
class ScoreSheet:
    """Measure values of one test against every registered speaker."""

    test_id: str
    scores: tuple
    decision: str


class SpeakerRegistry:
    """Ordered collection of reference models, factorized once at registration."""

    def __init__(self, allow_loading: bool = True):
        self.allow_loading = allow_loading
        self._models: dict[str, GaussianModel] = {}
        self._facts: dict[str, SpdFactorization] = {}
        self._stack = None

    @classmethod
    def from_models(cls, models, allow_loading: bool = True) -> "SpeakerRegistry":
        """Build a registry from an ordered id -> model mapping.

        The models are factorized as one batch, each exactly as
        :meth:`register` would factorize it.
        """
        registry = cls(allow_loading=allow_loading)
        registry._models = dict(models)
        facts = factorize_all(registry._models.values(), allow_loading=allow_loading)
        registry._facts = dict(zip(registry._models, facts))
        return registry

    def __len__(self) -> int:
        return len(self._models)

    @property
    def ids(self) -> tuple:
        return tuple(self._models)

    @property
    def dim(self) -> int | None:
        for model in self._models.values():
            return model.dim
        return None

    def model(self, speaker_id: str) -> GaussianModel:
        return self._models[speaker_id]

    def factorization(self, speaker_id: str) -> SpdFactorization:
        return self._facts[speaker_id]

    def register(self, speaker_id: str, model: GaussianModel) -> "SpeakerRegistry":
        if speaker_id in self._models:
            raise ValueError(f"speaker id {speaker_id!r} already registered")
        if self.dim is not None and model.dim != self.dim:
            raise ValueError(
                f"model dimension {model.dim} does not match registry dimension {self.dim}"
            )
        fact = factorize(model, allow_loading=self.allow_loading)
        self._models[speaker_id] = model
        self._facts[speaker_id] = fact
        self._stack = None
        return self

    def stack(self) -> ModelStack:
        """The registered models as one stack, in registration order."""
        if self._stack is None:
            self._stack = stack_models(self._models.values(), self._facts.values())
        return self._stack


def identify(
    registry: SpeakerRegistry,
    test: GaussianModel,
    kind: str = MU_G,
    sc_convention: str = SC_DECOMPOSITION,
    test_id: str = "",
    test_fact: SpdFactorization | None = None,
) -> ScoreSheet:
    """Score a test model against every speaker and pick the argmin."""
    if test_fact is None:
        test_fact = factorize(test, allow_loading=registry.allow_loading)
    tests = stack_models([test], [test_fact])
    values = score_matrix(registry, tests, kind, sc_convention)[0]
    decision = registry.ids[int(np.argmin(values))]
    scores = tuple(zip(registry.ids, values.tolist()))
    return ScoreSheet(test_id=test_id, scores=scores, decision=decision)


def score_matrix(
    registry: SpeakerRegistry,
    tests: ModelStack,
    kind: str,
    sc_convention: str = SC_DECOMPOSITION,
) -> np.ndarray:
    """(n_tests, n_speakers) matrix of measure values against a registry."""
    if len(registry) == 0:
        raise ValueError("cannot score against an empty registry")
    return measure_matrix(kind, registry.stack(), tests, sc_convention)


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
