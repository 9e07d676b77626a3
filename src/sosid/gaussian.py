"""Gaussian speaker models: moment accumulation and SPD linear algebra.

Models are plain (mean, covariance, frame count) triples. Covariances use
the maximum-likelihood 1/M normalization, matching the Gaussian classifiers
the dissimilarity measures derive from. Determinants are only ever handled
in the log domain through Cholesky factors; at dimension 24 a raw
determinant under- or overflows far too easily.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DegenerateModelError, NotPositiveDefiniteError, SosidError

# Relative size of the diagonal loading applied when a covariance estimated
# from short material fails to factorize: lambda = scale * trace(cov) / p.
DEFAULT_LOADING_SCALE = 1e-6


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector, covariance matrix and frame count of one speech sample."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1:
            raise ValueError(f"mean must be a vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} does not match dimension {mean.size}"
            )
        if not np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12):
            raise ValueError("cov must be symmetric")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def from_frames(cls, vectors, allow_loading: bool = True) -> "GaussianModel":
        """Estimate a model from a (n_frames, p) array in one pass."""
        vectors = np.asarray(vectors, dtype=float)
        acc = ModelAccumulator(vectors.shape[1])
        acc.extend(vectors)
        return acc.finalize(allow_loading=allow_loading)


class ModelAccumulator:
    """Running first and second moment sums over observed vectors.

    Accumulators over disjoint chunks of a stream can be merged; the
    finalized model is identical (up to rounding) to a single pass over the
    concatenated data, which is how phonetic segments are pooled.
    """

    def __init__(self, dim: int):
        if dim < 1:
            raise ValueError(f"dim must be >= 1, got {dim}")
        self.dim = dim
        self._sum = np.zeros(dim)
        self._outer = np.zeros((dim, dim))
        self._count = 0

    @property
    def count(self) -> int:
        return self._count

    def accumulate(self, vector) -> "ModelAccumulator":
        """Add a single observation."""
        vector = np.asarray(vector, dtype=float)
        if vector.shape != (self.dim,):
            raise ValueError(
                f"vector shape {vector.shape} does not match dimension {self.dim}"
            )
        self._sum += vector
        self._outer += np.outer(vector, vector)
        self._count += 1
        return self

    def extend(self, vectors) -> "ModelAccumulator":
        """Add a (n, dim) block of observations in one shot."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise ValueError(
                f"vectors shape {vectors.shape} does not match dimension {self.dim}"
            )
        self._sum += vectors.sum(axis=0)
        self._outer += vectors.T @ vectors
        self._count += vectors.shape[0]
        return self

    def merge(self, other: "ModelAccumulator") -> "ModelAccumulator":
        """Fieldwise sum of two accumulators, as a new accumulator."""
        if other.dim != self.dim:
            raise ValueError(
                f"cannot merge accumulators of dimension {self.dim} and {other.dim}"
            )
        merged = ModelAccumulator(self.dim)
        merged._sum = self._sum + other._sum
        merged._outer = self._outer + other._outer
        merged._count = self._count + other._count
        return merged

    def finalize(self, allow_loading: bool = True) -> GaussianModel:
        """Turn the sums into a model with an ML (1/M) covariance.

        Raises DegenerateModelError when fewer than two vectors were seen or
        when the covariance is not positive definite even after the loading
        policy is applied. Counts below p + 1 produce a warning only.
        """
        if self._count < 2:
            raise DegenerateModelError(
                f"need at least 2 vectors to estimate a model, got {self._count}"
            )
        mean = self._sum / self._count
        cov = self._outer / self._count - np.outer(mean, mean)
        cov = (cov + cov.T) / 2.0
        if self._count < self.dim + 1:
            warnings.warn(
                f"covariance from {self._count} vectors at dimension {self.dim} "
                "is rank deficient in exact arithmetic",
                RuntimeWarning,
                stacklevel=2,
            )
        model = GaussianModel(mean=mean, cov=cov, count=self._count)
        try:
            factorize(model, allow_loading=allow_loading)
        except NotPositiveDefiniteError as exc:
            raise DegenerateModelError(
                f"covariance from {self._count} vectors is not positive definite: {exc}"
            ) from exc
        return model


@dataclass(frozen=True)
class SpdFactorization:
    """Cached Cholesky factor, log determinant and inverse of a covariance.

    ``factor @ factor.T`` reconstructs the factorized matrix, which is
    ``cov + loading * I``; loading is 0.0 unless the diagonal loading
    fallback fired.
    """

    factor: np.ndarray
    log_det: float
    inverse: np.ndarray
    loading: float = 0.0

    @property
    def dim(self) -> int:
        return self.factor.shape[0]


def factorize(
    model,
    allow_loading: bool = True,
    loading_scale: float = DEFAULT_LOADING_SCALE,
) -> SpdFactorization:
    """Factorize a model's covariance (or a raw SPD matrix).

    On Cholesky failure, a single diagonal loading of
    loading_scale * trace(cov) / p is attempted when allow_loading is set;
    the applied amount is reported through the result's ``loading`` field.
    """
    cov = model.cov if isinstance(model, GaussianModel) else np.asarray(model, dtype=float)
    loading = 0.0
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        loading = loading_scale * max(np.trace(cov), 0.0) / cov.shape[0]
        if not allow_loading or loading <= 0.0:
            raise NotPositiveDefiniteError(
                f"covariance of dimension {cov.shape[0]} is not positive definite"
            ) from None
        try:
            factor = np.linalg.cholesky(cov + loading * np.eye(cov.shape[0]))
        except np.linalg.LinAlgError:
            raise NotPositiveDefiniteError(
                f"covariance of dimension {cov.shape[0]} is not positive definite "
                f"even after diagonal loading of {loading:g}"
            ) from None
    log_det = 2.0 * float(np.sum(np.log(np.diag(factor))))
    inverse = scipy.linalg.cho_solve((factor, True), np.eye(cov.shape[0]))
    inverse = (inverse + inverse.T) / 2.0
    return SpdFactorization(factor=factor, log_det=log_det, inverse=inverse, loading=loading)


def model_to_dict(speaker_id: str, model: GaussianModel, config_hash: str = "") -> dict:
    """JSON-ready document for one speaker model (covariance row-major)."""
    return {
        "id": speaker_id,
        "count": int(model.count),
        "mean": model.mean.tolist(),
        "covariance": model.cov.reshape(-1).tolist(),
        "frontend_config_hash": config_hash,
    }


def model_from_dict(doc: dict):
    """Inverse of :func:`model_to_dict`; returns (id, model, config_hash)."""
    mean = np.asarray(doc["mean"], dtype=float)
    dim = mean.size
    cov = np.asarray(doc["covariance"], dtype=float).reshape(dim, dim)
    model = GaussianModel(mean=mean, cov=cov, count=int(doc["count"]))
    return doc["id"], model, doc.get("frontend_config_hash", "")


def save_model_store(store_dir, models, config_hash: str = "") -> None:
    """Write one ``<speaker_id>.json`` per model into a store directory."""
    store = Path(store_dir)
    store.mkdir(parents=True, exist_ok=True)
    for speaker_id, model in models.items():
        if "/" in speaker_id or "\\" in speaker_id or speaker_id.startswith("."):
            raise ValueError(f"speaker id {speaker_id!r} is not a safe file name")
        doc = model_to_dict(speaker_id, model, config_hash)
        path = store / f"{speaker_id}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")


def load_model_store(store_dir) -> dict:
    """Read every model in a store directory, ordered by speaker id; none is an error."""
    store = Path(store_dir)
    models = {}
    for path in sorted(store.glob("*.json")):
        doc = json.loads(path.read_text(encoding="utf-8"))
        speaker_id, model, _ = model_from_dict(doc)
        models[speaker_id] = model
    if not models:
        raise SosidError(f"{store}: no speaker models (*.json) in model store")
    return models
