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
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import DegenerateModelError, NotPositiveDefiniteError, SosidError, json_document

# Relative size of the diagonal loading applied when a covariance estimated
# from short material fails to factorize: lambda = scale * trace(cov) / p.
DEFAULT_LOADING_SCALE = 1e-6

# Models per pass wherever a stack-sized intermediate is computed a chunk at
# a time; bounds each work buffer to this many rows.
_CHUNK = 64


@dataclass(frozen=True)
class GaussianModel:
    """Mean vector, covariance matrix and frame count of one speech sample."""

    mean: np.ndarray
    cov: np.ndarray
    count: int

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.size == 0:
            raise ValueError(f"mean must be a non-empty vector, got shape {mean.shape}")
        if cov.shape != (mean.size, mean.size):
            raise ValueError(
                f"cov shape {cov.shape} does not match dimension {mean.size}"
            )
        if not (np.isfinite(mean).all() and np.isfinite(cov).all()):
            raise ValueError("mean and cov must be finite")
        # np.allclose(cov, cov.T, rtol=1e-8, atol=1e-12), without its overhead
        if not np.all(abs(cov - cov.T) <= 1e-12 + 1e-8 * abs(cov.T)):
            raise ValueError("cov must be symmetric")
        if self.count < 1:
            raise ValueError(f"count must be >= 1, got {self.count}")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    @property
    def dim(self) -> int:
        return self.mean.size

    @classmethod
    def from_frames(cls, vectors) -> "GaussianModel":
        """Estimate a model from a (n_frames, p) array in one pass.

        This is the one-block case of :func:`stack_blocks`, with its count
        checks and loading policy: a covariance that does not factorize is a
        DegenerateModelError. The factorization itself is not kept.
        """
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim != 2 or vectors.shape[1] < 1:
            raise ValueError(f"vectors must be a (n_frames, p >= 1) array, got {vectors.shape}")
        stack = stack_blocks([vectors[None]])
        return cls(mean=stack.means[0], cov=stack.covs[0], count=len(vectors))


def _check_count(count: int, dim: int) -> None:
    """Reject fewer than 2 vectors; warn below p + 1, where the covariance is singular."""
    if count < 2:
        raise DegenerateModelError(
            f"need at least 2 vectors to estimate a model, got {count}"
        )
    if count < dim + 1:
        warnings.warn(
            f"covariance from {count} vectors at dimension {dim} "
            "is rank deficient in exact arithmetic",
            RuntimeWarning,
            stacklevel=3,
        )


def _ml_moments(sums, outers, counts):
    """Stacked means and ML (1/M) covariances from raw moment sums, in one pass.

    The covariances are finalized and symmetrized in ``outers``' own buffer,
    which is returned as them; only a chunk-sized work buffer is new.
    """
    means = sums / counts[:, None]
    work = np.empty((min(len(outers), _CHUNK), *outers.shape[1:]))
    for lo in range(0, len(outers), _CHUNK):
        rows = slice(lo, lo + _CHUNK)
        covs = outers[rows]
        w = work[: len(covs)]
        covs /= counts[rows, None, None]
        covs -= np.multiply(means[rows, :, None], means[rows, None, :], out=w)
        np.add(covs, np.swapaxes(covs, 1, 2), out=w)
        np.divide(w, 2.0, out=covs)
    return means, outers


@dataclass(frozen=True)
class SpdFactorization:
    """Log determinant and inverse of ``cov + loading * I``; loading is 0.0 unless it fired."""

    log_det: float
    inverse: np.ndarray
    loading: float = 0.0


def factorize(model) -> SpdFactorization:
    """Factorize a model's covariance (or a raw SPD matrix).

    On Cholesky failure, a single diagonal loading of
    DEFAULT_LOADING_SCALE * trace(cov) / p is attempted; the applied amount
    is reported through the result's ``loading`` field. A model's row of
    :func:`stack_models` holds the same values.
    """
    cov = model.cov if isinstance(model, GaussianModel) else np.asarray(model, dtype=float)
    loadings, log_dets, inverses = _factorize_stack(np.stack([cov]))
    return SpdFactorization(
        log_det=float(log_dets[0]),
        inverse=inverses[0],
        loading=float(loadings[0]),
    )


def _cholesky_with_loading(cov, singular=False):
    """(lower factor, loading) of one covariance under the loading policy.

    A covariance known to be singular skips the unloaded attempt, which
    rounding alone can let through with a near-zero pivot.
    """
    if not singular:
        try:
            return np.linalg.cholesky(cov), 0.0
        except np.linalg.LinAlgError:
            pass
    loading = DEFAULT_LOADING_SCALE * max(np.trace(cov), 0.0) / cov.shape[0]
    if loading <= 0.0:
        raise NotPositiveDefiniteError(
            f"covariance of dimension {cov.shape[0]} is not positive definite"
        )
    try:
        return np.linalg.cholesky(cov + loading * np.eye(cov.shape[0])), loading
    except np.linalg.LinAlgError:
        raise NotPositiveDefiniteError(
            f"covariance of dimension {cov.shape[0]} is not positive definite "
            f"even after diagonal loading of {loading:g}"
        ) from None


def _factorize_stack(covs, singular=None):
    """Loadings, log-dets and inverses of a (n, p, p) covariance stack.

    One batched Cholesky serves the common case; only when it fails, or the
    boolean mask ``singular`` marks a covariance known to be singular, is
    each covariance factorized on its own, so loading reaches only the ones
    that need it. The first that fails even after loading raises a
    NotPositiveDefiniteError whose ``row`` is its index.
    """
    if singular is None:
        singular = np.zeros(len(covs), dtype=bool)
    loadings = np.zeros(len(covs))
    factors = None
    if not singular.any():
        try:
            factors = np.linalg.cholesky(covs)
        except np.linalg.LinAlgError:
            pass
    if factors is None:
        factors = np.empty_like(covs)
        for i, cov in enumerate(covs):
            try:
                factors[i], loadings[i] = _cholesky_with_loading(cov, singular[i])
            except NotPositiveDefiniteError as exc:
                exc.row = i
                raise
    log_dets = 2.0 * np.log(np.diagonal(factors, axis1=1, axis2=2)).sum(axis=1)
    # inverse = L^-T L^-1; a positive Cholesky diagonal makes trtri succeed.
    # Each factor is inverted in place, then overwritten by its symmetrized
    # inverse a chunk at a time, so the factors' buffer holds the inverses.
    for i in range(len(factors)):
        factors[i] = scipy.linalg.lapack.dtrtri(factors[i], lower=1)[0]
    work = np.empty((min(len(factors), _CHUNK), *factors.shape[1:]))
    for lo in range(0, len(factors), _CHUNK):
        chunk = factors[lo : lo + _CHUNK]
        w = work[: len(chunk)]
        np.matmul(np.swapaxes(chunk, 1, 2), chunk, out=w)
        np.add(w, np.swapaxes(w, 1, 2), out=chunk)
        chunk /= 2.0
    return loadings, log_dets, factors


@dataclass(frozen=True)
class ModelStack:
    """Models and their factorizations stacked along a leading axis."""

    means: np.ndarray
    covs: np.ndarray
    counts: np.ndarray
    inverses: np.ndarray
    log_dets: np.ndarray
    loadings: np.ndarray

    @property
    def dim(self) -> int:
        return self.means.shape[1]

    def __len__(self) -> int:
        return len(self.means)

    def append(self, other: "ModelStack") -> "ModelStack":
        """This stack's rows followed by another's."""
        return ModelStack(
            *(np.concatenate([getattr(self, f.name), getattr(other, f.name)]) for f in fields(self))
        )


def _factorized(means, covs, counts, singular=None) -> ModelStack:
    """Stack of estimated models, their covariances factorized as one batch."""
    loadings, log_dets, inverses = _factorize_stack(covs, singular)
    return ModelStack(means, covs, counts, inverses, log_dets, loadings)


def stack_models(models) -> ModelStack:
    """Stack a non-empty sequence of models and factorize them as one batch.

    Each row is bit for bit what :func:`factorize` gives for its model
    alone; the first covariance that fails even after diagonal loading
    raises NotPositiveDefiniteError, its ``row`` the model's index.
    """
    models = list(models)
    return _factorized(
        np.stack([m.mean for m in models]),
        np.stack([m.cov for m in models]),
        np.array([m.count for m in models], dtype=float),
    )


def _raw_moments(blocks):
    """Frame sums and X^T X of each block of a (n_blocks, frames, p) array."""
    return blocks.sum(axis=1), np.swapaxes(blocks, 1, 2) @ blocks


def _block_moments(blocks):
    """Raw moment sums and frame counts of each block of a (n_blocks, frames, p) array."""
    blocks = np.asarray(blocks, dtype=float)
    n, frames, dim = blocks.shape
    if n:
        _check_count(frames, dim)
    return (*_raw_moments(blocks), np.full(n, float(frames)))


class SegmentMoments:
    """Raw moments of frame streams, each cut once at a fixed set of edges.

    The moments of the frames between two edges of a stream are the ordered
    sum of the moments of the segments between them, so models over many
    overlapping runs of a stream cost a single pass over its frames.
    ``streams`` yields (frames, edges) pairs and is consumed one pair at a
    time; only the segment moments are kept.
    """

    def __init__(self, streams):
        self.edges, self.first_segment = [], []
        sums, outers = [], []
        n_segments = 0
        for frames, edges in streams:
            frames = np.asarray(frames, dtype=float)
            edges = np.union1d(0, edges).astype(np.intp)
            lengths = np.diff(edges)
            # consecutive segments of equal length share one batched moment call
            runs = np.split(np.arange(len(lengths)), np.flatnonzero(np.diff(lengths)) + 1)
            for run in runs:
                start, stop = edges[run[0]], edges[run[-1] + 1]
                shape = (len(run), lengths[run[0]], frames.shape[1])
                blocks = frames[start:stop].reshape(shape)
                run_sums, run_outers = _raw_moments(blocks)
                sums.append(run_sums)
                outers.append(run_outers)
            self.edges.append(edges)
            self.first_segment.append(n_segments)
            n_segments += len(lengths)
        # a trailing zero segment pads the spans that have fewer segments
        self.sums = np.concatenate([*sums, np.zeros_like(sums[0][:1])])
        self.outers = np.concatenate([*outers, np.zeros_like(outers[0][:1])])

    def spans(self, bounds):
        """Raw moments of frames[b[i]:b[i + 1]] for each stream's bounds b.

        ``bounds`` holds an increasing sequence of edges per stream, in
        stream order; the spans come out stream by stream. Each stream's
        spans pass the count checks of a set of frame blocks: fewer than 2
        frames is an error, fewer than p + 1 a warning.
        """
        starts, stops, counts = [], [], []
        for edges, first, stream_bounds in zip(self.edges, self.first_segment, bounds):
            stream_bounds = np.asarray(stream_bounds, dtype=np.intp)
            index = np.searchsorted(edges, stream_bounds)
            if not np.array_equal(edges[np.minimum(index, len(edges) - 1)], stream_bounds):
                raise ValueError(f"span bounds {stream_bounds.tolist()} are not all edges")
            lengths = np.diff(stream_bounds)
            for count in dict.fromkeys(lengths.tolist()):
                _check_count(count, self.sums.shape[1])
            starts.append(first + index[:-1])
            stops.append(first + index[1:])
            counts.append(lengths)
        starts = np.concatenate(starts)
        widths = np.concatenate(stops) - starts
        sums, outers = self.sums[starts], self.outers[starts]
        # add each span's next segment in order, all spans at once; x + 0.0
        # is exactly x, so padding leaves the narrower spans' sums unchanged
        for j in range(1, widths.max(initial=1)):
            index = np.where(widths > j, starts + j, len(self.sums) - 1)
            sums += self.sums[index]
            outers += self.outers[index]
        return sums, outers, np.concatenate(counts).astype(float)


def stack_moments(moments) -> ModelStack:
    """Estimate and factorize one model per row of a (sums, outers, counts) triple.

    Raw sums are finalized with the one-pass ML formula and factorized as
    one batch under the loading policy of :func:`factorize`; the first
    covariance that does not factorize even so is a DegenerateModelError
    whose ``row`` is its index. A covariance from p frames or fewer has rank
    below p, so it is loaded even where rounding would let its Cholesky
    factorization through.

    The moments are consumed: the outer-product sums are finalized in place
    and the returned stack's ``covs`` *is* their buffer, so pass arrays that
    nothing else reads or writes afterwards.
    """
    sums, outers, counts = moments
    del moments  # this frame's references are then the only ones to the raw sums
    means, covs = _ml_moments(sums, outers, counts)
    del sums  # the raw sums are not needed while factorizing
    try:
        return _factorized(means, covs, counts, singular=counts <= covs.shape[-1])
    except NotPositiveDefiniteError as exc:
        error = DegenerateModelError(f"covariance of a frame block is not positive definite: {exc}")
        error.row = exc.row
        raise error from exc


def stack_blocks(block_sets) -> ModelStack:
    """Estimate and factorize one model per frame block, as one batch.

    ``block_sets`` is an iterable of (n_blocks, frames, p) arrays, typically
    zero-copy reshapes of each speaker's frames. They are consumed one at a
    time, so a generator keeps only one set alive. Fewer than 2 frames per
    block is a DegenerateModelError and fewer than p + 1 a warning.
    """
    return stack_moments(_concat_moments(map(_block_moments, block_sets)))


def _concat_moments(moment_sets):
    """One (sums, outers, counts) triple from a sequence of them, in order."""
    sums, outers, counts = zip(*moment_sets)
    return np.concatenate(sums), np.concatenate(outers), np.concatenate(counts)


def save_model_store(store_dir, ids, stack: ModelStack, config_hash: str = "") -> None:
    """Write row i of ``stack`` into a store directory as ``<ids[i]>.json``: its id,
    frame count, mean, row-major covariance and ``config_hash``.

    A speaker id with ``/`` or ``\\``, or a leading ``.``, is not a safe file
    name, and a ``*.json`` in the directory that is not one of ``ids``'s
    documents would be read back as a speaker: either is a SosidError naming
    it, raised before anything is written.
    """
    for speaker_id in ids:
        if "/" in speaker_id or "\\" in speaker_id or speaker_id.startswith("."):
            raise SosidError(f"speaker id {speaker_id!r} is not a safe file name")
    store = Path(store_dir)
    for path in sorted(store.glob("*.json")):
        if path.stem not in ids:
            raise SosidError(
                f"{path}: not one of the speakers being trained; train into an empty directory"
            )
    store.mkdir(parents=True, exist_ok=True)
    for speaker_id, mean, cov, count in zip(ids, stack.means, stack.covs, stack.counts):
        doc = {
            "id": speaker_id,
            "count": int(count),
            "mean": mean.tolist(),
            "covariance": cov.reshape(-1).tolist(),
            "frontend_config_hash": config_hash,
        }
        (store / f"{speaker_id}.json").write_text(json.dumps(doc), encoding="utf-8")


def load_model_store(store_dir) -> tuple:
    """Speaker ids and one factorized :class:`ModelStack` of a store, ordered by file name.

    A document's speaker is its file name, as :func:`save_model_store` writes
    it. An empty store, or any document that is not a valid model (bad JSON,
    a missing key, an ``id`` other than its file name, a count that is not an
    integer >= 1, wrong sizes, non-finite values) or differs from the first in
    dimension, is a SosidError naming the file. So is the first covariance
    that does not factorize.
    """
    store = Path(store_dir)
    paths = sorted(store.glob("*.json"))
    models = []
    for path in paths:
        with json_document(path, "speaker model", SosidError) as doc:
            if doc["id"] != path.stem:
                raise ValueError(f"id {doc['id']!r} does not match the file name {path.name!r}")
            count = doc["count"]
            if isinstance(count, bool) or not isinstance(count, int):
                raise ValueError(f"count {count!r} is not an integer")
            mean = np.asarray(doc["mean"], dtype=float)
            cov = np.asarray(doc["covariance"], dtype=float).reshape(mean.size, mean.size)
            models.append(GaussianModel(mean=mean, cov=cov, count=count))
            if models[-1].dim != models[0].dim:
                raise ValueError(
                    f"model dimension {models[-1].dim} differs from the store's {models[0].dim}"
                )
    if not models:
        raise SosidError(f"{store}: no speaker models (*.json) in model store")
    ids = [path.stem for path in paths]
    try:
        return ids, stack_models(models)
    except NotPositiveDefiniteError as exc:
        raise SosidError(f"{paths[exc.row]}: speaker {ids[exc.row]!r}: {exc}") from None
