"""Symmetrized second-order dissimilarity measures between Gaussian models.

Three measures compare a reference model (X, xbar, M frames) with a test
model (Y, ybar, N frames). Each is a weighted sum of an asymmetric
statistic and its dual, with weights a = M/(M+N) and b = N/(M+N):

* ``mu_g``   likelihood-ratio style measure using covariances and means,
             (1/p)[a tr(YX^-1) + b tr(XY^-1) - (a-b) log(det Y / det X)]
             + (1/p)(ybar-xbar)^T [a X^-1 + b Y^-1] (ybar-xbar) - 1
* ``mu_gc``  the covariance-only part of ``mu_g`` (no mean term)
* ``mu_sc``  sphericity measure comparing the arithmetic and geometric
             means of the eigenvalues of Y X^-1 (and of the dual X Y^-1)

All three are zero when the models coincide and invariant under a common
affine change of feature basis.

``mu_sc`` ships with two conventions. The "decomposition" default is the
weighted sum of the one-sided sphericity statistics,

    a [log(tr(YX^-1)/p) - (1/p) log det(YX^-1)]
      + b [log(tr(XY^-1)/p) - (1/p) log det(XY^-1)],

which is non-negative by the AM-GM inequality. "as-printed" flips the sign
of the determinant term; the two agree whenever M = N and the flag exists
only so both readings can be compared on unbalanced counts.

The formulas exist once, in :func:`measure_matrices`, which scores every
test of one :class:`ModelStack` against every reference of another for
any set of measures, computing the traces and the log-det ratio they
share once. The scalar functions (:func:`evaluate`, :func:`mu_g`,
:func:`mu_gc`, :func:`mu_sc`) are one-row, one-kind views of it.
"""

from __future__ import annotations

import numpy as np

from .gaussian import _CHUNK as _QUAD_CHUNK, GaussianModel, ModelStack, stack_models

MU_G = "mu_g"
MU_GC = "mu_gc"
MU_SC = "mu_sc"
MEASURE_KINDS = (MU_G, MU_GC, MU_SC)

SC_DECOMPOSITION = "decomposition"
SC_AS_PRINTED = "as-printed"
SC_CONVENTIONS = (SC_DECOMPOSITION, SC_AS_PRINTED)


def measure_matrices(
    kinds,
    refs: ModelStack,
    tests: ModelStack,
    sc_convention: str = SC_DECOMPOSITION,
) -> dict:
    """Kind -> (n_tests, n_refs) matrix for each requested measure, in the order given.

    The weights, both traces and the log-det ratio are computed once and
    shared by every kind.
    """
    kinds = tuple(kinds)
    for kind in kinds:
        if kind not in MEASURE_KINDS:
            raise ValueError(f"unknown measure kind {kind!r}")
    if sc_convention not in SC_CONVENTIONS:
        raise ValueError(f"unknown mu_sc convention {sc_convention!r}")
    if refs.dim != tests.dim:
        raise ValueError(f"dimension mismatch: {refs.dim} vs {tests.dim}")
    p = refs.dim

    total = refs.counts[None, :] + tests.counts[:, None]
    a = refs.counts[None, :] / total
    b = tests.counts[:, None] / total
    # Inverses are exactly symmetric, so tr(Y X^-1) = <Y, X^-1> and both
    # traces are (n_tests, p^2) @ (p^2, n_refs) products.
    n_t, n_r = len(tests), len(refs)
    tr1 = tests.covs.reshape(n_t, p * p) @ refs.inverses.reshape(n_r, p * p).T
    tr2 = tests.inverses.reshape(n_t, p * p) @ refs.covs.reshape(n_r, p * p).T
    skew = (a - b) * (tests.log_dets[:, None] - refs.log_dets[None, :])

    matrices = {}
    cov_part = None
    for kind in kinds:
        if kind == MU_SC:
            base = a * np.log(tr1) + b * np.log(tr2) - np.log(p)
            if sc_convention == SC_DECOMPOSITION:
                matrices[kind] = base - skew / p
            else:
                matrices[kind] = base + skew / p
            continue
        if cov_part is None:
            cov_part = (a * tr1 + b * tr2 - skew) / p - 1.0
        matrices[kind] = cov_part if kind == MU_GC else cov_part + _mean_term(a, b, refs, tests)
    return matrices


def _mean_term(a, b, refs: ModelStack, tests: ModelStack) -> np.ndarray:
    """(1/p) diff^T [a X^-1 + b Y^-1] diff for every test/reference pair."""
    (n_t, n_r), p = a.shape, refs.dim
    quad_ref = np.empty((n_t, n_r))
    quad_test = np.empty((n_t, n_r))
    # diff and the work buffer hold at most _QUAD_CHUNK tests each, so no
    # (n_tests, n_refs, p) array is ever allocated.
    diff = np.empty((min(n_t, _QUAD_CHUNK), n_r, p))
    work = np.empty_like(diff)
    for lo in range(0, n_t, _QUAD_CHUNK):
        rows = slice(lo, lo + _QUAD_CHUNK)
        means = tests.means[rows]
        d = np.subtract(means[:, None, :], refs.means[None, :, :], out=diff[: len(means)])
        w = work[: len(d)]
        # diff^T Y^-1 diff, batched over tests
        np.matmul(d, tests.inverses[rows], out=w)
        quad_test[rows] = np.einsum("trp,trp->tr", w, d)
        # diff^T X^-1 diff, batched over references through transposed views
        np.matmul(d.transpose(1, 0, 2), refs.inverses, out=w.transpose(1, 0, 2))
        quad_ref[rows] = np.einsum("trp,trp->tr", w, d)
    return (a * quad_ref + b * quad_test) / p


def evaluate(
    kind: str,
    ref: GaussianModel,
    test: GaussianModel,
    sc_convention: str = SC_DECOMPOSITION,
) -> float:
    """One measure ("mu_g" | "mu_gc" | "mu_sc") of a single pair."""
    refs, tests = stack_models([ref]), stack_models([test])
    return float(measure_matrices((kind,), refs, tests, sc_convention)[kind][0, 0])


def mu_gc(ref: GaussianModel, test: GaussianModel) -> float:
    """Covariance-only measure; zero iff the covariances are equal."""
    return evaluate(MU_GC, ref, test)


def mu_g(ref: GaussianModel, test: GaussianModel) -> float:
    """Full measure: ``mu_gc`` plus the weighted mean-difference quadratic form."""
    return evaluate(MU_G, ref, test)


def mu_sc(ref: GaussianModel, test: GaussianModel, convention: str = SC_DECOMPOSITION) -> float:
    """Sphericity measure; see module docstring for the two conventions."""
    return evaluate(MU_SC, ref, test, convention)
