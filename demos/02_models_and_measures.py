"""The three second-order measures and the properties that make them usable.

Builds Gaussian models from synthetic feature streams and evaluates mu_g,
mu_gc and mu_sc between them, then demonstrates the properties the
identification rule leans on: zero at identity, symmetry in the weighted
sense, mu_g >= mu_gc >= 0, and invariance under a change of feature basis.
"""

import numpy as np

from sosid import (
    GaussianModel,
    factorize,
    mu_g,
    mu_gc,
    mu_sc,
)

rng = np.random.default_rng(42)
p = 24

def random_speaker():
    a = rng.standard_normal((p, p)) / np.sqrt(p)
    return rng.standard_normal(p) * 0.7, a @ a.T + np.eye(p)

mean_a, cov_a = random_speaker()
mean_b, cov_b = random_speaker()

def sample_model(mean, cov, n):
    frames = rng.standard_normal((n, p)) @ np.linalg.cholesky(cov).T + mean
    return GaussianModel.from_frames(frames)

ref = sample_model(mean_a, cov_a, 1500)    # like 15 s of training
test_same = sample_model(mean_a, cov_a, 100)   # 1 s from the same speaker
test_other = sample_model(mean_b, cov_b, 100)  # 1 s from someone else

print(f"{'measure':8s} {'same speaker':>14s} {'other speaker':>14s}")
for name, fn in (("mu_g", mu_g), ("mu_gc", mu_gc), ("mu_sc", mu_sc)):
    print(f"{name:8s} {fn(ref, test_same):14.4f} {fn(ref, test_other):14.4f}")

# Zero at identity: a model against itself scores (numerically) zero.
print(f"\nself-comparison mu_g: {mu_g(ref, ref):.2e}")

# Symmetry holds including the count weighting (1500 vs 100 frames here).
print(f"symmetric: {mu_g(ref, test_other) == mu_g(test_other, ref)}")

# The mean term separates mu_g from mu_gc and is never negative.
gap = mu_g(ref, test_other) - mu_gc(ref, test_other)
print(f"mean-vector term (mu_g - mu_gc): {gap:.4f}")

# Affine invariance: re-expressing every model in a new feature basis
# (x -> Ax + c) moves none of the measures.
q, _ = np.linalg.qr(rng.standard_normal((p, p)))
a_map = q @ np.diag(rng.uniform(0.5, 2.0, size=p))
shift = rng.standard_normal(p)

def remap(model):
    return GaussianModel(
        mean=a_map @ model.mean + shift,
        cov=a_map @ model.cov @ a_map.T,
        count=model.count,
    )

before = mu_gc(ref, test_other)
after = mu_gc(remap(ref), remap(test_other))
print(f"affine invariance: before={before:.10f} after={after:.10f}")

# Determinants and inverses come from one cached Cholesky factorization.
fact = factorize(ref)
print(f"\nlog det of the 15 s model: {fact.log_det:.4f} (loading {fact.loading})")
