"""Streaming covariance and the eigenvalue curve, step by step.

We never hold a centered copy of the data: batches fold into a mergeable
(count, mean, m2) state, and independent per-chunk states combine at the
end. The finalized matrix is trace-normalized so spectra are comparable
across sources, and the log10 eigenvalue curve makes the low-variance
floor visible.

Run:  python3 demos/01_covariance_and_spectrum.py
"""

import numpy as np

from spectrune import (
    CovarianceAccumulator,
    EmbeddingMatrix,
    accumulate,
    decompose,
    detect_knee,
    finalize,
    log_spectrum,
    merge,
    normalize_trace,
)

rng = np.random.default_rng(0)

# A population with three variance regimes: a few strong directions, a
# broad mid bulk, and a deep low-variance floor.
stds = np.concatenate([np.full(4, 3.0), np.full(44, 1.0), np.full(16, 1e-3)])
data = rng.standard_normal((20_000, 64)) * stds

# Pretend the rows arrive in chunks (files, shards, workers...).
chunks = np.array_split(data, 13)

# Route A: one accumulator sees every chunk in order.
acc = CovarianceAccumulator.empty()
for chunk in chunks:
    acc = accumulate(acc, EmbeddingMatrix(chunk))

# Route B: each chunk gets its own accumulator; merge afterwards. This is
# the parallel layout, and it must land on the same matrix.
parts = [accumulate(CovarianceAccumulator.empty(), EmbeddingMatrix(c)) for c in chunks]
acc_merged = parts[0]
for part in parts[1:]:
    acc_merged = merge(acc_merged, part)

sequential = finalize(acc, "image")
parallel = finalize(acc_merged, "image")
gap = np.linalg.norm(sequential.sigma - parallel.sigma) / np.linalg.norm(
    sequential.sigma
)
print(f"sequential vs merged covariance, relative gap: {gap:.2e}")

# Normalize the trace to 1 and decompose.
cov = normalize_trace(sequential)
spectrum = decompose(cov)
print(f"eigenvalue sum (should be 1): {spectrum.eigenvalues.sum():.12f}")

# The descending log10 curve: index 0 is the strongest direction.
curve = log_spectrum(spectrum)
print("\nlog10 eigenvalue curve (every 8th point):")
for i in range(0, curve.size, 8):
    bar = "#" * max(0, int(12 + 2 * curve[i]))
    print(f"  rank {i:3d}  {curve[i]:8.3f}  {bar}")

# The knee marks the regime change before the low-variance floor.
knee = detect_knee(curve)
print(f"\nknee at rank {knee} (log10 value {curve[knee]:.3f})")
print(f"dimensions strictly below the knee value: {np.sum(curve < curve[knee])}")
print("expected from the construction: 16 low-variance dimensions")
