"""Is the low-variance span a global property or a per-class artifact?

Build labeled data where every class has its own mean and its own spread,
but all classes share one planted low-variance span. Then, per class:
estimate the class covariance, take its lowest-variance directions, and
measure their overlap with the globally planted span. If the span is a
shared (class-independent) structure, every class's overlap should sit
near 1 and far above the p/d chance level; and the mean-centered log
eigenvalue curves of different classes should be close to each other.

Run:  python3 demos/04_per_class_invariance.py
"""

import numpy as np

from spectrune import (
    EmbeddingMatrix,
    Subspace,
    class_overlap,
    class_spectrum_distance,
    per_class_covariances,
)

rng = np.random.default_rng(2)
d, p, classes, per_class = 48, 8, 6, 400

# One shared rotation; the last p columns are the planted span.
q, r = np.linalg.qr(rng.standard_normal((d, d)))
q = q * np.where(np.diag(r) < 0, -1.0, 1.0)
signal, planted = q[:, : d - p], q[:, d - p :]

rows, labels = [], []
for c in range(classes):
    center = rng.standard_normal(d - p) * 4.0
    spread = rng.uniform(0.6, 1.6, size=d - p)  # classes differ in shape
    coords = center + rng.standard_normal((per_class, d - p)) * spread
    noise = rng.standard_normal((per_class, p)) * 1e-3  # tiny shared floor
    rows.append(coords @ signal.T + noise @ planted.T)
    labels.extend([c] * per_class)

data = EmbeddingMatrix(np.vstack(rows), labels=np.asarray(labels))

# One factor F per class, its centered rows scaled to unit norm, so that
# F^T F is its trace-normalized covariance: built when its class is reached
# and decomposed once, as the d x d F^T F here, or as the small Gram matrix
# F F^T for a class of at most d - p rows, too few for a defined lowest-p
# span. Only the overlap and the eigenvalues are kept, so one class is
# alive at a time. (A class under 2 rows, or of equal rows, would come with
# None instead of a factor.)
print(f"chance level p/d = {p / d:.3f}")
print("per-class overlap with the planted span:")
span, eigenvalues = Subspace(planted), {}
for label, n_rows, factor in per_class_covariances(data):
    overlap, eigenvalues[label] = class_overlap(factor, span)
    print(f"  class {label} ({n_rows} rows): {overlap:.4f}")

# Per-class eigenvalue curves, compared after mean-centering in log space
# (so global class rescalings cancel).
distances = class_spectrum_distance(eigenvalues)
upper = distances.distances[np.triu_indices(classes, k=1)]
print(
    f"\nRMS distance between mean-centered per-class log spectra: "
    f"min {upper.min():.3f}, mean {upper.mean():.3f}, max {upper.max():.3f}"
)
print("(near-zero distances = the classes share one spectral shape)")
