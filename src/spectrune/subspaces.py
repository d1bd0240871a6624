"""Noise subspaces, overlap metrics, and noise-removing projections.

Overlap between two subspaces is measured by the mean squared cosine of
their principal angles: the singular values of B1^T B2 are exactly those
cosines, so the metric is the mean of their squares. It is 1.0 for
identical spans, 0.0 for orthogonal ones, and invariant to the choice of
orthonormal basis inside each span.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spectrune.covariance import sidecar_path
from spectrune.errors import (
    DimError,
    EmptySubspaceError,
    NumericalError,
    PreconditionError,
)
from spectrune.npy import FLOAT_DESCRS, read_json, read_npy, write_json, write_npy
from spectrune.spectral import LOG_FLOOR, NoiseThreshold, Spectrum, count_noise
from spectrune.store import EmbeddingMatrix, _frozen

_ORTHO_TOL = 1e-8
_COSINE_SLACK = 1e-8


@dataclass(frozen=True)
class Subspace:
    """A d-by-p column-orthonormal basis with provenance."""

    basis: np.ndarray
    origin: str = ""

    def __post_init__(self) -> None:
        basis = np.asarray(self.basis, dtype=np.float64)
        if basis.ndim != 2:
            raise PreconditionError(f"basis must be 2-D, got shape {basis.shape}")
        d, p = basis.shape
        if not 1 <= p <= d:
            raise PreconditionError(f"need 1 <= p <= d, got basis shape {basis.shape}")
        gram_err = float(np.abs(basis.T @ basis - np.eye(p)).max())
        if gram_err > _ORTHO_TOL:
            raise NumericalError(f"basis not orthonormal: max |B'B - I| = {gram_err:.3e}")
        object.__setattr__(self, "basis", _frozen(basis))

    @property
    def d(self) -> int:
        return int(self.basis.shape[0])

    @property
    def p(self) -> int:
        return int(self.basis.shape[1])


@dataclass(frozen=True)
class OverlapReport:
    """mSCSA value plus the underlying principal-angle cosines.

    ``dims_mismatch`` flags pairs with different subspace dimensions, where
    the metric averages over the min(p1, p2) available angles.
    """

    mscsa: float
    principal_cosines: np.ndarray
    dims_mismatch: bool = False

    def to_dict(self) -> dict:
        return {
            "mscsa": float(self.mscsa),
            "principal_cosines": [float(c) for c in self.principal_cosines],
            "dims_mismatch": bool(self.dims_mismatch),
        }


def noise_subspace(s: Spectrum, t: NoiseThreshold) -> Subspace:
    """Eigenvectors of all eigenvalues strictly below the threshold.

    Raises:
        EmptySubspaceError: nothing falls below the cutoff.
    """
    p = count_noise(s, t.log10_value)
    if p == 0:
        raise EmptySubspaceError(
            f"no eigenvalue of {s.source or 'spectrum'} lies below "
            f"10^{t.log10_value}"
        )
    return Subspace(
        basis=s.eigenvectors[:, :p],
        origin=f"{s.source} eigenvalues[0:{p}] below 10^{t.log10_value:.6g}",
    )


def lowest_k_subspace(s: Spectrum, k: int) -> Subspace:
    """Span of the eigenvectors paired with the k smallest eigenvalues."""
    if not 1 <= k <= s.d:
        raise PreconditionError(f"need 1 <= k <= {s.d}, got {k}")
    return Subspace(
        basis=s.eigenvectors[:, :k],
        origin=f"{s.source} eigenvalues[0:{k}]",
    )


def mscsa(a: Subspace, b: Subspace) -> OverlapReport:
    """Mean squared cosine of the principal angles between two subspaces.

    The cosines are the singular values of ``a.basis.T @ b.basis``, clamped
    to [0, 1]; with unequal dimensions the min(p_a, p_b) angles are
    averaged and the report flags the mismatch.

    Raises:
        DimError: ambient dimensions differ.
        NumericalError: a singular value exceeds 1 by more than 1e-8.
    """
    if a.d != b.d:
        raise DimError(f"ambient dimension mismatch: {a.d} vs {b.d}")
    overlap = a.basis.T @ b.basis
    cosines = np.linalg.svd(overlap, compute_uv=False)
    worst = float(cosines.max(initial=0.0))
    if worst > 1.0 + _COSINE_SLACK:
        raise NumericalError(f"principal cosine {worst!r} exceeds 1 beyond tolerance")
    cosines = np.clip(cosines, 0.0, 1.0)
    return OverlapReport(
        mscsa=float(np.mean(cosines**2)),
        principal_cosines=cosines,
        dims_mismatch=a.p != b.p,
    )


def projection_remove(v: Subspace | np.ndarray) -> np.ndarray:
    """The symmetric idempotent P = I - B B^T that zeroes the subspace: the
    explicit d-by-d reference that the factored ``remove_component`` is
    tested against.

    Accepts a raw d-by-p orthonormal array as well; a d-by-0 array is the
    conceptual p = 0 case and yields the identity.
    """
    basis = v.basis if isinstance(v, Subspace) else np.asarray(v, dtype=np.float64)
    if basis.ndim != 2:
        raise PreconditionError(f"basis must be 2-D, got shape {basis.shape}")
    d = basis.shape[0]
    p = np.eye(d) - basis @ basis.T
    return (p + p.T) * 0.5


def remove_component(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    """Rows of x minus their components inside the basis span (factored
    form of the removal projection; never materializes a d-by-d matrix)."""
    return x - (x @ basis) @ basis.T


def apply_removal(v: Subspace, m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Factored application of the removal projection; agrees with the
    explicit ``m.data @ projection_remove(v)`` to within 1e-12."""
    if v.d != m.d:
        raise DimError(f"subspace width {v.d} != embedding width {m.d}")
    return m.with_data(remove_component(m.data, v.basis), source_suffix="|projected")


def per_class_overlap(
    spectra: dict[int, Spectrum], global_noise: Subspace
) -> dict[int, float]:
    """mSCSA between the global noise span and each class's own
    lowest-variance span of the same dimension.

    ``spectra`` maps class ids to the decompositions of their covariances,
    as ``per_class_covariances`` builds them (trace-normalized, the global
    pipeline's convention).

    Raises:
        DimError: a spectrum's width differs from the subspace's.
    """
    for label, s in spectra.items():
        if s.d != global_noise.d:
            raise DimError(
                f"class {label} width {s.d} != subspace width {global_noise.d}"
            )
    k = global_noise.p
    return {
        label: mscsa(lowest_k_subspace(spectra[label], k), global_noise).mscsa
        for label in sorted(spectra)
    }


@dataclass(frozen=True)
class ClassSpectrumDistances:
    """Pairwise RMS distances between per-class eigenvalue curves."""

    labels: tuple[int, ...]
    distances: np.ndarray


def class_spectrum_distance(spectra: dict[int, Spectrum]) -> ClassSpectrumDistances:
    """RMS distance between mean-centered per-class log10 eigenvalue vectors.

    ``spectra`` maps class ids to the same decompositions that
    ``per_class_overlap`` takes. Mean-centering in log10 cancels constant
    log-shifts, i.e. global rescalings of a class; eigenvalues below
    ``LOG_FLOOR`` count as ``LOG_FLOOR``.
    """
    labels = sorted(spectra)
    curves: list[np.ndarray] = []
    for label in labels:
        vec = np.log10(np.maximum(spectra[label].eigenvalues, LOG_FLOOR))
        curves.append(vec - vec.mean())
    stack = np.asarray(curves)
    # one row at a time: O(C * d) memory instead of a C x C x d broadcast
    dist = np.empty((len(curves), len(curves)))
    for i, curve in enumerate(stack):
        dist[i] = np.sqrt(np.mean((curve - stack) ** 2, axis=1))
    dist = (dist + dist.T) * 0.5
    np.fill_diagonal(dist, 0.0)
    return ClassSpectrumDistances(labels=tuple(labels), distances=dist)


# --- persistence: NPY basis + JSON sidecar ---


def save_subspace(v: Subspace, npy_path: Path | str) -> None:
    write_npy(npy_path, v.basis)
    write_json(sidecar_path(npy_path), {"origin": v.origin, "d": v.d, "p": v.p})


def load_subspace(npy_path: Path | str) -> Subspace:
    basis = read_npy(npy_path, FLOAT_DESCRS, ndim=2).astype(np.float64)
    side = sidecar_path(npy_path)
    origin = str(read_json(side).get("origin", "")) if side.is_file() else ""
    return Subspace(basis=basis, origin=origin)
