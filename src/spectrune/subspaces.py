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

from spectrune.covariance import CovarianceMatrix, sidecar_path
from spectrune.errors import (
    DimError,
    EmptySubspaceError,
    NumericalError,
    PreconditionError,
    in_file,
)
from spectrune.npy import FLOAT_DESCRS, read_json, read_npy, write_json, write_npy
from spectrune.spectral import (
    LOG_FLOOR,
    Spectrum,
    clamp_psd_eigenvalues,
    count_noise,
    decompose,
)
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


def noise_subspace(s: Spectrum, log10_cutoff: float) -> Subspace:
    """Eigenvectors of all eigenvalues strictly below a log10 cutoff: the
    noise span, whose width ``p`` is the noise count ``count_noise`` gives.

    Raises:
        EmptySubspaceError: nothing falls below the cutoff.
        PreconditionError: everything does: the cutoff lies above the whole
            spectrum.
    """
    p = count_noise(s, log10_cutoff)
    name = s.source or "spectrum"
    if p == 0:
        raise EmptySubspaceError(f"no eigenvalue of {name} lies below 10^{log10_cutoff}")
    if p == s.d:
        raise PreconditionError(
            f"cutoff 10^{log10_cutoff} lies above the whole spectrum of {name} ({p} of {s.d} flagged)"
        )
    return Subspace(
        basis=s.eigenvectors[:, :p],
        origin=f"{s.source} eigenvalues[0:{p}] below 10^{log10_cutoff:.6g}",
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
    form of the removal projection; never materializes a d-by-d matrix).
    The difference is written into the product's own buffer."""
    out = (x @ basis) @ basis.T
    return np.subtract(x, out, out=out)


def apply_removal(v: Subspace, m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Factored application of the removal projection; agrees with the
    explicit ``m.data @ projection_remove(v)`` to within 1e-12."""
    if v.d != m.d:
        raise DimError(f"subspace width {v.d} != embedding width {m.d}")
    data = remove_component(m.data, v.basis)
    data.flags.writeable = False  # a fresh array: hand it over
    return EmbeddingMatrix(data, m.labels, m.source + "|projected", m.first_row)


def per_class_overlap(spectrum: Spectrum, global_noise: Subspace) -> float:
    """mSCSA between the global noise span and one class's own
    lowest-variance span of the same dimension.

    ``spectrum`` is the decomposition of the class's trace-normalized
    covariance (the global pipeline's convention), as ``class_overlap``
    takes it. A class whose numerical rank r leaves more than
    k = ``global_noise.p`` null directions (d - r > k) has no defined
    lowest-k span, only an arbitrary slice of its null space, and reads NaN.
    r counts the eigenvalues above ``max eigenvalue * d * eps``, the rule of
    ``numpy.linalg.matrix_rank``.

    Raises:
        DimError: the spectrum's width differs from the subspace's.
    """
    d, k = spectrum.d, global_noise.p
    if d != global_noise.d:
        raise DimError(f"class spectrum width {d} != subspace width {global_noise.d}")
    overlap = mscsa(Subspace(spectrum.eigenvectors[:, :k]), global_noise).mscsa
    w = spectrum.eigenvalues
    rank = np.count_nonzero(w > w[-1] * d * np.finfo(float).eps)
    return overlap if d - rank <= k else float("nan")


def class_overlap(
    factor: np.ndarray | None, global_noise: Subspace
) -> tuple[float, np.ndarray | None]:
    """A class's ``per_class_overlap`` and its d ascending eigenvalues, from
    the n-by-d factor F that ``per_class_covariances`` yields for it (NaN
    and None for None). F of n <= d - k rows has rank at most n - 1, too
    low for a lowest-k span: it reads NaN at once, and its eigenvalues are
    those of the n-by-n Gram matrix F F^T (trace 1), clamped and padded
    with d - n zeros. F of more rows is decomposed as the d-by-d F^T F.

    Raises:
        DimError: the class's width differs from the subspace's.
    """
    if factor is None:
        return float("nan"), None
    (n, d), k = factor.shape, global_noise.p
    if d != global_noise.d:
        raise DimError(f"class width {d} != subspace width {global_noise.d}")
    if n <= d - k:
        w = clamp_psd_eigenvalues(np.linalg.eigvalsh(factor @ factor.T), 1.0)
        return float("nan"), np.concatenate([np.zeros(d - n), w])
    # the tag names no file: only the overlap and the eigenvalues leave
    spectrum = decompose(CovarianceMatrix(factor.T @ factor, n, "image", trace_normalized=True))
    return per_class_overlap(spectrum, global_noise), spectrum.eigenvalues


@dataclass(frozen=True)
class ClassSpectrumDistances:
    """Pairwise RMS distances between per-class eigenvalue curves."""

    labels: tuple[int, ...]
    distances: np.ndarray


def class_spectrum_distance(
    eigenvalues: dict[int, np.ndarray | None],
) -> ClassSpectrumDistances:
    """RMS distance between mean-centered per-class log10 eigenvalue vectors.

    ``eigenvalues`` maps class ids to the eigenvalues that ``class_overlap``
    returns, or to None for a class without a spectrum; such a class reads
    NaN in its whole row and column, diagonal included. Mean-centering in
    log10 cancels constant log-shifts, i.e. global rescalings of a class;
    eigenvalues below ``LOG_FLOOR`` count as ``LOG_FLOOR``.
    """
    labels = sorted(eigenvalues)
    defined = np.array([i for i, label in enumerate(labels) if eigenvalues[label] is not None], dtype=np.intp)
    curves: list[np.ndarray] = []
    for i in defined:
        vec = np.log10(np.maximum(eigenvalues[labels[i]], LOG_FLOOR))
        curves.append(vec - vec.mean())
    stack = np.asarray(curves)
    # one row at a time, O(C * d) memory instead of a C x C x d broadcast, and
    # each pair once: (x - y)^2 = (y - x)^2 exactly, so the mirror is exact,
    # and a class's own distance is exactly 0
    dist = np.full((len(labels), len(labels)), np.nan)
    for k, (i, curve) in enumerate(zip(defined, stack)):
        dist[i, defined[k:]] = dist[defined[k:], i] = np.sqrt(np.mean((curve - stack[k:]) ** 2, axis=1))
    return ClassSpectrumDistances(labels=tuple(labels), distances=dist)


# --- persistence: NPY basis + JSON sidecar ---


def save_subspace(v: Subspace, npy_path: Path | str) -> None:
    write_npy(npy_path, v.basis)
    write_json(sidecar_path(npy_path), {"origin": v.origin, "d": v.d, "p": v.p})


def load_subspace(npy_path: Path | str) -> Subspace:
    """A basis saved by ``save_subspace``; errors name the file."""
    basis = read_npy(npy_path, FLOAT_DESCRS, ndim=2).astype(np.float64, copy=False)
    basis.flags.writeable = False  # a fresh array: hand it over
    side = sidecar_path(npy_path)
    origin = str(read_json(side).get("origin", "")) if side.is_file() else ""
    with in_file(npy_path):
        return Subspace(basis=basis, origin=origin)
