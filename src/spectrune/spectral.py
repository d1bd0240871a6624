"""Eigendecomposition of covariance matrices and noise-cutoff detection.

The cutoff sits at the knee of the descending log10 eigenvalue curve:
the point of maximal distance to the chord joining the curve's endpoints.
When several spectra are analyzed together (several models), the cutoff
is the minimum of their knee values. ``count_noise`` is the one rule that
turns a cutoff into a noise count; ``subspaces.noise_subspace`` applies it
to take the noise span.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from spectrune.covariance import CovarianceMatrix
from spectrune.errors import NoKneeError, NumericalError, PreconditionError
from spectrune.store import _frozen

# eigenvalues below this are clamped before taking log10
LOG_FLOOR = 1e-15

# a knee must deviate from the chord by more than this to count
KNEE_SIGNIFICANCE = 1e-6

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class Spectrum:
    """Full eigendecomposition of a symmetric matrix.

    ``eigenvalues`` are ascending; column i of ``eigenvectors`` pairs with
    eigenvalue i. ``source`` is a human-readable id of the decomposed
    covariance, carried into downstream provenance.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    source: str = ""

    def __post_init__(self) -> None:
        w = np.asarray(self.eigenvalues, dtype=np.float64)
        v = np.asarray(self.eigenvectors, dtype=np.float64)
        if w.ndim != 1 or v.ndim != 2 or v.shape != (w.size, w.size):
            raise PreconditionError(
                f"spectrum shapes inconsistent: {w.shape} vs {v.shape}"
            )
        if np.any(np.diff(w) < 0):
            raise PreconditionError("eigenvalues must be ascending")
        if np.any(w < 0):
            raise NumericalError("negative eigenvalue in a validated spectrum")
        object.__setattr__(self, "eigenvalues", _frozen(w))
        object.__setattr__(self, "eigenvectors", _frozen(v))

    @property
    def d(self) -> int:
        return int(self.eigenvalues.size)


def clamp_psd_eigenvalues(w: np.ndarray, trace: float) -> np.ndarray:
    """Zero out roundoff-negative eigenvalues; reject real negativity.

    Values in [-1e-10 * trace, 0) are clamped to 0. Anything more negative
    means the matrix was not PSD and raises NumericalError, which is the
    boundary between roundoff and an upstream bug.
    """
    tol = 1e-10 * max(trace, 0.0)
    low = float(w.min()) if w.size else 0.0
    if low < -tol:
        raise NumericalError(
            f"eigenvalue {low:.6e} below PSD tolerance {-tol:.6e}"
        )
    return np.where(w < 0.0, 0.0, w)


def decompose(c: CovarianceMatrix) -> Spectrum:
    """Full spectrum of a covariance matrix with a deterministic sign
    convention: ascending eigenvalues, PSD roundoff clamped, and each
    eigenvector column with its largest-magnitude entry positive.
    ``CovarianceMatrix`` stores sigma square, finite and exactly symmetric
    (an input within 1e-12 relative asymmetry as its symmetric part), so
    the solver reads sigma as stored, with no symmetrized copy.

    Raises:
        NumericalError: solver non-convergence, a basis that fails the
            orthonormality contract, or an eigenvalue too negative to be
            roundoff.
    """
    try:
        w, v = np.linalg.eigh(c.sigma)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc

    # sign convention: largest-magnitude entry of each column positive
    # (|V^T| in C order: an argmax down V's columns would copy |V| once more)
    anchor = np.argmax(np.abs(v.T, order="C"), axis=1)
    v *= np.where(v[anchor, np.arange(v.shape[1])] < 0, -1.0, 1.0)

    gram = v.T @ v
    gram.flat[:: gram.shape[0] + 1] -= 1.0  # V^T V - I, with no identity built
    gram_err = float(np.abs(gram, out=gram).max())
    if gram_err > _ORTHO_TOL:
        raise NumericalError(f"eigenvector basis not orthonormal: {gram_err:.3e}")
    w = clamp_psd_eigenvalues(w, float(np.trace(c.sigma)))
    w.flags.writeable = v.flags.writeable = False  # fresh arrays: hand them over
    tag = ", trace=1" if c.trace_normalized else ""
    return Spectrum(
        eigenvalues=w,
        eigenvectors=v,
        source=f"{c.modality}(n={c.n_samples}{tag})",
    )


def log_spectrum(s: Spectrum) -> np.ndarray:
    """Descending log10 eigenvalue curve (index 0 = largest eigenvalue),
    with eigenvalues below ``LOG_FLOOR`` read as ``LOG_FLOOR``."""
    return np.log10(np.maximum(s.eigenvalues, LOG_FLOOR))[::-1].copy()


def detect_knee(curve: np.ndarray) -> int:
    """Index of maximal distance to the chord between a curve's endpoints.

    Ties resolve to the larger index, which flags fewer dimensions as noise.

    Args:
        curve: 1-D non-increasing values.

    Raises:
        PreconditionError: curve not 1-D, or increasing somewhere.
        NoKneeError: curve shorter than 3 points (no interior point), or
            deviating from its chord by <= 1e-6 everywhere (straight or
            constant: no regime change to find).
    """
    curve = np.asarray(curve, dtype=np.float64)
    if curve.ndim != 1:
        raise PreconditionError(f"knee detection needs a 1-D curve, got shape {curve.shape}")
    if np.any(np.diff(curve) > 0.0):
        raise PreconditionError("knee detection expects a non-increasing curve")
    if curve.size < 3:
        raise NoKneeError(f"a curve of {curve.size} points has no interior point")

    m = curve.size - 1
    drop = curve[-1] - curve[0]
    idx = np.arange(curve.size, dtype=np.float64)
    # distance from (i, curve[i]) to the line through (0, c0) and (m, cm)
    dist = np.abs(drop * idx - m * (curve - curve[0])) / math.hypot(drop, m)
    best = float(dist.max())
    if best <= KNEE_SIGNIFICANCE:
        raise NoKneeError(
            f"max chord distance {best:.3e} below significance {KNEE_SIGNIFICANCE}"
        )
    return int(np.flatnonzero(dist == best)[-1])


def count_noise(s: Spectrum, log10_value: float) -> int:
    """How many eigenvalues fall strictly below a log10 cutoff: an
    eigenvalue exactly at the cutoff is signal."""
    logs = np.log10(np.maximum(s.eigenvalues, LOG_FLOOR))
    return int(np.sum(logs < log10_value))


def noise_threshold(spectra: Sequence[Spectrum]) -> tuple[float, tuple[float, ...]]:
    """Knee-based cutoff: ``(cutoff, knees)``, where ``knees`` holds each
    spectrum's log10 eigenvalue at its own knee, in order, and ``cutoff``
    is their minimum.

    Raises:
        NoKneeError: some spectrum has no knee (its identity is named).
        PreconditionError: empty input.
    """
    if not spectra:
        raise PreconditionError("noise_threshold needs at least one spectrum")

    knees: list[float] = []
    for i, s in enumerate(spectra):
        curve = log_spectrum(s)
        try:
            k = detect_knee(curve)
        except NoKneeError as exc:
            raise NoKneeError(f"spectrum {i} ({s.source or 'unnamed'}): {exc}") from exc
        knees.append(float(curve[k]))
    return min(knees), tuple(knees)
