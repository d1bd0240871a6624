"""Eigendecomposition of covariance matrices and noise-threshold detection.

The threshold sits at the knee of the descending log10 eigenvalue curve:
the point of maximal distance to the chord joining the curve's endpoints.
When several spectra are analyzed together (several models), the final
threshold is the minimum of their knee values.
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


def symmetric_eigendecomposition(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecompose a symmetric matrix with a deterministic sign convention.

    Returns ascending eigenvalues and a column-orthonormal eigenvector
    matrix whose columns each have their largest-magnitude entry positive.
    No PSD clamping happens here; use :func:`decompose` for covariances.

    Raises:
        NumericalError: input visibly asymmetric, solver non-convergence,
            or the returned basis fails the orthonormality contract.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"matrix must be square, got shape {a.shape}")
    scale = float(np.abs(a).max()) if a.size else 0.0
    asym = float(np.abs(a - a.T).max())
    if asym > 1e-8 * max(scale, 1e-300):
        raise NumericalError(f"matrix asymmetry {asym:.3e} is too large to decompose")
    try:
        w, v = np.linalg.eigh((a + a.T) * 0.5)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigensolver did not converge: {exc}") from exc

    # sign convention: largest-magnitude entry of each column positive
    anchor = np.argmax(np.abs(v), axis=0)
    signs = np.where(v[anchor, np.arange(v.shape[1])] < 0, -1.0, 1.0)
    v = v * signs

    gram_err = float(np.abs(v.T @ v - np.eye(v.shape[1])).max())
    if gram_err > _ORTHO_TOL:
        raise NumericalError(f"eigenvector basis not orthonormal: {gram_err:.3e}")
    return w, v


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
    """Full spectrum of a covariance matrix, with PSD roundoff clamped."""
    w, v = symmetric_eigendecomposition(c.sigma)
    w = clamp_psd_eigenvalues(w, float(np.trace(c.sigma)))
    tag = ", trace=1" if c.trace_normalized else ""
    return Spectrum(
        eigenvalues=w,
        eigenvectors=v,
        source=f"{c.modality}(n={c.n_samples}{tag})",
    )


def log_spectrum(s: Spectrum, floor: float = LOG_FLOOR) -> np.ndarray:
    """Descending log10 eigenvalue curve (index 0 = largest eigenvalue)."""
    if not floor > 0.0:
        raise PreconditionError(f"floor must be positive, got {floor!r}")
    return np.log10(np.maximum(s.eigenvalues, floor))[::-1].copy()


def detect_knee(curve: np.ndarray) -> int:
    """Index of maximal distance to the chord between a curve's endpoints.

    Ties resolve to the larger index, which flags fewer dimensions as noise.

    Args:
        curve: non-increasing values, length >= 3.

    Raises:
        PreconditionError: curve too short or increasing somewhere.
        NoKneeError: curve deviates from its chord by <= 1e-6 everywhere
            (straight or constant: no regime change to find).
    """
    curve = np.asarray(curve, dtype=np.float64)
    if curve.ndim != 1 or curve.size < 3:
        raise PreconditionError("knee detection needs a 1-D curve of length >= 3")
    if np.any(np.diff(curve) > 0.0):
        raise PreconditionError("knee detection expects a non-increasing curve")

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


@dataclass(frozen=True)
class NoiseThreshold:
    """A log10 eigenvalue cutoff plus the noise count it induces on the
    target spectrum. Membership is strict: eigenvalues exactly at the
    threshold are signal."""

    log10_value: float
    noise_count: int
    method: str
    knees: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.method not in ("knee", "fixed"):
            raise PreconditionError(f"unknown threshold method {self.method!r}")
        if self.noise_count < 0:
            raise PreconditionError("noise_count must be >= 0")


def count_noise(s: Spectrum, log10_value: float, floor: float = LOG_FLOOR) -> int:
    """How many eigenvalues fall strictly below a log10 cutoff."""
    logs = np.log10(np.maximum(s.eigenvalues, floor))
    return int(np.sum(logs < log10_value))


def noise_threshold(
    spectra: Sequence[Spectrum],
    target: int = 0,
    floor: float = LOG_FLOOR,
) -> NoiseThreshold:
    """Knee-based threshold: minimum knee value across spectra.

    Each spectrum contributes the log10 eigenvalue at its own knee; the
    final cutoff is the minimum of those, and the noise count is evaluated
    on ``spectra[target]``.

    Raises:
        NoKneeError: some spectrum has no knee (its identity is named).
        PreconditionError: empty input, bad target, or a cutoff that would
            flag the target's entire spectrum as noise.
    """
    if not spectra:
        raise PreconditionError("noise_threshold needs at least one spectrum")
    if not 0 <= target < len(spectra):
        raise PreconditionError(f"target {target} out of range for {len(spectra)} spectra")

    knees: list[float] = []
    for i, s in enumerate(spectra):
        curve = log_spectrum(s, floor=floor)
        try:
            k = detect_knee(curve)
        except NoKneeError as exc:
            raise NoKneeError(f"spectrum {i} ({s.source or 'unnamed'}): {exc}") from exc
        knees.append(float(curve[k]))

    cutoff = min(knees)
    count = count_noise(spectra[target], cutoff, floor=floor)
    if count >= spectra[target].d:
        raise PreconditionError(
            f"cutoff {cutoff} lies above the whole target spectrum "
            f"({count} of {spectra[target].d} flagged)"
        )
    return NoiseThreshold(
        log10_value=cutoff,
        noise_count=count,
        method="knee",
        knees=tuple(knees),
    )


def fixed_threshold(
    log10_value: float, spectrum: Spectrum, floor: float = LOG_FLOOR
) -> NoiseThreshold:
    """Threshold pinned by the caller instead of detected."""
    count = count_noise(spectrum, log10_value, floor=floor)
    if count >= spectrum.d:
        raise PreconditionError(
            f"cutoff {log10_value} lies above the whole spectrum"
        )
    return NoiseThreshold(
        log10_value=float(log10_value),
        noise_count=count,
        method="fixed",
    )
