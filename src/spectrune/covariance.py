"""Streaming covariance estimation with mergeable accumulators.

The running state is (count, mean, m2) where m2 is the sum of centered
outer products. A batch folds in as its own (count, mean, m2) merged into
the running state, so a dataset never needs a centered copy in memory; the
textbook two-pass formula exists only in the test suite as the oracle.
Batches and whole accumulators combine through the one pairwise update of
``_merge``, so the blocks of a dump and whole dumps fold by the same rule.
A batch's fold builds the combined m2 in the batch's own fresh m2, beside
one d-by-d temporary for the outer product; ``merge`` builds it in a fresh
array and leaves both inputs as they were.

The running m2 stays exactly symmetric: numpy forms ``c.T @ c`` with
``syrk`` and mirrors the triangle, and a sum of exactly symmetric terms is
exactly symmetric. Finalized matrices use the unbiased 1/(n-1) divisor and
are symmetrized once more, so an accumulator built by hand (or by a BLAS
without that path) still finalizes to an exactly symmetric matrix.

Symmetry is enforced in one place, ``CovarianceMatrix``: it rejects an
asymmetry above 1e-12 relative, stores a smaller one as the symmetric part
(sigma + sigma^T)/2, and keeps an exactly symmetric input as it is. So
every stored sigma is exactly symmetric, and the eigensolver reads it as
stored.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from spectrune.errors import (
    DataError,
    DegenerateCovarianceError,
    DimError,
    FormatError,
    InsufficientSamplesError,
    NumericalError,
    PreconditionError,
    in_file,
)
from spectrune.npy import FLOAT_DESCRS, read_json, read_npy, write_json, write_npy
from spectrune.store import EmbeddingDump, EmbeddingMatrix, _frozen, iter_classes

COV_MODALITIES = (
    "image",
    "text",
    "average",
    "kernel-image",
    "kernel-text",
    "kernel-average",
)

# relative asymmetry allowed in stored matrices
_SYM_TOL = 1e-12


@dataclass(frozen=True)
class CovarianceAccumulator:
    """Mergeable running state: sample count, mean vector, centered
    outer-product sum. An empty accumulator (count 0) has width 0 and
    adapts to whatever it is first merged with."""

    count: int
    mean: np.ndarray
    m2: np.ndarray

    @classmethod
    def empty(cls) -> "CovarianceAccumulator":
        return cls(count=0, mean=np.zeros(0), m2=np.zeros((0, 0)))

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])


@dataclass(frozen=True)
class CovarianceMatrix:
    """A finalized d-by-d covariance with provenance.

    Attributes:
        sigma: exactly symmetric, finite float64 matrix; an input within
            1e-12 relative asymmetry is stored as (sigma + sigma^T)/2.
        n_samples: rows that produced it.
        modality: one of image, text, average, kernel-image, kernel-text,
            kernel-average.
        trace_normalized: whether sigma was rescaled to unit trace.
    """

    sigma: np.ndarray
    n_samples: int
    modality: str
    trace_normalized: bool = False

    def __post_init__(self) -> None:
        sigma = np.asarray(self.sigma, dtype=np.float64)
        if sigma.ndim != 2 or sigma.shape[0] != sigma.shape[1] or sigma.shape[0] < 1:
            raise DimError(f"covariance must be square with d >= 1, got shape {sigma.shape}")
        # one d-by-d temporary: |sigma|, whose maximum is non-finite exactly
        # when an entry is, and then sigma - sigma^T, which is antisymmetric,
        # so its largest entry is its largest magnitude
        buf = np.abs(sigma)
        scale = float(buf.max())
        if not math.isfinite(scale):
            raise DataError("non-finite entry in covariance")
        asym = float(np.subtract(sigma, sigma.T, out=buf).max())
        if asym > _SYM_TOL * max(scale, 1e-300):
            raise NumericalError(
                f"covariance asymmetry {asym:.3e} exceeds {_SYM_TOL} relative"
            )
        if asym > 0.0:  # stored as its symmetric part, built in the same buffer
            np.add(sigma, sigma.T, out=buf)
            buf *= 0.5
            buf.flags.writeable = False
            sigma = buf
        del buf
        if self.modality not in COV_MODALITIES:
            raise PreconditionError(
                f"modality must be one of {COV_MODALITIES}, got {self.modality!r}"
            )
        if self.trace_normalized:
            trace = float(np.trace(sigma))
            if abs(trace - 1.0) > 1e-12:
                raise NumericalError(
                    f"trace_normalized matrix has trace {trace!r}, not 1.0"
                )
        object.__setattr__(self, "sigma", _frozen(sigma))

    @property
    def d(self) -> int:
        return int(self.sigma.shape[0])


def accumulate(acc: CovarianceAccumulator, batch: EmbeddingMatrix) -> CovarianceAccumulator:
    """Fold a batch of rows into the running state: the batch's own
    (count, mean, m2) merged into ``acc``, the result built in the batch's
    m2. The batch's centered copy is released before the merge, so the
    merge's d-by-d temporary never sits beside a second array of the
    batch's size.

    Raises:
        DimError: batch width differs from a non-empty accumulator's.
    """
    mean = batch.data.mean(axis=0)
    centered = batch.data - mean
    m2 = centered.T @ centered
    del centered
    return _merge(acc, CovarianceAccumulator(batch.n, mean, m2), in_place=True)


def merge(a: CovarianceAccumulator, b: CovarianceAccumulator) -> CovarianceAccumulator:
    """Combine two accumulators as if their streams were concatenated,
    leaving both as they were.

    Commutative and associative to within 1e-10 relative; an empty side
    returns the other as it is.

    Raises:
        DimError: accumulator widths differ.
    """
    return _merge(a, b, in_place=False)


def _merge(a: CovarianceAccumulator, b: CovarianceAccumulator, in_place: bool) -> CovarianceAccumulator:
    """The pairwise update of ``merge``: m2 = (a.m2 + b.m2) + s * delta delta^T,
    built in ``b.m2`` when ``in_place`` (the caller's own array) and in a
    fresh array otherwise, beside one d-by-d temporary for the outer product."""
    if a.count == 0:
        return b
    if b.count == 0:
        return a
    if a.dim != b.dim:
        raise DimError(f"cannot merge widths {a.dim} and {b.dim}")
    n = a.count + b.count
    mean = (a.mean * a.count + b.mean * b.count) / n
    delta = b.mean - a.mean
    m2 = np.add(a.m2, b.m2, out=b.m2 if in_place else None)
    outer = np.outer(delta, delta)
    outer *= a.count * b.count / n
    m2 += outer
    return CovarianceAccumulator(n, mean, m2)


def finalize(acc: CovarianceAccumulator, modality: str) -> CovarianceMatrix:
    """Turn the running state into an unbiased covariance matrix tagged
    ``modality``, one of ``COV_MODALITIES``.

    Raises:
        InsufficientSamplesError: fewer than 2 samples seen.
    """
    if acc.count < 2:
        raise InsufficientSamplesError(
            f"covariance needs at least 2 samples, accumulator has {acc.count}"
        )
    sigma = acc.m2 / (acc.count - 1)
    sigma = (sigma + sigma.T) * 0.5
    sigma.flags.writeable = False  # a fresh array: hand it over
    return CovarianceMatrix(sigma=sigma, n_samples=acc.count, modality=modality)


def covariance_of(m: EmbeddingMatrix, modality: str) -> CovarianceMatrix:
    """One-shot covariance of a single matrix via the accumulator path,
    tagged ``modality``."""
    return finalize(accumulate(CovarianceAccumulator.empty(), m), modality)


def normalize_trace(c: CovarianceMatrix) -> CovarianceMatrix:
    """Rescale so the trace is exactly 1, leaving eigenvectors untouched.

    Raises:
        DegenerateCovarianceError: trace is zero, negative, or non-finite.
    """
    trace = float(np.trace(c.sigma))
    if not np.isfinite(trace) or trace <= 0.0:
        raise DegenerateCovarianceError(f"cannot normalize trace {trace!r}")
    sigma = c.sigma / trace
    # one correction pass: guard against d*eps drift past the 1e-12 contract
    sigma /= float(np.trace(sigma))
    sigma.flags.writeable = False  # a fresh array: hand it over
    return CovarianceMatrix(
        sigma=sigma,
        n_samples=c.n_samples,
        modality=c.modality,
        trace_normalized=True,
    )


def average(img: CovarianceMatrix, txt: CovarianceMatrix) -> CovarianceMatrix:
    """Elementwise mean of two trace-normalized covariances, tagged
    ``kernel-average`` when both are kernel covariances and ``average``
    when neither is.

    Raises:
        PreconditionError: inputs not trace-normalized, widths differ, or
            a kernel covariance meets a sample covariance.
    """
    if not (img.trace_normalized and txt.trace_normalized):
        raise PreconditionError("average requires trace-normalized inputs")
    if img.d != txt.d:
        raise PreconditionError(f"width mismatch: {img.d} vs {txt.d}")
    kernel = img.modality.startswith("kernel-")
    if kernel != txt.modality.startswith("kernel-"):
        raise PreconditionError(
            f"cannot average {img.modality!r} with {txt.modality!r}: "
            "one is a kernel covariance and the other is not"
        )
    sigma = img.sigma + txt.sigma
    sigma *= 0.5
    sigma.flags.writeable = False  # a fresh array: hand it over
    return CovarianceMatrix(
        sigma=sigma,
        n_samples=img.n_samples + txt.n_samples,
        modality="kernel-average" if kernel else "average",
        trace_normalized=True,
    )


def normalize_rows(m: EmbeddingMatrix) -> EmbeddingMatrix:
    """Scale every row to unit norm. The covariance of the result is the
    kernel (cosine-similarity) covariance: centered after the scaling, so
    invariant to positive per-row rescaling of ``m``.

    Raises:
        DataError: a row has zero norm; the message names ``m.source``.
    """
    norms = np.linalg.norm(m.data, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        where = f"{m.source}: " if m.source else ""
        raise DataError(f"{where}zero-norm row {m.first_row + int(zero[0])} cannot be normalized")
    unit = m.data / norms[:, None]
    unit.flags.writeable = False  # a fresh array: the matrix may keep it uncopied
    return EmbeddingMatrix(unit, m.labels, m.source, m.first_row)


def per_class_covariances(
    m: EmbeddingMatrix | EmbeddingDump,
) -> Iterator[tuple[int, int, np.ndarray | None]]:
    """``(label, n_rows, factor)`` per class id, in ascending id order: the
    class's rows, centered and scaled to unit Frobenius norm, an n_rows-by-d
    F whose F^T F is its trace-normalized covariance. F is built only when
    its class is reached (from a dump, when its rows are read), and neither
    the rows nor F are held while the next class is read. A class with fewer
    than 2 rows, or whose rows are all exactly equal, yields ``None``.

    Raises:
        MissingLabelsError: on iteration, the matrix or dump carries no labels.
    """
    for label, part in iter_classes(m):
        n, factor = part.n, None
        if n >= 2 and not (part.data == part.data[0]).all():
            factor = part.data - part.data.mean(axis=0)
            factor /= np.linalg.norm(factor)
        del part
        yield label, n, factor
        del factor


# --- persistence: NPY matrix + JSON sidecar ---


def sidecar_path(npy_path: Path | str) -> Path:
    return Path(npy_path).with_suffix(".json")


def save_covariance(c: CovarianceMatrix, npy_path: Path | str) -> None:
    """Persist as <path>.npy plus a JSON sidecar with the metadata."""
    write_npy(npy_path, c.sigma)
    meta = {
        "n_samples": c.n_samples,
        "modality": c.modality,
        "trace_normalized": c.trace_normalized,
    }
    write_json(sidecar_path(npy_path), meta)


def load_covariance(npy_path: Path | str) -> CovarianceMatrix:
    """A covariance saved by ``save_covariance``; errors name the file."""
    sigma = read_npy(npy_path, FLOAT_DESCRS, ndim=2).astype(np.float64, copy=False)
    sigma.flags.writeable = False  # a fresh array: hand it over
    side = sidecar_path(npy_path)
    meta = read_json(side)
    for key in ("n_samples", "modality", "trace_normalized"):
        if key not in meta:
            raise FormatError(f"{side}: missing key {key!r}")
    with in_file(npy_path):
        return CovarianceMatrix(
            sigma=sigma,
            n_samples=int(meta["n_samples"]),
            modality=str(meta["modality"]),
            trace_normalized=bool(meta["trace_normalized"]),
        )
