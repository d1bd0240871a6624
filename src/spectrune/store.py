"""Embedding matrices, dataset manifests, and their on-disk formats.

An embedding dump is a 2-D NPY file (``<f4`` or ``<f8``, little-endian,
C order). Class labels live beside it in a 1-D integer NPY sidecar that
the command needing them opens, never inside the matrix; a manifest names
only dumps and their modalities. Everything is widened to float64 on load
because downstream eigenvalues span many orders of magnitude and 32-bit
accumulation is unsafe.

Loaded matrices are immutable (read-only buffers). Every embedding row is
read through ``EmbeddingDump.take``: whole (``load_array_file``), one
block of rows at a time (``blocks``), or one class at a time
(``iter_classes``, which reads each class's rows only when it is reached).
Each read lands in a fresh array that the matrix takes over without a copy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator

import numpy as np

from spectrune.errors import (
    DataError,
    FormatError,
    IoError,
    MissingLabelsError,
    ShapeError,
    in_file,
)
from spectrune.npy import (
    BLOCK_ROWS,
    FLOAT_DESCRS,
    INT_DESCRS,
    NpyReader,
    read_json,
    read_npy,
    write_json,
    write_npy,
)

MODALITIES = ("image", "text")


def _frozen(arr: np.ndarray) -> np.ndarray:
    """A read-only C-ordered array with ``arr``'s values. An array that is
    already read-only, C-ordered and owns its buffer is handed over as is;
    anything else is copied, so no other view of it can change the result."""
    if arr.flags.owndata and arr.flags.c_contiguous and not arr.flags.writeable:
        return arr
    out = np.ascontiguousarray(arr)
    if out is arr or out.base is arr:
        out = out.copy()
    out.flags.writeable = False
    return out


def _label_vector(labels, n: int, first_row: int = 0) -> np.ndarray:
    """``labels`` as int64 class ids, one for each of n rows, none negative;
    an int64 vector comes back as is. Errors name a row by ``first_row`` plus
    its index."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.shape != (n,):
        raise ShapeError(f"labels must be a length-{n} vector, got shape {labels.shape}")
    if (labels < 0).any():
        raise DataError(f"negative label id at row {first_row + int(np.flatnonzero(labels < 0)[0])}")
    return labels


@dataclass(frozen=True)
class EmbeddingMatrix:
    """An n-by-d block of embedding vectors.

    Attributes:
        data: float64 matrix, one embedding per row. Read-only.
        labels: optional int64 class ids, one per row, all >= 0.
        source: free-form provenance string (file path, generator, ...).
        first_row: index of the first row within ``source``, for a block
            of a larger dump; error messages name rows by that index.
    """

    data: np.ndarray
    labels: np.ndarray | None = None
    source: str = ""
    first_row: int = 0

    def __post_init__(self) -> None:
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ShapeError(f"embedding matrix must be 2-D, got shape {data.shape}")
        n, d = data.shape
        if n < 1 or d < 1:
            raise ShapeError(f"embedding matrix needs n >= 1 and d >= 1, got {data.shape}")
        finite_rows = np.isfinite(data).all(axis=1)
        if not finite_rows.all():
            bad = self.first_row + int(np.flatnonzero(~finite_rows)[0])
            raise DataError(f"non-finite entry in row {bad}")
        object.__setattr__(self, "data", _frozen(data))
        if self.labels is not None:
            object.__setattr__(self, "labels", _frozen(_label_vector(self.labels, n, self.first_row)))

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def d(self) -> int:
        return self.data.shape[1]

    def blocks(self, rows: int = BLOCK_ROWS) -> Iterator["EmbeddingMatrix"]:
        """The matrix as a stream of row blocks: the one-block case of
        ``EmbeddingDump.blocks``, whatever ``rows`` asks for."""
        yield self

    def take(self, rows: np.ndarray, source: str) -> "EmbeddingMatrix":
        """The rows at ascending indices ``rows``, in that order, as a new
        matrix named ``source``: the in-memory case of ``EmbeddingDump.take``."""
        data = self.data[rows]
        data.flags.writeable = False  # fancy indexing copied them: hand them over
        labels = None if self.labels is None else self.labels[rows]
        if labels is not None:
            labels.flags.writeable = False
        return EmbeddingMatrix(data, labels, source)


class EmbeddingDump:
    """A 2-D float NPY dump on disk (``<f4`` or ``<f8``; any other dtype is
    a FormatError, never cast), read only when its rows are asked for.

    Opening reads and checks only the header, the size and the labels.
    ``take`` then reads the rows asked for into a fresh array, widened to
    float64 and checked as one EmbeddingMatrix; ``blocks`` takes blocks of
    at most ``npy.BLOCK_ROWS`` consecutive rows (fewer on request), and
    ``load_array_file`` takes every row at once. Errors name the path and
    the row's index in the dump. A pass holds O(BLOCK_ROWS * d) of the dump in
    memory, whatever its size. Close the dump, or use it as a context
    manager.
    """

    def __init__(self, path: Path | str, labels: np.ndarray | None = None) -> None:
        self.path = path
        self.source = str(path)
        self._reader = NpyReader(path, FLOAT_DESCRS, ndim=2)
        try:
            if min(self._reader.shape) < 1:
                raise ShapeError(
                    f"{path}: embedding matrix needs n >= 1 and d >= 1, "
                    f"got {self._reader.shape}"
                )
            if labels is not None:
                with in_file(path):
                    labels = _label_vector(labels, self.n)
        except (ShapeError, DataError):
            self.close()
            raise
        self.labels = labels

    @property
    def n(self) -> int:
        return self._reader.shape[0]

    @property
    def d(self) -> int:
        return self._reader.shape[1]

    def blocks(self, rows: int = BLOCK_ROWS) -> Iterator[EmbeddingMatrix]:
        """Consecutive blocks of at most ``rows`` rows, cut from the fixed
        ``BLOCK_ROWS`` grid: a block never spans two of its cells."""
        for cell in range(0, self.n, BLOCK_ROWS):
            end = min(cell + BLOCK_ROWS, self.n)
            for start in range(cell, end, rows):
                yield self.take(np.arange(start, min(start + rows, end)), self.source, start)

    def take(self, rows: np.ndarray, source: str, first_row: int = 0) -> EmbeddingMatrix:
        """The rows at ascending indices ``rows``, in that order, read from
        the file only now into a fresh array that a new matrix named
        ``source`` takes over without a copy: the one path from the dump to
        its rows. Errors name the row's index in the dump, and so do later
        checks of the matrix when ``rows`` run on from ``first_row``."""
        data = self._reader.rows_at(rows).astype(np.float64, copy=False)
        data.flags.writeable = False  # a fresh array: hand it over
        labels = None
        if self.labels is not None:
            labels = self.labels[rows]
            labels.flags.writeable = False  # fancy indexing copied them: hand them over
        try:
            return EmbeddingMatrix(data, labels, source, first_row)
        except DataError:
            bad = rows[np.isfinite(data).all(axis=1).argmin()]
            raise DataError(f"{self.path}: non-finite entry in row {bad}") from None

    def close(self) -> None:
        self._reader.close()

    def __enter__(self) -> "EmbeddingDump":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def load_array_file(path: Path | str, labels: np.ndarray | None = None) -> EmbeddingMatrix:
    """The whole dump at ``path`` as one EmbeddingMatrix, read once and
    checked as ``EmbeddingDump.take`` checks any rows: non-2-D or empty
    shapes raise ShapeError, non-finite entries DataError naming the first
    offending row, and every error names ``path``."""
    with EmbeddingDump(path, labels) as dump:
        return dump.take(np.arange(dump.n), dump.source)


def save_array_file(m: EmbeddingMatrix, path: Path | str) -> None:
    """Write the matrix as 64-bit NPY; load_array_file round-trips it bit-exactly."""
    write_npy(path, m.data)


def load_label_file(path: Path | str) -> np.ndarray:
    """Load a 1-D integer NPY sidecar of class ids (all >= 0)."""
    arr = read_npy(path, INT_DESCRS, ndim=1)
    with in_file(path):
        return _label_vector(arr, arr.shape[0])


def save_label_file(labels: np.ndarray, path: Path | str) -> None:
    write_npy(path, np.asarray(labels, dtype=np.int64))


def iter_classes(m: EmbeddingMatrix | EmbeddingDump) -> Iterator[tuple[int, EmbeddingMatrix]]:
    """Each class's rows as its own matrix, in ascending class id order and
    taken only when reached (from a dump, read from the file only then):
    one stable sort groups the rows, which keep their order within a class.

    Raises:
        MissingLabelsError: the matrix or dump carries no labels.
    """
    if m.labels is None:
        raise MissingLabelsError(f"matrix {m.source!r} has no labels")
    order = np.argsort(m.labels, kind="stable")
    for rows in np.split(order, np.flatnonzero(np.diff(m.labels[order])) + 1):
        label = int(m.labels[rows[0]])
        yield label, m.take(rows, source=f"{m.source}[label={label}]")


def split_by_label(m: EmbeddingMatrix) -> dict[int, EmbeddingMatrix]:
    """Partition rows by class id, every class at once.

    The parts are disjoint and exhaustive.

    Raises:
        MissingLabelsError: the matrix carries no labels.
    """
    return dict(iter_classes(m))


# --- dataset manifests ---


@dataclass(frozen=True)
class ManifestEntry:
    path: Path
    modality: str


@dataclass(frozen=True)
class DatasetManifest:
    name: str
    entries: tuple[ManifestEntry, ...] = field(default_factory=tuple)


def load_manifest(path: Path | str) -> DatasetManifest:
    """Parse and validate a manifest JSON file.

    Schema: ``{"name": str, "entries": [{"path": str, "modality":
    "image"|"text"}]}``; any other key is ignored. Entry paths are resolved
    relative to the manifest's directory and must exist.
    """
    path = Path(path)
    doc = read_json(path)

    if not isinstance(doc, dict) or not isinstance(doc.get("name"), str):
        raise FormatError(f"{path}: manifest must be an object with a 'name' string")
    raw_entries = doc.get("entries")
    if not isinstance(raw_entries, list):
        raise FormatError(f"{path}: manifest 'entries' must be a list")
    if not raw_entries:
        raise FormatError(f"{path}: manifest has no entries")

    base = path.parent
    entries = []
    for i, raw in enumerate(raw_entries):
        if not isinstance(raw, dict) or not isinstance(raw.get("path"), str):
            raise FormatError(f"{path}: entry {i} must be an object with a 'path'")
        modality = raw.get("modality")
        if modality not in MODALITIES:
            raise FormatError(
                f"{path}: entry {i} modality must be one of {MODALITIES}, "
                f"got {modality!r}"
            )
        entry_path = (base / raw["path"]).resolve()
        if not entry_path.is_file():
            raise IoError(f"{path}: entry {i} file does not exist: {entry_path}")
        entries.append(ManifestEntry(entry_path, modality))
    return DatasetManifest(name=doc["name"], entries=tuple(entries))


def save_manifest(manifest: DatasetManifest, path: Path | str) -> None:
    """Write a manifest with entry paths relative to the manifest directory."""
    path = Path(path)
    base = path.parent.resolve()

    def rel(p: Path) -> str:
        try:
            return str(p.resolve().relative_to(base))
        except ValueError:
            return str(p.resolve())

    doc = {
        "name": manifest.name,
        "entries": [{"path": rel(e.path), "modality": e.modality} for e in manifest.entries],
    }
    write_json(path, doc)


def check_widths(manifest: DatasetManifest) -> None:
    """Every entry's width, read from its header before any payload is read
    or any output is written, must be the first entry's.

    Raises:
        ShapeError: naming the first entry whose width differs.
    """
    width: int | None = None
    for entry in manifest.entries:
        with EmbeddingDump(entry.path) as dump:
            if width is None:
                width = dump.d
            elif dump.d != width:
                raise ShapeError(
                    f"{entry.path}: width {dump.d} differs from manifest width {width}"
                )

