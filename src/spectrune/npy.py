"""Reader/writer for the NPY v1.0 array format.

Headers are read and written by ``numpy.lib.format`` (``read_magic``,
``read_array_header_1_0``, ``write_array_header_1_0``); payloads go
straight between the file and the array. The writer always emits
little-endian, C-ordered payloads. numpy's reader accepts more than the
package reads, so a file must also pass these checks before any payload
byte is read, and is otherwise rejected loudly rather than converted:

- format version 1.0 only;
- a dtype in the caller's allow-list (compared on ``dtype.str``), never cast;
- ``fortran_order`` False;
- no negative dimension, and the caller's rank;
- a payload size that matches the file size.

Files are read whole (``read_npy``) or as chosen rows along the first axis
(``NpyReader.rows_at``, positional reads), and written whole (``write_npy``)
or from consecutive row blocks (``write_npy_rows``); JSON reports and
sidecars are formatted by ``json_text``, then go through ``write_json`` and
``read_json``. Every output of the package,
NPY or text, goes through ``replace_on_success``, so a failed write never
leaves a truncated file behind, and is reported in one way: an ``IoError``
that names the destination (the CLI's exit code 2).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import threading
from pathlib import Path
from tokenize import TokenError
from typing import Iterable

import numpy as np
from numpy.lib.format import read_array_header_1_0, read_magic, write_array_header_1_0

from spectrune.errors import FormatError, IoError, ShapeError

FLOAT_DESCRS = ("<f4", "<f8")
INT_DESCRS = ("<i4", "<i8")

# Rows per block when a dump is read in blocks. A fixed grid keeps the
# floating-point fold order, and so every output byte, independent of the
# machine. At d = 768 a float64 block is 12 MB, and the per-block O(d^2)
# combine stays small next to the O(rows * d^2) product.
BLOCK_ROWS = 2048


@contextlib.contextmanager
def replace_on_success(path: Path | str, mode: str = "wb", **open_kwargs):
    """Open a temporary file beside ``path`` for writing, and move it onto
    ``path`` only when the block exits without an exception.

    Readers see either the previous file or the complete new one; when the
    block raises, the temporary file is removed and ``path`` keeps its
    previous bytes, or stays absent. This is the one place where a failed
    write becomes an error: any other exception propagates unchanged.

    Raises:
        IoError: opening, writing or moving the file failed (an ``OSError``,
            in the block or here); the message names ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode, **open_kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise IoError(f"cannot write {path}: {exc}") from exc
        raise


def write_text(path: Path | str, text: str) -> None:
    """Write UTF-8 text through ``replace_on_success``.

    Raises:
        IoError: destination cannot be written.
    """
    with replace_on_success(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def json_text(doc: dict) -> str:
    """A report or sidecar as text: indented JSON with sorted keys, no NaN,
    ending in a newline."""
    return json.dumps(doc, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_json(path: Path | str, doc: dict) -> None:
    """Write ``json_text(doc)``; IoError when ``path`` cannot be written."""
    write_text(path, json_text(doc))


def read_json(path: Path | str):
    """Parse a JSON file.

    Raises:
        IoError: file unreadable.
        FormatError: not valid JSON.
    """
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def read_json_object(path: Path | str, **types: type) -> dict:
    """The JSON object in ``path``; a FormatError unless each key of ``types``
    that it holds has exactly that type (so ``true`` is no int)."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    for key, kind in types.items():
        if key in doc and type(doc[key]) is not kind:
            raise FormatError(f"{path}: {key!r} must be {kind.__name__}, got {doc[key]!r}")
    return doc


def write_npy(path: Path | str, array: np.ndarray) -> None:
    """Write ``array`` to ``path`` as NPY v1.0 (little-endian, C order).

    Raises:
        IoError: destination cannot be written.
    """
    # not ascontiguousarray, which turns a 0-D array into shape (1,)
    arr = np.asarray(array, order="C")
    write_npy_rows(path, arr.shape, arr.dtype, [arr])


def write_npy_rows(
    path: Path | str,
    shape: tuple[int, ...],
    dtype: np.dtype | type,
    blocks: Iterable[np.ndarray],
) -> None:
    """Write an NPY v1.0 file of ``shape`` from consecutive row blocks.

    Each block is converted to little-endian ``dtype`` and written as it
    arrives, so only one block is held at a time. The file appears at
    ``path`` once every block is written; if ``blocks`` raises, the error
    propagates and ``path`` keeps its previous bytes, or stays absent.

    Raises:
        IoError: destination cannot be written.
        ShapeError: the blocks do not add up to ``shape``.
    """
    dtype = np.dtype(dtype)
    if dtype.byteorder == ">":
        dtype = dtype.newbyteorder("<")
    header = {"descr": dtype.str, "fortran_order": False, "shape": tuple(int(s) for s in shape)}
    expected = math.prod(shape) * dtype.itemsize
    with replace_on_success(path) as fh:
        write_array_header_1_0(fh, header)
        written = 0
        for block in blocks:
            block = np.ascontiguousarray(block, dtype=dtype)
            fh.write(block.reshape(-1).view(np.uint8))
            written += block.nbytes
            del block  # before the next block is made
        if written != expected:
            raise ShapeError(
                f"{path}: blocks hold {written} bytes, shape {tuple(shape)} "
                f"with dtype {dtype.str} needs {expected}"
            )


class NpyReader:
    """An NPY v1.0 file open for reading, its header read and put through
    the checks of the module docstring before any payload byte is read.
    ``read`` then returns the whole array and ``rows_at`` chosen rows, each
    as a fresh array. Embedding rows are read through ``store.EmbeddingDump``,
    which checks every row it hands out. Close the reader, or use it as a
    context manager.

    Raises (from the constructor):
        IoError: file unreadable.
        FormatError: bad magic/version/header/dtype or payload size mismatch.
        ShapeError: rank differs from ``ndim``.
    """

    def __init__(
        self,
        path: Path | str,
        allowed_descrs: tuple[str, ...],
        ndim: int | None = None,
    ) -> None:
        self.path = path
        try:
            self._fh = open(path, "rb")
        except OSError as exc:
            raise IoError(f"cannot read array file {path}: {exc}") from exc
        try:
            self.dtype, self.shape = self._read_header(allowed_descrs, ndim)
        except BaseException:
            self._fh.close()
            raise
        self._offset = self._fh.tell()
        self._fd = self._fh.fileno()

    def _read_header(
        self, allowed_descrs: tuple[str, ...], ndim: int | None
    ) -> tuple[np.dtype, tuple[int, ...]]:
        path = self.path
        try:
            major, minor = read_magic(self._fh)
            if (major, minor) != (1, 0):
                raise FormatError(f"{path}: unsupported NPY version {major}.{minor} (need 1.0)")
            shape, fortran_order, dtype = read_array_header_1_0(self._fh)
            file_size = os.fstat(self._fh.fileno()).st_size
        except OSError as exc:
            raise IoError(f"cannot read array file {path}: {exc}") from exc
        except (ValueError, TokenError) as exc:
            # numpy's first line: its advice on allow_pickle is not for spectrune
            reason = str(exc).partition("\n")[0]
            raise FormatError(f"{path}: malformed NPY header: {reason}") from exc

        if dtype.str not in allowed_descrs:
            raise FormatError(
                f"{path}: dtype {dtype.str!r} not accepted (expected one of "
                f"{list(allowed_descrs)}); refusing to cast"
            )
        if fortran_order:
            raise FormatError(f"{path}: fortran_order must be False")
        if any(s < 0 for s in shape):
            raise FormatError(f"{path}: invalid shape {shape!r}")
        if ndim is not None and len(shape) != ndim:
            raise ShapeError(
                f"{path}: expected a {ndim}-D array, file has shape {shape}"
            )

        payload = file_size - self._fh.tell()
        expected = math.prod(shape) * dtype.itemsize
        if payload != expected:
            raise FormatError(
                f"{path}: payload is {payload} bytes, shape {shape} with "
                f"dtype {dtype.str} needs {expected}"
            )
        return dtype, shape

    def _fill(self, view: np.ndarray, offset: int) -> None:
        """Read ``view.size`` payload bytes from byte ``offset`` of the
        payload straight into the byte array ``view``."""
        pos = self._offset + offset
        got = 0
        try:
            while got < view.size:
                count = os.preadv(self._fd, [view[got:]], pos + got)
                if not count:
                    break
                got += count
        except OSError as exc:
            raise IoError(f"cannot read array file {self.path}: {exc}") from exc
        if got < view.size:
            raise FormatError(f"{self.path}: payload ended early (file shrank while read)")

    def read(self) -> np.ndarray:
        """The whole array: a fresh, writable ndarray in C order with the
        file's exact values, read straight from the file into place."""
        out = np.empty(self.shape, self.dtype)
        self._fill(out.reshape(-1).view(np.uint8), 0)
        return out

    def rows_at(self, index: np.ndarray) -> np.ndarray:
        """The rows at ``index`` along the first axis, in that order, as one
        fresh array. Each run of consecutive indices is one positional read.

        Raises:
            ShapeError: the array is 0-D and has no rows.
        """
        if not self.shape:
            raise ShapeError(f"{self.path}: a 0-D array has no rows")
        row_bytes = math.prod(self.shape[1:]) * self.dtype.itemsize
        index = np.asarray(index, dtype=np.int64)
        out = np.empty((index.size,) + self.shape[1:], self.dtype)
        view = out.reshape(-1).view(np.uint8)
        # the runs are [bounds[i], bounds[i + 1]); -2 never continues a run
        bounds = np.flatnonzero(np.diff(index, prepend=-2, append=-2) != 1)
        for a, b, row in zip(
            (bounds[:-1] * row_bytes).tolist(),
            (bounds[1:] * row_bytes).tolist(),
            (index[bounds[:-1]] * row_bytes).tolist(),
        ):
            self._fill(view[a:b], row)
        return out

    def close(self) -> None:
        self._fh.close()

    def __enter__(self) -> "NpyReader":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def read_npy(
    path: Path | str,
    allowed_descrs: tuple[str, ...],
    ndim: int | None = None,
) -> np.ndarray:
    """Read an NPY v1.0 file, validating dtype and dimensionality.

    Args:
        path: file to read.
        allowed_descrs: dtype descriptors accepted verbatim (e.g. ``'<f8'``);
            anything else is rejected with FormatError, never cast.
        ndim: required array rank, or None to accept any.

    Returns:
        A fresh, writable ndarray in C order with the file's exact values.

    Raises:
        IoError: file unreadable.
        FormatError: bad magic/version/header/dtype or payload size mismatch.
        ShapeError: rank differs from ``ndim``.
    """
    with NpyReader(path, allowed_descrs, ndim) as reader:
        return reader.read()
