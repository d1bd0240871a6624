"""NPY v1.0 format layer: round trips, interop with numpy, loud rejection."""

from __future__ import annotations

import contextlib
import io
import re
import struct

import numpy as np
import pytest

from spectrune import npy
from spectrune.errors import FormatError, IoError, ShapeError
from spectrune.npy import (
    FLOAT_DESCRS,
    INT_DESCRS,
    NpyReader,
    read_npy,
    write_json,
    write_npy,
    write_npy_rows,
    write_text,
)


def read_in_blocks(path, allowed_descrs, ndim=None, block_rows=3):
    """The array gathered from consecutive ``rows_at`` ranges of
    ``block_rows`` rows, the way ``EmbeddingDump.blocks`` reads a dump."""
    with NpyReader(path, allowed_descrs, ndim) as reader:
        n = reader.shape[0]
        return np.concatenate(
            [reader.rows_at(range(start, min(start + block_rows, n))) for start in range(0, n, block_rows)]
        )


# every malformed file must be rejected by the whole read and the block read alike
READERS = (read_npy, read_in_blocks)


def test_round_trip_exact_values(tmp_path):
    rng = np.random.default_rng(0)
    arr = rng.standard_normal((7, 5))
    path = tmp_path / "a.npy"
    write_npy(path, arr)
    back = read_npy(path, FLOAT_DESCRS, ndim=2)
    assert back.dtype == np.float64
    assert np.array_equal(back, arr)


def test_round_trip_is_byte_identical_for_float64(tmp_path):
    # oracle: the format has one canonical encoding per float64 array,
    # so write(read(f)) must reproduce f byte for byte
    rng = np.random.default_rng(1)
    for i in range(100):
        arr = rng.standard_normal((rng.integers(1, 20), rng.integers(1, 20)))
        first = tmp_path / f"first_{i}.npy"
        second = tmp_path / f"second_{i}.npy"
        write_npy(first, arr)
        write_npy(second, read_npy(first, FLOAT_DESCRS))
        assert first.read_bytes() == second.read_bytes()


def test_numpy_reads_our_files(tmp_path):
    rng = np.random.default_rng(2)
    for dtype in (np.float32, np.float64, np.int64):
        arr = (rng.standard_normal((4, 3)) * 10).astype(dtype)
        path = tmp_path / f"ours_{np.dtype(dtype).name}.npy"
        write_npy(path, arr)
        loaded = np.load(path)
        assert loaded.dtype == arr.dtype
        assert np.array_equal(loaded, arr)


def test_zero_d_and_empty_arrays_keep_their_shape(tmp_path):
    for arr in (np.array(1.5), np.zeros((0, 4)), np.arange(6.0).reshape(2, 3)):
        path = tmp_path / "shape.npy"
        write_npy(path, arr)
        for back in (read_npy(path, FLOAT_DESCRS), np.load(path)):
            assert back.shape == arr.shape
            assert np.array_equal(back, arr)


def test_we_read_numpy_files(tmp_path):
    rng = np.random.default_rng(3)
    arr32 = rng.standard_normal((6, 2)).astype(np.float32)
    arr64 = rng.standard_normal((2, 6))
    for arr, name in ((arr32, "f32"), (arr64, "f64")):
        path = tmp_path / f"np_{name}.npy"
        np.save(path, arr)
        back = read_npy(path, FLOAT_DESCRS, ndim=2)
        assert np.array_equal(back, arr)


def test_header_is_64_byte_aligned(tmp_path):
    path = tmp_path / "aligned.npy"
    write_npy(path, np.zeros((3, 3)))
    raw = path.read_bytes()
    (header_len,) = struct.unpack("<H", raw[8:10])
    assert (10 + header_len) % 64 == 0
    assert raw[:6] == b"\x93NUMPY"
    assert raw[6:8] == b"\x01\x00"


class PayloadRefused(Exception):
    pass


class HeaderOnly(io.BytesIO):
    """A file that keeps the first write, the header, and refuses the rest."""

    def write(self, data):
        if self.tell():
            raise PayloadRefused
        return super().write(data)


@pytest.mark.parametrize(
    "descr, shape",
    [("<f8", ()), ("<i8", (50,)), ("<i8", (10**7,))]
    + [("<f8", (n, d)) for d in (128, 768) for n in (1, d, 2048, 10**7)],
)
def test_header_bytes_match_numpy_save(monkeypatch, descr, shape):
    # only the header is written on either side: no payload of 10^7 rows
    ours = io.BytesIO()
    monkeypatch.setattr(npy, "replace_on_success", lambda path: contextlib.nullcontext(ours))
    with pytest.raises(ShapeError):
        write_npy_rows("unused.npy", shape, np.dtype(descr), [])
    theirs = HeaderOnly()
    with pytest.raises(PayloadRefused):
        np.save(theirs, np.broadcast_to(np.zeros((), descr), shape))
    assert ours.getvalue() == theirs.getvalue()
    assert len(ours.getvalue()) == 128


def test_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.npy"
    path.write_bytes(b"NOTNPY" + b"\x00" * 64)
    for read in READERS:
        with pytest.raises(FormatError, match="magic"):
            read(path, FLOAT_DESCRS)


def test_rejects_other_versions(tmp_path):
    path = tmp_path / "v2.npy"
    header = b"{'descr': '<f8', 'fortran_order': False, 'shape': (1, 1), }      \n"
    path.write_bytes(
        b"\x93NUMPY\x02\x00"
        + struct.pack("<I", len(header))
        + header
        + np.zeros(1).tobytes()
    )
    for read in READERS:
        with pytest.raises(FormatError, match="version"):
            read(path, FLOAT_DESCRS)


def test_rejects_malformed_header_dict(tmp_path):
    path = tmp_path / "garbage.npy"
    header = b"{'descr': '<f8', 'fortran_order':"  # cut mid-literal
    path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header)
    for read in READERS:
        with pytest.raises(FormatError, match="header"):
            read(path, FLOAT_DESCRS)


def test_rejects_wrong_header_keys(tmp_path):
    path = tmp_path / "keys.npy"
    header = b"{'descr': '<f8', 'shape': (1,), }\n"
    path.write_bytes(
        b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header
        + np.zeros(1).tobytes()
    )
    for read in READERS:
        with pytest.raises(FormatError, match="keys"):
            read(path, FLOAT_DESCRS)


def test_rejects_disallowed_dtype_instead_of_casting(tmp_path):
    path = tmp_path / "ints.npy"
    for dtype in (">f8", "<f2", np.int64):
        np.save(path, np.arange(6, dtype=dtype).reshape(2, 3))
        for read in READERS:
            with pytest.raises(FormatError, match="refusing to cast"):
                read(path, FLOAT_DESCRS)
    # and the integer allow-list takes it
    assert read_npy(path, INT_DESCRS, ndim=2).sum() == 15


def test_rejects_negative_dimensions_and_oversized_headers(tmp_path):
    path = tmp_path / "header.npy"
    # numpy parses a negative dimension, and (-2, -3) even matches 6 payload
    # values; a header past numpy's 10,000-byte limit numpy refuses itself
    for shape, pad, match in (("(-2, -3)", 0, "invalid shape"), ("(2, 3)", 10_000, "header")):
        header = f"{{'descr': '<f8', 'fortran_order': False, 'shape': {shape}, }}".encode()
        header += b" " * (pad + -(len(header) + 11) % 64) + b"\n"
        path.write_bytes(b"\x93NUMPY\x01\x00" + struct.pack("<H", len(header)) + header
                         + np.zeros(6).tobytes())
        for read in READERS:
            with pytest.raises(FormatError, match=match):
                read(path, FLOAT_DESCRS)


def test_rejects_fortran_order(tmp_path):
    path = tmp_path / "fortran.npy"
    np.save(path, np.asfortranarray(np.arange(6.0).reshape(2, 3)))
    for read in READERS:
        with pytest.raises(FormatError, match="fortran_order"):
            read(path, FLOAT_DESCRS)


def test_rejects_wrong_rank(tmp_path):
    path = tmp_path / "cube.npy"
    write_npy(path, np.zeros((2, 2, 2)))
    for read in READERS:
        with pytest.raises(ShapeError, match="2-D"):
            read(path, FLOAT_DESCRS, ndim=2)


def test_rejects_truncated_payload(tmp_path):
    path = tmp_path / "trunc.npy"
    write_npy(path, np.ones((4, 4)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    for read in READERS:
        with pytest.raises(FormatError, match="payload"):
            read(path, FLOAT_DESCRS)


def test_rejects_trailing_bytes(tmp_path):
    path = tmp_path / "extra.npy"
    write_npy(path, np.ones((4, 4)))
    path.write_bytes(path.read_bytes() + b"junk")
    for read in READERS:
        with pytest.raises(FormatError, match="payload"):
            read(path, FLOAT_DESCRS)


def test_missing_file_is_io_error(tmp_path):
    for read in READERS:
        with pytest.raises(IoError):
            read(tmp_path / "nope.npy", FLOAT_DESCRS)


def test_result_is_writable_copy(tmp_path):
    path = tmp_path / "w.npy"
    write_npy(path, np.zeros((2, 2)))
    out = read_npy(path, FLOAT_DESCRS)
    out[0, 0] = 1.0  # must not raise


def test_consecutive_row_ranges_reassemble_the_array(tmp_path):
    rng = np.random.default_rng(6)
    for shape in ((1, 4), (7, 3), (9, 2), (10, 5, 2), (4,)):
        arr = rng.standard_normal(shape)
        path = tmp_path / "blocks.npy"
        write_npy(path, arr)
        with NpyReader(path, FLOAT_DESCRS) as reader:
            blocks = [reader.rows_at(range(start, min(start + 3, shape[0])))
                      for start in range(0, shape[0], 3)]
        # every range lands in its own array: none is overwritten by the next
        assert all(rows.flags.owndata for rows in blocks)
        assert np.array_equal(np.concatenate(blocks), arr)


def test_rows_at_gathers_rows_in_the_order_given(tmp_path):
    arr = np.random.default_rng(8).standard_normal((10, 3, 2)).astype(np.float32)
    path = tmp_path / "rows.npy"
    write_npy(path, arr)
    with NpyReader(path, FLOAT_DESCRS) as reader:
        for index in ([], [4], [0, 1, 2, 7, 8, 9], list(range(10)), [9, 3, 3, 0]):
            rows = reader.rows_at(index)
            assert rows.dtype == np.float32 and rows.flags.writeable
            assert np.array_equal(rows, arr[index])


def test_payload_that_shrinks_after_open_is_format_error(tmp_path):
    path = tmp_path / "shrinks.npy"
    write_npy(path, np.ones((4, 4)))
    with NpyReader(path, FLOAT_DESCRS) as reader:
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(FormatError, match="payload ended early"):
            reader.rows_at([0, 2, 3])
        with pytest.raises(FormatError, match="payload ended early"):
            reader.read()
        assert np.array_equal(reader.rows_at([1, 2]), np.ones((2, 4)))


def test_write_rows_matches_whole_write(tmp_path):
    arr = np.random.default_rng(7).standard_normal((10, 4))
    write_npy(tmp_path / "whole.npy", arr)
    write_npy_rows(tmp_path / "rows.npy", arr.shape, np.float64, (arr[i:i + 3] for i in range(0, 10, 3)))
    assert (tmp_path / "rows.npy").read_bytes() == (tmp_path / "whole.npy").read_bytes()


def test_failed_write_leaves_previous_file(tmp_path):
    path = tmp_path / "out.npy"
    write_npy(path, np.zeros((2, 2)))
    before = path.read_bytes()

    def blocks():
        yield np.ones((1, 2))
        raise RuntimeError("producer failed")

    with pytest.raises(RuntimeError):
        write_npy_rows(path, (2, 2), np.float64, blocks())
    with pytest.raises(ShapeError, match="needs"):
        write_npy_rows(path, (3, 2), np.float64, [np.ones((2, 2))])
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.npy"]


WRITERS = {
    "write_npy": lambda path: write_npy(path, np.zeros((2, 2))),
    "write_npy_rows": lambda path: write_npy_rows(path, (2, 2), np.float64, [np.zeros((2, 2))]),
    "write_json": lambda path: write_json(path, {"a": 1}),
    "write_text": lambda path: write_text(path, "a\n"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_is_io_error_naming_the_destination(tmp_path, writer):
    # a directory at the destination: the temporary file is complete, and
    # moving it onto the destination fails
    path = tmp_path / "out"
    path.mkdir()
    with pytest.raises(IoError, match=f"^cannot write {re.escape(str(path))}: ") as exc:
        WRITERS[writer](path)
    assert isinstance(exc.value.__cause__, OSError)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(path.iterdir()) == []
