"""Embedding store: validated loading, label handling, manifests."""

from __future__ import annotations

import json
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from spectrune.cli import main
from spectrune.errors import (
    DataError,
    FormatError,
    IoError,
    MissingLabelsError,
    ShapeError,
)
from spectrune.npy import write_npy
from spectrune.store import (
    DatasetManifest,
    EmbeddingDump,
    EmbeddingMatrix,
    ManifestEntry,
    check_widths,
    iter_classes,
    load_array_file,
    load_label_file,
    load_manifest,
    save_array_file,
    save_label_file,
    save_manifest,
    split_by_label,
)


def test_load_float32_values_exactly(tmp_path):
    path = tmp_path / "f32.npy"
    np.save(path, np.array([[1, 2], [3, 4]], dtype=np.float32))
    m = load_array_file(path)
    assert m.data.dtype == np.float64
    assert np.array_equal(m.data, [[1.0, 2.0], [3.0, 4.0]])
    assert m.source == str(path)


def test_load_rejects_empty_matrix(tmp_path):
    path = tmp_path / "empty.npy"
    write_npy(path, np.zeros((0, 512)))
    with pytest.raises(ShapeError):
        load_array_file(path)


def test_load_rejects_non_finite_naming_first_row(tmp_path):
    arr = np.ones((5, 3))
    arr[3, 1] = np.nan
    path = tmp_path / "nan.npy"
    write_npy(path, arr)
    with pytest.raises(DataError, match="row 3"):
        load_array_file(path)


def test_load_holds_one_copy_of_the_file(tmp_path):
    path = tmp_path / "big.npy"
    write_npy(path, np.random.default_rng(7).standard_normal((20_000, 32)))
    tracemalloc.start()
    try:
        m = load_array_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the array read from the file becomes the matrix's buffer; the
    # finiteness mask adds an eighth
    assert peak < 1.5 * path.stat().st_size
    assert not m.data.flags.writeable


def test_save_load_identity_is_bit_exact(tmp_path):
    rng = np.random.default_rng(4)
    for i in range(20):
        m = EmbeddingMatrix(
            rng.standard_normal((rng.integers(1, 30), rng.integers(1, 30))),
        )
        path = tmp_path / f"m{i}.npy"
        save_array_file(m, path)
        back = load_array_file(path)
        assert back.data.tobytes() == m.data.tobytes()


def test_matrix_is_immutable():
    m = EmbeddingMatrix(np.ones((2, 2)))
    with pytest.raises(ValueError):
        m.data[0, 0] = 5.0


def test_labels_validation():
    for labels, shape in (([0, 1], "(2,)"), ([[0], [1], [2]], "(3, 1)")):
        with pytest.raises(ShapeError) as exc:
            EmbeddingMatrix(np.ones((3, 2)), labels=labels)
        assert str(exc.value) == f"labels must be a length-3 vector, got shape {shape}"
    # a block of a dump names the row by its index in the dump
    for first_row, row in ((0, 1), (4096, 4097)):
        with pytest.raises(DataError) as exc:
            EmbeddingMatrix(np.ones((3, 2)), labels=[0, -1, 2], first_row=first_row)
        assert str(exc.value) == f"negative label id at row {row}"


def test_split_by_label_two_classes():
    m = EmbeddingMatrix(np.arange(8.0).reshape(4, 2), labels=[0, 1, 0, 1])
    parts = split_by_label(m)
    assert set(parts) == {0, 1}
    assert np.array_equal(parts[0].data, [[0, 1], [4, 5]])
    assert np.array_equal(parts[1].data, [[2, 3], [6, 7]])


def test_split_single_label_returns_input():
    m = EmbeddingMatrix(np.ones((3, 2)), labels=[7, 7, 7])
    parts = split_by_label(m)
    assert list(parts) == [7]
    assert np.array_equal(parts[7].data, m.data)


def test_split_matches_group_by_oracle():
    rng = np.random.default_rng(5)
    labels = rng.integers(0, 10, size=1000)
    m = EmbeddingMatrix(rng.standard_normal((1000, 4)), labels=labels)
    parts = split_by_label(m)
    # oracle: plain group-by counting
    expected = Counter(int(v) for v in labels)
    assert {k: p.n for k, p in parts.items()} == dict(expected)
    assert sum(p.n for p in parts.values()) == 1000
    # parts are disjoint and exhaustive: multiset of rows reconstructs m
    stacked = np.vstack([p.data for _, p in sorted(parts.items())])
    order = np.argsort(labels, kind="stable")
    assert np.array_equal(stacked, m.data[order])


def test_split_requires_labels():
    with pytest.raises(MissingLabelsError):
        split_by_label(EmbeddingMatrix(np.ones((2, 2))))


def test_iter_classes_yields_classes_in_id_order_on_demand():
    m = EmbeddingMatrix(np.arange(10.0).reshape(5, 2), labels=[3, 1, 3, 0, 1])
    classes = iter_classes(m)
    label, part = next(classes)
    assert label == 0 and np.array_equal(part.data, [[6, 7]])
    assert not part.data.flags.writeable
    rest = list(classes)
    assert [label for label, _ in rest] == [1, 3]
    assert np.array_equal(rest[1][1].data, [[0, 1], [4, 5]])
    assert np.array_equal(rest[1][1].labels, [3, 3])


def test_iter_classes_of_a_dump_scans_each_class_once(tmp_path, monkeypatch):
    path = tmp_path / "dump.npy"
    write_npy(path, np.random.default_rng(9).standard_normal((10, 4)))
    calls = []
    isfinite = np.isfinite
    monkeypatch.setattr(np, "isfinite", lambda x: calls.append(x.shape) or isfinite(x))
    with EmbeddingDump(path, labels=np.arange(10) % 3) as dump:
        classes = [label for label, _ in iter_classes(dump)]
    assert classes == [0, 1, 2]
    assert calls == [(4, 4), (3, 4), (3, 4)]


def test_label_file_round_trip(tmp_path):
    path = tmp_path / "labels.npy"
    save_label_file(np.array([3, 1, 2]), path)
    assert np.array_equal(load_label_file(path), [3, 1, 2])
    # 32-bit ids are widened: every label vector is a writable int64 one
    write_npy(path, np.array([3, 1, 2], dtype=np.int32))
    labels = load_label_file(path)
    assert labels.dtype == np.int64 and labels.flags.writeable
    assert np.array_equal(labels, [3, 1, 2])


def test_label_file_rejects_negative(tmp_path):
    path = tmp_path / "neg.npy"
    for dtype in (np.int64, np.int32):
        write_npy(path, np.array([1, -2, 3], dtype=dtype))
        with pytest.raises(DataError) as exc:
            load_label_file(path)
        assert str(exc.value) == f"{path}: negative label id at row 1"


def _write_dataset(tmp_path, **image_keys):
    """A two-entry manifest over fresh dumps; ``image_keys`` go into the
    image entry beside its path and modality."""
    rng = np.random.default_rng(6)
    write_npy(tmp_path / "img.npy", rng.standard_normal((10, 4)))
    write_npy(tmp_path / "txt.npy", rng.standard_normal((8, 4)))
    doc = {
        "name": "demo",
        "entries": [
            {"path": "img.npy", "modality": "image", **image_keys},
            {"path": "txt.npy", "modality": "text"},
        ],
    }
    manifest_path = tmp_path / "manifest.json"
    manifest_path.write_text(json.dumps(doc))
    return manifest_path


def test_manifest_loads_and_iterates(tmp_path):
    # a labels key, as older manifests carry, is ignored like any key the
    # schema does not name
    save_label_file(np.arange(10) % 3, tmp_path / "img_labels.npy")
    manifest = load_manifest(_write_dataset(tmp_path, labels="img_labels.npy"))
    assert manifest == load_manifest(_write_dataset(tmp_path))
    assert manifest.name == "demo"
    assert len(manifest.entries) == 2
    assert [e.modality for e in manifest.entries] == ["image", "text"]
    for entry, rows in zip(manifest.entries, (10, 8)):
        with EmbeddingDump(entry.path) as dump:
            assert (dump.n, dump.d) == (rows, 4)
            blocks = list(dump.blocks())
        assert [b.n for b in blocks] == [rows]


def test_accumulate_opens_no_label_file(tmp_path):
    # a labels key naming a missing or a malformed file changes no
    # covariance byte: accumulate reads rows only
    sigmas = {}
    for name, keys in {"plain": {}, "missing": {"labels": "gone.npy"},
                       "malformed": {"labels": "bad.npy"}}.items():
        run = tmp_path / name
        run.mkdir()
        (run / "bad.npy").write_bytes(b"not an NPY file")
        manifest = _write_dataset(run, **keys)
        assert main(["accumulate", "--manifest", str(manifest), "--out", str(run), "--kernel"]) == 0
        sigmas[name] = {p.name: p.read_bytes() for p in sorted(run.glob("sigma_*.npy"))}
    assert len(sigmas["plain"]) == 6
    assert sigmas["missing"] == sigmas["plain"] == sigmas["malformed"]


def test_manifest_missing_file(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps({"name": "x", "entries": [{"path": "gone.npy", "modality": "image"}]})
    )
    with pytest.raises(IoError, match="does not exist"):
        load_manifest(path)


def test_manifest_rejects_bad_json_and_schema(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text("{not json")
    with pytest.raises(FormatError):
        load_manifest(path)
    path.write_text(json.dumps({"name": "x", "entries": [{"path": 3}]}))
    with pytest.raises(FormatError):
        load_manifest(path)
    write_npy(tmp_path / "a.npy", np.ones((2, 2)))
    path.write_text(
        json.dumps({"name": "x", "entries": [{"path": "a.npy", "modality": "audio"}]})
    )
    with pytest.raises(FormatError, match="modality"):
        load_manifest(path)


def test_iter_entries_enforces_consistent_width(tmp_path):
    write_npy(tmp_path / "a.npy", np.ones((3, 4)))
    write_npy(tmp_path / "b.npy", np.ones((3, 5)))
    path = tmp_path / "manifest.json"
    path.write_text(
        json.dumps(
            {
                "name": "x",
                "entries": [
                    {"path": "a.npy", "modality": "image"},
                    {"path": "b.npy", "modality": "image"},
                ],
            }
        )
    )
    with pytest.raises(ShapeError, match="b.npy: width 5 differs from manifest width 4"):
        check_widths(load_manifest(path))


def test_save_manifest_round_trip(tmp_path):
    manifest_path = _write_dataset(tmp_path)
    manifest = load_manifest(manifest_path)
    out = tmp_path / "copy.json"
    save_manifest(manifest, out)
    again = load_manifest(out)
    assert again.name == manifest.name
    assert [e.path for e in again.entries] == [e.path for e in manifest.entries]


def test_save_manifest_uses_relative_paths(tmp_path):
    write_npy(tmp_path / "img.npy", np.ones((2, 2)))
    save_manifest(
        DatasetManifest("rel", (ManifestEntry(tmp_path / "img.npy", "image"),)),
        tmp_path / "manifest.json",
    )
    doc = json.loads((tmp_path / "manifest.json").read_text())
    assert doc["entries"] == [{"path": "img.npy", "modality": "image"}]
