"""Streamed reading of embedding dumps: accumulate, project, activations
and eval (its queries) work one block of rows at a time, and class-overlap
one class at a time; they agree with the whole-matrix functions and hold
memory bounded by the block or the class, not by the file."""

from __future__ import annotations

import csv
import json
import tracemalloc

import numpy as np
import pytest

from spectrune.cli import main
from spectrune.covariance import covariance_of, normalize_trace, save_covariance
from spectrune.errors import DataError, ShapeError
from spectrune.evaluation import SCORE_TILE_BYTES, ZeroShotTask, random_ablation, rank_activations
from spectrune.npy import BLOCK_ROWS, FLOAT_DESCRS, read_npy, write_npy
from spectrune.spectral import decompose
from spectrune.store import (
    DatasetManifest,
    EmbeddingDump,
    EmbeddingMatrix,
    ManifestEntry,
    iter_blocks,
    iter_classes,
    load_array_file,
    save_label_file,
    save_manifest,
)
from spectrune.subspaces import Subspace, apply_removal, save_subspace


def _write_manifest(tmp_path, dumps: dict[str, tuple[str, np.ndarray]]):
    entries = []
    for name, (modality, rows) in dumps.items():
        write_npy(tmp_path / name, rows)
        entries.append(ManifestEntry(tmp_path / name, modality))
    save_manifest(DatasetManifest("streamed", tuple(entries)), tmp_path / "manifest.json")
    return tmp_path / "manifest.json"


def _basis(d: int, p: int, seed: int) -> Subspace:
    q, _ = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, p)))
    return Subspace(q)


def test_accumulate_rerun_is_byte_identical_and_matches_covariance_of(tmp_path):
    rng = np.random.default_rng(0)
    img_a = rng.standard_normal((2 * BLOCK_ROWS + 17, 6)) * 3.0 + 1.0
    img_b = rng.standard_normal((BLOCK_ROWS - 5, 6))
    txt = rng.standard_normal((BLOCK_ROWS + 1, 6)) + 2.0
    manifest = _write_manifest(
        tmp_path, {"a.npy": ("image", img_a), "t.npy": ("text", txt), "b.npy": ("image", img_b)}
    )
    outputs = []
    for run in ("out1", "out2"):
        out = tmp_path / run
        assert main(["accumulate", "--manifest", str(manifest), "--out", str(out),
                     "--kernel"]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.glob("sigma_*"))})
    assert len(outputs[0]) == 12
    assert outputs[0] == outputs[1]

    for tag, rows in (("image", np.vstack([img_a, img_b])), ("text", txt)):
        expected = normalize_trace(covariance_of(EmbeddingMatrix(rows), tag)).sigma
        got = read_npy(out / f"sigma_{tag}.npy", FLOAT_DESCRS, ndim=2)
        assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()
    meta = json.loads((out / "sigma_kernel_image.json").read_text())
    assert meta["n_samples"] == img_a.shape[0] + img_b.shape[0]


def _write_eval_inputs(run, d: int, labels: np.ndarray) -> None:
    """What ``eval`` reads besides the queries ``run/img.npy`` and the noise
    basis: prototypes for the classes of ``labels``, the queries' label
    sidecar, a covariance (``run/cov.npy``, for ``--sigma``) and matched
    pairs."""
    rng = np.random.default_rng(d)
    classes = int(labels.max()) + 1
    write_npy(run / "prototypes.npy", rng.standard_normal((classes, d)))
    save_label_file(np.arange(classes), run / "prototypes_labels.npy")
    save_label_file(labels, run / "img_labels.npy")
    sample = EmbeddingMatrix(rng.standard_normal((4 * d, d)))
    save_covariance(covariance_of(sample, "image"), run / "cov.npy")
    for name in ("pairs_img.npy", "pairs_txt.npy"):
        write_npy(run / name, rng.standard_normal((10, d)))


def _peak_alloc(argv) -> int:
    tracemalloc.start()
    try:
        assert main(argv) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("command", ["accumulate", "project", "activations", "class-overlap", "eval"])
def test_streamed_commands_hold_one_block_not_the_dump(tmp_path, command):
    d = 64
    block_bytes = BLOCK_ROWS * d * 8
    basis = _basis(d, 4, 1)
    peaks = []
    for n in (2 * BLOCK_ROWS, 8 * BLOCK_ROWS):
        run = tmp_path / str(n)
        run.mkdir()
        rng = np.random.default_rng(n)
        rows = rng.standard_normal((n, d))
        manifest = _write_manifest(run, {"img.npy": ("image", rows), "txt.npy": ("text", rows[::-1])})
        save_subspace(basis, run / "noise_basis.npy")
        # classes of 128 rows each, scattered over the dump
        save_label_file(rng.permutation(n) % (n // 128), run / "labels.npy")
        argv = {
            "accumulate": ["accumulate", "--manifest", str(manifest), "--out", str(run), "--kernel"],
            "project": ["project", "--out", str(run), str(run / "img.npy"), str(run / "clean.npy")],
            "activations": ["activations", "--out", str(run)],
            "class-overlap": ["class-overlap", "--out", str(run), "--embeddings", str(run / "img.npy"),
                              "--labels", str(run / "labels.npy")],
            "eval": ["eval", "--out", str(run), "--queries", str(run / "img.npy"),
                     "--sigma", str(run / "cov.npy"), "--trials", "3"],
        }[command]
        if command == "eval":
            # a fixed few classes, so that only the query count grows
            _write_eval_inputs(run, d, rng.permutation(n) % 8)
        peaks.append(_peak_alloc(argv))
    # each larger dump has 6 blocks more than the smaller one; a whole-file
    # read would add at least that much to the peak
    assert abs(peaks[1] - peaks[0]) < block_bytes, peaks


@pytest.mark.parametrize("d, n", [(256, 4 * BLOCK_ROWS), (768, BLOCK_ROWS)])
def test_accumulate_holds_two_block_sized_arrays(tmp_path, d, n):
    rng = np.random.default_rng(13)
    manifest = _write_manifest(tmp_path, {
        "img.npy": ("image", rng.standard_normal((n, d))),
        "txt.npy": ("text", rng.standard_normal((n, d))),
    })
    peak = _peak_alloc(["accumulate", "--manifest", str(manifest), "--out", str(tmp_path), "--kernel"])
    # the kernel fold needs a block's unit rows and their centered copy, and
    # the d x d terms of the accumulators, a merge and the finished outputs.
    # The raw block kept beside both goes past this at d 256, and every
    # accumulator kept while the outputs are finished at d 768
    bound = 2 * BLOCK_ROWS * d * 8 + 8 * d * d * 8
    assert peak <= bound, peak / bound


@pytest.mark.parametrize("command", ["accumulate", "project", "eval", "spectrum", "threshold"])
def test_each_stage_holds_each_of_its_arrays_once(tmp_path, command):
    d, n_classes = 256, 1024
    tile = SCORE_TILE_BYTES // (8 * n_classes)  # eval's rows per score tile
    assert tile < BLOCK_ROWS
    rng = np.random.default_rng(14)
    rows = rng.standard_normal((3 * BLOCK_ROWS, d))
    manifest = _write_manifest(tmp_path, {"img.npy": ("image", rows), "txt.npy": ("text", rows[::-1])})
    save_subspace(_basis(d, 16, 2), tmp_path / "noise_basis.npy")
    _write_eval_inputs(tmp_path, d, np.arange(rows.shape[0]) % n_classes)
    accumulate = ["accumulate", "--manifest", str(manifest), "--out", str(tmp_path), "--kernel"]
    if command in ("spectrum", "threshold"):
        assert main(accumulate) == 0
    argv = {
        "accumulate": accumulate,
        "project": ["project", "--out", str(tmp_path), str(tmp_path / "img.npy"), str(tmp_path / "clean.npy")],
        "eval": ["eval", "--out", str(tmp_path), "--queries", str(tmp_path / "img.npy"),
                 "--sigma", str(tmp_path / "cov.npy"), "--trials", "3"],
        "spectrum": ["spectrum", "--out", str(tmp_path)],
        "threshold": ["threshold", "--out", str(tmp_path)],
    }[command]
    block, dd = BLOCK_ROWS * d * 8, d * d * 8
    m = 3 * 16  # eval's drawn columns: 3 trials of the 16-column basis, at most
    bound = {
        # a block's raw or unit rows and their centered copy; the running m2
        # of both tags, the block's m2 that the fold builds in, the outer
        # product, and the image accumulators kept while the text is folded
        "accumulate": 2 * block + 8 * dd,
        # a block and its projection, plus a quarter block for the finiteness
        # masks and the coordinates x B; a third block is over
        "project": 2.5 * block,
        # the prototypes and P frame; a tile's G and scores, and the tie
        # check's copy of the scores and its mask (an eighth of them); the
        # tile's rows, Q frame and one removal's Q B; the d x m frame of
        # drawn columns; with 0.75 d x d to spare. The eigenvectors kept
        # beside the frame while the queries are scored are over, and so is
        # a whole block of queries
        "eval": n_classes * (d + m) * 8 + 3.125 * SCORE_TILE_BYTES + tile * (d + m + 16) * 8
        + d * m * 8 + 0.75 * dd,
        # the covariance in hand, its eigenvectors and the sign convention's
        # |V^T|, and the noise spans (about a fifth of d x d each) of the
        # files before it. The covariance before it and its spectrum, kept
        # through the next decomposition, are over
        "spectrum": 5 * dd,
        # the covariance, its eigenvectors and |V^T|, with a quarter d x d for
        # the noise span. A symmetrized copy of the covariance beside them,
        # or a copy of |V| for the argmax down its columns, is over
        "threshold": 3.5 * dd,
    }[command]
    peak = _peak_alloc(argv)
    assert peak <= bound, peak / bound


def _ablation_peak(tmp_path, d: int, n_classes: int, n: int) -> int:
    """``tracemalloc`` peak of ``random_ablation`` (3 trials, p 8) over a
    dump of n random queries against n_classes random prototypes."""
    rng = np.random.default_rng(12)
    write_npy(tmp_path / "queries.npy", rng.standard_normal((n, d)))
    protos = EmbeddingMatrix(rng.standard_normal((n_classes, d)), labels=np.arange(n_classes))
    spectrum = decompose(covariance_of(EmbeddingMatrix(rng.standard_normal((4 * d, d))), "image"))
    with EmbeddingDump(tmp_path / "queries.npy", labels=rng.permutation(n) % n_classes) as queries:
        task = ZeroShotTask(protos, queries, k=5)
        tracemalloc.start()
        try:
            random_ablation(task, spectrum, p=8, trials=3, seed=0)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()


def test_the_scoring_pass_holds_one_block_working_set(tmp_path):
    d, n_classes = 256, 512
    peak = _ablation_peak(tmp_path, d, n_classes, 4 * BLOCK_ROWS)
    # one block's queries and one tile's G and score buffers, at most
    # BLOCK_ROWS x n_classes each (here a tile is half a block, and the peak
    # reads 0.85 of this); fresh buffers for every block next to the last
    # block's, and Q V over all d columns, peaked at 1.9 times this
    working_set = BLOCK_ROWS * (2 * n_classes + d) * 8
    assert peak <= 1.25 * working_set, peak / working_set


def test_scoring_memory_is_bounded_by_the_tile_not_the_class_count(tmp_path):
    # one block against as many classes as it has rows: a G and a score
    # buffer for the whole block would be 2 x BLOCK_ROWS x n_classes floats
    d, n_classes = 64, BLOCK_ROWS
    peak = _ablation_peak(tmp_path, d, n_classes, BLOCK_ROWS)
    # the block, the prototypes, a tile's G and score buffers and the copy
    # of a tile's rows that the tie check takes
    bound = (BLOCK_ROWS + n_classes) * d * 8 + 4 * SCORE_TILE_BYTES
    assert peak <= bound, peak / bound


def test_streamed_project_and_activations_match_whole_matrix(tmp_path):
    rng = np.random.default_rng(2)
    rows = rng.standard_normal((2 * BLOCK_ROWS + 3, 12))
    write_npy(tmp_path / "img.npy", rows)
    basis = _basis(12, 3, 3)
    save_subspace(basis, tmp_path / "noise_basis.npy")
    whole = load_array_file(tmp_path / "img.npy")

    assert main(["project", "--out", str(tmp_path), str(tmp_path / "img.npy"),
                 str(tmp_path / "clean.npy")]) == 0
    clean = read_npy(tmp_path / "clean.npy", FLOAT_DESCRS, ndim=2)
    assert np.abs(clean - apply_removal(basis, whole).data).max() <= 1e-12

    top = 40
    assert main(["activations", "--out", str(tmp_path), "--top", str(top)]) == 0
    with open(tmp_path / "activations.csv", newline="") as fh:
        table = list(csv.reader(fh))[1:]
    expected = rank_activations(whole, basis, top=top)
    assert [int(r[1]) for r in table] == [a.row_index for a in expected]
    assert np.allclose([float(r[2]) for r in table], [a.norm for a in expected], atol=1e-12)
    assert {r[3] for r in table} == {str(tmp_path / "img.npy")}
    with EmbeddingDump(tmp_path / "img.npy") as dump:
        assert rank_activations(dump, basis, top=top) == expected


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_classes_read_from_the_dump_equal_classes_of_the_loaded_matrix(tmp_path, dtype):
    rng = np.random.default_rng(9)
    n = BLOCK_ROWS + 300
    write_npy(tmp_path / "img.npy", rng.standard_normal((n, 7)).astype(dtype))
    labels = rng.integers(0, 40, size=n)  # shuffled, classes of unequal size
    whole = load_array_file(tmp_path / "img.npy", labels=labels)
    with EmbeddingDump(tmp_path / "img.npy", labels=labels) as dump:
        streamed = list(iter_classes(dump))
    expected = list(iter_classes(whole))
    assert [label for label, _ in streamed] == [label for label, _ in expected] == list(range(40))
    for (_, got), (_, want) in zip(streamed, expected):
        assert got.n == want.n
        assert got.data.dtype == np.float64 and not got.data.flags.writeable
        assert np.array_equal(got.data, want.data)
        assert np.array_equal(got.labels, want.labels)
        assert got.source == want.source


def test_errors_name_the_global_row_in_a_later_block(tmp_path, capsys):
    rows = np.random.default_rng(4).standard_normal((2 * BLOCK_ROWS, 5))
    bad = BLOCK_ROWS + 7
    rows[bad, 2] = np.inf
    path = tmp_path / "img.npy"
    write_npy(path, rows)
    # a block read, a class read and a whole read go through one wrapper and
    # say the same; classes interleave, so the bad row lies in class 4 of 7,
    # read after classes 0-3 are finished
    labels = np.arange(rows.shape[0]) % 7
    message = f"{path}: non-finite entry in row {bad}"
    for read in (lambda dump: list(iter_blocks(dump)), lambda dump: list(iter_classes(dump)),
                 lambda dump: load_array_file(path)):
        with EmbeddingDump(path, labels) as dump, pytest.raises(DataError) as exc:
            read(dump)
        assert str(exc.value) == message
    save_label_file(labels, tmp_path / "labels.npy")
    save_subspace(_basis(5, 2, 5), tmp_path / "noise_basis.npy")
    assert main(["class-overlap", "--out", str(tmp_path), "--embeddings", str(path),
                 "--labels", str(tmp_path / "labels.npy")]) == 2
    assert message in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))
    # eval finds the row in its first pass over the queries, before any output
    _write_eval_inputs(tmp_path, rows.shape[1], labels)
    assert main(["eval", "--out", str(tmp_path), "--queries", str(path),
                 "--sigma", str(tmp_path / "cov.npy"), "--trials", "3"]) == 2
    assert message in capsys.readouterr().err
    for name in ("eval_report.json", "ablation.csv", "alignment_deltas.csv"):
        assert not (tmp_path / name).exists(), name

    rows[bad] = 0.0
    manifest = _write_manifest(tmp_path, {"img.npy": ("image", rows)})
    assert main(["accumulate", "--manifest", str(manifest), "--out", str(tmp_path), "--kernel"]) == 2
    assert f"{path}: zero-norm row {bad} cannot be normalized" in capsys.readouterr().err
    assert not list(tmp_path.glob("sigma_*"))
    assert main(["activations", "--out", str(tmp_path)]) == 2
    assert f"{path}: zero-norm row {bad} cannot be normalized" in capsys.readouterr().err


def test_dump_blocks_are_fresh_arrays_and_a_pass_holds_few_blocks(tmp_path):
    d = 64
    block_bytes = BLOCK_ROWS * d * 8
    rows = np.random.default_rng(11).standard_normal((8 * BLOCK_ROWS, d))
    write_npy(tmp_path / "img.npy", rows)
    with EmbeddingDump(tmp_path / "img.npy") as dump:
        tracemalloc.start()
        try:
            for _ in iter_blocks(dump):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the block in hand, the next one being read and its finiteness mask;
        # reading into a shared buffer and copying out would add a third block
        assert peak <= 2.5 * block_bytes, peak / block_bytes
        kept = list(iter_blocks(dump))
    assert np.array_equal(np.vstack([block.data for block in kept]), rows)


def test_dump_checks_shape_and_labels_on_open(tmp_path):
    write_npy(tmp_path / "empty.npy", np.zeros((0, 4)))
    with pytest.raises(ShapeError, match="n >= 1"):
        EmbeddingDump(tmp_path / "empty.npy")
    write_npy(tmp_path / "img.npy", np.ones((3, 4)))
    with pytest.raises(ShapeError) as exc:
        EmbeddingDump(tmp_path / "img.npy", labels=np.zeros(2, dtype=np.int64))
    assert str(exc.value) == f"{tmp_path / 'img.npy'}: labels must be a length-3 vector, got shape (2,)"
    with pytest.raises(DataError) as exc:
        EmbeddingDump(tmp_path / "img.npy", labels=[0, -1, 2])
    assert str(exc.value) == f"{tmp_path / 'img.npy'}: negative label id at row 1"


def test_failed_project_leaves_no_partial_output(tmp_path):
    rows = np.random.default_rng(6).standard_normal((2 * BLOCK_ROWS + 1, 4))
    rows[-1, 0] = np.nan
    write_npy(tmp_path / "img.npy", rows)
    save_subspace(_basis(4, 1, 7), tmp_path / "noise_basis.npy")
    argv = ["project", "--out", str(tmp_path), str(tmp_path / "img.npy"), str(tmp_path / "clean.npy")]
    before = set(tmp_path.iterdir())

    assert main(argv) == DataError.exit_code
    assert set(tmp_path.iterdir()) == before  # no destination, no temporary file

    (tmp_path / "clean.npy").write_bytes(b"previous")
    assert main(argv) == DataError.exit_code
    assert (tmp_path / "clean.npy").read_bytes() == b"previous"


def test_accumulate_rejects_entries_of_different_widths(tmp_path, capsys):
    # the widths come from the headers: no payload is folded and no output
    # is written before the mismatch is found, whatever the modalities
    rng = np.random.default_rng(8)
    for second in ("image", "text"):
        run = tmp_path / second
        run.mkdir()
        manifest = _write_manifest(
            run,
            {"a.npy": ("image", rng.standard_normal((5, 16))), "b.npy": (second, rng.standard_normal((5, 32)))},
        )
        assert main(["accumulate", "--manifest", str(manifest), "--out", str(run)]) == ShapeError.exit_code
        assert f"{run / 'b.npy'}: width 32 differs from manifest width 16" in capsys.readouterr().err
        assert not list(run.glob("sigma_*"))
        assert not (run / "accumulate.json").exists()
    # equal widths, but the 1-row text covariance cannot be finalized: every
    # covariance is finished before the first file is written, so the image
    # covariance is not written either
    run = tmp_path / "short"
    run.mkdir()
    manifest = _write_manifest(
        run,
        {"a.npy": ("image", rng.standard_normal((5, 16))), "b.npy": ("text", rng.standard_normal((1, 16)))},
    )
    assert main(["accumulate", "--manifest", str(manifest), "--out", str(run)]) == 1
    assert "at least 2 samples" in capsys.readouterr().err
    assert not list(run.glob("sigma_*"))
    assert not (run / "accumulate.json").exists()
