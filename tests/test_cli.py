"""CLI pipeline: subcommand chaining, report schemas, exit codes."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import spectrune
from spectrune import cli, evaluation, store
from spectrune.cli import main
from spectrune.covariance import CovarianceMatrix, load_covariance, save_covariance
from spectrune.evaluation import trial_rng
from spectrune.npy import FLOAT_DESCRS, read_npy, write_npy
from spectrune.spectral import decompose
from spectrune.store import save_label_file
from spectrune.subspaces import remove_component


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """One small synthetic run shared by the read-only assertions below."""
    out = tmp_path_factory.mktemp("pipeline")
    argv_sets = [
        ["synth", "--out", str(out), "--n", "3000", "--d", "48", "--p", "8",
         "--classes", "20", "--queries-per-class", "10", "--seed", "5"],
        ["accumulate", "--manifest", str(out / "manifest.json"), "--out", str(out),
         "--kernel"],
        ["spectrum", "--out", str(out)],
        ["threshold", "--out", str(out)],
        ["eval", "--out", str(out), "--seed", "5", "--trials", "40", "--top-k", "5"],
        ["class-overlap", "--out", str(out)],
        ["activations", "--out", str(out), "--top", "10"],
    ]
    for argv in argv_sets:
        assert main(argv) == 0, f"command failed: {argv}"
    return out


def test_pipeline_produces_expected_files(pipeline_dir):
    expected = [
        "img.npy", "txt.npy", "manifest.json", "synth.json",
        "sigma_image.npy", "sigma_image.json", "sigma_text.npy",
        "sigma_average.npy", "sigma_kernel_image.npy", "sigma_kernel_average.npy",
        "spectrum_sigma_average.csv", "knees.json",
        "threshold.json", "noise_basis.npy", "noise_basis.json",
        "eval_report.json", "ablation.csv", "alignment_deltas.csv",
        "class_overlap.csv", "class_spectrum_distance.csv",
        "activations.csv",
    ]
    for name in expected:
        assert (pipeline_dir / name).is_file(), name


def test_sidecars_record_true_modalities(pipeline_dir):
    # each covariance's tag is named once, by its manifest entry or its
    # average, and every sidecar records the tag its file is named after
    tags = ("image", "text", "average", "kernel-image", "kernel-text", "kernel-average")
    modalities = {
        tag: json.loads((pipeline_dir / f"sigma_{tag.replace('-', '_')}.json").read_text())["modality"]
        for tag in tags
    }
    assert modalities == {tag: tag for tag in tags}


def test_threshold_report_recovers_planted_count(pipeline_dir):
    doc = json.loads((pipeline_dir / "threshold.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["method"] == "knee"
    assert abs(doc["noise_count"] - 8) <= 2
    basis = read_npy(pipeline_dir / "noise_basis.npy", FLOAT_DESCRS, ndim=2)
    assert basis.shape == (48, doc["noise_count"])


def _sigma_with_noise_span(q, noise_cols, signal_top, modality, path):
    """A trace-normalized covariance whose eigenvectors are the columns of
    the rotation q: the columns ``noise_cols`` at eigenvalue 1e-9, the rest
    log-spaced from 10^signal_top down to a tenth of that, so that the knee
    flags exactly ``noise_cols``."""
    d = q.shape[0]
    w = np.full(d, 1e-9)
    signal = [i for i in range(d) if i not in noise_cols]
    w[signal] = np.logspace(signal_top, signal_top - 1.0, len(signal))
    sigma = (q * (w / w.sum())) @ q.T
    save_covariance(CovarianceMatrix((sigma + sigma.T) * 0.5, 100, modality, True), path)


def test_spectrum_reports_cross_modal_noise_span_agreement(pipeline_dir, tmp_path):
    # each side's own noise span lies below its own knee: identical spans
    # read 1.0, spans sharing half their directions read 0.5
    rng = np.random.default_rng(31)
    q, _ = np.linalg.qr(rng.standard_normal((16, 16)))
    for tag, noise_cols, top in [
        ("image", [12, 13, 14, 15], -1.0),
        ("text", [12, 13, 14, 15], -1.3),
        ("kernel_image", [12, 13, 14, 15], -1.0),
        ("kernel_text", [10, 11, 14, 15], -1.2),
    ]:
        _sigma_with_noise_span(q, noise_cols, top, tag.replace("_", "-"), tmp_path / f"sigma_{tag}.npy")
    assert main(["spectrum", "--out", str(tmp_path)]) == 0
    cross = json.loads((tmp_path / "knees.json").read_text())["cross_modal"]
    assert sorted(cross) == ["sigma_image|sigma_text", "sigma_kernel_image|sigma_kernel_text"]
    assert cross["sigma_image|sigma_text"]["mscsa"] == pytest.approx(1.0, abs=1e-12)
    assert cross["sigma_kernel_image|sigma_kernel_text"]["mscsa"] == pytest.approx(0.5, abs=1e-12)
    assert all(pair["noise_counts"] == [4, 4] for pair in cross.values())
    # an explicit list is read instead of every sigma_*.npy; a flat spectrum
    # has no knee, so it gets an error in place of its index and no pair
    flat = tmp_path / "flat.npy"
    save_covariance(CovarianceMatrix(np.eye(16) / 16, 100, "text", True), flat)
    sigmas = [str(tmp_path / "sigma_image.npy"), str(flat)]
    assert main(["spectrum", "--out", str(tmp_path / "listed"), *sigmas]) == 0
    doc = json.loads((tmp_path / "listed" / "knees.json").read_text())
    assert doc["config"]["sigmas"] == sigmas
    assert sorted(doc["knees"]) == ["flat", "sigma_image"]
    assert doc["knees"]["flat"]["knee_index"] is None and doc["knees"]["flat"]["error"]
    assert doc["knees"]["sigma_image"]["knee_index"] is not None
    assert doc["cross_modal"] == {}
    # synth plants one noise span in both modalities
    cross = json.loads((pipeline_dir / "knees.json").read_text())["cross_modal"]
    assert sorted(cross) == ["sigma_image|sigma_text", "sigma_kernel_image|sigma_kernel_text"]
    assert all(pair["mscsa"] > 0.99 for pair in cross.values())


def test_spectrum_refuses_two_listed_files_with_one_stem(tmp_path, capsys):
    # both outputs are named by the stem, so the second file would silently
    # overwrite the first's curve and knees.json entry
    paths = []
    for name in ("a", "b"):
        (tmp_path / name).mkdir()
        paths.append(tmp_path / name / "sigma_average.npy")
        save_covariance(CovarianceMatrix(np.diag([0.5, 0.25, 0.25]), 100, "average", True), paths[-1])
    out = tmp_path / "out"
    out.mkdir()
    assert main(["spectrum", "--out", str(out), *map(str, paths)]) == 1
    assert f"{paths[0]} and {paths[1]} share the stem 'sigma_average'" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_spectrum_records_a_covariance_too_small_for_a_knee_and_goes_on(tmp_path, capsys):
    # a 2-point curve has no interior point: no knee, as for a flat spectrum
    small = tmp_path / "small.npy"
    save_covariance(CovarianceMatrix(np.diag([0.75, 0.25]), 100, "image", True), small)
    q, _ = np.linalg.qr(np.random.default_rng(32).standard_normal((16, 16)))
    normal = tmp_path / "normal.npy"
    _sigma_with_noise_span(q, [12, 13, 14, 15], -1.0, "image", normal)
    out = tmp_path / "out"
    assert main(["spectrum", "--out", str(out), str(small), str(normal)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["knees.json", "spectrum_normal.csv", "spectrum_small.csv"]
    knees = json.loads((out / "knees.json").read_text())["knees"]
    assert knees["small"]["knee_index"] is None and knees["small"]["log10_value"] is None
    assert "no interior point" in knees["small"]["error"]
    assert knees["normal"]["knee_index"] is not None
    # threshold needs a knee: it names the spectrum that has none
    assert main(["threshold", "--out", str(out), str(small)]) == 1
    assert "spectrum 0 (image(n=100, trace=1)): a curve of 2 points" in capsys.readouterr().err
    assert not (out / "threshold.json").exists()


def test_mscsa_command_reports_high_overlap(pipeline_dir, capsys):
    assert main([
        "mscsa",
        str(pipeline_dir / "planted_basis.npy"),
        str(pipeline_dir / "noise_basis.npy"),
        "--out", str(pipeline_dir),
    ]) == 0
    printed = capsys.readouterr().out
    assert json.loads(printed)["mscsa"] >= 0.99
    assert printed.encode() == (pipeline_dir / "mscsa.json").read_bytes()


def test_eval_report_contents(pipeline_dir):
    doc = json.loads((pipeline_dir / "eval_report.json").read_text())
    report = doc["report"]
    assert set(report) == {"ablation_samples", "mean_cos_delta", "seed", "top_k_accuracy"}
    assert doc["baseline_top_k"] == pytest.approx(report["top_k_accuracy"], abs=1e-3)
    assert len(report["ablation_samples"]) == 40
    assert report["seed"] == 5
    assert report["mean_cos_delta"] > 0.0
    assert doc["alignment_pairs_undefined"] == 0
    assert doc["ablation_summary"]["mean"] < doc["baseline_top_k"]
    with open(pipeline_dir / "ablation.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "accuracy"]
    assert len(rows) == 41
    assert report["ablation_samples"] == [float(a) for _, a in rows[1:]]


def test_project_command_round_trip(pipeline_dir):
    out_file = pipeline_dir / "img_clean.npy"
    assert main([
        "project", str(pipeline_dir / "img.npy"), str(out_file),
        "--out", str(pipeline_dir),
    ]) == 0
    cleaned = read_npy(out_file, FLOAT_DESCRS, ndim=2)
    basis = read_npy(pipeline_dir / "noise_basis.npy", FLOAT_DESCRS, ndim=2)
    assert np.abs(cleaned @ basis).max() <= 1e-10


def test_class_overlap_csv_schema(pipeline_dir):
    with open(pipeline_dir / "class_overlap.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["label", "n_samples", "mscsa"]
    assert len(rows) == 21
    # 10 rows per class at d 48: every class has more than k null
    # directions, so no lowest-k span is defined and every cell is empty
    for _, n_samples, value in rows[1:]:
        assert int(n_samples) == 10
        assert value == ""


def test_activations_csv_schema(pipeline_dir):
    with open(pipeline_dir / "activations.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["rank", "row_index", "score", "source"]
    scores = [float(r[2]) for r in rows[1:]]
    assert scores == sorted(scores, reverse=True)
    assert len(rows) == 11


def test_spectrum_csv_is_descending(pipeline_dir):
    with open(pipeline_dir / "spectrum_sigma_average.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["index", "eigenvalue", "log10_eigenvalue"]
    eigenvalues = [float(r[1]) for r in rows[1:]]
    assert eigenvalues == sorted(eigenvalues, reverse=True)
    assert len(eigenvalues) == 48


def test_eval_rerun_is_byte_identical(pipeline_dir):
    report = pipeline_dir / "eval_report.json"
    argv = ["eval", "--out", str(pipeline_dir), "--seed", "5", "--trials", "40",
            "--top-k", "5"]
    assert main(argv) == 0
    first = report.read_bytes()
    assert main(argv) == 0
    assert report.read_bytes() == first


def test_eval_query_only_keeps_baseline_accuracy(pipeline_dir, tmp_path):
    # prototypes lie in the signal span, so removing the noise span from the
    # queries alone only rescales each query's cosines: the ranking stays
    inputs = {
        "--prototypes": "prototypes.npy", "--queries": "queries.npy",
        "--basis": "noise_basis.npy", "--sigma": "sigma_average.npy",
        "--pairs-img": "pairs_img.npy", "--pairs-txt": "pairs_txt.npy",
    }
    argv = ["eval", "--out", str(tmp_path), "--seed", "5", "--trials", "3",
            "--query-only"]
    for flag, name in inputs.items():
        argv += [flag, str(pipeline_dir / name)]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "eval_report.json").read_text())
    assert doc["config"]["query_only"] is True
    assert doc["report"]["top_k_accuracy"] == doc["baseline_top_k"]


def _direct_topk(queries, qlabels, protos, plabels, k):
    """Unit rows, every cosine, a stable descending argsort per query."""

    def unit(x):
        return x / np.linalg.norm(x, axis=1, keepdims=True)

    order = np.argsort(plabels)
    top = np.argsort(-(unit(queries) @ unit(protos[order]).T), axis=1, kind="stable")
    return float((plabels[order][top[:, :k]] == qlabels[:, None]).any(axis=1).mean())


def test_eval_query_only_ablation_removes_the_span_from_queries_only(pipeline_dir, tmp_path):
    argv = ["eval", "--out", str(tmp_path), "--seed", "5", "--trials", "4",
            "--top-k", "5", "--query-only"]
    for flag, name in (("--prototypes", "prototypes.npy"), ("--queries", "queries.npy"),
                       ("--basis", "noise_basis.npy"), ("--sigma", "sigma_average.npy")):
        argv += [flag, str(pipeline_dir / name)]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "eval_report.json").read_text())
    assert doc["projected_undefined"] == 0

    queries = np.load(pipeline_dir / "queries.npy")
    qlabels = np.load(pipeline_dir / "queries_labels.npy")
    protos = np.load(pipeline_dir / "prototypes.npy")
    plabels = np.load(pipeline_dir / "prototypes_labels.npy")
    vecs = decompose(load_covariance(pipeline_dir / "sigma_average.npy")).eigenvectors
    p = np.load(pipeline_dir / "noise_basis.npy").shape[1]
    expected = []
    for t in range(4):
        sub = vecs[:, np.sort(trial_rng(5, t).choice(vecs.shape[0], size=p, replace=False))]
        expected.append(_direct_topk(remove_component(queries, sub), qlabels, protos, plabels, 5))
    assert doc["report"]["ablation_samples"] == expected


def test_class_overlap_keeps_classes_too_small_for_a_covariance(tmp_path, caplog):
    rng = np.random.default_rng(10)
    labels = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2])
    write_npy(tmp_path / "queries.npy", rng.standard_normal((labels.size, 3)))
    save_label_file(labels, tmp_path / "labels.npy")
    write_npy(tmp_path / "basis.npy", np.eye(3)[:, [2]])
    assert main(_class_overlap_argv(
        tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
    )) == 0
    # the one warning counts every empty mscsa cell
    assert "1 of 3 classes have no defined lowest-1 span" in caplog.text
    with open(tmp_path / "class_overlap.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[:2] for r in rows] == [["0", "4"], ["1", "1"], ["2", "4"]]
    assert rows[1][2] == ""
    assert all(0.0 <= float(r[2]) <= 1.0 for r in (rows[0], rows[2]))
    with open(tmp_path / "class_spectrum_distance.csv", newline="") as fh:
        header, *dist = list(csv.reader(fh))
    assert header == ["label", "0", "1", "2"]
    assert [r[0] for r in dist] == ["0", "1", "2"]
    assert dist[1][1:] == ["", "", ""] and [r[2] for r in dist] == ["", "", ""]
    assert dist[0][1] == dist[2][3] == "0.0"
    assert float(dist[0][3]) == float(dist[2][1]) > 0.0


def test_class_overlap_without_any_spectrum_leaves_every_cell_empty(tmp_path, caplog):
    # classes of one row and of two equal rows: no distance is defined, and
    # nothing warns (pytest turns warnings into errors)
    labels = np.array([0, 1, 2, 2])
    queries = np.random.default_rng(12).standard_normal((4, 3))
    queries[3] = queries[2]
    write_npy(tmp_path / "queries.npy", queries)
    save_label_file(labels, tmp_path / "labels.npy")
    write_npy(tmp_path / "basis.npy", np.eye(3)[:, [2]])
    assert main(_class_overlap_argv(
        tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
    )) == 0
    assert "3 of 3 classes have no defined lowest-1 span" in caplog.text
    assert (tmp_path / "class_overlap.csv").read_text() == "label,n_samples,mscsa\n0,1,\n1,1,\n2,2,\n"
    assert (tmp_path / "class_spectrum_distance.csv").read_text() == "label,0,1,2\n0,,,\n1,,,\n2,,,\n"


def test_class_overlap_leaves_a_class_of_equal_rows_empty(tmp_path, caplog):
    # exactly equal rows (1.0) have a zero covariance, and rows equal up to
    # representation (0.1) a roundoff one: neither class has a spectrum
    rng = np.random.default_rng(11)
    labels = np.repeat([0, 1], 6)
    save_label_file(labels, tmp_path / "labels.npy")
    write_npy(tmp_path / "basis.npy", np.eye(4)[:, [3]])
    for value in (1.0, 0.1):
        queries = rng.standard_normal((12, 4))
        queries[labels == 1] = value
        write_npy(tmp_path / "queries.npy", queries)
        assert main(_class_overlap_argv(
            tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
        )) == 0, value
        with open(tmp_path / "class_overlap.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert [r[:2] for r in rows] == [["0", "6"], ["1", "6"]]
        assert rows[1][2] == "" and 0.0 <= float(rows[0][2]) <= 1.0
        with open(tmp_path / "class_spectrum_distance.csv", newline="") as fh:
            dist = list(csv.reader(fh))[1:]
        assert dist == [["0", "0.0", ""], ["1", "", ""]]
    assert caplog.text.count("1 of 2 classes have no defined lowest-1 span") == 2


def test_class_overlap_in_another_directory_rewrites_the_same_bytes(pipeline_dir, tmp_path, caplog):
    # a second run on the pipeline's inputs, in another directory, rewrites
    # the pipeline's bytes
    assert main([
        "class-overlap", "--out", str(tmp_path),
        "--embeddings", str(pipeline_dir / "queries.npy"),
        "--labels", str(pipeline_dir / "queries_labels.npy"),
        "--basis", str(pipeline_dir / "noise_basis.npy"),
    ]) == 0
    for name in ("class_overlap.csv", "class_spectrum_distance.csv"):
        assert (tmp_path / name).read_bytes() == (pipeline_dir / name).read_bytes()
    # one warning counts the classes whose lowest-k span is undefined
    assert caplog.text.count("20 of 20 classes have no defined lowest-8 span") == 1


def _class_overlap_argv(out, embeddings, labels, basis):
    return ["class-overlap", "--out", str(out), "--embeddings", str(embeddings),
            "--labels", str(labels), "--basis", str(basis)]


def test_class_overlap_pairs_embeddings_with_their_own_labels_sidecar(pipeline_dir, tmp_path):
    # without --labels, --embeddings X.npy takes X_labels.npy, as eval's
    # inputs do, not the queries' labels in --out (200 rows there, 9 here)
    save_label_file(np.load(pipeline_dir / "queries_labels.npy"), tmp_path / "queries_labels.npy")
    write_npy(tmp_path / "X.npy", np.random.default_rng(15).standard_normal((9, 48)))
    save_label_file(np.repeat([4, 7, 9], 3), tmp_path / "X_labels.npy")
    assert main(["class-overlap", "--out", str(tmp_path), "--embeddings", str(tmp_path / "X.npy"),
                 "--basis", str(pipeline_dir / "noise_basis.npy")]) == 0
    with open(tmp_path / "class_overlap.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[:2] for r in rows] == [["4", "3"], ["7", "3"], ["9", "3"]]


def test_class_overlap_decomposes_each_class_once(pipeline_dir, tmp_path, monkeypatch):
    solved = []  # (solver, matrix size) of every eigensolver call
    for name in ("eigh", "eigvalsh"):
        solver = getattr(np.linalg, name)

        def counted(a, *args, _name=name, _solver=solver, **kwargs):
            solved.append((_name, a.shape[0]))
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    # 20 classes of n_c = 10 <= d - k = 48 - 8 rows: one 10 x 10 Gram
    # solve per class and no d x d solve
    assert main(_class_overlap_argv(
        tmp_path, pipeline_dir / "queries.npy", pipeline_dir / "queries_labels.npy",
        pipeline_dir / "noise_basis.npy",
    )) == 0
    assert solved == [("eigvalsh", 10)] * 20
    # classes of n_c > d - k rows are decomposed once each at d x d
    solved.clear()
    rng = np.random.default_rng(8)
    write_npy(tmp_path / "full.npy", rng.standard_normal((3 * 60, 48)))
    save_label_file(np.repeat(np.arange(3), 60), tmp_path / "full_labels.npy")
    assert main(_class_overlap_argv(
        tmp_path, tmp_path / "full.npy", tmp_path / "full_labels.npy", pipeline_dir / "noise_basis.npy",
    )) == 0
    assert solved == [("eigh", 48)] * 3


def test_class_overlap_never_holds_a_d_by_d_matrix_per_factor(tmp_path):
    # tiny classes: each is a 3 x d factor whose spectrum comes from its
    # 3 x 3 Gram matrix, so the queries are small next to C matrices of
    # d x d. A peak near C * d^2 * 8 means a d x d matrix per factor (its
    # F^T F or eigenvectors) piles up instead of being dropped class by class
    classes, per_class, d = 200, 3, 64
    rng = np.random.default_rng(9)
    queries = rng.standard_normal((classes * per_class, d))
    write_npy(tmp_path / "queries.npy", queries)
    save_label_file(np.repeat(np.arange(classes), per_class), tmp_path / "labels.npy")
    basis, _ = np.linalg.qr(rng.standard_normal((d, 4)))
    write_npy(tmp_path / "basis.npy", basis)
    argv = _class_overlap_argv(
        tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
    )
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.5 * classes * d * d * 8 + queries.nbytes, peak


@pytest.mark.parametrize(
    "classes, per_class, d", [(3, 600, 1024), (2, 10_000, 64)], ids=["gram", "d-by-d"]
)
def test_class_overlap_holds_one_class_at_a_time(tmp_path, classes, per_class, d):
    # a class's rows and its factor are alive together only while the factor
    # is built: neither the rows of a class under decomposition nor the
    # factor of the last class is held while the next class is read
    k = 4
    rng = np.random.default_rng(14)
    write_npy(tmp_path / "queries.npy", rng.standard_normal((classes * per_class, d)))
    save_label_file(np.repeat(np.arange(classes), per_class), tmp_path / "labels.npy")
    basis, _ = np.linalg.qr(rng.standard_normal((d, k)))
    write_npy(tmp_path / "basis.npy", basis)
    argv = _class_overlap_argv(
        tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
    )
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the Gram route (n_c <= d - k) forms no d x d matrix; the other route
    # holds a few: F^T F, its eigenvectors and the solver's copies
    square = 8 * d * d * 8 if per_class > d - k else 0
    assert peak < 2.5 * per_class * d * 8 + square, peak


def test_class_overlap_formats_the_distance_csv_one_row_at_a_time(tmp_path):
    # C^2 Python floats hold 4x the bytes of the C x C float64 distances;
    # those are mirrored as each row is filled, so only the one C x C array
    # is held (the peak reads about 1.3 * C^2 * 8)
    classes = 500
    rng = np.random.default_rng(13)
    write_npy(tmp_path / "queries.npy", rng.standard_normal((2 * classes, 2)))
    save_label_file(np.repeat(np.arange(classes), 2), tmp_path / "labels.npy")
    write_npy(tmp_path / "basis.npy", np.eye(2)[:, [1]])
    argv = _class_overlap_argv(
        tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
    )
    tracemalloc.start()
    try:
        assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3.5 * classes * classes * 8, peak


def test_eval_reports_null_delta_when_no_pair_survives(pipeline_dir, tmp_path):
    # every pair lies inside the noise span, so removing it leaves no pair
    basis = read_npy(pipeline_dir / "noise_basis.npy", FLOAT_DESCRS, ndim=2)
    write_npy(tmp_path / "pairs_img.npy", basis.T)
    write_npy(tmp_path / "pairs_txt.npy", basis.T * 2.0)
    argv = ["eval", "--out", str(tmp_path), "--seed", "5", "--trials", "3",
            "--pairs-img", str(tmp_path / "pairs_img.npy"),
            "--pairs-txt", str(tmp_path / "pairs_txt.npy")]
    for flag, name in (("--prototypes", "prototypes.npy"), ("--queries", "queries.npy"),
                       ("--basis", "noise_basis.npy"), ("--sigma", "sigma_average.npy")):
        argv += [flag, str(pipeline_dir / name)]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "eval_report.json").read_text())
    assert doc["report"]["mean_cos_delta"] is None
    assert doc["alignment_pairs_undefined"] == basis.shape[1]
    assert doc["projected_undefined"] == 0
    with open(tmp_path / "alignment_deltas.csv", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    assert [r[1] for r in rows] == [""] * basis.shape[1]


def test_eval_reads_the_queries_three_times_and_counts_zero_vectors_in_the_noise_free_pass(
        pipeline_dir, tmp_path, monkeypatch):
    # three queries lie inside the noise span: the noise-free score treats
    # them as zero vectors and counts them, with or without the prototypes
    basis = read_npy(pipeline_dir / "noise_basis.npy", FLOAT_DESCRS, ndim=2)
    queries = np.load(pipeline_dir / "queries.npy")
    queries[[0, 7, 150]] = basis[:, :3].T
    write_npy(tmp_path / "queries.npy", queries)
    save_label_file(np.load(pipeline_dir / "queries_labels.npy"), tmp_path / "queries_labels.npy")
    passes = []
    blocks = store.EmbeddingDump.blocks
    monkeypatch.setattr(store.EmbeddingDump, "blocks",
                        lambda dump, *rows: passes.append(Path(dump.path).name) or blocks(dump, *rows))
    argv = ["eval", "--out", str(tmp_path), "--seed", "5", "--trials", "3",
            "--queries", str(tmp_path / "queries.npy")]
    for flag, name in (("--prototypes", "prototypes.npy"), ("--basis", "noise_basis.npy"),
                       ("--sigma", "sigma_average.npy")):
        argv += [flag, str(pipeline_dir / name)]
    for extra in ([], ["--query-only"]):
        passes.clear()
        assert main(argv + extra) == 0
        # the trials, the baseline and the noise-free score
        assert passes == ["queries.npy"] * 3
        assert json.loads((tmp_path / "eval_report.json").read_text())["projected_undefined"] == 3


def test_eval_without_alignment_pairs_reports_null_delta(pipeline_dir, tmp_path, caplog):
    argv = ["eval", "--out", str(tmp_path), "--seed", "5", "--trials", "3"]
    for flag, name in (("--prototypes", "prototypes.npy"), ("--queries", "queries.npy"),
                       ("--basis", "noise_basis.npy"), ("--sigma", "sigma_average.npy")):
        argv += [flag, str(pipeline_dir / name)]
    assert main(argv) == 0
    doc = json.loads((tmp_path / "eval_report.json").read_text())
    assert doc["report"]["mean_cos_delta"] is None
    assert doc["alignment_pairs_undefined"] is None
    assert not (tmp_path / "alignment_deltas.csv").exists()
    assert "no alignment pairs found" in caplog.text


def test_eval_records_where_its_basis_and_its_trials_come_from(pipeline_dir, tmp_path, caplog):
    shutil.copytree(pipeline_dir, tmp_path, dirs_exist_ok=True)
    kernel_average = [str(tmp_path / "sigma_kernel_average.npy")]
    for kernel, target in (([], "average("), (kernel_average, "kernel-average(")):
        caplog.clear()
        assert main(["threshold", "--out", str(tmp_path), *kernel]) == 0
        assert main(["eval", "--out", str(tmp_path), "--trials", "3"]) == 0
        config = json.loads((tmp_path / "eval_report.json").read_text())["config"]
        origin = json.loads((tmp_path / "noise_basis.json").read_text())["origin"]
        assert origin.startswith(target)
        assert config["sigma"] == str(tmp_path / "sigma_average.npy")
        assert config["basis_origin"] == origin
        # the trials come from the plain average, the kernel basis does not
        assert ("but the noise basis from" in caplog.text) == bool(kernel)


def test_eval_refuses_zero_trials_before_scoring_any_query(pipeline_dir, tmp_path, monkeypatch):
    scored = []
    real = evaluation._scores
    monkeypatch.setattr(evaluation, "_scores", lambda *a, **kw: scored.append(1) or real(*a, **kw))
    argv = ["eval", "--out", str(tmp_path), "--seed", "5", "--trials", "0"]
    for flag, name in (("--prototypes", "prototypes.npy"), ("--queries", "queries.npy"),
                       ("--basis", "noise_basis.npy"), ("--sigma", "sigma_average.npy")):
        argv += [flag, str(pipeline_dir / name)]
    assert main(argv) == 1
    assert scored == []
    assert list(tmp_path.iterdir()) == []


def test_synth_rerun_overwrites_identically(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "50", "--d", "16", "--p", "4",
            "--classes", "5", "--queries-per-class", "2", "--top-k", "2", "--seed", "1"]
    assert main(argv) == 0
    first = (tmp_path / "img.npy").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "img.npy").read_bytes() == first


def test_exit_code_2_for_missing_manifest(tmp_path):
    code = main(["accumulate", "--manifest", str(tmp_path / "none.json"),
                 "--out", str(tmp_path)])
    assert code == 2


def test_exit_code_2_for_spectrum_without_covariances(tmp_path, capsys):
    assert main(["spectrum", "--out", str(tmp_path)]) == 2
    assert f"no covariance files found under {tmp_path}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_exit_code_2_for_manifest_without_entries(tmp_path):
    (tmp_path / "manifest.json").write_text(json.dumps({"name": "x", "entries": []}))
    code = main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)])
    assert code == 2
    assert not (tmp_path / "accumulate.json").exists()


def test_exit_code_2_when_an_output_cannot_be_written(pipeline_dir, tmp_path, capsys):
    # a directory at each destination: the temporary file is complete, and
    # moving it onto the destination fails
    commands = {
        "activations.csv": ["activations", "--out", str(tmp_path),
                            "--embeddings", str(pipeline_dir / "img.npy"),
                            "--basis", str(pipeline_dir / "noise_basis.npy")],
        "mscsa.json": ["mscsa", str(pipeline_dir / "planted_basis.npy"),
                       str(pipeline_dir / "noise_basis.npy"), "--out", str(tmp_path)],
    }
    for name, argv in commands.items():
        (tmp_path / name).mkdir()
        assert main(argv) == 2, name
        assert f"error: cannot write {tmp_path / name}: " in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(commands)


def test_chain_writes_the_same_bytes_in_fresh_processes(tmp_path):
    # outputs depend on the flags and --seed alone: two runs of the chain,
    # each command in its own interpreter with another hash seed, into the
    # same directory, write the same files byte for byte; the second run
    # also restores OpenBLAS's default idle spin (2^28 cycles), which moves
    # when idle BLAS workers sleep but not how work is split among them
    out = str(tmp_path / "run")
    chain = [
        ["synth", "--out", out, "--n", "2000", "--d", "24", "--p", "4", "--classes", "8",
         "--queries-per-class", "40", "--seed", "3"],
        ["accumulate", "--manifest", f"{out}/manifest.json", "--out", out, "--kernel"],
        ["spectrum", "--out", out],
        ["threshold", "--out", out],
        ["project", "--out", out, f"{out}/img.npy", f"{out}/img_clean.npy"],
        ["eval", "--out", out, "--seed", "3", "--trials", "20"],
        ["class-overlap", "--out", out],
        ["activations", "--out", out],
    ]
    src = str(Path(spectrune.__file__).resolve().parents[1])
    runs = []
    for hash_seed, extra in (("0", {}), ("1", {"OPENBLAS_THREAD_TIMEOUT": "28"})):
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path, **extra)
        for argv in chain:
            subprocess.run([sys.executable, "-m", "spectrune.cli", *argv],
                           env=env, check=True, capture_output=True)
        runs.append({p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                     for p in sorted(tmp_path.joinpath("run").iterdir())})
        for p in tmp_path.joinpath("run").iterdir():
            p.unlink()
    assert len(runs[0]) == 42
    assert runs[0] == runs[1]


_SPY_ON_NUMPY_LOAD = """\
import os, sys

class Spy:
    seen = []

    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not Spy.seen:
            Spy.seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None

sys.meta_path.insert(0, Spy())
import spectrune.cli
print(Spy.seen)
"""


def test_blas_idle_policy_is_in_force_when_numpy_first_loads():
    # OpenBLAS reads its idle timeout once, as numpy loads; the package sets
    # it before any submodule imports numpy, and a value already set wins
    src = str(Path(spectrune.__file__).resolve().parents[1])
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_THREAD_TIMEOUT"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for preset, expected in ((None, "20"), ("28", "28")):
        child_env = env if preset is None else dict(env, OPENBLAS_THREAD_TIMEOUT=preset)
        done = subprocess.run([sys.executable, "-c", _SPY_ON_NUMPY_LOAD],
                              env=child_env, check=True, capture_output=True, text=True)
        assert done.stdout == f"['{expected}']\n"


def test_threads_option_is_a_usage_error(tmp_path, capsys):
    # work runs on the calling thread only; BLAS does its own threading.
    # Two more retired flags: accumulate always trace-normalizes, and
    # threshold takes a kernel target as its positional sigma
    accumulate = ["accumulate", "--manifest", str(tmp_path / "manifest.json")]
    for argv, retired in (
        (accumulate, ["--threads", "2"]),
        (["eval"], ["--threads", "2"]),
        (["class-overlap"], ["--threads", "2"]),
        (accumulate, ["--no-trace-normalize"]),
        (["threshold"], ["--kernel"]),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path), *retired])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(retired)}" in capsys.readouterr().err


def test_exit_code_1_for_bad_synth_noise_variance(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "50", "--d", "8", "--p", "2"]
    for noise_var in ("0", "2.0"):
        assert main(argv + ["--noise-var", noise_var]) == 1
    assert not (tmp_path / "img.npy").exists()


def test_exit_code_1_for_bad_threshold_config(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "200", "--d", "16", "--p", "4",
            "--classes", "4", "--queries-per-class", "2", "--top-k", "2", "--seed", "2"]
    assert main(argv) == 0
    assert main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    code = main(["threshold", "--out", str(tmp_path), "--fixed-log10", "10"])
    assert code == 1  # a cutoff above the whole spectrum flags every dimension
    assert not (tmp_path / "threshold.json").exists()


def test_exit_code_1_for_dim_mismatch_in_mscsa(tmp_path, pipeline_dir):
    argv = ["synth", "--out", str(tmp_path), "--n", "50", "--d", "16", "--p", "4",
            "--classes", "5", "--queries-per-class", "2", "--top-k", "2", "--seed", "3"]
    assert main(argv) == 0
    code = main(["mscsa", str(tmp_path / "planted_basis.npy"),
                 str(pipeline_dir / "planted_basis.npy")])
    assert code == 1


def test_inputs_that_fail_their_checks_are_named(tmp_path, capsys):
    basis = tmp_path / "a.npy"
    write_npy(basis, np.ones((4, 2)))
    write_npy(tmp_path / "b.npy", np.eye(4)[:, :2])
    assert main(["mscsa", str(basis), str(tmp_path / "b.npy")]) == 1
    assert f"{basis}: basis not orthonormal" in capsys.readouterr().err

    sigma = tmp_path / "sigma_image.npy"
    write_npy(sigma, np.array([[1.0, 0.5], [0.0, 1.0]]))
    (tmp_path / "sigma_image.json").write_text(
        json.dumps({"n_samples": 10, "modality": "image", "trace_normalized": True})
    )
    assert main(["spectrum", "--out", str(tmp_path)]) == 1
    assert f"{sigma}: covariance asymmetry" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["spectrum", "threshold"])
@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_a_non_finite_covariance_is_a_data_error_that_names_its_file(tmp_path, capsys, command, bad):
    # a symmetric NaN pair defeats the asymmetry check, and an inf on the
    # diagonal its tolerance; either used to reach knee detection and crash
    sigma = np.eye(8) / 8
    if bad == "nan":
        sigma[2, 5] = sigma[5, 2] = np.nan
    else:
        sigma[3, 3] = np.inf
    path = tmp_path / "sigma_average.npy"
    write_npy(path, sigma)
    (tmp_path / "sigma_average.json").write_text(
        json.dumps({"n_samples": 10, "modality": "average", "trace_normalized": False})
    )
    assert main([command, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: non-finite entry in covariance" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sigma_average.json", "sigma_average.npy"]


def test_accumulate_trace_normalizes_and_averages_the_modalities_it_has(tmp_path, caplog):
    argv = ["synth", "--out", str(tmp_path), "--n", "100", "--d", "8", "--p", "2",
            "--classes", "3", "--queries-per-class", "2", "--top-k", "2", "--seed", "4"]
    assert main(argv) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    manifest["entries"] = [e for e in manifest["entries"] if e["modality"] == "image"]
    (tmp_path / "image_only.json").write_text(json.dumps(manifest))
    # both modalities give both averages; an image-only manifest warns that
    # text is missing and writes no average
    for name, tags in (
        ("manifest", ["average", "image", "kernel_average", "kernel_image", "kernel_text", "text"]),
        ("image_only", ["image", "kernel_image"]),
    ):
        out = tmp_path / name
        assert main(["accumulate", "--manifest", str(tmp_path / f"{name}.json"),
                     "--out", str(out), "--kernel"]) == 0
        assert sorted(p.name for p in out.glob("sigma_*.npy")) == [f"sigma_{t}.npy" for t in tags]
        for meta in out.glob("sigma_*.json"):
            assert json.loads(meta.read_text())["trace_normalized"] is True
        config = json.loads((out / "accumulate.json").read_text())["config"]
        assert sorted(config) == ["kernel", "manifest", "out"]
    assert "manifest has no text entries" in caplog.text


def test_fixed_threshold_mode(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "500", "--d", "16", "--p", "4",
            "--noise-var", "1e-6", "--classes", "4", "--queries-per-class", "2",
            "--top-k", "2", "--seed", "6"]
    assert main(argv) == 0
    assert main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    # giving --fixed-log10 selects fixed mode
    assert main(["threshold", "--out", str(tmp_path), "--fixed-log10", "-3.6"]) == 0
    doc = json.loads((tmp_path / "threshold.json").read_text())
    assert doc["method"] == doc["config"]["threshold_mode"] == "fixed"
    assert doc["config"]["fixed_log10"] == -3.6
    assert doc["log10_value"] == -3.6
    assert doc["noise_count"] == 4


def test_fixed_threshold_decomposes_only_its_target(tmp_path, monkeypatch):
    q, _ = np.linalg.qr(np.random.default_rng(33).standard_normal((16, 16)))
    paths = [tmp_path / f"sigma_{tag}.npy" for tag in ("average", "image", "text")]
    for path, top in zip(paths, (-1.0, -1.2, -1.4)):
        _sigma_with_noise_span(q, [12, 13, 14, 15], top, path.stem[len("sigma_"):], path)
    decomposed = []

    def counted(c):
        decomposed.append(c.modality)
        return decompose(c)

    monkeypatch.setattr(cli, "decompose", counted)
    written = {}
    for sigmas in (paths[:1], paths):
        decomposed.clear()
        assert main(["threshold", "--out", str(tmp_path), "--fixed-log10", "-5.5", *map(str, sigmas)]) == 0
        assert decomposed == ["average"]
        doc = json.loads((tmp_path / "threshold.json").read_text())
        assert doc["config"].pop("sigmas") == [str(p) for p in sigmas]
        assert doc["noise_count"] == 4 and doc["per_spectrum_knees"] == []
        written[len(sigmas)] = [doc] + [(tmp_path / name).read_bytes() for name in ("noise_basis.npy", "noise_basis.json")]
    # the listed covariances beyond the target change only config.sigmas
    assert written[3] == written[1]


def test_threshold_targets_the_first_sigma_it_is_given(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "2000", "--d", "32", "--p", "6",
            "--classes", "5", "--queries-per-class", "2", "--top-k", "2", "--seed", "7"]
    assert main(argv) == 0
    assert main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path), "--kernel"]) == 0
    kernel_average = str(tmp_path / "sigma_kernel_average.npy")
    assert main(["threshold", "--out", str(tmp_path), kernel_average]) == 0
    doc = json.loads((tmp_path / "threshold.json").read_text())
    assert doc["config"]["sigmas"] == [kernel_average]
    assert json.loads((tmp_path / "noise_basis.json").read_text())["origin"].startswith("kernel-average(")
    assert abs(doc["noise_count"] - 6) <= 2
    # with a list of covariances the first is the target: the basis is its
    # lowest eigenvectors, whichever order the others come in
    pair = [str(tmp_path / "sigma_kernel_image.npy"), str(tmp_path / "sigma_kernel_text.npy")]
    for sigmas in (pair, pair[::-1]):
        assert main(["threshold", "--out", str(tmp_path), *sigmas]) == 0
        doc = json.loads((tmp_path / "threshold.json").read_text())
        assert doc["config"]["sigmas"] == sigmas
        assert len(doc["per_spectrum_knees"]) == 2
        target = decompose(load_covariance(sigmas[0]))
        basis = read_npy(tmp_path / "noise_basis.npy", FLOAT_DESCRS, ndim=2)
        assert np.array_equal(basis, target.eigenvectors[:, :doc["noise_count"]])
