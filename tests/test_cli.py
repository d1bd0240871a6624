"""CLI pipeline: subcommand chaining, report schemas, exit codes."""

from __future__ import annotations

import csv
import json
import tracemalloc

import numpy as np
import pytest

from spectrune.cli import main
from spectrune.covariance import load_covariance
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
        ["plot-script", "--out", str(out), "--figure", "ablation"],
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
        "activations.csv", "plot_ablation.gp",
    ]
    for name in expected:
        assert (pipeline_dir / name).is_file(), name


def test_sidecars_record_true_modalities(pipeline_dir):
    modalities = {
        name: json.loads((pipeline_dir / f"{name}.json").read_text())["modality"]
        for name in ("sigma_average", "sigma_kernel_average", "sigma_kernel_image")
    }
    assert modalities == {
        "sigma_average": "average",
        "sigma_kernel_average": "kernel-average",
        "sigma_kernel_image": "kernel-image",
    }


def test_threshold_report_recovers_planted_count(pipeline_dir):
    doc = json.loads((pipeline_dir / "threshold.json").read_text())
    assert doc["schema_version"] == 1
    assert doc["method"] == "knee"
    assert abs(doc["noise_count"] - 8) <= 2
    basis = read_npy(pipeline_dir / "noise_basis.npy", FLOAT_DESCRS, ndim=2)
    assert basis.shape == (48, doc["noise_count"])


def test_mscsa_command_reports_high_overlap(pipeline_dir, capsys):
    assert main([
        "mscsa",
        str(pipeline_dir / "planted_basis.npy"),
        str(pipeline_dir / "noise_basis.npy"),
        "--out", str(pipeline_dir),
    ]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mscsa"] >= 0.99
    assert json.loads((pipeline_dir / "mscsa.json").read_text())["mscsa"] == doc["mscsa"]


def test_eval_report_contents(pipeline_dir):
    doc = json.loads((pipeline_dir / "eval_report.json").read_text())
    report = doc["report"]
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
    for _, n_samples, value in rows[1:]:
        assert int(n_samples) == 10
        assert 0.0 <= float(value) <= 1.0


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


def test_eval_rerun_is_byte_identical_across_thread_counts(pipeline_dir):
    report = pipeline_dir / "eval_report.json"
    argv = ["eval", "--out", str(pipeline_dir), "--seed", "5", "--trials", "40",
            "--top-k", "5"]
    assert main(argv + ["--threads", "1"]) == 0
    single = report.read_bytes()
    assert main(argv + ["--threads", "4"]) == 0
    assert report.read_bytes() == single


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


def test_class_overlap_keeps_classes_too_small_for_a_covariance(tmp_path):
    rng = np.random.default_rng(10)
    labels = np.array([0, 0, 0, 0, 1, 2, 2, 2, 2])
    write_npy(tmp_path / "queries.npy", rng.standard_normal((labels.size, 3)))
    save_label_file(labels, tmp_path / "labels.npy")
    write_npy(tmp_path / "basis.npy", np.eye(3)[:, [2]])
    with pytest.warns(UserWarning, match="class 1 has 1 sample"):
        assert main(_class_overlap_argv(
            tmp_path, tmp_path / "queries.npy", tmp_path / "labels.npy", tmp_path / "basis.npy"
        )) == 0
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


def test_class_overlap_is_byte_identical_across_thread_counts(pipeline_dir, tmp_path):
    written = []
    for threads in ("1", "2"):
        out = tmp_path / threads
        assert main([
            "class-overlap", "--out", str(out), "--threads", threads,
            "--embeddings", str(pipeline_dir / "queries.npy"),
            "--labels", str(pipeline_dir / "queries_labels.npy"),
            "--basis", str(pipeline_dir / "noise_basis.npy"),
        ]) == 0
        written.append([
            (out / name).read_bytes()
            for name in ("class_overlap.csv", "class_spectrum_distance.csv")
        ])
    assert written[0] == written[1]
    assert written[0][0] == (pipeline_dir / "class_overlap.csv").read_bytes()


def _class_overlap_argv(out, embeddings, labels, basis):
    return ["class-overlap", "--out", str(out), "--embeddings", str(embeddings),
            "--labels", str(labels), "--basis", str(basis)]


def test_class_overlap_decomposes_each_class_once(pipeline_dir, tmp_path, monkeypatch):
    calls = {"eigh": 0, "eigvalsh": 0}
    for name in calls:
        solver = getattr(np.linalg, name)

        def counted(*args, _name=name, _solver=solver, **kwargs):
            calls[_name] += 1
            return _solver(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    assert main(_class_overlap_argv(
        tmp_path, pipeline_dir / "queries.npy", pipeline_dir / "queries_labels.npy",
        pipeline_dir / "noise_basis.npy",
    )) == 0
    assert calls == {"eigh": 20, "eigvalsh": 0}


def test_class_overlap_never_holds_every_covariance_and_spectrum(tmp_path):
    # tiny classes: the queries are small next to C covariances of d x d,
    # so a peak near 2 * C * d^2 * 8 means covariances and spectra coexist
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
    assert peak < 1.5 * classes * d * d * 8 + queries.nbytes, peak


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
    code = main(["threshold", "--out", str(tmp_path), "--threshold-mode", "fixed"])
    assert code == 1  # fixed mode without --fixed-log10


def test_exit_code_1_for_dim_mismatch_in_mscsa(tmp_path, pipeline_dir):
    argv = ["synth", "--out", str(tmp_path), "--n", "50", "--d", "16", "--p", "4",
            "--classes", "5", "--queries-per-class", "2", "--top-k", "2", "--seed", "3"]
    assert main(argv) == 0
    code = main(["mscsa", str(tmp_path / "planted_basis.npy"),
                 str(pipeline_dir / "planted_basis.npy")])
    assert code == 1


def test_no_trace_normalize_skips_average(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "100", "--d", "8", "--p", "2",
            "--classes", "3", "--queries-per-class", "2", "--top-k", "2", "--seed", "4"]
    assert main(argv) == 0
    assert main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path), "--no-trace-normalize"]) == 0
    assert (tmp_path / "sigma_image.npy").is_file()
    assert not (tmp_path / "sigma_average.npy").is_file()
    meta = json.loads((tmp_path / "sigma_image.json").read_text())
    assert meta["trace_normalized"] is False


def test_fixed_threshold_mode(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "500", "--d", "16", "--p", "4",
            "--noise-var", "1e-6", "--classes", "4", "--queries-per-class", "2",
            "--top-k", "2", "--seed", "6"]
    assert main(argv) == 0
    assert main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path)]) == 0
    assert main(["threshold", "--out", str(tmp_path), "--threshold-mode", "fixed",
                 "--fixed-log10", "-3.6"]) == 0
    doc = json.loads((tmp_path / "threshold.json").read_text())
    assert doc["method"] == "fixed"
    assert doc["log10_value"] == -3.6
    assert doc["noise_count"] == 4


def test_threshold_kernel_flag_targets_kernel_average(tmp_path):
    argv = ["synth", "--out", str(tmp_path), "--n", "2000", "--d", "32", "--p", "6",
            "--classes", "5", "--queries-per-class", "2", "--top-k", "2", "--seed", "7"]
    assert main(argv) == 0
    assert main(["accumulate", "--manifest", str(tmp_path / "manifest.json"),
                 "--out", str(tmp_path), "--kernel"]) == 0
    assert main(["threshold", "--out", str(tmp_path), "--kernel"]) == 0
    doc = json.loads((tmp_path / "threshold.json").read_text())
    assert doc["config"]["sigmas"] == [str(tmp_path / "sigma_kernel_average.npy")]
    assert abs(doc["noise_count"] - 6) <= 2


def test_plot_scripts_cover_all_figures(tmp_path):
    for figure in ("spectrum", "ablation", "alignment", "class-overlap"):
        assert main(["plot-script", "--out", str(tmp_path), "--figure", figure]) == 0
    assert (tmp_path / "plot_spectrum.gp").read_text().startswith("#")
