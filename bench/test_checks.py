"""Tests of the benchmark itself: each output check rejects a deliberately
corrupted output, the tracer's spans nest and see numpy allocations, and
BENCHMARK.json declares exactly the metrics run.py reports.

    python3 -m pytest bench/test_checks.py -q
"""

from __future__ import annotations

import csv
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import checks
import run as bench
from tracer import Tracer

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
SEED = 3
TRIALS = 6
NQ = 8 * 200  # queries in the fixture
COMMANDS = set(bench.ALL_COMMANDS)


def _cli(*args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "spectrune.cli", *args], env=env, check=True)


@pytest.fixture(scope="module")
def clean_run(tmp_path_factory) -> Path:
    """A small full chain: 200 queries per class, far above d, so every class is full rank."""
    run = tmp_path_factory.mktemp("clean")
    r = str(run)
    _cli("synth", "--out", r, "--seed", str(SEED), "--n", "3000", "--d", "32", "--p", "6",
         "--classes", "8", "--queries-per-class", "200", "--top-k", "3")
    _cli("accumulate", "--manifest", f"{r}/manifest.json", "--out", r, "--kernel")
    _cli("spectrum", "--out", r)
    _cli("threshold", "--out", r)
    _cli("project", "--out", r, f"{r}/img.npy", f"{r}/img_clean.npy")
    _cli("eval", "--out", r, "--seed", str(SEED), "--trials", str(TRIALS), "--top-k", "3")
    _cli("class-overlap", "--out", r)
    _cli("activations", "--out", r)
    return run


def _check(run: Path) -> None:
    checks.check_run(run, COMMANDS, True, SEED, TRIALS, ablation_hurts=True)


@pytest.fixture
def corrupt(clean_run, tmp_path) -> Path:
    run = tmp_path / "run"
    shutil.copytree(clean_run, run)
    return run


def test_clean_run_passes(clean_run):
    _check(clean_run)


def _edit_npy(path: Path, fn) -> None:
    arr = np.load(path)
    np.save(path, fn(arr.copy()))


def _edit_json(path: Path, fn) -> None:
    doc = json.loads(path.read_text())
    fn(doc)
    path.write_text(json.dumps(doc))


def _edit_csv(path: Path, fn) -> None:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    fn(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def _bump_pair(a: np.ndarray) -> np.ndarray:
    a[0, 1] *= 1.0 + 1e-6
    a[1, 0] = a[0, 1]
    return a


def _random_basis(a: np.ndarray) -> np.ndarray:
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal(a.shape))
    return q


def _set_cell(row: int, col: int, fn):
    def edit(rows):
        rows[row][col] = repr(fn(float(rows[row][col])))

    return edit


def _bump_trial(run: Path) -> None:
    def report(doc):
        samples = doc["report"]["ablation_samples"]
        samples[0] -= 1.0 / NQ
        doc["ablation_summary"]["mean"] = float(np.mean(samples))

    _edit_json(run / "eval_report.json", report)
    _edit_csv(run / "ablation.csv", _set_cell(1, 1, lambda v: v - 1.0 / NQ))


def _swap_activations(rows):
    rows[1][1:], rows[2][1:] = rows[2][1:], rows[1][1:]


def _bump_distance(rows):
    for i, j in ((1, 2), (2, 1)):
        rows[i][j] = repr(float(rows[i][j]) * 1.01)


CORRUPTIONS = {
    "sigma entry": lambda r: _edit_npy(r / "sigma_image.npy", _bump_pair),
    "kernel sigma swapped": lambda r: shutil.copy(r / "sigma_average.npy", r / "sigma_kernel_average.npy"),
    "spectrum eigenvalue": lambda r: _edit_csv(r / "spectrum_sigma_text.csv", _set_cell(1, 1, lambda v: v * 1.001)),
    "spectrum log10": lambda r: _edit_csv(r / "spectrum_sigma_text.csv", _set_cell(3, 2, lambda v: v + 1e-6)),
    "noise count": lambda r: _edit_json(r / "threshold.json", lambda d: d.update(noise_count=d["noise_count"] - 1)),
    "noise basis": lambda r: _edit_npy(r / "noise_basis.npy", _random_basis),
    "projection skipped": lambda r: shutil.copy(r / "img.npy", r / "img_clean.npy"),
    "baseline accuracy": lambda r: _edit_json(r / "eval_report.json", lambda d: d.update(baseline_top_k=d["baseline_top_k"] - 1 / NQ)),
    "noise-free accuracy": lambda r: _edit_json(r / "eval_report.json", lambda d: d["report"].update(top_k_accuracy=0.5)),
    "ablation trial": _bump_trial,
    "alignment delta": lambda r: _edit_csv(r / "alignment_deltas.csv", _set_cell(5, 1, lambda v: v + 1e-6)),
    "class overlap": lambda r: _edit_csv(r / "class_overlap.csv", _set_cell(2, 2, lambda v: 0.5)),
    "class distance": lambda r: _edit_csv(r / "class_spectrum_distance.csv", _bump_distance),
    "activation order": lambda r: _edit_csv(r / "activations.csv", _swap_activations),
}


@pytest.mark.parametrize("name", sorted(CORRUPTIONS))
def test_check_rejects_corruption(corrupt, name):
    CORRUPTIONS[name](corrupt)
    with pytest.raises(checks.CheckError):
        _check(corrupt)


def test_tree_digest_sees_one_byte(corrupt):
    before = bench.tree_digest(corrupt)
    path = corrupt / "knees.json"
    path.write_bytes(path.read_bytes().replace(b"1", b"2", 1))
    assert bench.tree_digest(corrupt) != before


def test_spans_nest_and_see_numpy_buffers():
    tracer = Tracer()
    size = 8 << 20
    with tracer.installed():
        with tracer.span("outer"):
            with tracer.span("inner"):
                buf = np.ones(size // 8)
                del buf
            with tracer.span("after"):
                pass
    inner, after, outer = tracer.spans
    assert (inner["parent"], after["parent"], outer["parent"]) == (outer["id"], outer["id"], None)
    assert inner["peak_alloc"] >= size
    assert outer["peak_alloc"] >= size
    assert after["peak_alloc"] < size
    assert outer["start"] <= inner["start"] <= inner["end"] <= after["start"] <= outer["end"]


def test_benchmark_json_declares_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
