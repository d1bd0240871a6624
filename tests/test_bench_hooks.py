"""The benchmark's tracer (bench/tracer.py) wraps spectrune functions by
name; these tests keep those names importable and called by the CLI."""

from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from spectrune.cli import main
from spectrune.npy import BLOCK_ROWS

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture()
def tracer(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # no __pycache__ in bench/
    spec = importlib.util.spec_from_file_location("spectrune_bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracer):
    for layer, functions in tracer.TARGETS.items():
        module = importlib.import_module(f"spectrune.{layer}")
        for name in functions:
            assert callable(getattr(module, name, None)), f"spectrune.{layer}.{name}"


def test_traced_chain_yields_every_per_layer_metric(tracer, tmp_path):
    # each metric that takes a max, a median or a ratio over a function's
    # calls fails here when no command calls that function any more
    out = str(tmp_path)
    chain = [
        ["synth", "--out", out, "--n", "600", "--d", "16", "--p", "4",
         "--classes", "5", "--queries-per-class", "8", "--top-k", "2", "--seed", "1"],
        ["accumulate", "--manifest", f"{out}/manifest.json", "--out", out, "--kernel"],
        ["spectrum", "--out", out],
        ["threshold", "--out", out],
        ["project", "--out", out, f"{out}/img.npy", f"{out}/img_clean.npy"],
        ["eval", "--out", out, "--seed", "1", "--trials", "3", "--top-k", "2"],
        ["class-overlap", "--out", out],
        ["activations", "--out", out],
    ]
    t = tracer.Tracer()
    with t.installed():
        for argv in chain:
            with t.span(f"cli.{argv[0]}"):
                assert main(argv) == 0, argv
    metrics = tracer.per_layer_metrics(t.spans)
    assert metrics["covariance.per_class_calls"] == 1
    assert metrics["evaluation.ablation_trial_s"] > 0.0

    def called_in(command):
        cmd = next(s for s in t.spans if s["name"] == f"cli.{command}")
        return [(s["name"], s["count"]) for s in t.spans
                if s is not cmd and cmd["start"] <= s["start"] and s["end"] <= cmd["end"]]

    # accumulate_rows_per_s counts the rows of every accumulate call: with
    # --kernel each block is folded raw and row-normalized, two calls and
    # one normalize_rows per block, over both 600-row entries
    blocks = 2 * -(-600 // BLOCK_ROWS)
    called = called_in("accumulate")
    folds = [count for name, count in called if name == "covariance.accumulate"]
    assert len(folds) == 2 * blocks and sum(folds) == 2 * 2 * 600
    assert called.count(("covariance.normalize_rows", None)) == blocks
    # zero_shot_topk_s is a median over calls and ablation_trial_s divides
    # by the trial count: eval scores the baseline and the noise-free task in
    # a call each, and every trial in one random_ablation call
    called = called_in("eval")
    assert called.count(("evaluation.zero_shot_topk", None)) == 2
    assert [c for c in called if c[0] == "evaluation.random_ablation"] == [("evaluation.random_ablation", 3)]
