"""Spans around spectrune's public functions, recorded from outside the
program, and the per-layer metrics derived from them.

:meth:`Tracer.installed` replaces each target function, in every
``spectrune`` module that binds it, by a wrapper that records a span (name,
start, end, parent span, peak of allocated memory, and a count such as
bytes or rows) and restores the originals on exit. Allocation peaks come
from ``tracemalloc``, which numpy reports its array buffers to. Spans are
kept in memory; the caller writes them out at the end. The recording
assumes one thread, which holds for the CLI's default ``--threads 1``.
"""

from __future__ import annotations

import contextlib
import importlib
import os
import statistics
import sys
import time
import tracemalloc

MB = float(1 << 20)


def _path_size(args, kwargs) -> int:
    return os.path.getsize(args[0])


def _array_bytes(args, kwargs) -> int:
    return int(args[1].nbytes)


def _batch_rows(args, kwargs) -> int:
    return int(args[1].n)


def _trials(args, kwargs) -> int:
    return int(kwargs["trials"] if "trials" in kwargs else args[3])


# module -> {function: count taken from its arguments, or None}
TARGETS = {
    "npy": {"read_npy": _path_size, "write_npy": _array_bytes},
    "store": {"load_array_file": _path_size, "load_label_file": None, "split_by_label": None},
    "covariance": {
        "accumulate": _batch_rows,
        "merge": None,
        "finalize": None,
        "normalize_trace": None,
        "normalize_rows": None,
        "average": None,
        "per_class_covariances": None,
        "save_covariance": None,
        "load_covariance": None,
    },
    "spectral": {"decompose": None, "log_spectrum": None, "detect_knee": None, "noise_threshold": None},
    "subspaces": {
        "noise_subspace": None,
        "mscsa": None,
        "projection_remove": None,
        "apply_removal": _batch_rows,
        "per_class_overlap": None,
        "class_spectrum_distance": None,
        "save_subspace": None,
        "load_subspace": None,
    },
    "evaluation": {
        "synth_benchmark": None,
        "zero_shot_topk": None,
        "random_ablation": _trials,
        "alignment_delta": None,
        "rank_activations": None,
    },
}


class Tracer:
    """Records nested spans; ``spans`` is a list of dicts in end order."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    @contextlib.contextmanager
    def span(self, name: str, count: int | None = None):
        _, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1]["high"] = max(self._stack[-1]["high"], peak)
        tracemalloc.reset_peak()
        base, _ = tracemalloc.get_traced_memory()
        frame = {
            "id": len(self.spans) + len(self._stack),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "name": name,
            "count": count,
            "high": base,
            "start": time.perf_counter(),
        }
        self._stack.append(frame)
        try:
            yield
        finally:
            end = time.perf_counter()
            _, peak = tracemalloc.get_traced_memory()
            self._stack.pop()
            high = max(frame.pop("high"), peak)
            if self._stack:
                self._stack[-1]["high"] = max(self._stack[-1]["high"], high)
            tracemalloc.reset_peak()
            frame.update(end=end, peak_alloc=high - base)
            self.spans.append(frame)

    def _wrap(self, fn, name: str, count_of):
        def traced(*args, **kwargs):
            count = count_of(args, kwargs) if count_of else None
            with self.span(name, count):
                return fn(*args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target while the block runs, with tracemalloc on."""
        patched = []
        importlib.import_module("spectrune.cli")
        modules = [m for n, m in list(sys.modules.items()) if n == "spectrune" or n.startswith("spectrune.")]
        for layer, functions in TARGETS.items():
            home = importlib.import_module(f"spectrune.{layer}")
            for fname, count_of in functions.items():
                original = getattr(home, fname)
                wrapper = self._wrap(original, f"{layer}.{fname}", count_of)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            patched.append((module, attr, original))
        tracemalloc.start()
        try:
            yield self
        finally:
            tracemalloc.stop()
            for module, attr, original in patched:
                setattr(module, attr, original)


def _self_times(spans: list[dict]) -> dict[int, float]:
    # children end before their parent and never overlap one another
    own = {s["id"]: s["end"] - s["start"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def per_layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures from the spans of one traced chain.

    ``*_s`` without a qualifier is the total time in that function;
    ``decompose``, ``mscsa`` and ``zero_shot_topk`` give the median call.
    """
    by_name: dict[str, list[dict]] = {}
    for s in spans:
        by_name.setdefault(s["name"], []).append(s)

    def calls(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s["end"] - s["start"] for s in calls(name))

    def median(name):
        return statistics.median(s["end"] - s["start"] for s in calls(name))

    def counted(name):
        return sum(s["count"] for s in calls(name))

    def peak_mb(name):
        return max(s["peak_alloc"] for s in calls(name)) / MB

    largest_load = max(calls("store.load_array_file"), key=lambda s: s["count"])
    out = {f"{name}_s": total(name) for name in by_name if name.startswith("cli.")}
    out.update(
        {
            "npy.read_mb_per_s": counted("npy.read_npy") / MB / total("npy.read_npy"),
            "npy.write_mb_per_s": counted("npy.write_npy") / MB / total("npy.write_npy"),
            "npy.bytes_read": counted("npy.read_npy"),
            "store.load_array_s": total("store.load_array_file"),
            "store.load_array_peak_alloc_mb": peak_mb("store.load_array_file"),
            "store.load_array_peak_alloc_ratio": largest_load["peak_alloc"] / largest_load["count"],
            "covariance.accumulate_rows_per_s": counted("covariance.accumulate") / total("covariance.accumulate"),
            "covariance.accumulate_peak_alloc_mb": peak_mb("covariance.accumulate"),
            "covariance.per_class_s": total("covariance.per_class_covariances"),
            "covariance.per_class_calls": len(calls("covariance.per_class_covariances")),
            "spectral.decompose_s": median("spectral.decompose"),
            "spectral.decompose_calls": len(calls("spectral.decompose")),
            "spectral.noise_threshold_s": total("spectral.noise_threshold"),
            "subspaces.apply_removal_rows_per_s": counted("subspaces.apply_removal")
            / total("subspaces.apply_removal"),
            "subspaces.mscsa_s": median("subspaces.mscsa"),
            "subspaces.per_class_overlap_s": total("subspaces.per_class_overlap"),
            "subspaces.class_spectrum_distance_s": total("subspaces.class_spectrum_distance"),
            "subspaces.class_spectrum_distance_peak_alloc_mb": peak_mb("subspaces.class_spectrum_distance"),
            "evaluation.zero_shot_topk_s": median("evaluation.zero_shot_topk"),
            "evaluation.ablation_trial_s": total("evaluation.random_ablation") / counted("evaluation.random_ablation"),
            "evaluation.ablation_peak_alloc_mb": peak_mb("evaluation.random_ablation"),
            "evaluation.alignment_delta_s": total("evaluation.alignment_delta"),
            "evaluation.rank_activations_s": total("evaluation.rank_activations"),
            "evaluation.synth_benchmark_s": total("evaluation.synth_benchmark"),
        }
    )
    own = _self_times(spans)
    for layer in ("cli",) + tuple(TARGETS):
        out[f"{layer}.self_s"] = 0.0
    for s in spans:
        out[f"{s['name'].split('.')[0]}.self_s"] += own[s["id"]]
    return out
