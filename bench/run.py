"""spectrune end-to-end benchmark: CLI sessions on synthetic planted data.

Run from the root of a spectrune source tree::

    python3 bench/run.py --workload planted-128 --seed 1 --seconds 15 --trace 0

Each workload is a session a user would run: ``spectrune synth`` makes the
inputs from ``--seed``, then a chain of ``spectrune`` commands runs on
them, each in its own process, one at a time, with ``--threads`` left at
its default. ``--trace 0`` times the synth set-up several times and the
chain in whole rounds until ``--seconds`` of chain time have passed,
checks every output against an independent recomputation (see
``checks.py``) and checks that each round rewrote the first round's bytes.
``--trace 1`` runs the same chain in this process, untraced and then
traced (see ``tracer.py``), and reports per-layer figures instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; an operation is one
CLI command run. The exit code is 0 when every check passed, 1 when a
check failed and 2 when the tree holds no spectrune sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from tracer import Tracer, per_layer_metrics

SPAWN = Path(__file__).resolve().with_name("spawn.py")
SETUPS = 3  # synth runs per measured run; setup_s is their median
STARTUP_SAMPLES = 5
PROBE_CLASSES = 10
PROBE_TRIALS = 3
ALL_COMMANDS = ("accumulate", "spectrum", "threshold", "project", "eval", "class-overlap", "activations")

END_TO_END = {
    "setup_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "peak_rss_mb": "MB",
    "accumulate_rss_mb": "MB",
    "task_rss_mb": "MB",
}

PER_LAYER = {
    "cli.startup_s": "s",
    **{f"cli.{c}_s": "s" for c in ("synth",) + ALL_COMMANDS},
    "cli.self_s": "s",
    "npy.read_mb_per_s": "MB/s",
    "npy.write_mb_per_s": "MB/s",
    "npy.bytes_read": "bytes",
    "npy.self_s": "s",
    "store.load_array_s": "s",
    "store.load_array_peak_alloc_mb": "MB",
    "store.load_array_peak_alloc_ratio": "x",
    "store.self_s": "s",
    "covariance.accumulate_rows_per_s": "rows/s",
    "covariance.accumulate_peak_alloc_mb": "MB",
    "covariance.per_class_s": "s",
    "covariance.per_class_calls": "count",
    "covariance.self_s": "s",
    "spectral.decompose_s": "s",
    "spectral.decompose_calls": "count",
    "spectral.noise_threshold_s": "s",
    "spectral.self_s": "s",
    "subspaces.apply_removal_rows_per_s": "rows/s",
    "subspaces.mscsa_s": "s",
    "subspaces.per_class_overlap_s": "s",
    "subspaces.class_spectrum_distance_s": "s",
    "subspaces.class_spectrum_distance_peak_alloc_mb": "MB",
    "subspaces.self_s": "s",
    "evaluation.zero_shot_topk_s": "s",
    "evaluation.ablation_trial_s": "s",
    "evaluation.ablation_peak_alloc_mb": "MB",
    "evaluation.alignment_delta_s": "s",
    "evaluation.rank_activations_s": "s",
    "evaluation.synth_benchmark_s": "s",
    "evaluation.self_s": "s",
    "trace.overhead_s": "s",
}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]  # synth flags besides --out and --seed
    commands: tuple[str, ...]  # the chain after synth, in order
    kernel: bool  # accumulate --kernel
    trials: int  # eval --trials
    ablation_hurts: bool  # random removal must lower accuracy (task not saturated)


WORKLOADS = {
    w.name: w
    for w in (
        # synth defaults, every command: start-up and the ablation loop dominate
        Workload("planted-128", (), ALL_COMMANDS, True, 500, True),
        # CLIP-like scale: 307 MB dumps; class-overlap would need 2 x 6.1 GB
        Workload(
            "clip-768",
            ("--n", "50000", "--d", "768", "--p", "100", "--classes", "1000", "--queries-per-class", "10"),
            tuple(c for c in ALL_COMMANDS if c != "class-overlap"),
            True,
            3,
            False,
        ),
        # many full-rank classes: per-class covariances and decompositions dominate
        Workload(
            "classes-128",
            ("--classes", "400", "--queries-per-class", "500"),
            ("accumulate", "spectrum", "threshold", "class-overlap"),
            False,
            0,
            False,
        ),
    )
}


def command_args(w: Workload, command: str, run: Path, seed: int) -> list[str]:
    r = str(run)
    args = {
        "accumulate": ["accumulate", "--manifest", f"{r}/manifest.json", "--out", r]
        + (["--kernel"] if w.kernel else []),
        "spectrum": ["spectrum", "--out", r],
        "threshold": ["threshold", "--out", r],
        "project": ["project", "--out", r, f"{r}/img.npy", f"{r}/img_clean.npy"],
        "eval": ["eval", "--out", r, "--seed", str(seed), "--trials", str(w.trials)],
        "class-overlap": ["class-overlap", "--out", r],
        "activations": ["activations", "--out", r],
    }
    return args[command]


def probe_args(command: str, run: Path, probe: Path, seed: int) -> list[str]:
    """A command the workload's chain leaves out, on a bounded input, so the
    traced run reaches every layer on every workload."""
    r, p = str(run), str(probe)
    if command in ("eval", "class-overlap"):
        labels = np.load(run / "queries_labels.npy")
        keep = labels < PROBE_CLASSES
        np.save(probe / "queries.npy", np.load(run / "queries.npy")[keep])
        np.save(probe / "queries_labels.npy", labels[keep])
    args = {
        "project": ["project", "--out", r, f"{r}/img.npy", f"{p}/img_clean.npy"],
        "eval": [
            "eval", "--out", p, "--seed", str(seed), "--trials", str(PROBE_TRIALS),
            "--prototypes", f"{r}/prototypes.npy", "--queries", f"{p}/queries.npy",
            "--basis", f"{r}/noise_basis.npy", "--sigma", f"{r}/sigma_average.npy",
            "--pairs-img", f"{r}/pairs_img.npy", "--pairs-txt", f"{r}/pairs_txt.npy",
        ],
        "class-overlap": [
            "class-overlap", "--out", p, "--embeddings", f"{p}/queries.npy",
            "--labels", f"{p}/queries_labels.npy", "--basis", f"{r}/noise_basis.npy",
        ],
        "activations": ["activations", "--out", p, "--embeddings", f"{r}/img.npy", "--basis", f"{r}/noise_basis.npy"],
    }
    return args[command]


def synth_args(w: Workload, run: Path, seed: int) -> list[str]:
    return ["synth", "--out", str(run), "--seed", str(seed), *w.synth]


def tree_digest(run: Path) -> dict[str, str]:
    digests = {}
    for path in sorted(run.iterdir()):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            while block := fh.read(1 << 24):
                h.update(block)
        digests[path.name] = h.hexdigest()
    return digests


def check(w: Workload, run: Path, seed: int) -> str | None:
    """Run every output check; a corrupted file may fail in any way."""
    try:
        checks.check_run(run, set(w.commands), w.kernel, seed, w.trials, w.ablation_hurts)
    except Exception as exc:
        traceback.print_exc()
        return f"{type(exc).__name__}: {exc}"
    return None


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


@dataclass
class Usage:
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Runs CLI commands one at a time, each under ``spawn.py``, which
    reports the command's own wall time, CPU time and peak RSS."""

    def __init__(self, src: Path, log: Path) -> None:
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
        self.log = log
        self.attempted = 0
        self.failed = 0

    def run(self, argv: list[str]) -> Usage:
        self.attempted += 1
        launcher = [sys.executable, "-S", str(SPAWN), sys.executable, *argv]
        with open(self.log, "a", encoding="utf-8") as log:
            log.write(f"$ {' '.join(argv)}\n")
            log.flush()
            # a session of its own, so an interrupt can stop launcher and command together
            proc = subprocess.Popen(
                launcher, env=self.env, stdout=subprocess.PIPE, stderr=log, start_new_session=True
            )
            try:
                out, _ = proc.communicate()
            except BaseException:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
                raise
        report = json.loads(out) if proc.returncode == 0 else {"code": -1, "wall_s": 0.0, "cpu_s": 0.0, "rss_kb": 0}
        if report["code"] != 0:
            self.failed += 1
            print(f"exit {report['code']}: {' '.join(argv)} (see {self.log})", file=sys.stderr)
        return Usage(report["wall_s"], report["cpu_s"], report["rss_kb"] / 1024.0)

    def cli(self, args: list[str]) -> Usage:
        return self.run(["-m", "spectrune.cli", *args])


def measured_run(w: Workload, root: Path, src: Path, seed: int, seconds: int) -> tuple[dict, Runner, str | None]:
    work = fresh_dir(root / ".bench_work" / w.name)
    run = work / "run"
    runner = Runner(src, work / "commands.log")
    error = None

    setups, digest = [], None
    for _ in range(SETUPS):
        fresh_dir(run)
        setups.append(runner.cli(synth_args(w, run, seed)).wall_s)
        now = tree_digest(run)
        if digest is not None and now != digest:
            error = "synth wrote different bytes on a repeat"
        digest = now

    rounds, first, elapsed = [], None, 0.0
    while not rounds or elapsed < seconds:
        usage = {c: runner.cli(command_args(w, c, run, seed)) for c in w.commands}
        rounds.append(usage)
        elapsed += sum(u.wall_s for u in usage.values())
        now = tree_digest(run)
        if first is None:
            first = now
            error = error or check(w, run, seed)
        elif now != first:
            error = f"round {len(rounds)} wrote different bytes than round 1"
    shutil.rmtree(run, ignore_errors=True)

    def med(f):
        return statistics.median(f(r) for r in rounds)

    # peak RSS is the maximum over all rounds, as a peak should be
    def peak(commands):
        return max(r[c].rss_mb for r in rounds for c in commands)

    task = [c for c in ("eval", "class-overlap") if c in w.commands]
    metrics = {
        "setup_s": statistics.median(setups),
        "pipeline_s": med(lambda r: sum(u.wall_s for u in r.values())),
        "pipeline_cpu_s": med(lambda r: sum(u.cpu_s for u in r.values())),
        "peak_rss_mb": peak(w.commands),
        "accumulate_rss_mb": peak(["accumulate"]),
        "task_rss_mb": peak(task),
    }
    print(f"{w.name}: {len(setups)} synth runs, {len(rounds)} rounds of {len(w.commands)} commands")
    for c in w.commands:
        print(
            f"{w.name} {c}: median wall {med(lambda r: r[c].wall_s):.3f} s,"
            f" cpu {med(lambda r: r[c].cpu_s):.3f} s, peak RSS {peak([c]):.1f} MB"
        )
    return {k: (v, END_TO_END[k]) for k, v in metrics.items()}, runner, error


def traced_run(w: Workload, root: Path, src: Path, seed: int) -> tuple[dict, int, int, str | None]:
    sys.path.insert(0, str(src))
    import spectrune
    import spectrune.cli as cli

    if not Path(spectrune.__file__).resolve().is_relative_to(src.resolve()):
        raise SystemExit(f"imported spectrune from {spectrune.__file__}, not from {src}")
    work = fresh_dir(root / ".bench_work" / w.name)
    run, probe = work / "run", fresh_dir(work / "probe")
    attempted = failed = 0
    error = None

    def call(args: list[str]) -> float:
        nonlocal attempted, failed
        attempted += 1
        start = time.perf_counter()
        code = cli.main(args)
        failed += code != 0
        return time.perf_counter() - start

    fresh_dir(run)
    call(synth_args(w, run, seed))
    untraced = sum(call(command_args(w, c, run, seed)) for c in w.commands)
    plain = tree_digest(run)
    error = check(w, run, seed)

    tracer = Tracer()
    with tracer.installed():
        fresh_dir(run)
        for name, args in [("synth", synth_args(w, run, seed))] + [
            (c, command_args(w, c, run, seed)) for c in w.commands
        ]:
            with tracer.span(f"cli.{name}"):
                call(args)
        traced = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] in {f"cli.{c}" for c in w.commands})
        if tree_digest(run) != plain:
            error = "the traced chain wrote different bytes than the untraced one"
        for c in ALL_COMMANDS:
            if c not in w.commands:
                args = probe_args(c, run, probe, seed)
                with tracer.span(f"cli.{c}"):
                    call(args)
    shutil.rmtree(run, ignore_errors=True)
    shutil.rmtree(probe, ignore_errors=True)
    (work / "spans.json").write_text(json.dumps(tracer.spans, indent=1) + "\n", encoding="utf-8")

    runner = Runner(src, work / "commands.log")
    startup = statistics.median(
        runner.run(["-c", "import spectrune.cli"]).wall_s for _ in range(STARTUP_SAMPLES)
    )
    metrics = per_layer_metrics(tracer.spans)
    metrics["cli.startup_s"] = startup
    metrics["trace.overhead_s"] = traced - untraced
    if set(metrics) != set(PER_LAYER):
        raise SystemExit(f"per-layer metrics differ from the declared ones: {sorted(set(metrics) ^ set(PER_LAYER))}")
    return (
        {k: (metrics[k], PER_LAYER[k]) for k in PER_LAYER},
        attempted + runner.attempted,
        failed + runner.failed,
        error,
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    # a terminated benchmark still stops the command it is waiting on (see Runner.run)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    src = root / "src"
    if not (src / "spectrune" / "cli.py").is_file():
        print(f"no spectrune sources under {src}; run from the root of a source tree", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        w = WORKLOADS[name]
        if args.trace:
            metrics, attempted, failed, error = traced_run(w, root, src, args.seed)
        else:
            metrics, runner, error = measured_run(w, root, src, args.seed, args.seconds)
            attempted, failed = runner.attempted, runner.failed
        for key, (value, unit) in metrics.items():
            print(f"{name} {key} = {value:.6g} {unit}")
        print(f"{name}: {attempted} operations attempted, {failed} failed")
        if error:
            print(f"{name}: CHECK FAILED: {error}", file=sys.stderr)
            status = 1
        print(
            json.dumps(
                {
                    "correct": error is None,
                    "attempted": attempted,
                    "failed": failed,
                    "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                }
            ),
            flush=True,
        )
    return status


if __name__ == "__main__":
    sys.exit(main())
