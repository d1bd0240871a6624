"""Command-line pipeline front end.

Subcommands chain the analysis end to end::

    spectrune synth      --out run/ --seed 0          # synthetic dataset
    spectrune accumulate --manifest run/manifest.json --out run/
    spectrune spectrum   --out run/
    spectrune threshold  --out run/
    spectrune mscsa run/planted_basis.npy run/noise_basis.npy
    spectrune project    --out run/ run/img.npy run/img_clean.npy
    spectrune eval       --out run/ --seed 0 --trials 500 --top-k 5
    spectrune class-overlap --out run/
    spectrune activations   --out run/ --top 25
    spectrune plot-script   --out run/ --figure spectrum

All reports are machine-readable (JSON with sorted keys, plus CSV for
plot-ready curves); rerunning a command overwrites its outputs with
identical bytes, and a failed command leaves no partial output behind.
``accumulate``, ``project`` and ``activations`` read embedding dumps in
blocks of rows, so their memory does not grow with the dump's size.
Every subcommand draws randomness only from ``--seed``.
Exit codes: 0 success, 1 numerical/precondition error, 2 I/O or format
error. Set ``SPECTRUNE_LOG=DEBUG|INFO|WARNING`` for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import logging
import os
import sys
from pathlib import Path

import numpy as np

from spectrune import __version__
from spectrune.covariance import (
    CovarianceAccumulator,
    CovarianceMatrix,
    accumulate,
    average,
    finalize,
    load_covariance,
    merge,
    normalize_rows,
    normalize_trace,
    per_class_covariances,
    save_covariance,
)
from spectrune.errors import (
    IoError,
    NoKneeError,
    PreconditionError,
    SpectruneError,
)
from spectrune.evaluation import (
    EvalReport,
    ZeroShotTask,
    alignment_delta,
    projected_undefined,
    random_ablation,
    rank_activations,
    synth_benchmark,
    zero_shot_topk,
)
from spectrune.npy import replace_on_success, write_json, write_npy_rows, write_text
from spectrune.spectral import (
    NoiseThreshold,
    Spectrum,
    decompose,
    detect_knee,
    fixed_threshold,
    log_spectrum,
    noise_threshold,
)
from spectrune.store import (
    DatasetManifest,
    EmbeddingDump,
    ManifestEntry,
    check_widths,
    load_array_file,
    load_label_file,
    load_manifest,
    open_entry,
    ordered_map,
    save_array_file,
    save_label_file,
    save_manifest,
)
from spectrune.subspaces import (
    apply_removal,
    class_spectrum_distance,
    load_subspace,
    mscsa,
    noise_subspace,
    per_class_overlap,
    save_subspace,
)

logger = logging.getLogger("spectrune")

SCHEMA_VERSION = 1

# default file names inside the output directory
SIGMA_FILES = {
    "image": "sigma_image.npy",
    "text": "sigma_text.npy",
    "average": "sigma_average.npy",
    "kernel-image": "sigma_kernel_image.npy",
    "kernel-text": "sigma_kernel_text.npy",
    "kernel-average": "sigma_kernel_average.npy",
}


def _write_csv(path: Path, header: list[str], rows) -> None:
    try:
        with replace_on_success(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows(rows)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _float_cell(x: float) -> str:
    return repr(float(x))


# --- synth ---


def cmd_synth(args) -> int:
    out = _out_dir(args)
    gap = None
    if args.gap_scale > 0.0:
        # fixed direction: constant offset along the normalized all-ones vector
        gap = np.full(args.d, args.gap_scale / np.sqrt(args.d))
    bench = synth_benchmark(
        n=args.n,
        d=args.d,
        p=args.p,
        signal_var=args.signal_var,
        noise_var=args.noise_var,
        n_classes=args.classes,
        queries_per_class=args.queries_per_class,
        k=args.top_k,
        gap=gap,
        seed=args.seed,
    )
    save_array_file(bench.img, out / "img.npy")
    save_array_file(bench.txt, out / "txt.npy")
    save_array_file(bench.task.class_prototypes, out / "prototypes.npy")
    save_label_file(bench.task.class_prototypes.labels, out / "prototypes_labels.npy")
    save_array_file(bench.task.queries, out / "queries.npy")
    save_label_file(bench.task.queries.labels, out / "queries_labels.npy")
    save_array_file(bench.pairs_img, out / "pairs_img.npy")
    save_array_file(bench.pairs_txt, out / "pairs_txt.npy")
    save_subspace(bench.planted, out / "planted_basis.npy")
    save_manifest(
        DatasetManifest(
            name=f"synthetic-{args.seed}",
            entries=(
                ManifestEntry(out / "img.npy", "image", None),
                ManifestEntry(out / "txt.npy", "text", None),
            ),
        ),
        out / "manifest.json",
    )
    write_json(
        out / "synth.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "synth",
            "config": {
                "n": args.n,
                "d": args.d,
                "p": args.p,
                "signal_var": args.signal_var,
                "noise_var": args.noise_var,
                "classes": args.classes,
                "queries_per_class": args.queries_per_class,
                "top_k": args.top_k,
                "gap_scale": args.gap_scale,
                "seed": args.seed,
            },
            "planted_noise_dims": args.p,
        },
    )
    logger.info("synthetic dataset written to %s", out)
    return 0


# --- accumulate ---


def _accumulate_entry(
    entry: ManifestEntry, kernel: bool
) -> tuple[CovarianceAccumulator, CovarianceAccumulator]:
    """One pass over an entry's dump, block by block: each block folds into
    the raw accumulator and, with ``kernel``, into the row-normalized one."""
    raw = ker = CovarianceAccumulator.empty()
    with open_entry(entry) as dump:
        for block in dump.blocks():
            raw = accumulate(raw, block)
            if kernel:
                ker = accumulate(ker, normalize_rows(block))
    return raw, ker


def cmd_accumulate(args) -> int:
    manifest = load_manifest(args.manifest)
    check_widths(manifest)
    out = _out_dir(args)
    written: dict[str, dict] = {}

    parts = ordered_map(
        functools.partial(_accumulate_entry, kernel=args.kernel),
        manifest.entries,
        args.threads,
    )

    def store(cov: CovarianceMatrix, name: str) -> CovarianceMatrix:
        if args.trace_normalize:
            cov = normalize_trace(cov)
        save_covariance(cov, out / SIGMA_FILES[name])
        written[name] = {"file": SIGMA_FILES[name], "n_samples": cov.n_samples}
        return cov

    kernel_modes = [False, True] if args.kernel else [False]
    for kernel in kernel_modes:
        finals: dict[str, CovarianceMatrix] = {}
        for modality in ("image", "text"):
            accs = [
                kern if kernel else raw
                for entry, (raw, kern) in zip(manifest.entries, parts)
                if entry.modality == modality
            ]
            if not accs:
                logger.warning("manifest has no %s entries", modality)
                continue
            # fixed manifest order: thread-count independent
            acc = functools.reduce(merge, accs)
            tag = f"kernel-{modality}" if kernel else modality
            finals[modality] = store(finalize(acc, modality=tag), tag)
        if len(finals) == 2:
            if args.trace_normalize:
                avg = average(finals["image"], finals["text"])
                name = "kernel-average" if kernel else "average"
                save_covariance(avg, out / SIGMA_FILES[name])
                written[name] = {
                    "file": SIGMA_FILES[name],
                    "n_samples": avg.n_samples,
                }
            else:
                logger.warning(
                    "skipping the cross-modal average: it requires "
                    "trace-normalized inputs (rerun without --no-trace-normalize)"
                )

    write_json(
        out / "accumulate.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "accumulate",
            "config": {
                "manifest": str(args.manifest),
                "out": str(args.out),
                "trace_normalize": args.trace_normalize,
                "kernel": args.kernel,
            },
            "written": written,
        },
    )
    return 0


# --- spectrum / threshold ---


def _spectrum_inputs(args, out: Path) -> list[Path]:
    if args.sigmas:
        return [Path(p) for p in args.sigmas]
    found = [out / name for name in SIGMA_FILES.values() if (out / name).is_file()]
    if not found:
        raise IoError(f"no covariance files found under {out}")
    return found


def cmd_spectrum(args) -> int:
    out = _out_dir(args)
    knees: dict[str, dict] = {}
    for path in _spectrum_inputs(args, out):
        spectrum = decompose(load_covariance(path))
        curve = log_spectrum(spectrum)
        eigs_desc = spectrum.eigenvalues[::-1]
        _write_csv(
            out / f"spectrum_{path.stem}.csv",
            ["index", "eigenvalue", "log10_eigenvalue"],
            (
                (i, _float_cell(eigs_desc[i]), _float_cell(curve[i]))
                for i in range(curve.size)
            ),
        )
        try:
            knee = detect_knee(curve)
            knees[path.stem] = {
                "knee_index": knee,
                "log10_value": float(curve[knee]),
                "d": spectrum.d,
                "source": spectrum.source,
            }
        except NoKneeError as exc:
            knees[path.stem] = {
                "knee_index": None,
                "log10_value": None,
                "d": spectrum.d,
                "source": spectrum.source,
                "error": str(exc),
            }
    write_json(
        out / "knees.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "spectrum",
            "config": {"out": str(args.out), "sigmas": [str(p) for p in args.sigmas]},
            "knees": knees,
        },
    )
    return 0


def cmd_threshold(args) -> int:
    out = _out_dir(args)
    if args.sigmas:
        paths = [Path(p) for p in args.sigmas]
    else:
        name = "kernel-average" if args.kernel else "average"
        paths = [out / SIGMA_FILES[name]]
    spectra: list[Spectrum] = [decompose(load_covariance(p)) for p in paths]

    if args.threshold_mode == "fixed":
        if args.fixed_log10 is None:
            raise PreconditionError("--threshold-mode fixed requires --fixed-log10")
        threshold: NoiseThreshold = fixed_threshold(args.fixed_log10, spectra[0])
    else:
        threshold = noise_threshold(spectra)

    basis = noise_subspace(spectra[0], threshold)
    save_subspace(basis, out / "noise_basis.npy")
    write_json(
        out / "threshold.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "threshold",
            "config": {
                "out": str(args.out),
                "sigmas": [str(p) for p in paths],
                "threshold_mode": args.threshold_mode,
                "fixed_log10": args.fixed_log10,
                "kernel": args.kernel,
            },
            "log10_value": threshold.log10_value,
            "noise_count": threshold.noise_count,
            "method": threshold.method,
            "per_spectrum_knees": list(threshold.knees),
        },
    )
    logger.info(
        "threshold 10^%.4f flags %d of %d dimensions as noise",
        threshold.log10_value,
        threshold.noise_count,
        spectra[0].d,
    )
    return 0


# --- mscsa / project ---


def cmd_mscsa(args) -> int:
    report = mscsa(load_subspace(args.subspace_a), load_subspace(args.subspace_b))
    doc = {
        "schema_version": SCHEMA_VERSION,
        "command": "mscsa",
        "config": {
            "subspace_a": str(args.subspace_a),
            "subspace_b": str(args.subspace_b),
        },
        **report.to_dict(),
    }
    text = json.dumps(doc, indent=2, sort_keys=True, allow_nan=False)
    print(text)
    if args.out is not None:
        out = _out_dir(args)
        write_json(out / "mscsa.json", doc)
    return 0


def cmd_project(args) -> int:
    basis_path = Path(args.basis) if args.basis else Path(args.out) / "noise_basis.npy"
    subspace = load_subspace(basis_path)
    with EmbeddingDump(args.input) as dump:
        write_npy_rows(
            args.output,
            (dump.n, dump.d),
            np.float64,
            (apply_removal(subspace, block).data for block in dump.blocks()),
        )
    logger.info(
        "projected %s away from %d dimensions -> %s",
        args.input,
        subspace.p,
        args.output,
    )
    return 0


# --- eval ---


def _default(path_arg: str | None, out: Path, name: str) -> Path:
    return Path(path_arg) if path_arg else out / name


def _labels_sidecar(path: Path) -> Path:
    return path.with_name(path.stem + "_labels.npy")


def _load_task(args, out: Path) -> ZeroShotTask:
    protos_path = _default(args.prototypes, out, "prototypes.npy")
    queries_path = _default(args.queries, out, "queries.npy")
    protos = load_array_file(
        protos_path,
        modality="text",
        labels=load_label_file(_labels_sidecar(protos_path)),
    )
    queries = load_array_file(
        queries_path,
        modality="image",
        labels=load_label_file(_labels_sidecar(queries_path)),
    )
    return ZeroShotTask(class_prototypes=protos, queries=queries, k=args.top_k)


def cmd_eval(args) -> int:
    out = _out_dir(args)
    task = _load_task(args, out)
    basis = load_subspace(_default(args.basis, out, "noise_basis.npy"))
    spectrum = decompose(load_covariance(_default(args.sigma, out, "sigma_average.npy")))

    baseline = zero_shot_topk(task)
    noise_free = zero_shot_topk(task, basis, project_prototypes=not args.query_only)
    ablation = random_ablation(
        task, spectrum, p=basis.p, trials=args.trials, seed=args.seed,
        threads=args.threads, project_prototypes=not args.query_only,
    )

    mean_delta: float | None = None
    n_undefined: int | None = None
    pairs_img_path = _default(args.pairs_img, out, "pairs_img.npy")
    pairs_txt_path = _default(args.pairs_txt, out, "pairs_txt.npy")
    if pairs_img_path.is_file() and pairs_txt_path.is_file():
        delta = alignment_delta(
            load_array_file(pairs_img_path, modality="image"),
            load_array_file(pairs_txt_path, modality="text"),
            basis,
        )
        mean_delta = delta.mean_delta
        n_undefined = delta.n_undefined
        _write_csv(
            out / "alignment_deltas.csv",
            ["pair", "delta"],
            (
                (i, "" if np.isnan(v) else _float_cell(v))
                for i, v in enumerate(delta.per_pair)
            ),
        )
    else:
        logger.warning("no alignment pairs found, skipping cosine deltas")

    report = EvalReport(
        top_k_accuracy=noise_free,
        mean_cos_delta=mean_delta,
        ablation_samples=ablation,
        seed=args.seed,
    )
    _write_csv(
        out / "ablation.csv",
        ["trial", "accuracy"],
        ((t, _float_cell(a)) for t, a in enumerate(ablation)),
    )
    std_trials = float(ablation.std(ddof=1)) if ablation.size > 1 else 0.0
    write_json(
        out / "eval_report.json",
        {
            "schema_version": SCHEMA_VERSION,
            "command": "eval",
            "config": {
                "out": str(args.out),
                "seed": args.seed,
                "trials": args.trials,
                "top_k": args.top_k,
                "query_only": args.query_only,
                "removed_dimensions": basis.p,
            },
            "baseline_top_k": baseline,
            "alignment_pairs_undefined": n_undefined,
            "projected_undefined": projected_undefined(task, basis, not args.query_only),
            "report": report.to_dict(),
            "ablation_summary": {
                "mean": float(ablation.mean()),
                "std_over_trials": std_trials,
                "std_of_mean": std_trials / float(np.sqrt(ablation.size)),
            },
        },
    )
    logger.info(
        "top-%d accuracy: baseline %.4f, noise-free %.4f, random %.4f",
        args.top_k,
        baseline,
        noise_free,
        float(ablation.mean()),
    )
    return 0


# --- class-overlap / activations ---


def cmd_class_overlap(args) -> int:
    out = _out_dir(args)
    m = load_array_file(
        _default(args.embeddings, out, "queries.npy"),
        modality="image",
        labels=load_label_file(_default(args.labels, out, "queries_labels.npy")),
    )
    basis = load_subspace(_default(args.basis, out, "noise_basis.npy"))
    covs = per_class_covariances(m)
    # every class gets a row and a column; one under 2 rows has no covariance,
    # so its mscsa and distance cells are empty
    ids, counts = (a.tolist() for a in np.unique(m.labels, return_counts=True))
    del m  # the classes are grouped: the queries are no longer needed
    labels = sorted(covs)
    # each covariance is released as soon as it is decomposed, so all the
    # covariances and all the spectra are never held at the same time
    decomposed = ordered_map(lambda label: decompose(covs.pop(label)), labels, args.threads)
    spectra = dict(zip(labels, decomposed))
    overlaps = per_class_overlap(spectra, basis)
    _write_csv(
        out / "class_overlap.csv",
        ["label", "n_samples", "mscsa"],
        ((label, n, _float_cell(overlaps[label]) if label in overlaps else "")
         for label, n in zip(ids, counts)),
    )
    distances = class_spectrum_distance(spectra)
    at = {label: i for i, label in enumerate(distances.labels)}

    def distance_cell(a: int, b: int) -> str:
        return _float_cell(distances.distances[at[a], at[b]]) if a in at and b in at else ""

    _write_csv(
        out / "class_spectrum_distance.csv",
        ["label"] + [str(l) for l in ids],
        ([a] + [distance_cell(a, b) for b in ids] for a in ids),
    )
    return 0


def cmd_activations(args) -> int:
    out = _out_dir(args)
    data_path = _default(args.embeddings, out, "img.npy")
    basis = load_subspace(_default(args.basis, out, "noise_basis.npy"))
    with EmbeddingDump(data_path, modality="image") as dump:
        ranked = rank_activations(dump, basis, top=args.top)
    _write_csv(
        out / "activations.csv",
        ["rank", "row_index", "score", "source"],
        (
            (rank, act.row_index, _float_cell(act.norm), dump.source)
            for rank, act in enumerate(ranked)
        ),
    )
    return 0


# --- plot scripts ---

_GNUPLOT_TEMPLATES = {
    "spectrum": """\
# eigenvalue curves: run `gnuplot plot_spectrum.gp` next to the spectrum CSVs
set datafile separator ','
set key autotitle columnhead
set xlabel 'eigenvalue rank (descending)'
set ylabel 'log10 eigenvalue'
set term pngcairo size 900,600
set output 'spectrum.png'
plot for [f in system('ls spectrum_*.csv')] f using 1:3 with lines title f
""",
    "ablation": """\
# accuracy histogram over random-direction removals
set datafile separator ','
set key autotitle columnhead
binwidth = 0.002
bin(x) = binwidth * floor(x / binwidth) + binwidth / 2.0
set xlabel 'top-k accuracy'
set ylabel 'trials'
set boxwidth binwidth
set style fill solid 0.6
set term pngcairo size 900,600
set output 'ablation_hist.png'
plot 'ablation.csv' using (bin($2)):(1.0) smooth freq with boxes notitle
""",
    "alignment": """\
# histogram of per-pair cosine similarity deltas after noise removal
set datafile separator ','
set key autotitle columnhead
binwidth = 0.005
bin(x) = binwidth * floor(x / binwidth) + binwidth / 2.0
set xlabel 'cosine similarity delta'
set ylabel 'pairs'
set boxwidth binwidth
set style fill solid 0.6
set arrow from 0, graph 0 to 0, graph 1 nohead dashtype 2
set term pngcairo size 900,600
set output 'alignment_hist.png'
plot 'alignment_deltas.csv' using (bin($2)):(1.0) smooth freq with boxes notitle
""",
    "class-overlap": """\
# per-class overlap with the global noise span
set datafile separator ','
set key autotitle columnhead
set xlabel 'class id'
set ylabel 'overlap (mean squared principal cosine)'
set yrange [0:1.05]
set term pngcairo size 900,600
set output 'class_overlap.png'
plot 'class_overlap.csv' using 1:3 with points pt 7 notitle
""",
}


def cmd_plot_script(args) -> int:
    out = _out_dir(args)
    name = f"plot_{args.figure.replace('-', '_')}.gp"
    try:
        write_text(out / name, _GNUPLOT_TEMPLATES[args.figure])
    except OSError as exc:
        raise IoError(f"cannot write {out / name}: {exc}") from exc
    print(out / name)
    return 0


# --- parser ---


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectrune",
        description="Covariance eigenspectrum analysis and noise-subspace pruning.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="generate a synthetic planted dataset")
    synth.add_argument("--out", required=True, help="output directory")
    synth.add_argument("--n", type=int, default=10_000, help="corpus rows per modality")
    synth.add_argument("--d", type=int, default=128, help="embedding width")
    synth.add_argument("--p", type=int, default=20, help="planted noise dimensions")
    synth.add_argument("--signal-var", type=float, default=1.0)
    synth.add_argument("--noise-var", type=float, default=1e-5)
    synth.add_argument("--classes", type=int, default=50)
    synth.add_argument("--queries-per-class", type=int, default=20)
    synth.add_argument("--gap-scale", type=float, default=0.0,
                       help="norm of the constant image/text offset (0 = none)")
    synth.add_argument("--top-k", type=int, default=5)
    synth.add_argument("--seed", type=int, default=0)
    synth.set_defaults(func=cmd_synth)

    acc = sub.add_parser("accumulate", help="stream covariances from a manifest")
    acc.add_argument("--manifest", required=True)
    acc.add_argument("--out", required=True)
    acc.add_argument("--kernel", action="store_true",
                     help="also write cosine-kernel covariances")
    acc.add_argument("--no-trace-normalize", dest="trace_normalize",
                     action="store_false", help="keep raw traces")
    acc.add_argument("--threads", type=int, default=1)
    acc.set_defaults(func=cmd_accumulate)

    spec = sub.add_parser("spectrum", help="decompose covariances into CSV curves")
    spec.add_argument("--out", required=True)
    spec.add_argument("sigmas", nargs="*", help="covariance NPY files "
                      "(default: every sigma_*.npy in --out)")
    spec.set_defaults(func=cmd_spectrum)

    thr = sub.add_parser("threshold", help="detect the noise threshold and basis")
    thr.add_argument("--out", required=True)
    thr.add_argument("sigmas", nargs="*", help="covariance NPY files; the first "
                     "is the target (default: the average in --out)")
    thr.add_argument("--threshold-mode", choices=("knee", "fixed"), default="knee")
    thr.add_argument("--fixed-log10", type=float, default=None)
    thr.add_argument("--kernel", action="store_true",
                     help="default to the kernel average covariance")
    thr.set_defaults(func=cmd_threshold)

    msc = sub.add_parser("mscsa", help="overlap between two stored subspaces")
    msc.add_argument("subspace_a")
    msc.add_argument("subspace_b")
    msc.add_argument("--out", default=None, help="also write mscsa.json here")
    msc.set_defaults(func=cmd_mscsa)

    proj = sub.add_parser("project", help="project a matrix away from a basis")
    proj.add_argument("input", help="embedding NPY to project")
    proj.add_argument("output", help="destination NPY")
    proj.add_argument("--out", default=".", help="directory holding noise_basis.npy")
    proj.add_argument("--basis", default=None, help="explicit basis NPY")
    proj.set_defaults(func=cmd_project)

    ev = sub.add_parser("eval", help="zero-shot + ablation + alignment report")
    ev.add_argument("--out", required=True)
    ev.add_argument("--seed", type=int, default=0)
    ev.add_argument("--trials", type=int, default=500)
    ev.add_argument("--top-k", type=int, default=5)
    ev.add_argument("--threads", type=int, default=1)
    ev.add_argument("--query-only", action="store_true",
                    help="project queries but not prototypes")
    ev.add_argument("--prototypes", default=None)
    ev.add_argument("--queries", default=None)
    ev.add_argument("--basis", default=None)
    ev.add_argument("--sigma", default=None)
    ev.add_argument("--pairs-img", default=None)
    ev.add_argument("--pairs-txt", default=None)
    ev.set_defaults(func=cmd_eval)

    ovl = sub.add_parser("class-overlap", help="per-class noise-span overlap CSV")
    ovl.add_argument("--out", required=True)
    ovl.add_argument("--embeddings", default=None)
    ovl.add_argument("--labels", default=None)
    ovl.add_argument("--basis", default=None)
    ovl.add_argument("--threads", type=int, default=1)
    ovl.set_defaults(func=cmd_class_overlap)

    act = sub.add_parser("activations", help="rank rows by noise-span activation")
    act.add_argument("--out", required=True)
    act.add_argument("--embeddings", default=None)
    act.add_argument("--basis", default=None)
    act.add_argument("--top", type=int, default=25)
    act.set_defaults(func=cmd_activations)

    plot = sub.add_parser("plot-script", help="emit a ready-to-run gnuplot script")
    plot.add_argument("--out", required=True)
    plot.add_argument("--figure", choices=sorted(_GNUPLOT_TEMPLATES), required=True)
    plot.set_defaults(func=cmd_plot_script)

    return parser


def _configure_logging() -> None:
    level = os.environ.get("SPECTRUNE_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
    )


def main(argv=None) -> int:
    _configure_logging()
    args = build_parser().parse_args(argv)
    try:
        return int(args.func(args) or 0)
    except SpectruneError as exc:
        print(f"spectrune {args.command}: error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"spectrune {args.command}: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
