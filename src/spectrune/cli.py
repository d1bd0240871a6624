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

All reports are machine-readable (JSON with sorted keys, plus CSV for
plot-ready curves); rerunning a command overwrites its outputs with
identical bytes, and a failed command leaves no partial output behind.
Each output rule lives in one place: ``_report`` builds every JSON
report's envelope, whose config is every option the command ran with,
each input path as read (``_inputs`` resolves one left unset against
``--out``); ``_cells`` writes every CSV float (NaN, an undefined value, as
the empty cell), and ``npy.replace_on_success`` turns every failed write
into an ``IoError`` naming the destination (exit code 2).
``accumulate``, ``project``, ``activations`` and ``eval`` (its queries)
read embedding dumps in blocks of rows, and ``class-overlap`` reads one
class's rows at a time, so their memory does not grow with the dump's
size; ``eval`` loads only its prototypes and pairs whole.
Every subcommand draws randomness only from ``--seed``.
Exit codes: 0 success, 1 numerical/precondition error, 2 I/O or format
error. Set ``SPECTRUNE_LOG=DEBUG|INFO|WARNING`` for verbosity.
"""

from __future__ import annotations

import argparse
import csv
import logging
import math
import os
import sys
from pathlib import Path

import numpy as np

from spectrune import __version__
from spectrune.covariance import (
    COV_MODALITIES,
    CovarianceAccumulator,
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
    EmptySubspaceError,
    IoError,
    NoKneeError,
    PreconditionError,
    SpectruneError,
)
from spectrune.evaluation import (
    ZeroShotTask,
    alignment_delta,
    random_ablation,
    rank_activations,
    synth_benchmark,
    zero_shot_topk,
)
from spectrune.npy import json_text, replace_on_success, write_json, write_npy_rows, write_text
from spectrune.spectral import (
    Spectrum,
    decompose,
    detect_knee,
    log_spectrum,
    noise_threshold,
)
from spectrune.store import (
    DatasetManifest,
    EmbeddingDump,
    ManifestEntry,
    iter_blocks,
    load_array_file,
    load_label_file,
    load_manifest,
    save_array_file,
    save_label_file,
    save_manifest,
)
from spectrune.subspaces import (
    Subspace,
    apply_removal,
    class_overlap,
    class_spectrum_distance,
    load_subspace,
    mscsa,
    noise_subspace,
    save_subspace,
)

logger = logging.getLogger("spectrune")

SCHEMA_VERSION = 1


def _sigma_file(tag: str) -> str:
    """Default file name of the covariance with a ``COV_MODALITIES`` tag."""
    return f"sigma_{tag.replace('-', '_')}.npy"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with replace_on_success(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _cells(values) -> list[str]:
    """CSV cells of floats, a row or column in one call: empty for an
    undefined (NaN) value, else the float's repr."""
    return ["" if math.isnan(x) else repr(x) for x in np.asarray(values, dtype=np.float64).tolist()]


def _cell(x: float) -> str:
    """One CSV cell, by the rule of ``_cells``."""
    return _cells((x,))[0]


def _report(args, **fields) -> dict:
    """A JSON report: the schema version, the command and its config (every
    parsed option), then the command's own fields."""
    config = {key: value for key, value in vars(args).items() if key not in ("command", "func")}
    return {"schema_version": SCHEMA_VERSION, "command": args.command, "config": config, **fields}


def _inputs(args, basis: str = "noise_basis.npy", **names: str) -> None:
    """Resolve each input-path option left unset, ``basis`` and those in
    ``names``, to its default file in ``--out``, in place, so that the
    report's config names the file the command reads."""
    for key, name in {"basis": basis, **names}.items():
        if not getattr(args, key):
            setattr(args, key, str(Path(args.out) / name))


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


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
                ManifestEntry(out / "img.npy", "image"),
                ManifestEntry(out / "txt.npy", "text"),
            ),
        ),
        out / "manifest.json",
    )
    write_json(out / "synth.json", _report(args, planted_noise_dims=args.p))
    logger.info("synthetic dataset written to %s", out)
    return 0


# --- accumulate ---


def _accumulate_entry(entry: ManifestEntry, kernel: bool) -> dict[str, CovarianceAccumulator]:
    """One pass over an entry's dump, block by block, into one accumulator per
    covariance tag: the entry's modality and, with ``kernel``,
    ``kernel-<modality>`` over the row-normalized blocks. Each block is
    released once its unit rows exist, and those before the next block is
    read, so at most two block-size arrays are live at once."""
    raw, ker = entry.modality, f"kernel-{entry.modality}"
    accs = dict.fromkeys([raw, ker] if kernel else [raw], CovarianceAccumulator.empty())
    with EmbeddingDump(entry.path) as dump:
        for block in iter_blocks(dump):
            accs[raw] = accumulate(accs[raw], block)
            if kernel:
                block = normalize_rows(block)  # the raw rows are done
                accs[ker] = accumulate(accs[ker], block)
            del block  # before the next block is read
    return accs


def cmd_accumulate(args) -> int:
    manifest = load_manifest(args.manifest)
    out = _out_dir(args)

    # a left fold in manifest order, each entry merged as soon as it is read
    accs: dict[str, CovarianceAccumulator] = {}
    for entry in manifest.entries:
        for tag, acc in _accumulate_entry(entry, args.kernel).items():
            accs[tag] = merge(accs[tag], acc) if tag in accs else acc
    del acc  # the last entry's accumulator would outlive its pop below
    for modality in ("image", "text"):
        if modality not in accs:
            logger.warning("manifest has no %s entries", modality)

    # every covariance is finished, trace-normalized, before the first file
    # is written, one tag at a time, each accumulator released as its
    # covariance is made; each pair of modalities also gets its average
    covs = {}
    for tag in list(accs):
        covs[tag] = normalize_trace(finalize(accs.pop(tag), tag))
    for prefix in ("", "kernel-"):
        if f"{prefix}image" in covs and f"{prefix}text" in covs:
            covs[f"{prefix}average"] = average(covs[f"{prefix}image"], covs[f"{prefix}text"])
    for tag, cov in covs.items():
        save_covariance(cov, out / _sigma_file(tag))
    written = {tag: {"file": _sigma_file(tag), "n_samples": cov.n_samples} for tag, cov in covs.items()}
    write_json(out / "accumulate.json", _report(args, written=written))
    return 0


# --- spectrum / threshold ---


def _spectrum_inputs(args, out: Path) -> list[Path]:
    """The covariances ``spectrum`` reads: those listed, or every
    ``sigma_*.npy`` in ``out``. Each output is named by its file's stem, so
    two listed files with one stem are refused before either is read."""
    if args.sigmas:
        paths: dict[str, Path] = {}
        for path in map(Path, args.sigmas):
            if (first := paths.setdefault(path.stem, path)) is not path:
                raise PreconditionError(f"{first} and {path} share the stem {path.stem!r}, "
                                        f"which names spectrum_{path.stem}.csv and its knees.json entry")
        return list(paths.values())
    found = [out / _sigma_file(tag) for tag in COV_MODALITIES if (out / _sigma_file(tag)).is_file()]
    if not found:
        raise IoError(f"no covariance files found under {out}")
    return found


def cmd_spectrum(args) -> int:
    out = _out_dir(args)
    knees: dict[str, dict] = {}
    spans: dict[str, list[tuple[str, Subspace]]] = {}  # modality -> [(stem, noise span)]
    for path in _spectrum_inputs(args, out):
        cov = load_covariance(path)
        spectrum = decompose(cov)
        curve = log_spectrum(spectrum)
        eigs_desc = spectrum.eigenvalues[::-1]
        _write_csv(
            out / f"spectrum_{path.stem}.csv",
            ["index", "eigenvalue", "log10_eigenvalue"],
            zip(range(curve.size), _cells(eigs_desc), _cells(curve)),
        )
        knee = {"knee_index": None, "log10_value": None, "d": spectrum.d, "source": spectrum.source}
        try:
            index = detect_knee(curve)
            knee.update(knee_index=index, log10_value=float(curve[index]))
            span = noise_subspace(spectrum, knee["log10_value"])
            spans.setdefault(cov.modality, []).append((path.stem, span))
        except NoKneeError as exc:
            knee["error"] = str(exc)
        except EmptySubspaceError:
            pass  # nothing lies below the knee: no span to compare
        knees[path.stem] = knee
        del cov, spectrum, curve, eigs_desc  # before the next file is read, not after
    cross_modal = {  # the mSCSA of each image/text pair's own noise spans
        f"{a}|{b}": {"mscsa": mscsa(span_a, span_b).mscsa, "noise_counts": [span_a.p, span_b.p]}
        for img, txt in (("image", "text"), ("kernel-image", "kernel-text"))
        for a, span_a in spans.get(img, []) for b, span_b in spans.get(txt, [])
    }
    write_json(out / "knees.json", _report(args, knees=knees, cross_modal=cross_modal))
    return 0


def cmd_threshold(args) -> int:
    out = _out_dir(args)
    args.sigmas = args.sigmas or [str(out / _sigma_file("average"))]
    method = "knee" if args.fixed_log10 is None else "fixed"
    if method == "fixed":  # a pinned cutoff reads the target alone
        target, cutoff, knees = decompose(load_covariance(args.sigmas[0])), args.fixed_log10, ()
    else:
        spectra = [decompose(load_covariance(p)) for p in args.sigmas]
        target = spectra[0]
        cutoff, knees = noise_threshold(spectra)

    basis = noise_subspace(target, cutoff)
    save_subspace(basis, out / "noise_basis.npy")
    write_json(
        out / "threshold.json",
        _report(
            args,
            log10_value=cutoff,
            noise_count=basis.p,
            method=method,
            per_spectrum_knees=list(knees),
        ),
    )
    logger.info("threshold 10^%.4f flags %d of %d dimensions as noise", cutoff, basis.p, basis.d)
    return 0


# --- mscsa / project ---


def cmd_mscsa(args) -> int:
    report = mscsa(load_subspace(args.subspace_a), load_subspace(args.subspace_b))
    text = json_text(_report(args, **report.to_dict()))
    print(text, end="")
    if args.out is not None:
        write_text(_out_dir(args) / "mscsa.json", text)
    return 0


def cmd_project(args) -> int:
    _inputs(args)
    subspace = load_subspace(args.basis)
    with EmbeddingDump(args.input) as dump:
        write_npy_rows(
            args.output,
            (dump.n, dump.d),
            np.float64,
            # map, unlike a generator expression, keeps no block while the next is read
            map(lambda block: apply_removal(subspace, block).data, iter_blocks(dump)),
        )
    logger.info(
        "projected %s away from %d dimensions -> %s",
        args.input,
        subspace.p,
        args.output,
    )
    return 0


# --- eval ---


def _labels_sidecar(path: Path) -> Path:
    return path.with_name(path.stem + "_labels.npy")


def _ablation_spectrum(sigma_path: str, basis: Subspace) -> Spectrum:
    """The spectrum that ``eval``'s random removals draw from, with a warning
    when the noise basis came from another covariance."""
    spectrum = decompose(load_covariance(sigma_path))
    if not basis.origin.startswith(spectrum.source):
        logger.warning("the random removals come from %s (%s), but the noise basis "
                       "from %r", sigma_path, spectrum.source, basis.origin)
    return spectrum


def cmd_eval(args) -> int:
    # a named pair file needs both; an absent default skips the deltas, recording no pair file
    named = bool(args.pairs_img or args.pairs_txt)
    _inputs(args, prototypes="prototypes.npy", queries="queries.npy", sigma=_sigma_file("average"),
            pairs_img="pairs_img.npy", pairs_txt="pairs_txt.npy")
    missing = [path for path in (args.pairs_img, args.pairs_txt) if not Path(path).is_file()]
    if missing and named:
        raise IoError(f"pair file {missing[0]} does not exist")
    if missing:
        args.pairs_img = args.pairs_txt = None
    out = _out_dir(args)
    protos_path, queries_path = Path(args.prototypes), Path(args.queries)
    protos = load_array_file(protos_path, labels=load_label_file(_labels_sidecar(protos_path)))
    # every score reads the queries one block at a time, and every output is
    # written only after the last score
    with EmbeddingDump(queries_path, labels=load_label_file(_labels_sidecar(queries_path))) as queries:
        task = ZeroShotTask(class_prototypes=protos, queries=queries, k=args.top_k)
        basis = load_subspace(args.basis)
        # first, so that a bad --trials is refused before any query is scored;
        # the spectrum is no local here, so its eigenvectors go once the
        # drawn columns are taken from them
        ablation = random_ablation(
            task, _ablation_spectrum(args.sigma, basis), p=basis.p, trials=args.trials,
            seed=args.seed, project_prototypes=not args.query_only,
        )
        baseline = zero_shot_topk(task)[0]
        noise_free, undefined = zero_shot_topk(task, basis, project_prototypes=not args.query_only)

    mean_delta: float | None = None
    n_undefined: int | None = None
    if args.pairs_img:
        delta = alignment_delta(load_array_file(args.pairs_img), load_array_file(args.pairs_txt), basis)
        # NaN when no pair survived the projection: undefined, like no pairs
        mean_delta = None if math.isnan(delta.mean_delta) else delta.mean_delta
        n_undefined = delta.n_undefined
        _write_csv(
            out / "alignment_deltas.csv",
            ["pair", "delta"],
            enumerate(_cells(delta.per_pair)),
        )
    else:
        logger.warning("no alignment pairs found, skipping cosine deltas")

    _write_csv(
        out / "ablation.csv",
        ["trial", "accuracy"],
        enumerate(_cells(ablation)),
    )
    std_trials = float(ablation.std(ddof=1)) if ablation.size > 1 else 0.0
    write_json(
        out / "eval_report.json",
        _report(
            args,
            removed_dimensions=basis.p,
            basis_origin=basis.origin,
            baseline_top_k=baseline,
            alignment_pairs_undefined=n_undefined,
            projected_undefined=undefined,
            report={
                "top_k_accuracy": noise_free,
                "mean_cos_delta": mean_delta,
                "ablation_samples": ablation.tolist(),
                "seed": args.seed,
            },
            ablation_summary={
                "mean": float(ablation.mean()),
                "std_over_trials": std_trials,
                "std_of_mean": std_trials / float(np.sqrt(ablation.size)),
            },
        ),
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
    _inputs(args, embeddings="queries.npy")
    out = _out_dir(args)
    labels = load_label_file(args.labels or _labels_sidecar(Path(args.embeddings)))
    basis = load_subspace(args.basis)

    # every class gets a row and a column; one without a covariance (under 2
    # rows, or every row equal) has empty mscsa and distance cells. Only the
    # overlap and the eigenvalues outlive a class: its rows, factor and
    # eigenvectors are dropped before the next class is read
    classes = []
    with EmbeddingDump(args.embeddings, labels=labels) as dump:
        for label, n, factor in per_class_covariances(dump):
            classes.append((label, n, *class_overlap(factor, basis)))
            del factor
    undefined = sum(math.isnan(v) for _, _, v, _ in classes)
    if undefined:
        logger.warning("%d of %d classes have no defined lowest-%d span: mscsa left empty",
                       undefined, len(classes), basis.p)
    _write_csv(
        out / "class_overlap.csv",
        ["label", "n_samples", "mscsa"],
        ((label, n, _cell(v)) for label, n, v, _ in classes),
    )
    distances = class_spectrum_distance({label: w for label, _, _, w in classes})
    _write_csv(
        out / "class_spectrum_distance.csv",
        ["label"] + [str(l) for l in distances.labels],
        # one row of Python floats at a time, not C^2 of them
        ([a] + _cells(row) for a, row in zip(distances.labels, distances.distances)),
    )
    return 0


def cmd_activations(args) -> int:
    _inputs(args, embeddings="img.npy")
    out = _out_dir(args)
    basis = load_subspace(args.basis)
    with EmbeddingDump(Path(args.embeddings)) as dump:  # the source column spells it as pathlib does
        ranked = rank_activations(dump, basis, top=args.top)
    _write_csv(
        out / "activations.csv",
        ["rank", "row_index", "score", "source"],
        (
            (rank, act.row_index, _cell(act.norm), dump.source)
            for rank, act in enumerate(ranked)
        ),
    )
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

    acc = sub.add_parser("accumulate", help="stream trace-normalized covariances from a manifest")
    acc.add_argument("--manifest", required=True)
    acc.add_argument("--out", required=True)
    acc.add_argument("--kernel", action="store_true",
                     help="also write cosine-kernel covariances")
    acc.set_defaults(func=cmd_accumulate)

    spec = sub.add_parser("spectrum", help="decompose covariances into CSV curves")
    spec.add_argument("--out", required=True)
    spec.add_argument("sigmas", nargs="*", help="covariance NPY files "
                      "(default: every sigma_*.npy in --out)")
    spec.set_defaults(func=cmd_spectrum)

    thr = sub.add_parser("threshold", help="detect the noise threshold and basis")
    thr.add_argument("--out", required=True)
    thr.add_argument("sigmas", nargs="*", help="covariance NPY files; the first "
                     "is the target (default: sigma_average.npy in --out)")
    thr.add_argument("--fixed-log10", type=float, default=None,
                     help="pin the cutoff at this log10 eigenvalue instead of the knee")
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
    ovl.set_defaults(func=cmd_class_overlap)

    act = sub.add_parser("activations", help="rank rows by noise-span activation")
    act.add_argument("--out", required=True)
    act.add_argument("--embeddings", default=None)
    act.add_argument("--basis", default=None)
    act.add_argument("--top", type=int, default=25)
    act.set_defaults(func=cmd_activations)

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
