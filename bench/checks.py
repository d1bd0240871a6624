"""Output checks for one benchmark run directory.

Every check recomputes its expectation from the synthetic inputs with
plain numpy (``np.load``, ``np.linalg``), or tests a property the method
must have; none compares against a stored copy of an earlier output, and
none calls spectrune. A check that fails raises :class:`CheckError`.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

LOG_FLOOR = 1e-15  # the program's eigenvalue floor before log10
CHUNK_ROWS = 8192


class CheckError(AssertionError):
    """An output disagrees with its independent recomputation."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def _cell(text: str) -> float:
    return float("nan") if text == "" else float(text)


def _max_rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max() / max(float(np.abs(b).max()), 1e-300))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(x, axis=1)
    return x / np.where(norms == 0.0, 1.0, norms)[:, None]


def _remove(x: np.ndarray, basis: np.ndarray) -> np.ndarray:
    return x - (x @ basis) @ basis.T


def mean_sq_cosine(a: np.ndarray, b: np.ndarray) -> float:
    """Mean squared cosine of the principal angles between two
    orthonormal bases (the overlap the paper reports)."""
    s = np.clip(np.linalg.svd(a.T @ b, compute_uv=False), 0.0, 1.0)
    return float(np.mean(s**2))


def _centered_grams(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized covariances (sum of centered outer products) of a dump's
    rows and of its unit-normalized rows, in two chunked passes so a large
    dump is never held twice in memory."""
    x = np.load(path, mmap_mode="r")
    n, d = x.shape
    total = np.zeros(d)
    total_unit = np.zeros(d)
    for lo in range(0, n, CHUNK_ROWS):
        chunk = np.asarray(x[lo : lo + CHUNK_ROWS], dtype=np.float64)
        total += chunk.sum(axis=0)
        total_unit += _unit_rows(chunk).sum(axis=0)
    mean, mean_unit = total / n, total_unit / n
    gram = np.zeros((d, d))
    gram_unit = np.zeros((d, d))
    for lo in range(0, n, CHUNK_ROWS):
        chunk = np.asarray(x[lo : lo + CHUNK_ROWS], dtype=np.float64)
        c = chunk - mean
        gram += c.T @ c
        c = _unit_rows(chunk) - mean_unit
        gram_unit += c.T @ c
    return gram, gram_unit


def check_sigmas(run: Path, kernel: bool) -> list[Path]:
    """Each sigma_*.npy equals the trace-normalized covariance of its dump
    (row-normalized first for the kernel variants), and each average is
    the mean of its two modalities. Returns the sigma files checked."""
    expected: dict[str, np.ndarray] = {}
    for modality, dump in (("image", "img.npy"), ("text", "txt.npy")):
        gram, gram_unit = _centered_grams(run / dump)
        expected[modality] = gram / np.trace(gram)
        if kernel:
            expected[f"kernel_{modality}"] = gram_unit / np.trace(gram_unit)
    expected["average"] = 0.5 * (expected["image"] + expected["text"])
    if kernel:
        expected["kernel_average"] = 0.5 * (
            expected["kernel_image"] + expected["kernel_text"]
        )
    checked = []
    for name, want in expected.items():
        path = run / f"sigma_{name}.npy"
        _require(path.is_file(), f"{path.name} missing")
        got = np.load(path)
        _require(got.shape == want.shape, f"{path.name}: shape {got.shape}")
        err = _max_rel(got, want)
        _require(err <= 1e-9, f"{path.name}: off the recomputed covariance by {err:.2e}")
        checked.append(path)
    return checked


def check_spectra(run: Path, sigma_paths: list[Path]) -> None:
    """Each spectrum CSV lists eigvalsh of its stored sigma, descending,
    with the log10 column matching the eigenvalue column."""
    for sigma_path in sigma_paths:
        path = run / f"spectrum_{sigma_path.stem}.csv"
        _require(path.is_file(), f"{path.name} missing")
        rows = _read_csv(path)
        _require(rows[0] == ["index", "eigenvalue", "log10_eigenvalue"], f"{path.name}: header")
        body = np.array([[float(c) for c in r] for r in rows[1:]])
        want = np.linalg.eigvalsh(np.load(sigma_path))[::-1]
        _require(body.shape == (want.size, 3), f"{path.name}: {body.shape[0]} rows, want {want.size}")
        _require(np.array_equal(body[:, 0], np.arange(want.size)), f"{path.name}: index column")
        err = float(np.abs(body[:, 1] - np.maximum(want, 0.0)).max())
        _require(err <= 1e-12 * float(want.max()), f"{path.name}: eigenvalues off by {err:.2e}")
        logs = np.log10(np.maximum(body[:, 1], LOG_FLOOR))
        _require(np.allclose(body[:, 2], logs, rtol=0.0, atol=1e-12), f"{path.name}: log10 column")


def check_threshold(run: Path, p: int) -> np.ndarray:
    """The threshold flags exactly the planted p dimensions and the noise
    basis spans the planted span. Returns the noise basis."""
    report = _read_json(run / "threshold.json")
    _require(report["noise_count"] == p, f"threshold flags {report['noise_count']} dims, planted {p}")
    basis = np.load(run / "noise_basis.npy")
    _require(basis.shape[1] == p, f"noise basis has {basis.shape[1]} columns, planted {p}")
    gram_err = float(np.abs(basis.T @ basis - np.eye(p)).max())
    _require(gram_err <= 1e-8, f"noise basis not orthonormal ({gram_err:.2e})")
    overlap = mean_sq_cosine(np.load(run / "planted_basis.npy"), basis)
    _require(overlap >= 0.99, f"noise basis overlaps the planted span by {overlap:.4f}")
    # the cutoff is the log10 of the knee eigenvalue itself, which counts as
    # signal; the margin keeps eigvalsh roundoff on it from flipping the count
    logs = np.log10(np.maximum(np.linalg.eigvalsh(np.load(run / "sigma_average.npy")), LOG_FLOOR))
    below = int(np.sum(logs < report["log10_value"] - 1e-9))
    _require(below == p, f"cutoff 10^{report['log10_value']} leaves {below} eigenvalues below it")
    return basis


def check_project(run: Path, basis: np.ndarray) -> None:
    """img_clean.npy is img.npy with its noise-span component removed:
    orthogonal to the basis, and differing from the input only inside it."""
    x = np.load(run / "img.npy", mmap_mode="r")
    y = np.load(run / "img_clean.npy", mmap_mode="r")
    _require(x.shape == y.shape, f"img_clean.npy shape {y.shape} != {x.shape}")
    scale = 0.0
    worst_in = worst_out = 0.0
    for lo in range(0, x.shape[0], CHUNK_ROWS):
        xc = np.asarray(x[lo : lo + CHUNK_ROWS])
        yc = np.asarray(y[lo : lo + CHUNK_ROWS])
        scale = max(scale, float(np.abs(xc).max()))
        worst_in = max(worst_in, float(np.abs(yc @ basis).max()))
        worst_out = max(worst_out, float(np.abs(yc - _remove(xc, basis)).max()))
    _require(worst_in <= 1e-10 * scale, f"projected rows keep {worst_in:.2e} inside the noise span")
    _require(worst_out <= 1e-10 * scale, f"projected rows differ from the removal by {worst_out:.2e}")


def _topk_rank_hits(
    queries: np.ndarray, true_labels: np.ndarray, protos: np.ndarray, proto_ids: np.ndarray, k: int
) -> int:
    """Queries whose true class ranks in the top k by cosine, counting ranks
    directly: a query hits when fewer than k prototypes beat its true one,
    a tie beating it only when the rival's class id is smaller."""
    sims = _unit_rows(queries) @ _unit_rows(protos).T
    pos = np.searchsorted(proto_ids, true_labels)
    s_true = sims[np.arange(sims.shape[0]), pos]
    ahead = (sims > s_true[:, None]).sum(axis=1)
    ahead += ((sims == s_true[:, None]) & (proto_ids[None, :] < true_labels[:, None])).sum(axis=1)
    return int(np.count_nonzero(ahead < k))


def _task(run: Path):
    order_p = np.load(run / "prototypes_labels.npy")
    order = np.argsort(order_p, kind="stable")
    protos = np.load(run / "prototypes.npy")[order]
    proto_ids = order_p[order]
    return protos, proto_ids, np.load(run / "queries.npy"), np.load(run / "queries_labels.npy")


def check_eval(
    run: Path, basis: np.ndarray, seed: int, trials: int, top_k: int, ablation_hurts: bool
) -> None:
    """Zero-shot accuracies and ablation trials equal an independent
    rank-counting scorer's; removing the noise span changes no ranking."""
    report = _read_json(run / "eval_report.json")
    protos, proto_ids, queries, labels = _task(run)
    nq = queries.shape[0]

    baseline = _topk_rank_hits(queries, labels, protos, proto_ids, top_k) / nq
    _require(report["baseline_top_k"] == baseline, f"baseline {report['baseline_top_k']} != recomputed {baseline}")
    d = basis.shape[0]
    proj = np.eye(d) - basis @ basis.T
    proj = (proj + proj.T) * 0.5
    noise_free = _topk_rank_hits(queries @ proj.T, labels, protos @ proj.T, proto_ids, top_k) / nq
    got = report["report"]["top_k_accuracy"]
    _require(got == noise_free, f"noise-free accuracy {got} != recomputed {noise_free}")
    _require(got == baseline, f"removing the noise span moved accuracy {baseline} -> {got}")

    samples = report["report"]["ablation_samples"]
    _require(len(samples) == trials, f"{len(samples)} ablation samples, ran {trials}")
    rows = _read_csv(run / "ablation.csv")[1:]
    _require([float(r[1]) for r in rows] == samples, "ablation.csv disagrees with eval_report.json")
    _require(
        math.isclose(report["ablation_summary"]["mean"], float(np.mean(samples)), rel_tol=1e-12),
        "ablation mean disagrees with its samples",
    )
    # eigh of the exactly symmetric stored average: the same eigenvectors the
    # program removes, up to column signs, which cancel in x - (x V) V^T
    _, vecs = np.linalg.eigh(np.load(run / "sigma_average.npy"))
    for t in sorted({0, trials // 2, trials - 1}):
        rng = np.random.Generator(np.random.Philox([seed, t]))
        sub = vecs[:, np.sort(rng.choice(d, size=basis.shape[1], replace=False))]
        acc = _topk_rank_hits(_remove(queries, sub), labels, _remove(protos, sub), proto_ids, top_k) / nq
        _require(samples[t] == acc, f"ablation trial {t}: {samples[t]} != recomputed {acc}")

    a, b = np.load(run / "pairs_img.npy"), np.load(run / "pairs_txt.npy")

    def cosines(u, v):
        return np.sum(u * v, axis=1) / (np.linalg.norm(u, axis=1) * np.linalg.norm(v, axis=1))

    deltas = cosines(a @ proj.T, b @ proj.T) - cosines(a, b)
    listed = np.array([_cell(r[1]) for r in _read_csv(run / "alignment_deltas.csv")[1:]])
    _require(listed.shape == deltas.shape, "alignment_deltas.csv row count")
    _require(np.allclose(listed, deltas, rtol=0.0, atol=1e-12), "alignment deltas off the recomputation")
    mean_delta = report["report"]["mean_cos_delta"]
    _require(math.isclose(mean_delta, float(deltas.mean()), rel_tol=1e-9, abs_tol=1e-12), "mean_cos_delta")
    if ablation_hurts:
        _require(report["ablation_summary"]["mean"] < baseline, "random removal did not hurt accuracy")
        _require(mean_delta > 0.0, f"mean_cos_delta {mean_delta} is not positive")


def _class_log_curves(queries: np.ndarray, labels: np.ndarray):
    ids, counts = np.unique(labels, return_counts=True)
    curves = []
    for label in ids:
        rows = queries[labels == label]
        c = rows - rows.mean(axis=0)
        cov = c.T @ c
        w = np.maximum(np.linalg.eigvalsh(cov / np.trace(cov)), 0.0)
        vec = np.log10(np.maximum(w, LOG_FLOOR))
        curves.append(vec - vec.mean())
    return ids, counts, np.asarray(curves)


def check_class_overlap(run: Path, well_defined: bool) -> None:
    """Per-class overlaps are valid (and near 1 when every class has more
    rows than d); the distance matrix matches a recomputation by the Gram
    identity, is symmetric and has a zero diagonal."""
    queries, labels = np.load(run / "queries.npy"), np.load(run / "queries_labels.npy")
    ids, counts, curves = _class_log_curves(queries, labels)

    rows = _read_csv(run / "class_overlap.csv")
    _require(rows[0] == ["label", "n_samples", "mscsa"], "class_overlap.csv header")
    table = rows[1:]
    _require([int(r[0]) for r in table] == ids.tolist(), "class_overlap.csv labels")
    _require([int(r[1]) for r in table] == counts.tolist(), "class_overlap.csv sample counts")
    values = np.array([_cell(r[2]) for r in table])
    valid = np.isnan(values) | ((values >= 0.0) & (values <= 1.0))
    _require(bool(valid.all()), "a per-class overlap lies outside [0, 1]")
    if well_defined:
        low = float(np.min(values))
        _require(low >= 0.95, f"per-class overlap {low:.4f} < 0.95 on full-rank classes")

    rows = _read_csv(run / "class_spectrum_distance.csv")
    _require(rows[0] == ["label"] + [str(i) for i in ids], "class_spectrum_distance.csv header")
    _require([int(r[0]) for r in rows[1:]] == ids.tolist(), "class_spectrum_distance.csv labels")
    got = np.array([[float(c) for c in r[1:]] for r in rows[1:]])
    sq = np.sum(curves**2, axis=1)
    want = np.sqrt(np.maximum(sq[:, None] + sq[None, :] - 2.0 * curves @ curves.T, 0.0) / curves.shape[1])
    _require(got.shape == want.shape, "class_spectrum_distance.csv shape")
    _require(np.array_equal(got, got.T), "class spectrum distances are not symmetric")
    _require(not np.any(np.diag(got)), "class spectrum distances have a nonzero diagonal")
    # the diagonal is checked above: the identity leaves sqrt(roundoff) ~ 1e-8 there
    off = ~np.eye(ids.size, dtype=bool)
    err = float(np.abs(got - want)[off].max())
    _require(err <= 1e-9, f"class spectrum distances off by {err:.2e}")


def check_activations(run: Path, basis: np.ndarray, top: int = 25) -> None:
    """activations.csv lists the `top` rows of img.npy with the largest
    noise-span component after unit-normalizing, in descending order."""
    x = np.load(run / "img.npy", mmap_mode="r")
    scores = np.concatenate(
        [
            np.linalg.norm(_unit_rows(np.asarray(x[lo : lo + CHUNK_ROWS])) @ basis, axis=1)
            for lo in range(0, x.shape[0], CHUNK_ROWS)
        ]
    )
    rows = _read_csv(run / "activations.csv")[1:]
    _require(len(rows) == top, f"activations.csv has {len(rows)} rows, want {top}")
    _require([int(r[0]) for r in rows] == list(range(top)), "activations.csv rank column")
    idx = np.array([int(r[1]) for r in rows])
    listed = np.array([float(r[2]) for r in rows])
    _require(np.unique(idx).size == top, "activations.csv repeats a row")
    _require(np.allclose(listed, scores[idx], rtol=0.0, atol=1e-12), "activation scores off the recomputation")
    _require(bool(np.all(np.diff(listed) <= 0.0)), "activation scores not descending")
    rest = np.delete(scores, idx)
    _require(float(rest.max()) <= listed[-1] + 1e-12, "an unlisted row scores above the listed ones")


def check_run(
    run: Path, commands: set[str], kernel: bool, seed: int, trials: int, ablation_hurts: bool
) -> None:
    """Check every output the chain of ``commands`` wrote into ``run``.

    ``ablation_hurts`` asserts that removing random eigenvector directions
    lowers accuracy, which holds only where the zero-shot task does not
    saturate.
    """
    config = _read_json(run / "synth.json")["config"]
    p, d, k = config["p"], config["d"], config["top_k"]
    sigmas = check_sigmas(run, kernel)
    check_spectra(run, sigmas)
    basis = check_threshold(run, p)
    if "project" in commands:
        check_project(run, basis)
    if "eval" in commands:
        check_eval(run, basis, seed, trials, k, ablation_hurts)
    if "class-overlap" in commands:
        check_class_overlap(run, well_defined=config["queries_per_class"] > d)
    if "activations" in commands:
        check_activations(run, basis)
