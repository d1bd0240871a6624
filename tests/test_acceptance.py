"""Acceptance suite: one test per release criterion, at pinned tolerances.

Each test is self-contained and runs at desk scale; the terminal summary
(see conftest) prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import json
import time

import numpy as np

from spectrune.cli import main
from spectrune.covariance import (
    CovarianceAccumulator,
    accumulate,
    average,
    covariance_of,
    finalize,
    merge,
    normalize_rows,
    normalize_trace,
)
from spectrune.evaluation import (
    ZeroShotTask,
    alignment_delta,
    random_ablation,
    synth_benchmark,
    zero_shot_topk,
)
from spectrune.npy import FLOAT_DESCRS, INT_DESCRS, read_npy, write_npy
from spectrune.spectral import (
    decompose,
    detect_knee,
    log_spectrum,
    noise_threshold,
)
from spectrune.store import EmbeddingMatrix
from spectrune.subspaces import (
    Subspace,
    mscsa,
    noise_subspace,
    projection_remove,
    remove_component,
)


def matrix(x, labels=None):
    return EmbeddingMatrix(np.asarray(x, dtype=float), labels=labels)


def kernel_of(m, modality="image"):
    """The kernel (cosine-similarity) covariance, as ``accumulate --kernel``
    builds it: the covariance of the row-normalized matrix."""
    return covariance_of(normalize_rows(m), f"kernel-{modality}")


def random_orthonormal(d, p, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, p)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def test_covariance_streaming_matches_two_pass_oracle():
    """Streaming accumulate/merge over 7 random chunkings of 10,000 x 64
    Gaussian rows: within 1e-10 relative Frobenius of the two-pass formula,
    in under 5 seconds."""
    rng = np.random.default_rng(101)
    x = rng.standard_normal((10_000, 64))
    centered = x - x.mean(axis=0)
    expected = centered.T @ centered / (x.shape[0] - 1)

    start = time.perf_counter()
    for chunking in range(7):
        boundaries = np.sort(
            np.random.default_rng(chunking).choice(
                np.arange(1, 10_000), size=11, replace=False
            )
        )
        chunks = np.split(x, boundaries)
        # sequential accumulation
        acc = CovarianceAccumulator.empty()
        for chunk in chunks:
            acc = accumulate(acc, matrix(chunk))
        sequential = finalize(acc, "image").sigma
        # independent per-chunk accumulators merged pairwise
        parts = [accumulate(CovarianceAccumulator.empty(), matrix(c)) for c in chunks]
        while len(parts) > 1:
            parts = [
                merge(parts[i], parts[i + 1]) if i + 1 < len(parts) else parts[i]
                for i in range(0, len(parts), 2)
            ]
        merged = finalize(parts[0], "image").sigma
        for sigma in (sequential, merged):
            err = np.linalg.norm(sigma - expected) / np.linalg.norm(expected)
            assert err <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"covariance oracle took {elapsed:.2f}s"


def test_spectral_decomposition_contract():
    """100 random 64 x 64 covariances through ``decompose``, of 16 to 127
    rows (rank-deficient below 65) over columns of unequal scale:
    reconstruction within 1e-10 relative Frobenius, eigenvalue sum equal to
    the trace within 1e-10, and unit eigenvalue sums (within 1e-10) for
    trace-normalized inputs."""
    rng = np.random.default_rng(102)
    for _ in range(100):
        rows = rng.standard_normal((int(rng.integers(16, 128)), 64)) * rng.lognormal(size=64)
        cov = covariance_of(matrix(rows), "image")
        a, spectrum = cov.sigma, decompose(cov)
        w, v = spectrum.eigenvalues, spectrum.eigenvectors
        recon_err = np.linalg.norm((v * w) @ v.T - a) / np.linalg.norm(a)
        assert recon_err <= 1e-10
        trace = np.trace(a)
        assert abs(w.sum() - trace) <= 1e-10 * max(1.0, abs(trace))
    for _ in range(100):
        cov = normalize_trace(
            covariance_of(matrix(rng.standard_normal((96, 64))), "image")
        )
        assert abs(decompose(cov).eigenvalues.sum() - 1.0) <= 1e-10


def test_mscsa_exact_values_and_invariances():
    """Identical spans 1.0, orthogonal spans 0.0, the 45-degree case 0.5
    (all +/- 1e-10); symmetry and common-rotation invariance within 1e-9
    across 1000 random pairs."""
    eye = np.eye(4)
    assert abs(mscsa(Subspace(eye[:, :2]), Subspace(eye[:, :2])).mscsa - 1.0) <= 1e-10
    assert abs(mscsa(Subspace(eye[:, :2]), Subspace(eye[:, 2:])).mscsa - 0.0) <= 1e-10
    diag = Subspace(np.array([[1.0], [1.0], [0.0], [0.0]]) / np.sqrt(2.0))
    assert abs(mscsa(Subspace(eye[:, :1]), diag).mscsa - 0.5) <= 1e-10

    rng = np.random.default_rng(103)
    d = 16
    for _ in range(1000):
        p = int(rng.integers(1, 7))
        a = Subspace(random_orthonormal(d, p, rng))
        b = Subspace(random_orthonormal(d, p, rng))
        forward = mscsa(a, b).mscsa
        assert abs(forward - mscsa(b, a).mscsa) <= 1e-9
        q = random_orthonormal(d, d, rng)
        rotated = mscsa(Subspace(q @ a.basis), Subspace(q @ b.basis)).mscsa
        assert abs(rotated - forward) <= 1e-9
        assert 0.0 <= forward <= 1.0


def test_projection_contract():
    """Over 1000 random (V, x): idempotence and annihilation within 1e-10,
    the Pythagorean norm split within 1e-10, and factored-vs-explicit
    agreement within 1e-12."""
    rng = np.random.default_rng(104)
    for _ in range(1000):
        d = int(rng.integers(4, 32))
        p = int(rng.integers(1, d))
        v = random_orthonormal(d, p, rng)
        proj = projection_remove(Subspace(v))
        x = rng.standard_normal(d)
        assert np.abs(proj @ proj - proj).max() <= 1e-10
        assert np.abs(proj @ v).max() <= 1e-10
        px = proj @ x
        inside = v @ (v.T @ x)
        assert abs(x @ x - (px @ px + inside @ inside)) <= 1e-10
        factored = remove_component(x[None, :], v)[0]
        assert np.abs(px - factored).max() <= 1e-12


def _planted_pipeline(seed=2026):
    bench = synth_benchmark(
        n=10_000, d=128, p=20, signal_var=1.0, noise_var=1e-5, n_classes=50,
        queries_per_class=20, k=5, seed=seed,
    )
    spectrum = decompose(
        average(
            normalize_trace(covariance_of(bench.img, "image")),
            normalize_trace(covariance_of(bench.txt, "text")),
        )
    )
    cutoff, _ = noise_threshold([spectrum])
    recovered = noise_subspace(spectrum, cutoff)
    return bench, spectrum, recovered


def test_planted_subspace_recovery():
    """End-to-end on n=10,000, d=128, p=20, variance ratio 1e-5: detected
    noise count within 20 +/- 2 and planted-vs-recovered overlap >= 0.99,
    in under 30 seconds."""
    start = time.perf_counter()
    bench, _, recovered = _planted_pipeline()
    overlap = mscsa(bench.planted, recovered).mscsa
    elapsed = time.perf_counter() - start
    assert abs(recovered.p - 20) <= 2
    assert overlap >= 0.99
    assert elapsed < 30.0, f"planted recovery took {elapsed:.2f}s"


def test_harmless_pruning_vs_random_removal():
    """Noise-free top-5 accuracy equals the baseline within 0.1 percentage
    points on the 50-class planted task, while 500 seeded random removals
    of 20 basis directions average strictly below baseline with nonzero
    variance."""
    bench, spectrum, recovered = _planted_pipeline()
    baseline = zero_shot_topk(bench.task)[0]
    noise_free = zero_shot_topk(bench.task, recovered)[0]
    assert abs(noise_free - baseline) <= 0.001
    samples = random_ablation(
        bench.task, spectrum, p=recovered.p, trials=500, seed=2026
    )
    assert samples.shape == (500,)
    assert samples.mean() < baseline
    assert samples.var() > 0.0


def test_alignment_delta_is_positive_on_shared_signal_pairs():
    """Pairs sharing their signal component with independent noise: mean
    cosine delta after noise projection > 0 and the per-pair median >= 0."""
    bench, _, recovered = _planted_pipeline()
    report = alignment_delta(bench.pairs_img, bench.pairs_txt, recovered)
    assert report.n_undefined == 0
    assert report.mean_delta > 0.0
    assert float(np.median(report.per_pair)) >= 0.0


def test_zero_shot_matches_brute_force_oracle():
    """20 random instances up to 1000 queries x 100 classes: accuracy equal
    to the exhaustive per-query argsort oracle, exactly."""
    rng = np.random.default_rng(105)
    for _ in range(20):
        n_classes = int(rng.integers(2, 101))
        n_queries = int(rng.integers(1, 1001))
        d = int(rng.integers(4, 33))
        k = int(rng.integers(1, n_classes + 1))
        protos = rng.standard_normal((n_classes, d))
        plabels = rng.permutation(n_classes * 3)[:n_classes]
        queries = rng.standard_normal((n_queries, d))
        qlabels = rng.choice(plabels, size=n_queries)
        task = ZeroShotTask(
            class_prototypes=matrix(protos, labels=plabels),
            queries=matrix(queries, labels=qlabels),
            k=k,
        )
        hits = 0
        for q, true in zip(queries, qlabels):
            sims = []
            qn = np.linalg.norm(q)
            for pvec, pl in zip(protos, plabels):
                pn = np.linalg.norm(pvec)
                sim = 0.0 if qn == 0.0 or pn == 0.0 else float((q / qn) @ (pvec / pn))
                sims.append((sim, int(pl)))
            ranked = sorted(sims, key=lambda t: (-t[0], t[1]))
            hits += int(true) in {pl for _, pl in ranked[:k]}
        assert zero_shot_topk(task)[0] == hits / n_queries


def test_eval_report_bytes_identical_across_reruns(tmp_path):
    """Two runs at the same seed write byte-identical eval_report.json."""
    out = str(tmp_path)
    assert main(["synth", "--out", out, "--n", "3000", "--d", "48", "--p", "8",
                 "--classes", "20", "--queries-per-class", "10", "--seed", "9"]) == 0
    assert main(["accumulate", "--manifest", f"{out}/manifest.json", "--out", out]) == 0
    assert main(["threshold", "--out", out]) == 0
    argv = ["eval", "--out", out, "--seed", "9", "--trials", "64", "--top-k", "5"]
    assert main(argv) == 0
    first = (tmp_path / "eval_report.json").read_bytes()
    assert main(argv) == 0
    assert (tmp_path / "eval_report.json").read_bytes() == first
    json.loads(first)  # and it is valid JSON


def test_npy_round_trip_and_reference_interop(tmp_path):
    """100 random shapes/dtypes: our writer round-trips through our reader,
    numpy reads our files, and we read numpy's."""
    rng = np.random.default_rng(106)
    dtypes = [np.float32, np.float64, np.int32, np.int64]
    for i in range(100):
        rank = int(rng.integers(1, 4))
        shape = tuple(int(s) for s in rng.integers(1, 9, size=rank))
        dtype = dtypes[int(rng.integers(len(dtypes)))]
        if np.issubdtype(dtype, np.floating):
            arr = rng.standard_normal(shape).astype(dtype)
            allowed = FLOAT_DESCRS
        else:
            arr = rng.integers(-1000, 1000, size=shape).astype(dtype)
            allowed = INT_DESCRS

        ours = tmp_path / f"ours_{i}.npy"
        write_npy(ours, arr)
        assert np.array_equal(read_npy(ours, allowed), arr)
        # independent reference reader accepts our file
        ref = np.load(ours)
        assert ref.dtype == arr.dtype and np.array_equal(ref, arr)
        # and we accept the reference writer's file
        theirs = tmp_path / f"theirs_{i}.npy"
        np.save(theirs, arr)
        assert np.array_equal(read_npy(theirs, allowed), arr)


def test_kernel_covariance_rescale_invariance_and_knee_agreement():
    """Positive per-row rescaling changes the kernel covariance by at most
    1e-12, and on the planted fixture the kernel spectrum's knee sits
    within 3 indices of the sample-covariance knee."""
    rng = np.random.default_rng(107)
    x = rng.standard_normal((400, 24))
    base = kernel_of(matrix(x))
    scaled = kernel_of(matrix(x * rng.uniform(0.05, 20.0, size=(400, 1))))
    assert np.abs(base.sigma - scaled.sigma).max() <= 1e-12

    bench = synth_benchmark(n=10_000, d=128, p=20, noise_var=1e-5, seed=2027)
    sample_avg = average(
        normalize_trace(covariance_of(bench.img, "image")),
        normalize_trace(covariance_of(bench.txt, "text")),
    )
    kernel_avg = average(
        normalize_trace(kernel_of(bench.img)),
        normalize_trace(kernel_of(bench.txt, "text")),
    )
    sample_knee = detect_knee(log_spectrum(decompose(sample_avg)))
    kernel_knee = detect_knee(log_spectrum(decompose(kernel_avg)))
    assert abs(sample_knee - kernel_knee) <= 3
