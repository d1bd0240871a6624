"""Evaluation harness: exact oracles, determinism, synthetic fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from spectrune.covariance import CovarianceMatrix
from spectrune.errors import (
    DataError,
    DimError,
    NoKneeError,
    PreconditionError,
)
from spectrune.evaluation import (
    EvalReport,
    ZeroShotTask,
    alignment_delta,
    haar_random_ablation,
    random_ablation,
    rank_activations,
    synth_benchmark,
    zero_shot_topk,
)
from spectrune.spectral import decompose, log_spectrum, detect_knee
from spectrune.store import EmbeddingMatrix
from spectrune.subspaces import Subspace
from spectrune.evaluation import trial_rng


def make_task(protos, plabels, queries, qlabels, k):
    return ZeroShotTask(
        class_prototypes=EmbeddingMatrix(
            np.asarray(protos, dtype=float), modality="text", labels=plabels
        ),
        queries=EmbeddingMatrix(
            np.asarray(queries, dtype=float), modality="image", labels=qlabels
        ),
        k=k,
    )


def brute_force_topk(queries, qlabels, protos, plabels, k, projection=None):
    """Oracle: per-query python sort by (-cosine, class id)."""
    if projection is not None:
        queries = queries @ projection.T
        protos = protos @ projection.T
    hits = 0
    for q, true in zip(queries, qlabels):
        qn = np.linalg.norm(q)
        scored = []
        for pvec, pl in zip(protos, plabels):
            pn = np.linalg.norm(pvec)
            sim = 0.0 if qn == 0.0 or pn == 0.0 else float((q / qn) @ (pvec / pn))
            scored.append((sim, int(pl)))
        ranked = sorted(scored, key=lambda t: (-t[0], t[1]))
        if int(true) in {pl for _, pl in ranked[:k]}:
            hits += 1
    return hits / len(queries)


def test_task_validation():
    eye = np.eye(3)
    with pytest.raises(PreconditionError, match="unique"):
        make_task(eye, [0, 0, 1], eye, [0, 1, 0], 1)
    with pytest.raises(PreconditionError, match="prototype"):
        make_task(eye, [0, 1, 2], eye, [0, 1, 5], 1)
    with pytest.raises(PreconditionError, match="k"):
        make_task(eye, [0, 1, 2], eye, [0, 1, 2], 4)
    with pytest.raises(DimError):
        make_task(eye, [0, 1, 2], np.eye(4), [0, 1, 2, 2], 1)


def test_identity_axes_task_scores_one():
    eye = np.eye(3)
    task = make_task(eye, [0, 1, 2], eye, [0, 1, 2], 1)
    assert zero_shot_topk(task) == 1.0


def test_orthogonal_query_resolved_by_class_id_tie_break():
    protos = np.eye(4)[:3]
    queries = np.vstack([np.eye(4)[3], np.eye(4)[3]])
    task = make_task(protos, [0, 1, 2], queries, [0, 2], 2)
    # all similarities are exactly 0: top-2 must be classes {0, 1}
    assert zero_shot_topk(task) == 0.5


def test_matches_brute_force_oracle_on_random_instances():
    rng = np.random.default_rng(60)
    for _ in range(10):
        n_classes = int(rng.integers(3, 50))
        n_queries = int(rng.integers(5, 120))
        d = int(rng.integers(4, 24))
        k = int(rng.integers(1, n_classes + 1))
        protos = rng.standard_normal((n_classes, d))
        queries = rng.standard_normal((n_queries, d))
        plabels = rng.permutation(n_classes * 2)[:n_classes]
        qlabels = rng.choice(plabels, size=n_queries)
        task = make_task(protos, plabels, queries, qlabels, k)
        assert zero_shot_topk(task) == brute_force_topk(
            queries, qlabels, protos, plabels, k
        )


def test_invariant_to_positive_row_rescaling():
    rng = np.random.default_rng(61)
    protos = rng.standard_normal((10, 6))
    queries = rng.standard_normal((40, 6))
    plabels = np.arange(10)
    qlabels = rng.integers(0, 10, size=40)
    task = make_task(protos, plabels, queries, qlabels, 3)
    scaled = make_task(
        protos * rng.uniform(0.01, 50.0, size=(10, 1)),
        plabels,
        queries * rng.uniform(0.01, 50.0, size=(40, 1)),
        qlabels,
        3,
    )
    assert zero_shot_topk(task) == zero_shot_topk(scaled)


def test_identity_projection_equals_baseline_exactly():
    # the data never enters the last axis, so removing it changes no bit
    rng = np.random.default_rng(62)
    pad = np.zeros((38, 1))
    data = np.hstack([rng.standard_normal((38, 5)), pad])
    task = make_task(data[:8], np.arange(8), data[8:], rng.integers(0, 8, 30), 2)
    unused = Subspace(np.eye(6)[:, [5]])
    assert zero_shot_topk(task, unused) == zero_shot_topk(task)
    assert zero_shot_topk(task, unused, project_prototypes=False) == zero_shot_topk(task)
    with pytest.raises(DimError):
        zero_shot_topk(task, Subspace(np.eye(5)[:, [0]]))


def test_alignment_delta_identity_projection_is_zero():
    # the pairs never enter the last axis, so removing it changes no bit
    rng = np.random.default_rng(63)
    pad = np.zeros((20, 1))
    img = EmbeddingMatrix(np.hstack([rng.standard_normal((20, 6)), pad]), modality="image")
    txt = EmbeddingMatrix(np.hstack([rng.standard_normal((20, 6)), pad]), modality="text")
    report = alignment_delta(img, txt, Subspace(np.eye(7)[:, [6]]))
    assert np.array_equal(report.per_pair, np.zeros(20))
    assert report.mean_delta == 0.0
    assert report.n_undefined == 0


def test_alignment_delta_constructed_pair():
    # pair differs only inside the removed axis: before cos 0, after cos 1
    img = EmbeddingMatrix(np.array([[1.0, 0.0, 1.0]]), modality="image")
    txt = EmbeddingMatrix(np.array([[1.0, 0.0, -1.0]]), modality="text")
    report = alignment_delta(img, txt, Subspace(np.eye(3)[:, [2]]))
    assert report.per_pair[0] == pytest.approx(1.0, abs=1e-12)
    assert report.mean_delta == pytest.approx(1.0, abs=1e-12)


def test_alignment_delta_counts_degenerate_pairs():
    img = EmbeddingMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), modality="image")
    txt = EmbeddingMatrix(np.array([[0.0, 1.0], [1.0, 1.0]]), modality="text")
    kill_axis_1 = Subspace(np.eye(2)[:, [1]])
    report = alignment_delta(img, txt, kill_axis_1)
    assert report.n_undefined == 1
    assert np.isnan(report.per_pair[0])
    assert not np.isnan(report.per_pair[1])
    with pytest.raises(PreconditionError):
        alignment_delta(
            img, EmbeddingMatrix(np.ones((3, 2)), modality="text"), kill_axis_1
        )
    with pytest.raises(DimError):
        alignment_delta(img, txt, Subspace(np.eye(3)[:, [1]]))


def _signal_on_one_axis_task():
    """All class signal rides one eigendirection of an exactly diagonal
    spectrum (eigenvectors are exactly the coordinate axes)."""
    protos = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    queries = np.vstack([np.tile(protos[0], (10, 1)), np.tile(protos[1], (10, 1))])
    qlabels = np.array([0] * 10 + [1] * 10)
    task = make_task(protos, [0, 1], queries, qlabels, 1)
    sigma = CovarianceMatrix(np.diag([0.1, 0.2, 5.0]), n_samples=200, modality="image")
    return task, decompose(sigma)


def test_random_ablation_is_deterministic_and_thread_invariant():
    task, spectrum = _signal_on_one_axis_task()
    a = random_ablation(task, spectrum, p=1, trials=40, seed=9)
    b = random_ablation(task, spectrum, p=1, trials=40, seed=9)
    threaded = random_ablation(task, spectrum, p=1, trials=40, seed=9, threads=4)
    assert np.array_equal(a, b)
    assert np.array_equal(a, threaded)
    assert not np.array_equal(a, random_ablation(task, spectrum, p=1, trials=40, seed=10))


def test_random_ablation_small_d_exhaustive_enumeration():
    task, spectrum = _signal_on_one_axis_task()
    # oracle by enumeration: removing the signal axis forces every similarity
    # to 0, the id tie-break predicts class 0, and half the queries are class
    # 0 -> accuracy 0.5; removing either other axis leaves the task intact.
    accs = random_ablation(task, spectrum, p=1, trials=600, seed=11)
    assert set(np.unique(accs)) == {0.5, 1.0}
    chance_fraction = float(np.mean(accs == 0.5))
    assert abs(chance_fraction - 1.0 / 3.0) < 0.06  # ~3 sigma for 600 draws


def test_random_ablation_preconditions():
    task, spectrum = _signal_on_one_axis_task()
    with pytest.raises(PreconditionError):
        random_ablation(task, spectrum, p=0, trials=5, seed=0)
    with pytest.raises(PreconditionError):
        random_ablation(task, spectrum, p=3, trials=5, seed=0)
    with pytest.raises(PreconditionError):
        random_ablation(task, spectrum, p=1, trials=0, seed=0)


def test_haar_ablation_runs_and_is_deterministic():
    task, _ = _signal_on_one_axis_task()
    a = haar_random_ablation(task, p=1, trials=20, seed=3)
    b = haar_random_ablation(task, p=1, trials=20, seed=3, threads=2)
    assert np.array_equal(a, b)
    assert ((0.0 <= a) & (a <= 1.0)).all()


def test_rank_activations_extremes_and_oracle():
    noise = Subspace(np.eye(4)[:, [2, 3]])
    inside = np.array([0.0, 0.0, 3.0, 4.0])
    outside = np.array([1.0, 2.0, 0.0, 0.0])
    m = EmbeddingMatrix(np.vstack([outside, inside]), modality="image")
    ranked = rank_activations(m, noise, top=2)
    assert ranked[0].row_index == 1
    assert ranked[0].norm == pytest.approx(1.0, abs=1e-12)
    assert ranked[1].norm == pytest.approx(0.0, abs=1e-12)

    rng = np.random.default_rng(65)
    data = rng.standard_normal((200, 8))
    basis = np.linalg.qr(rng.standard_normal((8, 3)))[0]
    m = EmbeddingMatrix(data, modality="image")
    ranked = rank_activations(m, Subspace(basis), top=200)
    # oracle: per-row computation plus (-score, index) sort
    unit = data / np.linalg.norm(data, axis=1, keepdims=True)
    scores = [float(np.linalg.norm(basis.T @ row)) for row in unit]
    expected = sorted(range(200), key=lambda i: (-scores[i], i))
    assert [a.row_index for a in ranked] == expected
    assert np.allclose(
        [a.norm for a in ranked], [scores[i] for i in expected], atol=1e-12
    )


def test_rank_activations_errors():
    noise = Subspace(np.eye(3)[:, [0]])
    bad = np.ones((3, 3))
    bad[1] = 0.0
    with pytest.raises(DataError, match="row 1"):
        rank_activations(EmbeddingMatrix(bad, modality="image"), noise, top=2)
    ok = EmbeddingMatrix(np.ones((3, 3)), modality="image")
    with pytest.raises(PreconditionError):
        rank_activations(ok, noise, top=4)


def test_synth_benchmark_shapes_and_determinism():
    kwargs = dict(n=100, d=16, p=4, signal_var=1.0, noise_var=1e-4, seed=5)
    out = synth_benchmark(**kwargs)
    again = synth_benchmark(**kwargs)
    assert np.array_equal(out.img.data, again.img.data)
    assert np.array_equal(out.txt.data, again.txt.data)
    assert out.img.data.shape == out.txt.data.shape == (100, 16)
    assert out.img.modality == "image" and out.txt.modality == "text"
    assert out.planted.p == 4
    for bad in (
        dict(n=0, d=8, p=2),
        dict(n=10, d=4, p=4),
        dict(n=10, d=8, p=2, noise_var=2.0),
        dict(n=10, d=8, p=2, noise_var=0.0),
        dict(n=10, d=8, p=2, n_classes=1),
    ):
        with pytest.raises(PreconditionError):
            synth_benchmark(**bad)


def test_synth_gap_shifts_the_means():
    rng = np.random.default_rng(66)
    d, n, var = 32, 20_000, 1.0
    gap = rng.uniform(-1.0, 1.0, size=d)
    out = synth_benchmark(
        n=n, d=d, p=4, signal_var=var, noise_var=1e-4, gap=gap, seed=6
    )
    observed = out.img.data.mean(axis=0) - out.txt.data.mean(axis=0)
    # law of large numbers: per-coordinate noise is ~ sqrt(2 var / n)
    assert np.linalg.norm(observed - gap) <= 3.0 * np.sqrt(2.0 * var * d / n)


def test_isotropic_spectrum_has_no_knee():
    # population limit of noise_var == signal_var: an exactly isotropic
    # covariance gives a constant log curve and no knee. (Any finite sample
    # keeps bulk curvature above the 1e-6 significance, so the no-knee
    # outcome belongs to the exact matrix, not to sampled estimates.)
    synth_benchmark(n=50, d=32, p=8, signal_var=1.0, noise_var=1.0, seed=7)
    isotropic = CovarianceMatrix(
        np.eye(32) / 32.0, n_samples=50, modality="average", trace_normalized=True
    )
    with pytest.raises(NoKneeError):
        detect_knee(log_spectrum(decompose(isotropic)))


def test_benchmark_geometry():
    bench = synth_benchmark(n=500, d=32, p=6, n_classes=10, queries_per_class=5, seed=8)
    protos = bench.task.class_prototypes.data
    # prototypes live exactly in the signal span
    assert np.abs(protos @ bench.planted.basis).max() <= 1e-12
    # matched pairs differ only inside the noise span
    gap = bench.pairs_img.data - bench.pairs_txt.data
    outside = gap - (gap @ bench.planted.basis) @ bench.planted.basis.T
    assert np.abs(outside).max() <= 1e-12
    assert bench.task.queries.n == 50


def test_trial_rng_streams_are_stable():
    # same (seed, trial) must always give the same draws, and distinct
    # trials must differ: this pins the substream derivation scheme
    a = trial_rng(1234, 7).choice(100, size=10, replace=False)
    b = trial_rng(1234, 7).choice(100, size=10, replace=False)
    c = trial_rng(1234, 8).choice(100, size=10, replace=False)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_eval_report_validation():
    with pytest.raises(PreconditionError):
        EvalReport(top_k_accuracy=1.5, mean_cos_delta=0.0, ablation_samples=[], seed=0)
    with pytest.raises(PreconditionError):
        EvalReport(
            top_k_accuracy=0.5, mean_cos_delta=0.0, ablation_samples=[1.2], seed=0
        )
    report = EvalReport(
        top_k_accuracy=0.5, mean_cos_delta=None, ablation_samples=[0.1, 0.9], seed=3
    )
    doc = report.to_dict()
    assert doc["mean_cos_delta"] is None
    assert doc["ablation_samples"] == [0.1, 0.9]
    undefined = EvalReport(
        top_k_accuracy=0.5, mean_cos_delta=float("nan"), ablation_samples=[], seed=3
    )
    assert undefined.to_dict()["mean_cos_delta"] is None
