"""Evaluation harness: exact oracles, determinism, synthetic fixtures."""

from __future__ import annotations

import numpy as np
import pytest

from spectrune import evaluation
from spectrune.covariance import CovarianceMatrix
from spectrune.errors import (
    DataError,
    DimError,
    NoKneeError,
    PreconditionError,
)
from spectrune.evaluation import (
    NORM_EPS,
    EvalReport,
    ZeroShotTask,
    alignment_delta,
    projected_undefined,
    random_ablation,
    rank_activations,
    synth_benchmark,
    zero_shot_topk,
)
from spectrune.npy import BLOCK_ROWS
from spectrune.spectral import decompose, log_spectrum, detect_knee
from spectrune.store import EmbeddingMatrix
from spectrune.subspaces import Subspace, remove_component
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


def test_every_score_of_a_task_reads_one_shared_state(monkeypatch):
    built = []
    share = evaluation._share
    monkeypatch.setattr(evaluation, "_share", lambda task: built.append(task) or share(task))
    bench = synth_benchmark(n=50, d=16, p=4, n_classes=6, queries_per_class=5, k=2, seed=3)
    assert built == []  # synth_benchmark makes a task it never scores
    task, spectrum = bench.task, _random_spectrum(np.random.default_rng(5), 16)
    baseline = zero_shot_topk(task)
    noise_free = zero_shot_topk(task, bench.planted)
    threaded = random_ablation(task, spectrum, p=4, trials=8, seed=2, threads=2)
    assert built == [task]  # G = Q P^T, the sort and the norms, built once
    fresh = make_task(task.class_prototypes.data, task.class_prototypes.labels,
                      task.queries.data, task.queries.labels, task.k)
    assert np.array_equal(threaded, random_ablation(fresh, spectrum, 4, 8, 2, threads=1))
    assert (zero_shot_topk(fresh), zero_shot_topk(fresh, bench.planted)) == (baseline, noise_free)
    assert built == [task, fresh]


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


def reference_topk(queries, qlabels, protos, plabels, k):
    """The direct scorer: unit rows, every cosine, then a stable descending
    argsort of each row, prototypes sorted by class id for the tie-break."""

    def unit(x):
        norms = np.linalg.norm(x, axis=1)
        return x / np.where(norms == 0.0, 1.0, norms)[:, None]

    order = np.argsort(plabels)
    sims = unit(queries) @ unit(protos[order]).T
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    return float((np.asarray(plabels)[order][top] == qlabels[:, None]).any(axis=1).mean())


def reference_ablation(task, spectrum, p, trials, seed, project_prototypes=True):
    """Trial t by direct removal of the sampled eigenvector columns."""
    protos = task.class_prototypes.data
    accs = []
    for t in range(trials):
        cols = np.sort(trial_rng(seed, t).choice(task.d, size=p, replace=False))
        sub = spectrum.eigenvectors[:, cols]
        accs.append(reference_topk(
            remove_component(task.queries.data, sub),
            task.queries.labels,
            remove_component(protos, sub) if project_prototypes else protos,
            task.class_prototypes.labels,
            task.k,
        ))
    return np.array(accs)


def _random_spectrum(rng, d):
    a = rng.standard_normal((d, d)) * np.geomspace(1.0, 1e-3, d)
    sigma = a @ a.T
    return decompose(
        CovarianceMatrix((sigma + sigma.T) / 2.0, n_samples=10 * d, modality="image")
    )


def test_low_rank_scores_match_direct_removal_reference():
    rng = np.random.default_rng(67)
    cases = [
        # (classes, queries, d, k, duplicated prototype pairs)
        (12, 2 * BLOCK_ROWS + 3, 16, 3, 0),
        (9, 300, 12, 9, 0),  # k = nc: every query hits
        (15, 400, 10, 4, 3),  # exact ties between duplicate prototypes
    ]
    for n_classes, n_queries, d, k, dups in cases:
        protos = rng.standard_normal((n_classes, d))
        for i in range(dups):
            protos[n_classes - 1 - i] = protos[i]
        plabels = rng.permutation(3 * n_classes)[:n_classes]
        qlabels = rng.choice(plabels, size=n_queries)
        # queries near their class, so that removals change some rankings
        own = protos[[int(np.flatnonzero(plabels == label)[0]) for label in qlabels]]
        queries = own + 0.8 * rng.standard_normal((n_queries, d))
        task = make_task(protos, plabels, queries, qlabels, k)
        spectrum = _random_spectrum(rng, d)
        noise = Subspace(spectrum.eigenvectors[:, :3])
        assert zero_shot_topk(task) == reference_topk(queries, qlabels, protos, plabels, k)
        for project in (True, False):
            assert zero_shot_topk(task, noise, project) == reference_topk(
                remove_component(queries, noise.basis),
                qlabels,
                remove_component(protos, noise.basis) if project else protos,
                plabels,
                k,
            )
            expected = reference_ablation(task, spectrum, 4, 12, 5, project)
            for threads in (1, 2):
                got = random_ablation(task, spectrum, 4, 12, 5, threads, project)
                assert np.array_equal(got, expected)
        if k == n_classes:
            assert zero_shot_topk(task) == 1.0
        if dups:
            # a duplicate ties its twin exactly, and the smaller id takes
            # the only top-1 slot: queries of the larger ids never hit
            larger = [max(plabels[i], plabels[n_classes - 1 - i]) for i in range(dups)]
            mask = np.isin(qlabels, larger)
            losers = make_task(protos, plabels, queries[mask], qlabels[mask], 1)
            assert zero_shot_topk(losers) == 0.0
            assert not random_ablation(losers, spectrum, 4, 12, 5).any()


def _span_task(rng, basis, k):
    """Random task whose queries 1 and 3 and prototype 2 lie inside span(basis)."""
    d = basis.shape[0]
    protos = rng.standard_normal((5, d))
    queries = rng.standard_normal((6, d))
    for rows, i in ((queries, 1), (queries, 3), (protos, 2)):
        inside = basis @ rng.standard_normal(basis.shape[1])
        rows[i] = inside * (2.26 / np.linalg.norm(inside))
    return make_task(protos, np.arange(5), queries, np.array([4, 0, 1, 4, 2, 3]), k)


def _zeroed_below_eps(x):
    x = x.copy()
    x[np.linalg.norm(x, axis=1) < NORM_EPS] = 0.0
    return x


def test_vectors_inside_the_removed_span_score_as_zero_vectors():
    rng = np.random.default_rng(68)
    d = 16
    basis = np.linalg.qr(rng.standard_normal((d, 4)))[0]  # not axis-aligned
    task = _span_task(rng, basis, k=2)
    q = remove_component(task.queries.data, basis)
    p = remove_component(task.class_prototypes.data, basis)
    # the direct removal leaves at most roundoff in the spanned rows
    assert np.linalg.norm(q[[1, 3]], axis=1).max() < NORM_EPS
    expected = brute_force_topk(
        _zeroed_below_eps(q), task.queries.labels, _zeroed_below_eps(p), np.arange(5), 2
    )
    noise = Subspace(basis)
    assert zero_shot_topk(task, noise) == expected
    # with every cosine 0, the id tie-break puts classes 0 and 1 in the top
    # 2: query 1 (class 0) hits and query 3 (class 4) misses
    for i, hit in ((1, 1.0), (3, 0.0)):
        alone = make_task(task.class_prototypes.data, np.arange(5),
                          task.queries.data[[i]], task.queries.labels[[i]], 2)
        assert zero_shot_topk(alone, noise) == hit
    assert projected_undefined(task, noise) == 3
    assert projected_undefined(task, noise, project_prototypes=False) == 2
    assert projected_undefined(task, Subspace(np.eye(d)[:, [0]])) == 0


def test_ablation_scores_a_query_inside_the_removed_columns_as_zero():
    rng = np.random.default_rng(69)
    d = 6
    rot = np.linalg.qr(rng.standard_normal((d, d)))[0]
    sigma = rot @ np.diag(np.arange(1.0, d + 1.0)) @ rot.T
    spectrum = decompose(
        CovarianceMatrix((sigma + sigma.T) / 2.0, n_samples=100, modality="image")
    )
    task = _span_task(rng, spectrum.eigenvectors[:, [2]], k=2)
    accs = random_ablation(task, spectrum, p=1, trials=60, seed=4)
    for t, acc in enumerate(accs):
        cols = np.sort(trial_rng(4, t).choice(d, size=1, replace=False))
        sub = spectrum.eigenvectors[:, cols]
        expected = brute_force_topk(
            _zeroed_below_eps(remove_component(task.queries.data, sub)),
            task.queries.labels,
            _zeroed_below_eps(remove_component(task.class_prototypes.data, sub)),
            np.arange(5),
            2,
        )
        assert acc == expected, t
    assert len(set(accs.tolist())) == 2  # column 2 was drawn in some trials


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
