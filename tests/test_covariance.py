"""Covariance engine against the textbook two-pass oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from spectrune import covariance, spectral
from spectrune.covariance import (
    CovarianceAccumulator,
    CovarianceMatrix,
    accumulate,
    average,
    covariance_of,
    finalize,
    load_covariance,
    merge,
    normalize_rows,
    normalize_trace,
    per_class_covariances,
    save_covariance,
)
from spectrune.errors import (
    DataError,
    DegenerateCovarianceError,
    DimError,
    InsufficientSamplesError,
    NumericalError,
    PreconditionError,
)
from spectrune.npy import BLOCK_ROWS, read_npy, write_npy
from spectrune.store import EmbeddingDump, EmbeddingMatrix, iter_blocks, iter_classes


def two_pass_covariance(x: np.ndarray) -> np.ndarray:
    """Oracle: center on the global mean, then sum outer products."""
    centered = x - x.mean(axis=0)
    return centered.T @ centered / (x.shape[0] - 1)


def as_matrix(x, labels=None):
    return EmbeddingMatrix(np.asarray(x, dtype=float), labels=labels)


def rel_frobenius(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300)


def kernel_of(m, modality="image"):
    """The kernel (cosine-similarity) covariance, as ``accumulate --kernel``
    builds it: the covariance of the row-normalized matrix."""
    return covariance_of(normalize_rows(m), f"kernel-{modality}")


def test_hand_computed_two_row_example():
    cov = covariance_of(as_matrix([(1, 0), (0, 1)]), "image")
    assert np.allclose(cov.sigma, [[0.5, -0.5], [-0.5, 0.5]], atol=1e-15)


def test_single_row_accumulator_state():
    acc = accumulate(CovarianceAccumulator.empty(), as_matrix([[2.0, 3.0]]))
    assert acc.count == 1
    assert np.array_equal(acc.mean, [2.0, 3.0])
    assert np.array_equal(acc.m2, np.zeros((2, 2)))


def test_finalize_needs_two_samples():
    acc = accumulate(CovarianceAccumulator.empty(), as_matrix([[1.0, 2.0]]))
    with pytest.raises(InsufficientSamplesError):
        finalize(acc, "image")
    with pytest.raises(InsufficientSamplesError):
        finalize(CovarianceAccumulator.empty(), modality="image")


def test_identical_rows_give_zero_matrix():
    cov = covariance_of(as_matrix(np.tile([1.0, -2.0, 3.0], (20, 1))), "image")
    assert np.allclose(cov.sigma, 0.0, atol=1e-12)


def test_streaming_matches_two_pass_oracle():
    rng = np.random.default_rng(10)
    x = rng.standard_normal((500, 16))
    cov = covariance_of(as_matrix(x), "image")
    assert rel_frobenius(cov.sigma, two_pass_covariance(x)) < 1e-10
    assert cov.n_samples == 500


def test_chunked_orders_match_two_pass_oracle():
    rng = np.random.default_rng(11)
    x = rng.standard_normal((2000, 24))
    expected = two_pass_covariance(x)
    boundaries = np.sort(rng.choice(np.arange(1, 2000), size=6, replace=False))
    chunks = np.split(x, boundaries)
    for order_seed in range(7):
        order = np.random.default_rng(order_seed).permutation(len(chunks))
        acc = CovarianceAccumulator.empty()
        for k in order:
            acc = accumulate(acc, as_matrix(chunks[k]))
        cov = finalize(acc, "image")
        assert cov.n_samples == 2000
        assert rel_frobenius(cov.sigma, expected) < 1e-10


def test_merge_equals_concatenation_and_commutes():
    rng = np.random.default_rng(12)
    x, y, z = (rng.standard_normal((n, 8)) for n in (40, 70, 25))
    acc = lambda arr: accumulate(CovarianceAccumulator.empty(), as_matrix(arr))
    joint = finalize(acc(np.vstack([x, y, z])), "image")

    ab_c = finalize(merge(merge(acc(x), acc(y)), acc(z)), "image")
    a_bc = finalize(merge(acc(x), merge(acc(y), acc(z))), "image")
    cba = finalize(merge(acc(z), merge(acc(y), acc(x))), "image")
    for combined in (ab_c, a_bc, cba):
        assert rel_frobenius(combined.sigma, joint.sigma) < 1e-10
        assert combined.n_samples == 135


def test_merge_with_empty_and_dim_mismatch():
    rng = np.random.default_rng(13)
    full = accumulate(CovarianceAccumulator.empty(), as_matrix(rng.standard_normal((5, 4))))
    assert merge(CovarianceAccumulator.empty(), full) is full
    assert merge(full, CovarianceAccumulator.empty()) is full
    other = accumulate(CovarianceAccumulator.empty(), as_matrix(rng.standard_normal((5, 3))))
    with pytest.raises(DimError):
        merge(full, other)
    with pytest.raises(DimError):
        accumulate(full, as_matrix(rng.standard_normal((2, 3))))


def test_m2_stays_symmetric_through_updates():
    rng = np.random.default_rng(14)
    acc = CovarianceAccumulator.empty()
    for _ in range(25):
        acc = accumulate(acc, as_matrix(rng.standard_normal((rng.integers(1, 40), 12))))
    assert np.array_equal(acc.m2, acc.m2.T)


def test_m2_is_exactly_symmetric_after_dump_blocks_and_merge(tmp_path):
    # accumulate and merge never symmetrize: c.T @ c is exactly symmetric
    # and so is every sum of such terms
    rng = np.random.default_rng(16)
    path = tmp_path / "img.npy"
    write_npy(path, (rng.standard_normal((3 * BLOCK_ROWS + 11, 33)) * 5.0 + 2.0).astype(np.float32))
    parts = []
    with EmbeddingDump(path) as dump:
        for half in (0, 1):
            acc = CovarianceAccumulator.empty()
            for i, block in enumerate(iter_blocks(dump)):
                if i % 2 == half:
                    acc = accumulate(acc, block)
            assert np.array_equal(acc.m2, acc.m2.T)
            parts.append(acc)
    before = [(p.mean.copy(), p.m2.copy()) for p in parts]
    merged = merge(*parts)
    assert merged.count == 3 * BLOCK_ROWS + 11
    assert np.array_equal(merged.m2, merged.m2.T)
    for p, (mean, m2) in zip(parts, before):  # the inputs are left as they were
        assert np.array_equal(p.mean, mean) and np.array_equal(p.m2, m2)



def test_finalize_leaves_symmetry_to_the_covariance_check(handed_over):
    # finalize only divides m2: an exactly symmetric m2 gives an exactly
    # symmetric sigma, handed over without a copy, and a hand-built m2 beyond
    # 1e-12 relative asymmetry is refused like any other covariance
    rng = np.random.default_rng(18)
    acc = accumulate(CovarianceAccumulator.empty(), as_matrix(rng.standard_normal((30, 7))))
    cov = finalize(acc, "image")
    assert np.array_equal(cov.sigma, acc.m2 / 29)
    assert any(cov.sigma is h for h in handed_over)
    m2 = acc.m2.copy()
    m2[0, 1] += 1e-9 * np.abs(m2).max()
    with pytest.raises(NumericalError, match="asymmetry"):
        finalize(CovarianceAccumulator(acc.count, acc.mean, m2), "image")

def test_accumulate_releases_the_centered_copy_before_merging():
    d = 128
    rng = np.random.default_rng(17)
    acc = accumulate(CovarianceAccumulator.empty(), as_matrix(rng.standard_normal((8, d))))
    batch = as_matrix(rng.standard_normal((4 * d, d)))  # centered copy: 4 d x d
    tracemalloc.start()
    try:
        accumulate(acc, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the centered copy and the batch's m2 make 5 d x d, then that m2 with
    # merge's temporaries and result 4; the copy kept through the merge makes 8
    assert peak <= 6 * d * d * 8, peak / (d * d * 8)


def test_finalized_matrix_is_psd():
    rng = np.random.default_rng(15)
    for _ in range(10):
        cov = covariance_of(as_matrix(rng.standard_normal((50, 10))), "image")
        smallest = np.linalg.eigvalsh(cov.sigma).min()
        assert smallest >= -1e-10 * np.trace(cov.sigma)


def test_normalize_trace_identity_example():
    cov = CovarianceMatrix(np.eye(4), n_samples=10, modality="image")
    normed = normalize_trace(cov)
    assert np.allclose(normed.sigma, np.eye(4) / 4.0, atol=1e-15)
    assert normed.trace_normalized
    assert abs(np.trace(normed.sigma) - 1.0) <= 1e-12


def test_normalize_trace_rejects_zero_matrix():
    cov = covariance_of(as_matrix(np.tile([1.0, 1.0], (5, 1))), "image")
    with pytest.raises(DegenerateCovarianceError):
        normalize_trace(cov)


def test_normalize_trace_scales_eigenvalues_keeps_eigenvectors():
    rng = np.random.default_rng(16)
    cov = covariance_of(as_matrix(rng.standard_normal((60, 6))), "image")
    trace = np.trace(cov.sigma)
    w_before, v_before = np.linalg.eigh(cov.sigma)
    w_after, v_after = np.linalg.eigh(normalize_trace(cov).sigma)
    assert np.allclose(w_after, w_before / trace, rtol=1e-10)
    # same invariant subspaces: columns agree up to sign
    assert np.allclose(np.abs(np.sum(v_before * v_after, axis=0)), 1.0, atol=1e-9)


def test_average_examples_and_trace():
    rng = np.random.default_rng(17)
    a = normalize_trace(covariance_of(as_matrix(rng.standard_normal((40, 5))), "image"))
    b = normalize_trace(covariance_of(as_matrix(rng.standard_normal((40, 5))), "text"))
    assert np.allclose(average(a, a).sigma, a.sigma, atol=1e-15)
    avg = average(a, b)
    assert avg.modality == "average"
    assert abs(np.trace(avg.sigma) - 1.0) <= 1e-12

    da = CovarianceMatrix(np.diag([1.0, 0.0]), 5, "image", trace_normalized=True)
    db = CovarianceMatrix(np.diag([0.0, 1.0]), 5, "text", trace_normalized=True)
    assert np.allclose(average(da, db).sigma, np.diag([0.5, 0.5]))


def test_average_of_kernel_covariances_is_tagged_kernel_average():
    rng = np.random.default_rng(18)
    img = normalize_trace(kernel_of(as_matrix(rng.standard_normal((30, 4)))))
    txt = normalize_trace(kernel_of(as_matrix(rng.standard_normal((30, 4))), "text"))
    assert (img.modality, txt.modality) == ("kernel-image", "kernel-text")
    assert average(img, txt).modality == "kernel-average"
    raw_txt = normalize_trace(covariance_of(as_matrix(rng.standard_normal((30, 4))), "text"))
    with pytest.raises(PreconditionError, match="kernel"):
        average(img, raw_txt)


def test_average_preconditions():
    raw = covariance_of(as_matrix(np.random.default_rng(0).standard_normal((10, 3))), "image")
    normed = normalize_trace(raw)
    with pytest.raises(PreconditionError):
        average(raw, normed)
    other = normalize_trace(
        covariance_of(as_matrix(np.random.default_rng(1).standard_normal((10, 4))), "image")
    )
    with pytest.raises(PreconditionError):
        average(normed, other)


def test_kernel_equals_plain_covariance_on_unit_rows():
    rng = np.random.default_rng(18)
    x = rng.standard_normal((30, 5))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    kern = kernel_of(as_matrix(x))
    plain = covariance_of(as_matrix(x), "image")
    assert np.allclose(kern.sigma, plain.sigma, atol=1e-14)
    assert kern.modality == "kernel-image"


def test_kernel_invariant_to_row_rescaling():
    rng = np.random.default_rng(19)
    x = rng.standard_normal((50, 6))
    scales = rng.uniform(0.1, 100.0, size=50)[:, None]
    a = kernel_of(as_matrix(x))
    b = kernel_of(as_matrix(x * scales))
    assert np.abs(a.sigma - b.sigma).max() <= 1e-12


def test_kernel_matches_normalize_then_two_pass_oracle():
    rng = np.random.default_rng(20)
    x = rng.standard_normal((300, 8))
    kern = kernel_of(as_matrix(x))
    oracle = two_pass_covariance(x / np.linalg.norm(x, axis=1, keepdims=True))
    assert rel_frobenius(kern.sigma, oracle) < 1e-10


def test_kernel_rejects_zero_norm_row():
    x = np.ones((4, 3))
    x[2] = 0.0
    with pytest.raises(DataError, match="row 2"):
        kernel_of(as_matrix(x))
    with pytest.raises(DataError, match="row 2"):
        normalize_rows(as_matrix(x))


def test_per_class_covariances_skip_small_classes():
    # a class under 2 rows and a class of equal rows have no covariance;
    # every other class, of fewer, exactly d or more than d rows, has it as
    # a factor
    rng = np.random.default_rng(21)
    x = rng.standard_normal((22, 4))
    x[9:12] = 0.1
    labels = np.array([3, 3, 3, 3, 1, 1, 1, 1, 2, 0, 0, 0, 4, 4, 4] + [5] * 7)
    out = list(per_class_covariances(as_matrix(x, labels=labels)))
    assert [(label, n) for label, n, _ in out] == [(0, 3), (1, 4), (2, 1), (3, 4), (4, 3), (5, 7)]
    assert out[0][2] is None and out[2][2] is None
    for label, n, factor in (out[1], out[3], out[4], out[5]):
        assert factor.shape == (n, 4)
        reference = normalize_trace(covariance_of(as_matrix(x[labels == label]), "image")).sigma
        assert np.abs(factor.T @ factor - reference).max() <= 1e-15, label


def test_save_load_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(22)
    cov = normalize_trace(covariance_of(as_matrix(rng.standard_normal((40, 6))), "image"))
    save_covariance(cov, tmp_path / "sigma.npy")
    read = []
    monkeypatch.setattr(covariance, "read_npy", lambda *a, **kw: read.append(read_npy(*a, **kw)) or read[-1])
    back = load_covariance(tmp_path / "sigma.npy")
    assert back.sigma is read[0]  # the array read is handed over, not copied
    assert np.array_equal(back.sigma, cov.sigma)
    assert back.n_samples == cov.n_samples
    assert back.modality == cov.modality
    assert back.trace_normalized == cov.trace_normalized


def test_fresh_results_are_handed_over_without_a_copy(tmp_path, handed_over):
    rng = np.random.default_rng(23)
    img = covariance_of(as_matrix(rng.standard_normal((50, 6))), "image")
    txt = covariance_of(as_matrix(rng.standard_normal((40, 6))), "text")
    unit = normalize_trace(img)
    mean = average(unit, normalize_trace(txt))
    spectrum = spectral.decompose(mean)
    write_npy(tmp_path / "img.npy", rng.standard_normal((20, 6)))
    with EmbeddingDump(tmp_path / "img.npy", labels=np.arange(20) % 3) as dump:
        block = next(iter_blocks(dump))
        _, part = next(iter_classes(dump))
    # the in-memory case takes over every class's rows and labels as well
    classes = [m for _, m in iter_classes(as_matrix(rng.standard_normal((6, 6)), np.arange(6) % 2))]
    assert len(classes) == 2
    for arr in (
        img.sigma, txt.sigma, unit.sigma, mean.sigma, spectrum.eigenvalues,
        spectrum.eigenvectors, block.data, block.labels, part.data, part.labels,
        *(a for m in classes for a in (m.data, m.labels)),
    ):
        assert any(arr is h for h in handed_over)
