"""Spectral analysis: decomposition contracts and knee detection geometry."""

from __future__ import annotations

import numpy as np
import pytest

from spectrune.covariance import CovarianceMatrix, covariance_of, normalize_trace
from spectrune.errors import (
    NoKneeError,
    NumericalError,
    PreconditionError,
)
from spectrune.spectral import (
    Spectrum,
    count_noise,
    decompose,
    detect_knee,
    log_spectrum,
    noise_threshold,
)
from spectrune.store import EmbeddingMatrix
from spectrune.subspaces import noise_subspace


def cov(sigma, modality="average", normalized=False):
    return CovarianceMatrix(
        np.asarray(sigma, dtype=float),
        n_samples=100,
        modality=modality,
        trace_normalized=normalized,
    )


def spectrum_of_eigenvalues(values, modality="average"):
    """Diagonal covariance: eigenvectors are coordinate axes."""
    return decompose(cov(np.diag(np.asarray(values, dtype=float)), modality))


def random_rotation(d, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((d, d)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def test_diagonal_matrix_sorted_axes():
    s = spectrum_of_eigenvalues([3.0, 1.0, 2.0])
    assert np.allclose(s.eigenvalues, [1.0, 2.0, 3.0], atol=1e-14)
    expected = np.eye(3)[:, [1, 2, 0]]  # axes ordered by ascending eigenvalue
    assert np.allclose(s.eigenvectors, expected, atol=1e-12)


def test_rank_one_matrix():
    rng = np.random.default_rng(30)
    v = rng.standard_normal(6)
    v /= np.linalg.norm(v)
    s = decompose(cov(np.outer(v, v)))
    expected_w = np.zeros(6)
    expected_w[-1] = 1.0
    assert np.allclose(s.eigenvalues, expected_w, atol=1e-10)
    top = s.eigenvectors[:, -1]
    signed = v if v[np.argmax(np.abs(v))] > 0 else -v
    assert np.allclose(top, signed, atol=1e-8)


def test_reconstruction_and_trace_on_random_symmetric():
    # random PSD covariances, rank-deficient below 65 rows, so that some
    # roundoff-negative eigenvalues are clamped
    rng = np.random.default_rng(31)
    for _ in range(20):
        c = covariance_of(EmbeddingMatrix(rng.standard_normal((int(rng.integers(16, 128)), 64))), "image")
        a = c.sigma
        s = decompose(c)
        w, v = s.eigenvalues, s.eigenvectors
        recon = (v * w) @ v.T
        assert np.linalg.norm(recon - a) / np.linalg.norm(a) <= 1e-10
        assert abs(w.sum() - np.trace(a)) <= 1e-10
        assert np.abs(v.T @ v - np.eye(64)).max() <= 1e-8
        # sign convention: the largest-magnitude entry of each column positive
        anchors = v[np.argmax(np.abs(v), axis=0), np.arange(64)]
        assert (anchors > 0).all()


def test_eigen_residual_contract():
    rng = np.random.default_rng(32)
    c = covariance_of(EmbeddingMatrix(rng.standard_normal((80, 12))), "image")
    s = decompose(c)
    residual = c.sigma @ s.eigenvectors - s.eigenvectors * s.eigenvalues
    assert np.abs(residual).max() <= 1e-8 * s.eigenvalues.max()


def test_rotation_equivariance_of_eigenvalues():
    rng = np.random.default_rng(33)
    c = covariance_of(EmbeddingMatrix(rng.standard_normal((60, 8))), "image")
    q = random_rotation(8, 34)
    rotated = cov(q @ c.sigma @ q.T, modality="image")
    assert np.allclose(
        decompose(rotated).eigenvalues, decompose(c).eigenvalues, atol=1e-9
    )


def test_eigenvalue_sum_is_one_for_normalized_input():
    rng = np.random.default_rng(35)
    c = normalize_trace(covariance_of(EmbeddingMatrix(rng.standard_normal((90, 16))), "image"))
    assert abs(decompose(c).eigenvalues.sum() - 1.0) <= 1e-10


def test_roundoff_negatives_clamp_but_real_negatives_raise():
    q = random_rotation(4, 36)
    w_tiny = np.array([-5e-11, 0.1, 0.4, 0.5])  # within -1e-10 * trace
    nearly_psd = q @ np.diag(w_tiny) @ q.T
    s = decompose(cov((nearly_psd + nearly_psd.T) * 0.5))
    assert s.eigenvalues.min() == 0.0

    w_bad = np.array([-1e-6, 0.1, 0.4, 0.5])
    not_psd = q @ np.diag(w_bad) @ q.T
    with pytest.raises(NumericalError, match="PSD"):
        decompose(cov((not_psd + not_psd.T) * 0.5))


def test_decompose_rejects_visible_asymmetry():
    a = np.eye(3)
    a[0, 1] = 1e-3
    with pytest.raises(NumericalError, match="asymmetry"):
        decompose(cov(a))
    # within CovarianceMatrix's 1e-12: decomposed as its symmetric part
    a[0, 1] = 1e-13
    s = decompose(cov(a))
    assert np.allclose((s.eigenvectors * s.eigenvalues) @ s.eigenvectors.T, (a + a.T) * 0.5,
                       rtol=0.0, atol=1e-15)


def test_symmetry_is_enforced_once_where_the_covariance_is_stored(handed_over):
    x = np.random.default_rng(31).standard_normal((40, 24))
    exact = x.T @ x / 40  # syrk: exactly symmetric
    exact.flags.writeable = False
    near = exact.copy()
    near[3, 7] += 1e-13 * np.abs(exact).max()
    # within the 1e-12 tolerance: stored as its exactly symmetric part, built
    # in the check's own buffer and handed over without a further copy
    c = cov(near)
    assert np.array_equal(c.sigma, c.sigma.T)
    assert np.array_equal(c.sigma, (near + near.T) * 0.5)
    assert any(c.sigma is h for h in handed_over)
    # the eigensolver reads the stored matrix: the same eigenpairs, bit for
    # bit, as eigh of the symmetrized input under the sign convention
    w, v = np.linalg.eigh((near + near.T) * 0.5)
    v *= np.where(v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])] < 0, -1.0, 1.0)
    s = decompose(c)
    assert np.array_equal(s.eigenvalues, np.where(w < 0.0, 0.0, w))
    assert np.array_equal(s.eigenvectors, v)
    # an exactly symmetric input is kept as it is
    assert cov(exact).sigma is exact
    assert any(exact is h for h in handed_over)


def test_spectrum_type_validation():
    with pytest.raises(PreconditionError):
        Spectrum(np.array([2.0, 1.0]), np.eye(2))  # not ascending
    with pytest.raises(NumericalError):
        Spectrum(np.array([-1.0, 1.0]), np.eye(2))


def test_log_spectrum_examples():
    s = spectrum_of_eigenvalues([1.0, 0.01])
    assert np.allclose(log_spectrum(s), [0.0, -2.0], atol=1e-12)
    s0 = spectrum_of_eigenvalues([1.0, 0.0])
    assert log_spectrum(s0)[1] == -15.0  # LOG_FLOOR


def test_log_spectrum_two_cluster_step():
    s = spectrum_of_eigenvalues([1.0] * 10 + [1e-6] * 6)
    curve = log_spectrum(s)
    steps = np.flatnonzero(np.abs(np.diff(curve)) > 1.0)
    assert list(steps) == [9]  # single step exactly at the cluster boundary


@pytest.mark.parametrize("flat_points", [10, 11])
def test_knee_on_piecewise_linear_drop(flat_points):
    curve = np.array([0.0] * flat_points + [-3.0, -6.0])
    knee = detect_knee(curve)
    assert abs(knee - 10) <= 1


def test_knee_rejects_straight_and_constant_curves():
    with pytest.raises(NoKneeError):
        detect_knee(np.linspace(5.0, -5.0, 40))
    with pytest.raises(NoKneeError):
        detect_knee(np.zeros(10))
    # under 3 points there is no interior point to be a knee
    for short in ([1.0, 0.0], [1.0], []):
        with pytest.raises(NoKneeError, match="no interior point"):
            detect_knee(np.array(short))


def test_knee_preconditions():
    with pytest.raises(PreconditionError):
        detect_knee(np.array([0.0, 1.0, 0.5]))
    with pytest.raises(PreconditionError):
        detect_knee(np.array([0.0, 1.0]))  # increasing, however short
    with pytest.raises(PreconditionError):
        detect_knee(np.zeros((3, 3)))


def test_knee_invariant_to_vertical_shift():
    rng = np.random.default_rng(37)
    curve = -np.sort(rng.uniform(0, 1, size=30))
    curve[12:] -= 4.0  # plant a drop
    assert detect_knee(curve) == detect_knee(curve + 123.456)


def test_knee_recovers_planted_noise_count():
    rng = np.random.default_rng(38)
    x = rng.standard_normal((4000, 64)) * np.sqrt(
        np.concatenate([np.full(54, 1.0), np.full(10, 1e-5)])
    )
    q = random_rotation(64, 39)
    m = EmbeddingMatrix(x @ q.T)
    s = decompose(normalize_trace(covariance_of(m, "image")))
    cutoff, _ = noise_threshold([s])
    assert abs(count_noise(s, cutoff) - 10) <= 2


def test_threshold_single_spectrum_is_its_own_knee():
    s = spectrum_of_eigenvalues([1e-9] * 5 + [10 ** -3.2] * 20)
    curve = log_spectrum(s)
    knee = detect_knee(curve)
    cutoff, knees = noise_threshold([s])
    assert cutoff == pytest.approx(curve[knee], abs=1e-12)
    assert knees == (cutoff,)
    assert count_noise(s, cutoff) == 5


def test_threshold_takes_minimum_across_spectra():
    a = spectrum_of_eigenvalues([1e-9] * 5 + [10 ** -3.2] * 20)
    b = spectrum_of_eigenvalues([1e-9] * 5 + [10 ** -3.8] * 20)
    cutoff, knees = noise_threshold([a, b])
    assert cutoff == pytest.approx(-3.8, abs=1e-9)
    assert cutoff == min(knees)
    assert count_noise(a, cutoff) == 5  # five target eigenvalues below -3.8
    assert knees == pytest.approx((-3.2, -3.8), abs=1e-9)


def test_threshold_propagates_no_knee_with_identity():
    flat = spectrum_of_eigenvalues([0.25, 0.25, 0.25, 0.25], modality="image")
    with pytest.raises(NoKneeError, match="spectrum 0"):
        noise_threshold([flat])
    # a spectrum too short for a knee is named too, at its place in the list
    short = spectrum_of_eigenvalues([0.9, 0.1], modality="text")
    with pytest.raises(NoKneeError, match=r"spectrum 1 \(text\(n=100\)\): a curve of 2 points"):
        noise_threshold([spectrum_of_eigenvalues([1e-9] * 5 + [1e-3] * 20), short])
    with pytest.raises(PreconditionError):
        noise_threshold([])


def test_noise_count_monotone_in_threshold():
    s = spectrum_of_eigenvalues(np.logspace(-8, 0, 30))
    cuts = np.linspace(-9, 1, 50)
    counts = [count_noise(s, c) for c in cuts]
    assert all(a <= b for a, b in zip(counts, counts[1:]))


def test_count_noise_counts_strictly_below():
    s = spectrum_of_eigenvalues([1.0, 1e-4, 1e-5])
    assert count_noise(s, -3.6) == 2
    assert noise_subspace(s, -3.6).p == 2
    # an eigenvalue exactly at the cutoff is signal
    exact = spectrum_of_eigenvalues([1.0, 10 ** -3.6])
    assert count_noise(exact, np.log10(10 ** -3.6)) == 0
