"""Subspace overlap metric, projections, and per-class analyses."""

from __future__ import annotations

import numpy as np
import pytest

from spectrune import subspaces
from spectrune.covariance import (
    CovarianceMatrix,
    covariance_of,
    normalize_trace,
    per_class_covariances,
)
from spectrune.errors import (
    DimError,
    EmptySubspaceError,
    MissingLabelsError,
    NumericalError,
    PreconditionError,
)
from spectrune.cli import _cell, main
from spectrune.npy import read_npy, write_npy
from spectrune.spectral import LOG_FLOOR, decompose
from spectrune.store import EmbeddingMatrix, save_label_file
from spectrune.subspaces import (
    Subspace,
    apply_removal,
    class_overlap,
    class_spectrum_distance,
    load_subspace,
    mscsa,
    noise_subspace,
    per_class_overlap,
    projection_remove,
    remove_component,
    save_subspace,
)


def axes(d, cols):
    return Subspace(np.eye(d)[:, list(cols)])


def random_subspace(d, p, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, p)))
    return Subspace(q * np.where(np.diag(r) < 0, -1.0, 1.0))


def random_rotation(d, rng):
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def test_subspace_validation():
    with pytest.raises(NumericalError):
        Subspace(np.ones((4, 2)))
    with pytest.raises(PreconditionError):
        Subspace(np.zeros((4, 0)))
    with pytest.raises(PreconditionError):
        Subspace(np.ones((4, 2, 1)))


def test_mscsa_identical_orthogonal_and_45_degrees():
    assert mscsa(axes(4, [0, 1]), axes(4, [0, 1])).mscsa == pytest.approx(1.0, abs=1e-10)
    assert mscsa(axes(4, [0, 1]), axes(4, [2, 3])).mscsa == pytest.approx(0.0, abs=1e-10)
    diagonal = Subspace(np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2.0))
    assert mscsa(axes(3, [0]), diagonal).mscsa == pytest.approx(0.5, abs=1e-10)


def test_mscsa_symmetry_and_rotation_invariance():
    rng = np.random.default_rng(40)
    for _ in range(50):
        a = random_subspace(12, 3, rng)
        b = random_subspace(12, 3, rng)
        ab, ba = mscsa(a, b).mscsa, mscsa(b, a).mscsa
        assert abs(ab - ba) <= 1e-12
        q = random_rotation(12, rng)
        rotated = mscsa(Subspace(q @ a.basis), Subspace(q @ b.basis)).mscsa
        assert abs(rotated - ab) <= 1e-9
        assert 0.0 <= ab <= 1.0


def test_mscsa_invariant_to_basis_reparameterization():
    rng = np.random.default_rng(41)
    a = random_subspace(10, 4, rng)
    b = random_subspace(10, 4, rng)
    reference = mscsa(a, b).mscsa
    for _ in range(10):
        ra = random_rotation(4, rng)
        rb = random_rotation(4, rng)
        again = mscsa(Subspace(a.basis @ ra), Subspace(b.basis @ rb)).mscsa
        assert abs(again - reference) <= 1e-9
    # same span, different basis: still exactly 1
    assert mscsa(a, Subspace(a.basis @ random_rotation(4, rng))).mscsa == pytest.approx(
        1.0, abs=1e-9
    )


def test_mscsa_dimension_mismatch_flag_and_errors():
    report = mscsa(axes(5, [0, 1, 2]), axes(5, [0]))
    assert report.dims_mismatch
    assert report.principal_cosines.shape == (1,)
    assert report.mscsa == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(DimError):
        mscsa(axes(4, [0]), axes(5, [0]))


def test_mscsa_expectation_for_random_pairs():
    # oracle: E[mscsa] between independent uniform p-dim subspaces in R^d
    # is p/d (Monte Carlo check at generous tolerance)
    rng = np.random.default_rng(42)
    d, p = 64, 8
    values = [
        mscsa(random_subspace(d, p, rng), random_subspace(d, p, rng)).mscsa
        for _ in range(300)
    ]
    assert np.mean(values) == pytest.approx(p / d, abs=0.015)


def test_projection_axis_example():
    p = projection_remove(axes(2, [0]))
    assert np.allclose(p, np.diag([0.0, 1.0]), atol=1e-15)


def test_projection_empty_basis_is_identity():
    assert np.array_equal(projection_remove(np.zeros((5, 0))), np.eye(5))


def test_projection_contracts():
    rng = np.random.default_rng(43)
    for _ in range(100):
        v = random_subspace(16, rng.integers(1, 8), rng)
        p = projection_remove(v)
        x = rng.standard_normal(16)
        assert np.abs(p @ p - p).max() <= 1e-10
        assert np.abs(p @ v.basis).max() <= 1e-10
        px = p @ x
        inside = v.basis @ (v.basis.T @ x)
        assert abs(x @ x - (px @ px + inside @ inside)) <= 1e-10
        # factored and explicit application agree
        assert np.abs(px - remove_component(x[None, :], v.basis)[0]).max() <= 1e-12
        assert np.linalg.matrix_rank(p) == 16 - v.p


def test_apply_projection_matches_apply_removal():
    rng = np.random.default_rng(44)
    m = EmbeddingMatrix(rng.standard_normal((30, 10)), labels=rng.integers(0, 3, 30))
    v = random_subspace(10, 4, rng)
    explicit = m.data @ projection_remove(v).T
    factored = apply_removal(v, m)
    assert np.abs(explicit - factored.data).max() <= 1e-12
    assert np.array_equal(factored.labels, m.labels)
    with pytest.raises(DimError):
        apply_removal(random_subspace(9, 4, rng), m)


def test_noise_subspace_from_threshold():
    s = decompose(
        CovarianceMatrix(np.diag([1.0, 1e-6]), n_samples=10, modality="average")
    )
    sub = noise_subspace(s, -3.6)
    assert sub.p == 1
    assert np.allclose(np.abs(sub.basis[:, 0]), [0.0, 1.0], atol=1e-12)
    assert sub.origin == f"{s.source} eigenvalues[0:1] below 10^-3.6"

    high = decompose(
        CovarianceMatrix(np.diag([1.0, 0.5]), n_samples=10, modality="average")
    )
    with pytest.raises(EmptySubspaceError):
        noise_subspace(high, -3.6)
    # a cutoff above the whole spectrum would flag every dimension
    with pytest.raises(PreconditionError, match=r"lies above the whole spectrum .*\(2 of 2 flagged\)"):
        noise_subspace(high, 0.5)


def test_per_class_overlap_reads_the_lowest_k_eigenvectors():
    s = decompose(
        CovarianceMatrix(np.diag([1.0, 2.0, 3.0]), n_samples=10, modality="average")
    )
    # the class's lowest-2 span is axes {0, 1}
    assert per_class_overlap(s, axes(3, [0, 1])) == pytest.approx(1.0, abs=1e-12)
    assert per_class_overlap(s, axes(3, [1, 2])) == pytest.approx(0.5, abs=1e-12)


def _planted_class_data(seed, d=16, p=4, classes=3, per_class=40):
    """Classes whose rows live exactly in the signal span: every class's
    covariance has an exact null space equal to the planted noise span."""
    rng = np.random.default_rng(seed)
    q = random_rotation(d, rng)
    signal, noise = q[:, : d - p], q[:, d - p :]
    rows, labels = [], []
    for c in range(classes):
        center = rng.standard_normal(d - p) * 3.0
        rows.append((center + rng.standard_normal((per_class, d - p))) @ signal.T)
        labels.extend([c] * per_class)
    m = EmbeddingMatrix(np.vstack(rows), labels=np.asarray(labels))
    return m, Subspace(noise)


def class_spectra(m, noise):
    """Each class's overlap and eigenvalues, from the factor that
    ``per_class_covariances`` yields for it, as class-overlap takes them."""
    return {label: class_overlap(factor, noise) for label, _, factor in per_class_covariances(m)}


def class_overlaps(m, noise):
    return {label: overlap for label, (overlap, _) in class_spectra(m, noise).items()}


def class_eigenvalues(m):
    # every class here has at least d rows: the basis only names the width
    return {label: w for label, (_, w) in class_spectra(m, axes(m.d, [0])).items()}


def test_per_class_overlap_on_planted_null_space():
    m, planted = _planted_class_data(seed=45)
    overlaps = class_overlaps(m, planted)
    assert set(overlaps) == {0, 1, 2}
    for value in overlaps.values():
        assert value == pytest.approx(1.0, abs=1e-8)


def test_per_class_overlap_is_nan_where_the_lowest_k_span_is_undefined():
    # n_c <= d - k rows give rank <= d - k - 1, so more than k null directions;
    # one more row leaves exactly k of them, and the span is defined again
    rng = np.random.default_rng(49)
    d, k = 12, 4
    sizes = {0: d - k, 1: d - k + 1, 2: 60}
    data = rng.standard_normal((sum(sizes.values()), d))
    labels = np.repeat(list(sizes), list(sizes.values()))
    noise = random_subspace(d, k, rng)
    runs = []
    for scale in (1.0, 1.0 + 1e-13):
        m = EmbeddingMatrix(data * scale, labels=labels)
        overlaps = class_overlaps(m, noise)
        assert np.isnan(overlaps[0])
        assert 0.0 <= overlaps[1] <= 1.0
        assert 0.0 <= overlaps[2] <= 1.0
        runs.append([overlaps[1], overlaps[2]])
    assert runs[0] == pytest.approx(runs[1], abs=1e-9)


def test_per_class_overlap_requires_labels_and_matching_width():
    m, planted = _planted_class_data(seed=46)
    unlabeled = EmbeddingMatrix(m.data)
    classes = per_class_covariances(unlabeled)  # raises only when iterated
    with pytest.raises(MissingLabelsError):
        next(classes)
    part = EmbeddingMatrix(m.data[:40], m.labels[:40])
    with pytest.raises(DimError):
        per_class_overlap(decompose(normalize_trace(covariance_of(part, "image"))), axes(4, [0]))
    # a class of more and one of fewer than d rows, each checked before it
    # is decomposed
    for rows in (40, 3):
        [(_, _, factor)] = per_class_covariances(
            EmbeddingMatrix(m.data[:rows], m.labels[:rows])
        )
        with pytest.raises(DimError):
            class_overlap(factor, axes(4, [0]))


def _reference_class(part, noise):
    """The d x d reference: decompose the trace-normalized covariance."""
    spectrum = decompose(normalize_trace(covariance_of(part, "image")))
    return per_class_overlap(spectrum, noise), spectrum.eigenvalues


@pytest.mark.parametrize("n_c", [2, 8, 9, 11, 12], ids=["2", "d-k", "d-k+1", "d-1", "d"])
def test_small_classes_match_the_d_by_d_reference(n_c, monkeypatch):
    # d 12, k 4: a class of n_c <= d - k rows skips the d x d decomposition,
    # and one of more rows is decomposed as its factor's d x d F^T F; next
    # to them, a 3-row class and a 40-row class for the distances
    rng = np.random.default_rng(60 + n_c)
    d, k = 12, 4
    sizes = {0: n_c, 1: 3, 2: 40}
    data = rng.standard_normal((sum(sizes.values()), d)) * rng.uniform(0.2, 3.0, size=d)
    labels = np.repeat(list(sizes), list(sizes.values()))
    m = EmbeddingMatrix(data, labels=labels)
    noise = random_subspace(d, k, rng)
    solved = []  # the size of every matrix an eigensolver takes
    for name in ("eigh", "eigvalsh"):
        def counted(a, *args, _solver=getattr(np.linalg, name), **kwargs):
            solved.append(a.shape[0])
            return _solver(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    got = class_spectra(m, noise)
    monkeypatch.undo()
    assert solved.count(d) == 1 + (n_c > d - k)
    want = {
        label: _reference_class(EmbeddingMatrix(data[labels == label]), noise)
        for label in sizes
    }
    for label in sizes:
        (overlap, w), (ref_overlap, ref_w) = got[label], want[label]
        assert np.isnan(overlap) == np.isnan(ref_overlap) == (sizes[label] <= d - k)
        if not np.isnan(overlap):
            assert overlap == pytest.approx(ref_overlap, abs=1e-9)
        assert np.abs(w - ref_w).max() <= 1e-9
    distances = class_spectrum_distance({label: w for label, (_, w) in got.items()})
    reference = class_spectrum_distance({label: w for label, (_, w) in want.items()})
    assert np.abs(distances.distances - reference.distances).max() <= 1e-9


def test_class_spectrum_distance_identical_and_scaled_classes():
    rng = np.random.default_rng(47)
    block = rng.standard_normal((30, 6))
    data = np.vstack([block, block, block * 10.0])
    labels = np.array([0] * 30 + [1] * 30 + [2] * 30)
    result = class_spectrum_distance(
        class_eigenvalues(EmbeddingMatrix(data, labels=labels))
    )
    assert result.labels == (0, 1, 2)
    assert np.allclose(np.diag(result.distances), 0.0)
    assert np.allclose(result.distances, result.distances.T)
    # identical rows and a pure rescaling both give distance 0
    assert result.distances[0, 1] == pytest.approx(0.0, abs=1e-9)
    assert result.distances[0, 2] == pytest.approx(0.0, abs=1e-9)


def test_class_spectrum_distance_is_pseudometric_on_samples():
    rng = np.random.default_rng(48)
    data = rng.standard_normal((200, 8)) * rng.uniform(0.5, 2.0, size=8)
    labels = rng.integers(0, 5, size=200)
    result = class_spectrum_distance(
        class_eigenvalues(EmbeddingMatrix(data, labels=labels))
    )
    dist = result.distances
    n = dist.shape[0]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                assert dist[i, j] <= dist[i, k] + dist[k, j] + 1e-9


def test_class_spectrum_distance_matches_broadcast_oracle_bytes():
    # oracle: the full C x C x d broadcast, every ordered pair, symmetrized,
    # with a zero diagonal, and NaN rows and columns for the classes without
    # a spectrum. At d 140 numpy sums in blocks; ten classes have fewer rows
    # than d and take the Gram route
    rng = np.random.default_rng(51)
    d = 140
    labels = rng.permutation(np.concatenate([np.arange(20).repeat(150), np.arange(20, 30).repeat(60)]))
    data = rng.standard_normal((labels.size, d)) * rng.uniform(0.1, 3.0, size=d)
    spectra = class_spectra(EmbeddingMatrix(data, labels=labels), axes(d, [0]))
    eigenvalues = {**{label: w for label, (_, w) in spectra.items()}, 3: None, 17: None, 40: None}
    defined, curves = [], []
    for i, label in enumerate(sorted(eigenvalues)):
        if eigenvalues[label] is not None:
            vec = np.log10(np.maximum(eigenvalues[label], LOG_FLOOR))
            defined.append(i)
            curves.append(vec - vec.mean())
    stack = np.asarray(curves)
    diff = stack[:, None, :] - stack[None, :, :]
    square = np.sqrt(np.mean(diff**2, axis=2))
    square = (square + square.T) * 0.5
    np.fill_diagonal(square, 0.0)
    expected = np.full((31, 31), np.nan)
    expected[np.ix_(defined, defined)] = square
    result = class_spectrum_distance(eigenvalues)
    assert result.labels == tuple(range(30)) + (40,)
    assert result.distances.tobytes() == expected.tobytes()


def test_class_spectrum_distance_leaves_classes_without_a_spectrum_undefined():
    rng = np.random.default_rng(52)
    data = rng.standard_normal((300, 6)) * rng.uniform(0.1, 3.0, size=6)
    eigenvalues = class_eigenvalues(
        EmbeddingMatrix(data, labels=rng.integers(0, 6, size=300))
    )
    full = class_spectrum_distance(eigenvalues).distances
    result = class_spectrum_distance({**eigenvalues, 1: None, 4: None, 9: None})
    assert result.labels == (0, 1, 2, 3, 4, 5, 9)
    # a defined pair keeps its bytes; classes 1, 4 and 9 read NaN throughout
    defined, undefined = [0, 2, 3, 5], [1, 4, 6]
    got = result.distances[np.ix_(defined, defined)]
    assert got.tobytes() == full[np.ix_(defined, defined)].tobytes()
    nan = np.isnan(result.distances)
    assert nan[undefined].all() and nan[:, undefined].all()
    assert nan.sum() == 7 * 7 - 4 * 4
    # no class has a spectrum: every cell is NaN, and nothing warns
    assert np.isnan(class_spectrum_distance({0: None, 3: None}).distances).all()


def test_class_overlap_csvs_hold_the_cell_text_of_every_value(tmp_path):
    rng = np.random.default_rng(55)
    d = 12
    data = rng.standard_normal((400, d)) * rng.uniform(0.1, 3.0, size=d)
    labels = rng.integers(0, 25, size=400)
    labels[:3] = [30, 31, 31]  # a one-row class and a class of two equal rows
    data[2] = data[1]
    basis = random_subspace(d, 3, rng)
    write_npy(tmp_path / "queries.npy", data)
    save_label_file(labels, tmp_path / "queries_labels.npy")
    save_subspace(basis, tmp_path / "noise_basis.npy")
    assert main(["class-overlap", "--out", str(tmp_path)]) == 0

    spectra = class_spectra(EmbeddingMatrix(data, labels=labels), basis)
    counts = np.bincount(labels)
    overlap = ["label,n_samples,mscsa"] + [
        f"{label},{counts[label]},{_cell(value)}" for label, (value, _) in spectra.items()
    ]
    assert (tmp_path / "class_overlap.csv").read_text() == "\n".join(overlap) + "\n"
    distances = class_spectrum_distance({label: w for label, (_, w) in spectra.items()})
    table = [",".join(["label"] + [str(label) for label in distances.labels])] + [
        ",".join([str(label)] + [_cell(x) for x in row])
        for label, row in zip(distances.labels, distances.distances)
    ]
    assert (tmp_path / "class_spectrum_distance.csv").read_text() == "\n".join(table) + "\n"
    assert ",," in table[-1] and "0.0" in table[1]


def test_subspace_save_load_round_trip(tmp_path, monkeypatch):
    rng = np.random.default_rng(50)
    sub = random_subspace(8, 3, rng)
    save_subspace(sub, tmp_path / "basis.npy")
    read = []
    monkeypatch.setattr(subspaces, "read_npy", lambda *a, **kw: read.append(read_npy(*a, **kw)) or read[-1])
    back = load_subspace(tmp_path / "basis.npy")
    assert back.basis is read[0]  # the array read is handed over, not copied
    assert np.array_equal(back.basis, sub.basis)
    assert back.origin == sub.origin
