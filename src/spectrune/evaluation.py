"""Downstream evaluation: zero-shot scoring, alignment deltas, seeded
random-direction ablations, activation ranking, and synthetic fixtures.

All randomness flows through numpy's Philox generator (counter-based), and
ablation trial t draws from ``Philox([seed, t])``, so serial and threaded
runs of the same seed produce identical results down to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from spectrune.covariance import normalize_rows
from spectrune.errors import (
    DimError,
    PreconditionError,
)
from spectrune.spectral import Spectrum
from spectrune.store import EmbeddingDump, EmbeddingMatrix, ordered_map
from spectrune.subspaces import Subspace, remove_component

# projected vectors shorter than this have no defined cosine
NORM_EPS = 1e-12


@dataclass(frozen=True)
class ZeroShotTask:
    """Classification by nearest class prototype under cosine similarity.

    ``class_prototypes`` holds one text embedding per class (labels are the
    class ids, unique); ``queries`` are image embeddings with ground-truth
    labels drawn from the same id set; ``k`` is the top-k cutoff.
    """

    class_prototypes: EmbeddingMatrix
    queries: EmbeddingMatrix
    k: int

    def __post_init__(self) -> None:
        protos, queries = self.class_prototypes, self.queries
        if protos.labels is None or queries.labels is None:
            raise PreconditionError("prototypes and queries both need labels")
        if np.unique(protos.labels).size != protos.n:
            raise PreconditionError("prototype labels must be unique")
        if not np.isin(queries.labels, protos.labels).all():
            raise PreconditionError("every query label needs a prototype")
        if protos.d != queries.d:
            raise DimError(f"width mismatch: {protos.d} vs {queries.d}")
        if not 1 <= self.k <= protos.n:
            raise PreconditionError(
                f"need 1 <= k <= {protos.n} classes, got k={self.k}"
            )

    @property
    def d(self) -> int:
        return self.class_prototypes.d


@dataclass(frozen=True)
class AlignmentDeltaReport:
    """Per-pair change in cosine similarity caused by a projection.

    ``per_pair`` has one entry per input pair, NaN where a projected vector
    degenerated (norm < 1e-12); such pairs are excluded from the mean and
    counted in ``n_undefined``.
    """

    mean_delta: float
    per_pair: np.ndarray
    n_undefined: int = 0


@dataclass(frozen=True)
class EvalReport:
    """Serializable evaluation results. A NaN ``mean_cos_delta`` (no pair
    survived the projection) is reported as undefined, like None."""

    top_k_accuracy: float
    mean_cos_delta: float | None
    ablation_samples: np.ndarray
    seed: int

    def __post_init__(self) -> None:
        samples = np.asarray(self.ablation_samples, dtype=np.float64)
        if samples.size and (samples.min() < 0.0 or samples.max() > 1.0):
            raise PreconditionError("ablation accuracies must lie in [0, 1]")
        if not 0.0 <= self.top_k_accuracy <= 1.0:
            raise PreconditionError("top_k_accuracy must lie in [0, 1]")
        object.__setattr__(self, "ablation_samples", samples)

    def to_dict(self) -> dict:
        return {
            "top_k_accuracy": float(self.top_k_accuracy),
            "mean_cos_delta": (
                None
                if self.mean_cos_delta is None or np.isnan(self.mean_cos_delta)
                else float(self.mean_cos_delta)
            ),
            "ablation_samples": [float(a) for a in self.ablation_samples],
            "seed": int(self.seed),
        }


def _unit_rows(x: np.ndarray) -> np.ndarray:
    """Scale rows to unit norm; zero rows stay zero (cosine 0 everywhere)."""
    norms = np.linalg.norm(x, axis=1)
    return x / np.where(norms == 0.0, 1.0, norms)[:, None]


def _topk_hits(
    queries: np.ndarray,
    true_labels: np.ndarray,
    protos: np.ndarray,
    proto_labels: np.ndarray,
    k: int,
) -> float:
    """Core scorer. Prototypes must already be sorted by ascending class id
    so that the stable argsort breaks similarity ties toward smaller ids."""
    sims = _unit_rows(queries) @ _unit_rows(protos).T
    top = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    hits = (proto_labels[top] == true_labels[:, None]).any(axis=1)
    return float(hits.mean())


def zero_shot_topk(
    task: ZeroShotTask,
    noise: Subspace | None = None,
    project_prototypes: bool = True,
) -> float:
    """Fraction of queries whose true class is among the k most cosine-
    similar prototypes. Ties are broken toward the smaller class id, which
    makes the score deterministic.

    ``noise``, when given, is removed from the queries and (by default)
    the prototypes before scoring; ``None`` is the unprojected baseline.
    """
    if task.queries.n < 1:
        raise PreconditionError("no queries to score")
    q = task.queries.data
    p = task.class_prototypes.data
    if noise is not None:
        if noise.d != task.d:
            raise DimError(f"subspace width {noise.d} does not match d={task.d}")
        q = remove_component(q, noise.basis)
        if project_prototypes:
            p = remove_component(p, noise.basis)
    order = np.argsort(task.class_prototypes.labels)
    return _topk_hits(
        q, task.queries.labels, p[order], task.class_prototypes.labels[order], task.k
    )


def _row_cosines(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Rowwise cosines plus a mask of pairs where both norms are usable."""
    na = np.linalg.norm(a, axis=1)
    nb = np.linalg.norm(b, axis=1)
    defined = (na >= NORM_EPS) & (nb >= NORM_EPS)
    denom = np.where(defined, na * nb, 1.0)
    cos = np.clip(np.sum(a * b, axis=1) / denom, -1.0, 1.0)
    return np.where(defined, cos, np.nan), defined


def alignment_delta(
    pairs_img: EmbeddingMatrix,
    pairs_txt: EmbeddingMatrix,
    noise: Subspace,
) -> AlignmentDeltaReport:
    """Change in matched-pair cosine similarity after removing a subspace.

    Row i of each matrix is a matched pair. Cosines are computed on
    re-normalized projected vectors; a pair where any projected vector
    drops below norm 1e-12 is excluded and counted.
    """
    if pairs_img.n != pairs_txt.n:
        raise PreconditionError(
            f"pair counts differ: {pairs_img.n} vs {pairs_txt.n}"
        )
    if pairs_img.d != pairs_txt.d:
        raise DimError(f"width mismatch: {pairs_img.d} vs {pairs_txt.d}")
    if noise.d != pairs_img.d:
        raise DimError(f"subspace width {noise.d} does not match d={pairs_img.d}")
    before, before_ok = _row_cosines(pairs_img.data, pairs_txt.data)
    after, after_ok = _row_cosines(
        remove_component(pairs_img.data, noise.basis),
        remove_component(pairs_txt.data, noise.basis),
    )
    defined = before_ok & after_ok
    per_pair = np.where(defined, after - before, np.nan)
    mean = float(per_pair[defined].mean()) if defined.any() else float("nan")
    return AlignmentDeltaReport(
        mean_delta=mean,
        per_pair=per_pair,
        n_undefined=int((~defined).sum()),
    )


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """Philox substream for one trial; identical regardless of execution
    order, which is what makes threaded ablations reproducible."""
    return np.random.Generator(np.random.Philox([seed, trial]))


def _orthonormal(a: np.ndarray) -> np.ndarray:
    """Q of the QR factorization of ``a``, signed so that R has a
    nonnegative diagonal: for a seeded Gaussian ``a``, a reproducible
    Haar-random orthonormal basis of its column span."""
    q, r = np.linalg.qr(a)
    return q * np.where(np.diag(r) < 0, -1.0, 1.0)


def _ablate(
    task: ZeroShotTask,
    p: int,
    trials: int,
    seed: int,
    threads: int,
    draw: Callable[[np.random.Generator], np.ndarray],
) -> np.ndarray:
    """Accuracy after removing the span of ``draw(trial_rng(seed, t))``, a
    d-by-p orthonormal basis, from queries and prototypes, for each trial
    t; ordered by trial index whatever the thread count."""
    if trials < 1:
        raise PreconditionError(f"need trials >= 1, got {trials}")
    if not 1 <= p < task.d:
        raise PreconditionError(f"need 1 <= p < d={task.d}, got p={p}")

    order = np.argsort(task.class_prototypes.labels)
    protos = task.class_prototypes.data[order]
    proto_labels = task.class_prototypes.labels[order]

    def run_trial(t: int) -> float:
        sub = draw(trial_rng(seed, t))
        return _topk_hits(
            remove_component(task.queries.data, sub),
            task.queries.labels,
            remove_component(protos, sub),
            proto_labels,
            task.k,
        )

    return np.asarray(ordered_map(run_trial, range(trials), threads), dtype=np.float64)


def random_ablation(
    task: ZeroShotTask,
    spectrum: Spectrum,
    p: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Accuracy distribution when p random eigenvector directions are
    removed, repeated over seeded trials.

    Each trial samples p distinct columns of the spectrum's eigenvector
    basis without replacement, removes their span from queries and
    prototypes, and rescores. Returns one accuracy per trial, ordered by
    trial index.
    """
    if spectrum.d != task.d:
        raise DimError(f"spectrum width {spectrum.d} != task width {task.d}")
    basis = spectrum.eigenvectors
    return _ablate(
        task, p, trials, seed, threads,
        lambda rng: basis[:, np.sort(rng.choice(task.d, size=p, replace=False))],
    )


def haar_random_ablation(
    task: ZeroShotTask,
    p: int,
    trials: int,
    seed: int,
    threads: int = 1,
) -> np.ndarray:
    """Variant that removes Haar-random p-dimensional subspaces (QR of a
    seeded Gaussian matrix) instead of eigenvector columns. Explicitly not
    the headline ablation; provided for robustness studies."""
    return _ablate(
        task, p, trials, seed, threads,
        lambda rng: _orthonormal(rng.standard_normal((task.d, p))),
    )


@dataclass(frozen=True)
class Activation:
    """One row's activation inside a subspace (norm of its projection
    after unit-normalizing the row)."""

    row_index: int
    norm: float


def rank_activations(
    m: EmbeddingMatrix | EmbeddingDump, noise: Subspace, top: int
) -> list[Activation]:
    """Rows most activated inside a subspace.

    Rows are unit-normalized, scored by the norm of their component inside
    the span, and returned in descending score order (ties: ascending row
    index). A dump is scored one block at a time, so only the n scores
    are held whole.

    Raises:
        DataError: a row has zero norm.
        PreconditionError: top out of range.
    """
    if not 1 <= top <= m.n:
        raise PreconditionError(f"need 1 <= top <= {m.n}, got {top}")
    if m.d != noise.d:
        raise DimError(f"embedding width {m.d} != subspace width {noise.d}")
    scores = np.concatenate(
        [
            np.linalg.norm(normalize_rows(block).data @ noise.basis, axis=1)
            for block in m.blocks()
        ]
    )
    order = np.lexsort((np.arange(m.n), -scores))
    return [Activation(int(i), float(scores[i])) for i in order[:top]]


# --- synthetic fixtures ---


@dataclass(frozen=True)
class SyntheticBenchmark:
    """Everything the end-to-end pipeline needs from one seeded draw: a
    corpus for covariance estimation, a zero-shot task whose prototypes
    live entirely in the signal span, and matched pairs that share their
    signal component but carry independent noise."""

    img: EmbeddingMatrix
    txt: EmbeddingMatrix
    planted: Subspace
    task: ZeroShotTask
    pairs_img: EmbeddingMatrix
    pairs_txt: EmbeddingMatrix
    rotation: np.ndarray | None = field(repr=False, default=None)


def synth_benchmark(
    n: int = 10_000,
    d: int = 128,
    p: int = 20,
    signal_var: float = 1.0,
    noise_var: float = 1e-5,
    n_classes: int = 50,
    queries_per_class: int = 20,
    k: int = 5,
    query_jitter: float = 3.5,
    query_noise: float = 0.3,
    n_pairs: int = 500,
    pair_noise: float = 0.5,
    gap: np.ndarray | None = None,
    seed: int = 0,
) -> SyntheticBenchmark:
    """Seeded synthetic benchmark with a planted noise span.

    The corpus modalities (img/txt) are independent Gaussian draws with
    covariance Q diag(signal_var * (d-p), noise_var * p) Q^T for a seeded
    random rotation Q; the planted subspace is the last p columns of Q.
    ``gap``, when given, is added to the image rows to emulate a constant
    offset between modalities. ``noise_var == signal_var`` is allowed: it
    produces the isotropic corpus on which knee detection must find
    nothing.

    Task queries are class prototype + signal-span jitter + noise-span
    component, so a projection that removes (a good estimate of) the
    planted span leaves every similarity ranking unchanged, while removing
    random eigenvector directions damages the signal. Pair rows share an
    identical signal component and differ only inside the noise span.
    """
    if n < 1:
        raise PreconditionError(f"need n >= 1, got {n}")
    if not 1 <= p < d:
        raise PreconditionError(f"need 1 <= p < d, got p={p}, d={d}")
    if not 0.0 < noise_var <= signal_var:
        raise PreconditionError(
            f"need 0 < noise_var <= signal_var, got {noise_var} vs {signal_var}"
        )
    if n_classes < 2 or queries_per_class < 1:
        raise PreconditionError("need at least 2 classes and 1 query per class")
    rng = np.random.Generator(np.random.Philox([seed]))
    rotation = _orthonormal(rng.standard_normal((d, d)))
    signal_basis = rotation[:, : d - p]
    noise_basis = rotation[:, d - p :]
    source = f"synth(seed={seed},d={d},p={p})"

    scales = np.sqrt(
        np.concatenate([np.full(d - p, signal_var), np.full(p, noise_var)])
    )
    img = (rng.standard_normal((n, d)) * scales) @ rotation.T
    txt = (rng.standard_normal((n, d)) * scales) @ rotation.T
    if gap is not None:
        gap = np.asarray(gap, dtype=np.float64)
        if gap.shape != (d,):
            raise PreconditionError(f"gap must have shape ({d},), got {gap.shape}")
        img = img + gap

    protos = _unit_rows(rng.standard_normal((n_classes, d - p))) @ signal_basis.T
    n_queries = n_classes * queries_per_class
    query_labels = np.repeat(np.arange(n_classes), queries_per_class)
    jitter = rng.standard_normal((n_queries, d - p)) * (
        query_jitter / np.sqrt(d - p)
    )
    noise_part = rng.standard_normal((n_queries, p)) * (query_noise / np.sqrt(p))
    queries = (
        protos[query_labels] + jitter @ signal_basis.T + noise_part @ noise_basis.T
    )
    task = ZeroShotTask(
        class_prototypes=EmbeddingMatrix(
            protos,
            modality="text",
            labels=np.arange(n_classes),
            source=f"{source} prototypes",
        ),
        queries=EmbeddingMatrix(
            queries, modality="image", labels=query_labels, source=f"{source} queries"
        ),
        k=k,
    )

    shared = _unit_rows(rng.standard_normal((n_pairs, d - p))) @ signal_basis.T
    pair_noise_scale = pair_noise / np.sqrt(p)
    pairs_img = shared + (
        rng.standard_normal((n_pairs, p)) * pair_noise_scale
    ) @ noise_basis.T
    pairs_txt = shared + (
        rng.standard_normal((n_pairs, p)) * pair_noise_scale
    ) @ noise_basis.T

    return SyntheticBenchmark(
        img=EmbeddingMatrix(img, modality="image", source=source),
        txt=EmbeddingMatrix(txt, modality="text", source=source),
        planted=Subspace(noise_basis, origin=f"{source} planted noise span"),
        task=task,
        pairs_img=EmbeddingMatrix(
            pairs_img, modality="image", source=f"{source} pairs"
        ),
        pairs_txt=EmbeddingMatrix(pairs_txt, modality="text", source=f"{source} pairs"),
        rotation=rotation,
    )
