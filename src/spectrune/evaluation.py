"""Downstream evaluation: zero-shot scoring, alignment deltas, seeded
random-direction ablations, activation ranking, and synthetic fixtures.

All randomness flows through numpy's Philox generator (counter-based), and
ablation trial t draws from ``Philox([seed, t])``, so serial and threaded
runs of the same seed produce identical results down to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from spectrune.covariance import normalize_rows
from spectrune.errors import DimError, PreconditionError
from spectrune.npy import BLOCK_ROWS
from spectrune.spectral import Spectrum
from spectrune.store import EmbeddingDump, EmbeddingMatrix, ordered_map
from spectrune.subspaces import Subspace, remove_component

# projected vectors shorter than this have no defined cosine
NORM_EPS = 1e-12
# under this share of |x|^2, |x|^2 - |x B|^2 may be cancellation roundoff (~1e-8
# for a unit row inside span(B)); the residual x - (x B) B^T gives ~1e-16 there
CANCEL_SHARE = 1e-4


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

    @cached_property
    def _shared(self) -> tuple[np.ndarray, ...]:
        """What every score reads (see :func:`_share`), built on the first
        score: ``synth_benchmark`` makes a task that it never scores."""
        return _share(self)


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


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _inverse_norms(sq_norms: np.ndarray) -> np.ndarray:
    """1 / norm; 0 for a norm below ``NORM_EPS``, scored as the zero vector."""
    norms = np.sqrt(sq_norms)
    return np.where(norms < NORM_EPS, 0.0, 1.0 / np.maximum(norms, NORM_EPS))


def _project(x, x_sq, basis, zx=None) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates ``zx = x B`` in the orthonormal basis B of a removed span
    and the projected squared norms ``|x|^2 - |zx|^2``, which rows keeping
    under ``CANCEL_SHARE`` of ``|x|^2`` take from the residual instead."""
    zx = x @ basis if zx is None else zx
    sq = x_sq - _sq_norms(zx)
    close = sq < CANCEL_SHARE * x_sq
    sq[close] = _sq_norms(x[close] - zx[close] @ basis.T)
    return zx, sq


def _hits(scores: np.ndarray, true_col: np.ndarray, k: int) -> int:
    """Rows with fewer than k columns above their true column, a tie counting
    as above only for an earlier column (a smaller class id): a stable
    descending sort's top k, counted instead of sorted."""
    true = scores[np.arange(scores.shape[0]), true_col][:, None]
    at_least = np.count_nonzero(scores >= true, axis=1)  # every tie as above
    unsure = np.flatnonzero(at_least > k)
    later = np.arange(scores.shape[1]) > true_col[unsure, None]
    at_least[unsure] -= np.count_nonzero((scores[unsure] == true[unsure]) & later, axis=1)
    return int(np.count_nonzero(at_least <= k))


def _share(task: ZeroShotTask) -> tuple[np.ndarray, ...]:
    """The queries Q, the prototypes P in class-id order, their squared
    norms, each query's true column in P, and ``G = Q P^T``."""
    order = np.argsort(task.class_prototypes.labels)
    q, p = task.queries.data, task.class_prototypes.data[order]
    true_col = np.searchsorted(task.class_prototypes.labels[order], task.queries.labels)
    return q, p, _sq_norms(q), _sq_norms(p), true_col, q @ p.T


def _score(task: ZeroShotTask, basis: np.ndarray, project_prototypes: bool, coords=None) -> float:
    """Top-k accuracy with the span of the orthonormal ``basis`` removed from
    the queries and, optionally, the prototypes. Either way a projected
    query's dot products are ``G - (Q B)(P B)^T``; only the prototype norms
    differ. ``coords`` is ``((Q V)^T, cols)`` for a basis made of columns
    ``cols`` of V: each block of queries gathers its coordinates from it, so
    the score costs O(nq nc p)."""
    q, p, q_sq, p_sq, true_col, g = task._shared
    zp, p_proj_sq = _project(p, p_sq, basis)
    inv_pn = _inverse_norms(p_proj_sq if project_prototypes else p_sq)
    out = np.empty((min(BLOCK_ROWS, q.shape[0]), p.shape[0]))
    hits = 0
    for lo in range(0, q.shape[0], BLOCK_ROWS):
        rows = slice(lo, lo + BLOCK_ROWS)
        zq = None if coords is None else coords[0][coords[1], rows].T
        zq, q_proj_sq = _project(q[rows], q_sq[rows], basis, zq)
        scores = np.matmul(zq, zp.T, out=out[: zq.shape[0]])
        np.subtract(g[rows], scores, out=scores)
        scores *= inv_pn  # a query's own norm would scale its row: no rank moves
        scores[_inverse_norms(q_proj_sq) == 0.0] = 0.0
        hits += _hits(scores, true_col[rows], task.k)
    return hits / q.shape[0]


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
    A vector projected below norm ``NORM_EPS`` is scored as the zero vector.
    """
    if noise is not None and noise.d != task.d:
        raise DimError(f"subspace width {noise.d} does not match d={task.d}")
    basis = np.zeros((task.d, 0)) if noise is None else noise.basis
    return _score(task, basis, project_prototypes)


def projected_undefined(
    task: ZeroShotTask, noise: Subspace, project_prototypes: bool = True
) -> int:
    """Projected vectors that ``zero_shot_topk(task, noise,
    project_prototypes)`` scores as the zero vector."""
    parts = [task.class_prototypes.data] if project_prototypes else []
    parts += [task.queries.data[i : i + BLOCK_ROWS] for i in range(0, task.queries.n, BLOCK_ROWS)]
    sq = np.concatenate([_project(x, _sq_norms(x), noise.basis)[1] for x in parts])
    return int(np.count_nonzero(_inverse_norms(sq) == 0.0))


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


def random_ablation(
    task: ZeroShotTask,
    spectrum: Spectrum,
    p: int,
    trials: int,
    seed: int,
    threads: int = 1,
    project_prototypes: bool = True,
) -> np.ndarray:
    """Accuracy distribution when p random eigenvector directions are
    removed, repeated over seeded trials.

    Trial t samples p distinct columns of the spectrum's eigenvector basis
    V from ``trial_rng(seed, t)`` without replacement, removes their span
    from the queries and (by default) the prototypes, and rescores; one
    accuracy per trial, in trial order whatever the thread count. A trial
    is a rank-p update of the task's ``Q P^T`` from ``Q V``: O(nq nc p)."""
    if spectrum.d != task.d:
        raise DimError(f"spectrum width {spectrum.d} != task width {task.d}")
    if trials < 1:
        raise PreconditionError(f"need trials >= 1, got {trials}")
    if not 1 <= p < task.d:
        raise PreconditionError(f"need 1 <= p < d={task.d}, got p={p}")
    vecs = spectrum.eigenvectors
    q = task._shared[0]  # the first read builds the shared state: before any thread
    zq_t = vecs.T @ q.T

    def run_trial(t: int) -> float:
        cols = np.sort(trial_rng(seed, t).choice(task.d, size=p, replace=False))
        return _score(task, vecs[:, cols], project_prototypes, (zq_t, cols))

    return np.asarray(ordered_map(run_trial, range(trials), threads), dtype=np.float64)


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

    protos = rng.standard_normal((n_classes, d - p))
    protos = (protos / np.linalg.norm(protos, axis=1)[:, None]) @ signal_basis.T
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

    shared = rng.standard_normal((n_pairs, d - p))
    shared = (shared / np.linalg.norm(shared, axis=1)[:, None]) @ signal_basis.T
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
