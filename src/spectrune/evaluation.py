"""Downstream evaluation: zero-shot scoring, alignment deltas, seeded
random-direction ablations, activation ranking, and synthetic fixtures.

All randomness flows through numpy's Philox generator (counter-based), and
ablation trial t draws from ``Philox([seed, t])``, so runs of the same seed
produce identical results down to the byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spectrune.covariance import normalize_rows
from spectrune.errors import DimError, PreconditionError
from spectrune.spectral import Spectrum
from spectrune.store import EmbeddingDump, EmbeddingMatrix
from spectrune.subspaces import Subspace, remove_component

# projected vectors shorter than this have no defined cosine
NORM_EPS = 1e-12
# under this share of |x|^2, |x|^2 - |x B|^2 may be cancellation roundoff (~1e-8
# for a unit row inside span(B)); the residual x - (x B) B^T gives ~1e-16 there
CANCEL_SHARE = 1e-4
# synth_benchmark's noise-span norms of a query and a pair row, and its pair count
QUERY_NOISE = 0.3
PAIR_NOISE = 0.5
N_PAIRS = 500
# a query tile's G and score buffers hold about this many bytes each
SCORE_TILE_BYTES = 4 << 20


@dataclass(frozen=True)
class ZeroShotTask:
    """Classification by nearest class prototype under cosine similarity.

    ``class_prototypes`` holds one text embedding per class (labels are the
    class ids, unique); ``queries`` are image embeddings with ground-truth
    labels drawn from the same id set, in memory or as a dump that every
    score reads one block at a time; ``k`` is the top-k cutoff.
    """

    class_prototypes: EmbeddingMatrix
    queries: EmbeddingMatrix | EmbeddingDump
    k: int

    def __post_init__(self) -> None:
        protos, queries = self.class_prototypes, self.queries
        if protos.labels is None or queries.labels is None:
            raise PreconditionError("prototypes and queries both need labels")
        if (np.diff(np.sort(protos.labels)) == 0).any():  # np.unique would import numpy.ma
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


def _sq_norms(x: np.ndarray) -> np.ndarray:
    return np.einsum("ij,ij->i", x, x)


def _inverse_norms(sq_norms: np.ndarray) -> np.ndarray:
    """1 / norm; 0 for a norm below ``NORM_EPS``, scored as the zero vector."""
    norms = np.sqrt(sq_norms)
    return np.where(norms < NORM_EPS, 0.0, 1.0 / np.maximum(norms, NORM_EPS))


def _project(x, x_sq, frame, cols, zx) -> np.ndarray:
    """The projected squared norms ``|x|^2 - |zx|^2`` of rows x, given their
    coordinates ``zx = x B`` in the orthonormal basis ``B = frame[:, cols]``
    of a removed span. Rows keeping under ``CANCEL_SHARE`` of ``|x|^2`` take
    theirs from the residual instead, and only they gather B."""
    sq = x_sq - _sq_norms(zx)
    close = sq < CANCEL_SHARE * x_sq
    if close.any():
        sq[close] = _sq_norms(x[close] - zx[close] @ frame[:, cols].T)
    return sq


def _hits(scores: np.ndarray, true_col: np.ndarray, k: int) -> int:
    """Rows with fewer than k columns above their true column, a tie counting
    as above only for an earlier column (a smaller class id): a stable
    descending sort's top k, counted instead of sorted."""
    true = scores[np.arange(scores.shape[0]), true_col][:, None]
    at_least = np.count_nonzero(scores >= true, axis=1)  # every tie as above
    # only a tie straddling the cutoff needs the class ids, and only a row
    # with more than k columns at or above its own can have one
    over = np.flatnonzero(at_least > k)
    unsure = over[np.count_nonzero(scores[over] > true[over], axis=1) < k]
    later = np.arange(scores.shape[1]) > true_col[unsure, None]
    at_least[unsure] -= np.count_nonzero((scores[unsure] == true[unsure]) & later, axis=1)
    return int(np.count_nonzero(at_least <= k))


def _scores(task: ZeroShotTask, frame: np.ndarray, removals: list[np.ndarray],
            project_prototypes: bool) -> tuple[np.ndarray, np.ndarray]:
    """Top-k accuracy with the span of columns ``cols`` of the orthonormal
    d×m ``frame`` removed from the queries and, optionally, the prototypes,
    for each ``cols`` in ``removals``, and the count of projected vectors
    (prototypes only when projected) each removal scores as the zero vector.
    Either way a projected query's dot products are ``G - (Q B)(P B)^T``
    for ``B = frame[:, cols]``; only the prototype norms differ. ``P frame``
    is formed once per call. The removals are scored in chunks, one pass
    over the queries each, whose prototype inverse norms fill about
    ``SCORE_TILE_BYTES`` (one chunk unless removals x classes exceeds it).
    A pass reads the queries one tile of rows at a time, never more than a
    block: a tile fills ``G = Q P^T`` and ``Q frame`` once, and each removal
    gathers its columns from them and from ``P frame``: O(nq nc p) per
    removal; the frame's own columns only for rows whose projected norm may
    be cancellation roundoff. The tile's G, ``Q frame`` and score buffers,
    about ``SCORE_TILE_BYTES`` each whatever the class count, are sized by
    the first (largest) tile and reused."""
    p, labels = task.class_prototypes.data, task.class_prototypes.labels
    if (labels[1:] < labels[:-1]).any():  # columns in class-id order, for the tie-break
        order = np.argsort(labels)
        p, labels = p[order], labels[order]
    p_sq, pf = _sq_norms(p), p @ frame
    nc, m = p.shape[0], frame.shape[1]
    tile = max(1, SCORE_TILE_BYTES // (8 * max(nc, m)))
    chunk = max(1, SCORE_TILE_BYTES // (8 * nc))
    hits = np.zeros(len(removals), dtype=np.int64)
    zeroed = np.zeros_like(hits)
    buffers = None
    for first in range(0, len(removals), chunk):
        part = removals[first:first + chunk]
        p_inv = np.array([_inverse_norms(_project(p, p_sq, frame, cols, pf[:, cols])
                                         if project_prototypes else p_sq) for cols in part])
        if project_prototypes:
            zeroed[first:first + len(part)] = np.count_nonzero(p_inv == 0.0, axis=1)
        # a dump's blocks are tile-sized; a matrix in memory is one block
        for block in task.queries.blocks(tile):
            for start in range(0, block.n, tile):
                q = block.data[start:start + tile]
                rows = q.shape[0]
                if buffers is None:  # the first tile is the largest
                    buffers = [np.empty((rows, w)) for w in (nc, m, nc)]
                g = np.matmul(q, p.T, out=buffers[0][:rows])
                qf = np.matmul(q, frame, out=buffers[1][:rows])
                scores = buffers[2][:rows]  # one buffer for every removal
                q_sq, true_col = _sq_norms(q), np.searchsorted(labels, block.labels[start:start + tile])
                for i, cols in enumerate(part):
                    zq = qf[:, cols]
                    q_proj_sq = _project(q, q_sq, frame, cols, zq)
                    np.matmul(zq, pf[:, cols].T, out=scores)
                    np.subtract(g, scores, out=scores)
                    scores *= p_inv[i]  # a query's own norm would scale its row: no rank moves
                    zero = _inverse_norms(q_proj_sq) == 0.0
                    scores[zero] = 0.0
                    zeroed[first + i] += np.count_nonzero(zero)
                    hits[first + i] += _hits(scores, true_col, task.k)
            del block, q  # released before the next block is read
    return hits / task.queries.n, zeroed


def zero_shot_topk(
    task: ZeroShotTask,
    noise: Subspace | None = None,
    project_prototypes: bool = True,
) -> tuple[float, int]:
    """Fraction of queries whose true class is among the k most cosine-
    similar prototypes, and the count of projected vectors scored as the
    zero vector. Ties are broken toward the smaller class id, which
    makes the score deterministic.

    ``noise``, when given, is removed from the queries and (by default)
    the prototypes before scoring; ``None`` is the unprojected baseline.
    A vector projected below norm ``NORM_EPS`` is scored as the zero vector
    and counted (a prototype only when prototypes are projected).
    The queries are read in one pass over their blocks, so a dump's memory
    is bounded by the block, not by the file.
    """
    if noise is not None and noise.d != task.d:
        raise DimError(f"subspace width {noise.d} does not match d={task.d}")
    basis = np.zeros((task.d, 0)) if noise is None else noise.basis
    accuracy, zeroed = _scores(task, basis, [np.arange(basis.shape[1])], project_prototypes)
    return float(accuracy[0]), int(zeroed[0])


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
    """Philox substream for one trial: it depends on ``seed`` and ``trial``
    alone, not on which trials ran before it."""
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
    project_prototypes: bool = True,
) -> np.ndarray:
    """Accuracy distribution when p random eigenvector directions are
    removed, repeated over seeded trials.

    Trial t samples p distinct columns of the spectrum's eigenvector basis
    V from ``trial_rng(seed, t)`` without replacement, removes their span
    from the queries and (by default) the prototypes, and rescores; one
    accuracy per trial, in trial order. Every trial is scored in one pass
    over the query blocks, as a rank-p update of each block's ``Q P^T``
    from its ``Q V_used``, where ``V_used`` is the sorted union of the
    drawn columns (at most ``trials * p`` of V's d): O(nq nc p) per trial.
    Only ``V_used`` is held while scoring, so V goes with the spectrum when
    the caller keeps no reference to it."""
    if spectrum.d != task.d:
        raise DimError(f"spectrum width {spectrum.d} != task width {task.d}")
    if trials < 1:
        raise PreconditionError(f"need trials >= 1, got {trials}")
    if not 1 <= p < task.d:
        raise PreconditionError(f"need 1 <= p < d={task.d}, got p={p}")
    draws = [np.sort(trial_rng(seed, t).choice(task.d, size=p, replace=False)) for t in range(trials)]
    used = np.flatnonzero(np.bincount(np.concatenate(draws), minlength=task.d))
    frame = spectrum.eigenvectors[:, used]
    del spectrum  # the drawn columns are all that is scored: V may go
    return _scores(task, frame, [np.searchsorted(used, cols) for cols in draws], project_prototypes)[0]


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

    def modality() -> np.ndarray:  # the draw scaled in place, not copied
        draw = rng.standard_normal((n, d))
        draw *= scales
        return draw @ rotation.T

    img, txt = modality(), modality()
    if gap is not None:
        gap = np.asarray(gap, dtype=np.float64)
        if gap.shape != (d,):
            raise PreconditionError(f"gap must have shape ({d},), got {gap.shape}")
        img = img + gap
    img.flags.writeable = txt.flags.writeable = False  # fresh arrays: hand them over

    protos = rng.standard_normal((n_classes, d - p))
    protos = (protos / np.linalg.norm(protos, axis=1)[:, None]) @ signal_basis.T
    n_queries = n_classes * queries_per_class
    query_labels = np.repeat(np.arange(n_classes), queries_per_class)
    jitter = rng.standard_normal((n_queries, d - p))
    jitter *= query_jitter / np.sqrt(d - p)
    noise_part = rng.standard_normal((n_queries, p))
    noise_part *= QUERY_NOISE / np.sqrt(p)
    # prototype + jitter + noise, summed in that order in one query-sized
    # array: each class's queries are consecutive, so the prototypes
    # broadcast over them. Each product keeps its whole-array shape, since
    # row blocks of a product may differ from it in the last bit
    queries = jitter @ signal_basis.T
    del jitter
    by_class = queries.reshape(n_classes, queries_per_class, d)  # a view
    by_class += protos[:, None, :]
    queries += noise_part @ noise_basis.T
    protos.flags.writeable = queries.flags.writeable = query_labels.flags.writeable = False
    task = ZeroShotTask(
        class_prototypes=EmbeddingMatrix(
            protos, labels=np.arange(n_classes), source=f"{source} prototypes"
        ),
        queries=EmbeddingMatrix(queries, labels=query_labels, source=f"{source} queries"),
        k=k,
    )

    shared = rng.standard_normal((N_PAIRS, d - p))
    shared = (shared / np.linalg.norm(shared, axis=1)[:, None]) @ signal_basis.T
    pair_noise_scale = PAIR_NOISE / np.sqrt(p)
    pairs_img = shared + (
        rng.standard_normal((N_PAIRS, p)) * pair_noise_scale
    ) @ noise_basis.T
    pairs_txt = shared + (
        rng.standard_normal((N_PAIRS, p)) * pair_noise_scale
    ) @ noise_basis.T
    pairs_img.flags.writeable = pairs_txt.flags.writeable = False

    return SyntheticBenchmark(
        img=EmbeddingMatrix(img, source=source),
        txt=EmbeddingMatrix(txt, source=source),
        planted=Subspace(noise_basis, origin=f"{source} planted noise span"),
        task=task,
        pairs_img=EmbeddingMatrix(pairs_img, source=f"{source} pairs"),
        pairs_txt=EmbeddingMatrix(pairs_txt, source=f"{source} pairs"),
    )
