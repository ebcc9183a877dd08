"""Cluster-quality and retrieval metrics.

Implements Lloyd's k-means with seeded random-point initialization and
deterministic tie handling, majority-vote cluster metrics (accuracy,
normalized mutual information, macro F1) and recall@K under cosine
distance on unit vectors.  Everything is written directly in numpy so
tie-breaking and normalization conventions stay pinned:

* k-means assignment ties go to the lowest centroid index, empty
  clusters are reseeded from the farthest point, and each restart draws
  its starting rows from one ``default_rng(seed)``;
* NMI = 2 I(clusters; truth) / (H(clusters) + H(truth)), in [0, 1];
* F1 is macro-averaged over the ground-truth classes;
* one (cluster, class) count table per scored clustering gives the
  majority vote, accuracy, F1 and NMI, so each pair is counted once;
* neighbor ties in retrieval go to the lowest database index.

The repeated-k-means helper reports the mean and standard error over
independent repetitions; ``EvalConfig`` holds its settings.

Every Lloyd run of one call (the restarts of ``kmeans``; each repeat's
restarts in ``repeated_cluster_metrics``) goes through one stacked loop,
a block of runs at a time.  Each run keeps its own start, iteration cap
and stop when its labels no longer move, so its labels are the ones it
would reach alone.  One GEMM per step ranks the centroids; a row whose
best centroid does not lead the others by more than that GEMM's rounding
bound (the tie certificate in ``_nearest``) is ranked again with the
exact ``((x - c)**2).sum(-1)``, so no label depends on BLAS rounding.  Cluster
means are bit for bit ``x[labels == j].mean(axis=0)``.  Non-finite
features, or more clusters than distinct rows, raise ``ValueError``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "EvalConfig",
    "ClusterMetrics",
    "RepeatedMetrics",
    "kmeans",
    "within_cluster_ss",
    "normalized_mutual_info",
    "majority_vote_metrics",
    "recall_at_k",
    "repeated_cluster_metrics",
]


@dataclass(frozen=True)
class EvalConfig:
    """Settings of ``repeated_cluster_metrics``."""

    repeats: int = 50
    kmeans_restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be positive")
        if self.kmeans_restarts < 1:
            raise ValueError("kmeans_restarts must be positive")


class ClusterMetrics(NamedTuple):
    accuracy: float
    nmi: float
    f1: float


class RepeatedMetrics(NamedTuple):
    mean: ClusterMetrics
    stderr: ClusterMetrics


# Each stacked Lloyd step holds (B, k, n) float64 distance blocks; B runs
# share one, sized to stay under this many bytes (8 runs at n = 800, k = 4).
# Larger blocks raise the peak memory of a scoring.
_BLOCK_BYTES = 200 * 1024
_MAX_ITERS = 300
_U = np.finfo(float).eps / 2  # unit roundoff


def _sq_dists(x: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """The exact squared distances ``((x - c)**2).sum(-1)`` that define every label."""
    # summed over the contiguous last axis, so an entry's bits do not
    # depend on the leading shape the rows are stacked in
    return ((x - centroids) ** 2).sum(axis=-1)


def _nearest(x: np.ndarray, sq_norms: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid labels (A, n) of A stacked runs' centroids (A, k, d)."""
    # One GEMM ranks the centroids by g_j = |c_j|^2 - 2 c_j.x, the exact
    # squared distance D_j less |x|^2.  With unit roundoff u,
    # y_m = m u / (1 - m u) and S = |x|^2 + max_j |c_j|^2 (so |c_j.x| <= S/2):
    #   computed g_j is within 2 y_d S + 2u S (1 + y_d) of g_j, in any
    #   summation order, FMA or not;
    #   computed D_j, the exact formula, is within y_(d+2) D_j <= 2 y_(d+2) S.
    # D_l - D_j = g_l - g_j, so a computed gap g_l - g_j above
    # 4 y_d S + 4u S (1 + y_d) + 4 y_(d+2) S, about (8d + 12) u S, makes the
    # computed D_l > D_j.  A row is certain when its best centroid is the
    # only one within slack = 2 (8d + 24) (u S + 2^-1074) of the best g; the
    # spare covers the first-order terms and rounding best + slack, and
    # 2^-1074 covers underflow.  Every other row, ties and NaNs included,
    # is ranked again with the exact formula, so no label depends on the
    # GEMM's rounding.
    runs, k, d = centroids.shape
    c_sq = (centroids * centroids).sum(axis=2)
    g = (centroids.reshape(runs * k, d) @ x.T).reshape(runs, k, x.shape[0])
    g *= -2.0
    g += c_sq[:, :, None]
    slack = (16 * d + 48) * (_U * (sq_norms + c_sq.max(axis=1)[:, None]) + 2.0**-1074)
    near = g <= (g.min(axis=1) + slack)[:, None, :]
    labels = (near * np.arange(k)[:, None]).sum(axis=1)
    run, row = np.nonzero(near.sum(axis=1) != 1)
    labels[run, row] = np.argmin(_sq_dists(x[row, None, :], centroids[run]), axis=1)
    return labels


def _cluster_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Centroids (A, k, d) of the runs' labels (A, n), bit for bit ``x[labels[r] == j].mean(0)``."""
    # numpy sums the rows of a 2-D array in index order, as bincount adds
    # weights; np.add.reduceat does not match it.  A single coordinate is
    # one contiguous run, which numpy sums pairwise, so d = 1 goes one
    # cluster at a time.
    runs, n = labels.shape
    if x.shape[1] == 1:
        return np.array([[x[row == j].mean(axis=0) for j in range(k)] for row in labels])
    bins = (labels + k * np.arange(runs)[:, None]).ravel()
    weights = np.empty((runs, n))  # one coordinate, once per run
    sums = np.empty((runs * k, x.shape[1]))
    for t, col in enumerate(x.T):
        weights[:] = col
        sums[:, t] = np.bincount(bins, weights=weights.ravel(), minlength=runs * k)
    return (sums / np.bincount(bins, minlength=runs * k)[:, None]).reshape(runs, k, -1)


def _lloyd(x: np.ndarray, starts: np.ndarray, max_iters: int) -> np.ndarray:
    """Labels (R, n) of R Lloyd runs on ``x``, run r started from the rows ``starts[r]``."""
    n = x.shape[0]
    k = starts.shape[1]
    block = max(1, _BLOCK_BYTES // (8 * k * n))
    sq_norms = (x * x).sum(axis=1)
    out = np.full((len(starts), n), -1)
    for first in range(0, len(starts), block):
        centroids = x[starts[first:first + block]]
        labels = out[first:first + block]
        live = np.arange(len(centroids))  # runs whose labels still move
        for _ in range(max_iters):
            new_labels = _nearest(x, sq_norms, centroids[live])
            offsets = k * np.arange(live.size)[:, None]
            sizes = np.bincount((new_labels + offsets).ravel(), minlength=live.size * k)
            for r in np.flatnonzero(np.any(sizes.reshape(-1, k) == 0, axis=1)):
                # each empty cluster in turn takes the point farthest from
                # its own centroid
                own = _sq_dists(x, centroids[live[r]][new_labels[r]])
                for j in range(k):
                    if not np.any(new_labels[r] == j):
                        far = int(np.argmax(own))
                        new_labels[r, far] = j
                        own[far] = -np.inf
            moved = np.any(new_labels != labels[live], axis=1)
            live = live[moved]
            if live.size == 0:
                break
            labels[live] = new_labels[moved]
            centroids[live] = _cluster_means(x, labels[live], k)
    return out


def within_cluster_ss(x: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to refit cluster means."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for j in np.unique(labels):
        points = x[labels == j]
        total += float(((points - points.mean(axis=0)) ** 2).sum())
    return total


def _checked_features(features: np.ndarray, k: int) -> np.ndarray:
    """Features as a float array, after the checks every k-means run needs."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError(f"features must be a 2-D array, got shape {x.shape}")
    bad = int(np.count_nonzero(~np.isfinite(x)))
    if bad:
        raise ValueError(f"features must be finite; {bad} of {x.size} values are NaN or infinite")
    if k < 1:
        raise ValueError(f"need k >= 1 clusters, got k = {k}")
    distinct = np.unique(x, axis=0).shape[0]
    if k > distinct:
        raise ValueError(
            f"k = {k} exceeds the {distinct} distinct rows of the {x.shape[0]} samples; "
            "k-means cannot fill that many clusters"
        )
    return x


def _starts(n: int, k: int, seed, restarts: int) -> np.ndarray:
    """Initial centroid rows (restarts, k) of each restart, drawn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(max(restarts, 1))])


def _best_run(x: np.ndarray, runs: np.ndarray) -> np.ndarray:
    """The run with the least within-cluster sum of squares, the first on ties."""
    if len(runs) == 1:
        return runs[0]
    return runs[int(np.argmin([within_cluster_ss(x, labels) for labels in runs]))]


def kmeans(
    features: np.ndarray,
    k: int,
    seed=0,
    restarts: int = 10,
    max_iters: int = _MAX_ITERS,
) -> np.ndarray:
    """Best-of-restarts Lloyd's iterations; returns cluster labels.

    Raises ``ValueError`` for non-finite features and for ``k`` above the
    number of distinct rows.
    """
    x = _checked_features(features, k)
    return _best_run(x, _lloyd(x, _starts(x.shape[0], k, seed, restarts), max_iters))


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Counts of the (a, b) value pairs; rows and columns in sorted value order."""
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    return table


def _nmi(table: np.ndarray) -> float:
    joint = table / table.sum()
    outer = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
    mask = joint > 0
    mutual = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    denom = _entropy_of_counts(table.sum(axis=1)) + _entropy_of_counts(table.sum(axis=0))
    if denom == 0.0:
        return 1.0
    return float(np.clip(2.0 * mutual / denom, 0.0, 1.0))


def normalized_mutual_info(a: np.ndarray, b: np.ndarray) -> float:
    """2 I(a; b) / (H(a) + H(b)); 1.0 for two trivial identical partitions."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    return _nmi(_contingency(a, b))


def majority_vote_metrics(clusters: np.ndarray, truth: np.ndarray) -> ClusterMetrics:
    """Label each cluster by its majority ground-truth class, then score.

    Majority ties go to the lowest class id.  F1 is macro-averaged over
    the classes present in the ground truth.  One count table gives all three.
    """
    clusters = np.asarray(clusters)
    truth = np.asarray(truth)
    if clusters.shape != truth.shape:
        raise ValueError("cluster and truth vectors must have equal length")
    table = _contingency(clusters, truth)
    classes = table.shape[1]
    majority = table.argmax(axis=1)  # the first maximum: the lowest class id
    hits = table.max(axis=1)
    tp = np.bincount(majority, weights=hits, minlength=classes)
    predicted = np.bincount(majority, weights=table.sum(axis=1), minlength=classes)  # tp + fp
    precision = np.divide(tp, predicted, out=np.zeros(classes), where=predicted > 0)
    recall = tp / table.sum(axis=0)  # every class has members, so tp + fn > 0
    # precision + recall > 0 exactly where tp > 0
    f1 = np.divide(2.0 * precision * recall, precision + recall, out=np.zeros(classes), where=tp > 0)
    return ClusterMetrics(float(hits.sum() / table.sum()), _nmi(table), float(np.mean(f1)))


def recall_at_k(
    queries: np.ndarray,
    database: np.ndarray,
    query_labels: np.ndarray,
    db_labels: np.ndarray,
    k: int,
) -> float:
    """Fraction of queries with a same-class item among their K cosine
    nearest database rows."""
    q = np.asarray(queries, dtype=float)
    db = np.asarray(database, dtype=float)
    q_labels = np.asarray(query_labels)
    d_labels = np.asarray(db_labels)
    if k < 1 or k > db.shape[0]:
        raise ValueError("need 1 <= k <= database size")
    if q.shape[0] != q_labels.shape[0] or db.shape[0] != d_labels.shape[0]:
        raise ValueError("labels must align with their feature arrays")
    if q.shape[-1] != db.shape[-1]:
        raise ValueError(f"queries have {q.shape[-1]} columns but the database has {db.shape[-1]}")
    sims = q @ db.T
    neighbors = np.argsort(-sims, axis=1, kind="stable")[:, :k]
    hits = np.any(d_labels[neighbors] == q_labels[:, None], axis=1)
    return float(np.mean(hits))


def repeated_cluster_metrics(
    features: np.ndarray,
    truth: np.ndarray,
    k: int,
    cfg: EvalConfig | None = None,
) -> RepeatedMetrics:
    """Mean and standard error of majority-vote metrics over ``cfg.repeats``
    k-means runs into ``k`` clusters (default ``EvalConfig()``), the i-th
    seeded ``(cfg.seed, i)`` with ``cfg.kmeans_restarts`` restarts, as
    ``kmeans`` would run them; all runs share one stacked Lloyd loop.

    Raises ``ValueError`` as ``kmeans`` does.
    """
    cfg = EvalConfig() if cfg is None else cfg
    x = _checked_features(features, k)
    per = cfg.kmeans_restarts
    starts = [_starts(x.shape[0], k, (cfg.seed, i), per) for i in range(cfg.repeats)]
    runs = _lloyd(x, np.concatenate(starts), _MAX_ITERS)
    rows = [
        majority_vote_metrics(_best_run(x, runs[i * per:(i + 1) * per]), truth)
        for i in range(cfg.repeats)
    ]
    arr = np.asarray(rows, dtype=float)
    means = arr.mean(axis=0)
    if cfg.repeats > 1:
        stderr = arr.std(axis=0, ddof=1) / np.sqrt(cfg.repeats)
    else:
        stderr = np.zeros(3)
    return RepeatedMetrics(ClusterMetrics(*means), ClusterMetrics(*stderr))
