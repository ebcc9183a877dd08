"""Cluster-quality and retrieval metrics.

Implements Lloyd's k-means with seeded random-point initialization and
deterministic tie handling, majority-vote cluster metrics (accuracy,
normalized mutual information, macro F1) and recall@K under cosine
distance on unit vectors.  Everything is written directly in numpy so
tie-breaking and normalization conventions stay pinned:

* k-means assignment ties go to the lowest centroid index, empty
  clusters are reseeded from the farthest point, and each run draws its
  starting rows from one ``default_rng(seed)``;
* NMI = 2 I(clusters; truth) / (H(clusters) + H(truth)), in [0, 1];
* F1 is macro-averaged over the ground-truth classes;
* one (cluster, class) count table per scored clustering gives the
  majority vote, accuracy, F1 and NMI, so each pair is counted once;
* neighbor ties in retrieval go to the lowest database index.

The repeated-k-means helper reports the mean and standard error over
independent Lloyd runs; ``EvalConfig`` holds its settings.

Every Lloyd run of one call (the restarts of ``kmeans``, the repeats of
``repeated_cluster_metrics``) goes through one stacked loop over live
runs, refilled as runs stop.  Each run keeps its own start, iteration cap
and stop when its labels no longer move, so its labels are the ones it
would reach alone.  One GEMM per step ranks the centroids; a row whose
best centroid does not lead the others by more than that GEMM's rounding
bound (the tie certificate in ``_nearest``) is ranked again with the
exact ``((x - c)**2).sum(-1)``, so no label depends on BLAS rounding.  Cluster
means are bit for bit ``x[labels == j].mean(axis=0)``.  Non-finite
features, a row whose squared norm passes ``_MAX_SQ_NORM`` (past which
distances may overflow), more clusters than distinct rows, or labels
that are not 1-D and finite, raise ``ValueError``.  No scoring imports
``numpy.ma``, as ``np.unique`` does for rows, or for labels without an inverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .ot_core import check_config, unit_rows

__all__ = [
    "EvalConfig",
    "ClusterMetrics",
    "RepeatedMetrics",
    "kmeans",
    "within_cluster_ss",
    "majority_vote_metrics",
    "recall_at_k",
    "repeated_cluster_metrics",
]


@dataclass(frozen=True)
class EvalConfig:
    """Settings of ``repeated_cluster_metrics``."""

    repeats: int = 50
    seed: int = 0

    def __post_init__(self):
        check_config(self, {"repeats": 1, "seed": 0})


class ClusterMetrics(NamedTuple):
    accuracy: float
    nmi: float
    f1: float


class RepeatedMetrics(NamedTuple):
    mean: ClusterMetrics
    stderr: ClusterMetrics


# Each stacked Lloyd step holds (B, k, n) float64 distance blocks of its B
# live runs; B is capped to stay under this many bytes (8 runs at n = 800,
# k = 4) at every step.  A larger cap raises the peak memory of a scoring.
_BLOCK_BYTES = 200 * 1024
_MAX_ITERS = 300
_U = np.finfo(float).eps / 2  # unit roundoff
# Squared distances reach 4x the largest squared norm, and the GEMM ranking
# in _nearest stays below that; a factor 2 to spare for rounding keeps both finite.
_MAX_SQ_NORM = float(np.finfo(float).max) / 8


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
    # a certain row has one near centroid, so this sum is its index; it
    # reads contiguous rows where argmax would stride over the short k axis
    labels = np.add.reduce(near * np.arange(k)[:, None], axis=1)
    run, row = np.nonzero(near.sum(axis=1) != 1)
    labels[run, row] = np.argmin(_sq_dists(x[row, None, :], centroids[run]), axis=1)
    return labels


def _cluster_means(x: np.ndarray, labels: np.ndarray, k: int) -> np.ndarray:
    """Centroids (A, k, d) of the runs' labels (A, n), bit for bit ``x[labels[r] == j].mean(0)``."""
    # numpy sums the rows of a 2-D array in index order, as bincount adds
    # weights; np.add.reduceat does not match it.  One bincount per run over
    # the (cluster, coordinate) cells of the raveled x adds each cell's rows
    # in that order.  A single coordinate is one contiguous run, which numpy
    # sums pairwise, so d = 1 goes one cluster at a time.
    runs, d = labels.shape[0], x.shape[1]
    if d == 1:
        means = [[x[row == j].mean(axis=0) for j in range(k)] for row in labels]
        return np.reshape(means, (runs, k, d))  # (0, k, 1) for no runs
    flat = x.ravel()
    sums = [np.bincount((row[:, None] * d + np.arange(d)).ravel(), weights=flat, minlength=k * d)
            for row in labels]
    counts = np.bincount((labels + k * np.arange(runs)[:, None]).ravel(), minlength=runs * k)
    return np.reshape(sums, (runs, k, d)) / counts.reshape(runs, k, 1)


def _lloyd(x: np.ndarray, starts: np.ndarray, max_iters: int) -> np.ndarray:
    """Labels (R, n) of R Lloyd runs on ``x``, run r started from the rows ``starts[r]``."""
    n = x.shape[0]
    k = starts.shape[1]
    block = max(1, _BLOCK_BYTES // (8 * k * n))
    sq_norms = (x * x).sum(axis=1)
    out = np.full((len(starts), n), -1)
    centroids = x[starts]
    steps = np.zeros(len(starts), dtype=int)  # steps each run has taken, 0 until it starts
    live = np.arange(min(block, len(starts)))  # runs whose labels still move, in index order
    while live.size:
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
        steps[live] += 1
        moved = np.any(new_labels != out[live], axis=1)
        out[live[moved]] = new_labels[moved]
        live = live[moved & (steps[live] < max_iters)]
        centroids[live] = _cluster_means(x, out[live], k)
        # free slots go to the next runs not yet started
        live = np.concatenate([live, np.flatnonzero(steps == 0)[:block - live.size]])
    return out


def within_cluster_ss(x: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to refit cluster means."""
    x = np.asarray(x, dtype=float)
    # the inverse keeps numpy.ma unloaded
    values, codes = np.unique(_checked_labels(labels, "cluster"), return_inverse=True)
    total = 0.0
    for j in range(values.size):
        points = x[codes == j]
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
    with np.errstate(over="ignore"):
        sq_norms = (x * x).sum(axis=1)
    over = np.flatnonzero(sq_norms > _MAX_SQ_NORM)
    if over.size:
        raise ValueError(
            f"features row {over[0]} has squared norm {float(sq_norms[over[0]])!r}, above the "
            f"{_MAX_SQ_NORM!r} that keeps k-means distances finite"
        )
    if k < 1:
        raise ValueError(f"need k >= 1 clusters, got k = {k}")
    # np.unique(x, axis=0)'s count (-0.0 equals 0.0) without numpy.ma
    rows = x[np.lexsort(x.T)] if x.shape[1] else x
    distinct = min(x.shape[0], 1) + int(np.count_nonzero(np.any(rows[1:] != rows[:-1], axis=1)))
    if k > distinct:
        raise ValueError(
            f"k = {k} exceeds the {distinct} distinct rows of the {x.shape[0]} samples; "
            "k-means cannot fill that many clusters"
        )
    return x


def _starts(n: int, k: int, seed, restarts: int) -> np.ndarray:
    """Initial centroid rows (restarts, k) of each restart, drawn from one ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    return np.array([rng.choice(n, size=k, replace=False) for _ in range(restarts)])


def kmeans(
    features: np.ndarray,
    k: int,
    seed=0,
    restarts: int = 10,
) -> np.ndarray:
    """Best-of-restarts Lloyd's iterations; returns the labels of the run
    with the least within-cluster sum of squares, the first on ties.

    Raises ``ValueError`` for fewer than one restart, non-finite or
    overflowing features and ``k`` above the number of distinct rows.
    """
    if restarts < 1:
        raise ValueError(f"restarts must be at least 1, got {restarts}")
    x = _checked_features(features, k)
    runs = _lloyd(x, _starts(x.shape[0], k, seed, restarts), _MAX_ITERS)
    with np.errstate(over="ignore"):
        sums = [within_cluster_ss(x, labels) for labels in runs]
    if not np.isfinite(sums).all():
        # a sum can reach n times the largest squared norm; scaled by 2**-2b with 2**b > n
        # it stays finite, and a power-of-two scaling keeps the sums' order exact
        sums = [within_cluster_ss(np.ldexp(x, -x.shape[0].bit_length()), labels) for labels in runs]
    return runs[int(np.argmin(sums))]


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def _nmi(table: np.ndarray) -> float:
    joint = table / table.sum()
    outer = joint.sum(axis=1)[:, None] * joint.sum(axis=0)[None, :]
    mask = joint > 0
    mutual = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    denom = _entropy_of_counts(table.sum(axis=1)) + _entropy_of_counts(table.sum(axis=0))
    if denom == 0.0:
        return 1.0
    return float(np.clip(2.0 * mutual / denom, 0.0, 1.0))


def _checked_labels(labels, name: str) -> np.ndarray:
    """``labels`` as an array, if 1-D and finite."""
    arr = np.asarray(labels)
    if arr.ndim != 1:
        raise ValueError(f"{name} labels must be a 1-D array, got shape {arr.shape}")
    if arr.dtype.kind in "fc" and not np.isfinite(arr).all():
        bad = int(np.count_nonzero(~np.isfinite(arr)))
        raise ValueError(f"{name} labels must be finite; {bad} of {arr.size} are NaN or infinite")
    return arr


def _coded_metrics(rows: np.ndarray, cols: np.ndarray, shape: tuple[int, int]) -> ClusterMetrics:
    """Majority-vote metrics of (cluster, class) code pairs; every class has members."""
    table = np.bincount(rows * shape[1] + cols, minlength=shape[0] * shape[1]).reshape(shape)
    classes = shape[1]
    majority = table.argmax(axis=1)  # the first maximum: the lowest class id
    hits = table.max(axis=1)
    tp = np.bincount(majority, weights=hits, minlength=classes)
    predicted = np.bincount(majority, weights=table.sum(axis=1), minlength=classes)  # tp + fp
    precision = np.divide(tp, predicted, out=np.zeros(classes), where=predicted > 0)
    recall = tp / table.sum(axis=0)  # every class has members, so tp + fn > 0
    # precision + recall > 0 exactly where tp > 0
    f1 = np.divide(2.0 * precision * recall, precision + recall, out=np.zeros(classes), where=tp > 0)
    return ClusterMetrics(float(hits.sum() / table.sum()), _nmi(table), float(np.mean(f1)))


def majority_vote_metrics(clusters: np.ndarray, truth: np.ndarray) -> ClusterMetrics:
    """Label each cluster by its majority ground-truth class, then score.

    Majority ties go to the lowest class id.  F1 is macro-averaged over
    the classes present in the ground truth.  One count table gives all
    three.  Labels that are not 1-D and finite raise ``ValueError``.
    """
    clusters = _checked_labels(clusters, "cluster")
    truth = _checked_labels(truth, "truth")
    if clusters.shape != truth.shape:
        raise ValueError("cluster and truth vectors must have equal length")
    if clusters.size == 0:
        raise ValueError("cluster and truth vectors are empty")
    ids, rows = np.unique(clusters, return_inverse=True)
    classes, cols = np.unique(truth, return_inverse=True)
    return _coded_metrics(rows, cols, (ids.size, classes.size))


def recall_at_k(
    queries: np.ndarray,
    database: np.ndarray,
    query_labels: np.ndarray,
    db_labels: np.ndarray,
    k: int,
) -> float:
    """Fraction of queries with a same-class item among their K cosine
    nearest database rows.

    Both row sets are scaled to unit rows here, so that dot products rank
    by cosine.  A row with no direction raises, naming it and its norm:
    a zero norm ``ValueError``, a NaN or overflowing one ``FloatingPointError``.
    """
    q = np.asarray(queries, dtype=float)
    db = np.asarray(database, dtype=float)
    for name, arr in (("queries", q), ("database", db)):
        if arr.ndim != 2:
            raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    q_labels = np.asarray(query_labels)
    d_labels = np.asarray(db_labels)
    if k < 1 or k > db.shape[0]:
        raise ValueError(f"k must lie in [1, database size = {db.shape[0]}], got {k}")
    if q.shape[0] < 1:
        raise ValueError("need at least one query")
    if q.shape[0] != q_labels.shape[0] or db.shape[0] != d_labels.shape[0]:
        raise ValueError("labels must align with their feature arrays")
    if q.shape[-1] != db.shape[-1]:
        raise ValueError(f"queries have {q.shape[-1]} columns but the database has {db.shape[-1]}")
    sims = unit_rows(q, "query")[0] @ unit_rows(db, "database")[0].T
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
    Lloyd runs into ``k`` clusters (default ``EvalConfig()``), the i-th
    seeded ``(cfg.seed, i)``, as ``kmeans(..., seed=(cfg.seed, i),
    restarts=1)`` would run it; all runs share one stacked Lloyd loop.

    Raises ``ValueError`` as ``kmeans`` does, and before any run for a
    ``truth`` that is not one label per feature row.
    """
    cfg = EvalConfig() if cfg is None else cfg
    x = _checked_features(features, k)
    if np.shape(truth) != (x.shape[0],):
        raise ValueError("cluster and truth vectors must have equal length")
    # every run's labels are its table's rows 0..k-1
    classes, cols = np.unique(_checked_labels(truth, "truth"), return_inverse=True)
    starts = [_starts(x.shape[0], k, (cfg.seed, i), 1) for i in range(cfg.repeats)]
    runs = _lloyd(x, np.concatenate(starts), _MAX_ITERS)
    rows = [_coded_metrics(labels, cols, (k, classes.size)) for labels in runs]
    arr = np.asarray(rows, dtype=float)
    means = arr.mean(axis=0)
    if cfg.repeats > 1:
        stderr = arr.std(axis=0, ddof=1) / np.sqrt(cfg.repeats)
    else:
        stderr = np.zeros(3)
    return RepeatedMetrics(ClusterMetrics(*means), ClusterMetrics(*stderr))
