"""Cluster-quality and retrieval metrics.

Implements Lloyd's k-means with seeded random-point initialization and
deterministic tie handling, majority-vote cluster metrics (accuracy,
normalized mutual information, macro F1) and recall@K under cosine
distance on unit vectors.  Everything is written directly in numpy so
tie-breaking and normalization conventions stay pinned:

* k-means assignment ties go to the lowest centroid index, empty
  clusters are reseeded from the farthest point;
* NMI = 2 I(clusters; truth) / (H(clusters) + H(truth)), in [0, 1];
* F1 is macro-averaged over the ground-truth classes;
* neighbor ties in retrieval go to the lowest database index.

The repeated-k-means helper reports the mean and standard error over
independent repetitions; ``EvalConfig`` holds its settings.
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


def _lloyd(x: np.ndarray, k: int, rng: np.random.Generator, max_iters: int):
    centroids = x[rng.choice(x.shape[0], size=k, replace=False)].copy()
    labels = np.full(x.shape[0], -1)
    for _ in range(max_iters):
        d2 = ((x[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = np.argmin(d2, axis=1)
        own = d2[np.arange(x.shape[0]), new_labels]
        for j in range(k):
            if not np.any(new_labels == j):
                far = int(np.argmax(own))
                centroids[j] = x[far]
                new_labels[far] = j
                own[far] = -np.inf
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for j in range(k):
            centroids[j] = x[labels == j].mean(axis=0)
    return labels


def within_cluster_ss(x: np.ndarray, labels: np.ndarray) -> float:
    """Sum of squared distances to refit cluster means."""
    x = np.asarray(x, dtype=float)
    total = 0.0
    for j in np.unique(labels):
        points = x[labels == j]
        total += float(((points - points.mean(axis=0)) ** 2).sum())
    return total


def kmeans(
    features: np.ndarray,
    k: int,
    seed=0,
    restarts: int = 10,
    max_iters: int = 300,
) -> np.ndarray:
    """Best-of-restarts Lloyd's iterations; returns cluster labels."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 2:
        raise ValueError("features must be a 2-D array")
    if k < 1 or k > x.shape[0]:
        raise ValueError("need 1 <= k <= number of samples")
    rng = np.random.default_rng(seed)
    best_labels = None
    best_wcss = np.inf
    for _ in range(max(restarts, 1)):
        labels = _lloyd(x, k, rng, max_iters)
        wcss = within_cluster_ss(x, labels)
        if wcss < best_wcss:
            best_wcss = wcss
            best_labels = labels
    return best_labels


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def normalized_mutual_info(a: np.ndarray, b: np.ndarray) -> float:
    """2 I(a; b) / (H(a) + H(b)); 1.0 for two trivial identical partitions."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError("label vectors must have equal length")
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    n_a, n_b = ai.max() + 1, bi.max() + 1
    contingency = np.zeros((n_a, n_b))
    np.add.at(contingency, (ai, bi), 1.0)
    joint = contingency / contingency.sum()
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    outer = pa[:, None] * pb[None, :]
    mask = joint > 0
    mutual = float(np.sum(joint[mask] * np.log(joint[mask] / outer[mask])))
    denom = _entropy_of_counts(contingency.sum(axis=1)) + _entropy_of_counts(contingency.sum(axis=0))
    if denom == 0.0:
        return 1.0
    return float(np.clip(2.0 * mutual / denom, 0.0, 1.0))


def majority_vote_metrics(clusters: np.ndarray, truth: np.ndarray) -> ClusterMetrics:
    """Label each cluster by its majority ground-truth class, then score.

    Majority ties go to the lowest class id.  F1 is macro-averaged over
    the classes present in the ground truth.
    """
    clusters = np.asarray(clusters)
    truth = np.asarray(truth)
    if clusters.shape != truth.shape:
        raise ValueError("cluster and truth vectors must have equal length")
    assigned = np.empty_like(truth)
    for c in np.unique(clusters):
        members = truth[clusters == c]
        values, counts = np.unique(members, return_counts=True)
        assigned[clusters == c] = values[np.argmax(counts)]
    accuracy = float(np.mean(assigned == truth))

    f1_scores = []
    for c in np.unique(truth):
        tp = float(np.sum((assigned == c) & (truth == c)))
        fp = float(np.sum((assigned == c) & (truth != c)))
        fn = float(np.sum((assigned != c) & (truth == c)))
        precision = tp / (tp + fp) if tp + fp > 0 else 0.0
        recall = tp / (tp + fn) if tp + fn > 0 else 0.0
        f1_scores.append(
            2.0 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
        )
    return ClusterMetrics(accuracy, normalized_mutual_info(clusters, truth), float(np.mean(f1_scores)))


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
    seeded ``(cfg.seed, i)`` with ``cfg.kmeans_restarts`` restarts."""
    cfg = EvalConfig() if cfg is None else cfg
    rows = []
    for i in range(cfg.repeats):
        labels = kmeans(features, k, seed=(cfg.seed, i), restarts=cfg.kmeans_restarts)
        rows.append(majority_vote_metrics(labels, truth))
    arr = np.asarray(rows, dtype=float)
    means = arr.mean(axis=0)
    if cfg.repeats > 1:
        stderr = arr.std(axis=0, ddof=1) / np.sqrt(cfg.repeats)
    else:
        stderr = np.zeros(3)
    return RepeatedMetrics(ClusterMetrics(*means), ClusterMetrics(*stderr))
