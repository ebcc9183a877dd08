"""Clustering and retrieval metrics against hand-built oracles."""

import itertools

import numpy as np
import pytest

from goca.eval import (
    EvalConfig,
    kmeans,
    majority_vote_metrics,
    normalized_mutual_info,
    recall_at_k,
    repeated_cluster_metrics,
    within_cluster_ss,
)

from _util import random_unit_rows


def _brute_force_wcss(points: np.ndarray, k: int) -> float:
    """Exhaustive assignment enumeration with centroid re-fit."""
    best = np.inf
    n = points.shape[0]
    for assignment in itertools.product(range(k), repeat=n):
        labels = np.asarray(assignment)
        total = 0.0
        for j in range(k):
            members = points[labels == j]
            if len(members):
                total += float(((members - members.mean(axis=0)) ** 2).sum())
        best = min(best, total)
    return best


class TestKMeans:
    def test_separated_pairs(self):
        points = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        labels = kmeans(points, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_m(self):
        rng = np.random.default_rng(0)
        points = rng.standard_normal((5, 3))
        labels = kmeans(points, 5, seed=0)
        assert len(set(labels.tolist())) == 5
        assert within_cluster_ss(points, labels) == pytest.approx(0.0, abs=1e-18)

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(1)
        points = rng.standard_normal((8, 2))
        labels = kmeans(points, 2, seed=0, restarts=30)
        assert within_cluster_ss(points, labels) == pytest.approx(
            _brute_force_wcss(points, 2), rel=1e-12
        )

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        points = rng.standard_normal((30, 4))
        a = kmeans(points, 3, seed=7)
        b = kmeans(points, 3, seed=7)
        assert np.array_equal(a, b)

    def test_rejects_k_above_m(self):
        with pytest.raises(ValueError):
            kmeans(np.zeros((3, 2)), 4)


class TestMajorityVoteMetrics:
    def test_perfect_clustering(self):
        truth = np.array([0, 0, 1, 1, 2, 2])
        clusters = np.array([2, 2, 0, 0, 1, 1])  # relabeled but identical partition
        metrics = majority_vote_metrics(clusters, truth)
        assert metrics == (1.0, 1.0, 1.0)

    def test_single_cluster_two_classes(self):
        truth = np.array([0, 0, 1, 1])
        clusters = np.zeros(4, dtype=int)
        metrics = majority_vote_metrics(clusters, truth)
        assert metrics.accuracy == pytest.approx(0.5)
        assert metrics.nmi == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_contingency(self):
        clusters = np.array([0, 0, 1, 1])
        truth = np.array([0, 1, 0, 1])
        metrics = majority_vote_metrics(clusters, truth)
        # contingency is uniform 2x2: no mutual information, majority ties
        # resolve to class 0 in both clusters
        assert metrics.nmi == pytest.approx(0.0, abs=1e-12)
        assert metrics.accuracy == pytest.approx(0.5)
        # all samples labeled 0: class 0 has precision 0.5 / recall 1.0,
        # class 1 has no predictions
        assert metrics.f1 == pytest.approx(0.5 * (2 * 0.5 * 1.0 / 1.5 + 0.0))

    def test_metrics_in_unit_interval(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            clusters = rng.integers(0, 4, size=40)
            truth = rng.integers(0, 3, size=40)
            metrics = majority_vote_metrics(clusters, truth)
            for value in metrics:
                assert 0.0 <= value <= 1.0


class TestNMI:
    def test_symmetry(self):
        rng = np.random.default_rng(4)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 4, size=50)
        assert normalized_mutual_info(a, b) == pytest.approx(
            normalized_mutual_info(b, a), abs=1e-12
        )

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(5)
        a = rng.integers(0, 3, size=50)
        b = rng.integers(0, 3, size=50)
        relabeled = (b + 7) * 13  # injective relabeling
        assert normalized_mutual_info(a, relabeled) == pytest.approx(
            normalized_mutual_info(a, b), abs=1e-12
        )

    def test_identical_partitions_reach_one(self):
        a = np.array([0, 0, 1, 1, 2, 2])
        assert normalized_mutual_info(a, a) == pytest.approx(1.0, abs=1e-12)


class TestRecallAtK:
    def test_duplicated_queries(self):
        rng = np.random.default_rng(6)
        db = random_unit_rows(rng, 8, 5)
        labels = np.arange(8)
        assert recall_at_k(db, db, labels, labels, 1) == 1.0

    def test_full_k_with_all_classes_present(self):
        rng = np.random.default_rng(7)
        queries = random_unit_rows(rng, 5, 4)
        db = random_unit_rows(rng, 10, 4)
        q_labels = rng.integers(0, 2, size=5)
        db_labels = np.array([0, 1] * 5)
        assert recall_at_k(queries, db, q_labels, db_labels, 10) == 1.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        queries = random_unit_rows(rng, 10, 4)
        db = random_unit_rows(rng, 10, 4)
        q_labels = rng.integers(0, 3, size=10)
        db_labels = rng.integers(0, 3, size=10)
        for k in (1, 3, 10):
            hits = 0
            for i in range(10):
                dists = [(-float(queries[i] @ db[j]), j) for j in range(10)]
                dists.sort()
                neighbor_labels = {db_labels[j] for _, j in dists[:k]}
                hits += q_labels[i] in neighbor_labels
            assert recall_at_k(queries, db, q_labels, db_labels, k) == pytest.approx(hits / 10)

    def test_k_larger_than_database_rejected(self):
        rng = np.random.default_rng(9)
        db = random_unit_rows(rng, 4, 3)
        with pytest.raises(ValueError):
            recall_at_k(db, db, np.zeros(4), np.zeros(4), 5)


class TestRepeatedMetrics:
    def test_mean_and_stderr_shapes(self):
        rng = np.random.default_rng(10)
        feats = np.concatenate(
            [rng.standard_normal((20, 3)) + 4 * e for e in np.eye(3)[:2]]
        )
        truth = np.repeat([0, 1], 20)
        rep = repeated_cluster_metrics(feats, truth, 2, EvalConfig(repeats=10, seed=0))
        assert rep.mean.accuracy > 0.9
        assert rep.stderr.accuracy >= 0.0

    def test_single_repeat_has_zero_stderr(self):
        rng = np.random.default_rng(11)
        feats = rng.standard_normal((12, 3))
        truth = rng.integers(0, 2, size=12)
        rep = repeated_cluster_metrics(feats, truth, 2, EvalConfig(repeats=1, seed=0))
        assert rep.stderr == (0.0, 0.0, 0.0)
