"""Clustering and retrieval metrics against hand-built oracles."""

import itertools
import warnings

import numpy as np
import pytest

from goca import eval as evalmod
from goca.eval import (
    EvalConfig,
    kmeans,
    majority_vote_metrics,
    normalized_mutual_info,
    recall_at_k,
    repeated_cluster_metrics,
    within_cluster_ss,
)

from _util import lloyd_reference, majority_vote_reference, nmi_reference, random_unit_rows


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


def _scoring_cases(seed: int) -> list[tuple[str, np.ndarray, np.ndarray]]:
    """(kind, clusters, truth) label pairs drawn from one seed.

    Label values are negative and gapped throughout.  The kinds cover
    random draws, n = 1, every point its own cluster, majority ties the
    lowest class must win, more classes than clusters (classes no
    cluster predicts score F1 = 0), and one cluster against one class.
    """
    rng = np.random.default_rng(seed)
    ids = np.arange(-40, 60, 3)
    cases = []
    for _ in range(30):
        n = int(rng.integers(1, 400))
        cluster_ids = rng.choice(ids, size=int(rng.integers(1, 9)), replace=False)
        class_ids = rng.choice(ids, size=int(rng.integers(1, 7)), replace=False)
        cases.append(("random", rng.choice(cluster_ids, n), rng.choice(class_ids, n)))
    cases.append(("n = 1", rng.choice(ids, 1), rng.choice(ids, 1)))
    n = int(rng.integers(2, 30))
    cases.append(("singletons", rng.choice(ids, n, replace=False), rng.choice(ids[:4], n)))
    for _ in range(5):
        # tied clusters hold m points of each of two classes; one untied
        # cluster keeps the class totals apart, so the tie-break shows in F1
        clusters, truth = [], []
        for cluster in rng.choice(ids, size=int(rng.integers(1, 4)), replace=False):
            pair = rng.choice(ids[:5], size=2, replace=False)
            m = int(rng.integers(1, 6))
            clusters += [cluster] * 2 * m
            truth += [pair[0]] * m + [pair[1]] * m
        extra = int(rng.integers(1, 10))
        clusters += [ids[-1]] * extra
        truth += list(rng.choice(ids[:5], extra))
        order = rng.permutation(len(clusters))
        cases.append(("ties", np.array(clusters)[order], np.array(truth)[order]))
    for _ in range(5):
        n = int(rng.integers(6, 200))
        cases.append((
            "unpredicted classes",
            rng.choice(ids[:2], n),
            rng.choice(rng.choice(ids, size=6, replace=False), n),
        ))
    n = int(rng.integers(1, 50))
    one = np.full(n, rng.choice(ids)), np.full(n, rng.choice(ids))
    cases.append(("one cluster, one class", *one))
    return cases


class TestScoringAgainstReference:
    """The count-table scoring returns the per-cluster, per-class loop's exact tuple."""

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_battery(self, seed):
        for kind, clusters, truth in _scoring_cases(seed):
            reference = majority_vote_reference(clusters, truth)
            assert majority_vote_metrics(clusters, truth) == reference, kind
            assert normalized_mutual_info(clusters, truth) == nmi_reference(clusters, truth), kind

    def test_one_cluster_one_class_scores_one(self):
        assert majority_vote_metrics(np.full(5, -3), np.full(5, 8)) == (1.0, 1.0, 1.0)

    def test_unpredicted_class_scores_zero_f1(self):
        # one cluster, majority class 2; classes -1 and 7 are never predicted
        metrics = majority_vote_metrics(np.zeros(6, dtype=int), np.array([2, 2, 2, -1, 7, 7]))
        assert metrics.accuracy == 0.5
        assert metrics.f1 == (2.0 * 0.5 * 1.0 / 1.5) / 3


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

    def test_width_mismatch_names_both_widths(self):
        rng = np.random.default_rng(11)
        with pytest.raises(ValueError, match="queries have 6 columns but the database has 12"):
            recall_at_k(
                random_unit_rows(rng, 3, 6), random_unit_rows(rng, 4, 12), np.zeros(3), np.zeros(4), 1
            )

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


class TestInputChecks:
    def test_k_above_distinct_rows_is_rejected(self):
        points = np.repeat(np.eye(2), 5, axis=0)
        with pytest.raises(ValueError, match="k = 3 exceeds the 2 distinct rows of the 10 samples"):
            kmeans(points, 3)
        with pytest.raises(ValueError, match="k = 3 exceeds the 2 distinct rows"):
            repeated_cluster_metrics(points, np.repeat([0, 1], 5), 3, EvalConfig(repeats=2))

    def test_k_equal_to_distinct_rows_splits_them(self):
        points = np.repeat(np.eye(2), 5, axis=0)
        labels = kmeans(points, 2, seed=0)
        assert len(set(labels[:5].tolist())) == 1
        assert len(set(labels[5:].tolist())) == 1
        assert labels[0] != labels[5]

    def test_signed_zeros_are_one_row(self):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [2.0, 2.0]])
        with pytest.raises(ValueError, match="exceeds the 2 distinct rows"):
            kmeans(points, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_are_rejected(self, bad):
        points = np.arange(12.0).reshape(6, 2)
        points[2, 1] = bad
        with pytest.raises(ValueError, match="1 of 12 values are NaN or infinite"):
            kmeans(points, 2)
        with pytest.raises(ValueError, match="1 of 12 values are NaN or infinite"):
            repeated_cluster_metrics(points, np.zeros(6, dtype=int), 2, EvalConfig(repeats=2))

    def test_k_below_one_is_rejected(self):
        with pytest.raises(ValueError, match="got k = 0"):
            kmeans(np.eye(3), 0)


_BATTERY_KINDS = ("grid", "duplicates", "scaled", "far_groups")
_BATTERY_REPEATS = 20


def _battery_cases(seed: int, count: int = 24):
    """Seeded k-means inputs that stress ties, duplicates, scale and reseeding.

    Integer grids give exact distance ties; duplicated rows give identical
    starting centroids, hence empty clusters; per-coordinate scales span
    1e-4 to 1e4; tight groups far apart leave clusters empty after a step.
    k runs from 1 to min(8, distinct rows), and every third case caps
    the iterations at 1-3.
    """
    rng = np.random.default_rng(seed)
    cases = []
    for i in range(count):
        kind = _BATTERY_KINDS[i % len(_BATTERY_KINDS)]
        n = int(rng.integers(5, 121))
        d = int(rng.integers(1, 21))
        if kind == "grid":
            x = rng.integers(-2, 3, size=(n, d)).astype(float)
        elif kind == "duplicates":
            base = rng.standard_normal((int(rng.integers(2, n + 1)), d))
            x = base[rng.integers(0, base.shape[0], size=n)]
        elif kind == "scaled":
            x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 4, size=d)
        else:
            groups = int(rng.integers(2, 6))
            centers = rng.standard_normal((groups, d)) * 10.0 ** rng.uniform(2, 4)
            noise = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-4, 0)
            x = centers[rng.integers(0, groups, size=n)] + noise
        k = int(rng.integers(1, min(8, np.unique(x, axis=0).shape[0]) + 1))
        max_iters = int(rng.integers(1, 4)) if i % 3 == 0 else 300
        cases.append((x, k, max_iters))
    return cases


def _reference_kmeans(x, k, seed, restarts):
    rng = np.random.default_rng(seed)
    best_labels, best_wcss = None, np.inf
    for _ in range(restarts):
        labels = lloyd_reference(x, k, rng, 300)
        wcss = within_cluster_ss(x, labels)
        if wcss < best_wcss:
            best_labels, best_wcss = labels, wcss
    return best_labels


class TestStackedLloyd:
    @pytest.mark.parametrize("seed", range(5))
    def test_battery_matches_one_run_at_a_time(self, seed, monkeypatch):
        exact_calls = []
        sq_dists = evalmod._sq_dists

        def counted(x, centroids):
            exact_calls.append(x.shape)
            return sq_dists(x, centroids)

        monkeypatch.setattr(evalmod, "_sq_dists", counted)
        for case, (x, k, max_iters) in enumerate(_battery_cases(seed)):
            starts = np.array([
                np.random.default_rng((seed, i)).choice(x.shape[0], size=k, replace=False)
                for i in range(_BATTERY_REPEATS)
            ])
            stacked = evalmod._lloyd(x, starts, max_iters)
            for i in range(_BATTERY_REPEATS):
                with warnings.catch_warnings():
                    # an empty cluster's mean would warn; with k at most
                    # the distinct rows none has been seen
                    warnings.simplefilter("error", RuntimeWarning)
                    reference = lloyd_reference(x, k, np.random.default_rng((seed, i)), max_iters)
                assert np.array_equal(stacked[i], reference), (case, i)
            assert np.array_equal(
                kmeans(x, k, seed=(seed, case), restarts=3),
                _reference_kmeans(x, k, (seed, case), 3),
            ), case
        # the exact fallback ranked some rows, and some runs reseeded
        assert sum(shape[0] for shape in exact_calls if len(shape) == 3) > 0
        assert any(len(shape) == 2 for shape in exact_calls)

    def test_block_size_does_not_change_labels(self, monkeypatch):
        x, k, _ = _battery_cases(0)[1]
        starts = np.array([
            np.random.default_rng((0, i)).choice(x.shape[0], size=k, replace=False)
            for i in range(7)
        ])
        whole = evalmod._lloyd(x, starts, 300)
        for runs_per_block in (1, 3):
            monkeypatch.setattr(evalmod, "_BLOCK_BYTES", 8 * k * x.shape[0] * runs_per_block)
            assert np.array_equal(evalmod._lloyd(x, starts, 300), whole)

    def test_repeated_metrics_match_reference_runs(self):
        rng = np.random.default_rng(12)
        truth = np.repeat(np.arange(3), 30)
        feats = rng.standard_normal((90, 5)) + 2.0 * np.eye(3, 5)[truth]
        cfg = EvalConfig(repeats=6, seed=3, kmeans_restarts=2)
        rows = [
            majority_vote_metrics(_reference_kmeans(feats, 3, (3, i), 2), truth)
            for i in range(cfg.repeats)
        ]
        arr = np.asarray(rows, dtype=float)
        rep = repeated_cluster_metrics(feats, truth, 3, cfg)
        assert tuple(rep.mean) == tuple(arr.mean(axis=0))
        assert tuple(rep.stderr) == tuple(arr.std(axis=0, ddof=1) / np.sqrt(cfg.repeats))


class TestClusterMeans:
    # np.add.reduceat in place of bincount fails this test: its sums
    # differ from numpy's row-order sums in the last bits.
    @pytest.mark.parametrize("d", [1, 2, 16])
    def test_bit_exact_against_masked_mean(self, d):
        rng = np.random.default_rng(40 + d)
        for members in range(1, 401):
            n = members + int(rng.integers(2, 10))
            x = rng.standard_normal((n, d)) * 10.0 ** rng.uniform(-3, 3, size=d)
            labels = np.zeros((2, n), dtype=np.intp)
            labels[0, rng.permutation(n)[:n - members]] = 1 + np.arange(n - members) % 2
            labels[1] = rng.permutation(np.arange(n) % 3)
            means = evalmod._cluster_means(x, labels, 3)
            for r in range(2):
                for j in range(3):
                    assert np.array_equal(means[r, j], x[labels[r] == j].mean(axis=0)), (members, r, j)
