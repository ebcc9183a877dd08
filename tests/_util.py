"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from goca.eval import ClusterMetrics


def random_unit_rows(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def project_to_marginals(
    matrix: np.ndarray,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    sweeps: int = 500,
) -> np.ndarray:
    """Alternating row/column rescaling; test-local feasibility helper."""
    out = np.asarray(matrix, dtype=float).copy()
    for _ in range(sweeps):
        out *= (row_marginal / out.sum(axis=1))[:, None]
        out *= (col_marginal / out.sum(axis=0))[None, :]
    return out


def feasible_random_plan(
    rng: np.random.Generator,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
) -> np.ndarray:
    raw = np.exp(rng.uniform(-1.0, 1.0, size=(row_marginal.size, col_marginal.size)))
    return project_to_marginals(raw, row_marginal, col_marginal)


def zero_sum_perturbation(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Random matrix with zero row and column sums (a feasible direction)."""
    delta = np.zeros((rows, cols))
    i, ii = rng.choice(rows, size=2, replace=False)
    j, jj = rng.choice(cols, size=2, replace=False)
    delta[i, j] += 1.0
    delta[ii, jj] += 1.0
    delta[i, jj] -= 1.0
    delta[ii, j] -= 1.0
    return delta


def relative_max_error(analytic: np.ndarray, reference: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(reference))), 1e-12)
    return float(np.max(np.abs(analytic - reference))) / scale


def log_sinkhorn_reference(
    cost: np.ndarray,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    reg: float,
    tolerance: float = 1e-10,
    max_sweeps: int = 50_000,
) -> np.ndarray:
    """Textbook log-domain Sinkhorn from zero potentials, no annealing.

    Alternates exact log-sum-exp row and column updates until the row
    residual of exp(-cost / reg + f + g) meets ``tolerance`` (columns
    are exact after each column update); raises if ``max_sweeps`` runs out.
    """
    log_kernel = -np.asarray(cost, dtype=float) / reg
    g = np.zeros(col_marginal.size)
    for _ in range(max_sweeps):
        shifted = log_kernel + g[None, :]
        peak = shifted.max(axis=1, keepdims=True)
        f = np.log(row_marginal) - np.log(np.exp(shifted - peak).sum(axis=1)) - peak[:, 0]
        shifted = log_kernel + f[:, None]
        peak = shifted.max(axis=0, keepdims=True)
        g = np.log(col_marginal) - np.log(np.exp(shifted - peak).sum(axis=0)) - peak[0]
        plan = np.exp(log_kernel + f[:, None] + g[None, :])
        if np.max(np.abs(plan.sum(axis=1) - row_marginal)) <= tolerance:
            return plan
    raise RuntimeError("reference Sinkhorn did not reach its tolerance")


def lloyd_reference(x: np.ndarray, k: int, rng: np.random.Generator, max_iters: int):
    """One Lloyd run at a time, with the exact broadcast distance.

    The loop ``goca.eval`` ran before its runs were stacked: ties go to
    the lowest centroid index, an empty cluster takes the farthest point,
    and the labels are returned once an iteration leaves them unchanged.
    The stacked loop must return exactly (``np.array_equal``) these labels.
    """
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


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi_reference(a: np.ndarray, b: np.ndarray) -> float:
    """``goca.eval.normalized_mutual_info`` as it was before its count table was shared."""
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


def majority_vote_reference(clusters: np.ndarray, truth: np.ndarray) -> ClusterMetrics:
    """Majority-vote scoring with a loop per cluster and per class.

    ``goca.eval.majority_vote_metrics`` as it was before it read every
    metric from one count table; the table version must return exactly
    (``==``) this tuple.  Majority ties go to the lowest class id.
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
    return ClusterMetrics(accuracy, nmi_reference(clusters, truth), float(np.mean(f1_scores)))


def _reference_loss(w: np.ndarray) -> float:
    omega = w @ w.T
    np.fill_diagonal(omega, omega.diagonal() - 2.0)
    return float(np.mean(np.max(omega, axis=1)))


def _reference_grad(w: np.ndarray) -> np.ndarray:
    sims = w @ w.T
    np.fill_diagonal(sims, -np.inf)
    j_star = np.argmax(sims, axis=1)
    grad = w[j_star].copy()
    np.add.at(grad, j_star, w)
    return grad / w.shape[0]


def _reference_unit_rows(raw: np.ndarray) -> np.ndarray:
    return raw / np.linalg.norm(raw, axis=1, keepdims=True)


def _reference_descend(rng: np.random.Generator, count: int, dim: int, cfg):
    w = _reference_unit_rows(rng.standard_normal((count, dim)))
    best_w = w.copy()
    best_loss = _reference_loss(w)
    span = max(cfg.steps - 1, 1)
    for step in range(cfg.steps):
        lr = cfg.final_learning_rate + 0.5 * (cfg.learning_rate - cfg.final_learning_rate) * (
            1.0 + math.cos(math.pi * step / span)
        )
        w = _reference_unit_rows(w - lr * _reference_grad(w))
        loss = _reference_loss(w)
        if loss < best_loss:
            best_loss = loss
            best_w = w.copy()
    return best_w, best_loss


def sequential_prototypes_reference(count: int, dim: int, cfg) -> np.ndarray:
    """Prototype placement one restart at a time, two Gram matrices per step.

    The per-restart loop ``goca.prototypes.optimize_prototypes`` ran
    before its restarts were batched, with the same arithmetic in the
    same order; the batched descent must return exactly
    (``np.array_equal``) what this returns.
    """
    best_w = None
    best_loss = np.inf
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        w, loss = _reference_descend(rng, count, dim, cfg)
        if loss < best_loss:
            best_loss = loss
            best_w = w
    return best_w
