"""Shared helpers for the test suite."""

from __future__ import annotations

import math

import numpy as np

from goca.eval import ClusterMetrics
from goca.ot_core import (
    _CHECK_EVERY,
    _NON_FINITE_PLAN,
    _STAGE_ITER_CAP,
    SinkhornResult,
    SolverConfig,
    _anneal_schedule,
    _forced_plan,
    _in_range,
    _uniform,
)
from goca.prototypes import _FINAL_LEARNING_RATE
from goca.ssl_engine import init_params
from goca.synth_data import SynthConfig, generate
from goca.verify import feasible_random_plan  # re-exported for the tests


def random_unit_rows(rng: np.random.Generator, rows: int, dim: int) -> np.ndarray:
    x = rng.standard_normal((rows, dim))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def tiny_views(seed: int, samples_per_class: int = 20, **synth):
    """The two-class data set that the training tests run on."""
    return generate(SynthConfig(num_classes=2, samples_per_class=samples_per_class, signal_dim=4,
                                distractor_dim=3, num_distractor_modes=4, seed=seed, **synth))


def tiny_instance(mode: str, seed: int, protos=None):
    """(params, protos, batch) of one 8-row step: 7- and 6-column views, 5 hidden
    units, and 4 random unit prototypes in 8 dimensions unless ``protos`` is given."""
    rng = np.random.default_rng(seed)
    params = init_params(mode, 7, 6, 5, 8 if protos is None else protos.shape[1], rng)
    if protos is None:
        protos = random_unit_rows(rng, 4, 8)
    batch = {key: rng.standard_normal((8, 7 if key[0] == "a" else 6))
             for key in ("a.t", "a.s", "b.t", "b.s")}
    return params, protos, batch


def flatten(arrays: dict) -> np.ndarray:
    """A parameter or gradient dict as one vector, raveled in sorted-key order."""
    return np.concatenate([arrays[k].ravel() for k in sorted(arrays)])


def unflatten(vec: np.ndarray, template: dict) -> dict:
    """``flatten``'s inverse: ``vec`` cut into ``template``'s keys and shapes."""
    out, offset = {}, 0
    for k in sorted(template):
        out[k] = vec[offset : offset + template[k].size].reshape(template[k].shape)
        offset += template[k].size
    return out


def marginal_miss(plan: np.ndarray, psi: np.ndarray, omega: np.ndarray) -> float:
    """Joint marginal residual of a mirror-descent plan, by the expression
    its feasibility projection stops on."""
    return max(
        float(np.max(np.abs(plan.sum(axis=1) - psi))),
        float(np.max(np.abs(plan.sum(axis=0) - omega))),
    )


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


def absorb_reference(log_kernel: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``goca.ot_core._absorb`` as it was before it worked in one buffer:
    one exact log-domain sweep from column potentials ``g``, returning
    the absorbed kernel and the new column potentials.  The library
    must return exactly (``np.array_equal``) these arrays."""
    row, col = _uniform(*log_kernel.shape)
    a = log_kernel + g[None, :]
    m = np.max(a, axis=1, keepdims=True)
    lse = np.log(np.sum(np.exp(a - m), axis=1)) + np.squeeze(m, axis=1)
    f = np.log(row) - lse
    shifted = log_kernel + f[:, None]
    peak = np.max(shifted, axis=0)
    kernel = np.exp(shifted - peak)
    col_scale = col / kernel.sum(axis=0)  # column sums are >= 1
    kernel *= col_scale
    return kernel, np.log(col_scale) - peak


def _scaling_stage_reference(
    effective_cost: np.ndarray,
    scale: float,
    g: np.ndarray,
    tolerance: float,
    max_iters: int,
):
    """Matrix-vector Sinkhorn sweeps u = a / (K v), v = b / (K^T u).

    The stage scales exp(-effective_cost / scale): it opens with an exact
    log-domain sweep and scales the kernel with those potentials
    absorbed; scalings that leave _SCALING_RANGE are rolled back to the
    last checkpoint and absorbed into the potentials.

    Returns (column potentials including log v, plan, sweeps, row
    residual, column residual, converged).
    """
    row, col = _uniform(*effective_cost.shape)
    log_kernel = -effective_cost / scale
    kernel, g = absorb_reference(log_kernel, g)
    u, v = np.ones(row.size), np.ones(col.size)
    checked_v = v
    sweeps = 1
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # ndarray.dot has less call overhead than @ on these small operands
        kv = kernel.dot(v)
        while True:
            checkpoint = min((sweeps // _CHECK_EVERY + 1) * _CHECK_EVERY, max_iters)
            for _ in range(checkpoint - sweeps):
                u = row / kv
                v = col / u.dot(kernel)
                kv = kernel.dot(v)
            sweeps = checkpoint
            if not (_in_range(u) and _in_range(v)):
                kernel, g = absorb_reference(log_kernel, g + np.log(checked_v))
                u, v = np.ones(row.size), np.ones(col.size)
                kv = kernel.dot(v)
                sweeps += 1
            checked_v = v
            # columns are exact after each v update; rows sum to u * (K v)
            if sweeps >= max_iters or np.abs(u * kv - row).max() <= tolerance:
                plan = u[:, None] * kernel * v[None, :]
                if not np.all(np.isfinite(plan)):
                    raise FloatingPointError(_NON_FINITE_PLAN.format(scale))
                row_res = float(np.max(np.abs(plan.sum(axis=1) - row)))
                col_res = float(np.max(np.abs(plan.sum(axis=0) - col)))
                converged = max(row_res, col_res) <= tolerance
                if converged or sweeps >= max_iters:
                    return g + np.log(v), plan, sweeps, row_res, col_res, converged


def solve_reference(effective_cost: np.ndarray, scale: float, cfg: SolverConfig) -> SinkhornResult:
    """``goca.ot_core._solve`` as it was before the Newton polish.

    Scales exp(-effective_cost / scale) to the marginals, annealing the
    regularization down to ``scale``, and stops at ``cfg.max_iters``.
    Where this converges, the polished solver must return exactly
    (``np.array_equal``) this plan with the same sweep counts.
    """
    if effective_cost.shape[0] == 1 or effective_cost.shape[1] == 1:
        return _forced_plan(effective_cost.shape, cfg.tolerance)
    g = np.zeros(effective_cost.shape[1])
    cost_range = float(np.max(effective_cost) - np.min(effective_cost))
    if not math.isfinite(cost_range / scale):
        raise FloatingPointError(_NON_FINITE_PLAN.format(scale))
    stages = _anneal_schedule(scale, cost_range)
    sweeps = 0
    for stage_scale in stages[:-1]:
        g, _, stage_sweeps, _, _, _ = _scaling_stage_reference(
            effective_cost, stage_scale, g, max(cfg.tolerance, 1e-9), _STAGE_ITER_CAP
        )
        sweeps += stage_sweeps
        # keep the Kantorovich potentials (scale * g) continuous across stages
        g = g * 2.0
    _, plan, iterations, row_res, col_res, converged = _scaling_stage_reference(
        effective_cost, scale, g, cfg.tolerance, cfg.max_iters
    )
    return SinkhornResult(
        plan, converged, iterations, row_res, col_res, sweeps + iterations, len(stages)
    )


def _entropy_of_counts(counts: np.ndarray) -> float:
    p = counts[counts > 0] / counts.sum()
    return float(-np.sum(p * np.log(p)))


def nmi_reference(a: np.ndarray, b: np.ndarray) -> float:
    """The ``nmi`` field of ``goca.eval.majority_vote_metrics``, from a count table built here."""
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
        lr = _FINAL_LEARNING_RATE + 0.5 * (cfg.learning_rate - _FINAL_LEARNING_RATE) * (
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
