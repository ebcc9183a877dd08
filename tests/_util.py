"""Shared helpers for the test suite."""

from __future__ import annotations

import numpy as np


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
