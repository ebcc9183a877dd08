"""Maximally separated unit prototypes on the hypersphere.

Places N unit vectors in Phi dimensions by minimizing the mean, over
rows, of each row's largest cosine similarity to any other row:

    loss(W) = (1/N) sum_i max_j Omega_ij,   Omega = W W^T - 2 I.

The -2I shift drops the diagonal to -1 so the row max picks the worst
off-diagonal cosine.  The row max is nonsmooth, so the optimizer runs
projected subgradient descent (lowest-index tie-breaking) with a cosine
learning-rate schedule, re-projecting onto the sphere after every step
and keeping the best iterate seen per restart.

For N <= Phi + 1 the optimum is the regular simplex with all pairwise
cosines at -1/(N-1); for N = 2 the pair is antipodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ProtoOptConfig",
    "prototype_loss",
    "prototype_loss_grad",
    "project_to_sphere",
    "optimize_prototypes",
    "max_pairwise_cosine",
]


@dataclass(frozen=True)
class ProtoOptConfig:
    steps: int = 5000
    learning_rate: float = 0.1
    final_learning_rate: float = 1e-3
    restarts: int = 5
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be at least 1")
        if self.learning_rate <= 0.0:
            raise ValueError("learning_rate must be positive")
        if self.final_learning_rate <= 0.0:
            raise ValueError("final_learning_rate must be positive")
        if self.restarts < 1:
            raise ValueError("restarts must be at least 1")


def _checked(prototypes: np.ndarray) -> np.ndarray:
    w = np.asarray(prototypes, dtype=float)
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("prototypes must be a matrix with at least 2 rows")
    norms = np.linalg.norm(w, axis=1)
    # loose enough that finite-difference probes off the sphere stay valid
    if np.max(np.abs(norms - 1.0)) > 1e-4:
        raise ValueError("prototype rows must be unit-norm")
    return w


def _shifted_gram(w: np.ndarray) -> np.ndarray:
    omega = w @ w.T
    np.fill_diagonal(omega, omega.diagonal() - 2.0)
    return omega


def prototype_loss(prototypes: np.ndarray) -> float:
    """Mean over rows of the largest off-diagonal cosine."""
    w = _checked(prototypes)
    return float(np.mean(np.max(_shifted_gram(w), axis=1)))


def prototype_loss_grad(prototypes: np.ndarray) -> np.ndarray:
    """Subgradient of prototype_loss; row argmax ties break at the lowest index."""
    w = _checked(prototypes)
    sims = w @ w.T
    np.fill_diagonal(sims, -np.inf)
    j_star = np.argmax(sims, axis=1)
    grad = w[j_star].copy()
    np.add.at(grad, j_star, w)
    return grad / w.shape[0]


def project_to_sphere(raw: np.ndarray) -> np.ndarray:
    """Rescale each row to unit L2 norm; idempotent, zero rows are an error."""
    w = np.asarray(raw, dtype=float)
    if w.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    norms = np.linalg.norm(w, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise ValueError("cannot project a zero row onto the sphere")
    return w / norms


def max_pairwise_cosine(prototypes: np.ndarray) -> float:
    w = _checked(prototypes)
    sims = w @ w.T
    np.fill_diagonal(sims, -np.inf)
    return float(np.max(sims))


def _descend(rng: np.random.Generator, count: int, dim: int, cfg: ProtoOptConfig):
    w = project_to_sphere(rng.standard_normal((count, dim)))
    best_w = w.copy()
    best_loss = prototype_loss(w)
    trace = [best_loss]
    span = max(cfg.steps - 1, 1)
    for step in range(cfg.steps):
        lr = cfg.final_learning_rate + 0.5 * (cfg.learning_rate - cfg.final_learning_rate) * (
            1.0 + math.cos(math.pi * step / span)
        )
        w = project_to_sphere(w - lr * prototype_loss_grad(w))
        loss = prototype_loss(w)
        trace.append(loss)
        if loss < best_loss:
            best_loss = loss
            best_w = w.copy()
    return best_w, best_loss, trace


def optimize_prototypes(count: int, dim: int, cfg: ProtoOptConfig | None = None) -> np.ndarray:
    """Best prototype set over independent seeded restarts.

    The returned rows are unit-norm and the loss never exceeds the loss
    of the run's own random initialization (the best iterate is kept).
    """
    if count < 2 or dim < 2:
        raise ValueError("need at least 2 prototypes in at least 2 dimensions")
    if cfg is None:
        cfg = ProtoOptConfig()
    best_w = None
    best_loss = np.inf
    for restart in range(cfg.restarts):
        rng = np.random.default_rng((cfg.seed, restart))
        w, loss, _ = _descend(rng, count, dim, cfg)
        if loss < best_loss:
            best_loss = loss
            best_w = w
    return best_w
