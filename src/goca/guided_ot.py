"""Prior-guided entropic assignment.

Adds a KL pull toward a prior plan to the entropic assignment problem:

    min_{D in U}  <D, C> - lambda1 * h(D) + lambda2 * KL(D | prior).

Grouping the entropy terms shows this is a plain entropic problem with
shifted cost C - lambda2 * log(prior) and regularization
lambda1 + lambda2, so the minimizer keeps the scaling form
D = diag(u) K diag(v) with the elementwise-positive guided kernel

    K = exp((-C + lambda2 * log prior) / (lambda1 + lambda2))
      = prior^(lambda2 / (lambda1 + lambda2)) * exp(-C / (lambda1 + lambda2)),

and the same alternating row/column scaling applies.  Prior entries are
floored at ``prior_floor`` before logs are taken; the solution is
invariant to the prior's total mass, so priors need not be normalized.

The cross-view wiring solves each view plainly first, then re-solves it
guided by the *other* view's plain plan, against one shared prototype
set.
"""

from __future__ import annotations

import numpy as np

from .ot_core import (
    Marginals,
    SinkhornResult,
    SolverConfig,
    _solve,
    _validate_problem,
    cost_from_features,
    entropy,
    sinkhorn,
)

__all__ = [
    "clamp_prior",
    "guided_objective",
    "guided_sinkhorn",
    "cross_guided_assign",
]


def clamp_prior(prior: np.ndarray, floor: float = SolverConfig.prior_floor) -> np.ndarray:
    """Floor prior entries so logs stay finite."""
    p = np.asarray(prior, dtype=float)
    if not np.all(np.isfinite(p)):
        raise ValueError("prior entries must be finite")
    if np.any(p < 0.0):
        raise ValueError("prior entries must be nonnegative")
    return np.maximum(p, floor)


def guided_objective(
    plan: np.ndarray,
    cost: np.ndarray,
    prior: np.ndarray,
    lambda1: float,
    lambda2: float,
    prior_floor: float = SolverConfig.prior_floor,
) -> float:
    """<D, C> - lambda1 * h(D) + lambda2 * KL(D | prior)."""
    d = np.asarray(plan, dtype=float)
    c = np.asarray(cost, dtype=float)
    p = clamp_prior(prior, prior_floor)
    if d.shape != c.shape or d.shape != p.shape:
        raise ValueError("plan, cost and prior shapes must match")
    pos = d > 0.0
    kl = float(np.sum(d[pos] * np.log(d[pos] / p[pos])))
    return float(np.sum(d * c)) - lambda1 * entropy(d) + lambda2 * kl


def guided_sinkhorn(
    cost: np.ndarray,
    prior: np.ndarray,
    marginals: Marginals | None = None,
    cfg: SolverConfig | None = None,
) -> SinkhornResult:
    """Minimize the guided objective over U by scaling the guided kernel."""
    c, marginals, cfg = _validate_problem(cost, marginals, cfg)
    p = clamp_prior(prior, cfg.prior_floor)
    if p.shape != c.shape:
        raise ValueError(f"shape mismatch: cost {c.shape} vs prior {p.shape}")
    # _solve, not sinkhorn, so that a wrapper of sinkhorn counts plain solves only
    return _solve(c - cfg.lambda2 * np.log(p), cfg.lambda1 + cfg.lambda2, marginals, cfg)


def cross_guided_assign(
    feats_a: np.ndarray,
    feats_b: np.ndarray,
    prototypes: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[SinkhornResult, SinkhornResult]:
    """Assign two views against shared prototypes, each guided by the other.

    Per view, the plain plan of the *other* view on the same batch is the
    prior; priors are recomputed from scratch for every call.  All four
    solves use uniform marginals and ``cfg`` (``SolverConfig()`` if None).
    """
    fa = np.asarray(feats_a, dtype=float)
    fb = np.asarray(feats_b, dtype=float)
    if fa.shape[0] != fb.shape[0]:
        raise ValueError("both views must contain the same number of samples")
    cost_a = cost_from_features(fa, prototypes)
    cost_b = cost_from_features(fb, prototypes)
    plain_a = sinkhorn(cost_a, cfg=cfg)
    plain_b = sinkhorn(cost_b, cfg=cfg)
    guided_a = guided_sinkhorn(cost_a, plain_b.plan, cfg=cfg)
    guided_b = guided_sinkhorn(cost_b, plain_a.plan, cfg=cfg)
    return guided_a, guided_b
