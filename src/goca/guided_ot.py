"""Prior-guided entropic assignment.

Adds a KL pull toward a prior plan to the entropic assignment problem:

    min_{D in U}  <D, C> - lambda1 * h(D) + lambda2 * KL(D | prior).

Grouping the entropy terms shows this is a plain entropic problem with
shifted cost C - lambda2 * log(prior) and regularization
lambda1 + lambda2, so the minimizer keeps the scaling form
D = diag(u) K diag(v) with the elementwise-positive guided kernel

    K = exp((-C + lambda2 * log prior) / (lambda1 + lambda2))
      = prior^(lambda2 / (lambda1 + lambda2)) * exp(-C / (lambda1 + lambda2)),

and the same alternating row/column scaling applies.  Logs are taken of
prior entries floored at ``SolverConfig.prior_floor``; the solution is
invariant to the prior's total mass, so priors need not be normalized.

The cross-view wiring takes the two views' costs against one shared
prototype set, as ``cost_from_features`` forms them, solves each view
plainly first, then re-solves it guided by the *other* view's plain plan.
"""

from __future__ import annotations

import numpy as np

from .ot_core import (
    Marginals,
    SinkhornResult,
    SolverConfig,
    _solve,
    _validate_problem,
    sinkhorn,
)

__all__ = [
    "clamp_prior",
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


def guided_sinkhorn(
    cost: np.ndarray,
    prior: np.ndarray,
    marginals: Marginals | None = None,
    cfg: SolverConfig | None = None,
) -> SinkhornResult:
    """Minimize the guided objective over U by scaling the guided kernel."""
    c, marginals, cfg = _validate_problem(cost, marginals, cfg)
    p = clamp_prior(prior)
    if p.shape != c.shape:
        raise ValueError(f"shape mismatch: cost {c.shape} vs prior {p.shape}")
    # a shift past float64 becomes inf, which _solve's cost range check
    # reports as a FloatingPointError, not as numpy's overflow warning
    with np.errstate(over="ignore"):
        shifted = c - cfg.lambda2 * np.log(p)
    # _solve, not sinkhorn, so that a wrapper of sinkhorn counts plain solves only
    return _solve(shifted, cfg.lambda1 + cfg.lambda2, marginals, cfg)


def cross_guided_assign(
    cost_a: np.ndarray,
    cost_b: np.ndarray,
    cfg: SolverConfig | None = None,
) -> tuple[SinkhornResult, SinkhornResult]:
    """Assign two views, each guided by the other, from their costs against
    one shared prototype set (one batch of M samples, so both are M x N).

    Per view, the plain plan of the *other* view on the same batch is the
    prior; priors are recomputed from scratch for every call.  All four
    solves use uniform marginals and ``cfg`` (``SolverConfig()`` if None).
    """
    if np.shape(cost_a) != np.shape(cost_b):
        raise ValueError(f"shape mismatch: cost_a {np.shape(cost_a)} vs cost_b {np.shape(cost_b)}")
    plain_a = sinkhorn(cost_a, cfg=cfg)
    plain_b = sinkhorn(cost_b, cfg=cfg)
    guided_a = guided_sinkhorn(cost_a, plain_b.plan, cfg=cfg)
    guided_b = guided_sinkhorn(cost_b, plain_a.plan, cfg=cfg)
    return guided_a, guided_b
