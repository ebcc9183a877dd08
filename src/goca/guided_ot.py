"""Cross-view guided assignment.

The cross-view wiring takes the two views' costs against one shared
prototype set, as ``cost_from_features`` forms them, solves each view
plainly first, then re-solves it guided by the *other* view's plain plan.
The guided solver and the prior clamp it applies live in ``ot_core``
and are re-exported here.
"""

from __future__ import annotations

import numpy as np

# perfbench/tracer.py wraps this module's sinkhorn and guided_sinkhorn, so
# cross_guided_assign must look both up here
from .ot_core import SinkhornResult, SolverConfig, clamp_prior, guided_sinkhorn, sinkhorn

__all__ = [
    "clamp_prior",
    "guided_sinkhorn",
    "cross_guided_assign",
]


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
