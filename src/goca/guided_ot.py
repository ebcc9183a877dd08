"""Cross-view guided assignment.

The paper guides each view's assignment by the other view's, used as a
KL prior: view a's plan minimizes

    <D, C_a> - lambda1 * h(D) + lambda2 * KL(D | P_b)

over U, where P_b = diag(u) exp(-C_b / lambda1) diag(v) is view b's
plain plan.  Its log is a row term, a column term and -C_b / lambda1;
the marginals absorb the first two, so the problem is the plain one at
the same lambda1 on the cost mix (1 - w) * C_a + w * C_b, with
w = lambda2 / (lambda1 + lambda2).  ``cross_guided_assign`` solves that
mix, one plain solve per view; no prior is formed, so none is floored.
The guided solver for a prior a caller gives, ``guided_sinkhorn``, and
the prior clamp it applies live in ``ot_core`` and are re-exported here.
"""

from __future__ import annotations

import numpy as np

# perfbench/tracer.py wraps this module's sinkhorn and guided_sinkhorn, so
# cross_guided_assign must look sinkhorn up here
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

    Each view's plan is the guided one with the *other* view's plain plan
    on the same batch as its prior, solved in closed form: one plain
    ``sinkhorn`` at ``cfg.lambda1`` of the cost mix (1 - w) * own + w *
    other, w = lambda2 / (lambda1 + lambda2), with uniform marginals and
    ``cfg`` (``SolverConfig()`` if None).  lambda2 = 0 gives each view
    its own plain plan, and lambda2 much larger than lambda1 the other
    view's.
    """
    if np.shape(cost_a) != np.shape(cost_b):
        raise ValueError(f"shape mismatch: cost_a {np.shape(cost_a)} vs cost_b {np.shape(cost_b)}")
    cfg = SolverConfig() if cfg is None else cfg
    # scaled by the larger weight first, so that no pair of finite weights
    # overflows: w is exactly 0 at lambda2 = 0 and 1 at lambda2 = 1e308
    top = max(cfg.lambda1, cfg.lambda2)
    w = (cfg.lambda2 / top) / (cfg.lambda1 / top + cfg.lambda2 / top)
    a, b = np.asarray(cost_a, dtype=float), np.asarray(cost_b, dtype=float)
    # a non-finite entry of either cost leaves its mark on both mixes, which
    # sinkhorn's own check then reports instead of numpy's warning
    with np.errstate(over="ignore", invalid="ignore"):
        mix_a, mix_b = (1.0 - w) * a + w * b, (1.0 - w) * b + w * a
    return sinkhorn(mix_a, cfg=cfg), sinkhorn(mix_b, cfg=cfg)
