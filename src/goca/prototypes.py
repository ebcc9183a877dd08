"""Maximally separated unit prototypes on the hypersphere.

Places N unit vectors in Phi dimensions by minimizing the mean, over
rows, of each row's largest cosine similarity to any other row:

    loss(W) = (1/N) sum_i max_j Omega_ij,   Omega = W W^T - 2 I.

The -2I shift drops the diagonal to -1 so the row max picks the worst
off-diagonal cosine.  The row max is nonsmooth, so the optimizer runs
projected subgradient descent (lowest-index tie-breaking) with a cosine
learning-rate schedule, re-projecting onto the sphere after every step
and keeping the best iterate seen per restart.

All restarts descend together as one (restarts, N, Phi) stack, and each
step forms one Gram matrix per restart, which gives both the loss of
the new iterate and the nearest rows for the next subgradient.  The
arithmetic per restart is the same, in the same order, as descending
one restart at a time.

The Gram multiplies each set by a contiguous copy of its transpose:
numpy sends a product of a buffer with its own transposed view down a
slower path (symmetric rank-k update per set), and the copy costs less
than it saves.  The descent's bits are pinned against the one-restart
loop in ``tests/_util.sequential_prototypes_reference``, and each step
kernel against its own reference there.

For N <= Phi + 1 the optimum is the regular simplex with all pairwise
cosines at -1/(N-1); for N = 2 the pair is antipodal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ot_core import check_config, require_unit_rows, unit_rows

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
        check_config(self, {
            "steps": 1, "learning_rate": "positive", "final_learning_rate": "positive",
            "restarts": 1, "seed": 0,
        })


def _checked(prototypes: np.ndarray) -> np.ndarray:
    w = np.asarray(prototypes, dtype=float)
    if w.ndim != 2 or w.shape[0] < 2:
        raise ValueError("prototypes must be a matrix with at least 2 rows")
    # loose enough that finite-difference probes off the sphere stay valid
    require_unit_rows(w, "prototype", 1e-4)
    return w


class _StackIndex:
    """Flat offsets into an (R, N, D) stack and its (R, N, N) Grams.

    They depend only on the shape, so a descent builds them once instead
    of once per step.
    """

    def __init__(self, shape: tuple[int, int, int]):
        sets, count, dim = shape
        rows = np.arange(sets * count)
        self.gram_rows = rows * count  # each row's first Gram entry
        self.diagonal = self.gram_rows + rows % count  # each row's own Gram entry
        self.set_rows = rows - rows % count  # first stack row of each row's set
        self.columns = np.tile(np.arange(dim), sets * count)  # column of each entry


def _loss_and_nearest(
    stack: np.ndarray, index: _StackIndex | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Loss and nearest other row of each set in an (R, N, D) stack.

    One Gram matrix per set gives both.  The nearest row is the lowest
    index among ties of the largest off-diagonal cosine; a row's loss
    term is the larger of that cosine and its own shifted diagonal
    entry G_ii - 2, which is exactly the row max of W W^T - 2 I.
    """
    if index is None:
        index = _StackIndex(stack.shape)
    sets, count, _ = stack.shape
    gram = np.matmul(stack, np.ascontiguousarray(stack.transpose(0, 2, 1)))
    flat = gram.ravel()
    shifted_self = flat.take(index.diagonal) - 2.0
    flat[index.diagonal] = -np.inf
    nearest = np.argmax(gram, axis=2)
    closest = flat.take(index.gram_rows + nearest.ravel())
    # np.mean's own arithmetic: one add.reduce along each set, then one divide
    terms = np.maximum(closest, shifted_self).reshape(sets, count)
    return np.add.reduce(terms, axis=1) / count, nearest


def _subgradient(
    stack: np.ndarray, nearest: np.ndarray, index: _StackIndex | None = None
) -> np.ndarray:
    """Loss subgradient of each set in an (R, N, D) stack, given ``_loss_and_nearest``'s rows."""
    if index is None:
        index = _StackIndex(stack.shape)
    count, dim = stack.shape[1:]
    rows = nearest.ravel() + index.set_rows
    grad = stack.reshape(-1, dim).take(rows, axis=0)
    # Adding entry by entry on one raveled index gives every entry its terms
    # in row order, as row-wise np.add.at on a single set does, and takes
    # numpy's fast 1-D path.
    entries = np.repeat(rows * dim, dim) + index.columns
    np.add.at(grad.ravel(), entries, stack.ravel())
    return (grad / count).reshape(stack.shape)


def prototype_loss(prototypes: np.ndarray) -> float:
    """Mean over rows of the largest off-diagonal cosine."""
    loss, _ = _loss_and_nearest(_checked(prototypes)[None])
    return float(loss[0])


def prototype_loss_grad(prototypes: np.ndarray) -> np.ndarray:
    """Subgradient of prototype_loss; row argmax ties break at the lowest index."""
    stack = _checked(prototypes)[None]
    _, nearest = _loss_and_nearest(stack)
    return _subgradient(stack, nearest)[0]


def project_to_sphere(raw: np.ndarray) -> np.ndarray:
    """Rescale each row to unit L2 norm; idempotent up to rounding.  A row
    with a non-finite entry or a zero or overflowing norm is an error."""
    w = np.asarray(raw, dtype=float)
    if w.ndim != 2:
        raise ValueError("expected a 2-D matrix")
    finite = np.isfinite(w).all(axis=1)
    if not finite.all():
        row = int(np.argmin(finite))
        raise ValueError(f"cannot project a non-finite row onto the sphere; row {row} is {w[row]}")
    return unit_rows(w, "input")[0]


def max_pairwise_cosine(prototypes: np.ndarray) -> float:
    w = _checked(prototypes)
    sims = w @ w.T
    np.fill_diagonal(sims, -np.inf)
    return float(np.max(sims))


def _descend(rngs: list[np.random.Generator], count: int, dim: int, cfg: ProtoOptConfig):
    """Projected subgradient descent from one random start per generator.

    All restarts advance together as one (R, N, D) stack.  Returns each
    restart's best iterate (R, N, D), its loss (R,) and its loss trace
    (R, steps + 1), whose first column is the loss of the start.
    """
    w, _ = unit_rows(np.stack([rng.standard_normal((count, dim)) for rng in rngs]), "prototype")
    index = _StackIndex(w.shape)
    loss, nearest = _loss_and_nearest(w, index)
    trace = np.empty((len(rngs), cfg.steps + 1))
    trace[:, 0] = loss
    best_w = w.copy()
    best_loss = loss.copy()
    span = max(cfg.steps - 1, 1)
    for step in range(cfg.steps):
        lr = cfg.final_learning_rate + 0.5 * (cfg.learning_rate - cfg.final_learning_rate) * (
            1.0 + math.cos(math.pi * step / span)
        )
        w, _ = unit_rows(w - lr * _subgradient(w, nearest, index), "prototype")
        loss, nearest = _loss_and_nearest(w, index)
        trace[:, step + 1] = loss
        improved = loss < best_loss
        np.copyto(best_loss, loss, where=improved)
        np.copyto(best_w, w, where=improved[:, None, None])
    return best_w, best_loss, trace


def optimize_prototypes(count: int, dim: int, cfg: ProtoOptConfig | None = None) -> np.ndarray:
    """Best prototype set over independent seeded restarts.

    The returned rows are unit-norm and the loss never exceeds the loss
    of the run's own random initialization (the best iterate is kept).
    Ties between restarts go to the lowest restart index.
    """
    if count < 2 or dim < 2:
        raise ValueError(
            f"need at least 2 prototypes in at least 2 dimensions, got {count} in {dim}"
        )
    if cfg is None:
        cfg = ProtoOptConfig()
    rngs = [np.random.default_rng((cfg.seed, restart)) for restart in range(cfg.restarts)]
    best_w, best_loss, _ = _descend(rngs, count, dim, cfg)
    return best_w[np.argmin(best_loss)]
