"""Entropic optimal assignment over the transport polytope.

The assignment between a batch of M unit feature vectors and N unit
prototypes is the matrix D in U(psi, omega) minimizing

    <D, C> - lambda1 * h(D),

where U(psi, omega) is the set of nonnegative M x N matrices with row
sums psi and column sums omega, C is the feature-to-prototype cost and
h(D) = -sum_ij d_ij log d_ij.  The minimizer has the scaling form
D = diag(u) K diag(v) with kernel K = exp(-C / lambda1); the scaling
vectors are found by alternating row/column (Sinkhorn) updates, run as
one matrix-vector scaling loop, u = psi / (K v) and v = omega / (K^T u).

The guided variant adds a KL pull toward a prior plan:

    min_{D in U}  <D, C> - lambda1 * h(D) + lambda2 * KL(D | prior).

Grouping the entropy terms shows this is a plain entropic problem with
shifted cost C - lambda2 * log(prior) and regularization
lambda1 + lambda2, so the same scaling form and loop apply, with the
elementwise-positive guided kernel

    K = exp((-C + lambda2 * log prior) / (lambda1 + lambda2))
      = prior^(lambda2 / (lambda1 + lambda2)) * exp(-C / (lambda1 + lambda2)).

Logs are taken of prior entries floored at ``SolverConfig.prior_floor``;
the solution is invariant to the prior's total mass, so priors need not
be normalized.

The loop is stabilized by log-domain absorption (Schmitzer,
arXiv:1610.06519), so that regularization as small as lambda1 ~ 0.001
neither under- nor overflows.  A stage opens with one exact
log-sum-exp row/column sweep and then scales the kernel with those
potentials absorbed, exp(-C / lambda1 + f + g), whose entries are at
most 1.  Every 10 sweeps, and at the cap, the loop checks its
scalings, u and v in one pass: if either has left [1e-50, 1e50] it
rolls back to the last checked scalings and absorbs them into f and
g.  The row residual at a check comes from u * (K v), which the next
update needs anyway; columns are exact after each v update.  A plan counts as converged
only when both residuals of the materialized plan meet the tolerance.
The regularization is annealed only where the kernel exponent spread
range(C) / lambda1 exceeds 128: stages then halve it from where that
spread is at most 128 down to lambda1, each warm-started from the
previous stage's potentials.  Cosine costs have a range of at most 2,
so at lambda1 >= 1/64, the default 0.02 included, a solve is a single
stage.  A regularization so small that range(C) / regularization leaves
the float64 range raises FloatingPointError before annealing, as does a
non-finite plan.

The final stage, the only one the caller's max_iters caps (so for a
single-stage solve the cap bounds all of its sweeps), may end in a
Newton polish (Sinkhorn-Newton, Brauer et al., arXiv:1710.06635):
damped Newton on the M + N - 1 dual potentials (the last column
potential fixed), from the materialized plan.  Two checks polish: the
first where the row residual did not shrink over the last 10 sweeps, or
shrinks at a rate that meets the tolerance only after more sweeps (M N
each) than a Newton solve costs (4 (M + N)^3), and the check at the
cap, also after a polish that failed (singular Hessian, no descent, or
its step cap spent).  A polish that meets the tolerance ends the stage.
The rate needs two checks, so a cap of at most 10 sweeps is never
polished.  Each Newton step solves with the Hessian refilled in one
preallocated matrix and tests convergence on the row and column sums
that the next step's gradient and Hessian reuse.  Where scaling
converges before any check polishes, the plan is bit-for-bit that of
scaling alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace
from typing import ClassVar

import numpy as np

__all__ = [
    "Marginals",
    "SolverConfig",
    "SinkhornResult",
    "clamp_prior",
    "cost_from_features",
    "guided_sinkhorn",
    "marginal_residual",
    "sinkhorn",
    "unit_rows",
]

# Tolerance for the unit-norm precondition on feature/prototype rows.
_UNIT_NORM_ATOL = 1e-6


def check_config(config, bounds: dict[str, int | str]) -> None:
    """Raise ValueError naming the first field of the dataclass instance
    ``config`` that is annotated ``int`` but holds no integer (a numpy
    integer counts) or holds a NaN or infinite float, then the first field
    of ``bounds`` outside its bound, which is ``"positive"`` or an int N for
    at least N (read as nonnegative for 0).  The message reads
    ``<field> must be <rule>, got <value>``."""
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and not isinstance(value, (int, np.integer)):
            raise ValueError(f"{f.name} must be an integer, got {value}")
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")
    for name, bound in bounds.items():
        value = getattr(config, name)
        if bound == "positive":
            ok, rule = value > 0, bound
        else:
            ok, rule = value >= bound, "nonnegative" if bound == 0 else f"at least {bound}"
        if not ok:
            raise ValueError(f"{name} must be {rule}, got {value}")


def _row_norms(arr: np.ndarray) -> np.ndarray:
    """L2 norms of the rows (last axis, kept), by np.linalg.norm's arithmetic for
    real input without its dispatch.  A norm past the float range is inf and
    raises no numpy warning: both callers name it in their own error."""
    with np.errstate(over="ignore"):
        return np.sqrt(np.add.reduce(arr * arr, axis=-1, keepdims=True))


def require_unit_rows(arr: np.ndarray, name: str, atol: float) -> None:
    """Raise ValueError naming the first row of ``arr`` whose norm is more than
    ``atol`` away from 1 (inf if it overflows); no caller needs an errstate."""
    off = np.abs(_row_norms(arr)[:, 0] - 1.0)
    # written so that a NaN norm fails it too
    if not np.max(off) <= atol:
        row = int(np.argmin(off <= atol))
        raise ValueError(f"{name} rows must be unit-norm; row {row} is off by {off[row]}")


def unit_rows(arr: np.ndarray, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Rows (last axis) of ``arr`` over their L2 norms, bit-equal to ``arr /
    np.linalg.norm(arr, axis=-1, keepdims=True)``, and the norms (axis kept).
    A zero norm raises ValueError and a non-finite one FloatingPointError,
    naming ``name``, the first such row (flat over leading axes) and its norm
    (inf if it overflows), with no warning, so no caller needs an errstate."""
    norms = _row_norms(arr)
    if not (norms.all() and np.isfinite(norms).all()):
        flat = norms.ravel()
        row = int(np.argmin((flat != 0) & np.isfinite(flat)))
        message = f"cannot scale {name} row {row} to unit length: its norm is {flat[row]}"
        raise (ValueError if flat[row] == 0 else FloatingPointError)(message)
    return arr / norms, norms


@dataclass(frozen=True)
class Marginals:
    """Prescribed row mass psi and column mass omega of the plan."""

    row: np.ndarray
    col: np.ndarray

    def __post_init__(self):
        row = np.asarray(self.row, dtype=float)
        col = np.asarray(self.col, dtype=float)
        object.__setattr__(self, "row", row)
        object.__setattr__(self, "col", col)
        if row.ndim != 1 or col.ndim != 1:
            raise ValueError("marginals must be vectors")
        if row.size < 1 or col.size < 1:
            raise ValueError("marginals must be non-empty")
        # written so that a NaN entry fails it too
        if not (np.all(row > 0.0) and np.all(col > 0.0)):
            raise ValueError("marginal entries must be strictly positive")
        for name, vec in (("row", row), ("col", col)):
            if abs(float(vec.sum()) - 1.0) > 1e-12:
                raise ValueError(f"{name} marginal must sum to 1 within 1e-12")

    @classmethod
    @functools.lru_cache(maxsize=64)
    def uniform(cls, num_rows: int, num_cols: int) -> "Marginals":
        """Uniform marginals, built and validated once per shape and
        shared by every caller, so their arrays are read-only."""
        if num_rows < 1 or num_cols < 1:
            raise ValueError("marginals must be non-empty")
        row = np.full(num_rows, 1.0 / num_rows)
        col = np.full(num_cols, 1.0 / num_cols)
        row.flags.writeable = col.flags.writeable = False
        return cls(row, col)


@dataclass(frozen=True)
class SolverConfig:
    """Solver knobs: regularization, iteration cap and stopping rule.

    ``tolerance`` bounds the L-infinity marginal residual of the
    returned plan.  ``prior_floor``, a class constant rather than a
    field, is the floor prior entries are clamped to before logs are
    taken in the guided variant.
    """

    lambda1: float = 0.02
    lambda2: float = 0.03
    max_iters: int = 10_000
    tolerance: float = 1e-8
    prior_floor: ClassVar[float] = 1e-12

    def __post_init__(self):
        check_config(self, {
            "lambda1": "positive", "lambda2": 0, "max_iters": 1, "tolerance": "positive",
        })


# SolverConfig is frozen, so one validated default serves every solve
_DEFAULT_CONFIG = SolverConfig()


@dataclass(frozen=True)
class SinkhornResult:
    """Transport plan plus convergence diagnostics.

    ``converged`` is True when both residuals of ``plan`` meet the
    tolerance.  It is False when the iteration cap was reached first; the
    plan is then the last iterate, which training code may still use.
    ``iterations`` counts the sweeps of the final (target-regularization)
    stage, the one the cap applies to; ``sweeps`` counts the sweeps of
    all ``stages``, annealing stages included.  Annealing runs only where
    range(C) / lambda1 exceeds 128, so most solves, every one at the
    default lambda1 included, are a single stage that the cap bounds
    whole: a cap of a few sweeps then returns a cold iterate, possibly
    far off the marginals.  ``newton_steps`` counts the steps of the
    Newton polish that finished the final stage after its ``iterations``
    sweeps; it is 0 when scaling alone converged or the plan is capped.
    """

    plan: np.ndarray
    converged: bool
    iterations: int
    row_residual: float
    col_residual: float
    sweeps: int = 0
    stages: int = 0
    newton_steps: int = 0


def cost_from_features(features: np.ndarray, prototypes: np.ndarray) -> np.ndarray:
    """Negative cosine similarity between feature rows and prototype rows.

    Both inputs must have unit-norm rows of the same dimension; entries
    of the result lie in [-1, 1] up to rounding.
    """
    feats = np.asarray(features, dtype=float)
    protos = np.asarray(prototypes, dtype=float)
    if feats.ndim != 2 or protos.ndim != 2:
        raise ValueError("features and prototypes must be 2-D")
    if feats.shape[1] != protos.shape[1]:
        raise ValueError(
            f"dimension mismatch: features are {feats.shape[1]}-D, "
            f"prototypes are {protos.shape[1]}-D"
        )
    for name, arr in (("features", feats), ("prototypes", protos)):
        if not len(arr):
            raise ValueError(
                f"{name} must have at least one row; features are {feats.shape}, "
                f"prototypes are {protos.shape}"
            )
    require_unit_rows(feats, "feature", _UNIT_NORM_ATOL)
    require_unit_rows(protos, "prototype", _UNIT_NORM_ATOL)
    return -(feats @ protos.T)


def marginal_residual(plan: np.ndarray, marginals: Marginals) -> tuple[float, float]:
    """(max |row sums - psi|, max |col sums - omega|)."""
    d = np.asarray(plan, dtype=float)
    if d.shape != (marginals.row.size, marginals.col.size):
        raise ValueError("plan shape does not match marginals")
    row_res = float(np.max(np.abs(d.sum(axis=1) - marginals.row)))
    col_res = float(np.max(np.abs(d.sum(axis=0) - marginals.col)))
    return row_res, col_res


# Regularization annealing: the scaling loop warm-starts from stages whose
# regularization is halved down to the target, starting where the kernel
# exponent spread range(cost)/scale is at most _START_SPREAD.  Cold-started
# Sinkhorn enters a 1/iteration residual regime on near-degenerate instances
# when the regularization is small against the cost gaps; carrying rescaled
# potentials across stages keeps every stage in its linear-rate basin.
# Each stage opens with an exact _absorb.  With the final stage polished
# (see _NEWTON_STEPS), stages up to a spread of 128 cost more sweeps than
# their warm start saves; beyond it cold starts stall: from a spread of
# 192 on, one draw of the solver's property battery (seeds 0-39, lambda1
# down to 1e-3) ends short of the tolerance.
_START_SPREAD = 128.0
_STAGE_ITER_CAP = 500

# The residual is checked, and the scalings range-checked, every
# _CHECK_EVERY sweeps and at the cap.  Scalings outside _SCALING_RANGE are
# rolled back and absorbed into the potentials; their product with the
# absorbed kernel (entries at most 1) then stays far from overflow.
_CHECK_EVERY = 10
_SCALING_RANGE = (1e-50, 1e50)

# A Newton polish takes at most _NEWTON_STEPS steps; its line search
# accepts a step once the dual objective falls by _ARMIJO times the
# predicted decrease, and gives up below a step length of _MIN_STEP.
# A cold single stage hands the polish a plan further from the optimum
# than an annealed one: polishes that converge take up to 13 steps, and
# under a cap of 16 some of criterion c03's tiny guided instances fail.
_NEWTON_STEPS = 20
# A final stage is polished once the sweeps its residual rate still needs
# would cost more than a Newton solve, taken as _NEWTON_WORK * (M + N)^3
# against M * N per sweep.  At training shape, 100 x 64, that is 2,757
# projected sweeps, more than training's cap of 2,000; but the rule
# compares projected sweeps, so a training solve whose residual stalls
# (near 2.2e-3, falling 1.7 % per check, projects 4,469) is polished
# before the cap.
_NEWTON_WORK = 4
_ARMIJO = 1e-4
_MIN_STEP = 1e-10

_NON_FINITE_PLAN = (
    "transport plan is not finite at regularization {:.3g}: "
    "cost / regularization leaves the float64 range"
)


def _anneal_schedule(scale: float, cost_range: float) -> list[float]:
    stages = [scale]
    s = scale
    while s < cost_range / _START_SPREAD:
        s *= 2.0
        stages.append(s)
    stages.reverse()
    return stages


def _absorb(
    log_kernel: np.ndarray, marginals: Marginals, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """One exact log-domain sweep from column potentials ``g``.

    Returns the kernel exp(log_kernel + f + g') with the updated row and
    column potentials absorbed, so its columns sum to the column
    marginal, and the new column potentials g'.  Both log-sum-exp
    passes work in place in one M x N buffer, which becomes the kernel.
    """
    work = log_kernel + g
    row_peak = work.max(axis=1, keepdims=True)
    work -= row_peak
    f = np.log(marginals.row) - (np.log(np.exp(work, out=work).sum(axis=1)) + row_peak[:, 0])
    np.add(log_kernel, f[:, None], out=work)
    peak = work.max(axis=0)
    work -= peak
    kernel = np.exp(work, out=work)
    col_scale = marginals.col / kernel.sum(axis=0)  # column sums are >= 1
    kernel *= col_scale
    return kernel, np.log(col_scale) - peak


def _in_range(x: np.ndarray) -> bool:
    low, high = _SCALING_RANGE
    return bool(low <= x.min() and x.max() <= high)  # False on NaN


def _worth_polishing(res: float, prev: float, tolerance: float, shape: tuple[int, int]) -> bool:
    """Whether an M x N stage should hand its plan to _newton_polish now.

    It should when the row residual, ``prev`` one check block ago and
    ``res`` now, did not shrink, or when at its observed rate it meets
    ``tolerance`` only after more sweeps than a Newton solve is worth: a
    sweep costs about M N, a Newton solve about _NEWTON_WORK (M + N)^3.
    A stage this never fires for is polished at its cap instead.
    """
    if res >= prev:
        return True
    blocks = math.log(tolerance / res) / math.log(res / prev)
    m, n = shape
    return _CHECK_EVERY * blocks * m * n > _NEWTON_WORK * (m + n) ** 3


def _newton_polish(plan: np.ndarray, marginals: Marginals, tolerance: float):
    """Damped Newton on the dual potentials, starting from ``plan``.

    The unknowns are the row shifts df and the column shifts dg but the
    last (fixed at 0).  A step minimizes the dual objective
    sum(P * exp(df_i + dg_j)) - a . df - b . dg, whose Hessian at P is
    [[diag(P 1), P'], [P'^T, diag(P^T 1)']] with ' dropping the last
    column, and backtracks until the objective falls by at least
    _ARMIJO times the predicted decrease.  The Hessian is refilled in
    place each step; its zero blocks stay zero.  The row and column sums
    of each new plan both test convergence and give the next step.

    Returns (plan, steps) once both residuals of the plan meet
    ``tolerance``, or None when the Hessian is singular, a step finds
    no descent or _NEWTON_STEPS run out.
    """
    row, col = marginals.row, marginals.col
    m, n = plan.shape
    hessian = np.zeros((m + n - 1, m + n - 1))
    diagonal = hessian.reshape(-1)[:: m + n]  # a view of the diagonal
    step_g = np.zeros(n)  # the last column potential stays fixed
    rows, cols = plan.sum(axis=1), plan.sum(axis=0)
    row_gap, col_gap = rows - row, cols - col
    for steps in range(1, _NEWTON_STEPS + 1):
        grad = np.concatenate([row_gap, col_gap[:-1]])
        diagonal[:m] = rows
        diagonal[m:] = cols[:-1]
        hessian[:m, m:] = plan[:, :-1]
        hessian[m:, :m] = plan[:, :-1].T
        try:
            delta = np.linalg.solve(hessian, -grad)
        except np.linalg.LinAlgError:
            return None
        step_f = delta[:m]
        step_g[:-1] = delta[m:]
        slope = float(grad.dot(delta))
        if not slope < 0.0:
            return None
        linear = row.dot(step_f) + col.dot(step_g)
        t = 1.0
        while True:
            exponent = t * step_f[:, None] + t * step_g[None, :]
            # expm1 keeps the objective change exact near the optimum
            change = float((plan * np.expm1(exponent)).sum()) - t * linear
            if change <= _ARMIJO * t * slope:
                break
            t *= 0.5
            if t < _MIN_STEP:
                return None
        plan = plan * np.exp(exponent)
        rows, cols = plan.sum(axis=1), plan.sum(axis=0)
        row_gap, col_gap = rows - row, cols - col
        # marginal_residual's arithmetic, on gaps the next step reuses
        if max(float(np.abs(row_gap).max()), float(np.abs(col_gap).max())) <= tolerance:
            return plan, steps
    return None


def _scaling_stage(
    effective_cost: np.ndarray,
    scale: float,
    marginals: Marginals,
    g: np.ndarray,
    tolerance: float,
    max_iters: int,
    polish: bool = False,
):
    """Matrix-vector Sinkhorn sweeps u = a / (K v), v = b / (K^T u).

    The stage scales exp(-effective_cost / scale): it opens with an exact
    log-domain sweep and scales the kernel with those potentials
    absorbed; scalings that leave _SCALING_RANGE are rolled back to the
    last checkpoint and absorbed into the potentials.  With ``polish``,
    the first check whose row residual rate makes a polish worth it (see
    _worth_polishing) hands the plan to _newton_polish, and the cap check
    polishes in any case, also after that polish failed.  Both need the
    residual of the check before, so a stage capped within one check
    block is never polished.

    Returns the column potentials including log v (without the shifts
    of a polish) and a SinkhornResult whose ``iterations`` are the
    stage's sweeps, with ``newton_steps`` set when a polish ended it.
    """
    row, col = marginals.row, marginals.col
    # one pass over the cost; negating the divisor is as exact as negating C
    log_kernel = effective_cost / -scale
    kernel, g = _absorb(log_kernel, marginals, g)
    u, v = np.ones(row.size), np.ones(col.size)
    checked_v = v
    sweeps = 1
    prev = None  # row residual at the last check
    rate_polished = False  # whether _worth_polishing has fired
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
            if not _in_range(np.concatenate((u, v))):
                kernel, g = _absorb(log_kernel, marginals, g + np.log(checked_v))
                u, v = np.ones(row.size), np.ones(col.size)
                kv = kernel.dot(v)
                sweeps += 1
            checked_v = v
            # columns are exact after each v update; rows sum to u * (K v)
            res = float(np.abs(u * kv - row).max())
            if sweeps >= max_iters or res <= tolerance:
                plan = u[:, None] * kernel
                plan *= v
                if not np.isfinite(plan).all():
                    raise FloatingPointError(_NON_FINITE_PLAN.format(scale))
                row_res, col_res = marginal_residual(plan, marginals)
                converged = max(row_res, col_res) <= tolerance
                result = SinkhornResult(plan, converged, sweeps, row_res, col_res)
                if converged:
                    return g + np.log(v), result
            if (
                polish
                and prev is not None
                and res > tolerance
                and (
                    sweeps >= max_iters
                    or (not rate_polished and _worth_polishing(res, prev, tolerance, kernel.shape))
                )
            ):
                rate_polished = True
                polished = _newton_polish(u[:, None] * kernel * v[None, :], marginals, tolerance)
                if polished is not None:
                    plan, steps = polished
                    residuals = marginal_residual(plan, marginals)
                    result = SinkhornResult(plan, True, sweeps, *residuals, newton_steps=steps)
                    return g + np.log(v), result
            if sweeps >= max_iters:
                return g + np.log(v), result
            prev = res


def _solve(
    effective_cost: np.ndarray, scale: float, marginals: Marginals, cfg: SolverConfig
) -> SinkhornResult:
    """Scale exp(-effective_cost / scale) to the marginals, annealing the
    regularization down to ``scale``; only the final stage, the one
    ``cfg.max_iters`` caps, may end in a Newton polish."""
    if effective_cost.shape[0] == 1 or effective_cost.shape[1] == 1:
        return _forced_plan(marginals, cfg.tolerance)
    g = np.zeros(marginals.col.size)
    # Python floats, so that a range past float64 becomes inf without numpy's warning
    cost_range = float(effective_cost.max()) - float(effective_cost.min())
    if not math.isfinite(cost_range / scale):
        raise FloatingPointError(_NON_FINITE_PLAN.format(scale))
    stages = _anneal_schedule(scale, cost_range)
    sweeps = 0
    for stage_scale in stages[:-1]:
        g, stage = _scaling_stage(
            effective_cost, stage_scale, marginals, g, max(cfg.tolerance, 1e-9), _STAGE_ITER_CAP
        )
        sweeps += stage.iterations
        # keep the Kantorovich potentials (scale * g) continuous across stages
        g = g * 2.0
    _, result = _scaling_stage(
        effective_cost, scale, marginals, g, cfg.tolerance, cfg.max_iters, polish=True
    )
    return replace(result, sweeps=sweeps + result.iterations, stages=len(stages))


def _validate_problem(
    cost: np.ndarray, marginals: Marginals | None, cfg: SolverConfig | None
) -> tuple[np.ndarray, Marginals, SolverConfig]:
    """The cost as a float matrix, with uniform marginals and the default
    solver settings filled in where none are given."""
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2:
        raise ValueError("cost must be a 2-D matrix")
    if 0 in c.shape:
        raise ValueError(f"cost must have at least one row and one column, got shape {c.shape}")
    if not np.all(np.isfinite(c)):
        raise ValueError("cost matrix entries must be finite")
    m, n = c.shape
    if marginals is None:
        marginals = Marginals.uniform(m, n)
    if marginals.row.size != m or marginals.col.size != n:
        raise ValueError("marginals do not match the cost matrix shape")
    return c, marginals, _DEFAULT_CONFIG if cfg is None else cfg


def _forced_plan(marginals: Marginals, tolerance: float) -> SinkhornResult:
    # With a single row or column the constraints pin the plan exactly, but
    # its sums still carry the rounding of the marginal's own sum.
    plan = np.outer(marginals.row, marginals.col)
    residuals = marginal_residual(plan, marginals)
    return SinkhornResult(plan, max(residuals) <= tolerance, 0, *residuals)


def sinkhorn(
    cost: np.ndarray,
    marginals: Marginals | None = None,
    cfg: SolverConfig | None = None,
) -> SinkhornResult:
    """Minimize <D, C> - lambda1 * h(D) over U(psi, omega).

    Defaults to uniform marginals and ``SolverConfig()``.
    """
    c, marginals, cfg = _validate_problem(cost, marginals, cfg)
    return _solve(c, cfg.lambda1, marginals, cfg)


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
