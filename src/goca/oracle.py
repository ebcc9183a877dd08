"""Independent brute-force verifiers for the transport solvers.

Everything here is kept numerically and textually independent of the
production solver modules: nothing imports from them, and objectives
are accumulated by direct summation.  The module holds

* the plain and guided entropic objective (``entropic_objective``),
* one-dimensional golden-section search for the minimizer over 2 x 2
  plans, which have a single degree of freedom once the marginals are
  fixed (``golden_section_2x2``),
* damped entropic mirror descent with alternating exact Bregman
  projections onto the row- and column-marginal sets, for plans up to
  4 x 4 (``mirror_descent_small``),
* a duality gap that certifies plans of any size (``entropic_gap``), and
* a central-difference gradient (``finite_diff_grad``).

Priors are taken as given (strictly positive); callers apply whatever
flooring the solver under test applies, so both sides minimize the same
objective.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "entropic_objective",
    "golden_section_2x2",
    "mirror_descent_small",
    "entropic_gap",
    "finite_diff_grad",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0

# mirror_descent_small's outer-step cap, projection residual target and
# objective stall threshold
_MAX_OUTER = 20_000
_FEASIBILITY_TOL = 1e-12
_STALL_TOL = 1e-14


def entropic_objective(
    plan: np.ndarray,
    cost: np.ndarray,
    lambda1: float,
    prior: np.ndarray | None = None,
    lambda2: float = 0.0,
) -> float:
    """<D, C> - lambda1 * h(D) + lambda2 * KL(D | prior), with 0 log 0 = 0.

    h(D) = -sum d log d.  The KL term is summed only when a prior is given
    and lambda2 is nonzero.
    """
    d = np.asarray(plan, dtype=float)
    c = np.asarray(cost, dtype=float)
    if d.shape != c.shape:
        raise ValueError(f"shape mismatch: plan {d.shape} vs cost {c.shape}")
    if np.any(d < 0.0):
        raise ValueError("plan entries must be nonnegative")
    pos = d > 0.0
    entropy = float(-np.sum(d[pos] * np.log(d[pos])))
    total = float(np.sum(d * c)) - lambda1 * entropy
    if prior is not None and lambda2 != 0.0:
        p = np.asarray(prior, dtype=float)
        if p.shape != d.shape:
            raise ValueError(f"shape mismatch: plan {d.shape} vs prior {p.shape}")
        if np.any(p <= 0.0):
            raise ValueError("prior entries must be strictly positive")
        total += lambda2 * float(np.sum(d[pos] * np.log(d[pos] / p[pos])))
    return total


def _xlogx(value: float) -> float:
    return value * math.log(value) if value > 0.0 else 0.0


def _objective_2x2(cells, cost, prior, lambda1, lambda2) -> float:
    total = 0.0
    for d, c in zip(cells, cost):
        total += d * c + lambda1 * _xlogx(d)
    if prior is not None and lambda2 != 0.0:
        for d, p in zip(cells, prior):
            total += lambda2 * (_xlogx(d) - d * math.log(p))
    return total


def golden_section_2x2(
    cost: np.ndarray,
    prior: np.ndarray | None,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    lambda1: float,
    lambda2: float = 0.0,
) -> np.ndarray:
    """Minimize the (guided) entropic objective over all feasible 2 x 2 plans.

    A feasible plan is [[t, psi1 - t], [om1 - t, psi2 - om1 + t]]; the
    objective is strictly convex in t, so golden-section search on the
    feasible interval to width 1e-12 recovers the optimum.
    """
    c = np.asarray(cost, dtype=float)
    if c.shape != (2, 2):
        raise ValueError("golden_section_2x2 handles 2 x 2 instances only")
    cost_cells = [float(c[0, 0]), float(c[0, 1]), float(c[1, 0]), float(c[1, 1])]
    prior_cells = None
    if prior is not None:
        p = np.asarray(prior, dtype=float)
        if p.shape != (2, 2):
            raise ValueError("prior must be 2 x 2")
        if np.any(p <= 0.0):
            raise ValueError("prior entries must be strictly positive")
        prior_cells = [float(p[0, 0]), float(p[0, 1]), float(p[1, 0]), float(p[1, 1])]
    psi1, psi2 = float(row_marginal[0]), float(row_marginal[1])
    om1 = float(col_marginal[0])

    def cells(t: float):
        return (
            max(t, 0.0),
            max(psi1 - t, 0.0),
            max(om1 - t, 0.0),
            max(psi2 - om1 + t, 0.0),
        )

    def phi(t: float) -> float:
        return _objective_2x2(cells(t), cost_cells, prior_cells, lambda1, lambda2)

    def dphi(t: float) -> float:
        # strictly increasing on the open interval; -inf/+inf at the ends
        d11, d12, d21, d22 = cells(t)
        if d11 == 0.0 or d22 == 0.0:
            return -math.inf
        if d12 == 0.0 or d21 == 0.0:
            return math.inf
        delta_cost = cost_cells[0] - cost_cells[1] - cost_cells[2] + cost_cells[3]
        value = delta_cost + (lambda1 + lambda2) * math.log(d11 * d22 / (d12 * d21))
        if prior_cells is not None and lambda2 != 0.0:
            value -= lambda2 * math.log(
                prior_cells[0] * prior_cells[3] / (prior_cells[1] * prior_cells[2])
            )
        return value

    lo = max(0.0, om1 - psi2)
    hi = min(psi1, om1)
    a, b = lo, hi
    x1 = b - _INVPHI * (b - a)
    x2 = a + _INVPHI * (b - a)
    f1, f2 = phi(x1), phi(x2)
    while b - a > 1e-12:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _INVPHI * (b - a)
            f1 = phi(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _INVPHI * (b - a)
            f2 = phi(x2)
    t = 0.5 * (a + b)
    # the objective is numerically flat within ~1e-8 of the optimum, so
    # polish by bisecting the derivative's sign change around the bracket
    a2 = max(lo, t - 1e-6)
    b2 = min(hi, t + 1e-6)
    if not (dphi(a2) < 0.0 < dphi(b2)):
        a2, b2 = lo, hi
    for _ in range(90):
        mid = 0.5 * (a2 + b2)
        if mid <= a2 or mid >= b2:
            break
        if dphi(mid) < 0.0:
            a2 = mid
        else:
            b2 = mid
    t = 0.5 * (a2 + b2)
    d11, d12, d21, d22 = cells(t)
    return np.array([[d11, d12], [d21, d22]])


def _log_sum_exp(values: np.ndarray, axis: int) -> np.ndarray:
    peak = values.max(axis=axis, keepdims=True)
    return np.log(np.exp(values - peak).sum(axis=axis, keepdims=True)) + peak


def _project_onto_marginals(
    log_plan: np.ndarray,
    psi: np.ndarray,
    omega: np.ndarray,
    tol: float,
    max_passes: int = 20_000,
) -> np.ndarray:
    """Alternating exact KL projections onto the row- and column-marginal sets.

    Each row (column) normalization is the exact Bregman projection onto
    its constraint set; passes alternate until the joint residual reaches
    ``tol``.  The normalizations are log-sum-exp shifts of the log plan,
    so entries that underflow in the plain domain neither stall nor blow
    up the scaling.  Returns the projected log plan.
    """
    log_psi = np.log(psi)
    log_omega = np.log(omega)
    for _ in range(max_passes):
        log_plan = log_plan + (log_psi[:, None] - _log_sum_exp(log_plan, 1))
        log_plan = log_plan + (log_omega[None, :] - _log_sum_exp(log_plan, 0))
        plan = np.exp(log_plan)
        residual = max(
            float(np.max(np.abs(plan.sum(axis=1) - psi))),
            float(np.max(np.abs(plan.sum(axis=0) - omega))),
        )
        if residual <= tol:
            break
    return log_plan


def mirror_descent_small(
    cost: np.ndarray,
    prior: np.ndarray | None,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    lambda1: float,
    lambda2: float = 0.0,
) -> np.ndarray:
    """Entropic mirror descent on the (guided) objective over U.

    Works on the log plan.  Each outer step multiplies in
    exp(-eta * gradient) with eta = 0.5 / (lambda1 + lambda2), then
    restores feasibility by alternating exact KL projections onto the
    row- and column-marginal sets until the residual drops below
    ``_FEASIBILITY_TOL``.  Stops once the objective stalls below
    ``_STALL_TOL`` and consecutive log plans agree to 1e-12, or after
    ``_MAX_OUTER`` steps.
    """
    c = np.asarray(cost, dtype=float)
    if c.ndim != 2 or max(c.shape) > 4:
        raise ValueError("mirror_descent_small handles instances up to 4 x 4")
    psi = np.asarray(row_marginal, dtype=float)
    omega = np.asarray(col_marginal, dtype=float)
    effective_cost = c
    if prior is not None and lambda2 != 0.0:
        p = np.asarray(prior, dtype=float)
        if np.any(p <= 0.0):
            raise ValueError("prior entries must be strictly positive")
        effective_cost = c - lambda2 * np.log(p)
    scale = lambda1 + lambda2
    eta = 0.5 / scale

    log_plan = np.log(np.outer(psi, omega))
    prev_obj = np.inf
    for _ in range(_MAX_OUTER):
        previous = log_plan
        log_plan = (1.0 - eta * scale) * log_plan - eta * effective_cost - eta * scale
        # a few projection passes per step keep the iterate near-feasible;
        # the endgame polish below runs them to _FEASIBILITY_TOL
        log_plan = _project_onto_marginals(log_plan, psi, omega, _FEASIBILITY_TOL, max_passes=3)
        plan = np.exp(log_plan)
        obj = float(np.sum(plan * effective_cost) + scale * np.sum(plan * log_plan))
        drift = float(np.max(np.abs(log_plan - previous)))
        if abs(obj - prev_obj) < _STALL_TOL and drift <= 1e-12:
            break
        prev_obj = obj
    return np.exp(_project_onto_marginals(log_plan, psi, omega, _FEASIBILITY_TOL))


def _round_to_marginals(plan: np.ndarray, psi: np.ndarray, omega: np.ndarray) -> np.ndarray:
    """Altschuler, Weed and Rigollet (arXiv:1705.09634), Algorithm 2.

    Scales down the rows, then the columns, that carry too much mass,
    and adds the mass still missing as the rank-one plan
    err_r err_c^T / |err_c|_1, so the result meets both marginals.
    """
    rows = plan.sum(axis=1)
    x = np.minimum(np.divide(psi, rows, out=np.ones_like(psi), where=rows > 0.0), 1.0)
    scaled = plan * x[:, None]
    cols = scaled.sum(axis=0)
    y = np.minimum(np.divide(omega, cols, out=np.ones_like(omega), where=cols > 0.0), 1.0)
    scaled = scaled * y[None, :]
    err_r = psi - scaled.sum(axis=1)
    err_c = omega - scaled.sum(axis=0)
    missing = float(np.sum(err_c))
    if missing > 0.0:
        scaled = scaled + np.outer(err_r, err_c) / missing
    return scaled


def _potentials(x: np.ndarray, positive: np.ndarray):
    """Row and column terms f, g whose sum f_i + g_j fits ``x`` in least
    squares over the ``positive`` entries.

    With every entry positive this is the double-centring of ``x``, which
    one pass computes; otherwise passes of masked row and column means
    alternate until they no longer move the terms.
    """
    row_count = positive.sum(axis=1)
    col_count = positive.sum(axis=0)
    x = np.where(positive, x, 0.0)
    g = np.zeros(x.shape[1])
    for _ in range(200):
        f = (x - np.where(positive, g[None, :], 0.0)).sum(axis=1) / row_count
        g_new = (x - np.where(positive, f[:, None], 0.0)).sum(axis=0) / col_count
        if positive.all() or np.max(np.abs(g_new - g)) <= 1e-15 * (1.0 + np.max(np.abs(g_new))):
            return f, g_new
        g = g_new
    return f, g


def entropic_gap(
    plan: np.ndarray,
    cost: np.ndarray,
    reg: float,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    prior: np.ndarray | None = None,
    lambda2: float = 0.0,
) -> tuple[float, float]:
    """Certify a plan for the (guided) entropic problem, at any size.

    Returns (gap, move).  The plan is first rounded onto U exactly (see
    ``_round_to_marginals``); ``move`` is the largest entry change that
    took.  Dual potentials f, g are read off the plan, by fitting
    f_i + g_j to reg * (log P + 1) + C over its positive entries (entries
    that underflowed to 0 carry no potential), and ``gap`` is the primal
    objective of the rounded plan F minus the dual objective at f, g,

        <F, C> + reg sum F log F - (f . psi + g . omega - reg sum Q),

    with Q = exp((f_i + g_j - C_ij) / reg - 1).  By weak duality it
    bounds F's suboptimality from above whatever the potentials; it is 0
    exactly at the optimum.  Potentials read off entries that are right
    only in absolute terms (4e-16 where the optimum has 1e-20) make the
    bound loose, never wrong.
    Because F meets the marginals, it equals reg times the generalized
    KL divergence sum(F log(F / Q) - F + Q), which is summed here as
    nonnegative terms.  A guided problem is certified as the plain one
    with cost C - lambda2 * log(prior) and regularization reg + lambda2;
    prior entries must be strictly positive.  A plan with an all-zero
    row or column gives no potentials, and an infinite gap.
    """
    p = np.asarray(plan, dtype=float)
    c = np.asarray(cost, dtype=float)
    psi = np.asarray(row_marginal, dtype=float)
    omega = np.asarray(col_marginal, dtype=float)
    if p.shape != c.shape or p.shape != (psi.size, omega.size):
        raise ValueError("plan, cost and marginal shapes do not match")
    if not np.all(np.isfinite(p)) or np.any(p < 0.0):
        raise ValueError("plan entries must be finite and nonnegative")
    if prior is not None and lambda2 != 0.0:
        q = np.asarray(prior, dtype=float)
        if q.shape != c.shape or np.any(q <= 0.0):
            raise ValueError("prior must match the cost and be strictly positive")
        c = c - lambda2 * np.log(q)
        reg = reg + lambda2
    rounded = _round_to_marginals(p, psi, omega)
    move = float(np.max(np.abs(rounded - p)))
    positive = p > 0.0
    if not (positive.any(axis=1).all() and positive.any(axis=0).all()):
        return math.inf, move
    with np.errstate(divide="ignore"):
        log_plan = np.log(p)
    f, g = _potentials(reg * (log_plan + 1.0) + c, positive)
    log_q = (f[:, None] + g[None, :] - c) / reg - 1.0
    support = rounded > 0.0
    log_rounded = np.log(np.where(support, rounded, 1.0))
    terms = np.where(support, rounded * (log_rounded - log_q) - rounded, 0.0) + np.exp(log_q)
    return reg * float(np.sum(terms)), move


def finite_diff_grad(f, x: np.ndarray, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(x, dtype=float)
    grad = np.empty_like(x)
    for i in range(x.size):
        forward = x.copy()
        backward = x.copy()
        forward[i] += step
        backward[i] -= step
        grad[i] = (f(forward) - f(backward)) / (2.0 * step)
    return grad
