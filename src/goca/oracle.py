"""Independent brute-force verifiers for the transport solvers.

Everything here is kept numerically and textually independent of the
production solver modules: nothing imports from them, objectives are
accumulated by direct summation, and minimizers are found by

* one-dimensional golden-section search for 2 x 2 plans, which have a
  single degree of freedom once the marginals are fixed, and
* damped entropic mirror descent with alternating exact Bregman
  projections onto the row- and column-marginal sets, for plans up to
  4 x 4.

Priors are taken as given (strictly positive); callers apply whatever
flooring the solver under test applies, so both sides minimize the same
objective.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["golden_section_2x2", "mirror_descent_small", "finite_diff_grad"]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


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
):
    """Alternating exact KL projections onto the row- and column-marginal sets.

    Each row (column) normalization is the exact Bregman projection onto
    its constraint set; passes alternate until the joint residual reaches
    ``tol``.  The normalizations are log-sum-exp shifts of the log plan,
    so entries that underflow in the plain domain neither stall nor blow
    up the scaling.
    """
    log_psi = np.log(psi)
    log_omega = np.log(omega)
    residual = np.inf
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
    return log_plan, residual


def mirror_descent_small(
    cost: np.ndarray,
    prior: np.ndarray | None,
    row_marginal: np.ndarray,
    col_marginal: np.ndarray,
    lambda1: float,
    lambda2: float = 0.0,
    max_outer: int = 20_000,
    feasibility_tol: float = 1e-12,
    stall_tol: float = 1e-14,
    return_info: bool = False,
):
    """Entropic mirror descent on the (guided) objective over U.

    Works on the log plan.  Each outer step multiplies in
    exp(-eta * gradient) with eta = 0.5 / (lambda1 + lambda2), then
    restores feasibility by alternating exact KL projections onto the
    row- and column-marginal sets until the residual drops below
    ``feasibility_tol``.  Stops once the objective stalls below
    ``stall_tol`` and consecutive log plans agree to 1e-12.
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
    residuals = []
    outer_done = max_outer
    for outer in range(1, max_outer + 1):
        previous = log_plan
        log_plan = (1.0 - eta * scale) * log_plan - eta * effective_cost - eta * scale
        # a few projection passes per step keep the iterate near-feasible;
        # the endgame polish below runs them to feasibility_tol
        log_plan, residual = _project_onto_marginals(
            log_plan, psi, omega, feasibility_tol, max_passes=3
        )
        residuals.append(residual)
        plan = np.exp(log_plan)
        obj = float(np.sum(plan * effective_cost) + scale * np.sum(plan * log_plan))
        drift = float(np.max(np.abs(log_plan - previous)))
        if abs(obj - prev_obj) < stall_tol and drift <= 1e-12:
            outer_done = outer
            break
        prev_obj = obj
    log_plan, residual = _project_onto_marginals(log_plan, psi, omega, feasibility_tol)
    residuals.append(residual)
    plan = np.exp(log_plan)
    if return_info:
        return plan, {"outer_iterations": outer_done, "residuals": residuals}
    return plan


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
