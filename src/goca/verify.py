"""The oracle checks of acceptance criteria c01-c06, one function per comparison.

A check draws its instances from the generator it is given, always in
the same order, and returns its worst deviation from the oracle (plus
the solves, where the criterion also asserts convergence and c04's
feasibility).  The acceptance suite calls them with its own seeds at
full draws; ``goca verify`` runs ``oracle_battery`` at reduced draws.
The oracles, in ``goca.oracle``, share no code with the solvers.
"""

from __future__ import annotations

import itertools

import numpy as np

from . import oracle
from .ot_core import (
    SinkhornResult,
    SolverConfig,
    clamp_prior,
    cost_from_features,
    guided_sinkhorn,
    marginal_residual,
    sinkhorn,
)
from .prototypes import project_to_sphere, prototype_loss, prototype_loss_grad

# Bound on the entropic gap of a 100 x 64 plan at the default tolerance
# of 1e-8: the smallest power of ten at least twice the largest gap, 3.1e-8,
# of 200 plain and guided plans drawn as training_shape_gap draws them
# (generators seeded 61-65, 20 views each).
TRAINING_SHAPE_GAP = 1e-7


def _uniform(size: int) -> np.ndarray:
    """The uniform marginal of ``size`` rows or columns, as the oracles take it."""
    return np.full(size, 1.0 / size)


def feasible_random_plan(
    rng: np.random.Generator, row_marginal: np.ndarray, col_marginal: np.ndarray
) -> np.ndarray:
    """exp(uniform(-1, 1)) entries, rescaled to the marginals by 500 row/column sweeps."""
    plan = np.exp(rng.uniform(-1.0, 1.0, size=(row_marginal.size, col_marginal.size)))
    for _ in range(500):
        plan *= (row_marginal / plan.sum(axis=1))[:, None]
        plan *= (col_marginal / plan.sum(axis=0))[None, :]
    return plan


def plain_vs_oracles(
    rng: np.random.Generator, draws_2x2: int, draws_per_size: int
) -> tuple[float, float, list[SinkhornResult]]:
    """c01: plain plans against golden section (2 x 2, three lambdas per
    cost) and mirror descent (3 x 3 and 4 x 4, lambda 0.1 or 0.5)."""
    solves = []
    half = _uniform(2)
    worst_2x2 = 0.0
    for _ in range(draws_2x2):
        cost = rng.uniform(-1.0, 1.0, size=(2, 2))
        for lam in (0.02, 0.1, 0.5):
            res = sinkhorn(cost, SolverConfig(lambda1=lam))
            solves.append(res)
            ref = oracle.golden_section_2x2(cost, None, half, half, lam)
            worst_2x2 = max(worst_2x2, float(np.max(np.abs(res.plan - ref))))

    worst_nxn = 0.0
    for size in (3, 4):
        marg = _uniform(size)
        for _ in range(draws_per_size):
            cost = rng.uniform(-1.0, 1.0, size=(size, size))
            lam = float(rng.choice([0.1, 0.5]))
            res = sinkhorn(cost, SolverConfig(lambda1=lam, max_iters=100_000))
            solves.append(res)
            ref = oracle.mirror_descent_small(cost, None, marg, marg, lam)
            worst_nxn = max(worst_nxn, float(np.max(np.abs(res.plan - ref))))
    return worst_2x2, worst_nxn, solves


def guided_vs_oracles(
    rng: np.random.Generator, draws_2x2: int, draws_per_size: int
) -> tuple[float, float, float, list[SinkhornResult]]:
    """c02: guided plans against golden section (2 x 2, lambda1 cycling
    through 0.02, 0.1, 0.5), against mirror descent on every tenth 2 x 2
    draw, and against mirror descent on 3 x 3 and 4 x 4; three lambda2 each."""
    solves = []
    half = _uniform(2)
    lambda1_cycle = itertools.cycle((0.02, 0.1, 0.5))
    worst_2x2 = 0.0
    worst_cross = 0.0
    for i in range(draws_2x2):
        cost = rng.uniform(-1.0, 1.0, size=(2, 2))
        prior = clamp_prior(rng.uniform(0.0, 1.0, size=(2, 2)) ** 3)
        lam1 = next(lambda1_cycle)
        for lam2 in (0.01, 0.03, 1.0):
            cfg = SolverConfig(lambda1=lam1, lambda2=lam2, max_iters=100_000)
            res = guided_sinkhorn(cost, prior, cfg)
            solves.append(res)
            ref = oracle.golden_section_2x2(cost, prior, half, half, lam1, lam2)
            worst_2x2 = max(worst_2x2, float(np.max(np.abs(res.plan - ref))))
            if i % 10 == 0:
                ref2 = oracle.mirror_descent_small(cost, prior, half, half, lam1, lam2)
                worst_cross = max(worst_cross, float(np.max(np.abs(res.plan - ref2))))

    worst_nxn = 0.0
    for size in (3, 4):
        marg = _uniform(size)
        for _ in range(draws_per_size):
            cost = rng.uniform(-1.0, 1.0, size=(size, size))
            prior = clamp_prior(rng.uniform(0.0, 1.0, size=(size, size)) ** 3)
            for lam2 in (0.01, 0.03, 1.0):
                cfg = SolverConfig(lambda1=0.2, lambda2=lam2, max_iters=100_000)
                res = guided_sinkhorn(cost, prior, cfg)
                solves.append(res)
                ref = oracle.mirror_descent_small(cost, prior, marg, marg, 0.2, lam2)
                worst_nxn = max(worst_nxn, float(np.max(np.abs(res.plan - ref))))
    return worst_2x2, worst_cross, worst_nxn, solves


def training_shape_gap(rng: np.random.Generator, draws: int) -> float:
    """c01/c02 at training shape: the largest entropic gap of plain and
    guided 100 x 64 plans at library defaults.

    Each draw is a pair of views, 100 unit feature rows each, against one
    set of 64 unit prototypes in 16-D; each view is solved plainly and
    then by ``guided_sinkhorn`` with the other view's plain plan, clamped
    at the prior floor, as its prior.  (Training reaches that objective
    unfloored, in closed form: see ``ot_core.cross_guided_assign``.)
    At this size the oracle is ``oracle.entropic_gap``.
    """
    cfg = SolverConfig()
    row, col = _uniform(100), _uniform(64)
    protos = project_to_sphere(rng.standard_normal((64, 16)))
    worst = 0.0
    for _ in range(draws):
        feats = [project_to_sphere(rng.standard_normal((100, 16))) for _ in range(2)]
        costs = [cost_from_features(f, protos) for f in feats]
        plains = [sinkhorn(cost, cfg) for cost in costs]
        for cost, plain, other in zip(costs, plains, plains[::-1]):
            prior = clamp_prior(other.plan)
            guided = guided_sinkhorn(cost, prior, cfg)
            gaps = (
                oracle.entropic_gap(plain.plan, cost, cfg.lambda1, row, col)[0],
                oracle.entropic_gap(guided.plan, cost, cfg.lambda1, row, col, prior, cfg.lambda2)[0],
            )
            worst = max(worst, *gaps)
    return worst


def kernel_reduction_draws(rng: np.random.Generator, draws: int):
    """c03's and c05's (cost, prior) pairs: square, side 2 to 5, prior clamped at the default floor."""
    for _ in range(draws):
        size = int(rng.integers(2, 6))
        cost = rng.uniform(-1.0, 1.0, size=(size, size))
        prior = clamp_prior(rng.uniform(0.0, 1.0, size=(size, size)))
        yield cost, prior


def kernel_reduction(rng: np.random.Generator, draws: int) -> float:
    """c03: guided plans against plain plans of the cost C - lambda2 log p
    at lambda1 + lambda2."""
    worst = 0.0
    for cost, prior in kernel_reduction_draws(rng, draws):
        cfg = SolverConfig(lambda1=0.02, lambda2=0.03)
        guided = guided_sinkhorn(cost, prior, cfg=cfg)
        shifted = cost - cfg.lambda2 * np.log(prior)
        reduced = sinkhorn(shifted, cfg=SolverConfig(lambda1=cfg.lambda1 + cfg.lambda2))
        worst = max(worst, float(np.max(np.abs(guided.plan - reduced.plan))))
    return worst


def zero_lambda2(rng: np.random.Generator, draws: int) -> float:
    """c05: guided plans at lambda2 = 0 against plain plans, side 2 to 5."""
    worst = 0.0
    for cost, prior in kernel_reduction_draws(rng, draws):
        plain = sinkhorn(cost, cfg=SolverConfig(lambda1=0.02))
        guided = guided_sinkhorn(cost, prior, cfg=SolverConfig(lambda1=0.02, lambda2=0.0))
        worst = max(worst, float(np.max(np.abs(plain.plan - guided.plan))))
    return worst


def prior_dominance(rng: np.random.Generator, draws: int) -> float:
    """c05: guided plans at lambda2 = 1e3 against their feasible prior, side 2 to 4."""
    worst = 0.0
    for _ in range(draws):
        size = int(rng.integers(2, 5))
        cost = rng.uniform(-1.0, 1.0, size=(size, size))
        prior = feasible_random_plan(rng, _uniform(size), _uniform(size))
        res = guided_sinkhorn(cost, prior, SolverConfig(lambda1=0.02, lambda2=1e3))
        worst = max(worst, float(np.max(np.abs(res.plan - prior))))
    return worst


def prior_scale_invariance(rng: np.random.Generator, draws: int) -> float:
    """c05: guided plans with the prior scaled by 1e-3, 1 and 1e3 against
    the unscaled one, side 2 to 4."""
    worst = 0.0
    for _ in range(draws):
        size = int(rng.integers(2, 5))
        cost = rng.uniform(-1.0, 1.0, size=(size, size))
        prior = clamp_prior(rng.uniform(0.1, 1.0, size=(size, size)))
        cfg = SolverConfig(lambda1=0.1, lambda2=0.5, tolerance=1e-11, max_iters=100_000)
        base = guided_sinkhorn(cost, prior, cfg=cfg).plan
        for factor in (1e-3, 1.0, 1e3):
            scaled = guided_sinkhorn(cost, factor * prior, cfg=cfg).plan
            worst = max(worst, float(np.max(np.abs(base - scaled))))
    return worst


def kl_to_prior_falls(rng: np.random.Generator, draws: int) -> tuple[float, list[SinkhornResult]]:
    """c05: the largest rise of KL(plan | prior) as lambda2 steps through
    0, 0.01, 0.1, 1, 10 (negative when it always falls), side 2 to 3."""
    solves = []
    worst = -np.inf
    for _ in range(draws):
        size = int(rng.integers(2, 4))
        cost = rng.uniform(-1.0, 1.0, size=(size, size))
        prior = feasible_random_plan(rng, _uniform(size), _uniform(size))
        kls = []
        for lam2 in (0.0, 0.01, 0.1, 1.0, 10.0):
            cfg = SolverConfig(lambda1=0.1, lambda2=lam2, max_iters=100_000)
            res = guided_sinkhorn(cost, prior, cfg)
            solves.append(res)
            pos = res.plan > 0
            kls.append(float(np.sum(res.plan[pos] * np.log(res.plan[pos] / prior[pos]))))
        worst = max(worst, max(b - a for a, b in zip(kls, kls[1:])))
    return worst, solves


def prototype_subgradient(rng: np.random.Generator, draws: int) -> float:
    """c06: relative gap of the prototype subgradient to central finite
    differences on 5 x 4 unit rows; draws with a near-tied nearest row,
    where the subgradient is not unique, are skipped."""
    checked = 0
    worst = 0.0
    while checked < draws:
        w = project_to_sphere(rng.standard_normal((5, 4)))
        sims = w @ w.T
        np.fill_diagonal(sims, -np.inf)
        top2 = np.sort(sims, axis=1)[:, -2:]
        if np.min(top2[:, 1] - top2[:, 0]) < 1e-3:
            continue
        checked += 1
        analytic = prototype_loss_grad(w).ravel()
        fd = oracle.finite_diff_grad(lambda v: prototype_loss(v.reshape(5, 4)), w.ravel())
        rel = float(np.max(np.abs(analytic - fd))) / max(float(np.max(np.abs(fd))), 1e-12)
        worst = max(worst, rel)
    return worst


def oracle_battery(seed: int) -> list[tuple[str, bool, str]]:
    """Every check at reduced draws and the criteria's tolerances, as
    (name, passed, detail), all drawn in turn from one generator.

    At seed 0 the counts draw every size and lambda of each criterion.
    """
    rng = np.random.default_rng(seed)
    plain_2x2, plain_nxn, plain = plain_vs_oracles(rng, 4, 2)
    # 21 draws bring every lambda1 of the cycle to the 2 x 2 mirror-descent check
    guided_2x2, guided_cross, guided_nxn, guided = guided_vs_oracles(rng, 21, 1)
    reduction = kernel_reduction(rng, 20)
    zero = zero_lambda2(rng, 10)
    dominance = prior_dominance(rng, 8)
    scale = prior_scale_invariance(rng, 12)
    kl_rise, kl = kl_to_prior_falls(rng, 5)
    subgradient = prototype_subgradient(rng, 5)
    training_gap = training_shape_gap(rng, 2)
    # every solve runs at the default tolerance, 1e-8, so this also fails
    # any solve that did not converge
    residual = max(max(marginal_residual(res.plan)) for res in plain + guided + kl)
    checks = [
        ("c01 plain 2x2 vs golden-section", plain_2x2, 1e-6),
        ("c01 plain 3x3/4x4 vs mirror descent", plain_nxn, 1e-5),
        ("c02 guided 2x2 vs golden-section", guided_2x2, 1e-6),
        ("c02 guided 2x2 vs mirror descent", guided_cross, 1e-5),
        ("c02 guided 3x3/4x4 vs mirror descent", guided_nxn, 1e-5),
        ("c03 kernel reduction of the guided problem", reduction, 1e-8),
        ("c04 marginal residual of the c01, c02 and c05 KL solves", residual, 1e-8),
        ("c05 lambda2 = 0 reduces to plain", zero, 1e-9),
        ("c05 strong prior dominates", dominance, 1e-3),
        ("c05 prior-scale invariance", scale, 1e-9),
        ("c05 KL to the prior falls as lambda2 grows", kl_rise, 1e-9),
        ("c06 prototype subgradient vs finite differences", subgradient, 1e-4),
        ("c01/c02 100x64 plain and guided entropic gap", training_gap, TRAINING_SHAPE_GAP),
    ]
    return [(name, worst <= tol, f"worst {worst:.3e} vs tol {tol:.0e}") for name, worst, tol in checks]
