"""Self-checks of the brute-force verifiers."""

import numpy as np
import pytest

from goca.oracle import finite_diff_grad, golden_section_2x2, mirror_descent_small
from goca.ot_core import Marginals, SolverConfig, sinkhorn

from _util import feasible_random_plan


UNIFORM2 = np.full(2, 0.5)
UNIFORM3 = np.full(3, 1.0 / 3.0)


class TestGoldenSection:
    def test_symmetric_zero_cost_gives_uniform(self):
        plan = golden_section_2x2(np.zeros((2, 2)), None, UNIFORM2, UNIFORM2, 0.5)
        assert np.allclose(plan, 0.25, atol=1e-9)

    def test_strong_diagonal_limit(self):
        cost = np.array([[0.0, 10.0], [10.0, 0.0]])
        plan = golden_section_2x2(cost, None, UNIFORM2, UNIFORM2, 0.02)
        assert plan[0, 0] == pytest.approx(0.5, abs=1e-9)
        assert plan[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_beats_dense_grid(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            cost = rng.uniform(-1, 1, size=(2, 2))
            prior = rng.uniform(0.05, 1.0, size=(2, 2))
            plan = golden_section_2x2(cost, prior, UNIFORM2, UNIFORM2, 0.3, 0.2)

            def objective(p):
                pos = p > 0
                val = float(np.sum(p * cost))
                val += 0.3 * float(np.sum(p[pos] * np.log(p[pos])))
                val += 0.2 * float(np.sum(p[pos] * np.log(p[pos] / prior[pos])))
                return val

            best = objective(plan)
            for t in np.linspace(1e-9, 0.5 - 1e-9, 10_000):
                candidate = np.array([[t, 0.5 - t], [0.5 - t, t]])
                assert best <= objective(candidate) + 1e-12

    def test_skewed_marginals_feasible(self):
        row = np.array([0.7, 0.3])
        col = np.array([0.2, 0.8])
        plan = golden_section_2x2(np.zeros((2, 2)), None, row, col, 0.5)
        assert np.allclose(plan.sum(axis=1), row, atol=1e-12)
        assert np.allclose(plan.sum(axis=0), col, atol=1e-12)


class TestMirrorDescent:
    def test_agrees_with_golden_section(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(100):
            cost = rng.uniform(-1, 1, size=(2, 2))
            a = golden_section_2x2(cost, None, UNIFORM2, UNIFORM2, 0.3)
            b = mirror_descent_small(cost, None, UNIFORM2, UNIFORM2, 0.3)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-8

    def test_agrees_with_golden_section_guided(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(20):
            cost = rng.uniform(-1, 1, size=(2, 2))
            prior = rng.uniform(0.05, 1.0, size=(2, 2))
            a = golden_section_2x2(cost, prior, UNIFORM2, UNIFORM2, 0.2, 0.1)
            b = mirror_descent_small(cost, prior, UNIFORM2, UNIFORM2, 0.2, 0.1)
            worst = max(worst, float(np.max(np.abs(a - b))))
        assert worst <= 1e-8

    def test_final_iterate_is_feasible(self):
        rng = np.random.default_rng(3)
        cost = rng.uniform(-1, 1, size=(3, 3))
        plan, info = mirror_descent_small(
            cost, None, UNIFORM3, UNIFORM3, 0.5, return_info=True
        )
        assert info["residuals"][-1] <= 1e-12
        assert np.allclose(plan.sum(axis=1), UNIFORM3, atol=1e-11)
        assert np.allclose(plan.sum(axis=0), UNIFORM3, atol=1e-11)

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        cost = rng.uniform(-1, 1, size=(4, 4))
        m4 = np.full(4, 0.25)
        a = mirror_descent_small(cost, None, m4, m4, 0.3)
        b = mirror_descent_small(cost.copy(), None, m4, m4, 0.3)
        assert np.array_equal(a, b)

    def test_small_lambda_plan_stays_finite(self):
        # a 4 x 2 plain draw of the solver property battery (seed 11, case
        # 16): at this lambda1 the log plan reaches about -748, so its
        # smallest entries underflow to 0 in the plain domain
        row = np.array(
            [0.4489851305895785, 0.4094677353725505, 0.7428480388938783, 0.8019829853588456]
        )
        col = np.array([0.24878559366807196, 0.7296901787709196])
        cost = np.array([
            [-0.9890920028492349, -0.7996970602194018],
            [-0.03146243604539811, -0.7389259743980958],
            [-0.7526884564473706, 0.6935550619448139],
            [0.4647396282358076, 0.5315308344888672],
        ])
        lam = 0.0018981452681190775
        marg = Marginals(row / row.sum(), col / col.sum())
        solved = sinkhorn(cost, marg, SolverConfig(lambda1=lam))
        assert solved.converged
        plan = mirror_descent_small(cost, None, marg.row, marg.col, lam)
        assert np.all(np.isfinite(plan))
        assert np.max(np.abs(plan - solved.plan)) <= 1e-5

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            mirror_descent_small(np.zeros((5, 5)), None, np.full(5, 0.2), np.full(5, 0.2), 0.5)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(np.sum(x**2)), np.array([1.0, 2.0]))
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_linear_is_exact(self):
        w = np.array([3.0, -1.0, 0.5])
        for step in (1e-3, 1e-6):
            grad = finite_diff_grad(lambda x: float(x @ w), np.zeros(3), step=step)
            assert np.allclose(grad, w, atol=1e-9)


def test_oracle_module_never_touches_solver_code():
    import inspect

    import goca.oracle as oracle_mod

    source = inspect.getsource(oracle_mod)
    for forbidden in ("ot_core", "guided_ot", "ssl_engine", "from goca", "import goca"):
        assert forbidden not in source
