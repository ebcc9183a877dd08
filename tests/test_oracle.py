"""Self-checks of the brute-force verifiers."""

import math

import numpy as np
import pytest

from goca import oracle
from goca.oracle import (
    entropic_gap,
    entropic_objective,
    finite_diff_grad,
    golden_section_2x2,
    mirror_descent_small,
)

from _util import feasible_random_plan, marginal_miss


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
        plan = mirror_descent_small(cost, None, UNIFORM3, UNIFORM3, 0.5)
        assert marginal_miss(plan, UNIFORM3, UNIFORM3) <= 1e-12
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
        psi, omega = row / row.sum(), col / col.sum()
        plan = mirror_descent_small(cost, None, psi, omega, lam)
        assert np.all(np.isfinite(plan))
        # Certified without the solver, which serves uniform marginals only:
        # the gap bounds lam * KL(F | optimum) for the rounded plan F, so by
        # Pinsker F is within sqrt(2 gap / lam) of the optimum in L1, and
        # the plan within that plus ``move``
        gap, move = entropic_gap(plan, cost, lam, psi, omega)
        assert math.sqrt(2.0 * max(gap, 0.0) / lam) + move <= 1e-5

    def test_rejects_large_instances(self):
        with pytest.raises(ValueError):
            mirror_descent_small(np.zeros((5, 5)), None, np.full(5, 0.2), np.full(5, 0.2), 0.5)


class TestEntropicObjective:
    @pytest.mark.parametrize("plan, cost, prior, message", [
        (np.array([[0.6, -0.1], [0.0, 0.5]]), np.zeros((2, 2)), None,
         "^plan entries must be nonnegative$"),
        (np.full((2, 2), 0.25), np.zeros((2, 3)), None,
         r"^shape mismatch: plan \(2, 2\) vs cost \(2, 3\)$"),
        # the prior is taken as given, so a zero entry is rejected, not floored
        (np.full((2, 2), 0.25), np.zeros((2, 2)), np.array([[0.5, 0.0], [0.25, 0.25]]),
         "^prior entries must be strictly positive$"),
    ], ids=["negative-plan", "shape-mismatch", "zero-prior"])
    def test_rejects(self, plan, cost, prior, message):
        with pytest.raises(ValueError, match=message):
            entropic_objective(plan, cost, 0.1, prior, 0.2)


class TestEntropyTerm:
    """At zero cost and lambda1 = 1 the objective is minus the entropy."""

    def test_uniform_2x2(self):
        d = np.full((2, 2), 0.25)
        assert -entropic_objective(d, np.zeros((2, 2)), 1.0) == pytest.approx(
            math.log(4.0), abs=1e-12
        )

    def test_degenerate_point_mass(self):
        d = np.array([[1.0, 0.0], [0.0, 0.0]])
        assert -entropic_objective(d, np.zeros((2, 2)), 1.0) == 0.0

    def test_matches_direct_summation(self):
        d = np.array([[0.4, 0.1], [0.1, 0.4]])
        # frozen from the direct summation -sum d log d
        assert -entropic_objective(d, np.zeros((2, 2)), 1.0) == pytest.approx(
            1.1935496040981332, abs=1e-15
        )

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            entropic_objective(np.array([[-0.1, 1.1]]), np.zeros((1, 2)), 1.0)


class TestObjectiveWithoutPrior:
    def test_zero_cost_uniform(self):
        d = np.full((2, 2), 0.25)
        assert entropic_objective(d, np.zeros((2, 2)), 1.0) == pytest.approx(-math.log(4.0))

    def test_plain_inner_product(self):
        d = np.full((2, 2), 0.25)
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        assert entropic_objective(d, c, 0.0) == pytest.approx(0.5)

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(7)
        d = rng.uniform(0.01, 1.0, size=(3, 3))
        d /= d.sum()
        c = rng.uniform(-1.0, 1.0, size=(3, 3))
        expected = math.fsum((d * c).ravel()) - 0.7 * math.fsum(
            -v * math.log(v) for v in d.ravel()
        )
        assert entropic_objective(d, c, 0.7) == pytest.approx(expected, abs=1e-14)


class TestObjectiveWithPrior:
    def test_zero_when_plan_equals_prior_and_no_entropy(self):
        plan = np.full((2, 2), 0.25)
        value = entropic_objective(plan, np.zeros((2, 2)), 1e-300, prior=plan, lambda2=0.7)
        assert value == pytest.approx(0.0, abs=1e-12)

    def test_lambda2_zero_reduces_to_the_plain_objective(self):
        rng = np.random.default_rng(3)
        plan = feasible_random_plan(rng, np.full(3, 1 / 3), np.full(3, 1 / 3))
        cost = rng.uniform(-1, 1, size=(3, 3))
        prior = rng.uniform(0.1, 1.0, size=(3, 3))
        assert entropic_objective(plan, cost, 0.4, prior, 0.0) == pytest.approx(
            entropic_objective(plan, cost, 0.4), abs=1e-14
        )

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(4)
        plan = feasible_random_plan(rng, np.full(3, 1 / 3), np.full(3, 1 / 3))
        cost = rng.uniform(-1, 1, size=(3, 3))
        prior = rng.uniform(0.1, 1.0, size=(3, 3))
        expected = math.fsum(
            d * c + 0.02 * d * math.log(d) + 0.03 * d * math.log(d / p)
            for d, c, p in zip(plan.ravel(), cost.ravel(), prior.ravel())
        )
        assert entropic_objective(plan, cost, 0.02, prior, 0.03) == pytest.approx(
            expected, abs=1e-12
        )


class TestEntropicGap:
    def test_vanishes_at_the_golden_section_optimum(self):
        # at lambda1 = 0.02 golden section leaves some off-diagonal entries
        # at 4e-16 or 0 where the optimum has 1e-20: right in absolute
        # terms, but the potentials read off them give a loose bound
        rng = np.random.default_rng(6)
        for _ in range(20):
            cost = rng.uniform(-1, 1, size=(2, 2))
            lam = float(rng.choice([0.1, 0.5]))
            plan = golden_section_2x2(cost, None, UNIFORM2, UNIFORM2, lam)
            gap, move = entropic_gap(plan, cost, lam, UNIFORM2, UNIFORM2)
            assert abs(gap) <= 1e-12
            assert move <= 1e-15

    def test_bounds_the_suboptimality_of_the_rounded_plan(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            cost = rng.uniform(-1, 1, size=(2, 2))
            best = golden_section_2x2(cost, None, UNIFORM2, UNIFORM2, 0.1)
            optimum = entropic_objective(best, cost, 0.1)
            for eps in (1e-6, 1e-4, 1e-2):
                plan = best * np.exp(eps * rng.standard_normal((2, 2)))
                gap, move = entropic_gap(plan, cost, 0.1, UNIFORM2, UNIFORM2)
                rounded = oracle._round_to_marginals(plan, UNIFORM2, UNIFORM2)
                assert np.allclose(rounded.sum(axis=1), UNIFORM2, rtol=0, atol=1e-15)
                assert np.allclose(rounded.sum(axis=0), UNIFORM2, rtol=0, atol=1e-15)
                assert move == np.max(np.abs(rounded - plan))
                assert gap >= entropic_objective(rounded, cost, 0.1) - optimum - 1e-15

    def test_grows_with_the_distance_from_the_optimum(self):
        rng = np.random.default_rng(8)
        cost = rng.uniform(-1, 1, size=(4, 4))
        m4 = np.full(4, 0.25)
        best = mirror_descent_small(cost, None, m4, m4, 0.1)
        noise = rng.standard_normal((4, 4))
        gaps = [entropic_gap(best * np.exp(eps * noise), cost, 0.1, m4, m4)[0]
                for eps in (0.0, 1e-6, 1e-4, 1e-2)]
        assert abs(gaps[0]) <= 1e-13
        assert gaps == sorted(gaps)
        assert gaps[-1] > 1e-6

    def test_underflowed_entries_are_left_out_of_the_potentials(self):
        # the 4 x 2 draw of test_small_lambda_plan_stays_finite below: at
        # lambda1 = 0.0019 entries of the optimal plan underflow to 0
        row = np.array([0.17, 0.17, 0.33, 0.33])
        col = np.array([0.25, 0.75])
        cost = np.array([[-1.0, -0.8], [0.0, -0.7], [-0.75, 0.7], [0.5, 0.5]])
        plan = mirror_descent_small(cost, None, row, col, 0.0019)
        assert np.any(plan == 0.0)
        gap, move = entropic_gap(plan, cost, 0.0019, row, col)
        assert math.isfinite(gap) and abs(gap) <= 1e-12

    def test_a_plan_with_an_empty_row_has_no_certificate(self):
        plan = np.full((3, 3), 1.0 / 6.0)
        plan[1] = 0.0
        gap, move = entropic_gap(plan, np.zeros((3, 3)), 0.1, UNIFORM3, UNIFORM3)
        assert gap == math.inf
        assert move == pytest.approx(1.0 / 9.0)

    def test_guided_plan_is_certified_on_the_reduced_cost(self):
        rng = np.random.default_rng(9)
        cost = rng.uniform(-1, 1, size=(3, 3))
        prior = rng.uniform(0.05, 1.0, size=(3, 3))
        plan = mirror_descent_small(cost, prior, UNIFORM3, UNIFORM3, 0.2, 0.1)
        guided = entropic_gap(plan, cost, 0.2, UNIFORM3, UNIFORM3, prior, 0.1)
        reduced = entropic_gap(plan, cost - 0.1 * np.log(prior), 0.3, UNIFORM3, UNIFORM3)
        assert guided == pytest.approx(reduced, rel=0, abs=1e-15)
        assert abs(guided[0]) <= 1e-12
        # the plain certificate at lambda1 alone rejects the guided optimum
        assert entropic_gap(plan, cost, 0.2, UNIFORM3, UNIFORM3)[0] > 1e-4

    @pytest.mark.parametrize("plan", [np.full((2, 3), 1.0 / 6.0), np.array([[0.5, -0.1], [0.1, 0.5]])])
    def test_rejects_bad_plans(self, plan):
        with pytest.raises(ValueError):
            entropic_gap(plan, np.zeros((2, 2)), 0.1, UNIFORM2, UNIFORM2)


class TestFiniteDiff:
    def test_quadratic(self):
        grad = finite_diff_grad(lambda x: float(np.sum(x**2)), np.array([1.0, 2.0]))
        assert np.allclose(grad, [2.0, 4.0], atol=1e-8)

    def test_linear_is_exact(self):
        w = np.array([3.0, -1.0, 0.5])
        for step in (1e-3, 1e-6):
            grad = finite_diff_grad(lambda x: float(x @ w), np.zeros(3), step=step)
            assert np.allclose(grad, w, atol=1e-9)
