"""Prior-guided assignment: prior clamping, solver, and the cross-view pair in closed form."""

import re

import numpy as np
import pytest

import goca.guided_ot
import goca.ot_core
from goca.guided_ot import (
    clamp_prior,
    guided_sinkhorn,
)
from goca.oracle import entropic_gap, golden_section_2x2, mirror_descent_small
from goca.ot_core import SolverConfig, _uniform, cost_from_features, cross_guided_assign, sinkhorn
from goca.verify import TRAINING_SHAPE_GAP

from _util import feasible_random_plan, random_unit_rows


def _kl(plan, prior):
    pos = plan > 0
    return float(np.sum(plan[pos] * np.log(plan[pos] / prior[pos])))


class TestClampPrior:
    def test_rejects_negative_prior(self):
        with pytest.raises(ValueError):
            clamp_prior(np.array([[-0.1, 0.5], [0.5, 0.1]]))


class TestGuidedSinkhorn:
    def test_lambda2_zero_equals_plain(self):
        rng = np.random.default_rng(5)
        cost = rng.uniform(-1, 1, size=(3, 4))
        prior = rng.uniform(0.1, 1.0, size=(3, 4))
        plain = sinkhorn(cost, cfg=SolverConfig(lambda1=0.02))
        guided = guided_sinkhorn(cost, prior, cfg=SolverConfig(lambda1=0.02, lambda2=0.0))
        assert np.max(np.abs(plain.plan - guided.plan)) <= 1e-9

    def test_uniform_prior_zero_cost_gives_uniform(self):
        prior = np.full((3, 3), 1.0 / 9.0)
        res = guided_sinkhorn(np.zeros((3, 3)), prior, cfg=SolverConfig(lambda1=0.1, lambda2=0.5))
        assert np.allclose(res.plan, 1.0 / 9.0, atol=1e-12)

    def test_2x2_matches_golden_section(self):
        cost = np.array([[0.0, 1.0], [1.0, 0.0]])
        prior = np.array([[0.4, 0.1], [0.1, 0.4]])
        cfg = SolverConfig(lambda1=0.02, lambda2=0.03)
        res = guided_sinkhorn(cost, prior, cfg)
        ref = golden_section_2x2(cost, prior, *_uniform(2, 2), 0.02, 0.03)
        assert np.max(np.abs(res.plan - ref)) <= 1e-6

    def test_matches_mirror_descent(self):
        rng = np.random.default_rng(6)
        row, col = _uniform(3, 3)
        for _ in range(5):
            cost = rng.uniform(-1, 1, size=(3, 3))
            prior = clamp_prior(rng.uniform(0.0, 1.0, size=(3, 3)))
            cfg = SolverConfig(lambda1=0.2, lambda2=0.03)
            res = guided_sinkhorn(cost, prior, cfg)
            assert res.converged
            ref = mirror_descent_small(cost, prior, row, col, 0.2, 0.03)
            assert np.max(np.abs(res.plan - ref)) <= 1e-5

    def test_strict_positivity(self):
        rng = np.random.default_rng(7)
        cost = rng.uniform(-1, 1, size=(3, 3))
        prior = clamp_prior(rng.uniform(0.0, 1.0, size=(3, 3)) ** 5)
        res = guided_sinkhorn(cost, prior, cfg=SolverConfig(lambda1=0.1, lambda2=0.2))
        assert np.all(res.plan > 0.0)

    @pytest.mark.parametrize("prior_shape", [(4, 3), (3, 5), (12,)])
    def test_prior_of_another_shape_rejected_naming_both(self, prior_shape):
        message = f"shape mismatch: cost (3, 4) vs prior {prior_shape}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            guided_sinkhorn(np.zeros((3, 4)), np.full(prior_shape, 0.5))

    def test_prior_shift_past_float64_fails_by_its_message(self):
        # lambda2 * log(prior) overflows; the suite turns a numpy overflow
        # warning into an error, so only the solver's own check may fire
        cost = np.array([[0.1, 0.2], [0.3, 0.4]])
        message = "transport plan is not finite at regularization 1e+308"
        with pytest.raises(FloatingPointError, match=f"^{re.escape(message)}: "):
            guided_sinkhorn(cost, cost, cfg=SolverConfig(lambda2=1e308))


class TestGuidedInvariants:
    def test_kernel_reduction_equivalence(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            size = int(rng.integers(2, 5))
            cost = rng.uniform(-1, 1, size=(size, size))
            prior = clamp_prior(rng.uniform(0.0, 1.0, size=(size, size)))
            cfg = SolverConfig(lambda1=0.02, lambda2=0.03)
            guided = guided_sinkhorn(cost, prior, cfg=cfg)
            shifted = cost - cfg.lambda2 * np.log(clamp_prior(prior, cfg.prior_floor))
            reduced = sinkhorn(shifted, cfg=SolverConfig(lambda1=cfg.lambda1 + cfg.lambda2))
            assert np.max(np.abs(guided.plan - reduced.plan)) <= 1e-8

    def test_prior_scale_invariance(self):
        rng = np.random.default_rng(9)
        cost = rng.uniform(-1, 1, size=(3, 3))
        prior = rng.uniform(0.1, 1.0, size=(3, 3))
        cfg = SolverConfig(lambda1=0.02, lambda2=0.5)
        base = guided_sinkhorn(cost, prior, cfg=cfg).plan
        for factor in (1e-3, 1.0, 1e3):
            scaled = guided_sinkhorn(cost, factor * prior, cfg=cfg).plan
            assert np.max(np.abs(base - scaled)) <= 1e-9

    def test_prior_pull_is_monotone_in_lambda2(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            cost = rng.uniform(-1, 1, size=(3, 3))
            prior = feasible_random_plan(rng, *_uniform(3, 3))
            kls = []
            for lam2 in (0.0, 0.01, 0.1, 1.0, 10.0):
                cfg = SolverConfig(lambda1=0.1, lambda2=lam2, max_iters=50_000)
                res = guided_sinkhorn(cost, prior, cfg)
                kls.append(_kl(res.plan, prior))
            assert all(b <= a + 1e-9 for a, b in zip(kls, kls[1:]))

    def test_prior_dominance_limit(self):
        rng = np.random.default_rng(11)
        cost = rng.uniform(-1, 1, size=(3, 3))
        prior = feasible_random_plan(rng, *_uniform(3, 3))
        cfg = SolverConfig(lambda1=0.02, lambda2=1e3)
        res = guided_sinkhorn(cost, prior, cfg)
        assert np.max(np.abs(res.plan - prior)) <= 1e-3


class TestCrossGuidedAssign:
    def test_identical_views_give_identical_plans(self):
        rng = np.random.default_rng(12)
        feats = random_unit_rows(rng, 6, 5)
        protos = random_unit_rows(rng, 4, 5)
        cost = cost_from_features(feats, protos)
        res_a, res_b = cross_guided_assign(cost, cost)
        assert np.max(np.abs(res_a.plan - res_b.plan)) <= 1e-9

    def test_lambda2_zero_gives_independent_plain_solutions(self):
        rng = np.random.default_rng(13)
        feats_a = random_unit_rows(rng, 6, 5)
        feats_b = random_unit_rows(rng, 6, 5)
        protos = random_unit_rows(rng, 4, 5)
        cfg = SolverConfig(lambda1=0.1, lambda2=0.0)
        cost_a = cost_from_features(feats_a, protos)
        cost_b = cost_from_features(feats_b, protos)
        res_a, res_b = cross_guided_assign(cost_a, cost_b, cfg=cfg)
        plain_a = sinkhorn(cost_a, cfg=cfg)
        plain_b = sinkhorn(cost_b, cfg=cfg)
        assert np.max(np.abs(res_a.plan - plain_a.plan)) <= 1e-12
        assert np.max(np.abs(res_b.plan - plain_b.plan)) <= 1e-12

    def test_matches_plain_solves_of_the_cost_mix(self):
        # w = lambda2 / (lambda1 + lambda2) = 1/3, computed as the function does
        rng = np.random.default_rng(14)
        feats_a = random_unit_rows(rng, 4, 6)
        feats_b = random_unit_rows(rng, 4, 6)
        protos = random_unit_rows(rng, 3, 6)
        cfg = SolverConfig(lambda1=0.1, lambda2=0.05)
        cost_a = cost_from_features(feats_a, protos)
        cost_b = cost_from_features(feats_b, protos)
        res_a, res_b = cross_guided_assign(cost_a, cost_b, cfg=cfg)

        w = 0.5 / (1.0 + 0.5)
        by_hand_a = sinkhorn((1.0 - w) * cost_a + w * cost_b, cfg=cfg).plan
        by_hand_b = sinkhorn((1.0 - w) * cost_b + w * cost_a, cfg=cfg).plan
        assert np.array_equal(res_a.plan, by_hand_a)
        assert np.array_equal(res_b.plan, by_hand_b)

    @pytest.mark.parametrize("seed", range(61, 66))
    def test_targets_solve_the_guided_objective_with_the_raw_prior(self, seed):
        # the paper's objective, certified with the other view's plain plan
        # unfloored as the prior: no prior floor stands between the two
        rng = np.random.default_rng(seed)
        cfg = SolverConfig()
        row, col = _uniform(100, 64)
        protos = random_unit_rows(rng, 64, 16)
        for _ in range(4):
            cost_a = cost_from_features(random_unit_rows(rng, 100, 16), protos)
            cost_b = cost_from_features(random_unit_rows(rng, 100, 16), protos)
            res_a, res_b = cross_guided_assign(cost_a, cost_b)
            prior_a, prior_b = sinkhorn(cost_a).plan, sinkhorn(cost_b).plan
            for res, cost, prior in ((res_a, cost_a, prior_b), (res_b, cost_b, prior_a)):
                assert res.converged
                gap, _ = entropic_gap(res.plan, cost, cfg.lambda1, row, col, prior, cfg.lambda2)
                assert gap <= TRAINING_SHAPE_GAP

    def test_huge_lambda2_gives_each_view_the_others_plain_plan(self):
        # w is exactly 1, so each view solves the other's cost unmixed
        rng = np.random.default_rng(17)
        protos = random_unit_rows(rng, 3, 5)
        cost_a = cost_from_features(random_unit_rows(rng, 4, 5), protos)
        cost_b = cost_from_features(random_unit_rows(rng, 4, 5), protos)
        res_a, res_b = cross_guided_assign(cost_a, cost_b, cfg=SolverConfig(lambda2=1e308))
        assert np.array_equal(res_a.plan, sinkhorn(cost_b).plan)
        assert np.array_equal(res_b.plan, sinkhorn(cost_a).plan)

    def test_batch_size_mismatch_rejected(self):
        # costs of unequal shape: the views' batches, or their prototype sets, differ
        rng = np.random.default_rng(15)
        protos = random_unit_rows(rng, 3, 5)
        cost_a = cost_from_features(random_unit_rows(rng, 4, 5), protos)
        cost_b = cost_from_features(random_unit_rows(rng, 5, 5), protos)
        with pytest.raises(ValueError, match=r"^shape mismatch: cost_a \(4, 3\) vs cost_b \(5, 3\)$"):
            cross_guided_assign(cost_a, cost_b)
        with pytest.raises(ValueError, match=r"^shape mismatch: cost_a \(4, 3\) vs cost_b \(4, 2\)$"):
            cross_guided_assign(cost_a, cost_a[:, :2])

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    @pytest.mark.parametrize("lambda2", [0.0, 0.03, 1e308])
    def test_non_finite_cost_fails_by_the_solvers_message(self, bad, lambda2):
        # a zero weight times inf is NaN; the suite turns numpy's warning into
        # an error, so only the solver's own check may fire, for either view
        cost = np.zeros((3, 4))
        broken = cost.copy()
        broken[1, 2] = bad
        cfg = SolverConfig(lambda2=lambda2)
        for pair in ((broken, cost), (cost, broken)):
            with pytest.raises(ValueError, match="^cost matrix entries must be finite$"):
                cross_guided_assign(*pair, cfg=cfg)

    def test_solves_go_through_this_modules_bindings(self, monkeypatch):
        # perfbench/tracer.py wraps ot_core.sinkhorn, and resolves sinkhorn,
        # guided_sinkhorn and clamp_prior in guided_ot too; a call that bypassed
        # ot_core's bindings would drop the solves from a traced run.  The
        # guided pair is two plain solves, so the guided layer reads none
        assert goca.guided_ot.sinkhorn is goca.ot_core.sinkhorn
        assert goca.guided_ot.guided_sinkhorn is goca.ot_core.guided_sinkhorn
        assert goca.guided_ot.clamp_prior is goca.ot_core.clamp_prior
        calls = {"sinkhorn": 0, "guided_sinkhorn": 0}

        def counting(name):
            solve = getattr(goca.ot_core, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return solve(*args, **kwargs)
            return counted

        for name in calls:
            monkeypatch.setattr(goca.ot_core, name, counting(name))
        rng = np.random.default_rng(16)
        protos = random_unit_rows(rng, 3, 5)
        cost_a = cost_from_features(random_unit_rows(rng, 4, 5), protos)
        cost_b = cost_from_features(random_unit_rows(rng, 4, 5), protos)
        cross_guided_assign(cost_a, cost_b)
        assert calls == {"sinkhorn": 2, "guided_sinkhorn": 0}
