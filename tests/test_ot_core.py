"""Plain entropic assignment: examples, invariants, oracle agreement."""

import math
import re

import numpy as np
import pytest

from goca import ot_core
from goca.eval import EvalConfig
from goca.guided_ot import cross_guided_assign
from goca.oracle import entropic_gap, entropic_objective, golden_section_2x2, mirror_descent_small
from goca.ot_core import (
    Marginals,
    SolverConfig,
    clamp_prior,
    cost_from_features,
    guided_sinkhorn,
    marginal_residual,
    sinkhorn,
)
from goca.prototypes import ProtoOptConfig
from goca.ssl_engine import TrainConfig
from goca.synth_data import SynthConfig
from goca.verify import TRAINING_SHAPE_GAP, kernel_reduction_draws

from _util import (
    absorb_reference,
    log_sinkhorn_reference,
    marginal_miss,
    newton_polish_reference,
    random_unit_rows,
    solve_reference,
    zero_sum_perturbation,
)


class TestCostFromFeatures:
    def test_self_similarity_is_minus_one(self):
        v = np.array([[0.6, 0.8]])
        assert cost_from_features(v, v) == pytest.approx(-1.0)

    def test_orthogonal_pairs_give_zero(self):
        f = np.array([[1.0, 0.0]])
        p = np.array([[0.0, 1.0]])
        assert np.allclose(cost_from_features(f, p), 0.0)

    def test_matches_direct_dot_products(self):
        rng = np.random.default_rng(3)
        f = random_unit_rows(rng, 2, 5)
        c = cost_from_features(f, f)
        # elementwise dot-product oracle
        expected = -np.array([[math.fsum(f[i] * f[j]) for j in range(2)] for i in range(2)])
        assert np.allclose(c, expected, atol=1e-15)
        assert np.allclose(np.diag(c), -1.0, atol=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            cost_from_features(np.eye(2), np.eye(3))

    def test_rejects_non_unit_rows(self):
        with pytest.raises(ValueError, match="unit-norm"):
            cost_from_features(2.0 * np.eye(2), np.eye(2))

    def test_rejects_an_argument_without_rows_naming_it_and_both_shapes(self):
        message = "features must have at least one row; features are (0, 4), prototypes are (4, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cost_from_features(np.zeros((0, 4)), np.eye(4))
        message = "prototypes must have at least one row; features are (4, 4), prototypes are (0, 4)"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cost_from_features(np.eye(4), np.zeros((0, 4)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_rows(self, bad):
        rng = np.random.default_rng(12)
        feats = random_unit_rows(rng, 4, 3)
        protos = random_unit_rows(rng, 5, 3)
        feats[2, 1] = bad
        with pytest.raises(ValueError, match="feature rows must be unit-norm; row 2"):
            cost_from_features(feats, protos)
        with pytest.raises(ValueError, match="prototype rows must be unit-norm; row 2"):
            cost_from_features(protos, feats)

    def test_rejects_a_row_whose_norm_overflows(self):
        # 1e200 squared overflows; the error, not numpy's warning, reports it
        with pytest.raises(ValueError, match="^feature rows must be unit-norm; row 0 is off by inf$"):
            cost_from_features(np.array([[1e200, 0.0]]), np.eye(2))

    def test_entries_in_range(self):
        rng = np.random.default_rng(11)
        c = cost_from_features(random_unit_rows(rng, 6, 4), random_unit_rows(rng, 5, 4))
        assert np.all(np.abs(c) <= 1.0 + 1e-12)


class TestUnitRows:
    """Every row with a finite nonzero norm is scaled to unit length; the
    first row without one is named with its norm."""

    @pytest.mark.parametrize("rows, error, message", [
        ([[1.0, 0.0], [0.0, 0.0]], ValueError, "row 1 to unit length: its norm is 0.0"),
        ([[1e200, 1e200]], FloatingPointError, "row 0 to unit length: its norm is inf"),
        ([[1.0, 0.0], [np.nan, 1.0]], FloatingPointError, "row 1 to unit length: its norm is nan"),
        ([[1.0, 0.0], [1.0, np.inf]], FloatingPointError, "row 1 to unit length: its norm is inf"),
        ([[1.0, 0.0], [-np.inf, 1.0]], FloatingPointError, "row 1 to unit length: its norm is inf"),
        # the first bad row decides the error
        ([[0.0, 0.0], [np.nan, 0.0]], ValueError, "row 0 to unit length: its norm is 0.0"),
        ([[np.nan, 0.0], [0.0, 0.0]], FloatingPointError, "row 0 to unit length: its norm is nan"),
    ], ids=["zero", "overflow", "nan", "inf", "-inf", "zero-then-nan", "nan-then-zero"])
    def test_rejects_a_row_without_a_unit_direction(self, rows, error, message):
        # 1e200 squared overflows; the error, not numpy's warning, reports it
        with pytest.raises(error, match=f"^cannot scale probe {re.escape(message)}$"):
            ot_core.unit_rows(np.array(rows), "probe")

    def test_names_the_flat_row_of_a_stack(self):
        stack = np.ones((3, 4, 2))
        stack[1, 2] = 0.0
        with pytest.raises(ValueError, match="^cannot scale probe row 6 to unit length"):
            ot_core.unit_rows(stack, "probe")

    def test_tiny_row_has_a_unit_direction(self):
        unit, norms = ot_core.unit_rows(np.array([[1e-13, 0.0]]), "probe")
        assert unit.tolist() == [[1.0, 0.0]]
        assert norms.tolist() == [[1e-13]]

    @pytest.mark.parametrize("shape", [(7, 5), (64, 16), (3, 6, 4), (5, 64, 16)])
    def test_bit_equal_to_dividing_by_linalg_norm(self, shape):
        x = np.random.default_rng(len(shape) * 100 + shape[-1]).standard_normal(shape)
        norms = np.linalg.norm(x, axis=-1, keepdims=True)
        unit, got = ot_core.unit_rows(x, "probe")
        assert np.array_equal(unit, x / norms)
        assert np.array_equal(got, norms)


class TestMarginalResidual:
    def test_exactly_feasible(self):
        d = np.full((2, 2), 0.25)
        assert marginal_residual(d, Marginals.uniform(2, 2)) == (0.0, 0.0)

    def test_uniform_vs_skewed_rows(self):
        d = np.full((2, 2), 0.25)
        marg = Marginals(np.array([0.7, 0.3]), np.array([0.5, 0.5]))
        row_res, col_res = marginal_residual(d, marg)
        assert row_res == pytest.approx(0.2)
        assert col_res == pytest.approx(0.0)

    def test_solver_output_within_tolerance(self):
        rng = np.random.default_rng(5)
        cfg = SolverConfig(lambda1=0.1)
        res = sinkhorn(rng.uniform(-1, 1, size=(4, 3)), cfg=cfg)
        assert res.converged
        row_res, col_res = marginal_residual(res.plan, Marginals.uniform(4, 3))
        assert max(row_res, col_res) <= cfg.tolerance


class TestSinkhorn:
    def test_zero_cost_gives_uniform_plan(self):
        res = sinkhorn(np.zeros((2, 2)))
        assert np.allclose(res.plan, 0.25, atol=1e-12)

    def test_dominant_diagonal(self):
        res = sinkhorn(np.array([[0.0, 10.0], [10.0, 0.0]]), cfg=SolverConfig(lambda1=0.02))
        assert np.allclose(res.plan, np.array([[0.5, 0.0], [0.0, 0.5]]), atol=1e-9)

    def test_matches_golden_section_at_half(self):
        res = sinkhorn(np.array([[0.0, 1.0], [1.0, 0.0]]), cfg=SolverConfig(lambda1=0.5))
        # frozen from the 1-D solution t = 0.5 * exp(2) / (1 + exp(2))
        t_star = 0.44039853898894116
        expected = np.array([[t_star, 0.5 - t_star], [0.5 - t_star, t_star]])
        assert np.allclose(res.plan, expected, atol=1e-8)
        marg = Marginals.uniform(2, 2)
        ref = golden_section_2x2(np.array([[0.0, 1.0], [1.0, 0.0]]), None, marg.row, marg.col, 0.5)
        assert np.allclose(res.plan, ref, atol=1e-6)

    def test_forced_plans_single_row_or_col(self):
        res = sinkhorn(np.array([[0.3, -0.2, 0.9]]))
        assert np.allclose(res.plan, np.full((1, 3), 1.0 / 3.0))
        assert res.converged and res.iterations == 0
        marg = Marginals(np.array([0.2, 0.8]), np.array([1.0]))
        res = sinkhorn(np.array([[0.4], [0.1]]), marg)
        assert np.allclose(res.plan, np.array([[0.2], [0.8]]))

    def test_rejects_non_finite_cost(self):
        with pytest.raises(ValueError, match="finite"):
            sinkhorn(np.array([[np.inf, 0.0], [0.0, 0.0]]))

    def test_stabilized_solver_converges_where_kernel_overflows(self):
        cost = np.full((3, 3), -1.0)
        cost[0, 0] = 1.0
        # exp(-cost / 0.001) overflows float64; the stabilized loop does not
        res = sinkhorn(cost, cfg=SolverConfig(lambda1=0.001))
        assert res.converged

    def test_regularization_beyond_float_range_raises(self):
        cost = np.random.default_rng(17).uniform(-1, 1, size=(3, 4))
        # -cost / 1e-310 overflows to infinity: no finite plan exists in float64
        with np.errstate(all="ignore"):
            with pytest.raises(FloatingPointError, match="not finite at regularization"):
                sinkhorn(cost, cfg=SolverConfig(lambda1=1e-310))

    @pytest.mark.filterwarnings("error")
    def test_regularization_beyond_float_range_fails_before_annealing(self):
        cost = np.random.default_rng(17).uniform(-1, 1, size=(3, 4))
        # raised from the range check, before any numpy overflow warns
        message = r"not finite at regularization 1e-310: cost / regularization leaves"
        with pytest.raises(FloatingPointError, match=message):
            sinkhorn(cost, cfg=SolverConfig(lambda1=1e-310))
        with pytest.raises(FloatingPointError, match=message):
            guided_sinkhorn(cost, np.ones((3, 4)), cfg=SolverConfig(lambda1=1e-310, lambda2=0.0))

    @pytest.mark.parametrize("field", ["lambda1", "lambda2", "tolerance"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_config_rejects_non_finite_values(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            SolverConfig(**{field: value})

    def test_non_convergence_returns_flagged_iterate(self):
        rng = np.random.default_rng(2)
        cost = rng.uniform(-1, 1, size=(4, 4))
        # unreachable tolerance forces the iteration cap
        res = sinkhorn(cost, cfg=SolverConfig(lambda1=0.02, max_iters=3, tolerance=1e-18))
        assert not res.converged
        assert res.iterations == 3
        assert res.newton_steps == 0  # capped within one check block: no rate to project
        assert np.all(np.isfinite(res.plan))


class TestSolverInvariants:
    def test_marginal_feasibility_battery(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            m, n = rng.integers(2, 6, size=2)
            cost = rng.uniform(-1, 1, size=(m, n))
            lam = float(rng.choice([0.1, 0.5]))
            marg = Marginals.uniform(m, n)
            res = sinkhorn(cost, marg, SolverConfig(lambda1=lam, max_iters=100_000))
            assert res.converged
            assert max(*marginal_residual(res.plan, marg)) <= 1e-8
        # small regularization on a 2x2 stays feasible as well
        res = sinkhorn(rng.uniform(-1, 1, size=(2, 2)), cfg=SolverConfig(lambda1=0.02))
        assert res.converged
        assert max(*marginal_residual(res.plan, Marginals.uniform(2, 2))) <= 1e-8

    def test_optimality_against_feasible_perturbations(self):
        rng = np.random.default_rng(29)
        cost = rng.uniform(-1, 1, size=(3, 3))
        cfg = SolverConfig(lambda1=0.3)
        res = sinkhorn(cost, cfg=cfg)
        base = entropic_objective(res.plan, cost, cfg.lambda1)
        for _ in range(100):
            delta = zero_sum_perturbation(rng, 3, 3)
            eps = rng.uniform(1e-6, 1e-3)
            candidate = res.plan + eps * delta
            if np.any(candidate <= 0):
                continue
            assert base <= entropic_objective(candidate, cost, cfg.lambda1) + 1e-9

    def test_cost_shift_invariance(self):
        rng = np.random.default_rng(31)
        cost = rng.uniform(-1, 1, size=(3, 4))
        base = sinkhorn(cost, cfg=SolverConfig(lambda1=0.1)).plan
        for shift in (-1.0, 0.5, 3.0):
            shifted = sinkhorn(cost + shift, cfg=SolverConfig(lambda1=0.1)).plan
            assert np.allclose(base, shifted, atol=1e-9)

    def test_determinism(self):
        rng = np.random.default_rng(41)
        cost = rng.uniform(-1, 1, size=(5, 3))
        a = sinkhorn(cost, cfg=SolverConfig(lambda1=0.05))
        b = sinkhorn(cost.copy(), cfg=SolverConfig(lambda1=0.05))
        assert np.array_equal(a.plan, b.plan)
        assert a.iterations == b.iterations

    def test_matches_mirror_descent_oracle(self):
        rng = np.random.default_rng(43)
        for size in (3, 4):
            marg = Marginals.uniform(size, size)
            for _ in range(5):
                cost = rng.uniform(-1, 1, size=(size, size))
                lam = float(rng.choice([0.1, 0.5]))
                res = sinkhorn(cost, marg, SolverConfig(lambda1=lam))
                assert res.converged
                ref = mirror_descent_small(cost, None, marg.row, marg.col, lam)
                assert np.max(np.abs(res.plan - ref)) <= 1e-5


class TestScalingLoop:
    def test_random_battery_matches_log_domain_reference(self):
        rng = np.random.default_rng(47)
        converged = 0
        for case in range(24):
            m, n = (int(k) for k in rng.integers(2, 41, size=2))
            row = rng.uniform(0.2, 1.0, size=m)
            col = rng.uniform(0.2, 1.0, size=n)
            marg = Marginals(row / row.sum(), col / col.sum())
            cost = rng.uniform(-1, 1, size=(m, n))
            cfg = SolverConfig(lambda1=(1e-3, 0.02, 0.5)[case % 3])
            if case % 2:
                prior = rng.uniform(0.0, 1.0, size=(m, n))
                prior[rng.random((m, n)) < 0.3] = cfg.prior_floor
                res = guided_sinkhorn(cost, prior, marg, cfg)
                ref_cost = cost - cfg.lambda2 * np.log(clamp_prior(prior, cfg.prior_floor))
                ref_reg = cfg.lambda1 + cfg.lambda2
            else:
                res = sinkhorn(cost, marg, cfg)
                ref_cost, ref_reg = cost, cfg.lambda1
            assert np.all(np.isfinite(res.plan))
            assert res.sweeps >= res.iterations
            if res.converged:
                converged += 1
                assert max(*marginal_residual(res.plan, marg)) <= cfg.tolerance
                ref = log_sinkhorn_reference(ref_cost, marg.row, marg.col, ref_reg)
                assert np.max(np.abs(res.plan - ref)) <= 1e-7
        assert converged >= 20

    def test_absorption_returns_a_finite_plan(self, monkeypatch):
        # Annealing keeps the scalings in range on random instances, so it
        # is switched off: a single stage at lambda1 = 1e-3 drives them out
        # of range and the loop must absorb them into the potentials.
        # Unannealed, most such instances stall below the tolerance at the
        # cap (the regime annealing exists for); this one converges.
        absorbed = []
        absorb = ot_core._absorb

        def counting_absorb(*args):
            absorbed.append((args, absorb(*args)))
            return absorbed[-1][1]

        monkeypatch.setattr(ot_core, "_absorb", counting_absorb)
        monkeypatch.setattr(ot_core, "_anneal_schedule", lambda scale, cost_range: [scale])
        rng = np.random.default_rng(57)
        cost = rng.uniform(-1, 1, size=(12, 9))
        res = sinkhorn(cost, cfg=SolverConfig(lambda1=1e-3))
        assert res.stages == 1
        assert len(absorbed) > 1  # stage entry plus at least one absorption
        for args, (kernel, g) in absorbed:
            ref_kernel, ref_g = absorb_reference(*args)
            assert np.array_equal(kernel, ref_kernel) and np.array_equal(g, ref_g)
        assert np.all(np.isfinite(res.plan))
        assert res.sweeps >= res.iterations
        assert res.converged
        marg = Marginals.uniform(12, 9)
        ref = log_sinkhorn_reference(cost, marg.row, marg.col, 1e-3)
        assert np.max(np.abs(res.plan - ref)) <= 1e-7

    def test_stabilized_solver_converges_where_scalings_leave_range(self):
        rng = np.random.default_rng(59)
        cost = rng.uniform(-1, 1, size=(4, 5))
        # the kernel stays finite, but unstabilized scalings would leave the safe range
        res = sinkhorn(cost, cfg=SolverConfig(lambda1=0.005))
        assert res.converged
        assert res.stages > 1 and res.sweeps > res.iterations


def battery_draws(seed: int):
    """The 24 (cost, prior, marginals, cfg) draws of one battery seed.

    Shapes run from 2 to 40 per side, and a quarter of the draws (a
    plain and a guided one in every 8) are at most 4 x 4, where the
    mirror-descent oracle applies.  Marginals are non-uniform and lambda1
    is log-uniform on [1e-3, 1].  Odd draws are guided, against a raw
    prior with about 30 % of its entries exactly 0, so that the solve
    itself must floor them; even ones have prior None.
    """
    rng = np.random.default_rng(seed)
    for case in range(24):
        high = 5 if case // 2 % 4 == 0 else 41
        m, n = (int(k) for k in rng.integers(2, high, size=2))
        row = rng.uniform(0.2, 1.0, size=m)
        col = rng.uniform(0.2, 1.0, size=n)
        marg = Marginals(row / row.sum(), col / col.sum())
        cost = rng.uniform(-1, 1, size=(m, n))
        cfg = SolverConfig(lambda1=float(10.0 ** rng.uniform(-3.0, 0.0)))
        prior = None
        if case % 2:
            prior = rng.uniform(0.0, 1.0, size=(m, n))
            prior[rng.random((m, n)) < 0.3] = 0.0
        yield cost, prior, marg, cfg


def _solve_draw(cost, prior, marg, cfg):
    return sinkhorn(cost, marg, cfg) if prior is None else guided_sinkhorn(cost, prior, marg, cfg)


def _reference_and_polished(cost, prior, marg, cfg):
    """The draw solved by ``_util.solve_reference``, the solver before its
    Newton polish, and by the library.

    The library gets ``prior`` as it is and floors it itself; only the
    reference is handed the floored prior.
    """
    if prior is None:
        ref = solve_reference(cost, cfg.lambda1, marg, cfg)
    else:
        shifted = cost - cfg.lambda2 * np.log(clamp_prior(prior, cfg.prior_floor))
        ref = solve_reference(shifted, cfg.lambda1 + cfg.lambda2, marg, cfg)
    return ref, _solve_draw(cost, prior, marg, cfg)


def _assert_unpolished_parity(ref, res):
    assert res.newton_steps == 0
    assert np.array_equal(res.plan, ref.plan)
    assert (res.converged, res.iterations, res.sweeps, res.stages) == (
        ref.converged, ref.iterations, ref.sweeps, ref.stages)


def _assert_polished(res, marg, cfg):
    assert res.converged and res.newton_steps > 0
    assert max(*marginal_residual(res.plan, marg)) <= cfg.tolerance


def _assert_matches_converged_reference(ref, res, marg, cfg):
    """``res`` against a reference that converged: the same bits where the
    polish did not run.  Where it did, it ran before scaling would have
    converged, so the plan is a converged one within 1e-7 of the
    reference's, after fewer sweeps."""
    if res.newton_steps == 0:
        _assert_unpolished_parity(ref, res)
        return
    _assert_polished(res, marg, cfg)
    assert res.iterations < ref.iterations
    assert np.max(np.abs(res.plan - ref.plan)) <= 1e-7


# Bounds on the entropic gap at the default tolerance of 1e-8, each the
# smallest power of ten at least twice the largest gap of a stated set:
# 3.7e-7 over battery seeds 0-39 (960 draws, seed 36, draw 2, at
# lambda1 = 1.3e-3), and 4.7e-10 over the c03 instances that scaling
# alone leaves at the cap.  At training shape the bounds are
# TRAINING_SHAPE_GAP and, at training's tolerance of 1e-6, 1e-5 (4.7e-6
# over 200 draws; see test_training_shape_draws_are_certified).
BATTERY_GAP = 1e-6
C03_CAPPED_GAP = 1e-9


def _assert_scaling_form(res, cost, prior, cfg):
    """log(plan) + C / scale is a sum of a row and a column term.

    With the marginals met, these are the optimality conditions of the
    entropic problem, whose minimizer is unique.
    """
    effective = cost - cfg.lambda2 * np.log(prior)
    assert np.all(res.plan > 0.0)
    x = np.log(res.plan) + effective / (cfg.lambda1 + cfg.lambda2)
    centered = x - x.mean(axis=1, keepdims=True) - x.mean(axis=0, keepdims=True) + x.mean()
    assert np.max(np.abs(centered)) <= 1e-9


class TestPropertyBattery:
    """Fresh-seed draws across shapes, marginals, regularizations and priors
    (see ``battery_draws``); every draw converges at library defaults."""

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_battery(self, seed):
        zero_priors = 0
        for case, (cost, prior, marg, cfg) in enumerate(battery_draws(seed)):
            ref, res = _reference_and_polished(cost, prior, marg, cfg)
            assert np.all(np.isfinite(res.plan))
            assert res.converged
            if ref.converged:
                _assert_matches_converged_reference(ref, res, marg, cfg)
            else:
                # scaling alone stops at the cap; the gap below certifies
                # the polished plan in place of a converged reference
                _assert_polished(res, marg, cfg)
            floored, lambda2 = None, 0.0
            if prior is not None:
                zero_priors += bool(np.any(prior == 0.0))
                floored, lambda2 = clamp_prior(prior, cfg.prior_floor), cfg.lambda2
            gap, _ = entropic_gap(res.plan, cost, cfg.lambda1, marg.row, marg.col, floored, lambda2)
            assert gap <= BATTERY_GAP
            ref_cost = cost if floored is None else cost - lambda2 * np.log(floored)
            log_ref = log_sinkhorn_reference(ref_cost, marg.row, marg.col, cfg.lambda1 + lambda2)
            assert np.max(np.abs(res.plan - log_ref)) <= 1e-7
            if max(cost.shape) <= 4:
                oracle = mirror_descent_small(cost, floored, marg.row, marg.col, cfg.lambda1, lambda2)
                assert np.max(np.abs(res.plan - oracle)) <= 1e-5
        assert zero_priors > 0

    @pytest.mark.parametrize("tolerance, max_iters, bound", [
        (1e-8, 10_000, TRAINING_SHAPE_GAP),
        (1e-6, 2_000, 1e-5),
    ])
    def test_training_shape_draws_are_certified(self, tolerance, max_iters, bound):
        # 100 x 64 as a goca step makes them: plain, and guided by the other
        # view's plain plan; at library defaults and at training's solver.
        # The bounds come from seeds 61-65 of these draws (200 plans per
        # tolerance, largest gaps 3.1e-8 and 4.7e-6); this is seed 67.
        rng = np.random.default_rng(67)
        protos = random_unit_rows(rng, 64, 16)
        cfg = SolverConfig(tolerance=tolerance, max_iters=max_iters)
        marg = Marginals.uniform(100, 64)
        for _ in range(10):
            cost_a = cost_from_features(random_unit_rows(rng, 100, 16), protos)
            cost_b = cost_from_features(random_unit_rows(rng, 100, 16), protos)
            prior = clamp_prior(sinkhorn(cost_b, marg, cfg).plan, cfg.prior_floor)
            plain = sinkhorn(cost_a, marg, cfg)
            guided = guided_sinkhorn(cost_a, prior, marg, cfg)
            assert plain.converged and guided.converged
            gaps = (
                entropic_gap(plain.plan, cost_a, cfg.lambda1, marg.row, marg.col)[0],
                entropic_gap(guided.plan, cost_a, cfg.lambda1, marg.row, marg.col,
                             prior, cfg.lambda2)[0],
            )
            assert max(gaps) <= bound

    def test_plain_3x3_draw_that_reached_the_cap_converges(self):
        # seed 11, draw 8: lambda1 = 0.0158 and non-uniform marginals.
        # Scaling alone needs 18,310 sweeps here, in its one stage, past the cap.
        cost, prior, marg, cfg = list(battery_draws(11))[8]
        assert prior is None and cost.shape == (3, 3)
        assert cfg.lambda1 == pytest.approx(0.0158, abs=1e-4)
        ref, res = _reference_and_polished(cost, prior, marg, cfg)
        assert not ref.converged
        _assert_polished(res, marg, cfg)
        assert res.iterations < cfg.max_iters
        oracle = mirror_descent_small(cost, None, marg.row, marg.col, cfg.lambda1)
        assert np.max(np.abs(res.plan - oracle)) <= 1e-5


class TestNewtonPolish:
    """The final stage against the solver before its Newton polish: the
    same bits wherever the polish does not run, a converged optimal plan
    wherever it does.  The battery draws are checked the same way in
    ``TestPropertyBattery``."""

    def test_c03_set_converges_and_is_otherwise_unchanged(self):
        capped = 0
        for cost, prior in kernel_reduction_draws(np.random.default_rng(103), 100):
            size = cost.shape[0]
            cfg = SolverConfig()
            marg = Marginals.uniform(size, size)
            ref, res = _reference_and_polished(cost, prior, marg, cfg)
            if ref.converged:
                _assert_matches_converged_reference(ref, res, marg, cfg)
                continue
            capped += 1
            _assert_polished(res, marg, cfg)
            _assert_scaling_form(res, cost, prior, cfg)
            assert res.iterations < cfg.max_iters
            gap, _ = entropic_gap(
                res.plan, cost, cfg.lambda1, marg.row, marg.col, prior, cfg.lambda2)
            assert gap <= C03_CAPPED_GAP
            if size == 2:
                oracle = golden_section_2x2(
                    cost, prior, marg.row, marg.col, cfg.lambda1, cfg.lambda2)
                assert np.max(np.abs(res.plan - oracle)) <= 1e-6
            elif size <= 4 and capped <= 3:
                # Mirror descent restores feasibility with Sinkhorn passes,
                # which stall on these instances as well: it runs its
                # 20,000-pass cap (~0.9 s) on each of them, and its plan
                # misses the marginals by up to 1.2e-5.  So it checks the
                # first three (3 x 3 and 4 x 4), within its own residual;
                # the entropic gap above checks them all.
                oracle = mirror_descent_small(
                    cost, prior, marg.row, marg.col, cfg.lambda1, cfg.lambda2)
                miss = marginal_miss(oracle, marg.row, marg.col)
                assert np.max(np.abs(res.plan - oracle)) <= 1e-5 + miss
        # Every instance is solved in one stage (range(C) / 0.05 is within
        # the starting spread), from which scaling alone stops at the cap on
        # 45: 13 of side 2, 28 of side 3-4 and 4 of side 5.
        assert capped == 45

    def test_c03_set_sweeps(self):
        # The polish starts once a Newton solve is cheaper than the sweeps
        # scaling is projected to still need.  Polished only where the rate
        # projects past the cap, the set takes 131,660 sweeps; with the
        # work rule, 30,930.
        cfg = SolverConfig()
        total = sum(
            guided_sinkhorn(cost, prior, Marginals.uniform(*cost.shape), cfg).sweeps
            for cost, prior in kernel_reduction_draws(np.random.default_rng(103), 100)
        )
        assert total <= 40_000

    def test_training_shape_instances(self):
        # 100 x 64 as a goca step makes them: plain, and guided by the
        # other view's plain plan
        rng = np.random.default_rng(61)
        protos = random_unit_rows(rng, 64, 16)
        cfg = SolverConfig()
        marg = Marginals.uniform(100, 64)
        for _ in range(20):
            cost_a = cost_from_features(random_unit_rows(rng, 100, 16), protos)
            cost_b = cost_from_features(random_unit_rows(rng, 100, 16), protos)
            prior = clamp_prior(sinkhorn(cost_b).plan, cfg.prior_floor)
            for draw_prior in (None, prior):
                ref, res = _reference_and_polished(cost_a, draw_prior, marg, cfg)
                assert ref.converged
                _assert_unpolished_parity(ref, res)

    def test_stalling_training_shape_stage_is_worth_polishing(self):
        # residuals of a 100 x 64 training solve of the 8-epoch seed-1
        # ablation: falling 1.7 % per check, they project 4,469 more
        # sweeps, past the 2,757 a Newton solve is worth and past
        # training's 2,000-sweep cap, so the stage is polished now
        assert ot_core._worth_polishing(0.002177832692719841, 0.002215613566204938, 1e-6, (100, 64))

    def test_stage_is_polished_at_the_cap_when_the_work_rule_never_fires(self):
        # At 100 x 64 a Newton solve is worth 2,700+ sweeps, so under a
        # 100-sweep cap scaling runs to the cap and the polish starts there
        rng = np.random.default_rng(73)
        protos = random_unit_rows(rng, 64, 16)
        cfg = SolverConfig(max_iters=100)
        for _ in range(10):
            res = sinkhorn(cost_from_features(random_unit_rows(rng, 100, 16), protos), cfg=cfg)
            assert res.converged
            assert res.iterations == cfg.max_iters
            assert res.newton_steps > 0

    def test_failed_polish_is_retried_at_the_cap(self, monkeypatch):
        # seed 28, draw 18 (32 x 27): the first polish starts at a row
        # residual of 8.0e-4 with a near-singular Hessian and fails; scaling
        # then runs on to the 10,000 cap, where one Newton step converges
        cost, prior, marg, cfg = list(battery_draws(28))[18]
        attempts = []
        polish = ot_core._newton_polish

        def recording_polish(plan, marginals, tolerance):
            attempts.append(polish(plan, marginals, tolerance))
            return attempts[-1]

        monkeypatch.setattr(ot_core, "_newton_polish", recording_polish)
        ref, res = _reference_and_polished(cost, prior, marg, cfg)
        assert not ref.converged
        assert [a is None for a in attempts] == [True, False]
        assert res.iterations == cfg.max_iters
        assert res.newton_steps == 1
        _assert_polished(res, marg, cfg)
        assert prior is None
        assert entropic_gap(res.plan, cost, cfg.lambda1, marg.row, marg.col)[0] <= BATTERY_GAP

    def test_failing_polish_falls_back_to_the_capped_iterate(self, monkeypatch):
        monkeypatch.setattr(ot_core, "_newton_polish", lambda *args: None)
        cost, prior, marg, cfg = list(battery_draws(11))[8]
        ref, res = _reference_and_polished(cost, prior, marg, cfg)
        assert not ref.converged
        _assert_unpolished_parity(ref, res)


class TestNewtonPolishParity:
    """The library polish against ``_util.newton_polish_reference``, the
    polish before its Hessian was refilled in place: on every plan a
    solve hands it, the same (plan, steps) bit for bit, or None for both.
    The parity tests above pin only unpolished plans."""

    @staticmethod
    def _solve_recording(monkeypatch, draws):
        """Each draw's result, and (plan, marginals, tolerance, outcome) of
        every polish the solves ran, in order."""
        calls = []
        polish = ot_core._newton_polish

        def recording_polish(plan, marginals, tolerance):
            calls.append((plan, marginals, tolerance, polish(plan, marginals, tolerance)))
            return calls[-1][3]

        monkeypatch.setattr(ot_core, "_newton_polish", recording_polish)
        return [_solve_draw(*draw) for draw in draws], calls

    @staticmethod
    def _assert_reference_parity(results, calls):
        for plan, marginals, tolerance, outcome in calls:
            # under the floating-point state the scaling stage polishes in
            with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
                expected = newton_polish_reference(plan, marginals, tolerance)
            assert (outcome is None) == (expected is None)
            if outcome is not None:
                assert np.array_equal(outcome[0], expected[0])
                assert outcome[1] == expected[1]
        # the successful polishes are the polished results, in order
        finished = [outcome for *_, outcome in calls if outcome is not None]
        polished = [res for res in results if res.newton_steps > 0]
        assert len(finished) == len(polished)
        for (plan, steps), res in zip(finished, polished):
            assert res.plan is plan and res.newton_steps == steps

    def test_c03_set(self, monkeypatch):
        draws = [
            (cost, prior, Marginals.uniform(*cost.shape), SolverConfig())
            for cost, prior in kernel_reduction_draws(np.random.default_rng(103), 100)
        ]
        results, calls = self._solve_recording(monkeypatch, draws)
        assert sum(res.newton_steps > 0 for res in results) == 86
        self._assert_reference_parity(results, calls)

    @pytest.mark.parametrize("seed", range(5))
    def test_seeded_battery(self, monkeypatch, seed):
        results, calls = self._solve_recording(monkeypatch, battery_draws(seed))
        assert any(res.newton_steps > 0 for res in results)
        self._assert_reference_parity(results, calls)


class TestNewtonPolishFailures:
    """``_newton_polish`` returns None where it cannot finish, without a
    RuntimeWarning (which the test configuration turns into an error)."""

    def test_singular_hessian(self):
        plan = np.full((4, 5), 1.0 / 20)
        plan[2] = 0.0  # a zero row sum zeroes a row of the Hessian
        assert ot_core._newton_polish(plan, Marginals.uniform(4, 5), 1e-8) is None

    def test_step_cap_spent(self, monkeypatch):
        rng = np.random.default_rng(0)
        # the damped phase takes more steps the further the start is off:
        # at a log-scale spread of 5 it converges in 10 steps, at 20 in 29,
        # past the shipped cap of 20
        start = np.full((4, 5), 1.0 / 20) * np.exp(20 * rng.standard_normal((4, 5)))
        marg, tolerance = Marginals.uniform(4, 5), 1e-12
        cap = ot_core._NEWTON_STEPS
        assert ot_core._newton_polish(start, marg, tolerance) is None
        # the same start converges given more steps, in 29
        monkeypatch.setattr(ot_core, "_NEWTON_STEPS", 100)
        polished = ot_core._newton_polish(start, marg, tolerance)
        assert polished is not None
        plan, steps = polished
        assert steps > cap
        assert max(marginal_residual(plan, marg)) <= tolerance


def _battery_draw():
    cost, prior, marg, cfg = list(battery_draws(0))[1]
    return _solve_draw(cost, prior, marg, cfg), marg, cfg


def _polished_c03_draw():
    cost, prior = list(kernel_reduction_draws(np.random.default_rng(103), 6))[5]
    marg, cfg = Marginals.uniform(*cost.shape), SolverConfig()
    return guided_sinkhorn(cost, prior, marg, cfg), marg, cfg


def _capped_draw():
    cost = np.random.default_rng(2).uniform(-1, 1, size=(4, 4))
    marg, cfg = Marginals.uniform(4, 4), SolverConfig(max_iters=5, tolerance=1e-18)
    return sinkhorn(cost, marg, cfg), marg, cfg


def _forced_draw(tolerance=SolverConfig.tolerance):
    marg, cfg = Marginals.uniform(1, 7), SolverConfig(tolerance=tolerance)
    return sinkhorn(np.linspace(-1.0, 1.0, 7)[None, :], marg, cfg), marg, cfg


def _forced_draw_below_rounding():
    # seven entries of 1/7 sum to 1 only within rounding, so the forced
    # plan misses its row marginal by 2.2e-16
    return _forced_draw(tolerance=1e-18)


class TestReportedResiduals:
    """Each result reports the residuals of the plan it returns."""

    @pytest.mark.parametrize("draw, kind", [
        (_battery_draw, "unpolished"),
        (_polished_c03_draw, "polished"),
        (_capped_draw, "capped"),
        (_forced_draw, "forced"),
        (_forced_draw_below_rounding, "forced-unmet"),
    ])
    def test_residuals_are_those_of_the_returned_plan(self, draw, kind):
        res, marg, cfg = draw()
        assert (res.row_residual, res.col_residual) == marginal_residual(res.plan, marg)
        assert res.converged == (max(res.row_residual, res.col_residual) <= cfg.tolerance)
        assert res.converged == (kind not in ("capped", "forced-unmet"))
        assert (res.newton_steps > 0) == (kind == "polished")
        assert (res.stages == 0) == kind.startswith("forced")


class TestConfigValidation:
    def test_shipped_lambda_defaults(self):
        cfg = SolverConfig()
        assert cfg.lambda1 == 0.02
        assert cfg.lambda2 == 0.03
        # a class constant, not a field: no config sets it
        assert SolverConfig.prior_floor == SolverConfig().prior_floor == 1e-12

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"lambda1": 0.0},
            {"lambda1": -1.0},
            {"lambda2": -0.1},
            {"tolerance": 0.0},
            {"tolerance": -1e-8},
            {"max_iters": 0},
            {"max_iters": 2.5},
        ],
    )
    def test_rejects_bad_config(self, kwargs):
        with pytest.raises(ValueError):
            SolverConfig(**kwargs)

    def test_uniform_marginals_are_shared_and_read_only(self):
        # every solve without marginals shares one instance per shape, so
        # none may write to it
        marg = Marginals.uniform(3, 4)
        assert Marginals.uniform(3, 4) is marg
        assert np.array_equal(marg.row, np.full(3, 1.0 / 3))
        for vec in (marg.row, marg.col):
            with pytest.raises(ValueError, match="read-only"):
                vec[0] = 1.0

    def test_marginals_validation(self):
        with pytest.raises(ValueError):
            Marginals(np.array([0.5, 0.6]), np.array([0.5, 0.5]))
        with pytest.raises(ValueError):
            Marginals(np.array([1.0, 0.0]), np.array([0.5, 0.5]))

    @pytest.mark.parametrize("build, message", [
        (lambda: Marginals(np.full((2, 2), 0.25), np.full(2, 0.5)), "marginals must be vectors"),
        (lambda: Marginals(np.full(2, 0.5), 1.0), "marginals must be vectors"),
        (lambda: Marginals(np.empty(0), np.full(2, 0.5)), "marginals must be non-empty"),
        (lambda: Marginals(np.full(2, 0.5), np.empty(0)), "marginals must be non-empty"),
        (lambda: sinkhorn(np.zeros(4)), "cost must be a 2-D matrix"),
        (lambda: sinkhorn(np.zeros((1, 2, 2))), "cost must be a 2-D matrix"),
        # a NaN entry is rejected here, not later blamed on the cost by the solve
        (lambda: Marginals(np.array([np.nan, 0.5]), np.full(2, 0.5)),
         "marginal entries must be strictly positive"),
        (lambda: Marginals.uniform(0, 2), "marginals must be non-empty"),
        (lambda: Marginals.uniform(2, 0), "marginals must be non-empty"),
        (lambda: sinkhorn(np.zeros((0, 3))),
         "cost must have at least one row and one column, got shape (0, 3)"),
        (lambda: sinkhorn(np.zeros((3, 0))),
         "cost must have at least one row and one column, got shape (3, 0)"),
        (lambda: guided_sinkhorn(np.zeros((0, 3)), np.zeros((0, 3))),
         "cost must have at least one row and one column, got shape (0, 3)"),
        (lambda: cross_guided_assign(np.zeros((2, 0)), np.zeros((2, 0))),
         "cost must have at least one row and one column, got shape (2, 0)"),
    ])
    def test_rejects_malformed_marginals_or_cost(self, build, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build()

    @pytest.mark.parametrize("config, field", [
        (SolverConfig, "max_iters"),
        (ProtoOptConfig, "steps"),
        (TrainConfig, "epochs"),
        (EvalConfig, "repeats"),
        (SynthConfig, "num_classes"),
    ])
    def test_int_fields_take_integers_only(self, config, field):
        # a float would pass the bound and fail later, inside range()
        for value in (2.5, 3.0):
            with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
                config(**{field: value})
        assert getattr(config(**{field: np.int64(3)}), field) == 3
