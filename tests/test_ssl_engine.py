"""Scores, swapped loss, step gradients, mode equivalences, training loop."""

import logging
import math
import re
from dataclasses import replace

import numpy as np
import pytest

import goca.ot_core as ot_core
from goca.oracle import finite_diff_grad
from goca.ot_core import SolverConfig
from goca.prototypes import ProtoOptConfig, optimize_prototypes
from goca.runconfig import ConfigError, RunConfig, parse_config
import goca.ssl_engine as engine
from goca.ssl_engine import (
    MODES,
    AugmentedBatch,
    TrainConfig,
    _augment,
    baseline_step,
    encode,
    extract_features,
    goca_step,
    init_params,
    prototype_scores,
    swapped_loss,
    train,
)
from goca.synth_data import SynthConfig, generate

from _util import random_unit_rows


def _params_to_vec(params):
    keys = sorted(params)
    return np.concatenate([params[k].ravel() for k in keys]), keys


def _vec_to_params(vec, keys, template):
    out = {}
    offset = 0
    for k in keys:
        size = template[k].size
        out[k] = vec[offset : offset + size].reshape(template[k].shape)
        offset += size
    return out


def _grad_vec(grads, keys):
    return np.concatenate([grads[k].ravel() for k in keys])


def _fast_cfg(mode, **kwargs):
    defaults = dict(
        mode=mode,
        temperature=0.5,
        solver=SolverConfig(lambda1=0.5, lambda2=0.1, tolerance=1e-10, max_iters=20_000),
    )
    defaults.update(kwargs)
    return TrainConfig(**defaults)


def _train_cfg(mode, **solver):
    return TrainConfig(mode=mode, epochs=2, batch_size=10, hidden_dim=6, feature_dim=8,
                       num_prototypes=4,
                       solver=SolverConfig(**{"lambda1": 0.1, "tolerance": 1e-6,
                                              "max_iters": 500, **solver}),
                       proto=ProtoOptConfig(steps=50, restarts=1), seed=17)


def _tiny_batch(rng, m=8, in_a=7, in_b=6):
    return AugmentedBatch(
        a_t=rng.standard_normal((m, in_a)),
        a_s=rng.standard_normal((m, in_a)),
        b_t=rng.standard_normal((m, in_b)),
        b_s=rng.standard_normal((m, in_b)),
    )


def _tiny_setup(mode, seed=0):
    rng = np.random.default_rng(seed)
    params = init_params(mode, 7, 6, 5, 8, rng)
    protos = random_unit_rows(rng, 4, 8)
    batch = _tiny_batch(rng)
    return params, protos, batch


class TestPrototypeScores:
    def test_sharp_softmax_picks_aligned_prototype(self):
        protos = np.eye(2)
        feats = np.array([[1.0, 0.0]])
        row = prototype_scores(feats, protos, temperature=0.01)
        assert row[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_equidistant_gives_uniform(self):
        protos = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        feats = np.array([[0.0, 0.0, 1.0]])
        row = prototype_scores(feats, protos, temperature=0.3)
        assert np.allclose(row, 0.5, atol=1e-12)

    def test_matches_direct_softmax(self):
        rng = np.random.default_rng(0)
        feats = random_unit_rows(rng, 5, 6)
        protos = random_unit_rows(rng, 4, 6)
        scores = prototype_scores(feats, protos, temperature=1.0)
        sims = feats @ protos.T
        for i in range(5):
            denom = math.fsum(math.exp(s) for s in sims[i])
            for n in range(4):
                assert scores[i, n] == pytest.approx(math.exp(sims[i, n]) / denom, rel=1e-12)

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        scores = prototype_scores(random_unit_rows(rng, 50, 8), random_unit_rows(rng, 16, 8), 0.1)
        assert np.max(np.abs(scores.sum(axis=1) - 1.0)) <= 1e-12


class TestSwappedLoss:
    def test_one_hot_perfect_prediction(self):
        targets = np.array([[1.0, 0.0], [0.0, 1.0]])
        nearly = np.array([[1.0 - 1e-12, 1e-12], [1e-12, 1.0 - 1e-12]])
        assert swapped_loss(targets, nearly, targets, nearly) == pytest.approx(0.0, abs=1e-9)

    def test_uniform_rows(self):
        uniform = np.full((3, 4), 0.25)
        assert swapped_loss(uniform, uniform, uniform, uniform) == pytest.approx(
            2.0 * math.log(4.0), abs=1e-12
        )

    def test_matches_direct_summation(self):
        rng = np.random.default_rng(2)
        targets_t = rng.dirichlet(np.ones(4), size=5)
        targets_s = rng.dirichlet(np.ones(4), size=5)
        scores_t = rng.dirichlet(np.ones(4), size=5)
        scores_s = rng.dirichlet(np.ones(4), size=5)
        expected = math.fsum(
            -targets_t[i, n] * math.log(scores_s[i, n])
            - targets_s[i, n] * math.log(scores_t[i, n])
            for i in range(5)
            for n in range(4)
        ) / 5.0
        value = swapped_loss(targets_t, scores_s, targets_s, scores_t)
        assert value == pytest.approx(expected, abs=1e-12)

    def test_floor_is_twice_mean_row_entropy(self):
        rng = np.random.default_rng(3)
        targets = rng.dirichlet(np.ones(5), size=6)
        entropy = -np.sum(targets * np.log(targets), axis=1).mean()
        value = swapped_loss(targets, targets, targets, targets)
        assert value == pytest.approx(2.0 * entropy, abs=1e-12)
        # any other prediction is worse
        other = rng.dirichlet(np.ones(5), size=6)
        assert swapped_loss(targets, other, targets, other) >= value - 1e-12

    def test_swapped_symmetry(self):
        rng = np.random.default_rng(4)
        t1, t2 = rng.dirichlet(np.ones(3), size=(2, 4))
        g1, g2 = rng.dirichlet(np.ones(3), size=(2, 4))
        assert swapped_loss(t1, g1, t2, g2) == swapped_loss(t2, g2, t1, g1)

    def test_rejects_unscaled_plans(self):
        plan = np.full((4, 4), 1.0 / 16.0)  # rows sum to 1/4
        with pytest.raises(ValueError, match="rescale"):
            swapped_loss(plan, plan * 4.0, plan, plan * 4.0)


class TestEncoders:
    def test_encode_outputs_unit_rows(self):
        rng = np.random.default_rng(5)
        params = init_params("sep", 7, 6, 5, 8, rng)
        feats, _ = encode(params, "a", rng.standard_normal((10, 7)))
        assert np.max(np.abs(np.linalg.norm(feats, axis=1) - 1.0)) <= 1e-12

    def test_avg_with_identical_backbones_is_single_branch(self):
        rng = np.random.default_rng(6)
        params = init_params("avg", 7, 7, 5, 8, rng)
        params["b.w1"] = params["a.w1"].copy()
        params["b.b1"] = params["a.b1"].copy()
        x = rng.standard_normal((9, 7))
        fused, _ = encode(params, ("a", "b"), (x, x))
        single, _ = encode(params, "a", x)
        assert np.max(np.abs(fused - single)) <= 1e-12


class TestSelfConsistentFixedPoint:
    """Features equidistant from all prototypes with uniform assignments:
    the loss sits at its entropy floor and gradients vanish."""

    @staticmethod
    def _setup(mode):
        rng = np.random.default_rng(7)
        params = init_params(mode, 7, 6, 5, 3, rng)
        heads = ("a", "b") if mode == "sview" else ("shared",)
        for head in heads:
            params[f"{head}.w2"] = np.zeros_like(params[f"{head}.w2"])
            params[f"{head}.b2"] = np.array([0.0, 0.0, 1.0])
        angles = 2.0 * np.pi * np.arange(4) / 4.0
        r = math.sqrt(0.75)
        protos = np.stack([r * np.cos(angles), r * np.sin(angles), np.full(4, 0.5)], axis=1)
        batch = _tiny_batch(rng)
        return params, protos, batch

    def test_goca_loss_at_floor(self):
        params, protos, batch = self._setup("goca")
        cfg = _fast_cfg("goca")
        result = goca_step(batch, params, protos, cfg)
        assert result.loss == pytest.approx(4.0 * math.log(4.0), abs=1e-6)
        for grad in result.grads.values():
            assert np.max(np.abs(grad)) <= 1e-9

    def test_sview_loss_at_floor(self):
        params, protos, batch = self._setup("sview")
        cfg = _fast_cfg("sview")
        result = baseline_step(batch, params, protos, cfg)
        assert result.loss == pytest.approx(4.0 * math.log(4.0), abs=1e-6)

    def test_avg_loss_at_floor(self):
        params, protos, batch = self._setup("avg")
        cfg = _fast_cfg("avg")
        result = baseline_step(batch, params, protos, cfg)
        assert result.loss == pytest.approx(2.0 * math.log(4.0), abs=1e-6)


class TestStepGradients:
    @pytest.mark.parametrize("mode", ["sview", "avg", "sep", "goca"])
    def test_matches_finite_differences(self, mode):
        params, protos, batch = _tiny_setup(mode, seed=8)
        cfg = _fast_cfg(mode)
        step = goca_step if mode == "goca" else baseline_step
        base = step(batch, params, protos, cfg)
        vec, keys = _params_to_vec(params)
        analytic = _grad_vec(base.grads, keys)

        def loss_at(theta):
            candidate = _vec_to_params(theta, keys, params)
            return step(batch, candidate, protos, cfg, targets=base.targets).loss

        fd = finite_diff_grad(loss_at, vec, step=1e-5)
        scale = max(float(np.max(np.abs(fd))), 1e-12)
        assert float(np.max(np.abs(analytic - fd))) / scale <= 1e-4

    def test_sview_view_b_inputs_leave_view_a_gradients_alone(self):
        # both sview branches score against the one frozen set, which gets
        # no gradient, so view b's inputs reach none of view a's parameters
        params, protos, batch = _tiny_setup("sview", seed=11)
        cfg = _fast_cfg("sview")
        rng = np.random.default_rng(12)
        other = replace(batch, b_t=rng.standard_normal(batch.b_t.shape),
                        b_s=rng.standard_normal(batch.b_s.shape))
        first = baseline_step(batch, params, protos, cfg)
        second = baseline_step(other, params, protos, cfg)
        a_keys = [key for key in params if key.startswith("a.")]
        assert a_keys == ["a.w1", "a.b1", "a.w2", "a.b2"]
        for key in a_keys:
            assert np.array_equal(first.grads[key], second.grads[key])
        assert not np.array_equal(first.grads["b.w2"], second.grads["b.w2"])

    def test_stop_gradient_contract(self):
        params, protos, batch = _tiny_setup("goca", seed=9)
        results = []
        for tolerance in (1e-11, 1e-13):
            cfg = _fast_cfg(
                "goca",
                solver=SolverConfig(lambda1=0.5, lambda2=0.1, tolerance=tolerance, max_iters=200_000),
            )
            results.append(goca_step(batch, params, protos, cfg))
        first, second = results
        assert abs(first.loss - second.loss) < 1e-8
        _, keys = _params_to_vec(params)
        drift = np.max(np.abs(_grad_vec(first.grads, keys) - _grad_vec(second.grads, keys)))
        assert drift < 1e-7


class TestStepEntryPoints:
    def test_each_rejects_the_other_modes(self):
        params, protos, batch = _tiny_setup("sep", seed=15)
        with pytest.raises(ValueError, match="goca_step does not handle mode 'sep'"):
            goca_step(batch, params, protos, _fast_cfg("sep"))
        with pytest.raises(ValueError, match="baseline_step does not handle mode 'goca'"):
            baseline_step(batch, params, protos, _fast_cfg("goca"))

    @pytest.mark.parametrize("mode", MODES)
    def test_train_calls_its_mode_binding_once_per_batch(self, mode, monkeypatch):
        # span tracing wraps these two module attributes and expects one
        # call per training step through them, never a nested one
        calls = {"goca_step": 0, "baseline_step": 0}
        for name in calls:
            def counted(*args, _name=name, _step=getattr(engine, name), **kwargs):
                calls[_name] += 1
                return _step(*args, **kwargs)

            monkeypatch.setattr(engine, name, counted)
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=16))
        cfg = _train_cfg(mode)
        result = train(data, cfg)
        steps = cfg.epochs * (len(data) // cfg.batch_size)
        assert len(result.trace) == steps
        expected = "goca_step" if mode == "goca" else "baseline_step"
        assert calls == {name: steps if name == expected else 0 for name in calls}


class TestModeCollapse:
    def test_goca_with_zero_lambda2_is_bitwise_sep_step(self):
        params, protos, batch = _tiny_setup("sep", seed=10)
        solver = SolverConfig(lambda1=0.1, lambda2=0.0, tolerance=1e-9, max_iters=50_000)
        goca_res = goca_step(batch, dict(params), protos, _fast_cfg("goca", solver=solver))
        sep_res = baseline_step(batch, dict(params), protos, _fast_cfg("sep", solver=solver))
        assert goca_res.loss == sep_res.loss
        for key in params:
            assert np.array_equal(goca_res.grads[key], sep_res.grads[key])

    def test_goca_with_zero_lambda2_reproduces_sep_training_trace(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=40, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=3))
        solver = SolverConfig(lambda1=0.1, lambda2=0.0, tolerance=1e-6, max_iters=500)
        proto = ProtoOptConfig(steps=200, restarts=1)
        common = dict(
            epochs=25, batch_size=20, hidden_dim=6, feature_dim=8, num_prototypes=4,
            solver=solver, proto=proto, seed=11,
        )
        res_goca = train(data, TrainConfig(mode="goca", **common))
        res_sep = train(data, TrainConfig(mode="sep", **common))
        assert len(res_goca.trace) == 100
        assert res_goca.trace == res_sep.trace
        for key in res_goca.params:
            assert np.array_equal(res_goca.params[key], res_sep.params[key])


class TestAugment:
    @staticmethod
    def _unguarded(x, rng, cfg):
        # the augmentation without the dropped-row redraw
        out = x + cfg.aug_noise * rng.standard_normal(x.shape)
        return out * (rng.random(x.shape) >= cfg.aug_dropout)

    def test_never_drops_a_whole_row(self):
        cfg = _fast_cfg("goca", aug_dropout=0.8, hidden_dim=6, feature_dim=8)
        x = np.random.default_rng(0).standard_normal((20, 6))
        unguarded = self._unguarded(x, np.random.default_rng(1), cfg)
        assert not np.all(np.any(unguarded != 0.0, axis=1))  # the draw hits the event
        views = {}
        rng = np.random.default_rng(1)
        for slot in ("a_t", "a_s", "b_t", "b_s"):
            views[slot] = _augment(x, rng, cfg)
            assert np.all(np.any(views[slot] != 0.0, axis=1))
        # a fresh encoder (zero biases) must still give unit features to assign
        params = init_params("goca", 6, 6, cfg.hidden_dim, cfg.feature_dim,
                             np.random.default_rng(2))
        protos = random_unit_rows(np.random.default_rng(3), 4, cfg.feature_dim)
        result = goca_step(AugmentedBatch(**views), params, protos, cfg)
        assert np.isfinite(result.loss)

    def test_draw_without_dropped_rows_is_unchanged(self):
        cfg = TrainConfig()
        x = np.random.default_rng(4).standard_normal((100, 6))
        expected = self._unguarded(x, np.random.default_rng(5), cfg)
        assert np.all(np.any(expected != 0.0, axis=1))
        assert np.array_equal(_augment(x, np.random.default_rng(5), cfg), expected)


class TestTrainConfig:
    @pytest.mark.parametrize("line, message", [
        ("train.mode = fancy", f"mode must be one of {MODES}"),
        ("train.batch_size = 1", "batch_size must be at least 2"),
        ("train.temperature = 0.0", "temperature must be positive"),
        ("train.epochs = -1", "epochs must be nonnegative"),
        ("train.num_prototypes = 1", "need at least 2 prototypes"),
        ("train.aug_dropout = 1.0", "aug_dropout must lie in [0, 1)"),
        ("train.aug_dropout = -0.1", "aug_dropout must lie in [0, 1)"),
    ])
    def test_config_rejects_invalid_value(self, line, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(line + "\n")


class TestTrain:
    def test_zero_epochs_leaves_encoders_at_initialization(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=4))
        cfg = TrainConfig(mode="sep", epochs=0, batch_size=10, hidden_dim=6,
                          feature_dim=8, num_prototypes=4,
                          proto=ProtoOptConfig(steps=100, restarts=1), seed=12)
        result = train(data, cfg)
        assert result.trace == []
        rng = np.random.default_rng(cfg.seed)
        expected = init_params("sep", data.view_a.shape[1], data.view_b.shape[1],
                               cfg.hidden_dim, cfg.feature_dim, rng)
        for key, value in expected.items():
            assert np.array_equal(result.params[key], value)

    def test_descent_sanity_on_separable_data(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4,
                                    distractor_strength=0.5, view_b_noise=0.2, seed=5))
        cfg = TrainConfig(mode="goca", epochs=50, batch_size=20, hidden_dim=6,
                          feature_dim=8, num_prototypes=4,
                          solver=SolverConfig(lambda1=0.1, lambda2=0.03,
                                              tolerance=1e-6, max_iters=500),
                          proto=ProtoOptConfig(steps=200, restarts=1), seed=13)
        result = train(data, cfg)
        steps_per_epoch = len(result.trace) // cfg.epochs
        first = float(np.mean(result.trace[:steps_per_epoch]))
        last = float(np.mean(result.trace[-steps_per_epoch:]))
        assert last < first

    @pytest.mark.parametrize("mode", ["sview", "avg", "sep", "goca"])
    def test_divergence_stops_naming_mode_and_step(self, mode):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=6))
        cfg = TrainConfig(mode=mode, epochs=2, batch_size=10, hidden_dim=6, feature_dim=8,
                          num_prototypes=4, learning_rate=1e200,
                          solver=SolverConfig(lambda1=0.1, tolerance=1e-6, max_iters=500),
                          proto=ProtoOptConfig(steps=50, restarts=1))
        # the first update scales the weights to ~1e200, so the next
        # step's feature norms overflow
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(FloatingPointError,
                               match=f"^{mode} training stopped at step 1: .* parameters diverged"):
                train(data, cfg)

    def test_non_finite_loss_stops_naming_mode_and_step(self, monkeypatch):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=6))
        monkeypatch.setattr(engine, "swapped_loss", lambda *args: math.nan)
        with pytest.raises(FloatingPointError, match="^goca training stopped at step 0: loss is nan$"):
            train(data, _train_cfg("goca"))

    @pytest.mark.parametrize("mode", MODES)
    def test_non_converged_steps_warn_once_naming_mode_and_step(self, mode, caplog):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=18))
        with caplog.at_level(logging.WARNING, logger="goca.ssl_engine"):
            train(data, _train_cfg(mode))
        assert caplog.records == []
        # an unreachable tolerance stops every solve at the cap.  At
        # lambda1 = 0.1 a solve is one stage, so the cap bounds all its
        # sweeps: two check blocks (20 sweeps) leave targets within the
        # loss's row-sum bound in every mode, one (10) not in sview or avg
        with caplog.at_level(logging.WARNING, logger="goca.ssl_engine"):
            result = train(data, _train_cfg(mode, tolerance=1e-18, max_iters=20))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("goca.ssl_engine", logging.WARNING,
             f"{mode} training step {step}: assignment did not converge; using last iterate")
            for step in range(len(result.trace))
        ]

    def test_training_at_defaults_never_polishes(self, monkeypatch):
        # At 100 x 64 a polish pays off only once more than 2,700 sweeps
        # are projected, past training's cap of 2,000, so every solve of
        # a training run is scaling's alone and its outputs do not move
        # with the polish.
        def polish(*args):
            pytest.fail("a training solve ran the Newton polish")

        monkeypatch.setattr(ot_core, "_newton_polish", polish)
        run = RunConfig()
        data = generate(run.data)
        prototypes = optimize_prototypes(run.train.num_prototypes, run.train.feature_dim, run.train.proto)
        for mode in MODES:
            cfg = replace(run.train, mode=mode, epochs=2)
            result = train(data, cfg, prototypes)
            assert len(result.trace) == 2 * len(data) // cfg.batch_size

    def test_dimension_mismatch_rejected(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=6))
        cfg = TrainConfig(mode="sep", epochs=1, batch_size=10, feature_dim=8,
                          num_prototypes=4, proto=ProtoOptConfig(steps=50, restarts=1))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError, match="feature_dim"):
            train(data, cfg, prototypes=random_unit_rows(rng, 4, 5))

    def test_batch_larger_than_the_data_set_rejected_naming_both_sizes(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=6))
        cfg = replace(_train_cfg("sep"), batch_size=41)
        with pytest.raises(ValueError, match="^batch_size 41 exceeds the dataset size 40$"):
            train(data, cfg, prototypes=random_unit_rows(np.random.default_rng(0), 4, 8))

    @pytest.mark.parametrize("mode, sets, message", [
        (mode, sets, f"{mode} mode trains against one prototype array of shape "
                     f"(n, feature_dim) = (n, 8), got {got}")
        for sets, got in (("tuple", "a tuple of 2"), ("list", "a list of 2"),
                          ("wide", "shape (4, 9)"))
        for mode in MODES
    ])
    def test_wrong_prototype_set_count_rejected_before_any_step(
        self, monkeypatch, mode, sets, message
    ):
        data = generate(SynthConfig(num_classes=2, samples_per_class=20, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=6))
        rng = np.random.default_rng(0)
        pair = (random_unit_rows(rng, 4, 8), random_unit_rows(rng, 4, 8))
        prototypes = {"tuple": pair, "list": list(pair), "wide": random_unit_rows(rng, 4, 9)}[sets]
        monkeypatch.setattr(engine, "_step", lambda *args: pytest.fail("a step ran"))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            train(data, _train_cfg(mode), prototypes)

    def test_unknown_mode_rejected_naming_the_modes(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=5, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=6))
        rng = np.random.default_rng(0)
        dims = (data.view_a.shape[1], data.view_b.shape[1], 6, 8)
        params = init_params("sep", *dims, rng)
        message = re.escape(f"mode must be one of {MODES}, got 'bogus'")
        with pytest.raises(ValueError, match=message):
            init_params("bogus", *dims, rng)
        with pytest.raises(ValueError, match=message):
            extract_features(params, "bogus", data)

    def test_extract_features_conditions(self):
        data = generate(SynthConfig(num_classes=2, samples_per_class=15, signal_dim=4,
                                    distractor_dim=3, num_distractor_modes=4, seed=7))
        for mode, expected in (("sep", {"a", "b", "fused"}), ("avg", {"fused"})):
            cfg = TrainConfig(mode=mode, epochs=1, batch_size=10, hidden_dim=6,
                              feature_dim=8, num_prototypes=4,
                              solver=SolverConfig(lambda1=0.1, tolerance=1e-6, max_iters=500),
                              proto=ProtoOptConfig(steps=50, restarts=1), seed=14)
            result = train(data, cfg)
            feats = extract_features(result.params, mode, data)
            assert set(feats) == expected
            for f in feats.values():
                assert np.max(np.abs(np.linalg.norm(f, axis=1) - 1.0)) <= 1e-9
