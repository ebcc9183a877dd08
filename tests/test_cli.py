"""Command-line surface: subcommands, exit codes, file formats."""

import argparse
import csv
import functools
import inspect
import logging
import math
import os
import shlex
import statistics
import subprocess
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from goca.cli import _MIRRORED, _flag_config, build_parser, main, run_ablation, run_lambda_grid
from goca.matrixio import read_matrix, write_matrix
from goca.ot_core import SolverConfig, guided_sinkhorn
from goca.prototypes import optimize_prototypes
from goca.runconfig import RunConfig, dump_config, parse_config
from goca.ssl_engine import MODES
from goca.verify import kernel_reduction_draws

TINY_CONFIG = """
data.num_classes = 2
data.samples_per_class = 20
data.signal_dim = 4
data.distractor_dim = 3
data.num_distractor_modes = 4
proto.steps = 100
proto.restarts = 1
solver.lambda1 = 0.1
solver.tolerance = 1e-06
solver.max_iters = 500
train.epochs = 2
train.batch_size = 10
train.hidden_dim = 6
train.feature_dim = 8
train.num_prototypes = 4
eval.repeats = 3
"""


@pytest.fixture()
def tiny_config(tmp_path):
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_CONFIG)
    return str(path)


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestGenData:
    def test_writes_views_and_labels(self, tmp_path, tiny_config):
        out = tmp_path / "data"
        assert main(["gen-data", "--config", tiny_config, "--out", str(out)]) == 0
        view_a = read_matrix(out / "view_a.mat")
        view_b = read_matrix(out / "view_b.mat")
        assert view_a.shape == (40, 7)
        assert view_b.shape == (40, 4)
        labels = (out / "labels.txt").read_text().splitlines()
        assert len(labels) == 40


class TestOptimizePrototypes:
    def test_writes_unit_rows(self, tmp_path, capsys):
        out = tmp_path / "protos.mat"
        code = main([
            "optimize-prototypes", "--n", "4", "--dim", "3", "--steps", "800",
            "--restarts", "2", "--out", str(out), "--report",
        ])
        assert code == 0
        w = read_matrix(out)
        assert w.shape == (4, 3)
        assert np.max(np.abs(np.linalg.norm(w, axis=1) - 1.0)) <= 1e-9
        assert "max_pairwise_cosine" in capsys.readouterr().out


class TestSolve:
    def test_plain_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        cost = rng.uniform(-1, 1, size=(3, 4))
        cost_path = tmp_path / "cost.mat"
        write_matrix(cost_path, cost)
        out = tmp_path / "plan.mat"
        code = main([
            "solve", "--cost", str(cost_path), "--lambda1", "0.1", "--out", str(out),
        ])
        assert code == 0
        plan = read_matrix(out)
        assert np.max(np.abs(plan.sum(axis=1) - 1.0 / 3.0)) <= 1e-8
        assert np.max(np.abs(plan.sum(axis=0) - 0.25)) <= 1e-8

    def test_reports_total_sweeps(self, tmp_path, capsys):
        cost_path = tmp_path / "cost.mat"
        write_matrix(cost_path, np.random.default_rng(3).uniform(-1, 1, size=(4, 3)))
        out = tmp_path / "p.mat"
        assert main(["solve", "--cost", str(cost_path), "--out", str(out)]) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        # range(C) / lambda1 = 1.43 / 0.02 is within the starting spread of
        # 128, so the default lambda1 is solved in one stage
        assert int(fields["sweeps"]) == int(fields["iterations"]) > 0
        assert fields["newton_steps"] == "0"
        # at lambda1 = 0.005 the spread is 286: two annealing stages run
        # before the counted one
        args = ["solve", "--cost", str(cost_path), "--lambda1", "0.005", "--out", str(out)]
        assert main(args) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert int(fields["sweeps"]) > int(fields["iterations"]) > 0
        assert fields["newton_steps"] == "0"

    def test_reports_newton_steps_of_a_polished_solve(self, tmp_path, capsys):
        # c03's sixth instance stalls at library defaults: scaling alone
        # reaches the 10,000-sweep cap, the Newton polish converges
        cost, prior = list(kernel_reduction_draws(np.random.default_rng(103), 6))[5]
        write_matrix(tmp_path / "cost.mat", cost)
        write_matrix(tmp_path / "prior.mat", prior)
        assert main([
            "solve", "--cost", str(tmp_path / "cost.mat"), "--prior", str(tmp_path / "prior.mat"),
            "--strict", "--out", str(tmp_path / "p.mat"),
        ]) == 0
        fields = dict(part.split("=") for part in capsys.readouterr().out.split())
        assert fields["converged"] == "True"
        assert int(fields["newton_steps"]) > 0
        assert int(fields["iterations"]) < 10_000

    def test_guided_solve(self, tmp_path):
        rng = np.random.default_rng(1)
        cost_path = tmp_path / "cost.mat"
        prior_path = tmp_path / "prior.mat"
        write_matrix(cost_path, rng.uniform(-1, 1, size=(3, 3)))
        write_matrix(prior_path, rng.uniform(0.1, 1.0, size=(3, 3)))
        out = tmp_path / "plan.mat"
        code = main([
            "solve", "--cost", str(cost_path), "--prior", str(prior_path),
            "--lambda1", "0.1", "--lambda2", "0.05", "--out", str(out),
        ])
        assert code == 0
        # a prior alone makes the solve guided
        cfg = SolverConfig(lambda1=0.1, lambda2=0.05)
        expected = guided_sinkhorn(read_matrix(cost_path), read_matrix(prior_path), cfg=cfg).plan
        write_matrix(tmp_path / "expected.mat", expected)
        assert np.array_equal(read_matrix(out), read_matrix(tmp_path / "expected.mat"))

    def test_non_finite_plan_exits_2_with_message(self, tmp_path, capsys):
        cost_path = tmp_path / "cost.mat"
        write_matrix(cost_path, np.random.default_rng(4).uniform(-1, 1, size=(3, 4)))
        out = tmp_path / "p.mat"
        with np.errstate(all="ignore"):
            code = main(["solve", "--cost", str(cost_path), "--lambda1", "1e-310",
                         "--out", str(out)])
        assert code == 2
        assert "error: transport plan is not finite at regularization" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_regularization_beyond_float_range_exits_2_before_solving(self, tmp_path, capsys):
        cost_path = tmp_path / "cost.mat"
        write_matrix(cost_path, np.random.default_rng(4).uniform(-1, 1, size=(3, 4)))
        out = tmp_path / "p.mat"
        code = main(["solve", "--cost", str(cost_path), "--lambda1", "1e-310", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr() == ("", "error: transport plan is not finite at regularization "
                                       "1e-310: cost / regularization leaves the float64 range\n")
        assert not out.exists()



class TestTrainAndEval:
    def test_train_writes_artifacts(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        code = main([
            "train", "--mode", "sep", "--config", tiny_config, "--out", str(out),
        ])
        assert code == 0
        trace = _read_csv(out / "loss_trace.csv")
        assert trace[0] == ["step", "loss"]
        assert len(trace) == 1 + 2 * 4  # 2 epochs x 4 full batches
        assert read_matrix(out / "prototypes.mat").shape == (4, 8)
        assert (out / "enc_a_w1.mat").exists()
        assert (out / "enc_shared_w2.mat").exists()
        metrics = _read_csv(out / "metrics.csv")
        assert metrics[0][0] == "condition"
        assert {row[0] for row in metrics[1:]} == {"a", "b", "fused"}

    def test_sview_train_writes_the_one_prototype_set(self, tmp_path, tiny_config):
        out = tmp_path / "run"
        assert main(["train", "--mode", "sview", "--config", tiny_config, "--out", str(out)]) == 0
        train_cfg = replace(parse_config(TINY_CONFIG).train, mode="sview")
        placed = optimize_prototypes(train_cfg.num_prototypes, train_cfg.feature_dim, train_cfg.proto)
        assert np.array_equal(read_matrix(out / "prototypes.mat"), placed)
        for name in ("prototypes_a.mat", "prototypes_b.mat"):
            assert not (out / name).exists()

    def test_train_seed_writes_the_ablation_row_of_that_seed(self, tmp_path, tiny_config):
        ablation = tmp_path / "ablation.csv"
        assert main(["ablate", "--config", tiny_config, "--seeds", "2", "--out", str(ablation)]) == 0
        with open(ablation, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for mode in MODES:
            out = tmp_path / mode
            code = main(["train", "--mode", mode, "--seed", "1", "--config", tiny_config,
                         "--out", str(out)])
            assert code == 0
            with open(out / "metrics.csv", newline="") as fh:
                metrics = [[r["condition"], r["acc_mean"], r["acc_se"], r["nmi_mean"], r["f1_mean"]]
                           for r in csv.DictReader(fh)]
            assert metrics == [[r["condition"], r["accuracy"], r["accuracy_se"], r["nmi"], r["f1"]]
                               for r in rows if (r["seed"], r["mode"]) == ("1", mode)]

    def test_capped_solves_train_and_warn_once_per_step(self, tmp_path, caplog):
        # a one-sweep cap leaves every plan off its marginals; its targets are
        # still probability rows, so each step trains on the last iterate
        capped = tmp_path / "capped.cfg"
        capped.write_text(TINY_CONFIG.replace("solver.max_iters = 500", "solver.max_iters = 1"))
        out = tmp_path / "run"
        with caplog.at_level(logging.WARNING, logger="goca.ssl_engine"):
            assert main(["train", "--mode", "avg", "--config", str(capped), "--out", str(out)]) == 0
        trace = _read_csv(out / "loss_trace.csv")
        losses = [float(loss) for _, loss in trace[1:]]
        assert len(losses) == 2 * 4 and all(math.isfinite(loss) for loss in losses)
        warnings = [record.getMessage() for record in caplog.records]
        assert len(warnings) == len(losses)
        for index, message in enumerate(warnings):
            assert message.startswith(f"avg training step {index}: assignment did not converge;")

    def test_non_finite_loss_exits_2_writing_nothing(self, tmp_path, tiny_config, monkeypatch,
                                                      capsys):
        monkeypatch.setattr("goca.ssl_engine.swapped_loss", lambda *args: float("nan"))
        out = tmp_path / "run"
        assert main(["train", "--mode", "goca", "--config", tiny_config, "--out", str(out)]) == 2
        assert "error: goca training stopped at step 0: loss is nan" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_subcommand(self, tmp_path, tiny_config):
        data_dir = tmp_path / "data"
        main(["gen-data", "--config", tiny_config, "--out", str(data_dir)])
        metrics_path = tmp_path / "metrics.csv"
        code = main([
            "eval", "--features", str(data_dir / "view_b.mat"),
            "--labels", str(data_dir / "labels.txt"),
            "--queries", str(data_dir / "view_b.mat"),
            "--query-labels", str(data_dir / "labels.txt"),
            "--recall-k", "1", "--repeats", "3",
            "--metrics", str(metrics_path),
        ])
        assert code == 0
        rows = _read_csv(metrics_path)
        names = [row[0] for row in rows[1:]]
        assert names == ["accuracy", "nmi", "f1", "recall@1"]
        # every query is its own nearest neighbor
        assert float(rows[4][1]) == 1.0

    def test_eval_scores_a_tiny_query_row(self, tmp_path, capsys):
        # a norm of 1e-13 is finite and nonzero, so the row has a unit direction
        write_matrix(tmp_path / "f.mat", np.vstack([np.eye(3), [1.0, 1.0, 0.0]]))
        write_matrix(tmp_path / "q.mat", np.array([[1e-13, 0.0, 0.0]]))
        (tmp_path / "l.txt").write_text("0\n1\n0\n1\n")
        (tmp_path / "ql.txt").write_text("0\n")
        argv = (f"eval --features {tmp_path / 'f.mat'} --labels {tmp_path / 'l.txt'} "
                f"--queries {tmp_path / 'q.mat'} --query-labels {tmp_path / 'ql.txt'} --k 2 "
                f"--repeats 1 --metrics {tmp_path / 'm.csv'}")
        assert main(shlex.split(argv)) == 0
        assert capsys.readouterr().out.endswith("recall@1 = 1.000000 (se 0.000000)\n")


class TestGridAndAblate:
    def test_lambda_grid_rows(self, tmp_path, tiny_config):
        out = tmp_path / "grid.csv"
        code = main([
            "lambda-grid", "--config", tiny_config,
            "--lambda1-list", "0.1,0.2", "--lambda2-list", "0.0,0.03",
            "--out", str(out),
        ])
        assert code == 0
        rows = _read_csv(out)
        assert rows[0] == ["lambda1", "lambda2", "accuracy"]
        assert len(rows) == 5
        for row in rows[1:]:
            assert 0.0 <= float(row[2]) <= 1.0

    def test_zero_lambda2_cell_equals_sep_ablation_cell(self, tiny_config):
        cfg = parse_config(TINY_CONFIG)
        grid = run_lambda_grid(cfg, [cfg.solver.lambda1], [0.0], seeds=1)
        ablation = run_ablation(cfg, seeds=1)
        sep_fused = next(
            r["accuracy"] for r in ablation if r["mode"] == "sep" and r["condition"] == "fused"
        )
        assert grid[0]["accuracy"] == sep_fused

    def test_parallel_jobs_match_serial(self, monkeypatch):
        import goca.ssl_engine as engine

        cfg = parse_config(TINY_CONFIG)
        serial = run_ablation(cfg, seeds=2, jobs=1)
        # the pool runs even through a wrapper on the placement binding, as
        # a tracer installs, which cannot be pickled by name
        place = engine.optimize_prototypes
        monkeypatch.setattr(engine, "optimize_prototypes", functools.wraps(place)(
            lambda *args: place(*args)))
        monkeypatch.setattr("os.cpu_count", lambda: 2)
        parallel = run_ablation(cfg, seeds=2, jobs=2)
        assert serial == parallel

    @staticmethod
    def _count_placements(monkeypatch):
        import goca.ssl_engine as engine

        calls = []
        place = engine.optimize_prototypes

        def counted(*args):
            calls.append(args)
            return place(*args)

        monkeypatch.setattr(engine, "optimize_prototypes", counted)
        return calls

    @staticmethod
    def _own_cell(cfg, mode, s):
        """``_run_cell`` of one cell against a set placed for it alone."""
        import goca.cli as cli

        c = cli._cell_config(cfg, mode, s)
        placed = cli._place_prototypes(c.num_prototypes, c.feature_dim, c.proto)
        return cli._run_cell(cfg, c, placed)

    def test_ablation_places_each_distinct_prototype_set_once(self, monkeypatch):
        cfg = parse_config(TINY_CONFIG)
        calls = self._count_placements(monkeypatch)
        rows = run_ablation(cfg, seeds=2)
        # one set per seed offset, at proto seeds 0 and 1, for all four modes
        assert [args[2].seed for args in calls] == [0, 1]
        calls.clear()
        own = [{"seed": s, "mode": mode, "condition": condition, "accuracy": rep.mean.accuracy,
                "accuracy_se": rep.stderr.accuracy, "nmi": rep.mean.nmi, "f1": rep.mean.f1}
               for s in range(2) for mode in ("sview", "avg", "sep", "goca")
               for condition, rep in self._own_cell(cfg, mode, s)[1].items()]
        assert len(calls) == 8
        assert rows == own
        assert [list(row) for row in rows] == [list(row) for row in own]

    def test_train_places_exactly_one_set(self, tmp_path, tiny_config, monkeypatch):
        from goca.cli import _cell_config

        calls = self._count_placements(monkeypatch)
        assert main(["train", "--mode", "sep", "--config", tiny_config,
                     "--out", str(tmp_path / "run")]) == 0
        # placed by the cell path with the arguments train itself would pass
        c = _cell_config(parse_config(TINY_CONFIG), "sep", 0)
        assert calls == [(c.num_prototypes, c.feature_dim, c.proto)]

    def test_every_mode_of_a_seed_trains_against_the_one_placed_array(self, monkeypatch):
        import goca.cli as cli

        handed = {}
        real_train = cli.train

        def spy(dataset, cfg, prototypes=None):
            # TINY_CONFIG keeps train.seed at 0, so a cell's seed is its offset
            handed[cfg.seed, cfg.mode] = prototypes
            return real_train(dataset, cfg, prototypes)

        monkeypatch.setattr(cli, "train", spy)
        cfg = parse_config(TINY_CONFIG)
        run_ablation(cfg, seeds=2)
        assert list(handed) == [(s, mode) for s in range(2) for mode in MODES]
        for s in range(2):
            assert all(handed[s, mode] is handed[s, "goca"] for mode in MODES)
            c = cli._cell_config(cfg, "goca", s)
            placed = optimize_prototypes(c.num_prototypes, c.feature_dim, c.proto)
            assert np.array_equal(handed[s, "goca"], placed)
        assert not np.array_equal(handed[0, "goca"], handed[1, "goca"])

    def test_lambda_grid_places_prototypes_once_per_seed(self, monkeypatch):
        cfg = parse_config(TINY_CONFIG)
        calls = self._count_placements(monkeypatch)
        grid = run_lambda_grid(cfg, [0.1, 0.2], [0.0, 0.03], seeds=2)
        assert [args[2].seed for args in calls] == [0, 1]
        solver = replace(cfg.solver, lambda1=0.2, lambda2=0.03)
        last_cell = replace(cfg, train=replace(cfg.train, solver=solver))
        fused = [self._own_cell(last_cell, "goca", s)[1]["fused"].mean.accuracy for s in range(2)]
        assert grid[-1]["accuracy"] == statistics.median(fused)

    def test_run_functions_reject_seeds_below_one(self):
        cfg = parse_config(TINY_CONFIG)
        with pytest.raises(ValueError, match="^--seeds must be at least 1, got 0$"):
            run_ablation(cfg, seeds=0)
        with pytest.raises(ValueError, match="^--seeds must be at least 1, got -2$"):
            run_lambda_grid(cfg, [0.1], [0.0], seeds=-2)

    def test_jobs_below_one_is_usage_error(self, tmp_path, tiny_config):
        out = tmp_path / "rows.csv"
        assert main(["ablate", "--config", str(tiny_config), "--seeds", "1",
                     "--jobs", "0", "--out", str(out)]) == 1
        assert main(["lambda-grid", "--config", str(tiny_config), "--jobs", "-1",
                     "--out", str(out)]) == 1
        assert not out.exists()

    def test_pool_size_is_clamped(self, monkeypatch):
        from goca.cli import _pool_size

        # the processor count, where the platform reports no affinity mask
        monkeypatch.delattr("os.sched_getaffinity", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)
        assert _pool_size(1, 20) == 1
        assert _pool_size(3, 20) == 3
        assert _pool_size(10_000, 20) == 4
        assert _pool_size(10_000, 2) == 2
        monkeypatch.setattr("os.cpu_count", lambda: None)
        assert _pool_size(8, 20) == 1
        # the CPUs of the affinity mask, where it is smaller than the count
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 5, 6}, raising=False)
        assert _pool_size(10_000, 20) == 3
        assert _pool_size(2, 20) == 2
        with pytest.raises(ValueError, match="at least 1"):
            _pool_size(0, 20)

    def test_single_cell_grid_equals_single_train_run(self):
        cfg = parse_config(TINY_CONFIG)
        grid = run_lambda_grid(cfg, [cfg.solver.lambda1], [cfg.solver.lambda2], seeds=1)
        _, scores = self._own_cell(cfg, "goca", 0)
        fused = scores["fused"].mean.accuracy
        assert grid[0]["accuracy"] == fused


class TestVerifyAndConfig:
    def test_verify_passes(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out
        # tests/test_golden.py documents how to regenerate the golden
        assert out == (Path(__file__).parent / "golden" / "verify_seed0.txt").read_text()

    def test_verify_failure_exits_3(self, monkeypatch, capsys):
        monkeypatch.setattr(
            "goca.verify.oracle_battery",
            lambda seed: [("doomed property", False, "worst 1e+00 vs tol 1e-09")],
        )
        assert main(["verify"]) == 3
        assert "FAIL" in capsys.readouterr().out

    def test_dump_config_round_trip(self, capsys):
        assert main(["dump-config"]) == 0
        text = capsys.readouterr().out
        assert text == dump_config(RunConfig())

    def test_unknown_subcommand_exits_1(self):
        assert main(["frobnicate"]) == 1

    def test_recall_k_is_not_a_config_key(self, tmp_path, capsys):
        assert main(["dump-config"]) == 0
        assert "recall_k" not in capsys.readouterr().out
        bad = tmp_path / "old.cfg"
        bad.write_text("eval.recall_k = 1\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1
        assert "config error: line 1: unknown key 'eval.recall_k'" in capsys.readouterr().err

    def test_flag_defaults_are_the_config_defaults(self):
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, (cls, flags) in _MIRRORED.items():
            actions = {a.option_strings[0]: a for a in sub.choices[command]._actions}
            types = {f.name: f.type for f in fields(cls)}
            for flag, name in flags.items():
                assert (actions[flag].type.__name__, actions[flag].default) == (types[name], None)
            required = [arg for a in actions.values() if a.required
                        for arg in (a.option_strings[0], "2")]
            args = parser.parse_args([command, *required])
            # with no flag set, the class default or a loaded config comes back unchanged
            loaded = replace(cls(), **{name: getattr(cls(), name) + 1 for name in flags.values()})
            assert (_flag_config(args), _flag_config(args, loaded)) == (cls(), loaded), command
        for command, run in (("ablate", run_ablation), ("lambda-grid", run_lambda_grid)):
            flags = parser.parse_args([command, "--out", "o.csv"])
            params = inspect.signature(run).parameters
            assert (flags.seeds, flags.jobs) == (
                params["seeds"].default, params["jobs"].default), command

    def test_config_error_exits_1(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("train.bogus = 1\n")
        assert main(["train", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1



# The run directory of every error row: text files, then matrices.
_ERROR_FILES = {
    "tiny.cfg": TINY_CONFIG,
    "seeded.cfg": "train.seed = 5\nproto.seed = 5\n",
    "diverge.cfg": TINY_CONFIG + "train.learning_rate = 1e200\n",
    "tiny_lambda1.cfg": TINY_CONFIG.replace("solver.lambda1 = 0.1", "solver.lambda1 = 1e-310"),
    "big_batch.cfg": TINY_CONFIG.replace("train.batch_size = 10", "train.batch_size = 41"),
    "temperature.cfg": "train.temperature = nan\n",
    "tolerance.cfg": "solver.tolerance = 0.01\n",
    "hidden_dim.cfg": "train.hidden_dim = 0\n",
    "proto_lr.cfg": "proto.learning_rate = nan\n",
    "noise.cfg": "data.view_b_noise = nan\n",
    "no_equals.cfg": "train.epochs 3\n",
    "class_scale.cfg": "data.class_scale = 0.0\n",
    "repeats.cfg": "eval.repeats = 0\n",
    "prior_floor.cfg": "solver.prior_floor = 1e-12\n",
    "kmeans_restarts.cfg": "eval.kmeans_restarts = 1\n",
    "final_lr.cfg": "proto.final_learning_rate = 0.001\n",
    "nan_cost.mat": "2 2\n0 1\nnan 0\n",
    "huge_cost.mat": "2 2\n1e308 -1e308\n0 0\n",
    "prior2.mat": "2 2\n1 1\n1 1\n",
    "c.mat": "2 2\n0.1 0.2\n0.3 0.4\n",
    "huge.mat": "1000000000 1000000000\n0.1 0.2\n",
    "past.mat": "2 2\n1 0\n0 1\n1 1\n",
    "dup.mat": "4 2\n1 0\n1 0\n0 1\n0 1\n",
    "l.txt": "0\n1\n" * 3,
    "l2.txt": "0\n1\n",
    "l4.txt": "0\n1\n0\n1\n",
    "l4dup.txt": "0\n1\n2\n2\n",
    "big.txt": "99999999999999999999\n0\n",
}
_ERROR_MATRICES = {
    "cost.mat": np.random.default_rng(4).uniform(-1, 1, size=(3, 4)),
    "f.mat": np.tile(np.eye(2), (3, 1)),
    "f4x12.mat": np.eye(4, 12),
    "q2x6.mat": np.eye(2, 6),
    "f4x3.mat": np.vstack([np.eye(3), [1.0, 1.0, 0.0]]),
    "q_zero.mat": np.array([[1.0, 2.0, 0.0], [0.0, 0.0, 0.0]]),
    "q_huge.mat": np.array([[1.0, 2.0, 0.0], [1e200, 1e200, 0.0]]),
}


def _row(row_id, cmdline, code, stderr, *marks):
    return pytest.param(shlex.split(cmdline), code, stderr, marks=marks, id=row_id)


_SEED = "error: --seed must be nonnegative, got -1"
_EVAL = "eval --features f.mat --labels l.txt"
_RETRIEVAL = f"{_EVAL} --queries f.mat --query-labels l.txt --repeats 1 --metrics m.csv"
_BAD_LAMBDA_LISTS = {
    "empty": ("''", "needs at least one value"),
    "blank": ("' , '", "needs at least one value"),
    "text": ("0.1,abc", "entry 'abc' is not a number"),
}
_ERROR_ROWS = [
    _row("solve-strict", "solve --cost cost.mat --lambda1 0.02 --tolerance 1e-18 --max-iters 5 "
         "--strict --out p.mat", 2, "error: solver did not converge"),
    _row("solve-nan-cost", "solve --cost nan_cost.mat --out p.mat", 1,
         "error: nan_cost.mat: row 1 has a non-finite value"),
    # finite costs whose range overflows: the cost range check fails, not numpy
    _row("solve-huge-cost", "solve --cost huge_cost.mat --out p.mat", 2,
         "error: transport plan is not finite at regularization 0.02: cost / regularization "
         "leaves the float64 range"),
    _row("solve-huge-cost-prior", "solve --cost huge_cost.mat --prior prior2.mat --out p.mat", 2,
         "error: transport plan is not finite at regularization 0.05: cost / regularization "
         "leaves the float64 range"),
    # a prior shift past float64: the guided solve's cost range check fails, not numpy
    _row("solve-huge-lambda2", "solve --cost c.mat --prior c.mat --lambda2 1e308 --out o.mat", 2,
         "error: transport plan is not finite at regularization 1e+308: cost / regularization "
         "leaves the float64 range"),
    # a header whose size overflows memory: the reader fails on the rows it has
    *[_row(f"{command.split()[0]}-huge-header", command, 1,
           "error: huge.mat: row 0 has 2 values, expected 1000000000")
      for command in ("solve --cost huge.mat --out o.mat",
                      "eval --features huge.mat --labels l2.txt --metrics m.csv")],
    _row("solve-lambda1-nan", "solve --cost cost.mat --lambda1 nan --out p.mat", 1,
         "error: --lambda1 must be finite, got nan"),
    _row("solve-lambda1-0", "solve --cost cost.mat --lambda1 0 --out p.mat", 1,
         "error: --lambda1 must be positive, got 0.0"),
    _row("solve-lambda2-inf", "solve --cost cost.mat --lambda2 inf --out p.mat", 1,
         "error: --lambda2 must be finite, got inf"),
    _row("solve-lambda2-neg", "solve --cost cost.mat --lambda2 -1 --out p.mat", 1,
         "error: --lambda2 must be nonnegative, got -1.0"),
    _row("solve-tolerance-nan", "solve --cost cost.mat --tolerance nan --out p.mat", 1,
         "error: --tolerance must be finite, got nan"),
    _row("solve-tolerance-neg", "solve --cost cost.mat --tolerance -1 --out p.mat", 1,
         "error: --tolerance must be positive, got -1.0"),
    _row("solve-max-iters-0", "solve --cost cost.mat --max-iters 0 --out p.mat", 1,
         "error: --max-iters must be at least 1, got 0"),
    # a plain solve has no KL term, so the flag would be dropped unread
    _row("solve-lambda2-no-prior", "solve --cost cost.mat --lambda2 0.5 --out p.mat", 1,
         "error: --lambda2 requires --prior; a plain solve has no KL term"),
    # --guided is gone: a prior alone makes a solve guided
    *[_row(f"solve{flag}", f"solve --cost cost.mat {flag} --out p.mat", 1,
           f"goca: error: unrecognized arguments: {flag}") for flag in ("--plain", "--guided")],
    _row("protos-lr-0", "optimize-prototypes --n 4 --dim 3 --lr 0 --out w.mat", 1,
         "error: --lr must be positive, got 0.0"),
    _row("protos-steps-0", "optimize-prototypes --n 4 --dim 3 --steps 0 --out w.mat", 1,
         "error: --steps must be at least 1, got 0"),
    _row("protos-restarts-0", "optimize-prototypes --n 4 --dim 3 --restarts 0 --out w.mat", 1,
         "error: --restarts must be at least 1, got 0"),
    _row("protos-n-1", "optimize-prototypes --n 1 --dim 3 --out w.mat", 1,
         "error: need at least 2 prototypes in at least 2 dimensions, got 1 in 3"),
    _row("train-diverging", "train --mode sep --config diverge.cfg --out run", 2,
         "error: sep training stopped at step 1: cannot scale encoder output row 0 to unit "
         "length: its norm is inf: the parameters diverged"),
    # a regularization so small that the cost range over it overflows
    _row("train-tiny-lambda1", "train --mode goca --config tiny_lambda1.cfg --out run", 2,
         "error: goca training stopped at step 0: transport plan is not finite at regularization "
         "1e-310: cost / regularization leaves the float64 range"),
    *[_row(f"train-{name}", f"train --config {name}.cfg --out run", 1, f"config error: {message}")
      for name, message in [
          ("temperature", "train.temperature must be finite, got nan"),
          ("tolerance", "solver.tolerance = 0.01 is not below the row mass "
           "1 / train.batch_size = 1 / 100 of a training plan"),
          ("hidden_dim", "train.hidden_dim must be at least 1, got 0"),
          ("proto_lr", "proto.learning_rate must be finite, got nan"),
          ("noise", "data.view_b_noise must be finite, got nan"),
      ]],
    _row("eval-queries-no-labels", f"{_EVAL} --queries f.mat --metrics m.csv", 1,
         "error: --queries requires --query-labels"),
    *[_row(f"eval-recall-k-{k}", f"{_RETRIEVAL} --recall-k {k}", 1,
           f"error: k must lie in [1, database size = 6], got {k}") for k in (0, 7)],
    # rejected before any query file is read
    *[_row(f"eval{flag}-no-queries", f"{_EVAL} {flag} {value} --metrics m.csv", 1,
           f"error: {flag} requires --queries")
      for flag, value in [("--query-labels", "ql.txt"), ("--recall-k", "3")]],
    _row("eval-misaligned", "eval --features f.mat --labels l2.txt --metrics m.csv", 1,
         "error: features and labels disagree on sample count"),
    # a label past int64 is bad input at its line, not a numeric failure
    *[_row(name, command, 1,
           "error: big.txt: line 1 is outside the 64-bit integer range: '99999999999999999999'")
      for name, command in [
          ("eval-big-label", "eval --features f.mat --labels big.txt --k 1 --metrics m.csv"),
          ("eval-big-query-label",
           f"{_EVAL} --queries f.mat --query-labels big.txt --metrics m.csv"),
      ]],
    _row("eval-past-header", "eval --features past.mat --labels l2.txt --metrics m.csv", 1,
         "error: past.mat: row 2 is past the 2 rows the header declares"),
    # finite features whose squared distances would overflow
    _row("eval-huge-features", "eval --features huge_cost.mat --labels l2.txt --metrics m.csv", 1,
         "error: features row 0 has squared norm inf, above the 2.2471164185778946e+307 that "
         "keeps k-means distances finite"),
    _row("eval-k-3", "eval --features dup.mat --labels l4dup.txt --metrics m.csv", 1,
         "error: k = 3 exceeds the 2 distinct rows of the 4 samples; k-means cannot fill that "
         "many clusters"),
    _row("eval-query-width", "eval --features f4x12.mat --labels l4.txt --queries q2x6.mat "
         "--query-labels l2.txt --k 2 --metrics m.csv", 1,
         "error: --queries has 6 columns but --features has 12; retrieval compares rows of one "
         "width"),
    # an all-zero row has no unit direction, which no cosine ranks, and an
    # overflowing norm is a numeric failure
    _row("eval-zero-query", "eval --features f4x3.mat --labels l4.txt --queries q_zero.mat "
         "--query-labels l2.txt --k 2 --metrics m.csv", 1,
         "error: cannot scale query row 1 to unit length: its norm is 0.0"),
    _row("eval-huge-query", "eval --features f4x3.mat --labels l4.txt --queries q_huge.mat "
         "--query-labels l2.txt --k 2 --metrics m.csv", 2,
         "error: cannot scale query row 1 to unit length: its norm is inf"),
    _row("eval-repeats-0", f"{_EVAL} --repeats 0 --metrics m.csv", 1,
         "error: --repeats must be at least 1, got 0"),
    *[_row(f"grid{flag[:-5]}-{name}", f"lambda-grid --config tiny.cfg {flag} {raw} --out grid.csv",
           1, f"error: {flag} {message}")
      for flag in ("--lambda1-list", "--lambda2-list")
      for name, (raw, message) in _BAD_LAMBDA_LISTS.items()],
    # an entry outside its solver field's bound is reported by the flag
    *[_row(f"grid{flag[:-5]}-{name}", f"lambda-grid --config tiny.cfg {flag} {raw} --out grid.csv",
           1, f"error: {flag} {message}")
      for flag, name, raw, message in [
          ("--lambda1-list", "0", "0", "must be positive, got 0.0"),
          ("--lambda1-list", "nan", "0.02,nan", "must be finite, got nan"),
          ("--lambda2-list", "neg", "-0.5", "must be nonnegative, got -0.5"),
      ]],
    *[_row(f"{command}-seeds-0", f"{command} --config tiny.cfg --seeds 0 --out rows.csv", 1,
           "error: --seeds must be at least 1, got 0") for command in ("ablate", "lambda-grid")],
    _row("ablate-jobs-x", "ablate --jobs x --out rows.csv", 1,
         "goca ablate: error: argument --jobs: invalid int value: 'x'"),
    *[_row(f"{command.split()[0]}-big-batch", f"{command} --config big_batch.cfg", 1,
           "config error: train.batch_size = 41 exceeds the 40 samples of "
           "data.num_classes x data.samples_per_class = 2 x 20")
      for command in ("ablate --seeds 2 --out rows.csv", "dump-config")],
    *[_row(f"dump-config-{name}", f"dump-config --config {name}.cfg", 1, f"config error: {message}")
      for name, message in [
          ("no_equals", "line 1: expected 'key = value', got 'train.epochs 3'"),
          ("class_scale", "data.class_scale must be positive, got 0.0"),
          ("repeats", "eval.repeats must be at least 1, got 0"),
          # the prior floor, the k-means restarts of a scoring repeat and the
          # end of the placement schedule are constants, not config keys
          ("prior_floor", "line 1: unknown key 'solver.prior_floor'"),
          ("kmeans_restarts", "line 1: unknown key 'eval.kmeans_restarts'"),
          ("final_lr", "line 1: unknown key 'proto.final_learning_rate'"),
      ]],
    _row("verify-seed", "verify --seed -1", 1, _SEED),
    _row("gen-data-seed", "gen-data --out data --seed -1", 1, _SEED),
    _row("train-seed", "train --out run --seed -1", 1, _SEED),
    # a negative offset to positive config seeds is rejected too
    _row("train-seed-offset", "train --config seeded.cfg --out run --seed -1", 1, _SEED),
    _row("protos-seed", "optimize-prototypes --n 4 --dim 3 --out w.mat --seed -1", 1, _SEED),
    _row("eval-seed", f"{_EVAL} --metrics m.csv --seed -1", 1, _SEED),
]


class TestErrors:
    """Each row runs ``main`` in a directory holding ``_ERROR_FILES`` and
    ``_ERROR_MATRICES`` and pins its exit code and stderr error line.  No
    row writes a file or prints to stdout, save the plan and report that
    ``--strict`` keeps, and a usage or config error (exit 1) comes before
    any data is drawn, any prototype placed or any oracle run."""

    @staticmethod
    def _tree(root):
        return {p.relative_to(root).as_posix(): p.read_bytes() if p.is_file() else None
                for p in sorted(root.rglob("*"))}

    @staticmethod
    def _write_inputs(root):
        for name, text in _ERROR_FILES.items():
            (root / name).write_text(text)
        for name, matrix in _ERROR_MATRICES.items():
            write_matrix(root / name, matrix)

    @pytest.mark.parametrize("argv, code, stderr", _ERROR_ROWS)
    def test_exit_code_and_stderr(self, tmp_path, monkeypatch, capsys, argv, code, stderr):
        import goca.cli as cli
        import goca.ssl_engine as engine
        import goca.verify as verify

        monkeypatch.chdir(tmp_path)
        self._write_inputs(tmp_path)
        before = self._tree(tmp_path)
        work = []
        for module, name in ((cli, "generate"), (engine, "optimize_prototypes"),
                             (verify, "oracle_battery")):
            monkeypatch.setattr(module, name, lambda *args, real=getattr(module, name), name=name:
                                work.append(name) or real(*args))
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert err.endswith(stderr + "\n"), err
        # argparse prints the command's usage above its error line
        assert err == stderr + "\n" or err.startswith("usage: goca"), err
        written = [path for path, data in self._tree(tmp_path).items() if before.get(path) != data]
        if "--strict" in argv:
            assert out.startswith("converged=False") and written == ["p.mat"]
        else:
            assert (out, written) == ("", [])
        assert work == [] or code != 1, work

    @pytest.mark.parametrize("argv, code, stderr", [
        row for row in _ERROR_ROWS if row.id in (
            "train-diverging", "train-tiny-lambda1", "eval-huge-query", "eval-huge-features",
            "solve-huge-cost", "solve-huge-cost-prior", "solve-huge-lambda2",
            "solve-huge-header")])
    def test_overflow_prints_only_the_error_line(self, tmp_path, argv, code, stderr):
        # a fresh interpreter keeps numpy's default warning filter, which would
        # print an overflow warning and its source line above the error line
        self._write_inputs(tmp_path)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env = {**os.environ, "PYTHONPATH": src}
        probe = "import sys; from goca.cli import main; sys.exit(main(sys.argv[1:]))"
        proc = subprocess.run([sys.executable, "-c", probe, *argv], cwd=tmp_path, env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, "", stderr + "\n")

    REFUSAL = ("Unable to allocate 3.64 TiB for an array with shape (5, 100000000001) and data "
               "type float64")

    @pytest.mark.parametrize("text, line", [(REFUSAL, REFUSAL), ("", "out of memory")],
                             ids=["numpy-text", "no-text"])
    def test_refused_allocation_prints_one_error_line(self, tmp_path, monkeypatch, capsys,
                                                      text, line):
        # a real refusal depends on the kernel's overcommit policy; the callee
        # stands in for numpy's _ArrayMemoryError, a MemoryError
        def refuse(*args):
            raise MemoryError(text)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr("goca.cli.optimize_prototypes", refuse)
        argv = "optimize-prototypes --n 3 --dim 2 --steps 100000000000 --out p.mat"
        assert main(shlex.split(argv)) == 1
        assert capsys.readouterr() == ("", f"error: {line}\n")
        assert list(tmp_path.iterdir()) == []

    def test_bad_recall_k_fails_before_any_k_means_run(self, tmp_path, monkeypatch, capsys):
        # without --repeats 1 a late check would wait for every k-means repeat
        monkeypatch.chdir(tmp_path)
        write_matrix(tmp_path / "f.mat", _ERROR_MATRICES["f.mat"])
        (tmp_path / "l.txt").write_text(_ERROR_FILES["l.txt"])
        monkeypatch.setattr("goca.cli.evalmod.repeated_cluster_metrics",
                            lambda *args: pytest.fail("k-means ran"))
        argv = f"{_EVAL} --queries f.mat --query-labels l.txt --recall-k 7 --metrics m.csv"
        assert main(shlex.split(argv)) == 1
        assert capsys.readouterr().err == "error: k must lie in [1, database size = 6], got 7\n"


class TestEveryFlagIsRead:
    """Walks ``build_parser()``: every optional flag, set alone, changes the
    command's output (exit code, stdout and the files it writes), or is a
    dependent flag that exits 1 naming what it requires, or is output-neutral.
    A flag added without a probe here fails the walk, so that none is
    dropped unread."""

    DEPENDENT = {"--lambda2", "--queries", "--query-labels", "--recall-k"}
    NEUTRAL = {"--jobs"}
    # each subcommand's required flags, plus what makes a probe cheap or
    # observable: short runs, and a capped solve that does not converge
    # (for --strict); paths are relative to a fresh directory per run
    BASE = {
        "gen-data": ["--config", "tiny.cfg", "--out", "data"],
        "optimize-prototypes": ["--n", "4", "--dim", "3", "--steps", "100", "--out", "w.mat"],
        "solve": ["--cost", "cost.mat", "--max-iters", "5", "--out", "plan.mat"],
        "train": ["--config", "tiny.cfg", "--out", "run"],
        "eval": ["--features", "f.mat", "--labels", "l.txt", "--metrics", "m.csv"],
        "lambda-grid": ["--config", "tiny.cfg", "--lambda1-list", "0.1", "--lambda2-list", "0.03",
                        "--out", "grid.csv"],
        "ablate": ["--config", "tiny.cfg", "--seeds", "1", "--out", "rows.csv"],
        "verify": [],
        "dump-config": ["--config", "tiny.cfg"],
    }
    # the value each flag is set to; a flag already in BASE takes it in place
    # of its base value, and a switch (None) is added bare
    PROBE = {
        "--config": "other.cfg", "--seed": "1", "--mode": "sview",
        "--steps": "50", "--lr": "0.5", "--restarts": "1", "--report": None,
        "--prior": "prior.mat", "--lambda1": "0.1", "--lambda2": "0.5", "--tolerance": "1.0",
        "--max-iters": "50", "--strict": None,
        "--queries": "f.mat", "--query-labels": "l.txt", "--recall-k": "2", "--k": "3",
        "--repeats": "2",
        "--lambda1-list": "0.2", "--lambda2-list": "0.0", "--seeds": "2",
    }

    @staticmethod
    def _optional_flags():
        parser = build_parser()
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        for command, subparser in sub.choices.items():
            for action in subparser._actions:
                if action.option_strings and action.dest != "help" and not action.required:
                    yield command, action.option_strings[0]

    @staticmethod
    def _run(run_dir, argv, monkeypatch, capsys):
        rng = np.random.default_rng(0)
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        (run_dir / "tiny.cfg").write_text(TINY_CONFIG)
        (run_dir / "other.cfg").write_text(TINY_CONFIG + "data.seed = 1\n")
        write_matrix(run_dir / "cost.mat", rng.uniform(-1, 1, size=(3, 4)))
        write_matrix(run_dir / "prior.mat", rng.uniform(0.1, 1.0, size=(3, 4)))
        write_matrix(run_dir / "f.mat", rng.standard_normal((24, 2)))
        (run_dir / "l.txt").write_text("0\n1\n" * 12)
        capsys.readouterr()
        code = main(argv)
        out, err = capsys.readouterr()
        files = {p.relative_to(run_dir).as_posix(): p.read_bytes()
                 for p in sorted(run_dir.rglob("*")) if p.is_file()}
        return (code, out, files), err

    def test_every_optional_flag_changes_the_output_or_is_listed(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setattr("goca.verify.oracle_battery", lambda seed: [(f"seed {seed}", True, "")])
        base = {}
        walked = set()
        for i, (command, flag) in enumerate(self._optional_flags()):
            walked.add(flag)
            if flag in self.NEUTRAL:
                continue
            assert flag in self.PROBE, f"{command} {flag} has no probe"
            if command not in base:
                argv = [command, *self.BASE[command]]
                base[command], _ = self._run(tmp_path / command, argv, monkeypatch, capsys)
                assert base[command][0] == 0, command
            args = list(self.BASE[command])
            value = self.PROBE[flag]
            if flag in args:
                args[args.index(flag) + 1] = value
            else:
                args += [flag] if value is None else [flag, value]
            run_dir = tmp_path / f"probe{i}"
            output, err = self._run(run_dir, [command, *args], monkeypatch, capsys)
            if flag in self.DEPENDENT:
                assert output[0] == 1 and "requires" in err, f"{command} {flag}"
            else:
                assert output != base[command], f"{command} {flag} left the output unchanged"
        assert walked == set(self.PROBE) | self.NEUTRAL
