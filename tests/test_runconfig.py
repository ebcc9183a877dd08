"""Run-config parsing, validation and canonical round trips."""

import re

import pytest

from goca.runconfig import ConfigError, RunConfig, dump_config, parse_config


class TestParse:
    def test_empty_text_gives_defaults(self):
        cfg = parse_config("")
        assert cfg == RunConfig()

    def test_partial_override(self):
        cfg = parse_config("train.mode = sep\nsolver.lambda2 = 0.0\n")
        assert cfg.train.mode == "sep"
        assert cfg.solver.lambda2 == 0.0
        assert cfg.train.solver.lambda2 == 0.0
        assert cfg.data == RunConfig().data

    def test_comments_and_blanks_ignored(self):
        text = "# a comment\n\ntrain.epochs = 3  # trailing\n"
        assert parse_config(text).train.epochs == 3

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("train.bogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("train.epochs = 1\ntrain.epochs = 2\n")

    @pytest.mark.parametrize("text, message", [
        ("train.epochs 3\n", "line 1: expected 'key = value', got 'train.epochs 3'"),
        ("# header\n\nsolver.lambda1\n", "line 3: expected 'key = value', got 'solver.lambda1'"),
    ])
    def test_line_without_equals_rejected_naming_the_line(self, text, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(text)

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError, match="invalid int"):
            parse_config("train.epochs = soon\n")

    def test_invariant_violation_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("solver.lambda1 = -0.5\n")
        with pytest.raises(ConfigError):
            parse_config("train.mode = fancy\n")

    @pytest.mark.parametrize("line, message", [
        ("train.temperature = nan", "temperature must be finite"),
        ("train.learning_rate = inf", "learning_rate must be finite"),
        ("train.aug_noise = -inf", "aug_noise must be finite"),
        ("solver.tolerance = nan", "tolerance must be finite"),
        ("solver.lambda2 = inf", "lambda2 must be finite"),
        ("train.hidden_dim = 0", "hidden_dim must be at least 1"),
    ])
    def test_non_finite_float_or_zero_hidden_dim_rejected(self, line, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(line + "\n")

    @pytest.mark.parametrize("section", ["data", "proto", "train", "eval"])
    def test_negative_seed_rejected_naming_seed(self, section):
        with pytest.raises(ConfigError, match="^seed must be nonnegative, got -1$"):
            parse_config(f"{section}.seed = -1\n")

    def test_solver_and_proto_read_through_train(self):
        cfg = parse_config("proto.seed = 4\nsolver.lambda1 = 0.05\n")
        assert cfg.proto is cfg.train.proto and cfg.proto.seed == 4
        assert cfg.solver is cfg.train.solver and cfg.solver.lambda1 == 0.05


class TestRoundTrip:
    def test_dump_parse_dump_is_byte_identical(self):
        text = dump_config(RunConfig())
        assert dump_config(parse_config(text)) == text

    def test_dump_covers_every_documented_key(self):
        text = dump_config(RunConfig())
        for key in (
            "data.num_classes",
            "data.distractor_strength",
            "proto.steps",
            "solver.lambda1",
            "solver.prior_floor",
            "train.mode",
            "train.temperature",
            "eval.repeats",
        ):
            assert f"{key} = " in text

    def test_round_trip_of_modified_config(self):
        text = dump_config(RunConfig())
        modified = text.replace("train.epochs = 15", "train.epochs = 2")
        cfg = parse_config(modified)
        assert cfg.train.epochs == 2
        assert dump_config(parse_config(dump_config(cfg))) == dump_config(cfg)

    def test_shipped_lambda_defaults(self):
        cfg = RunConfig()
        assert cfg.solver.lambda1 == 0.02
        assert cfg.solver.lambda2 == 0.03
        assert cfg.train.solver.lambda1 == 0.02
