"""Run-config parsing, validation and canonical round trips."""

import re

import pytest

from goca.runconfig import ConfigError, RunConfig, dump_config, parse_config

_DEFAULTS = RunConfig()


def _read(cfg: RunConfig, key: str):
    section, name = key.split(".")
    return getattr(getattr(cfg, section), name)


_KEYS = [line.split(" = ")[0] for line in dump_config(_DEFAULTS).splitlines()]
_NUMERIC_KEYS = [key for key in _KEYS if not isinstance(_read(_DEFAULTS, key), str)]
_FLOAT_KEYS = [key for key in _KEYS if isinstance(_read(_DEFAULTS, key), float)]

# (key, last accepted value, first rejected value, the rejection's message);
# 5e-324 is the smallest positive float.  A key may have a row per boundary.
_BOUNDS = [
    ("data.num_classes", "2", "1", "data.num_classes must be at least 2, got 1"),
    ("data.num_classes", "6", "7", "data.num_classes must be at most signal_dim = 6, got 7"),
    ("data.samples_per_class", "1", "0", "data.samples_per_class must be at least 1, got 0"),
    ("data.signal_dim", "4", "3", "data.num_classes must be at most signal_dim = 3, got 4"),
    ("data.signal_dim", "4", "0", "data.signal_dim must be at least 1, got 0"),
    ("data.distractor_dim", "1", "0", "data.distractor_dim must be at least 1, got 0"),
    ("data.num_distractor_modes", "1", "0",
     "data.num_distractor_modes must be at least 1, got 0"),
    ("data.distractor_strength", "0.0", "-1.0",
     "data.distractor_strength must be nonnegative, got -1.0"),
    ("data.view_a_noise", "0.0", "-0.1", "data.view_a_noise must be nonnegative, got -0.1"),
    ("data.view_b_noise", "0.0", "-0.1", "data.view_b_noise must be nonnegative, got -0.1"),
    ("data.class_scale", "5e-324", "0.0", "data.class_scale must be positive, got 0.0"),
    ("data.seed", "0", "-1", "data.seed must be nonnegative, got -1"),
    ("proto.steps", "1", "0", "proto.steps must be at least 1, got 0"),
    ("proto.learning_rate", "5e-324", "0.0", "proto.learning_rate must be positive, got 0.0"),
    ("proto.restarts", "1", "0", "proto.restarts must be at least 1, got 0"),
    ("proto.seed", "0", "-1", "proto.seed must be nonnegative, got -1"),
    ("solver.lambda1", "5e-324", "0.0", "solver.lambda1 must be positive, got 0.0"),
    ("solver.lambda1", "5e-324", "-0.5", "solver.lambda1 must be positive, got -0.5"),
    ("solver.lambda2", "0.0", "-5e-324", "solver.lambda2 must be nonnegative, got -5e-324"),
    ("solver.max_iters", "1", "0", "solver.max_iters must be at least 1, got 0"),
    ("solver.tolerance", "5e-324", "0.0", "solver.tolerance must be positive, got 0.0"),
    # at the default batch of 100, a training plan's rows each hold 0.01
    ("solver.tolerance", "0.009999999999999998", "0.01",
     "solver.tolerance = 0.01 is not below the row mass 1 / train.batch_size = 1 / 100 of a "
     "training plan"),
    ("train.mode", "goca", "fancy",
     "train.mode must be one of ('sview', 'avg', 'sep', 'goca'), got 'fancy'"),
    ("train.epochs", "0", "-1", "train.epochs must be nonnegative, got -1"),
    ("train.batch_size", "2", "1", "train.batch_size must be at least 2, got 1"),
    ("train.batch_size", "800", "801",
     "train.batch_size = 801 exceeds the 800 samples of "
     "data.num_classes x data.samples_per_class = 4 x 200"),
    ("train.temperature", "5e-324", "0.0", "train.temperature must be positive, got 0.0"),
    ("train.learning_rate", "5e-324", "0.0", "train.learning_rate must be positive, got 0.0"),
    ("train.learning_rate", "5e-324", "-0.1", "train.learning_rate must be positive, got -0.1"),
    ("train.hidden_dim", "1", "0", "train.hidden_dim must be at least 1, got 0"),
    ("train.feature_dim", "2", "1", "train.feature_dim must be at least 2, got 1"),
    ("train.feature_dim", "2", "0", "train.feature_dim must be at least 2, got 0"),
    ("train.num_prototypes", "2", "1", "train.num_prototypes must be at least 2, got 1"),
    ("train.aug_noise", "0.0", "-1.0", "train.aug_noise must be nonnegative, got -1.0"),
    ("train.aug_dropout", "0.0", "-0.1", "train.aug_dropout must lie in [0, 1), got -0.1"),
    ("train.aug_dropout", "0.9999999999999999", "1.0",
     "train.aug_dropout must lie in [0, 1), got 1.0"),
    ("train.seed", "0", "-1", "train.seed must be nonnegative, got -1"),
    ("eval.repeats", "1", "0", "eval.repeats must be at least 1, got 0"),
    ("eval.seed", "0", "-1", "eval.seed must be nonnegative, got -1"),
]
_EACH_BOUND = pytest.mark.parametrize(
    "key, accepted, rejected, message", _BOUNDS, ids=[f"{row[0]}={row[2]}" for row in _BOUNDS]
)
# settings fixed in the code as constants accept no value: the values their
# bounds used to reject now fail as unknown keys
_FIXED = [
    ("eval.kmeans_restarts", None, "0", "line 1: unknown key 'eval.kmeans_restarts'"),
    ("proto.final_learning_rate", None, "-1e-3",
     "line 1: unknown key 'proto.final_learning_rate'"),
]
_EACH_REJECTION = pytest.mark.parametrize(
    "key, accepted, rejected, message", _BOUNDS + _FIXED,
    ids=[f"{row[0]}={row[2]}" for row in _BOUNDS + _FIXED],
)
# lines a row needs besides its own: one sample per class takes a batch of 4
_CONTEXT = {"data.samples_per_class": "train.batch_size = 4\n"}


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

    # fixed settings live in the code as constants, so naming one is an error
    @pytest.mark.parametrize("key, value", [
        ("eval.kmeans_restarts", "1"),
        ("proto.final_learning_rate", "0.001"),
    ])
    def test_fixed_setting_is_an_unknown_key(self, key, value):
        with pytest.raises(ConfigError, match=f"^line 1: unknown key {re.escape(repr(key))}$"):
            parse_config(f"{key} = {value}\n")

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


class TestBounds:
    @_EACH_BOUND
    def test_accepts_and_rejects(self, key, accepted, rejected, message):
        context = _CONTEXT.get(key, "")
        cfg = parse_config(f"{context}{key} = {accepted}\n")
        assert _read(cfg, key) == type(_read(_DEFAULTS, key))(accepted)
        with pytest.raises(ConfigError):
            parse_config(f"{context}{key} = {rejected}\n")

    @_EACH_REJECTION
    def test_rejection_message(self, key, accepted, rejected, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"{_CONTEXT.get(key, '')}{key} = {rejected}\n")

    @pytest.mark.parametrize("key", _FLOAT_KEYS)
    def test_non_finite_rejected(self, key):
        for value in ("nan", "inf", "-inf"):
            with pytest.raises(ConfigError, match=f"^{re.escape(key)} must be finite, got {value}$"):
                parse_config(f"{key} = {value}\n")

    def test_every_numeric_key_has_a_row(self):
        assert sorted(set(_NUMERIC_KEYS) - {row[0] for row in _BOUNDS}) == []
