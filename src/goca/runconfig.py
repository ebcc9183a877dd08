"""Key = value run configuration shared by the command-line tools.

A config file holds ``section.field = value`` lines; blank lines and
``#`` comments are ignored.  Unknown or duplicate keys are errors, and
values are validated by the owning config dataclasses at load time;
``RunConfig`` checks the one rule that spans two sections, the batch
size against the data set size.  It composes the per-module configs,
each the only copy of its defaults; missing keys take those defaults,
which double as the locked synthetic benchmark.  Dumping writes every
key in canonical order, so a dumped config reloads and re-dumps
byte-identically.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field, fields

from .eval import EvalConfig
from .ot_core import SolverConfig
from .prototypes import ProtoOptConfig
from .ssl_engine import TrainConfig
from .synth_data import SynthConfig

__all__ = [
    "ConfigError",
    "EvalConfig",
    "RunConfig",
    "parse_config",
    "dump_config",
    "load_config",
]


class ConfigError(ValueError):
    """Malformed key, unknown key, or invalid value in a run config."""


@dataclass(frozen=True)
class RunConfig:
    """Defaults double as the locked synthetic benchmark configuration."""

    data: SynthConfig = field(default_factory=SynthConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    eval: EvalConfig = field(default_factory=EvalConfig)

    def __post_init__(self):
        samples = self.data.num_classes * self.data.samples_per_class
        if self.train.batch_size > samples:
            raise ConfigError(
                f"train.batch_size = {self.train.batch_size} exceeds the {samples} samples of "
                f"data.num_classes x data.samples_per_class = "
                f"{self.data.num_classes} x {self.data.samples_per_class}"
            )

    @property
    def proto(self) -> ProtoOptConfig:
        return self.train.proto

    @property
    def solver(self) -> SolverConfig:
        return self.train.solver


# Scalar fields only; TrainConfig's nested solver/proto are read and
# written through their own sections.
_SECTIONS: dict[str, type] = {
    "data": SynthConfig,
    "proto": ProtoOptConfig,
    "solver": SolverConfig,
    "train": TrainConfig,
    "eval": EvalConfig,
}


def _scalar_fields(cls) -> list[dataclasses.Field]:
    return [f for f in fields(cls) if f.type in ("int", "float", "str")]


def _parse_value(raw: str, type_name: str, key: str):
    raw = raw.strip()
    try:
        if type_name == "int":
            return int(raw)
        if type_name == "float":
            return float(raw)
        return raw
    except ValueError:
        raise ConfigError(f"invalid {type_name} value {raw!r} for key {key!r}") from None


def _format_value(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def parse_config(text: str) -> RunConfig:
    """Parse config text; unknown keys and invalid values raise ConfigError."""
    values: dict[str, dict[str, object]] = {name: {} for name in _SECTIONS}
    known = {
        f"{section}.{f.name}": (section, f)
        for section, cls in _SECTIONS.items()
        for f in _scalar_fields(cls)
    }
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        seen.add(key)
        section, f = known[key]
        values[section][f.name] = _parse_value(raw, f.type, key)

    base = RunConfig()
    try:
        data = dataclasses.replace(base.data, **values["data"])
        proto = dataclasses.replace(base.proto, **values["proto"])
        solver = dataclasses.replace(base.solver, **values["solver"])
        train = dataclasses.replace(base.train, **values["train"], solver=solver, proto=proto)
        eval_cfg = dataclasses.replace(base.eval, **values["eval"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return RunConfig(data=data, train=train, eval=eval_cfg)


def dump_config(cfg: RunConfig) -> str:
    """Canonical text form: every key, section by section, field order."""
    lines = []
    for section in _SECTIONS:
        obj = getattr(cfg, section)
        for f in _scalar_fields(type(obj)):
            lines.append(f"{section}.{f.name} = {_format_value(getattr(obj, f.name))}")
    return "\n".join(lines) + "\n"


def load_config(path) -> RunConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read())
