"""Single-file YAML configuration with schema validation.

One document drives fitting, training, and evaluation. Every section maps
onto a frozen dataclass; unknown keys and wrong types are rejected with the
offending path in the message. Defaults mirror the built-in constants.
"""

from __future__ import annotations

import dataclasses
import functools
import re
import typing
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .harness import ConfigError, ExperimentSpec
from .policy import LEARNED_STRATEGIES, PolicyConfig, baseline_policy
from .ppo import TrainConfig
from .sim import SimConfig
from .watchtime import FitConfig


@dataclass(frozen=True)
class PathsConfig:
    """Input/output locations; relative paths resolve against the config file."""

    traces_glob: str = ""
    videos: str = ""
    retention: str = ""
    watch_records: str = ""
    param_table: str = ""
    checkpoint: str = ""
    no_wte_checkpoint: str = ""


@dataclass(frozen=True)
class AppConfig:
    """The whole config file: each field a top-level key, each dataclass
    field a section of its own fields."""

    sim: SimConfig = field(default_factory=SimConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    strategies: tuple[str, ...] = ("deload", "deload_1s", "naive_1s")
    seed: int = 0
    jobs: int = 1

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be at least 1, got {self.jobs}")
        if not self.strategies:
            raise ValueError("strategies must be a non-empty list")
        for s in self.strategies:
            if s not in LEARNED_STRATEGIES:  # these need a checkpoint to build
                try:
                    baseline_policy(s)
                except ValueError as err:
                    raise ValueError(f"strategies: {err}") from None


def _coerce(value, target_type, where: str):
    origin = getattr(target_type, "__origin__", None)
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        if value != value:
            raise ConfigError(f"{where}: expected a number, got NaN")
        return float(value)
    if target_type is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return int(value)
    if target_type is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected a boolean, got {value!r}")
        return value
    if target_type is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        elem = target_type.__args__[0]
        return tuple(_coerce(v, elem, f"{where}[{i}]") for i, v in enumerate(value))
    raise TypeError(f"{where}: no config coercion for {target_type!r}")


def _build(cls, mapping, where: str = ""):
    """`cls` from a YAML mapping of some of its fields, each coerced to its
    type hint and a dataclass-typed one built from its own mapping; the
    rest keep their defaults. `where` is the mapping's dotted key, empty at
    the top level, and prefixes every error."""
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where or 'top level'}: expected a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(mapping) - set(known)
    if unknown:
        raise ConfigError(f"{where or 'top level'}: unknown keys {sorted(unknown)}")
    hints = _resolved_hints(cls)
    kwargs = {}
    for name, value in mapping.items():
        key = f"{where}.{name}" if where else name
        if "not_in_config" in known[name].metadata:
            raise ConfigError(f"{key}: not a config key; {known[name].metadata['not_in_config']}")
        hint = hints[name]
        kwargs[name] = _build(hint, value, key) if dataclasses.is_dataclass(hint) else _coerce(value, hint, key)
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}" if where else str(err))


@functools.cache
def _resolved_hints(cls) -> dict:
    return typing.get_type_hints(cls)


class _ConfigLoader(getattr(yaml, "CSafeLoader", yaml.SafeLoader)):
    """`safe_load`'s loader, libyaml's where PyYAML has it (a tenth of the
    time), that also reads YAML 1.2 floats such as `3e-4` and `1.2e6`."""


_ConfigLoader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
)


def load_config(path) -> AppConfig:
    """Parse and validate a YAML config file into an AppConfig."""
    try:
        with open(path) as fh:
            doc = yaml.load(fh, Loader=_ConfigLoader)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid YAML: {err}")
    return _resolve_paths(_build(AppConfig, {} if doc is None else doc), Path(path).parent)


def _resolve_paths(cfg: AppConfig, base: Path) -> AppConfig:
    def resolve(p: str) -> str:
        if not p:
            return p
        q = Path(p)
        return str(q if q.is_absolute() else base / q)

    paths = {f.name: resolve(getattr(cfg.paths, f.name)) for f in dataclasses.fields(PathsConfig)}
    return dataclasses.replace(cfg, paths=PathsConfig(**paths))


def experiment_spec(cfg: AppConfig, seed: int | None = None, jobs: int | None = None) -> ExperimentSpec:
    """Assemble the evaluation spec from a loaded config, with overrides."""
    p = cfg.paths
    if not p.traces_glob:
        raise ConfigError("paths.traces_glob is required")
    if not p.videos:
        raise ConfigError("paths.videos is required")
    if not p.retention:
        raise ConfigError("paths.retention is required")
    return ExperimentSpec(
        strategies=cfg.strategies,
        traces_glob=p.traces_glob,
        videos_path=p.videos,
        retention_path=p.retention,
        param_table_path=p.param_table or None,
        checkpoint_path=p.checkpoint or None,
        no_wte_checkpoint_path=p.no_wte_checkpoint or None,
        sim=cfg.sim,
        seed=cfg.seed if seed is None else seed,
        jobs=cfg.jobs if jobs is None else jobs,
    )
