"""Single-file YAML configuration with schema validation.

One document drives fitting, training, and evaluation. Every section maps
onto a frozen dataclass; unknown keys and wrong types are rejected with the
offending path in the message. Defaults mirror the built-in constants.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import yaml

from .harness import ConfigError, ExperimentSpec
from .policy import LEARNED_STRATEGIES, MIN_ISSUE_S, PolicyConfig, baseline_policy
from .ppo import RewardWeights, TrainConfig
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
    sim: SimConfig = field(default_factory=SimConfig)
    policy: PolicyConfig = field(default_factory=PolicyConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    fit: FitConfig = field(default_factory=FitConfig)
    paths: PathsConfig = field(default_factory=PathsConfig)
    strategies: tuple[str, ...] = ("deload", "deload_1s", "naive_1s")
    seed: int = 0
    jobs: int = 1


_SECTION_TYPES = {
    "sim": SimConfig,
    "policy": PolicyConfig,
    "train": TrainConfig,
    "fit": FitConfig,
    "paths": PathsConfig,
    "reward": RewardWeights,
}


def _coerce(value, target_type, where: str):
    origin = getattr(target_type, "__origin__", None)
    if target_type is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
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
        args = target_type.__args__
        elem = args[0]
        return tuple(_coerce(v, elem, f"{where}[{i}]") for i, v in enumerate(value))
    # Fallback: accept as-is (e.g. nested dataclasses are handled separately).
    return value


def _build(cls, mapping: dict, where: str):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{where}: expected a mapping")
    known = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(mapping) - set(known)
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}")
    kwargs = {}
    hints = _resolved_hints(cls)
    for name, value in mapping.items():
        f = known[name]
        if dataclasses.is_dataclass(hints[name]):
            kwargs[name] = _build(hints[name], value, f"{where}.{name}")
        else:
            kwargs[name] = _coerce(value, hints[name], f"{where}.{name}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{where}: {err}")


_HINT_CACHE: dict = {}


def _resolved_hints(cls):
    if cls not in _HINT_CACHE:
        import typing

        _HINT_CACHE[cls] = typing.get_type_hints(cls)
    return _HINT_CACHE[cls]


def load_config(path) -> AppConfig:
    """Parse and validate a YAML config file into an AppConfig."""
    try:
        with open(path) as fh:
            doc = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}")
    except yaml.YAMLError as err:
        raise ConfigError(f"{path}: invalid YAML: {err}")
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a mapping")

    known_top = set(_SECTION_TYPES) | {"strategies", "seed", "jobs"}
    unknown = set(doc) - known_top
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {sorted(unknown)}")

    sections = {}
    for name, cls in _SECTION_TYPES.items():
        if name in doc:
            sections[name] = _build(cls, doc[name], name)
    sim = sections.get("sim", SimConfig())
    if "reward" in sections:
        sim = dataclasses.replace(sim, reward=sections["reward"])

    strategies = _coerce(doc.get("strategies", AppConfig.strategies), tuple[str, ...], "strategies")
    if not strategies:
        raise ConfigError("strategies: expected a non-empty list")
    for s in strategies:
        if s not in LEARNED_STRATEGIES:  # these need a checkpoint to build
            try:
                baseline_policy(s)
            except ValueError as err:
                raise ConfigError(f"strategies: {err}")

    cfg = AppConfig(
        sim=sim,
        policy=sections.get("policy", PolicyConfig()),
        train=sections.get("train", TrainConfig()),
        fit=sections.get("fit", FitConfig()),
        paths=sections.get("paths", PathsConfig()),
        strategies=strategies,
        seed=_coerce(doc.get("seed", 0), int, "seed"),
        jobs=_coerce(doc.get("jobs", 1), int, "jobs"),
    )
    if cfg.jobs < 1:
        raise ConfigError(f"jobs: expected at least 1, got {cfg.jobs}")
    check_issue_floor(cfg, strategies)
    return _resolve_paths(cfg, Path(path).parent)


def check_issue_floor(cfg: AppConfig, strategies: tuple[str, ...]) -> None:
    """Reject a `sim.b_max_s` at or below a demand-selecting strategy's floor.

    Demand selection only picks a video with room for a task of at least
    `MIN_ISSUE_S` (`deload_<seconds>s`) or `policy.range_min_s` (learned
    strategies) below B_max; at or below that floor a session never
    downloads and stalls until `max_session_s`. `harness.build_strategies`
    checks each loaded checkpoint's own `range_min_s` as well.
    """
    for name in strategies:
        if name in LEARNED_STRATEGIES:
            floor, what = cfg.policy.range_min_s, "policy.range_min_s"
        elif name != "naive_1s":
            floor, what = MIN_ISSUE_S, "the fixed-range issue floor"
        else:
            continue
        if cfg.sim.b_max_s <= floor:
            raise ConfigError(
                f"sim.b_max_s: {cfg.sim.b_max_s} is not above {what} ({floor}); "
                f"strategy {name!r} would never download"
            )


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
