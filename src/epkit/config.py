"""Configuration schema for the CLI and the end-to-end pipeline.

A config file is a single JSON document; each section maps onto one
dataclass, whose field defaults are the config defaults: "rpca" onto
RpcaConfig, "gfl" onto GflConfig, "flow" onto FlowConfig, "fusion" onto
FusionConfig. "episode_rules" is null (the built-in table), a path to a
rule-table file or an inline table, and "downscale_limit" the longest-side
pixel limit for frames. The JSON key "lambda" maps to the attribute `lam`.
`load_config` builds and range-checks every section once, fusion too without
a wheel region, so a bad setting fails before any stage runs; a setting's
default, or for a None default its field's metadata["number_rule"], also
fixes its type (fusion.check_number), and its field's metadata bounds
("min", "above", "max", "below") fix its range (fusion.check_ranges).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

from .fileio import ConfigError, InputFormatError, read_json
from .fusion import DEFAULT_EPISODE_RULES, EpisodeRuleTable, FusionConfig, check_number, check_ranges
from .gflasso import GflConfig
from .optflow import FlowConfig
from .rpca import RpcaConfig

SECTIONS = {"rpca": RpcaConfig, "gfl": GflConfig, "flow": FlowConfig, "fusion": FusionConfig}


@dataclass(frozen=True)
class Config:
    """Every setting of one run, each section built and checked once.

    fuse and pipeline refuse to run without fusion.wheel_region
    (require_fusion); the other subcommands do not read it.
    """

    downscale_limit: int = field(default=80, metadata={"min": 1})
    rpca: RpcaConfig = field(default_factory=RpcaConfig)
    gfl: GflConfig = field(default_factory=GflConfig)
    flow: FlowConfig = field(default_factory=FlowConfig)
    fusion: FusionConfig = field(default_factory=FusionConfig)
    episode_rules: EpisodeRuleTable = DEFAULT_EPISODE_RULES

    def __post_init__(self):
        check_ranges(self, ConfigError)

    def require_fusion(self) -> None:
        if self.fusion.wheel_region is None:
            raise ConfigError("fusion.wheel_region is required (box [x0,y0,x1,y1] or polygon)")


def load_config(path: str | None = None, overrides: dict | None = None) -> Config:
    """Build the config from a JSON file (None: defaults) with *overrides* merged over it.

    *overrides* has the file's shape; a section in it replaces only the keys
    it names. Raises ConfigError naming the first bad or unknown setting.
    """
    data = {} if path is None else _read(path)
    for key, value in (overrides or {}).items():
        data[key] = {**_section(data, key), **value} if key in SECTIONS else value
    kwargs = {}
    for key, value in data.items():
        if key in SECTIONS:
            value = _build(SECTIONS[key], key, _section(data, key))
        elif key == "episode_rules":
            value = _episode_rules(value)
        elif key == "downscale_limit":
            check_number(key, value, Config.downscale_limit, ConfigError)
        else:
            raise ConfigError(f"unknown config key {key!r}")
        kwargs[key] = value
    return Config(**kwargs)


def rpca_config(cfg: Config) -> RpcaConfig:
    """The rpca section; perfbench's recovery workload reads it through this name."""
    return cfg.rpca


def _read(path: str) -> dict:
    try:
        data = read_json(path)
    except InputFormatError as exc:  # missing, unreadable or not JSON
        raise ConfigError(f"bad config file {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return data


def _section(data: dict, key: str) -> dict:
    section = data.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config key {key!r} must hold an object")
    return section


def _build(cls, key: str, section: dict):
    fields = {("lambda" if f.name == "lam" else f.name): f for f in dataclasses.fields(cls)}
    for name, value in section.items():
        if name not in fields:
            raise ConfigError(f"unknown config key {key}.{name!r}")
        default = fields[name].default
        rule = default if value is None else fields[name].metadata.get("number_rule", default)
        check_number(f"{key}.{name}", value, rule, ConfigError)
    try:
        return cls(**{fields[name].name: value for name, value in section.items()})
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{key}.{exc}") from None


def _episode_rules(rules) -> EpisodeRuleTable:
    if rules is None:
        return DEFAULT_EPISODE_RULES
    where = "inline episode rule table"
    try:
        if isinstance(rules, str):
            where = f"episode rule table {rules}"
            rules = read_json(rules)
        return EpisodeRuleTable.from_dict(rules)
    except (InputFormatError, KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from None
