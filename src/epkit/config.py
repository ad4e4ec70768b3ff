"""Configuration schema for the CLI and the end-to-end pipeline.

A config file is a single JSON document with per-subcommand sections; any
value can be omitted and falls back to the defaults below. Flags mirror the
keys. The JSON key "lambda" maps to the dataclass attribute `lam`.
"""

from __future__ import annotations

import copy
import os

from .fileio import ConfigError, read_json
from .fusion import DEFAULT_EPISODE_RULES, EpisodeRuleTable, FusionConfig
from .gflasso import GflConfig
from .optflow import FlowConfig
from .rpca import RpcaConfig

DEFAULTS: dict = {
    "downscale_limit": 80,
    "rpca": {
        "lambda": None,
        "tolerance": 1e-7,
        "max_iterations": 1000,
        "penalty_growth": 1.5,
        "penalty_cap": None,
        "warn_factor": 2.0,
    },
    "gfl": {
        "lambda": 3.0,  # tuned for standardized pose rows; see README
        "order": 1,
        "admm_penalty": 1.0,
        "tolerance": 1e-7,
        "max_iterations": 5000,
        "threshold": None,  # None: 0.1 * max strength
        "threshold_fraction": 0.1,
        "min_gap": 5,
    },
    "flow": {
        "window": 9,
        "eigen_floor": None,
        "max_refinements": 20,
        "step_tol": 0.01,
        "fb_max_error": 0.5,
        "canonical_size": 64,
        "max_features": 32,
        "feature_quality": 0.05,
        "gap_max": 2,
        "group_threshold": 0.5,
        "merge_threshold": 0.9,
    },
    "fusion": {
        "wheel_region": None,
        "pose_score_min": 0.5,
        "hand_score_min": 0.5,
        "hand_score_strict": 0.8,
        "wrist_edge_dist_max": 0.05,
        "wrist_edge_dist_strict": 0.02,
        "elbow_angle_max_deg": 45.0,
        "frame_rate": 10.0,
        "consistency_frames": None,
    },
    "episode_rules": None,  # None: built-in table; or a path; or an inline table dict
}


def _merge(base: dict, override: dict, where: str) -> dict:
    out = copy.deepcopy(base)
    for key, value in override.items():
        if key not in out:
            raise ConfigError(f"unknown config key {where}{key!r}")
        if isinstance(out[key], dict):
            if not isinstance(value, dict):
                raise ConfigError(f"config key {where}{key!r} must hold an object")
            out[key] = _merge(out[key], value, where=f"{where}{key}.")
        else:
            out[key] = value
    return out


def load_config(path: str | None) -> dict:
    """Read and validate a JSON config file merged over the defaults."""
    if path is None:
        return copy.deepcopy(DEFAULTS)
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    try:
        data = read_json(path)
    except Exception as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    merged = _merge(DEFAULTS, data, where="")
    # build every section once so a bad setting fails here, not after the earlier stages ran
    rpca_config(merged)
    gfl_config(merged)
    flow_config(merged)
    if merged["fusion"]["wheel_region"] is not None:
        fusion_config(merged)
    episode_rules(merged)
    return merged


def _build(cls, section: dict, rename: dict, drop: tuple = ()):
    kwargs = {}
    for key, value in section.items():
        if key in drop:
            continue
        kwargs[rename.get(key, key)] = value
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {cls.__name__} settings: {exc}") from None


def rpca_config(cfg: dict) -> RpcaConfig:
    return _build(RpcaConfig, cfg["rpca"], {"lambda": "lam"}, drop=("warn_factor",))


def gfl_config(cfg: dict) -> GflConfig:
    return _build(
        GflConfig,
        cfg["gfl"],
        {"lambda": "lam"},
        drop=("threshold", "threshold_fraction", "min_gap"),
    )


def flow_config(cfg: dict) -> FlowConfig:
    return _build(
        FlowConfig, cfg["flow"], {}, drop=("group_threshold", "merge_threshold")
    )


def fusion_config(cfg: dict) -> FusionConfig:
    section = cfg["fusion"]
    if section.get("wheel_region") is None:
        raise ConfigError("fusion.wheel_region is required (box [x0,y0,x1,y1] or polygon)")
    return _build(FusionConfig, section, {})


def episode_rules(cfg: dict) -> EpisodeRuleTable:
    rules = cfg.get("episode_rules")
    if rules is None:
        return DEFAULT_EPISODE_RULES
    if isinstance(rules, str):
        try:
            return EpisodeRuleTable.from_dict(read_json(rules))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"bad episode rule table {rules}: {exc}") from None
    try:
        return EpisodeRuleTable.from_dict(rules)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad inline episode rule table: {exc}") from None
