"""Experiment configuration: YAML schema, strict validation, stable hashing.

A config file fully determines a run: device, pulse-shaping kernel, noise,
environment, agent, and budgets. Parsing merges user values over defaults
(for env, noise and agent: the fields of EnvConfig, NoiseConfig, SacConfig),
rejects unknown keys, values unlike their default's type (an int may stand
for a float) and counts below their least value, and produces both
constructed objects (the env config, which holds the device model the
device section names; the agent config) and a canonical resolved
dictionary whose SHA-256 digest is embedded in every output artifact.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

import yaml

from ..noise import NoiseConfig
from ..pulse import gaussian_kernel, load_kernel
from ..qcore import DeviceParams
from ..rlagent import SacAgent, SacConfig
from ..rlenv import DeviceModel, EnvConfig, GateSynthesisEnv

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "read_yaml",
    "config_from_dict",
    "experiment_hash",
    "output_root",
]

SCHEMA_VERSION = 1

OUTPUT_ROOT_ENV = "QDRL_OUTPUT_ROOT"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


# The env, noise and agent keys and defaults are the dataclass fields (enums as
# values, tuples as lists), so a field added to EnvConfig, NoiseConfig or
# SacConfig becomes a YAML key and moves every experiment hash. The fields
# below are built from other sections or never configured.
_NOT_YAML = {"model", "kernel", "target", "noise"}


# device.type -> its model over (device params, device.b): the one place that
# maps device names to device models, for validation and construction alike
_MODELS = {"two_qubit": lambda device, b: DeviceModel.two_qubit(device),
           "single_qubit": DeviceModel.single_qubit}


def _field_defaults(cls) -> dict:
    defaults = {}
    for f in dataclasses.fields(cls):
        if f.name not in _NOT_YAML:
            value = f.default
            defaults[f.name] = (value.value if isinstance(value, Enum)
                                else list(value) if isinstance(value, tuple) else value)
    return defaults


_DEFAULTS: dict[str, dict] = {
    "device": {"type": "two_qubit", "b": 1.0},
    "env": _field_defaults(EnvConfig),
    "kernel": {"type": "delta", "mean_delay": 0.0, "stddev": 0.0, "path": None},
    "noise": {"enabled": False, **_field_defaults(NoiseConfig)},
    "agent": _field_defaults(SacConfig),
    "train": {"eval_every": 0, "n_eval_episodes": 10},
    "evaluate": {"episodes": 100},
    "sweep": {"axes": {}},
    "scale_sweep": {"scales": [1.0], "mode": "noise", "realizations": 100},
    "tomo": {
        "shots": [100, 1000, 10_000, 100_000],
        "sigmas": [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05],
        "trials": 32,
    },
    # None: the first computational state the device's default gate moves
    "analyze": {"initial_state": None},
}

_TOP_DEFAULTS = {
    "seeds": [0],
    "budget_episodes": 1000,
    "output_dir": ".",
}


def _check_type(key: str, value, default) -> None:
    """Raise ConfigError unless value has its default's type.

    An int passes for a float, a float must be finite, list items must match
    the default's first item, and a value whose default is None is left to
    its consumer to check.
    """
    if default is None:
        return
    expected = type(default)
    accepted = (int, float) if expected is float else expected
    if isinstance(value, bool) != (expected is bool) or not isinstance(value, accepted):
        raise ConfigError(f"{key} must be {expected.__name__}, got {value!r}")
    if isinstance(value, float) and not math.isfinite(value):
        raise ConfigError(f"{key} must be finite, got {value!r}")
    if expected is list and default:
        for i, item in enumerate(value):
            _check_type(f"{key}[{i}]", item, default[0])


# Types a default cannot show: a value behind a None default (None itself
# stays accepted there).
_TYPE_OF = {("analyze", "initial_state"): ""}


def _merge_section(name: str, user: dict | None) -> dict:
    defaults = _DEFAULTS[name]
    if user is None:
        return dict(defaults)
    if not isinstance(user, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {type(user).__name__}")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
    for key, value in user.items():
        if value is not None or defaults[key] is not None:
            _check_type(f"{name}.{key}", value, _TYPE_OF.get((name, key), defaults[key]))
    return {**defaults, **user}


def _resolve(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}, got {version!r}")
    known_top = set(_TOP_DEFAULTS) | set(_DEFAULTS) | {"schema_version"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    resolved: dict = {"schema_version": SCHEMA_VERSION}
    for key, default in _TOP_DEFAULTS.items():
        resolved[key] = raw.get(key, default)
        _check_type(key, resolved[key], default)
    for name in _DEFAULTS:
        resolved[name] = _merge_section(name, raw.get(name))
    # a sweep axis: a key of a section other than sweep -> values that key accepts
    for axis, values in resolved["sweep"]["axes"].items():
        name, _, key = str(axis).partition(".")
        if name not in _DEFAULTS or name == "sweep" or not isinstance(values, list) or not values:
            raise ConfigError(f"sweep.axes maps section.key (outside sweep) to a non-empty "
                              f"list, got {axis!r}: {values!r}")
        for value in values:
            _merge_section(name, {key: value})
    return resolved


def experiment_hash(resolved: dict) -> str:
    """SHA-256 of the canonical resolved configuration."""
    return hashlib.sha256(
        json.dumps(resolved, sort_keys=True).encode("utf-8")
    ).hexdigest()


def output_root() -> Path:
    return Path(os.environ.get(OUTPUT_ROOT_ENV, "."))


@dataclass
class ExperimentConfig:
    """Validated configuration with constructed sub-objects."""

    resolved: dict
    seeds: list[int]
    budget_episodes: int
    output_dir: Path
    device_type: str
    env: EnvConfig
    agent: SacConfig
    eval_every: int
    n_eval_episodes: int

    @property
    def hash(self) -> str:
        return experiment_hash(self.resolved)

    def section(self, name: str) -> dict:
        return dict(self.resolved[name])

    # ------------------------------------------------------------ factories

    def make_model(self, device: DeviceParams) -> DeviceModel:
        """The configured device type over other device params."""
        return _MODELS[self.device_type](device, self.resolved["device"]["b"])

    def make_env(self, seed: int, **changes) -> GateSynthesisEnv:
        """Fresh environment for one run on the configured device.

        changes replace EnvConfig fields (noise=None mutes noise); changes
        that move the substep grid bring their kernel.
        """
        env = dataclasses.replace(self.env, **changes) if changes else self.env
        return GateSynthesisEnv(env, seed=seed)

    def make_agent(self, env: GateSynthesisEnv, seed: int) -> SacAgent:
        return SacAgent(env.observation_size, env.n_channels, self.agent, seed=seed)


def _on_grid(env: EnvConfig, spec: dict) -> EnvConfig:
    """env with the kernel section sampled on its substep grid; no kernel for delta."""
    kernel = None
    if spec["type"] == "gaussian":
        kernel = gaussian_kernel(spec["mean_delay"], spec["stddev"], env.dt)
    elif spec["type"] == "file":
        kernel = load_kernel(spec["path"], env.dt)
    elif spec["type"] != "delta":
        raise ConfigError(f"unknown kernel type {spec['type']!r}")
    return dataclasses.replace(env, kernel=kernel)


def _noise_config(resolved: dict) -> NoiseConfig:
    """The noise section's amplitudes, whatever its enabled flag says."""
    return NoiseConfig(**{key: value for key, value in _fields_of(resolved, "noise").items()
                          if key != "enabled"})


def _fields_of(resolved: dict, name: str) -> dict:
    """A section as keyword arguments for its dataclass: numbers for floats become floats."""
    defaults = _DEFAULTS[name]
    return {key: float(value) if isinstance(defaults[key], float) else value
            for key, value in resolved[name].items()}


# Counts with a least value; below it a command fails late or writes NaN.
_LEAST = {
    ("train", "eval_every"): 0,
    ("train", "n_eval_episodes"): 1,
    ("evaluate", "episodes"): 1,
    ("scale_sweep", "realizations"): 1,
    ("tomo", "trials"): 1,
}


def config_from_dict(raw: dict) -> ExperimentConfig:
    """Validate a raw mapping and construct the experiment objects."""
    resolved = _resolve(raw)
    seeds = resolved["seeds"]
    if not seeds or min(seeds) < 0 or len(set(seeds)) < len(seeds):
        raise ConfigError(f"seeds must be a non-empty list of distinct non-negative "
                          f"integers, got {seeds!r}")
    budget = resolved["budget_episodes"]
    if budget < 0:
        raise ConfigError(f"budget_episodes must be a non-negative integer, got {budget!r}")

    for (section, key), least in _LEAST.items():
        value = resolved[section][key]
        if value is not None and value < least:
            raise ConfigError(f"{section}.{key} must be at least {least}, got {value}")

    device_type = resolved["device"]["type"]
    if device_type not in _MODELS:
        raise ConfigError(f"device type must be {' or '.join(_MODELS)}, got {device_type!r}")

    try:
        # the amplitudes are checked even while disabled: scale-sweep reads them
        noise = _noise_config(resolved)
        env = EnvConfig(model=_MODELS[device_type](DeviceParams(), resolved["device"]["b"]),
                        noise=noise if resolved["noise"]["enabled"] else None,
                        **_fields_of(resolved, "env"))
        env = _on_grid(env, resolved["kernel"])
        agent = SacConfig(**_fields_of(resolved, "agent"))
    except (TypeError, ValueError, OSError) as err:  # ConfigError included: rewrapped unchanged
        raise ConfigError(str(err)) from err

    out_dir = Path(resolved["output_dir"])
    if not out_dir.is_absolute():
        out_dir = output_root() / out_dir

    return ExperimentConfig(
        resolved=resolved,
        seeds=list(seeds),
        budget_episodes=budget,
        output_dir=out_dir,
        device_type=device_type,
        env=env,
        agent=agent,
        eval_every=resolved["train"]["eval_every"],
        n_eval_episodes=resolved["train"]["n_eval_episodes"],
    )


class _Loader(yaml.SafeLoader):
    """Safe YAML that also reads exponent floats without a dot or an exponent
    sign (1e-2, 1.5e3, .5e1), which the YAML 1.1 resolver leaves as strings."""


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?(?:[0-9][0-9_]*(?:\.[0-9_]*)?|\.[0-9][0-9_]*)[eE][-+]?[0-9]+$"),
    list("-+0123456789."),
)


def read_yaml(path):
    """The raw contents of a YAML experiment file, for config_from_dict."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.load(path.read_text(), Loader=_Loader)
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"unreadable config file {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed YAML in {path}: {err}") from err
    if raw is None:
        raise ConfigError(f"config file {path} is empty")
    return raw
