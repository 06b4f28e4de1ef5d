"""Experiment configuration: YAML schema, strict validation, stable hashing.

A config file fully determines a run: device, pulse-shaping kernel, noise,
environment, agent, and budgets. Parsing merges user values over explicit
defaults, rejects unknown keys at every level, and produces both constructed
objects (env factory, agent config) and a canonical resolved dictionary whose
SHA-256 digest is embedded in every output artifact.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass
from pathlib import Path

import yaml

from ..noise import NoiseConfig
from ..pulse import ImpulseKernel, gaussian_kernel, load_kernel
from ..qcore import DeviceParams
from ..rlagent import SacAgent, SacConfig
from ..rlenv import EnvConfig, GateSynthesisEnv, SingleQubitModel, TwoQubitModel, single_qubit_env

__all__ = [
    "SCHEMA_VERSION",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
    "config_from_dict",
    "experiment_hash",
    "output_root",
]

SCHEMA_VERSION = 1

OUTPUT_ROOT_ENV = "QDRL_OUTPUT_ROOT"


class ConfigError(ValueError):
    """Invalid or inconsistent experiment configuration."""


_DEFAULTS: dict[str, dict] = {
    "device": {"type": "two_qubit", "b": 1.0},
    "env": {
        "protocol_time": 50.0,
        "n_segments": 50,
        "oversample": 10,
        "observation_mode": "u_plus_pulse",
        "reward_mode": "sparse",
        "n_realizations": 10,
        "n_snapshots": 100_000,
        "sigma": 0.0,
        "nlif_cap": 12.0,
        "sector_payload": False,
    },
    "kernel": {"type": "delta", "mean_delay": 0.0, "stddev": 0.0, "path": None},
    "noise": {
        "enabled": False,
        "sigma_b": 0.0105,
        "sigma_eps": 0.0294,
        "fast_amplitude": 53.8,
        "alpha": 0.7,
        "hyperfine_on": True,
        "slow_charge_on": True,
        "fast_charge_on": True,
        "scale_b": 1.0,
        "scale_eps": 1.0,
        "scale_fast": 1.0,
    },
    "agent": {
        "hidden": [512, 512],
        "gamma": 0.99,
        "polyak": 0.005,
        "learning_rate": 5e-4,
        "batch_size": 256,
        "replay_capacity": 100_000,
        "warmup_steps": 1000,
        "updates_per_step": 1,
        "n_critics": 2,
        "n_quantiles": 46,
        "kept_quantiles": 25,
        "dropout": 0.01,
        "temperature": None,
        "target_entropy": None,
        "init_temperature": 1.0,
    },
    "train": {"eval_every": 0, "n_eval_episodes": 10},
    "evaluate": {"episodes": 100},
    "sweep": {"times": [], "segments": [], "budget_episodes": None},
    "scale_sweep": {"scales": [1.0], "mode": "noise", "realizations": 100},
    "tomo": {
        "dim": 4,
        "shots": [100, 1000, 10_000, 100_000],
        "sigmas": [0.0005, 0.001, 0.002, 0.005, 0.01, 0.02, 0.05],
        "trials": 32,
    },
    "analyze": {"initial_state": "10"},
}

_TOP_DEFAULTS = {
    "seeds": [0],
    "budget_episodes": 1000,
    "output_dir": ".",
}


def _merge_section(name: str, user: dict | None) -> dict:
    defaults = _DEFAULTS[name]
    if user is None:
        return dict(defaults)
    if not isinstance(user, dict):
        raise ConfigError(f"section '{name}' must be a mapping, got {type(user).__name__}")
    unknown = set(user) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown keys in section '{name}': {sorted(unknown)}")
    return {**defaults, **user}


def _resolve(raw: dict) -> dict:
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a mapping")
    version = raw.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError(
            f"schema_version must be {SCHEMA_VERSION}, got {version!r}"
        )
    known_top = set(_TOP_DEFAULTS) | set(_DEFAULTS) | {"schema_version"}
    unknown = set(raw) - known_top
    if unknown:
        raise ConfigError(f"unknown top-level keys: {sorted(unknown)}")
    resolved: dict = {"schema_version": SCHEMA_VERSION}
    for key, default in _TOP_DEFAULTS.items():
        resolved[key] = raw.get(key, default)
    for name in _DEFAULTS:
        resolved[name] = _merge_section(name, raw.get(name))
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
    device: DeviceParams
    env: EnvConfig
    agent: SacConfig
    eval_every: int
    n_eval_episodes: int

    @property
    def hash(self) -> str:
        return experiment_hash(self.resolved)

    def section(self, name: str) -> dict:
        return dict(self.resolved[name])

    @property
    def n_channels(self) -> int:
        """Detuning channels of the configured device model."""
        model = SingleQubitModel if self.device_type == "single_qubit" else TwoQubitModel
        return model.n_channels

    # ------------------------------------------------------------ factories

    def make_env(self, seed: int, env: EnvConfig | None = None) -> GateSynthesisEnv:
        """Fresh environment for one run on the configured device.

        env replaces the configured EnvConfig (callers derive it with
        dataclasses.replace, e.g. noise=None to mute noise).
        """
        env = env if env is not None else self.env
        if self.device_type == "single_qubit":
            return single_qubit_env(env, b=self.resolved["device"]["b"], seed=seed)
        return GateSynthesisEnv(env, seed=seed)

    def make_agent(self, env: GateSynthesisEnv, seed: int) -> SacAgent:
        return SacAgent(env.observation_size, env.n_channels, self.agent, seed=seed)

    def env_for(self, protocol_time: float, n_segments: int) -> EnvConfig:
        """The env config re-gridded for a sweep cell (kernel rebuilt on new dt)."""
        dt = protocol_time / n_segments / self.resolved["env"]["oversample"]
        return dataclasses.replace(
            self.env, protocol_time=protocol_time, n_segments=n_segments,
            kernel=_make_kernel(self.resolved["kernel"], dt),
        )


def _make_kernel(spec: dict, dt: float) -> ImpulseKernel | None:
    """Kernel on a given integration grid, per the kernel section; None for delta."""
    if spec["type"] == "delta":
        return None
    if spec["type"] == "gaussian":
        return gaussian_kernel(spec["mean_delay"], spec["stddev"], dt)
    if spec["type"] == "file":
        return load_kernel(spec["path"], dt)
    raise ConfigError(f"unknown kernel type {spec['type']!r}")


def config_from_dict(raw: dict, *, seed_override: list[int] | None = None,
                     out_override: str | None = None,
                     budget_override: int | None = None) -> ExperimentConfig:
    """Validate a raw mapping and construct the experiment objects."""
    resolved = _resolve(raw)
    if seed_override is not None:
        resolved["seeds"] = [int(s) for s in seed_override]
    if out_override is not None:
        resolved["output_dir"] = str(out_override)
    if budget_override is not None:
        resolved["budget_episodes"] = int(budget_override)

    seeds = resolved["seeds"]
    if not isinstance(seeds, list) or not seeds or not all(
        isinstance(s, int) and not isinstance(s, bool) for s in seeds
    ):
        raise ConfigError(f"seeds must be a non-empty list of integers, got {seeds!r}")
    budget = resolved["budget_episodes"]
    if not isinstance(budget, int) or budget < 0:
        raise ConfigError(f"budget_episodes must be a non-negative integer, got {budget!r}")

    device_type = resolved["device"]["type"]
    if device_type not in ("two_qubit", "single_qubit"):
        raise ConfigError(f"device type must be two_qubit or single_qubit, got {device_type!r}")
    device = DeviceParams()

    env_spec = resolved["env"]
    try:
        dt = env_spec["protocol_time"] / env_spec["n_segments"] / env_spec["oversample"]
        kernel = _make_kernel(resolved["kernel"], dt)
        noise_spec = resolved["noise"]
        noise = (
            NoiseConfig(**{k: v for k, v in noise_spec.items() if k != "enabled"})
            if noise_spec["enabled"]
            else None
        )
        env = EnvConfig(
            device=device,
            kernel=kernel,
            protocol_time=float(env_spec["protocol_time"]),
            n_segments=int(env_spec["n_segments"]),
            oversample=int(env_spec["oversample"]),
            observation_mode=env_spec["observation_mode"],
            reward_mode=env_spec["reward_mode"],
            noise=noise,
            n_realizations=int(env_spec["n_realizations"]),
            n_snapshots=int(env_spec["n_snapshots"]),
            sigma=float(env_spec["sigma"]),
            nlif_cap=float(env_spec["nlif_cap"]),
            sector_payload=bool(env_spec["sector_payload"]),
        )
        agent_spec = dict(resolved["agent"])
        agent_spec["hidden"] = tuple(agent_spec["hidden"])
        agent = SacConfig(**agent_spec)
    except ConfigError:
        raise
    except (TypeError, ValueError) as err:
        raise ConfigError(str(err)) from err

    out_dir = Path(resolved["output_dir"])
    if not out_dir.is_absolute():
        out_dir = output_root() / out_dir

    train_spec = resolved["train"]
    return ExperimentConfig(
        resolved=resolved,
        seeds=list(seeds),
        budget_episodes=budget,
        output_dir=out_dir,
        device_type=device_type,
        device=device,
        env=env,
        agent=agent,
        eval_every=int(train_spec["eval_every"]),
        n_eval_episodes=int(train_spec["n_eval_episodes"]),
    )


def load_config(path, **overrides) -> ExperimentConfig:
    """Read and validate a YAML experiment file."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        raw = yaml.safe_load(path.read_text())
    except yaml.YAMLError as err:
        raise ConfigError(f"malformed YAML in {path}: {err}") from err
    if raw is None:
        raise ConfigError(f"config file {path} is empty")
    return config_from_dict(raw, **overrides)
