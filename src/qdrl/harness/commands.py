"""Experiment commands: training runs, evaluations, sweeps, and analysis.

Every command is a pure function of its config and its inputs (a checkpoint,
a protocol table, a noise seed) and stamps its outputs with the config hash.
Every run setting, the output directory included, is read from the config
alone, so the hash covers it; the worker count of a sweep changes where the
cells run, not what they give. Reruns are bit-identical apart from recorded
wall times. Commands return their summary dictionaries so they can be driven
programmatically as well as from the command line.
"""
from __future__ import annotations

import copy
import dataclasses
import itertools
import json
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..pulse import ImpulseKernel
from ..rlagent import SacAgent, evaluate_policy, play_policy, train_loop
from ..rlenv import TAIL_SEGMENTS, DeviceModel, GateSynthesisEnv
from ..seeding import named_stream
from ..tomography import calibrate_sigma_to_shots, sigma_for_shots
from .config import ConfigError, ExperimentConfig, _noise_config, config_from_dict
from .protocol import read_protocol, write_protocol
from .records import record_line, write_records

__all__ = [
    "cmd_train",
    "cmd_evaluate",
    "cmd_sweep",
    "cmd_scale_sweep",
    "cmd_analyze",
    "cmd_tomo_calibrate",
    "cmd_export_protocol",
    "protocol_to_actions",
    "simulate_protocol",
]


def _ensure_dir(path: Path) -> Path:
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True, default=_jsonable) + "\n")


def _jsonable(value):
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, Path):
        return str(value)
    raise TypeError(f"cannot serialize {type(value)}")


# --------------------------------------------------------------------- train


def cmd_train(config: ExperimentConfig) -> dict:
    """Train one agent per seed; write per-seed logs, checkpoints, and best."""
    out = _ensure_dir(config.output_dir)
    cfg_hash = config.hash
    per_seed = []
    for seed in config.seeds:
        env = config.make_env(seed)
        agent = config.make_agent(env, seed)
        log_path = out / f"train_seed{seed}.jsonl"
        t0 = time.perf_counter()
        with open(log_path, "w") as log:

            def emit(rec: dict) -> None:
                log.write(record_line({**rec, "seed": seed, "config_hash": cfg_hash,
                                       "wall_time_ms": (time.perf_counter() - t0) * 1e3}) + "\n")

            result = train_loop(
                env,
                agent,
                config.budget_episodes,
                seed=seed,
                eval_every=config.eval_every,
                n_eval_episodes=config.n_eval_episodes,
                diagnostic_path=out / f"diagnostic_seed{seed}.npz",
                on_episode=emit,
            )
        entry = {"seed": seed, "episodes": len(result.episodes),
                 "anchor_retries": sum(rec["anchor_retries"] for rec in result.episodes),
                 "log": str(log_path), "evals": result.evals}
        if config.budget_episodes > 0:
            ckpt = out / f"agent_seed{seed}.npz"
            agent.save(ckpt)
            final = evaluate_policy(env, agent, config.n_eval_episodes)
            entry.update(checkpoint=str(ckpt), **final)
        per_seed.append(entry)

    summary = {"config_hash": cfg_hash, "seeds": per_seed}
    scored = [e for e in per_seed if "mean_nlif" in e]
    if scored:
        best = max(scored, key=lambda e: e["mean_nlif"])
        best_path = out / "agent_best.npz"
        shutil.copyfile(best["checkpoint"], best_path)
        summary["best"] = {"seed": best["seed"], "mean_nlif": best["mean_nlif"],
                           "checkpoint": str(best_path)}
    _write_json(out / "train_summary.json", summary)
    return summary


# ------------------------------------------------------------------ evaluate


def _load_agent(config: ExperimentConfig, checkpoint: Path, env: GateSynthesisEnv) -> SacAgent:
    """Load a checkpoint saved under this config's agent settings for `env`.

    The agent hash does not cover the env, so the agent's observation and
    action widths are checked against `env` here.
    """
    try:
        agent = SacAgent.load(checkpoint, expected_config=config.agent)
    except (ValueError, OSError) as err:
        raise ConfigError(f"incompatible or unreadable checkpoint {checkpoint}: {err}") from err
    widths, wanted = (agent.obs_dim, agent.act_dim), (env.observation_size, env.n_channels)
    if widths != wanted:
        raise ConfigError(f"checkpoint {checkpoint} holds an agent of (observation, action) "
                          f"widths {widths}; the configured env needs {wanted}")
    return agent


def _percentiles(values: np.ndarray) -> dict:
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "p10": float(np.percentile(values, 10)),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
    }


def cmd_evaluate(config: ExperimentConfig, checkpoint: Path) -> dict:
    """Deterministic-policy evaluation in dynamic and frozen modes.

    Dynamic re-queries the policy every step under fresh noise; frozen replays
    one pulse table, taken from a noise-free rollout of the policy, under
    fresh noise too. Both play on one env stream, and every episode, played
    or replayed, resets onto the stream's next draw: dynamic episode k and
    frozen replay k see different noise realizations, so the two columns are
    independent samples, not pairs.
    """
    episodes = config.resolved["evaluate"]["episodes"]
    seed = config.seeds[0]
    clean_env = config.make_env(seed, reward_mode="sparse", noise=None)
    agent = _load_agent(config, checkpoint, clean_env)
    out = _ensure_dir(config.output_dir)

    # Frozen table: one noise-free closed-loop rollout of the deterministic policy.
    play_policy(clean_env, agent, seed)
    frozen_actions = clean_env.actions_normalized

    env = config.make_env(seed, reward_mode="sparse")
    env.reset(seed)
    dynamic, frozen = [], []
    records = []
    for k in range(episodes):
        _, info = play_policy(env, agent)
        dynamic.append(info["nlif"])
        frozen.append(env.rollout(frozen_actions).info["nlif"])
        records.append({"episode": k, "seed": seed, "return": dynamic[-1], "nlif": dynamic[-1],
                        "leakage": info["leakage"], "wall_time_ms": 0.0,
                        "config_hash": config.hash, "frozen_nlif": frozen[-1]})
    write_records(out / "evaluate.jsonl", records)

    dynamic, frozen = np.array(dynamic), np.array(frozen)
    summary = {
        "config_hash": config.hash,
        "episodes": episodes,
        "dynamic_nlif": _percentiles(dynamic),
        "frozen_nlif": _percentiles(frozen),
        "dynamic_infidelity_mean": float(np.mean(10.0 ** -dynamic)),
        "frozen_infidelity_mean": float(np.mean(10.0 ** -frozen)),
    }
    _write_json(out / "evaluate_summary.json", summary)
    return summary


# --------------------------------------------------------------------- sweep


def _train_cell(config: ExperimentConfig) -> dict:
    """cmd_train of one sweep cell: its seeds' final NLIFs and their mean."""
    try:
        nlifs = [entry.get("mean_nlif") for entry in cmd_train(config)["seeds"]]
    except Exception as err:  # per-cell failures are recorded, not fatal
        return {"status": "failed", "mean_nlif": None, "error": f"{type(err).__name__}: {err}"}
    mean = float(np.mean(nlifs)) if None not in nlifs else None
    return {"status": "ok", "nlifs": nlifs, "mean_nlif": mean}


def cmd_sweep(config: ExperimentConfig, workers: int = 1) -> dict:
    """Training runs over the product of the sweep.axes values.

    Cell k is the config with one value per axis, trained by cmd_train over
    every seed into <output_dir>/cell<k>. Every cell is validated before any
    runs. With workers > 1 the cells run in that many pool processes, and
    qcore evolves the stacks of each on one thread.
    """
    axes = config.section("sweep")["axes"]
    if not axes:
        raise ConfigError("sweep requires a non-empty sweep.axes mapping")
    grid = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]
    configs = []
    for k, values in enumerate(grid):
        raw = copy.deepcopy(config.resolved)
        for axis, value in values.items():
            name, key = axis.split(".")
            raw[name][key] = value
        raw.update(sweep={"axes": {}}, output_dir=str(Path(raw["output_dir"]) / f"cell{k}"))
        configs.append(config_from_dict(raw))
    out = _ensure_dir(config.output_dir)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            cells = list(pool.map(_train_cell, configs))
    else:
        cells = [_train_cell(cell_config) for cell_config in configs]

    lines = [f"# config_hash={config.hash}", "\t".join(["cell", *axes, "mean_nlif", "status"])]
    for k, (values, cell_config, cell) in enumerate(zip(grid, configs, cells)):
        cell.update(cell=k, values=values, config_hash=cell_config.hash)
        mean = "nan" if cell["mean_nlif"] is None else repr(cell["mean_nlif"])
        lines.append("\t".join([str(k), *map(str, values.values()), mean, cell["status"]]))
    (out / "sweep.tsv").write_text("\n".join(lines) + "\n")
    summary = {"config_hash": config.hash, "cells": cells}
    _write_json(out / "sweep_summary.json", summary)
    return summary


# --------------------------------------------------------------- scale sweep


def protocol_to_actions(detunings: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Table rows (device units) -> normalized agent actions, tails stripped.

    The table needs one row per env segment and one column per device
    channel, finite values, its tail rows on the minimum rail and every other
    value inside [eps_min, eps_max]; anything else raises ConfigError.
    """
    device = config.env.model.params
    shape = (config.env.n_segments, config.env.model.n_channels)
    if detunings.shape != shape:
        raise ConfigError(f"protocol table has shape {detunings.shape} (rows, channels), "
                          f"the configured env needs {shape}")
    if not np.all(np.isfinite(detunings)):
        raise ConfigError("protocol table holds a non-finite detuning")
    tail = detunings[-TAIL_SEGMENTS:]
    if not np.allclose(tail, device.eps_min, rtol=0.0, atol=1e-9):
        raise ConfigError("protocol tail rows must sit at the minimum detuning rail")
    body = detunings[:-TAIL_SEGMENTS]
    if body.min() < device.eps_min - 1e-9 or body.max() > device.eps_max + 1e-9:
        raise ConfigError(f"protocol detunings must lie in [{device.eps_min}, {device.eps_max}] "
                          f"eps0, got [{body.min()}, {body.max()}]")
    span = device.eps_max - device.eps_min
    return 2.0 * (body - device.eps_min) / span - 1.0


def _read_table(config: ExperimentConfig, protocol_path) -> tuple[np.ndarray, np.ndarray]:
    """The protocol table at protocol_path (device units) and its actions.

    A table that cannot be read or parsed, or that does not fit the
    configured env, raises ConfigError.
    """
    try:
        detunings, _ = read_protocol(protocol_path)
    except (OSError, ValueError) as err:
        raise ConfigError(f"unreadable protocol table {protocol_path}: {err}") from err
    return detunings, protocol_to_actions(detunings, config)


def simulate_protocol(config: ExperimentConfig, detunings: np.ndarray) -> float:
    """Terminal NLIF of a fixed protocol table on a fresh noise-free env."""
    env = config.make_env(0, reward_mode="sparse", noise=None)
    return float(env.rollout(protocol_to_actions(detunings, config), 0).info["nlif"])


# noise contribution -> the NoiseConfig amplitude that sets it
_AMPLITUDE = {"hyperfine": "sigma_b", "slow_charge": "sigma_eps", "fast_charge": "fast_amplitude"}


def _scale_curves(config: ExperimentConfig, mode: str, k: float) -> dict[str, dict]:
    """The EnvConfig changes of each curve at scale k: one per contribution, then all."""
    noise = _noise_config(config.resolved)
    rescaled = {}
    if mode == "noise":
        noise = noise.scaled(k)
    else:
        # sigma_b is stored relative to the exchange prefactor; with the
        # physical hyperfine field held fixed while every energy grows by k,
        # the relative amplitude drops by k. Charge noise lives in detuning
        # units, which the energy scaling does not touch.
        noise = dataclasses.replace(noise, sigma_b=noise.sigma_b * (1.0 / k))
        # Gradients are stored in units of j0 and the Hamiltonian multiplies
        # them by j0, so scaling j0 alone scales every energy in the device
        # uniformly.
        device, kernel = config.env.model.params, config.env.kernel
        if kernel is not None:
            # the same response compressed in time: same weights on a dt/k grid
            kernel = ImpulseKernel(kernel.samples * k, kernel.dt / k)
        rescaled = {"model": config.make_model(dataclasses.replace(device, j0=k * device.j0)),
                    "kernel": kernel, "protocol_time": config.env.protocol_time / k}
    curves = {name: dataclasses.replace(
        noise, **{field: 0.0 for other, field in _AMPLITUDE.items() if other != name})
        for name in _AMPLITUDE}
    curves["all"] = noise
    return {name: {"noise": curve, **rescaled} for name, curve in curves.items()}


def cmd_scale_sweep(config: ExperimentConfig, protocol_path: Path) -> dict:
    """Infidelity of a fixed protocol vs a scale factor, per noise contribution.

    The base amplitudes are the noise section's, whether or not it is enabled.
    time_energy mode at scale k multiplies every energy in the Hamiltonian by
    k (exchange prefactor and all gradients) and divides every time quantity
    by k (protocol duration, integration step, the kernel's time axis), so the
    noise-free unitary is unchanged while the noise susceptibility shifts.
    noise mode leaves the dynamics alone and multiplies one contribution's
    amplitude by k, with an all-contributions-scaled curve alongside. In
    both modes the curve of one contribution sets the other two amplitudes
    to zero.
    """
    spec = config.section("scale_sweep")
    mode = spec["mode"]
    if mode not in ("time_energy", "noise"):
        raise ConfigError(f"scale-sweep mode must be time_energy or noise, got {mode!r}")
    scales = [float(k) for k in spec["scales"]]
    if not scales:
        raise ConfigError("scale_sweep.scales must be non-empty")
    # time_energy divides times by k; noise mode multiplies amplitudes by k
    if any(k < 0 or (k == 0 and mode == "time_energy") for k in scales):
        raise ConfigError(f"scale_sweep.scales must be non-negative, and positive in "
                          f"time_energy mode; got {scales} in {mode} mode")
    realizations = spec["realizations"]
    detunings, actions = _read_table(config, protocol_path)
    try:
        variants = [(k, _scale_curves(config, mode, k)) for k in scales]
    except (ValueError, OverflowError) as err:
        raise ConfigError(f"scale_sweep.scales {scales} give no valid {mode}-mode "
                          f"model: {err}") from err
    out = _ensure_dir(config.output_dir)
    seed = config.seeds[0]

    noise_free = float(10.0 ** -simulate_protocol(config, detunings))

    rows = []
    for k, changes_of in variants:
        row = {"scale": k}
        for name, changes in changes_of.items():
            env = config.make_env(seed, reward_mode="sparse", **changes)
            env.reset(seed)
            nlifs = np.array([env.rollout(actions).info["nlif"] for _ in range(realizations)])
            row[name] = float(np.mean(10.0 ** -nlifs))
        rows.append(row)

    curves = list(_AMPLITUDE) + ["all"]
    lines = [f"# config_hash={config.hash}", f"# mode={mode}",
             f"# noise_free_infidelity={noise_free!r}",
             "scale\t" + "\t".join(f"infidelity_{c}" for c in curves)]
    for row in rows:
        lines.append("\t".join([repr(row["scale"])] + [repr(row[c]) for c in curves]))
    (out / "scale_sweep.tsv").write_text("\n".join(lines) + "\n")
    summary = {"config_hash": config.hash, "mode": mode,
               "noise_free_infidelity": noise_free, "rows": rows}
    _write_json(out / "scale_sweep_summary.json", summary)
    return summary


# ------------------------------------------------------------------- analyze


def _moved_state(model: DeviceModel) -> str:
    """Label of the first computational state the model's default gate
    moves: 10 under CNOT, 1 under the phase gate."""
    target = model.default_target
    moved = np.any(target != np.eye(len(target)), axis=0)
    return model.labels[int(np.argmax(moved))]


def cmd_analyze(config: ExperimentConfig, protocol_path: Path) -> dict:
    """Per-substep logical Bloch vectors and the protocol's relative fluence.

    The initial state is analyze.initial_state, by default the first
    computational state the device's default gate moves.
    """
    model = config.env.model
    label = config.resolved["analyze"]["initial_state"]
    if label is None:
        label = _moved_state(model)
    if label not in model.labels:
        raise ConfigError(f"unknown initial state {label!r} for a {config.device_type} "
                          f"device; use one of {', '.join(model.labels)}")
    _, actions = _read_table(config, protocol_path)
    out = _ensure_dir(config.output_dir)

    env = config.make_env(config.seeds[0], reward_mode="sparse", noise=None)
    nlif_final = float(env.rollout(actions, config.seeds[0]).info["nlif"])
    shaped = env.shaped_detunings()
    dt = env.config.dt

    states = env.trajectory()[:, :, model.block_indices[model.labels.index(label)]]

    times = np.arange(states.shape[0]) * dt
    norms = np.sum(np.abs(states[:, np.asarray(model.block_indices)]) ** 2, axis=1)
    bloch = model.bloch(states)  # (substeps + 1, qubits, 3)
    qubits = [f"q{q + 1}_{axis}" for q in range(bloch.shape[1]) for axis in "xyz"]
    header = ["time_ns", *qubits, "block_norm"]
    bloch = bloch.reshape(states.shape[0], -1)

    lines = [f"# config_hash={config.hash}", f"# initial_state={label}",
             "\t".join(header)]
    for m in range(states.shape[0]):
        row = [repr(float(times[m]))] + [repr(float(v)) for v in bloch[m]]
        row.append(repr(float(norms[m])))
        lines.append("\t".join(row))
    (out / "bloch.tsv").write_text("\n".join(lines) + "\n")

    device = config.env.model.params
    span = device.eps_max - device.eps_min
    fluence = float(np.sum((shaped - device.eps_min) ** 2) * dt)
    fluence_max = span**2 * env.config.protocol_time * env.n_channels
    summary = {
        "config_hash": config.hash,
        "initial_state": label,
        "terminal_nlif": nlif_final,
        "final_bloch": [float(v) for v in bloch[-1]],
        "final_block_norm": float(norms[-1]),
        "fluence": fluence,
        "fluence_relative": fluence / fluence_max,
    }
    _write_json(out / "analyze_summary.json", summary)
    return summary


# ------------------------------------------------------------ tomo calibrate


def cmd_tomo_calibrate(config: ExperimentConfig) -> dict:
    """Fit the snapshot-budget <-> surrogate-noise equivalence and persist it,
    at the dimension of the configured device's computational block."""
    spec = config.section("tomo")
    dim = len(config.env.model.block_indices)
    rng = named_stream(config.seeds[0], "tomo-calibrate")
    try:
        mapping = calibrate_sigma_to_shots(
            dim, spec["shots"], spec["sigmas"], rng, n_trials=spec["trials"]
        )
    except ValueError as err:
        raise ConfigError(f"tomo section gives no calibration: {err}") from err
    out = _ensure_dir(config.output_dir)
    map_path = out / "sigma_shots.json"
    map_path.write_text(json.dumps(mapping, indent=2) + "\n")
    summary = {
        "config_hash": config.hash,
        "map_file": str(map_path),
        "dim": mapping["dim"],
        "shots_slope": mapping["shots_slope"],
        "sigma_slope": mapping["sigma_slope"],
        "sigma_for_1e5_shots": sigma_for_shots(mapping, 1e5),
    }
    _write_json(out / "tomo_calibrate_summary.json", summary)
    return summary


# ------------------------------------------------------------ export protocol


def cmd_export_protocol(config: ExperimentConfig, checkpoint: Path,
                        noise_seed: int | None = None) -> dict:
    """Roll out the deterministic policy and write its pulse table in mV."""
    reset_seed = config.seeds[0] if noise_seed is None else noise_seed
    muted = {"noise": None} if noise_seed is None else {}
    env = config.make_env(reset_seed, reward_mode="sparse", **muted)
    agent = _load_agent(config, checkpoint, env)
    out = _ensure_dir(config.output_dir)
    _, info = play_policy(env, agent, reset_seed)

    shaped = env.shaped_detunings()
    n_sub = env.config.n_substeps // env.config.n_segments
    preview = shaped[n_sub // 2 :: n_sub][: env.config.n_segments]
    meta = {
        "config_hash": config.hash,
        "terminal_nlif": info["nlif"],
        "leakage": info["leakage"],
        "noise_seed": "none" if noise_seed is None else noise_seed,
    }
    path = out / "protocol.tsv"
    write_protocol(path, env.pulse_sequence(), config.env.model.params.eps0,
                   env.config.sample_period, meta, shaped_preview=preview)
    summary = {"protocol": str(path), **meta}
    _write_json(out / "export_summary.json", summary)
    return summary
