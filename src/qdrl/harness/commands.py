"""Experiment commands: training runs, evaluations, sweeps, and analysis.

Every command is a pure function of (config, seed list, input files) and
stamps its outputs with the config hash; reruns are bit-identical apart from
recorded wall times. Commands return their summary dictionaries so they can
be driven programmatically as well as from the command line.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np

from ..noise import NoiseConfig
from ..pulse import TAIL_SEGMENTS, ImpulseKernel
from ..qcore import evolve_serially
from ..rlagent import SacAgent, evaluate_policy, play_policy, train_loop
from ..seeding import named_stream
from ..tomography import calibrate_sigma_to_shots
from .config import ConfigError, ExperimentConfig, config_from_dict
from .protocol import read_protocol, write_protocol
from .records import EpisodeRecord, write_records

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


def cmd_train(config: ExperimentConfig, out: Path | None = None) -> dict:
    """Train one agent per seed; write per-seed logs, checkpoints, and best."""
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)
    cfg_hash = config.hash
    per_seed = []
    for seed in config.seeds:
        env = config.make_env(seed)
        agent = config.make_agent(env, seed)
        log_path = out / f"train_seed{seed}.jsonl"
        t0 = time.perf_counter()
        with open(log_path, "w") as log:

            def emit(rec: dict) -> None:
                record = EpisodeRecord(
                    episode=rec["episode"],
                    seed=seed,
                    episode_return=rec["return"],
                    nlif=rec["nlif"],
                    leakage=rec["leakage"],
                    wall_time_ms=(time.perf_counter() - t0) * 1e3,
                    config_hash=cfg_hash,
                    extras={
                        "alpha": rec["alpha"],
                        "entropy": rec["entropy"],
                        "critic_loss": rec["critic_loss"],
                        "policy_loss": rec["policy_loss"],
                        "env_steps": rec["env_steps"],
                        "update_ms": rec["update_ms"],
                    },
                )
                log.write(record.to_json() + "\n")

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
                 "anchor_retries": result.anchor_retries, "log": str(log_path)}
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


def _load_agent(config: ExperimentConfig, checkpoint: Path) -> SacAgent:
    """Load a checkpoint saved under this config's agent settings."""
    try:
        return SacAgent.load(checkpoint, expected_config=config.agent)
    except (ValueError, FileNotFoundError) as err:
        raise ConfigError(f"incompatible or unreadable checkpoint {checkpoint}: {err}") from err


def _percentiles(values: np.ndarray) -> dict:
    return {
        "mean": float(np.mean(values)),
        "std": float(np.std(values)),
        "p10": float(np.percentile(values, 10)),
        "p50": float(np.percentile(values, 50)),
        "p90": float(np.percentile(values, 90)),
    }


def cmd_evaluate(config: ExperimentConfig, checkpoint: Path, episodes: int | None = None,
                 out: Path | None = None) -> dict:
    """Deterministic-policy evaluation in dynamic and frozen modes.

    Dynamic re-queries the policy every step under fresh noise; frozen replays
    one noise-free pulse table under the same fresh-noise episodes.
    """
    episodes = episodes if episodes is not None else config.resolved["evaluate"]["episodes"]
    if episodes < 1:
        raise ConfigError(f"episodes must be at least 1, got {episodes}")
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)
    agent = _load_agent(config, checkpoint)

    eval_env_cfg = dataclasses.replace(config.env, reward_mode="sparse")
    seed = config.seeds[0]

    # Frozen table: one noise-free closed-loop rollout of the deterministic policy.
    clean_env = config.make_env(seed, dataclasses.replace(eval_env_cfg, noise=None))
    play_policy(clean_env, agent, seed)
    frozen_actions = clean_env.actions_normalized

    env = config.make_env(seed, eval_env_cfg)
    env.reset(seed)
    dynamic, frozen = [], []
    records = []
    for k in range(episodes):
        _, info = play_policy(env, agent)
        dynamic.append(info["nlif"])
        frozen.append(env.rollout(frozen_actions).info["nlif"])
        records.append(EpisodeRecord(
            episode=k, seed=seed, episode_return=dynamic[-1], nlif=dynamic[-1],
            leakage=info["leakage"], wall_time_ms=0.0, config_hash=config.hash,
            extras={"frozen_nlif": frozen[-1]},
        ))
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


def _run_sweep_cell(resolved: dict, protocol_time: float, n_segments: int,
                    seed: int, budget: int, n_eval: int) -> dict:
    """One (T, N) cell: train a fresh agent, report its evaluation NLIF."""
    config = config_from_dict(resolved)
    cell = {"protocol_time": protocol_time, "n_segments": n_segments, "seed": seed}
    try:
        env = config.make_env(seed, config.env_for(protocol_time, n_segments))
        agent = config.make_agent(env, seed)
        train_loop(env, agent, budget, seed=seed)
        final = evaluate_policy(env, agent, n_eval)
        cell.update(status="ok", mean_nlif=final["mean_nlif"],
                    mean_leakage=final["mean_leakage"])
    except Exception as err:  # per-cell failures are recorded, not fatal
        cell.update(status="failed", mean_nlif=None, error=f"{type(err).__name__}: {err}")
    return cell


def cmd_sweep(config: ExperimentConfig, out: Path | None = None, workers: int = 1) -> dict:
    """Grid of training runs over protocol time x action count.

    With workers > 1 the cells run in that many processes, each of which
    evolves its stacks on one thread.
    """
    spec = config.section("sweep")
    times, segments = spec["times"], spec["segments"]
    if not times or not segments:
        raise ConfigError("sweep requires non-empty 'times' and 'segments' lists")
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)
    budget = spec["budget_episodes"]
    if budget is None:
        budget = config.budget_episodes
    seed = config.seeds[0]
    cells = [(float(t), n) for t in times for n in segments]
    args = [(config.resolved, t, n, seed, budget, config.n_eval_episodes) for t, n in cells]
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers, initializer=evolve_serially) as pool:
            results = list(pool.map(_run_sweep_cell, *zip(*args)))
    else:
        results = [_run_sweep_cell(*a) for a in args]

    lines = [f"# config_hash={config.hash}",
             "protocol_time_ns\tn_segments\tmean_nlif\tstatus"]
    for cell in results:
        nlif = "nan" if cell["mean_nlif"] is None else repr(cell["mean_nlif"])
        lines.append(f"{cell['protocol_time']}\t{cell['n_segments']}\t{nlif}\t{cell['status']}")
    (out / "sweep.tsv").write_text("\n".join(lines) + "\n")
    summary = {"config_hash": config.hash, "cells": results,
               "n_rows": len(times), "n_cols": len(segments)}
    _write_json(out / "sweep_summary.json", summary)
    return summary


# --------------------------------------------------------------- scale sweep


def protocol_to_actions(detunings: np.ndarray, config: ExperimentConfig) -> np.ndarray:
    """Table rows (device units) -> normalized agent actions, tails stripped.

    The table needs one row per env segment and one column per device
    channel, its tail rows on the minimum rail and every other value inside
    [eps_min, eps_max]; anything else raises ConfigError.
    """
    device = config.env.device
    shape = (config.env.n_segments, config.make_model().n_channels)
    if detunings.shape != shape:
        raise ConfigError(f"protocol table has shape {detunings.shape} (rows, channels), "
                          f"the configured env needs {shape}")
    tail = detunings[-TAIL_SEGMENTS:]
    if not np.allclose(tail, device.eps_min, rtol=0.0, atol=1e-9):
        raise ConfigError("protocol tail rows must sit at the minimum detuning rail")
    body = detunings[:-TAIL_SEGMENTS]
    if body.min() < device.eps_min - 1e-9 or body.max() > device.eps_max + 1e-9:
        raise ConfigError(f"protocol detunings must lie in [{device.eps_min}, {device.eps_max}] "
                          f"eps0, got [{body.min()}, {body.max()}]")
    span = device.eps_max - device.eps_min
    return 2.0 * (body - device.eps_min) / span - 1.0


def simulate_protocol(config: ExperimentConfig, detunings: np.ndarray) -> float:
    """Terminal NLIF of a fixed protocol table on a fresh noise-free env."""
    env = config.make_env(0, dataclasses.replace(config.env, reward_mode="sparse", noise=None))
    return float(env.rollout(protocol_to_actions(detunings, config), 0).info["nlif"])


_NOISE_SUBSETS = {
    "hyperfine": dict(hyperfine_on=True, slow_charge_on=False, fast_charge_on=False),
    "slow_charge": dict(hyperfine_on=False, slow_charge_on=True, fast_charge_on=False),
    "fast_charge": dict(hyperfine_on=False, slow_charge_on=False, fast_charge_on=True),
}


def cmd_scale_sweep(config: ExperimentConfig, protocol_path: Path, mode: str | None = None,
                    out: Path | None = None) -> dict:
    """Infidelity of a fixed protocol vs a scale factor, per noise contribution.

    time_energy mode at scale k multiplies every energy in the Hamiltonian by
    k (exchange prefactor and all gradients) and divides every time quantity
    by k (protocol duration, integration step, the kernel's time axis), so the
    noise-free unitary is unchanged while the noise susceptibility shifts.
    noise mode leaves the dynamics alone and multiplies one contribution's
    amplitude by k, with an all-contributions-scaled curve alongside.
    """
    spec = config.section("scale_sweep")
    mode = mode or spec["mode"]
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
    detunings, _ = read_protocol(protocol_path)
    actions = protocol_to_actions(detunings, config)
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)
    base_noise = config.env.noise or NoiseConfig()
    seed = config.seeds[0]

    noise_free = float(10.0 ** -simulate_protocol(config, detunings))

    curves = list(_NOISE_SUBSETS) + ["all"]
    rows = []
    for k in scales:
        row = {"scale": k}
        for name in curves:
            if mode == "noise":
                if name == "all":
                    noise = base_noise.scaled(k)
                else:
                    noise = dataclasses.replace(
                        base_noise, **_NOISE_SUBSETS[name],
                        **{_SCALE_FIELD[name]: k * getattr(base_noise, _SCALE_FIELD[name])},
                    )
                env_cfg = dataclasses.replace(config.env, reward_mode="sparse", noise=noise)
            else:
                noise = (base_noise if name == "all"
                         else dataclasses.replace(base_noise, **_NOISE_SUBSETS[name]))
                # sigma_b is stored relative to the exchange prefactor; with the
                # physical hyperfine field held fixed while every energy grows
                # by k, the relative amplitude drops by k. Charge noise lives in
                # detuning units, which the energy scaling does not touch.
                noise = dataclasses.replace(noise, scale_b=noise.scale_b / k)
                # Gradients are stored in units of j0 and the Hamiltonian
                # multiplies them by j0, so scaling j0 alone scales every
                # energy in the device uniformly.
                device = dataclasses.replace(config.env.device, j0=k * config.env.device.j0)
                kernel = config.env.kernel
                if kernel is not None:
                    # the same response compressed in time: same weights on a dt/k grid
                    kernel = ImpulseKernel(kernel.samples * k, kernel.dt / k, kernel.delay / k)
                env_cfg = dataclasses.replace(
                    config.env, device=device, reward_mode="sparse", noise=noise,
                    protocol_time=config.env.protocol_time / k, kernel=kernel,
                )
            env = config.make_env(seed, env_cfg)
            env.reset(seed)
            nlifs = np.array([env.rollout(actions).info["nlif"] for _ in range(realizations)])
            row[name] = float(np.mean(10.0 ** -nlifs))
        rows.append(row)

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


_SCALE_FIELD = {"hyperfine": "scale_b", "slow_charge": "scale_eps", "fast_charge": "scale_fast"}


# ------------------------------------------------------------------- analyze


def cmd_analyze(config: ExperimentConfig, protocol_path: Path,
                initial_state: str | None = None, out: Path | None = None) -> dict:
    """Per-substep logical Bloch vectors and the protocol's relative fluence."""
    label = initial_state or config.resolved["analyze"]["initial_state"]
    model = config.make_model()
    if label not in model.labels:
        raise ConfigError(f"unknown initial state {label!r} for a {config.device_type} "
                          f"device; use one of {', '.join(model.labels)}")
    detunings, _ = read_protocol(protocol_path)
    actions = protocol_to_actions(detunings, config)
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)

    env = config.make_env(config.seeds[0],
                          dataclasses.replace(config.env, reward_mode="sparse", noise=None))
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

    device = config.env.device
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


def cmd_tomo_calibrate(config: ExperimentConfig, out: Path | None = None) -> dict:
    """Fit the snapshot-budget <-> surrogate-noise equivalence and persist it."""
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)
    spec = config.section("tomo")
    rng = named_stream(config.seeds[0], "tomo-calibrate")
    mapping = calibrate_sigma_to_shots(
        spec["dim"], spec["shots"], spec["sigmas"], rng, n_trials=spec["trials"]
    )
    map_path = out / "sigma_shots.json"
    mapping.save(map_path)
    summary = {
        "config_hash": config.hash,
        "map_file": str(map_path),
        "dim": mapping.dim,
        "shots_slope": mapping.shots_slope,
        "sigma_slope": mapping.sigma_slope,
        "sigma_for_1e5_shots": mapping.sigma_for_shots(1e5),
    }
    _write_json(out / "tomo_calibrate_summary.json", summary)
    return summary


# ------------------------------------------------------------ export protocol


def cmd_export_protocol(config: ExperimentConfig, checkpoint: Path,
                        noise_seed: int | None = None, out: Path | None = None) -> dict:
    """Roll out the deterministic policy and write its pulse table in mV."""
    out = _ensure_dir(Path(out) if out is not None else config.output_dir)
    agent = _load_agent(config, checkpoint)
    eval_cfg = dataclasses.replace(config.env, reward_mode="sparse")
    if noise_seed is None:
        env = config.make_env(config.seeds[0], dataclasses.replace(eval_cfg, noise=None))
        reset_seed = config.seeds[0]
    else:
        env = config.make_env(noise_seed, eval_cfg)
        reset_seed = noise_seed
    _, info = play_policy(env, agent, reset_seed)

    sequence = env.pulse_sequence()
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
    write_protocol(path, sequence.amplitudes, config.env.device.eps0,
                   sequence.sample_period, meta, shaped_preview=preview)
    summary = {"protocol": str(path), **meta}
    _write_json(out / "export_summary.json", summary)
    return summary
