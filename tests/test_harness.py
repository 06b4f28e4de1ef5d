"""Config schema, episode logs, protocol tables, commands, and the CLI.

Training-dependent behavior is exercised at toy budgets (a few episodes on an
8-segment single-qubit task); the statistical claims about trained agents live
in the acceptance tests. Here the focus is plumbing: strict validation, stable
hashing, lossless round trips, determinism of reruns, and exit codes.
"""
from __future__ import annotations

import copy
import json
import os
import platform
import re
import shlex
import subprocess
import sys
import textwrap
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from qdrl.harness import (
    ConfigError,
    cmd_analyze,
    cmd_evaluate,
    cmd_export_protocol,
    cmd_scale_sweep,
    cmd_sweep,
    cmd_tomo_calibrate,
    cmd_train,
    config_from_dict,
    protocol_to_actions,
    read_protocol,
    read_records,
    read_yaml,
    records_equal,
    simulate_protocol,
    write_protocol,
    write_records,
)
from qdrl.harness.cli import _build_parser
from qdrl.harness.cli import main as cli_main
from qdrl.harness.records import record_line
from qdrl import qcore
from qdrl.qcore import DeviceParams
from qdrl.rlagent import DivergenceError, SacAgent, SacConfig, train_loop
from qdrl.rlenv import EnvConfig


def tiny_raw(**overrides) -> dict:
    raw = {
        "schema_version": 1,
        "seeds": [0],
        "budget_episodes": 3,
        "output_dir": "run",
        "device": {"type": "single_qubit"},
        "env": {
            "protocol_time": 8.0,
            "n_segments": 8,
            "oversample": 2,
            "observation_mode": "u_exact",
            "reward_mode": "sparse",
        },
        "agent": {
            "hidden": [8, 8],
            "batch_size": 8,
            "replay_capacity": 500,
            "warmup_steps": 4,
            "n_quantiles": 4,
            "kept_quantiles": 3,
        },
        "train": {"eval_every": 0, "n_eval_episodes": 2},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and key in raw:
            raw[key] = {**raw[key], **value}
        else:
            raw[key] = value
    return raw


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.setenv("QDRL_OUTPUT_ROOT", str(tmp_path))
    return tmp_path


class TestConfigSchema:
    def test_defaults_fill_missing_sections(self):
        cfg = config_from_dict({"schema_version": 1})
        assert cfg.seeds == [0]
        assert cfg.resolved["analyze"]["initial_state"] is None  # cmd_analyze picks it
        assert cfg.env.n_segments == 50
        assert cfg.agent.hidden == (512, 512)
        assert cfg.device_type == "two_qubit"
        assert cfg.env.noise is None  # noise defaults to disabled

    def test_wrong_schema_version_rejected(self):
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({"schema_version": 2})
        with pytest.raises(ConfigError, match="schema_version"):
            config_from_dict({})

    def test_unknown_top_level_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown top-level"):
            config_from_dict({"schema_version": 1, "buget_episodes": 5})

    def test_unknown_section_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown keys in section 'env'"):
            config_from_dict(tiny_raw(env={"protocol_tiem": 8.0}))
        with pytest.raises(ConfigError, match="unknown keys in section 'agent'"):
            config_from_dict(tiny_raw(agent={"hiden": [4]}))

    def test_invalid_values_surface_as_config_errors(self):
        with pytest.raises(ConfigError):
            config_from_dict(tiny_raw(agent={"gamma": 2.0}))
        with pytest.raises(ConfigError):
            config_from_dict(tiny_raw(env={"n_segments": 3}))
        with pytest.raises(ConfigError):
            config_from_dict(tiny_raw(seeds=[]))
        with pytest.raises(ConfigError):
            config_from_dict(tiny_raw(seeds=["a"]))
        for seeds in ([0, -1], [0, 0]):
            with pytest.raises(ConfigError, match="distinct non-negative"):
                config_from_dict(tiny_raw(seeds=seeds))
        with pytest.raises(ConfigError):
            config_from_dict(tiny_raw(budget_episodes=-1))
        with pytest.raises(ConfigError):
            config_from_dict(tiny_raw(device={"type": "three_qubit"}))

    @pytest.mark.parametrize("overrides", [
        # a value of the wrong type, once coerced or passed on silently
        pytest.param({"noise": {"enabled": "false"}}, id="noise.enabled"),
        pytest.param({"env": {"sector_payload": "false"}}, id="env.sector_payload"),
        pytest.param({"env": {"n_segments": 24.7}}, id="env.n_segments"),
        pytest.param({"agent": {"hidden": [64.7, 64]}}, id="agent.hidden"),
        pytest.param({"agent": {"batch_size": 256.9}}, id="agent.batch_size"),
        # an agent setting out of range, once a late traceback or a run that never updates
        pytest.param({"agent": {"dropout": 1.5}}, id="agent.dropout"),
        pytest.param({"agent": {"dropout": -0.1}}, id="agent.dropout_negative"),
        pytest.param({"agent": {"updates_per_step": 0}}, id="agent.updates_per_step"),
        pytest.param({"agent": {"warmup_steps": -1}}, id="agent.warmup_steps"),
        pytest.param({"budget_episodes": True}, id="budget_episodes"),
        # a count below its least value, once a late crash or NaN output
        pytest.param({"train": {"n_eval_episodes": 0}}, id="train.n_eval_episodes"),
        pytest.param({"train": {"eval_every": -1}}, id="train.eval_every"),
        pytest.param({"evaluate": {"episodes": 0}}, id="evaluate.episodes"),
        pytest.param({"scale_sweep": {"realizations": 0}}, id="scale_sweep.realizations"),
        pytest.param({"tomo": {"trials": 0}}, id="tomo.trials"),
        # a kernel delay the Gaussian cannot apply, once applied as a positive one
        pytest.param({"kernel": {"type": "gaussian", "mean_delay": -1.0}},
                     id="kernel.mean_delay_negative"),
        # fewer snapshots than the one-qubit tomographic inversion needs (2 d^2 = 8),
        # once a traceback after the output directory was made
        pytest.param({"env": {"reward_mode": "tomo_snapshot", "n_snapshots": 4}},
                     id="env.n_snapshots_below_2d2"),
        # sweep values, checked as their keys are, once truncated or a bare ValueError
        pytest.param({"sweep": {"axes": {"env.n_segments": [8.7]}}}, id="sweep.axes.segments"),
        pytest.param({"sweep": {"axes": {"env.protocol_time": ["x"]}}}, id="sweep.axes.time"),
        # a sweep axis that is no key of a section, or that a cell cannot vary
        pytest.param({"sweep": {"axes": {"env.protocol_tiem": [8.0]}}},
                     id="sweep.axes.unknown_key"),
        pytest.param({"sweep": {"axes": {"env.protocol_time": 8.0}}}, id="sweep.axes.non_list"),
        pytest.param({"sweep": {"axes": {"env.protocol_time": []}}}, id="sweep.axes.empty_list"),
        pytest.param({"sweep": {"axes": {"seeds": [[0], [1]]}}}, id="sweep.axes.seeds"),
        pytest.param({"sweep": {"axes": {"output_dir": ["a", "b"]}}}, id="sweep.axes.output_dir"),
        pytest.param({"sweep": {"axes": {"sweep.axes": [{}]}}}, id="sweep.axes.sweep_axes"),
        pytest.param({"sweep": {"axes": [["env.protocol_time", [8.0]]]}},
                     id="sweep.axes.non_mapping"),
        pytest.param({"analyze": {"initial_state": 10}}, id="analyze.initial_state"),
        # a non-finite float, once a silently dead noise channel or a late crash
        pytest.param({"noise": {"enabled": True, "sigma_b": float("nan")}},
                     id="noise.sigma_b_nan"),
        pytest.param({"noise": {"enabled": True, "fast_amplitude": float("inf")}},
                     id="noise.fast_amplitude_inf"),
        pytest.param({"env": {"protocol_time": float("inf")}}, id="env.protocol_time_inf"),
        pytest.param({"sweep": {"axes": {"env.protocol_time": [8.0, float("nan")]}}},
                     id="sweep.axes.time_nan"),
        pytest.param({"scale_sweep": {"scales": [1.0, -float("inf")]}},
                     id="scale_sweep.scales_inf"),
    ])
    def test_wrong_types_and_counts_rejected(self, tmp_path, overrides):
        raw = tiny_raw(**overrides)
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

    def test_ints_accepted_where_floats_expected(self):
        cfg = config_from_dict(tiny_raw(env={"protocol_time": 8},
                                        noise={"enabled": True, "sigma_b": 1}))
        assert cfg.env.protocol_time == 8.0 and isinstance(cfg.env.protocol_time, float)
        assert isinstance(cfg.env.noise.sigma_b, float)
        assert cfg.resolved["env"]["protocol_time"] == 8  # hashed as written

    def test_experiment_hashes_pinned(self):
        # any change here moves every artifact's hash and orphans past checkpoints;
        # the single-qubit one moved once, when analyze.initial_state began to
        # default to the device's state 1 instead of the two-qubit label 10;
        # both moved once when the sweep section became sweep.axes, and once
        # when an omitted analyze.initial_state stayed None in the resolved
        # config instead of taking the device's default label there, and once
        # when tomo.dim left the config for the device's block dimension
        assert config_from_dict({"schema_version": 1}).hash == (
            "ffcc1c0173dda83e149d684cccf82134191107ab372ff42ed0d2576c0188e25a")
        assert config_from_dict(tiny_raw()).hash == (
            "b04a10d6097e37c12b6ada1300f7077b0d38091dff788a776e9c0025a12f6e99")

    def test_channels_follow_device(self):
        one = config_from_dict(tiny_raw())
        assert one.env.model.n_channels == one.make_env(0).n_channels == 1
        two = config_from_dict({"schema_version": 1})
        assert two.env.model.n_channels == two.make_env(0).n_channels == 3

    def test_device_section_builds_the_env_model(self):
        cfg = config_from_dict({"schema_version": 1, "device": {"type": "single_qubit", "b": 0.5}})
        assert cfg.env.model.gradients.tolist() == [0.5]
        assert cfg.env.target is None  # the model's default gate, resolved where it is read
        np.testing.assert_array_equal(cfg.make_env(0).target, qcore.phase_gate_target())
        # the model is no YAML key: the resolved config, and so this hash, did
        # not move when the model entered the env config
        assert cfg.hash == "7241953f32ecbb681b46e96598f46678afa8d3bd380a7d58b01bd851b2e802a2"

    def test_noise_section_builds_noise_config(self):
        cfg = config_from_dict(tiny_raw(noise={"enabled": True, "alpha": 0.5}))
        assert cfg.env.noise is not None
        assert cfg.env.noise.alpha == 0.5
        assert cfg.env.noise.sigma_b == 0.0105  # untouched default
        # one amplitude per channel: a zero amplitude is the only off switch
        assert set(cfg.resolved["noise"]) == {
            "enabled", "sigma_b", "sigma_eps", "fast_amplitude", "alpha"}

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    @pytest.mark.parametrize("cls, name", [
        (EnvConfig, "protocol_time"), (EnvConfig, "sigma"), (EnvConfig, "nlif_cap"),
        (DeviceParams, "j0"), (DeviceParams, "eps0"),
        (DeviceParams, "eps_min"), (DeviceParams, "eps_max"),
        (SacConfig, "learning_rate"), (SacConfig, "temperature"),
        (SacConfig, "init_temperature"), (SacConfig, "target_entropy"),
    ])
    def test_library_configs_reject_non_finite_values(self, cls, name, bad):
        # a range check written as `x <= 0` lets NaN through to the first step
        with pytest.raises(ValueError):
            cls(**{name: bad})

    def test_gaussian_kernel_built_on_env_grid(self):
        cfg = config_from_dict(
            tiny_raw(kernel={"type": "gaussian", "mean_delay": 1.0, "stddev": 0.3})
        )
        assert cfg.env.kernel is not None
        assert cfg.env.kernel.dt == pytest.approx(cfg.env.dt)

    def test_make_env_changes_that_move_the_grid_bring_their_kernel(self):
        cfg = config_from_dict(
            tiny_raw(kernel={"type": "gaussian", "mean_delay": 1.0, "stddev": 0.3})
        )
        assert cfg.make_env(0, noise=None).config.kernel is cfg.env.kernel
        # the configured kernel is sampled on the configured grid alone
        with pytest.raises(ValueError, match="kernel is sampled at dt"):
            cfg.make_env(0, protocol_time=12.0)
        # a kernel among the changes is taken as given
        assert cfg.make_env(0, protocol_time=12.0, kernel=None).config.kernel is None

    @pytest.mark.parametrize("path", ["missing", "directory"])
    def test_unreadable_kernel_file_is_a_config_error(self, tmp_path, path):
        (tmp_path / "directory").mkdir()
        raw = tiny_raw(kernel={"type": "file", "path": str(tmp_path / path)})
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        config = tmp_path / "exp.yaml"
        config.write_text(yaml.safe_dump(raw))
        out = tmp_path / "out"
        assert cli_main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert not out.exists()

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict(tiny_raw())
        b = config_from_dict(tiny_raw())
        assert a.hash == b.hash
        c = config_from_dict(tiny_raw(env={"protocol_time": 9.0}))
        assert c.hash != a.hash

    def test_overrides_apply_and_change_hash(self):
        base = config_from_dict(tiny_raw())
        cfg = config_from_dict(tiny_raw(seeds=[7, 8], budget_episodes=1,
                                        output_dir="elsewhere"))
        assert cfg.seeds == [7, 8]
        assert cfg.budget_episodes == 1
        assert cfg.output_dir.name == "elsewhere"
        assert cfg.hash != base.hash

    def test_output_root_env_var(self, outdir):
        cfg = config_from_dict(tiny_raw())
        assert str(cfg.output_dir).startswith(str(outdir))
        absolute = config_from_dict(tiny_raw(output_dir="/tmp/fixed"))
        assert str(absolute.output_dir) == "/tmp/fixed"

    def test_load_config_errors(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            read_yaml(tmp_path / "missing.yaml")
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            read_yaml(empty)
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [unclosed")
        with pytest.raises(ConfigError, match="malformed"):
            read_yaml(bad)
        # a directory, and a file that is not UTF-8 text
        not_utf8 = tmp_path / "utf16.yaml"
        not_utf8.write_bytes(b"\xff\xfes\x00c\x00")
        for unreadable in (tmp_path, not_utf8):
            with pytest.raises(ConfigError, match="unreadable"):
                read_yaml(unreadable)
            out = tmp_path / "out"
            assert cli_main(["train", "--config", str(unreadable), "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("mode", ["u_tomo_plus_pulse", "u_noisy_plus_pulse"])
    def test_removed_observation_modes_rejected(self, tmp_path, mode):
        # their payloads are those of u_noisefree_plus_pulse and u_plus_pulse
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(tiny_raw(env={"observation_mode": mode})))
        with pytest.raises(ConfigError, match=mode):
            config_from_dict(read_yaml(path))

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(tiny_raw()))
        cfg = config_from_dict(read_yaml(path))
        assert cfg.hash == config_from_dict(tiny_raw()).hash

    def test_exponent_floats_load_as_floats(self, tmp_path):
        # YAML 1.1 wants a dot and a signed exponent; a config takes these too
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(tiny_raw()) + "\n".join([
            "noise: {enabled: true, sigma_b: 1e-2}",
            "scale_sweep: {scales: [1e200, 1.5e3, 5e+2, .5e1, 1E3, -1e-3]}",
            "output_dir: 1e",
            "analyze: {initial_state: e5}",
        ]) + "\n")
        cfg = config_from_dict(read_yaml(path))
        assert cfg.env.noise.sigma_b == 1e-2
        scales = cfg.resolved["scale_sweep"]["scales"]
        assert scales == [1e200, 1500.0, 500.0, 5.0, 1000.0, -1e-3]
        assert all(type(x) is float for x in scales)
        # no digits after the e, or none before it: strings, as before
        assert cfg.resolved["output_dir"] == "1e"
        assert cfg.resolved["analyze"]["initial_state"] == "e5"


class TestRecordLines:
    def test_line_round_trip(self):
        rec = {"episode": 3, "seed": 1, "return": 1.5, "config_hash": "abc", "alpha": 0.2}
        assert json.loads(record_line(rec)) == rec

    def test_non_finite_values_become_null(self):
        line = record_line({"episode": 0, "return": float("nan"),
                            "critic_loss": float("inf"), "policy_loss": -float("inf")})
        assert json.loads(line) == {"episode": 0, "return": None, "critic_loss": None,
                                    "policy_loss": None}

    def test_records_equal_ignores_timings(self):
        a = {"episode": 0, "nlif": 1.0, "alpha": 0.5, "wall_time_ms": 10.0, "update_ms": 3.0}
        assert records_equal(a, {**a, "wall_time_ms": 99.0, "update_ms": 7.0})
        assert not records_equal(a, {**a, "nlif": 1.1})
        assert not records_equal(a, {**a, "alpha": 0.6})
        assert not records_equal(a, {k: v for k, v in a.items() if k != "alpha"})

    def test_file_round_trip(self, tmp_path):
        records = [{"episode": k, "return": float(k), "critic_loss": None} for k in range(4)]
        path = tmp_path / "log.jsonl"
        write_records(path, records)
        assert read_records(path) == records


class TestProtocolTables:
    def test_write_read_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(0)
        table = rng.uniform(-5.4, 2.4, size=(9, 3))
        path = tmp_path / "p.tsv"
        write_protocol(path, table, eps0_mv := 0.272, 1.0, {"terminal_nlif": 2.5})
        back, meta = read_protocol(path)
        # stored millivolt strings parse back exactly; the device-unit view
        # re-divides by eps0 and may round one ulp
        body = [l.split("\t") for l in path.read_text().splitlines()
                if not l.startswith("#")][1:]
        stored_mv = np.array([[float(v) for v in row[2:]] for row in body])
        np.testing.assert_array_equal(stored_mv, table * eps0_mv)
        np.testing.assert_allclose(back, table, rtol=3e-16, atol=0.0)
        assert meta["terminal_nlif"] == 2.5
        assert meta["eps0_mv"] == eps0_mv

    def test_values_stored_in_millivolts(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_protocol(path, np.full((5, 1), 2.0), 0.272, 1.0)
        body = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert body[0].split("\t") == ["segment_index", "time_ns", "eps_ch1_mV"]
        assert float(body[1].split("\t")[2]) == pytest.approx(2.0 * 0.272)

    def test_shaped_preview_columns(self, tmp_path):
        path = tmp_path / "p.tsv"
        write_protocol(path, np.zeros((5, 2)), 0.272, 1.0,
                       shaped_preview=np.ones((5, 2)))
        header = [l for l in path.read_text().splitlines() if not l.startswith("#")][0]
        assert header.split("\t")[-2:] == ["shaped_ch1_mV", "shaped_ch2_mV"]

    def test_missing_eps0_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("segment_index\ttime_ns\teps_ch1_mV\n0\t0.0\t1.0\n")
        with pytest.raises(ValueError, match="eps0_mv"):
            read_protocol(path)

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "p.tsv"
        path.write_text("# eps0_mv=0.272\n")
        with pytest.raises(ValueError, match="no table"):
            read_protocol(path)

    def test_protocol_to_actions_checks_tail(self):
        cfg = config_from_dict(tiny_raw())
        device = DeviceParams()
        table = np.full((8, 1), device.eps_min)
        table[:4] = 1.0
        actions = protocol_to_actions(table, cfg)
        assert actions.shape == (4, 1)
        bad = table.copy()
        bad[-1] = 0.0
        with pytest.raises(ConfigError, match="tail"):
            protocol_to_actions(bad, cfg)

    @pytest.mark.parametrize("fault,match", [
        ("rows", "shape"), ("columns", "shape"), ("range", "must lie in"), ("tail", "tail"),
        ("nan", "non-finite"),  # NaN fails both bound comparisons
    ])
    def test_protocol_to_actions_rejects_table_faults(self, fault, match):
        cfg = config_from_dict(tiny_raw())
        device = DeviceParams()
        table = np.full((8, 1), device.eps_min)
        table[:4] = 1.0
        if fault == "rows":
            table = np.vstack([table[:1], table])
        elif fault == "columns":
            table = np.hstack([table, table])
        elif fault == "range":
            table[2] = device.eps_max + 3.0
        elif fault == "nan":
            table[1] = np.nan
        else:
            table[-1] += 1e-6  # off the rail by more than 1e-9, within allclose's default rtol
        with pytest.raises(ConfigError, match=match):
            protocol_to_actions(table, cfg)


class TestTrainCommand:
    def test_writes_logs_checkpoints_and_best(self, outdir):
        cfg = config_from_dict(tiny_raw(seeds=[0, 1]))
        summary = cmd_train(cfg)
        run = outdir / "run"
        for seed in (0, 1):
            log = run / f"train_seed{seed}.jsonl"
            assert log.exists()
            records = read_records(log)
            assert len(records) == 3
            assert all(r["config_hash"] == cfg.hash for r in records)
            assert (run / f"agent_seed{seed}.npz").exists()
        assert (run / "agent_best.npz").exists()
        assert summary["best"]["seed"] in (0, 1)
        saved = json.loads((run / "train_summary.json").read_text())
        assert saved["config_hash"] == cfg.hash

    def test_zero_budget_empty_log_no_checkpoint(self, outdir):
        cfg = config_from_dict(tiny_raw(budget_episodes=0))
        summary = cmd_train(cfg)
        run = outdir / "run"
        assert (run / "train_seed0.jsonl").read_text() == ""
        assert not (run / "agent_seed0.npz").exists()
        assert "best" not in summary

    def test_rerun_reproduces_records_modulo_wall_time(self, outdir):
        # the rerun writes over the first run's files, so those are read first
        cfg = config_from_dict(tiny_raw())
        run = outdir / "run"
        cmd_train(cfg)
        ra = read_records(run / "train_seed0.jsonl")
        with np.load(run / "agent_seed0.npz") as data:
            da = {name: data[name] for name in data.files}
        cmd_train(cfg)
        rb = read_records(run / "train_seed0.jsonl")
        assert len(ra) == len(rb)
        assert all(records_equal(x, y) for x, y in zip(ra, rb))
        assert all(r["update_ms"] >= 0.0 for r in ra)
        with np.load(run / "agent_seed0.npz") as db:
            assert set(da) == set(db.files)
            for name in da:
                if name != "meta_json":
                    np.testing.assert_array_equal(da[name], db[name])


    def test_periodic_evaluations_land_in_the_summary(self, outdir):
        cfg = config_from_dict(tiny_raw(train={"eval_every": 1, "n_eval_episodes": 2}))
        run = outdir / "run"
        summaries, logs = [], []
        for _ in range(2):  # a rerun into the same directory
            summaries.append(cmd_train(cfg))
            logs.append(read_records(run / "train_seed0.jsonl"))
        saved = json.loads((run / "train_summary.json").read_text())
        evals = saved["seeds"][0]["evals"]
        assert [e["episode"] for e in evals] == [1, 2, 3]
        assert all(np.isfinite(e["mean_nlif"]) for e in evals)
        assert evals == summaries[0]["seeds"][0]["evals"] == summaries[1]["seeds"][0]["evals"]
        ra, rb = logs
        assert len(ra) == 3 and all(records_equal(x, y) for x, y in zip(ra, rb))

    def test_periodic_evaluation_leaves_training_unchanged(self):
        # observing a run must not change it: evaluation plays its own episodes
        cfg = config_from_dict(tiny_raw(noise={"enabled": True}))

        def returns(eval_every):
            env = cfg.make_env(0)
            result = train_loop(env, cfg.make_agent(env, 0), 6, seed=0,
                                eval_every=eval_every, n_eval_episodes=2)
            assert len(result.evals) == (6 // eval_every if eval_every else 0)
            return [e["return"] for e in result.episodes]

        np.testing.assert_array_equal(returns(0), returns(2))


@pytest.fixture()
def trained(outdir):
    cfg = config_from_dict(tiny_raw(output_dir="t"))
    cmd_train(cfg)
    return cfg, outdir / "t" / "agent_seed0.npz"


def _checkpoint_without(ckpt: Path, name: str, dest: Path) -> Path:
    """A copy of a checkpoint with one of its arrays left out."""
    with np.load(ckpt, allow_pickle=False) as data:
        np.savez(dest, **{k: data[k] for k in data.files if k != name})
    return dest


def _checkpoint_with_config_key(ckpt: Path, key: str, dest: Path) -> Path:
    """A copy of a checkpoint whose stored agent config gains a key."""
    with np.load(ckpt, allow_pickle=False) as data:
        arrays = {k: data[k] for k in data.files}
    meta = json.loads(str(arrays["meta_json"][()]))
    meta["config"][key] = 1
    np.savez(dest, **{**arrays, "meta_json": np.array(json.dumps(meta))})
    return dest


def _mismatched_checkpoint(cfg, mismatch: str, dest: Path) -> Path:
    """A checkpoint under cfg's agent settings whose widths do not fit cfg's env.

    "observation": the agent of a u_plus_pulse env, whose observation is wider
    than the configured u_exact one; "action": one action channel too many.
    """
    if mismatch == "observation":
        other = config_from_dict(tiny_raw(env={"observation_mode": "u_plus_pulse"}))
        env = other.make_env(0)
        agent = other.make_agent(env, 0)
    else:
        env = cfg.make_env(0)
        agent = SacAgent(env.observation_size, env.n_channels + 1, cfg.agent)
    agent.save(dest)
    return dest


class TestEvaluateCommand:
    def test_noise_free_dynamic_equals_frozen(self, outdir, trained):
        _, ckpt = trained
        cfg = config_from_dict(tiny_raw(output_dir="ev", evaluate={"episodes": 5}))
        summary = cmd_evaluate(cfg, ckpt)
        assert summary["episodes"] == 5
        assert summary["dynamic_nlif"]["mean"] == summary["frozen_nlif"]["mean"]
        records = read_records(outdir / "ev" / "evaluate.jsonl")
        assert len(records) == 5
        for rec in records:
            assert rec["frozen_nlif"] == rec["nlif"]

    def test_incompatible_checkpoint_rejected(self, outdir, trained):
        _, ckpt = trained
        other = config_from_dict(tiny_raw(agent={"hidden": [6, 6]}, output_dir="ev2",
                                          evaluate={"episodes": 2}))
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_evaluate(other, ckpt)

    def test_zero_episodes_rejected_before_writing(self, outdir, trained):
        _, ckpt = trained
        with pytest.raises(ConfigError, match="episodes must be at least 1"):
            cmd_evaluate(config_from_dict(tiny_raw(output_dir="ev0", evaluate={"episodes": 0})),
                         ckpt)
        assert not (outdir / "ev0").exists()

    def test_missing_checkpoint_rejected(self, outdir):
        cfg = config_from_dict(tiny_raw(output_dir="ev", evaluate={"episodes": 1}))
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_evaluate(cfg, outdir / "nope.npz")
        assert not (outdir / "ev").exists()


# the keys of one line of each episode log
_TRAIN_KEYS = {"episode", "seed", "return", "nlif", "leakage", "wall_time_ms", "config_hash",
               "env_steps", "alpha", "entropy", "critic_loss", "policy_loss", "update_ms",
               "anchor_retries"}
_EVALUATE_KEYS = {"episode", "seed", "return", "nlif", "leakage", "wall_time_ms",
                  "config_hash", "frozen_nlif"}


class TestRecordFormat:
    def test_log_lines_hold_exactly_their_keys(self, outdir, trained):
        _, ckpt = trained
        cmd_evaluate(config_from_dict(tiny_raw(output_dir="ev", evaluate={"episodes": 2})), ckpt)
        for path, keys, count in [(outdir / "t" / "train_seed0.jsonl", _TRAIN_KEYS, 3),
                                  (outdir / "ev" / "evaluate.jsonl", _EVALUATE_KEYS, 2)]:
            text = path.read_text()
            lines = [json.loads(line) for line in text.splitlines()]
            assert len(lines) == count and "NaN" not in text
            assert all(line.keys() == keys for line in lines)
            assert read_records(path) == lines
        # the first episode ends within the warm-up, so it has no losses yet
        first = read_records(outdir / "t" / "train_seed0.jsonl")[0]
        assert first["critic_loss"] is None and first["policy_loss"] is None
        assert first["entropy"] is None


def _arrays(path: Path) -> dict:
    """The arrays of a checkpoint, its metadata left out."""
    with np.load(path) as data:
        return {name: data[name] for name in data.files if name != "meta_json"}


class TestSweepCommand:
    def test_cells_are_training_runs_of_their_configs(self, outdir, monkeypatch):
        cfg = config_from_dict(tiny_raw(sweep={"axes": {"agent.gamma": [0.9, 0.95]}},
                                        budget_episodes=2, output_dir="sw"))
        summary = cmd_sweep(cfg)
        lines = (outdir / "sw" / "sweep.tsv").read_text().splitlines()
        assert lines[:2] == [f"# config_hash={cfg.hash}", "cell\tagent.gamma\tmean_nlif\tstatus"]
        assert [line.split("\t")[:2] for line in lines[2:]] == [["0", "0.9"], ["1", "0.95"]]
        # each cell equals a separate training run of its config elsewhere
        monkeypatch.setenv("QDRL_OUTPUT_ROOT", str(outdir / "alone"))
        for k, gamma in enumerate([0.9, 0.95]):
            cell = outdir / "sw" / f"cell{k}"
            alone = config_from_dict(tiny_raw(agent={"gamma": gamma}, budget_episodes=2,
                                              output_dir=f"sw/cell{k}"))
            cmd_train(alone)
            assert summary["cells"][k]["config_hash"] == alone.hash
            assert summary["cells"][k]["values"] == {"agent.gamma": gamma}
            assert summary["cells"][k]["status"] == "ok"
            ra = read_records(cell / "train_seed0.jsonl")
            rb = read_records(alone.output_dir / "train_seed0.jsonl")
            assert len(ra) == 2 and all(records_equal(x, y) for x, y in zip(ra, rb))
            assert all(r["config_hash"] == alone.hash for r in ra)
            a, b = _arrays(cell / "agent_seed0.npz"), _arrays(alone.output_dir / "agent_seed0.npz")
            assert set(a) == set(b)
            for name in a:
                np.testing.assert_array_equal(a[name], b[name])

    def test_a_cell_trains_every_seed(self, outdir):
        cfg = config_from_dict(tiny_raw(sweep={"axes": {"env.protocol_time": [8.0]}},
                                        seeds=[0, 1], budget_episodes=1, output_dir="sw2"))
        cell = cmd_sweep(cfg)["cells"][0]
        trained = json.loads((outdir / "sw2" / "cell0" / "train_summary.json").read_text())
        nlifs = [entry["mean_nlif"] for entry in trained["seeds"]]
        assert [entry["seed"] for entry in trained["seeds"]] == [0, 1]
        assert cell["nlifs"] == nlifs and nlifs[0] != nlifs[1]
        assert cell["mean_nlif"] == float(np.mean(nlifs))
        row = (outdir / "sw2" / "sweep.tsv").read_text().splitlines()[2].split("\t")
        assert row == ["0", "8.0", repr(cell["mean_nlif"]), "ok"]

    def test_zero_budget_cell_reports_nan(self, outdir):
        cfg = config_from_dict(tiny_raw(sweep={"axes": {"env.protocol_time": [8.0]}},
                                        budget_episodes=0, output_dir="sw0"))
        cell = cmd_sweep(cfg)["cells"][0]
        assert cell["status"] == "ok" and cell["nlifs"] == [None] and cell["mean_nlif"] is None
        assert (outdir / "sw0" / "sweep.tsv").read_text().splitlines()[2].split("\t")[2] == "nan"

    def test_device_axis_cell_equals_a_fresh_config_of_that_device(self, outdir):
        # the two-qubit base's default initial state does not ride into the cell
        base = tiny_raw(device={"type": "two_qubit"}, budget_episodes=0, output_dir="sw_dev",
                        sweep={"axes": {"device.type": ["single_qubit"]}})
        cell = cmd_sweep(config_from_dict(base))["cells"][0]
        fresh = config_from_dict(tiny_raw(budget_episodes=0, output_dir="sw_dev/cell0"))
        assert cell["status"] == "ok" and cell["config_hash"] == fresh.hash

    def test_runtime_failure_marks_the_cell_failed(self, outdir, monkeypatch):
        def diverging_train_loop(env, agent, n_episodes, **kwargs):
            if env.config.n_segments == 10:
                raise DivergenceError("non-finite critic loss")
            return train_loop(env, agent, n_episodes, **kwargs)

        monkeypatch.setattr("qdrl.harness.commands.train_loop", diverging_train_loop)
        cfg = config_from_dict(tiny_raw(sweep={"axes": {"env.n_segments": [8, 10]}},
                                        budget_episodes=1, output_dir="swf"))
        ok, failed = cmd_sweep(cfg)["cells"]
        assert ok["status"] == "ok" and failed["status"] == "failed"
        assert failed["mean_nlif"] is None and "DivergenceError" in failed["error"]
        lines = (outdir / "swf" / "sweep.tsv").read_text().splitlines()
        assert lines[3].split("\t") == ["1", "10", "nan", "failed"]

    @pytest.mark.parametrize("overrides", [
        # too few segments for the tails: the second cell is no valid config
        {"sweep": {"axes": {"env.n_segments": [8, 3]}}},
        # too few snapshots to invert the one-qubit block: the first cell
        {"env": {"reward_mode": "tomo_snapshot"}, "sweep": {"axes": {"env.n_snapshots": [4, 64]}}},
    ], ids=["segments", "snapshots"])
    def test_invalid_cell_exits_two_before_any_cell_runs(self, outdir, overrides):
        raw = tiny_raw(**overrides, output_dir="sw_bad")
        with pytest.raises(ConfigError):
            cmd_sweep(config_from_dict(raw))
        path = outdir / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["sweep", "--config", str(path)]) == 2
        assert not (outdir / "sw_bad").exists()

    def test_empty_axes_rejected(self, outdir):
        cfg = config_from_dict(tiny_raw(output_dir="sw_empty"))
        with pytest.raises(ConfigError, match="sweep.axes"):
            cmd_sweep(cfg)
        assert not (outdir / "sw_empty").exists()

    def test_worker_pool_matches_serial(self, outdir):
        cfg = config_from_dict(tiny_raw(sweep={"axes": {"env.n_segments": [8, 9]}},
                                        budget_episodes=1, output_dir="sw_pool"))
        serial = cmd_sweep(cfg, workers=1)
        logs = [read_records(outdir / "sw_pool" / f"cell{k}" / "train_seed0.jsonl")
                for k in range(2)]
        pooled = cmd_sweep(cfg, workers=2)
        assert serial == pooled
        for k, log in enumerate(logs):
            again = read_records(outdir / "sw_pool" / f"cell{k}" / "train_seed0.jsonl")
            assert len(log) == 1 and all(records_equal(x, y) for x, y in zip(log, again))

    def test_worker_processes_evolve_serially(self, outdir, monkeypatch):
        # each worker shares the cores with its siblings: qcore runs it on
        # one, with nothing set in the worker
        options, cores = {}, []

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                options.update(kwargs)
                super().__init__(*args, **kwargs)

            def map(self, *args, **kwargs):
                cores.extend(self.submit(qcore._usable_cores).result() for _ in range(2))
                return super().map(*args, **kwargs)

        monkeypatch.setattr("qdrl.harness.commands.ProcessPoolExecutor", Recording)
        cfg = config_from_dict(tiny_raw(sweep={"axes": {"env.n_segments": [8, 9]}},
                                        budget_episodes=0, output_dir="s3"))
        cmd_sweep(cfg, workers=2)
        assert options == {"max_workers": 2} and cores == [1, 1]


class TestExportProtocol:
    def test_export_and_round_trip_nlif(self, outdir, trained):
        _, ckpt = trained
        cfg = config_from_dict(tiny_raw(output_dir="ex"))
        summary = cmd_export_protocol(cfg, ckpt)
        table, meta = read_protocol(outdir / "ex" / "protocol.tsv")
        n, c = cfg.env.n_segments, cfg.make_env(0).n_channels
        assert table.shape == (n, c)
        device = DeviceParams()
        np.testing.assert_allclose(table[-4:], device.eps_min, atol=1e-12)
        assert meta["config_hash"] == cfg.hash
        # re-simulating the table reproduces the logged terminal NLIF
        again = simulate_protocol(cfg, table)
        assert again == pytest.approx(meta["terminal_nlif"], abs=1e-9)

    def test_column_layout(self, outdir, trained):
        _, ckpt = trained
        cfg = config_from_dict(tiny_raw(output_dir="ex2"))
        cmd_export_protocol(cfg, ckpt)
        lines = (outdir / "ex2" / "protocol.tsv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split("\t")
        assert header[:3] == ["segment_index", "time_ns", "eps_ch1_mV"]
        assert "shaped_ch1_mV" in header
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(body) == cfg.env.n_segments

    def test_missing_checkpoint_rejected_before_writing(self, outdir):
        cfg = config_from_dict(tiny_raw(output_dir="ex3"))
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_export_protocol(cfg, outdir / "nope.npz")
        assert not (outdir / "ex3").exists()


# the commands that read a checkpoint, each run on a raw config
_CHECKPOINT_COMMANDS = {
    "evaluate": lambda raw, ckpt: cmd_evaluate(
        config_from_dict({**raw, "evaluate": {"episodes": 1}}), ckpt),
    "export-protocol": lambda raw, ckpt: cmd_export_protocol(config_from_dict(raw), ckpt),
}


@pytest.mark.parametrize("command", sorted(_CHECKPOINT_COMMANDS))
class TestCheckpointChecks:
    @pytest.mark.parametrize("name", ["policy.0", "critic1.0", "meta_json"])
    def test_missing_record_rejected_before_writing(self, outdir, trained, command, name):
        _, ckpt = trained
        broken = _checkpoint_without(ckpt, name, outdir / "broken.npz")
        with pytest.raises(ConfigError, match=re.escape(name)):
            _CHECKPOINT_COMMANDS[command](tiny_raw(output_dir="out"), broken)
        assert not (outdir / "out").exists()

    def test_unknown_agent_config_key_rejected_before_writing(self, outdir, trained, command):
        _, ckpt = trained
        broken = _checkpoint_with_config_key(ckpt, "extra_key", outdir / "extra.npz")
        with pytest.raises(ConfigError, match="extra_key"):
            _CHECKPOINT_COMMANDS[command](tiny_raw(output_dir="out"), broken)
        assert not (outdir / "out").exists()

    @pytest.mark.parametrize("mismatch", ["observation", "action"])
    def test_width_mismatch_rejected_before_writing(self, outdir, command, mismatch):
        cfg = config_from_dict(tiny_raw())
        ckpt = _mismatched_checkpoint(cfg, mismatch, outdir / "other.npz")
        with pytest.raises(ConfigError, match="widths"):
            _CHECKPOINT_COMMANDS[command](tiny_raw(output_dir="out"), ckpt)
        assert not (outdir / "out").exists()


class TestAnalyzeCommand:
    def _protocol_file(self, tmp_path, cfg, fill=None):
        device = DeviceParams()
        n, c = cfg.env.n_segments, cfg.make_env(0).n_channels
        table = np.full((n, c), device.eps_min)
        if fill is not None:
            table[: n - 4] = fill
        path = tmp_path / "proto.tsv"
        write_protocol(path, table, device.eps0, cfg.env.sample_period)
        return path

    def test_all_minimum_pulse_has_minimum_fluence(self, outdir):
        cfg = config_from_dict(tiny_raw(output_dir="an", analyze={"initial_state": "0"}))
        path = self._protocol_file(outdir, cfg)
        summary = cmd_analyze(cfg, path)
        assert summary["fluence"] == 0.0
        assert summary["fluence_relative"] == 0.0

    def test_expectations_bounded_and_files_written(self, outdir):
        cfg = config_from_dict(tiny_raw(output_dir="an2", analyze={"initial_state": "0"}))
        path = self._protocol_file(outdir, cfg, fill=1.0)
        summary = cmd_analyze(cfg, path)
        lines = (outdir / "an2" / "bloch.tsv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split("\t")
        assert header == ["time_ns", "q1_x", "q1_y", "q1_z", "block_norm"]
        data = np.array([[float(v) for v in l.split("\t")]
                         for l in lines if not l.startswith("#") and not l[0].isalpha()])
        assert np.all(np.abs(data[:, 1:4]) <= 1.0 + 1e-12)
        assert summary["fluence_relative"] > 0.0

    def test_two_qubit_bloch_columns(self, outdir):
        cfg = config_from_dict(
            tiny_raw(device={"type": "two_qubit"},
                     env={"observation_mode": "u_exact"},
                     output_dir="an3", analyze={"initial_state": "10"})
        )
        path = self._protocol_file(outdir, cfg, fill=0.5)
        summary = cmd_analyze(cfg, path)
        lines = (outdir / "an3" / "bloch.tsv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split("\t")
        assert header == ["time_ns", "q1_x", "q1_y", "q1_z",
                          "q2_x", "q2_y", "q2_z", "block_norm"]
        assert len(summary["final_bloch"]) == 6
        assert summary["final_block_norm"] <= 1.0 + 1e-12

    @pytest.mark.parametrize("device, label", [
        ("single_qubit", "2"),
        ("single_qubit", "10"),  # the two-qubit default
        ("two_qubit", "0"),
    ])
    def test_unknown_initial_state_rejected(self, outdir, device, label):
        valid = {"single_qubit": "0, 1", "two_qubit": "00, 01, 10, 11"}[device]
        cfg = config_from_dict(tiny_raw(device={"type": device}, output_dir="an_bad",
                                        analyze={"initial_state": label}))
        path = self._protocol_file(outdir, cfg)
        with pytest.raises(ConfigError, match=f"initial state .*use one of {valid}$"):
            cmd_analyze(cfg, path)
        assert not (outdir / "an_bad").exists()


class TestScaleSweepCommand:
    def _noisy_cfg(self, **over):
        return config_from_dict(tiny_raw(
            noise={"enabled": True},
            scale_sweep={"scales": [1.0, 8.0], "mode": "noise", "realizations": 40},
            **over,
        ))

    def _protocol_file(self, tmp_path, cfg):
        device = DeviceParams()
        n, c = cfg.env.n_segments, cfg.make_env(0).n_channels
        rng = np.random.default_rng(3)
        table = np.full((n, c), device.eps_min)
        table[: n - 4] = rng.uniform(-2.0, 1.0, size=(n - 4, c))
        path = tmp_path / "proto.tsv"
        write_protocol(path, table, device.eps0, cfg.env.sample_period)
        return path

    def test_noise_mode_deviation_grows_with_scale(self, outdir):
        # for an arbitrary (not necessarily good) protocol the robust statement
        # is that scaling a noise amplitude pushes the mean infidelity further
        # from its noise-free value
        cfg = self._noisy_cfg(output_dir="ss")
        path = self._protocol_file(outdir, cfg)
        summary = cmd_scale_sweep(cfg, path)
        nf = summary["noise_free_infidelity"]
        rows = {row["scale"]: row for row in summary["rows"]}
        for curve in ("slow_charge", "all"):
            assert abs(rows[8.0][curve] - nf) > abs(rows[1.0][curve] - nf)
        tsv = (outdir / "ss" / "scale_sweep.tsv").read_text().splitlines()
        header = [l for l in tsv if not l.startswith("#")][0].split("\t")
        assert header == ["scale", "infidelity_hyperfine", "infidelity_slow_charge",
                          "infidelity_fast_charge", "infidelity_all"]

    def test_time_energy_mode_suppresses_hyperfine_noise(self, outdir):
        # raising every Hamiltonian energy by k while shrinking every time by k
        # leaves the noise-free unitary fixed, so a fixed-amplitude hyperfine
        # gradient perturbs it less: the deviation from noise-free shrinks
        cfg = config_from_dict(tiny_raw(
            noise={"enabled": True},
            scale_sweep={"scales": [1.0, 4.0], "mode": "time_energy",
                         "realizations": 40},
            output_dir="ss2",
        ))
        path = self._protocol_file(outdir, cfg)
        summary = cmd_scale_sweep(cfg, path)
        nf = summary["noise_free_infidelity"]
        rows = {row["scale"]: row for row in summary["rows"]}
        assert abs(rows[1.0]["hyperfine"] - nf) > abs(rows[4.0]["hyperfine"] - nf)

    @pytest.mark.parametrize("kernel_type", ["delta", "gaussian", "file"])
    def test_time_energy_leaves_noise_free_gate_invariant(self, outdir, kernel_type):
        # with noise amplitudes ~0 every column measures the noise-free gate,
        # which the energy*k / time/k rescaling must not move (this covers the
        # two-qubit device, whose gradient energies are stored in units of j0,
        # and each kernel source, whose response must be compressed in time)
        kernel = {"type": kernel_type}
        if kernel_type == "gaussian":
            kernel.update(mean_delay=1.0, stddev=0.3)
        elif kernel_type == "file":
            t = np.linspace(0.0, 3.0, 31)
            path = outdir / "kernel.txt"
            path.write_text("".join(f"{x} {x * np.exp(-2.0 * x)}\n" for x in t))
            kernel.update(path=str(path))
        cfg = config_from_dict(tiny_raw(
            device={"type": "two_qubit"},
            kernel=kernel,
            noise={"enabled": True, "sigma_b": 1e-12, "sigma_eps": 1e-12,
                   "fast_amplitude": 0.0},
            scale_sweep={"scales": [1.0, 8.0], "mode": "time_energy",
                         "realizations": 2},
            output_dir="ss3",
        ))
        path = self._protocol_file(outdir, cfg)
        summary = cmd_scale_sweep(cfg, path)
        nf = summary["noise_free_infidelity"]
        for row in summary["rows"]:
            for name in ("hyperfine", "slow_charge", "fast_charge", "all"):
                assert row[name] == pytest.approx(nf, abs=1e-9), (
                    f"scale {row['scale']} column {name}")

    def test_bad_mode_rejected(self, outdir):
        cfg = config_from_dict(tiny_raw(
            noise={"enabled": True},
            scale_sweep={"scales": [1.0, 8.0], "mode": "sideways", "realizations": 40},
            output_dir="ss_bad",
        ))
        path = self._protocol_file(outdir, cfg)
        with pytest.raises(ConfigError, match="mode"):
            cmd_scale_sweep(cfg, path)
        assert not (outdir / "ss_bad").exists()

    @pytest.mark.parametrize("scales, mode", [
        ([], "noise"),
        ([1.0, -2.0], "noise"),
        ([0.0], "time_energy"),
        ([1e200], "noise"),  # the fast-noise PSD level k**2 overflows
    ])
    def test_bad_scales_rejected_before_writing(self, outdir, scales, mode):
        cfg = config_from_dict(tiny_raw(
            noise={"enabled": True}, scale_sweep={"scales": scales, "mode": mode},
            output_dir="ss_bad",
        ))
        path = self._protocol_file(outdir, cfg)
        with pytest.raises(ConfigError, match="scales"):
            cmd_scale_sweep(cfg, path)
        assert not (outdir / "ss_bad").exists()

    def test_disabled_noise_section_sets_the_amplitudes(self, outdir):
        # enabled only decides whether training and evaluation see noise; the
        # sweep replays the protocol under the configured amplitudes either way
        rows = []
        for enabled in (False, True):
            cfg = config_from_dict(tiny_raw(
                noise={"enabled": enabled, "sigma_b": 0.05},
                scale_sweep={"scales": [1.0, 2.0], "mode": "noise", "realizations": 3},
                output_dir=f"ss_{enabled}",
            ))
            path = self._protocol_file(outdir, cfg)
            rows.append(cmd_scale_sweep(cfg, path)["rows"])
        assert rows[0] == rows[1]

    def test_zero_noise_scale_is_noise_free(self, outdir):
        cfg = config_from_dict(tiny_raw(
            noise={"enabled": True},
            scale_sweep={"scales": [0.0], "mode": "noise", "realizations": 2},
            output_dir="ss0",
        ))
        summary = cmd_scale_sweep(cfg, self._protocol_file(outdir, cfg))
        row = summary["rows"][0]
        for name in ("hyperfine", "slow_charge", "fast_charge", "all"):
            assert row[name] == pytest.approx(summary["noise_free_infidelity"], abs=1e-12)


class TestTomoCalibrateCommand:
    def _cfg(self, out):
        return config_from_dict(tiny_raw(
            tomo={"shots": [100, 1000, 10_000],
                  "sigmas": [0.001, 0.01, 0.1], "trials": 4},
            output_dir=out,
        ))

    def test_map_persisted_and_loads_back(self, outdir):
        summary = cmd_tomo_calibrate(self._cfg("tc"))
        mapping = json.loads((outdir / "tc" / "sigma_shots.json").read_text())
        assert mapping["dim"] == summary["dim"] == 2  # the single-qubit block
        assert mapping["shots_slope"] == pytest.approx(summary["shots_slope"])
        assert summary["shots_slope"] < 0  # more shots, lower infidelity

    def test_rerun_reproduces_fit(self, outdir):
        s1 = cmd_tomo_calibrate(self._cfg("t1"))
        s2 = cmd_tomo_calibrate(self._cfg("t2"))
        assert s1["shots_slope"] == s2["shots_slope"]
        assert s1["sigma_for_1e5_shots"] == s2["sigma_for_1e5_shots"]

    @pytest.mark.parametrize("tomo", [{"shots": [100, 200, 300]}, {"sigmas": [0.1, 0.2, 0.3]}],
                             ids=["one_decade_shots", "one_decade_sigmas"])
    def test_invalid_section_exits_two_before_writing(self, outdir, tomo):
        raw = tiny_raw(tomo=tomo, output_dir="tc_bad")
        with pytest.raises(ConfigError, match="tomo section"):
            cmd_tomo_calibrate(config_from_dict(raw))
        path = outdir / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["tomo-calibrate", "--config", str(path)]) == 2
        assert not (outdir / "tc_bad").exists()


# setting flag -> (command, flag value, the config key it sets, that key's YAML value)
_SETTING_FLAGS = {
    "--seed": ("train", "4", ("seeds",), [4]),
    "--out": ("train", "flagged", ("output_dir",), "flagged"),
    "--budget-override": ("train", "2", ("budget_episodes",), 2),
    "--episodes": ("evaluate", "2", ("evaluate", "episodes"), 2),
    "--mode": ("scale-sweep", "time_energy", ("scale_sweep", "mode"), "time_energy"),
    "--initial-state": ("analyze", "0", ("analyze", "initial_state"), "0"),
}

# protocol-table fault -> the edit that makes it, on the lines of a good table
_TABLE_FAULTS = {
    "non_numeric": lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0] + "\tabc"],
    "no_eps0": lambda lines: [l for l in lines if not l.startswith("# eps0_mv=")],
    "zero_eps0": lambda lines: ["# eps0_mv=0" if l.startswith("# eps0_mv=") else l
                                for l in lines],
    # line 4 is the second body row, after two header lines and the column names
    "nan": lambda lines: [l if i != 4 else l.rsplit("\t", 1)[0] + "\tnan"
                          for i, l in enumerate(lines)],
    "short_row": lambda lines: lines[:-1] + [lines[-1].rsplit("\t", 1)[0]],
    # segments twice as long as the env's, once replayed at the env's period
    "period": lambda lines: ["# sample_period_ns=2.0" if l.startswith("# sample_period_ns=")
                             else l for l in lines],
}


class TestCli:
    def test_readme_command_lines_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        section = readme.split("## Experiment harness", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = [l.split("#", 1)[0] for l in block.splitlines() if l.startswith("qdrl ")]
        assert len(lines) == 7
        for line in lines:
            args = _build_parser().parse_args(shlex.split(line)[1:])
            assert args.config == "config.yaml"

    @pytest.mark.parametrize("argv", [
        ["train", "--workers", "2"],
        ["sweep", "--workers", "0"],
        ["sweep", "--workers", str(len(os.sched_getaffinity(0)) + 1)],
    ])
    def test_workers_only_on_sweep_and_bounded_by_cores(self, argv):
        # parsing alone: no command runs, so no process pool is started
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(argv + ["--config", "exp.yaml"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_episodes_flag_must_be_a_positive_int(self, value):
        with pytest.raises(SystemExit) as exc:
            _build_parser().parse_args(["evaluate", "--config", "exp.yaml",
                                        "--checkpoint", "a.npz", "--episodes", value])
        assert exc.value.code == 2

    def _config_file(self, tmp_path, raw=None):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw or tiny_raw(budget_episodes=1)))
        return path

    def test_train_exits_zero(self, outdir):
        path = self._config_file(outdir)
        assert cli_main(["train", "--config", str(path)]) == 0
        assert (outdir / "run" / "train_seed0.jsonl").exists()

    def test_config_error_exits_two(self, outdir, capsys):
        raw = tiny_raw()
        raw["mystery"] = 1
        path = self._config_file(outdir, raw)
        assert cli_main(["train", "--config", str(path)]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_missing_config_exits_two(self, outdir):
        assert cli_main(["train", "--config", str(outdir / "none.yaml")]) == 2

    def test_incompatible_checkpoint_exits_two(self, outdir, trained):
        cfg, ckpt = trained
        raw = tiny_raw(agent={"hidden": [6, 6]})
        path = self._config_file(outdir, raw)
        code = cli_main(["evaluate", "--config", str(path),
                         "--checkpoint", str(ckpt), "--episodes", "1"])
        assert code == 2

    @pytest.mark.parametrize("command", ["evaluate", "export-protocol"])
    def test_bad_checkpoint_exits_two_without_writing(self, outdir, trained, command):
        cfg, ckpt = trained
        path = self._config_file(outdir, tiny_raw())
        broken = _checkpoint_without(ckpt, "policy.0", outdir / "broken.npz")
        wide = _mismatched_checkpoint(cfg, "observation", outdir / "wide.npz")
        empty = outdir / "empty.npz"
        empty.write_bytes(b"")
        truncated = outdir / "truncated.npz"
        truncated.write_bytes(ckpt.read_bytes()[:2000])
        for bad in (broken, wide, empty, truncated):
            out = outdir / f"out_{bad.stem}"
            assert cli_main([command, "--config", str(path), "--checkpoint", str(bad),
                             "--out", str(out)]) == 2
            assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_negative_seed_exits_two_without_writing(self, outdir, where):
        raw = tiny_raw(seeds=[-1]) if where == "config" else tiny_raw()
        path = self._config_file(outdir, raw)
        flags = ["--seed", "-1"] if where == "flag" else []
        out = outdir / "negative"
        assert cli_main(["train", "--config", str(path), "--out", str(out), *flags]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("where", ["config", "flag"])
    def test_duplicate_seeds_exit_two_without_writing(self, outdir, where):
        # seed 0 twice would train into one log and checkpoint twice over
        raw = tiny_raw(seeds=[0, 0]) if where == "config" else tiny_raw()
        path = self._config_file(outdir, raw)
        flags = ["--seed", "0", "0"] if where == "flag" else []
        out = outdir / "duplicate"
        assert cli_main(["train", "--config", str(path), "--out", str(out), *flags]) == 2
        assert not out.exists()

    def test_negative_noise_seed_exits_two_without_writing(self, outdir, trained):
        _, ckpt = trained
        path = self._config_file(outdir, tiny_raw())
        out = outdir / "negative"
        with pytest.raises(SystemExit) as exc:
            cli_main(["export-protocol", "--config", str(path), "--checkpoint", str(ckpt),
                      "--noise-seed", "-1", "--out", str(out)])
        assert exc.value.code == 2
        assert not out.exists()

    def test_budget_and_seed_overrides(self, outdir):
        path = self._config_file(outdir, tiny_raw())
        code = cli_main(["train", "--config", str(path), "--seed", "5",
                         "--budget-override", "0", "--out", str(outdir / "ov")])
        assert code == 0
        assert (outdir / "ov" / "train_seed5.jsonl").read_text() == ""

    def test_export_then_analyze_via_cli(self, outdir, trained):
        cfg, ckpt = trained
        path = self._config_file(outdir, tiny_raw())
        out = outdir / "flow"
        assert cli_main(["export-protocol", "--config", str(path),
                         "--checkpoint", str(ckpt), "--out", str(out)]) == 0
        proto = out / "protocol.tsv"
        assert cli_main(["analyze", "--config", str(path), "--protocol", str(proto),
                         "--initial-state", "0", "--out", str(out)]) == 0
        assert (out / "bloch.tsv").exists()

    def test_analyze_defaults_to_a_state_of_the_device(self, outdir):
        # a single-qubit config that does not name analyze.initial_state
        path = self._config_file(outdir, tiny_raw())
        proto = outdir / "proto.tsv"
        cfg = config_from_dict(tiny_raw())
        write_protocol(proto, np.full((8, 1), cfg.env.model.params.eps_min),
                       cfg.env.model.params.eps0, cfg.env.sample_period)
        out = outdir / "default_state"
        assert cli_main(["analyze", "--config", str(path), "--protocol", str(proto),
                         "--out", str(out)]) == 0
        summary = json.loads((out / "analyze_summary.json").read_text())
        assert summary["initial_state"] == "1"

    @pytest.mark.parametrize("flag", sorted(_SETTING_FLAGS))
    def test_setting_flag_equals_its_config_key(self, outdir, trained, flag):
        # the flag and the YAML key give the same run, stamped with the same hash
        command, value, key, yaml_value = _SETTING_FLAGS[flag]
        _, ckpt = trained
        base = tiny_raw(budget_episodes=1, scale_sweep={"scales": [1.0, 2.0], "realizations": 2})
        keyed = copy.deepcopy(base)
        *section, name = key
        (keyed.setdefault(section[0], {}) if section else keyed)[name] = yaml_value
        cfg = config_from_dict(base)
        proto = outdir / "proto.tsv"
        table = np.full((8, 1), cfg.env.model.params.eps_min)
        table[:4] = 1.0
        write_protocol(proto, table, cfg.env.model.params.eps0, cfg.env.sample_period)
        inputs = {"train": [], "evaluate": ["--checkpoint", str(ckpt)],
                  "scale-sweep": ["--protocol", str(proto)],
                  "analyze": ["--protocol", str(proto)]}[command]
        summary = outdir / keyed["output_dir"] / f"{command.replace('-', '_')}_summary.json"
        saved = []
        for raw, flags in ((base, [flag, value]), (keyed, [])):
            path = self._config_file(outdir, raw)
            assert cli_main([command, "--config", str(path), *inputs, *flags]) == 0
            saved.append(json.loads(summary.read_text()))
        assert saved[0] == saved[1]
        assert saved[0]["config_hash"] == config_from_dict(keyed).hash

    @pytest.mark.parametrize("command", ["analyze", "scale-sweep"])
    @pytest.mark.parametrize("fault", ["missing", *_TABLE_FAULTS])
    def test_bad_protocol_table_exits_two_without_writing(self, outdir, command, fault):
        path = self._config_file(outdir, tiny_raw())
        cfg = config_from_dict(tiny_raw())
        proto = outdir / "proto.tsv"
        if fault != "missing":
            table = np.full((8, 1), cfg.env.model.params.eps_min)
            table[:4] = 1.0
            write_protocol(proto, table, cfg.env.model.params.eps0, cfg.env.sample_period)
            lines = proto.read_text().splitlines()
            proto.write_text("\n".join(_TABLE_FAULTS[fault](lines)) + "\n")
        out = outdir / "out_bad"
        assert cli_main([command, "--config", str(path), "--protocol", str(proto),
                         "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["analyze", "scale-sweep"])
    def test_table_without_a_period_header_is_read(self, outdir, command):
        path = self._config_file(outdir, tiny_raw())
        cfg = config_from_dict(tiny_raw())
        proto = outdir / "proto.tsv"
        table = np.full((8, 1), cfg.env.model.params.eps_min)
        table[:4] = 1.0
        write_protocol(proto, table, cfg.env.model.params.eps0, cfg.env.sample_period)
        lines = proto.read_text().splitlines()
        proto.write_text("\n".join(l for l in lines if not l.startswith("# sample_period_ns=")))
        assert cli_main([command, "--config", str(path), "--protocol", str(proto),
                         "--out", str(outdir / "out")]) == 0

    @pytest.mark.parametrize("raw", [["not", "a", "mapping"], {**tiny_raw(), "evaluate": [2]}])
    def test_non_mapping_config_under_a_flag_exits_two(self, outdir, trained, raw):
        _, ckpt = trained
        path = self._config_file(outdir, raw)
        assert cli_main(["evaluate", "--config", str(path), "--checkpoint", str(ckpt),
                         "--episodes", "1", "--seed", "1"]) == 2

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc malloc thresholds")
    def test_malloc_settings_stop_updates_faulting_in_their_temporaries(self):
        # a fresh process, as a qdrl command runs in: at glibc's starting
        # thresholds each default-size update (batch 256, hidden (512, 512))
        # takes ~13k minor faults; with main()'s settings it reuses its heap
        script = textwrap.dedent("""
            import resource
            import numpy as np
            from qdrl.harness.cli import _keep_freed_blocks
            from qdrl.rlagent import SacAgent, SacConfig

            _keep_freed_blocks()
            rng = np.random.default_rng(0)
            n = SacConfig().batch_size
            batch = {"obs": rng.normal(size=(n, 36)), "act": rng.uniform(-1, 1, size=(n, 3)),
                     "reward": rng.normal(size=n), "next_obs": rng.normal(size=(n, 36)),
                     "done": np.zeros(n)}
            agent = SacAgent(36, 3, seed=0)
            for _ in range(2):
                agent.update(batch)
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for _ in range(4):
                agent.update(batch)
            print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 4)
        """)
        src = str(Path(__file__).parents[1] / "src")
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": path}, check=True)
        faults = float(result.stdout)
        assert faults < 2000, f"{faults:.0f} minor faults per update"
