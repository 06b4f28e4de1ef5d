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
import re
import shlex
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
import yaml

from qdrl.harness import (
    ConfigError,
    EpisodeRecord,
    cmd_analyze,
    cmd_evaluate,
    cmd_export_protocol,
    cmd_scale_sweep,
    cmd_sweep,
    cmd_tomo_calibrate,
    cmd_train,
    config_from_dict,
    load_config,
    protocol_to_actions,
    read_protocol,
    read_records,
    records_equal,
    simulate_protocol,
    write_protocol,
    write_records,
)
from qdrl.harness.cli import _build_parser
from qdrl.harness.cli import main as cli_main
from qdrl import qcore
from qdrl.qcore import DeviceParams
from qdrl.rlagent import train_loop
from qdrl.tomography import SigmaShotsMap


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
        pytest.param({"budget_episodes": True}, id="budget_episodes"),
        # a count below its least value, once a late crash or NaN output
        pytest.param({"train": {"n_eval_episodes": 0}}, id="train.n_eval_episodes"),
        pytest.param({"train": {"eval_every": -1}}, id="train.eval_every"),
        pytest.param({"evaluate": {"episodes": 0}}, id="evaluate.episodes"),
        pytest.param({"scale_sweep": {"realizations": 0}}, id="scale_sweep.realizations"),
        # sweep items and budget, once truncated, a bare ValueError or one episode
        pytest.param({"sweep": {"times": [8.0], "segments": [8.7]}}, id="sweep.segments"),
        pytest.param({"sweep": {"times": ["x"], "segments": [8]}}, id="sweep.times"),
        pytest.param({"sweep": {"budget_episodes": True}}, id="sweep.budget_episodes"),
        pytest.param({"sweep": {"budget_episodes": -1}}, id="sweep.budget_episodes_negative"),
    ])
    def test_wrong_types_and_counts_rejected(self, tmp_path, overrides):
        raw = tiny_raw(**overrides)
        with pytest.raises(ConfigError):
            config_from_dict(raw)
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(raw))
        assert cli_main(["train", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "train_summary.json").exists()

    def test_ints_accepted_where_floats_expected(self):
        cfg = config_from_dict(tiny_raw(env={"protocol_time": 8},
                                        noise={"enabled": True, "sigma_b": 1}))
        assert cfg.env.protocol_time == 8.0 and isinstance(cfg.env.protocol_time, float)
        assert isinstance(cfg.env.noise.sigma_b, float)
        assert cfg.resolved["env"]["protocol_time"] == 8  # hashed as written

    def test_experiment_hashes_pinned(self):
        # any change here moves every artifact's hash and orphans past checkpoints
        assert config_from_dict({"schema_version": 1}).hash == (
            "0494869add27556f21a1aacf7e70fbfa70adb33b239184a5301f0d1ce7d5cb05")
        assert config_from_dict(tiny_raw()).hash == (
            "a0fc1452783ca6527c84221add6fbc4f68e5a1d41df8f04e39f2a44cfdd38443")

    def test_channels_follow_device(self):
        one = config_from_dict(tiny_raw())
        assert one.make_model().n_channels == one.make_env(0).n_channels == 1
        two = config_from_dict({"schema_version": 1})
        assert two.make_model().n_channels == two.make_env(0).n_channels == 3

    def test_noise_section_builds_noise_config(self):
        cfg = config_from_dict(tiny_raw(noise={"enabled": True, "alpha": 0.5}))
        assert cfg.env.noise is not None
        assert cfg.env.noise.alpha == 0.5
        assert cfg.env.noise.sigma_b == 0.0105  # untouched default

    def test_gaussian_kernel_built_on_env_grid(self):
        cfg = config_from_dict(
            tiny_raw(kernel={"type": "gaussian", "mean_delay": 1.0, "stddev": 0.3})
        )
        assert cfg.env.kernel is not None
        assert cfg.env.kernel.dt == pytest.approx(cfg.env.dt)

    def test_hash_stable_and_sensitive(self):
        a = config_from_dict(tiny_raw())
        b = config_from_dict(tiny_raw())
        assert a.hash == b.hash
        c = config_from_dict(tiny_raw(env={"protocol_time": 9.0}))
        assert c.hash != a.hash

    def test_overrides_apply_and_change_hash(self):
        base = config_from_dict(tiny_raw())
        cfg = config_from_dict(tiny_raw(), seed_override=[7, 8], budget_override=1,
                               out_override="elsewhere")
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
            load_config(tmp_path / "missing.yaml")
        empty = tmp_path / "empty.yaml"
        empty.write_text("")
        with pytest.raises(ConfigError, match="empty"):
            load_config(empty)
        bad = tmp_path / "bad.yaml"
        bad.write_text("a: [unclosed")
        with pytest.raises(ConfigError, match="malformed"):
            load_config(bad)

    @pytest.mark.parametrize("mode", ["u_tomo_plus_pulse", "u_noisy_plus_pulse"])
    def test_removed_observation_modes_rejected(self, tmp_path, mode):
        # their payloads are those of u_noisefree_plus_pulse and u_plus_pulse
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(tiny_raw(env={"observation_mode": mode})))
        with pytest.raises(ConfigError, match=mode):
            load_config(path)

    def test_load_config_round_trip(self, tmp_path):
        path = tmp_path / "exp.yaml"
        path.write_text(yaml.safe_dump(tiny_raw()))
        cfg = load_config(path)
        assert cfg.hash == config_from_dict(tiny_raw()).hash


class TestEpisodeRecords:
    def test_json_round_trip_with_extras(self):
        rec = EpisodeRecord(3, 1, 1.5, 2.0, 0.01, 12.5, "abc", extras={"alpha": 0.2})
        back = EpisodeRecord.from_json(rec.to_json())
        assert back == rec

    def test_non_finite_values_become_null(self):
        rec = EpisodeRecord(0, 0, float("nan"), 1.0, 0.0, 1.0, "h",
                            extras={"critic_loss": float("inf")})
        data = json.loads(rec.to_json())
        assert data["return"] is None and data["critic_loss"] is None

    def test_extras_cannot_shadow_core_fields(self):
        rec = EpisodeRecord(0, 0, 1.0, 1.0, 0.0, 1.0, "h", extras={"nlif": 9.0})
        with pytest.raises(ValueError, match="collides"):
            rec.to_json()

    def test_records_equal_ignores_wall_time(self):
        a = EpisodeRecord(0, 0, 1.0, 1.0, 0.0, 10.0, "h")
        b = EpisodeRecord(0, 0, 1.0, 1.0, 0.0, 99.0, "h")
        assert records_equal(a, b)
        c = EpisodeRecord(0, 0, 1.0, 1.1, 0.0, 10.0, "h")
        assert not records_equal(a, c)
        # the update time among the extras is volatile too; other extras are not
        d = EpisodeRecord(0, 0, 1.0, 1.0, 0.0, 10.0, "h", extras={"update_ms": 3.0, "alpha": 0.5})
        e = EpisodeRecord(0, 0, 1.0, 1.0, 0.0, 10.0, "h", extras={"update_ms": 7.0, "alpha": 0.5})
        assert records_equal(d, e)
        f = EpisodeRecord(0, 0, 1.0, 1.0, 0.0, 10.0, "h", extras={"update_ms": 3.0, "alpha": 0.6})
        assert not records_equal(d, f)

    def test_file_round_trip(self, tmp_path):
        records = [EpisodeRecord(k, 0, float(k), 0.5, 0.0, 1.0, "h") for k in range(4)]
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
            assert all(r.config_hash == cfg.hash for r in records)
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
        cfg = config_from_dict(tiny_raw())
        cmd_train(cfg, out=outdir / "a")
        cmd_train(cfg, out=outdir / "b")
        ra = read_records(outdir / "a" / "train_seed0.jsonl")
        rb = read_records(outdir / "b" / "train_seed0.jsonl")
        assert len(ra) == len(rb)
        assert all(records_equal(x, y) for x, y in zip(ra, rb))
        assert all(r.extras["update_ms"] >= 0.0 for r in ra)
        with np.load(outdir / "a" / "agent_seed0.npz") as da, \
                np.load(outdir / "b" / "agent_seed0.npz") as db:
            assert set(da.files) == set(db.files)
            for name in da.files:
                if name != "meta_json":
                    np.testing.assert_array_equal(da[name], db[name])


    def test_periodic_evaluation_leaves_training_unchanged(self):
        # observing a run must not change it: evaluation plays its own episodes
        cfg = config_from_dict(tiny_raw(noise={"enabled": True}))

        def returns(eval_every):
            env = cfg.make_env(0)
            result = train_loop(env, cfg.make_agent(env, 0), 6, seed=0,
                                eval_every=eval_every, n_eval_episodes=2)
            assert len(result.evals) == (6 // eval_every if eval_every else 0)
            return result.returns

        np.testing.assert_array_equal(returns(0), returns(2))


@pytest.fixture()
def trained(outdir):
    cfg = config_from_dict(tiny_raw())
    cmd_train(cfg, out=outdir / "t")
    return cfg, outdir / "t" / "agent_seed0.npz"


class TestEvaluateCommand:
    def test_noise_free_dynamic_equals_frozen(self, outdir, trained):
        cfg, ckpt = trained
        summary = cmd_evaluate(cfg, ckpt, episodes=5, out=outdir / "ev")
        assert summary["episodes"] == 5
        assert summary["dynamic_nlif"]["mean"] == summary["frozen_nlif"]["mean"]
        records = read_records(outdir / "ev" / "evaluate.jsonl")
        assert len(records) == 5
        for rec in records:
            assert rec.extras["frozen_nlif"] == rec.nlif

    def test_incompatible_checkpoint_rejected(self, outdir, trained):
        _, ckpt = trained
        other = config_from_dict(tiny_raw(agent={"hidden": [6, 6]}))
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_evaluate(other, ckpt, episodes=2, out=outdir / "ev2")

    def test_zero_episodes_rejected_before_writing(self, outdir, trained):
        cfg, ckpt = trained
        with pytest.raises(ConfigError, match="episodes must be at least 1"):
            cmd_evaluate(cfg, ckpt, episodes=0, out=outdir / "ev0")
        assert not (outdir / "ev0").exists()

    def test_missing_checkpoint_rejected(self, outdir):
        cfg = config_from_dict(tiny_raw())
        with pytest.raises(ConfigError, match="checkpoint"):
            cmd_evaluate(cfg, outdir / "nope.npz", episodes=1)


class TestSweepCommand:
    def test_single_cell_grid(self, outdir):
        cfg = config_from_dict(
            tiny_raw(sweep={"times": [8.0], "segments": [8], "budget_episodes": 2})
        )
        summary = cmd_sweep(cfg, out=outdir / "sw")
        assert summary["n_rows"] == 1 and summary["n_cols"] == 1
        assert summary["cells"][0]["status"] == "ok"
        lines = (outdir / "sw" / "sweep.tsv").read_text().splitlines()
        assert lines[0] == f"# config_hash={cfg.hash}"
        assert len(lines) == 3  # hash, header, one cell

    def test_grid_shape_and_failed_cell_marked(self, outdir):
        cfg = config_from_dict(
            tiny_raw(sweep={"times": [8.0], "segments": [8, 3], "budget_episodes": 1})
        )
        summary = cmd_sweep(cfg, out=outdir / "sw2")
        by_segments = {c["n_segments"]: c for c in summary["cells"]}
        assert by_segments[8]["status"] == "ok"
        assert by_segments[3]["status"] == "failed"  # too few segments for tails
        assert by_segments[3]["mean_nlif"] is None
        lines = (outdir / "sw2" / "sweep.tsv").read_text().splitlines()
        assert len(lines) == 4

    def test_zero_budget_trains_zero_episodes(self, outdir, monkeypatch):
        # an explicit sweep budget of 0 must not fall back to the top-level budget
        budgets = []

        def recording_train_loop(env, agent, n_episodes, **kwargs):
            budgets.append(n_episodes)
            return train_loop(env, agent, n_episodes, **kwargs)

        monkeypatch.setattr("qdrl.harness.commands.train_loop", recording_train_loop)
        cfg = config_from_dict(
            tiny_raw(sweep={"times": [8.0], "segments": [8], "budget_episodes": 0})
        )
        summary = cmd_sweep(cfg, out=outdir / "sw0")
        assert budgets == [0]
        assert summary["cells"][0]["status"] == "ok"

    def test_empty_grid_rejected(self, outdir):
        cfg = config_from_dict(tiny_raw())
        with pytest.raises(ConfigError, match="sweep"):
            cmd_sweep(cfg, out=outdir / "sw_bad")
        assert not (outdir / "sw_bad").exists()

    def test_worker_pool_matches_serial(self, outdir):
        raw = tiny_raw(sweep={"times": [8.0], "segments": [8, 9], "budget_episodes": 1})
        serial = cmd_sweep(config_from_dict(raw), out=outdir / "s1", workers=1)
        pooled = cmd_sweep(config_from_dict(raw), out=outdir / "s2", workers=2)
        assert serial["cells"] == pooled["cells"]

    def test_worker_processes_evolve_serially(self, outdir, monkeypatch):
        # each worker shares the cores with its siblings: qcore runs it on one
        options = {}

        class Recording(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                options.update(kwargs)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("qdrl.harness.commands.ProcessPoolExecutor", Recording)
        raw = tiny_raw(sweep={"times": [8.0], "segments": [8, 9], "budget_episodes": 0})
        cmd_sweep(config_from_dict(raw), out=outdir / "s3", workers=2)
        assert options["initializer"] is qcore.evolve_serially


class TestExportProtocol:
    def test_export_and_round_trip_nlif(self, outdir, trained):
        cfg, ckpt = trained
        summary = cmd_export_protocol(cfg, ckpt, out=outdir / "ex")
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
        cfg, ckpt = trained
        cmd_export_protocol(cfg, ckpt, out=outdir / "ex2")
        lines = (outdir / "ex2" / "protocol.tsv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split("\t")
        assert header[:3] == ["segment_index", "time_ns", "eps_ch1_mV"]
        assert "shaped_ch1_mV" in header
        body = [l for l in lines if not l.startswith("#")][1:]
        assert len(body) == cfg.env.n_segments


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
        cfg = config_from_dict(tiny_raw())
        path = self._protocol_file(outdir, cfg)
        summary = cmd_analyze(cfg, path, initial_state="0", out=outdir / "an")
        assert summary["fluence"] == 0.0
        assert summary["fluence_relative"] == 0.0

    def test_expectations_bounded_and_files_written(self, outdir):
        cfg = config_from_dict(tiny_raw())
        path = self._protocol_file(outdir, cfg, fill=1.0)
        summary = cmd_analyze(cfg, path, initial_state="0", out=outdir / "an2")
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
                     env={"observation_mode": "u_exact"})
        )
        path = self._protocol_file(outdir, cfg, fill=0.5)
        summary = cmd_analyze(cfg, path, initial_state="10", out=outdir / "an3")
        lines = (outdir / "an3" / "bloch.tsv").read_text().splitlines()
        header = [l for l in lines if not l.startswith("#")][0].split("\t")
        assert header == ["time_ns", "q1_x", "q1_y", "q1_z",
                          "q2_x", "q2_y", "q2_z", "block_norm"]
        assert len(summary["final_bloch"]) == 6
        assert summary["final_block_norm"] <= 1.0 + 1e-12

    @pytest.mark.parametrize("device, label", [
        ("single_qubit", "2"),
        ("single_qubit", "10"),  # the resolved-config default
        ("two_qubit", "0"),
    ])
    def test_unknown_initial_state_rejected(self, outdir, device, label):
        valid = {"single_qubit": "0, 1", "two_qubit": "00, 01, 10, 11"}[device]
        cfg = config_from_dict(tiny_raw(device={"type": device}))
        path = self._protocol_file(outdir, cfg)
        with pytest.raises(ConfigError, match=f"initial state .*use one of {valid}$"):
            cmd_analyze(cfg, path, initial_state=label, out=outdir / "an_bad")
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
        cfg = self._noisy_cfg()
        path = self._protocol_file(outdir, cfg)
        summary = cmd_scale_sweep(cfg, path, out=outdir / "ss")
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
        ))
        path = self._protocol_file(outdir, cfg)
        summary = cmd_scale_sweep(cfg, path, out=outdir / "ss2")
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
        ))
        path = self._protocol_file(outdir, cfg)
        summary = cmd_scale_sweep(cfg, path, out=outdir / "ss3")
        nf = summary["noise_free_infidelity"]
        for row in summary["rows"]:
            for name in ("hyperfine", "slow_charge", "fast_charge", "all"):
                assert row[name] == pytest.approx(nf, abs=1e-9), (
                    f"scale {row['scale']} column {name}")

    def test_bad_mode_rejected(self, outdir):
        cfg = self._noisy_cfg()
        path = self._protocol_file(outdir, cfg)
        with pytest.raises(ConfigError, match="mode"):
            cmd_scale_sweep(cfg, path, mode="sideways", out=outdir / "ss_bad")
        assert not (outdir / "ss_bad").exists()

    @pytest.mark.parametrize("scales, mode", [
        ([], "noise"),
        ([1.0, -2.0], "noise"),
        ([0.0], "time_energy"),
    ])
    def test_bad_scales_rejected_before_writing(self, outdir, scales, mode):
        cfg = config_from_dict(tiny_raw(
            noise={"enabled": True}, scale_sweep={"scales": scales, "mode": mode},
        ))
        path = self._protocol_file(outdir, cfg)
        with pytest.raises(ConfigError, match="scales"):
            cmd_scale_sweep(cfg, path, out=outdir / "ss_bad")
        assert not (outdir / "ss_bad").exists()

    def test_zero_noise_scale_is_noise_free(self, outdir):
        cfg = config_from_dict(tiny_raw(
            noise={"enabled": True},
            scale_sweep={"scales": [0.0], "mode": "noise", "realizations": 2},
        ))
        summary = cmd_scale_sweep(cfg, self._protocol_file(outdir, cfg), out=outdir / "ss0")
        row = summary["rows"][0]
        for name in ("hyperfine", "slow_charge", "fast_charge", "all"):
            assert row[name] == pytest.approx(summary["noise_free_infidelity"], abs=1e-12)


class TestTomoCalibrateCommand:
    def _cfg(self):
        return config_from_dict(tiny_raw(
            tomo={"dim": 2, "shots": [100, 1000, 10_000],
                  "sigmas": [0.001, 0.01, 0.1], "trials": 4},
        ))

    def test_map_persisted_and_loads_back(self, outdir):
        summary = cmd_tomo_calibrate(self._cfg(), out=outdir / "tc")
        mapping = SigmaShotsMap.load(outdir / "tc" / "sigma_shots.json")
        assert mapping.dim == 2
        assert mapping.shots_slope == pytest.approx(summary["shots_slope"])
        assert summary["shots_slope"] < 0  # more shots, lower infidelity

    def test_rerun_reproduces_fit(self, outdir):
        s1 = cmd_tomo_calibrate(self._cfg(), out=outdir / "t1")
        s2 = cmd_tomo_calibrate(self._cfg(), out=outdir / "t2")
        assert s1["shots_slope"] == s2["shots_slope"]
        assert s1["sigma_for_1e5_shots"] == s2["sigma_for_1e5_shots"]


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
