"""Agent-level oracles: bootstrap targets, replay, training loop, checkpoints.

The learning check uses a tiny one-dimensional integrator task whose optimal
return is known exactly (2.0): the policy must steer the state onto a target
within a few hundred episodes. Everything else is closed-form: terminal
transitions bootstrap to the bare reward, polyak mixing follows its formula
exactly, target networks move only through polyak mixing, and replay sampling
is uniform by a chi-square test.
"""
from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qdrl.qcore import DeviceParams
from qdrl.rlenv import DeviceModel, EnvConfig, GateSynthesisEnv, RewardMode, StepResult
from qdrl.rlagent import (
    DivergenceError,
    ReplayBuffer,
    SacAgent,
    SacConfig,
    config_hash,
    evaluate_policy,
    polyak_update,
    sac,
    train_loop,
)
from qdrl.tomography import DegenerateAnchorError

SMALL = dict(
    hidden=(16, 16),
    batch_size=16,
    replay_capacity=2000,
    warmup_steps=40,
    n_quantiles=8,
    kept_quantiles=5,
)


def small_agent(obs_dim=3, act_dim=2, seed=0, **overrides) -> SacAgent:
    cfg = SacConfig(**{**SMALL, **overrides})
    return SacAgent(obs_dim, act_dim, cfg, seed=seed)


def random_batch(rng, n, obs_dim=3, act_dim=2, done=0.0, reward=None):
    return {
        "obs": rng.normal(size=(n, obs_dim)),
        "act": rng.uniform(-1, 1, size=(n, act_dim)),
        "reward": rng.normal(size=n) if reward is None else np.full(n, float(reward)),
        "next_obs": rng.normal(size=(n, obs_dim)),
        "done": np.full(n, float(done)),
    }


class LineEnv:
    """Five-step integrator: drive x from 0 to 1, terminal reward peaks at 2."""

    horizon = 5
    observation_size = 2

    def reset(self, seed=None):
        self._x = 0.0
        self._k = 0
        return self._obs()

    def _obs(self):
        return np.array([(self.horizon - self._k) / self.horizon, self._x])

    def step(self, action):
        a = float(np.clip(np.asarray(action, dtype=float).reshape(-1)[0], -1.0, 1.0))
        self._x += 0.4 * a
        self._k += 1
        done = self._k == self.horizon
        reward = 2.0 * np.exp(-4.0 * (self._x - 1.0) ** 2) if done else 0.0
        return StepResult(self._obs(), reward, done, {"nlif": reward, "leakage": 0.0})


class CountingLineEnv(LineEnv):
    """LineEnv that counts its steps."""

    steps = 0

    def step(self, action):
        self.steps += 1
        return super().step(action)


class TestSacConfig:
    def test_defaults_valid(self):
        cfg = SacConfig()
        assert cfg.hidden == (512, 512)
        assert cfg.n_quantiles == 46 and cfg.kept_quantiles == 25 and cfg.n_critics == 2
        assert cfg.gamma == 0.99 and cfg.polyak == 0.005
        assert cfg.learning_rate == 5e-4 and cfg.batch_size == 256
        assert cfg.temperature is None  # auto-tuned

    def test_hidden_coerced_to_tuple(self):
        assert SacConfig(hidden=[64, 32]).hidden == (64, 32)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(gamma=1.5),
            dict(gamma=-0.1),
            dict(polyak=0.0),
            dict(polyak=1.5),
            dict(learning_rate=0.0),
            dict(kept_quantiles=0),
            dict(kept_quantiles=200, n_quantiles=10, n_critics=2),
            dict(batch_size=0),
            dict(batch_size=1000, replay_capacity=500),
            dict(temperature=-1.0),
            dict(init_temperature=0.0),
            dict(hidden=()),
        ],
    )
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SacConfig(**kwargs)

    def test_hash_stable_and_sensitive(self):
        a = config_hash(SacConfig())
        assert a == config_hash(SacConfig())
        assert a != config_hash(SacConfig(gamma=0.95))
        assert len(a) == 64


class TestReplayBuffer:
    def test_ring_overwrites_oldest(self):
        buf = ReplayBuffer(3, 1, 1)
        for k in range(5):
            buf.add([k], [0.0], float(k), [0.0], False)
        assert len(buf) == 3
        rng = np.random.default_rng(0)
        batch = buf.sample(3, rng)
        assert sorted(batch["reward"].tolist()) == [2.0, 3.0, 4.0]

    def test_sample_without_replacement(self):
        buf = ReplayBuffer(10, 1, 1)
        for k in range(10):
            buf.add([k], [0.0], float(k), [0.0], False)
        batch = buf.sample(10, np.random.default_rng(1))
        assert sorted(batch["reward"].tolist()) == [float(k) for k in range(10)]

    def test_oversample_rejected(self):
        buf = ReplayBuffer(10, 1, 1)
        buf.add([0], [0.0], 0.0, [0.0], False)
        with pytest.raises(ValueError, match="cannot sample"):
            buf.sample(2, np.random.default_rng(0))

    def test_sampling_is_uniform(self):
        """Chi-square on 1e5 index draws must not reject uniformity at 1%."""
        n = 500
        buf = ReplayBuffer(n, 1, 1)
        for k in range(n):
            buf.add([0.0], [0.0], float(k), [0.0], False)
        rng = np.random.default_rng(42)
        counts = np.zeros(n)
        for _ in range(1000):
            idx = buf.sample(100, rng)["reward"].astype(int)
            counts[idx] += 1
        assert counts.sum() == 100_000
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 0.01

    def test_returned_arrays_are_copies(self):
        buf = ReplayBuffer(4, 2, 1)
        buf.add([1.0, 2.0], [0.5], 1.0, [3.0, 4.0], False)
        batch = buf.sample(1, np.random.default_rng(0))
        batch["obs"][...] = 99.0
        assert buf.sample(1, np.random.default_rng(0))["obs"][0, 0] == 1.0


class TestCriticTargets:
    def test_terminal_transition_bootstraps_to_reward(self):
        agent = small_agent()
        batch = random_batch(np.random.default_rng(0), 6, done=1.0)
        y = agent.critic_targets(batch)
        assert y.shape == (6, agent.config.kept_quantiles)
        np.testing.assert_allclose(y, np.broadcast_to(batch["reward"][:, None], y.shape), rtol=1e-14)

    def test_zero_discount_bootstraps_to_reward(self):
        agent = small_agent(gamma=0.0)
        batch = random_batch(np.random.default_rng(1), 6, done=0.0)
        y = agent.critic_targets(batch)
        np.testing.assert_allclose(y, np.broadcast_to(batch["reward"][:, None], y.shape), rtol=1e-14)

    def test_keeping_all_quantiles_gives_plain_mean(self):
        # Two agents built identically: one computes targets normally, the
        # twin replays the same sampling by hand to expose the pooled atoms.
        full = SMALL["n_quantiles"] * 2
        agent = small_agent(seed=3, kept_quantiles=full, temperature=0.7)
        twin = small_agent(seed=3, kept_quantiles=full, temperature=0.7)
        batch = random_batch(np.random.default_rng(2), 5, done=0.0, reward=0.3)
        y = agent.critic_targets(batch)

        xi = twin._rng.normal(size=(5, twin.act_dim))
        next_act, next_logp, _ = twin.policy.sample_cached(batch["next_obs"], xi)
        pooled = np.concatenate(
            [t.forward(batch["next_obs"], next_act)[0] for t in twin.target_critics], axis=1
        )
        expected_mean = 0.3 + twin.config.gamma * (
            pooled.mean(axis=1) - 0.7 * next_logp
        )
        np.testing.assert_allclose(y.mean(axis=1), expected_mean, rtol=1e-12)
        # atoms come out sorted: truncation keeps the smallest ones
        assert np.all(np.diff(y, axis=1) >= 0)

    def test_truncation_keeps_smallest_atoms(self):
        agent = small_agent(seed=4, kept_quantiles=3, temperature=0.5)
        twin = small_agent(seed=4, kept_quantiles=SMALL["n_quantiles"] * 2, temperature=0.5)
        batch = random_batch(np.random.default_rng(3), 4, done=0.0, reward=0.0)
        y_trunc = agent.critic_targets(batch)
        y_full = twin.critic_targets(batch)
        np.testing.assert_allclose(y_trunc, y_full[:, :3], rtol=1e-12)
        assert y_trunc.mean() < y_full.mean()


class TestPolyakUpdate:
    def test_closed_form(self):
        src = [np.array([1.0, 2.0]), np.array([[3.0]])]
        tgt = [np.array([0.0, 0.0]), np.array([[1.0]])]
        polyak_update(src, tgt, 0.1)
        np.testing.assert_allclose(tgt[0], [0.1, 0.2], rtol=1e-15)
        np.testing.assert_allclose(tgt[1], [[0.1 * 3.0 + 0.9 * 1.0]], rtol=1e-15)

    def test_rho_one_copies_source(self):
        src = [np.array([5.0])]
        tgt = [np.array([-5.0])]
        polyak_update(src, tgt, 1.0)
        np.testing.assert_array_equal(tgt[0], [5.0])

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            polyak_update([np.zeros(2)], [np.zeros(2), np.zeros(2)], 0.5)

    def test_in_place_update_equals_out_of_place_reference(self):
        rng = np.random.default_rng(12)
        src = [rng.normal(size=(7, 5)), rng.normal(size=5)]
        tgt = [rng.normal(size=(7, 5)), rng.normal(size=5)]
        for rho in (0.005, 0.3):
            reference = [rho * s + (1.0 - rho) * t for s, t in zip(src, tgt)]
            polyak_update(src, tgt, rho)
            for got, want in zip(tgt, reference):
                np.testing.assert_array_equal(got, want)


class TestUpdate:
    def test_targets_move_only_through_polyak(self):
        agent = small_agent(seed=5)
        batch = random_batch(np.random.default_rng(4), SMALL["batch_size"])
        before = [[p.copy() for p in t.params()] for t in agent.target_critics]
        agent.update(batch)
        rho = agent.config.polyak
        for critic, target, old in zip(agent.critics, agent.target_critics, before):
            for src, tgt, prev in zip(critic.params(), target.params(), old):
                np.testing.assert_allclose(tgt, rho * src + (1 - rho) * prev, rtol=1e-12)

    def test_update_returns_finite_metrics_and_counts(self):
        agent = small_agent(seed=6)
        batch = random_batch(np.random.default_rng(5), SMALL["batch_size"])
        metrics = agent.update(batch)
        for key in ("critic_loss", "policy_loss", "alpha", "entropy", "q_mean", "target_mean"):
            assert np.isfinite(metrics[key])
        assert agent.updates_done == 1

    def test_entropy_above_target_lowers_alpha(self):
        agent = small_agent(seed=7, target_entropy=-100.0)
        batch = random_batch(np.random.default_rng(6), SMALL["batch_size"])
        before = agent.alpha
        agent.update(batch)
        assert agent.alpha < before

    def test_entropy_below_target_raises_alpha(self):
        agent = small_agent(seed=8, target_entropy=100.0)
        batch = random_batch(np.random.default_rng(7), SMALL["batch_size"])
        before = agent.alpha
        agent.update(batch)
        assert agent.alpha > before

    def test_fixed_temperature_never_moves(self):
        agent = small_agent(seed=9, temperature=0.25)
        batch = random_batch(np.random.default_rng(8), SMALL["batch_size"])
        agent.update(batch)
        assert agent.alpha == 0.25
        assert agent.alpha_opt is None

    def test_divergence_raises_with_metrics(self):
        agent = small_agent(seed=10)
        agent.policy.mean_head.w[0, 0] = np.nan
        batch = random_batch(np.random.default_rng(9), SMALL["batch_size"])
        with pytest.raises(DivergenceError) as err, np.errstate(all="ignore"):
            agent.update(batch)
        assert err.value.metrics  # diagnostic payload present

    def test_default_shapes_construct_and_update(self):
        # Full quantile layout (2 x 46 pooled, keep 25) on a small trunk.
        agent = SacAgent(
            4, 2, SacConfig(hidden=(32, 32), batch_size=8, warmup_steps=0), seed=11
        )
        batch = random_batch(np.random.default_rng(10), 8, obs_dim=4)
        y = agent.critic_targets(batch)
        assert y.shape == (8, 25)
        metrics = agent.update(batch)
        assert np.isfinite(metrics["critic_loss"])


class TestTargetCritics:
    def test_targets_equal_the_critics_and_share_no_array(self):
        agent = small_agent(seed=13)
        for critic, target in zip(agent.critics, agent.target_critics, strict=True):
            for src, tgt in zip(critic.params(), target.params(), strict=True):
                np.testing.assert_array_equal(tgt, src)
        online = [a for c in agent.critics for a in c.params()]
        for target in agent.target_critics:
            for tgt in target.params():
                assert not any(np.shares_memory(tgt, a) for a in online)


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads VmRSS from procfs")
def test_fresh_agent_pages_only_the_arrays_it_writes():
    # a default-size agent (36 observations, 3 actions, hidden (512, 512))
    # writes its ~12 MB of parameters and holds no gradient arrays; its
    # ~14 MB of Adam moments stay unpaged until an update or a checkpoint
    # load writes them
    script = textwrap.dedent("""
        import numpy as np
        from qdrl.rlagent import SacAgent

        def rss_mb():
            with open("/proc/self/status") as status:
                for line in status:
                    if line.startswith("VmRSS:"):
                        return int(line.split()[1]) / 1024.0

        obs = np.linspace(-1.0, 1.0, 36)
        before = rss_mb()
        agent = SacAgent(36, 3, seed=0)
        for _ in range(10):
            agent.act(obs, deterministic=True)
        print(rss_mb() - before)
    """)
    src = str(Path(sac.__file__).parents[2])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": path}, check=True)
    growth = float(result.stdout)
    assert growth < 20.0, f"a fresh agent grew VmRSS by {growth:.1f} MB"


class TestActing:
    def test_actions_bounded_and_deterministic_mode_repeats(self):
        agent = small_agent(seed=12)
        obs = np.random.default_rng(11).normal(size=3)
        a1 = agent.act(obs, deterministic=True)
        a2 = agent.act(obs, deterministic=True)
        np.testing.assert_array_equal(a1, a2)
        assert np.all(np.abs(a1) < 1.0)
        stochastic = np.stack([agent.act(obs) for _ in range(8)])
        assert np.all(np.abs(stochastic) < 1.0)
        assert np.std(stochastic) > 0.0


class TestTrainLoop:
    def test_learns_line_task(self):
        """Return must reach 95% of the known optimum (2.0) on the integrator."""
        cfg = SacConfig(
            hidden=(32, 32),
            batch_size=64,
            replay_capacity=20_000,
            warmup_steps=250,
            learning_rate=1e-3,
            n_quantiles=12,
            kept_quantiles=7,
        )
        env = LineEnv()
        agent = SacAgent(env.observation_size, 1, cfg, seed=1)
        best = -np.inf
        for _ in range(20):  # up to 2000 episodes in chunks, stop when solved
            train_loop(env, agent, 100, seed=1)
            best = max(best, evaluate_policy(env, agent, 3)["mean_return"])
            if best >= 1.9:
                break
        assert best >= 1.9

    def test_same_seed_reproduces_episode_returns(self):
        def run():
            env = LineEnv()
            agent = SacAgent(env.observation_size, 1, SacConfig(**SMALL), seed=3)
            result = train_loop(env, agent, 30, seed=3)
            return [e["return"] for e in result.episodes]

        first, second = run(), run()
        np.testing.assert_array_equal(first, second)

    def test_different_seed_changes_trajectories(self):
        env = LineEnv()

        def returns(seed):
            result = train_loop(env, SacAgent(2, 1, SacConfig(**SMALL), seed=seed), 20, seed=seed)
            return [e["return"] for e in result.episodes]

        assert not np.array_equal(returns(4), returns(5))

    def test_episode_records_and_callback(self):
        env = LineEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=6)
        seen = []
        result = train_loop(env, agent, 12, seed=6, eval_every=5, n_eval_episodes=2,
                            on_episode=seen.append)
        assert len(result.episodes) == 12 and len(seen) == 12
        assert [r["episode"] for r in result.episodes] == list(range(12))
        assert len(result.evals) == 2  # after episodes 5 and 10
        rec = result.episodes[-1]
        assert set(rec) >= {"episode", "env_steps", "return", "nlif", "leakage",
                            "alpha", "critic_loss", "policy_loss", "entropy", "update_ms"}
        # updates were running by the end, so losses are real numbers
        assert np.isfinite(rec["critic_loss"])
        # the first episode is all warmup (40 steps of 5-step episodes)
        assert result.episodes[0]["update_ms"] == 0.0
        assert rec["update_ms"] > 0.0

    def test_divergence_saves_diagnostic_checkpoint(self, tmp_path):
        env = LineEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=7)
        diag = tmp_path / "diag.npz"

        original = agent.update

        def poisoned(batch):
            agent.policy.mean_head.w[0, 0] = np.inf
            return original(batch)

        agent.update = poisoned
        with pytest.raises(DivergenceError, match="diverged at step"), np.errstate(all="ignore"):
            train_loop(env, agent, 50, seed=7, diagnostic_path=diag)
        assert diag.exists()
        restored = SacAgent.load(diag)
        assert not np.isfinite(restored.policy.mean_head.w[0, 0])

    @pytest.mark.parametrize("eval_every, n_eval_episodes, match", [
        (3, 0, "n_eval_episodes >= 1"),
        (-2, 4, "eval_every must be >= 0"),
    ])
    def test_bad_evaluation_settings_rejected_before_training(self, eval_every,
                                                               n_eval_episodes, match):
        env = CountingLineEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=8)
        with pytest.raises(ValueError, match=match):
            train_loop(env, agent, 6, seed=8, eval_every=eval_every,
                       n_eval_episodes=n_eval_episodes)
        assert env.steps == 0

    def test_degenerate_anchor_episode_retried_and_excluded(self):
        class FlakyEnv(LineEnv):
            def __init__(self):
                self.episodes_started = 0

            def reset(self, seed=None):
                self.episodes_started += 1
                return super().reset(seed)

            def step(self, action):
                result = super().step(action)
                if result.done and self.episodes_started == 1:
                    raise DegenerateAnchorError("anchor collapsed")
                return result

        env = FlakyEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=8)
        result = train_loop(env, agent, 10, seed=8)
        assert len(result.episodes) == 10
        # the dropped attempt is counted on the episode that landed after it
        assert [r["anchor_retries"] for r in result.episodes] == [1] + [0] * 9
        # initial reset + one retry + a fresh reset after each finished episode
        assert env.episodes_started == 12

    def test_persistent_anchor_failure_eventually_raises(self, monkeypatch):
        class BrokenEnv(LineEnv):
            def step(self, action):
                result = super().step(action)
                if result.done:
                    raise DegenerateAnchorError("always broken")
                return result

        env = BrokenEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=9)
        monkeypatch.setattr(sac, "MAX_ANCHOR_RETRIES", 3)
        with pytest.raises(DegenerateAnchorError):
            train_loop(env, agent, 5, seed=9)


class RandomTableAgent:
    """Plays a fresh uniform random action table every episode."""

    def __init__(self, n_actions: int, seed: int):
        self.n_actions = n_actions
        self.rng = np.random.default_rng(seed)
        self.tables = []

    def act(self, obs, deterministic=False):
        k = round((1.0 - obs[0]) * self.n_actions)  # actions taken so far
        if k == 0:
            self.tables.append(self.rng.uniform(-1.0, 1.0, size=(self.n_actions, 1)))
        return self.tables[-1][k]


class TestEvaluatePolicy:
    def test_no_episodes_rejected_before_playing(self):
        env = CountingLineEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=9)
        with pytest.raises(ValueError, match="n_episodes must be at least 1"):
            evaluate_policy(env, agent, 0)
        assert env.steps == 0

    def test_degenerate_anchor_episode_retried(self):
        # a one-qubit tomographic reward at 8 snapshots, the fewest that can
        # invert, on the shortest protocol (one action): its record is rank
        # deficient for one random table in 40 to 60 (23 of 1000 over seeds
        # 0 and 1). Which tables fail moves with the propagators' roundoff, so
        # the test holds to the invariants over 600 episodes, where about 12
        # retries are expected (12 at seed 0) and none has odds near e^-12
        cfg = EnvConfig(model=DeviceModel.single_qubit(DeviceParams()), n_segments=5,
                        oversample=2, reward_mode=RewardMode.TOMO_SNAPSHOT, n_snapshots=8)
        env = GateSynthesisEnv(cfg, seed=0)
        agent = RandomTableAgent(cfg.n_actions, seed=0)
        scores = evaluate_policy(env, agent, 600)
        retries = scores["eval_anchor_retries"]
        assert retries >= 1
        assert len(agent.tables) == 600 + retries
        assert all(np.isfinite(v) for v in scores.values())

        # the same tables on a fresh env of the same seed: exactly the
        # dropped episodes raise
        probe = GateSynthesisEnv(cfg, seed=0)
        failed = 0
        for table in agent.tables:
            try:
                probe.rollout(table)
            except DegenerateAnchorError:
                failed += 1
        assert failed == retries

    def test_persistent_anchor_failure_eventually_raises(self, monkeypatch):
        class BrokenEnv(LineEnv):
            def step(self, action):
                result = super().step(action)
                if result.done:
                    raise DegenerateAnchorError("always broken")
                return result

        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=9)
        monkeypatch.setattr(sac, "MAX_ANCHOR_RETRIES", 3)
        env = BrokenEnv()
        with pytest.raises(DegenerateAnchorError):
            evaluate_policy(env, agent, 2)


class TestBanditEntropy:
    def test_higher_temperature_keeps_broader_policy(self):
        class BanditEnv:
            observation_size = 1

            def reset(self, seed=None):
                return np.zeros(1)

            def step(self, action):
                a = float(np.asarray(action).reshape(-1)[0])
                return StepResult(np.zeros(1), -((a - 0.3) ** 2), True, {})

        def action_spread(temp: float) -> float:
            cfg = SacConfig(
                hidden=(16, 16), batch_size=32, replay_capacity=5000,
                warmup_steps=50, n_quantiles=8, kept_quantiles=5,
                temperature=temp, learning_rate=1e-3,
            )
            agent = SacAgent(1, 1, cfg, seed=11)
            train_loop(BanditEnv(), agent, 400, seed=11)
            actions = [agent.act(np.zeros(1))[0] for _ in range(300)]
            return float(np.std(actions))

        assert action_spread(0.3) > 2.0 * action_spread(1e-3)


class TestCheckpoints:
    def _trained_agent(self, tmp_path, seed=20):
        env = LineEnv()
        agent = SacAgent(2, 1, SacConfig(**SMALL), seed=seed)
        train_loop(env, agent, 15, seed=seed)
        path = tmp_path / "agent.npz"
        agent.save(path)
        return agent, path

    def test_round_trip_restores_policy_and_training_state(self, tmp_path):
        agent, path = self._trained_agent(tmp_path)
        loaded = SacAgent.load(path)
        obs = np.array([0.4, 0.2])
        np.testing.assert_array_equal(
            agent.act(obs, deterministic=True), loaded.act(obs, deterministic=True)
        )
        assert loaded.updates_done == agent.updates_done
        assert loaded.alpha == agent.alpha
        assert loaded.policy_opt.t == agent.policy_opt.t

    def test_two_loads_train_identically(self, tmp_path):
        _, path = self._trained_agent(tmp_path)
        batch = random_batch(np.random.default_rng(12), SMALL["batch_size"], obs_dim=2, act_dim=1)
        a = SacAgent.load(path, seed=1)
        b = SacAgent.load(path, seed=1)
        ma = a.update({k: v.copy() for k, v in batch.items()})
        mb = b.update({k: v.copy() for k, v in batch.items()})
        assert ma == mb

    def test_config_mismatch_rejected(self, tmp_path):
        _, path = self._trained_agent(tmp_path)
        other = SacConfig(**{**SMALL, "gamma": 0.9})
        with pytest.raises(ValueError, match="different configuration"):
            SacAgent.load(path, expected_config=other)

    def test_matching_config_accepted(self, tmp_path):
        _, path = self._trained_agent(tmp_path)
        loaded = SacAgent.load(path, expected_config=SacConfig(**SMALL))
        assert loaded.config == SacConfig(**SMALL)

    @staticmethod
    def _rewrite(path, change):
        """Apply change to the checkpoint's {name: array} dict and save it back."""
        with np.load(path, allow_pickle=False) as data:
            arrays = {k: data[k] for k in data.files}
        change(arrays)
        np.savez(path, **arrays)

    def _rewrite_meta(self, path, change):
        def on_meta(arrays):
            meta = json.loads(str(arrays["meta_json"][()]))
            change(meta)
            arrays["meta_json"] = np.array(json.dumps(meta))

        self._rewrite(path, on_meta)

    def test_unsupported_version_rejected(self, tmp_path):
        _, path = self._trained_agent(tmp_path)
        self._rewrite_meta(path, lambda meta: meta.update(version=99))
        with pytest.raises(ValueError, match="version"):
            SacAgent.load(path)

    @pytest.mark.parametrize("name, match", [
        *((name, rf"missing \['{re.escape(name)}'\]")
          for name in ("policy.0", "critic1.0", "target0.3", "critic0_opt.0")),
        ("meta_json", "no meta_json record"),
    ])
    def test_missing_array_named(self, tmp_path, name, match):
        _, path = self._trained_agent(tmp_path)
        self._rewrite(path, lambda arrays: arrays.pop(name))
        with pytest.raises(ValueError, match=match):
            SacAgent.load(path)

    @pytest.mark.parametrize("field", ["updates_done", "config"])
    def test_missing_metadata_field_named(self, tmp_path, field):
        _, path = self._trained_agent(tmp_path)
        self._rewrite_meta(path, lambda meta: meta.pop(field))
        with pytest.raises(ValueError, match=rf"lacks \['{field}'\]"):
            SacAgent.load(path)

    @pytest.mark.parametrize("change, match", [
        (lambda meta: meta["config"].update(extra_key=1), r"SacConfig lacks: \['extra_key'\]"),
        (lambda meta: meta.update(config=[1, 2]), "list, not a mapping"),
    ], ids=["unknown_key", "not_a_mapping"])
    def test_unreadable_agent_config_named(self, tmp_path, change, match):
        _, path = self._trained_agent(tmp_path)
        self._rewrite_meta(path, change)
        with pytest.raises(ValueError, match=match):
            SacAgent.load(path)

    @pytest.mark.parametrize("change, match", [
        (lambda meta: [meta], "metadata is a list, not a mapping"),
        (lambda meta: {**meta, "obs_dim": 1.5}, "obs_dim must be an int"),
        (lambda meta: {**meta, "obs_dim": "4"}, "obs_dim must be an int"),
        (lambda meta: {**meta, "act_dim": True}, "act_dim must be an int"),
        (lambda meta: {**meta, "updates_done": None}, "updates_done must be an int"),
        (lambda meta: {**meta, "config_hash": 5}, "config_hash must be a string"),
    ], ids=["list", "float_obs_dim", "string_obs_dim", "bool_act_dim", "null_updates_done",
            "int_config_hash"])
    def test_malformed_metadata_named(self, tmp_path, change, match):
        _, path = self._trained_agent(tmp_path)

        def on_meta(arrays):
            meta = json.loads(str(arrays["meta_json"][()]))
            arrays["meta_json"] = np.array(json.dumps(change(meta)))

        self._rewrite(path, on_meta)
        with pytest.raises(ValueError, match=match):
            SacAgent.load(path, expected_config=SacConfig(**SMALL))

    def test_unexpected_array_named(self, tmp_path):
        _, path = self._trained_agent(tmp_path)
        self._rewrite(path, lambda arrays: arrays.update({"critic2.0": arrays["critic1.0"]}))
        with pytest.raises(ValueError, match=r"unexpected \['critic2\.0'\]"):
            SacAgent.load(path)

    @pytest.mark.parametrize("kind", ["empty", "truncated", "single_array"])
    def test_incomplete_archive_named_and_closed(self, tmp_path, kind):
        # in a child under -X dev, where a file left open shows on stderr
        _, path = self._trained_agent(tmp_path)
        bad = tmp_path / f"{kind}.npz"
        if kind == "single_array":
            with open(bad, "wb") as file:
                np.save(file, np.zeros(3))
        else:
            bad.write_bytes(path.read_bytes()[:2000 if kind == "truncated" else 0])
        script = textwrap.dedent("""
            import gc, sys
            from qdrl.rlagent import SacAgent
            for source in (sys.argv[1], open(sys.argv[1], "rb")):
                try:
                    SacAgent.load(source)
                except ValueError as err:
                    print(err)
            source.close()
            gc.collect()
        """)
        src = str(Path(sac.__file__).parents[2])
        pythonpath = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        result = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error::ResourceWarning", "-c", script, str(bad)],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": pythonpath})
        assert result.returncode == 0 and result.stderr == "", result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 2 and all(f"{kind}.npz" in line for line in lines), lines

