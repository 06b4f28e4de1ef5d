from __future__ import annotations

import numpy as np
import pytest

from qdrl import qcore
from qdrl.noise import NoiseConfig
from qdrl.pulse import (
    TAIL_SEGMENTS,
    assemble_sequence,
    convolve,
    delta_kernel,
    gaussian_kernel,
    oversample,
)
from qdrl.qcore import (
    DeviceParams,
    cnot_target,
    computational_block,
    nlif,
    phase_gate_target,
    propagate,
    step_propagator,
)
from qdrl.rlenv import (
    EnvConfig,
    GateSynthesisEnv,
    ObservationMode,
    RewardMode,
    SingleQubitModel,
    TwoQubitModel,
)

QUIET = dict(n_segments=16, protocol_time=16.0, oversample=4)


def small_env(seed=0, **overrides):
    return GateSynthesisEnv(EnvConfig(**{**QUIET, **overrides}), seed=seed)


def one_qubit_env(config=None, b=1.0, seed=0):
    """The one-qubit benchmark: 10 ns, 24 segments (20 actions), phase-gate target."""
    config = config if config is not None else EnvConfig(protocol_time=10.0, n_segments=24)
    return GateSynthesisEnv(config, model=SingleQubitModel(config.device, b=b), seed=seed)


def random_actions(env, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(env.config.n_actions, env.n_channels))


def final_propagator(shaped, params):
    """Ordered product of the exact substep exponentials of a shaped trace."""
    h = TwoQubitModel(params).hamiltonians(shaped.values)
    return propagate(step_propagator(h, shaped.dt))


def standalone_nlif(actions_norm, config, kernel=None):
    """The reference qcore+pulse pipeline, assembled by hand."""
    params = config.device
    eps = params.eps_min + (actions_norm + 1.0) / 2.0 * (params.eps_max - params.eps_min)
    seq = assemble_sequence(eps, params, config.n_segments, config.sample_period)
    kernel = kernel if kernel is not None else delta_kernel(config.dt)
    shaped = convolve(oversample(seq, config.oversample), kernel, baseline=params.eps_min)
    u = final_propagator(shaped, params)
    return nlif(computational_block(u), cnot_target())


class TestConfigValidation:
    def test_too_few_segments(self):
        with pytest.raises(ValueError, match="n_segments"):
            EnvConfig(n_segments=4)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(protocol_time=0.0),
            dict(oversample=0),
            dict(n_realizations=0),
            dict(n_snapshots=0),
            dict(sigma=-1.0),
            dict(nlif_cap=0.0),
        ],
    )
    def test_bad_scalars(self, kwargs):
        with pytest.raises(ValueError):
            EnvConfig(**kwargs)

    def test_modes_coerce_from_strings(self):
        cfg = EnvConfig(observation_mode="pulse_history", reward_mode="robust_avg")
        assert cfg.observation_mode is ObservationMode.PULSE_HISTORY
        assert cfg.reward_mode is RewardMode.ROBUST_AVG

    def test_non_unitary_target_rejected(self):
        with pytest.raises(ValueError, match="unitary"):
            GateSynthesisEnv(EnvConfig(**QUIET, target=np.eye(4) * 0.5))

    def test_wrong_target_shape_rejected(self):
        with pytest.raises(ValueError, match="target shape"):
            GateSynthesisEnv(EnvConfig(**QUIET, target=np.eye(3)))

    def test_kernel_grid_mismatch_rejected(self):
        cfg = EnvConfig(**QUIET, kernel=delta_kernel(0.123))
        with pytest.raises(ValueError, match="kernel"):
            GateSynthesisEnv(cfg)

    def test_tomo_needs_enough_snapshots(self):
        cfg = EnvConfig(**QUIET, reward_mode=RewardMode.TOMO_SNAPSHOT, n_snapshots=31)
        with pytest.raises(ValueError, match="2 d"):
            GateSynthesisEnv(cfg)

    def test_derived_quantities(self):
        cfg = EnvConfig(n_segments=20, protocol_time=10.0, oversample=5)
        assert cfg.sample_period == pytest.approx(0.5)
        assert cfg.dt == pytest.approx(0.1)
        assert cfg.n_substeps == 100
        assert cfg.n_actions == 16


class TestEpisodeLifecycle:
    def test_reset_observation(self):
        env = small_env(seed=1)
        obs = env.reset(seed=1)
        assert obs.shape == (1 + 3 + 32,)
        assert obs[0] == 1.0
        np.testing.assert_allclose(obs[1:4], -1.0)  # parked at the low rail
        np.testing.assert_allclose(obs[4:20].reshape(4, 4), np.eye(4), atol=1e-12)
        np.testing.assert_allclose(obs[20:], 0.0, atol=1e-12)

    def test_same_seed_resets_identical(self):
        env = small_env()
        a = env.reset(seed=42)
        b = env.reset(seed=42)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("n_segments", [5, 8, 16])
    def test_episode_length_is_segments_minus_tail(self, n_segments):
        env = small_env(n_segments=n_segments, protocol_time=float(n_segments))
        env.reset(seed=0)
        for k in range(n_segments - TAIL_SEGMENTS):
            result = env.step(np.zeros(3))
            assert result.done == (k == n_segments - TAIL_SEGMENTS - 1)
        with pytest.raises(RuntimeError, match="done"):
            env.step(np.zeros(3))

    def test_intermediate_rewards_zero(self):
        env = small_env(seed=2)
        acts = random_actions(env, seed=2)
        env.reset(seed=2)
        rewards = [env.step(a).reward for a in acts]
        assert all(r == 0.0 for r in rewards[:-1])
        assert rewards[-1] != 0.0

    def test_observation_shape_constant_and_finite(self):
        env = small_env(seed=3)
        obs = env.reset(seed=3)
        size = obs.size
        for a in random_actions(env, seed=3):
            result = env.step(a)
            assert result.observation.size == size
            assert np.isfinite(result.observation).all()

    def test_time_to_go_counts_down(self):
        env = small_env(seed=4)
        env.reset(seed=4)
        n_act = env.config.n_actions
        seen = [env.step(np.zeros(3)).observation[0] for _ in range(n_act)]
        np.testing.assert_allclose(seen, 1.0 - (np.arange(n_act) + 1) / n_act)

    def test_actions_are_clipped(self):
        env = small_env(seed=5)
        env.reset(seed=5)
        wild = env.step([5.0, -7.0, 0.25]).observation
        env.reset(seed=5)
        tame = env.step([1.0, -1.0, 0.25]).observation
        np.testing.assert_array_equal(wild, tame)

    def test_wrong_action_shape_rejected(self):
        env = small_env()
        env.reset(seed=0)
        with pytest.raises(ValueError, match="channels"):
            env.step([0.0, 0.0])

    def test_rollout_shape_validation(self):
        env = small_env()
        with pytest.raises(ValueError, match="shape"):
            env.rollout(np.zeros((3, 3)))

    def test_pulse_sequence_only_after_done(self):
        env = small_env(seed=6)
        env.reset(seed=6)
        with pytest.raises(RuntimeError, match="incomplete"):
            env.pulse_sequence()
        acts = random_actions(env, seed=6)
        env.rollout(acts, seed=6)
        seq = env.pulse_sequence()
        assert seq.n_segments == env.config.n_segments
        p = env.config.device
        np.testing.assert_allclose(seq.amplitudes[-TAIL_SEGMENTS:], p.eps_min)
        expected = p.eps_min + (acts + 1) / 2 * (p.eps_max - p.eps_min)
        np.testing.assert_allclose(seq.amplitudes[: -TAIL_SEGMENTS], expected)

    def test_shaped_detunings_only_after_done(self):
        kernel = gaussian_kernel(1.0, 0.3, EnvConfig(**QUIET).dt)
        env = small_env(seed=6, kernel=kernel)
        acts = random_actions(env, seed=6)
        env.reset(seed=6)
        env.step(acts[0])
        with pytest.raises(RuntimeError, match="incomplete"):
            env.shaped_detunings()
        env.rollout(acts, seed=6)
        params = env.config.device
        shaped = convolve(oversample(env.pulse_sequence(), env.config.oversample), kernel,
                          baseline=params.eps_min)
        np.testing.assert_array_equal(env.shaped_detunings(), shaped.values)


class TestPipelineEquivalence:
    def test_noise_free_matches_standalone_chain(self):
        env = small_env(seed=7)
        acts = random_actions(env, seed=7)
        result = env.rollout(acts, seed=7)
        assert result.reward == pytest.approx(standalone_nlif(acts, env.config), abs=1e-12)

    def test_all_minimum_actions(self):
        env = small_env(seed=8)
        acts = -np.ones((env.config.n_actions, 3))
        result = env.rollout(acts, seed=8)
        assert result.reward == pytest.approx(standalone_nlif(acts, env.config), abs=1e-12)

    def test_with_bandwidth_limited_kernel(self):
        cfg = EnvConfig(**QUIET)
        kernel = gaussian_kernel(2.15, 0.5, cfg.dt)
        env = GateSynthesisEnv(EnvConfig(**QUIET, kernel=kernel), seed=9)
        acts = random_actions(env, seed=9)
        result = env.rollout(acts, seed=9)
        assert result.reward == pytest.approx(
            standalone_nlif(acts, env.config, kernel), abs=1e-12
        )

    def test_incremental_payload_matches_prefix_evolution(self):
        # the unitary payload after k steps equals evolving the k-segment
        # prefix from scratch (kernel causality)
        cfg = EnvConfig(**QUIET)
        kernel = gaussian_kernel(1.0, 0.3, cfg.dt)
        env = GateSynthesisEnv(EnvConfig(**QUIET, kernel=kernel), seed=10)
        acts = random_actions(env, seed=10)
        env.reset(seed=10)
        params = env.config.device
        for k in range(5):
            obs = env.step(acts[k]).observation
            payload = obs[4:20].reshape(4, 4) + 1j * obs[20:].reshape(4, 4)
            eps = params.eps_min + (acts[: k + 1] + 1) / 2 * (params.eps_max - params.eps_min)
            from qdrl.pulse import PulseSequence

            shaped = convolve(
                oversample(PulseSequence(eps, env.config.sample_period), env.config.oversample),
                kernel,
                baseline=params.eps_min,
            )
            ref = computational_block(final_propagator(shaped, params))
            np.testing.assert_allclose(payload, ref, atol=1e-10)


class TestDeterminismAndNoise:
    def test_full_determinism_across_instances(self):
        noise = NoiseConfig()
        acts = np.linspace(-1, 1, 12 * 3).reshape(12, 3)
        rewards = []
        for _ in range(2):
            env = small_env(noise=noise, reward_mode=RewardMode.ROBUST_AVG, n_realizations=3)
            rewards.append(env.rollout(acts, seed=11).reward)
        assert rewards[0] == rewards[1]

    def test_noisy_reward_varies_with_seed(self):
        env = small_env(noise=NoiseConfig())
        acts = random_actions(env, seed=12)
        r1 = env.rollout(acts, seed=1).reward
        r2 = env.rollout(acts, seed=2).reward
        assert r1 != r2

    def test_noisefree_payload_independent_of_noise_seed(self):
        noise = NoiseConfig()
        env = small_env(noise=noise, observation_mode=ObservationMode.U_NOISEFREE_PLUS_PULSE)
        acts = random_actions(env, seed=13)
        env.reset(seed=1)
        obs_a = [env.step(a).observation for a in acts]
        env.reset(seed=2)
        obs_b = [env.step(a).observation for a in acts]
        for a, b in zip(obs_a, obs_b):
            np.testing.assert_array_equal(a, b)

    def test_noisy_payload_varies_with_noise_seed(self):
        env = small_env(noise=NoiseConfig(), observation_mode=ObservationMode.U_PLUS_PULSE)
        acts = random_actions(env, seed=14)
        first = env.rollout(acts, seed=1).observation
        second = env.rollout(acts, seed=2).observation
        assert np.abs(first - second).max() > 1e-6

    def test_tomo_mode_intermediate_payload_is_noise_free(self):
        # the observation tomographic training uses is the noise-free payload,
        # while the sparse reward still scores the episode's own noisy evolution
        noise = NoiseConfig()
        tomo_env = small_env(noise=noise, observation_mode=ObservationMode.U_NOISEFREE_PLUS_PULSE)
        free_env = small_env(noise=None, observation_mode=ObservationMode.U_PLUS_PULSE)
        noisy_env = small_env(noise=noise, observation_mode=ObservationMode.U_PLUS_PULSE)
        acts = random_actions(tomo_env, seed=15)
        result = tomo_env.rollout(acts, seed=15)
        ref_obs = free_env.rollout(acts, seed=15).observation
        np.testing.assert_allclose(result.observation, ref_obs, atol=1e-12)
        assert result.reward == noisy_env.rollout(acts, seed=15).reward

    @pytest.mark.parametrize("observation_mode", [
        ObservationMode.U_PLUS_PULSE, ObservationMode.U_NOISEFREE_PLUS_PULSE,
    ])
    def test_one_step_propagator_call_per_step(self, monkeypatch, observation_mode):
        # the noisy and the noise-free rows advance in one batched call
        import qdrl.rlenv

        calls = []

        def counting(h, dt):
            calls.append(h.shape)
            return step_propagator(h, dt)

        monkeypatch.setattr(qdrl.rlenv, "step_propagator", counting)
        env = small_env(noise=NoiseConfig(), observation_mode=observation_mode)
        env.reset(seed=16)
        calls.clear()
        for row in random_actions(env, seed=16):
            env.step(row)
        assert len(calls) == env.config.n_actions

    def test_u_exact_omits_pulse_entries(self):
        plain = small_env(observation_mode=ObservationMode.U_EXACT)
        with_pulse = small_env(observation_mode=ObservationMode.U_PLUS_PULSE)
        assert plain.observation_size == with_pulse.observation_size - 3

    def test_sector_payload_size(self):
        env = small_env(sector_payload=True)
        assert env.observation_size == 1 + 3 + 2 * 36

    def test_sector_payload_changes_only_the_observation(self):
        # info and reward score the computational block whatever the payload
        noise = NoiseConfig()
        sector = small_env(seed=17, sector_payload=True, noise=noise)
        block = small_env(seed=17, noise=noise)
        acts = random_actions(block, seed=17)
        sector.reset(17)
        block.reset(17)
        for row in acts:
            rs, rb = sector.step(row), block.step(row)
            assert rs.reward == rb.reward
            assert rs.info == rb.info
            payload = rs.observation[4:].reshape(2, 6, 6)
            u = payload[0] + 1j * payload[1]
            np.testing.assert_array_equal(computational_block(u).real.ravel(),
                                          rb.observation[4:20])
        assert sector.done and rs.done


class TestRewardModes:
    def test_robust_equals_sparse_without_noise(self):
        acts = random_actions(small_env(), seed=16)
        sparse = small_env(reward_mode=RewardMode.SPARSE).rollout(acts, seed=16).reward
        for n_r in (1, 5):
            robust = (
                small_env(reward_mode=RewardMode.ROBUST_AVG, n_realizations=n_r)
                .rollout(acts, seed=16)
                .reward
            )
            assert robust == pytest.approx(sparse, abs=1e-12)

    def test_robust_n1_equals_noisy_sparse_draw(self):
        # with the observation not consuming noise draws, the robust reward's
        # single realization replays the sparse episode's own realization
        noise = NoiseConfig()
        acts = random_actions(small_env(), seed=17)
        sparse = small_env(
            noise=noise, observation_mode=ObservationMode.U_NOISEFREE_PLUS_PULSE
        ).rollout(acts, seed=17)
        robust = small_env(
            noise=noise,
            observation_mode=ObservationMode.U_NOISEFREE_PLUS_PULSE,
            reward_mode=RewardMode.ROBUST_AVG,
            n_realizations=1,
        ).rollout(acts, seed=17)
        assert robust.reward == pytest.approx(sparse.reward, abs=1e-12)

    def test_robust_average_variance_shrinks(self):
        noise = NoiseConfig()
        acts = random_actions(small_env(), seed=18)

        def spread(n_r, repeats=24):
            env = small_env(
                noise=noise,
                observation_mode=ObservationMode.U_NOISEFREE_PLUS_PULSE,
                reward_mode=RewardMode.ROBUST_AVG,
                n_realizations=n_r,
            )
            vals = [env.rollout(acts, seed=100 + i).reward for i in range(repeats)]
            return np.var(vals)

        ratio = spread(1) / spread(16)
        assert 4.0 < ratio < 80.0  # ~16 with wide Monte Carlo slack

    def test_gauss_sigma_zero_equals_robust(self):
        noise = NoiseConfig()
        acts = random_actions(small_env(), seed=19)
        robust = small_env(
            noise=noise, reward_mode=RewardMode.ROBUST_AVG, n_realizations=4
        ).rollout(acts, seed=19)
        gauss = small_env(
            noise=noise, reward_mode=RewardMode.GAUSS_SURROGATE, n_realizations=4, sigma=0.0
        ).rollout(acts, seed=19)
        assert gauss.reward == pytest.approx(robust.reward, abs=1e-12)

    def test_larger_sigma_means_smaller_reward(self):
        acts = random_actions(small_env(), seed=20)

        def mean_reward(sigma, repeats=8):
            env = small_env(
                reward_mode=RewardMode.GAUSS_SURROGATE, n_realizations=8, sigma=sigma
            )
            return np.mean([env.rollout(acts, seed=300 + i).reward for i in range(repeats)])

        assert mean_reward(0.2) < mean_reward(0.01)

    def test_tomo_reward_approaches_sparse_when_clean(self):
        # needs a leak-free block, so use the single-qubit device
        acts = np.linspace(-1, 0.5, 20)[:, None]
        base = EnvConfig(
            protocol_time=10.0, n_segments=24, target=phase_gate_target()
        )
        sparse = one_qubit_env(base, seed=21).rollout(acts, seed=21).reward
        tomo_cfg = EnvConfig(
            protocol_time=10.0,
            n_segments=24,
            target=phase_gate_target(),
            reward_mode=RewardMode.TOMO_SNAPSHOT,
            n_snapshots=1_000_000,
        )
        tomo = one_qubit_env(tomo_cfg, seed=21).rollout(acts, seed=21).reward
        assert tomo == pytest.approx(sparse, abs=0.05)

    def test_tomo_reward_noisy_path_runs(self):
        cfg = EnvConfig(
            **QUIET,
            noise=NoiseConfig(),
            reward_mode=RewardMode.TOMO_SNAPSHOT,
            n_snapshots=200,
        )
        env = GateSynthesisEnv(cfg, seed=22)
        result = env.rollout(random_actions(env, seed=22), seed=22)
        assert np.isfinite(result.reward)
        assert 0.0 <= result.reward <= cfg.nlif_cap

    def test_stronger_noise_hurts_robust_reward(self):
        acts = random_actions(small_env(), seed=23)

        def mean_reward(scale, repeats=6):
            env = small_env(
                noise=NoiseConfig().scaled(scale),
                observation_mode=ObservationMode.U_NOISEFREE_PLUS_PULSE,
                reward_mode=RewardMode.ROBUST_AVG,
                n_realizations=12,
            )
            return np.mean([env.rollout(acts, seed=400 + i).reward for i in range(repeats)])

        assert mean_reward(4.0) < mean_reward(1.0)

    @pytest.mark.parametrize("mode, extra", [
        (RewardMode.TOMO_SNAPSHOT, dict(n_snapshots=600)),
        (RewardMode.ROBUST_AVG, dict(n_realizations=40)),
    ])
    def test_split_stacks_leave_noisy_episodes_unchanged(self, monkeypatch, mode, extra):
        # the terminal Monte Carlo stacks (600 and 40 realizations of 64
        # substeps) split into 1000-matrix pieces, run in turn or on 2 threads
        cfg = EnvConfig(**QUIET, noise=NoiseConfig(), reward_mode=mode, **extra)
        acts = random_actions(small_env(), seed=24)

        def episode(piece, cores):
            monkeypatch.setattr(qcore, "_PIECE", piece)
            monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
            return GateSynthesisEnv(cfg, seed=24).rollout(acts, seed=24)

        whole = episode(10**9, 1)
        for cores in (1, 2):
            split = episode(1000, cores)
            assert split.reward == whole.reward
            np.testing.assert_equal(split.info, whole.info)
            np.testing.assert_array_equal(split.observation, whole.observation)

    def test_leakage_diagnostic_in_range(self):
        env = small_env(seed=24)
        result = env.rollout(random_actions(env, seed=24), seed=24)
        assert 0.0 <= result.info["leakage"] <= 1.0
        assert result.info["nlif"] == pytest.approx(result.reward)


class TestPulseHistoryMode:
    def test_payload_grows_with_validity_flags(self):
        env = small_env(observation_mode=ObservationMode.PULSE_HISTORY, seed=25)
        n_act, c = env.config.n_actions, 3
        assert env.observation_size == 1 + c + n_act * (c + 1)
        env.reset(seed=25)
        acts = random_actions(env, seed=25)
        for k, a in enumerate(acts, start=1):
            obs = env.step(a).observation
            hist = obs[1 + c :].reshape(n_act, c + 1)
            np.testing.assert_allclose(hist[:k, :c], acts[:k])
            np.testing.assert_allclose(hist[:k, c], 1.0)
            assert not hist[k:].any()


@pytest.mark.parametrize(
    "model",
    [TwoQubitModel(DeviceParams()), SingleQubitModel(DeviceParams())],
    ids=["two_qubit", "single_qubit"],
)
def test_bloch_of_basis_states_follows_labels(model):
    # label bit 0 is z = +1, bit 1 is z = -1, with no transverse component
    assert len(model.labels) == len(model.block_indices)
    for index, label in zip(model.block_indices, model.labels):
        state = np.eye(model.sim_dim, dtype=complex)[index]
        expected = [[0.0, 0.0, 1.0 - 2.0 * int(bit)] for bit in label]
        np.testing.assert_allclose(model.bloch(state), expected, atol=1e-12)


class TestSingleQubit:
    def test_default_configuration(self):
        env = one_qubit_env(seed=26)
        assert env.config.n_actions == 20
        assert env.config.protocol_time == pytest.approx(10.0)
        assert env.observation_size == 1 + 1 + 8
        assert env.model.sim_dim == 2

    def test_pure_z_rotation_closed_form(self):
        # b = 0 and a constant drive leave H diagonal: U = exp(-i J T sigma_z / 2)
        cfg = EnvConfig(
            protocol_time=10.0, n_segments=24, target=phase_gate_target()
        )
        env = one_qubit_env(cfg, b=0.0, seed=27)
        result = env.rollout(-np.ones((20, 1)), seed=27)
        obs = result.observation
        payload = obs[2:6].reshape(2, 2) + 1j * obs[6:].reshape(2, 2)
        params = cfg.device
        j = params.j0 * np.exp(params.eps_min)
        phase = j * cfg.protocol_time / 2.0
        analytic = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
        np.testing.assert_allclose(payload, analytic, atol=1e-9)

    def test_leakage_is_identically_zero(self):
        env = one_qubit_env(seed=28)
        result = env.rollout(np.zeros((20, 1)), seed=28)
        assert result.info["leakage"] == pytest.approx(0.0, abs=1e-12)

    def test_drift_noise_on_b_changes_reward(self):
        noise = NoiseConfig(slow_charge_on=False, fast_charge_on=False)
        cfg = EnvConfig(
            protocol_time=10.0,
            n_segments=24,
            target=phase_gate_target(),
            noise=noise,
        )
        acts = np.zeros((20, 1))
        r1 = one_qubit_env(cfg, seed=1).rollout(acts, seed=1).reward
        r2 = one_qubit_env(cfg, seed=2).rollout(acts, seed=2).reward
        clean = one_qubit_env(seed=3).rollout(acts, seed=3).reward
        assert r1 != r2
        assert r1 != clean
