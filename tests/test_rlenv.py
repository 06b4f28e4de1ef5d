from __future__ import annotations

import dataclasses
import gc
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from qdrl import qcore, rlenv, tomography
from qdrl.noise import NoiseConfig, sample_realization
from qdrl.pulse import convolve, delta_kernel, gaussian_kernel, oversample
from qdrl.qcore import (
    DeviceParams,
    cnot_target,
    computational_block,
    nlif,
    phase_gate_target,
    propagate,
)
from qdrl.rlenv import (
    TAIL_SEGMENTS,
    DeviceModel,
    EnvConfig,
    GateSynthesisEnv,
    ObservationMode,
    RewardMode,
    _HamiltonianStack,
)

QUIET = dict(n_segments=16, protocol_time=16.0, oversample=4)


def small_env(seed=0, **overrides):
    return GateSynthesisEnv(EnvConfig(**{**QUIET, **overrides}), seed=seed)


def one_qubit_env(b=1.0, seed=0, **overrides):
    """The one-qubit benchmark: 10 ns, 24 segments (20 actions), phase-gate target."""
    config = EnvConfig(**{"model": DeviceModel.single_qubit(DeviceParams(), b),
                          "protocol_time": 10.0, "n_segments": 24, **overrides})
    return GateSynthesisEnv(config, seed=seed)


def random_actions(env, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-1.0, 1.0, size=(env.config.n_actions, env.n_channels))


def final_propagator(shaped, params):
    """Ordered product of the exact substep exponentials of a shaped trace."""
    return propagate(DeviceModel.two_qubit(params).hamiltonians(shaped.values), shaped.dt)


def standalone_nlif(actions_norm, config, kernel=None):
    """The reference qcore+pulse pipeline, assembled by hand."""
    params = config.model.params
    eps = params.eps_min + (actions_norm + 1.0) / 2.0 * (params.eps_max - params.eps_min)
    table = np.full((config.n_segments, eps.shape[1]), params.eps_min)
    table[: config.n_actions] = np.clip(eps, params.eps_min, params.eps_max)
    kernel = kernel if kernel is not None else delta_kernel(config.dt)
    trace = oversample(table, config.sample_period, config.oversample)
    shaped = convolve(trace, kernel, baseline=params.eps_min)
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
            EnvConfig(**QUIET, target=np.eye(4) * 0.5)

    def test_wrong_target_shape_rejected(self):
        with pytest.raises(ValueError, match="target shape"):
            EnvConfig(**QUIET, target=np.eye(3))
        # the shape is the model's block, not the two-qubit one
        with pytest.raises(ValueError, match="target shape"):
            EnvConfig(**QUIET, model=DeviceModel.single_qubit(DeviceParams()), target=np.eye(4))

    def test_kernel_grid_mismatch_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            EnvConfig(**QUIET, kernel=delta_kernel(0.123))

    def test_tomo_needs_enough_snapshots(self):
        # 2 d^2 of the model's block: 32 for two qubits, 8 for one
        for build, least in [(DeviceModel.two_qubit, 32), (DeviceModel.single_qubit, 8)]:
            tomo = dict(QUIET, model=build(DeviceParams()), reward_mode=RewardMode.TOMO_SNAPSHOT)
            with pytest.raises(ValueError, match="2 d"):
                EnvConfig(**tomo, n_snapshots=least - 1)
            EnvConfig(**tomo, n_snapshots=least)

    def test_target_none_resolves_to_the_models_default_gate(self):
        # a replaced model with no target gets its own default, not CNOT
        cfg = dataclasses.replace(EnvConfig(**QUIET),
                                  model=DeviceModel.single_qubit(DeviceParams()))
        assert cfg.target is None
        np.testing.assert_array_equal(GateSynthesisEnv(cfg).target, phase_gate_target())

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_action_rejected_before_the_step(self, bad):
        # the rejected step leaves the episode where it was: the next valid
        # step matches an env that never saw the bad action
        first, second = [0.5, -0.5, 0.0], [0.2, 0.3, -0.4]
        env, fresh = small_env(seed=7), small_env(seed=7)
        for e in (env, fresh):
            e.reset(seed=7)
            e.step(first)
        with pytest.raises(ValueError, match="finite"):
            env.step([0.1, bad, 0.0])
        got, want = env.step(second), fresh.step(second)
        np.testing.assert_array_equal(got.observation, want.observation)
        assert got.info == want.info
        np.testing.assert_array_equal(env.actions_normalized, fresh.actions_normalized)

    def test_complex_action_rejected_before_the_step(self):
        # a float cast would keep 0.5 and drop the 0.7j with only a warning
        first, second = [0.5, -0.5, 0.0], [0.2, 0.3, -0.4]
        env, fresh = small_env(seed=7), small_env(seed=7)
        for e in (env, fresh):
            e.reset(seed=7)
            e.step(first)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                env.step(np.array([0.5 + 0.7j, 0, 0]))
            with pytest.raises(ValueError, match="real"):
                env.step([0.5 + 0.0j, 0.0, 0.0])
        got, want = env.step(second), fresh.step(second)
        np.testing.assert_array_equal(got.observation, want.observation)
        assert got.info == want.info
        np.testing.assert_array_equal(env.actions_normalized, fresh.actions_normalized)

    def test_complex_action_table_rejected_by_rollout(self):
        env = small_env()
        table = random_actions(env).astype(complex)
        table[3, 1] += 0.7j
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="real"):
                env.rollout(table, seed=0)

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
        table = env.pulse_sequence()
        assert table.shape == (env.config.n_segments, 3)
        p = env.config.model.params
        np.testing.assert_array_equal(table[-TAIL_SEGMENTS:], p.eps_min)
        expected = p.eps_min + (acts + 1) / 2 * (p.eps_max - p.eps_min)
        np.testing.assert_allclose(table[: -TAIL_SEGMENTS], expected)

    def test_shaped_detunings_only_after_done(self):
        kernel = gaussian_kernel(1.0, 0.3, EnvConfig(**QUIET).dt)
        env = small_env(seed=6, kernel=kernel)
        acts = random_actions(env, seed=6)
        env.reset(seed=6)
        env.step(acts[0])
        with pytest.raises(RuntimeError, match="incomplete"):
            env.shaped_detunings()
        env.rollout(acts, seed=6)
        params = env.config.model.params
        trace = oversample(env.pulse_sequence(), env.config.sample_period, env.config.oversample)
        shaped = convolve(trace, kernel, baseline=params.eps_min)
        np.testing.assert_array_equal(env.shaped_detunings(), shaped.values)

    def test_actions_map_onto_the_rails_and_no_further(self):
        # +1 maps one rounding step above eps_max and is clipped back onto
        # it; -1 lands on eps_min exactly
        env = small_env(seed=6)
        acts = np.tile([[1.0, -1.0, 0.0]], (env.config.n_actions, 1))
        env.rollout(acts, seed=6)
        p = env.config.model.params
        table = env.pulse_sequence()
        np.testing.assert_array_equal(table[: -TAIL_SEGMENTS, 0], p.eps_max)
        np.testing.assert_array_equal(table[: -TAIL_SEGMENTS, 1], p.eps_min)
        np.testing.assert_allclose(table[: -TAIL_SEGMENTS, 2], (p.eps_min + p.eps_max) / 2)

    def test_pulse_sequence_is_a_copy(self):
        env = small_env(seed=6)
        env.rollout(random_actions(env, seed=6), seed=6)
        shaped = env.shaped_detunings()
        env.pulse_sequence()[:] = 0.0
        np.testing.assert_array_equal(env.shaped_detunings(), shaped)


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
        params = env.config.model.params
        for k in range(5):
            obs = env.step(acts[k]).observation
            payload = obs[4:20].reshape(4, 4) + 1j * obs[20:].reshape(4, 4)
            eps = params.eps_min + (acts[: k + 1] + 1) / 2 * (params.eps_max - params.eps_min)
            trace = oversample(eps, env.config.sample_period, env.config.oversample)
            shaped = convolve(trace, kernel, baseline=params.eps_min)
            ref = computational_block(final_propagator(shaped, params))
            np.testing.assert_allclose(payload, ref, atol=1e-10)

    def test_steps_evolve_the_shaped_table_bit_for_bit(self, monkeypatch):
        # the rows the steps evolve, prefix by prefix, are the rows of the
        # whole shaped table, on a kernel longer than the first prefixes and
        # with rows at the +1 rail
        import qdrl.rlenv

        grid = dict(protocol_time=12.0, n_segments=12, oversample=4)
        cfg = EnvConfig(**grid, kernel=gaussian_kernel(0.5, 0.3, EnvConfig(**grid).dt))
        env = GateSynthesisEnv(cfg, seed=0)
        assert env.kernel.samples.size > cfg.oversample
        stacks = []

        def spy(h, dt, **kwargs):
            stacks.append(h)
            return propagate(h, dt, **kwargs)

        monkeypatch.setattr(qdrl.rlenv, "propagate", spy)
        acts = np.where(np.arange(cfg.n_actions) % 2, 1.0, 0.3)[:, None].repeat(3, axis=1)
        env.rollout(acts, seed=0)
        assert len(stacks) == cfg.n_actions
        # the env's stacks give their steps as time slices
        evolved = np.concatenate([h[0 : h.shape[0]][:, 0] for h in stacks])
        np.testing.assert_array_equal(evolved, env.model.hamiltonians(env.shaped_detunings()))


    def test_steps_shape_a_window_with_the_whole_prefix_bits(self):
        # each step shapes only the rows its new substeps read through the
        # kernel; the observations and the product equal those of shaping
        # the whole prefix at every step
        grid = dict(protocol_time=12.0, n_segments=12, oversample=4)
        cfg = EnvConfig(**grid, kernel=gaussian_kernel(1.125, 0.225, EnvConfig(**grid).dt),
                        noise=NoiseConfig())
        env, ref = GateSynthesisEnv(cfg, seed=0), GateSynthesisEnv(cfg, seed=0)
        # the kernel reaches back two rows and one substep, so a window one
        # row shorter would miss a substep its new substeps read
        assert env.kernel.samples.size - 1 == 2 * cfg.oversample + 1
        env.reset(seed=5)
        ref.reset(seed=5)
        u = ref._u
        for k, action in enumerate(random_actions(env, seed=5)):
            obs = env.step(action).observation
            rows = env._table if env.done else env._table[: k + 1]
            lo = k * cfg.oversample
            u = ref._evolve(ref._shaped(rows)[lo:], ref._realization, lo) @ u
            ref._u, ref._k, ref._normalized = u, env._k, env._normalized
            np.testing.assert_array_equal(obs, ref._observe())
        np.testing.assert_array_equal(env._u, u)


def reference_observation(env, u, k):
    """The observation after k steps of product u, written out as the
    concatenation of its parts."""
    cfg = env.config
    mode = cfg.observation_mode
    parts = [np.array([(cfg.n_actions - k) / cfg.n_actions])]
    if mode is not ObservationMode.U_EXACT:
        parts.append(env._normalized[k - 1] if k else -np.ones(env.n_channels))
    if mode is ObservationMode.PULSE_HISTORY:
        history = np.zeros((cfg.n_actions, env.n_channels + 1))
        history[:k, :-1] = env._normalized[:k]
        history[:k, -1] = 1.0
        parts.append(history.ravel())
    else:
        row = u[-1] if mode is ObservationMode.U_NOISEFREE_PLUS_PULSE else u[0]
        payload = row if cfg.sector_payload else computational_block(row, env.model.block_indices)
        parts += [payload.real.ravel(), payload.imag.ravel()]
    return np.concatenate(parts)


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("noisy", [False, True])
@pytest.mark.parametrize("sector_payload", [False, True])
@pytest.mark.parametrize("mode", list(ObservationMode))
@pytest.mark.parametrize("device", ["two_qubit", "single_qubit"])
def test_each_step_reports_its_evolution_bit_for_bit(device, mode, sector_payload, noisy):
    # a twin env replays every step through _evolve; the env's product is the
    # twin's, and each step's observation, info and reward are the reference
    # formulas applied to it, bit for bit
    model = getattr(DeviceModel, device)(DeviceParams())
    grid = dict(protocol_time=12.0, n_segments=12, oversample=4)
    cfg = EnvConfig(model=model, **grid, kernel=gaussian_kernel(0.5, 0.3, EnvConfig(**grid).dt),
                    observation_mode=mode, sector_payload=sector_payload,
                    noise=NoiseConfig() if noisy else None)
    env, ref = GateSynthesisEnv(cfg, seed=0), GateSynthesisEnv(cfg, seed=0)
    # some rows beyond the rails, one at each rail
    acts = 1.2 * random_actions(env, seed=21)
    acts[:2] = [[1.0], [-1.0]]
    for seed in (3, 4):
        obs = env.reset(seed=seed)
        ref.reset(seed=seed)
        u = ref._u
        assert same_bits(obs, reference_observation(env, u, 0))
        for k, action in enumerate(acts):
            result = env.step(action)
            rows = env._table if env.done else env._table[: k + 1]
            lo = k * cfg.oversample
            u = ref._evolve(ref._shaped(rows)[lo:], ref._realization, lo) @ u
            assert same_bits(env._u, u)
            block = computational_block(u[0], model.block_indices)
            score = nlif(block, env.target, cfg.nlif_cap)
            info = {"nlif": score, "leakage": qcore.block_leakage(block)}
            if result.done:
                info["terminal_reward"] = score
            assert result.info.keys() == info.keys()
            assert all(type(v) is float and same_bits(v, info[key])
                       for key, v in result.info.items())
            assert same_bits(result.reward, score if result.done else 0.0)
            assert same_bits(result.observation, reference_observation(env, u, k + 1))
        assert result.done


def noisy_detunings(rows: int, seed: int = 0):
    """Time-major detunings (240, rows, 3) of a random 24-segment protocol on
    10 substeps of 0.1 ns each with one noise realization per row, and the
    rows' gradient offsets (rows, 3)."""
    params = DeviceParams()
    rng = np.random.default_rng(seed)
    dets = np.repeat(rng.uniform(params.eps_min, params.eps_max, size=(24, 3)), 10, axis=0)
    z = sample_realization(NoiseConfig(), rng, len(dets), 0.1, count=rows)
    return dets[:, None] + z.delta_eps + z.fast.swapaxes(0, 1), z.delta_b


def reference_record(env, n_shots, rng):
    """A finished episode's noisy snapshot record, from full propagators:
    per chunk of 512 shots the noise, then the probe indices, then each
    shot's block applied to its probe and one outcome drawn from the exact
    outcome table, all from rng."""
    povm, idx, cfg = env._povm, env.model.block_indices, env.config
    d = len(idx)
    shaped = env.shaped_detunings()
    counts = np.zeros((d, 2 * d + 1), dtype=np.int64)
    for start in range(0, n_shots, 512):
        z = sample_realization(cfg.noise, rng, cfg.n_substeps, cfg.dt,
                               n_gradients=env.model.n_gradients, n_channels=env.n_channels,
                               count=min(512, n_shots - start))
        dets = shaped[:, None] + z.delta_eps + z.fast.swapaxes(0, 1)
        blocks = computational_block(propagate(env.model.hamiltonians(dets, z.delta_b), cfg.dt),
                                     idx)
        probe_idx = rng.integers(0, d, size=len(blocks))
        w = np.einsum("sij,sj->si", blocks, povm.probes[probe_idx])
        p = np.clip(np.einsum("si,kij,sj->sk", w.conj(), povm.elements, w).real, 0.0, None)
        total = p.sum(axis=1)
        r = rng.random(len(w)) * (total + np.clip(1.0 - total, 0.0, None))
        for probe, outcome in zip(probe_idx, (r[:, None] >= np.cumsum(p, axis=1)).sum(axis=1)):
            counts[probe, outcome] += 1
    return counts


class TestHamiltonianStack:
    """The env's stacks assemble the time slices propagate asks for."""

    @pytest.mark.parametrize("rows, offsets", [(1, False), (1, True), (31, True), (32, True)])
    @pytest.mark.parametrize("cumulative", [False, True])
    def test_same_bits_as_the_built_stack(self, rows, offsets, cumulative):
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(rows, seed=rows)
        delta_b = delta_b if offsets else None
        stack = _HamiltonianStack(model, dets, model._gradient_term(delta_b))
        built = model.hamiltonians(dets, delta_b)
        assert stack.shape == built.shape
        np.testing.assert_array_equal(propagate(stack, 0.1, cumulative=cumulative),
                                      propagate(built, 0.1, cumulative=cumulative))

    @pytest.mark.parametrize("piece, cores", [(1024, 1), (1024, 2), (1000, 2), (64, 1), (64, 2)])
    def test_same_bits_on_any_pieces_and_cores(self, monkeypatch, piece, cores):
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(100, seed=7)
        built = propagate(model.hamiltonians(dets, delta_b), 0.1)
        monkeypatch.setattr(qcore, "_PIECE", piece)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        np.testing.assert_array_equal(
            propagate(_HamiltonianStack(model, dets, model._gradient_term(delta_b)), 0.1), built)

    @pytest.mark.parametrize("states", [False, True])
    def test_concurrent_callers_get_the_built_stack_bits(self, monkeypatch, states):
        # more threads than cores, each assembling slices of its own stack
        # while the shared model's tables are read by all; with states, each
        # call folds four row blocks that read the same stack and columns
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(100, seed=8)
        columns = np.eye(6)[None, :, 1:3].repeat(100, axis=0) if states else None
        built = propagate(model.hamiltonians(dets, delta_b), 0.1, states=columns)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as callers:
                term = model._gradient_term(delta_b)
                futures = [callers.submit(propagate, _HamiltonianStack(model, dets, term), 0.1,
                                          states=columns)
                           for _ in range(6)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            np.testing.assert_array_equal(got, built)

    def test_an_episode_leaves_no_reference_cycles(self):
        # a stack caught in a cycle would keep its chunk's detunings until
        # the cyclic collector ran, and memory would creep from op to op
        cfg = EnvConfig(**QUIET, noise=NoiseConfig(), reward_mode=RewardMode.ROBUST_AVG,
                        n_realizations=40)
        env = GateSynthesisEnv(cfg, seed=26)
        acts = random_actions(env, seed=26)
        gc.collect()
        gc.disable()
        try:
            env.rollout(acts, seed=26)
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert unreachable == 0

    def test_only_time_slices(self):
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(2)
        stack = _HamiltonianStack(model, dets, model._gradient_term(delta_b))
        for key in ((slice(None), 0), 0, (slice(0, 2),), (slice(0, 2), slice(0, 1), slice(None))):
            with pytest.raises(TypeError, match="time slices"):
                stack[key]

    def test_offsets_or_their_gradient_term(self):
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(4, seed=11)
        term = model._gradient_term(delta_b)
        np.testing.assert_array_equal(model.hamiltonians(dets, gradient_term=term),
                                      model.hamiltonians(dets, delta_b))
        with pytest.raises(ValueError, match="not both"):
            model.hamiltonians(dets, delta_b, gradient_term=term)

    @pytest.mark.parametrize("offsets", [False, True])
    def test_time_and_row_slices_are_those_of_the_built_stack(self, offsets):
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(100, seed=9)
        delta_b = delta_b if offsets else None
        built = model.hamiltonians(dets, delta_b)
        stack = _HamiltonianStack(model, dets, model._gradient_term(delta_b))
        for steps, rows in [(slice(0, 240), slice(0, 100)), (slice(3, 7), slice(50, 100)),
                            (slice(239, 240), slice(17, 18)), (slice(10, 40), slice(0, 33))]:
            np.testing.assert_array_equal(stack[steps, rows], built[steps, rows])

    @pytest.mark.parametrize("states", [False, True])
    def test_gradient_term_taken_once_per_stack(self, monkeypatch, states):
        # every slice adds its rows of the static gradient term the stack
        # was given, which the stack never takes again, and assembles
        # through rlenv's sector_hamiltonian
        model = DeviceModel.two_qubit(DeviceParams())
        dets, delta_b = noisy_detunings(100, seed=10)
        columns = np.eye(6)[None, :, :1].repeat(100, axis=0) if states else None
        built = propagate(model.hamiltonians(dets, delta_b), 0.1, states=columns)
        term = model._gradient_term(delta_b)
        terms, slices = [], []
        gradient_term = model._gradient_term
        assemble = rlenv.sector_hamiltonian

        def counted_term(*args):
            terms.append(args)
            return gradient_term(*args)

        def counted_assemble(*args):
            slices.append(args)
            return assemble(*args)

        monkeypatch.setattr(model, "_gradient_term", counted_term)
        monkeypatch.setattr(rlenv, "sector_hamiltonian", counted_assemble)
        monkeypatch.setattr(qcore, "_PIECE", 1000)
        got = propagate(_HamiltonianStack(model, dets, term), 0.1, states=columns)
        np.testing.assert_array_equal(got, built)
        assert terms == [] and len(slices) >= 24
        assert all(np.shares_memory(args[1], term) for args in slices)

    @pytest.mark.parametrize("reward, chunks", [(RewardMode.SPARSE, 0),
                                                (RewardMode.ROBUST_AVG, 2)])
    def test_an_episode_takes_each_gradient_term_once(self, monkeypatch, reward, chunks):
        # reset takes the tracked row's term, which every step's stack reads;
        # a Monte Carlo reward takes one per chunk of at most 512 rows
        cfg = EnvConfig(**QUIET, noise=NoiseConfig(), reward_mode=reward, n_realizations=600)
        env = GateSynthesisEnv(cfg, seed=29)
        acts = random_actions(env, seed=29)
        calls = []
        gradient_term = env.model._gradient_term

        def counted_term(delta_b):
            calls.append(None if delta_b is None else len(delta_b))
            return gradient_term(delta_b)

        monkeypatch.setattr(env.model, "_gradient_term", counted_term)
        env.rollout(acts, seed=29)
        assert calls == [1] + [512, 88][:chunks]

    def test_a_reward_chunk_never_holds_its_hamiltonian_stack(self, monkeypatch):
        # one 512-row chunk on a 240-substep grid, on one core; its whole
        # (240, 512, 6, 6) Hamiltonian stack alone would take 35 MB
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 1)
        cfg = EnvConfig(protocol_time=24.0, n_segments=24, noise=NoiseConfig(),
                        reward_mode=RewardMode.ROBUST_AVG, n_realizations=1)
        env = GateSynthesisEnv(cfg, seed=0)
        env.rollout(random_actions(env, seed=0), seed=0)
        chunks = env._noisy_final_blocks(512)
        tracemalloc.start()
        try:
            blocks = next(chunks)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert blocks.shape == (512, 4, 4)
        assert peak < 20e6


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

        def counting(h, dt, **kwargs):
            calls.append(h.shape)
            return propagate(h, dt, **kwargs)

        monkeypatch.setattr(qdrl.rlenv, "propagate", counting)
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
        sparse = one_qubit_env(seed=21, target=phase_gate_target()).rollout(acts, seed=21).reward
        tomo_env = one_qubit_env(seed=21, target=phase_gate_target(),
                                 reward_mode=RewardMode.TOMO_SNAPSHOT, n_snapshots=1_000_000)
        tomo = tomo_env.rollout(acts, seed=21).reward
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

    @pytest.mark.parametrize("device, n_snapshots", [
        ("two_qubit", 600), ("two_qubit", 530), ("single_qubit", 560),
    ])
    def test_noisy_record_equals_a_full_propagator_reference(self, device, n_snapshots):
        # the env evolves each shot's probe state alone; a reference that
        # evolves each realization's full propagator, takes its block and
        # samples the old way from the same stream gives the same record.
        # 600 shots: chunks of 512 and 88 rows; 530: 512 and 18 (the
        # whole-stack path); the one-qubit device embeds d = 2 in n = 2
        model = getattr(DeviceModel, device)(DeviceParams())
        cfg = EnvConfig(**QUIET, model=model, noise=NoiseConfig(),
                        reward_mode=RewardMode.TOMO_SNAPSHOT, n_snapshots=n_snapshots)
        env = GateSynthesisEnv(cfg, seed=27)
        acts = random_actions(env, seed=27)
        for seed in (27, 28):
            env.reset(seed=seed)
            for a in acts[:-1]:
                env.step(a)
            stream = env._rng.bit_generator.state
            reward = env.step(acts[-1]).reward
            env._rng.bit_generator.state = stream
            record = env._sample_protocol_snapshots(n_snapshots)
            rng = np.random.default_rng()
            rng.bit_generator.state = stream
            want = reference_record(env, n_snapshots, rng)
            np.testing.assert_array_equal(record, want)
            assert reward == float(nlif(tomography.reconstruct_unitary(want, env._povm),
                                        env.target, cfg.nlif_cap))

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
    [DeviceModel.two_qubit(DeviceParams()), DeviceModel.single_qubit(DeviceParams())],
    ids=["two_qubit", "single_qubit"],
)
def test_bloch_of_basis_states_follows_labels(model):
    # label bit 0 is z = +1, bit 1 is z = -1, with no transverse component
    assert len(model.labels) == len(model.block_indices)
    for index, label in zip(model.block_indices, model.labels):
        state = np.eye(model.sim_dim, dtype=complex)[index]
        expected = [[0.0, 0.0, 1.0 - 2.0 * int(bit)] for bit in label]
        np.testing.assert_allclose(model.bloch(state), expected, atol=1e-12)


def _pauli_table(dim: int, block: tuple) -> np.ndarray:
    """(qubit, axis, dim, dim) logical X/Y/Z written out by hand, one or two qubits."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    idx = np.ix_(block, block)
    if len(block) == 2:
        table = np.zeros((1, 3, dim, dim), dtype=complex)
        for ax, s in enumerate((sx, sy, sz)):
            table[0, ax][idx] = s
        return table
    table = np.zeros((2, 3, dim, dim), dtype=complex)
    for ax, s in enumerate((sx, sy, sz)):
        table[0, ax][idx] = np.kron(s, np.eye(2))
        table[1, ax][idx] = np.kron(np.eye(2), s)
    return table


@pytest.mark.parametrize("model", [DeviceModel.two_qubit(DeviceParams()),
                                   DeviceModel.single_qubit(DeviceParams(), 0.6)],
                         ids=["two_qubit", "single_qubit"])
def test_bloch_matches_hand_written_pauli_tables(model):
    rng = np.random.default_rng(40)
    n = model.sim_dim
    states = rng.normal(size=(30, n, n)) + 1j * rng.normal(size=(30, n, n))
    table = _pauli_table(n, model.block_indices)
    for psi in (states[:, :, 1], states[:, 0], states[0, 0]):  # strided, contiguous, one
        want = np.real(np.einsum("...i,qaij,...j->...qa", np.conj(psi), table, psi))
        np.testing.assert_array_equal(model.bloch(psi), want)


def _closed_form_single_qubit(params, b, detunings, delta_b=None):
    """H = J(eps)/2 sigma_z + (b + delta_b)/2 sigma_x, element by element."""
    j = params.j0 * np.exp(np.asarray(detunings, dtype=float)[..., 0])
    b_eff = np.asarray(b, dtype=float)
    if delta_b is not None:
        b_eff = b_eff + np.asarray(delta_b, dtype=float)[..., 0]
    bx = params.j0 * np.broadcast_to(b_eff, j.shape)
    h = np.zeros(j.shape + (2, 2))
    h[..., 0, 0] = j / 2.0
    h[..., 1, 1] = -j / 2.0
    h[..., 0, 1] = bx / 2.0
    h[..., 1, 0] = bx / 2.0
    return h


class TestSingleQubit:
    @pytest.mark.parametrize("b", [1.0, 0.0, -0.7])
    def test_hamiltonians_equal_the_closed_form(self, b):
        params = DeviceParams(j0=1.3)
        model = DeviceModel.single_qubit(params, b)
        rng = np.random.default_rng(41)
        # time-major: 40 substeps of 9 rows, one gradient offset per row
        dets = rng.uniform(params.eps_min, params.eps_max, size=(40, 9, 1))
        delta_b = rng.normal(0.0, 0.3, size=(9, 1))
        np.testing.assert_array_equal(model.hamiltonians(dets),
                                      _closed_form_single_qubit(params, b, dets))
        np.testing.assert_array_equal(model.hamiltonians(dets, delta_b),
                                      _closed_form_single_qubit(params, b, dets, delta_b))

    def test_default_configuration(self):
        env = one_qubit_env(seed=26)
        assert env.config.n_actions == 20
        assert env.config.protocol_time == pytest.approx(10.0)
        assert env.observation_size == 1 + 1 + 8
        assert env.model.sim_dim == 2

    def test_pure_z_rotation_closed_form(self):
        # b = 0 and a constant drive leave H diagonal: U = exp(-i J T sigma_z / 2)
        env = one_qubit_env(b=0.0, seed=27, target=phase_gate_target())
        cfg = env.config
        result = env.rollout(-np.ones((20, 1)), seed=27)
        obs = result.observation
        payload = obs[2:6].reshape(2, 2) + 1j * obs[6:].reshape(2, 2)
        params = cfg.model.params
        j = params.j0 * np.exp(params.eps_min)
        phase = j * cfg.protocol_time / 2.0
        analytic = np.diag([np.exp(-1j * phase), np.exp(1j * phase)])
        np.testing.assert_allclose(payload, analytic, atol=1e-9)

    def test_leakage_is_identically_zero(self):
        env = one_qubit_env(seed=28)
        result = env.rollout(np.zeros((20, 1)), seed=28)
        assert result.info["leakage"] == pytest.approx(0.0, abs=1e-12)

    def test_drift_noise_on_b_changes_reward(self):
        noise = NoiseConfig(sigma_eps=0.0, fast_amplitude=0.0)
        acts = np.zeros((20, 1))
        r1 = one_qubit_env(seed=1, target=phase_gate_target(), noise=noise).rollout(
            acts, seed=1).reward
        r2 = one_qubit_env(seed=2, target=phase_gate_target(), noise=noise).rollout(
            acts, seed=2).reward
        clean = one_qubit_env(seed=3).rollout(acts, seed=3).reward
        assert r1 != r2
        assert r1 != clean


_SX, _SY, _SZ = (np.array(s) / 2.0 for s in ([[0, 1], [1, 0]], [[0, -1j], [1j, 0]],
                                                [[1, 0], [0, -1]]))


def one_qubit_model(couplers=(_SZ,), gradient_ops=(_SX,), gradients=(1.0,)) -> DeviceModel:
    """A one-qubit model built from the given tables."""
    return DeviceModel(DeviceParams(), couplers, gradient_ops, gradients,
                       (0, 1), ("0", "1"), phase_gate_target())


class TestDeviceTables:
    """A model checks its tables when it is built, not at its first step."""

    @pytest.mark.parametrize("table, value, message", [
        ("couplers", [_SY], "couplers must be real"),
        ("gradient_ops", [1j * _SX], "gradient_ops must be real"),
        ("gradients", [1.0 + 0.5j], "gradients must be real"),
        ("couplers", [[[np.nan, 0.0], [0.0, 1.0]]], "couplers holds a non-finite"),
        ("gradient_ops", [[[0.0, np.inf], [np.inf, 0.0]]], "gradient_ops holds a non-finite"),
        ("gradients", [np.nan], "gradients holds a non-finite"),
        ("couplers", _SZ, r"couplers has shape \(2, 2\), need \(2, 2, 2\)"),
        ("couplers", [np.zeros((2, 3))], r"couplers has shape \(1, 2, 3\)"),
        ("gradient_ops", [np.eye(3)], r"gradient_ops has shape \(1, 3, 3\), need \(1, 2, 2\)"),
        ("gradients", [1.0, 2.0], r"gradients has shape \(2,\), need \(1,\)"),
        ("couplers", [[[0.0, 1.0], [0.67, 0.0]]], "couplers must be symmetric"),
        ("gradient_ops", [[[1.0, 1e-9], [0.0, -1.0]]], "gradient_ops must be symmetric"),
    ])
    def test_bad_tables_raise_naming_the_table(self, table, value, message):
        with pytest.raises(ValueError, match=message):
            one_qubit_model(**{table: value})

    def test_symmetric_within_qcores_tolerance_builds_and_steps(self):
        coupler = _SZ.copy()
        coupler[0, 1] = 1e-13  # 2e-13 of ||coupler||_1 = 0.5, qcore's bound is 1e-12
        env = GateSynthesisEnv(EnvConfig(**QUIET, model=one_qubit_model([coupler])), seed=0)
        assert np.isfinite(env.step([0.3]).info["nlif"])

    def test_tables_are_read_only_copies(self):
        coupler = _SZ.copy()
        model = one_qubit_model([coupler])
        coupler[0, 0] = 5.0
        np.testing.assert_array_equal(model.hamiltonians(np.zeros(1)),
                                      one_qubit_model().hamiltonians(np.zeros(1)))
        assert not model.gradients.flags.writeable
