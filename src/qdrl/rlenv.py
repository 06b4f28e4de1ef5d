"""Episode environment for shaped-pulse gate synthesis on the simulated device.

An episode is one protocol table: N segments, each held for T_s = T/N, one
detuning per control channel, in device units. The env owns the table and its
layout. reset() fills it with the idle rail eps_min, which is also the value
of every row not yet chosen and of the final TAIL_SEGMENTS = 4 rows, pinned so
the transmission-line response settles before the protocol ends. Step k maps
the agent's action (one value per channel, normalized to [-1, 1]) linearly
onto [eps_min, eps_max], clips it to those rails and writes it as row k; no
other code clips or extends the table. Every step shapes the rows chosen so
far, or at the terminal step the whole table, through the kernel
(`qdrl.pulse`) and advances the Trotter product to the current segment
boundary, so mid-episode unitary payloads include the ringing of earlier
edges. The rewards, shaped_detunings(), trajectory() and pulse_sequence() read
the same table. Intermediate rewards are zero; the terminal reward scores the
final computational block against the target gate as a capped negative log
infidelity (NLIF).

Observation modes (payload after the time-to-go entry and, except for the
first mode, the current pulse amplitudes):

    U_EXACT                 the episode's actual evolution, no pulse entries
    U_PLUS_PULSE            the episode's actual evolution
    U_NOISEFREE_PLUS_PULSE  the noise-free evolution (step-wise tomography is
                            not experimentally available, so tomographic
                            training sees the clean payload and only the
                            terminal reward uses reconstruction)
    PULSE_HISTORY           all past actions, zero-padded, with a validity flag

"Actual evolution" means noisy when a noise model is configured and something
reads it (the observation or the sparse reward), and clean otherwise. Unitary
payloads are the flattened real and imaginary parts of the computational block
(the full sector matrix behind `sector_payload`, for ablations); the per-step
info NLIF and leakage always score the computational block.

The device model owns the device facts, and the env config owns the model:
`EnvConfig.model` is the one place an episode's device is stored, and the
config checks everything that needs it (target, kernel grid, snapshot
count) when it is built. A `DeviceModel` is its operator tables (one coupler
matrix per detuning channel, one operator per field gradient, and the static
gradients), its computational block, basis labels and default target; one
builder makes the Hamiltonians and one the Bloch vectors of every model.
`DeviceModel.two_qubit` is the four-dot device (three channels, CNOT),
`DeviceModel.single_qubit` its one-qubit reduction (one channel, phase gate).

Reward modes, all computed at the terminal step:

    SPARSE           NLIF of the episode's actual final evolution
    ROBUST_AVG       mean NLIF over n_realizations fresh noise realizations
                     of the same protocol
    TOMO_SNAPSHOT    NLIF of the unitary reconstructed from n_snapshots
                     single-shot measurements, each taken on a fresh noisy
                     realization of the protocol: a shot draws its probe
                     and evolves that probe state alone, not the full
                     propagator, and the sampler reads its computational
                     components
    GAUSS_SURROGATE  like ROBUST_AVG with each block perturbed by the
                     additive-Gaussian measurement surrogate before scoring
"""
from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from . import tomography
from .noise import NoiseConfig, NoiseRealization, sample_realization
from .pulse import ImpulseKernel, convolve, delta_kernel, oversample
from .qcore import (
    DEFAULT_NLIF_CAP,
    COMP_INDICES,
    HERMITICITY_TOL,
    DeviceParams,
    _coupler_matrices,
    _gradient_matrices,
    block_leakage,
    cnot_target,
    computational_block,
    exchange_coupling,
    is_unitary,
    nlif,
    phase_gate_target,
    propagate,
    sector_hamiltonian,
    step_propagator,  # noqa: F401  # not called here; perfbench traces this global
)
from .seeding import named_stream

__all__ = [
    "ObservationMode",
    "RewardMode",
    "EnvConfig",
    "StepResult",
    "GateSynthesisEnv",
    "DeviceModel",
    "TAIL_SEGMENTS",
]

# final segments of every protocol, pinned at the idle rail eps_min
TAIL_SEGMENTS = 4

# realizations evolved per batch in Monte Carlo rewards, bounding the
# (substeps, chunk, channels) detunings and the noise draws held at once
_REWARD_CHUNK = 512


class ObservationMode(enum.Enum):
    U_EXACT = "u_exact"
    U_PLUS_PULSE = "u_plus_pulse"
    PULSE_HISTORY = "pulse_history"
    U_NOISEFREE_PLUS_PULSE = "u_noisefree_plus_pulse"


class RewardMode(enum.Enum):
    SPARSE = "sparse"
    ROBUST_AVG = "robust_avg"
    TOMO_SNAPSHOT = "tomo_snapshot"
    GAUSS_SURROGATE = "gauss_surrogate"


# Pauli x, y, z of one qubit
_SIGMAS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


def _table(name: str, table, shape: tuple) -> np.ndarray:
    """A read-only float copy of a device table, checked: real, of the given
    shape, finite, and each (n, n) matrix in it symmetric within the
    tolerance qcore holds each Hamiltonian to; else ValueError naming it."""
    if np.iscomplexobj(table):
        raise ValueError(f"{name} must be real, got complex entries")
    table = np.array(table, dtype=float)
    if table.shape != shape:
        raise ValueError(f"{name} has shape {table.shape}, need {shape}")
    if not np.isfinite(table).all():
        raise ValueError(f"{name} holds a non-finite entry")
    if table.ndim == 3:  # qcore's test of each H: |h_ij - h_ji| <= tol ||h||_1
        dev = np.abs(table - table.swapaxes(1, 2)).max(axis=(1, 2), initial=0.0)
        if np.any(dev > HERMITICITY_TOL * np.abs(table).sum(axis=1).max(axis=1, initial=0.0)):
            raise ValueError(f"{name} must be symmetric, deviation {dev.max():.3e}")
    table.setflags(write=False)
    return table


def _logical_pauli_table(dim: int, block_indices: tuple) -> np.ndarray:
    """(qubit, axis, dim, dim) logical X/Y/Z, zero outside the computational
    block, whose states are the bit strings in order with qubit 1 leading."""
    qubits = int(math.log2(len(block_indices)))
    idx = np.asarray(block_indices)
    table = np.zeros((qubits, 3, dim, dim), dtype=complex)
    for q in range(qubits):
        for axis, sigma in enumerate(_SIGMAS):
            factors = [sigma if k == q else np.eye(2) for k in range(qubits)]
            table[q, axis, idx[:, None], idx] = functools.reduce(np.kron, factors)
    return table


class DeviceModel:
    """A device as operator tables over its simulated space (dimension n).

        H = sum_c J(eps_c) couplers[c] + j0 sum_g (gradients[g] + delta_b_g) gradient_ops[g]

    couplers (C, n, n) take one detuning channel each, gradient_ops (G, n, n)
    one field gradient each, and gradients (G,) are the static gradients in
    units of j0; the exchange map and detuning bounds come from params. The
    computational states sit at block_indices, labelled by their bits, and
    the logical Paulis acting there give the Bloch vectors. The tables are
    checked when the model is built, not at its first step.
    """

    def __init__(self, params: DeviceParams, couplers, gradient_ops, gradients,
                 block_indices: tuple, labels: tuple, default_target: np.ndarray):
        self.params = params
        shape = np.shape(couplers)
        self.n_channels, self.sim_dim = c, n = (shape[0], shape[-1]) if shape else (0, 0)
        self.n_gradients = g = len(gradient_ops) if np.ndim(gradient_ops) else 0
        self.gradients = _table("gradients", gradients, (g,))
        self.block_indices = block_indices
        self.labels = labels
        self.default_target = default_target
        # one flattened matrix per row: j @ rows is H reshaped to (..., n * n)
        self._coupler_rows = _table("couplers", couplers, (c, n, n)).reshape((c, -1))
        self._gradient_rows = _table("gradient_ops", gradient_ops, (g, n, n)).reshape((g, -1))

    @classmethod
    def two_qubit(cls, params: DeviceParams) -> "DeviceModel":
        """The four-dot device: 6-dim sector, 4-dim computational block, 3 channels."""
        return cls(params, _coupler_matrices(), _gradient_matrices(), params.gradients,
                   COMP_INDICES, ("00", "01", "10", "11"), cnot_target())

    @classmethod
    def single_qubit(cls, params: DeviceParams, b: float = 1.0) -> "DeviceModel":
        """One singlet-triplet qubit: H = J(eps)/2 sigma_z + b/2 sigma_x.

        b is the transverse gradient in units of j0. Hyperfine noise offsets
        b, charge noise offsets the detuning, exactly as in the two-qubit model.
        """
        sigma_x, _, sigma_z = _SIGMAS.real
        return cls(params, [sigma_z / 2.0], [sigma_x / 2.0], (b,),
                   (0, 1), ("0", "1"), phase_gate_target())

    def hamiltonians(self, detunings: np.ndarray, delta_b: np.ndarray | None = None, *,
                     gradient_term: np.ndarray | None = None):
        """H stack for detunings (..., C) with optional gradient offsets.

        Stacks are time-major, as `qcore.propagate` takes them: substeps on
        the first axis, rows after it. delta_b (..., G), units of j0,
        broadcasts against the leading axes of detunings as they are, so a
        (R, G) offset batch pairs with (M, R, C) detunings, one offset per row.
        A caller that assembles many slices over the same rows passes their
        `_gradient_term(delta_b)`, taken once, as gradient_term instead of
        delta_b, with the same bits.
        """
        if gradient_term is None:
            gradient_term = self._gradient_term(delta_b)
        elif delta_b is not None:
            raise ValueError("pass delta_b or its gradient_term, not both")
        j = exchange_coupling(np.asarray(detunings, dtype=float), self.params)
        return sector_hamiltonian(j, gradient_term, self._coupler_rows)

    def _gradient_term(self, delta_b: np.ndarray | None) -> np.ndarray:
        """j0 (gradients + delta_b) @ gradient_ops, flattened: the part of H
        that holds still in time, (..., n * n) over the leading axes of
        delta_b (..., G)."""
        grads = self.gradients
        if delta_b is not None:
            grads = grads + np.asarray(delta_b, dtype=float)
        return (self.params.j0 * grads) @ self._gradient_rows

    def bloch(self, states: np.ndarray) -> np.ndarray:
        """Logical (x, y, z) per qubit of states (..., n) -> (..., qubits, 3).

        States need not be normalized within the computational block; leaked
        population simply shrinks the Bloch vector.
        """
        paulis = _logical_pauli_table(self.sim_dim, self.block_indices)
        return np.real(np.einsum("...i,qaij,...j->...qa", np.conj(states), paulis, states))


class _HamiltonianStack:
    """The time-major stack (M, R..., n, n) of a model's Hamiltonians over
    detunings (M, R..., C) and the rows' `DeviceModel._gradient_term`
    (R..., n * n), or (n * n,) for every row, as `qcore.propagate` reads it:
    shape, time slices stack[lo:hi] and time and row slices stack[lo:hi,
    r0:r1], each a real array built when it is asked for. propagate asks
    for every step of every row once, so each Hamiltonian is built once.

    A plain object with no reference cycles: its detunings go with the last
    reference to it, not at the next cyclic garbage collection.
    """

    __slots__ = ("_model", "_detunings", "_gradient_term", "shape")

    def __init__(self, model: DeviceModel, detunings: np.ndarray, gradient_term: np.ndarray):
        self._model, self._detunings, self._gradient_term = model, detunings, gradient_term
        self.shape = detunings.shape[:-1] + (model.sim_dim, model.sim_dim)

    def __getitem__(self, key) -> np.ndarray:
        term = self._gradient_term
        if isinstance(key, slice):
            return self._model.hamiltonians(self._detunings[key], gradient_term=term)
        if (isinstance(key, tuple) and len(key) == 2
                and all(isinstance(part, slice) for part in key)):
            rows = key[1]
            return self._model.hamiltonians(self._detunings[key],
                                            gradient_term=term[rows] if term.ndim > 1 else term)
        raise TypeError(f"a Hamiltonian stack takes time slices, or time and row slices, "
                        f"only, got {key!r}")


@dataclass(frozen=True, eq=False)
class EnvConfig:
    """Everything that defines an episode distribution, checked when built.

    model is the device the episode runs on (by default the two-qubit device
    over default params). protocol_time T is in ns; n_segments N includes the
    four pinned tail segments, so the agent takes N - 4 actions; oversample n
    sets the substep resolution dt = (T/N)/n, and a kernel must be sampled on
    that grid. kernel = None means an ideal (delta) response. noise = None
    disables every noise channel. target = None selects the model's default
    gate (CNOT for the two-qubit device, the phase gate for one qubit); a
    given target must be a unitary on the model's computational block. A
    tomographic reward needs n_snapshots >= 2 d^2 for a d-dimensional block.
    """

    model: DeviceModel = field(default_factory=lambda: DeviceModel.two_qubit(DeviceParams()))
    kernel: ImpulseKernel | None = None
    protocol_time: float = 50.0
    n_segments: int = 50
    oversample: int = 10
    target: np.ndarray | None = None
    observation_mode: ObservationMode = ObservationMode.U_PLUS_PULSE
    reward_mode: RewardMode = RewardMode.SPARSE
    noise: NoiseConfig | None = None
    n_realizations: int = 10
    n_snapshots: int = 100_000
    sigma: float = 0.0
    nlif_cap: float = DEFAULT_NLIF_CAP
    sector_payload: bool = False

    def __post_init__(self) -> None:
        if self.n_segments < TAIL_SEGMENTS + 1:
            raise ValueError(
                f"need n_segments >= {TAIL_SEGMENTS + 1} "
                f"({TAIL_SEGMENTS} tail segments + at least one action), got {self.n_segments}"
            )
        if not 0 < self.protocol_time < math.inf:
            raise ValueError(
                f"protocol_time must be positive and finite, got {self.protocol_time}")
        if self.oversample < 1:
            raise ValueError(f"oversample must be >= 1, got {self.oversample}")
        if self.n_realizations < 1:
            raise ValueError(f"n_realizations must be >= 1, got {self.n_realizations}")
        if self.n_snapshots < 1:
            raise ValueError(f"n_snapshots must be >= 1, got {self.n_snapshots}")
        if not 0 <= self.sigma < math.inf:
            raise ValueError(f"sigma must be non-negative and finite, got {self.sigma}")
        if not 0 < self.nlif_cap < math.inf:
            raise ValueError(f"nlif_cap must be positive and finite, got {self.nlif_cap}")
        if not isinstance(self.observation_mode, ObservationMode):
            object.__setattr__(self, "observation_mode", ObservationMode(self.observation_mode))
        if not isinstance(self.reward_mode, RewardMode):
            object.__setattr__(self, "reward_mode", RewardMode(self.reward_mode))
        block_dim = len(self.model.block_indices)
        if self.target is not None:
            shape = np.shape(self.target)
            if shape != (block_dim, block_dim):
                raise ValueError(f"target shape {shape} does not match the "
                                 f"computational block ({block_dim}, {block_dim})")
            if not is_unitary(np.asarray(self.target, dtype=complex)):
                raise ValueError("target gate must be unitary")
        if self.kernel is not None and abs(self.kernel.dt - self.dt) > 1e-9 * self.dt:
            raise ValueError(
                f"kernel is sampled at dt = {self.kernel.dt}, the substep grid is {self.dt}")
        if (self.reward_mode is RewardMode.TOMO_SNAPSHOT
                and self.n_snapshots < 2 * block_dim**2):
            raise ValueError(f"tomographic reward needs n_snapshots >= {2 * block_dim**2} "
                             f"(2 d^2) to invert, got {self.n_snapshots}")

    @property
    def sample_period(self) -> float:
        return self.protocol_time / self.n_segments

    @property
    def dt(self) -> float:
        return self.sample_period / self.oversample

    @property
    def n_substeps(self) -> int:
        return self.n_segments * self.oversample

    @property
    def n_actions(self) -> int:
        return self.n_segments - TAIL_SEGMENTS


@dataclass(frozen=True)
class StepResult:
    observation: np.ndarray
    reward: float
    done: bool
    info: dict


def _require_real(values) -> None:
    """Reject complex input before a float cast would drop its imaginary part."""
    if np.iscomplexobj(values):
        raise ValueError("actions must be real, got complex input")


class GateSynthesisEnv:
    """Gate-synthesis episodes over config.model.

    Deterministic: (config, reset seed, action sequence) fully determines
    observations and rewards, including all reward-side Monte Carlo. reset()
    without a seed starts a fresh episode on the same stream; reset(seed=s)
    rewinds the stream, so two same-seed resets replay identically.
    """

    def __init__(self, config: EnvConfig, seed: int = 0):
        self.config = config
        self.model = config.model
        self.n_channels = self.model.n_channels
        target = config.target if config.target is not None else self.model.default_target
        self.target = np.asarray(target, dtype=complex)
        self.kernel = config.kernel if config.kernel is not None else delta_kernel(config.dt)
        self._noise = config.noise if config.noise is not None and not config.noise.quiet else None
        # the episode draws its own realization only when something reads the
        # noisy evolution: the observation or the sparse reward
        self._track_noisy = self._noise is not None and (
            config.observation_mode in (ObservationMode.U_EXACT, ObservationMode.U_PLUS_PULSE)
            or config.reward_mode is RewardMode.SPARSE
        )
        self._povm = (tomography.build_povm(len(self.model.block_indices))
                      if config.reward_mode is RewardMode.TOMO_SNAPSHOT else None)
        self.observation_size = len(self.reset(seed))

    # ------------------------------------------------------------------ API

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = named_stream(seed, "env")
        cfg = self.config
        # the protocol table in device units, and the normalized actions
        # behind its first k rows
        self._table = np.full((cfg.n_segments, self.n_channels), self.model.params.eps_min)
        self._normalized = np.zeros((cfg.n_actions, self.n_channels))
        self._k = 0
        self._realization = z = None
        if self._track_noisy:
            z = self._sample_noise(1)
            if self.config.observation_mode is ObservationMode.U_NOISEFREE_PLUS_PULSE:
                # a zero realization evolves the noise-free row the observation reads
                z = NoiseRealization(*(
                    np.concatenate([x, np.zeros_like(x)]) for x in (z.delta_b, z.delta_eps, z.fast)
                ))
            self._realization = z
        # the tracked rows' gradient term, for every step's stack
        self._term = self.model._gradient_term(None if z is None else z.delta_b)
        # one evolution per realization row; row 0 is the episode's actual one
        rows = 1 if z is None else len(z.delta_b)
        self._u = np.tile(np.eye(self.model.sim_dim, dtype=complex), (rows, 1, 1))
        return self._observe()

    def step(self, action) -> StepResult:
        if self.done:
            raise RuntimeError("episode is done; call reset() before stepping again")
        _require_real(action)
        action = np.asarray(action, dtype=float).reshape(-1)
        if action.shape != (self.n_channels,):
            raise ValueError(
                f"action must have {self.n_channels} channels, got shape {action.shape}"
            )
        if not np.isfinite(action).all():
            raise ValueError(f"action must be finite, got {action}")
        # the ndarray method is np.clip without its dispatch wrapper
        action = action.clip(-1.0, 1.0)
        k = self._k
        p = self.model.params
        n = self.config.oversample
        self._normalized[k] = action
        self._table[k] = self._to_detunings(action).clip(p.eps_min, p.eps_max)
        self._k = k + 1
        terminal = self.done
        # the kernel is causal, so the substeps before row k are unchanged
        # from previous steps and the product only needs the new ones, from
        # lo on; those read the K - 1 substeps before lo and no earlier ones,
        # so shaping starts at the row holding substep lo - (K - 1)
        lo = k * n
        first = max(0, lo - (self.kernel.samples.size - 1)) // n
        shaped = self._shaped(self._table[first:] if terminal else self._table[first : k + 1])
        self._u = self._evolve(shaped[lo - first * n :], self._realization, lo,
                               term=self._term) @ self._u
        # row 0's block, taken once: the info scores it, the observation
        # reads it, and a sparse terminal reward is its NLIF
        block = computational_block(self._u[0], self.model.block_indices)
        info = {
            "nlif": nlif(block, self.target, self.config.nlif_cap),
            "leakage": block_leakage(block),
        }
        reward = 0.0
        if terminal:
            reward = self._terminal_reward(info["nlif"])
            info["terminal_reward"] = reward
        return StepResult(self._observe(block), reward, terminal, info)

    def rollout(self, actions: Sequence, seed: int | None = None) -> StepResult:
        """Reset and play a full action table; returns the terminal result."""
        _require_real(actions)
        actions = np.asarray(actions, dtype=float)
        if actions.ndim == 1:
            actions = actions[:, None]
        if actions.shape != (self.config.n_actions, self.n_channels):
            raise ValueError(
                f"expected actions of shape {(self.config.n_actions, self.n_channels)}, "
                f"got {actions.shape}"
            )
        self.reset(seed)
        for row in actions[:-1]:
            self.step(row)
        return self.step(actions[-1])

    @property
    def done(self) -> bool:
        return self._k == self.config.n_actions

    @property
    def actions_normalized(self) -> np.ndarray:
        """Actions taken so far, (k, C) in [-1, 1]; a view of the episode's
        array, which the next reset replaces."""
        return self._normalized[: self._k]

    def pulse_sequence(self) -> np.ndarray:
        """A copy of the protocol table, (n_segments, C) in device units, tail
        rows included; only valid once the episode is done."""
        self._require_done()
        return self._table.copy()

    def shaped_detunings(self) -> np.ndarray:
        """Shaped substep detunings of the full protocol, (n_substeps, C).

        What the device sees through the kernel, noise excluded; only valid
        once the episode is done.
        """
        self._require_done()
        return self._shaped(self._table)

    def trajectory(self) -> np.ndarray:
        """Noise-free propagators through the first m = 0..n_substeps substeps
        of the full protocol, (n_substeps + 1, dim, dim); only once done."""
        return self._evolve(self.shaped_detunings(), cumulative=True)[:, 0]

    def realization_nlifs(self, count: int) -> np.ndarray:
        """NLIFs (count,) of the finished table under `count` fresh noise
        realizations, drawn alike whatever the table; without noise, `count`
        copies of the episode's own NLIF."""
        if count < 1:
            raise ValueError(f"count must be >= 1, got {count}")
        self._require_done()
        return nlif(self._noisy_final_blocks(count), self.target, self.config.nlif_cap)

    def _require_done(self) -> None:
        if not self.done:
            raise RuntimeError("episode still running; the pulse table is incomplete")

    # ------------------------------------------------------------ evolution

    def _to_detunings(self, normalized: np.ndarray) -> np.ndarray:
        p = self.model.params
        return p.eps_min + (normalized + 1.0) * 0.5 * (p.eps_max - p.eps_min)

    def _shaped(self, rows: np.ndarray) -> np.ndarray:
        """Shaped substep detunings of the leading table rows (k, C), (k n, C)."""
        trace = oversample(rows, self.config.sample_period, self.config.oversample)
        return convolve(trace, self.kernel, baseline=self.model.params.eps_min).values

    def _evolve(
        self, dets: np.ndarray, z: NoiseRealization | None = None, lo: int = 0,
        cumulative: bool = False, states: np.ndarray | None = None,
        term: np.ndarray | None = None,
    ) -> np.ndarray:
        """Propagators through detuning substeps (M, C), one per realization row.

        Row r adds realization r's offsets to dets, its fast trace read from
        substep lo on; without a realization the one row is noise-free. The
        rows' gradient term is taken here unless a step passes reset's term.
        Returns (rows, dim, dim), or (M + 1, rows, dim, dim) if cumulative,
        or, given states (rows, dim, k), each row's propagator applied to its
        states, (rows, dim, k).

        `propagate` gets the time-major Hamiltonian stack as a
        `_HamiltonianStack` over the (M, rows, C) detunings and the rows'
        gradient term, so a Monte Carlo chunk is assembled one piece at a
        time, each piece once, and never whole.
        """
        dets = dets[:, None]
        if z is not None:
            dets = dets + z.delta_eps + z.fast[:, lo : lo + len(dets)].swapaxes(0, 1)
        if term is None:
            term = self.model._gradient_term(None if z is None else z.delta_b)
        return propagate(_HamiltonianStack(self.model, dets, term), self.config.dt,
                         cumulative=cumulative, states=states)

    def _sample_noise(self, count: int) -> NoiseRealization:
        """`count` fresh realizations over the full substep grid."""
        return sample_realization(
            self._noise,
            self._rng,
            self.config.n_substeps,
            self.config.dt,
            n_gradients=self.model.n_gradients,
            n_channels=self.n_channels,
            count=count,
        )

    # ---------------------------------------------------------- observation

    def _observe(self, block: np.ndarray | None = None) -> np.ndarray:
        """The observation vector, written in place: time to go, the current
        pulse, then the payload. block, when given, is the computational
        block of row 0, which the step has already taken."""
        cfg = self.config
        mode = cfg.observation_mode
        n_ch = self.n_channels
        k = self._k
        head = 1 if mode is ObservationMode.U_EXACT else 1 + n_ch
        if mode is ObservationMode.PULSE_HISTORY:
            obs = np.zeros(head + cfg.n_actions * (n_ch + 1))
            history = obs[head:].reshape((cfg.n_actions, n_ch + 1))
            history[:k, :n_ch] = self.actions_normalized
            history[:k, n_ch] = 1.0
        else:
            # the last row is noise-free: the zero realization's row, or row 0
            # itself when no realization is tracked
            noise_free = mode is ObservationMode.U_NOISEFREE_PLUS_PULSE
            row = len(self._u) - 1 if noise_free else 0
            if cfg.sector_payload:
                payload = self._u[row]
            elif row == 0 and block is not None:
                payload = block
            else:
                payload = computational_block(self._u[row], self.model.block_indices)
            obs = np.empty(head + 2 * payload.size)
            parts = obs[head:].reshape((2,) + payload.shape)
            parts[0] = payload.real
            parts[1] = payload.imag
        obs[0] = (cfg.n_actions - k) / cfg.n_actions
        if head > 1:
            # the device parks at the low rail before the first action
            obs[1:head] = self._normalized[k - 1] if k else -1.0
        return obs

    # --------------------------------------------------------------- reward

    def _terminal_reward(self, final_nlif: float) -> float:
        """The reward of the finished episode, whose actual final evolution
        scores final_nlif."""
        mode = self.config.reward_mode
        if mode is RewardMode.SPARSE:
            return final_nlif
        if mode in (RewardMode.ROBUST_AVG, RewardMode.GAUSS_SURROGATE):
            blocks = self._noisy_final_blocks(self.config.n_realizations)
            if mode is RewardMode.GAUSS_SURROGATE:
                blocks = tomography.gaussian_surrogate(blocks, self.config.sigma, self._rng)
            return float(np.mean(nlif(blocks, self.target, self.config.nlif_cap)))
        # TOMO_SNAPSHOT: every shot measures a fresh noisy realization
        record = self._sample_protocol_snapshots(self.config.n_snapshots)
        est = tomography.reconstruct_unitary(record, self._povm)
        return float(nlif(est, self.target, self.config.nlif_cap))

    def _noise_chunks(self, count: int) -> Iterator[tuple[np.ndarray, NoiseRealization]]:
        """The shaped protocol and `count` fresh noise realizations, in chunks
        of at most `_REWARD_CHUNK`; the table is shaped once, and each chunk
        draws its noise when it is asked for."""
        shaped = self.shaped_detunings()
        for start in range(0, count, _REWARD_CHUNK):
            yield shaped, self._sample_noise(min(_REWARD_CHUNK, count - start))

    def _noisy_final_blocks(self, count: int) -> np.ndarray:
        """Computational blocks (count, d, d) of `count` fresh-noise evolutions,
        in chunks of `_REWARD_CHUNK`; without noise, the episode's own, repeated."""
        idx = self.model.block_indices
        if self._noise is None:
            return np.repeat(computational_block(self._u[0], idx)[None], count, axis=0)
        return np.concatenate([computational_block(self._evolve(shaped, z), idx)
                               for shaped, z in self._noise_chunks(count)])

    def _sample_protocol_snapshots(self, n_shots: int) -> np.ndarray:
        """The (d, 2d + 1) count table of n_shots snapshots of the protocol;
        with noise, each shot takes a fresh realization and a uniform probe."""
        if self._noise is None:
            block = computational_block(self._u[0], self.model.block_indices)
            return tomography.sample_snapshots(block, n_shots, self._povm, self._rng)
        return sum(self._snapshot_chunk(shaped, z) for shaped, z in self._noise_chunks(n_shots))

    def _snapshot_chunk(self, shaped: np.ndarray, z: NoiseRealization) -> np.ndarray:
        """The count table of one shot per realization row of z: the probe
        indices are drawn after the noise, each shot's probe state (embedded
        at the block indices) is evolved alone, and the sampler draws the
        outcomes from the states' computational components."""
        idx = self.model.block_indices
        probe_idx = self._rng.integers(0, len(idx), size=len(z.delta_b))
        probes = np.zeros((len(probe_idx), self.model.sim_dim, 1), dtype=complex)
        probes[:, idx, 0] = self._povm.probes[probe_idx]
        states = self._evolve(shaped, z, states=probes)[:, idx, 0]
        return tomography.sample_snapshots_batch(states, probe_idx, self._povm, self._rng)
