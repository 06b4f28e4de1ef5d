"""Pulse-level gate synthesis on a simulated exchange-coupled spin-qubit device.

The package stacks five layers, each usable on its own:

- :mod:`qdrl.qcore` — the four-dot device's operator tables (6-dim sector,
  4-dim computational block), one Hamiltonian builder for any such tables,
  Trotterized propagators, and fidelity bookkeeping.
- :mod:`qdrl.pulse` — oversampling and impulse-response shaping of plain
  detuning tables into what the device actually sees.
- :mod:`qdrl.noise` — quasi-static hyperfine/charge offsets plus fast 1/f^a
  charge noise synthesized on the physical frequency grid.
- :mod:`qdrl.tomography` — informationally complete POVM simulation and
  nearest-unitary reconstruction, the measurement-limited reward path.
- :mod:`qdrl.rlenv` / :mod:`qdrl.rlagent` — one device-model type, built for
  the two-qubit sector or its one-qubit reduction, and gate-synthesis
  episodes, each one protocol table (rails and pinned tail included) written
  row by row; the soft actor-critic agent (truncated quantile critics) learns
  shaped protocols.

:mod:`qdrl.harness` adds configs, seeded experiment commands, and the
``qdrl`` command-line entry point on top.
"""

from .noise import NoiseConfig, NoiseRealization
from .pulse import delta_kernel, gaussian_kernel
from .qcore import (
    DeviceParams,
    cnot_target,
    exchange_coupling,
    gate_fidelity,
    haar_unitary,
    nlif,
    phase_gate_target,
)
from .rlagent import SacAgent, SacConfig, evaluate_policy, train_loop
from .rlenv import (
    EnvConfig,
    GateSynthesisEnv,
    ObservationMode,
    RewardMode,
)
from .seeding import named_stream

__all__ = [
    "DeviceParams",
    "EnvConfig",
    "GateSynthesisEnv",
    "NoiseConfig",
    "NoiseRealization",
    "ObservationMode",
    "RewardMode",
    "SacAgent",
    "SacConfig",
    "cnot_target",
    "delta_kernel",
    "evaluate_policy",
    "exchange_coupling",
    "gate_fidelity",
    "gaussian_kernel",
    "haar_unitary",
    "named_stream",
    "nlif",
    "phase_gate_target",
    "train_loop",
]

__version__ = "0.1.0"
