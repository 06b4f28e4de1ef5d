"""
Training walkthrough: a small agent on a one-qubit phase gate
=============================================================

The full experiment pipeline on a problem small enough to watch live: train
a soft actor-critic agent on the one-qubit device for a few hundred
episodes, evaluate the deterministic policy, export its pulse table, and
replay the exported protocol. The run takes a few minutes. It walks through
the commands and their artifacts; it does not show that the agent learns.
At this budget the terminal NLIF has not been measured to rise above that of
random protocol tables, and no test pins that it does (see the first open
item of ROADMAP.md).
"""

import tempfile
from pathlib import Path

import numpy as np

from qdrl.harness import (
    cmd_analyze,
    cmd_evaluate,
    cmd_export_protocol,
    cmd_train,
    config_from_dict,
    read_protocol,
    read_records,
)

workdir = Path(tempfile.mkdtemp(prefix="qdrl-demo-"))

# ----------------------------------------------------------------------
# Configuration. One seed, 400 episodes, a deliberately small network. The
# one-qubit device drives a single detuning channel toward a phase gate over
# a 10 ns protocol of 24 segments (20 free + 4 pinned tail).

config = config_from_dict({
    "schema_version": 1,
    "seeds": [3],
    "budget_episodes": 400,
    "output_dir": str(workdir),
    "device": {"type": "single_qubit"},
    "env": {"protocol_time": 10.0, "n_segments": 24, "oversample": 4,
            "observation_mode": "u_exact", "reward_mode": "sparse"},
    "agent": {"hidden": [64, 64], "batch_size": 128, "learning_rate": 1e-3,
              "replay_capacity": 20_000, "warmup_steps": 500,
              "kept_quantiles": 50},
    "evaluate": {"episodes": 5},
    "analyze": {"initial_state": "1"},
})

# ----------------------------------------------------------------------
# Train. One JSONL record per episode; the checkpoint stores every network
# plus the configuration hash it was trained under.

summary = cmd_train(config)
records = read_records(workdir / "train_seed3.jsonl")
returns = np.array([r["return"] for r in records])
print(f"trained {len(records)} episodes")
for lo in range(0, 400, 100):
    print(f"  episodes {lo:3d}-{lo + 99:3d}: "
          f"mean NLIF {returns[lo:lo + 100].mean():.3f}, "
          f"best {returns[lo:lo + 100].max():.3f}")

# ----------------------------------------------------------------------
# Evaluate the deterministic policy and export its protocol.

checkpoint = workdir / "agent_seed3.npz"
ev = cmd_evaluate(config, checkpoint)
print(f"\ndeterministic policy: mean NLIF {ev['dynamic_nlif']['mean']:.3f}")

ex = cmd_export_protocol(config, checkpoint)
table, meta = read_protocol(workdir / "protocol.tsv")
print(f"exported pulse table: {table.shape[0]} segments x {table.shape[1]} channel(s), "
      f"terminal NLIF {meta['terminal_nlif']:.3f}")

# ----------------------------------------------------------------------
# Replay through the analyzer: per-substep Bloch trajectory of |1> under the
# exported protocol, plus the protocol's fluence relative to an idle pulse.

an = cmd_analyze(config, workdir / "protocol.tsv")
print(f"analyzer: fluence {an['fluence']:.3f}, "
      f"final Bloch vector {np.round(an['final_bloch'], 3)}")
print(f"\nartifacts in {workdir}")
