"""
Device tour: exchange control, pulse shaping, and a first rollout
=================================================================

The simulated device is a line of four quantum dots hosting two
singlet-triplet qubits. Three detuning voltages (one per neighboring dot
pair) set the exchange couplings; magnetic field gradients are fixed by the
hardware. This script walks the control stack bottom-up: the exponential
exchange curve, what the impulse-response kernel does to a square pulse, and
one full episode of the gate-synthesis environment.
"""

import numpy as np

from qdrl import (
    DeviceParams,
    EnvConfig,
    GateSynthesisEnv,
    exchange_coupling,
    gaussian_kernel,
)
from qdrl.pulse import convolve, oversample

# ----------------------------------------------------------------------
# The exchange curve. Detunings live in units of eps0; J(eps) = j0 e^eps
# spans roughly three decades over the legal window [eps_min, eps_max].

params = DeviceParams()
print("device:", params)
for eps in (params.eps_min, -2.0, 0.0, params.eps_max):
    print(f"  eps = {eps:+5.2f}  ->  J = {exchange_coupling(eps, params):8.4f}")

# ----------------------------------------------------------------------
# Pulse shaping. The arbitrary waveform generator emits piecewise-constant
# segments, but the wiring lowpasses them; we model that with a causal
# Gaussian impulse response. Below: a single spike segment before and after
# shaping. The four tail segments are pinned at the idle rail so the response
# has settled by protocol end.

n_segments, t_sample = 12, 1.0
table = np.full((n_segments, 1), params.eps_min)  # the last four rows are the tail
table[3] = params.eps_max  # one hot segment
trace = oversample(table, t_sample, n=8)
kernel = gaussian_kernel(mean_delay=2.15, stddev=0.5, dt=trace.dt)
shaped = convolve(trace, kernel, baseline=params.eps_min)

peak_in = trace.values[:, 0].max() - params.eps_min
peak_out = shaped.values[:, 0].max() - params.eps_min
lag = (shaped.values[:, 0].argmax() - trace.values[:, 0].argmax()) * trace.dt
print(f"\n1 ns spike through the kernel: amplitude above the rail "
      f"{peak_in:.2f} -> {peak_out:.2f} ({100 * peak_out / peak_in:.0f}% "
      f"transmitted), peak delayed by {lag:.2f} ns")

# ----------------------------------------------------------------------
# A full episode. Actions are normalized to [-1, 1] per channel and mapped
# linearly onto the detuning window. A random protocol is (unsurprisingly)
# a bad CNOT; the terminal reward is the negative log infidelity (NLIF).

env = GateSynthesisEnv(EnvConfig(protocol_time=24.0, n_segments=24,
                                 observation_mode="u_exact"), seed=0)
rng = np.random.default_rng(7)
result = env.rollout(rng.uniform(-1.0, 1.0, size=(20, 3)), seed=0)
print(f"\nrandom 24 ns protocol: NLIF = {result.info['nlif']:.4f} "
      f"(fidelity {1 - 10**-result.info['nlif']:.3f}), "
      f"leakage = {result.info['leakage']:.3e}")

# An idle protocol parks every detuning at eps_min. Exchange is then nearly
# off, but the fixed field gradients keep precessing the qubits, so this is
# a (bad) local rotation rather than the identity; both land far from CNOT.
idle = env.rollout(-np.ones((20, 3)), seed=0)
print(f"idle protocol:          NLIF = {idle.info['nlif']:.4f} "
      f"(for reference, the identity would score -log10(0.75) = 0.1249)")
