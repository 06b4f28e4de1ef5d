"""Finite-bandwidth shaping of piecewise-constant detuning tables.

The waveform generator holds each row of a (segments, channels) table for a
sample period T_s; the transmission line smears it with a causal impulse
response of unit DC gain, so constants pass through unchanged but edges
acquire a finite rise time and an overall delay. Discretely, the table is
oversampled to substeps of dt = T_s / n and convolved with the kernel sampled
on the same grid. A kernel is its samples and their spacing alone: sample j
sits at t = j dt from t = 0, so the delay it applies is the samples' first
moment, and nothing else records it. The convolution output at index m is
read as the field at the midpoint of substep m (integer-grid kernel samples
approximate bin-integrated weights to second order in dt), which is what
keeps piecewise-constant propagation of the shaped trace second-order
accurate.
The tables themselves, their rails and their pinned tail belong to the
episode (`qdrl.rlenv`); this module only shapes plain arrays.

Kernel files are plain text: two whitespace-separated columns, time in ns and
amplitude, one sample per line, '#' starts a comment. The time grid may be
irregular; samples are linearly interpolated onto the requested dt grid and
renormalized to unit DC gain.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

__all__ = [
    "ShapedTrace",
    "ImpulseKernel",
    "oversample",
    "convolve",
    "gaussian_kernel",
    "delta_kernel",
    "load_kernel",
]

DC_GAIN_TOL = 1e-6
_GRID_TOL = 1e-9


@dataclass(frozen=True)
class ShapedTrace:
    """Substep-resolved amplitudes (n_substeps, n_channels), spacing dt."""

    values: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 2:
            raise ValueError(f"values must be 2-D (substeps, channels), got {vals.shape}")
        if self.dt <= 0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        object.__setattr__(self, "values", vals)

    @property
    def n_substeps(self) -> int:
        return self.values.shape[0]

    @property
    def n_channels(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ImpulseKernel:
    """Causal response sampled at t = j dt, j = 0..K-1, as a density in 1/ns.

    sum(samples) * dt = 1 (unit DC gain) within DC_GAIN_TOL; construction
    renormalizes, so violation means someone edited samples by hand. The
    delay the response applies is sum(j dt samples[j]) dt.
    """

    samples: np.ndarray
    dt: float

    def __post_init__(self) -> None:
        s = np.asarray(self.samples, dtype=float)
        if s.ndim != 1 or s.size == 0:
            raise ValueError("kernel samples must be a non-empty 1-D array")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        gain = s.sum() * self.dt
        if not abs(gain - 1.0) <= DC_GAIN_TOL:  # a NaN gain fails too
            raise ValueError(f"kernel DC gain {gain:.8f} differs from 1")
        object.__setattr__(self, "samples", s)


def oversample(amplitudes: np.ndarray, sample_period: float, n: int) -> ShapedTrace:
    """Hold each row of a (segments, channels) table for n substeps of
    dt = sample_period / n."""
    if n < 1:
        raise ValueError(f"oversampling factor must be >= 1, got {n}")
    return ShapedTrace(np.repeat(amplitudes, n, axis=0), sample_period / n)


def convolve(trace: ShapedTrace, kernel: ImpulseKernel, baseline: float = 0.0) -> ShapedTrace:
    """Causal convolution of the trace with the kernel, per channel.

    The input is taken to sit at `baseline` for t < 0 (physically the idle
    rail eps_min), so the deviation from baseline is what gets filtered:
    output = baseline + (trace - baseline) * kernel. With baseline = 0 the
    map is exactly linear. Output has the same length as the input; response
    beyond the last substep is discarded, which is why protocols park their
    tail at the rail. Output row i depends on input rows i - K + 1..i alone
    (K kernel samples), bit for bit: shaping a prefix of a trace gives the
    leading rows of shaping the whole trace, and shaping the rows from s on
    gives its rows from s + K - 1 on.
    """
    if abs(kernel.dt - trace.dt) > _GRID_TOL * max(kernel.dt, trace.dt):
        raise ValueError(f"grid mismatch: trace dt {trace.dt}, kernel dt {kernel.dt}")
    weights = kernel.samples * kernel.dt
    m = trace.n_substeps
    # a trace shorter than the kernel continues at the baseline up to the
    # kernel's length: np.convolve swaps the arguments when the kernel is the
    # longer one and then sums each row in another order
    dev = np.zeros((max(m, weights.size), trace.n_channels))
    dev[:m] = trace.values - baseline
    out = np.empty_like(trace.values)
    for c in range(trace.n_channels):
        out[:, c] = np.convolve(dev[:, c], weights)[:m]
    return ShapedTrace(out + baseline, trace.dt)


def gaussian_kernel(mean_delay: float, stddev: float, dt: float) -> ImpulseKernel:
    """Gaussian response of given delay and width, truncated and causal.

    Sampled on the integer grid j dt from j = 0 up to mean_delay + 5 sigma,
    zero below mean_delay - 5 sigma, then renormalized, so the response
    starts at t = 0 and its delay is mean_delay. A tiny stddev leaves a
    single nonzero sample, a discrete delta in the bin nearest mean_delay.
    """
    if stddev < 0:
        raise ValueError(f"stddev must be non-negative, got {stddev}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    lo = max(0.0, mean_delay - 5.0 * stddev)
    hi = mean_delay + 5.0 * stddev
    j0 = int(np.floor(lo / dt))
    j1 = max(int(np.ceil(hi / dt)), j0)
    t = np.arange(j1 + 1) * dt
    samples = np.zeros(t.size)
    if stddev == 0.0 or hi - lo < dt:
        # degenerate width: all mass in the bin nearest the requested delay
        samples[np.argmin(np.abs(t - mean_delay))] = 1.0 / dt
        return ImpulseKernel(samples, dt)
    samples[j0:] = np.exp(-0.5 * ((t[j0:] - mean_delay) / stddev) ** 2)
    samples /= samples.sum() * dt
    return ImpulseKernel(samples, dt)


def delta_kernel(dt: float) -> ImpulseKernel:
    """Identity response: output equals input exactly."""
    return ImpulseKernel(np.array([1.0 / dt]), dt)


def load_kernel(path: str | Path, dt: float) -> ImpulseKernel:
    """Read a measured kernel file and resample it onto the dt grid.

    See the module docstring for the file format. Raises ValueError for
    malformed content (short/empty file, non-numeric or non-finite values,
    non-monotone time, values that normalize to nothing).
    """
    path = Path(path)
    times: list[float] = []
    amps: list[float] = []
    for lineno, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(f"{path}:{lineno}: expected two columns, got {len(fields)}")
        try:
            values = [float(field) for field in fields]
        except ValueError as exc:
            raise ValueError(f"{path}:{lineno}: non-numeric value") from exc
        if not all(math.isfinite(v) for v in values):
            raise ValueError(f"{path}:{lineno}: non-finite value")
        times.append(values[0])
        amps.append(values[1])
    if len(times) < 2:
        raise ValueError(f"{path}: need at least two samples, got {len(times)}")
    t = np.asarray(times)
    a = np.asarray(amps)
    if np.any(np.diff(t) <= 0):
        raise ValueError(f"{path}: time column must be strictly increasing")
    if t[0] < 0:
        raise ValueError(f"{path}: kernel must be causal, first time is {t[0]}")
    grid = np.arange(0.0, t[-1] + dt / 2, dt)
    samples = np.interp(grid, t, a, left=0.0, right=0.0)
    gain = samples.sum() * dt
    if gain <= 0:
        raise ValueError(f"{path}: kernel does not normalize (sum {gain:.3e})")
    return ImpulseKernel(samples / gain, dt)
