"""Piecewise-constant pulse assembly and finite-bandwidth shaping.

The waveform generator holds each segment amplitude for a sample period T_s;
the transmission line smears it with a causal impulse response of unit DC
gain, so constants pass through unchanged but edges acquire a finite rise
time and an overall delay. Discretely, a segment trace is oversampled to
substeps of dt = T_s / n and convolved with the kernel sampled on the same
grid. The convolution output at index m is read as the field at the midpoint
of substep m (integer-grid kernel samples approximate bin-integrated weights
to second order in dt), which is what keeps piecewise-constant propagation of
the shaped trace second-order accurate.

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

from .qcore import DeviceParams

__all__ = [
    "PulseSequence",
    "ShapedTrace",
    "ImpulseKernel",
    "TAIL_SEGMENTS",
    "assemble_sequence",
    "oversample",
    "convolve",
    "gaussian_kernel",
    "delta_kernel",
    "load_kernel",
]

TAIL_SEGMENTS = 4
DC_GAIN_TOL = 1e-6
_GRID_TOL = 1e-9


@dataclass(frozen=True)
class PulseSequence:
    """Segment amplitudes (n_segments, n_channels) in eps0 units, held T_s each."""

    amplitudes: np.ndarray
    sample_period: float

    def __post_init__(self) -> None:
        amps = np.asarray(self.amplitudes, dtype=float)
        if amps.ndim != 2:
            raise ValueError(f"amplitudes must be 2-D (segments, channels), got {amps.shape}")
        if self.sample_period <= 0:
            raise ValueError(f"sample_period must be positive, got {self.sample_period}")
        object.__setattr__(self, "amplitudes", amps)

    @property
    def n_segments(self) -> int:
        return self.amplitudes.shape[0]

    @property
    def n_channels(self) -> int:
        return self.amplitudes.shape[1]


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
    renormalizes, so violation means someone edited samples by hand.
    """

    samples: np.ndarray
    dt: float
    delay: float  # first moment of the response, ns; diagnostic only

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


def assemble_sequence(
    actions: np.ndarray,
    params: DeviceParams,
    n_segments: int,
    sample_period: float,
) -> PulseSequence:
    """Build the full segment table from agent amplitude choices.

    actions : (n_segments - 4, n_channels) amplitudes in eps0 units. Values are
        clipped to [eps_min, eps_max]. The final four segments are pinned at
        eps_min so the kernel response has settled by the end of the protocol.
    """
    actions = np.atleast_2d(np.asarray(actions, dtype=float))
    if n_segments < TAIL_SEGMENTS + 1:
        raise ValueError(f"need at least {TAIL_SEGMENTS + 1} segments, got {n_segments}")
    if actions.shape[0] != n_segments - TAIL_SEGMENTS:
        raise ValueError(
            f"expected {n_segments - TAIL_SEGMENTS} action rows, got {actions.shape[0]}"
        )
    body = np.clip(actions, params.eps_min, params.eps_max)
    tail = np.full((TAIL_SEGMENTS, actions.shape[1]), params.eps_min)
    return PulseSequence(np.vstack([body, tail]), sample_period)


def oversample(seq: PulseSequence, n: int) -> ShapedTrace:
    """Repeat each segment n times; dt = T_s / n."""
    if n < 1:
        raise ValueError(f"oversampling factor must be >= 1, got {n}")
    return ShapedTrace(np.repeat(seq.amplitudes, n, axis=0), seq.sample_period / n)


def convolve(trace: ShapedTrace, kernel: ImpulseKernel, baseline: float = 0.0) -> ShapedTrace:
    """Causal convolution of the trace with the kernel, per channel.

    The input is taken to sit at `baseline` for t < 0 (physically the idle
    rail eps_min), so the deviation from baseline is what gets filtered:
    output = baseline + (trace - baseline) * kernel. With baseline = 0 the
    map is exactly linear. Output has the same length as the input; response
    beyond the last substep is discarded, which is why protocols park their
    tail at the rail.
    """
    if abs(kernel.dt - trace.dt) > _GRID_TOL * max(kernel.dt, trace.dt):
        raise ValueError(f"grid mismatch: trace dt {trace.dt}, kernel dt {kernel.dt}")
    weights = kernel.samples * kernel.dt
    m = trace.n_substeps
    dev = trace.values - baseline
    out = np.empty_like(trace.values)
    for c in range(trace.n_channels):
        out[:, c] = np.convolve(dev[:, c], weights)[:m]
    return ShapedTrace(out + baseline, trace.dt)


def gaussian_kernel(mean_delay: float, stddev: float, dt: float) -> ImpulseKernel:
    """Gaussian response of given delay and width, truncated and causal.

    Sampled on the integer grid j dt over [mean_delay - 5 sigma,
    mean_delay + 5 sigma] intersected with t >= 0, then renormalized. A tiny
    stddev leaves a single surviving sample, i.e. a discrete delta.
    """
    if stddev < 0:
        raise ValueError(f"stddev must be non-negative, got {stddev}")
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    lo = max(0.0, mean_delay - 5.0 * stddev)
    hi = mean_delay + 5.0 * stddev
    j0 = int(np.floor(lo / dt))
    j1 = max(int(np.ceil(hi / dt)), j0)
    t = np.arange(j0, j1 + 1) * dt
    if stddev == 0.0 or hi - lo < dt:
        # degenerate width: all mass in the bin nearest the requested delay
        samples = np.zeros(t.size)
        samples[np.argmin(np.abs(t - mean_delay))] = 1.0 / dt
        delay = float(t[np.argmax(samples)])
        return ImpulseKernel(samples, dt, delay)
    samples = np.exp(-0.5 * ((t - mean_delay) / stddev) ** 2)
    samples /= samples.sum() * dt
    delay = float(np.sum(t * samples) * dt)
    return ImpulseKernel(samples, dt, delay)


def delta_kernel(dt: float) -> ImpulseKernel:
    """Identity response: output equals input exactly."""
    return ImpulseKernel(np.array([1.0 / dt]), dt, 0.0)


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
    samples = samples / gain
    delay = float(np.sum(grid * samples) * dt)
    return ImpulseKernel(samples, dt, delay)
