"""Noise channels of the device: hyperfine gradients and charge fluctuations.

Three contributions, each set by one amplitude; a zero amplitude turns that
contribution off:

* quasi-static hyperfine noise: one Gaussian draw per episode added to each
  magnetic gradient (units of j0),
* slow charge noise: one Gaussian draw per episode and channel added to the
  detuning (units of eps0),
* fast charge noise: a stationary 1/f^alpha trace per channel resolved at the
  substep level, synthesized by spectral shaping of white Gaussian noise.

The fast trace targets the one-sided power spectral density

    S(f) = fast_amplitude * (1 Hz / f)^alpha   [eps0^2 ns]

with alpha = 0.7 the optimistic default and alpha = 0 the pessimistic extreme.
The DC bin is zeroed during synthesis: constant offsets belong to the slow
channel, and the lowest represented frequency is 1/(M dt). psd_estimate is the
matching one-sided periodogram, so white noise of variance v comes out flat at
2 v dt and a synthesized trace averages back to its target.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "NoiseConfig",
    "NoiseRealization",
    "sample_quasistatic",
    "sample_fast_trace",
    "sample_realization",
    "psd_estimate",
    "HZ_IN_INVERSE_NS",
]

# 1 Hz expressed in 1/ns, the reference frequency of the PSD model.
HZ_IN_INVERSE_NS = 1e-9


@dataclass(frozen=True)
class NoiseConfig:
    """Amplitudes of the three noise channels and the fast-noise exponent.

    sigma_b in units of j0, sigma_eps in units of eps0, fast_amplitude in
    eps0^2 ns at 1 Hz (a PSD level, so it scales with the square of the
    trace). A zero amplitude turns its channel off.
    """

    sigma_b: float = 0.0105
    sigma_eps: float = 0.0294
    fast_amplitude: float = 53.8
    alpha: float = 0.7

    def __post_init__(self) -> None:
        for name in ("sigma_b", "sigma_eps", "fast_amplitude", "alpha"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {value}")

    @property
    def quiet(self) -> bool:
        """True when every channel has zero amplitude."""
        return self.sigma_b == 0 and self.sigma_eps == 0 and self.fast_amplitude == 0

    def scaled(self, factor: float) -> "NoiseConfig":
        """Every amplitude scaled by one factor (the fast PSD level by its square)."""
        return replace(
            self,
            sigma_b=self.sigma_b * factor,
            sigma_eps=self.sigma_eps * factor,
            fast_amplitude=self.fast_amplitude * factor**2,
        )


@dataclass(frozen=True)
class NoiseRealization:
    """A batch of independent noise realizations, one per row.

    delta_b : (count, n_gradients) additive gradient offsets, units of j0
    delta_eps : (count, n_channels) additive detuning offsets, units of eps0
    fast : (count, n_substeps, n_channels) fast charge traces, units of eps0
    """

    delta_b: np.ndarray
    delta_eps: np.ndarray
    fast: np.ndarray


def sample_quasistatic(
    config: NoiseConfig,
    rng: np.random.Generator,
    n_gradients: int = 3,
    n_channels: int = 3,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-episode gradient and detuning offsets (zero at zero amplitude)."""
    sig_b, sig_e = config.sigma_b, config.sigma_eps
    delta_b = rng.normal(0.0, sig_b, size=n_gradients) if sig_b > 0 else np.zeros(n_gradients)
    delta_eps = rng.normal(0.0, sig_e, size=n_channels) if sig_e > 0 else np.zeros(n_channels)
    return delta_b, delta_eps


def _check_dt(dt: float) -> None:
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


def _target_psd(freqs: np.ndarray, config: NoiseConfig) -> np.ndarray:
    """One-sided target S(f) on the positive frequency grid, eps0^2 ns."""
    return config.fast_amplitude * (HZ_IN_INVERSE_NS / freqs) ** config.alpha


def sample_fast_trace(
    n_substeps: int,
    dt: float,
    config: NoiseConfig,
    rng: np.random.Generator,
    n_channels: int = 3,
) -> np.ndarray:
    """Stationary 1/f^alpha traces, shape (n_substeps, n_channels).

    Spectral shaping: independent complex Gaussian amplitudes per positive
    frequency bin with variance S(f_k) M / (2 dt), Hermitian completion via
    the inverse real FFT, DC bin zero. Band covered: 1/(M dt) .. 1/(2 dt).
    """
    if n_substeps < 2:
        raise ValueError(f"need at least 2 substeps, got {n_substeps}")
    _check_dt(dt)
    if config.fast_amplitude == 0:
        return np.zeros((n_substeps, n_channels))
    m = n_substeps
    freqs = np.fft.rfftfreq(m, dt)
    std = np.sqrt(_target_psd(freqs[1:], config) * m / (2.0 * dt))
    spec = np.zeros((freqs.size, n_channels), dtype=complex)
    draws = rng.normal(size=(2, freqs.size - 1, n_channels))
    # (std re + i std im) / sqrt(2), each part written in place; dividing a
    # complex array by sqrt(2) multiplies each part by fl(1/sqrt(2))
    for part, draw in zip((spec.real, spec.imag), draws):
        np.multiply(std[:, None], draw, out=part[1:])
        part[1:] *= 1.0 / np.sqrt(2.0)
    if m % 2 == 0:
        # Nyquist bin of an even-length real FFT must be real
        spec[-1] = std[-1] * rng.normal(size=n_channels)
    return np.fft.irfft(spec, n=m, axis=0)


def sample_realization(
    config: NoiseConfig,
    rng: np.random.Generator,
    n_substeps: int,
    dt: float,
    n_gradients: int = 3,
    n_channels: int = 3,
    count: int = 1,
) -> NoiseRealization:
    """`count` independent realizations, drawn quasi-static first, then fast.

    One quasi-static draw covers all count * n_gradients gradient and
    count * n_channels detuning offsets, and one fast synthesis covers
    count * n_channels traces; row r takes the r-th block of each. With
    count = 1 the generator is consumed exactly as by one quasi-static and
    one fast draw of a single episode.
    """
    delta_b, delta_eps = sample_quasistatic(config, rng, count * n_gradients, count * n_channels)
    fast = sample_fast_trace(n_substeps, dt, config, rng, count * n_channels)
    return NoiseRealization(
        delta_b.reshape(count, n_gradients),
        delta_eps.reshape(count, n_channels),
        fast.reshape(n_substeps, count, n_channels).swapaxes(0, 1),
    )


def psd_estimate(samples: np.ndarray, dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One-sided periodogram of a single trace.

    Returns (freqs, power) with power scaled so that white noise of variance v
    averages to the flat level 2 v dt; interior bins carry the factor two of
    the folded negative frequencies, the DC and Nyquist bins do not.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D trace, got shape {x.shape}")
    if x.size < 2:
        raise ValueError("trace too short for a periodogram")
    _check_dt(dt)
    m = x.size
    spec = np.fft.rfft(x)
    power = (2.0 * dt / m) * np.abs(spec) ** 2
    power[0] *= 0.5
    if m % 2 == 0:
        power[-1] *= 0.5
    return np.fft.rfftfreq(m, dt), power
