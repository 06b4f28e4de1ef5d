from __future__ import annotations

import numpy as np
import pytest

from qdrl import noise
from qdrl.seeding import named_stream

AMPLITUDES = ("sigma_b", "sigma_eps", "fast_amplitude")


def fit_loglog_slope(freqs: np.ndarray, power: np.ndarray) -> float:
    """Least-squares slope of log10 power vs log10 frequency, mid band."""
    f_ny = freqs[-1]
    mask = (freqs >= 8 * freqs[1]) & (freqs <= 0.25 * f_ny)
    return float(np.polyfit(np.log10(freqs[mask]), np.log10(power[mask]), 1)[0])


def averaged_psd(config, m, dt, n_avg, seed=0):
    rng = np.random.default_rng(seed)
    acc = None
    for _ in range(n_avg):
        trace = noise.sample_fast_trace(m, dt, config, rng, n_channels=1)[:, 0]
        freqs, power = noise.psd_estimate(trace, dt)
        acc = power if acc is None else acc + power
    return freqs, acc / n_avg


class TestQuasistatic:
    def test_shapes_and_statistics(self):
        config = noise.NoiseConfig()
        rng = np.random.default_rng(0)
        draws_b = []
        draws_e = []
        for _ in range(4000):
            db, de = noise.sample_quasistatic(config, rng)
            draws_b.append(db)
            draws_e.append(de)
        db = np.array(draws_b)
        de = np.array(draws_e)
        assert db.shape == (4000, 3) and de.shape == (4000, 3)
        assert abs(db.mean()) < 5e-4
        assert db.std() == pytest.approx(config.sigma_b, rel=0.05)
        assert de.std() == pytest.approx(config.sigma_eps, rel=0.05)

    def test_switches_give_exact_zeros(self):
        # a zero amplitude draws nothing: the other channel sees a fresh stream
        config = noise.NoiseConfig(sigma_b=0.0)
        db, de = noise.sample_quasistatic(config, np.random.default_rng(1))
        assert not db.any()
        fresh = np.random.default_rng(1).normal(0.0, config.sigma_eps, 3)
        np.testing.assert_array_equal(de, fresh)
        config = noise.NoiseConfig(sigma_eps=0.0)
        db, de = noise.sample_quasistatic(config, np.random.default_rng(1))
        assert db.all() and not de.any()
        zero_sigma = noise.NoiseConfig(sigma_b=0.0, sigma_eps=0.0)
        db, de = noise.sample_quasistatic(zero_sigma, np.random.default_rng(2))
        assert not db.any() and not de.any()

    def test_scale_factors(self):
        base = noise.NoiseConfig()
        scaled = base.scaled(3.0)
        rng = np.random.default_rng(3)
        draws = np.array([noise.sample_quasistatic(scaled, rng)[0] for _ in range(4000)])
        assert draws.std() == pytest.approx(3.0 * base.sigma_b, rel=0.05)

    def test_quiet_flag(self):
        assert noise.NoiseConfig(sigma_b=0, sigma_eps=0, fast_amplitude=0).quiet
        assert noise.NoiseConfig().scaled(0.0).quiet
        assert not noise.NoiseConfig().quiet
        # any one amplitude left on makes the config audible
        for on in AMPLITUDES:
            assert not noise.NoiseConfig(**{f: 0.0 for f in AMPLITUDES if f != on}).quiet

    @pytest.mark.parametrize("name", AMPLITUDES + ("alpha",))
    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_fields_must_be_finite_and_non_negative(self, name, bad):
        with pytest.raises(ValueError, match=name):
            noise.NoiseConfig(**{name: bad})


class TestFastTrace:
    def test_dc_bin_is_zero(self):
        config = noise.NoiseConfig()
        trace = noise.sample_fast_trace(256, 0.25, config, np.random.default_rng(4))
        assert trace.shape == (256, 3)
        np.testing.assert_allclose(trace.mean(axis=0), 0.0, atol=1e-12)

    @pytest.mark.parametrize("alpha", [0.0, 0.7])
    def test_spectral_slope(self, alpha):
        config = noise.NoiseConfig(alpha=alpha)
        freqs, power = averaged_psd(config, m=2048, dt=0.25, n_avg=220, seed=5)
        slope = fit_loglog_slope(freqs, power)
        assert slope == pytest.approx(-alpha, abs=0.05)

    def test_amplitude_matches_target(self):
        config = noise.NoiseConfig(alpha=0.7)
        freqs, power = averaged_psd(config, m=1024, dt=0.25, n_avg=300, seed=6)
        target = noise._target_psd(freqs[1:], config)
        ratio = power[1:-1] / target[:-1]
        assert ratio.mean() == pytest.approx(1.0, abs=0.1)
        assert np.all(ratio > 1 / 1.5) and np.all(ratio < 1.5)

    def test_off_switch(self):
        config = noise.NoiseConfig(fast_amplitude=0.0)
        rng = np.random.default_rng(8)
        trace = noise.sample_fast_trace(64, 0.5, config, rng)
        assert not trace.any()
        # nothing drawn from the stream
        assert rng.random() == np.random.default_rng(8).random()

    @pytest.mark.parametrize("k", [0.5, 3.0])
    def test_scaled_trace_is_k_times_the_trace(self, k):
        # the PSD level scales with k^2, so the trace itself scales with k
        base = noise.NoiseConfig()
        trace = noise.sample_fast_trace(128, 0.25, base, np.random.default_rng(11))
        scaled = noise.sample_fast_trace(128, 0.25, base.scaled(k), np.random.default_rng(11))
        np.testing.assert_allclose(scaled, k * trace, rtol=1e-12)

    def test_determinism(self):
        config = noise.NoiseConfig()
        a = noise.sample_fast_trace(128, 0.25, config, np.random.default_rng(9))
        b = noise.sample_fast_trace(128, 0.25, config, np.random.default_rng(9))
        np.testing.assert_array_equal(a, b)

    def test_band_variance_is_small_at_default(self):
        # the optimistic spectrum leaves well under a percent of eps0^2 in the
        # resolved band, consistent with fast charge noise being subdominant
        config = noise.NoiseConfig()
        rng = np.random.default_rng(10)
        trace = noise.sample_fast_trace(4096, 0.25, config, rng, n_channels=8)
        assert trace.std() < 0.05

    @pytest.mark.parametrize("m", [127, 128])
    def test_same_bits_as_the_complex_spectrum(self, m):
        # the spectrum is written part by part in place; the complex
        # expression it replaces, with its division by sqrt(2), gives the
        # same bits on odd and even lengths (Nyquist bin included)
        config = noise.NoiseConfig()
        dt, channels = 0.25, 5
        rng = np.random.default_rng(15)
        freqs = np.fft.rfftfreq(m, dt)
        std = np.sqrt(noise._target_psd(freqs[1:], config) * m / (2.0 * dt))
        spec = np.zeros((freqs.size, channels), dtype=complex)
        draws = rng.normal(size=(2, freqs.size - 1, channels))
        spec[1:] = std[:, None] * (draws[0] + 1j * draws[1]) / np.sqrt(2.0)
        if m % 2 == 0:
            spec[-1] = std[-1] * rng.normal(size=channels)
        want = np.fft.irfft(spec, n=m, axis=0)
        got = noise.sample_fast_trace(m, dt, config, np.random.default_rng(15), channels)
        np.testing.assert_array_equal(got, want)

    def test_validation(self):
        config = noise.NoiseConfig()
        with pytest.raises(ValueError):
            noise.sample_fast_trace(1, 0.5, config, np.random.default_rng(0))
        with pytest.raises(ValueError):
            noise.sample_fast_trace(64, -0.5, config, np.random.default_rng(0))

    @pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0])
    def test_non_finite_dt_rejected(self, dt):
        # a NaN once passed the dt <= 0 check and came back as a NaN trace
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            noise.sample_fast_trace(64, dt, noise.NoiseConfig(), np.random.default_rng(0))


class TestRealization:
    def test_single_realization_is_quasistatic_then_fast(self):
        config = noise.NoiseConfig()
        z = noise.sample_realization(config, np.random.default_rng(13), 100, 0.25)
        rng = np.random.default_rng(13)
        db, de = noise.sample_quasistatic(config, rng)
        fast = noise.sample_fast_trace(100, 0.25, config, rng)
        np.testing.assert_array_equal(z.delta_b, db[None])
        np.testing.assert_array_equal(z.delta_eps, de[None])
        np.testing.assert_array_equal(z.fast, fast[None])

    def test_batch_shapes_and_per_channel_variances(self):
        config = noise.NoiseConfig()
        count, m, dt = 2000, 64, 0.25
        z = noise.sample_realization(
            config, np.random.default_rng(14), m, dt, n_gradients=3, n_channels=2, count=count
        )
        assert z.delta_b.shape == (count, 3)
        assert z.delta_eps.shape == (count, 2)
        assert z.fast.shape == (count, m, 2)
        np.testing.assert_allclose(z.delta_b.std(axis=0), config.sigma_b, rtol=0.05)
        np.testing.assert_allclose(z.delta_eps.std(axis=0), config.sigma_eps, rtol=0.05)
        # variance of a trace: the one-sided PSD integrated over the band,
        # the Nyquist bin of an even-length grid at half weight
        freqs = np.fft.rfftfreq(m, dt)
        psd = noise._target_psd(freqs[1:], config)
        expected = (psd[:-1].sum() + 0.5 * psd[-1]) / (m * dt)
        np.testing.assert_allclose(z.fast.var(axis=(0, 1)), expected, rtol=0.05)
        # each row is one whole trace, so each has the zeroed DC bin
        np.testing.assert_allclose(z.fast.mean(axis=1), 0.0, atol=1e-12)


class TestPsdEstimate:
    def test_white_noise_level(self):
        rng = np.random.default_rng(11)
        var, dt = 0.7, 0.4
        acc = None
        for _ in range(300):
            _, p = noise.psd_estimate(rng.normal(0, np.sqrt(var), 2048), dt)
            acc = p if acc is None else acc + p
        level = (acc / 300)[1:-1].mean()
        assert level == pytest.approx(2 * var * dt, rel=0.05)

    def test_parseval(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=1000)
        dt = 0.25
        freqs, p = noise.psd_estimate(x, dt)
        df = freqs[1] - freqs[0]
        # integral of the one-sided PSD recovers the mean square
        assert np.sum(p) * df == pytest.approx(np.mean(x**2), rel=1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            noise.psd_estimate(np.zeros((4, 4)), 0.1)
        with pytest.raises(ValueError):
            noise.psd_estimate(np.zeros(1), 0.1)

    @pytest.mark.parametrize("dt", [np.nan, np.inf, -0.1])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            noise.psd_estimate(np.zeros(16), dt)


def test_named_streams_are_uncorrelated():
    n = 100_000
    a = named_stream(1234, "quasistatic").normal(size=n)
    b = named_stream(1234, "fast_charge").normal(size=n)
    c = named_stream(1234, "exploration").normal(size=n)
    for x, y in ((a, b), (a, c), (b, c)):
        assert abs(np.corrcoef(x, y)[0, 1]) < 0.02
    # same name, same seed: identical
    d = named_stream(1234, "quasistatic").normal(size=n)
    np.testing.assert_array_equal(a, d)
