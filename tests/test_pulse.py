from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrl import pulse
from qdrl.qcore import DeviceParams

PARAMS = DeviceParams()


def applied_delay(k: pulse.ImpulseKernel) -> float:
    """The first moment of the response as convolve applies it, sum_j j dt s_j dt."""
    return float(np.sum(np.arange(k.samples.size) * k.dt * k.samples) * k.dt)


def test_oversample_repeats_segments():
    table = np.array([[1.0, 2.0], [3.0, 4.0]])
    trace = pulse.oversample(table, 1.0, 4)
    assert trace.dt == pytest.approx(0.25)
    assert trace.n_substeps == 8
    np.testing.assert_allclose(trace.values[:4], np.tile([1.0, 2.0], (4, 1)))
    np.testing.assert_allclose(trace.values[4:], np.tile([3.0, 4.0], (4, 1)))
    with pytest.raises(ValueError, match="factor"):
        pulse.oversample(table, 1.0, 0)
    with pytest.raises(ValueError, match="positive"):
        pulse.oversample(table, 0.0, 4)
    with pytest.raises(ValueError, match="2-D"):
        pulse.oversample(table[0], 1.0, 4)


class TestKernels:
    def test_gaussian_unit_dc_gain(self):
        for delay, sig, dt in [(1.0, 0.3, 0.1), (2.15, 0.5, 0.25), (0.0, 0.05, 0.2)]:
            k = pulse.gaussian_kernel(delay, sig, dt)
            assert abs(k.samples.sum() * dt - 1.0) < pulse.DC_GAIN_TOL
            assert np.all(k.samples >= 0)

    @pytest.mark.parametrize("delay, width, dt", [
        (2.0, 0.3, 0.05), (2.15, 0.5, 0.1), (5.0, 0.5, 0.1), (3.0, 0.2, 0.1), (3.0, 0.0, 0.1),
    ])
    def test_gaussian_applies_its_delay(self, delay, width, dt):
        # sample 0 is t = 0, so a kernel whose window starts after t = 0
        # keeps the zeros below it
        k = pulse.gaussian_kernel(delay, width, dt)
        assert applied_delay(k) == pytest.approx(delay, abs=dt)

    def test_tiny_sigma_approximates_delta(self):
        k = pulse.gaussian_kernel(0.0, 1e-9, 0.1)
        trace = pulse.ShapedTrace(np.random.default_rng(1).normal(size=(30, 2)), 0.1)
        out = pulse.convolve(trace, k)
        np.testing.assert_allclose(out.values, trace.values, atol=1e-12)

    def test_delta_kernel_identity(self):
        k = pulse.delta_kernel(0.5)
        trace = pulse.ShapedTrace(np.random.default_rng(2).normal(size=(12, 3)), 0.5)
        out = pulse.convolve(trace, k)
        np.testing.assert_allclose(out.values, trace.values, atol=0)

    def test_hand_edited_gain_rejected(self):
        with pytest.raises(ValueError, match="gain"):
            pulse.ImpulseKernel(np.array([1.0, 1.0]), 1.0)

    def test_non_finite_gain_rejected(self):
        # abs(nan - 1) > tol is False, so a NaN gain must fail the check as written
        with pytest.raises(ValueError, match="gain"):
            pulse.ImpulseKernel(np.array([np.nan]), 1.0)
        with pytest.raises(ValueError, match="gain"):
            pulse.ImpulseKernel(np.array([1.0, np.inf]), 1.0)
        with pytest.raises(ValueError, match="dt"):
            pulse.delta_kernel(np.inf)


class TestConvolve:
    def test_constant_at_rail_stays_constant(self):
        k = pulse.gaussian_kernel(1.0, 0.4, 0.1)
        vals = np.full((50, 3), PARAMS.eps_min)
        out = pulse.convolve(pulse.ShapedTrace(vals, 0.1), k, baseline=PARAMS.eps_min)
        np.testing.assert_allclose(out.values, PARAMS.eps_min, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(st.floats(-2, 2), st.floats(-2, 2), st.integers(0, 2**31 - 1))
    def test_linearity_at_zero_baseline(self, a, b, seed):
        rng = np.random.default_rng(seed)
        k = pulse.gaussian_kernel(0.6, 0.2, 0.1)
        x = pulse.ShapedTrace(rng.normal(size=(40, 2)), 0.1)
        y = pulse.ShapedTrace(rng.normal(size=(40, 2)), 0.1)
        mixed = pulse.ShapedTrace(a * x.values + b * y.values, 0.1)
        lhs = pulse.convolve(mixed, k).values
        rhs = a * pulse.convolve(x, k).values + b * pulse.convolve(y, k).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_bounds_preserved(self):
        rng = np.random.default_rng(5)
        k = pulse.gaussian_kernel(1.2, 0.5, 0.2)
        vals = rng.uniform(PARAMS.eps_min, PARAMS.eps_max, size=(60, 3))
        out = pulse.convolve(pulse.ShapedTrace(vals, 0.2), k, baseline=PARAMS.eps_min)
        assert out.values.min() >= PARAMS.eps_min - 1e-9
        assert out.values.max() <= PARAMS.eps_max + 1e-9

    def test_causality(self):
        # an impulse at substep 10 cannot show up earlier
        k = pulse.gaussian_kernel(0.8, 0.3, 0.1)
        vals = np.zeros((40, 1))
        vals[10, 0] = 1.0
        out = pulse.convolve(pulse.ShapedTrace(vals, 0.1), k)
        assert np.abs(out.values[:10]).max() == 0.0

    @pytest.mark.parametrize("delay, width", [(0.5, 0.1), (2.15, 0.5)])
    def test_prefix_shapes_to_the_leading_rows_bit_for_bit(self, delay, width):
        # every prefix, shorter or longer than the kernel, gives exactly the
        # first rows of the whole trace's output
        dt = 0.1
        k = pulse.gaussian_kernel(delay, width, dt)
        assert 1 < k.samples.size < 120
        rng = np.random.default_rng(6)
        vals = rng.uniform(PARAMS.eps_min, PARAMS.eps_max, size=(120, 3))
        whole = pulse.convolve(pulse.ShapedTrace(vals, dt), k, baseline=PARAMS.eps_min).values
        for m in range(1, len(vals)):
            prefix = pulse.convolve(pulse.ShapedTrace(vals[:m], dt), k, baseline=PARAMS.eps_min)
            np.testing.assert_array_equal(prefix.values, whole[:m])

    @pytest.mark.parametrize("delay, width", [(0.5, 0.1), (2.15, 0.5)])
    def test_window_shapes_to_the_rows_past_its_first_kernel_length(self, delay, width):
        # a window that starts K - 1 rows or more before row i gives row i on
        # exactly as the whole trace does, whatever the rows before it hold
        dt = 0.1
        k = pulse.gaussian_kernel(delay, width, dt)
        reach = k.samples.size - 1
        rng = np.random.default_rng(7)
        vals = rng.uniform(PARAMS.eps_min, PARAMS.eps_max, size=(120, 3))
        whole = pulse.convolve(pulse.ShapedTrace(vals, dt), k, baseline=PARAMS.eps_min).values
        for start in range(1, len(vals) - reach):
            for stop in (start + reach + 1, len(vals)):
                window = pulse.convolve(pulse.ShapedTrace(vals[start:stop], dt), k,
                                        baseline=PARAMS.eps_min)
                np.testing.assert_array_equal(window.values[reach:], whole[start + reach : stop])

    @pytest.mark.parametrize("delay, width, dt", [
        (2.0, 0.4, 0.05), (5.0, 0.5, 0.1), (3.0, 0.2, 0.1), (3.0, 0.0, 0.1),
    ])
    def test_step_response_half_amplitude_at_delay(self, delay, width, dt):
        k = pulse.gaussian_kernel(delay, width, dt)
        vals = np.ones((200, 1))
        out = pulse.convolve(pulse.ShapedTrace(vals, dt), k)
        crossing = np.argmax(out.values[:, 0] >= 0.5) * dt
        assert crossing == pytest.approx(delay, abs=2 * dt)

    def test_grid_mismatch_rejected(self):
        k = pulse.gaussian_kernel(1.0, 0.3, 0.1)
        trace = pulse.ShapedTrace(np.zeros((10, 1)), 0.2)
        with pytest.raises(ValueError, match="grid"):
            pulse.convolve(trace, k)


class TestLoadKernel:
    def test_round_trip(self, tmp_path):
        ref = pulse.gaussian_kernel(1.0, 0.3, 0.02)
        t = np.arange(ref.samples.size) * 0.02
        lines = ["# measured response", "# time_ns amplitude"]
        lines += [f"{ti:.6f} {ai:.8f}" for ti, ai in zip(t, ref.samples)]
        path = tmp_path / "kernel.txt"
        path.write_text("\n".join(lines) + "\n")
        k = pulse.load_kernel(path, dt=0.02)
        assert abs(k.samples.sum() * k.dt - 1.0) < pulse.DC_GAIN_TOL
        assert applied_delay(k) == pytest.approx(applied_delay(ref), abs=0.02)
        trace = pulse.ShapedTrace(np.random.default_rng(3).normal(size=(80, 1)), 0.02)
        np.testing.assert_allclose(
            pulse.convolve(trace, k).values, pulse.convolve(trace, ref).values, atol=1e-6
        )

    def test_resampling_onto_coarser_grid(self, tmp_path):
        path = tmp_path / "k.txt"
        path.write_text("0.0 0.0\n0.5 1.0\n1.0 0.0\n")
        k = pulse.load_kernel(path, dt=0.25)
        assert abs(k.samples.sum() * 0.25 - 1.0) < pulse.DC_GAIN_TOL
        assert applied_delay(k) == pytest.approx(0.5, abs=0.05)

    @pytest.mark.parametrize(
        "content, msg",
        [
            ("", "two samples"),
            ("0.0 1.0\n", "two samples"),
            ("0.0 1.0\n0.5 abc\n", "non-numeric"),
            ("0.0 1.0 2.0\n1.0 1.0\n", "two columns"),
            ("1.0 1.0\n0.5 1.0\n", "increasing"),
            ("-1.0 1.0\n0.5 1.0\n", "causal"),
            ("0.0 0.0\n1.0 0.0\n", "normalize"),
            # a non-finite sample, once read into an all-NaN kernel
            ("0.0 1.0\n0.5 nan\n", r"bad\.txt:2: non-finite"),
            ("# t a\n0.0 1.0\ninf 1.0\n", r"bad\.txt:3: non-finite"),
            ("0.0 -inf\n0.5 1.0\n", r"bad\.txt:1: non-finite"),
        ],
    )
    def test_malformed_files(self, tmp_path, content, msg):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ValueError, match=msg):
            pulse.load_kernel(path, dt=0.1)
