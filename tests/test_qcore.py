"""Checks of the sector Hamiltonian against the full four-spin model."""
from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import sys
import threading
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrl import qcore
from qdrl.noise import NoiseConfig, sample_realization
from qdrl.rlenv import DeviceModel

# Full-space basis: |s1 s2 s3 s4>, s = 0 for up, 1 for down, dot 1 most
# significant. The six S_z = 0 sector states in package order.
SECTOR_INDICES = [0b0101, 0b0110, 0b1001, 0b1010, 0b0011, 0b1100]

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


def _embed(op: np.ndarray, site: int) -> np.ndarray:
    mats = [ID2] * 4
    mats[site] = op
    out = mats[0]
    for m in mats[1:]:
        out = np.kron(out, m)
    return out


def full_space_hamiltonian(detunings, params: qcore.DeviceParams,
                           b_field: float = 0.0) -> np.ndarray:
    """Independent 16-dim build of the four-spin Hamiltonian; b_field is the
    global field B_G in units of j0."""
    j = params.j0 * np.exp(np.asarray(detunings, dtype=float))
    h = np.zeros((16, 16), dtype=complex)
    for pair, jval in zip(((0, 1), (1, 2), (2, 3)), j):
        for s in (SX, SY, SZ):
            h += (jval / 4.0) * _embed(s, pair[0]) @ _embed(s, pair[1])
    z = [_embed(SZ, i) for i in range(4)]
    b12, b23, b34 = params.j0 * params.gradients
    bg = params.j0 * b_field
    h += (bg / 2.0) * (z[0] + z[1] + z[2] + z[3])
    h += (b12 / 8.0) * (-3 * z[0] + z[1] + z[2] + z[3])
    h += (b23 / 4.0) * (-z[0] - z[1] + z[2] + z[3])
    h += (b34 / 8.0) * (-z[0] - z[1] - z[2] + 3 * z[3])
    return h


def hamiltonian(detunings, params: qcore.DeviceParams) -> np.ndarray:
    return DeviceModel.two_qubit(params).hamiltonians(detunings)


def trotter(detunings, params: qcore.DeviceParams, dt: float) -> np.ndarray:
    """Cumulative propagators of a piecewise-constant drive, (M+1, 6, 6)."""
    return qcore.propagate(hamiltonian(detunings, params), dt, cumulative=True)


@pytest.fixture
def params() -> qcore.DeviceParams:
    return qcore.DeviceParams()


def test_sector_matrices_match_full_space(params):
    rng = np.random.default_rng(7)
    for _ in range(20):
        dets = rng.uniform(params.eps_min, params.eps_max, size=3)
        full = full_space_hamiltonian(dets, params)
        restricted = full[np.ix_(SECTOR_INDICES, SECTOR_INDICES)]
        small = hamiltonian(dets, params)
        np.testing.assert_allclose(restricted, small, atol=1e-10)


def test_global_field_is_silent_in_sector():
    # the sector model has no global field: in the full space B_G adds a
    # multiple of total S_z, which is zero on the sector
    params = qcore.DeviceParams()
    dets = np.array([0.3, -1.0, 2.0])
    shifted = full_space_hamiltonian(dets, params, b_field=1.7)
    full = shifted - full_space_hamiltonian(dets, params)
    assert np.abs(full).max() > 0.1
    assert np.abs(full[np.ix_(SECTOR_INDICES, SECTOR_INDICES)]).max() < 1e-12
    np.testing.assert_allclose(
        shifted[np.ix_(SECTOR_INDICES, SECTOR_INDICES)], hamiltonian(dets, params), atol=1e-10)


def test_full_space_conserves_total_sz(params):
    rng = np.random.default_rng(3)
    sz_total = sum(_embed(SZ, i) for i in range(4))
    for _ in range(5):
        dets = rng.uniform(params.eps_min, params.eps_max, size=3)
        full = full_space_hamiltonian(dets, params)
        comm = full @ sz_total - sz_total @ full
        assert np.abs(comm).max() < 1e-12
        # the sector does not couple to the rest of the space
        rest = [i for i in range(16) if i not in SECTOR_INDICES]
        assert np.abs(full[np.ix_(SECTOR_INDICES, rest)]).max() < 1e-12


def test_exchange_coupling_values(params):
    assert qcore.exchange_coupling(0.0, params) == pytest.approx(params.j0)
    assert qcore.exchange_coupling(1.0, params) == pytest.approx(params.j0 * math.e)
    eps = np.linspace(params.eps_min, params.eps_max, 50)
    j = qcore.exchange_coupling(eps, params)
    assert np.all(np.diff(j) > 0)
    assert np.all(j > 0)


def test_device_params_validation():
    with pytest.raises(ValueError):
        qcore.DeviceParams(j0=-1.0)
    with pytest.raises(ValueError):
        qcore.DeviceParams(eps_min=2.0, eps_max=-2.0)
    with pytest.raises(ValueError):
        qcore.DeviceParams(eps0=0.0)


def test_hamiltonian_is_hermitian_and_batched(params):
    rng = np.random.default_rng(11)
    dets = rng.uniform(-5.4, 2.4, size=(4, 5, 3))
    h = hamiltonian(dets, params)
    assert h.shape == (4, 5, 6, 6)
    np.testing.assert_allclose(h, np.swapaxes(h, -1, -2).conj(), atol=1e-14)
    one = hamiltonian(dets[2, 3], params)
    np.testing.assert_allclose(one, h[2, 3])


def test_hamiltonian_assembly_matches_the_einsum_form(params):
    # per-realization gradients (R, 1, 3) broadcast against detunings (R, M, 3)
    rng = np.random.default_rng(17)
    j = qcore.exchange_coupling(rng.uniform(params.eps_min, params.eps_max, (9, 40, 3)), params)
    b = params.gradients + rng.normal(0.0, 0.05, size=(9, 1, 3))
    couplers, gradients = qcore._coupler_matrices(), qcore._gradient_matrices()
    want = np.einsum("...i,ijk->...jk", j, couplers)
    want += np.einsum("...i,ijk->...jk", b, gradients)
    got = qcore.sector_hamiltonian(j, b @ gradients.reshape(3, 36), couplers.reshape(3, 36))
    np.testing.assert_array_equal(got, want)


def _expm_stack(h: np.ndarray, dt: float) -> np.ndarray:
    flat = h.reshape((-1,) + h.shape[-2:])
    return np.stack([scipy.linalg.expm(-1j * dt * m) for m in flat]).reshape(h.shape)


class TestStepPropagator:
    @pytest.mark.parametrize("dt, squarings, bound", [
        pytest.param(0.01, 0, 1e-13, id="0.01-0"),
        pytest.param(0.1, 1, 1e-13, id="0.1-1"),
        pytest.param(0.5, 3, 1e-13, id="0.5-3"),
        pytest.param(2.0, 5, 1e-13, id="2.0-5"),
        # the series alone at theta = 0.96, truncated below machine epsilon
        pytest.param(0.08, 0, 1e-15, id="series-alone"),
    ])
    def test_matches_scipy_expm_across_squarings(self, params, dt, squarings, bound):
        # detunings over the whole range with random gradient offsets; the
        # step length sets how often the series result is squared
        rng = np.random.default_rng(43)
        dets = rng.uniform(params.eps_min, params.eps_max, size=(8, 8, 3))
        h = DeviceModel.two_qubit(params).hamiltonians(dets, rng.normal(0.0, 0.5, size=(8, 3)))
        each, rounds = qcore._squarings(h.reshape((-1, 6, 6)), dt)
        assert each.max() == rounds == squarings
        if bound < 1e-13:
            assert 0.5 < dt * np.abs(h).sum(axis=-2).max() <= 1.0
        u = qcore.step_propagator(h, dt)
        assert u.dtype == np.complex128
        assert np.abs(u - _expm_stack(h, dt)).max() <= bound

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, params, bad):
        h = hamiltonian(np.zeros((5, 3)), params)
        h[3, 2, 2] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qcore.step_propagator(h, 0.1)

    def test_matches_scipy_expm(self, params):
        rng = np.random.default_rng(5)
        for _ in range(10):
            dets = rng.uniform(-5.4, 2.4, size=3)
            h = hamiltonian(dets, params)
            dt = float(rng.uniform(0.01, 0.5))
            u = qcore.step_propagator(h, dt)
            ref = scipy.linalg.expm(-1j * dt * h)
            np.testing.assert_allclose(u, ref, atol=1e-12)

    def test_unitarity(self, params):
        rng = np.random.default_rng(6)
        h = hamiltonian(rng.uniform(-5, 2, size=(30, 3)), params)
        u = qcore.step_propagator(h, 0.2)
        dev = np.abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(6)).max()
        assert dev < 1e-12

    def test_rejects_non_hermitian(self):
        h = np.eye(6)
        h[0, 1] = 1.0  # no symmetric partner
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.step_propagator(h, 0.1)

    def test_rejects_complex_input(self, params):
        # a complex Hermitian stack too: qcore evolves real symmetric H only
        h = hamiltonian(np.zeros((5, 3)), params).astype(complex)
        # a stack, one matrix, and 1500 matrices in two pieces
        for bad in (h, h[0], np.tile(h, (300, 1, 1))):
            with pytest.raises(ValueError, match="complex input"):
                qcore.step_propagator(bad, 0.1)

    def test_zero_stack_is_the_identity_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = qcore.step_propagator(np.zeros((5, 6, 6)), 0.1)
            final = qcore.propagate(np.zeros((10, 32, 6, 6)), 0.1)
        np.testing.assert_array_equal(u, np.broadcast_to(np.eye(6), u.shape))
        np.testing.assert_array_equal(final, np.broadcast_to(np.eye(6), final.shape))

    def test_rejects_nonpositive_dt(self, params):
        h = hamiltonian(np.zeros(3), params)
        with pytest.raises(ValueError):
            qcore.step_propagator(h, 0.0)
        with pytest.raises(ValueError):
            qcore.step_propagator(h, -0.1)


def _evolve(h: np.ndarray) -> np.ndarray:
    return qcore.step_propagator(h, 0.1)


def noisy_protocol(rows: int, params: qcore.DeviceParams, seed: int = 0) -> np.ndarray:
    """Time-major H (240, rows, 6, 6) of a random 24-segment protocol held for
    10 substeps of dt = 0.1 ns each, one realization of the default noise
    model per row."""
    rng = np.random.default_rng(seed)
    dets = np.repeat(rng.uniform(params.eps_min, params.eps_max, size=(24, 3)), 10, axis=0)
    z = sample_realization(NoiseConfig(), rng, len(dets), 0.1, count=rows)
    dets = dets[:, None] + z.delta_eps + z.fast.swapaxes(0, 1)
    return DeviceModel.two_qubit(params).hamiltonians(dets, z.delta_b)


def complex_fold(h: np.ndarray, dt: float) -> np.ndarray:
    """The step propagators of a time-major stack, multiplied one by one."""
    steps = qcore.step_propagator(h, dt)
    u = steps[0]
    for step in steps[1:]:
        u = step @ u
    return u


def _cores_and_propagators(h: np.ndarray) -> tuple[int, np.ndarray]:
    return qcore._usable_cores(), qcore.step_propagator(h, 0.1)


class TestLargeStacks:
    """Stacks longer than one piece: split, spread over threads, same bits."""

    @pytest.fixture()
    def stack(self, params):
        # 8323 matrices over two leading axes: two full pieces and a partial one
        rng = np.random.default_rng(31)
        h = hamiltonian(rng.uniform(-5.4, 2.4, size=(7, 1189, 3)), params)
        assert math.prod(h.shape[:-2]) % qcore._PIECE != 0
        assert math.prod(h.shape[:-2]) > 2 * qcore._PIECE
        return h

    @staticmethod
    def whole(h, monkeypatch):
        with monkeypatch.context() as m:
            m.setattr(qcore, "_PIECE", math.prod(h.shape[:-2]))
            return qcore.step_propagator(h, 0.1)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_pieces_equal_the_whole_stack(self, stack, monkeypatch, cores):
        whole = self.whole(stack, monkeypatch)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        split = qcore.step_propagator(stack, 0.1)
        assert split.shape == whole.shape and split.dtype == whole.dtype
        np.testing.assert_array_equal(split, whole)

    def test_small_stacks_stay_on_the_calling_thread(self, params, monkeypatch):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: pytest.fail("stack was split"))
        h = hamiltonian(np.zeros((qcore._PIECE, 3)), params)
        qcore.step_propagator(h, 0.1)

    def test_concurrent_callers_each_get_the_whole_stack_bits(self, stack, monkeypatch):
        whole = self.whole(stack, monkeypatch)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as callers:
                futures = [callers.submit(_evolve, stack) for _ in range(6)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        for got in results:
            np.testing.assert_array_equal(got, whole)
        # each call closes the pool it opened
        assert not [t for t in threading.enumerate() if t.name.startswith("qdrl-qcore")]

    def test_one_thread_pool_per_call(self, stack, monkeypatch):
        # every piece of the call runs on one executor
        opened = []

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(self)
                super().__init__(*args, **kwargs)

        whole = self.whole(stack, monkeypatch)
        monkeypatch.setattr(qcore, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 2)
        np.testing.assert_array_equal(qcore.step_propagator(stack, 0.1), whole)
        assert len(opened) == 1

    @pytest.mark.parametrize("cores", [1, 2])
    def test_non_hermitian_matrix_in_the_last_piece_rejected(self, stack, monkeypatch, cores):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        bad = stack.copy()
        bad[-1, -1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.step_propagator(bad, 0.1)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_a_matrix_alone_equals_its_place_in_a_stack(self, monkeypatch, cores):
        # the series' coefficient step is one product over a whole piece; a
        # matrix gets the same bits alone as at either side of a piece
        # boundary. Norms of 0.1, 1, 5 and 40 at dt = 3 take 0, 2, 4 and 7
        # squarings, mixed within every piece.
        rng = np.random.default_rng(33)
        a = rng.normal(size=(3000, 6, 6))
        h = a + np.swapaxes(a, -1, -2)
        h /= np.abs(h).sum(axis=-2).max(axis=-1)[:, None, None]
        h *= np.resize([0.1, 1.0, 5.0, 40.0], len(h))[:, None, None]
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        stack = qcore.step_propagator(h, 3.0)
        for k in (0, 1, 2, 1022, 1023, 1024, 1025, 2047, 2048, 2999):
            alone = qcore.step_propagator(h[k], 3.0)
            assert qcore._squarings(h[k : k + 1], 3.0)[0] == [0, 2, 4, 7][k % 4]
            np.testing.assert_array_equal(alone, stack[k])

    @pytest.mark.parametrize("cores", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_in_the_last_piece_rejected(self, stack, monkeypatch, cores, bad):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        h = stack.copy()
        h[-1, -1, 3, 3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            qcore.step_propagator(h, 0.1)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_squarings_set_by_each_matrix(self, stack, monkeypatch, cores):
        # one large-norm matrix in the last piece takes more squarings than
        # the rest, which keep the bits they have without it
        h = stack.copy()
        h[-1, -1] *= 300.0
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        got = qcore.step_propagator(h, 0.1)
        np.testing.assert_array_equal(got, self.whole(h, monkeypatch))
        np.testing.assert_array_equal(got[-1, -1], qcore.step_propagator(h[-1, -1], 0.1))
        untouched = qcore.step_propagator(stack, 0.1)
        np.testing.assert_array_equal(got[:-1], untouched[:-1])
        np.testing.assert_array_equal(got[-1, :-1], untouched[-1, :-1])

    @pytest.mark.parametrize("cores", [1, 2])
    def test_hermiticity_judged_per_matrix(self, stack, monkeypatch, cores):
        # an asymmetry of 1e-9 is within the tolerance of a matrix with an
        # entry of 1e4, alone and in a stack, and outside that of a matrix of
        # unit scale, alone and in a stack that holds the large one as well
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        large = stack.copy()
        large[0, 0, 5, 5] = 1e4
        large[0, 0, 0, 1] += 1e-9
        got = qcore.step_propagator(large, 0.1)
        np.testing.assert_array_equal(got[0, 0], qcore.step_propagator(large[0, 0], 0.1))
        np.testing.assert_array_equal(got, self.whole(large, monkeypatch))
        small = large.copy()
        small[-1, -1, 0, 1] += 1e-9
        for h in (small, small[-1, -1]):
            with pytest.raises(ValueError, match="Hermitian"):
                qcore.step_propagator(h, 0.1)

    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_child_forked_after_the_pool_started(self, stack, monkeypatch):
        whole = self.whole(stack, monkeypatch)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 2)
        qcore.step_propagator(stack, 0.1)
        # the child starts its own threads for the pieces
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_evolve, (stack,)).get(timeout=120)
        np.testing.assert_array_equal(got, whole)

    def test_serial_worker_processes(self, stack, monkeypatch):
        # a pool child shares the cores with its siblings: qcore gives it one
        whole = self.whole(stack, monkeypatch)
        assert qcore._usable_cores() == len(os.sched_getaffinity(0))
        with ProcessPoolExecutor(1) as pool:
            cores, got = pool.submit(_cores_and_propagators, stack).result(timeout=120)
        assert cores == 1
        np.testing.assert_array_equal(got, whole)

    @pytest.mark.parametrize("rows", [32, 100])
    def test_pair_fold_the_same_on_any_pieces_and_cores(self, params, monkeypatch, rows):
        # 100 rows: 10 steps to a 1000-matrix piece, so each 30-step block
        # spans three pieces; 32 rows: 31 steps to a piece, one piece a block
        h = noisy_protocol(rows, params)
        results = []
        for piece, cores in [(10**9, 1), (10**9, 2), (1000, 1), (1000, 2)]:
            monkeypatch.setattr(qcore, "_PIECE", piece)
            monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
            results.append(qcore.propagate(h, 0.1))
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])


class _RecordingStack:
    """A stack that hands out time slices, and time and row slices, of an
    array and records each one: (lo, hi) for a time slice, (lo, hi, r0, r1)
    for a time and row slice. It has a shape and no dtype."""

    def __init__(self, h: np.ndarray):
        self._h = h
        self.shape = h.shape
        self.slices: list[tuple[int, ...]] = []

    def __getitem__(self, key) -> np.ndarray:
        steps, rows = key if isinstance(key, tuple) else (key, None)
        self.slices.append((steps.start, steps.stop) if rows is None
                           else (steps.start, steps.stop, rows.start, rows.stop))
        return self._h[key]


class TestStackContract:
    """propagate reads a stack through its shape and slices alone."""

    @pytest.mark.parametrize("rows, piece", [(32, 1024), (100, 1000), (100, 64), (512, 1024)])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_pair_path_reads_one_piece_of_steps_at_a_time(self, params, monkeypatch,
                                                          rows, piece, cores):
        h = noisy_protocol(rows, params, seed=rows)
        whole = qcore.propagate(h, 0.1)
        monkeypatch.setattr(qcore, "_PIECE", piece)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        stack = _RecordingStack(h)
        np.testing.assert_array_equal(qcore.propagate(stack, 0.1), whole)
        per_piece = max(1, piece // rows)
        assert max(hi - lo for lo, hi in stack.slices) <= per_piece
        # every step is read exactly once, checked and evolved together
        reads = np.zeros(len(h), dtype=int)
        for lo, hi in stack.slices:
            reads[lo:hi] += 1
        np.testing.assert_array_equal(reads, 1)

    @pytest.mark.parametrize("rows, cumulative", [(31, False), (32, True)])
    def test_other_paths_read_the_whole_stack_once(self, params, rows, cumulative):
        h = noisy_protocol(rows, params, seed=1)[:20]
        stack = _RecordingStack(h)
        got = qcore.propagate(stack, 0.1, cumulative=cumulative)
        assert stack.slices == [(0, 20)]
        np.testing.assert_array_equal(got, qcore.propagate(h, 0.1, cumulative=cumulative))

    @pytest.mark.parametrize("rows, piece", [(32, 1024), (100, 1000), (100, 64), (512, 1024)])
    @pytest.mark.parametrize("cores", [1, 2])
    def test_states_read_each_step_of_each_row_once(self, params, monkeypatch,
                                                    rows, piece, cores):
        h = noisy_protocol(rows, params, seed=rows)
        states = probe_columns(rows, 1, seed=rows)
        whole = qcore.propagate(h, 0.1, states=states)
        monkeypatch.setattr(qcore, "_PIECE", piece)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        stack = _RecordingStack(h)
        np.testing.assert_array_equal(qcore.propagate(stack, 0.1, states=states), whole)
        # only time and row slices, one contiguous row block per core when
        # the stack spans more than a piece, each slice at most a piece
        assert all(len(key) == 4 for key in stack.slices)
        blocks = sorted({(r0, r1) for _, _, r0, r1 in stack.slices})
        assert len(blocks) == (cores if len(h) * rows > piece else 1)
        assert max((hi - lo) * (r1 - r0) for lo, hi, r0, r1 in stack.slices) <= max(piece, rows)
        reads = np.zeros((len(h), rows), dtype=int)
        for lo, hi, r0, r1 in stack.slices:
            reads[lo:hi, r0:r1] += 1
        np.testing.assert_array_equal(reads, 1)

    @pytest.mark.parametrize("rows", [1, 31, 32])
    @pytest.mark.parametrize("path", ["operators", "states", "cumulative"])
    def test_a_stack_without_dtype_gives_the_array_bits(self, params, rows, path):
        # one row folds by .dot, 31 rows by the complex fold, 32 in real
        # pairs unless cumulative
        h = noisy_protocol(rows, params, seed=2)[:20]
        kwargs = _path_kwargs(path, rows)
        want = qcore.propagate(h, 0.1, **kwargs)
        got = qcore.propagate(_RecordingStack(h), 0.1, **kwargs)
        assert got.dtype == want.dtype == np.complex128
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows", [1, 31, 32, 100])
    @pytest.mark.parametrize("path", ["operators", "states", "cumulative"])
    def test_complex_stacks_rejected_on_every_path(self, params, monkeypatch, rows, path):
        # Hermitian, but complex: qcore evolves real symmetric H only; 100
        # rows of 20 steps span two pieces, evolved on a thread pool
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 2)
        h = noisy_protocol(rows, params, seed=3)[:20].astype(complex)
        kwargs = _path_kwargs(path, rows)
        for stack in (h, _RecordingStack(h)):
            with pytest.raises(ValueError, match="complex input"):
                qcore.propagate(stack, 0.1, **kwargs)


def probe_columns(rows: int, k: int, seed: int = 0) -> np.ndarray:
    """(rows, 6, k) random complex columns, normalized."""
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(rows, 6, k)) + 1j * rng.normal(size=(rows, 6, k))
    return v / np.linalg.norm(v, axis=-2, keepdims=True)


def _path_kwargs(path: str, rows: int) -> dict:
    """propagate's keyword arguments for final operators, two probe states
    per row, or the cumulative stack."""
    return {"operators": {}, "states": {"states": probe_columns(rows, 2)},
            "cumulative": {"cumulative": True}}[path]


class TestStates:
    """propagate(h, dt, states=V) evolves the columns V alone: U V."""

    @pytest.mark.parametrize("rows", [31, 32, 100, 512])
    @pytest.mark.parametrize("k", [1, 4])
    def test_equals_the_propagator_times_the_states(self, params, rows, k):
        h = noisy_protocol(rows, params, seed=rows + k)
        states = probe_columns(rows, k, seed=k)
        got = qcore.propagate(h, 0.1, states=states)
        assert got.shape == (rows, 6, k) and got.dtype == np.complex128
        assert np.abs(got - qcore.propagate(h, 0.1) @ states).max() <= 1e-13

    @pytest.mark.parametrize("rows", [32, 100, 512])
    @pytest.mark.parametrize("k", [1, 4])
    def test_the_same_on_any_pieces_and_cores(self, params, monkeypatch, rows, k):
        # 100 rows on 2 cores: two 50-row blocks, 20 steps to a 1000-matrix
        # piece, one step to a 64-matrix piece
        h = noisy_protocol(rows, params, seed=rows)
        states = probe_columns(rows, k, seed=rows)
        results = []
        for piece in (64, 1000, 1024):
            for cores in (1, 2):
                monkeypatch.setattr(qcore, "_PIECE", piece)
                monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
                results.append(qcore.propagate(h, 0.1, states=states))
        for got in results[1:]:
            np.testing.assert_array_equal(got, results[0])

    def test_rows_do_not_depend_on_their_neighbours(self, params):
        h = noisy_protocol(64, params, seed=7)
        h[:, 40:] *= 40.0
        states = probe_columns(64, 2, seed=7)
        np.testing.assert_array_equal(qcore.propagate(h, 0.1, states=states)[:40],
                                      qcore.propagate(h[:, :40], 0.1, states=states[:40]))

    def test_rows_over_several_axes(self, params, monkeypatch):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 2)
        h = noisy_protocol(48, params, seed=4)
        states = probe_columns(48, 3, seed=4)
        got = qcore.propagate(h.reshape((240, 6, 8, 6, 6)), 0.1,
                              states=states.reshape((6, 8, 6, 3)))
        np.testing.assert_array_equal(
            got, qcore.propagate(h, 0.1, states=states).reshape((6, 8, 6, 3)))

    def test_real_states_and_other_paths(self, params):
        # real columns fold as complex ones with a zero imaginary part;
        # fewer rows multiply the propagator by them
        h = noisy_protocol(32, params, seed=9)[:30]
        real = probe_columns(32, 2, seed=9).real
        np.testing.assert_array_equal(qcore.propagate(h, 0.1, states=real),
                                      qcore.propagate(h, 0.1, states=real + 0j))
        np.testing.assert_array_equal(qcore.propagate(h[:, :31], 0.1, states=real[:31]),
                                      complex_fold(h[:, :31], 0.1) @ real[:31])

    def test_bad_states_rejected(self, params):
        h = noisy_protocol(32, params, seed=10)[:10]
        states = probe_columns(32, 1)
        with pytest.raises(ValueError, match="cumulative"):
            qcore.propagate(h, 0.1, cumulative=True, states=states)
        for bad in (states[:31], states[:, :5], states[..., 0]):
            with pytest.raises(ValueError, match="do not fit"):
                qcore.propagate(h, 0.1, states=bad)


class TestPairFold:
    """Stacks of at least 32 rows fold in real (cos, sin) pairs, in 8 time blocks."""

    @pytest.mark.parametrize("rows", [32, 64, 512])
    def test_matches_the_complex_fold(self, params, rows):
        h = noisy_protocol(rows, params, seed=rows)
        u = qcore.propagate(h, 0.1)
        assert u.shape == (rows, 6, 6) and u.dtype == np.complex128
        assert np.abs(u - complex_fold(h, 0.1)).max() <= 1e-13

    def test_rows_do_not_depend_on_their_neighbours(self, params):
        # rows 40..63 take more squarings than rows 0..39, which keep the
        # bits they have in a stack of their own
        h = noisy_protocol(64, params, seed=7)
        h[:, 40:] *= 40.0
        assert qcore._squarings(h[:, 40:].reshape((-1, 6, 6)), 0.1)[0].min() > (
            qcore._squarings(h[:, :40].reshape((-1, 6, 6)), 0.1)[0].max())
        np.testing.assert_array_equal(qcore.propagate(h, 0.1)[:40],
                                      qcore.propagate(h[:, :40], 0.1))

    def test_31_and_32_rows_agree(self, params):
        h = noisy_protocol(32, params, seed=3)
        below = qcore.propagate(h[:, :31], 0.1)
        # 31 rows are the complex fold itself, bit for bit
        np.testing.assert_array_equal(below, complex_fold(h[:, :31], 0.1))
        assert np.abs(qcore.propagate(h, 0.1)[:31] - below).max() <= 1e-13

    @pytest.mark.parametrize("steps", [1, 3, 8, 9])
    def test_fewer_steps_than_blocks(self, params, steps):
        h = noisy_protocol(40, params, seed=steps)[:steps]
        assert np.abs(qcore.propagate(h, 0.1) - complex_fold(h, 0.1)).max() <= 1e-13

    def test_rows_over_several_axes(self, params):
        h = noisy_protocol(48, params, seed=4)
        u = qcore.propagate(h.reshape((240, 6, 8, 6, 6)), 0.1)
        np.testing.assert_array_equal(u, qcore.propagate(h, 0.1).reshape((6, 8, 6, 6)))

    def test_cumulative_stacks_keep_the_complex_fold(self, params):
        h = noisy_protocol(32, params, seed=5)[:20]
        cumulative = qcore.propagate(h, 0.1, cumulative=True)
        assert cumulative.shape == (21, 32, 6, 6)
        np.testing.assert_array_equal(cumulative[0], np.broadcast_to(np.eye(6), (32, 6, 6)))
        np.testing.assert_array_equal(cumulative[-1], complex_fold(h, 0.1))

    @pytest.mark.parametrize("cores", [1, 2])
    def test_bad_stacks_rejected(self, params, monkeypatch, cores):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        h = noisy_protocol(32, params, seed=6)
        asymmetric = h.copy()
        asymmetric[-1, -1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.propagate(asymmetric, 0.1)
        h[-1, -1, 3, 3] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            qcore.propagate(h, 0.1)
        with pytest.raises(ValueError, match="dt"):
            qcore.propagate(h, 0.0)
        with pytest.raises(ValueError, match="M >= 1"):
            qcore.propagate(h[:0], 0.1)


class TestTrotterEvolve:
    def test_piecewise_constant_is_exact(self, params):
        # a single held value is just one matrix exponential
        dets = np.tile([[0.5, -2.0, 1.0]], (8, 1))
        u = trotter(dets, params, dt=0.125)
        h = hamiltonian(dets[0], params)
        ref = scipy.linalg.expm(-1j * 1.0 * h)
        np.testing.assert_allclose(u[-1], ref, atol=1e-10)

    def test_shape_identity_and_unitarity(self, params):
        rng = np.random.default_rng(9)
        dets = rng.uniform(-5.4, 2.4, size=(40, 3))
        u = trotter(dets, params, dt=0.05)
        assert u.shape == (41, 6, 6)
        np.testing.assert_allclose(u[0], np.eye(6), atol=0)
        dev = np.abs(np.swapaxes(u, -1, -2).conj() @ u - np.eye(6)).max()
        assert dev < qcore.UNITARITY_TOL

    def test_second_order_in_dt(self, params):
        # smooth drive sampled at substep midpoints: halving dt should cut the
        # error against a fine-grained oracle by about 4. One trace here as a
        # fast regression; the averaged version lives in the acceptance suite.
        rng = np.random.default_rng(21)
        coeffs = rng.normal(size=(3, 3)) * 0.8
        total = 4.0

        def trace(m):
            t = (np.arange(m) + 0.5) * (total / m)
            phases = 2 * np.pi * np.outer(t / total, [1, 2, 3])
            return np.clip(np.sin(phases) @ coeffs.T - 1.0, -5.4, 2.4)

        ref = trotter(trace(64 * 40), params, dt=total / (64 * 40))[-1]
        errs = []
        for m in (40, 80):
            u = trotter(trace(m), params, dt=total / m)[-1]
            errs.append(np.abs(u - ref).max())
        ratio = errs[0] / errs[1]
        assert 3.0 < ratio < 5.0

    def test_evolve_final_matches_cumulative(self, params):
        rng = np.random.default_rng(13)
        # time-major: 25 substeps of 6 rows, one gradient offset per row
        dets = rng.uniform(-5.4, 2.4, size=(25, 6, 3))
        delta_b = rng.normal(0, 0.01, size=(6, 3))
        h = DeviceModel.two_qubit(params).hamiltonians(dets, delta_b)
        batch = qcore.propagate(h, 0.1)
        assert batch.shape == (6, 6, 6)
        for k in range(6):
            b12, b23, b34 = params.gradients + delta_b[k]
            shifted = dataclasses.replace(params, b12=b12, b23=b23, b34=b34)
            u = trotter(dets[:, k], shifted, dt=0.1)
            np.testing.assert_allclose(batch[k], u[-1], atol=1e-11)


class TestFidelity:
    def test_self_fidelity(self):
        rng = np.random.default_rng(2)
        u = qcore.haar_unitary(4, rng)
        assert qcore.gate_fidelity(u, u) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(st.floats(-math.pi, math.pi), st.integers(0, 2**31 - 1))
    def test_global_phase_invariance(self, phase, seed):
        u = qcore.haar_unitary(4, np.random.default_rng(seed))
        v = qcore.haar_unitary(4, np.random.default_rng(seed + 1))
        f0 = qcore.gate_fidelity(u, v)
        f1 = qcore.gate_fidelity(np.exp(1j * phase) * u, v)
        assert f1 == pytest.approx(f0, abs=1e-12)
        assert 0.0 <= f1 <= 1.0

    def test_identity_vs_cnot_value(self):
        # Tr(CNOT) = 2, so F = |2/4|^2 = 1/4 and the log-infidelity is
        # -log10(3/4), computed here independently of the library.
        expected = -math.log10(1.0 - abs(2.0 / 4.0) ** 2)
        got = qcore.nlif(np.eye(4, dtype=complex), qcore.cnot_target())
        assert abs(got - expected) < 1e-9

    def test_nlif_cap(self):
        rng = np.random.default_rng(4)
        u = qcore.haar_unitary(4, rng)
        assert qcore.nlif(u, u) == pytest.approx(qcore.DEFAULT_NLIF_CAP)
        assert qcore.nlif(u, u, cap=6.0) == pytest.approx(6.0)

    def test_batched(self):
        rng = np.random.default_rng(8)
        us = np.stack([qcore.haar_unitary(4, rng) for _ in range(5)])
        target = qcore.cnot_target()
        f = qcore.gate_fidelity(us, target)
        assert f.shape == (5,)
        for k in range(5):
            assert f[k] == pytest.approx(qcore.gate_fidelity(us[k], target))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            qcore.gate_fidelity(np.eye(6), qcore.cnot_target())

    def test_an_orthogonal_block_scores_positive_zero(self):
        # Tr(X^dag I) = 0: fidelity 0, infidelity 1, and -log10(1) is -0.0,
        # which a JSON record would write as -0.0
        x = np.array([[0, 1], [1, 0]], dtype=complex)
        score = qcore.nlif(x, np.eye(2))
        assert score == 0.0 and not np.signbit(score)
        assert not np.signbit(qcore.nlif(np.stack([x, x, x]), np.eye(2))).any()
        assert not np.signbit(qcore.nlif_from_infidelity(1.0))
        assert not np.signbit(qcore.nlif_from_infidelity(np.ones(40))).any()

    def test_scores_keep_the_bits_of_clipping(self):
        # the bookkeeping clamps give np.clip's results, scalar and batched,
        # at the rails, beyond them and for NaN; the one exception is the
        # -0.0 that np.clip keeps at an infidelity of 1
        cap = 6.0
        infid = np.array([-1.0, 0.0, 1e-7, 1e-6, 1e-6 * (1 + 1e-15), 0.3, 1.0, 2.0,
                          np.inf, np.nan])
        raw = -np.log10(np.maximum(infid, 10.0 ** (-cap)))
        want = np.clip(raw, 0.0, cap) + 0.0  # + 0.0 turns -0.0 into +0.0 only
        got = qcore.nlif_from_infidelity(infid, cap)
        assert got.tobytes() == want.tobytes()
        for x, w in zip(infid, want):
            assert np.float64(qcore.nlif_from_infidelity(x, cap)).tobytes() == w.tobytes()

        rng = np.random.default_rng(3)
        blocks = qcore.haar_unitary(4, rng) * np.array(
            [0.0, 0.5, 1.0, 1.0 + 1e-15, 1.0 + 1e-9, np.nan])[:, None, None]
        blocks[2] = qcore.cnot_target()
        target = qcore.cnot_target()
        tr = np.einsum("...ij,ij->...", blocks, np.conj(target)) / 4
        want = np.clip(np.abs(tr) ** 2, 0.0, 1.0)
        assert qcore.gate_fidelity(blocks, target).tobytes() == want.tobytes()
        for b, w in zip(blocks, want):
            assert np.float64(qcore.gate_fidelity(b, target)).tobytes() == w.tobytes()
        want = np.clip(1.0 - np.sum(np.abs(blocks) ** 2, axis=(-2, -1)) / 4, 0.0, 1.0)
        assert qcore.block_leakage(blocks).tobytes() == want.tobytes()
        for b, w in zip(blocks, want):
            assert np.float64(qcore.block_leakage(b)).tobytes() == w.tobytes()


def test_computational_block_and_leakage():
    rng = np.random.default_rng(10)
    u = qcore.haar_unitary(6, rng)
    b = qcore.computational_block(u)
    assert b.shape == (4, 4)
    np.testing.assert_allclose(b, u[:4, :4])
    leak = qcore.block_leakage(b)
    assert 0.0 <= leak <= 1.0
    # block-diagonal unitary leaks nothing
    u2 = np.zeros((6, 6), dtype=complex)
    u2[:4, :4] = qcore.haar_unitary(4, rng)
    u2[4:, 4:] = qcore.haar_unitary(2, rng)
    assert qcore.block_leakage(qcore.computational_block(u2)) == pytest.approx(0.0, abs=1e-12)
    assert qcore.is_unitary(u2)


class TestPauliExpectations:
    @staticmethod
    def bloch(states):
        return DeviceModel.two_qubit(qcore.DeviceParams()).bloch(states)

    def test_computational_states(self):
        e = np.eye(6, dtype=complex)
        vals = self.bloch(e[0])  # |00>
        np.testing.assert_allclose(vals, [[0, 0, 1], [0, 0, 1]], atol=1e-12)
        vals = self.bloch(e[3])  # |11>
        np.testing.assert_allclose(vals, [[0, 0, -1], [0, 0, -1]], atol=1e-12)

    def test_plus_state(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[2] = 1 / math.sqrt(2)  # (|00> + |10>)/sqrt2 = |+0>
        vals = self.bloch(psi)
        np.testing.assert_allclose(vals[0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(vals[1], [0, 0, 1], atol=1e-12)

    def test_bloch_norm_bounded_by_computational_population(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi /= np.linalg.norm(psi)
            vals = self.bloch(psi)
            pop = np.sum(np.abs(psi[list(qcore.COMP_INDICES)]) ** 2)
            norms = np.linalg.norm(vals, axis=-1)
            assert np.all(norms <= pop + 1e-9)

    def test_cnot_flips_target(self):
        # |10> through CNOT: qubit 2 flips down
        psi = np.zeros(6, dtype=complex)
        psi[2] = 1.0
        u = np.eye(6, dtype=complex)
        u[:4, :4] = qcore.cnot_target()
        out = self.bloch(u @ psi)
        np.testing.assert_allclose(out[0], [0, 0, -1], atol=1e-12)
        np.testing.assert_allclose(out[1], [0, 0, -1], atol=1e-12)


def test_haar_unitary_is_unitary():
    rng = np.random.default_rng(1)
    for d in (2, 4, 6):
        u = qcore.haar_unitary(d, rng)
        assert qcore.is_unitary(u, tol=1e-12)


def test_phase_gate_target():
    z = qcore.phase_gate_target()
    np.testing.assert_allclose(z, np.diag([1.0, 1j]), atol=1e-15)
