"""Checks of the sector Hamiltonian against the full four-spin model."""
from __future__ import annotations

import dataclasses
import math
import multiprocessing
import sys
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrl import qcore
from qdrl.rlenv import TwoQubitModel

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


def full_space_hamiltonian(detunings, params: qcore.DeviceParams) -> np.ndarray:
    """Independent 16-dim build of the four-spin Hamiltonian."""
    j = params.j0 * np.exp(np.asarray(detunings, dtype=float))
    h = np.zeros((16, 16), dtype=complex)
    for pair, jval in zip(((0, 1), (1, 2), (2, 3)), j):
        for s in (SX, SY, SZ):
            h += (jval / 4.0) * _embed(s, pair[0]) @ _embed(s, pair[1])
    z = [_embed(SZ, i) for i in range(4)]
    b12, b23, b34 = params.j0 * params.gradients
    bg = params.j0 * params.b_field
    h += (bg / 2.0) * (z[0] + z[1] + z[2] + z[3])
    h += (b12 / 8.0) * (-3 * z[0] + z[1] + z[2] + z[3])
    h += (b23 / 4.0) * (-z[0] - z[1] + z[2] + z[3])
    h += (b34 / 8.0) * (-z[0] - z[1] - z[2] + 3 * z[3])
    return h


def hamiltonian(detunings, params: qcore.DeviceParams) -> np.ndarray:
    return TwoQubitModel(params).hamiltonians(detunings)


def trotter(detunings, params: qcore.DeviceParams, dt: float) -> np.ndarray:
    """Cumulative propagators of a piecewise-constant drive, (M+1, 6, 6)."""
    return qcore.propagate(
        qcore.step_propagator(hamiltonian(detunings, params), dt), cumulative=True
    )


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
    base = qcore.DeviceParams()
    shifted = qcore.DeviceParams(b_field=1.7)
    dets = np.array([0.3, -1.0, 2.0])
    np.testing.assert_allclose(
        hamiltonian(dets, base), hamiltonian(dets, shifted)
    )
    # and in the full space it is a multiple of total S_z, zero on the sector
    full = full_space_hamiltonian(dets, shifted) - full_space_hamiltonian(dets, base)
    assert np.abs(full[np.ix_(SECTOR_INDICES, SECTOR_INDICES)]).max() < 1e-12


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


class TestStepPropagator:
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
        h = np.eye(6, dtype=complex)
        h[0, 1] = 1.0  # no conjugate partner
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.step_propagator(h, 0.1)

    def test_rejects_nonpositive_dt(self, params):
        h = hamiltonian(np.zeros(3), params)
        with pytest.raises(ValueError):
            qcore.step_propagator(h, 0.0)
        with pytest.raises(ValueError):
            qcore.step_propagator(h, -0.1)


def _evolve(h: np.ndarray) -> np.ndarray:
    return qcore.step_propagator(h, 0.1)


def _evolve_serial_worker(h: np.ndarray) -> tuple[int, np.ndarray]:
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
        if cores > 1:
            assert qcore._pool is not None

    def test_small_stacks_stay_on_the_calling_thread(self, params, monkeypatch):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: pytest.fail("stack was split"))
        h = hamiltonian(np.zeros((qcore._PIECE, 3)), params)
        qcore.step_propagator(h, 0.1)

    def test_concurrent_callers_share_one_lazily_started_pool(self, stack, monkeypatch):
        whole = self.whole(stack, monkeypatch)
        started = []

        class Counting(ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                started.append(self)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(qcore, "ThreadPoolExecutor", Counting)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 4)
        monkeypatch.setattr(qcore, "_pool", None)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(6) as callers:
                futures = [callers.submit(_evolve, stack) for _ in range(6)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
            for pool in started:
                pool.shutdown()
        assert len(started) == 1
        for got in results:
            np.testing.assert_array_equal(got, whole)

    @pytest.mark.parametrize("cores", [1, 2])
    def test_non_hermitian_matrix_in_the_last_piece_rejected(self, stack, monkeypatch, cores):
        monkeypatch.setattr(qcore, "_usable_cores", lambda: cores)
        bad = stack.copy()
        bad[-1, -1, 0, 1] += 1e-6
        with pytest.raises(ValueError, match="Hermitian"):
            qcore.step_propagator(bad, 0.1)

    def test_hermiticity_judged_against_the_whole_stack(self, stack, monkeypatch):
        # the largest entry sits in the first piece and sets the tolerance for
        # an asymmetry in the last piece, as it does for an unsplit stack
        h = stack.copy()
        h[0, 0, 5, 5] = 1e4
        h[-1, -1, 0, 1] += 1e-9
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 2)
        np.testing.assert_array_equal(qcore.step_propagator(h, 0.1), self.whole(h, monkeypatch))

    @pytest.mark.filterwarnings("ignore:.*fork.*:DeprecationWarning")
    def test_child_forked_after_the_pool_started(self, stack, monkeypatch):
        whole = self.whole(stack, monkeypatch)
        monkeypatch.setattr(qcore, "_usable_cores", lambda: 2)
        qcore.step_propagator(stack, 0.1)
        assert qcore._pool is not None
        # the child inherits the started pool's state but not its threads
        with multiprocessing.get_context("fork").Pool(1) as pool:
            got = pool.apply_async(_evolve, (stack,)).get(timeout=120)
        np.testing.assert_array_equal(got, whole)

    def test_serial_worker_processes(self, stack, monkeypatch):
        whole = self.whole(stack, monkeypatch)
        with ProcessPoolExecutor(1, initializer=qcore.evolve_serially) as pool:
            cores, got = pool.submit(_evolve_serial_worker, stack).result(timeout=120)
        assert cores == 1
        np.testing.assert_array_equal(got, whole)


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
        dets = rng.uniform(-5.4, 2.4, size=(6, 25, 3))
        delta_b = rng.normal(0, 0.01, size=(6, 3))
        h = TwoQubitModel(params).hamiltonians(dets, delta_b)
        batch = qcore.propagate(qcore.step_propagator(h, 0.1))
        assert batch.shape == (6, 6, 6)
        for k in range(6):
            b12, b23, b34 = params.gradients + delta_b[k]
            shifted = dataclasses.replace(params, b12=b12, b23=b23, b34=b34)
            u = trotter(dets[k], shifted, dt=0.1)
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
    def test_computational_states(self):
        e = np.eye(6, dtype=complex)
        vals = qcore.pauli_expectations(e[0])  # |00>
        np.testing.assert_allclose(vals, [[0, 0, 1], [0, 0, 1]], atol=1e-12)
        vals = qcore.pauli_expectations(e[3])  # |11>
        np.testing.assert_allclose(vals, [[0, 0, -1], [0, 0, -1]], atol=1e-12)

    def test_plus_state(self):
        psi = np.zeros(6, dtype=complex)
        psi[0] = psi[2] = 1 / math.sqrt(2)  # (|00> + |10>)/sqrt2 = |+0>
        vals = qcore.pauli_expectations(psi)
        np.testing.assert_allclose(vals[0], [1, 0, 0], atol=1e-12)
        np.testing.assert_allclose(vals[1], [0, 0, 1], atol=1e-12)

    def test_bloch_norm_bounded_by_computational_population(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            psi = rng.normal(size=6) + 1j * rng.normal(size=6)
            psi /= np.linalg.norm(psi)
            vals = qcore.pauli_expectations(psi)
            pop = np.sum(np.abs(psi[list(qcore.COMP_INDICES)]) ** 2)
            norms = np.linalg.norm(vals, axis=-1)
            assert np.all(norms <= pop + 1e-9)

    def test_cnot_flips_target(self):
        # |10> through CNOT: qubit 2 flips down
        psi = np.zeros(6, dtype=complex)
        psi[2] = 1.0
        u = np.eye(6, dtype=complex)
        u[:4, :4] = qcore.cnot_target()
        out = qcore.pauli_expectations(u @ psi)
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
