"""Sector Hamiltonian and propagator algebra for a four-dot singlet-triplet pair.

Four electrons in a quadruple dot, one per dot, encode two singlet-triplet
qubits: qubit 1 on dots (1,2), qubit 2 on dots (3,4). Everything here lives in
the total-S_z = 0 sector, which is six dimensional and splits into the
computational basis

    |00> = |udud>,  |01> = |uddu>,  |10> = |duud>,  |11> = |dudu>

plus the two leakage states |L1> = |uudd> and |L2> = |dduu>. The Hamiltonian,
with hbar = 1 and energies as angular frequencies in 1/ns, is the nearest
neighbour Heisenberg chain

    H = sum_i J_i/4 sigma^(i).sigma^(i+1)  + magnetic gradient terms,

with exchange controlled exponentially by the detuning voltage on each dot
pair, J(eps) = J0 exp(eps/eps0). Detunings are handled in units of eps0
throughout, so J(eps) = j0 * exp(eps).

The six-by-six matrices of the three couplers and the three gradient terms are
written out explicitly below; a test rebuilds them from the full 16-dimensional
four-spin model and checks the sector restriction, so the constants here are
not load bearing on faith alone.

Large stacks (the Monte Carlo rewards evolve tens of thousands of step
matrices at once) are split into pieces of a few thousand matrices, and the
pieces run across the cores this process may use. Every matrix goes through
the same per-matrix eigendecomposition and products as in one whole-stack
call, so the results are bit-identical to the serial ones. There is nothing
to set: the piece size is fixed, the core count is read from the process's
affinity mask, and with one usable core the pieces run in turn.
"""
from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNITARITY_TOL",
    "DEFAULT_NLIF_CAP",
    "SIM_DIM",
    "COMP_INDICES",
    "DeviceParams",
    "exchange_coupling",
    "sector_hamiltonian",
    "step_propagator",
    "evolve_serially",
    "propagate",
    "computational_block",
    "gate_fidelity",
    "nlif",
    "nlif_from_infidelity",
    "pauli_expectations",
    "block_leakage",
    "is_unitary",
    "haar_unitary",
    "cnot_target",
    "phase_gate_target",
]

UNITARITY_TOL = 1e-9
DEFAULT_NLIF_CAP = 12.0
HERMITICITY_TOL = 1e-12

SIM_DIM = 6
COMP_INDICES = (0, 1, 2, 3)


@dataclass(frozen=True)
class DeviceParams:
    """Static device parameters.

    Exchange and gradient energies are quoted in units of j0 (the exchange at
    zero detuning, default 1/ns); detuning bounds in units of eps0. b23 = 7 j0
    splits the leakage states away from the computational subspace, b12 = -b34
    drives the single-qubit axes.
    """

    j0: float = 1.0          # exchange at eps = 0, 1/ns
    eps0: float = 0.272      # exchange lever arm, mV (bookkeeping only)
    b_field: float = 0.0     # global field B_G, units of j0; zero in-sector
    b12: float = 1.0         # gradient between dots 1,2; units of j0
    b23: float = 7.0
    b34: float = -1.0
    eps_min: float = -5.4    # detuning bounds, units of eps0
    eps_max: float = 2.4

    def __post_init__(self) -> None:
        if self.j0 <= 0:
            raise ValueError(f"j0 must be positive, got {self.j0}")
        if self.eps0 <= 0:
            raise ValueError(f"eps0 must be positive, got {self.eps0}")
        if not self.eps_min < self.eps_max:
            raise ValueError(
                f"need eps_min < eps_max, got [{self.eps_min}, {self.eps_max}]"
            )

    @property
    def gradients(self) -> np.ndarray:
        """(b12, b23, b34) in units of j0."""
        return np.array([self.b12, self.b23, self.b34])



def _coupler_matrices() -> np.ndarray:
    """sigma.sigma/4 for pairs (1,2), (2,3), (3,4) in the sector basis."""
    a12 = np.diag([-1.0, -1, -1, -1, 1, 1]) / 4.0
    a12[0, 2] = a12[2, 0] = 0.5
    a12[1, 3] = a12[3, 1] = 0.5

    a23 = np.diag([-1.0, 1, 1, -1, -1, -1]) / 4.0
    a23[0, 4] = a23[4, 0] = 0.5
    a23[3, 5] = a23[5, 3] = 0.5

    a34 = np.diag([-1.0, -1, -1, -1, 1, 1]) / 4.0
    a34[0, 1] = a34[1, 0] = 0.5
    a34[2, 3] = a34[3, 2] = 0.5
    return np.stack([a12, a23, a34])


def _gradient_matrices() -> np.ndarray:
    """Diagonal matrices multiplying b12, b23, b34 (unit gradient each)."""
    z12 = np.diag([-1.0, -1, 1, 1, -1, 1]) / 2.0
    z23 = np.diag([0.0, 0, 0, 0, -1, 1])
    z34 = np.diag([-1.0, 1, -1, 1, -1, 1]) / 2.0
    return np.stack([z12, z23, z34])


_COUPLERS = _coupler_matrices()
_GRADIENTS = _gradient_matrices()
_COUPLERS.setflags(write=False)
_GRADIENTS.setflags(write=False)


def exchange_coupling(eps: np.ndarray | float, params: DeviceParams) -> np.ndarray | float:
    """Exchange J(eps) = j0 exp(eps), eps in units of eps0, J in 1/ns."""
    return params.j0 * np.exp(eps)


def sector_hamiltonian(j_couplings: np.ndarray, b_gradients: np.ndarray) -> np.ndarray:
    """Assemble H from physical couplings, broadcasting over leading axes.

    j_couplings : (..., 3) exchange (J12, J23, J34) in 1/ns
    b_gradients : (..., 3) gradients (b12, b23, b34) in 1/ns
    returns (..., 6, 6), Hermitian (real symmetric).
    """
    j = np.asarray(j_couplings, dtype=float)
    b = np.asarray(b_gradients, dtype=float)
    if j.shape[-1] != 3 or b.shape[-1] != 3:
        raise ValueError("expected 3 couplings and 3 gradients on the last axis")
    h = np.einsum("...i,ijk->...jk", j, _COUPLERS)
    h += np.einsum("...i,ijk->...jk", b, _GRADIENTS)
    return h


# Matrices per piece of a large stack; a piece's temporaries take a few MB.
# On a 2-core Xeon host, pieces of 2048 to 8192 matrices evolved the
# 123 120-matrix tomography stack equally fast, 512 and 16 384 slower. Stacks
# up to this size, which covers every per-step call, are evolved whole.
_PIECE = 4096

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_serial = False


def _usable_cores() -> int:
    """Threads to spread the pieces of one stack over; 1 runs them in turn."""
    return 1 if _serial else len(os.sched_getaffinity(0))


def evolve_serially() -> None:
    """Run every piece of every stack on the calling thread in this process.

    For worker processes that already share the cores with their siblings,
    such as the `qdrl sweep --workers N` pool, where more threads per process
    would only oversubscribe them.
    """
    global _serial
    _serial = True


def _forget_pool() -> None:
    # a forked child inherits the executor but none of its threads; it builds
    # its own on first use instead of queueing work that nothing would run
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)


def _run_pieces(work, n: int) -> list:
    """work(piece) for consecutive `_PIECE`-long slices of range(n), in order,
    spread across the usable cores."""
    global _pool
    pieces = [slice(lo, min(lo + _PIECE, n)) for lo in range(0, n, _PIECE)]
    cores = _usable_cores()
    if cores == 1:
        return [work(piece) for piece in pieces]
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max_workers=cores, thread_name_prefix="qdrl-qcore")
        pool = _pool
    return list(pool.map(work, pieces))


def _hermiticity(h: np.ndarray) -> tuple[float, float]:
    """(max |h - h^dag|, max |h|) over a stack."""
    return np.abs(h - np.conj(np.swapaxes(h, -1, -2))).max(), np.abs(h).max()


def _check_hermitian(dev: float, top: float) -> None:
    if dev > HERMITICITY_TOL * max(1.0, top):
        raise ValueError(f"non-Hermitian input, symmetry deviation {dev:.3e}")


def _eigen_propagator(h: np.ndarray, dt: float, out: np.ndarray | None = None) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    phases = np.exp(-1j * dt * w)
    return np.matmul(v * phases[..., None, :], np.conj(np.swapaxes(v, -1, -2)), out=out)


def step_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) via eigendecomposition; h may be a stack (..., n, n).

    A stack of more than `_PIECE` matrices is evolved in pieces of that size,
    spread across the usable cores. The result is bit-identical to evolving
    it whole, and Hermiticity is judged over the whole stack either way.
    """
    h = np.asarray(h)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if math.prod(h.shape[:-2]) <= _PIECE:
        _check_hermitian(*_hermiticity(h))
        return _eigen_propagator(h, dt)
    flat = h.reshape((-1,) + h.shape[-2:])
    out = np.empty(flat.shape, dtype=np.result_type(h.dtype, np.complex64))

    def piece(s: slice) -> tuple[float, float]:
        _eigen_propagator(flat[s], dt, out=out[s])
        return _hermiticity(flat[s])

    checks = np.array(_run_pieces(piece, len(flat)))
    _check_hermitian(checks[:, 0].max(), checks[:, 1].max())
    return out.reshape(h.shape)


def propagate(steps: np.ndarray, *, cumulative: bool = False) -> np.ndarray:
    """Time-ordered product of step propagators, batched over leading axes.

    steps : (..., M, n, n), step m acting after steps 0..m-1, M >= 1
    returns the final propagator steps[M-1] ... steps[0], shape (..., n, n),
    or with cumulative=True the (..., M+1, n, n) stack whose index 0 is the
    identity and whose index m is the propagator through the first m steps.
    """
    steps = np.asarray(steps)
    # iterate over the step axis as the leading one; the per-step env fold
    # passes (M, n, n) and skips the moveaxis call
    seq = steps if steps.ndim == 3 else np.moveaxis(steps, -3, 0)
    if not cumulative:
        u = seq[0]
        for step in seq[1:]:
            u = step @ u
        return u
    out = np.empty((len(seq) + 1,) + seq.shape[1:], dtype=steps.dtype)
    out[0] = np.eye(steps.shape[-1])
    for m, step in enumerate(seq):
        out[m + 1] = step @ out[m]
    return np.moveaxis(out, 0, -3)


def computational_block(u: np.ndarray, indices=COMP_INDICES) -> np.ndarray:
    """The block of u over the computational states (leading axes preserved)."""
    idx = np.asarray(indices)
    return u[..., idx[:, None], idx[None, :]]


def gate_fidelity(u: np.ndarray, target: np.ndarray) -> np.ndarray | float:
    """|Tr(V^dag U) / d|^2; global-phase invariant, batched over u."""
    u = np.asarray(u)
    target = np.asarray(target)
    d = target.shape[-1]
    if u.shape[-2:] != (d, d):
        raise ValueError(f"shape mismatch: u block {u.shape[-2:]}, target {target.shape}")
    tr = np.einsum("...ij,ij->...", u, np.conj(target)) / d
    f = np.clip(np.abs(tr) ** 2, 0.0, 1.0)
    return float(f) if f.ndim == 0 else f


def nlif_from_infidelity(infid, cap: float = DEFAULT_NLIF_CAP):
    """-log10 of the infidelity, capped at `cap` (and at 0 from below)."""
    infid = np.asarray(infid, dtype=float)
    floor = 10.0 ** (-cap)
    out = -np.log10(np.maximum(infid, floor))
    out = np.clip(out, 0.0, cap)
    return float(out) if out.ndim == 0 else out


def nlif(u: np.ndarray, target: np.ndarray, cap: float = DEFAULT_NLIF_CAP):
    """Negative log infidelity of u against target, capped."""
    return nlif_from_infidelity(1.0 - np.asarray(gate_fidelity(u, target)), cap)


def _logical_paulis() -> np.ndarray:
    """(qubit, axis, 6, 6) logical X/Y/Z, zero outside the computational block."""
    sx = np.array([[0, 1], [1, 0]], dtype=complex)
    sy = np.array([[0, -1j], [1j, 0]])
    sz = np.array([[1, 0], [0, -1]], dtype=complex)
    eye = np.eye(2)
    ops = np.zeros((2, 3, SIM_DIM, SIM_DIM), dtype=complex)
    for ax, s in enumerate((sx, sy, sz)):
        ops[0, ax, :4, :4] = np.kron(s, eye)
        ops[1, ax, :4, :4] = np.kron(eye, s)
    return ops


_PAULIS = _logical_paulis()
_PAULIS.setflags(write=False)


def pauli_expectations(states: np.ndarray) -> np.ndarray:
    """Logical <X>, <Y>, <Z> per qubit for sector states (..., 6) -> (..., 2, 3).

    States need not be normalized within the computational subspace; leaked
    population simply shrinks the Bloch vector.
    """
    states = np.asarray(states)
    if states.shape[-1] != SIM_DIM:
        raise ValueError(f"expected sector states of dim {SIM_DIM}")
    vals = np.einsum("...i,qaij,...j->...qa", np.conj(states), _PAULIS, states)
    return np.real(vals)


def block_leakage(block: np.ndarray) -> np.ndarray | float:
    """Mean leaked population over computational inputs, 1 - ||block||_F^2 / d."""
    b = np.asarray(block)
    d = b.shape[-1]
    leak = 1.0 - np.sum(np.abs(b) ** 2, axis=(-2, -1)) / d
    leak = np.clip(leak, 0.0, 1.0)
    return float(leak) if leak.ndim == 0 else leak


def is_unitary(u: np.ndarray, tol: float = UNITARITY_TOL) -> bool:
    u = np.asarray(u)
    d = u.shape[-1]
    dev = np.abs(np.conj(np.swapaxes(u, -1, -2)) @ u - np.eye(d)).max()
    return bool(dev <= tol)


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random unitary via QR of a complex Ginibre matrix."""
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z / np.sqrt(2.0))
    ph = np.diagonal(r)
    return q * (ph / np.abs(ph))


def cnot_target() -> np.ndarray:
    """CNOT with qubit 1 (dots 1,2) as control."""
    u = np.eye(4, dtype=complex)
    u[2, 2] = u[3, 3] = 0.0
    u[2, 3] = u[3, 2] = 1.0
    return u


def phase_gate_target(theta: float = np.pi / 2) -> np.ndarray:
    """Single-qubit phase gate diag(1, e^{i theta})."""
    return np.diag([1.0, np.exp(1j * theta)]).astype(complex)
