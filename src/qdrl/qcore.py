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
not load bearing on faith alone. `sector_hamiltonian` assembles H from any
such tables: `rlenv.DeviceModel` holds them, for this device and for its
one-qubit reduction alike.

Step propagators exp(-i dt H) come from a Taylor series of cos(dt H) and
sin(dt H) with scaling and squaring: every device model builds a real
symmetric H, and qcore evolves no other (a complex stack raises
ValueError), so the whole evaluation runs in real matrix products. The
series stops at X^17 for ||X|| <= 1, where the first term left out is below
the float64 machine epsilon. Both series are evaluated at once in
Paterson-Stockmeyer form: 7 matrix products per matrix before the squarings
(Y = X^2 and its powers to Y^4, two for the blocks' Y^4 products, one for
sin X); `step_propagator` gives the details. Each matrix is accepted or
rejected, and takes its squaring count, by its own entries alone, so its
propagator has the same bits wherever it sits in a stack and whatever its
neighbours are.

Large stacks (the Monte Carlo rewards evolve tens of thousands of step
matrices at once) are split into pieces of 1024 matrices, and the pieces run
across the cores this process may use, on a thread pool opened for the call
and closed when it returns; a piece is checked and evolved in one task, and
is read once. There is nothing to set: the piece size is fixed, and the
usable cores are those of the process's affinity mask, or one in a process
that `multiprocessing` started, whose siblings share the cores; with one
usable core the pieces run in turn.

`propagate` multiplies the steps of a time-major stack (M, R, n, n), M steps
of R rows, into the R final propagators U, or, given states (R, n, k),
into U states. It reads the stack only through h.shape and slices: time
slices h[lo:hi], and for states time and row slices h[lo:hi, r0:r1];
so the stack may be an ndarray or an object that assembles each slice when
it is asked for (the env's Monte Carlo stacks are such objects, and the
whole stack then never exists). The row rule reads R and cumulative only:
a stack of R >= 32 rows never builds its complex step stack, and each block
reads each of its pieces once, evaluates their cos/sin series and folds
each step at once in real pairs,
(C - iS)(Vr + iVi) = (C Vr + S Vi) + i(C Vi - S Vr), one task
each on the same pool. For operators the steps split into 8 time blocks,
each folding the n columns of its product V, and the block products are
then multiplied in time order. For states the rows split into one
contiguous block per usable core, each folding its rows' k columns through
all M steps in time order, so a probe state costs one column per step and
no block product. Either result is independent of the piece size, the core
count and the other rows, and differs from the step-by-step complex product
at roundoff. Fewer rows (every per-step call of the env) and cumulative
products take the whole stack h[0:M] and keep `step_propagator` and the
complex product, then the product with the states.
"""
from __future__ import annotations

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

__all__ = [
    "UNITARITY_TOL",
    "DEFAULT_NLIF_CAP",
    "COMP_INDICES",
    "DeviceParams",
    "exchange_coupling",
    "sector_hamiltonian",
    "step_propagator",
    "propagate",
    "computational_block",
    "gate_fidelity",
    "nlif",
    "nlif_from_infidelity",
    "block_leakage",
    "is_unitary",
    "haar_unitary",
    "cnot_target",
    "phase_gate_target",
]

UNITARITY_TOL = 1e-9
DEFAULT_NLIF_CAP = 12.0
HERMITICITY_TOL = 1e-12

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
    b12: float = 1.0         # gradient between dots 1,2; units of j0
    b23: float = 7.0
    b34: float = -1.0
    eps_min: float = -5.4    # detuning bounds, units of eps0
    eps_max: float = 2.4

    def __post_init__(self) -> None:
        if not 0 < self.j0 < math.inf:
            raise ValueError(f"j0 must be positive and finite, got {self.j0}")
        if not 0 < self.eps0 < math.inf:
            raise ValueError(f"eps0 must be positive and finite, got {self.eps0}")
        if not -math.inf < self.eps_min < self.eps_max < math.inf:
            raise ValueError(
                f"need finite eps_min < eps_max, got [{self.eps_min}, {self.eps_max}]"
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


def exchange_coupling(eps: np.ndarray | float, params: DeviceParams) -> np.ndarray | float:
    """Exchange J(eps) = j0 exp(eps), eps in units of eps0, J in 1/ns."""
    return params.j0 * np.exp(eps)


def sector_hamiltonian(j_couplings: np.ndarray, gradient_term: np.ndarray,
                       coupler_rows: np.ndarray) -> np.ndarray:
    """Assemble H from physical couplings, broadcasting over leading axes.

    j_couplings   : (..., C) exchange per coupler in 1/ns
    gradient_term : (..., n * n) the static part of H, flattened: gradients
                    b (..., G) in 1/ns times the (G, n * n) gradient
                    matrices, b @ gradient_rows, which a caller assembling
                    many Hamiltonians over the same gradients takes once
    coupler_rows  : (C, n * n) coupler matrices, one flattened per row
    returns (..., n, n), real symmetric for real symmetric tables.
    """
    j = np.asarray(j_couplings, dtype=float)
    g = np.asarray(gradient_term, dtype=float)
    if j.shape[-1] != len(coupler_rows) or g.shape[-1] != coupler_rows.shape[-1]:
        raise ValueError(f"expected {len(coupler_rows)} couplings and "
                         f"{coupler_rows.shape[-1]} gradient term entries on the last axis")
    h = j @ coupler_rows
    h += g
    n = math.isqrt(coupler_rows.shape[-1])
    return h.reshape(h.shape[:-1] + (n, n))


# Matrices per piece of a large stack; a piece's temporaries take about 3 MB.
# On a 2-core Xeon host, one thread evolved the 123 120-matrix tomography
# stack fastest in pieces of 1024 matrices (256 to 16 384 tried). Stacks up
# to this size, which covers every per-step call, are evolved whole.
_PIECE = 1024


def _usable_cores() -> int:
    """Threads to spread the pieces of one stack over, 1 to run them in turn:
    1 in a process that `multiprocessing` started (a `qdrl sweep` worker,
    say), whose siblings share the cores, else the affinity mask's size. The
    module is looked up, not imported: a process without it was not so started."""
    mp = sys.modules.get("multiprocessing")
    return 1 if mp and mp.parent_process() else len(os.sched_getaffinity(0))


def _workers(matrices: int) -> int:
    """Threads for one stack of `matrices` matrices: 1 when it fits in one
    piece, else the usable cores."""
    return 1 if matrices <= _PIECE else _usable_cores()


def _piece_map(fn, tasks, matrices: int) -> list:
    """[fn(task) for task in tasks] over the tasks of one stack of `matrices`
    matrices: on a thread pool across the usable cores, opened for the call
    and closed when it returns, or in turn on the calling thread when the
    stack fits in one piece or one core is usable."""
    cores = _workers(matrices)
    if cores == 1:
        return list(map(fn, tasks))
    with ThreadPoolExecutor(max_workers=cores, thread_name_prefix="qdrl-qcore") as pool:
        return list(pool.map(fn, tasks))


@functools.cache
def _identity(n: int) -> np.ndarray:
    """The (n, n) identity, built once per n."""
    eye = np.eye(n)
    eye.setflags(write=False)
    return eye


def _squarings(h: np.ndarray, dt: float) -> tuple[np.ndarray, int]:
    """Accept each matrix of a stack (N, n, n) on its own and return its s, the
    fewest squarings that bring dt ||h||_1 / 2^s below 1, as (N,), with the
    largest s (0 for an empty stack), the number of doubling rounds.

    A complex stack is rejected whole: qcore evolves real symmetric h only,
    and every evolved matrix passes through here. ||h||_1, the largest
    column sum of |h|, equals ||h||_inf for a symmetric h. A matrix with a
    NaN or inf entry is rejected, and so is one whose symmetry deviation
    |h_ij - h_ji| exceeds HERMITICITY_TOL ||h||_1, relative to its own scale
    as roundoff is; entries (i, j) and (j, i) deviate by the same amount, so
    the whole matrix gives the verdict and the maximum that the pairs i < j
    would. So a matrix is accepted, and gets its s, as it would alone.
    """
    if np.iscomplexobj(h):
        raise ValueError(f"complex input of dtype {h.dtype}: qcore evolves real "
                         "symmetric Hamiltonians only")
    columns = np.einsum("...ij->...j", np.abs(h))
    # the maximum over a short trailing axis is fastest across a leading one
    norm = np.ascontiguousarray(columns.T).max(axis=0)
    theta = dt * norm
    # the largest theta is NaN or inf when any is
    top = theta.max(initial=0.0)
    if not top < math.inf:
        raise ValueError("non-finite entries in the Hamiltonian, or in dt ||H||")
    dev = h - h.swapaxes(-1, -2)
    np.abs(dev, out=dev)
    bad = dev > HERMITICITY_TOL * norm[:, None, None]
    # count_nonzero tests a 10-matrix stack ~0.7 us faster than bad.any()
    if np.count_nonzero(bad):
        raise ValueError(f"non-Hermitian input, symmetry deviation {dev[bad].max():.3e}")
    # theta = m 2^e with 0.5 <= m < 1 (e = 0 at theta = 0), so theta / 2^e < 1
    # and theta / 2^(e - 1) >= 1: s is e, read exactly and with no logarithm;
    # e grows with theta, so the largest s is that of the largest theta
    return np.maximum(np.frexp(theta)[1], 0), max(math.frexp(top)[1], 0)


def _check_dt(dt: float) -> None:
    if not 0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")


# Taylor coefficients of cos X = sum_k (-1)^k Y^k / (2k)! (row 0) and of
# sin X / X = sum_k (-1)^k Y^k / (2k + 1)! (row 1) in Y = X^2, up to Y^8. The
# first term left out, of norm at most theta^18 / 18! = 1.6e-16 for
# ||X|| = theta <= 1, is below the float64 machine epsilon 2.2e-16.
_TAYLOR_DEGREE = 8
_TAYLOR = np.array([
    [(-1) ** k / math.factorial(2 * k + odd) for k in range(_TAYLOR_DEGREE + 1)]
    for odd in (0, 1)
])
_TAYLOR.setflags(write=False)

# The same series as Paterson-Stockmeyer blocks in Y^4 (Paterson & Stockmeyer,
# SIAM J. Comput. 2, 1973): p = B0 + Y^4 B1 with B0 = c0 I + c1 Y + c2 Y^2 +
# c3 Y^3 and B1 = c4 I + c5 Y + c6 Y^2 + c7 Y^3 + c8 Y^4. Row 2 b + odd weighs
# (I, Y, Y^2, Y^3, Y^4) in block b of series odd. I sits in the product with
# the powers: on a 1024-matrix piece (one thread of a 2-core host), adding
# the constants to the blocks' diagonals in place took ~115 us, filling I and
# the product's fifth row ~35 us.
_BLOCKS_OF_POWERS = np.zeros((2, 2, 5))
_BLOCKS_OF_POWERS[0, :, :4] = _TAYLOR[:, :4]
_BLOCKS_OF_POWERS[1] = _TAYLOR[:, 4:]
_BLOCKS_OF_POWERS = _BLOCKS_OF_POWERS.reshape((4, 5))
_BLOCKS_OF_POWERS.setflags(write=False)


def _cos_sin(h: np.ndarray, dt: float) -> np.ndarray:
    """cos(dt h) and sin(dt h) of a real symmetric stack (N, n, n), as one
    (2, N, n, n) array; exp(-i dt h) = cos(dt h) - i sin(dt h).

    With X = dt h / 2^s, s each matrix's own count (`_squarings`, which also
    checks the stack), and Y = X^2, cos X and sin X / X are evaluated side
    by side in Paterson-Stockmeyer form, in 7 matrix products per matrix:
    Y, Y^2, Y^3 and Y^4 (4 products); the blocks B0 and B1 of both series as
    one (4, 5) x (5, N n n) product with the stacked I, Y, ..., Y^4,
    which combines each entry on its own, so a matrix gets the same bits
    wherever it sits in a stack; p = B0 + Y^4 B1 (2 products) and
    sin X = (sin X / X) X (1). Then cos 2x = C^2 - S^2 and sin 2x = 2 S C
    double each matrix's angle s times, 3 products each; with every s = 0
    nothing is halved or doubled. Every product is real.
    """
    squarings, rounds = _squarings(h, dt)
    # the matrices halved and doubled in round k, those with s > k
    live = [np.flatnonzero(squarings > k) for k in range(rounds)]
    x = h * dt
    for rows in live:
        x[rows] *= 0.5  # exact, so x ends with the bits of h (dt / 2^s)
    powers = np.empty((5,) + x.shape, dtype=x.dtype)
    eye, y, y2, y3, y4 = powers
    eye[...] = _identity(x.shape[-1])
    np.matmul(x, x, out=y)
    np.matmul(y, y, out=y2)
    np.matmul(y2, y, out=y3)
    np.matmul(y2, y2, out=y4)
    blocks = (_BLOCKS_OF_POWERS @ powers.reshape((5, -1))).reshape((2, 2) + x.shape)
    cs = y4 @ blocks[1]
    cs += blocks[0]
    cs[1] = cs[1] @ x
    for rows in live:
        pair = cs[:, rows]
        doubled = pair @ pair[0]
        doubled[0] -= pair[1] @ pair[1]
        doubled[1] *= 2.0
        cs[:, rows] = doubled
    return cs


def _taylor_propagator(h: np.ndarray, dt: float, out: np.ndarray) -> None:
    """exp(-i dt h) for a real symmetric stack (N, n, n), written into out."""
    cos, sin = _cos_sin(h, dt)
    out.real = cos
    np.negative(sin, out=out.imag)


def step_propagator(h: np.ndarray, dt: float) -> np.ndarray:
    """exp(-i dt H) for a real symmetric H; h may be a stack (..., n, n).

    Evaluated as cos(dt H) - i sin(dt H) by a Taylor series with scaling and
    squaring (Moler & Van Loan, SIAM Rev. 45, 2003; Higham, SIAM J. Matrix
    Anal. Appl. 26, 2005): X = dt H / 2^s with s the fewest squarings that
    bring dt ||H||_1 / 2^s below 1, taken for each matrix from its own norm,
    so ||X|| < 1; cos X to X^16 and sin X to X^17, whose truncation error
    theta^18 / 18! stays below the float64 machine epsilon for theta <= 1;
    then s angle doublings of that matrix alone. Both series are
    Paterson-Stockmeyer polynomials in Y = X^2 with Y^4 as the block step
    (Paterson & Stockmeyer, SIAM J. Comput. 2, 1973): Y to Y^4, the blocks
    as one weighted sum of those powers, the two blocks' Y^4 products and
    sin X = (sin X / X) X, 7 matrix products per matrix before its s
    doublings of 3 products each, all of them real.

    The stack is checked and evolved in pieces of `_PIECE` (1024) matrices,
    one task each, spread across the usable cores on one thread pool when
    there is more than one piece. A complex stack, a matrix with a NaN or
    inf entry, and one whose symmetry deviation exceeds HERMITICITY_TOL
    times its ||H||_1 raise ValueError; each matrix is judged, and gets its
    s, as it would be alone, so the result is bit-identical to evolving
    every matrix on its own.
    """
    h = np.asarray(h)
    _check_dt(dt)
    return _step_propagators(h, dt)


def _step_propagators(h: np.ndarray, dt: float) -> np.ndarray:
    """`step_propagator` of an ndarray stack h, for a dt already checked; a
    stack that fits in one piece is evolved on the calling thread as it is."""
    n = h.shape[-1]
    flat = h.reshape((-1, n, n))
    out = np.empty(flat.shape, dtype=complex)
    if len(flat) <= _PIECE:
        _taylor_propagator(flat, dt, out)
        return out.reshape(h.shape)

    def piece(lo: int) -> None:
        _taylor_propagator(flat[lo : lo + _PIECE], dt, out[lo : lo + _PIECE])

    _piece_map(piece, range(0, len(flat), _PIECE), len(flat))
    return out.reshape(h.shape)


# Stacks of at least _PAIR_ROWS rows fold in real (cos, sin) pairs. On one
# thread of a 2-core host (OpenBLAS 0.3.31), a 10-step fold of 6x6 matrices
# took 39 us in complex products against 84 us in real pairs at 1 row, 213 us
# either way at 32 rows, and 2.82 ms against 2.14 ms at 512 rows. An operator
# fold splits the steps into _BLOCKS time blocks: eight keep every core of a
# small host busy and cost seven extra products per row. A fold of states
# splits the rows instead, and needs no block products.
_PAIR_ROWS = 32
_BLOCKS = 8


def _fold_block(h, dt: float, steps: range) -> np.ndarray:
    """Propagator through one time block of a real stack (M, ..., n, n), as
    (R, n, n) over its R rows.

    The block reads its steps in pieces of whole steps, at most `_PIECE`
    matrices and one step at least, one slice h[lo:hi] at a time and each
    once; each piece is checked, and its cos/sin pairs fold step by step
    into V = Vr + i Vi as they come:
    (C - iS)(Vr + iVi) = (C Vr + S Vi) + i(C Vi - S Vr).
    """
    rows, n = math.prod(h.shape[1:-2]), h.shape[-1]
    per_piece = max(1, _PIECE // rows)
    v = None
    for lo in steps[::per_piece]:
        hi = min(lo + per_piece, steps.stop)
        cs = _cos_sin(h[lo:hi].reshape((-1, n, n)), dt)
        for pair in cs.reshape((2, hi - lo, rows, n, n)).swapaxes(0, 1):
            if v is None:
                v = np.stack([pair[0], -pair[1]])
                continue
            # p[a, b] = pair[a] @ v[b]: C Vr, C Vi, S Vr, S Vi
            p = pair[:, None] @ v
            np.add(p[0, 0], p[1, 1], out=v[0])
            np.subtract(p[0, 1], p[1, 0], out=v[1])
    return v[0] + 1j * v[1]


def _fold_states(h, dt: float, rows: slice, states: np.ndarray) -> np.ndarray:
    """U states over the rows h[:, rows] of a real stack (M, R..., n, n), for
    their states (r..., n, k), as (r..., n, k).

    The block reads the whole time range in pieces of whole steps, at most
    `_PIECE` matrices and one step at least, as slices h[lo:hi, rows], each
    once; each piece is checked, and its cos/sin pairs fold step by step, in
    time order, into the columns X = Xr + i Xi, held side by side as
    [Xr Xi]: (C - iS)(Xr + iXi) = (C Xr + S Xi) + i(C Xi - S Xr).
    """
    n, k = states.shape[-2:]
    count = math.prod(states.shape[:-2])
    x = np.concatenate([states.real, states.imag], axis=-1).reshape((count, n, 2 * k))
    per_piece = max(1, _PIECE // count)
    for lo in range(0, h.shape[0], per_piece):
        hi = min(lo + per_piece, h.shape[0])
        cs = _cos_sin(np.reshape(h[lo:hi, rows], (-1, n, n)), dt)
        for pair in cs.reshape((2, hi - lo, count, n, n)).swapaxes(0, 1):
            # p[a] = pair[a] @ [Xr Xi]: C Xr, C Xi and S Xr, S Xi
            p = pair @ x
            np.add(p[0, ..., :k], p[1, ..., k:], out=x[..., :k])
            np.subtract(p[0, ..., k:], p[1, ..., :k], out=x[..., k:])
    return (x[..., :k] + 1j * x[..., k:]).reshape(states.shape)


def propagate(h, dt: float, *, cumulative: bool = False, states=None) -> np.ndarray:
    """Time-ordered product of the step propagators exp(-i dt H_m), or that
    product applied to states.

    h : (M, R..., n, n) real symmetric Hamiltonians, time-major: step m acts
        after steps 0..m-1, M >= 1, and the axes after the first are rows
        (noise realizations, say), each evolved on its own. h is read only
        through h.shape and slices: time slices h[lo:hi], which must return
        the real (hi - lo, R..., n, n) array of those steps, and, when states
        are given, time and row slices h[lo:hi, r0:r1] over the first row
        axis. An ndarray serves, and so does an object that assembles each
        slice when it is asked for; a complex slice raises ValueError.
    states : optional (R..., n, k) columns, k of them per row.
    returns the final propagators U = exp(-i dt H_{M-1}) ... exp(-i dt H_0),
    shape (R..., n, n); with states, U states, shape (R..., n, k); with
    cumulative=True the (M+1, R..., n, n) stack whose index 0 is the
    identity and whose index m is the propagator through the first m steps
    (states and cumulative=True together raise ValueError).

    The row rule reads the row count and cumulative only: a stack of at least
    `_PAIR_ROWS` (32) rows, final propagators or states, never builds its
    complex step stack, nor asks for more than a piece of steps at a time,
    and reads each step of each row once: it checks each matrix as
    `step_propagator` does, evaluates the same cos/sin series and folds every
    step at once in real pairs. Operators split the steps into `_BLOCKS` (8)
    time blocks (see `_fold_block`), spread across the usable cores, whose
    products are then multiplied in time order. States split the first row
    axis into one contiguous block per usable core (one block when the stack
    fits in a piece), and each block folds its rows' columns through all M
    steps in time order (see `_fold_states`), which costs k columns per step
    instead of n and no block products. Either result is fixed by M and the
    row's own matrices alone, so it does not depend on the piece size, the
    core count or the other rows; it differs from the step-by-step complex
    fold at roundoff (a few 1e-15 on protocols of hundreds of steps). Every
    other stack, among them every per-step call of the env, is read whole,
    h[0:M], and is `step_propagator` followed by the complex fold, and then
    by the product with the states when they are given.
    """
    if not hasattr(h, "shape"):
        h = np.asarray(h)
    _check_dt(dt)
    shape = h.shape
    if len(shape) < 3 or shape[0] == 0:
        raise ValueError(f"need a (M, ..., n, n) stack with M >= 1, got shape {shape}")
    m, n = shape[0], shape[-1]
    rows = math.prod(shape[1:-2])
    if states is not None:
        if cumulative:
            raise ValueError("states are evolved to the final step only; "
                             "cumulative=True takes no states")
        states = np.asarray(states)
        if states.shape[:-1] != shape[1:-1]:
            raise ValueError(f"states of shape {states.shape} do not fit a stack of shape "
                             f"{shape}; need {shape[1:-1] + ('k',)}")
    if cumulative or rows < _PAIR_ROWS:
        steps = _step_propagators(np.asarray(h[0:m]).reshape((m, rows, n, n)), dt)
        if not cumulative:
            if rows == 1:
                # one row folds in (n, n) products: ndarray.dot makes the
                # BLAS call that matmul makes on (1, n, n) stacks, with the
                # same bits and less dispatch
                u = steps[0, 0]
                for step in steps[1:, 0]:
                    u = step.dot(u)
            else:
                u = steps[0]
                for step in steps[1:]:
                    u = step @ u
            u = u.reshape(shape[1:])
            return u if states is None else u @ states
        out = np.empty((m + 1,) + steps.shape[1:], dtype=steps.dtype)
        out[0] = np.eye(n)
        for k, step in enumerate(steps):
            out[k + 1] = step @ out[k]
        return out.reshape((m + 1,) + shape[1:])
    if states is not None:
        first = shape[1]
        blocks = min(first, _workers(m * rows))
        bounds = [first * b // blocks for b in range(blocks + 1)]
        spans = [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
        folded = _piece_map(lambda r: _fold_states(h, dt, r, states[r]), spans, m * rows)
        return np.concatenate(folded)
    bounds = sorted({m * b // _BLOCKS for b in range(_BLOCKS + 1)})
    blocks = [range(lo, hi) for lo, hi in zip(bounds, bounds[1:])]
    products = _piece_map(lambda steps: _fold_block(h, dt, steps), blocks, m * rows)
    u = products[0]
    for v in products[1:]:
        u = v @ u
    return u.reshape(shape[1:])


@functools.lru_cache(maxsize=16)
def _block_index(indices: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The (d, 1) row and (1, d) column index arrays of a block, read-only and
    built once per index tuple (a model has one)."""
    idx = np.asarray(indices)
    rows, cols = idx[:, None], idx[None, :]
    rows.setflags(write=False)
    cols.setflags(write=False)
    return rows, cols


def computational_block(u: np.ndarray, indices=COMP_INDICES) -> np.ndarray:
    """The block of u over the computational states (leading axes preserved)."""
    rows, cols = _block_index(tuple(indices))
    return u[..., rows, cols]


def gate_fidelity(u: np.ndarray, target: np.ndarray) -> np.ndarray | float:
    """|Tr(V^dag U) / d|^2; global-phase invariant, batched over u."""
    u = np.asarray(u)
    target = np.asarray(target)
    d = target.shape[-1]
    if u.shape[-2:] != (d, d):
        raise ValueError(f"shape mismatch: u block {u.shape[-2:]}, target {target.shape}")
    tr = np.einsum("...ij,ij->...", u, np.conj(target)) / d
    # |tr|^2 is never below +0, so only the cap at 1 can act: np.minimum
    # gives np.clip's bits (NaN stays NaN) for a third of its call cost
    f = np.minimum(np.abs(tr) ** 2, 1.0)
    return float(f) if f.ndim == 0 else f


def nlif_from_infidelity(infid, cap: float = DEFAULT_NLIF_CAP):
    """-log10 of the infidelity, capped at `cap` (and at +0 from below)."""
    infid = np.asarray(infid, dtype=float)
    floor = 10.0 ** (-cap)
    out = -np.log10(np.maximum(infid, floor))
    # np.maximum returns its second argument on a tie, so an infidelity of 1,
    # whose -log10 is -0.0, scores +0.0 (np.clip would keep the -0.0)
    out = np.minimum(np.maximum(out, 0.0), cap)
    return float(out) if out.ndim == 0 else out


def nlif(u: np.ndarray, target: np.ndarray, cap: float = DEFAULT_NLIF_CAP):
    """Negative log infidelity of u against target, capped."""
    return nlif_from_infidelity(1.0 - np.asarray(gate_fidelity(u, target)), cap)


def block_leakage(block: np.ndarray) -> np.ndarray | float:
    """Mean leaked population over computational inputs, 1 - ||block||_F^2 / d."""
    b = np.asarray(block)
    d = b.shape[-1]
    leak = 1.0 - (np.abs(b) ** 2).sum(axis=(-2, -1)) / d
    # 1 - x is never -0.0, so this has np.clip's bits at a third of its cost
    leak = np.minimum(np.maximum(leak, 0.0), 1.0)
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
