"""Process tomography from single-shot measurements, and its Gaussian surrogate.

A unitary U on a d-dimensional space is probed with the d states

    |psi_0> = |0>,    |psi_n> = (|0> + |n>)/sqrt(2),  n = 1..d-1,

each measured with one informationally complete POVM built around the anchor
|0>:

    E_0        = a |0><0|
    E_j        = b (1 + |j><0| + |0><j|)          j = 1..d-1
    E~_j       = b (1 + i |j><0| - i |0><j|)      j = 1..d-1
    E_rest     = 1 - E_0 - sum_j (E_j + E~_j)

with a = ANCHOR_WEIGHT and b a fixed fraction of the largest value that keeps
E_rest positive semidefinite (checked at build time). Writing w = U|psi_n>
with coefficients c_k, the outcome probabilities satisfy

    p_{n,0}  = a |c_0|^2
    p_{n,j}  = b (||w||^2 + 2 Re(conj(c_0) c_j))
    p~_{n,j} = b (||w||^2 + 2 Im(conj(c_0) c_j))

so each probe determines its output state up to a global phase, anchored on
c_0; the n-th probe's phase is then fixed against the first column through the
known overlap <w_n|U|0> = 1/sqrt(2), columns are separated, and the assembled
matrix is projected to the nearest unitary. The ||w||^2 term matters: for the
computational block of a leaky evolution the probe output is sub-normalized,
and POVM completeness estimates ||w||^2 as the non-leaked outcome fraction, so
the same inversion applies. The scheme fails when a probe has no weight on the
anchor (c_0 = 0), reported as DegenerateAnchorError. A count table too thin
to invert (a probe that drew no shot, or a rank-deficient linear estimate) is
reported the same way, so a training loop can drop the episode and retry.

Tables have one row per probe n and one column per POVM outcome k, in the
order of PovmSet.elements. An exact probability table is (d, 2d) float. A
measurement record is a (d, 2d + 1) int64 count table: counts[n, k] shots of
probe n gave outcome k, and column 2d counts the shots of probe n that leaked
out of the d-dimensional space (always zero for a unitary source).

build_povm stores the probe vectors on the PovmSet (PovmSet.probes), so the
probability, sampling and reconstruction functions take the POVM alone.
sample_snapshots draws a record of one fixed matrix. sample_snapshots_batch
takes one shot per output state instead: the caller draws each shot's probe
index and evolves that probe, and passes the (S, d) states w = U_s |psi_n>
with the (S,) indices, so a noisy shot never needs its whole propagator.

The surrogate model replaces the whole measurement pipeline by additive
i.i.d. complex Gaussian noise on the matrix entries followed by the same
nearest-unitary projection; calibrate_sigma_to_shots fits the noise level
sigma that reproduces the reconstruction error of a given snapshot budget,
and returns the fit as the plain mapping that is written to JSON, which
sigma_for_shots reads.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .qcore import gate_fidelity, haar_unitary

__all__ = [
    "PovmSet",
    "DegenerateAnchorError",
    "build_povm",
    "probe_states",
    "outcome_probabilities",
    "sample_snapshots",
    "sample_snapshots_batch",
    "reconstruct_unitary",
    "nearest_unitary",
    "gaussian_surrogate",
    "calibrate_sigma_to_shots",
    "sigma_for_shots",
]

POVM_COMPLETENESS_TOL = 1e-10
PSD_TOL = 1e-10
DEFAULT_ANCHOR_THRESHOLD = 1e-6
# POVM weights: a of the anchor element, and b as this fraction of the largest
# b that keeps the remainder element positive semidefinite
ANCHOR_WEIGHT = 0.1
FRONTIER_FRACTION = 0.9
# Gauss-Newton iterations of the likelihood refinement for counted records
REFINE_ITERS = 12
# smallest singular value, relative to the largest, that nearest_unitary accepts
SINGULAR_TOL = 1e-10


class DegenerateAnchorError(ValueError):
    """A record that does not determine the unitary: a probe state carries
    (almost) no weight on the anchor |0>, or a counted record is too thin to
    invert. The message gives the reason."""


def _rest_lowest_eig(dim: int, a: float, b: float) -> float:
    """Lowest eigenvalue of the remainder element for weights (a, b)."""
    rest = np.eye(dim, dtype=complex) * (1.0 - 2.0 * b * (dim - 1))
    rest[0, 0] -= a
    rest[1:, 0] = -b * (1.0 + 1j)
    rest[0, 1:] = -b * (1.0 - 1j)
    return float(np.linalg.eigvalsh(rest)[0])


@functools.lru_cache(maxsize=None)
def _frontier_b(dim: int, a: float) -> float:
    """Largest b keeping the remainder element positive semidefinite."""
    lo, hi = 0.0, 0.5 / (dim - 1)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if _rest_lowest_eig(dim, a, mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass(frozen=True)
class PovmSet:
    """The 2d POVM elements, ordered E_0, E_1..E_{d-1}, E~_1..E~_{d-1}, E_rest.

    probes holds the d probe vectors the POVM is read against (row n is
    |psi_n>, see probe_states).
    """

    dim: int
    a: float
    b: float
    elements: np.ndarray  # (2 dim, dim, dim)
    probes: np.ndarray    # (dim, dim)


def build_povm(dim: int) -> PovmSet:
    """Construct and validate the POVM for dimension dim.

    The anchor weight is a = ANCHOR_WEIGHT. Reconstruction variance scales
    like 1/b^2, so b is placed at FRONTIER_FRACTION of the largest value
    keeping the remainder element positive semidefinite (found by bisection).
    Raises ValueError when the elements do not sum to the identity or the
    remainder fails positivity, reporting the offending eigenvalue.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    a = ANCHOR_WEIGHT
    b = FRONTIER_FRACTION * _frontier_b(dim, a)
    eye = np.eye(dim, dtype=complex)
    elements = np.zeros((2 * dim, dim, dim), dtype=complex)
    elements[0, 0, 0] = a
    for j in range(1, dim):
        ej = b * eye.copy()
        ej[j, 0] += b
        ej[0, j] += b
        elements[j] = ej
        etj = b * eye.copy()
        etj[j, 0] += 1j * b
        etj[0, j] += -1j * b
        elements[dim - 1 + j] = etj
    rest = eye - elements[: 2 * dim - 1].sum(axis=0)
    elements[2 * dim - 1] = rest
    low = np.linalg.eigvalsh(rest)[0]
    if low < -PSD_TOL:
        raise ValueError(
            f"remainder element not positive semidefinite (lowest eigenvalue {low:.3e}); "
            f"reduce ANCHOR_WEIGHT or FRONTIER_FRACTION"
        )
    dev = np.abs(elements.sum(axis=0) - eye).max()
    if dev > POVM_COMPLETENESS_TOL:
        raise ValueError(f"POVM does not sum to identity (deviation {dev:.3e})")
    return PovmSet(dim, a, b, elements, probe_states(dim))


def probe_states(dim: int) -> np.ndarray:
    """(dim, dim) array; row n is the n-th probe vector."""
    probes = np.zeros((dim, dim), dtype=complex)
    probes[:, 0] = 1.0
    for n in range(1, dim):
        probes[n, 0] = 1.0 / np.sqrt(2.0)
        probes[n, n] = 1.0 / np.sqrt(2.0)
    return probes


def _outcome_table(w: np.ndarray, povm: PovmSet) -> np.ndarray:
    """Unclipped outcome probabilities (n, 2d) of the output states w (n, d)."""
    return np.einsum("ni,kij,nj->nk", w.conj(), povm.elements, w).real


def _probability_table(mat: np.ndarray, povm: PovmSet):
    """Outcome table (d, 2d) and per-probe leak residual for a general matrix."""
    w = povm.probes @ mat.T  # w[n] = mat @ probes[n]
    table = np.clip(_outcome_table(w, povm), 0.0, None)
    leak = np.clip(1.0 - np.einsum("ni,ni->n", w.conj(), w).real, 0.0, None)
    return table, leak


def outcome_probabilities(u: np.ndarray, povm: PovmSet) -> np.ndarray:
    """Exact outcome probabilities (d, 2d) of a unitary; rows sum to 1."""
    u = np.asarray(u)
    dev = np.abs(u.conj().T @ u - np.eye(povm.dim)).max()
    if dev > 1e-9:
        raise ValueError(
            f"input is not unitary (deviation {dev:.3e}); use the snapshot path "
            "for sub-unitary blocks"
        )
    table, _ = _probability_table(u, povm)
    return table


def sample_snapshots_batch(
    states: np.ndarray, probe_idx: np.ndarray, povm: PovmSet, rng: np.random.Generator
) -> np.ndarray:
    """One snapshot per shot: shot s measured probe probe_idx[s], whose
    output state w = U_s |psi_{probe_idx[s]}> has the computational
    components states[s], (S, d); one outcome each.

    Returns the (d, 2d + 1) int64 count table of the S shots (module
    docstring); a shot whose outcome falls past the 2d POVM outcomes leaked.
    The caller draws the probe indices (uniformly, for the protocol's
    estimator) and evolves each probe; only the outcome uniforms are drawn
    here.
    """
    states = np.asarray(states)
    probe_idx = np.asarray(probe_idx)
    d = povm.dim
    s = len(states)
    if states.shape != (s, d) or probe_idx.shape != (s,):
        raise ValueError(f"need (S, {d}) states and (S,) probe indices, got shapes "
                         f"{states.shape} and {probe_idx.shape}")
    p = np.clip(_outcome_table(states, povm), 0.0, None)
    total = p.sum(axis=1)
    leak = np.clip(1.0 - total, 0.0, None)
    r = rng.random(s) * (total + leak)
    outcome = (r[:, None] >= np.cumsum(p, axis=1)).sum(axis=1)  # 2d means leaked
    counts = np.zeros((d, 2 * d + 1), dtype=np.int64)
    np.add.at(counts, (probe_idx, outcome), 1)
    return counts


def sample_snapshots(
    source, n_shots: int, povm: PovmSet, rng: np.random.Generator
) -> np.ndarray:
    """Collect n_shots single-shot snapshots of one fixed (d, d) matrix.

    Returns the (d, 2d + 1) int64 count table (module docstring). The
    (probe, outcome) tally is a single multinomial and is drawn in one go;
    sample_snapshots_batch takes one evolved probe state per shot instead.
    """
    if n_shots < 1:
        raise ValueError(f"n_shots must be >= 1, got {n_shots}")
    d = povm.dim
    source = np.asarray(source)
    if source.shape != (d, d):
        raise ValueError(
            f"expected one {(d, d)} matrix, got shape {source.shape}; for one matrix "
            "per shot, evolve each shot's probe and use sample_snapshots_batch"
        )
    table, leak = _probability_table(source, povm)
    cells = np.concatenate([table, leak[:, None]], axis=1) / d
    flat = cells.ravel()
    flat = flat / flat.sum()  # guard float drift; exact sum is 1
    return rng.multinomial(n_shots, flat).reshape(d, 2 * d + 1)


def nearest_unitary(a: np.ndarray) -> np.ndarray:
    """Polar projection: the unitary factor of the SVD, batched over (..., d, d)."""
    a = np.asarray(a)
    u, s, vh = np.linalg.svd(a)
    if np.min(s[..., -1]) <= SINGULAR_TOL * np.max(s[..., 0]):
        raise ValueError("rank-deficient input has no well-defined nearest unitary")
    return u @ vh


@functools.lru_cache(maxsize=None)
def _hermitian_basis(d: int) -> np.ndarray:
    """Orthonormal basis of d x d Hermitian matrices (Tr G_a G_b = delta_ab)."""
    basis = np.zeros((d * d, d, d), dtype=complex)
    k = 0
    for i in range(d):
        basis[k, i, i] = 1.0
        k += 1
    for i in range(d):
        for j in range(i + 1, d):
            basis[k, i, j] = basis[k, j, i] = 1.0 / np.sqrt(2.0)
            k += 1
            basis[k, i, j] = -1j / np.sqrt(2.0)
            basis[k, j, i] = 1j / np.sqrt(2.0)
            k += 1
    return basis


def _linear_inversion(
    p: np.ndarray, norm_sq: np.ndarray, povm: PovmSet, anchor_floor: float
) -> np.ndarray:
    """Column estimate from the POVM identities; the starting point for refinement.

    anchor_floor > 0 (record path) clips vanishing anchor estimates instead of
    failing, since a zero count does not prove a zero amplitude; the likelihood
    refinement then does the real work. anchor_floor = 0 (exact-table path)
    keeps the hard failure.
    """
    d = povm.dim
    c0_sq = p[:, 0] / povm.a
    if anchor_floor > 0.0:
        c0_sq = np.maximum(c0_sq, anchor_floor)
    elif (c0_sq < DEFAULT_ANCHOR_THRESHOLD).any():
        bad = int(np.argmin(c0_sq))
        raise DegenerateAnchorError(
            f"probe {bad} anchor weight {c0_sq[bad]:.2e} below {DEFAULT_ANCHOR_THRESHOLD:.0e}"
        )
    c0 = np.sqrt(c0_sq)
    re = (p[:, 1:d] / povm.b - norm_sq[:, None]) / 2.0
    im = (p[:, d : 2 * d - 1] / povm.b - norm_sq[:, None]) / 2.0
    states = np.zeros((d, d), dtype=complex)
    states[:, 0] = c0
    states[:, 1:] = (re + 1j * im) / c0[:, None]
    col0 = states[0]
    cols = np.empty((d, d), dtype=complex)
    cols[:, 0] = col0
    for n in range(1, d):
        overlap = np.vdot(states[n], col0)
        if abs(overlap) < 1e-12:
            if anchor_floor == 0.0:
                raise DegenerateAnchorError(
                    f"probe {n} output is orthogonal to the first column; phase lost"
                )
            overlap = 1.0  # phase unknown; leave it to the refinement
        aligned = states[n] * (overlap / abs(overlap))
        cols[:, n] = np.sqrt(2.0) * aligned - col0
    return cols


def _refine_estimate(
    u: np.ndarray, p_hat: np.ndarray, weights: np.ndarray, scale: np.ndarray,
    povm: PovmSet,
) -> np.ndarray:
    """Damped Gauss-Newton on the unitary manifold.

    Minimizes sum w_{n,k} (p_hat - scale_n q_{n,k}(U))^2 with w the inverse
    multinomial variance, over U = U0 exp(i sum theta_a G_a). scale_n carries
    the measured non-leak fraction so sub-unitary sources fit an (approximately
    uniformly) contracted unitary model without bias.
    """
    d = povm.dim
    gens = _hermitian_basis(d)
    gpsi = np.einsum("aij,nj->ani", gens, povm.probes)

    def model(u):
        w = povm.probes @ u.T
        return w, np.clip(_outcome_table(w, povm), 1e-14, None)

    w_out, q = model(u)
    cost = float(np.sum(weights * (p_hat - scale[:, None] * q) ** 2))
    lam = 1e-9
    for _ in range(REFINE_ITERS):
        ugpsi = np.einsum("ij,anj->ani", u, gpsi)
        ew = np.einsum("kij,nj->kni", povm.elements, w_out)
        jac = 2.0 * np.real(np.einsum("kni,ani->nka", ew.conj(), 1j * ugpsi))
        jac = jac * scale[:, None, None]
        res = p_hat - scale[:, None] * q
        a_mat = np.einsum("nka,nk,nkb->ab", jac, weights, jac)
        g = np.einsum("nka,nk->a", jac, weights * res)
        step_ok = False
        for _ in range(8):
            try:
                theta = np.linalg.solve(a_mat + lam * np.eye(d * d), g)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            h = np.einsum("a,aij->ij", theta, gens)
            vals, vecs = np.linalg.eigh(h)
            cand = u @ ((vecs * np.exp(1j * vals)) @ vecs.conj().T)
            w_cand, q_cand = model(cand)
            cand_cost = float(np.sum(weights * (p_hat - scale[:, None] * q_cand) ** 2))
            if cand_cost <= cost:
                step_ok = True
                break
            lam *= 10.0
        if not step_ok:
            break
        improved = cost - cand_cost
        u, w_out, q, cost = cand, w_cand, q_cand, cand_cost
        lam = max(lam * 0.1, 1e-9)
        if improved <= 1e-12 * max(cost, 1e-30):
            break
    return u


def reconstruct_unitary(table, povm: PovmSet) -> np.ndarray:
    """Invert a count table or an exact probability table to a unitary.

    The shape tells them apart (module docstring): a (d, 2d + 1) table of
    non-negative integer counts, or a (d, 2d) table of probabilities whose
    rows may sum below one (sub-normalized probe outputs of a leaky block).
    Any other shape, or a count table with a negative or non-integer entry,
    raises ValueError. The POVM identities give the column estimate, the
    shared anchor fixes the relative phases, the result is projected to the
    nearest unitary, and for count tables a damped Gauss-Newton pass then
    maximizes the multinomial likelihood starting from that estimate (exact
    tables are already consistent and skip it).

    Raises DegenerateAnchorError when a probe carries (nearly) no anchor
    weight, which makes the corresponding column phase unidentifiable, and,
    for a count table, when a probe received no shots or the linear
    estimate is rank-deficient; the message names the reason.
    """
    d = povm.dim
    table = np.asarray(table)
    if table.shape not in ((d, 2 * d), (d, 2 * d + 1)):
        raise ValueError(
            f"expected a {(d, 2 * d + 1)} count table or a {(d, 2 * d)} probability "
            f"table, got shape {table.shape}"
        )
    if table.shape[1] == 2 * d:
        p = np.clip(table.astype(float), 0.0, None)
        norm_sq = p.sum(axis=1)
        est = nearest_unitary(_linear_inversion(p, norm_sq, povm, anchor_floor=0.0))
    else:
        if (table < 0).any() or (table != np.round(table)).any():
            raise ValueError(
                f"a {(d, 2 * d + 1)} count table holds non-negative integers, got {table!r}")
        totals = table.sum(axis=1)
        if (totals == 0).any():
            raise DegenerateAnchorError(
                f"probe(s) {np.flatnonzero(totals == 0)} received no shots")
        p = table[:, : 2 * d] / totals[:, None]
        norm_sq = p.sum(axis=1)
        linear = _linear_inversion(
            p, norm_sq, povm, anchor_floor=float(np.min(0.25 / totals)) / povm.a
        )
        try:
            est = nearest_unitary(linear)
        except ValueError as err:
            raise DegenerateAnchorError(f"linear estimate from the record: {err}") from err
        # inverse multinomial variance of p_hat, var = q/totals, with a floor
        # so empty cells cannot dominate; the non-leak fraction scales the model
        q0 = _outcome_table(povm.probes @ est.T, povm)
        weights = totals[:, None] / np.clip(q0, 1e-4, None)
        est = _refine_estimate(est, p, weights, norm_sq, povm)
    anchors = np.abs(povm.probes @ est[0, :]) ** 2
    if (anchors < DEFAULT_ANCHOR_THRESHOLD).any():
        bad = int(np.argmin(anchors))
        raise DegenerateAnchorError(
            f"probe {bad} anchor weight {anchors[bad]:.2e} below "
            f"{DEFAULT_ANCHOR_THRESHOLD:.0e} "
            "in the fitted model; column phase unidentifiable"
        )
    return est


def gaussian_surrogate(u: np.ndarray, sigma: float, rng: np.random.Generator) -> np.ndarray:
    """Additive complex Gaussian perturbation, re-unitarized.

    sigma is the standard deviation per real component. sigma = 0 returns the
    input unchanged (no projection), so surrogate rewards degrade gracefully
    to their noiseless counterparts.
    """
    u = np.asarray(u)
    if sigma < 0:
        raise ValueError(f"sigma must be non-negative, got {sigma}")
    if sigma == 0.0:
        return u.copy()
    noise = rng.normal(0.0, sigma, u.shape) + 1j * rng.normal(0.0, sigma, u.shape)
    return nearest_unitary(u + noise)


def sigma_for_shots(mapping: dict, n_shots: float) -> float:
    """The surrogate noise level whose fitted infidelity matches n_shots
    snapshots, from a calibrate_sigma_to_shots mapping."""
    log_inf = mapping["shots_intercept"] + mapping["shots_slope"] * np.log10(n_shots)
    return float(10.0 ** ((log_inf - mapping["sigma_intercept"]) / mapping["sigma_slope"]))


def calibrate_sigma_to_shots(
    dim: int,
    shots_grid,
    sigma_grid,
    rng: np.random.Generator,
    n_trials: int = 32,
) -> dict:
    """Monte Carlo calibration of the surrogate noise level against shot budgets.

    Random unitaries are measured with each snapshot budget and perturbed with
    each sigma; mean infidelities are fit as power laws on log-log axes. Both
    grids must span at least two decades, and the measured means must be
    monotone (otherwise the fit is meaningless and a ValueError is raised).

    Returns the JSON-ready mapping: format_version 1, dim, the sorted grids
    with their mean infidelities, n_trials, and both fits,
    log10(infid) = shots_intercept + shots_slope * log10(N) for tomography and
    log10(infid) = sigma_intercept + sigma_slope * log10(sigma) for the
    surrogate; matching infidelities gives the monotone decreasing map
    sigma_for_shots.
    """
    shots_grid = np.asarray(sorted(float(x) for x in shots_grid))
    sigma_grid = np.asarray(sorted(float(x) for x in sigma_grid))
    for name, grid in (("shots_grid", shots_grid), ("sigma_grid", sigma_grid)):
        if grid.size < 3:
            raise ValueError(f"{name} needs at least 3 points, got {grid.size}")
        if grid[0] <= 0:
            raise ValueError(f"{name} must be positive")
        if grid[-1] / grid[0] < 100.0:
            raise ValueError(f"{name} must span at least two decades")
    povm = build_povm(dim)

    targets = [haar_unitary(dim, rng) for _ in range(n_trials)]

    shots_inf = np.empty(shots_grid.size)
    for i, n in enumerate(shots_grid):
        vals = []
        for u in targets:
            record = sample_snapshots(u, int(n), povm, rng)
            try:
                est = reconstruct_unitary(record, povm)
            except DegenerateAnchorError:
                continue
            vals.append(1.0 - gate_fidelity(est, u))
        if not vals:
            raise ValueError(f"all reconstructions degenerate at N = {n}")
        shots_inf[i] = np.mean(vals)

    sigma_inf = np.empty(sigma_grid.size)
    for i, sig in enumerate(sigma_grid):
        vals = [
            1.0 - gate_fidelity(gaussian_surrogate(u, sig, rng), u) for u in targets
        ]
        sigma_inf[i] = np.mean(vals)

    if not np.all(np.diff(shots_inf) < 0):
        raise ValueError("mean tomography infidelity is not decreasing in N; fit rejected")
    if not np.all(np.diff(sigma_inf) > 0):
        raise ValueError("mean surrogate infidelity is not increasing in sigma; fit rejected")

    s_slope, s_int = np.polyfit(np.log10(shots_grid), np.log10(shots_inf), 1)
    g_slope, g_int = np.polyfit(np.log10(sigma_grid), np.log10(sigma_inf), 1)
    return {
        "format_version": 1,
        "dim": dim,
        "shots_grid": shots_grid.tolist(),
        "shots_infidelity": shots_inf.tolist(),
        "sigma_grid": sigma_grid.tolist(),
        "sigma_infidelity": sigma_inf.tolist(),
        "shots_slope": float(s_slope),
        "shots_intercept": float(s_int),
        "sigma_slope": float(g_slope),
        "sigma_intercept": float(g_int),
        "n_trials": n_trials,
    }
