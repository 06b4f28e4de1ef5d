from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrl import tomography as tomo
from qdrl.qcore import gate_fidelity, haar_unitary, nlif, phase_gate_target
from qdrl.seeding import named_stream


def reconstruction_infidelity(u, est):
    return 1.0 - gate_fidelity(est, u)


def snapshots_of(mats, povm, rng):
    """One snapshot per matrix of mats (S, d, d), drawn as the env draws them:
    uniform probe indices first, then each probe's output state."""
    probe_idx = rng.integers(0, povm.dim, size=len(mats))
    states = np.einsum("sij,sj->si", mats, povm.probes[probe_idx])
    return tomo.sample_snapshots_batch(states, probe_idx, povm, rng)


class TestPovmConstruction:
    @pytest.mark.parametrize("dim", [2, 3, 4, 6, 8])
    def test_default_weights_are_valid(self, dim):
        povm = tomo.build_povm(dim)
        assert povm.elements.shape == (2 * dim, dim, dim)
        total = povm.elements.sum(axis=0)
        np.testing.assert_allclose(total, np.eye(dim), atol=1e-12)
        for element in povm.elements:
            np.testing.assert_allclose(element, element.conj().T, atol=1e-12)
            assert np.linalg.eigvalsh(element)[0] >= -1e-10

    def test_default_b_is_near_the_positivity_frontier(self, monkeypatch):
        for dim in (2, 4, 6):
            assert tomo.build_povm(dim).a == tomo.ANCHOR_WEIGHT
        # 90% of the frontier by construction: 1.2x the default must fail
        monkeypatch.setattr(tomo, "FRONTIER_FRACTION", 1.2 * tomo.FRONTIER_FRACTION)
        for dim in (2, 4, 6):
            with pytest.raises(ValueError, match="positive semidefinite"):
                tomo.build_povm(dim)

    def test_overweight_anchor_rejected(self, monkeypatch):
        # no b > 0 keeps the remainder positive once a exceeds 1
        monkeypatch.setattr(tomo, "ANCHOR_WEIGHT", 1.5)
        with pytest.raises(ValueError, match="positive semidefinite"):
            tomo.build_povm(4)

    def test_incomplete_povm_rejected(self, monkeypatch):
        # the elements sum to the identity up to rounding; a negative
        # tolerance makes any rounding, even none, a failed completeness check
        monkeypatch.setattr(tomo, "POVM_COMPLETENESS_TOL", -1.0)
        with pytest.raises(ValueError, match="sum to identity"):
            tomo.build_povm(4)

    def test_dim_below_two_rejected(self):
        with pytest.raises(ValueError, match="dim"):
            tomo.build_povm(1)

    def test_probe_states(self):
        probes = tomo.probe_states(4)
        assert probes.shape == (4, 4)
        np.testing.assert_allclose(np.linalg.norm(probes, axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(probes[0], [1, 0, 0, 0], atol=1e-12)
        # every superposition probe keeps 1/sqrt(2) weight on the anchor
        np.testing.assert_allclose(probes[1:, 0], 1 / np.sqrt(2), atol=1e-12)


class TestOutcomeProbabilities:
    def test_rows_sum_to_one_for_unitaries(self):
        rng = np.random.default_rng(7)
        povm = tomo.build_povm(4)
        for _ in range(5):
            table = tomo.outcome_probabilities(haar_unitary(4, rng), povm)
            assert table.shape == (4, 8)
            assert (table >= -1e-12).all()
            np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)

    def test_identity_matches_hand_computation(self):
        # U = identity: probe n output is the probe itself
        povm = tomo.build_povm(2)
        a, b = povm.a, povm.b
        table = tomo.outcome_probabilities(np.eye(2), povm)
        # probe |0>: p_0 = a, p_1 = b(1 + 0), p~_1 = b, rest = 1 - a - 2b
        np.testing.assert_allclose(table[0], [a, b, b, 1 - a - 2 * b], atol=1e-12)
        # probe (|0>+|1>)/sqrt2: |c_0|^2 = 1/2, Re(c0* c1) = 1/2, Im = 0
        np.testing.assert_allclose(table[1], [a / 2, 2 * b, b, 1 - a / 2 - 3 * b], atol=1e-12)

    def test_rejects_non_unitary(self):
        povm = tomo.build_povm(2)
        with pytest.raises(ValueError, match="not unitary"):
            tomo.outcome_probabilities(0.5 * np.eye(2), povm)


class TestExactRoundTrip:
    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_exact_tables_invert_to_machine_precision(self, dim):
        rng = np.random.default_rng(dim)
        povm = tomo.build_povm(dim)
        for _ in range(10):
            u = haar_unitary(dim, rng)
            table = tomo.outcome_probabilities(u, povm)
            est = tomo.reconstruct_unitary(table, povm)
            assert reconstruction_infidelity(u, est) < 1e-9

    def test_global_phase_is_irrelevant(self):
        rng = np.random.default_rng(11)
        povm = tomo.build_povm(4)
        u = haar_unitary(4, rng)
        t1 = tomo.outcome_probabilities(u, povm)
        t2 = tomo.outcome_probabilities(np.exp(1j * 1.234) * u, povm)
        np.testing.assert_allclose(t1, t2, atol=1e-12)
        est = tomo.reconstruct_unitary(t2, povm)
        assert reconstruction_infidelity(u, est) < 1e-9

    def test_uniform_contraction_inverts_exactly(self):
        # sub-normalized tables (leaky block, uniform contraction) still invert:
        # completeness estimates the norm, the identities rescale consistently
        rng = np.random.default_rng(13)
        povm = tomo.build_povm(4)
        probes = tomo.probe_states(4)
        u = haar_unitary(4, rng)
        block = 0.93 * u
        w = probes @ block.T
        table = np.einsum("ni,kij,nj->nk", w.conj(), povm.elements, w).real
        assert (table.sum(axis=1) < 0.95).all()
        est = tomo.reconstruct_unitary(table, povm)
        assert reconstruction_infidelity(u, est) < 1e-9

    def test_degenerate_anchor_raises_on_exact_tables(self):
        povm = tomo.build_povm(2)
        # X gate: probe |0> maps to |1>, no anchor weight at all
        x_gate = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(tomo.DegenerateAnchorError):
            tomo.reconstruct_unitary(tomo.outcome_probabilities(x_gate, povm), povm)
        # column 0 fine, but probe 1 output orthogonal to the anchor
        h_like = np.array([[1, -1], [1, 1]], dtype=complex) / np.sqrt(2)
        with pytest.raises(tomo.DegenerateAnchorError):
            tomo.reconstruct_unitary(tomo.outcome_probabilities(h_like, povm), povm)

    @pytest.mark.parametrize("table", [
        np.zeros((4, 7)),
        np.zeros((2, 5), dtype=np.int64),  # a one-qubit record read against d = 4
        np.full((4, 9), 10) - np.eye(4, 9, dtype=np.int64) * 20,
        np.full((4, 9), 2.5),
    ], ids=["wrong_width", "other_dim", "negative_count", "fractional_count"])
    def test_malformed_table_rejected(self, table):
        povm = tomo.build_povm(4)
        with pytest.raises(ValueError, match=r"\(4, 9\) count table"):
            tomo.reconstruct_unitary(table, povm)


class TestSampledRecords:
    def test_record_is_a_count_table(self):
        rng = np.random.default_rng(3)
        povm = tomo.build_povm(4)
        u = haar_unitary(4, rng)
        batch = np.stack([u] * 300)
        for counts, n_shots in ((tomo.sample_snapshots(u, 5000, povm, rng), 5000),
                                (snapshots_of(batch, povm, rng), 300)):
            assert counts.shape == (4, 9)
            assert counts.dtype == np.int64
            assert (counts >= 0).all()
            assert counts.sum() == n_shots
            # unitary source: nothing leaks
            assert not counts[:, 8].any()

    def test_leaky_source_populates_the_leak_column(self):
        rng = np.random.default_rng(4)
        povm = tomo.build_povm(4)
        block = 0.9 * haar_unitary(4, rng)
        counts = tomo.sample_snapshots(block, 20000, povm, rng)
        assert counts[:, 8].sum() > 0
        assert counts.sum() == 20000

    def test_zero_matrices_leak_every_shot(self):
        rng = np.random.default_rng(6)
        povm = tomo.build_povm(2)
        counts = snapshots_of(np.zeros((64, 2, 2)), povm, rng)
        assert counts.shape == (2, 5)
        assert counts[:, 4].sum() == 64
        assert not counts[:, :4].any()

    def test_batch_source_one_matrix_per_shot(self):
        rng = np.random.default_rng(5)
        povm = tomo.build_povm(2)
        mats = np.stack([haar_unitary(2, rng) for _ in range(64)])
        counts = snapshots_of(mats, povm, rng)
        assert counts.shape == (2, 5) and counts.dtype == np.int64
        assert counts.sum() == 64
        with pytest.raises(ValueError, match="one matrix per shot"):
            tomo.sample_snapshots(mats, 63, povm, rng)

    def test_batch_states_must_match_their_probe_indices(self):
        rng = np.random.default_rng(9)
        povm = tomo.build_povm(2)
        states = povm.probes[[0, 1, 1]]
        for bad_states, bad_idx in ((states, np.array([0, 1])),
                                    (states[:, :1], np.array([0, 1, 1])),
                                    (np.stack([np.eye(2)] * 3), np.array([0, 1, 1]))):
            with pytest.raises(ValueError, match="probe indices"):
                tomo.sample_snapshots_batch(bad_states, bad_idx, povm, rng)

    def test_sampled_reconstruction_accuracy_d2(self):
        rng = np.random.default_rng(8)
        povm = tomo.build_povm(2)
        vals = []
        for _ in range(10):
            u = haar_unitary(2, rng)
            record = tomo.sample_snapshots(u, 100_000, povm, rng)
            est = tomo.reconstruct_unitary(record, povm)
            vals.append(reconstruction_infidelity(u, est))
        assert np.mean(vals) < 1e-3

    def test_more_shots_give_better_reconstructions(self):
        rng = np.random.default_rng(9)
        povm = tomo.build_povm(4)
        means = []
        for n_shots in (1000, 100_000):
            vals = []
            for k in range(8):
                u = haar_unitary(4, np.random.default_rng(100 + k))
                record = tomo.sample_snapshots(u, n_shots, povm, rng)
                est = tomo.reconstruct_unitary(record, povm)
                vals.append(reconstruction_infidelity(u, est))
            means.append(np.mean(vals))
        assert means[1] < 0.2 * means[0]

    def test_estimated_nlif_rises_a_decade_per_decade_of_shots(self):
        # the tomographic NLIF of an exact gate is capped by the shot budget,
        # near log10(shots) - 0.4 (this stream reads 2.62 / 3.59 / 4.64 at
        # 1e3 / 1e4 / 1e5 shots), so a reward read from records of a fixed
        # size cannot rank gates past that ceiling
        u = phase_gate_target()
        povm = tomo.build_povm(2)
        rng = named_stream(0, "tomography-ceiling")
        decades = [3, 4, 5]
        means = [np.mean([nlif(tomo.reconstruct_unitary(
                     tomo.sample_snapshots(u, 10**k, povm, rng), povm), u) for _ in range(200)])
                 for k in decades]
        slope = np.polyfit(decades, means, 1)[0]
        assert 0.8 <= slope <= 1.2, f"mean NLIF {means} rises {slope:.2f} per decade"

    def test_empty_probe_raises(self):
        povm = tomo.build_povm(2)
        record = np.array([[5, 1, 1, 1, 0], [0, 0, 0, 0, 0]], dtype=np.int64)
        with pytest.raises(tomo.DegenerateAnchorError, match="no shots"):
            tomo.reconstruct_unitary(record, povm)

    def test_rank_deficient_linear_estimate_is_degenerate(self):
        # every shot on the rest outcome: the linear estimate has two
        # parallel columns and no nearest unitary
        povm = tomo.build_povm(2)
        record = np.array([[0, 0, 0, 4, 0], [0, 0, 0, 4, 0]], dtype=np.int64)
        with pytest.raises(tomo.DegenerateAnchorError, match="rank-deficient"):
            tomo.reconstruct_unitary(record, povm)

    def test_refinement_handles_zero_anchor_counts(self):
        # at tiny budgets some probes see no anchor clicks; the floored
        # initializer plus likelihood refinement must still return a unitary
        rng = np.random.default_rng(10)
        povm = tomo.build_povm(4)
        successes = 0
        for _ in range(20):
            u = haar_unitary(4, rng)
            record = tomo.sample_snapshots(u, 100, povm, rng)
            try:
                est = tomo.reconstruct_unitary(record, povm)
            except tomo.DegenerateAnchorError:
                continue
            assert np.abs(est.conj().T @ est - np.eye(4)).max() < 1e-9
            successes += 1
        assert successes >= 18


class TestNearestUnitary:
    def test_unitary_is_fixed_point(self):
        u = haar_unitary(4, np.random.default_rng(0))
        np.testing.assert_allclose(tomo.nearest_unitary(u), u, atol=1e-12)

    @given(st.integers(min_value=0, max_value=1000))
    @settings(max_examples=25, deadline=None)
    def test_projection_returns_a_unitary(self, seed):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        v = tomo.nearest_unitary(a)
        np.testing.assert_allclose(v.conj().T @ v, np.eye(3), atol=1e-10)

    def test_projection_is_closest_among_candidates(self):
        rng = np.random.default_rng(1)
        u = haar_unitary(3, rng)
        a = u + 0.05 * (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3)))
        v = tomo.nearest_unitary(a)
        dist = np.linalg.norm(a - v)
        for _ in range(50):
            other = haar_unitary(3, rng)
            assert dist <= np.linalg.norm(a - other) + 1e-12

    def test_rank_deficient_rejected(self):
        with pytest.raises(ValueError, match="rank-deficient"):
            tomo.nearest_unitary(np.diag([1.0, 1.0, 0.0]))


class TestGaussianSurrogate:
    def test_sigma_zero_is_identity_copy(self):
        u = haar_unitary(4, np.random.default_rng(2))
        out = tomo.gaussian_surrogate(u, 0.0, np.random.default_rng(0))
        np.testing.assert_array_equal(out, u)
        assert out is not u

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            tomo.gaussian_surrogate(np.eye(2), -0.1, np.random.default_rng(0))

    def test_output_is_unitary_and_error_grows_with_sigma(self):
        rng = np.random.default_rng(3)
        u = haar_unitary(4, rng)
        means = []
        for sigma in (0.01, 0.1):
            vals = []
            for _ in range(200):
                v = tomo.gaussian_surrogate(u, sigma, rng)
                np.testing.assert_allclose(v.conj().T @ v, np.eye(4), atol=1e-10)
                vals.append(reconstruction_infidelity(u, v))
            means.append(np.mean(vals))
        assert means[0] < 0.05 * means[1]


class TestCalibration:
    def test_fit_and_round_trip(self):
        rng = np.random.default_rng(0)
        fitted = tomo.calibrate_sigma_to_shots(
            2, [1000, 100, 10_000], [3e-3, 3e-2, 3e-1], rng, n_trials=12
        )
        assert fitted["shots_slope"] < -0.5
        assert fitted["sigma_slope"] > 1.0
        # the map must be monotone decreasing in the shot budget
        sigmas = [tomo.sigma_for_shots(fitted, n) for n in (100, 1000, 10_000)]
        assert sigmas[0] > sigmas[1] > sigmas[2] > 0

        # the mapping is its JSON file: plain values in the file's key order
        assert list(fitted) == [
            "format_version", "dim", "shots_grid", "shots_infidelity", "sigma_grid",
            "sigma_infidelity", "shots_slope", "shots_intercept", "sigma_slope",
            "sigma_intercept", "n_trials"]
        assert json.loads(json.dumps(fitted)) == fitted
        assert fitted["format_version"] == 1
        assert fitted["dim"] == 2 and fitted["n_trials"] == 12
        assert fitted["shots_grid"] == [100.0, 1000.0, 10_000.0]

    def test_rejects_narrow_grids(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError, match="two decades"):
            tomo.calibrate_sigma_to_shots(2, [100, 200, 400], [1e-3, 1e-2, 1e-1], rng)
        with pytest.raises(ValueError, match="at least 3"):
            tomo.calibrate_sigma_to_shots(2, [100, 10_000], [1e-3, 1e-2, 1e-1], rng)
