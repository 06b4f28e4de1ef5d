"""Gradient and distribution oracles for the hand-rolled networks.

The backbone of this file is central finite differences: every analytic
gradient (policy, critics, quantile Huber, layer norm, dropout path) is
checked coordinate-by-coordinate against an independent numerical derivative
at 1e-4 relative tolerance. The squashed-Gaussian log-density is checked
against direct quadrature (the density must integrate to one) and against
scipy's Gaussian log-pdf plus the change-of-variables term.
"""
from __future__ import annotations

import numpy as np
import pytest
from scipy import integrate, stats

from qdrl.rlagent.nets import (
    LOGVAR_MAX,
    LOGVAR_MIN,
    Adam,
    Dense,
    Dropout,
    GaussianPolicy,
    LayerNorm,
    MlpTrunk,
    QuantileCritic,
    quantile_huber_loss,
    sigmoid,
    softplus,
)


def flat_params(net) -> np.ndarray:
    return np.concatenate([p.ravel() for p in net.params()])


def set_flat_params(net, vec: np.ndarray) -> None:
    offset = 0
    for p in net.params():
        p[...] = vec[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    assert offset == vec.size


def flat_grads(grads) -> np.ndarray:
    """A backward pass's parameter gradients as one vector, in params() order."""
    return np.concatenate([g.ravel() for g in grads])


def fd_gradient(loss_fn, net, eps: float = 1e-6) -> np.ndarray:
    """Central finite differences of loss_fn() with respect to net params."""
    base = flat_params(net).copy()
    grad = np.empty_like(base)
    for i in range(base.size):
        probe = base.copy()
        probe[i] = base[i] + eps
        set_flat_params(net, probe)
        up = loss_fn()
        probe[i] = base[i] - eps
        set_flat_params(net, probe)
        down = loss_fn()
        grad[i] = (up - down) / (2.0 * eps)
    set_flat_params(net, base)
    return grad


class TestActivations:
    def test_softplus_matches_reference(self):
        x = np.linspace(-30.0, 30.0, 401)
        np.testing.assert_allclose(softplus(x), np.log1p(np.exp(np.clip(x, None, 500))), rtol=1e-12)

    def test_softplus_no_overflow(self):
        x = np.array([-1e4, 1e4])
        y = softplus(x)
        assert np.all(np.isfinite(y))
        assert y[0] == pytest.approx(0.0, abs=1e-12)
        assert y[1] == pytest.approx(1e4)

    def test_softplus_within_eps_of_logaddexp(self):
        # the one-pass form changes only the last bits against np.logaddexp
        x = np.concatenate([np.linspace(-800.0, 800.0, 4001), [0.0, np.inf, -np.inf]])
        info = np.finfo(float)
        np.testing.assert_allclose(
            softplus(x), np.logaddexp(0.0, x), rtol=4 * info.eps, atol=info.tiny
        )

    def test_sigmoid_is_softplus_derivative(self):
        x = np.linspace(-5.0, 5.0, 21)
        eps = 1e-6
        fd = (softplus(x + eps) - softplus(x - eps)) / (2 * eps)
        np.testing.assert_allclose(sigmoid(x), fd, rtol=1e-8)


class TestDenseAndTrunk:
    def test_dense_forward_shape_and_affine(self):
        rng = np.random.default_rng(0)
        layer = Dense(rng, 4, 3)
        x = rng.normal(size=(5, 4))
        y, _ = layer.forward(x)
        np.testing.assert_allclose(y, x @ layer.w + layer.b, rtol=1e-14)

    def test_init_scale_follows_fan_in(self):
        rng = np.random.default_rng(1)
        wide = Dense(rng, 400, 10)
        assert np.max(np.abs(wide.w)) <= 1.0 / 20.0
        narrow = Dense(rng, 4, 10)
        assert np.max(np.abs(narrow.w)) <= 0.5
        assert np.max(np.abs(narrow.w)) > 1.0 / 20.0  # actually uses the wider range

    def test_trunk_gradient_matches_fd(self):
        rng = np.random.default_rng(2)
        trunk = MlpTrunk(rng, 3, (5, 4))
        x = rng.normal(size=(6, 3))
        w_out = rng.normal(size=(6, 4))

        def loss():
            y, _ = trunk.forward(x)
            return float(np.sum(w_out * y))

        y, cache = trunk.forward(x)
        _, grads = trunk.backward(w_out, cache)
        np.testing.assert_allclose(flat_grads(grads), fd_gradient(loss, trunk), rtol=1e-4, atol=1e-8)

    def test_trunk_input_gradient_matches_fd(self):
        rng = np.random.default_rng(3)
        trunk = MlpTrunk(rng, 3, (4,))
        x = rng.normal(size=(2, 3))
        w_out = rng.normal(size=(2, 4))
        y, cache = trunk.forward(x)
        dx, _ = trunk.backward(w_out, cache)
        eps = 1e-6
        fd = np.empty_like(x)
        for idx in np.ndindex(x.shape):
            up = x.copy()
            up[idx] += eps
            down = x.copy()
            down[idx] -= eps
            fd[idx] = (np.sum(w_out * trunk.forward(up)[0]) - np.sum(w_out * trunk.forward(down)[0])) / (2 * eps)
        np.testing.assert_allclose(dx, fd, rtol=1e-4, atol=1e-8)


class TestLayerNorm:
    def test_normalizes_features(self):
        rng = np.random.default_rng(5)
        norm = LayerNorm(16)
        x = rng.normal(size=(8, 16)) * 5.0 + 3.0
        y, _ = norm.forward(x)
        np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-10)
        np.testing.assert_allclose(y.std(axis=-1), 1.0, atol=1e-3)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(6)
        norm = LayerNorm(5)
        norm.gamma[...] = rng.normal(size=5)
        norm.beta[...] = rng.normal(size=5)
        x = rng.normal(size=(3, 5))
        w = rng.normal(size=(3, 5))

        def loss():
            return float(np.sum(w * norm.forward(x)[0]))

        y, cache = norm.forward(x)
        dx, grads = norm.backward(w, cache)
        np.testing.assert_allclose(flat_grads(grads), fd_gradient(loss, norm), rtol=1e-4, atol=1e-8)
        eps = 1e-6
        fd = np.empty_like(x)
        for idx in np.ndindex(x.shape):
            up = x.copy()
            up[idx] += eps
            down = x.copy()
            down[idx] -= eps
            fd[idx] = (np.sum(w * norm.forward(up)[0]) - np.sum(w * norm.forward(down)[0])) / (2 * eps)
        np.testing.assert_allclose(dx, fd, rtol=1e-4, atol=1e-7)


class TestDropout:
    def test_identity_when_not_training(self):
        rng = np.random.default_rng(7)
        drop = Dropout(0.5)
        x = rng.normal(size=(4, 6))
        y, mask = drop.forward(x, train=False, rng=rng)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_identity_at_zero_rate(self):
        rng = np.random.default_rng(8)
        drop = Dropout(0.0)
        x = rng.normal(size=(4, 6))
        y, mask = drop.forward(x, train=True, rng=rng)
        assert mask is None
        np.testing.assert_array_equal(y, x)

    def test_training_mode_requires_rng(self):
        drop = Dropout(0.3)
        with pytest.raises(ValueError, match="rng"):
            drop.forward(np.zeros((2, 2)), train=True, rng=None)

    def test_mask_preserves_expectation(self):
        rng = np.random.default_rng(9)
        drop = Dropout(0.25)
        x = np.ones((200, 200))
        y, mask = drop.forward(x, train=True, rng=rng)
        assert abs(y.mean() - 1.0) < 0.01
        kept = mask > 0
        np.testing.assert_allclose(y[kept], 1.0 / 0.75, rtol=1e-12)
        assert np.all(y[~kept] == 0.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            Dropout(1.0)
        with pytest.raises(ValueError):
            Dropout(-0.1)


class TestGaussianPolicy:
    def _small_policy(self, seed=10):
        rng = np.random.default_rng(seed)
        return GaussianPolicy(rng, obs_dim=3, act_dim=2, hidden=(6, 5)), rng

    def test_actions_strictly_inside_unit_box(self):
        policy, rng = self._small_policy()
        obs = rng.normal(size=(64, 3)) * 3.0
        a, logp = policy.sample(obs, rng)
        assert np.all(np.abs(a) < 1.0)
        assert np.all(np.isfinite(logp))

    def test_log_prob_matches_scipy(self):
        policy, rng = self._small_policy(11)
        obs = rng.normal(size=(5, 3))
        xi = rng.normal(size=(5, 2))
        a, logp, cache = policy.sample_cached(obs, xi)
        mu, lv, _ = policy._heads(obs)
        sigma = np.exp(0.5 * lv)
        u = mu + sigma * xi
        expected = stats.norm.logpdf(u, loc=mu, scale=sigma) - np.log1p(-np.tanh(u) ** 2)
        np.testing.assert_allclose(logp, expected.sum(axis=1), rtol=1e-10)

    def test_density_integrates_to_one(self):
        """Quadrature oracle: the squashed density over (-1, 1) has unit mass."""
        policy, rng = self._small_policy(12)
        policy_1d = GaussianPolicy(np.random.default_rng(12), obs_dim=2, act_dim=1, hidden=(4,))
        obs = rng.normal(size=(1, 2))
        mu, lv, _ = policy_1d._heads(obs)
        sigma = float(np.exp(0.5 * lv[0, 0]))

        def density(a):
            u = np.arctanh(a)
            xi = (u - mu[0, 0]) / sigma
            return float(np.exp(policy_1d.sample_cached(obs, np.array([[xi]]))[1][0]))

        grid = np.tanh(np.linspace(-8.0, 8.0, 4001))  # dense near the edges
        values = np.array([density(a) for a in grid])
        mass = integrate.simpson(values, x=grid)
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_vanishing_noise_returns_deterministic_action(self):
        policy, rng = self._small_policy(13)
        # Force tiny variance through the head bias, keeping raw values in-range.
        policy.logvar_head.w[...] = 0.0
        policy.logvar_head.b[...] = -14.0
        obs = rng.normal(size=(8, 3))
        a, _ = policy.sample(obs, rng)
        np.testing.assert_allclose(a, policy.deterministic(obs), atol=1e-3)

    def test_logvar_clamp_bounds_sigma(self):
        policy, rng = self._small_policy(14)
        policy.logvar_head.w[...] = 0.0
        policy.logvar_head.b[...] = 100.0  # raw value far above the clamp
        obs = rng.normal(size=(2, 3))
        _, lv, _ = policy._heads(obs)
        assert np.all(lv == LOGVAR_MAX)
        policy.logvar_head.b[...] = -100.0
        _, lv, _ = policy._heads(obs)
        assert np.all(lv == LOGVAR_MIN)

    def test_policy_gradient_matches_fd(self):
        """Joint action/log-prob gradient against finite differences."""
        policy, rng = self._small_policy(15)
        obs = rng.normal(size=(4, 3))
        xi = rng.normal(size=(4, 2))
        w_a = rng.normal(size=(4, 2))
        w_p = rng.normal(size=4)

        def loss():
            a, logp, _ = policy.sample_cached(obs, xi)
            return float(np.sum(w_a * a) + np.sum(w_p * logp))

        a, logp, cache = policy.sample_cached(obs, xi)
        grads = policy.backward(w_a, w_p, cache)
        np.testing.assert_allclose(
            flat_grads(grads), fd_gradient(loss, policy), rtol=1e-4, atol=1e-8
        )

    def test_clamped_logvar_blocks_gradient(self):
        policy, rng = self._small_policy(16)
        policy.logvar_head.w[...] = 0.0
        policy.logvar_head.b[...] = 50.0  # clamped to LOGVAR_MAX everywhere
        obs = rng.normal(size=(3, 3))
        xi = rng.normal(size=(3, 2))
        a, logp, cache = policy.sample_cached(obs, xi)
        grads = policy.backward(np.zeros_like(a), np.ones(3), cache)
        grad_of = {id(p): g for p, g in zip(policy.params(), grads, strict=True)}
        np.testing.assert_array_equal(grad_of[id(policy.logvar_head.w)], 0.0)
        np.testing.assert_array_equal(grad_of[id(policy.logvar_head.b)], 0.0)
        # but the mean head still learns
        assert np.any(grad_of[id(policy.mean_head.w)] != 0.0)

    def test_deterministic_is_tanh_of_mean(self, monkeypatch):
        policy, rng = self._small_policy(17)
        obs = rng.normal(size=(6, 3))
        mu, _, _ = policy._heads(obs)
        # the log-variance head plays no part in the deterministic action
        monkeypatch.setattr(policy.logvar_head, "forward",
                            lambda h: pytest.fail("log-variance head evaluated"))
        np.testing.assert_array_equal(policy.deterministic(obs), np.tanh(mu))


class TestQuantileCritic:
    def test_output_shape(self):
        rng = np.random.default_rng(20)
        critic = QuantileCritic(rng, obs_dim=3, act_dim=2, hidden=(6,), n_quantiles=7)
        z, _ = critic.forward(rng.normal(size=(5, 3)), rng.normal(size=(5, 2)))
        assert z.shape == (5, 7)

    def test_critic_gradient_matches_fd(self):
        rng = np.random.default_rng(21)
        critic = QuantileCritic(rng, obs_dim=3, act_dim=2, hidden=(5, 4), n_quantiles=6)
        obs = rng.normal(size=(4, 3))
        act = rng.uniform(-1, 1, size=(4, 2))
        targets = rng.normal(size=(4, 9))

        def loss():
            z, _ = critic.forward(obs, act)
            return quantile_huber_loss(z, targets)[0]

        z, cache = critic.forward(obs, act)
        value, dz = quantile_huber_loss(z, targets)
        *_, grads = critic.backward(dz, cache)
        np.testing.assert_allclose(
            flat_grads(grads), fd_gradient(loss, critic), rtol=1e-4, atol=1e-8
        )

    def test_critic_gradient_with_dropout_matches_fd(self):
        """Dropout mask is redrawn from a fixed seed for every FD probe."""
        rng = np.random.default_rng(22)
        critic = QuantileCritic(
            rng, obs_dim=2, act_dim=1, hidden=(5,), n_quantiles=4, dropout=0.3
        )
        obs = rng.normal(size=(3, 2))
        act = rng.uniform(-1, 1, size=(3, 1))
        targets = rng.normal(size=(3, 5))

        def loss():
            z, _ = critic.forward(obs, act, train=True, rng=np.random.default_rng(99))
            return quantile_huber_loss(z, targets)[0]

        z, cache = critic.forward(obs, act, train=True, rng=np.random.default_rng(99))
        value, dz = quantile_huber_loss(z, targets)
        *_, grads = critic.backward(dz, cache)
        np.testing.assert_allclose(
            flat_grads(grads), fd_gradient(loss, critic), rtol=1e-4, atol=1e-8
        )

    def test_action_gradient_matches_fd(self):
        """The policy loss needs d(critic)/d(action); check it numerically."""
        rng = np.random.default_rng(23)
        critic = QuantileCritic(rng, obs_dim=3, act_dim=2, hidden=(5,), n_quantiles=4)
        obs = rng.normal(size=(2, 3))
        act = rng.uniform(-0.5, 0.5, size=(2, 2))
        w = rng.normal(size=(2, 4))
        z, cache = critic.forward(obs, act)
        _, d_act, _ = critic.backward(w, cache)
        eps = 1e-6
        fd = np.empty_like(act)
        for idx in np.ndindex(act.shape):
            up = act.copy()
            up[idx] += eps
            down = act.copy()
            down[idx] -= eps
            fd[idx] = (
                np.sum(w * critic.forward(obs, up)[0])
                - np.sum(w * critic.forward(obs, down)[0])
            ) / (2 * eps)
        np.testing.assert_allclose(d_act, fd, rtol=1e-4, atol=1e-8)

    def test_input_only_backward_matches_and_returns_no_grads(self):
        rng = np.random.default_rng(25)
        critic = QuantileCritic(
            rng, obs_dim=3, act_dim=2, hidden=(6, 5), n_quantiles=4, dropout=0.2
        )
        obs = rng.normal(size=(5, 3))
        act = rng.uniform(-1, 1, size=(5, 2))
        z, cache = critic.forward(obs, act, train=True, rng=np.random.default_rng(7))
        dz = rng.normal(size=z.shape)
        d_obs, d_act, grads = critic.backward(dz, cache, params=False)
        assert grads is None
        ref_obs, ref_act, grads = critic.backward(dz, cache)
        assert np.any(flat_grads(grads))
        np.testing.assert_array_equal(d_obs, ref_obs)
        np.testing.assert_array_equal(d_act, ref_act)

    def test_dropout_off_outside_training_passes(self):
        rng = np.random.default_rng(24)
        critic = QuantileCritic(
            rng, obs_dim=2, act_dim=1, hidden=(8,), n_quantiles=3, dropout=0.5
        )
        obs = rng.normal(size=(4, 2))
        act = rng.uniform(-1, 1, size=(4, 1))
        z1, _ = critic.forward(obs, act)
        z2, _ = critic.forward(obs, act)
        np.testing.assert_array_equal(z1, z2)  # no stochasticity without train=True


class TestQuantileHuberLoss:
    def test_zero_when_predictions_equal_targets(self):
        z = np.full((3, 4), 1.7)
        y = np.full((3, 6), 1.7)
        loss, dz = quantile_huber_loss(z, y)
        assert loss == 0.0
        np.testing.assert_array_equal(dz, 0.0)

    def test_gradient_matches_fd(self):
        rng = np.random.default_rng(30)
        z = rng.normal(size=(3, 5))
        y = rng.normal(size=(3, 7)) * 2.0
        loss, dz = quantile_huber_loss(z, y)
        eps = 1e-6
        fd = np.empty_like(z)
        for idx in np.ndindex(z.shape):
            up = z.copy()
            up[idx] += eps
            down = z.copy()
            down[idx] -= eps
            fd[idx] = (quantile_huber_loss(up, y)[0] - quantile_huber_loss(down, y)[0]) / (2 * eps)
        np.testing.assert_allclose(dz, fd, rtol=1e-4, atol=1e-8)

    def test_asymmetric_penalty_follows_quantile_level(self):
        # The highest quantile is punished more for underestimating than
        # overestimating; the lowest quantile is the mirror image.
        y = np.zeros((1, 1))
        z_low = np.array([[-0.5, -0.5]])  # both quantiles underestimate
        z_high = np.array([[0.5, 0.5]])
        loss_low, dz_low = quantile_huber_loss(z_low, y)
        loss_high, dz_high = quantile_huber_loss(z_high, y)
        assert loss_low == pytest.approx(loss_high)  # symmetric midpoints overall
        # per-quantile gradients differ: tau = 0.25 and 0.75
        assert abs(dz_low[0, 1]) > abs(dz_low[0, 0])  # high quantile hates underestimating
        assert abs(dz_high[0, 0]) > abs(dz_high[0, 1])

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="incompatible"):
            quantile_huber_loss(np.zeros((2, 3)), np.zeros((3, 3)))

    def test_bit_equal_to_the_two_branch_huber_loss(self):
        # quarter-unit grids give differences of exactly 0 and +-1, on both
        # sides of the branch point; the normal draws give everything else
        rng = np.random.default_rng(31)
        z = rng.normal(size=(256, 46))
        y = rng.normal(size=(256, 25)) * 2.0
        z[:128, :20] = rng.integers(-8, 9, size=(128, 20)) * 0.25
        y[:128, :10] = rng.integers(-8, 9, size=(128, 10)) * 0.25
        b, k = z.shape
        j = y.shape[1]
        delta = y[:, None, :] - z[:, :, None]
        assert (delta == 0.0).any() and (delta == 1.0).any() and (delta == -1.0).any()
        taus = (np.arange(k) + 0.5) / k
        weight = np.abs(taus[None, :, None] - (delta < 0.0))
        huber = np.where(np.abs(delta) <= 1.0, 0.5 * delta**2, np.abs(delta) - 0.5)
        dz = -(np.clip(delta, -1.0, 1.0) * weight).sum(axis=2) / (b * k * j)
        loss, got_dz = quantile_huber_loss(z, y)
        assert loss == float(np.mean(huber * weight))
        np.testing.assert_array_equal(got_dz, dz)

    def test_quadratic_core_linear_tail(self):
        # Inside |delta| <= 1 the loss is quadratic, outside it grows linearly.
        y = np.zeros((1, 1))
        small = quantile_huber_loss(np.array([[0.2]]), y)[0]
        assert small == pytest.approx(0.5 * 0.5 * 0.2**2)  # |tau-1|=0.5 at tau=0.5
        big1 = quantile_huber_loss(np.array([[10.0]]), y)[0]
        big2 = quantile_huber_loss(np.array([[11.0]]), y)[0]
        assert big2 - big1 == pytest.approx(0.5)  # slope |tau-1| * kappa


class TestAdam:
    def test_quadratic_bowl_converges(self):
        rng = np.random.default_rng(40)
        target = rng.normal(size=8)
        x = np.zeros(8)
        opt = Adam([x], lr=0.05)
        for _ in range(5000):
            opt.step([x - target])
            if np.max(np.abs(x - target)) < 1e-6:
                break
        np.testing.assert_allclose(x, target, atol=1e-6)

    def test_first_step_magnitude_is_lr(self):
        # With bias correction the first Adam step is lr * sign(g) (up to eps).
        x = np.array([1.0, -2.0, 3.0])
        opt = Adam([x], lr=0.01)
        opt.step([np.array([0.5, -0.1, 2.0])])
        np.testing.assert_allclose(x, [1.0 - 0.01, -2.0 + 0.01, 3.0 - 0.01], atol=1e-6)

    def test_zero_gradient_is_noop(self):
        x = np.array([1.0, 2.0])
        opt = Adam([x], lr=0.1)
        opt.step([np.zeros(2)])
        np.testing.assert_array_equal(x, [1.0, 2.0])

    def test_updates_in_place(self):
        x = np.array([0.0])
        opt = Adam([x], lr=0.1)
        alias = x
        opt.step([np.array([1.0])])
        assert alias is x and alias[0] != 0.0

    def test_rejects_bad_lr_and_mismatched_grads(self):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([np.zeros(2)], lr=0.0)
        opt = Adam([np.zeros(2), np.zeros(3)], lr=0.1)
        with pytest.raises(ValueError, match="gradients"):
            opt.step([np.zeros(2)])

    def test_state_round_trip(self):
        rng = np.random.default_rng(41)
        x = rng.normal(size=4)
        opt = Adam([x], lr=0.02)
        for _ in range(3):
            opt.step([rng.normal(size=4)])
        saved = [a.copy() for a in opt.state_arrays()]
        x2 = x.copy()
        opt2 = Adam([x2], lr=0.02)
        opt2.load_state_arrays(saved)
        g = rng.normal(size=4)
        opt.step([g.copy()])
        opt2.step([g.copy()])
        np.testing.assert_array_equal(x, x2)

    def test_step_equals_out_of_place_reference(self):
        # reference: the textbook update with fresh arrays for every term
        rng = np.random.default_rng(43)
        shapes = [(6, 4), (4,), (1,)]
        lr = 3e-3
        # parameters start at zero, so they keep every bit of the steps taken
        params = [np.zeros(s) for s in shapes]
        ref_p = [p.copy() for p in params]
        ref_m = [np.zeros(s) for s in shapes]
        ref_v = [np.zeros(s) for s in shapes]
        opt = Adam(params, lr=lr)
        for t in range(1, 8):
            grads = [rng.normal(size=s) for s in shapes]
            grads[0][0, 0] = 0.0
            kept = [g.copy() for g in grads]
            opt.step(grads)
            c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
            for p, g, m, v in zip(ref_p, kept, ref_m, ref_v):
                m[...] = 0.9 * m + (1.0 - 0.9) * g
                v[...] = 0.999 * v + (1.0 - 0.999) * g**2
                p -= lr * (m / c1) / (np.sqrt(v / c2) + 1e-8)
            for got, want in zip(params + opt.m + opt.v + grads, ref_p + ref_m + ref_v + kept):
                np.testing.assert_array_equal(got, want)

    def test_load_rejects_wrong_count(self):
        opt = Adam([np.zeros(2)], lr=0.1)
        with pytest.raises(ValueError, match="state arrays"):
            opt.load_state_arrays([np.zeros(2)])
