"""Small dense networks with explicit reverse-mode gradients, in plain numpy.

Everything the learner differentiates lives here: fully connected layers with
a smooth-rectifier (softplus) activation, layer normalization and inverted
dropout for the critic trunks, a tanh-squashed Gaussian policy head with the
exact log-density of the squashed sample, quantile Huber regression for the
distributional critics, and an Adam optimizer. Forward passes return caches;
backward passes consume them and return the input gradient together with the
parameter gradients, a list in params() order that a caller hands to
Adam.step. A layer holds its parameters, never their gradients, so a network
that only runs forward (the agent's target critics) is its parameters alone. A
backward pass with params=False returns None in place of that list, for
callers that differentiate through a network they do not train (the policy
step through the critics).

Adam moments start as np.zeros arrays, which the OS backs with memory only
where they are first written (the first optimizer step, or a checkpoint
load), so an agent that only acts never pages them.

All math is float64. The networks are deliberately tiny (two hidden layers),
so explicit loops over layers cost nothing next to the matmuls.
"""
from __future__ import annotations

import numpy as np

__all__ = [
    "softplus",
    "sigmoid",
    "Dense",
    "LayerNorm",
    "Dropout",
    "MlpTrunk",
    "GaussianPolicy",
    "QuantileCritic",
    "quantile_huber_loss",
    "Adam",
    "LOGVAR_MIN",
    "LOGVAR_MAX",
]

LOGVAR_MIN = -15.0
LOGVAR_MAX = 4.0
_HALF_LOG_2PI = 0.5 * np.log(2.0 * np.pi)
# Adam moment decay rates and denominator offset
_ADAM_BETA1, _ADAM_BETA2 = 0.9, 0.999
_ADAM_EPS = 1e-8


def softplus(x: np.ndarray) -> np.ndarray:
    """log(1 + e^x), overflow-safe, as max(x, 0) + log1p(e^-|x|).

    Several times faster than np.logaddexp(0, x) and within 2 eps of it,
    relative, wherever the result is a normal float; the last bits differ, so
    runs are reproducible against this form, not against logaddexp.
    """
    out = np.abs(x, out=np.empty(np.shape(x)))
    np.negative(out, out=out)
    np.exp(out, out=out)
    np.log1p(out, out=out)
    out += np.maximum(x, 0.0)
    return out


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Derivative of softplus, overflow-safe: 0.5 (1 + tanh(x / 2))."""
    out = np.multiply(x, 0.5, out=np.empty(np.shape(x)))
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


class Dense:
    """y = x W + b with fan-in scaled uniform initialization."""

    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int):
        bound = 1.0 / np.sqrt(n_in)
        self.w = rng.uniform(-bound, bound, size=(n_in, n_out))
        self.b = rng.uniform(-bound, bound, size=n_out)

    def forward(self, x: np.ndarray):
        y = x @ self.w
        y += self.b
        return y, x

    def backward(self, dy: np.ndarray, cache, params: bool = True):
        """(input gradient, [dw, db]); None for the list with params=False."""
        grads = [cache.T @ dy, dy.sum(axis=0)] if params else None
        return dy @ self.w.T, grads

    def params(self):
        return [self.w, self.b]


class LayerNorm:
    """Normalization over the feature axis with learned scale and shift."""

    EPS = 1e-6

    def __init__(self, n: int):
        self.gamma = np.ones(n)
        self.beta = np.zeros(n)

    def forward(self, x: np.ndarray):
        xhat = x - x.mean(axis=-1, keepdims=True)
        y = xhat * xhat
        inv = 1.0 / np.sqrt(y.mean(axis=-1, keepdims=True) + self.EPS)
        xhat *= inv
        np.multiply(xhat, self.gamma, out=y)
        y += self.beta
        return y, (xhat, inv)

    def backward(self, dy: np.ndarray, cache, params: bool = True):
        """(input gradient, [dgamma, dbeta]); None for the list with params=False."""
        xhat, inv = cache
        n = xhat.shape[-1]
        dx = dy * self.gamma  # d xhat
        tmp = dx * xhat
        proj = tmp.sum(axis=-1, keepdims=True)
        grads = None
        if params:
            np.multiply(dy, xhat, out=tmp)
            grads = [tmp.sum(axis=0), dy.sum(axis=0)]
        # dx = (inv / n) (n dxhat - sum(dxhat) - xhat sum(dxhat xhat)), in place
        total = dx.sum(axis=-1, keepdims=True)
        dx *= n
        dx -= total
        np.multiply(xhat, proj, out=tmp)
        dx -= tmp
        dx *= inv / n
        return dx, grads

    def params(self):
        return [self.gamma, self.beta]


class Dropout:
    """Inverted dropout; identity unless a training pass supplies an rng."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: np.ndarray, train: bool, rng: np.random.Generator | None):
        if not train or self.p == 0.0:
            return x, None
        if rng is None:
            raise ValueError("training-mode dropout needs an rng")
        mask = rng.random(x.shape)
        np.divide(mask >= self.p, 1.0 - self.p, out=mask)
        return x * mask, mask

    def backward(self, dy: np.ndarray, mask) -> np.ndarray:
        return dy if mask is None else dy * mask


class MlpTrunk:
    """Hidden stack: per layer Dense -> (Dropout) -> (LayerNorm) -> softplus."""

    def __init__(
        self,
        rng: np.random.Generator,
        n_in: int,
        hidden: tuple[int, ...],
        dropout: float = 0.0,
        layer_norm: bool = False,
    ):
        if not hidden:
            raise ValueError("need at least one hidden layer")
        self.dense: list[Dense] = []
        self.norms: list[LayerNorm | None] = []
        self.drops: list[Dropout | None] = []
        size = n_in
        for width in hidden:
            self.dense.append(Dense(rng, size, width))
            self.drops.append(Dropout(dropout) if dropout > 0 else None)
            self.norms.append(LayerNorm(width) if layer_norm else None)
            size = width
        self.n_out = size

    def forward(self, x: np.ndarray, train: bool = False, rng=None):
        caches = []
        for dense, drop, norm in zip(self.dense, self.drops, self.norms):
            x, c_dense = dense.forward(x)
            c_drop = None
            if drop is not None:
                x, c_drop = drop.forward(x, train, rng)
            c_norm = None
            if norm is not None:
                x, c_norm = norm.forward(x)
            caches.append((c_dense, c_drop, c_norm, x))
            x = softplus(x)
        return x, caches

    def backward(self, dy: np.ndarray, caches, params: bool = True):
        """(input gradient, parameter gradients); params=False skips the latter."""
        grads = []
        for dense, drop, norm, cache in zip(
            reversed(self.dense), reversed(self.drops), reversed(self.norms), reversed(caches)
        ):
            c_dense, c_drop, c_norm, pre_act = cache
            gate = sigmoid(pre_act)
            gate *= dy
            dy = gate
            g_norm = []
            if norm is not None:
                dy, g_norm = norm.backward(dy, c_norm, params)
            if drop is not None:
                dy = drop.backward(dy, c_drop)
            dy, g_dense = dense.backward(dy, c_dense, params)
            if params:
                grads[:0] = g_dense + g_norm  # layers run last to first
        return dy, grads if params else None

    def params(self):
        out = []
        for dense, norm in zip(self.dense, self.norms):
            out.extend(dense.params())
            if norm is not None:
                out.extend(norm.params())
        return out


def _log1m_tanh_sq(u: np.ndarray) -> np.ndarray:
    """log(1 - tanh(u)^2) = 2 (log 2 - u - softplus(-2u)), overflow-safe."""
    return 2.0 * (np.log(2.0) - u - softplus(-2.0 * u))


class GaussianPolicy:
    """tanh-squashed diagonal Gaussian with exact squashed log-density.

    The trunk feeds two linear heads, mean and log-variance; the log-variance
    is clamped to [LOGVAR_MIN, LOGVAR_MAX] on every forward pass. Sampling is
    reparameterized (u = mean + sigma * xi), so gradients flow through both
    the action and its log-probability for a fixed noise draw.
    """

    def __init__(self, rng: np.random.Generator, obs_dim: int, act_dim: int, hidden):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.trunk = MlpTrunk(rng, obs_dim, tuple(hidden))
        self.mean_head = Dense(rng, self.trunk.n_out, act_dim)
        self.logvar_head = Dense(rng, self.trunk.n_out, act_dim)

    # ----------------------------------------------------------- forward

    def _heads(self, obs: np.ndarray):
        h, trunk_cache = self.trunk.forward(obs)
        mu, c_mu = self.mean_head.forward(h)
        lv_raw, c_lv = self.logvar_head.forward(h)
        lv = np.clip(lv_raw, LOGVAR_MIN, LOGVAR_MAX)
        return mu, lv, (trunk_cache, c_mu, c_lv, lv_raw)

    def sample(self, obs: np.ndarray, rng: np.random.Generator):
        """(action, log_prob) for a batch; no cache kept."""
        a, logp, _ = self.sample_cached(obs, rng.normal(size=(obs.shape[0], self.act_dim)))
        return a, logp

    def sample_cached(self, obs: np.ndarray, xi: np.ndarray):
        """Reparameterized sample with the cache needed for backward()."""
        mu, lv, head_cache = self._heads(obs)
        sigma = np.exp(0.5 * lv)
        u = mu + sigma * xi
        a = np.tanh(u)
        logp = np.sum(
            -0.5 * xi**2 - _HALF_LOG_2PI - 0.5 * lv - _log1m_tanh_sq(u), axis=1
        )
        cache = (head_cache, sigma, xi, a, lv)
        return a, logp, cache

    def deterministic(self, obs: np.ndarray) -> np.ndarray:
        """tanh of the mean; the log-variance head is not evaluated."""
        h, _ = self.trunk.forward(obs)
        mu, _ = self.mean_head.forward(h)
        return np.tanh(mu)

    # ---------------------------------------------------------- backward

    def backward(self, d_action: np.ndarray, d_logp: np.ndarray, cache) -> list:
        """Parameter gradients of sum(d_action * a + d_logp * logp), in params() order.

        d_action is (B, act_dim), d_logp is (B,); the noise draw xi is held
        fixed (reparameterization).
        """
        head_cache, sigma, xi, a, lv = cache
        trunk_cache, c_mu, c_lv, lv_raw = head_cache
        # d logp / du at fixed xi: the squash correction only
        dlogp_du = 2.0 * a
        du = d_action * (1.0 - a**2) + d_logp[:, None] * dlogp_du
        d_mu = du
        d_lv = du * (0.5 * sigma * xi) + d_logp[:, None] * (-0.5)
        # clamp: no gradient beyond the bounds
        d_lv = d_lv * ((lv_raw > LOGVAR_MIN) & (lv_raw < LOGVAR_MAX))
        dh, g_mu = self.mean_head.backward(d_mu, c_mu)
        dh_lv, g_lv = self.logvar_head.backward(d_lv, c_lv)
        dh += dh_lv
        _, g_trunk = self.trunk.backward(dh, trunk_cache)
        return g_trunk + g_mu + g_lv

    # ------------------------------------------------------------- state

    def params(self):
        return self.trunk.params() + self.mean_head.params() + self.logvar_head.params()


class QuantileCritic:
    """Distributional critic: (obs, action) -> q_k quantile values.

    The trunk carries dropout and layer normalization (the stabilizers are
    critic-only); train=True enables dropout, evaluation and target passes
    leave it off.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        obs_dim: int,
        act_dim: int,
        hidden,
        n_quantiles: int,
        dropout: float = 0.0,
    ):
        self.obs_dim = obs_dim
        self.act_dim = act_dim
        self.n_quantiles = n_quantiles
        self.trunk = MlpTrunk(
            rng, obs_dim + act_dim, tuple(hidden), dropout=dropout, layer_norm=True
        )
        self.head = Dense(rng, self.trunk.n_out, n_quantiles)

    def forward(self, obs: np.ndarray, act: np.ndarray, train: bool = False, rng=None):
        x = np.concatenate([obs, act], axis=1)
        h, trunk_cache = self.trunk.forward(x, train=train, rng=rng)
        z, c_head = self.head.forward(h)
        return z, (trunk_cache, c_head)

    def backward(self, dz: np.ndarray, cache, params: bool = True):
        """(d_obs, d_act, parameter gradients) of the input batch.

        params=False returns None for the parameter gradients and skips
        computing them, for a caller that only needs d_act.
        """
        trunk_cache, c_head = cache
        dh, g_head = self.head.backward(dz, c_head, params)
        dx, g_trunk = self.trunk.backward(dh, trunk_cache, params)
        grads = g_trunk + g_head if params else None
        return dx[:, : self.obs_dim], dx[:, self.obs_dim :], grads

    def params(self):
        return self.trunk.params() + self.head.params()


def quantile_huber_loss(z: np.ndarray, targets: np.ndarray):
    """Quantile Huber regression of predictions (B, K) onto targets (B, J).

    Quantile levels are the midpoints tau_k = (k + 1/2)/K; the Huber loss
    turns from quadratic to linear at |delta| = 1. Returns the scalar
    loss (mean over batch, prediction quantiles, and target atoms) and its
    gradient with respect to z.
    """
    if z.ndim != 2 or targets.ndim != 2 or z.shape[0] != targets.shape[0]:
        raise ValueError(f"incompatible shapes {z.shape} and {targets.shape}")
    b, k = z.shape
    j = targets.shape[1]
    taus = (np.arange(k) + 0.5) / k
    # (B, K, J) temporaries are computed in place: fresh arrays of this size
    # cost as much as the arithmetic on them
    delta = targets[:, None, :] - z[:, :, None]
    taus = taus[None, :, None]
    weight = np.where(delta < 0.0, 1.0 - taus, taus)  # |tau - 1{delta < 0}|
    # with c = clip(delta, -1, 1), c (delta - c / 2) is delta^2 / 2 for
    # |delta| <= 1 and |delta| - 1/2 beyond, bit for bit (halving is exact)
    c = np.clip(delta, -1.0, 1.0)
    huber = c * -0.5
    huber += delta
    huber *= c
    huber *= weight
    loss = float(np.mean(huber))
    # d huber / d delta = c; d delta / dz = -1
    c *= weight
    dz = -c.sum(axis=2) / (b * k * j)
    return loss, dz


class Adam:
    """Adam over a fixed list of parameter arrays, updated in place.

    Moment decay rates (0.9, 0.999) and denominator offset 1e-8 are fixed.
    """

    def __init__(self, params, lr: float):
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros(p.shape) for p in self.params]
        self.v = [np.zeros(p.shape) for p in self.params]
        self.t = 0

    def step(self, grads) -> None:
        grads = list(grads)
        if len(grads) != len(self.params):
            raise ValueError(f"expected {len(self.params)} gradients, got {len(grads)}")
        self.t += 1
        correct1 = 1.0 - _ADAM_BETA1**self.t
        correct2 = 1.0 - _ADAM_BETA2**self.t
        # in place, with the operands and rounding order of
        # m = b1 m + (1 - b1) g; v = b2 v + (1 - b2) g^2;
        # p -= lr (m / c1) / (sqrt(v / c2) + eps)
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            buf = np.multiply(g, 1.0 - _ADAM_BETA1)
            m *= _ADAM_BETA1
            m += buf
            np.multiply(g, g, out=buf)
            buf *= 1.0 - _ADAM_BETA2
            v *= _ADAM_BETA2
            v += buf
            np.divide(v, correct2, out=buf)
            np.sqrt(buf, out=buf)
            buf += _ADAM_EPS
            step = m / correct1
            step *= self.lr
            step /= buf
            p -= step

    def state_arrays(self):
        """Optimizer state for checkpointing: moments plus the step counter."""
        return self.m + self.v + [np.array([float(self.t)])]

    def load_state_arrays(self, arrays) -> None:
        n = len(self.params)
        if len(arrays) != 2 * n + 1:
            raise ValueError(f"expected {2 * n + 1} state arrays, got {len(arrays)}")
        for dst, src in zip(self.m, arrays[:n]):
            dst[...] = src
        for dst, src in zip(self.v, arrays[n : 2 * n]):
            dst[...] = src
        self.t = int(arrays[2 * n][0])
