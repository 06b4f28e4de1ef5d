"""Soft actor-critic with truncated-quantile critics, on the numpy networks.

The agent keeps an ensemble of distributional critics; bootstrap targets pool
the target-network quantiles, sort them, and keep only the smallest few, which
curbs the overestimation bias that plain soft actor-critic inherits from max
bootstrapping. The policy ascends the untruncated pooled critic mean plus an
entropy bonus whose temperature is auto-tuned toward a target entropy (a fixed
temperature is also supported).

`train_loop` interleaves acting, replay writes, and one gradient update per
environment step, with a uniform-random warmup, periodic deterministic
evaluation, per-episode metric records (including the wall time spent in
updates), a divergence guard that snapshots the agent before aborting, and a
bounded retry of episodes whose tomography reward fails reconstruction
(counted in the anchor_retries of the episode that lands after them).
"""
from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import os
import time
import zipfile
from dataclasses import dataclass, field

import numpy as np

from ..seeding import named_stream
from ..tomography import DegenerateAnchorError
from .nets import Adam, GaussianPolicy, QuantileCritic, quantile_huber_loss

__all__ = [
    "SacConfig",
    "ReplayBuffer",
    "SacAgent",
    "DivergenceError",
    "TrainResult",
    "polyak_update",
    "config_hash",
    "train_loop",
    "play_policy",
    "evaluate_policy",
    "CHECKPOINT_VERSION",
    "MAX_ANCHOR_RETRIES",
]

CHECKPOINT_VERSION = 1
# what SacAgent.load reads from a checkpoint's metadata besides its version
_META_FIELDS = {"obs_dim", "act_dim", "config", "config_hash", "updates_done"}

# consecutive episodes train_loop and evaluate_policy drop for a degenerate
# tomography anchor before they re-raise
MAX_ANCHOR_RETRIES = 50


@dataclass(frozen=True)
class SacConfig:
    """Hyperparameters for the agent and its training loop."""

    hidden: tuple[int, ...] = (512, 512)
    gamma: float = 0.99
    polyak: float = 0.005  # target <- polyak * online + (1 - polyak) * target
    learning_rate: float = 5e-4
    batch_size: int = 256
    replay_capacity: int = 100_000
    warmup_steps: int = 1000
    updates_per_step: int = 1
    n_critics: int = 2
    n_quantiles: int = 46
    kept_quantiles: int = 25
    dropout: float = 0.01
    temperature: float | None = None  # None: auto-tune toward target_entropy
    target_entropy: float | None = None  # None: -(action dimension)
    init_temperature: float = 1.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "hidden", tuple(int(h) for h in self.hidden))
        if not self.hidden or any(h < 1 for h in self.hidden):
            raise ValueError(f"invalid hidden sizes {self.hidden}")
        if not 0.0 <= self.gamma <= 1.0:
            raise ValueError(f"gamma must be in [0, 1], got {self.gamma}")
        if not 0.0 < self.polyak <= 1.0:
            raise ValueError(f"polyak rate must be in (0, 1], got {self.polyak}")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning rate must be positive and finite")
        if self.n_critics < 1 or self.n_quantiles < 1:
            raise ValueError("need at least one critic and one quantile")
        if not 1 <= self.kept_quantiles <= self.n_critics * self.n_quantiles:
            raise ValueError(
                f"kept_quantiles must be in [1, {self.n_critics * self.n_quantiles}], "
                f"got {self.kept_quantiles}"
            )
        if self.batch_size < 1 or self.batch_size > self.replay_capacity:
            raise ValueError("batch size must fit in the replay buffer")
        if self.warmup_steps < 0 or self.updates_per_step < 1:
            raise ValueError(
                f"need warmup_steps >= 0 and updates_per_step >= 1, got "
                f"{self.warmup_steps} and {self.updates_per_step}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.temperature is not None and not 0 < self.temperature < math.inf:
            raise ValueError("fixed temperature must be positive and finite")
        if self.target_entropy is not None and not math.isfinite(self.target_entropy):
            raise ValueError("target entropy must be finite")
        if not 0 < self.init_temperature < math.inf:
            raise ValueError("initial temperature must be positive and finite")


def config_hash(config: SacConfig) -> str:
    """Stable digest of the full configuration, for checkpoint compatibility."""
    payload = json.dumps(dataclasses.asdict(config), sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class ReplayBuffer:
    """Fixed-capacity ring of transitions with uniform sampling."""

    def __init__(self, capacity: int, obs_dim: int, act_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._obs = np.zeros((capacity, obs_dim))
        self._act = np.zeros((capacity, act_dim))
        self._reward = np.zeros(capacity)
        self._next_obs = np.zeros((capacity, obs_dim))
        self._done = np.zeros(capacity)
        self._size = 0
        self._pos = 0

    def __len__(self) -> int:
        return self._size

    def add(self, obs, act, reward: float, next_obs, done: bool) -> None:
        i = self._pos
        self._obs[i] = obs
        self._act[i] = act
        self._reward[i] = reward
        self._next_obs[i] = next_obs
        self._done[i] = float(done)
        self._pos = (i + 1) % self.capacity
        self._size = min(self._size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator) -> dict[str, np.ndarray]:
        """Uniform sample without replacement within the batch."""
        if batch_size > self._size:
            raise ValueError(f"cannot sample {batch_size} from {self._size} transitions")
        idx = rng.choice(self._size, size=batch_size, replace=False)
        # integer-array indexing returns copies
        return {
            "obs": self._obs[idx],
            "act": self._act[idx],
            "reward": self._reward[idx],
            "next_obs": self._next_obs[idx],
            "done": self._done[idx],
        }


def polyak_update(source_params, target_params, rho: float) -> None:
    """target <- rho * source + (1 - rho) * target, element-wise in place."""
    for src, tgt in zip(source_params, target_params, strict=True):
        tgt *= 1.0 - rho
        tgt += rho * src


class DivergenceError(RuntimeError):
    """A loss or temperature went non-finite during an update."""

    def __init__(self, message: str, metrics: dict | None = None):
        super().__init__(message)
        self.metrics = metrics or {}


class SacAgent:
    """Policy, critic ensemble, target networks, optimizers, and temperature."""

    def __init__(self, obs_dim: int, act_dim: int, config: SacConfig | None = None, seed: int = 0):
        self.config = config or SacConfig()
        self.obs_dim = int(obs_dim)
        self.act_dim = int(act_dim)
        cfg = self.config
        init_rng = named_stream(seed, "agent-init")
        self.policy = GaussianPolicy(init_rng, obs_dim, act_dim, cfg.hidden)
        self.critics = [
            QuantileCritic(init_rng, obs_dim, act_dim, cfg.hidden, cfg.n_quantiles, cfg.dropout)
            for _ in range(cfg.n_critics)
        ]
        self.target_critics = copy.deepcopy(self.critics)
        self.policy_opt = Adam(self.policy.params(), cfg.learning_rate)
        self.critic_opts = [Adam(c.params(), cfg.learning_rate) for c in self.critics]
        self.auto_temperature = cfg.temperature is None
        self.log_alpha = np.array([np.log(cfg.init_temperature)])
        self.alpha_opt = Adam([self.log_alpha], cfg.learning_rate) if self.auto_temperature else None
        self.target_entropy = (
            cfg.target_entropy if cfg.target_entropy is not None else -float(act_dim)
        )
        self._rng = named_stream(seed, "agent")
        self.updates_done = 0

    # --------------------------------------------------------------- acting

    @property
    def alpha(self) -> float:
        if self.auto_temperature:
            return float(np.exp(self.log_alpha[0]))
        return float(self.config.temperature)

    def act(self, obs, deterministic: bool = False) -> np.ndarray:
        obs = np.asarray(obs, dtype=float).reshape(1, -1)
        if deterministic:
            return self.policy.deterministic(obs)[0]
        action, _ = self.policy.sample(obs, self._rng)
        return action[0]

    # ------------------------------------------------------------- learning

    def critic_targets(self, batch: dict[str, np.ndarray]) -> np.ndarray:
        """Bootstrap atoms (batch, kept_quantiles); never differentiated."""
        cfg = self.config
        next_obs = batch["next_obs"]
        xi = self._rng.normal(size=(next_obs.shape[0], self.act_dim))
        next_act, next_logp, _ = self.policy.sample_cached(next_obs, xi)
        pooled = np.concatenate(
            [t.forward(next_obs, next_act)[0] for t in self.target_critics], axis=1
        )
        atoms = np.sort(pooled, axis=1)[:, : cfg.kept_quantiles]
        soft_value = atoms - self.alpha * next_logp[:, None]
        scale = cfg.gamma * (1.0 - batch["done"])[:, None]
        return batch["reward"][:, None] + scale * soft_value

    def update(self, batch: dict[str, np.ndarray]) -> dict[str, float]:
        """One gradient step on critics, policy, and temperature; then polyak."""
        cfg = self.config
        obs, act = batch["obs"], batch["act"]
        n = obs.shape[0]

        targets = self.critic_targets(batch)
        critic_loss = 0.0
        for critic, opt in zip(self.critics, self.critic_opts):
            z, cache = critic.forward(obs, act, train=True, rng=self._rng)
            loss, dz = quantile_huber_loss(z, targets)
            *_, grads = critic.backward(dz, cache)
            opt.step(grads)
            critic_loss += loss / cfg.n_critics

        # Policy: maximize pooled critic mean plus entropy bonus. Dropout stays
        # off here; the stochastic regularizer belongs to critic fitting only.
        xi = self._rng.normal(size=(n, self.act_dim))
        new_act, logp, cache = self.policy.sample_cached(obs, xi)
        total_atoms = cfg.n_critics * cfg.n_quantiles
        q_sum = np.zeros(n)
        d_act = np.zeros_like(new_act)
        for critic in self.critics:
            z, z_cache = critic.forward(obs, new_act)
            q_sum += z.sum(axis=1)
            _, da, _ = critic.backward(
                np.full_like(z, -1.0 / (n * total_atoms)), z_cache, params=False
            )
            d_act += da
        q_mean = q_sum / total_atoms
        policy_loss = float(np.mean(self.alpha * logp - q_mean))
        self.policy_opt.step(self.policy.backward(d_act, np.full(n, self.alpha / n), cache))

        entropy = -float(np.mean(logp))
        if self.auto_temperature:
            # d/d(log alpha) of -alpha * (E[log pi] + target): entropy above
            # target pushes alpha down, below target pushes it up.
            residual = float(np.mean(logp)) + self.target_entropy
            self.alpha_opt.step([np.array([-self.alpha * residual])])

        for critic, target in zip(self.critics, self.target_critics):
            polyak_update(critic.params(), target.params(), cfg.polyak)

        self.updates_done += 1
        metrics = {
            "critic_loss": critic_loss,
            "policy_loss": policy_loss,
            "alpha": self.alpha,
            "entropy": entropy,
            "q_mean": float(np.mean(q_mean)),
            "target_mean": float(np.mean(targets)),
        }
        if not all(np.isfinite(v) for v in metrics.values()):
            raise DivergenceError(f"non-finite update metrics: {metrics}", metrics)
        return metrics

    # ----------------------------------------------------------- checkpoints

    def _optimizers(self) -> list[tuple[str, Adam]]:
        """Every optimizer with the prefix of its state arrays in a checkpoint."""
        pairs = [("policy_opt", self.policy_opt)]
        pairs += [(f"critic{c}_opt", opt) for c, opt in enumerate(self.critic_opts)]
        if self.alpha_opt is not None:
            pairs.append(("alpha_opt", self.alpha_opt))
        return pairs

    def _named_arrays(self) -> dict[str, np.ndarray]:
        arrays: dict[str, np.ndarray] = {}

        def put(prefix, items):
            for i, a in enumerate(items):
                arrays[f"{prefix}.{i}"] = a

        put("policy", self.policy.params())
        for c, (critic, target) in enumerate(zip(self.critics, self.target_critics)):
            put(f"critic{c}", critic.params())
            put(f"target{c}", target.params())
        arrays["log_alpha"] = self.log_alpha
        for prefix, opt in self._optimizers():
            put(prefix, opt.state_arrays())
        return arrays

    def save(self, path) -> None:
        """Versioned checkpoint: weights, optimizer state, config, and its hash."""
        meta = {
            "version": CHECKPOINT_VERSION,
            "obs_dim": self.obs_dim,
            "act_dim": self.act_dim,
            "config": dataclasses.asdict(self.config),
            "config_hash": config_hash(self.config),
            "updates_done": self.updates_done,
        }
        arrays = self._named_arrays()
        np.savez(path, meta_json=np.array(json.dumps(meta)), **arrays)

    @classmethod
    def load(cls, path, expected_config: SacConfig | None = None, seed: int = 0) -> "SacAgent":
        """Rebuild an agent from a checkpoint.

        `path` is a file name or an open binary file. If `expected_config`
        is given, its hash must match the one stored in the checkpoint. An
        empty or truncated archive, a checkpoint without its metadata or one
        of its fields, one whose metadata or agent config is not a mapping,
        whose agent config holds a key SacConfig lacks, whose dims are not
        positive ints, updates_done not a non-negative int (bools rejected
        in both) or config_hash not a string, or one whose arrays are not
        exactly the agent's, raises ValueError naming what is missing or
        unexpected.
        """
        if isinstance(path, (str, os.PathLike)):
            # opened here: np.load leaves a file it opened to the garbage
            # collector when the zip directory of a truncated archive fails
            with open(path, "rb") as file:
                return cls.load(file, expected_config, seed)
        name = getattr(path, "name", path)
        try:
            data = np.load(path, allow_pickle=False)
        except (EOFError, zipfile.BadZipFile) as err:
            # EOFError: an empty file; BadZipFile: a truncated archive
            raise ValueError(f"checkpoint {name} is not a complete .npz archive: {err}") from err
        if not isinstance(data, np.lib.npyio.NpzFile):
            raise ValueError(f"checkpoint {name} holds a single array, not an .npz archive")
        with data:
            if "meta_json" not in data.files:
                raise ValueError("checkpoint has no meta_json record")
            meta = json.loads(str(data["meta_json"][()]))
            if not isinstance(meta, dict):
                raise ValueError(f"checkpoint metadata is a {type(meta).__name__}, "
                                 "not a mapping")
            if meta.get("version") != CHECKPOINT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {meta.get('version')!r}; "
                    f"this build reads version {CHECKPOINT_VERSION}"
                )
            absent = sorted(_META_FIELDS - meta.keys())
            if absent:
                raise ValueError(f"checkpoint metadata lacks {absent}")
            for field_name, least in (("obs_dim", 1), ("act_dim", 1), ("updates_done", 0)):
                value = meta[field_name]
                if isinstance(value, bool) or not isinstance(value, int) or value < least:
                    raise ValueError(f"checkpoint {field_name} must be an int of at least "
                                     f"{least}, got {value!r}")
            if not isinstance(meta["config_hash"], str):
                raise ValueError(f"checkpoint config_hash must be a string, "
                                 f"got {meta['config_hash']!r}")
            stored = meta["config"]
            if not isinstance(stored, dict):
                raise ValueError(f"checkpoint agent config is a {type(stored).__name__}, "
                                 "not a mapping")
            unknown = sorted(stored.keys() - {f.name for f in dataclasses.fields(SacConfig)})
            if unknown:
                raise ValueError(f"checkpoint agent config has keys SacConfig lacks: {unknown}")
            stored = SacConfig(**stored)
            if expected_config is not None and config_hash(expected_config) != meta["config_hash"]:
                raise ValueError(
                    "checkpoint was written with a different configuration "
                    f"(stored hash {meta['config_hash'][:12]}..., expected "
                    f"{config_hash(expected_config)[:12]}...)"
                )
            agent = cls(meta["obs_dim"], meta["act_dim"], stored, seed=seed)
            agent.updates_done = meta["updates_done"]
            arrays = agent._named_arrays()
            missing = sorted(arrays.keys() - set(data.files))
            unexpected = sorted(set(data.files) - arrays.keys() - {"meta_json"})
            if missing or unexpected:
                raise ValueError(
                    "checkpoint arrays do not match the agent: "
                    f"missing {missing or 'none'}, unexpected {unexpected or 'none'}"
                )
            for name, dst in arrays.items():
                src = data[name]
                if src.shape != dst.shape:
                    raise ValueError(f"checkpoint array {name} has shape {src.shape}, "
                                     f"expected {dst.shape}")
                dst[...] = src
            # optimizer step counters live inside the state arrays
            for prefix, opt in agent._optimizers():
                opt.load_state_arrays(
                    [arrays[f"{prefix}.{i}"] for i in range(2 * len(opt.params) + 1)]
                )
        return agent


# ------------------------------------------------------------------ training


@dataclass
class TrainResult:
    episodes: list[dict] = field(default_factory=list)
    evals: list[dict] = field(default_factory=list)


def play_policy(env, agent: SacAgent, seed: int | None = None) -> tuple[float, dict]:
    """One deterministic-policy episode from env.reset(seed): (return, terminal info)."""
    obs = env.reset(seed)
    total = 0.0
    info: dict = {}
    done = False
    while not done:
        result = env.step(agent.act(obs, deterministic=True))
        obs, done, info = result.observation, result.done, result.info
        total += result.reward
    return total, info


def evaluate_policy(env, agent: SacAgent, n_episodes: int) -> dict[str, float]:
    """Deterministic-policy episodes on the env's continuing noise stream.

    As in train_loop, an episode whose terminal tomography reconstruction
    degenerates is dropped and played again on the stream's next draws, and
    more than MAX_ANCHOR_RETRIES in a row re-raise; `eval_anchor_retries`
    counts the dropped episodes. n_episodes must be at least 1.
    """
    if n_episodes < 1:
        raise ValueError(f"n_episodes must be at least 1, got {n_episodes}")
    returns, nlifs, leaks = [], [], []
    retries = consecutive_retries = 0
    while len(returns) < n_episodes:
        try:
            total, info = play_policy(env, agent)
        except DegenerateAnchorError:
            retries += 1
            consecutive_retries += 1
            if consecutive_retries > MAX_ANCHOR_RETRIES:
                raise
            continue
        consecutive_retries = 0
        returns.append(total)
        nlifs.append(info.get("nlif", np.nan))
        leaks.append(info.get("leakage", np.nan))
    return {
        "mean_return": float(np.mean(returns)),
        "max_return": float(np.max(returns)),
        "mean_nlif": float(np.mean(nlifs)),
        "mean_leakage": float(np.mean(leaks)),
        "eval_anchor_retries": retries,
    }


def train_loop(
    env,
    agent: SacAgent,
    n_episodes: int,
    seed: int = 0,
    *,
    eval_every: int = 0,
    n_eval_episodes: int = 4,
    diagnostic_path=None,
    on_episode=None,
) -> TrainResult:
    """Train `agent` on `env` for `n_episodes` episodes.

    One environment step feeds the replay buffer; after the warmup period each
    step also triggers `updates_per_step` gradient updates. Episodes whose
    terminal tomography reconstruction degenerates are dropped and retried
    with fresh noise (they never enter the replay buffer); more than
    MAX_ANCHOR_RETRIES in a row re-raise. A non-finite loss aborts training,
    saving a diagnostic checkpoint first if a path is given.
    `on_episode` receives each episode record as it is produced. Periodic
    evaluations run on a copy of `env` with its own seed, so evaluating leaves
    the training episodes unchanged. Each record's `update_ms` is the wall time, in ms, spent in
    `agent.update` during that episode (0 while warming up), and its
    `anchor_retries` the number of attempts dropped for a degenerate anchor
    before that episode landed.
    eval_every = 0 turns periodic evaluation off; a positive period needs
    n_eval_episodes >= 1, and both are checked before anything runs.
    """
    if eval_every < 0:
        raise ValueError(f"eval_every must be >= 0 (0 turns evaluation off), got {eval_every}")
    if eval_every and n_eval_episodes < 1:
        raise ValueError(f"periodic evaluation needs n_eval_episodes >= 1, got {n_eval_episodes}")
    cfg = agent.config
    replay = ReplayBuffer(cfg.replay_capacity, agent.obs_dim, agent.act_dim)
    warmup_rng = named_stream(seed, "warmup")
    replay_rng = named_stream(seed, "replay")
    result = TrainResult()
    global_step = 0
    consecutive_retries = 0
    if eval_every:
        eval_env = copy.deepcopy(env)
        eval_env.reset(int(named_stream(seed, "eval").integers(2**63)))

    obs = env.reset(seed)
    episode = 0
    while episode < n_episodes:
        transitions = []
        update_metrics: list[dict] = []
        update_ms = 0.0
        total = 0.0
        info: dict = {}
        done = False
        try:
            while not done:
                if global_step < cfg.warmup_steps:
                    action = warmup_rng.uniform(-1.0, 1.0, size=agent.act_dim)
                else:
                    action = agent.act(obs)
                step = env.step(action)
                transitions.append((obs, action, step.reward, step.observation, step.done))
                obs, done, info = step.observation, step.done, step.info
                total += step.reward
                global_step += 1
                if global_step > cfg.warmup_steps and len(replay) >= cfg.batch_size:
                    for _ in range(cfg.updates_per_step):
                        batch = replay.sample(cfg.batch_size, replay_rng)
                        t_update = time.perf_counter()
                        try:
                            update_metrics.append(agent.update(batch))
                        except DivergenceError as err:
                            if diagnostic_path is not None:
                                agent.save(diagnostic_path)
                            raise DivergenceError(
                                f"training diverged at step {global_step} "
                                f"(episode {episode}): {err}",
                                err.metrics,
                            ) from err
                        update_ms += (time.perf_counter() - t_update) * 1e3
        except DegenerateAnchorError:
            consecutive_retries += 1
            if consecutive_retries > MAX_ANCHOR_RETRIES:
                raise
            obs = env.reset()
            continue
        for obs_t, act_t, rew_t, next_t, done_t in transitions:
            replay.add(obs_t, act_t, rew_t, next_t, done_t)

        record = {
            "episode": episode,
            "env_steps": global_step,
            "return": total,
            "nlif": float(info.get("nlif", np.nan)),
            "leakage": float(info.get("leakage", np.nan)),
            "alpha": agent.alpha,
            "entropy": _mean_of(update_metrics, "entropy"),
            "critic_loss": _mean_of(update_metrics, "critic_loss"),
            "policy_loss": _mean_of(update_metrics, "policy_loss"),
            "update_ms": update_ms,
            "anchor_retries": consecutive_retries,
        }
        consecutive_retries = 0
        result.episodes.append(record)
        if on_episode is not None:
            on_episode(record)
        episode += 1
        if eval_every and episode % eval_every == 0:
            entry = evaluate_policy(eval_env, agent, n_eval_episodes)
            entry["episode"] = episode
            result.evals.append(entry)
        obs = env.reset()
    return result


def _mean_of(records: list[dict], key: str) -> float:
    if not records:
        return float("nan")
    return float(np.mean([r[key] for r in records]))
