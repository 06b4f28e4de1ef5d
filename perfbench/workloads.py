"""The qdrl benchmark workloads: single-process closed loops with one client.

Each workload builds its objects the way ``qdrl train`` and ``qdrl evaluate``
do: ``config_from_dict`` -> ``ExperimentConfig.make_env`` / ``make_agent``.
The workload seed picks only the generated inputs (env, agent and loop seeds,
perturbed action tables, reset seeds); the configs, and so their experiment
hashes, never depend on it. An op is the unit whose latency is reported.

The host's speed drifts by tens of percent over seconds to minutes on a shared
machine, so each op's wall time is also divided by the time of a fixed
pure-Python loop (`reference_ms`) run just before and just after it: the op's
cost in reference units, which that drift moves far less than the time.

eval_sparse  op: one deterministic-policy episode (evaluate_policy) on the
             default 500-substep CNOT grid, Gaussian kernel, full noise.
             Exercises the per-step path: rlenv, qcore, pulse.convolve and
             rlagent.act. Bypasses tomography and rlagent.update.
tomo_reward  op: one noisy tomo_snapshot episode at 512 snapshots, exactly one
             Monte Carlo chunk. Exercises qcore.step_propagator (batched
             eigh), noise draws and tomography. Bypasses pulse (delta kernel)
             and rlagent.
train_sac    op: one post-warmup train_loop step with its SAC/TQC update.
             Exercises rlagent.update and replay sampling. Leaves tomography
             unused and qcore, pulse and noise under 1% of op time.
"""
from __future__ import annotations

import hashlib
import io
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from qdrl.harness import (
    config_from_dict,
    experiment_hash,
    protocol_to_actions,
    read_protocol,
    simulate_protocol,
)
from qdrl.rlagent import DivergenceError, SacAgent, evaluate_policy, train_loop
from qdrl.seeding import named_stream
from qdrl.tomography import DegenerateAnchorError

from tracing import Tracer

ROOT = Path(__file__).resolve().parents[1]
PROTOCOL = ROOT / "tests" / "data" / "cnot_protocol.tsv"

_FAILURES = (DegenerateAnchorError, DivergenceError)


REFERENCE_ITERATIONS = 40_000


def reference_ms() -> float:
    """Wall time of a fixed pure-Python loop (a few ms), the unit of op cost."""
    t = time.perf_counter()
    total = 0
    for i in range(REFERENCE_ITERATIONS):
        total += i * i
    return (time.perf_counter() - t) * 1e3


class Clock:
    """Ends a pass after `ops` ops or `seconds` of wall time, whichever comes first."""

    def __init__(self, seconds: float | None = None, ops: int | None = None):
        self.seconds = seconds
        self.ops = ops
        self.t0 = 0.0

    def start(self) -> float:
        self.t0 = time.perf_counter()
        return self.t0

    def more(self, done: int) -> bool:
        if self.ops is not None and done >= self.ops:
            return False
        return self.seconds is None or time.perf_counter() - self.t0 < self.seconds


@dataclass
class Pass:
    """What one build-and-run of a workload produced."""

    config_hash: str
    inputs_digest: str
    nlif_cap: float
    harness_ms: dict[str, float] = field(default_factory=dict)
    setup_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    op_cost: list[float] = field(default_factory=list)  # op_ms / adjacent reference_ms
    ref_ms: list[float] = field(default_factory=list)
    outputs: list[float] = field(default_factory=list)
    attempted: int = 0
    failed_ops: set[int] = field(default_factory=set)
    problems: list[str] = field(default_factory=list)  # failed output checks
    errors: list[str] = field(default_factory=list)  # ops that raised
    elapsed_s: float = 0.0  # summed op time, without the reference loops
    agent: SacAgent | None = None

    def output(self, op: int, reward: float, nlif: float) -> None:
        """Record an op's reward and NLIF; both must be finite and in [0, nlif_cap]."""
        self.outputs += [reward, nlif]
        bad = [f"{name} {value!r}" for name, value in (("reward", reward), ("nlif", nlif))
               if not (np.isfinite(value) and 0.0 <= value <= self.nlif_cap)]
        if bad:
            self.fail(op, f"{', '.join(bad)} outside [0, {self.nlif_cap}]")

    def timed(self, op_ms: float, ref_before: float, ref_after: float) -> None:
        """Record a completed op's wall time and its cost in reference units."""
        self.op_ms.append(op_ms)
        self.op_cost.append(op_ms / ((ref_before + ref_after) / 2))
        self.ref_ms.append(ref_after)

    def fail(self, op: int, message: str, check: bool = True) -> None:
        """Count op as failed: by a failed output check, or else by raising."""
        (self.problems if check else self.errors).append(f"op {op}: {message}")
        self.failed_ops.add(op)

    @property
    def failed(self) -> int:
        return len(self.failed_ops)

    @property
    def digest(self) -> str:
        return hashlib.sha256(np.asarray(self.outputs, dtype=float).tobytes()).hexdigest()


def _digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        h.update(np.asarray(v, dtype=float).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    config: dict = {}
    tiny: dict = {}  # per-section overrides that shrink the workload for the self-test

    def raw_config(self, tiny: bool = False) -> dict:
        if not tiny:
            return self.config
        return {
            **self.config,
            **{k: {**self.config.get(k, {}), **v} for k, v in self.tiny.items()},
        }

    def config_hash(self, tiny: bool = False) -> str:
        return experiment_hash(config_from_dict(self.raw_config(tiny)).resolved)

    def run_pass(self, seed: int, clock: Clock, tracer: Tracer | None = None,
                 tiny: bool = False) -> Pass:
        raise NotImplementedError

    def check(self, run: Pass) -> list[str]:
        """Output checks that need the whole pass; empty when all hold."""
        return []


def _timed(harness_ms: dict, name: str, fn, *args):
    t = time.perf_counter()
    out = fn(*args)
    harness_ms[name] = (time.perf_counter() - t) * 1e3
    return out


def _closed_loop(run: Pass, clock: Clock, tracer: Tracer, op) -> None:
    """Run op(i) -> (reward, nlif) until the clock says stop, a reference loop between ops."""
    clock.start()
    ref = reference_ms()
    while clock.more(run.attempted):
        i = run.attempted
        run.attempted += 1
        tracer.op = i
        t = time.perf_counter()
        try:
            reward, nlif = op(i)
        except _FAILURES as err:
            run.fail(i, f"{type(err).__name__}: {err}", check=False)
            continue
        finally:
            op_s = time.perf_counter() - t
            run.elapsed_s += op_s
            tracer.op = None
        ref_before, ref = ref, reference_ms()
        run.timed(op_s * 1e3, ref_before, ref)
        run.output(i, reward, nlif)


class EvalSparse(Workload):
    name = "eval_sparse"
    config = {
        "schema_version": 1,
        "kernel": {"type": "gaussian", "mean_delay": 2.15, "stddev": 0.5},
        "noise": {"enabled": True},
    }
    tiny = {"env": {"protocol_time": 6.0, "n_segments": 6, "oversample": 2},
            "agent": {"hidden": [16, 16]}}

    def run_pass(self, seed, clock, tracer=None, tiny=False):
        tracer = tracer or Tracer()
        t0 = time.perf_counter()
        harness_ms: dict = {}
        cfg = _timed(harness_ms, "config_from_dict", config_from_dict, self.raw_config(tiny))
        env_seed, agent_seed = (int(s) for s in
                                named_stream(seed, self.name).integers(0, 2**31, 2))
        env = _timed(harness_ms, "make_env", cfg.make_env, env_seed)
        agent = _timed(harness_ms, "make_agent", cfg.make_agent, env, agent_seed)
        run = Pass(cfg.hash, _digest(env_seed, agent_seed), cfg.env.nlif_cap, harness_ms)
        run.setup_s = time.perf_counter() - t0

        def op(i):
            scores = evaluate_policy(env, agent, 1)
            return scores["mean_return"], scores["mean_nlif"]

        _closed_loop(run, clock, tracer, op)
        return run


class TomoReward(Workload):
    name = "tomo_reward"
    config = {
        "schema_version": 1,
        "env": {"protocol_time": 24.0, "n_segments": 24, "observation_mode": "u_exact",
                "reward_mode": "tomo_snapshot", "n_snapshots": 512},
        "noise": {"enabled": True},
    }
    tiny = {"env": {"oversample": 1, "n_snapshots": 64}}
    # perturbation of the known-good table, in normalized action units: small
    # enough that the tomography anchors stay well conditioned, as late in training
    perturbation = 0.05
    pool = 64  # distinct generated ops; a longer run cycles through them

    def run_pass(self, seed, clock, tracer=None, tiny=False):
        tracer = tracer or Tracer()
        t0 = time.perf_counter()
        harness_ms: dict = {"make_agent": 0.0}
        cfg = _timed(harness_ms, "config_from_dict", config_from_dict, self.raw_config(tiny))
        rng = named_stream(seed, self.name)
        env = _timed(harness_ms, "make_env", cfg.make_env, int(rng.integers(0, 2**31)))
        base = protocol_to_actions(read_protocol(PROTOCOL)[0], cfg)
        tables = np.clip(base + self.perturbation * rng.normal(size=(self.pool,) + base.shape),
                         -1.0, 1.0)
        resets = [int(s) for s in rng.integers(0, 2**31, self.pool)]
        run = Pass(cfg.hash, _digest(tables, resets), cfg.env.nlif_cap, harness_ms)
        run.setup_s = time.perf_counter() - t0

        def op(i):
            result = env.rollout(tables[i % self.pool], seed=resets[i % self.pool])
            return result.reward, result.info["nlif"]

        _closed_loop(run, clock, tracer, op)
        return run

    def check(self, run):
        # always on the full-size grid the table was written for
        table, meta = read_protocol(PROTOCOL)
        replayed = simulate_protocol(config_from_dict(self.config), table)
        if abs(replayed - meta["terminal_nlif"]) > 1e-9:
            return [f"noise-free replay of {PROTOCOL.name}: NLIF {replayed!r}, "
                    f"header says {meta['terminal_nlif']!r}"]
        return []


class _Stop(Exception):
    """Raised from the env proxy to end train_loop when the clock runs out."""


class _TimedEnv:
    """Env proxy: marks op boundaries at each step call and records outputs."""

    def __init__(self, env, on_step, on_result):
        self._env = env
        self._on_step = on_step
        self._on_result = on_result

    def __getattr__(self, name):
        return getattr(self._env, name)

    def step(self, action):
        self._on_step()
        result = self._env.step(action)
        self._on_result(result)
        return result


class _CheckedAgent:
    """Agent proxy: every update's metrics must be finite."""

    def __init__(self, agent, on_update):
        self._agent = agent
        self._on_update = on_update

    def __getattr__(self, name):
        return getattr(self._agent, name)

    def update(self, batch):
        metrics = self._agent.update(batch)
        self._on_update(metrics)
        return metrics


class TrainSac(Workload):
    name = "train_sac"
    config = {
        "schema_version": 1,
        "env": {"protocol_time": 24.0, "n_segments": 24, "observation_mode": "u_exact",
                "reward_mode": "sparse"},
        "noise": {"enabled": True},
    }
    tiny = {"env": {"protocol_time": 6.0, "n_segments": 6, "oversample": 2},
            "agent": {"hidden": [16, 16], "batch_size": 8, "warmup_steps": 16}}

    def run_pass(self, seed, clock, tracer=None, tiny=False):
        tracer = tracer or Tracer()
        t0 = time.perf_counter()
        harness_ms: dict = {}
        cfg = _timed(harness_ms, "config_from_dict", config_from_dict, self.raw_config(tiny))
        seeds = [int(s) for s in named_stream(seed, self.name).integers(0, 2**31, 3)]
        env_seed, agent_seed, loop_seed = seeds
        env = _timed(harness_ms, "make_env", cfg.make_env, env_seed)
        agent = _timed(harness_ms, "make_agent", cfg.make_agent, env, agent_seed)
        run = Pass(cfg.hash, _digest(seeds), cfg.env.nlif_cap, harness_ms, agent=agent)
        warmup = cfg.agent.warmup_steps
        steps = 0
        t_op = 0.0
        ref = 0.0

        # an op runs from one post-warmup step call to the next, so it holds
        # the step, its update and the next act; the reference loop runs
        # between the end of one op and the start of the next
        def on_step():
            nonlocal steps, t_op, ref
            now = time.perf_counter()
            tracer.op = None
            if steps > warmup:
                run.elapsed_s += now - t_op
                ref_before, ref = ref, reference_ms()
                run.timed((now - t_op) * 1e3, ref_before, ref)
            if steps == warmup:
                run.setup_s = now - t0
                clock.start()
                ref = reference_ms()
            if steps >= warmup:
                if not clock.more(run.attempted):
                    raise _Stop
                tracer.op = run.attempted
                run.attempted += 1
                t_op = time.perf_counter()
            steps += 1

        def on_result(result):
            if tracer.op is not None:
                run.output(tracer.op, result.reward, result.info["nlif"])

        def on_update(metrics):
            bad = {k: v for k, v in metrics.items() if not np.isfinite(v)}
            if bad:
                run.fail(tracer.op, f"non-finite update metrics {bad}")

        try:
            train_loop(_TimedEnv(env, on_step, on_result), _CheckedAgent(agent, on_update),
                       n_episodes=2**62, seed=loop_seed)
        except _Stop:
            pass
        except DivergenceError as err:
            run.fail(tracer.op, f"DivergenceError: {err}", check=False)
        tracer.op = None
        return run

    def check(self, run):
        agent = run.agent
        buf = io.BytesIO()
        agent.save(buf)
        buf.seek(0)
        loaded = SacAgent.load(buf, expected_config=agent.config)
        nets = lambda a: [a.policy, *a.critics, *a.target_critics]  # noqa: E731
        same = loaded.updates_done == agent.updates_done and all(
            np.array_equal(x, y)
            for src, dst in zip(nets(agent), nets(loaded))
            for x, y in zip(src.params(), dst.params(), strict=True)
        )
        obs = np.linspace(-1.0, 1.0, agent.obs_dim)
        same = same and np.array_equal(agent.act(obs, deterministic=True),
                                       loaded.act(obs, deterministic=True))
        return [] if same else ["agent does not round-trip through SacAgent.save / load"]


WORKLOADS = {w.name: w for w in (EvalSparse(), TomoReward(), TrainSac())}
