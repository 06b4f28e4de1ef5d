"""Spans around calls into qdrl's layers, recorded from the benchmark's side.

`Tracer.installed()` replaces each function in `TRACED` where its caller looks
it up (a module global such as ``qdrl.rlenv.step_propagator``, or a method on
its class) by a wrapper that records one span: name, start, end, parent span
and op id. Every original is restored on exit. Spans stay in memory until the
run ends; `layer_metrics` then turns them into per-op counts and self times.

A span's self time is its duration minus the part of its interval covered by
its child spans. Everything runs in one thread with no queue between layers,
so no layer waits on another and there are no wait metrics.
"""
from __future__ import annotations

import collections
import contextlib
import functools
import importlib
import time

import numpy as np


def _matrices(state, args, out, seconds):
    return {"matrices": out.size // (out.shape[-1] * out.shape[-2])}


def _convolve(state, args, out, seconds):
    # a prefix longer than the previous one adds only its new rows; a shorter
    # one starts a new episode
    n = out.n_substeps
    last = state.get("convolve_len", 0)
    state["convolve_len"] = n
    return {"samples": n, "fresh": n - last if n >= last else n}


def _shots(state, args, out, seconds):
    return {"shots": len(args[0])}


def _terminal(state, args, out, seconds):
    return {"terminal": 1, "terminal_ms": seconds * 1e3} if out.done else {}


# (span name, where the caller looks the function up, counter or None)
TRACED = [
    ("qcore.step_propagator", "qdrl.rlenv:step_propagator", _matrices),
    ("qcore.sector_hamiltonian", "qdrl.rlenv:sector_hamiltonian", None),
    ("qcore.nlif", "qdrl.rlenv:nlif", None),
    ("pulse.convolve", "qdrl.rlenv:convolve", _convolve),
    ("noise.sample_realization", "qdrl.rlenv:sample_realization", None),
    ("noise.sample_fast_trace", "qdrl.noise:sample_fast_trace", None),
    ("tomography.sample_snapshots_batch", "qdrl.tomography:sample_snapshots_batch", _shots),
    ("tomography.reconstruct_unitary", "qdrl.tomography:reconstruct_unitary", None),
    ("rlenv.step", "qdrl.rlenv:GateSynthesisEnv.step", _terminal),
    ("rlenv.reset", "qdrl.rlenv:GateSynthesisEnv.reset", None),
    ("rlagent.act", "qdrl.rlagent.sac:SacAgent.act", None),
    ("rlagent.update", "qdrl.rlagent.sac:SacAgent.update", None),
    ("rlagent.replay_sample", "qdrl.rlagent.sac:ReplayBuffer.sample", None),
]


def _owner(where: str):
    module, _, path = where.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; set `op` to the current op id (None outside ops)."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.ops: list[int | None] = []
        self.counters: collections.Counter = collections.Counter()
        self.op: int | None = None
        self._stack: list[int] = []
        self._state: dict = {}

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.starts)
            self.names.append(name)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ops.append(self.op)
            self.ends.append(np.nan)
            self._stack.append(i)
            self.starts.append(time.perf_counter())
            try:
                out = fn(*args, **kwargs)
            except Exception as err:
                if self.op is not None:
                    self.counters[f"{name}.{type(err).__name__}"] += 1
                raise
            finally:
                self.ends[i] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                counts = count(self._state, args, out, self.ends[i] - self.starts[i])
                if self.op is not None:
                    for key, value in counts.items():
                        self.counters[f"{name}.{key}"] += value
            return out

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for name, where, count in TRACED:
                owner, attr = _owner(where)
                original = vars(owner)[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals within it."""
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for i, parent in enumerate(parents):
        if parent >= 0:
            children[parent].append((starts[i], ends[i]))
    out = np.asarray(ends, dtype=float) - np.asarray(starts, dtype=float)
    for parent, intervals in children.items():
        lo, hi = starts[parent], ends[parent]
        covered, reach = 0.0, lo
        for a, b in sorted(intervals):
            a, b = max(a, reach), min(b, hi)
            if b > a:
                covered += b - a
                reach = b
        out[parent] -= covered
    return out


# metric name -> unit; the per-layer metrics of a traced run
LAYER_METRICS = {
    "qcore.step_propagator.calls": "1/op",
    "qcore.step_propagator.matrices": "1/op",
    "qcore.step_propagator.self_ms": "ms/op",
    "qcore.sector_hamiltonian.self_ms": "ms/op",
    "qcore.nlif.self_ms": "ms/op",
    "pulse.convolve.calls": "1/op",
    "pulse.convolve.samples": "1/op",
    "pulse.convolve.self_ms": "ms/op",
    "pulse.convolve.fresh_ratio": "ratio",
    "noise.sample_realization.calls": "1/op",
    "noise.sample_realization.self_ms": "ms/op",
    "noise.sample_fast_trace.self_ms": "ms/op",
    "tomography.sample_snapshots_batch.shots": "1/op",
    "tomography.sample_snapshots_batch.self_ms": "ms/op",
    "tomography.reconstruct_unitary.calls": "1/op",
    "tomography.reconstruct_unitary.self_ms": "ms/op",
    "tomography.anchor_failures": "count",
    "rlenv.step.calls": "1/op",
    "rlenv.step.self_ms": "ms/op",
    "rlenv.step_terminal.ms": "ms",
    "rlenv.reset.self_ms": "ms/op",
    "rlagent.act.calls": "1/op",
    "rlagent.act.self_ms": "ms/op",
    "rlagent.update.calls": "1/op",
    "rlagent.update.self_ms": "ms/op",
    "rlagent.replay_sample.self_ms": "ms/op",
    "rlagent.divergences": "count",
}


def layer_metrics(tracer: Tracer, n_ops: int) -> dict[str, float]:
    """Per-op calls, counts and self times of the spans recorded inside ops."""
    own = self_times(tracer.starts, tracer.ends, tracer.parents)
    calls: collections.Counter = collections.Counter()
    self_ms: collections.Counter = collections.Counter()
    for name, op, seconds in zip(tracer.names, tracer.ops, own):
        if op is not None:
            calls[name] += 1
            self_ms[name] += seconds * 1e3
    c = tracer.counters
    per_op = 1.0 / max(n_ops, 1)
    out = {}
    for metric in LAYER_METRICS:
        layer, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = calls[layer] * per_op
        elif kind == "self_ms":
            out[metric] = self_ms[layer] * per_op
        elif kind in ("matrices", "samples", "shots"):
            out[metric] = c[metric] * per_op
    convolved = c["pulse.convolve.samples"]
    out["pulse.convolve.fresh_ratio"] = c["pulse.convolve.fresh"] / convolved if convolved else 0.0
    terminal = c["rlenv.step.terminal"]
    out["rlenv.step_terminal.ms"] = c["rlenv.step.terminal_ms"] / terminal if terminal else 0.0
    out["tomography.anchor_failures"] = c["tomography.reconstruct_unitary.DegenerateAnchorError"]
    out["rlagent.divergences"] = c["rlagent.update.DivergenceError"]
    return out
