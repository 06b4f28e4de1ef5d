"""qdrl benchmark: run one workload, untraced or traced, and check its outputs.

    python3 perfbench/run.py --workload eval_sparse --seed 1 --seconds 20 --trace 0

Run it from the repository root; it imports qdrl from ./src and reads the
reference protocol from ./tests/data. Workloads are in `workloads.py`.

--trace 0 sets the workload up SETUP_REPEATS times, times ops for --seconds
with tracing off, and reports the end-to-end metrics. Op latency is gated as
op_cost.p50, the median op time in units of a fixed pure-Python loop timed
next to each op (see workloads.py), because the wall time of the same op
drifts with the host's speed; the wall-clock op times and throughput are
printed in the report lines. --trace 1 runs an
untraced pass for half of --seconds and then a traced pass over the same ops,
requires both to give bit-identical per-op outputs, and reports the
per-layer metrics together with the tracing overhead.

Standard output holds the run manifest (one JSON line), a readable report
with one metric per line, and, as its last line, one JSON object with the
keys correct, attempted, failed and metrics. The exit code is 0 whenever a
result was printed, also when a check failed.
"""
import time

_START = time.perf_counter()  # process start, as far as setup_s is concerned

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SETUP_REPEATS = 5
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = {"setup_s": "s", "op_cost.p50": "ref", "peak_rss_mb": "MB"}
HARNESS_CALLS = ("config_from_dict", "make_env", "make_agent")


def cap_blas_threads() -> int:
    """Limit BLAS threads to the usable cores; call before numpy is imported."""
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        value = os.environ.get(var, "")
        if not value.isdigit() or not 1 <= int(value) <= cores:
            os.environ[var] = str(cores)
    return cores


def use_checkout_sources() -> None:
    """Import qdrl from this checkout's src/, or fail when it is not there."""
    src = ROOT / "src"
    if not (src / "qdrl" / "__init__.py").is_file():
        raise SystemExit(f"error: no qdrl sources under {src}; run from a full checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


def _git_revision() -> dict:
    if not (ROOT / ".git").exists():
        return {"revision": None, "dirty": None}
    try:
        rev = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=60, check=True)
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=60, check=True)
    except (OSError, subprocess.SubprocessError):
        return {"revision": None, "dirty": None}
    return {"revision": rev.stdout.strip(), "dirty": bool(status.stdout.strip())}


def manifest(seed: int, workloads, tiny: bool) -> dict:
    import numpy as np

    import qdrl

    build = np.show_config(mode="dicts")["Build Dependencies"]
    return {
        "qdrl_version": qdrl.__version__,
        "git": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": build.get("blas"),
        "usable_cores": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "workload_seed": seed,
        "experiment_hash": {name: w.config_hash(tiny) for name, w in workloads.items()},
    }


def _p90(values):
    """The 90th percentile when at least ten samples lie beyond it, else None."""
    import numpy as np

    p90 = float(np.percentile(values, 90))
    return p90 if sum(v > p90 for v in values) >= 10 else None


def _untraced(workload, args, import_s):
    from workloads import Clock

    setups = [workload.run_pass(args.seed, Clock(ops=0), tiny=args.tiny).setup_s
              for _ in range(SETUP_REPEATS - 1)]
    run = workload.run_pass(args.seed, Clock(seconds=args.seconds), tiny=args.tiny)
    setups.append(run.setup_s)
    problems = run.problems + workload.check(run)
    done = len(run.op_ms)
    metrics = {
        "setup_s": import_s + statistics.median(setups),
        "op_cost.p50": statistics.median(run.op_cost) if done else 0.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    extra = {
        "ops_per_s": (done / run.elapsed_s if run.elapsed_s > 0 else None, "1/s"),
        "op_ms.min": (min(run.op_ms) if done else None, "ms"),
        "op_ms.p50": (statistics.median(run.op_ms) if done else None, "ms"),
        "op_ms.p90": (_p90(run.op_ms) if done else None, "ms"),
        "reference_ms.p50": (statistics.median(run.ref_ms) if done else None, "ms"),
        "fail_ratio": (run.failed / run.attempted if run.attempted else None, "ratio"),
        "ops": (done, "count"),
    }
    return run, problems, {k: (v, END_TO_END[k]) for k, v in metrics.items()}, extra


def _traced(workload, args):
    from tracing import LAYER_METRICS, Tracer, layer_metrics
    from workloads import Clock

    plain = workload.run_pass(args.seed, Clock(seconds=args.seconds / 2), tiny=args.tiny)
    tracer = Tracer()
    with tracer.installed():
        run = workload.run_pass(args.seed, Clock(ops=plain.attempted), tracer, tiny=args.tiny)
    problems = run.problems + workload.check(run)
    if (run.digest, run.attempted) != (plain.digest, plain.attempted):
        problems.append(f"traced outputs differ from untraced: digest {run.digest[:16]} "
                        f"vs {plain.digest[:16]} over {run.attempted} vs {plain.attempted} ops")
    values = layer_metrics(tracer, run.attempted)
    metrics = {k: (values[k], unit) for k, unit in LAYER_METRICS.items()}
    for call in HARNESS_CALLS:
        ms = statistics.median([plain.harness_ms[call], run.harness_ms[call]])
        metrics[f"harness.{call}.ms"] = (ms, "ms")
    p50 = [statistics.median(p.op_ms) if p.op_ms else 0.0 for p in (plain, run)]
    metrics["trace.overhead_ms"] = (p50[1] - p50[0], "ms")
    extra = {
        "op_ms.p50.untraced": (p50[0], "ms"),
        "op_ms.p50.traced": (p50[1], "ms"),
        "spans": (len(tracer.names), "count"),
        "outputs_digest": (run.digest, "sha256"),
    }
    return run, problems, metrics, extra


def main(argv=None, start: float = _START) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to milliseconds per op (for the self-test)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    use_checkout_sources()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    import_s = time.perf_counter() - start
    workload = WORKLOADS[args.workload]
    print(json.dumps({"manifest": manifest(args.seed, WORKLOADS, args.tiny)}), flush=True)

    if args.trace:
        run, problems, metrics, extra = _traced(workload, args)
    else:
        run, problems, metrics, extra = _untraced(workload, args, import_s)

    for name, (value, unit) in {**metrics, **extra}.items():
        shown = "n/a (too few samples)" if value is None else value
        print(f"{args.workload} {name} = {shown} {unit}")
    for error in run.errors:
        print(f"{args.workload} OP FAILED: {error}")
    for problem in problems:
        print(f"{args.workload} CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    cap_blas_threads()
    sys.exit(main())
