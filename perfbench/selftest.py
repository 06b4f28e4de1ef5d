"""Fast self-test of the benchmark at tiny sizes.

    python3 perfbench/selftest.py

Checks that every metric named in BENCHMARK.json is printed with its unit,
that self times are right on a hand-built span tree, and that the workload
seed changes the generated inputs but not the config hashes.
"""
import contextlib
import io
import json
import math
import unittest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.3",
                         "--trace", str(trace), "--tiny"])
    if code != 0:
        raise AssertionError(f"{workload} exited with {code}")
    return json.loads(out.getvalue().splitlines()[-1])


class BenchmarkSelfTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.use_checkout_sources()

    def test_every_named_metric_is_printed_with_its_unit(self):
        from workloads import WORKLOADS

        self.assertEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[kind]}
            for name in WORKLOADS:
                with self.subTest(workload=name, trace=trace):
                    result = _result(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {k: v["unit"] for k, v in result["metrics"].items()}
                    self.assertEqual(units, expected)
                    for metric in result["metrics"].values():
                        self.assertTrue(math.isfinite(metric["value"]))

    def test_self_time_on_hand_built_span_tree(self):
        from tracing import Tracer, layer_metrics, self_times

        # root [0, 10] holds a [1, 4] and b [3, 6], which overlap, and d [8, 12],
        # which runs past the root's end; a holds c [2, 3]
        starts = [0.0, 1.0, 3.0, 2.0, 8.0]
        ends = [10.0, 4.0, 6.0, 3.0, 12.0]
        parents = [-1, 0, 0, 1, 0]
        self.assertEqual(list(self_times(starts, ends, parents)), [3.0, 2.0, 3.0, 1.0, 4.0])

        tracer = Tracer()
        tracer.names = ["rlenv.step", "qcore.step_propagator", "rlenv.step", "rlenv.step"]
        tracer.starts = [0.0, 0.001, 0.010, 0.020]
        tracer.ends = [0.004, 0.003, 0.012, 0.030]
        tracer.parents = [-1, 0, -1, -1]
        tracer.ops = [0, 0, 1, None]  # the last span lies outside any op
        metrics = layer_metrics(tracer, n_ops=2)
        self.assertAlmostEqual(metrics["rlenv.step.self_ms"], (2.0 + 2.0) / 2)
        self.assertAlmostEqual(metrics["qcore.step_propagator.self_ms"], 2.0 / 2)
        self.assertEqual(metrics["rlenv.step.calls"], 1.0)

    def test_tracer_restores_what_it_wraps(self):
        import qdrl.rlenv
        from tracing import Tracer

        original = qdrl.rlenv.step_propagator
        step = vars(qdrl.rlenv.GateSynthesisEnv)["step"]
        with Tracer().installed():
            self.assertIsNot(qdrl.rlenv.step_propagator, original)
        self.assertIs(qdrl.rlenv.step_propagator, original)
        self.assertIs(vars(qdrl.rlenv.GateSynthesisEnv)["step"], step)

    def test_seed_changes_inputs_not_config_hashes(self):
        from workloads import WORKLOADS, Clock

        for name, workload in WORKLOADS.items():
            with self.subTest(workload=name):
                a, b, again = (workload.run_pass(seed, Clock(ops=0), tiny=True)
                               for seed in (1, 2, 1))
                self.assertNotEqual(a.inputs_digest, b.inputs_digest)
                self.assertEqual(a.inputs_digest, again.inputs_digest)
                self.assertEqual(a.config_hash, b.config_hash)
                self.assertEqual(a.config_hash, workload.config_hash(tiny=True))
                self.assertNotEqual(workload.config_hash(tiny=True), workload.config_hash())


if __name__ == "__main__":
    run.cap_blas_threads()
    unittest.main()
