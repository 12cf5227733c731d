"""Self-test of the benchmark: tracer arithmetic, binding restore, checks.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/selftest.py
"""

from __future__ import annotations

import dataclasses
import json
import sys
import unittest
from pathlib import Path

import numpy as np

import ftcircles as ft
import metrics
import tracer as tracing
import worker
import workloads as wl


def _namespaces() -> dict:
    """Every binding of every ftcircles module namespace, plus traced constructors."""
    seen = {}
    for name, module in sorted(sys.modules.items()):
        if module is not None and (name == "ftcircles" or name.startswith("ftcircles.")):
            seen.update({(name, attr): obj for attr, obj in vars(module).items()})
    for layer, classes in tracing.CONSTRUCTORS.items():
        for cls_name in classes:
            cls = getattr(sys.modules[f"ftcircles.{layer}"], cls_name)
            seen[(layer, cls_name, "__init__")] = cls.__dict__["__init__"]
    return seen


class TracerTest(unittest.TestCase):
    def test_self_time_arithmetic(self):
        # root(100) -> a(30) -> c(5); root -> b(20)
        own = tracing.self_times([-1, 0, 1, 0], [100, 30, 5, 20])
        self.assertEqual(list(own), [50, 25, 5, 20])

    def test_nested_call_self_times_add_up(self):
        tracer = tracing.Tracer()
        inner = tracer._wrap("m.inner", lambda: sum(range(20000)))

        def body():
            inner()
            inner()
            return sum(range(50000))

        outer = tracer._wrap("m.outer", body)
        outer()
        summary = tracer.summary()
        self.assertEqual(summary["m.inner"]["calls"], 2)
        self.assertEqual(summary["m.outer"]["calls"], 1)
        root_ms = (tracer.end[0] - tracer.start[0]) / 1e6
        total_self = summary["m.inner"]["self_ms"] + summary["m.outer"]["self_ms"]
        self.assertAlmostEqual(total_self, root_ms, places=9)
        inner_ms = sum(tracer.end[i] - tracer.start[i] for i in (1, 2)) / 1e6
        self.assertAlmostEqual(summary["m.outer"]["self_ms"], root_ms - inner_ms, places=9)

    def test_failures_are_recorded_by_exception_type(self):
        tracer = tracing.Tracer()

        def fail():
            raise ft.NonConvergence("synthetic")

        traced = tracer._wrap("solver.solve", fail)
        with self.assertRaises(ft.NonConvergence):
            traced()
        failed = tracer.summary()["solver.solve"]["failed"]
        self.assertEqual(failed["NonConvergence"]["calls"], 1)

    def test_bindings_restored(self):
        before = _namespaces()
        with tracing.Tracer() as tracer:
            for module in ("ftcircles", "ftcircles.solver", "ftcircles.plasticity",
                           "ftcircles.evolution", "ftcircles.oracle", "ftcircles.cli"):
                self.assertIsNot(vars(sys.modules[module])["solve"], before[(module, "solve")])
            config = ft.regular_polygon_config(5)
            ft.solve(config)
        self.assertGreater(tracer.summary()["geometry.Configuration"]["calls"], 0)
        self.assertGreater(tracer.summary()["solver.classify_case"]["calls"], 0)
        after = _namespaces()
        self.assertEqual(before.keys(), after.keys())
        changed = [key for key in before if before[key] is not after[key]]
        self.assertEqual(changed, [])


def _shift_point(out: dict, dx: float = 1e-3) -> dict:
    result = out["result"]
    moved = ft.Point2(result.point.x + dx, result.point.y)
    return {**out, "result": dataclasses.replace(result, point=moved)}


class CheckTest(unittest.TestCase):
    """Every workload's check passes its real output and rejects a wrong one."""

    def assert_rejects(self, workload, item, out):
        with self.assertRaises(wl.CheckFailed):
            workload.check(item, out)

    def test_small_n(self):
        workload = wl.WORKLOADS["small-n"]
        for item in workload.make(seed=3)[:8]:   # one block
            out = workload.run(item)
            workload.check(item, out)
            self.assert_rejects(workload, item, _shift_point(out))
            if item.kind == "absorbed":
                continue
            self.assert_rejects(workload, item, {**out, "residuals": [0.0, 1e-6, 0.0]})
            if item.n == 3:
                self.assert_rejects(workload, item, {**out, "inverse": np.add(out["inverse"], 1e-6)})
            else:
                self.assert_rejects(workload, item, {**out, "plasticity": out["plasticity"] + 1e-5})
            if item.kind == "pentagon":
                self.assert_rejects(workload, item, {**out, "geometric": False})

    def test_large_n(self):
        workload = wl.LargeN()
        workload.blocks = 1
        pool = workload.make(seed=3)
        for item in (pool[0], pool[-1]):   # a floating and an absorbed n = 200 scene
            out = workload.run(item)
            workload.check(item, out)
            self.assert_rejects(workload, item, _shift_point(out))

    def test_oracle_sweep(self):
        workload = wl.WORKLOADS["oracle-sweep"]
        item = workload.make(seed=3)[0]
        out = workload.run(item)
        workload.check(item, out)
        q = out["oracle"]
        self.assert_rejects(workload, item, {**out, "oracle": ft.Point2(q.x, q.y + 1e-3)})
        # within the oracle gap, but no longer a floating minimizer
        with self.assertRaisesRegex(wl.CheckFailed, "resultant"):
            workload.check(item, _shift_point(out, 1e-5))

    def test_near_boundary(self):
        workload = wl.WORKLOADS["near-boundary"]
        item = next(s for s in workload.make(seed=3) if s.eps > 1e-3)
        out = workload.run(item)
        workload.check(item, out)
        self.assert_rejects(workload, item, _shift_point(out, 1e-5))

    def test_cli(self):
        workload = wl.WORKLOADS["cli"]
        calls = workload.make(seed=3)
        json_call = next(c for c in calls if "--json" in c.argv)
        out = workload.run(json_call)
        workload.check(json_call, out)
        data = json.loads(out["stdout"])
        data["point"][0] += 1e-6
        self.assert_rejects(workload, json_call, {**out, "stdout": json.dumps(data)})
        file_call = next(c for c in calls if c.files)
        out = workload.run_in_process(file_call)
        workload.check(file_call, out)
        path = file_call.files[0][0]
        self.assert_rejects(workload, file_call, {**out, "files": {path: out["files"][path] + " "}})


class LatencyTest(unittest.TestCase):
    def test_latencies_scale_to_reference_host_speed(self):
        # pool of 2; the host is twice as slow in the second pass, and scene
        # 1's first run is hit by a burst the kernel missed
        ref = worker.REFERENCE_MS * 1e-3
        runs = [1.0, 9.0, 2.0, 4.0, 1.0, 2.0]
        self.assertEqual(worker.scene_latencies(runs, [ref, 2.0 * ref, ref], 2), [1.0, 2.0])

    def test_tail_keeps_ten_values_beyond(self):
        self.assertEqual(worker.tail([float(k) for k in range(25)]), (60.0, 14.0))
        self.assertEqual(worker.tail([float(k) for k in range(512)]), (98.0, 501.0))

    def test_tail_of_ten_or_fewer_is_the_maximum(self):
        self.assertEqual(worker.tail([3.0, 1.0, 2.0]), (100.0, 3.0))


class OutcomeTest(unittest.TestCase):
    def test_raised_items_make_a_run_incorrect(self):
        self.assertFalse(worker.outcome(wl.WORKLOADS["cli"], 25, {"RuntimeError": 1})["correct"])
        self.assertFalse(worker.outcome(wl.WORKLOADS["small-n"], 5000, {"check": 1})["correct"])
        self.assertTrue(worker.outcome(wl.WORKLOADS["oracle-sweep"], 400, {"check": 4})["correct"])
        near = worker.outcome(wl.WORKLOADS["near-boundary"], 100, {"NonConvergence": 7})
        self.assertEqual((near["correct"], near["failed"]), (True, 7))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match(self):
        spec = json.loads(Path("BENCHMARK.json").read_text())
        end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        self.assertEqual(end_to_end, {**metrics.END_TO_END_UNITS, "setup_s": "s"})
        per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
        self.assertEqual(per_layer, metrics.per_layer_units())
        self.assertTrue({w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
