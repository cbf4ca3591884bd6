"""The benchmark's own tests: a seconds-long smoke of every workload.

    python3 perfbench/selftest.py        (about two minutes)

Checks that each workload prints exactly the metrics ``BENCHMARK.json``
declares, with their units; that one seed always generates the same pair and
update sequences; that traced self-times add up to wall time; and that a
short run never replaces a full-length record.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from common import ROOT, build_graph, use_checkout_sources  # noqa: E402

use_checkout_sources()

from layers import PARTITION  # noqa: E402
from run import write_record  # noqa: E402
from workloads import WORKLOADS, skewed_schedule, workload_inputs  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
DATASETS = {"engine-geer": "dblp-syn", "http-batch": "ba-2000-8", "http-skewed-rw": "facebook-syn"}


def run_benchmark(workload: str, trace: int, seconds: float = 2.0) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if out.returncode != 0:
        raise AssertionError(f"{workload} exited {out.returncode}: {out.stderr[-3000:]}")
    return json.loads(out.stdout.strip().splitlines()[-1])


class BenchmarkSpec(unittest.TestCase):
    def test_declared_names_units_and_bounds(self):
        self.assertEqual(set(SPEC), {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
            self.assertRegex(metric["name"], r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
            self.assertRegex(metric["unit"], r"^[A-Za-z0-9_/%.-]{1,16}$")
        bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
        self.assertTrue(all(0 < bound <= 0.25 for bound in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class SeededInputs(unittest.TestCase):
    def test_one_seed_one_sequence(self):
        for workload, dataset in DATASETS.items():
            graph = build_graph(dataset)
            first, again = workload_inputs(workload, 7, graph), workload_inputs(workload, 7, graph)
            self.assertEqual(first, again, workload)
            self.assertNotEqual(first, workload_inputs(workload, 8, graph), workload)
            if workload != "engine-geer":
                self.assertTrue(first["updates"], workload)
        schedules = [[(r.kind, r.payload, r.due)
                      for r in skewed_schedule(iter(inputs["reads"]), inputs["updates"][0], 10.0)]
                     for inputs in (first, again)]
        self.assertEqual(schedules[0], schedules[1])
        self.assertEqual(sum(kind == "update" for kind, _, _ in schedules[0]), 1)


class Records(unittest.TestCase):
    def test_short_run_never_replaces_full_record(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "r.json")
            self.assertTrue(write_record(path, {"mode": "full", "n": 1}))
            self.assertFalse(write_record(path, {"mode": "short", "n": 2}))
            self.assertTrue(write_record(path, {"mode": "full", "n": 3}))
            with open(path, encoding="utf-8") as handle:
                self.assertEqual(json.load(handle)["n"], 3)


class Smoke(unittest.TestCase):
    def check_output(self, result: dict, section: str) -> dict:
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual({k: v["unit"] for k, v in result["metrics"].items()}, declared)
        values = {k: v["value"] for k, v in result["metrics"].items()}
        self.assertTrue(all(isinstance(v, float) and math.isfinite(v) for v in values.values()))
        return values

    def test_untraced_workloads(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                values = self.check_output(run_benchmark(workload, 0), "end_to_end")
                self.assertTrue(all(v > 0 for v in values.values()), values)

    def test_traced_self_times_add_up_to_wall_time(self):
        for workload in ("engine-geer", "http-batch"):
            with self.subTest(workload=workload):
                values = self.check_output(run_benchmark(workload, 1), "per_layer")
                total = sum(values[name] for name in PARTITION) + values["unattributed_ms"]
                self.assertAlmostEqual(total, values["wall_ms"], delta=1e-6 * values["wall_ms"])
                self.assertGreater(values["core.geer.self_ms"], 0.0)
                self.assertGreater(values["sampling.walks.steps"], 0.0)
                if workload == "http-batch":
                    self.assertGreater(values["net.pool.worker_compute_ms"], 0.0)
                    self.assertGreater(values["core.smm.step_ms"], 0.0)


if __name__ == "__main__":
    unittest.main()
