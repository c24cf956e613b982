#!/usr/bin/env python3
"""Tests of the benchmark itself: BENCHMARK.json schema, the
median/quartile helpers and a tiny-scale smoke run of every workload
template (plus one traced run).

    python3 perfbench/test_perfbench.py

The smoke runs build the simulator into .bench_build/ on first use.
"""

import json
import os
import subprocess
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

SPEC_PATH = os.path.join(run.ROOT, "BENCHMARK.json")

# Every metric the benchmark promises, with its unit.
EXPECTED_END_TO_END = {
    "wall_s": "s", "setup_s": "s", "sim_units_per_s": "1/s", "cpu_s": "s",
    "peak_rss_mb": "MB", "setup_rss_mb": "MB",
}
EXPECTED_PER_LAYER = {
    "sim.config_load_ms": "ms", "serve.calibrate_ms": "ms",
    "serve.run_ms": "ms", "serve.loop_ms": "ms",
    "runtime.device_build_ms": "ms", "runtime.device_build_mb": "MB",
    "pluto.lut_load_ms": "ms", "pluto.timed_batch_us.gmc": "us",
    "pluto.timed_batch_us.gsa": "us", "serve.loadgen.ns_per_req": "ns",
    "serve.engine.ns_per_event": "ns", "serve.memo.ns_per_lookup": "ns",
    "serve.metrics.ns_per_complete": "ns",
    "serve.metrics.bytes_per_req": "B", "serve.metrics.finish_ms": "ms",
    "serve.render_ms": "ms",
    **{"workloads.run_ms." + w: "ms" for w in (
        "CRC-8", "CRC-32", "Salsa20", "VMPC", "ImgBin", "ColorGrade",
        "ADD8", "MUL8", "MUL16", "BC8", "Bitwise-XOR")},
    "bulk.gather_ns_per_elem.w1": "ns", "bulk.gather_ns_per_elem.w4": "ns",
    "bulk.gather_ns_per_elem.w8": "ns", "bulk.pack_ns_per_elem.w8": "ns",
    "bulk.unpack_ns_per_elem.w8": "ns",
    "campaign.worker_busy_frac": "fraction",
    "obs.trace_overhead_frac": "fraction",
    "serve.requests": "count", "serve.batches": "count",
    "serve.events_fired": "count", "serve.memo_hit_ratio": "fraction",
    "pluto.lut_loads": "count", "pluto.queries": "count",
    "dram.acts": "count",
}


def run_bench(*args):
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), *args],
        capture_output=True, text=True, cwd=run.ROOT, timeout=900)
    if proc.returncode != 0:
        raise AssertionError("run.py %s exited %d:\n%s" % (
            " ".join(args), proc.returncode, proc.stderr[-2000:]))
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Schema(unittest.TestCase):
    def setUp(self):
        with open(SPEC_PATH) as f:
            self.spec = json.load(f)

    def test_keys(self):
        self.assertEqual(set(self.spec), {
            "command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"})
        self.assertEqual(self.spec["command"], ["python3", "perfbench/run.py"])
        self.assertEqual(self.spec["paths"], ["perfbench"])

    def test_workloads_have_templates(self):
        names = [w["name"] for w in self.spec["workloads"]]
        self.assertLessEqual(set(names), set(run.WORKLOADS))
        for name in run.WORKLOADS:
            self.assertTrue(os.path.exists(
                os.path.join(run.HERE, "workloads", name + ".ini")))

    def test_every_metric_with_its_unit(self):
        for section, expected, table in (
                ("end_to_end", EXPECTED_END_TO_END, run.END_TO_END),
                ("per_layer", EXPECTED_PER_LAYER, run.PER_LAYER)):
            got = {m["name"]: m["unit"] for m in self.spec[section]}
            self.assertEqual(got, expected, section)
            self.assertEqual({k: v[0] for k, v in table.items()}, expected)
            for m in self.spec[section]:
                self.assertEqual(m["better"], table[m["name"]][1])

    def test_bounds(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertTrue(all(0 < b <= 0.25 for b in bounds.values()))
        self.assertEqual(bounds["setup_s"], max(bounds.values()))


class Helpers(unittest.TestCase):
    def test_median_and_quartiles(self):
        self.assertEqual(run.median([3, 1, 2]), 2)
        self.assertEqual(run.median([4, 1, 3, 2]), 2.5)
        self.assertEqual(run.quartiles([1, 2, 3, 4, 5, 6, 7, 8]),
                         (2.25, 4.5, 6.75))
        self.assertEqual(run.quartiles([5.0]), (5.0, 5.0, 5.0))


class Smoke(unittest.TestCase):
    """Tiny-scale runs: correct results and every metric present."""

    def check(self, result, expected):
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), set(expected))
        for name, m in result["metrics"].items():
            self.assertEqual(m["unit"], expected[name])

    def test_workloads_untraced(self):
        for name in sorted(run.WORKLOADS):
            with self.subTest(workload=name):
                res = run_bench("--workload", name, "--seed", "3",
                                "--seconds", "1", "--trace", "0", "--tiny")
                self.check(res, EXPECTED_END_TO_END)
                self.assertTrue(all(m["value"] > 0
                                    for m in res["metrics"].values()))

    def test_traced(self):
        res = run_bench("--workload", "oracle", "--seed", "3",
                        "--seconds", "1", "--trace", "1", "--tiny")
        self.check(res, EXPECTED_PER_LAYER)
        self.assertGreater(res["metrics"]["serve.requests"]["value"], 0)
        spans = os.path.join(run.WORK, "perfbench", "runs",
                             "oracle-seed3-trace1", "layer_spans.json")
        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        self.assertIn("serve.run", {e["name"] for e in events})


if __name__ == "__main__":
    unittest.main()
