#!/usr/bin/env python3
"""Self-test of the benchmark's own code. Run from the repository root:

    python3 perfbench/selftest.py

It checks the self-time and percentile arithmetic on hand-made spans, that
metrics.json describes every metric of BENCHMARK.json, the harness's unit
tests, and that every named metric is emitted for all three workload shapes
on tiny inputs.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run as bench  # noqa: E402


def span(i, name, start, end, parent=None, k=None):
    return {"id": i, "name": name, "layer": name.split(".")[0], "start_s": start,
            "end_s": end, "parent": parent, "k": k}


class Arithmetic(unittest.TestCase):
    def test_self_time_subtracts_children_once(self):
        spans = [
            span(0, "bench.assemble", 0.0, 10.0),
            span(1, "mhm.round", 1.0, 6.0, 0),
            span(2, "dbg.count", 1.0, 3.0, 1),
            span(3, "dbg.contig_gen", 2.5, 4.0, 1),  # overlaps its sibling
            span(4, "locassm.extend", 6.0, 9.0, 0),
            span(5, "gpusim.host", 6.0, 11.0, 4),  # runs past its parent: clipped
        ]
        st = bench.self_times(spans)
        self.assertAlmostEqual(st[0], 10.0 - 5.0 - 3.0)
        self.assertAlmostEqual(st[1], 5.0 - 3.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[4], 0.0)
        self.assertEqual(bench.descendants(spans, 0), {1, 2, 3, 4, 5})
        self.assertEqual(bench.descendants(spans, 1), {2, 3})

    def test_ledger_layers_and_wide_rounds(self):
        spans = [
            span(0, "bench.assemble", 0.0, 10.0),
            span(1, "bioseq.ingest", 0.0, 1.0, 0),
            span(2, "dbg.count", 1.0, 3.0, 0, k=21),
            span(3, "dbg.count", 3.0, 6.0, 0, k=33),
            span(4, "locassm.extend", 6.0, 9.0, 0, k=33),
            span(5, "gpusim.host", 6.0, 8.0, 4, k=33),
            span(6, "mhm.ref_eval", 10.0, 12.0),  # outside the assemble
        ]
        counters = {"dbg.kmer_instances": 50.0, "locassm.gpu_host_s": 2.0, "gpusim.warp_insts": 8.0}
        m = bench.ledger({"spans": spans, "counters": counters}, 2e6, 9.5)
        self.assertAlmostEqual(m["dbg.count_s"], 5.0)
        self.assertAlmostEqual(m["dbg.count_wide_s"], 3.0)
        self.assertAlmostEqual(m["dbg.kmers_per_s"], 10.0)
        self.assertAlmostEqual(m["bioseq.ingest_mb_per_s"], 2.0)
        self.assertAlmostEqual(m["locassm.self_s"], 1.0)
        self.assertAlmostEqual(m["gpusim.self_s"], 2.0)
        self.assertAlmostEqual(m["gpusim.warp_insts_per_host_s"], 4.0)
        self.assertAlmostEqual(m["mhm.ref_eval_s"], 2.0)
        self.assertAlmostEqual(m["trace.total_s"], 10.0)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.5)
        # The root's own second (9..10) belongs to no layer.
        self.assertAlmostEqual(m["trace.attributed_frac"], 0.9)

    def test_tail_percentile_needs_ten_beyond(self):
        self.assertIsNone(bench.tail_percentile(list(range(19))))
        self.assertEqual(bench.tail_percentile(list(range(1, 21))), (50, 10))
        p, _ = bench.tail_percentile(list(range(1000)))
        self.assertEqual(p, 99)


class Spec(unittest.TestCase):
    def test_metrics_json_describes_every_benchmark_metric(self):
        with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        with open(os.path.join(HERE, "metrics.json")) as f:
            extra = json.load(f)["metrics"]
        declared = {m["name"] for part in ("end_to_end", "per_layer") for m in spec[part]}
        self.assertEqual(declared, set(extra))
        self.assertLessEqual({w["name"] for w in spec["workloads"]}, set(bench.WORKLOADS))
        for m in bench.load_spec()["per_layer"]:
            self.assertIn(m["section"], ("host", "count", "device"), m["name"])
            self.assertTrue(set(m["on"]) <= set(bench.WORKLOADS), m["name"])


class Harness(unittest.TestCase):
    def test_harness_unit_tests(self):
        done = subprocess.run(["cargo", "test", "--offline", "--quiet", "--manifest-path",
                               os.path.join(HERE, "Cargo.toml")], capture_output=True, text=True)
        self.assertEqual(done.returncode, 0, done.stdout + done.stderr)

    def test_every_metric_emitted_on_tiny_inputs(self):
        ours = bench.load_spec()
        for workload in bench.WORKLOADS:
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                       "--seed", "7", "--seconds", "0", "--trace", str(trace), "--scale-factor", "0.05"]
                done = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                self.assertEqual(done.returncode, 0, done.stderr)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                self.assertTrue(result["correct"], done.stdout)
                self.assertEqual(result["failed"], 0)
                self.assertEqual(set(result["metrics"]), {m["name"] for m in ours[section]},
                                 f"{workload} trace {trace}")


if __name__ == "__main__":
    unittest.main()
