"""Unit tests for the benchmark's pure helpers.

Run from the repository root: `python3 -m unittest discover -s perfbench`.
"""

import json
import unittest

import analysis as A

STATS = """{
  "figures": [
    {"name": "fig13", "seconds": 0.006, "computed": 0, "reused": 720}
  ],
  "total_seconds": 0.184,
  "cells_computed": 1927,
  "cells_reused": 3493,
  "cell_reuse_rate": 0.6445,
  "experiments": {"hits": 0, "misses": 0},
  "allocs": {"hits": 31, "misses": 4, "entries": 4},
  "details": {"hits": 28, "misses": 28, "entries": 28},
  "hulls": {"hits": 0, "misses": 0, "entries": 28},
  "sched": {
    "planned_runs": 3453,
    "planned_details": 28,
    "nodes": 2392,
    "edges": 1899,
    "workers": 2,
    "steals": 3,
    "critical_path_us": 10000,
    "elapsed_us": 60000,
    "computed_runs": 0,
    "disk_run_hits": 1899,
    "detail_computed": 0,
    "detail_disk_hits": 28,
    "warm_skipped_exps": 465,
    "cost_drift": [
      {"design": "Static", "prior": 1.000, "measured": 1.000, "samples": 453}
    ]
  },
  "disk_cache": {
    "hits": 1932,
    "misses": 0,
    "writes": 0,
    "evictions": 0,
    "corrupt_dropped": 0
  }
}
"""


def span(id, parent, lane, name, start, end):
    return {"id": id, "parent": parent, "lane": lane, "name": name, "start": start, "end": end}


class StatsParser(unittest.TestCase):
    def test_computed_cells_come_from_the_scheduler(self):
        s = A.parse_stats(STATS)
        # 1927 map misses, but every one was served from disk.
        self.assertEqual(s["cells_computed"], 0)
        self.assertEqual(s["cells_served"], 1899 + 28)
        self.assertEqual((s["store_hits"], s["store_misses"]), (1932, 0))
        self.assertEqual(A.stats_problems(s, warm=True, plan={}), [])

    def test_warm_run_that_computes_or_misses_fails(self):
        doc = json.loads(STATS)
        doc["sched"]["computed_runs"] = 1
        doc["disk_cache"]["misses"] = 1
        problems = A.stats_problems(A.parse_stats(json.dumps(doc)), warm=True, plan={})
        self.assertEqual(len(problems), 2)

    def test_cold_run_must_compute_exactly_the_plan(self):
        doc = json.loads(STATS)
        doc["sched"].update(computed_runs=1899, disk_run_hits=0, detail_computed=28,
                            detail_disk_hits=0)
        stats = A.parse_stats(json.dumps(doc))
        plan = {"plan.unique_runs": 1899, "plan.unique_details": 28}
        self.assertEqual(A.stats_problems(stats, warm=False, plan=plan), [])
        plan["plan.unique_runs"] = 1900
        self.assertEqual(len(A.stats_problems(stats, warm=False, plan=plan)), 1)
        # A cold run served from a store is not cold.
        self.assertTrue(A.stats_problems(A.parse_stats(STATS), warm=False, plan=plan))

    def test_malformed_stats_are_rejected(self):
        for bad in ["", "[]", "{}", STATS.replace('"computed_runs": 0', '"computed_runs": -1'),
                    STATS.replace('"nodes": 2392', '"nodes": "many"')]:
            with self.assertRaises(A.StatsError):
                A.parse_stats(bad)


class SpanArithmetic(unittest.TestCase):
    def test_union_merges_overlaps_and_skips_empty(self):
        self.assertEqual(A.union_length([(0, 10), (5, 15), (20, 25), (30, 30)]), 20)
        self.assertEqual(A.union_length([]), 0)
        self.assertEqual(A.union_length([(3, 4), (0, 10)]), 10)

    def test_self_time_subtracts_children_once(self):
        spans = [
            span(1, 0, 0, "job", 0, 100),
            span(2, 1, 1, "exec", 10, 90),
            # Two workers overlapping inside exec: their union is 10..80.
            span(3, 2, 2, "sim.run.jumanji", 10, 60),
            span(4, 2, 3, "sim.run.static", 30, 80),
            # A child poking out of its parent counts only inside it.
            span(5, 1, 0, "bench.render.fig13", 95, 105),
        ]
        own = A.self_times(spans)
        self.assertEqual(own[1], 100 - (80 + 5))
        self.assertEqual(own[2], 80 - 70)
        self.assertEqual(own[3], 50)
        tree = A.span_tree(spans)
        self.assertEqual(tree["job/exec/sim.run.jumanji"], [1, 50, 50])
        self.assertEqual(tree["job/exec"], [1, 80, 10])
        lines = A.render_tree(tree)
        self.assertTrue(lines[1].startswith("job"))
        self.assertTrue(lines[2].startswith("  exec"))

    def test_unattributed_counts_worker_lanes_and_main_outside_exec(self):
        spans = [
            span(1, 0, 0, "job", 0, 100),
            span(2, 1, 0, "bench.plan", 0, 10),
            span(3, 1, 1, "bench.exec", 10, 90),
            span(4, 3, 2, "sim.run.static", 10, 90),
            span(5, 3, 3, "sim.run.static", 10, 50),
            # Renders streamed during exec fill no worker lane...
            span(6, 1, 0, "bench.render.fig12", 20, 60),
            # ...but after it they fill one.
            span(7, 1, 0, "bench.render.fig13", 90, 100),
        ]
        covered = 10 + 80 + 40 + 10
        self.assertAlmostEqual(A.unattributed_frac(spans, 2), 1 - covered / 200)

    def test_layer_metrics_divide_by_their_own_counts(self):
        designs = {f"sim.run.{d}.intervals": 0.0 for d in A.DESIGNS}
        designs["sim.run.static.intervals"] = 40.0
        # No replay counters: the warm workload's probe runs without it.
        counters = {
            **designs,
            "sim.hull_memo.hits": 3.0, "sim.hull_memo.misses": 1.0,
            "sim.detail.accesses": 0.0,
            "sim.detail.sim_misses": 0.0, "sim.detail.sim_accesses": 0.0,
            "sim.detail.sim_port_wait": 0.0, "sim.detail.sim_latency": 0.0,
            "plan.planned_cells": 4.0, "plan.unique_cells": 1.0,
            "bench.store.written_bytes": 1000.0, "bench.store.cell_writes": 1.0,
            "bench.store.probe_calls": 2.0, "job.disk_run_hits": 0.0,
            "job.detail_disk_hits": 0.0, "job.computed_runs": 1.0, "job.detail_computed": 0.0,
            "bench.store.corrupt_dropped": 0.0, "bench.sched.busy_us": 90.0,
            "bench.sched.span_us": 100.0, "bench.sched.steals": 0.0,
            "bench.sched.critical_path_us": 4e6, "bench.sched.elapsed_us": 5e6,
            "bench.sched.queue_depth_median": 1.0, "job.workers": 1.0,
        }
        spans = [
            span(1, 0, 0, "job", 0, 10_000_000),
            span(2, 1, 1, "bench.exec", 0, 10_000_000),
            span(3, 2, 2, "bench.store.probe", 0, 2_000),
            span(4, 2, 2, "sim.run.static", 2_000, 4_002_000),
            span(5, 2, 2, "bench.store.write", 4_002_000, 4_003_000),
        ]
        m = A.layer_metrics(spans, counters)
        self.assertAlmostEqual(m["sim.run.static.us_per_interval"], 4000 / 40)
        self.assertAlmostEqual(m["sim.run.us_per_interval"], 100.0)
        self.assertAlmostEqual(m["bench.store.probe.us_per_call"], 1.0)
        self.assertAlmostEqual(m["bench.store.write.us_per_entry"], 1.0)
        self.assertAlmostEqual(m["bench.store.write.bytes_per_entry"], 1000.0)
        self.assertAlmostEqual(m["sim.hull_memo.hit_ratio"], 0.75)
        self.assertAlmostEqual(m["bench.plan.reuse_ratio"], 0.75)
        self.assertAlmostEqual(m["bench.sched.utilization"], 0.9)
        self.assertEqual(m["bench.store.hit_ratio"], 0.0)
        self.assertAlmostEqual(m["trace.unattributed_frac"], 1 - 4_003_000 / 10_000_000)
        self.assertEqual(m["core.placer.jumanji.us_per_call"], 0.0)


class Outputs(unittest.TestCase):
    def test_model_error_is_the_mean_absolute_miss_ratio_gap(self):
        tsv = (b"# comment\ndesign\tmix\tapp\tcap_mb\tmr_analytic\tmr_detailed\n"
               b"A\t0\tx\t1.0\t0.100\t0.150\nA\t0\ty\t1.0\t0.500\t0.450\n")
        self.assertAlmostEqual(A.mean_mr_error(tsv), 0.05)

    def test_shape_sees_rows_and_columns(self):
        self.assertEqual(A.tsv_shape(b"a\tb\n1\t2\n"), [2, 2, 1])
        self.assertNotEqual(A.tsv_shape(b"a\tb\n1\t2\n"), A.tsv_shape(b"a\tb\n1\n"))

    def test_iqr_share(self):
        self.assertEqual(A.iqr_share([1.0]), 0.0)
        self.assertGreater(A.iqr_share([1.0, 2.0, 3.0, 4.0]), 0.0)


if __name__ == "__main__":
    unittest.main()
