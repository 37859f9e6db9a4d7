#!/usr/bin/env python3
"""Self-tests for the benchmark's own logic (perfbench/bench_lib.py).

  python3 perfbench/test_bench_lib.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import bench_lib as bl  # noqa: E402


def span(i, name, start, end, parent=-1):
    return {"rec": "span", "id": i, "name": name, "start": start, "end": end, "parent": parent}


def phase(name, s):
    """A phase record from a machine as fast as the reference machine."""
    return {"rec": "phase", "name": name, "s": s, "cpu_s": s, "cal_s": bl.REFERENCE_CAL_S,
            "units": s / bl.REFERENCE_CAL_S}


def fleet_sample(latencies=(5, 1, 3, 2, 4)):
    lat = list(latencies)
    records = [phase(n, s) for n, s in (("setup", 0.5), ("run", 2.0), ("teardown", 0.1))]
    records.insert(2, {
        "rec": "fleet", "hosts": 16, "invocations": len(lat) + 2, "completed": len(lat),
        "agent_completed": len(lat), "queued": 1, "busy": 1, "routed": len(lat) + 2,
        "unplaced": 0, "latency_p50_ns": bl.nearest_rank(lat, 50),
        "latency_p99_ns": bl.nearest_rank(lat, 99), "latency_ns": lat,
        "committed_gib_s": 10.0})
    records.append({"rec": "end", "peak_rss_mib": 400.0})
    return records


def reclaim_sample():
    records = []
    for name in bl.METHODS:
        records += [phase("setup", 0.5), phase("run", 0.4)]
        records.append({
            "rec": "method", "method": name, "filled": 1, "fill_s": 0.5,
            "requested_bytes": 2 << 30, "bytes": [2 << 30] * bl.STEPS,
            "complete": [1] * bl.STEPS, "sim_ns": [129_014_400] * bl.STEPS,
            "pages_migrated": [0] * bl.STEPS, "blocks_unplugged": [16] * bl.STEPS,
            "call_s": [0.004] * bl.STEPS, "held_gib_s": 1.0, "nested_faults": 10,
            "exits": 20, "populated_peak_bytes": 1 << 30, "memmap_peak_bytes": 1 << 20})
        records.append(phase("teardown", 0.01))
    records.append({"rec": "end", "peak_rss_mib": 450.0})
    return records


class PercentileTest(unittest.TestCase):
    def test_nearest_rank_matches_the_simulator(self):
        values = list(range(1, 101))
        self.assertEqual(bl.nearest_rank(values, 50), 50)
        self.assertEqual(bl.nearest_rank(values, 99), 99)
        self.assertEqual(bl.nearest_rank(values, 100), 100)
        self.assertEqual(bl.nearest_rank([7], 1), 7)
        self.assertEqual(bl.nearest_rank([3, 1, 2], 50), 2)

    def test_tail_picks_highest_percentile_with_ten_beyond(self):
        # 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        p, value, n = bl.tail(list(range(1000)))
        self.assertEqual((p, value, n), (99.0, 989, 1000))
        # 32 samples: p50 leaves 16 beyond, p75 only 8.
        p, value, n = bl.tail(list(range(32)))
        self.assertEqual((p, value, n), (50.0, 15, 32))
        # 96 samples: p90 leaves 9 (rank 87), p75 leaves 24.
        self.assertEqual(bl.tail(list(range(96)))[0], 75.0)

    def test_tail_falls_back_to_median_when_samples_are_few(self):
        self.assertEqual(bl.tail([4, 1, 3]), (50.0, 3, 3))


class SpanTest(unittest.TestCase):
    def test_self_time_subtracts_direct_children_only(self):
        spans = [
            span(0, "bench.run", 0.0, 10.0),
            span(1, "sim.run_until", 1.0, 4.0, parent=0),
            span(2, "sim.run_until", 4.0, 6.0, parent=0),
            span(3, "metrics.summarize", 6.0, 9.0, parent=0),
            span(4, "hotplug.reclaim", 7.0, 8.5, parent=3),
        ]
        own = bl.self_times(spans)
        self.assertAlmostEqual(own[0], 2.0)   # 10 - 3 - 2 - 3
        self.assertAlmostEqual(own[3], 1.5)   # 3 - 1.5
        self.assertAlmostEqual(own[4], 1.5)
        layers = bl.layer_self_seconds(spans)
        self.assertAlmostEqual(layers["bench"], 2.0)
        self.assertAlmostEqual(layers["sim"], 5.0)
        self.assertAlmostEqual(layers["metrics"], 1.5)
        self.assertAlmostEqual(layers["hotplug"], 1.5)
        self.assertAlmostEqual(sum(layers.values()), 10.0)  # Self times tile the root.


class CheckTest(unittest.TestCase):
    def test_good_samples_pass(self):
        self.assertEqual(bl.check_sample("fleet", fleet_sample()), [])
        self.assertEqual(bl.check_sample("reclaim", reclaim_sample()), [])

    def test_unbalanced_invocation_book_fails(self):
        bad = fleet_sample()
        bad[2]["routed"] -= 1
        self.assertTrue(any("book" in p for p in bl.check_sample("fleet", bad)))

    def test_corrupted_latency_summary_fails(self):
        bad = fleet_sample()
        bad[2]["latency_p99_ns"] += 1
        self.assertIn("latency percentiles disagree with the summary",
                      bl.check_sample("fleet", bad))

    def test_crashed_driver_fails(self):
        cut = fleet_sample()[:3]  # No teardown, no end record.
        problems = bl.check_sample("fleet", cut)
        self.assertIn("driver did not finish", problems)

    def test_squeezy_migration_and_short_reclaim_fail(self):
        bad = reclaim_sample()
        sq = [r for r in bad if r.get("method") == "squeezy"][0]
        sq["pages_migrated"][3] = 1
        vi = [r for r in bad if r.get("method") == "virtio"][0]
        vi["bytes"][0] -= 4096
        problems = bl.check_sample("reclaim", bad)
        self.assertIn("squeezy: a step migrated pages", problems)
        self.assertIn("virtio: a step reclaimed the wrong size", problems)

    def test_sim_outputs_ignore_timing_only(self):
        a, b = reclaim_sample(), reclaim_sample()
        for r in b:
            if r["rec"] == "method":
                r["call_s"] = [1.0] * bl.STEPS
                r["fill_s"] = 9.0
            if r["rec"] == "phase":
                r.update(phase(r["name"], 5.0))
        self.assertEqual(bl.sim_outputs(a), bl.sim_outputs(b))
        c = copy.deepcopy(a)
        c[2]["sim_ns"][0] += 1
        self.assertNotEqual(bl.sim_outputs(a), bl.sim_outputs(c))


class MetricsTest(unittest.TestCase):
    def test_fleet_end_to_end_pools_parts(self):
        samples = {0: [fleet_sample((1, 2, 3))],
                   1: [fleet_sample((4, 5, 6)), fleet_sample((4, 5, 6))]}
        samples[1][1][1].update(phase("run", 4.0))  # Part 1's second repetition was slower.
        m = bl.end_to_end("fleet", samples)
        self.assertAlmostEqual(m["run_s"], 2.0 + 3.0)  # Median per part, summed.
        self.assertAlmostEqual(m["sim_latency_p50_ms"], 3 / 1e6)
        self.assertAlmostEqual(m["sim_latency_tail_ms"], 6 / 1e6)  # p99
        self.assertAlmostEqual(m["sim_completed_pct"], 100.0 * 6 / 10)
        self.assertAlmostEqual(m["sim_committed_gib_s"], 20.0)

    def test_host_times_are_scaled_to_the_reference_machine(self):
        # The machine ran at half speed for part 1: twice the CPU seconds,
        # and the calibration kernel took twice as long too.  Only wall
        # time also counted a second of waiting.
        samples = {0: [fleet_sample()], 1: [fleet_sample()]}
        run = samples[1][0][1]
        slow = 2 * bl.REFERENCE_CAL_S
        run.update(s=5.0, cpu_s=4.0, cal_s=slow, units=4.0 / slow)
        m = bl.end_to_end("fleet", samples)
        self.assertAlmostEqual(m["run_s"], 2.0 + 2.0)
        self.assertAlmostEqual(bl.phase_total(samples, "run", bl.wall_seconds), 2.0 + 5.0)
        self.assertAlmostEqual(bl.phase_total(samples, "run", bl.cpu_seconds), 2.0 + 4.0)

    def test_reclaim_per_layer(self):
        traced = reclaim_sample()
        traced[1].update(phase("run", 0.5))  # Traced balloon run phase: 0.1 s slower.
        traced.append(span(0, "bench.run", 0.0, 1.0))
        traced.append(span(1, "hotplug.reclaim", 0.2, 0.9, parent=0))
        m = bl.per_layer("reclaim", {0: [reclaim_sample()]}, {0: traced})
        self.assertAlmostEqual(m["bench.trace_overhead_s"], 0.1)
        self.assertAlmostEqual(m["hotplug.self_s"], 0.7)
        self.assertAlmostEqual(m["bench.self_s"], 0.3)
        self.assertEqual(m["hotplug.reclaim_call_ms.squeezy.samples"], bl.STEPS)
        self.assertEqual(m["hotplug.reclaim_call_ms.squeezy.tail_pctile"], 50.0)
        self.assertAlmostEqual(m["sim_reclaim_ms.virtio"], 129.0144)
        self.assertEqual(m["hotplug.blocks_unplugged.squeezy"], 16 * bl.STEPS)
        self.assertEqual(m["mm.migrated_per_reclaimed_pct.virtio"], 0.0)
        self.assertEqual(m["host.exits"], 60)
        self.assertEqual(m["faas.cold_starts"], 0)  # No fleet: no faas work.
        self.assertEqual(m["sim.window_s.samples"], 0)
        self.assertAlmostEqual(m["sim_latency_p99_ms"], 129.0144)
        self.assertAlmostEqual(m["sim_latency_p95_ms"], 129.0144)

    def test_paper_comparison_reports_error(self):
        lines = bl.paper_comparison({"balloon": 234.0, "virtio": 100.0, "squeezy": 127.0})
        self.assertIn("error +0.0%", lines[0])
        self.assertIn("error +0.0%", lines[2])


if __name__ == "__main__":
    unittest.main()
