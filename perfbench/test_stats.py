#!/usr/bin/env python3
"""Self-tests of the benchmark's statistics: python3 perfbench/test_stats.py"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7], 99), 7)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)

    def test_ten_beyond(self):
        self.assertEqual(stats.beyond(100, 90), 10)
        self.assertEqual(stats.beyond(99, 90), 9)
        self.assertEqual(stats.supported_tail(list(range(100)), 90), 89)
        self.assertIsNone(stats.supported_tail(list(range(99)), 90))
        self.assertEqual(stats.beyond(1000, 99), 10)
        self.assertIsNone(stats.supported_tail(list(range(999)), 99))

    def test_highest_supported(self):
        self.assertEqual(stats.highest_supported_percentile(10000), 99.9)
        self.assertEqual(stats.highest_supported_percentile(1000), 99)
        self.assertEqual(stats.highest_supported_percentile(999), 95)
        self.assertEqual(stats.highest_supported_percentile(107), 90)
        self.assertEqual(stats.highest_supported_percentile(40), 75)
        self.assertEqual(stats.highest_supported_percentile(20), 50)
        self.assertIsNone(stats.highest_supported_percentile(19))


class DueTimeLatency(unittest.TestCase):
    def simulate(self, stall_from, stall_to, period=0.010, n=40,
                 service=0.001):
        """An open-loop sender and a FIFO server that freezes (and stops
        reading, so the sender blocks) during [stall_from, stall_to)."""
        due = [k * period for k in range(n)]
        sent, replies = [], []
        busy_until = 0.0
        for d in due:
            s = stall_to if stall_from <= d < stall_to else d
            sent.append(s)
            start = max(s, busy_until)
            if stall_from <= start < stall_to:
                start = stall_to
            busy_until = start + service
            replies.append(busy_until)
        return due, sent, replies

    def test_stall_charges_probes_due_behind_it(self):
        due, sent, replies = self.simulate(0.050, 0.250)
        lat = stats.due_latencies(due, replies)
        # Every probe due inside the stall waits for its end.
        for d, x in zip(due, lat):
            if 0.050 <= d < 0.250:
                self.assertGreaterEqual(x, 0.250 - d)
        # Timed from the send instead, the stall would vanish: the sender
        # was blocked, so those probes look fast.
        from_sent = [r - s for r, s in zip(replies, sent)]
        self.assertLess(max(from_sent), 0.030)
        # The ten probes due in the stall's first 100 ms miss a 100 ms limit.
        over = [x for x in lat if x > 0.100]
        self.assertGreaterEqual(len(over), 10)
        self.assertAlmostEqual(max(lat), 0.201, delta=0.001)

    def test_no_stall_is_fast(self):
        due, _, replies = self.simulate(1e9, 1e9)
        self.assertTrue(all(x < 0.002 for x in
                            stats.due_latencies(due, replies)))

    def test_missing_reply(self):
        self.assertEqual(stats.due_latencies([0.0, 0.01, 0.02], [0.005]),
                         [0.005, None, None])


class BacklogGrowth(unittest.TestCase):
    LIMIT = 256 << 10

    def test_flat_is_not_growing(self):
        times = [i * 0.01 for i in range(600)]
        backlog = [50_000 + (i * 7919) % 30_000 for i in range(600)]
        self.assertFalse(stats.backlog_growing(times, backlog, self.LIMIT))

    def test_ramp_is_growing(self):
        times = [i * 0.01 for i in range(600)]
        backlog = [i * 2_000 for i in range(600)]
        self.assertTrue(stats.backlog_growing(times, backlog, self.LIMIT))

    def test_drained_spike_is_not_growing(self):
        times = [i * 0.01 for i in range(600)]
        backlog = [5_000_000 if 250 <= i < 300 else 40_000
                   for i in range(600)]
        self.assertFalse(stats.backlog_growing(times, backlog, self.LIMIT))

    def test_small_growth_is_noise(self):
        times = [i * 0.01 for i in range(600)]
        backlog = [i * 100 for i in range(600)]
        self.assertFalse(stats.backlog_growing(times, backlog, self.LIMIT))

    def test_too_few_samples(self):
        self.assertFalse(stats.backlog_growing([0, 1], [0, 10 ** 9],
                                               self.LIMIT))


class SpanSelfTime(unittest.TestCase):
    def test_nested(self):
        ev = lambda name, ts, dur, tid=1: {"ph": "X", "name": name, "ts": ts,
                                           "dur": dur, "pid": 1, "tid": tid}
        times = stats.span_times([
            ev("root", 0, 1000),
            ev("apply", 0, 600),
            ev("pass", 100, 300),
            ev("apply", 600, 200),
            ev("finalize", 800, 150),
            ev("other", 0, 5000, tid=2),
        ])
        self.assertAlmostEqual(times["root"]["self_ms"], 0.05)
        self.assertAlmostEqual(times["apply"]["self_ms"], 0.5)
        self.assertAlmostEqual(times["apply"]["total_ms"], 0.8)
        self.assertEqual(times["apply"]["count"], 2)
        self.assertAlmostEqual(times["pass"]["self_ms"], 0.3)
        self.assertAlmostEqual(times["other"]["self_ms"], 5.0)


class MetricCatalogue(unittest.TestCase):
    def test_matches_benchmark_json(self):
        with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual({w["name"] for w in spec["workloads"]},
                         set(run.WORKLOADS))


if __name__ == "__main__":
    unittest.main()
