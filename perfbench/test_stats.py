"""Tests for perfbench/stats.py. Run: python3 -m unittest perfbench/test_stats.py"""

import math
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(stats.percentile(samples, 0.5), 50)
        self.assertEqual(stats.percentile(samples, 0.9), 90)
        self.assertEqual(stats.percentile(samples, 0.99), 99)
        self.assertEqual(stats.percentile(samples, 1.0), 100)
        self.assertEqual(stats.percentile([7.0], 0.9), 7.0)

    def test_order_does_not_matter(self):
        self.assertEqual(stats.percentile([5, 1, 4, 2, 3], 0.5), 3)

    def test_ten_beyond(self):
        # p90 needs 100 samples: 10 lie beyond the 90th.
        self.assertEqual(stats.samples_beyond(100, 0.9), 10)
        self.assertTrue(stats.tail_reportable(100, 0.9))
        self.assertFalse(stats.tail_reportable(99, 0.9))
        # p99 needs 1000.
        self.assertTrue(stats.tail_reportable(1000, 0.99))
        self.assertFalse(stats.tail_reportable(999, 0.99))
        # A handful of sweeps supports no tail at all.
        self.assertFalse(stats.tail_reportable(5, 0.9))
        self.assertEqual(stats.samples_beyond(5, 0.9), 0)

    def test_failed_ops_miss_every_limit(self):
        lat = stats.latencies([10.0, -1.0, 12.0, 11.0])
        self.assertEqual(lat[1], math.inf)
        self.assertEqual(stats.percentile(lat, 1.0), math.inf)
        self.assertEqual(stats.percentile(lat, 0.5), 11.0)

    def test_empty_and_bad_q(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 0.5)
        with self.assertRaises(ValueError):
            stats.percentile([1.0], 0.0)


class ProcStat(unittest.TestCase):
    BEFORE = "cpu  100 5 50 800 10 1 2 30 7 0"
    AFTER = "cpu  160 5 70 900 10 1 4 50 9 0"

    def test_parse(self):
        fields = stats.parse_cpu_line(self.BEFORE)
        self.assertEqual(fields["user"], 100)
        self.assertEqual(fields["steal"], 30)
        self.assertEqual(fields["guest"], 7)

    def test_steal_fraction(self):
        # Total ticks: user 60 + system 20 + idle 100 + softirq 2 + steal
        # 20 = 202; guest ticks are inside user and not counted twice.
        self.assertAlmostEqual(stats.steal_fraction(self.BEFORE, self.AFTER), 20 / 202)

    def test_short_line_pads_missing_fields(self):
        fields = stats.parse_cpu_line("cpu 1 2 3 4")
        self.assertEqual(fields["idle"], 4)
        self.assertEqual(fields["steal"], 0)

    def test_rejects_per_cpu_line(self):
        with self.assertRaises(ValueError):
            stats.parse_cpu_line("cpu0 1 2 3 4 5 6 7 8")

    def test_no_elapsed_ticks(self):
        self.assertIsNone(stats.steal_fraction(self.BEFORE, self.BEFORE))


class Remainder(unittest.TestCase):
    def test_layers_plus_remainder_is_the_op(self):
        ops = [100.0, 120.0, 110.0, 130.0]
        layers = {"sim": 200.0, "rt": 120.0}
        per_op, rest = stats.remainder_us(ops, layers)
        self.assertEqual(per_op, {"sim": 50.0, "rt": 30.0})
        self.assertAlmostEqual(rest, 35.0)
        self.assertAlmostEqual(sum(per_op.values()) + rest, sum(ops) / len(ops))

    def test_no_layers(self):
        per_op, rest = stats.remainder_us([4.0, 6.0], {})
        self.assertEqual(per_op, {})
        self.assertEqual(rest, 5.0)

    def test_no_ops(self):
        with self.assertRaises(ValueError):
            stats.remainder_us([], {"sim": 1.0})


if __name__ == "__main__":
    unittest.main()
