"""Unit tests of the benchmark harness itself.

Run from the root of a checkout::

    python3 -m unittest routebench.test_harness
"""

from __future__ import annotations

import json
import statistics
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from routebench import drive, inputs  # noqa: E402
from routebench.refclock import (  # noqa: E402
    RefClock,
    local_reference,
    reference_loop,
)
from routebench.spans import END, NAME, PARENT, START, Tracer  # noqa: E402
from routebench.stats import (  # noqa: E402
    MIN_BEYOND,
    beyond,
    open_loop_timing,
    percentile,
    self_times,
    spread,
    tail_percentile,
    windowed_median,
)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        samples = list(range(1, 101))
        self.assertEqual(percentile(samples, 0.5), 50)
        self.assertEqual(percentile(samples, 0.9), 90)
        self.assertEqual(percentile(samples, 1.0), 100)
        self.assertEqual(percentile([7.0], 0.99), 7.0)

    def test_tail_needs_ten_beyond(self):
        self.assertEqual(beyond(list(range(100)), 0.9), MIN_BEYOND)
        self.assertEqual(tail_percentile(list(range(100)), 0.9), 89)
        with self.assertRaises(ValueError):
            tail_percentile(list(range(99)), 0.9)
        self.assertEqual(tail_percentile(list(range(1000)), 0.99), 989)
        with self.assertRaises(ValueError):
            tail_percentile(list(range(999)), 0.99)
        # Smoke mode reports the value anyway.
        self.assertEqual(tail_percentile(list(range(20)), 0.9, strict=False), 17)

    def test_ties_do_not_count_as_beyond(self):
        samples = [1.0] * 95 + [2.0] * 5
        self.assertEqual(beyond(samples, 0.9), 5)
        with self.assertRaises(ValueError):
            tail_percentile(samples, 0.9)

    def test_windowed_median_ignores_a_burst_in_one_window(self):
        calm = [1.0, 2.0, 3.0] * 4
        burst = calm[:3] + [50.0, 60.0, 70.0] + calm[6:]
        median = statistics.median
        self.assertEqual(windowed_median(calm, 4, median), 2.0)
        self.assertEqual(windowed_median(burst, 4, median), 2.0)
        slower = [2 * v for v in calm]
        self.assertEqual(windowed_median(slower, 4, median), 4.0)
        self.assertEqual(windowed_median([5.0], 4, median), 5.0)

    def test_spread_matches_the_quartile_rule(self):
        values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
        q1, _, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(spread(values), (q3 - q1) / 14.5)
        self.assertEqual(spread([3.0] * 10), 0.0)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("child", 1.0, 4.0, 0),
            ("grandchild", 2.0, 3.0, 1),
            ("child", 5.0, 6.0, 0),
        ]
        self.assertEqual(self_times(spans), [6.0, 2.0, 1.0, 1.0])

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            ("root", 0.0, 10.0, -1),
            ("a", 1.0, 5.0, 0),
            ("b", 3.0, 7.0, 0),  # concurrent with a
            ("c", 9.0, 12.0, 0),  # runs past its parent: clipped
        ]
        self.assertEqual(self_times(spans)[0], 10.0 - 6.0 - 1.0)

    def test_tracer_records_parents_and_restores(self):
        class Owner:
            @staticmethod
            def inner(x):
                return x + 1

        def outer(x):
            return Owner.inner(x) * 2

        holder = type("Holder", (), {"outer": staticmethod(outer)})
        original = Owner.__dict__["inner"]
        with tempfile.TemporaryDirectory() as tmp:
            tracer = Tracer(tmp)
            tracer.patch(Owner, "inner", staticmethod(
                tracer.wrap("inner", Owner.inner)))
            tracer.patch(holder, "outer", staticmethod(
                tracer.wrap("outer", outer)))
            tracer.op = "op-1"
            self.assertEqual(holder.outer(1), 4)
            tracer.uninstall()
            self.assertIs(Owner.__dict__["inner"], original)
            self.assertEqual(holder.outer(1), 4)
        names = [row[NAME] for row in tracer.spans]
        self.assertEqual(names, ["outer", "inner"])
        self.assertEqual(tracer.spans[1][PARENT], 0)
        self.assertEqual(tracer.spans[0][PARENT], -1)
        self.assertTrue(all(row[4] == "op-1" for row in tracer.spans))
        outer_row, inner_row = tracer.spans
        self.assertLessEqual(outer_row[START], inner_row[START])
        self.assertLessEqual(inner_row[END], outer_row[END])


class OpenLoopTest(unittest.TestCase):
    def test_latency_counts_from_the_scheduled_send(self):
        timing = open_loop_timing(
            scheduled=[0.0, 1.0, 2.0],
            sent=[0.0, 1.5, 2.0],
            done=[0.5, 2.0, 2.1],
        )
        self.assertEqual(timing["latency"], [0.5, 1.0, 2.1 - 2.0])
        self.assertEqual(timing["lateness"], [0.0, 0.5, 0.0])

    def test_misaligned_inputs_are_refused(self):
        with self.assertRaises(ValueError):
            open_loop_timing([0.0], [0.0, 1.0], [1.0])

    def test_schedule_is_seeded_and_recurrences_wait_for_the_original(self):
        rate, gap_s = 20.0, 1.0
        first = inputs.service_schedule(5, 80, rate, 0.7, min_gap_s=gap_s)
        again = inputs.service_schedule(5, 80, rate, 0.7, min_gap_s=gap_s)
        self.assertEqual([j.payload for j in first], [j.payload for j in again])
        self.assertEqual([j.at_s for j in first],
                         [i / rate for i in range(80)])
        recurrences = [j for j in first if j.variant != "new"]
        self.assertTrue(recurrences)
        for job in recurrences:
            self.assertEqual(first[job.origin].variant, "new")
            self.assertGreaterEqual(job.index - job.origin, int(gap_s * rate))


class RefClockTest(unittest.TestCase):
    def test_local_reference_takes_the_nearest_samples(self):
        times = [float(t) for t in range(10)]
        durations = [1.0] * 5 + [2.0] * 5
        self.assertEqual(local_reference(times, durations, 1.2), 1.0)
        self.assertEqual(local_reference(times, durations, 8.0), 2.0)
        self.assertEqual(local_reference(times, durations, -3.0), 1.0)
        self.assertEqual(local_reference(times, durations, 30.0), 2.0)
        # 4.5 lies between the phases: samples 2..6, three of them fast.
        self.assertEqual(local_reference(times, durations, 4.5), 1.0)
        self.assertEqual(local_reference(times, durations, 6.0, nearest=3),
                         2.0)

    def test_fewer_samples_than_nearest_uses_them_all(self):
        self.assertEqual(local_reference([0.0, 1.0], [1.0, 3.0], 0.0), 2.0)
        with self.assertRaises(ValueError):
            local_reference([], [], 0.0)

    def test_a_slow_host_moves_latency_and_divisor_together(self):
        clock = RefClock(0.0)
        # A fast phase (reference 2 ms), then a phase twice as slow.
        clock._samples = [(float(t), 0.002 if t < 10 else 0.004)
                          for t in range(20)]
        ref = clock.ref_ms([0.006, 0.012], [2.0, 17.0])
        self.assertEqual(ref, [3.0, 3.0])
        self.assertAlmostEqual(clock.median_ms(), 3.0)

    def test_reference_work_is_fixed(self):
        self.assertEqual(reference_loop(), reference_loop())
        clock = RefClock(3600.0)
        clock.maybe_sample()
        clock.maybe_sample()  # within the interval: no second sample
        times, durations = clock.samples()
        self.assertEqual(len(times), 1)
        self.assertGreater(durations[0], 0.0)


class MetricTableTest(unittest.TestCase):
    """The harness's unit/direction table agrees with BENCHMARK.json."""

    @classmethod
    def setUpClass(cls):
        cls.bench = json.loads((ROOT / "BENCHMARK.json").read_text())

    def test_end_to_end(self):
        table = drive.SPEC["end_to_end"]
        listed = {m["name"]: m for m in self.bench["end_to_end"]}
        self.assertEqual(set(listed), set(table))
        for name, metric in listed.items():
            self.assertEqual(metric["unit"], table[name]["unit"], name)
            self.assertEqual(metric["better"], table[name]["better"], name)
            self.assertEqual(metric["unit"], drive.unit_of(name), name)
            self.assertLessEqual(metric["bound"], 0.25, name)
        self.assertEqual(
            max(listed.values(), key=lambda m: m["bound"])["bound"],
            listed["setup_s"]["bound"],
        )

    def test_per_layer(self):
        listed = [(m["name"], m["unit"], m["better"])
                  for m in self.bench["per_layer"]]
        expected = [(name, drive.unit_of(name), drive.better_of(name))
                    for name in drive.PER_LAYER]
        self.assertEqual(listed, expected)

    def test_workloads_are_documented(self):
        names = [w["name"] for w in self.bench["workloads"]]
        self.assertEqual(names, list(drive.SPEC["workloads"]))
        for name, spec in drive.SPEC["workloads"].items():
            for key in ("why", "stresses", "bypasses", "default_seed",
                        "held_out_seed", "tail_percentile", "slo_limit_ref_ms"):
                self.assertIn(key, spec, name)
            self.assertNotEqual(spec["default_seed"], spec["held_out_seed"])


if __name__ == "__main__":
    unittest.main()
