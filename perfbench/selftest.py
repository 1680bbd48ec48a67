"""Self-tests of the benchmark's own arithmetic.

    python3 perfbench/selftest.py

Standard library only; the program under test is not imported.
"""

from __future__ import annotations

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import layers  # noqa: E402
import pbstats  # noqa: E402
import tracer as tracing  # noqa: E402

STATUS = """Name:\tpython3
VmPeak:\t  512000 kB
VmSize:\t  500000 kB
VmHWM:\t   81234 kB
VmRSS:\t   80000 kB
"""


def span(span_id, parent, name, start, end):
    return (span_id, parent, name, start, end)


class TailPercentile(unittest.TestCase):
    def test_highest_percentile_with_ten_samples_beyond(self):
        self.assertIsNone(pbstats.tail_percentile(19))
        self.assertEqual(pbstats.tail_percentile(20), 50.0)
        self.assertEqual(pbstats.tail_percentile(39), 50.0)
        self.assertEqual(pbstats.tail_percentile(40), 75.0)
        self.assertEqual(pbstats.tail_percentile(99), 75.0)
        self.assertEqual(pbstats.tail_percentile(100), 90.0)
        self.assertEqual(pbstats.tail_percentile(999), 90.0)
        self.assertEqual(pbstats.tail_percentile(1000), 99.0)
        self.assertEqual(pbstats.tail_percentile(10000), 99.9)

    def test_p90_needs_a_hundred_samples(self):
        values = [float(v) for v in range(1, 101)]
        self.assertAlmostEqual(pbstats.p90_or_max(values)[0], 90.1)
        self.assertIsNone(pbstats.p90_or_max(values)[1])
        value, note = pbstats.p90_or_max(values[:99])
        self.assertEqual(value, 99.0)
        self.assertIn("fewer than 100", note)

    def test_percentile_interpolates_like_numpy(self):
        values = [4.0, 1.0, 3.0, 2.0]
        self.assertEqual(pbstats.percentile(values, 0), 1.0)
        self.assertEqual(pbstats.percentile(values, 100), 4.0)
        self.assertAlmostEqual(pbstats.percentile(values, 50), 2.5)
        self.assertAlmostEqual(pbstats.percentile(values, 90), 3.7)


class Spread(unittest.TestCase):
    def test_quartile_distance_over_median(self):
        values = [float(v) for v in range(1, 11)]
        q1, _, q3 = (2.75, 5.5, 8.25)
        self.assertAlmostEqual(pbstats.spread(values), (q3 - q1) / 5.5)

    def test_constant_series_has_no_spread(self):
        self.assertEqual(pbstats.spread([2.0] * 5), 0.0)


class SelfTime(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            span(1, 0, "a", 0, 100),
            span(2, 1, "b", 10, 30),
            span(3, 1, "c", 40, 90),
            span(4, 3, "d", 50, 60),
        ]
        got = pbstats.self_times(spans)
        self.assertAlmostEqual(got["a"] * 1e9, 30)
        self.assertAlmostEqual(got["b"] * 1e9, 20)
        self.assertAlmostEqual(got["c"] * 1e9, 40)
        self.assertAlmostEqual(got["d"] * 1e9, 10)
        self.assertAlmostEqual(sum(got.values()) * 1e9, 100)

    def test_same_name_nesting_is_not_double_counted(self):
        spans = [span(1, 0, "x", 0, 50), span(2, 1, "x", 10, 40)]
        self.assertAlmostEqual(pbstats.self_times(spans)["x"] * 1e9, 50)

    def test_cache_hits_skip_touches_inside_admit(self):
        spans = [
            span(1, 0, "cache_tier.admit", 0, 10),
            span(2, 1, "cache_tier.touch", 2, 3),
            span(3, 0, "cache_tier.touch", 20, 21),
        ]
        got = layers.from_trace([spans], [])
        self.assertEqual(got["cache_tier.hits"], 1)
        self.assertEqual(got["cache_tier.misses"], 1)
        self.assertAlmostEqual(got["cache_tier.hit_ratio"], 0.5)

    def test_processes_fold_separately(self):
        # the same ids in two processes must not adopt each other's children
        main = [span(1, 0, "backend.run", 0, 100)]
        worker = [span(1, 0, "analysis.histogram.accumulate", 0, 40),
                  span(2, 1, "backend.run", 0, 10)]
        got = layers.from_trace([main, worker], [("backend.samples", 5.0, 0)])
        self.assertAlmostEqual(got["backend.run_s"] * 1e9, 110)
        self.assertAlmostEqual(got["analysis.histogram.accumulate_s"] * 1e9, 30)
        self.assertEqual(got["backend.samples"], 5.0)


class Unattributed(unittest.TestCase):
    def test_union_of_overlapping_spans(self):
        spans = [span(1, 0, "a", 0, 10), span(2, 0, "b", 5, 20), span(3, 0, "c", 30, 40)]
        self.assertAlmostEqual(pbstats.unattributed_share(spans, 0, 50), 1 - 30 / 50)

    def test_spans_are_clipped_to_the_window(self):
        spans = [span(1, 0, "a", 0, 20), span(2, 0, "b", 30, 60)]
        self.assertAlmostEqual(pbstats.unattributed_share(spans, 15, 35), 0.5)

    def test_nested_spans_cover_their_parent_only_once(self):
        spans = [span(1, 0, "a", 0, 10), span(2, 1, "b", 2, 8)]
        self.assertAlmostEqual(pbstats.unattributed_share(spans, 0, 20), 0.5)


class VmHWM(unittest.TestCase):
    def test_parse(self):
        self.assertEqual(pbstats.parse_vmhwm_kb(STATUS), 81234)
        with self.assertRaises(ValueError):
            pbstats.parse_vmhwm_kb("VmRSS:\t1 kB\n")
        with self.assertRaises(ValueError):
            pbstats.parse_vmhwm_kb("VmHWM:\t12 MB\n")

    def test_exec_child_does_not_inherit_launcher_peak(self):
        ballast = bytearray(96 * 2**20)  # touch 96 MiB in this process
        ballast[:: 4096] = b"x" * len(ballast[:: 4096])
        child = subprocess.run(
            [sys.executable, "-S", "-c",
             "print(open('/proc/self/status').read())"],
            capture_output=True, text=True, check=True,
        )
        own = pbstats.read_vmhwm_kb()
        self.assertGreater(own, 96 * 1024)
        self.assertLess(pbstats.parse_vmhwm_kb(child.stdout), 64 * 1024)
        del ballast


class ErrorRate(unittest.TestCase):
    def test_failures_count_against_attempts(self):
        self.assertEqual(pbstats.error_rate(10, 0), 0.0)
        self.assertAlmostEqual(pbstats.error_rate(10, 3), 0.3)
        with self.assertRaises(ValueError):
            pbstats.error_rate(0, 0)
        with self.assertRaises(ValueError):
            pbstats.error_rate(5, 6)


class Tracing(unittest.TestCase):
    def test_calls_and_iterators_nest(self):
        tracer = tracing.Tracer()

        def inner(x):
            return x + 1

        traced_inner = tracer.wrap(inner, "inner")

        def produce(n):
            for i in range(n):
                yield traced_inner(i)

        traced_produce = tracer.wrap(produce, "produce",
                                     per_item=lambda item, args: {"items": 1})

        self.assertEqual(list(traced_produce(3)), [1, 2, 3])
        self.assertEqual(traced_inner(1), 2)
        by_id = {s[0]: s for s in tracer.spans}
        parents = [by_id[s[1]][2] if s[1] else None for s in tracer.spans if s[2] == "inner"]
        self.assertEqual(parents, ["produce", "produce", "produce", None])
        self.assertEqual(sum(1 for s in tracer.spans if s[2] == "produce"), 5)
        self.assertEqual(sum(e[1] for e in tracer.events if e[0] == "items"), 3)

    def test_closing_the_wrapper_closes_the_iterator(self):
        tracer = tracing.Tracer()
        closed = []

        def produce():
            try:
                yield 1
                yield 2
            finally:
                closed.append(True)

        iterator = tracer.wrap(produce, "produce")()
        next(iterator)
        iterator.close()
        self.assertEqual(closed, [True])


if __name__ == "__main__":
    unittest.main()
