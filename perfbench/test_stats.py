"""Self-tests of the benchmark's own arithmetic and readouts.

    python3 perfbench/test_stats.py

Needs no build: covers the percentile, quartile, RSS-readout and
span self-time code in stats.py, and the build guard and output checks
in run.py.
"""
import os
import subprocess
import sys
import unittest
import zlib

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import stats  # noqa: E402


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 90), 90)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)

    def test_is_always_a_sample(self):
        values = [5.0, 1.0, 3.0]
        self.assertEqual(stats.percentile(values, 50), 3.0)
        self.assertEqual(stats.percentile(values, 1), 1.0)
        self.assertEqual(stats.percentile(values, 90), 5.0)
        self.assertEqual(stats.percentile([7], 90), 7)

    def test_empty_is_an_error(self):
        with self.assertRaises(ValueError):
            stats.percentile([], 50)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        # quantiles(n=4), exclusive method, of 1..10: 2.75, 5.5, 8.25.
        values = [10, 1, 9, 2, 8, 3, 7, 4, 6, 5]
        self.assertAlmostEqual(stats.quartile_spread(values),
                               (8.25 - 2.75) / 5.5)

    def test_constant_has_no_spread(self):
        self.assertEqual(stats.quartile_spread([4.0] * 10), 0.0)


class RssTest(unittest.TestCase):
    def test_readout_in_mb(self):
        class Fake:
            ru_maxrss = 2048  # KiB
        self.assertAlmostEqual(stats.rss_mb(Fake()), 2.097152)

    def test_child_peak_is_seen(self):
        # A child that touches 64 MB must report a peak of at least that.
        child = ("b = bytearray(64 * 1000 * 1000)\n"
                 "for i in range(0, len(b), 4096): b[i] = 1\n")
        p = subprocess.Popen([sys.executable, "-c", child])
        _, status, rusage = os.wait4(p.pid, 0)
        p.returncode = os.waitstatus_to_exitcode(status)
        self.assertEqual(p.returncode, 0)
        self.assertGreaterEqual(stats.rss_mb(rusage), 64)
        self.assertLess(stats.rss_mb(rusage), 256)


class SelfTimeTest(unittest.TestCase):
    def test_children_are_subtracted_once(self):
        spans = [
            {"id": 1, "parent": 0, "name": "run", "start": 0, "end": 100},
            {"id": 2, "parent": 1, "name": "a", "start": 10, "end": 40},
            {"id": 3, "parent": 1, "name": "a", "start": 30, "end": 50},
            {"id": 4, "parent": 2, "name": "b", "start": 15, "end": 20},
        ]
        self_ns = stats.self_times(spans)
        self.assertEqual(self_ns["run"], 100 - 40)  # children cover 10..50
        self.assertEqual(self_ns["a"], (30 - 5) + 20)
        self.assertEqual(self_ns["b"], 5)


class GuardTest(unittest.TestCase):
    release = {"CMAKE_BUILD_TYPE": "Release", "JSONSKI_TELEMETRY": "OFF"}
    tool = {"ndebug": True, "telemetry": False}

    def test_shipped_build_passes(self):
        self.assertEqual(run.guard(self.release, self.tool,
                                   {"telemetry_compiled": False}), [])

    def test_refuses_debug_and_telemetry(self):
        self.assertTrue(run.guard(dict(self.release, CMAKE_BUILD_TYPE="Debug"),
                                  self.tool, {}))
        self.assertTrue(run.guard(dict(self.release, JSONSKI_TELEMETRY="ON"),
                                  self.tool, {}))
        self.assertTrue(run.guard(self.release, self.tool,
                                  {"telemetry_compiled": True}))
        self.assertTrue(run.guard(self.release,
                                  dict(self.tool, ndebug=False), {}))


class OutputCheckTest(unittest.TestCase):
    def test_print_count_and_set(self):
        out = b'"a"\n"b"\n'
        printing = run.Invocation("k", [], None, 1, True,
                                  [(2, len(out), zlib.crc32(out))],
                                  ["$[*]"], True)
        self.assertTrue(printing.correct(out))
        self.assertFalse(printing.correct(b'"a"\n"c"\n'))
        counting = run.Invocation("k", [], None, 1, True, [(2, 0, 0)],
                                  ["$[*]"], False)
        self.assertTrue(counting.correct(b"2\n"))
        self.assertFalse(counting.correct(b"3\n"))
        multi = run.Invocation("k", [], None, 1, True, [(2, 0, 0), (0, 0, 0)],
                               ["$.a", "$.b"], False)
        self.assertTrue(multi.correct(b"q0 $.a: 2\nq1 $.b: 0\n"))
        self.assertFalse(multi.correct(b"q0 $.a: 2\nq1 $.b: 1\n"))


if __name__ == "__main__":
    unittest.main()
