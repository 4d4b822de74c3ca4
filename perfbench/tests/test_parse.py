"""Tests of the harness's readers: python3 -m unittest discover perfbench/tests"""

import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from harness import parse  # noqa: E402

SERVE_REPORT = """\
serve trace:zipf.trace: 1000 requests, 2 shards x 4 banks (EDC8+Intv4, EDC32 vertical (256 data rows, 64b words)), 1000 ticks, 1000.0 req/ktick

Shard  Requests  Reads  Writes  RBW stolen  RBW charged  Steal%  p50  p99  p999  max  mean  req/ktick
-----------------------------------------------------------------------------------------------------
0      700       490    210     150         60           71.4%   2    18   28    810  4.11  700.0
1      300       210    90      89          1            98.9%   2    3    3     40   2.08  300.0
all    1000      700    300     239         61           79.7%   2    15   26    810  3.24  1000.0
Shard  Corrected  DUE  SDC  Sweeps  SweepReads  ScrubSteps  ScrubFix  ScrubDUE  Faults  InlineFix  RBW reads
------------------------------------------------------------------------------------------------------------
0      25         64   1    407     50210       124999      3         315       30      0          210
1      24         23   3    108     26134       124999      5         56        30      0          90
all    49         87   4    515     76344       249998      8         371       60      0          300
cache: 0 hits (0 memory, 0 disk), 0 misses, 0 stored, 0 corrupt
"""


class CacheStatsTest(unittest.TestCase):
    def test_reads_every_counter(self):
        text = "table\ncache: 145 hits (22 memory, 123 disk), 7 misses, " \
               "5 stored, 1 corrupt\n"
        self.assertEqual(parse.parse_cache_stats(text), {
            "hits": 145, "memory_hits": 22, "disk_hits": 123,
            "misses": 7, "stored": 5, "corrupt": 1})

    def test_missing_line_is_none(self):
        self.assertIsNone(parse.parse_cache_stats("no stats here\n"))

    def test_takes_the_last_line(self):
        text = ("cache: 1 hits (1 memory, 0 disk), 0 misses, 0 stored, "
                "0 corrupt\ncache: 2 hits (0 memory, 2 disk), 3 misses, "
                "3 stored, 0 corrupt\n")
        self.assertEqual(parse.parse_cache_stats(text)["misses"], 3)

    def test_strip_cache_line_keeps_everything_else(self):
        text = "a\ncache: 0 hits (0 memory, 0 disk), 0 misses, 0 stored, " \
               "0 corrupt\nb\n"
        self.assertEqual(parse.strip_cache_line(text), "a\nb\n")


class ServeReportTest(unittest.TestCase):
    def setUp(self):
        self.report = parse.parse_serve_report(SERVE_REPORT)

    def test_latency_p99_and_multiword_columns(self):
        lat = self.report["latency"]
        self.assertEqual(lat["all"]["p99"], 15)
        self.assertEqual(lat["0"]["p99"], 18)
        self.assertEqual(lat["all"]["RBW stolen"], 239)
        self.assertEqual(lat["all"]["RBW charged"], 61)
        self.assertAlmostEqual(lat["1"]["Steal%"], 98.9)

    def test_per_shard_requests(self):
        lat = self.report["latency"]
        self.assertEqual([lat[s]["Requests"] for s in ("0", "1", "all")],
                         [700, 300, 1000])

    def test_adjacent_table_header_is_not_a_row(self):
        self.assertEqual(set(self.report["latency"]), {"0", "1", "all"})

    def test_reliability_due_sdc(self):
        rel = self.report["reliability"]
        self.assertEqual(rel["all"]["DUE"], 87)
        self.assertEqual(rel["all"]["SDC"], 4)
        self.assertEqual(rel["all"]["ScrubDUE"], 371)
        self.assertEqual(rel["all"]["SweepReads"], 76344)
        self.assertEqual(rel["1"]["RBW reads"], 90)

    def test_missing_table_raises(self):
        latency_only = SERVE_REPORT.split("Shard  Corrected")[0]
        with self.assertRaises(ValueError):
            parse.parse_serve_report(latency_only)


class SpanLogTest(unittest.TestCase):
    LOG = """\
# perfbench span log v1
P driver.tdcRun
P core.TwoDimCacheStore::readWord
S 0 -1 0 100 1100 0 driver.tdcRun
S 1 0 0 200 500 7 reliability.runCampaignGrid
C 0 10 400 core.TwoDimCacheStore::readWord
C 1 5 100 core.TwoDimCacheStore::readWord
"""

    def test_reads_probes_spans_counters(self):
        log = parse.parse_span_log(self.LOG)
        self.assertEqual(log.probes, {"driver.tdcRun",
                                      "core.TwoDimCacheStore::readWord"})
        self.assertEqual(len(log.spans), 2)
        grid = log.spans[1]
        self.assertEqual((grid.id, grid.parent, grid.start, grid.end,
                          grid.arg), (1, 0, 200, 500, 7))
        self.assertAlmostEqual(log.spans[0].seconds, 1e-6)
        # Counters sum over threads.
        self.assertEqual(log.counters["core.TwoDimCacheStore::readWord"],
                         [15, 500])

    def test_malformed_line_raises(self):
        with self.assertRaises(ValueError):
            parse.parse_span_log("S 1 2 3\n")


def span(id, parent, start, end, name="x", thread=0):
    return parse.Span(id, parent, thread, start, end, 0, name)


class SelfTimeTest(unittest.TestCase):
    def test_parent_minus_children(self):
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 30),
                 span(2, 0, 50, 60)]
        self.assertEqual(parse.self_times(spans), {0: 70, 1: 20, 2: 10})

    def test_overlapping_children_count_once(self):
        # Two workers run in parallel under one grid: their union, not
        # their sum, is covered.
        spans = [span(0, -1, 0, 100), span(1, 0, 10, 60, thread=1),
                 span(2, 0, 20, 70, thread=2), span(3, 0, 65, 68)]
        self.assertEqual(parse.self_times(spans)[0], 100 - 60)

    def test_children_clipped_to_parent(self):
        spans = [span(0, -1, 10, 20), span(1, 0, 5, 15)]
        self.assertEqual(parse.self_times(spans)[0], 5)

    def test_covered_ns_of_nothing(self):
        self.assertEqual(parse.covered_ns([], 0, 10), 0)


if __name__ == "__main__":
    unittest.main()
