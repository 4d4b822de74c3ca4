"""Every per-layer metric BENCHMARK.json names is produced or explicitly
absent, and the wrap table resolves against nm output."""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(BENCH_DIR, "tools"))
from harness import layers, parse  # noqa: E402
import resolve_wraps  # noqa: E402

with open(os.path.join(BENCH_DIR, "wraps.json")) as f:
    WRAPS = json.load(f)["wraps"]
PROBES = {w["probe"] for w in WRAPS}


def benchmark_json():
    with open(os.path.join(os.path.dirname(BENCH_DIR),
                           "BENCHMARK.json")) as f:
        return json.load(f)


def traced_run(probes):
    """A small traced run touching every layer, with @p probes compiled in."""
    S = parse.Span
    spans = [
        S(0, -1, 0, 0, 1_000_000_000, 0, layers.TDCRUN),
        S(1, 0, 0, 10, 20, 0, layers.PARSE_SCHEME),
        S(2, 0, 0, 11, 21, 0, layers.PARSE_FAULT),
        S(3, 0, 0, 100, 400, 2, layers.BATCH),
        S(4, 3, 0, 110, 390, 1000, layers.SIM_RUN),
        S(5 | 1 << 40, 3, 1, 120, 380, 1000, layers.SIM_RUN),
        S(6, 0, 0, 500, 600, 1000, layers.SIM_RUN),
        S(7, 0, 0, 600, 700, 0, layers.GRID),
        S(8, 7, 0, 610, 690, 50, layers.INJECT),
        S(9, 8, 0, 611, 689, 0, layers.CACHE_CALLS[0]),
        S(10, 7, 0, 691, 699, 4, layers.LIFETIME),
        S(11, 10, 0, 692, 698, 0, layers.CACHE_CALLS[1]),
        S(12, 0, 0, 700, 710, 0, layers.CACHE_CALLS[2]),
        S(13, 0, 0, 710, 720, 0, layers.RENDER),
        S(14, 0, 0, 720, 730, 0, layers.BUILD),
        S(15, 0, 0, 730, 900, 0, layers.SERVE),
    ]
    log = parse.SpanLog(probes=set(probes),
                        spans=[s for s in spans if s.name in probes],
                        counters={layers.READ: [10, 100],
                                  layers.WRITE: [5, 50],
                                  layers.ARRAY_READ: [20, 200],
                                  layers.ARRAY_WRITE: [6, 60]})
    from test_parse import SERVE_REPORT
    return layers.TracedRun(log=log, stdout=SERVE_REPORT, threads=2,
                            wall_s=1.5, untraced_wall_s=1.0,
                            cache_dir_bytes=4096)


class LayerMetricsTest(unittest.TestCase):
    def test_names_and_units_match_benchmark_json(self):
        per_layer = {m["name"]: m["unit"]
                     for m in benchmark_json()["per_layer"]}
        self.assertEqual(per_layer, layers.UNITS)

    def test_metric_probes_are_in_the_wrap_table(self):
        for name, _unit, probes, _compute in layers.METRICS:
            for probe in probes:
                self.assertIn(probe, PROBES, name)

    def test_all_present_every_metric_is_a_number(self):
        values = layers.layer_metrics(traced_run(PROBES))
        self.assertEqual(set(values), set(layers.UNITS))
        for name, value in values.items():
            self.assertIsInstance(value, float, name)

    def test_each_absent_probe_marks_its_metrics_absent(self):
        for probe in PROBES:
            values = layers.layer_metrics(traced_run(PROBES - {probe}))
            self.assertEqual(set(values), set(layers.UNITS), probe)
            for name, _unit, probes, _compute in layers.METRICS:
                if probe in probes:
                    self.assertIsNone(values[name], (probe, name))
                else:
                    self.assertIsInstance(values[name], float,
                                          (probe, name))

    def test_values(self):
        v = layers.layer_metrics(traced_run(PROBES))
        self.assertEqual(v["cpu.sim_runs"], 3)
        self.assertAlmostEqual(v["cpu.serial_sim_s"], 100e-9)
        # (280 + 260) ns of simulation inside a 300 ns batch, 2 threads.
        self.assertAlmostEqual(v["cpu.batch_parallel_eff"], 540 / 600)
        self.assertEqual(v["scheme.inject_trials"], 50)
        self.assertAlmostEqual(v["scheme.grid_parallel_eff"], 80 / 200)
        # outcome (78 ns) + memoize (6 ns) + reals (10 ns): cache calls
        # nested in cells still count, only cache-in-cache nesting not.
        self.assertAlmostEqual(v["reliability.cache_call_s"], 94e-9)
        self.assertEqual(v["core.store_reads"], 10)
        self.assertEqual(v["sim_p99_ticks"], 15)
        self.assertEqual(v["sim_due_per_mreq"], 87 / 1000 * 1e6)
        self.assertAlmostEqual(v["service.shard_max_over_mean"], 1.4)
        self.assertAlmostEqual(v["service.rbw_steal_frac"], 239 / 300)
        self.assertEqual(v["reliability.cache_hit_ratio"], 0.0)
        self.assertAlmostEqual(v["driver.startup_s"], 0.5)
        self.assertAlmostEqual(v["trace.overhead_frac"], 0.5)


class ResolveWrapsTest(unittest.TestCase):
    def test_split_by_nm_symbols(self):
        symbols = {w["symbol"] for w in WRAPS[1:]}
        present, absent = resolve_wraps.resolve(WRAPS, symbols)
        self.assertEqual(absent, WRAPS[:1])
        self.assertEqual(len(present), len(WRAPS) - 1)

    def test_config_header_gates_absent_wrappers_off(self):
        header = resolve_wraps.config_header(WRAPS, WRAPS[1:])
        self.assertIn(f"#define PERFBENCH_HAVE_{WRAPS[0]['macro']} 0",
                      header)
        self.assertIn(f"#define PERFBENCH_HAVE_{WRAPS[1]['macro']} 1",
                      header)

    def test_table_entries_are_unique(self):
        for key in ("probe", "macro", "symbol"):
            values = [w[key] for w in WRAPS]
            self.assertEqual(len(values), len(set(values)), key)


if __name__ == "__main__":
    unittest.main()
