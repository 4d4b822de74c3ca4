#!/usr/bin/env python3
"""End-to-end benchmark of tdc_run: four workloads, one process each run.

  python3 perfbench/run.py --workload figures-cmp --seed 1 --seconds 15 \\
      --trace 0 [--threads 4]

Run from the repository root. The first run builds tdc_run and
tdc_traced from source (perfbench/CMakeLists.txt) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench). A run sets
up its inputs, runs the workload's tdc_run process until --seconds have
passed, checks every output, and prints one JSON line last:

  {"correct": ..., "attempted": N, "failed": N, "metrics": {...}}

--trace 0 reports the end-to-end metrics (host wall time, set-up time,
peak RSS, requests per second, pass fraction). --trace 1 alternates the
untraced binary with tdc_traced (the same main linked with --wrap
wrappers that record spans) and reports the per-layer metrics of
harness/layers.py. Workloads, metrics and seed values: NOTES.md.
"""

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from harness import layers, parse, tracegen  # noqa: E402

CMP_FIGURES = ["fig5", "fig6", "ablation"]
INJECT_FIGURES = ["fig3", "related-work", "chipkill", "lifetime"]
ALL_FIGURES = ["fig1", "fig2", "fig3", "fig5", "fig6", "fig7", "fig8",
               "lifetime", "table1", "ablation", "related-work", "chipkill"]

# serve-zipf: the traces are the workload's only seeded input; the
# service's own fault/scrub streams keep a fixed --seed. A run serves
# SERVE_TRACES traces drawn from its seed, because the work of one
# trace depends on it: each DUE read starts a recovery sweep, and DUE
# counts swing several-fold from trace to trace (NOTES.md).
SERVE_REQUESTS = 250_000
SERVE_TRACES = 8
SERVE_WORDS = 16384  # 4 shards x 4 banks x 256 rows x 4 words (i4)
SERVE_ARGS = ["--shards", "4", "--scrub-interval", "16",
              "--fault-interval", "65536", "--fault", "8x8",
              "--seed", "12345"]

SETUP_REPEATS = 2  # set-ups per run that are not one per process
MIN_RUNS = 3       # measured processes per run, however long they take
RUN_BUDGET_S = 170  # a hung child is killed once a run has used this

_live = set()  # pids of running children, killed on the way out


class Proc:
    """One finished child process."""

    def __init__(self, argv, rc, wall_s, rss_mb, stdout, stderr):
        self.argv, self.rc, self.wall_s = argv, rc, wall_s
        self.rss_mb, self.stdout, self.stderr = rss_mb, stdout, stderr
        self.ok = rc == 0


class Bench:
    """Runs processes in a scratch directory; tracks every outcome."""

    def __init__(self, bins, work, threads):
        self.bins, self.work, self.threads = bins, work, threads
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.procs = []
        self.errors = []

    def run(self, argv, env=None):
        out_path = os.path.join(self.work, ".stdout")
        err_path = os.path.join(self.work, ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            child = subprocess.Popen(argv, cwd=self.work, stdout=out,
                                     stderr=err, env=env)
            _live.add(child.pid)
            timer = threading.Timer(
                max(1.0, self.deadline - time.monotonic()), _kill,
                [child.pid])
            timer.start()
            try:
                _, status, usage = os.wait4(child.pid, 0)
            finally:
                timer.cancel()
                _live.discard(child.pid)
            wall = time.perf_counter() - start
            child.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as f:
            stdout = f.read()
        with open(err_path, "rb") as f:
            stderr = f.read()
        proc = Proc(argv, child.returncode, wall, usage.ru_maxrss / 1024.0,
                    stdout, stderr)
        if not proc.ok:
            self.error(f"{' '.join(argv[:3])}... exited {proc.rc}: "
                       f"{stderr.decode(errors='replace').strip()[-300:]}")
        self.procs.append(proc)
        return proc

    def error(self, message):
        self.errors.append(message)

    def expect(self, proc, condition, message):
        if not condition:
            proc.ok = False
            self.error(message)

    def same_stdout(self, procs, what):
        """Processes given the same input printed the same bytes: the
        same arguments, whatever the binary and fresh cache dir."""
        first = {}
        for p in procs:
            ref = first.setdefault(input_key(p.argv[1:]), p)
            self.expect(p, p.stdout == ref.stdout,
                        f"{what}: stdout differs between runs")

    def tdc(self, args, traced=False):
        exe = self.bins["tdc_traced" if traced else "tdc_run"]
        return [exe] + args + ["--cache-stats",
                               "--threads", str(self.threads)]

    def outcome(self):
        failed = sum(not p.ok for p in self.procs)
        attempted = len(self.procs)
        if self.errors and failed == 0:  # a set-up check, not a process
            attempted, failed = attempted + 1, 1
        return attempted, failed


def _kill(pid):
    try:
        os.kill(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def input_key(args):
    """What a process computes: its arguments, cache dir aside."""
    args = list(args)
    if "--cache-dir" in args:
        args[args.index("--cache-dir") + 1] = None
    return tuple(args)


def figure_args(figures):
    return [a for f in figures for a in ("--figure", f)]


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


# --- workloads ----------------------------------------------------------
#
# Each workload object has prepare(bench, seed, repeats) -> the set-up
# seconds of the inputs it makes once per run (filled caches, traces);
# setup(bench, i) -> (args, setup_s): the arguments of a process on the
# run's i-th input, made ready, and the set-up seconds that process paid
# for itself (a fresh cache dir), or None; check(bench, runs, traced)
# for the workload's own output checks; and units, the requests one
# process completes (--figure arguments or trace records).


class ColdFigures:
    """Figures computed cold: each process gets a fresh empty cache dir."""

    def __init__(self, figures):
        self.figures = figures
        self.units = len(figures)
        self.caches = 0

    def prepare(self, bench, seed, repeats):
        return []

    def setup(self, bench, i):
        start = time.perf_counter()
        cache = f"cache-{self.caches}"
        self.caches += 1
        os.mkdir(os.path.join(bench.work, cache))
        # Preflight: the binary starts and registers every figure.
        listing = bench.run([bench.bins["tdc_run"], "--list-figures"])
        for f in self.figures:
            bench.expect(listing, re.search(
                rf"^\s+{re.escape(f)}\s", listing.stdout.decode(), re.M),
                f"figure {f} is not registered")
        args = figure_args(self.figures) + ["--cache-dir", cache]
        return args, time.perf_counter() - start

    def check(self, bench, runs, traced):
        # Cold tables equal a warm replay's, minus the cache line. A cold
        # run that stored nothing (IPC cells bypass the cache) would only
        # recompute in the replay, which the runs already repeat.
        stats = parse.parse_cache_stats(runs[0].stdout.decode())
        if traced or not stats or stats["stored"] == 0:
            return
        args = runs[0].argv[1:runs[0].argv.index("--cache-stats")]
        replay = bench.run(bench.tdc(args))
        bench.expect(replay, parse.strip_cache_line(replay.stdout.decode())
                     == parse.strip_cache_line(runs[0].stdout.decode()),
                     "warm replay tables differ from the cold run's")


class WarmFigures:
    """All figures against a cache dir one cold run filled in set-up."""

    units = len(ALL_FIGURES)

    def prepare(self, bench, seed, repeats):
        self.caches, self.fills, setups = [], [], []
        for i in range(repeats):
            start = time.perf_counter()
            cache = f"filled-{i}"
            os.mkdir(os.path.join(bench.work, cache))
            self.fills.append(bench.run(bench.tdc(
                figure_args(ALL_FIGURES) + ["--cache-dir", cache])))
            setups.append(time.perf_counter() - start)
            self.caches.append(cache)
        bench.same_stdout(self.fills, "cold fill")
        return setups

    def setup(self, bench, i):
        cache = self.caches[i % len(self.caches)]
        return figure_args(ALL_FIGURES) + ["--cache-dir", cache], None

    def check(self, bench, runs, traced):
        cold = parse.strip_cache_line(self.fills[0].stdout.decode())
        for p in runs:
            text = p.stdout.decode()
            bench.expect(p, parse.strip_cache_line(text) == cold,
                         "warm tables differ from the cold fill's")
            stats = parse.parse_cache_stats(text)
            bench.expect(p, stats is not None and stats["misses"] == 0,
                         "warm run missed the filled cache")


class ServeZipf:
    """--serve over zipf90, 30%-write traces generated from the seed."""

    units = SERVE_REQUESTS

    def prepare(self, bench, seed, repeats):
        self.traces, setups = [], []
        for j in range(SERVE_TRACES):
            start = time.perf_counter()
            data = tracegen.zipf_trace(seed * SERVE_TRACES + j,
                                       SERVE_REQUESTS, SERVE_WORDS)
            name = f"zipf-{j}.trace"
            with open(os.path.join(bench.work, name), "wb") as f:
                f.write(data)
            setups.append(time.perf_counter() - start)
            self.traces.append(name)
        again = tracegen.zipf_trace(seed * SERVE_TRACES + j,
                                    SERVE_REQUESTS, SERVE_WORDS)
        if again != data:
            bench.error("trace generation is not deterministic")
        return setups

    def setup(self, bench, i):
        trace = self.traces[i % len(self.traces)]
        return ["--serve", f"trace:{trace}"] + SERVE_ARGS, None

    def check(self, bench, runs, traced):
        for p in runs:
            try:
                report = parse.parse_serve_report(p.stdout.decode())
                served = report["latency"]["all"]["Requests"]
            except ValueError as e:
                served = str(e)
            bench.expect(p, served == SERVE_REQUESTS,
                         f"serve report: {served} requests served")


WORKLOADS = {
    "figures-cmp": lambda: ColdFigures(CMP_FIGURES),
    "figures-inject": lambda: ColdFigures(INJECT_FIGURES),
    "figures-warm": WarmFigures,
    "serve-zipf": ServeZipf,
}


def measure(bench, workload, seed, seconds):
    """--trace 0: the end-to-end metrics."""
    setups = workload.prepare(bench, seed, SETUP_REPEATS)
    runs = []
    start = time.perf_counter()
    while len(runs) < MIN_RUNS or time.perf_counter() - start < seconds:
        args, setup_s = workload.setup(bench, len(runs))
        if setup_s is not None:
            setups.append(setup_s)
        runs.append(bench.run(bench.tdc(args)))
    bench.same_stdout(runs, "measured runs")
    workload.check(bench, runs, traced=False)

    attempted, failed = bench.outcome()
    return {
        "wall_s": (statistics.median(p.wall_s for p in runs), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p.rss_mb for p in runs), "MB"),
        "req_per_s": (statistics.median(workload.units / p.wall_s
                                        for p in runs),
                      "1/s"),
        "pass_frac": ((attempted - failed) / attempted, "fraction"),
    }


def trace(bench, workload, seed, seconds):
    """--trace 1: untraced/traced pairs on the same input; the per-layer
    metrics, each the median over an input's traced processes, averaged
    over the run's inputs (one input but for serve-zipf's traces)."""
    workload.prepare(bench, seed, 1)
    samples, pairs = {}, []
    start = time.perf_counter()
    while not pairs or time.perf_counter() - start < seconds:
        i = len(pairs) // 2
        args, _ = workload.setup(bench, i)
        plain = bench.run(bench.tdc(args))
        args, _ = workload.setup(bench, i)
        spans = os.path.join(bench.work, f"spans-{i}.txt")
        env = dict(os.environ, PERFBENCH_SPANS=spans)
        traced = bench.run(bench.tdc(args, traced=True), env=env)
        bench.expect(traced, traced.stdout == plain.stdout,
                     "traced stdout differs from tdc_run's")
        pairs += [plain, traced]
        if not traced.ok:
            continue
        with open(spans) as f:
            log = parse.parse_span_log(f.read())
        cache = args[args.index("--cache-dir") + 1] \
            if "--cache-dir" in args else None
        samples.setdefault(input_key(args), []).append(layers.layer_metrics(
            layers.TracedRun(
                log=log, stdout=traced.stdout.decode(),
                threads=bench.threads, wall_s=traced.wall_s,
                untraced_wall_s=plain.wall_s,
                cache_dir_bytes=dir_bytes(os.path.join(bench.work, cache))
                if cache else 0)))
    bench.same_stdout(pairs, "traced pairs")
    workload.check(bench, pairs, traced=True)

    metrics = {}
    for name, unit in layers.UNITS.items():
        per_input = [[s[name] for s in runs] for runs in samples.values()]
        absent = not per_input or any(None in v for v in per_input)
        metrics[name] = (None if absent else statistics.mean(
            statistics.median(v) for v in per_input), unit)
    return metrics


# --- build --------------------------------------------------------------


def build(jobs):
    """Configure once, then build tdc_run + tdc_traced; binary paths."""
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    bdir = os.path.join(root, "perfbench")
    os.makedirs(root, exist_ok=True)
    log_path = os.path.join(root, "perfbench-build.log")
    src = os.path.dirname(os.path.abspath(__file__))
    steps = [["cmake", "--build", bdir, "-j", str(jobs),
              "--target", "tdc_run", "tdc_traced"]]
    if not os.path.exists(os.path.join(bdir, "Makefile")):
        steps.insert(0, ["cmake", "-S", src, "-B", bdir,
                         "-DCMAKE_BUILD_TYPE=Release"])
    with open(log_path, "a") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=log).returncode:
                with open(log_path) as f:
                    tail = f.read()[-2000:]
                sys.exit(f"perfbench: build failed ({' '.join(step)}):\n"
                         f"{tail}")
    return {name: os.path.abspath(os.path.join(bdir, name))
            for name in ("tdc_run", "tdc_traced")}


# --- main ---------------------------------------------------------------


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=4,
                    help="worker threads per tdc_run (capped at nproc)")
    args = ap.parse_args()
    signal.signal(signal.SIGTERM, _terminate)

    threads = max(1, min(args.threads, os.cpu_count() or 1))
    bins = build(threads)
    work = os.path.abspath(os.path.join(
        os.path.dirname(os.path.dirname(bins["tdc_run"])),
        f"work-{args.workload}-{os.getpid()}"))
    os.makedirs(work)
    bench = Bench(bins, work, threads)
    try:
        workload = WORKLOADS[args.workload]()
        run = trace if args.trace else measure
        metrics = run(bench, workload, args.seed, args.seconds)
    finally:
        for pid in list(_live):
            _kill(pid)
            os.waitpid(pid, 0)
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = bench.outcome()
    for message in bench.errors:
        print(f"check failed: {message}")
    for name, (value, unit) in metrics.items():
        print(f"{name:32} {'absent' if value is None else value} {unit}")
    print(json.dumps({
        "correct": not bench.errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
