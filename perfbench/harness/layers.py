"""Per-layer metrics of one traced run, computed from its span log,
its stdout and its cache directory.

Each metric names the probes (wrapped functions, see wraps.json) it
needs. When one of them is absent from the traced build, because a
refactor renamed or re-signatured the function, the metric's value is
None ("absent"), never 0.
"""

import statistics
from dataclasses import dataclass

from .parse import parse_cache_stats, parse_serve_report, self_times

SIM_RUN = "cpu.CmpSimulator::run"
BATCH = "cpu.runCmpBatch"
GRID = "reliability.runCampaignGrid"
CACHE_CALLS = ("reliability.ResultCache::outcome",
               "reliability.ResultCache::memoize",
               "reliability.ResultCache::reals")
RENDER = "reliability.CampaignResult::render"
INJECT = "scheme.cachedInjectAndRecover"
LIFETIME = "scheme.cachedSchemeLifetime"
PARSE_SCHEME = "scheme.parseScheme"
PARSE_FAULT = "array.parseFaultModel"
BUILD = "service.buildRequests"
SERVE = "service.CacheService::serve"
READ = "core.TwoDimCacheStore::readWord"
WRITE = "core.TwoDimCacheStore::writeWord"
ARRAY_READ = "core.TwoDimArray::readWord"
ARRAY_WRITE = "core.TwoDimArray::writeWord"
STR = "driver.RunContext::str"
TDCRUN = "driver.tdcRun"


@dataclass
class TracedRun:
    log: object            # parse.SpanLog
    stdout: str
    threads: int
    wall_s: float          # traced process wall time
    untraced_wall_s: float  # untraced process wall time, same inputs
    cache_dir_bytes: int


class _View:
    """Span queries over one log: by name, ancestry, outermost-only."""

    def __init__(self, run):
        self.run = run
        self.spans = run.log.spans
        self.by_id = {s.id: s for s in self.spans}
        self._self = None

    def named(self, *names):
        return [s for s in self.spans if s.name in names]

    def ancestor(self, span, names):
        """Nearest enclosing span named in @p names, or None."""
        parent = self.by_id.get(span.parent)
        while parent is not None and parent.name not in names:
            parent = self.by_id.get(parent.parent)
        return parent

    def has_ancestor(self, span, names):
        return self.ancestor(span, names) is not None

    def outermost(self, *names):
        """Spans of @p names not nested in another span of @p names."""
        return [s for s in self.named(*names)
                if not self.has_ancestor(s, names)]

    def total_s(self, spans):
        return sum(s.seconds for s in spans)

    def self_s(self, span):
        if self._self is None:
            self._self = self_times(self.spans)
        return self._self[span.id] / 1e9

    def counter(self, name):
        return self.run.log.counters.get(name, [0, 0])

    def cache(self, key):
        stats = parse_cache_stats(self.run.stdout)
        return stats[key] if stats else 0

    def serve(self):
        try:
            return parse_serve_report(self.run.stdout)
        except ValueError:
            return None


def _ratio(num, den):
    return num / den if den else 0.0


def _sim_cycles_per_s(v):
    runs = v.named(SIM_RUN)
    return _ratio(sum(s.arg for s in runs), v.total_s(runs))


def _batch_eff(v):
    batches = v.outermost(BATCH)
    inside = [s for s in v.named(SIM_RUN) if v.has_ancestor(s, (BATCH,))]
    return _ratio(v.total_s(inside), v.total_s(batches) * v.run.threads)


def _grid_eff(v):
    """Cell busy time over (wall time x threads) of the grids holding
    injection cells."""
    cells, grids = [], {}
    for cell in v.named(INJECT):
        grid = v.ancestor(cell, (GRID,))
        if grid is not None:
            cells.append(cell)
            grids[grid.id] = grid
    return _ratio(v.total_s(cells),
                  v.total_s(grids.values()) * v.run.threads)


def _hit_ratio(v):
    hits, misses = v.cache("hits"), v.cache("misses")
    return _ratio(hits, hits + misses)


def _serve(fn):
    """A metric of the --serve report; 0 in runs that print none."""
    def compute(v):
        report = v.serve()
        return 0.0 if report is None else fn(report)
    return compute


def _all(table, column):
    return _serve(lambda r: r[table]["all"][column])


def _per_mreq(column):
    return _serve(lambda r: _ratio(r["reliability"]["all"][column] * 1e6,
                                   r["latency"]["all"]["Requests"]))


def _shard_skew(report):
    shards = [row["Requests"] for name, row in report["latency"].items()
              if name != "all"]
    return _ratio(max(shards), statistics.mean(shards))


def _rbw_steal_frac(report):
    row = report["latency"]["all"]
    stolen, charged = row["RBW stolen"], row["RBW charged"]
    return _ratio(stolen, stolen + charged)


def _tdcrun_s(v):
    return v.total_s(v.outermost(TDCRUN))


def _startup_s(v):
    return v.run.wall_s - _tdcrun_s(v)


# (name, unit, probes needed, compute)
METRICS = [
    ("cpu.sim_runs", "count", (SIM_RUN,), lambda v: len(v.named(SIM_RUN))),
    ("cpu.sim_busy_s", "s", (SIM_RUN,),
     lambda v: v.total_s(v.named(SIM_RUN))),
    ("cpu.sim_cycles_per_s", "1/s", (SIM_RUN,), _sim_cycles_per_s),
    ("cpu.batch_s", "s", (BATCH,), lambda v: v.total_s(v.outermost(BATCH))),
    ("cpu.serial_sim_s", "s", (SIM_RUN, BATCH),
     lambda v: v.total_s([s for s in v.named(SIM_RUN)
                          if not v.has_ancestor(s, (BATCH,))])),
    ("cpu.batch_parallel_eff", "ratio", (SIM_RUN, BATCH), _batch_eff),

    ("reliability.grid_calls", "count", (GRID,),
     lambda v: len(v.named(GRID))),
    ("reliability.grid_s", "s", (GRID,),
     lambda v: v.total_s(v.outermost(GRID))),
    ("reliability.cache_hits", "count", (), lambda v: v.cache("hits")),
    ("reliability.cache_misses", "count", (), lambda v: v.cache("misses")),
    ("reliability.cache_stored", "count", (), lambda v: v.cache("stored")),
    ("reliability.cache_hit_ratio", "ratio", (), _hit_ratio),
    ("reliability.cache_call_s", "s", CACHE_CALLS,
     lambda v: v.total_s(v.outermost(*CACHE_CALLS))),
    ("reliability.cache_dir_bytes", "B", (),
     lambda v: v.run.cache_dir_bytes),

    ("scheme.inject_cells", "count", (INJECT,),
     lambda v: len(v.named(INJECT))),
    ("scheme.inject_trials", "count", (INJECT,),
     lambda v: sum(s.arg for s in v.named(INJECT))),
    ("scheme.inject_busy_s", "s", (INJECT,),
     lambda v: v.total_s(v.named(INJECT))),
    ("scheme.trials_per_busy_s", "1/s", (INJECT,),
     lambda v: _ratio(sum(s.arg for s in v.named(INJECT)),
                      v.total_s(v.named(INJECT)))),
    ("scheme.grid_parallel_eff", "ratio", (INJECT, GRID), _grid_eff),
    ("scheme.lifetime_cells", "count", (LIFETIME,),
     lambda v: len(v.named(LIFETIME))),
    ("scheme.lifetime_busy_s", "s", (LIFETIME,),
     lambda v: v.total_s(v.named(LIFETIME))),
    ("scheme.parse_calls", "count", (PARSE_SCHEME,),
     lambda v: len(v.named(PARSE_SCHEME))),
    ("array.fault_parse_calls", "count", (PARSE_FAULT,),
     lambda v: len(v.named(PARSE_FAULT))),

    ("core.store_reads", "count", (READ,), lambda v: v.counter(READ)[0]),
    ("core.store_writes", "count", (WRITE,), lambda v: v.counter(WRITE)[0]),
    ("core.store_read_s", "s", (READ,), lambda v: v.counter(READ)[1] / 1e9),
    ("core.store_write_s", "s", (WRITE,),
     lambda v: v.counter(WRITE)[1] / 1e9),
    ("core.array_reads", "count", (ARRAY_READ,),
     lambda v: v.counter(ARRAY_READ)[0]),
    ("core.array_writes", "count", (ARRAY_WRITE,),
     lambda v: v.counter(ARRAY_WRITE)[0]),
    ("core.array_read_s", "s", (ARRAY_READ,),
     lambda v: v.counter(ARRAY_READ)[1] / 1e9),
    ("core.array_write_s", "s", (ARRAY_WRITE,),
     lambda v: v.counter(ARRAY_WRITE)[1] / 1e9),

    ("service.build_s", "s", (BUILD,), lambda v: v.total_s(v.named(BUILD))),
    ("service.serve_s", "s", (SERVE,), lambda v: v.total_s(v.named(SERVE))),
    ("service.shard_max_over_mean", "ratio", (), _serve(_shard_skew)),
    ("service.rbw_steal_frac", "ratio", (), _serve(_rbw_steal_frac)),
    ("service.sweep_row_reads", "count", (),
     _all("reliability", "SweepReads")),
    ("service.scrub_due", "count", (), _all("reliability", "ScrubDUE")),
    ("sim_p99_ticks", "ticks", (), _all("latency", "p99")),
    ("sim_due_per_mreq", "1/Mreq", (), _per_mreq("DUE")),
    ("sim_sdc_per_mreq", "1/Mreq", (), _per_mreq("SDC")),

    ("driver.tdcRun_s", "s", (TDCRUN,), _tdcrun_s),
    ("driver.tdcRun_self_s", "s", (TDCRUN,),
     lambda v: sum(v.self_s(s) for s in v.outermost(TDCRUN))),
    ("driver.render_s", "s", (RENDER, STR),
     lambda v: v.total_s(v.outermost(RENDER, STR))),
    ("driver.startup_s", "s", (TDCRUN,), _startup_s),
    ("trace.overhead_frac", "ratio", (),
     lambda v: _ratio(v.run.wall_s - v.run.untraced_wall_s,
                      v.run.untraced_wall_s)),
]

UNITS = {name: unit for name, unit, _, _ in METRICS}


def layer_metrics(run):
    """name -> value for every metric; None marks an absent probe."""
    view = _View(run)
    out = {}
    for name, _unit, probes, compute in METRICS:
        if all(p in run.log.probes for p in probes):
            out[name] = float(compute(view))
        else:
            out[name] = None
    return out
