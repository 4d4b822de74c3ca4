"""Readers for what tdc_run and tdc_traced print: the --cache-stats
line, the --serve latency/reliability tables, and the span log."""

import re
from dataclasses import dataclass, field

_CACHE_RE = re.compile(
    r"^cache: (\d+) hits \((\d+) memory, (\d+) disk\), (\d+) misses, "
    r"(\d+) stored, (\d+) corrupt$", re.M)


def parse_cache_stats(text):
    """The last 'cache: ...' line of @p text as a dict, or None."""
    matches = _CACHE_RE.findall(text)
    if not matches:
        return None
    hits, memory, disk, misses, stored, corrupt = map(int, matches[-1])
    return {"hits": hits, "memory_hits": memory, "disk_hits": disk,
            "misses": misses, "stored": stored, "corrupt": corrupt}


def strip_cache_line(text):
    """@p text without its 'cache: ...' lines (they differ cold vs warm)."""
    return "".join(line for line in text.splitlines(keepends=True)
                   if not line.startswith("cache: "))


def _tables(text):
    """Every aligned table in @p text: (headers, {first cell: row dict}).

    A table is a header line, a dashed rule, then rows up to the first
    line whose cell count differs from the header's or that heads the
    next table. Header cells are separated by two or more spaces (a
    cell may hold one space, as in 'RBW stolen'); row cells by any
    whitespace.
    """
    lines = text.splitlines() + [""]
    rules = {i for i, line in enumerate(lines)
             if line and set(line) == {"-"}}
    tables = []
    for i in sorted(rules):
        if i == 0:
            continue
        headers = re.split(r"\s{2,}", lines[i - 1].strip())
        rows = {}
        for j in range(i + 1, len(lines)):
            cells = lines[j].split()
            if len(cells) != len(headers) or j + 1 in rules:
                break
            rows[cells[0]] = dict(zip(headers, cells))
        tables.append((headers, rows))
    return tables


def _number(cell):
    return float(cell.rstrip("%"))


def parse_serve_report(text):
    """The --serve report: per-shard and 'all' rows of both tables.

    Returns {"latency": {row: {column: float}}, "reliability": {...}};
    raises ValueError when either table is missing.
    """
    report = {}
    for headers, rows in _tables(text):
        if headers[0] != "Shard":
            continue
        kind = ("latency" if "p99" in headers
                else "reliability" if "DUE" in headers else None)
        if kind is not None:
            report[kind] = {name: {h: _number(v) for h, v in row.items()
                                   if h != "Shard"}
                            for name, row in rows.items()}
    for kind in ("latency", "reliability"):
        if "all" not in report.get(kind, {}):
            raise ValueError(f"serve report has no {kind} table")
    return report


@dataclass
class Span:
    id: int
    parent: int
    thread: int
    start: int  # ns, steady clock
    end: int
    arg: int
    name: str

    @property
    def seconds(self):
        return (self.end - self.start) / 1e9


@dataclass
class SpanLog:
    probes: set = field(default_factory=set)   # wrappers compiled in
    spans: list = field(default_factory=list)
    counters: dict = field(default_factory=dict)  # name -> [calls, ns]


def parse_span_log(text):
    """Parse the file tdc_traced writes to $PERFBENCH_SPANS."""
    log = SpanLog()
    for lineno, line in enumerate(text.splitlines(), 1):
        if not line or line.startswith("#"):
            continue
        kind, *rest = line.split(" ")
        if kind == "P" and len(rest) == 1:
            log.probes.add(rest[0])
        elif kind == "S" and len(rest) == 7:
            *numbers, name = rest
            log.spans.append(Span(*map(int, numbers), name))
        elif kind == "C" and len(rest) == 4:
            _, calls, ns, name = rest
            total = log.counters.setdefault(name, [0, 0])
            total[0] += int(calls)
            total[1] += int(ns)
        else:
            raise ValueError(f"span log line {lineno}: {line!r}")
    return log


def covered_ns(intervals, lo, hi):
    """Length of the union of @p intervals clipped to [lo, hi]."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """span id -> self time in ns: its duration minus the part of its
    interval that its child spans (on any thread) cover."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {s.id: (s.end - s.start) -
            covered_ns(children.get(s.id, ()), s.start, s.end)
            for s in spans}
