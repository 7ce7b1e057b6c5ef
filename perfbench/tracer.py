"""Spans and counts around the package's layers, recorded from outside.

Tracer.patch() replaces public functions at the module globals where the
pipeline looks them up (their import sites) with wrappers that record a
span each: name, start, end, parent span, job id and attributes.  Spans
stay in memory until the run ends.  Tracer.unpatch() restores the
originals, so untraced jobs run the package untouched.

With the CLI's default thread pool, rank spans run on worker threads.
A span opened on a thread with no open span of its own takes the
innermost open span of the job's main thread as parent.  A span's self
time is its duration minus the union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import defaultdict

import gridpersist.approximation as approximation
import gridpersist.cli as cli
import gridpersist.compression as compression
import gridpersist.grid as grid
import gridpersist.mobius as mobius
import gridpersist.pmod as pmod

# (module, global name, span name); each function is wrapped in a span
SPANNED = (
    (cli, "parse_pmod", "pmod.parse"),
    (cli, "rank_invariant", "grid.rank_invariant"),
    (cli, "rank_of_sum", "approximation.rank_of_sum"),
    (cli, "format_signed_sum", "pmod.format"),
    (pmod, "validate", "grid.validate"),
    (grid, "mat_mul", "ffmat.mat_mul"),
    (grid, "path_map_table", "grid.path_map_table"),
    (compression, "path_map_table", "grid.path_map_table"),
    (approximation, "compressed_multiplicity_function", "compression.compress"),
    (approximation, "mobius_invert", "mobius.invert"),
)
RANK_SITES = ((compression, "compression"), (grid, "grid"))
BUILDERS = (("hstack", "h"), ("vstack", "v"), ("block2x2", "b"))
RANK_KINDS = ("r", "h", "v", "b")
LOOKUPS = {
    compression.POINT: 1,
    compression.ARROW: 1,
    compression.TWO_SOURCES_ONE_SINK: 3,
    compression.ONE_SOURCE_TWO_SINKS: 3,
    compression.TWO_SOURCES_TWO_SINKS: 4,
}

PER_LAYER_UNITS = {
    **{f"ffmat.rank_s.{k}": "s" for k in RANK_KINDS},
    **{f"ffmat.rank.calls.{k}": "count" for k in RANK_KINDS},
    "ffmat.rank.cells": "count",
    "ffmat.rank.shapes": "count",
    "ffmat.rank.repeats": "count",
    "ffmat.rank_share": "ratio",
    "ffmat.mat_mul_s": "s",
    "ffmat.mat_mul.calls": "count",
    "grid.path_map_table_s": "s",
    "grid.validate_s": "s",
    "compression.compress_s": "s",
    "compression.self_s": "s",
    "compression.lookups": "count",
    "compression.rank_cache_hit_ratio": "ratio",
    "mobius.invert_s": "s",
    "mobius.invert_share": "ratio",
    "mobius.terms": "count",
    "intervals.enumerate_s": "s",
    "intervals.count": "count",
    "grid.rank_invariant_s": "s",
    "approximation.rank_of_sum_s": "s",
    "approximation.rank_of_sum.calls": "count",
    "pmod.parse_s": "s",
    "pmod.input_bytes": "bytes",
    "pmod.format_s": "s",
    "approximation.nnz": "count",
    "approximation.l1": "count",
    "cli.output_s": "s",
    "cli.self_s": "s",
    "trace.job_s_p50": "s",
    "trace.overhead_s": "s",
}
# Layers that only one command runs: always 0 s on the other workloads, so
# they go to the result file and the report but not to the run's metrics.
# cli.output_s covers them all.
ONE_COMMAND_ONLY = ("grid.rank_invariant_s", "approximation.rank_of_sum_s", "pmod.format_s")
# Counts that depend on thread timing, so two traced runs may differ.
TIMING_DEPENDENT = ("ffmat.rank.repeats",)


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "attrs")

    def __init__(self, id, name, start, parent, job, attrs):
        self.id, self.name, self.start, self.end = id, name, start, start
        self.parent, self.job, self.attrs = parent, job, attrs

    def to_list(self) -> list:
        return [self.id, self.name, self.start, self.end, self.parent, self.job, self.attrs]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
        self.job: int | None = None
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._lock = threading.Lock()
        self._tags: dict[int, tuple] = {}
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count(1)

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, attrs=None) -> Span:
        stack = self._stack()
        outer = stack or self._main_stack
        span = Span(next(self._ids), name, time.perf_counter(),
                    outer[-1].id if outer else None, self.job, attrs)
        stack.append(span)
        self.spans.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()

    def count(self, key: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[self.job][key] += amount

    def run_job(self, job: int, fn, *args):
        """Call fn(*args) as job `job`, inside a 'cli.main' span."""
        self.job = job
        self._main_stack = self._stack()
        span = self.open("cli.main")
        try:
            return fn(*args)
        finally:
            self.close(span)
            self.job = None

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(span)
        return wrapper

    def _parse(self, fn):
        @functools.wraps(fn)
        def wrapper(text):
            self.count("pmod.input_bytes", len(text.encode()))
            return fn(text)
        return wrapper

    def _enumerate(self, fn):
        @functools.wraps(fn)
        def wrapper(m, n):
            intervals = fn(m, n)
            with self._lock:
                self.counts[self.job]["intervals.count"] = len(intervals)
            return intervals
        return wrapper

    def _rank(self, site, fn):
        @functools.wraps(fn)
        def wrapper(a):
            # The key names the table matrices the argument was built from,
            # so two calls on the same rank have the same key.
            key = (site,) + self._tags.pop(id(a), ("r", id(a)))
            span = self.open("ffmat.rank", (site, key[1], a.rows, a.cols, key))
            try:
                return fn(a)
            finally:
                self.close(span)
        return wrapper

    def _builder(self, kind, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            out = fn(*args)
            self._tags[id(out)] = (kind,) + tuple(id(a) for a in args)
            return out
        return wrapper

    def _classify(self, fn):
        @functools.wraps(fn)
        def wrapper(I):
            shape = fn(I)
            self.count("compression.lookups", LOOKUPS[shape.kind])
            return shape
        return wrapper

    def _cover_joins(self, fn):
        @functools.wraps(fn)
        def wrapper(*args):
            terms = 0
            for item in fn(*args):
                terms += 1
                yield item
            self.count("mobius.terms", terms)
        return wrapper

    def _approximation(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            approx = fn(*args, **kwargs)
            self.count("approximation.nnz", len(approx.coeffs))
            self.count("approximation.l1", sum(abs(c) for c in approx.coeffs.values()))
            return approx
        return wrapper

    def _set(self, module, name, wrapper) -> None:
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, wrapper)

    def patch(self) -> None:
        self._set(cli, "parse_pmod", self._parse(cli.parse_pmod))
        for module in (compression, mobius):
            self._set(module, "enumerate_intervals", self._spanned(
                "intervals.enumerate", self._enumerate(module.enumerate_intervals)))
        for module, name, span_name in SPANNED:
            self._set(module, name, self._spanned(span_name, getattr(module, name)))
        for module, site in RANK_SITES:
            self._set(module, "mat_rank", self._rank(site, module.mat_rank))
        for name, kind in BUILDERS:
            self._set(compression, name, self._builder(kind, getattr(compression, name)))
        self._set(compression, "classify_ss", self._classify(compression.classify_ss))
        self._set(mobius, "cover_subset_joins", self._cover_joins(mobius.cover_subset_joins))
        self._set(cli, "interval_approximation", self._approximation(cli.interval_approximation))

    def unpatch(self) -> None:
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)
        self._tags.clear()

    # -- per-layer metrics ----------------------------------------------

    def job_metrics(self, job: int) -> dict[str, float]:
        """Per-layer times (seconds) and counts of one traced job."""
        spans = [s for s in self.spans if s.job == job]
        by_name = defaultdict(list)
        children = defaultdict(list)
        for s in spans:
            by_name[s.name].append(s)
            children[s.parent].append(s)

        def covered(name, keep=lambda s: True):
            return union_length((s.start, s.end) for s in by_name[name] if keep(s))

        def self_time(name):
            total = 0.0
            for s in by_name[name]:
                kids = [(max(c.start, s.start), min(c.end, s.end)) for c in children[s.id]]
                total += (s.end - s.start) - union_length(k for k in kids if k[1] > k[0])
            return total

        ranks = by_name["ffmat.rank"]
        # distinct ranks by key; the thread pool's rank cache can compute one twice
        distinct = {s.attrs[4]: s for s in ranks}.values()
        out: dict[str, float] = {}
        for kind in RANK_KINDS:
            out[f"ffmat.rank_s.{kind}"] = covered("ffmat.rank", lambda s, k=kind: s.attrs[1] == k)
            out[f"ffmat.rank.calls.{kind}"] = sum(1 for s in distinct if s.attrs[1] == kind)
        out["ffmat.rank.cells"] = sum(s.attrs[2] * s.attrs[3] for s in distinct)
        out["ffmat.rank.shapes"] = len({(s.attrs[2], s.attrs[3]) for s in ranks})
        out["ffmat.rank.repeats"] = len(ranks) - len(distinct)
        out["ffmat.mat_mul_s"] = covered("ffmat.mat_mul")
        out["ffmat.mat_mul.calls"] = len(by_name["ffmat.mat_mul"])
        out["grid.path_map_table_s"] = covered("grid.path_map_table")
        out["grid.validate_s"] = covered("grid.validate")
        out["compression.compress_s"] = covered("compression.compress")
        out["compression.self_s"] = self_time("compression.compress")
        counts = self.counts[job]
        lookups = counts["compression.lookups"]
        compress_ranks = sum(1 for s in ranks if s.attrs[0] == "compression")
        out["compression.lookups"] = lookups
        out["compression.rank_cache_hit_ratio"] = 1.0 - compress_ranks / lookups
        out["mobius.invert_s"] = covered("mobius.invert")
        out["mobius.terms"] = counts["mobius.terms"]
        out["intervals.enumerate_s"] = covered("intervals.enumerate")
        out["intervals.count"] = counts["intervals.count"]
        out["grid.rank_invariant_s"] = covered("grid.rank_invariant")
        out["approximation.rank_of_sum_s"] = covered("approximation.rank_of_sum")
        out["approximation.rank_of_sum.calls"] = len(by_name["approximation.rank_of_sum"])
        out["pmod.parse_s"] = covered("pmod.parse")
        out["pmod.input_bytes"] = counts["pmod.input_bytes"]
        out["pmod.format_s"] = covered("pmod.format")
        out["approximation.nnz"] = counts["approximation.nnz"]
        out["approximation.l1"] = counts["approximation.l1"]
        out["cli.output_s"] = union_length(
            (s.start, s.end) for name in ("grid.rank_invariant", "approximation.rank_of_sum",
                                          "pmod.format") for s in by_name[name])
        out["cli.self_s"] = self_time("cli.main")
        out["ffmat.rank_share"] = covered("ffmat.rank") / covered("cli.main")
        out["mobius.invert_share"] = out["mobius.invert_s"] / covered("cli.main")
        return out

    def dump(self) -> dict:
        return {
            "fields": ["id", "name", "start", "end", "parent", "job", "attrs"],
            "spans": [s.to_list() for s in self.spans],
            "counts": {str(job): dict(c) for job, c in self.counts.items()},
        }
