"""Spans recorded from the benchmark's side of each call into swarmwatch.

Each public function is wrapped where its caller looks it up, so
``swarmwatch.cli.write_trace`` is wrapped as well as
``swarmwatch.core.write_trace``. A span keeps its name, start, end, parent
and a few work counts read from the call's arguments or result after the
span has ended. The wrappers are installed only for traced rounds and
removed afterwards, so untraced rounds run the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import statistics
import time
from dataclasses import dataclass, field

clock = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _records(args, kwargs, result):
    return {"records": len(result)}


def _written(args, kwargs, result):
    return {"records": len(args[0]), "bytes": os.path.getsize(args[1])}


def _run(args, kwargs, result):
    traces, conns, truth = result
    return {
        "records": sum(len(v) for v in traces.values()),
        "conn_events": sum(len(v) for v in conns.values()),
        "rebroadcasts": truth.want_emissions_rebroadcast,
    }


def _marked(args, kwargs, result):
    return {
        "records": len(result),
        "duplicates": sum(r.is_duplicate for r in result),
        "rebroadcasts": sum(r.is_rebroadcast for r in result),
    }


def _bootstraps(args, kwargs, result):
    return {"bootstraps": result.bootstraps}


def _iterations(args, kwargs, result):
    return {"iterations": result.iterations}


# (owner, attribute, span name, counts); the owner is where callers look
# the function up
TARGETS = [
    ("swarmwatch.cli", "main", "cli.main", None),
    ("swarmwatch.netsim", "build_network", "netsim.build", None),
    ("swarmwatch.netsim", "run", "netsim.run", _run),
    ("swarmwatch.netsim:Network", "run_for", "netsim.run_for", None),
    ("swarmwatch.core", "read_trace", "core.read", _records),
    ("swarmwatch.core", "read_conn_events", "core.read", _records),
    ("swarmwatch.core", "write_trace", "core.write", _written),
    ("swarmwatch.core", "write_conn_events", "core.write", _written),
    ("swarmwatch.cli", "read_trace", "core.read", _records),
    ("swarmwatch.cli", "read_conn_events", "core.read", _records),
    ("swarmwatch.cli", "write_trace", "core.write", _written),
    ("swarmwatch.cli", "write_conn_events", "core.write", _written),
    ("swarmwatch.pipeline", "unify", "pipeline.unify", None),
    ("swarmwatch.pipeline", "mark_flags", "pipeline.mark", _marked),
    ("swarmwatch.analytics", "popularity", "analytics.popularity", None),
    ("swarmwatch.analytics", "ecdf", "analytics.ecdf", None),
    ("swarmwatch.analytics", "codec_share", "analytics.codec_share", None),
    ("swarmwatch.analytics", "geo_share", "analytics.geo_share", None),
    ("swarmwatch.analytics", "rate_timeseries", "analytics.rate_timeseries", None),
    ("swarmwatch.analytics", "fit_power_law", "analytics.fit", _bootstraps),
    ("swarmwatch.estimators", "peer_set_stats", "estimators.peer_set_stats", None),
    ("swarmwatch.estimators", "estimate_two_monitor", "estimators.solve", None),
    ("swarmwatch.estimators", "solve_coupon_mle", "estimators.solve", _iterations),
    ("swarmwatch.probes", "idw", "probes.idw", None),
    ("swarmwatch.probes", "tnw", "probes.tnw", None),
    ("swarmwatch.probes", "tpi", "probes.tpi", None),
    ("swarmwatch.probes", "probe_gateway", "probes.probe_gateway", None),
    ("swarmwatch.probes", "probe_gateway_once", "probes.round", None),
    ("swarmwatch.probes", "cross_reference", "probes.cross_reference", None),
]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, clock(), 0.0, parent))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> Span:
        span = self.spans[idx]
        span.end = clock()
        self._stack.pop()
        return span

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, fn, name: str, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                span = self._close(idx)
            if counts is not None:
                span.counts = counts(args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        saved = []
        try:
            for owner_path, attr, name, counts in TARGETS:
                module, _, cls = owner_path.partition(":")
                owner = importlib.import_module(module)
                if cls:
                    owner = getattr(owner, cls)
                original = getattr(owner, attr)
                setattr(owner, attr, self.wrap(original, name, counts))
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


# ----------------------------------------------------------------------
# per-layer figures of one traced round


def _ancestors(spans: list[Span], i: int):
    p = spans[i].parent
    while p is not None:
        yield spans[p]
        p = spans[p].parent


# the geo-share over the IPv6-holding database is timed in no end-to-end
# metric, so its spans count in no layer metric either
UNTIMED_STAGE = "bench.geo_share_v6"


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced round's spans."""
    keep = [i for i in range(len(spans))
            if spans[i].name != UNTIMED_STAGE
            and not any(a.name == UNTIMED_STAGE for a in _ancestors(spans, i))]
    by: dict[str, list[int]] = {}
    for i in keep:
        by.setdefault(spans[i].name, []).append(i)

    def total(name):
        return sum(spans[i].dur for i in by.get(name, ()))

    def count(name, key):
        return sum(spans[i].counts.get(key, 0) for i in by.get(name, ()))

    def per(num, den, scale):
        return num / den * scale if den else 0.0

    def ms_list(name):
        return [spans[i].dur * 1e3 for i in by.get(name, ())]

    run_s, records = total("netsim.run"), count("netsim.run", "records")
    interactive = [i for i in by.get("netsim.run_for", ())
                   if not any(a.name == "netsim.run" for a in _ancestors(spans, i))]
    write_s, read_s = total("core.write"), total("core.read")
    mark_s = total("pipeline.mark")
    fit_s = total("analytics.fit")
    pss = by.get("estimators.peer_set_stats", ())
    queries = ms_list("probes.idw") + ms_list("probes.tnw")
    rounds = len(by.get("probes.round", ()))
    tpi = by.get("probes.tpi", ())
    overhead = 0.0
    for i in by.get("cli.main", ()):
        inner = sum(spans[j].dur for j in keep if spans[j].parent == i and spans[j].name in
                    ("netsim.build", "netsim.run", "core.write"))
        overhead += spans[i].dur - inner
    return {
        "netsim.build_s": total("netsim.build"),
        "netsim.run_s": run_s,
        "netsim.run_us_per_record": per(run_s, records, 1e6),
        "netsim.run_for_s": sum(spans[i].dur for i in interactive),
        "netsim.trace_records": records,
        "netsim.conn_events": count("netsim.run", "conn_events"),
        "netsim.rebroadcast_emissions": count("netsim.run", "rebroadcasts"),
        "core.write_s": write_s,
        "core.write_us_per_record": per(write_s, count("core.write", "records"), 1e6),
        "core.bytes_written": count("core.write", "bytes"),
        "core.read_s": read_s,
        "core.read_us_per_record": per(read_s, count("core.read", "records"), 1e6),
        "pipeline.unify_s": total("pipeline.unify"),
        "pipeline.mark_s": mark_s,
        "pipeline.mark_us_per_record": per(mark_s, count("pipeline.mark", "records"), 1e6),
        "pipeline.duplicates": count("pipeline.mark", "duplicates"),
        "pipeline.rebroadcasts": count("pipeline.mark", "rebroadcasts"),
        "analytics.popularity_s": total("analytics.popularity"),
        "analytics.ecdf_s": total("analytics.ecdf"),
        "analytics.codec_share_s": total("analytics.codec_share"),
        "analytics.geo_share_s": total("analytics.geo_share"),
        "analytics.rate_timeseries_s": total("analytics.rate_timeseries"),
        "analytics.fit_s": fit_s,
        "analytics.fit_ms_per_bootstrap": per(fit_s, count("analytics.fit", "bootstraps"), 1e3),
        "estimators.peer_set_stats_s": total("estimators.peer_set_stats"),
        "estimators.peer_set_stats_ms_per_window": per(
            total("estimators.peer_set_stats"), len(pss), 1e3),
        "estimators.solve_s": total("estimators.solve"),
        "estimators.coupon_iterations": count("estimators.solve", "iterations"),
        "probes.idw_ms": statistics.median(ms_list("probes.idw") or [0.0]),
        "probes.tnw_ms": statistics.median(ms_list("probes.tnw") or [0.0]),
        "probes.query_p90_ms": (statistics.quantiles(queries, n=10)[8]
                                if len(queries) > 1 else 0.0),
        "probes.probe_gateway_s": total("probes.probe_gateway"),
        "probes.rounds": rounds,
        "probes.ms_per_round": per(total("probes.probe_gateway"), rounds, 1e3),
        "probes.cross_reference_s": total("probes.cross_reference"),
        "probes.tpi_s": sum(spans[i].dur for i in tpi),
        "probes.tpi_ms_per_probe": per(sum(spans[i].dur for i in tpi), len(tpi), 1e3),
        "cli.simulate_overhead_s": overhead,
    }


def layer_times(spans: list[Span]) -> dict[str, tuple[float, float]]:
    """Total and self time per layer (the part of a span name before the
    dot). Total counts only the outermost span of a layer in each nest;
    self time subtracts the time of every direct child span."""
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.dur
    out: dict[str, list[float]] = {}
    for i, s in enumerate(spans):
        layer = s.name.split(".")[0]
        acc = out.setdefault(layer, [0.0, 0.0])
        if not any(a.name.split(".")[0] == layer for a in _ancestors(spans, i)):
            acc[0] += s.dur
        acc[1] += s.dur - child_time[i]
    return {k: (v[0], v[1]) for k, v in out.items()}
