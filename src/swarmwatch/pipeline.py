"""Turns raw per-monitor traces into one unified, flagged trace.

Two sliding-window rules populate the flag bits: a cross-monitor window
(default 5 s) marks the same want seen by different monitors, and a larger
per-monitor window (default 31 s) marks periodic re-broadcasts of wants
that never resolved. Both rules read the trace's columns: one stable sort
by a (peer, request type, cid) code groups each want's records in trace
order, and per monitor a running maximum carries its latest record
through the group. A record may carry both bits, mirroring the inherent
ambiguity between shifted re-broadcasts and genuine inter-monitor
duplicates.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import count, islice, repeat
from operator import attrgetter, itemgetter, le
from typing import Iterable, Mapping, Sequence

import numpy as np

from .core import (
    FLAG_INTER_MONITOR_DUPLICATE,
    FLAG_REBROADCAST,
    Cid,
    Interner,
    NodeId,
    RequestType,
    TraceRecord,
    to_ns,
)
from .errors import InputError

DEFAULT_DUP_WINDOW_S = 5.0
DEFAULT_REBROADCAST_WINDOW_S = 31.0

_timestamp = attrgetter("timestamp_ns")
_monitor = attrgetter("monitor")
_cid = attrgetter("cid")
_peer = attrgetter("peer")
_address = attrgetter("address")
_request_type = attrgetter("request_type")
_flags = attrgetter("flags")

# request-type column code -> member; REQUEST_TYPES.index finds a member's
# code by identity, where a dict keyed by members would hash each in Python
REQUEST_TYPES = tuple(RequestType)
# the bits mark_flags sets and clears
_MARK_BITS = FLAG_INTER_MONITOR_DUPLICATE | FLAG_REBROADCAST


def _group(records: tuple[TraceRecord, ...], key) -> dict:
    groups = defaultdict(list)
    for k, r in zip(map(key, records), records):
        groups[k].append(r)
    return dict(groups)


def intern_codes(values: Iterable, n: int) -> tuple[np.ndarray, tuple]:
    """An int code for each of the ``n`` values, and the distinct values in
    first-seen order, the value of code i at position i."""
    codes = Interner()
    return np.fromiter(map(codes.__getitem__, values), np.intp, n), tuple(codes.by_code)


@dataclass(frozen=True, eq=False)
class TraceColumns:
    """The record fields the reports read, one array per field in record
    order. ``request_type`` holds indexes into ``REQUEST_TYPES``, and
    ``flagged`` is True for a record carrying any flag bit. ``cid``,
    ``peer`` and ``address`` hold codes from ``intern_codes``; ``cids``, ``peers``
    and ``addresses`` are the distinct values in first-seen order."""

    timestamp_ns: np.ndarray  # int64
    request_type: np.ndarray  # int8
    flagged: np.ndarray  # bool
    cid: np.ndarray
    peer: np.ndarray
    address: np.ndarray
    cids: tuple[Cid, ...]
    peers: tuple[NodeId, ...]
    addresses: tuple[str, ...]


def trace_columns(records: Sequence[TraceRecord]) -> TraceColumns:
    """The columns of ``records``. Timestamps must fit in int64 and request
    types be ``RequestType`` members; InputError names the field otherwise."""
    n = len(records)
    try:
        timestamp_ns = np.fromiter(map(_timestamp, records), np.int64, n)
    except OverflowError:
        raise InputError("a record's timestamp_ns does not fit in int64") from None
    try:
        request_type = np.fromiter(
            map(REQUEST_TYPES.index, map(_request_type, records)), np.int8, n)
    except ValueError:
        bad = next(r.request_type for r in records if r.request_type not in REQUEST_TYPES)
        raise InputError(f"request_type {bad!r} is not a RequestType member") from None
    cid, cids = intern_codes(map(_cid, records), n)
    peer, peers = intern_codes(map(_peer, records), n)
    address, addresses = intern_codes(map(_address, records), n)
    return TraceColumns(
        timestamp_ns=timestamp_ns,
        request_type=request_type,
        # numpy stores an object's truth value in a bool array
        flagged=np.fromiter(map(_flags, records), bool, n),
        cid=cid,
        peer=peer,
        address=address,
        cids=cids,
        peers=peers,
        addresses=addresses,
    )


@dataclass(frozen=True)
class UnifiedTrace:
    """Time-ordered records from one or more monitors, ties broken by
    (monitor, input position).

    ``by_cid`` and ``by_peer`` group the records by cid and by peer, each
    group in trace order, so that a look-up reads only its key's records.
    Each index is built by one pass the first time it is read and then
    kept on the trace; ``records`` is a tuple and the trace is frozen, so
    an index cannot go stale (``mark_flags`` returns a new trace, with
    indexes of its own). The groups are shared: read them, do not change
    them.

    ``columns`` is a third such view, kept the same way: the records as
    ``TraceColumns``, which ``mark_flags`` and the reports in ``analytics``
    read. A trace that ``mark_flags`` returns holds it from the start,
    sharing all but ``flagged`` with its input's."""

    records: tuple[TraceRecord, ...]
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @cached_property
    def by_cid(self) -> dict[Cid, list[TraceRecord]]:
        return _group(self.records, _cid)

    @cached_property
    def by_peer(self) -> dict[NodeId, list[TraceRecord]]:
        return _group(self.records, _peer)

    @cached_property
    def columns(self) -> TraceColumns:
        return trace_columns(self.records)


def unify(traces: Mapping[str, Iterable[TraceRecord]]) -> UnifiedTrace:
    """K-way merge of per-monitor traces by timestamp. Drops nothing.

    Each value is read once, in key order, and must be sorted by timestamp;
    violations raise InputError naming the monitor and offset. The keys
    only order the values: provenance comes from the records' monitors.
    """
    streams = []
    monitors: set[str] = set()
    for k, name in enumerate(sorted(traces)):
        seq = list(traces[name])
        times = list(map(_timestamp, seq))
        names = list(map(_monitor, seq))
        monitors.update(names)
        if not all(map(le, times, islice(times, 1, None))):
            i = next(i for i in range(1, len(times)) if times[i] < times[i - 1])
            raise InputError(f"trace for monitor {names[i]!r} not sorted at offset {i}")
        # a key-less merge of (timestamp, monitor, offset, sequence, record):
        # ties in the first three go to the earlier sequence, as they do in
        # a merge keyed by them, and no two tuples reach the record
        streams.append(zip(times, names, count(), repeat(k), seq))
    merged = tuple(map(itemgetter(4), heapq.merge(*streams)))
    return UnifiedTrace(records=merged, provenance=tuple(sorted(monitors)))


def mark_flags(
    trace: UnifiedTrace,
    *,
    window_dup_s: float = DEFAULT_DUP_WINDOW_S,
    window_rebroadcast_s: float = DEFAULT_REBROADCAST_WINDOW_S,
) -> UnifiedTrace:
    """Set both flag bits from the trace's columns; other bits are kept.

    Records match when source node, request type and cid all agree. The
    duplicate bit goes on a record preceded, within ``window_dup_s``, by a
    matching record from a *different* monitor, so the earliest record of
    a duplicate group stays unflagged. The re-broadcast bit goes on a
    record within ``window_rebroadcast_s`` of the previous matching record
    from the *same* monitor; chains extend through flagged members, so a
    periodic re-broadcast train is flagged entirely except for its first
    record. "Preceded" and "previous" go by trace order: each monitor
    counts with its latest matching record before the one being marked,
    also in a trace that is not sorted by time.

    One stable sort by a (peer, type, cid) code puts each want's records
    together in trace order. For each monitor, a running maximum carries
    the position of its latest record forward through the group: the
    record's own monitor's latest decides the re-broadcast bit, any other
    monitor's the duplicate bit. Only records whose bits change are
    rebuilt, and the returned trace holds its ``columns`` already: the
    input's, with a new ``flagged``. Timestamps must fit in int64 and
    request types be ``RequestType`` members, as for ``trace_columns``;
    InputError names the field otherwise. Idempotent. Both windows must be
    finite.
    """
    dup_ns = to_ns(window_dup_s, "window_dup_s")
    reb_ns = to_ns(window_rebroadcast_s, "window_rebroadcast_s")
    records, cols = trace.records, trace.columns
    n = len(records)
    mon, monitors = intern_codes(map(_monitor, records), n)
    # below len(peers) * len(REQUEST_TYPES) * len(cids): in int64 for any trace in memory
    key = (cols.peer * len(REQUEST_TYPES) + cols.request_type) * len(cols.cids) + cols.cid
    by_key = np.argsort(key, kind="stable")  # each want's records together, in trace order
    key, mon, t = key[by_key], mon[by_key], cols.timestamp_ns[by_key]
    if n and int(t.max()) - int(t.min()) >= 2**63:
        t = t.astype(object)  # a gap would wrap in int64, and Python ints do not
    pos = np.arange(n)
    first = np.ones(n, bool)
    first[1:] = key[1:] != key[:-1]
    start = np.maximum.accumulate(np.where(first, pos, 0))  # where each record's group starts
    dup = np.zeros(n, bool)
    reb = np.zeros(n, bool)
    latest = np.empty(n, np.intp)
    latest[:1] = -1
    for m in range(len(monitors)):
        own = mon == m
        # the position of monitor m's latest record before each position, -1 for none
        np.maximum.accumulate(np.where(own[:-1], pos[:-1], -1), out=latest[1:])
        gap = t - t[latest]
        seen = latest >= start
        reb |= own & seen & (gap <= reb_ns)
        dup |= ~own & seen & (gap <= dup_ns)
    bits = np.empty(n, np.int8)
    bits[by_key] = dup * FLAG_INTER_MONITOR_DUPLICATE + reb * FLAG_REBROADCAST
    # only a record flagged already can hold either bit, or another
    had = np.flatnonzero(cols.flagged).tolist()
    had_flags = [records[i].flags for i in had]
    held = np.zeros(n, np.int8)  # the two bits each record holds
    held[had] = [f & _MARK_BITS for f in had_flags]
    flagged = bits != 0
    flagged[had] |= np.fromiter((f & ~_MARK_BITS for f in had_flags), bool, len(had))
    marks = bits.tolist()
    out = list(records)
    for i in np.flatnonzero(bits != held).tolist():
        r = records[i]
        out[i] = r.with_flags(r.flags & ~_MARK_BITS | marks[i])
    marked = UnifiedTrace(tuple(out), trace.provenance)
    # cached_property keeps its value in the instance dict, so this is the kept view
    marked.__dict__["columns"] = replace(cols, flagged=flagged)
    return marked
