"""Turns raw per-monitor traces into one unified, flagged trace.

Two sliding-window rules populate the flag bits: a cross-monitor window
(default 5 s) marks the same want seen by different monitors, and a larger
per-monitor window (default 31 s) marks periodic re-broadcasts of wants
that never resolved. Both rules read one table of the last time each
monitor saw each want, in one pass; a record may carry both bits,
mirroring the inherent ambiguity between shifted re-broadcasts and
genuine inter-monitor duplicates.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import count, islice, repeat
from operator import attrgetter, itemgetter, le
from typing import Iterable, Mapping, Sequence

from .core import (
    FLAG_INTER_MONITOR_DUPLICATE,
    FLAG_REBROADCAST,
    Cid,
    NodeId,
    RequestType,
    TraceRecord,
    to_ns,
)
from .errors import InputError

DEFAULT_DUP_WINDOW_S = 5.0
DEFAULT_REBROADCAST_WINDOW_S = 31.0

_CANCEL = RequestType.CANCEL
_timestamp = attrgetter("timestamp_ns")
_monitor = attrgetter("monitor")


@dataclass(frozen=True)
class UnifiedTrace:
    """Time-ordered records from one or more monitors, ties broken by
    (monitor, input position)."""

    records: tuple[TraceRecord, ...]
    provenance: tuple[str, ...]

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def unify(
    traces: Mapping[str, Sequence[TraceRecord]] | Iterable[Sequence[TraceRecord]],
) -> UnifiedTrace:
    """K-way merge of per-monitor traces by timestamp. Drops nothing.

    Inputs must each be sorted by timestamp; violations raise InputError
    naming the monitor and offset.
    """
    if isinstance(traces, Mapping):
        sequences = [traces[name] for name in sorted(traces)]
    else:
        sequences = [list(seq) for seq in traces]
    streams = []
    monitors: set[str] = set()
    for k, seq in enumerate(sequences):
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
    """Set both flag bits in one pass over the records; other bits are kept.

    Records match when source node, request type and cid all agree. The
    duplicate bit goes on a record preceded, within ``window_dup_s``, by a
    matching record from a *different* monitor, so the earliest record of
    a duplicate group stays unflagged. The re-broadcast bit goes on a
    record within ``window_rebroadcast_s`` of the previous matching record
    from the *same* monitor; chains extend through flagged members, so a
    periodic re-broadcast train is flagged entirely except for its first
    record. Idempotent. Both windows must be finite.
    """
    dup_ns = to_ns(window_dup_s, "window_dup_s")
    reb_ns = to_ns(window_rebroadcast_s, "window_rebroadcast_s")
    # (peer, request type value, cid) -> monitor -> time it last saw that
    # want; keyed by the type's value, as an Enum member hashes in Python
    last_seen: dict[tuple[NodeId, str, Cid], dict[str, int]] = {}
    out = []
    for r in trace.records:
        t, monitor = r.timestamp_ns, r.monitor
        key = (r.peer, r.request_type._value_, r.cid)
        seen = last_seen.get(key)
        if seen is None:
            seen = last_seen[key] = {}
        flags = r.flags & ~(FLAG_INTER_MONITOR_DUPLICATE | FLAG_REBROADCAST)
        prev = seen.get(monitor)
        if prev is not None and t - prev <= reb_ns:
            flags |= FLAG_REBROADCAST
        for m, ts in seen.items():
            if m != monitor and t - ts <= dup_ns:
                flags |= FLAG_INTER_MONITOR_DUPLICATE
                break
        out.append(r if flags == r.flags else r.with_flags(flags))
        seen[monitor] = t
    return UnifiedTrace(tuple(out), trace.provenance)


def filter_trace(
    trace: UnifiedTrace,
    *,
    drop_duplicates: bool = False,
    drop_rebroadcasts: bool = False,
    drop_cancels: bool = False,
) -> UnifiedTrace:
    """Remove flagged categories, preserving order."""
    out = [
        r
        for r in trace.records
        if not (
            (drop_duplicates and r.is_duplicate)
            or (drop_rebroadcasts and r.is_rebroadcast)
            or (drop_cancels and r.request_type is _CANCEL)
        )
    ]
    return UnifiedTrace(tuple(out), trace.provenance)
