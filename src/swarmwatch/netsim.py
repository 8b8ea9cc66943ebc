"""Deterministic discrete-event simulator of a content-addressed P2P swarm.

Models the two-step retrieval strategy (broadcast a WANT_HAVE to every
connected peer, fall back to a DHT provider lookup), block caching with LRU
eviction, HTTP gateway frontends, node churn, and passive monitor nodes that
accept all inbound connections and log every want they receive. A request
has a 1 s broadcast window, one want_block out at a time with a 1 s timeout,
and a re-broadcast of its unresolved want every 30 s; nodes keep no record
of their peers' wants, they only answer each one as it arrives.

The DHT is modeled as a global provider-record table filtered by liveness;
lookups are always correct. A node's link table ``latency_ns`` holds live
links only, in link order (a relink goes to the end), and a broadcast sends in
that order. An unlink parks the latency in one end's ``former_ns`` till a relink.
The connection graph is Havel and Hakimi's construction: each regular node
draws a target degree, and each step joins the node of most remaining need,
k, to the next k nodes in (need descending, fresh random tie) order; a
sequence it cannot realize raises ``ConfigError``. Ties and link latencies
come from the seed's stream through numpy's MT19937 loaded from the rng's
state, which draws the floats ``Random.random`` would. A step sorts only the
top need levels that hold k + 1 nodes, the first k + 1 of the full order.
All randomness flows from the config seed, and event ordering is fixed by
(time, insertion sequence), so a given config reproduces bit-identical
traces and ground truth.

Inside a ``Network``, nodes are numbered 0..n-1 in the order they were added
and cids in the order they were first seen. An event is a flat tuple
``(time, sequence, code, a, b, c)`` of plain ints; for a message, a, b and c
are its sender, receiver and cid. The event loop dispatches on the code
through a module-level table of plain functions, so no queued event refers
back to the network. ``NodeId`` and ``Cid`` appear only at the edges:
traces, connection events, ground truth, ``Network.nodes`` and the public
methods' arguments.

A request reads its peers' answers only in its broadcast window, while its
``_pending_answers`` is non-empty or its ``_answers_due`` is at least 0: the
first HAVE and the DHT step close it, and the last awaited DONT_HAVE or the
timeout of an open window starts that step.

Four rules leave out messages that nothing but the requester's bookkeeping
would read. Each applies only while the message log is off, and a logged
run gives the same traces, ground truth and results:

- A cancel goes only to monitors: a regular node keeps no record of its
  peers' wants, so a cancel changes nothing there. So a request's
  ``_notified``, the peers its want is withdrawn from, holds only monitors.
- Rule 1: a node answers ``dont_have`` only while the requester's live
  request still awaits its answer or a probe waits for it; any other one
  would be dropped on arrival, since the awaited set only shrinks.
- Rule 2: a re-broadcast of a never-provided cid goes only to monitors and
  probed peers: no node holds such a cid and the window has closed, so any
  other peer could only answer ``dont_have``, which rule 1 drops.
- Rule 3: any other broadcast of an online requester queues its want only
  to monitors, peers that hold the cid, peers a probe waits on and offline
  peers. It schedules the rest on the request, each with its answer due a
  round trip later: such a peer would log nothing and answer ``dont_have``
  if the window is open when the want lands. So ``_answers_due``, the last
  due time, holds the window open, the timeout counts an answer due at its
  own nanosecond as pending (it sorts before a later-queued ``dont_have``),
  and a timer at the last due time starts the DHT step if the window is
  still open and no queued answer is awaited. A change that could alter
  what a scheduled message does first queues it as that want or answer, and
  delivery then decides as for any message: the peer comes to hold the cid
  (a fetch or ``provide``) before its want lands; either end unlinks or goes
  offline; the requester probes the peer; the requester's next request for
  the cid, or the request's next broadcast, starts while it is in flight.

In three corners, an answer that nothing awaited when it was sent would
reach a request or probe started while it was in flight; rules 1 and 2
leave it out, so there a logged and an unlogged run can differ: a node
requests a cid again within one link latency of its last request's end
(after ``purge_cache``, an eviction, or with no cache); a requester probes
a peer for a cid it asked that peer for less than a round trip before;
``provide`` is called on a never-provided cid while a re-broadcast is in
flight. Rule 3 keeps each message's time but not always its place among
the events of its nanosecond: a scheduled message queued late sorts after
the events queued since the logged run queued it, and the timer's DHT step
runs before events that the last ``dont_have`` would follow. So the runs
can also differ where such a message or timer shares its nanosecond with
another event.
"""

from __future__ import annotations

import math
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from heapq import heappop, heappush
from itertools import accumulate, count
from random import Random
from types import UnionType
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    ID_SPACE,
    NS,
    Cid,
    Codec,
    ConnEvent,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    build_conn_event,
    build_trace_record,
    hash_content,
    to_ns,
)
from .errors import ConfigError, InputError, ProbeUnreachableError, UnknownGatewayError

# Bitswap timing, fixed by the protocol: the broadcast window before the DHT
# fallback, the wait for a requested block, and the period of re-broadcasts
BROADCAST_TIMEOUT_NS = NS
WANT_BLOCK_TIMEOUT_NS = NS
REBROADCAST_INTERVAL_NS = 30 * NS
# how long probe_want_have waits for the target's HAVE or DONT_HAVE
PROBE_TIMEOUT_NS = 2 * NS


class NodeKind(Enum):
    DHT_SERVER = "dht_server"
    DHT_CLIENT = "dht_client"
    GATEWAY = "gateway"
    MONITOR = "monitor"


# gateways participate in the DHT like any publicly reachable node
_DHT_SERVER_KINDS = (NodeKind.DHT_SERVER, NodeKind.GATEWAY)


@dataclass(frozen=True)
class ChurnConfig:
    mean_session_s: float
    mean_offline_s: float


@dataclass(frozen=True)
class ZipfPopularity:
    exponent: float = 1.0


@dataclass(frozen=True)
class UniformPopularity:
    pass


PopularitySampler = Union[ZipfPopularity, UniformPopularity]


@dataclass(frozen=True)
class SimConfig:
    """World parameters. Beyond the headline knobs, a few artifact-level
    switches control workload shaping (deterministic schedules, per-node
    distinct items) used to configure reproducible report mixes."""

    n_dht_servers: int = 0
    n_clients: int = 0
    n_gateways: int = 0
    n_monitors: int = 0
    degree_range: tuple[int, int] = (600, 900)
    catalog_size: int = 0
    popularity_sampler: PopularitySampler = UniformPopularity()
    request_rate_per_node: float = 0.0
    unresolvable_fraction: float = 0.0
    cache_capacity_blocks: int = 1024
    gateway_cache_hit_ratio: float = 0.0
    churn: ChurnConfig | None = None
    duration_s: float = 0.0
    seed: int = 0
    latency_range_s: tuple[float, float] = (0.010, 0.200)
    # monitors attach to this fraction of regular nodes at run start
    monitor_coverage: float = 1.0
    # gateway topology: backing nodes per DNS name; defaults to one each
    gateway_group_sizes: tuple[int, ...] | None = None
    broken_gateway_names: tuple[str, ...] = ()
    gateway_http_rate: float = 0.0
    # catalog composition and origin mix
    codec_weights: tuple[tuple[str, float], ...] | None = None
    country_weights: tuple[tuple[str, float], ...] | None = None
    catalog_replication: int = 1
    # workload shaping: "poisson" arrivals or an evenly spaced "uniform"
    # schedule issuing exactly round(rate * duration) requests per node
    workload: str = "poisson"
    distinct_items_per_node: bool = False
    record_messages: bool = False

    def validate(self) -> None:
        for name, value in _floats(self, ""):
            if not math.isfinite(value):
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name in ("n_dht_servers", "n_clients", "n_gateways", "n_monitors",
                     "catalog_size", "cache_capacity_blocks",
                     "request_rate_per_node", "duration_s", "gateway_http_rate"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        lo, hi = self.latency_range_s
        if lo < 0 or lo > hi:
            raise ConfigError("latency_range_s must satisfy 0 <= low <= high")
        for name in ("codec_weights", "country_weights"):
            weights = [w for _, w in getattr(self, name) or ()]
            if weights and (min(weights) < 0 or sum(weights) == 0):
                raise ConfigError(f"{name} must be non-negative with a positive total")
            if len(dict(getattr(self, name) or ())) < len(weights):
                raise ConfigError(f"{name} lists a name more than once")
        for i, (name, _) in enumerate(self.codec_weights or ()):
            try:
                Codec.from_name(name)
            except InputError:
                raise ConfigError(f"codec_weights[{i}][0]: unknown codec name {name!r}") from None
        dmin, dmax = self.degree_range
        if dmin < 0 or dmin > dmax:
            raise ConfigError("degree_range must satisfy 0 <= min <= max")
        n_regular = self.n_dht_servers + self.n_clients + self.n_gateways
        if dmax > 0 and n_regular > 0 and dmax >= n_regular:
            raise ConfigError(
                f"degree_range: max degree {dmax} impossible with {n_regular} regular nodes"
            )
        for name in ("unresolvable_fraction", "gateway_cache_hit_ratio", "monitor_coverage"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.workload not in ("poisson", "uniform"):
            raise ConfigError(f"workload must be 'poisson' or 'uniform', not {self.workload!r}")
        if self.gateway_group_sizes is not None:
            if sum(self.gateway_group_sizes) != self.n_gateways:
                raise ConfigError("gateway_group_sizes must sum to n_gateways")
            if any(s < 1 for s in self.gateway_group_sizes):
                raise ConfigError("gateway_group_sizes: every group needs at least one node")
        unknown = sorted(set(self.broken_gateway_names) - _gateway_groups(self).keys())
        if unknown:
            raise ConfigError(f"broken_gateway_names: no gateway group is named {unknown[0]!r}")
        churn = self.churn
        if churn is not None and min(churn.mean_session_s, churn.mean_offline_s) <= 0:
            raise ConfigError("churn.mean_session_s and churn.mean_offline_s must be positive")


def _gateway_groups(cfg: SimConfig) -> dict[str, int]:
    """DNS name -> backing-node count of each gateway group; one node each by default."""
    sizes = cfg.gateway_group_sizes or (1,) * cfg.n_gateways
    return {f"gw{i}.example": size for i, size in enumerate(sizes)}


def _floats(value, where: str):
    """``(name, value)`` of every float in a config value, its fields and items."""
    if is_dataclass(value):
        for f in fields(value):
            yield from _floats(getattr(value, f.name), f"{where}.{f.name}" if where else f.name)
    elif isinstance(value, tuple):
        for i, item in enumerate(value):
            yield from _floats(item, f"{where}[{i}]")
    elif isinstance(value, float):
        yield where, value


# popularity-sampler kinds, as named in config files
_SAMPLERS: dict[str, type] = {
    "zipf": ZipfPopularity,
    "uniform": UniformPopularity,
}
_SAMPLER_KINDS = {cls: kind for kind, cls in _SAMPLERS.items()}


def _encode(value):
    if is_dataclass(value):
        doc = {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
        kind = _SAMPLER_KINDS.get(type(value))
        return doc if kind is None else {"kind": kind, **doc}
    if isinstance(value, tuple):
        return [_encode(v) for v in value]
    return value


def config_to_dict(cfg: SimConfig) -> dict:
    """JSON-ready form of ``cfg``; ``config_from_dict`` reads it back."""
    return _encode(cfg)


def _type_error(where: str, expected: str, value) -> ConfigError:
    return ConfigError(
        f"config field {where}: expected {expected}, got {type(value).__name__} {value!r}"
    )


def _decode(tp, value, where: str):
    """Check ``value`` against the declared type ``tp`` and convert JSON
    lists and objects into tuples and dataclasses."""
    if tp is PopularitySampler:
        if not isinstance(value, Mapping):
            raise _type_error(where, "an object", value)
        body = dict(value)
        kind = body.pop("kind", "uniform")
        cls = _SAMPLERS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ConfigError(f"config field {where}: unknown popularity sampler {kind!r}")
        return _decode_dataclass(cls, body, where)
    if is_dataclass(tp):
        return _decode_dataclass(tp, value, where)
    origin, args = get_origin(tp), get_args(tp)
    if origin in (Union, UnionType):  # "X | None"
        if value is None:
            return None
        (inner,) = (a for a in args if a is not type(None))
        return _decode(inner, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise _type_error(where, "a list", value)
        types = args[:1] * len(value) if args[1:] == (...,) else args
        if len(types) != len(value):
            raise ConfigError(
                f"config field {where}: expected {len(types)} items, got {len(value)}"
            )
        return tuple(
            _decode(t, v, f"{where}[{i}]") for i, (t, v) in enumerate(zip(types, value))
        )
    # bool is an int subclass, but never a valid count or quantity
    accepted = (int, float) if tp is float else tp
    if not isinstance(value, accepted) or (isinstance(value, bool) and tp is not bool):
        raise _type_error(where, tp.__name__, value)
    return float(value) if tp is float else value


def _decode_dataclass(cls, value, where: str):
    if not isinstance(value, Mapping):
        raise _type_error(where, "an object", value)
    prefix = f"{where}." if where else ""
    declared = fields(cls)
    unknown = sorted(set(value) - {f.name for f in declared})
    if unknown:
        raise ConfigError(f"unknown config fields: {[prefix + k for k in unknown]}")
    hints = get_type_hints(cls)
    kwargs = {}
    for f in declared:
        if f.name in value:
            kwargs[f.name] = _decode(hints[f.name], value[f.name], prefix + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"config field {prefix + f.name} is missing")
    return cls(**kwargs)


def config_from_dict(d: Mapping) -> SimConfig:
    """Decode and validate a config dict, such as one read from JSON.

    Every field is checked against its declared type; a wrong type, an
    unknown or missing field, or a malformed list raises ``ConfigError``
    naming the field."""
    if not isinstance(d, Mapping):
        raise ConfigError(f"config must be a JSON object, got {type(d).__name__}")
    cfg = _decode_dataclass(SimConfig, d, "")
    cfg.validate()
    return cfg


@dataclass(slots=True)
class SimNode:
    id: NodeId
    kind: NodeKind
    address: str
    online: bool = True
    index: int = 0  # position in the network's node table; links and events use it
    latency_ns: dict[int, int] = field(default_factory=dict)  # live links: the adjacency
    # latency to each peer this end unlinked, taken back by a relink from either
    # end, so a reconnect draws none; the other end keeps no copy
    former_ns: dict[int, int] = field(default_factory=dict)
    # store and cache change only through Network.provide, fetches and
    # purge_cache, so no node holds a cid that was never provided; the
    # re-broadcast rule (rule 2 in the module docstring) relies on that
    store: set[Cid] = field(default_factory=set)  # pinned, provider-served blocks
    cache: "OrderedDict[Cid, None]" = field(default_factory=OrderedDict)
    monitor_name: str | None = None
    resume_peers: list[int] = field(default_factory=list)
    # the network's index -> NodeId table, shared by every node
    _ids: list[NodeId] = field(default_factory=list, repr=False, compare=False)

    @property
    def peers(self) -> set[NodeId]:
        return {self._ids[p] for p in self.latency_ns}

    def has_block(self, cid: Cid) -> bool:
        return cid in self.store or cid in self.cache


@dataclass(frozen=True)
class CatalogItem:
    cid: Cid
    resolvable: bool
    providers: tuple[NodeId, ...]


@dataclass(frozen=True)
class Message:
    timestamp_ns: int
    src: NodeId
    dst: NodeId
    kind: str  # want_have | want_block | cancel | have | dont_have | block
    cid: Cid


class RequestStatus(Enum):
    PENDING = "pending"
    LOCAL_HIT = "local_hit"
    FETCHED = "fetched"


@dataclass(slots=True)
class RequestHandle:
    """Live view of one retrieval; mutated by the simulator as it runs."""

    requester: NodeId
    cid: Cid
    t_start_ns: int
    status: RequestStatus = RequestStatus.PENDING
    provider: NodeId | None = None
    idle: bool = False  # reached the periodic re-broadcast loop unresolved
    # the network's: node, cid and peers by index; _serial names it in timer events
    _node: int = 0
    _cid: int = 0
    _serial: int = 0
    _session: list[int] = field(default_factory=list)
    _tried: set[int] = field(default_factory=set)
    _target: int | None = None
    _pending_answers: set[int] = field(default_factory=set)  # awaited answers that are queued
    _notified: set[int] = field(default_factory=set)
    # rule 3 (module docstring): the peers of the last broadcast whose want
    # was not queued, in link order, and when that broadcast left
    _sched: list[int] = field(default_factory=list)
    _sched_ns: int = 0
    _sched_end: int = 0  # no entry stands for a message from this time on
    # the last due time of the awaited scheduled answers; -1 once none is awaited
    _answers_due: int = -1
    _answered_by: int = 0  # peers whose want arrived by this time answered it

    @property
    def done(self) -> bool:
        return self.status is not RequestStatus.PENDING


@dataclass
class IssuedRequest:
    t_ns: int
    node: NodeId
    cid: Cid
    kind: str  # broadcast | local_hit | duplicate


@dataclass
class GroundTruth:
    """Oracle data accumulated during a run, for verifying observations."""

    true_n: int = 0
    n_total: int = 0
    counts_by_kind: dict[str, int] = field(default_factory=dict)
    requests_issued: list[IssuedRequest] = field(default_factory=list)
    gateway_map: dict[str, tuple[NodeId, ...]] = field(default_factory=dict)
    want_emissions_rebroadcast: int = 0
    cache_log: dict[tuple[NodeId, Cid], list[list]] = field(default_factory=dict)

    def cached(self, node: NodeId, cid: Cid, t_ns: int) -> bool:
        spans = self.cache_log.get((node, cid), ())
        return any(start <= t_ns and (end is None or t_ns < end) for start, end in spans)

    def rebroadcast_share(self) -> float:
        initial = sum(req.kind == "broadcast" for req in self.requests_issued)
        total = initial + self.want_emissions_rebroadcast
        return self.want_emissions_rebroadcast / total if total else 0.0

    def broadcast_tally(self) -> dict[Cid, tuple[int, int]]:
        """Per-cid (request count, distinct requesters) over requests that
        actually hit the wire (cache hits and pending duplicates excluded)."""
        rrp: dict[Cid, int] = {}
        who: dict[Cid, set[NodeId]] = {}
        for req in self.requests_issued:
            if req.kind != "broadcast":
                continue
            rrp[req.cid] = rrp.get(req.cid, 0) + 1
            who.setdefault(req.cid, set()).add(req.node)
        return {cid: (rrp[cid], len(who[cid])) for cid in rrp}

    def summary(self) -> dict:
        by_kind: dict[str, int] = {}
        for req in self.requests_issued:
            by_kind[req.kind] = by_kind.get(req.kind, 0) + 1
        return {
            "true_n": self.true_n,
            "n_total": self.n_total,
            "counts_by_kind": dict(self.counts_by_kind),
            "requests_issued": len(self.requests_issued),
            "requests_by_kind": by_kind,
            "want_emissions_initial": by_kind.get("broadcast", 0),
            "want_emissions_rebroadcast": self.want_emissions_rebroadcast,
        }


@dataclass
class _GatewayGroup:
    nodes: list[NodeId]
    rr: int = 0
    functional: bool = True


@dataclass
class GatewayResult:
    """Outcome of one HTTP-side gateway fetch."""

    backing_node: NodeId | None  # None when served from the gateway cache
    handle: RequestHandle | None
    served_from_cache: bool
    functional: bool

    @property
    def http_succeeded(self) -> bool:
        if not self.functional:
            return False
        if self.served_from_cache:
            return True
        return self.handle is not None and self.handle.done


# event codes (see the module docstring): messages up to _BLOCK, then timers
(_WANT_HAVE, _WANT_BLOCK, _CANCEL, _HAVE, _DONT_HAVE, _BLOCK,
 _BROADCAST_TIMEOUT, _REBROADCAST, _FETCH_TIMEOUT, _IDLE_CHECK,
 _CHURN_OFF, _CHURN_ON, _WORKLOAD_REQUEST, _WORKLOAD_GATEWAY, _ANSWERS_DUE) = range(15)
_KINDS = ("want_have", "want_block", "cancel", "have", "dont_have", "block")
_WANT_TYPES = (RequestType.WANT_HAVE, RequestType.WANT_BLOCK, RequestType.CANCEL)


class Network:
    """Simulation world: nodes, edges, provider records, and the event queue."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng = Random(cfg.seed)
        self.now_ns = 0
        self._seq = count()
        self._heap: list[tuple[int, int, int, int, int, int]] = []
        self.nodes: dict[NodeId, SimNode] = {}
        self._at: list[SimNode] = []  # by node index
        self._ids: list[NodeId] = []  # by node index
        self._monitor_idx: set[int] = set()
        self._cids: list[Cid] = []  # by cid index
        self._cid_index: dict[Cid, int] = {}
        self._providers: dict[int, set[int]] = {}  # cid -> providing nodes
        self.catalog: list[CatalogItem] = []
        self.monitors: list[NodeId] = []
        self.traces: dict[str, list[TraceRecord]] = {}
        self.conn_events: dict[str, list[ConnEvent]] = {}
        self.gateways: dict[str, _GatewayGroup] = {}
        self._gateway_names: list[str] = []
        self.ground_truth = GroundTruth()
        self.message_log: list[Message] | None = [] if cfg.record_messages else None
        # pending retrievals by (node, cid), and by serial for timer events
        self._requests: dict[tuple[int, int], RequestHandle] = {}
        self._live: dict[int, RequestHandle] = {}
        self._serials = count()
        self._probe_waits: dict[tuple[int, int, int], bool | None] = {}
        # requests whose schedule may stand for a message, by serial, in
        # broadcast order (rule 3)
        self._schedules: dict[int, RequestHandle] = {}
        self._monitors_attached = False
        self._churn_started = False
        self._pop_cum: list[float] | None = None
        self._country_prefixes: dict[str, int] = {}

    def _intern(self, cid: Cid) -> int:
        c = self._cid_index.get(cid)
        if c is None:
            c = self._cid_index[cid] = len(self._cids)
            self._cids.append(cid)
        return c

    # ------------------------------------------------------------------
    # topology

    def add_node(
        self,
        kind: NodeKind,
        *,
        node_id: NodeId | None = None,
        address: str | None = None,
        country: str = "ZZ",
        monitor_name: str | None = None,
    ) -> NodeId:
        nid = node_id if node_id is not None else NodeId.generate(self.rng)
        if nid in self.nodes:
            raise ConfigError("duplicate node id")
        if address is None:
            prefix = self._country_prefixes.get(country, 10)
            address = (
                f"/ip4/{prefix}.{self.rng.randrange(256)}"
                f".{self.rng.randrange(256)}.{self.rng.randrange(256)}/tcp/4001"
            )
        i = len(self._at)
        node = SimNode(id=nid, kind=kind, address=address, index=i, _ids=self._ids)
        if kind is NodeKind.MONITOR:
            node.monitor_name = monitor_name or f"m{len(self.monitors)}"
            self.monitors.append(nid)
            self._monitor_idx.add(i)
            self.traces[node.monitor_name] = []
            self.conn_events[node.monitor_name] = []
        self.nodes[nid] = node
        self._at.append(node)
        self._ids.append(nid)
        return nid

    def regular_ids(self) -> list[NodeId]:
        return [nid for nid, n in self.nodes.items() if n.kind is not NodeKind.MONITOR]

    def connect(self, a: NodeId, b: NodeId, latency_s: float | None = None) -> None:
        if a == b:
            raise ConfigError("cannot connect a node to itself")
        self._link(self.nodes[a].index, self.nodes[b].index, latency_s)

    def disconnect(self, a: NodeId, b: NodeId) -> None:
        self._unlink(self.nodes[a].index, self.nodes[b].index)

    def _link(self, i: int, j: int, latency_s: float | None = None) -> None:
        na, nb = self._at[i], self._at[j]
        if j in na.latency_ns:
            return
        lat = na.former_ns.pop(j, nb.former_ns.pop(i, None))
        if latency_s is not None:
            lat = int(latency_s * NS)
        elif lat is None:
            lat = int(self.rng.uniform(*self.cfg.latency_range_s) * NS)
        na.latency_ns[j] = nb.latency_ns[i] = lat
        self._log_conn(na, nb, ConnEventKind.CONNECT)

    def _unlink(self, i: int, j: int) -> None:
        na, nb = self._at[i], self._at[j]
        if j not in na.latency_ns:
            return
        for h in self._scheduled():  # rule 3: a scheduled message may now be dropped
            if h._node == i and j in h._sched:
                self._queue_scheduled(h, j)
            elif h._node == j and i in h._sched:
                self._queue_scheduled(h, i)
        na.former_ns[j] = na.latency_ns.pop(j)
        del nb.latency_ns[i]
        self._log_conn(na, nb, ConnEventKind.DISCONNECT)

    def _log_conn(self, na: SimNode, nb: SimNode, kind: ConnEventKind) -> None:
        for node, peer in ((na, nb), (nb, na)):
            if node.monitor_name is not None:
                self.conn_events[node.monitor_name].append(
                    build_conn_event(self.now_ns, node.monitor_name, peer.id, kind))

    # ------------------------------------------------------------------
    # event queue

    def _timer(self, delay_ns: int, code: int, a: int, b: int = 0) -> None:
        heappush(self._heap, (self.now_ns + int(delay_ns), next(self._seq), code, a, b, 0))

    def _send(self, code: int, src: SimNode, dst: int, c: int) -> None:
        heappush(self._heap, (self.now_ns + src.latency_ns[dst], next(self._seq),
                              code, src.index, dst, c))

    def run_for(self, duration_s: float) -> None:
        """Handle the events due in the next ``duration_s`` seconds, a finite
        span of at least 0, and move the clock to its end."""
        end = self.now_ns + _duration_ns(duration_s)
        self._drain(end)
        self.now_ns = end

    def _advance_until(self, pred: Callable[[], bool], horizon_ns: int) -> bool:
        if self._drain(horizon_ns, pred) or pred():
            return True
        self.now_ns = max(self.now_ns, horizon_ns)
        return pred()

    def _drain(self, horizon_ns: int, pred: Callable[[], bool] | None = None) -> bool:
        """Handle the events due by ``horizon_ns``; True if ``pred`` stopped it
        early. A message is dropped unless both ends are online and linked."""
        heap, at, log, dispatch = self._heap, self._at, self.message_log, _DISPATCH
        while heap and heap[0][0] <= horizon_ns:
            if pred is not None and pred():
                return True
            t, _, code, a, b, c = heappop(heap)
            self.now_ns = t
            if code <= _BLOCK:
                src, dst = at[a], at[b]
                if not (src.online and dst.online and b in src.latency_ns):
                    continue
                if log is not None:
                    log.append(Message(t, src.id, dst.id, _KINDS[code], self._cids[c]))
            dispatch[code](self, a, b, c)
        return False

    # ------------------------------------------------------------------
    # messaging: handlers of a message from node src to node dst about cid c

    def _log_want(self, code: int, node: SimNode, src: int, c: int) -> None:
        peer, name = self._at[src], node.monitor_name
        self.traces[name].append(build_trace_record(
            self.now_ns, name, peer.id, peer.address, _WANT_TYPES[code], self._cids[c], 0))

    def _on_want_have(self, src: int, dst: int, c: int) -> None:
        node, cid = self._at[dst], self._cids[c]
        if node.monitor_name is not None:
            self._log_want(_WANT_HAVE, node, src, c)
        if cid in node.store or cid in node.cache:
            answer = _HAVE
        else:
            # rule 1 (module docstring): _on_dont_have would drop it
            h = self._requests.get((src, c))
            if (self.message_log is None and (h is None or dst not in h._pending_answers)
                    and (src, dst, c) not in self._probe_waits):
                return
            answer = _DONT_HAVE
        heappush(self._heap, (self.now_ns + node.latency_ns[src], next(self._seq),
                              answer, dst, src, c))

    def _on_want_block(self, src: int, dst: int, c: int) -> None:
        node = self._at[dst]
        if node.monitor_name is not None:
            self._log_want(_WANT_BLOCK, node, src, c)
        if node.has_block(self._cids[c]):  # else the requester times out
            self._send(_BLOCK, node, src, c)

    def _on_cancel(self, src: int, dst: int, c: int) -> None:
        # nodes keep no record of their peers' wants; only a monitor logs it
        node = self._at[dst]
        if node.monitor_name is not None:
            self._log_want(_CANCEL, node, src, c)

    def _on_have(self, src: int, dst: int, c: int) -> None:
        waits = self._probe_waits
        if waits and (dst, src, c) in waits:
            waits[dst, src, c] = True
            return
        h = self._requests.get((dst, c))
        if h is None:
            return
        self._close_window(h)  # the first HAVE closes the broadcast window
        if src not in h._session:
            h._session.append(src)
        if h._target is None:
            self._send_want_block(h, src)

    def _on_dont_have(self, src: int, dst: int, c: int) -> None:
        waits = self._probe_waits
        if waits and (dst, src, c) in waits:
            waits[dst, src, c] = False
            return
        h = self._requests.get((dst, c))
        if h is None or src not in h._pending_answers:
            return
        h._pending_answers.discard(src)
        if not h._pending_answers and h._answers_due <= self.now_ns:
            self._dht_step(h)  # the last awaited answer: no peer has the block

    def _scheduled_answers_due(self, serial: int, _: int, __: int) -> None:
        h = self._live.get(serial)
        if h is not None and not h._pending_answers and 0 <= h._answers_due <= self.now_ns:
            self._dht_step(h)  # the last scheduled answer was the last awaited one

    def _on_block(self, src: int, dst: int, c: int) -> None:
        h = self._requests.pop((dst, c), None)
        if h is None:
            return
        del self._live[h._serial]
        h.status = RequestStatus.FETCHED
        h.provider = self._ids[src]
        node = self._at[dst]
        self._cache_insert(node, self._cids[c])
        # withdraw the want where it was announced (the _notified rule)
        for p in sorted(h._notified & node.latency_ns.keys(), key=self._ids.__getitem__):
            self._send(_CANCEL, node, p, c)
        h._notified.clear()  # a fetched request never reads it again

    # ------------------------------------------------------------------
    # retrieval state machine

    def request(self, requester: NodeId, cid: Cid) -> RequestHandle:
        node = self.nodes[requester]
        if node.kind is NodeKind.MONITOR:
            raise ConfigError("monitor nodes never originate requests")
        c, now, issued = self._intern(cid), self.now_ns, self.ground_truth.requests_issued
        existing = self._requests.get((node.index, c))  # pending ones only
        if existing is not None:
            issued.append(IssuedRequest(now, requester, cid, "duplicate"))
            return existing
        if node.has_block(cid):
            if cid in node.cache:
                node.cache.move_to_end(cid)
            issued.append(IssuedRequest(now, requester, cid, "local_hit"))
            return RequestHandle(requester, cid, now, status=RequestStatus.LOCAL_HIT)
        # rule 3: this request reads the answers to the last one's wants that
        # are still in flight, so it awaits those peers' answers as queued ones
        read = [p for old in self._scheduled() if old._node == node.index and old._cid == c
                for p in self._queue_scheduled(old)]
        h = RequestHandle(requester, cid, now, _node=node.index, _cid=c,
                          _serial=next(self._serials))
        self._requests[node.index, c] = h
        self._live[h._serial] = h
        issued.append(IssuedRequest(now, requester, cid, "broadcast"))
        self._broadcast_want(h, initial=True, queued=read)
        self._timer(BROADCAST_TIMEOUT_NS, _BROADCAST_TIMEOUT, h._serial)
        self._timer(REBROADCAST_INTERVAL_NS, _REBROADCAST, h._serial)
        return h

    def _broadcast_want(self, h: RequestHandle, initial: bool, queued: Sequence[int] = ()) -> None:
        node = self._at[h._node]
        peers = lat = node.latency_ns  # live links, in link order
        if not initial:
            self.ground_truth.want_emissions_rebroadcast += 1
        log = self.message_log is not None
        heap, seq, now = self._heap, self._seq, self.now_ns
        i, c = node.index, h._cid
        if h._sched and h._sched_end > now:  # one schedule per request: queue the last one
            self._queue_scheduled(h)
        h._sched = []
        if log or not node.online:
            send = peers
        elif initial or c in self._providers:
            send = self._schedule(h, initial, queued)
        else:
            # rule 2 (module docstring): other peers could only answer a
            # dont_have that rule 1 drops
            keep = self._monitor_idx
            if self._probe_waits:
                keep = keep.union(b for a, b, x in self._probe_waits if a == i and x == c)
            send = list(filter(keep.__contains__, peers))
        self._notify(h, send)  # send holds every linked monitor
        if initial:
            h._pending_answers = set(send)
            if not peers:
                self._dht_step(h)
        for p in send:
            heappush(heap, (now + lat[p], next(seq), _WANT_HAVE, i, p, c))
        if h._answers_due >= 0:  # the scheduled answers are awaited
            self._timer(h._answers_due - now, _ANSWERS_DUE, h._serial)

    def _schedule(self, h: RequestHandle, initial: bool, queued: Sequence[int]) -> list[int]:
        """Rule 3 (module docstring): schedule the wants of a broadcast that
        only the requester's bookkeeping would read; return the peers whose
        want is queued, which include ``queued``."""
        node, at, now = self._at[h._node], self._at, self.now_ns
        i, c, cid, lat = node.index, h._cid, self._cids[h._cid], node.latency_ns
        mon, waits, provided = self._monitor_idx, self._probe_waits, c in self._providers
        send: list[int] = []
        sched: list[int] = []
        for p in lat:
            peer = at[p]
            if (p in mon or not peer.online or (waits and (i, p, c) in waits)
                    or provided and (cid in peer.store or cid in peer.cache)
                    or queued and p in queued):
                send.append(p)
            else:
                sched.append(p)
        h._sched = sched
        if sched:
            end = now + 2 * max(map(lat.__getitem__, sched))
            h._sched_ns, h._sched_end = now, end
            # answers are awaited while the window is open; a re-broadcast gets none
            h._answers_due, h._answered_by = (end, end) if initial else (-1, now - 1)
            self._schedules.pop(h._serial, None)
            self._schedules[h._serial] = h
        return send

    def _scheduled(self) -> list[RequestHandle]:
        """The requests whose schedule may still stand for a message; drops the rest."""
        now, reg = self.now_ns, self._schedules
        live = [h for h in reg.values() if h._sched_end > now]
        if len(live) < len(reg):
            for h in reg.values():
                if h._sched_end <= now:
                    h._sched = []
            self._schedules = {h._serial: h for h in live}
        return live

    def _queue_scheduled(self, h: RequestHandle, only: int | None = None) -> list[int]:
        """Queue the message that the entry of peer ``only`` (of every peer by
        default) in ``h``'s schedule still stands for: its want, if in
        flight, or else its answer, if one was sent and is in flight. A peer
        whose answer is awaited is then awaited as a queued one. Returns the
        peers whose message was queued."""
        i, c, lat, now = h._node, h._cid, self._at[h._node].latency_ns, self.now_ns
        awaited = h._answers_due >= 0
        peers = h._sched if only is None else (only,)
        h._sched = [] if only is None else [q for q in h._sched if q != only]
        queued = []
        for p in peers:
            arrive = h._sched_ns + lat[p]
            if now < arrive:
                event = (arrive, next(self._seq), _WANT_HAVE, i, p, c)
            elif arrive <= h._answered_by and now < arrive + lat[p]:
                event = (arrive + lat[p], next(self._seq), _DONT_HAVE, p, i, c)
            else:
                continue
            heappush(self._heap, event)
            queued.append(p)
            if awaited:
                h._pending_answers.add(p)
        if awaited:
            due = max((h._sched_ns + 2 * lat[q] for q in h._sched), default=-1)
            if due < h._answers_due:
                h._answers_due = due
                if due > now:
                    self._timer(due - now, _ANSWERS_DUE, h._serial)
        return queued

    def _close_window(self, h: RequestHandle) -> None:
        if h._answers_due >= 0:
            h._answers_due = -1
            h._answered_by = self.now_ns
        h._pending_answers = set()  # CPython never shrinks a set

    def _rebroadcast_tick(self, serial: int, _: int, __: int) -> None:
        h = self._live.get(serial)
        if h is None:
            return
        if self._at[h._node].online:
            self._broadcast_want(h, initial=False)
            if h._cid in self._providers:  # else the DHT names nobody to ask
                self._dht_extend(h)
        self._timer(REBROADCAST_INTERVAL_NS, _REBROADCAST, serial)

    def _broadcast_timeout(self, serial: int, _: int, __: int) -> None:
        h = self._live.get(serial)
        # an answer scheduled for now still counts: its dont_have would sort after this timer
        if h is not None and (h._pending_answers or h._answers_due >= 0):
            self._dht_step(h)

    def _send_want_block(self, h: RequestHandle, target: int) -> None:
        h._target = target
        h._tried.add(target)
        self._notify(h, (target,))
        node = self._at[h._node]  # the one send to a peer that may have unlinked
        lat = node.latency_ns.get(target, node.former_ns.get(target))
        if lat is None:
            lat = self._at[target].former_ns[node.index]
        heappush(self._heap, (self.now_ns + lat, next(self._seq),
                              _WANT_BLOCK, node.index, target, h._cid))
        self._timer(WANT_BLOCK_TIMEOUT_NS, _FETCH_TIMEOUT, h._serial)

    def _fetch_timeout(self, serial: int, _: int, __: int) -> None:
        h = self._live.get(serial)
        if h is None:
            return
        h._target = None
        nxt = next((p for p in h._session if p not in h._tried), None)
        if nxt is not None and self._at[h._node].online:
            self._send_want_block(h, nxt)
        else:  # an offline requester asks nobody; a re-broadcast resumes it
            self._dht_step(h)

    def _dht_step(self, h: RequestHandle) -> None:
        """Provider lookup after the broadcast round came up empty."""
        self._close_window(h)
        contacted = self._dht_extend(h)
        if contacted == 0 and h._target is None:
            h.idle = True
        else:
            self._timer(BROADCAST_TIMEOUT_NS, _IDLE_CHECK, h._serial)

    def _idle_check(self, serial: int, _: int, __: int) -> None:
        h = self._live.get(serial)
        if h is not None and h._target is None:
            h.idle = True

    def _dht_extend(self, h: RequestHandle) -> int:
        """Link to unlinked online providers and ask them; an offline requester asks none."""
        i, at = h._node, self._at
        node = at[i]
        # id order, not set order: each new link may draw its latency from rng
        new = sorted((p for p in self._providers.get(h._cid, ())
                      if node.online and p != i and at[p].online and p not in node.latency_ns),
                     key=self._ids.__getitem__)
        for p in new:
            self._link(i, p)
            self._send(_WANT_HAVE, node, p, h._cid)
        self._notify(h, new)
        return len(new)

    def _notify(self, h: RequestHandle, peers: Iterable[int]) -> None:
        """Add the peers a want goes to to ``h._notified``: all of them while
        the message log is on, only the monitors while it is off."""
        log, mon = self.message_log is not None, self._monitor_idx
        h._notified.update(peers if log else filter(mon.__contains__, peers))

    # ------------------------------------------------------------------
    # cache and DHT records

    def _cache_insert(self, node: SimNode, cid: Cid) -> None:
        if cid in node.store:
            return
        cap = self.cfg.cache_capacity_blocks
        if cap <= 0:
            return
        if cid in node.cache:
            node.cache.move_to_end(cid)
            return
        node.cache[cid] = None
        self._now_holds(node.index, cid)
        self.ground_truth.cache_log.setdefault((node.id, cid), []).append([self.now_ns, None])
        if len(node.cache) > cap:
            evicted, _ = node.cache.popitem(last=False)
            self._cache_log_close(node.id, evicted)

    def _cache_log_close(self, nid: NodeId, cid: Cid) -> None:
        spans = self.ground_truth.cache_log.get((nid, cid))
        if spans and spans[-1][1] is None:
            spans[-1][1] = self.now_ns

    def purge_cache(self, nid: NodeId, cid: Cid | None = None) -> None:
        node = self.nodes[nid]
        if cid is None:
            for c in list(node.cache):
                self._cache_log_close(nid, c)
            node.cache.clear()
        elif cid in node.cache:
            del node.cache[cid]
            self._cache_log_close(nid, cid)

    def provide(self, nid: NodeId, cid: Cid) -> None:
        """Pin the block locally and publish a provider record."""
        node = self.nodes[nid]
        node.store.add(cid)
        self._providers.setdefault(self._intern(cid), set()).add(node.index)
        self._now_holds(node.index, cid)

    def _now_holds(self, p: int, cid: Cid) -> None:
        """Rule 3: a scheduled want that reaches ``p`` now gets a HAVE."""
        c = self._cid_index[cid]
        for h in self._scheduled():
            if h._cid == c and p in h._sched:
                self._queue_scheduled(h, p)

    def find_providers(self, cid: Cid) -> set[NodeId]:
        at = self._at
        return {at[p].id for p in self._providers.get(self._cid_index.get(cid), ())
                if at[p].online}

    # ------------------------------------------------------------------
    # liveness

    def set_offline(self, nid: NodeId) -> None:
        node = self.nodes[nid]
        if not node.online:
            return
        node.resume_peers = list(node.latency_ns)
        for p in node.resume_peers:
            self._unlink(node.index, p)
        node.online = False

    def set_online(self, nid: NodeId) -> None:
        node = self.nodes[nid]
        if node.online:
            return
        node.online = True
        for p in node.resume_peers:
            if self._at[p].online:
                self._link(node.index, p)
        node.resume_peers = []

    def _churn_off(self, i: int, _: int, __: int) -> None:
        node = self._at[i]
        if not node.online:
            return
        self.set_offline(node.id)
        delay = self.rng.expovariate(1.0 / self.cfg.churn.mean_offline_s)
        self._timer(delay * NS, _CHURN_ON, i)

    def _churn_on(self, i: int, _: int, __: int) -> None:
        self.set_online(self._ids[i])
        delay = self.rng.expovariate(1.0 / self.cfg.churn.mean_session_s)
        self._timer(delay * NS, _CHURN_OFF, i)

    # ------------------------------------------------------------------
    # gateways

    def gateway_http_request(self, dns_name: str, cid: Cid) -> GatewayResult:
        """Serve from the gateway cache or start a retrieval on the group's
        next backing node; the simulation does not advance here."""
        group = self.gateways.get(dns_name)
        if group is None:
            raise UnknownGatewayError(f"no gateway registered as {dns_name!r}")
        if self.rng.random() < self.cfg.gateway_cache_hit_ratio:
            return GatewayResult(None, None, True, group.functional)
        backing = group.nodes[group.rr % len(group.nodes)]
        group.rr += 1
        h = self.request(backing, cid)
        return GatewayResult(backing, h, False, group.functional)

    # ------------------------------------------------------------------
    # probes

    def probe_want_have(self, prober: NodeId, target: NodeId, cid: Cid) -> bool:
        pn, tn = self.nodes[prober], self.nodes[target]
        if not tn.online:
            raise ProbeUnreachableError("target is offline")
        if not pn.online:
            raise ProbeUnreachableError("prober is offline")
        self.connect(prober, target)  # no-op if linked
        waits, key = self._probe_waits, (pn.index, tn.index, self._intern(cid))
        for h in self._scheduled():  # rule 3: the probe would read the answer
            if h._node == key[0] and h._cid == key[2] and key[1] in h._sched:
                self._queue_scheduled(h, key[1])
        waits[key] = None
        self._send(_WANT_HAVE, pn, tn.index, key[2])
        self._advance_until(lambda: waits[key] is not None, self.now_ns + PROBE_TIMEOUT_NS)
        return bool(waits.pop(key))

    # ------------------------------------------------------------------
    # world building

    def _build(self) -> None:
        cfg = self.cfg
        countries = iter(self._plan_countries())
        servers = [self.add_node(NodeKind.DHT_SERVER, country=next(countries)) for _ in range(cfg.n_dht_servers)]
        clients = [self.add_node(NodeKind.DHT_CLIENT, country=next(countries)) for _ in range(cfg.n_clients)]
        gateway_nodes = [self.add_node(NodeKind.GATEWAY, country=next(countries)) for _ in range(cfg.n_gateways)]
        for i in range(cfg.n_monitors):
            self.add_node(
                NodeKind.MONITOR,
                address=f"/ip4/192.0.2.{i + 1}/tcp/4001",
                monitor_name=f"m{i}",
            )
        regular = servers + clients + gateway_nodes
        self._build_degree_graph(regular)
        self._build_gateway_groups(gateway_nodes)
        self._build_catalog(servers)
        gt = self.ground_truth
        gt.true_n = len(regular)
        gt.n_total = len(self.nodes)
        for node in self.nodes.values():
            gt.counts_by_kind[node.kind.value] = gt.counts_by_kind.get(node.kind.value, 0) + 1
        gt.gateway_map = {name: tuple(g.nodes) for name, g in self.gateways.items()}

    def _quota_plan(self, weights: Sequence[tuple[object, float]], n: int,
                    tie: Callable[[int, object], object]) -> list:
        """``n`` values in exact largest-remainder proportions to ``weights``,
        shuffled; equal remainders go first to the larger ``tie(i, value)``."""
        total = sum(w for _, w in weights)
        shares = [w / total * n for _, w in weights]
        counts = [int(s) for s in shares]
        by_fraction = sorted(range(len(weights)), reverse=True,
                             key=lambda i: (shares[i] - counts[i], tie(i, weights[i][0])))
        for i in by_fraction[:n - sum(counts)]:
            counts[i] += 1
        plan = [value for (value, _), k in zip(weights, counts) for _ in range(k)]
        self.rng.shuffle(plan)
        return plan

    def _plan_countries(self) -> list[str]:
        """Each regular node's country, in build order; sets the address plan,
        which stays empty in a world without regular nodes."""
        cfg = self.cfg
        n = cfg.n_dht_servers + cfg.n_clients + cfg.n_gateways
        if n == 0:
            return []
        if not cfg.country_weights:
            self._country_prefixes = {"ZZ": 10}
            return ["ZZ"] * n
        self._country_prefixes = {
            country: 60 + i for i, (country, _) in enumerate(sorted(cfg.country_weights))
        }
        self._country_prefixes.setdefault("ZZ", 10)
        return self._quota_plan(cfg.country_weights, n, lambda i, name: name)

    def geo_entries(self) -> list[tuple[str, str]]:
        """CIDR-to-country pairs matching the simulated address plan."""
        return sorted(
            (f"{prefix}.0.0.0/8", country)
            for country, prefix in self._country_prefixes.items()
        )

    def _build_degree_graph(self, regular: list[NodeId]) -> None:
        dmin, dmax = self.cfg.degree_range
        n = len(regular)
        if dmax == 0 or n < 2:
            if dmin > 0 and n >= 1:
                raise ConfigError("positive degree impossible with fewer than 2 nodes")
            return
        rng = self.rng
        targets = [rng.randint(dmin, dmax) for _ in range(n)]
        if sum(targets) % 2:
            # parity repair; may leave one node a single step outside the range
            i = rng.randrange(n)
            targets[i] += -1 if targets[i] > dmin else 1
        # Havel-Hakimi as the module docstring states it
        need = np.array(targets, dtype=np.int64)
        lo, hi = self.cfg.latency_range_s
        index = [self.nodes[nid].index for nid in regular]
        with _numpy_view(rng) as gen:  # ties and latencies, drawn in blocks
            while True:
                tie = gen.random(n)
                k = int(need.max())
                if k == 0:
                    break
                # the (k+1)-th largest need; the nodes at or above it are the
                # first k+1 of the full order, and a stable sort of them in
                # index order ranks them as lexsort over all n does
                level = 0 if n - 1 < k else -np.partition(-need, k)[k]
                if level == 0:
                    raise ConfigError("degree sequence not realizable, lower the range")
                top = np.flatnonzero(need >= level)
                order = top[np.lexsort((tie[top], -need[top]))]
                u, partners = order[0], order[1 : k + 1]
                need[u] = 0
                need[partners] -= 1
                # lo + (hi - lo) * r is rng.uniform(lo, hi), bit for bit
                for v, r in zip(partners.tolist(), gen.random(k).tolist()):
                    self._link(index[u], index[v], lo + (hi - lo) * r)

    def _build_gateway_groups(self, gateway_nodes: list[NodeId]) -> None:
        at = 0
        for name, size in _gateway_groups(self.cfg).items():
            self.gateways[name] = _GatewayGroup(
                nodes=gateway_nodes[at : at + size],
                functional=name not in self.cfg.broken_gateway_names,
            )
            at += size

    def _build_catalog(self, servers: list[NodeId]) -> None:
        cfg = self.cfg
        if cfg.catalog_size == 0:
            return
        weights = cfg.codec_weights or (("dag-pb", 1.0),)
        # equal remainders go first to the codec listed earlier
        codecs = self._quota_plan([(Codec.from_name(name), w) for name, w in weights],
                                  cfg.catalog_size, lambda i, codec: -i)
        n_unresolvable = round(cfg.unresolvable_fraction * cfg.catalog_size)
        resolvable_flags = [i >= n_unresolvable for i in range(cfg.catalog_size)]
        self.rng.shuffle(resolvable_flags)
        for i in range(cfg.catalog_size):
            content = f"item-{cfg.seed}-{i}".encode()
            cid = hash_content(content, codecs[i])
            providers: tuple[NodeId, ...] = ()
            if resolvable_flags[i] and servers:
                k = min(cfg.catalog_replication, len(servers))
                providers = tuple(self.rng.sample(servers, k))
                for p in providers:
                    self.provide(p, cid)
            self.catalog.append(
                CatalogItem(cid, resolvable_flags[i] and bool(providers), providers)
            )
        if isinstance(cfg.popularity_sampler, ZipfPopularity):
            s = cfg.popularity_sampler.exponent
            self._pop_cum = list(accumulate((i + 1) ** (-s) for i in range(cfg.catalog_size)))

    def _sample_item(self) -> int:
        n = len(self.catalog)
        if self._pop_cum is None:
            return self.rng.randrange(n)
        return self.rng.choices(range(n), cum_weights=self._pop_cum)[0]

    # ------------------------------------------------------------------
    # run orchestration

    def _attach_monitors(self) -> None:
        cov = self.cfg.monitor_coverage
        for m in self.monitors:
            # id order: each node may draw a coverage roll and a latency
            for nid in sorted(self.regular_ids()):
                if cov >= 1.0 or self.rng.random() < cov:
                    self.connect(nid, m)

    def _start_churn(self) -> None:
        for nid in sorted(self.regular_ids()):  # id order: one session draw each
            delay = self.rng.expovariate(1.0 / self.cfg.churn.mean_session_s)
            self._timer(delay * NS, _CHURN_OFF, self.nodes[nid].index)

    def _schedule_workload(self, duration_s: float) -> None:
        cfg = self.cfg
        if cfg.request_rate_per_node > 0 and self.catalog:
            # id order: each requester draws its times and items in turn
            requesters = sorted(
                nid
                for nid, n in self.nodes.items()
                if n.kind in (NodeKind.DHT_SERVER, NodeKind.DHT_CLIENT)
            )
            for nid in requesters:
                times: list[float] = []
                if cfg.workload == "poisson":
                    t = self.rng.expovariate(cfg.request_rate_per_node)
                    while t < duration_s:
                        times.append(t)
                        t += self.rng.expovariate(cfg.request_rate_per_node)
                else:
                    k = round(cfg.request_rate_per_node * duration_s)
                    times = [(i + 0.5) * duration_s / k for i in range(k)]
                if cfg.distinct_items_per_node and len(times) <= len(self.catalog):
                    items = self.rng.sample(range(len(self.catalog)), len(times))
                else:
                    items = [self._sample_item() for _ in times]
                i = self.nodes[nid].index
                for t, idx in zip(times, items):
                    self._timer(t * NS, _WORKLOAD_REQUEST, i, self._intern(self.catalog[idx].cid))
        if cfg.gateway_http_rate > 0 and self.catalog and self.gateways:
            self._gateway_names = sorted(self.gateways)
            for g, dns_name in enumerate(self._gateway_names):
                t = self.rng.expovariate(cfg.gateway_http_rate)
                while t < duration_s:
                    c = self._intern(self.catalog[self._sample_item()].cid)
                    self._timer(t * NS, _WORKLOAD_GATEWAY, g, c)
                    t += self.rng.expovariate(cfg.gateway_http_rate)

    def _workload_request(self, i: int, c: int, _: int) -> None:
        if self._at[i].online:
            self.request(self._ids[i], self._cids[c])

    def _workload_gateway(self, g: int, c: int, _: int) -> None:
        self.gateway_http_request(self._gateway_names[g], self._cids[c])


@contextmanager
def _numpy_view(rng: Random) -> Iterator[np.random.Generator]:
    """A numpy Generator on ``rng``'s own stream: both are MT19937, and
    ``Generator.random`` makes each float from two 32-bit words as
    ``Random.random`` does, so it draws the same floats, bit for bit. On exit
    ``rng`` goes on where the Generator stopped, also after an error."""
    version, key, gauss = rng.getstate()
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(key[:-1], np.uint32), "pos": key[-1]}}
    try:
        yield np.random.Generator(bits)
    finally:
        state = bits.state["state"]
        rng.setstate((version, (*state["key"].tolist(), int(state["pos"])), gauss))


# event code -> handler(network, a, b, c); plain functions, so that no queued
# event or table refers back to a network and a finished one is freed as soon
# as it is dropped
_DISPATCH = (
    Network._on_want_have, Network._on_want_block, Network._on_cancel,
    Network._on_have, Network._on_dont_have, Network._on_block,
    Network._broadcast_timeout, Network._rebroadcast_tick, Network._fetch_timeout,
    Network._idle_check, Network._churn_off, Network._churn_on,
    Network._workload_request, Network._workload_gateway, Network._scheduled_answers_due,
)


# ----------------------------------------------------------------------
# module-level operation surface


def _duration_ns(duration_s: float) -> int:
    """A span in whole nanoseconds; InputError unless it is finite and at least 0."""
    span = to_ns(duration_s, "duration_s")
    if duration_s < 0:
        raise InputError(f"duration_s must be non-negative, got {duration_s!r}")
    return span


def build_network(cfg: SimConfig) -> Network:
    """Create nodes, the degree-constrained connection graph, gateway
    groups, and the content catalog with its provider records."""
    net = Network(cfg)
    net._build()
    return net


def run(net: Network, duration_s: float | None = None):
    """Advance the world by ``duration_s`` (the config's by default), a finite
    span of at least 0, attaching the monitors and starting churn on the
    first call; returns (traces, connection events, ground truth)."""
    dur = net.cfg.duration_s if duration_s is None else duration_s
    _duration_ns(dur)  # before anything changes
    if not net._monitors_attached:
        net._attach_monitors()
        net._monitors_attached = True
    if net.cfg.churn is not None and not net._churn_started:
        net._start_churn()
        net._churn_started = True
    if dur > 0:
        net._schedule_workload(dur)
        net.run_for(dur)
    return net.traces, net.conn_events, net.ground_truth


def node_request(net: Network, node: NodeId, cid: Cid) -> RequestHandle:
    """Issue a retrieval and advance the simulation until it settles or
    parks in the periodic-retry loop. The handle stays live: an idle
    request may still resolve during later simulation time."""
    h = net.request(node, cid)
    net._advance_until(lambda: h.done or h.idle, net.now_ns + 3600 * NS)
    return h


def sample_min_distance(net: Network, target: NodeId) -> float:
    """Minimum normalized XOR distance from ``target`` to any online DHT
    server; the raw observable behind the DHT-based size estimator."""
    ids = [n.id for n in net.nodes.values() if n.online and n.kind in _DHT_SERVER_KINDS]
    if not ids:
        raise InputError("network has no online DHT servers")
    return min(v ^ target for v in ids) / ID_SPACE
