"""Deterministic discrete-event simulator of a content-addressed P2P swarm.

Models the two-step retrieval strategy (broadcast a WANT_HAVE to every
connected peer, fall back to a DHT provider lookup), block caching with LRU
eviction, HTTP gateway frontends, node churn, and passive monitor nodes that
accept all inbound connections and log every want they receive. A requester
keeps its unresolved want and re-broadcasts it periodically; nodes keep no
record of their peers' wants, they only answer each one as it arrives.

The DHT is modeled as a global provider-record table filtered by liveness;
lookups are always correct. Per-link latency is sampled once per edge.
All randomness flows from the config seed, and event ordering is fixed by
(time, insertion sequence), so a given config reproduces bit-identical
traces and ground truth.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum
from functools import partial
from heapq import heappop, heappush
from itertools import count, repeat, starmap
from random import Random
from types import UnionType
from typing import Callable, Mapping, Union, get_args, get_origin, get_type_hints

import numpy as np

from .core import (
    ID_SPACE,
    Cid,
    Codec,
    ConnEvent,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    build_trace_record,
    hash_content,
)
from .errors import ConfigError, ProbeUnreachableError, UnknownGatewayError

NS = 1_000_000_000
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


@dataclass(frozen=True)
class LogNormalPopularity:
    mu: float = 0.0
    sigma: float = 1.0


PopularitySampler = Union[ZipfPopularity, UniformPopularity, LogNormalPopularity]


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
    rebroadcast_interval_s: float = 30.0
    unresolvable_fraction: float = 0.0
    cache_capacity_blocks: int = 1024
    gateway_cache_hit_ratio: float = 0.0
    churn: ChurnConfig | None = None
    duration_s: float = 0.0
    seed: int = 0
    # protocol timing
    broadcast_timeout_s: float = 1.0
    want_block_timeout_s: float = 1.0
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
        for name in ("n_dht_servers", "n_clients", "n_gateways", "n_monitors",
                     "catalog_size", "cache_capacity_blocks"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        dmin, dmax = self.degree_range
        if dmin < 0 or dmin > dmax:
            raise ConfigError("degree_range must satisfy 0 <= min <= max")
        n_regular = self.n_dht_servers + self.n_clients + self.n_gateways
        if dmax > 0 and n_regular > 0 and dmax >= n_regular:
            raise ConfigError(
                f"degree_range: max degree {dmax} impossible with {n_regular} regular nodes"
            )
        for name, frac in [
            ("unresolvable_fraction", self.unresolvable_fraction),
            ("gateway_cache_hit_ratio", self.gateway_cache_hit_ratio),
            ("monitor_coverage", self.monitor_coverage),
        ]:
            if not 0.0 <= frac <= 1.0:
                raise ConfigError(f"{name} must be in [0, 1]")
        if self.rebroadcast_interval_s <= 0:
            raise ConfigError("rebroadcast_interval_s must be positive")
        if self.workload not in ("poisson", "uniform"):
            raise ConfigError(f"workload must be 'poisson' or 'uniform', not {self.workload!r}")
        if self.gateway_group_sizes is not None:
            if sum(self.gateway_group_sizes) != self.n_gateways:
                raise ConfigError("gateway_group_sizes must sum to n_gateways")
            if any(s < 1 for s in self.gateway_group_sizes):
                raise ConfigError("gateway_group_sizes: every group needs at least one node")
        if self.churn is not None and (
            self.churn.mean_session_s <= 0 or self.churn.mean_offline_s <= 0
        ):
            raise ConfigError("churn.mean_session_s and churn.mean_offline_s must be positive")


# popularity-sampler kinds, as named in config files
_SAMPLERS: dict[str, type] = {
    "zipf": ZipfPopularity,
    "lognormal": LogNormalPopularity,
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
        if type(value) in _SAMPLER_KINDS:
            return value
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
    if isinstance(value, cls):
        return value
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
    country: str = "ZZ"
    online: bool = True
    peers: set[NodeId] = field(default_factory=set)
    # link latency to every peer this node was ever connected to; kept after
    # a disconnect, so a reconnect reuses it and a message sent meanwhile
    # still travels (and is dropped on arrival unless the pair reconnected)
    latency_ns: dict[NodeId, int] = field(default_factory=dict)
    store: set[Cid] = field(default_factory=set)  # pinned, provider-served blocks
    cache: "OrderedDict[Cid, None]" = field(default_factory=OrderedDict)
    monitor_name: str | None = None
    dns_name: str | None = None
    resume_peers: list[NodeId] = field(default_factory=list)
    _sorted_peers: list[NodeId] | None = field(default=None, init=False, repr=False, compare=False)

    def has_block(self, cid: Cid) -> bool:
        return cid in self.store or cid in self.cache

    def sorted_peers(self) -> list[NodeId]:
        """``peers`` in id order; cached until the next connect or
        disconnect, so callers must not mutate it."""
        if self._sorted_peers is None:
            self._sorted_peers = sorted(self.peers)
        return self._sorted_peers


@dataclass(frozen=True)
class CatalogItem:
    index: int
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
    t_done_ns: int | None = None
    idle: bool = False  # reached the periodic re-broadcast loop unresolved
    session: list[NodeId] = field(default_factory=list)
    _tried: set[NodeId] = field(default_factory=set)
    _target: NodeId | None = None
    _pending_answers: set[NodeId] = field(default_factory=set)
    _notified: set[NodeId] = field(default_factory=set)
    _dht_searched: bool = False

    @property
    def done(self) -> bool:
        return self.status is not RequestStatus.PENDING

    @property
    def settled_or_idle(self) -> bool:
        return self.done or self.idle


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
    want_emissions_initial: int = 0
    want_emissions_rebroadcast: int = 0
    cache_log: dict[tuple[NodeId, Cid], list[list]] = field(default_factory=dict)

    def cached(self, node: NodeId, cid: Cid, t_ns: int) -> bool:
        spans = self.cache_log.get((node, cid), ())
        return any(start <= t_ns and (end is None or t_ns < end) for start, end in spans)

    def rebroadcast_share(self) -> float:
        total = self.want_emissions_initial + self.want_emissions_rebroadcast
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
            "want_emissions_initial": self.want_emissions_initial,
            "want_emissions_rebroadcast": self.want_emissions_rebroadcast,
        }


@dataclass
class _GatewayGroup:
    dns_name: str
    nodes: list[NodeId]
    rr: int = 0
    functional: bool = True


@dataclass
class GatewayResult:
    """Outcome of one HTTP-side gateway fetch."""

    dns_name: str
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


class Network:
    """Simulation world: nodes, edges, provider records, and the event queue."""

    def __init__(self, cfg: SimConfig):
        cfg.validate()
        self.cfg = cfg
        self.rng = Random(cfg.seed)
        self.now_ns = 0
        self._seq = count()
        # events: (time, insertion sequence, method, its arguments)
        self._heap: list[tuple[int, int, Callable[..., None], tuple]] = []
        # message kind -> handler(receiving node, sending node, cid)
        self._handlers: dict[str, Callable[[SimNode, SimNode, Cid], None]] = {
            "want_have": partial(self._on_want, RequestType.WANT_HAVE),
            "want_block": partial(self._on_want, RequestType.WANT_BLOCK),
            "cancel": partial(self._on_want, RequestType.CANCEL),
            "have": self._on_have,
            "dont_have": self._on_dont_have,
            "block": self._on_block,
        }
        self.nodes: dict[NodeId, SimNode] = {}
        self.dht: dict[Cid, set[NodeId]] = {}
        self.catalog: list[CatalogItem] = []
        self.monitors: list[NodeId] = []
        self.traces: dict[str, list[TraceRecord]] = {}
        self.conn_events: dict[str, list[ConnEvent]] = {}
        self.gateways: dict[str, _GatewayGroup] = {}
        self.ground_truth = GroundTruth()
        self.message_log: list[Message] | None = [] if cfg.record_messages else None
        self._requests: dict[tuple[NodeId, Cid], RequestHandle] = {}
        self._probe_waits: dict[tuple[NodeId, NodeId, Cid], bool | None] = {}
        self._monitors_attached = False
        self._churn_started = False
        self._pop_cum: list[float] | None = None
        self._country_prefixes: dict[str, int] = {}

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
        node = SimNode(id=nid, kind=kind, address=address, country=country)
        if kind is NodeKind.MONITOR:
            node.monitor_name = monitor_name or f"m{len(self.monitors)}"
            self.monitors.append(nid)
            self.traces[node.monitor_name] = []
            self.conn_events[node.monitor_name] = []
        self.nodes[nid] = node
        return nid

    def regular_ids(self) -> list[NodeId]:
        return [nid for nid, n in self.nodes.items() if n.kind is not NodeKind.MONITOR]

    def connect(self, a: NodeId, b: NodeId, latency_s: float | None = None) -> None:
        if a == b:
            raise ConfigError("cannot connect a node to itself")
        na, nb = self.nodes[a], self.nodes[b]
        if b in na.peers:
            return
        na.peers.add(b)
        nb.peers.add(a)
        na._sorted_peers = nb._sorted_peers = None
        if latency_s is not None:
            na.latency_ns[b] = nb.latency_ns[a] = int(latency_s * NS)
        elif b not in na.latency_ns:
            lo, hi = self.cfg.latency_range_s
            na.latency_ns[b] = nb.latency_ns[a] = int(self.rng.uniform(lo, hi) * NS)
        self._log_conn(na, b, ConnEventKind.CONNECT)
        self._log_conn(nb, a, ConnEventKind.CONNECT)

    def disconnect(self, a: NodeId, b: NodeId) -> None:
        na, nb = self.nodes[a], self.nodes[b]
        if b not in na.peers:
            return
        na.peers.discard(b)
        nb.peers.discard(a)
        na._sorted_peers = nb._sorted_peers = None
        self._log_conn(na, b, ConnEventKind.DISCONNECT)
        self._log_conn(nb, a, ConnEventKind.DISCONNECT)

    def _log_conn(self, node: SimNode, peer: NodeId, kind: ConnEventKind) -> None:
        if node.kind is NodeKind.MONITOR:
            self.conn_events[node.monitor_name].append(
                ConnEvent(self.now_ns, node.monitor_name, peer, kind)
            )

    # ------------------------------------------------------------------
    # event queue

    def _schedule(self, delay_ns: int, fn: Callable[..., None], *args) -> None:
        heappush(self._heap, (self.now_ns + int(delay_ns), next(self._seq), fn, args))

    def run_for(self, duration_s: float) -> None:
        end = self.now_ns + int(duration_s * NS)
        heap = self._heap
        while heap and heap[0][0] <= end:
            t, _, fn, args = heappop(heap)
            self.now_ns = t
            fn(*args)
        self.now_ns = end

    def _advance_until(self, pred: Callable[[], bool], horizon_ns: int) -> bool:
        heap = self._heap
        while heap and heap[0][0] <= horizon_ns:
            if pred():
                return True
            t, _, fn, args = heappop(heap)
            self.now_ns = t
            fn(*args)
        if pred():
            return True
        self.now_ns = max(self.now_ns, horizon_ns)
        return pred()

    # ------------------------------------------------------------------
    # messaging

    def _send(self, src: SimNode, dst: SimNode, kind: str, cid: Cid) -> None:
        # None only for a pair that was never connected (see SimNode.latency_ns)
        lat = src.latency_ns.get(dst.id)
        if lat is not None:
            heappush(
                self._heap,
                (self.now_ns + lat, next(self._seq), self._deliver, (src, dst, kind, cid)),
            )

    def _deliver(self, src: SimNode, dst: SimNode, kind: str, cid: Cid) -> None:
        if not (src.online and dst.online and dst.id in src.peers):
            return
        if self.message_log is not None:
            self.message_log.append(Message(self.now_ns, src.id, dst.id, kind, cid))
        self._handlers[kind](dst, src, cid)

    def _on_want(self, rtype: RequestType, node: SimNode, src: SimNode, cid: Cid) -> None:
        if node.kind is NodeKind.MONITOR:
            self.traces[node.monitor_name].append(build_trace_record(
                self.now_ns, node.monitor_name, src.id, src.address, rtype, cid, 0,
            ))
        if rtype is RequestType.WANT_HAVE:
            answer = "have" if node.has_block(cid) else "dont_have"
            self._send(node, src, answer, cid)
        elif rtype is RequestType.WANT_BLOCK:
            if node.has_block(cid):
                self._send(node, src, "block", cid)
            # no negative response; the requester's timeout handles absence

    def _on_have(self, node: SimNode, src: SimNode, cid: Cid) -> None:
        key = (node.id, src.id, cid)
        if key in self._probe_waits:
            self._probe_waits[key] = True
            return
        h = self._requests.get((node.id, cid))
        if h is None or h.done:
            return
        h._pending_answers.discard(src.id)
        if src.id not in h.session:
            h.session.append(src.id)
        if h._target is None:
            self._send_want_block(h, src.id)

    def _on_dont_have(self, node: SimNode, src: SimNode, cid: Cid) -> None:
        key = (node.id, src.id, cid)
        if key in self._probe_waits:
            self._probe_waits[key] = False
            return
        h = self._requests.get((node.id, cid))
        if h is None or h.done:
            return
        if src.id in h._pending_answers:
            h._pending_answers.discard(src.id)
            if (
                not h._pending_answers
                and not h.session
                and h._target is None
                and not h._dht_searched
            ):
                self._dht_step(h)

    def _on_block(self, node: SimNode, src: SimNode, cid: Cid) -> None:
        h = self._requests.get((node.id, cid))
        if h is None or h.done:
            return
        h.status = RequestStatus.FETCHED
        h.provider = src.id
        h.t_done_ns = self.now_ns
        self._cache_insert(node, cid)
        # withdraw the want everywhere it was announced and still stands
        notified, nodes = h._notified, self.nodes
        for p in node.sorted_peers():
            if p in notified:
                self._send(node, nodes[p], "cancel", cid)
        # a fetched request never reads its announcement sets again; they hold
        # a whole peer set each, so let them go
        h._pending_answers.clear()
        notified.clear()

    # ------------------------------------------------------------------
    # retrieval state machine

    def request(self, requester: NodeId, cid: Cid) -> RequestHandle:
        node = self.nodes[requester]
        if node.kind is NodeKind.MONITOR:
            raise ConfigError("monitor nodes never originate requests")
        existing = self._requests.get((requester, cid))
        if existing is not None and not existing.done:
            self.ground_truth.requests_issued.append(
                IssuedRequest(self.now_ns, requester, cid, "duplicate")
            )
            return existing
        if node.has_block(cid):
            if cid in node.cache:
                node.cache.move_to_end(cid)
            h = RequestHandle(
                requester,
                cid,
                self.now_ns,
                status=RequestStatus.LOCAL_HIT,
                t_done_ns=self.now_ns,
            )
            self.ground_truth.requests_issued.append(
                IssuedRequest(self.now_ns, requester, cid, "local_hit")
            )
            return h
        h = RequestHandle(requester, cid, self.now_ns)
        self._requests[(requester, cid)] = h
        self.ground_truth.requests_issued.append(
            IssuedRequest(self.now_ns, requester, cid, "broadcast")
        )
        self._broadcast_want(h, initial=True)
        self._schedule(int(self.cfg.broadcast_timeout_s * NS), self._broadcast_timeout, h)
        self._schedule_rebroadcast(h, 1)
        return h

    def _broadcast_want(self, h: RequestHandle, initial: bool) -> None:
        node = self.nodes[h.requester]
        peers = node.sorted_peers()
        if initial:
            self.ground_truth.want_emissions_initial += 1
            h._pending_answers = set(peers)
        else:
            self.ground_truth.want_emissions_rebroadcast += 1
        h._notified.update(peers)
        nodes = self.nodes
        for p in peers:
            self._send(node, nodes[p], "want_have", h.cid)
        if initial and not peers:
            self._dht_step(h)

    def _schedule_rebroadcast(self, h: RequestHandle, k: int) -> None:
        t_next = h.t_start_ns + k * int(self.cfg.rebroadcast_interval_s * NS)
        self._schedule(max(0, t_next - self.now_ns), self._rebroadcast_tick, h, k)

    def _rebroadcast_tick(self, h: RequestHandle, k: int) -> None:
        if h.done:
            return
        node = self.nodes[h.requester]
        if node.online:
            self._broadcast_want(h, initial=False)
            self._dht_extend(h)
        self._schedule_rebroadcast(h, k + 1)

    def _broadcast_timeout(self, h: RequestHandle) -> None:
        if h.done or h._target is not None or h.session or h._dht_searched:
            return
        self._dht_step(h)

    def _send_want_block(self, h: RequestHandle, target: NodeId) -> None:
        h._target = target
        h._tried.add(target)
        h._notified.add(target)
        self._send(self.nodes[h.requester], self.nodes[target], "want_block", h.cid)
        self._schedule(int(self.cfg.want_block_timeout_s * NS), self._fetch_timeout, h, target)

    def _fetch_timeout(self, h: RequestHandle, target: NodeId) -> None:
        if h.done or h._target != target:
            return
        h._target = None
        nxt = next((p for p in h.session if p not in h._tried), None)
        if nxt is not None:
            self._send_want_block(h, nxt)
        else:
            self._dht_step(h)

    def _dht_step(self, h: RequestHandle) -> None:
        """Provider lookup after the broadcast round came up empty."""
        h._dht_searched = True
        contacted = self._dht_extend(h)
        if contacted == 0 and h._target is None:
            h.idle = True
        else:
            self._schedule(int(self.cfg.broadcast_timeout_s * NS), self._idle_check, h)

    def _idle_check(self, h: RequestHandle) -> None:
        if not h.done and h._target is None:
            h.idle = True

    def _dht_extend(self, h: RequestHandle) -> int:
        """Connect to unconnected providers and ask them directly."""
        node = self.nodes[h.requester]
        providers = sorted(
            p for p in self.find_providers(h.cid) if p != h.requester
        )
        new = [p for p in providers if p not in node.peers]
        for p in new:
            self.connect(h.requester, p)
        h._notified.update(new)
        for p in new:
            self._send(node, self.nodes[p], "want_have", h.cid)
        return len(new)

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
        self._cache_log_open(node.id, cid)
        if len(node.cache) > cap:
            evicted, _ = node.cache.popitem(last=False)
            self._cache_log_close(node.id, evicted)

    def _cache_log_open(self, nid: NodeId, cid: Cid) -> None:
        self.ground_truth.cache_log.setdefault((nid, cid), []).append([self.now_ns, None])

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
        self.nodes[nid].store.add(cid)
        self.dht.setdefault(cid, set()).add(nid)

    def find_providers(self, cid: Cid) -> set[NodeId]:
        return {p for p in self.dht.get(cid, ()) if self.nodes[p].online}

    # ------------------------------------------------------------------
    # liveness

    def set_offline(self, nid: NodeId) -> None:
        node = self.nodes[nid]
        if not node.online:
            return
        node.resume_peers = node.sorted_peers()
        for p in node.resume_peers:
            self.disconnect(nid, p)
        node.online = False

    def set_online(self, nid: NodeId) -> None:
        node = self.nodes[nid]
        if node.online:
            return
        node.online = True
        for p in node.resume_peers:
            if self.nodes[p].online:
                self.connect(nid, p)
        node.resume_peers = []

    def _churn_off(self, nid: NodeId) -> None:
        if not self.nodes[nid].online:
            return
        self.set_offline(nid)
        delay = self.rng.expovariate(1.0 / self.cfg.churn.mean_offline_s)
        self._schedule(int(delay * NS), self._churn_on, nid)

    def _churn_on(self, nid: NodeId) -> None:
        self.set_online(nid)
        delay = self.rng.expovariate(1.0 / self.cfg.churn.mean_session_s)
        self._schedule(int(delay * NS), self._churn_off, nid)

    # ------------------------------------------------------------------
    # gateways

    def gateway_http_request(self, dns_name: str, cid: Cid) -> GatewayResult:
        """Serve from the gateway cache or start a retrieval on the group's
        next backing node; the simulation does not advance here."""
        group = self.gateways.get(dns_name)
        if group is None:
            raise UnknownGatewayError(f"no gateway registered as {dns_name!r}")
        if self.rng.random() < self.cfg.gateway_cache_hit_ratio:
            return GatewayResult(dns_name, None, None, True, group.functional)
        backing = group.nodes[group.rr % len(group.nodes)]
        group.rr += 1
        h = self.request(backing, cid)
        return GatewayResult(dns_name, backing, h, False, group.functional)

    # ------------------------------------------------------------------
    # probes

    def probe_want_have(self, prober: NodeId, target: NodeId, cid: Cid) -> bool:
        pn, tn = self.nodes[prober], self.nodes[target]
        if not tn.online:
            raise ProbeUnreachableError("target is offline")
        if not pn.online:
            raise ProbeUnreachableError("prober is offline")
        if target not in pn.peers:
            self.connect(prober, target)
        key = (prober, target, cid)
        self._probe_waits[key] = None
        self._send(pn, tn, "want_have", cid)
        self._advance_until(
            lambda: self._probe_waits[key] is not None,
            self.now_ns + PROBE_TIMEOUT_NS,
        )
        return bool(self._probe_waits.pop(key))

    # ------------------------------------------------------------------
    # world building

    def _build(self) -> None:
        cfg = self.cfg
        rng = self.rng
        countries = self._plan_countries()
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

    def _plan_countries(self):
        """Quota country assignment (largest remainder) over regular nodes."""
        cfg = self.cfg
        n_quota = cfg.n_dht_servers + cfg.n_clients  # request-issuing nodes
        if not cfg.country_weights:
            self._country_prefixes = {"ZZ": 10}
            while True:
                yield "ZZ"
        weights = list(cfg.country_weights)
        total = sum(w for _, w in weights)
        self._country_prefixes = {
            country: 60 + i for i, (country, _) in enumerate(sorted(weights))
        }
        self._country_prefixes.setdefault("ZZ", 10)
        shares = [(c, w / total * n_quota) for c, w in weights]
        counts = {c: int(s) for c, s in shares}
        leftover = n_quota - sum(counts.values())
        by_fraction = sorted(shares, key=lambda cs: (cs[1] - int(cs[1]), cs[0]), reverse=True)
        for c, _ in by_fraction[:leftover]:
            counts[c] += 1
        plan = [c for c, k in counts.items() for _ in range(k)]
        self.rng.shuffle(plan)
        for country in plan:
            yield country
        while True:
            yield weights[0][0]

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
        # Each step joins the node of most remaining need to the next k in
        # (need descending, fresh random tie) order. lexsort is stable, so
        # equal keys keep index order, as a stable sort over range(n) did.
        need = np.array(targets, dtype=np.int64)
        draw = rng.random
        while True:
            tie = np.fromiter(starmap(draw, repeat((), n)), np.float64, n)
            order = np.lexsort((tie, -need))
            u = order[0]
            k = int(need[u])
            if k == 0:
                break
            if n - 1 < k or need[order[k]] == 0:
                raise ConfigError("degree sequence not realizable, lower the range")
            partners = order[1 : k + 1]
            need[u] = 0
            need[partners] -= 1
            a = regular[u]
            for v in partners.tolist():
                self.connect(a, regular[v])

    def _build_gateway_groups(self, gateway_nodes: list[NodeId]) -> None:
        sizes = self.cfg.gateway_group_sizes or tuple([1] * len(gateway_nodes))
        at = 0
        for i, size in enumerate(sizes):
            name = f"gw{i}.example"
            members = gateway_nodes[at : at + size]
            at += size
            group = _GatewayGroup(
                dns_name=name,
                nodes=members,
                functional=name not in self.cfg.broken_gateway_names,
            )
            self.gateways[name] = group
            for nid in members:
                self.nodes[nid].dns_name = name

    def _codec_plan(self) -> list[Codec]:
        """Catalog codec assignment in exact largest-remainder proportions."""
        cfg = self.cfg
        size = cfg.catalog_size
        weights = cfg.codec_weights or (("dag-pb", 1.0),)
        total = sum(w for _, w in weights)
        shares = [(Codec.from_name(name), w / total * size) for name, w in weights]
        counts = [int(s) for _, s in shares]
        leftover = size - sum(counts)
        order = sorted(
            range(len(shares)),
            key=lambda i: (shares[i][1] - counts[i], -i),
            reverse=True,
        )
        for i in order[:leftover]:
            counts[i] += 1
        plan: list[Codec] = []
        for (codec, _), k in zip(shares, counts):
            plan.extend([codec] * k)
        self.rng.shuffle(plan)
        return plan

    def _build_catalog(self, servers: list[NodeId]) -> None:
        cfg = self.cfg
        if cfg.catalog_size == 0:
            return
        codecs = self._codec_plan()
        n_unresolvable = round(cfg.unresolvable_fraction * cfg.catalog_size)
        resolvable_flags = [i >= n_unresolvable for i in range(cfg.catalog_size)]
        self.rng.shuffle(resolvable_flags)
        provider_pool = servers
        for i in range(cfg.catalog_size):
            content = f"item-{cfg.seed}-{i}".encode()
            cid = hash_content(content, codecs[i])
            providers: tuple[NodeId, ...] = ()
            if resolvable_flags[i] and provider_pool:
                k = min(cfg.catalog_replication, len(provider_pool))
                providers = tuple(self.rng.sample(provider_pool, k))
                for p in providers:
                    self.provide(p, cid)
            self.catalog.append(
                CatalogItem(i, cid, resolvable_flags[i] and bool(providers), providers)
            )
        if isinstance(cfg.popularity_sampler, ZipfPopularity):
            s = cfg.popularity_sampler.exponent
            weights = [(i + 1) ** (-s) for i in range(cfg.catalog_size)]
        elif isinstance(cfg.popularity_sampler, LogNormalPopularity):
            mu, sigma = cfg.popularity_sampler.mu, cfg.popularity_sampler.sigma
            weights = [self.rng.lognormvariate(mu, sigma) for _ in range(cfg.catalog_size)]
        else:
            weights = None
        if weights is not None:
            cum = []
            acc = 0.0
            for w in weights:
                acc += w
                cum.append(acc)
            self._pop_cum = cum

    def _sample_item(self) -> int:
        if self._pop_cum is None:
            return self.rng.randrange(len(self.catalog))
        u = self.rng.random() * self._pop_cum[-1]
        return min(bisect.bisect_right(self._pop_cum, u), len(self.catalog) - 1)

    # ------------------------------------------------------------------
    # run orchestration

    def _attach_monitors(self) -> None:
        cov = self.cfg.monitor_coverage
        for m in self.monitors:
            for nid in sorted(self.regular_ids()):
                if cov >= 1.0 or self.rng.random() < cov:
                    self.connect(nid, m)

    def _start_churn(self) -> None:
        for nid in sorted(self.regular_ids()):
            delay = self.rng.expovariate(1.0 / self.cfg.churn.mean_session_s)
            self._schedule(int(delay * NS), self._churn_off, nid)

    def _schedule_workload(self, duration_s: float) -> None:
        cfg = self.cfg
        if cfg.request_rate_per_node > 0 and self.catalog:
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
                for t, idx in zip(times, items):
                    self._schedule(int(t * NS), self._workload_request, nid, idx)
        if cfg.gateway_http_rate > 0 and self.catalog and self.gateways:
            for dns_name in sorted(self.gateways):
                t = self.rng.expovariate(cfg.gateway_http_rate)
                while t < duration_s:
                    idx = self._sample_item()
                    self._schedule(int(t * NS), self._workload_gateway, dns_name, idx)
                    t += self.rng.expovariate(cfg.gateway_http_rate)

    def _workload_request(self, nid: NodeId, item_idx: int) -> None:
        if self.nodes[nid].online:
            self.request(nid, self.catalog[item_idx].cid)

    def _workload_gateway(self, dns_name: str, item_idx: int) -> None:
        self.gateway_http_request(dns_name, self.catalog[item_idx].cid)

    def run(self, duration_s: float | None = None):
        """Advance the world; returns (traces, conn events, ground truth)."""
        dur = self.cfg.duration_s if duration_s is None else duration_s
        if not self._monitors_attached:
            self._attach_monitors()
            self._monitors_attached = True
        if self.cfg.churn is not None and not self._churn_started:
            self._start_churn()
            self._churn_started = True
        if dur > 0:
            self._schedule_workload(dur)
            self.run_for(dur)
        return self.traces, self.conn_events, self.ground_truth


# ----------------------------------------------------------------------
# module-level operation surface


def build_network(cfg: SimConfig) -> Network:
    """Create nodes, the degree-constrained connection graph, gateway
    groups, and the content catalog with its provider records."""
    net = Network(cfg)
    net._build()
    return net


def run(net: Network, duration_s: float | None = None):
    return net.run(duration_s)


def node_request(net: Network, node: NodeId, cid: Cid) -> RequestHandle:
    """Issue a retrieval and advance the simulation until it settles or
    parks in the periodic-retry loop. The handle stays live: an idle
    request may still resolve during later simulation time."""
    h = net.request(node, cid)
    if not h.settled_or_idle:
        net._advance_until(lambda: h.settled_or_idle, net.now_ns + 3600 * NS)
    return h


def sample_min_distance(net: Network, target: NodeId) -> float:
    """Minimum normalized XOR distance from ``target`` to any online DHT
    server; the raw observable behind the DHT-based size estimator."""
    ids = [n.id for n in net.nodes.values() if n.online and n.kind in _DHT_SERVER_KINDS]
    if not ids:
        raise ValueError("network has no online DHT servers")
    return min(v ^ target for v in ids) / ID_SPACE
