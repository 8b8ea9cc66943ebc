"""Privacy-attack primitives executed against traces or a live simulation.

Three attacks ride on monitor observations alone: listing the wanters of a
cid (IDW), tracking what a target node wants (TNW), and cache-probing a
target for past interest in a block (TPI). Gateway probing combines IDW
with a bait block: publish a fresh random cid with the monitors as its
providers, fetch it over the gateway's HTTP side, and whoever asks for it
on the overlay is the gateway's swarm identity.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Sequence

from .core import RAW, Cid, NodeId, RequestType, TraceRecord, hash_content
from .netsim import Network

# Probability that a random 256-bit bait cid collides with organic traffic
# is negligible; attribution confidence is bounded below by this constant.
BAIT_CID_CONFIDENCE = 1.0 - 2.0**-128

# simulated seconds a bait round waits for overlay wants after its HTTP request
PROBE_WINDOW_S = 30.0
# probe_gateway stops after this many rounds in a row find no new identity,
PROBE_STALL_LIMIT = 5
# or after this many rounds in all
PROBE_MAX_ROUNDS = 200


def idw(trace: Iterable[TraceRecord], cid: Cid) -> dict[NodeId, int]:
    """Identify data wanters: peers with a non-flagged want for ``cid``,
    each mapped to its first-seen timestamp."""
    first_seen: dict[NodeId, int] = {}
    for r in trace:
        if r.cid != cid or r.flags or r.request_type is RequestType.CANCEL:
            continue
        if r.peer not in first_seen or r.timestamp_ns < first_seen[r.peer]:
            first_seen[r.peer] = r.timestamp_ns
    return first_seen


def tnw(
    trace: Iterable[TraceRecord], target: NodeId
) -> list[tuple[int, RequestType, Cid]]:
    """Track node wants: the target's non-flagged want records in time
    order. Cancels and re-broadcasts are dropped, so the list approximates
    distinct user actions rather than wire messages."""
    out = [
        (r.timestamp_ns, r.request_type, r.cid)
        for r in trace
        if r.peer == target and not r.flags and r.request_type is not RequestType.CANCEL
    ]
    out.sort(key=lambda entry: entry[0])
    return out


def tpi(net: Network, prober: NodeId, target: NodeId, cid: Cid) -> bool:
    """Test for past interest: ask the target for availability of ``cid``.

    A WANT_HAVE transfers no data; the target answers from its cache and
    pinned store, so a positive answer means it fetched or published the
    block and has not dropped it since.
    """
    return net.probe_want_have(prober, target, cid)


@dataclass(frozen=True)
class GatewayProbeResult:
    dns_name: str
    discovered_node_ids: frozenset[NodeId]
    probes_sent: int
    http_succeeded: tuple[bool, ...]
    confidence: float = BAIT_CID_CONFIDENCE


def probe_gateway_once(
    net: Network,
    dns_name: str,
    monitors: Sequence[NodeId],
    rng: random.Random,
) -> tuple[Cid, set[NodeId], bool]:
    """One bait-block round: returns (bait cid, want senders, HTTP result)."""
    bait = hash_content(rng.randbytes(64), RAW)
    for m in monitors:
        net.provide(m, bait)
    start_at = {name: len(records) for name, records in net.traces.items()}
    t0 = net.now_ns
    result = net.gateway_http_request(dns_name, bait)
    net.run_for(PROBE_WINDOW_S)
    senders: set[NodeId] = set()
    for name, records in net.traces.items():
        for r in records[start_at[name] :]:
            if (
                r.cid == bait
                and r.timestamp_ns >= t0
                and r.request_type is not RequestType.CANCEL
            ):
                senders.add(r.peer)
    return bait, senders, result.http_succeeded


def probe_gateway(
    net: Network, dns_name: str, monitors: Sequence[NodeId], seed: int
) -> GatewayProbeResult:
    """Probe a gateway until no new overlay identity shows up for
    ``PROBE_STALL_LIMIT`` consecutive rounds (at most ``PROBE_MAX_ROUNDS``).
    Each round uses a fresh bait cid, so rounds never cross-attribute."""
    rng = random.Random(seed)
    discovered: set[NodeId] = set()
    http: list[bool] = []
    stall = 0
    probes = 0
    while stall < PROBE_STALL_LIMIT and probes < PROBE_MAX_ROUNDS:
        _, senders, ok = probe_gateway_once(net, dns_name, monitors, rng)
        probes += 1
        http.append(ok)
        if senders - discovered:
            discovered |= senders
            stall = 0
        else:
            stall += 1
    return GatewayProbeResult(
        dns_name=dns_name,
        discovered_node_ids=frozenset(discovered),
        probes_sent=probes,
        http_succeeded=tuple(http),
    )


@dataclass(frozen=True)
class CrossRefEntry:
    node: NodeId
    addresses: tuple[str, ...]
    dns_names: tuple[str, ...]
    multi_address: bool
    shared_address: bool


def cross_reference(
    results: Sequence[GatewayProbeResult],
    observations: Iterable[TraceRecord],
) -> list[CrossRefEntry]:
    """Join probe-discovered node ids against the addresses monitors saw
    them use. Flags identities seen at several addresses and addresses
    fronting several identities."""
    addr_by_node: dict[NodeId, set[str]] = {}
    nodes_by_addr: dict[str, set[NodeId]] = {}
    for r in observations:
        addr_by_node.setdefault(r.peer, set()).add(r.address)
        nodes_by_addr.setdefault(r.address, set()).add(r.peer)
    names_by_node: dict[NodeId, set[str]] = {}
    for res in results:
        for nid in res.discovered_node_ids:
            names_by_node.setdefault(nid, set()).add(res.dns_name)
    entries = []
    for nid in sorted(names_by_node):
        addresses = tuple(sorted(addr_by_node.get(nid, ())))
        entries.append(
            CrossRefEntry(
                node=nid,
                addresses=addresses,
                dns_names=tuple(sorted(names_by_node[nid])),
                multi_address=len(addresses) > 1,
                shared_address=any(
                    len(nodes_by_addr.get(a, ())) > 1 for a in addresses
                ),
            )
        )
    return entries
