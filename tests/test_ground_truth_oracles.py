"""Cross-checks of trace-derived analytics against simulator ground truth."""

import pytest

from swarmwatch.analytics import popularity, rate_timeseries
from swarmwatch.core import NodeId
from swarmwatch.estimators import peer_set_stats
from swarmwatch.netsim import (
    NodeKind,
    SimConfig,
    build_network,
    run,
    sample_min_distance,
)
from swarmwatch.pipeline import mark_flags, unify
from swarmwatch.probes import idw, probe_gateway_once

NS = 1_000_000_000


def test_popularity_equals_ground_truth_tally():
    # distinct items per node remove any re-request ambiguity, so the
    # deduplicated popularity table must equal the issued-request tally
    cfg = SimConfig(
        n_dht_servers=8, n_clients=6, n_monitors=2, degree_range=(2, 4),
        catalog_size=200, request_rate_per_node=0.5, duration_s=30.0,
        seed=3, distinct_items_per_node=True,
    )
    traces, _, gt = run(build_network(cfg))
    table = popularity(mark_flags(unify(traces)))
    truth = gt.broadcast_tally()
    assert set(table.rrp) == set(truth)
    for cid, (rrp, urp) in truth.items():
        assert table.rrp[cid] == rrp
        assert table.urp[cid] == urp


def test_origin_group_rates_match_ground_truth():
    cfg = SimConfig(
        n_dht_servers=8, n_clients=4, n_gateways=2, n_monitors=1,
        degree_range=(2, 4), catalog_size=500, request_rate_per_node=0.3,
        gateway_http_rate=0.6, gateway_cache_hit_ratio=0.25,
        duration_s=40.0, seed=6, distinct_items_per_node=True,
    )
    net = build_network(cfg)
    traces, _, gt = run(net)
    gateway_nodes = {nid for nodes in gt.gateway_map.values() for nid in nodes}
    group_map = {nid: "gateway" for nid in gateway_nodes}
    bucket_s = 40.0
    points = rate_timeseries(
        mark_flags(unify(traces)),
        bucket_s=bucket_s,
        group_by="origin_group",
        group_map=group_map,
        drop_flagged=True,
    )
    totals = {}
    for p in points:
        totals[p.group] = totals.get(p.group, 0) + p.rate_per_s * bucket_s
    truth_by_group = {"gateway": 0, "non-gateway": 0}
    for req in gt.requests_issued:
        if req.kind != "broadcast":
            continue
        group = "gateway" if req.node in gateway_nodes else "non-gateway"
        truth_by_group[group] += 1
    for group, count in truth_by_group.items():
        assert totals.get(group, 0) == pytest.approx(count)


def test_idw_recall_equals_monitored_fraction():
    # partial monitor coverage: recall is exactly the fraction of
    # requesters that were connected to at least one monitor
    cfg = SimConfig(
        n_dht_servers=14, n_clients=10, n_monitors=2, degree_range=(3, 5),
        catalog_size=10, request_rate_per_node=0.4, duration_s=20.0,
        seed=12, monitor_coverage=0.6,
    )
    net = build_network(cfg)
    traces, _, gt = run(net)
    net.run_for(1.0)  # drain wants still in flight at the workload horizon
    marked = mark_flags(unify(traces))
    monitor_ids = set(net.monitors)
    monitored = {
        nid for nid, node in net.nodes.items() if node.peers & monitor_ids
    }
    checked = 0
    for cid, _ in gt.broadcast_tally().items():
        requesters = {
            r.node
            for r in gt.requests_issued
            if r.cid == cid and r.kind == "broadcast"
        }
        discovered = set(idw(marked, cid))
        assert discovered == requesters & monitored
        checked += 1
    assert checked > 0


def test_joint_union_coverage_matches_ground_truth():
    cfg = SimConfig(
        n_dht_servers=20, n_clients=10, n_monitors=2, degree_range=(3, 5),
        catalog_size=5, duration_s=10.0, seed=8, monitor_coverage=0.7,
    )
    net = build_network(cfg)
    _, conns, gt = run(net)
    stats = peer_set_stats(conns, (0, int(10.0 * NS)))
    union = set()
    for s in stats.peer_sets.values():
        union |= s
    monitor_ids = set(net.monitors)
    expected = {nid for nid, n in net.nodes.items() if n.peers & monitor_ids}
    assert union == expected
    assert stats.union_size / gt.true_n == pytest.approx(
        len(expected) / gt.true_n, abs=1e-9
    )


def test_dht_clients_invisible_to_min_distance():
    net = build_network(SimConfig(degree_range=(0, 0)))
    server = net.add_node(NodeKind.DHT_SERVER, node_id=NodeId(1 << 255))
    net.add_node(NodeKind.DHT_CLIENT, node_id=NodeId(5))
    target = NodeId(4)
    # the client id (distance 1) must not shadow the server
    assert sample_min_distance(net, target) == (
        ((1 << 255) ^ 4) / (1 << 256)
    )


def test_probe_baits_distinct_across_seeds():
    import random

    cfg = SimConfig(
        n_dht_servers=3, n_gateways=1, n_monitors=1, degree_range=(1, 2),
        catalog_size=5, seed=0, gateway_cache_hit_ratio=0.0,
    )
    net = build_network(cfg)
    run(net)
    baits = set()
    for seed in range(10):
        bait, _, _ = probe_gateway_once(
            net, "gw0.example", net.monitors, random.Random(seed)
        )
        baits.add(bait)
    assert len(baits) == 10
