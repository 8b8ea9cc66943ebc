import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import synthetic_records
from swarmwatch import pipeline
from swarmwatch.core import RAW, NodeId, RequestType, TraceRecord, hash_content
from swarmwatch.errors import ProbeUnreachableError
from swarmwatch.netsim import (
    NodeKind,
    SimConfig,
    build_network,
    node_request,
    run,
)
from swarmwatch.pipeline import UnifiedTrace, mark_flags, unify
from swarmwatch.probes import (
    cross_reference,
    idw,
    probe_gateway,
    tnw,
    tpi,
)

NS = 1_000_000_000


def scripted_net(**kwargs):
    return build_network(SimConfig(degree_range=(0, 0), **kwargs))


def flagged_trace(net):
    return mark_flags(unify(net.traces))


class TestIdw:
    def test_unrequested_cid_empty(self):
        net = scripted_net()
        net.add_node(NodeKind.MONITOR)
        assert idw(flagged_trace(net), hash_content(b"q", RAW)) == {}

    def test_monitored_requesters_discovered_exactly(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        b = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.add_node(NodeKind.MONITOR)
        m = net.monitors[0]
        for x in (a, b):
            net.connect(x, m, latency_s=0.02)
            net.connect(x, p, latency_s=0.01)
        cid = hash_content(b"wanted", RAW)
        net.provide(p, cid)
        node_request(net, a, cid)
        net.run_for(10.0)
        node_request(net, b, cid)
        net.run_for(10.0)
        found = idw(flagged_trace(net), cid)
        assert set(found) == {a, b}
        assert found[a] < found[b]

    def test_unmonitored_requester_invisible(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        hidden = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.add_node(NodeKind.MONITOR)
        m = net.monitors[0]
        net.connect(a, m, latency_s=0.02)
        net.connect(a, p, latency_s=0.01)
        net.connect(hidden, p, latency_s=0.01)
        cid = hash_content(b"wanted", RAW)
        net.provide(p, cid)
        node_request(net, a, cid)
        node_request(net, hidden, cid)
        net.run_for(5.0)
        assert set(idw(flagged_trace(net), cid)) == {a}

    def test_rebroadcasts_do_not_duplicate_wanters(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        net.add_node(NodeKind.MONITOR)
        net.connect(a, net.monitors[0], latency_s=0.02)
        cid = hash_content(b"unresolvable", RAW)
        node_request(net, a, cid)
        net.run_for(100.0)
        trace = flagged_trace(net)
        assert len([r for r in trace if r.cid == cid]) == 4
        assert set(idw(trace, cid)) == {a}


class TestTnw:
    def test_unknown_target_empty(self):
        net = scripted_net()
        net.add_node(NodeKind.MONITOR)
        assert tnw(flagged_trace(net), NodeId(12)) == []

    def test_scripted_requests_recovered(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.add_node(NodeKind.MONITOR)
        net.connect(a, net.monitors[0], latency_s=0.02)
        net.connect(a, p, latency_s=0.01)
        cids = [hash_content(bytes([i]), RAW) for i in range(5)]
        for cid in cids:
            net.provide(p, cid)
        for cid in cids:
            node_request(net, a, cid)
            net.run_for(1.0)
        wants = tnw(flagged_trace(net), a)
        assert [w[2] for w in wants] == cids
        assert all(w[1] is RequestType.WANT_HAVE for w in wants)

    def test_rebroadcasts_excluded(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        net.add_node(NodeKind.MONITOR)
        net.connect(a, net.monitors[0], latency_s=0.02)
        cid = hash_content(b"never", RAW)
        node_request(net, a, cid)
        net.run_for(125.0)
        wants = tnw(flagged_trace(net), a)
        assert len(wants) == 1  # one user action, several wire messages


# a few peers and cids, so that keys repeat; the last of each is never
# logged by the strategy below, so look-ups also ask for absent keys
_PEERS = [NodeId(p) for p in (3, 1, 2, 9)]
_CIDS = [hash_content(bytes([i]), RAW) for i in range(4)]


@st.composite
def _traces(draw):
    """Records with repeated peers and cids, flags, cancels and equal
    timestamps, in time order, ties in the order drawn."""
    rows = draw(st.lists(st.tuples(
        st.integers(0, 5), st.sampled_from(["m0", "m1"]), st.sampled_from(_PEERS[:-1]),
        st.sampled_from(list(RequestType)), st.sampled_from(_CIDS[:-1]),
        st.sampled_from([0, 0, 0, 1, 2, 3, 4])), max_size=30))
    records = [TraceRecord(t, m, peer, "/ip4/198.51.100.7/tcp/4001", rt, cid, flags)
               for t, m, peer, rt, cid, flags in rows]
    records.sort(key=lambda r: r.timestamp_ns)
    return UnifiedTrace(tuple(records), ("m0", "m1"))


class TestIndexedLookups:
    @given(trace=_traces())
    @settings(max_examples=300, deadline=None)
    def test_trace_answers_equal_the_scan(self, trace):
        # a UnifiedTrace reads one key's group, a list or a generator scans
        # the records: the same answers, in the same dict and list order
        for cid in _CIDS:
            got = idw(trace, cid)
            for scanned in (list(trace.records), (r for r in trace.records)):
                assert list(got.items()) == list(idw(scanned, cid).items())
        for peer in _PEERS:
            got = tnw(trace, peer)
            for scanned in (list(trace.records), (r for r in trace.records)):
                assert got == tnw(scanned, peer)

    def test_each_index_built_at_most_once(self, monkeypatch):
        built = []
        group = pipeline._group

        def counted(records, key):
            built.append(key)
            return group(records, key)

        monkeypatch.setattr(pipeline, "_group", counted)
        trace = mark_flags(unify({"m": synthetic_records(60, seed=3, monitors=("m",))}))
        assert built == []  # unify and mark_flags build no index
        cid, peer = trace.records[0].cid, trace.records[0].peer
        idw(trace, cid)
        index = trace.by_cid
        assert idw(trace, _CIDS[-1]) == {} and trace.by_cid is index and len(built) == 1
        tnw(trace, peer)
        index = trace.by_peer
        tnw(trace, peer)
        assert trace.by_peer is index and len(built) == 2

    def test_unified_and_marked_traces_answer_for_themselves(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        net.add_node(NodeKind.MONITOR)
        net.connect(a, net.monitors[0], latency_s=0.02)
        cid = hash_content(b"never", RAW)
        node_request(net, a, cid)
        net.run_for(125.0)
        unified = unify(net.traces)
        wire = tnw(unified, a)
        marked = mark_flags(unified)
        assert len(wire) > 1 and wire == tnw(list(unified.records), a)
        assert len(tnw(marked, a)) == 1 and tnw(marked, a) == tnw(list(marked.records), a)
        assert idw(unified, cid) == idw(marked, cid) == {a: wire[0][0]}


class TestTpi:
    def make_world(self):
        net = scripted_net()
        target = net.add_node(NodeKind.DHT_CLIENT)
        provider = net.add_node(NodeKind.DHT_SERVER)
        prober = net.add_node(NodeKind.DHT_CLIENT)
        net.connect(target, provider, latency_s=0.01)
        cid = hash_content(b"sensitive", RAW)
        net.provide(provider, cid)
        return net, target, prober, cid

    def test_fetched_then_positive(self):
        net, target, prober, cid = self.make_world()
        node_request(net, target, cid)
        assert tpi(net, prober, target, cid) is True

    def test_never_seen_negative(self):
        net, target, prober, cid = self.make_world()
        assert tpi(net, prober, target, cid) is False

    def test_purge_lifecycle(self):
        net, target, prober, cid = self.make_world()
        node_request(net, target, cid)
        assert tpi(net, prober, target, cid) is True
        net.purge_cache(target, cid)
        assert tpi(net, prober, target, cid) is False
        node_request(net, target, cid)
        assert tpi(net, prober, target, cid) is True

    def test_offline_target_unreachable(self):
        net, target, prober, cid = self.make_world()
        net.set_offline(target)
        with pytest.raises(ProbeUnreachableError):
            tpi(net, prober, target, cid)

    def test_matches_ground_truth_oracle(self):
        net, target, prober, cid = self.make_world()
        checks = []
        node_request(net, target, cid)
        checks.append((tpi(net, prober, target, cid), net.ground_truth.cached(target, cid, net.now_ns)))
        net.purge_cache(target, cid)
        checks.append((tpi(net, prober, target, cid), net.ground_truth.cached(target, cid, net.now_ns)))
        node_request(net, target, cid)
        checks.append((tpi(net, prober, target, cid), net.ground_truth.cached(target, cid, net.now_ns)))
        assert all(probe == oracle for probe, oracle in checks)


def gateway_world(n_backing: int, seed: int = 0, **kw):
    cfg = SimConfig(
        n_dht_servers=5,
        n_clients=0,
        n_gateways=n_backing,
        n_monitors=2,
        degree_range=(2, 4),
        catalog_size=10,
        seed=seed,
        gateway_group_sizes=(n_backing,),
        gateway_cache_hit_ratio=0.0,
        **kw,
    )
    net = build_network(cfg)
    run(net)
    return net


class TestProbeGateway:
    def test_single_backing_node_discovered(self):
        net = gateway_world(1)
        res = probe_gateway(net, "gw0.example", net.monitors, seed=1)
        assert res.discovered_node_ids == frozenset(net.ground_truth.gateway_map["gw0.example"])
        assert all(res.http_succeeded)
        assert res.probes_sent == 6  # 1 discovery + 5 stalls

    def test_thirteen_backing_nodes_all_discovered(self):
        net = gateway_world(13)
        res = probe_gateway(net, "gw0.example", net.monitors, seed=2)
        assert res.discovered_node_ids == frozenset(net.ground_truth.gateway_map["gw0.example"])
        assert len(res.discovered_node_ids) == 13

    def test_distinct_seeds_no_cross_attribution(self):
        cfg = SimConfig(
            n_dht_servers=5, n_gateways=2, n_monitors=1, degree_range=(2, 4),
            catalog_size=10, seed=4, gateway_group_sizes=(1, 1),
        )
        net = build_network(cfg)
        run(net)
        r0 = probe_gateway(net, "gw0.example", net.monitors, seed=10)
        r1 = probe_gateway(net, "gw1.example", net.monitors, seed=11)
        truth = net.ground_truth.gateway_map
        assert r0.discovered_node_ids == frozenset(truth["gw0.example"])
        assert r1.discovered_node_ids == frozenset(truth["gw1.example"])
        assert not (r0.discovered_node_ids & r1.discovered_node_ids)

    def test_broken_gateway_discovered_without_http(self):
        net = gateway_world(1, broken_gateway_names=("gw0.example",))
        res = probe_gateway(net, "gw0.example", net.monitors, seed=3)
        assert not any(res.http_succeeded)
        assert len(res.discovered_node_ids) == 1


class TestCrossReference:
    def test_single_node_single_address(self):
        net = gateway_world(1)
        res = probe_gateway(net, "gw0.example", net.monitors, seed=5)
        entries = cross_reference([res], flagged_trace(net))
        assert len(entries) == 1
        entry = entries[0]
        assert entry.dns_names == ("gw0.example",)
        assert not entry.multi_address and not entry.shared_address
        gw_node = next(iter(res.discovered_node_ids))
        assert entry.addresses == (net.nodes[gw_node].address,)

    def test_multi_address_flagged(self):
        net = gateway_world(1)
        res = probe_gateway(net, "gw0.example", net.monitors, seed=6)
        gw_node = next(iter(res.discovered_node_ids))
        # the node shows up again later under a different endpoint
        net.nodes[gw_node].address = "/ip4/198.51.100.99/tcp/4001"
        probe_gateway(net, "gw0.example", net.monitors, seed=7)
        entries = cross_reference([res], flagged_trace(net))
        assert entries[0].multi_address

    def test_shared_address_flagged(self):
        net = gateway_world(2)
        a, b = net.ground_truth.gateway_map["gw0.example"]
        net.nodes[b].address = net.nodes[a].address
        res = probe_gateway(net, "gw0.example", net.monitors, seed=8)
        entries = cross_reference([res], flagged_trace(net))
        assert all(e.shared_address for e in entries if e.node in (a, b))
