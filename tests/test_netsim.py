import json
import math
import random
import re
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from helpers import record_dispatch

from swarmwatch import netsim
from swarmwatch.core import RAW, NodeId, RequestType, hash_content
from swarmwatch.errors import ConfigError, InputError, UnknownGatewayError
from swarmwatch.netsim import (
    ChurnConfig,
    Network,
    NodeKind,
    RequestStatus,
    SimConfig,
    ZipfPopularity,
    build_network,
    config_from_dict,
    config_to_dict,
    node_request,
    run,
    sample_min_distance,
)

NS = 1_000_000_000


def scripted_net(**cfg_kwargs):
    cfg = SimConfig(degree_range=(0, 0), **cfg_kwargs)
    return build_network(cfg)


class TestBuildNetwork:
    def test_empty_config(self):
        net = build_network(SimConfig())
        traces, conns, gt = run(net)
        assert gt.n_total == 0
        assert traces == {} and conns == {}

    def test_determinism(self):
        def go():
            cfg = SimConfig(
                n_dht_servers=8,
                n_clients=6,
                n_monitors=2,
                degree_range=(3, 5),
                catalog_size=30,
                request_rate_per_node=0.4,
                unresolvable_fraction=0.25,
                duration_s=30.0,
                seed=42,
                popularity_sampler=ZipfPopularity(1.2),
            )
            return run(build_network(cfg))

        t1, c1, g1 = go()
        t2, c2, g2 = go()
        assert t1 == t2
        assert c1 == c2
        assert g1.summary() == g2.summary()

    def test_degree_census(self):
        cfg = SimConfig(n_dht_servers=1000, degree_range=(600, 900), seed=42)
        net = build_network(cfg)
        degrees = [len(n.peers) for n in net.nodes.values()]
        mean = sum(degrees) / len(degrees)
        assert 600 <= mean <= 900
        assert min(degrees) >= 600 - 1  # parity repair may shave one step
        assert max(degrees) <= 900

    def test_impossible_degree_rejected(self):
        with pytest.raises(ConfigError):
            build_network(SimConfig(n_dht_servers=5, degree_range=(3, 10)))

    def test_node_ids_uniform(self):
        net = build_network(SimConfig(n_dht_servers=600, degree_range=(0, 0), seed=5))
        xs = [n.id.pos() for n in net.nodes.values()]
        assert stats.kstest(xs, "uniform").pvalue > 0.01

    def test_config_json_round_trip(self):
        cfg = SimConfig(
            n_dht_servers=3,
            n_gateways=2,
            degree_range=(1, 2),
            catalog_size=5,
            popularity_sampler=ZipfPopularity(0.9),
            churn=ChurnConfig(60.0, 20.0),
            gateway_group_sizes=(2,),
            codec_weights=(("dag-pb", 0.8), ("raw", 0.2)),
        )
        assert config_from_dict(config_to_dict(cfg)) == cfg

    def test_unknown_config_field_rejected(self):
        with pytest.raises(ConfigError):
            config_from_dict({"n_dht_servres": 3})

    def test_config_dict_lists_every_field(self):
        cfg = SimConfig(
            n_dht_servers=4,
            n_gateways=1,
            degree_range=(1, 3),
            popularity_sampler=ZipfPopularity(1.3),
            latency_range_s=(0.02, 0.05),
            broken_gateway_names=("gw0.example",),
            country_weights=(("US", 3.0), ("DE", 1.0)),
            workload="uniform",
            record_messages=True,
        )
        doc = config_to_dict(cfg)
        assert list(doc) == [f.name for f in fields(SimConfig)]
        assert doc["popularity_sampler"] == {"kind": "zipf", "exponent": 1.3}
        assert doc["country_weights"] == [["US", 3.0], ["DE", 1.0]]
        assert config_from_dict(json.loads(json.dumps(doc))) == cfg

    def test_int_accepted_for_float_field(self):
        cfg = config_from_dict({"duration_s": 30, "latency_range_s": [0, 1]})
        assert cfg.duration_s == 30.0 and isinstance(cfg.duration_s, float)
        assert cfg.latency_range_s == (0.0, 1.0)

    @pytest.mark.parametrize("doc, field_name", [
        ({"n_dht_servers": "5"}, "n_dht_servers"),
        ({"n_dht_servers": 5.0}, "n_dht_servers"),
        ({"n_dht_servers": True}, "n_dht_servers"),
        ({"record_messages": 1}, "record_messages"),
        ({"degree_range": [1, 2, 3]}, "degree_range"),
        ({"degree_range": 4}, "degree_range"),
        ({"codec_weights": [["raw"]]}, "codec_weights[0]"),
        ({"codec_weights": [["raw", "0.5"]]}, "codec_weights[0][1]"),
        ({"churn": {"mean_session_s": 60.0}}, "churn.mean_offline_s"),
        ({"churn": {"mean_session_s": 1.0, "mean_offline_s": 1.0, "x": 1}}, "churn.x"),
        ({"churn": 5}, "churn"),
        ({"popularity_sampler": {"kind": "pareto"}}, "popularity_sampler"),
        ({"popularity_sampler": {"kind": "zipf", "exponent": "1"}},
         "popularity_sampler.exponent"),
        ({"popularity_sampler": {"kind": "uniform", "exponent": 1.0}},
         "popularity_sampler.exponent"),
    ])
    def test_bad_field_names_itself(self, doc, field_name):
        with pytest.raises(ConfigError, match=re.escape(field_name)):
            config_from_dict(doc)

    @pytest.mark.parametrize("patch, field_name", [
        ({"monitor_coverage": math.nan}, "monitor_coverage"),
        ({"latency_range_s": (0.01, math.inf)}, "latency_range_s[1]"),
        ({"gateway_http_rate": math.inf}, "gateway_http_rate"),
        ({"request_rate_per_node": math.nan}, "request_rate_per_node"),
        ({"duration_s": -math.inf}, "duration_s"),
        ({"churn": ChurnConfig(math.nan, 20.0)}, "churn.mean_session_s"),
        ({"popularity_sampler": ZipfPopularity(math.inf)}, "popularity_sampler.exponent"),
        ({"country_weights": (("US", math.nan),)}, "country_weights[0][1]"),
        ({"codec_weights": (("raw", math.inf),)}, "codec_weights[0][1]"),
    ])
    def test_non_finite_float_field_names_itself(self, patch, field_name):
        # checked in validate, so a config built in code never reaches a run
        cfg = SimConfig(**patch)
        for check in (cfg.validate, lambda: Network(cfg),
                      lambda: config_from_dict(config_to_dict(cfg))):
            with pytest.raises(ConfigError, match=re.escape(field_name) + " must be finite"):
                check()

    @pytest.mark.parametrize("patch, message", [
        ({"request_rate_per_node": -0.1}, "request_rate_per_node must be non-negative"),
        ({"duration_s": -3.0}, "duration_s must be non-negative"),
        ({"gateway_http_rate": -1.0}, "gateway_http_rate must be non-negative"),
        ({"latency_range_s": (-0.01, 0.2)}, "latency_range_s must satisfy 0 <= low <= high"),
        ({"latency_range_s": (0.5, 0.1)}, "latency_range_s must satisfy 0 <= low <= high"),
        ({"codec_weights": (("raw", 0.0),)}, "codec_weights must be non-negative"),
        ({"codec_weights": (("raw", 2.0), ("dag-pb", -1.0))}, "codec_weights must be non-negative"),
        ({"country_weights": (("US", 0.0),)}, "country_weights must be non-negative"),
        ({"country_weights": (("US", -1.0), ("DE", 2.0))}, "country_weights must be non-negative"),
        ({"country_weights": (("US", 1.0), ("US", 1.0))},
         "country_weights lists a name more than once"),
        ({"country_weights": (("US", 1.0), ("DE", 0.0), ("US", 2.0))},
         "country_weights lists a name more than once"),
        ({"codec_weights": (("raw", 1.0), ("dag-pb", 1.0), ("raw", 1.0))},
         "codec_weights lists a name more than once"),
        # the check needs no catalog: a world with none still names the field
        ({"codec_weights": (("raw", 1.0), ("foo", 1.0))},
         "codec_weights[1][0]: unknown codec name 'foo'"),
        ({"n_gateways": 2, "degree_range": (0, 1), "broken_gateway_names": ("gw7.example",)},
         "broken_gateway_names: no gateway group is named 'gw7.example'"),
        # two groups, gw0 and gw1, though three gateway nodes
        ({"n_gateways": 3, "degree_range": (0, 1), "gateway_group_sizes": (2, 1),
          "broken_gateway_names": ("gw1.example", "gw2.example")},
         "broken_gateway_names: no gateway group is named 'gw2.example'"),
    ])
    def test_out_of_domain_field_names_itself(self, patch, message):
        cfg = SimConfig(**patch)
        for check in (cfg.validate, lambda: Network(cfg),
                      lambda: config_from_dict(config_to_dict(cfg))):
            with pytest.raises(ConfigError, match=re.escape(message)):
                check()

    def test_zero_stays_valid_where_it_was(self):
        cfg = SimConfig(
            n_dht_servers=6, n_gateways=1, n_monitors=1, degree_range=(1, 3), catalog_size=8,
            request_rate_per_node=0.0, gateway_http_rate=0.0, duration_s=0.0,
            latency_range_s=(0.0, 0.0),
            codec_weights=(("raw", 0.0), ("dag-pb", 1.0)),
            country_weights=(("US", 0.0), ("DE", 1.0)),
        )
        net = build_network(config_from_dict(config_to_dict(cfg)))
        assert {item.cid.codec.name for item in net.catalog} == {"dag-pb"}
        country_of = {cidr.split(".")[0]: country for cidr, country in net.geo_entries()}
        regular = [n for n in net.nodes.values() if n.kind is not NodeKind.MONITOR]
        assert {n.kind for n in regular} == {NodeKind.DHT_SERVER, NodeKind.GATEWAY}
        assert {country_of[n.address.split("/")[2].split(".")[0]] for n in regular} == {"DE"}


class TestRun:
    def test_zero_duration_empty_traces(self):
        cfg = SimConfig(
            n_dht_servers=5, n_monitors=1, degree_range=(1, 2),
            catalog_size=3, request_rate_per_node=1.0, seed=0,
        )
        traces, conns, gt = run(build_network(cfg))
        assert traces["m0"] == []

    def test_unresolvable_rebroadcast_schedule(self):
        # one requester, one monitor, one unresolvable cid, 95 s:
        # initial want plus re-broadcasts near 30/60/90 s
        net = scripted_net()
        r = net.add_node(NodeKind.DHT_CLIENT)
        net.add_node(NodeKind.MONITOR)
        m = net.monitors[0]
        net.connect(r, m, latency_s=0.02)
        h = node_request(net, r, hash_content(b"missing", RAW))
        assert h.status is RequestStatus.PENDING and h.idle
        net.run_for(95.0)
        times = [rec.timestamp_ns / NS for rec in net.traces["m0"]]
        assert len(times) == 4
        for got, want in zip(times, (0.02, 30.02, 60.02, 90.02)):
            assert got == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("span", [-3.0, math.nan, math.inf])
    def test_run_for_never_moves_the_clock_backwards(self, span):
        net = scripted_net()
        net.run_for(5.0)
        with pytest.raises(InputError, match="duration_s must be"):
            net.run_for(span)
        assert net.now_ns == 5 * NS
        net.run_for(0.0)  # an empty span stays valid
        assert net.now_ns == 5 * NS

    def test_run_on_a_zero_duration_config_attaches_monitors_and_starts_churn(self):
        net = build_network(SimConfig(n_dht_servers=3, n_monitors=1, degree_range=(1, 2),
                                      churn=ChurnConfig(60.0, 20.0)))
        run(net)
        assert net._monitors_attached and net._churn_started
        assert net.now_ns == 0 and net._heap  # the churn timers wait in the queue

    def test_two_monitors_see_request_with_latency_skew(self):
        net = scripted_net()
        r = net.add_node(NodeKind.DHT_CLIENT)
        net.add_node(NodeKind.MONITOR)
        net.add_node(NodeKind.MONITOR)
        m0, m1 = net.monitors
        net.connect(r, m0, latency_s=0.03)
        net.connect(r, m1, latency_s=0.19)
        node_request(net, r, hash_content(b"somewhere", RAW))
        net.run_for(1.0)
        t0 = net.traces["m0"][0].timestamp_ns
        t1 = net.traces["m1"][0].timestamp_ns
        assert net.traces["m0"][0].cid == net.traces["m1"][0].cid
        assert (t1 - t0) / NS == pytest.approx(0.16, abs=1e-6)


class TestNodeRequest:
    def test_cached_cid_local_hit_no_messages(self):
        net = scripted_net(record_messages=True)
        r = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, p, latency_s=0.01)
        cid = hash_content(b"mine", RAW)
        net.nodes[r].cache[cid] = None
        h = node_request(net, r, cid)
        assert h.status is RequestStatus.LOCAL_HIT
        net.run_for(1.0)
        assert net.message_log == []

    def test_direct_provider_full_exchange(self):
        # four-party broadcast: provider plus two bystanders answer
        net = scripted_net(record_messages=True)
        r = net.add_node(NodeKind.DHT_CLIENT)
        p2 = net.add_node(NodeKind.DHT_SERVER)
        p3 = net.add_node(NodeKind.DHT_SERVER)
        p4 = net.add_node(NodeKind.DHT_SERVER)
        for peer, lat in ((p2, 0.02), (p3, 0.05), (p4, 0.04)):
            net.connect(r, peer, latency_s=lat)
        cid = hash_content(b"popular", RAW)
        net.provide(p2, cid)
        h = node_request(net, r, cid)
        net.run_for(2.0)
        assert h.status is RequestStatus.FETCHED and h.provider == p2
        pair = [m.kind for m in net.message_log if {m.src, m.dst} == {r, p2}]
        assert pair == ["want_have", "have", "want_block", "block", "cancel"]
        # bystanders got the broadcast and the cancel, nothing else
        pair3 = [m.kind for m in net.message_log if {m.src, m.dst} == {r, p3}]
        assert pair3 == ["want_have", "dont_have", "cancel"]

    def test_dht_only_provider(self):
        net = scripted_net(record_messages=True)
        r = net.add_node(NodeKind.DHT_CLIENT)
        bystander = net.add_node(NodeKind.DHT_SERVER)
        far = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, bystander, latency_s=0.02)
        cid = hash_content(b"remote", RAW)
        net.provide(far, cid)
        h = node_request(net, r, cid)
        assert h.status is RequestStatus.FETCHED
        assert h.provider == far
        assert far in net.nodes[r].peers  # connection established via lookup
        kinds = [m.kind for m in net.message_log if {m.src, m.dst} == {r, far}]
        assert kinds[:4] == ["want_have", "have", "want_block", "block"]

    def test_fetch_makes_cache_serve_others(self):
        net = scripted_net()
        a = net.add_node(NodeKind.DHT_CLIENT)
        b = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.connect(a, p, latency_s=0.01)
        net.connect(a, b, latency_s=0.01)
        cid = hash_content(b"shared", RAW)
        net.provide(p, cid)
        assert node_request(net, a, cid).status is RequestStatus.FETCHED
        h = node_request(net, b, cid)
        assert h.status is RequestStatus.FETCHED
        assert h.provider == a


class TestDht:
    def test_no_providers_empty(self):
        net = scripted_net()
        assert net.find_providers(hash_content(b"x", RAW)) == set()

    def test_single_provider(self):
        net = scripted_net()
        p = net.add_node(NodeKind.DHT_SERVER)
        cid = hash_content(b"y", RAW)
        net.provide(p, cid)
        assert net.find_providers(cid) == {p}

    def test_offline_provider_filtered(self):
        net = scripted_net()
        p = net.add_node(NodeKind.DHT_SERVER)
        cid = hash_content(b"z", RAW)
        net.provide(p, cid)
        net.set_offline(p)
        assert net.find_providers(cid) == set()
        net.set_online(p)
        assert net.find_providers(cid) == {p}


class TestMinDistance:
    def test_target_in_network_gives_zero(self):
        net = scripted_net()
        p = net.add_node(NodeKind.DHT_SERVER)
        assert sample_min_distance(net, p) == 0.0

    def test_two_servers_hand_computed(self):
        net = scripted_net()
        a, b = NodeId(0b1010 << 200), NodeId(0b0110 << 200)
        net.add_node(NodeKind.DHT_SERVER, node_id=a)
        net.add_node(NodeKind.DHT_SERVER, node_id=b)
        t = NodeId(0b0010 << 200)
        expect = min(a ^ t, b ^ t) / (1 << 256)
        assert sample_min_distance(net, t) == expect

    def test_no_servers_errors(self):
        net = scripted_net()
        net.add_node(NodeKind.DHT_CLIENT)
        with pytest.raises(ValueError):
            sample_min_distance(net, NodeId(1))

    def test_min_distance_follows_order_statistic_law(self):
        n = 800
        net = build_network(SimConfig(n_dht_servers=n, degree_range=(0, 0), seed=0))
        rng = random.Random(500)
        xs = [sample_min_distance(net, NodeId.generate(rng)) for _ in range(400)]
        res = stats.kstest(xs, lambda x: 1 - (1 - x) ** n)
        assert res.pvalue > 0.01


class TestGateways:
    def test_full_cache_hit_ratio_never_touches_network(self):
        cfg = SimConfig(
            n_dht_servers=4, n_gateways=1, n_monitors=1, degree_range=(1, 2),
            catalog_size=5, seed=3, gateway_cache_hit_ratio=1.0,
        )
        net = build_network(cfg)
        run(net)
        for i in range(200):
            res = net.gateway_http_request("gw0.example", net.catalog[i % 5].cid)
            assert res.served_from_cache and res.http_succeeded
        net.run_for(5.0)
        assert sum(len(t) for t in net.traces.values()) == 0

    def test_97_percent_hit_ratio(self):
        cfg = SimConfig(
            n_dht_servers=4, n_gateways=1, n_monitors=0, degree_range=(1, 2),
            catalog_size=50, seed=8, gateway_cache_hit_ratio=0.97,
        )
        net = build_network(cfg)
        run(net)
        misses = 0
        for i in range(10_000):
            res = net.gateway_http_request("gw0.example", net.catalog[i % 50].cid)
            misses += not res.served_from_cache
        assert misses / 10_000 == pytest.approx(0.03, abs=0.01)

    def test_multi_node_gateway_round_robin(self):
        cfg = SimConfig(
            n_dht_servers=4, n_gateways=13, n_monitors=0, degree_range=(1, 3),
            catalog_size=40, seed=5, gateway_group_sizes=(13,),
        )
        net = build_network(cfg)
        run(net)
        seen = set()
        for i in range(26):
            res = net.gateway_http_request("gw0.example", net.catalog[i % 40].cid)
            seen.add(res.backing_node)
            net.run_for(1.0)
        assert seen == set(net.ground_truth.gateway_map["gw0.example"])
        assert len(seen) == 13

    def test_unknown_dns_name(self):
        net = scripted_net()
        with pytest.raises(UnknownGatewayError):
            net.gateway_http_request("nope.example", hash_content(b"q", RAW))

    def test_broken_gateway_still_requests(self):
        cfg = SimConfig(
            n_dht_servers=3, n_gateways=1, n_monitors=1, degree_range=(1, 2),
            catalog_size=4, seed=2, broken_gateway_names=("gw0.example",),
        )
        net = build_network(cfg)
        run(net)
        res = net.gateway_http_request("gw0.example", net.catalog[0].cid)
        assert not res.http_succeeded
        net.run_for(2.0)
        assert any(len(t) > 0 for t in net.traces.values())


class TestCache:
    def test_purge_then_negative(self):
        net = scripted_net()
        r = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, p, latency_s=0.01)
        cid = hash_content(b"c", RAW)
        net.provide(p, cid)
        node_request(net, r, cid)
        assert net.nodes[r].has_block(cid)
        assert net.ground_truth.cached(r, cid, net.now_ns)
        net.purge_cache(r, cid)
        assert not net.nodes[r].has_block(cid)
        assert not net.ground_truth.cached(r, cid, net.now_ns)

    def test_purge_all_on_empty_is_noop(self):
        net = scripted_net()
        r = net.add_node(NodeKind.DHT_CLIENT)
        net.purge_cache(r)
        assert len(net.nodes[r].cache) == 0

    def test_lru_eviction_removes_oldest(self):
        net = scripted_net(cache_capacity_blocks=2)
        r = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, p, latency_s=0.01)
        cids = [hash_content(bytes([i]), RAW) for i in range(3)]
        for cid in cids:
            net.provide(p, cid)
            node_request(net, r, cid)
        cache = net.nodes[r].cache
        assert cids[0] not in cache
        assert cids[1] in cache and cids[2] in cache
        # ground truth interval closed at eviction time
        assert not net.ground_truth.cached(r, cids[0], net.now_ns)


@pytest.fixture(scope="module")
def world():
    cfg = SimConfig(
        n_dht_servers=10,
        n_clients=8,
        n_monitors=2,
        degree_range=(3, 6),
        catalog_size=40,
        request_rate_per_node=0.3,
        unresolvable_fraction=0.25,
        duration_s=60.0,
        seed=1234,
        record_messages=True,
    )
    net = build_network(cfg)
    traces, conns, gt = run(net)
    return net, traces, conns, gt


class TestInvariantsOnRandomRuns:
    def test_monitor_passivity(self, world):
        net, traces, _, _ = world
        monitor_ids = set(net.monitors)
        for msgs in net.message_log:
            if msgs.kind in ("want_have", "want_block"):
                assert msgs.src not in monitor_ids
        for trace in traces.values():
            for rec in trace:
                assert rec.peer not in monitor_ids

    def test_message_causality(self, world):
        net, _, _, _ = world
        seen_want_block = set()
        seen_want = set()
        for m in net.message_log:
            if m.kind == "want_block":
                seen_want_block.add((m.src, m.dst, m.cid))
                seen_want.add((m.src, m.dst, m.cid))
            elif m.kind == "want_have":
                seen_want.add((m.src, m.dst, m.cid))
            elif m.kind == "block":
                assert (m.dst, m.src, m.cid) in seen_want_block
            elif m.kind == "cancel":
                assert (m.src, m.dst, m.cid) in seen_want

    def test_trace_timestamps_non_decreasing(self, world):
        _, traces, _, _ = world
        for trace in traces.values():
            times = [r.timestamp_ns for r in trace]
            assert times == sorted(times)
            assert all(r.flags == 0 for r in trace)

    def test_monitor_peer_sets_match_conn_events(self, world):
        net, traces, conns, _ = world
        for name, events in conns.items():
            connected_ever = {e.peer for e in events}
            observed = {r.peer for r in traces[name]}
            assert observed <= connected_ever

    def test_every_record_maps_to_an_issued_request(self, world):
        net, traces, _, gt = world
        issued = {(r.node, r.cid) for r in gt.requests_issued}
        for trace in traces.values():
            for rec in trace:
                if rec.request_type is not RequestType.CANCEL:
                    assert (rec.peer, rec.cid) in issued

    def test_cache_coherence(self, world):
        net, _, _, gt = world
        for (nid, cid), spans in gt.cache_log.items():
            for start, end in spans:
                assert end is None or end >= start
        for node in net.nodes.values():
            for cid in node.cache:
                assert gt.cached(node.id, cid, net.now_ns)


class TestWantPersistence:
    def test_want_persists_until_cancel(self):
        # the requester keeps its unresolved want and re-broadcasts it; the
        # peer answers each copy as it arrives and keeps no record of it
        net = scripted_net(record_messages=True)
        r = net.add_node(NodeKind.DHT_CLIENT)
        p = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, p, latency_s=0.01)
        cid = hash_content(b"slow", RAW)
        h = node_request(net, r, cid)  # unresolvable for now
        assert h.idle
        # provider appears later; the 30 s re-broadcast finds it
        net.provide(p, cid)
        net.run_for(35.0)
        assert h.status is RequestStatus.FETCHED
        sent = [(m.timestamp_ns, m.kind) for m in net.message_log if m.src == r]
        assert all(m.cid == cid for m in net.message_log)
        assert [kind for _, kind in sent] == ["want_have", "want_have", "want_block", "cancel"]
        assert sent[1][0] - sent[0][0] == 30 * NS
        answers = [m.kind for m in net.message_log if m.src == p]
        assert answers == ["dont_have", "have", "block"]
        block_at = next(m.timestamp_ns for m in net.message_log if m.kind == "block")
        assert sent[-1][0] > block_at



class TestOfflineRequester:
    @pytest.mark.parametrize("offline_first", [True, False],
                             ids=["offline-before-request", "offline-after-request"])
    def test_offline_requester_links_to_no_provider(self, offline_first):
        # the DHT fallback runs at once (no peers) or at the broadcast
        # timeout; either way an offline requester opens no connection
        net = scripted_net()
        r = net.add_node(NodeKind.DHT_CLIENT)
        bystander = net.add_node(NodeKind.DHT_SERVER)
        far = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, bystander, latency_s=0.02)
        cid = hash_content(b"far away", RAW)
        net.provide(far, cid)
        if offline_first:
            net.set_offline(r)
        h = net.request(r, cid)
        net.set_offline(r)
        net.run_for(2.0)
        assert net.nodes[r].peers == set() and net.nodes[far].peers == set()
        assert h.idle and not h.done
        # back online, the next re-broadcast's lookup finds the provider
        net.set_online(r)
        net.run_for(30.0)
        assert h.status is RequestStatus.FETCHED and h.provider == far

    def test_offline_requester_sends_no_want_block(self):
        # p1 and p2 both answer have; p1 leaves before the want_block reaches
        # it, and the requester is offline at the fetch timeout (1.2 s), so
        # it asks p2 for nothing then; back online at 1.3 s, its first
        # re-broadcast (30 s) gets p2's have again and then the block
        net = scripted_net(record_messages=True)
        r = net.add_node(NodeKind.DHT_CLIENT)
        p1 = net.add_node(NodeKind.DHT_SERVER)
        p2 = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, p1, latency_s=0.1)
        net.connect(r, p2, latency_s=0.2)
        cid = hash_content(b"two holders", RAW)
        net.provide(p1, cid)
        net.provide(p2, cid)
        h = net.request(r, cid)
        net.run_for(0.25)
        net.set_offline(p1)
        net.run_for(0.85)
        net.set_offline(r)
        net.run_for(0.2)
        i = net.nodes[r].index
        assert not [e for e in net._heap if e[2] <= netsim._BLOCK and e[3] == i]
        net.set_online(r)
        net.run_for(1.0)
        assert h.idle and not h.done
        net.run_for(29.0)
        assert h.status is RequestStatus.FETCHED and h.provider == p2
        to_p2 = [(m.timestamp_ns, m.kind) for m in net.message_log if m.dst == p2]
        assert to_p2 == [(int(0.2 * NS), "want_have"), (int(30.2 * NS), "want_have"),
                         (int(30.6 * NS), "want_block"), (int(31.0 * NS), "cancel")]


class TestLinkTable:
    @staticmethod
    def _check(net, links, first):
        """Both ends of every live link hold it at its first latency,
        ``latency_ns`` keys are exactly the live peers in link order, and a
        former link's latency waits at one end only."""
        for node in net.nodes.values():
            assert [net._ids[p] for p in node.latency_ns] == links[node.id]
            assert not node.latency_ns.keys() & node.former_ns.keys()
            for p, lat in node.latency_ns.items():
                peer = net._at[p]
                assert peer.latency_ns[node.index] == lat
                assert lat == first[frozenset((node.id, peer.id))]
            for p, lat in node.former_ns.items():
                assert node.index not in net._at[p].former_ns
                assert lat == first[frozenset((node.id, net._ids[p]))]

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["connect", "disconnect", "set_offline",
                                               "set_online"]),
                              st.integers(0, 4), st.integers(0, 4)), max_size=40))
    def test_link_table_follows_connects_and_churn(self, steps):
        net = scripted_net()
        ids = [net.add_node(NodeKind.DHT_SERVER) for _ in range(4)]
        ids.append(net.add_node(NodeKind.MONITOR))
        # the test's own model: each node's peers in link order (a link
        # appends at both ends, an unlink removes), liveness and the peers
        # to resume
        links: dict = {nid: [] for nid in ids}
        online = dict.fromkeys(ids, True)
        resume: dict = {}
        first: dict = {}

        def link(u, v):
            if v not in links[u]:
                links[u].append(v)
                links[v].append(u)

        def unlink(u, v):
            if v in links[u]:
                links[u].remove(v)
                links[v].remove(u)

        for op, x, y in steps:
            a, b = ids[x], ids[y]
            if op in ("connect", "disconnect") and a == b:
                continue
            pair = frozenset((a, b))
            before = net.rng.getstate()
            fresh = op == "connect" and pair not in first
            getattr(net, op)(*((a, b) if op in ("connect", "disconnect") else (a,)))
            if op == "connect":
                link(a, b)
            elif op == "disconnect":
                unlink(a, b)
            elif op == "set_offline" and online[a]:
                resume[a] = list(links[a])
                for p in resume[a]:
                    unlink(a, p)
                online[a] = False
            elif op == "set_online" and not online[a]:
                online[a] = True
                for p in resume.pop(a):
                    if online[p]:
                        link(a, p)
            if fresh:
                first[pair] = net.nodes[a].latency_ns[net.nodes[b].index]
            # only a first link draws a latency; a relink reuses the pair's
            assert (net.rng.getstate() != before) == fresh
            self._check(net, links, first)

    @pytest.mark.parametrize("requester_unlinks", [True, False],
                             ids=["requester-unlinks", "peer-unlinks"])
    def test_want_block_to_unlinked_session_peer_arrives_after_relink(self, requester_unlinks):
        # p1 and p2 both answer have; p1 leaves before the want_block reaches
        # it, so at the fetch timeout the request asks p2, which unlinked
        # meanwhile (the latency waits at the end that unlinked) and relinks
        # before that want_block arrives
        net = scripted_net(record_messages=True)
        r = net.add_node(NodeKind.DHT_CLIENT)
        p1 = net.add_node(NodeKind.DHT_SERVER)
        p2 = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, p1, latency_s=0.1)
        net.connect(r, p2, latency_s=0.2)
        cid = hash_content(b"two holders", RAW)
        net.provide(p1, cid)
        net.provide(p2, cid)
        h = net.request(r, cid)
        net.run_for(0.25)  # p1's have arrived at 0.2 s; its want_block is in flight
        net.set_offline(p1)
        net.run_for(0.75)
        net.disconnect(*((r, p2) if requester_unlinks else (p2, r)))
        net.run_for(0.3)  # the fetch timeout at 1.2 s sends the want_block to p2
        state = net.rng.getstate()
        net.connect(r, p2)
        assert net.rng.getstate() == state
        assert net.nodes[r].latency_ns[net.nodes[p2].index] == int(0.2 * NS)
        net.run_for(1.0)
        assert h.status is RequestStatus.FETCHED and h.provider == p2
        to_p2 = [(m.timestamp_ns, m.kind) for m in net.message_log if m.dst == p2]
        assert to_p2 == [(int(0.2 * NS), "want_have"), (int(1.4 * NS), "want_block"),
                         (int(1.8 * NS), "cancel")]


class TestChurn:
    def test_churned_nodes_come_back_and_events_alternate(self):
        cfg = SimConfig(
            n_dht_servers=8,
            n_clients=4,
            n_monitors=1,
            degree_range=(2, 4),
            catalog_size=10,
            request_rate_per_node=0.1,
            churn=ChurnConfig(mean_session_s=15.0, mean_offline_s=8.0),
            duration_s=120.0,
            seed=77,
        )
        net = build_network(cfg)
        traces, conns, gt = run(net)
        states: dict = {}
        for e in conns["m0"]:
            prev = states.get(e.peer)
            assert prev != e.kind, "connect/disconnect must alternate"
            states[e.peer] = e.kind
        assert any(e.kind.value == "disconnect" for e in conns["m0"])


def _reference_degree_graph(net, regular):
    """The sort-per-step builder the vectorised one replaced, kept as its
    oracle: re-sort every node by (need descending, fresh random tie) on
    each step and join the first node to the next ``k`` with need left."""
    dmin, dmax = net.cfg.degree_range
    n = len(regular)
    if dmax == 0 or n < 2:
        if dmin > 0 and n >= 1:
            raise ConfigError("positive degree impossible with fewer than 2 nodes")
        return
    rng = net.rng
    targets = [rng.randint(dmin, dmax) for _ in range(n)]
    if sum(targets) % 2:
        i = rng.randrange(n)
        targets[i] += -1 if targets[i] > dmin else 1
    need = targets[:]
    while True:
        tie = [rng.random() for _ in range(n)]
        order = sorted(range(n), key=lambda i: (-need[i], tie[i]))
        u = order[0]
        k = need[u]
        if k == 0:
            break
        partners = [v for v in order[1:] if need[v] > 0][:k]
        if len(partners) < k:
            raise ConfigError("degree sequence not realizable, lower the range")
        need[u] = 0
        for v in partners:
            net.connect(regular[u], regular[v])
            need[v] -= 1


def _build_outcome(cfg):
    """What a build leaves behind that the graph builder decides: each
    node's peers and link latencies, and the random state after the whole
    build (catalog and gateways draw after the graph). A ConfigError is
    returned as its message."""
    try:
        net = build_network(cfg)
    except ConfigError as exc:
        return str(exc)
    links = {nid: sorted(node.latency_ns.items()) for nid, node in net.nodes.items()}
    peers = {nid: sorted(node.peers) for nid, node in net.nodes.items()}
    return peers, links, net.rng.getstate()


def _both_builders(cfg, monkeypatch):
    new = _build_outcome(cfg)
    with monkeypatch.context() as m:
        m.setattr(Network, "_build_degree_graph", _reference_degree_graph)
        old = _build_outcome(cfg)
    return new, old


# (servers, clients, gateways, degree range): the benchmark's range, a
# sparse one, a fixed odd degree over an odd node count (the sum of targets
# is odd, so the parity repair runs on every seed), and a world just one
# node larger than its maximum degree
BUILDER_WORLDS = [
    (60, 30, 4, (8, 14)),
    (25, 14, 1, (1, 3)),
    (30, 10, 1, (5, 5)),
    (10, 4, 1, (8, 14)),
    # 61 need levels, so most steps sort only a few top levels of 150 nodes
    (100, 45, 5, (40, 100)),
]


@pytest.mark.parametrize("servers, clients, gateways, degree", BUILDER_WORLDS,
                         ids=["8-14", "1-3", "5-5-odd", "n-just-above-dmax", "many-levels"])
def test_degree_graph_matches_sort_per_step_builder(servers, clients, gateways, degree,
                                                    monkeypatch):
    built = 0
    for seed in range(20):
        cfg = SimConfig(n_dht_servers=servers, n_clients=clients, n_gateways=gateways,
                        n_monitors=1, degree_range=degree, catalog_size=20, seed=seed)
        new, old = _both_builders(cfg, monkeypatch)
        assert new == old, f"seed {seed}"
        if not isinstance(new, str):
            built += 1
            if degree == (5, 5):
                # the parity repair lifted one node to degree 6
                assert sorted(len(p) for p in new[0].values())[-1] == 6
    assert built > 0


def test_degree_graph_matches_on_larger_world(monkeypatch):
    cfg = SimConfig(n_dht_servers=300, n_clients=100, degree_range=(20, 40), seed=3)
    new, old = _both_builders(cfg, monkeypatch)
    assert not isinstance(new, str) and new == old


def test_degree_graph_failures_match_sort_per_step_builder(monkeypatch):
    # tiny worlds with wide ranges: some degree sequences are not realizable
    outcomes = set()
    for n in range(3, 9):
        for dmin in range(0, n - 1):
            for seed in range(6):
                cfg = SimConfig(n_dht_servers=n, degree_range=(dmin, n - 1), seed=seed)
                new, old = _both_builders(cfg, monkeypatch)
                assert new == old, (n, dmin, seed)
                outcomes.add("raised" if isinstance(new, str) else "built")
    assert outcomes == {"raised", "built"}


@pytest.mark.parametrize("seed", range(20))
def test_numpy_view_draws_the_rngs_own_floats(seed):
    """The builder's Generator draws what ``Random.random`` would, bit for bit,
    from any position in the 624-word key, and hands the stream back."""
    rng = random.Random(seed)
    for offset in range(5):
        rng.getrandbits(32 * offset)  # an odd offset moves pos off a float's two words
        for size in (1, 2, 311, 312, 313, 624, 625, 1000, 2001):
            ref = random.Random()
            ref.setstate(rng.getstate())
            with netsim._numpy_view(rng) as gen:
                got = gen.random(size)
            want = [ref.random() for _ in range(size)]
            assert got.tolist() == want and rng.getstate() == ref.getstate()
            assert rng.random() == ref.random()


def test_numpy_view_hands_the_stream_back_after_an_error():
    rng, ref = random.Random(7), random.Random(7)
    with pytest.raises(ConfigError):
        with netsim._numpy_view(rng) as gen:
            gen.random(3)
            raise ConfigError("not realizable")
    for _ in range(3):
        ref.random()
    assert rng.getstate() == ref.getstate()


# a sim-batch world of the benchmark: 1,000 regular nodes with churn,
# gateway traffic and Zipf requests
SIM_BATCH_CONFIG = {
    "n_dht_servers": 600, "n_clients": 388, "n_gateways": 12, "n_monitors": 2,
    "degree_range": [8, 14], "catalog_size": 2000,
    "popularity_sampler": {"kind": "zipf", "exponent": 1.1},
    "request_rate_per_node": 0.025, "unresolvable_fraction": 0.3,
    "gateway_cache_hit_ratio": 0.9, "gateway_http_rate": 0.5,
    "gateway_group_sizes": [4, 3, 3, 2],
    "churn": {"mean_session_s": 1800.0, "mean_offline_s": 120.0},
    "monitor_coverage": 0.8, "duration_s": 120.0, "seed": 501,
}


def test_unlogged_wants_reach_only_monitors_holders_and_probed_peers(monkeypatch):
    # rules 2 and 3: no want goes to a peer that would neither log it nor
    # have the block
    handled = record_dispatch(monkeypatch)
    net = build_network(config_from_dict(SIM_BATCH_CONFIG))
    run(net)
    at, cids = net._at, net._cids
    wants = [(a, b, c) for _, _, code, a, b, c in handled if code == netsim._WANT_HAVE]
    assert wants
    assert all(b in net._monitor_idx or at[b].has_block(cids[c]) or (a, b, c) in net._probe_waits
               for a, b, c in wants)
