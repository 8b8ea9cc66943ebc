"""The simulator's event core: flat int events, the cancel rule, the order
of same-nanosecond events, and freeing a finished network."""

import gc
import weakref

import pytest

from swarmwatch import netsim
from swarmwatch.core import RAW, RequestType, hash_content
from swarmwatch.netsim import (
    NS,
    PROBE_TIMEOUT_NS,
    NodeKind,
    RequestStatus,
    build_network,
    config_from_dict,
    node_request,
    run,
)

from test_golden import CHURN_CONFIG, REFERENCE_CONFIG
from test_netsim import scripted_net


def _outcome(doc: dict, record_messages: bool):
    net = build_network(config_from_dict({**doc, "record_messages": record_messages}))
    traces, conns, gt = run(net)
    return net, (traces, conns, gt.summary(), gt.cache_log)


@pytest.mark.parametrize("doc", [CHURN_CONFIG, {**REFERENCE_CONFIG, "duration_s": 60.0}],
                         ids=["churn", "gateways"])
def test_cancels_to_regular_nodes_change_nothing_unless_logged(doc):
    logged, with_log = _outcome(doc, True)
    _, without_log = _outcome(doc, False)
    assert with_log == without_log
    # the logged run did send cancels to regular nodes, so the rule was used
    monitors = set(logged.monitors)
    assert any(m.kind == "cancel" and m.dst not in monitors for m in logged.message_log)
    assert any(r.request_type is RequestType.CANCEL for t in with_log[0].values() for r in t)


def test_finished_network_is_freed_without_a_collection():
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        net = build_network(config_from_dict(CHURN_CONFIG))
        run(net)
        # the interactive paths too: a probe and a retrieval advanced to idle
        a, b = sorted(n for n in net.regular_ids() if net.nodes[n].online)[:2]
        net.probe_want_have(a, b, net.catalog[0].cid)
        node_request(net, a, net.catalog[1].cid)
        net.run_for(5.0)
        assert all(type(x) is int for event in net._heap for x in event)
        ref = weakref.ref(net)
        del net
        assert ref() is None
    finally:
        if was_enabled:
            gc.enable()


def test_messages_from_one_sender_at_one_instant_arrive_in_send_order():
    net = scripted_net()
    r = net.add_node(NodeKind.DHT_CLIENT)
    m = net.add_node(NodeKind.MONITOR)
    net.connect(r, m, latency_s=0.25)
    cids = [hash_content(bytes([i]), RAW) for i in (3, 1, 2, 0)]
    for cid in cids:
        net.request(r, cid)
    net.run_for(1.0)
    got = [(rec.timestamp_ns, rec.cid) for rec in net.traces["m0"]]
    assert got == [(NS // 4, cid) for cid in cids]


def test_timer_and_message_at_one_instant_keep_insertion_order(monkeypatch):
    handled = []

    def recorded(code, fn):
        def handler(network, a, b, c):
            handled.append((network.now_ns, code))
            fn(network, a, b, c)
        return handler

    monkeypatch.setattr(netsim, "_DISPATCH", tuple(
        recorded(code, fn) for code, fn in enumerate(netsim._DISPATCH)))
    net = scripted_net()
    r = net.add_node(NodeKind.DHT_CLIENT)
    m = net.add_node(NodeKind.MONITOR)
    p = net.add_node(NodeKind.DHT_SERVER)
    far = net.add_node(NodeKind.DHT_SERVER)
    cid = hash_content(b"raced", RAW)
    net.provide(p, cid)
    net.provide(far, cid)
    # the want to m leaves before the broadcast timer is set, p's answer
    # after it; all three are due at 1 s
    net.connect(r, m, latency_s=1.0)
    net.connect(r, p, latency_s=0.5)
    h = net.request(r, cid)
    net.run_for(1.0)
    at_one = [code for t, code in handled if t == NS]
    assert at_one == [netsim._WANT_HAVE, netsim._BROADCAST_TIMEOUT, netsim._HAVE]
    # so the timeout found no answer yet and looked the cid up in the DHT
    assert far in net.nodes[r].peers
    net.run_for(5.0)
    assert h.status is RequestStatus.FETCHED and h.provider == p


@pytest.mark.parametrize("one_way_ns, answered", [
    (PROBE_TIMEOUT_NS // 2, True),
    (PROBE_TIMEOUT_NS // 2 + 1, False),
])
def test_probe_answer_due_at_the_timeout_still_counts(one_way_ns, answered):
    net = scripted_net()
    prober = net.add_node(NodeKind.DHT_CLIENT)
    target = net.add_node(NodeKind.DHT_SERVER)
    cid = hash_content(b"probed", RAW)
    net.provide(target, cid)
    net.connect(prober, target, latency_s=one_way_ns / NS)
    start = net.now_ns
    assert net.probe_want_have(prober, target, cid) is answered
    assert net.now_ns == start + PROBE_TIMEOUT_NS
