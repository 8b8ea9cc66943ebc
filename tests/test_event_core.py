"""The simulator's event core: flat int events, the rules that leave out
messages nothing reads, the order of same-nanosecond events, and freeing a
finished network."""

import gc
import weakref

import pytest

from swarmwatch import netsim, probes
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

from helpers import record_dispatch
from test_golden import CHURN_CONFIG, REFERENCE_CONFIG
from test_netsim import scripted_net


# every gateway request goes to the overlay, and a third of the catalog is
# never provided, so the warmed world holds idle wants that are re-broadcast
# through every bait round
ATTACKED_CONFIG = {**REFERENCE_CONFIG, "gateway_cache_hit_ratio": 0.0,
                   "gateway_http_rate": 0.2, "duration_s": 60.0}
# with half coverage, a bait round's DHT lookup links a requester to the
# monitors providing the bait mid-request, and churn relinks reorder the
# link tables that broadcasts walk
CHURNED_ATTACK_CONFIG = {**ATTACKED_CONFIG, "monitor_coverage": 0.5,
                         "churn": {"mean_session_s": 40.0, "mean_offline_s": 10.0}}
# at degree 60-120 many answers to a request's broadcast are still in flight
# when its first HAVE closes the window, so rule 1 leaves out many dont_haves
HIGH_DEGREE_CONFIG = {**CHURNED_ATTACK_CONFIG, "n_dht_servers": 120, "n_clients": 75,
                      "n_gateways": 5, "gateway_group_sizes": [3, 2],
                      "degree_range": [60, 120], "duration_s": 30.0}
# every link is slower than half the broadcast window, so every answer lands
# after its request's timeout has started the DHT step
SLOW_LINKS_CONFIG = {**REFERENCE_CONFIG, "latency_range_s": [0.6, 0.9], "duration_s": 90.0}


def _attack(net) -> tuple:
    """Bait-probe every gateway, then a TPI batch from a new node: cached,
    provided and never-seen cids."""
    results = [probes.probe_gateway(net, name, net.monitors, seed=i)
               for i, name in enumerate(sorted(net.gateways))]
    targets = sorted(net.regular_ids())[:5]  # listed before the prober joins them
    prober = net.add_node(NodeKind.DHT_CLIENT)
    fresh = hash_content(b"never wanted", RAW)
    cached = sorted(key for key, spans in net.ground_truth.cache_log.items()
                    if spans[-1][1] is None)[:5]
    plan = (cached + [(item.providers[0], item.cid) for item in net.catalog[:20] if item.resolvable]
            + [(target, fresh) for target in targets])
    return results, [probes.tpi(net, prober, target, cid) for target, cid in plan
                     if net.nodes[target].online]


@pytest.mark.parametrize("doc, attack", [
    (CHURN_CONFIG, False),
    (CHURNED_ATTACK_CONFIG, True),
    (HIGH_DEGREE_CONFIG, True),
], ids=["churn", "attacked-churn", "high-degree"])
def test_request_timers_keep_their_invariants(doc, attack, monkeypatch):
    """The request timers rest on three invariants: one want_block out at a
    time, re-broadcasts on each request's own 30 s grid, and a broadcast
    window already closed when a request's block arrives."""
    seen = {"want_block": 0, "tick": 0, "block": 0}
    send_want_block = netsim.Network._send_want_block

    def checked_send(net, h, target):
        assert h._target is None
        seen["want_block"] += 1
        send_want_block(net, h, target)

    def checked(code, fn):
        def handler(net, a, b, c):
            if code == netsim._REBROADCAST and (h := net._live.get(a)) is not None:
                since = net.now_ns - h.t_start_ns
                assert since > 0 and since % netsim.REBROADCAST_INTERVAL_NS == 0
                seen["tick"] += 1
            if code == netsim._BLOCK and (h := net._requests.get((b, c))) is not None:
                assert h._pending_answers == set()
                seen["block"] += 1
            fn(net, a, b, c)
        return handler

    monkeypatch.setattr(netsim.Network, "_send_want_block", checked_send)
    monkeypatch.setattr(netsim, "_DISPATCH", tuple(
        checked(code, fn) for code, fn in enumerate(netsim._DISPATCH)))
    net = build_network(config_from_dict({**doc, "record_messages": False}))
    run(net)
    if attack:
        _attack(net)
    assert all(seen.values()), seen


def _outcome(doc: dict, record_messages: bool, attack: bool):
    net = build_network(config_from_dict({**doc, "record_messages": record_messages}))
    traces, conns, gt = run(net)
    attacked = _attack(net) if attack else ()
    return net, (attacked, traces, conns, gt.summary(), gt.cache_log, net.now_ns)


@pytest.mark.parametrize("doc, attack", [
    (CHURN_CONFIG, False),
    ({**REFERENCE_CONFIG, "duration_s": 60.0}, False),
    (ATTACKED_CONFIG, True),
    (CHURNED_ATTACK_CONFIG, True),
    (HIGH_DEGREE_CONFIG, True),
    (SLOW_LINKS_CONFIG, False),
], ids=["churn", "gateways", "attacked", "attacked-churn", "high-degree", "slow-links"])
def test_elided_messages_change_nothing_unless_logged(doc, attack, monkeypatch):
    handled = record_dispatch(monkeypatch)
    logged, with_log = _outcome(doc, True, attack)
    unlogged, without_log = _outcome(doc, False, attack)
    assert with_log == without_log
    # with the log off, a live request keeps only the monitors it told
    assert all(h._notified <= unlogged._monitor_idx for h in unlogged._live.values())
    assert any(h._notified for h in unlogged._live.values())
    # the logged run did send cancels to regular nodes, so the cancel rule was used
    monitors = set(logged.monitors)
    assert any(m.kind == "cancel" and m.dst not in monitors for m in logged.message_log)
    assert any(r.request_type is RequestType.CANCEL for t in with_log[1].values() for r in t)
    # and fewer wants and dont_have answers reached a node, so the answer rules were used
    for code in (netsim._WANT_HAVE, netsim._DONT_HAVE):
        delivered = [sum(n is net and k == code for n, _, k, _, _, _ in handled)
                     for net in (logged, unlogged)]
        assert delivered[0] > delivered[1]
    if attack:
        results, answers = with_log[0]
        assert all(r.discovered_node_ids for r in results) and True in answers and False in answers


def _one_requester(latency_s: float, provided: bool):
    """A requester r linked to two regular peers and a monitor, wanting a
    cid nobody holds; with ``provided``, its one provider is offline."""
    net = scripted_net()
    r = net.add_node(NodeKind.DHT_CLIENT)
    peers = [net.add_node(NodeKind.DHT_SERVER) for _ in range(2)]
    m = net.add_node(NodeKind.MONITOR)
    for p in peers + [m]:
        net.connect(r, p, latency_s=latency_s)
    cid = hash_content(b"held by nobody online", RAW)
    if provided:
        far = net.add_node(NodeKind.DHT_SERVER)
        net.provide(far, cid)
        net.set_offline(far)
    return net, r, peers, m, cid


def _queued(net) -> set:
    """(kind, receiver) of every message in the event queue."""
    return {(netsim._KINDS[code], net._ids[b])
            for _, _, code, _, b, _ in net._heap if code <= netsim._BLOCK}


@pytest.mark.parametrize("provided", [False, True], ids=["never-provided", "provider-offline"])
def test_rebroadcast_queues_only_messages_something_reads(provided):
    net, r, peers, m, cid = _one_requester(0.25, provided)
    h = net.request(r, cid)
    net.run_for(30.0)  # every peer answered dont_have; the re-broadcast just left
    assert h.idle
    # only the monitor's want is queued: no peer holds the cid; a provided
    # one's other wants are scheduled (rule 3), a never-provided one's left out
    assert _queued(net) == {("want_have", m)}
    assert [net._ids[p] for p in h._sched] == (peers if provided else [])
    net.run_for(0.3)  # the wants arrived at 30.25 s; no request awaits an answer
    assert _queued(net) == set()
    assert [rec.timestamp_ns for rec in net.traces["m0"]] == [NS // 4, 30 * NS + NS // 4]


def test_a_probe_by_the_requester_still_gets_its_answers(monkeypatch):
    handled = record_dispatch(monkeypatch)
    net, r, (p1, p2), m, cid = _one_requester(0.4, provided=False)
    net.request(r, cid)
    net.run_for(29.5)
    # the probe's want reaches p1 at 29.9 s and its answer returns at 30.3 s,
    # though r's request no longer awaits p1
    start = net.now_ns
    assert net.probe_want_have(r, p1, cid) is False
    assert net.now_ns == start + 8 * NS // 10
    # the re-broadcast at 30 s still goes to p1, whose probe wait was open
    net.run_for(1.0)
    wants = sorted((t, net._ids[b]) for _, t, code, _, b, _ in handled
                   if code == netsim._WANT_HAVE and t > start)
    assert wants == sorted([(29_900_000_000, p1), (30_400_000_000, p1), (30_400_000_000, m)])


def _window_world(record_messages: bool):
    """A requester r wanting a cid that p holds, p at 0.12 s, and two other
    peers and a monitor at 0.3 s; r's request is issued at 0 s."""
    net = scripted_net(record_messages=record_messages)
    r = net.add_node(NodeKind.DHT_CLIENT)
    p = net.add_node(NodeKind.DHT_SERVER)
    others = [net.add_node(NodeKind.DHT_SERVER) for _ in range(2)]
    m = net.add_node(NodeKind.MONITOR)
    cid = hash_content(b"held by p", RAW)
    net.provide(p, cid)
    net.connect(r, p, latency_s=0.12)
    for q in others + [m]:
        net.connect(r, q, latency_s=0.3)
    return net, net.request(r, cid), p, others + [m]


def test_the_first_have_closes_the_broadcast_window():
    outcomes = []
    for record_messages in (False, True):
        net, h, p, late = _window_world(record_messages)
        net.run_for(0.25)  # p's HAVE arrived at 0.24 s
        assert h._pending_answers == set()
        net.run_for(0.06)  # the others got the want at 0.3 s; nothing reads their answers
        dont_haves = sorted(net._ids[a] for _, _, code, a, _, _ in net._heap
                            if code == netsim._DONT_HAVE)
        assert dont_haves == (sorted(late) if record_messages else [])
        net.run_for(1.0)
        assert h.status is RequestStatus.FETCHED and h.provider == p
        gt = net.ground_truth
        outcomes.append((net.traces, net.conn_events, gt.summary(), gt.cache_log, net.now_ns))
    # the logged run delivered those dont_haves after the block and changed nothing
    assert sorted(msg.src for msg in net.message_log if msg.kind == "dont_have") == sorted(late)
    assert outcomes[0] == outcomes[1]


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
    handled = record_dispatch(monkeypatch)
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
    at_one = [code for _, t, code, _, _, _ in handled if t == NS]
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


def _both_ways(script, monkeypatch, **cfg):
    """Run ``script(net)`` on an empty scripted world (of config ``cfg``)
    with the message log on and then off. Return each run's outcome (what
    the script returned, traces, connection logs, ground truth and the
    clock) and the messages the unlogged run handled between the script's
    requester and its peer q, as (time, kind, sender is the requester)."""
    handled = record_dispatch(monkeypatch)
    outcomes = []
    for record_messages in (True, False):
        del handled[:]
        net = scripted_net(record_messages=record_messages, **cfg)
        result = script(net)
        gt = net.ground_truth
        outcomes.append((result, net.traces, net.conn_events, gt.summary(), gt.cache_log,
                         net.now_ns))
    r, q = (net.nodes[nid].index for nid in result[:2])
    messages = [(t, netsim._KINDS[code], a == r) for _, t, code, a, b, _ in handled
                if code <= netsim._BLOCK and {a, b} == {r, q}]
    return outcomes, messages


def _requester_world(net, far_s: float = 0.3):
    """A requester r with a monitor at 0.05 s and a regular peer q at
    ``far_s``, wanting a cid provided by a node r is not linked to: r's DHT
    step links r to that provider, and the monitor logs when r's want is
    cancelled, so its trace dates the step."""
    r, q, provider = (net.add_node(NodeKind.DHT_CLIENT), net.add_node(NodeKind.DHT_SERVER),
                      net.add_node(NodeKind.DHT_SERVER))
    m = net.add_node(NodeKind.MONITOR)
    net.connect(r, m, latency_s=0.05)
    net.connect(r, q, latency_s=far_s)
    cid = hash_content(b"wanted by r", RAW)
    net.provide(provider, cid)
    return r, q, cid


def _in_ns(expected):
    """(time in ms, kind, sender is the requester) as ``_both_ways`` lists them."""
    return [(t * NS // 1000, kind, by_r) for t, kind, by_r in expected]


def test_scheduled_peer_that_fetches_the_block_in_flight_answers_have(monkeypatch):
    def script(net):
        r, q, cid = _requester_world(net)
        holder = net.add_node(NodeKind.DHT_SERVER)
        net.connect(q, holder, latency_s=0.01)
        net.provide(holder, cid)
        h = net.request(r, cid)  # q holds nothing yet, so its want is scheduled
        net.request(q, cid)  # q has the block at 0.04 s; r's want reaches it at 0.3 s
        net.run_for(3.0)
        return r, q, h.status, h.provider == q
    (logged, unlogged), messages = _both_ways(script, monkeypatch)
    assert logged == unlogged and logged[0][2:] == (RequestStatus.FETCHED, True)
    assert messages == _in_ns([(300, "want_have", True), (600, "have", False),
                               (900, "want_block", True), (1200, "block", False)])


@pytest.mark.parametrize("drop_ms, relink_ms, expected", [
    # while the want flies (it arrives at 0.3 s): both arrive
    (100, 200, [(300, "want_have", True), (600, "dont_have", False)]),
    # while the answer flies (it is due at 0.6 s): it arrives
    (400, 500, [(600, "dont_have", False)]),
    # the answer is lost, so the window waits for its timeout
    (400, None, []),
    (400, 700, []),
], ids=["want-relinked", "answer-relinked", "answer-lost", "relinked-late"])
def test_scheduled_link_that_drops_in_flight(drop_ms, relink_ms, expected, monkeypatch):
    def script(net):
        r, q, cid = _requester_world(net)
        h = net.request(r, cid)
        net.run_for(drop_ms / 1000)
        net.disconnect(q, r)
        if relink_ms is not None:
            net.run_for((relink_ms - drop_ms) / 1000)
            net.connect(r, q)
        net.run_for(3.0)
        return r, q, h.status
    (logged, unlogged), messages = _both_ways(script, monkeypatch)
    assert logged == unlogged and logged[0][2] is RequestStatus.FETCHED
    assert messages == _in_ns(expected)


@pytest.mark.parametrize("back_ms, answered", [(250, True), (700, False), (2000, False)],
                         ids=["before-the-want-lands", "before-the-answer-is-due", "after"])
def test_requester_offline_in_its_window(back_ms, answered, monkeypatch):
    # offline from 0.2 s: the want to q, due there at 0.3 s, arrives only if
    # r is back and relinked by then
    def script(net):
        r, q, cid = _requester_world(net)
        h = net.request(r, cid)
        net.run_for(0.2)
        net.set_offline(r)
        net.run_for(back_ms / 1000 - 0.2)
        net.set_online(r)
        net.run_for(35.0)
        return r, q, h.status, h.idle
    (logged, unlogged), messages = _both_ways(script, monkeypatch)
    assert logged == unlogged
    assert messages[:2] == (_in_ns([(300, "want_have", True), (600, "dont_have", False)])
                            if answered else [])


@pytest.mark.parametrize("probe_ms, expected", [
    (100, [(400, "want_have", True), (500, "want_have", True),
           (800, "dont_have", False), (900, "dont_have", False)]),
    (500, [(800, "dont_have", False), (900, "want_have", True), (1300, "dont_have", False)]),
], ids=["want-in-flight", "answer-in-flight"])
def test_probe_on_a_scheduled_peer(probe_ms, expected, monkeypatch):
    # q's answer to r's broadcast (want at 0.4 s, answer due at 0.8 s)
    # serves r's probe of q, which then returns at 0.8 s
    def script(net):
        r, q, cid = _requester_world(net, far_s=0.4)
        h = net.request(r, cid)
        net.run_for(probe_ms / 1000)
        answer = net.probe_want_have(r, q, cid)
        returned_at = net.now_ns
        net.run_for(3.0)
        return r, q, answer, returned_at, h.status
    (logged, unlogged), messages = _both_ways(script, monkeypatch)
    assert logged == unlogged and logged[0][2:4] == (False, 800 * NS // 1000)
    assert messages == _in_ns(expected)


def test_relink_that_speeds_up_the_last_scheduled_answer(monkeypatch):
    # q2's answer was the last one due (0.6 s); relinked at 0.1 s over a
    # faster link, it comes back at 0.35 s, so q1's at 0.4 s is the last
    def script(net):
        r, q2, cid = _requester_world(net)
        q1 = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, q1, latency_s=0.2)
        h = net.request(r, cid)
        net.run_for(0.1)
        net.disconnect(r, q2)
        net.connect(r, q2, latency_s=0.05)
        net.run_for(3.0)
        return r, q2, h.status
    (logged, unlogged), messages = _both_ways(script, monkeypatch)
    assert logged == unlogged
    assert messages == _in_ns([(300, "want_have", True), (350, "dont_have", False)])


def test_want_that_lands_after_the_window_gets_no_answer():
    # rule 1 for a scheduled want: r's window closed at 0.04 s, so q sends
    # nothing back for the want that reached it at 0.3 s, and r's probe of q
    # at 0.4 s waits for q's answer to the probe itself (a logged run's q
    # answers every want, so there the probe would return at 0.6 s)
    net = scripted_net()
    r, q, cid = _requester_world(net)
    holder = net.add_node(NodeKind.DHT_SERVER)
    net.connect(r, holder, latency_s=0.02)
    net.provide(holder, cid)
    net.request(r, cid)
    net.run_for(0.4)
    assert net.probe_want_have(r, q, cid) is False
    assert net.now_ns == NS


def test_new_request_reads_answers_to_the_last_ones_wants(monkeypatch):
    # with no cache r requests again at 0.09 s, after a fetch that closed its
    # window at 0.04 s; the first request's want still reaches q at 0.3 s,
    # and q's answer to it counts for the second request at 0.6 s
    def script(net):
        r, q, cid = _requester_world(net)
        holder = net.add_node(NodeKind.DHT_SERVER)
        net.connect(r, holder, latency_s=0.02)
        net.provide(holder, cid)
        first = net.request(r, cid)
        net.run_for(0.09)
        net.disconnect(r, holder)
        second = net.request(r, cid)
        net.run_for(3.0)
        return r, q, first.status, second.status
    (logged, unlogged), messages = _both_ways(script, monkeypatch, cache_capacity_blocks=0)
    assert logged == unlogged
    assert messages == _in_ns([(300, "want_have", True), (390, "want_have", True),
                               (600, "dont_have", False), (690, "dont_have", False)])


def test_rebroadcast_keeps_the_last_schedules_wants_in_flight(monkeypatch):
    # over a 40 s link the first want reaches q at 40 s, after the 30 s
    # re-broadcast; q gets the block at 35 s, so it answers that want HAVE
    def script(net):
        r, q, cid = _requester_world(net, far_s=40.0)
        h = net.request(r, cid)
        net.set_offline(net.find_providers(cid).pop())  # r's window ends with no provider
        net.run_for(35.0)
        net.provide(q, cid)
        net.run_for(130.0)  # q's HAVE lands at 80 s, its block at 160 s
        return r, q, h.status, h.provider == q
    (logged, unlogged), messages = _both_ways(script, monkeypatch)
    assert logged == unlogged and logged[0][2:] == (RequestStatus.FETCHED, True)
    assert messages[:2] == [(40 * NS, "want_have", True), (70 * NS, "want_have", True)]
