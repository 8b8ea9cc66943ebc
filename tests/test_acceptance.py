"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (visible with pytest -s or on failure).

Statistical criteria run on fixed seed schedules so the whole suite is
deterministic.
"""

import random
from itertools import product

import numpy as np
import pytest
from scipy import stats
from scipy.special import zeta

from swarmwatch.analytics import codec_share, fit_power_law, geo_share, GeoDb
from swarmwatch.core import RAW, NodeId, RequestType, hash_content
from swarmwatch.estimators import (
    coupon_density,
    coverage,
    dht_size_from_min_distance,
    estimate_two_monitor,
    solve_coupon_mle,
)
from swarmwatch.netsim import (
    NodeKind,
    SimConfig,
    build_network,
    node_request,
    run,
    sample_min_distance,
)
from swarmwatch.pipeline import mark_flags, unify
from swarmwatch.probes import idw, probe_gateway, tpi

from helpers import brute_force_flags, synthetic_records

NS = 1_000_000_000


def report(criterion: int, text: str) -> None:
    print(f"[PASS] criterion {criterion:02d}: {text}")


def test_criterion_01_estimator_cross_consistency():
    # r=2 coupon MLE must reproduce the two-monitor formula
    rng = random.Random(1)
    worst = 0.0
    for _ in range(1000):
        w = rng.randint(1, 2000)
        inter = rng.randint(1, w)
        ref = estimate_two_monitor(w, w, inter).n_hat
        est = solve_coupon_mle(2 * w - inter, 2, w).n_hat
        worst = max(worst, abs(est - ref) / ref)
        assert abs(est - ref) / ref < 1e-6
    report(1, f"1000 random (w, inter) pairs agree; worst rel err {worst:.2e}")


def test_criterion_02_density_normalization_and_enumeration():
    checked = 0
    for n, w, r in product(range(1, 31), range(0, 5), range(1, 5)):
        if w > n:
            continue
        total = sum(
            coupon_density(n, w, r, m) for m in range(w, min(n, r * w) + 1)
        )
        assert total == pytest.approx(1.0, abs=1e-9)
        checked += 1
    # exhaustive enumeration oracle for N=3, w=1, r=2
    outcomes = [len({a, b}) for a, b in product(range(3), repeat=2)]
    enumerated = outcomes.count(2) / len(outcomes)
    assert enumerated == 2 / 3
    assert coupon_density(3, 1, 2, 2) == pytest.approx(enumerated, abs=1e-12)
    report(2, f"{checked} (N, w, r) combinations normalize; P[X=2|3,1,2] = 2/3")


def test_criterion_03_synthetic_urn_recovery():
    n, w = 10_000, 700
    tolerances = {2: 0.10, 4: 0.07}
    medians = {}
    for r, tol in tolerances.items():
        estimates = []
        for seed in range(200):
            rng = random.Random(seed * 7 + r)
            union = set()
            for _ in range(r):
                union.update(rng.sample(range(n), w))
            estimates.append(solve_coupon_mle(len(union), r, w).n_hat)
        estimates.sort()
        median = estimates[len(estimates) // 2]
        medians[r] = median
        assert abs(median - n) / n < tol
    report(
        3,
        f"urn N=10000: median r=2 {medians[2]:.0f}, r=4 {medians[4]:.0f} "
        "(within 10% / 7%)",
    )


def test_criterion_04_dht_min_distance_estimator():
    n = 5000
    net = build_network(SimConfig(n_dht_servers=n, degree_range=(0, 0), seed=0))
    rng = random.Random(500)
    xs = [sample_min_distance(net, NodeId.generate(rng)) for _ in range(1000)]
    est = dht_size_from_min_distance(xs)
    assert abs(est.n_hat - n) / n < 0.10
    ks = stats.kstest(xs, lambda x: 1 - (1 - x) ** n)
    assert ks.pvalue > 0.01
    report(
        4,
        f"N=5000, k=1000: estimate {est.n_hat:.0f} "
        f"({100 * (est.n_hat - n) / n:+.1f}%), KS p={ks.pvalue:.3f}",
    )


def test_criterion_05_pipeline_matches_brute_force():
    # synthetic heavy-collision trace at the 1e4 scale
    records = synthetic_records(10_000, seed=50, n_peers=10, n_cids=8)
    marked = mark_flags(unify([records]))
    expected = brute_force_flags(records)
    assert [r.flags for r in marked] == expected
    # idempotence of the marking pass
    assert list(mark_flags(marked)) == list(marked)
    # and on a simulator-produced two-monitor trace
    cfg = SimConfig(
        n_dht_servers=10, n_clients=8, n_monitors=2, degree_range=(3, 5),
        catalog_size=30, request_rate_per_node=0.4, unresolvable_fraction=0.4,
        duration_s=60.0, seed=5,
    )
    traces, _, _ = run(build_network(cfg))
    sim_records = list(unify(traces).records)
    assert len(sim_records) <= 10_000
    sim_marked = mark_flags(unify(traces))
    assert [r.flags for r in sim_marked] == brute_force_flags(sim_records)
    report(
        5,
        f"flags match quadratic checker on {len(records)} synthetic and "
        f"{len(sim_records)} simulated records; marking idempotent",
    )


def test_criterion_06_rebroadcast_share_exceeds_half():
    cfg = SimConfig(
        n_dht_servers=12, n_clients=10, n_monitors=2, degree_range=(3, 5),
        catalog_size=60, request_rate_per_node=0.15, unresolvable_fraction=0.9,
        duration_s=150.0, seed=21,
    )
    traces, _, gt = run(build_network(cfg))
    assert gt.rebroadcast_share() > 0.5
    marked = mark_flags(unify(traces))
    wants = [r for r in marked if r.request_type is not RequestType.CANCEL]
    measured = sum(1 for r in wants if r.is_rebroadcast) / len(wants)
    assert measured > 0.5
    report(
        6,
        f"ground-truth re-broadcast share {gt.rebroadcast_share():.1%}, "
        f"pipeline-measured {measured:.1%}",
    )


def test_criterion_07_protocol_fidelity():
    # exact single-provider exchange
    net = build_network(SimConfig(degree_range=(0, 0), record_messages=True))
    r = net.add_node(NodeKind.DHT_CLIENT)
    p2 = net.add_node(NodeKind.DHT_SERVER)
    p3 = net.add_node(NodeKind.DHT_SERVER)
    p4 = net.add_node(NodeKind.DHT_SERVER)
    for peer, lat in ((p2, 0.02), (p3, 0.05), (p4, 0.04)):
        net.connect(r, peer, latency_s=lat)
    cid = hash_content(b"acceptance-block", RAW)
    net.provide(p2, cid)
    h = node_request(net, r, cid)
    net.run_for(2.0)
    assert h.provider == p2
    exchange = [m.kind for m in net.message_log if {m.src, m.dst} == {r, p2}]
    assert exchange == ["want_have", "have", "want_block", "block", "cancel"]

    # unresolved wants re-broadcast on the 30 s cadence
    net2 = build_network(SimConfig(degree_range=(0, 0)))
    r2 = net2.add_node(NodeKind.DHT_CLIENT)
    net2.add_node(NodeKind.MONITOR)
    net2.connect(r2, net2.monitors[0], latency_s=0.02)
    node_request(net2, r2, hash_content(b"never-found", RAW))
    net2.run_for(95.0)
    times = [rec.timestamp_ns / NS for rec in net2.traces["m0"]]
    gaps = [b - a for a, b in zip(times, times[1:])]
    assert len(times) == 4
    assert all(abs(g - 30.0) < 0.5 for g in gaps)

    # monitors never originate wants, across seeds
    for seed in range(10):
        cfg = SimConfig(
            n_dht_servers=8, n_clients=6, n_monitors=2, degree_range=(2, 4),
            catalog_size=20, request_rate_per_node=0.4,
            unresolvable_fraction=0.3, duration_s=30.0, seed=seed,
            record_messages=True,
        )
        net3 = build_network(cfg)
        traces, _, _ = run(net3)
        monitor_ids = set(net3.monitors)
        assert not any(
            m.src in monitor_ids and m.kind in ("want_have", "want_block")
            for m in net3.message_log
        )
        assert not any(
            rec.peer in monitor_ids for trace in traces.values() for rec in trace
        )
    report(7, "exact exchange sequence, 30 s cadence, passive monitors over 10 seeds")


def _exact_discrete_powerlaw(alpha: float, size: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed + 10_000)
    ks = np.arange(1, 2_000_000, dtype=np.float64)
    pmf = ks ** (-alpha) / zeta(alpha, 1)
    cdf = np.cumsum(pmf)
    u = rng.random(size) * cdf[-1]
    return ks[np.searchsorted(cdf, u, side="right")].astype(np.int64)


def test_criterion_08_power_law_fitter_both_directions():
    seeds = range(100, 120)
    recovered = 0
    for seed in seeds:
        fit = fit_power_law(
            _exact_discrete_powerlaw(2.5, 5000, seed), bootstraps=250, seed=seed
        )
        recovered += 2.4 <= fit.alpha <= 2.6 and fit.p_value >= 0.1
    assert recovered >= 18  # >= 90% of 20 seeds
    rejected = 0
    for seed in seeds:
        sample = np.random.default_rng(seed).geometric(0.1, size=5000)
        fit = fit_power_law(sample, bootstraps=250, seed=seed)
        rejected += fit.p_value < 0.1
    assert rejected >= 18
    report(
        8,
        f"power law recovered {recovered}/20 seeds, geometric rejected "
        f"{rejected}/20 seeds",
    )


def test_criterion_09_table_shaped_reports():
    codec_targets = {"dag-pb": 86.21, "raw": 13.42, "dag-cbor": 0.37}
    cfg = SimConfig(
        n_dht_servers=3, n_clients=1, n_monitors=1, degree_range=(2, 3),
        catalog_size=10_000, request_rate_per_node=100.0, duration_s=100.0,
        seed=9, workload="uniform", distinct_items_per_node=True,
        codec_weights=tuple(codec_targets.items()),
    )
    traces, _, _ = run(build_network(cfg))
    rows = {r.label: r.share_pct for r in codec_share(unify(traces))}
    for codec, want in codec_targets.items():
        assert rows[codec] == pytest.approx(want, abs=0.5)

    geo_targets = {
        "US": 45.65, "NL": 13.85, "DE": 12.72, "CA": 7.61, "FR": 6.64, "XX": 13.53,
    }
    cfg = SimConfig(
        n_dht_servers=1700, n_clients=300, n_monitors=1, degree_range=(2, 4),
        catalog_size=5000, request_rate_per_node=1.0, duration_s=5.0,
        seed=11, workload="uniform", distinct_items_per_node=True,
        country_weights=tuple(geo_targets.items()),
    )
    net = build_network(cfg)
    traces, _, _ = run(net)
    db = GeoDb.from_pairs(net.geo_entries())
    shares = {r.label: r.share_pct for r in geo_share(mark_flags(unify(traces)), db)}
    for country, want in geo_targets.items():
        assert shares[country] == pytest.approx(want, abs=0.5)
    report(
        9,
        f"codec shares {rows['dag-pb']:.2f}/{rows['raw']:.2f}, "
        f"geo shares US {shares['US']:.2f} NL {shares['NL']:.2f} (all ±0.5 pp)",
    )


def test_criterion_10_attack_soundness():
    # zero false positives for idw and gateway probing over 50 seeds
    for seed in range(50):
        cfg = SimConfig(
            n_dht_servers=10, n_clients=6, n_gateways=1, n_monitors=2,
            degree_range=(3, 5), catalog_size=25, request_rate_per_node=0.25,
            unresolvable_fraction=0.2, duration_s=30.0, seed=seed,
            gateway_cache_hit_ratio=0.0,
        )
        net = build_network(cfg)
        traces, _, gt = run(net)
        marked = mark_flags(unify(traces))
        requesters_of: dict = {}
        for req in gt.requests_issued:
            requesters_of.setdefault(req.cid, set()).add(req.node)
        tally = gt.broadcast_tally()
        top = sorted(tally, key=lambda c: -tally[c][0])[:5]
        for cid in top:
            assert set(idw(marked, cid)) <= requesters_of[cid]
        res = probe_gateway(net, "gw0.example", net.monitors, seed=seed + 1000)
        assert res.discovered_node_ids <= set(gt.gateway_map["gw0.example"])

    # a 13-node gateway is discovered completely
    cfg = SimConfig(
        n_dht_servers=5, n_gateways=13, n_monitors=2, degree_range=(2, 4),
        catalog_size=10, seed=99, gateway_group_sizes=(13,),
        gateway_cache_hit_ratio=0.0,
    )
    net = build_network(cfg)
    run(net, 0.0)
    res = probe_gateway(net, "gw0.example", net.monitors, seed=7)
    assert res.discovered_node_ids == frozenset(net.ground_truth.gateway_map["gw0.example"])

    # tpi agrees with the cached() oracle across a scripted lifecycle
    net = build_network(SimConfig(degree_range=(0, 0)))
    target = net.add_node(NodeKind.DHT_CLIENT)
    provider = net.add_node(NodeKind.DHT_SERVER)
    prober = net.add_node(NodeKind.DHT_CLIENT)
    net.connect(target, provider, latency_s=0.01)
    cid = hash_content(b"lifecycle", RAW)
    net.provide(provider, cid)
    agreements = 0
    steps = 0

    def check():
        nonlocal agreements, steps
        steps += 1
        probe = tpi(net, prober, target, cid)
        oracle = net.ground_truth.cached(target, cid, net.now_ns)
        agreements += probe == oracle

    check()                       # never fetched: negative
    node_request(net, target, cid)
    check()                       # fetched: positive
    net.purge_cache(target, cid)
    check()                       # purged: negative again
    node_request(net, target, cid)
    check()                       # re-fetched: positive
    assert agreements == steps == 4
    report(
        10,
        "0 false positives over 50 seeds; 13/13 gateway nodes found; "
        "tpi matched the cache oracle 4/4",
    )


def test_criterion_11_coverage_arithmetic():
    value = coverage(7132.56, 14411.42)
    assert value == pytest.approx(0.4949, abs=0.0001)
    report(11, f"coverage(7132.56, 14411.42) = {value:.4f}")
