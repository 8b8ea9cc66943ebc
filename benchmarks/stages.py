"""The benchmark's stages: each calls swarmwatch the way a user of the
library or the CLI would, times the calls, and checks what comes back
against answers computed apart from swarmwatch (``gen``'s oracles, or
properties the method must have).

A round's calls of a stage form its *phase*, a second or more of work
whose value is the time per call. The phase runs in ``CYCLES`` slices
spread over the round (every stage's first slice, then every stage's
second, ...), each slice several calls back to back timed as one: the
host changes speed for seconds at a time, and a phase spread over the
round meets more of those swings than one made in one go. No call shorter
than a few milliseconds is timed on its own.

A workload is one ``Profile``: the sizes of the simulated worlds and of
the generated logs, and how many calls each stage's phase makes. Every
workload runs every stage, so that every end-to-end metric is measured on
every workload; each workload makes one part of the chain large and keeps
the others small.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import random
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import zeta

import gen
from swarmwatch import analytics, cli, core, estimators, netsim, pipeline, probes
from swarmwatch.core import RAW, Cid, NodeId, hash_content

NS = 1_000_000_000
clock = time.perf_counter


@dataclass(frozen=True)
class World:
    n_regular: int
    duration_s: float
    gateway_groups: tuple[int, ...]
    churn: bool
    gateway_cache_hit_ratio: float
    request_rate_per_node: float
    broken_last_group: bool = False
    tpi_probes: int = 0


@dataclass(frozen=True)
class Profile:
    sim: World                 # worlds of the simulate verb
    logs: gen.LogProfile       # generated monitor logs
    bootstraps: int            # power-law bootstrap replicates
    attack: World              # warmed worlds probed by the attack stage
    calls: dict                # stage -> calls in its phase (worlds, for simulate and attack;
                               # passes, for queries, with query_burst calls per look-up)
    cycles: int = 3            # slices per phase
    geo_v6: bool = False       # add the geo-share over an IPv6-holding database


# Traffic as in the repository's reference config: Poisson arrivals, Zipf
# 1.1 popularity over a 2,000-item catalog, 30% of it unresolvable; rates
# give three requests per node, spread over the simulated time.
SIM_BIG = World(1000, 120.0, (4, 3, 3, 2), churn=True, gateway_cache_hit_ratio=0.9,
                request_rate_per_node=0.025)
SIM_SMALL = World(150, 60.0, (2, 1), churn=True, gateway_cache_hit_ratio=0.9,
                  request_rate_per_node=0.05)
LOGS_BIG = gen.LogProfile(n_peers=3000, n_cids=8000, hours=3, actions_per_peer_hour=2.8,
                          n_idw=8, n_tnw=4)
LOGS_SMALL = gen.LogProfile(n_peers=400, n_cids=1000, hours=1, actions_per_peer_hour=3.0)
ATTACK_BIG = World(150, 120.0, (3, 2, 1), churn=False, gateway_cache_hit_ratio=0.0,
                   request_rate_per_node=0.025, broken_last_group=True, tpi_probes=20)
ATTACK_SMALL = World(100, 60.0, (2, 1), churn=False, gateway_cache_hit_ratio=0.0,
                     request_rate_per_node=0.05, broken_last_group=True, tpi_probes=10)

# Calls per phase. The small stages make a second or more of calls. The cost
# of one simulated world varies from seed to seed by about 30% (how much of
# the Zipf head is unresolvable decides how many wants stay idle and are
# re-broadcast), so the simulate and attack phases take several worlds.
SMALL_CALLS = {"ingest": 6, "reports": 40, "fit": 6, "estimate": 16, "queries": 4,
               "query_burst": 3, "simulate": 3, "attack": 5}
PROFILES = {
    "sim-batch": Profile(SIM_BIG, LOGS_SMALL, 60, ATTACK_SMALL, dict(SMALL_CALLS, simulate=1)),
    "monitor-logs": Profile(SIM_SMALL, LOGS_BIG, 100, ATTACK_SMALL,
                            dict(SMALL_CALLS, simulate=2, ingest=1, reports=2, fit=1, estimate=1,
                                 queries=3, query_burst=1, attack=6),
                            geo_v6=True),
    "gateway-probe": Profile(SIM_SMALL, LOGS_SMALL, 60, ATTACK_BIG, dict(SMALL_CALLS, attack=4)),
}

WORLD_STRIDE = 1000
ROUND_STRIDE = 100_000


def round_seed(seed: int, n: int) -> int:
    """Seed of the n-th round of a run: every round has inputs of its own,
    and the n-th round of a run with a given --seed always the same ones."""
    return seed + ROUND_STRIDE * n


# a fixed log, independent of --seed, for the geo-share that is expected to fail
GEO_V6_LOGS = gen.LogProfile(n_peers=40, n_cids=60, hours=1, actions_per_peer_hour=4.0,
                             n_gateway_peers=3, n_idw=3, n_tnw=3)

# Tolerances of the size estimates made from a simulated world's connection
# logs. Each monitor attaches to a node with probability p = 0.8, so the
# two-monitor estimate has a relative standard deviation of about
# (1 - p) / (p * sqrt(N)): 2% at N = 150, 0.8% at N = 1000; 15% is over
# seven of them. The coupon model reads w from instantaneous connection
# counts, which churn lowers, so it overshoots a little more.
TWO_MONITOR_TOL = 0.15
COUPON_TOL = 0.25


def world_config(w: World, seed: int) -> dict:
    n_gateways = sum(w.gateway_groups)
    n_servers = int(0.6 * w.n_regular)
    return {
        "n_dht_servers": n_servers,
        "n_clients": w.n_regular - n_servers - n_gateways,
        "n_gateways": n_gateways,
        "n_monitors": 2,
        "degree_range": [8, 14],
        "catalog_size": 2000,
        "popularity_sampler": {"kind": "zipf", "exponent": 1.1},
        "workload": "poisson",
        "request_rate_per_node": w.request_rate_per_node,
        "unresolvable_fraction": 0.3,
        "gateway_cache_hit_ratio": w.gateway_cache_hit_ratio,
        "gateway_http_rate": 0.5 if w.gateway_cache_hit_ratio else 0.2,
        "gateway_group_sizes": list(w.gateway_groups),
        "broken_gateway_names": (
            [f"gw{len(w.gateway_groups) - 1}.example"] if w.broken_last_group else []
        ),
        "churn": {"mean_session_s": 1800.0, "mean_offline_s": 120.0} if w.churn else None,
        "monitor_coverage": 0.8,
        "duration_s": w.duration_s,
        "seed": seed,
    }


class Checks:
    """Collects failed checks instead of stopping at the first one."""

    def __init__(self):
        self.failures: list[str] = []

    def __call__(self, ok: bool, what: str) -> None:
        if not ok:
            self.failures.append(what)


@dataclass
class Phase:
    metric: str
    wall_s: float              # all of the phase's slices
    calls: int
    value: float               # per call, in the metric's unit, not scaled


def slice_calls(prof: Profile, stage: str, k: int) -> int:
    """Calls the k-th slice of a stage makes (a stage of fewer calls than
    cycles runs in the first cycles only)."""
    calls = prof.calls.get(stage, 1)
    return calls // prof.cycles + (k < calls % prof.cycles)


@dataclass
class Round:
    """Inputs prepared in set-up and the results the stages pass on."""

    tmp: Path
    prof: Profile
    seed: int
    sim_configs: list          # one simulate config per world
    logs: gen.Logs
    worlds: list               # (warmed network, TPI plan), one per attacked world
    group_map: dict
    idw_q: list
    tnw_q: list
    geo_v6: tuple | None = None
    marked: object = None
    table: object = None
    spent: dict = field(default_factory=dict)     # metric -> seconds of its slices
    calls: dict = field(default_factory=dict)     # metric -> calls of its slices
    query_spent: list = field(default_factory=list)  # seconds per look-up, over all passes
    attempted: int = 0
    failed: int = 0

    def phases(self) -> list[Phase]:
        out = [Phase(m, self.spent[m], self.calls[m], self.spent[m] / self.calls[m])
               for m in self.spent if m != "query_p50_ms"]
        if self.query_spent:
            per_lookup = self.calls["query_p50_ms"] / len(self.query_spent)
            out.append(Phase("query_p50_ms", self.spent["query_p50_ms"],
                             self.calls["query_p50_ms"],
                             statistics.median(self.query_spent) / per_lookup * 1e3))
        return out


def setup(tmp: Path, prof: Profile, seed: int) -> Round:
    """Everything a round needs before the timed stages: the simulate
    configs, the generated logs, and the attacked worlds, built and warmed.

    Each simulated and attacked world has its own seed
    (``seed + WORLD_STRIDE * k``), so a phase averages over many worlds
    rather than riding on the cost of one."""
    tmp.mkdir(parents=True, exist_ok=True)
    sim_configs = []
    for k in range(prof.calls["simulate"]):
        path = tmp / f"sim{k}.json"
        path.write_text(json.dumps(world_config(prof.sim, seed + WORLD_STRIDE * k)))
        sim_configs.append(path)
    logs = gen.generate(tmp / "logs", prof.logs, seed + 1)
    worlds = [_warmed_world(prof.attack, seed + WORLD_STRIDE * k)
              for k in range(prof.calls["attack"])]
    rnd = Round(
        tmp=tmp, prof=prof, seed=seed, sim_configs=sim_configs, logs=logs, worlds=worlds,
        group_map={NodeId.from_hex(h): g for h, g in logs.group_map.items()},
        idw_q=[(q, Cid.from_string(q)) for q in logs.oracle["idw"]],
        tnw_q=[(q, NodeId.from_hex(q)) for q in logs.oracle["tnw"]],
    )
    if prof.geo_v6:
        fixed = gen.generate(tmp / "geo_v6", GEO_V6_LOGS, 0)
        by_monitor = {}
        for path in fixed.trace_paths:
            for rec in core.read_trace(path):
                by_monitor.setdefault(rec.monitor, []).append(rec)
        rnd.geo_v6 = (fixed, pipeline.mark_flags(pipeline.unify(by_monitor)))
    return rnd


def _warmed_world(w: World, seed: int):
    net = netsim.build_network(netsim.config_from_dict(world_config(w, seed + 2)))
    netsim.run(net)
    rng = random.Random(seed + 3)
    resolvable = [item for item in net.catalog if item.resolvable]
    fresh = hash_content(rng.randbytes(32), RAW)
    half = w.tpi_probes // 2
    plan = [(item.providers[0], item.cid, True) for item in rng.sample(resolvable, half)]
    plan += [(target, fresh, False)
             for target in rng.sample(sorted(net.regular_ids()), w.tpi_probes - half)]
    return net, plan


def _slice(rnd: Round, metric: str, fn, inputs) -> list:
    """Calls ``fn`` on each input back to back, timed as one slice of the
    metric's phase."""
    t0 = clock()
    outs = [fn(x) for x in inputs]
    _spent(rnd, metric, clock() - t0, len(outs))
    return outs


def _spent(rnd: Round, metric: str, seconds: float, calls: int) -> None:
    rnd.spent[metric] = rnd.spent.get(metric, 0.0) + seconds
    rnd.calls[metric] = rnd.calls.get(metric, 0) + calls


# ----------------------------------------------------------------------
# simulate: the CLI verb, in-process


def _simulate(config: Path) -> tuple[Path, int]:
    out = config.with_suffix("")
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["simulate", "--config", str(config), "--out", str(out)])
    return out, code


def simulate(rnd: Round, ok: Checks, n: int) -> None:
    configs, rnd.sim_configs = rnd.sim_configs[:n], rnd.sim_configs[n:]
    rnd.attempted += len(configs)
    for out, code in _slice(rnd, "simulate_s", _simulate, configs):
        if code != 0:
            ok(False, f"simulate exited {code}")
            rnd.failed += 1
        else:
            _check_simulated(out, rnd.prof.sim, ok)


def _check_simulated(out: Path, world: World, ok: Checks) -> None:
    truth = json.loads((out / "ground_truth.json").read_text())
    duration_ns = int(world.duration_s * NS)
    peer_sets: dict[str, set[str]] = {}
    conn: dict[str, dict[str, list]] = {}
    for name, expected in truth["trace_records"].items():
        with open(out / f"trace_{name}.csv", newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        ok(len(rows) == expected, f"simulate: {name} has {len(rows)} rows, ground truth {expected}")
        stamps = [int(r[0]) for r in rows]
        ok(stamps == sorted(stamps), f"simulate: {name} trace not time-ordered")
        with open(out / f"conn_{name}.csv", newline="") as fh:
            events = list(csv.reader(fh))[1:]
        ok(len(events) == truth["conn_events"][name], f"simulate: {name} conn event count")
        conn[name] = {}
        for t, _, peer, kind in events:
            conn[name].setdefault(peer, []).append((int(t), kind))
        logged = {r[2] for r in rows}
        ok(logged <= set(conn[name]), f"simulate: {name} logged wants from unconnected peers")
        peer_sets[name] = set(conn[name])
    true_n = truth["true_n"]
    (a, pa), (b, pb) = sorted(peer_sets.items())
    inter = len(pa & pb)
    ok(inter > 0 and abs(len(pa) * len(pb) / inter / true_n - 1) <= TWO_MONITOR_TOL,
       f"simulate: two-monitor estimate off true_n={true_n}")
    m = len(pa | pb)
    w = statistics.fmean(_mean_connected(conn[x], duration_ns) for x in (a, b))
    n_hat = _coupon_root(m, 2, w)
    ok(abs(n_hat / true_n - 1) <= COUPON_TOL,
       f"simulate: coupon estimate {n_hat:.0f} off true_n={true_n}")


def _mean_connected(events: dict[str, list], duration_ns: int) -> float:
    """Mean connection count sampled every 60 s over [0, duration)."""
    grid = range(0, duration_ns, 60 * NS)
    total = 0
    for history in events.values():
        for t in grid:
            state = [kind for ts, kind in history if ts <= t]
            total += bool(state) and state[-1] == "connect"
    return total / len(grid)


def _coupon_root(m: int, r: int, w: float) -> float:
    """Root of N - N (1 - m/N)^(1/r) = w, by plain bisection."""
    f = lambda n: n - n * (1 - m / n) ** (1 / r) - w  # noqa: E731
    lo, hi = float(m), 1e9
    for _ in range(200):
        mid = (lo + hi) / 2
        lo, hi = (mid, hi) if f(mid) > 0 else (lo, mid)
    return (lo + hi) / 2


# ----------------------------------------------------------------------
# ingest: read -> unify -> mark -> write unified.csv


def _ingest(rnd: Round):
    by_monitor: dict[str, list] = {}
    for path in rnd.logs.trace_paths:
        for rec in core.read_trace(path):
            by_monitor.setdefault(rec.monitor, []).append(rec)
    marked = pipeline.mark_flags(pipeline.unify(by_monitor))
    core.write_trace(marked.records, rnd.tmp / "unified.csv")
    return marked


def ingest(rnd: Round, ok: Checks, n: int) -> None:
    logs = rnd.logs
    rnd.attempted += n * (len(logs.trace_paths) + 3)
    runs = _slice(rnd, "ingest_s", lambda _: _ingest(rnd), range(n))
    marked = rnd.marked = runs[-1]
    ok(all(len(m) == len(logs.ts) for m in runs), "ingest: record count")
    if len(marked) != len(logs.ts):
        return
    mon_names = np.array(gen.MONITORS)
    peer_hex = np.array(logs.peer_hex)
    for m in runs:
        ok(np.array_equal([r.timestamp_ns for r in m], logs.ts), "ingest: order by time")
        ok(list(mon_names[logs.mon]) == [r.monitor for r in m], "ingest: monitor order")
        ok(list(peer_hex[logs.peer]) == [r.peer.hex for r in m], "ingest: peer order")
        ok(np.array_equal([r.flags for r in m], logs.flags), "ingest: flags differ from oracle")
    with open(rnd.tmp / "unified.csv", newline="") as fh:
        written = [int(row[7]) for row in list(csv.reader(fh))[1:]]
    ok(np.array_equal(written, logs.flags), "ingest: unified.csv flags differ from oracle")


# ----------------------------------------------------------------------
# reports: popularity + ECDFs, codec, geo, rates by type and by origin group


def _reports(rnd: Round):
    marked = rnd.marked
    table = analytics.popularity(marked)
    ecdfs = (analytics.ecdf(table.rrp_scores()), analytics.ecdf(table.urp_scores()))
    codec = analytics.codec_share(marked)
    geo = analytics.geo_share(marked, analytics.GeoDb.from_csv(rnd.logs.geodb_path))
    by_type = analytics.rate_timeseries(marked, bucket_s=3600.0)
    by_group = analytics.rate_timeseries(marked, bucket_s=3600.0, group_by="origin_group",
                                         group_map=rnd.group_map, drop_flagged=True)
    return table, ecdfs, codec, geo, by_type, by_group


def _ecdf_oracle(scores) -> list[tuple[float, float]]:
    out, acc = [], 0
    for value, k in sorted(Counter(scores).items()):
        acc += k
        out.append((float(value), acc / len(scores)))
    return out


def _check_shares(ok: Checks, what: str, rows, expected: dict[str, int]) -> None:
    total = sum(expected.values())
    ok({r.label: r.count for r in rows} == expected, f"reports: {what} counts")
    ok(all(abs(r.share_pct - 100.0 * r.count / total) < 1e-9 for r in rows), f"reports: {what} shares")
    ok([(-r.count, r.label) for r in rows] == sorted((-r.count, r.label) for r in rows),
       f"reports: {what} row order")


def _check_rates(ok: Checks, what: str, points, expected: dict) -> None:
    got = {(p.bucket_start_ns, p.group): p.rate_per_s for p in points}
    ok(set(got) == set(expected), f"reports: {what} buckets")
    ok(all(abs(got[k] * 3600.0 - expected[k]) < 1e-6 for k in set(got) & set(expected)),
       f"reports: {what} rates")


def reports(rnd: Round, ok: Checks, n: int) -> None:
    if rnd.marked is None:
        return
    rnd.attempted += 7 * n
    runs = _slice(rnd, "reports_s", lambda _: _reports(rnd), range(n))
    rnd.table = runs[-1][0]
    oracle = rnd.logs.oracle
    for table, (e_rrp, e_urp), codec, geo, by_type, by_group in runs:
        ok({str(c): v for c, v in table.rrp.items()} == oracle["rrp"], "reports: RRP per cid")
        ok({str(c): v for c, v in table.urp.items()} == oracle["urp"], "reports: URP per cid")
        for got, scores, what in ((e_rrp, oracle["rrp"].values(), "RRP"),
                                  (e_urp, oracle["urp"].values(), "URP")):
            want = _ecdf_oracle(list(scores))
            ok(len(got) == len(want) and all(
                g[0] == w[0] and abs(g[1] - w[1]) < 1e-12 for g, w in zip(got, want)
            ), f"reports: {what} ECDF")
        _check_shares(ok, "codec", codec, oracle["codec_counts"])
        _check_shares(ok, "geo", geo, oracle["country_counts"])
        _check_rates(ok, "rate by type", by_type, oracle["rate_type"])
        _check_rates(ok, "rate by origin group", by_group, oracle["rate_group"])


def geo_share_v6(rnd: Round, ok: Checks, n: int) -> None:
    """Geo-share over a database that also holds an IPv6 /48. It fails in
    GeoDb.lookup today; it is counted as failed and timed in no metric."""
    if rnd.geo_v6 is None:
        return
    fixed, marked = rnd.geo_v6
    rnd.attempted += 1
    try:
        rows = analytics.geo_share(marked, analytics.GeoDb.from_csv(fixed.geodb_v6_path))
    except ValueError:
        rnd.failed += 1
        return
    _check_shares(ok, "geo (IPv6 database)", rows, fixed.oracle["country_counts"])


# ----------------------------------------------------------------------
# fit: discrete power law on the URP scores


def fit(rnd: Round, ok: Checks, n: int) -> None:
    if rnd.table is None:
        return
    scores = rnd.table.urp_scores()
    rnd.attempted += n
    runs = _slice(rnd, "fit_s", lambda _: analytics.fit_power_law(
        scores, bootstraps=rnd.prof.bootstraps, seed=rnd.seed), range(n))
    x = np.asarray(scores, dtype=np.int64)
    for res in runs:
        tail = np.sort(x[x >= res.x_min])
        ok(res.n_tail == len(tail), f"fit: n_tail {res.n_tail} != {len(tail)} scores >= x_min")
        values, counts = np.unique(tail, return_counts=True)
        emp = np.cumsum(counts) / len(tail)
        model = 1.0 - zeta(res.alpha, values + 1.0) / zeta(res.alpha, float(res.x_min))
        ks = float(np.max(np.abs(emp - model)))
        ok(abs(ks - res.ks_statistic) < 1e-9, f"fit: KS {res.ks_statistic} != recomputed {ks}")
        ok(0.0 <= res.p_value <= 1.0 and res.bootstraps == rnd.prof.bootstraps, "fit: p-value")


# ----------------------------------------------------------------------
# estimate: connection logs -> peer-set stats -> both estimators per window


def _estimate(rnd: Round):
    events: dict[str, list] = {}
    for path in rnd.logs.conn_paths:
        for e in core.read_conn_events(path):
            events.setdefault(e.monitor, []).append(e)
    out = []
    for window in rnd.logs.windows:
        stats = estimators.peer_set_stats(events, window)
        (a, pa), (b, pb) = sorted(stats.sizes.items())[:2]
        two = estimators.estimate_two_monitor(pa, pb, stats.intersections[(a, b)])
        coupon = estimators.solve_coupon_mle(stats.m, stats.r, stats.w)
        out.append((stats, two, coupon))
    return out


def estimate(rnd: Round, ok: Checks, n: int) -> None:
    rnd.attempted += n * (len(rnd.logs.conn_paths) + 3 * len(rnd.logs.windows))
    for results in _slice(rnd, "estimate_s", lambda _: _estimate(rnd), range(n)):
        for (stats, two, coupon), want in zip(results, rnd.logs.oracle["windows"]):
            label = f"estimate window {want['window'][0] // NS}s"
            ok(stats.sizes == want["sizes"], f"{label}: peer-set sizes")
            ok(stats.intersections == want["intersections"], f"{label}: intersections")
            ok(stats.union_size == want["union"] and stats.r == len(want["sizes"]),
               f"{label}: union")
            ok(all(abs(stats.w_per_monitor[m] - w) < 1e-9 for m, w in want["w"].items()),
               f"{label}: mean connection counts")
            (a, pa), (b, pb) = sorted(want["sizes"].items())[:2]
            ok(math.isclose(two.n_hat, pa * pb / want["intersections"][(a, b)], rel_tol=1e-12),
               f"{label}: two-monitor estimate")
            m, r, w = want["union"], len(want["sizes"]), statistics.fmean(want["w"].values())
            n = coupon.n_hat
            ok(n >= m and abs(n - n * (1 - m / n) ** (1 / r) - w) <= 1e-6 * n,
               f"{label}: coupon root does not satisfy its equation")


# ----------------------------------------------------------------------
# queries: idw / tnw look-ups


def queries(rnd: Round, ok: Checks, n: int) -> None:
    """``n`` passes over all look-ups; in each pass a look-up's
    ``query_burst`` calls are timed together (a tnw look-up on a small log
    takes about a millisecond). A look-up's time is its mean over the
    round's passes, so every look-up sees the same mix of host speeds; the
    phase's value is the median look-up."""
    if rnd.marked is None:
        return
    oracle = rnd.logs.oracle
    burst = rnd.prof.calls["query_burst"]
    asks = [(text, probes.idw, cid) for text, cid in rnd.idw_q]
    asks += [(text, probes.tnw, peer) for text, peer in rnd.tnw_q]
    rnd.attempted += n * burst * len(asks)
    if not rnd.query_spent:
        rnd.query_spent = [0.0] * len(asks)
    answers = []
    t_slice = clock()
    for _ in range(n):
        for i, (_, fn, key) in enumerate(asks):
            t0 = clock()
            answers += [(i, fn(rnd.marked, key)) for _ in range(burst)]
            rnd.query_spent[i] += clock() - t0
    _spent(rnd, "query_p50_ms", clock() - t_slice, n * burst * len(asks))
    for i, got in answers:
        text, fn, _ = asks[i]
        if fn is probes.idw:
            ok({p.hex: t for p, t in got.items()} == oracle["idw"][text], f"idw {text[:16]}..")
        else:
            ok([(t, rt.value, str(c)) for t, rt, c in got] == oracle["tnw"][text],
               f"tnw {text[:16]}..")


# ----------------------------------------------------------------------
# attack: bait-probe every gateway group, cross-reference, TPI batch


def _attack(net: netsim.Network, tpi_plan: list, rnd: Round):
    results = [
        probes.probe_gateway(net, name, net.monitors, seed=rnd.seed + i)
        for i, name in enumerate(sorted(net.gateways))
    ]
    trace = pipeline.mark_flags(pipeline.unify(net.traces))
    entries = probes.cross_reference(results, trace)
    prober = net.add_node(netsim.NodeKind.DHT_CLIENT)
    answers = [probes.tpi(net, prober, target, cid) for target, cid, _ in tpi_plan]
    return results, entries, answers


def attack(rnd: Round, ok: Checks, n: int) -> None:
    worlds, rnd.worlds = rnd.worlds[:n], rnd.worlds[n:]
    rnd.attempted += sum(len(net.gateways) + 3 + len(plan) for net, plan in worlds)
    runs = _slice(rnd, "attack_s", lambda world: _attack(*world, rnd), worlds)
    for (net, tpi_plan), (results, entries, answers) in zip(worlds, runs):
        _check_attack(net, tpi_plan, results, entries, answers, ok)


def _check_attack(net, tpi_plan, results, entries, answers, ok: Checks) -> None:
    truth = net.ground_truth.gateway_map
    broken = set(net.cfg.broken_gateway_names)
    for res in results:
        ok(res.discovered_node_ids == frozenset(truth[res.dns_name]),
           f"attack: {res.dns_name} discovered nodes differ from its backing nodes")
        want_http = res.dns_name not in broken
        ok(all(s == want_http for s in res.http_succeeded), f"attack: {res.dns_name} HTTP results")
    found: dict[NodeId, set[str]] = {}
    for res in results:
        for node in res.discovered_node_ids:
            found.setdefault(node, set()).add(res.dns_name)
    ok(len(entries) == sum(len(v) for v in truth.values()), "attack: cross-reference size")
    ok(all(e.dns_names == tuple(sorted(found.get(e.node, ())))
           and e.addresses == (net.nodes[e.node].address,) for e in entries),
       "attack: cross-reference entries")
    ok(answers == [want for _, _, want in tpi_plan], "attack: TPI answers")


STAGES = (simulate, ingest, reports, geo_share_v6, fit, estimate, queries, attack)
