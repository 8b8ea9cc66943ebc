"""Shared test oracles and fixture builders.

``brute_force_flags`` is a deliberately naive pairwise scan, and
``reference_mark_flags`` walks the records once with a table of the last
time each monitor saw each want; both are independent of the sort over
the trace's columns in swarmwatch.pipeline.mark_flags. The power-law
reference fits one sample at a time and solves each cutoff's exponent by
bisection, independent of the batched table-and-Newton fitter in
swarmwatch.analytics; the triangle reference scores every KS entry with
scipy's zeta, independent of the fitter's series. The peer-set reference
walks each monitor's events into per-peer intervals and scans every
interval at every sample instant, independent of the sort-based
swarmwatch.estimators.peer_set_stats. The geo look-up reference scans every
prefix with ``ipaddress``, independent of GeoDb's per-length tables.
"""

from __future__ import annotations

import ipaddress
import math
import random
from collections import defaultdict
from itertools import combinations

import numpy as np
from scipy.special import zeta

from swarmwatch import netsim
from swarmwatch.analytics import XMIN_QUANTILE, _DiscretePowerLawSampler, _log_zeta_slope
from swarmwatch.core import (
    FLAG_INTER_MONITOR_DUPLICATE,
    FLAG_REBROADCAST,
    RAW,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
    to_ns,
)
from swarmwatch.errors import ConnEventOrderError
from swarmwatch.estimators import PeerSetStats

NS = 1_000_000_000


def brute_force_flags(records, dup_window_s=5.0, rebroadcast_window_s=31.0):
    """Quadratic reference for both window rules over an ordered record list.

    Returns the list of expected flag values, one per record. Pairs are
    only compared within groups sharing (peer, request_type, cid); records
    in different groups can never match, so skipping them does not change
    the quantifier.
    """
    dup_ns = int(dup_window_s * NS)
    reb_ns = int(rebroadcast_window_s * NS)
    groups = defaultdict(list)
    for i, r in enumerate(records):
        groups[(r.peer, r.request_type, r.cid)].append(i)
    flags = [0] * len(records)
    for indices in groups.values():
        for a, i in enumerate(indices):
            ri = records[i]
            for j in indices[:a]:
                rj = records[j]
                if rj.monitor != ri.monitor and ri.timestamp_ns - rj.timestamp_ns <= dup_ns:
                    flags[i] |= FLAG_INTER_MONITOR_DUPLICATE
                    break
            same = [j for j in indices[:a] if records[j].monitor == ri.monitor]
            if same and ri.timestamp_ns - records[same[-1]].timestamp_ns <= reb_ns:
                flags[i] |= FLAG_REBROADCAST
    return flags


def reference_mark_flags(records, window_dup_s=5.0, window_rebroadcast_s=31.0):
    """``mark_flags``'s records by one pass over ``records`` in their order:
    a record is matched against the last time each monitor saw its
    (peer, request type, cid) before it. A record whose flags do not change
    is returned itself."""
    dup_ns = to_ns(window_dup_s, "window_dup_s")
    reb_ns = to_ns(window_rebroadcast_s, "window_rebroadcast_s")
    last_seen = {}
    out = []
    for r in records:
        t, monitor = r.timestamp_ns, r.monitor
        seen = last_seen.setdefault((r.peer, r.request_type, r.cid), {})
        flags = r.flags & ~(FLAG_INTER_MONITOR_DUPLICATE | FLAG_REBROADCAST)
        prev = seen.get(monitor)
        if prev is not None and t - prev <= reb_ns:
            flags |= FLAG_REBROADCAST
        if any(m != monitor and t - ts <= dup_ns for m, ts in seen.items()):
            flags |= FLAG_INTER_MONITOR_DUPLICATE
        out.append(r if flags == r.flags else r.with_flags(flags))
        seen[monitor] = t
    return out


def reference_peer_set_stats(conn_events, window, sample_interval_s=60.0):
    """Naive reference for ``peer_set_stats``: walk each monitor's events in
    time order (ties in input order) into per-peer [start, end) intervals,
    then count the intervals holding each sample instant one by one."""
    t0, t1 = window
    instants = range(t0, t1, int(sample_interval_s * NS))
    sets, w_per_monitor = {}, {}
    for monitor in sorted(conn_events):
        spans, open_at = defaultdict(list), {}
        for e in sorted(conn_events[monitor], key=lambda e: e.timestamp_ns):
            where = f"for peer {e.peer:064x} on {monitor} at {e.timestamp_ns} ns"
            if e.kind is ConnEventKind.CONNECT:
                if e.peer in open_at:
                    raise ConnEventOrderError(f"double connect {where}")
                open_at[e.peer] = e.timestamp_ns
            else:
                if e.peer not in open_at:
                    raise ConnEventOrderError(f"disconnect without connect {where}")
                spans[e.peer].append((open_at.pop(e.peer), e.timestamp_ns))
        for peer, start in open_at.items():
            spans[peer].append((start, math.inf))
        sets[monitor] = frozenset(
            p for p, ivs in spans.items() if any(s < t1 and e > t0 for s, e in ivs))
        counts = [sum(s <= t < e for ivs in spans.values() for s, e in ivs) for t in instants]
        w_per_monitor[monitor] = sum(counts) / len(counts)
    monitors = sorted(sets)
    return PeerSetStats(
        sizes={m: len(sets[m]) for m in monitors},
        intersections={(a, b): len(sets[a] & sets[b]) for a, b in combinations(monitors, 2)},
        union_size=len(frozenset().union(*sets.values())),
        r=len(monitors),
        w_per_monitor=w_per_monitor,
        w=sum(w_per_monitor.values()) / len(w_per_monitor) if w_per_monitor else 0.0,
        peer_sets=sets,
    )


def bisection_alpha_mle(xmins, mean_log_tail, alpha_range):
    """Reference exponent per candidate cutoff: bisection on
    d/da log zeta(a, xmin) = -mean(log x), clamped to ``alpha_range``."""
    lo = np.full(xmins.shape, max(1.0005, alpha_range[0]))
    hi = np.full(xmins.shape, max(2.0, alpha_range[0] + 0.5))
    target = -mean_log_tail
    # expand upper brackets until the objective changes sign (capped)
    for _ in range(8):
        need = _log_zeta_slope(hi, xmins) < target
        if not need.any():
            break
        hi = np.where(need, hi * 2.0, hi)
    hi = np.minimum(hi, 512.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _log_zeta_slope(mid, xmins) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.clip(0.5 * (lo + hi), alpha_range[0], alpha_range[1])


def bisection_fit_tail(x, alpha_range):
    """Reference cutoff scan of one sample: fit alpha at each candidate by
    bisection, keep the first minimal-KS one. Returns (alpha, xmin, ks, n_tail)."""
    n = len(x)
    u, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts)
    log_u = np.log(u.astype(np.float64))
    tail_log_sum = np.cumsum((counts * log_u)[::-1])[::-1]
    tail_n = n - np.concatenate(([0], cum[:-1]))
    cap = np.quantile(u, XMIN_QUANTILE)
    cand = np.nonzero((u <= cap) & (tail_n >= 2) & (np.arange(len(u)) < len(u) - 1))[0]
    if len(cand) == 0:
        cand = np.array([0])
    xmins = u[cand].astype(np.float64)
    alphas = bisection_alpha_mle(xmins, tail_log_sum[cand] / tail_n[cand], alpha_range)
    z_all = zeta(alphas[:, None], u[None, :].astype(np.float64) + 1.0)
    z_base = zeta(alphas, xmins)
    best = None
    for row, j in enumerate(cand):
        model_cdf = 1.0 - z_all[row, j:] / z_base[row]
        below = cum[j - 1] if j > 0 else 0
        emp_cdf = (cum[j:] - below) / tail_n[j]
        ks = float(np.max(np.abs(emp_cdf - model_cdf)))
        if best is None or ks < best[2]:
            best = (float(alphas[row]), int(u[j]), ks, int(tail_n[j]))
    return best


def bisection_fit_power_law(samples, bootstraps, seed, alpha_range=(1.5, 3.5)):
    """Reference for ``fit_power_law``: the same replicates, each refitted
    on its own by ``bisection_fit_tail``. Returns (alpha, xmin, ks, n_tail, p)."""
    x = np.asarray(samples, dtype=np.int64)
    alpha, xmin, ks_obs, n_tail = bisection_fit_tail(x, alpha_range)
    sampler = _DiscretePowerLawSampler(alpha, xmin)
    body = x[x < xmin]
    n = len(x)
    exceed = ran = 0
    for b in range(bootstraps):
        rng = np.random.default_rng([seed, b])
        tail_mask = rng.random(n) < n_tail / n
        k = int(tail_mask.sum())
        syn = np.empty(n, dtype=np.int64)
        if n - k:
            syn[: n - k] = rng.choice(body, size=n - k, replace=True)
        if k:
            syn[n - k :] = sampler.draw(rng, k)
        if syn.min() == syn.max():
            continue
        ran += 1
        exceed += bisection_fit_tail(syn, alpha_range)[2] >= ks_obs
    return alpha, xmin, ks_obs, n_tail, exceed / ran if ran else float("nan")


def scipy_zeta_triangle(s, q, first, end):
    """Reference for ``analytics._zeta_triangle``: scipy's zeta at every entry
    of the KS triangle, row c covering q[first[c]:end[c]], as the fitter
    scored it before the series."""
    col = np.concatenate([np.arange(f, e) for f, e in zip(first, end)])
    return zeta(np.repeat(s, end - first), q[col])


def reference_geo_lookup(pairs, text):
    """``GeoDb.lookup`` by a scan of every ``(cidr, country)`` pair: the
    country of the longest prefix of the address's own version that holds
    ``ipaddress.ip_address(text)``, the last listed among equal prefixes."""
    try:
        addr = ipaddress.ip_address(text)
    except ValueError:
        return None
    best = None
    for cidr, country in pairs:
        net = ipaddress.ip_network(cidr)
        if net.version == addr.version and addr in net and (best is None or net.prefixlen >= best[0]):
            best = net.prefixlen, country
    return None if best is None else best[1]


def synthetic_records(
    n: int,
    seed: int = 0,
    n_peers: int = 8,
    n_cids: int = 6,
    monitors: tuple[str, ...] = ("m0", "m1", "m2"),
    horizon_s: float = 400.0,
) -> list[TraceRecord]:
    """Random records with deliberately heavy key collisions, time-sorted."""
    rng = random.Random(seed)
    peers = [NodeId.generate(rng) for _ in range(n_peers)]
    cids = [hash_content(rng.randbytes(4), RAW) for _ in range(n_cids)]
    records = []
    for _ in range(n):
        records.append(
            TraceRecord(
                timestamp_ns=rng.randrange(int(horizon_s * NS)),
                monitor=rng.choice(monitors),
                peer=rng.choice(peers),
                address="/ip4/198.51.100.7/tcp/4001",
                request_type=rng.choice(list(RequestType)),
                cid=rng.choice(cids),
            )
        )
    records.sort(key=lambda r: (r.timestamp_ns, r.monitor))
    return records


def record_dispatch(monkeypatch) -> list:
    """Have the simulator's event loop record (network, time, code, a, b, c)
    of every event it handles; for a message, a, b and c are its sender,
    receiver and cid index."""
    handled = []

    def recorded(code, fn):
        def handler(network, a, b, c):
            handled.append((network, network.now_ns, code, a, b, c))
            fn(network, a, b, c)
        return handler

    monkeypatch.setattr(netsim, "_DISPATCH", tuple(
        recorded(code, fn) for code, fn in enumerate(netsim._DISPATCH)))
    return handled
