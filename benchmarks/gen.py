"""Seeded monitor logs and the answers the analysis chain must give on them.

Everything here is computed without importing swarmwatch: the logs are
written in its CSV formats, and every oracle (flags, popularity, shares,
rates, peer-set windows, look-up answers) comes from the generator's own
bookkeeping. ``test_gen.py`` checks the oracles against brute-force
pairwise scans on small inputs.

The log models a few hours seen by three passive monitors. Peers hold
connection sessions with each monitor; each user action (a want for a
cid) is heard by every monitor the peer is connected to at that moment,
with a per-link delay, so monitors see the same want a few hundred
milliseconds apart. Unresolved wants come back every 30 s, resolved ones
end in a cancel.
"""

from __future__ import annotations

import bisect
import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

NS = 1_000_000_000
HOUR_NS = 3600 * NS
MONITORS = ("m0", "m1", "m2")
REQUEST_TYPES = ("want_have", "want_block", "cancel")
CANCEL = 2
DUP_WINDOW_NS = 5 * NS
REBROADCAST_WINDOW_NS = 31 * NS
SAMPLE_INTERVAL_NS = 60 * NS
FLAG_DUP = 0x1
FLAG_REB = 0x2
NON_GATEWAY = "non-gateway"
UNRESOLVED = "??"

TRACE_HEADER = "timestamp_ns,monitor,peer_id,address,request_type,cid_codec,cid_digest_hex,flags\n"
CONN_HEADER = "timestamp_ns,monitor,peer_id,kind\n"

CODEC_WEIGHTS = (
    ("dag-pb", 0.55),
    ("raw", 0.30),
    ("dag-cbor", 0.08),
    ("dag-json", 0.04),
    ("git-raw", 0.02),
    ("codec-0x300", 0.01),
)
# country -> first octet of its /8; addresses of "??" peers use 203.0.0.0/8,
# which the database does not hold
COUNTRY_WEIGHTS = (("US", 0.30), ("DE", 0.20), ("CN", 0.15), ("FR", 0.12),
                   ("JP", 0.10), ("BR", 0.08), (UNRESOLVED, 0.05))
COUNTRY_PREFIX = {"BR": 61, "CN": 62, "DE": 63, "FR": 64, "JP": 65, "US": 66, UNRESOLVED: 203}
# a /16 inside the US /8 that resolves elsewhere, to exercise longest-prefix match
OVERRIDE_16 = ((66, 3), "NL")
GATEWAY_GROUPS = ("gw0.example", "gw1.example", "gw2.example")


@dataclass(frozen=True)
class LogProfile:
    n_peers: int
    n_cids: int
    hours: int
    actions_per_peer_hour: float
    coverage: float = 0.55            # chance that a peer ever meets a monitor
    mean_session_s: float = 2400.0
    mean_offline_s: float = 400.0
    unresolved_share: float = 0.3
    zipf_exponent: float = 0.9
    n_gateway_peers: int = 9
    n_idw: int = 16
    n_tnw: int = 9


@dataclass
class Logs:
    """Generated inputs (files under ``root``) plus every oracle."""

    root: Path
    trace_paths: list[Path]
    conn_paths: list[Path]
    geodb_path: Path
    geodb_v6_path: Path
    peer_hex: list[str]
    cid_str: list[str]
    group_map: dict[str, str]            # peer hex -> gateway group
    # records in unified order (timestamp, monitor, position in its file)
    ts: np.ndarray
    mon: np.ndarray
    peer: np.ndarray
    rtype: np.ndarray
    cid: np.ndarray
    flags: np.ndarray
    windows: list[tuple[int, int]]
    oracle: dict = field(default_factory=dict)


def _weighted_plan(rng: random.Random, weights, n: int) -> list:
    """Exactly proportional labels (largest remainder), shuffled."""
    total = sum(w for _, w in weights)
    shares = [(label, w / total * n) for label, w in weights]
    counts = [int(s) for _, s in shares]
    for i in sorted(range(len(shares)), key=lambda i: counts[i] - shares[i][1])[: n - sum(counts)]:
        counts[i] += 1
    plan = [label for (label, _), k in zip(shares, counts) for _ in range(k)]
    rng.shuffle(plan)
    return plan


def _sessions(rng: random.Random, prof: LogProfile, horizon: int) -> list[tuple[int, int | None]]:
    """Alternating connected intervals [start, end); end None means still open."""
    out = []
    t = 0 if rng.random() < 0.7 else int(rng.expovariate(1 / prof.mean_offline_s) * NS)
    t += rng.randrange(1, NS)
    while t < horizon:
        end = t + max(NS, int(rng.expovariate(1 / prof.mean_session_s) * NS))
        if end >= horizon:
            out.append((t, None))
            break
        out.append((t, end))
        t = end + max(NS, int(rng.expovariate(1 / prof.mean_offline_s) * NS))
    return out


def _connected(intervals, t: int) -> bool:
    for start, end in intervals:
        if start <= t and (end is None or t < end):
            return True
    return False


def generate(root: Path, prof: LogProfile, seed: int) -> Logs:
    rng = random.Random(seed)
    horizon = prof.hours * HOUR_NS
    root.mkdir(parents=True, exist_ok=True)

    peer_hex = []
    seen = set()
    while len(peer_hex) < prof.n_peers:
        h = rng.getrandbits(256).to_bytes(32, "big").hex()
        if h not in seen:
            seen.add(h)
            peer_hex.append(h)
    countries = _weighted_plan(rng, COUNTRY_WEIGHTS, prof.n_peers)
    address = []
    for i, c in enumerate(countries):
        if i % 97 == 5:
            address.append(f"/dns4/p{i}.example.org/tcp/4001")  # no IP to resolve
            continue
        first = COUNTRY_PREFIX[c]
        second = rng.randrange(8) if c == "US" else rng.randrange(256)
        address.append(f"/ip4/{first}.{second}.{rng.randrange(256)}.{rng.randrange(1, 255)}/tcp/4001")
    gateway_peers = rng.sample(range(prof.n_peers), prof.n_gateway_peers)
    group_map = {peer_hex[p]: GATEWAY_GROUPS[k % len(GATEWAY_GROUPS)]
                 for k, p in enumerate(gateway_peers)}

    codecs = _weighted_plan(rng, CODEC_WEIGHTS, prof.n_cids)
    cid_str = [f"{codecs[i]}:{rng.getrandbits(256).to_bytes(32, 'big').hex()}"
               for i in range(prof.n_cids)]
    pop_cum = np.cumsum([(i + 1) ** -prof.zipf_exponent for i in range(prof.n_cids)]).tolist()

    # sessions[m][p] -> list of intervals; empty when the pair never meets
    sessions = [[(_sessions(rng, prof, horizon) if rng.random() < prof.coverage else [])
                 for _ in range(prof.n_peers)] for _ in MONITORS]
    delay = [[rng.randrange(10_000_000, 200_000_000) for _ in range(prof.n_peers)]
             for _ in MONITORS]

    per_mon: list[list[tuple[int, int, int, int]]] = [[] for _ in MONITORS]

    def emit(t: int, p: int, rt: int, c: int) -> None:
        for m in range(len(MONITORS)):
            at = t + delay[m][p]
            if at < horizon and _connected(sessions[m][p], at):
                per_mon[m].append((at, p, rt, c))

    # a fixed number of actions per peer keeps the log's size nearly the
    # same for every seed
    n_actions = round(prof.actions_per_peer_hour * prof.hours)
    for p in range(prof.n_peers):
        for start in sorted(rng.randrange(horizon) for _ in range(n_actions)):
            c = min(bisect.bisect_right(pop_cum, rng.random() * pop_cum[-1]), prof.n_cids - 1)
            rt = 0 if rng.random() < 0.8 else 1
            emit(start, p, rt, c)
            if rng.random() < prof.unresolved_share:
                repeats = rng.randrange(1, 7)
                last = start
                for j in range(1, repeats + 1):
                    last = start + j * 30 * NS + rng.randrange(-300_000_000, 300_000_000)
                    emit(last, p, rt, c)
                if rng.random() < 0.5:
                    emit(last + rng.randrange(NS, 10 * NS), p, CANCEL, c)
            else:
                emit(start + rng.randrange(NS // 2, 20 * NS), p, CANCEL, c)

    trace_paths, conn_paths = [], []
    cols = {k: [] for k in ("ts", "mon", "pos", "peer", "rtype", "cid")}
    for m, name in enumerate(MONITORS):
        recs = sorted(per_mon[m], key=lambda r: r[0])  # stable: ties keep emission order
        path = root / f"trace_{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(TRACE_HEADER)
            fh.writelines(
                f"{t},{name},{peer_hex[p]},{address[p]},{REQUEST_TYPES[rt]},"
                f"{cid_str[c].replace(':', ',', 1)},0\n"
                for t, p, rt, c in recs
            )
        trace_paths.append(path)
        for pos, (t, p, rt, c) in enumerate(recs):
            cols["ts"].append(t)
            cols["mon"].append(m)
            cols["pos"].append(pos)
            cols["peer"].append(p)
            cols["rtype"].append(rt)
            cols["cid"].append(c)
        events = []
        for p in range(prof.n_peers):
            for start, end in sessions[m][p]:
                events.append((start, p, "connect"))
                if end is not None:
                    events.append((end, p, "disconnect"))
        events.sort(key=lambda e: (e[0], e[1]))
        path = root / f"conn_{name}.csv"
        with open(path, "w", newline="") as fh:
            fh.write(CONN_HEADER)
            fh.writelines(f"{t},{name},{peer_hex[p]},{kind}\n" for t, p, kind in events)
        conn_paths.append(path)

    geodb = geo_entries()
    geodb_path = root / "geodb.csv"
    geodb_path.write_text("cidr,country\n" + "".join(f"{c},{k}\n" for c, k in geodb))
    geodb_v6_path = root / "geodb_v6.csv"
    geodb_v6_path.write_text(
        "cidr,country\n" + "".join(f"{c},{k}\n" for c, k in geodb) + "2001:db8:1::/48,XX\n"
    )

    a = {k: np.asarray(v, dtype=np.int64) for k, v in cols.items()}
    order = np.lexsort((a["pos"], a["mon"], a["ts"]))
    ts, mon, peer, rtype, cid = (a[k][order] for k in ("ts", "mon", "peer", "rtype", "cid"))
    logs = Logs(
        root=root,
        trace_paths=trace_paths,
        conn_paths=conn_paths,
        geodb_path=geodb_path,
        geodb_v6_path=geodb_v6_path,
        peer_hex=peer_hex,
        cid_str=cid_str,
        group_map=group_map,
        ts=ts,
        mon=mon,
        peer=peer,
        rtype=rtype,
        cid=cid,
        flags=mark_flags(ts, mon, peer, rtype, cid, prof.n_cids),
        windows=[(h * HOUR_NS, (h + 1) * HOUR_NS) for h in range(prof.hours)],
    )
    logs.oracle = oracles(logs, address, sessions, prof, rng)
    return logs


def geo_entries() -> list[tuple[str, str]]:
    rows = [(f"{first}.0.0.0/8", c) for c, first in COUNTRY_PREFIX.items() if c != UNRESOLVED]
    (a, b), c = OVERRIDE_16
    rows.append((f"{a}.{b}.0.0/16", c))
    return sorted(rows)


def country_of(address: str) -> str:
    if not address.startswith("/ip4/"):
        return UNRESOLVED
    a, b = (int(x) for x in address[5:].split("/")[0].split(".")[:2])
    if (a, b) == OVERRIDE_16[0]:
        return OVERRIDE_16[1]
    for c, first in COUNTRY_PREFIX.items():
        if first == a and c != UNRESOLVED:
            return c
    return UNRESOLVED


def mark_flags(ts, mon, peer, rtype, cid, n_cids: int) -> np.ndarray:
    """Flags for records given in unified order, by sorting rather than by
    the per-key dictionaries the pipeline uses.

    A record is a duplicate when an earlier record of the same
    (peer, type, cid) from another monitor lies within 5 s, and a
    re-broadcast when the previous one from its own monitor lies within 31 s.
    """
    n = len(ts)
    flags = np.zeros(n, dtype=np.int64)
    if n == 0:
        return flags
    key = (peer * len(REQUEST_TYPES) + rtype) * n_cids + cid
    by_key = np.argsort(key, kind="stable")  # groups, each in unified order
    k, t, m = key[by_key], ts[by_key], mon[by_key]
    start = np.concatenate(([True], k[1:] != k[:-1]))
    gid = np.cumsum(start) - 1
    span = int(t.max()) + REBROADCAST_WINDOW_NS + 1
    if (int(gid[-1]) + 1) * span >= 2**62:
        raise OverflowError("log too long for the packed group/time key")
    packed = gid * span + t
    dup = np.zeros(len(k), dtype=bool)
    for mi in range(len(MONITORS)):
        last = np.maximum.accumulate(np.where(m == mi, packed, -1))
        prev = np.concatenate(([-1], last[:-1]))
        dup |= (m != mi) & (prev >= gid * span) & (packed - prev <= DUP_WINDOW_NS)
    by_key_mon = np.lexsort((np.arange(n), mon, key))  # (key, monitor) groups
    k2, t2, m2 = key[by_key_mon], ts[by_key_mon], mon[by_key_mon]
    same = np.concatenate(([False], (k2[1:] == k2[:-1]) & (m2[1:] == m2[:-1])))
    gap = np.concatenate(([0], np.diff(t2)))
    reb = same & (gap <= REBROADCAST_WINDOW_NS)
    flags[by_key] |= np.where(dup, FLAG_DUP, 0)
    flags[by_key_mon] |= np.where(reb, FLAG_REB, 0)
    return flags


def oracles(logs: Logs, address, sessions, prof: LogProfile, rng: random.Random) -> dict:
    want = logs.rtype != CANCEL
    clean = want & (logs.flags == 0)
    cid_str, peer_hex = logs.cid_str, logs.peer_hex

    rrp = np.bincount(logs.cid[clean], minlength=prof.n_cids)
    pairs = np.unique(logs.cid[clean] * prof.n_peers + logs.peer[clean])
    urp = np.bincount(pairs // prof.n_peers, minlength=prof.n_cids)
    popular = np.nonzero(rrp)[0]

    codec_counts: dict[str, int] = {}
    for c, k in zip(*np.unique(logs.cid[want], return_counts=True)):
        name = cid_str[c].split(":")[0]
        codec_counts[name] = codec_counts.get(name, 0) + int(k)
    peer_country = [country_of(a) for a in address]
    country_counts: dict[str, int] = {}
    for p, k in zip(*np.unique(logs.peer[clean], return_counts=True)):
        country_counts[peer_country[p]] = country_counts.get(peer_country[p], 0) + int(k)

    bucket = logs.ts // HOUR_NS * HOUR_NS
    rate_type: dict[tuple[int, str], int] = {}
    for b, rt in zip(bucket[want].tolist(), logs.rtype[want].tolist()):
        rate_type[(b, REQUEST_TYPES[rt])] = rate_type.get((b, REQUEST_TYPES[rt]), 0) + 1
    group_of = [logs.group_map.get(h, NON_GATEWAY) for h in peer_hex]
    rate_group: dict[tuple[int, str], int] = {}
    for b, p in zip(bucket[clean].tolist(), logs.peer[clean].tolist()):
        rate_group[(b, group_of[p])] = rate_group.get((b, group_of[p]), 0) + 1

    windows = []
    for t0, t1 in logs.windows:
        sets, w = {}, {}
        instants = range(t0, t1, SAMPLE_INTERVAL_NS)
        for mi, name in enumerate(MONITORS):
            sets[name] = frozenset(
                peer_hex[p] for p, iv in enumerate(sessions[mi])
                if any(s < t1 and (e is None or e > t0) for s, e in iv)
            )
            starts = np.array([s for iv in sessions[mi] for s, _ in iv], dtype=np.int64)
            ends = np.array([e if e is not None else 2**62 for iv in sessions[mi] for _, e in iv],
                            dtype=np.int64)
            grid = np.fromiter(instants, dtype=np.int64)
            live = (starts[None, :] <= grid[:, None]) & (grid[:, None] < ends[None, :])
            w[name] = float(live.sum()) / len(grid)
        names = sorted(sets)
        windows.append({
            "window": (t0, t1),
            "sizes": {n: len(sets[n]) for n in names},
            "intersections": {(a, b): len(sets[a] & sets[b])
                              for i, a in enumerate(names) for b in names[i + 1:]},
            "union": len(frozenset().union(*sets.values())),
            "w": w,
        })

    # look-ups: the most popular cids, random requested ones, and a cid no
    # one asked for; random peers plus one gateway peer
    by_rrp = popular[np.argsort(-rrp[popular], kind="stable")].tolist()
    n_top = prof.n_idw // 3
    idw_cids = by_rrp[:n_top] + rng.sample(by_rrp[n_top:], prof.n_idw - n_top - 1)
    idw_q = [cid_str[c] for c in idw_cids]
    idw_q.append(f"raw:{rng.getrandbits(256).to_bytes(32, 'big').hex()}")
    tnw_peers = rng.sample(range(prof.n_peers), prof.n_tnw - 1)
    tnw_peers.append(peer_hex.index(sorted(logs.group_map)[0]))

    idw_ans = {q: {} for q in idw_q}
    sel = np.nonzero(clean & np.isin(logs.cid, idw_cids))[0]
    for i in sel.tolist():
        ans = idw_ans[cid_str[logs.cid[i]]]
        h = peer_hex[logs.peer[i]]
        if h not in ans:  # unified order is time order, so the first is the earliest
            ans[h] = int(logs.ts[i])
    tnw_ans = {peer_hex[p]: [] for p in tnw_peers}
    sel = np.nonzero(clean & np.isin(logs.peer, tnw_peers))[0]
    for i in sel.tolist():
        tnw_ans[peer_hex[logs.peer[i]]].append(
            (int(logs.ts[i]), REQUEST_TYPES[logs.rtype[i]], cid_str[logs.cid[i]])
        )

    return {
        "rrp": {cid_str[c]: int(rrp[c]) for c in popular},
        "urp": {cid_str[c]: int(urp[c]) for c in popular},
        "codec_counts": codec_counts,
        "country_counts": country_counts,
        "rate_type": rate_type,
        "rate_group": rate_group,
        "windows": windows,
        "idw": idw_ans,
        "tnw": tnw_ans,
        "duplicates": int(((logs.flags & FLAG_DUP) != 0).sum()),
        "rebroadcasts": int(((logs.flags & FLAG_REB) != 0).sum()),
    }
