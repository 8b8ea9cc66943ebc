"""Fast checks of the monitor-log generator's oracles.

Every oracle is recomputed here by a brute-force scan of the files the
generator wrote, on logs small enough for pairwise comparison. Run with

    python3 -m pytest benchmarks/test_gen.py -q
"""

from __future__ import annotations

import csv
import ipaddress
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import gen  # noqa: E402

NS = gen.NS
TINY = gen.LogProfile(n_peers=14, n_cids=6, hours=1, actions_per_peer_hour=30.0,
                      coverage=0.9, mean_session_s=900.0, mean_offline_s=300.0,
                      n_gateway_peers=4, n_idw=4, n_tnw=4)


@pytest.fixture(scope="module", params=[1, 2, 3])
def logs(request, tmp_path_factory):
    return gen.generate(tmp_path_factory.mktemp(f"logs{request.param}"), TINY, request.param)


def _rows(path: Path) -> list[list[str]]:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))[1:]


def _unified(logs) -> list[dict]:
    """Records of every monitor file, ordered by (time, monitor, file position)."""
    records = []
    for path in logs.trace_paths:
        for pos, row in enumerate(_rows(path)):
            records.append({"ts": int(row[0]), "mon": row[1], "pos": pos, "peer": row[2],
                            "address": row[3], "type": row[4], "cid": f"{row[5]}:{row[6]}"})
    records.sort(key=lambda r: (r["ts"], r["mon"], r["pos"]))
    return records


def _brute_flags(records) -> list[int]:
    flags = []
    for i, r in enumerate(records):
        key = (r["peer"], r["type"], r["cid"])
        earlier = [q for q in records[:i] if (q["peer"], q["type"], q["cid"]) == key]
        f = 0
        if any(q["mon"] != r["mon"] and r["ts"] - q["ts"] <= 5 * NS for q in earlier):
            f |= gen.FLAG_DUP
        same = [q for q in earlier if q["mon"] == r["mon"]]
        if same and r["ts"] - same[-1]["ts"] <= 31 * NS:
            f |= gen.FLAG_REB
        flags.append(f)
    return flags


def test_order_and_flags_match_pairwise_scan(logs):
    records = _unified(logs)
    assert len(records) > 200
    assert [r["ts"] for r in records] == logs.ts.tolist()
    assert [r["mon"] for r in records] == [gen.MONITORS[m] for m in logs.mon]
    flags = _brute_flags(records)
    assert flags == logs.flags.tolist()
    assert any(f & gen.FLAG_DUP for f in flags) and any(f & gen.FLAG_REB for f in flags)


def _country(address: str, db) -> str:
    if not address.startswith("/ip4/"):
        return gen.UNRESOLVED
    ip = ipaddress.ip_address(address.split("/")[2])
    hits = [(net.prefixlen, c) for net, c in db if ip in net]
    return max(hits)[1] if hits else gen.UNRESOLVED


def test_popularity_shares_and_rates_match_scan(logs):
    records = _unified(logs)
    db = [(ipaddress.ip_network(c), k) for c, k in (row for row in _rows(logs.geodb_path))]
    rrp, wanters, codec, country, by_type, by_group = {}, {}, {}, {}, {}, {}
    for r, f in zip(records, _brute_flags(records)):
        if r["type"] == "cancel":
            continue
        bucket = r["ts"] // (3600 * NS) * 3600 * NS
        codec[r["cid"].split(":")[0]] = codec.get(r["cid"].split(":")[0], 0) + 1
        by_type[(bucket, r["type"])] = by_type.get((bucket, r["type"]), 0) + 1
        if f:
            continue
        rrp[r["cid"]] = rrp.get(r["cid"], 0) + 1
        wanters.setdefault(r["cid"], set()).add(r["peer"])
        c = _country(r["address"], db)
        country[c] = country.get(c, 0) + 1
        g = logs.group_map.get(r["peer"], gen.NON_GATEWAY)
        by_group[(bucket, g)] = by_group.get((bucket, g), 0) + 1
    o = logs.oracle
    assert o["rrp"] == rrp
    assert o["urp"] == {c: len(p) for c, p in wanters.items()}
    assert o["codec_counts"] == codec
    assert o["country_counts"] == country
    assert o["rate_type"] == by_type
    assert o["rate_group"] == by_group


def test_windows_match_scan(logs):
    for want in logs.oracle["windows"]:
        t0, t1 = want["window"]
        sets, w = {}, {}
        for path in logs.conn_paths:
            history: dict[str, list[tuple[int, str]]] = {}
            for t, mon, peer, kind in _rows(path):
                history.setdefault(peer, []).append((int(t), kind))
            name = path.stem.split("_")[1]

            def up(events, t):
                state = [k for ts, k in events if ts <= t]
                return bool(state) and state[-1] == "connect"

            def overlaps(events):
                if up(events, t0):
                    return True
                return any(kind == "connect" and t0 <= ts < t1 for ts, kind in events)

            sets[name] = {p for p, ev in history.items() if overlaps(ev)}
            grid = range(t0, t1, 60 * NS)
            w[name] = sum(up(ev, t) for ev in history.values() for t in grid) / len(grid)
        names = sorted(sets)
        assert want["sizes"] == {n: len(sets[n]) for n in names}
        assert want["intersections"] == {(a, b): len(sets[a] & sets[b])
                                         for i, a in enumerate(names) for b in names[i + 1:]}
        assert want["union"] == len(set().union(*sets.values()))
        assert want["w"] == pytest.approx(w, abs=1e-12)


def test_lookups_match_scan(logs):
    records = _unified(logs)
    clean = [r for r, f in zip(records, _brute_flags(records)) if not f and r["type"] != "cancel"]
    for cid, answer in logs.oracle["idw"].items():
        first = {}
        for r in clean:
            if r["cid"] == cid:
                first[r["peer"]] = min(first.get(r["peer"], r["ts"]), r["ts"])
        assert answer == first
    assert {} in logs.oracle["idw"].values()  # the cid nobody asked for
    for peer, answer in logs.oracle["tnw"].items():
        want = sorted(((r["ts"], r["type"], r["cid"]) for r in clean if r["peer"] == peer),
                      key=lambda e: e[0])
        assert answer == want


def test_same_seed_same_inputs(tmp_path):
    a = gen.generate(tmp_path / "a", TINY, 5)
    b = gen.generate(tmp_path / "b", TINY, 5)
    c = gen.generate(tmp_path / "c", TINY, 6)
    for pa, pb in zip(a.trace_paths + a.conn_paths, b.trace_paths + b.conn_paths):
        assert pa.read_bytes() == pb.read_bytes()
    assert a.oracle == b.oracle
    assert a.trace_paths[0].read_bytes() != c.trace_paths[0].read_bytes()
