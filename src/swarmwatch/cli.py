"""Command-line entry point: simulate / unify / analyze / estimate / probe.

Every subcommand writes its machine-readable artifacts (CSV/JSON) plus a
manifest.json recording the tool version, resolved configuration, input
digests, and produced files, so any output can be traced back to exact
inputs. Human-readable tables go to stdout; nothing ever parses them back.

Exit codes: 0 success, 1 internal error, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict
from pathlib import Path

from . import __version__, analytics, estimators, netsim, pipeline, probes
from .core import (
    Cid,
    NodeId,
    read_conn_events,
    read_trace,
    write_conn_events,
    write_trace,
)
from .errors import (
    ConfigError,
    DegenerateSampleError,
    DisjointSamplesError,
    ProbeUnreachableError,
    TraceParseError,
    UnknownGatewayError,
)

_USAGE_ERRORS = (
    ConfigError,
    TraceParseError,
    DisjointSamplesError,
    DegenerateSampleError,
    UnknownGatewayError,
    ProbeUnreachableError,
    FileNotFoundError,
    ValueError,
    KeyError,
)

NS = 1_000_000_000


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


class _Manifest:
    """Reproducibility record written next to every subcommand's outputs.

    Creates the output directory and digests the given inputs up front."""

    def __init__(self, subcommand: str, config: dict, out_dir, inputs=()):
        self.started = time.monotonic()
        self.subcommand = subcommand
        self.config = config
        self.out_dir = Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        for path in inputs:
            self.add_input(path)

    def add_input(self, path) -> None:
        p = Path(path)
        self.inputs[str(p)] = _sha256_file(p)

    def add_output(self, path) -> None:
        self.outputs.append(str(path))

    def write(self) -> Path:
        doc = {
            "tool_version": __version__,
            "subcommand": self.subcommand,
            "config": self.config,
            "config_digest": _config_digest(self.config),
            "input_digests": self.inputs,
            "outputs": sorted(self.outputs),
            "duration_s": round(time.monotonic() - self.started, 6),
        }
        path = self.out_dir / "manifest.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path


def _load_world(args, subcommand: str):
    """The config-driven verbs' common start: read the config JSON, apply
    the ``--seed``/``--duration-s`` overrides, decode, open the manifest,
    then build the network and run it for the configured duration.

    Returns (network, run result, manifest)."""
    raw = json.loads(Path(args.config).read_text())
    if isinstance(raw, dict):  # anything else is rejected by config_from_dict
        overrides = {"seed": args.seed, "duration_s": getattr(args, "duration_s", None)}
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    cfg = netsim.config_from_dict(raw)
    manifest = _Manifest(subcommand, netsim.config_to_dict(cfg), args.out, [args.config])
    net = netsim.build_network(cfg)
    return net, netsim.run(net), manifest


def _print_table(headers: list[str], rows: list[list]) -> None:
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for i, row in enumerate(table):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


def _load_marked_trace(paths, dup_window_s: float, rebroadcast_window_s: float):
    by_monitor: dict[str, list] = {}
    for path in paths:
        for rec in read_trace(path):
            by_monitor.setdefault(rec.monitor, []).append(rec)
    unified = pipeline.unify(
        by_monitor,
        window_dup_s=dup_window_s,
        window_rebroadcast_s=rebroadcast_window_s,
    )
    return pipeline.mark_flags(unified)


# ----------------------------------------------------------------------
# simulate


def cmd_simulate(args) -> int:
    net, (traces, conns, gt), manifest = _load_world(args, "simulate")
    out = manifest.out_dir
    record_counts = {}
    for name in sorted(traces):
        trace_path = out / f"trace_{name}.csv"
        conn_path = out / f"conn_{name}.csv"
        write_trace(traces[name], trace_path)
        write_conn_events(conns[name], conn_path)
        manifest.add_output(trace_path)
        manifest.add_output(conn_path)
        record_counts[name] = len(traces[name])
    geodb_path = out / "geodb.csv"
    with open(geodb_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cidr", "country"])
        writer.writerows(net.geo_entries())
    manifest.add_output(geodb_path)
    gt_doc = gt.summary()
    gt_doc["gateway_map"] = {
        name: [nid.hex for nid in nodes] for name, nodes in gt.gateway_map.items()
    }
    gt_doc["trace_records"] = record_counts
    gt_doc["conn_events"] = {name: len(conns[name]) for name in sorted(conns)}
    gt_doc["catalog_size"] = len(net.catalog)
    gt_path = out / "ground_truth.json"
    gt_path.write_text(json.dumps(gt_doc, indent=2) + "\n")
    manifest.add_output(gt_path)
    manifest.write()
    print(
        f"simulated {gt.n_total} nodes for {net.cfg.duration_s}s: "
        f"{sum(record_counts.values())} trace records across "
        f"{len(record_counts)} monitors -> {out}"
    )
    return 0


# ----------------------------------------------------------------------
# unify


def cmd_unify(args) -> int:
    config = {
        "inputs": list(args.traces),
        "dup_window_s": args.dup_window_s,
        "rebroadcast_window_s": args.rebroadcast_window_s,
    }
    manifest = _Manifest("unify", config, args.out, args.traces)
    out = manifest.out_dir
    marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
    out_path = out / "unified.csv"
    write_trace(marked.records, out_path)
    manifest.add_output(out_path)
    manifest.write()
    dups = sum(1 for r in marked if r.is_duplicate)
    rebs = sum(1 for r in marked if r.is_rebroadcast)
    print(
        f"unified {len(marked)} records from {len(marked.provenance)} monitors; "
        f"{dups} inter-monitor duplicates, {rebs} re-broadcasts -> {out_path}"
    )
    return 0


# ----------------------------------------------------------------------
# analyze


def _write_share_csv(path: Path, label: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([label, "count", "share_pct"])
        for row in rows:
            writer.writerow([row.label, row.count, f"{row.share_pct:.4f}"])


def cmd_analyze(args) -> int:
    config = {
        "report": args.report,
        "inputs": list(args.traces),
        "dup_window_s": args.dup_window_s,
        "rebroadcast_window_s": args.rebroadcast_window_s,
        "bucket_s": args.bucket_s,
        "group_by": args.group_by,
        "score": args.score,
        "bootstraps": args.bootstraps,
        "seed": args.seed,
    }
    manifest = _Manifest("analyze", config, args.out, args.traces)
    out = manifest.out_dir

    if args.report == "codec-share":
        records = [rec for path in args.traces for rec in read_trace(path)]
        rows = analytics.codec_share(records)
        path = out / "codec_share.csv"
        _write_share_csv(path, "codec", rows)
        manifest.add_output(path)
        _print_table(
            ["codec", "count", "share %"],
            [[r.label, r.count, f"{r.share_pct:.2f}"] for r in rows],
        )
    elif args.report == "geo-share":
        if not args.geo_db:
            raise ConfigError("geo-share needs --geo-db")
        manifest.add_input(args.geo_db)
        db = analytics.GeoDb.from_csv(args.geo_db)
        marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
        rows = analytics.geo_share(marked, db)
        path = out / "geo_share.csv"
        _write_share_csv(path, "country", rows)
        manifest.add_output(path)
        _print_table(
            ["country", "count", "share %"],
            [[r.label, r.count, f"{r.share_pct:.2f}"] for r in rows],
        )
    elif args.report == "popularity":
        marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
        table = analytics.popularity(marked)
        path = out / "popularity.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cid", "rrp", "urp"])
            ordering = sorted(table.rrp, key=lambda c: (-table.rrp[c], str(c)))
            for cid in ordering:
                writer.writerow([str(cid), table.rrp[cid], table.urp[cid]])
        manifest.add_output(path)
        for score_name, scores in (("rrp", table.rrp_scores()), ("urp", table.urp_scores())):
            if not scores:
                continue
            ecdf_path = out / f"{score_name}_ecdf.csv"
            with open(ecdf_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["score", "cumulative_fraction"])
                writer.writerows(analytics.ecdf(scores))
            manifest.add_output(ecdf_path)
        print(f"{len(table)} distinct cids -> {path}")
    elif args.report == "rate-timeseries":
        marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
        group_map = None
        if args.gateway_map:
            manifest.add_input(args.gateway_map)
            doc = json.loads(Path(args.gateway_map).read_text())
            group_map = {NodeId.from_hex(k): v for k, v in doc.items()}
        points = analytics.rate_timeseries(
            marked,
            bucket_s=args.bucket_s,
            group_by=args.group_by,
            group_map=group_map,
            drop_flagged=args.group_by == "origin_group",
        )
        path = out / "rate_timeseries.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["bucket_start_ns", "group", "rate_per_s"])
            for p in points:
                writer.writerow([p.bucket_start_ns, p.group, f"{p.rate_per_s:.6f}"])
        manifest.add_output(path)
        print(f"{len(points)} bucketed rates -> {path}")
    elif args.report == "power-law":
        marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
        table = analytics.popularity(marked)
        scores = table.rrp_scores() if args.score == "rrp" else table.urp_scores()
        fit = analytics.fit_power_law(scores, bootstraps=args.bootstraps, seed=args.seed)
        path = out / "power_law.json"
        path.write_text(json.dumps(asdict(fit), indent=2) + "\n")
        manifest.add_output(path)
        verdict = "rejected" if fit.rejected else "not rejected"
        print(
            f"{args.score} power-law fit: alpha={fit.alpha:.3f} x_min={fit.x_min} "
            f"ks={fit.ks_statistic:.4f} p={fit.p_value:.3f} ({verdict})"
        )
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown report {args.report!r}")
    manifest.write()
    return 0


# ----------------------------------------------------------------------
# estimate


def _stats_from_args(args, manifest: _Manifest) -> estimators.PeerSetStats | dict:
    if args.stats:
        manifest.add_input(args.stats)
        return json.loads(Path(args.stats).read_text())
    if args.conn_events:
        if args.window_start_s is None or args.window_end_s is None:
            raise ConfigError("--conn-events needs --window-start-s and --window-end-s")
        events: dict[str, list] = {}
        for path in args.conn_events:
            manifest.add_input(path)
            for e in read_conn_events(path):
                events.setdefault(e.monitor, []).append(e)
        window = (int(args.window_start_s * NS), int(args.window_end_s * NS))
        stats = estimators.peer_set_stats(events, window)
        return {
            "sizes": stats.sizes,
            "intersections": {"|".join(k): v for k, v in stats.intersections.items()},
            "m": stats.union_size,
            "r": stats.r,
            "w": stats.w,
            "w_per_monitor": stats.w_per_monitor,
        }
    raise ConfigError("estimate needs --stats or --conn-events (or --samples for dht-min)")


def cmd_estimate(args) -> int:
    manifest = _Manifest("estimate", {"method": args.method}, args.out)
    out = manifest.out_dir
    if args.method == "dht-min":
        if not args.samples:
            raise ConfigError("dht-min needs --samples (a JSON list of distances)")
        manifest.add_input(args.samples)
        xs = json.loads(Path(args.samples).read_text())
        est = estimators.dht_size_from_min_distance(xs)
        inputs = {"k": len(xs)}
    else:
        doc = _stats_from_args(args, manifest)
        if args.method == "two-monitor":
            sizes = doc["sizes"]
            if len(sizes) != 2:
                raise ConfigError("two-monitor method needs exactly two monitors")
            (m1, p1), (m2, p2) = sorted(sizes.items())
            inter = next(iter(doc["intersections"].values()))
            est = estimators.estimate_two_monitor(p1, p2, inter)
            inputs = {"p1": p1, "p2": p2, "intersection": inter}
        else:
            m, r, w = doc["m"], doc["r"], doc["w"]
            est = estimators.solve_coupon_mle(m, r, w)
            inputs = {"m": m, "r": r, "w": w}
    doc_out = {
        "method": est.method.value,
        "n_hat": est.n_hat,
        "inputs": inputs,
        "iterations": est.iterations,
        "residual": est.residual,
    }
    path = out / "estimate.json"
    path.write_text(json.dumps(doc_out, indent=2) + "\n")
    manifest.add_output(path)
    manifest.write()
    print(f"{est.method.value}: N = {est.n_hat:.2f}")
    return 0


# ----------------------------------------------------------------------
# probe-gateways and attack subcommands


def cmd_probe_gateways(args) -> int:
    # the configured duration is the warm-up before probing
    net, _, manifest = _load_world(args, "probe-gateways")
    out = manifest.out_dir
    cfg = net.cfg
    if cfg.gateway_cache_hit_ratio > 0:
        print(
            "warning: gateway_cache_hit_ratio > 0; bait rounds answered from "
            "the gateway cache produce no overlay traffic, so discovery may "
            "stall (probe with a hit ratio of 0)",
            file=sys.stderr,
        )
    results = []
    for i, dns_name in enumerate(sorted(net.gateways)):
        results.append(
            probes.probe_gateway(net, dns_name, net.monitors, seed=cfg.seed + i)
        )
    path = out / "gateways.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["dns_name", "node_ids", "probes_sent", "http_ok", "http_failed"])
        for res in results:
            ids = "|".join(sorted(n.hex for n in res.discovered_node_ids))
            ok = sum(res.http_succeeded)
            writer.writerow([res.dns_name, ids, res.probes_sent, ok, len(res.http_succeeded) - ok])
    manifest.add_output(path)
    trace = pipeline.mark_flags(pipeline.unify(net.traces))
    entries = probes.cross_reference(results, trace)
    xref_path = out / "crossref.csv"
    with open(xref_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "addresses", "dns_names", "multi_address", "shared_address"])
        for e in entries:
            writer.writerow(
                [e.node.hex, "|".join(e.addresses), "|".join(e.dns_names),
                 int(e.multi_address), int(e.shared_address)]
            )
    manifest.add_output(xref_path)
    manifest.write()
    _print_table(
        ["gateway", "nodes", "probes", "http ok"],
        [
            [r.dns_name, len(r.discovered_node_ids), r.probes_sent, sum(r.http_succeeded)]
            for r in results
        ],
    )
    return 0


def cmd_idw(args) -> int:
    cid = Cid.from_string(args.cid)
    config = {"cid": args.cid, "inputs": list(args.traces)}
    manifest = _Manifest("idw", config, args.out, args.traces)
    out = manifest.out_dir
    marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
    wanters = probes.idw(marked, cid)
    path = out / "idw.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["peer_id", "first_seen_ns"])
        for peer in sorted(wanters):
            writer.writerow([peer.hex, wanters[peer]])
    manifest.add_output(path)
    manifest.write()
    print(f"{len(wanters)} wanters of {args.cid} -> {path}")
    return 0


def cmd_tnw(args) -> int:
    target = NodeId.from_hex(args.peer)
    config = {"peer": args.peer, "inputs": list(args.traces)}
    manifest = _Manifest("tnw", config, args.out, args.traces)
    out = manifest.out_dir
    marked = _load_marked_trace(args.traces, args.dup_window_s, args.rebroadcast_window_s)
    wants = probes.tnw(marked, target)
    path = out / "tnw.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp_ns", "request_type", "cid"])
        for t, rtype, cid in wants:
            writer.writerow([t, rtype.value, str(cid)])
    manifest.add_output(path)
    manifest.write()
    print(f"{len(wants)} wants by {args.peer[:12]}.. -> {path}")
    return 0


def cmd_tpi(args) -> int:
    net, _, manifest = _load_world(args, "tpi")
    out = manifest.out_dir
    target = NodeId.from_hex(args.target)
    if target not in net.nodes:
        raise ConfigError("target node id not present in the simulated network")
    cid = Cid.from_string(args.cid)
    prober = net.add_node(netsim.NodeKind.DHT_CLIENT)
    positive = probes.tpi(net, prober, target, cid)
    path = out / "tpi.json"
    path.write_text(
        json.dumps({"target": args.target, "cid": args.cid, "cached": positive}, indent=2)
        + "\n"
    )
    manifest.add_output(path)
    manifest.write()
    print(f"tpi {args.target[:12]}.. {args.cid[:24]}..: {'HIT' if positive else 'MISS'}")
    return 0


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmwatch",
        description="Simulate and analyze block-request monitoring of a P2P storage swarm.",
    )
    parser.add_argument("--version", action="version", version=f"swarmwatch {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_windows(p):
        p.add_argument("--dup-window-s", type=float, default=5.0,
                       help="cross-monitor duplicate window (seconds)")
        p.add_argument("--rebroadcast-window-s", type=float, default=31.0,
                       help="per-monitor re-broadcast window (seconds)")

    p = sub.add_parser("simulate", help="run a network simulation, write traces")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--seed", type=int, default=None, help="override config seed")
    p.add_argument("--duration-s", type=float, default=None, help="override duration")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("unify", help="merge per-monitor traces and mark flags")
    p.add_argument("traces", nargs="+", help="input trace CSVs")
    p.add_argument("--out", required=True)
    add_windows(p)
    p.set_defaults(func=cmd_unify)

    p = sub.add_parser("analyze", help="reports over a trace")
    p.add_argument("traces", nargs="+", help="input trace CSVs")
    p.add_argument(
        "--report",
        required=True,
        choices=["codec-share", "geo-share", "popularity", "rate-timeseries", "power-law"],
    )
    p.add_argument("--out", required=True)
    p.add_argument("--geo-db", default=None, help="cidr,country CSV for geo-share")
    p.add_argument("--gateway-map", default=None,
                   help="JSON {node_id_hex: group} for origin grouping")
    p.add_argument("--bucket-s", type=float, default=3600.0)
    p.add_argument("--group-by", choices=["request_type", "origin_group"],
                   default="request_type")
    p.add_argument("--score", choices=["rrp", "urp"], default="urp")
    p.add_argument("--bootstraps", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)
    add_windows(p)
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="network size estimation")
    p.add_argument("--method", required=True, choices=["two-monitor", "coupon", "dht-min"])
    p.add_argument("--out", required=True)
    p.add_argument("--stats", default=None, help="peer-set stats JSON")
    p.add_argument("--conn-events", nargs="*", default=None,
                   help="connection-event CSVs to derive stats from")
    p.add_argument("--window-start-s", type=float, default=None)
    p.add_argument("--window-end-s", type=float, default=None)
    p.add_argument("--samples", default=None, help="JSON list of min distances (dht-min)")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("probe-gateways", help="bait-block probing of simulated gateways")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_probe_gateways)

    p = sub.add_parser("idw", help="list peers that wanted a cid")
    p.add_argument("traces", nargs="+")
    p.add_argument("--cid", required=True, help="codec:digest-hex form")
    p.add_argument("--out", required=True)
    add_windows(p)
    p.set_defaults(func=cmd_idw)

    p = sub.add_parser("tnw", help="list a peer's wants")
    p.add_argument("traces", nargs="+")
    p.add_argument("--peer", required=True, help="node id, 64 hex chars")
    p.add_argument("--out", required=True)
    add_windows(p)
    p.set_defaults(func=cmd_tnw)

    p = sub.add_parser("tpi", help="cache-probe a simulated node for a cid")
    p.add_argument("--config", required=True, help="simulation config JSON")
    p.add_argument("--target", required=True, help="node id, 64 hex chars")
    p.add_argument("--cid", required=True, help="codec:digest-hex form")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_tpi)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
