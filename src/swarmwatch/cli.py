"""Command-line entry point: simulate / unify / analyze / estimate / probe.

Every subcommand writes its machine-readable artifacts (CSV/JSON) plus a
manifest.json recording the tool version, resolved configuration, input
digests, and produced files, so any output can be traced back to exact
inputs. Human-readable tables go to stdout; nothing ever parses them back.

Exit codes: 0 success; 2 a SwarmwatchError or OSError (the input's fault); 1 anything else.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict
from itertools import chain
from pathlib import Path

from . import __version__, analytics, estimators, netsim, pipeline, probes
from .core import (
    Cid,
    NodeId,
    read_conn_events,
    read_trace,
    span_ns,
    to_ns,
    write_conn_events,
    write_trace,
)
from .errors import ConfigError, SwarmwatchError


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _config_digest(config: dict) -> str:
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# what a manifest leaves out of its config: the verb's function and name
# (recorded apart) and the output directory, which shapes no output
_UNRECORDED = ("func", "subcommand", "out")
# the world verbs' options that override the simulation config's field of that name
_OVERRIDES = ("seed", "duration_s")


class _Manifest:
    """Reproducibility record written next to every subcommand's outputs.

    ``main`` opens it before the verb runs and writes it after the verb
    returns, so a run that fails writes no manifest; the output directory
    is made when the verb names its first output, so a run that fails on
    its input leaves none. Its config holds every option in ``args`` but
    those above, with a world verb's simulation config (``sim_config``,
    set by ``_load_world``) in place of its --config and overrides."""

    def __init__(self, args):
        self.started = time.monotonic()
        self.args = args
        self.out_dir = Path(args.out)
        self.sim_config: dict | None = None
        self.inputs: dict[str, str] = {}
        self.outputs: list[str] = []
        for path in getattr(args, "traces", ()):
            self.add_input(path)

    def add_input(self, path) -> None:
        p = Path(path)
        self.inputs[str(p)] = _sha256_file(p)

    def path(self, name: str) -> Path:
        """The path of output file ``name``, recorded as an output; makes
        the output directory if it is not there."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.outputs.append(str(path))
        return path

    def write_csv(self, name: str, header: list[str], rows) -> Path:
        """Write ``header`` and ``rows`` to output file ``name`` as an
        excel-dialect CSV."""
        path = self.path(name)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows(rows)
        return path

    def write_json(self, name: str, doc) -> Path:
        """Write ``doc`` to output file ``name`` as indented JSON."""
        path = self.path(name)
        path.write_text(json.dumps(doc, indent=2) + "\n")
        return path

    def write(self) -> Path:
        world = self.sim_config
        skip = _UNRECORDED if world is None else (*_UNRECORDED, "config", *_OVERRIDES)
        config = {**(world or {}), **{k: v for k, v in vars(self.args).items() if k not in skip}}
        doc = {
            "tool_version": __version__,
            "subcommand": self.args.subcommand,
            "config": config,
            "config_digest": _config_digest(config),
            "input_digests": self.inputs,
            "outputs": sorted(self.outputs),
            "duration_s": round(time.monotonic() - self.started, 6),
        }
        return self.write_json("manifest.json", doc)


def _parse(fn, text: str, flag: str):
    """``fn(text)``; raise ConfigError naming ``flag`` and the text when it
    rejects the text or, for a file, cannot read it."""
    try:
        return fn(text)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"{flag} {text!r}: {exc}") from None


def _json_file(path):
    return json.loads(Path(path).read_text())


def _object_once(pairs: list) -> dict:
    """A JSON object's pairs as a dict; ValueError names a repeated key."""
    doc = {}
    for key, value in pairs:
        if key in doc:
            raise ValueError(f"key {key!r} is repeated")
        doc[key] = value
    return doc


def _load_world(args, manifest: _Manifest):
    """The config-driven verbs' common start: read the config JSON, apply
    the ``--seed``/``--duration-s`` overrides, decode, record the config on
    ``manifest``, then build the network and run it for the configured
    duration.

    Returns (network, run result)."""
    raw = _parse(_json_file, args.config, "--config")
    if isinstance(raw, dict):  # anything else is rejected by config_from_dict
        overrides = {name: getattr(args, name, None) for name in _OVERRIDES}
        raw.update((k, v) for k, v in overrides.items() if v is not None)
    cfg = netsim.config_from_dict(raw)
    manifest.add_input(args.config)
    manifest.sim_config = netsim.config_to_dict(cfg)
    net = netsim.build_network(cfg)
    return net, netsim.run(net)


def _print_table(headers: list[str], rows: list[list]) -> None:
    table = [headers] + [[str(c) for c in row] for row in rows]
    widths = [max(len(r[i]) for r in table) for i in range(len(headers))]
    for i, row in enumerate(table):
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        if i == 0:
            print("  ".join("-" * w for w in widths))


def _by_monitor(read, paths) -> dict[str, list]:
    """What ``read`` returns for each of ``paths``, grouped by monitor."""
    by_monitor: dict[str, list] = {}
    for item in chain.from_iterable(map(read, paths)):
        by_monitor.setdefault(item.monitor, []).append(item)
    return by_monitor


def _load_marked_trace(args):
    """Read ``args.traces``, unify them and mark flags with the windows
    given on the command line."""
    return pipeline.mark_flags(
        pipeline.unify(_by_monitor(read_trace, args.traces)),
        window_dup_s=args.dup_window_s,
        window_rebroadcast_s=args.rebroadcast_window_s,
    )


# ----------------------------------------------------------------------
# simulate


def cmd_simulate(args, manifest: _Manifest) -> None:
    net, (traces, conns, gt) = _load_world(args, manifest)
    record_counts = {}
    for name in sorted(traces):
        write_trace(traces[name], manifest.path(f"trace_{name}.csv"))
        write_conn_events(conns[name], manifest.path(f"conn_{name}.csv"))
        record_counts[name] = len(traces[name])
    manifest.write_csv("geodb.csv", ["cidr", "country"], net.geo_entries())
    gt_doc = gt.summary()
    gt_doc["gateway_map"] = {
        name: [nid.hex for nid in nodes] for name, nodes in gt.gateway_map.items()
    }
    gt_doc["trace_records"] = record_counts
    gt_doc["conn_events"] = {name: len(conns[name]) for name in sorted(conns)}
    gt_doc["catalog_size"] = len(net.catalog)
    manifest.write_json("ground_truth.json", gt_doc)
    print(
        f"simulated {gt.n_total} nodes for {net.cfg.duration_s}s: "
        f"{sum(record_counts.values())} trace records across "
        f"{len(record_counts)} monitors -> {manifest.out_dir}"
    )


# ----------------------------------------------------------------------
# unify


def cmd_unify(args, manifest: _Manifest) -> None:
    marked = _load_marked_trace(args)
    out_path = manifest.path("unified.csv")
    write_trace(marked.records, out_path)
    dups = sum(1 for r in marked if r.is_duplicate)
    rebs = sum(1 for r in marked if r.is_rebroadcast)
    print(
        f"unified {len(marked)} records from {len(marked.provenance)} monitors; "
        f"{dups} inter-monitor duplicates, {rebs} re-broadcasts -> {out_path}"
    )


# ----------------------------------------------------------------------
# analyze


def _share_report(manifest: _Manifest, name: str, label: str, rows) -> None:
    """Write share rows to ``name`` and print them as a table."""
    manifest.write_csv(
        name, [label, "count", "share_pct"],
        ([r.label, r.count, f"{r.share_pct:.4f}"] for r in rows),
    )
    _print_table(
        [label, "count", "share %"],
        [[r.label, r.count, f"{r.share_pct:.2f}"] for r in rows],
    )


def _read_gateway_map(path) -> dict[NodeId, str]:
    """Read a --gateway-map file, a JSON object mapping peer ids in hex to
    group names; raise ConfigError naming the first repeated key, else the
    first key that maps to no group name, else the first that is not a peer
    id or spells the peer of an earlier key."""
    doc = _parse(lambda p: json.loads(Path(p).read_text(), object_pairs_hook=_object_once),
                 path, "--gateway-map")
    if not isinstance(doc, dict):
        raise ConfigError(f"--gateway-map must hold a JSON object, got {type(doc).__name__}")
    for key, group in doc.items():
        if not isinstance(group, str):
            raise ConfigError(f"--gateway-map key {key!r} must map to a group name, not {group!r}")
    keys: dict[NodeId, str] = {}
    for key in doc:
        first = keys.setdefault(_parse(NodeId.from_hex, key, "--gateway-map key"), key)
        if first != key:
            raise ConfigError(f"--gateway-map key {key!r} names the peer of key {first!r}")
    return {peer: doc[key] for peer, key in keys.items()}


def cmd_analyze(args, manifest: _Manifest) -> None:
    # a file option the report does not read is refused, not recorded unused
    report = f"--report {args.report}"
    if args.report == "rate-timeseries":
        report += f" --group-by {args.group_by}"
    for flag, value, reader in (("--geo-db", args.geo_db, "--report geo-share"),
                                ("--gateway-map", args.gateway_map,
                                 "--report rate-timeseries --group-by origin_group")):
        if value is not None and report != reader:
            raise ConfigError(f"{flag} is read only by {reader}, not by {report}")
    if args.report == "codec-share":
        records = [rec for path in args.traces for rec in read_trace(path)]
        _share_report(manifest, "codec_share.csv", "codec", analytics.codec_share(records))
    elif args.report == "geo-share":
        if not args.geo_db:
            raise ConfigError("geo-share needs --geo-db")
        manifest.add_input(args.geo_db)
        db = analytics.GeoDb.from_csv(args.geo_db)
        rows = analytics.geo_share(_load_marked_trace(args), db)
        _share_report(manifest, "geo_share.csv", "country", rows)
    elif args.report == "popularity":
        table = analytics.popularity(_load_marked_trace(args))
        ordering = sorted(table.rrp, key=lambda c: (-table.rrp[c], str(c)))
        path = manifest.write_csv(
            "popularity.csv", ["cid", "rrp", "urp"],
            ([str(cid), table.rrp[cid], table.urp[cid]] for cid in ordering),
        )
        for score_name, scores in (("rrp", table.rrp_scores()), ("urp", table.urp_scores())):
            if scores:
                manifest.write_csv(
                    f"{score_name}_ecdf.csv", ["score", "cumulative_fraction"],
                    analytics.ecdf(scores),
                )
        print(f"{len(table)} distinct cids -> {path}")
    elif args.report == "rate-timeseries":
        # check the options before the ingest, which takes seconds on a large trace
        span_ns(args.bucket_s, "bucket_s")
        group_map = None
        if args.gateway_map:
            group_map = _read_gateway_map(args.gateway_map)
            manifest.add_input(args.gateway_map)
        points = analytics.rate_timeseries(
            _load_marked_trace(args),
            bucket_s=args.bucket_s,
            group_by=args.group_by,
            group_map=group_map,
            drop_flagged=args.group_by == "origin_group",
        )
        path = manifest.write_csv(
            "rate_timeseries.csv", ["bucket_start_ns", "group", "rate_per_s"],
            ([p.bucket_start_ns, p.group, f"{p.rate_per_s:.6f}"] for p in points),
        )
        print(f"{len(points)} bucketed rates -> {path}")
    elif args.report == "power-law":
        marked = _load_marked_trace(args)
        table = analytics.popularity(marked)
        scores = table.rrp_scores() if args.score == "rrp" else table.urp_scores()
        fit = analytics.fit_power_law(scores, bootstraps=args.bootstraps, seed=args.seed)
        manifest.write_json("power_law.json", asdict(fit))
        verdict = "rejected" if fit.rejected else "not rejected"
        print(
            f"{args.score} power-law fit: alpha={fit.alpha:.3f} x_min={fit.x_min} "
            f"ks={fit.ks_statistic:.4f} p={fit.p_value:.3f} ({verdict}) "
            f"alpha_clamped={fit.alpha_clamped} replicates_skipped={fit.replicates_skipped}"
        )


# ----------------------------------------------------------------------
# estimate


# the keys each method reads from a --stats document: "sizes" maps each of
# two monitors to its peer count and "intersections" maps "a|b", the two
# names in sorted order, to the peers both saw; "m" is the union size of "r"
# monitors' peer sets and "w" their mean concurrent connection count, each
# monitor's open connections sampled every 60 s over the window and
# averaged, then averaged over the monitors
_STATS_KEYS = {"two-monitor": ("sizes", "intersections"), "coupon": ("m", "r", "w")}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool) and math.isfinite(value)


def _check_stats(doc, method: str) -> dict:
    """Return a --stats document after checking that every key ``method``
    reads is present and typed; else raise ConfigError naming the key."""
    if not isinstance(doc, dict):
        raise ConfigError(f"--stats must hold a JSON object, got {type(doc).__name__}")
    keys = _STATS_KEYS[method]
    for key in keys:
        if key not in doc:
            raise ConfigError(f"--stats has no key {key!r} ({method} reads {', '.join(keys)})")
        value = doc[key]
        if method == "two-monitor":
            ok = isinstance(value, dict) and all(map(_is_number, value.values()))
            expected = "an object of finite numbers"
        else:
            ok, expected = _is_number(value), "a finite number"
        if not ok:
            raise ConfigError(f"--stats key {key!r} must be {expected}, not {value!r}")
    return doc


def _stats_from_args(args, manifest: _Manifest) -> dict:
    if args.stats:
        for flag, value in (("--conn-events", args.conn_events),
                            ("--window-start-s", args.window_start_s),
                            ("--window-end-s", args.window_end_s)):
            if value is not None:
                raise ConfigError(f"give --stats or --conn-events with its window, "
                                  f"not --stats and {flag}")
        doc = _parse(_json_file, args.stats, "--stats")
        manifest.add_input(args.stats)
        return _check_stats(doc, args.method)
    if args.conn_events:
        start_s, end_s = args.window_start_s, args.window_end_s
        if start_s is None or end_s is None:
            raise ConfigError("--conn-events needs --window-start-s and --window-end-s")
        # checked before the logs are read, which takes seconds on a large log
        window = (to_ns(start_s, "--window-start-s"), to_ns(end_s, "--window-end-s"))
        if window[1] <= window[0]:
            raise ConfigError(f"--window-end-s {end_s!r} is not after --window-start-s {start_s!r}")
        for path in args.conn_events:
            manifest.add_input(path)
        stats = estimators.peer_set_stats(_by_monitor(read_conn_events, args.conn_events), window)
        return {
            "sizes": stats.sizes,
            "intersections": {"|".join(k): v for k, v in stats.intersections.items()},
            "m": stats.union_size,
            "r": stats.r,
            "w": stats.w,
        }
    raise ConfigError("estimate needs --stats or --conn-events (or --samples for dht-min)")


def cmd_estimate(args, manifest: _Manifest) -> None:
    if args.method == "dht-min":
        if not args.samples:
            raise ConfigError("dht-min needs --samples (a JSON list of distances)")
        xs = _parse(_json_file, args.samples, "--samples")
        manifest.add_input(args.samples)
        if not isinstance(xs, list) or not xs:
            raise ConfigError(f"--samples must hold a non-empty JSON list, got {xs!r:.40}")
        bad = [x for x in xs if not _is_number(x)]
        if bad:
            raise ConfigError(f"--samples holds {bad[0]!r}, not a distance")
        est = estimators.dht_size_from_min_distance(xs)
        inputs = {"k": len(xs)}
    else:
        doc = _stats_from_args(args, manifest)
        if args.method == "two-monitor":
            sizes = doc["sizes"]
            if len(sizes) != 2:
                raise ConfigError("two-monitor method needs exactly two monitors")
            (m1, p1), (m2, p2) = sorted(sizes.items())
            inter = doc["intersections"].get(f"{m1}|{m2}")
            if inter is None:
                raise ConfigError(f"--stats key 'intersections' has no entry '{m1}|{m2}'")
            est = estimators.estimate_two_monitor(p1, p2, inter)
            inputs = {"p1": p1, "p2": p2, "intersection": inter}
        else:
            m, r, w = doc["m"], doc["r"], doc["w"]
            est = estimators.solve_coupon_mle(m, r, w)
            inputs = {"m": m, "r": r, "w": w}
    manifest.write_json("estimate.json", {
        "method": est.method.value,
        "n_hat": est.n_hat,
        "inputs": inputs,
        "iterations": est.iterations,
        "residual": est.residual,
    })
    print(f"{est.method.value}: N = {est.n_hat:.2f}")


# ----------------------------------------------------------------------
# probe-gateways and attack subcommands


def cmd_probe_gateways(args, manifest: _Manifest) -> None:
    # the configured duration is the warm-up before probing
    net, _ = _load_world(args, manifest)
    cfg = net.cfg
    if cfg.gateway_cache_hit_ratio > 0:
        print(
            "warning: gateway_cache_hit_ratio > 0; bait rounds answered from "
            "the gateway cache produce no overlay traffic, so discovery may "
            "stall (probe with a hit ratio of 0)",
            file=sys.stderr,
        )
    results = [
        probes.probe_gateway(net, dns_name, net.monitors, seed=cfg.seed + i)
        for i, dns_name in enumerate(sorted(net.gateways))
    ]
    manifest.write_csv(
        "gateways.csv", ["dns_name", "node_ids", "probes_sent", "http_ok", "http_failed"],
        (
            [res.dns_name, "|".join(sorted(n.hex for n in res.discovered_node_ids)),
             res.probes_sent, sum(res.http_succeeded), res.http_succeeded.count(False)]
            for res in results
        ),
    )
    manifest.write_csv(
        "crossref.csv", ["node_id", "addresses", "dns_names", "multi_address", "shared_address"],
        (
            [e.node.hex, "|".join(e.addresses), "|".join(e.dns_names),
             int(e.multi_address), int(e.shared_address)]
            for e in probes.cross_reference(results, chain.from_iterable(net.traces.values()))
        ),
    )
    _print_table(
        ["gateway", "nodes", "probes", "http ok"],
        [
            [r.dns_name, len(r.discovered_node_ids), r.probes_sent, sum(r.http_succeeded)]
            for r in results
        ],
    )


def cmd_idw(args, manifest: _Manifest) -> None:
    cid = _parse(Cid.from_string, args.cid, "--cid")
    wanters = probes.idw(_load_marked_trace(args), cid)
    path = manifest.write_csv(
        "idw.csv", ["peer_id", "first_seen_ns"],
        ([peer.hex, wanters[peer]] for peer in sorted(wanters)),
    )
    print(f"{len(wanters)} wanters of {args.cid} -> {path}")


def cmd_tnw(args, manifest: _Manifest) -> None:
    target = _parse(NodeId.from_hex, args.peer, "--peer")
    wants = probes.tnw(_load_marked_trace(args), target)
    path = manifest.write_csv(
        "tnw.csv", ["timestamp_ns", "request_type", "cid"],
        ([t, rtype.value, str(cid)] for t, rtype, cid in wants),
    )
    print(f"{len(wants)} wants by {args.peer[:12]}.. -> {path}")


def cmd_tpi(args, manifest: _Manifest) -> None:
    target = _parse(NodeId.from_hex, args.target, "--target")
    cid = _parse(Cid.from_string, args.cid, "--cid")
    net, _ = _load_world(args, manifest)
    if target not in net.nodes:
        raise ConfigError("target node id not present in the simulated network")
    prober = net.add_node(netsim.NodeKind.DHT_CLIENT)
    positive = probes.tpi(net, prober, target, cid)
    manifest.write_json("tpi.json", {"target": args.target, "cid": args.cid, "cached": positive})
    print(f"tpi {args.target[:12]}.. {args.cid[:24]}..: {'HIT' if positive else 'MISS'}")


# ----------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swarmwatch",
        description="Simulate and analyze block-request monitoring of a P2P storage swarm.",
    )
    parser.add_argument("--version", action="version", version=f"swarmwatch {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def verb(name, func, help, reads=None):
        """Add subcommand ``name``, run by ``func``, with --out and the
        options of what it ``reads``: "traces" (trace CSVs, marked with the
        two windows) or "config" (a simulation config and a seed override)."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--out", required=True, help="output directory")
        if reads == "traces":
            p.add_argument("traces", nargs="+", help="input trace CSVs")
            p.add_argument("--dup-window-s", type=float, default=pipeline.DEFAULT_DUP_WINDOW_S,
                           help="cross-monitor duplicate window (seconds)")
            p.add_argument("--rebroadcast-window-s", type=float,
                           default=pipeline.DEFAULT_REBROADCAST_WINDOW_S,
                           help="per-monitor re-broadcast window (seconds)")
        elif reads == "config":
            p.add_argument("--config", required=True, help="simulation config JSON")
            p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.set_defaults(func=func)
        return p

    p = verb("simulate", cmd_simulate, "run a network simulation, write traces", "config")
    p.add_argument("--duration-s", type=float, default=None, help="override duration")

    verb("unify", cmd_unify, "merge per-monitor traces and mark flags", "traces")

    p = verb("analyze", cmd_analyze, "reports over a trace", "traces")
    p.add_argument("--report", required=True, choices=[
        "codec-share", "geo-share", "popularity", "rate-timeseries", "power-law"])
    p.add_argument("--geo-db", default=None, help="cidr,country CSV for geo-share")
    p.add_argument("--gateway-map", default=None,
                   help="JSON {node_id_hex: group} for origin grouping")
    p.add_argument("--bucket-s", type=float, default=3600.0)
    p.add_argument("--group-by", choices=["request_type", "origin_group"],
                   default="request_type")
    p.add_argument("--score", choices=["rrp", "urp"], default="urp")
    p.add_argument("--bootstraps", type=int, default=250)
    p.add_argument("--seed", type=int, default=0)

    p = verb("estimate", cmd_estimate, "network size estimation")
    p.add_argument("--method", required=True, choices=["two-monitor", "coupon", "dht-min"])
    p.add_argument("--stats", default=None, help="peer-set stats JSON")
    p.add_argument("--conn-events", nargs="*", default=None,
                   help="connection-event CSVs to derive stats from")
    p.add_argument("--window-start-s", type=float, default=None)
    p.add_argument("--window-end-s", type=float, default=None)
    p.add_argument("--samples", default=None, help="JSON list of min distances (dht-min)")

    verb("probe-gateways", cmd_probe_gateways, "bait-block probing of simulated gateways",
         "config")

    p = verb("idw", cmd_idw, "list peers that wanted a cid", "traces")
    p.add_argument("--cid", required=True, help="codec:digest-hex form")

    p = verb("tnw", cmd_tnw, "list a peer's wants", "traces")
    p.add_argument("--peer", required=True, help="node id, 1 to 64 hex digits")

    p = verb("tpi", cmd_tpi, "cache-probe a simulated node for a cid", "config")
    p.add_argument("--target", required=True, help="node id, 1 to 64 hex digits")
    p.add_argument("--cid", required=True, help="codec:digest-hex form")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        manifest = _Manifest(args)
        args.func(args, manifest)
        manifest.write()
        return 0
    except (SwarmwatchError, OSError) as exc:  # the input's fault, by the error's type
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # internal invariant violation
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
