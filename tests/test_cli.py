import json
import math
from pathlib import Path
from types import SimpleNamespace

import pytest

from swarmwatch import netsim, pipeline
from swarmwatch.cli import build_parser, main
from swarmwatch.core import (
    RAW,
    DAG_PROTOBUF,
    ConnEvent,
    ConnEventKind,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
    read_trace,
    write_conn_events,
    write_trace,
)
from swarmwatch.errors import ConnEventOrderError, InputError, SwarmwatchError
from swarmwatch.pipeline import mark_flags, unify

NS = 1_000_000_000

SIM_CFG = {
    "n_dht_servers": 8,
    "n_clients": 5,
    "n_monitors": 2,
    "degree_range": [2, 4],
    "catalog_size": 20,
    "request_rate_per_node": 0.4,
    "unresolvable_fraction": 0.2,
    "duration_s": 25.0,
    "seed": 7,
}


def write_cfg(tmp_path, cfg) -> Path:
    path = tmp_path / "sim.json"
    path.write_text(json.dumps(cfg))
    return path


def run_sim(tmp_path, cfg=None, name="out"):
    path = write_cfg(tmp_path, cfg or SIM_CFG)
    out = tmp_path / name
    assert main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    return out


class TestSimulate:
    def test_zero_duration_empty_traces(self, tmp_path):
        cfg = dict(SIM_CFG, duration_s=0.0)
        out = run_sim(tmp_path, cfg)
        assert read_trace(out / "trace_m0.csv") == []
        gt = json.loads((out / "ground_truth.json").read_text())
        assert gt["trace_records"] == {"m0": 0, "m1": 0}

    def test_deterministic_outputs(self, tmp_path):
        out1 = run_sim(tmp_path, name="a")
        out2 = run_sim(tmp_path, name="b")
        for name in ("trace_m0.csv", "trace_m1.csv", "conn_m0.csv",
                     "ground_truth.json", "geodb.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_row_counts_match_ground_truth(self, tmp_path):
        out = run_sim(tmp_path)
        gt = json.loads((out / "ground_truth.json").read_text())
        for name, count in gt["trace_records"].items():
            assert len(read_trace(out / f"trace_{name}.csv")) == count

    def test_manifest_lists_outputs_and_stable_digest(self, tmp_path):
        out1 = run_sim(tmp_path, name="a")
        out2 = run_sim(tmp_path, name="b")
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_digest"] == m2["config_digest"]
        produced = {p.name for p in out1.iterdir()} - {"manifest.json"}
        assert {Path(p).name for p in m1["outputs"]} == produced

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        path = write_cfg(tmp_path, dict(SIM_CFG, degree_range=[5, 3]))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "degree_range" in capsys.readouterr().err

    def test_country_listed_twice_exits_2(self, tmp_path, capsys):
        # the country plan is keyed by name, so a repeat would leave nodes without one
        path = write_cfg(tmp_path, dict(SIM_CFG, country_weights=[["US", 1.0], ["US", 1.0]]))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "country_weights lists a name more than once" in capsys.readouterr().err

    def test_unknown_broken_gateway_exits_2(self, tmp_path, capsys):
        # a name no group has would leave every gateway working
        path = write_cfg(tmp_path, dict(SIM_CFG, n_gateways=2, broken_gateway_names=["gw7.example"]))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
        assert "broken_gateway_names: no gateway group is named 'gw7.example'" in (
            capsys.readouterr().err)

    def test_missing_config_exits_2(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "x")]) == 2


class TestUnify:
    def test_single_trace_round_trip_with_flags(self, tmp_path):
        out = run_sim(tmp_path)
        dest = tmp_path / "uni"
        assert main(["unify", str(out / "trace_m0.csv"), "--out", str(dest)]) == 0
        got = read_trace(dest / "unified.csv")
        expect = mark_flags(unify({"m0": read_trace(out / "trace_m0.csv")}))
        assert got == list(expect.records)

    def test_two_monitor_unify_marks_duplicates(self, tmp_path):
        out = run_sim(tmp_path)
        dest = tmp_path / "uni2"
        assert main(["unify", str(out / "trace_m0.csv"), str(out / "trace_m1.csv"),
                     "--out", str(dest)]) == 0
        got = read_trace(dest / "unified.csv")
        assert any(r.is_duplicate for r in got)


GOLDEN_PEER = NodeId(0xAB)


def golden_trace(tmp_path) -> Path:
    # 3 dag-pb wants, 1 raw want, 1 raw cancel: shares 75% / 25%
    records = [
        TraceRecord(i * NS, "m0", GOLDEN_PEER, "/ip4/10.0.0.1/tcp/4001",
                    RequestType.WANT_HAVE, hash_content(bytes([i]), DAG_PROTOBUF))
        for i in range(3)
    ]
    records.append(
        TraceRecord(3 * NS, "m0", GOLDEN_PEER, "/ip4/10.0.0.1/tcp/4001",
                    RequestType.WANT_BLOCK, hash_content(b"r", RAW))
    )
    records.append(
        TraceRecord(4 * NS, "m0", GOLDEN_PEER, "/ip4/10.0.0.1/tcp/4001",
                    RequestType.CANCEL, hash_content(b"r", RAW))
    )
    path = tmp_path / "golden.csv"
    write_trace(records, path)
    return path


class TestAnalyze:
    def test_codec_share_matches_golden(self, tmp_path):
        trace = golden_trace(tmp_path)
        dest = tmp_path / "rep"
        assert main(["analyze", str(trace), "--report", "codec-share",
                     "--out", str(dest)]) == 0
        got = (dest / "codec_share.csv").read_text()
        assert got == (
            "codec,count,share_pct\n"
            "dag-pb,3,75.0000\n"
            "raw,1,25.0000\n"
        )

    def test_geo_share(self, tmp_path):
        trace = golden_trace(tmp_path)
        db = tmp_path / "geo.csv"
        db.write_text("cidr,country\n10.0.0.0/8,US\n")
        dest = tmp_path / "rep"
        assert main(["analyze", str(trace), "--report", "geo-share",
                     "--geo-db", str(db), "--out", str(dest)]) == 0
        text = (dest / "geo_share.csv").read_text()
        assert "US,4,100.0000" in text

    def test_geo_db_row_with_one_field_exits_2(self, tmp_path, capsys):
        trace = golden_trace(tmp_path)
        db = tmp_path / "geo.csv"
        db.write_text("cidr,country\n10.0.0.0/8\n")
        assert main(["analyze", str(trace), "--report", "geo-share",
                     "--geo-db", str(db), "--out", str(tmp_path / "rep")]) == 2
        assert "line 2" in capsys.readouterr().err

    @pytest.mark.parametrize("cidr", ["10.0.0.1/8", "not-a-net"])
    def test_geo_db_bad_cidr_exits_2_naming_its_line(self, tmp_path, capsys, cidr):
        trace = golden_trace(tmp_path)
        db = tmp_path / "geo.csv"
        db.write_text(f"cidr,country\n{cidr},DE\n")
        assert main(["analyze", str(trace), "--report", "geo-share",
                     "--geo-db", str(db), "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: geo db line 2: ")
        assert cidr in err

    @pytest.mark.parametrize("bucket_s", ["1e-10", "inf", "nan", "0", "-5"])
    def test_unusable_bucket_exits_2_naming_it(self, tmp_path, capsys, bucket_s):
        trace = golden_trace(tmp_path)
        assert main(["analyze", str(trace), "--report", "rate-timeseries",
                     "--bucket-s", bucket_s, "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err.startswith("error: bucket_s must be")

    @pytest.mark.parametrize("option, value, named", [
        ("--bucket-s", "nan", "error: bucket_s must be"),
        ("--gateway-map", None, "error: --gateway-map"),
    ], ids=["bucket", "gateway-map"])
    def test_bad_rate_option_fails_before_the_trace_is_read(self, tmp_path, capsys,
                                                            option, value, named):
        trace = tmp_path / "broken.csv"
        trace.write_text("not,a,trace\n")
        if value is None:
            value = str(tmp_path / "map.json")
            Path(value).write_text("[]")
        assert main(["analyze", str(trace), "--report", "rate-timeseries",
                     "--group-by", "origin_group", option, value,
                     "--out", str(tmp_path / "rep")]) == 2
        assert capsys.readouterr().err.startswith(named)

    def test_geo_share_requires_db(self, tmp_path):
        trace = golden_trace(tmp_path)
        assert main(["analyze", str(trace), "--report", "geo-share",
                     "--out", str(tmp_path / "rep")]) == 2

    @pytest.mark.parametrize("doc, named", [
        ([1, 2], "JSON object"),
        ({"zz": "g1"}, "'zz'"),
        ({"0x1f": "g1"}, "'0x1f'"),
        ({GOLDEN_PEER.hex: 3}, repr(GOLDEN_PEER.hex)),
        ({"1f": "a", "01F": "b"}, "key '01F' names the peer of key '1f'"),
    ], ids=["list", "non-hex-key", "0x-key", "non-string-group", "same-peer-two-spellings"])
    def test_bad_gateway_map_exits_2_naming_it(self, tmp_path, capsys, doc, named):
        trace = golden_trace(tmp_path)
        gateway_map = tmp_path / "map.json"
        gateway_map.write_text(json.dumps(doc))
        assert main(["analyze", str(trace), "--report", "rate-timeseries",
                     "--group-by", "origin_group", "--gateway-map", str(gateway_map),
                     "--out", str(tmp_path / "rep")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --gateway-map")
        assert named in err

    def test_gateway_map_groups_rates(self, tmp_path):
        trace = golden_trace(tmp_path)
        gateway_map = tmp_path / "map.json"
        gateway_map.write_text(json.dumps({GOLDEN_PEER.hex: "g1"}))
        dest = tmp_path / "rep"
        assert main(["analyze", str(trace), "--report", "rate-timeseries",
                     "--group-by", "origin_group", "--gateway-map", str(gateway_map),
                     "--out", str(dest)]) == 0
        assert ",g1," in (dest / "rate_timeseries.csv").read_text()

    def test_popularity_and_timeseries(self, tmp_path):
        out = run_sim(tmp_path)
        dest = tmp_path / "pop"
        assert main(["analyze", str(out / "trace_m0.csv"), str(out / "trace_m1.csv"),
                     "--report", "popularity", "--out", str(dest)]) == 0
        assert (dest / "popularity.csv").exists()
        assert (dest / "urp_ecdf.csv").exists()
        dest2 = tmp_path / "rates"
        assert main(["analyze", str(out / "trace_m0.csv"), "--report", "rate-timeseries",
                     "--bucket-s", "5", "--out", str(dest2)]) == 0
        lines = (dest2 / "rate_timeseries.csv").read_text().strip().splitlines()
        assert lines[0] == "bucket_start_ns,group,rate_per_s"
        assert len(lines) > 1


class TestEstimate:
    def test_coupon_disjoint_exits_2(self, tmp_path, capsys):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"m": 1400, "r": 2, "w": 700}))
        code = main(["estimate", "--method", "coupon", "--stats", str(stats),
                     "--out", str(tmp_path / "est")])
        assert code == 2
        assert "diverges" in capsys.readouterr().err

    def test_coupon_from_stats(self, tmp_path):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"m": 1351, "r": 2, "w": 700}))
        dest = tmp_path / "est"
        assert main(["estimate", "--method", "coupon", "--stats", str(stats),
                     "--out", str(dest)]) == 0
        doc = json.loads((dest / "estimate.json").read_text())
        assert doc["n_hat"] == pytest.approx(10000, rel=1e-5)

    def test_two_monitor_from_conn_events(self, tmp_path):
        out = run_sim(tmp_path)
        dest = tmp_path / "est"
        code = main([
            "estimate", "--method", "two-monitor",
            "--conn-events", str(out / "conn_m0.csv"), str(out / "conn_m1.csv"),
            "--window-start-s", "0", "--window-end-s", "25",
            "--out", str(dest),
        ])
        assert code == 0
        doc = json.loads((dest / "estimate.json").read_text())
        # full coverage: both monitors see every regular node
        assert doc["n_hat"] == pytest.approx(13, abs=0.01)

    def test_double_connect_exits_2_naming_monitor_and_peer(self, tmp_path, capsys):
        peer = NodeId(0x5EED)
        conn = tmp_path / "conn_watch.csv"
        write_conn_events([ConnEvent(t * NS, "watch", peer, ConnEventKind.CONNECT)
                           for t in (1, 2)], conn)
        code = main(["estimate", "--method", "coupon", "--conn-events", str(conn),
                     "--window-start-s", "0", "--window-end-s", "10",
                     "--out", str(tmp_path / "est")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: double connect")
        assert "watch" in err and peer.hex in err

    def test_dht_min_from_samples(self, tmp_path):
        import math
        samples = tmp_path / "xs.json"
        samples.write_text(json.dumps([1 - math.exp(-1 / 100)] * 5))
        dest = tmp_path / "est"
        assert main(["estimate", "--method", "dht-min", "--samples", str(samples),
                     "--out", str(dest)]) == 0
        doc = json.loads((dest / "estimate.json").read_text())
        assert doc["n_hat"] == pytest.approx(100)

    @pytest.mark.parametrize("doc, named", [({"a": 0.1}, "JSON list"), ([0.1, "x"], "'x'")],
                             ids=["object", "string-item"])
    def test_bad_samples_exit_2_naming_the_flag(self, tmp_path, capsys, doc, named):
        samples = tmp_path / "xs.json"
        samples.write_text(json.dumps(doc))
        assert main(["estimate", "--method", "dht-min", "--samples", str(samples),
                     "--out", str(tmp_path / "est")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --samples")
        assert named in err

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["estimate", "--method", "coupon",
                     "--out", str(tmp_path / "e")]) == 2

    @pytest.mark.parametrize("method, doc, named", [
        ("coupon", [1351, 2, 700], "JSON object"),
        ("coupon", {"r": 2, "w": 700}, "'m'"),
        ("coupon", {"m": "1351", "r": 2, "w": 700}, "'m'"),
        ("coupon", {"m": 1351, "r": None, "w": 700}, "'r'"),
        ("two-monitor", {"sizes": {"m0": 5, "m1": 6}}, "'intersections'"),
        ("two-monitor", {"sizes": {"m0": 5, "m1": 6}, "intersections": {}}, "'m0|m1'"),
        ("two-monitor", {"sizes": {"m0": 5, "m1": 6}, "intersections": {"x|y": 3}}, "'m0|m1'"),
        ("two-monitor", {"sizes": {"m0": 5, "m1": 6}, "intersections": {"m0|m1": "3"}},
         "'intersections'"),
        ("two-monitor", {"sizes": [5, 6], "intersections": {"m0|m1": 3}}, "'sizes'"),
        ("coupon", {"m": math.nan, "r": 2, "w": 700}, "'m'"),
        ("coupon", {"m": 1351, "r": 2, "w": math.inf}, "'w'"),
        ("two-monitor", {"sizes": {"m0": math.nan, "m1": 6}, "intersections": {"m0|m1": 3}},
         "'sizes'"),
    ], ids=["list", "no-m", "string-m", "null-r", "no-intersections", "empty-intersections",
            "other-pair", "string-intersection", "list-sizes", "nan-m", "inf-w", "nan-size"])
    def test_bad_stats_exit_2_naming_the_key(self, tmp_path, capsys, method, doc, named):
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps(doc))
        assert main(["estimate", "--method", method, "--stats", str(stats),
                     "--out", str(tmp_path / "e")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --stats")
        assert named in err

    def test_internal_key_error_exits_1(self, tmp_path, capsys, monkeypatch):
        from swarmwatch import estimators

        def broken(m, r, w):
            raise KeyError("internal")

        monkeypatch.setattr(estimators, "solve_coupon_mle", broken)
        stats = tmp_path / "stats.json"
        stats.write_text(json.dumps({"m": 1351, "r": 2, "w": 700}))
        assert main(["estimate", "--method", "coupon", "--stats", str(stats),
                     "--out", str(tmp_path / "e")]) == 1
        assert "internal error: KeyError" in capsys.readouterr().err


class TestProbesCli:
    def test_probe_gateways(self, tmp_path):
        cfg = {
            "n_dht_servers": 5,
            "n_gateways": 3,
            "n_monitors": 2,
            "degree_range": [2, 4],
            "catalog_size": 10,
            "seed": 5,
            "gateway_group_sizes": [2, 1],
            "duration_s": 0.0,
        }
        path = write_cfg(tmp_path, cfg)
        dest = tmp_path / "probe"
        assert main(["probe-gateways", "--config", str(path), "--out", str(dest)]) == 0
        rows = (dest / "gateways.csv").read_text().strip().splitlines()
        assert rows[0] == "dns_name,node_ids,probes_sent,http_ok,http_failed"
        assert len(rows) == 3
        first = rows[1].split(",")
        assert first[0] == "gw0.example"
        assert len(first[1].split("|")) == 2
        assert (dest / "crossref.csv").exists()

    def test_idw_tnw_cli(self, tmp_path):
        out = run_sim(tmp_path)
        records = read_trace(out / "trace_m0.csv")
        assert records
        target = records[0].peer
        cid = records[0].cid
        dest = tmp_path / "idw"
        assert main(["idw", str(out / "trace_m0.csv"), "--cid", str(cid),
                     "--out", str(dest)]) == 0
        body = (dest / "idw.csv").read_text()
        assert target.hex in body
        dest2 = tmp_path / "tnw"
        assert main(["tnw", str(out / "trace_m0.csv"), "--peer", target.hex,
                     "--out", str(dest2)]) == 0
        assert str(cid) in (dest2 / "tnw.csv").read_text()

    def test_tpi_cli(self, tmp_path):
        cfg = {
            "n_dht_servers": 4,
            "n_clients": 2,
            "n_monitors": 1,
            "degree_range": [2, 3],
            "catalog_size": 6,
            "request_rate_per_node": 1.0,
            "duration_s": 20.0,
            "seed": 9,
        }
        out = run_sim(tmp_path, cfg)
        records = read_trace(out / "trace_m0.csv")
        fetched = records[0]
        dest = tmp_path / "tpi"
        code = main(["tpi", "--config", str(write_cfg(tmp_path, cfg)),
                     "--target", fetched.peer.hex, "--cid", str(fetched.cid),
                     "--out", str(dest)])
        assert code == 0
        doc = json.loads((dest / "tpi.json").read_text())
        assert doc["target"] == fetched.peer.hex
        assert isinstance(doc["cached"], bool)

    def test_tpi_unknown_target_exits_2(self, tmp_path):
        cfg = dict(SIM_CFG, duration_s=0.0)
        path = write_cfg(tmp_path, cfg)
        assert main(["tpi", "--config", str(path), "--target", "ab" * 32,
                     "--cid", "raw:" + "00" * 32, "--out", str(tmp_path / "t")]) == 2


class TestCliContract:
    def test_help_on_every_subcommand(self, capsys):
        for name in ("simulate", "unify", "analyze", "estimate",
                     "probe-gateways", "idw", "tnw", "tpi"):
            assert main([name, "--help"]) == 0
            assert "--" in capsys.readouterr().out

    def test_bad_subcommand_exits_2(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_version(self, capsys):
        assert main(["--version"]) == 0
        assert "swarmwatch" in capsys.readouterr().out


CONFIG_VERBS = {
    "simulate": [],
    "probe-gateways": [],
    "tpi": ["--target", "ab" * 32, "--cid", "raw:" + "00" * 32],
}
BAD_FIELDS = {
    "string_count": ({"n_dht_servers": "5"}, "n_dht_servers"),
    "string_duration": ({"duration_s": "1.0"}, "duration_s"),
    "churn_missing_key": ({"churn": {"mean_session_s": 60.0}}, "churn.mean_offline_s"),
}


@pytest.mark.parametrize("bad", sorted(BAD_FIELDS))
@pytest.mark.parametrize("verb", sorted(CONFIG_VERBS))
def test_bad_config_field_exits_2_naming_it(tmp_path, capsys, verb, bad):
    patch, field_name = BAD_FIELDS[bad]
    path = write_cfg(tmp_path, dict(SIM_CFG, **patch))
    argv = [verb, "--config", str(path), "--out", str(tmp_path / "x"), *CONFIG_VERBS[verb]]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field_name in err


def test_config_must_be_an_object(tmp_path, capsys):
    path = tmp_path / "sim.json"
    path.write_text("[1, 2]")
    assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "x")]) == 2
    assert "JSON object" in capsys.readouterr().err


# ----------------------------------------------------------------------
# exit codes: the error's type decides


CID_TEXT = "raw:" + "00" * 32


def _raw_cfg(tmp_path, fields: str) -> str:
    """A config file whose last fields are ``fields``, raw JSON that may
    hold NaN or Infinity; a repeated key overrides the earlier one."""
    path = tmp_path / "raw.json"
    path.write_text(json.dumps(dict(SIM_CFG, duration_s=0.0))[:-1] + ", " + fields + "}")
    return str(path)


def _stats(tmp_path, method: str, doc: dict) -> list[str]:
    path = tmp_path / "stats.json"
    path.write_text(json.dumps(doc))
    return ["estimate", "--method", method, "--stats", str(path)]


def _one_record_trace(tmp_path, timestamp_ns: int | str = 0, flags: int = 0) -> str:
    """A one-record trace file with the given timestamp and flags; a
    timestamp given as text is written as it is."""
    path = tmp_path / "one.csv"
    write_trace([TraceRecord(timestamp_ns, "m0", GOLDEN_PEER, "/ip4/10.0.0.1/tcp/4001",
                             RequestType.WANT_HAVE, hash_content(b"one", RAW), flags)], path)
    return str(path)


def _text_file(tmp_path, text: str) -> str:
    path = tmp_path / "text.json"
    path.write_text(text)
    return str(path)


def _estimate(p, *window):
    return ["estimate", "--method", "two-monitor", "--conn-events", p.conn, *window,
            "--out", p.out]


# case -> (argv built from the input paths in ``p``, text the message names)
INPUT_EDGES = {
    "bad-cid": (lambda p: ["idw", p.trace, "--cid", "raw:zz", "--out", p.out], "--cid"),
    "bad-peer": (lambda p: ["tnw", p.trace, "--peer", "xyz", "--out", p.out], "--peer"),
    "bad-target": (lambda p: ["tpi", "--config", p.cfg, "--target", "xyz", "--cid", CID_TEXT,
                              "--out", p.out], "--target"),
    "config-json": (lambda p: ["simulate", "--config", p.bad_json, "--out", p.out], "--config"),
    "gateway-map-json": (lambda p: ["analyze", p.trace, "--report", "rate-timeseries",
                                    "--group-by", "origin_group", "--gateway-map", p.bad_json,
                                    "--out", p.out], "--gateway-map"),
    "gateway-map-repeated-key": (lambda p: [
        "analyze", p.trace, "--report", "rate-timeseries", "--group-by", "origin_group",
        "--gateway-map", _text_file(p.tmp, '{"1f": "a", "2f": "b", "1f": "c"}'), "--out", p.out],
        "key '1f' is repeated"),
    # a file option the report does not read exits 2 before any trace is read
    "geo-db-with-popularity": (lambda p: [
        "analyze", p.broken, "--report", "popularity", "--geo-db", p.geo, "--out", p.out],
        "--geo-db is read only by --report geo-share, not by --report popularity"),
    "gateway-map-with-codec-share": (lambda p: [
        "analyze", p.broken, "--report", "codec-share", "--gateway-map", p.map, "--out", p.out],
        "--gateway-map is read only by --report rate-timeseries --group-by origin_group, "
        "not by --report codec-share"),
    "gateway-map-with-request-type-rates": (lambda p: [
        "analyze", p.broken, "--report", "rate-timeseries", "--group-by", "request_type",
        "--gateway-map", p.map, "--out", p.out],
        "not by --report rate-timeseries --group-by request_type"),
    "stats-json": (lambda p: ["estimate", "--method", "coupon", "--stats", p.bad_json,
                              "--out", p.out], "--stats"),
    "stats-and-conn-events": (lambda p: [*_stats(p.tmp, "coupon", {"m": 5, "r": 2, "w": 3}),
                                         "--conn-events", p.conn, "--out", p.out],
                              "not --stats and --conn-events"),
    "stats-and-window-start": (lambda p: [*_stats(p.tmp, "coupon", {"m": 5, "r": 2, "w": 3}),
                                          "--window-start-s", "0", "--out", p.out],
                               "not --stats and --window-start-s"),
    "stats-and-window-end": (lambda p: [*_stats(p.tmp, "coupon", {"m": 5, "r": 2, "w": 3}),
                                        "--window-end-s", "5", "--out", p.out],
                             "not --stats and --window-end-s"),
    "samples-json": (lambda p: ["estimate", "--method", "dht-min", "--samples", p.bad_json,
                                "--out", p.out], "--samples"),
    "config-directory": (lambda p: ["simulate", "--config", p.dir, "--out", p.out], "--config"),
    "window-end-nan": (lambda p: _estimate(p, "--window-start-s", "0", "--window-end-s", "nan"),
                       "--window-end-s"),
    "window-end-inf": (lambda p: _estimate(p, "--window-start-s", "0", "--window-end-s", "inf"),
                       "--window-end-s"),
    "window-start-minus-inf": (lambda p: _estimate(p, "--window-start-s=-inf",
                                                   "--window-end-s", "10"), "--window-start-s"),
    "window-end-before-start": (lambda p: _estimate(p, "--window-start-s", "10",
                                                    "--window-end-s", "5"), "--window-end-s"),
    "window-end-at-start": (lambda p: _estimate(p, "--window-start-s", "5",
                                                "--window-end-s", "5"), "--window-end-s"),
    "dup-window-nan": (lambda p: ["unify", p.trace, "--dup-window-s", "nan", "--out", p.out],
                       "window_dup_s"),
    "rebroadcast-window-inf": (lambda p: ["idw", p.trace, "--cid", CID_TEXT,
                                          "--rebroadcast-window-s", "inf", "--out", p.out],
                               "window_rebroadcast_s"),
    "bootstraps-negative": (lambda p: ["analyze", p.trace, "--report", "power-law",
                                       "--bootstraps", "-3", "--out", p.out], "bootstraps"),
    "config-duration-negative": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"duration_s": -3'), "--out", p.out], "duration_s must be non-negative"),
    "config-latency-reversed": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"latency_range_s": [0.5, 0.1]'), "--out", p.out], "latency_range_s"),
    "config-codec-weights-zero": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"codec_weights": [["raw", 0.0]]'), "--out", p.out], "codec_weights"),
    "config-country-weights-zero": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"country_weights": [["US", 0.0]]'), "--out", p.out], "country_weights"),
    "stats-fractional-r": (lambda p: [*_stats(p.tmp, "coupon", {"m": 5, "r": 2.5, "w": 3}),
                                      "--out", p.out], "r must be a whole number"),
    "stats-fractional-size": (lambda p: [*_stats(p.tmp, "two-monitor", {
        "sizes": {"a": 10.5, "b": 8}, "intersections": {"a|b": 4}}), "--out", p.out],
        "p1 must be a whole number"),
    "config-latency-inf": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"latency_range_s": [0.01, Infinity]'), "--out", p.out], "latency_range_s[1]"),
    "config-gateway-rate-inf": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"n_gateways": 1, "gateway_http_rate": Infinity'), "--out", p.out],
        "gateway_http_rate"),
    "config-churn-nan": (lambda p: ["simulate", "--config", _raw_cfg(
        p.tmp, '"churn": {"mean_session_s": 60, "mean_offline_s": NaN}'), "--out", p.out],
        "churn.mean_offline_s"),
    "same-trace-twice": (lambda p: ["unify", p.trace, p.trace, "--out", p.out], "not sorted"),
    "timestamp-past-int64": (lambda p: ["analyze", _one_record_trace(p.tmp, timestamp_ns=2**63),
                                        "--report", "popularity", "--out", p.out],
                             "timestamp_ns"),
    "unify-timestamp-past-int64": (lambda p: ["unify", _one_record_trace(p.tmp, timestamp_ns=2**63),
                                              "--out", p.out],
                                   "a record's timestamp_ns does not fit in int64"),
    "timestamp-underscore": (lambda p: ["unify", _one_record_trace(p.tmp, timestamp_ns="1_000"),
                                        "--out", p.out], "timestamp_ns"),
    "trace-flags-negative": (lambda p: ["unify", _one_record_trace(p.tmp, flags=-1),
                                        "--out", p.out], "flags"),
    "peer-0x": (lambda p: ["tnw", p.trace, "--peer", "0x1f", "--out", p.out], "--peer"),
    "cid-spaced-digest": (lambda p: ["idw", p.trace, "--cid", "raw:" + " ".join(["00"] * 32),
                                     "--out", p.out], "--cid"),
}


@pytest.mark.parametrize("case", sorted(INPUT_EDGES))
def test_input_edge_exits_2_naming_its_flag_or_field(tmp_path, capsys, case):
    conn = tmp_path / "conn.csv"
    write_conn_events([ConnEvent(NS, "m0", GOLDEN_PEER, ConnEventKind.CONNECT)], conn)
    files = {"bad.json": "{not json", "broken.csv": "not,a,trace\n",
             "geo.csv": "cidr,country\n10.0.0.0/8,US\n", "map.json": '{"ab": "g1"}'}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    paths = SimpleNamespace(
        tmp=tmp_path, trace=str(golden_trace(tmp_path)), conn=str(conn), dir=str(tmp_path),
        bad_json=str(tmp_path / "bad.json"), broken=str(tmp_path / "broken.csv"),
        geo=str(tmp_path / "geo.csv"), map=str(tmp_path / "map.json"),
        cfg=str(write_cfg(tmp_path, SIM_CFG)), out=str(tmp_path / "out"),
    )
    argv, named = INPUT_EDGES[case]
    assert main(argv(paths)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert named in err
    # the output directory is made for the first output file, so a run
    # that fails on its input leaves none
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("error", [ValueError, OverflowError])
def test_internal_value_and_overflow_errors_exit_1(tmp_path, capsys, monkeypatch, error):
    def broken(*args, **kwargs):
        raise error("internal")

    monkeypatch.setattr(pipeline, "mark_flags", broken)
    assert main(["unify", str(golden_trace(tmp_path)), "--out", str(tmp_path / "u")]) == 1
    assert capsys.readouterr().err.startswith(f"internal error: {error.__name__}: internal")


def test_input_error_is_a_swarmwatch_error_and_a_value_error():
    assert issubclass(InputError, SwarmwatchError)
    assert issubclass(InputError, ValueError)
    assert issubclass(ConnEventOrderError, InputError)


def _digest_inputs(tmp_path) -> SimpleNamespace:
    """Two input files of each kind an option names, differing in content."""
    def write(name, doc):
        (tmp_path / name).write_text(json.dumps(doc))
        return str(tmp_path / name)

    # 60 cids, the i-th wanted by 1 + 60 // (i + 1) peers: enough scores for a power-law fit
    popular = [(i, peer) for i in range(60) for peer in range(1, 2 + 60 // (i + 1))]
    write_trace([TraceRecord(k * NS, "m0", NodeId(peer), "/ip4/10.0.0.1/tcp/4001",
                             RequestType.WANT_HAVE, hash_content(bytes([i]), RAW))
                 for k, (i, peer) in enumerate(popular)], tmp_path / "popular.csv")
    conns = []
    for name, peers in (("conn.csv", (1, 2)), ("conn2.csv", (1, 2, 3))):
        conns.append(str(tmp_path / name))
        write_conn_events([ConnEvent(0, m, NodeId(p), ConnEventKind.CONNECT)
                           for m in ("m0", "m1") for p in peers], conns[-1])
    for name, country in (("geo.csv", "US"), ("geo2.csv", "DE")):
        (tmp_path / name).write_text(f"cidr,country\n10.0.0.0/8,{country}\n")
    two_monitor = {"sizes": {"m0": 5, "m1": 6}, "intersections": {"m0|m1": 3}}
    return SimpleNamespace(
        trace=str(golden_trace(tmp_path)), popular=str(tmp_path / "popular.csv"),
        cfg=write("sim.json", dict(SIM_CFG, duration_s=0.0)),
        cfg2=write("sim2.json", dict(SIM_CFG, duration_s=0.0, seed=8)),
        geo=str(tmp_path / "geo.csv"), geo2=str(tmp_path / "geo2.csv"),
        map=write("map.json", {GOLDEN_PEER.hex: "g1"}),
        map2=write("map2.json", {GOLDEN_PEER.hex: "g2"}),
        stats=write("stats.json", {"m": 1351, "r": 2, "w": 700, **two_monitor}),
        stats2=write("stats2.json", {"m": 1300, "r": 2, "w": 700, **two_monitor}),
        conn=conns[0], conn2=conns[1],
        samples=write("xs.json", [0.01] * 5), samples2=write("xs2.json", [0.02] * 5),
    )


# node ids added to every tpi world, whatever its config and seed
TPI_TARGETS = ("a1", "a2")
CID_TEXT_2 = "raw:" + "11" * 32
_RATES = {"--report": "rate-timeseries"}
_FIT = {"--report": "power-law", "--bootstraps": "2"}
_CONN_WINDOW = {"--method": "two-monitor", "--window-start-s": "0", "--window-end-s": "10"}

# (verb, option) -> the other options of two runs and that option's two
# values, from the files in ``p``; a list value is several arguments
DIGEST_OPTIONS = {
    ("simulate", "--config"): lambda p: ({}, p.cfg, p.cfg2),
    ("simulate", "--seed"): lambda p: ({"--config": p.cfg}, "1", "2"),
    ("simulate", "--duration-s"): lambda p: ({"--config": p.cfg}, "0", "1"),
    ("probe-gateways", "--config"): lambda p: ({}, p.cfg, p.cfg2),
    ("probe-gateways", "--seed"): lambda p: ({"--config": p.cfg}, "1", "2"),
    ("tpi", "--config"): lambda p: ({"--target": TPI_TARGETS[0], "--cid": CID_TEXT},
                                    p.cfg, p.cfg2),
    ("tpi", "--seed"): lambda p: (
        {"--config": p.cfg, "--target": TPI_TARGETS[0], "--cid": CID_TEXT}, "1", "2"),
    ("tpi", "--target"): lambda p: ({"--config": p.cfg, "--cid": CID_TEXT}, *TPI_TARGETS),
    ("tpi", "--cid"): lambda p: ({"--config": p.cfg, "--target": TPI_TARGETS[0]},
                                 CID_TEXT, CID_TEXT_2),
    ("analyze", "--report"): lambda p: ({"traces": [p.trace]}, "codec-share", "popularity"),
    ("analyze", "--geo-db"): lambda p: ({"traces": [p.trace], "--report": "geo-share"},
                                        p.geo, p.geo2),
    ("analyze", "--gateway-map"): lambda p: (
        {"traces": [p.trace], **_RATES, "--group-by": "origin_group"}, p.map, p.map2),
    ("analyze", "--bucket-s"): lambda p: ({"traces": [p.trace], **_RATES}, "5", "10"),
    ("analyze", "--group-by"): lambda p: ({"traces": [p.trace], **_RATES},
                                          "request_type", "origin_group"),
    ("analyze", "--score"): lambda p: ({"traces": [p.popular], **_FIT}, "rrp", "urp"),
    ("analyze", "--bootstraps"): lambda p: ({"traces": [p.popular], **_FIT}, "1", "2"),
    ("analyze", "--seed"): lambda p: ({"traces": [p.popular], **_FIT}, "0", "1"),
    ("estimate", "--method"): lambda p: ({"--stats": p.stats}, "coupon", "two-monitor"),
    ("estimate", "--stats"): lambda p: ({"--method": "coupon"}, p.stats, p.stats2),
    ("estimate", "--conn-events"): lambda p: (_CONN_WINDOW, [p.conn], [p.conn2]),
    ("estimate", "--window-start-s"): lambda p: (
        {**_CONN_WINDOW, "--conn-events": [p.conn]}, "0", "1"),
    ("estimate", "--window-end-s"): lambda p: (
        {**_CONN_WINDOW, "--conn-events": [p.conn]}, "10", "20"),
    ("estimate", "--samples"): lambda p: ({"--method": "dht-min"}, p.samples, p.samples2),
    ("idw", "--cid"): lambda p: ({"traces": [p.trace]}, CID_TEXT, CID_TEXT_2),
    ("tnw", "--peer"): lambda p: ({"traces": [p.trace]}, GOLDEN_PEER.hex, "a1"),
}
_QUERY = {"unify": {}, "analyze": {"--report": "popularity"}, "idw": {"--cid": CID_TEXT},
          "tnw": {"--peer": GOLDEN_PEER.hex}}
for _verb, _query in _QUERY.items():  # the options every trace verb shares
    DIGEST_OPTIONS[_verb, "traces"] = lambda p, q=_query: (q, [p.trace], [p.popular])
    for _flag in ("--dup-window-s", "--rebroadcast-window-s"):
        DIGEST_OPTIONS[_verb, _flag] = lambda p, q=_query: ({"traces": [p.trace], **q}, "5", "6")


def _declared_options() -> list[tuple[str, str]]:
    """(verb, option) for every option ``build_parser`` declares but
    --help and --out; a positional goes by its name."""
    sub = build_parser()._subparsers._group_actions[0]
    return [(verb, (action.option_strings or [action.dest])[-1])
            for verb, parser in sub.choices.items() for action in parser._actions
            if not {"--help", "--out"} & set(action.option_strings)]


# the options that name input files
FILE_OPTIONS = ("traces", "--config", "--geo-db", "--gateway-map", "--stats", "--conn-events",
                "--samples")


def _config_digest(verb, options: dict, out) -> str:
    """Run ``verb`` with ``options`` into ``out``; check that its manifest
    lists the files in ``out`` as its outputs and digests exactly the files
    its options name, and return its config digest."""
    argv, given = [verb], set()
    for option, value in options.items():
        values = value if isinstance(value, list) else [value]
        argv += values if option == "traces" else [option, *values]
        if option in FILE_OPTIONS:
            given.update(values)
    assert main([*argv, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["outputs"] == sorted(str(p) for p in out.iterdir()
                                         if p.name != "manifest.json")
    assert set(manifest["input_digests"]) == given
    return manifest["config_digest"]


@pytest.mark.parametrize("verb, option", _declared_options(),
                         ids=[" ".join(pair) for pair in _declared_options()])
def test_every_option_but_out_is_in_the_config_digest(tmp_path, monkeypatch, verb, option):
    if verb == "tpi":
        def build_network(cfg, build=netsim.build_network):
            net = build(cfg)
            for target in TPI_TARGETS:
                net.add_node(netsim.NodeKind.DHT_SERVER, node_id=NodeId.from_hex(target))
            return net
        monkeypatch.setattr(netsim, "build_network", build_network)
    others, first, second = DIGEST_OPTIONS[verb, option](_digest_inputs(tmp_path))
    digests = [_config_digest(verb, {**others, option: value}, tmp_path / f"out{i}")
               for i, value in enumerate([first, first, second])]
    assert digests[0] == digests[1] != digests[2]  # the first two differ only in --out


def test_digest_table_rows_are_the_declared_options():
    assert set(DIGEST_OPTIONS) == set(_declared_options())
