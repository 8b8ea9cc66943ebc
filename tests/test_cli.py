import json
from pathlib import Path

import pytest

from swarmwatch.cli import main
from swarmwatch.core import (
    RAW,
    DAG_PROTOBUF,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
    read_trace,
    write_trace,
)
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

    def test_geo_share_requires_db(self, tmp_path):
        trace = golden_trace(tmp_path)
        assert main(["analyze", str(trace), "--report", "geo-share",
                     "--out", str(tmp_path / "rep")]) == 2

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

    def test_dht_min_from_samples(self, tmp_path):
        import math
        samples = tmp_path / "xs.json"
        samples.write_text(json.dumps([1 - math.exp(-1 / 100)] * 5))
        dest = tmp_path / "est"
        assert main(["estimate", "--method", "dht-min", "--samples", str(samples),
                     "--out", str(dest)]) == 0
        doc = json.loads((dest / "estimate.json").read_text())
        assert doc["n_hat"] == pytest.approx(100)

    def test_missing_inputs_exit_2(self, tmp_path):
        assert main(["estimate", "--method", "coupon",
                     "--out", str(tmp_path / "e")]) == 2


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
