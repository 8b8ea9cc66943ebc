"""Golden digests of the simulate verb on the README reference config, of
the analysis verbs run on the traces it writes, of the estimate verb run
on its connection logs, and of a small churn world with gateways and the
message log on.

The determinism tests compare two runs of the same build, so they cannot
see a change in output. These digests pin the bytes themselves: a change
that alters them changes the program's behaviour and must say so.
"""

import hashlib
import json

import pytest

from swarmwatch.cli import main
from swarmwatch.core import ConnEventKind, write_conn_events, write_trace
from swarmwatch.netsim import build_network, config_from_dict, run

# the reference config from README.md, run for 120 s instead of 600 s
REFERENCE_CONFIG = {
    "n_dht_servers": 40,
    "n_clients": 25,
    "n_gateways": 2,
    "n_monitors": 2,
    "degree_range": [8, 14],
    "catalog_size": 500,
    "popularity_sampler": {"kind": "zipf", "exponent": 1.1},
    "request_rate_per_node": 0.2,
    "unresolvable_fraction": 0.3,
    "gateway_cache_hit_ratio": 0.97,
    "gateway_http_rate": 0.5,
    "duration_s": 600.0,
    "seed": 42,
}

GOLDEN_SHA256 = {
    "conn_m0.csv": "42e20f4f8bb921f58ea630502225454a02c6a2efb65933981e1357490ba6599a",
    "conn_m1.csv": "2ff22ba6d724ff6dfcee73f6c173fd11e78e56ab593b2ed7a5ff261b11a458bc",
    "geodb.csv": "8a7ed60dedc65f4c4f9998c22eb41e416b3ebfe8c42b5b6d7953b13d3d49e02f",
    "trace_m0.csv": "cd11ee5586b870c793c163814c694d9fcd806c4853745a20a2464fbeba9c9971",
    "trace_m1.csv": "5d91774a6e6b1a2adbf042ca68a93e62aec969933a40d8b7e33b7f9c5b5c2b53",
    "ground_truth.json": "ffee0c1f8416726447fa0f1d1ac5753f2a82b6f635ee9467faba0f3a07cb7c1b",
}
GOLDEN_CONFIG_DIGEST = "8a0dcb050f19eddc62ca2c161065d79bc3e865cd853f5ea2d32d0d4c7843ccb9"


# the most-requested cid of the golden world (first row of popularity.csv)
# and the peer with the most trace records
TOP_CID = "dag-pb:5e745aaf335364081e8c9a99bf45be62562ff01df8bafcc9441a7cdd4c813c1c"
TOP_PEER = "42c18a62ef48e8d550fd9d3f85d5169590b2b633956b8c0ca8499b926b5252e3"

# analysis verb arguments (after the two trace files) -> digests of its outputs
ANALYSIS_GOLDEN = {
    "unify": (
        ["unify"],
        {"unified.csv": "6e5398a6138465ef425f3a4a666a2e9fec61c500a931942c5496b6398be693bc"},
    ),
    "popularity": (
        ["analyze", "--report", "popularity"],
        {
            "popularity.csv": "80e24e5cd765edd2c6dbc0bcafe1ae3760db10c4182e29aba6b5762779db90e5",
            "rrp_ecdf.csv": "cb41b2ad6fa78c1349a5a880e8ea8112a0c731612c4e13787d6741b13f398938",
            "urp_ecdf.csv": "cb41b2ad6fa78c1349a5a880e8ea8112a0c731612c4e13787d6741b13f398938",
        },
    ),
    "codec-share": (
        ["analyze", "--report", "codec-share"],
        {"codec_share.csv": "ab21fce0e6a152895afb24058832cc799c8795678acff4f956e5684e9227bb63"},
    ),
    "geo-share": (
        ["analyze", "--report", "geo-share", "--geo-db", "{world}/geodb.csv"],
        {"geo_share.csv": "8ecfbaa651e821700fcce8ae1bcac13ff24341c553f3b2249ee84a15eef28154"},
    ),
    "rate-timeseries": (
        ["analyze", "--report", "rate-timeseries", "--bucket-s", "10"],
        {"rate_timeseries.csv": "3e0b64e2a69b17c17e34542e62df0198b87ff4370ad578b8121f898eaf1625b5"},
    ),
    "power-law": (
        ["analyze", "--report", "power-law", "--bootstraps", "20"],
        {"power_law.json": "61c422d6affd36d746005e5b3354dd3857d4d1cd9f7879f08a615d761f5c360b"},
    ),
    "idw": (
        ["idw", "--cid", TOP_CID],
        {"idw.csv": "d815efb78ca78726a2893242653f0755f4ceac29bd9a6a0757862bf137b1fb3a"},
    ),
    "tnw": (
        ["tnw", "--peer", TOP_PEER],
        {"tnw.csv": "142d2c0bdaff72f278eab50f322418e83407ed30541198b9f390d3bb203be9eb"},
    ),
}

# estimate method -> digest of estimate.json from the golden world's
# connection logs over its first 120 s
ESTIMATE_GOLDEN = {
    "two-monitor": "b9bd6ffc93e4b817d14381ebdef719107b318da10b8c7ed567c3a33748219516",
    "coupon": "0918063e151827e964a13367bf5a8526e011f3046352bfb78a9e1a00b4cafdfe",
}

# A small world with churn, gateway traffic through the overlay and the
# message log on. The reference world has no churn, so it never disconnects
# a pair, reconnects one (reusing the pair's latency) or sends to a peer
# that has left. Under this seed, nine messages go to peers that have left,
# and five of those arrive after the pair has reconnected.
CHURN_CONFIG = {
    "n_dht_servers": 24,
    "n_clients": 12,
    "n_gateways": 3,
    "gateway_group_sizes": [2, 1],
    "n_monitors": 2,
    "degree_range": [4, 8],
    "catalog_size": 150,
    "catalog_replication": 3,
    "popularity_sampler": {"kind": "zipf", "exponent": 1.1},
    "request_rate_per_node": 0.3,
    "unresolvable_fraction": 0.3,
    "gateway_cache_hit_ratio": 0.0,
    "gateway_http_rate": 0.5,
    "churn": {"mean_session_s": 8.0, "mean_offline_s": 4.0},
    "latency_range_s": [0.05, 0.9],
    "duration_s": 60.0,
    "seed": 7,
    "record_messages": True,
}

CHURN_GOLDEN_SHA256 = {
    "messages": "b466c48d53111ceaddd2750efb0e694fae3877940eab58d70a5f155a966c0fec",
    "summary": "25825c7fd0831bba0946332799be0e4046bf3b05108c5068935bbae32bd43e17",
    "conn_m0.csv": "ca8871488cf134a253229a401273be60e61b7e0ae64cf9ab27928d127e077997",
    "conn_m1.csv": "69c72a94cccf159997f83f276c58d04ecdbc3793a1c4c86001142e4834878ce5",
    "trace_m0.csv": "c3f21e8ca652712536a946532bd4be0bb115a215547253f70011f80b8a079edc",
    "trace_m1.csv": "334fdcb576a7626b9cee79b941f5056ee3f7a5eeec7ab858c869a6a3b51bd718",
}

CHURN_CID = "dag-pb:769094a6b01e939aad1b2df1afe2cbc5ae5c68a3da198ce45888ea82552bce54"
CHURN_HIT_NODE = "010c4759482c9cbc43435cc52eae05cf96d0cc5fd4c28c2e7c26847f0316909e"
CHURN_MISS_NODE = "0a097c976bf46c697d2caf82eeeacbe226e875555790f82ec1d3fcff2a3af4d4"

# verb arguments (after --config) -> digests of its outputs on the churn
# world; the tpi targets are an online node with the cid in its cache and
# an online node without it, at the end of the warm-up
CHURN_VERB_GOLDEN = {
    "probe-gateways": (
        ["probe-gateways"],
        {
            "gateways.csv": "9dc255418cccb7659c8e2f865035065bd538d92244774c35701fdce7bd2c1a1f",
            "crossref.csv": "cc0179a8e9f81c160e13bfda113d9249584fd80bd5f4658277bb5476ecf3d9a2",
        },
    ),
    "tpi-hit": (
        ["tpi", "--target", CHURN_HIT_NODE, "--cid", CHURN_CID],
        {"tpi.json": "a2fe9f499f93b4c04adbf3d33af8e447cd0630fd1112c0faffc8e402d450604a"},
    ),
    "tpi-miss": (
        ["tpi", "--target", CHURN_MISS_NODE, "--cid", CHURN_CID],
        {"tpi.json": "71396330b8ec691871472e73a6fc45bc708ae6702460626b809f75dc23a0460b"},
    ),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _digests(out, names):
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in names}


def _produced(out):
    return {p.name for p in out.iterdir()} - {"manifest.json"}


@pytest.fixture(scope="module")
def world(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("golden")
    config = tmp / "sim.json"
    config.write_text(json.dumps(REFERENCE_CONFIG))
    out = tmp / "world"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--duration-s", "120"]
    assert main(argv) == 0
    return out


def test_reference_config_outputs_are_pinned(world):
    assert _digests(world, GOLDEN_SHA256) == GOLDEN_SHA256
    assert _produced(world) == set(GOLDEN_SHA256)
    manifest = json.loads((world / "manifest.json").read_text())
    assert manifest["config_digest"] == GOLDEN_CONFIG_DIGEST


@pytest.mark.parametrize("verb", sorted(ANALYSIS_GOLDEN))
def test_analysis_outputs_are_pinned(world, verb, tmp_path):
    args, golden = ANALYSIS_GOLDEN[verb]
    traces = [str(world / "trace_m0.csv"), str(world / "trace_m1.csv")]
    argv = [args[0], *traces, *(a.format(world=world) for a in args[1:])]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    assert _digests(tmp_path, golden) == golden
    assert _produced(tmp_path) == set(golden)


# power_law.json's fields on the golden world, as the bisection fitter gave
# them. A fitter that changes alpha in its last digits changes the digest
# above; these values bound how far it may move. The report also carries
# alpha_clamped and replicates_skipped.
POWER_LAW_VALUES = {
    "alpha": 2.0502647852614473,
    "x_min": 2,
    "ks_statistic": 0.028337854115458305,
    "p_value": 0.75,
    "n_tail": 146,
}


def test_power_law_values_are_pinned(world, tmp_path):
    traces = [str(world / "trace_m0.csv"), str(world / "trace_m1.csv")]
    argv = ["analyze", *traces, "--report", "power-law", "--bootstraps", "20"]
    assert main([*argv, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "power_law.json").read_text())
    want = POWER_LAW_VALUES
    assert doc["x_min"] == want["x_min"]
    assert doc["n_tail"] == want["n_tail"]
    assert doc["ks_statistic"] == pytest.approx(want["ks_statistic"], abs=1e-9)
    assert doc["alpha"] == pytest.approx(want["alpha"], abs=1e-6)
    assert doc["p_value"] == want["p_value"]
    assert (doc["alpha_clamped"], doc["replicates_skipped"]) == (False, 0)


@pytest.mark.parametrize("method", sorted(ESTIMATE_GOLDEN))
def test_estimate_outputs_are_pinned(world, method, tmp_path):
    conns = [str(world / "conn_m0.csv"), str(world / "conn_m1.csv")]
    argv = ["estimate", "--method", method, "--conn-events", *conns,
            "--window-start-s", "0", "--window-end-s", "120", "--out", str(tmp_path)]
    assert main(argv) == 0
    golden = {"estimate.json": ESTIMATE_GOLDEN[method]}
    assert _digests(tmp_path, golden) == golden
    assert _produced(tmp_path) == set(golden)


@pytest.fixture(scope="module")
def churn_world():
    net = build_network(config_from_dict(CHURN_CONFIG))
    run(net)
    return net


def test_churn_world_outputs_are_pinned(churn_world, tmp_path):
    net = churn_world
    for name in sorted(net.traces):
        write_trace(net.traces[name], tmp_path / f"trace_{name}.csv")
        write_conn_events(net.conn_events[name], tmp_path / f"conn_{name}.csv")
    got = _digests(tmp_path, [n for n in CHURN_GOLDEN_SHA256 if n.endswith(".csv")])
    got["messages"] = _sha256("".join(
        f"{m.timestamp_ns},{m.src.hex},{m.dst.hex},{m.kind},{m.cid}\n" for m in net.message_log
    ))
    got["summary"] = _sha256(json.dumps(net.ground_truth.summary(), sort_keys=True))
    assert got == CHURN_GOLDEN_SHA256
    assert _produced(tmp_path) == set(got) - {"messages", "summary"}


def test_churn_world_reconnects(churn_world):
    # what the digests above are meant to cover: a monitor sees a peer connect,
    # leave and connect again
    for events in churn_world.conn_events.values():
        connects = [e.peer for e in events if e.kind is ConnEventKind.CONNECT]
        assert len(connects) > len(set(connects))


@pytest.mark.parametrize("verb", sorted(CHURN_VERB_GOLDEN))
def test_churn_world_verbs_are_pinned(verb, tmp_path):
    args, golden = CHURN_VERB_GOLDEN[verb]
    config = tmp_path / "churn.json"
    config.write_text(json.dumps(CHURN_CONFIG))
    out = tmp_path / "out"
    assert main([args[0], "--config", str(config), *args[1:], "--out", str(out)]) == 0
    assert _digests(out, golden) == golden
    assert _produced(out) == set(golden)
