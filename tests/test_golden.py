"""Golden digests of the simulate verb on the README reference config, and
of the analysis verbs run on the traces it writes.

The determinism tests compare two runs of the same build, so they cannot
see a change in output. These digests pin the bytes themselves: a change
that alters them changes the program's behaviour and must say so.
"""

import hashlib
import json

import pytest

from swarmwatch.cli import main

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
GOLDEN_CONFIG_DIGEST = "5386a5b3f33eb595e78777ca585ce628236123da5993bf3436f4c1680893c52d"


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
    "idw": (
        ["idw", "--cid", TOP_CID],
        {"idw.csv": "d815efb78ca78726a2893242653f0755f4ceac29bd9a6a0757862bf137b1fb3a"},
    ),
    "tnw": (
        ["tnw", "--peer", TOP_PEER],
        {"tnw.csv": "142d2c0bdaff72f278eab50f322418e83407ed30541198b9f390d3bb203be9eb"},
    ),
}


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
