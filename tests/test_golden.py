"""Golden digests of the simulate verb on the README reference config.

The determinism tests compare two runs of the same build, so they cannot
see a change in output. These digests pin the bytes themselves: a change
that alters them changes the program's behaviour and must say so.
"""

import hashlib
import json

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


def test_reference_config_outputs_are_pinned(tmp_path):
    config = tmp_path / "sim.json"
    config.write_text(json.dumps(REFERENCE_CONFIG))
    out = tmp_path / "world"
    argv = ["simulate", "--config", str(config), "--out", str(out), "--duration-s", "120"]
    assert main(argv) == 0
    got = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest()
        for name in GOLDEN_SHA256
    }
    assert got == GOLDEN_SHA256
    produced = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert produced == set(GOLDEN_SHA256)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_digest"] == GOLDEN_CONFIG_DIGEST
