"""One-off reference: netsim cost per trace record as the world grows.

    python3 benchmarks/scaling.py [300 1500 3000]

Builds and runs one world per size (regular nodes: two thirds DHT servers,
the rest clients plus 2 gateways; 2 monitors at full coverage; degree
8-14; catalog 2000 with Zipf 1.1 popularity; 0.2 requests/s per node; 30%
unresolvable; 120 s simulated; seed 42) and prints a Markdown table of
build time, run time, trace records and microseconds per record. This is
a reference table for the README, not a benchmark workload: the 3,000-node
world alone takes minutes.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from swarmwatch import netsim  # noqa: E402


def world(n: int) -> netsim.SimConfig:
    servers = 2 * n // 3
    return netsim.config_from_dict({
        "n_dht_servers": servers,
        "n_clients": n - servers - 2,
        "n_gateways": 2,
        "n_monitors": 2,
        "degree_range": [8, 14],
        "catalog_size": 2000,
        "popularity_sampler": {"kind": "zipf", "exponent": 1.1},
        "request_rate_per_node": 0.2,
        "unresolvable_fraction": 0.3,
        "duration_s": 120.0,
        "seed": 42,
    })


def main(argv) -> int:
    sizes = [int(a) for a in argv] or [300, 1500, 3000]
    print("| nodes | build s | run s | trace records | run µs/record |")
    print("|------:|--------:|------:|--------------:|--------------:|")
    for n in sizes:
        t0 = time.perf_counter()
        net = netsim.build_network(world(n))
        t1 = time.perf_counter()
        traces, _, _ = netsim.run(net)
        t2 = time.perf_counter()
        records = sum(len(v) for v in traces.values())
        print(f"| {n} | {t1 - t0:.2f} | {t2 - t1:.1f} | {records} | "
              f"{(t2 - t1) / records * 1e6:.0f} |", flush=True)
        del net, traces
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
