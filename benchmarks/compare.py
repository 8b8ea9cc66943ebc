"""Compare two sets of benchmark runs.

    python3 benchmarks/compare.py benchmarks/out/runs-a benchmarks/out/runs-b

Each argument is a directory of run records written by ``run.py`` (or a
single record file). For every workload and end-to-end metric it prints
both sides' median and quartiles (``statistics.quantiles(n=4)``), the
change of the median, and a verdict against the metric's bound in
BENCHMARK.json:

* ``within``: the medians differ by no more than the bound;
* ``worse`` / ``better``: they differ by more, in that direction;
* ``unresolved``: one side's interquartile spread, as a share of its
  median, exceeds the bound, so the comparison cannot be trusted.

A metric without a value in some run (a run that measured nothing of it)
is left out of that side's figures and counted in ``missing``. It also
prints the share of failed operations on each side and how fast the host
ran: the spread, over each side's runs, of the run's median time of the
reference loop. Untraced runs only; traced runs are skipped.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    records = [json.loads(f.read_text()) for f in files]
    return [r for r in records if r.get("trace") == 0]


def summary(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def verdict(a, b, bound: float, better: str) -> str:
    (a1, am, a3), (b1, bm, b3) = a, b
    if (a3 - a1) / am > bound or (b3 - b1) / bm > bound:
        return "unresolved"
    change = (bm - am) / am
    if abs(change) <= bound:
        return "within"
    return "worse" if (change > 0) == (better == "lower") else "better"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", type=Path, help="first set of run records")
    parser.add_argument("b", type=Path, help="second set of run records")
    args = parser.parse_args(argv)
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    sides = [load(args.a), load(args.b)]
    if not all(sides):
        print("error: each side needs at least one untraced run record", file=sys.stderr)
        return 2
    workloads = sorted({r["workload"] for side in sides for r in side})
    print(f"{'workload':14s} {'metric':13s} {'A q1/median/q3':>28s} {'B q1/median/q3':>28s} "
          f"{'change':>8s} {'bound':>6s}  verdict")
    status = 0
    for wl in workloads:
        runs = [[r for r in side if r["workload"] == wl] for side in sides]
        if not all(runs):
            print(f"{wl:14s} (runs on one side only)")
            continue
        for m in metrics:
            vals = [[r["result"]["metrics"][m["name"]]["value"] for r in side] for side in runs]
            missing = [sum(v is None for v in side) for side in vals]
            vals = [[v for v in side if v is not None] for side in vals]
            if missing[0] or missing[1]:
                status = 1
                print(f"{wl:14s} {m['name']:13s} missing in {missing[0]} / {missing[1]} runs")
                if not (vals[0] and vals[1]):
                    continue
            a, b = summary(vals[0]), summary(vals[1])
            v = verdict(a, b, m["bound"], m["better"])
            status |= v in ("worse", "unresolved")
            cells = [f"{x[0]:8.4g} {x[1]:9.4g} {x[2]:8.4g}" for x in (a, b)]
            print(f"{wl:14s} {m['name']:13s} {cells[0]:>28s} {cells[1]:>28s} "
                  f"{100 * (b[1] - a[1]) / a[1]:+7.1f}% {m['bound']:6.2f}  {v}")
        shares = []
        for side in runs:
            att = sum(r["result"]["attempted"] for r in side)
            bad = sum(r["result"]["failed"] for r in side)
            shares.append(f"{bad}/{att} ({100 * bad / att:.3f}%)")
        print(f"{wl:14s} {'failed ops':13s} {shares[0]:>28s} {shares[1]:>28s}")
        refs = []
        for side in runs:
            ref = [statistics.median(t for rd in r["rounds"]["untraced"] for t in rd["ref_ms"])
                   for r in side]
            refs.append(f"{min(ref):.2f}..{statistics.median(ref):.2f}..{max(ref):.2f}")
        print(f"{wl:14s} {'host ref ms':13s} {refs[0]:>28s} {refs[1]:>28s}  "
              "(per-run medians: min..median..max)")
        print(f"{wl:14s} {'runs':13s} {len(runs[0]):>28d} {len(runs[1]):>28d}")
    return status


if __name__ == "__main__":
    sys.exit(main())
