"""Run one benchmark workload and print its metrics.

    python3 benchmarks/run.py --workload monitor-logs --seed 1 --seconds 20 --trace 0

Rounds of the workload repeat until ``--seconds`` have passed, and at
least ``MIN_ROUNDS`` of them run, so that set-up is timed more than once.
Each round sets up inputs of its own from the seed and the round's number
(``stages.round_seed``), then runs every stage's phase in slices, cycle by
cycle, and checks the outputs. A phase's value is its time per call (for
``query_p50_ms``, the median look-up). Each end-to-end metric is the mean
of its phase values over the run's rounds (``setup_s``: the median of the
rounds' set-ups), scaled to a nominal host speed by the run's median time
of a fixed reference loop, timed before and after set-up and every slice
(``REF_NOMINAL_MS``). The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

With ``--trace 1`` rounds alternate between untraced and traced, each
traced round on the inputs of the untraced one before it, and the run ends
after a traced round; the metrics are
then the per-layer figures of the traced rounds, and the run also prints
each layer's total and self time and the tracing overhead on every
end-to-end metric. The spans are written to ``benchmarks/out/spans``.

Every run also writes a record (the result, every round's phases and
reference loop times, and the reference loop at the start and end of the
run, a diagnostic of host speed) to ``--record-dir``, which ``compare.py``
reads.
"""

from __future__ import annotations

import os

# one process, one thread: numpy's BLAS/OpenMP pools stay at one thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
clock = time.perf_counter
TIME_UNITS = {"s", "ms", "us"}
# Times are reported at a nominal host speed: each is scaled by
# REF_NOMINAL_MS over the run's median time of a fixed loop of
# REF_ITERATIONS, timed before and after set-up and every slice. The host
# drifts between speeds for minutes at a time and moves every stage of a
# run together; scaling each phase by the loop timed next to it was tried
# and spread wider, as the host also switches speed within seconds (see
# README).
REF_ITERATIONS = 200_000
REF_NOMINAL_MS = 16.0
MIN_ROUNDS = 3


def ref_loop_ms() -> float:
    """Time of a fixed pure-Python loop, a measure of host speed."""
    t0 = clock()
    acc = 0
    for i in range(REF_ITERATIONS):
        acc += i * i
    return (clock() - t0) * 1e3


def run_round(stages, prof, seed: int, tmp: Path, tracer) -> tuple:
    """One round: set-up, then every stage's slices, cycle by cycle.
    Returns the round, its checks, and its record: the reference loop
    times (before and after set-up and every slice) and the phases."""
    ok = stages.Checks()
    traced = tracer.span if tracer else lambda name: contextlib.nullcontext()
    gc.collect()
    refs = [ref_loop_ms()]
    t0 = clock()
    try:
        with traced("bench.setup"):
            rnd = stages.setup(tmp, prof, seed)
    except Exception:
        traceback.print_exc()
        ok(False, "set-up raised")
        return None, ok, {"seed": seed, "ref_ms": refs + [ref_loop_ms()], "phases": []}
    setup_s = clock() - t0
    refs.append(ref_loop_ms())
    # set-up's objects stay out of the collector's way during the stages,
    # and every slice starts from the same collector state
    gc.collect()
    gc.freeze()
    for k in range(prof.cycles):
        for stage in stages.STAGES:
            n = stages.slice_calls(prof, stage.__name__, k)
            if not n:
                continue
            gc.collect()
            refs.append(ref_loop_ms())
            attempted, failed = rnd.attempted, rnd.failed
            with traced(f"bench.{stage.__name__}"):
                try:
                    stage(rnd, ok, n)
                except Exception:
                    traceback.print_exc()
                    ok(False, f"{stage.__name__} raised")
                    lost = max(rnd.attempted - attempted, 1)
                    rnd.attempted, rnd.failed = attempted + lost, failed + lost
            refs.append(ref_loop_ms())
    gc.unfreeze()
    phases = [stages.Phase("setup_s", setup_s, 1, setup_s)] + rnd.phases()
    return rnd, ok, {"seed": seed, "ref_ms": refs, "phases": phases}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["sim-batch", "monitor-logs", "gateway-probe"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record-dir", type=Path, default=OUT / "runs")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "swarmwatch" / "__init__.py").is_file():
        print(f"error: swarmwatch sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import spans  # noqa: E402
    import stages  # noqa: E402

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}

    prof = stages.PROFILES[args.workload]
    # a terminated run still removes its temporary inputs
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    tmp = OUT / f"tmp-{os.getpid()}"
    rounds = {False: [], True: []}         # traced? -> records of those rounds
    layer_rounds, all_spans = [], []
    attempted = failed = 0
    failures: list[str] = []
    started = clock()
    n = 0
    try:
        while n < MIN_ROUNDS or clock() - started < args.seconds or (args.trace and n % 2):
            traced = bool(args.trace) and n % 2 == 1
            tracer = spans.Tracer() if traced else None
            with tracer.installed() if tracer else contextlib.nullcontext():
                seed = stages.round_seed(args.seed, n // 2 if args.trace else n)
                rnd, ok, round_record = run_round(stages, prof, seed, tmp / str(n), tracer)
            n += 1
            failures += ok.failures
            rounds[traced].append(round_record)
            shutil.rmtree(tmp / str(n - 1), ignore_errors=True)
            if rnd is None:                # set-up failed: the round attempted nothing else
                attempted += 1
                failed += 1
                break
            attempted += rnd.attempted
            failed += rnd.failed
            del rnd
            if tracer:
                layer_rounds.append(spans.layer_metrics(tracer.spans))
                all_spans.append(tracer.spans)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    refs = [t for rd in rounds[False] + rounds[True] for t in rd["ref_ms"]]
    scale = REF_NOMINAL_MS / statistics.median(refs)

    def e2e(traced: bool) -> dict[str, float]:
        by_metric: dict[str, list[float]] = {}
        for ph in (ph for rd in rounds[traced] for ph in rd["phases"]):
            by_metric.setdefault(ph.metric, []).append(ph.value)
        # set-up: the median of the rounds' set-ups; a stage: the mean of
        # its rounds' values, the run's total time per call (every round
        # makes the same calls)
        out = {name: scale * (statistics.median if name == "setup_s" else statistics.fmean)(v)
               for name, v in by_metric.items()}
        out["peak_rss_mb"] = peak_rss_mb
        return out

    values = untraced = e2e(False)
    if args.trace and layer_rounds:
        values = {name: statistics.median(r[name] for r in layer_rounds)
                  * (scale if units.get(name) in TIME_UNITS else 1.0)
                  for name in layer_rounds[0]}
        traced_e2e = e2e(True)
        print("# tracing overhead (traced rounds against untraced rounds on the same inputs):")
        for name in e2e_units:
            if name in untraced and name in traced_e2e and name != "peak_rss_mb":
                d = traced_e2e[name] - untraced[name]
                print(f"#   {name:14s} {untraced[name]:10.4f} -> {traced_e2e[name]:10.4f} "
                      f"{e2e_units[name]}  ({100 * d / untraced[name]:+.1f}%)")
        print("# layer total / self time, wall seconds per traced round (not scaled):")
        times = [spans.layer_times(s) for s in all_spans]
        for layer in sorted({k for t in times for k in t}):
            tot = statistics.median(t.get(layer, (0.0, 0.0))[0] for t in times)
            own = statistics.median(t.get(layer, (0.0, 0.0))[1] for t in times)
            print(f"#   {layer:12s} total {tot:9.4f}  self {own:9.4f}")
        (OUT / "spans").mkdir(parents=True, exist_ok=True)
        span_path = OUT / "spans" / f"{args.workload}-seed{args.seed}.json"
        span_path.write_text(json.dumps(
            [[vars(s) for s in round_spans] for round_spans in all_spans]))
        print(f"# spans of {len(all_spans)} traced rounds -> {span_path}")
    elif args.trace:
        values = {}
    missing = sorted(set(units) - set(values))
    if missing:
        failures.append(f"no measurement of {', '.join(missing)}")
    for what in failures[:20]:
        print(f"check failed: {what}", file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name), "unit": units[name]} for name in units},
    }
    args.record_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "n_rounds": n,
        "wall_s": clock() - started,
        "finished_unix": time.time(),
        # host-speed diagnostic, not a metric: the reference loop at the
        # start and the end of the run (median of the first and last three)
        "host_ref_ms": {"start": statistics.median(refs[:3]), "end": statistics.median(refs[-3:])},
        "host_scale": scale,
        "rounds": {("traced" if t else "untraced"): [
            dict(rd, phases=[vars(p) for p in rd["phases"]]) for rd in rounds[t]]
            for t in rounds},
        "result": result,
    }
    stamp = f"{time.time():.3f}".replace(".", "")
    (args.record_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}.json").write_text(
        json.dumps(record, indent=1))
    print(f"# {args.workload} seed {args.seed}: {n} rounds in {clock() - started:.1f} s; "
          f"reference loop {record['host_ref_ms']['start']:.1f} ms at start, "
          f"{record['host_ref_ms']['end']:.1f} ms at end ({REF_ITERATIONS} iterations); "
          f"times scaled by {scale:.3f}")
    print(json.dumps(result))
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
