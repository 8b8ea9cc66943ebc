import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwatch.core import (
    RAW,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
)
from swarmwatch.pipeline import filter_trace, mark_flags, unify

from helpers import NS, brute_force_flags, synthetic_records

PEER = NodeId(0x1234)
CID = hash_content(b"block", RAW)


def rec(t_s: float, monitor: str, rtype=RequestType.WANT_HAVE, peer=PEER, cid=CID):
    return TraceRecord(
        timestamp_ns=int(t_s * NS),
        monitor=monitor,
        peer=peer,
        address="/ip4/203.0.113.9/tcp/4001",
        request_type=rtype,
        cid=cid,
    )


class TestUnify:
    def test_single_monitor_identity(self):
        records = [rec(0, "m0"), rec(1, "m0"), rec(2, "m0")]
        t = unify({"m0": records})
        assert list(t) == records
        assert t.provenance == ("m0",)

    def test_disjoint_ranges_concatenate(self):
        a = [rec(0, "m0"), rec(1, "m0")]
        b = [rec(10, "m1"), rec(11, "m1")]
        t = unify({"m1": b, "m0": a})
        assert list(t) == a + b

    def test_interleaved_matches_sort_oracle(self):
        rng = random.Random(11)
        per_monitor = {}
        for m in ("m0", "m1", "m2"):
            times = sorted(rng.randrange(0, 100 * NS) for _ in range(200))
            per_monitor[m] = [
                TraceRecord(t, m, PEER, "/ip4/203.0.113.9/tcp/4001", RequestType.WANT_HAVE, CID)
                for t in times
            ]
        t = unify(per_monitor)
        oracle = sorted(
            (r for recs in per_monitor.values() for r in recs),
            key=lambda r: (r.timestamp_ns, r.monitor),
        )
        assert list(t) == oracle
        assert len(t) == sum(len(v) for v in per_monitor.values())

    def test_unsorted_input_names_monitor_and_offset(self):
        records = [rec(5, "m7"), rec(1, "m7")]
        with pytest.raises(ValueError, match=r"m7.*offset 1"):
            unify({"m7": records})


class TestDuplicateMarking:
    def test_two_monitor_window(self):
        t = mark_flags(unify({"m0": [rec(0, "m0")], "m1": [rec(3, "m1")]}))
        assert [r.is_duplicate for r in t] == [False, True]

    def test_outside_window_not_flagged(self):
        t = mark_flags(unify({"m0": [rec(0, "m0")], "m1": [rec(6, "m1")]}))
        assert [r.is_duplicate for r in t] == [False, False]

    def test_same_monitor_never_bit0(self):
        # A(0), B(4), A(4.5): B is a cross-monitor dup; the second A record
        # falls under the re-broadcast rule, not bit0
        t = unify({"m0": [rec(0, "m0"), rec(4.5, "m0")], "m1": [rec(4, "m1")]})
        t = mark_flags(t)
        by_time = sorted(t, key=lambda r: r.timestamp_ns)
        assert [r.is_duplicate for r in by_time] == [False, True, True]
        assert by_time[2].monitor == "m0" and by_time[2].is_rebroadcast

    def test_equal_timestamps_earliest_by_tiebreak_unflagged(self):
        t = mark_flags(unify({"m0": [rec(1, "m0")], "m1": [rec(1, "m1")]}))
        assert [(r.monitor, r.is_duplicate) for r in t] == [("m0", False), ("m1", True)]


class TestRebroadcastMarking:
    def test_periodic_chain_flags_all_but_first(self):
        records = [rec(t, "m0") for t in (0, 30, 60, 90)]
        t = mark_flags(unify({"m0": records}))
        assert [r.is_rebroadcast for r in t] == [False, True, True, True]

    def test_gap_beyond_window_breaks_chain(self):
        t = mark_flags(unify({"m0": [rec(0, "m0"), rec(40, "m0")]}))
        assert [r.is_rebroadcast for r in t] == [False, False]

    def test_cross_monitor_never_extends_chain(self):
        t = mark_flags(unify({"m0": [rec(0, "m0")], "m1": [rec(20, "m1")]}))
        assert [r.is_rebroadcast for r in t] == [False, False]

    def test_two_monitor_stream_matches_brute_force(self):
        records = synthetic_records(400, seed=2, monitors=("m0", "m1"))
        t = mark_flags(unify([records]))
        expect = brute_force_flags(records)
        assert [r.flags for r in t] == expect


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces(self, seed):
        records = synthetic_records(600, seed=seed)
        t = mark_flags(unify([records]))
        assert [r.flags for r in t] == brute_force_flags(records)

    def test_idempotent(self):
        records = synthetic_records(500, seed=9)
        once = mark_flags(unify([records]))
        twice = mark_flags(once)
        assert list(once) == list(twice)

    @pytest.mark.parametrize("dup_s, reb_s", [(0.0, 0.0), (10.0, 31.0), (5.0, 120.0)])
    def test_window_keywords(self, dup_s, reb_s):
        records = synthetic_records(600, seed=3)
        t = mark_flags(unify([records]), window_dup_s=dup_s, window_rebroadcast_s=reb_s)
        assert [r.flags for r in t] == brute_force_flags(records, dup_s, reb_s)

    def test_other_flag_bits_kept(self):
        # only the duplicate and re-broadcast bits are cleared and set
        records = synthetic_records(300, seed=6)
        extra = [r.with_flags(0x4 | 0x3 * (i % 2)) for i, r in enumerate(records)]
        t = mark_flags(unify([extra]))
        assert [r.flags for r in t] == [0x4 | f for f in brute_force_flags(records)]


@given(seed=st.integers(0, 10_000), order_seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_permutation_stability(seed, order_seed):
    # shuffling the per-monitor input order never changes flag assignment
    records = synthetic_records(150, seed=seed)
    by_monitor = {}
    for r in records:
        by_monitor.setdefault(r.monitor, []).append(r)
    monitors = list(by_monitor)
    random.Random(order_seed).shuffle(monitors)
    t1 = mark_flags(unify({m: by_monitor[m] for m in monitors}))
    t2 = mark_flags(unify([records]))
    assert list(t1) == list(t2)


class TestFilter:
    def test_all_false_is_identity(self):
        t = mark_flags(unify([synthetic_records(100, seed=1)]))
        assert list(filter_trace(t)) == list(t)

    def test_drop_cancels_only_cancels(self):
        records = [rec(i, "m0", rtype=RequestType.CANCEL) for i in range(5)]
        t = filter_trace(unify({"m0": records}), drop_cancels=True)
        assert len(t) == 0

    def test_counts_never_increase(self):
        t = mark_flags(unify([synthetic_records(300, seed=4)]))
        kept = filter_trace(t, drop_duplicates=True, drop_rebroadcasts=True, drop_cancels=True)
        assert len(kept) <= len(t)
        flagged = sum(1 for r in t if r.flags)
        assert flagged <= len(t)

    def test_order_preserved(self):
        t = mark_flags(unify([synthetic_records(300, seed=5)]))
        kept = filter_trace(t, drop_duplicates=True)
        times = [r.timestamp_ns for r in kept]
        assert times == sorted(times)
