import copy
import heapq
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
from swarmwatch.errors import InputError
from swarmwatch.pipeline import mark_flags, unify

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

    def test_one_pass_values_are_read_once(self):
        a = [rec(0, "m0"), rec(2, "m0"), rec(4, "m0")]
        b = [rec(1, "m1"), rec(3, "m1")]
        want = list(unify({"m0": a, "m1": b}))
        assert len(want) == 5
        assert list(unify({"m0": iter(a), "m1": (r for r in b)})) == want


def _merge_oracle(sequences):
    """``unify``'s order as a merge keyed by (timestamp, monitor, offset),
    ties going to the earlier sequence, which ``_named`` keys first."""
    streams = [((r.timestamp_ns, r.monitor, i, r) for i, r in enumerate(seq)) for seq in sequences]
    return [entry[3] for entry in heapq.merge(*streams, key=lambda e: e[:3])]


@st.composite
def _sequences(draw):
    """A few time-sorted sequences with many ties: equal timestamps within
    and across sequences, and monitor names shared between them."""
    sequences = []
    for k in range(draw(st.integers(1, 4))):
        times = sorted(draw(st.lists(st.integers(0, 4), max_size=8)))
        monitors = draw(st.lists(st.sampled_from(["m0", "m1", "m2"]),
                                 min_size=len(times), max_size=len(times)))
        sequences.append([rec(t, m, peer=NodeId(100 * k + i))
                          for i, (t, m) in enumerate(zip(times, monitors))])
    return sequences


def _named(*sequences):
    """The sequences under keys that sort in their order."""
    return {f"s{k}": seq for k, seq in enumerate(sequences)}


class TestUnifyOrder:
    @given(sequences=_sequences())
    @settings(max_examples=200, deadline=None)
    def test_matches_keyed_merge(self, sequences):
        t = unify(_named(*sequences))
        assert list(t) == _merge_oracle(sequences)
        assert t.provenance == tuple(sorted({r.monitor for seq in sequences for r in seq}))

    def test_shared_monitor_equal_timestamps(self):
        # the same monitor at one timestamp in two sequences: offsets first,
        # then sequences, so the two interleave
        a = [rec(5, "m0", peer=NodeId(1)), rec(5, "m0", peer=NodeId(2))]
        b = [rec(5, "m0", peer=NodeId(3)), rec(5, "m0", peer=NodeId(4))]
        assert [r.peer for r in unify(_named(a, b))] == [1, 3, 2, 4]
        assert list(unify(_named(a, b))) == _merge_oracle([a, b])

    def test_monitor_order_within_a_sequence_kept(self):
        # one sequence whose equal timestamps are not in monitor order: a
        # merge only ever compares heads, so "m1" still comes before the
        # "m0" behind it, where a sort by the same key would move it last
        seq = [rec(1, "m1"), rec(1, "m0")]
        other = [rec(1, "m0", peer=NodeId(9))]
        assert list(unify(_named(seq, other))) == _merge_oracle([seq, other]) == [other[0], *seq]

    @pytest.mark.parametrize("times, offset", [([5, 1], 1), ([1, 2, 2, 1, 0], 3), ([0, 3, 2], 2)])
    def test_unsorted_message(self, times, offset):
        good = [rec(t, "m0") for t in range(3)]
        bad = [rec(t, "m9") for t in times]
        with pytest.raises(ValueError) as exc:
            unify(_named(good, bad))
        assert str(exc.value) == f"trace for monitor 'm9' not sorted at offset {offset}"


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
        t = mark_flags(unify(_named(records)))
        expect = brute_force_flags(records)
        assert [r.flags for r in t] == expect


class TestAgainstBruteForce:
    @pytest.mark.parametrize("seed", range(5))
    def test_random_traces(self, seed):
        records = synthetic_records(600, seed=seed)
        t = mark_flags(unify(_named(records)))
        assert [r.flags for r in t] == brute_force_flags(records)

    def test_idempotent(self):
        records = synthetic_records(500, seed=9)
        once = mark_flags(unify(_named(records)))
        twice = mark_flags(once)
        assert list(once) == list(twice)

    @pytest.mark.parametrize("dup_s, reb_s", [(0.0, 0.0), (10.0, 31.0), (5.0, 120.0)])
    def test_window_keywords(self, dup_s, reb_s):
        records = synthetic_records(600, seed=3)
        t = mark_flags(unify(_named(records)), window_dup_s=dup_s, window_rebroadcast_s=reb_s)
        assert [r.flags for r in t] == brute_force_flags(records, dup_s, reb_s)

    def test_inputs_untouched(self):
        records = synthetic_records(300, seed=8)
        trace = unify(_named(records))
        before = [copy.copy(r) for r in trace]
        marked = mark_flags(trace)
        assert sum(a is not b for a, b in zip(trace, marked)) > 0
        assert list(trace) == before and all(r.flags == 0 for r in trace)

    def test_other_flag_bits_kept(self):
        # only the duplicate and re-broadcast bits are cleared and set
        records = synthetic_records(300, seed=6)
        extra = [r.with_flags(0x4 | 0x3 * (i % 2)) for i, r in enumerate(records)]
        t = mark_flags(unify(_named(extra)))
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
    t2 = mark_flags(unify(_named(records)))
    assert list(t1) == list(t2)


@pytest.mark.parametrize("name", ["window_dup_s", "window_rebroadcast_s"])
@pytest.mark.parametrize("window", [float("nan"), float("inf"), -float("inf"), 1e300])
def test_non_finite_window_raises_naming_it(name, window):
    with pytest.raises(InputError, match=f"{name} must be finite"):
        mark_flags(unify({"m0": [rec(0, "m0")]}), **{name: window})


@pytest.mark.parametrize("window", [0.0, -5.0, 1e299])
def test_zero_negative_and_large_finite_windows_still_mark(window):
    records = synthetic_records(300, seed=3)
    got = mark_flags(unify(_named(records)), window_dup_s=window, window_rebroadcast_s=window)
    assert [r.flags for r in got] == brute_force_flags(records, window, window)
