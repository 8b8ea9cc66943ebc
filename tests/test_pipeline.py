import copy
import heapq
import random
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swarmwatch.core import (
    RAW,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
)
from swarmwatch.errors import InputError
from swarmwatch.pipeline import (
    REQUEST_TYPES,
    TraceColumns,
    UnifiedTrace,
    mark_flags,
    trace_columns,
    unify,
)

from helpers import NS, brute_force_flags, reference_mark_flags, synthetic_records

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


@pytest.mark.parametrize("n, seed", [(0, 0), (1, 1), (300, 2), (300, 3)])
def test_columns_hold_each_records_fields(n, seed):
    # codes count up in first-seen order, whatever the hash seed
    records = [r.with_flags(i % 3) for i, r in enumerate(synthetic_records(n, seed=seed))]
    trace = mark_flags(unify(_named(records)))
    cols = trace.columns
    assert trace.columns is cols
    assert cols.timestamp_ns.dtype == "int64"
    assert cols.timestamp_ns.tolist() == [r.timestamp_ns for r in trace]
    assert all(REQUEST_TYPES[c] is r.request_type for c, r in zip(cols.request_type, trace))
    assert cols.flagged.tolist() == [r.flags != 0 for r in trace]
    for field, distinct in (("cid", cols.cids), ("peer", cols.peers), ("address", cols.addresses)):
        values = [getattr(r, field) for r in trace]
        assert distinct == tuple(dict.fromkeys(values))
        assert [distinct[c] for c in getattr(cols, field).tolist()] == values


I64_MIN, I64_MAX = -2**63, 2**63 - 1


def rec_ns(t_ns: int, monitor: str, rtype=RequestType.WANT_HAVE, peer=PEER, flags=0):
    return TraceRecord(t_ns, monitor, peer, "/ip4/203.0.113.9/tcp/4001", rtype, CID, flags)


@st.composite
def _hand_built(draw):
    """Records in any order, not a ``unify`` output: 1 to 6 monitors, few
    wants, timestamps on a 3 s grid with ties or at the two ends of int64,
    and flag bits other than the two ``mark_flags`` sets."""
    monitors = [f"m{i}" for i in range(draw(st.integers(1, 6)))]
    return draw(st.lists(st.builds(
        rec_ns,
        st.one_of(st.integers(0, 12).map(lambda k: 3 * k * NS), st.sampled_from([I64_MIN, I64_MAX])),
        st.sampled_from(monitors),
        rtype=st.sampled_from(list(RequestType)),
        peer=st.sampled_from([PEER, NodeId(0x99)]),
        flags=st.sampled_from([0, 1, 2, 3, 4, 7, 2**64 | 1]),
    ), max_size=40))


WINDOWS_S = st.sampled_from([0.0, -5.0, 1.0, 5.0, 31.0, 1e299, 1e300])


@given(records=_hand_built(), dup_s=WINDOWS_S, reb_s=WINDOWS_S)
# m0's two records are 2**64 - 1 ns apart: a gap wrapped in int64 would read
# -1 ns, inside the re-broadcast window
@example(records=[rec_ns(I64_MAX, "m1"), rec_ns(I64_MIN, "m0"), rec_ns(I64_MAX, "m0")],
         dup_s=5.0, reb_s=31.0)
@settings(max_examples=300, deadline=None)
def test_mark_flags_matches_the_reference_loop(records, dup_s, reb_s):
    trace = UnifiedTrace(tuple(records), ("m0",))
    try:
        want = reference_mark_flags(records, dup_s, reb_s)
    except InputError as exc:  # a window of 1e300 s is no finite count of nanoseconds
        with pytest.raises(InputError, match=re.escape(str(exc))):
            mark_flags(trace, window_dup_s=dup_s, window_rebroadcast_s=reb_s)
        return
    got = mark_flags(trace, window_dup_s=dup_s, window_rebroadcast_s=reb_s)
    assert list(got) == want
    # a record whose flags do not change comes back as the same object
    assert [g is r for g, r in zip(got, records)] == [w is r for w, r in zip(want, records)]


def _assert_same_columns(got: TraceColumns, want: TraceColumns):
    for f in fields(TraceColumns):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and a.tolist() == b.tolist(), f.name
        else:
            assert a == b, f.name


@given(records=_hand_built(), dup_s=WINDOWS_S.filter(lambda s: s != 1e300))
@settings(max_examples=100, deadline=None)
def test_marked_trace_carries_its_columns(records, dup_s):
    # the columns come with the marked trace and equal a build from its
    # records; re-marking a marked trace with another window hands them on again
    marked = mark_flags(UnifiedTrace(tuple(records), ("m0",)))
    remarked = mark_flags(marked, window_dup_s=dup_s)
    for trace in (marked, remarked):
        assert "columns" in vars(trace)
        _assert_same_columns(trace.columns, trace_columns(trace.records))


@pytest.mark.parametrize("t", [I64_MAX + 1, I64_MIN - 1])
def test_timestamp_outside_int64_raises_input_error(t):
    records = (rec_ns(0, "m0"), rec_ns(t, "m1"))
    with pytest.raises(InputError, match="a record's timestamp_ns does not fit in int64"):
        mark_flags(UnifiedTrace(records, ("m0", "m1")))
