import math
import random
from collections import defaultdict
from dataclasses import fields
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swarmwatch import estimators
from swarmwatch.core import ConnEvent, ConnEventKind, NodeId
from swarmwatch.errors import (
    ConnEventOrderError,
    DegenerateSampleError,
    DisjointSamplesError,
    InputError,
    SwarmwatchError,
)
from swarmwatch.estimators import (
    EstimatorMethod,
    PeerSetStats,
    coupon_density,
    coverage,
    dht_size_from_min_distance,
    estimate_two_monitor,
    peer_set_stats,
    solve_coupon_mle,
)

from helpers import reference_peer_set_stats

NS = 1_000_000_000


def exact_coupon_density(n: int, w: int, r: int, m: int) -> Fraction:
    """Exact P[union of r draws of w from n has m peers], by inclusion-exclusion
    over the peers of a fixed m-set in integers: no rounding, no cancellation."""
    onto = sum((-1) ** (m - k) * math.comb(m, k) * math.comb(k, w) ** r for k in range(w, m + 1))
    return Fraction(math.comb(n, m) * onto, math.comb(n, w) ** r)


class TestTwoMonitor:
    def test_identical_sets(self):
        assert estimate_two_monitor(100, 100, 100).n_hat == 100

    def test_direct_formula(self):
        assert estimate_two_monitor(700, 700, 49).n_hat == pytest.approx(10000)

    def test_symmetry(self):
        assert (
            estimate_two_monitor(300, 500, 40).n_hat
            == estimate_two_monitor(500, 300, 40).n_hat
        )

    def test_disjoint_raises(self):
        with pytest.raises(DisjointSamplesError):
            estimate_two_monitor(10, 10, 0)

    def test_bad_intersection(self):
        with pytest.raises(ValueError):
            estimate_two_monitor(10, 10, 11)

    @pytest.mark.parametrize("counts, name", [
        ((10.5, 8, 4), "p1"), ((10, 8.25, 4), "p2"), ((10, 8, 3.5), "intersection"),
        ((10, 8, math.nan), "intersection"), ((math.inf, 8, 4), "p1"),
    ])
    def test_fractional_count_names_itself(self, counts, name):
        with pytest.raises(InputError, match=f"^{name} must be a whole number"):
            estimate_two_monitor(*counts)

    def test_whole_floats_are_counts(self):
        assert estimate_two_monitor(700.0, 700, 49.0) == estimate_two_monitor(700, 700, 49)

    def test_urn_oracle_median_within_10pct(self):
        # Monte-Carlo urn: N=10000, two independent 700-draws, 200 seeds
        n, w = 10000, 700
        estimates = []
        for seed in range(200):
            rng = random.Random(seed)
            a = set(rng.sample(range(n), w))
            b = set(rng.sample(range(n), w))
            inter = len(a & b)
            if inter == 0:
                continue
            estimates.append(estimate_two_monitor(w, w, inter).n_hat)
        estimates.sort()
        median = estimates[len(estimates) // 2]
        assert abs(median - n) / n < 0.10


class TestCouponDensity:
    def test_one_draw_is_certain(self):
        assert coupon_density(50, 7, 1, 7) == pytest.approx(1.0)

    def test_exhaustive_n3_w1_r2(self):
        # enumeration oracle: all 9 ordered pairs of single draws from 3
        outcomes = [len({a, b}) for a, b in product(range(3), repeat=2)]
        expect = outcomes.count(2) / len(outcomes)
        assert expect == pytest.approx(2 / 3)
        assert coupon_density(3, 1, 2, 2) == pytest.approx(expect, abs=1e-12)

    def test_matches_full_enumeration(self):
        # enumerate every combination of r draws of size w from N items
        n, w, r = 6, 2, 3
        draws = list(combinations(range(n), w))
        counts = {}
        for chosen in product(draws, repeat=r):
            m = len(set().union(*chosen))
            counts[m] = counts.get(m, 0) + 1
        total = len(draws) ** r
        for m, c in counts.items():
            assert coupon_density(n, w, r, m) == pytest.approx(c / total, rel=1e-9)

    def test_normalizes(self):
        for n, w, r in [(6, 2, 3), (10, 3, 2), (30, 4, 4)]:
            s = sum(coupon_density(n, w, r, m) for m in range(w, min(n, r * w) + 1))
            assert s == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n, w, r", [(100, 20, 3), (200, 40, 3), (3000, 400, 4)])
    def test_normalizes_inside_promised_domain(self, n, w, r):
        s = sum(coupon_density(n, w, r, m) for m in range(w, min(n, r * w) + 1))
        assert s == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("n, w, r", [(100, 20, 3), (200, 40, 3), (40, 7, 5)])
    def test_matches_exact_oracle(self, n, w, r):
        for m in range(w, min(n, r * w) + 1):
            exact = exact_coupon_density(n, w, r, m)
            assert coupon_density(n, w, r, m) == pytest.approx(float(exact), rel=1e-9, abs=1e-300)

    @given(n=st.integers(1, 60), w=st.integers(1, 15), r=st.integers(1, 5), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_exact_oracle_property(self, n, w, r, data):
        w = min(w, n)
        m = data.draw(st.integers(w, min(n, r * w)))
        exact = exact_coupon_density(n, w, r, m)
        assert coupon_density(n, w, r, m) == pytest.approx(float(exact), rel=1e-9, abs=1e-300)

    def test_large_population_no_overflow(self):
        p = coupon_density(100_000, 700, 2, 1300)
        assert 0.0 <= p <= 1.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            coupon_density(10, 4, 2, 3)  # m < w
        with pytest.raises(ValueError):
            coupon_density(10, 4, 2, 9)  # m > r*w
        with pytest.raises(ValueError):
            coupon_density(3, 5, 2, 5)  # w > N


class TestCouponMle:
    def test_total_overlap_gives_w(self):
        for r in (2, 3, 5):
            assert solve_coupon_mle(700, r, 700).n_hat == 700.0

    def test_r2_equals_two_monitor_closed_form(self):
        # m = 2w - intersection makes the r=2 MLE equal |P1||P2|/overlap
        est = solve_coupon_mle(2 * 700 - 49, 2, 700)
        ref = estimate_two_monitor(700, 700, 49).n_hat
        assert abs(est.n_hat - ref) / ref < 1e-6

    @given(
        w=st.integers(2, 2000),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_r2_equivalence_property(self, w, data):
        inter = data.draw(st.integers(1, w - 1))
        m = 2 * w - inter
        est = solve_coupon_mle(m, 2, w).n_hat
        ref = w * w / inter
        assert abs(est - ref) / ref < 1e-6

    def test_disjoint_draws_raise(self):
        with pytest.raises(DisjointSamplesError):
            solve_coupon_mle(1400, 2, 700)

    def test_urn_oracle_r4_within_7pct(self):
        n, w, r = 10000, 700, 4
        estimates = []
        for seed in range(200):
            rng = random.Random(1000 + seed)
            union = set()
            for _ in range(r):
                union.update(rng.sample(range(n), w))
            estimates.append(solve_coupon_mle(len(union), r, w).n_hat)
        estimates.sort()
        median = estimates[len(estimates) // 2]
        assert abs(median - n) / n < 0.07

    def test_density_peaks_near_estimate(self):
        # grid-search oracle: the density over integer N is maximized
        # within +-1 of the rounded MLE solution
        for r, w, m in [(2, 10, 15), (3, 8, 18), (4, 5, 14)]:
            n_hat = solve_coupon_mle(m, r, w).n_hat
            grid = range(m, 501)
            best = max(grid, key=lambda n: coupon_density(n, w, r, m))
            assert abs(best - round(n_hat)) <= 1

    def test_fractional_w(self):
        est = solve_coupon_mle(1300, 2, 700.5)
        assert est.n_hat > 1300

    @pytest.mark.parametrize("m, r, name", [(5, 2.5, "r"), (5.5, 2, "m"), (math.nan, 2, "m")])
    def test_fractional_count_names_itself(self, m, r, name):
        with pytest.raises(InputError, match=f"^{name} must be a whole number"):
            solve_coupon_mle(m, r, 3)

    def test_whole_floats_are_counts(self):
        assert solve_coupon_mle(1300.0, 2.0, 700.5) == solve_coupon_mle(1300, 2, 700.5)


class TestDhtMinDistance:
    def test_single_observation_inverts(self):
        x = 1 - math.exp(-1 / 100)
        assert dht_size_from_min_distance([x]).n_hat == pytest.approx(100)
        assert dht_size_from_min_distance([x]).method is EstimatorMethod.DHT_MIN_DIST_SINGLE

    def test_repeated_observation_equals_single(self):
        x = 0.003
        single = dht_size_from_min_distance([x]).n_hat
        multi = dht_size_from_min_distance([x] * 10)
        assert multi.n_hat == pytest.approx(single)
        assert multi.method is EstimatorMethod.DHT_MIN_DIST_MULTI

    def test_zero_distance_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            dht_size_from_min_distance([0.001, 0.0])

    def test_domain(self):
        with pytest.raises(ValueError):
            dht_size_from_min_distance([1.0])
        with pytest.raises(ValueError):
            dht_size_from_min_distance([])

    def test_monte_carlo_recovery(self):
        # direct simulation of the order-statistic model
        rng = random.Random(3)
        n = 2000
        xs = [min(rng.random() for _ in range(n)) for _ in range(500)]
        est = dht_size_from_min_distance(xs)
        assert abs(est.n_hat - n) / n < 0.10


def _ev(t_s, monitor, peer, kind):
    return ConnEvent(int(t_s * NS), monitor, peer, kind)


CONNECT = ConnEventKind.CONNECT
DISCONNECT = ConnEventKind.DISCONNECT
_PEERS = [NodeId(1), NodeId(2), NodeId(3), NodeId(4), NodeId(2**255 + 7)]


@st.composite
def _conn_logs(draw):
    """Up to three monitors' event lists over a shared peer pool. Each peer
    alternates connect/disconnect at whole seconds in [0, 250], zero gaps
    giving reconnects and connections at the same nanosecond, and may stay
    connected. Each list is shuffled with equal-time events kept in schedule
    order, then sometimes gets one or two stray events, often at the time of
    another event, that may break alternation."""
    logs = {}
    for m in range(draw(st.integers(0, 3))):
        name = f"m{m}"
        events = []
        for peer in draw(st.lists(st.sampled_from(_PEERS), unique=True, max_size=5)):
            t = draw(st.integers(0, 100))
            for k, gap in enumerate(draw(st.lists(st.integers(0, 40), max_size=6))):
                t += gap
                events.append(_ev(t, name, peer, DISCONNECT if k % 2 else CONNECT))
        shuffled = draw(st.permutations(events))
        slots, by_time = defaultdict(list), defaultdict(list)
        for i, e in enumerate(shuffled):
            slots[e.timestamp_ns].append(i)
        for e in events:
            by_time[e.timestamp_ns].append(e)
        for t, idx in slots.items():
            for i, e in zip(idx, by_time[t]):
                shuffled[i] = e
        for _ in range(draw(st.sampled_from([0, 0, 0, 0, 1, 1, 2]))):
            times = [e.timestamp_ns // NS for e in events] or [0]
            t = draw(st.sampled_from(times) | st.integers(0, 250))
            stray = _ev(t, name, draw(st.sampled_from(_PEERS)),
                        draw(st.sampled_from([CONNECT, DISCONNECT])))
            shuffled.insert(draw(st.integers(0, len(shuffled))), stray)
        logs[name] = shuffled
    return logs


class TestPeerSetStats:
    def test_empty(self):
        stats = peer_set_stats({"m0": [], "m1": []}, (0, 100 * NS))
        assert stats.sizes == {"m0": 0, "m1": 0}
        assert stats.union_size == 0
        assert stats.w == 0.0
        assert stats.r == 2

    def test_single_shared_peer(self):
        p = NodeId(7)
        events = {
            "m0": [_ev(0, "m0", p, CONNECT)],
            "m1": [_ev(0, "m1", p, CONNECT)],
        }
        stats = peer_set_stats(events, (0, 3600 * NS))
        assert stats.sizes == {"m0": 1, "m1": 1}
        assert stats.intersections[("m0", "m1")] == 1
        assert stats.union_size == 1
        assert stats.w == pytest.approx(1.0)

    def test_scripted_schedule_matches_hand_enumeration(self, monkeypatch):
        peers = [NodeId(i) for i in range(10)]
        events = []
        # peers i connect at i*10s, even peers disconnect at i*10+25s
        for i, p in enumerate(peers):
            events.append(_ev(i * 10, "m0", p, CONNECT))
            if i % 2 == 0:
                events.append(_ev(i * 10 + 25, "m0", p, DISCONNECT))
        # window [30s, 70s): peers with span overlapping the window:
        # connect times 0..90; peer i span [10i, 10i+25) if even else [10i, inf)
        # overlap needs 10i < 70 and (odd or 10i+25 > 30)
        expected = {
            p
            for i, p in enumerate(peers)
            if i * 10 < 70 and (i % 2 == 1 or i * 10 + 25 > 30)
        }
        monkeypatch.setattr(estimators, "SAMPLE_INTERVAL_S", 10.0)
        stats = peer_set_stats({"m0": events}, (30 * NS, 70 * NS))
        assert stats.peer_sets["m0"] == expected
        # hand check of instantaneous counts at 30,40,50,60:
        # t=30: even alive spans: [20,45),[40,65),[60,85) -> peer2; odds: 1,2(10,30 in) ->
        # compute directly instead:
        def alive(t_s):
            n = 0
            for i in range(10):
                start = i * 10
                end = start + 25 if i % 2 == 0 else math.inf
                if start <= t_s < end:
                    n += 1
            return n

        expect_w = sum(alive(t) for t in (30, 40, 50, 60)) / 4
        assert stats.w_per_monitor["m0"] == pytest.approx(expect_w)

    def test_counts_match_interval_scan(self, monkeypatch):
        # reference: at each sample instant, scan every peer's intervals.
        # They start before, in and after the window, and end in it, after
        # it or never.
        monkeypatch.setattr(estimators, "SAMPLE_INTERVAL_S", 7.5)
        met = set()
        for seed in range(30):
            rng = random.Random(seed)
            events, spans = [], []
            for i in range(40):
                t = rng.randrange(-300, 600)
                while rng.random() < 0.8:
                    end = t + rng.choice([0, 60, rng.randrange(1, 300)])
                    events.append(_ev(t, "m0", NodeId(i + 1), CONNECT))
                    if rng.random() < 0.3:
                        spans.append((t, math.inf))
                        break
                    events.append(_ev(end, "m0", NodeId(i + 1), DISCONNECT))
                    spans.append((t, end))
                    t = end + rng.choice([0, rng.randrange(1, 200)])
            t0 = rng.randrange(0, 100)
            t1 = t0 + rng.randrange(1, 600)
            stats = peer_set_stats({"m0": events}, (t0 * NS, t1 * NS))
            instants = [t0 + 7.5 * k for k in range(math.ceil((t1 - t0) / 7.5))]
            counts = [sum(start <= t < end for start, end in spans) for t in instants]
            assert stats.w_per_monitor["m0"] == sum(counts) / len(counts)
            for start, end in spans:
                if start < t1 and end > t0:
                    met.add(("before" if start < t0 else "in", "open" if end == math.inf
                             else "after" if end > t1 else "in"))
        assert met >= {("before", "after"), ("before", "open"), ("in", "in"), ("in", "open")}

    @settings(max_examples=400, deadline=None)
    @given(
        logs=_conn_logs(),
        t0=st.integers(-60, 300),
        length=st.integers(1, 200),
        interval=st.sampled_from([0.7, 1, 7.5, 13, 60, 500]),
    )
    def test_matches_reference(self, logs, t0, length, interval):
        window = (t0 * NS, (t0 + length) * NS)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(estimators, "SAMPLE_INTERVAL_S", interval)
            try:
                want = reference_peer_set_stats(logs, window, interval)
            except ConnEventOrderError as exc:
                # the same type, naming the same event (monitor, peer, timestamp)
                with pytest.raises(ConnEventOrderError) as got:
                    peer_set_stats(logs, window)
                assert str(got.value) == str(exc)
                return
            got = peer_set_stats(logs, window)
        for f in fields(PeerSetStats):
            assert getattr(got, f.name) == getattr(want, f.name), f.name
        assert all(type(p) is NodeId for s in got.peer_sets.values() for p in s)

    @pytest.mark.parametrize("first, second, named", [
        (CONNECT, CONNECT, "double connect"),
        (DISCONNECT, CONNECT, "disconnect without connect"),
    ])
    def test_order_errors_name_monitor_peer_and_time(self, first, second, named):
        p = NodeId(0xAB)
        with pytest.raises(ConnEventOrderError) as exc:
            peer_set_stats({"mon": [_ev(2, "mon", p, second), _ev(1, "mon", p, first)]},
                           (0, 10 * NS))
        assert isinstance(exc.value, ValueError) and isinstance(exc.value, SwarmwatchError)
        at = NS if first is DISCONNECT else 2 * NS
        assert str(exc.value) == f"{named} for peer {p:064x} on mon at {at} ns"

    @pytest.mark.parametrize("interval", [-1.0, 0.0, 1e-10, math.nan, math.inf, -math.inf])
    def test_sample_interval_domain(self, interval, monkeypatch):
        monkeypatch.setattr(estimators, "SAMPLE_INTERVAL_S", interval)
        with pytest.raises(ValueError, match="SAMPLE_INTERVAL_S"):
            peer_set_stats({"m0": []}, (0, 10 * NS))

    def test_one_ns_sample_interval(self, monkeypatch):
        monkeypatch.setattr(estimators, "SAMPLE_INTERVAL_S", 1e-9)
        events = {"m0": [_ev(0, "m0", NodeId(1), CONNECT)]}
        stats = peer_set_stats(events, (0, 3))
        assert stats.w_per_monitor == {"m0": 1.0}

    def test_window_over_all_of_int64(self):
        # 307,445,735 sample instants, counted without visiting them. A peer
        # connected from the first nanosecond is open at every one, an hour
        # holds 60, and the last nanosecond none: the last instant is 33.7 s
        # before it.
        lo, hi = -(2**63), 2**63 - 1
        events = {
            "m0": [ConnEvent(lo, "m0", NodeId(1), CONNECT),
                   _ev(0, "m0", NodeId(2), CONNECT), _ev(3600, "m0", NodeId(2), DISCONNECT)],
            "m1": [ConnEvent(hi - 1, "m1", NodeId(3), CONNECT)],
        }
        stats = peer_set_stats(events, (lo, hi))
        n = 307_445_735
        assert lo + (n - 1) * 60 * NS < hi - 1 < lo + n * 60 * NS
        assert stats.w_per_monitor == {"m0": (n + 60) / n, "m1": 0.0}
        assert stats.peer_sets == {"m0": {NodeId(1), NodeId(2)}, "m1": {NodeId(3)}}

    @pytest.mark.parametrize("ts", [2**63, -(2**63) - 1])
    def test_timestamp_outside_int64_names_the_monitor(self, ts):
        events = {"m0": [], "far": [ConnEvent(ts, "far", NodeId(1), CONNECT)]}
        with pytest.raises(ValueError, match="far"):
            peer_set_stats(events, (0, 10 * NS))

    def test_window_outside_int64(self):
        with pytest.raises(ValueError, match="int64"):
            peer_set_stats({"m0": []}, (0, 2**63))

    def test_alternation_enforced(self):
        p = NodeId(1)
        with pytest.raises(ValueError):
            peer_set_stats(
                {"m0": [_ev(0, "m0", p, CONNECT), _ev(1, "m0", p, CONNECT)]},
                (0, 10 * NS),
            )

    def test_bad_window(self):
        with pytest.raises(ValueError):
            peer_set_stats({"m0": []}, (10, 10))


class TestCoverage:
    def test_reported_values(self):
        assert coverage(7132.56, 14411.42) == pytest.approx(0.4949, abs=1e-4)

    def test_equal_inputs(self):
        assert coverage(5.0, 5.0) == 1.0

    def test_capped_at_one(self):
        assert coverage(10.0, 5.0) == 1.0

    def test_positive_required(self):
        with pytest.raises(ValueError):
            coverage(0.0, 10.0)
