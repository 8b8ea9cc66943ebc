"""Network-size estimation from monitor vantage points.

Three families of estimators:

* two-monitor capture-recapture: N = |P1||P2| / |P1 n P2|,
* the r-monitor generalization via the coupon-collector / committee
  occupancy model, solved numerically from the union size, and
* the DHT minimum-XOR-distance maximum-likelihood estimator,
  N = -k / sum(log(1 - x_j)) over observed normalized minimum distances.

Plus the bookkeeping to derive peer-set statistics from connection-event
logs and the monitoring-coverage ratio.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import combinations
from typing import Mapping, Sequence

from .core import ConnEvent, ConnEventKind, NodeId
from .errors import DegenerateSampleError, DisjointSamplesError

_NS = 1_000_000_000

# solve_coupon_mle bisects on [m, COUPON_N_MAX] until the bracket is within
# COUPON_REL_TOL of its lower end
COUPON_N_MAX = 1e12
COUPON_REL_TOL = 1e-9


class EstimatorMethod(Enum):
    TWO_MONITOR = "two-monitor"
    COUPON_MLE = "coupon"
    DHT_MIN_DIST_SINGLE = "dht-min-single"
    DHT_MIN_DIST_MULTI = "dht-min-multi"


@dataclass(frozen=True)
class SizeEstimate:
    n_hat: float
    method: EstimatorMethod
    iterations: int = 0
    residual: float = 0.0


def estimate_two_monitor(p1: int, p2: int, intersection: int) -> SizeEstimate:
    """Capture-recapture estimate from two peer sets and their overlap."""
    if p1 < 0 or p2 < 0 or intersection < 0:
        raise ValueError("peer-set sizes must be non-negative")
    if intersection > min(p1, p2):
        raise ValueError("intersection exceeds a peer-set size")
    if intersection == 0:
        raise DisjointSamplesError(
            "peer sets are disjoint, the two-monitor estimate diverges"
        )
    return SizeEstimate(p1 * p2 / intersection, EstimatorMethod.TWO_MONITOR)


def coupon_density(n_total: int, w: int, r: int, m: int) -> float:
    """P[m distinct peers after r independent draws of w without replacement].

    Built draw by draw: the overlap of a new draw with the current union is
    hypergeometric, so each draw's union-size distribution is a sum of
    positive terms over the previous one. No term cancels, so the density
    stays accurate and normalised for any population.
    """
    if r < 1 or w < 0:
        raise ValueError("need r >= 1 and w >= 0")
    if w > n_total:
        raise ValueError("draw size exceeds population")
    if not (w <= m <= min(n_total, r * w)):
        raise ValueError(f"m={m} outside feasible range [{w}, {min(n_total, r * w)}]")
    return _union_size_pmf(n_total, w, r)[m - w]


@lru_cache(maxsize=64)
def _union_size_pmf(n_total: int, w: int, r: int) -> tuple[float, ...]:
    """P[union size is u] after r draws of w from n_total, for u = w ...
    min(n_total, r * w); cached, since a likelihood scan reads every u."""
    log_fact = [math.lgamma(i + 1) for i in range(n_total + 1)]

    def log_comb(n: int, k: int) -> float:
        return log_fact[n] - log_fact[k] - log_fact[n - k]

    log_draws = log_comb(n_total, w)
    pmf = {w: 1.0}
    for _ in range(r - 1):
        nxt: dict[int, float] = {}
        for u, p in pmf.items():
            # k of the w new peers fall inside the current union of u
            for k in range(max(0, w - (n_total - u)), min(w, u) + 1):
                q = math.exp(log_comb(u, k) + log_comb(n_total - u, w - k) - log_draws)
                nxt[u + w - k] = nxt.get(u + w - k, 0.0) + p * q
        pmf = nxt
    return tuple(pmf.get(u, 0.0) for u in range(w, min(n_total, r * w) + 1))


def solve_coupon_mle(m: int, r: int, w: float) -> SizeEstimate:
    """Maximum-likelihood population size given the union of r draws of w.

    Solves N - N * (1 - m/N)^(1/r) - w = 0 by bracketed bisection on
    [m, COUPON_N_MAX]. ``w`` may be fractional (a mean connection count).
    """
    if r < 2:
        raise ValueError("need at least two draws")
    if w <= 0:
        raise ValueError("draw size must be positive")
    if m < w:
        raise ValueError("union cannot be smaller than one draw")
    if m > r * w:
        raise ValueError("union cannot exceed r * w")
    if m == w:
        # total overlap: N = w zeroes the expression exactly
        return SizeEstimate(float(w), EstimatorMethod.COUPON_MLE)
    if m >= r * w:
        raise DisjointSamplesError(
            "draws are pairwise disjoint (m = r*w), the estimate diverges"
        )

    def f(n: float) -> float:
        return n - n * (1.0 - m / n) ** (1.0 / r) - w

    lo, hi = float(m), COUPON_N_MAX
    if f(hi) > 0:
        raise DisjointSamplesError(f"no finite root below N = {COUPON_N_MAX:g}")
    iterations = 0
    while hi - lo > COUPON_REL_TOL * max(1.0, lo):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
        if iterations > 400:
            break
    root = 0.5 * (lo + hi)
    return SizeEstimate(root, EstimatorMethod.COUPON_MLE, iterations, f(root))


def dht_size_from_min_distance(xs: Sequence[float]) -> SizeEstimate:
    """MLE of the population size from normalized minimum XOR distances.

    For one observation this reduces to N = -1 / log(1 - x).
    """
    if not xs:
        raise ValueError("need at least one distance sample")
    total = 0.0
    for x in xs:
        if x == 0.0:
            raise DegenerateSampleError("zero minimum distance (target collides)")
        if not 0.0 < x < 1.0:
            raise ValueError(f"distance {x} outside (0, 1)")
        total += math.log1p(-x)
    method = (
        EstimatorMethod.DHT_MIN_DIST_SINGLE
        if len(xs) == 1
        else EstimatorMethod.DHT_MIN_DIST_MULTI
    )
    return SizeEstimate(-len(xs) / total, method)


@dataclass(frozen=True)
class PeerSetStats:
    """Peer-set cardinalities over a time window, per monitor and joint."""

    sizes: dict[str, int]
    intersections: dict[tuple[str, str], int]
    union_size: int
    r: int
    w_per_monitor: dict[str, float]
    w: float
    peer_sets: dict[str, frozenset[NodeId]] = field(repr=False, default_factory=dict)

    @property
    def m(self) -> int:
        return self.union_size


def _intervals(
    events: Sequence[ConnEvent],
) -> dict[NodeId, list[tuple[int, float]]]:
    """Per-peer connected intervals [start, end) from alternating events."""
    spans: dict[NodeId, list[tuple[int, float]]] = {}
    open_at: dict[NodeId, int] = {}
    for e in sorted(events, key=lambda e: e.timestamp_ns):
        if e.kind is ConnEventKind.CONNECT:
            if e.peer in open_at:
                raise ValueError(f"double connect for peer {e.peer} on {e.monitor}")
            open_at[e.peer] = e.timestamp_ns
        else:
            if e.peer not in open_at:
                raise ValueError(f"disconnect without connect for peer {e.peer}")
            spans.setdefault(e.peer, []).append((open_at.pop(e.peer), e.timestamp_ns))
    for peer, start in open_at.items():
        spans.setdefault(peer, []).append((start, math.inf))
    return spans


def peer_set_stats(
    conn_events: Mapping[str, Sequence[ConnEvent]],
    window: tuple[int, int],
    *,
    sample_interval_s: float = 60.0,
) -> PeerSetStats:
    """Peer sets seen by each monitor during [t0, t1) plus the mean
    instantaneous connection count, sampled on a fixed grid."""
    t0, t1 = window
    if t1 <= t0:
        raise ValueError("window end must be after window start")
    step = int(sample_interval_s * _NS)
    instants = list(range(t0, t1, step)) or [t0]
    sets: dict[str, frozenset[NodeId]] = {}
    w_per_monitor: dict[str, float] = {}
    for monitor in sorted(conn_events):
        spans = _intervals(conn_events[monitor])
        seen = frozenset(
            peer
            for peer, intervals in spans.items()
            if any(start < t1 and end > t0 for start, end in intervals)
        )
        sets[monitor] = seen
        # a peer's intervals are disjoint, so the peers connected at t are
        # the intervals started by t less those also ended by t
        starts = sorted(start for ivs in spans.values() for start, _ in ivs)
        ends = sorted(end for ivs in spans.values() for _, end in ivs)
        counts = [bisect_right(starts, t) - bisect_right(ends, t) for t in instants]
        w_per_monitor[monitor] = sum(counts) / len(counts)
    monitors = sorted(sets)
    union: set[NodeId] = set()
    for s in sets.values():
        union |= s
    intersections = {
        (a, b): len(sets[a] & sets[b]) for a, b in combinations(monitors, 2)
    }
    mean_w = sum(w_per_monitor.values()) / len(w_per_monitor) if w_per_monitor else 0.0
    return PeerSetStats(
        sizes={m: len(sets[m]) for m in monitors},
        intersections=intersections,
        union_size=len(union),
        r=len(monitors),
        w_per_monitor=w_per_monitor,
        w=mean_w,
        peer_sets=sets,
    )


def coverage(mean_connected: float, network_size_ref: float) -> float:
    """Fraction of the network a monitor hears from, given a reference size."""
    if mean_connected <= 0 or network_size_ref <= 0:
        raise ValueError("inputs must be positive")
    return min(1.0, mean_connected / network_size_ref)
