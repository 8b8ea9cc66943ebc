"""Network-size estimation from monitor vantage points.

Three families of estimators:

* two-monitor capture-recapture: N = |P1||P2| / |P1 n P2|,
* the r-monitor generalization via the coupon-collector / committee
  occupancy model, solved numerically from the union size, and
* the DHT minimum-XOR-distance maximum-likelihood estimator,
  N = -k / sum(log(1 - x_j)) over observed normalized minimum distances.

Plus the bookkeeping to derive peer-set statistics from connection-event
logs (one stable sort per monitor per call, no per-peer Python loop) and
the monitoring-coverage ratio.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from itertools import chain, combinations, count, repeat
from numbers import Integral
from operator import attrgetter, is_
from typing import Mapping, Sequence

import numpy as np

from .core import ConnEvent, ConnEventKind, NodeId, span_ns
from .errors import ConnEventOrderError, DegenerateSampleError, DisjointSamplesError, InputError

_I64 = np.iinfo(np.int64)
_TIMESTAMP, _PEER, _KIND = map(attrgetter, ("timestamp_ns", "peer", "kind"))

# solve_coupon_mle bisects on [m, COUPON_N_MAX] until the bracket is within
# COUPON_REL_TOL of its lower end
COUPON_N_MAX = 1e12
COUPON_REL_TOL = 1e-9
# peer_set_stats samples each monitor's open connections this often from
# the window start; read when a call starts
SAMPLE_INTERVAL_S = 60.0


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


def _check_whole(**counts) -> None:
    """Raise InputError naming the first count that is not a whole number
    (a whole float such as 5.0 is one)."""
    for name, value in counts.items():
        if not (isinstance(value, Integral) or float(value).is_integer()):
            raise InputError(f"{name} must be a whole number, got {value!r}")


def estimate_two_monitor(p1: int, p2: int, intersection: int) -> SizeEstimate:
    """Capture-recapture estimate from two peer sets and their overlap."""
    _check_whole(p1=p1, p2=p2, intersection=intersection)
    if p1 < 0 or p2 < 0 or intersection < 0:
        raise InputError("peer-set sizes must be non-negative")
    if intersection > min(p1, p2):
        raise InputError("intersection exceeds a peer-set size")
    if intersection == 0:
        raise DisjointSamplesError("peer sets are disjoint, the two-monitor estimate diverges")
    return SizeEstimate(p1 * p2 / intersection, EstimatorMethod.TWO_MONITOR)


def coupon_density(n_total: int, w: int, r: int, m: int) -> float:
    """P[m distinct peers after r independent draws of w without replacement].

    Built draw by draw: the overlap of a new draw with the current union is
    hypergeometric, so each draw's union-size distribution is a sum of
    positive terms over the previous one. No term cancels, so the density
    stays accurate and normalised for any population.
    """
    if r < 1 or w < 0:
        raise InputError("need r >= 1 and w >= 0")
    if w > n_total:
        raise InputError("draw size exceeds population")
    if not (w <= m <= min(n_total, r * w)):
        raise InputError(f"m={m} outside feasible range [{w}, {min(n_total, r * w)}]")
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
    [m, COUPON_N_MAX]. ``m`` and ``r`` are counts, whole numbers; ``w`` may
    be fractional (a mean connection count).
    """
    _check_whole(m=m, r=r)
    if r < 2:
        raise InputError("need at least two draws")
    if w <= 0:
        raise InputError("draw size must be positive")
    if m < w:
        raise InputError("union cannot be smaller than one draw")
    if m > r * w:
        raise InputError("union cannot exceed r * w")
    if m == w:
        # total overlap: N = w zeroes the expression exactly
        return SizeEstimate(float(w), EstimatorMethod.COUPON_MLE)
    if m >= r * w:
        raise DisjointSamplesError("draws are pairwise disjoint (m = r*w), the estimate diverges")

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
        raise InputError("need at least one distance sample")
    total = 0.0
    for x in xs:
        if x == 0.0:
            raise DegenerateSampleError("zero minimum distance (target collides)")
        if not 0.0 < x < 1.0:
            raise InputError(f"distance {x} outside (0, 1)")
        total += math.log1p(-x)
    single = len(xs) == 1
    method = EstimatorMethod.DHT_MIN_DIST_SINGLE if single else EstimatorMethod.DHT_MIN_DIST_MULTI
    return SizeEstimate(-len(xs) / total, method)


@dataclass(frozen=True)
class PeerSetStats:
    """Peer-set cardinalities over a time window, per monitor and joint.

    ``w_per_monitor`` is each monitor's mean concurrent connection count:
    its open connections sampled every ``SAMPLE_INTERVAL_S`` over the
    window, averaged. ``w`` averages those over the monitors; neither is a
    peer-set size."""

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


def peer_set_stats(conn_events: Mapping[str, Sequence[ConnEvent]], window: tuple[int, int]
                   ) -> PeerSetStats:
    """Peer sets seen by each monitor during [t0, t1) plus the mean
    instantaneous connection count, sampled every ``SAMPLE_INTERVAL_S``
    from t0. Timestamps and the window must fit in int64. A peer's events
    must alternate connect, disconnect in time order (ties in input order);
    the first violation raises ConnEventOrderError.

    Every peer gets one integer code per call; each monitor's events become
    arrays, stably sorted by time and then by peer, so the checks, the
    connected intervals and the counts are array operations. A
    connection's sample instants are counted in closed form, so the cost
    does not grow with the window's length."""
    t0, t1 = window
    if t1 <= t0:
        raise InputError("window end must be after window start")
    if t0 < _I64.min or t1 > _I64.max:
        raise InputError(f"window {window} does not fit in int64")
    step = span_ns(SAMPLE_INTERVAL_S, "SAMPLE_INTERVAL_S")
    n_instants = -((t0 - t1) // step)
    monitors = sorted(conn_events)
    peers = {m: list(map(_PEER, conn_events[m])) for m in monitors}
    code_of = dict(zip(dict.fromkeys(chain.from_iterable(peers.values())), count()))
    seen: dict[str, np.ndarray] = {}
    w_per_monitor: dict[str, float] = {}
    for monitor in monitors:
        events = conn_events[monitor]
        n = len(events)
        try:
            ts = np.fromiter(map(_TIMESTAMP, events), np.int64, n)
        except OverflowError:
            raise InputError(f"a timestamp on {monitor} does not fit in int64") from None
        codes = np.fromiter(map(code_of.__getitem__, peers[monitor]), np.int64, n)
        connect = np.fromiter(map(is_, map(_KIND, events), repeat(ConnEventKind.CONNECT)), bool, n)
        order = np.argsort(ts, kind="stable")
        order = order[np.argsort(codes[order], kind="stable")]
        peer, t, connect = codes[order], ts[order], connect[order]
        # a peer's run of events alternates from a connect: connects at even ranks
        first = np.ones(n, bool)
        first[1:] = peer[1:] != peer[:-1]
        rank = np.arange(n) - np.maximum.accumulate(np.where(first, np.arange(n), 0))
        bad = order[connect == (rank % 2 == 1)]
        if len(bad):
            e = events[bad[np.lexsort((bad, ts[bad]))[0]]]  # first in time, then input order
            what = "double" if e.kind is ConnEventKind.CONNECT else "disconnect without"
            raise ConnEventOrderError(
                f"{what} connect for peer {e.peer:064x} on {monitor} at {e.timestamp_ns} ns"
            )
        end = np.full(n, _I64.max)  # a connect ends at its peer's next event, if any
        end[:-1] = np.where(first[1:], _I64.max, t[1:])
        start, end, peer = t[connect], end[connect], peer[connect]
        live = (start < t1) & (end > t0)
        seen[monitor] = np.unique(peer[live])
        # a connection's instants are those below its end less those below
        # its start, ceil((t - t0) / step) for t clipped to the window. Exact
        # in uint64: the clipped t - t0 is below 2**64, and so is the sum
        # short of 2**64 / n_instants connections (6e10 at a 60 s step).
        below, rest = np.divmod(np.clip(np.stack((end[live], start[live])), t0, t1)
                                .view(np.uint64) - np.uint64(t0 % 2**64), step)
        below += rest != 0
        w_per_monitor[monitor] = int((below[0] - below[1]).sum()) / n_instants
    peer_of = list(code_of)
    mean_w = sum(w_per_monitor.values()) / len(w_per_monitor) if w_per_monitor else 0.0
    return PeerSetStats(
        sizes={m: len(seen[m]) for m in monitors},
        intersections={
            (a, b): len(np.intersect1d(seen[a], seen[b], assume_unique=True))
            for a, b in combinations(monitors, 2)
        },
        union_size=len(np.unique(np.concatenate([np.empty(0, np.int64), *seen.values()]))),
        r=len(monitors),
        w_per_monitor=w_per_monitor,
        w=mean_w,
        peer_sets={m: frozenset(map(peer_of.__getitem__, seen[m].tolist())) for m in monitors},
    )


def coverage(mean_connected: float, network_size_ref: float) -> float:
    """Fraction of the network a monitor hears from, given a reference size."""
    if mean_connected <= 0 or network_size_ref <= 0:
        raise InputError("inputs must be positive")
    return min(1.0, mean_connected / network_size_ref)
