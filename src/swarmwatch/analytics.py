"""Content-popularity metrics and descriptive trace reports.

Popularity comes in two flavors: raw request popularity (every non-cancel
want counts) and unique request popularity (distinct requesting peers per
cid). The power-law fitter follows the Clauset-Shalizi-Newman recipe for
discrete data: MLE for the exponent at each candidate cutoff, cutoff chosen
by minimal KS distance, and a semi-parametric bootstrap for the p-value
(reject the power-law hypothesis when p < 0.1).
"""

from __future__ import annotations

import ipaddress
import re
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence, Union

import numpy as np
from scipy.special import zeta

from .core import Cid, NodeId, RequestType, TraceRecord
from .errors import DegenerateSampleError
from .pipeline import UnifiedTrace

_NS = 1_000_000_000

RecordSource = Union[UnifiedTrace, Iterable[TraceRecord]]


def _records(source: RecordSource) -> Sequence[TraceRecord]:
    if isinstance(source, UnifiedTrace):
        return source.records
    return list(source)


@dataclass(frozen=True)
class PopularityTable:
    """Per-cid request counts over a trace window."""

    rrp: dict[Cid, int]
    urp: dict[Cid, int]
    window_ns: tuple[int, int] | None

    def __len__(self) -> int:
        return len(self.rrp)

    def rrp_scores(self) -> list[int]:
        return sorted(self.rrp.values(), reverse=True)

    def urp_scores(self) -> list[int]:
        return sorted(self.urp.values(), reverse=True)


def popularity(source: RecordSource, drop_flagged: bool = True) -> PopularityTable:
    """Tally raw and unique request popularity per cid.

    Cancels never count. With ``drop_flagged`` (the default), records
    carrying either flag bit are excluded, so re-broadcasts and
    inter-monitor duplicates do not inflate the scores.
    """
    rrp: dict[Cid, int] = {}
    wanters: dict[Cid, set[NodeId]] = {}
    t_lo = t_hi = None
    for r in _records(source):
        if r.request_type is RequestType.CANCEL:
            continue
        if drop_flagged and r.flags:
            continue
        rrp[r.cid] = rrp.get(r.cid, 0) + 1
        wanters.setdefault(r.cid, set()).add(r.peer)
        t_lo = r.timestamp_ns if t_lo is None else min(t_lo, r.timestamp_ns)
        t_hi = r.timestamp_ns if t_hi is None else max(t_hi, r.timestamp_ns)
    urp = {cid: len(peers) for cid, peers in wanters.items()}
    window = (t_lo, t_hi) if t_lo is not None else None
    return PopularityTable(rrp=rrp, urp=urp, window_ns=window)


def ecdf(scores: Sequence[int]) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF points (value, cumulative fraction)."""
    if len(scores) == 0:
        raise ValueError("cannot build an ECDF from no scores")
    values, counts = np.unique(np.asarray(scores), return_counts=True)
    fractions = np.cumsum(counts) / len(scores)
    fractions[-1] = 1.0
    return [(float(v), float(f)) for v, f in zip(values, fractions)]


@dataclass(frozen=True)
class PowerLawFit:
    alpha: float
    x_min: int
    ks_statistic: float
    p_value: float
    n_tail: int
    bootstraps: int

    @property
    def rejected(self) -> bool:
        """Power-law hypothesis rejected at the fixed 0.1 threshold."""
        return self.p_value < 0.1


def _log_zeta_slope(alpha: np.ndarray, q: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """d/da log zeta(a, q) by central difference, vectorized."""
    return (np.log(zeta(alpha + h, q)) - np.log(zeta(alpha - h, q))) / (2 * h)


# Exponent search range of the reference discrete fitting procedure. The
# MLE solution is clamped into it; without the cap the cutoff scan can
# escape into a tiny deep tail where arbitrarily steep "power laws" fit
# any decaying distribution.
DEFAULT_ALPHA_RANGE = (1.5, 3.5)


def _alpha_mle(
    xmins: np.ndarray,
    mean_log_tail: np.ndarray,
    alpha_range: tuple[float, float],
) -> np.ndarray:
    """Solve d/da log zeta(a, xmin) = -mean(log x) per candidate by bisection,
    clamped to the allowed exponent range."""
    lo = np.full(xmins.shape, max(1.0005, alpha_range[0]))
    hi = np.full(xmins.shape, max(2.0, alpha_range[0] + 0.5))
    target = -mean_log_tail
    # expand upper brackets until the objective changes sign (capped)
    for _ in range(8):
        need = _log_zeta_slope(hi, xmins) < target
        if not need.any():
            break
        hi = np.where(need, hi * 2.0, hi)
    hi = np.minimum(hi, 512.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        below = _log_zeta_slope(mid, xmins) < target
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.clip(0.5 * (lo + hi), alpha_range[0], alpha_range[1])


def _fit_tail(
    x: np.ndarray,
    xmin_quantile: float = 0.9,
    alpha_range: tuple[float, float] = DEFAULT_ALPHA_RANGE,
):
    """Scan candidate cutoffs, fit alpha at each, keep the minimal-KS one.

    Returns (alpha, xmin, ks, n_tail).
    """
    n = len(x)
    u, counts = np.unique(x, return_counts=True)
    cum = np.cumsum(counts)
    log_u = np.log(u.astype(np.float64))
    # suffix sums of log x over the tail starting at each unique value
    tail_log_sum = np.cumsum((counts * log_u)[::-1])[::-1]
    tail_n = n - np.concatenate(([0], cum[:-1]))
    cap = np.quantile(u, xmin_quantile)
    cand = np.nonzero((u <= cap) & (tail_n >= 2) & (np.arange(len(u)) < len(u) - 1))[0]
    if len(cand) == 0:
        cand = np.array([0])
    xmins = u[cand].astype(np.float64)
    mean_log = tail_log_sum[cand] / tail_n[cand]
    alphas = _alpha_mle(xmins, mean_log, alpha_range)
    # model CDF at every unique value, per candidate, in one broadcast call
    z_all = zeta(alphas[:, None], u[None, :].astype(np.float64) + 1.0)
    z_base = zeta(alphas, xmins)
    best = None
    for row, j in enumerate(cand):
        model_cdf = 1.0 - z_all[row, j:] / z_base[row]
        below = cum[j - 1] if j > 0 else 0
        emp_cdf = (cum[j:] - below) / tail_n[j]
        ks = float(np.max(np.abs(emp_cdf - model_cdf)))
        if best is None or ks < best[2]:
            best = (float(alphas[row]), int(u[j]), ks, int(tail_n[j]))
    return best


class _DiscretePowerLawSampler:
    """Draws from the fitted discrete power law: exact inverse-CDF table up
    to a cap, continuous approximation beyond it."""

    _TABLE_SPAN = 1 << 17

    def __init__(self, alpha: float, xmin: int):
        self.alpha = alpha
        self.xmin = xmin
        ks = np.arange(xmin, xmin + self._TABLE_SPAN, dtype=np.float64)
        pmf = ks ** (-alpha) / zeta(alpha, xmin)
        self._cdf = np.cumsum(pmf)
        self._values = ks.astype(np.int64)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        in_table = u < self._cdf[-1]
        idx = np.searchsorted(self._cdf, u[in_table], side="right")
        out[in_table] = self._values[idx]
        rest = ~in_table
        if rest.any():
            y = (self.xmin - 0.5) * (1.0 - u[rest]) ** (-1.0 / (self.alpha - 1.0))
            out[rest] = np.floor(np.minimum(y + 0.5, 1e18)).astype(np.int64)
        return out


def fit_power_law(
    samples: Sequence[int],
    bootstraps: int = 250,
    seed: int = 0,
    *,
    xmin_quantile: float = 0.9,
    alpha_range: tuple[float, float] = DEFAULT_ALPHA_RANGE,
) -> PowerLawFit:
    """Fit a discrete power law and bootstrap its goodness of fit.

    The cutoff is searched over unique sample values up to the configured
    quantile (guaranteeing at least two tail points), alpha by maximum
    likelihood given the cutoff, and the p-value by refitting synthetic
    samples drawn from the fitted model above the cutoff and from the data
    below it. The p-value is the share of replicates whose KS distance
    reaches the observed one, among those not skipped for being constant;
    it is nan when every replicate was skipped (or ``bootstraps`` is 0).
    Deterministic for a fixed seed.
    """
    x = np.asarray(list(samples), dtype=np.int64)
    if len(x) < 50:
        raise ValueError("need at least 50 samples to fit")
    if (x < 1).any():
        raise ValueError("samples must be positive integers")
    if x.min() == x.max():
        raise DegenerateSampleError("all samples are equal")
    alpha, xmin, ks_obs, n_tail = _fit_tail(x, xmin_quantile, alpha_range)
    sampler = _DiscretePowerLawSampler(alpha, xmin)
    body = x[x < xmin]
    n = len(x)
    p_tail = n_tail / n
    exceed = ran = 0
    for b in range(bootstraps):
        rng = np.random.default_rng([seed, b])
        tail_mask = rng.random(n) < p_tail
        k = int(tail_mask.sum())
        syn = np.empty(n, dtype=np.int64)
        if n - k:
            syn[: n - k] = rng.choice(body, size=n - k, replace=True)
        if k:
            syn[n - k :] = sampler.draw(rng, k)
        if syn.min() == syn.max():
            continue  # a constant replicate has no fit; it counts in neither tally
        ran += 1
        _, _, ks_syn, _ = _fit_tail(syn, xmin_quantile, alpha_range)
        if ks_syn >= ks_obs:
            exceed += 1
    return PowerLawFit(
        alpha=alpha,
        x_min=xmin,
        ks_statistic=ks_obs,
        p_value=exceed / ran if ran else float("nan"),
        n_tail=n_tail,
        bootstraps=bootstraps,
    )


@dataclass(frozen=True)
class ShareRow:
    label: str
    count: int
    share_pct: float


def codec_share(source: RecordSource) -> list[ShareRow]:
    """Requests by cid codec, from raw records; cancels excluded, flags ignored."""
    counts: dict[str, int] = {}
    for r in _records(source):
        if r.request_type is RequestType.CANCEL:
            continue
        name = r.cid.codec.name
        counts[name] = counts.get(name, 0) + 1
    total = sum(counts.values())
    rows = [
        ShareRow(name, c, 100.0 * c / total if total else 0.0)
        for name, c in counts.items()
    ]
    rows.sort(key=lambda row: (-row.count, row.label))
    return rows


@dataclass(frozen=True)
class GeoDb:
    """Offline CIDR-to-country table resolved by longest prefix; IPv4 and
    IPv6 prefixes are kept apart and each matches only its own version."""

    entries: tuple[tuple[str, str], ...]

    def __post_init__(self):
        # IP version -> prefix length -> network address -> country
        tables: dict[int, dict[int, dict[int, str]]] = {4: {}, 6: {}}
        for cidr, country in self.entries:
            net = ipaddress.ip_network(cidr, strict=True)
            tables[net.version].setdefault(net.prefixlen, {})[int(net.network_address)] = country
        # per version, (prefix length, table) pairs, longest prefix first
        object.__setattr__(
            self, "_tables", {v: sorted(t.items(), reverse=True) for v, t in tables.items()}
        )

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "GeoDb":
        return cls(entries=tuple(pairs))

    @classmethod
    def from_csv(cls, source) -> "GeoDb":
        import csv

        from .core import _open_for, _finish

        stream, owned = _open_for(source, "r")
        try:
            rows = [row for row in csv.reader(stream) if row]
        finally:
            _finish(stream, owned)
        if rows and rows[0][:2] == ["cidr", "country"]:
            rows = rows[1:]
        return cls.from_pairs((row[0], row[1]) for row in rows)

    def lookup(self, ip: str) -> str | None:
        try:
            addr = ipaddress.ip_address(ip)
        except ValueError:
            return None
        value = int(addr)
        for plen, table in self._tables[addr.version]:
            shift = addr.max_prefixlen - plen
            hit = table.get(value >> shift << shift)
            if hit is not None:
                return hit
        return None


_IP_RE = re.compile(r"/ip[46]/([0-9A-Fa-f.:]+)(?:/|$)")

UNRESOLVED_COUNTRY = "??"


def _address_ip(address: str) -> str | None:
    m = _IP_RE.search(address)
    if m:
        return m.group(1)
    return address if re.fullmatch(r"[0-9.]+", address) else None


def geo_share(
    source: RecordSource, db: GeoDb, drop_flagged: bool = True
) -> list[ShareRow]:
    """Requests by origin country over deduplicated, non-cancel records.

    Unmatched or unparseable addresses land in the "??" bucket; they are
    never fatal.
    """
    if len(db) == 0:
        raise ValueError("geo database is empty")
    counts: dict[str, int] = {}
    for r in _records(source):
        if r.request_type is RequestType.CANCEL:
            continue
        if drop_flagged and r.flags:
            continue
        ip = _address_ip(r.address)
        country = db.lookup(ip) if ip else None
        label = country if country is not None else UNRESOLVED_COUNTRY
        counts[label] = counts.get(label, 0) + 1
    total = sum(counts.values())
    rows = [
        ShareRow(country, c, 100.0 * c / total if total else 0.0)
        for country, c in counts.items()
    ]
    rows.sort(key=lambda row: (-row.count, row.label))
    return rows


@dataclass(frozen=True)
class RatePoint:
    bucket_start_ns: int
    group: str
    rate_per_s: float


NON_GATEWAY_GROUP = "non-gateway"


def rate_timeseries(
    source: RecordSource,
    bucket_s: float = 3600.0,
    group_by: str = "request_type",
    group_map: Mapping[NodeId, str] | None = None,
    drop_flagged: bool = False,
) -> list[RatePoint]:
    """Per-bucket request rates, grouped by entry type or by origin group.

    Cancels are excluded; these are request rates. With
    ``group_by="origin_group"`` each peer is classified through
    ``group_map`` (e.g. gateway / named operator), defaulting to
    "non-gateway" for unmapped peers.
    """
    if bucket_s <= 0:
        raise ValueError("bucket must be positive")
    if group_by not in ("request_type", "origin_group"):
        raise ValueError(f"unknown group_by: {group_by!r}")
    bucket_ns = int(bucket_s * _NS)
    counts: dict[tuple[int, str], int] = {}
    for r in _records(source):
        if r.request_type is RequestType.CANCEL:
            continue
        if drop_flagged and r.flags:
            continue
        if group_by == "request_type":
            group = r.request_type.value
        else:
            group = group_map.get(r.peer, NON_GATEWAY_GROUP) if group_map else NON_GATEWAY_GROUP
        bucket = (r.timestamp_ns // bucket_ns) * bucket_ns
        counts[(bucket, group)] = counts.get((bucket, group), 0) + 1
    points = [
        RatePoint(bucket, group, c / bucket_s)
        for (bucket, group), c in counts.items()
    ]
    points.sort(key=lambda p: (p.bucket_start_ns, p.group))
    return points
