"""Content-popularity metrics and descriptive trace reports.

Popularity comes in two flavors: raw request popularity (every non-cancel
want counts) and unique request popularity (distinct requesting peers per
cid). The power-law fitter follows the Clauset-Shalizi-Newman recipe for
discrete data: MLE for the exponent at each candidate cutoff, cutoff chosen
by minimal KS distance, and a semi-parametric bootstrap for the p-value
(reject the power-law hypothesis when p < 0.1).

The trace reports compute from ``pipeline.TraceColumns``: a
``UnifiedTrace``'s own, built once and shared by every report on it, or a
set built for the call from any other iterable of records. Their records'
timestamps must fit in int64 and their request types be ``RequestType``
members; InputError names the field otherwise.
"""

from __future__ import annotations

import csv
import ipaddress
import re
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from operator import itemgetter
from socket import AF_INET, inet_pton
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.special import gammaln, zeta

from .core import Cid, Codec, NodeId, RequestType, TraceRecord, open_text, span_ns
from .errors import DegenerateSampleError, InputError
from .pipeline import REQUEST_TYPES, TraceColumns, UnifiedTrace, intern_codes, trace_columns

_CANCEL = REQUEST_TYPES.index(RequestType.CANCEL)
_I64_MAX = np.iinfo(np.int64).max


def _columns(source: Iterable[TraceRecord]) -> TraceColumns:
    """A trace's own columns; any other source gets a set built for this call."""
    if isinstance(source, UnifiedTrace):
        return source.columns
    return trace_columns(tuple(source))


def _tally(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of ``keys``, ascending, and how often each occurs.
    One ``np.sort``: ``np.unique`` takes several times as long here."""
    keys = np.sort(keys)
    new = np.empty(len(keys), bool)
    new[:1] = True
    new[1:] = keys[1:] != keys[:-1]
    starts = np.flatnonzero(new)
    return keys[starts], np.diff(starts, append=len(keys))


@dataclass(frozen=True)
class PopularityTable:
    """Per-cid request counts over a trace. ``rrp`` and ``urp`` hold the
    same cids, in the order of each cid's first counted record."""

    rrp: dict[Cid, int]
    urp: dict[Cid, int]

    def __len__(self) -> int:
        return len(self.rrp)

    def rrp_scores(self) -> list[int]:
        return sorted(self.rrp.values(), reverse=True)

    def urp_scores(self) -> list[int]:
        return sorted(self.urp.values(), reverse=True)


def popularity(source: Iterable[TraceRecord]) -> PopularityTable:
    """Tally raw and unique request popularity per cid.

    Neither cancels nor records carrying either flag bit count, so
    re-broadcasts and inter-monitor duplicates do not inflate the scores.
    """
    cols = _columns(source)
    counted = (cols.request_type != _CANCEL) & ~cols.flagged
    cid, peer = cols.cid[counted], cols.peer[counted]
    n_cids = len(cols.cids)
    # each cid's first counted record, or len(cid) for a cid with none
    first = np.full(n_cids, len(cid))
    np.minimum.at(first, cid, np.arange(len(cid)))
    codes = np.argsort(first)[:np.count_nonzero(first < len(cid))].tolist()
    rrp = np.bincount(cid, minlength=n_cids)[codes].tolist()
    # one count per distinct (cid, peer) pair
    n_peers = len(cols.peers)
    pairs = _tally(cid * n_peers + peer)[0]
    urp = np.bincount(pairs // n_peers, minlength=n_cids)[codes].tolist()
    keys = list(map(cols.cids.__getitem__, codes))
    return PopularityTable(rrp=dict(zip(keys, rrp)), urp=dict(zip(keys, urp)))


def ecdf(scores: Sequence[int]) -> list[tuple[float, float]]:
    """Right-continuous empirical CDF points (value, cumulative fraction)."""
    if len(scores) == 0:
        raise InputError("cannot build an ECDF from no scores")
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
    alpha_clamped: bool  # alpha sits on a bound of the exponent range
    replicates_skipped: int  # constant bootstrap replicates, left out of p

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
# any decaying distribution. Read when a fit starts.
ALPHA_RANGE = (1.5, 3.5)
# Spacing of the exponent grid the slope table is built on (the reference
# procedure's grid is 1.5:0.01:3.5).
ALPHA_STEP = 0.01
# Candidate cutoffs are the unique sample values up to this quantile of them,
# so the tail the fit sees never shrinks to the few largest values.
XMIN_QUANTILE = 0.9
# Bootstrap replicates refitted as one batch; bounds the memory of the KS scan.
FIT_CHUNK = 16
# Largest sample value the fit takes; the bootstrap's draws are capped there
# too, so every zeta the fit evaluates has q <= MAX_SAMPLE + 1.
MAX_SAMPLE = 10**18


class _SlopeTable:
    """d/da log zeta(a, x) at nodes ``ALPHA_STEP`` apart spanning
    ``ALPHA_RANGE``, one row per cutoff x, increasing along each row. One fit
    shares one table; rows are added for cutoffs not met before."""

    def __init__(self):
        self.alpha_range = lo, hi = ALPHA_RANGE
        # at least six grid points, so every row holds three slopes
        n_grid = max(6, int(np.ceil((hi - lo) / ALPHA_STEP - 1e-9)) + 1)
        self.grid = lo + ALPHA_STEP * np.arange(n_grid)
        # the slopes sit at the midpoints of the grid's inner steps
        self.nodes = self.grid[1:-2] + 0.5 * ALPHA_STEP
        self.xs = np.empty(0)
        self.slopes = np.empty((0, len(self.nodes)))

    def rows(self, xmins: np.ndarray) -> np.ndarray:
        """Row of each cutoff, after adding the cutoffs not in the table."""
        new = np.setdiff1d(xmins, self.xs)
        if len(new):
            log_z = np.log(zeta(self.grid[None, :], new[:, None]))
            mean = np.diff(log_z, axis=1) / ALPHA_STEP
            # a step's mean slope exceeds the slope at its midpoint by
            # ALPHA_STEP**2 / 24 times the slope's second derivative
            slopes = mean[:, 1:-1] - np.diff(mean, n=2, axis=1) / 24
            xs = np.concatenate((self.xs, new))
            order = np.argsort(xs)
            self.xs, self.slopes = xs[order], np.concatenate((self.slopes, slopes))[order]
        return np.searchsorted(self.xs, xmins)

    def alpha_mle(self, xmins: np.ndarray, mean_log_tail: np.ndarray) -> np.ndarray:
        """Solve d/da log zeta(a, xmin) = -mean(log x) per candidate, clamped
        to the allowed exponent range.

        The root of the quadratic through the table's slopes around the
        target's bracket is refined by one Newton step on ``_log_zeta_slope``
        with the quadratic's curvature there.
        """
        row = self.rows(xmins)
        target = -mean_log_tail
        # searchsorted of each target in its row: the count of slopes below it
        k = np.count_nonzero(self.slopes[row] < target[:, None], axis=1)
        j = np.clip(k, 1, len(self.nodes) - 2)
        s0, s1, s2 = (self.slopes[row, j + i] for i in (-1, 0, 1))
        b = (s2 - s0) / (2 * ALPHA_STEP)
        c = (s2 - 2 * s1 + s0) / (2 * ALPHA_STEP**2)
        r = target - s1
        # the root of s1 + b d + c d^2 = target nearest node j, in the stable form
        d = 2 * r / (b + np.sqrt(np.maximum(b * b + 4 * c * r, 0.0)))
        alpha = np.clip(self.nodes[j] + d, *self.alpha_range)
        curvature = b + 2 * c * (alpha - self.nodes[j])
        alpha -= (_log_zeta_slope(alpha, xmins) - target) / curvature
        return np.clip(alpha, *self.alpha_range)


# B_2j / (2j)! for j = 1..6, the Euler-Maclaurin weights of the zeta series in
# _zeta_triangle: the first five are summed, the sixth bounds what is left out
_EM_WEIGHTS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160, -691 / 1307674368000)
# The series starts no lower than this q, and only where its first omitted
# term is below SERIES_TOLERANCE of the value; scipy's zeta takes the rest.
SERIES_MIN_Q = 20.0
SERIES_TOLERANCE = 1e-16


def _series_min_q(s: np.ndarray) -> np.ndarray:
    """Least q, and at least SERIES_MIN_Q, at which the series' first omitted
    term |w_6| (s)_11 q**(-s - 11) is below SERIES_TOLERANCE times
    q**(1 - s) / (s - 1), a lower bound of zeta(s, q). Solved for q in log
    space, so no power of q is formed."""
    log_ratio = (np.log(-_EM_WEIGHTS[-1]) + gammaln(s + 11) - gammaln(s) + np.log(s - 1)
                 - np.log(SERIES_TOLERANCE))
    return np.maximum(SERIES_MIN_Q, np.exp(log_ratio / 12))


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """starts[i], starts[i] + 1, ..., starts[i] + lengths[i] - 1 for each i, concatenated."""
    return np.arange(lengths.sum()) + np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)


def _zeta_triangle(s: np.ndarray, q: np.ndarray, first: np.ndarray, end: np.ndarray) -> np.ndarray:
    """zeta(s[c], q[first[c]:end[c]]) for every row c, rows concatenated.

    q ascends from the least ``first`` of the rows that share an ``end`` up to
    that end (in a fit, one sample's unique values plus one). Each row's
    columns from its first q at or past ``_series_min_q`` on take the
    Euler-Maclaurin series

        zeta(s, q) = q**(1 - s) * (1 / (s - 1) + 1 / (2 q) + sum_j w_j (s)_(2j-1) q**(-2j))

    over j = 1..5, with w_j = B_2j / (2j)! and (s)_k the rising factorial,
    evaluated by Horner's rule in q**-2 with each row's coefficients. The
    power is ``np.power``, not exp(-s log q): near the underflow edge at
    s = 50, s log q reaches 700, and the rounding of that product alone
    would cost 1.6e-13 of the value. The columns before that suffix, found
    by one searchsorted per end, take scipy's zeta instead. Checked for
    1 < s <= 50, beyond the fit's ``ALPHA_RANGE``, and q up to 1e18 + 1.
    """
    length = end - first
    col = _ranges(first, length)
    r = (1.0 / q)[col]
    r2 = r * r
    rising = s.copy()  # (s)_1, then (s)_3, (s)_5, ...
    coefs = []
    for j, w in enumerate(_EM_WEIGHTS[:-1]):
        coefs.append(w * rising)
        rising = rising * (s + 2 * j + 1) * (s + 2 * j + 2)
    out = np.repeat(coefs[-1], length)
    for c in coefs[-2::-1]:
        out *= r2
        out += np.repeat(c, length)
    out *= r
    out += 0.5
    out *= r
    out += np.repeat(1.0 / (s - 1.0), length)
    out *= np.power(q[col], np.repeat(1.0 - s, length))
    # the series ran over every column; each row's prefix below its
    # switch-over is replaced by scipy's values
    min_q = _series_min_q(s)
    split = np.empty_like(first)
    for e in np.unique(end):
        rows = end == e
        start = first[rows].min()
        split[rows] = start + np.searchsorted(q[start:e], min_q[rows])
    n_scipy = np.maximum(split, first) - first
    out[_ranges(np.cumsum(length) - length, n_scipy)] = zeta(
        np.repeat(s, n_scipy), q[_ranges(first, n_scipy)])
    return out


def _fit_tails(samples: Sequence[np.ndarray], table: _SlopeTable):
    """Scan every sample's candidate cutoffs in one batch, fit alpha at each,
    and keep each sample's first minimal-KS cutoff.

    Returns arrays (alpha, xmin, ks, n_tail), one entry per sample.
    """
    u_parts, cum_parts, cand_parts, tail_parts, mean_parts, sizes = [], [], [], [], [], []
    offset = 0
    for x in samples:
        n = len(x)
        u, counts = np.unique(x, return_counts=True)
        cum = np.cumsum(counts)
        log_u = np.log(u.astype(np.float64))
        # suffix sums of log x over the tail starting at each unique value
        tail_log_sum = np.cumsum((counts * log_u)[::-1])[::-1]
        tail_n = n - np.concatenate(([0], cum[:-1]))
        cap = np.quantile(u, XMIN_QUANTILE)
        cand = np.nonzero((u <= cap) & (tail_n >= 2) & (np.arange(len(u)) < len(u) - 1))[0]
        if len(cand) == 0:
            cand = np.array([0])
        u_parts.append(u)
        cum_parts.append(cum)
        cand_parts.append(cand + offset)
        tail_parts.append(tail_n[cand])
        mean_parts.append(tail_log_sum[cand] / tail_n[cand])
        sizes.append((len(cand), offset + len(u)))
        offset += len(u)
    u_all = np.concatenate(u_parts)
    cum_all = np.concatenate(cum_parts)
    # each candidate's first column (its cutoff) and its sample's end column
    first_col = np.concatenate(cand_parts)
    n_cand, sample_end = np.array(sizes).T
    end_col = np.repeat(sample_end, n_cand)
    tail_n = np.concatenate(tail_parts)
    xmins = u_all[first_col].astype(np.float64)
    alphas = table.alpha_mle(xmins, np.concatenate(mean_parts))

    # the KS triangle: candidate c covers columns first_col[c] .. end_col[c] - 1
    length = end_col - first_col
    seg = np.cumsum(length) - length
    col = _ranges(first_col, length)
    model_cdf = 1.0 - _zeta_triangle(alphas, u_all + 1.0, first_col, end_col) / np.repeat(
        zeta(alphas, xmins), length)
    # the sample values below a cutoff, n - n_tail, are the tail CDF's zero
    below = np.repeat(cum_all[end_col - 1] - tail_n, length)
    emp_cdf = (cum_all[col] - below) / np.repeat(tail_n, length)
    ks = np.maximum.reduceat(np.abs(emp_cdf - model_cdf), seg)

    # first minimal-KS candidate of each sample (ties keep the smaller cutoff)
    starts = np.cumsum(n_cand) - n_cand
    minimal = np.flatnonzero(ks == np.repeat(np.minimum.reduceat(ks, starts), n_cand))
    best = minimal[np.searchsorted(minimal, starts)]
    return alphas[best], u_all[first_col[best]], ks[best], tail_n[best]


class _DiscretePowerLawSampler:
    """Draws from the fitted discrete power law: exact inverse-CDF table up
    to a cap, continuous approximation beyond it."""

    _TABLE_SPAN = 1 << 17

    def __init__(self, alpha: float, xmin: int):
        self.alpha = alpha
        self.xmin = xmin
        # the pmf over k = xmin, xmin + 1, ..., then its CDF, in one array
        cdf = np.arange(xmin, xmin + self._TABLE_SPAN, dtype=np.float64)
        cdf **= -alpha
        cdf /= zeta(alpha, xmin)
        self._cdf = np.cumsum(cdf, out=cdf)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        u = rng.random(size)
        out = np.empty(size, dtype=np.int64)
        in_table = u < self._cdf[-1]
        idx = np.searchsorted(self._cdf, u[in_table], side="right")
        out[in_table] = self.xmin + idx
        rest = ~in_table
        if rest.any():
            y = (self.xmin - 0.5) * (1.0 - u[rest]) ** (-1.0 / (self.alpha - 1.0))
            out[rest] = np.floor(np.minimum(y + 0.5, MAX_SAMPLE)).astype(np.int64)
        return out


def fit_power_law(samples: Sequence[int], bootstraps: int = 250, seed: int = 0) -> PowerLawFit:
    """Fit a discrete power law and bootstrap its goodness of fit.

    The cutoff is searched over unique sample values up to their
    ``XMIN_QUANTILE`` quantile (guaranteeing at least two tail points),
    alpha by maximum likelihood in ``ALPHA_RANGE`` given the cutoff, and
    the p-value by refitting synthetic samples drawn from the fitted model
    above the cutoff and from the data below it. The p-value is the share of
    replicates whose KS distance reaches the observed one, among those not
    skipped for being constant (``replicates_skipped`` counts those); it is
    nan when every replicate was skipped (or ``bootstraps`` is 0).
    ``bootstraps`` and ``seed`` must be non-negative and the samples
    integers (integral floats included) from 1 to ``MAX_SAMPLE``. The
    replicates are refitted ``FIT_CHUNK`` at a time, sharing one slope table.
    Deterministic for a fixed seed.
    """
    if min(bootstraps, seed) < 0:
        raise InputError(f"bootstraps and seed must be non-negative, got {bootstraps}, {seed}")
    x = np.asarray(list(samples))
    if x.ndim != 1 or x.dtype.kind not in "iuf" or not (
            (x >= 1) & (x <= MAX_SAMPLE) & (np.floor(x) == x)).all():
        raise InputError(f"samples must be integers from 1 to {MAX_SAMPLE:.0e}")
    x = x.astype(np.int64)
    if len(x) < 50:
        raise InputError("need at least 50 samples to fit")
    if x.min() == x.max():
        raise DegenerateSampleError("all samples are equal")
    table = _SlopeTable()
    # the observed sample is a batch of one
    alphas, xmins, kss, tails = _fit_tails([x], table)
    alpha, xmin, ks_obs, n_tail = float(alphas[0]), int(xmins[0]), float(kss[0]), int(tails[0])
    sampler = _DiscretePowerLawSampler(alpha, xmin)
    body = x[x < xmin]
    n = len(x)
    p_tail = n_tail / n

    def replicate(b: int) -> np.ndarray:
        rng = np.random.default_rng([seed, b])
        tail_mask = rng.random(n) < p_tail
        k = int(tail_mask.sum())
        syn = np.empty(n, dtype=np.int64)
        if n - k:
            syn[: n - k] = rng.choice(body, size=n - k, replace=True)
        if k:
            syn[n - k :] = sampler.draw(rng, k)
        return syn

    exceed = skipped = 0
    for start in range(0, bootstraps, FIT_CHUNK):
        chunk = [replicate(b) for b in range(start, min(start + FIT_CHUNK, bootstraps))]
        # a constant replicate has no fit; it counts in neither tally
        kept = [syn for syn in chunk if syn.min() != syn.max()]
        skipped += len(chunk) - len(kept)
        if kept:
            exceed += int(np.count_nonzero(_fit_tails(kept, table)[2] >= ks_obs))
    ran = bootstraps - skipped
    return PowerLawFit(
        alpha=alpha,
        x_min=xmin,
        ks_statistic=ks_obs,
        p_value=exceed / ran if ran else float("nan"),
        n_tail=n_tail,
        bootstraps=bootstraps,
        alpha_clamped=alpha in table.alpha_range,
        replicates_skipped=skipped,
    )


@dataclass(frozen=True)
class ShareRow:
    label: str
    count: int
    share_pct: float


def _share_rows(counts: Mapping[str, int]) -> list[ShareRow]:
    """One row per label with its share of the total, largest count first."""
    total = sum(counts.values())
    rows = [ShareRow(label, c, 100.0 * c / total) for label, c in counts.items()]
    rows.sort(key=lambda row: (-row.count, row.label))
    return rows


def codec_share(source: Iterable[TraceRecord]) -> list[ShareRow]:
    """Requests by cid codec, from raw records; cancels excluded, flags ignored."""
    cols = _columns(source)
    codec_of_cid, codecs = intern_codes(map(itemgetter(0), cols.cids), len(cols.cids))
    counts = np.bincount(codec_of_cid[cols.cid[cols.request_type != _CANCEL]],
                         minlength=len(codecs))
    return _share_rows({Codec(code).name: c for code, c in zip(codecs, counts.tolist()) if c})


@dataclass(frozen=True)
class GeoDb:
    """Offline CIDR-to-country table resolved by longest prefix; IPv4 and
    IPv6 prefixes are kept apart and each matches only its own version."""

    entries: tuple[tuple[ipaddress.IPv4Network | ipaddress.IPv6Network, str], ...]

    def __post_init__(self):
        # address width -> host bits -> network address -> country
        tables: dict[int, dict[int, dict[int, str]]] = {32: {}, 128: {}}
        for net, country in self.entries:
            width = net.max_prefixlen
            tables[width].setdefault(width - net.prefixlen, {})[int(net.network_address)] = country
        # per width, (host bits, table) pairs, longest prefix first
        object.__setattr__(self, "_tables", {width: sorted(t.items()) for width, t in tables.items()})

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[str, str]]) -> "GeoDb":
        return cls(entries=tuple((ipaddress.ip_network(cidr, strict=True), country)
                                 for cidr, country in pairs))

    @classmethod
    def from_csv(cls, source) -> "GeoDb":
        with open_text(source, "r") as stream:
            reader = csv.reader(stream)
            rows = [(reader.line_num, row) for row in reader if row]
        if rows and rows[0][1][:2] == ["cidr", "country"]:
            rows = rows[1:]
        entries = []
        for line, row in rows:
            if len(row) < 2:
                raise InputError(f"geo db line {line}: expected cidr,country, got {row!r}")
            try:
                entries.append((ipaddress.ip_network(row[0], strict=True), row[1]))
            except ValueError as exc:
                raise InputError(f"geo db line {line}: {exc}") from None
        return cls(entries=tuple(entries))

    def lookup(self, ip: str) -> str | None:
        """Country of the longest prefix holding the address text ``ip``, or
        None. Text without a ``:`` is parsed by ``inet_pton``, which takes
        exactly the dotted quads that ``ipaddress`` takes."""
        try:
            packed = ipaddress.ip_address(ip).packed if ":" in ip else inet_pton(AF_INET, ip)
        except (ValueError, OSError):
            return None
        value = int.from_bytes(packed, "big")
        for shift, table in self._tables[8 * len(packed)]:
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


def geo_share(source: Iterable[TraceRecord], db: GeoDb) -> list[ShareRow]:
    """Requests by origin country over deduplicated, non-cancel records.

    Unmatched or unparseable addresses land in the "??" bucket; they are
    never fatal. Each distinct address is resolved once per call.
    """
    if len(db) == 0:
        raise InputError("geo database is empty")
    cols = _columns(source)
    per_address = np.bincount(cols.address[(cols.request_type != _CANCEL) & ~cols.flagged],
                              minlength=len(cols.addresses))
    seen = np.flatnonzero(per_address)
    counts: Counter[str] = Counter()
    for address, c in zip(map(cols.addresses.__getitem__, seen.tolist()),
                          per_address[seen].tolist()):
        ip = _address_ip(address)
        country = db.lookup(ip) if ip else None
        counts[UNRESOLVED_COUNTRY if country is None else country] += c
    return _share_rows(counts)


@dataclass(frozen=True)
class RatePoint:
    bucket_start_ns: int
    group: str
    rate_per_s: float


NON_GATEWAY_GROUP = "non-gateway"


def rate_timeseries(
    source: Iterable[TraceRecord],
    bucket_s: float = 3600.0,
    group_by: str = "request_type",
    group_map: Mapping[NodeId, str] | None = None,
    drop_flagged: bool = False,
) -> list[RatePoint]:
    """Per-bucket request rates, grouped by entry type or by origin group.

    Cancels are excluded; these are request rates. With
    ``group_by="origin_group"`` each peer is classified through
    ``group_map`` (e.g. gateway / named operator), defaulting to
    "non-gateway" for unmapped peers. ``bucket_s`` must be finite and at
    least one nanosecond.
    """
    bucket_ns = span_ns(bucket_s, "bucket_s")
    if group_by not in ("request_type", "origin_group"):
        raise InputError(f"unknown group_by: {group_by!r}")
    cols = _columns(source)
    kept = cols.request_type != _CANCEL
    if drop_flagged:
        kept &= ~cols.flagged
    t = cols.timestamp_ns[kept]
    # numpy's integer floor division rounds down, as Python's does; a bucket
    # wider than int64 holds every timestamp in bucket 0 or -1
    bucket = t // bucket_ns if bucket_ns <= _I64_MAX else np.where(t < 0, -1, 0)
    if group_by == "request_type":
        group, labels = cols.request_type[kept], [m._value_ for m in REQUEST_TYPES]
    else:
        # one group per distinct peer
        group_of_peer, labels = intern_codes(
            map((group_map or {}).get, cols.peers, repeat(NON_GATEWAY_GROUP)), len(cols.peers))
        group = group_of_peer[cols.peer[kept]]
    # one key per (bucket, group) pair: the bucket's rank, then the group
    buckets = _tally(bucket)[0]
    n = len(labels)
    keys, counts = _tally(np.searchsorted(buckets, bucket) * n + group)
    points = [
        RatePoint(b * bucket_ns, labels[g], c / bucket_s)
        for b, g, c in zip(buckets[keys // n].tolist(), (keys % n).tolist(), counts.tolist())
    ]
    points.sort(key=lambda p: (p.bucket_start_ns, p.group))
    return points
