import random

import numpy as np
import pytest
from scipy.special import zeta

from swarmwatch.analytics import (
    GeoDb,
    codec_share,
    ecdf,
    fit_power_law,
    geo_share,
    popularity,
    rate_timeseries,
)
from swarmwatch.core import (
    DAG_PROTOBUF,
    FLAG_REBROADCAST,
    RAW,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
)
from swarmwatch.errors import DegenerateSampleError

NS = 1_000_000_000

PEERS = [NodeId(i + 1) for i in range(4)]
CIDS = [hash_content(bytes([i]), RAW) for i in range(4)]


def rec(t_s, peer, cid, rtype=RequestType.WANT_HAVE, flags=0, monitor="m0",
        address="/ip4/203.0.113.5/tcp/4001"):
    return TraceRecord(int(t_s * NS), monitor, peer, address, rtype, cid, flags)


def exact_discrete_powerlaw(alpha, xmin, size, seed):
    """Independent generator: inverse-CDF over an explicit wide pmf table."""
    rng = np.random.default_rng(seed + 10_000)
    ks = np.arange(xmin, 2_000_000, dtype=np.float64)
    pmf = ks ** (-alpha) / zeta(alpha, xmin)
    cdf = np.cumsum(pmf)
    u = rng.random(size) * cdf[-1]
    return ks[np.searchsorted(cdf, u, side="right")].astype(np.int64)


class TestPopularity:
    def test_empty(self):
        table = popularity([])
        assert len(table) == 0 and table.window_ns is None

    def test_counts_by_definition(self):
        records = [
            rec(0, PEERS[0], CIDS[0]),
            rec(1, PEERS[0], CIDS[0]),
            rec(2, PEERS[0], CIDS[0], rtype=RequestType.WANT_BLOCK),
            rec(3, PEERS[1], CIDS[0]),
        ]
        table = popularity(records)
        assert table.rrp[CIDS[0]] == 4
        assert table.urp[CIDS[0]] == 2

    def test_cancels_never_count(self):
        records = [rec(0, PEERS[0], CIDS[0], rtype=RequestType.CANCEL)]
        assert len(popularity(records)) == 0

    def test_flagged_records_excluded_by_default(self):
        records = [
            rec(0, PEERS[0], CIDS[0]),
            rec(30, PEERS[0], CIDS[0], flags=FLAG_REBROADCAST),
        ]
        assert popularity(records).rrp[CIDS[0]] == 1
        assert popularity(records, drop_flagged=False).rrp[CIDS[0]] == 2

    def test_urp_bounded_by_rrp(self):
        rng = random.Random(0)
        records = [
            rec(i, rng.choice(PEERS), rng.choice(CIDS),
                rtype=rng.choice(list(RequestType)))
            for i in range(500)
        ]
        table = popularity(records)
        assert all(table.urp[c] <= table.rrp[c] for c in table.rrp)
        assert all(v >= 1 for v in table.urp.values())
        wants = sum(1 for r in records if r.is_want)
        assert sum(table.rrp.values()) == wants


class TestEcdf:
    def test_constant(self):
        assert ecdf([1, 1, 1]) == [(1.0, 1.0)]

    def test_three_values(self):
        assert ecdf([1, 2, 4]) == [(1.0, pytest.approx(1 / 3)), (2.0, pytest.approx(2 / 3)), (4.0, 1.0)]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            ecdf([])

    def test_monotone_reaches_one(self):
        rng = random.Random(1)
        scores = [rng.randrange(1, 50) for _ in range(1000)]
        points = ecdf(scores)
        fracs = [f for _, f in points]
        assert fracs == sorted(fracs)
        assert fracs[-1] == 1.0

    def test_share_of_ones_visible(self):
        # synthetic unique-popularity scores: 80% of cids requested once
        scores = [1] * 800 + [random.Random(2).randrange(2, 40) for _ in range(200)]
        points = ecdf(scores)
        assert points[0] == (1.0, pytest.approx(0.8))


class TestFitPowerLaw:
    def test_recovers_alpha(self):
        x = exact_discrete_powerlaw(2.5, 1, 5000, seed=0)
        fit = fit_power_law(x, bootstraps=100, seed=0)
        assert 2.4 <= fit.alpha <= 2.6
        assert fit.p_value >= 0.1
        assert not fit.rejected

    def test_rejects_geometric(self):
        g = np.random.default_rng(5).geometric(0.1, size=5000)
        fit = fit_power_law(g, bootstraps=100, seed=5)
        assert fit.rejected

    def test_degenerate(self):
        with pytest.raises(DegenerateSampleError):
            fit_power_law([5] * 100)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_power_law([1, 2, 3])

    def test_deterministic_given_seed(self):
        x = exact_discrete_powerlaw(2.2, 1, 900, seed=3)
        a = fit_power_law(x, bootstraps=40, seed=9)
        b = fit_power_law(x, bootstraps=40, seed=9)
        assert a == b

    def test_permutation_invariant(self):
        x = list(exact_discrete_powerlaw(2.2, 1, 900, seed=4))
        shuffled = list(x)
        random.Random(0).shuffle(shuffled)
        a = fit_power_law(x, bootstraps=25, seed=1)
        b = fit_power_law(shuffled, bootstraps=25, seed=1)
        assert (a.alpha, a.x_min, a.ks_statistic) == (b.alpha, b.x_min, b.ks_statistic)

    def test_n_tail_floor(self):
        x = exact_discrete_powerlaw(2.5, 1, 200, seed=6)
        fit = fit_power_law(x, bootstraps=10, seed=0)
        assert fit.n_tail >= 2

    # 49 ones and one 2: the only cutoff candidate is 1, so every replicate
    # draws all 50 values from the fitted law, whose exponent is pinned
    NEARLY_CONSTANT = [1] * 49 + [2]

    def test_all_replicates_constant_gives_nan(self):
        # at alpha = 30, P(X = 1) = 1 - 1e-9: every replicate is all ones
        fit = fit_power_law(self.NEARLY_CONSTANT, bootstraps=20, alpha_range=(30.0, 30.0))
        assert np.isnan(fit.p_value)

    def test_constant_replicates_leave_the_denominator(self):
        # at alpha = 7 about two thirds of the replicates are all ones and
        # are skipped. A replicate that is not has at least one value above
        # 1, so its empirical P(X = 1) is at most the observed 0.98 and its
        # KS distance at least the observed one: every replicate that ran
        # exceeds, and p is exactly 1.
        fit = fit_power_law(self.NEARLY_CONSTANT, bootstraps=60, alpha_range=(7.0, 7.0))
        assert fit.p_value == 1.0


class TestCodecShare:
    def test_single_codec(self):
        records = [rec(i, PEERS[0], hash_content(bytes([i]), DAG_PROTOBUF)) for i in range(10)]
        rows = codec_share(records)
        assert len(rows) == 1
        assert rows[0].label == "dag-pb"
        assert rows[0].share_pct == 100.0

    def test_cancels_excluded(self):
        records = [
            rec(0, PEERS[0], hash_content(b"a", DAG_PROTOBUF)),
            rec(1, PEERS[0], hash_content(b"b", RAW), rtype=RequestType.CANCEL),
        ]
        rows = codec_share(records)
        assert [r.label for r in rows] == ["dag-pb"]

    def test_shares_sum_to_100(self):
        rng = random.Random(3)
        records = [
            rec(i, PEERS[0], hash_content(bytes([rng.randrange(30)]),
                rng.choice([RAW, DAG_PROTOBUF])))
            for i in range(997)
        ]
        rows = codec_share(records)
        assert sum(r.share_pct for r in rows) == pytest.approx(100.0, abs=0.01)


class TestGeoShare:
    DB = GeoDb.from_pairs([
        ("10.0.0.0/8", "US"),
        ("10.1.0.0/16", "NL"),
        ("172.16.0.0/12", "DE"),
    ])

    def test_longest_prefix_wins(self):
        assert self.DB.lookup("10.1.2.3") == "NL"
        assert self.DB.lookup("10.2.0.1") == "US"
        assert self.DB.lookup("172.17.0.1") == "DE"
        assert self.DB.lookup("8.8.8.8") is None

    def test_single_block(self):
        records = [rec(i, PEERS[0], CIDS[0], address="/ip4/10.9.0.1/tcp/4001") for i in range(5)]
        rows = geo_share(records, self.DB)
        assert [(r.label, r.share_pct) for r in rows] == [("US", 100.0)]

    def test_unparseable_goes_to_unknown_bucket(self):
        records = [rec(0, PEERS[0], CIDS[0], address="/dns4/x.example/tcp/443")]
        rows = geo_share(records, self.DB)
        assert rows[0].label == "??"

    def test_empty_db_errors(self):
        with pytest.raises(ValueError):
            geo_share([rec(0, PEERS[0], CIDS[0])], GeoDb.from_pairs([]))

    def test_ipv4_and_ipv6_prefixes_together(self):
        db = GeoDb.from_pairs([("10.0.0.0/8", "US"), ("2001:db8:1::/48", "XX")])
        assert db.lookup("10.200.0.1") == "US"
        assert db.lookup("2001:db8:1:ffff::1") == "XX"
        assert db.lookup("2001:db8:2::1") is None
        assert db.lookup("11.0.0.1") is None
        # an IPv4 address never matches an IPv6 prefix with equal bits
        assert GeoDb.from_pairs([("::/8", "V6")]).lookup("0.0.0.1") is None

    def test_ipv6_multiaddr(self):
        db = GeoDb.from_pairs([("10.0.0.0/8", "US"), ("2001:db8:1::/48", "XX")])
        records = [
            rec(0, PEERS[0], CIDS[0], address="/ip6/2001:db8:1::7/tcp/4001"),
            rec(1, PEERS[1], CIDS[0], address="/ip4/10.0.0.7/tcp/4001"),
            rec(2, PEERS[2], CIDS[0], address="/ip6/2001:db8:2::7/udp/4001/quic"),
        ]
        rows = geo_share(records, db)
        assert sorted((r.label, r.count) for r in rows) == [("??", 1), ("US", 1), ("XX", 1)]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("cidr,country\n198.51.100.0/24,FR\n")
        db = GeoDb.from_csv(path)
        assert db.lookup("198.51.100.77") == "FR"


class TestRateTimeseries:
    def test_uniform_rate(self):
        records = [rec(t, PEERS[0], CIDS[0]) for t in range(3600)]
        points = rate_timeseries(records, bucket_s=3600)
        assert len(points) == 1
        assert points[0].rate_per_s == pytest.approx(1.0)
        assert points[0].group == "want_have"

    def test_empty(self):
        assert rate_timeseries([]) == []

    def test_mass_conservation(self):
        rng = random.Random(8)
        records = [
            rec(rng.uniform(0, 5000), rng.choice(PEERS), rng.choice(CIDS),
                rtype=rng.choice([RequestType.WANT_HAVE, RequestType.WANT_BLOCK]))
            for _ in range(700)
        ]
        bucket_s = 600.0
        points = rate_timeseries(sorted(records, key=lambda r: r.timestamp_ns), bucket_s=bucket_s)
        assert sum(p.rate_per_s * bucket_s for p in points) == pytest.approx(700)

    def test_origin_groups(self):
        gw, other = PEERS[0], PEERS[1]
        records = [rec(0, gw, CIDS[0]), rec(1, other, CIDS[0])]
        points = rate_timeseries(
            records, bucket_s=10, group_by="origin_group", group_map={gw: "gateway"}
        )
        assert {p.group for p in points} == {"gateway", "non-gateway"}

    def test_bad_bucket(self):
        with pytest.raises(ValueError):
            rate_timeseries([], bucket_s=0)
