import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from helpers import bisection_fit_power_law, bisection_fit_tail, scipy_zeta_triangle
from swarmwatch import analytics
from swarmwatch.analytics import (
    ALPHA_RANGE,
    MAX_SAMPLE,
    NON_GATEWAY_GROUP,
    SERIES_MIN_Q,
    UNRESOLVED_COUNTRY,
    GeoDb,
    PopularityTable,
    RatePoint,
    ShareRow,
    _fit_tails,
    _series_min_q,
    _SlopeTable,
    _zeta_triangle,
    codec_share,
    ecdf,
    fit_power_law,
    geo_share,
    popularity,
    rate_timeseries,
)
from swarmwatch.core import (
    DAG_PROTOBUF,
    FLAG_INTER_MONITOR_DUPLICATE,
    FLAG_REBROADCAST,
    RAW,
    Cid,
    Codec,
    NodeId,
    RequestType,
    TraceRecord,
    hash_content,
)
from swarmwatch.errors import DegenerateSampleError, InputError

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
        assert len(table) == 0

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
        wants = sum(1 for r in records if r.request_type is not RequestType.CANCEL)
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

    def test_all_replicates_constant_gives_nan(self, monkeypatch):
        # at alpha = 30, P(X = 1) = 1 - 1e-9: every replicate is all ones
        monkeypatch.setattr(analytics, "ALPHA_RANGE", (30.0, 30.0))
        fit = fit_power_law(self.NEARLY_CONSTANT, bootstraps=20)
        assert np.isnan(fit.p_value)
        assert fit.replicates_skipped == 20
        # a one-point range returns that point
        assert fit.alpha == 30.0
        assert fit.alpha_clamped

    def test_constant_replicates_leave_the_denominator(self, monkeypatch):
        # at alpha = 7 about two thirds of the replicates are all ones and
        # are skipped. A replicate that is not has at least one value above
        # 1, so its empirical P(X = 1) is at most the observed 0.98 and its
        # KS distance at least the observed one: every replicate that ran
        # exceeds, and p is exactly 1.
        monkeypatch.setattr(analytics, "ALPHA_RANGE", (7.0, 7.0))
        fit = fit_power_law(self.NEARLY_CONSTANT, bootstraps=60)
        assert fit.p_value == 1.0
        assert 0 < fit.replicates_skipped < 60

    def test_geometric_alpha_sits_on_the_bound(self):
        g = np.random.default_rng(5).geometric(0.1, size=5000)
        fit = fit_power_law(g, bootstraps=0)
        assert fit.alpha == ALPHA_RANGE[1]
        assert fit.alpha_clamped
        assert fit.replicates_skipped == 0

    @pytest.mark.parametrize("kwargs, named", [({"bootstraps": -3}, "bootstraps"),
                                               ({"bootstraps": 5, "seed": -1}, "seed")])
    def test_negative_bootstraps_or_seed_raise_naming_it(self, kwargs, named):
        # a negative count used to give p = -0.0 and a "rejected" verdict
        with pytest.raises(InputError, match=f"{named}.* must be non-negative"):
            fit_power_law(exact_discrete_powerlaw(2.5, 1, 200, seed=0), **kwargs)

    def test_zero_bootstraps_gives_nan(self):
        fit = fit_power_law(exact_discrete_powerlaw(2.5, 1, 200, seed=0), bootstraps=0)
        assert np.isnan(fit.p_value)
        assert fit.bootstraps == 0

    def test_interior_alpha_is_not_clamped(self):
        fit = fit_power_law(exact_discrete_powerlaw(2.5, 1, 2000, seed=0), bootstraps=0)
        assert 2.4 <= fit.alpha <= 2.6
        assert not fit.alpha_clamped

    @pytest.mark.parametrize("bad", [2.5, float("nan"), float("inf"), 2**70, 0, -3,
                                     MAX_SAMPLE + 1])
    def test_sample_outside_the_domain_raises_naming_samples(self, bad):
        with pytest.raises(InputError, match="samples"):
            fit_power_law([*self.NEARLY_CONSTANT, bad], bootstraps=0)

    def test_integral_floats_fit_as_integers(self):
        x = exact_discrete_powerlaw(2.2, 1, 300, seed=5)
        assert x.max() <= MAX_SAMPLE
        want = fit_power_law(x, bootstraps=10, seed=1)
        assert fit_power_law(x.astype(np.float64), bootstraps=10, seed=1) == want
        # the largest value the domain admits, with replicates: every zeta
        # has alpha * ln(q) <= 3.5 * ln(1e18 + 1), about 145, so none
        # underflows and no warning is raised
        top = fit_power_law([*x[:-3], *[MAX_SAMPLE] * 3], bootstraps=20, seed=3)
        assert top.n_tail >= 2 and 0.0 <= top.p_value <= 1.0

    @pytest.mark.parametrize("chunk", [1, 5, 64])
    def test_chunk_size_does_not_change_the_fit(self, chunk, monkeypatch):
        # 37 replicates: with chunks of 16 the last one is partial
        x = exact_discrete_powerlaw(2.2, 1, 600, seed=8)
        want = fit_power_law(x, bootstraps=37, seed=2)
        monkeypatch.setattr(analytics, "FIT_CHUNK", chunk)
        assert fit_power_law(x, bootstraps=37, seed=2) == want


# criterion 08's samples (seeds 100-119: a discrete power law at alpha 2.5 and
# a geometric law, 5,000 values each), then 20 more: discrete power laws over
# several exponents and cutoffs, and geometric laws over several p
ORACLE_CASES = (
    [("powerlaw", 2.5, 1, 5000, seed) for seed in range(100, 120)]
    + [("geometric", 0.1, 5000, seed) for seed in range(100, 120)]
    + [("powerlaw", round(1.7 + 0.15 * s, 2), 1 + s % 4, 1000, s) for s in range(10)]
    + [("geometric", round(0.05 + 0.03 * s, 2), 1000, s) for s in range(10)]
)


def oracle_sample(case):
    kind, *args = case
    if kind == "powerlaw":
        return exact_discrete_powerlaw(*args)
    p, size, seed = args
    return np.random.default_rng(seed).geometric(p, size=size)


class TestFitterOracle:
    """The table-and-Newton fitter against the bisection fitter it replaced,
    kept in ``helpers``. alpha moves in its last digits; the cutoff and the
    tail must not. The table's quadratic alone is within about 1e-6, so the
    1e-8 bound on alpha also checks the Newton step."""

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_fit_matches_bisection(self, case):
        x, seed = oracle_sample(case), case[-1]
        alpha, xmin, ks, n_tail, p = bisection_fit_power_law(x, bootstraps=20, seed=seed)
        fit = fit_power_law(x, bootstraps=20, seed=seed)
        assert abs(fit.alpha - alpha) <= 1e-8
        assert (fit.x_min, fit.n_tail) == (xmin, n_tail)
        assert abs(fit.ks_statistic - ks) <= 1e-9
        assert abs(fit.p_value - p) <= 0.02


# a monitor-logs-sized sample: 5,000 scores, 73 unique values up to 1,005;
# the series scores about 92% of its fits' KS triangles
URP_LIKE_SEED = 2210


class TestSeriesOracle:
    """The fitter against itself with scipy's zeta at every KS-triangle entry
    (``helpers.scipy_zeta_triangle``). The first 40 ``ORACLE_CASES`` are
    criterion 08's samples."""

    @staticmethod
    def _both(x, bootstraps, seed, monkeypatch):
        fit = fit_power_law(x, bootstraps=bootstraps, seed=seed)
        monkeypatch.setattr(analytics, "_zeta_triangle", scipy_zeta_triangle)
        return fit, fit_power_law(x, bootstraps=bootstraps, seed=seed)

    @staticmethod
    def _assert_same(fit, ref):
        assert (fit.alpha, fit.x_min, fit.n_tail, fit.p_value) == (
            ref.alpha, ref.x_min, ref.n_tail, ref.p_value)
        assert abs(fit.ks_statistic - ref.ks_statistic) <= 1e-12

    @pytest.mark.parametrize("case", ORACLE_CASES, ids=lambda c: "-".join(map(str, c)))
    def test_fit_matches_the_scipy_triangle(self, case, monkeypatch):
        self._assert_same(*self._both(oracle_sample(case), 20, case[-1], monkeypatch))

    def test_urp_sized_fit_matches_the_scipy_triangle(self, monkeypatch):
        x = exact_discrete_powerlaw(2.2, 1, 5000, seed=URP_LIKE_SEED)
        assert (x.max(), len(np.unique(x))) == (1005, 73)
        self._assert_same(*self._both(x, 100, URP_LIKE_SEED, monkeypatch))


def _triangle(alphas, q):
    """_zeta_triangle with one row per exponent over all of the ascending q."""
    alphas, q = np.asarray(alphas, dtype=np.float64), np.asarray(q, dtype=np.float64)
    first, end = np.zeros(len(alphas), dtype=np.int64), np.full(len(alphas), len(q))
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        return _zeta_triangle(alphas, q, first, end).reshape(len(alphas), len(q))


def _reference_domain(s, q):
    """Where scipy's zeta(s, q) is a normal float and so is q**-s, its own
    first term: below that, scipy loses digits to subnormal terms."""
    tiny = np.finfo(np.float64).tiny
    with np.errstate(under="ignore"):
        ref = zeta(s, q)
    return ref, (ref >= tiny) & (s * np.log(q) < -np.log(tiny))


def _worst_error_against_scipy(z, s, q):
    """Largest relative error of z against scipy's zeta(s, q) over the
    reference domain, and the share of the entries that lie in it."""
    ref, ok = _reference_domain(s, q)
    rel = np.abs(z[ok] / ref[ok] - 1.0)
    return (rel.max() if ok.any() else 0.0), ok.mean()


# the largest exponent the triangle kernel is checked at, past ALPHA_RANGE
KERNEL_MAX_S = 50.0


class TestZetaTriangle:
    """The triangle kernel against scipy.special.zeta over exponents up to
    KERNEL_MAX_S and every q the fit can meet (the sampler's draws reach
    MAX_SAMPLE)."""

    ALPHAS = (1 + 2**-52, 1 + 1e-9, 1.001, 1.01, 1.2, 1.5, 2.0, 2.5, 3.0, 3.5, 5.0, 7.5,
              12.0, 20.0, 30.0, 42.0, KERNEL_MAX_S)
    # every integer to 400 (each row's switch-over lies below 200, so the
    # grid holds the columns on both sides of it) and log-spaced q beyond
    Q = np.unique(np.concatenate([np.arange(1.0, 401.0),
                                  np.geomspace(1.0, MAX_SAMPLE + 1.0, 600).round()]))

    def test_grid_matches_scipy(self):
        s = np.asarray(self.ALPHAS)[:, None]
        z = _triangle(self.ALPHAS, self.Q)
        worst, covered = _worst_error_against_scipy(z, s, self.Q[None, :])
        assert worst <= 1e-13
        assert covered > 0.7
        # over the fit's exponent range the series is as close as rounding
        # allows; one term short, it would be off by up to 1.4e-14 there
        fit_rows = s[:, 0] <= ALPHA_RANGE[1]
        assert _worst_error_against_scipy(z[fit_rows], s[fit_rows], self.Q[None, :])[0] <= 2e-15

    def test_scipy_keeps_the_columns_below_each_switch_over(self):
        z = _triangle(self.ALPHAS, self.Q)
        min_q = _series_min_q(np.asarray(self.ALPHAS))
        assert min_q.min() == SERIES_MIN_Q == 20.0
        for row, a, m in zip(z, self.ALPHAS, min_q):
            below = self.Q < m
            assert np.array_equal(row[below], zeta(a, self.Q[below]))
            # and the series takes the rest
            assert not np.array_equal(row[~below], zeta(a, self.Q[~below]))

    def test_a_row_below_its_bound_stays_on_scipy(self):
        # the bound puts the switch-over near q = 198 at alpha 50 and 125 at 30
        q = np.arange(1.0, 121.0)
        z = _triangle([30.0, KERNEL_MAX_S], q)
        assert np.array_equal(z, zeta(np.array([[30.0], [KERNEL_MAX_S]]), q))
        assert np.all(_series_min_q(np.array([30.0, KERNEL_MAX_S])) > q[-1])

    # scipy's own value is off in its twelfth digit here, where q**-s is
    # subnormal; the references are mpmath's, at 40 digits
    @pytest.mark.parametrize("s, q, want", [
        (43.20883190627312, 17228554.0, 8.729447677414658e-308),
        (40.993617131368886, 44352035.0, 3.7177202170606535e-308),
    ])
    def test_series_is_right_where_scipy_goes_subnormal(self, s, q, want):
        assert abs(_triangle([s], [q])[0, 0] / want - 1.0) <= 1e-14
        assert abs(zeta(s, q) / want - 1.0) > 1e-12

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_batched_rows_match_scipy(self, data):
        """Rows over several ascending runs of q, each row starting anywhere
        in its run, as a batch of samples lays them out."""
        qs = st.one_of(st.integers(1, MAX_SAMPLE + 1).map(float),
                       st.floats(1.0, MAX_SAMPLE + 1.0))
        runs = data.draw(st.lists(st.lists(qs, min_size=1, max_size=40, unique=True)
                                  .map(sorted), min_size=1, max_size=3))
        ends = np.cumsum([len(run) for run in runs])
        rows = data.draw(st.lists(st.tuples(
            st.floats(1.0, KERNEL_MAX_S, exclude_min=True), st.integers(0, len(runs) - 1),
            st.integers(0, 39)), min_size=1, max_size=12))
        s = np.array([a for a, _, _ in rows])
        end = np.array([ends[k] for _, k, _ in rows])
        first = np.array([ends[k] - len(runs[k]) + min(at, len(runs[k]) - 1)
                          for _, k, at in rows])
        q = np.concatenate(runs)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            z = _zeta_triangle(s, q, first, end)
        col = np.concatenate([np.arange(f, e) for f, e in zip(first, end)])
        assert _worst_error_against_scipy(z, np.repeat(s, end - first), q[col])[0] <= 1e-13


@pytest.mark.parametrize("alpha, xmin, seed", [
    (1.5, 1, 0), (2.0, 1, 1), (2.37, 3, 2), (3.5, 40, 3), (1.81, 1000, 4)])
def test_sampler_draws_equal_the_table_reference(alpha, xmin, seed):
    """The sampler's CDF and draws, bit for bit, against explicit value, pmf
    and CDF tables, with the continuous approximation past the table."""
    ks = np.arange(xmin, xmin + analytics._DiscretePowerLawSampler._TABLE_SPAN, dtype=np.float64)
    cdf = np.cumsum(ks ** (-alpha) / zeta(alpha, xmin))
    u = np.random.default_rng(seed).random(20_000)
    in_table = u < cdf[-1]
    want = np.empty(len(u), dtype=np.int64)
    want[in_table] = ks[np.searchsorted(cdf, u[in_table], side="right")].astype(np.int64)
    y = (xmin - 0.5) * (1.0 - u[~in_table]) ** (-1.0 / (alpha - 1.0))
    want[~in_table] = np.floor(np.minimum(y + 0.5, 1e18)).astype(np.int64)
    sampler = analytics._DiscretePowerLawSampler(alpha, xmin)
    assert np.array_equal(sampler._cdf, cdf)
    assert np.array_equal(sampler.draw(np.random.default_rng(seed), len(u)), want)
    if alpha == 1.5:
        assert not in_table.all()


def _batch_samples():
    values = st.one_of(st.integers(1, 3), st.integers(1, 40), st.integers(1, 5000))
    sample = st.lists(values, min_size=2, max_size=120).filter(lambda v: min(v) != max(v))
    return st.lists(sample, min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(_batch_samples())
def test_batch_fit_equals_per_sample_fits(samples):
    arrays = [np.asarray(v, dtype=np.int64) for v in samples]
    batch = _fit_tails(arrays, _SlopeTable())
    for i, x in enumerate(arrays):
        alone = _fit_tails([x], _SlopeTable())
        assert [part[i] for part in batch] == [part[0] for part in alone]


def test_single_candidate_samples_batch_with_others():
    # {1, 2} and {1, 5} offer one cutoff each; the third sample offers many
    samples = [np.array([1] * 30 + [2] * 3), np.array([1, 5] * 10),
               exact_discrete_powerlaw(2.0, 1, 300, seed=1)]
    batch = _fit_tails(samples, _SlopeTable())
    for i, x in enumerate(samples):
        alone = _fit_tails([x], _SlopeTable())
        assert [part[i] for part in batch] == [part[0] for part in alone]
        assert (batch[1][i], batch[3][i]) == bisection_fit_tail(x, ALPHA_RANGE)[1::2]


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

    def test_csv_row_with_one_field_names_its_line(self, tmp_path):
        path = tmp_path / "geo.csv"
        path.write_text("cidr,country\n198.51.100.0/24,FR\n\n203.0.113.0/24\n")
        with pytest.raises(ValueError, match="line 4"):
            GeoDb.from_csv(path)

    @pytest.mark.parametrize("cidr, why", [
        ("10.0.0.1/8", "has host bits set"),
        ("not-a-net", "does not appear to be an IPv4 or IPv6 network"),
    ], ids=["host-bits", "not-a-network"])
    def test_csv_bad_cidr_names_its_line(self, tmp_path, cidr, why):
        path = tmp_path / "geo.csv"
        path.write_text(f"cidr,country\n198.51.100.0/24,FR\n\n{cidr},DE\n")
        with pytest.raises(ValueError, match=f"^geo db line 4: .*{why}"):
            GeoDb.from_csv(path)

    def test_each_call_resolves_against_its_own_db(self):
        records = [rec(i, PEERS[i % 2], CIDS[0], address=f"/ip4/10.0.{i % 3}.1/tcp/4001")
                   for i in range(6)]
        us, de = GeoDb.from_pairs([("10.0.0.0/8", "US")]), GeoDb.from_pairs([("10.0.0.0/8", "DE")])
        for db, label in ((us, "US"), (de, "DE"), (us, "US")):
            assert geo_share(records, db) == [ShareRow(label, 6, 100.0)]


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
        # zero, negative, under 1 ns, not finite, or too long to count in ns
        for bucket_s in (0, -1.0, 1e-10, 0.9e-9, float("inf"), float("-inf"), float("nan"),
                         1e300):
            with pytest.raises(ValueError, match="bucket_s"):
                rate_timeseries([rec(0, PEERS[0], CIDS[0])], bucket_s=bucket_s)


# ----------------------------------------------------------------------
# The reports against brute-force references: one plain pass per record,
# every key resolved on every record.


def reference_popularity(source):
    rrp, wanters = {}, {}
    for r in source:
        if r.request_type is RequestType.CANCEL:
            continue
        if r.flags:
            continue
        rrp[r.cid] = rrp.get(r.cid, 0) + 1
        wanters.setdefault(r.cid, set()).add(r.peer)
    urp = {cid: len(peers) for cid, peers in wanters.items()}
    return PopularityTable(rrp, urp)


def _share_rows(counts):
    total = sum(counts.values())
    rows = [ShareRow(label, c, 100.0 * c / total) for label, c in counts.items()]
    return sorted(rows, key=lambda row: (-row.count, row.label))


def reference_codec_share(source):
    counts = {}
    for r in source:
        if r.request_type is not RequestType.CANCEL:
            counts[r.cid.codec.name] = counts.get(r.cid.codec.name, 0) + 1
    return _share_rows(counts)


def reference_geo_share(source, db):
    counts = {}
    for r in source:
        if r.flags or r.request_type is RequestType.CANCEL:
            continue
        ip = analytics._address_ip(r.address)
        country = db.lookup(ip) if ip else None
        label = country if country is not None else UNRESOLVED_COUNTRY
        counts[label] = counts.get(label, 0) + 1
    return _share_rows(counts)


def reference_rate_timeseries(source, bucket_s, group_by, group_map, drop_flagged):
    bucket_ns = int(bucket_s * NS)
    counts = {}
    for r in source:
        if r.request_type is RequestType.CANCEL or (drop_flagged and r.flags):
            continue
        if group_by == "request_type":
            group = r.request_type.value
        else:
            group = group_map.get(r.peer, NON_GATEWAY_GROUP) if group_map else NON_GATEWAY_GROUP
        key = ((r.timestamp_ns // bucket_ns) * bucket_ns, group)
        counts[key] = counts.get(key, 0) + 1
    points = [RatePoint(bucket, group, c / bucket_s) for (bucket, group), c in counts.items()]
    return sorted(points, key=lambda p: (p.bucket_start_ns, p.group))


GEO_DB = GeoDb.from_pairs([
    ("10.0.0.0/8", "US"),
    ("10.1.0.0/16", "NL"),
    ("172.16.0.0/12", "DE"),
    ("2001:db8:1::/48", "XX"),
])
ADDRESSES = [
    "/ip4/10.1.2.3/tcp/4001",
    "/ip4/10.9.0.1/udp/4001/quic",
    "/ip4/8.8.8.8/tcp/4001",              # in no prefix
    "/ip6/2001:db8:1::7/tcp/4001",
    "/ip6/2001:db8:2::1/udp/4001/quic",   # in no prefix
    "172.17.0.9",                         # bare dotted
    "10.300.0.1",                         # bare dotted, not an address
    "/dns4/x.example/tcp/443",
    "/ip4/999.1.1.1/tcp/4001",            # not an address
    "not an address",
]
CODECS = [RAW, DAG_PROTOBUF, Codec(0x300), Codec(0x1234)]  # the last two print as codec-0x...
# records of the last peer are in no group
GROUP_MAP = {PEERS[0]: "gw0.example", PEERS[1]: "gw0.example", PEERS[2]: "gw1.example"}

trace_records = st.lists(
    st.builds(
        TraceRecord,
        timestamp_ns=st.integers(0, 10**13),  # drawn in any order
        monitor=st.sampled_from(["m0", "m1"]),
        peer=st.sampled_from(PEERS),
        address=st.sampled_from(ADDRESSES),
        request_type=st.sampled_from(list(RequestType)),
        cid=st.builds(Cid, st.sampled_from(CODECS), st.sampled_from([bytes([i]) * 32 for i in range(5)])),
        flags=st.sampled_from(
            [0, FLAG_INTER_MONITOR_DUPLICATE, FLAG_REBROADCAST,
             FLAG_INTER_MONITOR_DUPLICATE | FLAG_REBROADCAST]),
    ),
    max_size=60,
)


@given(records=trace_records, drop_flagged=st.booleans(),
       bucket_s=st.sampled_from([1e-9, 0.75, 60.0, 3600.0]),
       group_by=st.sampled_from(["request_type", "origin_group"]),
       group_map=st.sampled_from([None, {}, GROUP_MAP]))
@settings(max_examples=150, deadline=None)
def test_reports_match_per_record_references(records, drop_flagged, bucket_s, group_by,
                                             group_map):
    got = popularity(records)
    want = reference_popularity(records)
    assert got == want
    assert list(got.rrp) == list(want.rrp) and list(got.urp) == list(want.urp)
    assert codec_share(records) == reference_codec_share(records)
    assert geo_share(records, GEO_DB) == reference_geo_share(records, GEO_DB)
    assert (rate_timeseries(records, bucket_s, group_by, group_map, drop_flagged)
            == reference_rate_timeseries(records, bucket_s, group_by, group_map, drop_flagged))


@given(records=trace_records)
@settings(max_examples=30, deadline=None)
def test_reports_read_a_one_shot_source(records):
    reports = [
        popularity,
        codec_share,
        lambda source: geo_share(source, GEO_DB),
        lambda source: rate_timeseries(source, bucket_s=60.0),
        lambda source: rate_timeseries(source, bucket_s=60.0, group_by="origin_group",
                                       group_map=GROUP_MAP, drop_flagged=True),
    ]
    for report in reports:
        assert report(r for r in records) == report(records)
