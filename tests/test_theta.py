"""Chain-set membership, enumeration, exact statistics, and the counting identity."""

import importlib
import io
import math
import re
import tracemalloc
from bisect import bisect_right
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from divmean import _util
from divmean.errors import ConfigError, RangeError, ResourceError
from divmean.sieve import build_prime_list, build_spf_table, sigma, tau
from divmean.theta import (
    SeqStats,
    ThetaRule,
    _blocks,
    _chain,
    _isqrt,
    _primes_for_rule,
    _rough_sums,
    b_rows,
    chain_stats_multi,
    dense_stats,
    factor_nr,
    generate_B,
    is_in_B,
    is_practical_by_subset_sum,
    is_t_dense_by_divisors,
    practical_stats,
    rough_members,
    rough_stats,
    verify_funceq,
    write_b_stream,
)

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

B_PRACTICAL_30 = [1, 2, 4, 6, 8, 12, 16, 18, 20, 24, 28, 30]
B_DENSE2_20 = [1, 2, 4, 6, 8, 12, 16, 18, 20]


class TestMembership:
    def test_one_always_in(self, spf_1e5):
        for rule in (ThetaRule.practical(), ThetaRule.dense(2), ThetaRule.dense("5/2")):
            assert is_in_B(1, rule, spf_1e5)

    def test_examples(self, spf_1e5):
        assert not is_in_B(10, ThetaRule.practical(), spf_1e5)
        assert is_in_B(6, ThetaRule.dense(2), spf_1e5)

    def test_range_error(self, spf_1e5):
        with pytest.raises(RangeError):
            is_in_B(10**5 + 1, ThetaRule.practical(), spf_1e5)

    def test_tie_is_in(self, spf_1e5):
        # 2*2 = theta(2) under dense(2), and p=2 <= 2 admits
        assert is_in_B(4, ThetaRule.dense(2), spf_1e5)
        # practical: theta(2) = sigma(2)+1 = 4, so p=3 admitted but p=5 not
        assert is_in_B(6, ThetaRule.practical(), spf_1e5)
        assert not is_in_B(10, ThetaRule.practical(), spf_1e5)


class TestDivisorOracle:
    def test_examples(self, spf_1e5):
        assert is_t_dense_by_divisors(1, 1, spf_1e5)
        assert not is_t_dense_by_divisors(10, 2, spf_1e5)
        assert is_t_dense_by_divisors(18, 2, spf_1e5)

    def test_t_below_one_rejected(self, spf_1e5):
        with pytest.raises(RangeError):
            is_t_dense_by_divisors(6, 0.5, spf_1e5)

    def test_rational_boundary_exact(self, spf_1e5):
        # divisors of 6: 1,2,3,6 with worst ratio exactly 2
        assert is_t_dense_by_divisors(6, 2, spf_1e5)
        assert not is_t_dense_by_divisors(6, Fraction(199, 100), spf_1e5)


class TestSubsetSumOracle:
    def test_examples(self, spf_1e6):
        assert is_practical_by_subset_sum(1, spf_1e6)
        assert not is_practical_by_subset_sum(3, spf_1e6)
        assert is_practical_by_subset_sum(12, spf_1e6)

    def test_scale_cap(self, spf_1e6):
        with pytest.raises(ResourceError):
            is_practical_by_subset_sum(10**6 + 2, spf_1e6)


class TestGenerate:
    def test_practical_30(self):
        assert generate_B(ThetaRule.practical(), 30).tolist() == B_PRACTICAL_30

    def test_dense2_20(self):
        assert generate_B(ThetaRule.dense(2), 20).tolist() == B_DENSE2_20

    def test_x_one(self):
        assert generate_B(ThetaRule.practical(), 1).tolist() == [1]

    def test_x_below_one(self):
        with pytest.raises(RangeError):
            generate_B(ThetaRule.practical(), 0)

    def test_no_duplicates(self):
        # generate_B sorts parents and leaves together without dropping repeats
        ns = generate_B(ThetaRule.dense(2), 50000)
        assert np.all(np.diff(ns) > 0)
        assert len(ns) == dense_stats(50000, 2).count

    def test_matches_membership_filter(self, spf_1e5):
        for rule in (ThetaRule.dense(3), ThetaRule.practical()):
            got = set(generate_B(rule, 5000).tolist())
            want = {n for n in range(1, 5001) if is_in_B(n, rule, spf_1e5)}
            assert got == want

    def test_sigma_tau_carried_exactly(self, spf_1e5):
        recs = _chain(ThetaRule.practical(), 3000)[0]
        for n, sg, tu, _lo, _hi in recs.T.tolist():
            assert sg == sigma(n, spf_1e5)
            assert tu == tau(n, spf_1e5)
        # leaves carry 2*tau(n) and sigma(n)*(1+p); b_rows shows both for every member
        ns, taus, thetas = b_rows(ThetaRule.practical(), 3000)
        assert len(ns) > recs.shape[1]
        for n, tu, tf in zip(ns.tolist(), taus.tolist(), thetas.tolist()):
            assert tu == tau(n, spf_1e5)
            assert tf == sigma(n, spf_1e5) + 1

    def test_stream_writer(self):
        buf = io.StringIO()
        write_b_stream(ThetaRule.dense(2), 20, buf)
        assert buf.getvalue() == "".join(f"{n}\n" for n in B_DENSE2_20)

    def test_write_lines_matches_joined_chunks(self, monkeypatch, rng):
        # one %-format per chunk gives the bytes of a newline join per chunk;
        # a short chunk makes the arrays cross chunk boundaries
        monkeypatch.setattr("divmean._util.CHUNK", 7)
        for values in (
            np.array([], dtype=np.int64),
            np.array([1], dtype=np.int64),
            np.arange(1, 8, dtype=np.int64),
            np.sort(rng.integers(1, 2**62, 100)),
        ):
            joined = "".join(
                "\n".join(map(str, values[i : i + 7].tolist())) + "\n"
                for i in range(0, len(values), 7)
            )
            buf = io.StringIO()
            assert _util.write_lines(buf, values) == len(values)
            assert buf.getvalue() == joined


class TestEquivalence:
    """Chain membership against the defining divisor / subset-sum properties."""

    @pytest.mark.parametrize("t", [2, Fraction(5, 2), 3, 10])
    def test_dense_matches_divisor_ratios(self, t, spf_1e5):
        limit = 10**5
        chain = np.zeros(limit + 1, dtype=bool)
        chain[generate_B(ThetaRule.dense(t), limit)] = True
        for n in range(1, limit + 1):
            assert chain[n] == is_t_dense_by_divisors(n, t, spf_1e5), n

    def test_practical_matches_subset_sums(self, spf_1e5):
        limit = 10**4
        chain = np.zeros(limit + 1, dtype=bool)
        chain[generate_B(ThetaRule.practical(), limit)] = True
        for n in range(1, limit + 1):
            assert chain[n] == is_practical_by_subset_sum(n, spf_1e5), n


class TestRoughStats:
    def test_example_small(self):
        st_ = rough_stats(10, 2)
        assert (st_.count, st_.tau_sum) == (5, 10)

    def test_y_at_least_x(self):
        for x, y in ((10, 10), (10, 11), (100, 1000)):
            st_ = rough_stats(x, y)
            assert (st_.count, st_.tau_sum, st_.harmonic) == (1, 1, 1.0)

    def test_golden_oracle_100_7(self):
        text = (GOLDEN / "rough_100_7_oracle.txt").read_text()
        phi = int(re.search(r"phi\(100,7\) = (\d+)", text).group(1))
        s = int(re.search(r"S\(100,7\) = (\d+)", text).group(1))
        harm = float(re.search(r"harmonic\(100,7\) = ([\d.]+)", text).group(1))
        st_ = rough_stats(100, 7)
        assert st_.count == phi == 22
        assert st_.tau_sum == s == 43
        assert st_.harmonic == pytest.approx(harm, abs=1e-12)

    def test_members_match_smallest_prime_factor(self, spf_1e5):
        for x in (1, 2, 3, 4, 8, 9, 10, 99, 100, 101, 1000):
            for y in (2, 2.5, 3, 7, 9.9, 10, 11, 31, 32, 100, 1000, 5000):
                want = [1] + [n for n in range(2, x + 1) if spf_1e5.smallest_prime_factor(n) > y]
                assert rough_members(x, y).tolist() == want, (x, y)
        # the odd sieve at full fixture width, y on both sides of sqrt(x)
        for x in (99_999, 100_000):
            r = math.isqrt(x)
            for y in (2, 3, r - 1, r, r + 1, 1000.5, x):
                want = [1] + (np.flatnonzero(spf_1e5.spf[2 : x + 1] > y) + 2).tolist()
                assert rough_members(x, y).tolist() == want, (x, y)

    def test_sieves_only_to_sqrt_x(self, monkeypatch):
        # with y >= x the old sieve built a prime list to x; at x = ROUGH_LIMIT
        # that was beyond the sieve budget.  Same situation at a small budget:
        monkeypatch.setattr("divmean.sieve.DEFAULT_SPF_BUDGET", 64)
        with pytest.raises(ResourceError):
            build_prime_list(1000)
        assert rough_members(1000, 1000).tolist() == [1]
        assert rough_stats(1000, 500).count == 1 + 168 - 95

    def test_harmonic_sum_keeps_near_the_mask(self):
        # the harmonic sum reads the sieve mask a chunk at a time: listing the
        # 2^21 members as int64 alone would take 8x the mask
        x = 1 << 22
        tracemalloc.start()
        try:
            st_ = rough_stats(x, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.count == x // 2
        assert peak < 4 * ((x + 1) // 2)

    def test_domain_errors(self, monkeypatch):
        with pytest.raises(RangeError):
            rough_stats(0, 5)
        with pytest.raises(RangeError):
            rough_stats(10, 1.5)
        monkeypatch.setattr("divmean.theta.ROUGH_LIMIT", 10**5)
        with pytest.raises(RangeError):
            rough_stats(10**6, 5)

    def test_hyperbola_pair_count_against_direct_search(self, monkeypatch):
        # S(x, y) by the hyperbola method against sum_a Phi(x/a) over every a;
        # perfect squares and y on both sides of sqrt(x) included.  A short
        # chunk makes the harmonic sum cross chunk boundaries.
        monkeypatch.setattr("divmean._util.CHUNK", 7)
        xs = list(range(1, 200)) + [k * k + e for k in (15, 31, 50, 99, 100) for e in (-1, 0, 1)]
        xs += [5000, 10**4]
        for x in xs:
            r = math.isqrt(x)
            for y in (2, 3, 7.5, 11, max(2, r - 1), max(2, r), r + 1, 2 * r + 3):
                rough = rough_members(x, y)
                direct = int(np.searchsorted(rough, x // rough, side="right").sum())
                st_ = rough_stats(x, y)
                assert st_.tau_sum == direct, (x, y)
                assert st_.harmonic == math.fsum((1.0 / rough).tolist()), (x, y)

    def test_pair_count_against_direct_loop(self):
        # S counts pairs (a, b) of y-rough numbers with a*b <= x
        x, y = 2000, 11
        st_ = rough_stats(x, y)
        members = [n for n in range(1, x + 1) if n == 1 or all(n % p for p in (2, 3, 5, 7, 11))]
        direct = sum(1 for a in members for b in members if a * b <= x)
        assert st_.tau_sum == direct
        assert st_.count == len(members)
        assert st_.harmonic == pytest.approx(math.fsum(1.0 / np.array(members)), rel=1e-14)


    def test_mask_counts_match_member_array(self):
        # Phi and S read from the sieve blocks against the member array: its
        # length, and the hyperbola over searchsorted counts of x // a
        for y in (2, 2.5, 3, 5, 7, 10.5, 31, 100, 3000):
            for x in range(1, 3001):
                rough = rough_members(x, y)
                k = int(np.searchsorted(rough, math.isqrt(x), side="right"))
                s = 2 * int(np.searchsorted(rough, x // rough[:k], side="right").sum()) - k * k
                assert _rough_sums(x, y, harmonic=False) == (len(rough), s, 0.0), (x, y)

    @pytest.mark.parametrize("block", [1, 2, 3, 8, 500])
    def test_segmented_matches_single_mask(self, block, monkeypatch, rough_reference, rng):
        # blocks of a few odd numbers, so the rough a <= sqrt(x) lie past the
        # first block and the ends (x//a + 1)//2 fall in every block, on its
        # edges too; the harmonic sum crosses chunk and block edges
        monkeypatch.setattr("divmean.sieve._BLOCK", block)
        monkeypatch.setattr("divmean._util.CHUNK", 7)
        xs = rng.integers(1, 2000, 12).tolist() + [1, 2, 3, 4, 9, 10, 99, 100, 841]
        xs += [2 * k * block + e for k in (1, 2, 5) for e in (-1, 1)]
        for x in xs:
            r = math.isqrt(x)
            ys = [2, 2.5, float(rng.uniform(2, r + 2)), r, r + 0.5, r + 1, x + 1]
            for y in [max(y, 2) for y in ys] + [float(rng.uniform(2, 60))]:
                members, phi, tau_sum, harm = rough_reference(x, y)
                assert rough_stats(x, y) == SeqStats(x, phi, tau_sum, harm), (x, y)
                assert rough_members(x, y).tolist() == members.tolist(), (x, y)

    def test_rough_path_holds_one_block(self):
        # the mask over every odd number up to 2^23 would be 4 MB; the blocks
        # hold one sieve block (1 MB) and one chunk of reciprocals
        x = 1 << 23
        tracemalloc.start()
        try:
            st_ = rough_stats(x, 3000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.count == 563_734
        assert peak < 3 << 20


class TestChainStats:
    def test_dense_example(self):
        st_ = dense_stats(20, 2)
        assert (st_.count, st_.tau_sum) == (9, 37)

    def test_dense_x_one(self):
        st_ = dense_stats(1, 2)
        assert (st_.count, st_.tau_sum) == (1, 1)

    def test_dense_t_below_two(self):
        with pytest.raises(RangeError):
            dense_stats(100, 1.5)

    def test_practical_example(self):
        assert practical_stats(30).count == 12

    def test_tau_sum_against_table(self, spf_1e5):
        st_ = dense_stats(10**4, 2)
        members = generate_B(ThetaRule.dense(2), 10**4)
        assert st_.count == len(members)
        assert st_.tau_sum == sum(tau(int(n), spf_1e5) for n in members)

    def test_multi_cutoff_consistent(self):
        cuts = [10, 100, 1000, 10**4]
        multi = chain_stats_multi(ThetaRule.practical(), cuts)
        for st_, c in zip(multi, cuts):
            single = practical_stats(c)
            assert st_ == SeqStats(c, single.count, single.tau_sum)

    def test_multi_cutoff_domain(self):
        with pytest.raises(RangeError):
            chain_stats_multi(ThetaRule.practical(), [0, 10])


class TestFactorSplit:
    def test_member_maps_to_itself(self, spf_1e5):
        for m in B_PRACTICAL_30:
            assert factor_nr(m, ThetaRule.practical(), spf_1e5) == (m, 1)

    def test_examples(self, spf_1e5):
        assert factor_nr(10, ThetaRule.dense(2), spf_1e5) == (2, 5)
        assert factor_nr(5, ThetaRule.dense(2), spf_1e5) == (1, 5)

    def test_partition_exhaustive_1e5(self, spf_1e6):
        # every m splits as m = n*r with n in the chain set and the
        # remainder's least prime factor above theta(n)
        for rule in (ThetaRule.dense(2), ThetaRule.practical()):
            limit = 10**5
            in_b = np.zeros(limit + 1, dtype=bool)
            in_b[generate_B(rule, limit)] = True
            for m in range(1, limit + 1):
                n, r = factor_nr(m, rule, spf_1e6)
                assert n * r == m
                assert in_b[n]
                if r > 1:
                    tf = rule.theta_floor(n, sigma(n, spf_1e6))
                    assert spf_1e6.smallest_prime_factor(r) > tf

    @settings(max_examples=80)
    @given(m=st.integers(min_value=10**5 + 1, max_value=10**6))
    def test_partition_sampled_to_1e6(self, m):
        table = _shared_table()
        for rule in (ThetaRule.dense(2), ThetaRule.practical()):
            n, r = factor_nr(m, rule, table)
            assert n * r == m
            assert is_in_B(n, rule, table)
            if r > 1:
                tf = rule.theta_floor(n, sigma(n, table))
                assert table.smallest_prime_factor(r) > tf


_TABLE_CACHE = {}


def _shared_table():
    if "t" not in _TABLE_CACHE:
        _TABLE_CACHE["t"] = build_spf_table(10**6)
    return _TABLE_CACHE["t"]


class TestCountingIdentity:
    """Both sides in exact integers; equality must be literal, not approximate."""

    @pytest.mark.parametrize("x", [10**3, 10**4])
    @pytest.mark.parametrize("make", [lambda: ThetaRule.dense(2), ThetaRule.practical])
    def test_exact(self, x, make):
        res = verify_funceq(x, make())
        assert res["exact"]
        assert res["count_lhs"] == res["count_rhs"]
        assert res["tau_lhs"] == res["tau_rhs"]

    def test_bijection_count_at_1e6(self):
        # count equality at 1e6 pins the split map as a bijection there
        res = verify_funceq(10**6, ThetaRule.practical())
        assert res["exact"]

    @pytest.mark.parametrize("x", [1, 2, 10, 1000, 10**5])
    @pytest.mark.parametrize(
        "rule",
        [ThetaRule.practical(), *(ThetaRule.dense(t) for t in (2, "5/2", 100))],
        ids=lambda r: r.name,
    )
    def test_matches_reference_loop(self, x, rule, spf_1e6, monkeypatch):
        want = _reference_funceq(x, rule, spf_1e6)
        assert verify_funceq(x, rule) == want
        # the identity reads parent records only and never lists B(x)
        monkeypatch.setattr("divmean.theta.MEMBER_LIMIT", 1)
        assert verify_funceq(x, rule) == want

    @pytest.mark.parametrize("block", [1, 3, 64])
    def test_tiny_rough_blocks_change_nothing(self, block, spf_1e6, monkeypatch):
        # every inner Phi and S read across blocks of a few odd numbers
        rule = ThetaRule.practical()
        want = _reference_funceq(10**4, rule, spf_1e6)
        monkeypatch.setattr("divmean.sieve._BLOCK", block)
        assert verify_funceq(10**4, rule) == want

    def test_theta_read_once_per_parent(self, monkeypatch):
        # a float t takes the one-Python-call-per-member floor path; the inner
        # sums read the walk's caps, so theta is evaluated once per parent
        rule, x = ThetaRule.dense(2.1), 10**5
        parents = _chain(rule, x)[0][0].tolist()
        calls, floor = [], ThetaRule.theta_floor
        monkeypatch.setattr(
            ThetaRule, "theta_floor", lambda self, n, sg=None: calls.append(n) or floor(self, n, sg)
        )
        assert verify_funceq(x, rule)["exact"]
        assert sorted(calls) == sorted(parents)


def _bulk_tau(x):
    # hyperbola fill: each divisor pair (d, n/d) with d*d <= n adds 2,
    # perfect squares correct the double count
    arr = np.zeros(x + 1, dtype=np.int32)
    for d in range(1, math.isqrt(x) + 1):
        arr[d * d :: d] += 2
        arr[d * d] -= 1
    return arr


def _reference_funceq(x, rule, table):
    """verify_funceq as the old loop over every row of B(x): spf masks, a tau
    table and an x-long LHS."""
    d = np.arange(1, x + 1, dtype=np.int64)
    lhs_tau = int((x // d).sum())
    tau_arr = _bulk_tau(x).astype(np.int64)
    spf = table.spf[: x + 1].astype(np.int64)
    rhs_tau = 0
    rhs_count = 0
    for n, tu, tf in zip(*b_rows(rule, x)):
        n = int(n)
        tu = int(tu)
        z = x // n
        w = int(tf)
        if z >= 2 and w < z:
            sel = spf[2 : z + 1] > w
            inner_t = int(tau_arr[2 : z + 1][sel].sum())
            inner_c = int(sel.sum())
        else:
            inner_t = inner_c = 0
        rhs_tau += tu * (1 + inner_t)
        rhs_count += 1 + inner_c
    return {
        "x": x,
        "theta": rule.name,
        "count_lhs": x,
        "count_rhs": rhs_count,
        "tau_lhs": lhs_tau,
        "tau_rhs": rhs_tau,
        "exact": x == rhs_count and lhs_tau == rhs_tau,
    }


class TestCustomRules:
    def test_validation(self):
        with pytest.raises(ConfigError):
            ThetaRule.custom({2: 3})  # theta(1) missing
        with pytest.raises(ConfigError):
            ThetaRule.custom({1: 1, 2: 3})  # theta(1) < 2
        with pytest.raises(ConfigError):
            ThetaRule.custom({1: 2, 12: 2})  # theta(12) below P+(12) = 3

    def test_missing_value_during_walk(self):
        rule = ThetaRule.custom({1: 10})
        with pytest.raises(ConfigError):
            generate_B(rule, 100)

    def test_leaf_values_needed_only_for_rows(self, spf_1e5):
        # leaves are counted, never expanded, so only b_rows reads their theta
        x = 1000
        full = {n: sigma(n, spf_1e5) + 1 for n in range(1, x + 1)}
        ns = _chain(ThetaRule.custom(full), x)[0][0]
        parents_only = ThetaRule.custom({n: full[n] for n in ns.tolist()})
        assert len(ns) < len(generate_B(ThetaRule.practical(), x))
        assert np.array_equal(
            generate_B(parents_only, x), generate_B(ThetaRule.practical(), x)
        )
        with pytest.raises(ConfigError):
            b_rows(parents_only, x)

    def test_infinite_theta_gives_full_interval(self):
        full = {n: math.inf for n in range(1, 61)}
        rule = ThetaRule.custom(full)
        assert generate_B(rule, 60).tolist() == list(range(1, 61))

    def test_monotone_maps_nest(self):
        x = 60
        lo = {1: 2, **{n: _pplus(n) + 2 for n in range(2, x + 1)}}
        hi = {1: 4, **{n: 2 * n for n in range(2, x + 1)}}
        b_lo = set(generate_B(ThetaRule.custom(lo), x).tolist())
        b_hi = set(generate_B(ThetaRule.custom(hi), x).tolist())
        assert b_lo <= b_hi

    @settings(max_examples=40)
    @given(
        bumps=st.lists(st.integers(min_value=0, max_value=8), min_size=40, max_size=40),
        extra=st.lists(st.integers(min_value=0, max_value=8), min_size=40, max_size=40),
    )
    def test_monotone_maps_nest_random(self, bumps, extra):
        x = 40
        lo = {1: 2 + bumps[0]}
        hi = {1: lo[1] + extra[0]}
        for n in range(2, x + 1):
            lo[n] = _pplus(n) + bumps[n - 1]
            hi[n] = lo[n] + extra[n - 1]
        b_lo = set(generate_B(ThetaRule.custom(lo), x).tolist())
        b_hi = set(generate_B(ThetaRule.custom(hi), x).tolist())
        assert b_lo <= b_hi


def _pplus(n):
    big = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            big = d
            n //= d
        d += 1
    return n if n > 1 else big


class TestRows:
    def test_rows_sorted_and_consistent(self, spf_1e5):
        rule = ThetaRule.practical()
        ns, taus, thetas = b_rows(rule, 2000)
        assert np.all(np.diff(ns) > 0)
        for n, tu, tf in zip(ns.tolist(), taus.tolist(), thetas.tolist()):
            assert tu == tau(n, spf_1e5)
            assert tf == sigma(n, spf_1e5) + 1


def _reference_walk(rule, x):
    """Member-by-member DFS over B(x), yielding (n, sigma(n), tau(n)) for each.

    The engine walks parents only and counts their leaves in bulk; this plain
    walk pushes every member through the stack and is the reference it must
    match in exact integers.
    """
    plist = _primes_for_rule(rule, x).primes.tolist()
    stack = [(1, 1, 1, 0)]
    while stack:
        n, sg, tu, i0 = stack.pop()
        yield n, sg, tu
        lim = x // n
        cap = rule.theta_floor(n, sg)
        cap = lim if cap is None else min(cap, lim)
        for i in range(i0, len(plist)):
            p = plist[i]
            if p > cap:
                break
            m = n * p
            spow = 1 + p
            a = 2
            while m <= x:
                stack.append((m, sg * spow, tu * a, i + 1))
                m *= p
                spow = spow * p + 1
                a += 1


GATE_RULES = {
    "practical": ThetaRule.practical,
    "dense-2": lambda: ThetaRule.dense(2),
    "dense-5/2": lambda: ThetaRule.dense(Fraction(5, 2)),
    "dense-3": lambda: ThetaRule.dense(3),
    "dense-10": lambda: ThetaRule.dense(10),
    "dense-100": lambda: ThetaRule.dense(100),
    # Fraction(2.1) has a 52-bit numerator: n*p*t_num overflows int64 above ~2000
    "dense-2.1": lambda: ThetaRule.dense(2.1),
}


class TestEngineMatchesReferenceWalk:
    """Integer equality of every public chain output with the member-by-member walk."""

    @pytest.mark.parametrize("x", [10**3, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("name", sorted(GATE_RULES))
    def test_all_outputs(self, name, x):
        rule = GATE_RULES[name]()
        rows = sorted(_reference_walk(rule, x))
        ns = np.array([n for n, _s, _t in rows], dtype=np.int64)
        taus = np.array([t for _n, _s, t in rows], dtype=np.int64)
        thetas = np.array([rule.theta_floor(n, s) for n, s, _t in rows], dtype=np.int64)

        got = b_rows(rule, x)
        for arr, want in zip(got, (ns, taus, thetas)):
            assert arr.dtype == np.int64
            assert np.array_equal(arr, want)
        assert np.array_equal(generate_B(rule, x), ns)

        if rule.kind == "practical":
            single = practical_stats(x)
        else:
            single = dense_stats(x, Fraction(rule.t_num, rule.t_den))
        assert single == SeqStats(x, len(rows), int(taus.sum()))

        cuts = [1, 2, 7, x // 10, x // 3 + 1, x - 1, x]
        multi = chain_stats_multi(rule, cuts)
        for c, st_ in zip(sorted(cuts), multi):
            inside = ns <= c
            assert st_ == SeqStats(c, int(inside.sum()), int(taus[inside].sum()))


def _reference_parents(rule, x, plist, limit):
    """Parent records (n, sigma(n), tau(n), lo, hi) of B(x), one stack entry at a time.

    plist holds every prime <= limit.  A stack entry (n, sigma(n), tau(n), i0)
    may go on with the primes plist[i0:] up to cap = min(floor(theta(n)), x//n);
    its leaves n*p, p > isqrt(x//n), are the slice plist[lo:hi], and smaller
    primes give the children n*p^a.  This scalar walk is the reference the
    records of the numpy block walk `theta._blocks` must equal.
    """
    stack = [(1, 1, 1, 0)]
    while stack:
        n, sg, tu, i0 = stack.pop()
        lim = x // n
        cap = rule.theta_floor(n, sg)
        if cap is None or cap > lim:
            cap = lim
        if cap > limit:
            raise RangeError(f"chain cap {cap} at n={n} beyond prime list limit {limit}")
        hi = bisect_right(plist, cap, i0)
        lo = bisect_right(plist, math.isqrt(lim), i0, hi)
        yield n, sg, tu, lo, hi
        for i in range(i0, lo):
            p = plist[i]
            m = n * p
            spow = 1 + p
            a = 2
            while m <= x:
                stack.append((m, sg * spow, tu * a, i + 1))
                m *= p
                spow = spow * p + 1
                a += 1


class _HalfSigma:
    """theta(n) = (n + sigma(n))//2 + 1, at least n: neither dense nor practical."""

    @staticmethod
    def theta_floor(n, sg):
        return (n + sg) // 2 + 1


def _custom_rule(x):
    """_HalfSigma as a custom table on the parents of its walk to x.

    Only parents read theta, and a table over every n <= x would be checked
    by trial division, entry by entry.
    """
    pl = build_prime_list(max(x, 2))
    parents = _reference_parents(_HalfSigma, x, pl.primes.tolist(), pl.limit)
    return ThetaRule.custom({n: _HalfSigma.theta_floor(n, sg) for n, sg, *_ in parents})


class TestBlockWalk:
    """The numpy block walk against the scalar reference walk, record for record."""

    @pytest.mark.parametrize("x", [1, 2, 10**3, 10**4, 10**5, 10**6])
    @pytest.mark.parametrize("name", [*sorted(GATE_RULES), "custom"])
    def test_records_match_reference_parents(self, name, x):
        rule = _custom_rule(x) if name == "custom" else GATE_RULES[name]()
        pl = _primes_for_rule(rule, x)
        want = sorted(_reference_parents(rule, x, pl.primes.tolist(), pl.limit))
        assert sorted(map(tuple, _chain(rule, x)[0].T.tolist())) == want

    @pytest.mark.parametrize("name", ["practical", "dense-2", "dense-2.1"])
    def test_small_blocks_give_the_same_records(self, name, monkeypatch):
        # blocks of 7 parents: every level of children is cut into many blocks
        rule, x, cuts = GATE_RULES[name](), 10**5, [10, 999, 10**5]
        want = sorted(map(tuple, _chain(rule, x)[0].T.tolist()))
        want_stats = chain_stats_multi(rule, cuts)
        monkeypatch.setattr("divmean._util.CHUNK", 7)
        pl = _primes_for_rule(rule, x)
        blocks = [rec for rec, _ in _blocks(rule, x, pl.primes, pl.limit)]
        assert max(b.shape[1] for b in blocks) == 7
        assert sorted(map(tuple, np.concatenate(blocks, axis=1).T.tolist())) == want
        assert chain_stats_multi(rule, cuts) == want_stats

    @pytest.mark.parametrize("x", [10**8, 10**9])
    def test_practical_rows_of_the_repository(self, x):
        want = {10**8: (7_266_286, 565_147_032), 10**9: (64_782_731, 6_150_906_187)}[x]
        st_ = practical_stats(x)
        assert (st_.count, st_.tau_sum) == want

    @pytest.mark.parametrize("name", ["practical", "2", "5/2", "100"])
    def test_factorisation_oracle_above_1e6(self, name, factorisation_chain):
        rules, (members, tau_) = factorisation_chain
        t = rules[name]
        rule = ThetaRule.practical() if t is None else ThetaRule.dense(t)
        cuts = [10**6, 3 * 10**6, 10**7]
        want = []
        for x in cuts:
            m = members[name][: x + 1]
            want.append((int(m.sum()), int(tau_[: x + 1][m].sum())))
        assert [(st_.count, st_.tau_sum) for st_ in chain_stats_multi(rule, cuts)] == want


@pytest.fixture(scope="module")
def factorisation_chain():
    """perfbench's membership test by factorisation, shared with none of divmean:
    (its rules, (member mask per rule, tau)) for n <= 1e7, built once (about 11 s)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(PERFBENCH))  # make_reference imports its siblings
        make_reference = importlib.import_module("make_reference")
    return make_reference.CHAIN_RULES, make_reference.chain_tables(10**7)


class TestIsqrt:
    """The walk's vectorised isqrt against math.isqrt.

    Its inputs are x//n <= x.  Every walk builds a prime list first, whose
    2^27-entry budget caps x near 2.6e15 for the practical rule (primes up to
    sqrt(7x)) and lower for any dense rule, far inside the 2^62 range tested.
    """

    def test_around_squares(self):
        # k in [1, 2^22], in [2^31 - 2^22, 2^31], and within 2^16 of each power
        # of two, where the float spacing of k^2 doubles
        ends = [(1, 1 << 22), ((1 << 31) - (1 << 22), 1 << 31)]
        ends += [((1 << j) - (1 << 16), (1 << j) + (1 << 16)) for j in range(23, 31)]
        for lo, hi in ends:
            k = np.arange(lo, hi + 1, dtype=np.int64)
            sq = k * k
            assert np.array_equal(_isqrt(sq), k)
            assert np.array_equal(_isqrt(sq - 1), k - 1)
            up = sq < 1 << 62  # (2^31)^2 + 1 is past the range
            assert np.array_equal(_isqrt(sq[up] + 1), k[up])

    def test_random_against_math_isqrt(self):
        rng = np.random.default_rng(13)
        a = rng.integers(0, 1 << 62, size=200_000, endpoint=True, dtype=np.int64)
        k = rng.integers(1, 1 << 31, size=100_000, endpoint=True, dtype=np.int64)
        a = np.concatenate([a, k * k - 1, k * k, np.minimum(k * k + 1, 1 << 62), [0, 1 << 62]])
        assert _isqrt(a).tolist() == [math.isqrt(v) for v in a.tolist()]


class TestPrimeCap:
    def test_short_prime_list_raises(self):
        # dense(2) at 1000 has caps up to 31 (n=32: min(64, 1000//32)); primes to 10 fall short
        pl = build_prime_list(10)
        with pytest.raises(RangeError, match="beyond prime list limit 10"):
            list(_blocks(ThetaRule.dense(2), 1000, pl.primes, pl.limit))
        with pytest.raises(RangeError, match="beyond prime list limit 10"):
            list(_reference_parents(ThetaRule.dense(2), 1000, pl.primes.tolist(), pl.limit))
