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
from divmean.errors import RangeError, ResourceError
from divmean.sieve import DEFAULT_SPF_BUDGET, build_prime_list, build_spf_table
from divmean.theta import (
    SeqStats,
    ThetaRule,
    _blocks,
    _primes_for_rule,
    _records,
    _rough_sums,
    _walk,
    b_rows,
    chain_stats_multi,
    dense_stats,
    generate_B,
    practical_stats,
    rough_members,
    rough_stats,
    verify_funceq,
    write_b_stream,
)
from oracles.checks import (
    factor_nr,
    is_in_B,
    is_practical_by_subset_sum,
    is_t_dense_by_divisors,
    sigma,
    smallest_prime_factor,
    tau,
)

GOLDEN = Path(__file__).parent / "golden"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

B_PRACTICAL_30 = [1, 2, 4, 6, 8, 12, 16, 18, 20, 24, 28, 30]
B_DENSE2_20 = [1, 2, 4, 6, 8, 12, 16, 18, 20]


_ROOT = np.array([[1], [1], [1], [0]], dtype=np.int64)  # the walk's first block: n = 1


def _record_array(rule, x):  # B(x)'s parent records (n, sigma, tau, lo, hi) as one (5, k) array
    return np.concatenate(_records(rule, x)[1], axis=1)


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

    def test_refused_before_any_member_is_kept(self, monkeypatch):
        # the counted walk keeps parent records only; B(1e7)'s 829,157 members alone take 6.3 MiB
        rule = ThetaRule.practical()
        count = practical_stats(10**7).count
        monkeypatch.setattr("divmean.theta.MEMBER_LIMIT", count - 1)
        tracemalloc.start()
        try:
            with pytest.raises(ResourceError, match=f"^{count} chain members"):
                generate_B(rule, 10**7)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 << 20

    def test_one_walk(self, monkeypatch):
        # the counted walk's parent records give every member; no second walk fills them
        calls, walk = [], _walk
        monkeypatch.setattr("divmean.theta._walk", lambda *a: calls.append(a) or walk(*a))
        rule = ThetaRule.practical()
        assert generate_B(rule, 30).tolist() == B_PRACTICAL_30
        assert calls == [(rule, 30)]

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
        recs = _record_array(ThetaRule.practical(), 3000)
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
                want = [1] + [n for n in range(2, x + 1) if smallest_prime_factor(spf_1e5, n) > y]
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
                    assert smallest_prime_factor(spf_1e6, r) > tf

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
                assert smallest_prime_factor(table, r) > tf


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
        parents = _record_array(rule, x)[0].tolist()
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


class TestRows:
    def test_rows_sorted_and_consistent(self, spf_1e5):
        rule = ThetaRule.practical()
        ns, taus, thetas = b_rows(rule, 2000)
        assert np.all(np.diff(ns) > 0)
        for n, tu, tf in zip(ns.tolist(), taus.tolist(), thetas.tolist()):
            assert tu == tau(n, spf_1e5)
            assert tf == sigma(n, spf_1e5) + 1


class TestLeafLimit:
    """A leaf n*p has floor(theta) < end exactly when its key c*(p + d) is at most the
    limit of leaf_limit(end, n, sigma(n)), that is when p <= limit // c - d: at ends on a
    leaf floor and one either side, against the floors of every leaf below 3000."""

    @pytest.mark.parametrize(
        "rule",
        [ThetaRule.practical(), *(ThetaRule.dense(t) for t in (2, Fraction(5, 2), 100, 2.1))],
        ids=lambda r: r.name,
    )
    def test_matches_brute_force_floors(self, rule, spf_1e5):
        primes = build_prime_list(3000).primes.tolist()
        for n, top_prime in ((1, 1), (2, 2), (6, 3), (12, 3), (30, 5), (210, 7), (3072, 3)):
            sg = sigma(n, spf_1e5)
            leaves = [p for p in primes if p > top_prime]
            floors = [rule.theta_floor(n * p, sg * (p + 1)) for p in leaves]
            for f in floors[::37] + floors[-1:]:
                for end in (f - 1, f, f + 1):
                    c, d, limit = rule.leaf_limit(end, n, sg)
                    below = [p for p, fl in zip(leaves, floors) if fl < end]
                    assert [p for p in leaves if c * (p + d) <= limit] == below, (n, end)
                    assert [p for p in leaves if p <= limit // c - d] == below, (n, end)


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
        cap = min(rule.theta_floor(n, sg), lim)
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
        cap = min(rule.theta_floor(n, sg), lim)
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


class TestBlockWalk:
    """The numpy block walk against the scalar reference walk, record for record."""

    # x on and beside 1009**2 (1009 is prime); at each x from 1e3 up, 2 to 15
    # parents have x//n equal to the square of a prime in their slice, where a
    # leaf cut off by one would show
    @pytest.mark.parametrize("x", [1, 2, 10**3, 10**4, 10**5, 10**6, *(1009**2 + d for d in (-1, 0, 1))])
    @pytest.mark.parametrize("name", sorted(GATE_RULES))
    def test_records_match_reference_parents(self, name, x):
        rule = GATE_RULES[name]()
        pl = _primes_for_rule(rule, x)
        want = sorted(_reference_parents(rule, x, pl.primes.tolist(), pl.limit))
        assert sorted(map(tuple, _record_array(rule, x).T.tolist())) == want

    def test_squares_of_listed_primes_fit_int64(self):
        # the walk's leaf cut reads parr * parr in int64; every listed prime is below the budget
        assert (DEFAULT_SPF_BUDGET - 1) ** 2 < 2**63

    @pytest.mark.parametrize("name", ["practical", "dense-2", "dense-2.1"])
    def test_small_blocks_give_the_same_records(self, name, monkeypatch):
        # windows of 7 pairs: a block's children are made a window at a time (the
        # 16 child primes of n = 24, practical, span at least three), they are
        # walked in blocks of at most 7 parents, and a window may split one
        # parent's child or leaf slice
        rule, x, cuts = GATE_RULES[name](), 10**5, [10, 999, 10**5]
        want = sorted(map(tuple, _record_array(rule, x).T.tolist()))
        want_stats, want_B = chain_stats_multi(rule, cuts), generate_B(rule, x)
        monkeypatch.setattr("divmean._util.CHUNK", 7)
        pl = _primes_for_rule(rule, x)
        blocks = [rec for rec, _ in _blocks(rule, x, pl.primes, pl.primes**2, pl.limit, _ROOT)]
        assert max(b.shape[1] for b in blocks) == 7
        assert sorted(map(tuple, np.concatenate(blocks, axis=1).T.tolist())) == want
        assert chain_stats_multi(rule, cuts) == want_stats
        assert np.array_equal(generate_B(rule, x), want_B)

    @pytest.mark.parametrize("x", [10**8, 10**9, 10**10])
    def test_practical_rows_of_the_repository(self, x):
        want = {
            10**8: (7_266_286, 565_147_032),
            10**9: (64_782_731, 6_150_906_187),
            10**10: (582_798_892, 66_252_898_434),
        }[x]
        st_ = practical_stats(x)
        assert (st_.count, st_.tau_sum) == want

    def test_walk_holds_a_window_per_level(self):
        # each level of the walk holds one block and one window of children
        # (about 10 MiB here); a block's children made all at once take 39 MiB
        tracemalloc.start()
        try:
            (st_,) = chain_stats_multi(ThetaRule.practical(), [10**10])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert st_.count == 582_798_892
        assert peak < 16 << 20

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


class TestPrimeCap:
    def test_short_prime_list_raises(self):
        # dense(2) at 1000 has caps up to 31 (n=32: min(64, 1000//32)); primes to 10 fall short
        pl = build_prime_list(10)
        with pytest.raises(RangeError, match="beyond prime list limit 10"):
            list(_blocks(ThetaRule.dense(2), 1000, pl.primes, pl.primes**2, pl.limit, _ROOT))
        with pytest.raises(RangeError, match="beyond prime list limit 10"):
            list(_reference_parents(ThetaRule.dense(2), 1000, pl.primes.tolist(), pl.limit))
