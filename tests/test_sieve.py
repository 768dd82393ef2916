import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from divmean import RangeError, ResourceError, sieve
from divmean.sieve import (
    DEFAULT_SPF_BUDGET,
    PRIME_WALK_LIMIT,
    build_prime_list,
    build_spf_table,
    divisors_sorted,
    odd_sieve,
    sigma,
    tau,
)
from divmean.theta import ThetaRule, b_rows

E_GAMMA = math.exp(-np.euler_gamma)


def _log_mertens(p):
    return np.log1p(-1.0 / p)


def _log_pm1(p):
    return np.log(p) / (p - 1.0)


def test_spf_examples():
    t = build_spf_table(10)
    assert t.spf[9] == 3
    assert t.spf[7] == 7
    assert t.spf[1] == 0 and t.spf[0] == 0


def test_spf_prime_count_100():
    t = build_spf_table(100)
    # a prime is its own smallest factor; 0 reads 0 too, so it is dropped
    assert np.count_nonzero(t.spf[1:] == np.arange(1, 101)) == 25


def test_spf_rejects_limit_1():
    with pytest.raises(RangeError):
        build_spf_table(1)


def test_spf_budget():
    with pytest.raises(ResourceError):
        build_spf_table(DEFAULT_SPF_BUDGET)


def test_prime_list_budget():
    # the check runs before the sieve is allocated
    with pytest.raises(ResourceError):
        build_prime_list(DEFAULT_SPF_BUDGET)
    assert build_prime_list(999).primes[-1] == 997


def test_spf_against_trial_division(spf_1e5):
    def spf_trial(n):
        if n % 2 == 0:
            return 2
        d = 3
        while d * d <= n:
            if n % d == 0:
                return d
            d += 2
        return n

    for n in range(2, 2000):
        assert spf_1e5.spf[n] == spf_trial(n), n


def test_tau_sigma_examples(spf_1e5):
    assert tau(1, spf_1e5) == 1
    assert tau(12, spf_1e5) == 6
    assert tau(2**10, spf_1e5) == 11
    assert sigma(1, spf_1e5) == 1
    assert sigma(7, spf_1e5) == 8
    assert sigma(12, spf_1e5) == 28


def test_divisors_examples(spf_1e5):
    assert divisors_sorted(1, spf_1e5) == [1]
    assert divisors_sorted(6, spf_1e5) == [1, 2, 3, 6]
    assert divisors_sorted(20, spf_1e5) == [1, 2, 4, 5, 10, 20]


def test_range_errors(spf_1e5):
    for bad in (0, -3, 10**5 + 1):
        with pytest.raises(RangeError):
            tau(bad, spf_1e5)
        with pytest.raises(RangeError):
            sigma(bad, spf_1e5)
        with pytest.raises(RangeError):
            divisors_sorted(bad, spf_1e5)


def test_tau_sigma_match_divisor_lists(spf_1e5):
    # full sweep n <= 1e5: tau = |divisors|, sigma = sum(divisors)
    lim = 10**5
    tau_arr = np.zeros(lim + 1, dtype=np.int64)
    sig_arr = np.zeros(lim + 1, dtype=np.int64)
    for d in range(1, lim + 1):
        tau_arr[d::d] += 1
        sig_arr[d::d] += d
    sample = list(range(1, 3000)) + list(range(3000, lim + 1, 97))
    for n in sample:
        divs = divisors_sorted(n, spf_1e5)
        assert tau(n, spf_1e5) == len(divs) == tau_arr[n]
        assert sigma(n, spf_1e5) == sum(divs) == sig_arr[n]
    # and the slice-built arrays pin the factorization route everywhere
    got_tau = np.array([tau(n, spf_1e5) for n in range(1, lim + 1, 17)])
    assert np.array_equal(got_tau, tau_arr[1::17])


def test_multiplicativity(spf_1e5, rng):
    lim = 316  # m*n stays within the table
    pairs = 0
    while pairs < 10**4:
        m = int(rng.integers(1, lim))
        n = int(rng.integers(1, lim))
        if math.gcd(m, n) != 1:
            continue
        pairs += 1
        assert tau(m * n, spf_1e5) == tau(m, spf_1e5) * tau(n, spf_1e5)
        assert sigma(m * n, spf_1e5) == sigma(m, spf_1e5) * sigma(n, spf_1e5)


@given(st.integers(min_value=2, max_value=10**5))
def test_spf_divides(n):
    t = _shared_table()
    p = t.smallest_prime_factor(n)
    assert n % p == 0
    assert all(n % q for q in range(2, min(p, 40)))


_TABLE = None


def _shared_table():
    global _TABLE
    if _TABLE is None:
        from divmean.sieve import build_spf_table as b

        _TABLE = b(10**5)
    return _TABLE


def test_mertens_examples(primes_1e5):
    assert primes_1e5.mertens(1) == 1.0
    assert primes_1e5.mertens(2) == 0.5
    assert abs(primes_1e5.mertens(10) - 8 / 35) < 1e-14
    assert abs(primes_1e5.mertens(10.9) - 8 / 35) < 1e-14


def test_mertens_range(primes_1e5):
    with pytest.raises(RangeError):
        primes_1e5.mertens(-1)
    with pytest.raises(RangeError):
        primes_1e5.mertens(10**5 + 1)


def test_mertens_envelope(primes_1e5):
    # product * log y should track e^-gamma within a generous 3/log y band
    for y in (10**3, 10**4, 10**5):
        got = primes_1e5.mertens(y) * math.log(y)
        band = 3 / math.log(y)
        assert E_GAMMA * (1 - band) <= got <= E_GAMMA * (1 + band), y


def test_mertens_many_matches_scalar(primes_1e5, prime_sums):
    ys = np.array([2.0, 10.0, 97.0, 1000.0, 99991.0])
    (bulk,) = prime_sums(ys, _log_mertens)
    for y, b in zip(ys, np.exp(bulk)):
        assert abs(b - primes_1e5.mertens(float(y))) < 1e-13


def test_logp_pm1_identity(prime_sums):
    # sum_{p<=y} log p/(p-1) = log y - gamma + o(1); loose structural check
    (got,) = prime_sums(np.array([10**5.0]), _log_pm1)
    assert abs(got[0] - (math.log(10**5) - np.euler_gamma)) < 0.01


def test_prime_list_vs_spf(spf_1e5):
    pl = build_prime_list(10**4)
    n = np.arange(10**4 + 1)
    assert np.array_equal(pl.primes, np.flatnonzero(spf_1e5.spf[: n.size] == n)[1:])
    assert pl.primes[0] == 2
    assert np.all(np.diff(pl.primes) > 0)


def _plain_sieve(limit):
    comp = np.ones(limit + 1, dtype=bool)
    comp[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if comp[p]:
            comp[p * p :: p] = False
    return np.flatnonzero(comp)


def test_odd_sieve_matches_plain_sieve():
    ref = _plain_sieve(10**6)
    limits = list(range(2, 3001))
    for p in ref[ref <= 1000].tolist():
        limits += [p * p - 1, p * p, p * p + 1]
    for limit in limits:
        got = build_prime_list(limit)
        want = ref[: np.searchsorted(ref, limit, side="right")]
        assert got.primes.dtype == np.int64
        assert np.array_equal(got.primes, want), limit
    # blocks (lo, limit] from even offsets, some starting or ending on a p*p, struck
    # by the odd primes up to bounds below and above sqrt(limit): the survivors
    # are the primes and the numbers with no odd prime factor <= bound
    blocks = [(0, 1), (0, 2), (0, 1000), (2, 99), (48, 49), (120, 169), (168, 289),
              (1000, 2209), (9408, 10201), (10**5, 10**5 + 5001), (999_000, 10**6)]
    for lo, limit in blocks:
        n = np.arange(lo + 1, limit + 1, 2)
        r = math.isqrt(limit)
        for bound in (1, 3, 10, r - 1, r, r + 1, 3 * r + 5):
            small = ref[(ref > 2) & (ref <= bound)]
            want = np.isin(n, ref) | np.all(n[:, None] % small != 0, axis=1)
            assert np.array_equal(odd_sieve(limit, bound, lo), want), (lo, limit, bound)


def test_sorted_pi_lookup_matches_unsorted(primes_1e5, rng, prime_sums):
    # a term of 1 per prime makes each sum pi(floor(y)), exactly
    primes = primes_1e5.primes
    # keys that repeat, fall exactly on primes or next to them, in random order
    keys = np.concatenate(
        [primes[:50], primes[-50:], primes[:50] - 1, primes[:50] + 1, [0, 1, 2, 2, 3, 99999]]
    )
    keys = np.concatenate([keys, keys[::3], rng.integers(0, 10**5, 500)])
    rng.shuffle(keys)
    for ys in (keys, keys.astype(np.float64) + 0.5, keys[:0], keys[:600].reshape(20, 30), 97.0):
        want = np.searchsorted(primes, np.floor(ys).astype(np.int64), side="right")
        (got,) = prime_sums(ys, np.ones_like)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@pytest.mark.parametrize("rule", [ThetaRule.practical(), ThetaRule.dense(2), ThetaRule.dense(Fraction(5, 2))])
@pytest.mark.parametrize("n", [10, 10**3, 10**5, 10**6])
def test_prime_sums_match_full_list(rule, n, full_list_sums, prime_sums):
    # the theta floors of a series walk, read bit for bit as the full list did
    tf = b_rows(rule, n)[2]
    got = prime_sums(tf, _log_mertens, _log_pm1)
    assert np.array_equal(got[0], full_list_sums(tf, _log_mertens))
    assert np.array_equal(got[1], full_list_sums(tf, _log_pm1))


@pytest.mark.parametrize("block", [1, 2, 3, 7, 500])
def test_prime_sums_tiny_blocks(block, monkeypatch, full_list_sums, rng, prime_sums):
    # each block is one sub-block: _SUB clamps to a _BLOCK below it
    monkeypatch.setattr(sieve, "_BLOCK", block)
    top = 20_000  # even: the last floors lie past the last odd number
    edges = np.arange(0, top, 2 * block)
    ps = build_prime_list(top).primes
    ys = np.concatenate(
        [edges - 1, edges, edges + 1, ps, ps - 1, ps + 1, [-1, 0, 1, top - 1, top, top]]
    )
    ys = ys[ys <= top]
    rng.shuffle(ys)
    for f in (_log_mertens, _log_pm1):
        (got,) = prime_sums(ys, f)
        assert np.array_equal(got, full_list_sums(ys, f))
    # below 2 no prime is taken: the empty product is exactly 1
    (low,) = prime_sums(np.array([1, 0, -1, 1]), _log_mertens)
    assert np.exp(low).tolist() == [1.0, 1.0, 1.0, 1.0]


def test_prime_walk_budget(prime_sums):
    # refused before the first block is sieved
    with pytest.raises(ResourceError):
        prime_sums(np.array([2, PRIME_WALK_LIMIT]), _log_mertens)


@pytest.mark.parametrize("block,sub,top", [(8, 2, 20_000), (64, 16, 20_000), (1 << 20, 1 << 18, 5 * 10**6)])
def test_prime_walk_sub_blocks(block, sub, top, monkeypatch):
    # a sub-block starts at every multiple of 2*sub up to top and holds the primes
    # in [lo, lo + 2*sub), with the sums carried across sub-blocks and blocks
    monkeypatch.setattr(sieve, "_BLOCK", block)
    monkeypatch.setattr(sieve, "_SUB", sub)
    primes = build_prime_list(top).primes
    full = np.concatenate(([0.0], np.cumsum(_log_pm1(primes.astype(np.float64)), dtype=np.longdouble)))
    for t in (2, 2 * sub, 4 * block, 4 * block + 1, top):
        los = []
        for lo, ps, (cum,) in sieve.prime_walk(t, _log_pm1):
            los.append(lo)
            a, b = np.searchsorted(primes, [lo, min(lo + 2 * sub, t + 1)])
            assert np.array_equal(ps, primes[a:b]), (t, lo)
            assert np.array_equal(cum, full[a : b + 1]), (t, lo)
        assert los == list(range(0, t + 1, 2 * sub)), t
