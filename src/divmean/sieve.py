"""One odd-only sieve, the prime list, and the factorisation table.

Chain enumeration, rough-number statistics and Mertens products sit on
odd_sieve; the smallest-prime-factor table backs only the factorisation
oracles (tau, sigma, divisor lists, membership checks).  Counts and
divisor sums are accumulated in Python integers, so overflow is
impossible by construction.
"""

import math
from math import isqrt

import numpy as np

from .errors import RangeError, ResourceError

# sieve entries, not bytes: at the cap 0.5 GiB for the int32 spf table and
# 64 MiB for the odd-only bool prime sieve
DEFAULT_SPF_BUDGET = 1 << 27
# prime_walk holds one block at a time, so this bounds its time (about 40 s), not its
# memory; theta at the practical MEMBER_LIMIT stays below it (about 5e9)
PRIME_WALK_LIMIT = 1 << 33
_BLOCK = 1 << 20  # odd numbers per block of prime_walk


class SpfTable:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit; spf[0]=spf[1]=0."""

    __slots__ = ("limit", "spf")

    def __init__(self, limit, spf):
        self.limit = limit
        self.spf = spf

    def check_range(self, n):
        if not (1 <= n <= self.limit):
            raise RangeError(f"n={n} outside table range [1, {self.limit}]")

    def smallest_prime_factor(self, n):
        self.check_range(n)
        return int(self.spf[n]) if n > 1 else 0

    def factorize(self, n):
        """Ascending [(p, multiplicity)] pairs."""
        self.check_range(n)
        out = []
        while n > 1:
            p = int(self.spf[n])
            a = 0
            while n % p == 0:
                n //= p
                a += 1
            out.append((p, a))
        return out


def _check_sieve(limit, what):
    """Refuse, before any allocation, a limit below 2 or a sieve of limit + 1 entries
    past DEFAULT_SPF_BUDGET, read at each call."""
    if limit < 2:
        raise RangeError(f"limit must be >= 2, got {limit}")
    if limit + 1 > DEFAULT_SPF_BUDGET:
        raise ResourceError(f"{what} of {limit + 1} entries exceeds budget {DEFAULT_SPF_BUDGET}")


def build_spf_table(limit):
    _check_sieve(limit, "spf table")
    spf = np.zeros(limit + 1, dtype=np.int32)
    spf[2::2] = 2
    for p in range(3, isqrt(limit) + 1, 2):
        if spf[p] == 0:
            # odd multiples only; even ones are already marked 2
            sl = spf[p * p :: 2 * p]
            sl[sl == 0] = p
    # every odd prime still reads 0 at its own index (the loop starts at p*p)
    rest = np.flatnonzero(spf[3::2] == 0) * 2 + 3
    spf[rest] = rest.astype(np.int32)
    return SpfTable(limit, spf)


def tau(n, table):
    """Number of divisors."""
    t = 1
    for _p, a in table.factorize(n):
        t *= a + 1
    return t


def sigma(n, table):
    """Sum of divisors."""
    s = 1
    for p, a in table.factorize(n):
        s *= (p ** (a + 1) - 1) // (p - 1)
    return s


def divisors_sorted(n, table):
    divs = [1]
    for p, a in table.factorize(n):
        pk = 1
        base = list(divs)
        for _ in range(a):
            pk *= p
            divs.extend(d * pk for d in base)
    divs.sort()
    return divs


class PrimeList:
    """All primes <= limit, with the Mertens product at one cutoff; prime_sums takes many."""

    __slots__ = ("primes", "limit")

    def __init__(self, primes, limit):
        self.primes = primes
        self.limit = limit

    def mertens(self, y):
        """prod_{p<=y} (1 - 1/p), exactly-rounded log accumulation."""
        if y < 0:
            raise RangeError(f"y must be >= 0, got {y}")
        if y > self.limit:
            raise RangeError(f"y={y} beyond prime list limit {self.limit}")
        k = int(np.searchsorted(self.primes, math.floor(y), side="right"))
        if k == 0:
            return 1.0
        terms = np.log1p(-1.0 / self.primes[:k].astype(np.float64))
        return math.exp(math.fsum(terms))


def odd_sieve(limit, bound, lo=0):
    """Bool mask over the odd numbers: entry i stands for lo + 2*i + 1 <= limit, lo even.

    Each odd prime p <= bound strikes its odd multiples from p*p on, so what
    survives is 1, the odd primes, and the odd numbers with no prime factor
    <= bound.  No p above isqrt(limit) strikes, so bound is cut to it.  The
    block from 0 finds those primes in itself, a later block in the block from
    0 to bound.
    """
    bound = min(bound, isqrt(limit))
    odd = np.ones((limit - lo + 1) // 2, dtype=bool)
    if lo:
        base = np.flatnonzero(odd_sieve(bound, isqrt(bound)))[1:].tolist()
    else:
        base = range(1, (bound + 1) // 2)
    for i in base:
        if lo or odd[i]:
            p = 2 * i + 1
            # from p*p, or below lo from k = (lo+1)(p-1)/2 mod p: lo + 2k + 1 = 0 mod p
            q = p * p
            odd[(q - lo - 1) // 2 if q > lo else (lo + 1) * (p - 1) // 2 % p :: p] = False
    return odd


def build_prime_list(limit):
    _check_sieve(limit, "prime sieve")
    odd = odd_sieve(limit, isqrt(limit))
    odd[0] = False
    primes = np.flatnonzero(odd) * 2 + 1
    return PrimeList(np.concatenate(([2], primes), dtype=np.int64), limit)


def prime_walk(top, *terms):
    """Blocks (lo, primes, cums) of the primes up to top, sieved from lo by odd_sieve.

    Per f of terms, cum[i] is the longdouble sum of f over the primes below
    primes[i], carried from block to block, so cum[searchsorted(primes, y,
    "right")] has the bits of one cumsum over all the primes <= y.
    """
    if top + 1 > PRIME_WALK_LIMIT:
        raise ResourceError(f"prime sieve of {top + 1} entries exceeds budget {PRIME_WALK_LIMIT}")
    carry = [0.0] * len(terms)
    # each block is made in a call, so that nothing here holds it while the next is made
    return ((lo, *_prime_block(lo, top, terms, carry)) for lo in range(0, top + 1, 2 * _BLOCK))


def _prime_block(lo, top, terms, carry):
    last = min(lo + 2 * _BLOCK - 1, top)
    ps = np.flatnonzero(odd_sieve(last, isqrt(last), lo)) * 2 + (lo + 1)
    if lo == 0:
        ps[:1] = 2  # 1 survives the sieve; 2 takes its place
    cums = [np.empty(ps.size + 1, dtype=np.longdouble) for _ in terms]
    for j, (f, cum) in enumerate(zip(terms, cums)):
        cum[0] = carry[j]
        cum[1:] = f(ps.astype(np.float64))
        carry[j] = np.cumsum(cum, out=cum)[-1]
    return ps, cums


def prime_sums(ys, *terms):
    """sum_{p <= y} f(p) at every cutoff y of ys: one float64 array per f, shaped as ys.

    One prime_walk up to max floor(ys), read at the sorted floors of each block.
    """
    keys = np.floor(ys).astype(np.int64, copy=False).ravel()
    blocks = prime_walk(int(keys.max(initial=0)), *terms)
    order = np.argsort(keys)
    keys = keys[order]
    sums = [np.zeros(keys.size) for _ in terms]  # a floor below 0 takes no prime
    for lo, ps, cums in blocks:
        a, b = np.searchsorted(keys, [lo, lo + 2 * _BLOCK])
        idx = np.searchsorted(ps, keys[a:b], side="right")  # the floors in the block
        for s, cum in zip(sums, cums):
            s[order[a:b]] = cum[idx]
    return [s.reshape(np.shape(ys)) for s in sums]
