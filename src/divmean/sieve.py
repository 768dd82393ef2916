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
# prime_walk holds one block's mask and one sub-block's sums at a time, so this
# bounds its time (about 40 s), not its memory; theta at the practical
# MEMBER_LIMIT stays below it (about 5e9)
PRIME_WALK_LIMIT = 1 << 33
_BLOCK = 1 << 20  # odd numbers struck at a time by prime_walk and the rough sieve (a 1 MB mask)
_SUB = 1 << 18  # odd numbers per sub-block of prime_walk; min(_SUB, _BLOCK) must divide _BLOCK


def _span():  # numbers spanned by one sub-block of prime_walk; a _BLOCK below _SUB clamps it
    return 2 * min(_SUB, _BLOCK)


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
    """All primes <= limit, with the Mertens product at one cutoff; prime_walk takes many."""

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
    primes = (np.flatnonzero(odd_sieve(limit, isqrt(limit))) * 2 + 1).astype(np.int64, copy=False)
    primes[0] = 2  # 1 survives the sieve; 2 takes its place
    return PrimeList(primes, limit)


def prime_walk(top, *terms):
    """Sub-blocks (lo, primes, cums) of the primes up to top, lo = 0, span, 2*span, ...

    odd_sieve strikes _BLOCK odd numbers at a time, and each block is read in
    sub-blocks of span = _span() numbers.  Per f of terms, cum[i] is the
    longdouble sum of f over the primes below primes[i], carried from sub-block
    to sub-block, so cum[searchsorted(primes, y, "right")] has the bits of one
    cumsum over all the primes <= y.  The sums of one sub-block are
    overwritten by the next: read them before asking for it.
    """
    if top + 1 > PRIME_WALK_LIMIT:
        raise ResourceError(f"prime sieve of {top + 1} entries exceeds budget {PRIME_WALK_LIMIT}")
    return _sub_blocks(top, terms)


def _sub_blocks(top, terms):
    sub, carry = _span() // 2, [0.0] * len(terms)
    cums = pf = np.empty((len(terms), 0))  # one set of buffers, grown as a sub-block needs
    for lo in range(0, top + 1, 2 * _BLOCK):
        last = min(lo + 2 * _BLOCK - 1, top)
        odd = odd_sieve(last, isqrt(last), lo)
        for s in range(0, (last - lo) // 2 + 1, sub):  # an even top may start an empty one
            ps = np.flatnonzero(odd[s : s + sub]) * 2 + (lo + 2 * s + 1)
            if lo + s == 0:
                ps[:1] = 2  # 1 survives the sieve; 2 takes its place
            k = ps.size
            if cums.shape[1] <= k:
                cums, pf = np.empty((len(terms), k + 1), dtype=np.longdouble), np.empty(k)
            pf[:k] = ps
            for j, (f, cum) in enumerate(zip(terms, cums[:, : k + 1])):
                cum[0] = carry[j]
                cum[1:] = f(pf[:k])
                carry[j] = np.cumsum(cum, out=cum)[-1]
            yield lo + 2 * s, ps, cums[:, : k + 1]
