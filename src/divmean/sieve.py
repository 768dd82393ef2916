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

# sieve entries, not bytes: at the cap ~0.5 GB for the int32 spf table and
# ~0.13 GB for the bool prime sieve
DEFAULT_SPF_BUDGET = 1 << 27


class SpfTable:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit; spf[0]=spf[1]=0."""

    __slots__ = ("limit", "spf", "_primes")

    def __init__(self, limit, spf):
        self.limit = limit
        self.spf = spf
        self._primes = None

    @property
    def primes(self):
        if self._primes is None:
            idx = np.arange(self.limit + 1, dtype=self.spf.dtype)
            self._primes = np.flatnonzero(self.spf == idx)[1:].astype(np.int64)
            # [1:] drops n=0 (spf 0 == index 0 is a false hit; n=1 has spf 0 != 1)
        return self._primes

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


def build_spf_table(limit):
    if limit < 2:
        raise RangeError(f"limit must be >= 2, got {limit}")
    if limit + 1 > DEFAULT_SPF_BUDGET:
        raise ResourceError(
            f"spf table of {limit + 1} entries exceeds budget {DEFAULT_SPF_BUDGET}"
        )
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
    """All primes <= limit, with Mertens products and sums at cutoffs y <= limit.

    A bulk query builds one sequential longdouble prefix over the primes and
    reads it at pi(y) for every cutoff, because report-scale runs take
    millions of cutoffs; the scalar mertens goes through exact compensated
    summation instead.
    """

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

    def _pi_many(self, ys):
        """pi(floor(y)) for an array of cutoffs, searched in sorted order."""
        ys = np.asarray(ys)
        if ys.size and float(ys.max(initial=0.0)) > self.limit:
            raise RangeError("cutoff beyond prime list limit")
        keys = np.floor(ys).astype(np.int64).ravel()
        # sorted queries walk the prime array once instead of jumping around it
        order = np.argsort(keys)
        idx = np.empty_like(order)
        idx[order] = np.searchsorted(self.primes, keys[order], side="right")
        return idx.reshape(ys.shape)

    def _sums_to(self, terms, ys):
        """sum of terms[:pi(y)] for each cutoff y, one term per prime."""
        # prefix before the pi lookups: the other order lifts the peak RSS of
        # verify L --n 1e7 from 178 to 209 MB (x86-64, glibc malloc)
        cum = np.empty(terms.size + 1, dtype=np.longdouble)
        cum[0] = 0.0
        np.cumsum(terms, dtype=np.longdouble, out=cum[1:])
        return cum[self._pi_many(ys)].astype(np.float64)

    def mertens_many(self, ys):
        """Vectorized prod_{p<=y}(1-1/p) for an array of cutoffs."""
        t = -1.0 / self.primes
        return np.exp(self._sums_to(np.log1p(t, out=t), ys))

    def logp_pm1_many(self, ys):
        """Vectorized sum_{p<=y} log(p)/(p-1)."""
        p = self.primes.astype(np.float64)
        return self._sums_to(np.log(p) / (p - 1.0), ys)

    def verify_against(self, table):
        """Completeness check versus an SpfTable (on the overlap)."""
        lim = min(self.limit, table.limit)
        mine = self.primes[self.primes <= lim]
        theirs = table.primes[table.primes <= lim]
        return mine.shape == theirs.shape and bool(np.all(mine == theirs))


def odd_sieve(limit, bound):
    """Bool mask over the odd numbers: entry i stands for 2*i + 1 <= limit.

    Each odd prime p <= bound strikes its odd multiples from p*p on, so what
    survives is 1, the odd primes, and the odd numbers with no prime factor
    <= bound.
    """
    odd = np.ones((limit + 1) // 2, dtype=bool)
    for i in range(1, (bound + 1) // 2):
        if odd[i]:
            p = 2 * i + 1
            odd[p * p // 2 :: p] = False
    return odd


def build_prime_list(limit):
    if limit < 2:
        raise RangeError(f"limit must be >= 2, got {limit}")
    if limit + 1 > DEFAULT_SPF_BUDGET:
        raise ResourceError(
            f"prime sieve of {limit + 1} entries exceeds budget {DEFAULT_SPF_BUDGET}"
        )
    odd = odd_sieve(limit, isqrt(limit))
    odd[0] = False
    primes = np.flatnonzero(odd) * 2 + 1
    return PrimeList(np.concatenate(([2], primes), dtype=np.int64), limit)
