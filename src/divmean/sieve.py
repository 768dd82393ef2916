"""One segmented odd-only sieve, the prime list, the factorisation table, and one exact sum.

Chain enumeration, rough-number statistics and Mertens products sit on
odd_blocks, the one strike loop: the prime list joins its blocks' primes.  No
command builds the smallest-prime-factor table; the tests' factorisation
oracles read it.
ExactSum takes the float sums that are results: the Mertens product at one
cutoff, the rough harmonic sum and the series' terms.  prime_walk's prefix
sums over the primes are longdouble cumulative sums in ascending order.
"""

import math
from bisect import bisect_right
from math import isqrt

import numpy as np

from .errors import RangeError, ResourceError

# sieve entries, not bytes: at the cap 0.5 GiB for the int32 spf table and
# 58 MiB for the int64 prime list, whose sieve holds one block's mask at a time
DEFAULT_SPF_BUDGET = 1 << 27
# prime_walk holds one block's mask and one sub-block's sums at a time, so this
# bounds its time (about 40 s), not its memory; the practical series reach it
# between N = 1.69e9 and 1.7e9
PRIME_WALK_LIMIT = 1 << 33
_BLOCK = 1 << 20  # odd numbers struck at a time by odd_blocks (a 1 MB mask)
_SUB = 1 << 18  # odd numbers per sub-block of prime_walk; min(_SUB, _BLOCK) must divide _BLOCK
_BINS = 2098  # frexp exponents of finite doubles, -1073 ... 1024


def _span():  # numbers spanned by one sub-block of prime_walk; a _BLOCK below _SUB clamps it
    return 2 * min(_SUB, _BLOCK)


class ExactSum:
    """math.fsum of the float64 arrays added, in any order and split, per tag 0, 1, ...

    add(values, tags) takes one int or an int array like values as the tags.  A finite
    value is m * 2**(e - 53) (frexp) with an integer |m| < 2**53, cut into a high and a low
    27-bit half; each half is summed per (tag, e) by bincount into int64 counters.  value(k)
    adds the counters of tags 0 ... k as one integer over 2**1126 and rounds once, so it has
    the bits of math.fsum, OverflowError included.
    """

    def __init__(self, tags=1):
        self.counts = np.zeros((2, tags * _BINS), dtype=np.int64)

    def add(self, values, tags=0):
        bins = np.broadcast_to(np.asarray(tags, dtype=np.intp) * _BINS + 1073, values.shape)
        for s in range(0, values.size, 1 << 26):  # bincount's float64 sums stay exact
            m, e = np.frexp(values[s : s + (1 << 26)])
            if not np.isfinite(m).all():
                raise ValueError("ExactSum adds finite values only")
            m = (m * 2.0**53).astype(np.int64)
            for c, h in zip(self.counts, (m >> 27, m & (1 << 27) - 1)):  # high and low halves
                c += np.bincount(bins[s : s + (1 << 26)] + e, h, minlength=c.size).astype(np.int64)
        return self

    def value(self, upto=0):
        hi, lo = (c.reshape(-1, _BINS)[: upto + 1].sum(axis=0) for c in self.counts)
        e = np.flatnonzero(hi | lo)  # the exponents in use: a Python loop over these only
        hi, lo = hi[e].tolist(), lo[e].tolist()
        return sum(((h << 27) + l) << k for k, h, l in zip(e.tolist(), hi, lo)) / (1 << 1126)


class SpfTable:
    """spf[n] = smallest prime factor of n for 2 <= n <= limit; spf[0]=spf[1]=0."""

    __slots__ = ("limit", "spf")

    def __init__(self, limit, spf):
        self.limit = limit
        self.spf = spf


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
        terms = np.log1p(-1.0 / self.primes[:k].astype(np.float64))
        return math.exp(ExactSum().add(terms).value())


def build_prime_list(limit):
    _check_sieve(limit, "prime sieve")
    primes = np.concatenate([np.flatnonzero(m) * 2 + lo + 1 for lo, m in odd_blocks(limit, limit)])
    primes[0] = 2  # 1 survives the sieve; 2 takes its place
    return PrimeList(primes, limit)


def prime_walk(top, *terms):
    """Sub-blocks (lo, primes, cums) of the primes up to top, lo = 0, span, 2*span, ...

    odd_blocks strikes _BLOCK odd numbers at a time, and each block is read in
    sub-blocks of span = _span() numbers.  Per f of terms, cum[i] is the
    longdouble sum of f over the primes below primes[i], carried from sub-block
    to sub-block, so cum[searchsorted(primes, y, "right")] has the bits of one
    cumsum over all the primes <= y.  The sums of one sub-block are
    overwritten by the next: read them before asking for it.
    """
    if top + 1 > PRIME_WALK_LIMIT:
        raise ResourceError(f"prime sieve of {top + 1} entries exceeds budget {PRIME_WALK_LIMIT}")
    return _sub_blocks(top, terms)


def odd_blocks(top, bound):
    """(lo, mask) per block of _BLOCK odd numbers up to top, lo = 0, 2*_BLOCK, ...; entry i
    stands for lo + 2*i + 1.  Each odd prime p <= bound strikes its odd multiples from p*p
    on, so 1, the odd primes and the odd numbers with no prime factor <= bound survive.
    The walk lists the primes up to min(bound, isqrt(top)) once, and a block strikes with
    those up to the root of its end.  Every block refills one buffer, so a mask is valid
    only until the next."""
    bound = min(bound, isqrt(top))
    base = build_prime_list(bound).primes[1:].tolist() if bound > 2 else []
    buf = np.empty(min(_BLOCK, (top + 1) // 2), dtype=bool)
    for lo in range(0, top + 1, 2 * _BLOCK):
        last = min(lo + 2 * _BLOCK - 1, top)
        odd = buf[: (last - lo + 1) // 2]
        odd.fill(True)
        for p in base[: bisect_right(base, isqrt(last))]:
            # from p*p, or below lo from k = (lo+1)(p-1)/2 mod p: lo + 2k + 1 = 0 mod p
            odd[(p * p - lo - 1) // 2 if p * p > lo else (lo + 1) * (p - 1) // 2 % p :: p] = False
        yield lo, odd


def _sub_blocks(top, terms):
    sub, carry = _span() // 2, [0.0] * len(terms)
    cums = pf = np.empty((len(terms), 0))  # one set of buffers, grown as a sub-block needs
    for lo, odd in odd_blocks(top, top):
        for s in range(0, min(_BLOCK, (top - lo) // 2 + 1), sub):  # an even top adds an empty one
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
