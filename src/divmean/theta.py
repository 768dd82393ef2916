"""Theta-chain sets and exact statistics for rough, dense, and practical numbers.

A rule theta admits n = p1^a1 ... pk^ak (ascending primes) into B when
every prime satisfies p_i <= theta(prefix before p_i), with ties included.
Dense-t uses theta(n) = n*t (t >= 2) and practical uses theta(n) = sigma(n)+1;
both exceed n.

Enumeration is chain extension: from n, append p^a for primes
P+(n) < p <= theta(n) with n*p^a <= x; each element has exactly one chain,
its ascending factorization.  Most members are leaves n*p with
p > sqrt(x/n), which can be extended no further, and for one n their primes
form a contiguous slice of the prime list.  So a depth-first walk visits
only the parents (members that are not such leaves), in numpy blocks, and
handles each leaf slice in bulk: counts and tau sums from its length,
members and rows as one numpy slice.  All theta comparisons are exact
integer arithmetic (rational t included), never floating point, so boundary
ties cannot be misclassified.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import _util, sieve
from .errors import RangeError, ResourceError
from .sieve import build_prime_list

ROUGH_LIMIT = 1 << 27
# members of B(x), parents and leaves, that _records lets generate_B, b_rows and the series
# read (about 9 bytes a member listed: enumerate practical at 1e8 peaks 62 MiB above x = 100)
MEMBER_LIMIT = 1 << 26


@dataclass(frozen=True)
class SeqStats:
    x: int
    count: int
    tau_sum: int
    harmonic: float | None = None


class ThetaRule:
    """A theta rule, dense (theta(n) = n*t) or practical (theta(n) = sigma(n) + 1)."""

    __slots__ = ("kind", "t_num", "t_den", "name")

    def __init__(self, kind, t_num=0, t_den=1, name=""):
        self.kind = kind
        self.t_num = t_num
        self.t_den = t_den
        self.name = name

    @classmethod
    def dense(cls, t):
        frac = Fraction(t)
        if frac < 2:
            raise RangeError(f"dense rule needs t >= 2, got {t}")
        return cls("dense", frac.numerator, frac.denominator, name=f"dense(t={t})")

    @classmethod
    def practical(cls):
        return cls("practical", name="practical")

    def theta_floor(self, n, sigma_n):
        """floor(theta(n)) as an exact integer; sigma_n = sigma(n), read by practical only."""
        if self.kind == "dense":
            return (n * self.t_num) // self.t_den
        return sigma_n + 1

    def leaf_limit(self, end, n, sigma_n):
        """(c, d, limit): a leaf n*p, p above the primes of n, has floor(theta(n*p)) < end
        exactly when c*(p + d) <= limit; c = sigma(n), d = 1 (practical) or c = n, d = 0."""
        if self.kind == "dense":  # t*n*p < end
            return n, 0, (end * self.t_den - 1) // self.t_num
        return sigma_n, 1, end - 2  # sigma(n)(p+1) + 1 < end


def _primes_for_rule(rule, x):
    if rule.kind == "dense":
        cap = isqrt((x * rule.t_num) // rule.t_den) + 1
    else:
        # caps are min(sigma(n)+1, x/n) <= sqrt((sigma(n)+1) x/n).  Robin (1984):
        # sigma(n)/n < e^gamma log log n + 0.6483/log log n for n >= 3, which is
        # below 6.991 for 4 <= n <= 1e20 (and sigma(n)/n <= 3/2 for n < 4).  So
        # (sigma(n)+1)/n < 7 and p^2 < 7x for every x <= 1e20.  _blocks raises
        # if a cap ever outruns the list.
        cap = isqrt(7 * x) + 1
    cap = min(max(cap, 2), max(x, 2))
    return build_prime_list(cap)


def _windows(starts, lens):
    """(k, index) per window of at most _util.CHUNK pairs (k, starts[k] + j), 0 <= j < lens[k],
    in order of k: the one cut of prime slices, for the walk's children and its leaves."""
    ends = np.cumsum(lens)
    firsts = ends - lens  # where each slice begins when they are laid end to end
    shift = starts - firsts
    for s in range(0, int(lens.sum()), _util.CHUNK):  # none for no slices
        e = min(s + _util.CHUNK, int(ends[-1]))
        a, b = np.searchsorted(ends, [s, e - 1], side="right") + [0, 1]  # slices a..b-1 meet s..e-1
        k = np.repeat(np.arange(a, b), np.minimum(ends[a:b], e) - np.maximum(firsts[a:b], s))
        yield k, np.arange(s, e) + shift[k]


def _walk(rule, x):
    """The prime array of B(x)'s walk, and a generator of its (parent records, caps) blocks."""
    if x < 1:
        raise RangeError(f"x must be >= 1, got {x}")
    primes = _primes_for_rule(rule, x)
    root = np.array([[1], [1], [1], [0]], dtype=np.int64)
    parr = primes.primes  # below the prime list's 2^27 budget, so parr * parr < 2^54
    return parr, _blocks(rule, x, parr, parr * parr, primes.limit, root)


def _blocks(rule, x, parr, squares, limit, block):
    """Walk the parents of B(x) under one block of at most _util.CHUNK, depth-first.

    parr holds every prime <= limit, and squares their squares.  A pending parent
    (n, sigma(n), tau(n), i0) of block may go on with the primes parr[i0:] up to
    cap = min(floor(theta(n)), x//n).  A child n*p with p*p > x//n is a leaf:
    n*p*p > x, and any further prime would exceed p.  So the leaves of n are
    n*p for p in parr[lo:hi], each with tau = 2*tau(n), and they are never
    made.  Smaller primes give the children n*p^a, one pass per exponent a,
    one window of prime slices at a time.  The block yields the (5, k) int64
    rows n, sigma(n), tau(n), lo, hi, and its k caps apart; then each window's
    children are walked in blocks before the next window is made.  A level
    holds one block and one window of children, and there are at most as many
    levels as a member has distinct primes.
    """
    ns, sgs, tus, i0 = block
    lims = x // ns
    caps = np.minimum(_theta_floors(rule, x, ns, sgs, cut=True), lims)
    if caps.max() > limit:
        k = int(np.argmax(caps > limit))
        raise RangeError(f"chain cap {caps[k]} at n={ns[k]} beyond prime list limit {limit}")
    hi = np.maximum(np.searchsorted(parr, caps, side="right"), i0)
    lo = np.clip(np.searchsorted(squares, lims, side="right"), i0, hi)
    yield np.stack((ns, sgs, tus, lo, hi)), caps
    del lims, caps, hi  # not held while the children are walked
    for rep, idx in _windows(i0, lo - i0):
        p, sg, tu = parr[idx], sgs[rep], tus[rep]
        m, spow, a, kids = ns[rep] * p, 1 + p, 2, []
        while len(m):  # m = n*p^(a-1) <= x and spow = sigma(p^(a-1))
            kids.append(np.stack((m, sg * spow, tu * a, idx + 1)))
            keep = m <= x // p
            m, p, sg, tu, spow, idx = (v[keep] for v in (m, p, sg, tu, spow, idx))
            m, spow, a = m * p, spow * p + 1, a + 1
        kids = np.concatenate(kids, axis=1)
        for i in range(0, kids.shape[1], _util.CHUNK):
            yield from _blocks(rule, x, parr, squares, limit, kids[:, i : i + _util.CHUNK])


def _theta_floors(rule, x, ns, sgs, cut=False):
    """floor(theta(n)) for arrays of members n with sigma(n).

    With cut, a floor above x may read x, as the walk's caps min(theta(n), x//n)
    allow; without, floors past int64 come as Python integers in an object array.
    """
    if int(x) * rule.t_num < 1 << 63:
        return rule.theta_floor(ns, sgs)
    # n*t_num past int64 (a float t such as 2.1 has a 52-bit numerator): one
    # Python integer per member
    floors = [min(f, x) if cut else f for f in map(rule.theta_floor, ns.tolist(), sgs.tolist())]
    return np.array(floors, dtype=object if max(floors, default=0) >> 63 else np.int64)


def _tally(parr, blocks, cuts):
    """SeqStats of B at each ascending cutoff, adding up the record blocks of one walk."""
    counts, taus = [0] * len(cuts), [0] * len(cuts)
    for (ns, _, tus, lo, hi), _ in blocks:
        for k, c in enumerate(cuts):
            leaves = np.clip(np.searchsorted(parr, c // ns, side="right"), lo, hi) - lo
            inside = ns <= c
            counts[k] += int(inside.sum() + leaves.sum())
            taus[k] += int((tus * (inside + 2 * leaves)).sum())
    return [SeqStats(*row) for row in zip(cuts, counts, taus)]


def _records(rule, x):
    """The prime array of B(x)'s walk, its parent records (n, sigma, tau, lo, hi) in (5, k) blocks
    and the count of B(x), parents and leaf slices counted as the blocks arrive.  Once the count
    passes MEMBER_LIMIT no block is kept; the finished count is refused."""
    parr, blocks = _walk(rule, x)
    kept, count = [], 0
    for recs, _ in blocks:
        count += recs.shape[1] + int((recs[4] - recs[3]).sum())
        if count > MEMBER_LIMIT:
            kept.clear()  # the walk goes on only to finish the count
        else:
            kept.append(recs)
    if count > MEMBER_LIMIT:
        raise ResourceError(f"{count} chain members exceed budget {MEMBER_LIMIT}")
    return parr, kept, count


def generate_B(rule, x):
    """Sorted array of B(x): the parents and leaf slices of one counted walk."""
    parr, blocks, count = _records(rule, x)
    members, k = np.empty(count, dtype=np.int64), 0
    for ns, _, _, lo, hi in blocks:
        members[k : k + len(ns)] = ns
        k += len(ns)
        for rep, i in _windows(lo, hi - lo):
            members[k : k + len(i)] = ns[rep] * parr[i]
            k += len(i)
    members.sort()
    return members


def chain_stats_multi(rule, cutoffs):
    """Counts and tau-sums of B at several cutoffs from one walk."""
    cuts = sorted(int(c) for c in cutoffs)
    if not cuts or cuts[0] < 1:
        raise RangeError("cutoffs must be positive integers")
    return _tally(*_walk(rule, cuts[-1]), cuts)


def b_rows(rule, x):
    """Arrays (n, tau, theta_floor) over B(x), ascending in n: the parent records, then the
    leaves n*p of their slices with tau 2*tau(n) and sigma(n)(p+1).  Refused past MEMBER_LIMIT."""
    parr, blocks, _ = _records(rule, x)
    ns, sgs, tus, lo, hi = np.concatenate(blocks, axis=1)
    leaves = [(ns[k] * parr[i], 2 * tus[k], sgs[k] * (parr[i] + 1)) for k, i in _windows(lo, hi - lo)]
    ns, taus, sgs = map(np.concatenate, zip((ns, tus, sgs), *leaves))
    tf = _theta_floors(rule, x, ns, sgs)
    if tf.dtype == object:
        raise RangeError(f"theta floor {tf.max()} beyond int64")
    order = np.argsort(ns)  # members are distinct, so any sort gives this order
    return ns[order], taus[order], tf[order]


def _rough_blocks(x, y):
    """(i, mask) per block of sieve._BLOCK odd numbers up to x, mask[j] true when 2(i + j) + 1
    has no prime factor <= y (n=1 included).  x and y are checked before any block.  Every
    block refills one buffer, so a mask is valid only until the next block is asked for."""
    if x < 1:
        raise RangeError(f"x must be >= 1, got {x}")
    if y < 2:
        raise RangeError(f"y must be >= 2, got {y}")
    if x > ROUGH_LIMIT:
        raise RangeError(f"x={x} above rough sieve limit {ROUGH_LIMIT}")
    return _rough_walk(x, min(math.floor(y), x))


def _rough_walk(x, yf):
    # y >= 2 rules out every even n; the odd survivors of the primes up to
    # min(y, sqrt of the block end) are 1, the odd primes and the y-rough composites
    for lo, odd in sieve.odd_blocks(x, yf):
        odd[max(1 - lo // 2, 0) : max((yf + 1) // 2 - lo // 2, 0)] = False  # 3, 5, ..., y
        yield lo // 2, odd


def rough_member_blocks(x, y):
    """The n <= x with no prime factor <= y (n=1 included), ascending, one array per block."""
    return (np.flatnonzero(odd) * 2 + (2 * i + 1) for i, odd in _rough_blocks(x, y))


def rough_members(x, y):
    """Ascending array of n <= x with no prime factor <= y (n=1 included)."""
    return np.concatenate(list(rough_member_blocks(x, y)))


def _rough_sums(x, y, harmonic):
    """Phi(x, y), S(x, y) and, if harmonic, sum 1/n over the y-rough n <= x (else 0.0).

    Divisors of rough numbers are rough, so S counts the pairs a*b <= x of
    members: those with a <= sqrt(x), twice, less those with both <= sqrt(x).
    One pass over the blocks keeps a running count of members, read at the end
    (x//a + 1)//2 of each a's odd numbers; an exact sum takes the reciprocals as it goes.
    """
    blocks = _rough_blocks(x, y)
    # the rough a <= sqrt(x), by a sieve of their own; not rough_members, which perfbench spans
    small = np.concatenate(list(rough_member_blocks(isqrt(x), y)))
    ends = ((x // small[::-1] + 1) // 2).tolist()  # the last, (x + 1)//2, ends the pass
    counts, harm, k, c = [], sieve.ExactSum(), 0, 0
    for i, odd in blocks:
        j = 0
        while k < len(ends) and ends[k] - i <= odd.size:
            c += int(np.count_nonzero(odd[j : ends[k] - i]))
            j = ends[k] - i
            counts.append(c)
            k += 1
        c += int(np.count_nonzero(odd[j:]))
        for s in range(0, odd.size if harmonic else 0, _util.CHUNK):
            harm.add(1.0 / (2 * (np.flatnonzero(odd[s : s + _util.CHUNK]) + i + s) + 1))
    return counts[-1], 2 * sum(counts) - len(small) ** 2, harm.value() if harmonic else 0.0


def rough_stats(x, y):
    """Exact Phi(x,y), S(x,y), and the rough harmonic sum (n=1 included)."""
    return SeqStats(x, *_rough_sums(x, y, harmonic=True))


def dense_stats(x, t):
    return _tally(*_walk(ThetaRule.dense(t), x), [x])[0]


def practical_stats(x):
    return _tally(*_walk(ThetaRule.practical(), x), [x])[0]


def write_b_stream(rule, x, fh, threads=1):
    """One decimal integer per line, ascending; returns the count (threads is ignored)."""
    return _util.write_lines(fh, generate_B(rule, x))


def verify_funceq(x, rule):
    """Exact identity: sum_{m<=x} f(m) = sum_{n in B(x)} f(n)(1 + inner sum).

    Inner sum runs over 2 <= r <= x/n with P-(r) > theta(n), the theta(n)-rough
    r: Phi(x/n, theta(n)) - 1 of them with tau sum S(x/n, theta(n)) - 1.  It is
    empty unless theta(n) < x//n, which no leaf n*p meets: p*p > x//n, so
    theta(n*p) >= p > x//(n*p).  So the parent records give every term, and
    the walk's cap min(floor(theta(n)), x//n) gives both the test and the
    bound: it is below x//n exactly when theta(n) is, and then equals it.
    Checked for f = 1 and f = tau with integer arithmetic end to end.
    """
    if x < 1:
        raise RangeError(f"x must be >= 1, got {x}")
    if x > ROUGH_LIMIT:  # before the walk: every inner sum sieves up to x/n
        raise RangeError(f"x={x} above rough sieve limit {ROUGH_LIMIT}")
    # hyperbola: sum_{d<=x} x//d = 2 sum_{d<=sqrt(x)} x//d - isqrt(x)^2
    root = isqrt(x)
    lhs_tau = 2 * int((x // np.arange(1, root + 1, dtype=np.int64)).sum()) - root * root

    parr, blocks = _walk(rule, x)
    rhs_count = rhs_tau = 0
    for recs, caps in blocks:
        (st,) = _tally(parr, [(recs, caps)], [x])
        rhs_count += st.count
        rhs_tau += st.tau_sum
        zs = x // recs[0]
        sel = caps < zs
        for z, w, tu in zip(zs[sel].tolist(), caps[sel].tolist(), recs[2, sel].tolist()):
            phi, tau_sum, _ = _rough_sums(z, w, harmonic=False)
            rhs_tau += tu * (tau_sum - 1)
            rhs_count += phi - 1
    return {
        "x": x,
        "theta": rule.name,
        "count_lhs": x,
        "count_rhs": rhs_count,
        "tau_lhs": lhs_tau,
        "tau_rhs": rhs_tau,
        "exact": x == rhs_count and lhs_tau == rhs_tau,
    }
