"""Theta-chain sets and exact statistics for rough, dense, and practical numbers.

A rule theta admits n = p1^a1 ... pk^ak (ascending primes) into B when
every prime satisfies p_i <= theta(prefix before p_i), with ties included.
Dense-t uses theta(n) = n*t, practical uses theta(n) = sigma(n)+1, and
custom rules carry an explicit admissible table.

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

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from . import _util, sieve
from .errors import ConfigError, RangeError, ResourceError
from .sieve import build_prime_list, divisors_sorted, odd_sieve

ROUGH_LIMIT = 1 << 27
# members materialised by generate_B (about 22 bytes each) and series rows (13
# bytes each, beside one window of rows and one prime sub-block), so 2^26 keeps a
# series near 0.9 GB and still admits B(1e9) = 64,782,731 for the practical rule
MEMBER_LIMIT = 1 << 26
SUBSET_SUM_LIMIT = 10**6
CUSTOM_ENUM_LIMIT = 10**6


@dataclass(frozen=True)
class SeqStats:
    x: int
    count: int
    tau_sum: int
    harmonic: float | None = None


class ThetaRule:
    """Admissible theta function: theta(1) >= 2 and theta(n) >= P+(n)."""

    __slots__ = ("kind", "t_num", "t_den", "table", "name")

    def __init__(self, kind, t_num=0, t_den=1, table=None, name=""):
        self.kind = kind
        self.t_num = t_num
        self.t_den = t_den
        self.table = table
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

    @classmethod
    def custom(cls, mapping):
        if 1 not in mapping:
            raise ConfigError("custom theta map must define theta(1)")
        if not _ge(mapping[1], 2):
            raise ConfigError(f"theta(1) = {mapping[1]} violates theta(1) >= 2")
        for n, th in mapping.items():
            if n < 1:
                raise ConfigError(f"custom theta key {n} is not a positive integer")
            if n >= 2 and not _ge(th, _pplus_trial(n)):
                raise ConfigError(f"theta({n}) = {th} below largest prime factor")
        return cls("custom", table=dict(mapping), name="custom")

    def theta_floor(self, n, sigma_n=None):
        """floor(theta(n)) as an exact integer (None for +inf)."""
        if self.kind == "dense":
            return (n * self.t_num) // self.t_den
        if self.kind == "practical":
            if sigma_n is None:
                raise ConfigError("practical theta needs sigma(n)")
            return sigma_n + 1
        th = self.table.get(n)
        if th is None:
            raise ConfigError(f"custom theta map has no value for n={n}")
        if th == math.inf:
            return None
        return math.floor(th)


def _ge(value, bound):
    if value == math.inf:
        return True
    return Fraction(value) >= bound


def _pplus_trial(n):
    big = 1
    d = 2
    while d * d <= n:
        while n % d == 0:
            big = d
            n //= d
        d += 1
    return n if n > 1 else big


def is_in_B(n, rule, table):
    return factor_nr(n, rule, table)[1] == 1


def is_t_dense_by_divisors(n, t, table):
    """Oracle: consecutive-divisor ratios <= t, checked in exact rationals."""
    if Fraction(t) < 1:
        raise RangeError(f"t must be >= 1, got {t}")
    table.check_range(n)
    num, den = Fraction(t).numerator, Fraction(t).denominator
    divs = divisors_sorted(n, table)
    return all(b * den <= a * num for a, b in zip(divs, divs[1:]))


def is_practical_by_subset_sum(n, table):
    """Oracle: every 1 <= m <= n is a sum of distinct divisors of n."""
    if n > SUBSET_SUM_LIMIT:
        raise ResourceError(f"subset-sum oracle capped at {SUBSET_SUM_LIMIT}")
    table.check_range(n)
    if n == 1:
        return True
    full = (1 << (n + 1)) - 1
    bits = 1
    for d in divisors_sorted(n, table):
        bits |= (bits << d) & full
        if bits == full:
            return True
    return bits == full


def _primes_for_rule(rule, x):
    if rule.kind == "dense":
        cap = isqrt((x * rule.t_num) // rule.t_den) + 1
    elif rule.kind == "practical":
        # caps are min(sigma(n)+1, x/n) <= sqrt((sigma(n)+1) x/n).  Robin (1984):
        # sigma(n)/n < e^gamma log log n + 0.6483/log log n for n >= 3, which is
        # below 6.991 for 4 <= n <= 1e20 (and sigma(n)/n <= 3/2 for n < 4).  So
        # (sigma(n)+1)/n < 7 and p^2 < 7x for every x <= 1e20.  _blocks raises
        # if a cap ever outruns the list.
        cap = isqrt(7 * x) + 1
    else:
        if x > CUSTOM_ENUM_LIMIT:
            raise ResourceError(f"custom rules enumerate up to {CUSTOM_ENUM_LIMIT}")
        finite = [v for v in rule.table.values() if v != math.inf]
        cap = x if len(finite) < len(rule.table) else int(max(finite, default=2))
    cap = min(max(cap, 2), max(x, 2))
    return build_prime_list(cap)


def _isqrt(a):
    """Exact floor(sqrt(a)) of an int64 array in [0, 2^62]: the float root is within 1."""
    r = np.sqrt(a.astype(np.float64)).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


def _slices(starts, lens):
    """The indices starts[k] + j, 0 <= j < lens[k], in order of k."""
    return np.repeat(starts - (np.cumsum(lens) - lens), lens) + np.arange(int(lens.sum()))


def _walk(rule, x):
    """The prime array of B(x)'s walk, and a generator of its (parent records, caps) blocks."""
    if x < 1:
        raise RangeError(f"x must be >= 1, got {x}")
    primes = _primes_for_rule(rule, x)
    return primes.primes, _blocks(rule, x, primes.primes, primes.limit)


def _blocks(rule, x, parr, limit):
    """Walk the parents of B(x) from n = 1, yielding blocks of at most _util.CHUNK.

    parr holds every prime <= limit.  A pending parent (n, sigma(n), tau(n), i0)
    may go on with the primes parr[i0:] up to cap = min(floor(theta(n)), x//n).
    A child n*p with p > isqrt(x//n) is a leaf: n*p*p > x, and any further
    prime would exceed p.  So the leaves of n are n*p for p in parr[lo:hi],
    each with tau = 2*tau(n), and they are never pushed.  Smaller primes give
    the children n*p^a, one pass per exponent a, pushed in blocks.  A block
    yields the (5, k) int64 rows n, sigma(n), tau(n), lo, hi, and its k caps
    apart, so that the records _chain keeps do not grow.  Pending blocks
    are walked depth-first, so the stack holds the children of about one
    block per depth rather than whole levels of the chain.
    """
    stack = [np.array([[1], [1], [1], [0]], dtype=np.int64)]
    while stack:
        ns, sgs, tus, i0 = stack.pop()
        lims = x // ns
        caps = np.minimum(_theta_floors(rule, x, ns, sgs, cut=True), lims)
        if caps.max() > limit:
            k = int(np.argmax(caps > limit))
            raise RangeError(f"chain cap {caps[k]} at n={ns[k]} beyond prime list limit {limit}")
        hi = np.maximum(np.searchsorted(parr, caps, side="right"), i0)
        lo = np.clip(np.searchsorted(parr, _isqrt(lims), side="right"), i0, hi)
        yield np.stack((ns, sgs, tus, lo, hi)), caps
        idx = _slices(i0, lo - i0)
        rep = np.repeat(np.arange(len(ns)), lo - i0)
        p, sg, tu = parr[idx], sgs[rep], tus[rep]
        m, spow, a, kids = ns[rep] * p, 1 + p, 2, []
        while len(m):  # m = n*p^(a-1) <= x and spow = sigma(p^(a-1))
            kids.append(np.stack((m, sg * spow, tu * a, idx + 1)))
            keep = m <= x // p
            m, p, sg, tu, spow, idx = (v[keep] for v in (m, p, sg, tu, spow, idx))
            m, spow, a = m * p, spow * p + 1, a + 1
        if kids:
            kids = np.concatenate(kids, axis=1)
            stack.extend(kids[:, i : i + _util.CHUNK] for i in range(0, kids.shape[1], _util.CHUNK))


def _chain(rule, x):
    """B(x)'s parent records as one (5, k) array, each one's leaf count, and all leaf primes."""
    parr, blocks = _walk(rule, x)
    recs = np.concatenate([rec for rec, _ in blocks], axis=1)
    lens = recs[4] - recs[3]
    members = recs.shape[1] + int(lens.sum())
    if members > MEMBER_LIMIT:
        raise ResourceError(f"{members} chain members exceed budget {MEMBER_LIMIT}")
    return recs, lens, parr[_slices(recs[3], lens)]


def _theta_floors(rule, x, ns, sgs, cut=False):
    """floor(theta(n)) for arrays of members n with sigma(n); x stands for +inf.

    With cut, a floor above x may read x, as the walk's caps min(theta(n), x//n)
    allow; without, floors past int64 come as Python integers in an object array.
    """
    if rule.kind != "custom" and int(x) * rule.t_num < 1 << 63:
        return rule.theta_floor(ns, sgs)
    # custom tables, and n*t_num past int64 (a float t such as 2.1 has a
    # 52-bit numerator): one Python integer per member
    floors = map(rule.theta_floor, ns.tolist(), sgs.tolist())
    floors = [x if f is None or (cut and f > x) else f for f in floors]
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


def generate_B(rule, x):
    """Sorted array of B(x)."""
    (ns, *_), lens, p = _chain(rule, x)
    return np.sort(np.concatenate([ns, np.repeat(ns, lens) * p]))


def chain_stats_multi(rule, cutoffs):
    """Counts and tau-sums of B at several cutoffs from one walk."""
    cuts = sorted(int(c) for c in cutoffs)
    if not cuts or cuts[0] < 1:
        raise RangeError("cutoffs must be positive integers")
    return _tally(*_walk(rule, cuts[-1]), cuts)


def b_rows(rule, x):
    """Arrays (n, tau, theta_floor) over B(x), ascending in n."""
    ns, taus, tf = map(np.concatenate, zip(*row_windows(rule, x)))
    if tf.dtype == object:
        raise RangeError(f"theta floor {tf.max()} beyond int64")
    order = np.argsort(ns)  # members are distinct, so any sort gives this order
    return ns[order], taus[order], tf[order]


def row_windows(rule, x):
    """B(x)'s rows (n, tau(n), floor(theta(n))) in windows of at most _util.CHUNK, unsorted.

    Each walk block gives its parents, then its leaves, a window of which may
    split one parent's slice.  More than MEMBER_LIMIT members are refused as soon
    as the walk passes it.  Floors past int64 come as Python integers.
    """
    parr, blocks = _walk(rule, x)
    members = 0
    for (ns, sgs, tus, lo, hi), _ in blocks:
        ends = np.cumsum(hi - lo)
        members += len(ns) + int(ends[-1])
        if members > MEMBER_LIMIT:
            raise ResourceError(f"{members} chain members exceed budget {MEMBER_LIMIT}")
        yield ns, tus, _theta_floors(rule, x, ns, sgs)
        for s in range(0, int(ends[-1]), _util.CHUNK):
            e = min(s + _util.CHUNK, int(ends[-1]))
            a, b = np.searchsorted(ends, [s, e - 1], side="right") + [0, 1]  # leaves s..e-1
            first = np.maximum(ends[a:b] - (hi - lo)[a:b], s)
            cnt = np.minimum(ends[a:b], e) - first
            p = parr[_slices(hi[a:b] - ends[a:b] + first, cnt)]
            n, sg, tu = (np.repeat(v[a:b], cnt) for v in (ns, sgs, tus))
            n *= p
            yield n, 2 * tu, _theta_floors(rule, x, n, sg * (p + 1))


def _rough_blocks(x, y):
    """(i, mask) per block of sieve._BLOCK odd numbers up to x, mask[j] true when 2(i + j) + 1
    has no prime factor <= y (n=1 included).  x and y are checked before any block."""
    if x < 1:
        raise RangeError(f"x must be >= 1, got {x}")
    if y < 2:
        raise RangeError(f"y must be >= 2, got {y}")
    if x > ROUGH_LIMIT:
        raise RangeError(f"x={x} above rough sieve limit {ROUGH_LIMIT}")
    yf, span = min(math.floor(y), x), 2 * sieve._BLOCK
    return ((lo // 2, _rough_block(lo, min(lo + span - 1, x), yf)) for lo in range(0, x + 1, span))


def _rough_block(lo, last, yf):
    # y >= 2 rules out every even n; the odd survivors of the primes up to
    # min(y, sqrt(last)) are 1, the odd primes and the y-rough composites
    odd = odd_sieve(last, yf, lo)
    odd[max(1 - lo // 2, 0) : max((yf + 1) // 2 - lo // 2, 0)] = False  # 3, 5, ..., y
    return odd


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
    (x//a + 1)//2 of each a's odd numbers; fsum takes the reciprocals as it goes.
    """
    blocks = _rough_blocks(x, y)
    # the rough a <= sqrt(x), by a sieve of their own; not rough_members, which perfbench spans
    small = np.concatenate(list(rough_member_blocks(isqrt(x), y)))
    ends = ((x // small[::-1] + 1) // 2).tolist()  # the last, (x + 1)//2, ends the pass
    counts = []

    def reciprocals():
        k = c = 0
        for i, odd in blocks:
            j = 0
            while k < len(ends) and ends[k] - i <= odd.size:
                c += int(np.count_nonzero(odd[j : ends[k] - i]))
                j = ends[k] - i
                counts.append(c)
                k += 1
            c += int(np.count_nonzero(odd[j:]))
            for s in range(0, odd.size if harmonic else 0, _util.CHUNK):
                yield (1.0 / (2 * (np.flatnonzero(odd[s : s + _util.CHUNK]) + i + s) + 1)).tolist()

    harm = math.fsum(itertools.chain.from_iterable(reciprocals()))
    return counts[-1], 2 * sum(counts) - len(small) ** 2, harm


def rough_stats(x, y):
    """Exact Phi(x,y), S(x,y), and the rough harmonic sum (n=1 included)."""
    return SeqStats(x, *_rough_sums(x, y, harmonic=True))


def dense_stats(x, t):
    return _tally(*_walk(ThetaRule.dense(t), x), [x])[0]


def practical_stats(x):
    return _tally(*_walk(ThetaRule.practical(), x), [x])[0]


def factor_nr(m, rule, table):
    """Unique split m = n*r with n in B and (r = 1 or P-(r) > theta(n))."""
    table.check_range(m)
    fac = table.factorize(m)
    n = 1
    sg = 1
    r = 1
    for i, (p, a) in enumerate(fac):
        cap = rule.theta_floor(n, sg)
        if cap is not None and p > cap:
            for q, b in fac[i:]:
                r *= q**b
            break
        pk = p**a
        n *= pk
        sg *= (pk * p - 1) // (p - 1)
    return n, r


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
