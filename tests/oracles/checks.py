"""The oracles the tests compare divmean against, kept out of the package.

Factorisation over a smallest-prime-factor table (`divmean.sieve.SpfTable`,
which no command builds): tau, sigma and sorted divisor lists.  Chain
membership by the ascending factorisation (`is_in_B`, `factor_nr`) and by the
defining properties of t-dense and practical numbers (consecutive-divisor
ratios, subset sums).  The ratio function xi by a route of its own: a
quadrature of omega's self-convolution.

    from oracles.checks import tau, is_in_B

(pytest puts `tests/` on sys.path.)
"""

from fractions import Fraction

import numpy as np

from divmean.errors import RangeError, ResourceError
from divmean.funcs import _quad_sum, panel_rows

SUBSET_SUM_LIMIT = 10**6
_GL20 = np.polynomial.legendre.leggauss(20)


def check_range(table, n):
    if not (1 <= n <= table.limit):
        raise RangeError(f"n={n} outside table range [1, {table.limit}]")


def smallest_prime_factor(table, n):
    check_range(table, n)
    return int(table.spf[n]) if n > 1 else 0


def factorize(table, n):
    """Ascending [(p, multiplicity)] pairs."""
    check_range(table, n)
    out = []
    while n > 1:
        p = int(table.spf[n])
        a = 0
        while n % p == 0:
            n //= p
            a += 1
        out.append((p, a))
    return out


def tau(n, table):
    """Number of divisors."""
    t = 1
    for _p, a in factorize(table, n):
        t *= a + 1
    return t


def sigma(n, table):
    """Sum of divisors."""
    s = 1
    for p, a in factorize(table, n):
        s *= (p ** (a + 1) - 1) // (p - 1)
    return s


def divisors_sorted(n, table):
    divs = [1]
    for p, a in factorize(table, n):
        pk = 1
        base = list(divs)
        for _ in range(a):
            pk *= p
            divs.extend(d * pk for d in base)
    divs.sort()
    return divs


def is_in_B(n, rule, table):
    return factor_nr(n, rule, table)[1] == 1


def factor_nr(m, rule, table):
    """Unique split m = n*r with n in B and (r = 1 or P-(r) > theta(n))."""
    check_range(table, m)
    fac = factorize(table, m)
    n = 1
    sg = 1
    r = 1
    for i, (p, a) in enumerate(fac):
        if p > rule.theta_floor(n, sg):
            for q, b in fac[i:]:
                r *= q**b
            break
        pk = p**a
        n *= pk
        sg *= (pk * p - 1) // (p - 1)
    return n, r


def is_t_dense_by_divisors(n, t, table):
    """Oracle: consecutive-divisor ratios <= t, checked in exact rationals."""
    if Fraction(t) < 1:
        raise RangeError(f"t must be >= 1, got {t}")
    check_range(table, n)
    num, den = Fraction(t).numerator, Fraction(t).denominator
    divs = divisors_sorted(n, table)
    return all(b * den <= a * num for a, b in zip(divs, divs[1:]))


def is_practical_by_subset_sum(n, table):
    """Oracle: every 1 <= m <= n is a sum of distinct divisors of n."""
    if n > SUBSET_SUM_LIMIT:
        raise ResourceError(f"subset-sum oracle capped at {SUBSET_SUM_LIMIT}")
    check_range(table, n)
    if n == 1:
        return True
    full = (1 << (n + 1)) - 1
    bits = 1
    for d in divisors_sorted(n, table):
        bits |= (bits << d) & full
        if bits == full:
            return True
    return bits == full


def ratio_via_convolution(u, buchstab):
    """Independent route: ratio(u) = 2*w(u) + (w*w)(u), quadrature only.

    The self-convolution is supported on [1, u-1]; panels split wherever
    either factor hits an integer argument.
    """
    u = float(u)
    if u < 1.0:
        return 0.0
    two_w = 2.0 * buchstab(u)
    if u <= 2.0:
        return two_w
    ms = np.arange(2.0, int(u) + 1.0)  # kinks of w(t) and of w(u-t)
    nodes, weights, _ = panel_rows(1.0, u - 1.0, np.concatenate([ms, u - ms]), _GL20, 0.5)
    conv = float(
        _quad_sum(weights, buchstab.eval_many(nodes) * buchstab.eval_many(u - nodes))
    )
    return two_w + conv
