import itertools
import math
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

# pytest puts src on sys.path (pyproject.toml); the tests that start a fresh
# interpreter (python -m divmean.cli) read it from PYTHONPATH
SRC = str(Path(__file__).resolve().parents[1] / "src")
_paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
if SRC not in _paths:
    os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, _paths)])

settings.register_profile(
    "ci",
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def spf_1e5():
    from divmean.sieve import build_spf_table

    return build_spf_table(10**5)


@pytest.fixture(scope="session")
def spf_1e6():
    from divmean.sieve import build_spf_table

    return build_spf_table(10**6)


@pytest.fixture(scope="session")
def primes_1e5():
    from divmean.sieve import build_prime_list

    return build_prime_list(10**5)


@pytest.fixture(scope="session")
def bundle():
    from divmean.funcs import get_bundle

    return get_bundle()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)


@pytest.fixture(scope="session")
def full_list_sums():
    """sum_{p<=y} f(p) as one longdouble cumsum over every prime <= max y.

    The reference for the prime walk (see prime_sums): the bulk path of the
    prime list before it was segmented, which kept all the primes and the
    whole prefix.
    """
    from divmean.sieve import build_prime_list

    def sums(ys, f):
        ys = np.asarray(ys)
        primes = build_prime_list(max(2, int(np.floor(ys).max()))).primes
        cum = np.empty(primes.size + 1, dtype=np.longdouble)
        cum[0] = 0.0
        np.cumsum(f(primes.astype(np.float64)), dtype=np.longdouble, out=cum[1:])
        pi = np.searchsorted(primes, np.floor(ys).astype(np.int64), side="right")
        return cum[pi].astype(np.float64)

    return sums


@pytest.fixture(scope="session")
def prime_sums():
    """prime_sums(ys, *terms): sum_{p <= y} f(p) at every cutoff y of ys, one float64
    array per f, shaped as ys.

    One sieve.prime_walk up to max floor(ys), read at the sorted floors of each
    sub-block: the reader the package had before the series engine read the
    walk itself.
    """
    from divmean import sieve

    def sums(ys, *terms):
        keys = np.floor(ys).astype(np.int64, copy=False).ravel()
        blocks = sieve.prime_walk(int(keys.max(initial=0)), *terms)
        span = sieve._span()
        order = np.argsort(keys)
        keys = keys[order]
        out = [np.zeros(keys.size) for _ in terms]  # a floor below 0 takes no prime
        for lo, ps, cums in blocks:
            a, b = np.searchsorted(keys, [lo, lo + span])
            idx = np.searchsorted(ps, keys[a:b], side="right")  # the floors in the sub-block
            for s, cum in zip(out, cums):
                s[order[a:b]] = cum[idx]
        return [s.reshape(np.shape(ys)) for s in out]

    return sums


@pytest.fixture(scope="session")
def rough_reference():
    """(members, Phi, S, harmonic) of the y-rough n <= x, from one mask over every odd n <= x.

    The reference for the segmented rough path: the single mask, the prefix
    counts at the ends (x//a + 1)//2 for the rough a <= sqrt(x) read off that
    mask's own prefix, and the harmonic sum over the mask in chunks.
    """
    from divmean import _util
    from divmean.sieve import odd_sieve

    def stats(x, y):
        yf = min(math.floor(y), x)
        odd = odd_sieve(x, min(yf, math.isqrt(x)))
        odd[1 : (yf + 1) // 2] = False  # 3, 5, ..., y: each has a factor <= y
        small = np.flatnonzero(odd[: (math.isqrt(x) + 1) // 2]) * 2 + 1
        ends = [0] + ((x // small[::-1] + 1) // 2).tolist()  # the last is len(odd)
        segs = (np.count_nonzero(odd[i:j]) for i, j in zip(ends, ends[1:]))
        counts = list(itertools.accumulate(segs))
        harm = _util.fsum(odd, lambda i, chunk: 1.0 / (2 * (np.flatnonzero(chunk) + i) + 1))
        members = np.flatnonzero(odd) * 2 + 1
        return members, int(counts[-1]), 2 * int(sum(counts)) - len(small) ** 2, harm

    return stats
