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

    The reference for sieve.prime_sums: the bulk path of the prime list
    before it was segmented, which kept all the primes and the whole prefix.
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
