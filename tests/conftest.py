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
    from divmean import build_spf_table

    return build_spf_table(10**5)


@pytest.fixture(scope="session")
def spf_1e6():
    from divmean import build_spf_table

    return build_spf_table(10**6)


@pytest.fixture(scope="session")
def primes_1e5():
    from divmean import build_prime_list

    return build_prime_list(10**5)


@pytest.fixture(scope="session")
def bundle():
    from divmean.funcs import get_bundle

    return get_bundle()


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
