"""divmean: exact divisor statistics for rough, dense, and practical numbers,
the delay-equation special functions behind their mean values, and the
analytic constants that govern the growth rates."""

from .errors import (
    ConfigError,
    ContourError,
    DivmeanError,
    PoleError,
    RangeError,
    ResourceError,
    SolverError,
)
from .sieve import (
    PrimeList,
    SpfTable,
    build_prime_list,
    build_spf_table,
    divisors_sorted,
    sigma,
    tau,
)

__version__ = "0.1.0"
