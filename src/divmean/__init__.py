"""divmean: exact divisor statistics for rough, dense, and practical numbers,
the delay-equation special functions behind their mean values, and the
analytic constants that govern the growth rates.

The submodules sieve, theta, funcs, constants and report are registered
lazily: each one's body runs on the first read of one of its attributes, so
a command runs only the modules it calls into, and `import divmean` loads no
numpy.  Names come from their submodule: `from divmean.theta import ThetaRule`.
"""

import importlib.util
import os
import sys

# No divmean sum goes through BLAS, yet an OpenBLAS worker thread spins idle
# after each numpy import; set before any submodule loads numpy, unless
# already set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .errors import (
    ContourError,
    DivmeanError,
    PoleError,
    RangeError,
    ResourceError,
    SolverError,
)

__version__ = "0.1.0"


def _lazy(name):
    """Put divmean.<name> in sys.modules and on the package, its body not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    globals()[name] = module
    spec.loader.exec_module(module)


for _name in ("sieve", "theta", "funcs", "constants", "report"):
    _lazy(_name)
