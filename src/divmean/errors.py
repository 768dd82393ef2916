"""Exception hierarchy.

RangeError is an argument problem (CLI maps it to a usage error, exit 2).
ResourceError / ContourError / SolverError are runtime failures of an
otherwise valid request.
"""


class DivmeanError(Exception):
    pass


class RangeError(DivmeanError, ValueError):
    """Argument outside the supported domain or table range."""


class PoleError(RangeError):
    """Evaluation requested exactly at a pole."""


class ResourceError(DivmeanError, RuntimeError):
    """Request exceeds a configured size budget."""


class ContourError(DivmeanError, RuntimeError):
    """Winding-number contour too close to a zero or pole."""


class SolverError(DivmeanError, RuntimeError):
    """Root search failed (no bracket sign change, Newton divergence)."""
