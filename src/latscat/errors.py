"""Exception taxonomy shared by the library and the CLI.

The CLI maps these onto process exit codes: bad parameters -> 2,
capacity limits -> 3, numerical failures -> 4.
"""


class LatscatError(Exception):
    """Base class for all library errors."""


class BadParameterError(LatscatError, ValueError):
    """A parameter is outside its documented domain."""


class CapacityError(LatscatError):
    """A requested computation would not fit in the available memory."""


class NumericalError(LatscatError):
    """A numerical procedure failed to produce a trustworthy result."""


class DegenerateGroundStateError(NumericalError):
    """The ground state is not unique within the degeneracy tolerance."""


class ConvergenceError(NumericalError):
    """An iterative solver did not converge to the requested residual."""


class UndefinedDeviationError(NumericalError):
    """Every grid point was excluded from a deviation average."""


class CacheError(LatscatError):
    """A spectrum cache file is unreadable or fails validation."""
