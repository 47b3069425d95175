"""Exception types raised by the package."""


class IpsZetaError(Exception):
    """Base class for all library errors."""


class InvalidInput(IpsZetaError):
    """Base class for errors caused by the caller's input; the CLI exits 2."""


class ConstraintViolation(InvalidInput):
    """A local operator carries weight where the right site would change."""


class DomainError(InvalidInput):
    """A parameter lies outside its admissible range."""


class DimensionMismatch(InvalidInput):
    """A vector or matrix has the wrong shape for the operation."""


class SizeExceeded(InvalidInput):
    """The requested dense computation is above the configured site cap."""


class ConvergenceFailure(IpsZetaError):
    """An eigensolver (LAPACK, through numpy) did not converge; the CLI exits 1."""


class SingularAtU(IpsZetaError):
    """The series or closed form has a pole at the requested point."""


class KindMismatch(InvalidInput):
    """State kind and operator class are incompatible."""


class InvariantDrift(IpsZetaError):
    """A state invariant degraded past the accepted numerical drift."""
