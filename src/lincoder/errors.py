"""Exception types shared across the package."""


class LincoderError(Exception):
    """Base class for all package-specific errors."""


class NotPositiveDefiniteError(LincoderError):
    """Cholesky factorization failed: the input is not positive definite."""


class NoEquilibriumError(LincoderError):
    """The continuous-time Lyapunov equation has no usable equilibrium."""


class FastPathDomainError(LincoderError):
    """The small-distortion shortcut was called outside its domain."""


class InfeasibleTargetError(LincoderError):
    """The requested increment lies outside the attainable cone of the family."""


class CapacityInfeasibleError(LincoderError):
    """No admissible sampling interval keeps the code rate below capacity."""
