"""Exception hierarchy shared across the package."""


class SupermartError(Exception):
    """Base class for all package errors."""


class ModelValidationError(SupermartError):
    """A model object violates a structural invariant (bad shapes, non-finite
    numbers, non-conservative or reducible motion, a divergent kernel integral)."""


class SpectralError(SupermartError):
    """Eigen machinery failed (non-supercritical, no convergence)."""


class NumericalError(SupermartError):
    """A simulation left the floating-point range: a mass overflowed."""
