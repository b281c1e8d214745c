"""Exception hierarchy shared across the package."""


class SupermartError(Exception):
    """Base class for all package errors."""


class ModelValidationError(SupermartError):
    """A model object violates a structural invariant."""


class SpectralError(SupermartError):
    """Eigen machinery failed (non-supercritical, reducible, no convergence)."""

