"""Exception types shared across the package."""

__all__ = [
    "SecradiusError",
    "ValidationError",
    "DomainError",
    "OrderError",
    "PoleProximityError",
    "ZeroOnCircleError",
    "CrossCheckError",
]


class SecradiusError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SecradiusError, ValueError):
    """An input object violates its structural invariants."""


class DomainError(SecradiusError, ValueError):
    """A scalar argument lies outside the domain of a formula."""


class OrderError(SecradiusError, ValueError):
    """A series has too low an order for the requested operation."""


class PoleProximityError(SecradiusError, ArithmeticError):
    """A quotient criterion was evaluated too close to a zero of its denominator.

    Carries the offending point in ``z``.
    """

    def __init__(self, z, message):
        super().__init__(f"{message} (z = {z!r})")
        self.z = z


class ZeroOnCircleError(SecradiusError, ArithmeticError):
    """A zero of the function cannot be placed on either side of a circle."""


class CrossCheckError(SecradiusError, ArithmeticError):
    """Two independent computations of the same quantity disagree."""
