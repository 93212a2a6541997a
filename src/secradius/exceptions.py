"""Exception types: ValidationError (a ValueError) for every rejected argument,
and three ArithmeticError types for numerical failures."""

__all__ = [
    "SecradiusError",
    "ValidationError",
    "PoleProximityError",
    "ZeroOnCircleError",
    "CrossCheckError",
]


class SecradiusError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(SecradiusError, ValueError):
    """Any rejected argument: a value of the wrong kind (an order that is not
    an integer, a radius that is not a real number, an unknown criterion), a
    scalar outside its domain, too low an order, a broken structural
    invariant, or a malformed spec file."""


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
