"""Exception types: ValidationError (a ValueError) for every rejected argument,
and two ArithmeticError types for numerical failures: a zero on a circle,
and two computations that disagree."""

__all__ = [
    "SecradiusError",
    "ValidationError",
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


class ZeroOnCircleError(SecradiusError, ArithmeticError):
    """A zero of a polynomial lies on the circle |z| = r to working precision:
    a criterion's denominator vanishes at a scanned point (the message names
    it), or a root disc of :func:`~secradius.radius.count_zeros` meets the
    circle, so the zero cannot be placed on either side."""


class CrossCheckError(SecradiusError, ArithmeticError):
    """Two independent computations of the same quantity disagree."""
