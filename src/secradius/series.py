"""Truncated complex power series and their sections.

A series is stored as a dense vector of complex coefficients c_0..c_N and is
treated as *exact through order N and unknown beyond*.  The n-th section
(partial sum) keeps c_0..c_n; the radius solves and the verification
suites work on those coefficients directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError

__all__ = ["TruncatedSeries", "section", "is_normalized"]


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Immutable power series of a fixed order.

    ``coeffs[m]`` is the coefficient of z^m; the order is ``len(coeffs) - 1``.
    The coefficient array is copied on construction and frozen, so instances
    are safe to share across threads.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = _numbers(self.coeffs, np.complex128, "coeffs")
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("coeffs must be a non-empty 1-D sequence")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"


def _numbers(values, dtype: type, name: str, scalar: bool = False) -> np.ndarray:
    """A finite copy of ``values`` as ``dtype`` (float64 or complex128) from integer,
    float or (for complex128) complex input only, with no bool anywhere, no ragged
    nesting, and no dimension when ``scalar``; else ValidationError.  Only input
    that is not already an ndarray is scanned element by element."""
    try:
        a = np.asarray(values)
    except ValueError as exc:  # ragged nesting
        raise ValidationError(f"{name} must be a regular array of numbers") from exc
    if not isinstance(values, np.ndarray) and any(
        isinstance(v, (bool, np.bool_)) for v in np.asarray(values, object).flat
    ):
        raise ValidationError(f"{name} must be numbers, not bool")
    if a.dtype.kind not in "iuf" + np.dtype(dtype).kind:
        raise ValidationError(f"{name} must be numbers, not {a.dtype}")
    if scalar and a.ndim:
        raise ValidationError(f"{name} must be a single number, got shape {a.shape}")
    a = np.array(a, dtype=dtype)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} must be finite")
    return a


def _integer(value, least: int, name: str) -> int:
    """``value`` as an int: an int or numpy integer, not a bool, of at least
    ``least``; else ValidationError.  The one rule for orders, counts, seeds,
    grid sizes and section indices."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValidationError(f"{name} must be at least {least}, got {value}")
    return int(value)


def _radius(value, closed: bool = False) -> float:
    """``value`` as a float: a real number, not a bool, in (0, 1), or in [0, 1)
    when ``closed``; else ValidationError.  The one rule for disc radii."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValidationError(f"radius must be a real number, got {value!r}")
    if not ((0.0 <= value if closed else 0.0 < value) and value < 1.0):
        raise ValidationError(f"radius must lie in {'[' if closed else '('}0, 1), got {value}")
    return float(value)


def is_normalized(s: TruncatedSeries) -> bool:
    """True when c_0 = 0 and c_1 = 1 within 1e-9, the radius solver's rule:
    s is a normalized member of the analytic family z + a_2 z^2 + ...
    Requires order >= 1."""
    if s.order < 1:
        return False
    return abs(s.coeffs[0]) <= 1e-9 and abs(s.coeffs[1] - 1.0) <= 1e-9


def section(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """The n-th partial sum: coefficients 0..n, order n."""
    n = _integer(n, 1, "section index")
    if n > s.order:
        raise ValidationError(
            f"section index {n} outside 1..{s.order}; synthesize more coefficients first"
        )
    return TruncatedSeries(s.coeffs[: n + 1])
