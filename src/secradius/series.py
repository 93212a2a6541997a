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


def _numbers(values, dtype: type, name: str) -> np.ndarray:
    """A finite copy of ``values`` as ``dtype`` (float64 or complex128) from bool,
    integer, float or (for complex128) complex input only, else ValidationError."""
    a = np.asarray(values)
    if a.dtype.kind not in "biuf" + np.dtype(dtype).kind:
        raise ValidationError(f"{name} must be numbers, not {a.dtype}")
    a = np.array(a, dtype=dtype)
    if not np.all(np.isfinite(a)):
        raise ValidationError(f"{name} must be finite")
    return a


def is_normalized(s: TruncatedSeries, tol: float = 1e-12) -> bool:
    """True when c_0 = 0 and c_1 = 1 (within ``tol``), i.e. s is a normalized
    member of the analytic family z + a_2 z^2 + ...  Requires order >= 1."""
    if s.order < 1:
        return False
    return abs(s.coeffs[0]) <= tol and abs(s.coeffs[1] - 1.0) <= tol


def section(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """The n-th partial sum: coefficients 0..n, order n."""
    if not 1 <= n <= s.order:
        raise ValidationError(
            f"section index {n} outside 1..{s.order}; synthesize more coefficients first"
        )
    return TruncatedSeries(s.coeffs[: n + 1])
