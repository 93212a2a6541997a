"""Truncated complex power-series arithmetic.

A series is stored as a dense vector of complex coefficients c_0..c_N and is
treated as *exact through order N and unknown beyond*.  Operations that would
need coefficients beyond the stored order (notably products) truncate to the
order both operands share; they never invent high-order terms.  Sums and
differences treat the shorter operand as a polynomial and zero-pad, so that a
section and its tail recombine to the original series coefficient by
coefficient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import OrderError, ValidationError

__all__ = [
    "TruncatedSeries",
    "evaluate",
    "derivative",
    "multiply",
    "section",
    "tail",
    "add",
    "subtract",
    "divide",
    "identity",
    "is_normalized",
]


@dataclass(frozen=True, eq=False)
class TruncatedSeries:
    """Immutable power series of a fixed order.

    ``coeffs[m]`` is the coefficient of z^m; the order is ``len(coeffs) - 1``.
    The coefficient array is copied on construction and frozen, so instances
    are safe to share across threads.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.array(self.coeffs, dtype=np.complex128, copy=True)
        if c.ndim != 1 or c.size == 0:
            raise ValidationError("coeffs must be a non-empty 1-D sequence")
        if not np.all(np.isfinite(c)):
            raise ValidationError("coeffs must be finite")
        c.flags.writeable = False
        object.__setattr__(self, "coeffs", c)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return subtract(self, other)

    def __mul__(self, other):
        return multiply(self, other)

    def __repr__(self):
        head = np.array2string(self.coeffs[:4], precision=6, separator=", ")
        return f"TruncatedSeries(order={self.order}, coeffs={head}...)"


def identity(order: int = 1) -> TruncatedSeries:
    """The series z, padded with zeros up to ``order``."""
    if order < 1:
        raise OrderError("identity needs order >= 1")
    c = np.zeros(order + 1, dtype=np.complex128)
    c[1] = 1.0
    return TruncatedSeries(c)


def is_normalized(s: TruncatedSeries, tol: float = 1e-12) -> bool:
    """True when c_0 = 0 and c_1 = 1 (within ``tol``), i.e. s is a normalized
    member of the analytic family z + a_2 z^2 + ...  Requires order >= 1."""
    if s.order < 1:
        return False
    return abs(s.coeffs[0]) <= tol and abs(s.coeffs[1] - 1.0) <= tol


def evaluate(s: TruncatedSeries, z: complex) -> complex:
    """Evaluate the polynomial sum_{m<=N} c_m z^m by Horner's scheme."""
    acc = 0j
    zc = complex(z)
    for c in s.coeffs[::-1]:
        acc = acc * zc + complex(c)
    return acc


def derivative(s: TruncatedSeries) -> TruncatedSeries:
    """Formal derivative; the order drops by one."""
    if s.order < 1:
        raise OrderError("cannot differentiate an order-0 series")
    m = np.arange(1, s.order + 1)
    return TruncatedSeries(m * s.coeffs[1:])


def multiply(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Cauchy product truncated at min(order_a, order_b).

    Coefficients of the product beyond the shared order would depend on
    coefficients that one operand does not carry, so they are dropped.
    """
    n = min(a.order, b.order)
    prod = np.convolve(a.coeffs[: n + 1], b.coeffs[: n + 1])[: n + 1]
    return TruncatedSeries(prod)


def add(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise sum; the shorter operand is zero-padded."""
    n = max(a.order, b.order)
    c = np.zeros(n + 1, dtype=np.complex128)
    c[: a.order + 1] = a.coeffs
    c[: b.order + 1] += b.coeffs
    return TruncatedSeries(c)


def subtract(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Coefficientwise difference; the shorter operand is zero-padded."""
    return add(a, TruncatedSeries(-b.coeffs))


def divide(a: TruncatedSeries, b: TruncatedSeries) -> TruncatedSeries:
    """Series quotient q with q*b = a, truncated at min(order_a, order_b).

    Requires b to have a nonzero constant term.  Standard forward recurrence:
    q_m = (a_m - sum_{j=1}^{m} b_j q_{m-j}) / b_0.
    """
    if abs(b.coeffs[0]) < 1e-300:
        raise ValidationError("division by a series with (near-)zero constant term")
    n = min(a.order, b.order)
    an = np.zeros(n + 1, dtype=np.complex128)
    an[: min(a.order, n) + 1] = a.coeffs[: n + 1]
    bn = b.coeffs[: n + 1]
    q = np.zeros(n + 1, dtype=np.complex128)
    q[0] = an[0] / bn[0]
    for m in range(1, n + 1):
        q[m] = (an[m] - np.dot(bn[1 : m + 1], q[m - 1 :: -1])) / bn[0]
    return TruncatedSeries(q)


def section(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """The n-th partial sum: coefficients 0..n, order n."""
    if not 1 <= n <= s.order:
        raise OrderError(
            f"section index {n} outside 1..{s.order}; synthesize more coefficients first"
        )
    return TruncatedSeries(s.coeffs[: n + 1])


def tail(s: TruncatedSeries, n: int) -> TruncatedSeries:
    """The remainder after the n-th partial sum, kept at the original order.

    Coefficients 0..n are zero; ``section(s, n) + tail(s, n)`` reproduces s
    exactly, component by component.
    """
    if not 1 <= n <= s.order:
        raise OrderError(f"tail index {n} outside 1..{s.order}")
    c = np.zeros(s.order + 1, dtype=np.complex128)
    c[n + 1 :] = s.coeffs[n + 1 :]
    return TruncatedSeries(c)
