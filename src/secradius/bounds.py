"""Closed-form coefficient, derivative, and tail bounds for the family F.

All members f(z) = z + sum a_n z^n with Re(1 + z f''/f') > -1/2 satisfy

  * |a_n| <= (n+1)/2 for n >= 2, with equality for the extremal f0,
  * 1/(1+r)^3 <= |f'(z)| <= 1/(1-r)^3 on |z| = r,
  * a derivative-tail estimate: with f = s_n + sigma_n,

        |sigma_n'(z)| <= (n(n+1) r^{n+2} - 2n(n+2) r^{n+1}
                          + (n+1)(n+2) r^n) / (2 (1-r)^3).

At r = 1/3 the tail estimate collapses to (2n^2 + 8n + 9) / (8 * 3^{n-1}),
whose negative is exposed as :func:`k_tail`; it increases with n, so
k_tail(4) = -73/216 bounds all later sections.
"""

from __future__ import annotations

from .series import _integer, _radius

__all__ = [
    "coeff_bound",
    "deriv_envelope",
    "tail_derivative_bound",
    "k_tail",
    "cube_series_tail",
]


def coeff_bound(n: int) -> float:
    """Sharp bound (n+1)/2 on |a_n| over F, for n >= 2."""
    n = _integer(n, 2, "n")
    return (n + 1) / 2.0


def deriv_envelope(r: float) -> tuple[float, float]:
    """Sharp lower/upper bounds (1/(1+r)^3, 1/(1-r)^3) on |f'| at |z| = r."""
    r = _radius(r, closed=True)
    return 1.0 / (1.0 + r) ** 3, 1.0 / (1.0 - r) ** 3


def tail_derivative_bound(n: int, r: float) -> float:
    """Bound on |sigma_n'| at |z| = r for the tail after the n-th section."""
    n = _integer(n, 1, "n")
    r = _radius(r)
    num = n * (n + 1) * r ** (n + 2) - 2 * n * (n + 2) * r ** (n + 1) + (n + 1) * (n + 2) * r**n
    return num / (2.0 * (1.0 - r) ** 3)


def k_tail(n: int) -> float:
    """-(2n^2 + 8n + 9) / (8 * 3^(n-1)); equals -tail_derivative_bound(n, 1/3)."""
    n = _integer(n, 1, "n")
    return -(2.0 * n * n + 8.0 * n + 9.0) / (8.0 * 3.0 ** (n - 1))


def cube_series_tail(order: int, r: float) -> float:
    """sum_{m > order} (m+1)(m+2)/2 * r^m, the cutoff error of 1/(1-z)^3.

    Used as truncation slack when checking the derivative envelope against a
    series synthesized only up to ``order``: every F-member derivative
    coefficient obeys |c_m| <= (m+1)(m+2)/2, so the dropped terms sum to at
    most this value.
    """
    order = _integer(order, 0, "order")
    r = _radius(r, closed=True)
    partial = 0.0
    rm = 1.0
    for m in range(order + 1):
        partial += (m + 1) * (m + 2) / 2.0 * rm
        rm *= r
    # the difference is a true tail, hence nonnegative; clamp away the
    # cancellation noise that appears once the tail drops below epsilon
    return max(0.0, 1.0 / (1.0 - r) ** 3 - partial)
