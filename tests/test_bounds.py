"""Unit tests for the closed-form coefficient, derivative, and tail bounds."""

from fractions import Fraction

import numpy as np
import pytest

from secradius.bounds import (
    coeff_bound,
    deriv_envelope,
    k_tail,
    tail_derivative_bound,
)
from secradius.exceptions import ValidationError
from secradius.zoo import f0, sample_specs, synthesize_F


def _k_tail_exact(n: int) -> Fraction:
    """Independent rational evaluation of -(2n^2 + 8n + 9) / (8 * 3^(n-1))."""
    return Fraction(-(2 * n * n + 8 * n + 9), 8 * 3 ** (n - 1))


def _tail_bound_exact(n: int, r: Fraction) -> Fraction:
    """Rational evaluation of the tail-derivative bound at rational radii."""
    num = n * (n + 1) * r ** (n + 2) - 2 * n * (n + 2) * r ** (n + 1) + (n + 1) * (n + 2) * r**n
    return num / (2 * (1 - r) ** 3)


# ---------------------------------------------------------------------------
# Coefficient bound
# ---------------------------------------------------------------------------


def test_coeff_bound_values():
    assert coeff_bound(2) == 1.5
    assert coeff_bound(3) == 2.0
    assert coeff_bound(10) == 5.5


def test_coeff_bound_attained_by_extremal():
    f = f0(30)
    for n in range(2, 31):
        assert abs(abs(f.coeffs[n]) - coeff_bound(n)) < 1e-13


def test_coeff_bound_domain():
    with pytest.raises(ValidationError):
        coeff_bound(1)
    with pytest.raises(ValidationError):
        coeff_bound(0)


# ---------------------------------------------------------------------------
# Derivative envelope
# ---------------------------------------------------------------------------


def test_envelope_at_zero_radius():
    lo, hi = deriv_envelope(0.0)
    assert lo == 1.0 and hi == 1.0


def test_envelope_values():
    lo, hi = deriv_envelope(0.5)
    assert abs(lo - 1.0 / 3.375) < 1e-15
    assert abs(hi - 8.0) < 1e-12


def test_envelope_sharp_for_extremal_derivative():
    """f0' is the cube kernel, which attains both envelope ends on the axis."""
    fp = np.arange(1, 121) * f0(120).coeffs[1:]
    for r in (0.2, 1.0 / 3.0, 0.6):
        slack = tail_derivative_bound(len(fp), r)
        lo, hi = deriv_envelope(r)
        up = abs(np.polynomial.polynomial.polyval(r, fp))
        dn = abs(np.polynomial.polynomial.polyval(-r, fp))
        assert abs(up - hi) <= slack + 1e-12
        assert abs(dn - lo) <= slack + 1e-12


def test_envelope_domain():
    with pytest.raises(ValidationError):
        deriv_envelope(-0.1)
    with pytest.raises(ValidationError):
        deriv_envelope(1.0)


# ---------------------------------------------------------------------------
# Tail-derivative bound and its value at r = 1/3
# ---------------------------------------------------------------------------


def test_tail_bound_matches_rational_oracle():
    for n in (1, 2, 4, 6, 11):
        for r in (Fraction(1, 4), Fraction(1, 3), Fraction(3, 5)):
            exact = _tail_bound_exact(n, r)
            got = tail_derivative_bound(n, float(r))
            assert abs(got - float(exact)) < 1e-12 * max(1.0, abs(float(exact)))


def test_tail_bound_at_one_third_is_minus_k_tail():
    for n in range(1, 31):
        a = tail_derivative_bound(n, 1.0 / 3.0)
        b = -k_tail(n)
        assert abs(a - b) < 1e-12 * max(1.0, abs(b))


def test_tail_bound_decreases_in_n_for_small_radii():
    for r in (0.2, 1.0 / 3.0, 0.6):
        vals = [tail_derivative_bound(n, r) for n in range(2, 21)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_tail_bound_dominates_actual_tail_derivative():
    """The estimate really does bound |sigma_n'| for synthesized members."""
    order = 64
    thetas = 2.0 * np.pi * np.arange(64) / 64
    for spec in sample_specs(5, 3, rng_seed=37):
        f = synthesize_F(spec, order=order)
        for n in (2, 5, 12, 20):
            # sigma_n' = sum_{k>n} k a_k z^(k-1)
            sig_p = np.zeros(order, dtype=np.complex128)
            sig_p[n:] = np.arange(n + 1, order + 1) * f.coeffs[n + 1 :]
            for r in (0.2, 1.0 / 3.0, 0.5):
                z = r * np.exp(1j * thetas)
                mags = np.abs(np.polynomial.polynomial.polyval(z, sig_p))
                assert np.all(mags <= tail_derivative_bound(n, r) + 1e-9)


def test_tail_bound_domain():
    with pytest.raises(ValidationError):
        tail_derivative_bound(0, 0.5)
    with pytest.raises(ValidationError):
        tail_derivative_bound(3, 0.0)
    with pytest.raises(ValidationError):
        tail_derivative_bound(3, 1.0)


# ---------------------------------------------------------------------------
# k_tail
# ---------------------------------------------------------------------------


def test_k_tail_known_values():
    assert abs(k_tail(4) + 73.0 / 216.0) < 1e-15
    assert abs(k_tail(1) + 19.0 / 8.0) < 1e-15
    assert abs(k_tail(2) + 33.0 / 24.0) < 1e-15


def test_k_tail_matches_rational_oracle():
    for n in range(1, 41):
        exact = float(_k_tail_exact(n))
        assert abs(k_tail(n) - exact) < 1e-15 * max(1.0, abs(exact))


def test_k_tail_strictly_increases():
    vals = [k_tail(n) for n in range(1, 61)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_k_tail_domain():
    with pytest.raises(ValidationError):
        k_tail(0)


# ---------------------------------------------------------------------------
# The cube series' tail past an order is the tail bound one section on
# ---------------------------------------------------------------------------


def test_cube_series_tail_order_zero():
    r = 0.5
    assert abs(tail_derivative_bound(1, r) - (1.0 / (1.0 - r) ** 3 - 1.0)) < 1e-14


def test_cube_series_tail_brute_force():
    """sum_{m > order} (m+1)(m+2)/2 r^m, the cutoff error of 1/(1-z)^3, is
    tail_derivative_bound(order + 1, r)."""
    for order in (3, 16, 63):
        for r in (0.3, 0.5, 0.8):
            m = np.arange(order + 1, 4000)
            brute = float(np.sum((m + 1.0) * (m + 2.0) / 2.0 * r**m))
            assert abs(tail_derivative_bound(order + 1, r) - brute) < 1e-9
