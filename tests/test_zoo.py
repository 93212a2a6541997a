"""Unit tests for the canonical functions and the Herglotz-spec generator."""

import math

import numpy as np
import pytest

from secradius.bounds import cube_series_tail
from secradius.exceptions import ValidationError
from secradius.series import section
from secradius.zoo import (
    GENERATOR_NAME,
    HerglotzSpec,
    f0,
    half_plane,
    koebe,
    p_coeffs,
    rotation,
    sample_specs,
    spec_from_seed,
    synthesize_F,
)


polyval = np.polynomial.polynomial.polyval


def _circle_abs(c, r, m):
    """|sum c_k z^k| sampled at m uniform angles on |z| = r."""
    z = r * np.exp(2j * np.pi * np.arange(m) / m)
    return np.abs(polyval(z, c))


# ---------------------------------------------------------------------------
# Landmark members
# ---------------------------------------------------------------------------


def test_koebe_coefficients():
    """a_n = n for z/(1-z)^2."""
    np.testing.assert_array_equal(koebe(3).coeffs, [0, 1, 2, 3])
    np.testing.assert_array_equal(koebe(1).coeffs, [0, 1])


def test_koebe_evaluates_to_closed_form():
    """(1/2) / (1 - 1/2)^2 = 2; truncation error is ~ n 2^-n."""
    assert abs(polyval(0.5, koebe(200).coeffs) - 2.0) < 1e-10


def test_half_plane_coefficients_and_value():
    """z/(1-z): all coefficients 1; at z = 1/3 the sum is 1/2."""
    np.testing.assert_array_equal(half_plane(4).coeffs, [0, 1, 1, 1, 1])
    assert abs(polyval(1.0 / 3.0, half_plane(100).coeffs) - 0.5) < 1e-12


def test_f0_coefficients():
    """extremal coefficients a_n = (n+1)/2."""
    np.testing.assert_allclose(f0(3).coeffs, [0, 1, 1.5, 2])
    assert f0(10).coeffs[10] == 5.5


def test_f0_evaluates_to_closed_form():
    """(z - z^2/2)/(1-z)^2 at z = 1/3 equals 5/8."""
    assert abs(polyval(1.0 / 3.0, f0(200).coeffs) - 0.625) < 1e-12


def _cube_kernel(order):
    """Coefficients of 1/(1-z)^3 through z^order: (m+1)(m+2)/2."""
    m = np.arange(order + 1, dtype=np.float64)
    return (m + 1.0) * (m + 2.0) / 2.0


def test_cube_kernel_is_f0_derivative():
    np.testing.assert_allclose(_cube_kernel(2), [1, 3, 6])
    np.testing.assert_allclose(
        _cube_kernel(9), np.arange(1, 11) * f0(10).coeffs[1:], atol=1e-13
    )


def test_cube_kernel_value_at_minus_third():
    """1/(1+1/3)^3 = 27/64, the constant behind the main margin."""
    assert abs(polyval(-1.0 / 3.0, _cube_kernel(200)) - 27.0 / 64.0) < 1e-12


def test_order_validation():
    for fn in (koebe, half_plane, f0):
        with pytest.raises(ValidationError):
            fn(0)


# ---------------------------------------------------------------------------
# Herglotz specs
# ---------------------------------------------------------------------------


def test_spec_invariants_enforced():
    with pytest.raises(ValidationError, match=r"^weights sum to 0\.9, not 1$"):
        HerglotzSpec(np.array([0.5, 0.4]), np.array([1.0 + 0j, -1.0 + 0j]))  # a plain float
    with pytest.raises(ValidationError):
        HerglotzSpec(np.array([1.0]), np.array([0.5 + 0j]))  # not unimodular
    with pytest.raises(ValidationError):
        HerglotzSpec(np.array([1.0, 0.0]), np.array([1.0 + 0j, 1j]))  # zero weight
    with pytest.raises(ValidationError):
        HerglotzSpec(np.array([1.0]), np.array([1.0 + 0j, 1j]))  # shape mismatch
    with pytest.raises(ValidationError):
        HerglotzSpec(np.array([]), np.array([]))  # empty
    for seed in ("abc", 2.5, True, -3):  # a seed is an integer of at least 0
        with pytest.raises(ValidationError, match="seed must be"):
            HerglotzSpec([1.0], [1.0], seed=seed)


@pytest.mark.parametrize(
    "weights, points",
    [
        ([math.nan], [1]),  # NaN weight
        ([1.0], [None]),  # a None point reads as nan+nanj
        (["0.5", "0.5"], [1, -1]),  # numeric strings
        ([10**400], [1]),  # an integer beyond float range
        ([1.0], ["1"]),
        ([True], [1]),  # a bool weight
        ([1.0], [True]),  # a bool point
    ],
)
def test_spec_rejects_non_finite_and_non_numeric_input(weights, points):
    """Only finite integer, float (and, for points, complex) input
    builds a spec; anything else is a ValidationError, not a later failure."""
    with pytest.raises(ValidationError):
        HerglotzSpec(weights, points)


def test_spec_constructor_and_properties():
    spec = HerglotzSpec([0.25, 0.75], [1j, -1j], seed=np.int64(5))
    assert spec.seed == 5 and type(spec.seed) is int
    assert not spec.weights.flags.writeable
    assert not spec.points.flags.writeable
    with pytest.raises(ValidationError, match="non-empty"):
        HerglotzSpec([], [])


def test_p_coeffs_single_atom():
    """one atom at x=1 gives the constant-coefficient p_j = 2."""
    spec = HerglotzSpec([1.0], [1.0])
    p = p_coeffs(spec, 5)
    assert p[0] == 1.0
    np.testing.assert_allclose(p[1:], 2.0 * np.ones(5), atol=1e-15)
    with pytest.raises(ValidationError):
        p_coeffs(spec, -1)


def test_p_coeffs_bounded_by_two():
    """Caratheodory coefficient bound |p_j| <= 2 for every sampled spec."""
    for spec in sample_specs(40, 4, rng_seed=19):
        p = p_coeffs(spec, 32)
        assert np.all(np.abs(p[1:]) <= 2.0 + 1e-12)
        assert p[0] == 1.0


def _roots_of_unity_spec(k):
    """Equal weights on the k-th roots of unity: p_j = 0 for 1 <= j < k."""
    return HerglotzSpec(np.full(k, 1.0 / k), np.exp(2j * np.pi * np.arange(k) / k))


def test_roots_of_unity_spec_kills_low_coefficients():
    p = p_coeffs(_roots_of_unity_spec(7), 6)
    np.testing.assert_allclose(p[1:], np.zeros(6), atol=1e-14)


# ---------------------------------------------------------------------------
# Synthesis
# ---------------------------------------------------------------------------


def test_synthesize_single_atom_reproduces_f0():
    """the point mass at x = 1 is exactly the extremal member."""
    spec = HerglotzSpec([1.0], [1.0])
    f = synthesize_F(spec, order=32)
    np.testing.assert_allclose(f.coeffs, f0(32).coeffs, atol=1e-12)


def test_synthesize_atom_at_minus_one_is_rotated_f0():
    spec = HerglotzSpec([1.0], [-1.0])
    f = synthesize_F(spec, order=24)
    np.testing.assert_allclose(f.coeffs, rotation(f0(24), -1.0).coeffs, atol=1e-12)


def test_synthesize_high_root_count_gives_identity():
    """p = 1 through the truncation order synthesizes the identity map."""
    f = synthesize_F(_roots_of_unity_spec(40), order=16)
    expected = np.zeros(17)
    expected[1] = 1.0
    np.testing.assert_allclose(f.coeffs, expected, atol=1e-13)


def test_synthesize_is_normalized_and_curvature_consistent():
    """z f'' = (3/2) (p - 1) f' holds through the synthesis order.

    This is 1 + (2/3) z f''/f' = p cleared of its denominator: with
    c = f' coefficients, m c_m = (3/2) sum_{j>=1} p_j c_{m-j}, checked by
    multiplication alone.
    """
    order = 64
    m = np.arange(order)
    for spec in sample_specs(5, 3, rng_seed=23):
        f = synthesize_F(spec, order=order)
        assert f.coeffs[0] == 0.0
        assert abs(f.coeffs[1] - 1.0) < 1e-14
        c = np.arange(1, order + 1) * f.coeffs[1:]
        p = p_coeffs(spec, order - 1)
        p[0] -= 1.0
        rhs = 1.5 * np.convolve(p, c)[:order]
        np.testing.assert_allclose(m * c, rhs, rtol=1e-13, atol=0.0)


def test_sections_do_not_depend_on_the_synthesis_order():
    """section(synthesize_F(spec, 64), n) and synthesize_F(spec, n) agree bit
    for bit for n = 2..30, so a radius does not depend on how far its
    member was synthesized (a matrix product over the power table rounds
    differently with its height, and did on 87 of these 4,350 pairs)."""
    for spec in sample_specs(150, 3, rng_seed=7):
        f = synthesize_F(spec, order=64)
        p = p_coeffs(spec, 64)
        for n in range(2, 31):
            assert np.array_equal(section(f, n).coeffs, synthesize_F(spec, n).coeffs)
            assert np.array_equal(p[: n + 1], p_coeffs(spec, n))


def test_synthesized_coefficients_obey_growth_bound():
    """|a_n| <= (n+1)/2 for every member: the sharp coefficient bound."""
    n = np.arange(65)
    cap = (n + 1.0) / 2.0
    for spec in sample_specs(20, 3, rng_seed=29):
        f = synthesize_F(spec, order=64)
        assert np.all(np.abs(f.coeffs) <= cap + 1e-9)


def test_synthesized_derivative_obeys_envelope():
    """(1+r)^-3 <= |f'| <= (1-r)^-3 up to the truncation slack."""
    for spec in sample_specs(4, 3, rng_seed=31):
        fp = np.arange(1, 65) * synthesize_F(spec, order=64).coeffs[1:]
        for r in (0.1, 0.5, 0.9):
            eps = 2.0 * cube_series_tail(len(fp) - 1, r) + 1e-12
            mags = _circle_abs(fp, r, 256)
            assert np.all(mags >= (1.0 + r) ** -3 - eps)
            assert np.all(mags <= (1.0 - r) ** -3 + eps)


# ---------------------------------------------------------------------------
# Rotation
# ---------------------------------------------------------------------------


def test_rotation_identity_factor():
    f = koebe(6)
    np.testing.assert_array_equal(rotation(f, 1.0).coeffs, f.coeffs)


def test_rotation_preserves_moduli_and_normalization():
    f = f0(12)
    mu = np.exp(0.7j)
    g = rotation(f, mu)
    np.testing.assert_allclose(np.abs(g.coeffs), np.abs(f.coeffs), atol=1e-13)
    assert abs(g.coeffs[1] - 1.0) < 1e-13


def test_rotation_by_minus_one_alternates_signs():
    g = rotation(f0(5), -1.0)
    signs = np.array([1.0, 1.0, -1.0, 1.0, -1.0, 1.0])
    np.testing.assert_allclose(g.coeffs.real, signs * f0(5).coeffs.real, atol=1e-13)


def test_rotation_rejects_a_factor_that_is_not_a_number():
    for mu in (None, "1", True):
        with pytest.raises(ValidationError):
            rotation(f0(3), mu)


def test_rotation_rejects_non_unimodular():
    with pytest.raises(ValidationError):
        rotation(f0(3), 0.5)


def test_rotation_commutes_with_section_exactly():
    """Rotation covariance of sections holds bit for bit."""
    f = synthesize_F(spec_from_seed(77, 3), order=20)
    for mu in (1j, np.exp(2.1j), -1.0):
        for n in (2, 7, 20):
            a = section(rotation(f, mu), n)
            b = rotation(section(f, n), mu)
            np.testing.assert_array_equal(a.coeffs, b.coeffs)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def test_sample_specs_is_deterministic():
    xs = sample_specs(6, 3, rng_seed=101)
    ys = sample_specs(6, 3, rng_seed=101)
    for a, b in zip(xs, ys):
        np.testing.assert_array_equal(a.weights, b.weights)
        np.testing.assert_array_equal(a.points, b.points)
        assert a.seed == b.seed


def test_sample_specs_differ_across_seeds():
    a = sample_specs(1, 3, rng_seed=1)[0]
    b = sample_specs(1, 3, rng_seed=2)[0]
    assert not np.array_equal(a.points, b.points)


def test_child_seed_regenerates_spec():
    """A spec is replayable from its own recorded seed, not just the root's."""
    for spec in sample_specs(5, 4, rng_seed=55):
        clone = spec_from_seed(spec.seed, 4)
        np.testing.assert_array_equal(clone.weights, spec.weights)
        np.testing.assert_array_equal(clone.points, spec.points)


def test_sample_specs_validates_arguments():
    with pytest.raises(ValidationError):
        sample_specs(0, 3, rng_seed=1)
    with pytest.raises(ValidationError):
        sample_specs(3, 0, rng_seed=1)
    with pytest.raises(ValidationError):
        spec_from_seed(1, 0)


def test_generator_name_recorded():
    assert "PCG64" in GENERATOR_NAME
