"""Unit tests for boundary scans, zero counting, and radius solves."""

import cmath
import math
from fractions import Fraction

import numpy as np
import pytest

import secradius.radius as radius_module
from secradius.exceptions import ValidationError, ZeroOnCircleError
from secradius.radius import (
    RADIUS_CAP,
    BoundaryScan,
    Criterion,
    RadiusResult,
    _field_parts,
    _field_scan,
    _graeffe_bound,
    _guard_bound,
    _point_jet,
    _root_discs,
    boundary_min,
    count_zeros,
    criterion_radius,
    golden_section_min,
)
from secradius.series import TruncatedSeries, section
from secradius.zoo import f0, koebe, rotation, sample_specs, synthesize_F

try:
    from hypothesis import assume, example, given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAS_HYPOTHESIS = False

Z = TruncatedSeries([0, 1])  # the identity map z
S2 = f0(2)  # z + 3/2 z^2, derivative 1 + 3z
S3 = f0(3)
#: Criteria with a boundary field; local univalence is its guard bound alone.
FIELD_CRITERIA = [c for c in Criterion if c is not Criterion.LOCAL_UNIVALENCE]


def _value(s, criterion, z):
    """The criterion field of ``s`` at the point ``z``."""
    return _point_jet(_field_parts(s, Criterion(criterion)))(complex(z))[0]


# ---------------------------------------------------------------------------
# Golden-section search
# ---------------------------------------------------------------------------


def test_golden_section_on_cosine():
    x, v = golden_section_min(math.cos, 2.0, 4.5)
    # value resolution is ~eps, so the abscissa is only good to ~sqrt(eps)
    assert abs(x - math.pi) < 1e-7
    assert abs(v + 1.0) < 1e-14


def test_golden_section_accepts_reversed_bounds():
    x, _ = golden_section_min(lambda t: (t - 1.0) ** 2, 3.0, -1.0)
    assert abs(x - 1.0) < 1e-9


def test_golden_section_value_never_above_probes():
    """The reported value is the best evaluation, even for nasty functions."""
    seen = []

    def fn(t):
        seen.append(t)
        return math.sin(5.0 * t) + 0.3 * t

    x, v = golden_section_min(fn, 0.0, 2.0)
    probes = list(seen)  # snapshot: fn() keeps appending
    assert v <= min(fn(t) for t in probes) + 1e-15
    assert v == fn(x)


# ---------------------------------------------------------------------------
# Pointwise criterion values
# ---------------------------------------------------------------------------


def test_re_deriv_values():
    assert _value(Z, Criterion.RE_DERIV, 0.9j) == 1.0
    assert abs(_value(S2, Criterion.RE_DERIV, -1.0 / 3.0)) < 1e-15
    assert _value(S2, Criterion.RE_DERIV, 0.0) == 1.0


def test_convexity_value_at_quotient_zero():
    # 1 + z s''/s' = (1 + 6z)/(1 + 3z) for s = z + 3/2 z^2
    assert abs(_value(S2, Criterion.CONVEXITY, -1.0 / 6.0)) < 1e-14


def test_starlikeness_value_at_origin_is_limit():
    assert _value(S2, Criterion.STARLIKENESS, 0.0) == 1.0


def test_local_univalence_has_no_field():
    """Local univalence is decided by the guard bound of s', so the scans
    that evaluate a field refuse it."""
    with pytest.raises(ValidationError, match="no boundary field"):
        _value(S2, Criterion.LOCAL_UNIVALENCE, 0.2j)
    with pytest.raises(ValidationError, match="no boundary field"):
        _value(S2, "local-univalence", 0.0)
    with pytest.raises(ValidationError, match="no boundary field"):
        boundary_min(S2, Criterion.LOCAL_UNIVALENCE, 0.2)


def test_criterion_accepts_plain_strings():
    assert boundary_min(S2, "re-deriv", 0.3) == boundary_min(S2, Criterion.RE_DERIV, 0.3)
    assert Criterion("starlike") is Criterion.STARLIKENESS


def test_starlikeness_pole_detection():
    """A denominator zero on the circle is a zero on the circle: the point
    and the grid paths both raise ZeroOnCircleError and name the point."""
    s = TruncatedSeries([0, 1, -2])  # z - 2z^2 vanishes at z = 1/2
    with pytest.raises(ZeroOnCircleError, match=r"at the point \(z = \(0\.5\+0j\)\)"):
        _value(s, Criterion.STARLIKENESS, 0.5)
    # grid angle 0 lands on the zero
    with pytest.raises(ZeroOnCircleError, match=r"scan circle \(z = \(0\.5\+0j\)\)"):
        boundary_min(s, Criterion.STARLIKENESS, 0.5, grid_size=16)


def test_convexity_pole_detection():
    s = TruncatedSeries([0, 1, -2])  # s' = 1 - 4z vanishes at z = 1/4
    with pytest.raises(ZeroOnCircleError, match=r"\(z = \(0\.25\+0j\)\)"):
        _value(s, Criterion.CONVEXITY, 0.25)


def test_horner_errs_within_the_rounding_model():
    """Fact (H) of ``radius``' rounding model: Horner's rule of degree d at a
    float point z, as ``_point_jet`` and ``np.polyval`` run it, lies within
    gamma_{4d} sum_k |c_k| |z|^k of the exact value at that z, found here in
    rational arithmetic (the bound itself is summed in floats)."""
    u = Fraction(1, 2**53)
    rng = np.random.default_rng(26)
    for _ in range(300):
        d = int(rng.integers(1, 61))
        phases = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, d + 1))
        c = 10.0 ** rng.uniform(-3.0, 3.0, d + 1) * phases
        z = cmath.rect(rng.uniform(0.1, 1.2), rng.uniform(0.0, 2.0 * math.pi))
        x, y = Fraction(z.real), Fraction(z.imag)
        re = im = Fraction(0)
        for ck in c[::-1].tolist():
            re, im = re * x - im * y + Fraction(ck.real), re * y + im * x + Fraction(ck.imag)
        gamma = 4 * d * u / (1 - 4 * d * u)
        bound = gamma * Fraction(math.fsum(abs(ck) * abs(z) ** k for k, ck in enumerate(c)))
        assert abs(Fraction(_point_jet((c, np.ones(1)))(z)[0]) - re) <= bound
        value = complex(np.polyval(c[::-1], z))
        assert (Fraction(value.real) - re) ** 2 + (Fraction(value.imag) - im) ** 2 <= bound**2


def test_complex_division_errs_within_the_rounding_model():
    """Fact (D) of ``radius``' rounding model: a complex quotient, numpy's by
    a complex or a real divisor or CPython's, lies normwise within
    sqrt(2) gamma_4 relative of the exact quotient of its float operands,
    found here in rational arithmetic."""
    u = Fraction(1, 2**53)
    gamma = 4 * u / (1 - 4 * u)
    rng = np.random.default_rng(28)

    def draw(size, real=False):
        moduli = 10.0 ** rng.uniform(-3.0, 3.0, size)
        if real:
            return moduli * rng.choice([-1.0, 1.0], size)
        return moduli * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi, size))

    x, y = draw(1000), draw(1000)
    xr, t = draw(1000), draw(1000, real=True)
    xp, yp = draw(1000).tolist(), draw(1000).tolist()
    cases = [
        *zip(x.tolist(), y.tolist(), (x / y).tolist()),
        *zip(xr.tolist(), t.tolist(), (xr / t).tolist()),
        *((a, b, a / b) for a, b in zip(xp, yp)),
    ]
    for a, b, q in cases:
        b = complex(b)
        ar, ai, br, bi = (Fraction(v) for v in (a.real, a.imag, b.real, b.imag))
        den = br * br + bi * bi
        re, im = (ar * br + ai * bi) / den, (ai * br - ar * bi) / den
        err2 = (Fraction(q.real) - re) ** 2 + (Fraction(q.imag) - im) ** 2
        assert err2 <= 2 * gamma**2 * (re * re + im * im)


# ---------------------------------------------------------------------------
# Boundary scans
# ---------------------------------------------------------------------------


def test_boundary_min_of_identity_is_one():
    scan = boundary_min(Z, Criterion.RE_DERIV, 0.9)
    assert scan.min_value == 1.0
    assert scan.r == 0.9


def test_boundary_min_s2_at_one_third():
    """Re(1 + 3z) on |z| = 1/3 bottoms out at exactly 0, at theta = pi."""
    scan = boundary_min(S2, Criterion.RE_DERIV, 1.0 / 3.0)
    assert abs(scan.min_value) < 1e-10
    assert abs(scan.argmin_theta - math.pi) < 1e-6


def test_boundary_min_matches_closed_form_inside():
    # min of Re(1 + 3 r e^{i t}) over t is 1 - 3r
    for r in (0.1, 0.25, 0.3):
        scan = boundary_min(S2, Criterion.RE_DERIV, r)
        assert abs(scan.min_value - (1.0 - 3.0 * r)) < 1e-12


def test_boundary_min_theta_is_wrapped():
    for r in (0.17, 0.42):
        scan = boundary_min(koebe(5), Criterion.STARLIKENESS, r)
        assert 0.0 <= scan.argmin_theta < 2.0 * math.pi
    # a complex section whose refined minimum lies a hair below theta = 0,
    # where no mirror rule applies: the wrap gives 0.0, not 2 pi
    s = TruncatedSeries([
        0, 1.0,
        -0.3202816795518006 + 0.004382021351127992j,
        -0.11088541404053225 - 0.20697796779042438j,
        0.2302048277410414 - 0.0818987632411556j,
        -0.46005978783030055 + 0.3431464601569935j,
    ])
    for grid in (64, 2048):
        scan = boundary_min(s, Criterion.RE_DERIV, 0.5, grid)
        assert scan.argmin_theta == 0.0
        assert abs(scan.min_value - 0.567887990091352) < 1e-12


def test_boundary_min_refines_below_coarse_grid():
    """With an odd coarse grid that misses theta = pi, refinement finds it."""
    grid = 19
    scan = boundary_min(S2, Criterion.RE_DERIV, 0.3, grid_size=grid)
    thetas = 2.0 * np.pi * np.arange(grid) / grid
    coarse = float(np.min(1.0 + 0.9 * np.cos(thetas)))
    assert scan.min_value < coarse - 1e-6
    assert abs(scan.min_value - 0.1) < 1e-10


def test_boundary_min_grid_doubling_is_stable():
    cases = [
        (S2, Criterion.RE_DERIV, 0.3),
        (S2, Criterion.CONVEXITY, 0.1),
        (f0(64), Criterion.RE_DERIV, 1.0 / 3.0 - 1e-6),
        (koebe(10), Criterion.STARLIKENESS, 0.25),
    ]
    for s, criterion, r in cases:
        a = boundary_min(s, criterion, r, 2048).min_value
        b = boundary_min(s, criterion, r, 4096).min_value
        assert abs(a - b) < 1e-9


def test_boundary_min_monotone_in_radius():
    """The boundary minimum of Re s' can only fall as the circle grows."""
    radii = [0.05 * k for k in range(1, 20)]
    sections = []
    for spec in sample_specs(10, 3, rng_seed=41):
        f = synthesize_F(spec, order=12)
        sections.extend(section(f, n) for n in (2, 3, 5, 8, 12))
    assert len(sections) == 50
    for s in sections:
        vals = [boundary_min(s, Criterion.RE_DERIV, r).min_value for r in radii]
        assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def _grid_cases():
    """(series, radius, grid): landmark and sampled sections, a few grids.

    koebe(40) on grid 16 has more coefficients than grid points, so its
    powers must be folded onto the grid before the FFT.
    """
    cases = [
        (f0(2), 0.2, 64),
        (f0(7), 0.45, 37),
        (koebe(10), 0.3, 256),
        (koebe(40), 0.6, 16),
        (koebe(40), 0.5, 128),
    ]
    for spec in sample_specs(2, 3, rng_seed=5):
        f = synthesize_F(spec, order=12)
        cases.extend((section(f, n), 0.35, 64) for n in (3, 12))
    return cases


@pytest.mark.parametrize("criterion", FIELD_CRITERIA)
def test_grid_field_matches_point_values(criterion):
    """The FFT grid path and the Horner point path give the same field."""
    for s, r, grid in _grid_cases():
        vals = _field_scan(_field_parts(s, criterion), grid).field(r)
        expected = np.array(
            [
                _value(s, criterion, cmath.rect(r, 2.0 * math.pi * k / grid))
                for k in range(grid)
            ]
        )
        scale = max(1.0, float(np.max(np.abs(expected))))
        assert np.max(np.abs(vals - expected)) <= 1e-12 * scale
        scan = boundary_min(s, criterion, r, grid)
        at_witness = _value(s, criterion, cmath.rect(r, scan.argmin_theta))
        assert abs(at_witness - scan.min_value) <= 1e-12 * scale


def _difference_errors(fn, thetas, h=1e-4):
    """Jets of ``fn`` at ``thetas`` and the worst errors of their derivatives.

    The derivatives are compared with central differences of step h, and
    each error is relative to that derivative's largest modulus over
    ``thetas`` (at least 1).  The differences err by about h^2/6 times the
    third derivative and h^2/12 times the fourth from truncation, and by
    about eps |phi| / h^2 from rounding.  With h = 1e-4 that stayed below
    3e-7 of the scale on every field tested here, so a bound of 1e-5 leaves
    a 30-fold margin; a wrong chain-rule term errs by order 1.
    """
    jets = np.array([fn(t) for t in thetas])
    plus = np.array([fn(t + h)[0] for t in thetas])
    minus = np.array([fn(t - h)[0] for t in thetas])
    d1 = (plus - minus) / (2.0 * h)
    d2 = (plus - 2.0 * jets[:, 0] + minus) / h**2
    errors = [
        np.max(np.abs(d - jets[:, i])) / max(1.0, np.max(np.abs(jets[:, i])))
        for i, d in ((1, d1), (2, d2))
    ]
    return jets, max(errors)


@pytest.mark.parametrize("criterion", FIELD_CRITERIA)
def test_point_jet_derivatives_match_differences(criterion):
    """The point jet's phi', phi'' are the theta-derivatives of phi, and its
    phi is the grid field at the grid angles."""
    for s, r, grid in _grid_cases():
        parts = _field_parts(s, criterion)
        jet = _point_jet(parts)
        thetas = 2.0 * math.pi * np.arange(grid) / grid
        jets, error = _difference_errors(lambda t: jet(cmath.rect(r, t)), thetas)
        assert error <= 1e-5
        vals = _field_scan(parts, grid).field(r)
        scale = max(1.0, float(np.max(np.abs(vals))))
        assert np.max(np.abs(jets[:, 0] - vals)) <= 1e-12 * scale


def _separate_field(parts, r, grid, z):
    """Reference for :func:`_field_scan`: one inverse FFT and one Horner pass
    per polynomial, each polynomial on its own, in the same arithmetic.  A
    denominator of constant 1 is left out: the numerator's grid values and
    jet alone, so no division by 1 takes part."""

    def circle(c):
        scaled = c * r ** np.arange(c.size)
        if scaled.size > grid:
            scaled = np.pad(scaled, (0, -scaled.size % grid)).reshape(-1, grid).sum(axis=0)
        return np.fft.ifft(scaled, n=grid, norm="forward")

    def horner(c):
        p = d1 = d2 = 0j
        for a in c[::-1].tolist():
            d2 = d2 * z + d1
            d1 = d1 * z + p
            p = p * z + a
        return p, d1, 2.0 * d2

    num, den = parts
    if np.array_equal(den, [1.0]):
        return circle(num).real, radius_module._re_theta_jet(z, *horner(num))
    (n, n1, n2), (d, d1, d2) = horner(num), horner(den)
    q = n / d
    q1 = (n1 - q * d1) / d
    q2 = (n2 - 2.0 * q1 * d1 - q * d2) / d
    return (circle(num) / circle(den)).real, radius_module._re_theta_jet(z, q, q1, q2)


def test_field_scan_repeats_the_separate_polynomial_arithmetic():
    """The stacked FFT and the fused Horner loop give, bit for bit, the grid
    values and jets of one FFT and one Horner pass per polynomial, for the
    criterion fields and for verify's fields of unequal lengths.  The fields
    with denominator 1 (Re s' and min_g's g) give exactly the numerator's
    values and jet: the row of 1 transforms to 1 and dividing by 1 is exact."""
    cases = [
        (_field_parts(s, criterion), r, grid)
        for s, r, grid in _grid_cases()
        for criterion in FIELD_CRITERIA
    ]
    cube = (np.ones(1), np.array([1.0, -3.0, 3.0, -1.0]))
    cases += [((np.array([1.0, 1.0, 0.5]), np.ones(1)), 1.0, 2048), (cube, 1.0 / 3.0, 2048)]
    cases += [(cube, 0.6, 16)]
    unit = [parts for parts, _r, _grid in cases if np.array_equal(parts[1], [1.0])]
    assert len(unit) == len(_grid_cases()) + 1
    for parts, r, grid in cases:
        scan = _field_scan(parts, grid)
        jet = _point_jet(parts)
        for theta in (0.0, 1.0, 2.5, math.pi):
            z = cmath.rect(r, theta)
            values, expected = _separate_field(parts, r, grid, z)
            assert jet(z) == expected
        assert np.array_equal(scan.field(r), values)


def test_verify_jets_match_differences():
    """The jets of the fields behind min_g and cube_min_by_boundary, checked
    the same way."""
    grid = 256
    thetas = 2.0 * math.pi * np.arange(grid) / grid
    g_jet = _point_jet((np.array([1.0, 1.0, 0.5]), np.ones(1)))
    jets, error = _difference_errors(lambda t: g_jet(cmath.rect(1.0, t)), thetas)
    assert error <= 1e-5
    g = 1.0 + np.cos(thetas) + 0.5 * np.cos(2.0 * thetas)
    assert np.max(np.abs(jets[:, 0] - g)) <= 1e-14
    cube_jet = _point_jet((np.ones(1), np.array([1.0, -3.0, 3.0, -1.0])))
    for r in (0.1, 1.0 / 3.0, 0.6):
        jets, error = _difference_errors(lambda t: cube_jet(cmath.rect(r, t)), thetas)
        assert error <= 1e-5
        kernel = ((1.0 - r * np.exp(1j * thetas)) ** -3).real
        assert np.max(np.abs(jets[:, 0] - kernel)) <= 1e-12 * np.max(np.abs(kernel))


def _golden_sections():
    """Sections n = 2..30 of two sampled members, and koebe(5..40)."""
    sections = []
    for spec in sample_specs(2, 3, rng_seed=5):
        f = synthesize_F(spec, order=30)
        sections.extend(section(f, n) for n in range(2, 31))
    sections.extend(koebe(n) for n in range(5, 41))
    return sections


def test_boundary_min_no_worse_than_golden_refinement():
    """Newton refinement ends at least as low as golden-section search over
    the same two grid cells, up to rounding."""
    for s in _golden_sections():
        for criterion in FIELD_CRITERIA:
            parts = _field_parts(s, criterion)
            for r in (0.1, 0.3, 1.0 / 3.0 - 1e-6, 0.45):
                for grid in (64, 512, 2048):
                    vals = _field_scan(parts, grid).field(r)
                    k = int(np.argmin(vals))
                    step = 2.0 * math.pi / grid
                    _x, golden = golden_section_min(
                        lambda t: _value(s, criterion, cmath.rect(r, t)),
                        k * step - step,
                        k * step + step,
                    )
                    golden = min(golden, float(vals[k]))
                    value = boundary_min(s, criterion, r, grid).min_value
                    assert value <= golden + 1e-10 * max(1.0, abs(golden))


@pytest.fixture
def jet_evaluations(monkeypatch):
    """Jet evaluations of each field that a scan prepares, one entry per field."""
    evaluations = []
    build = radius_module._point_jet

    def counted_build(parts):
        jet = build(parts)
        evaluations.append(0)

        def counted(z):
            evaluations[-1] += 1
            return jet(z)

        return counted

    monkeypatch.setattr(radius_module, "_point_jet", counted_build)
    return evaluations


def test_newton_refinement_takes_few_evaluations(jet_evaluations):
    """Starlike scans of f0(2..30) at r = 0.3 average at most 6 jet evaluations."""
    for n in range(2, 31):
        boundary_min(f0(n), Criterion.STARLIKENESS, 0.3, 512)
    assert len(jet_evaluations) == 29
    assert sum(jet_evaluations) <= 6 * len(jet_evaluations)


def test_newton_starts_at_the_grid_parabola_vertex(jet_evaluations):
    """Scans of the 33 complex sampled sections, under every field criterion
    at r = 0.1, 0.3 and 0.45 on grid 512, average at most 2.8 jet
    evaluations: Newton starts at the vertex of the parabola through the
    grid argmin and its neighbours (about 2.4; starting at the grid argmin
    itself takes about 3.3)."""
    for s in _sampled_sections():
        for criterion in FIELD_CRITERIA:
            for r in (0.1, 0.3, 0.45):
                boundary_min(s, criterion, r, 512)
    assert len(jet_evaluations) == 33 * 3 * 3
    assert sum(jet_evaluations) <= 2.8 * len(jet_evaluations)


def test_boundary_min_domain_checks():
    with pytest.raises(ValidationError):
        boundary_min(S2, Criterion.RE_DERIV, 0.0)
    with pytest.raises(ValidationError):
        boundary_min(S2, Criterion.RE_DERIV, 1.0)
    with pytest.raises(ValidationError):
        boundary_min(S2, Criterion.RE_DERIV, 0.5, grid_size=8)


def test_boundary_scan_is_frozen():
    scan = boundary_min(S2, Criterion.RE_DERIV, 0.2)
    assert isinstance(scan, BoundaryScan)
    with pytest.raises(AttributeError):
        scan.min_value = 0.0


# ---------------------------------------------------------------------------
# Zero counting
# ---------------------------------------------------------------------------


def test_count_zeros_linear():
    s = TruncatedSeries([1, 3])  # zero at -1/3
    assert count_zeros(s, 0.5) == 1
    assert count_zeros(s, 0.25) == 0


def test_count_zeros_at_origin():
    assert count_zeros(Z, 0.7) == 1
    # multiple zeros at the origin are counted from the coefficients
    assert count_zeros(TruncatedSeries([0, 0, 1]), 0.1) == 2
    assert count_zeros(TruncatedSeries([0, 0, 0, 1, 1]), 0.9) == 3


def test_count_zeros_constant_series():
    assert count_zeros(TruncatedSeries([2.0]), 0.5) == 0
    assert count_zeros(TruncatedSeries([1e-12]), 0.5) == 0
    with pytest.raises(ZeroOnCircleError):
        count_zeros(TruncatedSeries([0.0]), 0.5)


def test_count_zeros_zero_on_circle():
    # the disc around the zero -1/3 of 1 + 3z contains a point of the circle
    with pytest.raises(ZeroOnCircleError):
        count_zeros(TruncatedSeries([1, 3]), 1.0 / 3.0)


def test_count_zeros_zero_near_circle():
    # a zero 1.7e-6 inside the circle: the gap is far wider than its disc
    assert count_zeros(TruncatedSeries([1, 3]), 0.333335) == 1


def test_count_zeros_double_root():
    s = TruncatedSeries([1, 4, 4])  # (1 + 2z)^2
    assert count_zeros(s, 0.7) == 2
    assert count_zeros(s, 0.3) == 0


def test_count_zeros_domain():
    with pytest.raises(ValidationError):
        count_zeros(S2, 0.0)
    with pytest.raises(ValidationError):
        count_zeros(S2, 1.0)


def test_count_zeros_against_root_finder():
    """200 random low-degree polynomials, classified independently by numpy.

    The seed is fixed so that no root comes within 1e-6 of the test circle
    (the closest approach across the sample is ~2e-3); any such draw would
    be excluded from the comparison, as a root disc may meet the circle.
    """
    rng = np.random.default_rng(1)
    checked = 0
    for _ in range(200):
        deg = int(rng.integers(1, 6))
        c = rng.uniform(-1, 1, size=deg + 1) + 1j * rng.uniform(-1, 1, size=deg + 1)
        while abs(c[-1]) < 1e-3:
            c = rng.uniform(-1, 1, size=deg + 1) + 1j * rng.uniform(-1, 1, size=deg + 1)
        r = float(rng.uniform(0.15, 0.9))
        roots = np.roots(c[::-1])
        if roots.size and np.min(np.abs(np.abs(roots) - r)) < 1e-6:
            continue
        expected = int(np.sum(np.abs(roots) < r)) if roots.size else 0
        assert count_zeros(TruncatedSeries(c), r) == expected
        checked += 1
    assert checked == 200


def test_count_zeros_high_degree_koebe():
    """Zeros of the Koebe sections s_n/z, n = 5..40, against the root finder.

    By Gauss-Lucas the zeros lie inside the unit disc; the radii sit halfway
    between consecutive distinct root moduli.
    """
    checked = 0
    for n in range(5, 41):
        g = TruncatedSeries(koebe(n).coeffs[1:])
        mods = np.sort(np.abs(np.roots(g.coeffs[::-1])))
        radii = [0.5 * mods[0]] + [
            0.5 * (a + b) for a, b in zip(mods, mods[1:]) if b - a > 2e-6
        ]
        for r in radii:
            if np.min(np.abs(mods - r)) < 1e-6:
                continue
            expected = int(np.sum(mods < r))
            assert count_zeros(g, r) == expected
            checked += 1
    assert checked > 300
    # 20 zeros on |z| = 0.3
    c = np.zeros(21)
    c[0], c[20] = 1.0, 0.3**-20
    assert count_zeros(TruncatedSeries(c), 0.6) == 20


# ---------------------------------------------------------------------------
# Radius solves
# ---------------------------------------------------------------------------


def test_radius_s2_re_deriv():
    tol = 1e-9  # the default
    res = criterion_radius(S2, Criterion.RE_DERIV)
    assert abs(res.radius - 1.0 / 3.0) <= 1e-6
    assert not res.clamped
    # bisection over [0, cap] took ceil(log2(cap / tol)) + 1 probes
    assert 1 <= res.iterations <= math.ceil(math.log2(RADIUS_CAP / tol)) + 3
    assert res.witness is not None and res.witness.r == res.radius
    assert res.witness.min_value > 0.0


def test_radius_s2_convexity():
    """1/6 is where the value field first fails.  It turns positive again
    beyond the guard zero at 1/3, which bounds the search bracket."""
    res = criterion_radius(S2, Criterion.CONVEXITY)
    assert abs(res.radius - 1.0 / 6.0) <= 1e-6
    assert not res.clamped


def test_radius_s2_starlike_and_univalence():
    star = criterion_radius(S2, Criterion.STARLIKENESS)
    loc = criterion_radius(S2, Criterion.LOCAL_UNIVALENCE)
    assert abs(star.radius - 1.0 / 3.0) <= 1e-6
    # the radius is the certified guard bound of s' = 1 + 3z, which sits
    # within rounding below its zero at -1/3
    assert 1.0 / 3.0 - 1e-9 <= loc.radius < 1.0 / 3.0


def test_radius_s3_re_deriv_closed_form():
    # Re s3'(r e^{it}) = 1 + 3 r cos t + 6 r^2 cos 2t first touches zero
    # when the quadratic in cos t acquires a root, at r = sqrt(13/96).
    expected = math.sqrt(13.0 / 96.0)
    assert abs(expected - 0.3679900360969936) < 1e-15
    res = criterion_radius(S3, Criterion.RE_DERIV)
    assert abs(res.radius - expected) <= 1e-6


def test_radius_identity_clamps():
    # clamped is read off the radius: 1.0 is reported only for a clamp
    assert not RadiusResult(0.5, None, 0).clamped
    assert not RadiusResult(RADIUS_CAP, None, 0).clamped
    assert RadiusResult(1.0, None, 0).clamped
    # z padded to order 3 has guard 1 + 0z + 0z^2, a constant once trimmed
    for s in (Z, TruncatedSeries([0, 1, 0, 0])):
        for criterion in Criterion:
            res = criterion_radius(s, criterion)
            assert res.radius == 1.0
            assert res.clamped
            if criterion is Criterion.LOCAL_UNIVALENCE:
                assert res.witness is None and res.iterations == 0
            else:
                assert res.witness is not None and res.witness.r == RADIUS_CAP


def _sampled_sections():
    sections = []
    for spec in sample_specs(3, 3, rng_seed=23):
        f = synthesize_F(spec, order=12)
        sections.extend(section(f, n) for n in range(2, 13))
    return sections


def test_radius_errs_small_on_sampled_sections():
    """The certificate behind every reported radius, on 33 sampled sections.

    The field is positive on the circle at the radius, and at most tol
    above it either fails or lies on the guard's first zero; the guard disc
    at the radius is zero-free.  The implications between criteria hold to
    within tol: convex <= starlike and Re-derivative <= local univalence.
    """
    tol = 1e-9
    for s in _sampled_sections():
        radii = {}
        for criterion in list(Criterion):
            res = criterion_radius(s, criterion, tol)
            radii[criterion] = res.radius
            if criterion is Criterion.LOCAL_UNIVALENCE:
                continue
            assert 0.0 < res.radius < 1.0 and not res.clamped
            assert boundary_min(s, criterion, res.radius).min_value > 0.0
            den = _field_parts(s, criterion)[1]
            rho = float(np.min(np.abs(np.roots(den[::-1])), initial=math.inf))
            above = res.radius + tol
            assert above >= rho or boundary_min(s, criterion, above).min_value <= 0.0
            assert count_zeros(TruncatedSeries(den), res.radius) == 0
            assert res.radius < rho
        assert radii[Criterion.CONVEXITY] <= radii[Criterion.STARLIKENESS] + tol
        assert radii[Criterion.RE_DERIV] <= radii[Criterion.LOCAL_UNIVALENCE] + tol


def test_local_univalence_radius_is_the_guard_bound(monkeypatch):
    """On the sampled sections, f0(2..30) and koebe(5..40), the radius is the
    guard bound of s' bit for bit, found without a boundary scan."""
    scans = []
    monkeypatch.setattr(radius_module, "_field_scan", lambda *a, **k: scans.append(a))
    sections = _sampled_sections() + [f0(n) for n in range(2, 31)]
    sections += [koebe(n) for n in range(5, 41)]
    for s in sections:
        res = criterion_radius(s, Criterion.LOCAL_UNIVALENCE)
        assert res.radius == _guard_bound(s.coeffs[1:] * np.arange(1, s.coeffs.size))
        assert not res.clamped
        assert res.iterations == 0 and res.witness is None
    assert scans == []


def test_radius_probes_stay_below_the_guard_bound(monkeypatch):
    """Every circle a field criterion's solve scans lies strictly inside the
    guard bound that the solve used and at most at the cap, so no probe
    meets a pole.  That bound is the root-free one, or the larger of it and
    the discs' when the search reached it."""
    probed = []
    discs = []
    build = radius_module._field_scan
    guard_bound = radius_module._guard_bound

    def recording_bound(coeffs):
        discs.append(guard_bound(coeffs))
        return discs[-1]

    def recording_build(parts, grid):
        scan = build(parts, grid)

        def recording(r):
            probed.append(r)
            return scan(r)

        return recording

    monkeypatch.setattr(radius_module, "_field_scan", recording_build)
    monkeypatch.setattr(radius_module, "_guard_bound", recording_bound)
    for s in _sampled_sections() + [f0(n) for n in range(2, 31)]:
        for criterion in FIELD_CRITERIA:
            probed.clear()
            discs.clear()
            criterion_radius(s, criterion)
            den = _field_parts(s, criterion)[1]
            rho = max([_graeffe_bound(den)] + discs)
            assert probed
            assert all(r < rho and r <= RADIUS_CAP for r in probed)


@pytest.mark.parametrize("grid", [64, 512, 2048])
def test_radius_witness_is_the_boundary_scan_at_its_radius(grid):
    """A solve's probes and the public scan are one code path: the witness
    equals boundary_min at the witness radius, field for field."""
    sections = _sampled_sections() + [f0(n) for n in range(2, 31)]
    sections += [koebe(n) for n in range(5, 41)]
    for s in sections:
        for criterion in FIELD_CRITERIA:
            witness = criterion_radius(s, criterion, 1e-9, grid).witness
            assert witness == boundary_min(s, criterion, witness.r, grid)


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="a negative arc narrower than a grid cell, away from the grid "
    "argmin, goes unseen and the radius errs large; see the FOUND line on "
    "radius._circle_min (now radius._field_scan) in CHANGES.md",
)
@pytest.mark.parametrize("index, n", [(38, 29), (36, 16)])
def test_starlike_radius_errs_small_when_the_grid_misses_a_narrow_dip(index, n):
    """Re(z s'/s), evaluated directly on 2^16 angles, is positive at the radius.

    The two sections come from the seed-1 conjecture2 sample at grid 512.
    Their starlikeness fields dip below 0 at the reported radius (about
    0.8321 and 0.7709) on arcs of 0.010-0.011 rad, narrower than the
    0.0123-rad grid cell and away from the grid argmin: the scan misses them.
    """
    spec = sample_specs(50, 3, rng_seed=1)[index]
    s = section(synthesize_F(spec, order=30), n)
    res = criterion_radius(s, Criterion.STARLIKENESS, 1e-7, 512)
    c = s.coeffs
    z = res.radius * np.exp(2j * np.pi * np.arange(1 << 16) / (1 << 16))
    ds = np.polyval((c[1:] * np.arange(1, c.size))[::-1], z)
    field = (z * ds / np.polyval(c[::-1], z)).real
    assert np.min(field) > 0.0


@pytest.fixture
def count_zeros_radii(monkeypatch):
    """Radii of every count_zeros call that criterion_radius makes."""
    radii = []
    original = radius_module.count_zeros

    def counting(s, r, *args, **kwargs):
        radii.append(r)
        return original(s, r, *args, **kwargs)

    monkeypatch.setattr(radius_module, "count_zeros", counting)
    return radii


def test_radius_solve_makes_no_zero_count(count_zeros_radii):
    """The certified guard bound leaves no zero count in any solve."""
    for s in [f0(n) for n in range(2, 31)] + [koebe(n) for n in range(5, 41)]:
        for criterion in Criterion:
            criterion_radius(s, criterion)
    assert count_zeros_radii == []


def test_radius_guard_bound_path_survives_misplaced_rho(monkeypatch, count_zeros_radii):
    """A root finder that puts the zero of s' at -0.9 instead of -1/3 does
    not widen the bracket: the Gerschgorin correction in the guard bound
    moves the approximation back onto the zero.  Convexity, bracketed by
    the root-free bound, still lands on 1/6, and local univalence, which
    only the discs bind, within tol below 1/3."""
    monkeypatch.setattr(np, "roots", lambda c: np.array([-0.9 + 0j]))
    tol = 1e-9  # the default
    res = criterion_radius(S2, Criterion.CONVEXITY)
    assert 1.0 / 6.0 - tol <= res.radius <= 1.0 / 6.0
    assert res.witness is not None and res.witness.r == res.radius
    assert res.witness.min_value > 0.0
    loc = criterion_radius(S2, Criterion.LOCAL_UNIVALENCE)
    assert 1.0 / 3.0 - tol <= loc.radius < 1.0 / 3.0
    assert count_zeros_radii == []


def test_radius_coincident_root_approximations_give_zero(monkeypatch):
    """Coincident approximations certify no disc, so the discs' bound is 0.
    A solve that also has a root-free bound of 0 has the empty bracket:
    radius 0 without a probe.  The discs alone do not zero a convex radius
    that the root-free bound brackets."""
    convex = criterion_radius(S3, Criterion.CONVEXITY).radius
    monkeypatch.setattr(np, "roots", lambda c: np.full(c.size - 1, -0.5 + 0j))
    assert _guard_bound(_field_parts(S3, Criterion.CONVEXITY)[1]) == 0.0
    assert criterion_radius(S3, Criterion.CONVEXITY).radius == convex > 0.2
    monkeypatch.setattr(radius_module, "_graeffe_bound", lambda coeffs: 0.0)
    monkeypatch.setattr(radius_module, "_guard_bound", lambda coeffs: 0.0)
    res = criterion_radius(S3, Criterion.CONVEXITY)
    assert res.radius == 0.0 and res.witness is None and not res.clamped
    assert res.iterations == 0


def test_radius_falls_back_to_the_discs_when_the_search_reaches_the_cheap_bound(
    monkeypatch,
):
    """s = z (1 + (z/0.9)^8): the guard s/z has its 8 zeros on |z| = 0.9 with
    equal eighth powers, where the root-free bound is at its loosest, 0.667,
    below the starlike radius 0.9 * 9^(-1/8) = 0.684; likewise 0.506 for the
    guard s' against the convex radius 0.9 / sqrt(3) = 0.520.  The search
    reaches the cheap bound, one np.roots call lifts it to the discs', and a
    second search finds each radius within tol of the closed form and of
    the radius found when the discs alone bracket the search (the values
    listed, 3.2e-11 and 2.5e-11 below the closed forms)."""
    tol = 1e-9  # the default
    roots = []
    original = np.roots

    def counting(c):
        roots.append(c)
        return original(c)

    monkeypatch.setattr(np, "roots", counting)
    c = np.zeros(10)
    c[1], c[9] = 1.0, 0.9**-8
    s = TruncatedSeries(c)
    for criterion, expected, discs_only in (
        (Criterion.STARLIKENESS, 0.9 * 9.0**-0.125, 0.6838521170539431),
        (Criterion.CONVEXITY, 0.9 / math.sqrt(3.0), 0.5196152422459761),
    ):
        guard = _field_parts(s, criterion)[1]
        assert _graeffe_bound(guard) < expected < _guard_bound(guard)
        roots.clear()
        res = criterion_radius(s, criterion)
        assert len(roots) == 1
        assert expected - tol <= res.radius <= expected + 1e-15
        assert abs(res.radius - discs_only) <= tol
        assert res.witness is not None and res.witness.min_value > 0.0


def test_radius_solves_make_no_root_finder_call_on_known_sections(monkeypatch):
    """The root-free bound brackets every field solve on f0(2..30),
    koebe(5..40) and the sampled sections without np.roots."""
    monkeypatch.setattr(np, "roots", lambda c: pytest.fail("np.roots was called"))
    sections = _sampled_sections() + [f0(n) for n in range(2, 31)]
    for s in sections + [koebe(n) for n in range(5, 41)]:
        for criterion in FIELD_CRITERIA:
            criterion_radius(s, criterion)


def test_guard_bound_ignores_zero_high_coefficients():
    """Zero coefficients of the highest powers change no bit of the root
    discs; an all-zero or constant guard has no disc and bound inf."""
    rng = np.random.default_rng(3)
    for size in (2, 5, 30):
        coeffs = rng.normal(size=size) + 1j * rng.normal(size=size)
        for pad in (1, 4):
            padded = np.concatenate([coeffs, np.zeros(pad)])
            for got, want in zip(_root_discs(padded), _root_discs(coeffs)):
                assert np.array_equal(got, want)
            assert _guard_bound(padded) == _guard_bound(coeffs)
            assert _graeffe_bound(padded) == _graeffe_bound(coeffs)
    for coeffs in (np.zeros(4, dtype=complex), np.array([2.0, 0.0, 0.0]), np.zeros(0)):
        assert all(d.size == 0 for d in _root_discs(coeffs))
        assert _guard_bound(coeffs) == math.inf
        assert _graeffe_bound(coeffs) == math.inf


def test_graeffe_bound_gives_zero_where_it_certifies_nothing():
    """A zero at the origin, and moduli that three squarings could underflow
    or overflow, give the bound 0.0."""
    assert _graeffe_bound(np.array([0.0, 1.0, 2.0])) == 0.0
    assert _graeffe_bound(np.array([1.0, 2.0**-33])) == 0.0
    assert _graeffe_bound(np.array([1.0, 0.0, 2.0**33])) == 0.0
    assert 0.0 < _graeffe_bound(np.array([1.0, 0.0, 2.0**32])) <= 2.0**-16
    assert 0.0 < _graeffe_bound(np.array([2.0**-32] + [2.0**32] * 40)) < 2.0**-64


def _dyadic_guard(keys, lead):
    """Zeros (kr + i ki) / 32 and the ascending coefficients of lead * prod(z - zeta).

    Every product and sum in ``np.poly`` is exact for these zeros, so the
    coefficients are the polynomial's, not a rounding of them.
    """
    zeros = np.array([complex(kr, ki) / 32.0 for kr, ki in keys])
    return zeros, lead * np.poly(zeros)[::-1]


if HAS_HYPOTHESIS:
    _ZERO_SETS = st.lists(
        st.tuples(st.integers(-48, 48), st.integers(-48, 48)).filter(
            lambda k: k[0] ** 2 + k[1] ** 2 >= 64  # |zeta| >= 1/4
        ),
        min_size=1,
        max_size=6,
        unique=True,
    )
    _LEADS = st.sampled_from([1.0, 3.0, 0.125])

    @given(_ZERO_SETS, _LEADS)
    @settings(max_examples=300, deadline=None)
    def test_guard_bound_is_certified_and_tight(keys, lead):
        """zeta_min (1 - 1e-12) <= bound <= zeta_min for well-conditioned
        zeros.  Clustered zeros widen the discs with their condition number
        kappa = sum |c_k| |zeta|^k / |p'(zeta)|, so the slack is measured
        against max(zeta_min, kappa)."""
        zeros, coeffs = _dyadic_guard(keys, lead)
        zeta_min = float(np.min(np.abs(zeros)))
        desc = coeffs[::-1]
        kappa = max(
            np.polyval(np.abs(desc), abs(z)) / abs(np.polyval(np.polyder(desc), z))
            for z in zeros
        )
        low = _guard_bound(coeffs)
        assert zeta_min - 1e-12 * max(zeta_min, kappa) <= low <= zeta_min

    @given(_ZERO_SETS, _LEADS)
    @example([(8, 0), (0, 8), (-8, 0), (0, -8)], 3.0)
    @example([(48, 5), (-5, 48), (-48, -5), (5, -48)], 0.125)
    @settings(max_examples=300, deadline=None)
    def test_graeffe_bound_is_certified_within_the_cauchy_ratio(keys, lead):
        """zeta_min (2^(1/d) - 1)^(1/8) (1 - 1e-9) <= bound <= zeta_min.
        The examples are Cauchy's worst case: zeros whose eighth powers
        coincide, so the lower end is attained up to rounding."""
        zeros, coeffs = _dyadic_guard(keys, lead)
        zeta_min = float(np.min(np.abs(zeros)))
        ratio = (2.0 ** (1.0 / zeros.size) - 1.0) ** 0.125
        low = _graeffe_bound(coeffs)
        assert zeta_min * ratio * (1.0 - 1e-9) <= low <= zeta_min

    @given(_ZERO_SETS, _LEADS, st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_guard_bound_errs_small_with_misplaced_roots(keys, lead, seed):
        """Approximations off by up to 1e-2 relative never lift the bound
        above the smallest zero modulus."""
        zeros, coeffs = _dyadic_guard(keys, lead)
        rng = np.random.default_rng(seed)
        shift = 1e-2 * rng.uniform(size=zeros.size) * np.exp(
            2j * np.pi * rng.uniform(size=zeros.size)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "roots", lambda c: zeros * (1.0 + shift))
            low = _guard_bound(coeffs)
        assert low <= np.min(np.abs(zeros))

    @given(
        _ZERO_SETS,
        _LEADS,
        st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_count_zeros_is_exact_on_dyadic_zeros(keys, lead, r, seed):
        """Against the exact count of |zeta| < r, on a circle at least 1e-6
        from every zero: the count from the root finder's approximations is
        exact, and from approximations off by up to 1e-2 relative it is
        exact or refused, never wrong."""
        zeros, coeffs = _dyadic_guard(keys, lead)
        assume(np.min(np.abs(np.abs(zeros) - r)) >= 1e-6)
        s = TruncatedSeries(coeffs)
        expected = int(np.sum(np.abs(zeros) < r))
        assert count_zeros(s, r) == expected
        rng = np.random.default_rng(seed)
        shift = 1e-2 * rng.uniform(size=zeros.size) * np.exp(
            2j * np.pi * rng.uniform(size=zeros.size)
        )
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "roots", lambda c: zeros * (1.0 + shift))
            try:
                assert count_zeros(s, r) == expected
            except ZeroOnCircleError:
                pass


def test_radius_result_err_is_small_side():
    """Certificate: the criterion verifiably holds at the reported radius
    and verifiably fails at most tol above it."""
    tol = 1e-9
    for s in (S2, S3):
        res = criterion_radius(s, Criterion.RE_DERIV, tol=tol)
        at = boundary_min(s, Criterion.RE_DERIV, res.radius)
        above = boundary_min(s, Criterion.RE_DERIV, res.radius + tol)
        assert at.min_value > 0.0
        assert above.min_value <= 1e-12


def test_radius_respects_coarse_tolerance():
    res = criterion_radius(S2, Criterion.RE_DERIV, tol=1e-3)
    assert abs(res.radius - 1.0 / 3.0) <= 1e-3
    assert res.iterations < 25


def test_radius_rotation_invariance():
    cases = [
        (f0(5), Criterion.RE_DERIV),
        (koebe(4), Criterion.STARLIKENESS),
        (f0(4), Criterion.CONVEXITY),
    ]
    tol = 1e-9
    for s, criterion in cases:
        base = criterion_radius(s, criterion, tol).radius
        for mu in (1j, np.exp(0.9j)):
            rot = criterion_radius(rotation(s, mu), criterion, tol).radius
            assert abs(rot - base) <= 2.0 * tol


def test_radius_validation():
    with pytest.raises(ValidationError):
        criterion_radius(TruncatedSeries([0.5, 1.0]), Criterion.RE_DERIV)
    with pytest.raises(ValidationError):
        criterion_radius(TruncatedSeries([0, 2.0]), Criterion.RE_DERIV)
    for tol in (1e-13, math.nan, math.inf):
        with pytest.raises(ValidationError):
            criterion_radius(S2, Criterion.RE_DERIV, tol=tol)
    # local univalence and a zero guard bound scan no circle, so the grid is
    # checked on entry, for every criterion
    for criterion in Criterion:
        with pytest.raises(ValidationError, match="grid_size must be at least 16"):
            criterion_radius(S2, criterion, grid_size=3)


def test_unknown_criterion_is_a_validation_error_naming_the_values():
    for call in (
        lambda: boundary_min(S2, "bogus", 0.3),
        lambda: criterion_radius(S2, "bogus"),
        lambda: Criterion("bogus"),
    ):
        with pytest.raises(ValidationError, match="re-deriv, convex, starlike, local-univalence"):
            call()


def test_tolerance_of_the_wrong_kind_is_a_validation_error():
    for tol in (None, "1e-9", True):
        with pytest.raises(ValidationError):
            criterion_radius(S2, Criterion.RE_DERIV, tol=tol)


def test_radius_accepts_string_criterion():
    res = criterion_radius(S2, "re-deriv")
    assert abs(res.radius - 1.0 / 3.0) <= 1e-6


def test_radius_cap_constant():
    assert 0.999 < RADIUS_CAP < 1.0
