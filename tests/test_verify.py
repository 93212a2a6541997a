"""Unit tests for the verification items, suites, and scans."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

import secradius.radius as radius_module
import secradius.verify as verify
from secradius.bounds import k_tail
from secradius.exceptions import CrossCheckError, ValidationError
from secradius.radius import Criterion, boundary_min, criterion_radius
from secradius.series import TruncatedSeries, section
from secradius.verify import (
    CONJECTURE2_THRESHOLD,
    THEOREM1_RADIUS,
    VerificationItem,
    VerificationReport,
    classical_radius_scan,
    conjecture2_scan,
    cube_min_by_boundary,
    cube_min_by_cubic,
    figure1_curves,
    full_suite,
    min_T,
    min_g,
    min_re_cube_kernel,
    n4_margin,
    sharpness_witnesses,
    theorem1_suite,
)
from secradius.zoo import (
    GENERATOR_NAME,
    HerglotzSpec,
    f0,
    koebe,
    rotation,
    sample_specs,
    spec_from_seed,
    synthesize_F,
)

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st

    HAS_HYPOTHESIS = True
except ImportError:  # pragma: no cover - optional dependency
    HAS_HYPOTHESIS = False


# ---------------------------------------------------------------------------
# Items and reports
# ---------------------------------------------------------------------------


def test_item_passes_informational():
    item = VerificationItem("x", 3.14)
    assert item.expected is None
    assert item.passed
    assert item.witness is None


def test_item_tolerance_is_inclusive():
    assert VerificationItem("x", 1.5, expected=1.0, tolerance=0.5).passed
    assert not VerificationItem("x", 1.5000001, expected=1.0, tolerance=0.5).passed


def test_item_coerces_its_numbers():
    item = VerificationItem("x", np.float64(2.0), 2, np.float64(0.0), (np.float64(0.5), 1))
    assert item.witness == (0.5, 1.0)
    assert all(type(v) is float for v in (item.computed, item.tolerance, *item.witness))


def test_item_verdict_is_derived_not_stored():
    """A hand-built item cannot claim a pass its numbers do not give."""
    item = VerificationItem("x", 0.0, 1.0, 0.0)
    assert not item.passed
    assert not VerificationReport((item,), 0, {}, "x").passed
    assert "passed" not in {f.name for f in dataclasses.fields(VerificationItem)}
    with pytest.raises(TypeError):
        VerificationItem("x", 0.0, 1.0, 0.0, True, None)


def test_report_rejects_empty():
    with pytest.raises(ValidationError):
        VerificationReport((), seed=0, parameters={}, generator_name="x")


def test_report_passed_is_conjunction():
    good = VerificationItem("a", 1.0, expected=1.0, tolerance=0.0)
    bad = VerificationItem("b", 1.0, expected=0.0, tolerance=0.1)
    assert VerificationReport((good,), 0, {}, "x").passed
    assert not VerificationReport((good, bad), 0, {}, "x").passed


# ---------------------------------------------------------------------------
# Scalar minima
# ---------------------------------------------------------------------------


def test_g_endpoint_values():
    g = lambda t: 1.0 + math.cos(t) + 0.5 * math.cos(2.0 * t)
    assert abs(g(0.0) - 2.5) < 1e-15
    assert abs(g(math.pi) - 0.5) < 1e-15


def test_min_g_item():
    item = min_g()
    assert item.name == "min_g"
    assert item.expected == 0.25
    assert abs(item.computed - 0.25) < 1e-10
    assert item.passed
    r, theta = item.witness
    assert r == 1.0
    assert min(
        abs(theta - 2.0 * math.pi / 3.0), abs(theta - 4.0 * math.pi / 3.0)
    ) < 1e-5


def test_min_T_item_and_separability():
    item = min_T()
    assert abs(item.computed - 1.0 / 12.0) < 1e-10
    assert item.passed
    # T(theta, phi) = g(theta) + cos(phi)/6 splits, so the minima differ by 1/6
    assert abs(item.computed - (min_g().computed - 1.0 / 6.0)) < 1e-12


def test_T_origin_value():
    # T(0, 0) = g(0) + 1/6 = 2/3 + 2 = 8/3
    assert abs((2.5 + 1.0 / 6.0) - 8.0 / 3.0) < 1e-15


# ---------------------------------------------------------------------------
# Cube-kernel minimum, two ways
# ---------------------------------------------------------------------------


def test_cubic_path_value():
    assert abs(cube_min_by_cubic() - 27.0 / 64.0) < 1e-15


def test_boundary_path_agrees_at_one_third():
    value, theta = cube_min_by_boundary()
    assert abs(value - 27.0 / 64.0) < 1e-9
    # the minimum is quartically flat in theta at r = 1/3, so the angle is
    # only determined to roughly (1e-16)^(1/4) ~ 1e-4
    assert abs(theta - math.pi) < 1e-2


def test_boundary_path_off_third():
    """The field that cube_min_by_boundary scans, at other radii."""
    scan = verify._field_scan((np.ones(1), np.array([1.0, -3.0, 3.0, -1.0])), verify._GRID)
    value, _ = scan(0.5)
    assert abs(value) < 1e-6  # the image curve touches the imaginary axis
    value_small, _ = scan(1e-6)
    assert abs(value_small - 1.0) < 1e-5


def test_min_re_cube_kernel_item_names_and_expectation():
    at_third = min_re_cube_kernel()
    assert at_third.name == "min_re_cube_kernel_1/3"
    assert at_third.expected == 27.0 / 64.0
    assert at_third.passed
    assert at_third.witness[0] == 1.0 / 3.0


def test_min_re_cube_kernel_cross_check_guard(monkeypatch):
    monkeypatch.setattr(verify, "cube_min_by_cubic", lambda: 0.5)
    with pytest.raises(CrossCheckError):
        min_re_cube_kernel()


def test_cube_min_domain():
    """The cube-kernel constant is stated on |z| = 1/3 alone: no radius is taken."""
    for fn in (cube_min_by_boundary, min_re_cube_kernel):
        with pytest.raises(TypeError):
            fn(0.5)


# ---------------------------------------------------------------------------
# Margins and sharpness
# ---------------------------------------------------------------------------


def test_n4_margin_item():
    cube = min_re_cube_kernel()
    item = n4_margin(cube)
    assert item.name == "n4_margin"
    assert item.expected == 145.0 / 1728.0
    assert abs(item.computed - 145.0 / 1728.0) < 1e-9
    assert item.passed
    # the margin is read off the given cube-kernel item, which it does not rescan
    assert item.computed == cube.computed + k_tail(4)
    assert item.witness == cube.witness
    other = VerificationItem("cube", 0.5, 27.0 / 64.0, 1e-9, (0.25, 1.0))
    assert n4_margin(other).computed == 0.5 + k_tail(4)
    assert n4_margin(other).witness == (0.25, 1.0)


def test_margin_grows_with_section_order():
    """k_tail increases with n, so n = 4 is the binding case."""
    base = 27.0 / 64.0 + k_tail(4)
    for n in range(5, 31):
        assert 27.0 / 64.0 + k_tail(n) > base


def test_sharpness_witnesses():
    items = sharpness_witnesses()
    by_name = {item.name: item for item in items}
    assert set(by_name) == {
        "sharpness_s2_re_deriv_radius",
        "sharpness_s2_convexity_radius",
        "sharpness_s3_re_deriv_radius",
    }
    assert by_name["sharpness_s2_re_deriv_radius"].expected == 1.0 / 3.0
    assert by_name["sharpness_s2_convexity_radius"].expected == 1.0 / 6.0
    assert by_name["sharpness_s3_re_deriv_radius"].expected == math.sqrt(13.0 / 96.0)
    for item in items:
        assert item.passed
        assert item.tolerance == 1e-6
        assert item.witness is not None and item.witness[0] == item.computed


@pytest.mark.parametrize("tol, grid", [(1e-9, 2048), (1e-7, 512), (1e-12, 64)])
def test_sharpness_radii_err_small_exactly(tol, grid):
    """Each sharpness radius lies at most tol below its exact value and never
    above it, compared exactly over the rationals."""
    third, sixth, tol_q = Fraction(1, 3), Fraction(1, 6), Fraction(tol)
    s2 = f0(2)
    for criterion in (Criterion.RE_DERIV, Criterion.STARLIKENESS, Criterion.LOCAL_UNIVALENCE):
        r = Fraction(criterion_radius(s2, criterion, tol, grid).radius)
        assert third - tol_q <= r <= third, criterion
    r = Fraction(criterion_radius(s2, Criterion.CONVEXITY, tol, grid).radius)
    assert sixth - tol_q <= r <= sixth
    r = Fraction(criterion_radius(f0(3), Criterion.RE_DERIV, tol, grid).radius)
    assert r * r <= Fraction(13, 96) <= (r + tol_q) ** 2


# ---------------------------------------------------------------------------
# Randomized positive-derivative suite
# ---------------------------------------------------------------------------


def test_theorem1_radius_constant():
    assert abs(THEOREM1_RADIUS - (1.0 / 3.0 - 1e-6)) < 1e-18


def test_theorem1_suite_small():
    report = theorem1_suite(count=20, atom_count=3, n_max=10, seed=3)
    assert report.passed
    names = [item.name for item in report.items]
    assert names == [
        "theorem1_min_margin",
        "theorem1_margin_violation",
        "theorem1_f0_margin_n2",
    ]
    margin, violation, f0n2 = report.items
    assert margin.expected is None
    assert violation.computed == 0.0
    # the extremal at n = 2 has margin exactly 1 - 3r = 3e-6 at the suite radius
    assert abs(f0n2.computed - 3e-6) < 1e-9
    assert report.parameters["min_margin_spec"] == "f0"
    assert report.parameters["min_margin_n"] == 2
    assert report.seed == 3
    assert report.generator_name == GENERATOR_NAME


def test_theorem1_suite_is_deterministic():
    a = theorem1_suite(count=6, atom_count=2, n_max=6, seed=9)
    b = theorem1_suite(count=6, atom_count=2, n_max=6, seed=9)
    assert a.items == b.items
    assert a.parameters == b.parameters


def test_theorem1_margin_of_near_identity_member():
    """A spec whose p-data vanishes through the truncation order gives the
    identity map, whose derivative has margin exactly 1."""
    roots = np.exp(2j * np.pi * np.arange(40) / 40)  # p_j = 0 for 1 <= j < 40
    f = synthesize_F(HerglotzSpec(np.full(40, 1.0 / 40), roots), order=12)
    scan = boundary_min(section(f, 5), Criterion.RE_DERIV, THEOREM1_RADIUS)
    assert abs(scan.min_value - 1.0) < 1e-9


def test_theorem1_suite_validation():
    with pytest.raises(ValidationError):
        theorem1_suite(count=0)
    with pytest.raises(ValidationError):
        theorem1_suite(count=1, n_max=1)


def _direct_sweep(count, atom_count, seed, n_min, n_max, measure):
    """(value, label, n, theta, coeffs) of f0 and then every sampled member
    at each order n_min..n_max, in that order: the brute-force oracle of the
    suites' sweep."""
    members = [("f0", HerglotzSpec([1.0], [1.0]))]
    members += [(spec.seed, spec) for spec in sample_specs(count, atom_count, seed)]
    rows = []
    for label, spec in members:
        f = synthesize_F(spec, order=n_max)
        for n in range(n_min, n_max + 1):
            s = section(f, n)
            value, theta = measure(s)
            rows.append((value, label, n, theta, s.coeffs.tolist()))
    return rows


def _spy(monkeypatch, name):
    """Record the coefficients of every series ``verify.<name>`` is given."""
    seen = []
    real = getattr(verify, name)

    def spy(s, *args):
        seen.append(s.coeffs.tolist())
        return real(s, *args)

    monkeypatch.setattr(verify, name, spy)
    return seen


def test_theorem1_suite_matches_brute_force_sweep(monkeypatch):
    """The suite synthesizes f0 and every sampled member once, at order
    n_max, and reports the first smallest margin of a direct boundary_min
    loop over all their sections, bit for bit."""
    orders = []
    real = verify.synthesize_F

    def spy(spec, order):
        orders.append((spec.seed, order))
        return real(spec, order=order)

    monkeypatch.setattr(verify, "synthesize_F", spy)
    report = theorem1_suite(count=3, atom_count=2, n_max=5, seed=4)
    monkeypatch.undo()
    assert orders == [(None, 5)] + [(spec.seed, 5) for spec in sample_specs(3, 2, 4)]

    def margin(s):
        scan = boundary_min(s, Criterion.RE_DERIV, THEOREM1_RADIUS, verify._GRID)
        return scan.min_value, scan.argmin_theta

    rows = _direct_sweep(3, 2, 4, 2, 5, margin)
    value, label, n, theta, _c = min(rows, key=lambda row: row[0])
    params = report.parameters
    assert report.items[0].computed == value
    assert report.items[0].witness == (THEOREM1_RADIUS, theta)
    assert (params["min_margin_spec"], params["min_margin_n"]) == (label, n)
    assert params["min_margin_theta"] == theta
    f0_value, f0_label, f0_n, f0_theta, _c = rows[0]
    assert (f0_label, f0_n) == ("f0", 2)
    assert report.items[2].computed == f0_value
    assert report.items[2].witness == (THEOREM1_RADIUS, f0_theta)


def test_conjecture2_scan_matches_brute_force_sweep(monkeypatch):
    """The scan solves f0 and every sampled member at every order, and
    reports the first smallest starlike radius of a direct loop over them."""
    seen = _spy(monkeypatch, "criterion_radius")
    report = conjecture2_scan(count=2, n_max=4, grid=256)
    monkeypatch.undo()

    def starlike(s):
        res = criterion_radius(s, Criterion.STARLIKENESS, 1e-7, 256)
        return res.radius, res.witness.argmin_theta

    rows = _direct_sweep(2, 3, 11, 2, 4, starlike)
    assert seen == [row[4] for row in rows]
    value, label, n, theta, _c = min(rows, key=lambda row: row[0])
    params = report.parameters
    assert report.items[0].computed == value
    assert report.items[0].witness == (value, theta)
    assert (params["min_radius_spec"], params["min_radius_n"]) == (label, n)
    assert params["min_radius_theta"] == theta
    f0_value, f0_label, f0_n, f0_theta, _c = rows[0]
    assert (f0_label, f0_n) == ("f0", 2)
    assert report.items[1].witness == (f0_value, f0_theta)


def test_sweep_measures_the_exact_f0_sections():
    """The sweep synthesizes f0 as the single atom at x = 1, and the closed-form
    product makes every section it measures zoo.f0's, bit for bit."""
    seen = []

    def measure(f, best):
        seen.append(f)
        return [(1.0, 0.0)] * 59

    verify._sweep_minimum(1, 1, 0, 2, 60, measure)
    member = seen[0]  # f0 comes first
    sections = [(n, section(member, n)) for n in range(2, 61)]
    assert [n for n, s in sections if not np.array_equal(s.coeffs, f0(n).coeffs)] == []


#: Real through z^6 and complex from z^7 on: its sections s_2..s_6 mirror
#: theta into [0, pi], and s_7..s_9 do not.
MIXED = TruncatedSeries([0, 1, 0.5, -0.25, 0.125, 0.1, -0.05, 0.02j, 0.01 - 0.01j, 0.003j])


def _margins(f, best):
    """The theorem-1 suite's sweep of f's sections, given the running minimum ``best``."""
    return radius_module._section_margins(f, best, THEOREM1_RADIUS, verify._GRID)


def _assert_section_margins_are_boundary_min(f):
    """_margins(f, inf), which skips nothing, is boundary_min's (value, theta)
    at THEOREM1_RADIUS on every section s_2..s_N of f, bit for bit."""
    direct = []
    for n in range(2, f.order + 1):
        scan = boundary_min(section(f, n), "re-deriv", THEOREM1_RADIUS, verify._GRID)
        direct.append((scan.min_value, scan.argmin_theta))
    assert _margins(f, math.inf) == direct


@pytest.mark.parametrize(
    "f",
    [
        synthesize_F(HerglotzSpec([1.0], [1.0]), order=60),  # the sweep's f0
        f0(40),
        koebe(30),
        rotation(synthesize_F(HerglotzSpec([1.0], [1.0]), order=20), np.exp(0.7j)),
        MIXED,
    ],
    ids=["sweep-f0", "f0", "koebe", "rotated-f0", "real-then-complex"],
)
def test_section_margins_are_boundary_min_bit_for_bit(f):
    _assert_section_margins_are_boundary_min(f)


def test_section_margins_mirror_only_real_sections():
    """Each section takes its own mirror flag: MIXED's real sections report
    theta in [0, pi], and its complex ones their minima past pi."""
    thetas = [theta for _value, theta in _margins(MIXED, math.inf)]
    assert all(0.0 <= theta <= math.pi for theta in thetas[:5])
    assert all(theta > math.pi for theta in thetas[5:])


def _assert_skip_bounds_are_sound(f):
    """Both lower bounds of every section s_2..s_N of f lie at or below its
    boundary_min value at THEOREM1_RADIUS and below the least value of
    Re s_n' on 2^16 angles: with ``best`` the lesser of the two (the latter
    one ulp lower), the sweep still measures the section."""
    b = f.coeffs[1:] * np.arange(1, f.order + 1)
    z = THEOREM1_RADIUS * np.exp(2j * np.pi * np.arange(2**16) / 2**16)
    power = np.ones_like(z)
    dense = b[0] * power
    for n in range(2, f.order + 1):
        power *= z
        dense += b[n - 1] * power  # s_n' on the 2^16 angles
        scan = boundary_min(section(f, n), "re-deriv", THEOREM1_RADIUS, verify._GRID)
        best = min(scan.min_value, np.nextafter(dense.real.min(), -math.inf))
        margins = _margins(f, best)
        assert margins[n - 2] == (scan.min_value, scan.argmin_theta), n


@pytest.mark.parametrize("f", [f0(40), koebe(30), MIXED], ids=["f0", "koebe", "real-then-complex"])
def test_skip_bounds_are_sound(f):
    _assert_skip_bounds_are_sound(f)


if HAS_HYPOTHESIS:

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 30))
    @settings(max_examples=60, deadline=None)
    def test_section_margins_of_sampled_members_are_boundary_min(seed, atom_count, n_max):
        _assert_section_margins_are_boundary_min(
            synthesize_F(spec_from_seed(seed, atom_count), order=n_max)
        )

    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(2, 30))
    @settings(max_examples=30, deadline=None)
    def test_skip_bounds_of_sampled_members_are_sound(seed, atom_count, n_max):
        _assert_skip_bounds_are_sound(synthesize_F(spec_from_seed(seed, atom_count), order=n_max))


@pytest.mark.parametrize(
    "seed, atom_count, n_max",
    [(0, 3, 20), (1, 3, 20), (2, 3, 20), (3, 3, 20), (7, 1, 20), (7, 6, 20), (7, 3, 8), (7, 3, 30)],
)
def test_theorem1_suite_equals_the_unskipped_sweep(monkeypatch, seed, atom_count, n_max):
    """Skipping sections changes no report: the suite equals the sweep that
    measures every section of every member (best = inf) bit for bit, while it
    transforms and refines fewer sections than there are.  With one atom every
    member is a rotation of f0, which ties with the extremal at n = 2, so each
    member transforms and refines its n = 2 row; the cell bound of that row,
    lifted, then skips most of the later rows."""
    rows, refined = [], []
    real_values, real_refine, real_margins = (
        radius_module._circle_values,
        radius_module._refine,
        radius_module._section_margins,
    )

    def circle_values(matrix, *args):
        rows.append(len(matrix))
        return real_values(matrix, *args)

    def refine(*args):
        refined.append(args)
        return real_refine(*args)

    monkeypatch.setattr(radius_module, "_circle_values", circle_values)
    monkeypatch.setattr(radius_module, "_refine", refine)
    report = theorem1_suite(count=100, atom_count=atom_count, n_max=n_max, seed=seed)
    sections = 101 * (n_max - 1)
    assert len(refined) < sections
    assert sum(rows) < sections
    if (seed, atom_count, n_max) == (7, 1, 20):
        assert (sum(rows), len(refined)) == (419, 119)
    rows.clear()
    refined.clear()
    monkeypatch.setattr(
        verify, "_section_margins", lambda f, best, r, grid: real_margins(f, math.inf, r, grid)
    )
    unskipped = theorem1_suite(count=100, atom_count=atom_count, n_max=n_max, seed=seed)
    assert (sum(rows), len(refined)) == (sections, sections)
    assert report.items == unskipped.items
    assert report.parameters == unskipped.parameters


def test_a_dip_between_grid_points_below_best_is_refined(monkeypatch):
    """A planted member whose n = 2 minimum lies mid-cell, below f0's margin,
    while its grid minimum lies above it by less than its cell bound's
    c_2 = (h^2/8) |b_1| r: the sweep must refine it, and it sets the minimum."""
    r, h = THEOREM1_RADIUS, 2.0 * math.pi / verify._GRID
    alpha = math.pi - 100.5 * h  # Re(1 + beta r e^{i(theta + alpha)}) is least mid-cell
    beta = (1.0 - 2e-6) / r  # true minimum 2e-6
    planted = TruncatedSeries([0.0, 1.0, beta * np.exp(1j * alpha) / 2.0, 0.0, 0.0])
    grid = (1.0 + beta * r * np.exp(1j * (h * np.arange(verify._GRID) + alpha))).real.min()
    f0_margin = theorem1_suite(count=3, n_max=4, seed=7).items[0].computed
    assert 0.0 < grid - f0_margin < h * h / 8.0 * beta * r

    target = sample_specs(3, 3, 7)[1].seed
    real = verify.synthesize_F
    monkeypatch.setattr(
        verify,
        "synthesize_F",
        lambda spec, order: planted if spec.seed == target else real(spec, order=order),
    )
    report = theorem1_suite(count=3, n_max=4, seed=7)
    value, theta = _margins(planted, math.inf)[0]
    assert abs(value - 2e-6) < 1e-12
    assert report.items[0].computed == value < f0_margin
    params = report.parameters
    assert (params["min_margin_spec"], params["min_margin_n"], params["min_margin_theta"]) == (
        target,
        2,
        theta,
    )


def test_a_large_late_coefficient_below_a_lifted_anchor_is_measured(monkeypatch):
    """Two planted members share f'(z) = 1 + b_1 z + b_2 z^2 + ... with
    |b_1| r = |b_2| r^2 = 0.8: the coefficient bound fails at n = 3, whose row
    is transformed, and its minimum, about 0.1, lies far above f0's margin.  In
    the small member a tail of 0.002 cannot pull the later sections down, so
    that row is the only one transformed.  In the large member
    b_4 r^4 = -0.5 pulls s_5' below zero, so the lifted bound fails at n = 5:
    the sweep transforms and refines that row, and it sets the minimum."""
    r = THEOREM1_RADIUS
    head = [0.0, 1.0, 0.8 / r / 2.0, 0.8 / r**2 / 3.0]
    small = TruncatedSeries(head + [0.001 / r**3 / 4.0, 0.001 / r**4 / 5.0])
    large = TruncatedSeries(head + [0.0, -0.5 / r**4 / 5.0])
    specs = sample_specs(3, 3, 7)
    planted = {specs[0].seed: small, specs[2].seed: large}
    transformed, member = [], []
    real_synthesize, real_values = verify.synthesize_F, radius_module._circle_values

    def synthesize(spec, order):
        member.append(spec.seed)
        return planted[spec.seed] if spec.seed in planted else real_synthesize(spec, order=order)

    def circle_values(matrix, *args):
        transformed.append((member[-1], matrix.shape[1]))
        return real_values(matrix, *args)

    monkeypatch.setattr(verify, "synthesize_F", synthesize)
    monkeypatch.setattr(radius_module, "_circle_values", circle_values)
    report = theorem1_suite(count=3, n_max=5, seed=7)
    rows = {seed: [n for label, n in transformed if label == seed] for seed in planted}
    assert rows == {specs[0].seed: [3], specs[2].seed: [3, 5]}
    scan = boundary_min(section(large, 5), "re-deriv", r, verify._GRID)
    assert scan.min_value < -0.3
    assert report.items[0].computed == scan.min_value
    params = report.parameters
    assert (params["min_margin_spec"], params["min_margin_n"], params["min_margin_theta"]) == (
        specs[2].seed,
        5,
        scan.argmin_theta,
    )


# ---------------------------------------------------------------------------
# Conjecture scan
# ---------------------------------------------------------------------------


def test_conjecture2_scan_small():
    report = conjecture2_scan(count=8, atom_count=3, n_max=6, seed=5, grid=256)
    assert report.passed  # advisory items never fail
    names = [item.name for item in report.items]
    assert names == ["conjecture2_min_starlike_radius", "conjecture2_f0_n2_radius"]
    head, f0n2 = report.items
    assert head.expected is None and f0n2.expected is None
    assert abs(f0n2.computed - 1.0 / 3.0) <= 1e-6
    assert head.computed <= f0n2.computed
    params = report.parameters
    assert params["threshold"] == CONJECTURE2_THRESHOLD
    assert params["counterexample_found"] is False
    assert head.computed >= CONJECTURE2_THRESHOLD
    assert {"min_radius_spec", "min_radius_n", "min_radius_theta"} <= set(params)


def test_conjecture2_scan_section_window():
    report = conjecture2_scan(count=2, atom_count=2, n_max=5, seed=5, grid=256, n_min=3)
    assert [item.name for item in report.items] == ["conjecture2_min_starlike_radius"]
    assert report.parameters["n_min"] == 3


def test_conjecture2_scan_is_deterministic():
    a = conjecture2_scan(count=3, atom_count=2, n_max=4, seed=13, grid=256)
    b = conjecture2_scan(count=3, atom_count=2, n_max=4, seed=13, grid=256)
    assert a.items == b.items


def test_conjecture2_scan_validation():
    with pytest.raises(ValidationError):
        conjecture2_scan(count=1, n_min=1)
    with pytest.raises(ValidationError):
        conjecture2_scan(count=1, n_min=4, n_max=3)


# ---------------------------------------------------------------------------
# Classical Koebe-section scan
# ---------------------------------------------------------------------------


def test_classical_scan_small():
    report = classical_radius_scan(5, 10)
    assert report.passed
    assert report.seed == 0
    assert report.generator_name == "deterministic"
    radii = [
        item.computed for item in report.items if item.name.startswith("classical_radius")
    ]
    assert len(radii) == 6
    # the starlikeness radius of Koebe sections grows with the order
    assert all(b > a for a, b in zip(radii, radii[1:]))
    # and stays above the classical threshold with slack
    assert radii[0] > 1.0 - 0.6 * math.log(5.0) - 1e-6


def test_real_coefficient_witness_angles_lie_in_zero_to_pi():
    """A field with real coefficients is even in theta, so a witness names the
    mirror angle in [0, pi], never the one that rounding happened to favour."""
    items = [
        *classical_radius_scan().items,
        *sharpness_witnesses(),
        min_g(),
        min_re_cube_kernel(),
    ]
    thetas = {item.name: item.witness[1] for item in items}
    sections = [(f"f0({n})", f0(n)) for n in range(2, 31)]
    sections += [(f"koebe({n})", koebe(n)) for n in range(5, 41)]
    for label, s in sections:
        for criterion in Criterion:
            if criterion is Criterion.LOCAL_UNIVALENCE:
                continue  # no field, so no witness angle
            for r in (0.3, 0.6):
                scan = boundary_min(s, criterion, r)
                thetas[f"{label} {criterion.value} r={r}"] = scan.argmin_theta
    outside = {name: theta for name, theta in thetas.items() if not 0.0 <= theta <= math.pi}
    assert outside == {}


def test_classical_scan_validation():
    with pytest.raises(ValidationError):
        classical_radius_scan(4, 10)
    with pytest.raises(ValidationError):
        classical_radius_scan(7, 6)


# ---------------------------------------------------------------------------
# Figure curves
# ---------------------------------------------------------------------------


def test_figure_curve_is_closed():
    curve = figure1_curves(0.5)
    assert len(curve) == 2048
    assert abs(curve[0] - curve[-1]) < 1e-12


def test_figure_curve_known_points():
    curve = figure1_curves(1.0 / 3.0)
    # theta = 0: 1/(1-r)^3; theta = pi, where Re w is quartically flat and
    # the two middle samples straddle it: 1/(1+r)^3
    assert abs(curve[0] - 27.0 / 8.0) < 1e-12
    assert abs(curve[1023].real - 27.0 / 64.0) < 1e-11
    assert abs(curve[1023] - np.conj(curve[1024])) < 1e-12


def test_figure_curve_validation():
    with pytest.raises(ValidationError):
        figure1_curves(0.0)
    with pytest.raises(ValidationError):
        figure1_curves(1.0)


# ---------------------------------------------------------------------------
# Full suite
# ---------------------------------------------------------------------------


def test_full_suite_structure():
    report = full_suite(count=4, atom_count=2, n_max=5, seed=1)
    assert report.passed
    names = [item.name for item in report.items]
    assert names == [
        "min_g",
        "min_T",
        "min_re_cube_kernel_1/3",
        "n4_margin",
        "sharpness_s2_re_deriv_radius",
        "sharpness_s2_convexity_radius",
        "sharpness_s3_re_deriv_radius",
        "theorem1_min_margin",
        "theorem1_margin_violation",
        "theorem1_f0_margin_n2",
    ]
    assert report.parameters["tol"] == 1e-9
    assert report.parameters["count"] == 4
    assert report.generator_name == GENERATOR_NAME


def test_full_suite_scans_the_cube_kernel_once(monkeypatch):
    """The n = 4 margin reuses the cube-kernel item the suite already built."""
    calls = []
    real = verify.cube_min_by_boundary

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(verify, "cube_min_by_boundary", counting)
    items = {item.name: item for item in full_suite(count=1, atom_count=2, n_max=2).items}
    assert len(calls) == 1
    cube = items["min_re_cube_kernel_1/3"]
    assert items["n4_margin"] == n4_margin(cube)


def test_full_suite_forwards_only_the_given_suite_keywords(monkeypatch):
    """full_suite restates none of theorem1_suite's defaults: it passes on
    exactly the keywords it was given, and reports the suite's own seed."""
    calls = []
    real = verify.theorem1_suite

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return real(count=1, atom_count=2, n_max=2, seed=5)

    monkeypatch.setattr(verify, "theorem1_suite", spy)
    assert full_suite().seed == 5
    assert full_suite(count=2).seed == 5
    assert calls == [((), {}), ((), {"count": 2})]


def test_full_suite_rejects_a_bad_tol_before_any_suite_work(monkeypatch):
    def unreachable(**kwargs):
        raise AssertionError("theorem1_suite ran before tol was checked")

    monkeypatch.setattr(verify, "theorem1_suite", unreachable)
    with pytest.raises(ValidationError, match="tol must be at least 1e-12"):
        full_suite(tol=1e-13)
