"""Unit tests for the verification items, suites, and scans."""

import dataclasses
import math

import numpy as np
import pytest

import secradius.verify as verify
from secradius.bounds import k_tail
from secradius.exceptions import CrossCheckError, ValidationError
from secradius.radius import Criterion, boundary_min, criterion_radius
from secradius.series import section
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
    roots_of_unity_spec,
    sample_specs,
    synthesize_F,
)


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
    value, theta = cube_min_by_boundary(1.0 / 3.0)
    assert abs(value - 27.0 / 64.0) < 1e-9
    # the minimum is quartically flat in theta at r = 1/3, so the angle is
    # only determined to roughly (1e-16)^(1/4) ~ 1e-4
    assert abs(theta - math.pi) < 1e-2


def test_boundary_path_off_third():
    value, _ = cube_min_by_boundary(0.5)
    assert abs(value) < 1e-6  # the image curve touches the imaginary axis
    value_small, _ = cube_min_by_boundary(1e-6)
    assert abs(value_small - 1.0) < 1e-5


def test_min_re_cube_kernel_item_names_and_expectation():
    at_third = min_re_cube_kernel(1.0 / 3.0)
    assert at_third.name == "min_re_cube_kernel_1/3"
    assert at_third.expected == 27.0 / 64.0
    assert at_third.passed
    assert at_third.witness[0] == 1.0 / 3.0

    elsewhere = min_re_cube_kernel(0.5)
    assert elsewhere.name == "min_re_cube_kernel_0.5"
    assert elsewhere.expected is None
    assert elsewhere.passed


def test_min_re_cube_kernel_cross_check_guard(monkeypatch):
    monkeypatch.setattr(verify, "cube_min_by_cubic", lambda: 0.5)
    with pytest.raises(CrossCheckError):
        min_re_cube_kernel(1.0 / 3.0)


def test_cube_min_domain():
    with pytest.raises(ValidationError):
        cube_min_by_boundary(0.0)
    with pytest.raises(ValidationError):
        cube_min_by_boundary(1.0)


# ---------------------------------------------------------------------------
# Margins and sharpness
# ---------------------------------------------------------------------------


def test_n4_margin_item():
    item = n4_margin()
    assert item.name == "n4_margin"
    assert item.expected == 145.0 / 1728.0
    assert abs(item.computed - 145.0 / 1728.0) < 1e-9
    assert item.passed


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
    f = synthesize_F(roots_of_unity_spec(40), order=12)
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
    """The suite scans f0 and every sampled member at every order, and
    reports the first smallest margin of a direct loop over them."""
    seen = _spy(monkeypatch, "boundary_min")
    report = theorem1_suite(count=3, atom_count=2, n_max=5, seed=4)
    monkeypatch.undo()

    def margin(s):
        scan = boundary_min(s, Criterion.RE_DERIV, THEOREM1_RADIUS, verify._GRID)
        return scan.min_value, scan.argmin_theta

    rows = _direct_sweep(3, 2, 4, 2, 5, margin)
    assert seen == [row[4] for row in rows]
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
        min_re_cube_kernel(1.0 / 3.0),
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
    curve = figure1_curves(0.5, samples=512)
    assert abs(curve[0] - curve[-1]) < 1e-12


def test_figure_curve_known_points():
    curve = figure1_curves(1.0 / 3.0, samples=2049)
    # theta = 0: 1/(1-r)^3; theta = pi (middle sample): 1/(1+r)^3
    assert abs(curve[0] - 27.0 / 8.0) < 1e-12
    assert abs(curve[1024] - 27.0 / 64.0) < 1e-12


def test_figure_curve_validation():
    with pytest.raises(ValidationError):
        figure1_curves(0.0)
    with pytest.raises(ValidationError):
        figure1_curves(1.0)
    with pytest.raises(ValidationError):
        figure1_curves(0.5, samples=4)


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
