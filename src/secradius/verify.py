"""Named constants, sharpness witnesses, and randomized verification suites.

The quantities verified here are the load-bearing numbers of the
positive-derivative radius argument for the family F:

* ``min_g``:   min of g(theta) = 1 + cos(theta) + cos(2*theta)/2, equal to
  1/4 at theta = 2*pi/3 and 4*pi/3;
* ``min_T``:   min of T(theta, phi) = g(theta) + cos(phi)/6, equal to 1/12;
* ``min_re_cube_kernel``: min of Re (1-z)^{-3} on |z| = 1/3, equal to 27/64
  (computed two independent ways and cross-checked);
* ``n4_margin``: 27/64 - 73/216 = 145/1728, the slack that closes the
  argument for every section order n >= 4;
* ``sharpness_witnesses``: the radii 1/3, 1/6 and sqrt(13/96) attained by
  early sections of the extremal f0;
* ``theorem1_suite``: randomized confirmation that sections of synthesized
  family members keep Re s_n' > 0 up to radius 1/3;
* ``conjecture2_scan``: advisory scan of the open starlikeness question --
  it reports observations and never asserts the conjecture;
* ``classical_radius_scan``: Koebe sections against the classical
  1 - (3/n) log n starlikeness threshold.

The cube kernel, the classical scan and ``figure1_curves`` are fixed
experiments: their settings are module constants, not arguments.

Every item records expected/computed/tolerance plus an optional (r, theta)
witness and derives its verdict from them, and a report is reproducible bit
for bit from its seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .bounds import k_tail
from .exceptions import CrossCheckError, ValidationError
from .radius import (
    Criterion,
    RadiusResult,
    _field_scan,
    _section_margins,
    criterion_radius,
    golden_section_min,
)
from .series import TruncatedSeries, _integer, _radius, section
from .zoo import GENERATOR_NAME, HerglotzSpec, f0, koebe, sample_specs, synthesize_F

__all__ = [
    "VerificationItem",
    "VerificationReport",
    "THEOREM1_RADIUS",
    "CONJECTURE2_THRESHOLD",
    "min_g",
    "min_T",
    "min_re_cube_kernel",
    "cube_min_by_boundary",
    "cube_min_by_cubic",
    "n4_margin",
    "sharpness_witnesses",
    "theorem1_suite",
    "conjecture2_scan",
    "classical_radius_scan",
    "figure1_curves",
    "full_suite",
]

_TWO_PI = 2.0 * math.pi

# scan grid of the constant checks, the randomized suite and the classical
# scan; min_T's phi grid
_GRID = 2048
_PHI_GRID = 64
_CUBE_RADIUS = 1.0 / 3.0  # where the paper states the cube-kernel constant
_CLASSICAL_TOL = 1e-9  # radius tolerance of the classical scan
_CURVE_SAMPLES = 2048  # points per figure curve

#: Evaluation radius of the randomized suite: the open-disc statement is
#: checked just inside 1/3, where the extremal's margin is 3e-6, not 0.
THEOREM1_RADIUS = 1.0 / 3.0 - 1e-6

#: A starlikeness radius below this value counts as a candidate
#: counterexample to the open conjecture.
CONJECTURE2_THRESHOLD = 1.0 / 3.0 - 1e-6


@dataclass(frozen=True)
class VerificationItem:
    """One named check: a computed value against an optional expectation.

    ``passed`` is derived, never stored: True exactly when ``expected`` is
    None (purely informational item) or |computed - expected| <= tolerance.
    ``witness`` optionally locates the attaining point as an (r, theta)
    pair; checks that are functions of an angle alone use r = 1.0.
    ``computed``, ``tolerance`` and the witness are stored as floats.
    """

    name: str
    computed: float
    expected: float | None = None
    tolerance: float = 0.0
    witness: tuple[float, float] | None = None

    def __post_init__(self):
        object.__setattr__(self, "computed", float(self.computed))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.witness is not None:
            r, theta = self.witness
            object.__setattr__(self, "witness", (float(r), float(theta)))

    @property
    def passed(self) -> bool:
        return self.expected is None or abs(self.computed - self.expected) <= self.tolerance


@dataclass(frozen=True)
class VerificationReport:
    """An ordered collection of items plus the settings that produced them."""

    items: tuple[VerificationItem, ...]
    seed: int
    parameters: dict
    generator_name: str

    def __post_init__(self):
        if not self.items:
            raise ValidationError("a verification report needs at least one item")
        object.__setattr__(self, "items", tuple(self.items))

    @property
    def passed(self) -> bool:
        return all(item.passed for item in self.items)


def _g(theta):
    """g(theta) = 1 + cos(theta) + cos(2*theta)/2, at a float or an array of angles."""
    return 1.0 + np.cos(theta) + 0.5 * np.cos(2.0 * theta)


def min_g() -> VerificationItem:
    """Global minimum of g(theta) = 1 + cos(theta) + cos(2*theta)/2.

    g is Re(1 + z + z^2/2) on |z| = 1, scanned like any boundary field.
    """
    value, theta = _field_scan((np.array([1.0, 1.0, 0.5]), np.ones(1)), _GRID)(1.0)
    return VerificationItem("min_g", value, expected=0.25, tolerance=1e-10, witness=(1.0, theta))


def min_T() -> VerificationItem:
    """Global minimum of T(theta, phi) = g(theta) + cos(phi)/6.

    T is a sum of a theta term and a phi term, so each angle is minimized
    alone: the argmin of a ``_GRID``-point theta grid, or a ``_PHI_GRID``-point
    phi grid (phi enters only through cos(phi), so a coarse grid suffices),
    then one golden refinement inside the argmin's two adjacent cells.
    """

    def minimize(fn: Callable, size: int) -> tuple[float, float]:
        step = _TWO_PI / size
        x = step * int(np.argmin(fn(np.arange(size) * step)))
        return min((fn(x), x), golden_section_min(fn, x - step, x + step)[::-1])

    g_min, theta = minimize(_g, _GRID)
    cos_min = minimize(lambda phi: np.cos(phi) / 6.0, _PHI_GRID)[0]
    return VerificationItem(
        "min_T",
        g_min + cos_min,
        expected=1.0 / 12.0,
        tolerance=1e-10,
        witness=(1.0, theta % _TWO_PI),
    )


def cube_min_by_boundary() -> tuple[float, float]:
    """Path (i): minimum of Re (1-z)^{-3} on |z| = 1/3; (value, theta).

    A ``_GRID``-point scan followed by Newton refinement on the analytic
    theta-derivative of the kernel, through the same scan as
    :func:`boundary_min`; theta lies in [0, pi].  The minimum at theta = pi
    is quartic (the second derivative vanishes there), so the Newton steps
    shrink only by about a third each and the refinement takes about 43
    evaluations.
    """
    return _field_scan((np.ones(1), np.array([1.0, -3.0, 3.0, -1.0])), _GRID)(_CUBE_RADIUS)


def cube_min_by_cubic() -> float:
    """Path (ii): minimize the cubic reduction over x in [-1, 1].

    Writing x = cos(theta) turns the r = 1/3 boundary restriction of
    Re (1-z)^{-3} into p(x) = (9/8)^3 [2/3 + 8x/9 + 2x^2/3 + 4x^3/27], whose
    derivative (9/8)^3 (4/9)(x + 1)(x + 2) is nonnegative on the interval;
    so the minimum sits at x = -1 and equals p(-1) = 27/64.
    """
    x = -1.0
    return (9.0 / 8.0) ** 3 * (2.0 / 3.0 + 8.0 * x / 9.0 + 2.0 * x * x / 3.0 + 4.0 * x**3 / 27.0)


def min_re_cube_kernel() -> VerificationItem:
    """Minimum of Re (1-z)^{-3} over |z| = 1/3, expected to be 27/64.

    The boundary-sampling path and the cubic-reduction path must agree
    within 1e-9, else :class:`CrossCheckError`.
    """
    value, theta = cube_min_by_boundary()
    other = cube_min_by_cubic()
    if abs(other - value) > 1e-9:
        raise CrossCheckError(f"boundary path {value!r} vs cubic path {other!r} disagree at r=1/3")
    return VerificationItem(
        "min_re_cube_kernel_1/3",
        value,
        expected=27.0 / 64.0,
        tolerance=1e-9,
        witness=(_CUBE_RADIUS, theta),
    )


def n4_margin(cube: VerificationItem) -> VerificationItem:
    """27/64 + k_tail(4) = 145/1728, the strict positivity margin at n = 4,
    from the :func:`min_re_cube_kernel` item ``cube``."""
    return VerificationItem(
        "n4_margin",
        cube.computed + k_tail(4),
        expected=145.0 / 1728.0,
        tolerance=1e-9,
        witness=cube.witness,
    )


def _radius_witness(res: RadiusResult) -> tuple[float, float] | None:
    if res.witness is None:
        return None
    return (res.radius, res.witness.argmin_theta)


def sharpness_witnesses(tol: float = 1e-9) -> list[VerificationItem]:
    """Radii showing 1/3 and 1/6 cannot be improved, plus the s3 closed form.

    s2 of the extremal f0 has derivative 1 + 3z, vanishing at z = -1/3, and
    convexity quotient (1+6z)/(1+3z), vanishing at z = -1/6; the third item
    pins the order-3 section's positive-derivative radius to sqrt(13/96).
    """
    s2 = f0(2)
    s3 = f0(3)
    checks = [
        ("sharpness_s2_re_deriv_radius", s2, Criterion.RE_DERIV, 1.0 / 3.0),
        ("sharpness_s2_convexity_radius", s2, Criterion.CONVEXITY, 1.0 / 6.0),
        ("sharpness_s3_re_deriv_radius", s3, Criterion.RE_DERIV, math.sqrt(13.0 / 96.0)),
    ]
    items = []
    for name, s, criterion, expected in checks:
        res = criterion_radius(s, criterion, tol)
        items.append(
            VerificationItem(
                name,
                res.radius,
                expected=expected,
                tolerance=1e-6,
                witness=_radius_witness(res),
            )
        )
    return items


def _sweep_minimum(
    count: int, atom_count: int, seed: int, n_min: int, n_max: int, measure: Callable
) -> tuple[tuple[float, object, int, float], tuple[float, float] | None]:
    """First smallest ``measure`` over sections n_min..n_max of sampled members.

    The extremal f0 (single Herglotz atom at x = 1) is the worst case of
    every suite here, so it comes first, then the specs labelled by their
    recorded seeds; each member f is synthesized once, to order n_max, and
    ``measure(f, best)`` lists the (value, theta) of its sections
    n_min..n_max, given the running minimum ``best`` (inf for f0).  A
    section proved to lie above ``best`` may be listed with any value that
    cannot win, such as (inf, 0.0).  Returns ((value, label, n, theta),
    f0_n2), where f0_n2 is f0's (value, theta) at n = 2, None when
    n_min > 2.
    """
    members = [("f0", HerglotzSpec([1.0], [1.0]))]
    members += [(spec.seed, spec) for spec in sample_specs(count, atom_count, seed)]
    best: tuple[float, object, int, float] = (math.inf, None, 0, 0.0)
    f0_n2 = None
    for label, spec in members:
        f = synthesize_F(spec, order=n_max)
        for n, (value, theta) in enumerate(measure(f, best[0]), n_min):
            if value < best[0]:
                best = (value, label, n, theta)
            if label == "f0" and n == 2:
                f0_n2 = (value, theta)
    return best, f0_n2


def theorem1_suite(
    count: int = 200, atom_count: int = 3, n_max: int = 20, seed: int = 7
) -> VerificationReport:
    """Randomized check that sections keep Re s_n' > 0 up to radius 1/3.

    Re s_n' of every section n = 2..n_max of every sampled member is
    minimized over the circle of radius 1/3 - 1e-6 on a ``_GRID``-point scan
    (an inverse FFT of the section's row, then Newton), except where a
    certified lower bound puts a section above the running minimum, which it
    then cannot set (``radius._section_margins``); f0 comes first and is
    measured whole.  The suite asserts the global minimum margin stays
    above -1e-9 and that the injected extremal attains a near-zero margin
    at n = 2; the raw minimum is reported as an informational item.
    """
    n_max = _integer(n_max, 2, "n_max")
    r = THEOREM1_RADIUS
    (best_margin, best_label, best_n, best_theta), (f0_margin, f0_theta) = _sweep_minimum(
        count, atom_count, seed, 2, n_max, lambda f, best: _section_margins(f, best, r, _GRID)
    )
    items = (
        VerificationItem("theorem1_min_margin", best_margin, witness=(r, best_theta)),
        VerificationItem(
            "theorem1_margin_violation",
            max(0.0, -best_margin),
            expected=0.0,
            tolerance=1e-9,
            witness=(r, best_theta),
        ),
        VerificationItem(
            "theorem1_f0_margin_n2",
            f0_margin,
            expected=0.0,
            tolerance=1e-4,
            witness=(r, f0_theta),
        ),
    )
    parameters = {
        "count": count,
        "atom_count": atom_count,
        "n_max": n_max,
        "radius": r,
        "grid": _GRID,
        "min_margin_spec": best_label,
        "min_margin_n": best_n,
        "min_margin_theta": best_theta,
    }
    return VerificationReport(items, seed, parameters, GENERATOR_NAME)


def conjecture2_scan(
    count: int = 500,
    atom_count: int = 3,
    n_max: int = 30,
    seed: int = 11,
    grid: int = 512,
    tol: float = 1e-7,
    n_min: int = 2,
) -> VerificationReport:
    """Advisory starlikeness-radius scan over sampled sections.

    Computes the starlikeness radius of every section s_n,
    n_min <= n <= n_max, of every sampled member, and reports the minimum
    observed together with its witness.  The open conjecture predicts every
    radius is at least 1/3; this function only *records* whether an
    observation dips below ``CONJECTURE2_THRESHOLD``
    (``parameters["counterexample_found"]``), it never turns the conjecture
    into an assertion.
    """
    n_min = _integer(n_min, 2, "n_min")
    n_max = _integer(n_max, n_min, "n_max")

    def starlike(s: TruncatedSeries) -> tuple[float, float]:
        res = criterion_radius(s, Criterion.STARLIKENESS, tol, grid)
        return res.radius, res.witness.argmin_theta if res.witness is not None else 0.0

    def measure(f: TruncatedSeries, _best: float) -> list[tuple[float, float]]:
        return [starlike(section(f, n)) for n in range(n_min, n_max + 1)]

    (best_radius, best_label, best_n, best_theta), f0_n2 = _sweep_minimum(
        count, atom_count, seed, n_min, n_max, measure
    )
    found = best_radius < CONJECTURE2_THRESHOLD
    witness = (best_radius, best_theta)
    items = [VerificationItem("conjecture2_min_starlike_radius", best_radius, witness=witness)]
    if f0_n2 is not None:
        items.append(VerificationItem("conjecture2_f0_n2_radius", f0_n2[0], witness=f0_n2))
    parameters = {
        "count": count,
        "atom_count": atom_count,
        "n_min": n_min,
        "n_max": n_max,
        "grid": grid,
        "tol": tol,
        "threshold": CONJECTURE2_THRESHOLD,
        "counterexample_found": found,
        "min_radius_spec": best_label,
        "min_radius_n": best_n,
        "min_radius_theta": best_theta,
    }
    return VerificationReport(tuple(items), seed, parameters, GENERATOR_NAME)


def classical_radius_scan(n_min: int = 5, n_max: int = 40) -> VerificationReport:
    """Koebe sections against the classical starlikeness threshold.

    For each n in [n_min, n_max] the starlikeness radius of the degree-n
    Koebe section is computed (tolerance ``_CLASSICAL_TOL``, grid ``_GRID``)
    and checked against 1 - (3/n) log n - 1e-6.  Two items per n: the
    radius itself (informational) and the threshold violation (must be
    exactly 0).
    """
    n_min = _integer(n_min, 5, "n_min")
    n_max = _integer(n_max, n_min, "n_max")
    items: list[VerificationItem] = []
    for n in range(n_min, n_max + 1):
        res = criterion_radius(koebe(n), Criterion.STARLIKENESS, _CLASSICAL_TOL, _GRID)
        threshold = 1.0 - (3.0 / n) * math.log(n) - 1e-6
        witness = _radius_witness(res)
        items.append(VerificationItem(f"classical_radius_n{n}", res.radius, witness=witness))
        items.append(
            VerificationItem(
                f"classical_violation_n{n}",
                max(0.0, threshold - res.radius),
                expected=0.0,
                tolerance=0.0,
                witness=witness,
            )
        )
    parameters = {
        "n_min": n_min,
        "n_max": n_max,
        "tol": _CLASSICAL_TOL,
        "grid": _GRID,
        "threshold_slack": 1e-6,
    }
    return VerificationReport(tuple(items), 0, parameters, "deterministic")


def figure1_curves(r: float) -> np.ndarray:
    """Closed image curve of |z| = r under the cube kernel 1/(1-z)^3.

    Parametrized as w(theta) = (1 + r e^{i theta})^3 / (1 - r^2)^3, which
    traces the same curve; the returned ``_CURVE_SAMPLES`` points include
    both endpoints (theta = 0 and 2*pi), so first and last points coincide.
    """
    r = _radius(r)
    thetas = np.linspace(0.0, _TWO_PI, _CURVE_SAMPLES)
    return (1.0 + r * np.exp(1j * thetas)) ** 3 / (1.0 - r * r) ** 3


def full_suite(tol: float = 1e-9, **suite) -> VerificationReport:
    """Everything the verify command runs, merged into a single report.

    ``suite`` goes to :func:`theorem1_suite` as given, and the report takes
    that suite's seed; ``tol`` is the radius tolerance of the sharpness items.
    """
    sharpness = sharpness_witnesses(tol)  # first, so a bad tol fails before any work
    t1 = theorem1_suite(**suite)
    cube = min_re_cube_kernel()
    items = [min_g(), min_T(), cube, n4_margin(cube), *sharpness, *t1.items]
    parameters = dict(t1.parameters)
    parameters["tol"] = tol
    return VerificationReport(tuple(items), t1.seed, parameters, GENERATOR_NAME)
