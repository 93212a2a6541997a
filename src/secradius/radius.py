"""Boundary scans, zero counting, and radius solvers for disc criteria.

A *criterion* attaches to each polynomial s a real field on the disc whose
positivity expresses a geometric property:

=================  =============================  =========================
criterion          field                          property on |z| < r
=================  =============================  =========================
re-deriv           Re s'(z)                       derivative has
                                                  positive real part
convex             Re(1 + z s''(z)/s'(z))        convexity
starlike           Re(z s'(z)/s(z))              starlikeness w.r.t. 0
local-univalence   none: the guard bound of s'    s' does not vanish
=================  =============================  =========================

Local univalence has no field: it asks only that s' be zero-free, and the
certified guard bound of s' (below) is its radius.

Each field is harmonic wherever its defining quotient is analytic, so its
minimum over a closed disc sits on the bounding circle.  Every field is a
numerator and at most one denominator polynomial from one table, and
:func:`_field_scan` prepares such a field once per solve.  Each circle then
costs one inverse FFT of the stacked coefficient rows for a grid scan, and
safeguarded Newton steps near the grid argmin, each one Horner pass over
both polynomials; :func:`boundary_min` and ``verify``'s scans of g and
Re (1-z)^{-3} are one-probe cases.  A negative arc of the field narrower
than a grid cell, away from the grid argmin, can go unseen.

:func:`criterion_radius` solves for the radius where the boundary minimum
changes sign, inside [0, rho): rho is a certified lower bound on the root
moduli of the denominator (the *guard*), from Gerschgorin discs around the
``np.roots`` approximations (:func:`_root_discs`), so no pole enters the
disc and a positive boundary minimum proves the criterion.  There the
minimum is non-increasing in r, and a safeguarded regula falsi on the scans
alone finds the radius.  :func:`count_zeros` counts the zeros inside a
circle on the same discs, exactly unless a disc meets the circle.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Callable

import numpy as np

from .exceptions import PoleProximityError, ValidationError, ZeroOnCircleError
from .series import TruncatedSeries, _integer, _numbers, _radius, is_normalized

__all__ = [
    "Criterion",
    "BoundaryScan",
    "RadiusResult",
    "RADIUS_CAP",
    "criterion_value",
    "boundary_min",
    "criterion_radius",
    "count_zeros",
    "golden_section_min",
]

#: Largest radius ever probed; a criterion that survives here reports 1.0.
RADIUS_CAP = 1.0 - 1e-6

_POLE_TOL = 1e-300
_UNIT_ROUNDOFF = 2.0**-53
_GOLDEN_XTOL = 1e-12  # bracket width at which golden_section_min stops
_THETA_TOL = 1e-12  # Newton step at which a _field_scan probe stops
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_TWO_PI = 2.0 * math.pi


class Criterion(str, Enum):
    """Disc properties measured by this module (values match the CLI)."""

    RE_DERIV = "re-deriv"
    CONVEXITY = "convex"
    STARLIKENESS = "starlike"
    LOCAL_UNIVALENCE = "local-univalence"

    @classmethod
    def _missing_(cls, value):
        names = ", ".join(c.value for c in cls)
        raise ValidationError(f"criterion must be one of {names}, got {value!r}")


@dataclass(frozen=True)
class BoundaryScan:
    """Minimum of a criterion field over the circle |z| = r."""

    r: float
    grid_size: int
    min_value: float
    argmin_theta: float


@dataclass(frozen=True)
class RadiusResult:
    """Outcome of a radius solve for the largest good disc.

    ``radius`` is the largest radius at which the criterion was verified to
    hold, at most ``tol`` below the true one provided the scan grid resolves
    every negative arc of the field; a criterion holding at the cap reports
    1.0 with ``clamped`` set.  A negative arc narrower than a grid cell, away
    from the grid argmin, goes unseen and the radius errs large (the strict
    xfail ``test_starlike_radius_errs_small_when_the_grid_misses_a_narrow_dip``).
    ``witness`` is the boundary scan of the probe that certified the radius
    (None when even tiny discs fail, when nothing bounds the guard's zeros
    away from 0, and for local univalence, which probes nothing).
    ``iterations`` counts boundary-scan probes.
    """

    radius: float
    witness: BoundaryScan | None
    iterations: int
    tol: float
    clamped: bool


def golden_section_min(
    fn: Callable[[float], float], a: float, b: float
) -> tuple[float, float]:
    """Golden-section minimizer of ``fn`` on [a, b]; returns (x, fn(x)).

    The search stops once the bracket is at most ``_GOLDEN_XTOL`` = 1e-12
    wide.  Tracks the best probe seen, so the returned value never exceeds
    any evaluation made during the search.  Exact value ties go to the
    smaller x.
    Needing no derivatives, it refines ``verify.min_T``, the independent
    cross-check of the Newton-refined scans.
    """
    if b < a:
        a, b = b, a
    span = b - a
    c = b - _INVPHI * span
    d = a + _INVPHI * span
    fc = fn(c)
    fd = fn(d)
    best = min((fc, c), (fd, d))
    while (b - a) > _GOLDEN_XTOL:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
            best = min(best, (fc, c))
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
            best = min(best, (fd, d))
    return best[1], best[0]


def criterion_value(s: TruncatedSeries, criterion: Criterion, z: complex) -> float:
    """Evaluate the criterion field of ``s`` at a single point ``z``.

    The starlikeness field takes its limit value 1.0 at z = 0 (removable for
    any normalized series).  Quotient criteria raise
    :class:`PoleProximityError` when the denominator modulus falls below the
    representable floor.  Local univalence has no field and raises
    :class:`ValidationError`.
    """
    z = complex(_numbers(z, np.complex128, "z", scalar=True))
    return _point_jet(_field_parts(s, Criterion(criterion)))(z)[0]


def _field_parts(
    s: TruncatedSeries, criterion: Criterion
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """Coefficients (num, den) of the polynomials that make up the field.

    The field is Re num when ``den`` is None and Re(num/den) otherwise;
    :func:`_point_jet` and :func:`_field_scan` evaluate it.  ``den`` is also
    the guard polynomial whose zeros inside the disc void the boundary
    argument.  For starlikeness num(0)/den(0) = c_1/c_1, so z = 0 needs no
    special case.  Local univalence has no field (its radius is the guard
    bound of s'), so it raises :class:`ValidationError`.
    """
    if criterion is Criterion.LOCAL_UNIVALENCE:
        raise ValidationError("local-univalence has no boundary field")
    c = s.coeffs
    m = np.arange(1, c.size)
    ds = c[1:] * m
    if criterion is Criterion.RE_DERIV:
        return ds, None
    if criterion is Criterion.CONVEXITY:
        # 1 + z s''/s' = (z s')'/s', and (z s')' = sum m^2 c_m z^(m-1)
        return ds * m, ds
    # z s'/s = s'/(s/z); s/z drops the zero of s at the origin
    return ds, c[1:]


def _re_theta_jet(
    z: complex, h: complex, h1: complex, h2: complex
) -> tuple[float, float, float]:
    """Re h and its first two theta-derivatives at z = r e^{i theta}, from h1 = h'(z)
    and h2 = h''(z): d/dtheta h = i z h' and d^2/dtheta^2 h = -z h' - z^2 h''."""
    zh1 = z * h1
    return h.real, -zh1.imag, -(zh1 + z * z * h2).real


def _point_jet(parts: tuple) -> Callable[[complex], tuple[float, float, float]]:
    """Closure giving (phi, phi', phi'') at a point for :func:`_field_parts` output.

    phi is the field and the primes are theta-derivatives along the circle
    through the point.  One plain-Python Horner pass from the highest power
    gives each polynomial's value and first two derivatives, a quotient's
    numerator and denominator in one loop (the shorter padded with zeros);
    for the short polynomials here this beats numpy arrays point by point.
    """
    num, den = parts
    if den is None:
        rev = num[::-1].tolist()

        def field(z: complex) -> tuple[float, float, float]:
            p = p1 = p2 = 0j
            for c in rev:
                p2 = p2 * z + p1
                p1 = p1 * z + p
                p = p * z + c
            return _re_theta_jet(z, p, p1, 2.0 * p2)

        return field
    pairs = list(zip_longest(num.tolist(), den.tolist(), fillvalue=0j))[::-1]

    def quotient(z: complex) -> tuple[float, float, float]:
        n = n1 = n2 = d = d1 = d2 = 0j
        for a, b in pairs:
            n2 = n2 * z + n1
            n1 = n1 * z + n
            n = n * z + a
            d2 = d2 * z + d1
            d1 = d1 * z + d
            d = d * z + b
        if abs(d) < _POLE_TOL:
            raise PoleProximityError(z, "field denominator vanishes at the point")
        q = n / d
        q1 = (n1 - q * d1) / d
        q2 = (2.0 * n2 - 2.0 * q1 * d1 - q * (2.0 * d2)) / d
        return _re_theta_jet(z, q, q1, q2)

    return quotient


def _field_scan(parts: tuple, grid: int) -> Callable[[float], tuple[float, float]]:
    """``scan(r) -> (value, theta)``, the minimum of the field of ``parts`` on |z| = r.

    ``parts`` comes from :func:`_field_parts`; its zero-padded coefficient
    rows, their exponents and its jet are prepared once.  ``scan.field(r)``
    is the field at the angles 2 pi k / grid: one row-wise inverse FFT of the
    r-scaled rows, folded modulo ``grid`` when longer (powers m and m + grid
    meet the same roots).  Newton steps on :func:`_point_jet` start at the
    grid argmin (the least theta on ties), inside its two adjacent cells:
    each moves the bracket end on the derivative's side, and a step that is
    not Newton with positive finite second derivative inside the bracket is
    its midpoint.  A step of at most ``_THETA_TOL`` stops, tested before the
    bracket (the Newton step at a grid-point minimum can round onto its
    end).  The least (value, theta) evaluated, the grid point included, is
    returned with theta in [0, 2*pi), mirrored into [0, pi] when every
    coefficient is real (the field is then even in theta), so rounding
    cannot decide which of two equal minima a report names.
    """
    size = max(p.size for p in parts if p is not None)
    pad = [p if p.size == size else np.pad(p, (0, size - p.size)) for p in parts if p is not None]
    rows = np.array(pad, dtype=np.complex128)
    powers = np.arange(rows.shape[1], dtype=np.float64)
    jet = _point_jet(parts)
    mirror = not np.count_nonzero(rows.imag)
    step = _TWO_PI / grid

    def field(r: float) -> np.ndarray:
        scaled = rows * r**powers
        if scaled.shape[1] > grid:
            scaled = np.pad(scaled, ((0, 0), (0, -scaled.shape[1] % grid)))
            scaled = scaled.reshape(len(rows), -1, grid).sum(axis=1)
        values = np.fft.ifft(scaled, n=grid, norm="forward")
        if len(values) == 1:
            return values[0].real
        num, den = values
        bad = int(np.abs(den).argmin())
        if abs(den[bad]) < _POLE_TOL:
            z = cmath.rect(r, bad * step)
            raise PoleProximityError(z, "field denominator vanishes on the scan circle")
        return (num / den).real

    def scan(r: float) -> tuple[float, float]:
        vals = field(r)
        k = int(vals.argmin())
        theta = k * step
        lo, hi = theta - step, theta + step
        best = (float(vals[k]), theta)
        while True:
            value, d1, d2 = jet(cmath.rect(r, theta))
            best = min(best, (value, theta))
            if d1 > 0.0:
                hi = theta
            else:
                lo = theta
            dt = -d1 / d2 if 0.0 < d2 < math.inf else math.nan
            if not (abs(dt) <= _THETA_TOL or lo < theta + dt < hi):
                dt = 0.5 * (lo + hi) - theta
            if abs(dt) <= _THETA_TOL:
                break
            theta += dt
        theta = best[1] % _TWO_PI
        if theta > math.pi and mirror:
            theta = _TWO_PI - theta
        return best[0], theta

    scan.field = field
    return scan


def boundary_min(
    s: TruncatedSeries, criterion: Criterion, r: float, grid_size: int = 2048
) -> BoundaryScan:
    """Minimum of the criterion field over the circle |z| = r.

    A uniform scan of ``grid_size`` angles, refined by safeguarded Newton
    steps near its argmin: the one-probe case of :func:`_field_scan`, which
    gives the tie and wrapping rules (on a real-coefficient section theta
    lies in [0, pi]).
    """
    criterion = Criterion(criterion)
    r = _radius(r)
    grid_size = _integer(grid_size, 16, "grid_size")
    value, theta = _field_scan(_field_parts(s, criterion), grid_size)(r)
    return BoundaryScan(r=r, grid_size=grid_size, min_value=value, argmin_theta=theta)


def count_zeros(s: TruncatedSeries, r: float) -> int:
    """Number of zeros of ``s`` in |z| < r, counted on certified root discs.

    Zero coefficients of the highest powers are dropped, and k zero
    coefficients of the lowest powers count as k zeros at the origin.
    :func:`_root_discs` encloses the zeros of what remains.  When no disc
    meets the circle |z| = r, each connected component of their union lies
    wholly inside or wholly outside the circle, and by Gerschgorin's second
    theorem holds as many zeros as discs; so the count, the origin's zeros
    plus the discs inside, is exact.

    Raises :class:`ZeroOnCircleError` when ``s`` is identically 0, or when
    a disc meets the circle or is not finite (coincident root
    approximations): the discs then cannot place a zero on either side.
    """
    r = _radius(r)
    c = np.trim_zeros(s.coeffs, "b")
    if c.size == 0:
        raise ZeroOnCircleError("the series is identically 0")
    origin = c.size - np.trim_zeros(c, "f").size
    low, high = _root_discs(c[origin:])
    # a NaN or infinite disc passes neither comparison
    if not np.all((r < low) | (high < r)):
        raise ZeroOnCircleError(f"a root disc meets |z| = {r} or is not finite")
    return origin + int(np.count_nonzero(high < r))


def criterion_radius(
    s: TruncatedSeries,
    criterion: Criterion,
    tol: float = 1e-9,
    grid_size: int = 2048,
) -> RadiusResult:
    """Largest disc radius on which the criterion holds, by a bracketed root-find.

    A radius passes when the boundary minimum m(r) is strictly positive and
    the guard polynomial (the field's denominator, see :func:`_field_parts`)
    has no zeros inside the disc.  :func:`_guard_bound` gives a certified
    lower bound ``rho`` on the guard's root moduli, so on [0, rho) the field
    is harmonic on the disc and m is non-increasing.  The field is prepared
    once (:func:`_field_scan`), and one :func:`_bracket_root` call probes it
    on [0, min(rho, cap)], ``rho`` failing unprobed because the field at a
    guard zero can look positive; a cap below ``rho`` is probed first, and
    passing there clamps.  No probed circle meets a pole.  A bound of 0
    (coincident root approximations) leaves the empty bracket [0, 0]:
    radius 0.0, no witness, no probe.

    Local univalence asks only that the guard s' be zero-free, which is what
    ``rho`` certifies: its radius is ``rho`` itself, with no probe and no
    witness, below the first zero of s' by the width of the root discs.

    The result errs small, by at most ``tol``, provided ``grid_size``
    resolves every negative arc of the field on the probed circles: a
    narrower arc away from the grid argmin is missed, and the radius then
    errs large (see :class:`RadiusResult`).  A criterion surviving at the
    cap 1 - 1e-6 reports radius 1.0 with ``clamped`` set.
    """
    criterion = Criterion(criterion)
    if not is_normalized(s):
        raise ValidationError("criterion_radius requires a normalized series")
    tol = float(_numbers(tol, np.float64, "tol", scalar=True))
    if tol < 1e-12:
        raise ValidationError(f"tol must be at least 1e-12, got {tol}")
    grid_size = _integer(grid_size, 16, "grid_size")
    if criterion is Criterion.LOCAL_UNIVALENCE:
        rho = _guard_bound(s.coeffs[1:] * np.arange(1, s.coeffs.size))
        clamped = rho > RADIUS_CAP
        return RadiusResult(1.0 if clamped else rho, None, 0, tol, clamped)
    parts = _field_parts(s, criterion)
    rho = math.inf if parts[1] is None else _guard_bound(parts[1])
    scan = _field_scan(parts, grid_size)
    f_cap = -math.inf
    if rho > RADIUS_CAP:
        f_cap, theta = scan(RADIUS_CAP)
        if f_cap > 0.0:
            return RadiusResult(1.0, BoundaryScan(RADIUS_CAP, grid_size, f_cap, theta), 1, tol, True)
    r, found, probes = _bracket_root(scan, min(rho, RADIUS_CAP), f_cap, tol)
    witness = None if found is None else BoundaryScan(r, grid_size, *found)
    return RadiusResult(r, witness, probes + (rho > RADIUS_CAP), tol, clamped=False)


def _guard_bound(coeffs: np.ndarray) -> float:
    """Certified lower bound on the root moduli of the polynomial with ``coeffs``.

    The least modulus over the discs of :func:`_root_discs`, which hold
    every zero however far the ``np.roots`` approximations are off; inf for
    a constant, and 0.0 when that least modulus is not positive, or not a
    number (coincident approximations).
    """
    low = float(np.min(_root_discs(coeffs)[0], initial=math.inf))
    return low if low > 0.0 else 0.0


def _root_discs(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Least and greatest modulus on each of the discs that hold the zeros.

    Zero coefficients of the highest powers are trimmed first, as
    ``np.roots`` drops them; that leaves degree d and leading coefficient
    c_d, and a constant (d = 0) has no discs.  Let a_i be the ``np.roots``
    approximations to the d zeros and
    w_i = p(a_i) / (c_d prod_{j != i} (a_i - a_j)).  Lagrange interpolation
    at the a_i gives p(z) = c_d det(z I - M) with M = diag(a) - w 1^T, so by
    Gerschgorin's theorem every zero of p lies in a disc
    |z - (a_i - w_i)| <= (d - 1)|w_i| (B. T. Smith, J. ACM 17, 1970),
    however far the a_i are off, and a connected component of k discs holds
    k zeros.

    Rounding.  ``np.polyval`` is Horner's rule: each of its d steps makes
    one complex product (relative error at most sqrt(2) gamma_2) and one
    sum (at most u), so the computed p(a_i) lies within
    gamma_{4d+1} sum_k |c_k| |a_i|^k of the exact value, where u = 2^-53 and
    gamma_n = n u / (1 - n u) (Higham, *Accuracy and Stability of Numerical
    Algorithms*, Lemma 3.5 and section 5.1).  The product and the quotient
    that form w_i add relative error below gamma_{4d+4}.  gamma = 8(d + 1) u
    is about twice both, which leaves room for the second-order terms and
    for the rounding of the discs' own few operations.  So
    E_i = gamma (sum_k |c_k| |a_i|^k / |c_d prod (a_i - a_j)| + |w_i|
    + |a_i - w_i|) exceeds the error of the computed w_i, and its last term
    covers the rounding of the disc arithmetic.  With computed w_i the
    returned moduli are |a_i - w_i| - (d - 1)|w_i| - d E_i and
    |a_i - w_i| + (d - 1)|w_i| + d E_i; coincident approximations make w_i
    infinite and the moduli not numbers.
    """
    nonzero = np.flatnonzero(coeffs)
    p = coeffs[: nonzero[-1] + 1 if nonzero.size else 0][::-1]
    d = p.size - 1
    if d < 1:
        return np.empty(0), np.empty(0)
    a = np.roots(p)
    gaps = a[:, None] - a
    np.fill_diagonal(gaps, 1.0)
    scale = p[0] * np.prod(gaps, axis=1)
    gamma = 8.0 * (d + 1) * _UNIT_ROUNDOFF
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        w = np.polyval(p, a) / scale
        centre = np.abs(a - w)
        err = gamma * (np.polyval(np.abs(p), np.abs(a)) / np.abs(scale) + np.abs(w) + centre)
        low = centre - (d - 1) * np.abs(w) - d * err
        high = centre + (d - 1) * np.abs(w) + d * err
    return low, high


def _bracket_root(
    probe: Callable[[float], tuple], hi: float, f_hi: float, tol: float
) -> tuple[float, tuple | None, int]:
    """Largest passing radius in [0, hi] to within ``tol``.

    ``probe(r)`` returns a tuple (f, ...) and r passes when f > 0.  The
    bracket starts from lo = 0, which passes with f = 1 (c_1 of a normalized
    series), and ``hi``, which fails with value ``f_hi`` (-inf if it has none).
    Steps are Anderson-Bjorck regula falsi: the secant root of the bracket's
    values, where an end kept twice in a row has its value scaled down so
    that both ends close in.  A step bisects instead while the failing end
    has no finite value, on the first probe (m falls steeply near a guard
    zero, so the secant through f(0) = 1 lands near 0), and whenever a
    secant step that fails to shrink the bracket would leave too few probes
    to finish by bisection; so a solve never takes more than
    ceil(log2(max(hi, tol) / tol)) + 4 probes, and none when hi = 0.  Stops
    when hi - lo <= tol and returns (lo, the tuple of the probe at lo or
    None when lo = 0, probes made).
    """
    lo, f_lo, data = 0.0, 1.0, None
    budget = math.ceil(math.log2(max(hi, tol) / tol)) + 4
    probes = 0
    passed_last: bool | None = None
    while hi - lo > tol:
        x = 0.5 * (lo + hi)
        secant_ok = hi - lo <= tol * 2.0 ** (budget - probes - 1)
        if probes and math.isfinite(f_hi) and secant_ok:
            x = (f_hi * lo - f_lo * hi) / (f_hi - f_lo)
            x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        found = probe(x)
        f = found[0]
        probes += 1
        if f > 0.0:
            if passed_last:
                f_hi *= _ab_factor(f, f_lo)
            lo, f_lo, data = x, f, found
        else:
            if passed_last is False and math.isfinite(f_hi):
                f_lo *= _ab_factor(f, f_hi)
            hi, f_hi = x, f
        passed_last = f > 0.0
    return lo, data, probes


def _ab_factor(f_new: float, f_old: float) -> float:
    """Anderson-Bjorck scale for the value of the end kept twice in a row."""
    m = 1.0 - f_new / f_old if f_old else 0.0
    return m if m > 0.0 else 0.5
