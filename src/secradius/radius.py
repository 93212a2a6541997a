"""Boundary scans, zero counting, and radius solvers for disc criteria.

A *criterion* attaches to each polynomial s a real field on the disc whose
positivity expresses a geometric property:

================  ======================  ============  =====================
criterion         field                   num / den     property on |z| < r
================  ======================  ============  =====================
re-deriv          Re s'(z)                s' / 1        derivative has
                                                        positive real part
convex            Re(1 + z s''(z)/s'(z))  (z s')' / s'  convexity
starlike          Re(z s'(z)/s(z))        s' / (s/z)    starlikeness w.r.t. 0
local-univalence  none                    guard s'      s' does not vanish
================  ======================  ============  =====================

Local univalence has no field: it asks only that s' be zero-free, and the
certified guard bound of s' (below) is its radius.

Each field is harmonic wherever its defining quotient is analytic, so its
minimum over a closed disc sits on the bounding circle.  Every field is
Re(num/den) for the two polynomials of one table, Re s' included (den = 1),
and :func:`_field_scan` prepares such a field once per solve.  Each circle then
costs one inverse FFT of the stacked coefficient rows for a grid scan, and
safeguarded Newton steps near the grid argmin, each one Horner pass over
both polynomials; :func:`boundary_min` and ``verify``'s scans of g and
Re (1-z)^{-3} are one-probe cases, and :func:`_section_margins`, the sweep
behind ``verify``'s theorem-1 suite, scans a member's sections one FFT
each, skipping those that a certified lower bound puts above its running
minimum.  A negative arc of the field narrower than a grid cell, away from
the grid argmin, can go unseen.

:func:`criterion_radius` solves for the radius where the boundary minimum
changes sign, inside [0, rho): rho is a certified lower bound on the root
moduli of the denominator (the *guard*), so no pole enters the disc and a
positive boundary minimum proves the criterion.  There the minimum is
non-increasing in r: Newton on (r, theta) at the field's minimum, on point
evaluations whose r-derivatives come free, finds the radius, a scan just
below confirms it, and bisection on the scans closes what Newton leaves
open.  rho is first a root-free bound, from three Graeffe squarings and
Cauchy's bound (:func:`_graeffe_bound`); only a search that reaches it
finds the roots, and then rho is the larger of it and the least modulus on
Gerschgorin discs around the ``np.roots`` approximations
(:func:`_root_discs`).  :func:`count_zeros` counts the zeros inside a
circle on those discs, exactly unless a disc meets the circle.  Both that
and a field denominator vanishing at a scanned point raise
:class:`ZeroOnCircleError`: a zero on the circle to working precision.

Rounding model.  Each certified bound errs small in floating point by these
facts (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.):
(U) u = 2^-53 and gamma_n = n u / (1 - n u); +, -, *, / and ``sqrt`` err by
    at most u relative, libm ``pow``, ``hypot``, ``cos`` and ``sin`` by one ulp, 2u.
(P) Complex products err by at most sqrt(2) gamma_2 relative, sums by u (Lemma 3.5).
(D) A complex quotient, numpy's or CPython's, errs normwise by at most
    sqrt(2) gamma_4 relative: Lemma 3.5 for the textbook formula, assumed for
    the scaled (Smith-type) algorithms both libraries use; numpy divides
    complex by real through a rounded reciprocal.
(H) Horner's rule of degree d at z (:func:`_point_jet`, ``np.polyval``) errs
    by at most gamma_{4d} sum_k |c_k| |z|^k, gamma_{2d} on real data: a step
    errs by gamma_4, or gamma_2, by (P); the first, 0 z + c_d, is exact (section 5.1).
(S) A sum of m real terms, in any order, errs by at most gamma_{m-1} times
    the sum of their moduli, and an entry of ``np.convolve``, which sums m
    complex products, by gamma_{m+2} times theirs (Lemma 3.1, sections 3.1 and 4.2).
(F) A value of :func:`_circle_values` of a row x, G = grid >= len(x) and
    L = log2 G, errs by at most (8 L sqrt(G) + 4) u sum_k |x_k| r^k: scaling
    by r^k errs by gamma_3 (U), and a radix-2 FFT with weights within
    mu <= 2u errs in the 2-norm by L eta / (1 - L eta) < 8 L u times the
    exact transform's, sqrt(G) times the row's, eta = mu + gamma_4 (sqrt(2) +
    mu) (section 24.1); a longer row first sums ceil(len(x) / G) entries per
    column (S).  Assumed, not proved: pocketfft's weights meet mu, and its
    radix-4 and radix-8 passes keep the bound of 2 and 3 radix-2 levels, as a
    term meets at most as many sums and products by constants within mu.
(C) A bound's code takes a multiple of u at least twice the gamma_n it
    needs, which leaves room for second-order terms and its own arithmetic.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import zip_longest
from typing import Callable

import numpy as np

from .exceptions import ValidationError, ZeroOnCircleError
from .series import TruncatedSeries, _integer, _numbers, _radius, is_normalized

__all__ = [
    "Criterion",
    "BoundaryScan",
    "RadiusResult",
    "RADIUS_CAP",
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
_THETA_TOL = 1e-12  # Newton step at which _refine stops
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
    min_value: float
    argmin_theta: float


@dataclass(frozen=True)
class RadiusResult:
    """Outcome of a radius solve for the largest good disc.

    ``radius`` is the largest radius at which the criterion was verified to
    hold, at most the solve's ``tol`` below the true one provided its grid
    resolves every negative arc of the field; a criterion holding at the cap
    reports 1.0, and ``clamped`` is true exactly then (every other radius is
    at most ``RADIUS_CAP``).  A negative arc narrower than a grid
    cell, away from the grid argmin, goes unseen and the radius errs large
    (the strict xfail
    ``test_starlike_radius_errs_small_when_the_grid_misses_a_narrow_dip``).
    ``witness`` is the boundary scan of the probe that certified the radius
    (None when even tiny discs fail, when nothing bounds the guard's zeros
    away from 0, and for local univalence, which probes nothing).
    At most ``tol`` above ``radius`` lies the guard bound, the cap, a failing
    probe or a point of a circle where the computed field is <= 0.
    ``iterations`` counts boundary-scan probes: at most
    ceil(log2(max(width, tol) / tol)) + 9 for each of the one or two
    searches of :func:`criterion_radius`, each over a bracket of that width.
    A search makes at most 5 tangent probes, 3 Newton probes and that many
    bisections; one that stops at its top after its tangents alone is
    searched again with no tangent, after at most one probe of the cap.
    """

    radius: float
    witness: BoundaryScan | None
    iterations: int

    @property
    def clamped(self) -> bool:
        return self.radius == 1.0


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


def _field_parts(s: TruncatedSeries, criterion: Criterion) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients (num, den) of the polynomials that make up the field.

    The field is Re(num/den), with den = 1 for Re s';
    :func:`_point_jet` and :func:`_field_scan` evaluate it.  ``den`` is also
    the guard polynomial whose zeros inside the disc void the boundary
    argument (a constant has none).  For starlikeness num(0)/den(0) = c_1/c_1,
    so z = 0 needs no special case.  Local univalence has no field (its
    radius is the guard bound of s'), so it raises :class:`ValidationError`.
    """
    if criterion is Criterion.LOCAL_UNIVALENCE:
        raise ValidationError("local-univalence has no boundary field")
    c = s.coeffs
    m = np.arange(1, c.size)
    ds = c[1:] * m
    if criterion is Criterion.RE_DERIV:
        return ds, np.ones(1)
    if criterion is Criterion.CONVEXITY:
        # 1 + z s''/s' = (z s')'/s', and (z s')' = sum m^2 c_m z^(m-1)
        return ds * m, ds
    # z s'/s = s'/(s/z); s/z drops the zero of s at the origin
    return ds, c[1:]


def _re_theta_jet(
    z: complex, h: complex, h1: complex, h2: complex
) -> tuple[float, float, float, float, float]:
    """Re h, its first two theta-derivatives, and r d/dr and r d^2/dr dtheta of Re h at
    z = r e^{i theta}, from h1 = h'(z) and h2 = h''(z): with w = z h' + z^2 h'',
    d/dtheta h = i z h', d^2/dtheta^2 h = -w, r d/dr h = z h' and r d/dr (i z h') = i w."""
    zh1 = z * h1
    w = zh1 + z * z * h2
    return h.real, -zh1.imag, -w.real, zh1.real, -w.imag


def _point_jet(parts: tuple) -> Callable[[complex], tuple[float, ...]]:
    """Closure giving (phi, phi', phi'', r phi_r, r phi_r') at a point for
    :func:`_field_parts` output.

    phi = Re(num/den) is the field, the primes are theta-derivatives along
    the circle through the point and phi_r is d/dr.  One plain-Python Horner pass from
    the highest power gives the numerator's and denominator's values and
    first two derivatives in one loop (the shorter padded with zeros); for
    the short polynomials here this beats numpy arrays point by point.
    With den = 1 the quotient's jet is the numerator's, exactly.
    """
    pairs = list(zip_longest(parts[0].tolist(), parts[1].tolist(), fillvalue=0j))[::-1]

    def quotient(z: complex) -> tuple[float, ...]:
        n = n1 = n2 = d = d1 = d2 = 0j
        for a, b in pairs:
            n2 = n2 * z + n1
            n1 = n1 * z + n
            n = n * z + a
            d2 = d2 * z + d1
            d1 = d1 * z + d
            d = d * z + b
        if abs(d) < _POLE_TOL:
            raise ZeroOnCircleError(f"field denominator vanishes at the point (z = {z!r})")
        q = n / d
        q1 = (n1 - q * d1) / d
        q2 = (2.0 * n2 - 2.0 * q1 * d1 - q * (2.0 * d2)) / d
        return _re_theta_jet(z, q, q1, q2)

    return quotient


def _circle_values(rows: np.ndarray, r: float, grid: int) -> np.ndarray:
    """Each row's polynomial at r e^{2 pi i k / grid}, k < grid: one row-wise inverse FFT of
    the r-scaled rows (pocketfft transforms each row alone), folded modulo ``grid`` when
    longer (powers m and m + grid meet the same roots)."""
    scaled = rows * r ** np.arange(rows.shape[1], dtype=np.float64)
    if scaled.shape[1] > grid:
        scaled = np.pad(scaled, ((0, 0), (0, -scaled.shape[1] % grid)))
        scaled = scaled.reshape(len(rows), -1, grid).sum(axis=1)
    return np.fft.ifft(scaled, n=grid, norm="forward")


def _field_scan(parts: tuple, grid: int) -> Callable[[float], tuple[float, float]]:
    """``scan(r) -> (value, theta)``, the minimum of the field Re(num/den) of
    :func:`_field_parts` output on |z| = r: :func:`_refine` of ``scan.field(r)``, the
    field at the angles 2 pi k / grid from :func:`_circle_values`, by ``scan.jet``, the
    field's :func:`_point_jet`.  Rows, jet and mirror flag are made once, and a solve's
    Newton steps take the same jet.  The row of den = 1 transforms to exactly 1, and
    dividing by it is exact."""
    rows = np.zeros((2, max(p.size for p in parts)), dtype=np.complex128)
    for row, p in zip(rows, parts):
        row[: p.size] = p
    jet = _point_jet(parts)
    mirror = not np.count_nonzero(rows.imag)

    def field(r: float) -> np.ndarray:
        num, den = _circle_values(rows, r, grid)
        bad = int(np.abs(den).argmin())
        if abs(den[bad]) < _POLE_TOL:
            z = cmath.rect(r, bad * (_TWO_PI / grid))
            raise ZeroOnCircleError(f"field denominator vanishes on the scan circle (z = {z!r})")
        return (num / den).real

    def scan(r: float) -> tuple[float, float]:
        return _refine(jet, field(r), r, mirror)

    scan.field = field
    scan.jet = jet
    return scan


def _refine(jet: Callable, values: np.ndarray, r: float, mirror: bool) -> tuple[float, float]:
    """(value, theta), the field's minimum on |z| = r from its ``values`` at the
    angles 2 pi k / len(values) and its :func:`_point_jet` ``jet``.

    Newton steps stay inside the two cells next to the grid argmin (the
    least theta on ties).  They start at the vertex of the parabola through
    the argmin's value and its two neighbours', which lies within half a
    cell of the argmin, or at the argmin when that parabola is not convex.
    Each step moves the bracket end on the derivative's side, and a step
    that is not Newton with positive finite second derivative inside the
    bracket is its midpoint.  A step of at most ``_THETA_TOL`` stops, tested
    before the bracket (the Newton step at a grid-point minimum can round
    onto its end).  The least (value, theta) evaluated, the grid point
    included, is returned with theta in [0, 2*pi), mirrored into [0, pi]
    when ``mirror`` says every coefficient is real (the field is then even
    in theta), so rounding cannot decide which of two equal minima a report
    names.
    """
    step = _TWO_PI / values.size
    k = int(values.argmin())
    theta = k * step
    lo, hi = theta - step, theta + step
    best = (float(values[k]), theta)
    left, right = float(values[k - 1]), float(values[(k + 1) % values.size])
    curve = left - 2.0 * best[0] + right
    if curve > 0.0:
        theta += 0.5 * step * (left - right) / curve
    while True:
        value, d1, d2, _, _ = jet(cmath.rect(r, theta))
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
    if theta == _TWO_PI:  # a theta just below 0 rounds up
        theta = 0.0
    if theta > math.pi and mirror:
        theta = _TWO_PI - theta
    return best[0], theta


def _section_margins(
    f: TruncatedSeries, best: float, r: float, grid: int
) -> list[tuple[float, float]]:
    """``boundary_min(section(f, n), "re-deriv", r, grid)``'s (value, theta), n = 2..f.order,
    bit for bit, except (inf, 0.0) for a section proved to stay above ``best``.

    s_n' = sum_{k<n} b_k z^k is a prefix of f'.  With a_k = |b_k| r^k,
    t_n = sum_{1<=k<n} a_k and h = 2 pi / ``grid``, two lower bounds on
    Re s_n' over |z| <= r skip work, each lowered by the slack e_n below:

    * the cell bound low_n = min(row) - c_n - e_n, c_n = (h^2/8) sum_{k<n}
      k^2 a_k, of section n's grid row (one inverse FFT,
      :func:`_circle_values`).  On the circle, phi(theta) = Re s_n'(r e^{i
      theta}) has |phi''| <= sum k^2 a_k, so in each grid cell phi lies above
      the chord of its end values, less c_n (the error of linear
      interpolation), and by the minimum principle so does Re s_n' on the
      disc.  A row that it puts above ``best`` is not refined
      (:func:`_refine`, with the section's own jet and mirror flag);
    * the lifted coefficient bound lift - t_n - e_n.  Re s_n' >= Re b_0 - t_n,
      and since s_n' = s_m' + sum_{m<=k<n} b_k z^k, Re s_n' >= low_m + t_m -
      t_n for each row m < n transformed; lift is the largest of Re b_0 and
      those low_m + t_m.  For a fixed lift the bound falls with n, as
      computed too (t_n and e_n grow, and rounding is monotone), so the
      sections it puts above ``best`` are a prefix of those left, counted by
      one comparison; the row after them is transformed.

    Rounding, by the module's model ((F), (H), (S), (U)).  Let G = ``grid``,
    L = log2 G, N = f.order and A_n = sum_{k<n} a_k.  The slack
    e_n = 16 (L sqrt(G) + 2N) u (A_n + c_n) covers the rounding of the
    bounds and of every value the unskipped path would compute, so a skipped
    section could not have reported a value below ``best``.  (1) A grid value
    errs from phi by at most (8 L sqrt(G) + 4) u A_n (F); a row longer than G
    first sums N / G entries per column, which the N term covers.  (2) A
    Newton value is Horner's rule at z = ``cmath.rect(r, theta)``, within
    gamma_3 r of the circle (U), so it errs by gamma_{3n} A_n plus
    gamma_{4n} (1 + gamma_{3n}) A_n (H), together gamma_{7n} A_n.  So every
    reported value is at least min phi less the sum of (1) and (2).  (3) Each
    a_k (hypot, pow and a product) errs by gamma_5 (U), so the cumulative
    sums err by gamma_{n+3} A_n and c_n by gamma_{n+8} c_n (S), the two
    subtractions of each bound by u times their operands, and e_n by
    gamma_{n+12} e_n.  The cell bound also carries (1) of min(row).  (1)
    twice, (2) and (3) add to less than e_n for every n <= N: the FFT's error
    twice is below 16 L sqrt(G) u A_n + 8 u A_n, and the rest below
    (9 N + 6) u (A_n + c_n).  In the lifted bound, e_m covers row m's own
    errors, (1) of min(row) and (3) of c_m and of two subtractions, so low_m
    is at most min Re s_m' on the disc.  e_n covers the rest: the error of a
    value reported for section n, (1) or (2); the difference t_n - t_m of two
    computed sums, within 2 gamma_{n+3} A_n; and three subtractions,
    low_m + t_m, - t_n and - e_n, whose operands stay below 4 (A_n + c_n); in
    all, less than 8 L sqrt(G) u A_n + (9 N + 25) u (A_n + c_n) < e_n.
    """
    b = _field_parts(f, Criterion.RE_DERIV)[0]
    k = np.arange(b.size)
    a = np.abs(b) * r**k
    tail = np.cumsum(a[1:])  # t_n, n = 2..N
    curve = (_TWO_PI / grid) ** 2 / 8.0 * np.cumsum(k * k * a)[1:]  # c_n
    gamma = 16.0 * (math.log2(grid) * math.sqrt(grid) + 2.0 * b.size) * _UNIT_ROUNDOFF
    slack = gamma * (a[0] + tail + curve)  # e_n
    lift = b[0].real
    margins: list[tuple[float, float]] = []
    while (j := len(margins)) < tail.size:
        skipped = np.count_nonzero(lift - tail[j:] - slack[j:] > best)
        if skipped:
            margins += [(math.inf, 0.0)] * skipped
            continue
        deriv = b[: j + 2]  # s_n', n = j + 2
        row = _circle_values(deriv[None], r, grid)[0].real
        low = row.min() - curve[j] - slack[j]
        if low > best:
            margins.append((math.inf, 0.0))
        else:
            jet = _point_jet((deriv, np.ones(1)))
            margins.append(_refine(jet, row, r, not np.count_nonzero(deriv.imag)))
        lift = max(lift, low + tail[j])
    return margins


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
    return BoundaryScan(r=r, min_value=value, argmin_theta=theta)


def count_zeros(s: TruncatedSeries, r: float) -> int:
    """Number of zeros of ``s`` in |z| < r, counted on certified root discs.

    After :func:`_trim_top`, k zero coefficients of the lowest powers count
    as k zeros at the origin, and :func:`_root_discs` encloses the zeros of
    what remains.  When no disc meets the circle |z| = r, each connected
    component of their union lies wholly inside or wholly outside the
    circle, and by Gerschgorin's second theorem holds as many zeros as
    discs; so the count, the origin's zeros plus the discs inside, is exact.

    Raises :class:`ZeroOnCircleError` when ``s`` is identically 0, or when
    a disc meets the circle or is not finite (coincident root
    approximations): the discs then cannot place a zero on either side.
    """
    r = _radius(r)
    c = _trim_top(s.coeffs)
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
    has no zeros inside the disc.  On [0, rho), with ``rho`` a certified
    lower bound on the guard's root moduli, the field is harmonic on the
    disc and m is non-increasing.  The field is prepared once, as a
    :func:`_field_scan` with its jet, and :func:`_search` finds the
    root on [0, min(rho, cap)], whose top end fails unprobed: the field at a
    guard zero can look positive.  ``rho`` is first the root-free
    :func:`_graeffe_bound`.  Only when a search reaches it, no probe having
    failed, does :func:`_guard_bound` find the roots; both bounds are
    certified, so a second search goes on from the passing end up to the
    larger.  A search that stops at its unprobed top is searched again from
    a Newton start.  A cap below ``rho`` is probed once: passing there
    clamps, and the start is its failure.  Below a bound the start is the
    last passing probe, from which Newton's steps stay below the bound and
    bisection closes the bracket.  No evaluated point meets a pole.  Bounds
    of 0 leave the empty bracket [0, 0]: radius 0.0, no witness, no probe.

    Local univalence asks only that the guard s' be zero-free, which is what
    the discs' bound :func:`_guard_bound` certifies: its radius is that
    bound itself, with no probe and no witness, below the first zero of s'
    by the width of the root discs.

    The result errs small, by at most ``tol``, provided ``grid_size``
    resolves every negative arc of the field on the probed circles: a
    narrower arc away from the grid argmin is missed, and the radius then
    errs large (see :class:`RadiusResult`).  A criterion surviving at the
    cap 1 - 1e-6 reports radius 1.0, which reads as ``clamped``.
    """
    criterion = Criterion(criterion)
    if not is_normalized(s):
        raise ValidationError("criterion_radius requires a normalized series")
    tol = float(_numbers(tol, np.float64, "tol", scalar=True))
    if tol < 1e-12:
        raise ValidationError(f"tol must be at least 1e-12, got {tol}")
    grid_size = _integer(grid_size, 16, "grid_size")
    if criterion is Criterion.LOCAL_UNIVALENCE:
        rho = _guard_bound(_field_parts(s, Criterion.RE_DERIV)[0])
        return RadiusResult(1.0 if rho > RADIUS_CAP else rho, None, 0)
    parts = _field_parts(s, criterion)
    guard = parts[1]
    rho = _graeffe_bound(guard)
    scan = _field_scan(parts, grid_size)
    top = min(rho, RADIUS_CAP)
    r, hi, found, probes = _search(scan, 0.0, None, top, tol)
    if hi == top and rho <= RADIUS_CAP:
        # the search reached the root-free bound: the tight discs may lift it
        rho = max(rho, _guard_bound(guard))
        top = min(rho, RADIUS_CAP)
        r, hi, found, more = _search(scan, r, found, top, tol)
        probes += more
    if hi == top:  # the search stopped at its unprobed top: search again from a start below it
        start = (r, found[1]) if found else None
        if top < rho:
            fail = scan(RADIUS_CAP)
            probes += 1
            if fail[0] > 0.0:
                return RadiusResult(1.0, BoundaryScan(RADIUS_CAP, *fail), probes)
            start = (RADIUS_CAP, fail[1])
        r, hi, found, more = _search(scan, r, found, top, tol, start)
        probes += more
    witness = None if found is None else BoundaryScan(r, *found)
    return RadiusResult(r, witness, probes)


def _trim_top(coeffs: np.ndarray) -> np.ndarray:
    """``coeffs`` less the zero coefficients of its highest powers (all, for the zero
    polynomial), which ``np.roots`` drops too: the degree is that of what is left."""
    nonzero = np.flatnonzero(coeffs)
    return coeffs[: nonzero[-1] + 1 if nonzero.size else 0]


def _graeffe_bound(coeffs: np.ndarray) -> float:
    """Certified lower bound on the root moduli of the polynomial with
    ``coeffs``, found with no eigenvalues.

    :func:`_trim_top` leaves degree d, and a constant (d = 0) has no zeros:
    inf.  Three Graeffe squarings h(z^2) = p(z) p(-z), each the even entries
    of one ``np.convolve``, give a degree-d h whose zeros are the eighth
    powers of p's.  If |w| <= x, then |h(w)| >= |h_0| - sum_{k>=1} |h_k| x^k,
    so every zero of h lies beyond the positive root x of Cauchy's equation
    |h_0| = sum_{k>=1} |h_k| x^k, and every zero of p lies beyond x^(1/8).
    This is the k = 0 case of Pellet's test (Becker, Sagraloff, Sharma and
    Yap, J. Symbolic Comput. 86, 2018).  The bound is at least
    (2^(1/d) - 1)^(1/8) times the least root modulus, 0.63 times at d = 29.

    Rounding, by the module's model.  Let A be the same squarings of the
    moduli |c_k| with no signs (one more ``np.convolve`` each); it bounds
    the moduli of the exact coefficients and, to first order, of the
    computed ones.  A squaring's entry sums at most d + 1 products, so it
    errs by gamma_{d+3} A' (S).  If its inputs err by at most eta A, entry by
    entry, its outputs err by ((1 + eta)^2 (1 + gamma_{d+3}) - 1) A', and
    after three squarings by (1 + gamma_{d+3})^7 - 1, about 7 gamma_{d+3}.
    With gamma = 2(d + 3) u (C), e = 8 gamma A bounds the error of the
    computed h, with room for the rounding of A, of the moduli and of the
    sums below.  It is solved for |h_0| - e_0 = sum_{k>=1} (|h_k| + e_k) x^k,
    whose root lies below the exact one: Newton steps on the logarithm of
    both sides, whose right side is convex in log x, descend onto it from
    min_k ((|h_0| - e_0) / (|h_k| + e_k))^(1/k), and the last step is
    lowered until the right side, by Horner's rule times 1 + gamma (covering
    gamma_{2d+1}, (H) on real data), falls below the left.  Three square
    roots and a factor 1 - 4u round x^(1/8) down (U).  With nonzero moduli
    in [2^-32, 2^32], every nonzero product of eight lies in [2^-256, 2^256],
    so nothing that matters underflows and the quotients above stay finite;
    other moduli give the bound 0.0, as does e_0 >= |h_0|.
    """
    h = _trim_top(coeffs)
    d = h.size - 1
    if d < 1:
        return math.inf
    mag = np.abs(h)
    moduli = mag[mag > 0.0]
    if moduli.min() < 2.0**-32 or moduli.max() > 2.0**32:
        return 0.0
    sign = np.resize([1.0, -1.0], d + 1)
    for _ in range(3):
        h = np.convolve(h, h * sign)[::2]
        mag = np.convolve(mag, mag)[::2]
    gamma = 2.0 * (d + 3) * _UNIT_ROUNDOFF
    err = 8.0 * gamma * mag
    b = float(abs(h[0]) - err[0])
    if not b > 0.0:
        return 0.0
    a = list(enumerate((np.abs(h[1:]) + err[1:]).tolist(), 1))
    x = min((b / c) ** (1.0 / k) for k, c in a if c > 0.0)
    pairs = [(c, k * c) for k, c in reversed(a)]

    def horner(x: float) -> tuple[float, float]:
        """sum_{k>=1} a_k x^(k-1) and sum_{k>=1} k a_k x^(k-1)."""
        g = slope = 0.0
        for c, kc in pairs:
            g = g * x + c
            slope = slope * x + kc
        return g, slope

    while True:
        g, slope = horner(x)
        step = math.log(g * x / b) * g / slope
        if not step > 1e-14:
            break
        x *= math.exp(-step)
    shrink = gamma
    while horner(x)[0] * x * (1.0 + gamma) >= b:
        x *= 1.0 - shrink
        shrink *= 2.0
    return math.sqrt(math.sqrt(math.sqrt(x))) * (1.0 - 4.0 * _UNIT_ROUNDOFF)


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

    :func:`_trim_top` leaves degree d and leading coefficient c_d, and a
    constant (d = 0) has no discs.  Let a_i be the ``np.roots`` approximations
    to the d zeros and w_i = p(a_i) / (c_d prod_{j != i} (a_i - a_j)).
    Lagrange interpolation at the a_i gives p(z) = c_d det(z I - M) with
    M = diag(a) - w 1^T, so by Gerschgorin's theorem every zero of p lies in
    a disc |z - (a_i - w_i)| <= (d - 1)|w_i| (B. T. Smith, J. ACM 17, 1970),
    however far the a_i are off, and a connected component of k discs holds
    k zeros.

    Rounding, by the module's model.  The computed p(a_i) lies within
    gamma_{4d} sum_k |c_k| |a_i|^k of the exact value (H), and the
    differences and products (P) and the quotient (D) that form w_i add
    relative error below gamma_{4d+4}; gamma = 8(d + 1) u (C).  So
    E_i = gamma (sum_k |c_k| |a_i|^k / |c_d prod (a_i - a_j)| + |w_i|
    + |a_i - w_i|) exceeds the error of the computed w_i, and its last term
    covers the rounding of the disc arithmetic.  With computed w_i the
    returned moduli are |a_i - w_i| - (d - 1)|w_i| - d E_i and
    |a_i - w_i| + (d - 1)|w_i| + d E_i; coincident approximations make w_i
    infinite and the moduli not numbers.
    """
    p = _trim_top(coeffs)[::-1]
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


def _search(
    scan: Callable[[float], tuple[float, float]],
    lo: float,
    data: tuple | None,
    hi: float,
    tol: float,
    start: tuple[float, float] | None = None,
) -> tuple[float, float, tuple | None, int]:
    """Largest passing radius in [lo, hi] to within ``tol``, by Newton on (r, theta).

    ``scan`` is the field's :func:`_field_scan`, and the jet is its ``scan.jet``;
    r passes when the value of ``scan(r)`` is > 0.  ``lo`` passes, with the probe
    (value, theta) ``data``, or with value c_1 = 1 when ``data`` is None (lo = 0).
    ``hi`` fails unprobed: a guard bound, the cap, or a point that failed.
    Without a Newton ``start`` point (r, theta) the midpoint is probed first.  From
    a passing probe (r, theta*, m) the step is the Danskin tangent r - m r / (r d/dr
    phi) at theta*, at least 0.9 ``tol`` above r and capped at hi - (hi - r)/8, and
    a jet value <= 0 there fails it unprobed.  A tangent at or past ``hi`` (or a
    slope that is not negative) returns with ``hi`` unchanged if ``hi`` is the cap
    or five tangents are spent.  Then, while hi - lo > ``tol``: from the last
    failing point (or ``start``) :func:`_newton` finds the root, where a probe 0.45
    ``tol`` below it passes, or fails and is the next start (three rounds at most),
    and a jet value <= 0 0.45 ``tol`` above it becomes ``hi``; otherwise the
    midpoint is probed.  So a search makes at most 5 tangent probes, 3 Newton
    probes and ceil(log2(max(hi - lo, tol) / tol)) bisections.  Returns (lo, hi,
    the probe at lo or ``data``, probes made), ``hi`` unchanged when nothing failed.
    """
    if hi - lo <= tol:
        return lo, hi, data, 0
    probes = 0
    x = 0.5 * (lo + hi)
    for tangents in range(5 if start is None else 0):
        found = scan(x)
        probes += 1
        if not found[0] > 0.0:
            hi, start = x, (x, found[1])
            break
        lo, data = x, found
        slope = scan.jet(cmath.rect(x, found[1]))[3]
        step = x - x * found[0] / slope if slope < 0.0 else math.inf
        if step >= hi and (hi == RADIUS_CAP or tangents == 4):
            return lo, hi, data, probes
        x = min(max(step, x + 0.9 * tol), hi - (hi - x) / 8.0)
        if not scan.jet(cmath.rect(x, found[1]))[0] > 0.0:
            hi, start = x, (x, found[1])
            break
    rounds = 0
    while hi - lo > tol:
        if start is not None and rounds < 3:
            rounds += 1
            hi, root = _newton(scan.jet, *start, lo, hi, tol)
            start = None
            if root is None:
                continue
            x = root[0] - 0.45 * tol
            if lo < x < hi:
                found = scan(x)
                probes += 1
                if not found[0] > 0.0:
                    hi, start = x, (x, found[1])
                    continue
                lo, data = x, found
            x = root[0] + 0.45 * tol
            if lo < x < hi and not scan.jet(cmath.rect(x, root[1]))[0] > 0.0:
                hi = x
            continue
        x = 0.5 * (lo + hi)
        found = scan(x)
        probes += 1
        if found[0] > 0.0:
            lo, data = x, found
        else:
            hi, start = x, (x, found[1])
    return lo, hi, data, probes


def _newton(
    jet: Callable, r: float, theta: float, lo: float, hi: float, tol: float
) -> tuple[float, tuple[float, float] | None]:
    """(hi, root): Newton on (phi, d/dtheta phi) = 0 in (r, theta), where the field's
    minimum on |z| = r touches 0.  With a = r d/dr phi and b = r d^2/dr dtheta phi,
    the Jacobian's determinant is (a phi'' - b phi') / r, negative at a minimum that
    falls as r grows.  The root is the (r, theta) after a step |dr| <= 10 ``tol``,
    and None when the determinant is not negative, a step leaves (lo, hi) or 16 steps
    pass.  Each point where the field is <= 0 lowers ``hi``."""
    for _ in range(16):
        value, d1, d2, a, b = jet(cmath.rect(r, theta))
        if not value > 0.0:
            hi = r
        det = a * d2 - b * d1
        if not det < 0.0:
            break
        dr = r * (d1 * d1 - value * d2) / det
        theta += (b * value - a * d1) / det
        r += dr
        if abs(dr) <= 10.0 * tol:
            return hi, (r, theta)
        if not lo < r < hi:
            break
    return hi, None
