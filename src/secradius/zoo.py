"""Canonical series and a generator for the family F.

F is the family of normalized analytic functions on the unit disk whose
curvature quotient satisfies Re(1 + z f''/f') > -1/2.  Writing

    1 + (2/3) z f''(z)/f'(z) = p(z)

turns that condition into membership of p in the Caratheodory class
(p(0) = 1, Re p > 0).  We represent p by a finite atomic average of Moebius
kernels (1 + x z)/(1 - x z) with unimodular x, which gives the coefficients
p_j = 2 * sum_k w_k x_k^j in closed form, and recover f' coefficient by
coefficient from the recurrence obtained by matching powers of z:

    c_0 = 1,   c_m = (3 / (2 m)) * sum_{j=1}^{m} p_j c_{m-j},

with a_{m+1} = c_m / (m + 1).

Landmark members used throughout: the Koebe function z/(1-z)^2, the
half-plane map z/(1-z), and the extremal f0(z) = (z - z^2/2)/(1-z)^2 with
coefficients (n+1)/2, whose derivative is 1/(1-z)^3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .series import TruncatedSeries, _integer, _numbers

__all__ = [
    "HerglotzSpec",
    "GENERATOR_NAME",
    "koebe",
    "half_plane",
    "f0",
    "p_coeffs",
    "synthesize_F",
    "rotation",
    "sample_specs",
    "spec_from_seed",
]

# Recorded in reports so a run can be replayed with the same bit stream.
GENERATOR_NAME = "numpy.random.Generator(PCG64)"

_UNIT_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class HerglotzSpec:
    """Finite atomic measure defining a Caratheodory-class function.

    ``weights`` are positive reals summing to 1; ``points`` are unimodular
    complex numbers.  ``seed`` records how the spec was sampled, an integer
    of at least 0 (None for hand-built specs); a spec sampled by
    :func:`sample_specs` can be regenerated alone from its recorded seed.
    The constructor is the one way to build a spec and checks all of this.
    """

    weights: np.ndarray
    points: np.ndarray
    seed: int | None = None

    def __post_init__(self):
        w = _numbers(self.weights, np.float64, "weights")
        x = _numbers(self.points, np.complex128, "points")
        if w.ndim != 1 or x.ndim != 1 or w.size == 0 or w.shape != x.shape:
            raise ValidationError("weights and points must be matching non-empty 1-D arrays")
        if np.any(w <= 0.0) or np.any(w > 1.0):
            raise ValidationError("weights must lie in (0, 1]")
        if abs(w.sum() - 1.0) > _UNIT_TOL:
            raise ValidationError(f"weights sum to {float(w.sum())!r}, not 1")
        if np.any(np.abs(np.abs(x) - 1.0) > _UNIT_TOL):
            raise ValidationError("points must be unimodular")
        w.flags.writeable = False
        x.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "points", x)
        if self.seed is not None:
            object.__setattr__(self, "seed", _integer(self.seed, 0, "seed"))


def koebe(order: int) -> TruncatedSeries:
    """z/(1-z)^2: coefficients a_n = n."""
    n = _integer(order, 1, "order")
    return TruncatedSeries(np.arange(n + 1, dtype=np.float64))


def half_plane(order: int) -> TruncatedSeries:
    """z/(1-z): coefficients a_n = 1 for n >= 1."""
    n = _integer(order, 1, "order")
    c = np.ones(n + 1)
    c[0] = 0.0
    return TruncatedSeries(c)


def f0(order: int) -> TruncatedSeries:
    """(z - z^2/2)/(1-z)^2: coefficients a_n = (n+1)/2, the extremal of F."""
    n = _integer(order, 1, "order")
    c = (np.arange(n + 1) + 1.0) / 2.0
    c[0] = 0.0
    return TruncatedSeries(c)


def p_coeffs(spec: HerglotzSpec, order: int) -> np.ndarray:
    """Coefficients p_0..p_order of p(z) = sum_k w_k (1 + x_k z)/(1 - x_k z).

    p_0 = 1 and p_j = 2 sum_k w_k x_k^j; every |p_j| <= 2.
    """
    order = _integer(order, 0, "order")
    powers = spec.points[None, :] ** np.arange(1, order + 1)[:, None]
    p = np.empty(order + 1, dtype=np.complex128)
    p[0] = 1.0
    # row by row, so p_j does not depend on how many coefficients are asked for
    p[1:] = 2.0 * (powers * spec.weights).sum(axis=1)
    return p


def synthesize_F(spec: HerglotzSpec, order: int = 64) -> TruncatedSeries:
    """Member of F whose curvature quotient matches the spec's p, to ``order``.

    The single atom at x = 1 reproduces f0; atoms at the (order+1)-th roots of
    unity with equal weights reproduce the identity (p = 1 up to truncation).
    """
    n = _integer(order, 1, "order")
    p = p_coeffs(spec, n - 1)
    c = np.zeros(n, dtype=np.complex128)
    c[0] = 1.0
    for m in range(1, n):
        c[m] = 1.5 / m * np.dot(p[1 : m + 1], c[m - 1 :: -1])
    a = np.zeros(n + 1, dtype=np.complex128)
    a[1:] = c / np.arange(1, n + 1)
    return TruncatedSeries(a)


def rotation(f: TruncatedSeries, mu: complex) -> TruncatedSeries:
    """conj(mu) * f(mu z) for unimodular mu: coefficients c_n -> mu^(n-1) c_n."""
    mu = complex(_numbers(mu, np.complex128, "mu", scalar=True))
    if abs(abs(mu) - 1.0) > _UNIT_TOL:
        raise ValidationError(f"rotation factor must be unimodular, got |mu|={abs(mu)!r}")
    factors = np.conj(mu) * mu ** np.arange(f.order + 1)
    return TruncatedSeries(factors * f.coeffs)


def spec_from_seed(seed: int, atom_count: int) -> HerglotzSpec:
    """Regenerate a single sampled spec from its recorded seed (own PCG64 stream)."""
    seed = _integer(seed, 0, "seed")
    atom_count = _integer(atom_count, 1, "atom_count")
    rng = np.random.default_rng(seed)
    u = rng.random(atom_count)
    while np.any(u == 0.0):  # zero weight has probability ~2^-53; keep (0,1]
        u = rng.random(atom_count)
    angles = 2.0 * np.pi * rng.random(atom_count)
    return HerglotzSpec(u / u.sum(), np.exp(1j * angles), seed)


def sample_specs(count: int, atom_count: int, rng_seed: int) -> list[HerglotzSpec]:
    """Deterministic sample of Herglotz specs.

    Weights are uniform draws normalized to sum 1 (flat Dirichlet); points are
    uniform on the unit circle.  Each spec records a child seed derived from
    ``rng_seed``; :func:`spec_from_seed` regenerates it in isolation, which is
    how report witnesses are replayed.
    """
    count = _integer(count, 1, "count")
    atom_count = _integer(atom_count, 1, "atom_count")
    root = np.random.default_rng(_integer(rng_seed, 0, "rng_seed"))
    child_seeds = root.integers(0, 2**63 - 1, size=count)
    return [spec_from_seed(int(cs), atom_count) for cs in child_seeds]
