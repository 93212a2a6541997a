"""Radius problems for sections of curvature-bounded analytic functions.

The family F consists of normalized analytic functions on the unit disk
whose curvature quotient satisfies Re(1 + z f''/f') > -1/2.  This package
computes, to working precision, the geometric behaviour of the partial sums
(sections) of such functions: the positive-derivative radius 1/3 with all
the constants that enter its proof, sharpness witnesses from the extremal
f0(z) = (z - z^2/2)/(1-z)^2, convexity and starlikeness radii of individual
sections, and randomized scans of the still-open starlikeness question.

Layers: ``series`` (truncated power series arithmetic), ``zoo`` (named
functions and Herglotz-sampled members of F), ``bounds`` (closed-form
coefficient/derivative/tail estimates), ``radius`` (boundary scans,
argument-principle zero counting, radius solves), ``verify`` (named
constants and randomized suites), ``cli`` (the ``secradius`` command).
"""

from .bounds import (
    coeff_bound,
    cube_series_tail,
    deriv_envelope,
    k_tail,
    tail_derivative_bound,
)
from .exceptions import (
    CrossCheckError,
    DomainError,
    OrderError,
    PoleProximityError,
    SecradiusError,
    ValidationError,
    WindingError,
    ZeroOnCircleError,
)
from .radius import (
    RADIUS_CAP,
    BoundaryScan,
    Criterion,
    RadiusResult,
    boundary_min,
    count_zeros,
    criterion_radius,
    criterion_value,
    golden_section_min,
)
from .series import (
    TruncatedSeries,
    add,
    derivative,
    divide,
    evaluate,
    identity,
    is_normalized,
    multiply,
    section,
    subtract,
    tail,
)
from .verify import (
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
    make_item,
    min_T,
    min_g,
    min_re_cube_kernel,
    n4_margin,
    sharpness_witnesses,
    theorem1_suite,
)
from .zoo import (
    GENERATOR_NAME,
    HerglotzSpec,
    cube_kernel,
    f0,
    half_plane,
    koebe,
    p_coeffs,
    roots_of_unity_spec,
    rotation,
    sample_specs,
    spec_from_seed,
    synthesize_F,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # series
    "TruncatedSeries",
    "identity",
    "is_normalized",
    "evaluate",
    "derivative",
    "multiply",
    "divide",
    "add",
    "subtract",
    "section",
    "tail",
    # zoo
    "HerglotzSpec",
    "GENERATOR_NAME",
    "koebe",
    "half_plane",
    "f0",
    "cube_kernel",
    "p_coeffs",
    "synthesize_F",
    "rotation",
    "roots_of_unity_spec",
    "sample_specs",
    "spec_from_seed",
    # bounds
    "coeff_bound",
    "deriv_envelope",
    "tail_derivative_bound",
    "k_tail",
    "cube_series_tail",
    # radius
    "Criterion",
    "BoundaryScan",
    "RadiusResult",
    "RADIUS_CAP",
    "criterion_value",
    "boundary_min",
    "criterion_radius",
    "count_zeros",
    "golden_section_min",
    # verify
    "VerificationItem",
    "VerificationReport",
    "make_item",
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
    # exceptions
    "SecradiusError",
    "ValidationError",
    "DomainError",
    "OrderError",
    "PoleProximityError",
    "ZeroOnCircleError",
    "WindingError",
    "CrossCheckError",
]
