"""Radius problems for sections of curvature-bounded analytic functions.

The family F consists of normalized analytic functions on the unit disk
whose curvature quotient satisfies Re(1 + z f''/f') > -1/2.  This package
computes, to working precision, the geometric behaviour of the partial sums
(sections) of such functions: the positive-derivative radius 1/3 with all
the constants that enter its proof, sharpness witnesses from the extremal
f0(z) = (z - z^2/2)/(1-z)^2, convexity and starlikeness radii of individual
sections, and randomized scans of the still-open starlikeness question.

Layers: ``series`` (truncated power series and their sections), ``zoo``
(named functions and Herglotz-sampled members of F), ``bounds``
(closed-form coefficient/derivative/tail estimates), ``radius`` (boundary
scans, certified zero counting, radius solves), ``verify`` (named
constants and randomized suites), ``cli`` (the ``secradius`` command).
"""

from . import bounds, exceptions, radius, series, verify, zoo
from .bounds import *
from .exceptions import *
from .radius import *
from .series import *
from .verify import *
from .zoo import *

__version__ = "0.1.0"

# each submodule's ``__all__`` is the one list of its public names
__all__ = [
    "__version__",
    *series.__all__,
    *zoo.__all__,
    *bounds.__all__,
    *radius.__all__,
    *verify.__all__,
    *exceptions.__all__,
]
