"""Exact arithmetic for plane Cremona transformations.

Composition, inversion and classification of birational self-maps of the
projective plane over Q and real/imaginary quadratic extensions, degree
growth and dynamical-degree estimates, Jung decomposition of polynomial
automorphisms, Weyl-lattice spectral data, a catalog of named maps and
matrices, and a floating-point layer for orbits and root finding.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BUDGET_EXCEEDED,
    NOT_AUTOMORPHISM,
    NOT_CONTRACTED,
    NOT_FOUND,
    NOT_FULLY_SPLIT,
    CremonaError,
    FieldObstruction,
    IncompatibleField,
    InexactDivision,
    NonConvergence,
    OrbitHitsIndeterminacy,
    PoleAtParameter,
    PoleAtSeed,
    ResourceLimit,
)
from .scalars import Scalar  # noqa: F401
from .poly import (  # noqa: F401
    BiPoly,
    HomPoly,
    LinearForm,
    divide_exact,
    factor_linear_cubic,
    jacobian_det,
    parse_poly,
    poly_gcd,
    restrict_to_line,
    substitute,
)
from .ratmap import (  # noqa: F401
    JonqElement,
    ProjPoint,
    RatMap,
    compose,
    inverse,
    is_contracted_line,
    iterate,
    jonq_compose,
    jonq_inverse,
    jonq_to_ratmap,
    noether_solve,
    parse_ratmap,
    quadratic_classify,
)
from .dynamics import (  # noqa: F401
    DegreeSequence,
    GrowthClass,
    StabilityReport,
    degree_sequence,
    growth_classify,
    lambda_estimate,
    stability_probe,
)
from .polyaut import (  # noqa: F401
    PolyAut,
    aut_compose,
    aut_inverse,
    henon_classify,
    jung_decompose,
    parse_polyaut,
)
from .weyl import (  # noqa: F401
    char_poly,
    cyclotomic,
    group_order_bfs,
    salem_classify,
    simple_roots,
    spectral_radius,
    standard_element,
)
from . import catalog  # noqa: F401
from . import numerics  # noqa: F401
