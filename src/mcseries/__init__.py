"""Exact motivic Chow series for toric varieties and colinear blow-ups.

The pipeline: build a fan, present the effective orbit classes as a graded
monoid, and assemble the generating series of effective cycles as a rational
function whose expansion is computed exactly.  The plane blown up at r
colinear points gets its series in closed form from a G_m action.  All
arithmetic is integer-exact; coefficients live in a small computable quotient
of the K-ring of varieties.
"""

from .errors import EnumerationLimitError, MCSError
from .gm_action import colinear_mc_series
from .kring import (
    KElement,
    KRingSpec,
    Specialization,
    class_projective_space,
    specialize,
    standard_ring,
)
from .monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    MonoidElement,
    MonoidHom,
    direct_sum,
    free_graded_monoid,
)
from .serialize import (
    element_from_json,
    element_to_json,
    fan_from_json,
    fan_to_json,
    monoid_element_from_json,
    monoid_element_to_json,
    monoid_from_json,
    monoid_to_json,
    ring_from_json,
    ring_to_json,
    series_from_json,
    series_to_json,
)
from .series import (
    MonoidPolynomial,
    RationalityVerdict,
    RationalSeries,
    TruncatedSeries,
    binomial_factor_polynomial,
    certify_rational,
    curve_zeta,
    external_product,
    localize_quotient,
    punctured_p1_zeta,
    pushforward,
    rational_expand,
)
from .toric import (
    Fan,
    OrbitClassMonoid,
    chow_presentation,
    mc_series_toric,
    pn_divisor_series,
    product_fan,
    projective_space_fan,
    three_point_blowup_fan,
)

__version__ = "0.1.0"

__all__ = [
    "MCSError", "EnumerationLimitError",
    "KRingSpec", "KElement", "Specialization",
    "standard_ring", "specialize", "class_projective_space",
    "AbelianGroupPresentation", "GradedMonoid", "MonoidElement", "MonoidHom",
    "free_graded_monoid", "direct_sum",
    "MonoidPolynomial", "TruncatedSeries", "RationalSeries",
    "RationalityVerdict", "binomial_factor_polynomial", "certify_rational",
    "rational_expand", "pushforward",
    "external_product", "localize_quotient", "curve_zeta",
    "punctured_p1_zeta",
    "Fan", "OrbitClassMonoid", "chow_presentation", "mc_series_toric",
    "pn_divisor_series", "projective_space_fan", "product_fan",
    "three_point_blowup_fan", "colinear_mc_series",
    "ring_to_json", "ring_from_json", "element_to_json", "element_from_json",
    "monoid_to_json", "monoid_from_json", "monoid_element_to_json",
    "monoid_element_from_json", "series_to_json", "series_from_json",
    "fan_to_json", "fan_from_json",
    "__version__",
]
