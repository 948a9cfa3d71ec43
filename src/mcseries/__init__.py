"""Exact motivic Chow series for toric varieties and Gm-stratified blow-ups.

The pipeline: build a fan (or a stratification), present the effective orbit
classes as a graded monoid, and assemble the generating series of effective
cycles as a rational function whose expansion is computed exactly.  All
arithmetic is integer-exact; coefficients live in a small computable quotient
of the K-ring of varieties.
"""

from .errors import (
    BlowupError,
    DimensionError,
    EnumerationLimitError,
    FanError,
    FiniteFiberError,
    LocalizationMismatch,
    LPLimitError,
    MCSError,
    MissingAssignment,
    NotMonic,
    PushforwardError,
    SeriesMismatch,
    SpecMismatch,
    UnsupportedStratum,
    ZeroClassFactor,
)
from .gm_action import (
    FixedComponentStratum,
    GmDecomposition,
    OrbitFamilyOverPoint,
    OrbitFamilyOverPuncturedLine,
    assemble_mc,
    colinear_blowup_data,
    colinear_mc_series,
)
from .kring import (
    KElement,
    KRingSpec,
    ReductionRule,
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
    express_in_basis,
    free_graded_monoid,
)
from .serialize import (
    decomposition_from_json,
    decomposition_to_json,
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
    blowup_at_fixed_point,
    chow_presentation,
    degree_class,
    hirzebruch_fan,
    mc_series_toric,
    pn_divisor_series,
    product_fan,
    projective_space_fan,
    three_point_blowup_fan,
    weighted_p112_fan,
)

__version__ = "0.1.0"

__all__ = [
    "MCSError", "SpecMismatch", "MissingAssignment", "FiniteFiberError",
    "EnumerationLimitError", "SeriesMismatch", "ZeroClassFactor", "NotMonic",
    "PushforwardError", "LocalizationMismatch", "FanError", "BlowupError",
    "DimensionError", "UnsupportedStratum", "LPLimitError",
    "KRingSpec", "KElement", "ReductionRule", "Specialization",
    "standard_ring", "specialize", "class_projective_space",
    "AbelianGroupPresentation", "GradedMonoid", "MonoidElement", "MonoidHom",
    "free_graded_monoid", "direct_sum", "express_in_basis",
    "MonoidPolynomial", "TruncatedSeries", "RationalSeries",
    "RationalityVerdict", "binomial_factor_polynomial", "certify_rational",
    "rational_expand", "pushforward",
    "external_product", "localize_quotient", "curve_zeta",
    "punctured_p1_zeta",
    "Fan", "OrbitClassMonoid", "chow_presentation",
    "degree_class", "mc_series_toric", "pn_divisor_series",
    "projective_space_fan", "product_fan", "blowup_at_fixed_point",
    "hirzebruch_fan", "three_point_blowup_fan", "weighted_p112_fan",
    "FixedComponentStratum", "OrbitFamilyOverPoint",
    "OrbitFamilyOverPuncturedLine", "GmDecomposition", "assemble_mc",
    "colinear_blowup_data", "colinear_mc_series",
    "ring_to_json", "ring_from_json", "element_to_json", "element_from_json",
    "monoid_to_json", "monoid_from_json", "monoid_element_to_json",
    "monoid_element_from_json", "series_to_json", "series_from_json",
    "fan_to_json", "fan_from_json", "decomposition_to_json",
    "decomposition_from_json",
    "__version__",
]
