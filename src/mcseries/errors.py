"""Exception types shared across the package.

Every structured failure raises a subclass of MCSError so callers (and the
command-line front end) can separate bad input from genuine bugs.
"""


class MCSError(Exception):
    """Base class for all errors raised by this package."""


# linear programming


class LPLimitError(MCSError):
    """A linear program exceeded the simplex pivot cap."""


# coefficient rings


class SpecMismatch(MCSError):
    """Operands belong to different coefficient ring specs."""


class MissingAssignment(MCSError):
    """A strict specialization met a generator without an assignment."""


# graded monoids


class FiniteFiberError(MCSError):
    """No strictly positive integer grading exists for the generators."""


class EnumerationLimitError(MCSError):
    """A stage's count of terms, elements or candidates passed the term cap.
    Every cap message is built here and names the stage, the count and the
    cap."""

    def __init__(self, stage: str, count: int, cap: int, unit: str = "terms"):
        super().__init__(f"{stage}: {count} {unit}, over the cap of {cap};"
                         " raise MCS_MAX_TERMS")


# series

class SeriesMismatch(MCSError):
    """Binary series operation across different monoids or truncations."""


class ZeroClassFactor(MCSError):
    """A denominator factor uses the zero class (or a non-positive one)."""


class NotMonic(MCSError):
    """A candidate denominator or numerator lacks constant term 1."""


class PushforwardError(MCSError):
    """Monoid homomorphism is unusable for pushing a series forward."""


class LocalizationMismatch(MCSError):
    """Quotient of two series is not a rational form we can certify."""


# toric fans


class FanError(MCSError):
    """Fan data is malformed: bad rays, overlaps, or incompleteness."""


class BlowupError(MCSError):
    """Star subdivision requested at a cone that is not smooth/maximal."""


class DimensionError(MCSError):
    """A cone has the wrong dimension for the requested cycle group."""


# Gm strata


class UnsupportedStratum(MCSError):
    """Stratum shape outside the catalogued assembly rules."""
