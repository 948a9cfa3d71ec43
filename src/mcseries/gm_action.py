"""Assembly of Chow series from a multiplicative-group stratification.

A stratification is supplied as data: fixed components carry their own
series, one-dimensional orbit families are recorded by what they sweep
(orbit closure class over a point, or a fiber class over a rational curve
with punctures).  assemble_mc is a pure fold multiplying the known factor
of each stratum into one numerator and one factor list; it never infers
strata from a group action.

The punctured-base family only has a closed factor over a rational curve:
(1 - t^beta)^(r-2) for r >= 2 punctures.  Anything else is rejected rather
than approximated.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import EnumerationLimitError, MCSError
from .kring import KRingSpec, standard_ring
from .monoid import (
    AbelianGroupPresentation,
    GradedMonoid,
    MonoidElement,
    max_terms_from_env,
)
from .series import MonoidPolynomial, RationalSeries, binomial_factor_polynomial

__all__ = [
    "FixedComponentStratum",
    "OrbitFamilyOverPoint",
    "OrbitFamilyOverPuncturedLine",
    "GmDecomposition",
    "assemble_mc",
    "colinear_blowup_data",
    "colinear_mc_series",
]


@dataclass(frozen=True)
class FixedComponentStratum:
    """A component of the fixed locus contributing its own series."""

    series: RationalSeries
    cycle_dimension: int

    def __post_init__(self):
        if not self.series.is_monic():
            raise MCSError("fixed component series must be monic")


@dataclass(frozen=True)
class OrbitFamilyOverPoint:
    """Orbits collapsing to one point; closures sweep the given class."""

    orbit_class: MonoidElement
    cycle_dimension: int

    def __post_init__(self):
        if self.orbit_class.is_zero():
            raise MCSError("orbit family must sweep a nonzero class")


@dataclass(frozen=True)
class OrbitFamilyOverPuncturedLine:
    """A family of orbits over a rational curve minus `punctures` points."""

    punctures: int
    fiber_class: MonoidElement
    cycle_dimension: int

    def __post_init__(self):
        if self.punctures < 1:
            raise MCSError("a punctured base needs at least one puncture")
        if self.fiber_class.is_zero():
            raise MCSError("fiber class must be nonzero")


class GmDecomposition:
    """Strata of one decomposition, all speaking the same class monoid."""

    __slots__ = ("ring", "monoid", "strata")

    def __init__(self, monoid: GradedMonoid, strata, ring: KRingSpec):
        self.ring = ring
        self.monoid = monoid
        strata = tuple(strata)
        for st in strata:
            if isinstance(st, FixedComponentStratum):
                if st.series.monoid != monoid or st.series.ring != ring:
                    raise MCSError("fixed component series lives elsewhere")
            elif isinstance(st, (OrbitFamilyOverPoint, OrbitFamilyOverPuncturedLine)):
                beta = (st.orbit_class if isinstance(st, OrbitFamilyOverPoint)
                        else st.fiber_class)
                if beta not in monoid.group:
                    raise MCSError("stratum class is not in the monoid")
            else:
                raise TypeError(f"not a stratum: {st!r}")
        self.strata = strata

    def __repr__(self):
        return f"<decomposition with {len(self.strata)} strata>"


def assemble_mc(decomp: GmDecomposition, p: int) -> RationalSeries:
    """Product of the stratum factors in cycle dimension p.

    Fixed components contribute their series, orbit families over a point
    1/(1 - t^beta), punctured-line families the numerator (1 - t^beta)^(r-2);
    strata of other cycle dimensions contribute the factor 1.
    """
    ring, monoid = decomp.ring, decomp.monoid
    numerator = MonoidPolynomial.one(ring, monoid)
    factors = []
    for st in decomp.strata:
        if st.cycle_dimension != p:
            continue
        if isinstance(st, FixedComponentStratum):
            numerator = numerator * st.series.numerator
            factors += st.series.factors
        elif isinstance(st, OrbitFamilyOverPoint):
            factors.append((ring.one, st.orbit_class, 1))
        else:
            if st.punctures < 2:
                raise MCSError(
                    "no closed factor for a one-punctured rational base")
            numerator = numerator * binomial_factor_polynomial(
                ring, monoid, ring.one, st.fiber_class, st.punctures - 2)
    return RationalSeries(ring, monoid, numerator, factors)


# ---------------------------------------------------------------------------
# plane blown up at r colinear points


def colinear_blowup_data(r: int) -> GmDecomposition:
    """Stratification of the plane blown up at r >= 2 colinear points.

    Classes live in Z^(r+1) with basis (H, E_1..E_r); monoid generators are
    t0 = H - sum E_i (the moved line) and s_i = E_i.  Strata: the fixed line
    t0 with series 1/(1-t0), a family over each point with class H - E_i,
    each punctured exceptional curve with class E_i, and a family over the
    line minus the r base points with fiber class H.  The (r+1)^2
    coordinates of the basis classes are counted against MCS_MAX_TERMS first.
    """
    if r < 2:
        raise MCSError(
            "colinear stratification needs at least two centers")
    if (r + 1) ** 2 > (cap := max_terms_from_env()):
        raise EnumerationLimitError(f"colinear blow-up at {r} points",
                                    (r + 1) ** 2, cap, "class coordinates")
    ring = standard_ring(a1_homotopy=True)
    group = AbelianGroupPresentation(r + 1)
    h, *e = group.basis_images()
    t0 = group.project([1] + [-1] * r)
    names = ("t0",) + tuple(f"s{i}" for i in range(1, r + 1))
    monoid = GradedMonoid(group, names, (t0,) + tuple(e))
    fixed_line = RationalSeries(ring, monoid, None, [(ring.one, t0, 1)])
    strata = [FixedComponentStratum(fixed_line, 1)]
    for i in range(r):
        strata.append(OrbitFamilyOverPoint(h - e[i], 1))
    for i in range(r):
        strata.append(OrbitFamilyOverPoint(e[i], 1))
    strata.append(OrbitFamilyOverPuncturedLine(r, h, 1))
    return GmDecomposition(monoid, strata, ring)


def colinear_mc_series(r: int) -> RationalSeries:
    """Curve-class series of the colinear r-point blow-up, assembled."""
    return assemble_mc(colinear_blowup_data(r), 1)
