"""Expansions against sympy's series of the rational function.

The oracle writes each rational function down in sympy from its closed
form, takes sympy's Taylor series in t and compares it, coefficient by
coefficient, with the engine's expansion as a polynomial in L and the
numerator symbols a_i.  Only the data of the engine's result is read (its
classes, and each coefficient's exponent vectors and integers); none of
the series or K-ring algorithms is used on the sympy side.
"""

import pytest

from mcseries.kring import Specialization
from mcseries.series import curve_zeta
from mcseries.toric import pn_divisor_series

sp = pytest.importorskip("sympy")

t = sp.Symbol("t")


def as_sympy(c):
    """A ring element as a sympy polynomial in its generators."""
    gens = [sp.Symbol(name) for name in c.spec.generators]
    return sp.Add(*[coeff * sp.Mul(*[g ** e for g, e in zip(gens, exp)])
                    for exp, coeff in c.terms])


def engine_coefficients(f, truncation):
    """Degree -> coefficient of a series over the free monoid on t."""
    tt = f.monoid.generator_named("t")
    coeffs = {}
    for e, c in f.terms:
        d = f.monoid.degree(e)
        assert e == d * tt and 0 <= d <= truncation
        coeffs[d] = as_sympy(c)
    return coeffs


def assert_matches_sympy(f, closed_form, truncation):
    taylor = sp.expand(sp.series(closed_form, t, 0, truncation + 1).removeO())
    got = engine_coefficients(f, truncation)
    for d in range(truncation + 1):
        want = sp.expand(taylor.coeff(t, d))
        assert sp.expand(got.get(d, 0) - want) == 0, (d, got.get(d), want)


@pytest.mark.parametrize("genus,truncation", [(1, 8), (2, 8), (3, 9)])
def test_curve_zeta_expand(genus, truncation):
    L = sp.Symbol("L")
    a = [sp.Symbol(f"a{i}") for i in range(1, 2 * genus + 1)]
    numerator = 1 + sum(ai * t ** i for i, ai in enumerate(a, start=1))
    closed = numerator / ((1 - t) * (1 - L * t))
    assert_matches_sympy(curve_zeta(genus).expand(truncation), closed,
                         truncation)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pn_divisor_series_at_l_one(n):
    truncation = 9
    f = pn_divisor_series(n, truncation)
    collapsed = f.specialize(Specialization(f.ring, {"L": 1}))
    assert_matches_sympy(collapsed, 1 / (1 - t) ** (n + 1), truncation)
