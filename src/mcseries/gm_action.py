"""Curve-class series of the plane blown up at r colinear points, from a
multiplicative-group action.

Let X be P^2 blown up at r >= 2 points x_1..x_r on one line l, and let G_m
act on P^2 by scaling towards a point p off l: it fixes p and every point
of l, so it lifts to X.  Classes live in Z^(r+1) with basis (H, E_1..E_r).
The effective curves of X that the action sweeps out fall into pieces
whose series multiply:

* the fixed line, the strict transform of l, has class t0 = H - sum E_i;
  the effective cycles on it are its multiples, series 1/(1 - t0);
* over each point x_i sit two orbit families, each a single orbit whose
  closure is a rigid curve: the strict transform of the line through p and
  x_i, of class H - E_i, and the exceptional curve minus its two fixed
  points, of class E_i; each gives 1/(1 - t^beta) for its class beta;
* the other lines through p form one family over l minus the r points x_i,
  with fiber class H.  Its factor is the zero-cycle series of that base in
  the variable t^H.  In the homotopy quotient (L = 1) the class of a line
  minus r points is 2 - r, whose zeta function is (1 - t)^(r-2): with r >= 2
  punctures the family is the numerator (1 - t^H)^(r-2), not a denominator.

So MC_1(X) = (1 - t^H)^(r-2) / ((1 - t0) prod_i (1 - t^E_i)(1 - t^(H-E_i))),
written here from that closed form.  The monoid generators are t0 and
s_i = E_i, which are a basis of the class group.
"""

from __future__ import annotations

from .errors import MCSError, check_cap
from .kring import standard_ring
from .monoid import AbelianGroupPresentation, GradedMonoid
from .series import RationalSeries, binomial_factor_polynomial

__all__ = ["colinear_mc_series"]


def colinear_mc_series(r: int) -> RationalSeries:
    """MC_1 of the plane blown up at r >= 2 colinear points, over the ring
    standard_ring(a1_homotopy=True), with generators named t0, s1..sr.

    The (r+1)^2 coordinates of the basis classes are counted against
    MCS_MAX_TERMS first."""
    if r < 2:
        raise MCSError(
            "the colinear blow-up needs at least two centers")
    check_cap(f"colinear blow-up at {r} points", (r + 1) ** 2,
              "class coordinates")
    ring = standard_ring(a1_homotopy=True)
    group = AbelianGroupPresentation(r + 1)
    h, *e = group.basis_images()
    t0 = group.project([1] + [-1] * r)
    names = ("t0",) + tuple(f"s{i}" for i in range(1, r + 1))
    monoid = GradedMonoid(group, names, (t0,) + tuple(e))
    numerator = binomial_factor_polynomial(ring, monoid, ring.one, h, r - 2)
    classes = [t0, *e, *(h - ei for ei in e)]
    return RationalSeries(ring, monoid, numerator,
                          [(ring.one, beta, 1) for beta in classes])
