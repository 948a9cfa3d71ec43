"""Exact linear algebra: Smith normal form contract, kernels, rational LP.

The simplex of feasible_point and minimize_linear is checked against the
Fourier-Motzkin elimination it replaced, and smith_decomposition against the
reduction that always kept V and Vinv; both are kept below as references.
smith_decomposition no longer keeps Vinv, so the tests that need V^-1 take
it from the reference.
"""

import random
from fractions import Fraction
from itertools import permutations
from math import gcd, prod
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from mcseries import intlinalg
from mcseries.errors import MCSError
from mcseries.intlinalg import (
    det,
    feasible_point,
    identity_matrix,
    kernel_basis,
    mat_vec,
    minimize_linear,
    smith_decomposition,
    solve_integer,
)


def mat_mul(a, b):
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def is_unimodular(m):
    return abs(det(m)) == 1


def check_snf_contract(a):
    """Full contract: U a V = D, unimodular transforms, divisibility chain."""
    dec = smith_decomposition(a)
    u, d, v = ([list(row) for row in mat] for mat in (dec.U, dec.D, dec.V))
    assert mat_mul(mat_mul(u, a), v) == d
    assert is_unimodular(u)
    assert is_unimodular(v)
    rows, cols = len(d), len(d[0]) if d else 0
    diag = [d[i][i] for i in range(min(rows, cols))]
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    nz = [x for x in diag if x]
    assert all(x > 0 for x in nz)
    # nonzero entries come first and divide their successors
    assert diag[: len(nz)] == nz
    for x, y in zip(nz, nz[1:]):
        assert y % x == 0
    # |det| preserved for square input
    if rows == cols:
        prod = 1
        for x in diag:
            prod *= x
        assert abs(det(a)) == prod
    return diag


def test_snf_diag_2_3():
    diag = check_snf_contract([[2, 0], [0, 3]])
    assert diag == [1, 6]


def test_snf_2468():
    diag = check_snf_contract([[2, 4], [6, 8]])
    assert diag == [2, 4]


def test_snf_rectangular_and_zero():
    assert check_snf_contract([[2, -2]]) == [2]
    assert check_snf_contract([[0, 0], [0, 0]]) == [0, 0]
    assert check_snf_contract([[6], [10], [15]]) == [1]


def test_snf_inverses_consistent():
    a = [[3, 1, -4], [2, -3, 1], [0, 5, 9]]
    dec = smith_decomposition(a)
    u = [list(r) for r in dec.U]
    uinv = [list(r) for r in dec.Uinv]
    v = [list(r) for r in dec.V]
    vinv = [list(r) for r in reference_smith_decomposition(a)[4]]
    assert mat_mul(u, uinv) == identity_matrix(3)
    assert mat_mul(vinv, v) == identity_matrix(3)


def test_snf_deterministic():
    a = [[4, -6, 2], [6, 3, -9]]
    assert smith_decomposition(a) == smith_decomposition([row[:] for row in a])


def test_snf_random_contract_1000_cases():
    rng = random.Random(20240811)
    for _ in range(1000):
        a = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(4)]
        check_snf_contract(a)


def test_snf_invariants_match_sympy():
    from sympy import ZZ
    from sympy.polys.matrices import DomainMatrix
    from sympy.polys.matrices.normalforms import invariant_factors

    rng = random.Random(7)
    for _ in range(60):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        a = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        dm = DomainMatrix([[ZZ(x) for x in row] for row in a], (rows, cols), ZZ)
        ours = list(smith_decomposition(a).invariants)
        theirs = [int(x) for x in invariant_factors(dm) if int(x) != 0]
        assert ours == theirs


def test_det_examples():
    assert det([[2, 4], [6, 8]]) == -8
    assert det([[1, 2], [2, 4]]) == 0
    assert det([]) == 1
    rng = random.Random(3)
    for _ in range(200):
        a = [[rng.randint(-5, 5) for _ in range(3)] for _ in range(3)]
        expected = sum(
            a[0][i] * (a[1][(i + 1) % 3] * a[2][(i + 2) % 3] - a[1][(i + 2) % 3] * a[2][(i + 1) % 3])
            for i in range(3)
        )
        assert det(a) == expected


def permutation_sum_det(a):
    """The determinant as the signed sum over all permutations (Leibniz),
    which shares nothing with cofactor expansion or elimination."""
    n = len(a)
    total = 0
    for perm in permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i in range(n) for j in range(i + 1, n))
        total += (-1) ** inversions * prod(a[i][perm[i]] for i in range(n))
    return total


@st.composite
def det_inputs(draw):
    """Square matrices of size 0..5 with small, negative and 100+ digit
    entries, as lists or tuples of rows; about half are made singular by
    setting one row to a combination of the others."""
    n = draw(st.integers(0, 5))
    entries = draw(st.sampled_from([
        st.integers(-4, 4),
        st.integers(-10**120, 10**120),
        st.sampled_from([0, 1, -1, 10**100 + 7, -(10**101 + 3), 2**400]),
    ]))
    a = [[draw(entries) for _ in range(n)] for _ in range(n)]
    if n >= 2 and draw(st.booleans()):
        i = draw(st.integers(0, n - 1))
        j, k = (draw(st.integers(0, n - 2)) for _ in range(2))
        j, k = j + (j >= i), k + (k >= i)
        c, e = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        a[i] = [c * x + e * y for x, y in zip(a[j], a[k])]
    shape = draw(st.sampled_from([list, tuple]))
    return [shape(row) for row in a]


@settings(max_examples=600, derandomize=True, deadline=None, database=None)
@given(det_inputs())
@example([[0, 0], [0, 0]])
@example([[0, 1, 2], [0, 3, 4], [0, 5, 6]])        # a zero column
@example([[1, 2, 3], [2, 4, 6], [-1, 5, 10**100]])  # two proportional rows
@example([[0, 2, 0, 0], [3, 0, 0, 0], [0, 0, 0, 5], [0, 0, -7, 0]])  # row swaps
def test_det_matches_the_permutation_sum(a):
    """The closed forms at 2 x 2 and 3 x 3 and elimination from 4 x 4 up
    agree with the Leibniz formula, and leave the matrix as it was."""
    before = [list(row) for row in a]
    assert det(a) == permutation_sum_det(a)
    assert [list(row) for row in a] == before


def test_kernel_basis():
    a = [[1, 1, -2]]
    basis = kernel_basis(a)
    assert len(basis) == 2
    for x in basis:
        assert mat_vec(a, x) == [0]
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert len(kernel_basis([[0, 0]])) == 2


@st.composite
def walls(draw):
    """Rows of rank k < n <= 4 and a vector v outside their span: v is c*w
    plus a combination of the rows, and the factor c drives the index of the
    wall past 2."""
    n = draw(st.integers(2, 4))
    k = draw(st.integers(1, n - 1))
    vector = st.lists(st.integers(-4, 4), min_size=n, max_size=n)
    rows = draw(st.lists(vector, min_size=k, max_size=k)
                .filter(lambda rows: smith_decomposition(rows).rank == k))
    w = draw(vector.filter(lambda w: smith_decomposition(rows + [w]).rank == k + 1))
    c = draw(st.integers(1, 6))
    a = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
    return rows, [c * x + sum(ai * r[j] for ai, r in zip(a, rows))
                  for j, x in enumerate(w)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(walls())
@example(([[1, 0]], [2, 3]))
@example(([[1, 1, 0]], [0, 0, 6]))
@example(([[2, 4, 0], [0, 0, 3]], [1, 7, 5]))
def test_wall_index_is_the_gcd_of_the_pairings_with_the_kernel_basis(wall):
    """chow_presentation divides each wall pairing by the gcd of the
    pairings of v with the integer kernel basis of tau's rows.  It equals
    the index of N_tau + Zv in its saturation, the product of the Smith
    invariants of [saturation basis of N_tau; v]."""
    rows, v = wall
    vinv = reference_smith_decomposition(rows)[4]
    saturated = [list(vinv[i]) for i in range(smith_decomposition(rows).rank)]
    index = prod(smith_decomposition(saturated + [v]).invariants)
    pairings = [sum(m * x for m, x in zip(col, v)) for col in kernel_basis(rows)]
    assert gcd(*pairings) == index


def test_solve_integer():
    a = [[2, 0], [0, 3]]
    assert solve_integer(a, [4, 9]) == [2, 3]
    assert solve_integer(a, [1, 0]) is None
    assert solve_integer([[1, 1]], [5]) is not None
    x = solve_integer([[1, 1]], [5])
    assert sum(x) == 5
    assert solve_integer([[2, 4]], [3]) is None


def test_feasible_point_simple():
    # w >= 1 in one variable
    p = feasible_point(1, [((1,), 1)])
    assert p is not None and p[0] >= 1
    # w >= 1 and -w >= 1: empty
    assert feasible_point(1, [((1,), 1), ((-1,), 1)]) is None


def test_feasible_point_polytope():
    cons = [((1, 0), 1), ((0, 1), 1), ((-1, -1), -4)]
    p = feasible_point(2, cons)
    assert p is not None
    for coeffs, rhs in cons:
        assert sum(Fraction(c) * x for c, x in zip(coeffs, p)) >= rhs


def test_minimize_linear():
    # min x + y subject to x >= 1, y >= 2
    val, pt = minimize_linear(2, (1, 1), [((1, 0), 1), ((0, 1), 2)])
    assert val == 3 and pt == [1, 2]
    # infeasible
    assert minimize_linear(1, (1,), [((1,), 1), ((-1,), 0)]) is None
    # fractional optimum: min w st 2w >= 1
    val, pt = minimize_linear(1, (2,), [((2,), 1)])
    assert val == 1 and pt == [Fraction(1, 2)]


def test_minimize_deterministic():
    cons = [((1, 1), 2), ((1, -1), 0), ((0, 1), 0)]
    a = minimize_linear(2, (1, 1), cons)
    b = minimize_linear(2, (1, 1), cons)
    assert a == b


def _unit_rows(n):
    # x_j >= 1 for each j: one pivot per variable, and no phase 1
    return [(tuple(int(i == j) for i in range(n)), 1) for j in range(n)]


def test_pivot_cap_raises_naming_the_stage_the_count_and_the_cap(monkeypatch):
    monkeypatch.setattr(intlinalg, "MAX_PIVOTS", 2)
    with pytest.raises(MCSError, match=r"^fan validation gave up: the"
                       r" simplex would make pivot 3, over the cap of 2$"):
        feasible_point(3, _unit_rows(3), "fan validation")
    with pytest.raises(MCSError, match="^grading gave up: .* cap of 2$"):
        minimize_linear(3, (1, 1, 1), _unit_rows(3), "grading")


def test_cap_counts_every_pivot(monkeypatch):
    monkeypatch.setattr(intlinalg, "MAX_PIVOTS", 3)
    assert feasible_point(3, _unit_rows(3)) is not None
    with pytest.raises(MCSError, match="pivot 4, over the cap of 3"):
        feasible_point(4, _unit_rows(4))
    # x >= 1 enters with its row, x >= 2 then needs the artificial variable
    # and one phase-1 pivot: three in all
    assert feasible_point(1, [((1,), 1), ((1,), 2)]) == [2]
    monkeypatch.setattr(intlinalg, "MAX_PIVOTS", 2)
    with pytest.raises(MCSError, match="pivot 3"):
        feasible_point(1, [((1,), 1), ((1,), 2)])


# -- the Fourier-Motzkin elimination the simplex replaced, as a reference ----

Constraint = tuple[tuple[Fraction, ...], Fraction]  # sum(coeffs * x) >= rhs

# An elimination step can square the constraint count, so a step that would
# create more constraints than this aborts instead.
MAX_STEP_CONSTRAINTS = 5000


def _as_constraints(cons) -> list[Constraint]:
    out = []
    for coeffs, rhs in cons:
        out.append((tuple(Fraction(c) for c in coeffs), Fraction(rhs)))
    return out


def _dedupe(cons: list[Constraint]) -> list[Constraint]:
    seen: dict[tuple[Fraction, ...], Fraction] = {}
    order: list[tuple[Fraction, ...]] = []
    for coeffs, rhs in cons:
        scale = next((abs(c) for c in coeffs if c), None)
        if scale is None:
            if rhs > 0:
                # ground contradiction; keep it so the caller sees infeasibility
                key = coeffs
                if key not in seen or rhs > seen[key]:
                    if key not in seen:
                        order.append(key)
                    seen[key] = rhs
            continue
        key = tuple(c / scale for c in coeffs)
        val = rhs / scale
        if key not in seen:
            order.append(key)
            seen[key] = val
        elif val > seen[key]:
            seen[key] = val
    return [(k, seen[k]) for k in order]


def reference_feasible_point(num_vars: int, cons,
                             stage: str = "linear program") -> list[Fraction] | None:
    """A rational point satisfying all constraints sum(c*x) >= rhs, or None.

    Deterministic: eliminates the highest-index variable first and picks the
    max lower bound (else min(0, upper bound)) while back-substituting.
    Raises MCSError, naming the stage, when an elimination step would
    create more than MAX_STEP_CONSTRAINTS constraints.
    """
    cur = _as_constraints(cons)
    layers: list[list[Constraint]] = []
    for k in range(num_vars - 1, -1, -1):
        cur = _dedupe(cur)
        layers.append(cur)
        pos = [c for c in cur if c[0][k] > 0]
        neg = [c for c in cur if c[0][k] < 0]
        new = [c for c in cur if c[0][k] == 0]
        if len(pos) * len(neg) > MAX_STEP_CONSTRAINTS:
            raise MCSError(
                f"{stage} gave up: an elimination step would create"
                f" {len(pos) * len(neg)} constraints (cap {MAX_STEP_CONSTRAINTS})")
        for cp in pos:
            a = cp[0][k]
            for cn in neg:
                c = -cn[0][k]
                coeffs = tuple(a * cn[0][j] + c * cp[0][j] for j in range(num_vars))
                new.append((coeffs, a * cn[1] + c * cp[1]))
        cur = new
    for coeffs, rhs in cur:
        if rhs > 0:
            return None
    point = [Fraction(0)] * num_vars
    for k in range(num_vars):
        lo: Fraction | None = None
        hi: Fraction | None = None
        for coeffs, rhs in layers[num_vars - 1 - k]:
            a = coeffs[k]
            if a == 0:
                continue
            rest = sum((coeffs[j] * point[j] for j in range(k)), Fraction(0))
            if a > 0:
                bound = (rhs - rest) / a
                lo = bound if lo is None else max(lo, bound)
            else:
                bound = (rest - rhs) / (-a)
                hi = bound if hi is None else min(hi, bound)
        if lo is not None:
            point[k] = lo
        elif hi is not None:
            point[k] = min(hi, Fraction(0))
    return point


def reference_minimize_linear(num_vars: int, objective, cons,
                              stage: str = "linear program"
                              ) -> tuple[Fraction, list[Fraction]] | None:
    """Minimize objective . x over {x : cons}, exactly.

    Returns (optimal value, an optimal point), or None when infeasible.
    Precondition: the objective is bounded below on the feasible set (true for
    every caller here, where the objective is a sum of constrained-positive
    forms); otherwise the returned point is merely feasible.
    """
    obj = [Fraction(c) for c in objective]
    aug = [((Fraction(0),) + tuple(Fraction(c) for c in coeffs), Fraction(rhs))
           for coeffs, rhs in cons]
    # z - objective . x >= 0 with z as variable 0; z is eliminated last, so
    # back-substitution assigns it its max lower bound, which is the minimum
    aug.append(((Fraction(1),) + tuple(-c for c in obj), Fraction(0)))
    point = reference_feasible_point(num_vars + 1, aug, stage)
    if point is None:
        return None
    xs = point[1:]
    value = sum((obj[i] * xs[i] for i in range(num_vars)), Fraction(0))
    return value, xs


@st.composite
def grading_lps(draw):
    """(n, objective, rows): rows f.x >= 1 and a positive combination of the
    rows as objective, as monoid.positive_grading builds them, with columns
    that repeat, scale or add up other columns, and optionally a column y
    bounded only by the pair 2g.x + y >= 1, 2g.x - y >= 1 of equal weight,
    whose optimal values then form an interval."""
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, 7))
    entry = st.integers(-3, 3)
    rows = [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(k)]
    for j in range(1, n):
        kind = draw(st.sampled_from(("free", "free", "copy", "scale", "sum")))
        a, b = draw(st.integers(0, j - 1)), draw(st.integers(0, j - 1))
        for row in rows:
            if kind == "copy":
                row[j] = row[a]
            elif kind == "scale":
                row[j] = -2 * row[a]
            elif kind == "sum":
                row[j] = row[a] + row[b]
    weights = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    if draw(st.booleans()):
        g, y = draw(st.integers(0, k - 1)), draw(st.integers(0, n))
        pair = [[2 * v for v in rows[g]] for _ in range(2)]
        rows = [row[:y] + [0] + row[y:] for row in rows]
        rows += [row[:y] + [sign] + row[y:] for row, sign in zip(pair, (1, -1))]
        weights += [draw(st.integers(1, 3))] * 2
        n += 1
    objective = [sum(w * row[j] for w, row in zip(weights, rows))
                 for j in range(n)]
    order = draw(st.permutations(range(len(rows))))
    return n, objective, [(tuple(rows[i]), 1) for i in order]


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(grading_lps())
def test_grading_lps_get_the_point_elimination_gave(lp):
    n, objective, cons = lp
    try:
        expected = reference_minimize_linear(n, objective, cons)
    except MCSError:
        return
    assert minimize_linear(n, objective, cons) == expected


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.integers(0, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.tuples(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                       st.integers(-2, 2)), max_size=6))))
def test_feasible_point_is_none_exactly_when_elimination_finds_none(lp):
    n, cons = lp
    point = feasible_point(n, cons)
    assert (point is None) == (reference_feasible_point(n, cons) is None)
    if point is not None:
        for coeffs, rhs in cons:
            assert sum(c * x for c, x in zip(coeffs, point)) >= rhs


# -- the Smith form that always updated V and Vinv, as a reference ------------
# It scanned the whole submatrix for every pivot, checked divisibility after
# unit pivots too and added columns over every row; the shortcuts must not
# change U, D or V.


def reference_find_pivot(d, t):
    """The smallest nonzero entry of d[t:][t:], found by a full scan."""
    best = None
    for i in range(t, len(d)):
        for j in range(t, len(d[i])):
            x = abs(d[i][j])
            if x and (best is None or x < best[0]):
                best = (x, i, j)
    return None if best is None else (best[1], best[2])


def reference_smith_decomposition(a):
    """(U, D, V, Uinv, Vinv) as tuples of tuples."""
    m = len(a)
    n = len(a[0]) if m else 0
    d = [list(row) for row in a]
    u, uinv = identity_matrix(m), identity_matrix(m)
    v, vinv = identity_matrix(n), identity_matrix(n)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i, j, q):
        for k in range(n):
            d[i][k] += q * d[j][k]
        for k in range(m):
            u[i][k] += q * u[j][k]
        for r in uinv:
            r[j] -= q * r[i]

    def col_swap(i, j):
        for r in d + v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(j, i, q):
        for r in d + v:
            r[j] += q * r[i]
        for k in range(n):
            vinv[i][k] -= q * vinv[j][k]

    t = 0
    while t < min(m, n) and (piv := reference_find_pivot(d, t)) is not None:
        while True:
            i, j = piv
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            clean = True
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    if q:
                        row_add(i, t, -q)
                    if d[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    if q:
                        col_add(j, t, -q)
                    if d[t][j]:
                        clean = False
            if clean:
                p = d[t][t]
                pulled = next((i for i in range(t + 1, m)
                               if any(d[i][j] % p for j in range(t + 1, n))), None)
                if pulled is None:
                    break
                row_add(t, pulled, 1)
            piv = reference_find_pivot(d, t)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
            for r in uinv:
                r[t] = -r[t]
        t += 1
    return tuple(tuple(tuple(row) for row in mat) for mat in (u, d, v, uinv, vinv))


@st.composite
def smith_inputs(draw):
    """Wide (like relation matrices), tall and square integer matrices, with
    zero rows and columns, and a common factor or unit-free entries so that
    non-unit pivots and the divisibility pull-up occur."""
    short, long = draw(st.integers(0, 4)), draw(st.integers(0, 10))
    m, n = draw(st.sampled_from([(short, long), (long, short), (short, short)]))
    factor = draw(st.sampled_from([1, 1, 2, 6]))
    entries = draw(st.sampled_from([st.integers(-4, 4),
                                    st.sampled_from([0, 0, 2, -2, 3, -3, 4, 9])]))
    a = [[factor * draw(entries) for _ in range(n)] for _ in range(m)]
    for i in draw(st.sets(st.integers(0, 9), max_size=2)):
        if i < m:
            a[i] = [0] * n
    for j in draw(st.sets(st.integers(0, 9), max_size=2)):
        if j < n:
            for row in a:
                row[j] = 0
    return a


@settings(max_examples=500, derandomize=True, deadline=None, database=None)
@given(smith_inputs())
@example([[2, 0], [0, 3]])           # pull-up of a non-unit pivot
@example([[2, 3, 1], [0, 0, 0]])     # a unit after a smaller-index 2
@example([[0, 4, 0, 6, 0, 10]])      # one wide row with a common factor
@example([[], [], []])               # a free group's: three rows, no relation
@example([])                         # the free group on no generators
def test_smith_decomposition_matches_the_reference_with_and_without_v(a):
    u, d, v, uinv, _ = reference_smith_decomposition(a)
    find_pivot = intlinalg._find_pivot

    def checked_pivot(w, t, m, n):
        # every pivot on the way must be the full scan's of the D block, or
        # the reduction could loop instead of failing
        piv = find_pivot(w, t, m, n)
        assert piv == reference_find_pivot([row[:n] for row in w[:m]], t)
        return piv

    with mock.patch.object(intlinalg, "_find_pivot", checked_pivot):
        full = smith_decomposition(a)
        lean = smith_decomposition(a, keep_v=False)
        rowless = smith_decomposition(a, keep_u=False)
        kernel = kernel_basis(a)
    assert (full.U, full.D, full.V, full.Uinv) == (u, d, v, uinv)
    assert (lean.U, lean.D, lean.Uinv) == (u, d, uinv)
    assert lean.V == ()
    assert (rowless.D, rowless.V) == (d, v)
    assert rowless.U == rowless.Uinv == ()
    if a and a[0]:
        # the kernel is the columns r..n of V, read from the reference
        n, r = len(a[0]), full.rank
        assert kernel == [[v[i][j] for i in range(n)] for j in range(r, n)]
