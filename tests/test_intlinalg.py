"""Exact linear algebra: Smith normal form contract, kernels, rational LP."""

import random
from fractions import Fraction

import pytest

from mcseries import intlinalg
from mcseries.errors import LPLimitError
from mcseries.intlinalg import (
    MAX_STEP_CONSTRAINTS,
    det,
    feasible_point,
    identity_matrix,
    kernel_basis,
    mat_mul,
    mat_vec,
    minimize_linear,
    smith_decomposition,
    smith_normal_form,
    solve_integer,
)


def is_unimodular(m):
    return abs(det(m)) == 1


def check_snf_contract(a):
    """Full contract: U a V = D, unimodular transforms, divisibility chain."""
    u, d, v = smith_normal_form(a)
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
    vinv = [list(r) for r in dec.Vinv]
    assert mat_mul(u, uinv) == identity_matrix(3)
    assert mat_mul(vinv, v) == identity_matrix(3)


def test_snf_deterministic():
    a = [[4, -6, 2], [6, 3, -9]]
    assert smith_normal_form(a) == smith_normal_form([row[:] for row in a])


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


def test_kernel_basis():
    a = [[1, 1, -2]]
    basis = kernel_basis(a)
    assert len(basis) == 2
    for x in basis:
        assert mat_vec(a, x) == [0]
    assert kernel_basis([[1, 0], [0, 1]]) == []
    assert len(kernel_basis([[0, 0]])) == 2


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


def _bounds_on_last_variable(k):
    """k lower and k upper bounds on x_1, pairwise distinct directions."""
    return ([((j, 1), 0) for j in range(k)]
            + [((j, -1), -10) for j in range(k)])


def test_elimination_step_over_the_cap_raises_naming_the_stage():
    assert 71 * 71 > MAX_STEP_CONSTRAINTS
    with pytest.raises(LPLimitError, match=r"^fan validation gave up: an"
                       r" elimination step would create 5041 constraints"):
        feasible_point(2, _bounds_on_last_variable(71), "fan validation")
    with pytest.raises(LPLimitError, match="^grading gave up"):
        minimize_linear(2, (1, 1), _bounds_on_last_variable(71), "grading")


def test_cap_counts_the_products_of_one_step(monkeypatch):
    monkeypatch.setattr(intlinalg, "MAX_STEP_CONSTRAINTS", 3)
    assert feasible_point(2, _bounds_on_last_variable(1)) is not None
    with pytest.raises(LPLimitError, match="would create 4 constraints"
                       r" \(cap 3\)"):
        feasible_point(2, _bounds_on_last_variable(2))
