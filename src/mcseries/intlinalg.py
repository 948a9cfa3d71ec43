"""Exact integer matrix algebra and rational linear programming.

Everything works over Python ints and Fractions; no floats enter anywhere.
The Smith normal form reduces one matrix that extends D by the row
transform U (with U^-1, unless keep_u=False) and the column transform V
(unless keep_v=False).  A class presentation, also one without relations,
keeps U and U^-1, which move between ambient and canonical coordinates; a
kernel needs only V.  Pivot selection is pinned (smallest absolute value,
then lowest row, then lowest column) whichever transforms are kept, so U, D
and V are reproducible across runs and the same with or without the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .errors import MCSError

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(map(mul, row, v)) for row in a]


def det(a) -> int:
    """Determinant of a square integer matrix, given as a sequence of rows:
    by cofactor expansion at 2 x 2 and 3 x 3, by fraction-free elimination
    (Bareiss) otherwise."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    if n == 2:
        (a0, a1), (b0, b1) = a
        return a0 * b1 - a1 * b0
    if n == 3:
        (a0, a1, a2), (b0, b1, b2), (c0, c1, c2) = a
        return (a0 * (b1 * c2 - b2 * c1) - a1 * (b0 * c2 - b2 * c0)
                + a2 * (b0 * c1 - b1 * c0))
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # Bareiss: exact division keeps entries integral
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def left_inverse(columns, dim: int) -> tuple[Matrix, int] | None:
    """(M, p) with p > 0 and M @ A == p * I for the matrix A whose columns
    are the given vectors of length dim, or None when they are linearly
    dependent; by fraction-free Gauss-Jordan elimination (Bareiss) of
    [A | I], whose divisions are exact."""
    k = len(columns)
    rows = [[col[i] for col in columns] + [int(i == j) for j in range(dim)]
            for i in range(dim)]
    prev = 1
    for c in range(k):
        t = next((i for i in range(c, dim) if rows[i][c]), None)
        if t is None:
            return None
        rows[c], rows[t] = rows[t], rows[c]
        top, p = rows[c], rows[c][c]
        # a row with no entry in column c is unchanged under an equal pivot
        rows = [[(x * p - row[c] * y) // prev for x, y in zip(row, top)]
                if i != c and (row[c] or p != prev) else row
                for i, row in enumerate(rows)]
        prev = p
    s = 1 if prev > 0 else -1
    return [[s * x for x in row[k:]] for row in rows[:k]], s * prev


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form.

    Uinv is the exact inverse of U, maintained during the reduction.  A call
    with keep_v=False does not build V, and one with keep_u=False builds
    neither U nor Uinv; what is left out is (), and the rest is that of the
    full call.
    """

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    Uinv: tuple[tuple[int, ...], ...]

    @property
    def diagonal(self) -> tuple[int, ...]:
        k = min(len(self.D), len(self.D[0]) if self.D else 0)
        return tuple(self.D[i][i] for i in range(k))

    @property
    def invariants(self) -> tuple[int, ...]:
        return tuple(d for d in self.diagonal if d != 0)

    @property
    def rank(self) -> int:
        return len(self.invariants)


def _find_pivot(w: Matrix, t: int, m: int, n: int) -> tuple[int, int] | None:
    """The smallest nonzero entry of the block D[t:m][t:n] of the extended
    matrix w, the lowest row then the lowest column on ties; the first unit
    in row-major order is that entry."""
    best: tuple[int, int, int] | None = None
    for i in range(t, m):
        row = w[i]
        for j in range(t, n):
            v = abs(row[j])
            if v and (best is None or v < best[0]):
                if v == 1:
                    return i, j
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_decomposition(a: Matrix, keep_v: bool = True,
                        keep_u: bool = True) -> SmithDecomposition:
    """The Smith decomposition of a, reduced on one extended matrix w
    (Cohen 1993, section 2.4): row i < m is row i of D, then row i of U
    unless keep_u=False, and unless keep_v=False the n rows below hold V.
    So a row operation on D moves U, and a column operation V; only Uinv,
    which changes by the inverse column operation, has its own loop.  The
    pivots, and so D and the transforms that are kept, are the same
    whichever are left out."""
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    w = [[*row, *e] for row, e in zip(a, identity_matrix(m) if keep_u else [[]] * m)]
    w += identity_matrix(n) if keep_v else []
    uinv = identity_matrix(m) if keep_u else []

    def row_swap(i: int, j: int) -> None:
        w[i], w[j] = w[j], w[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i: int, j: int, q: int) -> None:
        # row i += q * row j; inverse recorded on the column side of Uinv
        wi, wj = w[i], w[j]
        for k in range(len(wi)):
            wi[k] += q * wj[k]
        for r in uinv:
            r[j] -= q * r[i]

    def row_neg(i: int) -> None:
        w[i] = [-x for x in w[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i: int, j: int) -> None:
        for r in w:
            r[i], r[j] = r[j], r[i]

    def col_add(j: int, i: int, q: int) -> None:
        # col j += q * col i; i is the pivot column t, zero above row t
        for r in w[i:]:
            r[j] += q * r[i]

    t = 0
    while t < min(m, n) and (piv := _find_pivot(w, t, m, n)) is not None:
        while True:  # each round pivots on the smallest entry left
            i, j = piv
            if i != t:
                row_swap(t, i)
            if j != t:
                col_swap(t, j)
            clean = True
            for i in range(t + 1, m):
                if w[i][t]:
                    q = w[i][t] // w[t][t]
                    if q:
                        row_add(i, t, -q)
                    if w[i][t]:
                        clean = False
            for j in range(t + 1, n):
                if w[t][j]:
                    q = w[t][j] // w[t][t]
                    if q:
                        col_add(j, t, -q)
                    if w[t][j]:
                        clean = False
            if clean:
                # pivot must divide the whole remaining submatrix before moving
                # on, otherwise pull the offending row up and reduce again;
                # a unit divides everything
                p = w[t][t]
                if p == 1 or p == -1:
                    break
                pulled = next((i for i in range(t + 1, m)
                               if any(w[i][j] % p for j in range(t + 1, n))), None)
                if pulled is None:
                    break
                row_add(t, pulled, 1)
            piv = _find_pivot(w, t, m, n)
        if w[t][t] < 0:
            row_neg(t)
        t += 1

    u = tuple(tuple(row[n:]) for row in w[:m]) if keep_u else ()
    d = tuple(tuple(row[:n]) for row in w[:m])
    return SmithDecomposition(u, d, tuple(map(tuple, w[m:])), tuple(map(tuple, uinv)))


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Basis of the integer kernel {x : a @ x = 0}, as column vectors: the
    columns r..n of V in the Smith decomposition U a V = D of rank r, which
    is made without the row transforms U and U^-1 that nothing here reads."""
    if not a or not a[0]:
        return []
    dec = smith_decomposition(a, keep_u=False)
    return [list(col) for col in zip(*dec.V)][dec.rank:]


def solve_integer(a: Matrix, b: list[int]) -> list[int] | None:
    """An integer solution x of a @ x = b, or None when none exists."""
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    dec = smith_decomposition(a)
    y = mat_vec(dec.U, b)
    r = dec.rank
    z = [0] * n
    for i in range(min(m, n)):
        di = dec.D[i][i]
        if di:
            if y[i] % di:
                return None
            z[i] = y[i] // di
    for i in range(r, m):
        if y[i] != 0:
            return None
    return mat_vec(dec.V, z)


# ---------------------------------------------------------------------------
# exact linear feasibility / optimization by the simplex method

# Bland's rule makes the simplex finite, not polynomial, so a run that would
# pass this many pivots aborts instead.  Only the grading LP of
# monoid.positive_grading runs here: benchmark gradings take at most 12 pivots,
# the 4-cube face fan and a product of two twice blown-up planes 28.
MAX_PIVOTS = 5000


def _simplex(num_vars: int, cons, objective, stage: str
             ) -> list[Fraction] | None:
    """A point of {x : sum(c*x) >= rhs for cons}, or None when it is empty.

    Each constraint becomes a slack s_i = c.x - rhs >= 0; x is free and enters
    from the highest index down, and an x_j that meets no slack row stays 0.
    One artificial variable serves as phase 1 when a slack is negative.
    Phase 2 prices columns lexicographically over the rows (objective, x_0,
    .., x_{n-1}).  Pivots follow Bland's rule, so every run ends.
    """
    # basic[i] = tab[i][0] + sum(tab[i][k] * nonbasic[k-1]).  Variable j < art
    # is x_j, art + 1 + i the slack of row i and -1 the objective; art is the
    # least sign-constrained index, so Bland's rule drops it once it can be 0.
    art = num_vars
    nonbasic = list(range(num_vars))
    tab = [[-rhs, *coeffs] for coeffs, rhs in cons]
    basic = [art + 1 + i for i in range(len(tab))] + [-1]
    tab.append([0, *objective])
    pivots = 0

    def pivot(r: int, c: int) -> None:
        nonlocal pivots
        pivots += 1
        if pivots > MAX_PIVOTS:
            raise MCSError(f"{stage} gave up: the simplex would make pivot"
                           f" {pivots}, over the cap of {MAX_PIVOTS}")
        p = tab[r][c]
        # unit pivots keep integer entries integers
        inv = -p if p in (1, -1) else Fraction(-1) / p
        tab[r][c] = -1
        tab[r] = row = [v * inv for v in tab[r]]
        for i, other in enumerate(tab):
            f = other[c]
            if f and i != r:
                other[c] = 0
                for k, v in enumerate(row):
                    if v:
                        other[k] += f * v
        basic[r], nonbasic[c - 1] = nonbasic[c - 1], basic[r]

    def leaving(c: int) -> int | None:
        # least ratio over the sign-constrained rows, ties to the least index
        ratios = [(Fraction(tab[i][0]) / -tab[i][c], b, i)
                  for i, b in enumerate(basic) if b >= art and tab[i][c] < 0]
        return min(ratios)[2] if ratios else None

    def entering(rows: list[int]) -> int | None:
        # the least slack whose column is lexicographically negative
        cols = [c for c, v in enumerate(nonbasic, 1) if v > art
                and next((tab[r][c] for r in rows if tab[r][c]), 0) < 0]
        return min(cols, key=lambda c: nonbasic[c - 1], default=None)

    for j in range(num_vars, 0, -1):
        r = next((i for i, b in enumerate(basic) if b > art and tab[i][j]), None)
        if r is not None:
            pivot(r, j)
    nonbasic.append(art)
    tab = [row + [int(b > art)] for row, b in zip(tab, basic)]
    negative = [(tab[i][0], b, i) for i, b in enumerate(basic)
                if b > art and tab[i][0] < 0]
    if negative:
        pivot(min(negative)[2], len(nonbasic))
        rows = [basic.index(art)]
        while art in basic and (c := entering(rows)) is not None:
            pivot(leaving(c), c)
        if art in basic:
            return None
    # the artificial variable is nonbasic at 0 now, and entering() skips it
    rows = [basic.index(v) for v in range(-1, num_vars) if v in basic]
    while (c := entering(rows)) is not None and (r := leaving(c)) is not None:
        pivot(r, c)
    return [Fraction(tab[basic.index(j)][0]) if j in basic else Fraction(0)
            for j in range(num_vars)]


def feasible_point(num_vars: int, cons,
                   stage: str = "linear program") -> list[Fraction] | None:
    """A rational point satisfying all constraints sum(c*x) >= rhs, or None,
    made deterministically by the simplex with a zero objective.  Raises
    MCSError, naming the stage, past MAX_PIVOTS pivots."""
    return _simplex(num_vars, cons, (0,) * num_vars, stage)


def minimize_linear(num_vars: int, objective, cons, stage: str = "linear program"
                    ) -> tuple[Fraction, list[Fraction]] | None:
    """Minimize objective . x over {x : cons}, exactly.

    Returns (optimal value, an optimal point), or None when infeasible.  The
    point is the lexicographically least optimal one with x_j = 0 wherever
    column j is a combination of the later columns, as Fourier-Motzkin
    back-substitution picks it.  Precondition: the objective is a positive
    combination of the constraint forms, as for every caller here; otherwise
    the point is merely feasible.  Raises MCSError past MAX_PIVOTS pivots.
    """
    point = _simplex(num_vars, cons, objective, stage)
    if point is None:
        return None
    return sum((Fraction(c) * x for c, x in zip(objective, point)), Fraction(0)), point
