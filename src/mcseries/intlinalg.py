"""Exact integer matrix algebra and rational linear programming.

Everything works over Python ints and Fractions; no floats enter anywhere.
The Smith normal form tracks all four transform matrices so callers can move
between ambient coordinates of a presentation and its canonical coordinates.
Pivot selection is pinned (smallest absolute value, then lowest row, then
lowest column) so U and V are reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import LPLimitError

Matrix = list[list[int]]


def identity_matrix(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    if a and b and len(a[0]) != len(b):
        raise ValueError("dimension mismatch in mat_mul")
    cols = len(b[0]) if b else 0
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for i in range(len(a))]


def mat_vec(a: Matrix, v: list[int]) -> list[int]:
    return [sum(row[k] * v[k] for k in range(len(v))) for row in a]


def transpose(a: Matrix) -> Matrix:
    """The transpose of a.  Public helper for callers and tests; the
    package itself has no caller."""
    if not a:
        return []
    return [[a[i][j] for i in range(len(a))] for j in range(len(a[0]))]


def det(a: Matrix) -> int:
    """Determinant of a square integer matrix, by fraction-free elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(row) != n for row in a):
        raise ValueError("det needs a square matrix")
    m = [row[:] for row in a]
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


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with U, V unimodular and D in Smith normal form.

    Uinv and Vinv are the exact inverses, maintained during the reduction.
    """

    U: tuple[tuple[int, ...], ...]
    D: tuple[tuple[int, ...], ...]
    V: tuple[tuple[int, ...], ...]
    Uinv: tuple[tuple[int, ...], ...]
    Vinv: tuple[tuple[int, ...], ...]

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


def _find_pivot(d: Matrix, t: int) -> tuple[int, int] | None:
    best: tuple[int, int, int] | None = None
    for i in range(t, len(d)):
        row = d[i]
        for j in range(t, len(row)):
            v = abs(row[j])
            if v and (best is None or v < best[0]):
                best = (v, i, j)
    return None if best is None else (best[1], best[2])


def smith_decomposition(a: Matrix) -> SmithDecomposition:
    m = len(a)
    n = len(a[0]) if m else 0
    if any(len(row) != n for row in a):
        raise ValueError("ragged matrix")
    d = [list(row) for row in a]
    u = identity_matrix(m)
    uinv = identity_matrix(m)
    v = identity_matrix(n)
    vinv = identity_matrix(n)

    def row_swap(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in uinv:
            r[i], r[j] = r[j], r[i]

    def row_add(i: int, j: int, q: int) -> None:
        # row i += q * row j; inverse recorded on the column side of Uinv
        di, dj = d[i], d[j]
        for k in range(n):
            di[k] += q * dj[k]
        ui, uj = u[i], u[j]
        for k in range(m):
            ui[k] += q * uj[k]
        for r in uinv:
            r[j] -= q * r[i]

    def row_neg(i: int) -> None:
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in uinv:
            r[i] = -r[i]

    def col_swap(i: int, j: int) -> None:
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_add(j: int, i: int, q: int) -> None:
        # col j += q * col i
        for r in d:
            r[j] += q * r[i]
        for r in v:
            r[j] += q * r[i]
        vi, vj = vinv[i], vinv[j]
        for k in range(n):
            vi[k] -= q * vj[k]

    t = 0
    limit = min(m, n)
    while t < limit:
        piv = _find_pivot(d, t)
        if piv is None:
            break
        while True:
            piv = _find_pivot(d, t)
            i, j = piv  # type: ignore[misc]
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
            if not clean:
                continue
            # pivot must divide the whole remaining submatrix before moving on,
            # otherwise pull the offending row up and reduce again
            p = d[t][t]
            pulled = False
            for i in range(t + 1, m):
                if any(d[i][j] % p for j in range(t + 1, n)):
                    row_add(t, i, 1)
                    pulled = True
                    break
            if not pulled:
                break
        if d[t][t] < 0:
            row_neg(t)
        t += 1

    freeze = lambda mat: tuple(tuple(row) for row in mat)
    return SmithDecomposition(freeze(u), freeze(d), freeze(v), freeze(uinv), freeze(vinv))


def smith_normal_form(a: Matrix) -> tuple[Matrix, Matrix, Matrix]:
    """Return (U, D, V) with U @ a @ V == D in Smith normal form, as lists.

    Public helper with its own tests; the package itself calls
    smith_decomposition, which also keeps the inverse transforms."""
    dec = smith_decomposition(a)
    unfreeze = lambda mat: [list(row) for row in mat]
    return unfreeze(dec.U), unfreeze(dec.D), unfreeze(dec.V)


def kernel_basis(a: Matrix) -> list[list[int]]:
    """Basis of the integer kernel {x : a @ x = 0}, as column vectors."""
    m = len(a)
    n = len(a[0]) if m else 0
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    dec = smith_decomposition(a)
    r = dec.rank
    return [[dec.V[i][j] for i in range(n)] for j in range(r, n)]


def solve_integer(a: Matrix, b: list[int]) -> list[int] | None:
    """An integer solution x of a @ x = b, or None when none exists."""
    m = len(a)
    n = len(a[0]) if m else 0
    if len(b) != m:
        raise ValueError("rhs length mismatch")
    if n == 0:
        return [] if all(x == 0 for x in b) else None
    dec = smith_decomposition(a)
    y = mat_vec([list(r) for r in dec.U], b)
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
    return mat_vec([list(row) for row in dec.V], z)


# ---------------------------------------------------------------------------
# exact linear feasibility / optimization by Fourier-Motzkin elimination

Constraint = tuple[tuple[Fraction, ...], Fraction]  # sum(coeffs * x) >= rhs

# An elimination step can square the constraint count, so a step that would
# create more constraints than this aborts instead.  In the package only the
# grading LP of monoid.positive_grading runs here: benchmark gradings stay at
# 10 constraints a step and those of the test fans below 1000; the gradings
# of the 4-cube face fan and of a product of two twice blown-up planes reach
# 9,695 and 15,300, and millions one step later.
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


def feasible_point(num_vars: int, cons,
                   stage: str = "linear program") -> list[Fraction] | None:
    """A rational point satisfying all constraints sum(c*x) >= rhs, or None.

    Deterministic: eliminates the highest-index variable first and picks the
    max lower bound (else min(0, upper bound)) while back-substituting.
    Raises LPLimitError, naming the stage, when an elimination step would
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
            raise LPLimitError(
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


def minimize_linear(num_vars: int, objective, cons, stage: str = "linear program"
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
    point = feasible_point(num_vars + 1, aug, stage)
    if point is None:
        return None
    xs = point[1:]
    value = sum((obj[i] * xs[i] for i in range(num_vars)), Fraction(0))
    return value, xs
