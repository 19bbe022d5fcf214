"""Integer lattice linear algebra: pairings, exact solvers, and the Smith form,
over Z and over any Euclidean ring given by its operations.

Matrices are plain tuples of tuples of Python ints (arbitrary precision).
Row-major, immutable once built.
"""

from __future__ import annotations

from itertools import repeat
from math import gcd
from operator import mul

IntVec = tuple[int, ...]
IntMat = tuple[tuple[int, ...], ...]


def pairing(lam: IntVec, chi: IntVec) -> int:
    """Dot product of a cocharacter and a character in lattice coordinates."""
    if len(lam) != len(chi):
        raise ValueError(f"rank mismatch: {len(lam)} vs {len(chi)}")
    return sum(map(mul, lam, chi))


def primitive(v: IntVec) -> IntVec:
    """Divide by the gcd of the entries; the zero vector is returned as is."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g <= 1:
        return tuple(v)
    return tuple(x // g for x in v)


def identity(n: int) -> IntMat:
    return tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n))


def mat_mul(a: IntMat, b: IntMat) -> IntMat:
    if not a or not b:
        return ()
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(map(mul, row, col)) for col in bt) for row in a)


def mat_vec(a: IntMat, v: IntVec) -> IntVec:
    if len(a[0]) != len(v):
        raise ValueError("shape mismatch in matrix-vector product")
    return tuple(sum(map(mul, row, v)) for row in a)


def det(a: IntMat) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(a)
    if n == 0:
        return 1
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in a]
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
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def is_unimodular(a: IntMat) -> bool:
    return len(a) > 0 and len(a) == len(a[0]) and det(a) in (1, -1)


def fraction_free_rref(m: list[list[int]], cols: int | None = None) -> tuple[int, list[int]]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each column in turn (only the first ``cols``, default all) pivots on its
    first nonzero entry at or below the current row, and every other row
    becomes ``(p*row - f*pivot_row) // prev`` (Bareiss, Math. Comp. 22,
    1968): after each step m is the pivot p times the Gauss-Jordan matrix
    over Q, so every division is exact.  Returns (d, pivots): m ends as d
    times the reduced row-echelon form, d being the last pivot (1 if none).
    """
    rows = len(m)
    if cols is None:
        cols = len(m[0]) if rows else 0
    pivots: list[int] = []
    prev = 1
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i == r:
                continue
            f = row[c]
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row, top)]
            elif p != prev:
                m[i] = [p * x // prev for x in row]
        pivots.append(c)
        prev = p
        r += 1
    return prev, pivots


def inverse(m) -> tuple[int, list[list[int]]] | None:
    """(d, d m^-1 as int rows) for a square integer matrix m, d the last pivot
    of one ``fraction_free_rref`` of [m | I]; None when m is singular."""
    n = len(m)
    a = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(m)]
    d, pivots = fraction_free_rref(a, n)
    if len(pivots) < n:
        return None
    return d, [row[n:] for row in a]


def smith_form(a, size, divmod_, submul, one, zero):
    """[U, D, V] as lists of rows, with U*a*V = D, U and V invertible and D
    diagonal with d1 | d2 | ..., over the Euclidean ring given by: size(x),
    the Euclidean size of a nonzero x; divmod_(x, y), quotient and
    remainder; submul(x, q, y) = x - q*y; its one and zero.  Nonzero
    elements must be truthy.  The diagonal is not normalized.

    Step t pivots on the least-size nonzero entry of the trailing block
    (row-major, first on ties), which keeps coefficient growth tame, and
    clears column t, then row t, by Euclidean division, taking any nonzero
    remainder as the new pivot; once both are clear it adds to row t the
    first row with an entry the pivot does not divide, and goes on.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    # [D | U] as one list of rows, so each row operation acts on both; the
    # column operations act on the D part and on the rows of V.
    du = [list(r) + [one if i == j else zero for j in range(rows)] for i, r in enumerate(a)]
    v = [[one if i == j else zero for j in range(cols)] for i in range(cols)]
    minus_one = submul(zero, one, one)

    def row_op(i, j, q):  # row_i -= q*row_j
        du[i] = list(map(submul, du[i], repeat(q), du[j]))

    def col_op(i, j, q):  # col_i -= q*col_j
        for r in du + v:
            r[i] = submul(r[i], q, r[j])

    def swap_cols(i, j):
        for r in du + v:
            r[i], r[j] = r[j], r[i]

    for t in range(min(rows, cols)):
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if du[i][j] and (pivot is None or size(du[i][j]) < size(du[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        du[t], du[pivot[0]] = du[pivot[0]], du[t]
        swap_cols(t, pivot[1])
        while True:
            reduced = False
            for i in range(t + 1, rows):
                if du[i][t]:
                    row_op(i, t, divmod_(du[i][t], du[t][t])[0])
                    if du[i][t]:
                        du[t], du[i] = du[i], du[t]
                        reduced = True
            if reduced:
                continue
            for j in range(t + 1, cols):
                if du[t][j]:
                    col_op(j, t, divmod_(du[t][j], du[t][t])[0])
                    if du[t][j]:
                        swap_cols(t, j)
                        reduced = True
            if reduced:
                continue
            for i in range(t + 1, rows):
                if any(divmod_(x, du[t][t])[1] for x in du[i][t + 1 : cols]):
                    row_op(t, i, minus_one)  # row_t += row_i
                    break
            else:
                break
    return [r[cols:] for r in du], [r[:cols] for r in du], v


def smith_normal_form(a: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """U, D, V with U*a*V = D, U and V unimodular, D diagonal with
    0 <= d1 | d2 | ...: ``smith_form`` over Z, then row t of D and U negated
    where d_tt < 0 (no step after step t reads row t)."""
    u, d, v = smith_form(a, abs, divmod, lambda x, q, y: x - q * y, 1, 0)
    for t in range(min(len(d), len(v))):
        if d[t][t] < 0:
            d[t], u[t] = [-x for x in d[t]], [-x for x in u[t]]
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def solve_integer(a: IntMat, bs: list[IntVec]) -> list[IntVec] | None:
    """Integer solutions x of a*x = b, one per b in bs, all from one Smith
    normal form of a (none when bs is empty); None if some b has none."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if any(len(b) != rows for b in bs):
        raise ValueError("rhs length mismatch")
    if not bs:
        return []
    if rows == 0:
        return [(0,) * cols for _ in bs]
    u, d, v = smith_normal_form(a)
    diag = [d[i][i] if i < cols else 0 for i in range(rows)]
    out = []
    for b in bs:
        ub = mat_vec(u, b)
        y = [0] * cols
        for i, di in enumerate(diag):
            if di != 0:
                if ub[i] % di != 0:
                    return None
                y[i] = ub[i] // di
            elif ub[i] != 0:
                return None
        out.append(mat_vec(v, tuple(y)))
    return out


def solve_gf2(a: list[list[int]], b: list[int]):
    """Solve a*x = b over GF(2); free coordinates are set to 0.  None if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [[x & 1 for x in row] + [rhs & 1] for row, rhs in zip(a, b)]
    piv_cols = []
    r = 0
    for c in range(cols):
        sel = next((i for i in range(r, rows) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        for i in range(rows):
            if i != r and m[i][c]:
                m[i] = [(x ^ y) for x, y in zip(m[i], m[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    for i in range(r, rows):
        if m[i][cols]:
            return None
    x = [0] * cols
    for i, c in enumerate(piv_cols):
        x[c] = m[i][cols]
    return x


def int_kernel(m: list[list[int]], cols: int) -> tuple[list[list[int]], int]:
    """Basis of the right null space of the integer rows m (reduced in place
    by ``fraction_free_rref``) as (vectors, d): one vector per free column f,
    in column order, equal to d times the rational kernel vector that is 1
    at f and 0 at the other free columns."""
    d, pivots = fraction_free_rref(m, cols)
    pivot_set = set(pivots)
    kern = []
    for f in range(cols):
        if f in pivot_set:
            continue
        v = [0] * cols
        v[f] = d
        for r, c in enumerate(pivots):
            v[c] = -m[r][f]
        kern.append(v)
    return kern, d
