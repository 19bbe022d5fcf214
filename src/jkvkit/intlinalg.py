"""Integer lattice linear algebra: pairings, Smith normal form, exact solvers.

Matrices are plain tuples of tuples of Python ints (arbitrary precision).
Row-major, immutable once built.
"""

from __future__ import annotations

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


def smith_normal_form(a: IntMat) -> tuple[IntMat, IntMat, IntMat]:
    """U, D, V with U*a*V = D, U and V unimodular, D diagonal with d1 | d2 | ...

    Pivots are chosen as the smallest nonzero absolute value in the remaining
    block, which keeps coefficient growth tame at the ranks in play.
    """
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(r) for r in a]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def row_op(i, j, q):  # row_i -= q*row_j
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col_i -= q*col_j
        for r in d:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def negate_row(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]

    n = min(rows, cols)
    t = 0
    while t < n:
        # Smallest nonzero pivot in the trailing block.
        pivot = None
        for i in range(t, rows):
            for j in range(t, cols):
                if d[i][j] != 0 and (pivot is None or abs(d[i][j]) < abs(d[pivot[0]][pivot[1]])):
                    pivot = (i, j)
        if pivot is None:
            break
        swap_rows(t, pivot[0])
        swap_cols(t, pivot[1])
        while True:
            # Reduce row/column t; any nonzero remainder is a smaller pivot.
            reduced = False
            for i in range(t + 1, rows):
                if d[i][t] != 0:
                    row_op(i, t, d[i][t] // d[t][t])
                    if d[i][t] != 0:
                        swap_rows(t, i)
                        reduced = True
            if reduced:
                continue
            for j in range(t + 1, cols):
                if d[t][j] != 0:
                    col_op(j, t, d[t][j] // d[t][t])
                    if d[t][j] != 0:
                        swap_cols(t, j)
                        reduced = True
            if reduced:
                continue
            # Row and column t are clear.  For the divisibility chain the
            # pivot must divide the whole trailing block; mix in a bad row
            # and keep reducing otherwise.
            bad = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if d[i][j] % d[t][t] != 0:
                        bad = i
                        break
                if bad is not None:
                    break
            if bad is None:
                break
            row_op(t, bad, -1)  # row_t += row_bad
        if d[t][t] < 0:
            negate_row(t)
        t += 1
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def solve_integer(a: IntMat, b: IntVec):
    """Integer solution x of a*x = b via Smith normal form, or None."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if len(b) != rows:
        raise ValueError("rhs length mismatch")
    if rows == 0:
        return (0,) * cols
    u, d, v = smith_normal_form(a)
    ub = mat_vec(u, b)
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di != 0:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    return mat_vec(v, tuple(y))


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
