"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fractions, row-major and immutable.
Pivoting is first-nonzero so every routine is deterministic.
"""

from __future__ import annotations

from fractions import Fraction

QMat = tuple[tuple[Fraction, ...], ...]
QVec = tuple[Fraction, ...]


def qmat(rows) -> QMat:
    m = tuple(tuple(Fraction(x) for x in row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def qidentity(n: int) -> QMat:
    return tuple(
        tuple(Fraction(1) if i == j else Fraction(0) for j in range(n)) for i in range(n)
    )


def qzeros(rows: int, cols: int) -> QMat:
    return tuple(tuple(Fraction(0) for _ in range(cols)) for _ in range(rows))


def qsub(a: QMat, b: QMat) -> QMat:
    return tuple(tuple(x - y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def qmul(a: QMat, b: QMat) -> QMat:
    if not a or not b:
        return ()
    if len(a[0]) != len(b):
        raise ValueError("shape mismatch in matrix product")
    bt = tuple(zip(*b))
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a
    )


def qmat_vec(a: QMat, v: QVec) -> QVec:
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def is_zero_mat(a: QMat) -> bool:
    return all(x == 0 for row in a for x in row)


def qdet(a: QMat) -> Fraction:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    m = [list(r) for r in a]
    det = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return det


def qinverse(a: QMat) -> QMat:
    n = len(a)
    m = [list(ra) + list(rb) for ra, rb in zip(a, qidentity(n))]
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        m[k], m[piv] = m[piv], m[k]
        inv = 1 / m[k][k]
        m[k] = [x * inv for x in m[k]]
        for i in range(n):
            if i != k and m[i][k] != 0:
                f = m[i][k]
                m[i] = [x - f * y for x, y in zip(m[i], m[k])]
    return tuple(tuple(row[n:]) for row in m)


def rref(a: QMat) -> tuple[QMat, list[int]]:
    """Reduced row-echelon form and the pivot column list."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) for r in a]
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        piv = next((i for i in range(r, rows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(rows):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in m), pivots


def qrank(a: QMat) -> int:
    return len(rref(a)[1])


def kernel_basis(a: QMat) -> list[QVec]:
    """Basis of the right null space, deterministic order (one per free column)."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [tuple(Fraction(1) if i == j else Fraction(0) for i in range(cols)) for j in range(cols)]
    red, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


def solve_right(a: QMat, b: QVec):
    """One solution x of a*x = b, or None; free coordinates set to 0."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = qmat([list(row) + [rhs] for row, rhs in zip(a, b)])
    red, pivots = rref(aug)
    if cols in pivots:
        return None
    x = [Fraction(0)] * cols
    for r, c in enumerate(pivots):
        x[c] = red[r][cols]
    return tuple(x)
