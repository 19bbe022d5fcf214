"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fractions, row-major and immutable.
Pivoting is first-nonzero so every routine is deterministic.  The kernels
scale each row (or column) by the lcm of its denominators, multiply and
eliminate on plain ints (fraction-free, Bareiss, Math. Comp. 22, 1968; see
``intlinalg.fraction_free_rref``) and build one canonical Fraction per
result entry, so they return exactly what Fraction arithmetic would.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm, prod
from operator import mul

from .intlinalg import det, fraction_free_rref, int_kernel

QMat = tuple[tuple[Fraction, ...], ...]
QVec = tuple[Fraction, ...]


def qmat(rows) -> QMat:
    m = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def scaled(v) -> tuple[list[int], int]:
    """v times the lcm s of its denominators, as ints, and s."""
    s = lcm(*[x.denominator for x in v])
    return [x.numerator * (s // x.denominator) for x in v], s


def int_rows(a: QMat) -> tuple[list[list[int]], list[int]]:
    """Row-scaled integer copy of a, and the row scales."""
    pairs = [scaled(row) for row in a]
    return [r for r, _ in pairs], [s for _, s in pairs]


def int_form(rows) -> tuple[list[list[int]], int]:
    """(m, c): the matrix times the lcm c of all its denominators, as int
    rows.  Rows of plain ints are taken as they are, with c = 1; anything
    else goes through qmat."""
    m = [list(row) for row in rows]
    if all(type(v) is int for row in m for v in row):
        if m and any(len(r) != len(m[0]) for r in m):
            raise ValueError("ragged matrix")
        return m, 1
    q = qmat(m)
    c = lcm(*[v.denominator for row in q for v in row])
    return [[v.numerator * (c // v.denominator) for v in row] for row in q], c


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
    ra, sa = int_rows(a)
    cb, sb = int_rows(tuple(zip(*b)))
    return tuple(
        tuple(Fraction(sum(map(mul, row, col)), s * t) for col, t in zip(cb, sb))
        for row, s in zip(ra, sa)
    )


def qmat_vec(a: QMat, v: QVec) -> QVec:
    ra, sa = int_rows(a)
    iv, t = scaled(v)
    return tuple(Fraction(sum(map(mul, row, iv)), s * t) for row, s in zip(ra, sa))


def is_zero_mat(a: QMat) -> bool:
    return all(x == 0 for row in a for x in row)


def qdet(a: QMat) -> Fraction:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    m, scales = int_rows(a)
    return Fraction(det(m), prod(scales))


def qinverse(a: QMat) -> QMat:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    m, scales = int_rows(a)
    # Row i of [a | I] scaled by s_i is row i of [m | diag(scales)].
    for i, row in enumerate(m):
        row.extend(scales[i] if i == j else 0 for j in range(n))
    d, pivots = fraction_free_rref(m, n)
    if len(pivots) < n:
        raise ValueError("matrix is singular")
    return tuple(tuple(Fraction(x, d) for x in row[n:]) for row in m)


def kernel_basis(a: QMat) -> list[QVec]:
    """Basis of the right null space, deterministic order (one per free column).

    A matrix with no rows is read as having no columns, so its kernel is empty."""
    m, _ = int_rows(a)
    kern, d = int_kernel(m, len(a[0]) if a else 0)
    return [tuple(Fraction(x, d) for x in v) for v in kern]

