"""Dense exact linear algebra over the rationals.

Matrices are tuples of tuples of Fractions, row-major and immutable.
Pivoting is first-nonzero so every routine is deterministic.  The kernels
scale each matrix (``int_form``) or vector (``scaled``) by one common
denominator, multiply and eliminate on plain ints (fraction-free, Bareiss,
Math. Comp. 22, 1968; see ``intlinalg``) and build one canonical Fraction
per result entry, so they return exactly what Fraction arithmetic would.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul

from .intlinalg import det, int_kernel, inverse

QMat = tuple[tuple[Fraction, ...], ...]
QVec = tuple[Fraction, ...]

_EXACT = {int, Fraction}


def qmat(rows) -> QMat:
    m = tuple(tuple(x if type(x) is Fraction else Fraction(x) for x in row) for row in rows)
    if m and any(len(r) != len(m[0]) for r in m):
        raise ValueError("ragged matrix")
    return m


def scaled(v) -> tuple[list[int], int]:
    """v times the lcm s of its denominators, as ints, and s."""
    s = lcm(*[x.denominator for x in v])
    return [x.numerator * (s // x.denominator) for x in v], s


def int_form(rows) -> tuple[list[list[int]], int]:
    """(m, c): the matrix times the lcm c of all its denominators, as int
    rows.  Ints and Fractions are read as they are (all-int rows are copied,
    with c = 1); a matrix with any other entry goes through qmat."""
    types = {type(v) for row in rows for v in row}
    if not types <= _EXACT:
        rows = qmat(rows)
    elif len(rows) > 1 and len(set(map(len, rows))) > 1:
        raise ValueError("ragged matrix")
    elif Fraction not in types:
        return [list(row) for row in rows], 1
    c = lcm(*[v.denominator for row in rows for v in row])
    return [[v.numerator * (c // v.denominator) for v in row] for row in rows], c


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
    ra, s = int_form(a)
    rb, t = int_form(b)
    cols = tuple(zip(*rb))
    return tuple(tuple(Fraction(sum(map(mul, row, col)), s * t) for col in cols) for row in ra)


def is_zero_mat(a: QMat) -> bool:
    return all(x == 0 for row in a for x in row)


def qdet(a: QMat) -> Fraction:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("determinant of a non-square matrix")
    m, c = int_form(a)
    return Fraction(det(m), c**n)


def qinverse(a: QMat) -> QMat:
    n = len(a)
    if any(len(r) != n for r in a):
        raise ValueError("inverse of a non-square matrix")
    m, c = int_form(a)
    inv = inverse(m)
    if inv is None:
        raise ValueError("matrix is singular")
    # a = m / c, so a^-1 = c m^-1 = c rows / d
    d, rows = inv
    return tuple(tuple(Fraction(c * x, d) for x in row) for row in rows)


def kernel_basis(a: QMat) -> list[QVec]:
    """Basis of the right null space, deterministic order (one per free column).

    A matrix with no rows is read as having no columns, so its kernel is empty."""
    m, _ = int_form(a)
    kern, d = int_kernel(m, len(a[0]) if a else 0)
    return [tuple(Fraction(x, d) for x in v) for v in kern]

