from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jkvkit.gln import GLnCocharacter
from jkvkit.intlinalg import fraction_free_rref, int_kernel, mat_mul
from jkvkit.ratlinalg import (
    int_form,
    kernel_basis,
    qdet,
    qinverse,
    qmat,
    qmul,
)

F = Fraction


# ---------------------------------------------------------------------------
# Reference kernels: the Fraction-per-step routines the integer kernels
# replaced, kept here only as an oracle.  Every result must be equal.


def _ref_qmul(a, b):
    if not a or not b:
        return ()
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def _ref_qdet(a):
    n = len(a)
    m = [list(r) for r in a]
    det = F(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if m[i][k] != 0), None)
        if piv is None:
            return F(0)
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


def _ref_rref(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    m = [list(r) for r in a]
    pivots = []
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


def _ref_qinverse(a):
    n = len(a)
    m = [list(r) + [F(int(i == j)) for j in range(n)] for i, r in enumerate(a)]
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


def _ref_kernel_basis(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if cols == 0:
        return []
    if rows == 0:
        return [tuple(F(int(i == j)) for i in range(cols)) for j in range(cols)]
    red, pivots = _ref_rref(a)
    basis = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [F(0)] * cols
        v[f] = F(1)
        for r, c in enumerate(pivots):
            v[c] = -red[r][f]
        basis.append(tuple(v))
    return basis


# ---------------------------------------------------------------------------
# Inputs: mixed denominators, negative entries, zero rows and rows that are
# combinations of earlier ones (rank deficiency), down to empty shapes.

_entries = st.one_of(
    st.integers(-6, 6).map(F),
    st.builds(F, st.integers(-12, 12), st.sampled_from([1, 2, 3, 4, 6, 7, 12])),
)


@st.composite
def matrices(draw, rows=st.integers(0, 4), cols=st.integers(0, 5)):
    r = draw(rows)
    c = draw(cols)
    m = []
    for _ in range(r):
        kind = draw(st.sampled_from(["free", "free", "free", "zero", "combo"]))
        if kind == "zero" or (kind == "combo" and not m):
            row = [F(0)] * c if kind == "zero" else [draw(_entries) for _ in range(c)]
        elif kind == "combo":
            p, q = draw(st.sampled_from(m)), draw(st.sampled_from(m))
            x, y = draw(_entries), draw(_entries)
            row = [x * u + y * v for u, v in zip(p, q)]
        else:
            row = [draw(_entries) for _ in range(c)]
        m.append(row)
    return qmat(m)


def _all_fractions(value):
    if isinstance(value, tuple):
        return all(_all_fractions(x) for x in value)
    return type(value) is Fraction


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_qmul_matches_reference(data):
    n = data.draw(st.integers(1, 4))
    a = data.draw(matrices(cols=st.just(n)))
    b = data.draw(matrices(rows=st.just(n)))
    out = qmul(a, b)
    assert out == _ref_qmul(a, b) and _all_fractions(out)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_square_kernels_match_reference(data):
    n = data.draw(st.integers(0, 4))
    a = data.draw(matrices(rows=st.just(n), cols=st.just(n)))
    d = qdet(a)
    assert d == _ref_qdet(a) and type(d) is Fraction
    try:
        ref = _ref_qinverse(a)
    except ValueError:
        assert d == 0
        with pytest.raises(ValueError, match="singular"):
            qinverse(a)
    else:
        inv = qinverse(a)
        assert inv == ref and _all_fractions(inv)


def _conjugate(g, x, k=1):
    """g^-1 x g through the integer form of a cocharacter with g given as
    k times itself: H X G over d c, with (d, H) = lam.inverse."""
    lam = GLnCocharacter(tuple(tuple(k * v for v in row) for row in g), (0,) * len(g))
    xi, c = int_form(x)
    d, h = lam.inverse
    y = mat_mul(mat_mul(h, xi), lam.g_int)
    return tuple(tuple(F(v, d * c) for v in row) for row in y)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_conjugate_by_matches_the_inverse_product(data):
    n = data.draw(st.integers(1, 4))
    g = data.draw(matrices(rows=st.just(n), cols=st.just(n)))
    x = data.draw(matrices(rows=st.just(n), cols=st.just(n)))
    k = data.draw(st.sampled_from([1, -3, 7]))
    try:
        ref = _ref_qmul(_ref_qmul(_ref_qinverse(g), x), g)
    except ValueError:
        with pytest.raises(ValueError, match="^matrix is singular$"):
            _conjugate(g, x, k)
    else:
        y = _conjugate(g, x, k)
        assert y == ref and _all_fractions(y)


def test_conjugate_by_examples():
    g = qmat([[1, F(1, 2)], [0, F(-2, 3)]])
    x = qmat([[F(3, 4), -2], [F(1, 5), 0]])
    assert _conjugate(g, x) == qmul(qmul(qinverse(g), x), g)
    assert _conjugate((), ()) == ()
    with pytest.raises(ValueError, match="^matrix is singular$"):
        _conjugate(qmat([[1, 2], [F(1, 2), 1]]), x)
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        _conjugate(g, qmat([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        _conjugate(g, qmat([[1, 2]]))
    with pytest.raises(ValueError, match="^g must be a square matrix$"):
        _conjugate(qmat([[1, 2, 3], [4, 5, 6]]), x)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_elimination_kernels_match_reference(a):
    basis = kernel_basis(a)
    assert basis == _ref_kernel_basis(a)
    assert all(_all_fractions(v) for v in basis)


def test_edge_shapes():
    assert qdet(()) == 1 and type(qdet(())) is Fraction
    assert qmul((), qmat([[1]])) == ()
    assert qinverse(()) == ()
    assert kernel_basis(qmat([[], []])) == []
    assert qinverse(qmat([[F(-2, 3)]])) == ((F(-3, 2),),)
    with pytest.raises(ValueError, match="singular"):
        qinverse(qmat([[1, 2], [F(1, 2), 1]]))
    with pytest.raises(ValueError, match="non-square"):
        qdet(qmat([[1, 2]]))
    with pytest.raises(ValueError, match="non-square"):
        qinverse(qmat([[1, 2, 3], [4, 5, 6]]))
    with pytest.raises(ValueError, match="non-square"):
        qinverse(qmat([[1, 2], [3, 4], [5, 6]]))
    with pytest.raises(ValueError, match="shape mismatch"):
        qmul(qmat([[1, 2]]), qmat([[1, 2]]))


def test_fraction_free_rref_scales_the_reduced_form():
    m = [[0, 2, 4], [3, 1, 1], [3, 3, 5]]
    d, pivots = fraction_free_rref(m)
    assert pivots == [0, 1]
    assert [[F(x, d) for x in row] for row in m] == [[1, 0, F(-1, 3)], [0, 1, 2], [0, 0, 0]]


def test_int_kernel_reads_the_free_columns():
    # reduced form [[1, 0, -1/3], [0, 1, 2], [0, 0, 0]]: one free column, 2
    kern, d = int_kernel([[0, 2, 4], [3, 1, 1], [3, 3, 5]], 3)
    assert [[F(x, d) for x in v] for v in kern] == [[F(1, 3), -2, 1]]
    kern, d = int_kernel([], 2)
    assert (kern, d) == ([[1, 0], [0, 1]], 1)
    assert int_kernel([[0, 0]], 0) == ([], 1)
