from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from jkvkit.gln import invariant_factors
from jkvkit.intlinalg import (
    det,
    identity,
    inverse,
    is_unimodular,
    mat_mul,
    pairing,
    primitive,
    smith_normal_form,
    solve_gf2,
    solve_integer,
)


def test_pairing_examples():
    assert pairing((1, 0), (0, 1)) == 0
    assert pairing((2, -1), (3, 4)) == 2
    assert pairing((0, 0, 0), (5, -7, 9)) == 0


def test_pairing_rank_mismatch():
    with pytest.raises(ValueError):
        pairing((1, 2), (1, 2, 3))


@given(
    st.integers(1, 4).flatmap(
        lambda r: st.tuples(*[st.lists(st.integers(-9, 9), min_size=r, max_size=r) for _ in range(3)])
    )
)
def test_pairing_bilinear_and_symmetric(vecs):
    a, b, c = (tuple(v) for v in vecs)
    s = tuple(x + y for x, y in zip(a, b))
    assert pairing(s, c) == pairing(a, c) + pairing(b, c)
    assert pairing(a, c) == pairing(c, a)


def test_primitive():
    assert primitive((2, -4, 6)) == (1, -2, 3)
    assert primitive((0, 0)) == (0, 0)
    assert primitive((-3,)) == (-1,)  # direction preserved
    assert primitive((3,)) == (1,)


def _diag(m):
    return [m[i][i] for i in range(min(len(m), len(m[0])))]


def test_snf_examples():
    _, d, _ = smith_normal_form(identity(2))
    assert _diag(d) == [1, 1]
    u, d, v = smith_normal_form(((2, 0), (0, 3)))
    assert _diag(d) == [1, 6]
    assert is_unimodular(u) and is_unimodular(v) and not is_unimodular(d)
    z = ((0, 0), (0, 0))
    u, d, v = smith_normal_form(z)
    assert d == z and u == identity(2) and v == identity(2)


@settings(max_examples=300)
@given(
    st.integers(1, 4),
    st.integers(1, 4),
    st.data(),
)
def test_snf_postconditions(rows, cols, data):
    m = tuple(tuple(data.draw(st.integers(-9, 9)) for _ in range(cols)) for _ in range(rows))
    u, d, v = smith_normal_form(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert det(u) in (1, -1) and det(v) in (1, -1)
    diag = _diag(d)
    for i in range(rows):
        for j in range(cols):
            if i != j:
                assert d[i][j] == 0
    for i in range(len(diag)):
        assert diag[i] >= 0
        if i + 1 < len(diag) and diag[i] != 0:
            assert diag[i + 1] % diag[i] == 0
        if diag[i] == 0 and i + 1 < len(diag):
            assert diag[i + 1] == 0


@settings(max_examples=200)
@given(st.integers(1, 3), st.integers(1, 3), st.data())
def test_solve_integer_agrees_with_verification(rows, cols, data):
    a = tuple(tuple(data.draw(st.integers(-6, 6)) for _ in range(cols)) for _ in range(rows))
    x_true = [data.draw(st.integers(-5, 5)) for _ in range(cols)]
    b = tuple(sum(a[i][j] * x_true[j] for j in range(cols)) for i in range(rows))
    [x] = solve_integer(a, [b])
    assert tuple(sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)) == b


def test_solve_integer_no_solution():
    assert solve_integer(((2,),), [(1,)]) is None
    assert solve_integer(((1,), (2,)), [(1, 0)]) is None
    assert solve_integer(((2,),), [(2,), (1,)]) is None  # one unsolvable b is enough


def test_solve_integer_solves_every_right_hand_side_from_one_smith_form(monkeypatch):
    import jkvkit.intlinalg as intlinalg_mod

    calls = []
    snf = intlinalg_mod.smith_normal_form
    monkeypatch.setattr(intlinalg_mod, "smith_normal_form", lambda a: calls.append(a) or snf(a))
    a = ((1, 2), (3, 4), (5, 6))
    assert solve_integer(a, []) == [] and calls == []
    assert solve_integer(a, [(1, 3, 5), (2, 4, 6), (0, 0, 0)]) == [(1, 0), (0, 1), (0, 0)]
    assert calls == [a]


def test_solve_gf2():
    x = solve_gf2([[1, 0], [1, 1]], [1, 0])
    assert x == [1, 1]
    assert solve_gf2([[1, 1], [1, 1]], [0, 1]) is None


def test_inverse_of_a_unimodular_matrix_is_integral():
    m = ((2, 1), (1, 1))
    d, rows = inverse(m)
    assert mat_mul(rows, m) == tuple(tuple(d * v for v in row) for row in identity(2))
    assert [[v // d for v in row] for row in rows] == [[1, -1], [-1, 2]]


def test_inverse_of_a_singular_matrix_is_none():
    assert inverse(((1, 2), (2, 4))) is None
    assert inverse(((0,),)) is None


def test_inverse_of_the_empty_matrix():
    assert inverse(()) == (1, [])


@given(
    st.integers(1, 4).flatmap(
        lambda n: st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n), min_size=n, max_size=n)
    )
)
@settings(max_examples=100, deadline=None)
def test_inverse_rows_times_m_is_d_times_identity(m):
    inv = inverse(m)
    if inv is None:
        assert det(m) == 0
        return
    d, rows = inv
    assert d != 0 and det(m) != 0
    assert mat_mul(rows, m) == tuple(tuple(d * v for v in row) for row in identity(len(m)))


# Differential checks of the one Smith-form loop, ``intlinalg.smith_form``,
# against copies of the two loops it replaced: the Z form with its sign
# normalization inside each step, and the Q[t] diagonal of tI - X.


def _reference_smith_normal_form(a):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    d = [list(r) for r in a]
    u = [list(r) for r in identity(rows)]
    v = [list(r) for r in identity(cols)]

    def row_op(i, j, q):
        d[i] = [x - q * y for x, y in zip(d[i], d[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):
        for r in d + v:
            r[i] -= q * r[j]

    def swap_rows(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        for r in d + v:
            r[i], r[j] = r[j], r[i]

    for t in range(min(rows, cols)):
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
            bad = None
            for i in range(t + 1, rows):
                if any(d[i][j] % d[t][t] != 0 for j in range(t + 1, cols)):
                    bad = i
                    break
            if bad is None:
                break
            row_op(t, bad, -1)
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return tuple(map(tuple, u)), tuple(map(tuple, d)), tuple(map(tuple, v))


def _reference_solve_integer(a, b):
    rows = len(a)
    cols = len(a[0]) if rows else 0
    if rows == 0:
        return (0,) * cols
    u, d, v = _reference_smith_normal_form(a)
    ub = [sum(x * y for x, y in zip(row, b)) for row in u]
    y = [0] * cols
    for i in range(rows):
        di = d[i][i] if i < min(rows, cols) else 0
        if di != 0:
            if ub[i] % di != 0:
                return None
            y[i] = ub[i] // di
        elif ub[i] != 0:
            return None
    return tuple(sum(x * z for x, z in zip(row, y)) for row in v)


def _reference_invariant_factors(x):
    from jkvkit.polys import degree, monic, poly, poly_add, poly_divmod, poly_mod, poly_mul
    from jkvkit.polys import poly_sub

    n = len(x)
    m = [[poly([-x[i][j]] + ([1] if i == j else [])) for j in range(n)] for i in range(n)]
    for t in range(n):
        piv = None
        for i in range(t, n):
            for j in range(t, n):
                if m[i][j] and (piv is None or degree(m[i][j]) < degree(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        m[t], m[piv[0]] = m[piv[0]], m[t]
        for row in m:
            row[t], row[piv[1]] = row[piv[1]], row[t]
        while True:
            reduced = False
            for i in range(t + 1, n):
                if m[i][t]:
                    q, _ = poly_divmod(m[i][t], m[t][t])
                    m[i] = [poly_sub(a, poly_mul(q, b)) for a, b in zip(m[i], m[t])]
                    if m[i][t]:
                        m[t], m[i] = m[i], m[t]
                        reduced = True
            if reduced:
                continue
            for j in range(t + 1, n):
                if m[t][j]:
                    q, _ = poly_divmod(m[t][j], m[t][t])
                    for row in m:
                        row[j] = poly_sub(row[j], poly_mul(q, row[t]))
                    if m[t][j]:
                        for row in m:
                            row[t], row[j] = row[j], row[t]
                        reduced = True
            if reduced:
                continue
            bad = None
            for i in range(t + 1, n):
                if any(m[i][j] and poly_mod(m[i][j], m[t][t]) for j in range(t + 1, n)):
                    bad = i
                    break
            if bad is None:
                break
            m[t] = [poly_add(a, b) for a, b in zip(m[t], m[bad])]
    return tuple(f for f in (monic(m[i][i]) for i in range(n)) if degree(f) >= 1)


_ENTRY = st.one_of(st.just(0), st.integers(-1000, 1000), st.integers(-3, 3))


@st.composite
def _sparse_int_matrices(draw):
    """0-6 x 1-6 integer matrices (the empty matrix for 0 rows), some rows
    and columns zeroed."""
    rows, cols = draw(st.integers(0, 6)), draw(st.integers(1, 6))
    m = [[draw(_ENTRY) for _ in range(cols)] for _ in range(rows)]
    zero_rows = draw(st.sets(st.integers(0, max(rows - 1, 0)), max_size=2))
    zero_cols = draw(st.sets(st.integers(0, cols - 1), max_size=2))
    return tuple(
        tuple(0 if i in zero_rows or j in zero_cols else x for j, x in enumerate(row))
        for i, row in enumerate(m)
    )


@settings(max_examples=400, deadline=None)
@given(_sparse_int_matrices(), st.data())
def test_smith_normal_form_and_solve_integer_match_the_reference_loop(a, data):
    assert smith_normal_form(a) == _reference_smith_normal_form(a)
    rows, cols = len(a), len(a[0]) if a else 0
    bs = []
    for _ in range(data.draw(st.integers(0, 3))):
        if data.draw(st.booleans()):
            x = [data.draw(st.integers(-9, 9)) for _ in range(cols)]
            bs.append(tuple(sum(r * c for r, c in zip(row, x)) for row in a))
        else:
            bs.append(tuple(data.draw(st.integers(-50, 50)) for _ in range(rows)))
    want = [_reference_solve_integer(a, b) for b in bs]
    assert solve_integer(a, bs) == (None if None in want else want)


_RATIONAL = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


def _square(entries, sizes):
    return sizes.flatmap(
        lambda n: st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)
    )


@settings(max_examples=200, deadline=None)
@given(_square(_RATIONAL, st.integers(1, 4)))
def test_invariant_factors_match_the_reference_loop(x):
    x = tuple(map(tuple, x))
    assert invariant_factors(x) == _reference_invariant_factors(x)


@settings(max_examples=100, deadline=None)
@given(_square(st.integers(-2, 2), st.integers(1, 3)))
def test_invariant_factors_of_small_integer_matrices_match_the_reference_loop(x):
    """Small integer entries give repeated eigenvalues and nontrivial chains."""
    x = tuple(tuple(Fraction(v) for v in row) for row in x)
    assert invariant_factors(x) == _reference_invariant_factors(x)
