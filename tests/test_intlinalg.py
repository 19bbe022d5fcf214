import pytest
from hypothesis import given, settings, strategies as st

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
    x = solve_integer(a, b)
    assert x is not None
    assert tuple(sum(a[i][j] * x[j] for j in range(cols)) for i in range(rows)) == b


def test_solve_integer_no_solution():
    assert solve_integer(((2,),), (1,)) is None
    assert solve_integer(((1,), (2,)), (1, 0)) is None


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
