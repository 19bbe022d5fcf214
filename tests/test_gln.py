import inspect
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import isqrt, lcm
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from jkvkit import gln, intlinalg
from jkvkit.checks import ProblemFormatError
from jkvkit.gln import (
    GLnCocharacter,
    _combination_iter,
    bruhat,
    central_cocharacter,
    commutant_basis,
    conj_limiter,
    eval_poly_matrix,
    invariant_factors,
    is_semisimple_matrix,
    jkv_gln,
    jordan_chevalley,
    levi_part,
    limit_conj,
    minpoly,
    rational_conjugacy,
)
from jkvkit import oracles
from jkvkit.intlinalg import identity
from jkvkit.oracles import FuzzConfig, charpoly
from jkvkit.polys import poly, poly_mul
from jkvkit.ratlinalg import (
    int_form,
    is_zero_mat,
    kernel_basis,
    qdet,
    qidentity,
    qinverse,
    qmat,
    qmul,
    qzeros,
)
from jkvkit.suites import run_suite

F = Fraction
SRC = Path(__file__).resolve().parent.parent / "src"


def m(rows):
    return qmat(rows)


def test_cocharacter_validation():
    # unsorted exponents are canonicalized by absorbing a permutation into g
    lam = GLnCocharacter(qidentity(2), (0, 1))
    assert lam.exponents == (1, 0)
    assert lam.g == m([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="^matrix is singular$"):
        GLnCocharacter(m([[1, 0], [2, 0]]), (1, 0))
    with pytest.raises(ValueError, match="square"):
        GLnCocharacter(m([[1, 0, 0], [0, 1, 0]]), (1, 0))
    with pytest.raises(ValueError, match="square"):
        GLnCocharacter(m([[1, 0], [0, 1], [0, 0]]), (1, 0, 0))


def test_cocharacter_integer_form_keeps_the_validation_messages():
    for g, exps, msg in [
        (m([[F(1, 2), 1], [1, 2]]), (0, 1), "matrix is singular"),
        (m([[F(2, 3), F(1, 3)], [F(4, 5), F(2, 5)]]), (1, 0), "matrix is singular"),
        (m([[F(1, 2), 0, 0], [0, 1, 0]]), (1, 0), "g must be a square matrix"),
        (m([[F(1, 2), 0], [0, 1], [0, 0]]), (1, 0, 0), "g must be a square matrix"),
        (m([[F(1, 2), 0], [0, 1]]), (1, 0, 0), "exponent count must match the matrix size"),
    ]:
        with pytest.raises(ValueError, match=f"^{msg}$"):
            GLnCocharacter(g, exps)
    # int rows, as the cocharacter sampler passes them, and the equal
    # Fraction rows fail with the same messages
    for g, exps, msg in [
        ([[1, 2], [2, 4]], (0, 1), "matrix is singular"),
        ([[0, 0, 1], [1, 0, 0], [1, 0, 1]], (1, 0, 0), "matrix is singular"),
        ([[1, 0, 0], [0, 1, 0]], (1, 0), "g must be a square matrix"),
        ([[1, 0], [0, 1], [0, 0]], (1, 0, 0), "g must be a square matrix"),
        ([[1, 0], [0, 1]], (1, 0, 0), "exponent count must match the matrix size"),
    ]:
        for rows in (g, m(g)):
            with pytest.raises(ValueError, match=f"^{msg}$"):
                GLnCocharacter(rows, exps)
    # the integer form is g times the lcm of its denominators, after the
    # column reorder that sorts the exponents
    lam = GLnCocharacter(m([[F(1, 2), F(1, 3)], [0, F(-1, 4)]]), (-1, 2))
    assert lam.exponents == (2, -1)
    assert lam.g == m([[F(1, 3), F(1, 2)], [F(-1, 4), 0]])
    assert lam.g_int == ((4, 6), (-3, 0))
    assert all(type(v) is int for row in lam.g_int for v in row)
    assert "g_int" not in repr(lam)
    assert lam == GLnCocharacter(lam.g, lam.exponents)


def test_cocharacter_rejects_exponents_that_are_not_integers():
    """Exponents are read with operator.index, so 2.5 or Fraction(5, 2) is
    refused, not truncated to 2; an integral Fraction or float is refused
    too, as it is no int."""
    for exps in [(2.5, 0), (F(5, 2), True), (F(2), 0), (2.0, 0), ("1", 0), (0, None)]:
        for rows in ([[1, 0], [0, 1]], qidentity(2)):
            with pytest.raises(ProblemFormatError, match="^exponents must be integers$"):
                GLnCocharacter(rows, exps)
    with pytest.raises(ProblemFormatError, match="^exponents must be integers$"):
        GLnCocharacter([[1]], 3)
    # any int is read as itself; a bool is an int, as in indexing
    assert GLnCocharacter(identity(2), (-2, 5)).exponents == (5, -2)
    assert GLnCocharacter(identity(2), (True, -2)).exponents == (1, -2)


def test_cocharacter_inverse_is_lazy_and_outside_equality():
    g = m([[F(1, 2), 3], [-1, F(2, 3)]])
    a = GLnCocharacter(g, (0, 2))
    b = GLnCocharacter(g, (0, 2))
    h = hash(a)
    assert "inverse" not in vars(a) and "inverse" not in vars(b)
    d, rows = b.inverse
    assert "inverse" in vars(b) and "inverse" not in vars(a)
    assert rows == tuple(tuple(d * v for v in row) for row in qinverse(b.g_int))
    assert repr(a) == repr(b)
    assert a == b and hash(a) == hash(b) == h
    assert len({a, b}) == 1
    rng = random.Random(7)
    for _ in range(20):
        lam = oracles.sample_gln_cocharacter(rng, rng.randint(1, 4))
        # g = G / c, so g^-1 = c G^-1 = c H / d
        d, rows = lam.inverse
        assert tuple(tuple(F(lam.g_den * v, d) for v in row) for row in rows) == qinverse(lam.g)


def test_rejected_limit_tries_build_no_rational_matrix():
    lam = GLnCocharacter([[1, 1], [0, 1]], (0, 1))
    assert conj_limiter(m([[1, 0], [F(1, 2), 1]]))(lam) is None
    assert "g" not in vars(lam) and "inverse" not in vars(lam)
    lam = oracles.sample_gln_cocharacter(random.Random(5), 3)
    assert "g" not in vars(lam) and "inverse" not in vars(lam)
    assert limit_conj(lam, qidentity(3)) == qidentity(3)


def test_cocharacter_from_int_rows_equals_the_fraction_rows():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randint(1, 4)
        rows = oracles._random_unimodular(rng, n)
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        a = GLnCocharacter(rows, exps)
        b = GLnCocharacter(m(rows), exps)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert (a.g, a.inverse, a.g_int) == (b.g, b.inverse, b.g_int)
        assert all(type(v) is F for row in a.g for v in row)
        assert all(type(v) is int for row in a.inverse[1] for v in row)
    half = GLnCocharacter(m([[F(1, 2), 0], [0, 1]]), (0, 0))
    assert half != GLnCocharacter([[1, 0], [0, 1]], (0, 0)) and half.g_int == ((1, 0), (0, 2))


def test_limit_conj_examples():
    lam = GLnCocharacter(qidentity(2), (1, 0))
    assert limit_conj(lam, m([[1, 1], [0, 1]])) == qidentity(2)
    lam2 = GLnCocharacter(qidentity(2), (1, -1))
    assert limit_conj(lam2, m([[0, 1], [0, 0]])) == m([[0, 0], [0, 0]])
    lam3 = GLnCocharacter(identity(2), (5, 5))
    x = m([[3, 4], [5, 6]])
    assert limit_conj(lam3, x) == x
    # nonexistence: nonzero entry of negative weight
    assert limit_conj(lam, m([[1, 0], [1, 1]])) is None


def test_in_parabolic_examples():
    # levi_part is defined exactly on the parabolic P(lam)
    lam = GLnCocharacter(qidentity(2), (1, 0))
    assert levi_part(lam, qidentity(2)) == qidentity(2)
    assert levi_part(lam, m([[1, 5], [0, 2]])) == m([[1, 0], [0, 2]])
    with pytest.raises(ValueError, match="outside the parabolic"):
        levi_part(lam, m([[1, 0], [5, 2]]))
    with pytest.raises(ValueError, match="invertible"):
        levi_part(lam, m([[1, 1], [1, 1]]))


def test_levi_part_examples():
    lam = GLnCocharacter(qidentity(2), (1, 0))
    assert levi_part(lam, m([[2, 7], [0, 3]])) == m([[2, 0], [0, 3]])
    assert levi_part(lam, m([[1, 9], [0, 1]])) == qidentity(2)  # unipotent radical
    with pytest.raises(ValueError):
        levi_part(lam, m([[1, 0], [5, 2]]))


def test_levi_part_is_homomorphism():
    lam = GLnCocharacter(m([[1, 1], [0, 1]]), (2, -1))
    g_inv = qinverse(lam.g)
    p1 = qmul(qmul(lam.g, m([[2, 5], [0, 1]])), g_inv)
    p2 = qmul(qmul(lam.g, m([[1, -3], [0, 4]])), g_inv)
    assert levi_part(lam, qmul(p1, p2)) == qmul(levi_part(lam, p1), levi_part(lam, p2))


# The formulas limit_conj and levi_part used before they moved
# onto integer numerators, kept here only as an oracle.


def _old_in_basis(lam, x):
    return qmul(qmul(qinverse(lam.g), x), lam.g)


def _old_no_negative_weight(lam, y):
    e = lam.exponents
    return all(y[i][j] == 0 for i in range(lam.n) for j in range(lam.n) if e[i] < e[j])


def _old_weight_zero_part(lam, y):
    e = lam.exponents
    z = tuple(
        tuple(y[i][j] if e[i] == e[j] else F(0) for j in range(lam.n)) for i in range(lam.n)
    )
    return qmul(qmul(lam.g, z), qinverse(lam.g))


def _old_limit_conj(lam, x):
    y = _old_in_basis(lam, x)
    return _old_weight_zero_part(lam, y) if _old_no_negative_weight(lam, y) else None


def _random_rational_matrix(rng, n):
    return m([[F(rng.randint(-6, 6), rng.choice([1, 2, 3, 7])) for _ in range(n)] for _ in range(n)])


def _invertible(rng, n):
    while True:
        g = _random_rational_matrix(rng, n)
        if qdet(g) != 0:
            return g


def test_graded_maps_match_the_inverse_product_formulas():
    rng = random.Random(2012)
    seen = {"limit": 0, "no limit": 0, "in P": 0, "outside P": 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        lam = oracles.sample_gln_cocharacter(rng, n)
        if rng.random() < 0.5:
            lam = GLnCocharacter(_invertible(rng, n), lam.exponents)
        for x in (_random_rational_matrix(rng, n), oracles.sample_matrix_with_limit(rng, lam)):
            ref = _old_limit_conj(lam, x)
            assert limit_conj(lam, x) == ref
            seen["no limit" if ref is None else "limit"] += 1
        for h in (oracles.sample_invertible_matrix(rng, n), oracles.sample_parabolic_element(rng, lam)):
            y = _old_in_basis(lam, h)
            inside = _old_no_negative_weight(lam, y)
            if inside:
                assert levi_part(lam, h) == _old_weight_zero_part(lam, y)
            else:
                with pytest.raises(ValueError, match="outside the parabolic"):
                    levi_part(lam, h)
            seen["in P" if inside else "outside P"] += 1
    assert min(seen.values()) >= 50, seen


def test_one_limiter_per_matrix_matches_the_inverse_product_formula():
    """One conj_limiter(x) tried against many cocharacters, as the
    limit-conjugacy suite does, among them g with fractional entries and
    unsorted exponents, whose columns are reordered."""
    rng = random.Random(1977)
    seen = {"limit": 0, "no limit": 0, "reordered": 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        lams = []
        for _ in range(25):
            exps = tuple(rng.randint(-3, 3) for _ in range(n))
            if rng.random() < 0.5:
                lam = GLnCocharacter(_invertible(rng, n), exps)
            else:
                lam = oracles.sample_gln_cocharacter(rng, n)
            seen["reordered"] += exps != lam.exponents
            c = lcm(*[v.denominator for row in lam.g for v in row])
            assert lam.g_int == tuple(tuple(int(c * v) for v in row) for row in lam.g)
            lams.append(lam)
        lams.append(GLnCocharacter(identity(n), (rng.randint(-3, 3),) * n))
        for x in (_random_rational_matrix(rng, n), oracles.sample_matrix_with_limit(rng, lams[0])):
            limit = conj_limiter(x)
            for lam in lams:
                ref = _old_limit_conj(lam, x)
                assert limit(lam) == ref == limit_conj(lam, x)
                seen["no limit" if ref is None else "limit"] += 1
    assert min(seen.values()) >= 300, seen


def test_limiter_keeps_the_shape_errors():
    lam2, lam3 = central_cocharacter(2), central_cocharacter(3)
    limit = conj_limiter(m([[1, 2], [3, 4]]))
    with pytest.raises(ValueError, match="^shape mismatch$"):
        limit(lam3)
    assert limit(lam2) == m([[1, 2], [3, 4]])
    limit = conj_limiter(m([[1, 2], [3, 4], [5, 6]]))
    with pytest.raises(ValueError, match="^shape mismatch$"):
        limit(lam2)
    with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
        limit(lam3)
    with pytest.raises(ValueError, match="^ragged matrix$"):
        conj_limiter([[1, 2], [3]])


def test_cramer_determinants_equal_the_entries_of_the_full_product():
    """Entry (i, j) of H X G ((d, H) = lam.inverse, H = d G^-1) times det G
    is d times det(G with column i replaced by X g_j), Cramer's rule, by
    which _limit decides a negative-weight entry before G is inverted; on
    integer rows of the wrong shape _limit keeps its message."""
    rng = random.Random(1968)
    for _ in range(60):
        n = rng.randint(1, 4)
        lam = oracles.sample_gln_cocharacter(rng, n)
        if rng.random() < 0.5:
            lam = GLnCocharacter(_invertible(rng, n), lam.exponents)
        xi = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        g, (d, h) = lam.g_int, lam.inverse
        det_g = intlinalg.det(g)
        for i in range(n):
            for j in range(n):
                full = sum(h[i][k] * xi[k][l] * g[l][j] for k in range(n) for l in range(n))
                xg = [sum(xi[k][l] * g[l][j] for l in range(n)) for k in range(n)]
                replaced = [[xg[r] if c == i else g[r][c] for c in range(n)] for r in range(n)]
                assert full * det_g == d * intlinalg.det(replaced)
    empty = central_cocharacter(0)
    assert gln._limit(empty, [], 1) == () and limit_conj(empty, ()) == ()
    lam = central_cocharacter(2)
    for bad in ([[1, 2], [3, 4], [5, 6]], [[1, 2], [3]]):
        with pytest.raises(ValueError, match="^shape mismatch in matrix product$"):
            gln._limit(lam, bad, 1)


def test_gln_rechecks_are_not_asserts():
    """gln's certificate re-checks call require, which python -O keeps;
    tests/test_no_asserts.py scans gln for any assert left."""
    gln.require(True, "unused")
    with pytest.raises(gln.CertificateError, match="^lost$"):
        gln.require(False, "lost")


def test_g_is_inverted_only_for_a_cocharacter_whose_limit_exists(monkeypatch):
    """Over limit-conjugacy seeds 0-29 at max_size 3, a rejected try inverts
    nothing and an accepted one inverts G once; a singular g is refused at
    construction without inverting; jkv_gln inverts once per instance."""
    calls = []
    real_inverse, real_limit = gln.inverse, gln._limit
    monkeypatch.setattr(gln, "inverse", lambda a: calls.append(a) or real_inverse(a))
    tries = []

    def counted_limit(lam, xi, c):
        before = len(calls)
        val = real_limit(lam, xi, c)
        tries.append((val is not None, len(calls) - before))
        return val

    monkeypatch.setattr(gln, "_limit", counted_limit)
    for seed in range(30):
        assert run_suite("limit-conjugacy", FuzzConfig(seed=seed, count=1, max_size=3)).passed
    accepted = sum(ok for ok, _ in tries)
    assert set(tries) == {(True, 1), (False, 0)}
    assert len(calls) == accepted and len(tries) > 2 * accepted > 0
    del calls[:]
    with pytest.raises(ProblemFormatError, match="^matrix is singular$"):
        GLnCocharacter([[1, 2], [2, 4]], (1, 0))
    assert calls == []
    for seed in range(30):
        before = len(calls)
        assert run_suite("jkv-gln", FuzzConfig(seed=seed, count=1, max_size=3)).passed
        assert len(calls) - before == 1


def test_a_wrong_determinant_fails_the_limit_recheck_under_python_O():
    """With the determinant _limit reads patched to report 0, every try is
    accepted by the determinants, and one whose limit does not exist must
    fail the require on Y: limit_conj raises CertificateError and never
    returns a wrong limit, and verify exits 4 (internal error), not 1.  The
    reference answer is the Fraction formula of _old_limit_conj."""
    oracle = (_old_in_basis, _old_no_negative_weight, _old_weight_zero_part, _old_limit_conj)
    script = (
        "import random, sys\n"
        "from fractions import Fraction as F\n"
        "from jkvkit import cli, gln, oracles\n"
        "from jkvkit.checks import CertificateError\n"
        "from jkvkit.ratlinalg import qinverse, qmul\n"
        "assert False, 'asserts must be stripped'\n"
        + "".join(map(inspect.getsource, oracle))
        + "real_det = gln.det\n"
        "def det(a):\n"
        "    return 0 if sys._getframe(1).f_code.co_name == '_limit' else real_det(a)\n"
        "gln.det = det\n"
        "rng = random.Random(27)\n"
        "raised, missed, messages = 0, 0, set()\n"
        "for _ in range(100):\n"
        "    n = rng.randint(2, 3)\n"
        "    lam = oracles.sample_gln_cocharacter(rng, n)\n"
        "    x = oracles.sample_gln_matrix(rng, n)\n"
        "    ref = _old_limit_conj(lam, x)\n"
        "    try:\n"
        "        got = gln.limit_conj(lam, x)\n"
        "    except CertificateError as exc:\n"
        "        raised += 1\n"
        "        messages.add(str(exc))\n"
        "        missed += ref is not None\n"
        "    else:\n"
        "        missed += ref is None or got != ref\n"
        "print(raised > 50, missed, sorted(messages))\n"
        "print(cli.main(['verify', '--suite', 'limit-conjugacy', '--seed', '0', '--count', '3']))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-O", "-c", script],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        timeout=120,
    )
    msg = "a limit accepted by determinants has no negative-weight entry"
    assert (proc.returncode, proc.stdout) == (0, f"True 0 [{msg!r}]\n4\n")
    assert f"internal error: CertificateError: {msg}\n" in proc.stderr


def test_bruhat_examples():
    g = m([[2, 1], [0, 3]])
    p, w, u = bruhat(g)
    assert (p, w, u) == (g, qidentity(2), qidentity(2))
    g = m([[0, 1], [1, 0]])
    p, w, u = bruhat(g)
    assert p == qidentity(2) and w == g and u == qidentity(2)
    g = m([[1, 0], [1, 1]])
    p, w, u = bruhat(g)
    assert p == m([[-1, 1], [0, 1]])
    assert w == m([[0, 1], [1, 0]])
    assert u == m([[1, 1], [0, 1]])
    assert qmul(qmul(p, w), u) == g


@settings(max_examples=100, deadline=None)
@given(
    st.integers(1, 5).flatmap(
        lambda n: st.lists(st.integers(-5, 5), min_size=n * n, max_size=n * n)
    )
)
def test_bruhat_soundness_random(entries):
    import math

    from hypothesis import assume

    n = math.isqrt(len(entries))
    g = m([entries[i * n : (i + 1) * n] for i in range(n)])
    assume(qdet(g) != 0)
    p, w, u = bruhat(g)
    assert qmul(qmul(p, w), u) == g
    for i in range(n):
        for j in range(i):
            assert p[i][j] == 0
            assert u[i][j] == 0
        assert u[i][i] == 1
    perm = [row.index(F(1)) for row in w]
    assert sorted(perm) == list(range(n))
    assert all(x in (0, 1) for row in w for x in row)


def _ref_bruhat(g):
    """Reference Bruhat factorization with the same pivots as ``bruhat``:
    row operations give p^-1, column operations clear the earlier pivot rows
    below each pivot and give u^-1, and what is left is w."""
    n = len(g)
    a = [list(r) for r in g]
    p_inv = [list(r) for r in qidentity(n)]
    u_inv = [list(r) for r in qidentity(n)]
    used = [False] * n
    col_of_pivot_row = {}
    for j in range(n):
        r = max(i for i in range(n) if not used[i] and a[i][j] != 0)
        inv = 1 / a[r][j]
        a[r] = [x * inv for x in a[r]]
        p_inv[r] = [x * inv for x in p_inv[r]]
        for i in range(r):
            if a[i][j] != 0:
                c = a[i][j]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
                p_inv[i] = [x - c * y for x, y in zip(p_inv[i], p_inv[r])]
        for i in range(r + 1, n):
            if a[i][j] != 0:
                c = a[i][j]
                j2 = col_of_pivot_row[i]
                for k in range(n):
                    a[k][j] -= c * a[k][j2]
                    u_inv[k][j] -= c * u_inv[k][j2]
        used[r] = True
        col_of_pivot_row[r] = j
    return qinverse(qmat(p_inv)), qmat(a), qinverse(qmat(u_inv))


def _square(n, entries):
    return st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n)


# n x n, n = 1-6, with dense entries or sparse ones from {0, 0, 0, 1, -1, 2}
_SQUARES = st.tuples(
    st.integers(1, 6), st.sampled_from([st.integers(-5, 5), st.sampled_from([0, 0, 0, 1, -1, 2])])
).flatmap(lambda t: _square(*t))


@settings(max_examples=200, deadline=None)
@given(_SQUARES)
def test_bruhat_matches_the_column_operation_loop(rows):
    from hypothesis import assume

    g = m(rows)
    assume(qdet(g) != 0)
    p, w, u = bruhat(g)
    assert (p, w, u) == _ref_bruhat(g)
    # u is nonzero above the diagonal only at inversions of w, which makes
    # g = p w u the unique such factorization
    pivot_row = [next(i for i in range(len(g)) if w[i][j] == 1) for j in range(len(g))]
    for i, j in itertools.combinations(range(len(g)), 2):
        assert u[i][j] == 0 or pivot_row[i] > pivot_row[j]


def test_charpoly_and_minpoly():
    x = m([[2, 1], [0, 2]])
    assert charpoly(x) == poly([4, -4, 1])
    assert minpoly(x) == poly([4, -4, 1])
    d = m([[2, 0], [0, 2]])
    assert minpoly(d) == poly([-2, 1])
    assert charpoly(d) == poly([4, -4, 1])


def test_is_semisimple_matrix_examples():
    assert is_semisimple_matrix(m([[1, 0], [0, 2]]))
    assert not is_semisimple_matrix(m([[0, 1], [0, 0]]))
    assert is_semisimple_matrix(m([[0, 1], [-1, 0]]))  # irrational spectrum, still semisimple
    assert is_semisimple_matrix(())  # the empty matrix: minimal polynomial 1


def test_jordan_chevalley_examples():
    x = m([[1, 0], [0, 2]])
    s, n, p = jordan_chevalley(x)
    assert s == x and is_zero_mat(n)
    x = m([[2, 1], [0, 2]])
    s, n, p = jordan_chevalley(x)
    assert s == m([[2, 0], [0, 2]])
    assert n == m([[0, 1], [0, 0]])
    assert eval_poly_matrix(p, x) == s
    x = m([[0, 1], [-1, 0]])
    s, n, p = jordan_chevalley(x)
    assert s == x and is_zero_mat(n)


def test_jordan_chevalley_properties_nontrivial():
    h = m([[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    j = m([[3, 1, 0], [0, 3, 0], [0, 0, -1]])
    x = qmul(qmul(h, j), qinverse(h))
    s, n, p = jordan_chevalley(x)
    s_true = qmul(qmul(h, m([[3, 0, 0], [0, 3, 0], [0, 0, -1]])), qinverse(h))
    assert s == s_true
    assert qmul(s, n) == qmul(n, s)
    assert is_zero_mat(qmul(qmul(n, n), n))
    assert is_semisimple_matrix(s)
    assert eval_poly_matrix(p, x) == s
    # conjugation equivariance
    c = m([[1, 1, 0], [0, 1, 0], [0, 0, 1]])
    s2, n2, _ = jordan_chevalley(qmul(qmul(c, x), qinverse(c)))
    assert s2 == qmul(qmul(c, s), qinverse(c))
    assert n2 == qmul(qmul(c, n), qinverse(c))


def test_invariant_factors_classify():
    x = m([[0, 1], [0, 0]])
    y = m([[0, 2], [0, 0]])
    assert invariant_factors(x) == invariant_factors(y)
    z = m([[0, 0], [0, 0]])
    assert invariant_factors(x) != invariant_factors(z)
    # invariant factors multiply to the characteristic polynomial
    import math

    from jkvkit.polys import poly_mul

    h = m([[1, 3], [1, 4]])
    w = qmul(qmul(h, m([[5, 0], [0, 5]])), qinverse(h))
    facs = invariant_factors(w)
    prod = poly([1])
    for f in facs:
        prod = poly_mul(prod, f)
    assert prod == charpoly(w)


def test_rational_conjugacy_examples():
    x = m([[0, 1], [0, 0]])
    assert rational_conjugacy(x, x) is not None
    y = m([[0, 2], [0, 0]])
    g = rational_conjugacy(x, y)
    assert g is not None
    assert qmul(qmul(g, x), qinverse(g)) == y
    assert rational_conjugacy(m([[0, 0], [0, 0]]), x) is None
    # conjugate over Q despite irrational eigenvalues
    a = m([[0, 2], [1, 0]])
    b = m([[0, 1], [2, 0]])
    g = rational_conjugacy(a, b)
    assert g is not None and qmul(g, a) == qmul(b, g)


def test_conjugacy_shapes_are_checked_up_front():
    a2, a3 = qidentity(2), qidentity(3)
    wide = m([[1, 2, 3], [4, 5, 6]])
    tall = m([[1, 2], [3, 4], [5, 6]])
    for x, y in [(a2, a3), (a3, a2), (wide, wide), (tall, tall), (a2, wide), (wide, a2), (a3, tall)]:
        with pytest.raises(ValueError, match="^matrices must be square and of equal size$"):
            commutant_basis(x, y)
        with pytest.raises(ValueError, match="^matrices must be square and of equal size$"):
            rational_conjugacy(x, y)


def test_empty_matrices_are_conjugate_by_the_empty_matrix():
    assert commutant_basis((), ()) == []
    assert rational_conjugacy((), ()) == ()


def _reference_commutant_basis(x, y):
    """Reference intertwiner basis: the same system as Fraction rows,
    through kernel_basis."""
    n = len(x)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [F(0)] * (n * n)
            for k in range(n):
                row[i * n + k] += x[k][j]
                row[k * n + j] -= y[i][k]
            rows.append(row)
    kern = kernel_basis(qmat(rows))
    return [tuple(tuple(v[i * n + j] for j in range(n)) for i in range(n)) for v in kern]


def _reference_rational_conjugacy(x, y):
    """Reference decision and witness: invariant factors, then the same
    combination search over the Fraction basis."""
    if x != y and invariant_factors(x) != invariant_factors(y):
        return None
    basis = _reference_commutant_basis(x, y)
    n = len(x)
    for coeffs in _combination_iter(len(basis), n):
        g = qzeros(n, n)
        for c, b in zip(coeffs, basis):
            if c:
                g = tuple(tuple(g[i][j] + c * b[i][j] for j in range(n)) for i in range(n))
        if qdet(g) != 0:
            return g
    raise AssertionError("unreachable")


def _dims_first_rational_conjugacy(x, y):
    """gln.rational_conjugacy as it was before it looked for its witness
    first: dim C(x,x), dim C(y,y) and dim C(x,y) first (Byrnes-Gauger),
    then the same combination search, candidates tested with qdet and the
    witness re-checked with qmul."""

    def rows_of(x, y):
        n = len(x)
        both, _ = int_form(x + y)
        xi, yi = both[:n], both[n:]
        rows = []
        for i in range(n):
            for j in range(n):
                row = [0] * (n * n)
                for k in range(n):
                    row[i * n + k] += xi[k][j]
                    row[k * n + j] -= yi[i][k]
                rows.append(row)
        return rows

    def dim(x):
        m = rows_of(x, x)
        return len(m) - len(intlinalg.fraction_free_rref(m)[1])

    x, y = qmat(x), qmat(y)
    n = len(x)
    if any(len(r) != n for r in x) or len(y) != n or any(len(r) != n for r in y):
        raise ValueError("matrices must be square and of equal size")
    if not x:
        return ()
    kern, d = intlinalg.int_kernel(rows_of(x, y), n * n)
    if x != y and not len(kern) == dim(x) == dim(y):
        return None
    if not kern:
        raise gln.CertificateError("conjugate matrices have nonzero intertwiners")
    for coeffs in _combination_iter(len(kern), n):
        flat = [0] * (n * n)
        for c, v in zip(coeffs, kern):
            if c:
                flat = [a + c * b for a, b in zip(flat, v)]
        if qdet([flat[i * n : (i + 1) * n] for i in range(n)]) != 0:
            g = tuple(tuple(F(a, d) for a in flat[i * n : (i + 1) * n]) for i in range(n))
            if qmul(g, x) != qmul(y, g):
                raise gln.CertificateError("the witness must intertwine x and y")
            return g
    raise gln.CertificateError("an invertible intertwiner exists for conjugate matrices")


_small_fractions = st.builds(F, st.integers(-4, 4), st.sampled_from([1, 1, 1, 2, 3, 6]))


@st.composite
def _invertible_matrices(draw, n):
    """Unit lower triangular times upper triangular times a permutation."""
    low = [[F(int(i == j)) if i <= j else draw(_small_fractions) for j in range(n)] for i in range(n)]
    up = [
        [draw(_small_fractions.filter(bool)) if i == j else draw(_small_fractions) if i < j else F(0) for j in range(n)]
        for i in range(n)
    ]
    perm = draw(st.permutations(range(n)))
    p = [[F(int(perm[i] == j)) for j in range(n)] for i in range(n)]
    return qmul(qmul(qmat(low), qmat(up)), qmat(p))


@st.composite
def _partition(draw, k):
    sizes = []
    while k:
        sizes.append(draw(st.integers(1, k)))
        k -= sizes[-1]
    return sizes


def _jordan(blocks, n):
    """Block-diagonal matrix of Jordan blocks (eigenvalue, size), companion
    blocks (None, (a, b)) of t^2 - a t - b."""
    j = [[F(0)] * n for _ in range(n)]
    pos = 0
    for ev, size in blocks:
        if ev is None:
            a, b = size
            j[pos][pos + 1], j[pos + 1][pos], j[pos + 1][pos + 1] = F(1), b, a
            pos += 2
            continue
        for t in range(size):
            j[pos + t][pos + t] = ev
            if t + 1 < size:
                j[pos + t][pos + t + 1] = F(1)
        pos += size
    return qmat(j)


@st.composite
def _matrix_pairs(draw):
    """(x, y) of one size 1-4: similar by construction, same characteristic
    polynomial but Jordan types drawn independently, or unrelated."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["similar", "same-charpoly", "unrelated"]))
    if kind == "unrelated":
        entries = st.lists(st.lists(_small_fractions, min_size=n, max_size=n), min_size=n, max_size=n)
        return qmat(draw(entries)), qmat(draw(entries))
    companion = n >= 2 and draw(st.booleans())
    rest = n - 2 if companion else n
    evs = draw(st.lists(st.sampled_from([F(0), F(1), F(-2), F(1, 2)]), min_size=rest, max_size=rest))
    head = [(None, (draw(_small_fractions), draw(_small_fractions)))] if companion else []
    mults = {ev: evs.count(ev) for ev in sorted(set(evs))}
    jx = _jordan(head + [(ev, k) for ev, mu in mults.items() for k in draw(_partition(mu))], n)
    if kind == "similar":
        jy = jx
    else:
        jy = _jordan(head + [(ev, k) for ev, mu in mults.items() for k in draw(_partition(mu))], n)
    hx, hy = draw(_invertible_matrices(n)), draw(_invertible_matrices(n))
    return qmul(qmul(hx, jx), qinverse(hx)), qmul(qmul(hy, jy), qinverse(hy))


@given(_matrix_pairs())
@settings(max_examples=250, deadline=None)
@example(pair=(m([[0, 1], [0, 0]]), m([[0, 0], [0, 0]])))
@example(pair=(m([[0, 0], [0, 0]]), m([[0, 1], [0, 0]])))
@example(pair=(m([[0, 1, 0], [0, 0, 0], [0, 0, 0]]), m([[0, 1, 0], [0, 0, 1], [0, 0, 0]])))
def test_rational_conjugacy_matches_invariant_factors(pair):
    x, y = pair
    g = rational_conjugacy(x, y)
    assert (g is not None) == (invariant_factors(x) == invariant_factors(y))
    assert g == _reference_rational_conjugacy(x, y) == _dims_first_rational_conjugacy(x, y)
    assert rational_conjugacy(x, x) == _dims_first_rational_conjugacy(x, x)
    assert commutant_basis(x, y) == _reference_commutant_basis(x, y)
    if g is not None:
        assert qdet(g) != 0 and qmul(g, x) == qmul(y, g)


def _outcome(f, x, y):
    try:
        return f(x, y)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


def _counted_commutant_dims(monkeypatch):
    calls = []
    dim = gln._commutant_dim
    monkeypatch.setattr(gln, "_commutant_dim", lambda xi: calls.append(xi) or dim(xi))
    return calls


def _conjugated(h, x):
    return qmul(qmul(h, x), qinverse(h))


# (x, y, whether the unit vectors and prefix sums of the C(x,y) kernel
# basis hold a witness, or None for a shape error)
_h3 = m([[1, 2, 0], [0, 1, F(1, 2)], [1, 0, 1]])
_DIFFERENTIAL_CASES = [
    ((), (), True),  # n = 0
    (m([[F(3, 4)]]), m([[F(3, 4)]]), True),  # n = 1, x == y
    (m([[F(3, 4)]]), m([[F(-1, 2)]]), False),  # empty C(x,y)
    (m([[0, 1], [0, 0]]), m([[0, 2], [0, 0]]), True),  # conjugate, witness in the prefix
    (m([[F(1, 2), 0], [0, F(1, 2)]]), m([[F(1, 2), 1], [0, F(1, 2)]]), False),  # diag(a, a) vs J(a)
    (m([[F(1, 2), 1], [0, F(1, 2)]]), m([[F(1, 2), 0], [0, F(1, 2)]]), False),
    (m([[1, 0], [0, 2]]), m([[3, 0], [0, 4]]), False),  # empty C(x,y)
    (m([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), m([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), False),  # x == y, prefix misses
    (m([[1, 0, 0], [0, 1, 0], [0, 0, 2]]), _conjugated(_h3, m([[1, 0, 0], [0, 1, 0], [0, 0, 2]])), False),  # h x h^-1
    (m([[0, 2], [1, 0]]), m([[0, 1], [2, 0]]), True),  # conjugate over Q, irrational eigenvalues
    (qidentity(4), qidentity(4), True),  # n = 4, x == y
    (m([[1, 2, 3], [4, 5, 6]]), m([[1, 2, 3], [4, 5, 6]]), None),
    (qidentity(2), qidentity(3), None),
]


@pytest.mark.parametrize("x, y, in_prefix", _DIFFERENTIAL_CASES)
def test_witness_first_conjugacy_matches_the_dims_first_routine(x, y, in_prefix, monkeypatch):
    """Same witness, None or exception as the dims-first routine; the
    commutant dimensions are computed only for x != y once the prefix of
    the combination search holds no witness (y's only when x's equals
    dim C(x,y))."""
    want = _outcome(_dims_first_rational_conjugacy, x, y)
    calls = _counted_commutant_dims(monkeypatch)
    assert _outcome(rational_conjugacy, x, y) == want
    if in_prefix is None:  # a shape error
        return
    prefix_misses = not in_prefix and len(commutant_basis(x, y)) > 0
    assert len(calls) in ((1, 2) if prefix_misses and x != y else (0,))
    if want is not None:
        assert qdet(want) != 0 and qmul(want, x) == qmul(y, want)


def test_commutant_dimensions_are_computed_only_for_a_no(monkeypatch):
    calls = _counted_commutant_dims(monkeypatch)
    x = m([[0, 1], [0, 0]])
    assert rational_conjugacy(x, m([[0, 2], [0, 0]])) is not None
    assert rational_conjugacy(m([[1, 2], [3, 4]]), m([[1, 2], [3, 4]])) is not None
    assert calls == []
    # C(J(a), aI) is nonzero, but every element kills the first column, so
    # the prefix misses; dim C(J(a), J(a)) = 2 = dim C(J(a), aI), and
    # dim C(aI, aI) = 4 decides the "no"
    a = F(-2, 3)
    jordan, scalar = m([[a, 1], [0, a]]), m([[a, 0], [0, a]])
    assert rational_conjugacy(jordan, scalar) is None
    assert len(calls) == 2
    # the other way round dim C(aI, aI) = 4 differs from the first
    assert rational_conjugacy(scalar, jordan) is None
    assert len(calls) == 3


def test_jkv_gln_examples():
    x = m([[0, 1], [0, 0]])
    cert = jkv_gln(x)
    assert is_zero_mat(cert.s) and cert.n == x and cert.ok
    assert limit_conj(cert.cocharacter, x) == cert.s

    x = m([[2, 1], [0, 2]])
    cert = jkv_gln(x)
    assert cert.s == m([[2, 0], [0, 2]]) and cert.ok

    x = m([[1, 0], [0, 5]])
    cert = jkv_gln(x)
    assert cert.s == x and cert.cocharacter.exponents == (0, 0) and cert.ok


def test_jkv_gln_non_split():
    # semisimple part has eigenvalues 1 +- sqrt(2) and a nilpotent block on top
    x = m(
        [
            [1, 2, 1, 0],
            [1, 1, 0, 1],
            [0, 0, 1, 2],
            [0, 0, 1, 1],
        ]
    )
    cert = jkv_gln(x)
    assert cert.ok and all(cert.clauses.values())
    assert not is_zero_mat(cert.n)
    assert cert.s == jordan_chevalley(x)[0]
    assert limit_conj(cert.cocharacter, x) == cert.s


def _companion_power_conjugate(rng):
    """h (C(f^k) + an optional 1 x 1 block) h^-1: C(f^k) the companion matrix
    of the k-th power (k = 2 or 3) of an irreducible quadratic f, h unimodular.
    The semisimple part never splits over Q and the nilpotent part is nonzero."""
    while True:
        b, c = rng.randint(-4, 4), rng.randint(-4, 4)
        disc = b * b - 4 * c
        if disc < 0 or isqrt(disc) ** 2 != disc:
            break
    g = poly([1])
    for _ in range(rng.randint(2, 3)):
        g = poly_mul(g, poly([c, b, 1]))
    d = len(g) - 1
    size = d + rng.randint(0, 1)
    block = [[0] * size for _ in range(size)]
    for i in range(d):
        block[i][d - 1] = -g[i]
        if i:
            block[i][i - 1] = 1
    if size > d:
        block[d][d] = rng.randint(-3, 3)
    h = qmat(oracles._random_unimodular(rng, size))
    return qmul(qmul(h, qmat(block)), qinverse(h))


def _kernel_dims(nmat):
    """dim ker nmat^j for j = 0, 1, ... up to the first j with nmat^j = 0."""
    size = len(nmat)
    dims, power = [0], qidentity(size)
    while dims[-1] < size:
        power = qmul(power, nmat)
        dims.append(len(kernel_basis(power)))
    return dims


def test_jkv_gln_certifies_companion_power_conjugates():
    rng = random.Random(13)
    for _ in range(100):
        x = _companion_power_conjugate(rng)
        cert = jkv_gln(x)
        assert cert.ok, cert.clauses
        assert not is_zero_mat(cert.n)
        assert cert.s == jordan_chevalley(x)[0]
        assert limit_conj(cert.cocharacter, x) == cert.s


def test_jkv_gln_exponent_blocks_follow_the_kernel_flag():
    # exponent m - j on W_j, whose dimension is dim K_j - dim K_(j-1)
    rng = random.Random(17)
    xs = [_companion_power_conjugate(rng) for _ in range(10)]
    xs += [oracles.sample_rational_spectrum_matrix(rng, rng.randint(1, 4))[0] for _ in range(40)]
    for x in xs:
        cert = jkv_gln(x)
        dims = _kernel_dims(cert.n)
        top = len(dims) - 1
        expected = tuple(
            top - j for j in range(1, top + 1) for _ in range(dims[j] - dims[j - 1])
        )
        assert cert.cocharacter.exponents == expected


def test_theorem_check_gln_example():
    # every semisimple limit is rationally conjugate to the semisimple part
    x = m([[1, 1], [0, 1]])
    reference = jkv_gln(x).s
    for exps in ((1, 0), (0, -1)):
        val = limit_conj(GLnCocharacter(qidentity(2), exps), x)
        assert is_semisimple_matrix(val)
        g = rational_conjugacy(val, reference)
        assert g is not None and qmul(g, val) == qmul(reference, g)
    val = limit_conj(central_cocharacter(2), x)
    assert val == x and not is_semisimple_matrix(val)


def test_commutant_contains_polynomials():
    x = m([[1, 2], [3, 4]])
    basis = commutant_basis(x, x)
    assert any(qdet(b) != 0 for b in basis)
    for b in basis:
        assert qmul(b, x) == qmul(x, b)


def _reference_centralizes(x, s):
    """s commutes with every element of the Fraction commutant basis of x."""
    return all(qmul(b, s) == qmul(s, b) for b in _reference_commutant_basis(x, x))


def test_centralizer_clause_matches_the_fraction_reference():
    # false: C(diag(1, 1, 2)) holds the swap of the first two coordinates,
    # which s does not commute with; C(0) is every matrix
    x = m([[1, 0, 0], [0, 1, 0], [0, 0, 2]])
    s = m([[1, F(1, 2), 0], [0, 1, 0], [0, 0, 2]])
    assert gln._centralizes(x, s) is _reference_centralizes(x, s) is False
    assert gln._centralizes(qzeros(2, 2), m([[1, 0], [0, 2]])) is False
    assert gln._centralizes(qzeros(2, 2), m([[F(3, 7), 0], [0, F(3, 7)]])) is True
    assert gln._centralizes((), ()) is True
    # true on sampled matrices and their semisimple parts; mostly false for
    # an unrelated s with mixed denominators
    rng = random.Random(31)
    seen = {True: 0, False: 0}
    for _ in range(60):
        n = rng.randint(1, 4)
        x, s_true, _ = oracles.sample_rational_spectrum_matrix(rng, n)
        assert gln._centralizes(x, s_true) is _reference_centralizes(x, s_true) is True
        s = qmat([[F(rng.randint(-4, 4), rng.choice([1, 2, 3])) for _ in range(n)] for _ in range(n)])
        verdict = gln._centralizes(x, s)
        assert verdict is _reference_centralizes(x, s)
        seen[verdict] += 1
    assert seen[False] >= 20, seen


def test_witness_combinations_are_bounded():
    # 81 unit vectors, 80 prefix sums, 50,000 small draws, 1,000 wide draws
    bound = 81 + 80 + 51_000
    assert sum(1 for _ in itertools.islice(_combination_iter(81, 9), bound + 1)) == bound
    wide = list(itertools.islice(_combination_iter(2, 5), 3 + 50_000, None))
    assert len(wide) == 1_000 and {c for t in wide for c in t} == set(range(-5, 6))


def test_witness_search_ends_with_a_certificate_error(monkeypatch):
    monkeypatch.setattr(gln, "det", lambda a: 0)
    calls = _counted_commutant_dims(monkeypatch)
    with pytest.raises(gln.CertificateError, match="^an invertible intertwiner exists"):
        rational_conjugacy(m([[1, 0], [0, 1]]), m([[1, 0], [0, 1]]))
    assert calls == []
    # a conjugate pair with x != y passes the dimension check, then ends
    # the same way
    with pytest.raises(gln.CertificateError, match="^an invertible intertwiner exists"):
        rational_conjugacy(m([[1, 1], [0, 2]]), m([[2, 0], [0, 1]]))
    assert len(calls) == 2
