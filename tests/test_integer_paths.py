"""The integer-numerator polynomial product and division, the integer
minimal polynomial, the integer-form cocharacter limit, polynomial
evaluation, matrix powers and the rational-spectrum sampler, each against the
Fraction-per-step routine it replaced, kept here only as an oracle.  Every
result must be equal, with every coefficient and entry a Fraction."""

import random
from fractions import Fraction
from math import lcm
from operator import mul

import pytest
from hypothesis import given, settings, strategies as st

from jkvkit import oracles
from jkvkit.gln import (
    CertificateError,
    GLnCocharacter,
    ProblemFormatError,
    conj_limiter,
    eval_poly_matrix,
    levi_part,
    limit_conj,
    mat_power,
    minpoly,
)
from jkvkit.intlinalg import fraction_free_rref
from jkvkit.polys import monic, poly, poly_divmod, poly_mul
from jkvkit.ratlinalg import kernel_basis, qdet, qidentity, qinverse, qmat, qmul, qzeros

F = Fraction


# ---------------------------------------------------------------------------
# Reference routines


def _ref_poly_mul(f, g):
    if not f or not g:
        return ()
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] += a * b
    return poly(out)


def _ref_poly_divmod(f, g):
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    q = [F(0)] * max(0, len(f) - len(g) + 1)
    r = list(f)
    inv_lead = 1 / g[-1]
    while len(r) >= len(g) and any(x != 0 for x in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(g):
            break
        c = r[-1] * inv_lead
        d = len(r) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            r[i + d] -= c * b
        r.pop()
    return poly(q), poly(r)


def _ref_minpoly(x):
    x = qmat(x)
    n = len(x)
    powers = [qidentity(n)]
    for d in range(1, n + 1):
        powers.append(qmul(powers[-1], x))
        cols = tuple(zip(*[tuple(v for row in p for v in row) for p in powers]))
        ker = kernel_basis(qmat(cols))
        if ker:
            return monic(poly(ker[0]))
    raise CertificateError("a dependency must appear by the Cayley-Hamilton bound")


def _ref_int_rows(a):
    """Each row of a times the lcm of its denominators, as ints, and those
    row scales."""
    scales = [lcm(*[v.denominator for v in row]) for row in a]
    return [[v.numerator * (s // v.denominator) for v in row] for row, s in zip(a, scales)], scales


def _ref_conjugate_by(gi, xr, xs):
    """g^-1 x g as integer numerators over one denominator: one fraction-free
    solve of g y = x g, with gi any integer multiple of g."""
    n = len(gi)
    gcols = tuple(zip(*gi))
    m = [
        [s * v for v in grow] + [sum(map(mul, xrow, col)) for col in gcols]
        for grow, xrow, s in zip(gi, xr, xs)
    ]
    d, pivots = fraction_free_rref(m, n)
    assert len(pivots) == n
    return [row[n:] for row in m], d


def _ref_limit(g, exps, x):
    """The limit along (g, exps), exps sorted descending, or None."""
    n = len(exps)
    c = lcm(*[v.denominator for row in g for v in row])
    gi = [[int(v * c) for v in row] for row in g]
    y, d = _ref_conjugate_by(gi, *_ref_int_rows(qmat(x)))
    if any(y[i][j] for i in range(n) for j in range(n) if exps[i] < exps[j]):
        return None
    z = tuple(
        tuple(F(y[i][j], d) if exps[i] == exps[j] else F(0) for j in range(n)) for i in range(n)
    )
    return qmul(qmul(g, z), qinverse(g))


def _ref_eval_poly_matrix(f, x):
    n = len(x)
    acc = qzeros(n, n)
    for c in reversed(f):
        acc = qmul(acc, x)
        if c:
            acc = tuple(
                tuple(acc[i][j] + (c if i == j else 0) for j in range(n))
                for i in range(n)
            )
    return acc


def _ref_mat_power(x, k):
    out = qidentity(len(x))
    for _ in range(k):
        out = qmul(out, x)
    return out


def _ref_sample_rational_spectrum_matrix(rng, n, diagonalizable=False):
    sizes = []
    left = n
    while left > 0:
        k = 1 if diagonalizable else rng.randint(1, left)
        sizes.append(k)
        left -= k
    j = [[F(0)] * n for _ in range(n)]
    d = [[F(0)] * n for _ in range(n)]
    pos = 0
    for k in sizes:
        ev = F(rng.randint(-5, 5))
        for t in range(k):
            j[pos + t][pos + t] = ev
            d[pos + t][pos + t] = ev
            if t + 1 < k:
                j[pos + t][pos + t + 1] = F(1)
        pos += k
    h = qmat(oracles._random_unimodular(rng, n))
    hinv = qinverse(h)
    x = qmul(qmul(h, qmat(j)), hinv)
    s_true = qmul(qmul(h, qmat(d)), hinv)
    n_true = tuple(tuple(x[a][b] - s_true[a][b] for b in range(n)) for a in range(n))
    return x, s_true, n_true


def _all_fractions(value):
    if isinstance(value, tuple):
        return all(_all_fractions(v) for v in value)
    return type(value) is F


# ---------------------------------------------------------------------------
# Strategies: mixed denominators and signs


_rationals = st.builds(F, st.integers(-12, 12), st.sampled_from([1, 1, 2, 3, 4, 6, 7, 12]))
_polys = st.lists(_rationals, max_size=6).map(poly)


def _matrices(n):
    return st.lists(
        st.lists(_rationals, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(qmat)


# ---------------------------------------------------------------------------
# Polynomials


@settings(max_examples=400, deadline=None)
@given(_polys, _polys)
def test_poly_mul_and_divmod_match_reference(f, g):
    prod = poly_mul(f, g)
    assert prod == _ref_poly_mul(f, g) and _all_fractions(prod)
    if not g:
        with pytest.raises(ZeroDivisionError, match="^polynomial division by zero$"):
            poly_divmod(f, g)
        return
    got = poly_divmod(f, g)
    assert got == _ref_poly_divmod(f, g) and _all_fractions(got)


def test_poly_divmod_edge_cases():
    f = poly([F(-3, 4), 2, 0, F(5, 6)])
    for g in [
        poly([F(-2, 3)]),  # degree 0, negative, fractional
        poly([7]),
        poly([1, F(1, 2)]),  # non-monic, leading coefficient 1/2
        poly([F(3, 5), 0, -6]),  # non-monic, negative lead
        f,
        poly([0, 0, 0, 0, 1]),  # deg g > deg f
    ]:
        got = poly_divmod(f, g)
        assert got == _ref_poly_divmod(f, g) and _all_fractions(got)
    assert poly_divmod((), poly([F(2, 3)])) == ((), ())
    assert poly_mul((), f) == poly_mul(f, ()) == ()
    with pytest.raises(ZeroDivisionError):
        poly_divmod(f, ())


# ---------------------------------------------------------------------------
# Minimal polynomials


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 4).flatmap(_matrices))
def test_minpoly_matches_reference(x):
    got = minpoly(x)
    assert got == _ref_minpoly(x) and _all_fractions(got)


def test_minpoly_matches_reference_below_full_degree():
    rng = random.Random(1968)
    short = 0
    for _ in range(120):
        n = rng.randint(1, 4)
        x, s, nil = oracles.sample_rational_spectrum_matrix(rng, n)
        k = F(rng.randint(-5, 5) or 1, rng.choice([1, 2, 3, 7]))
        for mat in (x, s, nil, tuple(tuple(k * v for v in row) for row in x)):
            got = minpoly(mat)
            assert got == _ref_minpoly(mat) and _all_fractions(got)
            short += len(got) <= n
    assert short >= 100
    assert minpoly(()) == (F(1),)  # the empty matrix: its identity is already 0


# ---------------------------------------------------------------------------
# Polynomial evaluation, powers and the sampler


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 4).flatmap(_matrices), _polys, st.integers(0, 5))
def test_eval_poly_matrix_and_mat_power_match_reference(x, f, k):
    for g in (f, poly([]), poly([F(-5, 3)]), poly([0, 1])):
        got = eval_poly_matrix(g, x)
        assert got == _ref_eval_poly_matrix(g, x) and _all_fractions(got)
    for e in (0, k):
        got = mat_power(x, e)
        assert got == _ref_mat_power(x, e) and _all_fractions(got)


def test_sampler_matches_reference_and_leaves_the_same_rng_state():
    for seed in range(200):
        for n in range(1, 6):
            for diagonalizable in (False, True):
                rng, ref_rng = random.Random(seed), random.Random(seed)
                got = oracles.sample_rational_spectrum_matrix(rng, n, diagonalizable=diagonalizable)
                ref = _ref_sample_rational_spectrum_matrix(ref_rng, n, diagonalizable)
                assert got == ref and _all_fractions(got)
                assert rng.getstate() == ref_rng.getstate()


# ---------------------------------------------------------------------------
# Cocharacter limits


def _invertible(rng, n):
    while True:
        g = qmat([[F(rng.randint(-6, 6), rng.choice([1, 2, 3, 7])) for _ in range(n)] for _ in range(n)])
        if qdet(g) != 0:
            return g


def test_limits_match_the_conjugate_by_reference():
    """Cocharacters with rational (non-integer) g and unsorted exponents,
    matrices with and without a limit, and the Levi part of parabolic and
    non-parabolic elements."""
    rng = random.Random(2012)
    seen = {"limit": 0, "no limit": 0, "reordered": 0, "in P": 0, "outside P": 0}
    for _ in range(200):
        n = rng.randint(1, 4)
        exps = tuple(rng.randint(-3, 3) for _ in range(n))
        g = _invertible(rng, n)
        lam = GLnCocharacter(g, exps)
        seen["reordered"] += exps != lam.exponents
        # the reference sorts g's columns the same stable way
        order = sorted(range(n), key=lambda j: (-exps[j], j))
        g_sorted = tuple(tuple(row[j] for j in order) for row in g)
        assert lam.g == g_sorted
        for x in (
            qmat([[F(rng.randint(-6, 6), rng.choice([1, 2, 5])) for _ in range(n)] for _ in range(n)]),
            oracles.sample_matrix_with_limit(rng, lam),
        ):
            ref = _ref_limit(g_sorted, lam.exponents, x)
            for got in (limit_conj(lam, x), conj_limiter(x)(lam)):
                assert got == ref and (got is None or _all_fractions(got))
            seen["no limit" if ref is None else "limit"] += 1
        for p in (oracles.sample_invertible_matrix(rng, n), oracles.sample_parabolic_element(rng, lam)):
            ref = _ref_limit(g_sorted, lam.exponents, p)
            if ref is None:
                with pytest.raises(ValueError, match="outside the parabolic"):
                    levi_part(lam, p)
                seen["outside P"] += 1
            else:
                got = levi_part(lam, p)
                assert got == ref and _all_fractions(got)
                seen["in P"] += 1
    assert min(seen.values()) >= 40, seen


def _before_and_after_the_inverse(g, exps, run):
    """run(lam) on a new cocharacter (g, exps) before its inverse is formed,
    then on the same one again once lam.inverse has been read, and on
    another whose inverse is read first: the three answers, outcome or
    (exception type, message)."""

    def outcome(lam):
        try:
            return run(lam)
        except ValueError as exc:
            return type(exc), str(exc)

    lam = GLnCocharacter(g, exps)
    assert "inverse" not in vars(lam)
    first = outcome(lam)
    lam.inverse
    known = GLnCocharacter(g, exps)
    known.inverse
    return first, outcome(lam), outcome(known)


def test_limits_by_determinants_match_the_reference_before_and_after_the_inverse():
    """The determinant test, with its re-check on the product, gives the
    reference answer for limits and Levi parts whether or not the inverse
    was read first: rational g,
    unsorted and repeated exponents, n = 0 to 4, matrices with and without a
    limit, elements inside and outside P(lam)."""
    rng = random.Random(27)
    seen = {"limit": 0, "no limit": 0, "in P": 0, "outside P": 0, "repeated": 0, "n = 0": 0}
    for _ in range(150):
        n = rng.randint(0, 4)
        exps = tuple(rng.randint(-2, 2) for _ in range(n))
        seen["repeated"] += len(set(exps)) < n
        seen["n = 0"] += n == 0
        g = _invertible(rng, n)
        order = sorted(range(n), key=lambda j: (-exps[j], j))
        g_sorted = tuple(tuple(row[j] for j in order) for row in g)
        probe = GLnCocharacter(g, exps)
        for x in (
            qmat([[F(rng.randint(-6, 6), rng.choice([1, 2, 5])) for _ in range(n)] for _ in range(n)]),
            oracles.sample_matrix_with_limit(rng, probe),
        ):
            ref = _ref_limit(g_sorted, probe.exponents, x)
            limit = conj_limiter(x)
            for run in (lambda lam: limit_conj(lam, x), limit):
                answers = _before_and_after_the_inverse(g, exps, run)
                assert answers == (ref,) * 3
                assert ref is None or _all_fractions(answers[0])
            seen["no limit" if ref is None else "limit"] += 1
        for p in (oracles.sample_invertible_matrix(rng, n), oracles.sample_parabolic_element(rng, probe)):
            ref = _ref_limit(g_sorted, probe.exponents, p)
            answers = _before_and_after_the_inverse(g, exps, lambda lam: levi_part(lam, p))
            if ref is None:
                outside = (ValueError, "element is outside the parabolic of this cocharacter")
                assert answers == (outside,) * 3
                seen["outside P"] += 1
            else:
                assert answers == (ref,) * 3 and _all_fractions(answers[0])
                seen["in P"] += 1
    assert min(seen.values()) >= 20, seen


def test_limit_shape_errors_hold_before_and_after_the_inverse():
    """levi_part and conj_limiter keep their exception types and messages
    on a matrix of the wrong shape, before and after its inverse is read."""
    mismatch = (ProblemFormatError, "shape mismatch")
    product = (ValueError, "shape mismatch in matrix product")
    for g, exps, x, want_levi, want_limit in [
        ([[1, 0, 0], [1, 1, 0], [0, 0, 1]], (2, 0, -1), [[1, 2], [3, 5]], product, mismatch),
        ([[1, 1], [0, 1]], (1, 0), [[1, 0, 0], [0, 1, 0], [0, 0, 1]], product, mismatch),
        ([[1, 1], [0, 1]], (1, 0), [[1, 2, 3], [4, 5, 6]],
         (ValueError, "determinant of a non-square matrix"), product),
        ([[1, 0, 0], [1, 1, 0], [0, 0, 1]], (2, 0, -1), [[1, 2], [3, 4], [5, 6]],
         (ValueError, "determinant of a non-square matrix"), product),
        ([[1, 1], [0, 1]], (1, 0), [[1, 2], [3]], (ValueError, "ragged matrix"), None),
        ([[1, 1], [0, 1]], (1, 0), [], product, mismatch),
    ]:
        levi = _before_and_after_the_inverse(g, exps, lambda lam: levi_part(lam, x))
        assert levi == (want_levi,) * 3
        if want_limit is None:
            with pytest.raises(ValueError, match="^ragged matrix$"):
                conj_limiter(x)
        else:
            limit = conj_limiter(x)
            assert _before_and_after_the_inverse(g, exps, limit) == (want_limit,) * 3
