from fractions import Fraction

from hypothesis import given, settings, strategies as st

from jkvkit.polys import (
    degree,
    is_squarefree,
    monic,
    poly,
    poly_derivative,
    poly_divmod,
    poly_extended_gcd,
    poly_gcd,
    poly_invmod,
    poly_mod,
    poly_mul,
    poly_sub,
    rational_roots,
    squarefree_part,
)
from jkvkit.oracles import resultant

X2_MINUS_1 = poly([-1, 0, 1])
X_MINUS_1 = poly([-1, 1])


def test_gcd_examples():
    assert poly_gcd(X2_MINUS_1, X_MINUS_1) == X_MINUS_1
    assert poly_gcd(poly([3, 5, 7]), poly([1])) == poly([1])
    sq = poly_mul(poly([-2, 1]), poly([-2, 1]))
    cb = poly_mul(sq, poly([-2, 1]))
    assert poly_gcd(sq, cb) == monic(sq)
    # gcd with zero is the monic multiple of the other argument
    assert poly_gcd(poly([2, 4]), poly([])) == poly([Fraction(1, 2), 1])


_coeffs = st.lists(st.fractions(min_value=-5, max_value=5), min_size=0, max_size=5)


@settings(max_examples=200)
@given(_coeffs, _coeffs)
def test_gcd_divides_both_and_resultant_oracle(fc, gc):
    f, g = poly(fc), poly(gc)
    d = poly_gcd(f, g)
    if not f and not g:
        assert d == ()
        return
    assert not poly_mod(f, d) if f else True
    assert not poly_mod(g, d) if g else True
    # resultant-based oracle: nontrivial gcd on nonzero inputs <=> resultant 0
    if f and g and degree(f) >= 1 and degree(g) >= 1:
        assert (degree(d) >= 1) == (resultant(f, g) == 0)


@settings(max_examples=100)
@given(_coeffs, _coeffs, _coeffs)
def test_common_divisors_divide_the_gcd(dc, ac, bc):
    d, a, b = poly(dc), poly(ac), poly(bc)
    if not d:
        return
    g = poly_gcd(poly_mul(d, a), poly_mul(d, b))
    if not g:
        return
    assert not poly_mod(g, d)


@settings(max_examples=200)
@given(_coeffs, _coeffs)
def test_divmod_identity(fc, gc):
    f, g = poly(fc), poly(gc)
    if not g:
        return
    q, r = poly_divmod(f, g)
    assert poly_sub(f, poly_mul(q, g)) == r
    assert not r or degree(r) < degree(g)


@settings(max_examples=100)
@given(_coeffs, _coeffs)
def test_extended_gcd_bezout(fc, gc):
    f, g = poly(fc), poly(gc)
    d, s, t = poly_extended_gcd(f, g)
    from jkvkit.polys import poly_add

    assert poly_add(poly_mul(s, f), poly_mul(t, g)) == d


def test_invmod():
    m = poly([1, 0, 1])  # x^2 + 1
    inv = poly_invmod(poly([1, 1]), m)  # (x+1)^-1 mod x^2+1
    assert poly_mod(poly_mul(inv, poly([1, 1])), m) == poly([1])


def test_squarefree_part():
    f = poly_mul(poly_mul(poly([-1, 1]), poly([-1, 1])), poly([-2, 1]))
    assert squarefree_part(f) == monic(poly_mul(poly([-1, 1]), poly([-2, 1])))


def test_is_squarefree():
    f = poly_mul(poly_mul(poly([-1, 1]), poly([-1, 1])), poly([-2, 1]))
    assert not is_squarefree(f) and is_squarefree(squarefree_part(f))
    assert is_squarefree(poly([1, 0, 1]))  # x^2 + 1, irreducible over Q


def test_derivative():
    assert poly_derivative(poly([5, 3, 2])) == poly([3, 4])
    assert poly_derivative(poly([7])) == ()


def test_rational_roots():
    f = poly_mul(poly([-2, 1]), poly([3, 2]))  # (x-2)(2x+3)
    assert rational_roots(f) == [Fraction(-3, 2), Fraction(2)]
    assert rational_roots(poly([1, 0, 1])) == []
    assert rational_roots(poly([0, 0, 1])) == [0]
