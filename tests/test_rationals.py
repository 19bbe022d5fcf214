from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from jkvkit.rationals import (
    UnfactoredError,
    factorize,
    factorize_fraction,
    format_rational,
    integer_nth_root,
    parse_rational,
)


def test_serialization_roundtrip():
    assert format_rational(Fraction(3, 4)) == "3/4"
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert format_rational(Fraction(5)) == "5"
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("−2/3") == Fraction(-2, 3)  # typographic minus


@pytest.mark.parametrize("bad", ["1/ 2", "1.5", "", "--3", "2/-3", "1/0", " 1"])
def test_serialization_rejects_malformed(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_nth_root_examples():
    assert integer_nth_root(8, 3) == 2 and integer_nth_root(27, 3) == 3
    assert integer_nth_root(2, 2) is None
    assert integer_nth_root(17, 1) == 17
    assert integer_nth_root(0, 4) == 0 and integer_nth_root(1, 5) == 1
    assert integer_nth_root(9, 2) == 3 and integer_nth_root(16, 2) == 4
    for a, d in ((-4, 2), (4, 0)):
        with pytest.raises(ValueError):
            integer_nth_root(a, d)


@given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=1, max_value=7))
def test_integer_nth_root_exactness(a, d):
    r = integer_nth_root(a, d)
    if r is not None:
        assert r**d == a
    else:
        # bracket check: some integer cube/square/... strictly straddles a
        lo = int(round(a ** (1.0 / d))) if a else 0
        assert all(k**d != a for k in range(max(0, lo - 2), lo + 3))


@given(st.integers(min_value=1, max_value=10**6))
def test_factorize_reconstructs(n):
    fac = factorize(n)
    prod = 1
    for p, e in fac.items():
        prod *= p**e
    assert prod == n


def test_factorize_bound_is_explicit():
    # a prime above DEFAULT_FACTOR_BOUND is proven prime once p*p exceeds it
    assert factorize(1_000_003) == {1_000_003: 1}
    assert factorize(2 * 1_000_003) == {2: 1, 1_000_003: 1}
    with pytest.raises(UnfactoredError):
        factorize(1_000_003 * 1_000_033)  # no factor at or below the bound


def test_factorize_fraction_signed_exponents():
    assert factorize_fraction(Fraction(8, 27)) == {2: 3, 3: -3}
    assert factorize_fraction(Fraction(-8, 27)) == {2: 3, 3: -3}
