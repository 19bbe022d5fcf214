"""Exact rational scalars: serialization, integer roots, factorization.

All scalars are `fractions.Fraction` (arbitrary precision, always in lowest
terms, positive denominator).  Nothing in this package ever rounds.
"""

from __future__ import annotations

import re
from fractions import Fraction

_RATIONAL_RE = re.compile(r"^-?\d+(/\d+)?$")

DEFAULT_FACTOR_BOUND = 10**6


class UnfactoredError(ValueError):
    """A rational could not be factored with the configured prime bound."""


def format_rational(q: Fraction) -> str:
    """Serialize as "p/q", or "p" when the denominator is 1."""
    return str(Fraction(q))


def parse_rational(s: str) -> Fraction:
    """Parse "p/q" or "p", optional leading minus, no whitespace."""
    if not isinstance(s, str):
        raise ValueError(f"rational must be a string, got {type(s).__name__}")
    t = s.replace("−", "-")
    if not _RATIONAL_RE.match(t):
        raise ValueError(f"malformed rational: {s!r}")
    if "/" in t:
        num, den = t.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator: {s!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(t))


def integer_nth_root(a: int, d: int):
    """Exact d-th root of a nonnegative integer, or None if a is not a d-th power."""
    if a < 0 or d < 1:
        raise ValueError("integer_nth_root needs a >= 0 and d >= 1")
    if a in (0, 1) or d == 1:
        return a
    # Newton iteration on integers, then an exact check.
    x = 1 << (-(-a.bit_length() // d))
    while True:
        y = ((d - 1) * x + a // x ** (d - 1)) // d
        if y >= x:
            break
        x = y
    return x if x**d == a else None


def factorize(n: int) -> dict[int, int]:
    """Prime factorization of a positive integer by trial division.

    A cofactor left once p*p exceeds it is prime, whatever its size.
    Raises UnfactoredError when the division stops at DEFAULT_FACTOR_BOUND
    before that, leaving a cofactor not proven prime; callers must surface
    that verdict instead of guessing.
    """
    if n < 1:
        raise ValueError("factorize needs a positive integer")
    out: dict[int, int] = {}
    rem = n
    for p in (2, 3):
        while rem % p == 0:
            out[p] = out.get(p, 0) + 1
            rem //= p
    p = 5
    while p * p <= rem and p <= DEFAULT_FACTOR_BOUND:
        for q in (p, p + 2):
            while rem % q == 0:
                out[q] = out.get(q, 0) + 1
                rem //= q
        p += 6
    if rem > 1:
        if p * p <= rem:  # stopped at the bound, so rem is not proven prime
            raise UnfactoredError(f"prime content above bound {DEFAULT_FACTOR_BOUND}: {rem}")
        out[rem] = out.get(rem, 0) + 1
    return out


def factorize_fraction(q: Fraction) -> dict[int, int]:
    """Signed-exponent factorization of a nonzero rational (sign excluded)."""
    if q == 0:
        raise ValueError("cannot factor 0")
    out = dict(factorize(abs(q.numerator)))
    for p, e in factorize(q.denominator).items():
        out[p] = out.get(p, 0) - e
    return {p: e for p, e in out.items() if e != 0}
