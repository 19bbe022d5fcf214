"""Univariate polynomials over the rationals, exact throughout.

Coefficients are stored lowest degree first; the zero polynomial is the
empty tuple.  Everything returns normalized tuples (no trailing zeros).
Products and division run on integer numerators over one denominator per
operand (``ratlinalg.scaled``) and build one canonical Fraction per output
coefficient, so they return exactly what Fraction arithmetic would.
"""

from __future__ import annotations

from fractions import Fraction

from .checks import require
from .ratlinalg import scaled
from .rationals import factorize

Poly = tuple[Fraction, ...]


def poly(coeffs) -> Poly:
    c = [x if type(x) is Fraction else Fraction(x) for x in coeffs]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


ZERO: Poly = ()
ONE: Poly = (Fraction(1),)
X: Poly = (Fraction(0), Fraction(1))


def degree(f: Poly) -> int:
    """Degree, with deg 0 = -1."""
    return len(f) - 1


def is_zero(f: Poly) -> bool:
    return not f


def poly_add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    return poly(
        [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    )


def poly_neg(f: Poly) -> Poly:
    return tuple(-x for x in f)


def poly_sub(f: Poly, g: Poly) -> Poly:
    return poly_add(f, poly_neg(g))


def _over(v: list[int], d: int) -> Poly:
    """The polynomial with coefficients v / d, trailing zeros dropped."""
    while v and not v[-1]:
        v.pop()
    return tuple(Fraction(x, d) for x in v)


def poly_mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return ZERO
    fi, a = scaled(f)
    gi, b = scaled(g)
    out = [0] * (len(fi) + len(gi) - 1)
    for i, u in enumerate(fi):
        if u:
            for j, v in enumerate(gi):
                out[i + j] += u * v
    return _over(out, a * b)


def poly_scale(f: Poly, c) -> Poly:
    c = Fraction(c)
    if c == 0:
        return ZERO
    return tuple(x * c for x in f)


def poly_divmod(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """(q, r) with f = q g + r and deg r < deg g, by integer pseudo-division.

    With f = F / a and g = G / b for integer F and G, l the leading
    coefficient of G and k = deg F - deg G + 1, long division of l^k F by G
    stays in the integers: before the step for degree j the remainder is
    divisible by l^(j+1), so each quotient coefficient divides exactly by l.
    It gives l^k F = Q G + R, hence q = b Q / (a l^k) and r = R / (a l^k).
    """
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    fi, a = scaled(f)
    gi, b = scaled(g)
    lead, top = gi[-1], len(gi) - 1
    k = max(0, len(fi) - top)
    scale = lead**k
    r = [v * scale for v in fi]
    q = [0] * k
    for j in range(k - 1, -1, -1):
        c = r[j + top] // lead
        if c:
            q[j] = c
            for i, v in enumerate(gi):
                r[i + j] -= c * v
    den = a * scale
    return _over([b * v for v in q], den), _over(r[:top], den)


def poly_mod(f: Poly, g: Poly) -> Poly:
    return poly_divmod(f, g)[1]


def monic(f: Poly) -> Poly:
    if not f:
        return ZERO
    return poly_scale(f, 1 / f[-1])


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic gcd; poly_gcd(f, 0) is the monic multiple of f."""
    a, b = f, g
    while b:
        a, b = b, poly_mod(a, b)
    return monic(a)


def poly_extended_gcd(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, s, t) with s*f + t*g = d, d the monic gcd."""
    r0, r1 = f, g
    s0, s1 = ONE, ZERO
    t0, t1 = ZERO, ONE
    while r1:
        q, r = poly_divmod(r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, poly_sub(s0, poly_mul(q, s1))
        t0, t1 = t1, poly_sub(t0, poly_mul(q, t1))
    if not r0:
        return ZERO, ZERO, ZERO
    lead = r0[-1]
    return monic(r0), poly_scale(s0, 1 / lead), poly_scale(t0, 1 / lead)


def poly_derivative(f: Poly) -> Poly:
    return poly([i * f[i] for i in range(1, len(f))])


def is_squarefree(f: Poly) -> bool:
    """No repeated irreducible factor: f is prime to its derivative (char 0)."""
    return degree(poly_gcd(f, poly_derivative(f))) == 0


def squarefree_part(f: Poly) -> Poly:
    """Monic product of the distinct irreducible factors of f (char 0)."""
    if degree(f) <= 0:
        return monic(f) if f else ZERO
    g = poly_gcd(f, poly_derivative(f))
    q, r = poly_divmod(f, g)
    require(not r, "the gcd with the derivative must divide f")
    return monic(q)


def poly_invmod(f: Poly, m: Poly) -> Poly:
    """Inverse of f modulo m; requires gcd(f, m) = 1."""
    d, s, _ = poly_extended_gcd(f, m)
    if degree(d) != 0:
        raise ValueError("polynomial is not invertible modulo m")
    return poly_mod(s, m)


def poly_eval(f: Poly, x: Fraction) -> Fraction:
    acc = Fraction(0)
    for c in reversed(f):
        acc = acc * x + c
    return acc


def poly_compose_mod(f: Poly, g: Poly, m: Poly) -> Poly:
    """f(g) reduced modulo m."""
    acc: Poly = ZERO
    for c in reversed(f):
        acc = poly_mod(poly_add(poly_mul(acc, g), (Fraction(c),)), m)
    return acc


def _divisors(n: int) -> list[int]:
    fac = factorize(n)
    divs = [1]
    for p, e in fac.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def rational_roots(f: Poly) -> list[Fraction]:
    """All rational roots, with multiplicity 1 each, sorted ascending.

    Uses the rational-root bound on the integer-cleared polynomial, so the
    prime content of the extreme coefficients must stay under the trial
    division bound (raises UnfactoredError otherwise).
    """
    if not f:
        raise ValueError("every rational is a root of the zero polynomial")
    roots: set[Fraction] = set()
    g = list(f)
    # strip powers of x
    k = 0
    while g and g[0] == 0:
        g.pop(0)
        k += 1
    if k:
        roots.add(Fraction(0))
    if not g or len(g) == 1:
        return sorted(roots)
    ig, _ = scaled(g)
    a0, an = abs(ig[0]), abs(ig[-1])
    for p in _divisors(a0):
        for q in _divisors(an):
            for cand in (Fraction(p, q), Fraction(-p, q)):
                if cand not in roots and poly_eval(poly(g), cand) == 0:
                    roots.add(cand)
    return sorted(roots)
