"""GL_n over the rationals acting on n x n matrices by conjugation.

Cocharacters are t |-> g diag(t^a_1, ..., t^a_n) g^-1 with integer
exponents; limits, parabolic membership, Levi projections, Bruhat
factorization, exact Jordan-Chevalley decomposition, and rational
conjugacy certificates are all computed without ever leaving the
rationals.

Rational conjugacy is decided by its witness first: an invertible element
of C(X,Y) = { M : M X = Y M }, found on integer rows, certifies "yes".  The
Byrnes-Gauger criterion (Linear and Multilinear Algebra 5, 1977), X ~ Y
over Q iff dim C(X,X) = dim C(Y,Y) = dim C(X,Y), each dimension read from
one fraction-free reduction of integer rows, only decides a "no".
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index, mul

from . import intlinalg, polys
from .checks import CertificateError, ProblemFormatError, require
from .intlinalg import det, fraction_free_rref, identity, int_kernel, inverse, mat_mul, primitive
from .polys import (
    Poly,
    degree,
    is_squarefree,
    monic,
    poly,
    poly_compose_mod,
    poly_derivative,
    poly_divmod,
    poly_invmod,
    poly_mod,
    poly_sub,
    squarefree_part,
)
from .ratlinalg import (
    QMat,
    int_form,
    is_zero_mat,
    qdet,
    qinverse,
    qmat,
    qmul,
    qsub,
    qzeros,
    scaled,
)

_WITNESS_SEED = 0x5EED


@dataclass(frozen=True, init=False, repr=False)
class GLnCocharacter:
    """t |-> g diag(t^a_1, ..., t^a_n) g^-1, held in integer form.

    g_int is G = g times g_den, the lcm of g's denominators, and each
    exponent must be an integer (``operator.index``).  The exponents are
    sorted descending, the columns of g reordered to match.  Construction
    checks only det G != 0 (``intlinalg.det``); G is not inverted, because
    most cocharacters a limit search draws are rejected without the inverse
    (see ``_limit``).  inv_int = inv_den * G^-1, both integer, and the
    rational g and g^-1 are built on first read.
    """

    g_int: tuple[tuple[int, ...], ...]
    g_den: int
    exponents: tuple[int, ...]

    def __init__(self, g, exponents):
        gi, c = int_form(g)
        try:
            exps = tuple(map(index, exponents))
        except TypeError:
            raise ProblemFormatError("exponents must be integers") from None
        n = len(gi)
        if any(len(r) != n for r in gi):
            raise ProblemFormatError("g must be a square matrix")
        if n != len(exps):
            raise ProblemFormatError("exponent count must match the matrix size")
        if list(exps) != sorted(exps, reverse=True):
            # canonical form: sort the exponents and reorder the columns of g
            # to match (stable, so still deterministic)
            order = sorted(range(n), key=lambda j: (-exps[j], j))
            gi = [[row[j] for j in order] for row in gi]
            exps = tuple(exps[j] for j in order)
        if det(gi) == 0:
            raise ProblemFormatError("matrix is singular")
        object.__setattr__(self, "g_int", tuple(map(tuple, gi)))
        object.__setattr__(self, "g_den", c)
        object.__setattr__(self, "exponents", exps)

    def __repr__(self) -> str:
        return f"GLnCocharacter(g={self.g!r}, exponents={self.exponents!r})"

    @cached_property
    def _inverse(self) -> tuple[int, tuple[tuple[int, ...], ...]]:
        inv = inverse(self.g_int)
        require(inv is not None, "a matrix with nonzero determinant has an inverse")
        d, rows = inv
        return d, tuple(map(tuple, rows))

    @property
    def inv_den(self) -> int:
        return self._inverse[0]

    @property
    def inv_int(self) -> tuple[tuple[int, ...], ...]:
        return self._inverse[1]

    @cached_property
    def g(self) -> QMat:
        c = self.g_den
        return tuple(tuple(Fraction(v, c) for v in row) for row in self.g_int)

    @cached_property
    def g_inv(self) -> QMat:
        # g = G / c, so g^-1 = c G^-1 = c inv_int / inv_den
        c, d = self.g_den, self.inv_den
        return tuple(tuple(Fraction(c * v, d) for v in row) for row in self.inv_int)

    @property
    def n(self) -> int:
        return len(self.exponents)


def central_cocharacter(n: int) -> GLnCocharacter:
    return GLnCocharacter(identity(n), (0,) * n)


def _limit(lam: GLnCocharacter, xi: list[list[int]], c: int) -> QMat | None:
    """The limit of lam(t) x lam(t)^-1 as t -> 0 for x = xi / c, or None.

    In lam's basis x is y = G^-1 X G / c, X = xi and G = lam.g_int.  The
    (i, j) entry of y scales by t^(a_i - a_j), so the limit exists iff
    every negative-weight entry (a_i < a_j) vanishes.  Until lam's inverse
    is formed, each such entry is tested by Cramer's rule: entry (i, j) of
    G^-1 X G is det(G with column i replaced by X g_j) / det G, so one
    integer determinant decides it, and a rejected lam stops at the first
    nonzero one without inverting G.  A lam that passes forms the inverse,
    and Y = H X G with H = lam.inv_int = d G^-1 (d = lam.inv_den) must then
    have every negative-weight entry zero: a re-check of the determinant
    verdict.  Once the inverse exists, Y is tested directly.  The limit is
    the weight-zero part Y0 conjugated back, G Y0 H / (d^2 c).
    """
    n, e = lam.n, lam.exponents
    if len(xi) != n or any(len(r) != n for r in xi):
        raise ValueError("shape mismatch in matrix product")
    formed = "_inverse" in vars(lam)
    if not formed:
        # det(G with column i replaced by v) is det(G^T with row i replaced by v)
        cols = list(zip(*lam.g_int))
        for j in range(n):
            xg = None
            # exponents descend, so a_i < a_j only for i > j
            for i in range(j + 1, n):
                if e[i] < e[j]:
                    if xg is None:
                        xg = [sum(map(mul, row, cols[j])) for row in xi]
                    m = cols.copy()
                    m[i] = xg
                    if det(m):
                        return None
    y = mat_mul(mat_mul(lam.inv_int, xi), lam.g_int)
    if any(y[i][j] for j in range(n) for i in range(j + 1, n) if e[i] < e[j]):
        require(formed, "a limit accepted by determinants has no negative-weight entry")
        return None
    y0 = [[v if e[i] == e[j] else 0 for j, v in enumerate(row)] for i, row in enumerate(y)]
    den = lam.inv_den**2 * c
    z = mat_mul(mat_mul(lam.g_int, y0), lam.inv_int)
    return tuple(tuple(Fraction(v, den) for v in row) for row in z)


def conj_limiter(x: QMat):
    """limit(lam), the limit of lam(t) X lam(t)^-1 as t -> 0, or None.

    X is validated and scaled to integer rows once, for every lam tried
    (see ``_limit``).
    """
    xi, c = int_form(x)

    def limit(lam: GLnCocharacter) -> QMat | None:
        if len(xi) != lam.n:
            raise ProblemFormatError("shape mismatch")
        return _limit(lam, xi, c)

    return limit


def limit_conj(lam: GLnCocharacter, x: QMat) -> QMat | None:
    """Limit of lam(t) X lam(t)^-1 as t -> 0, or None."""
    return conj_limiter(x)(lam)


def levi_part(lam: GLnCocharacter, p: QMat) -> QMat:
    """The limit homomorphism on P(lam): block-diagonal part in the grading.

    P(lam) is the set of invertible matrices that are block upper triangular
    in the exponent grading; any other p raises ValueError.  The result
    lands in the centralizer of lam's image; its kernel is exactly the
    unipotent radical of P(lam).
    """
    p = qmat(p)
    if qdet(p) == 0:
        raise ValueError("parabolic membership is only defined for invertible elements")
    val = _limit(lam, *int_form(p))
    if val is None:
        raise ValueError("element is outside the parabolic of this cocharacter")
    return val


def bruhat(g: QMat) -> tuple[QMat, QMat, QMat]:
    """Factor an invertible matrix as p * w * u: p upper triangular, w a
    permutation, u upper unitriangular.

    One upper row reduction, scanning columns left to right: each column
    pivots on the lowest not-yet-used row with a nonzero entry, scales that
    row to a leading 1 and clears the column above it.  The reduced matrix
    M = p^-1 g is then w u: w has its 1 in column j at that column's pivot
    row, and row j of u is M's pivot row for column j, so p = g M^-1.  An
    entry of u above the diagonal, (i, j) with i < j, is nonzero only where
    column i's pivot row lies below column j's, an inversion of w; u in
    U meet w^-1 U^- w makes g = p w u the unique such factorization.
    """
    g = qmat(g)
    n = len(g)
    if qdet(g) == 0:
        raise ProblemFormatError("Bruhat factorization needs an invertible matrix")
    a = [list(r) for r in g]
    pivot_rows: list[int] = []
    for j in range(n):
        r = max(i for i in range(n) if i not in pivot_rows and a[i][j] != 0)
        inv = 1 / a[r][j]
        a[r] = [x * inv for x in a[r]]
        for i in range(r):
            if a[i][j] != 0:
                c = a[i][j]
                a[i] = [x - c * y for x, y in zip(a[i], a[r])]
        pivot_rows.append(r)
    w = qmat([[int(pivot_rows[j] == i) for j in range(n)] for i in range(n)])
    u = tuple(tuple(a[r]) for r in pivot_rows)
    p = qmul(g, qinverse(qmat(a)))
    require(qmul(qmul(p, w), u) == g, "the Bruhat factors must multiply back to g")
    return p, w, u


def minpoly(x: QMat) -> Poly:
    """Monic minimal polynomial: the lowest-degree linear relation among the
    powers I, x, ..., x^n.

    The powers are those of the integer matrix X = c x (``int_form``), and
    one fraction-free kernel of the n^2 x (n+1) matrix of their entries
    holds every relation.  Its first vector belongs to the first non-pivot
    column d, the first power that depends on the ones below it, and is
    zero past d.  A relation sum r_k X^k = 0 is sum r_k c^k x^k = 0, so the
    monic coefficients for x are r_k / (r_d c^(d-k)), one Fraction each.
    """
    xi, c = int_form(x)
    n = len(xi)
    if any(len(r) != n for r in xi):
        raise ValueError("shape mismatch in matrix product")
    power = identity(n)
    vecs = [[v for row in power for v in row]]
    for _ in range(n):
        power = mat_mul(power, xi)
        vecs.append([v for row in power for v in row])
    rel = int_kernel([list(r) for r in zip(*vecs)], n + 1)[0][0]
    d = max(k for k, v in enumerate(rel) if v)
    require(d > 0, "a dependency must involve a power above the identity")
    return tuple(Fraction(rel[k], rel[d] * c ** (d - k)) for k in range(d + 1))


def is_semisimple_matrix(x: QMat) -> bool:
    """Squarefree minimal polynomial, the closed-orbit criterion in char 0."""
    return is_squarefree(minpoly(x))


def eval_poly_matrix(f: Poly, x: QMat) -> QMat:
    """f(x), by Horner on the integer matrix X = c x (``int_form``).

    With d = deg f, f(x) = sum_k f_k c^(d-k) X^k / c^d; one lcm L brings the
    coefficients f_k c^(d-k) to integers a_k, so f(x) is the integer Horner
    value of sum_k a_k X^k over L c^d, one Fraction per entry.
    """
    xi, c = int_form(x)
    n = len(xi)
    if any(len(r) != n for r in xi):
        raise ValueError("shape mismatch in matrix product")
    d = max(len(f) - 1, 0)
    coeffs = [Fraction(v) * c ** (d - k) for k, v in enumerate(f)]
    ints, scale = scaled(coeffs)
    top = ints[-1] if ints else 0
    acc = [[top if i == j else 0 for j in range(n)] for i in range(n)]
    cols = tuple(zip(*xi))
    for a in reversed(ints[:-1]):
        acc = [
            [sum(map(mul, row, col)) + (a if i == j else 0) for j, col in enumerate(cols)]
            for i, row in enumerate(acc)
        ]
    den = scale * c**d
    return tuple(tuple(Fraction(v, den) for v in row) for row in acc)


def jordan_chevalley(x: QMat) -> tuple[QMat, QMat, Poly]:
    """X = S + N with S semisimple, N nilpotent, both polynomials in X.

    Newton iteration on the squarefree part f of the minimal polynomial,
    performed in Q[t]/(minpoly): the eigenvalues are fixed points of the
    iteration, so f'(S_k) stays invertible and the nilpotent defect squares
    away each round.  Returns (S, N, p) with S = p(X).
    """
    x = qmat(x)
    n = len(x)
    m = minpoly(x)
    f = squarefree_part(m)
    fprime = poly_derivative(f)
    s_poly: Poly = polys.X
    for _ in range(n + 2):
        fs = poly_compose_mod(f, s_poly, m)
        if polys.is_zero(fs):
            break
        fps = poly_compose_mod(fprime, s_poly, m)
        inv = poly_invmod(fps, m)
        s_poly = poly_mod(poly_sub(s_poly, polys.poly_mul(fs, inv)), m)
    else:
        raise CertificateError("Newton iteration must converge within log2(n) steps")
    s = eval_poly_matrix(s_poly, x)
    nmat = qsub(x, s)
    return s, nmat, s_poly


def invariant_factors(x: QMat) -> tuple[Poly, ...]:
    """Nonunit invariant factors of tI - X, in divisibility order.

    The reference classification: two rational matrices are conjugate over
    Q exactly when these lists coincide (they classify the Frobenius normal
    form): the monic diagonal of the Smith form of tI - X over Q[t], by
    ``intlinalg.smith_form``.  rational_conjugacy decides by an invertible
    intertwiner and commutant dimensions instead; the tests compare the two.
    """
    x = qmat(x)
    n = len(x)
    m = [[poly([-x[i][j]] + ([1] if i == j else [])) for j in range(n)] for i in range(n)]

    def submul(f, q, g):
        return poly_sub(f, polys.poly_mul(q, g))

    _, d, _ = intlinalg.smith_form(m, degree, poly_divmod, submul, polys.ONE, polys.ZERO)
    diag = (monic(d[i][i]) for i in range(n))
    return tuple(f for f in diag if degree(f) >= 1)


def _int_pair(x: QMat, y: QMat) -> tuple[list[list[int]], list[list[int]]]:
    """x and y as integer rows scaled by one common lcm of their
    denominators, once both are checked square and of equal size."""
    x, y = qmat(x), qmat(y)
    n = len(x)
    if any(len(r) != n for r in x) or len(y) != n or any(len(r) != n for r in y):
        raise ValueError("matrices must be square and of equal size")
    both, _ = int_form(x + y)
    return both[:n], both[n:]


def _commutant_rows(xi: list[list[int]], yi: list[list[int]]) -> list[list[int]]:
    """The n^2 x n^2 system M X - Y M = 0 in the row-major entries of M, for
    integer rows X and Y."""
    n = len(xi)
    rows = []
    for i in range(n):
        for j in range(n):
            row = [0] * (n * n)
            for k in range(n):
                row[i * n + k] += xi[k][j]
                row[k * n + j] -= yi[i][k]
            rows.append(row)
    return rows


def _commutant_dim(xi: list[list[int]]) -> int:
    """dim C(X, X) for integer rows X, the nullity of the commutant system."""
    m = _commutant_rows(xi, xi)
    return len(m) - len(fraction_free_rref(m)[1])


def _over(v: list[int], d: int, n: int) -> QMat:
    """The n x n matrix with row-major entries v / d."""
    return tuple(tuple(Fraction(a, d) for a in v[i * n : (i + 1) * n]) for i in range(n))


def commutant_basis(x: QMat, y: QMat) -> list[QMat]:
    """Basis of the intertwiner space { M : M X = Y M }."""
    xi, yi = _int_pair(x, y)
    n = len(xi)
    kern, d = int_kernel(_commutant_rows(xi, yi), n * n)
    return [_over(v, d, n) for v in kern]


def _combination_iter(k: int, grid_top: int):
    """Integer combinations of k intertwiners to try as a witness, at most
    2k - 1 + 51,000 of them.  Past the unit vectors and prefix sums come
    50,000 draws from {-3, ..., 3}^k, then 1,000 from {-n, ..., n}^k for
    n = grid_top.  det of the combination is a polynomial of degree <= n in
    the coefficients, nonzero when an invertible intertwiner exists, so by
    Schwartz-Zippel each late draw misses with probability at most
    n / (2n + 1) < 1/2."""
    for i in range(k):
        t = [0] * k
        t[i] = 1
        yield tuple(t)
    for i in range(2, k + 1):
        yield tuple([1] * i + [0] * (k - i))
    rng = random.Random(_WITNESS_SEED)
    for _ in range(50_000):
        yield tuple(rng.randint(-3, 3) for _ in range(k))
    for _ in range(1_000):
        yield tuple(rng.randint(-grid_top, grid_top) for _ in range(k))


def rational_conjugacy(x: QMat, y: QMat) -> QMat | None:
    """Invertible g with g X g^-1 = Y over Q, or None.

    X and Y are scaled to integer rows by one common lcm, and one
    fraction-free kernel of C(X,Y) = { M : M X = Y M } is taken.  The
    witness is an invertible element of C(X,Y): the first integer
    combination of its kernel basis (``_combination_iter``) whose integer
    determinant is nonzero.  It is re-checked as M X = Y M on the integer
    rows (``require``) and is the whole certificate of "conjugate".  An
    empty kernel means "no".  The dimensions decide only a "no": when X != Y
    and the unit vectors and prefix sums of the kernel basis hold no
    invertible candidate, X and Y are conjugate exactly when
    dim C(X,X) = dim C(Y,Y) = dim C(X,Y) (Byrnes-Gauger, Linear and
    Multilinear Algebra 5, 1977), each the nullity of one fraction-free
    reduction; unequal nullities return None, and otherwise the search goes
    on.  For n = 0 the answer is the empty matrix, which is invertible.
    """
    xi, yi = _int_pair(x, y)
    n = len(xi)
    if not n:
        return ()
    kern, d = int_kernel(_commutant_rows(xi, yi), n * n)
    k = len(kern)
    if not k:
        return None
    for t, coeffs in enumerate(_combination_iter(k, n)):
        if t == 2 * k - 1 and xi != yi and not k == _commutant_dim(xi) == _commutant_dim(yi):
            return None
        flat = [0] * (n * n)
        for c, v in zip(coeffs, kern):
            if c:
                flat = [a + c * b for a, b in zip(flat, v)]
        m = [flat[i * n : (i + 1) * n] for i in range(n)]
        if det(m):
            require(mat_mul(m, xi) == mat_mul(yi, m), "the witness must intertwine x and y")
            return _over(flat, d, n)
    raise CertificateError("an invertible intertwiner exists for conjugate matrices")


@dataclass
class GlnJkv:
    s: QMat
    n: QMat
    cocharacter: GLnCocharacter
    polynomial: Poly
    clauses: dict[str, bool]
    ok: bool


def _flag_cocharacter(s: QMat, nmat: QMat) -> GLnCocharacter:
    """A cocharacter fixing s whose limit kills nmat, from the kernel flag
    K_j = ker nmat^j; no eigenvalue of s is needed.

    Each K_j is s-stable, as nmat commutes with s, and s is semisimple, so
    K_{j-1} has an s-stable complement W_j in K_j.  A basis prev of K_{j-1}
    is extended by ext to one of K_j, where s is [[A, B], [0, D]]; W_j is
    spanned by ext + prev T for a solution T of A T - T D = -B.  In the
    basis W_1, ..., W_m, with exponent m - j on W_j, s is block diagonal and
    nmat strictly block upper triangular.  Only spans matter, so s, nmat and
    every basis vector are scaled to integers; nmat = 0 gives the identity
    with exponents 0.
    """
    size = len(s)
    si, ni = int_form(s)[0], int_form(nmat)[0]
    prev: list[tuple[int, ...]] = []  # W_1, ..., W_{j-1}, a basis of K_{j-1}
    blocks: list[int] = []  # dim W_j
    power = identity(size)
    while len(prev) < size:
        require(len(blocks) < size, "the nilpotent part must be nilpotent")
        power = mat_mul(power, ni)
        cand = prev + int_kernel([row[:] for row in power], size)[0]
        _, picked = fraction_free_rref([list(r) for r in zip(*cand)])
        basis = [cand[c] for c in picked]  # prev, then ext
        p, k = len(prev), len(basis)
        q = k - p
        # [basis | s basis] reduces to c [I | C], C the matrix of s on K_j
        bmat = [list(r) for r in zip(*basis)]
        m = [b + list(sb) for b, sb in zip(bmat, mat_mul(si, bmat))]
        fraction_free_rref(m, k)
        require(not any(map(any, m[k:])), "the kernel flag of nmat is s-stable")
        # c (A T - T D) = -c B in the unknowns T[l][e], at l * q + e
        rows = []
        for i in range(p):
            for e in range(q):
                row = [0] * (p * q + 1)
                for l in range(p):
                    row[l * q + e] += m[i][k + l]
                for l in range(q):
                    row[i * q + l] -= m[p + l][k + p + e]
                row[-1] = -m[i][k + p + e]
                rows.append(row)
        d, pivots = fraction_free_rref(rows, p * q)
        require(not any(row[-1] for row in rows[len(pivots) :]), "s has an s-stable complement")
        # W_j: d ext_e + sum over l of d T[l][e] prev_l (free unknowns 0)
        ext = [[d * v for v in b] for b in basis[p:]]
        for r, c in enumerate(pivots):
            l, e = divmod(c, q)
            ext[e] = [a + rows[r][-1] * b for a, b in zip(ext[e], prev[l])]
        prev += map(primitive, ext)
        blocks.append(q)
    exponents = [len(blocks) - j for j, q in enumerate(blocks, 1) for _ in range(q)]
    return GLnCocharacter([list(r) for r in zip(*prev)], exponents)


def jkv_gln(x: QMat) -> GlnJkv:
    """Classical Jordan-Chevalley decomposition with a limit certificate.

    The cocharacter is built from the kernel flag of n (``_flag_cocharacter``),
    so every rational matrix gets one, whether or not s splits over Q.
    """
    x = qmat(x)
    s, nmat, p = jordan_chevalley(x)
    lam = _flag_cocharacter(s, nmat)
    clauses = jkv_certify_gln(x, s, nmat, lam)
    clauses["centralizer"] = _centralizes(x, s)
    return GlnJkv(s, nmat, lam, p, clauses, all(clauses.values()))


def _centralizes(x: QMat, s: QMat) -> bool:
    """s commutes with every element of C(x) = { M : M x = x M }, checked as
    M S == S M on the integer kernel vectors M of ``_commutant_rows(X, X)``
    for the integer forms X of x and S of s; their scales cancel."""
    xi, _ = int_form(x)
    si, _ = int_form(s)
    n = len(xi)
    kern, _ = int_kernel(_commutant_rows(xi, xi), n * n)
    for v in kern:
        m = [v[i * n : (i + 1) * n] for i in range(n)]
        if mat_mul(m, si) != mat_mul(si, m):
            return False
    return True


def jkv_certify_gln(x: QMat, s: QMat, n: QMat, lam: GLnCocharacter) -> dict[str, bool]:
    """The limit-certificate clauses of a decomposition x = s + n along lam:
    lam fixes s, s is its limit, n is nilpotent with limit 0."""
    size = len(x)
    return {
        # lam fixes s iff s is its own limit: every entry of nonzero weight
        # vanishes in lam's basis
        "commutes": _limit(lam, *int_form(s)) == s,
        "limit": limit_conj(lam, x) == s,
        "s_semisimple": is_semisimple_matrix(s),
        "n_nilpotent": is_zero_mat(mat_power(n, size)),
        "n_limit_zero": limit_conj(lam, n) == qzeros(size, size),
    }


def mat_power(x: QMat, k: int) -> QMat:
    """x^k as X^k / c^k, X = c x the integer form of x."""
    xi, c = int_form(x)
    out = identity(len(xi))
    for _ in range(k):
        out = mat_mul(out, xi)
    den = c**k
    return tuple(tuple(Fraction(v, den) for v in row) for row in out)
