"""Independent brute-force oracles and seeded instance generators.

Oracles re-derive answers through machinery disjoint from the modules they
check (sharing only exact arithmetic).  Generators draw from a documented
Mersenne-Twister stream, so identical configs give identical instances.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from .checks import ProblemFormatError
from .gln import GLnCocharacter
from .intlinalg import IntVec, int_kernel, inverse, mat_mul, mat_vec
from .polys import Poly, degree, poly, poly_mod
from .polytope import WeightSet
from .ratlinalg import QMat, qdet, qidentity, qinverse, qmat, qmul
from .torus import FiniteElement, FiniteGroup, RepVector, TorusRep

F = Fraction


# Shape of sampled torus instances: at most MAX_POINTS weights, weight
# coordinates in [-COEFF_BOUND, COEFF_BOUND], vector coordinates with
# numerators and denominators bounded by COORD_BOUND.
MAX_POINTS = 10
COEFF_BOUND = 5
COORD_BOUND = 9


@dataclass(frozen=True)
class FuzzConfig:
    seed: int = 42
    count: int = 100
    max_rank: int = 4
    box: int = 3
    max_size: int = 4

    def __post_init__(self):
        for name in ("count", "max_rank", "box", "max_size"):
            if getattr(self, name) < 1:
                raise ProblemFormatError(f"{name} must be >= 1")

    def rng(self) -> random.Random:
        return random.Random(self.seed)


# ---------------------------------------------------------------------------
# Oracles


def oracle_limit(lam: IntVec, v: RepVector) -> RepVector | None:
    """Re-derivation of the cocharacter limit: bucket the components by the
    symbolic exponent of t and read off the t -> 0 behavior (None as soon as
    a negative exponent appears)."""
    if len(lam) != v.rank:
        raise ValueError("cocharacter rank mismatch")
    by_exponent: dict[int, dict] = {}
    for chi, coords in v.components.items():
        e = sum(map(mul, lam, chi))
        bucket = by_exponent.get(e)
        if bucket is None:
            if e < 0:
                return None
            bucket = by_exponent[e] = {}
        bucket[chi] = coords
    return RepVector(v.rank, by_exponent.get(0, {}))


def _positive_circuits(points):
    """(any circuit exists, union of circuit supports): a circuit is a
    support-minimal all-positive rational relation among the points.

    Only subsets of at most rank + 1 points are solved: a larger subset S
    has a kernel of dimension at least |S| - rank >= 2, so it holds no
    circuit (Caratheodory).  A subset's kernel is taken on its integer
    columns; its one vector is d times the rational one, and the sign test
    reads it as it is, since "all > 0 or all < 0" does not change with the
    sign of d."""
    m = len(points)
    rank = len(points[0]) if points else 0
    union: set[int] = set()
    found = False
    for mask in range(1, 2**m):
        if mask.bit_count() > rank + 1:
            continue
        subset = [i for i in range(m) if mask >> i & 1]
        cols = [list(row) for row in zip(*[points[i] for i in subset])]
        kern, _ = int_kernel(cols, len(subset))
        if len(kern) != 1:
            continue
        v = kern[0]
        if all(x > 0 for x in v) or all(x < 0 for x in v):
            found = True
            union.update(subset)
    return found, union


def oracle_relint(ws: WeightSet) -> bool:
    """Ground-truth relative-interior membership of the origin by solving the
    equality system on every candidate support subset (at most MAX_POINTS + 1
    points, rank <= 4: the shape of `sample_torus_instance`'s supports).

    The origin is in the relative interior exactly when the circuits cover
    every point; a circuit has at most rank + 1 points, because a larger
    subset has a kernel of dimension >= 2, so no larger subset is solved."""
    if len(ws.points) > MAX_POINTS + 1 or ws.rank > 4:
        raise ValueError(f"oracle bounds exceeded: needs <= {MAX_POINTS + 1} points and rank <= 4")
    if not ws.points:
        return True
    pts = ws.sorted_points()
    found, union = _positive_circuits(pts)
    return found and union == set(range(len(pts)))


def charpoly(x: QMat) -> Poly:
    """Monic characteristic polynomial by the Faddeev-LeVerrier recursion."""
    x = qmat(x)
    n = len(x)
    coeffs = [Fraction(1)]  # leading first while building
    m = qidentity(n)
    for k in range(1, n + 1):
        am = qmul(x, m)
        c = -sum(am[i][i] for i in range(n)) / k
        coeffs.append(c)
        m = tuple(
            tuple(am[i][j] + (c if i == j else 0) for j in range(n)) for i in range(n)
        )
    return poly(list(reversed(coeffs)))


def resultant(f: Poly, g: Poly) -> Fraction:
    """Resultant via the subresultant-free Euclidean recursion."""
    if not f or not g:
        return Fraction(0)
    a, b = f, g
    res = Fraction(1)
    while degree(b) > 0:
        r = poly_mod(a, b)
        if not r:
            return Fraction(0)
        res *= b[-1] ** (degree(a) - degree(r)) * Fraction(-1) ** (degree(a) * degree(b))
        a, b = b, r
    return res * b[-1] ** degree(a)


# ---------------------------------------------------------------------------
# Torus-model instance generation


def _random_fraction(rng: random.Random, bound: int) -> Fraction:
    return F(rng.randint(-bound, bound), rng.randint(1, bound))


def random_nonzero_fraction(rng: random.Random, bound: int) -> Fraction:
    return F(rng.choice([x for x in range(-bound, bound + 1) if x]), rng.randint(1, bound))


def _involution_matrix(rng: random.Random, rank: int):
    """Signed-permutation involution of the coordinate lattice."""
    idx = list(range(rank))
    rng.shuffle(idx)
    sigma = list(range(rank))
    signs = [1] * rank
    i = 0
    while i + 1 < len(idx):
        if rng.random() < 0.7:
            a, b = idx[i], idx[i + 1]
            sigma[a], sigma[b] = b, a
            s = rng.choice([1, -1])
            signs[a] = signs[b] = s
            i += 2
        else:
            signs[idx[i]] = rng.choice([1, -1])
            i += 1
    while i < len(idx):
        signs[idx[i]] = rng.choice([1, -1])
        i += 1
    mat = [[0] * rank for _ in range(rank)]
    for j in range(rank):
        mat[sigma[j]][j] = signs[j]
    return tuple(tuple(row) for row in mat)


_INVOLUTORY_2D = (
    ((F(1), F(0)), (F(0), F(1))),
    ((F(-1), F(0)), (F(0), F(-1))),
    ((F(0), F(1)), (F(1), F(0))),
    ((F(1), F(0)), (F(0), F(-1))),
)


def _sample_finite_part(rng: random.Random, rank: int):
    """Order-2 group from a lattice involution, with cocycle-consistent blocks."""
    lattice = _involution_matrix(rng, rank)
    base = set()
    for _ in range(rng.randint(2, max(2, MAX_POINTS // 2))):
        base.add(tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(rank)))
    weights = set()
    for chi in sorted(base):
        orbit = {chi, mat_vec(lattice, chi)}
        if len(weights | orbit) <= MAX_POINTS:
            weights |= orbit
    weights = sorted(weights)
    dims = {}
    for chi in weights:
        partner = mat_vec(lattice, chi)
        if partner in dims:
            dims[chi] = dims[partner]
        else:
            dims[chi] = 1 if rng.random() < 0.8 else 2
    ident_blocks = {chi: qidentity(dims[chi]) for chi in weights}
    blocks = {}
    for chi in weights:
        if chi in blocks:
            continue
        partner = mat_vec(lattice, chi)
        d = dims[chi]
        if partner == chi:
            if d == 1:
                blocks[chi] = ((F(rng.choice([1, -1])),),)
            else:
                blocks[chi] = qmat(rng.choice(_INVOLUTORY_2D))
        else:
            if d == 1:
                c = rng.choice([F(1), F(2), F(1, 2), F(-1), F(3), F(-1, 3)])
                blocks[chi] = ((c,),)
                blocks[partner] = ((1 / c,),)
            else:
                while True:
                    m = qmat(
                        [[F(rng.randint(-2, 2)) for _ in range(d)] for _ in range(d)]
                    )
                    if qdet(m) != 0:
                        break
                blocks[chi] = m
                blocks[partner] = qinverse(m)
    ident = FiniteElement(
        tuple(tuple(1 if i == j else 0 for j in range(rank)) for i in range(rank)),
        ident_blocks,
    )
    flip = FiniteElement(lattice, blocks)
    group = FiniteGroup((ident, flip), ((0, 1), (1, 0)))
    spaces = tuple((chi, dims[chi]) for chi in weights)
    return spaces, group


def sample_torus_instance(rng: random.Random, cfg: FuzzConfig):
    """A module (sometimes with an order-2 finite part) and a vector in it."""
    rank = rng.randint(1, cfg.max_rank)
    finite = None
    if rank >= 2 and rng.random() < 0.4:
        spaces, finite = _sample_finite_part(rng, rank)
    else:
        weights = set()
        for _ in range(rng.randint(3, MAX_POINTS)):
            weights.add(tuple(rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(rank)))
        spaces = tuple(
            (chi, 1 if rng.random() < 0.85 else 2) for chi in sorted(weights)
        )
    rep = TorusRep(rank, spaces, finite)
    comps = {}
    for chi, d in rep.weight_spaces:
        if rng.random() < 0.6:
            comps[chi] = tuple(_random_fraction(rng, COORD_BOUND) for _ in range(d))
    return rep, RepVector(rank, comps)


def sample_weight_set(rng: random.Random, max_rank: int = 3):
    rank = rng.randint(1, max_rank)
    pts = set()
    for _ in range(rng.randint(1, 6)):
        pts.add(tuple(rng.randint(-4, 4) for _ in range(rank)))
    return WeightSet(rank, tuple(sorted(pts)))


# ---------------------------------------------------------------------------
# Matrix-model instance generation


def _random_unimodular(rng: random.Random, n: int) -> list[list[int]]:
    m = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(2 * n, 4 * n)):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j:
            continue
        c = rng.randint(-2, 2)
        if c == 0:
            continue
        for k in range(n):
            m[i][k] += c * m[j][k]
    return m


def sample_rational_spectrum_matrix(rng: random.Random, n: int, diagonalizable=False):
    """h * J * h^-1 from a random Jordan-form J and unimodular h.

    Returns (x, s_true, n_true): the construction is its own eigenvalue
    ground truth for the Jordan-Chevalley decomposition.
    """
    sizes = []
    left = n
    while left > 0:
        k = 1 if diagonalizable else rng.randint(1, left)
        sizes.append(k)
        left -= k
    j = [[0] * n for _ in range(n)]
    d = [[0] * n for _ in range(n)]
    pos = 0
    for k in sizes:
        ev = rng.randint(-5, 5)
        for t in range(k):
            j[pos + t][pos + t] = ev
            d[pos + t][pos + t] = ev
            if t + 1 < k:
                j[pos + t][pos + t + 1] = 1
        pos += k
    h = _random_unimodular(rng, n)
    pivot, hinv = inverse(h)  # h is unimodular: pivot divides every entry
    hinv = [[v // pivot for v in row] for row in hinv]
    x = mat_mul(mat_mul(h, j), hinv)
    s_true = mat_mul(mat_mul(h, d), hinv)
    n_true = [[a - b for a, b in zip(rx, rs)] for rx, rs in zip(x, s_true)]
    return qmat(x), qmat(s_true), qmat(n_true)


def sample_gln_matrix(rng: random.Random, n: int) -> QMat:
    return qmat([[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)])


def sample_invertible_matrix(rng: random.Random, n: int) -> QMat:
    while True:
        m = sample_gln_matrix(rng, n)
        if qdet(m) != 0:
            return m


def sample_gln_cocharacter(rng: random.Random, n: int) -> GLnCocharacter:
    g = _random_unimodular(rng, n)
    exps = sorted((rng.randint(-3, 3) for _ in range(n)), reverse=True)
    return GLnCocharacter(g, tuple(exps))


def sample_parabolic_element(rng: random.Random, lam: GLnCocharacter) -> QMat:
    """Invertible element of P(lam): block upper triangular in the lam basis."""
    n = lam.n
    e = lam.exponents
    while True:
        y = [
            [F(rng.randint(-2, 2)) if e[i] >= e[j] else F(0) for j in range(n)]
            for i in range(n)
        ]
        if qdet(qmat(y)) != 0:
            return qmul(qmul(lam.g, qmat(y)), lam.g_inv)


def sample_matrix_with_limit(rng: random.Random, lam: GLnCocharacter) -> QMat:
    """Matrix whose limit along lam exists: no negative-weight entries."""
    n = lam.n
    e = lam.exponents
    y = [
        [F(rng.randint(-4, 4)) if e[i] >= e[j] else F(0) for j in range(n)]
        for i in range(n)
    ]
    return qmul(qmul(lam.g, qmat(y)), lam.g_inv)
