"""Origin-vs-weight-polytope tests over exact rationals.

Everything here is phrased in terms of a finite set of integer weights:
whether the origin lies in the relative interior of their convex hull
(`origin_in_relint`, one `RelintResult` per set) and the minimal face
containing it (`minimal_face_origin`).  All answers carry certificates that
are re-verified by direct arithmetic before being returned.

The relint verdict takes up to three LPs.  The separator LP (a functional
>= 1 on every point) runs first; it is feasible exactly when the origin is
outside the hull, and then no other LP runs.  Otherwise the positive-
combination LP asks for c >= 1 with sum c_i * p_i = 0, one equality row per
coordinate; by Stiemke's alternative it is feasible exactly when the origin
is in the relative interior.  When it is infeasible (the origin on the
boundary) a third LP finds a supporting functional.  The max-min
barycentric LP, the largest of them, runs only where its coefficients are
read: `RelintResult.barycentric`, once per set.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import index

from .checks import ProblemFormatError, read_rank, require
from .intlinalg import IntVec, pairing, primitive
from .lp import INFEASIBLE, OPTIMAL, solve_lp
from .ratlinalg import scaled


@dataclass(frozen=True)
class WeightSet:
    rank: int
    points: tuple[IntVec, ...]

    def __post_init__(self):
        object.__setattr__(self, "rank", read_rank(self.rank))
        try:
            pts = tuple(tuple(map(index, p)) for p in self.points)
        except TypeError:
            raise ProblemFormatError("weight coordinates must be integers") from None
        if any(len(p) != self.rank for p in pts):
            raise ProblemFormatError("weight rank mismatch")
        if len(set(pts)) != len(pts):
            raise ProblemFormatError("weights must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    def sorted_points(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.points))


@dataclass
class RelintResult:
    """Is 0 in the relative interior of conv(points)?  The verdict of one
    sorted weight set.  An inside set has no separator; an outside one has a
    cocharacter that is >= 0 on the set and positive somewhere, and >= 1 on
    every point when 0 is outside the hull entirely."""

    points: tuple[IntVec, ...]
    inside: bool
    separator: IntVec | None

    @property
    def barycentric(self) -> dict[IntVec, Fraction] | None:
        """The all-positive representation of 0 over the whole set that
        maximizes its least coefficient, solved once per set when first
        read; None for an outside set."""
        return dict(_barycentric_cached(self.points)) if self.inside else None


def _barycentric_lp(points):
    """Maximize the minimum coefficient among convex combinations of
    `points` hitting the origin.  Returns (status, eps, coeffs)."""
    m = len(points)
    rank = len(points[0])
    cons = []
    for k in range(rank):
        cons.append(([p[k] for p in points] + [0], "=", 0))
    cons.append(([1] * m + [0], "=", 1))
    for i in range(m):
        row = [0] * (m + 1)
        row[i] = 1
        row[m] = -1
        cons.append((row, ">=", 0))
    objective = [0] * m + [1]
    res = solve_lp(m + 1, cons, objective, nonneg=[True] * m + [False])
    if res.status != OPTIMAL:
        return res.status, None, None
    return OPTIMAL, res.value, res.x[:m]


def find_functional(zero_on, pos_on, uniform=False):
    """Find an integer functional vanishing on zero_on and positive on pos_on.

    With uniform=True it must be >= 1 on every point of pos_on; otherwise it
    must be >= 0 on pos_on with total >= 1 (positive somewhere).  Returns a
    primitive integer vector, None when there is none, and () when both
    point lists are empty.
    """
    pts = list(zero_on) + list(pos_on)
    if not pts:
        return ()
    rank = len(pts[0])
    cons = [(p, "=", 0) for p in zero_on]
    cons += [(p, ">=", 1 if uniform else 0) for p in pos_on]
    if not uniform:
        total = [sum(p[k] for p in pos_on) for k in range(rank)]
        cons.append((total, ">=", 1))
    res = solve_lp(rank, cons, [0] * rank)
    if res.status == INFEASIBLE:
        return None
    require(res.status == OPTIMAL, "a bounded functional LP is feasible or optimal")
    return primitive(scaled(res.x)[0])


def _positive_combination(points) -> bool:
    """Is there c with every c_i >= 1 and sum c_i * p_i = 0?  By Stiemke's
    alternative (Math. Ann. 76, 1915) this holds exactly when 0 is in the
    relative interior of conv(points).  One LP in u = c - 1 >= 0 with one
    equality row per coordinate and no objective; a feasible c is re-checked
    on integers."""
    rank = len(points[0])
    cons = [([p[k] for p in points], "=", -sum(p[k] for p in points)) for k in range(rank)]
    res = solve_lp(len(points), cons, [0] * len(points), nonneg=[True] * len(points))
    if res.status == INFEASIBLE:
        return False
    require(res.status == OPTIMAL, "a feasibility LP is feasible or infeasible")
    c = scaled([1 + u for u in res.x])[0]
    require(all(ci > 0 for ci in c), "the positive combination is positive")
    for k in range(rank):
        require(sum(ci * p[k] for ci, p in zip(c, points)) == 0, "the positive combination is 0")
    return True


@lru_cache(maxsize=200_000)
def _relint_cached(rank: int, points: tuple[IntVec, ...]):
    if not points:
        return True, None
    lam = find_functional((), points, uniform=True)
    if lam is not None:
        require(all(pairing(lam, p) >= 1 for p in points), "the separator is >= 1 on every point")
        return False, lam
    if _positive_combination(points):
        return True, None
    lam = find_functional((), points, uniform=False)
    require(lam is not None, "a supporting functional must exist on the boundary")
    require(all(pairing(lam, p) >= 0 for p in points), "the supporter is >= 0 on every point")
    require(any(pairing(lam, p) > 0 for p in points), "the supporter is > 0 on some point")
    return False, lam


@lru_cache(maxsize=200_000)
def _barycentric_cached(points: tuple[IntVec, ...]) -> dict[IntVec, Fraction]:
    """The max-min barycentric coefficients of a set with 0 in the relative
    interior of its hull, solved when first read."""
    if not points:
        return {}
    status, eps, coeffs = _barycentric_lp(points)
    require(status == OPTIMAL and eps > 0, "an inside set has a positive barycentric representation")
    bary = dict(zip(points, coeffs))
    require(sum(bary.values()) == 1, "barycentric coefficients sum to 1")
    require(all(c > 0 for c in bary.values()), "barycentric coefficients are positive")
    for k in range(len(points[0])):
        require(sum(c * p[k] for p, c in bary.items()) == 0, "the barycentric combination is 0")
    return bary


def origin_in_relint(ws: WeightSet) -> RelintResult:
    """The relint verdict of ws, cached per set; no barycentric LP runs
    until the result's coefficients are read."""
    points = ws.sorted_points()
    return RelintResult(points, *_relint_cached(ws.rank, points))


@lru_cache(maxsize=200_000)
def _minimal_face_cached(rank: int, points: tuple[IntVec, ...]):
    inside, sep = _relint_cached(rank, points)
    if inside:
        return points, (0,) * rank
    kernel = tuple(p for p in points if pairing(sep, p) == 0)
    if not kernel:
        return None
    inner = _minimal_face_cached(rank, kernel)
    require(inner is not None and inner[0], "the origin stays in the hull of the kernel points")
    face = inner[0]
    outside = [p for p in points if p not in face]
    supporter = find_functional(face, outside, uniform=True)
    require(supporter is not None, "polytope faces are exposed")
    require(all(pairing(supporter, p) == 0 for p in face), "the supporter vanishes on the face")
    require(all(pairing(supporter, p) >= 1 for p in outside), "the supporter is >= 1 off the face")
    return face, supporter


def minimal_face_origin(ws: WeightSet) -> tuple[tuple[IntVec, ...], IntVec] | None:
    """(face, supporter): the unique face of conv(points) whose relative
    interior contains 0, as sorted points, and a cocharacter that vanishes
    exactly on the face within the set and is >= 1 on the rest.

    The face is the whole set (with the zero supporter) when 0 is in its
    relative interior, and otherwise the minimal face of the relint
    separator's kernel points; None when the separator is nonzero on every
    point, that is when 0 is outside the hull.  The face's coefficients are
    `origin_in_relint(WeightSet(rank, face)).barycentric`.
    """
    return _minimal_face_cached(ws.rank, ws.sorted_points())
