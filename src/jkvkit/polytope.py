"""Origin-vs-weight-polytope tests over exact rationals.

Everything here is phrased in terms of a finite set of integer weights:
whether the origin lies in the relative interior of their convex hull,
the minimal face containing the origin, and uniformly-positive
(destabilizing) cocharacters.  All answers carry certificates that are
re-verified by direct arithmetic before being returned.

The relint test solves the separator LP (a functional >= 1 on every point)
first; it is feasible exactly when the origin is outside the hull, and then
no other LP runs.  Only a set whose hull contains the origin reaches the
barycentric LP, after paying for one infeasible separator LP; eps = 0 there
(the origin on the boundary) adds a third LP for a supporting functional.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from operator import index

from .checks import ProblemFormatError, require
from .intlinalg import IntVec, pairing, primitive
from .lp import INFEASIBLE, OPTIMAL, solve_lp
from .ratlinalg import scaled


@dataclass(frozen=True)
class WeightSet:
    rank: int
    points: tuple[IntVec, ...]

    def __post_init__(self):
        try:
            pts = tuple(tuple(map(index, p)) for p in self.points)
        except TypeError:
            raise ProblemFormatError("weight coordinates must be integers") from None
        if any(len(p) != self.rank for p in pts):
            raise ValueError("weight rank mismatch")
        if len(set(pts)) != len(pts):
            raise ValueError("weights must be pairwise distinct")
        object.__setattr__(self, "points", pts)

    def sorted_points(self) -> tuple[IntVec, ...]:
        return tuple(sorted(self.points))


@dataclass
class FaceCertificate:
    """A face of conv(points) with 0 in its relative interior.

    supporter vanishes exactly on the face within the set and is >= 1
    outside it; barycentric is an all-positive representation of 0 over
    the face points, summing to 1.
    """

    face: tuple[IntVec, ...]
    supporter: IntVec
    barycentric: dict[IntVec, Fraction] = field(default_factory=dict)


@dataclass
class RelintResult:
    inside: bool
    barycentric: dict[IntVec, Fraction] | None
    separator: IntVec | None


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


@lru_cache(maxsize=200_000)
def _relint_cached(rank: int, points: tuple[IntVec, ...]):
    if not points:
        return True, {}, None
    lam = find_functional((), points, uniform=True)
    if lam is not None:
        require(all(pairing(lam, p) >= 1 for p in points), "the separator is >= 1 on every point")
        return False, None, lam
    status, eps, coeffs = _barycentric_lp(points)
    require(status == OPTIMAL, "the barycentric LP is optimal when no separator exists")
    if eps > 0:
        bary = dict(zip(points, coeffs))
        _check_barycentric(points, bary)
        return True, bary, None
    lam = find_functional((), points, uniform=False)
    require(lam is not None, "a supporting functional must exist on the boundary")
    require(all(pairing(lam, p) >= 0 for p in points), "the supporter is >= 0 on every point")
    require(any(pairing(lam, p) > 0 for p in points), "the supporter is > 0 on some point")
    return False, None, lam


def _check_barycentric(points, bary):
    rank = len(points[0])
    require(sum(bary.values()) == 1, "barycentric coefficients sum to 1")
    require(all(c > 0 for c in bary.values()), "barycentric coefficients are positive")
    for k in range(rank):
        require(sum(c * p[k] for p, c in bary.items()) == 0, "the barycentric combination is 0")


def origin_in_relint(ws: WeightSet) -> RelintResult:
    """Is 0 in the relative interior of conv(points)?

    True comes with an all-positive barycentric representation of 0 over the
    full set; false with a cocharacter that is >= 0 on the set and positive
    somewhere (strictly separating when 0 is outside the hull entirely).
    Decided by the separator LP alone when 0 is outside the hull; otherwise
    that LP is infeasible and the barycentric LP runs after it, followed by
    a supporting-functional LP when 0 is on the boundary.  Cached per set.
    """
    inside, bary, sep = _relint_cached(ws.rank, ws.sorted_points())
    return RelintResult(inside, dict(bary) if bary is not None else None, sep)


@lru_cache(maxsize=200_000)
def _minimal_face_cached(rank: int, points: tuple[IntVec, ...]):
    inside, bary, sep = _relint_cached(rank, points)
    if inside:
        return FaceCertificate(face=points, supporter=(0,) * rank, barycentric=bary)
    kernel = tuple(p for p in points if pairing(sep, p) == 0)
    if not kernel:
        return None
    inner = _minimal_face_cached(rank, kernel)
    require(inner is not None and inner.face, "the origin stays in the hull of the kernel points")
    face = inner.face
    outside = [p for p in points if p not in face]
    supporter = find_functional(face, outside, uniform=True)
    require(supporter is not None, "polytope faces are exposed")
    require(all(pairing(supporter, p) == 0 for p in face), "the supporter vanishes on the face")
    require(all(pairing(supporter, p) >= 1 for p in outside), "the supporter is >= 1 off the face")
    return FaceCertificate(face=face, supporter=supporter, barycentric=inner.barycentric)


def minimal_face_origin(ws: WeightSet) -> FaceCertificate | None:
    """The unique face of conv(points) whose relative interior contains 0.

    Derived from the relint result: the whole set when 0 is in its relative
    interior, None when the relint separator is nonzero on every point (0 is
    outside the hull; the caller should then ask for a destabilizer), and
    otherwise the minimal face of the separator's kernel points.  The
    supporter vanishes exactly on the face within the set and is >= 1 on the
    rest.
    """
    cert = _minimal_face_cached(ws.rank, ws.sorted_points())
    if cert is None:
        return None
    return FaceCertificate(cert.face, cert.supporter, dict(cert.barycentric))


def destabilizer(ws: WeightSet) -> IntVec | None:
    """Primitive integer cocharacter pairing >= 1 with every point, if any.

    Read from the relint result: its separator when that is >= 1 on every
    point (0 outside the hull), else None.  The empty set is destabilized by
    the zero cocharacter.
    """
    if not ws.points:
        return (0,) * ws.rank
    _, _, sep = _relint_cached(ws.rank, ws.sorted_points())
    if sep is None or any(pairing(sep, p) < 1 for p in ws.points):
        return None
    return sep
