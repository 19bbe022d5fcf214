"""Split torus (times a finite group) acting on a weight-decomposed module.

The group is A x| W: A a rank-r split torus acting diagonally on weight
spaces, W a finite group permuting the weight lattice with invertible
block maps between the weight spaces.  All vectors live over the
rationals and every operation is exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from .intlinalg import (
    IntMat,
    IntVec,
    int_inverse,
    is_unimodular,
    mat_vec,
    pairing,
    primitive,
)
from .polytope import (
    FaceCertificate,
    WeightSet,
    destabilizer,
    find_functional,
    minimal_face_origin,
    origin_in_relint,
)
from .rationals import DEFAULT_FACTOR_BOUND, factorize_fraction
from .ratlinalg import QMat, qdet, qmat, qmat_vec, qmul
from . import intlinalg


class BoxTooSmallError(ValueError):
    """No candidate cocharacter exists inside the requested box."""


@dataclass(frozen=True)
class FiniteElement:
    lattice: IntMat
    blocks: dict[IntVec, QMat]
    lattice_inv: IntMat = field(init=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lattice_inv", int_inverse(self.lattice))


@dataclass(frozen=True)
class FiniteGroup:
    elements: tuple[FiniteElement, ...]
    table: tuple[tuple[int, ...], ...]
    identity: int = field(init=False, compare=False)

    def __post_init__(self):
        n = len(self.elements)
        t = self.table
        if len(t) != n or any(len(r) != n for r in t):
            raise ValueError("multiplication table has the wrong shape")
        if any(x not in range(n) for r in t for x in r):
            raise ValueError("multiplication table entry out of range")
        ident = None
        for e in range(n):
            if all(t[e][j] == j and t[j][e] == j for j in range(n)):
                ident = e
                break
        if ident is None:
            raise ValueError("multiplication table has no identity")
        for i in range(n):
            if not any(t[i][j] == ident and t[j][i] == ident for j in range(n)):
                raise ValueError("multiplication table has a non-invertible element")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if t[t[i][j]][k] != t[i][t[j][k]]:
                        raise ValueError("multiplication table is not associative")
        object.__setattr__(self, "identity", ident)


@dataclass(frozen=True)
class TorusRep:
    rank: int
    weight_spaces: tuple[tuple[IntVec, int], ...]
    finite: FiniteGroup | None = None

    def __post_init__(self):
        ws = tuple((tuple(int(x) for x in chi), int(d)) for chi, d in self.weight_spaces)
        object.__setattr__(self, "weight_spaces", ws)
        weights = [chi for chi, _ in ws]
        if any(len(chi) != self.rank for chi in weights):
            raise ValueError("weight rank mismatch")
        if len(set(weights)) != len(weights):
            raise ValueError("weights must be pairwise distinct")
        if any(d < 1 for _, d in ws):
            raise ValueError("weight space dimensions must be positive")
        if self.finite is not None:
            _validate_finite_group(self)

    def dims(self) -> dict[IntVec, int]:
        return dict(self.weight_spaces)

    def weights(self) -> tuple[IntVec, ...]:
        return tuple(chi for chi, _ in self.weight_spaces)


def _validate_finite_group(rep: TorusRep):
    grp = rep.finite
    dims = rep.dims()
    weights = set(dims)
    for el in grp.elements:
        if not is_unimodular(el.lattice):
            raise ValueError("lattice action must be unimodular")
        image = {mat_vec(el.lattice, chi) for chi in weights}
        if image != weights:
            raise ValueError("lattice action must permute the weight set")
        if set(el.blocks) != weights:
            raise ValueError("block maps must cover exactly the weight set")
        for chi, block in el.blocks.items():
            tgt = mat_vec(el.lattice, chi)
            if len(block) != dims[tgt] or any(len(r) != dims[chi] for r in block):
                raise ValueError("block map shape mismatch")
            if qdet(block) == 0:
                raise ValueError("block maps must be invertible")
    # Compositional consistency with the table: blocks of a product factor
    # through the blocks of the factors.
    t = grp.table
    for i, gi in enumerate(grp.elements):
        for j, gj in enumerate(grp.elements):
            gk = grp.elements[t[i][j]]
            if intlinalg.mat_mul(gi.lattice, gj.lattice) != gk.lattice:
                raise ValueError("lattice actions do not respect the table")
            for chi in weights:
                mid = mat_vec(gj.lattice, chi)
                lhs = qmul(gi.blocks[mid], gj.blocks[chi])
                if lhs != qmat(gk.blocks[chi]):
                    raise ValueError("block maps do not respect the table")


@dataclass
class RepVector:
    rank: int
    components: dict[IntVec, tuple[Fraction, ...]]

    def __post_init__(self):
        comps = {}
        for chi, coords in self.components.items():
            key = tuple(int(x) for x in chi)
            if len(key) != self.rank:
                raise ValueError("component weight rank mismatch")
            vals = tuple(Fraction(c) for c in coords)
            if any(c != 0 for c in vals):
                comps[key] = vals
        self.components = comps

    def is_zero(self) -> bool:
        return not self.components

    def __eq__(self, other):
        return (
            isinstance(other, RepVector)
            and self.rank == other.rank
            and self.components == other.components
        )


@dataclass(frozen=True)
class GroupElement:
    torus: tuple[Fraction, ...]
    finite_index: int | None = None

    def __post_init__(self):
        vals = tuple(Fraction(x) for x in self.torus)
        if any(x == 0 for x in vals):
            raise ValueError("torus entries must be nonzero")
        object.__setattr__(self, "torus", vals)


def zero_vector(rank: int) -> RepVector:
    return RepVector(rank, {})


def vec_add(v: RepVector, w: RepVector) -> RepVector:
    if v.rank != w.rank:
        raise ValueError("rank mismatch")
    out = dict(v.components)
    for chi, coords in w.components.items():
        if chi in out:
            out[chi] = tuple(a + b for a, b in zip(out[chi], coords))
        else:
            out[chi] = coords
    return RepVector(v.rank, out)


def vec_sub(v: RepVector, w: RepVector) -> RepVector:
    return vec_add(v, RepVector(w.rank, {c: tuple(-x for x in t) for c, t in w.components.items()}))


def support(v: RepVector) -> WeightSet:
    """Weights carrying a nonzero component."""
    return WeightSet(v.rank, tuple(sorted(v.components)))


def chi_eval(torus: tuple[Fraction, ...], chi: IntVec) -> Fraction:
    """Value of the character chi on a torus point."""
    out = Fraction(1)
    for a, e in zip(torus, chi):
        if e:
            out *= a**e
    return out


def validate_vector(rep: TorusRep, v: RepVector):
    dims = rep.dims()
    if v.rank != rep.rank:
        raise ValueError("vector rank does not match the module")
    for chi, coords in v.components.items():
        if chi not in dims:
            raise ValueError(f"vector has a component at an absent weight {chi}")
        if len(coords) != dims[chi]:
            raise ValueError(f"component dimension mismatch at weight {chi}")


def group_identity(rep: TorusRep) -> GroupElement:
    idx = rep.finite.identity if rep.finite is not None else None
    return GroupElement((Fraction(1),) * rep.rank, idx)


def _finite_element(rep: TorusRep, g: GroupElement) -> FiniteElement | None:
    if g.finite_index is None:
        return None
    if rep.finite is None:
        raise ValueError("group element references an absent finite part")
    return rep.finite.elements[g.finite_index]


def act(rep: TorusRep, g: GroupElement, v: RepVector) -> RepVector:
    """Apply the finite part first (relocating components), then the torus."""
    validate_vector(rep, v)
    if len(g.torus) != rep.rank:
        raise ValueError("torus rank mismatch")
    el = _finite_element(rep, g)
    out: dict[IntVec, tuple[Fraction, ...]] = {}
    for chi, coords in v.components.items():
        if el is not None:
            tgt = mat_vec(el.lattice, chi)
            coords = qmat_vec(el.blocks[chi], coords)
        else:
            tgt = chi
        factor = chi_eval(g.torus, tgt)
        assert tgt not in out
        out[tgt] = tuple(factor * c for c in coords)
    return RepVector(v.rank, out)


def _twist_torus(el: FiniteElement, torus: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    """Torus point b with chi(b) = (w^-1 chi)(a) for all chi."""
    inv = el.lattice_inv
    r = len(torus)
    return tuple(
        chi_eval(torus, tuple(inv[i][j] for i in range(r))) for j in range(r)
    )


def group_mul(rep: TorusRep, g1: GroupElement, g2: GroupElement) -> GroupElement:
    el1 = _finite_element(rep, g1)
    torus2 = g2.torus if el1 is None else _twist_torus(el1, g2.torus)
    torus = tuple(a * b for a, b in zip(g1.torus, torus2))
    if g1.finite_index is None and g2.finite_index is None:
        idx = None
    else:
        grp = rep.finite
        i = g1.finite_index if g1.finite_index is not None else grp.identity
        j = g2.finite_index if g2.finite_index is not None else grp.identity
        idx = grp.table[i][j]
    return GroupElement(torus, idx)


def group_inverse(rep: TorusRep, g: GroupElement) -> GroupElement:
    inv_torus = tuple(1 / a for a in g.torus)
    if g.finite_index is None:
        return GroupElement(inv_torus)
    grp = rep.finite
    winv = next(
        j
        for j in range(len(grp.elements))
        if grp.table[g.finite_index][j] == grp.identity
    )
    el_winv = grp.elements[winv]
    return GroupElement(_twist_torus(el_winv, inv_torus), winv)


def limit(lam: IntVec, v: RepVector) -> RepVector | None:
    """Limit of lam(t).v as t -> 0: exists iff all support pairings are >= 0,
    and then equals the projection onto the zero-pairing components."""
    if len(lam) != v.rank:
        raise ValueError("cocharacter rank mismatch")
    kept: dict[IntVec, tuple[Fraction, ...]] = {}
    for chi, coords in v.components.items():
        p = 0
        for a, b in zip(lam, chi):
            p += a * b
        if p < 0:
            return None
        if p == 0:
            kept[chi] = coords
    return RepVector(v.rank, kept)


def graded_dim(rep: TorusRep, lam: IntVec, n: int) -> int:
    """Dimension of the subspace where lam acts with exponent n."""
    return sum(d for chi, d in rep.weight_spaces if pairing(lam, chi) == n)


def fixed_dim(rep: TorusRep, lam: IntVec) -> int:
    return graded_dim(rep, lam, 0)


def nonneg_dim(rep: TorusRep, lam: IntVec) -> int:
    return sum(d for chi, d in rep.weight_spaces if pairing(lam, chi) >= 0)


@dataclass
class SemisimpleCertificate:
    semisimple: bool
    barycentric: dict[IntVec, Fraction] | None
    cocharacter: IntVec | None


def is_semisimple(v: RepVector) -> SemisimpleCertificate:
    """Certified closed-orbit test: 0 in relint of the support hull.

    A false verdict carries a cocharacter along which v properly degenerates.
    """
    res = origin_in_relint(support(v))
    if res.inside:
        return SemisimpleCertificate(True, res.barycentric, None)
    lam = res.separator
    lim = limit(lam, v)
    assert lim is not None and lim != v, "separator must witness a proper degeneration"
    return SemisimpleCertificate(False, None, lam)


def is_nilpotent(v: RepVector, fixed: WeightSet) -> tuple[bool, IntVec | None]:
    """Does some cocharacter vanishing on `fixed` send v to 0 in the limit?"""
    if v.is_zero():
        return True, (0,) * v.rank
    lam = find_functional(fixed.sorted_points(), support(v).sorted_points(), uniform=True)
    if lam is None:
        return False, None
    return True, lam


@dataclass
class JkvReport:
    """Clause verdicts of one decomposition check.

    nilpotent_witness is a cocharacter vanishing on supp s and >= 1 on
    supp n: the checked lam itself when it qualifies, otherwise the one
    `is_nilpotent` finds, and None when n is not nilpotent relative to
    supp s.  stabilizer_checks pairs each finite element stabilizing gamma
    with whether it stabilizes s.
    """

    ok: bool
    clauses: dict[str, bool]
    nilpotent_witness: IntVec | None
    stabilizer_checks: list[tuple[int, bool]]


@dataclass
class JkvDecomposition:
    s: RepVector
    n: RepVector
    cocharacter: IntVec
    face: FaceCertificate | None
    report: JkvReport


def _component_ratios(reference: RepVector, target: RepVector):
    """Per-weight scalar q with target = q * reference, or None if some
    component pair is not parallel (the torus acts by scalars per weight)."""
    ratios: dict[IntVec, Fraction] = {}
    for chi, ref in reference.components.items():
        tgt = target.components[chi]
        j = next(i for i, x in enumerate(ref) if x != 0)
        q = tgt[j] / ref[j]
        if q == 0 or any(t != q * r for t, r in zip(tgt, ref)):
            return None
        ratios[chi] = q
    return ratios


def solve_multiplicative(
    rank: int,
    ratios: dict[IntVec, Fraction],
    bound: int = DEFAULT_FACTOR_BOUND,
) -> tuple[Fraction, ...] | None:
    """Torus point a with chi(a) = ratios[chi] for every chi, or None.

    Solved by factoring the ratios over a shared prime set, one integer
    linear system per prime (via Smith normal form), and a GF(2) system for
    the signs.  Ratios with prime content above `bound` raise
    UnfactoredError instead of risking a wrong answer.
    """
    if any(q == 0 for q in ratios.values()):
        raise ValueError("ratios must be nonzero")
    if not ratios:
        return (Fraction(1),) * rank
    chis = sorted(ratios)
    rows = tuple(tuple(chi) for chi in chis)
    facs = {chi: factorize_fraction(ratios[chi], bound) for chi in chis}
    primes = sorted({p for f in facs.values() for p in f})
    exps = [[0] * len(primes) for _ in range(rank)]
    for k, p in enumerate(primes):
        b = tuple(facs[chi].get(p, 0) for chi in chis)
        x = intlinalg.solve_integer(rows, b)
        if x is None:
            return None
        for i in range(rank):
            exps[i][k] = x[i]
    signs = [0 if ratios[chi] > 0 else 1 for chi in chis]
    eps = intlinalg.solve_gf2([[c & 1 for c in chi] for chi in chis], signs)
    if eps is None:
        return None
    out = []
    for i in range(rank):
        val = Fraction(-1 if eps[i] else 1)
        for k, p in enumerate(primes):
            if exps[i][k]:
                val *= Fraction(p) ** exps[i][k]
        out.append(val)
    a = tuple(out)
    assert all(chi_eval(a, chi) == ratios[chi] for chi in chis)
    return a


def _transfers(rep: TorusRep, v: RepVector, target: RepVector):
    """Every group element carrying v to target that some finite element
    admits, one per finite element (identity first), each verified by `act`.

    Per weight the moved and target components must be parallel, and the
    resulting ratio system is solved multiplicatively over the rationals.
    """
    if rep.finite is None:
        order = [None]
    else:
        ident = rep.finite.identity
        order = [ident] + [i for i in range(len(rep.finite.elements)) if i != ident]
    ones = (Fraction(1),) * rep.rank
    tgt_support = support(target)
    for idx in order:
        moved = act(rep, GroupElement(ones, idx), v)
        if support(moved) != tgt_support:
            continue
        ratios = _component_ratios(moved, target)
        if ratios is None:
            continue
        a = solve_multiplicative(rep.rank, ratios)
        if a is None:
            continue
        g = GroupElement(a, idx)
        assert act(rep, g, v) == target
        yield g


def same_orbit(rep: TorusRep, v: RepVector, v2: RepVector) -> GroupElement | None:
    """A group element carrying v to v2, verified by `act`, or None.

    Tries every finite-group element, identity first.
    """
    validate_vector(rep, v)
    validate_vector(rep, v2)
    return next(_transfers(rep, v, v2), None)


def jkv_certifier(rep: TorusRep, gamma: RepVector):
    """The per-clause checker of decompositions (s, n, lam) of gamma.

    Validates gamma and finds, once, every finite element that stabilizes
    gamma jointly with some torus element; the returned certify(s, n, lam)
    checks that each of them also stabilizes s.  A lam that vanishes on
    supp s and pairs to >= 1 with every weight of supp n is itself the
    nilpotency witness; only otherwise does the LP of `is_nilpotent` run.
    """
    validate_vector(rep, gamma)
    supp_gamma = set(gamma.components)
    stabilizers = []
    if rep.finite is not None:
        stabilizers = sorted(_transfers(rep, gamma, gamma), key=lambda g: g.finite_index)

    def certify(s: RepVector, n: RepVector, lam: IntVec) -> JkvReport:
        validate_vector(rep, s)
        validate_vector(rep, n)
        clauses: dict[str, bool] = {}
        clauses["sum"] = vec_add(s, n) == gamma
        clauses["semisimple"] = is_semisimple(s).semisimple
        supp_s = support(s)
        clauses["fixes_s"] = all(pairing(lam, chi) == 0 for chi in supp_s.points)
        clauses["limit"] = limit(lam, gamma) == s
        clauses["support"] = set(supp_s.points) <= supp_gamma
        if clauses["fixes_s"] and all(pairing(lam, chi) >= 1 for chi in n.components):
            nilp, witness = True, lam
        else:
            nilp, witness = is_nilpotent(n, supp_s)
        clauses["nilpotent"] = nilp
        checks = [(g.finite_index, act(rep, g, s) == s) for g in stabilizers]
        clauses["stabilizer"] = clauses["support"] and all(ok for _, ok in checks)
        return JkvReport(all(clauses.values()), clauses, witness, checks)

    return certify


def jkv_certify(
    rep: TorusRep,
    gamma: RepVector,
    s: RepVector,
    n: RepVector,
    lam: IntVec,
) -> JkvReport:
    """Per-clause check that (s, n, lam) is a valid decomposition of gamma."""
    return jkv_certifier(rep, gamma)(s, n, lam)


def jkv_decompose(rep: TorusRep, gamma: RepVector) -> JkvDecomposition:
    """Split gamma into semisimple and nilpotent parts with a limit witness.

    The semisimple part is the projection of gamma onto the minimal face of
    its support hull containing the origin (zero when the origin is outside
    the hull), and the cocharacter is the face supporter (respectively a
    destabilizer).
    """
    validate_vector(rep, gamma)
    supp = support(gamma)
    cert = minimal_face_origin(supp)
    if cert is None:
        s = zero_vector(rep.rank)
        n = gamma
        lam = destabilizer(supp)
        assert lam is not None
    else:
        face = set(cert.face)
        s = RepVector(
            rep.rank, {chi: c for chi, c in gamma.components.items() if chi in face}
        )
        n = vec_sub(gamma, s)
        lam = cert.supporter
    report = jkv_certify(rep, gamma, s, n, lam)
    assert report.ok, f"construction must certify: {report.clauses}"
    return JkvDecomposition(s, n, lam, cert, report)


def _box_iter(rank: int, box: int):
    return itertools.product(range(-box, box + 1), repeat=rank)


def lambda_min(rep: TorusRep, gamma: RepVector, box: int = 3):
    """Minimum of the fixed-space dimension over box cocharacters whose limit
    of gamma exists and is semisimple, with all primitive minimizers.

    Raises BoxTooSmallError when no box cocharacter qualifies.
    """
    if box < 1:
        raise ValueError("box bound must be >= 1")
    validate_vector(rep, gamma)
    best: int | None = None
    minimizers: list[IntVec] = []
    for lam in _box_iter(rep.rank, box):
        val = limit(lam, gamma)
        if val is None:
            continue
        if not origin_in_relint(support(val)).inside:
            continue
        d = fixed_dim(rep, lam)
        if best is None or d < best:
            best = d
            minimizers = [lam]
        elif d == best:
            minimizers.append(lam)
    if best is None:
        raise BoxTooSmallError(f"no semisimple limit inside the box [-{box},{box}]^{rep.rank}")
    witnesses = sorted({primitive(l) for l in minimizers})
    return best, witnesses


def compose_cocharacters(rep: TorusRep, lam0: IntVec, lam: IntVec):
    """Smallest n >= 1 making mu = n*lam0 + lam respect lam0's sign pattern
    on every module weight; the composed limit then factors through mu."""
    weights = rep.weights()
    p0 = {chi: pairing(lam0, chi) for chi in weights}
    p1 = {chi: pairing(lam, chi) for chi in weights}
    n = 1
    while True:
        ok = all(
            (p0[chi] <= 0 or n * p0[chi] + p1[chi] > 0)
            and (p0[chi] >= 0 or n * p0[chi] + p1[chi] < 0)
            for chi in weights
        )
        if ok:
            break
        n += 1
    mu = tuple(n * a + b for a, b in zip(lam0, lam))
    for chi in weights:
        pm = pairing(mu, chi)
        assert (pm == 0) == (p0[chi] == 0 and p1[chi] == 0)
        assert not p0[chi] > 0 or pm > 0
        assert not pm >= 0 or p0[chi] >= 0
    return n, mu


@dataclass
class SurveyEntry:
    cocharacter: IntVec
    exists: bool
    value: RepVector | None
    semisimple: bool


@dataclass
class LimitSurvey:
    box: int
    rank: int
    entries: list[SurveyEntry]

    def semisimple_entries(self) -> list[SurveyEntry]:
        return [e for e in self.entries if e.semisimple]


def limit_survey(rep: TorusRep, gamma: RepVector, box: int = 3) -> LimitSurvey:
    """Record limit existence, value and semisimplicity for every cocharacter
    in the box, in lexicographic order."""
    if box < 1:
        raise ValueError("box bound must be >= 1")
    validate_vector(rep, gamma)
    entries = []
    for lam in _box_iter(rep.rank, box):
        val = limit(lam, gamma)
        if val is None:
            entries.append(SurveyEntry(lam, False, None, False))
        else:
            ss = origin_in_relint(support(val)).inside
            entries.append(SurveyEntry(lam, True, val, ss))
    return LimitSurvey(box, rep.rank, entries)
